import math
from fractions import Fraction

import numpy as np
import pytest

from onion_anon import (
    Configuration,
    DestMultiset,
    Observation,
    ScenarioError,
    configuration_prior,
    indistinguishable,
    iter_configurations,
    observe,
    sample_configuration,
    validate_scenario,
)
from onion_anon.model import configuration_prior_exact
from onion_anon.seeding import mix64


def random_scenario(rng, n, dest_count, b):
    p = rng.random((n, dest_count)) + 0.05
    p /= p.sum(axis=1, keepdims=True)
    return validate_scenario(p, b)


class TestValidate:
    def test_smallest_legal_scenario(self):
        s = validate_scenario([[1.0]], 0.0)
        assert s.n == 1 and s.dest_count == 1 and s.b == 0.0

    def test_rejects_non_stochastic_row(self):
        with pytest.raises(ScenarioError, match="^row 1 is not stochastic: it sums to 0.9"):
            validate_scenario([[0.5, 0.5], [0.5, 0.4]], 0.2)

    def test_rejects_b_out_of_range(self):
        with pytest.raises(ScenarioError, match="out of range"):
            validate_scenario([[1.0]], 1.5)

    def test_rejects_negative_entry(self):
        with pytest.raises(ScenarioError, match="negative"):
            validate_scenario([[1.2, -0.2]], 0.5)

    def test_rejects_empty(self):
        with pytest.raises(ScenarioError):
            validate_scenario(np.zeros((0, 2)), 0.5)
        with pytest.raises(ScenarioError, match="^need at least one user$"):
            validate_scenario([], 0.5)

    def test_rows_renormalized(self):
        s = validate_scenario([[0.3 + 2e-13, 0.7]], 0.5)
        assert math.isclose(float(s.p.sum()), 1.0, abs_tol=1e-15)

    def test_matrix_is_read_only(self):
        s = validate_scenario([[0.5, 0.5]], 0.5)
        with pytest.raises(ValueError):
            s.p[0, 0] = 1.0


class TestObserve:
    def setup_method(self):
        self.s = validate_scenario([[0.5, 0.5]] * 3, 0.5)

    def test_fully_hidden(self):
        c = Configuration((0, 1, 0), (False,) * 3, (False,) * 3)
        o = observe(self.s, c)
        assert o.hidden_count == 3
        assert o.linked == () and o.input_only == () and o.output_only.size == 0

    def test_both_endpoints_seen_gives_link(self):
        c = Configuration((1, 0, 0), (True, False, False), (True, False, False))
        o = observe(self.s, c)
        assert (0, 1) in o.linked

    def test_case_mapping(self):
        c = Configuration((0, 1, 0), (True, False, False), (False, True, False))
        o = observe(self.s, c)
        assert o.input_only == (0,)
        assert o.output_only.counts == (0, 1)
        assert o.hidden_count == 1
        assert o.linked == ()

    def test_accounts_for_every_circuit(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            c = Configuration(
                tuple(rng.integers(0, 2, 3).tolist()),
                tuple(bool(x) for x in rng.integers(0, 2, 3)),
                tuple(bool(x) for x in rng.integers(0, 2, 3)),
            )
            o = observe(self.s, c)
            assert len(o.linked) + len(o.input_only) + o.output_only.size + o.hidden_count == 3


class TestPrior:
    def test_direct_product(self):
        s = validate_scenario([[0.3, 0.7]], 0.5)
        c = Configuration((0,), (True,), (True,))
        assert configuration_prior(s, c) == pytest.approx(0.3 * 0.25, abs=1e-15)

    def test_zero_when_b_zero_but_observed(self):
        s = validate_scenario([[0.3, 0.7]], 0.0)
        c = Configuration((0,), (True,), (False,))
        assert configuration_prior(s, c) == 0.0

    def test_sums_to_one_over_all_configurations(self):
        rng = np.random.default_rng(11)
        for n, k, b in [(1, 1, 0.0), (2, 2, 0.5), (3, 2, 0.3), (2, 3, 0.8), (3, 3, 0.6)]:
            s = random_scenario(rng, n, k, b)
            total = math.fsum(configuration_prior(s, c) for c in iter_configurations(s))
            assert abs(total - 1.0) < 1e-12

    def test_exact_prior_sums_to_exactly_one(self):
        s = validate_scenario([[0.5, 0.25, 0.25], [0.75, 0.125, 0.125]], 0.5)
        total = sum(configuration_prior_exact(s, c) for c in iter_configurations(s))
        assert total == Fraction(1)


class TestSampling:
    def test_b_zero_and_one_flags(self):
        s0 = validate_scenario([[0.5, 0.5]] * 4, 0.0)
        s1 = validate_scenario([[0.5, 0.5]] * 4, 1.0)
        for seed in range(20):
            c0 = sample_configuration(s0, seed)
            c1 = sample_configuration(s1, seed)
            assert not any(c0.input_observed) and not any(c0.output_observed)
            assert all(c1.input_observed) and all(c1.output_observed)

    def test_reproducible(self):
        rng = np.random.default_rng(5)
        s = random_scenario(rng, 4, 3, 0.4)
        assert sample_configuration(s, 42) == sample_configuration(s, 42)

    def test_pin_changes_only_the_pinned_destination(self):
        rng = np.random.default_rng(6)
        s = random_scenario(rng, 4, 3, 0.4)
        free = sample_configuration(s, 7)
        pinned = sample_configuration(s, 7, pin=(2, 1))
        assert pinned.dest[2] == 1
        assert pinned.dest[:2] == free.dest[:2] and pinned.dest[3:] == free.dest[3:]
        assert pinned.input_observed == free.input_observed
        assert pinned.output_observed == free.output_observed

    def test_flag_frequencies_match_b(self):
        s = validate_scenario([[0.5, 0.5]] * 4, 0.5)
        trials = 100_000
        seen = np.zeros(4)
        for i in range(trials):
            c = sample_configuration(s, mix64(123, i))
            seen += np.asarray(c.input_observed, dtype=float)
        bound = 4 * math.sqrt(0.25 / trials)
        assert np.all(np.abs(seen / trials - 0.5) < bound)

    def test_case_frequencies_match_endpoint_probabilities(self):
        b = 0.3
        s = validate_scenario([[1.0]], b)
        trials = 100_000
        counts = {"hidden": 0, "input": 0, "output": 0, "linked": 0}
        for i in range(trials):
            c = sample_configuration(s, mix64(9, i))
            if c.input_observed[0] and c.output_observed[0]:
                counts["linked"] += 1
            elif c.input_observed[0]:
                counts["input"] += 1
            elif c.output_observed[0]:
                counts["output"] += 1
            else:
                counts["hidden"] += 1
        expected = {
            "hidden": (1 - b) ** 2,
            "input": b * (1 - b),
            "output": (1 - b) * b,
            "linked": b * b,
        }
        for case, prob in expected.items():
            se = math.sqrt(prob * (1 - prob) / trials)
            assert abs(counts[case] / trials - prob) < 4 * se

    def test_destination_marginals_match_prior(self):
        rng = np.random.default_rng(8)
        s = random_scenario(rng, 2, 3, 0.5)
        trials = 60_000
        hits = np.zeros((2, 3))
        for i in range(trials):
            c = sample_configuration(s, mix64(77, i))
            for v in range(2):
                hits[v, c.dest[v]] += 1
        freq = hits / trials
        se = np.sqrt(s.p * (1 - s.p) / trials)
        assert np.all(np.abs(freq - s.p) < 4 * se + 1e-9)


class TestIndistinguishability:
    def setup_method(self):
        self.s = validate_scenario([[0.5, 0.5]] * 3, 0.5)

    def test_reflexive(self):
        c = Configuration((0, 1, 1), (True, False, False), (False, False, True))
        assert indistinguishable(self.s, c, c)

    def test_unobserved_configurations_collapse(self):
        a = Configuration((0, 0, 0), (False,) * 3, (False,) * 3)
        b = Configuration((1, 0, 1), (False,) * 3, (False,) * 3)
        assert indistinguishable(self.s, a, b)

    def test_different_bare_outputs_distinguish(self):
        a = Configuration((0, 0, 0), (False,) * 3, (True, False, False))
        b = Configuration((1, 0, 0), (False,) * 3, (True, False, False))
        assert not indistinguishable(self.s, a, b)

    def test_matches_key_equality(self):
        rng = np.random.default_rng(21)
        configs = [
            Configuration(
                tuple(rng.integers(0, 2, 3).tolist()),
                tuple(bool(x) for x in rng.integers(0, 2, 3)),
                tuple(bool(x) for x in rng.integers(0, 2, 3)),
            )
            for _ in range(30)
        ]
        for a in configs[:10]:
            for b in configs[10:]:
                keys_equal = observe(self.s, a).key() == observe(self.s, b).key()
                assert indistinguishable(self.s, a, b) == keys_equal

    def test_symmetric_and_transitive_on_collisions(self):
        groups: dict = {}
        for c in iter_configurations(self.s):
            groups.setdefault(observe(self.s, c).key(), []).append(c)
        biggest = max(groups.values(), key=len)
        assert len(biggest) > 1
        first = biggest[0]
        for other in biggest[1:]:
            assert indistinguishable(self.s, first, other)
            assert indistinguishable(self.s, other, first)


class TestDestMultiset:
    def test_from_items_counts(self):
        m = DestMultiset.from_items([0, 0, 2], 3)
        assert m.counts == (2, 0, 1) and m.size == 3

    def test_remove_one(self):
        m = DestMultiset.from_items([0, 0], 2)
        assert m.remove_one(0).counts == (1, 0)

    def test_remove_absent_raises(self):
        from onion_anon import ObservationError

        with pytest.raises(ObservationError):
            DestMultiset.from_items([0], 2).remove_one(1)


def test_observation_canonical_order():
    o = Observation(linked=((2, 0), (0, 1)), input_only=(3, 1), output_only=DestMultiset((0, 0)), hidden_count=0)
    assert o.linked == ((0, 1), (2, 0))
    assert o.input_only == (1, 3)
