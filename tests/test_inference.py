import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onion_anon import (
    CommonPopulation,
    ConditioningError,
    DestMultiset,
    ImpossibleObservationError,
    Observation,
    PosteriorQuery,
    QueryError,
    SizeLimitError,
    SizeLimits,
    UnobservedView,
    WorstCasePopulation,
    build_common_scenario,
    build_worst_case_scenario,
    common_expected_exact,
    configuration_prior,
    duplicate_orderings,
    expected_posterior_formula,
    expected_posterior_oracle,
    injection_sum,
    iter_configurations,
    lower_bound,
    observe,
    posterior,
    posterior_oracle,
    shared_distribution_posterior,
    validate_scenario,
    view_probability_split,
    worst_case_expected_exact,
)
from onion_anon import inference
from onion_anon.inference import _view_sums, crowd_posteriors
from onion_anon.model import Configuration


def random_scenario(rng, n, dest_count, b, floor=0.05):
    p = rng.random((n, dest_count)) + floor
    p /= p.sum(axis=1, keepdims=True)
    return validate_scenario(p, b)


def slot_injection_sum(users, outputs, p):
    """Independent oracle: enumerate slot-labeled injections, divide by
    the duplicate-ordering count."""
    slots = [d for d, c in enumerate(outputs.counts) for _ in range(c)]
    if len(slots) > len(users):
        return 0.0
    total = 0.0
    for chosen in itertools.combinations(users, len(slots)):
        for ordering in itertools.permutations(chosen):
            term = 1.0
            for v, d in zip(ordering, slots):
                term *= p[v][d]
            total += term
    return total / duplicate_orderings(outputs)


class TestDuplicateOrderings:
    def test_empty(self):
        assert duplicate_orderings(DestMultiset((0, 0))) == 1

    def test_pair_plus_single(self):
        assert duplicate_orderings(DestMultiset.from_items([0, 0, 1], 2)) == 2

    def test_triple_plus_pair(self):
        assert duplicate_orderings(DestMultiset.from_items([0, 0, 0, 1, 1], 2)) == 12


class TestInjectionSum:
    def test_empty_multiset_is_one(self):
        s = random_scenario(np.random.default_rng(0), 3, 2, 0.5)
        assert injection_sum((0, 1, 2), DestMultiset((0, 0)), s.p) == 1.0

    def test_single_user_single_output(self):
        s = random_scenario(np.random.default_rng(1), 2, 2, 0.5)
        assert injection_sum((1,), DestMultiset((1, 0)), s.p) == pytest.approx(
            float(s.p[1, 0]), abs=1e-15
        )

    def test_duplicate_outputs_need_both_users(self):
        s = random_scenario(np.random.default_rng(2), 2, 2, 0.5)
        value = injection_sum((0, 1), DestMultiset((2, 0)), s.p)
        assert value == pytest.approx(float(s.p[0, 0] * s.p[1, 0]), rel=1e-14)

    def test_more_outputs_than_users_is_zero(self):
        s = random_scenario(np.random.default_rng(3), 2, 2, 0.5)
        assert injection_sum((0,), DestMultiset((1, 1)), s.p) == 0.0

    def test_weights_beyond_the_float_range(self):
        ones = np.ones((1200, 1))
        crowd = range(1200)
        assert injection_sum(crowd, DestMultiset((1199,)), ones) == 1200.0
        assert injection_sum(crowd, DestMultiset((1200,)), ones) == 1.0
        assert injection_sum(crowd, DestMultiset((600,)), ones) == math.inf  # C(1200, 600) ~ 1e359
        assert injection_sum(crowd, DestMultiset((400,)), np.full((1200, 1), 0.01)) == 0.0  # ~ 1e-470

    def test_matches_slot_enumeration(self):
        rng = np.random.default_rng(4)
        for trial in range(60):
            n = int(rng.integers(1, 6))
            k = int(rng.integers(1, 5))
            s = random_scenario(rng, n, k, 0.5, floor=0.0)
            crowd = tuple(range(n))
            out_size = int(rng.integers(0, min(n, 4) + 1))
            outputs = DestMultiset.from_items(rng.integers(0, k, out_size).tolist(), k)
            fast = injection_sum(crowd, outputs, s.p)
            slow = slot_injection_sum(crowd, outputs, s.p)
            assert fast == pytest.approx(slow, rel=1e-12, abs=1e-14)


def naive_view_split(scenario, view, query):
    """Term-by-term evaluation of the three view-probability pieces,
    straight from their defining sums over subsets and injections."""
    users = tuple(view.users)
    u, d = query.user, query.dest
    n, b = scenario.n, scenario.b
    size, out_size = len(users), view.outputs.size
    pref = b ** (n - size + out_size) * (1 - b) ** (2 * size - out_size)
    rho = duplicate_orderings(view.outputs)
    rest = tuple(v for v in users if v != u)
    p_ud = float(scenario.p[u, d])
    slots = [x for x, c in enumerate(view.outputs.counts) for _ in range(c)]

    any_dest = pref * slot_injection_sum(users, view.outputs, scenario.p)

    seen = 0.0
    if out_size > 0:
        for chosen in itertools.combinations(rest, out_size - 1):
            for ordering in itertools.permutations(chosen + (u,)):
                assignment = dict(zip(ordering, slots))
                if assignment[u] != d:
                    continue
                term = 1.0
                for v in chosen:
                    term *= scenario.p[v][assignment[v]]
                seen += term
        seen *= pref * p_ud / rho

    hidden = pref * p_ud * slot_injection_sum(rest, view.outputs, scenario.p)
    return any_dest, seen, hidden


class TestViewSplit:
    def test_no_bare_outputs(self):
        s = validate_scenario([[0.3, 0.7], [0.5, 0.5]], 0.4)
        view = UnobservedView(users=(0,), outputs=DestMultiset((0, 0)))
        split = view_probability_split(s, view, PosteriorQuery(0, 0))
        pref = 0.4 ** (2 - 1) * 0.6 ** 2
        assert split.any_dest == pytest.approx(pref, abs=1e-15)
        assert split.dest_seen == 0.0
        assert split.dest_hidden == pytest.approx(pref * 0.3, abs=1e-15)

    def test_dest_absent_from_outputs_means_not_seen(self):
        s = validate_scenario([[0.3, 0.7], [0.5, 0.5]], 0.4)
        view = UnobservedView(users=(0, 1), outputs=DestMultiset((0, 1)))
        split = view_probability_split(s, view, PosteriorQuery(0, 0))
        assert split.dest_seen == 0.0

    def test_matches_term_by_term_enumeration(self):
        s = validate_scenario([[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]], 0.5)
        view = UnobservedView(users=(0, 1), outputs=DestMultiset((1, 0)))
        query = PosteriorQuery(0, 0)
        split = view_probability_split(s, view, query)
        naive = naive_view_split(s, view, query)
        for got, want in zip(split, naive):
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_matches_enumeration_on_random_views(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            n = int(rng.integers(2, 5))
            k = int(rng.integers(2, 4))
            s = random_scenario(rng, n, k, float(rng.uniform(0.1, 0.9)))
            crowd_size = int(rng.integers(1, n + 1))
            crowd = tuple(sorted(rng.choice(n, size=crowd_size, replace=False).tolist()))
            u = int(rng.choice(crowd))
            out_size = int(rng.integers(0, crowd_size + 1))
            outputs = DestMultiset.from_items(rng.integers(0, k, out_size).tolist(), k)
            view = UnobservedView(users=crowd, outputs=outputs)
            query = PosteriorQuery(u, int(rng.integers(0, k)))
            split = view_probability_split(s, view, query)
            naive = naive_view_split(s, view, query)
            for got, want in zip(split, naive):
                assert got == pytest.approx(want, rel=1e-11, abs=1e-15)

    def test_prefactor_below_the_float_range(self):
        # b**k (1-b)**m is 0.5**2400 here and the crowd sum about 2**1195:
        # the product, about 1e-363, is 0 in floats, not inf * 0 = nan.
        s = validate_scenario(np.ones((1200, 1)), 0.5)
        view = UnobservedView(users=tuple(range(1200)), outputs=DestMultiset((600,)))
        assert view_probability_split(s, view, PosteriorQuery(0, 0)) == (0.0, 0.0, 0.0)
        # A prefactor of about 1e-330 against a crowd sum of about 1e58.
        s = validate_scenario(np.ones((200, 1)), 0.001)
        view = UnobservedView(users=tuple(range(200)), outputs=DestMultiset((110,)))
        split = view_probability_split(s, view, PosteriorQuery(0, 0))
        pref = Fraction(0.001) ** 110 * (1 - Fraction(0.001)) ** 290
        assert split.any_dest == pytest.approx(float(pref * math.comb(200, 110)), rel=1e-12)
        assert split.dest_seen == pytest.approx(float(pref * math.comb(199, 109)), rel=1e-12)
        assert split.dest_hidden == pytest.approx(float(pref * math.comb(199, 110)), rel=1e-12)

    def test_requires_user_in_crowd(self):
        s = validate_scenario([[0.5, 0.5], [0.5, 0.5]], 0.5)
        view = UnobservedView(users=(1,), outputs=DestMultiset((0, 0)))
        with pytest.raises(QueryError):
            view_probability_split(s, view, PosteriorQuery(0, 0))

    @pytest.mark.parametrize("b", [0.5, 1.0])
    def test_more_bare_outputs_than_crowd_users_is_zero(self, b):
        s = validate_scenario([[0.5, 0.5]] * 3, b)
        view = UnobservedView(users=(0,), outputs=DestMultiset((2, 1)))
        assert view_probability_split(s, view, PosteriorQuery(0, 0)) == (0.0, 0.0, 0.0)

    def test_wide_view_of_zero_weight_is_zero(self, monkeypatch):
        # Nobody visits destination 2, so the corner and every predecessor
        # weigh 0; the wide kernel keeps them at its zero exponent.
        s = validate_scenario(np.tile([0.5, 0.5, 0.0], (1200, 1)), 0.5)
        view = UnobservedView(users=tuple(range(1200)), outputs=DestMultiset((600, 0, 2)))
        assert view_probability_split(s, view, PosteriorQuery(0, 0)) == (0.0, 0.0, 0.0)
        monkeypatch.setattr(inference, "_PLAIN_SPAN", -1.0)
        s = validate_scenario(np.tile([0.5, 0.5, 0.0], (3, 1)), 0.5)
        view = UnobservedView(users=(0, 1, 2), outputs=DestMultiset((1, 0, 2)))
        assert view_probability_split(s, view, PosteriorQuery(0, 0)) == (0.0, 0.0, 0.0)


class TestPosterior:
    def test_linked_user_is_an_indicator(self):
        s = validate_scenario([[0.5, 0.5], [0.5, 0.5]], 0.5)
        obs = Observation(((0, 1),), (), DestMultiset((0, 0)), 1)
        assert posterior(s, obs, PosteriorQuery(0, 1)) == 1.0
        assert posterior(s, obs, PosteriorQuery(0, 0)) == 0.0

    def test_input_only_user_keeps_prior(self):
        s = validate_scenario([[0.3, 0.7], [0.5, 0.5]], 0.5)
        obs = Observation((), (0,), DestMultiset((0, 0)), 1)
        assert posterior(s, obs, PosteriorQuery(0, 0)) == pytest.approx(0.3, abs=1e-15)

    def test_two_user_bare_output_case(self):
        s = validate_scenario([[0.5, 0.5], [0.9, 0.1]], 0.5)
        obs = Observation((), (), DestMultiset((1, 0)), 1)
        q = PosteriorQuery(0, 0)
        value = posterior(s, obs, q)
        assert value == pytest.approx(19 / 28, abs=1e-12)
        assert value == pytest.approx(float(posterior_oracle(s, obs, q)), abs=1e-12)
        assert float(posterior_oracle(s, obs, q, exact=True)) == pytest.approx(value, abs=1e-12)

    @pytest.mark.parametrize("n,dest_count", [(3, 3), (4, 2)])
    def test_normalizes_over_destinations(self, n, dest_count):
        rng = np.random.default_rng(13)
        s = random_scenario(rng, n, dest_count, 0.45)
        seen = set()
        for config in iter_configurations(s):
            obs = observe(s, config)
            if obs.key() in seen:
                continue
            seen.add(obs.key())
            if configuration_prior(s, config) == 0.0:
                continue
            for u in range(n):
                total = math.fsum(
                    posterior(s, obs, PosteriorQuery(u, d)) for d in range(dest_count)
                )
                assert abs(total - 1.0) < 1e-9

    def test_law_of_total_probability(self):
        rng = np.random.default_rng(14)
        s = random_scenario(rng, 4, 2, 0.35)
        masses: dict = {}
        reps: dict = {}
        for config in iter_configurations(s):
            key = observe(s, config).key()
            masses[key] = masses.get(key, 0.0) + configuration_prior(s, config)
            reps.setdefault(key, config)
        for u in range(4):
            for d in range(2):
                total = math.fsum(
                    mass * posterior(s, observe(s, reps[key]), PosteriorQuery(u, d))
                    for key, mass in masses.items()
                    if mass > 0.0
                )
                assert total == pytest.approx(float(s.p[u, d]), abs=1e-9)

    def test_impossible_observation_raises(self):
        s = validate_scenario([[1.0, 0.0], [1.0, 0.0]], 0.5)
        obs = Observation((), (), DestMultiset((0, 1)), 1)
        with pytest.raises(ImpossibleObservationError):
            posterior(s, obs, PosteriorQuery(0, 0))

    def test_all_hidden_view_at_1200_users(self):
        # The shared prefactor 0.5**2400 is 0.0 in floats; the view is
        # still possible, and revealing nothing leaves the prior.
        rng = np.random.default_rng(21)
        s = random_scenario(rng, 1200, 2, 0.5)
        obs = Observation((), (), DestMultiset((0, 0)), 1200)
        assert posterior(s, obs, PosteriorQuery(7, 1)) == pytest.approx(float(s.p[7, 1]), rel=1e-12)

    def test_bare_outputs_at_1200_users_match_closed_form(self):
        s = validate_scenario(np.tile([0.7, 0.3], (1200, 1)), 0.5)
        obs = Observation((), (), DestMultiset((3, 2)), 1195)
        want = shared_distribution_posterior(1200, 5, 3, 0.7)
        assert posterior(s, obs, PosteriorQuery(0, 0)) == pytest.approx(want, rel=1e-12)

    def test_rare_destination_view_at_1200_users(self):
        # 400 bare outputs of mass 0.01 each: the unscaled crowd sums are
        # about 1e-469 and used to underflow to "impossible".
        s = validate_scenario(np.tile([0.99, 0.01], (1200, 1)), 0.5)
        obs = Observation((), (), DestMultiset((0, 400)), 800)
        value = posterior(s, obs, PosteriorQuery(0, 1))
        assert value == pytest.approx((400 + 0.01 * 800) / 1200, abs=1e-12)

    def test_impossible_view_raises_for_a_seen_user(self):
        # Nobody can reach destination 0, so the bare output rules the view
        # out even though the queried users' own answers need no crowd.
        s = validate_scenario([[0.0, 1.0]] * 3, 0.5)
        obs = Observation(((1, 1),), (0,), DestMultiset((1, 0)), 0)
        for user in (0, 1):
            with pytest.raises(ImpossibleObservationError):
                posterior(s, obs, PosteriorQuery(user, 1))
        linked_to_nowhere = Observation(((1, 0),), (0,), DestMultiset((0, 0)), 1)
        with pytest.raises(ImpossibleObservationError):
            posterior(s, linked_to_nowhere, PosteriorQuery(1, 0))
        blind = validate_scenario([[0.5, 0.5]] * 2, 0.0)
        with pytest.raises(ImpossibleObservationError):
            posterior(blind, Observation(((1, 0),), (), DestMultiset((0, 0)), 1), PosteriorQuery(0, 0))

    def test_bare_outputs_filling_a_crowd_of_1200(self):
        # Every bare output has to come from its own user, so W[c] is 1 in
        # a table whose middle entries reach about 2**1194.
        p = np.tile([1.0, 0.0], (1200, 1))
        p[0] = [0.5, 0.5]
        s = validate_scenario(p, 0.5)
        obs = Observation((), (), DestMultiset((1199, 1)), 0)
        assert posterior(s, obs, PosteriorQuery(0, 1)) == 1.0
        assert posterior(s, obs, PosteriorQuery(0, 0)) == 0.0
        input_only = Observation((), (0,), DestMultiset((1199, 0)), 0)
        assert posterior(s, input_only, PosteriorQuery(0, 1)) == 0.5
        with pytest.raises(ImpossibleObservationError):
            posterior(s, Observation((), (0,), DestMultiset((1198, 1)), 0), PosteriorQuery(0, 1))

    def test_rare_outputs_with_the_queried_input_seen(self):
        s = validate_scenario(np.tile([0.99, 0.01], (1200, 1)), 0.5)
        obs = Observation((), (0,), DestMultiset((0, 400)), 799)
        assert posterior(s, obs, PosteriorQuery(0, 1)) == 0.01

    def test_impossible_view_at_1200_users_still_raises(self):
        s = validate_scenario(np.tile([1.0, 0.0], (1200, 1)), 0.5)
        obs = Observation((), (), DestMultiset((0, 1)), 1199)
        with pytest.raises(ImpossibleObservationError):
            posterior(s, obs, PosteriorQuery(0, 0))


class TestPosteriorOracle:
    def test_fully_linked_view_at_b_one(self):
        s = validate_scenario([[0.4, 0.6], [0.5, 0.5]], 1.0)
        obs = Observation(((0, 0), (1, 1)), (), DestMultiset((0, 0)), 0)
        assert posterior_oracle(s, obs, PosteriorQuery(0, 0)) == 1.0
        assert posterior_oracle(s, obs, PosteriorQuery(0, 1)) == 0.0

    def test_all_hidden_view_at_b_zero(self):
        s = validate_scenario([[0.4, 0.6], [0.5, 0.5]], 0.0)
        obs = Observation((), (), DestMultiset((0, 0)), 2)
        assert posterior_oracle(s, obs, PosteriorQuery(0, 0)) == pytest.approx(0.4, abs=1e-12)

    def test_agrees_with_posterior_on_reachable_views(self):
        rng = np.random.default_rng(15)
        s = random_scenario(rng, 3, 2, 0.5)
        seen = set()
        for config in iter_configurations(s):
            obs = observe(s, config)
            if obs.key() in seen:
                continue
            seen.add(obs.key())
            for u in range(3):
                q = PosteriorQuery(u, 1)
                assert posterior_oracle(s, obs, q) == pytest.approx(
                    posterior(s, obs, q), rel=1e-11, abs=1e-12
                )

    def test_exact_mode_with_dyadic_inputs_is_rational(self):
        s = validate_scenario([[0.5, 0.5], [0.75, 0.25]], 0.5)
        obs = Observation((), (), DestMultiset((1, 0)), 1)
        value = posterior_oracle(s, obs, PosteriorQuery(0, 0), exact=True)
        assert isinstance(value, Fraction)
        assert float(value) == pytest.approx(posterior(s, obs, PosteriorQuery(0, 0)), abs=1e-12)

    def test_respects_size_limits(self):
        s = validate_scenario([[0.5, 0.5]] * 8, 0.5)
        obs = Observation((), (), DestMultiset((0, 0)), 8)
        with pytest.raises(SizeLimitError):
            posterior_oracle(s, obs, PosteriorQuery(0, 0))

    def test_impossible_view_raises_in_both_arithmetics(self):
        s = validate_scenario([[1.0, 0.0], [0.5, 0.5]], 0.5)
        linked_to_zero_prior = Observation(((0, 1),), (), DestMultiset((0, 0)), 1)
        two_outputs_one_taker = Observation((), (), DestMultiset((0, 2)), 0)
        for obs in (linked_to_zero_prior, two_outputs_one_taker):
            for exact in (False, True):
                with pytest.raises(ImpossibleObservationError):
                    posterior_oracle(s, obs, PosteriorQuery(1, 0), exact=exact)

    def test_walk_that_merges_its_partial_views(self, monkeypatch):
        # 3**6 * 4**6 = 2 985 984 configurations: past 2**21 the walk merges
        # what it has buffered before it goes on.
        rng = np.random.default_rng(21)
        s = random_scenario(rng, 6, 3, 0.4)
        obs = Observation(((0, 1),), (2,), DestMultiset((1, 0, 1)), 2)
        merges = []
        merge = inference._merge_views
        monkeypatch.setattr(inference, "_merge_views", lambda *parts: merges.append(1) or merge(*parts))
        query = PosteriorQuery(1, 0)
        value = posterior_oracle(s, obs, query, limits=SizeLimits(oracle_budget=3**6 * 4**6))
        assert value == pytest.approx(posterior(s, obs, query), rel=0, abs=1e-12)
        assert len(merges) == 2


# Three users, the first on two destinations and the others on one each:
# the oracles walk 2 * 1 * 1 * 4**3 = 128 configurations.
TYPED = validate_scenario([[0.5, 0.5], [1.0, 0.0], [0.0, 1.0]], 0.5)
ALL_HIDDEN = Observation((), (), DestMultiset((0, 0)), 3)


@pytest.mark.parametrize("oracle", [
    lambda limits: posterior_oracle(TYPED, ALL_HIDDEN, PosteriorQuery(0, 0), limits=limits),
    lambda limits: posterior_oracle(TYPED, ALL_HIDDEN, PosteriorQuery(0, 0), exact=True, limits=limits),
    lambda limits: expected_posterior_oracle(TYPED, PosteriorQuery(0, 0), limits=limits),
    lambda limits: expected_posterior_oracle(TYPED, PosteriorQuery(0, 0), exact=True, limits=limits),
], ids=["view-float", "view-exact", "expectation-float", "expectation-exact"])
def test_oracle_budget_counts_the_configurations_walked(oracle):
    oracle(SizeLimits(oracle_budget=128))
    with pytest.raises(SizeLimitError, match=r"^oracle enumeration needs 128 configurations, budget is 127$"):
        oracle(SizeLimits(oracle_budget=127))


def test_float_view_oracle_is_held_to_the_budget():
    # The queried user on 3 destinations and 7 point-mass users walk
    # 3 * 4**8 = 196 608 configurations, within the default budget.
    p = np.eye(3)[[0, 1, 2, 0, 1, 2, 0, 1]]
    p[0] = [0.5, 0.3, 0.2]
    s = validate_scenario(p, 0.3)
    obs = Observation(((1, 1),), (2,), DestMultiset((2, 0, 1)), 3)
    for query in (PosteriorQuery(0, 0), PosteriorQuery(0, 1), PosteriorQuery(0, 2)):
        assert posterior_oracle(s, obs, query) == pytest.approx(posterior(s, obs, query), rel=0, abs=1e-12)
    # A dense 6 x 4 population walks 4**6 * 4**6 configurations.
    dense = validate_scenario(np.full((6, 4), 0.25), 0.3)
    with pytest.raises(SizeLimitError, match=r"^oracle enumeration needs 16777216 configurations, budget is 248832$"):
        posterior_oracle(dense, Observation((), (), DestMultiset((0, 0, 0, 0)), 6), PosteriorQuery(0, 0))


def test_oracles_refuse_a_large_population_before_the_product():
    s = validate_scenario(np.full((2000, 2), 0.5), 0.3)
    with pytest.raises(SizeLimitError, match=r"^oracle enumeration needs at least 4\*\*2000 configurations"):
        expected_posterior_oracle(s, PosteriorQuery(0, 0))


class TestExpectedPosterior:
    def test_b_zero_gives_prior_exactly(self):
        s = validate_scenario([[0.3, 0.7], [0.2, 0.8]], 0.0)
        assert expected_posterior_formula(s, PosteriorQuery(0, 0)) == pytest.approx(
            0.3, abs=1e-15
        )

    def test_b_one_gives_certainty_exactly(self):
        s = validate_scenario([[0.3, 0.7], [0.2, 0.8]], 1.0)
        assert expected_posterior_formula(s, PosteriorQuery(0, 0)) == 1.0

    def test_golden_two_user_uniform_value(self):
        # Exhaustive 64-configuration enumeration gives exactly 23/32.
        s = validate_scenario([[0.5, 0.5], [0.5, 0.5]], 0.5)
        q = PosteriorQuery(0, 0)
        assert expected_posterior_formula(s, q) == pytest.approx(23 / 32, abs=1e-14)
        assert expected_posterior_oracle(s, q, exact=True) == Fraction(23, 32)

    def test_three_user_formula_matches_oracle(self):
        s = validate_scenario([[0.6, 0.4], [0.2, 0.8], [0.5, 0.5]], 0.4)
        q = PosteriorQuery(0, 0)
        formula = expected_posterior_formula(s, q)
        oracle = expected_posterior_oracle(s, q)
        assert formula == pytest.approx(oracle, rel=1e-9)

    def test_exact_oracle_agrees_with_float_oracle(self):
        s = validate_scenario([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25]], 0.25)
        q = PosteriorQuery(0, 2)
        exact = expected_posterior_oracle(s, q, exact=True)
        assert float(exact) == pytest.approx(expected_posterior_oracle(s, q), abs=1e-12)

    def test_symmetric_population_has_no_special_casing(self):
        s = validate_scenario([[0.5, 0.5]] * 4, 0.6)
        q = PosteriorQuery(2, 1)
        assert expected_posterior_formula(s, q) == pytest.approx(
            expected_posterior_oracle(s, q), rel=1e-9
        )

    def test_conditioning_on_never_visited_destination(self):
        s = validate_scenario([[1.0, 0.0], [0.5, 0.5]], 0.5)
        with pytest.raises(ConditioningError):
            expected_posterior_formula(s, PosteriorQuery(0, 1))
        with pytest.raises(ConditioningError):
            expected_posterior_oracle(s, PosteriorQuery(0, 1))

    def test_formula_size_limit(self):
        # 11 users on 6 destinations: 1 397 536 lattice entries, 8 385 216 units.
        s = validate_scenario([[0.5, 0.125, 0.125, 0.125, 0.0625, 0.0625]] * 11, 0.5)
        message = r"^the formula needs 8385216 lattice units, budget is 4194304$"
        with pytest.raises(SizeLimitError, match=message):
            expected_posterior_formula(s, PosteriorQuery(0, 0))
        with pytest.raises(SizeLimitError, match=r"needs 8385216 lattice units, budget is 8385215$"):
            expected_posterior_formula(s, PosteriorQuery(0, 0), SizeLimits(formula_budget=8385215))
        # 2**(n - 1) crowds pass the budget on their own: no sum over the lattice.
        wide = validate_scenario([[1.0]] * 10**4, 0.5)
        with pytest.raises(SizeLimitError, match=r"^the formula needs at least 2\*\*9999 \* 1 lattice units"):
            expected_posterior_formula(wide, PosteriorQuery(0, 0))

    def test_custom_limits_open_the_gate(self):
        s = validate_scenario([[0.5, 0.125, 0.125, 0.125, 0.0625, 0.0625]] * 11, 0.0)
        wide = SizeLimits(formula_budget=8385216)
        value = expected_posterior_formula(s, PosteriorQuery(0, 0), limits=wide)
        assert value == pytest.approx(0.5, abs=1e-14)

    def test_every_population_of_the_old_corner_fits_the_default_budget(self):
        budget = SizeLimits().formula_budget
        assert all(inference.lattice_entries(n, nd) * nd <= budget for n in range(1, 11) for nd in range(1, 7))
        assert inference.lattice_entries(10, 6) * 6 == 3005184

    def test_sixteen_users_on_two_destinations_run(self):
        # 16 x 2 holds 3 391 488 units, past the old 10-user ceiling and within
        # the budget.  The formula agrees with the rational oracle to about
        # 1e-15 where the oracle can walk, and with each closed form as
        # closely at 16 users.
        rng = np.random.default_rng(3)
        small = random_scenario(rng, 5, 2, 0.3)
        q = PosteriorQuery(0, 1)
        exact = float(expected_posterior_oracle(small, q, exact=True))
        assert expected_posterior_formula(small, q) == pytest.approx(exact, rel=1e-13)
        common = build_common_scenario(16, 0.3, [0.3, 0.7])
        assert expected_posterior_formula(common, PosteriorQuery(0, 0)) == pytest.approx(
            common_expected_exact(CommonPopulation(n=16, b=0.3, p=(0.3, 0.7), dest=0)), rel=1e-13
        )
        two_group = build_worst_case_scenario(16, 0.5, 0.3, [0.4, 0.6])
        assert expected_posterior_formula(two_group, PosteriorQuery(0, 0)) == pytest.approx(
            worst_case_expected_exact(WorstCasePopulation(16, 0.5, 0.3, 0.4, 0.6)), rel=1e-13
        )

    def test_never_below_lower_bound(self):
        rng = np.random.default_rng(16)
        for _ in range(25):
            n = int(rng.integers(1, 5))
            k = int(rng.integers(2, 4))
            b = float(rng.uniform(0, 1))
            s = random_scenario(rng, n, k, b)
            q = PosteriorQuery(0, 0)
            value = expected_posterior_formula(s, q)
            assert value >= lower_bound(b, float(s.p[0, 0])) - 1e-12

    def test_convex_in_another_users_tradeoff(self):
        rng = np.random.default_rng(17)
        base = rng.random((3, 3)) + 0.1
        base /= base.sum(axis=1, keepdims=True)
        zeta = float(base[1, 0] + base[1, 1])
        grid = np.linspace(0.0, zeta, 21)
        values = []
        for x in grid:
            p = base.copy()
            p[1, 0] = x
            p[1, 1] = zeta - x
            s = validate_scenario(p, 0.45)
            values.append(expected_posterior_formula(s, PosteriorQuery(0, 0)))
        second = np.diff(values, n=2)
        assert np.all(second >= -1e-9)
        assert max(values) <= max(values[0], values[-1]) + 1e-9


# ---------------------------------------------------------------------------
# Properties of the crowd-matching kernel on random small scenarios

WEIGHTS = st.sampled_from([0.0, 0.0, 0.1, 0.25, 0.5, 1.0, 3.0])


@st.composite
def small_scenarios(draw, max_users=6, max_dests=3, weights=WEIGHTS):
    """A scenario with zero entries allowed; each row keeps one positive."""
    n = draw(st.integers(1, max_users))
    k = draw(st.integers(1, max_dests))
    p = np.array([[draw(weights) for _ in range(k)] for _ in range(n)])
    for v in range(n):
        if p[v].sum() == 0.0:
            p[v, draw(st.integers(0, k - 1))] = 1.0
    b = draw(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]))
    return validate_scenario(p / p.sum(axis=1, keepdims=True), b)


@st.composite
def crowd_views(draw):
    """A scenario, a query, and a crowd of unseen inputs holding its user."""
    s = draw(small_scenarios())
    query = PosteriorQuery(draw(st.integers(0, s.n - 1)), draw(st.integers(0, s.dest_count - 1)))
    crowd = draw(st.sets(st.integers(0, s.n - 1))) | {query.user}
    items = draw(st.lists(st.integers(0, s.dest_count - 1), max_size=len(crowd) + 1))
    return s, query, tuple(sorted(crowd)), DestMultiset.from_items(items, s.dest_count)


def rest_mask(n, crowd, user):
    mask = np.zeros((1, n), dtype=bool)
    mask[0, [v for v in crowd if v != user]] = True
    return mask


# A span of -1 sends every kernel call wide; 3 bits sends most calls wide
# and keeps the smallest plain.
SPANS = st.sampled_from([inference._PLAIN_SPAN, -1.0, 3.0])


@settings(max_examples=150, deadline=None)
@given(crowd_views(), SPANS)
def test_kernel_sums_match_slot_enumeration(view, span):
    s, query, crowd, outputs = view
    rest = tuple(v for v in crowd if v != query.user)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(inference, "_PLAIN_SPAN", span)
        *sums, exponent = _view_sums(s.p, rest_mask(s.n, crowd, query.user), outputs.counts, query)
    any_dest, seen, hidden = (float(np.ldexp(x[0], exponent[0])) for x in sums)
    want_seen = (
        slot_injection_sum(rest, outputs.remove_one(query.dest), s.p)
        if outputs.contains(query.dest)
        else 0.0
    )
    assert any_dest == pytest.approx(slot_injection_sum(crowd, outputs, s.p), rel=1e-12, abs=1e-300)
    assert seen == pytest.approx(want_seen, rel=1e-12, abs=1e-300)
    assert hidden == pytest.approx(slot_injection_sum(rest, outputs, s.p), rel=1e-12, abs=1e-300)


def exact_sums(sums):
    """:func:`_view_sums` as exact numbers: each sum's mantissa and exponent, a zero sum as (0, 0).

    The scaled pair of one weight may be (0.5, 1) from a wide call and
    (1.0, 0) from a plain one; its mantissa and exponent are the same.
    """
    *values, common = sums
    exact = []
    for x in values:
        mantissa, exponent = np.frexp(x)
        exact += [mantissa, np.where(mantissa != 0.0, exponent + common, 0)]
    return exact


# Weights down to 1e-200: the plain bound fails at two bare outputs on
# such a column, so the default span sends some calls wide and keeps others plain.
RARE_WEIGHTS = st.sampled_from([0.0, 1e-200, 3e-199, 1e-30, 0.1, 0.5, 1.0, 3.0])


def try_posteriors(read):
    try:
        return read()
    except ImpossibleObservationError:
        return None


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_every_kernel_gives_the_same_bits(data):
    """Spans 900, 3 and -1 (every call wide) give the same sums, posteriors, formula and crowd table, bit for bit."""
    s = data.draw(small_scenarios(max_users=5, weights=RARE_WEIGHTS))
    user = data.draw(st.integers(0, s.n - 1))
    query = PosteriorQuery(user, data.draw(st.sampled_from(np.flatnonzero(s.p[user] > 0.0).tolist())))
    views = data.draw(st.integers(1, 6))
    cells = st.sampled_from([0, 0, 1, 2, 3])
    counts = np.array([[data.draw(cells) for _ in range(s.dest_count)] for _ in range(views)])
    masks = np.array([[data.draw(st.booleans()) for _ in range(s.n)] for _ in range(views)])
    masks[:, user] = False
    # A crowd of at least 300 users: the drawn rows repeated after the queried user's.
    big = np.vstack([s.p[user], np.tile(s.p, (-(-300 // s.n), 1))])
    big_mask = np.ones((1, len(big)), dtype=bool)
    big_mask[0, 0] = False
    big_counts = np.array([data.draw(st.sampled_from([0, 1, 5, 20])) for _ in range(s.dest_count)])
    big_query = PosteriorQuery(0, query.dest)

    # The crowd table holds each crowd's views of at most its size plus the queried user's output.
    fits = counts.sum(axis=1) <= masks.sum(axis=1) + 1

    def everything():
        table = inference.crowd_table(s.p, query)
        return [
            *exact_sums(_view_sums(s.p, masks, counts, query)),
            *exact_sums(_view_sums(big, big_mask, big_counts, big_query)),
            try_posteriors(lambda: crowd_posteriors(s.p, masks, counts, query)),
            try_posteriors(lambda: crowd_posteriors(big, big_mask, big_counts, big_query)),
            expected_posterior_formula(s, query).hex(),
            table.values,
            try_posteriors(lambda: table.posteriors(masks[fits], counts[fits])),
        ]

    want = everything()
    for span in (3.0, -1.0):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(inference, "_PLAIN_SPAN", span)
            got = everything()
        for a, b in zip(got, want):
            assert type(a) is type(b)
            assert np.array_equal(a, b, equal_nan=True) if isinstance(b, np.ndarray) else a == b


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_posterior_matches_exact_oracle(data):
    s = data.draw(small_scenarios(max_users=3))
    n, k = s.n, s.dest_count
    config = Configuration(
        tuple(data.draw(st.integers(0, k - 1)) for _ in range(n)),
        tuple(data.draw(st.booleans()) for _ in range(n)),
        tuple(data.draw(st.booleans()) for _ in range(n)),
    )
    obs = observe(s, config)
    query = PosteriorQuery(data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, k - 1)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(inference, "_PLAIN_SPAN", data.draw(SPANS))
        try:
            want = posterior_oracle(s, obs, query, exact=True)
        except ImpossibleObservationError:
            with pytest.raises(ImpossibleObservationError):
                posterior(s, obs, query)
            return
        assert posterior(s, obs, query) == pytest.approx(float(want), rel=1e-12, abs=1e-15)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_batched_views_equal_single_views_bit_for_bit(data):
    s = data.draw(small_scenarios())
    query = PosteriorQuery(data.draw(st.integers(0, s.n - 1)), data.draw(st.integers(0, s.dest_count - 1)))
    counts = tuple(data.draw(st.integers(0, 3)) for _ in range(s.dest_count))
    masks = np.array(data.draw(st.lists(st.lists(st.booleans(), min_size=s.n, max_size=s.n), min_size=1, max_size=8)))
    masks[:, query.user] = False
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(inference, "_PLAIN_SPAN", data.draw(SPANS))
        check_batches(s, query, counts, masks, data)


def check_batches(s, query, counts, masks, data):
    sums = _view_sums(s.p, masks, counts, query)
    batch = exact_sums(sums)
    for i in range(len(masks)):
        single = exact_sums(_view_sums(s.p, masks[i : i + 1], counts, query))
        for got, want in zip(batch, single):
            assert np.array_equal(got[i : i + 1], want)
    possible = sums[0] > 0.0
    if possible.any():
        whole = crowd_posteriors(s.p, masks[possible], counts, query)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(inference, "BATCH_ENTRIES", data.draw(st.integers(1, 200)))
            split = crowd_posteriors(s.p, masks[possible], counts, query)
        assert np.array_equal(split, whole)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_ragged_batch_equals_one_call_per_view(data):
    """Views with different bare outputs share a kernel call and keep their own values."""
    s = data.draw(small_scenarios())
    query = PosteriorQuery(data.draw(st.integers(0, s.n - 1)), data.draw(st.integers(0, s.dest_count - 1)))
    views = data.draw(st.integers(1, 8))
    cells = st.sampled_from([0, 0, 1, 2, 3])
    counts = np.array([[data.draw(cells) for _ in range(s.dest_count)] for _ in range(views)])
    masks = np.array([[data.draw(st.booleans()) for _ in range(s.n)] for _ in range(views)])
    masks[:, query.user] = False
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(inference, "_PLAIN_SPAN", data.draw(SPANS))
        singles = [exact_sums(_view_sums(s.p, masks[i : i + 1], counts[i], query)) for i in range(views)]
        patch.setattr(inference, "BATCH_ENTRIES", data.draw(st.integers(1, 64)))
        sums = _view_sums(s.p, masks, counts, query)
        batch = exact_sums(sums)
        for i, single in enumerate(singles):
            for got, want in zip(batch, single):
                assert np.array_equal(got[i : i + 1], want)
        if not np.all(sums[0] > 0.0):
            with pytest.raises(ImpossibleObservationError):
                crowd_posteriors(s.p, masks, counts, query)
            return
        got = crowd_posteriors(s.p, masks, counts, query)
        want = [crowd_posteriors(s.p, masks[i : i + 1], counts[i], query)[0] for i in range(views)]
    assert np.array_equal(got, np.array(want))


@settings(max_examples=60, deadline=None)
@given(small_scenarios(max_users=5), st.data())
def test_formula_matches_oracle(s, data):
    query = PosteriorQuery(data.draw(st.integers(0, s.n - 1)), data.draw(st.integers(0, s.dest_count - 1)))
    # The rational oracle adds one Fraction per configuration it walks
    # (4 s at 5 users and 3 destinations); past 4096 configurations the
    # float oracle stands in for it.
    exact = math.prod(np.count_nonzero(s.p > 0.0, axis=1).tolist()) * 4**s.n <= 4096
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(inference, "_PLAIN_SPAN", data.draw(SPANS))
        if s.p[query.user, query.dest] == 0.0:
            with pytest.raises(ConditioningError):
                expected_posterior_formula(s, query)
            return
        got = expected_posterior_formula(s, query)
    want = float(expected_posterior_oracle(s, query, exact=exact))
    assert got == pytest.approx(want, rel=0, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(small_scenarios(max_users=5), st.data())
def test_formula_is_independent_of_its_batches(s, data):
    """Span 3 puts plain and wide crowds of one size side by side."""
    user = data.draw(st.integers(0, s.n - 1))
    query = PosteriorQuery(user, data.draw(st.sampled_from(np.flatnonzero(s.p[user] > 0.0).tolist())))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(inference, "_PLAIN_SPAN", data.draw(SPANS))
        whole = expected_posterior_formula(s, query)
        patch.setattr(inference, "BATCH_ENTRIES", data.draw(st.integers(1, 64)))
        assert expected_posterior_formula(s, query) == whole


@pytest.mark.parametrize("dests, total", [(1, 0), (1, 4), (2, 3), (3, 4), (4, 2), (6, 3), (9, 2)])
def test_simplex_lists_every_vector_once_with_its_predecessors(dests, total):
    index = inference._simplex(dests, total)
    vectors = [tuple(key) for key in index.keys.tolist()]
    assert len(set(vectors)) == len(vectors) == math.comb(total + dests, dests)
    assert all(sum(key) <= total for key in vectors)
    column = {key: c for c, key in enumerate(vectors, start=1)}
    for i, below in enumerate(index.pred):
        lowered = [key[:i] + (key[i] - 1,) + key[i + 1 :] for key in vectors]
        assert below.tolist() == [0] + [column[low] if low[i] >= 0 else 0 for low in lowered]


@pytest.mark.parametrize("dests, total", [(1, 0), (1, 4), (2, 3), (3, 4), (4, 2), (6, 3), (9, 2)])
def test_colex_rank_is_the_simplex_column(dests, total):
    # The generic sampler ranks its int8 count vectors into crowd tables laid out as the simplex.
    keys = inference._simplex(dests, total).keys
    steps = inference._colex_steps(dests, total)
    assert np.array_equal(inference._colex_rank(steps, keys), np.arange(len(keys)))
    assert np.array_equal(inference._colex_rank(steps, keys.astype(np.int8)), np.arange(len(keys)))


def test_simplex_of_one_output_over_63_destinations():
    # 64 vectors: the zero vector and the 63 unit vectors, each one step above it.
    index = inference._simplex(63, 1)
    assert len(index.keys) == 64
    zero = 1 + index.keys.sum(axis=1).tolist().index(0)
    assert np.array_equal(index.pred[:, 1:], np.where(index.keys.T > 0, zero, 0))


def test_formula_over_63_destinations_equals_it_over_the_used_ones():
    # Each row lives on 3 of the destinations 1, 30, 40 and 62; the other 59
    # only add zero terms.  Dyadic rows sum to 1 exactly, so both scenarios
    # hold the same masses.
    used = [1, 30, 40, 62]
    rows = np.array([[0.5, 0.3125, 0.0, 0.1875], [0.0, 0.625, 0.125, 0.25], [0.375, 0.0, 0.1875, 0.4375]])
    wide = np.zeros((3, 63))
    wide[:, used] = rows
    whole = expected_posterior_formula(validate_scenario(wide, 0.35), PosteriorQuery(0, 30))
    assert whole == expected_posterior_formula(validate_scenario(rows, 0.35), PosteriorQuery(0, 1))


def test_simplex_is_held_to_the_table_cap():
    # C(28, 18) = 13 123 110 vectors; the cap must refuse them before they are listed.
    with pytest.raises(SizeLimitError, match=f"a crowd table of 13123110 entries exceeds the cap of {1 << 22}"):
        inference._simplex(18, 10)


@pytest.mark.parametrize("dests, total", [(1, 5), (3, 4), (6, 3)])
def test_a_smaller_simplex_is_a_prefix_of_a_larger_one(dests, total):
    # The formula reads every crowd size's simplex off the population's.
    whole = inference._simplex(dests, total)
    for smaller in range(total):
        part = inference._simplex(dests, smaller)
        size = len(part.keys)
        assert np.array_equal(part.keys, whole.keys[:size])
        assert np.array_equal(part.pred, whole.pred[:, : size + 1])


def traced_peak(call):
    """``call()``'s result and the peak of the Python heap above where it started."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_formula_past_the_table_cap_is_refused_before_any_table():
    # 8 users on 24 destinations: the population's simplex holds C(32, 24)
    # vectors, and the cap must refuse them before any crowd's table exists.
    s = validate_scenario(np.full((8, 24), 1 / 24), 0.3)
    limits = SizeLimits(formula_budget=1111953000)

    def refused():
        with pytest.raises(SizeLimitError, match=f"^a crowd table of 10518300 entries exceeds the cap of {1 << 22}$"):
            expected_posterior_formula(s, PosteriorQuery(0, 0), limits)

    _, peak = traced_peak(refused)
    assert peak < 16 << 20


def test_formula_memory_is_bounded_by_its_blocks():
    # At the old ceiling, 10 users on 6 destinations, the lattice holds
    # one block per crowd size and streams its terms into the sum.
    draws = np.random.default_rng(5).standard_exponential((10, 6))
    s = validate_scenario(draws / draws.sum(axis=1, keepdims=True), 0.3)
    value, peak = traced_peak(lambda: expected_posterior_formula(s, PosteriorQuery(0, 1)))
    assert 0.0 < value <= 1.0
    assert peak < 8 << 20


def test_crowd_posteriors_refuse_a_box_beyond_the_table_cap():
    # A box of 2**31 * (2**31 + 1) vectors, counted without int64 wraparound;
    # the cap must refuse it before its columns are allocated.
    counts = np.array([[0, 0], [(1 << 31) - 1, 1 << 31]])
    with pytest.raises(SizeLimitError, match=f"of {(1 << 31) * ((1 << 31) + 1)} entries exceeds the cap"):
        crowd_posteriors(np.full((2, 2), 0.5), np.zeros((2, 2), dtype=bool), counts, PosteriorQuery(0, 0))


def test_injection_sum_refuses_a_view_past_the_default_cap():
    # 480 users with 60 bare outputs on each of 8 destinations: 61**8 entries,
    # for which numpy used to try to allocate 1.36 PiB.
    p = np.full((480, 8), 1 / 8)
    with pytest.raises(SizeLimitError, match=f"of {61**8} entries exceeds the cap of {1 << 22}"):
        injection_sum(range(480), DestMultiset((60,) * 8), p)


def test_a_view_just_over_the_table_cap_is_refused_before_anything_is_built(monkeypatch):
    p = np.full((7, 2), 0.5)
    masks = np.ones((2, 7), dtype=bool)
    masks[:, 0] = False
    query = PosteriorQuery(0, 0)
    monkeypatch.setattr(inference, "TABLE_ENTRIES", 12)
    assert np.all(crowd_posteriors(p, masks, np.array([[1, 1], [2, 3]]), query) > 0.0)  # boxes of 4 and 12

    def unreachable(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(inference, "_runs_plain", unreachable)
    monkeypatch.setattr(inference, "_boxes", unreachable)
    with pytest.raises(SizeLimitError, match="^a crowd table of 16 entries exceeds the cap of 12$"):
        crowd_posteriors(p, masks, np.array([[1, 1], [3, 3]]), query)


def test_simplex_holds_little_beyond_its_keys_and_predecessors():
    # 646 646 vectors over 12 destinations: keys and pred are 62 MB each.
    code = (
        "import resource\n"
        "from onion_anon import inference\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "simplex = inference._simplex(12, 10)\n"
        "grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before\n"
        "print(len(simplex.keys), grown // 1024)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    vectors, grown_mb = run.stdout.split()
    assert int(vectors) == math.comb(22, 12)
    assert int(grown_mb) <= 200, f"the simplex grew the peak RSS by {grown_mb} MB"


def test_oracle_memory_is_bounded_by_its_blocks_not_by_four_to_the_n():
    # 10 users on one destination walk 4**10 endpoint flags, 16 blocks of 2**16.
    code = (
        "import resource\n"
        "from onion_anon import PosteriorQuery, SizeLimits, expected_posterior_oracle, validate_scenario\n"
        "scenario = validate_scenario([[1.0]] * 10, 0.3)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "value = expected_posterior_oracle(scenario, PosteriorQuery(0, 0), limits=SizeLimits(oracle_budget=4**10))\n"
        "grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before\n"
        "print(value, grown // 1024)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    value, grown_mb = run.stdout.split()
    assert float(value) == pytest.approx(1.0, abs=1e-12)
    assert int(grown_mb) < 150, f"the oracle grew the peak RSS by {grown_mb} MB"
