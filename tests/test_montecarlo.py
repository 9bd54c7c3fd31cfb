import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onion_anon import (
    CommonPopulation,
    ConditioningError,
    ImpossibleObservationError,
    ModelError,
    PosteriorQuery,
    ScenarioError,
    SizeLimitError,
    SizeLimits,
    WorstCasePopulation,
    common_expected_exact,
    build_worst_case_scenario,
    estimate_expected_posterior,
    expected_posterior_formula,
    observe,
    posterior,
    sample_configuration,
    validate_scenario,
    worst_case_expected_exact,
    worst_case_limit,
)
from onion_anon import inference, montecarlo
from onion_anon.inference import crowd_posteriors
from onion_anon.model import DestMultiset, Observation
from onion_anon.montecarlo import _common_sampler, _destinations, _distinct_rows, _generic_sampler, _worst_case_sampler
from onion_anon.seeding import mix64, uniform_block


def fixed_scenario(b=0.5):
    rng = np.random.default_rng(101)
    p = rng.random((4, 2)) + 0.2
    p /= p.sum(axis=1, keepdims=True)
    return validate_scenario(p, b)


def scalar_path(s, q, seed, count):
    """Per-sample posteriors through the scalar sampler and ``observe``."""
    values = []
    for i in range(count):
        config = sample_configuration(s, mix64(seed, i), pin=(q.user, q.dest))
        values.append(posterior(s, observe(s, config), q))
    return np.array(values)


class TestBoundaries:
    def test_b_zero_every_sample_is_the_prior(self):
        s = fixed_scenario(b=0.0)
        q = PosteriorQuery(0, 0)
        est = estimate_expected_posterior(s, q, 500, 3)
        assert est.mean == float(s.p[0, 0])
        assert est.std_error == 0.0

    def test_b_one_every_sample_is_certain(self):
        s = fixed_scenario(b=1.0)
        est = estimate_expected_posterior(s, PosteriorQuery(0, 0), 500, 3)
        assert est.mean == 1.0 and est.std_error == 0.0

    def test_structured_modes_at_boundaries(self):
        wc = WorstCasePopulation(n=100, alpha=0.5, b=0.0, p_target=0.4, p_least=0.2)
        est = estimate_expected_posterior(wc, None, 100, 5, mode="worst_case")
        assert est.mean == pytest.approx(0.4, abs=1e-12) and est.std_error == 0.0
        cp = CommonPopulation(n=100, b=1.0, p=(0.6, 0.4), dest=0)
        est = estimate_expected_posterior(cp, None, 100, 5, mode="common")
        assert est.mean == 1.0 and est.std_error == 0.0


class TestReproducibility:
    def test_same_seed_same_estimate(self):
        s = fixed_scenario()
        q = PosteriorQuery(1, 0)
        a = estimate_expected_posterior(s, q, 5000, 77)
        b = estimate_expected_posterior(s, q, 5000, 77)
        assert a == b

    def test_vectorized_path_equals_scalar_path(self):
        s = fixed_scenario()
        q = PosteriorQuery(0, 0)
        seed = 4242
        block = _generic_sampler(s, q, seed)(0, 64, None)
        assert np.array_equal(block, scalar_path(s, q, seed, 64))


class TestWideViews:
    """Views whose codes or multiplicities do not fit in int8."""

    def test_many_destinations(self):
        rng = np.random.default_rng(3)
        p = rng.random((3, 140))
        s = validate_scenario(p / p.sum(axis=1, keepdims=True), 0.5)
        q = PosteriorQuery(0, 130)
        block = _generic_sampler(s, q, 5)(0, 16, None)
        assert np.array_equal(block, scalar_path(s, q, 5, 16))
        est = estimate_expected_posterior(s, q, 16, 5, limits=SizeLimits(mc_dests=200))
        assert est.mean == pytest.approx(float(block.mean()), rel=1e-12)

    def test_multiplicities_above_127(self):
        # At b = 0.5 about 175 of 700 outputs are bare, all on destination 0.
        p = np.tile([1.0, 0.0], (700, 1))
        p[0] = [0.5, 0.5]
        s = validate_scenario(p, 0.5)
        q = PosteriorQuery(0, 0)
        block = _generic_sampler(s, q, 8)(0, 3, None)
        assert np.array_equal(block, scalar_path(s, q, 8, 3))
        est = estimate_expected_posterior(s, q, 3, 8, limits=SizeLimits(mc_users=1000))
        assert est.mean == pytest.approx(float(block.mean()), rel=1e-12)


class TestBatching:
    """A view's posterior does not depend on the batch it is evaluated in."""

    def test_split_unsplit_and_single_views_agree(self, monkeypatch):
        rng = np.random.default_rng(6)
        p = rng.random((240, 3))
        s = validate_scenario(p / p.sum(axis=1, keepdims=True), 0.5)
        q = PosteriorQuery(0, 1)
        counts = (30, 20, 10)
        masks = rng.random((24, 240)) < 0.5
        masks[:, q.user] = False
        assert len(masks) * 31 * 21 * 11 > inference.BATCH_ENTRIES  # the default call splits
        split = crowd_posteriors(s.p, masks, counts, q)
        singles = np.concatenate([crowd_posteriors(s.p, m[None], counts, q) for m in masks])
        monkeypatch.setattr(inference, "BATCH_ENTRIES", 1 << 30)
        unsplit = crowd_posteriors(s.p, masks, counts, q)
        assert np.array_equal(split, unsplit) and np.array_equal(split, singles)
        for mask, value in zip(masks[:3], split):
            shown = tuple(v for v in range(240) if not mask[v] and v != q.user)
            obs = Observation((), shown, DestMultiset(counts), 240 - len(shown) - 60)
            assert posterior(s, obs, q) == value

    @pytest.mark.parametrize("n, dests, b", [(20, 6, 0.37), (40, 4, 0.38)])
    @pytest.mark.parametrize("force_u", [None, (False, False), (False, True), (True, False), (True, True)])
    def test_large_crowd_draws_equal_one_view_per_call(self, monkeypatch, n, dests, b, force_u):
        rng = np.random.default_rng(n + dests)
        s = validate_scenario(rng.dirichlet(np.ones(dests), size=n), b)
        q = PosteriorQuery(3, 1)
        draw = _generic_sampler(s, q, 12)
        chunked = draw(0, 60, force_u)
        real = montecarlo.crowd_posteriors

        def one_view_per_call(p, masks, counts, query):
            return np.array([real(p, m[None], c, query)[0] for m, c in zip(masks, counts)])

        monkeypatch.setattr(montecarlo, "crowd_posteriors", one_view_per_call)
        assert np.array_equal(chunked, draw(0, 60, force_u))

    def test_wide_views_under_raised_limits(self, monkeypatch):
        monkeypatch.setenv("ONION_ANON_SIZE_LIMITS", "mc_users=300")
        rng = np.random.default_rng(7)
        p = rng.random((240, 3))
        s = validate_scenario(p / p.sum(axis=1, keepdims=True), 0.5)
        q = PosteriorQuery(0, 2)
        block = _generic_sampler(s, q, 9)(0, 12, None)
        assert np.array_equal(block, scalar_path(s, q, 9, 12))
        est = estimate_expected_posterior(s, q, 12, 9)
        assert est.mean == pytest.approx(float(block.mean()), rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_destinations_by_comparison_equal_searchsorted(data):
    """Rows with zero entries repeat a cumulative value; the comparison still counts like searchsorted."""
    n, nd = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    weights = st.sampled_from([0.0, 0.0, 0.0, 0.1, 0.25, 0.5, 1.0, 3.0])
    p = np.array([[data.draw(weights) for _ in range(nd)] for _ in range(n)])
    p[p.sum(axis=1) == 0.0, data.draw(st.integers(0, nd - 1))] = 1.0
    cumulative = np.cumsum(p / p.sum(axis=1, keepdims=True), axis=1)
    # Variates on the cumulative values themselves, and on either side of them.
    edges = np.concatenate([cumulative.ravel(), np.nextafter(cumulative.ravel(), 0.0), np.nextafter(cumulative.ravel(), 2.0)])
    edges = edges[(edges > 0.0) & (edges <= 1.0)].tolist()
    unit = st.one_of(st.sampled_from(edges), st.floats(2.0**-54, 1.0))
    x = np.array([[data.draw(unit) for _ in range(n)] for _ in range(data.draw(st.integers(1, 8)))])
    want = np.array([[min(np.searchsorted(cumulative[v], row[v], side="right"), nd - 1) for v in range(n)] for row in x])
    assert np.array_equal(_destinations(cumulative, x), want)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_integer_keys_split_rows_as_void_keys_do(data):
    """Packed rows of one, two and three words split as ``np.unique`` over void keys splits them."""
    width = data.draw(st.sampled_from([1, 5, 8, 9, 13, 16, 17, 19, 24]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    # A few distinct rows, repeated, some differing in a single byte.
    pool = rng.choice(np.array([0, 1, 2, 255], dtype=np.uint8), size=(data.draw(st.integers(1, 6)), width))
    rows = pool[rng.integers(0, len(pool), size=data.draw(st.integers(1, 40)))]
    rows[rng.random(len(rows)) < 0.2, rng.integers(0, width)] ^= 1
    first, inverse = _distinct_rows(rows)
    assert np.array_equal(rows[first][inverse], rows)
    voids = rows.view(np.dtype((np.void, width))).ravel()
    _, want_first, want_inverse = np.unique(voids, return_index=True, return_inverse=True)
    assert len(first) == len(want_first) == len(np.unique(voids[first]))
    # The same partition: two rows share a key exactly when they share a void key.
    assert np.array_equal(inverse[:, None] == inverse[None, :], want_inverse[:, None] == want_inverse[None, :])


def _void_distinct_rows(rows):
    """Distinct rows through ``np.unique`` over one void key per row."""
    voids = np.ascontiguousarray(rows).view(np.dtype((np.void, rows.shape[1]))).ravel()
    _, first, inverse = np.unique(voids, return_index=True, return_inverse=True)
    return first, inverse


@pytest.mark.parametrize("n, dests, samples, words", [(10, 3, 3000, 1), (40, 4, 120, 2), (100, 6, 24, 3)])
def test_integer_keys_keep_every_sample(monkeypatch, n, dests, samples, words):
    """The generic draws are bit-identical to deduplication by void keys at packed widths of 1, 2 and 3 words."""
    monkeypatch.setenv("ONION_ANON_SIZE_LIMITS", "mc_users=100")
    assert -(-(dests + -(-n // 8)) // 8) == words
    rng = np.random.default_rng(n)
    s = validate_scenario(rng.dirichlet(np.ones(dests), size=n), 0.35)
    draw = _generic_sampler(s, PosteriorQuery(2, 1), 31)
    keyed = draw(0, samples, None)
    monkeypatch.setattr(montecarlo, "_distinct_rows", _void_distinct_rows)
    assert np.array_equal(keyed, draw(0, samples, None))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_crowd_table_reads_what_the_ragged_kernel_computes(data):
    """The lattice readout gives every sampled view the bits of :func:`crowd_posteriors`, or raises as it does."""
    n, nd = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 4))
    weights = st.sampled_from([0.0, 0.0, 0.1, 0.25, 0.5, 1.0, 3.0])
    p = np.array([[data.draw(weights) for _ in range(nd)] for _ in range(n)])
    # Point-mass rows, drawn or forced where a row came out all zero.
    for v in range(n):
        if p[v].sum() == 0.0 or data.draw(st.integers(0, 3)) == 0:
            p[v] = 0.0
            p[v, data.draw(st.integers(0, nd - 1))] = 1.0
    s = validate_scenario(p / p.sum(axis=1, keepdims=True), data.draw(st.sampled_from([0.0, 0.25, 0.5, 0.75])))
    user = data.draw(st.integers(0, n - 1))
    q = PosteriorQuery(user, data.draw(st.sampled_from(np.flatnonzero(s.p[user] > 0.0).tolist())))
    assert montecarlo._reads_lattice(s.p, 10**6)
    seed, samples = data.draw(st.integers(0, 2**64 - 1)), data.draw(st.integers(1, 400))
    for force_u in [(False, False), (False, True)]:
        ragged = _generic_sampler(s, q, seed)(0, samples, force_u)
        assert np.array_equal(_generic_sampler(s, q, seed, 10**6)(0, samples, force_u), ragged)
    # Views no configuration produces as well: counts on destinations the crowd never visits.
    table = inference.crowd_table(s.p, q)
    masks = np.array([[data.draw(st.booleans()) for _ in range(n)] for _ in range(data.draw(st.integers(1, 6)))])
    masks[:, user] = False
    for mask in masks:
        counts = np.zeros(nd, dtype=np.int8)
        for _ in range(data.draw(st.integers(0, int(mask.sum()) + 1))):
            counts[data.draw(st.integers(0, nd - 1))] += 1
        try:
            want = crowd_posteriors(s.p, mask[None], counts, q)
        except ImpossibleObservationError:
            with pytest.raises(ImpossibleObservationError):
                table.posteriors(mask[None], counts[None])
            continue
        assert np.array_equal(table.posteriors(mask[None], counts[None]), want)


class TestAgreement:
    def test_generic_tracks_exact_formula(self):
        s = fixed_scenario()
        q = PosteriorQuery(0, 0)
        exact = expected_posterior_formula(s, q)
        est = estimate_expected_posterior(s, q, 100_000, 11)
        assert abs(est.mean - exact) <= 4 * est.std_error

    def test_worst_case_mode_tracks_exact_sum(self):
        pop = WorstCasePopulation(n=25, alpha=0.4, b=0.35, p_target=0.5, p_least=0.2)
        exact = worst_case_expected_exact(pop)
        est = estimate_expected_posterior(pop, None, 100_000, 12, mode="worst_case")
        assert abs(est.mean - exact) <= 4 * est.std_error

    def test_common_mode_tracks_exact_sum(self):
        pop = CommonPopulation(n=60, b=0.25, p=(0.5, 0.3, 0.2), dest=0)
        exact = common_expected_exact(pop)
        est = estimate_expected_posterior(pop, None, 100_000, 13, mode="common")
        assert abs(est.mean - exact) <= 4 * est.std_error

    def test_worst_case_and_generic_modes_agree(self):
        u_dist = [0.6, 0.4]
        scenario = build_worst_case_scenario(10, 0.5, 0.3, u_dist)
        pop = WorstCasePopulation(n=10, alpha=0.5, b=0.3, p_target=0.6, p_least=0.4)
        a = estimate_expected_posterior(scenario, PosteriorQuery(0, 0), 40_000, 21)
        b = estimate_expected_posterior(pop, None, 40_000, 22, mode="worst_case")
        combined = math.hypot(a.std_error, b.std_error)
        assert abs(a.mean - b.mean) <= 4 * combined

    def test_huge_population_runs_in_constant_memory(self):
        pop = WorstCasePopulation(n=1_000_000, alpha=0.0, b=0.25, p_target=0.2, p_least=0.05)
        est = estimate_expected_posterior(pop, None, 4000, 31, mode="worst_case")
        limit = worst_case_limit(0.25, 0.2, 0.05, 0.0).value
        assert abs(est.mean - limit) <= 4 * est.std_error + 0.01


class TestStratified:
    def test_mean_still_tracks_exact(self):
        s = fixed_scenario()
        q = PosteriorQuery(0, 0)
        exact = expected_posterior_formula(s, q)
        est = estimate_expected_posterior(s, q, 50_000, 15, stratify=True)
        assert abs(est.mean - exact) <= 4 * est.std_error

    def test_reduces_the_standard_error(self):
        s = fixed_scenario()
        q = PosteriorQuery(0, 0)
        plain = estimate_expected_posterior(s, q, 50_000, 15)
        strat = estimate_expected_posterior(s, q, 50_000, 15, stratify=True)
        assert strat.std_error < plain.std_error

    def test_needs_enough_samples(self):
        s = fixed_scenario()
        with pytest.raises(ModelError):
            estimate_expected_posterior(s, PosteriorQuery(0, 0), 3, 1, stratify=True)

    @pytest.mark.parametrize("mode", ["generic", "worst_case", "common"])
    def test_boundary_b(self, mode):
        def estimate(b, stratify):
            subject, query = {
                "generic": (fixed_scenario(b), PosteriorQuery(0, 0)),
                "worst_case": (WorstCasePopulation(n=30, alpha=0.5, b=b, p_target=0.3, p_least=0.1), None),
                "common": (CommonPopulation(n=30, b=b, p=(0.5, 0.3, 0.2), dest=0), None),
            }[mode]
            return estimate_expected_posterior(subject, query, 500, 12, mode=mode, stratify=stratify)

        # No endpoint is ever seen at b = 0, so every stratum is the hidden one.
        assert estimate(0.0, True) == estimate(0.0, False)
        certain = estimate(1.0, True)
        assert (certain.mean, certain.std_error) == (1.0, 0.0)

    def test_structured_modes_support_it(self):
        pop = CommonPopulation(n=60, b=0.25, p=(0.5, 0.3, 0.2), dest=0)
        exact = common_expected_exact(pop)
        est = estimate_expected_posterior(pop, None, 50_000, 16, mode="common", stratify=True)
        assert abs(est.mean - exact) <= 4 * est.std_error


class TestForcedEndpoints:
    """Forcing the queried user's endpoints keeps the rest of each stream."""

    @pytest.mark.parametrize("mode", ["generic", "worst_case", "common"])
    @pytest.mark.parametrize("force_u", [(False, False), (False, True)])
    def test_forced_draws_match_the_unforced_stream(self, mode, force_u):
        seed, count = 17, 3000
        if mode == "generic":
            s = fixed_scenario(b=0.3)
            q = PosteriorQuery(1, 0)
            draw, width, flags = _generic_sampler(s, q, seed), 3 * s.n, (s.n + q.user, 2 * s.n + q.user)
        elif mode == "worst_case":
            pop = WorstCasePopulation(n=500, alpha=0.4, b=0.3, p_target=0.3, p_least=0.1)
            draw, width, flags = _worst_case_sampler(pop, seed), 6, (0, 1)
        else:
            pop = CommonPopulation(n=500, b=0.3, p=(0.5, 0.3, 0.2), dest=1)
            draw, width, flags = _common_sampler(pop, seed), 5, (0, 1)
        variates = uniform_block(seed, np.arange(count, dtype=np.int64), width)
        own = (variates[:, flags[0]] < 0.3) == force_u[0]
        own &= (variates[:, flags[1]] < 0.3) == force_u[1]
        assert own.sum() > 100
        forced = draw(0, count, force_u)
        assert np.array_equal(forced[own], draw(0, count, None)[own])
        assert len(np.unique(forced)) > 2


class TestValidation:
    def test_needs_two_samples(self):
        with pytest.raises(ModelError):
            estimate_expected_posterior(fixed_scenario(), PosteriorQuery(0, 0), 1, 0)

    def test_rejects_zero_prior_query(self):
        s = validate_scenario([[1.0, 0.0], [0.5, 0.5]], 0.5)
        with pytest.raises(ConditioningError):
            estimate_expected_posterior(s, PosteriorQuery(0, 1), 100, 0)

    def test_generic_size_limit(self):
        s = validate_scenario([[0.5, 0.5]] * 41, 0.5)
        with pytest.raises(SizeLimitError):
            estimate_expected_posterior(s, PosteriorQuery(0, 0), 100, 0)

    def test_unknown_mode(self):
        with pytest.raises(ModelError):
            estimate_expected_posterior(fixed_scenario(), PosteriorQuery(0, 0), 100, 0, mode="x")

    def test_mode_subject_mismatch(self):
        with pytest.raises(ModelError):
            estimate_expected_posterior(fixed_scenario(), None, 100, 0, mode="worst_case")

    @pytest.mark.parametrize("samples", [100.0, True, "100", None])
    def test_samples_must_be_an_integer(self, samples):
        with pytest.raises(ScenarioError, match="samples must be an integer"):
            estimate_expected_posterior(fixed_scenario(), PosteriorQuery(0, 0), samples, 0)

    @pytest.mark.parametrize("seed", [1.5, "7", True, None])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(ScenarioError, match="seed must be an integer"):
            estimate_expected_posterior(fixed_scenario(), PosteriorQuery(0, 0), 100, seed)

    def test_numpy_integers_are_integers(self):
        s, q = fixed_scenario(), PosteriorQuery(0, 0)
        assert estimate_expected_posterior(s, q, np.int64(100), np.uint64(7)) == estimate_expected_posterior(s, q, 100, 7)


def test_quick_coverage_sanity():
    # A light version of the calibration gate: most runs should cover the
    # exact value at two standard errors.
    s = fixed_scenario()
    q = PosteriorQuery(0, 0)
    exact = expected_posterior_formula(s, q)
    hits = 0
    for i in range(30):
        est = estimate_expected_posterior(s, q, 2000, mix64(900, i))
        if abs(est.mean - exact) <= 2 * est.std_error:
            hits += 1
    assert hits >= 24
