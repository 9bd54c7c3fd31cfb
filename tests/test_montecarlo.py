import math

import numpy as np
import pytest

from onion_anon import (
    CommonPopulation,
    ConditioningError,
    ModelError,
    PosteriorQuery,
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
from onion_anon import inference
from onion_anon.inference import crowd_posteriors
from onion_anon.model import DestMultiset, Observation
from onion_anon.montecarlo import _generic_sampler
from onion_anon.seeding import mix64


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

    def test_thread_count_is_irrelevant(self):
        s = fixed_scenario()
        q = PosteriorQuery(1, 0)
        a = estimate_expected_posterior(s, q, 5000, 77, threads=1)
        b = estimate_expected_posterior(s, q, 5000, 77, threads=8)
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

    def test_structured_modes_support_it(self):
        pop = CommonPopulation(n=60, b=0.25, p=(0.5, 0.3, 0.2), dest=0)
        exact = common_expected_exact(pop)
        est = estimate_expected_posterior(pop, None, 50_000, 16, mode="common", stratify=True)
        assert abs(est.mean - exact) <= 4 * est.std_error


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

    def test_wrong_threads(self):
        with pytest.raises(ModelError):
            estimate_expected_posterior(fixed_scenario(), PosteriorQuery(0, 0), 100, 0, threads=0)


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
