import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from onion_anon import (
    CommonPopulation,
    ConditioningError,
    DegenerateCellError,
    PosteriorQuery,
    ScenarioError,
    SizeLimitError,
    WorstCasePopulation,
    binomial_weights,
    build_common_scenario,
    build_worst_case_scenario,
    common_expected_exact,
    expected_posterior_formula,
    expected_posterior_oracle,
    lower_bound,
    make_distribution,
    shared_distribution_posterior,
    two_group_posterior,
    worst_case_expected_exact,
)
from onion_anon import structured
from onion_anon.structured import two_group_cell


def binomial_form_posterior(n_target, n_other, seen_other, seen_target, p_target, p_least):
    """Pre-cancellation form of the two-group posterior, as a check that
    the simplified ratio is the same function."""
    numerator = p_target * math.comb(n_target, seen_target - 1) * math.comb(n_other, seen_other)
    numerator += p_target * math.comb(n_target, seen_target) * math.comb(n_other, seen_other)
    denominator = (
        p_target * math.comb(n_target, seen_target - 1) * math.comb(n_other, seen_other)
        + p_least * math.comb(n_target, seen_target) * math.comb(n_other, seen_other - 1)
        + math.comb(n_target, seen_target) * math.comb(n_other, seen_other)
    )
    return numerator / denominator


def comb(n, k):
    return math.comb(n, k) if 0 <= k <= n else 0


def quadruple_sum(pop):
    """The two-group expectation summed over all four counts: the reference for the ratio kernel."""
    b, p, q = pop.b, pop.p_target, pop.p_least
    lead = b * (1.0 - b) * p + b * b
    if b == 1.0:
        return lead
    terms = []
    for unobs_target, wt in enumerate(binomial_weights(pop.n_target, 1.0 - b)):
        for unobs_other, wo in enumerate(binomial_weights(pop.n_other, 1.0 - b)):
            if wt == 0.0 or wo == 0.0:
                continue
            seen_t = np.arange(unobs_target + 2, dtype=np.float64)  # the last slot holds the own output
            seen_o = np.arange(unobs_other + 1, dtype=np.float64)[:, None]
            grid = two_group_cell(unobs_target, unobs_other, seen_o, seen_t, p, q)
            mixed = b * grid[:, 1:] + (1.0 - b) * grid[:, :-1]
            inner = binomial_weights(unobs_other, b) @ mixed @ binomial_weights(unobs_target, b)
            terms.append(wt * wo * float(inner))
    return lead + (1.0 - b) * math.fsum(terms)


def two_group_in_rationals(pop):
    """The two-group expectation summed over all four counts in exact rationals."""
    b, p, q = Fraction(pop.b), Fraction(pop.p_target), Fraction(pop.p_least)

    def pmf(n, k, x):
        return math.comb(n, k) * x**k * (1 - x) ** (n - k)

    total = b * (1 - b) * p + b * b
    for unobs_target in range(pop.n_target + 1):
        for unobs_other in range(pop.n_other + 1):
            w = (1 - b) * pmf(pop.n_target, unobs_target, 1 - b) * pmf(pop.n_other, unobs_other, 1 - b)
            for seen_t in range(unobs_target + 1):
                for seen_o in range(unobs_other + 1):
                    own_seen = two_group_cell(unobs_target, unobs_other, seen_o, seen_t + 1, p, q)
                    own_bare = two_group_cell(unobs_target, unobs_other, seen_o, seen_t, p, q)
                    mass = w * pmf(unobs_target, seen_t, b) * pmf(unobs_other, seen_o, b)
                    total += mass * (b * own_seen + (1 - b) * own_bare)
    return total


class TestTwoGroupPosterior:
    def test_alone_and_unseen_keeps_prior(self):
        assert two_group_posterior(0, 0, 0, 0, 0.37, 0.2) == pytest.approx(0.37, abs=1e-15)

    def test_small_direct_substitution(self):
        for p in (0.1, 0.4, 0.9):
            got = two_group_posterior(1, 1, 0, 1, p, 1 - p)
            assert got == pytest.approx(2 * p / (p + 1), abs=1e-14)

    def test_matches_binomial_ratio_form(self):
        got = two_group_posterior(2, 2, 1, 1, 0.45, 0.3)
        want = binomial_form_posterior(2, 2, 1, 1, 0.45, 0.3)
        assert got == pytest.approx(want, rel=1e-13)

    def test_matches_binomial_ratio_form_on_grid(self):
        for n_t in range(0, 5):
            for n_o in range(0, 5):
                for s_o in range(0, n_o + 1):
                    for s_t in range(0, n_t + 2):
                        got = two_group_posterior(n_t, n_o, s_o, s_t, 0.3, 0.25)
                        num = 0.3 * (comb(n_t, s_t - 1) + comb(n_t, s_t)) * comb(n_o, s_o)
                        den = (
                            0.3 * comb(n_t, s_t - 1) * comb(n_o, s_o)
                            + 0.25 * comb(n_t, s_t) * comb(n_o, s_o - 1)
                            + comb(n_t, s_t) * comb(n_o, s_o)
                        )
                        assert got == pytest.approx(num / den, rel=1e-12)

    def test_every_target_output_pinned_means_certainty(self):
        assert two_group_posterior(3, 2, 1, 4, 0.5, 0.25) == pytest.approx(1.0)

    def test_degenerate_cell_raises(self):
        with pytest.raises(DegenerateCellError):
            two_group_posterior(1, 1, 0, 2, 0.0, 0.5)

    def test_monotone_in_seen_counts(self):
        # Non-increasing as bare off-target outputs accumulate,
        # non-decreasing as bare on-target outputs accumulate.
        p, q = 0.35, 0.2
        for n_t in range(21):
            for n_o in range(21):
                rows = np.array(
                    [
                        [two_group_posterior(n_t, n_o, j, k, p, q) for k in range(n_t + 2)]
                        for j in range(n_o + 1)
                    ]
                )
                assert np.all(np.diff(rows, axis=0) <= 1e-12)
                assert np.all(np.diff(rows, axis=1) >= -1e-12)

    def test_rejects_out_of_range_counts(self):
        with pytest.raises(ValueError):
            two_group_posterior(1, 1, 2, 0, 0.5, 0.25)
        with pytest.raises(ValueError):
            two_group_posterior(1, 1, 0, 3, 0.5, 0.25)


class TestSharedDistributionPosterior:
    def test_alone_and_unseen(self):
        assert shared_distribution_posterior(1, 0, 0, 0.3) == pytest.approx(0.3, abs=1e-15)

    def test_all_seen_half_match(self):
        assert shared_distribution_posterior(2, 2, 1, 0.9) == pytest.approx(0.5, abs=1e-15)

    def test_direct_substitution(self):
        assert shared_distribution_posterior(3, 1, 1, 0.3) == pytest.approx(1.6 / 3, abs=1e-15)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            shared_distribution_posterior(0, 0, 0, 0.5)
        with pytest.raises(ValueError):
            shared_distribution_posterior(2, 3, 0, 0.5)
        with pytest.raises(ValueError):
            shared_distribution_posterior(2, 1, 2, 0.5)


class TestBinomialWeights:
    def test_matches_exact_combinatorics(self):
        for n in (0, 1, 2, 7, 23, 60):
            for q in (0.0, 1e-6, 0.3, 0.5, 0.97, 1.0):
                w = binomial_weights(n, q)
                exact = [math.comb(n, k) * q**k * (1 - q) ** (n - k) for k in range(n + 1)]
                assert np.allclose(w, exact, rtol=1e-12, atol=1e-300)

    def test_sums_to_one(self):
        for n in (1, 10, 100, 300):
            for q in (1e-9, 0.001, 0.25, 0.5, 0.75, 0.999999999):
                assert abs(float(binomial_weights(n, q).sum()) - 1.0) < 1e-12

    def test_no_underflow_at_large_n_extreme_q(self):
        w = binomial_weights(300, 0.999)
        assert np.isfinite(w).all() and abs(float(w.sum()) - 1.0) < 1e-12


class TestWorstCaseExpected:
    def test_single_user_collapse(self):
        b, p, q = 0.5, 0.5, 0.25
        pop = WorstCasePopulation(n=1, alpha=0.7, b=b, p_target=p, p_least=q)
        got = worst_case_expected_exact(pop)
        psi_out_seen = two_group_posterior(0, 0, 0, 1, p, q)
        want = b * (1 - b) * p + b * b + (1 - b) * (b * psi_out_seen + (1 - b) * p)
        assert got == pytest.approx(want, abs=1e-14)
        assert psi_out_seen == 1.0

    def test_boundary_b(self):
        pop0 = WorstCasePopulation(n=40, alpha=0.3, b=0.0, p_target=0.4, p_least=0.2)
        pop1 = WorstCasePopulation(n=40, alpha=0.3, b=1.0, p_target=0.4, p_least=0.2)
        assert worst_case_expected_exact(pop0) == pytest.approx(0.4, abs=1e-12)
        assert worst_case_expected_exact(pop1) == 1.0

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("b", [0.3, 0.6])
    def test_matches_generic_oracle(self, alpha, b):
        u_dist = [0.5, 0.25, 0.25]
        pop = WorstCasePopulation(n=3, alpha=alpha, b=b, p_target=0.5, p_least=0.25)
        scenario = build_worst_case_scenario(3, alpha, b, u_dist)
        oracle = expected_posterior_oracle(scenario, PosteriorQuery(0, 0))
        assert worst_case_expected_exact(pop) == pytest.approx(oracle, rel=1e-9)

    @pytest.mark.parametrize("alpha, b, u_dist", [(0.4, 0.3, [0.5, 0.3, 0.2]), (0.8, 0.6, [0.25, 0.5, 0.25])])
    def test_matches_the_rational_oracle_at_six_users(self, alpha, b, u_dist):
        # The other five users each visit one destination, so the oracle
        # walks 3 * 4**6 configurations, within its default budget.
        pop = WorstCasePopulation(n=6, alpha=alpha, b=b, p_target=u_dist[0], p_least=min(u_dist[1:]))
        scenario = build_worst_case_scenario(6, alpha, b, u_dist)
        oracle = expected_posterior_oracle(scenario, PosteriorQuery(0, 0), exact=True)
        assert isinstance(oracle, Fraction)
        assert worst_case_expected_exact(pop) == pytest.approx(float(oracle), rel=0, abs=1e-14)

    def test_truncation_changes_nothing_measurable(self):
        pop = WorstCasePopulation(n=150, alpha=0.4, b=0.35, p_target=0.3, p_least=0.1)
        full = worst_case_expected_exact(pop)
        cut = worst_case_expected_exact(pop, truncate=True)
        assert cut == pytest.approx(full, abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 40),
        alpha=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        b=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        p=st.floats(1e-3, 1.0),
        q_share=st.floats(0.0, 1.0),
    )
    @example(n=1, alpha=0.5, b=0.3, p=0.4, q_share=0.5)
    @example(n=40, alpha=0.0, b=0.3, p=0.4, q_share=0.5)
    @example(n=40, alpha=1.0, b=0.3, p=0.4, q_share=0.5)
    @example(n=40, alpha=0.5, b=0.0, p=0.4, q_share=0.5)
    @example(n=40, alpha=0.5, b=1.0, p=0.4, q_share=0.5)
    def test_ratio_kernel_matches_the_quadruple_sum(self, n, alpha, b, p, q_share):
        pop = WorstCasePopulation(n=n, alpha=alpha, b=b, p_target=p, p_least=q_share * (1.0 - p))
        full = worst_case_expected_exact(pop)
        assert full == pytest.approx(quadruple_sum(pop), rel=0, abs=1e-14)
        assert worst_case_expected_exact(pop, truncate=True) == pytest.approx(full, rel=0, abs=(1 - b) * 1e-12)

    def test_matches_rationals_to_an_ulp(self):
        # binomial_weights divides each vector by its own sum, so no
        # unnormalised mass carries into the expectation.
        pop = WorstCasePopulation(n=40, alpha=0.0, b=0.4, p_target=0.3, p_least=0.1)
        want = two_group_in_rationals(pop)
        assert abs(Fraction(worst_case_expected_exact(pop)) - want) <= Fraction(2e-16)

    @pytest.mark.parametrize("n, alpha, b", [(16, 0.5, 0.4), (12, 0.5, 0.8)])
    def test_interpolant_matches_rationals(self, n, alpha, b, monkeypatch):
        # Both groups hold several ratios, so with the direct threshold at 0
        # the Chebyshev fit of S serves the sum.
        fits = []
        fit = structured._chebyshev_fit
        monkeypatch.setattr(structured, "_chebyshev_fit", lambda *args: fits.append(1) or fit(*args))
        monkeypatch.setattr(structured, "_DIRECT_PRODUCTS", 0)
        pop = WorstCasePopulation(n=n, alpha=alpha, b=b, p_target=0.3, p_least=0.1)
        want = two_group_in_rationals(pop)
        assert abs(Fraction(worst_case_expected_exact(pop)) - want) <= Fraction(1e-15) * want
        assert fits

    def test_group_split_rounding(self):
        pop = WorstCasePopulation(n=4, alpha=0.5, b=0.5, p_target=0.5, p_least=0.5)
        assert pop.n_target == 2 and pop.n_other == 1

    @pytest.mark.parametrize("n, alpha, n_target", [
        (46, 0.7, 32),  # 0.7 * 45 is 31.499999999999996 in floats; the decimal's 31.5 rounds up
        (46, np.float64(0.7), 32),
        (46, 0.7000000000000001, 32),
        (46, 0.6999999999999999, 31),
        (11, 0.25, 3),
        (2**62 + 1, 0.5, 2**61),
        (2**62 + 1, 0.1, 461168601842738790),  # 2**62 / 10 = ...790.4, exact past 2**53
    ])
    def test_target_count_rounds_the_decimal_halves_up(self, n, alpha, n_target):
        pop = WorstCasePopulation(n=n, alpha=alpha, b=0.5, p_target=0.5, p_least=0.5)
        assert (pop.n_target, pop.n_other) == (n_target, n - 1 - n_target)

    def test_size_limit(self):
        # No ceiling on users: 301 runs, and a million is refused by the
        # group table's grid cap at every b, before the grid is built.
        pop = WorstCasePopulation(n=301, alpha=0.5, b=0.5, p_target=0.5, p_least=0.25)
        assert 0.0 < worst_case_expected_exact(pop) <= 1.0
        for b in (0.05, 0.4, 0.5, 0.9):
            pop = WorstCasePopulation(n=10**6, alpha=0.5, b=b, p_target=0.5, p_least=0.25)
            with pytest.raises(SizeLimitError, match=r"need \d+ entries, over the cap of 4194304$"):
                worst_case_expected_exact(pop)

    def test_requires_positive_target_prior(self):
        pop = WorstCasePopulation(n=10, alpha=0.5, b=0.5, p_target=0.0, p_least=0.25)
        with pytest.raises(ConditioningError):
            worst_case_expected_exact(pop)

    def test_rejects_inconsistent_priors(self):
        with pytest.raises(ScenarioError):
            WorstCasePopulation(n=3, alpha=0.5, b=0.5, p_target=0.8, p_least=0.4)


def interpolated_and_direct(pop):
    """The two-group expectation with S from its Chebyshev fit, and summed at every x."""
    with mock.patch.object(structured, "_DIRECT_PRODUCTS", 0):
        fitted = worst_case_expected_exact(pop)
    with mock.patch.object(structured, "_DIRECT_PRODUCTS", 1 << 62):
        direct = worst_case_expected_exact(pop)
    return fitted, direct


class TestTwoGroupInterpolant:
    """S's Chebyshev series in 1 / A against S summed at every x."""

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(1, 400),
        alpha=st.floats(0.0, 1.0),
        b=st.floats(0.05, 0.95),
        p=st.floats(1e-3, 1.0),
        q_share=st.floats(0.0, 1.0),
    )
    @example(n=400, alpha=0.5, b=0.95, p=0.5, q_share=1.0)
    @example(n=400, alpha=0.5, b=0.05, p=1e-3, q_share=1.0)
    @example(n=300, alpha=0.9, b=0.3, p=0.3, q_share=1.0)
    def test_matches_the_direct_sum(self, n, alpha, b, p, q_share):
        pop = WorstCasePopulation(n=n, alpha=alpha, b=b, p_target=p, p_least=q_share * (1.0 - p))
        fitted, direct = interpolated_and_direct(pop)
        assert fitted == pytest.approx(direct, rel=1e-15, abs=0)

    @pytest.mark.parametrize("n, b, q", [
        (1, 0.3, 0.2), (2, 0.3, 0.2), (2, 0.3, 0.0), (2, 1.1e-308, 0.2), (2, 1.0 - 2.0**-53, 0.2),
        (120, 0.4, 0.0), (120, 1.1e-308, 0.2), (120, 1e-9, 0.2), (120, 0.999999, 0.2), (120, 1.0 - 2.0**-53, 0.2),
    ])
    def test_edge_cases(self, n, b, q):
        pop = WorstCasePopulation(n=n, alpha=0.5, b=b, p_target=0.4, p_least=q)
        fitted, direct = interpolated_and_direct(pop)
        assert fitted == pytest.approx(direct, rel=1e-15, abs=0)
        if n <= 2:
            assert direct == pytest.approx(quadruple_sum(pop), rel=0, abs=1e-15)

    def test_group_tables_stay_small_at_1500_members(self):
        # One pass over the windows of U and of S given U.  The full-support
        # tables, one binomial_weights call per U, peaked at 83 MB.
        structured._group_ratios.cache_clear()
        tracemalloc.start()
        try:
            values, mass, spare_zero = structured._group_ratios(1500, 0.4, True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            structured._group_ratios.cache_clear()
        assert peak < 16 << 20
        assert math.fsum(mass.tolist()) + spare_zero == pytest.approx(1.0, abs=1e-15)

    def test_refuses_tables_past_the_cap(self):
        pop = WorstCasePopulation(n=10**6, alpha=0.5, b=0.4, p_target=0.3, p_least=0.1)
        with pytest.raises(SizeLimitError, match="over the cap"):
            worst_case_expected_exact(pop)


class TestCommonExpected:
    def test_single_user_closed_form(self):
        b, p_d = 0.3, 0.6
        pop = CommonPopulation(n=1, b=b, p=(0.6, 0.4), dest=0)
        want = b * b + b * (1 - b) * p_d + (1 - b) * (b + (1 - b) * p_d)
        assert common_expected_exact(pop) == pytest.approx(want, abs=1e-14)

    def test_boundary_b(self):
        pop0 = CommonPopulation(n=30, b=0.0, p=(0.6, 0.4), dest=0)
        pop1 = CommonPopulation(n=30, b=1.0, p=(0.6, 0.4), dest=0)
        assert common_expected_exact(pop0) == pytest.approx(0.6, abs=1e-12)
        assert common_expected_exact(pop1) == 1.0

    @pytest.mark.parametrize("b", [0.3, 0.6])
    def test_matches_generic_oracle(self, b):
        row = tuple(float(x) for x in make_distribution("explicit:0.5,0.3,0.2", 3))
        pop = CommonPopulation(n=4, b=b, p=row, dest=0)
        scenario = build_common_scenario(4, b, row)
        oracle = expected_posterior_oracle(scenario, PosteriorQuery(0, 0))
        assert common_expected_exact(pop) == pytest.approx(oracle, rel=1e-9)

    def test_reduced_identity(self):
        # Collapsing the sum analytically gives
        # bound + b (1 - p_d) (1 - b^n) / n; the code must agree.
        for n in (1, 2, 5, 40, 200):
            for b in (0.05, 0.4, 0.9):
                pop = CommonPopulation(n=n, b=b, p=(0.5, 0.3, 0.2), dest=1)
                identity = lower_bound(b, 0.3) + b * (1 - 0.3) * (1 - b**n) / n
                assert common_expected_exact(pop) == pytest.approx(identity, abs=1e-12)

    @pytest.mark.parametrize("b, p", [(0.3, 0.2), (0.1, 0.19)])
    @pytest.mark.parametrize("n", [1, 2, 50, 300])
    def test_matches_the_binomial_sum_in_rationals(self, n, b, p):
        # The expectation as a sum over the U - 1 ~ Binomial(n - 1, 1 - b) other
        # unseen inputs, with the posterior averaging p + b (1 - p) / U given U,
        # evaluated exactly in rationals.
        b_, p_ = Fraction(b), Fraction(p)
        unseen = sum(
            math.comb(n - 1, u - 1) * (1 - b_) ** (u - 1) * b_ ** (n - u) * (b_ * (p_ * (u - 1) + 1) / u + (1 - b_) * p_)
            for u in range(1, n + 1)
        )
        want = b_ * b_ + b_ * (1 - b_) * p_ + (1 - b_) * unseen
        got = common_expected_exact(CommonPopulation(n=n, b=b, p=(p, 1 - p), dest=0))
        assert abs(Fraction(got) - want) <= Fraction(1, 10**15) * want

    @pytest.mark.parametrize("p", [(float("nan"), 0.5, 0.5), (float("nan"),), (float("inf"), 0.0)])
    def test_rejects_a_non_finite_shared_distribution(self, p):
        with pytest.raises(ScenarioError, match="not stochastic"):
            CommonPopulation(n=5, b=0.3, p=p, dest=0)

    def test_rejects_nan_b(self):
        with pytest.raises(ScenarioError, match="b out of range"):
            CommonPopulation(n=5, b=float("nan"), p=(0.5, 0.5), dest=0)

    def test_requires_positive_prior_on_the_destination(self):
        pop = CommonPopulation(n=20, b=0.1, p=(0.0, 0.0, 1.0), dest=0)
        with pytest.raises(ConditioningError):
            common_expected_exact(pop)

    def test_error_shrinks_like_one_over_n(self):
        row = tuple(float(x) for x in make_distribution("zipf:1.0", 100))
        bound = lower_bound(0.1, row[0])
        errors = {}
        for n in (100, 200):
            pop = CommonPopulation(n=n, b=0.1, p=row, dest=0)
            errors[n] = abs(common_expected_exact(pop) - bound)
        assert errors[200] <= 0.55 * errors[100]


class TestFormulaAtTheCeiling:
    """The generic formula at its default limit of 10 users against the closed forms."""

    def test_worst_case_scenario(self):
        u_dist = [0.4, 0.2, 0.15, 0.1, 0.1, 0.05]
        scenario = build_worst_case_scenario(10, 0.4, 0.3, u_dist)
        pop = WorstCasePopulation(n=10, alpha=0.4, b=0.3, p_target=0.4, p_least=0.05)
        formula = expected_posterior_formula(scenario, PosteriorQuery(0, 0))
        assert formula == pytest.approx(worst_case_expected_exact(pop), rel=0, abs=1e-9)

    def test_common_scenario(self):
        row = tuple(float(x) for x in make_distribution("zipf:1.0", 4))
        scenario = build_common_scenario(10, 0.35, row)
        pop = CommonPopulation(n=10, b=0.35, p=row, dest=2)
        formula = expected_posterior_formula(scenario, PosteriorQuery(3, 2))
        assert formula == pytest.approx(common_expected_exact(pop), rel=0, abs=1e-9)
