import itertools
import math
import tracemalloc
from fractions import Fraction
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from onion_anon import binomial, structured
from onion_anon.errors import SizeLimitError
from onion_anon.seeding import uniform_block
from onion_anon.structured import WorstCasePopulation, binomial_weights, worst_case_expected_exact

EDGE_U = [2.0**-54, 0.5, 1.0 - 2.0**-53, 1.0]
PROBS = [0.0, 1e-6, 0.1, 0.3, 0.5, 0.75, 0.97, 1.0]


def brute_force_ppf(u: float, n: int, p: float) -> int:
    """Smallest k whose full-support CDF, summed from the raw masses and
    divided by its total as the tables are, reaches u; n at u == 1."""
    if u == 1.0:
        return n
    cdf = np.cumsum(binomial.masses(n, p, 0, n))
    cdf /= cdf[-1]
    return next(k for k in range(n + 1) if cdf[k] >= u)


@lru_cache(maxsize=None)
def exact_cdf(n: int, p: float) -> list[Fraction]:
    q = Fraction(p)
    masses = [math.comb(n, i) * q**i * (1 - q) ** (n - i) for i in range(n + 1)]
    return list(itertools.accumulate(masses))


def agrees_with_exact_cdf(draw: int, u: float, n: int, p: float, tol=2.0**-48) -> bool:
    """Whether ``draw`` is the smallest k with CDF(k) >= u for some CDF
    within ``tol`` of the exact one (and n at u == 1)."""
    if u == 1.0:
        return draw == n
    if not 0 <= draw <= n:
        return False
    cdf, x = exact_cdf(n, p), Fraction(u)
    below = draw == 0 or cdf[draw - 1] < x + Fraction(tol)
    return below and cdf[draw] >= x - Fraction(tol)


def small_cases():
    u = np.concatenate([EDGE_U, uniform_block(17, np.arange(40), 1)[:, 0]])
    for n in range(61):
        for p in PROBS:
            yield n, p, u


class TestAgainstBruteForce:
    def test_fixed_n(self):
        for n, p, u in small_cases():
            want = [brute_force_ppf(x, n, p) for x in u.tolist()]
            assert binomial.ppf(u, n, p).tolist() == want, (n, p)

    def test_per_draw_n(self):
        for n, p, u in small_cases():
            want = [brute_force_ppf(x, n, p) for x in u.tolist()]
            assert binomial.ppf(u, np.full(len(u), n), p).tolist() == want, (n, p)

    def test_per_draw_n_through_anchors(self, monkeypatch):
        # Every n through an anchor table and the bracket search.  Its CDF
        # is summed in another order, so it may settle a u that lies within
        # rounding of the CDF differently; it must agree with the exact
        # rational CDF up to that tolerance.
        monkeypatch.setattr(binomial, "_DIRECT_BELOW", 0)
        u = np.repeat(np.concatenate([EDGE_U, uniform_block(19, np.arange(12), 1)[:, 0]]), 61)
        n = np.tile(np.arange(61), len(u) // 61)
        for p in PROBS:
            got = binomial.ppf(u, n, p).tolist()
            for x, k, draw in zip(u.tolist(), n.tolist(), got):
                assert agrees_with_exact_cdf(draw, x, k, p), (x, k, p, draw)

    def test_exact_cdf_within_rounding(self):
        u = np.concatenate([EDGE_U, uniform_block(31, np.arange(8), 1)[:, 0]])
        for n in range(0, 61, 3):
            for p in PROBS:
                for x, draw in zip(u.tolist(), binomial.ppf(u, n, p).tolist()):
                    assert agrees_with_exact_cdf(draw, x, n, p), (x, n, p, draw)

    def test_anchors_at_large_n(self):
        u = uniform_block(23, np.arange(400), 1)[:, 0]
        n = 5000 + np.arange(400) % 37
        for p in (0.2, 0.9):
            want = [brute_force_ppf(x, k, p) for x, k in zip(u.tolist(), n.tolist())]
            assert binomial.ppf(u, n, p).tolist() == want, p

    def test_a_draw_ignores_the_draws_beside_it(self):
        # Strides, anchors and walks are per draw: the whole array, each
        # half and each single draw give the same draws.
        u = uniform_block(29, np.arange(3000), 2)
        n = 100_000 + (u[:, 0] * 4000).astype(np.int64)
        whole = binomial.ppf(u[:, 1], n, 0.3)
        halves = [binomial.ppf(u[part, 1], n[part], 0.3) for part in (slice(0, 1500), slice(1500, None))]
        assert np.array_equal(np.concatenate(halves), whole)
        singles = [int(binomial.ppf(u[i : i + 1, 1], n[i : i + 1], 0.3)[0]) for i in range(len(n))]
        assert singles == whole.tolist()

    @pytest.mark.parametrize("q", [1.0 - 1e-6, 1e-6])
    def test_walks_near_certainty(self, q):
        # Nearly all mass on one end: u just below 1 (or just above 0) sits
        # at the edge of each anchor's window, and the walk must neither
        # pass n nor divide by zero.
        u = np.repeat(EDGE_U, 40)
        for base in (binomial._DIRECT_BELOW, 10_000_000):
            n = base + np.tile(np.arange(40), len(EDGE_U))
            assert (binomial._stride(n, q) > 1).all()
            got = binomial.ppf(u, n, q)
            assert (got <= n).all()
            if q > 0.5:
                assert (got[u == 1.0 - 2.0**-53] == n[u == 1.0 - 2.0**-53]).all()
            want = [int(binomial.ppf([x], k, q)[0]) for x, k in zip(u.tolist(), n.tolist())]
            assert got.tolist() == want, (base, q)
            if base == binomial._DIRECT_BELOW:
                assert want == [brute_force_ppf(x, k, q) for x, k in zip(u.tolist(), n.tolist())]


class TestInputs:
    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            binomial.ppf([0.5], 3, 1.5)
        with pytest.raises(ValueError):
            binomial.ppf([0.5], -1, 0.5)
        with pytest.raises(ValueError):
            binomial.ppf([0.0], 3, 0.5)
        with pytest.raises(ValueError):
            binomial.ppf([0.5, 0.5], np.array([3, 4, 5]), 0.5)

    def test_per_draw_n_of_any_shape(self):
        u = uniform_block(37, np.arange(12), 2)
        n = (300 + u[:, 0] * 5000).astype(np.int64)
        grid = u[:, 1].reshape(3, 4)
        assert np.array_equal(binomial.ppf(grid, n.reshape(3, 4), 0.4), binomial.ppf(u[:, 1], n, 0.4).reshape(3, 4))
        assert np.array_equal(binomial.ppf(grid, 300, 0.4), binomial.ppf(u[:, 1], 300, 0.4).reshape(3, 4))
        assert binomial.ppf(1.0, 7, 0.4).shape == ()

    @pytest.mark.parametrize("n", [10.7, np.array([10.0, 3.5]), np.array([np.nan]), np.array([np.inf]), 2.0**63])
    def test_rejects_counts_that_are_not_whole(self, n):
        with pytest.raises(ValueError, match="whole counts"):
            binomial.ppf([0.5] * np.size(n), n, 0.3)

    def test_accepts_whole_float_counts(self):
        u = [0.5, 0.5]
        assert binomial.ppf(u, np.array([10.0, 3.0]), 0.3).tolist() == binomial.ppf(u, [10, 3], 0.3).tolist()

    def test_refuses_a_window_past_the_cap(self):
        # The window grows as sqrt(n); it passes 2**22 entries near n = 1.8e11 at q = 1/2.
        lo, hi = binomial._window(10**8, 0.5)
        assert hi - lo < 1 << 17
        for n in (1 << 53, np.array([1 << 53, 10]), np.array([10, (1 << 53) + 5])):
            with pytest.raises(SizeLimitError, match=f"Binomial\\(n={np.max(n)}, q=0.5\\)"):
                binomial.ppf([0.5] * np.size(n), n, 0.5)

    def test_refuses_an_anchor_past_the_cap(self, monkeypatch):
        # A nearest anchor can lie up to S/2 above every n of a call.  With the
        # cap at the largest n's own window, that anchor's table is over it:
        # the call refuses before building any table, and names the anchor.
        q = 0.5
        n = next(n for n in range(10**6, 10**6 + 4096) if self._anchor_window_wider(n, q))
        anchor = int(binomial._anchor(np.array([n]), q)[0])
        lo, hi = binomial._window(n, q)
        monkeypatch.setattr(binomial, "WINDOW_ENTRIES", hi - lo + 1)
        monkeypatch.setattr(binomial, "masses", mock.Mock(side_effect=AssertionError("a table was built")))
        with pytest.raises(SizeLimitError, match=f"Binomial\\(n={n}, q=0.5\\) draws walk from an anchor at n={anchor}"):
            binomial.ppf([0.5, 0.5], np.array([n - 1, n]), q)

    @staticmethod
    def _anchor_window_wider(n: int, q: float) -> bool:
        lo, hi = binomial._window(n, q)
        anchor_lo, anchor_hi = binomial._window(int(binomial._anchor(np.array([n]), q)[0]), q)
        return anchor_hi - anchor_lo > hi - lo

    def test_returns_int64(self):
        assert binomial.ppf([0.5], 10, 0.5).dtype == np.int64
        assert binomial.ppf([0.5], np.array([10]), 0.5).dtype == np.int64
        for n in (10, np.array([], dtype=np.int64)):
            empty = binomial.ppf(np.array([]), n, 0.3)
            assert empty.dtype == np.int64 and empty.shape == (0,)


class TestAgainstScipy:
    """scipy is an optional oracle: the draws must match it exactly."""

    def setup_method(self):
        stats = pytest.importorskip("scipy.stats")
        self.oracle = lambda u, n, p: np.rint(stats.binom.ppf(u, n, p)).astype(np.int64)
        self.u = uniform_block(2024, np.arange(100_000), 3)

    def test_fixed_n_of_a_million(self):
        u = self.u[:, 0]
        assert np.array_equal(binomial.ppf(u, 1_000_000, 0.75), self.oracle(u, 1_000_000, 0.75))

    @pytest.mark.parametrize("n, p_first, p_second", [
        (100_000_000, 0.8, 0.2), (1_000_000, 0.8, 0.2), (300, 0.75, 0.25)])
    def test_nested_draws(self, n, p_first, p_second):
        first = binomial.ppf(self.u[:, 1], n, p_first)
        u = self.u[:, 2]
        assert np.array_equal(binomial.ppf(u, first, p_second), self.oracle(u, first, p_second))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(0, 2_000_000),
    p=st.floats(0.0, 1.0),
    u=st.lists(st.floats(2.0**-54, 1.0), min_size=1, max_size=30),
    per_draw=st.booleans(),
)
def test_draws_in_range_and_monotone_in_u(n, p, u, per_draw):
    u = np.sort(np.array(u))
    k = binomial.ppf(u, np.full(len(u), n) if per_draw else n, p)
    assert k.min() >= 0 and k.max() <= n
    assert (np.diff(k) >= 0).all()


def within_rounding_of_the_cdf(u: float, got: int, want: int, n: int, q: float) -> bool:
    """Whether the CDF of n at every k from min(got, want) up to max(got, want) - 1
    lies within the module's rounding bound of u: a running sum's error in each
    of the two tables (n's and its anchor's, the multiple of n's stride nearest
    n), plus two units per walk step, |n - anchor| of them."""
    anchor = int(binomial._anchor(np.array([n]), q)[0])
    entries = sum(hi - lo + 1 for lo, hi in (binomial._window(n, q), binomial._window(anchor, q)))
    tol = (entries + 2 * abs(n - anchor)) * 2.0**-53
    lo, cdf = binomial._cdf_table(n, q)[:2]
    between = cdf[min(got, want) - lo : max(got, want) - lo]
    return bool(np.all(np.abs(between - u) <= tol))


@settings(max_examples=40, deadline=None)
@given(
    base=st.one_of(st.integers(0, 5000), st.integers(5000, 10**8)),
    q=st.one_of(st.sampled_from([1e-6, 0.5, 1.0 - 1e-6]), st.floats(1e-4, 1.0 - 1e-4)),
    seed=st.integers(0, 2**32 - 1),
    direct_below=st.sampled_from([binomial._DIRECT_BELOW, 0]),
)
# At n = 24, q = 1e-3 and u = 2**-54, T - g rounds above u at k = 0, and a
# walk down from 32 without the k > 0 test ends at k = -7.
@example(base=32, q=1e-3, seed=0, direct_below=0)
def test_walks_both_ways_around_an_anchor(base, q, seed, direct_below):
    # Every n from S/2 below an anchor to S/2 - 1 above it, each through
    # the walk from that anchor, equals the draw from its own table, except
    # where u lies within rounding of a CDF value.
    stride = int(binomial._stride(np.array([base]), q)[0])
    anchor = base - base % stride
    counts = anchor + np.arange(-stride // 2, stride // 2)
    counts = counts[counts >= 0]
    u = np.concatenate([EDGE_U, uniform_block(seed, np.arange(8), 1)[:, 0]])
    with mock.patch.object(binomial, "_DIRECT_BELOW", direct_below):
        draws = binomial.ppf(np.tile(u, len(counts)), np.repeat(counts, len(u)), q).reshape(len(counts), len(u))
        for n, row in zip(counts.tolist(), draws):
            assert 0 <= row.min() and row.max() <= n, (n, q, row)
            want = binomial.ppf(u, n, q)
            for x, got, w in zip(u.tolist(), row.tolist(), want.tolist()):
                assert got == w or within_rounding_of_the_cdf(x, got, w, n, q), (x, n, q, got, w)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(binomial._DIRECT_BELOW, 10**8),
    q=st.one_of(st.sampled_from([1e-6, 0.5, 1.0 - 1e-6]), st.floats(1e-4, 1.0 - 1e-4)),
    spread=st.integers(1, 2000),
    seed=st.integers(0, 2**32 - 1),
)
def test_per_draw_n_matches_scalar_n(n, q, spread, seed):
    # Draws through anchors and walks equal draws from each n's own table,
    # except where u lies within rounding of a CDF value.
    u = uniform_block(seed, np.arange(40), 2)
    counts = n + (u[:, 0] * spread).astype(np.int64)
    draws = binomial.ppf(u[:, 1], counts, q)
    for x, k, got in zip(u[:, 1].tolist(), counts.tolist(), draws.tolist()):
        want = int(binomial.ppf([x], k, q)[0])
        assert got == want or within_rounding_of_the_cdf(x, got, want, k, q), (x, k, q, got, want)


def test_binomial_weights_match_the_exact_binomial():
    # Every entry within 1e-12 relative of the rational binomial wherever
    # that is at least 2**-1000, clear of the subnormals; every vector sums
    # to 1 within 1e-15.  A float q is a / d exactly, with d = 2**e, so
    # d**n times the masses are integers, stepped by Pascal's rule in n.
    for q in PROBS + [1e-9, 1 / 3, 0.999999999]:
        a, d = q.as_integer_ratio()
        e = d.bit_length() - 1
        scaled = [1]
        for n in range(301):
            if n:
                scaled = [x * (d - a) + y * a for x, y in zip(scaled + [0], [0] + scaled)]
            got = binomial_weights(n, q)
            assert abs(float(got.sum()) - 1.0) <= 1e-15, (n, q)
            for k, (w, exact) in enumerate(zip(got.tolist(), scaled)):
                if exact == 0:
                    assert w == 0.0, (n, q, k)
                elif exact.bit_length() > e * n - 1000:
                    shift = max(0, exact.bit_length() - 64)
                    want = math.ldexp(float(exact >> shift), shift - e * n)
                    assert abs(w - want) <= 1e-12 * want, (n, q, k)


def test_window_tables_match_full_support():
    # A window's masses equal the full-support masses at the same k.
    for n, q in [(300, 0.25), (5000, 0.6), (200_000, 0.05)]:
        lo, hi = binomial._window(n, q)
        assert np.array_equal(binomial.masses(n, q, lo, hi), binomial.masses(n, q, 0, n)[lo : hi + 1])


def test_no_transcendental_libm_call_reaches_a_table(monkeypatch):
    # Tables are built from +, -, *, / and sqrt alone, so their bits do not
    # depend on the platform's libm; so are the Chebyshev nodes and
    # coefficients of the two-group sum, which n = 300 reaches.  Memoised
    # tables are dropped first, so every table below is built under the patch.
    def refuse(*args):
        raise AssertionError("a binomial table called a transcendental function")

    u = uniform_block(43, np.arange(200), 2)
    spread = (u[:, 1] * 5000).astype(np.int64)
    binomial._small_table.cache_clear()
    structured._group_ratios.cache_clear()
    structured._cosines.cache_clear()
    for name in ("lgamma", "log", "log1p", "exp", "cos", "sin"):
        monkeypatch.setattr(math, name, refuse)
    for name in ("cos", "sin"):
        monkeypatch.setattr(np, name, refuse)
    for n in (300, 10**6, 10**8):
        assert binomial.ppf(u[:, 0], n, 0.3).max() <= n
        assert (binomial.ppf(u[:, 0], n - spread % n, 0.3) <= n).all()
    assert 0.0 < worst_case_expected_exact(WorstCasePopulation(300, 0.5, 0.3, 0.4, 0.05)) < 1.0


def test_window_rows_match_one_window_at_a_time():
    # Each row is its count's window of masses over the window's sum, 0 elsewhere,
    # and the rows line up on k; tiny and near-1 q build no inf or nan.
    for q in (0.3, 0.97, 1.1e-308, 1.0 - 2.0**-53, 0.0, 1.0):
        counts = np.array([0, 1, 7, 40, 41, 300, 5000])
        first, table = binomial.window_rows(counts, q)
        assert np.isfinite(table).all()
        for n, start, row in zip(counts.tolist(), first.tolist(), table):
            lo, hi = binomial._window(n, q)
            window = binomial.masses(n, q, lo, hi)
            assert start <= lo and hi - start < len(row)
            np.testing.assert_allclose(row[lo - start : hi - start + 1], window / window.sum(), rtol=1e-15, atol=0)
            assert not row[: lo - start].any() and not row[hi - start + 1 :].any()


def test_window_rows_refuse_a_table_past_the_cap():
    with pytest.raises(SizeLimitError, match="over the cap"):
        binomial.window_rows(np.arange(10**6, 10**6 + 2000), 0.5)


def test_few_draws_at_large_scalar_n_build_no_guide():
    # A guide holds several times its table's bytes; with fewer draws than
    # table entries the draws go through np.searchsorted, with the same answer.
    u = (np.arange(1000) + 0.5) / 1000
    tracemalloc.start()
    try:
        lo, cdf, guide = binomial._guided_table(10**11, 0.5)
        guided = tracemalloc.get_traced_memory()[1]
        want = lo + np.searchsorted(cdf, u, side="left")
        del cdf, guide
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        got = binomial.ppf(u, 10**11, 0.5)
        plain = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, want)
    assert plain < 0.8 * guided


def guide_candidates(cdf: np.ndarray) -> np.ndarray:
    """A table's own CDF values, their float neighbours, and the ends of (0, 1]."""
    u = np.concatenate([cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 2.0), [2.0**-54, 1.0]])
    return u[(u > 0.0) & (u <= 1.0)]


@settings(max_examples=60, deadline=None)
@given(
    ns=st.lists(
        st.one_of(st.integers(0, binomial._DIRECT_BELOW - 1), st.integers(binomial._DIRECT_BELOW, 10**7)),
        min_size=1,
        max_size=6,
    ),
    q=st.one_of(st.sampled_from([1e-6, 0.5, 1.0 - 1e-6]), st.floats(1e-9, 1.0 - 1e-9)),
    seed=st.integers(0, 2**32 - 1),
)
def test_guided_lookup_matches_searchsorted(ns, q, seed):
    # Alone: each table's guide, as a scalar-n call uses it.
    for n in ns:
        lo, cdf, guide = binomial._guided_table(n, q)
        u = np.concatenate([guide_candidates(cdf), uniform_block(seed, np.arange(64), 1)[:, 0]])
        got = binomial._lookup(cdf, guide, (u * (len(guide) - 2)).astype(np.int64), u)
        assert np.array_equal(got, np.searchsorted(cdf, u, side="left")), (n, q)
    # End to end: the direct regime's tables laid side by side, draws in mixed order.
    small = [n for n in ns if n < binomial._DIRECT_BELOW]
    if small:
        draws = []
        for n in small:
            lo, cdf = binomial._cdf_table(n, q)[:2]
            u = guide_candidates(cdf)
            draws.append((u, np.full(len(u), n), lo + np.searchsorted(cdf, u, side="left")))
        u, counts, want = (np.concatenate(part) for part in zip(*draws))
        order = np.random.default_rng(seed).permutation(len(u))
        assert np.array_equal(binomial._direct_ppf(u[order], counts[order], q), want[order]), (small, q)


def test_small_table_memo_stays_bounded():
    memo = binomial._small_table
    memo.cache_clear()
    n = np.arange(memo.cache_info().maxsize + 100)
    u = uniform_block(41, n, 1)[:, 0]
    for q in (0.3, 0.7):
        first = binomial.ppf(u, n, q)
        assert np.array_equal(binomial.ppf(u, n, q), first)  # evicted tables rebuild the same
    info = memo.cache_info()
    assert info.currsize == info.maxsize
    lo, cdf, guide = memo(100, 0.3)
    for table in (cdf, guide):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0
