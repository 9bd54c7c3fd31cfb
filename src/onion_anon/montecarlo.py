"""Seeded Monte Carlo estimation of the expected posterior.

Each sample draws from the child stream ``mix64(seed, sample_index)``,
so sample ``i`` is the same number no matter how the loop is chunked or
scheduled; estimates are bit-reproducible for a fixed (seed, samples,
mode) regardless of the requested thread count.  The posterior is
computed exactly per sample, never approximated.  The generic mode
settles samples where the queried user's input is seen in one
vectorised step (the posterior is then 1 or the prior).  The rest are
reduced to distinct views, each fixed by its crowd and its bare-output
multiset; views with the same multiset share one batched call of the
crowd-matching kernel.  The structured modes evaluate their closed
forms on binomially sampled counts without materializing users.  Those
counts come from the package's own exact inverse CDF
(:func:`onion_anon.binomial.ppf`), so a seeded estimate depends on
nothing but this package and numpy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import binomial as binom
from .errors import ConditioningError, ModelError, SizeLimitError
# ``posterior`` stays a module attribute: benchmarks/spans.py wraps it by name.
from .inference import PosteriorQuery, crowd_posteriors, posterior  # noqa: F401
from .limits import SizeLimits, current_limits
from .model import Scenario
from .seeding import MASK64, uniform_block
from .structured import CommonPopulation, WorstCasePopulation

_CHUNK = 1 << 15


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo mean with its standard error and provenance."""

    mean: float
    std_error: float
    samples: int
    seed: int


def _small_int(largest: int) -> np.dtype:
    """The narrowest signed integer type holding 0..largest."""
    for dtype in (np.int8, np.int16, np.int32):
        if largest <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.int64)


def _generic_sampler(scenario: Scenario, query: PosteriorQuery, seed: int) -> Callable:
    n, nd, b = scenario.n, scenario.dest_count, scenario.b
    u, d = query.user, query.dest
    p_ud = float(scenario.p[u, d])
    cumulative = np.cumsum(scenario.p, axis=1)

    def draw(offset: int, count: int, force_u) -> np.ndarray:
        psi = np.empty(count, dtype=np.float64)
        for lo in range(0, count, _CHUNK):
            hi = min(count, lo + _CHUNK)
            indices = np.arange(offset + lo, offset + hi, dtype=np.int64)
            variates = uniform_block(seed, indices, 3 * n)
            m = hi - lo
            dest = np.empty((m, n), dtype=_small_int(nd))
            for v in range(n):
                dest[:, v] = np.minimum(
                    np.searchsorted(cumulative[v], variates[:, v], side="right"), nd - 1
                )
            dest[:, u] = d
            seen_in = variates[:, n : 2 * n] < b
            seen_out = variates[:, 2 * n : 3 * n] < b
            if force_u is not None:
                seen_in[:, u] = force_u[0]
                seen_out[:, u] = force_u[1]
            # With u's input seen the posterior is 1 (linked, and u is
            # pinned to d) or the prior; otherwise u hides in the crowd.
            block = np.where(seen_out[:, u], 1.0, p_ud)
            rows = np.flatnonzero(~seen_in[:, u])
            if len(rows):
                block[rows] = _crowd_values(scenario.p, query, seen_in[rows], seen_out[rows], dest[rows])
            psi[lo:hi] = block
        return psi

    return draw


def _crowd_values(p, query: PosteriorQuery, seen_in, seen_out, dest) -> np.ndarray:
    """Posteriors of sampled views in which the queried user's input is unseen.

    Such a view is fixed by its crowd (the users with unseen inputs,
    less the queried user) and its bare-output count vector.  Distinct
    views are grouped by count vector, and each group is one batched
    kernel call.
    """
    m, n = seen_in.shape
    nd = p.shape[1]
    crowd = ~seen_in
    bare = crowd & seen_out
    counts = np.bincount((np.arange(m)[:, None] * nd + dest)[bare], minlength=m * nd)
    counts = counts.reshape(m, nd).astype(_small_int(n))
    crowd[:, query.user] = False
    packed = np.hstack([np.packbits(crowd, axis=1), counts.view(np.uint8)])
    _, first, inverse = np.unique(_row_keys(packed), return_index=True, return_inverse=True)
    crowd, counts = crowd[first], counts[first]
    _, group_first, group = np.unique(_row_keys(counts), return_index=True, return_inverse=True)
    values = np.empty(len(first))
    for g, row in enumerate(group_first.tolist()):
        members = np.flatnonzero(group == g)
        values[members] = crowd_posteriors(p, crowd[members], counts[row].tolist(), query)
    return values[inverse]


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One opaque, sortable key per row, for ``np.unique`` over rows."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel()


def _worst_case_sampler(pop: WorstCasePopulation, seed: int) -> Callable:
    b, p, q = pop.b, pop.p_target, pop.p_least
    n_target, n_other = pop.n_target, pop.n_other

    def draw(offset: int, count: int, force_u) -> np.ndarray:
        psi = np.empty(count, dtype=np.float64)
        for lo in range(0, count, _CHUNK):
            hi = min(count, lo + _CHUNK)
            indices = np.arange(offset + lo, offset + hi, dtype=np.int64)
            variates = uniform_block(seed, indices, 6)
            unobs_target = binom.ppf(variates[:, 2], n_target, 1.0 - b)
            unobs_other = binom.ppf(variates[:, 3], n_other, 1.0 - b)
            seen_other = binom.ppf(variates[:, 4], unobs_other, b)
            seen_target = binom.ppf(variates[:, 5], unobs_target, b)
            if force_u is None:
                u_in = variates[:, 0] < b
                u_out = variates[:, 1] < b
            else:
                u_in = np.full(hi - lo, force_u[0])
                u_out = np.full(hi - lo, force_u[1])
            k_eff = seen_target + u_out
            spare_target = unobs_target - k_eff + 1
            spare_other = unobs_other - seen_other + 1
            numerator = p * (unobs_target + 1) * spare_other
            denominator = (
                p * k_eff * spare_other
                + q * seen_other * spare_target
                + spare_target * spare_other
            )
            cell = numerator / denominator
            psi[lo:hi] = np.where(u_in & u_out, 1.0, np.where(u_in, p, cell))
        return psi

    return draw


def _common_sampler(pop: CommonPopulation, seed: int) -> Callable:
    b = pop.b
    p_d = float(pop.p[pop.dest])
    n = pop.n

    def draw(offset: int, count: int, force_u) -> np.ndarray:
        psi = np.empty(count, dtype=np.float64)
        for lo in range(0, count, _CHUNK):
            hi = min(count, lo + _CHUNK)
            indices = np.arange(offset + lo, offset + hi, dtype=np.int64)
            variates = uniform_block(seed, indices, 5)
            unobserved = 1 + binom.ppf(variates[:, 2], n - 1, 1.0 - b)
            seen_other = binom.ppf(variates[:, 3], unobserved - 1, b)
            match_other = binom.ppf(variates[:, 4], seen_other, p_d)
            if force_u is None:
                u_in = variates[:, 0] < b
                u_out = variates[:, 1] < b
            else:
                u_in = np.full(hi - lo, force_u[0])
                u_out = np.full(hi - lo, force_u[1])
            seen = seen_other + u_out
            matched = match_other + u_out
            cell = (matched + p_d * (unobserved - seen)) / unobserved
            psi[lo:hi] = np.where(u_in & u_out, 1.0, np.where(u_in, p_d, cell))
        return psi

    return draw


def _plain_estimate(draw: Callable, samples: int, seed: int) -> Estimate:
    psi = draw(0, samples, None)
    if float(psi.min()) == float(psi.max()):
        return Estimate(float(psi[0]), 0.0, samples, seed)
    mean = float(psi.mean())
    spread = float(psi.std(ddof=1))
    return Estimate(mean, spread / math.sqrt(samples), samples, seed)


def _stratified_estimate(
    draw: Callable, base_prob: float, b: float, samples: int, seed: int
) -> Estimate:
    """Stratify over the queried user's endpoint cases.

    The two cases with an observed input contribute constants (1, or the
    prior), so all samples go to the unobserved-input strata, split by
    whether the user's own output was seen.
    """
    w_hidden = (1.0 - b) ** 2
    w_out_seen = (1.0 - b) * b
    constant = b * b * 1.0 + b * (1.0 - b) * base_prob
    if b == 1.0:
        return Estimate(1.0, 0.0, samples, seed)
    if b == 0.0:
        psi = draw(0, samples, (False, False))
        if float(psi.min()) == float(psi.max()):
            return Estimate(float(psi[0]), 0.0, samples, seed)
        mean = float(psi.mean())
        return Estimate(mean, float(psi.std(ddof=1)) / math.sqrt(samples), samples, seed)
    if samples < 4:
        raise ModelError("stratified estimation needs at least 4 samples")
    share = w_hidden / (w_hidden + w_out_seen)
    n_hidden = min(max(int(round(samples * share)), 2), samples - 2)
    n_seen = samples - n_hidden
    psi_hidden = draw(0, n_hidden, (False, False))
    psi_seen = draw(n_hidden, n_seen, (False, True))
    mean = constant + w_hidden * float(psi_hidden.mean()) + w_out_seen * float(psi_seen.mean())
    variance = (
        w_hidden**2 * float(psi_hidden.var(ddof=1)) / n_hidden
        + w_out_seen**2 * float(psi_seen.var(ddof=1)) / n_seen
    )
    return Estimate(mean, math.sqrt(variance), samples, seed)


def estimate_expected_posterior(
    subject,
    query: PosteriorQuery | None,
    samples: int,
    seed: int,
    mode: str = "generic",
    threads: int = 1,
    stratify: bool = False,
    limits: SizeLimits | None = None,
) -> Estimate:
    """Estimate the expected posterior, conditioned on the queried choice.

    ``subject`` is a Scenario (generic mode, with ``query``), a
    WorstCasePopulation, or a CommonPopulation.  ``threads`` is accepted
    for interface parity and validated, but results never depend on it.
    """
    limits = limits or current_limits()
    if samples < 2:
        raise ModelError("need at least 2 samples")
    if threads < 1:
        raise ModelError("threads must be positive")
    seed = int(seed) & MASK64
    if mode == "generic":
        if not isinstance(subject, Scenario) or query is None:
            raise ModelError("generic mode needs a Scenario and a query")
        if subject.n > limits.mc_users or subject.dest_count > limits.mc_dests:
            raise SizeLimitError(
                f"generic sampling limited to {limits.mc_users} users and "
                f"{limits.mc_dests} destinations"
            )
        p_ud = float(subject.p[query.user, query.dest])
        if p_ud <= 0.0:
            raise ConditioningError(
                f"user {query.user} never visits destination {query.dest}"
            )
        draw = _generic_sampler(subject, query, seed)
        base_prob, b = p_ud, subject.b
    elif mode == "worst_case":
        if not isinstance(subject, WorstCasePopulation):
            raise ModelError("worst_case mode needs a WorstCasePopulation")
        if subject.p_target <= 0.0:
            raise ConditioningError("p_target must be positive")
        draw = _worst_case_sampler(subject, seed)
        base_prob, b = subject.p_target, subject.b
    elif mode == "common":
        if not isinstance(subject, CommonPopulation):
            raise ModelError("common mode needs a CommonPopulation")
        p_d = float(subject.p[subject.dest])
        if p_d <= 0.0:
            raise ConditioningError("the shared prior never visits the queried destination")
        draw = _common_sampler(subject, seed)
        base_prob, b = p_d, subject.b
    else:
        raise ModelError(f"unknown mode {mode!r}")
    if stratify:
        return _stratified_estimate(draw, base_prob, b, samples, seed)
    return _plain_estimate(draw, samples, seed)
