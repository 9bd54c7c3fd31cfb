"""Seeded Monte Carlo estimation of the expected posterior.

Each sample draws from the child stream ``mix64(seed, sample_index)``,
so sample ``i`` is the same number no matter how the loop is chunked;
estimates are bit-reproducible for a fixed (seed, samples, mode).  The
posterior is computed exactly per sample, never approximated.

One sampling loop serves every mode.  It reads the queried user's own
endpoint flags; with the input seen the posterior is 1 (the output is
seen too) or the prior, whatever the population.  Only the unseen-input
"crowd" case depends on the population, and each mode supplies just
that.  A chunk's variates come from one :func:`uniform_block` call,
which fills them in row blocks of about 2**15 words.  The generic mode
reads each user's destination by one comparison per destination against
the cumulative rows.  A view is fixed by its crowd and its bare-output
multiset.  Where every crowd's table is small next to the samples (see
:func:`_reads_lattice`), the estimate builds all of them once, over the
subset lattice as the exact formula does, and each view reads its
posterior at its crowd's bit code and its counts' colex rank.  Otherwise a chunk's crowd samples
are reduced to distinct views (the packed (counts, crowd bits) rows,
padded to whole 8-byte words, sorted as uint64 keys), and all of them go
to the crowd-matching kernel together, each with its own multiset.
Either way a view's posterior has the same bits.  The structured modes
evaluate the closed-form cells of :mod:`onion_anon.structured` on
binomially sampled counts without materializing users.  Those counts
come from the package's own exact inverse CDF
(:func:`onion_anon.binomial.ppf`), so a seeded estimate depends on
nothing but this package and numpy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import binomial as binom
from .errors import ModelError, SizeLimitError
# ``posterior`` stays a module attribute: benchmarks/spans.py wraps it by name.
from .inference import (  # noqa: F401
    PosteriorQuery,
    _check_query,
    _queried_prior,
    crowd_posteriors,
    crowd_table,
    lattice_entries,
    posterior,
)
from .limits import SizeLimits, current_limits
from .model import Scenario, check_integer
from .seeding import MASK64, uniform_block
from .structured import (
    CommonPopulation,
    WorstCasePopulation,
    shared_distribution_cell,
    two_group_cell,
)

_CHUNK = 1 << 15
# Most samples an estimate takes: it holds every sample's posterior, 256 MiB at the cap.
SAMPLES = 1 << 25

# The generic sampler reads every crowd's posteriors off one table
# (:func:`onion_anon.inference.crowd_table`) where the table holds at most
# _LATTICE_PER_SAMPLE entries per sample and at most _LATTICE_ENTRIES in all.
_LATTICE_PER_SAMPLE = 6
_LATTICE_ENTRIES = 1 << 18


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


def _sampler(
    seed: int, b: float, width: int, flags: tuple[int, int], prior: float, crowd: Callable
) -> Callable:
    """The one sampling loop; a population supplies only its crowd case.

    Sample ``i`` reads ``width`` variates of stream ``i``.  The queried
    user's input and output are seen where the variates at ``flags`` fall
    below ``b``, unless ``force_u`` fixes both: a pair of booleans, each
    one for all rows or an array with one per row, so one call can draw
    several strata.  With the input seen the posterior is 1 (the output
    is linked too) or the prior; otherwise ``crowd(variates, u_out)``
    gives it on those rows alone, all of a chunk's rows in one call.
    """
    col_in, col_out = flags

    def draw(offset: int, count: int, force_u) -> np.ndarray:
        psi = np.empty(count, dtype=np.float64)
        for lo in range(0, count, _CHUNK):
            hi = min(count, lo + _CHUNK)
            variates = uniform_block(seed, np.arange(offset + lo, offset + hi, dtype=np.int64), width)
            if force_u is None:
                u_in, u_out = variates[:, col_in] < b, variates[:, col_out] < b
            else:
                u_in, u_out = (np.broadcast_to(flag, count)[lo:hi] for flag in force_u)
            block = np.where(u_out, 1.0, prior)
            rows = np.flatnonzero(~u_in)
            if len(rows):
                block[rows] = crowd(variates[rows], u_out[rows])
            psi[lo:hi] = block
        return psi

    return draw


def _reads_lattice(p: np.ndarray, samples: int) -> bool:
    """Whether an estimate of ``samples`` draws reads its posteriors off one :func:`crowd_table`.

    The table must be small next to the draws and within ``_LATTICE_ENTRIES``.
    """
    n, nd = p.shape
    cap = min(_LATTICE_ENTRIES, _LATTICE_PER_SAMPLE * samples)
    entries = lattice_entries(n, nd, cap)
    return entries is not None and entries <= cap


def _generic_sampler(scenario: Scenario, query: PosteriorQuery, seed: int, samples: int = 0) -> Callable:
    """The generic draws of an estimate of ``samples`` draws (see :func:`_reads_lattice`)."""
    n, nd, b = scenario.n, scenario.dest_count, scenario.b
    u, d = query.user, query.dest
    cumulative = np.cumsum(scenario.p, axis=1)
    prior = _queried_prior(scenario, query)
    table = crowd_table(scenario.p, query) if _reads_lattice(scenario.p, samples) else None

    def crowd(variates: np.ndarray, u_out: np.ndarray) -> np.ndarray:
        """Posteriors of sampled views in which the queried user's input is unseen.

        Such a view is fixed by its crowd (the users with unseen inputs,
        less the queried user) and its bare-output count vector.  Each
        view reads its posterior off the crowd table where there is one;
        otherwise the distinct views go to the crowd-matching kernel
        together, each with its own count vector.
        """
        m = len(variates)
        dest = _destinations(cumulative, variates[:, :n])
        dest[:, u] = d
        unseen = variates[:, n : 2 * n] >= b
        bare = unseen & (variates[:, 2 * n : 3 * n] < b)
        bare[:, u] = u_out
        counts = np.bincount((np.arange(m)[:, None] * nd + dest)[bare], minlength=m * nd)
        counts = counts.reshape(m, nd).astype(_small_int(n))
        unseen[:, u] = False
        if table is not None:
            return table.posteriors(unseen, counts)
        first, inverse = _distinct_rows(np.hstack([counts.view(np.uint8), np.packbits(unseen, axis=1)]))
        return crowd_posteriors(scenario.p, unseen[first], counts[first], query)[inverse]

    return _sampler(seed, b, 3 * n, (n + u, 2 * n + u), prior, crowd)


def _destinations(cumulative: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Each user's sampled destination: ``min(searchsorted(cumulative[v], x[:, v], "right"), nd - 1)``.

    A cumulative row is nondecreasing, so that is the number of its first
    nd - 1 entries at or below x, counted one destination at a time.
    """
    nd = cumulative.shape[1]
    dest = np.zeros(x.shape, dtype=_small_int(nd))
    for j in range(nd - 1):
        dest += cumulative[:, j] <= x
    return dest


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(first, inverse)`` over the distinct rows of a 2-D uint8 array.

    ``rows[first]`` holds each distinct row once, and ``rows[first][inverse]``
    equals ``rows``.  Each row, zero-padded to whole 8-byte words, is read
    as uint64 keys; one ``lexsort`` and a compare of neighbours split them.
    The distinct rows come out in key order, not byte order.
    """
    count, width = rows.shape
    words = np.zeros((count, -(-width // 8) * 8), dtype=np.uint8)
    words[:, :width] = rows
    keys = words.view(np.uint64)
    order = np.lexsort(keys.T)
    ordered = keys[order]
    starts = np.empty(count, dtype=bool)
    starts[:1] = True
    np.any(ordered[1:] != ordered[:-1], axis=1, out=starts[1:])
    inverse = np.empty(count, dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return order[starts], inverse


def _worst_case_sampler(pop: WorstCasePopulation, seed: int) -> Callable:
    b, p = pop.b, pop.queried_prior()

    def crowd(variates: np.ndarray, u_out: np.ndarray) -> np.ndarray:
        unobs_target = binom.ppf(variates[:, 2], pop.n_target, 1.0 - b)
        unobs_other = binom.ppf(variates[:, 3], pop.n_other, 1.0 - b)
        seen_other = binom.ppf(variates[:, 4], unobs_other, b)
        seen_target = binom.ppf(variates[:, 5], unobs_target, b) + u_out
        return two_group_cell(unobs_target, unobs_other, seen_other, seen_target, p, pop.p_least)

    return _sampler(seed, b, 6, (0, 1), p, crowd)


def _common_sampler(pop: CommonPopulation, seed: int) -> Callable:
    b, n = pop.b, pop.n
    p_d = pop.queried_prior()

    def crowd(variates: np.ndarray, u_out: np.ndarray) -> np.ndarray:
        unobserved = 1 + binom.ppf(variates[:, 2], n - 1, 1.0 - b)
        seen_other = binom.ppf(variates[:, 3], unobserved - 1, b)
        match_other = binom.ppf(variates[:, 4], seen_other, p_d)
        return shared_distribution_cell(unobserved, seen_other + u_out, match_other + u_out, p_d)

    return _sampler(seed, b, 5, (0, 1), p_d, crowd)


def _summary(psi: np.ndarray, seed: int) -> Estimate:
    """Mean and standard error of equally weighted samples."""
    samples = len(psi)
    if float(psi.min()) == float(psi.max()):
        return Estimate(float(psi[0]), 0.0, samples, seed)
    return Estimate(float(psi.mean()), float(psi.std(ddof=1)) / math.sqrt(samples), samples, seed)


def _stratified_estimate(draw: Callable, b: float, prior: float, samples: int, seed: int) -> Estimate:
    """Stratify over the queried user's endpoint cases.

    The two cases with an observed input contribute constants (1, or the
    queried ``prior``), so all samples go to the unobserved-input strata,
    split by whether the user's own output was seen.  One draw serves both: the input is unseen on every row and the
    output forced seen on the rows after the hidden stratum's, so each
    sample index and flag is that of a draw per stratum.
    """
    w_hidden = (1.0 - b) ** 2
    w_out_seen = (1.0 - b) * b
    constant = b * b * 1.0 + b * (1.0 - b) * prior
    if b == 1.0:
        return Estimate(1.0, 0.0, samples, seed)
    if b == 0.0:
        return _summary(draw(0, samples, (False, False)), seed)
    if samples < 4:
        raise ModelError("stratified estimation needs at least 4 samples")
    share = w_hidden / (w_hidden + w_out_seen)
    n_hidden = min(max(int(round(samples * share)), 2), samples - 2)
    n_seen = samples - n_hidden
    psi = draw(0, samples, (False, np.arange(samples) >= n_hidden))
    psi_hidden, psi_seen = psi[:n_hidden], psi[n_hidden:]
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
    stratify: bool = False,
    limits: SizeLimits | None = None,
) -> Estimate:
    """Estimate the expected posterior, conditioned on the queried choice.

    ``subject`` is a Scenario (generic mode, with ``query``), a
    WorstCasePopulation, or a CommonPopulation.  ``samples`` and ``seed``
    must be integers (ScenarioError otherwise).
    """
    samples = check_integer("samples", samples)
    if samples < 2:
        raise ModelError("need at least 2 samples")
    if samples > SAMPLES:
        raise SizeLimitError(f"{samples} samples exceed the cap of {SAMPLES}")
    seed = check_integer("seed", seed) & MASK64
    if mode == "generic":
        if not isinstance(subject, Scenario) or query is None:
            raise ModelError("generic mode needs a Scenario and a query")
        _check_query(subject, query)
        limits, n, nd = limits or current_limits(), subject.n, subject.dest_count
        if n > limits.mc_users or nd > limits.mc_dests:
            raise SizeLimitError(f"generic sampling limited to {limits.mc_users} users and {limits.mc_dests} "
                                 f"destinations (got {n}, {nd})")
        draw = _generic_sampler(subject, query, seed, samples)
    elif mode == "worst_case":
        if not isinstance(subject, WorstCasePopulation):
            raise ModelError("worst_case mode needs a WorstCasePopulation")
        draw = _worst_case_sampler(subject, seed)
    elif mode == "common":
        if not isinstance(subject, CommonPopulation):
            raise ModelError("common mode needs a CommonPopulation")
        draw = _common_sampler(subject, seed)
    else:
        raise ModelError(f"unknown mode {mode!r}")
    if stratify:
        prior = _queried_prior(subject, query) if mode == "generic" else subject.queried_prior()
        return _stratified_estimate(draw, subject.b, prior, samples, seed)
    return _summary(draw(0, samples, None), seed)
