"""Closed-form posteriors and exact expectations for structured populations.

Two populations admit closed forms.  In the worst-case population every
user other than the queried one deterministically visits either the
queried destination ("target" group) or the destination the queried
user is least likely to visit ("other" group); the posterior then
depends only on two ratios, one per group, and the expectation is a sum
over the two groups' independent ratio distributions.  In the common
population all users share one destination distribution; the posterior
depends only on how many inputs went unobserved and how many bare
outputs match, and the expectation has a closed form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import fsum

import numpy as np

from .binomial import binomial_weights
from .errors import ConditioningError, DegenerateCellError, ScenarioError
from .limits import SizeLimits, current_limits
from .model import STOCHASTIC_TOL, check_distribution, check_integer, check_unit

# With truncation, each group's table drops at most this much probability.
_TRUNCATION_MASS = 2.5e-13
# Products the two-group kernel holds at once: 512 KiB of float64.
_KERNEL_PRODUCTS = 1 << 16


def check_two_group(b: float, p_target: float, p_least: float) -> tuple[float, float, float]:
    """The two-group parameters as floats: each in [0, 1], the priors summing to at most 1."""
    b = check_unit("b", b)
    p_target, p_least = check_unit("p_target", p_target), check_unit("p_least", p_least)
    if p_target + p_least > 1.0 + STOCHASTIC_TOL:
        raise ScenarioError("p_target + p_least exceeds 1")
    return b, p_target, p_least


@dataclass(frozen=True)
class WorstCasePopulation:
    """Population where the other users split between two fixed choices.

    ``alpha`` is the fraction of the other users who always visit the
    queried (target) destination; the rest always visit the destination
    the queried user likes least.  ``p_target`` and ``p_least`` are the
    queried user's priors on those two destinations.
    """

    n: int
    alpha: float
    b: float
    p_target: float
    p_least: float

    def __post_init__(self):
        if not 1 <= check_integer("n", self.n) < 1 << 63:
            raise ScenarioError("population needs at least one user and fewer than 2**63")
        check_unit("alpha", self.alpha)
        check_two_group(self.b, self.p_target, self.p_least)

    @property
    def n_target(self) -> int:
        """How many other users visit the target: alpha (n - 1), halves rounded up,
        with alpha read as its shortest decimal (0.7 * 45 is 31.5, not 31.499999999999996)."""
        return math.floor(Fraction(repr(float(self.alpha))) * (self.n - 1) + Fraction(1, 2))

    @property
    def n_other(self) -> int:
        return (self.n - 1) - self.n_target

    def queried_prior(self) -> float:
        """``p_target``; :class:`ConditioningError` when it is 0."""
        if self.p_target <= 0.0:
            raise ConditioningError("p_target must be positive to condition on the target choice")
        return self.p_target


@dataclass(frozen=True)
class CommonPopulation:
    """Population where every user draws from the same distribution."""

    n: int
    b: float
    p: tuple[float, ...]
    dest: int

    def __post_init__(self):
        if not 1 <= check_integer("n", self.n) < 1 << 63:
            raise ScenarioError("population needs at least one user and fewer than 2**63")
        check_unit("b", self.b)
        check_distribution(self.p, "shared distribution")
        if not 0 <= check_integer("dest", self.dest) < len(self.p):
            raise ScenarioError(f"destination {self.dest} out of range")

    def queried_prior(self) -> float:
        """The shared prior on ``dest``; :class:`ConditioningError` when it is 0."""
        prior = float(self.p[self.dest])
        if prior <= 0.0:
            raise ConditioningError("the shared prior never visits the queried destination")
        return prior


def two_group_cell(n_target, n_other, seen_other, seen_target, p_target, p_least):
    """Unchecked, elementwise :func:`two_group_posterior` on scalars or arrays."""
    spare_target = n_target - seen_target + 1
    spare_other = n_other - seen_other + 1
    numerator = p_target * (n_target + 1) * spare_other
    denominator = (
        p_target * seen_target * spare_other
        + p_least * seen_other * spare_target
        + spare_target * spare_other
    )
    return numerator / denominator


def two_group_posterior(
    n_target: int,
    n_other: int,
    seen_other: int,
    seen_target: int,
    p_target: float,
    p_least: float,
) -> float:
    """Posterior for the two-group population from the four visible counts.

    ``n_target``/``n_other`` count the two groups' members with unseen
    inputs; ``seen_target``/``seen_other`` count how many bare outputs
    landed on each destination.  ``seen_target`` may exceed ``n_target``
    by one when the caller folds in the queried user's own observed
    output.
    """
    if not 0 <= seen_other <= n_other:
        raise ValueError("seen_other must lie in [0, n_other]")
    if not 0 <= seen_target <= n_target + 1:
        raise ValueError("seen_target must lie in [0, n_target + 1]")
    if p_target == 0.0 and seen_target == n_target + 1:
        raise DegenerateCellError(
            "two-group posterior cell is 0/0 (every output pinned on a zero prior)"
        )
    return two_group_cell(n_target, n_other, seen_other, seen_target, p_target, p_least)


def shared_distribution_cell(unobserved, seen, seen_target, p_target):
    """Unchecked, elementwise :func:`shared_distribution_posterior`."""
    return (seen_target + p_target * (unobserved - seen)) / unobserved


def shared_distribution_posterior(
    unobserved: int, seen: int, seen_target: int, p_target: float
) -> float:
    """Posterior for the common population.

    ``unobserved`` users have unseen inputs, ``seen`` of their outputs
    were observed, and ``seen_target`` of those landed on the queried
    destination.
    """
    if unobserved < 1:
        raise ValueError("need at least one user with an unobserved input")
    if not 0 <= seen <= unobserved:
        raise ValueError("seen must lie in [0, unobserved]")
    if not 0 <= seen_target <= seen:
        raise ValueError("seen_target must lie in [0, seen]")
    return shared_distribution_cell(unobserved, seen, seen_target, p_target)


@lru_cache(maxsize=32)
def _group_ratios(members: int, b: float, own_output: bool) -> tuple[np.ndarray, np.ndarray, float]:
    """One group's distinct ratios seen / spare with their masses, and the mass where spare is 0.

    Of the group's ``members`` users, U ~ Binomial(members, 1 - b) have
    unseen inputs and S ~ Binomial(U, b) of their outputs are seen; with
    ``own_output`` the queried user's output joins S with probability b.
    The ratio is S / (U - S + 1), infinite only where S = U + 1, whose
    mass is returned apart.  Equal ratios are merged on their float
    quotient: two distinct fractions with denominators below N differ by
    at least 1/N^2, so they stay distinct while N^3 < 2^53.
    """
    ratios, weights = [], []
    spare_zero = 0.0
    for unseen, weight in enumerate(binomial_weights(members, 1.0 - b)):
        if weight == 0.0:
            continue
        mass = weight * binomial_weights(unseen, b)
        if own_output:
            spare_zero += b * mass[-1]
            mass = np.concatenate(((1.0 - b) * mass[:1], (1.0 - b) * mass[1:] + b * mass[:-1]))
        seen = np.arange(unseen + 1, dtype=np.float64)
        ratios.append(seen / (unseen + 1.0 - seen))
        weights.append(mass)
    ratio, mass = np.concatenate(ratios), np.concatenate(weights)
    nonzero = mass > 0.0
    values, where = np.unique(ratio[nonzero], return_inverse=True)
    merged = np.bincount(where, weights=mass[nonzero])
    values.setflags(write=False)
    merged.setflags(write=False)
    return values, merged, spare_zero


# benchmarks/worker.py reads this name's cache_info(); ROADMAP direction 1 removes that dependency.
_seen_counts_mean = _group_ratios


def _truncated(values: np.ndarray, mass: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drop the least-likely ratios while their total mass stays at most ``_TRUNCATION_MASS``."""
    order = np.argsort(mass, kind="stable")
    dropped = int(np.searchsorted(np.cumsum(mass[order]), _TRUNCATION_MASS, side="right"))
    keep = np.sort(order[dropped:])
    return values[keep], mass[keep]


def _two_group_mean(x, px, r, pr, p: float, q: float) -> float:
    """``sum_x P(x) p (1 + x) S(1 + p x)`` with ``S(A) = sum_r P(r) / (A + q r)``, x and r finite.

    The x rows go through one reused buffer of at most ``_KERNEL_PRODUCTS``
    products (one row when r alone is longer); freeing a fresh temporary
    per block costs several times the arithmetic.
    """
    rows = max(1, _KERNEL_PRODUCTS // len(r))
    buf = np.empty((min(rows, len(x)), len(r)))
    base = 1.0 + q * r
    outer = p * px * (1.0 + x)
    totals = []
    for start in range(0, len(x), rows):
        stop = min(start + rows, len(x))
        block = buf[: stop - start]
        np.add(base, p * x[start:stop, None], out=block)
        np.reciprocal(block, out=block)
        totals.append(float(outer[start:stop] @ (block @ pr)))
    return fsum(totals)


def worst_case_expected_exact(
    pop: WorstCasePopulation,
    truncate: bool = False,
    limits: SizeLimits | None = None,
) -> float:
    """Exact expected posterior for the two-group population.

    With the queried input seen (probability b) the posterior averages
    to ``b + (1 - b) p``; otherwise it is :func:`two_group_cell` over the
    two groups' counts.  Divided through by ``spare_target * spare_other``
    that cell is ``f = p (1 + x) / (1 + p x + q r)``, with
    ``x = seen_target / spare_target`` and ``r = seen_other / spare_other``,
    and ``f = 1`` where ``spare_target = 0``.  The groups are independent,
    so ``E[f] = P(x = inf) + sum_x P(x) p (1 + x) S(1 + p x)`` with
    ``S(A) = sum_r P(r) / (A + q r)`` over each group's distinct ratios.

    ``truncate=True`` drops each group's least-likely ratios while their
    total mass stays at most 2.5e-13; since ``0 <= f <= 1`` the result
    then moves by at most ``(1 - b) * 5e-13`` from the full sum.
    """
    (limits or current_limits()).check("structured", "structured sums", pop.n)
    b = pop.b
    p, q = pop.queried_prior(), pop.p_least
    lead = b * (1.0 - b) * p + b * b
    if b == 1.0:
        return lead
    x, px, spare_zero = _group_ratios(pop.n_target, b, True)
    r, pr, _ = _group_ratios(pop.n_other, b, False)
    if truncate:
        x, px = _truncated(x, px)
        r, pr = _truncated(r, pr)
    return lead + (1.0 - b) * fsum((spare_zero, _two_group_mean(x, px, r, pr, p, q)))


def common_expected_exact(pop: CommonPopulation) -> float:
    """Exact expected posterior for the common-distribution population, O(1) at any n.

    Given the queried input unseen, U - 1 ~ Binomial(n - 1, 1 - b) other inputs are unseen
    and the posterior averages to p + b (1 - p) / U; E[1 / U] = (1 - b^n) / (n (1 - b)).
    """
    b = pop.b
    p_d = pop.queried_prior()
    return b * b + (1.0 - b * b) * p_d + b * (1.0 - p_d) * (1.0 - b**pop.n) / pop.n
