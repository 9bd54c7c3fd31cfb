"""Closed-form posteriors and exact expectations for structured populations.

Two populations admit closed forms.  In the worst-case population every
user other than the queried one deterministically visits either the
queried destination ("target" group) or the destination the queried
user is least likely to visit ("other" group); the posterior then
depends only on four counts and the expectation is a quadruple binomial
sum over them.  In the common population all users share one
destination distribution; the posterior depends only on how many inputs
went unobserved and how many bare outputs match, and the expectation
has a closed form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from math import fsum

import numpy as np

from .binomial import masses
from .errors import ConditioningError, DegenerateCellError, ScenarioError
from .limits import SizeLimits, current_limits
from .model import STOCHASTIC_TOL, check_distribution, check_integer, check_unit

_TRUNCATION_MASS = 1e-12


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
        """How many other users visit the target: alpha (n - 1), halves rounded up."""
        return int(math.floor(self.alpha * (self.n - 1) + 0.5))

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


def binomial_weights(n: int, q: float) -> np.ndarray:
    """Probability masses of Binomial(n, q) as a length n+1 vector.

    The full-support case of :func:`onion_anon.binomial.masses`, the
    kernel that the Monte Carlo inverse-CDF tables also use.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q out of range: {q!r}")
    return masses(n, q, 0, n)


@lru_cache(maxsize=4096)
def _cached_weights(n: int, q: float) -> np.ndarray:
    w = binomial_weights(n, q)
    w.setflags(write=False)
    return w


@lru_cache(maxsize=2_000_000)
def _seen_counts_mean(
    unobs_target: int, unobs_other: int, b: float, p_target: float, p_least: float
) -> float:
    """Inner double sum: average the posterior over the observed-output counts.

    For fixed group sizes with unseen inputs, the bare-output counts on
    each destination are binomial, and the queried user's own output is
    observed with probability b (adding one to the target count).
    """
    w_other = _cached_weights(unobs_other, b)  # index: seen_other
    w_target = _cached_weights(unobs_target, b)  # index: seen_target
    seen_t = np.arange(unobs_target + 2, dtype=np.float64)  # includes the +1 slot
    seen_o = np.arange(unobs_other + 1, dtype=np.float64)[:, None]
    # (unobs_other + 1, unobs_target + 2)
    grid = two_group_cell(unobs_target, unobs_other, seen_o, seen_t, p_target, p_least)
    mixed = b * grid[:, 1:] + (1.0 - b) * grid[:, :-1]
    return float(w_other @ mixed @ w_target)


def _support_window(weights: np.ndarray, tail_mass: float) -> tuple[int, int]:
    """Smallest index window whose complement carries at most ``tail_mass``."""
    sums = np.cumsum(weights)
    lo = int(np.searchsorted(sums, tail_mass / 2.0))
    hi_from_end = np.cumsum(weights[::-1])
    hi = len(weights) - 1 - int(np.searchsorted(hi_from_end, tail_mass / 2.0))
    return lo, max(hi, lo)


def worst_case_expected_exact(
    pop: WorstCasePopulation,
    truncate: bool = False,
    limits: SizeLimits | None = None,
) -> float:
    """Exact expected posterior for the two-group population.

    Sums the two-group posterior over the binomially distributed counts
    of unseen inputs and observed outputs in each group.  By default the
    full support is iterated; ``truncate=True`` drops outer tail cells
    carrying at most 1e-12 of total probability.
    """
    (limits or current_limits()).check("structured", "structured sums", pop.n)
    b = pop.b
    p, q = pop.queried_prior(), pop.p_least
    lead = b * (1.0 - b) * p + b * b
    if b == 1.0:
        return lead
    w_t = _cached_weights(pop.n_target, 1.0 - b)  # unseen inputs in the target group
    w_o = _cached_weights(pop.n_other, 1.0 - b)
    t_lo, t_hi = (0, pop.n_target)
    o_lo, o_hi = (0, pop.n_other)
    if truncate:
        t_lo, t_hi = _support_window(w_t, _TRUNCATION_MASS / 2.0)
        o_lo, o_hi = _support_window(w_o, _TRUNCATION_MASS / 2.0)
    terms: list[float] = []
    for unobs_target in range(t_lo, t_hi + 1):
        wt = w_t[unobs_target]
        if wt == 0.0:
            continue
        for unobs_other in range(o_lo, o_hi + 1):
            wo = w_o[unobs_other]
            if wo == 0.0:
                continue
            terms.append(wt * wo * _seen_counts_mean(unobs_target, unobs_other, b, p, q))
    return lead + (1.0 - b) * fsum(terms)


def common_expected_exact(pop: CommonPopulation) -> float:
    """Exact expected posterior for the common-distribution population, O(1) at any n.

    Given the queried input unseen, U - 1 ~ Binomial(n - 1, 1 - b) other inputs are unseen
    and the posterior averages to p + b (1 - p) / U; E[1 / U] = (1 - b^n) / (n (1 - b)).
    """
    b = pop.b
    p_d = pop.queried_prior()
    return b * b + (1.0 - b * b) * p_d + b * (1.0 - p_d) * (1.0 - b**pop.n) / pop.n
