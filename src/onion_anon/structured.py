"""Closed-form posteriors and exact expectations for structured populations.

Two populations admit closed forms.  In the worst-case population every
user other than the queried one deterministically visits either the
queried destination ("target" group) or the destination the queried
user is least likely to visit ("other" group); the posterior then
depends only on two ratios, one per group, and the expectation is a sum
over the two groups' independent ratio distributions.  Each group's
table holds O(n) cells, and the sum over the other group is a smooth
function of the target ratio, fitted once by a Chebyshev series, so the
expectation costs O(n) per population rather than O(n^4).  In the common
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

from .binomial import binomial_weights, window_rows  # noqa: F401 (binomial_weights is re-exported)
from .errors import ConditioningError, DegenerateCellError, ScenarioError
from .model import STOCHASTIC_TOL, check_distribution, check_integer, check_unit

# With truncation, each group's table drops at most this much probability.
_TRUNCATION_MASS = 2.5e-13
# Products the two-group kernel holds at once: 512 KiB of float64.
_KERNEL_PRODUCTS = 1 << 16
# Up to one kernel block of x-by-r products, the two-group sum evaluates S at every x.
_DIRECT_PRODUCTS = _KERNEL_PRODUCTS
# The Chebyshev fit of S tries degrees 2**_FIRST_FIT_BITS .. 2**_FIT_BITS and stops once
# the root mean square of its upper half of coefficients is at most _FIT_TAIL of the first,
# a few times the rounding of the node values, which no degree brings lower.
_FIRST_FIT_BITS = 4
_FIT_BITS = 9
_FIT_TAIL = 2.0**-50


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


# A group's table holds up to about 60 MiB at the grid cap; the cache keeps one sum's two.
@lru_cache(maxsize=2)
def _group_ratios(members: int, b: float, own_output: bool) -> tuple[np.ndarray, np.ndarray, float]:
    """One group's ratios seen / spare with their masses, and the mass where spare is 0.

    Of the group's ``members`` users, U ~ Binomial(members, 1 - b) have
    unseen inputs and S ~ Binomial(U, b) of their outputs are seen; with
    ``own_output`` the queried user's output joins S with probability b.
    The ratio is S / (U - S + 1), infinite only where S = U + 1, whose
    mass is returned apart.  The (U, S) grid is built in one pass over
    :func:`binomial.window_rows`: U over its window, S over each U's,
    each leaving out at most exp(-50) per tail, so the table grows about
    as ``members``, not its square; a grid past ``WINDOW_ENTRIES`` cells
    is refused before it is built.  Equal ratios from different cells
    stay separate entries; no evaluator needs them merged.
    """
    first, weight = window_rows(np.array([members]), 1.0 - b)
    unseen = first[0] + np.arange(weight.shape[1])
    first, mass = window_rows(unseen, b)
    mass *= weight.T
    if own_output:
        # The own output is seen with probability b, moving each cell's mass one column right.
        mass = np.concatenate((mass, np.zeros((len(mass), 1))), axis=1)
        mass[:, 1:] = (1.0 - b) * mass[:, 1:] + b * mass[:, :-1]
        mass[:, 0] *= 1.0 - b
    seen = first[:, None] + np.arange(mass.shape[1])
    spare = unseen[:, None] + 1 - seen
    finite = (mass > 0.0) & (spare > 0)
    spare_zero = float(mass[spare == 0].sum())
    values, weights = seen[finite] / spare[finite], mass[finite]
    values.setflags(write=False)
    weights.setflags(write=False)
    return values, weights, spare_zero


# benchmarks/worker.py reads this name's cache_info(); ROADMAP direction 1 removes that dependency.
_seen_counts_mean = _group_ratios


def _truncated(values: np.ndarray, mass: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drop the least-likely ratios while their total mass stays at most ``_TRUNCATION_MASS``."""
    order = np.argsort(mass, kind="stable")
    dropped = int(np.searchsorted(np.cumsum(mass[order]), _TRUNCATION_MASS, side="right"))
    keep = np.sort(order[dropped:])
    return values[keep], mass[keep]


def _g_values(s: np.ndarray, r: np.ndarray, pr: np.ndarray, q: float) -> np.ndarray:
    """``G(s_i) = sum_r P(r) / (1 + q r s_i)`` for each ``s_i``, each row summed pairwise.

    The rows go through one reused buffer of at most ``_KERNEL_PRODUCTS``
    products (one row when r alone is longer); freeing a fresh temporary
    per block costs several times the arithmetic.
    """
    rows = max(1, _KERNEL_PRODUCTS // len(r))
    buf = np.empty((min(rows, len(s)), len(r)))
    out = np.empty(len(s))
    qs = q * s
    for start in range(0, len(s), rows):
        block = buf[: min(rows, len(s) - start)]
        np.multiply(qs[start : start + len(block), None], r, out=block)
        block += 1.0
        np.divide(pr, block, out=block)
        block.sum(axis=1, out=out[start : start + len(block)])
    return out


@lru_cache(maxsize=None)
def _cosines(bits: int) -> np.ndarray:
    """``cos(l pi / 2**bits)`` for l = 0 .. 2**bits, from +, -, *, / and sqrt alone.

    Each odd multiple ``a`` of pi / 2**m yields a / 2 and pi - a / 2 by the
    half-angle formulas, taking for cos(a / 2) and sin(a / 2) whichever of
    ``sqrt((1 +- cos a) / 2)`` has no cancellation and the other as
    ``sin a / (2 x)``; every entry is then within a few units of 2**-53.
    """
    size = 1 << bits
    table = np.empty(size + 1)
    table[0], table[-1] = 1.0, -1.0
    at, cos, sin = np.array([size // 2]), np.zeros(1), np.ones(1)
    table[at] = cos
    for _ in range(bits - 1):
        root = np.sqrt((1.0 + np.abs(cos)) / 2.0)
        half_cos = np.where(cos >= 0.0, root, sin / (2.0 * root))
        half_sin = np.where(cos >= 0.0, sin / (2.0 * root), root)
        at = np.concatenate((at // 2, size - at // 2))
        cos, sin = np.concatenate((half_cos, -half_cos)), np.concatenate((half_sin, half_sin))
        table[at] = cos
    table.setflags(write=False)
    return table


def _clenshaw(coef: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``sum_k coef[k] T_k(t)`` elementwise, by Clenshaw's recurrence."""
    b1, b2 = np.zeros_like(t), np.zeros_like(t)
    twice = 2.0 * t
    for c in coef[:0:-1]:
        b1, b2 = twice * b1 - b2 + c, b1
    return t * b1 - b2 + coef[0]


def _chebyshev_fit(low: float, r: np.ndarray, pr: np.ndarray, q: float) -> np.ndarray | None:
    """Chebyshev coefficients of ``G(s) = sum_r P(r) / (1 + q r s)`` over s in [low, 1], in
    ``t = (2 s - 1 - low) / (1 - low)``; None if no degree up to 2**_FIT_BITS resolves it.

    G interpolates at the 2**m + 1 points ``cos(j pi / 2**m)``.  Its poles
    lie at s = -1 / (q r) < 0, off the interval, so its coefficients decay
    geometrically.  The degree doubles from 2**_FIRST_FIT_BITS, reusing
    every node value, until the upper half of the coefficients is down to
    ``_FIT_TAIL`` of the first; the terms past the degree are then far
    smaller still.  Nodes and coefficients take +, -, *, / and sqrt alone
    (:func:`_cosines`), so their bits do not depend on the platform's libm.
    """
    values = None
    for bits in range(_FIRST_FIT_BITS, _FIT_BITS + 1):
        size = 1 << bits
        cos = _cosines(bits)
        grown = np.empty(size + 1)
        fresh = slice(None) if values is None else slice(1, None, 2)
        if values is not None:
            grown[::2] = values
        grown[fresh] = _g_values(((1.0 + low) + (1.0 - low) * cos[fresh]) / 2.0, r, pr, q)
        values = grown
        # DCT-I: c_k = (2 / N) sum''_j f_j cos(k j pi / N), the end terms halved.
        turn = np.outer(np.arange(size + 1), np.arange(size + 1)) % (2 * size)
        basis = cos[np.minimum(turn, 2 * size - turn)]
        ends = values.copy()
        ends[[0, -1]] /= 2.0
        coef = basis @ ends * (2.0 / size)
        coef[[0, -1]] /= 2.0
        tail = coef[size // 2 :]
        if math.sqrt(float(tail @ tail) / len(tail)) <= _FIT_TAIL * abs(coef[0]):
            return coef
    return None


def _two_group_mean(x, px, r, pr, p: float, q: float) -> float:
    """``sum_x P(x) p (1 + x) S(1 + p x)`` with ``S(A) = sum_r P(r) / (A + q r)``, x and r finite.

    With ``s = 1 / A``, ``S(A) = s G(s)`` for ``G(s) = sum_r P(r) / (1 + q r s)``.
    Where ``len(x) * len(r)`` passes ``_DIRECT_PRODUCTS`` and x spans more
    than one point, G is a Chebyshev series over ``[1 / (1 + p max(x)), 1]``
    (:func:`_chebyshev_fit`), evaluated at every x by Clenshaw's recurrence;
    otherwise G is summed at every x.
    """
    s = 1.0 / (1.0 + p * x)
    weight = px * p * (1.0 + x) * s
    low = float(s.min(initial=1.0))
    coef = None
    if len(x) * len(r) > _DIRECT_PRODUCTS and low < 1.0:
        coef = _chebyshev_fit(low, r, pr, q)
    if coef is None:
        g = _g_values(s, r, pr, q)
    else:
        g = _clenshaw(coef, (2.0 * s - (1.0 + low)) / (1.0 - low))
    return float((weight * g).sum())


def worst_case_expected_exact(pop: WorstCasePopulation, truncate: bool = False) -> float:
    """Exact expected posterior for the two-group population.

    With the queried input seen (probability b) the posterior averages
    to ``b + (1 - b) p``; otherwise it is :func:`two_group_cell` over the
    two groups' counts.  Divided through by ``spare_target * spare_other``
    that cell is ``f = p (1 + x) / (1 + p x + q r)``, with
    ``x = seen_target / spare_target`` and ``r = seen_other / spare_other``,
    and ``f = 1`` where ``spare_target = 0``.  The groups are independent,
    so ``E[f] = P(x = inf) + sum_x P(x) p (1 + x) S(1 + p x)`` with
    ``S(A) = sum_r P(r) / (A + q r)`` over each group's ratio table
    (:func:`_group_ratios`); S comes from a Chebyshev series in 1 / A
    wherever summing it at every x would cost more (:func:`_two_group_mean`).

    ``truncate=True`` drops each group's least-likely ratios while their
    total mass stays at most 2.5e-13; since ``0 <= f <= 1`` the result
    then moves by at most ``(1 - b) * 5e-13`` from the full sum.
    """
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
