"""Closed-form bounds, large-population limits, and the worst-alpha rule."""
from __future__ import annotations

from dataclasses import dataclass

from .model import check_unit
from .structured import check_two_group


@dataclass(frozen=True)
class LimitResult:
    """A large-population limit value, tagged with the regime it came from."""

    value: float
    case_tag: str  # alpha_zero | alpha_interior | alpha_one


def lower_bound(b: float, p_target: float) -> float:
    """Floor on the expected posterior: b^2 + (1 - b^2) p."""
    b, p_target = check_unit("b", b), check_unit("p_target", p_target)
    return b * b + (1.0 - b * b) * p_target


def worst_case_limit(b: float, p_target: float, p_least: float, alpha: float) -> LimitResult:
    """Large-population limit of the two-group expected posterior.

    The three regimes are structurally distinct, so the endpoints are
    matched exactly rather than treated as limits of the interior case.
    """
    b, p_target, p_least = check_two_group(b, p_target, p_least)
    alpha = check_unit("alpha", alpha)
    lead = b * (1.0 - b) * p_target + b * b
    if b == 1.0:
        tail = 0.0
    elif alpha == 0.0:
        tail = (1.0 - b) * (b + (1.0 - b) ** 2 * p_target / (1.0 - b + p_least * b))
    elif alpha == 1.0:
        tail = (1.0 - b) * p_target / (1.0 - b + p_target * b)
    else:
        tail = (1.0 - b) * p_target / (1.0 - b + p_target * b + p_least * b)
    tag = "alpha_zero" if alpha == 0.0 else ("alpha_one" if alpha == 1.0 else "alpha_interior")
    return LimitResult(lead + tail, tag)


def worst_alpha(b: float, p_target: float, p_least: float) -> str:
    """Which endpoint population is worse for the user in the limit.

    Returns ``"alpha_one"`` (everyone else piles onto the target) only
    when the queried user's prior on the least destination clears the
    threshold (1 - b)(1 - p)^2 / (p(1 + b) - b); otherwise, and whenever
    that threshold's denominator is non-positive, ``"alpha_zero"``.
    Parameters that :class:`WorstCasePopulation` rejects raise
    :class:`ScenarioError` here too.
    """
    b, p_target, p_least = check_two_group(b, p_target, p_least)
    denominator = p_target * (1.0 + b) - b
    if denominator <= 0.0:
        return "alpha_zero"
    threshold = (1.0 - b) * (1.0 - p_target) ** 2 / denominator
    return "alpha_one" if p_least >= threshold else "alpha_zero"


def worst_case_headline(b: float, p_target: float) -> float:
    """Limit value in the usual worst case: b + (1 - b) p.

    Algebraically this equals ``lower_bound(sqrt(b), p)``: the worst-case
    population costs as much anonymity as an adversary whose compromised
    fraction is the square root of the actual one.
    """
    b, p_target = check_unit("b", b), check_unit("p_target", p_target)
    return b + (1.0 - b) * p_target
