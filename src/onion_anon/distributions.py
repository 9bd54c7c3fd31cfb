"""Destination rows from spec text, and population-to-scenario builders.

:func:`make_distribution` is the one reader of the spec grammar
(``zipf:s``, ``uniform``, ``point:i``, ``explicit:p0,p1,...``) that
scenario files, ``common``, ``mc --mode common`` and ``sweep`` share.
The caller always gives the destination count, and an explicit row
must have exactly that many entries.
"""
from __future__ import annotations

import numpy as np

from .errors import ParseError, ScenarioError
from .model import Scenario, check_distribution, check_integer, validate_scenario
from .structured import WorstCasePopulation


def make_distribution(text: str, dest_count: int) -> np.ndarray:
    """The row over ``dest_count`` destinations that spec text names.

    Kinds: ``zipf:s`` (rank r gets weight 1/r^s, s > 0; index 0 is the
    most popular destination and probabilities never increase along the
    row), ``uniform``, ``point:i`` (all mass on destination i) and
    ``explicit:p0,p1,...`` (a literal row with one entry per
    destination).  Malformed text, or an explicit row of the wrong
    length, is a :class:`ParseError`; a valid text with values the row
    cannot take is a :class:`ScenarioError`.
    """
    k = check_integer("dest_count", dest_count)
    if k < 1:
        raise ScenarioError("need at least one destination")
    head, sep, rest = text.strip().partition(":")
    head = head.strip().lower()
    try:
        if head == "uniform":
            if sep:
                raise ParseError("uniform takes no parameter")
            return np.full(k, 1.0 / k)
        if head == "zipf":
            exponent = float(rest)
            if not exponent > 0.0:
                raise ScenarioError(f"zipf exponent must be positive, got {exponent!r}")
            weights = np.arange(1, k + 1, dtype=np.float64) ** -exponent
            return weights / weights.sum()
        if head == "point":
            dest = int(rest)
            if not 0 <= dest < k:
                raise ScenarioError(f"point destination {dest!r} out of range")
            row = np.zeros(k)
            row[dest] = 1.0
            return row
        if head == "explicit":
            if not sep:
                raise ParseError("explicit distribution needs probabilities")
            probs = [float(x) for x in rest.split(",")]
            if len(probs) != k:
                raise ParseError(f"explicit distribution has {len(probs)} entries, expected {k}")
            row = check_distribution(probs, "explicit vector")
            return row / row.sum()
    except ValueError:
        raise ParseError(f"bad distribution parameter in {text!r}") from None
    raise ParseError(f"unknown distribution kind {head!r}")


def least_alternative_destination(u_distribution) -> int:
    """Destination the user likes least, ignoring index 0 (the target).

    Ties break toward the highest index.  With a single destination the
    target itself is returned.
    """
    row = np.asarray(u_distribution, dtype=np.float64)
    if row.shape[0] == 1:
        return 0
    best = 1
    for d in range(1, row.shape[0]):
        if row[d] <= row[best]:
            best = d
    return best


def build_worst_case_scenario(n: int, alpha: float, b: float, u_distribution) -> Scenario:
    """Explicit scenario for the two-group population.

    User 0 carries ``u_distribution`` and index 0 is the queried target
    destination.  Of the other n-1 users, the matching
    ``WorstCasePopulation.n_target`` always visit the target; the rest
    always visit user 0's least-liked alternative.
    """
    row = check_distribution(u_distribution, "row", 0)
    least = least_alternative_destination(row)
    # With one destination there is no other choice, and no p_least.
    pop = WorstCasePopulation(n, alpha, b, float(row[0]), float(row[least]) if least else 0.0)
    others = np.eye(len(row))[[0] * pop.n_target + [least] * pop.n_other]
    return validate_scenario(np.vstack([row, others]), b)


def build_common_scenario(n: int, b: float, row) -> Scenario:
    """Scenario in which all n users share the destination distribution ``row``."""
    if check_integer("n", n) < 1:
        raise ScenarioError("need at least one user")
    return validate_scenario(np.tile(row, (n, 1)), b)
