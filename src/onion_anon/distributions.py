"""Destination distributions and population-to-scenario builders."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParseError, ScenarioError
from .model import Scenario, check_distribution, validate_scenario
from .structured import WorstCasePopulation


@dataclass(frozen=True)
class DistributionSpec:
    """How to build one user's destination distribution.

    Kinds: ``zipf`` (rank r gets weight 1/r^exponent), ``uniform``,
    ``point`` (all mass on one destination), ``explicit`` (a literal
    probability vector).  Text syntax, as used by the CLI: ``zipf:1.0``,
    ``uniform``, ``point:2``, ``explicit:0.7,0.3``.
    """

    kind: str
    dest_count: int
    exponent: float | None = None
    dest: int | None = None
    probs: tuple[float, ...] | None = None

    @classmethod
    def zipf(cls, exponent: float, dest_count: int) -> "DistributionSpec":
        return cls(kind="zipf", dest_count=dest_count, exponent=float(exponent))

    @classmethod
    def uniform(cls, dest_count: int) -> "DistributionSpec":
        return cls(kind="uniform", dest_count=dest_count)

    @classmethod
    def point(cls, dest: int, dest_count: int) -> "DistributionSpec":
        return cls(kind="point", dest_count=dest_count, dest=int(dest))

    @classmethod
    def explicit(cls, probs) -> "DistributionSpec":
        probs = tuple(float(x) for x in probs)
        return cls(kind="explicit", dest_count=len(probs), probs=probs)

    @classmethod
    def parse(cls, text: str, dest_count: int | None = None) -> "DistributionSpec":
        """Parse the text syntax; ``dest_count`` is required except for explicit."""
        head, sep, rest = text.strip().partition(":")
        head = head.strip().lower()
        try:
            if head == "explicit":
                if not sep:
                    raise ParseError("explicit distribution needs probabilities")
                return cls.explicit(float(x) for x in rest.split(","))
            if dest_count is None:
                raise ParseError(f"distribution {text!r} needs a destination count")
            if head == "uniform":
                if sep:
                    raise ParseError("uniform takes no parameter")
                return cls.uniform(dest_count)
            if head == "zipf":
                return cls.zipf(float(rest), dest_count)
            if head == "point":
                return cls.point(int(rest), dest_count)
        except ValueError:
            raise ParseError(f"bad distribution parameter in {text!r}") from None
        raise ParseError(f"unknown distribution kind {head!r}")


def make_distribution(spec: DistributionSpec) -> np.ndarray:
    """Materialize a spec as a stochastic vector over destination indices.

    Zipf identifies ranks with indices: index 0 is the most popular
    destination and probabilities never increase along the vector.
    """
    k = spec.dest_count
    if k < 1:
        raise ScenarioError("need at least one destination")
    if spec.kind == "uniform":
        return np.full(k, 1.0 / k)
    if spec.kind == "point":
        if spec.dest is None or not 0 <= spec.dest < k:
            raise ScenarioError(f"point destination {spec.dest!r} out of range")
        out = np.zeros(k)
        out[spec.dest] = 1.0
        return out
    if spec.kind == "zipf":
        if spec.exponent is None or not spec.exponent > 0.0:
            raise ScenarioError(f"zipf exponent must be positive, got {spec.exponent!r}")
        ranks = np.arange(1, k + 1, dtype=np.float64)
        weights = ranks ** -spec.exponent
        return weights / weights.sum()
    if spec.kind == "explicit":
        if spec.probs is None:
            raise ScenarioError("explicit spec is missing probabilities")
        row = check_distribution(spec.probs, "explicit vector")
        return row / row.sum()
    raise ScenarioError(f"unknown distribution kind {spec.kind!r}")


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


def build_common_scenario(n: int, b: float, spec: DistributionSpec) -> Scenario:
    """Scenario in which all n users share the spec's distribution."""
    if n < 1:
        raise ScenarioError("need at least one user")
    row = make_distribution(spec)
    return validate_scenario(np.tile(row, (n, 1)), b)
