"""Scenarios, configurations, and the adversary's view of one round.

Every user owns exactly one circuit per round.  A configuration is the
ground truth: each user's destination plus which circuit endpoints the
adversary controls.  An observation is the part of that truth the
adversary actually sees, and configurations with equal observations are
indistinguishable to it.

Users and destinations are dense integer indices; human-readable names
exist only in the file format handled by the CLI.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from .errors import ObservationError, ScenarioError
from .seeding import uniform

STOCHASTIC_TOL = 1e-12


def _is_integer(x) -> bool:
    """A Python or numpy integer; bools are not integers here."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


@dataclass(frozen=True)
class DestMultiset:
    """Multiset over destination indices, stored as a dense count vector."""

    counts: tuple[int, ...]

    def __post_init__(self):
        if not all(_is_integer(c) and c >= 0 for c in self.counts):
            raise ObservationError(f"destination multiset counts must be non-negative integers, got {self.counts!r}")

    @classmethod
    def from_items(cls, items: Iterable[int], dest_count: int) -> "DestMultiset":
        counts = [0] * dest_count
        for d in items:
            if not 0 <= d < dest_count:
                raise ObservationError(f"destination index {d} out of range")
            counts[d] += 1
        return cls(tuple(counts))

    @property
    def size(self) -> int:
        return sum(self.counts)

    def contains(self, dest: int) -> bool:
        return self.counts[dest] > 0

    def remove_one(self, dest: int) -> "DestMultiset":
        if self.counts[dest] == 0:
            raise ObservationError(f"destination {dest} is not in the multiset")
        counts = list(self.counts)
        counts[dest] -= 1
        return DestMultiset(tuple(counts))


@dataclass(frozen=True, eq=False)
class Scenario:
    """A user population facing an adversary of a given strength.

    ``b`` is the fraction of relays the adversary controls; each circuit
    endpoint is independently observed with that probability.  Row ``u``
    of ``p`` is user ``u``'s destination distribution.
    """

    n: int
    dest_count: int
    b: float
    p: np.ndarray  # (n, dest_count), rows sum to 1, marked read-only


def check_unit(name: str, x) -> float:
    """``x`` (``b``, a prior or ``alpha``) as a float in [0, 1], or ScenarioError naming ``name``; NaN and bools fail."""
    try:
        if isinstance(x, (bool, np.bool_)):
            raise TypeError  # float(True) is 1.0
        x = float(x)
    except (TypeError, ValueError):
        raise ScenarioError(f"{name} must be a number, got {x!r}") from None
    except OverflowError:
        raise ScenarioError(f"{name} out of range: beyond the float range") from None
    if not 0.0 <= x <= 1.0:
        raise ScenarioError(f"{name} out of range: {x!r}")
    return x


def check_integer(name: str, x) -> int:
    """``x`` (a size, an index, a sample count or a seed) as an int, or ScenarioError naming ``name``; bools fail."""
    if not _is_integer(x):
        raise ScenarioError(f"{name} must be an integer, got {x!r}")
    return int(x)


def check_distribution(row, what: str) -> np.ndarray:
    """``row`` as a finite, non-negative float array summing to 1 within ``STOCHASTIC_TOL``, or ScenarioError naming ``what``."""
    try:
        row = np.asarray(row, dtype=np.float64)
    except OverflowError:
        raise ScenarioError(f"{what} is not stochastic: it has an entry beyond the float range") from None
    if not np.all(np.isfinite(row)):
        raise ScenarioError(f"{what} is not stochastic: it has a non-finite entry")
    if np.any(row < 0.0):
        raise ScenarioError(f"{what} is not stochastic: it has a negative entry")
    total = float(row.sum())
    if abs(total - 1.0) > STOCHASTIC_TOL:
        raise ScenarioError(f"{what} is not stochastic: it sums to {total!r}")
    return row


def validate_scenario(p, b) -> Scenario:
    """Check raw scenario data and return a normalized Scenario.

    Rows must be non-negative and sum to 1 within ``STOCHASTIC_TOL``;
    they are renormalized so the stored matrix is exactly stochastic up
    to rounding, which keeps text round trips stable.
    """
    rows = np.array(p, dtype=np.float64)
    if rows.ndim and len(rows) < 1:
        raise ScenarioError("need at least one user")
    if rows.ndim != 2:
        raise ScenarioError("destination matrix must be two-dimensional")
    if rows.shape[1] < 1:
        raise ScenarioError("need at least one destination")
    b = check_unit("b", b)
    for i, row in enumerate(rows):
        check_distribution(row, f"row {i}")
    rows /= rows.sum(axis=1, keepdims=True)
    rows.setflags(write=False)
    return Scenario(n=int(rows.shape[0]), dest_count=int(rows.shape[1]), b=b, p=rows)


@dataclass(frozen=True)
class Configuration:
    """Ground truth for one round: destinations and observed endpoints."""

    dest: tuple[int, ...]
    input_observed: tuple[bool, ...]
    output_observed: tuple[bool, ...]


def _check_configuration(scenario: Scenario, config: Configuration) -> None:
    n = scenario.n
    if not (len(config.dest) == len(config.input_observed) == len(config.output_observed) == n):
        raise ObservationError("configuration does not have one entry per user")
    for d in config.dest:
        if not 0 <= d < scenario.dest_count:
            raise ObservationError(f"destination index {d} out of range")


@dataclass(frozen=True)
class Observation:
    """What the adversary sees: links, bare inputs, bare outputs, silence.

    Stored in canonical form (linked pairs sorted by user, input-only
    users sorted, bare outputs as a count vector) so equal views compare
    and hash equal.
    """

    linked: tuple[tuple[int, int], ...]
    input_only: tuple[int, ...]
    output_only: DestMultiset
    hidden_count: int

    def __post_init__(self):
        object.__setattr__(self, "linked", tuple(sorted((int(u), int(d)) for u, d in self.linked)))
        object.__setattr__(self, "input_only", tuple(sorted(int(u) for u in self.input_only)))
        if not _is_integer(self.hidden_count) or self.hidden_count < 0:
            raise ObservationError(f"hidden_count must be a non-negative integer, got {self.hidden_count!r}")
        seen = [u for u, _ in self.linked]
        users = seen + list(self.input_only)
        if len(set(users)) != len(users):
            raise ObservationError("a user appears twice in the observation")

    def key(self) -> tuple:
        """Hashable canonical form, suitable for grouping views."""
        return (self.linked, self.input_only, self.output_only.counts, self.hidden_count)


def _check_outputs(dest_count: int, outputs: DestMultiset) -> None:
    if len(outputs.counts) != dest_count:
        raise ObservationError("output multiset has the wrong number of destinations")


def check_observation(scenario: Scenario, obs: Observation) -> None:
    """Verify that an observation could have come from this scenario."""
    n = scenario.n
    _check_outputs(scenario.dest_count, obs.output_only)
    for u, d in obs.linked:
        if not 0 <= u < n:
            raise ObservationError(f"linked user {u} out of range")
        if not 0 <= d < scenario.dest_count:
            raise ObservationError(f"linked destination {d} out of range")
    for u in obs.input_only:
        if not 0 <= u < n:
            raise ObservationError(f"input-only user {u} out of range")
    total = len(obs.linked) + len(obs.input_only) + obs.output_only.size + obs.hidden_count
    if total != n:
        raise ObservationError(f"observation accounts for {total} circuits, scenario has {n}")


def observe(scenario: Scenario, config: Configuration) -> Observation:
    """Project a configuration onto the adversary's view.

    Both endpoints observed reveals the (user, destination) link; an
    observed input alone reveals only the user; an observed output alone
    adds its destination to the bare-output multiset; a circuit with
    neither endpoint observed only bumps the hidden count.
    """
    _check_configuration(scenario, config)
    linked = []
    input_only = []
    outputs = []
    hidden = 0
    for u in range(scenario.n):
        seen_in = config.input_observed[u]
        seen_out = config.output_observed[u]
        if seen_in and seen_out:
            linked.append((u, config.dest[u]))
        elif seen_in:
            input_only.append(u)
        elif seen_out:
            outputs.append(config.dest[u])
        else:
            hidden += 1
    return Observation(
        linked=tuple(linked),
        input_only=tuple(input_only),
        output_only=DestMultiset.from_items(outputs, scenario.dest_count),
        hidden_count=hidden,
    )


def configuration_prior(scenario: Scenario, config: Configuration) -> float:
    """Prior probability of a configuration under the scenario."""
    _check_configuration(scenario, config)
    b = scenario.b
    prob = 1.0
    for u in range(scenario.n):
        prob *= scenario.p[u, config.dest[u]]
        prob *= b if config.input_observed[u] else 1.0 - b
        prob *= b if config.output_observed[u] else 1.0 - b
    return float(prob)


def configuration_prior_exact(scenario: Scenario, config: Configuration) -> Fraction:
    """Prior probability in exact rational arithmetic."""
    _check_configuration(scenario, config)
    b = Fraction(scenario.b)
    prob = Fraction(1)
    for u in range(scenario.n):
        prob *= Fraction(float(scenario.p[u, config.dest[u]]))
        prob *= b if config.input_observed[u] else 1 - b
        prob *= b if config.output_observed[u] else 1 - b
    return prob


def indistinguishable(scenario: Scenario, first: Configuration, second: Configuration) -> bool:
    """True when the two configurations produce the same view."""
    return observe(scenario, first).key() == observe(scenario, second).key()


def sample_configuration(
    scenario: Scenario, seed: int, pin: tuple[int, int] | None = None
) -> Configuration:
    """Draw one configuration from the prior, deterministically from ``seed``.

    ``pin=(user, dest)`` forces that user's destination, which conditions
    on the event exactly: destinations are independent across users, so
    overriding one leaves every other draw untouched.

    Stream layout (shared with the vectorized sampler): position ``u``
    drives user ``u``'s destination, ``n + u`` its input flag, and
    ``2n + u`` its output flag.
    """
    n = scenario.n
    b = scenario.b
    cumulative = np.cumsum(scenario.p, axis=1)
    dest = []
    for u in range(n):
        x = uniform(seed, u)
        idx = int(np.searchsorted(cumulative[u], x, side="right"))
        dest.append(min(idx, scenario.dest_count - 1))
    if pin is not None:
        user, forced = pin
        if not 0 <= user < n:
            raise ScenarioError(f"pinned user {user} out of range")
        if not 0 <= forced < scenario.dest_count:
            raise ScenarioError(f"pinned destination {forced} out of range")
        dest[user] = forced
    input_observed = tuple(uniform(seed, n + u) < b for u in range(n))
    output_observed = tuple(uniform(seed, 2 * n + u) < b for u in range(n))
    return Configuration(tuple(dest), input_observed, output_observed)


def iter_configurations(scenario: Scenario) -> Iterator[Configuration]:
    """Enumerate every configuration (destinations cross endpoint flags)."""
    n = scenario.n
    flags = list(itertools.product((False, True), repeat=n))
    for dest in itertools.product(range(scenario.dest_count), repeat=n):
        for input_observed in flags:
            for output_observed in flags:
                yield Configuration(dest, input_observed, output_observed)
