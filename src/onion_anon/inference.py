"""Exact Bayesian machinery for the black-box view.

The easy cases are circuits whose input the adversary saw: the posterior
is then an indicator (input and output both seen) or the prior row
(input only).  The hard case is a circuit with an unseen input, where
the queried user hides in the crowd of users whose inputs are also
unseen, and the bare observed outputs must be matched against that
crowd.  The matching weight is a permanent-like sum over injective
assignments of crowd members to output slots; this module evaluates it
with dynamic programming over the remaining multiplicity vector rather
than by enumerating assignments, which turns a factorial blowup into
O(crowd size x product of (multiplicity + 1)).

Two independent enumeration oracles (one in floats, one in exact
rationals) are provided for cross-checking the closed computations.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import fsum
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import (
    ConditioningError,
    ImpossibleObservationError,
    QueryError,
    SizeLimitError,
)
from .limits import SizeLimits, current_limits
from .model import (
    DestMultiset,
    Observation,
    Scenario,
    check_observation,
    configuration_prior_exact,
    iter_configurations,
    observe,
)


@dataclass(frozen=True)
class PosteriorQuery:
    """The relationship being judged: did ``user`` talk to ``dest``?"""

    user: int
    dest: int


@dataclass(frozen=True)
class UnobservedView:
    """The crowd side of a view: users with unseen inputs, bare outputs."""

    users: tuple[int, ...]
    outputs: DestMultiset


class ViewSplit(NamedTuple):
    """Probability of an unobserved-input view, split by the queried user.

    ``any_dest`` is the probability that a random configuration shows
    this crowd and this bare-output multiset.  ``dest_seen`` restricts to
    the queried user heading to the queried destination with its output
    among the bare outputs; ``dest_hidden`` to the same destination with
    its output unobserved.  The posterior for the query is then
    ``(dest_seen + dest_hidden) / any_dest``.
    """

    any_dest: float
    dest_seen: float
    dest_hidden: float


def _check_query(scenario: Scenario, query: PosteriorQuery) -> None:
    if not 0 <= query.user < scenario.n:
        raise QueryError(f"user {query.user} out of range")
    if not 0 <= query.dest < scenario.dest_count:
        raise QueryError(f"destination {query.dest} out of range")


def duplicate_orderings(multiset: DestMultiset) -> int:
    """Number of ways to reorder the multiset among identical elements.

    This is the normalizer between slot-labeled injections and
    assignments that only care which destination each user covers.
    """
    out = 1
    for count in multiset.counts:
        out *= math.factorial(count)
    return out


def injection_sum(users: Sequence[int], outputs: DestMultiset, p: np.ndarray) -> float:
    """Total weight of ways the crowd could have produced the bare outputs.

    Sums, over subsets T of ``users`` with |T| = |outputs| and over
    assignments of T covering each destination exactly its multiplicity,
    the product of p[v, assigned dest].  Equals the naive sum over
    slot-labeled injections divided by ``duplicate_orderings(outputs)``.

    The DP state is the vector of multiplicities still to cover; each
    user either takes one remaining slot or none.
    """
    total = outputs.size
    if total == 0:
        return 1.0
    if total > len(users):
        return 0.0
    support = [d for d, c in enumerate(outputs.counts) if c > 0]
    start = tuple(outputs.counts[d] for d in support)
    zero = (0,) * len(support)
    table: dict[tuple[int, ...], float] = {start: 1.0}
    for v in users:
        row = p[v]
        nxt: dict[tuple[int, ...], float] = {}
        for state, weight in table.items():
            nxt[state] = nxt.get(state, 0.0) + weight
            for i, remaining in enumerate(state):
                if remaining:
                    taken = state[:i] + (remaining - 1,) + state[i + 1 :]
                    nxt[taken] = nxt.get(taken, 0.0) + weight * row[support[i]]
        table = nxt
    return table.get(zero, 0.0)


def _crowd_weights(
    scenario: Scenario, users: tuple[int, ...], outputs: DestMultiset, query: PosteriorQuery
) -> tuple[float, float, float]:
    """The injection sums behind a view split, without the prefactor.

    Returns the crowd's weight for ``outputs`` and, for the rest of the
    crowd, its weight with the queried destination's one output removed
    (0 if ``outputs`` has none) and with ``outputs`` intact.
    """
    crowd_rest = tuple(v for v in users if v != query.user)
    any_dest = injection_sum(users, outputs, scenario.p)
    if outputs.contains(query.dest):
        seen = injection_sum(crowd_rest, outputs.remove_one(query.dest), scenario.p)
    else:
        seen = 0.0
    hidden = injection_sum(crowd_rest, outputs, scenario.p)
    return any_dest, seen, hidden


def view_probability_split(
    scenario: Scenario, view: UnobservedView, query: PosteriorQuery
) -> ViewSplit:
    """Split the probability of an unobserved-input view around the query.

    The queried user must belong to the crowd.  All three components
    share the prefactor accounting for which endpoints were observed;
    the crowd-to-outputs matching weight is the injection sum above.
    """
    _check_query(scenario, query)
    users = tuple(view.users)
    if query.user not in users:
        raise QueryError("queried user does not have an unobserved input in this view")
    n = scenario.n
    b = scenario.b
    size = len(users)
    out_size = view.outputs.size
    prefactor = b ** (n - size + out_size) * (1.0 - b) ** (2 * size - out_size)
    p_ud = float(scenario.p[query.user, query.dest])
    any_dest, seen, hidden = _crowd_weights(scenario, users, view.outputs, query)
    return ViewSplit(prefactor * any_dest, prefactor * p_ud * seen, prefactor * p_ud * hidden)


def posterior(scenario: Scenario, observation: Observation, query: PosteriorQuery) -> float:
    """Probability the queried user chose the queried destination, given the view.

    The ratio of :func:`view_probability_split`'s components, taken
    without their shared prefactor ``b^k (1-b)^m``: at a few hundred
    users that prefactor underflows to 0 although the view is possible.
    """
    _check_query(scenario, query)
    check_observation(scenario, observation)
    linked = dict(observation.linked)
    if query.user in linked:
        return 1.0 if linked[query.user] == query.dest else 0.0
    if query.user in observation.input_only:
        return float(scenario.p[query.user, query.dest])
    visible = set(linked) | set(observation.input_only)
    crowd = tuple(v for v in range(scenario.n) if v not in visible)
    any_dest, seen, hidden = _crowd_weights(scenario, crowd, observation.output_only, query)
    if any_dest <= 0.0:
        raise ImpossibleObservationError("observation has zero probability under this scenario")
    p_ud = float(scenario.p[query.user, query.dest])
    return (p_ud * seen + p_ud * hidden) / any_dest


def _count_vectors(dest_count: int, max_total: int) -> Iterator[tuple[int, ...]]:
    """All destination count vectors with total at most ``max_total``."""
    if dest_count == 1:
        for c in range(max_total + 1):
            yield (c,)
        return
    for c in range(max_total + 1):
        for rest in _count_vectors(dest_count - 1, max_total - c):
            yield (c,) + rest


def _usage_table(
    users: Sequence[int], cap_total: int, p: np.ndarray, dest_count: int
) -> dict[tuple[int, ...], float]:
    """Injection weights for every output vector at once.

    Entry ``r`` is the summed weight over subsets of ``users`` covering
    destination ``d`` exactly ``r[d]`` times, for all vectors with total
    at most ``cap_total``.  One forward pass serves every multiset a
    caller wants to evaluate against the same crowd.
    """
    zero = (0,) * dest_count
    table: dict[tuple[int, ...], float] = {zero: 1.0}
    for v in users:
        row = p[v]
        nxt: dict[tuple[int, ...], float] = {}
        for state, weight in table.items():
            nxt[state] = nxt.get(state, 0.0) + weight
            if sum(state) < cap_total:
                for d in range(dest_count):
                    if row[d] > 0.0:
                        grown = state[:d] + (state[d] + 1,) + state[d + 1 :]
                        nxt[grown] = nxt.get(grown, 0.0) + weight * row[d]
        table = nxt
    return table


def expected_posterior_formula(
    scenario: Scenario, query: PosteriorQuery, limits: SizeLimits | None = None
) -> float:
    """Exact expectation of the posterior, conditioned on the queried choice.

    The observed-input cases contribute b(1-b) p + b^2 up front.  The
    unobserved-input mass is summed in closed form over every crowd
    containing the queried user and every bare-output multiset the crowd
    could cover, with each term assembled from one usage table per crowd.
    """
    limits = limits or current_limits()
    _check_query(scenario, query)
    if scenario.n > limits.formula_users or scenario.dest_count > limits.formula_dests:
        raise SizeLimitError(
            f"formula limited to {limits.formula_users} users and "
            f"{limits.formula_dests} destinations (got {scenario.n}, {scenario.dest_count})"
        )
    u, d = query.user, query.dest
    p_ud = float(scenario.p[u, d])
    if p_ud <= 0.0:
        raise ConditioningError(f"user {u} never visits destination {d}")
    n = scenario.n
    nd = scenario.dest_count
    b = scenario.b
    p_u = scenario.p[u]
    others = [v for v in range(n) if v != u]
    terms: list[float] = [b * (1.0 - b) * p_ud, b * b]
    for crowd_size in range(1, n + 1):
        rest_size = crowd_size - 1
        for rest in itertools.combinations(others, rest_size):
            table = _usage_table(rest, crowd_size, scenario.p, nd)
            for r in _count_vectors(nd, crowd_size):
                without_u = table.get(r, 0.0)
                with_u = without_u
                for delta in range(nd):
                    if r[delta]:
                        shrunk = r[:delta] + (r[delta] - 1,) + r[delta + 1 :]
                        with_u += p_u[delta] * table.get(shrunk, 0.0)
                if with_u <= 0.0:
                    continue
                if r[d]:
                    reduced = r[:d] + (r[d] - 1,) + r[d + 1 :]
                    seen = table.get(reduced, 0.0)
                else:
                    seen = 0.0
                out_size = sum(r)
                prefactor = b ** (n - crowd_size + out_size) * (1.0 - b) ** (
                    2 * crowd_size - out_size
                )
                if prefactor == 0.0:
                    continue
                matched = seen + without_u
                terms.append(prefactor * p_ud * matched * matched / with_u)
    return fsum(terms)


# ---------------------------------------------------------------------------
# Enumeration oracles


def _encode_observation(scenario: Scenario, obs: Observation) -> int:
    """Integer form of an observation, matching the vectorized enumerator."""
    n = scenario.n
    nd = scenario.dest_count
    code_base = nd + 2
    codes = [nd + 1] * n
    for v, dest in obs.linked:
        codes[v] = dest
    for v in obs.input_only:
        codes[v] = nd
    key = 0
    for v in range(n - 1, -1, -1):
        key = key * code_base + codes[v]
    count_base = n + 1
    packed_counts = 0
    for delta in range(nd - 1, -1, -1):
        packed_counts = packed_counts * count_base + obs.output_only.counts[delta]
    return key * count_base**nd + packed_counts


def _effective_config_count(scenario: Scenario) -> int:
    assignments = 1
    for v in range(scenario.n):
        assignments *= int(np.count_nonzero(scenario.p[v] > 0.0))
    return assignments * 4**scenario.n


def _check_exact_budget(scenario: Scenario, limits: SizeLimits) -> None:
    cost = scenario.dest_count**scenario.n * 4**scenario.n
    if cost > limits.oracle_budget:
        raise SizeLimitError(
            f"exact enumeration needs {cost} configurations, budget is {limits.oracle_budget}"
        )


def _merge_views(keys, mass, match):
    unique_keys, inverse = np.unique(np.concatenate(keys), return_inverse=True)
    totals = np.bincount(inverse, weights=np.concatenate(mass), minlength=len(unique_keys))
    matches = np.bincount(inverse, weights=np.concatenate(match), minlength=len(unique_keys))
    return unique_keys, totals, matches


def _mass_by_view(scenario: Scenario, u: int, d: int):
    """Group the full configuration space by view.

    Returns three aligned arrays, sorted by encoded view key: the total
    prior mass per view and the mass of configurations where user ``u``
    heads to ``d``.  Destination assignments run over nonzero-prior
    entries only, and the endpoint flag space is handled as one
    vectorized block per assignment; partial results are compacted
    periodically to keep memory proportional to the number of distinct
    views.
    """
    n = scenario.n
    nd = scenario.dest_count
    b = scenario.b
    if (nd + 2) ** n * (n + 1) ** nd > 2**62:
        raise SizeLimitError("view encoding would overflow 64 bits at this size")
    flag_count = 4**n
    idx = np.arange(flag_count, dtype=np.int64)
    in_flags = np.empty((flag_count, n), dtype=bool)
    out_flags = np.empty((flag_count, n), dtype=bool)
    for v in range(n):
        in_flags[:, v] = (idx >> (2 * v)) & 1 == 1
        out_flags[:, v] = (idx >> (2 * v + 1)) & 1 == 1
    observed_bits = in_flags.sum(axis=1) + out_flags.sum(axis=1)
    flag_weight = np.power(b, observed_bits) * np.power(1.0 - b, 2 * n - observed_bits)
    both = in_flags & out_flags
    output_only = (~in_flags & out_flags).astype(np.int64)
    silent_code = np.where(in_flags & ~out_flags, nd, nd + 1).astype(np.int64)
    user_place = np.array([(nd + 2) ** v for v in range(n)], dtype=np.int64)
    count_place = np.array([(n + 1) ** delta for delta in range(nd)], dtype=np.int64)
    count_shift = np.int64((n + 1) ** nd)

    supports = [np.flatnonzero(scenario.p[v] > 0.0) for v in range(n)]
    keys_parts: list[np.ndarray] = []
    mass_parts: list[np.ndarray] = []
    match_parts: list[np.ndarray] = []
    buffered = 0
    for assignment in itertools.product(*supports):
        dest_prob = 1.0
        for v in range(n):
            dest_prob *= float(scenario.p[v, assignment[v]])
        codes = np.zeros(flag_count, dtype=np.int64)
        packed_counts = np.zeros(flag_count, dtype=np.int64)
        for v in range(n):
            codes += np.where(both[:, v], np.int64(assignment[v]), silent_code[:, v]) * user_place[v]
            packed_counts += output_only[:, v] * count_place[assignment[v]]
        keys_parts.append(codes * count_shift + packed_counts)
        weight = dest_prob * flag_weight
        mass_parts.append(weight)
        match_parts.append(weight if assignment[u] == d else np.zeros_like(weight))
        buffered += flag_count
        if buffered >= 1 << 21:
            keys_parts, mass_parts, match_parts = (
                [part] for part in _merge_views(keys_parts, mass_parts, match_parts)
            )
            buffered = len(keys_parts[0])
    unique_keys, totals, matches = _merge_views(keys_parts, mass_parts, match_parts)
    live = totals > 0.0
    return unique_keys[live], totals[live], matches[live]


def _mass_by_view_exact(scenario: Scenario, u: int, d: int) -> dict[tuple, tuple[Fraction, Fraction]]:
    """Rational-arithmetic twin of :func:`_mass_by_view`, keyed by view tuples."""
    masses: dict[tuple, list[Fraction]] = {}
    for config in iter_configurations(scenario):
        prior = configuration_prior_exact(scenario, config)
        if prior == 0:
            continue
        key = observe(scenario, config).key()
        entry = masses.setdefault(key, [Fraction(0), Fraction(0)])
        entry[0] += prior
        if config.dest[u] == d:
            entry[1] += prior
    return {k: (v[0], v[1]) for k, v in masses.items()}


def posterior_oracle(
    scenario: Scenario,
    observation: Observation,
    query: PosteriorQuery,
    exact: bool = False,
    limits: SizeLimits | None = None,
) -> float | Fraction:
    """Posterior by brute force: enumerate configurations, match the view.

    With ``exact=True`` the computation runs in rational arithmetic
    (float inputs are dyadic rationals, so this is lossless) and returns
    a Fraction; that path enumerates one configuration at a time, so it
    is additionally held to the enumeration budget.
    """
    limits = limits or current_limits()
    _check_query(scenario, query)
    check_observation(scenario, observation)
    if scenario.n > limits.oracle_users or scenario.dest_count > limits.oracle_dests:
        raise SizeLimitError(
            f"oracle limited to {limits.oracle_users} users and "
            f"{limits.oracle_dests} destinations (got {scenario.n}, {scenario.dest_count})"
        )
    if exact:
        _check_exact_budget(scenario, limits)
        masses = _mass_by_view_exact(scenario, query.user, query.dest)
        entry = masses.get(observation.key())
        if entry is None or entry[0] == 0:
            raise ImpossibleObservationError("no configuration matches the observation")
        return entry[1] / entry[0]
    keys, totals, matches = _mass_by_view(scenario, query.user, query.dest)
    wanted = _encode_observation(scenario, observation)
    where = int(np.searchsorted(keys, wanted))
    if where >= len(keys) or int(keys[where]) != wanted:
        raise ImpossibleObservationError("no configuration matches the observation")
    return float(matches[where] / totals[where])


def expected_posterior_oracle(
    scenario: Scenario,
    query: PosteriorQuery,
    exact: bool = False,
    limits: SizeLimits | None = None,
) -> float | Fraction:
    """Expectation of the posterior by exhaustive enumeration.

    Configurations are grouped by view; within a view the posterior is
    the matching mass over the total mass, and each view's contribution
    is weighted by its conditional probability.  The whole expectation
    collapses to sum(match^2 / total) / p[u, d].
    """
    limits = limits or current_limits()
    _check_query(scenario, query)
    u, d = query.user, query.dest
    p_ud = float(scenario.p[u, d])
    if p_ud <= 0.0:
        raise ConditioningError(f"user {u} never visits destination {d}")
    cost = _effective_config_count(scenario)
    if cost > limits.oracle_budget:
        raise SizeLimitError(
            f"oracle enumeration needs {cost} configurations, budget is {limits.oracle_budget}"
        )
    if exact:
        _check_exact_budget(scenario, limits)
        masses_exact = _mass_by_view_exact(scenario, u, d)
        acc = Fraction(0)
        for key in sorted(masses_exact):
            total, match = masses_exact[key]
            acc += match * match / total
        return acc / Fraction(float(scenario.p[u, d]))
    keys, totals, matches = _mass_by_view(scenario, u, d)
    return fsum((matches * matches / totals).tolist()) / p_ud
