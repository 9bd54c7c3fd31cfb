"""Exact Bayesian machinery for the black-box view.

The easy cases are circuits whose input the adversary saw: the posterior
is then an indicator (input and output both seen) or the prior row
(input only).  The hard case is a circuit with an unseen input, where
the queried user hides in the crowd of users whose inputs are also
unseen, and the bare observed outputs must be matched against that
crowd.  The matching weight is a permanent-like sum over injective
assignments of crowd members to output slots.  One numpy kernel
evaluates it by dynamic programming instead of enumeration: a table
over a downward-closed set of count vectors, for the crowd without the
queried user, built one user at a time.  A posterior reads the box of
every vector up to its bare outputs c at the corner c, which serves
all three sums it needs (the whole crowd's weight, and the queried
user's output seen or hidden); the exact expectation reads the simplex
of vectors with total at most the crowd size at every entry.  One call
batches any number of crowds over one set, at O(crowd size x views x
set size) instead of a factorial.  A view whose table could leave the
float range (a large crowd, or hundreds of rare bare outputs) runs the
same recurrence with an integer exponent per entry instead.

Two independent enumeration oracles (one in floats, one in exact
rationals) are provided for cross-checking the closed computations.
"""
from __future__ import annotations

import functools
import itertools
import math
import sys
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


_IMPOSSIBLE = "observation has zero probability under this scenario"

# At most this many table entries (views x box size) per batched kernel call,
# so memory stays flat however many views a caller hands in at once.
BATCH_ENTRIES = 1 << 17

# A view goes through the plain float kernel while log2 of its table's
# span (see _plain_views) stays under this; the rest take the wide kernel.
_PLAIN_SPAN = 900.0

# Exponent of the zero entries of a wide table, far below any real one.
_ZERO_EXPONENT = -(1 << 40)


class _IndexSet(NamedTuple):
    """A downward-closed set of count vectors, the entries of a crowd table.

    Two sets serve every caller: the box under a bare-output vector (a
    posterior, a sampled view) and the total-capped simplex (the exact
    expectation).  Axis i counts outputs on ``dests[i]``; ``keys`` lists
    the E vectors in lexicographic order.  A table over the set has
    E + 1 columns, a zero sentinel and then ``keys``; ``pred[i]`` maps
    each column to that of the vector one lower on axis i, or to the
    sentinel where that count is 0.
    """

    dests: tuple[int, ...]
    keys: np.ndarray
    pred: np.ndarray


def _index_set(dests: Sequence[int], keys: np.ndarray) -> _IndexSet:
    """Sort ``keys`` and look up each predecessor by binary search on mixed-radix codes."""
    radix = keys.max(axis=0) + 1
    if math.prod(int(x) for x in radix) > 1 << 62:
        raise SizeLimitError("count vectors too large to index in 64 bits")
    place = np.cumprod(radix[::-1])[::-1] // radix
    codes = keys @ place
    order = np.argsort(codes)
    keys, codes = keys[order], codes[order]
    pred = np.where(keys.T > 0, np.searchsorted(codes, codes - place[:, None]) + 1, 0)
    return _IndexSet(tuple(dests), keys, np.pad(pred, ((0, 0), (1, 0))))


def _box(counts: Sequence[int]) -> _IndexSet:
    """Every count vector up to ``counts``, over its support; the top corner is last."""
    dests = [s for s, c in enumerate(counts) if c > 0]
    shape = tuple(int(counts[s]) + 1 for s in dests)
    return _index_set(dests, np.indices(shape).reshape(len(shape), math.prod(shape)).T)


def _simplex(dest_count: int, total: int) -> _IndexSet:
    """Every count vector over all destinations with at most ``total`` outputs."""
    picks = np.array(list(itertools.combinations_with_replacement(range(dest_count + 1), total)))
    keys = (picks.reshape(len(picks), total, 1) == np.arange(dest_count)).sum(axis=1)
    return _index_set(range(dest_count), keys)


def _plain_views(rows: np.ndarray, masks: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Which views the plain float kernel computes to full precision.

    With m_v user v's mass on the support and M the crowd's total, an
    entry ``W[r]`` is at most e_|r|(m) <= M**|r| / |r|!, and at most
    G = prod (1 + m_v); a nonzero one is at least the product of
    ``pmin_i ** r_i``, where ``pmin_i`` is the crowd's smallest positive
    mass on column i.  While log2 of the ratio of these bounds over the
    index set's ``keys`` is at most ``_PLAIN_SPAN``, nothing needed
    underflows, and an entry that underflows elsewhere moves a needed one
    by at most 2**-174 of it per multiply-add.  The test depends on the
    view alone, never on its batch.
    """
    mass = rows.sum(axis=1)
    sizes = np.arange(1, keys.sum(axis=1).max() + 1)
    with np.errstate(divide="ignore"):
        powers = sizes * np.log2((masks * mass).sum(axis=1))[:, None] - np.cumsum(np.log2(sizes))
    span = np.minimum((masks * np.log2(1.0 + mass)).sum(axis=1), powers.max(axis=1, initial=0.0))
    rare = -np.log2(np.where(rows > 0.0, rows, 1.0))
    worst = np.zeros((masks.shape[0], keys.shape[1]))
    for i in range(keys.shape[1]):
        worst[:, i] = np.where(masks, rare[:, i], 0.0).max(axis=1)
    return span + (worst @ keys.T).max(axis=1) <= _PLAIN_SPAN


def _plain_table(rows: np.ndarray, masks: np.ndarray, pred: np.ndarray) -> np.ndarray:
    table = np.zeros((masks.shape[0], pred.shape[1]))
    table[:, 1] = 1.0
    for v in np.flatnonzero(masks.any(axis=0) & (rows > 0.0).any(axis=1)):
        step = rows[v] * masks[:, v, None]
        grown = table.copy()
        for i, below in enumerate(pred):
            grown += step[:, i, None] * table.take(below, axis=1)
        table = grown
    return table


def _wide_table(rows: np.ndarray, masks: np.ndarray, pred: np.ndarray):
    """The plain recurrence with an integer exponent per entry.

    Entry ``r`` is ``ldexp(table[r], exponent[r])``; each step adds the
    shifted terms after aligning them to the larger exponent and then
    renormalises every mantissa into [0.5, 1).  Nothing leaves the
    float range, so no view is too large or too skewed for it.
    """
    table = np.zeros((masks.shape[0], pred.shape[1]))
    exponent = np.full(table.shape, _ZERO_EXPONENT, dtype=np.int64)
    table[:, 1], exponent[:, 1] = 0.5, 1
    for v in np.flatnonzero(masks.any(axis=0) & (rows > 0.0).any(axis=1)):
        mantissa, power = np.frexp(rows[v] * masks[:, v, None])
        grown, raised = table.copy(), exponent.copy()
        for i, below in enumerate(pred):
            part = mantissa[:, i, None] * table.take(below, axis=1)
            part_exp = np.where(part > 0.0, exponent.take(below, axis=1) + power[:, i, None], _ZERO_EXPONENT)
            common = np.maximum(raised, part_exp)
            grown = np.ldexp(grown, raised - common) + np.ldexp(part, part_exp - common)
            raised = common
        table, shift = np.frexp(grown)
        exponent = raised + shift
    return table, exponent


def _crowd_table(p: np.ndarray, masks: np.ndarray, index: _IndexSet):
    """Crowd-matching tables of V crowds over one index set.

    ``masks`` is a ``(V, n)`` boolean array of crowds.  Entry ``[v, r]``
    of the returned ``(V, E + 1)`` table is the summed weight of the ways
    crowd ``v`` covers each ``index.dests[i]`` exactly ``r_i`` times,
    each covering user contributing ``p[user, dests[i]]``.  One crowd
    user is one step, ``new = W + sum_i a_i * W[pred_i]``.

    Views whose entries fit the float range run that recurrence in plain
    floats; the others run it with an exponent per entry.  Returns
    ``(table, exponent)``: the weight is ``ldexp(table, exponent)``, and
    ``exponent`` is 0 on the plain views.  A view's entries do not
    depend on which other views share the batch.
    """
    rows = p[:, list(index.dests)]
    plain = _plain_views(rows, masks, index.keys)
    table = np.zeros((masks.shape[0], index.pred.shape[1]))
    exponent = np.zeros(table.shape, dtype=np.int64)
    if plain.any():
        table[plain] = _plain_table(rows, masks[plain], index.pred)
    if not plain.all():
        table[~plain], exponent[~plain] = _wide_table(rows, masks[~plain], index.pred)
    return table, exponent


def _view_sums(p: np.ndarray, masks: np.ndarray, index, query: PosteriorQuery, at=-1):
    """The three crowd sums of V views, read off one table per view.

    ``masks`` holds each view's crowd *without* the queried user u, and
    ``index`` is an :class:`_IndexSet` or a bare-output vector c, which
    stands for its box.  For the entry r at column ``at`` (by default the
    last, the top corner c of a box) the sums are, with W the crowd's
    table: ``any_dest = W[r] + sum_i p[u, s_i] W[r - e_i]`` (the whole
    crowd's weight, u included), ``seen = W[r - e_d]`` (0 if d is not
    among the outputs) and ``hidden = W[r]``.  They share a per-entry
    scale: the true values are ``ldexp(x, exponent)``.  A slice ``at``
    reads every entry it covers at once.
    """
    if not isinstance(index, _IndexSet):
        index = _box(index)
    table, exponent = _crowd_table(p, masks, index)
    columns = [at] + [below[at] for below in index.pred]
    common = functools.reduce(np.maximum, (exponent[:, c] for c in columns))
    hidden = np.ldexp(table[:, at], exponent[:, at] - common)
    any_dest = hidden.copy()
    seen = np.zeros_like(hidden)
    for s, c in zip(index.dests, columns[1:]):
        below = np.ldexp(table[:, c], exponent[:, c] - common)
        any_dest += p[query.user, s] * below
        if s == query.dest:
            seen = below
    return any_dest, seen, hidden, common


def _batches(views: int, index: _IndexSet) -> Iterator[slice]:
    """Slices of at most ``BATCH_ENTRIES`` table entries' worth of views."""
    step = max(1, BATCH_ENTRIES // len(index.keys))
    return (slice(lo, lo + step) for lo in range(0, views, step))


def crowd_posteriors(
    p: np.ndarray, masks: np.ndarray, counts: Sequence[int], query: PosteriorQuery
) -> np.ndarray:
    """Posteriors of the query for V views with the same bare outputs.

    Each row of ``masks`` is one view's crowd of unseen inputs, without
    the queried user (whose input is unseen too); ``counts`` is the
    shared bare-output vector.  Views go through the kernel in batches
    of at most ``BATCH_ENTRIES`` table entries; a view's value is the
    same bit for bit in any batch.
    """
    index = _box(counts)
    p_ud = float(p[query.user, query.dest])
    out = np.empty(masks.shape[0])
    for batch in _batches(masks.shape[0], index):
        any_dest, seen, hidden, _ = _view_sums(p, masks[batch], index, query)
        if not np.all(any_dest > 0.0):
            raise ImpossibleObservationError(_IMPOSSIBLE)
        out[batch] = p_ud * (seen + hidden) / any_dest
    return out


def _crowd_mask(n: int, users) -> np.ndarray:
    mask = np.zeros((1, n), dtype=bool)
    mask[0, list(users)] = True
    return mask


def _crowd_weight(p: np.ndarray, mask: np.ndarray, counts: Sequence[int]) -> tuple[float, int]:
    """W[c] of one crowd as ``(x, e)``; the weight is ``ldexp(x, e)``."""
    table, exponent = _crowd_table(p, mask, _box(counts))
    return float(table[0, -1]), int(exponent[0, -1])


def injection_sum(users: Sequence[int], outputs: DestMultiset, p: np.ndarray) -> float:
    """Total weight of ways the crowd could have produced the bare outputs.

    Sums, over subsets T of ``users`` with |T| = |outputs| and over
    assignments of T covering each destination exactly its multiplicity,
    the product of p[v, assigned dest].  Equals the naive sum over
    slot-labeled injections divided by ``duplicate_orderings(outputs)``.
    Read off the crowd-matching table and returned unscaled, so a weight
    above the float range is ``inf`` and one below it is 0.
    """
    x, e = _crowd_weight(p, _crowd_mask(p.shape[0], users), outputs.counts)
    with np.errstate(over="ignore"):
        return float(np.ldexp(x, e))


def view_probability_split(
    scenario: Scenario, view: UnobservedView, query: PosteriorQuery
) -> ViewSplit:
    """Split the probability of an unobserved-input view around the query.

    The queried user must belong to the crowd.  All three components
    share the prefactor accounting for which endpoints were observed;
    the crowd-to-outputs matching weights come from one table of the
    crowd without the queried user.  The prefactor joins the table's
    exponent before anything is unscaled, so a component far below the
    float range reads 0, not the ``nan`` of ``0 * inf``.
    """
    _check_query(scenario, query)
    users = tuple(view.users)
    if query.user not in users:
        raise QueryError("queried user does not have an unobserved input in this view")
    n = scenario.n
    b = scenario.b
    size = len(users)
    out_size = view.outputs.size
    seen_x, seen_e = _scaled_power(b, n - size + out_size)
    hidden_x, hidden_e = _scaled_power(1.0 - b, 2 * size - out_size)
    prefactor = seen_x * hidden_x
    p_ud = float(scenario.p[query.user, query.dest])
    rest = _crowd_mask(n, (v for v in users if v != query.user))
    *sums, exponent = _view_sums(scenario.p, rest, view.outputs.counts, query)
    scale = seen_e + hidden_e + int(exponent[0])
    weights = (prefactor, prefactor * p_ud, prefactor * p_ud)
    with np.errstate(over="ignore"):
        return ViewSplit(*(float(np.ldexp(w * x[0], scale)) for w, x in zip(weights, sums)))


def _scaled_power(base: float, k: int) -> tuple[float, int]:
    """``base ** k`` for ``0 <= base <= 1`` as ``(x, e)``, the value ``ldexp(x, e)``.

    Below the normal float range the power is built by squaring with
    renormalised mantissas, so it never underflows to 0.
    """
    value = base**k
    if value >= sys.float_info.min or base == 0.0:
        return math.frexp(value)
    x, e = 1.0, 0
    square, power = math.frexp(base)
    while k:
        if k & 1:
            x, shift = math.frexp(x * square)
            e += power + shift
        square, shift = math.frexp(square * square)
        power, k = 2 * power + shift, k >> 1
    return x, e


def posterior(scenario: Scenario, observation: Observation, query: PosteriorQuery) -> float:
    """Probability the queried user chose the queried destination, given the view.

    The ratio of :func:`view_probability_split`'s components, taken
    without their shared prefactor ``b^k (1-b)^m`` and in the kernel's
    scaled units: at a few hundred users both the prefactor and the
    crowd sums leave the float range although the view is possible.
    A view that no configuration produces raises, whoever is queried.
    """
    _check_query(scenario, query)
    check_observation(scenario, observation)
    linked = dict(observation.linked)
    seen = 2 * len(linked) + len(observation.input_only) + observation.output_only.size
    unseen = 2 * scenario.n - seen
    if (
        (scenario.b == 0.0 and seen)
        or (scenario.b == 1.0 and unseen)
        or any(scenario.p[v, dest] == 0.0 for v, dest in linked.items())
    ):
        raise ImpossibleObservationError(_IMPOSSIBLE)
    crowd = np.ones((1, scenario.n), dtype=bool)
    crowd[0, list(linked) + list(observation.input_only)] = False
    counts = observation.output_only.counts
    if crowd[0, query.user]:
        crowd[0, query.user] = False
        return float(crowd_posteriors(scenario.p, crowd, counts, query)[0])
    if _crowd_weight(scenario.p, crowd, counts)[0] <= 0.0:
        raise ImpossibleObservationError(_IMPOSSIBLE)
    if query.user in linked:
        return 1.0 if linked[query.user] == query.dest else 0.0
    return float(scenario.p[query.user, query.dest])


def expected_posterior_formula(
    scenario: Scenario, query: PosteriorQuery, limits: SizeLimits | None = None
) -> float:
    """Exact expectation of the posterior, conditioned on the queried choice.

    The observed-input cases contribute b(1-b) p + b^2 up front.  The
    unobserved-input mass is summed in closed form over every crowd
    containing the queried user and every bare-output multiset the crowd
    could cover.  Crowds of k users go through the kernel together, over
    the simplex of count vectors with total at most k, and each term
    ``prefactor * p_ud * matched^2 / with_u`` is read off its entry.
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
    b = scenario.b
    others = [v for v in range(n) if v != u]
    terms = [np.array([b * (1.0 - b) * p_ud, b * b])]
    for crowd_size in range(1, n + 1):
        index = _simplex(scenario.dest_count, crowd_size)
        prefactor = np.array(
            [b ** (n - crowd_size + k) * (1.0 - b) ** (2 * crowd_size - k) for k in range(crowd_size + 1)]
        )[index.keys.sum(axis=1)]
        rests = np.array(list(itertools.combinations(others, crowd_size - 1)), dtype=np.int64)
        masks = np.zeros((len(rests), n), dtype=bool)
        masks[np.arange(len(rests))[:, None], rests] = True
        for batch in _batches(len(masks), index):
            with_u, seen, without_u, exponent = _view_sums(
                scenario.p, masks[batch], index, query, at=slice(1, None)
            )
            matched = seen + without_u
            term = prefactor * p_ud * matched * matched
            live = with_u > 0.0
            terms.append(np.ldexp(term[live] / with_u[live], exponent[live]))
    return fsum(np.concatenate(terms))


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
