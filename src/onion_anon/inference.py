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
batches any number of crowds, in one of two layouts: every crowd over
one shared set (the simplex), or every view over its own box, the boxes
laid end to end, so views with different bare outputs still share a
call.  Either costs O(crowd size x table entries) instead of a
factorial.  A view whose table could leave the float range (a large
crowd, or hundreds of rare bare outputs) runs the same recurrence with
an integer exponent per entry instead.  One driver makes every kernel
call: it sorts views into plain and wide and cuts batches of whole
views, so no batch mixes the two.

Two enumeration oracles, the posterior of a view and its expectation,
cross-check the closed computations.  Each walks one configuration set,
in floats or in exact rationals.
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
    ObservationError,
    QueryError,
    SizeLimitError,
)
from .limits import SizeLimits, current_limits
from .model import (
    DestMultiset,
    Observation,
    Scenario,
    _check_outputs,
    check_observation,
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


def _queried_prior(scenario: Scenario, query: PosteriorQuery) -> float:
    """The prior the expectation conditions on; :class:`ConditioningError` when it is 0."""
    prior = float(scenario.p[query.user, query.dest])
    if prior <= 0.0:
        raise ConditioningError(f"user {query.user} never visits destination {query.dest}")
    return prior


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

# At most this many table entries per kernel call, so memory stays flat
# however many views a caller hands in at once.
BATCH_ENTRIES = 1 << 15

# At most this many entries in one view's table; it admits every view the
# mc limits produce (about 2e5 entries at 40 users and 6 destinations).
TABLE_ENTRIES = 1 << 22

# A view goes through the plain float kernel while log2 of its table's
# span (see _plain_views) stays under this; the rest take the wide kernel.
_PLAIN_SPAN = 900.0

# Exponent of the zero entries of a wide table, far below any real one.
_ZERO_EXPONENT = -(1 << 40)


class _IndexSet(NamedTuple):
    """The count vectors a crowd table covers, in one of two layouts.

    Axis i counts outputs on ``dests[i]``.  A table has a zero sentinel
    column and then one column per entry; ``pred[i]`` maps each column
    to that of the vector one lower on axis i, or to the sentinel where
    that count is 0, and ``origins`` are the columns of zero vectors.

    - *Shared* (``owner`` is None): every crowd of a batch runs over the
      same E vectors ``keys``, one table row per crowd.  This is the
      total-capped simplex of the exact expectation.
    - *Ragged*: view v owns a box of every vector up to its bare outputs,
      and the boxes lie end to end in one table row; ``owner`` maps each
      column to its view, and ``keys`` is None.
    """

    dests: tuple[int, ...]
    keys: np.ndarray | None
    pred: np.ndarray
    origins: np.ndarray
    owner: np.ndarray | None


def _simplex(dest_count: int, total: int) -> _IndexSet:
    """A shared set: every count vector over all destinations with at most ``total`` outputs.

    The vectors are sorted by mixed-radix code, and each predecessor is
    found by binary search on the codes.
    """
    _check_table(math.comb(total + dest_count, dest_count))
    radix = total + 1
    if radix**dest_count > 1 << 62:
        raise SizeLimitError("count vectors too large to index in 64 bits")
    picks = np.array(list(itertools.combinations_with_replacement(range(dest_count + 1), total)))
    keys = (picks.reshape(len(picks), total, 1) == np.arange(dest_count)).sum(axis=1)
    place = radix ** np.arange(dest_count - 1, -1, -1, dtype=np.int64)
    codes = keys @ place
    order = np.argsort(codes)
    keys, codes = keys[order], codes[order]
    pred = np.where(keys.T > 0, np.searchsorted(codes, codes - place[:, None]) + 1, 0)
    return _IndexSet(tuple(range(dest_count)), keys, np.pad(pred, ((0, 0), (1, 0))), np.array([1]), None)


def _check_table(entries: int) -> None:
    if entries > TABLE_ENTRIES:
        raise SizeLimitError(f"a crowd table of {entries} entries exceeds the cap of {TABLE_ENTRIES}")


def _boxes(counts: np.ndarray) -> _IndexSet:
    """A ragged set: one box per row of ``counts``, over the union of their supports.

    Box v holds every vector up to ``counts[v]`` in lexicographic order,
    so its top corner is its last column.  Within a box, axis i has a
    mixed-radix place ``place_i``, and the predecessor of a column is
    that column less ``place_i``.  An axis outside a view's support has
    radix 1 there, so its predecessor is always the sentinel.
    """
    dests = np.flatnonzero(counts.any(axis=0))
    radix = counts[:, dests] + 1
    place = np.cumprod(radix[:, ::-1], axis=1)[:, ::-1] // radix
    sizes = radix.prod(axis=1)
    origins = np.cumsum(sizes) - sizes + 1
    owner = np.repeat(np.arange(len(counts)), sizes)
    column = np.arange(1, len(owner) + 1)
    local = column - origins[owner]
    pred = np.zeros((len(dests), len(owner) + 1), dtype=np.int64)
    for i in range(len(dests)):
        step = place[owner, i]
        pred[i, 1:] = np.where(local // step % radix[owner, i] > 0, column - step, 0)
    return _IndexSet(tuple(dests.tolist()), None, pred, origins, np.pad(owner, (1, 0)))


def _per_entry(values: np.ndarray, index: _IndexSet) -> np.ndarray:
    """Per-view ``values`` in a table's shape: a column per row, or one value per column."""
    return values[:, None] if index.owner is None else values[index.owner]


def _plain_views(p: np.ndarray, masks: np.ndarray, corners: np.ndarray) -> np.ndarray:
    """Which views the plain float kernel computes to full precision.

    ``corners`` holds each view's extreme count vectors, ``(V, K, nd)``:
    a non-negative linear form peaks at one of them.  A view's set spans
    the destinations where its corners are positive.  With m_v user v's
    mass there and M the crowd's total, an entry ``W[r]`` is at most e_|r|(m) <= M**|r| / |r|!, and at most
    G = prod (1 + m_v); a nonzero one is at least the product of
    ``pmin_i ** r_i``, where ``pmin_i`` is the crowd's smallest positive
    mass on column i.  While log2 of the ratio of these bounds over the
    set is at most ``_PLAIN_SPAN``, nothing needed underflows, and an
    entry that underflows elsewhere moves a needed one by at most
    2**-174 of it per multiply-add.  Every quantity is taken per view
    over all destinations, so the test depends on the view alone, never
    on its batch.
    """
    support = (corners > 0).any(axis=1)
    mass = np.broadcast_to(support @ p.T, masks.shape)
    totals = corners.sum(axis=2).max(axis=1)
    sizes = np.arange(1, totals.max(initial=0) + 1)[:, None]
    with np.errstate(divide="ignore"):
        powers = sizes * np.log2(np.einsum("vu,vu->v", masks, mass)) - np.cumsum(np.log2(sizes))[:, None]
    powers = np.where(sizes <= totals, powers, 0.0).max(axis=0, initial=0.0)
    span = np.minimum(np.einsum("vu,vu->v", masks, np.log2(1.0 + mass)), powers)
    rare = -np.log2(np.where(p > 0.0, p, 1.0))
    crowds = np.ascontiguousarray(masks.T)
    worst = np.zeros((masks.shape[0], p.shape[1]))
    for i in range(p.shape[1]):
        worst[:, i] = np.where(crowds, rare[:, i, None], 0.0).max(axis=0, initial=0.0)
    return span + (worst[:, None, :] * corners).sum(axis=2).max(axis=1) <= _PLAIN_SPAN


def _table_shape(masks: np.ndarray, index: _IndexSet) -> tuple[int, ...]:
    columns = index.pred.shape[1]
    return (masks.shape[0], columns) if index.owner is None else (columns,)


def _plain_table(p: np.ndarray, masks: np.ndarray, index: _IndexSet):
    """The recurrence in plain floats; the exponent is 0 everywhere."""
    rows = p[:, list(index.dests)]
    table = np.zeros(_table_shape(masks, index))
    table[..., index.origins] = 1.0
    for v in np.flatnonzero(masks.any(axis=0) & (rows > 0.0).any(axis=1)):
        source = table * _per_entry(masks[:, v], index)
        grown = table.copy()
        for weight, below in zip(rows[v], index.pred):
            grown += weight * source.take(below, axis=-1)
        table = grown
    return table, np.zeros(table.shape, dtype=np.int64)


def _wide_table(p: np.ndarray, masks: np.ndarray, index: _IndexSet):
    """The plain recurrence with an integer exponent per entry.

    Entry ``r`` is ``ldexp(table[r], exponent[r])``; each step adds the
    shifted terms after aligning them to the larger exponent and then
    renormalises every mantissa into [0.5, 1).  Nothing leaves the
    float range, so no view is too large or too skewed for it.
    """
    rows = p[:, list(index.dests)]
    table = np.zeros(_table_shape(masks, index))
    exponent = np.full(table.shape, _ZERO_EXPONENT, dtype=np.int64)
    table[..., index.origins], exponent[..., index.origins] = 0.5, 1
    mantissa, power = np.frexp(rows)
    for v in np.flatnonzero(masks.any(axis=0) & (rows > 0.0).any(axis=1)):
        source = table * _per_entry(masks[:, v], index)
        grown, raised = table.copy(), exponent.copy()
        for i, below in enumerate(index.pred):
            part = mantissa[v, i] * source.take(below, axis=-1)
            part_exp = np.where(part > 0.0, exponent.take(below, axis=-1) + power[v, i], _ZERO_EXPONENT)
            common = np.maximum(raised, part_exp)
            grown = np.ldexp(grown, raised - common) + np.ldexp(part, part_exp - common)
            raised = common
        table, shift = np.frexp(grown)
        exponent = raised + shift
    return table, exponent


def _kernel_batches(p: np.ndarray, masks: np.ndarray, index):
    """Every crowd-kernel call for V crowds: the one driver of the kernel.

    ``masks`` is a ``(V, n)`` boolean array of crowds.  Entry r of view
    v's table is the summed weight of the ways crowd v covers each
    ``dests[i]`` exactly ``r_i`` times, each covering user contributing
    ``p[user, dests[i]]``.  One crowd user u is one step over the whole
    table: with ``source`` the table masked to the views whose crowd
    holds u, ``new = W + sum_i p[u, dests[i]] * source[pred_i]``.  A
    view's predecessors lie in its own row or box, so masking the source
    masks the step, and multiplying by 0 or 1 is exact.

    ``index`` is either the shared simplex, whose corners are ``total``
    on each axis, or bare-output counts (one vector for every view, or
    one row per view), each view's count vector its corner and its box.
    Each view goes to the plain kernel or, where :func:`_plain_views`
    says its table could leave the float range, to the wide one; plain
    and wide views never share a call; a box past ``TABLE_ENTRIES`` is
    refused before anything is built.  Each call takes whole views
    holding at most ``BATCH_ENTRIES`` table entries (or one view), and
    yields ``(views, index, at, table, exponent)``: the rows of
    ``masks`` it ran, its index set, the columns of each view's corner
    (every entry of the simplex), and the weights ``ldexp(table,
    exponent)`` in the layout's shape (``(len(views), E + 1)`` shared,
    ``(E + 1,)`` ragged).  A view's entries do not depend on its batch.
    """
    views, nd = masks.shape[0], p.shape[1]
    shared = isinstance(index, _IndexSet)
    if shared:
        corners = np.broadcast_to(int(index.keys.max()) * np.eye(nd, dtype=np.int64), (views, nd, nd))
        sizes = np.full(views, len(index.keys))
    else:
        # The largest box, found in log2 and counted in Python integers, so no product wraps.
        real = np.asarray(index, dtype=np.float64).reshape(-1, nd)
        largest = real[np.argmax(np.log2(real + 1.0).sum(axis=1))] if len(real) else ()
        _check_table(math.prod(int(c) + 1 for c in largest))
        counts = np.broadcast_to(np.asarray(index, dtype=np.int64), (views, nd))
        corners = counts[:, None, :]
        sizes = (counts + 1).prod(axis=1)
    plain = np.zeros(views, dtype=bool)
    # The plain test's (views, users) arrays stay within the same cap.
    for s in _batches(np.full(views, masks.shape[1])):
        plain[s] = _plain_views(p, masks[s], corners[s])
    for kernel, group in ((_plain_table, np.flatnonzero(plain)), (_wide_table, np.flatnonzero(~plain))):
        for batch in _batches(sizes[group]):
            chosen = group[batch]
            if shared:
                batch_index, at = index, slice(1, None)
            else:
                batch_index, at = _boxes(counts[chosen]), np.cumsum(sizes[chosen])
            yield (chosen, batch_index, at, *kernel(p, masks[chosen], batch_index))


def _read_sums(p: np.ndarray, index: _IndexSet, at, table: np.ndarray, exponent: np.ndarray, query):
    """The three crowd sums of each view, read at the columns ``at``.

    Each table is of a crowd *without* the queried user u.  At entry r
    of a view's table W the sums are ``any_dest = W[r] + sum_i
    p[u, s_i] W[r - e_i]`` (the whole crowd's weight, u included),
    ``seen = W[r - e_d]`` (0 if d is not among the outputs) and
    ``hidden = W[r]``.  They share a per-entry scale, returned last: the
    true values are ``ldexp(x, common)``.
    """
    columns = [at] + [below[at] for below in index.pred]
    common = functools.reduce(np.maximum, (exponent[..., c] for c in columns))
    hidden = np.ldexp(table[..., at], exponent[..., at] - common)
    any_dest = hidden.copy()
    seen = np.zeros_like(hidden)
    for s, c in zip(index.dests, columns[1:]):
        below = np.ldexp(table[..., c], exponent[..., c] - common)
        any_dest += p[query.user, s] * below
        if s == query.dest:
            seen = below
    return any_dest, seen, hidden, common


def _view_sums(p: np.ndarray, masks: np.ndarray, counts, query: PosteriorQuery):
    """The three crowd sums of V views (see :func:`_read_sums`), each at its bare outputs.

    ``counts`` is one vector for every view or one row per view.
    """
    sums = np.zeros((3, masks.shape[0]))
    common = np.zeros(masks.shape[0], dtype=np.int64)
    for views, *kernel in _kernel_batches(p, masks, counts):
        *sums[:, views], common[views] = _read_sums(p, *kernel, query)
    return (*sums, common)


def _batches(sizes: np.ndarray) -> Iterator[slice]:
    """Runs of whole views holding at most ``BATCH_ENTRIES`` table entries (or one view)."""
    ends = np.cumsum(sizes)
    lo = 0
    while lo < len(sizes):
        base = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, base + BATCH_ENTRIES, side="right")))
        yield slice(lo, hi)
        lo = hi


def crowd_posteriors(p: np.ndarray, masks: np.ndarray, counts, query: PosteriorQuery) -> np.ndarray:
    """Posteriors of the query for V views, each with its own bare outputs.

    Each row of ``masks`` is one view's crowd of unseen inputs, without
    the queried user (whose input is unseen too); ``counts`` holds each
    view's bare-output vector as a ``(V, nd)`` array, or one vector for
    every view.  A view's value is the same bit for bit in any batch.
    """
    any_dest, seen, hidden, _ = _view_sums(p, masks, counts, query)
    if not np.all(any_dest > 0.0):
        raise ImpossibleObservationError(_IMPOSSIBLE)
    return float(p[query.user, query.dest]) * (seen + hidden) / any_dest


def _crowd_mask(n: int, users) -> np.ndarray:
    """One crowd as a ``(1, n)`` mask; a user outside the population or listed twice is an ObservationError."""
    mask = np.zeros((1, n), dtype=bool)
    for v in users:
        if not 0 <= v < n:
            raise ObservationError(f"crowd user {v} out of range")
        if mask[0, v]:
            raise ObservationError(f"crowd user {v} listed twice")
        mask[0, v] = True
    return mask


def _crowd_weight(p: np.ndarray, mask: np.ndarray, counts: Sequence[int]) -> tuple[float, int]:
    """W[c] of one crowd as ``(x, e)``; the weight is ``ldexp(x, e)``."""
    _, _, at, table, exponent = next(_kernel_batches(p, mask, counts))
    return float(table[at[0]]), int(exponent[at[0]])


def injection_sum(users: Sequence[int], outputs: DestMultiset, p: np.ndarray) -> float:
    """Total weight of ways the crowd could have produced the bare outputs.

    Sums, over subsets T of ``users`` with |T| = |outputs| and over
    assignments of T covering each destination exactly its multiplicity,
    the product of p[v, assigned dest].  Equals the naive sum over
    slot-labeled injections divided by ``duplicate_orderings(outputs)``.
    Read off the crowd-matching table and returned unscaled, so a weight
    above the float range is ``inf`` and one below it is 0.
    """
    _check_outputs(p.shape[1], outputs)
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
    _check_outputs(scenario.dest_count, view.outputs)
    n = scenario.n
    b = scenario.b
    rest = _crowd_mask(n, view.users)
    if not rest[0, query.user]:
        raise QueryError("queried user does not have an unobserved input in this view")
    rest[0, query.user] = False
    size = len(view.users)
    out_size = view.outputs.size
    if out_size > size:
        # Only crowd users leave bare outputs, so no configuration shows this view.
        return ViewSplit(0.0, 0.0, 0.0)
    seen_x, seen_e = _scaled_power(b, n - size + out_size)
    hidden_x, hidden_e = _scaled_power(1.0 - b, 2 * size - out_size)
    prefactor = seen_x * hidden_x
    p_ud = float(scenario.p[query.user, query.dest])
    *sums, exponent = _view_sums(scenario.p, rest, view.outputs.counts, query)
    scale = seen_e + hidden_e + exponent[0]
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
    _check_query(scenario, query)
    (limits or current_limits()).check("formula", "formula", scenario.n, scenario.dest_count)
    p_ud = _queried_prior(scenario, query)
    n = scenario.n
    b = scenario.b
    others = [v for v in range(n) if v != query.user]
    terms = [np.array([b * (1.0 - b) * p_ud, b * b])]
    for crowd_size in range(1, n + 1):
        index = _simplex(scenario.dest_count, crowd_size)
        prefactor = np.array(
            [b ** (n - crowd_size + k) * (1.0 - b) ** (2 * crowd_size - k) for k in range(crowd_size + 1)]
        )[index.keys.sum(axis=1)]
        rests = np.array(list(itertools.combinations(others, crowd_size - 1)), dtype=np.int64)
        masks = np.zeros((len(rests), n), dtype=bool)
        masks[np.arange(len(rests))[:, None], rests] = True
        for _, *kernel in _kernel_batches(scenario.p, masks, index):
            with_u, seen, without_u, exponent = _read_sums(scenario.p, *kernel, query)
            matched = seen + without_u
            term = prefactor * p_ud * matched * matched
            live = with_u > 0.0
            terms.append(np.ldexp(term[live] / with_u[live], exponent[live]))
    return fsum(np.concatenate(terms))


# ---------------------------------------------------------------------------
# Enumeration oracles


def _view_keys(codes: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Integer key of each view, from ``(..., n)`` per-user codes and ``(..., nd)`` bare outputs.

    User v's code is its destination when linked, nd when only its input
    was seen, and nd + 1 otherwise; the codes and the bare-output counts
    are digits in bases nd + 2 and n + 1.  The key fits in 64 bits while
    ``(nd + 2)**n * (n + 1)**nd`` does.
    """
    n, nd = codes.shape[-1], counts.shape[-1]
    user_place = (nd + 2) ** np.arange(n, dtype=np.int64)
    count_place = (n + 1) ** np.arange(nd, dtype=np.int64)
    return codes @ user_place * (n + 1) ** nd + counts @ count_place


def _check_oracle_budget(scenario: Scenario, limits: SizeLimits) -> None:
    """SizeLimitError when the oracles' walk passes ``oracle_budget`` configurations.

    The walk covers every nonzero-prior destination assignment under all
    4^n endpoint flags.
    """
    cost = math.prod(np.count_nonzero(scenario.p > 0.0, axis=1).tolist()) * 4**scenario.n
    if cost > limits.oracle_budget:
        raise SizeLimitError(
            f"oracle enumeration needs {cost} configurations, budget is {limits.oracle_budget}"
        )


def _merge_views(keys, mass, match):
    """Sum the mass parts by key, in walk order; float and Fraction (object) parts alike."""
    unique_keys, inverse = np.unique(np.concatenate(keys), return_inverse=True)
    totals = np.zeros(len(unique_keys), dtype=mass[0].dtype)
    matches = np.zeros_like(totals)
    np.add.at(totals, inverse, np.concatenate(mass))
    np.add.at(matches, inverse, np.concatenate(match))
    return unique_keys, totals, matches


# Endpoint-flag rows per block of the oracles' walk (every flag set at
# n <= 8), and buffered rows that trigger a merge of the partial sums.
_FLAG_BLOCK = 1 << 16
_COMPACT_AT = 1 << 21


def _mass_by_view(scenario: Scenario, u: int, d: int, exact: bool):
    """Group the configuration space by view, in floats or in exact rationals.

    Returns three aligned arrays, sorted by :func:`_view_keys`: the key
    of every view some configuration produces, its total prior mass, and
    the mass of its configurations where user ``u`` heads to ``d``.
    The walk runs over the 4^n endpoint flags in blocks of ``_FLAG_BLOCK``
    rows and, within a block, over the nonzero-prior destination
    assignments, one vectorized block per assignment; partial results are
    compacted every ``_COMPACT_AT`` rows, so memory is bounded by those two
    sizes and the number of distinct views, not by 4^n.  With ``exact`` the masses are
    Fractions (float inputs are dyadic rationals, so nothing is lost),
    summed in the same order.
    """
    n = scenario.n
    nd = scenario.dest_count
    if (nd + 2) ** n * (n + 1) ** nd > 2**62:
        raise SizeLimitError("view encoding would overflow 64 bits at this size")
    one_hot = np.eye(nd)
    # A configuration's prior is its destinations' product times
    # by_count[k], k the number of its endpoints observed.
    if exact:
        rows = [[Fraction(x) for x in row] for row in scenario.p.tolist()]
        b = Fraction(scenario.b)
        by_count = np.array([b**k * (1 - b) ** (2 * n - k) for k in range(2 * n + 1)], dtype=object)
    else:
        rows = scenario.p.tolist()
        k = np.arange(2 * n + 1)
        by_count = np.power(scenario.b, k) * np.power(1.0 - scenario.b, 2 * n - k)

    supports = [np.flatnonzero(row > 0.0) for row in scenario.p]
    keys_parts: list[np.ndarray] = []
    mass_parts: list[np.ndarray] = []
    match_parts: list[np.ndarray] = []
    buffered = 0
    for start in range(0, 4**n, _FLAG_BLOCK):
        flags = np.arange(start, min(start + _FLAG_BLOCK, 4**n))[:, None] >> np.arange(2 * n) & 1 == 1
        in_flags, out_flags = flags[:, 0::2], flags[:, 1::2]
        observed = flags.sum(axis=1)
        both = in_flags & out_flags
        # Bare-output counts come from a float product: BLAS runs it, and
        # sums of at most n ones are exact.
        bare = (~in_flags & out_flags).astype(float)
        silent = np.where(in_flags, nd, nd + 1)
        for assignment in itertools.product(*supports):
            counts = (bare @ one_hot[list(assignment)]).astype(np.int64)
            keys_parts.append(_view_keys(np.where(both, assignment, silent), counts))
            weight = (math.prod(rows[v][a] for v, a in enumerate(assignment)) * by_count)[observed]
            mass_parts.append(weight)
            match_parts.append(weight if assignment[u] == d else np.zeros_like(weight))
            buffered += len(weight)
            if buffered >= _COMPACT_AT:
                keys_parts, mass_parts, match_parts = (
                    [part] for part in _merge_views(keys_parts, mass_parts, match_parts)
                )
                buffered = len(keys_parts[0])
    unique_keys, totals, matches = _merge_views(keys_parts, mass_parts, match_parts)
    live = totals > 0
    return unique_keys[live], totals[live], matches[live]


def posterior_oracle(
    scenario: Scenario,
    observation: Observation,
    query: PosteriorQuery,
    exact: bool = False,
    limits: SizeLimits | None = None,
) -> float | Fraction:
    """Posterior by brute force: walk the configurations, match the view.

    Both arithmetics walk the same configurations (see
    :func:`_mass_by_view`) under the oracle ceiling on users and
    destinations.  With ``exact=True`` the result is a Fraction; that
    walk adds one Fraction per configuration, so it is also held to
    ``oracle_budget``.
    """
    limits = limits or current_limits()
    _check_query(scenario, query)
    check_observation(scenario, observation)
    limits.check("oracle", "oracle", scenario.n, scenario.dest_count)
    if exact:
        _check_oracle_budget(scenario, limits)
    keys, totals, matches = _mass_by_view(scenario, query.user, query.dest, exact)
    codes = [scenario.dest_count + 1] * scenario.n
    for v, dest in observation.linked:
        codes[v] = dest
    for v in observation.input_only:
        codes[v] = scenario.dest_count
    wanted = _view_keys(np.array(codes), np.array(observation.output_only.counts))
    where = int(np.searchsorted(keys, wanted))
    if where >= len(keys) or keys[where] != wanted:
        raise ImpossibleObservationError("no configuration matches the observation")
    value = matches[where] / totals[where]
    return value if exact else float(value)


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
    collapses to sum(match^2 / total) / p[u, d].  Both arithmetics walk
    the same configurations and are held to one ``oracle_budget``.
    """
    limits = limits or current_limits()
    _check_query(scenario, query)
    p_ud = _queried_prior(scenario, query)
    _check_oracle_budget(scenario, limits)
    _, totals, matches = _mass_by_view(scenario, query.user, query.dest, exact)
    terms = (matches * matches / totals).tolist()
    return sum(terms) / Fraction(p_ud) if exact else fsum(terms) / p_ud
