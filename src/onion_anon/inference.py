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
queried user, built one user at a time.  A kernel call whose tables could
leave the float range (a large crowd, or hundreds of rare bare outputs)
runs the same recurrence with an integer exponent per entry instead.
That wide kernel gives the plain kernel's bits wherever plain floats
suffice, so one bound per call chooses between them for speed alone.

A posterior reads the box of every vector up to its bare outputs c at
the corner c, which serves all three sums it needs (the whole crowd's
weight, and the queried user's output seen or hidden).  One driver
batches any number of views, each over its own box, the boxes laid end
to end, so views with different bare outputs still share a call; it
costs O(crowd size x table entries) instead of a factorial.

The exact expectation reads every crowd's table at every entry of the
simplex of vectors with total at most the crowd size.  Its crowds form
a subset lattice: a crowd's table is its parent's (the crowd less its
last member) after one more user, and each smaller simplex is a prefix
of the population's.  The lattice is walked depth first in blocks of
sibling crowds, each block's terms summed as it is built, so every
crowd costs one user step and memory holds about one block per level.
The generic sampler reads a small population's posteriors off one such
walk, kept whole (:func:`crowd_table`), instead of building the tables
of its sampled views.

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

# A kernel call runs in plain floats while log2 of its tables' span (see
# _runs_plain) stays under this, and wide otherwise, with the same bits.
_PLAIN_SPAN = 900.0

# Exponent of the zero entries of a wide table, far below any real one.
_ZERO_EXPONENT = -(1 << 40)


class _IndexSet(NamedTuple):
    """The count vectors of a batch of views: each view's box, laid end to end.

    Axis i counts outputs on ``dests[i]``.  A table has a zero sentinel
    column and then one column per entry; ``pred[i]`` maps each column
    to that of the vector one lower on axis i, or to the sentinel where
    that count is 0.  View v's box holds every vector up to its bare
    outputs and starts at column ``origins[v]``, its zero vector;
    ``owner`` maps each column to its view.
    """

    dests: tuple[int, ...]
    pred: np.ndarray
    origins: np.ndarray
    owner: np.ndarray


class _Simplex(NamedTuple):
    """Count vectors with a capped total: column c is ``keys[c - 1]``, and ``pred`` is as for :class:`_IndexSet`."""

    keys: np.ndarray
    pred: np.ndarray


def _simplex(dest_count: int, total: int) -> _Simplex:
    """Every count vector over ``dest_count`` destinations with at most ``total`` outputs.

    Vector r is the subset {S_j + j - 1} of range(total + d), S_j the sum of
    its first j counts, and sits at that subset's colex rank
    ``sum_j C(S_j + j - 1, j)``.  Lowering axis i lowers S_j for every
    j >= i, so r - e_i ranks ``sum_{j >= i} C(S_j + j - 2, j - 1)`` lower.
    The rank does not depend on ``total``, and colex order lists smaller
    totals first, so the simplex of total t is the first C(t + d, d)
    vectors of any larger one.
    """
    _check_table(math.comb(total + dest_count, dest_count))
    # itertools lists the descending subsets in reverse colex order.
    flat = itertools.chain.from_iterable(itertools.combinations(range(total + dest_count - 1, -1, -1), dest_count))
    # Column i holds S_{i+1} until the loop below turns it into the count on axis i.
    keys = np.fromiter(flat, np.int64).reshape(-1, dest_count)[::-1, ::-1] - np.arange(dest_count)
    # steps[j - 1, s] = C(s + j - 2, j - 1): what lowering S_j from s takes off the rank.
    steps = _colex_steps(dest_count, total)
    column = np.arange(1, len(keys) + 1)
    below = np.zeros(len(keys), dtype=np.int64)
    # int64, as the kernels' take would copy any other index type on every step.
    pred = np.zeros((dest_count, len(keys) + 1), dtype=np.int64)
    # One axis at a time from the last, so no (vectors, nd) temporary is alive.
    for i in range(dest_count - 1, -1, -1):
        below += steps[i].take(keys[:, i])
        if i:
            keys[:, i] -= keys[:, i - 1]
        pred[i, 1:] = np.where(keys[:, i] > 0, column - below, 0)
    return _Simplex(keys, pred)


def _colex_steps(dest_count: int, total: int) -> np.ndarray:
    """``C(s + j - 1, j)`` at ``[j, s]``, for ``j <= dest_count`` and ``s <= total`` (1 at j = 0)."""
    return np.array([[math.comb(s + j - 1, j) if j else 1 for s in range(total + 1)] for j in range(dest_count + 1)])


def _colex_rank(steps: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Each count vector's graded colex rank ``sum_j C(S_j + j - 1, j)``: its column in :func:`_simplex`, less 1.

    ``counts`` holds the vectors along its last axis, and ``steps`` is
    :func:`_colex_steps` over their destinations and at least their totals.
    """
    rank = np.zeros(counts.shape[:-1], dtype=np.int64)
    total = np.zeros(counts.shape[:-1], dtype=np.intp)
    for j in range(counts.shape[-1]):
        total += counts[..., j]
        rank += steps[j + 1].take(total)
    return rank


def _check_table(entries: int) -> None:
    if entries > TABLE_ENTRIES:
        raise SizeLimitError(f"a crowd table of {entries} entries exceeds the cap of {TABLE_ENTRIES}")


def _boxes(counts: np.ndarray) -> _IndexSet:
    """One box per row of ``counts``, over the union of their supports.

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
    # Digit i of ``local`` is nonzero exactly where local mod (place_i radix_i) >= place_i.
    outer = place * radix
    pred = np.zeros((len(dests), len(owner) + 1), dtype=np.int64)
    for i in range(len(dests)):
        step = place[owner, i]
        pred[i, 1:] = np.where(local % outer[owner, i] >= step, column - step, 0)
    return _IndexSet(tuple(dests.tolist()), pred, origins, np.pad(owner, (1, 0)))


def _runs_plain(rows: np.ndarray, corners: np.ndarray) -> bool:
    """Whether the plain float kernel builds a call's tables to full precision.

    ``rows`` holds the masses of the union of the call's crowds, and
    ``corners`` every view's extreme count vectors, ``(K, nd)``: a
    non-negative linear form peaks at one of them.  The tables span the
    destinations where some corner is positive.  With m_v user v's mass
    there and M the union's total, an entry ``W[r]`` is at most
    e_|r|(m) <= M**|r| / |r|!, and at most G = prod (1 + m_v); a nonzero
    one is at least the product of ``pmin_i ** r_i``, where ``pmin_i`` is
    the union's smallest positive mass on column i.  While log2 of the
    ratio of these bounds over the corners is at most ``_PLAIN_SPAN``,
    nothing needed underflows, and an entry that underflows elsewhere
    moves a needed one by at most 2**-174 of it per multiply-add.  A view
    of the call has a smaller crowd, support and corner set, so each bound
    holds for it.  Either kernel gives every view the same bits; the
    choice only sets how fast the call runs.
    """
    mass = rows[:, corners.any(axis=0)].sum(axis=1)
    sizes = np.arange(1, corners.sum(axis=1).max(initial=0) + 1)
    with np.errstate(divide="ignore"):
        powers = (sizes * np.log2(mass.sum()) - np.cumsum(np.log2(sizes))).max(initial=0.0)
    span = min(float(np.log2(1.0 + mass).sum()), float(powers))
    worst = -np.log2(np.where(rows > 0.0, rows, 1.0)).min(axis=0, initial=0.0)
    return span + float((corners @ worst).max(initial=0.0)) <= _PLAIN_SPAN


def _plain_step(table: np.ndarray, source: np.ndarray, weights, pred: np.ndarray) -> None:
    """Add one crowd user to ``table``, in place, in plain floats.

    ``table += sum_i weights[i] * source[pred_i]``, one axis at a time.
    ``source`` is the table before the step, masked to the views whose
    crowd holds the user (a ragged batch), or a block's parent tables
    (the lattice); ``weights[i]`` is the user's mass on axis i, a scalar
    or one value per table row.
    """
    for weight, below in zip(weights, pred):
        table += weight * source.take(below, axis=-1)


def _wide_step(table, exponent, source, source_exp, mantissas, powers, pred: np.ndarray):
    """:func:`_plain_step` with an integer exponent per entry; returns the new ``(table, exponent)``.

    Entry ``r`` is ``ldexp(table[r], exponent[r])``, and the user's mass
    on axis i is ``ldexp(mantissas[i], powers[i])``.  Each axis adds its
    shifted terms after aligning them to the larger exponent; the sum's
    mantissas are then renormalised into [0.5, 1).  Nothing leaves the
    float range, so no crowd is too large or too skewed for it.
    """
    for mantissa, power, below in zip(mantissas, powers, pred):
        part = mantissa * source.take(below, axis=-1)
        part_exp = np.where(part > 0.0, source_exp.take(below, axis=-1) + power, _ZERO_EXPONENT)
        common = np.maximum(exponent, part_exp)
        table = np.ldexp(table, exponent - common) + np.ldexp(part, part_exp - common)
        exponent = common
    table, shift = np.frexp(table)
    return table, exponent + shift


def _widen(table: np.ndarray):
    """A plain table as ``(mantissa, exponent)``, zero entries at ``_ZERO_EXPONENT``."""
    mantissa, exponent = np.frexp(table)
    return mantissa, np.where(mantissa > 0.0, exponent.astype(np.int64), _ZERO_EXPONENT)


def _ragged_table(p: np.ndarray, masks: np.ndarray, index: _IndexSet, wide: bool):
    """A ragged batch's ``(table, exponent)``: in plain floats (``exponent`` None), or wide (see :func:`_wide_step`).

    Whether each entry's view holds each stepped user is gathered once
    for the batch; a batch of one view holds every user it steps.
    """
    rows = p[:, list(index.dests)]
    table = np.zeros(index.pred.shape[1])
    table[index.origins] = 1.0
    exponent = None
    if wide:
        table, exponent = _widen(table)
        mantissas, powers = np.frexp(rows)
    users = np.flatnonzero(masks.any(axis=0) & (rows > 0.0).any(axis=1))
    if len(masks) > 1:
        held = np.ascontiguousarray(masks.T[users]).take(index.owner, axis=1)
    else:
        held = np.ones((len(users), 1), dtype=bool)
    for v, mask in zip(users, held):
        source = table * mask
        if wide:
            table, exponent = _wide_step(table, exponent, source, exponent, mantissas[v], powers[v], index.pred)
        else:
            _plain_step(table, source, rows[v], index.pred)
    return table, exponent


def _kernel_batches(p: np.ndarray, masks: np.ndarray, counts):
    """Every crowd-kernel call for V views, each at its own bare outputs.

    ``masks`` is a ``(V, n)`` boolean array of crowds, and ``counts``
    holds bare-output counts, one vector for every view or one row per
    view; each view's count vector is its box's corner.  Entry r of view
    v's table is the summed weight of the ways crowd v covers each
    ``dests[i]`` exactly ``r_i`` times, each covering user contributing
    ``p[user, dests[i]]``.  One crowd user u is one step over the whole
    table (:func:`_plain_step`), its source the table masked to the
    views whose crowd holds u.  A view's predecessors lie in its own
    box, so masking the source masks the step, and multiplying by 0 or 1
    is exact.

    A box past ``TABLE_ENTRIES`` is refused before anything is built.
    Each call takes whole views holding at most ``BATCH_ENTRIES`` table
    entries (or one view), and runs plain or, where :func:`_runs_plain`
    says the union of its crowds and corners could leave the float range,
    wide.  It yields ``(views, dests, pred, at, table, exponent)``: the
    rows of ``masks`` it ran, the batch's axes and predecessors, the
    column of each view's corner, and the weights ``ldexp(table,
    exponent)``, ``exponent`` None for a plain batch.  A view's weights
    do not depend on its batch, though their scaled pair may.
    """
    views, nd = masks.shape[0], p.shape[1]
    # The largest box, found in log2 and counted in Python integers, so no product wraps.
    real = np.asarray(counts, dtype=np.float64).reshape(-1, nd)
    largest = real[np.argmax(np.log2(real + 1.0).sum(axis=1))] if len(real) else ()
    _check_table(math.prod(int(c) + 1 for c in largest))
    counts = np.broadcast_to(np.asarray(counts, dtype=np.int64), (views, nd))
    sizes = (counts + 1).prod(axis=1)
    for batch in _batches(sizes):
        wide = not _runs_plain(p[masks[batch].any(axis=0)], counts[batch])
        index = _boxes(counts[batch])
        table = _ragged_table(p, masks[batch], index, wide)
        yield (batch, index.dests, index.pred, np.cumsum(sizes[batch]), *table)


def _read_sums(p: np.ndarray, dests, pred: np.ndarray, at, table: np.ndarray, exponent, query):
    """The three crowd sums of each view, read at the columns ``at``.

    Each table is of a crowd *without* the queried user u.  At entry r
    of a view's table W the sums are ``any_dest = W[r] + sum_i
    p[u, s_i] W[r - e_i]`` (the whole crowd's weight, u included),
    ``seen = W[r - e_d]`` (0 if d is not among the outputs) and
    ``hidden = W[r]``.  They share a per-entry scale, returned last: the
    true values are ``ldexp(x, common)``.  A plain table (``exponent``
    None) needs no alignment, and its scale is 0.
    """
    columns = [at] + [below[at] for below in pred]
    if exponent is None:
        common = 0
        parts = [table[..., c] for c in columns]
    else:
        common = functools.reduce(np.maximum, (exponent[..., c] for c in columns))
        parts = [np.ldexp(table[..., c], exponent[..., c] - common) for c in columns]
    hidden = parts[0]
    any_dest = hidden.copy()
    seen = np.zeros_like(hidden)
    for s, below in zip(dests, parts[1:]):
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
    *_, at, table, exponent = next(_kernel_batches(p, mask, counts))
    return float(table[at[0]]), 0 if exponent is None else int(exponent[at[0]])


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


def _extend(table: np.ndarray, width: int, fill) -> np.ndarray:
    """Rows of ``table`` padded with ``fill`` to ``width`` columns."""
    out = np.full((len(table), width), fill, dtype=table.dtype)
    out[:, : table.shape[1]] = table
    return out


def _lattice_block(p: np.ndarray, users, source: np.ndarray, source_exp, width: int, pred: np.ndarray):
    """Child tables: each row of ``source`` zero-extended to ``width`` columns, after one step with its user.

    The step is wide where the parents are (``source_exp`` not None).
    """
    weights = p[users].T[:, :, None]
    table = _extend(source, width, 0.0)
    if source_exp is None:
        _plain_step(table, source, weights, pred[:, :width])
        return table, None
    mantissas, powers = np.frexp(weights)
    exponent = _extend(source_exp, width, _ZERO_EXPONENT)
    return _wide_step(table, exponent, source, source_exp, mantissas, powers, pred[:, :width])


def _crowd_lattice(p: np.ndarray, others: np.ndarray, pred: np.ndarray):
    """Every crowd drawn from ``others`` with its table, depth first, in blocks.

    A crowd of k - 1 members (k counting the queried user, who is in no
    table) has a table over the simplex of total k, whose predecessors
    are the first ``C(k + nd, nd) + 1`` columns of ``pred``.  Crowds are
    the combinations of ``others``.  A crowd's parent is the same crowd
    less its last member, and its table is the parent's, zero-extended
    to the larger simplex, after one step with that member; members thus
    join in ascending order, one step each.  The children of a block
    are cut into blocks of at most ``BATCH_ENTRIES`` entries (or one
    crowd), so memory stays at about one block per level.  Yields
    ``(k, table, exponent, masks)`` per block, ``exponent`` None for a
    plain one, and ``masks`` the block's crowds as rows over the population.

    The whole walk runs in one kernel: plain where :func:`_runs_plain`
    passes for all of ``others`` at total n, which bounds every crowd at
    every size, and wide otherwise.
    """
    n, nd = p.shape

    def grow(size, table, exponent, masks, last):
        yield size, table, exponent, masks
        spare = len(others) - 1 - last
        parents = np.repeat(np.arange(len(last)), spare)
        added = np.arange(len(parents)) - np.repeat(np.cumsum(spare) - spare - last - 1, spare)
        width = math.comb(size + 1 + nd, nd) + 1
        step = max(1, BATCH_ENTRIES // width)
        for lo in range(0, len(parents), step):
            rows, new = parents[lo : lo + step], added[lo : lo + step]
            crowds = masks[rows]
            crowds[np.arange(len(rows)), others[new]] = True
            source_exp = None if exponent is None else exponent[rows]
            child = _lattice_block(p, others[new], table[rows], source_exp, width, pred)
            yield from grow(size + 1, *child, crowds, new)

    # The crowd of the queried user alone: the empty table, 1 at the zero vector.
    root = np.zeros((1, nd + 2))
    root[:, 1] = 1.0
    plain = _runs_plain(p[others], n * np.eye(nd, dtype=np.int64))
    yield from grow(1, *((root, None) if plain else _widen(root)), np.zeros((1, n), dtype=bool), np.array([-1]))


def lattice_entries(n: int, dest_count: int, cap: int | None = None) -> int | None:
    """Entries of every crowd's table over the subset lattice: ``sum_k C(n - 1, k - 1) C(k + nd, nd)``.

    A crowd of k - 1 of the other n - 1 users (k counting the queried
    user) has a table over the simplex of total k.  None, before the sum,
    where the 2**(n - 1) crowds alone pass ``cap``.
    """
    if cap is not None and n - 1 >= cap.bit_length():
        return None
    return sum(math.comb(n - 1, k - 1) * math.comb(k + dest_count, dest_count) for k in range(1, n + 1))


class CrowdTable(NamedTuple):
    """The posterior of every view whose queried input is unseen, by crowd and bare outputs.

    A crowd's code is the sum of ``bits`` over its users (the queried
    user's bit is 0).  Its posteriors start at ``values[starts[code]]``
    and run over its simplex in graded colex order (:func:`_colex_rank`
    with ``steps``).  A view no configuration produces holds nan.
    """

    bits: np.ndarray
    starts: np.ndarray
    steps: np.ndarray
    values: np.ndarray

    def posteriors(self, masks: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """What :func:`crowd_posteriors` gives for these crowds and bare outputs, bit for bit."""
        values = self.values[self.starts[masks @ self.bits] + _colex_rank(self.steps, counts)]
        if np.isnan(values).any():
            raise ImpossibleObservationError(_IMPOSSIBLE)
        return values


def crowd_table(p: np.ndarray, query: PosteriorQuery) -> CrowdTable:
    """Every crowd's posteriors at every bare-output vector, off one walk of :func:`_crowd_lattice`.

    It holds :func:`lattice_entries` values.  Each crowd's table holds
    what the ragged kernel builds for any of its views: the same users
    step in the same order, an axis outside a view's support or a user
    outside its crowd adds only zeros, and the plain and wide kernels give
    the same bits, whichever each path runs.  The sums are read and
    divided as :func:`crowd_posteriors` does, so each posterior has the
    same bits.
    """
    n, nd = p.shape
    simplex = _simplex(nd, n)
    others = np.array([v for v in range(n) if v != query.user], dtype=np.int64)
    bits = np.zeros(n, dtype=np.int64)
    bits[others] = 1 << np.arange(n - 1)
    starts = np.zeros(1 << (n - 1), dtype=np.int64)
    values = np.empty(lattice_entries(n, nd))
    p_ud = float(p[query.user, query.dest])
    filled = 0
    for _, table, exponent, masks in _crowd_lattice(p, others, simplex.pred):
        width = table.shape[1]
        any_dest, seen, hidden, _ = _read_sums(p, range(nd), simplex.pred[:, :width], slice(1, None), table, exponent, query)
        block = values[filled : filled + any_dest.size].reshape(any_dest.shape)
        # any_dest >= hidden + p_ud * seen, so an impossible view is 0 / 0.
        with np.errstate(invalid="ignore"):
            np.divide(p_ud * (seen + hidden), any_dest, out=block)
        starts[masks @ bits] = filled + np.arange(len(table)) * (width - 1)
        filled += block.size
    return CrowdTable(bits, starts, _colex_steps(nd, n), values)


def expected_posterior_formula(
    scenario: Scenario, query: PosteriorQuery, limits: SizeLimits | None = None
) -> float:
    """Exact expectation of the posterior, conditioned on the queried choice.

    The observed-input cases contribute b(1-b) p + b^2 up front.  The
    unobserved-input mass is summed in closed form over every crowd
    containing the queried user and every bare-output multiset the crowd
    could cover.  The crowds' tables grow over the subset lattice
    (:func:`_crowd_lattice`), one user step per crowd, inside the
    simplex of the whole population, held to ``formula_budget`` lattice
    units (:func:`lattice_entries` times nd) before any table exists.
    Each block's terms ``prefactor * p_ud * matched^2 / with_u`` are read
    off its entries as it is built, and stream into one exactly rounded
    ``fsum``.
    """
    _check_query(scenario, query)
    n, nd = scenario.n, scenario.dest_count
    budget = (limits or current_limits()).formula_budget
    entries = lattice_entries(n, nd, budget // nd)
    if entries is None or entries * nd > budget:
        units = f"at least 2**{n - 1} * {nd}" if entries is None else entries * nd
        raise SizeLimitError(f"the formula needs {units} lattice units, budget is {budget}")
    p_ud = _queried_prior(scenario, query)
    b = scenario.b
    simplex = _simplex(nd, n)
    totals = simplex.keys.sum(axis=1)
    # by_total[k][t]: p_ud times the prior of the endpoints seen when a crowd of k leaves t bare outputs.
    by_total = [
        np.array([b ** (n - k + t) * (1.0 - b) ** (2 * k - t) for t in range(k + 1)]) * p_ud for k in range(n + 1)
    ]
    others = np.array([v for v in range(n) if v != query.user], dtype=np.int64)

    def terms():
        yield [b * (1.0 - b) * p_ud, b * b]
        for size, table, exponent, _ in _crowd_lattice(scenario.p, others, simplex.pred):
            width = table.shape[1]
            with_u, seen, without_u, common = _read_sums(
                scenario.p, range(nd), simplex.pred[:, :width], slice(1, None), table, exponent, query
            )
            matched = seen + without_u
            term = by_total[size][totals[: width - 1]] * matched * matched
            live = with_u > 0.0
            quotient = term[live] / with_u[live]
            yield (quotient if exponent is None else np.ldexp(quotient, common[live])).tolist()

    return fsum(itertools.chain.from_iterable(terms()))


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


def _mass_by_view(scenario: Scenario, u: int, d: int, exact: bool, limits: SizeLimits | None):
    """Group the configuration space by view, in floats or in exact rationals.

    Returns three aligned arrays, sorted by :func:`_view_keys`: the key
    of every view some configuration produces, its total prior mass, and
    the mass of its configurations where user ``u`` heads to ``d``.
    The walk runs over the 4^n endpoint flags in blocks of ``_FLAG_BLOCK``
    rows and, within a block, over the nonzero-prior destination
    assignments, one vectorized block per assignment; partial results are
    compacted every ``_COMPACT_AT`` rows, so memory is bounded by those two
    sizes and the number of distinct views, not by 4^n.  The walk's
    configurations are held to ``oracle_budget``; where the flags alone
    pass it, none is counted.  With ``exact`` the masses are Fractions
    (float inputs are dyadic rationals, so nothing is lost), summed in
    the same order.
    """
    n, nd, budget = scenario.n, scenario.dest_count, (limits or current_limits()).oracle_budget
    supports = [np.flatnonzero(row > 0.0) for row in scenario.p]
    cost = None if 2 * n >= budget.bit_length() else math.prod(map(len, supports)) * 4**n
    if cost is None or cost > budget:
        needs = f"at least 4**{n}" if cost is None else cost
        raise SizeLimitError(f"oracle enumeration needs {needs} configurations, budget is {budget}")
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
    :func:`_mass_by_view`) and are held to one ``oracle_budget``.  With
    ``exact=True`` the result is a Fraction.
    """
    _check_query(scenario, query)
    check_observation(scenario, observation)
    keys, totals, matches = _mass_by_view(scenario, query.user, query.dest, exact, limits)
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
    _check_query(scenario, query)
    p_ud = _queried_prior(scenario, query)
    _, totals, matches = _mass_by_view(scenario, query.user, query.dest, exact, limits)
    terms = (matches * matches / totals).tolist()
    return sum(terms) / Fraction(p_ud) if exact else fsum(terms) / p_ud
