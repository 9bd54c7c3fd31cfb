"""Binomial masses and an exact binomial inverse CDF.

:func:`masses` computes Binomial(n, q) masses on a window of outcomes,
relative to the mode's entry of 1.0, by ratio updates outward from the
mode; :func:`window_rows` takes the same steps for many n at once, one
row each.  They build every binomial table in the package, and only
this module normalises them:
:func:`binomial_weights` divides the full support by its sum, each CDF
table divides its window by its running total, and :func:`window_rows`
divides each row's window by its sum.  A table is built from +, -, *, /
and ``sqrt`` alone, so its bits do not depend on the platform's libm.

:func:`ppf` inverts the CDF: for each uniform variate ``u`` it returns
the smallest ``k`` with ``P(X <= k) >= u``, and ``n`` at ``u == 1``,
the usual convention for a discrete quantile.

The CDF tables are windows around the mean that leave out at most
``exp(-_TAIL_LOG)`` of probability on each side, far below the
2**-54 resolution of the variates, and end at exactly 1.

When ``n`` varies per draw, each draw has a stride S, a power of two
near the square root of its window's width that depends on its (n, q)
alone, and a table is built only at its anchor, the multiple of S
nearest n: ``a = (n + S/2) & -S``.  X_{m+1} is X_m plus a Bernoulli(q),
so the quantile of m + 1 is that of m or one more, and that of m - 1
that of m or one less.  From the anchor's quantile k, CDF T and mass f
at k, a draw above its anchor walks up: one step takes ``T -= q f``
(T_{m+1}(k)), moves f to the mass of m + 1 at k, and where ``T < u``
still, adds the mass at k + 1 to T and moves k up by one.  A draw below
its anchor walks down: with g = f (m - k) / (m (1 - q)) the mass of
m - 1 at k, one step takes ``T += q g`` (T_{m-1}(k)), and where
``T - g >= u`` still and k > 0, takes g off T, moves f to the mass at
k - 1 and k down by one; elsewhere f becomes g.  Each draw walks its
own |delta| = |n - a| <= S/2 steps, S/4 on average, so a call costs one
table per distinct anchor plus O(S) per draw, not a table per value of
n.  A draw never depends on which other draws share its call.

Below ``_DIRECT_BELOW`` the tables are short and every n gets one of
its own.  Those tables are memoised (:func:`_small_table`, at most 512
of them, about 7 MB at worst), so a sampler's chunks and strata share
them.  Each carries a guide index (Chen and Asau's indexed search):
with G a power of two at least twice the table's width, slot
``floor(u G)`` names the first entry whose CDF reaches that slot's
start, so one read and one comparison settle almost every draw, and the
rest are bisected within their slot.  The answer is exactly that of
``np.searchsorted(cdf, u, side="left")``.  A per-draw-n call lays the
tables of its distinct n end to end and looks every draw up in one
pass.  From ``_DIRECT_BELOW`` up, a scalar-n call builds its table's
guide only when it has at least one draw per eight table entries; with
fewer, the guide would cost more time than it saves, and several times
the table's bytes, so the draws go through ``np.searchsorted``.
Anchor tables are neither
memoised nor guided: each serves one call, through ``np.searchsorted``.

"Exact" is up to rounding.  A table's CDF is a running sum, so each
entry is off exact arithmetic by at most about one unit of 2**-53 per
entry summed before it (near the square root of that count in
practice: a few hundred units at n = 1e8).  Each step of a walk adds
at most about two units more, one per addition to T: ``T -= q f`` and
``T += f`` up, ``T += q g`` and ``T -= g`` down.  So a walked draw
carries up to about ``2 |delta|`` units beyond its anchor table's.  A
draw can differ from exact arithmetic only where ``u`` lies that close
to a CDF value.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import SizeLimitError

# Each CDF window leaves out at most exp(-_TAIL_LOG) ~ 2e-22 per tail.
_TAIL_LOG = 50.0
# Below this n every varying-n draw gets a table of its own n; from it up
# the anchors are at least 2**_MIN_STRIDE_BITS apart.
_DIRECT_BELOW = 4096
_MIN_STRIDE_BITS = 4
# Largest CDF window built; it grows as sqrt(n), passing this near n = 1.8e11 at q = 1/2.
WINDOW_ENTRIES = 1 << 22


def masses(n: int, q: float, lo: int, hi: int) -> np.ndarray:
    """Binomial(n, q) masses at k = lo..hi relative to the mode's, for a window holding the mode.

    The mode's entry is 1.0 and the rest follow by ratio updates outward
    from it, so every entry is finite for any n and q, with no
    arbitrary precision and no transcendental call.  Each entry equals
    the one at the same k of the full-support vector (``lo=0, hi=n``)
    bit for bit.
    """
    out = np.zeros(hi - lo + 1, dtype=np.float64)
    if n == 0 or q in (0.0, 1.0):
        out[(n if q == 1.0 else 0) - lo] = 1.0
        return out
    mode = min(n, int((n + 1) * q))
    if not lo <= mode <= hi:
        raise ValueError(f"window [{lo}, {hi}] misses the mode {mode}")
    at = mode - lo
    out[at] = 1.0
    odds = q / (1.0 - q)
    # Ratios (n - k) / (k + 1) up and k / (n - k + 1) down, their
    # numerators and denominators counted off directly as floats.
    if mode < hi:
        up = np.arange(n - mode, n - hi, -1, dtype=np.float64) / np.arange(mode + 1, hi + 1, dtype=np.float64)
        np.cumprod(up * odds, out=out[at + 1 :])
    if mode > lo:
        down = np.arange(mode, lo, -1, dtype=np.float64) / np.arange(n - mode + 1, n - lo + 1, dtype=np.float64)
        np.cumprod(down / odds, out=out[at - 1 :: -1])
    return out


def window_rows(n: np.ndarray, q: float) -> tuple[np.ndarray, np.ndarray]:
    """Binomial(n[i], q) for many counts at once, each over its own window.

    Returns ``first`` and a table whose row i holds the masses at
    k = first[i] + j for each column j, divided by the row's sum, and 0
    outside the window that :func:`_window` gives n[i].  The rows line up
    on their modes, so column j - 1 holds k - 1 in every row.
    :class:`SizeLimitError` when the table would pass ``WINDOW_ENTRIES``
    entries, before it is allocated.
    """
    n = np.asarray(n, dtype=np.int64)
    if q in (0.0, 1.0):
        return (n.copy() if q == 1.0 else np.zeros_like(n)), np.ones((len(n), 1))
    count = n.astype(np.float64)
    mode = np.minimum(count, np.floor((count + 1.0) * q))
    mean = count * q
    reach = _reach(mean, q)
    lo = np.maximum(0.0, np.floor(mean - reach))
    hi = np.minimum(count, np.ceil(mean + reach))
    below, above = int((mode - lo).max()), int((hi - mode).max())
    if len(n) * (below + above + 1) > WINDOW_ENTRIES:
        raise SizeLimitError(
            f"Binomial(n, q={q!r}) tables for {len(n)} counts up to n={int(n.max())} need "
            f"{len(n) * (below + above + 1)} entries, over the cap of {WINDOW_ENTRIES}"
        )
    # Row m steps outward from its mode as :func:`masses` does, from k
    # clipped to 0..m: a step up from m or down from 0 multiplies by 0, so
    # the rest of the row stays 0, and nothing overflows.
    m, at = count[:, None], mode[:, None]
    table = np.empty((len(count), below + above + 1))
    table[:, below] = 1.0
    odds = q / (1.0 - q)
    if above:
        k = np.minimum(at + np.arange(above, dtype=np.float64), m)
        table[:, below + 1 :] = np.cumprod((m - k) / (k + 1.0) * odds, axis=1)
    if below:
        k = np.maximum(at - np.arange(below, dtype=np.float64), 0.0)
        table[:, below - 1 :: -1] = np.cumprod(k / (m - k + 1.0) / odds, axis=1)
    k = (at - below) + np.arange(below + above + 1)
    table[(k < lo[:, None]) | (k > hi[:, None])] = 0.0
    table /= table.sum(axis=1, keepdims=True)
    return (mode - below).astype(np.int64), table


def binomial_weights(n: int, q: float) -> np.ndarray:
    """Probability masses of Binomial(n, q) as a length n+1 vector: the
    full-support :func:`masses` divided by their sum.

    ValueError for a negative ``n`` or ``q`` outside [0, 1].
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q out of range: {q!r}")
    weights = masses(n, q, 0, n)
    return weights / weights.sum()


def _reach(mean, q: float):
    """How far from a binomial mean each tail past it holds at most exp(-_TAIL_LOG).

    Bernstein's inequality bounds each tail beyond ``t`` from the mean by
    ``exp(-t^2 / (2 (var + t / 3)))``; this is the ``t`` that solves it
    for _TAIL_LOG, for one mean or an array of them.
    """
    return _TAIL_LOG / 3.0 + np.sqrt(_TAIL_LOG**2 / 9.0 + 2.0 * _TAIL_LOG * mean * (1.0 - q))


def _window(n: int, q: float) -> tuple[int, int]:
    """Outcomes outside [lo, hi] carry at most exp(-_TAIL_LOG) per side (see :func:`_reach`).

    :class:`SizeLimitError` when the window holds more than
    ``WINDOW_ENTRIES`` outcomes, before any table is allocated.
    """
    if n == 0 or q == 0.0:
        return 0, 0
    if q == 1.0:
        return n, n
    mean = n * q
    t = _reach(mean, q)
    lo, hi = max(0, math.floor(mean - t)), min(n, math.ceil(mean + t))
    if hi - lo + 1 > WINDOW_ENTRIES:
        raise SizeLimitError(
            f"Binomial(n={n}, q={q!r}) needs a CDF table of {hi - lo + 1} entries, over the cap of {WINDOW_ENTRIES}"
        )
    return lo, hi


def _cdf_table(n: int, q: float) -> tuple[int, np.ndarray, np.ndarray, float]:
    """First outcome of the window, the CDF over it ending at exactly 1,
    and the window's :func:`masses` with their sum: a mass over the sum
    is its probability."""
    lo, hi = _window(n, q)
    mass = masses(n, q, lo, hi)
    cdf = np.cumsum(mass)
    total = cdf[-1]
    cdf /= total
    return lo, cdf, mass, total


def _guided_table(n: int, q: float) -> tuple[int, np.ndarray, np.ndarray]:
    """First outcome of the window, its CDF, and the CDF's guide, read-only.

    With G the smallest power of two at least twice the window's width,
    ``guide[j]`` is the first index whose CDF reaches ``j / G``, for
    j = 0..G + 1.  A draw's answer then lies in ``guide[j] ..
    guide[j + 1]`` with ``j = floor(u G)``; both are exact in floats,
    since G is a power of two.
    """
    lo, cdf = _cdf_table(n, q)[:2]
    guide = _guide(cdf)
    cdf.setflags(write=False)
    guide.setflags(write=False)
    return lo, cdf, guide


def _guide(cdf: np.ndarray) -> np.ndarray:
    """The guide of :func:`_guided_table` for one CDF."""
    size = 1 << (2 * len(cdf) - 1).bit_length()
    # Slots floor(cdf G) never fall along the table, so guide[j] is i on the
    # slots after entry i - 1's up to entry i's own, and the width past the last.
    slots = np.concatenate(([-1], (cdf * size).astype(np.int64), [size + 1]))
    return np.repeat(np.arange(len(cdf) + 1, dtype=np.int32), np.diff(slots))


# At most 512 tables below _DIRECT_BELOW, each at most 677 CDF entries
# (8 B) and 2050 guide entries (4 B): about 7 MB at worst.
_small_table = lru_cache(maxsize=512)(_guided_table)


def _lookup(cdf: np.ndarray, guide: np.ndarray, bucket: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cdf, u, side="left")`` through a guide, as int64.

    ``bucket`` is each draw's guide slot, ``floor(u G)`` plus where its
    table's guide starts.  Most slots hold at most one CDF entry, so one
    comparison settles the draw; the rest are bisected within their slot.
    """
    first = guide[bucket].astype(np.int64, copy=False)
    last = guide[1:][bucket]
    k = first + (cdf[first] < u)
    wide = np.flatnonzero(last - first > 1)
    if len(wide):
        u, lo, hi = u[wide], k[wide], last[wide]
        # The answer lies in [lo, hi]; each step halves that span.
        for _ in range(int((hi - lo).max()).bit_length()):
            mid = (lo + hi) >> 1
            below = cdf[mid] < u
            lo = np.where(below, mid + 1, lo)
            hi = np.where(below, hi, mid)
        k[wide] = lo
    return k


def _counts(n) -> np.ndarray:
    """``n`` as int64 counts; ValueError for a fraction, NaN or infinity."""
    counts = np.asarray(n)
    if counts.dtype.kind == "f" and not ((counts == np.floor(counts)) & (np.abs(counts) < 2.0**63)).all():
        raise ValueError("n must hold whole counts")
    return counts.astype(np.int64, copy=False)


def ppf(u, n, q: float) -> np.ndarray:
    """Binomial(n, q) inverse CDF of uniform variates ``u`` in (0, 1].

    Returns, elementwise, the smallest ``k`` with ``P(X <= k) >= u`` as
    int64, and ``n`` where ``u == 1``.  ``n`` is one non-negative count
    or an array of counts shaped like ``u``, of any shape; ``q`` is one
    probability.  ValueError for a negative or fractional count;
    :class:`SizeLimitError` when a CDF table would pass ``WINDOW_ENTRIES``
    entries, before it is built.
    """
    u = np.asarray(u, dtype=np.float64)
    n = _counts(n)
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q out of range: {q!r}")
    if n.ndim and n.shape != u.shape:
        raise ValueError(f"n has shape {n.shape}, u has shape {u.shape}")
    if u.size and not (float(u.min()) > 0.0 and float(u.max()) <= 1.0):
        raise ValueError("uniform variates must lie in (0, 1]")
    if n.size and int(n.min()) < 0:
        raise ValueError("n must be non-negative")
    draws = u.ravel()
    if n.ndim == 0 and n >= _DIRECT_BELOW:
        # A guide costs about as much to build as bisecting one draw for
        # every eight entries, and its bytes several times the table's.
        lo, cdf = _cdf_table(int(n), q)[:2]
        if 8 * len(draws) < len(cdf):
            k = lo + np.searchsorted(cdf, draws, side="left")
        else:
            guide = _guide(cdf)
            k = lo + _lookup(cdf, guide, (draws * (len(guide) - 2)).astype(np.int64), draws)
    elif n.ndim == 0:
        lo, cdf, guide = _small_table(int(n), q)
        k = lo + _lookup(cdf, guide, (draws * (len(guide) - 2)).astype(np.int64), draws)
    else:
        k = _varying_ppf(draws, n.ravel(), q) if n.size else n.ravel()
    return np.where(u == 1.0, n, k.reshape(u.shape))


def _stride(n: np.ndarray, q: float) -> np.ndarray:
    """Each draw's anchor spacing, from its (n, q) alone.

    The largest power of two at most the square root of 20 standard
    deviations (about the window's width), and at least
    ``2**_MIN_STRIDE_BITS``, so a narrow binomial at large n does not
    build a table for every few values of n.
    """
    # floor(log2(sqrt(20 sigma))) = floor(log2(400 sigma^2) / 4), read off the float exponent.
    bits = (np.frexp(n * (400.0 * q * (1.0 - q)))[1] - 1) >> 2
    return 1 << np.maximum(bits, _MIN_STRIDE_BITS)


def _anchor(n: np.ndarray, q: float) -> np.ndarray:
    """Each draw's anchor: the multiple of its stride S nearest its n, ``(n + S/2) & -S``."""
    stride = _stride(n, q)
    return (n + (stride >> 1)) & -stride


def _varying_ppf(u: np.ndarray, n: np.ndarray, q: float) -> np.ndarray:
    """:func:`ppf` for per-draw ``n``, one-dimensional: draws below
    ``_DIRECT_BELOW`` through their own tables, the rest through anchors."""
    if q in (0.0, 1.0):
        return n.copy() if q == 1.0 else np.zeros_like(n)
    _window(int(n.max()), q)  # past the cap, name the largest n rather than its anchor
    small = n < _DIRECT_BELOW
    if small.all():
        return _direct_ppf(u, n, q)
    if not small.any():
        return _anchored_ppf(u, n, q)
    k = np.empty_like(n)
    k[small] = _direct_ppf(u[small], n[small], q)
    large = ~small
    k[large] = _anchored_ppf(u[large], n[large], q)
    return k


def _direct_ppf(u: np.ndarray, n: np.ndarray, q: float) -> np.ndarray:
    """Draws whose every n is below ``_DIRECT_BELOW``, in one guided pass.

    Each distinct n's memoised table is laid end to end with the others,
    its guide shifted to index the joint CDF, so one :func:`_lookup`
    serves every draw with no sort and no loop over n.
    """
    present = np.zeros(int(n.max()) + 1, dtype=bool)
    present[n] = True
    values = np.flatnonzero(present)
    tables = [_small_table(v, q) for v in values.tolist()]
    widths = np.array([len(cdf) for _, cdf, _ in tables])
    lengths = np.array([len(guide) for _, _, guide in tables])
    starts = np.cumsum(widths) - widths
    cdf = np.concatenate([cdf for _, cdf, _ in tables])
    guide = np.concatenate([guide for _, _, guide in tables]).astype(np.int64)
    guide += np.repeat(starts, lengths)
    # Per value of n: where its guide starts, its G, and its outcome at joint index 0.
    slot = np.zeros(len(present), dtype=np.int64)
    slot[values] = np.cumsum(lengths) - lengths
    size = np.zeros(len(present), dtype=np.float64)
    size[values] = lengths - 2
    shift = np.zeros(len(present), dtype=np.int64)
    shift[values] = np.array([lo for lo, _, _ in tables]) - starts
    bucket = slot[n] + (u * size[n]).astype(np.int64)
    return shift[n] + _lookup(cdf, guide, bucket, u)


def _anchored_ppf(u: np.ndarray, n: np.ndarray, q: float) -> np.ndarray:
    """Draws whose every n is at least ``_DIRECT_BELOW``: anchor tables, then walks.

    The anchors' tables are built one at a time, so memory is one table
    plus O(draws) however widely ``n`` spreads.  :class:`SizeLimitError`
    before any table is built when the largest anchor's table, which can
    lie above every n, would pass the cap.
    """
    anchor = _anchor(n, q)
    top = int(anchor.max())
    try:
        _window(top, q)
    except SizeLimitError as err:
        raise SizeLimitError(
            f"Binomial(n={int(n.max())}, q={q!r}) draws walk from an anchor at n={top}: {err}"
        ) from None
    order = np.argsort(anchor)
    anchor, u = anchor[order], u[order]
    k = np.empty_like(n)
    cdf_at = np.empty(len(n))
    mass_at = np.empty(len(n))
    cuts = (np.flatnonzero(np.diff(anchor)) + 1).tolist()
    for start, end in zip([0] + cuts, cuts + [len(n)]):
        lo, cdf, mass, total = _cdf_table(int(anchor[start]), q)
        at = np.searchsorted(cdf, u[start:end], side="left")
        k[start:end] = lo + at
        cdf_at[start:end] = cdf[at]
        mass_at[start:end] = mass[at] / total
    _walk(u, k, cdf_at, mass_at, anchor, n[order] - anchor, q)
    k[order] = k.copy()
    return k


def _walk(u, k, cdf_at, mass_at, anchor, delta, q: float) -> None:
    """Move each draw ``|delta|`` steps from the quantile of its anchor m to that of n = m + delta.

    ``k``, ``cdf_at`` and ``mass_at`` hold Q_m(u) and m's CDF and mass
    there; ``k`` is updated in place.  The steps up and down are the
    module docstring's; each adds to T twice, so about two units of
    2**-53 of rounding per step in either direction.  One sort by delta
    puts the draws walking down first and those walking up last, the
    longest walks at the ends, so step s touches only the stretch at
    each end that is still walking.  No step divides by zero: up divides
    by k + 1 >= 1 and m + 1 - k >= 1, since k never passes m, and down
    by m >= 1.  The ``k > 0`` test keeps k from passing 0 where T - g
    rounds above a tiny u.
    """
    order = np.argsort(delta)
    steps = delta[order]
    below, above = np.searchsorted(steps, 0, side="left"), np.searchsorted(steps, 0, side="right")
    reach = np.arange(max(-int(steps[0]), int(steps[-1])))
    # Draws still walking at step s: delta < -s down, delta > s up.
    down, down_live = order[:below], np.searchsorted(steps, -reach, side="left")
    up, up_live = order[above:][::-1], len(steps) - np.searchsorted(steps, reach, side="right")
    stay = 1.0 - q
    if len(up):
        uw, t, f, walked = u[up], cdf_at[up], mass_at[up], k[up].astype(np.float64)
        top = anchor[up] + 1.0  # m + 1
        for c in up_live[up_live > 0].tolist():
            kc, tc, fc, mc = walked[:c], t[:c], f[:c], top[:c]
            tc -= q * fc
            step = tc < uw[:c]
            fc *= mc * np.where(step, q / (kc + 1.0), stay / (mc - kc))
            np.add(tc, fc, out=tc, where=step)
            kc += step
            mc += 1.0
        k[up] = walked
    if len(down):
        uw, t, f, walked = u[down], cdf_at[down], mass_at[down], k[down].astype(np.float64)
        m = anchor[down].astype(np.float64)
        for c in down_live[down_live > 0].tolist():
            kc, tc, fc, mc = walked[:c], t[:c], f[:c], m[:c]
            ratio = (mc - kc) / (mc * stay)
            g = fc * ratio  # mass of m - 1 at k
            tc += q * g
            step = tc - g >= uw[:c]
            step &= kc > 0
            np.subtract(tc, g, out=tc, where=step)
            fc *= np.where(step, kc / (mc * q), ratio)
            kc -= step
            mc -= 1.0
        k[down] = walked
