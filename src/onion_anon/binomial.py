"""Binomial masses and an exact binomial inverse CDF.

:func:`masses` is the one kernel behind every binomial table in the
package: it computes Binomial(n, q) masses on a window of outcomes by
ratio updates outward from the mode, whose mass is anchored through
log-gamma.  :func:`ppf` inverts the CDF: for each uniform variate ``u``
it returns the smallest ``k`` with ``P(X <= k) >= u``, and ``n`` at
``u == 1``, the usual convention for a discrete quantile.

The CDF tables are windows around the mean that leave out at most
``exp(-_TAIL_LOG)`` of probability on each side, far below the
2**-54 resolution of the variates.  The log-gamma anchor carries a
relative error near 1e-9 at n around 1e6, so each window is divided by
its own sum; that error then cancels instead of moving the quantiles.

When ``n`` varies per draw, tables are built only at anchors
``n - (n mod _STRIDE)``.  Since Binomial(n) is Binomial(anchor) plus an
independent Binomial(delta), delta = n mod _STRIDE, the quantile of n
lies in ``[Q_anchor(u), Q_anchor(u) + delta]``; each draw is resolved
inside that bracket from the anchor's CDF convolved with the
Binomial(delta) masses.  Below ``_DIRECT_BELOW`` the tables are short,
and a table for each distinct n costs less than that search.  Every
table is a pure function of its (n, q), so a draw never depends on
which other draws share its call.

"Exact" is up to the rounding of the CDF tables, a few units in the
last place: a draw can differ from exact arithmetic only where ``u``
lies that close to a CDF value.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import SizeLimitError

# Each CDF window leaves out at most exp(-_TAIL_LOG) ~ 2e-22 per tail.
_TAIL_LOG = 50.0
# Varying-n draws are resolved from tables at multiples of this stride.
_STRIDE = 16
# Below this n every draw gets a table of its own n instead.
_DIRECT_BELOW = 4096
# Bound on the CDF entries held at once while resolving varying-n draws.
_BATCH_ENTRIES = 1 << 17
# Largest CDF window built; it grows as sqrt(n), passing this near n = 1.8e11 at q = 1/2.
WINDOW_ENTRIES = 1 << 22


def masses(n: int, q: float, lo: int, hi: int) -> np.ndarray:
    """Binomial(n, q) masses at k = lo..hi, for a window holding the mode.

    Computed by ratio updates outward from the mode, whose mass is
    anchored through log-gamma; this keeps every entry finite for any n
    and q without arbitrary precision.  Each entry equals the one at the
    same k of the full-support vector (``lo=0, hi=n``) bit for bit.
    """
    out = np.zeros(hi - lo + 1, dtype=np.float64)
    if n == 0 or q in (0.0, 1.0):
        out[(n if q == 1.0 else 0) - lo] = 1.0
        return out
    mode = min(n, int((n + 1) * q))
    if not lo <= mode <= hi:
        raise ValueError(f"window [{lo}, {hi}] misses the mode {mode}")
    log_mode = (
        math.lgamma(n + 1)
        - math.lgamma(mode + 1)
        - math.lgamma(n - mode + 1)
        + mode * math.log(q)
        + (n - mode) * math.log1p(-q)
    )
    at = mode - lo
    out[at] = math.exp(log_mode)
    odds = q / (1.0 - q)
    if mode < hi:
        k = np.arange(mode, hi, dtype=np.float64)
        up = (n - k) / (k + 1.0) * odds
        out[at + 1 :] = out[at] * np.cumprod(up)
    if mode > lo:
        k = np.arange(mode, lo, -1, dtype=np.float64)
        down = k / (n - k + 1.0) / odds
        out[at - 1 :: -1] = out[at] * np.cumprod(down)
    return out


def _window(n: int, q: float) -> tuple[int, int]:
    """Outcomes outside [lo, hi] carry at most exp(-_TAIL_LOG) per side.

    Bernstein's inequality bounds each tail beyond ``t`` from the mean by
    ``exp(-t^2 / (2 (var + t / 3)))``; ``t`` solves that for _TAIL_LOG.
    :class:`SizeLimitError` when the window holds more than
    ``WINDOW_ENTRIES`` outcomes, before any table is allocated.
    """
    if n == 0 or q == 0.0:
        return 0, 0
    if q == 1.0:
        return n, n
    mean = n * q
    t = _TAIL_LOG / 3.0 + math.sqrt(_TAIL_LOG**2 / 9.0 + 2.0 * _TAIL_LOG * mean * (1.0 - q))
    lo, hi = max(0, math.floor(mean - t)), min(n, math.ceil(mean + t))
    if hi - lo + 1 > WINDOW_ENTRIES:
        raise SizeLimitError(
            f"Binomial(n={n}, q={q!r}) needs a CDF table of {hi - lo + 1} entries, over the cap of {WINDOW_ENTRIES}"
        )
    return lo, hi


def _cdf_table(n: int, q: float) -> tuple[int, np.ndarray]:
    """First outcome of the window and the CDF over it, ending at exactly 1."""
    lo, hi = _window(n, q)
    cdf = np.cumsum(masses(n, q, lo, hi))
    cdf /= cdf[-1]
    return lo, cdf


def ppf(u, n, q: float) -> np.ndarray:
    """Binomial(n, q) inverse CDF of uniform variates ``u`` in (0, 1].

    Returns, elementwise, the smallest ``k`` with ``P(X <= k) >= u`` as
    int64, and ``n`` where ``u == 1``.  ``n`` is one non-negative count
    or an array of counts shaped like ``u``; ``q`` is one probability.
    """
    u = np.asarray(u, dtype=np.float64)
    n = np.asarray(n, dtype=np.int64)
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q out of range: {q!r}")
    if n.ndim and n.shape != u.shape:
        raise ValueError(f"n has shape {n.shape}, u has shape {u.shape}")
    if u.size and not (float(u.min()) > 0.0 and float(u.max()) <= 1.0):
        raise ValueError("uniform variates must lie in (0, 1]")
    if n.size and int(n.min()) < 0:
        raise ValueError("n must be non-negative")
    if n.ndim == 0:
        lo, cdf = _cdf_table(int(n), q)
        k = lo + np.searchsorted(cdf, u, side="left")
    else:
        k = _varying_ppf(u, n, q) if n.size else n
    return np.where(u == 1.0, n, k)


def _varying_ppf(u: np.ndarray, n: np.ndarray, q: float) -> np.ndarray:
    """:func:`ppf` for per-draw ``n``, through tables at the anchors.

    Anchors are taken in sorted runs whose tables together hold about
    ``_BATCH_ENTRIES`` entries, so memory stays bounded however widely
    ``n`` spreads.
    """
    anchor = np.where(n < _DIRECT_BELOW, n, n - n % _STRIDE)
    delta = n - anchor
    order = np.argsort(anchor)
    sorted_anchor = anchor[order]
    cuts = (np.flatnonzero(np.diff(sorted_anchor)) + 1).tolist()
    out = np.empty(n.shape, dtype=np.int64)
    batch: list[tuple[int, int, int]] = []
    size = 0
    for start, end in zip([0] + cuts, cuts + [len(order)]):
        a = int(sorted_anchor[start])
        lo, hi = _window(a, q)
        batch.append((a, start, end))
        size += hi - lo + 2 * _STRIDE - 1
        if size >= _BATCH_ENTRIES or end == len(order):
            flat, where = _anchor_batch(batch, size, u, q, order, out)
            rows = order[batch[0][1] : end]
            if delta[rows].any():
                _resolve(flat, where, u[rows], delta[rows], rows, out, q)
            batch, size = [], 0
    return out


def _anchor_batch(batch, size, u, q, order, out) -> tuple[np.ndarray, np.ndarray]:
    """Set each draw of a run of anchors to Q_anchor(u).

    Returns the anchors' CDF tables, laid end to end with ``_STRIDE - 1``
    zeros before and ones after each, and every draw's place in them.
    """
    pad = _STRIDE - 1
    flat = np.zeros(size, dtype=np.float64)
    first = batch[0][1]
    where = np.empty(batch[-1][2] - first, dtype=np.int64)
    offset = pad
    for a, start, end in batch:
        lo, cdf = _cdf_table(a, q)
        flat[offset : offset + len(cdf)] = cdf
        flat[offset + len(cdf) : offset + len(cdf) + pad] = 1.0
        rows = order[start:end]
        at = np.searchsorted(cdf, u[rows], side="left")
        out[rows] = lo + at
        where[start - first : end - first] = offset + at
        offset += len(cdf) + 2 * pad
    return flat, where


def _resolve(flat, where, u, delta, rows, out, q: float) -> None:
    """Move each draw from Q_anchor(u) to the quantile of its own n.

    With T the anchor's CDF and f the Binomial(delta, q) masses,
    ``P(X_n <= Q + c) = sum_j f[j] T(Q + c - j)``; the draw becomes
    ``Q + c`` for the smallest c in [0, delta] where that reaches u.
    """
    windows = np.lib.stride_tricks.sliding_window_view
    for d in range(1, _STRIDE):
        pick = np.flatnonzero(delta == d)
        if not len(pick):
            continue
        f = masses(d, q, 0, d)
        f /= f.sum()
        cdf = windows(flat, 2 * d + 1)[where[pick] - d]  # T(Q - d) .. T(Q + d)
        acc = f[0] * cdf[:, d:]
        for j in range(1, d + 1):
            acc += f[j] * cdf[:, d - j : 2 * d + 1 - j]
        reached = acc >= u[pick, None]
        reached[:, d] = True
        out[rows[pick]] += reached.argmax(axis=1)
