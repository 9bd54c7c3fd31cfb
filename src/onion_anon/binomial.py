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

When ``n`` varies per draw, each draw has a stride S, a power of two
near the square root of its window's width that depends on its (n, q)
alone, and a table is built only at its anchor ``a = n - n mod S``.
X_{m+1} is X_m plus a Bernoulli(q), so the quantile of m + 1 is that
of m or one more: from the anchor's quantile k, CDF T and mass f at k,
one step takes ``T -= q f`` (T_{m+1}(k)), moves f to the mass of m + 1
at k, and where ``T < u`` still, adds the mass at k + 1 to T and moves
k up by one.  Each draw walks its own delta = n - a < S steps, so a
call costs one table per distinct anchor plus O(S) per draw, not a
table per value of n.  Below ``_DIRECT_BELOW`` the tables are short,
S = 1, and every n gets a table of its own.  A draw never depends on
which other draws share its call.

"Exact" is up to rounding.  A table's CDF is a running sum, so each
entry is off exact arithmetic by at most about one unit of 2**-53 per
entry summed before it (near the square root of that count in
practice: a few hundred units at n = 1e8).  Each step of a walk adds
at most about two units more, one per addition to T, so a walked draw
carries up to about ``2 delta`` units beyond its anchor table's.  A
draw can differ from exact arithmetic only where ``u`` lies that close
to a CDF value.
"""
from __future__ import annotations

import math

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


def _cdf_table(n: int, q: float) -> tuple[int, np.ndarray, np.ndarray]:
    """First outcome of the window, the CDF over it ending at exactly 1,
    and the masses over it, both divided by the window's sum."""
    lo, hi = _window(n, q)
    mass = masses(n, q, lo, hi)
    cdf = np.cumsum(mass)
    total = cdf[-1]
    cdf /= total
    mass /= total
    return lo, cdf, mass


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
        lo, cdf, _ = _cdf_table(int(n), q)
        k = lo + np.searchsorted(cdf, u, side="left")
    else:
        k = _varying_ppf(u, n, q) if n.size else n
    return np.where(u == 1.0, n, k)


def _stride(n: np.ndarray, q: float) -> np.ndarray:
    """Each draw's anchor spacing, from its (n, q) alone.

    1 below ``_DIRECT_BELOW``; otherwise the largest power of two at most
    the square root of 20 standard deviations (about the window's width),
    and at least ``2**_MIN_STRIDE_BITS``, so a narrow binomial at large n
    does not build a table for every few values of n.
    """
    # floor(log2(sqrt(20 sigma))) = floor(log2(400 sigma^2) / 4), read off the float exponent.
    bits = (np.frexp(n * (400.0 * q * (1.0 - q)))[1] - 1) >> 2
    return np.where(n < _DIRECT_BELOW, 1, 1 << np.maximum(bits, _MIN_STRIDE_BITS))


def _varying_ppf(u: np.ndarray, n: np.ndarray, q: float) -> np.ndarray:
    """:func:`ppf` for per-draw ``n``: anchor tables, then walks.

    The anchors' tables are built one at a time, so memory is one table
    plus O(draws) however widely ``n`` spreads.
    """
    if q in (0.0, 1.0):
        return n.copy() if q == 1.0 else np.zeros_like(n)
    largest = int(n.max())
    _window(largest, q)  # past the cap, name the largest n rather than its anchor
    walks = largest >= _DIRECT_BELOW
    anchor = n & -_stride(n, q) if walks else n
    k = np.empty_like(n)
    cdf_at = np.empty(n.shape, dtype=np.float64)
    mass_at = np.empty(n.shape, dtype=np.float64)
    order = np.argsort(anchor)
    sorted_anchor = anchor[order]
    cuts = (np.flatnonzero(np.diff(sorted_anchor)) + 1).tolist()
    for start, end in zip([0] + cuts, cuts + [len(order)]):
        a = int(sorted_anchor[start])
        rows = order[start:end]
        lo, cdf, mass = _cdf_table(a, q)
        at = np.searchsorted(cdf, u[rows], side="left")
        k[rows] = lo + at
        if a >= _DIRECT_BELOW:  # these draws walk on from here
            cdf_at[rows] = cdf[at]
            mass_at[rows] = mass[at]
    if walks:
        _walk(u, k, cdf_at, mass_at, anchor, n - anchor, q)
    return k


def _walk(u, k, cdf_at, mass_at, anchor, delta, q: float) -> None:
    """Move each draw ``delta`` steps from the quantile of its anchor to that of its own n.

    ``k``, ``cdf_at`` and ``mass_at`` hold Q_anchor(u) and the anchor's
    CDF and mass there; ``k`` is updated in place.  Draws are sorted by
    delta, largest first, so step s touches only the prefix still
    walking.  No step divides by zero: k + 1 >= 1 and m + 1 - k >= 1,
    since k never passes m.
    """
    if not delta.any():
        return
    order = np.argsort(-delta)
    steps = delta[order]
    live = np.searchsorted(-steps, -np.arange(int(steps[0])), side="left").tolist()
    u = u[order]
    t = cdf_at[order]
    f = mass_at[order]
    walked = k[order]
    top = anchor[order] + 1.0  # m + 1
    stay = 1.0 - q
    for c in live:
        kc, tc, fc, mc = walked[:c], t[:c], f[:c], top[:c]
        tc -= q * fc
        up = tc < u[:c]
        fc *= mc * np.where(up, q / (kc + 1.0), stay / (mc - kc))
        np.add(tc, fc, out=tc, where=up)
        kc += up
        mc += 1.0
    k[order] = walked
