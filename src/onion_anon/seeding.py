"""Deterministic seed derivation and uniform variates.

All randomness in the package flows through one fixed 64-bit mixing
function (splitmix64), so a (seed, index) pair names the same variate on
every platform, in every run, and under any partitioning of the work.
Sample ``i`` of a run always draws from the child stream ``mix64(seed, i)``,
which is what makes the Monte Carlo estimates independent of chunking.

:func:`uniform_block` mixes its words in row blocks of about 2**15 words,
every column at once, and maps a word w to ``((w >> 10) | 1) * 2**-54``:
one rounding of the same real number as ``((w >> 11) + 0.5) * 2**-53`` in
:func:`unit_interval`, so the vector and scalar streams agree bit for bit.
"""
from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1

_INCREMENT = 0x9E3779B97F4A7C15
_MULT1 = 0xBF58476D1CE4E5B9
_MULT2 = 0x94D049BB133111EB

_U_INCREMENT = np.uint64(_INCREMENT)
_U_MULT1 = np.uint64(_MULT1)
_U_MULT2 = np.uint64(_MULT2)
_SHIFT10, _SHIFT27, _SHIFT30, _SHIFT31, _ONE = (np.uint64(k) for k in (10, 27, 30, 31, 1))

# Words mixed per row block of :func:`uniform_block`.
_BLOCK_WORDS = 1 << 15


def _finalize(x: int) -> int:
    x &= MASK64
    x = ((x ^ (x >> 30)) * _MULT1) & MASK64
    x = ((x ^ (x >> 27)) * _MULT2) & MASK64
    return x ^ (x >> 31)


def mix64(seed: int, index: int) -> int:
    """Return element ``index`` of the splitmix64 stream seeded by ``seed``."""
    if index < 0:
        raise ValueError("stream index must be non-negative")
    return _finalize((seed + (index + 1) * _INCREMENT) & MASK64)


def unit_interval(word: int) -> float:
    """Map a 64-bit word onto the half-open interval (0, 1].

    The top 53 bits plus one half, scaled by 2**-53: the smallest value
    is 2**-54.  For the top 2**11 words, whose top bits are all ones,
    ``(2**53 - 1) + 0.5`` rounds to even, i.e. to 2**53, so they give
    exactly 1.0.
    """
    return ((word >> 11) + 0.5) * 2.0 ** -53


def uniform(seed: int, index: int) -> float:
    """Uniform variate at ``index`` of the stream seeded by ``seed``."""
    return unit_interval(mix64(seed, index))


def _finalize_array(x: np.ndarray) -> np.ndarray:
    x = x.astype(np.uint64, copy=True)
    x ^= x >> np.uint64(30)
    x *= _U_MULT1
    x ^= x >> np.uint64(27)
    x *= _U_MULT2
    x ^= x >> np.uint64(31)
    return x


def mix64_array(seed: int, indices: np.ndarray) -> np.ndarray:
    """Vectorized :func:`mix64` over an array of stream indices."""
    base = np.asarray(indices, dtype=np.uint64) + np.uint64(1)
    base = base * _U_INCREMENT + np.uint64(seed & MASK64)
    return _finalize_array(base)


def uniform_block(seed: int, indices: np.ndarray, columns: int) -> np.ndarray:
    """Uniform variates for many samples at once.

    Row ``r``, column ``t`` equals ``uniform(mix64(seed, indices[r]), t)``,
    i.e. the block is the per-sample child streams laid out side by side.
    Values lie in (0, 1], as for :func:`unit_interval`.

    The words are mixed in row blocks of about ``_BLOCK_WORDS``, every
    column at once, in one reused buffer and one temporary.  A word w maps
    to ``((w >> 10) | 1) * 2**-54``: the odd 54-bit integer 2m + 1, m the
    top 53 bits, rounded once to the nearest double (ties to even) and
    scaled by a power of two.  That is the rounding of ``(m + 0.5) *
    2**-53`` in :func:`unit_interval`, so the two agree bit for bit.
    """
    children = mix64_array(seed, indices)
    rows = len(children)
    out = np.empty((rows, columns), dtype=np.float64)
    steps = np.arange(1, columns + 1, dtype=np.uint64) * _U_INCREMENT
    step_rows = max(1, _BLOCK_WORDS // max(columns, 1))
    buffer = np.empty((min(rows, step_rows), columns), dtype=np.uint64)
    spare = np.empty_like(buffer)
    for lo in range(0, rows, step_rows):
        hi = min(rows, lo + step_rows)
        word, temp = buffer[: hi - lo], spare[: hi - lo]
        np.add(children[lo:hi, None], steps, out=word)
        for shift, mult in ((_SHIFT30, _U_MULT1), (_SHIFT27, _U_MULT2)):
            word ^= np.right_shift(word, shift, out=temp)
            word *= mult
        word ^= np.right_shift(word, _SHIFT31, out=temp)
        np.right_shift(word, _SHIFT10, out=temp)
        temp |= _ONE
        # Below 2**54, so the int64 view holds the same value, and converts as int64.
        np.multiply(temp.view(np.int64), 2.0**-54, out=out[lo:hi])
    return out
