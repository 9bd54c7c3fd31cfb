"""Deterministic seed derivation and uniform variates.

All randomness in the package flows through one fixed 64-bit mixing
function (splitmix64), so a (seed, index) pair names the same variate on
every platform, in every run, and under any partitioning of the work.
Sample ``i`` of a run always draws from the child stream ``mix64(seed, i)``,
which is what makes the Monte Carlo estimates independent of chunking.
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
    """
    children = mix64_array(seed, indices)
    out = np.empty((len(children), columns), dtype=np.float64)
    for t in range(columns):
        step = np.uint64(((t + 1) * _INCREMENT) & MASK64)
        word = _finalize_array(children + step)
        out[:, t] = ((word >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53
    return out
