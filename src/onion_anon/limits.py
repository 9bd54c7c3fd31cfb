"""Work budgets for the exact computations and generic sampling.

Each budget counts what a computation costs, not the shape of its input.
The ``ONION_ANON_SIZE_LIMITS`` environment variable overrides them with
comma-separated ``name=value`` entries, e.g.
``ONION_ANON_SIZE_LIMITS="formula_budget=50000000,oracle_budget=2000000"``.
"""
from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

from .errors import ParseError

ENV_VAR = "ONION_ANON_SIZE_LIMITS"


@dataclass(frozen=True)
class SizeLimits:
    """What an exact computation or a generic estimate may cost.

    ``formula_budget`` bounds the formula's lattice units, the entries of
    its crowd tables (:func:`inference.lattice_entries`) times nd, which
    its time follows at 15-38 ns each; the default admits up to 10 users
    on up to 6 destinations (3 005 184 units).  ``oracle_budget`` bounds the
    configurations an oracle walks, nonzero-prior destinations multiplied
    over users times 4^n endpoint flags; the default is 3^5 * 4^5, the
    count at 5 users on 3 destinations.  ``mc_users`` and ``mc_dests``
    bound a generic sampling chunk's memory: its variates take
    3n * 2^15 * 8 B, 0.75 MB per user, and its bare-output counts
    2^15 * nd int64, 0.25 MB per destination.
    """

    formula_budget: int = 1 << 22
    oracle_budget: int = 248_832
    mc_users: int = 40
    mc_dests: int = 6


_FIELD_NAMES = {f.name for f in dataclasses.fields(SizeLimits)}


def current_limits() -> SizeLimits:
    """Default limits, with any environment overrides applied."""
    text = os.environ.get(ENV_VAR, "").strip()
    if not text:
        return SizeLimits()
    overrides: dict[str, int] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        name, sep, raw = part.partition("=")
        name = name.strip()
        if not sep or name not in _FIELD_NAMES:
            raise ParseError(f"{ENV_VAR}: unknown entry {part!r}")
        try:
            value = int(raw)
        except ValueError:
            raise ParseError(f"{ENV_VAR}: {name} needs an integer, got {raw!r}") from None
        if value < 1:
            raise ParseError(f"{ENV_VAR}: {name} must be positive")
        overrides[name] = value
    return SizeLimits(**overrides)
