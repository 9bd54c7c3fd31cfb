"""Size limits for the exact computations and generic sampling.

The exact formula and the enumeration oracles have exponential cost, so
each carries a default ceiling.  The ceilings are knobs, not constants:
the ``ONION_ANON_SIZE_LIMITS`` environment variable accepts a
comma-separated list of ``name=value`` overrides, e.g.::

    ONION_ANON_SIZE_LIMITS="formula_users=12,oracle_budget=2000000"

Every users/destinations ceiling is enforced by :meth:`SizeLimits.check`.
"""
from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

from .errors import ParseError, SizeLimitError

ENV_VAR = "ONION_ANON_SIZE_LIMITS"


@dataclass(frozen=True)
class SizeLimits:
    formula_users: int = 10
    formula_dests: int = 6
    oracle_users: int = 6
    oracle_dests: int = 4
    # Budget on the configurations an oracle walk covers (nonzero-prior
    # destinations multiplied over users, times 4^n endpoint flags) for
    # the expectation oracle and the rational view oracle; the default
    # equals the full count at 5 users and 3 destinations (3^5 * 4^5).
    oracle_budget: int = 248_832
    structured_users: int = 300
    mc_users: int = 40
    mc_dests: int = 6

    def check(self, kind: str, what: str, users: int, dests: int | None = None) -> None:
        """SizeLimitError naming ``what`` past ``{kind}_users``, or past ``{kind}_dests`` if ``dests`` is given."""
        sizes = [(users, getattr(self, f"{kind}_users"), "users")]
        if dests is not None:
            sizes.append((dests, getattr(self, f"{kind}_dests"), "destinations"))
        if any(size > cap for size, cap, _ in sizes):
            caps = " and ".join(f"{cap} {unit}" for _, cap, unit in sizes)
            got = ", ".join(str(size) for size, _, _ in sizes)
            raise SizeLimitError(f"{what} limited to {caps} (got {got})")


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
