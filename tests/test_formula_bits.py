"""The exact formula's values, pinned bit for bit.

Every expected value below is ``float.hex()`` of ``expected_posterior_formula``
as computed when each crowd size's crowds were stepped together over one
shared simplex, every non-member masked to exact zeros.  The subset lattice
applies the same multiply-adds in the same user order, so no value may move
by a single bit, whichever kernel a crowd takes.
"""
import numpy as np
import pytest

from onion_anon import PosteriorQuery, expected_posterior_formula, validate_scenario
from onion_anon import inference


def seeded_case(seed):
    """At most 7 users and 4 destinations, some zero entries; every third seed
    puts entries near 1e-200 in some rows, so their crowds go wide."""
    rng = np.random.default_rng(seed)
    n, k = int(rng.integers(2, 8)), int(rng.integers(2, 5))
    p = rng.random((n, k))
    p[rng.random((n, k)) < 0.25] = 0.0
    if seed % 3 == 0:
        tiny = rng.random((n, k)) < 0.2
        p[tiny] = 10.0 ** rng.uniform(-230.0, -170.0, size=int(tiny.sum()))
    for v in range(n):
        if not (p[v] > 0.0).any():
            p[v, rng.integers(k)] = 1.0
    p /= p.sum(axis=1, keepdims=True)
    b = float(rng.choice([0.1, 0.25, 0.5, 0.75, 0.9]))
    user = int(rng.integers(n))
    dest = int(rng.choice(np.flatnonzero(p[user] > 0.0)))
    return validate_scenario(p, b), PosteriorQuery(user, dest)


def _dirichlet(rng, n, k):
    draws = rng.standard_exponential((n, k))
    return draws / draws.sum(axis=1, keepdims=True)


def benchmark_shape(kind):
    """The three formula shapes the ``exact`` benchmark workload runs."""
    rng = np.random.default_rng(["hetero", "worst", "common"].index(kind) + 100)
    b = float(rng.uniform(0.1, 0.5))
    if kind == "hetero":
        return validate_scenario(_dirichlet(rng, 9, 6), b), PosteriorQuery(4, 2)
    if kind == "worst":
        # Queried user 0 on a Dirichlet row; the rest are point masses on
        # destination 0 or on the queried user's least-liked destination.
        p = np.zeros((9, 6))
        p[0] = _dirichlet(rng, 1, 6)[0]
        least = 1 + int(np.argmin(p[0, 1:]))
        p[1:4, 0] = 1.0
        p[4:, least] = 1.0
        return validate_scenario(p, b), PosteriorQuery(0, 0)
    row = np.arange(1, 5) ** -float(rng.uniform(0.5, 1.5))
    return validate_scenario(np.tile(row / row.sum(), (10, 1)), b), PosteriorQuery(3, 1)


SEEDED = {
    0: "0x1.f34bb229f7842p-2",
    1: "0x1.c15462d31887fp-2",
    2: "0x1.a4ffd11064889p-1",
    3: "0x1.0000000000000p+0",
    4: "0x1.d6c3d3628ff25p-3",
    5: "0x1.95ddc59dd04fcp-1",
    6: "0x1.0000000000000p+0",
    7: "0x1.e7f9125c69130p-1",
    8: "0x1.566be9eb6ce1bp-1",
    9: "0x1.608b32b51fb9dp-1",
    10: "0x1.20f8f906630e8p-1",
    11: "0x1.0000000000000p+0",
    12: "0x1.c6e6bcaa3cdbbp-1",
    13: "0x1.84af432d270c8p-1",
    14: "0x1.ac909ce809276p-1",
    15: "0x1.3d4be3041675fp-1",
    16: "0x1.5dd97868d7142p-1",
    17: "0x1.b253a58001f13p-6",
    18: "0x1.5b01c6e102cd0p-1",
    19: "0x1.40b3866baa4e3p-2",
    20: "0x1.975503742a807p-1",
    21: "0x1.d4f3342198486p-1",
    22: "0x1.78b0138a4b163p-1",
    23: "0x1.14174b06a924ap-1",
    24: "0x1.b15e043f3dc29p-1",
    25: "0x1.2b5b6bab5f298p-2",
    26: "0x1.f05d7799827cap-1",
    27: "0x1.67c9b831d2aa2p-1",
    28: "0x1.75458c94e78f1p-1",
    29: "0x1.0000000000002p+0",
    30: "0x1.e89aaed8b0d51p-1",
    31: "0x1.0a356c078c801p-3",
    32: "0x1.0000000000000p+0",
    33: "0x1.980726edc41e3p-1",
    34: "0x1.c56fbf4ebd6bcp-1",
    35: "0x1.b2440e178725cp-1",
    36: "0x1.937833a895f38p-1",
    37: "0x1.77c8b13002c97p-2",
    38: "0x1.2c087775b8522p-1",
    39: "0x1.d0148e81e83ebp-1",
    40: "0x1.4635e25e79446p-1",
    41: "0x1.a33100cfe0655p-1",
}

BENCHMARK_SHAPES = {
    "hetero": "0x1.e629bd00c88b0p-3",
    "worst": "0x1.a3a1fe0b44d44p-2",
    "common": "0x1.138367d075091p-2",
}


def pinned_cases():
    for seed, want in SEEDED.items():
        yield (*seeded_case(seed), want)
    for kind, want in BENCHMARK_SHAPES.items():
        yield (*benchmark_shape(kind), want)


# A span of -1 runs every block wide; 3 bits sends most crowds wide, so
# wide blocks grow from plain parents.
@pytest.mark.parametrize("span", [inference._PLAIN_SPAN, -1.0, 3.0], ids=["default-span", "every-block-wide", "mixed"])
def test_formula_bits_are_pinned(monkeypatch, span):
    monkeypatch.setattr(inference, "_PLAIN_SPAN", span)
    cases = list(pinned_cases())
    assert [expected_posterior_formula(s, query).hex() for s, query, _ in cases] == [want for *_, want in cases]
