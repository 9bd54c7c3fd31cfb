import numpy as np
import pytest

from onion_anon import seeding
from onion_anon.seeding import MASK64, mix64, mix64_array, uniform, uniform_block, unit_interval


def test_mix64_matches_published_splitmix64_stream():
    # First outputs of the reference splitmix64 generator seeded with 0.
    assert mix64(0, 0) == 0xE220A8397B1DCDAF
    assert mix64(0, 1) == 0x6E789E6AA1B965F4


def test_mix64_rejects_negative_index():
    with pytest.raises(ValueError):
        mix64(0, -1)


def test_uniforms_lie_in_half_open_unit_interval():
    values = [uniform(123, i) for i in range(2000)]
    assert all(0.0 < v <= 1.0 for v in values)


def test_unit_interval_edges():
    # The smallest variate is 2**-54; the top 2**11 words round up to 1.0.
    assert unit_interval(0) == 2.0**-54
    assert unit_interval(MASK64) == 1.0
    assert unit_interval(MASK64 - 2**11 + 1) == 1.0
    assert unit_interval(MASK64 - 2**11) == 1.0 - 2.0**-52


def test_uniform_mean_is_plausible():
    values = [uniform(99, i) for i in range(20000)]
    assert abs(np.mean(values) - 0.5) < 4 * 0.2887 / np.sqrt(20000)


def test_vectorized_stream_matches_scalar_stream():
    seed = 987654321
    indices = np.arange(37, dtype=np.int64)
    block = uniform_block(seed, indices, 5)
    for i in indices.tolist():
        child = mix64(seed, i)
        for t in range(5):
            assert block[i, t] == uniform(child, t)


def test_mix64_array_matches_scalar():
    seed = 2**63 + 17
    indices = np.arange(100, dtype=np.int64)
    words = mix64_array(seed, indices)
    assert [int(w) for w in words] == [mix64(seed, i) for i in range(100)]


def _unmix(word: int) -> int:
    """The x with ``_finalize(x) == word``: each xor-shift and odd multiply undone in turn."""
    for shift, mult in ((31, None), (27, seeding._MULT2), (30, seeding._MULT1)):
        if mult is not None:
            word = (word * pow(mult, -1, 1 << 64)) & MASK64
        x = word
        for _ in range(64 // shift + 1):
            x = word ^ (x >> shift)
        word = x
    return word


def _seed_for_first_word(word: int) -> int:
    """A seed whose stream 0 gives ``word`` at column 0 of :func:`uniform_block`."""
    child = (_unmix(word) - seeding._INCREMENT) & MASK64
    return (_unmix(child) - seeding._INCREMENT) & MASK64


@pytest.mark.parametrize("rows, columns, offset", [
    (1, 30, 0),
    (80, 120, 1000),
    (seeding._BLOCK_WORDS // 6 * 2 + 5, 6, 7),  # more rows than one block holds
    (3, seeding._BLOCK_WORDS + 3, 0),  # a row wider than a block
])
def test_row_blocks_match_scalar_stream(rows, columns, offset):
    seed = 2**64 - 12345
    indices = np.arange(offset, offset + rows, dtype=np.int64)
    block = uniform_block(seed, indices, columns)
    want = [[uniform(mix64(seed, int(i)), t) for t in range(columns)] for i in indices]
    assert np.array_equal(block, np.array(want))


@pytest.mark.parametrize("word", [
    0, 1, 2**10, 2**11 - 1,
    # m >= 2**52: m + 0.5 ties between two doubles and rounds to even.
    (2**52 << 11) | 5, ((2**52 + 1) << 11), ((2**53 - 2) << 11) | 2047, ((2**53 - 1) << 11) - 1,
    # The top 2**11 words round up to exactly 1.0.
    MASK64 - 2**11, MASK64 - 2**11 + 1, MASK64,
])
def test_row_blocks_convert_ties_as_unit_interval(word):
    seed = _seed_for_first_word(word)
    assert seeding._finalize((mix64(seed, 0) + seeding._INCREMENT) & MASK64) == word
    assert uniform_block(seed, np.zeros(1, dtype=np.int64), 1)[0, 0] == unit_interval(word)
