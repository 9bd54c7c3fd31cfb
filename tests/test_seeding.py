import numpy as np
import pytest

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
