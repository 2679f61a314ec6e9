import numpy as np

from flocklab.rng import PRNG_ID, SplitMix64


def test_reference_vector_seed_zero():
    # first outputs of the published splitmix64 stream for seed 0
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_prng_identifier():
    assert PRNG_ID == "splitmix64"


def test_uniform_range_and_determinism():
    a = SplitMix64(42).uniform_array((50,), -2.0, 3.0)
    b = SplitMix64(42).uniform_array((50,), -2.0, 3.0)
    assert np.array_equal(a, b)
    assert np.all(a >= -2.0) and np.all(a < 3.0)


def test_streams_differ_across_seeds():
    assert SplitMix64(1).next_u64() != SplitMix64(2).next_u64()


def test_array_fill_is_row_major():
    flat = SplitMix64(9).uniform_array((6,))
    grid = SplitMix64(9).uniform_array((3, 2))
    assert np.array_equal(grid.reshape(-1), flat)


def _reference_stream(seed, count):
    """splitmix64 one draw at a time in Python integers."""
    mask = (1 << 64) - 1
    state = seed & mask
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


def test_block_draws_match_per_draw_reference():
    for seed in (0, 7, 2**64 - 1, -3):
        ref = _reference_stream(seed, 40)
        rng = SplitMix64(seed)
        assert rng.next_u64() == ref[0]
        block = rng.uniform_array((3, 5), -2.0, 3.0)
        expected = [-2.0 + 5.0 * ((z >> 11) * 2.0**-53) for z in ref[1:16]]
        assert block.reshape(-1).tolist() == expected
        assert rng.uniform(0.0, 1.0) == (ref[16] >> 11) * 2.0**-53
        assert [rng.next_u64() for _ in range(23)] == ref[17:40]
