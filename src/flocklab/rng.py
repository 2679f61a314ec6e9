"""Deterministic random numbers for initial conditions.

The generator is splitmix64: a 64-bit counter advanced by the golden-ratio
increment, finalized with two xor-multiply mixing rounds.  It is trivially
reimplementable in any language from the constants below, which is why it was
picked over library generators; the identifier recorded in result files is
``PRNG_ID``.  Reference vector: seed 0 produces 0xE220A8397B1DCDAF first.
"""

from __future__ import annotations

import numpy as np

PRNG_ID = "splitmix64"

_MASK = (1 << 64) - 1
# uint64 operands throughout: numpy 1.x promotes a uint64 array mixed with a
# Python int to float64
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


class SplitMix64:
    """splitmix64 stream with uniform-double helpers.

    Doubles are formed from the top 53 bits (``out >> 11`` times 2**-53),
    giving values in [0, 1).  Array fills are row-major: all coordinates of
    agent 0, then agent 1, and so on.
    """

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK

    def _draw(self, count: int) -> np.ndarray:
        """The next count outputs as uint64.  The state is a counter advanced
        by GAMMA per output, so output k finalizes state + k*GAMMA and a block
        of outputs is one array pass."""
        z = np.uint64(self._state) + np.arange(1, count + 1, dtype=np.uint64) * _GAMMA
        self._state = (self._state + count * int(_GAMMA)) & _MASK
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))

    def next_u64(self) -> int:
        return int(self._draw(1)[0])

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        return float(self.uniform_array(1, low, high)[0])

    def uniform_array(self, shape, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        u = (self._draw(int(np.prod(shape))) >> np.uint64(11)) * 2.0**-53
        return (low + (high - low) * u).reshape(shape)
