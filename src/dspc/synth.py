"""Reproducible input synthesis.

Test signals are uniform noise in [-1, 1] drawn from a 64-bit linear
congruential generator (Knuth's MMIX multiplier/increment), so any run can
be reproduced from its integer seed alone, with no dependence on Python's
random module internals.
"""

from __future__ import annotations

from .kernels import Tensor

_MULT = 6364136223846793005
_INC = 1442695040888963407
_MASK = (1 << 64) - 1


class Lcg:
    """x' = (a*x + c) mod 2**64; uniform doubles use the top 53 bits."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state * _MULT + _INC) & _MASK
        return self.state

    def next_unit(self) -> float:
        """Uniform in [0, 1)."""
        return (self.next_u64() >> 11) / float(1 << 53)


def noise(n: int, seed: int) -> Tensor:
    """n samples of uniform noise in [-1, 1]."""
    rng = Lcg(seed)
    return Tensor(tuple(2.0 * rng.next_unit() - 1.0 for _ in range(n)))
