"""Seeded 64-bit random generator used by every stochastic kernel and generator.

The state transition is the splitmix64 finalizer over a Weyl sequence, computed
in plain integer arithmetic, so a given seed produces the same stream on any
platform and Python build. Floating-point draws are derived from the top 53
bits, gaussians via Box-Muller, keeping those bit-identical too.
"""

from __future__ import annotations

import math

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """Deterministic RNG; one instance per (kernel, seed) use site."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def below(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        if n <= 0:
            raise ValueError(f"below() needs n > 0, got {n}")
        # Rejection sampling over the smallest covering power of two keeps
        # the draw unbiased without bignum division.
        bits = (n - 1).bit_length()
        while True:
            v = self.next_u64() >> (64 - bits) if bits else 0
            if v < n:
                return v

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def gauss(self, mu: float, sigma: float) -> float:
        """Box-Muller transform; two uniform draws per sample, no cached spare."""
        u1 = self.random()
        while u1 <= 0.0:
            u1 = self.random()
        u2 = self.random()
        r = math.sqrt(-2.0 * math.log(u1))
        return mu + sigma * r * math.cos(2.0 * math.pi * u2)
