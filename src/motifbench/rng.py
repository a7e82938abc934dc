"""Seeded 64-bit random generator used by every stochastic kernel and generator.

The state transition is the splitmix64 finalizer over a Weyl sequence, computed
in plain integer arithmetic, so a given seed produces the same stream on any
platform and Python build. Floating-point draws are derived from the top 53
bits, gaussians via Box-Muller, keeping those bit-identical too.

The scalar draws `next_u64`, `random`, `below` and `uniform` define the
stream; the library itself draws only in bulk, through forms that yield the
same values and leave the same state:
  - `u64s(n)`, n raw draws, for the float distributions, RMAT edges,
    `random_sample` and `dropout` (the last three test random() < p on
    the draws themselves, with `cut_coder` and `random_cut`);
  - `gausses`, Box-Muller pairs from `u64s` blocks;
  - `belows(bounds, rounds)`, below(n) for n cycling through constant
    bounds, in one loop over the draws (uniform graph edges, ITEM cells);
  - `bounded()`, a context whose below(n) takes any sequence of bounds,
    including bounds that depend on earlier draws (text words, ORDER rows).

`u64s(n)` draws a block of values with one big-integer operation per mixing
step instead of n method calls. It packs up to BULK_BLOCK consecutive states
into one Python int, state k in the k-th 128-bit lane (bits 128k..128k+127),
built as (steps + s * ones) & mask from the constants
steps = sum((k + 1) * GAMMA << 128k), ones = sum(1 << 128k) and
mask = MASK64 * ones. Each splitmix64 step then acts on every lane at once.
This is bit-exact because no lane ever reads or writes a neighbour's bits:
the first sum stays below 2**77 in every lane, and every lane holds a value
below 2**64 after each `& mask`; the bits a right shift moves in from the
lane above are masked off before a multiply, or land in the high word that
is dropped at the end; and a 64x64-bit product needs at most 128 bits, so it
never carries out of its lane. The low 64-bit word of each lane, read
little-endian, is the draw.
"""

from __future__ import annotations

import math
import sys
from array import array
from bisect import bisect_right
from collections import deque
from contextlib import contextmanager
from itertools import repeat
from operator import add, mul, rshift

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

BULK_BLOCK = 2048  # lanes per big-integer block: 32 KB per operand
# Byte offset of a 64-bit word's top byte in the host's byte order.
_TOP_BYTE = 7 if sys.byteorder == "little" else 0
_SPLIT = 255  # cut-table mark: a cut falls inside this top byte's range
_COUNT_ONE_MORE = bytes(range(1, 256)) + bytes([_SPLIT])  # and _SPLIT stays


def _lanes_int(low_words) -> int:
    """Pack 64-bit words into the low halves of consecutive 128-bit lanes."""
    lanes = array("Q", bytes(16 * len(low_words)))
    lanes[::2] = low_words
    if sys.byteorder == "big":
        lanes.byteswap()
    return int.from_bytes(lanes.tobytes(), "little")


_ONES = _lanes_int(array("Q", [1]) * BULK_BLOCK)
_LANE_MASK = _MASK64 * _ONES
# Lane k holds the state after k + 1 steps from s: s + (k + 1) * GAMMA.
_STEPS = _lanes_int(array("Q", range(BULK_BLOCK))) * _GAMMA + _GAMMA * _ONES


def _below_shift(n: int) -> int:
    """The shift that takes a draw to [0, 2**bits), 2**bits the smallest power
    of two >= n; below(n) rejects the shifted draws >= n, which keeps it
    unbiased without bignum division. A shift of 64 means n == 1: no draw."""
    if not 1 <= n <= 1 << 64:
        raise ValueError(f"below() needs n in [1, 2**64], got {n}")
    return 64 - (n - 1).bit_length()


def random_cut(p: float) -> int:
    """The c for which random() < p holds exactly when the draw z < c.

    random() is (z >> 11) * 2**-53, an exact product, and p * 2**53 is exact
    too, so random() < p holds exactly when the integer z >> 11 is below
    ceil(p * 2**53), that is when z < ceil(p * 2**53) << 11."""
    return math.ceil(p * (1 << 53)) << 11


def cut_coder(cuts: list[int]):
    """A function that takes a block of draws, an array('Q'), to a bytearray
    whose byte i is bisect_right(cuts, draws[i]): how many of the sorted
    `cuts` (fewer than 255) are at or below draw i.

    Every draw whose top byte's range holds no cut has the code of that
    byte, so one `translate` over the top bytes codes the block, and only
    the draws marked _SPLIT (a cut in their top byte's range: at most one
    byte in 256 per cut) go through `bisect_right`."""
    table = bytearray(256)
    for cut in cuts:
        top, rest = divmod(max(cut, 0), 1 << 56)
        if top < 256:  # every draw of a byte past the cut's is at or above it
            table[top + (rest > 0):] = table[top + (rest > 0):].translate(_COUNT_ONE_MORE)
            if rest:
                table[top] = _SPLIT

    def code(draws: array) -> bytearray:
        codes = bytearray(draws.tobytes()[_TOP_BYTE::8].translate(table))
        i = codes.find(_SPLIT)
        while i >= 0:
            codes[i] = bisect_right(cuts, draws[i])
            i = codes.find(_SPLIT, i + 1)
        return codes

    return code


class SplitMix64:
    """Deterministic RNG; one instance per (kernel, seed) use site."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        if not 0 <= seed <= _MASK64:
            raise ValueError(f"seed must be in [0, 2**64), got {seed}")
        self._state = seed

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def u64s(self, n: int) -> array:
        """The next n values of next_u64(), as array('Q'), in one bulk draw;
        the state ends where n next_u64() calls would leave it."""
        if n < 0:
            raise ValueError(f"u64s() needs n >= 0, got {n}")
        out = array("Q")
        s = self._state
        for start in range(0, n, BULK_BLOCK):
            m = min(BULK_BLOCK, n - start)
            steps, ones, mask = _STEPS, _ONES, _LANE_MASK
            if m < BULK_BLOCK:
                keep = (1 << (128 * m)) - 1
                steps, ones, mask = steps & keep, ones & keep, mask & keep
            z = (steps + s * ones) & mask
            z = ((z ^ ((z >> 30) & mask)) * _MIX1) & mask
            z = ((z ^ ((z >> 27) & mask)) * _MIX2) & mask
            # Bits shifted in from the lane above land in the high word,
            # which is dropped below, so this shift needs no mask.
            z ^= z >> 31
            words = array("Q", z.to_bytes(16 * m, "little"))
            if sys.byteorder == "big":
                words.byteswap()
            out += words[::2]
            s = (s + m * _GAMMA) & _MASK64
        self._state = s
        return out

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), n in [1, 2**64]."""
        shift = _below_shift(n)
        if shift == 64:
            return 0
        while True:
            v = self.next_u64() >> shift
            if v < n:
                return v

    def belows(self, bounds: tuple[int, ...], rounds: int) -> list[int]:
        """[self.below(n) for _ in range(rounds) for n in bounds], drawn in
        bulk: one loop over u64s() blocks takes each draw below the cut of
        the bound whose turn it is, n << shift, and shifts it. A bound of 1
        takes no draw; the other bounds' values take at least one each, so
        a block of as many draws as values still wanted is never overdrawn."""
        shifts = [_below_shift(n) for n in bounds]
        drawing = [i for i, shift in enumerate(shifts) if shift < 64]
        out = [0] * (rounds * len(bounds))
        if not drawing:
            return out
        cuts = [(bounds[i] << shifts[i], shifts[i]) for i in drawing]
        after = [*range(1, len(cuts)), 0]
        values: list[int] = []
        append = values.append
        need = rounds * len(cuts)
        turn = 0
        cut, shift = cuts[0]
        while len(values) < need:
            for z in self.u64s(min(BULK_BLOCK, need - len(values))):
                if z < cut:
                    append(z >> shift)
                    turn = after[turn]
                    cut, shift = cuts[turn]
        for k, i in enumerate(drawing):
            out[i :: len(bounds)] = values[k :: len(cuts)]
        return out

    @contextmanager
    def bounded(self):
        """Yield below(n), which returns what self.below(n) would, in the same
        order, for any sequence of bounds; it takes its draws from u64s()
        blocks. On exit, by exception too, the state is where the scalar
        calls would have left it. Draw nothing else from self inside."""
        pending: deque = deque()
        pop = pending.popleft
        shifts: dict[int, int] = {}

        def below(n):
            if n == 1:
                return 0
            try:
                shift = shifts[n]
            except KeyError:
                shift = shifts[n] = _below_shift(n)
            while True:
                try:
                    v = pop() >> shift
                except IndexError:
                    pending.extend(self.u64s(BULK_BLOCK))
                    continue
                if v < n:
                    return v

        try:
            yield below
        finally:
            # Hand back the draws taken but not used.
            self._state = (self._state - len(pending) * _GAMMA) & _MASK64

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def gausses(self, n: int, mu: float, sigma: float) -> list[float]:
        """n Box-Muller draws mu + sigma * sqrt(-2 ln u1) * cos(2 pi u2), in that
        order of operations, each from two random() values drawn in bulk by
        u64s(). A u1 of 0.0 is rejected and the next draw taken in its place,
        as drawing one pair at a time would; the state ends where that would."""
        out = []
        while len(out) < n:
            start = self._state
            m = min(n - len(out), BULK_BLOCK // 2)
            u = list(map(mul, map(rshift, self.u64s(2 * m), repeat(11)), repeat(1.0 / (1 << 53))))
            u1, u2 = u[0::2], u[1::2]
            cut = u1.index(0.0) if 0.0 in u1 else m
            del u1[cut:], u2[cut:]
            r = map(math.sqrt, map(mul, repeat(-2.0), map(math.log, u1)))
            c = map(math.cos, map(mul, repeat(2.0 * math.pi), u2))
            out += map(add, repeat(mu), map(mul, map(mul, repeat(sigma), r), c))
            if cut < m:
                self._state = (start + (2 * cut + 1) * _GAMMA) & _MASK64
        return out
