"""Logic-family kernels: MD5 digesting and pointwise activations.

MD5 is implemented from scratch (Merkle-Damgard over 64-byte blocks with the
sine-derived constant table) so the digest loop itself is the measured unit of
work rather than a C library call; the test suite cross-checks it byte-exactly
against an independent reference. The 64 steps are table-driven: each of the
four rounds loops over precomputed (constant, message-word index, shift,
32 - shift) tuples, so no step branches on its round or recomputes its index,
and the rotation is inlined.
"""

from __future__ import annotations

import math
import struct

from ..datasets import Tensor, TextCorpus
from ..errors import KernelError

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1

# K[i] = floor(abs(sin(i + 1)) * 2^32)
_K = [int(abs(math.sin(i + 1)) * 4294967296) & _MASK32 for i in range(64)]


def _round_table(r: int, shifts: tuple[int, int, int, int], word) -> tuple:
    """(K[i], g, s, 32 - s) for the 16 steps i of round r, g = word(i)."""
    steps = range(16 * r, 16 * r + 16)
    return tuple((_K[i], word(i), s, 32 - s) for i, s in zip(steps, shifts * 4))


_ROUND1 = _round_table(0, (7, 12, 17, 22), lambda i: i)
_ROUND2 = _round_table(1, (5, 9, 14, 20), lambda i: (5 * i + 1) % 16)
_ROUND3 = _round_table(2, (4, 11, 16, 23), lambda i: (3 * i + 5) % 16)
_ROUND4 = _round_table(3, (6, 10, 15, 21), lambda i: (7 * i) % 16)

_BLOCK_WORDS = struct.Struct("<16I")


def md5_bytes(data: bytes) -> bytes:
    """16-byte MD5 digest of a byte string (or any bytes-like object)."""
    data = bytes(data)
    n = len(data)
    msg = data + b"\x80" + b"\x00" * ((55 - n) % 64) + ((n << 3) & _MASK64).to_bytes(8, "little")

    M = _MASK32
    unpack_from = _BLOCK_WORDS.unpack_from
    a0, b0, c0, d0 = 0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476
    for start in range(0, len(msg), 64):
        m = unpack_from(msg, start)
        a, b, c, d = a0, b0, c0, d0
        for k, g, s, t in _ROUND1:
            f = ((d ^ (b & (c ^ d))) + a + k + m[g]) & M
            a, d, c, b = d, c, b, (b + ((f << s) | (f >> t))) & M
        for k, g, s, t in _ROUND2:
            f = ((c ^ (d & (b ^ c))) + a + k + m[g]) & M
            a, d, c, b = d, c, b, (b + ((f << s) | (f >> t))) & M
        for k, g, s, t in _ROUND3:
            f = ((b ^ c ^ d) + a + k + m[g]) & M
            a, d, c, b = d, c, b, (b + ((f << s) | (f >> t))) & M
        for k, g, s, t in _ROUND4:
            f = ((c ^ (b | (d ^ M))) + a + k + m[g]) & M
            a, d, c, b = d, c, b, (b + ((f << s) | (f >> t))) & M
        a0 = (a0 + a) & M
        b0 = (b0 + b) & M
        c0 = (c0 + c) & M
        d0 = (d0 + d) & M

    return struct.pack("<4I", a0, b0, c0, d0)


def md5_hex(data: bytes) -> str:
    return md5_bytes(data).hex()


def md5_corpus(corpus: TextCorpus) -> TextCorpus:
    """Per-record digests: one 32-char hex line per input line (UTF-8 bytes)."""
    return TextCorpus([md5_hex(line.encode("utf-8")) for line in corpus.documents])


def _sigmoid(v: float) -> float:
    # Split on sign to avoid exp overflow for large |v|.
    if v >= 0:
        return 1.0 / (1.0 + math.exp(-v))
    e = math.exp(v)
    return e / (1.0 + e)


_ACTIVATIONS = {
    "relu": lambda v: v if v > 0.0 else 0.0,
    "sigmoid": _sigmoid,
    "tanh": math.tanh,
}


def elementwise_activation(x: Tensor, fn: str) -> Tensor:
    """Pointwise relu/sigmoid/tanh; shape preserved."""
    try:
        f = _ACTIVATIONS[fn]
    except KeyError:
        raise KernelError(f"unknown activation {fn!r}") from None
    return Tensor(x.shape, [f(v) for v in x.data])
