"""Logic-family kernels: MD5 digesting and pointwise activations.

MD5 is implemented from scratch (Merkle-Damgard over 64-byte blocks with
RFC 1321's sine-derived constant table) so the digest rounds themselves are
the measured unit of work rather than a C library call; the test suite
cross-checks them byte-exactly against hashlib.

`md5_digests` hashes many records at once, the way `rng.SplitMix64.u64s`
draws many values: each of the 64 MD5 steps is one big-integer operation
over a lane block of records packed into one Python int, record k in the
k-th 64-bit lane (bits 64k..64k+63), its 32-bit word in the low half and 32
guard bits above it. A lane block holds LANE_BLOCK records, 8 KB per
operand, or fewer where LANE_BYTES would not hold that many at the padded
length of its longest record, so the copy of its padded messages stays
within 1 MB (or one record) however long the lines are. Its constants are
built once, ones = sum(1 << 64k) and mask = 0xFFFFFFFF * ones, and each
step's sine constant is spread across the lanes as `k * ones` when the step
runs: keeping all 64 spread constants holds 64 more block-sized ints, which
took the peak allocation of hashing a 1,768-line corpus from 0.6 to 1.1 MB
and was no faster.

This is bit-exact because no lane ever reads or writes a neighbour's bits.
The state and message words hold values below 2**32 in every lane. A step
adds four of them, a sum below 2**34 that stays inside its lane, and masks
it with `& mask` to f; `f << s` stays below 2**55. A right shift
`f >> (32 - s)` moves the low bits of the lane above into this lane's top
guard bits, so the rotated value is masked *before* `b` is added to it:
otherwise a carry out of `b + rotated` could run through those bits into
the next lane.

Records of different lengths share lane blocks by sorting: records are
cut into lane blocks longest first, so within a lane block the lanes still
live at MD5 block j, those whose record pads to more than j blocks, are a
low-order prefix. Before block j the lanes that ended at block j - 1, the
high ones, have their digests copied out of the state ints, and the state
is masked down to the live prefix. Every step then works only on live
lanes, so the work is the total number of record-blocks, not records times
the longest record, and lanes stay wide whatever the spread of lengths.
The digests leave the state ints in sorted order, 16 bytes a record, and
one pass over the sort order puts them back in input order.

A lane block's padded messages are joined back to back in one pass, each
record followed by the tail of its length (0x80, the zeros and its bit
length), which is built once per distinct length.

Block j's message words are gathered by runs. Sorted longest first, the
records of equal block count form runs, and within a run each record's
message starts 64 * blocks bytes after the one before. So word g of block j
of every record in a run is one strided slice of the message's 4-byte
units, copied straight into the low halves of a zeroed buffer of 64-bit
lanes; after one such copy per live run the buffer is read as one int.
Block j then costs 16 copies per live run, however many records a run
holds. Long lines of mixed length make many runs of a record or two, and
there those copies cost more than the records do. So when 16 * live runs
exceeds the live lanes, block j of every live record, 64 bytes each, is
first joined into one buffer, and each word g is one strided slice of it.
The choice is made per block from the input.

Those copies only move bytes, so no lane needs a byteswap on big-endian
hosts: message words, lanes and digests are built and taken apart with
int.from_bytes/to_bytes in little-endian order, MD5's word order, and so is
each record's bit length. `rng._lanes_int` byteswaps because it writes
native-order array('Q') words; nothing here does.

The rounds stay pure Python on purpose: the kernel measures the motif's own
work, and a C library call would measure only the call.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain

from ..datasets import Tensor, TextCorpus

_MASK32 = 0xFFFFFFFF

LANE_BLOCK = 1024  # records per lane block: 8 KB per operand
LANE_BYTES = 1 << 20  # padded message bytes per lane block, unless one record is longer

# K[i] = floor(abs(sin(i + 1)) * 2^32), as listed in RFC 1321 section 3.4:
# literals, so the digests do not hang on how a libm rounds a sine.
_K = (
    0xD76AA478, 0xE8C7B756, 0x242070DB, 0xC1BDCEEE,
    0xF57C0FAF, 0x4787C62A, 0xA8304613, 0xFD469501,
    0x698098D8, 0x8B44F7AF, 0xFFFF5BB1, 0x895CD7BE,
    0x6B901122, 0xFD987193, 0xA679438E, 0x49B40821,
    0xF61E2562, 0xC040B340, 0x265E5A51, 0xE9B6C7AA,
    0xD62F105D, 0x02441453, 0xD8A1E681, 0xE7D3FBC8,
    0x21E1CDE6, 0xC33707D6, 0xF4D50D87, 0x455A14ED,
    0xA9E3E905, 0xFCEFA3F8, 0x676F02D9, 0x8D2A4C8A,
    0xFFFA3942, 0x8771F681, 0x6D9D6122, 0xFDE5380C,
    0xA4BEEA44, 0x4BDECFA9, 0xF6BB4B60, 0xBEBFBC70,
    0x289B7EC6, 0xEAA127FA, 0xD4EF3085, 0x04881D05,
    0xD9D4D039, 0xE6DB99E5, 0x1FA27CF8, 0xC4AC5665,
    0xF4292244, 0x432AFF97, 0xAB9423A7, 0xFC93A039,
    0x655B59C3, 0x8F0CCC92, 0xFFEFF47D, 0x85845DD1,
    0x6FA87E4F, 0xFE2CE6E0, 0xA3014314, 0x4E0811A1,
    0xF7537E82, 0xBD3AF235, 0x2AD7D2BB, 0xEB86D391,
)
_IV = (0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476)
_LANE_ONE = (1).to_bytes(8, "little")
# 0x80 and the zeros that follow a record of length n, by n % 64
_PADDING = [b"\x80" + bytes((55 - n) % 64) for n in range(64)]


def _round_table(r: int, shifts: tuple[int, int, int, int], word) -> tuple:
    """(K[i], g, s, 32 - s) for the 16 steps i of round r, g = word(i)."""
    steps = range(16 * r, 16 * r + 16)
    return tuple((_K[i], word(i), s, 32 - s) for i, s in zip(steps, shifts * 4))


_ROUND1 = _round_table(0, (7, 12, 17, 22), lambda i: i)
_ROUND2 = _round_table(1, (5, 9, 14, 20), lambda i: (5 * i + 1) % 16)
_ROUND3 = _round_table(2, (4, 11, 16, 23), lambda i: (3 * i + 5) % 16)
_ROUND4 = _round_table(3, (6, 10, 15, 21), lambda i: (7 * i) % 16)


def _message_words(message: bytes, starts: list, at: int) -> list[int]:
    """The 16 words of the 64-byte blocks at message[s + at] for every start s,
    as lane ints: int g holds word g of block k in the low half of lane k."""
    words = memoryview(b"".join([message[s + at:s + at + 64] for s in starts])).cast("I")
    lane_bytes = bytearray(8 * len(starts))
    low_halves = memoryview(lane_bytes).cast("I")[::2]
    m = []
    for g in range(16):
        low_halves[:] = words[g::16]
        m.append(int.from_bytes(lane_bytes, "little"))
    return m


def _run_words(words: memoryview, runs: list, live: int, j: int) -> list[int]:
    """The same 16 lane ints for block j of the first `live` lanes, from the
    message's 4-byte words: each run (blocks, first lane, end lane, first
    word, end word) holds records of `blocks` blocks back to back, so word g
    of its lanes is one strided slice."""
    lane_bytes = bytearray(8 * live)
    low_halves = memoryview(lane_bytes).cast("I")[::2]
    m = []
    for g in range(16 * j, 16 * j + 16):
        for blocks, lo, hi, first, end in runs:
            low_halves[lo:hi] = words[first + g:end:16 * blocks]
        m.append(int.from_bytes(lane_bytes, "little"))
    return m


def _md5_lanes(records: list) -> bytes:
    """MD5 digests of byte strings sorted longest first, run as one lane
    block; returned as 16 bytes per record, in order."""
    lengths = list(map(len, records))
    per_length = Counter(lengths)
    per_blocks = Counter()
    for n, count in per_length.items():
        per_blocks[(n + 72) // 64] += count
    runs = []  # (blocks, first lane, end lane, first word, end word), longest first
    lane = word = 0
    for blocks, count in sorted(per_blocks.items(), reverse=True):
        size = 16 * blocks * count
        runs.append((blocks, lane, lane + count, word, word + size))
        lane += count
        word += size
    # The padded messages back to back: each record, then the tail of its
    # length (0x80, zeros and its bit length), built once per length.
    tails = {n: _PADDING[n & 63] + (n << 3).to_bytes(8, "little") for n in per_length}
    message = b"".join(chain.from_iterable(zip(records, map(tails.__getitem__, lengths))))
    words = memoryview(message).cast("I")
    starts = []  # each record's first byte, made when a block first joins its records
    out = bytearray(16 * len(records))
    digest_words = memoryview(out).cast("I")
    live, live_runs = len(records), len(runs)
    ones = int.from_bytes(_LANE_ONE * live, "little")
    M = _MASK32 * ones
    a0, b0, c0, d0 = (v * ones for v in _IV)
    for j in range(runs[0][0] + 1):
        if runs[live_runs - 1][0] == j:
            # The lanes whose last block was j - 1 are the high ones: copy
            # their digests out and drop them from the state.
            done = live
            live_runs -= 1
            live = runs[live_runs][1]
            for w, lane_int in enumerate((a0, b0, c0, d0)):
                ended = (lane_int >> 64 * live).to_bytes(8 * (done - live), "little")
                digest_words[4 * live + w:4 * done:4] = memoryview(ended).cast("I")[::2]
            if not live:
                return bytes(out)
            ones = int.from_bytes(_LANE_ONE * live, "little")
            M = _MASK32 * ones
            a0, b0, c0, d0 = a0 & M, b0 & M, c0 & M, d0 & M
        if 16 * live_runs > live:
            # Many short runs: join block j of each live record first.
            starts = starts or list(chain.from_iterable(
                range(4 * first, 4 * end, 64 * blocks) for blocks, _, _, first, end in runs))
            m = _message_words(message, starts[:live], 64 * j)
        else:
            m = _run_words(words, runs[:live_runs], live, j)
        a, b, c, d = a0, b0, c0, d0
        for k, g, s, t in _ROUND1:
            f = ((d ^ (b & (c ^ d))) + a + k * ones + m[g]) & M
            a, d, c, b = d, c, b, (b + (((f << s) | (f >> t)) & M)) & M
        for k, g, s, t in _ROUND2:
            f = ((c ^ (d & (b ^ c))) + a + k * ones + m[g]) & M
            a, d, c, b = d, c, b, (b + (((f << s) | (f >> t)) & M)) & M
        for k, g, s, t in _ROUND3:
            f = ((b ^ c ^ d) + a + k * ones + m[g]) & M
            a, d, c, b = d, c, b, (b + (((f << s) | (f >> t)) & M)) & M
        for k, g, s, t in _ROUND4:
            f = ((c ^ (b | (d ^ M))) + a + k * ones + m[g]) & M
            a, d, c, b = d, c, b, (b + (((f << s) | (f >> t)) & M)) & M
        a0 = (a0 + a) & M
        b0 = (b0 + b) & M
        c0 = (c0 + c) & M
        d0 = (d0 + d) & M


def _md5_sorted(records: list) -> tuple[list[int], bytes]:
    """The order that sorts byte strings longest first, and their digests
    in that order, 16 bytes each."""
    lengths = list(map(len, records))
    # Longest first, so the lanes still live at any MD5 block are a prefix.
    order = sorted(range(len(records)), key=lengths.__getitem__, reverse=True)
    digests = []
    start = 0
    while start < len(order):
        # LANE_BLOCK records, or fewer when LANE_BYTES would not hold that
        # many at the padded length of the longest, which comes first
        width = LANE_BYTES // (lengths[order[start]] + 72)
        stop = start + min(max(width, 1), LANE_BLOCK)
        digests.append(_md5_lanes(list(map(records.__getitem__, order[start:stop]))))
        start = stop
    return order, b"".join(digests)


def _in_input_order(items: list, order: list[int]) -> list:
    """items[k] belongs to input record order[k]: put each in its place."""
    out = [None] * len(items)
    for i, item in zip(order, items):
        out[i] = item
    return out


def md5_digests(records) -> list[bytes]:
    """16-byte MD5 digests of byte strings (or any bytes-like objects), in
    input order."""
    order, digests = _md5_sorted([bytes(r) for r in records])
    return _in_input_order([digests[at:at + 16] for at in range(0, len(digests), 16)], order)


def md5_corpus(corpus: TextCorpus) -> TextCorpus:
    """Per-record digests: one 32-char hex line per input line (UTF-8 bytes)."""
    order, digests = _md5_sorted(list(map(str.encode, corpus.documents)))
    return TextCorpus(_in_input_order(digests.hex(" ", 16).split(), order))


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
    f = _ACTIVATIONS[fn]
    return Tensor(x.shape, [f(v) for v in x.data])
