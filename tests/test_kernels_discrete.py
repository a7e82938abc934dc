import hashlib
import math
import random
import string

import pytest
from hypothesis import example, given, strategies as st

from motifbench.datasets import KeyValueSet, Matrix, Table, TextCorpus
from motifbench.errors import KernelError
from motifbench.kernels import get_kernel, logic
from motifbench.kernels.logic import LANE_BLOCK, md5_corpus, md5_digests
from motifbench.kernels.sets import filter_rows, grep, project, set_op, table_union
from motifbench.kernels.sorting import sort_records
from motifbench.kernels.statistic import aggregate, count_records, wordcount

from .oracles import (
    nested_loop_set_op,
    scan_grep,
    stable_mergesort,
    table_of_rows,
    tally_wordcount,
)


def rand_lines(rng, n, alphabet=string.ascii_lowercase, k=8):
    return ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, k))) for _ in range(n)]


# ---------------------------------------------------------------------------
# sort


def test_sort_lines_basic():
    assert sort_records(TextCorpus(["3", "1", "2"]), key=0).documents == ("1", "2", "3")


def test_sort_empty_corpus():
    assert sort_records(TextCorpus([]), key=0).documents == ()


def test_sort_matches_mergesort_oracle():
    rng = random.Random(42)
    lines = rand_lines(rng, 10_000)
    got = sort_records(TextCorpus(lines), key=0).documents
    want = tuple(stable_mergesort(lines, key=lambda s: s))
    assert got == want


def test_sort_is_permutation_and_stable():
    rng = random.Random(7)
    rows = [(rng.randint(0, 5), i) for i in range(500)]
    t = table_of_rows([("k", "integer"), ("orig", "integer")], rows)
    out = sort_records(t, key=0)
    assert sorted(out.rows) == sorted(t.rows)  # multiset equality
    for a, b in zip(out.rows, out.rows[1:]):
        assert a[0] <= b[0]
        if a[0] == b[0]:
            assert a[1] < b[1]  # equal keys keep original order


def test_sort_matrix_rows_by_column():
    m = Matrix(3, 2, [5, 0, 1, 1, 3, 2])
    out = sort_records(m, key=0)
    assert out.data == (1.0, 1.0, 3.0, 2.0, 5.0, 0.0)
    # Keys in column 1 with ties, 0.0 == -0.0 among them: tied rows keep
    # their order, and each zero keeps its sign.
    m = Matrix(5, 2, [0, 0.0, 1, -0.0, 2, 1.0, 3, 0.0, 4, -1.0])
    out = sort_records(m, key=1)
    assert list(map(repr, out.data)) == [
        "4.0", "-1.0", "0.0", "0.0", "1.0", "-0.0", "3.0", "0.0", "2.0", "1.0"]


def test_sort_key_out_of_range():
    with pytest.raises(KernelError):
        sort_records(Matrix(1, 2, [1, 2]), key=2)
    with pytest.raises(KernelError):
        sort_records(TextCorpus(["a"]), key=1)


# ---------------------------------------------------------------------------
# grep


def test_grep_basic():
    assert grep(TextCorpus(["abcd", "xyz"]), "abc").documents == ("abcd",)


def test_grep_absent_pattern():
    assert grep(TextCorpus(["abcd", "xyz"]), "zz").documents == ()


def test_grep_empty_pattern_rejected():
    with pytest.raises(KernelError, match="'pattern' must be non-empty"):
        get_kernel("set.grep").coerce_params({"pattern": ""})


def test_grep_matches_scan_oracle():
    rng = random.Random(11)
    lines = rand_lines(rng, 10_000, alphabet="abc", k=12)
    got = grep(TextCorpus(lines), "ab").documents
    assert list(got) == scan_grep(lines, "ab")


# ---------------------------------------------------------------------------
# kv set ops


def test_set_union_prefers_a():
    a = KeyValueSet({"x": "1", "shared": "a"})
    b = KeyValueSet({"y": "2", "shared": "b"})
    out = set_op(a, b, "union")
    assert out.entries == {"x": "1", "y": "2", "shared": "a"}


def test_set_intersect_idempotent():
    a = KeyValueSet({"x": "1", "y": "2"})
    assert set_op(a, a, "intersect").entries == a.entries


def test_set_ops_match_nested_loop_oracle():
    rng = random.Random(3)
    keys = [f"k{rng.randint(0, 1500)}" for _ in range(1000)]
    a = KeyValueSet({k: "a" for k in keys[:600]})
    b = KeyValueSet({k: "b" for k in keys[400:]})
    for op in ("union", "intersect", "difference"):
        assert set_op(a, b, op).entries == nested_loop_set_op(a.entries, b.entries, op)


# ---------------------------------------------------------------------------
# relational ops


def _people():
    return table_of_rows(
        [("name", "string"), ("age", "integer"), ("score", "real")],
        [("ann", 34, 9.5), ("bob", 21, 7.25), ("cy", 55, 9.5), ("dee", 40, 3.0)],
    )


def test_project_keeps_columns_and_rows():
    out = project(_people(), ["age"])
    assert out.schema == (("age", "integer"),)
    assert len(out.rows) == 4


def test_project_unknown_column():
    with pytest.raises(KernelError):
        project(_people(), ["bogus"])


@pytest.mark.parametrize("call", [
    lambda t: aggregate(t, "bogus", "count", None),
    lambda t: aggregate(t, "name", "sum", "bogus"),
    lambda t: project(t, ["age", "bogus"]),
    lambda t: filter_rows(t, "bogus", "eq", "1"),
], ids=["aggregate-group", "aggregate-target", "project", "filter"])
def test_unknown_column_is_named(call):
    with pytest.raises(KernelError) as err:
        call(_people())
    assert str(err.value) == "unknown column 'bogus'"


def test_filter_always_false_keeps_schema():
    out = filter_rows(_people(), "age", "gt", "1000")
    assert out.rows == () and out.schema == _people().schema


@pytest.mark.parametrize("column, value", [
    ("score", "nan"), ("score", "inf"), ("score", "-inf"), ("score", "1e999"),
    ("age", str(2**63)), ("age", str(-2**63 - 1)),
])
@pytest.mark.parametrize("cmp", ["eq", "lt", "ne"])
def test_filter_refuses_a_literal_its_column_would_refuse(column, value, cmp):
    # the literal is held to its column kind's rule, as each cell is
    with pytest.raises(KernelError) as err:
        filter_rows(_people(), column, cmp, value)
    kind = dict(_people().schema)[column]
    assert str(err.value) == f"literal {value!r} is not a valid {kind}"


def test_filter_keeps_a_literal_at_its_column_bounds():
    assert len(filter_rows(_people(), "age", "lt", str(2**63 - 1))) == 4
    assert len(filter_rows(_people(), "age", "gt", str(-2**63))) == 4
    assert len(filter_rows(_people(), "score", "lt", "1.7976931348623157e308")) == 4


def test_filter_matches_row_scan_oracle():
    rng = random.Random(5)
    rows = [(i, rng.randint(0, 1000)) for i in range(1000)]
    t = table_of_rows([("id", "integer"), ("v", "integer")], rows)
    values = sorted(r[1] for r in rows)
    median = values[len(values) // 2]
    got = filter_rows(t, "v", "gt", str(median)).rows
    want = tuple(r for r in rows if r[1] > median)
    assert got == want


def test_table_union_bag_semantics():
    t = _people()
    out = table_union(t, t)
    assert len(out.rows) == 8 and out.rows[:4] == t.rows


def test_table_union_schema_mismatch():
    with pytest.raises(KernelError):
        table_union(_people(), Table([("x", "integer")], [()]))


# ---------------------------------------------------------------------------
# wordcount / aggregate / count


def test_wordcount_basic():
    out = wordcount(TextCorpus(["a b a"]))
    assert out.entries == {"a": "2", "b": "1"}


def test_wordcount_empty():
    assert wordcount(TextCorpus([])).entries == {}


def test_wordcount_matches_tally_oracle_on_big_corpus():
    rng = random.Random(9)
    words = [f"w{rng.randint(0, 300)}" for _ in range(3000)]
    lines = [" ".join(words[i : i + 10]) for i in range(0, len(words), 10)]
    # about 1 MB of text
    lines = lines * (1_000_000 // max(1, sum(len(l) + 1 for l in lines)) + 1)
    got = wordcount(TextCorpus(lines)).entries
    want = tally_wordcount(lines)
    assert got == {k: str(v) for k, v in want.items()}
    assert sum(int(v) for v in got.values()) == sum(len(l.split()) for l in lines)


def test_aggregate_avg_small():
    t = table_of_rows([("g", "string"), ("v", "integer")], [("g", 1), ("g", 3)])
    out = aggregate(t, "g", "avg", "v")
    assert out.rows == (("g", 2.0),)


def test_aggregate_count_empty():
    t = table_of_rows([("g", "string"), ("v", "integer")], [])
    assert aggregate(t, "g", "count", None).rows == ()


def test_aggregate_matches_hash_tally_oracle():
    rng = random.Random(13)
    rows = [(f"g{rng.randint(0, 50)}", rng.uniform(-100, 100)) for _ in range(10_000)]
    t = table_of_rows([("g", "string"), ("v", "real")], rows)
    got = {r[0]: r[1] for r in aggregate(t, "g", "avg", "v").rows}
    sums: dict[str, float] = {}
    counts: dict[str, int] = {}
    for g, v in rows:
        sums[g] = sums.get(g, 0.0) + v
        counts[g] = counts.get(g, 0) + 1
    for g in sums:
        assert got[g] == pytest.approx(sums[g] / counts[g], rel=1e-12)


def test_aggregate_sum_of_reals_is_rounded_once():
    t = table_of_rows([("g", "string"), ("v", "real")], [("a", 0.1), ("a", 0.2), ("a", 0.3)])
    assert aggregate(t, "g", "sum", "v").rows == (("a", 0.6),)  # 0.6000000000000001 left to right


def test_aggregate_group_order_is_first_appearance():
    t = table_of_rows([("g", "string"), ("v", "integer")], [("b", 1), ("a", 1), ("b", 2)])
    assert [r[0] for r in aggregate(t, "g", "count", None).rows] == ["b", "a"]


def test_aggregate_rejects_non_numeric_target():
    t = table_of_rows([("g", "string"), ("s", "string")], [("g", "x")])
    with pytest.raises(KernelError):
        aggregate(t, "g", "sum", "s")


def test_count_records_kinds():
    assert count_records(TextCorpus(["a", "b"])).entries == {"count": "2"}
    assert count_records(Matrix(3, 2, range(6))).entries == {"count": "3"}


# ---------------------------------------------------------------------------
# md5


RFC_VECTORS = {
    "": "d41d8cd98f00b204e9800998ecf8427e",
    "a": "0cc175b9c0f1b6a831c399e269772661",
    "abc": "900150983cd24fb0d6963f7d28e17f72",
    "message digest": "f96b697d7cb7938d525a2f31aaf161d0",
    "abcdefghijklmnopqrstuvwxyz": "c3fcd3d76192e4007dfb496cca67e13b",
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789":
        "d174ab98d277d9f5a5611c2c9f419d9f",
    "1234567890" * 8: "57edf4a22be3c955ac49da2e2107b67a",
}


def test_md5_reference_vectors():
    got = md5_digests(text.encode() for text in RFC_VECTORS)
    assert [d.hex() for d in got] == list(RFC_VECTORS.values())


def test_md5_constant_literals_equal_this_platforms_sines():
    # logic._K holds RFC 1321's literals; the rule they come from, checked
    # here with this libm, no longer runs at import.
    assert list(logic._K) == [int(abs(math.sin(i + 1)) * 2**32) for i in range(64)]


def test_md5_matches_library_oracle_on_random_inputs():
    rng = random.Random(17)
    for _ in range(200):
        data = bytes(rng.randrange(256) for _ in range(rng.randint(0, 300)))
        assert md5_digests([data]) == [hashlib.md5(data).digest()]


# Record lengths within 2 bytes of the MD5 padding boundaries (see
# test_pinned.test_md5_block_boundary_lengths), so one call mixes records of
# one, two and three blocks.
md5_record = st.sampled_from([0, 55, 56, 63, 64, 119, 120, 128]).flatmap(
    lambda n: st.integers(max(0, n - 2), n + 2)).flatmap(
    lambda n: st.binary(min_size=n, max_size=n))


@given(records=st.lists(md5_record, max_size=40))
@example(records=[])
# one long record among many short ones
@example(records=[bytes([i]) * (i % 60) for i in range(30)] + [b"\xa5" * 5000]
         + [bytes([i]) * (i % 60) for i in range(30, 60)])
def test_md5_digests_match_hashlib_in_input_order(records):
    assert md5_digests(records) == [hashlib.md5(x).digest() for x in records]


def test_md5_digests_past_one_lane_block():
    # all one MD5 block long, so the second lane block holds one record
    records = [i.to_bytes(2, "little") * (i % 28) for i in range(LANE_BLOCK + 1)]
    assert md5_digests(records) == [hashlib.md5(x).digest() for x in records]


def test_md5_digests_lanes_end_at_every_block():
    # Two records of each length 0, 7, ..., 994 in one lane block, shuffled:
    # lanes end after every MD5 block from 1 to 16, several at a time.
    rng = random.Random(7)
    records = [bytes(rng.randrange(256) for _ in range(n)) for n in range(0, 1000, 7)] * 2
    rng.shuffle(records)
    assert md5_digests(records) == [hashlib.md5(x).digest() for x in records]


def test_md5_digests_lane_blocks_close_on_either_cap(monkeypatch):
    # Small caps, so lane blocks close on the record cap, on the byte cap,
    # and hold a single record longer than the byte cap.
    monkeypatch.setattr(logic, "LANE_BLOCK", 5)
    monkeypatch.setattr(logic, "LANE_BYTES", 300)
    rng = random.Random(8)
    records = [bytes(rng.randrange(256) for _ in range(rng.choice([0, 10, 60, 200, 700])))
               for _ in range(60)]
    assert md5_digests(records) == [hashlib.md5(x).digest() for x in records]


def test_md5_digests_lane_block_of_few_long_runs():
    # 300 records each of one, two and three MD5 blocks, shuffled: sorted
    # longest first, the lane block holds three long runs of equal block count.
    rng = random.Random(9)
    records = [bytes(rng.randrange(256) for _ in range(rng.randint(lo, lo + 55)))
               for lo in (0, 56, 120) for _ in range(300)]
    rng.shuffle(records)
    assert md5_digests(records) == [hashlib.md5(x).digest() for x in records]


def test_md5_corpus_non_ascii_lines():
    # UTF-8 lengths differ from str lengths, so a line's block count is its
    # encoded length's: 20 two-byte characters pad to one block, 30 to two.
    rng = random.Random(10)
    alphabet = "aé☕日" + string.ascii_letters
    lines = ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 90)))
             for _ in range(500)] + ["é" * 20, "é" * 30, "☕" * 19, "日" * 40]
    want = tuple(hashlib.md5(line.encode("utf-8")).hexdigest() for line in lines)
    assert md5_corpus(TextCorpus(lines)).documents == want


def test_md5_lane_carry_stays_in_its_lane():
    # Pick the first message word so that step 1 computes f = 0xFFFFFFFF in
    # every lane. Then the rotation leaves the lane above's low bits, all
    # ones, in each lane's guard bits, and adding b to an unmasked rotation
    # would carry into the next lane.
    a, b, c, d = 0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476
    word = (0xFFFFFFFF - (d ^ (b & (c ^ d))) - a - 0xD76AA478) % 2**32
    records = [word.to_bytes(4, "little") + bytes([i]) for i in range(3)]
    assert md5_digests(records) == [hashlib.md5(x).digest() for x in records]


def test_md5_corpus_digest_per_record():
    out = md5_corpus(TextCorpus(["abc", ""]))
    assert out.documents == (
        "900150983cd24fb0d6963f7d28e17f72",
        "d41d8cd98f00b204e9800998ecf8427e",
    )
    assert all(len(bytes.fromhex(line)) == 16 for line in out.documents)
