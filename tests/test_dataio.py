import random

import pytest

from motifbench.dataio import (
    checksum_payload,
    load_dataset,
    payload_size,
    save_dataset,
)
from motifbench.datasets import (
    Dataset,
    Graph,
    KeyValueSet,
    Matrix,
    Provenance,
    Table,
    Tensor,
    TextCorpus,
)
from motifbench.errors import FormatError, InvariantError
from motifbench.generators import gen_graph


def roundtrip(tmp_path, payload, **kwargs):
    path = str(tmp_path / "data.bin")
    save_dataset(Dataset(payload), path, **kwargs)
    return load_dataset(path).payload


def test_matrix_roundtrip_identity(tmp_path):
    m = Matrix(2, 2, [1, 2, 3, 4])
    assert roundtrip(tmp_path, m) == m


def test_matrix_text_mode_roundtrip(tmp_path):
    m = Matrix(3, 2, [0.1, -2.5, 3e-17, 4.0, 5.5, 6.25])
    assert roundtrip(tmp_path, m, text_matrix=True) == m


def test_empty_corpus_roundtrip(tmp_path):
    path = str(tmp_path / "empty.txt")
    save_dataset(Dataset(TextCorpus([])), path)
    with open(path, "rb") as fh:
        assert fh.read() == b""
    assert load_dataset(path).payload == TextCorpus([])


def test_corpus_roundtrip_preserves_order(tmp_path):
    corpus = TextCorpus(["zeta", "alpha", "", "  spaced  "])
    assert roundtrip(tmp_path, corpus) == corpus


def test_corpus_header_collision_rejected(tmp_path):
    bad = TextCorpus(["#graph v1 2 1", "0 1"])
    with pytest.raises(InvariantError):
        save_dataset(Dataset(bad), str(tmp_path / "x"))


def test_table_roundtrip_with_quoting(tmp_path):
    t = Table(
        [("name", "string"), ("n", "integer"), ("x", "real")],
        [("has,comma", 1, 0.5), ('has"quote', -2, 1e-9), ("plain", 3, 2.0)],
    )
    assert roundtrip(tmp_path, t) == t


def test_tensor_roundtrip(tmp_path):
    t = Tensor((2, 3, 4), [float(i) for i in range(24)])
    assert roundtrip(tmp_path, t) == t


def test_graph_roundtrip(tmp_path):
    g = Graph(4, [(0, 1), (1, 2), (3, 3)], directed=False)
    assert roundtrip(tmp_path, g) == g


def test_kv_roundtrip(tmp_path):
    kv = KeyValueSet({"b": "2", "a": "1", "weird": "tab\there"})
    assert roundtrip(tmp_path, kv) == kv


def test_generated_graph_checksum_stable_over_roundtrip(tmp_path):
    g = gen_graph(64, 300, model="rmat", rng_seed=7)
    before = checksum_payload(g)
    after = checksum_payload(roundtrip(tmp_path, g))
    assert before == after


def test_graph_endpoint_out_of_range_on_load(tmp_path):
    path = tmp_path / "bad.graph"
    path.write_text("#graph v1 2 1\n0 5\n")
    with pytest.raises(FormatError) as err:
        load_dataset(str(path))
    assert "endpoint out of range" in str(err.value)


def test_table_arity_mismatch_on_load(tmp_path):
    path = tmp_path / "bad.table"
    path.write_text("#table v1\na:integer,b:integer\n1,2\n3\n")
    with pytest.raises(FormatError) as err:
        load_dataset(str(path))
    assert "arity" in str(err.value) and ":4" in str(err.value)


def test_matrix_header_consistency_on_load(tmp_path):
    path = tmp_path / "ok.matrix"
    save_dataset(Dataset(Matrix(2, 3, range(6))), str(path))
    loaded = load_dataset(str(path)).payload
    assert loaded.rows * loaded.cols == len(loaded.data)


def test_unknown_header_rejected(tmp_path):
    path = tmp_path / "odd"
    path.write_text("#blob v1 12\n")
    with pytest.raises(FormatError):
        load_dataset(str(path))


def test_missing_file(tmp_path):
    with pytest.raises(FormatError):
        load_dataset(str(tmp_path / "nope"))


def test_truncated_matrix_body(tmp_path):
    path = tmp_path / "trunc.matrix"
    path.write_bytes(b"#matrix v1 2 2\n" + b"\x00" * 17)
    with pytest.raises(FormatError):
        load_dataset(str(path))


def test_checksum_deterministic_and_sensitive():
    a = Matrix(2, 2, [1, 2, 3, 4])
    assert checksum_payload(a) == checksum_payload(Matrix(2, 2, [1, 2, 3, 4]))
    assert checksum_payload(a) != checksum_payload(Matrix(2, 2, [1, 2, 3, 5]))


def test_checksum_ignores_provenance(tmp_path):
    m = Matrix(1, 2, [0.5, 1.5])
    d1 = Dataset(m, Provenance.of("gen_matrix", 1))
    d2 = Dataset(m, "external")
    save_dataset(d1, str(tmp_path / "a.matrix"))
    save_dataset(d2, str(tmp_path / "b.matrix"))
    assert (tmp_path / "a.matrix").read_bytes() == (tmp_path / "b.matrix").read_bytes()
    assert checksum_payload(load_dataset(str(tmp_path / "a.matrix")).payload) == checksum_payload(m)


def test_checksum_distinguishes_kinds():
    # same numeric content, different payload kind
    assert checksum_payload(Matrix(1, 2, [1.0, 2.0])) != checksum_payload(
        Tensor((1, 2), [1.0, 2.0])
    )


def test_checksum_perturbation_sweep(tmp_path):
    rng = random.Random(1234)
    base = [rng.uniform(-10, 10) for _ in range(64)]
    reference = checksum_payload(Matrix(8, 8, base))
    for _ in range(50):
        mutated = list(base)
        mutated[rng.randrange(64)] += rng.choice([-1.0, 1e-9, 1.0])
        assert checksum_payload(Matrix(8, 8, mutated)) != reference


def test_payload_size_positive():
    assert payload_size(TextCorpus(["x"])) > 0


def test_empty_table_roundtrip(tmp_path):
    t = Table([("a", "integer"), ("b", "string")], [])
    assert roundtrip(tmp_path, t) == t


def test_edgeless_graph_roundtrip(tmp_path):
    g = Graph(5, [], directed=True)
    assert roundtrip(tmp_path, g) == g


def test_empty_kv_roundtrip(tmp_path):
    kv = KeyValueSet({})
    assert roundtrip(tmp_path, kv) == kv
