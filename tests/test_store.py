import ast
import builtins
import dataclasses
import hashlib
import io
import json
import os
import re
import struct
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fbl
from conftest import repeated_row_docs, reseal
from fbl.cli import main
from fbl.embed import (
    EmbeddingMatrix,
    LinearProjection,
    PackedCorpus,
    _normalize_rows,
)
from fbl.errors import FormatError
from fbl.index import IvfPqIndex, build_index, candidate_docs
from fbl.retrieve import rank_exact, rank_two_stage
from fbl.store import (
    DOCS_NAME,
    EMBEDDER_NAME,
    INDEX_NAME,
    MANIFEST_NAME,
    PROJECTION_NAME,
    VOCAB_NAME,
    Manifest,
    SessionArtifacts,
    _fbli_pieces,
    _fblp_pieces,
    _write,
    load_embedder,
    load_index,
    load_projection,
    load_manifest,
    load_session,
    read_doc_pack,
    read_matrix_file,
    save_session,
    write_matrix_file,
)

VOCAB = "a\nb\n"


def write_doc_pack(path, matrices):
    """Pack document matrices and write them as FBLP through the store's writer."""
    _write(path, _fblp_pieces(PackedCorpus.from_matrices(matrices)))


def _unit(a):
    a = np.asarray(a, dtype=np.float32)
    return a / np.linalg.norm(a, axis=1, keepdims=True)


def _pieces():
    rng = np.random.default_rng(0)
    docs = {
        f"c{i}:0:0": EmbeddingMatrix(rows=_unit(rng.standard_normal((4, 8))))
        for i in range(12)
    }
    index = build_index(docs, n_partitions=4, n_subspaces=2, n_codewords=8, seed=1)
    projection = LinearProjection.seeded_init(16, 8, seed=2)
    manifest = Manifest(
        corpus_hash="ch",
        granularity="hunk",
        strategy="arcl",
        vocab_hash="vh",
        embedder_kind="hash",
        embedder_seed=1,
        d_in=16,
        d_out=8,
        projection_hash="ph",
        n_partitions=4,
        n_subspaces=2,
        n_codewords=8,
        seed=1,
        doc_limit=256,
    )
    return manifest, index, projection, docs


@pytest.fixture
def session_pieces():
    return _pieces()


def test_doc_pack_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    docs = {
        "a:0:0": EmbeddingMatrix(rows=_unit(rng.standard_normal((3, 4)))),
        "b:0:0": EmbeddingMatrix(rows=_unit(rng.standard_normal((5, 4)))),
        "empty:0:0": EmbeddingMatrix(rows=np.zeros((0, 4), dtype=np.float32)),
    }
    p = tmp_path / "docs.fblp"
    write_doc_pack(p, docs)
    back = read_doc_pack(p)
    assert isinstance(back, PackedCorpus)
    assert list(back.keys()) == list(docs.keys())
    for k in docs:
        np.testing.assert_array_equal(back[k].rows, docs[k].rows)


def test_doc_pack_drops_zero_rows_and_keeps_empty_docs(tmp_path):
    rng = np.random.default_rng(5)
    a = _unit(rng.standard_normal((3, 4)))
    a[1] = 0.0
    docs = {"a:0:0": EmbeddingMatrix(rows=a), "z:0:0": EmbeddingMatrix(rows=np.zeros((2, 4)))}
    p = tmp_path / "docs.fblp"
    write_doc_pack(p, docs)
    back = read_doc_pack(p)
    np.testing.assert_array_equal(back["a:0:0"].rows, a[[0, 2]])
    assert back["z:0:0"].n_rows == 0
    np.testing.assert_array_equal(back.offsets, [0, 2, 2])


def test_doc_pack_version_1_names_the_fix(tmp_path):
    p = tmp_path / "docs.fblp"
    write_doc_pack(p, {"a:0:0": EmbeddingMatrix(rows=_unit(np.ones((1, 4))))})
    raw = bytearray(p.read_bytes())
    for version in (1, 2, 4):  # v2 held a row-dtype flag, v4 no width
        raw[4:8] = version.to_bytes(4, "little")
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=f"version {version}.*re-run `fbl index`"):
            read_doc_pack(p)


def test_doc_pack_rejects_decreasing_doc_offsets(tmp_path):
    rng = np.random.default_rng(23)
    docs = {f"d{i}:0:0": EmbeddingMatrix(rows=_unit(rng.standard_normal((2, 4))))
            for i in range(3)}
    p = tmp_path / "docs.fblp"
    write_doc_pack(p, docs)
    raw = bytearray(p.read_bytes())
    raw[36 + 8 : 36 + 16] = (5).to_bytes(8, "little")  # doc 0 ends past where doc 1 does
    p.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="doc offsets"):
        read_doc_pack(p)


def _fblp_bytes(tmp_path, repeats: bool) -> tuple[bytearray, int, int]:
    """A written pack's bytes, and where its refs and its table start (FBLP v5, f4 table)."""
    rows = _unit(np.random.default_rng(9).standard_normal((3, 4)))
    pick = ([0, 1, 2], [2, 1, 0]) if repeats else ([0, 1], [2])  # rows repeat across docs
    p = tmp_path / "docs.fblp"
    write_doc_pack(p, {"a:0:0": rows[pick[0]], "b:0:0": rows[pick[1]]})
    refs = 36 + 3 * 8
    return bytearray(p.read_bytes()), refs, refs + (6 * 4 if repeats else 0)


def _fblp_edits(tmp_path):
    with_refs, refs, table = _fblp_bytes(tmp_path, repeats=True)
    distinct, d_refs, _ = _fblp_bytes(tmp_path, repeats=False)
    ref_past_table = bytearray(with_refs)
    ref_past_table[refs + 4 : refs + 8] = (3).to_bytes(4, "little")  # the table holds 3 rows
    table_over_rows = bytearray(with_refs)
    table_over_rows[24:32] = (7).to_bytes(8, "little")  # 6 rows
    identity_refs = distinct[:d_refs] + np.arange(3, dtype="<u4").tobytes() + distinct[d_refs:]
    v3 = bytearray(with_refs)
    v3[4:8] = (3).to_bytes(4, "little")
    # no width: without a table to size them, a huge row count must not become refs
    no_width = bytearray(distinct[:d_refs])
    no_width[12:32] = struct.pack("<IQQ", 0, 1 << 40, 1 << 40)
    no_width[d_refs - 8 : d_refs] = (1 << 40).to_bytes(8, "little")
    no_width += distinct[-(2 * 4 + len("a:0:0b:0:0")) :]
    return {
        "ref_past_the_table": (ref_past_table, "row ref 3 >= table size 3"),
        "table_over_rows": (table_over_rows, "7 table rows of width 4 for 6 rows"),
        "rows_without_width": (no_width, "width 0"),
        "refs_with_a_full_table": (identity_refs, None),
        "no_refs_with_a_smaller_table": (with_refs[:refs] + with_refs[table:], None),
        "truncated_table": (with_refs[: table + 10], None),
        "version_3": (v3, "version 3.*re-run `fbl index`"),
        "id_not_utf8": (distinct[:-1] + b"\xff", "utf-8"),
        "repeated_id": (distinct[:-5] + b"a:0:0", "must be unique"),
    }


@pytest.mark.parametrize(
    "case",
    ["ref_past_the_table", "table_over_rows", "rows_without_width", "refs_with_a_full_table",
     "no_refs_with_a_smaller_table", "truncated_table", "version_3", "id_not_utf8",
     "repeated_id"],
)
def test_doc_pack_v5_regions_are_untrusted(tmp_path, case):
    blob, message = _fblp_edits(tmp_path)[case]
    p = tmp_path / "bad.fblp"
    p.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match=message):
        read_doc_pack(p)


def test_doc_pack_stores_each_distinct_row_once(tmp_path):
    # repeated rows: one table row each plus a u4 ref per row; distinct rows
    # store no refs, and both read back as written
    for repeats, size in ((True, 36 + 3 * 8 + 6 * 4 + 3 * 16), (False, 36 + 3 * 8 + 3 * 16)):
        blob, _, _ = _fblp_bytes(tmp_path, repeats)
        ids = 2 * 4 + len("a:0:0b:0:0")
        assert len(blob) == size + ids
        back = read_doc_pack(tmp_path / "docs.fblp")
        assert back.table.shape == (3, 4) and not back.table.flags.owndata
        assert back.refs.tolist() == ([0, 1, 2, 2, 1, 0] if repeats else [0, 1, 2])


@settings(max_examples=100, deadline=None)
@given(docs=repeated_row_docs())
def test_a_pack_of_document_sets_round_trips_through_fblp(tmp_path_factory, docs):
    table, refs, offsets = docs
    matrices = {f"d{i}:0:0": table[refs[offsets[i] : offsets[i + 1]]]
                for i in range(offsets.shape[0] - 1)}
    p = tmp_path_factory.mktemp("fblp") / "docs.fblp"
    write_doc_pack(p, matrices)
    back, want = read_doc_pack(p), PackedCorpus.from_matrices(matrices)
    assert back.table.tobytes() == want.table.tobytes()
    assert back.refs.tolist() == want.refs.tolist()
    assert back.offsets.tolist() == want.offsets.tolist()
    assert back.ids == want.ids == list(matrices)
    for i in range(len(back)):  # each document holds a table row at most once
        doc = back.refs[back.offsets[i] : back.offsets[i + 1]]
        assert np.unique(doc).size == doc.size


def _fblp(path, table, refs, offsets, ids=("a:0:0", "b:0:0", "c:0:0")):
    """Write an FBLP v5 file of the given arrays as they are, in any order, at 4 bytes a value."""
    table = np.asarray(table, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(b"FBLP" + struct.pack("<IIIQQI", 5, len(ids), table.shape[1], len(refs),
                                       table.shape[0], 4))
        fh.write(np.asarray(offsets, dtype="<i8").tobytes())
        fh.write(np.asarray(refs, dtype="<u4").tobytes() + table.tobytes())
        raw = [doc_id.encode("utf-8") for doc_id in ids]
        fh.write(np.asarray([len(r) for r in raw], dtype="<u4").tobytes() + b"".join(raw))


# -- value widths: a float16 value is stored in 2 bytes, any other float32 in 4 --------

# -0.0, the smallest and largest float16 subnormals and float16's largest value,
# then values a float16 cannot hold: between two subnormals, under the smallest,
# past the largest, and one float32 ulp off 1.0
_HALF_EDGES = [-0.0, 2.0**-24, -(2.0**-14 - 2.0**-24), 65504.0]
_NOT_HALF = [1.5 * 2.0**-24, 2.0**-26, 65520.0, np.nextafter(np.float32(1), np.float32(2))]
_HALF_VALUES = st.one_of(
    st.sampled_from(_HALF_EDGES),
    st.floats(width=16, allow_nan=False, allow_infinity=False),
)
_FLOAT32_VALUES = st.one_of(
    _HALF_VALUES,
    st.sampled_from(_NOT_HALF),
    st.floats(-1e6, 1e6, width=32),
)


@st.composite
def _value_arrays(draw, max_rows=5):
    """A float32 (rows, dim) array of float16 values, or of any finite float32 values."""
    rows, dim = draw(st.integers(1, max_rows)), draw(st.integers(1, 6))
    values = _HALF_VALUES if draw(st.booleans()) else _FLOAT32_VALUES
    flat = draw(st.lists(values, min_size=rows * dim, max_size=rows * dim))
    return np.asarray(flat, dtype=np.float32).reshape(rows, dim)


def _is_half(values: np.ndarray) -> bool:
    with np.errstate(over="ignore"):
        back = values.astype(np.float16).astype(np.float32)
    return back.tobytes() == values.tobytes()


@settings(max_examples=150, deadline=None)
@given(matrix=_value_arrays())
def test_an_fble_matrix_keeps_its_bits_at_the_width_its_values_allow(tmp_path_factory, matrix):
    p = tmp_path_factory.mktemp("fble") / "m.fble"
    write_matrix_file(p, matrix)
    blob, half = p.read_bytes(), _is_half(matrix)
    if half:  # version 2, width 2
        assert struct.unpack_from("<IIII", blob, 4) == (2, *matrix.shape, 2)
        assert blob[20:] == matrix.astype("<f2").tobytes()
    else:  # version 1: the float32 layout, byte for byte
        assert blob == b"FBLE" + struct.pack("<III", 1, *matrix.shape) + matrix.tobytes()
    back = read_matrix_file(p)  # as stored
    assert back.dtype == (np.float16 if half else np.float32) and not back.flags.writeable
    assert back.astype(np.float32).tobytes() == matrix.tobytes()


@settings(max_examples=150, deadline=None)
@given(table=_value_arrays(max_rows=6))
def test_an_fblp_table_keeps_its_bits_at_the_width_its_values_allow(tmp_path_factory, table):
    # packing lets through no zero row: give each one a 1.0, a float16 value like the 0.0 it was
    table[np.einsum("ij,ij->i", table, table) == 0, 0] = 1.0
    n = table.shape[0]
    pack = PackedCorpus(table, np.arange(n, dtype=np.uint32), np.array([0, 1, n]),
                        ["a:0:0", "b:0:0"])
    p = tmp_path_factory.mktemp("fblp") / "docs.fblp"
    _write(p, _fblp_pieces(pack))
    blob, width = p.read_bytes(), 2 if _is_half(table) else 4
    assert struct.unpack_from("<I", blob, 32)[0] == width
    start = 36 + 3 * 8  # distinct rows: no refs
    assert blob[start : start + table.size * width] == table.astype(f"<f{width}").tobytes()
    back = read_doc_pack(p)
    assert back.table.dtype == np.float32 and not back.table.flags.writeable
    assert back.table.tobytes() == table.tobytes()
    assert back.refs.tolist() == list(range(n)) and back.ids == pack.ids


def test_float32_rows_that_are_no_float16_values_keep_their_table_bytes(tmp_path):
    # as a library caller's unit rows are: the table stays f4, and only the
    # header moves from FBLP v4
    blob, refs, table_at = _fblp_bytes(tmp_path, repeats=True)
    rows = _unit(np.random.default_rng(9).standard_normal((3, 4)))
    assert blob[32:36] == (4).to_bytes(4, "little")
    assert blob[table_at : table_at + rows.nbytes] == rows.astype("<f4").tobytes()


def _half_fble(tmp_path, values=((0.5, -0.25), (1.0, 2.0))):
    p = tmp_path / "half.fble"
    write_matrix_file(p, np.asarray(values))
    assert p.read_bytes()[4] == 2
    return p


def _half_fblp(tmp_path):
    p = tmp_path / "half.fblp"
    write_doc_pack(p, {"a:0:0": np.array([[0.5, -0.5], [1.0, 0.0]]), "b:0:0": np.eye(2)[1:]})
    assert p.read_bytes()[32:36] == (2).to_bytes(4, "little")
    return p


@pytest.mark.parametrize("width", [0, 1, 3, 8, 1 << 31])
def test_a_width_other_than_2_or_4_raises_format_error_naming_the_file(tmp_path, width):
    fble, fblp = _half_fble(tmp_path), _half_fblp(tmp_path)
    for path, at, read in ((fble, 16, read_matrix_file), (fblp, 32, read_doc_pack)):
        blob = path.read_bytes()
        path.write_bytes(blob[:at] + struct.pack("<I", width) + blob[at + 4 :])
        with pytest.raises(FormatError, match=f"^{path}: {width} bytes per value; expected 2"):
            read(path)


def test_a_truncated_half_width_payload_raises_format_error_naming_the_file(tmp_path):
    fble, fblp = _half_fble(tmp_path), _half_fblp(tmp_path)
    fble.write_bytes(fble.read_bytes()[:-1])
    with pytest.raises(FormatError, match=f"^{fble}: truncated payload \\(4 x <f2"):
        read_matrix_file(fble)
    # the table ends 2 x 2 bytes before the doc-id table's 2 lengths and 10 bytes
    blob = fblp.read_bytes()
    fblp.write_bytes(blob[: len(blob) - 18 - 1])
    with pytest.raises(FormatError, match=f"^{fblp}: truncated table \\(6 x <f2"):
        read_doc_pack(fblp)


@pytest.mark.parametrize("bits", [0x7C00, 0xFC00, 0x7E00, 0x7C01], ids=["inf", "-inf", "nan",
                                                                        "signalling_nan"])
def test_a_non_finite_half_width_value_raises_format_error_naming_the_file(tmp_path, bits):
    fble, fblp = _half_fble(tmp_path), _half_fblp(tmp_path)
    value = struct.pack("<H", bits)
    blob = fble.read_bytes()
    fble.write_bytes(blob[:22] + value + blob[24:])  # the second value
    for load in (load_projection, load_embedder):
        with pytest.raises(FormatError, match=f"^{fble}: "):
            load(fble)
    blob = fblp.read_bytes()
    at = 36 + 3 * 8  # the first table value
    fblp.write_bytes(blob[:at] + value + blob[at + 2 :])
    with pytest.raises(FormatError, match=f"^{fblp}: table row 0 has a zero or non-finite norm"):
        read_doc_pack(fblp)


def test_an_fble_of_version_1_still_loads(tmp_path):
    # users supply FBLE files (--projection, --embedder file:) that predate widths
    weights = np.random.default_rng(3).standard_normal((6, 4)).astype(np.float32)
    p = tmp_path / "v1.fble"
    p.write_bytes(b"FBLE" + struct.pack("<III", 1, 6, 4) + weights.astype("<f4").tobytes())
    assert read_matrix_file(p).tobytes() == weights.tobytes()
    assert np.array_equal(load_projection(p).weights, weights.astype(np.float64))
    assert load_embedder(p).matrix.tobytes() == weights.tobytes()


def test_doc_pack_rejects_refs_out_of_first_use_order(tmp_path):
    # refs [2, 0, 1, 0]: PackedCorpus.prefix(2) would hand the kernel three
    # table rows as if they were the four pack rows and swap a's and b's scores
    table = _unit(np.random.default_rng(31).standard_normal((3, 4)))
    p = tmp_path / "docs.fblp"
    _fblp(p, table, [2, 0, 1, 0], [0, 1, 3, 4])
    with pytest.raises(FormatError, match=f"{p}: row ref 2 at row 0 is not in order"):
        read_doc_pack(p)
    _fblp(p, table, [0, 1, 0, 1], [0, 1, 3, 4])  # table row 2 is never used
    with pytest.raises(FormatError, match="the refs use 2 of 3 table rows"):
        read_doc_pack(p)
    _fblp(p, table, [0, 1, 2, 0], [0, 1, 3, 4])
    pack = read_doc_pack(p)
    np.testing.assert_array_equal(pack.prefix(2).table, table[:3])
    np.testing.assert_array_equal(pack["b:0:0"].rows, table[[1, 2]])


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0])
def test_doc_pack_rejects_a_non_finite_or_zero_table_row(tmp_path, value):
    table = _unit(np.random.default_rng(37).standard_normal((3, 4)))
    table[1, 2] = value
    if value == 0:  # an all-zero row
        table[1] = 0.0
    p = tmp_path / "docs.fblp"
    _fblp(p, table, [0, 1, 2, 1], [0, 1, 3, 4])
    with pytest.raises(FormatError, match=f"{p}: table row 1 has a zero or non-finite norm"):
        read_doc_pack(p)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 3e38])  # 3e38 squared overflows
def test_packing_refuses_a_row_whose_squared_norm_is_not_finite(tmp_path, session_pieces, value):
    manifest, index, projection, _ = session_pieces
    rows = _unit(np.random.default_rng(41).standard_normal((40, 4)))
    rows[5, 1] = value
    docs = {f"c{i}:0:0": EmbeddingMatrix(rows=rows[4 * i : 4 * i + 4]) for i in range(10)}
    with pytest.raises(ValueError, match="table row 5 has a squared norm that is not finite"):
        PackedCorpus.from_matrices(docs)
    with pytest.raises(ValueError, match="table row 5 "):
        save_session(tmp_path, manifest, index, projection, docs, VOCAB)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("region", ["coarse", "codebooks"])
def test_index_rejects_a_non_finite_quantizer(tmp_path, session_pieces, region):
    _, index, _, docs = session_pieces
    p = tmp_path / INDEX_NAME
    getattr(index, region).flat[3] = np.nan
    _write(p, _fbli_pieces(index))
    with pytest.raises(FormatError, match=f"{p}: a coarse centroid or codebook value"):
        load_index(p, PackedCorpus.from_matrices(docs))


def test_session_roundtrip(tmp_path, session_pieces):
    manifest, index, projection, docs = session_pieces
    save_session(tmp_path, manifest, index, projection, docs, VOCAB)
    arts = load_session(tmp_path)
    assert isinstance(arts, SessionArtifacts)
    assert arts.manifest == manifest
    assert manifest.format_versions == {"fbli": 5, "fble": 2, "fblp": 5}
    # one document table: the index borrows the loaded pack's
    assert arts.index.doc_refs is arts.doc_matrices.refs
    assert arts.index.doc_offsets is arts.doc_matrices.offsets
    assert arts.index.doc_ids is arts.doc_matrices.ids
    np.testing.assert_array_equal(
        arts.projection.weights.astype(np.float32), projection.weights.astype(np.float32)
    )
    assert set(arts.doc_matrices) == set(docs)
    assert arts.index.n_embeddings == index.n_embeddings
    assert (tmp_path / "vocab.txt").read_text() == "a\nb\n"


def test_session_reserialization_is_byte_identical(tmp_path, session_pieces):
    manifest, index, projection, docs = session_pieces
    d1 = tmp_path / "s1"
    d2 = tmp_path / "s2"
    save_session(d1, manifest, index, projection, docs, VOCAB)
    arts = load_session(d1)
    save_session(d2, arts.manifest, arts.index, arts.projection, arts.doc_matrices, arts.vocab)
    for name in (INDEX_NAME, DOCS_NAME, PROJECTION_NAME, VOCAB_NAME, MANIFEST_NAME):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name


def test_index_of_another_size_raises_format_error(tmp_path, session_pieces):
    manifest, index, projection, docs = session_pieces
    save_session(tmp_path / "a", manifest, index, projection, docs, VOCAB)
    fewer = dict(list(docs.items())[:-1])
    other = build_index(fewer, n_partitions=4, n_subspaces=2, n_codewords=8, seed=1)
    save_session(tmp_path / "b", manifest, other, projection, fewer, VOCAB)
    # b's index under a's pack, with the manifest vouching for it
    swapped = (tmp_path / "b" / INDEX_NAME).read_bytes()
    (tmp_path / "a" / INDEX_NAME).write_bytes(swapped)
    path = tmp_path / "a" / MANIFEST_NAME
    data = json.loads(path.read_text())
    data["checksums"][INDEX_NAME] = hashlib.sha256(swapped).hexdigest()
    path.write_text(reseal(data))
    with pytest.raises(FormatError, match="indexes 44 table rows"):
        load_session(tmp_path / "a")


def test_load_session_opens_each_artifact_once(tmp_path, session_pieces, monkeypatch, capsys):
    manifest, index, projection, docs = session_pieces
    emb = tmp_path / "emb.fble"
    write_matrix_file(emb, np.random.default_rng(4).standard_normal((16, 16)))
    session = tmp_path / "session"
    save_session(session, dataclasses.replace(manifest, embedder_kind="file"), index,
                 projection, docs, VOCAB, emb.read_bytes())
    opened = Counter()
    real_open = io.open

    def counting_open(file, *args, **kwargs):
        opened[os.path.basename(file)] += 1
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", counting_open)
    monkeypatch.setattr(builtins, "open", counting_open)
    once = {MANIFEST_NAME: 1, INDEX_NAME: 1, DOCS_NAME: 1, PROJECTION_NAME: 1, VOCAB_NAME: 1,
            EMBEDDER_NAME: 1}
    load_session(session)
    assert opened == once
    # the query parses the vocabulary and embedder from the bytes load_session verified
    opened.clear()
    assert main(["query", "--session", str(session), "--text", "a b", "--topk", "3"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3
    assert opened == once


def test_save_session_opens_each_artifact_once_for_writing(tmp_path, session_pieces,
                                                           monkeypatch):
    # the checksums are of the bytes written: nothing is read back
    manifest, index, projection, docs = session_pieces
    opened = Counter()
    real_open = io.open

    def counting_open(file, mode="r", *args, **kwargs):
        # a temp file is named after its artifact: index.fbli.<pid>.<token>.tmp
        opened[".".join(os.path.basename(file).split(".")[:2]), mode] += 1
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(io, "open", counting_open)
    monkeypatch.setattr(builtins, "open", counting_open)
    embedder = b"FBLE" + struct.pack("<III", 1, 1, 16) + bytes(64)
    save_session(tmp_path, dataclasses.replace(manifest, embedder_kind="file"), index,
                 projection, docs, VOCAB, embedder)
    names = [MANIFEST_NAME, INDEX_NAME, DOCS_NAME, PROJECTION_NAME, VOCAB_NAME, EMBEDDER_NAME]
    assert opened == {(name, "wb"): 1 for name in names}
    monkeypatch.undo()
    assert (tmp_path / EMBEDDER_NAME).read_bytes() == embedder
    assert load_session(tmp_path).embedder == embedder


# a session of hand-made arrays (no k-means or GEMM), and the sha256 of each file it
# saves to, taken when every artifact had its own writer; a pack's is of its FBLP v4
# bytes, which v5 keeps after its header when the table stays at 4 bytes a value
_GOLDEN_VOCAB = b"[PAD]\r\nfoo\n\xff\n"  # stored as given
_GOLDEN = {
    INDEX_NAME: "f24aec75914cab63c65cf9629e3259abbbefc7aecddf43fda5aa615d63c82563",
    VOCAB_NAME: "0b4b19e5d2f056ddbbf37e3c531be6e716d2961d99742e680b9b14debe48c1da",
}
_GOLDEN_BY_PACK = {
    True: {DOCS_NAME: "9c8ef4338cd59fc5e3047ef1cd922d9924e179b9fdd01736fd47261ef6313543",
           MANIFEST_NAME: "7e55dc20f33779a7d7426bb356a22f525a72ca465b34aba917888266801402b5"},
    False: {DOCS_NAME: "4cc20695d27a510170381768ad5d2720d1c2593dc780d3a04dc6db21f800b9ca",
            MANIFEST_NAME: "ace35e68bbfc420790c45fa782e9ed688788600bdeec61db467a2a51f8c95600"},
}


def _as_fblp_v4(blob: bytes) -> bytes:
    """An FBLP v5 file of a 4-byte table as the v4 bytes it held before the width field."""
    n_docs, dim, n_rows, n_table, width = struct.unpack_from("<IIQQI", blob, 8)
    assert width == 4
    return blob[:4] + struct.pack("<IIIQQ", 4, n_docs, dim, n_rows, n_table) + blob[36:]


def _fixed_session(repeats: bool, rows: bool = True):
    """(manifest, index, projection, pack, token table) of fixed arrays; two documents."""
    table = np.array([[1, 0, 0, 0], [0, 0.6, 0.8, 0], [0.5, -0.5, 0.5, -0.5]], dtype=np.float32)
    refs, offsets = ([0, 1, 2, 2, 0], [0, 3, 5]) if repeats else ([0, 1, 2], [0, 2, 3])
    if not rows:
        table, refs, offsets = table[:0], [], [0, 0, 0]
    pack = PackedCorpus(table, np.asarray(refs, dtype=np.uint32),
                        np.asarray(offsets, dtype=np.int64), ["Main.java:0:0", "Ünï.java:1:2"])
    t = table.shape[0]
    index = IvfPqIndex(
        coarse=np.array([[1, 0, 0, 0], [0, 0.5, 0.5, 0]], dtype=np.float32),
        codebooks=np.arange(12, dtype=np.float32).reshape(2, 3, 2) / 4,
        part_offsets=np.array([0, 2, 3], dtype=np.int64).clip(max=t),
        rows=np.array([0, 2, 1], dtype=np.uint32)[:t],
        codes=np.array([[0, 2], [1, 1], [2, 0]], dtype=np.uint8)[:t],
        doc_refs=pack.refs, doc_offsets=pack.offsets, doc_ids=pack.ids,
    )
    projection = LinearProjection(np.arange(24).reshape(6, 4) / 8 - 1)
    manifest = Manifest(
        corpus_hash="c", granularity="hunk", strategy="arcl", vocab_hash="v",
        embedder_kind="file", embedder_seed=3, d_in=6, d_out=4, projection_hash="p",
        n_partitions=2, n_subspaces=2, n_codewords=3, seed=3, doc_limit=8,
    )
    return manifest, index, projection, pack, np.arange(30).reshape(5, 6) / 4 - 3


@pytest.mark.parametrize("repeats", [True, False], ids=["repeated_rows", "distinct_rows"])
def test_every_session_file_has_its_golden_bytes(tmp_path, repeats):
    manifest, index, projection, pack, token_table = _fixed_session(repeats)
    emb = tmp_path / "emb.fble"
    write_matrix_file(emb, token_table)
    session = tmp_path / "session"
    save_session(session, manifest, index, projection, pack, _GOLDEN_VOCAB, emb.read_bytes())
    blobs = {p.name: p.read_bytes() for p in session.iterdir()}
    digests = {name: hashlib.sha256(blob).hexdigest() for name, blob in blobs.items()}
    # the table's 0.6 is no float16 value, so the pack keeps its f4 bytes; the
    # projection's and the token table's eighths and quarters all are
    golden = {**_GOLDEN, **_GOLDEN_BY_PACK[repeats]}
    assert hashlib.sha256(_as_fblp_v4(blobs[DOCS_NAME])).hexdigest() == golden.pop(DOCS_NAME)
    for name, matrix in ((PROJECTION_NAME, projection.weights), (EMBEDDER_NAME, token_table)):
        assert blobs[name] == (b"FBLE" + struct.pack("<IIII", 2, *matrix.shape, 2)
                               + matrix.astype("<f2").tobytes()), name
    assert {name: digests[name] for name in golden} == golden
    assert emb.read_bytes() == blobs[EMBEDDER_NAME]
    # the manifest's checksums are the digests of the files on disk
    del digests[MANIFEST_NAME]
    assert manifest.checksums == digests == load_manifest(session).checksums
    assert load_session(session).doc_matrices.refs.tolist() == pack.refs.tolist()


def test_a_session_whose_pack_holds_no_embeddings_exits_2_naming_the_pack(tmp_path, capsys):
    # no writer makes one (building an index needs rows), so it is made by hand
    manifest, index, projection, pack, _ = _fixed_session(repeats=False, rows=False)
    manifest.embedder_kind = "hash"
    save_session(tmp_path, manifest, index, projection, pack, VOCAB)
    with pytest.raises(FormatError, match=f"{tmp_path / DOCS_NAME}: the pack holds no embed"):
        load_session(tmp_path)
    for argv in (["query", "--text", "a"], ["query", "--text", "a", "--exact"],
                 ["bench", "--sizes", "1"]):
        assert main(argv + ["--session", str(tmp_path)]) == 2, argv
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"].startswith(f"{tmp_path / DOCS_NAME}: "), argv


@pytest.mark.parametrize("name", [INDEX_NAME, DOCS_NAME, PROJECTION_NAME])
def test_a_parsed_artifact_without_a_checksum_raises(tmp_path, session_pieces, name):
    manifest, index, projection, docs = session_pieces
    save_session(tmp_path, manifest, index, projection, docs, VOCAB)
    path = tmp_path / MANIFEST_NAME
    data = json.loads(path.read_text())
    del data["checksums"][name]
    path.write_text(reseal(data))
    with pytest.raises(FormatError, match=f"no checksum for {name}"):
        load_session(tmp_path)


def test_session_of_an_older_format_names_the_fix(tmp_path, session_pieces):
    manifest, index, projection, docs = session_pieces
    save_session(tmp_path, manifest, index, projection, docs, VOCAB)
    path = tmp_path / MANIFEST_NAME
    data = json.loads(path.read_text())
    data["format_versions"]["fblp"] = 2
    data["matrix_dtype"] = "f32"  # the field v2 sessions recorded
    path.write_text(reseal(data))
    with pytest.raises(FormatError, match="re-run `fbl index`"):
        load_session(tmp_path)


def test_session_corrupted_magic_names_file(tmp_path, session_pieces):
    manifest, index, projection, docs = session_pieces
    save_session(tmp_path, manifest, index, projection, docs, VOCAB)
    target = tmp_path / INDEX_NAME
    blob = bytearray(target.read_bytes())
    blob[:4] = b"EVIL"
    target.write_bytes(bytes(blob))
    with pytest.raises(FormatError) as exc:
        load_session(tmp_path)
    assert INDEX_NAME in str(exc.value)


def test_session_checksum_violation(tmp_path, session_pieces):
    manifest, index, projection, docs = session_pieces
    save_session(tmp_path, manifest, index, projection, docs, VOCAB)
    target = tmp_path / DOCS_NAME
    blob = bytearray(target.read_bytes())
    blob[-1] ^= 0xFF
    target.write_bytes(bytes(blob))
    with pytest.raises(FormatError) as exc:
        load_session(tmp_path)
    assert "checksum" in str(exc.value)


def test_session_vocab_checksum_violation(tmp_path, session_pieces):
    manifest, index, projection, docs = session_pieces
    save_session(tmp_path, manifest, index, projection, docs, VOCAB)
    target = tmp_path / VOCAB_NAME
    blob = bytearray(target.read_bytes())
    blob[0] ^= 0x01
    target.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="vocab.txt: checksum mismatch"):
        load_session(tmp_path)


def test_manifest_missing(tmp_path):
    with pytest.raises(FormatError):
        load_session(tmp_path / "nowhere")


@pytest.mark.parametrize(
    "edit",
    [
        lambda blob: blob[:20] + b"\xff" + blob[21:],  # not UTF-8
        lambda blob: b"[" * 100_000,  # nested past the parser's recursion limit
        lambda blob: b"[" + blob + b"]",  # not an object
    ],
    ids=["non_utf8", "deeply_nested", "array"],
)
def test_unparsable_manifest_raises_format_error(tmp_path, session_pieces, edit):
    manifest, index, projection, docs = session_pieces
    save_session(tmp_path, manifest, index, projection, docs, VOCAB)
    path = tmp_path / MANIFEST_NAME
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(FormatError, match="manifest"):
        load_session(tmp_path)


@pytest.mark.parametrize(
    "field,value",
    [
        ("checksums", 5),
        ("checksums", {INDEX_NAME: 7}),
        ("checksums", {"../outside.bin": "00"}),
        ("checksums", {VOCAB_NAME: "00"}),  # no checksum for the index, the pack or the projection
        ("n_partitions", "4"),
        ("d_in", True),
        ("granularity", None),
        ("format_versions", {"fbli": "2"}),
    ],
)
def test_manifest_field_of_wrong_type_raises_format_error(tmp_path, session_pieces, field, value):
    manifest, index, projection, docs = session_pieces
    save_session(tmp_path, manifest, index, projection, docs, VOCAB)
    path = tmp_path / MANIFEST_NAME
    data = json.loads(path.read_text())
    data[field] = value
    path.write_text(json.dumps(data))
    with pytest.raises(FormatError):
        load_session(tmp_path)


@pytest.mark.parametrize("field,value", [("d_in", 12), ("d_out", 4)])
def test_manifest_dims_other_than_the_projections_raise_format_error(
    tmp_path, session_pieces, field, value
):
    manifest, index, projection, docs = session_pieces
    save_session(tmp_path, manifest, index, projection, docs, VOCAB)
    path = tmp_path / MANIFEST_NAME
    data = json.loads(path.read_text())
    data[field] = value
    path.write_text(reseal(data))
    with pytest.raises(FormatError, match=f"manifest.json.*{PROJECTION_NAME} is 16 x 8"):
        load_session(tmp_path)


def test_an_index_of_another_dim_than_d_out_raises_format_error(tmp_path, session_pieces):
    # manifest and projection agree on d_out 4, but the index rows are 8-d
    manifest, index, _, docs = session_pieces
    manifest.d_out = 4
    save_session(tmp_path, manifest, index, LinearProjection.seeded_init(16, 4, seed=2), docs,
                 VOCAB)
    with pytest.raises(FormatError, match="manifest.json: d_out 4, but the index has dim 8"):
        load_session(tmp_path)


def test_save_leaves_a_stray_temp_file_alone(tmp_path, session_pieces):
    # another writer's temp file under the old fixed name is neither read nor removed
    manifest, index, projection, docs = session_pieces
    stray = tmp_path / (INDEX_NAME + ".tmp")
    stray.write_bytes(b"half of another writer's index")
    save_session(tmp_path, manifest, index, projection, docs, VOCAB)
    assert stray.read_bytes() == b"half of another writer's index"
    assert load_session(tmp_path).index.n_embeddings == index.n_embeddings
    assert [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")] == [stray.name]
    umask = os.umask(0)
    os.umask(umask)
    assert (tmp_path / INDEX_NAME).stat().st_mode & 0o777 == 0o666 & ~umask


def test_failed_write_removes_its_temp_file(tmp_path):
    def pieces():
        yield b"partial"
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        _write(tmp_path / INDEX_NAME, pieces())
    assert list(tmp_path.iterdir()) == []


# -- untrusted artifacts ------------------------------------------------------------


@pytest.fixture(scope="module", params=[4, 2], ids=["f4", "f2"])
def saved(tmp_path_factory, request):
    """A saved session: each artifact's bytes and regions, the session, and queries.

    Its pack and projection are stored at ``request.param`` bytes a value:
    at 2 the rows and weights are float16 values, as ``fbl index`` makes them.
    """
    width = request.param
    manifest, _, projection, docs = _pieces()
    docs = {d: m.rows.astype(f"<f{width}") for d, m in docs.items()}
    if width == 2:
        projection = LinearProjection(projection.weights.astype(np.float16))
    docs["empty:0:0"] = EmbeddingMatrix(rows=np.zeros((0, 8), dtype=np.float32))
    # rows that repeat others', so the index lists fewer rows than the pack holds
    docs["repeat:0:0"] = np.concatenate([docs["c0:0:0"], docs["c1:0:0"][:2]])
    pack = PackedCorpus.from_matrices(docs)
    index = build_index(pack, n_partitions=4, n_subspaces=2, n_codewords=8, seed=1)
    assert index.rows.shape[0] < index.n_embeddings
    directory = tmp_path_factory.mktemp("session")
    save_session(directory, manifest, index, projection, pack, VOCAB)
    assert (directory / DOCS_NAME).read_bytes()[32:36] == width.to_bytes(4, "little")
    assert (directory / PROJECTION_NAME).read_bytes()[4] == {2: 2, 4: 1}[width]  # FBLE version
    n, p, d, k = index.n_embeddings, index.n_partitions, index.dim, index.n_codewords
    # (start, end) byte ranges of the header, offset, row and code regions of each
    # file; FBLI v5: part_offsets, rows, codes
    part = 32 + p * d * 4 + k * d * 4
    rows = part + (p + 1) * 8
    codes = rows + index.rows.shape[0] * 4
    index_regions = [(0, 32), (part, rows), (rows, codes), (codes, None)]
    # FBLP v5: header and offsets, refs, the table (left out: its bytes are
    # values, not structure), doc ids
    refs = 36 + (len(pack) + 1) * 8
    table = refs + n * 4
    assert pack.table.shape[0] < n  # the refs region is stored
    pack_regions = [(0, refs), (refs, table), (table + pack.table.shape[0] * d * width, None)]
    floats = {INDEX_NAME: (32, part), DOCS_NAME: (table, pack_regions[-1][0])}
    rng = np.random.default_rng(8)
    queries = [EmbeddingMatrix(rows=_unit(rng.standard_normal((3, 8))), is_query=True)
               for _ in range(2)]
    raw_queries = [rng.standard_normal((3, projection.d_in)) for _ in range(2)]
    return {
        INDEX_NAME: ((directory / INDEX_NAME).read_bytes(), index_regions),
        DOCS_NAME: ((directory / DOCS_NAME).read_bytes(), pack_regions),
        MANIFEST_NAME: ((directory / MANIFEST_NAME).read_bytes(), [(0, None)]),
        PROJECTION_NAME: ((directory / PROJECTION_NAME).read_bytes(), [(0, None)]),
        "session": (pack, projection, queries, raw_queries),
        "floats": floats,  # the quantizers' and the table's byte ranges
        "width": {INDEX_NAME: 4, DOCS_NAME: width},  # bytes a value in those ranges
        "refs": (refs, table),
        # a manifest is read from its session; the other files stand alone
        "dirs": {MANIFEST_NAME: directory},
        "dir": tmp_path_factory.mktemp("corrupt"),
    }


def _open(saved, name, path):
    """(index, docs, queries) of the session with `path` in place of artifact `name`.

    The index is loaded over the pack in use, as a session loads it. Besides
    the fixed queries, raw query rows go through the session's projection.
    """
    docs, projection, queries, raw_queries = saved["session"]
    if name == MANIFEST_NAME:
        arts = load_session(path.parent)
        index, docs, projection = arts.index, arts.doc_matrices, arts.projection
    else:
        if name == DOCS_NAME:
            docs = read_doc_pack(path)
        elif name == PROJECTION_NAME:
            projection = load_projection(path)
        index_path = path if name == INDEX_NAME else saved["dirs"][MANIFEST_NAME] / INDEX_NAME
        index = load_index(index_path, docs)
    projected = [_normalize_rows(raw @ projection.weights).astype(np.float32)
                 for raw in raw_queries]
    return index, docs, queries + [EmbeddingMatrix(rows=r, is_query=True) for r in projected]


_ARTIFACTS = [INDEX_NAME, DOCS_NAME, MANIFEST_NAME, PROJECTION_NAME]


def _corrupt_path(saved, name):
    return saved["dirs"].get(name, saved["dir"]) / name


@pytest.mark.parametrize("name", _ARTIFACTS)
def test_a_byte_appended_raises_format_error_naming_the_file(saved, name):
    blob, _ = saved[name]
    path = _corrupt_path(saved, name)
    path.write_bytes(blob + b"\x00")
    with pytest.raises(FormatError) as exc:
        _open(saved, name, path)
    assert str(exc.value).startswith(f"{path}: ")


@pytest.mark.parametrize("name", _ARTIFACTS)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_truncated_artifact_raises_format_error(saved, name, data):
    blob, _ = saved[name]
    cut = data.draw(st.integers(0, len(blob) - 1))
    path = _corrupt_path(saved, name)
    path.write_bytes(blob[:cut])
    with pytest.raises(FormatError):
        _open(saved, name, path)


@pytest.mark.parametrize("name", _ARTIFACTS)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_overwritten_byte_raises_format_error_or_still_answers(saved, name, data):
    blob, regions = saved[name]
    start, end = data.draw(st.sampled_from(regions))
    at = data.draw(st.integers(start, (end or len(blob)) - 1))
    value = data.draw(st.integers(0, 255).filter(lambda v: v != blob[at]))
    path = _corrupt_path(saved, name)
    path.write_bytes(blob[:at] + bytes([value]) + blob[at + 1 :])
    try:
        index, docs, queries = _open(saved, name, path)
    except FormatError:
        return
    for q in queries:
        candidate_docs(index, q, 10, 2)
        rank_two_stage(q, index, docs, n_prime=None, nprobe=index.n_partitions, k=5)
        rank_exact(q, docs)


@pytest.mark.parametrize("name", [INDEX_NAME, DOCS_NAME])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_a_non_finite_float_raises_format_error(saved, name, data):
    # any NaN or infinity, in any quantizer or table value
    blob, _ = saved[name]
    start, end = saved["floats"][name]
    width = saved["width"][name]
    at = start + width * data.draw(st.integers(0, (end - start) // width - 1))
    mantissa = 8 * width - 1 - (8 if width == 4 else 5)  # f4: 8 exponent bits, f2: 5
    sign, fraction = data.draw(st.integers(0, 1)), data.draw(st.integers(0, (1 << mantissa) - 1))
    exponent = (1 << (8 * width - 1 - mantissa)) - 1  # all ones: an infinity or a NaN
    value = (sign << (8 * width - 1) | exponent << mantissa | fraction).to_bytes(width, "little")
    path = _corrupt_path(saved, name)
    path.write_bytes(blob[:at] + value + blob[at + width :])
    with pytest.raises(FormatError, match="finite"):
        _open(saved, name, path)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_a_table_out_of_first_use_order_raises_format_error(saved, data):
    # the same documents, with the table rows stored in another order
    blob, _ = saved[DOCS_NAME]
    (start, end), (refs_at, table_at) = saved["floats"][DOCS_NAME], saved["refs"]
    refs = np.frombuffer(blob, "<u4", (table_at - refs_at) // 4, refs_at)
    dtype = f"<f{saved['width'][DOCS_NAME]}"
    table = np.frombuffer(blob, dtype, (end - start) // np.dtype(dtype).itemsize, start)
    table = table.reshape(-1, 8)
    n = table.shape[0]
    order = np.asarray(data.draw(st.permutations(range(n)).filter(lambda o: o != sorted(o))))
    moved = np.empty_like(table)
    moved[order] = table
    path = _corrupt_path(saved, DOCS_NAME)
    path.write_bytes(blob[:refs_at] + order[refs].astype("<u4").tobytes() + moved.tobytes()
                     + blob[end:])
    with pytest.raises(FormatError, match="order of first use"):
        read_doc_pack(path)


def test_readme_names_the_format_versions_the_store_reads():
    # README's "Binary formats" list and its format table each name every
    # format once, at the version the store reads, so a bump cannot leave them behind
    from fbl.store import _FORMAT_VERSIONS

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Binary formats\n")[1].split("\n## ")[0]
    bullets = "\n".join(re.findall(r"^\* .*(?:\n  .*)*", section, re.M))
    listed = re.findall(r"\b(FBL[A-Z]) v(\d+)\b", bullets)
    tabled = re.findall(r"^\| `[^`]+` \(`(FBL[A-Z])`, v(\d+)\) \|", readme, re.M)
    want = sorted((name.upper(), str(version)) for name, version in _FORMAT_VERSIONS.items())
    assert sorted(listed) == want
    assert sorted(tabled) == want


def _imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


def test_only_the_store_module_imports_struct():
    # every binary layout is parsed by store's one checked reader, so a new
    # format region lands beside the others
    src = Path(fbl.__file__).parent
    assert {p.name for p in src.glob("*.py") if "struct" in set(_imports(p))} == {"store.py"}


def _named_and_called(path):
    """(every name the module mentions, the names of the functions it calls)."""
    names, called = set(), set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias)):
            names.add(getattr(node, "id", None) or getattr(node, "attr", None) or node.name)
        if isinstance(node, ast.Call):
            called.add(getattr(node.func, "id", None) or getattr(node.func, "attr", None))
    return names, called


def test_only_the_pipeline_turns_a_manifest_into_a_config():
    # both directions of the manifest-Config mapping, and the one way to open
    # a session, live in pipeline.py; a second opener would fail here
    src = Path(fbl.__file__).parent
    found = {p.name: _named_and_called(p) for p in src.glob("*.py")}
    assert {name for name, (names, _) in found.items() if "MANIFEST_FIELDS" in names} == {
        "pipeline.py"}
    assert {name for name, (_, called) in found.items()
            if "load_session" in called} - {"store.py"} == {"pipeline.py"}


def test_each_config_rule_has_one_owner():
    # the config types judge their fields, the CLI only names the flag that
    # set one, and the exit code follows the exception type alone
    import argparse

    from fbl import cli
    from fbl.pipeline import CONFIG_LEAST

    src = Path(fbl.__file__).parent
    assert {p.name for p in src.glob("*.py")
            if "CONFIG_LEAST" in _named_and_called(p)[0]} == {"pipeline.py"}
    caught = set()
    for node in ast.walk(ast.parse((src / "cli.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            caught |= {getattr(n, "id", None) or getattr(n, "attr", None)
                       for n in ast.walk(node.type)}
    assert not caught & {"ValueError", "KeyError"}
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices.values()
    options = {flag for p in commands for a in p._actions for flag in a.option_strings}
    fields = set(CONFIG_LEAST) | {"n_codewords", "margin", "learning_rate", "epochs", "batch_size"}
    assert {cli._flag(name) for name in fields} <= options
