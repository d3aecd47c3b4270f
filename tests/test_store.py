import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbl.embed import EmbeddingMatrix, LinearProjection, PackedCorpus, _normalize_rows
from fbl.errors import ConfigMismatch, FormatError
from fbl.index import build_index, candidate_docs, load_index
from fbl.retrieve import rank_exact, rank_two_stage
from fbl.store import (
    DOCS_NAME,
    INDEX_NAME,
    MANIFEST_NAME,
    PROJECTION_NAME,
    VOCAB_NAME,
    Manifest,
    SessionArtifacts,
    _atomic_write,
    load_session,
    read_doc_pack,
    save_session,
    write_doc_pack,
)


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
        embedder_seed=42,
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
    raw[4:8] = (1).to_bytes(4, "little")
    p.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="version 1.*re-run `fbl index`"):
        read_doc_pack(p)


def test_doc_pack_f16_mode(tmp_path):
    rng = np.random.default_rng(4)
    docs = {"a:0:0": EmbeddingMatrix(rows=_unit(rng.standard_normal((3, 4))))}
    p = tmp_path / "docs.fblp"
    write_doc_pack(p, docs, dtype="f16")
    back = read_doc_pack(p)
    assert back["a:0:0"].rows.dtype == np.float32
    np.testing.assert_allclose(back["a:0:0"].rows, docs["a:0:0"].rows, atol=2e-3)


def test_session_roundtrip(tmp_path, session_pieces):
    manifest, index, projection, docs = session_pieces
    save_session(tmp_path, manifest, index, projection, docs, vocab_text="a\nb\n")
    arts = load_session(tmp_path)
    assert isinstance(arts, SessionArtifacts)
    assert arts.manifest == manifest
    assert manifest.format_versions == {"fbli": 2, "fble": 1, "fblp": 2}
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
    save_session(d1, manifest, index, projection, docs)
    arts = load_session(d1)
    save_session(d2, arts.manifest, arts.index, arts.projection, arts.doc_matrices)
    for name in (INDEX_NAME, DOCS_NAME, "projection.fble"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name


def test_session_config_mismatch(tmp_path, session_pieces):
    manifest, index, projection, docs = session_pieces
    save_session(tmp_path, manifest, index, projection, docs)
    load_session(tmp_path, expect={"vocab_hash": "vh"})
    with pytest.raises(ConfigMismatch):
        load_session(tmp_path, expect={"vocab_hash": "other"})


def test_session_corrupted_magic_names_file(tmp_path, session_pieces):
    manifest, index, projection, docs = session_pieces
    save_session(tmp_path, manifest, index, projection, docs)
    target = tmp_path / INDEX_NAME
    blob = bytearray(target.read_bytes())
    blob[:4] = b"EVIL"
    target.write_bytes(bytes(blob))
    with pytest.raises(FormatError) as exc:
        load_session(tmp_path)
    assert INDEX_NAME in str(exc.value)


def test_session_checksum_violation(tmp_path, session_pieces):
    manifest, index, projection, docs = session_pieces
    save_session(tmp_path, manifest, index, projection, docs)
    target = tmp_path / DOCS_NAME
    blob = bytearray(target.read_bytes())
    blob[-1] ^= 0xFF
    target.write_bytes(bytes(blob))
    with pytest.raises(FormatError) as exc:
        load_session(tmp_path)
    assert "checksum" in str(exc.value)


def test_session_vocab_checksum_violation(tmp_path, session_pieces):
    manifest, index, projection, docs = session_pieces
    save_session(tmp_path, manifest, index, projection, docs, vocab_text="a\nb\n")
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
    save_session(tmp_path, manifest, index, projection, docs)
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
        ("checksums", {VOCAB_NAME: "00"}),  # an artifact this save did not write
        ("n_partitions", "4"),
        ("d_in", True),
        ("granularity", None),
        ("format_versions", {"fbli": "2"}),
    ],
)
def test_manifest_field_of_wrong_type_raises_format_error(tmp_path, session_pieces, field, value):
    manifest, index, projection, docs = session_pieces
    save_session(tmp_path, manifest, index, projection, docs)
    path = tmp_path / MANIFEST_NAME
    data = json.loads(path.read_text())
    data[field] = value
    path.write_text(json.dumps(data))
    with pytest.raises(FormatError):
        load_session(tmp_path)


def test_save_leaves_a_stray_temp_file_alone(tmp_path, session_pieces):
    # another writer's temp file under the old fixed name is neither read nor removed
    manifest, index, projection, docs = session_pieces
    stray = tmp_path / (INDEX_NAME + ".tmp")
    stray.write_bytes(b"half of another writer's index")
    save_session(tmp_path, manifest, index, projection, docs)
    assert stray.read_bytes() == b"half of another writer's index"
    assert load_session(tmp_path).index.n_embeddings == index.n_embeddings
    assert [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")] == [stray.name]
    umask = os.umask(0)
    os.umask(umask)
    assert (tmp_path / INDEX_NAME).stat().st_mode & 0o777 == 0o666 & ~umask


def test_failed_write_removes_its_temp_file(tmp_path):
    def writer(path):
        path.write_bytes(b"partial")
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        _atomic_write(tmp_path / INDEX_NAME, writer)
    assert list(tmp_path.iterdir()) == []


# -- untrusted artifacts ------------------------------------------------------------


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """A saved session: each artifact's bytes and regions, the session, and queries."""
    manifest, index, projection, docs = _pieces()
    docs["empty:0:0"] = EmbeddingMatrix(rows=np.zeros((0, 8), dtype=np.float32))
    index = build_index(docs, n_partitions=4, n_subspaces=2, n_codewords=8, seed=1)
    directory = tmp_path_factory.mktemp("session")
    save_session(directory, manifest, index, projection, docs)
    n, p, m, d, k = index.n_embeddings, index.n_partitions, 2, index.dim, index.n_codewords
    n_docs = len(docs)
    # (start, end) byte ranges of the header, offset and id regions of each file
    part = 36 + p * d * 4 + k * d * 4
    doc_offsets = part + (p + 1) * 8 + n * 8 + n * m
    index_regions = [(0, 36), (part, part + (p + 1) * 8 + n * 8), (doc_offsets, None)]
    rows = 28 + (n_docs + 1) * 8
    pack_regions = [(0, rows), (rows + n * d * 4, None)]
    rng = np.random.default_rng(8)
    queries = [EmbeddingMatrix(rows=_unit(rng.standard_normal((3, 8))), is_query=True)
               for _ in range(2)]
    raw_queries = [rng.standard_normal((3, projection.d_in)) for _ in range(2)]
    return {
        INDEX_NAME: ((directory / INDEX_NAME).read_bytes(), index_regions),
        DOCS_NAME: ((directory / DOCS_NAME).read_bytes(), pack_regions),
        MANIFEST_NAME: ((directory / MANIFEST_NAME).read_bytes(), [(0, None)]),
        PROJECTION_NAME: ((directory / PROJECTION_NAME).read_bytes(), [(0, None)]),
        "session": (index, docs, projection, queries, raw_queries),
        "expect": {f: getattr(manifest, f) for f in Manifest.CONFIG_FIELDS},
        # a manifest is read from its session; the other files stand alone
        "dirs": {MANIFEST_NAME: directory},
        "dir": tmp_path_factory.mktemp("corrupt"),
    }


def _open(saved, name, path):
    """(index, docs, queries) of the session with `path` in place of artifact `name`.

    Besides the fixed queries, raw query rows go through the session's projection.
    """
    index, docs, projection, queries, raw_queries = saved["session"]
    if name == INDEX_NAME:
        index = load_index(path)
    elif name == DOCS_NAME:
        docs = read_doc_pack(path)
    elif name == PROJECTION_NAME:
        projection = LinearProjection.load(path)
    else:
        arts = load_session(path.parent, expect=saved["expect"])
        index, docs, projection = arts.index, arts.doc_matrices, arts.projection
    projected = [_normalize_rows(raw @ projection.weights).astype(np.float32)
                 for raw in raw_queries]
    return index, docs, queries + [EmbeddingMatrix(rows=r, is_query=True) for r in projected]


_ARTIFACTS = [INDEX_NAME, DOCS_NAME, MANIFEST_NAME, PROJECTION_NAME]


def _corrupt_path(saved, name):
    return saved["dirs"].get(name, saved["dir"]) / name


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
    except (FormatError, ConfigMismatch):
        return
    for q in queries:
        candidate_docs(index, q, 10, 2)
        rank_two_stage(q, index, docs, n_prime=None, nprobe=index.n_partitions, k=5)
        rank_exact(q, docs)
