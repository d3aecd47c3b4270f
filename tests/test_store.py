import os

import numpy as np
import pytest

from fbl.embed import EmbeddingMatrix, LinearProjection
from fbl.errors import ConfigMismatch, FormatError
from fbl.index import build_index
from fbl.store import (
    DOCS_NAME,
    INDEX_NAME,
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


@pytest.fixture
def session_pieces():
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
    assert list(back.keys()) == list(docs.keys())
    for k in docs:
        np.testing.assert_array_equal(back[k].rows, docs[k].rows)


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


def test_manifest_missing(tmp_path):
    with pytest.raises(FormatError):
        load_session(tmp_path / "nowhere")


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
