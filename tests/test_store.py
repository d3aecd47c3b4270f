import builtins
import dataclasses
import hashlib
import io
import json
import os
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbl.cli import main
from fbl.embed import (
    EmbeddingMatrix,
    LinearProjection,
    PackedCorpus,
    _normalize_rows,
    write_matrix_file,
)
from fbl.errors import FormatError
from fbl.index import build_index, candidate_docs, load_index
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
    for version in (1, 2):  # v2 held a row-dtype flag
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
    raw[24 + 8 : 24 + 16] = (5).to_bytes(8, "little")  # doc 0 ends past where doc 1 does
    p.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="doc offsets"):
        read_doc_pack(p)


def test_session_roundtrip(tmp_path, session_pieces):
    manifest, index, projection, docs = session_pieces
    save_session(tmp_path, manifest, index, projection, docs, vocab_text="a\nb\n")
    arts = load_session(tmp_path)
    assert isinstance(arts, SessionArtifacts)
    assert arts.manifest == manifest
    assert manifest.format_versions == {"fbli": 3, "fble": 1, "fblp": 3}
    # one document table: the index borrows the loaded pack's
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
    save_session(d1, manifest, index, projection, docs)
    arts = load_session(d1)
    save_session(d2, arts.manifest, arts.index, arts.projection, arts.doc_matrices)
    for name in (INDEX_NAME, DOCS_NAME, "projection.fble"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name


def test_index_of_another_size_raises_format_error(tmp_path, session_pieces):
    manifest, index, projection, docs = session_pieces
    save_session(tmp_path / "a", manifest, index, projection, docs)
    fewer = dict(list(docs.items())[:-1])
    other = build_index(fewer, n_partitions=4, n_subspaces=2, n_codewords=8, seed=1)
    save_session(tmp_path / "b", manifest, other, projection, fewer)
    # b's index under a's pack, with the manifest vouching for it
    swapped = (tmp_path / "b" / INDEX_NAME).read_bytes()
    (tmp_path / "a" / INDEX_NAME).write_bytes(swapped)
    path = tmp_path / "a" / MANIFEST_NAME
    data = json.loads(path.read_text())
    data["checksums"][INDEX_NAME] = hashlib.sha256(swapped).hexdigest()
    path.write_text(json.dumps(data))
    with pytest.raises(FormatError, match="indexes 44 embeddings"):
        load_session(tmp_path / "a")


def test_load_session_opens_each_artifact_once(tmp_path, session_pieces, monkeypatch, capsys):
    manifest, index, projection, docs = session_pieces
    emb = tmp_path / "emb.fble"
    write_matrix_file(emb, np.random.default_rng(4).standard_normal((16, 16)))
    session = tmp_path / "session"
    save_session(session, dataclasses.replace(manifest, embedder_kind="file"), index,
                 projection, docs, vocab_text="a\nb\n", embedder_matrix_path=emb)
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


@pytest.mark.parametrize("name", [INDEX_NAME, DOCS_NAME, PROJECTION_NAME])
def test_a_parsed_artifact_without_a_checksum_raises(tmp_path, session_pieces, name):
    manifest, index, projection, docs = session_pieces
    save_session(tmp_path, manifest, index, projection, docs)
    path = tmp_path / MANIFEST_NAME
    data = json.loads(path.read_text())
    del data["checksums"][name]
    path.write_text(json.dumps(data))
    with pytest.raises(FormatError, match=f"no checksum for {name}"):
        load_session(tmp_path)


def test_session_of_an_older_format_names_the_fix(tmp_path, session_pieces):
    manifest, index, projection, docs = session_pieces
    save_session(tmp_path, manifest, index, projection, docs)
    path = tmp_path / MANIFEST_NAME
    data = json.loads(path.read_text())
    data["format_versions"]["fblp"] = 2
    data["matrix_dtype"] = "f32"  # the field v2 sessions recorded
    path.write_text(json.dumps(data))
    with pytest.raises(FormatError, match="re-run `fbl index`"):
        load_session(tmp_path)


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
    manifest, _, projection, docs = _pieces()
    docs["empty:0:0"] = EmbeddingMatrix(rows=np.zeros((0, 8), dtype=np.float32))
    pack = PackedCorpus.from_matrices(docs)
    index = build_index(pack, n_partitions=4, n_subspaces=2, n_codewords=8, seed=1)
    directory = tmp_path_factory.mktemp("session")
    save_session(directory, manifest, index, projection, pack)
    n, p, d, k = index.n_embeddings, index.n_partitions, index.dim, index.n_codewords
    # (start, end) byte ranges of the header, offset, id and code regions of each file
    part = 32 + p * d * 4 + k * d * 4
    codes = part + (p + 1) * 8 + n * 8
    index_regions = [(0, 32), (part, codes), (codes, None)]
    rows = 24 + (len(pack) + 1) * 8
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
        "session": (pack, projection, queries, raw_queries),
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
            projection = LinearProjection.load(path)
        index_path = path if name == INDEX_NAME else saved["dirs"][MANIFEST_NAME] / INDEX_NAME
        index = load_index(index_path, docs)
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
    except FormatError:
        return
    for q in queries:
        candidate_docs(index, q, 10, 2)
        rank_two_stage(q, index, docs, n_prime=None, nprobe=index.n_partitions, k=5)
        rank_exact(q, docs)
