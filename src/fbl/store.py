"""Session persistence: manifest, index, projection, and document matrices.

A session directory holds everything a query needs:

    manifest.json   configuration fingerprint + artifact checksums
    index.fbli      the IVFPQ index: quantizers and inverted lists
    projection.fble the linear projection weights
    docs.fblp       the packed corpus: doc offsets, one row block, doc ids
    vocab.txt       the vocabulary the session was encoded with
    embedder.fble   (only for file-backed embedders)

``index.fbli`` and ``docs.fblp`` hold the in-memory arrays of an
``IvfPqIndex`` and a ``PackedCorpus`` back to back, so loading is a
validation pass plus views, with no per-document work. The pack is the
only document table: the loaded index borrows its offsets and ids, and
the loaded pack is what queries score against. The manifest records a
sha256 of every artifact a save writes.

Writes go through a uniquely named temp file + rename so a crashed save
never leaves a half-written artifact behind. Loading reads each listed
artifact once, verifies the checksum of those bytes, and then checks magic
bytes, format versions and every offset and id the query path indexes
with.
"""

from __future__ import annotations

import hashlib
import json
import os
import secrets
import struct
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Mapping

import numpy as np

from .embed import FBLE_VERSION, EmbeddingMatrix, LinearProjection, PackedCorpus
from .errors import FormatError
from .index import (
    FBLI_VERSION,
    IvfPqIndex,
    check_version,
    load_index,
    offsets_span,
    read_array,
    save_index,
)

FBLP_MAGIC = b"FBLP"
FBLP_VERSION = 3

MANIFEST_NAME = "manifest.json"
INDEX_NAME = "index.fbli"
PROJECTION_NAME = "projection.fble"
DOCS_NAME = "docs.fblp"
VOCAB_NAME = "vocab.txt"
EMBEDDER_NAME = "embedder.fble"

_FORMAT_VERSIONS = {"fbli": FBLI_VERSION, "fble": FBLE_VERSION, "fblp": FBLP_VERSION}


@dataclass
class Manifest:
    corpus_hash: str
    granularity: str
    strategy: str
    vocab_hash: str
    embedder_kind: str  # "hash" or "file"
    embedder_seed: int
    d_in: int
    d_out: int
    projection_hash: str
    n_partitions: int
    n_subspaces: int
    n_codewords: int
    seed: int
    doc_limit: int
    format_versions: dict = field(default_factory=_FORMAT_VERSIONS.copy)
    checksums: dict = field(default_factory=dict)


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _atomic_write(path: Path, writer) -> None:
    # a unique temp name, so concurrent saves into one directory never share one
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{secrets.token_hex(8)}.tmp")
    try:
        writer(tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# -- document matrix pack (FBLP) --------------------------------------------------
#
# magic "FBLP", then a header (version, docs, dim, rows), then the pack's
# arrays back to back, little-endian: offsets (docs+1) i8, rows (rows, dim)
# f4, and the doc-id table.

_FBLP_HEADER = struct.Struct("<IIIQ")


def write_ids(fh, ids: list[str]) -> None:
    """A doc-id table: every id's UTF-8 byte length (u4), then the bytes."""
    raw = [doc_id.encode("utf-8") for doc_id in ids]
    fh.write(np.asarray([len(r) for r in raw], dtype="<u4").tobytes())
    fh.write(b"".join(raw))


def read_ids(data: bytes, off: int, count: int) -> tuple[list[str], int]:
    lengths, off = read_array(data, off, "<u4", count)
    ends = off + np.cumsum(lengths, dtype=np.int64)
    if count and ends[-1] > len(data):
        raise ValueError("doc-id table runs past the end")
    starts = (ends - lengths).tolist()
    ids = [data[a:b].decode("utf-8") for a, b in zip(starts, ends.tolist())]
    return ids, int(ends[-1]) if count else off


def write_doc_pack(path: str | Path, matrices: Mapping[str, EmbeddingMatrix]) -> None:
    pack = PackedCorpus.from_matrices(matrices)
    n_rows, dim = pack.rows.shape
    with open(path, "wb") as fh:
        fh.write(FBLP_MAGIC)
        fh.write(_FBLP_HEADER.pack(FBLP_VERSION, len(pack), dim, n_rows))
        fh.write(np.ascontiguousarray(pack.offsets, dtype="<i8").tobytes())
        fh.write(np.ascontiguousarray(pack.rows, dtype="<f4").data)
        write_ids(fh, pack.ids)


def read_doc_pack(path: str | Path, data: bytes | None = None) -> PackedCorpus:
    """Read and validate an FBLP file; the rows stay a view of its bytes.

    ``data`` is the file's bytes when the caller has read them already.
    """
    path = Path(path)
    data = path.read_bytes() if data is None else data
    if data[:4] != FBLP_MAGIC:
        raise FormatError(f"{path}: bad magic {data[:4]!r}, expected {FBLP_MAGIC!r}")
    try:
        version, n_docs, dim, n_rows = _FBLP_HEADER.unpack_from(data, 4)
        check_version(path, version, FBLP_VERSION)
        off = 4 + _FBLP_HEADER.size
        offsets, off = read_array(data, off, "<i8", n_docs + 1)
        rows, off = read_array(data, off, "<f4", n_rows * dim)
        ids, off = read_ids(data, off, n_docs)
        if off != len(data):
            raise FormatError(f"{path}: {len(data) - off} bytes past the doc-id table")
        if not offsets_span(offsets, n_rows):
            raise FormatError(f"{path}: doc offsets do not run from 0 up to {n_rows} rows")
        return PackedCorpus(
            rows.reshape(n_rows, dim).astype(np.float32, copy=False), offsets.copy(), ids
        )
    except (struct.error, ValueError, OverflowError) as exc:
        raise FormatError(f"{path}: truncated or corrupt pack ({exc})") from exc


# -- session save/load -------------------------------------------------------------


@dataclass
class SessionArtifacts:
    manifest: Manifest
    index: IvfPqIndex
    projection: LinearProjection
    doc_matrices: PackedCorpus
    vocab: bytes | None = None  # vocab.txt and embedder.fble, when the manifest lists them
    embedder: bytes | None = None


def save_session(
    directory: str | Path,
    manifest: Manifest,
    index: IvfPqIndex,
    projection: LinearProjection,
    doc_matrices: Mapping[str, EmbeddingMatrix],
    vocab_text: str | None = None,
    embedder_matrix_path: str | Path | None = None,
) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    _atomic_write(directory / INDEX_NAME, lambda p: save_index(index, p))
    _atomic_write(directory / PROJECTION_NAME, lambda p: projection.save(p))
    _atomic_write(directory / DOCS_NAME, lambda p: write_doc_pack(p, doc_matrices))
    written = [INDEX_NAME, PROJECTION_NAME, DOCS_NAME]
    if vocab_text is not None:
        _atomic_write(
            directory / VOCAB_NAME,
            lambda p: Path(p).write_text(vocab_text, encoding="utf-8"),
        )
        written.append(VOCAB_NAME)
    if embedder_matrix_path is not None:
        data = Path(embedder_matrix_path).read_bytes()
        _atomic_write(directory / EMBEDDER_NAME, lambda p: Path(p).write_bytes(data))
        written.append(EMBEDDER_NAME)

    manifest.checksums = {name: sha256_file(directory / name) for name in written}
    payload = json.dumps(asdict(manifest), indent=2, sort_keys=True)
    _atomic_write(
        directory / MANIFEST_NAME, lambda p: Path(p).write_text(payload, encoding="utf-8")
    )


_PARSED_NAMES = (INDEX_NAME, PROJECTION_NAME, DOCS_NAME)
_ARTIFACT_NAMES = {*_PARSED_NAMES, VOCAB_NAME, EMBEDDER_NAME}


def _is(value, kind: type) -> bool:
    # JSON true/false load as bool, which Python counts as an int
    return isinstance(value, kind) and not isinstance(value, bool)


def _manifest_problem(data) -> str | None:
    """What is wrong with the field types of a parsed manifest, or None."""
    if not isinstance(data, dict):
        return "not a JSON object"
    kinds = {"str": str, "int": int, "dict": dict}
    for f in fields(Manifest):
        if f.name in data and not _is(data[f.name], kinds[f.type]):
            return f"{f.name} is not a JSON {f.type}"
    if not all(_is(v, int) for v in data.get("format_versions", {}).values()):
        return "a format version is not an integer"
    for name, digest in data.get("checksums", {}).items():
        if name not in _ARTIFACT_NAMES or not _is(digest, str):
            return f"checksum entry {name!r} is not a session artifact and its digest"
    return None


def load_manifest(directory: str | Path) -> Manifest:
    path = Path(directory) / MANIFEST_NAME
    if not path.exists():
        raise FormatError(f"{path}: manifest not found")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
        problem = _manifest_problem(data)
        if problem:
            raise FormatError(f"{path}: bad manifest ({problem})")
        found = data.get("format_versions", _FORMAT_VERSIONS)
        if found != _FORMAT_VERSIONS:
            raise FormatError(
                f"{path}: session formats {found} are not {_FORMAT_VERSIONS}; "
                "re-run `fbl index` to rebuild the session"
            )
        return Manifest(**data)
    except (ValueError, TypeError, RecursionError) as exc:
        raise FormatError(f"{path}: bad manifest ({exc})") from exc


def load_session(directory: str | Path) -> SessionArtifacts:
    """Load all artifacts, verifying checksums.

    Every artifact the manifest lists is read once, and the bytes whose
    checksum is verified are the bytes parsed; the index, projection and
    doc pack must be listed. ``doc_matrices`` is the packed corpus as
    stored, ready to rank against; the index borrows its document table.
    The vocabulary and embedder come back as bytes, for the caller to parse.
    """
    directory = Path(directory)
    manifest = load_manifest(directory)
    for name in _PARSED_NAMES:
        if name not in manifest.checksums:
            raise FormatError(f"{directory / MANIFEST_NAME}: no checksum for {name}")
    data = {}
    for name, recorded in manifest.checksums.items():
        if not (directory / name).is_file():
            raise FormatError(f"{directory / name}: listed in the manifest but missing")
        data[name] = (directory / name).read_bytes()
        if sha256_bytes(data[name]) != recorded:
            raise FormatError(f"{directory / name}: checksum mismatch")
    doc_matrices = read_doc_pack(directory / DOCS_NAME, data[DOCS_NAME])
    index = load_index(directory / INDEX_NAME, doc_matrices, data[INDEX_NAME])
    projection = LinearProjection.load(directory / PROJECTION_NAME, data[PROJECTION_NAME])
    return SessionArtifacts(
        manifest, index, projection, doc_matrices, data.get(VOCAB_NAME), data.get(EMBEDDER_NAME)
    )
