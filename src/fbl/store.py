"""Session persistence: manifest, index, projection, and document matrices.

A session directory holds everything a query needs:

    manifest.json   configuration fingerprint + artifact checksums
    index.fbli      the IVFPQ index
    projection.fble the linear projection weights
    docs.fblp       the packed corpus: doc offsets, one row block, doc ids
    vocab.txt       the vocabulary the session was encoded with
    embedder.fble   (only for file-backed embedders)

``index.fbli`` and ``docs.fblp`` hold the in-memory arrays of an
``IvfPqIndex`` and a ``PackedCorpus`` back to back, so loading is a
validation pass plus views, with no per-document work; the loaded pack
is what queries score against. The manifest records a sha256 of every
artifact a save writes.

Writes go through a uniquely named temp file + rename so a crashed save
never leaves a half-written artifact behind. Loading verifies checksums,
magic bytes, format versions and every offset and id the query path
indexes with; querying a session under a different configuration raises
ConfigMismatch.
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
from .errors import ConfigMismatch, FormatError
from .index import (
    FBLI_VERSION,
    IvfPqIndex,
    check_version,
    load_index,
    offsets_span,
    read_array,
    read_ids,
    save_index,
    write_ids,
)

FBLP_MAGIC = b"FBLP"
FBLP_VERSION = 2

MANIFEST_NAME = "manifest.json"
INDEX_NAME = "index.fbli"
PROJECTION_NAME = "projection.fble"
DOCS_NAME = "docs.fblp"
VOCAB_NAME = "vocab.txt"
EMBEDDER_NAME = "embedder.fble"


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
    matrix_dtype: str = "f32"  # or "f16"
    format_versions: dict = field(
        default_factory=lambda: {"fbli": FBLI_VERSION, "fble": FBLE_VERSION, "fblp": FBLP_VERSION}
    )
    checksums: dict = field(default_factory=dict)

    CONFIG_FIELDS = (
        "corpus_hash",
        "granularity",
        "strategy",
        "vocab_hash",
        "embedder_kind",
        "embedder_seed",
        "d_in",
        "d_out",
        "projection_hash",
        "n_partitions",
        "n_subspaces",
        "n_codewords",
        "seed",
        "doc_limit",
        "matrix_dtype",
    )

    def require_match(self, **expected) -> None:
        """Raise ConfigMismatch on the first field that disagrees."""
        for key, value in expected.items():
            if key not in self.CONFIG_FIELDS:
                raise ValueError(f"unknown manifest field {key!r}")
            actual = getattr(self, key)
            if actual != value:
                raise ConfigMismatch(f"manifest {key}={actual!r} != expected {value!r}")


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
# magic "FBLP", then a header (version, dtype flag, docs, dim, rows), then the
# pack's arrays back to back, little-endian: offsets (docs+1) i8, rows
# (rows, dim) f4 or f2, and the doc-id table.

_FBLP_HEADER = struct.Struct("<IIIIQ")
_ROW_DTYPES = ("f32", "f16")  # the manifest's matrix_dtype, by dtype flag
_ROW_NP_DTYPES = ("<f4", "<f2")


def write_doc_pack(
    path: str | Path, matrices: Mapping[str, EmbeddingMatrix], dtype: str = "f32"
) -> None:
    if dtype not in _ROW_DTYPES:
        raise ValueError("dtype must be 'f32' or 'f16'")
    pack = PackedCorpus.from_matrices(matrices)
    n_rows, dim = pack.rows.shape
    with open(path, "wb") as fh:
        fh.write(FBLP_MAGIC)
        flag = _ROW_DTYPES.index(dtype)
        fh.write(_FBLP_HEADER.pack(FBLP_VERSION, flag, len(pack), dim, n_rows))
        fh.write(np.ascontiguousarray(pack.offsets, dtype="<i8").tobytes())
        fh.write(np.ascontiguousarray(pack.rows, dtype=_ROW_NP_DTYPES[flag]).data)
        write_ids(fh, pack.ids)


def read_doc_pack(path: str | Path) -> PackedCorpus:
    """Read and validate an FBLP file; f32 rows stay a view of the file's bytes."""
    path = Path(path)
    data = path.read_bytes()
    if data[:4] != FBLP_MAGIC:
        raise FormatError(f"{path}: bad magic {data[:4]!r}, expected {FBLP_MAGIC!r}")
    try:
        version, dtype_flag, n_docs, dim, n_rows = _FBLP_HEADER.unpack_from(data, 4)
        check_version(path, version, FBLP_VERSION)
        if dtype_flag >= len(_ROW_DTYPES):
            raise FormatError(f"{path}: unknown row dtype flag {dtype_flag}")
        off = 4 + _FBLP_HEADER.size
        offsets, off = read_array(data, off, "<i8", n_docs + 1)
        rows, off = read_array(data, off, _ROW_NP_DTYPES[dtype_flag], n_rows * dim)
        ids, off = read_ids(data, off, n_docs)
        if off != len(data):
            raise FormatError(f"{path}: {len(data) - off} bytes past the doc-id table")
        if not offsets_span(offsets, n_rows):
            raise FormatError(f"{path}: doc offsets do not run from 0 up to {n_rows} rows")
        return PackedCorpus(
            rows.reshape(n_rows, dim).astype(np.float32, copy=False), offsets.copy(), ids
        )
    except (struct.error, ValueError, OverflowError, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: truncated or corrupt pack ({exc})") from exc


# -- session save/load -------------------------------------------------------------


@dataclass
class SessionArtifacts:
    manifest: Manifest
    index: IvfPqIndex
    projection: LinearProjection
    doc_matrices: PackedCorpus


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
    _atomic_write(
        directory / DOCS_NAME,
        lambda p: write_doc_pack(p, doc_matrices, dtype=manifest.matrix_dtype),
    )
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


_ARTIFACT_NAMES = {INDEX_NAME, PROJECTION_NAME, DOCS_NAME, VOCAB_NAME, EMBEDDER_NAME}


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
        return Manifest(**data)
    except (ValueError, TypeError, RecursionError) as exc:
        raise FormatError(f"{path}: bad manifest ({exc})") from exc


def load_session(directory: str | Path, expect: Mapping | None = None) -> SessionArtifacts:
    """Load all artifacts, verifying checksums; `expect` fields must match.

    ``doc_matrices`` is the packed corpus as stored, ready to rank against.
    """
    directory = Path(directory)
    manifest = load_manifest(directory)
    if expect:
        manifest.require_match(**dict(expect))
    for name, recorded in manifest.checksums.items():
        if not (directory / name).is_file():
            raise FormatError(f"{directory / name}: listed in the manifest but missing")
        actual = sha256_file(directory / name)
        if actual != recorded:
            raise FormatError(f"{directory / name}: checksum mismatch")
    index = load_index(directory / INDEX_NAME)
    projection = LinearProjection.load(directory / PROJECTION_NAME)
    doc_matrices = read_doc_pack(directory / DOCS_NAME)
    return SessionArtifacts(
        manifest=manifest, index=index, projection=projection, doc_matrices=doc_matrices
    )
