"""Session persistence: manifest, index, projection, and document matrices.

A session directory holds everything a query needs:

    manifest.json   configuration fingerprint + artifact checksums
    index.fbli      the IVFPQ index
    projection.fble the linear projection weights
    docs.fblp       per-document embedding matrices, packed contiguously
    vocab.txt       the vocabulary the session was encoded with
    embedder.fble   (only for file-backed embedders)

Writes go through a uniquely named temp file + rename so a crashed save
never leaves a half-written artifact behind. Loading verifies magic bytes
and sha256 checksums; querying a session under a different configuration
raises ConfigMismatch.
"""

from __future__ import annotations

import hashlib
import json
import os
import secrets
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from .embed import EmbeddingMatrix, LinearProjection
from .errors import ConfigMismatch, FormatError
from .index import IvfPqIndex, load_index, save_index

FBLP_MAGIC = b"FBLP"
FBLP_VERSION = 1

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
        default_factory=lambda: {"fbli": 1, "fble": 1, "fblp": FBLP_VERSION}
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


def write_doc_pack(
    path: str | Path, matrices: Mapping[str, EmbeddingMatrix], dtype: str = "f32"
) -> None:
    if dtype not in ("f32", "f16"):
        raise ValueError("dtype must be 'f32' or 'f16'")
    np_dtype = "<f4" if dtype == "f32" else "<f2"
    items = list(matrices.items())
    dim = items[0][1].rows.shape[1] if items else 0
    with open(path, "wb") as fh:
        fh.write(FBLP_MAGIC)
        fh.write(struct.pack("<IIIB", FBLP_VERSION, len(items), dim, 0 if dtype == "f32" else 1))
        offset = 0
        for doc_id, mat in items:
            raw = doc_id.encode("utf-8")
            rows = mat.rows.shape[0]
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<QI", offset, rows))
            offset += rows
        for _, mat in items:
            fh.write(np.ascontiguousarray(mat.rows, dtype=np_dtype).tobytes())


def read_doc_pack(path: str | Path) -> dict[str, EmbeddingMatrix]:
    path = Path(path)
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != FBLP_MAGIC:
        raise FormatError(f"{path}: bad magic {data[:4]!r}, expected {FBLP_MAGIC!r}")
    try:
        version, count, dim, dtype_flag = struct.unpack_from("<IIIB", data, 4)
        if version != FBLP_VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        np_dtype = "<f4" if dtype_flag == 0 else "<f2"
        item_size = 4 if dtype_flag == 0 else 2
        off = 17
        table: list[tuple[str, int, int]] = []
        for _ in range(count):
            (slen,) = struct.unpack_from("<I", data, off)
            off += 4
            doc_id = data[off : off + slen].decode("utf-8")
            off += slen
            row_off, rows = struct.unpack_from("<QI", data, off)
            off += 12
            table.append((doc_id, row_off, rows))
        out: dict[str, EmbeddingMatrix] = {}
        for doc_id, row_off, rows in table:
            start = off + row_off * dim * item_size
            block = np.frombuffer(data, dtype=np_dtype, count=rows * dim, offset=start)
            out[doc_id] = EmbeddingMatrix(
                rows=block.reshape(rows, dim).astype(np.float32), is_query=False
            )
    except (struct.error, ValueError, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: truncated or corrupt pack ({exc})") from exc
    return out


# -- session save/load -------------------------------------------------------------


@dataclass
class SessionArtifacts:
    manifest: Manifest
    index: IvfPqIndex
    projection: LinearProjection
    doc_matrices: dict[str, EmbeddingMatrix]


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
    if vocab_text is not None:
        _atomic_write(
            directory / VOCAB_NAME,
            lambda p: Path(p).write_text(vocab_text, encoding="utf-8"),
        )
    if embedder_matrix_path is not None:
        data = Path(embedder_matrix_path).read_bytes()
        _atomic_write(directory / EMBEDDER_NAME, lambda p: Path(p).write_bytes(data))

    manifest.checksums = {
        INDEX_NAME: sha256_file(directory / INDEX_NAME),
        PROJECTION_NAME: sha256_file(directory / PROJECTION_NAME),
        DOCS_NAME: sha256_file(directory / DOCS_NAME),
    }
    payload = json.dumps(asdict(manifest), indent=2, sort_keys=True)
    _atomic_write(
        directory / MANIFEST_NAME, lambda p: Path(p).write_text(payload, encoding="utf-8")
    )


def load_manifest(directory: str | Path) -> Manifest:
    path = Path(directory) / MANIFEST_NAME
    if not path.exists():
        raise FormatError(f"{path}: manifest not found")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
        return Manifest(**data)
    except (json.JSONDecodeError, TypeError) as exc:
        raise FormatError(f"{path}: bad manifest ({exc})") from exc


def load_session(directory: str | Path, expect: Mapping | None = None) -> SessionArtifacts:
    """Load all artifacts, verifying checksums; `expect` fields must match."""
    directory = Path(directory)
    manifest = load_manifest(directory)
    if expect:
        manifest.require_match(**dict(expect))
    for name, recorded in manifest.checksums.items():
        actual = sha256_file(directory / name)
        if actual != recorded:
            raise FormatError(f"{directory / name}: checksum mismatch")
    index = load_index(directory / INDEX_NAME)
    projection = LinearProjection.load(directory / PROJECTION_NAME)
    doc_matrices = read_doc_pack(directory / DOCS_NAME)
    return SessionArtifacts(
        manifest=manifest, index=index, projection=projection, doc_matrices=doc_matrices
    )
