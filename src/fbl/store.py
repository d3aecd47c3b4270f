"""Every binary format fbl reads or writes, and session persistence.

A session directory holds everything a query needs:

    manifest.json   configuration fingerprint + artifact checksums
    index.fbli      the IVFPQ index: quantizers and inverted lists
    projection.fble the linear projection weights
    docs.fblp       the packed corpus: doc offsets, row refs, distinct-row table, doc ids
    vocab.txt       the vocabulary the session was encoded with
    embedder.fble   (only for file-backed embedders)

A binary file is a 4-byte magic, a header (u32 version, then counts) and
arrays back to back, little-endian, ending with the last one:

    FBLE v2  (rows, dim, width); the matrix (rows, dim) at width bytes per
             value: a projection or a token table, stored in a session or
             passed by a user. Version 1 files, (rows, dim) and f4 values
             with no width field, still read, and the writer keeps writing
             them when the values need 4 bytes, so those files keep their bytes
    FBLI v5  (P, M, K, dim, u64 table rows T); coarse (P, dim) f4, codebooks
             (M, K, dim/M) f4, part_offsets (P+1) i8, rows (T) u4, codes
             (T, M) u1: an ``IvfPqIndex``'s arrays, with no document table
    FBLP v5  (docs, dim, u64 rows, u64 table rows, width); offsets (docs+1)
             i8, refs (rows) u4, left out without repeated rows, the table
             (table rows, dim) at width bytes per value, and each doc id's
             UTF-8 byte length u4, then the ids' bytes

A width is 2 (``<f2``) exactly when every value survives the float16 round
trip bit for bit, and 4 (``<f4``) otherwise. The reader widens a ``<f2``
table once, to a read-only float32 array; an FBLE matrix reads as stored,
and a projection widens it to float64 once. ``pipeline`` rounds a CLI
session's projection and table to float16 values, so both store at half
size; a table of float32 rows that are not float16 values keeps its bytes.

One writer and one reader. ``_write`` streams a file's pieces (each
format's generator yields the magic, the header and the arrays in the
order ``_Reader`` reads them) through a uniquely named temp file and a
rename, hashing them as it goes. ``_Reader`` checks the magic, that the
header fits, and the version; hands out each array, in file order, as a
read-only view of the bytes once it is known to fit; and checks that the
last array ends the bytes. The pack is the only document table: the
loaded index borrows its refs, offsets and ids, and queries score against
the loaded pack, whose refs, and its table when stored at 4 bytes, are
views of the file.

A save writes each artifact once, records the sha256 of the bytes written
and reads nothing back; the manifest is sealed with the sha256 of its own
canonical body. Loading checks that seal, reads each listed artifact once,
verifies those bytes' checksum, and checks the session as a whole: the
vocabulary is listed, and the embedder when file-backed; every offset and
id a query indexes with; what the writers guarantee (finite floats, a table in
order, a pack with embeddings); and the manifest's dimensions and
quantizer shape against the artifacts.
"""

from __future__ import annotations

import hashlib
import json
import os
import secrets
import struct
from collections import namedtuple
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Mapping

import numpy as np

from .embed import EmbeddingMatrix, FileEmbedder, LinearProjection, PackedCorpus
from .errors import FormatError
from .index import IvfPqIndex


# magic, version, header (the version, then the counts), and what to do about another version
_Format = namedtuple("_Format", "magic version header fix")
_REBUILD = "re-run `fbl index` to rebuild the session"
_FBLE = _Format(b"FBLE", 2, struct.Struct("<IIII"), "write the matrix again in that version")
_FBLE_V1 = _FBLE._replace(version=1, header=struct.Struct("<III"))  # f4 values, no width field
_FBLI = _Format(b"FBLI", 5, struct.Struct("<IIIIIQ"), _REBUILD)
_FBLP = _Format(b"FBLP", 5, struct.Struct("<IIIQQI"), _REBUILD)
_BLOCK = 1 << 16  # values per step of the float16 check

MANIFEST_NAME = "manifest.json"
INDEX_NAME = "index.fbli"
PROJECTION_NAME = "projection.fble"
DOCS_NAME = "docs.fblp"
VOCAB_NAME = "vocab.txt"
EMBEDDER_NAME = "embedder.fble"

_FORMAT_VERSIONS = {"fbli": _FBLI.version, "fble": _FBLE.version, "fblp": _FBLP.version}


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
    query_limit: int = 256  # `fbl query` encodes bug reports to this many tokens
    format_versions: dict = field(default_factory=_FORMAT_VERSIONS.copy)
    checksums: dict = field(default_factory=dict)
    digest: str = ""  # save_session seals the other fields with manifest_digest


def manifest_digest(body: Mapping) -> str:
    """The sha256 of a manifest's canonical JSON: sorted keys, no spaces, no digest field."""
    rest = {key: value for key, value in body.items() if key != "digest"}
    return sha256_bytes(json.dumps(rest, sort_keys=True, separators=(",", ":")).encode("utf-8"))


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- the one writer and the one reader -----------------------------------------------


def _write(path: str | Path, pieces) -> str:
    """Write byte pieces to ``path`` through a temp file + rename; the sha256 of the bytes."""
    path = Path(path)
    # a unique temp name, so concurrent saves into one directory never share one
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{secrets.token_hex(8)}.tmp")
    digest = hashlib.sha256()
    try:
        with open(tmp, "wb") as fh:
            for piece in pieces:
                digest.update(piece)
                fh.write(piece)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return digest.hexdigest()


def _pieces(fmt: _Format, header, *arrays):
    """A binary file's bytes in order: magic and header, then each (array, dtype)."""
    yield fmt.magic + fmt.header.pack(fmt.version, *header)
    for arr, dtype in arrays:
        yield np.ascontiguousarray(arr, dtype=dtype).data


def _narrowed(values: np.ndarray) -> np.ndarray:
    """float32 ``values`` as ``<f2`` when each survives the round trip bit for bit, else as given.

    The check runs a block at a time and stops at the first block that
    fails, so float32 rows that are not float16 values cost one block.
    """
    flat = values.reshape(-1)
    half = np.empty(flat.shape, dtype="<f2")
    with np.errstate(over="ignore"):  # a value past float16's range fails the check below
        for start in range(0, flat.size, _BLOCK):
            block, out = flat[start : start + _BLOCK], half[start : start + _BLOCK]
            out[...] = block
            if not np.array_equal(out.astype(np.float32).view(np.uint32), block.view(np.uint32)):
                return values
    return half.reshape(values.shape)


class _Reader:
    """A binary artifact's bytes, read front to back; each fault is a FormatError naming it.

    ``header`` holds the header's fields after the version.
    """

    def __init__(self, path: str | Path, data: bytes | None, fmt: _Format, *older: _Format):
        self.path = path = Path(path)
        self.data = data = path.read_bytes() if data is None else data
        if data[:4] != fmt.magic:
            raise FormatError(f"{path}: bad magic {data[:4]!r}, expected {fmt.magic!r}")
        if len(data) < 8:
            raise FormatError(f"{path}: truncated header")
        self.version = int.from_bytes(data[4:8], "little")
        known = {f.version: f for f in (fmt, *older)}
        if self.version not in known:
            raise FormatError(f"{path}: format version {self.version} is not supported (expected "
                              f"{fmt.version}); {fmt.fix}")
        header = known[self.version].header
        if len(data) < 4 + header.size:
            raise FormatError(f"{path}: truncated header")
        self.header = list(header.unpack_from(data, 4)[1:])
        self.off = 4 + header.size

    def array(self, dtype: str, count: int, what: str) -> np.ndarray:
        """A read-only view of the next ``count`` items, once they are known to fit."""
        # checked first, so a corrupt header never sizes an allocation
        end = self.off + count * np.dtype(dtype).itemsize
        if end > len(self.data):
            raise FormatError(f"{self.path}: truncated {what} ({count} x {dtype} at byte "
                              f"{self.off})")
        arr = np.frombuffer(self.data, dtype=dtype, count=count, offset=self.off)
        self.off = end
        return arr

    def floats(self, width: int, count: int, what: str) -> np.ndarray:
        """A read-only view of the next ``count`` values, stored at ``width`` bytes each."""
        if width not in (2, 4):
            raise FormatError(f"{self.path}: {width} bytes per value; expected 2 or 4")
        return self.array(f"<f{width}", count, what)

    def end(self, what: str) -> None:
        """The last array, named ``what``, must end the bytes."""
        if self.off != len(self.data):
            raise FormatError(f"{self.path}: {len(self.data) - self.off} bytes past the {what}")


def _offsets_span(offsets: np.ndarray, total: int) -> bool:
    """True when offsets start at 0, never decrease and end at total."""
    return offsets[0] == 0 and offsets[-1] == total and bool(np.all(np.diff(offsets) >= 0))


# -- matrices: projections and token tables (FBLE) ---------------------------------


def _fble_pieces(matrix: np.ndarray):
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, without a warning
        arr = np.ascontiguousarray(matrix, dtype="<f4")
    if arr.ndim != 2:
        raise ValueError("FBLE files hold 2-D matrices")
    if not np.isfinite(arr).all():
        raise ValueError("FBLE files hold finite float32 values")
    half = _narrowed(arr)
    if half is arr:  # 4 bytes a value: version 1, byte for byte as before widths
        return _pieces(_FBLE_V1, arr.shape, (arr, "<f4"))
    return _pieces(_FBLE, (*arr.shape, 2), (half, "<f2"))


def write_matrix_file(path: str | Path, matrix: np.ndarray) -> None:
    """Write a 2-D matrix as FBLE, through a temp file + rename."""
    _write(path, _fble_pieces(matrix))


def read_matrix_file(path: str | Path, data: bytes | None = None) -> np.ndarray:
    """Read and validate an FBLE file, or its bytes when given as ``data``.

    The matrix is a read-only view of the values as stored, float16 or
    float32; ``LinearProjection`` widens it to float64 once.
    """
    r = _Reader(path, data, _FBLE, _FBLE_V1)
    rows, dim, width = r.header if r.version == 2 else (*r.header, 4)
    matrix = r.floats(width, rows * dim, "payload").reshape(rows, dim)
    r.end(f"{rows}x{dim} payload")
    return matrix


def save_projection(projection: LinearProjection, path: str | Path) -> None:
    write_matrix_file(path, projection.weights)


def load_projection(path: str | Path, data: bytes | None = None) -> LinearProjection:
    try:
        return LinearProjection(read_matrix_file(path, data))
    except ValueError as exc:
        raise FormatError(f"{path}: not a usable projection ({exc})") from exc


def load_embedder(path: str | Path, data: bytes | None = None) -> FileEmbedder:
    """The token table of an FBLE file; ``data`` is its bytes when already read."""
    try:
        return FileEmbedder(read_matrix_file(path, data))
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


# -- the index (FBLI) ----------------------------------------------------------------


def _fbli_pieces(index: IvfPqIndex):
    header = (index.n_partitions, index.n_subspaces, index.n_codewords, index.dim,
              index.rows.shape[0])
    return _pieces(_FBLI, header, (index.coarse, "<f4"), (index.codebooks, "<f4"),
                   (index.part_offsets, "<i8"), (index.rows, "<u4"), (index.codes, "u1"))


def _is_permutation(ids: np.ndarray, n: int) -> bool:
    """True when ids holds each of 0..n-1 exactly once."""
    if ids.shape[0] != n or (n and int(ids.max()) >= n):
        return False
    return bool(np.all(np.bincount(ids.astype(np.int64), minlength=n) == 1))


def load_index(path: str | Path, docs: PackedCorpus, data: bytes | None = None) -> IvfPqIndex:
    """Read and validate an FBLI file over the pack it was built from.

    The index borrows the pack's refs, offsets and ids, so its header must
    count the pack's table rows and dimension. ``data`` is the file's bytes
    when the caller has read them already.
    """
    r = _Reader(path, data, _FBLI)
    path = r.path
    n_part, m, k, d, n_table = r.header
    if n_part < 1 or m < 1 or not 1 <= k <= 256 or d % m != 0:
        raise FormatError(
            f"{path}: bad shape: {n_part} partitions, {m} subspaces, {k} codewords, dim {d}"
        )
    if (n_table, d) != docs.table.shape:
        raise FormatError(
            f"{path}: indexes {n_table} table rows of dim {d}, but the doc pack holds "
            f"{docs.table.shape[0]} of dim {docs.table.shape[1]}"
        )
    coarse = r.array("<f4", n_part * d, "coarse centroids")
    codebooks = r.array("<f4", k * d, "codebooks")
    part_offsets = r.array("<i8", n_part + 1, "partition offsets")
    rows = r.array("<u4", n_table, "inverted-list rows")
    codes = r.array("u1", n_table * m, "codes")
    r.end("codes")
    if not (np.isfinite(coarse).all() and np.isfinite(codebooks).all()):
        raise FormatError(f"{path}: a coarse centroid or codebook value is not finite")
    # every offset, row and code below indexes an array or a LUT at query time
    if not _offsets_span(part_offsets, n_table):
        raise FormatError(f"{path}: partition offsets do not run from 0 up to {n_table} rows")
    if not _is_permutation(rows, n_table):
        raise FormatError(f"{path}: inverted-list rows are not each of 0..{n_table - 1} once")
    if codes.size and int(codes.max()) >= k:
        raise FormatError(f"{path}: code {int(codes.max())} >= codebook size {k}")
    return IvfPqIndex(
        coarse=coarse.reshape(n_part, d).copy(),
        codebooks=codebooks.reshape(m, k, d // m).copy(),
        part_offsets=part_offsets.copy(),
        rows=rows.copy(),
        codes=codes.reshape(n_table, m).copy(),
        doc_refs=docs.refs,
        doc_offsets=docs.offsets,
        doc_ids=docs.ids,
    )


# -- the document matrix pack (FBLP) -----------------------------------------------


def _fblp_pieces(pack: PackedCorpus):
    """The pack's FBLP bytes; the refs are left out when the table is the rows."""
    n_table, dim = pack.table.shape
    table = _narrowed(np.ascontiguousarray(pack.table, dtype="<f4"))
    names = [doc_id.encode("utf-8") for doc_id in pack.ids]
    return _pieces(
        _FBLP, (len(pack), dim, pack.n_rows, n_table, table.dtype.itemsize),
        (pack.offsets, "<i8"),
        (pack.refs[: pack.n_rows if n_table < pack.n_rows else 0], "<u4"),
        (table, table.dtype),
        ([len(name) for name in names], "<u4"),  # the doc-id table: byte lengths, then bytes
        (np.frombuffer(b"".join(names), dtype="u1"), "u1"),
    )


def read_doc_pack(path: str | Path, data: bytes | None = None) -> PackedCorpus:
    """Read and validate an FBLP file; the refs, and a 4-byte table, stay views of its bytes.

    ``data`` is the file's bytes when the caller has read them already.
    """
    r = _Reader(path, data, _FBLP)
    path = r.path
    n_docs, dim, n_rows, n_table, width = r.header
    if n_table > n_rows or (n_rows and not dim):  # the table's bytes bound the refs
        raise FormatError(f"{path}: {n_table} table rows of width {dim} for {n_rows} rows")
    offsets = r.array("<i8", n_docs + 1, "doc offsets")
    refs = r.array("<u4", n_rows if n_table < n_rows else 0, "row refs")
    table = r.floats(width, n_table * dim, "table").astype(np.float32, copy=False)
    table.flags.writeable = False  # a widened <f2 table is read-only, as a view of the bytes is
    lengths = r.array("<u4", n_docs, "doc-id lengths")
    ends = np.cumsum(lengths, dtype=np.int64)
    names = r.array("u1", int(ends[-1]) if n_docs else 0, "doc ids").tobytes()
    r.end("doc-id table")
    if not _offsets_span(offsets, n_rows):
        raise FormatError(f"{path}: doc offsets do not run from 0 up to {n_rows} rows")
    if refs.size and int(refs.max()) >= n_table:
        raise FormatError(f"{path}: row ref {int(refs.max())} >= table size {n_table}")
    if refs.size:  # every table row is used, in order of first appearance
        seen = np.maximum.accumulate(refs, dtype=np.int64)
        ahead = np.flatnonzero(np.diff(seen, prepend=-1) > 1)  # over 1 above all before it
        if ahead.size:
            raise FormatError(f"{path}: row ref {refs[ahead[0]]} at row {ahead[0]} is not "
                              "in order of first use")
        if seen[-1] != n_table - 1:
            raise FormatError(f"{path}: the refs use {seen[-1] + 1} of {n_table} table rows")
    if n_table == n_rows:  # no row repeats: refs count the rows
        refs = np.arange(n_rows, dtype=np.uint32)
    table = table.reshape(n_table, dim)
    norms = np.einsum("ij,ij->i", table, table)
    bad = np.flatnonzero(~(np.isfinite(norms) & (norms > 0)))
    if bad.size:  # packing writes unit rows and drops zero rows
        raise FormatError(f"{path}: table row {int(bad[0])} has a zero or non-finite norm")
    try:
        ids = [names[a:b].decode("utf-8") for a, b in zip((ends - lengths).tolist(),
                                                            ends.tolist())]
        return PackedCorpus(table, refs, offsets.copy(), ids)
    except ValueError as exc:  # an id that is not UTF-8, or one that repeats
        raise FormatError(f"{path}: bad doc-id table ({exc})") from exc


# -- session save/load -------------------------------------------------------------


@dataclass
class SessionArtifacts:
    manifest: Manifest
    index: IvfPqIndex
    projection: LinearProjection
    doc_matrices: PackedCorpus
    vocab: bytes | None = None  # a loaded session's vocab.txt, and embedder.fble when file-backed
    embedder: bytes | None = None


def save_session(
    directory: str | Path,
    manifest: Manifest,
    index: IvfPqIndex,
    projection: LinearProjection,
    doc_matrices: Mapping[str, EmbeddingMatrix],
    vocab_text: str | bytes,  # bytes are stored as they are, text as UTF-8
    embedder: bytes | None = None,  # a file-backed embedder's FBLE bytes
) -> None:
    """Write each artifact once, then the manifest with the sha256 of the bytes written."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    vocab = vocab_text.encode("utf-8") if isinstance(vocab_text, str) else vocab_text
    artifacts = {
        INDEX_NAME: _fbli_pieces(index),
        PROJECTION_NAME: _fble_pieces(projection.weights),
        DOCS_NAME: _fblp_pieces(PackedCorpus.from_matrices(doc_matrices)),
        VOCAB_NAME: [vocab],
    }
    if embedder is not None:
        artifacts[EMBEDDER_NAME] = [embedder]
    manifest.checksums = {name: _write(directory / name, pieces)
                          for name, pieces in artifacts.items()}
    manifest.digest = manifest_digest(asdict(manifest))
    payload = json.dumps(asdict(manifest), indent=2, sort_keys=True)
    _write(directory / MANIFEST_NAME, [payload.encode("utf-8")])


_REQUIRED_NAMES = (INDEX_NAME, PROJECTION_NAME, DOCS_NAME, VOCAB_NAME)
_ARTIFACT_NAMES = {*_REQUIRED_NAMES, EMBEDDER_NAME}


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
    """The session's manifest, once its field types, format versions and digest check out."""
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
        if data.get("digest") != manifest_digest(data):
            raise FormatError(f"{path}: the fields do not match the manifest's digest; "
                              f"{_REBUILD}")
        return Manifest(**data)
    except (ValueError, TypeError, RecursionError) as exc:
        raise FormatError(f"{path}: bad manifest ({exc})") from exc


def load_session(directory: str | Path) -> SessionArtifacts:
    """Load all artifacts, verifying checksums, and check the session as a whole.

    The manifest must carry the digest ``save_session`` sealed it with.
    Every artifact the manifest lists is read once, and the bytes whose
    checksum is verified are the bytes parsed; the index, projection, doc
    pack and vocabulary must be listed, and the embedder too when the
    manifest says it is file-backed. ``doc_matrices`` is the packed corpus
    as stored, ready to rank against, and must hold an embedding; the index
    borrows its document table. The vocabulary and embedder come back as
    bytes, for the caller to parse. The manifest's d_in and d_out must be
    the projection's shape, d_out the index's dimension, n_partitions,
    n_subspaces and n_codewords the index's, d_in the embedder's width,
    and its seed, which seeds the query side's hash embedder, the
    embedder_seed the documents were embedded with.
    """
    directory = Path(directory)
    manifest = load_manifest(directory)
    if manifest.seed != manifest.embedder_seed:
        raise FormatError(f"{directory / MANIFEST_NAME}: seed {manifest.seed}, but the documents "
                          f"were embedded with embedder_seed {manifest.embedder_seed}; "
                          f"{_REBUILD}")
    required = _REQUIRED_NAMES + (EMBEDDER_NAME,) * (manifest.embedder_kind == "file")
    for name in required:
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
    if not doc_matrices.n_rows:
        raise FormatError(f"{directory / DOCS_NAME}: the pack holds no embeddings")
    index = load_index(directory / INDEX_NAME, doc_matrices, data[INDEX_NAME])
    projection = load_projection(directory / PROJECTION_NAME, data[PROJECTION_NAME])
    if (manifest.d_in, manifest.d_out) != projection.weights.shape:
        raise FormatError(
            f"{directory / MANIFEST_NAME}: d_in {manifest.d_in} and d_out {manifest.d_out}, but "
            f"{PROJECTION_NAME} is {projection.d_in} x {projection.d_out}"
        )
    for name, shape, built in (("d_out", "dim", index.dim),
                               ("n_partitions", "n_partitions", index.n_partitions),
                               ("n_subspaces", "n_subspaces", index.n_subspaces),
                               ("n_codewords", "n_codewords", index.n_codewords)):
        if getattr(manifest, name) != built:  # the index header is the shape queries run on
            raise FormatError(f"{directory / MANIFEST_NAME}: {name} {getattr(manifest, name)}, "
                              f"but the index has {shape} {built}; {_REBUILD}")
    if manifest.embedder_kind == "file":  # the table's width, from its header
        dim = _Reader(directory / EMBEDDER_NAME, data[EMBEDDER_NAME], _FBLE, _FBLE_V1).header[1]
        if dim != manifest.d_in:
            raise FormatError(f"{directory / EMBEDDER_NAME}: dim {dim}, but the manifest's d_in "
                              f"is {manifest.d_in}")
    return SessionArtifacts(
        manifest, index, projection, doc_matrices, data.get(VOCAB_NAME), data.get(EMBEDDER_NAME)
    )
