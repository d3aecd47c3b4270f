"""From-scratch IVFPQ index over document token embeddings.

The embedding space is partitioned by a k-means coarse quantizer; each
distinct embedding is stored in its partition's inverted list as a
product-quantized residual code (M bytes, one per subspace). The distinct
embeddings are the rows of the ``PackedCorpus`` table the index was built
from: pack row p (embedding id p) is table row ``refs[p]``, and the index
borrows the pack's refs, offsets and ids (``doc_refs``, ``doc_offsets``,
``doc_ids``), so a hit table row maps to the documents holding it. Queries
score candidates with asymmetric distance computation: an inner-product
lookup table per subspace plus the query-to-coarse-centroid term, so the
raw vectors never need to be touched during the scan.

The inverted lists hold each table row once: ``rows`` lists the table rows
by partition, ascending within one, and ``part_offsets`` splits it, so a
multi-partition scan is a single kernel call and scores every distinct
embedding once however many documents hold it. On disk (FBLI v5) the index
is these same arrays written back to back, with no document table: the
pack stored beside it owns that, and ``load_index`` takes it from the
loaded pack. k-means trains in float64 (monotone distortion trace); the
stored centroids, codebooks, and all query-time math are float32.

Training sees each distinct row once too, which a context-free embedder
keeps within |vocab| rows. The coarse quantizer and every PQ codebook
train on the table weighted by each row's multiplicity (the number of
documents holding it, as a document holds a row once). The partition count
is capped at the table's rows: more coarse centroids would be copies of
the same rows, and a query probing only copies would find nothing.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from . import _kernels
from .embed import EmbeddingMatrix, PackedCorpus
from .errors import EmptyIndex, FormatError, InsufficientData

FBLI_MAGIC = b"FBLI"
FBLI_VERSION = 5

_TRAIN_SUBSAMPLE_CAP = 256_000


@dataclass
class KmeansResult:
    centroids: np.ndarray  # (k, d) float64
    labels: np.ndarray  # (n,) int64
    distortions: list[float]  # mean squared distance per Lloyd iteration


def kmeans(
    points: np.ndarray,
    k: int,
    max_iters: int = 25,
    seed: int = 0,
    weights: np.ndarray | None = None,
) -> KmeansResult:
    """Lloyd's algorithm from a seeded k-means++ start.

    Stops when assignments are stable or max_iters is hit. An empty
    cluster is re-seeded with the point farthest from its current
    centroid, which keeps the distortion trace non-increasing.

    ``weights`` (one positive, finite value per point) makes point i count
    as weights[i] copies of itself: seeds after the first are drawn in
    proportion to w * d^2 (the first is still a uniform draw over the
    points), a centroid is the weighted mean of its points and the
    distortion is the weighted mean squared distance. Weights None are all
    1, the unweighted run, and scaling every weight by a power of two
    changes no bit.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    if n < 1:
        raise ValueError("kmeans needs at least one point")
    if k < 1:
        raise ValueError("k must be >= 1")
    weights = np.ones(n) if weights is None else np.asarray(weights, dtype=np.float64)
    if weights.shape != (n,):
        raise ValueError(
            f"weights must hold one value per point ({n}), got shape {weights.shape}"
        )
    if not np.all(np.isfinite(weights)):
        raise ValueError("weights must be finite")
    if not np.all(weights > 0):
        raise ValueError(f"weights must be > 0, got {float(weights.min())}")
    rng = np.random.default_rng(seed)

    if k >= n:
        # every point is a centroid; pad by cycling points
        reps = [pts[i % n] for i in range(k)]
        centroids = np.stack(reps)
        labels, dists = _kernels.assign_nearest(pts, centroids)
        return KmeansResult(centroids, labels, [float(np.average(dists, weights=weights))])

    centroids = _kmeans_pp_init(pts, k, rng, weights)
    labels = np.full(n, -1, dtype=np.int64)
    distortions: list[float] = []
    for _ in range(max_iters):
        new_labels, dists = _kernels.assign_nearest(pts, centroids)
        distortions.append(float(np.average(dists, weights=weights)))
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        sums, counts = _kernels.centroid_sums(pts, labels, k, weights)
        nonempty = counts > 0
        centroids = centroids.copy()
        centroids[nonempty] = sums[nonempty] / counts[nonempty, None]
        empty = np.nonzero(~nonempty)[0]
        if empty.size:
            work = dists.copy()
            for c in empty:
                far = int(np.argmax(work))
                centroids[c] = pts[far]
                work[far] = -1.0
    return KmeansResult(centroids, labels, distortions)


def _kmeans_pp_init(
    pts: np.ndarray, k: int, rng: np.random.Generator, weights: np.ndarray
) -> np.ndarray:
    """k-means++ seeds; every squared distance is the exact difference form.

    The first seed is a uniform draw; each later one is drawn in proportion
    to w * d2, the weight times the squared distance to the nearest seed so
    far.

    After each pick c, a point's distance falls only where the exact
    difference form ||x - c||^2 is below its current d2. A GEMM-form
    estimate ||x||^2 - 2 x.c + ||c||^2, lowered by a slack, finds those
    points, and only they get the exact update. With u = eps/2 and
    S = ||x||^2 + ||c||^2, in any summation order the difference form is
    within 2(d + 2)u S of the true distance (which is at most 2S) and the
    estimate within (2d + 5)u S, plus at most (5d + 2) * 2^-1075 from
    products that underflow. The slack exceeds the sum of both, so no
    point whose exact distance falls is skipped. Row sums do not depend on
    the other rows, so d2, every draw and the centroids equal those of a
    loop that updates every point. The bound needs ||x||^2 far from
    overflow; otherwise every point is updated.
    """
    n, dim = pts.shape
    centroids = np.empty((k, dim), dtype=np.float64)
    first = int(rng.integers(n))
    centroids[0] = pts[first]
    d2 = np.sum((pts - centroids[0]) ** 2, axis=1)
    slack = (2 * dim + 7) * np.finfo(np.float64).eps  # (4d + 14)u > (4d + 9)u
    floor = (4 * dim + 9) * np.finfo(np.float64).smallest_subnormal
    x2 = np.einsum("nd,nd->n", pts, pts)
    bounded = bool(np.all(x2 < 1e300))
    x2_lo = x2 * (1.0 - slack)
    for i in range(1, k):
        wd2 = weights * d2
        total = wd2.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:  # Generator.choice(n, p=wd2 / total)'s draw, without its O(n) checks of p
            cdf = np.cumsum(wd2 / total)
            cdf /= cdf[-1]
            idx = int(cdf.searchsorted(rng.random(), side="right"))
        c = centroids[i] = pts[idx]
        if bounded:
            est = pts @ c
            est *= -2.0
            est += x2_lo
            est += float(c @ c) * (1.0 - slack) - floor
            near = np.flatnonzero(est < d2)
        else:
            near = np.arange(n)
        d2[near] = np.minimum(d2[near], np.sum((pts[near] - c) ** 2, axis=1))
    return centroids


@dataclass
class IvfPqIndex:
    coarse: np.ndarray  # (P, d) float32 centroids
    codebooks: np.ndarray  # (M, K, d // M) float32
    part_offsets: np.ndarray  # (P + 1,) int64: partition p owns rows[o[p]:o[p+1]]
    rows: np.ndarray  # (T,) uint32 table rows by partition, ascending within one
    codes: np.ndarray  # (T, M) uint8, the code of each entry of rows
    doc_refs: np.ndarray  # the pack's refs: embedding id e is table row doc_refs[e]
    doc_offsets: np.ndarray  # the pack's offsets: doc i owns embedding ids [o[i], o[i+1])
    doc_ids: list[str]  # the pack's ids

    @property
    def n_partitions(self) -> int:
        return self.coarse.shape[0]

    @property
    def n_subspaces(self) -> int:
        return self.codebooks.shape[0]

    @property
    def n_codewords(self) -> int:
        return self.codebooks.shape[1]

    @property
    def dim(self) -> int:
        return self.coarse.shape[1]

    @property
    def n_embeddings(self) -> int:
        return int(self.doc_refs.shape[0])


def build_index(
    doc_matrices: Mapping[str, EmbeddingMatrix],
    n_partitions: int,
    n_subspaces: int,
    n_codewords: int = 256,
    seed: int = 0,
    max_iters: int = 25,
) -> IvfPqIndex:
    """Train coarse + PQ quantizers on the distinct rows and encode them.

    The inverted lists hold the pack's table rows; the index borrows the
    pack's refs, offsets and ids, which map them back to documents. Training
    weighs each table row by how many pack rows refer to it, the documents
    holding it (all 1 without repeats, where the table is the rows). The
    partition count is capped at the table's rows.
    """
    pack = PackedCorpus.from_matrices(doc_matrices)
    distinct = pack.table
    if pack.n_rows == 0:
        raise InsufficientData("no embeddings to index: every document is empty")
    n_partitions = min(n_partitions, distinct.shape[0])  # more would be copies of a row
    d = distinct.shape[1]
    if d % n_subspaces != 0:
        raise ValueError(f"subspace count {n_subspaces} must divide dimension {d}")
    if not 1 <= n_codewords <= 256:
        raise ValueError("codebook size must be in [1, 256]")
    dsub = d // n_subspaces

    n_distinct = distinct.shape[0]
    weights = np.bincount(pack.refs, minlength=n_distinct).astype(np.float64)

    pick = slice(None)  # the rows that train: all of them, up to the cap
    if n_distinct > _TRAIN_SUBSAMPLE_CAP:
        pick = np.sort(
            np.random.default_rng(seed).choice(n_distinct, _TRAIN_SUBSAMPLE_CAP, replace=False)
        )

    coarse = kmeans(
        distinct[pick], n_partitions, max_iters=max_iters, seed=seed, weights=weights[pick]
    ).centroids.astype(np.float32)
    part, _ = _kernels.assign_nearest(distinct, coarse)
    residuals = distinct - coarse[part]

    train_res = residuals[pick]
    codebooks = np.empty((n_subspaces, n_codewords, dsub), dtype=np.float32)
    for s in range(n_subspaces):
        sub = train_res[:, s * dsub : (s + 1) * dsub]
        codebooks[s] = kmeans(
            sub, n_codewords, max_iters=max_iters, seed=seed + 1 + s, weights=weights[pick]
        ).centroids.astype(np.float32)

    codes = np.empty((n_distinct, n_subspaces), dtype=np.uint8)
    for s in range(n_subspaces):
        sub = residuals[:, s * dsub : (s + 1) * dsub]
        lab, _ = _kernels.assign_nearest(sub, codebooks[s])
        codes[:, s] = lab.astype(np.uint8)
    rows = np.argsort(part, kind="stable")  # by partition, ascending within one
    part_offsets = np.zeros(n_partitions + 1, dtype=np.int64)
    part_offsets[1:] = np.cumsum(np.bincount(part, minlength=n_partitions))

    return IvfPqIndex(
        coarse=coarse,
        codebooks=codebooks,
        part_offsets=part_offsets,
        rows=rows.astype(np.uint32),
        codes=codes[rows],
        doc_refs=pack.refs,
        doc_offsets=pack.offsets,
        doc_ids=pack.ids,
    )


def candidate_docs(
    index: IvfPqIndex,
    query_matrix: EmbeddingMatrix,
    n_prime: int | None,
    nprobe: int,
) -> np.ndarray:
    """Ascending pack positions (int64) of the documents a query's hits land in.

    Each query row fetches its share (ceil(n_prime / rows)) of the n_prime
    nearest distinct embeddings (table rows, ties at its cut kept); when
    n_prime is None or covers the whole table, every row fetches everything.
    Each row probes its nprobe nearest partitions, and one kernel call keeps
    its share of their entries; the call builds the look-up tables and
    scores codes only when some row scans more than its share. A hit table
    row brings in every document holding it. The result is a set: each
    candidate appears once, and ascending positions read the pack front to
    back when the candidates are re-scored.
    """
    if n_prime is not None and n_prime < 1:
        raise ValueError(f"candidate count must be >= 1 (or None for all), got {n_prime}")
    if index.n_embeddings == 0:
        raise EmptyIndex("index holds no embeddings")
    if not 1 <= nprobe <= index.n_partitions:
        raise ValueError(f"nprobe must be in [1, {index.n_partitions}]")
    q_rows = np.asarray(query_matrix.rows, dtype=np.float32)
    q_rows = np.ascontiguousarray(q_rows[np.linalg.norm(q_rows, axis=1) > 0])
    if q_rows.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    n_table = index.rows.shape[0]
    if n_prime is None or n_prime >= n_table:
        per_row = n_table
    else:
        per_row = -(-int(n_prime) // q_rows.shape[0])  # ceil division

    coarse = (q_rows @ index.coarse.T).astype(np.float64)  # (rows, P)
    probes = np.argpartition(-coarse, nprobe - 1, axis=1)[:, :nprobe]
    probes.sort(axis=1)  # ascending partitions = sequential code reads
    kept = _kernels.adc_topk_rows(
        q_rows,
        index.codebooks,
        index.codes,
        index.part_offsets[probes],
        index.part_offsets[probes + 1],
        np.take_along_axis(coarse, probes, axis=1),
        index.rows,
        per_row,
    )
    hit = np.zeros(n_table, dtype=bool)
    hit[kept] = True
    # embedding id e lies in document searchsorted(offsets, e, "right") - 1
    docs = np.searchsorted(index.doc_offsets, np.flatnonzero(hit[index.doc_refs]), side="right")
    return np.flatnonzero(np.bincount(docs, minlength=index.doc_offsets.shape[0])[1:])


# -- serialization (FBLI) -------------------------------------------------------
#
# magic "FBLI", then a header (version, P, M, K, dim, table rows T), then
# the index's arrays back to back, little-endian: coarse (P, dim) f4,
# codebooks (M, K, dim/M) f4, part_offsets (P+1) i8, rows (T) u4, codes
# (T, M) u1. The document table is the doc pack's.

_FBLI_HEADER = struct.Struct("<IIIIIQ")


def check_version(path: Path, version: int, expected: int) -> None:
    if version != expected:
        raise FormatError(
            f"{path}: format version {version} is not supported (expected {expected}); "
            "re-run `fbl index` to rebuild the session"
        )


def read_array(data: bytes, off: int, dtype: str, count: int) -> tuple[np.ndarray, int]:
    """A read-only view of count items at byte offset off, and the offset past them."""
    end = off + count * np.dtype(dtype).itemsize
    if end > len(data):
        raise ValueError(f"{count} x {dtype} at byte {off} runs past the end")
    return np.frombuffer(data, dtype=dtype, count=count, offset=off), end


def offsets_span(offsets: np.ndarray, total: int) -> bool:
    """True when offsets start at 0, never decrease and end at total."""
    return offsets[0] == 0 and offsets[-1] == total and bool(np.all(np.diff(offsets) >= 0))


def save_index(index: IvfPqIndex, path: str | Path) -> None:
    with open(path, "wb") as fh:
        fh.write(FBLI_MAGIC)
        fh.write(
            _FBLI_HEADER.pack(
                FBLI_VERSION,
                index.n_partitions,
                index.n_subspaces,
                index.n_codewords,
                index.dim,
                index.rows.shape[0],
            )
        )
        for arr, dtype in (
            (index.coarse, "<f4"),
            (index.codebooks, "<f4"),
            (index.part_offsets, "<i8"),
            (index.rows, "<u4"),
            (index.codes, "u1"),
        ):
            fh.write(np.ascontiguousarray(arr, dtype=dtype).tobytes())


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
    path = Path(path)
    data = path.read_bytes() if data is None else data
    if data[:4] != FBLI_MAGIC:
        raise FormatError(f"{path}: bad magic {data[:4]!r}, expected {FBLI_MAGIC!r}")
    try:
        version, n_part, m, k, d, n_table = _FBLI_HEADER.unpack_from(data, 4)
        check_version(path, version, FBLI_VERSION)
        if n_part < 1 or m < 1 or not 1 <= k <= 256 or d % m != 0:
            raise FormatError(
                f"{path}: bad shape: {n_part} partitions, {m} subspaces, {k} codewords, dim {d}"
            )
        if (n_table, d) != docs.table.shape:
            raise FormatError(
                f"{path}: indexes {n_table} table rows of dim {d}, but the doc pack holds "
                f"{docs.table.shape[0]} of dim {docs.table.shape[1]}"
            )
        off = 4 + _FBLI_HEADER.size
        coarse, off = read_array(data, off, "<f4", n_part * d)
        codebooks, off = read_array(data, off, "<f4", k * d)
        part_offsets, off = read_array(data, off, "<i8", n_part + 1)
        rows, off = read_array(data, off, "<u4", n_table)
        codes, off = read_array(data, off, "u1", n_table * m)
    except (struct.error, ValueError, OverflowError) as exc:
        raise FormatError(f"{path}: truncated or corrupt index ({exc})") from exc
    if off != len(data):
        raise FormatError(f"{path}: {len(data) - off} bytes past the codes")
    if not (np.isfinite(coarse).all() and np.isfinite(codebooks).all()):
        raise FormatError(f"{path}: a coarse centroid or codebook value is not finite")
    # every offset, row and code below indexes an array or a LUT at query time
    if not offsets_span(part_offsets, n_table):
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
