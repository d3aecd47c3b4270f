"""From-scratch IVFPQ index over document token embeddings.

The embedding space is partitioned by a k-means coarse quantizer; each
embedding is stored in its partition's inverted list as a product-quantized
residual code (M bytes, one per subspace). Embedding ids are the row
indices of the ``PackedCorpus`` the index was built from, and the index
borrows that pack's offsets and ids (``doc_offsets``, ``doc_ids``), so an id
maps to its document's pack position with one binary search. Queries score
candidates with asymmetric distance computation: an inner-product lookup
table per subspace plus the query-to-coarse-centroid term, so the raw
vectors never need to be touched during the scan.

Inverted lists live in one contiguous code block grouped by partition
(``part_offsets`` delimits them), which keeps a multi-partition scan a
single kernel call. On disk (FBLI v3) the index is these same arrays
written back to back, with no document table: the pack stored beside it
owns that, and ``load_index`` takes it from the loaded pack. k-means trains
in float64 (monotone distortion trace); the stored centroids, codebooks,
and all query-time math are float32.
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
FBLI_VERSION = 3

_TRAIN_SUBSAMPLE_CAP = 256_000


@dataclass
class KmeansResult:
    centroids: np.ndarray  # (k, d) float64
    labels: np.ndarray  # (n,) int64
    distortions: list[float]  # mean squared distance per Lloyd iteration


def kmeans(points: np.ndarray, k: int, max_iters: int = 25, seed: int = 0) -> KmeansResult:
    """Lloyd's algorithm from a seeded k-means++ start.

    Stops when assignments are stable or max_iters is hit. An empty
    cluster is re-seeded with the point farthest from its current
    centroid, which keeps the distortion trace non-increasing.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    if n < 1:
        raise ValueError("kmeans needs at least one point")
    if k < 1:
        raise ValueError("k must be >= 1")
    rng = np.random.default_rng(seed)

    if k >= n:
        # every point is a centroid; pad by cycling points
        reps = [pts[i % n] for i in range(k)]
        centroids = np.stack(reps)
        labels, dists = _kernels.assign_nearest(pts, centroids)
        return KmeansResult(centroids, labels, [float(np.mean(dists))])

    centroids = _kmeans_pp_init(pts, k, rng)
    labels = np.full(n, -1, dtype=np.int64)
    distortions: list[float] = []
    for _ in range(max_iters):
        new_labels, dists = _kernels.assign_nearest(pts, centroids)
        distortions.append(float(np.mean(dists)))
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        sums, counts = _kernels.centroid_sums(pts, labels, k)
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


def _kmeans_pp_init(pts: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeds; every squared distance is the exact difference form.

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
        total = d2.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
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
    part_offsets: np.ndarray  # (P + 1,) int64 into the flat blocks
    flat_ids: np.ndarray  # (N,) uint64 embedding ids, grouped by partition
    flat_codes: np.ndarray  # (N, M) uint8, same order as flat_ids
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
        return int(self.flat_ids.shape[0])


def _doc_indices(doc_offsets: np.ndarray, embedding_ids) -> np.ndarray:
    """The document holding each embedding id (empty documents hold none)."""
    ids = np.asarray(embedding_ids)
    docs = np.searchsorted(doc_offsets.astype(ids.dtype), ids, side="right")
    docs -= 1
    return docs


def build_index(
    doc_matrices: Mapping[str, EmbeddingMatrix],
    n_partitions: int,
    n_subspaces: int,
    n_codewords: int = 256,
    seed: int = 0,
    max_iters: int = 25,
) -> IvfPqIndex:
    """Train coarse + PQ quantizers on all rows and encode the corpus.

    Embedding ids are row indices of the packed corpus; the index borrows
    the pack's offsets and ids, which map them back to documents.
    """
    pack = PackedCorpus.from_matrices(doc_matrices)
    rows = pack.rows
    total = rows.shape[0]
    if total < n_partitions:
        raise InsufficientData(
            f"{total} embeddings < {n_partitions} partitions; lower --partitions"
        )
    d = rows.shape[1]
    if d % n_subspaces != 0:
        raise ValueError(f"subspace count {n_subspaces} must divide dimension {d}")
    if not 1 <= n_codewords <= 256:
        raise ValueError("codebook size must be in [1, 256]")
    dsub = d // n_subspaces

    train = rows
    if total > _TRAIN_SUBSAMPLE_CAP:
        pick = np.sort(
            np.random.default_rng(seed).choice(total, _TRAIN_SUBSAMPLE_CAP, replace=False)
        )
        train = rows[pick]

    coarse = kmeans(train, n_partitions, max_iters=max_iters, seed=seed).centroids.astype(
        np.float32
    )
    part, _ = _kernels.assign_nearest(rows, coarse)
    residuals = rows - coarse[part]

    train_res = residuals
    if total > _TRAIN_SUBSAMPLE_CAP:
        train_res = residuals[pick]
    codebooks = np.empty((n_subspaces, n_codewords, dsub), dtype=np.float32)
    for s in range(n_subspaces):
        sub = train_res[:, s * dsub : (s + 1) * dsub]
        codebooks[s] = kmeans(
            sub, n_codewords, max_iters=max_iters, seed=seed + 1 + s
        ).centroids.astype(np.float32)

    codes = np.empty((total, n_subspaces), dtype=np.uint8)
    for s in range(n_subspaces):
        sub = residuals[:, s * dsub : (s + 1) * dsub]
        lab, _ = _kernels.assign_nearest(sub, codebooks[s])
        codes[:, s] = lab.astype(np.uint8)

    order = np.argsort(part, kind="stable")  # groups by partition, ids ascending within
    flat_ids = np.arange(total, dtype=np.uint64)[order]
    flat_codes = np.ascontiguousarray(codes[order])
    counts = np.bincount(part, minlength=n_partitions)
    part_offsets = np.zeros(n_partitions + 1, dtype=np.int64)
    part_offsets[1:] = np.cumsum(counts)

    return IvfPqIndex(
        coarse=coarse,
        codebooks=codebooks,
        part_offsets=part_offsets,
        flat_ids=flat_ids,
        flat_codes=flat_codes,
        doc_offsets=pack.offsets,
        doc_ids=pack.ids,
    )


def _batched_row_search(
    index: IvfPqIndex, q_rows: np.ndarray, nprobe: int, per_row: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each query row's top per_row embeddings over its nprobe nearest partitions.

    Returns (embedding ids, scores), each row's hits ordered by (score desc,
    id asc) and the rows concatenated in order.
    """
    nq = q_rows.shape[0]
    m = index.n_subspaces
    dsub = index.dim // m
    coarse_all = (q_rows @ index.coarse.T).astype(np.float64)  # (nq, P)
    probe_all = np.argpartition(-coarse_all, nprobe - 1, axis=1)[:, :nprobe]
    probe_all.sort(axis=1)  # ascending partitions = sequential code reads
    luts = np.empty((nq, m, index.n_codewords), dtype=np.float32)
    for s in range(m):
        luts[:, s, :] = q_rows[:, s * dsub : (s + 1) * dsub] @ index.codebooks[s].T
    return _kernels.adc_topk_rows(
        luts,
        index.flat_codes,
        index.flat_ids,
        index.part_offsets[probe_all],
        index.part_offsets[probe_all + 1],
        np.take_along_axis(coarse_all, probe_all, axis=1),
        per_row,
    )


def candidate_docs(
    index: IvfPqIndex,
    query_matrix: EmbeddingMatrix,
    n_prime: int | None,
    nprobe: int,
) -> np.ndarray:
    """Pack positions (int64) of the unique candidate documents for a query matrix.

    Each query row fetches its share (ceil(n_prime / rows)) of the
    n_prime nearest embeddings; when n_prime is None or covers the whole
    index, every row fetches everything. Documents are ordered by first
    appearance while walking all fetched embeddings by descending score
    (ties by ascending embedding id).
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
    total = index.n_embeddings
    if n_prime is None or n_prime >= total:
        per_row = total
    else:
        per_row = -(-int(n_prime) // q_rows.shape[0])  # ceil division

    all_ids, all_scores = _batched_row_search(index, q_rows, nprobe, per_row)
    # a document first appears at its best hit, so order documents by that hit
    docs = _doc_indices(index.doc_offsets, all_ids)
    n_docs = index.doc_offsets.shape[0] - 1
    best = np.full(n_docs, -np.inf)
    np.maximum.at(best, docs, all_scores)
    at_best = all_scores == best[docs]
    best_id = np.full(n_docs, np.iinfo(np.uint64).max, dtype=np.uint64)
    np.minimum.at(best_id, docs[at_best], all_ids[at_best])
    hit = np.flatnonzero(np.bincount(docs, minlength=n_docs))
    return hit[np.lexsort((best_id[hit], -best[hit]))].astype(np.int64, copy=False)


# -- serialization (FBLI) -------------------------------------------------------
#
# magic "FBLI", then a header (version, P, M, K, dim, embeddings), then the
# index's arrays back to back, little-endian: coarse (P, dim) f4, codebooks
# (M, K, dim/M) f4, part_offsets (P+1) i8, flat_ids (N) u8, flat_codes
# (N, M) u1. The document table is the doc pack's.

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
                index.n_embeddings,
            )
        )
        for arr, dtype in (
            (index.coarse, "<f4"),
            (index.codebooks, "<f4"),
            (index.part_offsets, "<i8"),
            (index.flat_ids, "<u8"),
            (index.flat_codes, "u1"),
        ):
            fh.write(np.ascontiguousarray(arr, dtype=dtype).tobytes())


def _is_permutation(ids: np.ndarray, n: int) -> bool:
    """True when ids holds each of 0..n-1 exactly once."""
    if ids.shape[0] != n or (n and int(ids.max()) >= n):
        return False
    return bool(np.all(np.bincount(ids.astype(np.int64), minlength=n) == 1))


def load_index(path: str | Path, docs: PackedCorpus, data: bytes | None = None) -> IvfPqIndex:
    """Read and validate an FBLI file over the pack it was built from.

    The index borrows the pack's offsets and ids, so its header must count
    the pack's rows and dimension. ``data`` is the file's bytes when the
    caller has read them already.
    """
    path = Path(path)
    data = path.read_bytes() if data is None else data
    if data[:4] != FBLI_MAGIC:
        raise FormatError(f"{path}: bad magic {data[:4]!r}, expected {FBLI_MAGIC!r}")
    try:
        version, n_part, m, k, d, n_emb = _FBLI_HEADER.unpack_from(data, 4)
        check_version(path, version, FBLI_VERSION)
        if n_part < 1 or m < 1 or not 1 <= k <= 256 or d % m != 0:
            raise FormatError(
                f"{path}: bad shape: {n_part} partitions, {m} subspaces, {k} codewords, dim {d}"
            )
        if (n_emb, d) != docs.rows.shape:
            raise FormatError(
                f"{path}: indexes {n_emb} embeddings of dim {d}, but the doc pack holds "
                f"{docs.rows.shape[0]} of dim {docs.rows.shape[1]}"
            )
        off = 4 + _FBLI_HEADER.size
        coarse, off = read_array(data, off, "<f4", n_part * d)
        codebooks, off = read_array(data, off, "<f4", k * d)
        part_offsets, off = read_array(data, off, "<i8", n_part + 1)
        flat_ids, off = read_array(data, off, "<u8", n_emb)
        flat_codes, off = read_array(data, off, "u1", n_emb * m)
    except (struct.error, ValueError, OverflowError) as exc:
        raise FormatError(f"{path}: truncated or corrupt index ({exc})") from exc
    if off != len(data):
        raise FormatError(f"{path}: {len(data) - off} bytes past the codes")
    # every id and offset below indexes an array or a LUT at query time
    if not offsets_span(part_offsets, n_emb):
        raise FormatError(f"{path}: partition offsets do not run from 0 up to {n_emb}")
    if not _is_permutation(flat_ids, n_emb):
        raise FormatError(f"{path}: inverted-list ids are not each of 0..{n_emb - 1} once")
    if flat_codes.size and int(flat_codes.max()) >= k:
        raise FormatError(f"{path}: code {int(flat_codes.max())} >= codebook size {k}")
    return IvfPqIndex(
        coarse=coarse.reshape(n_part, d).copy(),
        codebooks=codebooks.reshape(m, k, d // m).copy(),
        part_offsets=part_offsets.copy(),
        flat_ids=flat_ids.copy(),
        flat_codes=flat_codes.reshape(n_emb, m).copy(),
        doc_offsets=docs.offsets,
        doc_ids=docs.ids,
    )
