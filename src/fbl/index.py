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
embedding once however many documents hold it. ``store`` reads and writes
these arrays (FBLI). k-means trains in float64 (monotone distortion
trace); the stored centroids, codebooks, and all query-time math are
float32.

Training sees each distinct row once too, which a context-free embedder
keeps within |vocab| rows. The coarse quantizer and every PQ codebook
train on the table weighted by each row's multiplicity (the number of
documents holding it, as a document holds a row once). The partition count
is capped at the table's rows: more coarse centroids would be copies of
the same rows, and a query probing only copies would find nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import _kernels
from .embed import EmbeddingMatrix, PackedCorpus
from .errors import EmptyIndex, InsufficientData

_TRAIN_SUBSAMPLE_CAP = 256_000
# PQ subspaces train one run per core from this many training rows; below it
# k-means is mostly Python, and threads contending for the GIL gained nothing
_SPREAD_SUBSPACES_ROWS = 8192


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

    train_res, train_w = residuals[pick], weights[pick]
    codebooks = np.empty((n_subspaces, n_codewords, dsub), dtype=np.float32)
    codes = np.empty((n_distinct, n_subspaces), dtype=np.uint8)

    def train(s0, s1):  # each subspace's codebook, then its column of codes
        for s in range(s0, s1):
            cols = slice(s * dsub, (s + 1) * dsub)
            codebooks[s] = kmeans(
                train_res[:, cols], n_codewords, max_iters=max_iters, seed=seed + 1 + s,
                weights=train_w,
            ).centroids.astype(np.float32)
            codes[:, s] = _kernels.assign_nearest(residuals[:, cols], codebooks[s])[0]

    if train_res.shape[0] >= _SPREAD_SUBSPACES_ROWS:
        _kernels._spread(train, n_subspaces)
    else:
        train(0, n_subspaces)
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
