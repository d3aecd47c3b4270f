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
the same rows, and a query probing only copies would find nothing. An
unset partition count or codebook size is sized to the table
(``centroids_for``), at least 39 training rows per centroid, the bound
below which faiss warns (Johnson et al., arXiv 1702.08734).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import _kernels
from .embed import EmbeddingMatrix, PackedCorpus
from .errors import EmptyIndex, InsufficientData

# the fewest training rows per centroid an unset quantizer size leaves;
# faiss warns below 39
_MIN_PER_CENTROID = 39
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

    Stops when assignments are stable or max_iters is hit. Seeds are drawn
    by the squared distance assignment uses, ||x||^2 + ||c||^2 - 2 x.c
    clamped at 0, so seeding, assignment, the distortion trace and the
    re-seeding of an empty cluster measure distance one way. An empty
    cluster is re-seeded with the point farthest from its current
    centroid, which keeps the distortion trace non-increasing. Every
    point's squared norm must be finite.

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
    bad = np.flatnonzero(~np.isfinite(np.einsum("nd,nd->n", pts, pts)))
    if bad.size:  # NaN, inf, or a norm whose square overflows
        raise ValueError(f"point {bad[0]} has a squared norm that is not finite")
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
    """k-means++ seeds, with distances measured as assign_nearest measures them.

    The first seed is a uniform draw; each later one is drawn in proportion
    to w * d2, the weight times the squared distance to the nearest seed so
    far. After each pick c, a point's distance to c is
    ||x||^2 + ||c||^2 - 2 x.c clamped at 0, with assign_nearest's operations
    in its order, so d2 holds the bits assign_nearest gives against the
    seeds so far.
    """
    n, dim = pts.shape
    centroids = np.empty((k, dim), dtype=np.float64)
    idx = int(rng.integers(n))
    centroids[0] = pts[idx]
    x2 = np.einsum("nd,nd->n", pts, pts)
    d2 = np.full(n, np.inf)
    for i in range(1, k):
        g = pts @ centroids[i - 1]
        g *= -2.0
        g += x2[idx]
        g += x2
        np.minimum(d2, np.maximum(g, 0.0), out=d2)
        wd2 = weights * d2
        total = wd2.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:  # Generator.choice(n, p=wd2 / total)'s draw, without its O(n) checks of p
            cdf = np.cumsum(wd2 / total)
            cdf /= cdf[-1]
            idx = int(cdf.searchsorted(rng.random(), side="right"))
        centroids[i] = pts[idx]
    return centroids


def centroids_for(n_rows: int) -> int:
    """The partition count or codebook size for a table of n_rows distinct rows.

    The largest power of two that is at most 256 and leaves each centroid
    at least _MIN_PER_CENTROID training rows; 1 below twice that.
    """
    fit = min(256, n_rows // _MIN_PER_CENTROID)
    return 1 << max(fit.bit_length() - 1, 0)


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
    n_partitions: int | None,
    n_subspaces: int,
    n_codewords: int | None = None,
    seed: int = 0,
    max_iters: int = 25,
) -> IvfPqIndex:
    """Train coarse + PQ quantizers on the distinct rows and encode them.

    The inverted lists hold the pack's table rows; the index borrows the
    pack's refs, offsets and ids, which map them back to documents. Training
    weighs each table row by how many pack rows refer to it, the documents
    holding it (all 1 without repeats, where the table is the rows). The
    partition count is capped at the table's rows, and n_partitions or
    n_codewords None is ``centroids_for`` the table's rows.
    """
    pack = PackedCorpus.from_matrices(doc_matrices)
    distinct = pack.table
    if pack.n_rows == 0:
        raise InsufficientData("no embeddings to index: every document is empty")
    n_distinct, d = distinct.shape
    if n_partitions is None:
        n_partitions = centroids_for(n_distinct)
    n_partitions = min(n_partitions, n_distinct)  # more would be copies of a row
    if n_codewords is None:
        n_codewords = centroids_for(n_distinct)
    if d % n_subspaces != 0:
        raise ValueError(f"subspace count {n_subspaces} must divide dimension {d}")
    if not 1 <= n_codewords <= 256:
        raise ValueError("codebook size must be in [1, 256]")
    dsub = d // n_subspaces

    weights = np.bincount(pack.refs, minlength=n_distinct).astype(np.float64)

    coarse = kmeans(
        distinct, n_partitions, max_iters=max_iters, seed=seed, weights=weights
    ).centroids.astype(np.float32)
    part, _ = _kernels.assign_nearest(distinct, coarse)
    residuals = distinct - coarse[part]

    codebooks = np.empty((n_subspaces, n_codewords, dsub), dtype=np.float32)
    codes = np.empty((n_distinct, n_subspaces), dtype=np.uint8)

    def train(s0, s1):  # each subspace's codebook, then its column of codes
        for s in range(s0, s1):
            cols = slice(s * dsub, (s + 1) * dsub)
            codebooks[s] = kmeans(
                residuals[:, cols], n_codewords, max_iters=max_iters, seed=seed + 1 + s,
                weights=weights,
            ).centroids.astype(np.float32)
            codes[:, s] = _kernels.assign_nearest(residuals[:, cols], codebooks[s])[0]

    if n_distinct >= _SPREAD_SUBSPACES_ROWS:
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
    back when the candidates are re-scored. When the budget covers the table
    and every partition is probed, each row keeps the whole table, and the
    result is every document with a row, read off the offsets with no scan.
    A query with no nonzero row has no candidates.
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
        if nprobe == index.n_partitions:  # every row keeps every entry of every partition
            return np.flatnonzero(np.diff(index.doc_offsets) > 0)
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
