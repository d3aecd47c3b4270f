"""From-scratch IVFPQ index over document token embeddings.

The embedding space is partitioned by a k-means coarse quantizer; each
embedding is stored in its partition's inverted list as a product-quantized
residual code (M bytes, one per subspace). A registry maps embedding ids
back to (document, token position). Queries score candidates with
asymmetric distance computation: an inner-product lookup table per
subspace plus the query-to-coarse-centroid term, so the raw vectors never
need to be touched during the scan.

Inverted lists live in one contiguous code block grouped by partition
(``part_offsets`` delimits them), which keeps a multi-partition scan a
single kernel call. k-means trains in float64 (monotone distortion
trace); the stored centroids, codebooks, and all query-time math are
float32.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from . import _kernels
from .embed import EmbeddingMatrix
from .errors import EmptyIndex, FormatError, InsufficientData

FBLI_MAGIC = b"FBLI"
FBLI_VERSION = 1

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
    n = pts.shape[0]
    centroids = np.empty((k, pts.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centroids[0] = pts[first]
    d2 = np.sum((pts - centroids[0]) ** 2, axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centroids[i] = pts[idx]
        d2 = np.minimum(d2, np.sum((pts - centroids[i]) ** 2, axis=1))
    return centroids


@dataclass
class IvfPqIndex:
    coarse: np.ndarray  # (P, d) float32 centroids
    codebooks: np.ndarray  # (M, K, d // M) float32
    part_offsets: np.ndarray  # (P + 1,) int64 into the flat blocks
    flat_ids: np.ndarray  # (N,) uint64 embedding ids, grouped by partition
    flat_codes: np.ndarray  # (N, M) uint8, same order as flat_ids
    registry_doc_idx: np.ndarray  # (N,) uint32, indexed by embedding id
    registry_pos: np.ndarray  # (N,) uint32
    doc_ids: list[str]

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
        return int(self.registry_doc_idx.shape[0])

    def partition(self, p: int) -> tuple[np.ndarray, np.ndarray]:
        """(embedding ids, codes) views for one partition."""
        s, e = self.part_offsets[p], self.part_offsets[p + 1]
        return self.flat_ids[s:e], self.flat_codes[s:e]

    def doc_of(self, embedding_id: int) -> tuple[str, int]:
        return self.doc_ids[self.registry_doc_idx[embedding_id]], int(
            self.registry_pos[embedding_id]
        )

    def partition_of(self, embedding_id: int) -> int:
        flat_pos = int(np.nonzero(self.flat_ids == embedding_id)[0][0])
        return int(np.searchsorted(self.part_offsets, flat_pos, side="right") - 1)

    def reconstruct(self, embedding_id: int) -> np.ndarray:
        """Decode one embedding back to its approximate vector (for tests)."""
        p = self.partition_of(embedding_id)
        flat_pos = int(np.nonzero(self.flat_ids == embedding_id)[0][0])
        code = self.flat_codes[flat_pos]
        m = self.n_subspaces
        dsub = self.dim // m
        out = self.coarse[p].copy()
        for s in range(m):
            out[s * dsub : (s + 1) * dsub] += self.codebooks[s, code[s]]
        return out


def _stack_rows(doc_matrices: Mapping[str, EmbeddingMatrix]):
    """Flatten all nonzero document rows; returns (rows, doc_idx, pos, doc_ids)."""
    doc_ids: list[str] = []
    blocks: list[np.ndarray] = []
    doc_idx: list[np.ndarray] = []
    pos: list[np.ndarray] = []
    for doc_id, mat in doc_matrices.items():
        rows = mat.rows if isinstance(mat, EmbeddingMatrix) else np.asarray(mat)
        rows = np.asarray(rows, dtype=np.float32)
        keep = np.linalg.norm(rows, axis=1) > 0
        idx = len(doc_ids)
        doc_ids.append(doc_id)
        if not keep.any():
            continue
        blocks.append(rows[keep])
        doc_idx.append(np.full(int(keep.sum()), idx, dtype=np.uint32))
        pos.append(np.nonzero(keep)[0].astype(np.uint32))
    if blocks:
        return (
            np.concatenate(blocks),
            np.concatenate(doc_idx),
            np.concatenate(pos),
            doc_ids,
        )
    return np.zeros((0, 1), dtype=np.float32), np.zeros(0, np.uint32), np.zeros(0, np.uint32), doc_ids


def build_index(
    doc_matrices: Mapping[str, EmbeddingMatrix],
    n_partitions: int,
    n_subspaces: int,
    n_codewords: int = 256,
    seed: int = 0,
    max_iters: int = 25,
) -> IvfPqIndex:
    """Train coarse + PQ quantizers on all rows and encode the corpus."""
    rows, doc_idx, pos, doc_ids = _stack_rows(doc_matrices)
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
        registry_doc_idx=doc_idx,
        registry_pos=pos,
        doc_ids=doc_ids,
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
) -> list[str]:
    """Unique candidate documents for a query matrix.

    Each query row fetches its share (ceil(n_prime / rows)) of the
    n_prime nearest embeddings; when n_prime is None or covers the whole
    index, every row fetches everything. Documents are ordered by first
    appearance while walking all fetched embeddings by descending score.
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
        return []
    total = index.n_embeddings
    if n_prime is None or n_prime >= total:
        per_row = total
    else:
        per_row = -(-int(n_prime) // q_rows.shape[0])  # ceil division

    all_ids, all_scores = _batched_row_search(index, q_rows, nprobe, per_row)
    order = np.lexsort((all_ids, -all_scores))
    doc_indices = index.registry_doc_idx[all_ids[order].astype(np.int64)]
    uniq, first = np.unique(doc_indices, return_index=True)
    return [index.doc_ids[di] for di in uniq[np.argsort(first)].tolist()]


# -- serialization (FBLI) -------------------------------------------------------


def _entry_dtype(m: int) -> np.dtype:
    return np.dtype([("id", "<u8"), ("code", "u1", (m,))])


_REGISTRY_DTYPE = np.dtype([("id", "<u8"), ("doc", "<u4"), ("pos", "<u4")])


def save_index(index: IvfPqIndex, path: str | Path) -> None:
    m = index.n_subspaces
    entry_dt = _entry_dtype(m)
    with open(path, "wb") as fh:
        fh.write(FBLI_MAGIC)
        fh.write(
            struct.pack(
                "<IIIII",
                FBLI_VERSION,
                index.n_partitions,
                m,
                index.n_codewords,
                index.dim,
            )
        )
        fh.write(np.ascontiguousarray(index.coarse, dtype="<f4").tobytes())
        fh.write(np.ascontiguousarray(index.codebooks, dtype="<f4").tobytes())
        for p in range(index.n_partitions):
            ids, codes = index.partition(p)
            fh.write(struct.pack("<Q", ids.shape[0]))
            block = np.empty(ids.shape[0], dtype=entry_dt)
            block["id"] = ids
            block["code"] = codes
            fh.write(block.tobytes())
        n = index.n_embeddings
        fh.write(struct.pack("<Q", n))
        reg = np.empty(n, dtype=_REGISTRY_DTYPE)
        reg["id"] = np.arange(n, dtype=np.uint64)
        reg["doc"] = index.registry_doc_idx
        reg["pos"] = index.registry_pos
        fh.write(reg.tobytes())
        fh.write(struct.pack("<I", len(index.doc_ids)))
        for doc_id in index.doc_ids:
            raw = doc_id.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)


def _is_permutation(ids: np.ndarray, n: int) -> bool:
    """True when ids holds each of 0..n-1 exactly once."""
    if ids.shape[0] != n or (n and int(ids.max()) >= n):
        return False
    return bool(np.all(np.bincount(ids.astype(np.int64), minlength=n) == 1))


def load_index(path: str | Path) -> IvfPqIndex:
    path = Path(path)
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != FBLI_MAGIC:
        raise FormatError(f"{path}: bad magic {data[:4]!r}, expected {FBLI_MAGIC!r}")
    off = 4
    try:
        version, n_part, m, k, d = struct.unpack_from("<IIIII", data, off)
        off += 20
        if version != FBLI_VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        if n_part < 1 or m < 1 or d % m != 0:
            raise FormatError(f"{path}: bad shape: {n_part} partitions, {m} subspaces, dim {d}")
        coarse = np.frombuffer(data, dtype="<f4", count=n_part * d, offset=off).reshape(n_part, d)
        off += n_part * d * 4
        dsub = d // m
        codebooks = np.frombuffer(data, dtype="<f4", count=m * k * dsub, offset=off).reshape(
            m, k, dsub
        )
        off += m * k * dsub * 4
        entry_dt = _entry_dtype(m)
        id_blocks = []
        code_blocks = []
        counts = np.zeros(n_part, dtype=np.int64)
        for p in range(n_part):
            (count,) = struct.unpack_from("<Q", data, off)
            off += 8
            block = np.frombuffer(data, dtype=entry_dt, count=count, offset=off)
            off += count * entry_dt.itemsize
            counts[p] = count
            id_blocks.append(block["id"])
            code_blocks.append(block["code"].reshape(count, m))
        flat_ids = np.concatenate(id_blocks).astype(np.uint64)
        flat_codes = np.concatenate(code_blocks).astype(np.uint8)
        part_offsets = np.zeros(n_part + 1, dtype=np.int64)
        part_offsets[1:] = np.cumsum(counts)
        (n_emb,) = struct.unpack_from("<Q", data, off)
        off += 8
        reg = np.frombuffer(data, dtype=_REGISTRY_DTYPE, count=n_emb, offset=off)
        off += n_emb * _REGISTRY_DTYPE.itemsize
        # every id indexes a registry array or a LUT at query time
        if part_offsets[-1] != n_emb:
            raise FormatError(
                f"{path}: partitions hold {part_offsets[-1]} entries, registry {n_emb}"
            )
        if not _is_permutation(flat_ids, n_emb):
            raise FormatError(f"{path}: inverted-list ids are not each of 0..{n_emb - 1} once")
        if not _is_permutation(reg["id"], n_emb):
            raise FormatError(f"{path}: registry ids are not each of 0..{n_emb - 1} once")
        if flat_codes.size and int(flat_codes.max()) >= k:
            raise FormatError(f"{path}: code {int(flat_codes.max())} >= codebook size {k}")
        doc_idx = np.empty(n_emb, dtype=np.uint32)
        pos = np.empty(n_emb, dtype=np.uint32)
        doc_idx[reg["id"].astype(np.int64)] = reg["doc"]
        pos[reg["id"].astype(np.int64)] = reg["pos"]
        (n_docs,) = struct.unpack_from("<I", data, off)
        off += 4
        doc_ids: list[str] = []
        for _ in range(n_docs):
            (slen,) = struct.unpack_from("<I", data, off)
            off += 4
            doc_ids.append(data[off : off + slen].decode("utf-8"))
            off += slen
        if n_emb and int(doc_idx.max()) >= n_docs:
            raise FormatError(f"{path}: doc index {int(doc_idx.max())} >= {n_docs} doc ids")
    except (struct.error, ValueError, IndexError) as exc:
        raise FormatError(f"{path}: truncated or corrupt index ({exc})") from exc
    return IvfPqIndex(
        coarse=coarse.copy(),
        codebooks=codebooks.copy(),
        part_offsets=part_offsets,
        flat_ids=flat_ids,
        flat_codes=flat_codes,
        registry_doc_idx=doc_idx,
        registry_pos=pos,
        doc_ids=doc_ids,
    )
