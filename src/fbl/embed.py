"""Token embedders, the trainable projection, and triplet-margin training.

An encoded sequence becomes a matrix of unit-norm vectors: each non-padding
token id is mapped to a raw vector by a pluggable embedder, pushed through
a linear projection (d_in -> d_out), and L2-normalized per row. Raw vectors
that are exactly zero stay zero after projection and are excluded from
late-interaction maxima.

The projection is trained with a margin loss over triplets
(query, positive doc, negative doc):

    loss = max(0, margin - score(q, pos) + score(q, neg))

with score the late-interaction sum of per-query-row maxima. Training is
plain mini-batch SGD; the analytic gradient (including the row
normalization Jacobian) is exposed separately so it can be checked against
finite differences. Gradient and loss math run in float64; stored
matrices are float32.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Protocol, Sequence

import numpy as np

from .corpus import Triplet
from .encode import EncodedSequence
from .errors import DimensionMismatch, FormatError, NonFiniteLoss

FBLE_MAGIC = b"FBLE"
FBLE_VERSION = 1


@dataclass
class EmbeddingMatrix:
    rows: np.ndarray  # (n, d_out) float32; unit rows, or zero rows for dead tokens
    is_query: bool = False

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]


class PackedCorpus(Mapping[str, EmbeddingMatrix]):
    """Document embeddings as one contiguous (rows, offsets, ids) layout.

    Document i owns rows[offsets[i]:offsets[i + 1]], and a row's index in
    ``rows`` is its embedding id in the index. This is the only stacked form
    of document embeddings: the index is built from it and borrows its
    offsets and ids, ``docs.fblp`` stores it, and the scoring kernels read
    it. Zero rows are dropped when packing, so no consumer needs a mask.
    Read-only: looking up a document returns an ``EmbeddingMatrix`` whose
    rows are a view into the row block.
    """

    def __init__(self, rows: np.ndarray, offsets: np.ndarray, ids: Sequence[str]):
        self.rows = rows  # (N, d) float32, contiguous
        self.offsets = offsets  # (ndocs + 1,) int64
        self.ids = list(ids)
        self._pos = {doc_id: i for i, doc_id in enumerate(self.ids)}
        if len(self._pos) != len(self.ids):
            raise ValueError("document ids must be unique")
        # lexicographic rank of each id (the inverse of the sort order), for tie-breaks
        order = sorted(range(len(self.ids)), key=self.ids.__getitem__)
        self.id_rank = np.argsort(np.asarray(order, dtype=np.int64))

    @classmethod
    def from_matrices(cls, matrices: Mapping[str, EmbeddingMatrix]) -> "PackedCorpus":
        """Pack document matrices (or raw row arrays); a pack passes through."""
        if isinstance(matrices, PackedCorpus):
            return matrices
        blocks = [
            np.asarray(m.rows if isinstance(m, EmbeddingMatrix) else m, dtype=np.float32)
            for m in matrices.values()
        ]
        if not blocks:
            return cls(np.zeros((0, 1), dtype=np.float32), np.zeros(1, dtype=np.int64), [])
        rows = np.concatenate(blocks)
        ends = np.cumsum([b.shape[0] for b in blocks])
        keep = np.einsum("ij,ij->i", rows, rows) > 0  # a nonzero norm, without a temporary
        kept = np.concatenate(([0], np.cumsum(keep)))
        offsets = np.concatenate(([0], kept[ends])).astype(np.int64)
        rows = rows if keep.all() else rows[keep]
        return cls(np.ascontiguousarray(rows), offsets, matrices.keys())

    def __getitem__(self, doc_id: str) -> EmbeddingMatrix:
        i = self._pos[doc_id]
        return EmbeddingMatrix(rows=self.rows[self.offsets[i] : self.offsets[i + 1]])

    def __iter__(self):
        return iter(self.ids)

    def __len__(self) -> int:
        return len(self.ids)


class TokenEmbedder(Protocol):
    d_in: int

    def embed_ids(self, ids: Sequence[int]) -> np.ndarray: ...


class ReferenceHashEmbedder:
    """Deterministic pseudo-random unit vector per token id.

    Each id seeds its own generator from (seed, id), so the mapping is
    stable across processes and independent of lookup order.
    """

    def __init__(self, d_in: int = 768, seed: int = 42):
        self.d_in = d_in
        self.seed = seed
        self._cache: dict[int, np.ndarray] = {}

    def _vector(self, token_id: int) -> np.ndarray:
        vec = self._cache.get(token_id)
        if vec is None:
            rng = np.random.default_rng(np.random.SeedSequence((self.seed, token_id)))
            vec = rng.standard_normal(self.d_in)
            vec /= np.linalg.norm(vec)
            self._cache[token_id] = vec
        return vec

    def embed_ids(self, ids: Sequence[int]) -> np.ndarray:
        if len(ids) == 0:
            return np.zeros((0, self.d_in), dtype=np.float64)
        return np.stack([self._vector(i) for i in ids])


class FileEmbedder:
    """Static token-id-indexed matrix loaded from an FBLE file."""

    def __init__(self, matrix: np.ndarray):
        self.matrix = np.asarray(matrix, dtype=np.float64)
        self.d_in = self.matrix.shape[1]

    @classmethod
    def from_file(cls, path: str | Path, data: bytes | None = None) -> "FileEmbedder":
        return cls(read_matrix_file(path, data))

    def embed_ids(self, ids: Sequence[int]) -> np.ndarray:
        arr = np.asarray(ids, dtype=np.int64)
        if arr.size and (arr.min() < 0 or arr.max() >= self.matrix.shape[0]):
            raise ValueError(
                f"token id out of embedder range [0, {self.matrix.shape[0]})"
            )
        return self.matrix[arr] if arr.size else np.zeros((0, self.d_in))


@dataclass
class LinearProjection:
    weights: np.ndarray  # (d_in, d_out) float64

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.ndim != 2:
            raise ValueError("projection weights must be 2-D")
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("projection weights must be finite")
        if self.d_out > self.d_in:
            raise ValueError("d_out must not exceed d_in")

    @property
    def d_in(self) -> int:
        return self.weights.shape[0]

    @property
    def d_out(self) -> int:
        return self.weights.shape[1]

    @classmethod
    def seeded_init(cls, d_in: int, d_out: int, seed: int) -> "LinearProjection":
        bound = 1.0 / np.sqrt(d_in)
        rng = np.random.default_rng(seed)
        return cls(rng.uniform(-bound, bound, size=(d_in, d_out)))

    def save(self, path: str | Path) -> None:
        write_matrix_file(path, self.weights)

    @classmethod
    def load(cls, path: str | Path, data: bytes | None = None) -> "LinearProjection":
        try:
            return cls(read_matrix_file(path, data))
        except ValueError as exc:
            raise FormatError(f"{path}: not a usable projection ({exc})") from exc


@dataclass
class TripletTrainConfig:
    margin: float = 0.5
    learning_rate: float = 1e-3
    epochs: int = 4
    batch_size: int = 16
    seed: int = 42

    def __post_init__(self):
        if not (np.isfinite(self.margin) and self.margin > 0):
            raise ValueError("margin must be finite and > 0")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be finite and > 0")
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("epochs must be >= 0 and batch_size >= 1")


# -- binary matrix file (FBLE) -------------------------------------------------


def write_matrix_file(path: str | Path, matrix: np.ndarray) -> None:
    arr = np.ascontiguousarray(matrix, dtype="<f4")
    if arr.ndim != 2:
        raise ValueError("FBLE files hold 2-D matrices")
    with open(path, "wb") as fh:
        fh.write(FBLE_MAGIC)
        fh.write(struct.pack("<III", FBLE_VERSION, arr.shape[0], arr.shape[1]))
        fh.write(arr.tobytes())


def read_matrix_file(path: str | Path, data: bytes | None = None) -> np.ndarray:
    """Read and validate an FBLE file, or its bytes when given as ``data``."""
    path = Path(path)
    data = path.read_bytes() if data is None else data
    if data[:4] != FBLE_MAGIC:
        raise FormatError(f"{path}: bad magic {data[:4]!r}, expected {FBLE_MAGIC!r}")
    if len(data) < 16:
        raise FormatError(f"{path}: truncated header")
    version, rows, dim = struct.unpack_from("<III", data, 4)
    if version != FBLE_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    # the size check comes first, so a corrupt header never sizes an allocation
    size = 16 + rows * dim * 4
    if len(data) < size:
        raise FormatError(f"{path}: truncated payload")
    if len(data) > size:
        raise FormatError(f"{path}: {len(data) - size} bytes past the {rows}x{dim} payload")
    return np.frombuffer(data, dtype="<f4", offset=16).reshape(rows, dim).copy()


# -- embedding -----------------------------------------------------------------


def _normalize_rows(mat: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    safe = np.where(norms > 0, norms, 1.0)
    return mat / safe


def embed_sequence(
    seq: EncodedSequence,
    embedder: TokenEmbedder,
    projection: LinearProjection,
    is_query: bool = False,
) -> EmbeddingMatrix:
    """Unit-norm rows for every non-padding token of the sequence."""
    if embedder.d_in != projection.d_in:
        raise DimensionMismatch(
            f"embedder d_in={embedder.d_in} != projection d_in={projection.d_in}"
        )
    raw = embedder.embed_ids(seq.ids[: seq.real_length])
    projected = raw @ projection.weights
    rows = _normalize_rows(projected).astype(np.float32)
    return EmbeddingMatrix(rows=rows, is_query=is_query)


# -- loss and gradient ---------------------------------------------------------


def _maxsim_f64(q_rows: np.ndarray, d_rows: np.ndarray) -> float:
    """Float64 late-interaction score; zero rows excluded from maxima."""
    q = np.asarray(q_rows, dtype=np.float64)
    d = np.asarray(d_rows, dtype=np.float64)
    d = d[np.linalg.norm(d, axis=1) > 0]
    if d.shape[0] == 0:
        return float("-inf")
    sims = q @ d.T
    return float(sims.max(axis=1).sum())


def triplet_loss(
    q: EmbeddingMatrix, pos: EmbeddingMatrix, neg: EmbeddingMatrix, margin: float
) -> float:
    s_pos = _maxsim_f64(q.rows, pos.rows)
    s_neg = _maxsim_f64(q.rows, neg.rows)
    return max(0.0, margin - s_pos + s_neg)


def _pair_forward(q_raw: np.ndarray, d_raw: np.ndarray, w: np.ndarray):
    """Late-interaction forward pass of a (query, doc) raw-matrix pair.

    Returns None for a document with no scorable row (score -inf), else
    (qi, j, s, uq, ud, nq, nd): the query rows with a non-zero projection,
    each one's best doc row (ties to the lowest index) and their
    similarities, plus the unit rows and norms the gradient needs. The
    score is ``s.sum()``.
    """
    yq = q_raw @ w
    yd = d_raw @ w
    nq = np.linalg.norm(yq, axis=1)
    nd = np.linalg.norm(yd, axis=1)
    valid_d = nd > 0
    if not valid_d.any():
        return None
    uq = yq / np.where(nq > 0, nq, 1.0)[:, None]
    ud = yd / np.where(valid_d, nd, 1.0)[:, None]
    sims = uq @ ud.T
    sims[:, ~valid_d] = -np.inf
    qi = np.nonzero(nq > 0)[0]
    j = np.argmax(sims[qi], axis=1)
    return qi, j, sims[qi, j], uq, ud, nq, nd


def _pair_score(q_raw: np.ndarray, d_raw: np.ndarray, w: np.ndarray) -> float:
    """Late-interaction score of a (query, doc) raw-matrix pair."""
    fwd = _pair_forward(q_raw, d_raw, w)
    return float("-inf") if fwd is None else float(fwd[2].sum())


def _pair_score_and_grad(q_raw: np.ndarray, d_raw: np.ndarray, w: np.ndarray):
    """Late-interaction score of a (query, doc) raw-matrix pair and d(score)/dW."""
    fwd = _pair_forward(q_raw, d_raw, w)
    if fwd is None:
        # unscorable document: -inf score, flat gradient; training aborts
        # with NonFiniteLoss when this reaches a batch
        return float("-inf"), np.zeros_like(w)
    qi, j, s, uq, ud, nq, nd = fwd
    grad = np.zeros_like(w)
    if qi.size:
        u = uq[qi]
        v = ud[j]
        gq = (v - s[:, None] * u) / nq[qi, None]
        gd = (u - s[:, None] * v) / nd[j, None]
        grad += q_raw[qi].T @ gq
        grad += d_raw[j].T @ gd
    return float(s.sum()), grad


def _triplet_loss_and_grad(q_raw, pos_raw, neg_raw, w: np.ndarray, margin: float):
    """Triplet loss and its gradient from one score-and-gradient pass per pair."""
    s_pos, g_pos = _pair_score_and_grad(q_raw, pos_raw, w)
    s_neg, g_neg = _pair_score_and_grad(q_raw, neg_raw, w)
    hinge = margin - s_pos + s_neg
    grad = np.zeros_like(w) if hinge <= 0.0 else g_neg - g_pos
    return max(0.0, hinge), grad


def gradient_of_loss(
    q_raw: np.ndarray,
    pos_raw: np.ndarray,
    neg_raw: np.ndarray,
    projection: LinearProjection,
    margin: float,
) -> np.ndarray:
    """Analytic d(triplet loss)/dW at the projection's current weights.

    Inputs are raw (pre-projection) matrices. In the flat region of the
    hinge the gradient is exactly zero.
    """
    return _triplet_loss_and_grad(q_raw, pos_raw, neg_raw, projection.weights, margin)[1]


def loss_from_raw(
    q_raw: np.ndarray,
    pos_raw: np.ndarray,
    neg_raw: np.ndarray,
    projection: LinearProjection,
    margin: float,
) -> float:
    """Triplet loss computed from raw matrices; the target of gradient_of_loss.

    Scores only: the same forward pass as the gradient, with no gradient.
    """
    w = projection.weights
    s_pos, s_neg = _pair_score(q_raw, pos_raw, w), _pair_score(q_raw, neg_raw, w)
    return max(0.0, margin - s_pos + s_neg)


# -- training ------------------------------------------------------------------


@dataclass
class TrainResult:
    projection: LinearProjection
    epoch_losses: list[float]  # mean loss over all triplets: init, then per epoch


def train_projection(
    triplets: Sequence[Triplet],
    query_seqs: Mapping[str, EncodedSequence],
    doc_seqs: Mapping[str, EncodedSequence],
    embedder: TokenEmbedder,
    cfg: TripletTrainConfig,
    d_out: int = 128,
) -> TrainResult:
    """Mini-batch SGD on the mean triplet loss; returns the trained projection."""
    if not triplets:
        raise ValueError("at least one triplet is required")

    d_in = embedder.d_in
    raw_q: dict[str, np.ndarray] = {}
    raw_d: dict[str, np.ndarray] = {}
    for t in triplets:
        if t.bug_id not in raw_q:
            seq = query_seqs[t.bug_id]
            raw_q[t.bug_id] = embedder.embed_ids(seq.ids[: seq.real_length])
        for doc_id in (t.positive_doc, t.negative_doc):
            if doc_id not in raw_d:
                seq = doc_seqs[doc_id]
                raw_d[doc_id] = embedder.embed_ids(seq.ids[: seq.real_length])

    rng = np.random.default_rng(cfg.seed)
    projection = LinearProjection.seeded_init(d_in, d_out, cfg.seed)

    def mean_loss(w: np.ndarray) -> float:
        proj = LinearProjection(w)
        total = 0.0
        for t in triplets:
            total += loss_from_raw(
                raw_q[t.bug_id], raw_d[t.positive_doc], raw_d[t.negative_doc], proj, cfg.margin
            )
        return total / len(triplets)

    w = projection.weights
    losses = [mean_loss(w)]
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(triplets))
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            grad = np.zeros_like(w)
            batch_loss = 0.0
            proj = LinearProjection(w)  # rejects non-finite weights
            for idx in batch:
                t = triplets[idx]
                a, p, ng = raw_q[t.bug_id], raw_d[t.positive_doc], raw_d[t.negative_doc]
                loss, g = _triplet_loss_and_grad(a, p, ng, proj.weights, cfg.margin)
                batch_loss += loss
                grad += g
            batch_loss /= len(batch)
            if not np.isfinite(batch_loss):
                raise NonFiniteLoss(
                    f"non-finite loss at epoch {epoch + 1}, batch starting {start}"
                )
            w = w - cfg.learning_rate * (grad / len(batch))
        losses.append(mean_loss(w))
    return TrainResult(projection=LinearProjection(w), epoch_losses=losses)
