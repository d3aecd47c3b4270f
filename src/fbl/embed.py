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
plain mini-batch SGD. A step projects and normalises each raw matrix of a
triplet once and computes the analytic gradient (including the row
normalization Jacobian) only when the hinge is open; ``loss_from_raw`` and
``gradient_of_loss`` share that forward pass, so the gradient can be
checked against finite differences. An epoch's loss is the mean of the
losses its steps computed. Gradient and loss math run in float64; stored
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
    """Document embeddings as one (table, refs, offsets, ids) layout.

    ``table`` holds each distinct row once, in order of first appearance, and
    pack row p is table[refs[p]] (without repeats the table is the rows).
    Document i owns pack rows offsets[i]:offsets[i+1], and a pack row's index
    is its embedding id. The index is built from the pack and borrows its
    offsets and ids, ``docs.fblp`` stores it, and the scoring kernel reads it.
    Zero rows are dropped when packing. Looking up a document gathers its rows.
    """

    def __init__(
        self, table: np.ndarray, refs: np.ndarray, offsets: np.ndarray, ids: Sequence[str]
    ):
        self.table = table  # (T, d) float32, the distinct rows
        self.refs = refs  # (N,) uint32: pack row p is table[refs[p]]
        self.offsets = offsets  # (ndocs + 1,) int64
        self.ids = list(ids)
        self._pos = {doc_id: i for i, doc_id in enumerate(self.ids)}
        if len(self._pos) != len(self.ids):
            raise ValueError("document ids must be unique")
        # lexicographic rank of each id (the inverse of the sort order), for tie-breaks
        order = sorted(range(len(self.ids)), key=self.ids.__getitem__)
        self.id_rank = np.argsort(np.asarray(order, dtype=np.int64))

    @property
    def n_rows(self) -> int:
        return self.refs.shape[0]

    @classmethod
    def from_matrices(cls, matrices: Mapping[str, EmbeddingMatrix]) -> "PackedCorpus":
        """Pack document matrices (or raw row arrays); a pack passes through."""
        if isinstance(matrices, PackedCorpus):
            return matrices
        blocks = [
            np.asarray(m.rows if isinstance(m, EmbeddingMatrix) else m, dtype=np.float32)
            for m in matrices.values()
        ]
        rows = np.concatenate(blocks) if blocks else np.zeros((0, 1), dtype=np.float32)
        ends = np.cumsum([b.shape[0] for b in blocks], dtype=np.int64)
        keep = np.einsum("ij,ij->i", rows, rows) > 0  # a nonzero norm, without a temporary
        kept = np.concatenate(([0], np.cumsum(keep)))
        offsets = np.concatenate(([0], kept[ends])).astype(np.int64)
        rows = np.ascontiguousarray(rows if keep.all() else rows[keep])
        return cls(*_distinct_rows(rows), offsets, matrices.keys())

    def __getitem__(self, doc_id: str) -> EmbeddingMatrix:
        i = self._pos[doc_id]
        return EmbeddingMatrix(rows=self.table[self.refs[self.offsets[i] : self.offsets[i + 1]]])

    def __iter__(self):
        return iter(self.ids)

    def __len__(self) -> int:
        return len(self.ids)


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(table, refs): the rows distinct by their bytes, in order of first appearance."""
    keys = rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    if first.shape[0] == rows.shape[0]:
        return rows, np.arange(rows.shape[0], dtype=np.uint32)
    order = np.argsort(first)  # np.unique orders by bytes
    return rows[first[order]], np.argsort(order).astype(np.uint32)[inverse]


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
        # a signalling NaN warns when cast; the finiteness check below rejects it
        with np.errstate(invalid="ignore"):
            self.matrix = np.asarray(matrix, dtype=np.float64)
        bad = np.nonzero(~np.isfinite(self.matrix).all(axis=1))[0]
        if bad.size:
            raise ValueError(f"row {bad[0]} of the token table is not finite")
        self.d_in = self.matrix.shape[1]

    @classmethod
    def from_file(cls, path: str | Path, data: bytes | None = None) -> "FileEmbedder":
        matrix = read_matrix_file(path, data)
        try:
            return cls(matrix)
        except ValueError as exc:
            raise FormatError(f"{path}: {exc}") from exc

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
        # a signalling NaN warns when cast; the finiteness check below rejects it
        with np.errstate(invalid="ignore"):
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


def _forward(raws: Sequence[np.ndarray], w: np.ndarray, margin: float):
    """One triplet's loss, with each raw matrix projected and normalised once.

    ``raws`` is (query, positive, negative); an unscorable document (no
    non-zero row) scores -inf. A hinge at most 0 gives (0.0, None): no loss,
    nothing to differentiate. Any other hinge, NaN included, is the loss,
    returned with what ``_gradient`` needs: the query's unit rows, norms and
    non-zero rows qi, and per document None (unscorable) or (j, s, ud, nd),
    each qi row's best doc row (ties to the lowest index), their
    similarities, and the doc's unit rows and norms.
    """
    units = []
    for raw in raws:
        y = raw @ w
        n = np.linalg.norm(y, axis=1)
        units.append((y / np.where(n > 0, n, 1.0)[:, None], n))
    uq, nq = units[0]
    qi = np.nonzero(nq > 0)[0]
    scores, docs = [], []
    for ud, nd in units[1:]:
        valid = nd > 0
        if not valid.any():
            scores.append(float("-inf"))
            docs.append(None)
            continue
        sims = uq @ ud.T
        sims[:, ~valid] = -np.inf
        j = np.argmax(sims[qi], axis=1)
        s = sims[qi, j]
        scores.append(float(s.sum()))
        docs.append((j, s, ud, nd))
    hinge = margin - scores[0] + scores[1]
    if hinge <= 0.0:
        return 0.0, None
    return hinge, (uq, nq, qi, docs)


def _gradient(raws: Sequence[np.ndarray], cache) -> np.ndarray:
    """d(hinge)/dW of a triplet whose hinge ``_forward`` found open.

    Each score's gradient runs through the row normalisation Jacobian of its
    best-matching pairs; an unscorable document contributes zero.
    """
    uq, nq, qi, docs = cache
    grad = np.zeros((raws[0].shape[1], uq.shape[1]))
    for sign, d_raw, doc in zip((-1.0, 1.0), raws[1:], docs):
        if doc is not None:
            j, s, ud, nd = doc
            u, v = uq[qi], ud[j]
            g = raws[0][qi].T @ ((v - s[:, None] * u) / nq[qi, None])
            g += d_raw[j].T @ ((u - s[:, None] * v) / nd[j, None])
            grad += sign * g
    return grad


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
    raws = (q_raw, pos_raw, neg_raw)
    _, cache = _forward(raws, projection.weights, margin)
    return np.zeros_like(projection.weights) if cache is None else _gradient(raws, cache)


def loss_from_raw(
    q_raw: np.ndarray,
    pos_raw: np.ndarray,
    neg_raw: np.ndarray,
    projection: LinearProjection,
    margin: float,
) -> float:
    """Triplet loss computed from raw matrices; the target of gradient_of_loss.

    Scores only: the forward pass that training and the gradient share.
    """
    return _forward((q_raw, pos_raw, neg_raw), projection.weights, margin)[0]


# -- training ------------------------------------------------------------------


@dataclass
class TrainResult:
    projection: LinearProjection
    epoch_losses: list[float]  # per epoch, the mean triplet loss its steps saw before updating


def train_projection(
    triplets: Sequence[Triplet],
    query_seqs: Mapping[str, EncodedSequence],
    doc_seqs: Mapping[str, EncodedSequence],
    embedder: TokenEmbedder,
    cfg: TripletTrainConfig,
    d_out: int = 128,
) -> TrainResult:
    """Mini-batch SGD on the mean triplet loss; returns the trained projection.

    A triplet whose hinge is closed adds neither loss nor gradient, so only
    open hinges are differentiated.
    """
    if not triplets:
        raise ValueError("at least one triplet is required")

    def raw(seq: EncodedSequence) -> np.ndarray:
        return embedder.embed_ids(seq.ids[: seq.real_length])

    raw_q = {b: raw(query_seqs[b]) for b in dict.fromkeys(t.bug_id for t in triplets)}
    doc_ids = dict.fromkeys(d for t in triplets for d in (t.positive_doc, t.negative_doc))
    raw_d = {d: raw(doc_seqs[d]) for d in doc_ids}
    raws = [(raw_q[t.bug_id], raw_d[t.positive_doc], raw_d[t.negative_doc]) for t in triplets]

    rng = np.random.default_rng(cfg.seed)
    w = LinearProjection.seeded_init(embedder.d_in, d_out, cfg.seed).weights
    losses = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(triplets))
        epoch_loss = 0.0
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            w = LinearProjection(w).weights  # rejects non-finite weights
            grad = np.zeros_like(w)
            batch_loss = 0.0
            for idx in batch:
                loss, cache = _forward(raws[idx], w, cfg.margin)
                if cache is not None:
                    batch_loss += loss
                    grad += _gradient(raws[idx], cache)
            if not np.isfinite(batch_loss):
                raise NonFiniteLoss(
                    f"non-finite loss at epoch {epoch + 1}, batch starting {start}"
                )
            epoch_loss += batch_loss
            w = w - cfg.learning_rate * (grad / len(batch))
        losses.append(epoch_loss / len(triplets))
    return TrainResult(projection=LinearProjection(w), epoch_losses=losses)
