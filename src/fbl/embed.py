"""Token embedders, the trainable projection, and triplet-margin training.

An encoded sequence becomes a matrix of unit-norm vectors: each token id
is mapped to a raw vector by a pluggable embedder, pushed through a linear
projection (d_in -> d_out), and L2-normalized per row. Raw vectors that are
exactly zero stay zero after projection and are excluded from
late-interaction maxima.

A projection computes each token's row once: it keeps a memo of float32
unit rows per embedder, which ``embed_distinct`` fills one batch of missing
ids at a time. Its weights and a file embedder's table are read-only, so the
memo cannot go stale. Documents are embedded as one table, which
``PackedCorpus.from_table``, the only code that packs, stores with every
document's refs into it. A query gathers its rows from the memo: over one
pass of project_cli's 140 bugs, 90.6 % of query tokens were already there.

The projection is trained with a margin loss over triplets
(query, positive doc, negative doc):

    loss = max(0, margin - score(q, pos) + score(q, neg))

with score the late-interaction sum of per-query-row maxima. Training is
plain mini-batch SGD over a table holding each distinct token's raw row
once. A step projects and normalises only the rows its triplets use, and
computes the analytic gradient (including the row normalization Jacobian)
only where a hinge is open: it sums each row's Jacobian coefficients and
multiplies them by the raw rows an open hinge touched in one GEMM (on
project_cli a median of 79 of a step's 281 rows). ``loss_from_raw`` and
``gradient_of_loss`` run the same step on one triplet, so the gradient can
be checked against finite differences. An epoch's loss is the mean of the
losses its steps computed. Gradient and loss math run in float64; stored
matrices are float32.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Protocol, Sequence

import numpy as np

from .corpus import Triplet
from .encode import EncodedSequence
from .errors import DimensionMismatch, FieldError, NonFiniteLoss


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
    is its embedding id. The index lists the table's rows and borrows the
    refs, offsets and ids, ``docs.fblp`` stores the pack, and the scoring
    kernel reads it.
    Packing drops zero rows and keeps each table row at most once per
    document. Looking up a document gathers its rows.
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
    def from_table(
        cls, table: np.ndarray, refs: np.ndarray, offsets: np.ndarray, ids: Sequence[str]
    ) -> "PackedCorpus":
        """Pack documents whose rows are table[refs[offsets[i]:offsets[i+1]]].

        A document is a set of rows: zero rows are dropped, a row whose
        squared norm is not finite raises ValueError, byte-equal table
        rows merge, and each document keeps one ref per row it uses, in
        order of first appearance (its score is a sum of maxima, which a
        repeated row cannot change). The packed table holds the rows used,
        in order of first appearance. Without repeats across documents the
        table is the rows, uncopied when already in that order.
        """
        table = np.ascontiguousarray(table, dtype=np.float32)
        refs = np.asarray(refs, dtype=np.int64)
        keys = table.view(np.dtype((np.void, table.dtype.itemsize * table.shape[1]))).ravel()
        same = np.unique(keys, return_inverse=True)[1]  # table row -> its bytes' class
        doc = np.repeat(np.arange(offsets.shape[0] - 1), np.diff(offsets))
        norms = np.einsum("ij,ij->i", table, table)[refs]
        bad = np.flatnonzero(~np.isfinite(norms))
        if bad.size:  # NaN, inf, or a norm whose square overflows float32
            raise ValueError(f"table row {refs[bad[0]]} has a squared norm that is not finite")
        live = np.flatnonzero(norms > 0)  # zero rows drop
        pairs = doc[live] * table.shape[0] + same[refs[live]]  # one key per (document, class)
        live = live[np.sort(np.unique(pairs, return_index=True)[1])]  # each pair's first ref
        offsets, refs = np.searchsorted(live, offsets), refs[live]
        _, first, inverse = np.unique(same[refs], return_index=True, return_inverse=True)
        if first.shape[0] == refs.shape[0]:  # no row repeats
            rows = table if np.array_equal(refs, np.arange(table.shape[0])) else table[refs]
            return cls(rows, np.arange(refs.shape[0], dtype=np.uint32), offsets, ids)
        order = np.argsort(first)  # np.unique orders by class
        table = table[refs[first[order]]]
        return cls(table, np.argsort(order).astype(np.uint32)[inverse], offsets, ids)

    @classmethod
    def from_matrices(cls, matrices: Mapping[str, EmbeddingMatrix]) -> "PackedCorpus":
        """Pack document matrices (or raw row arrays) as their own table; a pack passes through."""
        if isinstance(matrices, PackedCorpus):
            return matrices
        blocks = [
            np.asarray(m.rows if isinstance(m, EmbeddingMatrix) else m, dtype=np.float32)
            for m in matrices.values()
        ]
        rows = np.concatenate(blocks) if blocks else np.zeros((0, 1), dtype=np.float32)
        offsets = np.cumsum([0] + [b.shape[0] for b in blocks], dtype=np.int64)
        return cls.from_table(rows, np.arange(rows.shape[0]), offsets, matrices.keys())

    def prefix(self, n_docs: int) -> "PackedCorpus":
        """The first ``n_docs`` documents, as views: the table's first rows are theirs."""
        n = int(self.offsets[n_docs])
        t = int(self.refs[:n].max()) + 1 if n else 0
        return PackedCorpus(self.table[:t], self.refs[:n], self.offsets[: n_docs + 1],
                            self.ids[:n_docs])

    def __getitem__(self, doc_id: str) -> EmbeddingMatrix:
        i = self._pos[doc_id]
        return EmbeddingMatrix(rows=self.table[self.refs[self.offsets[i] : self.offsets[i + 1]]])

    def __iter__(self):
        return iter(self.ids)

    def __len__(self) -> int:
        return len(self.ids)


class TokenEmbedder(Protocol):
    """Raw token vectors; row i of ``embed_ids(ids)`` depends only on ids[i] (context-free)."""

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

    def embed_ids(self, ids: Sequence[int]) -> np.ndarray:
        rows = np.zeros((len(ids), self.d_in))
        for r, token_id in enumerate(ids):
            rng = np.random.default_rng(np.random.SeedSequence((self.seed, token_id)))
            vec = rng.standard_normal(self.d_in)
            rows[r] = vec / np.linalg.norm(vec)
        return rows


def _read_only(given, arr: np.ndarray) -> np.ndarray:
    """``arr`` made read-only: a copy where freezing it would freeze the caller's array."""
    if arr.flags.writeable and (arr is given or not arr.flags.owndata):
        arr = arr.copy()
    arr.flags.writeable = False
    return arr


class FileEmbedder:
    """Static token-id-indexed matrix loaded from an FBLE file.

    A float16, float32 or float64 table is kept as given (read-only); any
    other is widened to float64 once. ``embed_ids`` widens only the rows it
    gathers, which float16 and float32 hold exactly in float64.
    """

    def __init__(self, matrix: np.ndarray):
        arr = np.asarray(matrix)
        if arr.dtype not in (np.float16, np.float32, np.float64):
            # a signalling NaN warns when cast; the finiteness check below rejects it
            with np.errstate(invalid="ignore"):
                arr = arr.astype(np.float64)
        self.matrix = _read_only(matrix, arr)
        bad = np.nonzero(~np.isfinite(self.matrix).all(axis=1))[0]
        if bad.size:
            raise ValueError(f"row {bad[0]} of the token table is not finite")
        self.d_in = self.matrix.shape[1]

    def embed_ids(self, ids: Sequence[int]) -> np.ndarray:
        arr = np.asarray(ids, dtype=np.int64)
        if arr.size and (arr.min() < 0 or arr.max() >= self.matrix.shape[0]):
            raise ValueError(
                f"token id out of embedder range [0, {self.matrix.shape[0]})"
            )
        return self.matrix[arr].astype(np.float64, copy=False)


@dataclass
class LinearProjection:
    weights: np.ndarray  # (d_in, d_out) float64, read-only
    # {id(embedder): (embedder, {token id: row}, float32 unit rows)}; holding it keeps its id
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        # a signalling NaN warns when cast; the finiteness check below rejects it
        with np.errstate(invalid="ignore"):
            self.weights = _read_only(self.weights, np.asarray(self.weights, dtype=np.float64))
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


@dataclass
class TripletTrainConfig:
    margin: float = 0.5
    learning_rate: float = 1e-3
    epochs: int = 4
    batch_size: int = 16
    seed: int = 42

    def __post_init__(self):
        for name in ("margin", "learning_rate"):
            if not (np.isfinite(getattr(self, name)) and getattr(self, name) > 0):
                raise FieldError(name, "must be finite and > 0")
        for name, least in (("epochs", 0), ("batch_size", 1)):
            if getattr(self, name) < least:
                raise FieldError(name, f"must be >= {least}, got {getattr(self, name)}")


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
    """Unit-norm rows for every token of the sequence, gathered from the projection's memo."""
    table, (refs,) = embed_distinct([seq.ids], embedder, projection)
    return EmbeddingMatrix(rows=table[refs], is_query=is_query)


def _distinct_ids(seqs: Sequence[Sequence[int]]) -> tuple[list[int], list[np.ndarray]]:
    """(ids, refs): the distinct ids, ascending, and each sequence as indices into them."""
    lengths = [len(s) for s in seqs]
    flat = np.concatenate([np.asarray(s, dtype=np.int64) for s in seqs] + [np.zeros(0, np.int64)])
    ids, inverse = np.unique(flat, return_inverse=True)
    ends = np.cumsum(lengths).tolist()
    return ids.tolist(), [inverse[end - n : end] for n, end in zip(lengths, ends)]


def embed_distinct(
    seqs: Sequence[Sequence[int]], embedder: TokenEmbedder, projection: LinearProjection
) -> tuple[np.ndarray, list[np.ndarray]]:
    """(table, refs): each distinct id's float32 unit row, and each sequence's rows.

    Row r of sequence i is table[refs[i][r]]. The rows come from the
    projection's memo for this embedder, which runs ``embed_ids``, one GEMM
    and one normalisation on only the distinct ids it lacks, ascending. The
    tests check that a row's float32 bits do not depend on its GEMM's batch.
    """
    if embedder.d_in != projection.d_in:
        raise DimensionMismatch(
            f"embedder d_in={embedder.d_in} != projection d_in={projection.d_in}")
    ids, refs = _distinct_ids(seqs)
    _, row_of, rows = projection._memo.get(
        id(embedder), (embedder, {}, np.zeros((0, projection.d_out), np.float32)))
    missing = [i for i in ids if i not in row_of]
    if missing:
        new = _normalize_rows(embedder.embed_ids(missing) @ projection.weights)
        rows = np.concatenate([rows, new.astype(np.float32)])
        row_of.update(zip(missing, range(len(row_of), rows.shape[0])))
        projection._memo[id(embedder)] = (embedder, row_of, rows)
    return rows[[row_of[i] for i in ids]], refs


# -- loss and gradient ---------------------------------------------------------


def _step(raw: np.ndarray, triplets, w: np.ndarray, margin: float) -> tuple[float, np.ndarray]:
    """Summed loss and d(loss)/dW of triplets whose rows index one raw table.

    Each triplet is (query, positive, negative) index arrays into ``raw``.
    The rows the triplets use are projected and normalised once, and each
    triplet scores from those unit rows; an unscorable document (no non-zero
    row) scores -inf. A hinge at most 0 adds nothing. Any other hinge, NaN
    included, adds its loss and, per used row, the coefficients of each
    score's best-matching pairs (each query row's best doc row, ties to the
    lowest index) through the row normalisation Jacobian. The coefficients
    add, in pair order, into the distinct rows an open hinge touched, and one
    GEMM of those rows' raw vectors and their sums gives the gradient: a row
    no open hinge touched adds only zeros.
    """
    used, local = _distinct_ids([r for t in triplets for r in t])
    y = raw[used] @ w
    norms = np.linalg.norm(y, axis=1)
    live = norms > 0
    unit = y / np.where(live, norms, 1.0)[:, None]
    pieces = iter(local)
    loss, rows, partners, maxima, signs = 0.0, [], [], [], []
    for q, pos, neg in zip(pieces, pieces, pieces):
        q = q[live[q]]
        uq, best = unit[q], []
        for d in (pos, neg):
            d = d[live[d]]
            sims = uq @ unit[d].T
            best.append((d[np.argmax(sims, axis=1)], sims.max(axis=1)) if d.size else None)
        s_pos, s_neg = (float("-inf") if b is None else float(b[1].sum()) for b in best)
        hinge = margin - s_pos + s_neg
        if hinge <= 0.0:
            continue
        loss += hinge
        for sign, pair in zip((-1.0, 1.0), best):
            if pair is not None:  # each pair moves its query rows, then its best doc rows
                j, s = pair
                rows += [q, j]
                partners += [j, q]
                maxima += [s, s]
                signs.append(np.full(2 * q.shape[0], sign))
    if not rows:
        return loss, np.zeros_like(w)
    a, b, s = np.concatenate(rows), np.concatenate(partners), np.concatenate(maxima)[:, None]
    terms = np.concatenate(signs)[:, None] * (unit[b] - s * unit[a]) / norms[a, None]
    touched, slot = np.unique(a, return_inverse=True)
    coef = np.zeros((touched.shape[0], unit.shape[1]))
    # a flat add.at is faster than a row-wise one, and adds each element's terms in
    # the same order
    cols = np.arange(unit.shape[1])
    np.add.at(coef.ravel(), (slot[:, None] * unit.shape[1] + cols).ravel(), terms.ravel())
    return loss, raw[np.asarray(used)[touched]].T @ coef


def _one_triplet(*mats: np.ndarray):
    """(raw, [triplet]): three raw matrices as one table and the triplet of its rows."""
    ends = np.cumsum([m.shape[0] for m in mats]).tolist()
    return np.concatenate(mats), [tuple(np.arange(e - m.shape[0], e) for m, e in zip(mats, ends))]


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
    return _step(*_one_triplet(q_raw, pos_raw, neg_raw), projection.weights, margin)[1]


def loss_from_raw(
    q_raw: np.ndarray,
    pos_raw: np.ndarray,
    neg_raw: np.ndarray,
    projection: LinearProjection,
    margin: float,
) -> float:
    """Triplet loss computed from raw matrices; the target of gradient_of_loss."""
    return _step(*_one_triplet(q_raw, pos_raw, neg_raw), projection.weights, margin)[0]


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

    The raw table holds each distinct token id of the triplets' texts once,
    and every step runs on the rows its triplets use. A triplet whose hinge
    is closed adds neither loss nor gradient.
    """
    if not triplets:
        raise ValueError("at least one triplet is required")
    bugs = list(dict.fromkeys(t.bug_id for t in triplets))
    docs = list(dict.fromkeys(d for t in triplets for d in (t.positive_doc, t.negative_doc)))
    seqs = [query_seqs[b] for b in bugs] + [doc_seqs[d] for d in docs]
    ids, refs = _distinct_ids([s.ids for s in seqs])
    raw = embedder.embed_ids(ids)
    q_refs, d_refs = dict(zip(bugs, refs)), dict(zip(docs, refs[len(bugs) :]))
    rows = [(q_refs[t.bug_id], d_refs[t.positive_doc], d_refs[t.negative_doc]) for t in triplets]

    rng = np.random.default_rng(cfg.seed)
    w = LinearProjection.seeded_init(embedder.d_in, d_out, cfg.seed).weights
    losses = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(triplets))
        epoch_loss = 0.0
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            batch_loss, grad = _step(raw, [rows[i] for i in batch], w, cfg.margin)
            if not np.isfinite(batch_loss):
                raise NonFiniteLoss(
                    f"non-finite loss at epoch {epoch + 1}, batch starting {start}"
                )
            epoch_loss += batch_loss
            w = w - cfg.learning_rate * (grad / len(batch))
            w.flags.writeable = False  # so LinearProjection(w) keeps w uncopied
            # the loss does not see w's scale, so a large step grows w unnoticed
            with np.errstate(over="ignore", invalid="ignore"):
                if not np.isfinite(w.astype(np.float32)).all():
                    raise NonFiniteLoss(f"weights beyond float32 at epoch {epoch + 1}, "
                                        f"batch starting {start}: the learning rate is too large")
        losses.append(epoch_loss / len(triplets))
    return TrainResult(projection=LinearProjection(w), epoch_losses=losses)
