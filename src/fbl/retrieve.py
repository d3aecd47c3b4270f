"""Late-interaction scoring and the two-stage retrieval pipeline.

``rank_exact`` brute-forces the late-interaction score against every
document and is the correctness oracle. ``rank_two_stage`` first narrows
the corpus to candidates via the IVFPQ index, then re-scores only those
with the exact operator; with exhaustive settings (nprobe = partitions,
unbounded candidates) it reproduces the exact ranking bit for bit, since
both paths score a document with the same kernel and sort by the same
total order (score descending, doc_id ascending).

Both ranking entry points accept either a mapping of document matrices or
a prebuilt ``PackedCorpus``; sessions serving many queries should pack
once and reuse.

Documents that are empty after truncation score -inf and are excluded
from rankings rather than ranked last: they are unscorable, not
dissimilar.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import IO, Mapping, Sequence

import numpy as np

from . import _kernels
from .corpus import changeset_of_doc
from .embed import EmbeddingMatrix
from .index import IvfPqIndex, candidate_docs


class RankMode(enum.Enum):
    EXACT = "exact"
    TWO_STAGE = "two_stage"


@dataclass
class RankedResult:
    bug_id: str
    entries: list[tuple[str, float]]  # (doc_id, score), score non-increasing
    mode: RankMode


def _doc_rows(mat: EmbeddingMatrix | np.ndarray) -> np.ndarray:
    rows = mat.rows if isinstance(mat, EmbeddingMatrix) else np.asarray(mat)
    rows = np.asarray(rows, dtype=np.float32)
    keep = np.linalg.norm(rows, axis=1) > 0
    return rows if keep.all() else rows[keep]


@dataclass
class PackedCorpus:
    """Documents packed into one contiguous row block for the scoring kernel.

    Zero rows are dropped at pack time so the kernel never needs a mask;
    id_rank caches the lexicographic rank of each doc_id for fast
    tie-break sorting.
    """

    rows: np.ndarray  # (N, d) float32, contiguous
    offsets: np.ndarray  # (ndocs + 1,) int64
    ids: list[str]
    id_rank: np.ndarray = field(default=None)  # (ndocs,) int64
    _pos: dict[str, int] = field(default=None, repr=False)

    def __post_init__(self):
        if self.id_rank is None:
            self.id_rank = np.empty(len(self.ids), dtype=np.int64)
            order = sorted(range(len(self.ids)), key=lambda i: self.ids[i])
            self.id_rank[order] = np.arange(len(self.ids))
        if self._pos is None:
            self._pos = {doc_id: i for i, doc_id in enumerate(self.ids)}

    @classmethod
    def from_matrices(cls, matrices: Mapping[str, EmbeddingMatrix]) -> "PackedCorpus":
        blocks = []
        offsets = [0]
        ids = []
        for doc_id, mat in matrices.items():
            rows = _doc_rows(mat)
            blocks.append(rows)
            offsets.append(offsets[-1] + rows.shape[0])
            ids.append(doc_id)
        rows = np.concatenate(blocks) if blocks else np.zeros((0, 1), dtype=np.float32)
        return cls(
            rows=np.ascontiguousarray(rows, dtype=np.float32),
            offsets=np.asarray(offsets, dtype=np.int64),
            ids=ids,
        )

    def __len__(self) -> int:
        return len(self.ids)

    def positions(self, doc_ids: Sequence[str]) -> np.ndarray:
        """Pack positions of the given documents (unknown ids dropped)."""
        out = [self._pos[d] for d in doc_ids if d in self._pos]
        return np.asarray(out, dtype=np.int64)


def _as_pack(docs: Mapping[str, EmbeddingMatrix] | PackedCorpus) -> PackedCorpus:
    if isinstance(docs, PackedCorpus):
        return docs
    return PackedCorpus.from_matrices(docs)


def maxsim(q: EmbeddingMatrix, d: EmbeddingMatrix) -> float:
    """Sum over query rows of the max inner product against document rows.

    Unit rows make the inner product a cosine. Returns -inf for a
    document with no scorable rows.
    """
    q_rows = np.ascontiguousarray(np.asarray(q.rows, dtype=np.float32))
    d_rows = _doc_rows(d)
    offsets = np.asarray([0, d_rows.shape[0]], dtype=np.int64)
    return float(_kernels.maxsim_packed(q_rows, np.ascontiguousarray(d_rows), offsets)[0])


def _rank_positions(
    query: EmbeddingMatrix, pack: PackedCorpus, positions: np.ndarray
) -> list[tuple[str, float]]:
    """Score the documents at the given pack positions and sort the result.

    Candidate rows are gathered into a contiguous block before scoring
    (sequential scans beat scattered ones); the copy preserves row values,
    so re-scored candidates stay bitwise equal to the exhaustive scan.
    """
    if positions.size == 0:
        return []
    q_rows = np.ascontiguousarray(np.asarray(query.rows, dtype=np.float32))
    if positions.shape[0] == len(pack.ids) and np.array_equal(
        positions, np.arange(len(pack.ids))
    ):
        scores = _kernels.maxsim_packed(q_rows, pack.rows, pack.offsets)
    else:
        starts = pack.offsets[positions]
        ends = pack.offsets[positions + 1]
        offsets = np.zeros(positions.shape[0] + 1, dtype=np.int64)
        np.cumsum(ends - starts, out=offsets[1:])
        rows = np.take(pack.rows, _kernels.concat_ranges(starts, ends), axis=0)
        scores = _kernels.maxsim_packed(q_rows, rows, offsets)
    finite = np.nonzero(np.isfinite(scores))[0]
    order = finite[np.lexsort((pack.id_rank[positions[finite]], -scores[finite]))]
    return [(pack.ids[positions[i]], float(scores[i])) for i in order]


def rank_exact(
    query: EmbeddingMatrix,
    docs: Mapping[str, EmbeddingMatrix] | PackedCorpus,
    bug_id: str = "",
) -> RankedResult:
    """Score every document; the oracle the two-stage path is checked against."""
    pack = _as_pack(docs)
    if len(pack) == 0:
        raise ValueError("at least one document is required")
    entries = _rank_positions(query, pack, np.arange(len(pack), dtype=np.int64))
    return RankedResult(bug_id=bug_id, entries=entries, mode=RankMode.EXACT)


def rank_two_stage(
    query: EmbeddingMatrix,
    index: IvfPqIndex,
    docs: Mapping[str, EmbeddingMatrix] | PackedCorpus,
    n_prime: int | None,
    nprobe: int,
    k: int,
    bug_id: str = "",
) -> RankedResult:
    """ANN candidate generation followed by exact re-scoring of candidates."""
    pack = _as_pack(docs)
    cands = candidate_docs(index, query, n_prime, nprobe)
    positions = np.sort(pack.positions(cands))  # ascending = prefetch-friendly gather
    entries = _rank_positions(query, pack, positions)[:k]
    return RankedResult(bug_id=bug_id, entries=entries, mode=RankMode.TWO_STAGE)


def aggregate_to_changeset(result: RankedResult, how: str = "max") -> RankedResult:
    """Collapse document-level entries to changeset level (max, or sum)."""
    if how not in ("max", "sum"):
        raise ValueError("aggregation must be 'max' or 'sum'")
    scores: dict[str, float] = {}
    for doc_id, score in result.entries:
        cs = changeset_of_doc(doc_id)
        if cs not in scores:
            scores[cs] = score
        elif how == "max":
            scores[cs] = max(scores[cs], score)
        else:
            scores[cs] += score
    entries = sorted(scores.items(), key=lambda e: (-e[1], e[0]))
    return RankedResult(bug_id=result.bug_id, entries=entries, mode=result.mode)


# -- result emission ------------------------------------------------------------


def write_jsonl(result: RankedResult, fh: IO[str]) -> None:
    for rank, (doc_id, score) in enumerate(result.entries, start=1):
        fh.write(
            json.dumps(
                {
                    "bug_id": result.bug_id,
                    "rank": rank,
                    "doc_id": doc_id,
                    "changeset_id": changeset_of_doc(doc_id),
                    "score": score,
                },
                sort_keys=True,
            )
            + "\n"
        )


def write_trec(result: RankedResult, fh: IO[str], tag: str = "fbl") -> None:
    for rank, (doc_id, score) in enumerate(result.entries, start=1):
        fh.write(f"{result.bug_id} Q0 {doc_id} {rank} {score:.6f} {tag}\n")
