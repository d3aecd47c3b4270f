"""Late-interaction scoring and the two-stage retrieval pipeline.

``rank_exact`` brute-forces the late-interaction score against every
document and is the correctness oracle. ``rank_two_stage`` first narrows
the corpus to candidates via the IVFPQ index, then re-scores only those
with the exact operator; with exhaustive settings (nprobe = partitions,
unbounded candidates) it reproduces the exact ranking bit for bit, since
both paths score a document with the same kernel and sort by the same
total order (score descending, doc_id ascending).

Both ranking entry points take a ``PackedCorpus``, what a loaded session
holds, so a query makes no call into the packer.

Documents that are empty after truncation score -inf and are excluded
from rankings rather than ranked last: they are unscorable, not
dissimilar. Likewise a query without a non-zero row ranks nothing on
either path: no document can be scored against it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import IO

import numpy as np

from . import _kernels
from .corpus import changeset_of_doc
from .embed import EmbeddingMatrix, PackedCorpus
from .index import IvfPqIndex, candidate_docs


@dataclass
class RankedResult:
    bug_id: str
    entries: list[tuple[str, float]]  # (doc_id, score), score non-increasing


def _rank_positions(
    query: EmbeddingMatrix, pack: PackedCorpus, positions: np.ndarray, k: int
) -> list[tuple[str, float]]:
    """Score the documents at the given pack positions; return the top ``k``, sorted.

    A score does not depend on which other positions are scored with it, so
    re-scored candidates equal the exhaustive scan bit for bit. Only the
    first ``k`` of the sorted order become entries.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if positions.size == 0:
        return []
    q_rows = np.ascontiguousarray(np.asarray(query.rows, dtype=np.float32))
    scores = _kernels.maxsim_packed(
        q_rows, pack.table, pack.refs, pack.offsets[positions], pack.offsets[positions + 1]
    )
    finite = np.nonzero(np.isfinite(scores))[0]
    order = finite[np.lexsort((pack.id_rank[positions[finite]], -scores[finite]))[:k]]
    return [(pack.ids[positions[i]], float(scores[i])) for i in order]


def rank_exact(
    query: EmbeddingMatrix,
    pack: PackedCorpus,
    bug_id: str = "",
    k: int | None = None,
) -> RankedResult:
    """Score every document and keep the top ``k`` (every scorable one when None).

    This is the oracle the two-stage path is checked against.
    """
    if len(pack) == 0:
        raise ValueError("at least one document is required")
    # no document is scored against a query without a non-zero row, as candidate_docs
    # drops zero rows; beside live ones they stay, as the product's bits depend on them
    q_rows = np.asarray(query.rows, dtype=np.float32)
    live = np.einsum("ij,ij->i", q_rows, q_rows).any()
    positions = np.arange(len(pack) if live else 0, dtype=np.int64)
    entries = _rank_positions(query, pack, positions, len(pack) if k is None else k)
    return RankedResult(bug_id=bug_id, entries=entries)


def rank_two_stage(
    query: EmbeddingMatrix,
    index: IvfPqIndex,
    pack: PackedCorpus,
    n_prime: int | None,
    nprobe: int,
    k: int,
    bug_id: str = "",
) -> RankedResult:
    """ANN candidate generation followed by exact re-scoring of candidates.

    Candidates are positions in the index's document table, found through
    its refs, so ``pack`` must hold the documents the index was built from,
    in the same order and with the same refs.
    """
    pieces = zip((pack.refs, pack.offsets, pack.ids),
                 (index.doc_refs, index.doc_offsets, index.doc_ids))
    if not all(ours is theirs or np.array_equal(ours, theirs) for ours, theirs in pieces):
        raise ValueError("the documents differ from those the index was built from")
    entries = _rank_positions(query, pack, candidate_docs(index, query, n_prime, nprobe), k)
    return RankedResult(bug_id=bug_id, entries=entries)


def aggregate_to_changeset(result: RankedResult) -> RankedResult:
    """Collapse document-level entries to changeset level, each at its best document."""
    scores: dict[str, float] = {}
    for doc_id, score in result.entries:
        cs = changeset_of_doc(doc_id)
        scores[cs] = max(scores.get(cs, score), score)
    entries = sorted(scores.items(), key=lambda e: (-e[1], e[0]))
    return RankedResult(bug_id=result.bug_id, entries=entries)


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


def write_trec(result: RankedResult, fh: IO[str]) -> None:
    for rank, (doc_id, score) in enumerate(result.entries, start=1):
        fh.write(f"{result.bug_id} Q0 {doc_id} {rank} {score:.6f} fbl\n")
