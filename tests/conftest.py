import random
from datetime import datetime, timezone

import numpy as np
import pytest

from fbl.corpus import Document, Granularity
from fbl.diffs import Changeset, DiffLine, FileDiff, Hunk, LineKind
from fbl.encode import Vocabulary
from fbl.index import _doc_indices


def ts(day: int) -> datetime:
    return datetime(2020, 1, day, tzinfo=timezone.utc)


def make_hunk(lines, old_start=1, new_start=1) -> Hunk:
    """lines: sequence of (kind_char, text) with kind_char in '+- '."""
    kinds = {"+": LineKind.ADDED, "-": LineKind.REMOVED, " ": LineKind.CONTEXT}
    return Hunk(
        old_start=old_start,
        new_start=new_start,
        lines=tuple(DiffLine(kinds[k], t) for k, t in lines),
    )


def make_changeset(cs_id, file_hunks, log="", day=1) -> Changeset:
    """file_hunks: list of (path, [hunk, ...])."""
    return Changeset(
        changeset_id=cs_id,
        log_message=log,
        files=tuple(FileDiff(path=p, hunks=tuple(hs)) for p, hs in file_hunks),
        committed_at=ts(day),
    )


def hunk_doc(cs_id, hunk, file_idx=0, hunk_idx=0) -> Document:
    return Document(
        doc_id=f"{cs_id}:{file_idx}:{hunk_idx}",
        origin_changeset=cs_id,
        granularity=Granularity.HUNK,
        payload=hunk,
    )


def random_hunk(rng: random.Random, words=("alpha", "beta", "gamma", "delta")) -> Hunk:
    """A random hunk with at least one modified line."""
    n = rng.randint(1, 8)
    lines = []
    has_mod = False
    for _ in range(n):
        k = rng.choice("+- ")
        has_mod = has_mod or k in "+-"
        text = " ".join(rng.choice(words) for _ in range(rng.randint(0, 3)))
        lines.append((k, text))
    if not has_mod:
        lines.append(("+", rng.choice(words)))
    return make_hunk(lines)


@pytest.fixture
def tiny_vocab() -> Vocabulary:
    return Vocabulary.from_tokens(
        ["a", "b", "c", "d", "crash", "on", "save", "manager", "##servlet",
         "alpha", "beta", "gamma", "delta", "int", "x", "y", "=", "0", "1", ";"]
    )


# the four-line hunk used by the encoding golden tests:
#   context "a", added "b", added "c", removed "d"
@pytest.fixture
def golden_hunk() -> Hunk:
    return make_hunk([(" ", "a"), ("+", "b"), ("+", "c"), ("-", "d")])


# -- k-means references: the plain forms the kernels must equal bit for bit


def assign_nearest_reference(points, centroids):
    """The allocating form of assign_nearest that the in-place one replaced."""
    n = points.shape[0]
    labels = np.empty(n, dtype=np.int64)
    dists = np.empty(n, dtype=np.float64)
    c2 = np.einsum("kd,kd->k", centroids, centroids, dtype=np.float64)
    for s in range(0, n, 8192):
        e = min(n, s + 8192)
        block = points[s:e]
        d2 = c2[None, :] - 2.0 * (block @ centroids.T)
        d2 += np.einsum("nd,nd->n", block, block, dtype=np.float64)[:, None]
        lab = np.argmin(d2, axis=1)
        labels[s:e] = lab
        dists[s:e] = np.maximum(d2[np.arange(e - s), lab], 0.0)
    return labels, dists


def kmeans_pp_init_reference(pts, k, rng):
    """k-means++ seeding that updates every point's exact distance at every pick."""
    n = pts.shape[0]
    centroids = np.empty((k, pts.shape[1]), dtype=np.float64)
    centroids[0] = pts[int(rng.integers(n))]
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


# -- index inspection: an embedding id's document, partition and decoded vector


def partition(index, p):
    """(embedding ids, codes) views for one partition."""
    s, e = index.part_offsets[p], index.part_offsets[p + 1]
    return index.flat_ids[s:e], index.flat_codes[s:e]


def doc_of(index, embedding_id):
    """(doc id, row) of an embedding; the row counts the doc's packed rows."""
    embedding_id = int(embedding_id)
    doc = int(_doc_indices(index.doc_offsets, embedding_id))
    return index.doc_ids[doc], embedding_id - int(index.doc_offsets[doc])


def partition_of(index, embedding_id):
    flat_pos = int(np.nonzero(index.flat_ids == embedding_id)[0][0])
    return int(np.searchsorted(index.part_offsets, flat_pos, side="right") - 1)


def reconstruct(index, embedding_id):
    """Decode one embedding back to its approximate vector."""
    p = partition_of(index, embedding_id)
    code = index.flat_codes[int(np.nonzero(index.flat_ids == embedding_id)[0][0])]
    dsub = index.dim // index.n_subspaces
    out = index.coarse[p].copy()
    for s in range(index.n_subspaces):
        out[s * dsub : (s + 1) * dsub] += index.codebooks[s, code[s]]
    return out
