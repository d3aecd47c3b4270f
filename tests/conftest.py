import json
import random
import struct
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import strategies as st

from fbl import _kernels
from fbl.corpus import Document, Granularity
from fbl.diffs import Changeset, DiffLine, FileDiff, Hunk, LineKind
from fbl.embed import LinearProjection, PackedCorpus, _distinct_ids, gradient_of_loss
from fbl.encode import EncodedSequence, Vocabulary
from fbl.retrieve import rank_exact
from fbl.store import manifest_digest


def _doc_indices(doc_offsets, embedding_ids):
    """The document holding each embedding id (empty documents hold none)."""
    return np.searchsorted(doc_offsets, embedding_ids, side="right") - 1


def maxsim(query, doc) -> float:
    """The late-interaction score of one document, as ``rank_exact`` ranks it.

    A one-document pack: an unscorable document is left out of the ranking,
    which reads here as -inf.
    """
    entries = rank_exact(query, PackedCorpus.from_matrices({"only:0:0": doc})).entries
    return entries[0][1] if entries else float("-inf")


@st.composite
def repeated_row_docs(draw, dim=4):
    """(table, refs, offsets): documents whose rows are table[refs[offsets[i]:offsets[i+1]]].

    Rows repeat within and across documents, some table rows are zero and
    some are byte-equal copies of others, as a context-free embedder's
    dead and merged tokens make them.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_table = draw(st.integers(1, 9))
    table = rng.standard_normal((n_table, dim)).astype(np.float32)
    table /= np.linalg.norm(table, axis=1, keepdims=True)
    table[rng.random(n_table) < 0.2] = 0.0
    for a, b in draw(st.lists(st.tuples(st.integers(0, n_table - 1),
                                        st.integers(0, n_table - 1)), max_size=3)):
        table[a] = table[b]
    lengths = draw(st.lists(st.integers(0, 12), max_size=8))
    offsets = np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)
    return table, rng.integers(n_table, size=int(offsets[-1])), offsets


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


def reseal(data: dict) -> str:
    """An edited manifest's JSON with its digest taken again, so a load reaches the later checks."""
    return json.dumps({**data, "digest": manifest_digest(data)})


def write_unchecked_fble(path, matrix) -> None:
    """An FBLE file of matrix's float32 values, written without the writer's finiteness check."""
    arr = np.ascontiguousarray(matrix, dtype="<f4")
    path.write_bytes(b"FBLE" + struct.pack("<III", 1, *arr.shape) + arr.tobytes())


def decode(seq: EncodedSequence, vocab: Vocabulary) -> list[str]:
    """Surface forms of the sequence's tokens."""
    return [vocab.id_to_token[i] for i in seq.ids]


def render_unified_diff(cs: Changeset) -> str:
    """Serialize a Changeset back to git-style unified diff text.

    parse_unified_diff(render_unified_diff(cs), ...) reproduces the same
    file/hunk/line structure.
    """
    out: list[str] = []
    for fd in cs.files:
        out.append(f"diff --git a/{fd.path} b/{fd.path}")
        out.append(f"--- a/{fd.path}")
        out.append(f"+++ b/{fd.path}")
        for h in fd.hunks:
            old_count = sum(1 for dl in h.lines if dl.kind is not LineKind.ADDED)
            new_count = sum(1 for dl in h.lines if dl.kind is not LineKind.REMOVED)
            out.append(f"@@ -{h.old_start},{old_count} +{h.new_start},{new_count} @@")
            for dl in h.lines:
                out.append(dl.kind.value + dl.text)
    return "\n".join(out) + ("\n" if out else "")


@pytest.fixture(params=[1, 2, 3], ids=lambda n: f"{n}-workers")
def workers(request, monkeypatch):
    """The kernels on request.param workers."""
    monkeypatch.setattr(_kernels, "_WORKERS", request.param)
    return request.param


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


def kmeans_pp_init_reference(pts, k, rng, weights=None):
    """k-means++ seeding that measures each pick's distances with assign_nearest_reference.

    Later picks are drawn in proportion to weight * d2 (weight 1 without
    weights) by Generator.choice.
    """
    n = pts.shape[0]
    w = np.ones(n) if weights is None else weights
    centroids = np.empty((k, pts.shape[1]), dtype=np.float64)
    centroids[0] = pts[int(rng.integers(n))]
    d2 = assign_nearest_reference(pts, centroids[0:1])[1]
    for i in range(1, k):
        total = (w * d2).sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=w * d2 / total))
        centroids[i] = pts[idx]
        d2 = np.minimum(d2, assign_nearest_reference(pts, centroids[i : i + 1])[1])
    return centroids


# -- index inspection: an embedding id's document, partition and decoded vector


def _entry_of(index):
    """The inverted-list entry of every embedding id, through its table row."""
    entry = np.empty(index.rows.shape[0], dtype=np.int64)
    entry[index.rows] = np.arange(index.rows.shape[0])
    return entry[index.doc_refs]


def flat_codes(index):
    """(N, M): the code of every embedding id, its table row's."""
    return index.codes[_entry_of(index)]


def partition(index, p):
    """(embedding ids, codes) of one partition, one code per id, ids ascending."""
    entry = _entry_of(index)
    ids = np.flatnonzero((entry >= index.part_offsets[p]) & (entry < index.part_offsets[p + 1]))
    return ids, index.codes[entry[ids]]


def doc_of(index, embedding_id):
    """(doc id, row) of an embedding; the row counts the doc's packed rows."""
    embedding_id = int(embedding_id)
    doc = int(_doc_indices(index.doc_offsets, embedding_id))
    return index.doc_ids[doc], embedding_id - int(index.doc_offsets[doc])


def partition_of(index, embedding_id):
    entry = _entry_of(index)[int(embedding_id)]
    return int(np.searchsorted(index.part_offsets, entry, side="right") - 1)


def reconstruct(index, embedding_id):
    """Decode one embedding back to its approximate vector."""
    p = partition_of(index, embedding_id)
    code = flat_codes(index)[int(embedding_id)]
    dsub = index.dim // index.n_subspaces
    out = index.coarse[p].copy()
    for s in range(index.n_subspaces):
        out[s * dsub : (s + 1) * dsub] += index.codebooks[s, code[s]]
    return out


def _probed_entries(index, query_matrix, nprobe):
    """Per live query row, (score, table row) of every entry of its probed partitions.

    Probes, LUTs and the float64 sum of terms are candidate_docs's own, so
    the scores are its bits.
    """
    q_rows = np.asarray(query_matrix.rows, dtype=np.float32)
    q_rows = np.ascontiguousarray(q_rows[np.linalg.norm(q_rows, axis=1) > 0])
    coarse = (q_rows @ index.coarse.T).astype(np.float64)
    probes = np.sort(np.argpartition(-coarse, nprobe - 1, axis=1)[:, :nprobe], axis=1)
    m = index.n_subspaces
    dsub = index.dim // m
    offsets = index.part_offsets
    luts = [q_rows[:, s * dsub : (s + 1) * dsub] @ index.codebooks[s].T for s in range(m)]
    out = []
    for r in range(len(q_rows)):
        entries = []
        for p in probes[r]:
            c = index.codes[offsets[p] : offsets[p + 1]]
            score = luts[0][r, c[:, 0]].astype(np.float64)
            for s in range(1, m):
                score += luts[s][r, c[:, s]]
            score += coarse[r, p]
            entries += zip(score.tolist(), index.rows[offsets[p] : offsets[p + 1]].tolist())
        out.append(entries)
    return out


def _per_row(n_prime, total, n_rows):
    return total if n_prime is None or n_prime >= total else -(-n_prime // n_rows)


def candidate_docs_reference(index, query_matrix, n_prime, nprobe):
    """candidate_docs by the flat scan: every table row scored on its own.

    Each query row keeps every table row scoring at least its
    ceil(n_prime / rows)-th best (all of them when it scans no more), and a
    kept row brings in every document holding it. Returns the ascending
    positions of those documents.
    """
    rows = _probed_entries(index, query_matrix, nprobe)
    per_row = _per_row(n_prime, index.rows.shape[0], len(rows))
    hit = set()
    for entries in rows:
        best = sorted((score for score, _ in entries), reverse=True)
        cut = best[per_row - 1] if len(best) > per_row else -np.inf
        hit.update(t for score, t in entries if score >= cut)
    held = np.flatnonzero(np.isin(index.doc_refs, sorted(hit)))
    return np.unique(_doc_indices(index.doc_offsets, held)).astype(np.int64)


def candidate_docs_per_embedding(index, query_matrix, n_prime, nprobe):
    """Candidates when every embedding (pack row) counts against the budget.

    Each query row keeps its top ceil(n_prime / rows) embedding ids by
    (score desc, id asc), an id scoring as its table row. This is what
    candidate_docs gave while its lists held pack rows; on a pack without
    repeated rows, where each table row is one pack row, the two agree.
    """
    rows = _probed_entries(index, query_matrix, nprobe)
    per_row = _per_row(n_prime, index.n_embeddings, len(rows))
    ids_of = {}
    for e, t in enumerate(index.doc_refs.tolist()):
        ids_of.setdefault(t, []).append(e)
    hit = set()
    for entries in rows:
        hits = sorted((-score, e) for score, t in entries for e in ids_of.get(t, []))
        hit.update(e for _, e in hits[:per_row])
    held = np.asarray(sorted(hit), dtype=np.int64)
    return np.unique(_doc_indices(index.doc_offsets, held)).astype(np.int64)


# -- training references: the step and SGD rule training must equal bit for bit


def step_reference(raw, triplets, w, margin):
    """``embed._step`` as it was before it multiplied only the rows an open hinge touched.

    Every used row, touched or not, takes part in the gradient's GEMM, with
    a zero coefficient where no open hinge touched it.
    """
    used, local = _distinct_ids([r for t in triplets for r in t])
    y = raw[used] @ w
    norms = np.linalg.norm(y, axis=1)
    unit = y / np.where(norms > 0, norms, 1.0)[:, None]
    pieces = iter(local)
    loss, rows, terms = 0.0, [], []
    for q, pos, neg in zip(pieces, pieces, pieces):
        q = q[norms[q] > 0]
        uq, best = unit[q], []
        for d in (pos, neg):
            d = d[norms[d] > 0]
            sims = uq @ unit[d].T
            best.append((d[np.argmax(sims, axis=1)], sims.max(axis=1)) if d.size else None)
        s_pos, s_neg = (float("-inf") if b is None else float(b[1].sum()) for b in best)
        hinge = margin - s_pos + s_neg
        if hinge <= 0.0:
            continue
        loss += hinge
        for sign, pair in zip((-1.0, 1.0), best):
            if pair is not None:
                j, s = pair
                v = unit[j]
                rows += [q, j]
                terms.append(sign * (v - s[:, None] * uq) / norms[q, None])
                terms.append(sign * (uq - s[:, None] * v) / norms[j, None])
    coef = np.zeros_like(unit)
    if rows:
        np.add.at(coef, np.concatenate(rows), np.concatenate(terms))
    return loss, raw[used].T @ coef


def train_projection_reference(triplets, query_seqs, doc_seqs, embedder, cfg, d_out):
    """Trained weights of mini-batch SGD that adds every triplet's gradient.

    A closed hinge adds gradient_of_loss's zeros; the permutation stream and
    the update are train_projection's.
    """

    def raw(seq):
        return embedder.embed_ids(seq.ids)

    rng = np.random.default_rng(cfg.seed)
    w = LinearProjection.seeded_init(embedder.d_in, d_out, cfg.seed).weights
    for _ in range(cfg.epochs):
        order = rng.permutation(len(triplets))
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            grad = np.zeros_like(w)
            for idx in batch:
                t = triplets[idx]
                q, pos, neg = (raw(query_seqs[t.bug_id]), raw(doc_seqs[t.positive_doc]),
                               raw(doc_seqs[t.negative_doc]))
                grad += gradient_of_loss(q, pos, neg, LinearProjection(w), cfg.margin)
            w = w - cfg.learning_rate * (grad / len(batch))
    return w
