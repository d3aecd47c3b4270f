import io
import json
import math
import random

import numpy as np
import pytest

from conftest import maxsim
from fbl.embed import EmbeddingMatrix, PackedCorpus
from fbl.index import build_index, candidate_docs
from fbl.pipeline import Config, run_query
from fbl.retrieve import (
    RankedResult,
    _rank_positions,
    aggregate_to_changeset,
    rank_exact,
    rank_two_stage,
    write_jsonl,
    write_trec,
)


def _unit_rows(arr) -> np.ndarray:
    arr = np.asarray(arr, dtype=np.float32)
    norms = np.linalg.norm(arr, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return arr / norms


def _q(arr):
    return EmbeddingMatrix(rows=np.asarray(arr, dtype=np.float32), is_query=True)


def _d(arr):
    return EmbeddingMatrix(rows=np.asarray(arr, dtype=np.float32))


_pack = PackedCorpus.from_matrices


E = np.eye(4, dtype=np.float32)


def test_maxsim_self_similarity():
    v = _unit_rows(np.array([[0.3, 0.4, 0.5, 0.1]]))
    assert maxsim(_q(v), _d(v)) == pytest.approx(1.0, abs=1e-6)


def test_maxsim_orthonormal_pair():
    # q = {e1, e2}, d = {e1} -> 1.0 + 0.0 = 1.0
    assert maxsim(_q(E[:2]), _d(E[:1])) == pytest.approx(1.0, abs=1e-7)


def test_maxsim_hand_mixture():
    # q = {e1}, d = {0.6 e1 + 0.8 e2, e2} -> max(0.6, 0.0) = 0.6
    d = np.stack([0.6 * E[0] + 0.8 * E[1], E[1]])
    assert maxsim(_q(E[:1]), _d(d)) == pytest.approx(0.6, abs=1e-7)


def test_maxsim_empty_document_is_minus_inf():
    assert maxsim(_q(E[:1]), _d(np.zeros((0, 4)))) == -math.inf
    assert maxsim(_q(E[:1]), _d(np.zeros((3, 4)))) == -math.inf


def test_maxsim_zero_doc_rows_excluded_from_maxima():
    # one real doc row anti-aligned with q; a zero row must not lift max to 0
    d = np.stack([-E[0], np.zeros(4, dtype=np.float32)])
    assert maxsim(_q(E[:1]), _d(d)) == pytest.approx(-1.0, abs=1e-7)


def test_maxsim_bounds_and_permutation_duplication_invariance():
    rng = np.random.default_rng(0)
    for _ in range(30):
        q = _unit_rows(rng.standard_normal((rng.integers(1, 6), 4)))
        d = _unit_rows(rng.standard_normal((rng.integers(1, 6), 4)))
        s = maxsim(_q(q), _d(d))
        assert -q.shape[0] - 1e-6 <= s <= q.shape[0] + 1e-6
        perm = d[rng.permutation(d.shape[0])]
        assert maxsim(_q(q), _d(perm)) == pytest.approx(s, abs=1e-6)
        dup = np.vstack([d, d[:1]])
        assert maxsim(_q(q), _d(dup)) == pytest.approx(s, abs=1e-6)


def test_maxsim_monotone_in_document_rows():
    rng = np.random.default_rng(1)
    for _ in range(30):
        q = _unit_rows(rng.standard_normal((3, 4)))
        d = _unit_rows(rng.standard_normal((3, 4)))
        extra = _unit_rows(rng.standard_normal((2, 4)))
        s1 = maxsim(_q(q), _d(d))
        s2 = maxsim(_q(q), _d(np.vstack([d, extra])))
        assert s2 >= s1 - 1e-6


def test_maxsim_equals_row_count_iff_exact_duplicates():
    q = E[:2]
    assert maxsim(_q(q), _d(E[:2])) == pytest.approx(2.0, abs=1e-7)
    d = np.stack([E[0], _unit_rows(np.array([[0.9, 0.1, 0, 0]]))[0]])
    assert maxsim(_q(q), _d(d)) < 2.0 - 1e-4


def test_rank_exact_single_doc():
    res = rank_exact(_q(E[:1]), _pack({"only:0:0": _d(E[:1])}))
    assert len(res.entries) == 1
    assert res.entries[0][0] == "only:0:0"


def test_rank_exact_tie_breaks_by_doc_id():
    docs = {"bbb:0:0": _d(E[:1]), "aaa:0:0": _d(E[:1].copy())}
    res = rank_exact(_q(E[:1]), _pack(docs))
    assert [e[0] for e in res.entries] == ["aaa:0:0", "bbb:0:0"]


def test_rank_exact_five_doc_hand_fixture():
    # hand-computed scores for q = {e1, e2}:
    #   d1 = {e1, e2}      -> 1 + 1 = 2
    #   d2 = {e1}          -> 1 + 0 = 1
    #   d3 = {0.6e1+0.8e2} -> 0.6 + 0.8 = 1.4
    #   d4 = {-e1}         -> -1 + 0 = -1   (single row, both maxima against it)
    #   d5 = {e3}          -> 0 + 0 = 0
    docs = {
        "d1": _d(E[:2]),
        "d2": _d(E[:1]),
        "d3": _d(np.stack([0.6 * E[0] + 0.8 * E[1]])),
        "d4": _d(np.stack([-E[0]])),
        "d5": _d(E[2:3]),
    }
    res = rank_exact(_q(E[:2]), _pack(docs))
    assert [e[0] for e in res.entries] == ["d1", "d3", "d2", "d5", "d4"]
    scores = dict(res.entries)
    assert scores["d1"] == pytest.approx(2.0, abs=1e-6)
    assert scores["d3"] == pytest.approx(1.4, abs=1e-6)
    assert scores["d2"] == pytest.approx(1.0, abs=1e-6)
    assert scores["d5"] == pytest.approx(0.0, abs=1e-6)
    assert scores["d4"] == pytest.approx(-1.0, abs=1e-6)


def test_rank_exact_excludes_empty_documents():
    docs = {"real": _d(E[:1]), "empty": _d(np.zeros((2, 4)))}
    res = rank_exact(_q(E[:1]), _pack(docs))
    assert [e[0] for e in res.entries] == ["real"]


def _clustered_corpus(rng, n_docs=60, dim=16):
    centers = _unit_rows(rng.standard_normal((8, dim)))
    docs = {}
    for i in range(n_docs):
        rows = centers[rng.integers(8, size=5)] + 0.2 * rng.standard_normal((5, dim))
        docs[f"cs{i:03d}:0:0"] = _d(_unit_rows(rows))
    return docs


def test_two_stage_exhaustive_equals_exact():
    rng = np.random.default_rng(3)
    docs = _pack(_clustered_corpus(rng))
    idx = build_index(docs, n_partitions=8, n_subspaces=4, n_codewords=32, seed=1)
    for trial in range(5):
        q = _q(_unit_rows(rng.standard_normal((4, 16))))
        exact = rank_exact(q, docs)
        two = rank_two_stage(q, idx, docs, n_prime=None, nprobe=8, k=len(docs))
        assert two.entries == exact.entries


def test_two_stage_k_truncates():
    rng = np.random.default_rng(4)
    docs = _pack(_clustered_corpus(rng, n_docs=30))
    idx = build_index(docs, n_partitions=4, n_subspaces=4, n_codewords=16, seed=2)
    q = _q(_unit_rows(rng.standard_normal((3, 16))))
    exact = rank_exact(q, docs)
    two = rank_two_stage(q, idx, docs, n_prime=None, nprobe=4, k=7)
    assert two.entries == exact.entries[:7]


def test_two_stage_k_beyond_candidates_returns_all():
    rng = np.random.default_rng(5)
    docs = _pack(_clustered_corpus(rng, n_docs=10))
    idx = build_index(docs, n_partitions=2, n_subspaces=4, n_codewords=8, seed=2)
    q = _q(_unit_rows(rng.standard_normal((2, 16))))
    two = rank_two_stage(q, idx, docs, n_prime=None, nprobe=2, k=10_000)
    assert len(two.entries) == 10


def test_two_stage_rejects_documents_other_than_the_indexed_ones():
    rng = np.random.default_rng(6)
    docs = _clustered_corpus(rng, n_docs=10)
    idx = build_index(docs, n_partitions=2, n_subspaces=4, n_codewords=8, seed=2)
    q = _q(_unit_rows(rng.standard_normal((2, 16))))
    rank_two_stage(q, idx, _pack(docs), n_prime=None, nprobe=2, k=5)  # equal, not the same
    first = next(iter(docs))
    shorter = dict(docs, **{first: _d(docs[first].rows[:4])})  # offsets differ
    reordered = dict(reversed(docs.items()))  # equal lengths, so only the ids differ
    for other in (shorter, reordered):
        with pytest.raises(ValueError, match="the index was built from"):
            rank_two_stage(q, idx, _pack(other), n_prime=None, nprobe=2, k=5)


def test_two_stage_rejects_a_pack_whose_refs_differ():
    # candidates come through the index's refs: the same offsets and ids over
    # other refs hold other documents
    table = _unit_rows(np.random.default_rng(7).standard_normal((6, 16)))
    docs = {f"d{i}:0:0": _d(table[[i % 6, (i + 1) % 6]]) for i in range(6)}
    pack = _pack(docs)
    idx = build_index(pack, n_partitions=2, n_subspaces=4, n_codewords=4, seed=2)
    q = _q(table[:2])
    assert pack.table.shape[0] < pack.n_rows
    other = PackedCorpus(pack.table, pack.refs[::-1].copy(), pack.offsets, pack.ids)
    rank_two_stage(q, idx, pack, n_prime=None, nprobe=2, k=5)
    with pytest.raises(ValueError, match="the index was built from"):
        rank_two_stage(q, idx, other, n_prime=None, nprobe=2, k=5)


def test_a_query_without_a_non_zero_row_ranks_nothing():
    # no document can be scored against it, on the oracle's path or the index's
    rng = np.random.default_rng(12)
    pack = _pack(_clustered_corpus(rng, n_docs=40))
    idx = build_index(pack, n_partitions=8, n_subspaces=4, n_codewords=16, seed=2)
    dead = _q(np.zeros((3, 16)))
    assert rank_exact(dead, pack).entries == []
    assert rank_two_stage(dead, idx, pack, n_prime=None, nprobe=8, k=40).entries == []
    assert rank_two_stage(dead, idx, pack, n_prime=10, nprobe=2, k=10).entries == []
    for exact in (True, False):
        assert run_query(dead, idx, pack, _config(10), k=10, exact=exact).entries == []
    # a zero row beside live ones is scored as it was, on both paths
    live = _q(np.vstack([np.zeros((1, 16)), _unit_rows(rng.standard_normal((2, 16)))]))
    exact = rank_exact(live, pack)
    assert len(exact.entries) == 40
    assert rank_two_stage(live, idx, pack, n_prime=None, nprobe=8, k=40).entries == exact.entries


def _token_session(n_docs=60, n_tokens=40, dim=16, n_partitions=8):
    """(pack, index, queries) as a context-free embedder makes them: one row per token."""
    rng = np.random.default_rng(7)
    tokens = _unit_rows(rng.standard_normal((n_tokens, dim)))
    docs = {
        f"cs{i:03d}:0:0": _d(tokens[rng.integers(n_tokens, size=int(rng.integers(3, 11)))])
        for i in range(n_docs)
    }
    pack = PackedCorpus.from_matrices(docs)
    assert pack.table.shape[0] < pack.n_rows  # rows repeat
    index = build_index(pack, n_partitions=n_partitions, n_subspaces=4, n_codewords=16, seed=3)
    queries = [_q(tokens[rng.integers(n_tokens, size=6)]) for _ in range(5)]
    return pack, index, queries


def _config(candidates):
    return Config(n_partitions=8, nprobe=2, candidates=candidates, d_in=16, d_out=16)


@pytest.mark.parametrize("k", [0, -1])
def test_rankers_reject_k_below_one(k):
    pack, index, queries = _token_session()
    q = queries[0]
    calls = [
        lambda: rank_exact(q, pack, k=k),
        lambda: rank_two_stage(q, index, pack, n_prime=None, nprobe=2, k=k),
        lambda: run_query(q, index, pack, _config(None), k=k),
        lambda: run_query(q, index, pack, _config(None), k=k, exact=True),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="k must be >= 1"):
            call()


def test_two_stage_below_the_table_size_keeps_the_oracles_scores():
    # rows repeat, and every budget is below the table's rows
    pack, index, queries = _token_session()
    pruned = False
    for q in queries:
        oracle = rank_exact(q, pack).entries
        scores = dict(oracle)
        for n_prime in (5, pack.table.shape[0] // 2, pack.table.shape[0] - 1):
            for nprobe in (1, 2, index.n_partitions):
                pruned |= candidate_docs(index, q, n_prime, nprobe).size < len(pack)
                two = rank_two_stage(q, index, pack, n_prime=n_prime, nprobe=nprobe, k=10)
                assert two.entries and all(scores[d] == s for d, s in two.entries)
                assert two.entries == sorted(two.entries, key=lambda e: (-e[1], e[0]))
        full = rank_two_stage(q, index, pack, n_prime=None, nprobe=index.n_partitions, k=len(pack))
        assert full.entries == oracle
    assert pruned


@pytest.mark.parametrize("extra", [0, 1], ids=["at_the_row_budget", "one_row_over"])
def test_tables_either_side_of_the_row_budget_keep_the_oracles_bits(extra):
    # the whole table is multiplied once per call whatever its size, and a
    # chunk holds at most _ROW_BUDGET rows: on either side of the budget every
    # subset re-scores with the full scan's bits, and exhaustive two-stage is the oracle.
    from fbl import _kernels

    rng = np.random.default_rng(40 + extra)
    n_table = _kernels._ROW_BUDGET + extra
    table = _unit_rows(rng.standard_normal((n_table, 8)))
    # every table row once, then as many repeats, cut into documents of 1-16 refs
    refs = np.concatenate([rng.permutation(n_table), rng.integers(n_table, size=n_table)])
    cuts = np.cumsum(rng.integers(1, 17, size=refs.shape[0]))
    offsets = np.concatenate(([0], cuts[cuts < refs.shape[0]], [refs.shape[0]]))
    ids = [f"cs{i:04d}:0:0" for i in range(offsets.shape[0] - 1)]
    pack = PackedCorpus.from_table(table, refs, offsets, ids)
    assert pack.table.shape[0] == n_table < pack.n_rows

    index = build_index(pack, n_partitions=8, n_subspaces=2, n_codewords=16, seed=1, max_iters=4)
    starts, ends = pack.offsets[:-1], pack.offsets[1:]
    for q in [_unit_rows(rng.standard_normal((n, 8))) for n in (1, 5)]:
        full = _kernels.maxsim_packed(q, pack.table, pack.refs, starts, ends)
        for pick in [np.arange(len(pack))[::-1], rng.choice(len(pack), 50), np.array([3])]:
            got = _kernels.maxsim_packed(q, pack.table, pack.refs, starts[pick], ends[pick])
            assert got.tobytes() == full[pick].tobytes()
        oracle = rank_exact(_q(q), pack).entries
        assert len(oracle) == len(pack)
        two = rank_two_stage(_q(q), index, pack, n_prime=None, nprobe=8, k=len(pack))
        assert two.entries == oracle


def _tied_pack():
    """Documents in tie groups (same rows, shuffled ids), and some that cannot score."""
    rng = np.random.default_rng(11)
    rows = _unit_rows(rng.standard_normal((6, 8)))
    docs = {}
    for i in rng.permutation(24):
        # 6 groups of 4 identical documents: permuted copies of the same rows
        group = rows[[i % 6, (i + 1) % 6]]
        docs[f"d{i:02d}:0:0"] = _d(group[rng.permutation(2)])
    docs["empty:0:0"] = _d(np.zeros((0, 8)))
    docs["zeros:0:0"] = _d(np.zeros((3, 8)))
    return PackedCorpus.from_matrices(docs), _q(rows[[0, 2, 5]])


@pytest.mark.parametrize("case", ["tie", "one", "all", "beyond"])
def test_rank_positions_top_k_equals_the_full_ranking_cut_at_k(case):
    pack, q = _tied_pack()
    positions = np.arange(len(pack), dtype=np.int64)
    full = _rank_positions(q, pack, positions, len(pack))
    assert [d for d, _ in full] == [d for d, _ in sorted(full, key=lambda e: (-e[1], e[0]))]
    assert len(full) == len(pack) - 2  # the two -inf documents are left out
    tie = next(i for i in range(1, len(full)) if full[i - 1][1] == full[i][1])
    ks = {
        "tie": [tie],  # full[tie - 1] and full[tie] tie across the cut
        "one": [1],
        "all": [len(full), len(pack)],
        "beyond": [len(pack) + 5],
    }[case]
    subset = positions[1::2]  # candidates are an ascending subset of positions
    part = _rank_positions(q, pack, subset, len(pack))
    for k in ks:
        assert _rank_positions(q, pack, positions, k) == full[:k]
        assert _rank_positions(q, pack, subset, k) == part[:k]
    assert rank_exact(q, pack, k=ks[0]).entries == full[: ks[0]]


def test_aggregate_max_rule():
    res = RankedResult(
        bug_id="b",
        entries=[("cs1:0:1", 0.9), ("cs1:0:2", 0.4), ("cs1:0:0", 0.2)],
    )
    agg = aggregate_to_changeset(res)
    assert agg.entries == [("cs1", 0.9)]


def test_aggregate_disjoint_preserves_order():
    res = RankedResult(
        bug_id="b",
        entries=[("a:0:0", 0.9), ("b:0:0", 0.5), ("c:0:0", 0.1)],
    )
    agg = aggregate_to_changeset(res)
    assert agg.entries == [("a", 0.9), ("b", 0.5), ("c", 0.1)]


def test_aggregate_interleaved_hand_fixture():
    # interleaved hunks of two changesets; max per changeset: x=0.8, y=0.7
    res = RankedResult(
        bug_id="b",
        entries=[("x:0:0", 0.8), ("y:0:0", 0.7), ("x:0:1", 0.6), ("y:1:0", 0.2)],
    )
    agg = aggregate_to_changeset(res)
    assert agg.entries == [("x", 0.8), ("y", 0.7)]


def test_emission_formats():
    res = RankedResult(bug_id="bug7", entries=[("cs9:0:3", 1.25)])
    buf = io.StringIO()
    write_jsonl(res, buf)
    row = json.loads(buf.getvalue())
    assert row == {
        "bug_id": "bug7",
        "rank": 1,
        "doc_id": "cs9:0:3",
        "changeset_id": "cs9",
        "score": 1.25,
    }
    buf = io.StringIO()
    write_trec(res, buf)
    assert buf.getvalue() == "bug7 Q0 cs9:0:3 1 1.250000 fbl\n"
