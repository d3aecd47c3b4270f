"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print. Every tolerance is fixed here; nothing is calibrated at run time.
"""

import datetime as dt
import random
import time

import numpy as np
import pytest

from conftest import doc_of, hunk_doc, partition, random_hunk, reconstruct
from fbl.corpus import BugReport, GoldLink, Granularity, build_triplets, explode_corpus
from fbl.diffs import parse_unified_diff
from fbl.embed import (
    EmbeddingMatrix,
    LinearProjection,
    ReferenceHashEmbedder,
    TripletTrainConfig,
    embed_sequence,
    gradient_of_loss,
    loss_from_raw,
    train_projection,
)
from fbl.encode import Strategy, Vocabulary, decode, encode_document, encode_query
from fbl.evaluation import (
    mean_average_precision,
    mean_precision_at_k,
    mrr,
    qrels_from_links,
)
from fbl.index import build_index, kmeans
from fbl.pipeline import Config, embed_documents, encode_documents, sweep_latency
from fbl.retrieve import PackedCorpus, aggregate_to_changeset, rank_exact, rank_two_stage


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def _unit(a: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(a, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return (a / n).astype(np.float32)


# -- 1. oracle equivalence ---------------------------------------------------------


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    dim = 32
    docs = {}
    for i in range(1000):
        n_tok = int(rng.integers(4, 65))  # <= 64 tokens each
        docs[f"c{i:04d}:0:0"] = EmbeddingMatrix(rows=_unit(rng.standard_normal((n_tok, dim))))
    index = build_index(docs, n_partitions=32, n_subspaces=8, n_codewords=64, seed=3)
    pack = PackedCorpus.from_matrices(docs)

    identical = 0
    for t in range(50):
        q = EmbeddingMatrix(rows=_unit(rng.standard_normal((8, dim))), is_query=True)
        exact = rank_exact(q, pack)
        two = rank_two_stage(
            q, index, pack, n_prime=None, nprobe=index.n_partitions, k=len(docs)
        )
        if two.entries == exact.entries:  # bit-identical ranking, scores included
            identical += 1
    elapsed = time.perf_counter() - t0
    ok = identical == 50 and elapsed < 60
    _report("1 oracle-equivalence", ok, f"{identical}/50 identical rankings in {elapsed:.1f}s")
    assert identical == 50
    assert elapsed < 60


# -- 2. candidate recall -----------------------------------------------------------


def test_criterion_2_candidate_recall():
    t0 = time.perf_counter()
    rng = np.random.default_rng(777)
    dim, n_docs, tok = 32, 10_000, 4
    topics = rng.standard_normal((64, dim))
    topics /= np.linalg.norm(topics, axis=1, keepdims=True)
    words = topics[np.repeat(np.arange(64), 64)] + 0.35 * rng.standard_normal((4096, dim))
    words /= np.linalg.norm(words, axis=1, keepdims=True)

    doc_tokens = rng.integers(4096, size=(n_docs, tok))
    docs = {}
    for i in range(n_docs):
        base = words[doc_tokens[i]]
        docs[f"d{i:05d}:0:0"] = EmbeddingMatrix(
            rows=_unit(base + 0.06 * rng.standard_normal((tok, dim)))
        )
    index = build_index(docs, n_partitions=64, n_subspaces=16, n_codewords=256, seed=7)
    pack = PackedCorpus.from_matrices(docs)

    queries = []
    for _ in range(50):
        di = int(rng.integers(n_docs))
        base = words[doc_tokens[di]]
        queries.append(
            EmbeddingMatrix(
                rows=_unit(base + 0.08 * rng.standard_normal((tok, dim))), is_query=True
            )
        )
    exact_top = [{d for d, _ in rank_exact(q, pack).entries[:10]} for q in queries]

    def recall_at(nprobe: int) -> float:
        total = 0.0
        for q, gold in zip(queries, exact_top):
            two = rank_two_stage(q, index, pack, n_prime=1000, nprobe=nprobe, k=10)
            total += len({d for d, _ in two.entries} & gold) / 10
        return total / len(queries)

    sweep = {np_: recall_at(np_) for np_ in (1, 2, 4, 8, 16, 32, 64)}
    elapsed = time.perf_counter() - t0
    monotone = all(
        sweep[b] >= sweep[a] - 1e-9 for a, b in zip((1, 2, 4, 8, 16, 32), (2, 4, 8, 16, 32, 64))
    )
    ok = sweep[8] >= 0.90 and monotone and elapsed < 300
    detail = (
        f"recall@10 nprobe=8: {sweep[8]:.3f}; sweep "
        + " ".join(f"{v:.3f}" for v in sweep.values())
        + f"; {elapsed:.0f}s"
    )
    _report("2 candidate-recall", ok, detail)
    assert sweep[8] >= 0.90
    assert monotone, f"recall not monotone in nprobe: {sweep}"
    assert elapsed < 300


# -- 3. metric oracles -------------------------------------------------------------


def test_criterion_3_metric_oracles():
    # five fixtures; expected values hand-computed from the definitions
    fixtures = [
        # (results, qrels, mrr, map, p@1, p@3, p@5)
        (  # single bug, relevant first
            {"b1": ["r", "x", "y"]},
            {"b1": {"r"}},
            1.0, 1.0, 1.0, 1 / 3, 1 / 5,
        ),
        (  # ranks {1, 2} across two bugs -> MRR (1 + 1/2)/2
            {"b1": ["r1", "x"], "b2": ["x", "r2"]},
            {"b1": {"r1"}, "b2": {"r2"}},
            0.75, 0.75, 0.5, 1 / 3, 1 / 5,
        ),
        (  # relevant at ranks {1, 3}, two relevant -> AP (1 + 2/3)/2
            {"b1": ["r1", "x", "r2"]},
            {"b1": {"r1", "r2"}},
            1.0, (1 + 2 / 3) / 2, 1.0, 2 / 3, 2 / 5,
        ),
        (  # miss entirely
            {"b1": ["x", "y"]},
            {"b1": {"r"}},
            0.0, 0.0, 0.0, 0.0, 0.0,
        ),
        (  # three bugs mixing the above: RRs {1, 1/3, 0}, APs {1, 1/3, 0}
            {"b1": ["r1"], "b2": ["x", "y", "r2"], "b3": ["x"]},
            {"b1": {"r1"}, "b2": {"r2"}, "b3": {"r3"}},
            (1 + 1 / 3) / 3, (1 + 1 / 3) / 3, 1 / 3, 2 / 9, 2 / 15,
        ),
    ]
    worst = 0.0
    for i, (results, qrels, want_mrr, want_map, want_p1, want_p3, want_p5) in enumerate(fixtures):
        got = (
            mrr(results, qrels),
            mean_average_precision(results, qrels),
            mean_precision_at_k(results, qrels, 1),
            mean_precision_at_k(results, qrels, 3),
            mean_precision_at_k(results, qrels, 5),
        )
        want = (want_mrr, want_map, want_p1, want_p3, want_p5)
        for g, w in zip(got, want):
            worst = max(worst, abs(g - w))
        assert all(abs(g - w) <= 1e-9 for g, w in zip(got, want)), f"fixture {i}: {got} != {want}"
    _report("3 metric-oracles", worst <= 1e-9, f"max abs error {worst:.2e} over 5 fixtures")
    assert worst <= 1e-9


# -- 4. gradient check -------------------------------------------------------------


def test_criterion_4_gradient_check():
    rng = np.random.default_rng(42)
    step = 1e-5
    worst = 0.0
    for _ in range(20):
        q = rng.standard_normal((4, 8))
        pos = rng.standard_normal((5, 8))
        neg = rng.standard_normal((6, 8))
        w = rng.standard_normal((8, 4)) * 0.7
        proj = LinearProjection(w)
        margin = 5.0
        analytic = gradient_of_loss(q, pos, neg, proj, margin)
        numeric = np.zeros_like(w)
        for r in range(w.shape[0]):
            for c in range(w.shape[1]):
                wp, wm = w.copy(), w.copy()
                wp[r, c] += step
                wm[r, c] -= step
                fp = loss_from_raw(q, pos, neg, LinearProjection(wp), margin)
                fm = loss_from_raw(q, pos, neg, LinearProjection(wm), margin)
                numeric[r, c] = (fp - fm) / (2 * step)
        rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
        worst = max(worst, rel)
    _report("4 gradient-check", worst <= 1e-4, f"worst relative error {worst:.2e} over 20 cases")
    assert worst <= 1e-4


# -- 5. quantization properties ------------------------------------------------------


def test_criterion_5_quantization_properties():
    # (a) distortion trace non-increasing on three seeded datasets
    monotone = True
    for seed in (11, 22, 33):
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((400, 8))
        res = kmeans(pts, k=16, max_iters=30, seed=seed)
        for a, b in zip(res.distortions, res.distortions[1:]):
            if b > a + 1e-12:
                monotone = False

    # (b) K=256 beats K=16 on identical data
    rng = np.random.default_rng(5)
    docs = {}
    for i in range(400):
        docs[f"r{i:03d}:0:0"] = EmbeddingMatrix(rows=_unit(rng.standard_normal((25, 32))))

    def recon_mse(idx):
        total, count = 0.0, 0
        for p in range(idx.n_partitions):
            ids, codes = partition(idx, p)
            dsub = idx.dim // idx.n_subspaces
            for i, emb_id in enumerate(ids):
                doc_id, pos = doc_of(idx, int(emb_id))
                original = docs[doc_id].rows[pos]
                rec = idx.coarse[p].copy()
                for s in range(idx.n_subspaces):
                    rec[s * dsub : (s + 1) * dsub] += idx.codebooks[s, codes[i, s]]
                total += float(np.sum((rec - original) ** 2))
                count += 1
        return total / count

    kw = dict(n_partitions=64, n_subspaces=16, seed=2)
    mse_hi = recon_mse(build_index(docs, n_codewords=256, **kw))
    mse_lo = recon_mse(build_index(docs, n_codewords=16, **kw))

    # (c) centroid-aligned corpus reconstructs exactly
    rng = np.random.default_rng(9)
    centers = _unit(rng.standard_normal((4, 8)))
    aligned = {
        f"c{i:03d}:0:0": EmbeddingMatrix(rows=centers[i % 4 : i % 4 + 1].copy())
        for i in range(24)
    }
    idx0 = build_index(aligned, n_partitions=4, n_subspaces=4, n_codewords=4, seed=0)
    worst_aligned = 0.0
    for emb_id in range(idx0.n_embeddings):
        doc_id, pos = doc_of(idx0, emb_id)
        err = float(np.sum((reconstruct(idx0, emb_id) - aligned[doc_id].rows[pos]) ** 2))
        worst_aligned = max(worst_aligned, err)

    ok = monotone and mse_hi < mse_lo and worst_aligned < 1e-6
    _report(
        "5 quantization",
        ok,
        f"distortion monotone={monotone}; MSE K256 {mse_hi:.5f} < K16 {mse_lo:.5f}; "
        f"aligned err {worst_aligned:.2e}",
    )
    assert monotone
    assert mse_hi < mse_lo
    assert worst_aligned < 1e-6


# -- 6. encoding golden tests ---------------------------------------------------------


def test_criterion_6_encoding_golden():
    vocab = Vocabulary.from_tokens(["a", "b", "c", "d"])
    from conftest import make_hunk

    hunk = make_hunk([(" ", "a"), ("+", "b"), ("+", "c"), ("-", "d")])
    doc = hunk_doc("cs", hunk)
    golden = {
        Strategy.ARCL: ["[CLS]", "[C]", "a", "[A]", "b", "c", "[R]", "d", "[SEP]"],
        Strategy.ARC: ["[CLS]", "[A]", "b", "c", "[R]", "d", "[C]", "a", "[SEP]"],
        Strategy.D: ["[CLS]", "[D]", "a", "b", "c", "d", "[SEP]"],
    }
    golden_ok = True
    for strat, want in golden.items():
        got = decode(encode_document(doc, strat, vocab, limit=16), vocab)
        if got != want:
            golden_ok = False

    rng = random.Random(606)
    marker_ok = True
    for _ in range(100):
        h = random_hunk(rng)
        seq = encode_document(hunk_doc("cs", h), Strategy.ARCL, vocab, limit=256)
        toks = decode(seq, vocab)
        n_markers = sum(1 for t in toks if t in ("[A]", "[R]", "[C]"))
        kinds = [l.kind for l in h.lines]
        transitions = sum(1 for x, y in zip(kinds, kinds[1:]) if x is not y)
        if n_markers != transitions + 1:
            marker_ok = False

    ok = golden_ok and marker_ok
    _report(
        "6 encoding-golden", ok, f"3 golden sequences ok={golden_ok}; marker counts ok={marker_ok}"
    )
    assert golden_ok
    assert marker_ok


# -- 7. scaling trend -----------------------------------------------------------------


def test_criterion_7_scaling_trend():
    rng = np.random.default_rng(4242)
    dim, tok = 128, 8  # artifact-default embedding width; hunk-sized documents
    n_docs = 200_000 // tok
    centers = _unit(rng.standard_normal((256, dim)))
    docs = {}
    for i in range(n_docs):
        base = centers[rng.integers(256, size=tok)]
        docs[f"d{i:06d}:0:0"] = EmbeddingMatrix(
            rows=_unit(base + 0.2 * rng.standard_normal((tok, dim)))
        )
    # candidate budget scaled to the corpus: 250 of 25k documents is the same
    # ~1% re-rank share a 1000-candidate budget gives a 100k+ document corpus
    config = Config(
        n_partitions=320,
        nprobe=4,
        candidates=250,
        n_subspaces=16,
        n_codewords=256,
        seed=11,
        d_in=dim,
        d_out=dim,
    )
    rows = sweep_latency(
        docs, [20_000, 63_000, 200_000], config, n_queries=8, k=10, query_rows=96
    )
    ratios = [r.ratio for r in rows]
    final_ok = ratios[-1] <= 0.20
    trend_ok = ratios[-1] < ratios[0]
    detail = "; ".join(
        f"{r.embeddings} emb: exact {r.exact_mean_s * 1000:.0f}ms, "
        f"two-stage {r.two_stage_mean_s * 1000:.0f}ms, ratio {r.ratio:.3f}"
        for r in rows
    )
    _report("7 scaling-trend", final_ok and trend_ok, detail)
    assert final_ok, f"two-stage/exact ratio at 200k embeddings is {ratios[-1]:.3f} > 0.20"
    assert trend_ok, f"ratio did not decrease from 20k to 200k: {ratios}"


# -- 8. end-to-end planted relevance ---------------------------------------------------


NL_FILLER = ["when", "after", "error", "fails", "crash", "clicking", "window", "dialog"]
CODE_FILLER = [
    "buffer", "stream", "cursor", "socket", "widget", "handler",
    "parser", "render", "layout", "cache", "queue", "worker",
]


def _alpha(i: int) -> str:
    return "".join(chr(ord("a") + int(c)) for c in str(i))


def _planted_fixture(n_bugs=60, n_distractors=140, seed=1234):
    rng = random.Random(seed)

    def diff_for(lines, path):
        body = "".join(f"+{l}\n" for l in lines)
        return (
            f"diff --git a/{path} b/{path}\n--- a/{path}\n+++ b/{path}\n"
            f"@@ -1,0 +1,{len(lines)} @@\n" + body
        )

    changesets, bugs, links = [], [], []
    tokens = set(NL_FILLER) | set(CODE_FILLER)
    for i in range(n_bugs):
        a = _alpha(i)
        anchor, alias, code, extra = f"anchor{a}", f"alias{a}", f"codeword{a}", f"extra{a}"
        tokens |= {anchor, alias, code, extra}
        lines = [f"{anchor} {code} {code}", f"{extra} {code}"]
        cs_id = f"gold{i:03d}"
        changesets.append(parse_unified_diff(diff_for(lines, f"src/G{i}.java"), cs_id, "fix"))
        nf = [rng.choice(NL_FILLER) for _ in range(1)]
        bugs.append(
            BugReport(
                bug_id=f"bug{i:03d}",
                summary=f"{anchor} {anchor} {alias} {alias} {alias}",
                description=" ".join(nf),
                opened_at=dt.datetime(2021, 1, 1 + i % 27, tzinfo=dt.timezone.utc),
            )
        )
        links.append(GoldLink(f"bug{i:03d}", cs_id))
    for j in range(n_distractors):
        cf = [rng.choice(CODE_FILLER) for _ in range(6)]
        changesets.append(
            parse_unified_diff(
                diff_for([" ".join(cf[:3]), " ".join(cf[3:])], f"src/D{j}.java"),
                f"dist{j:03d}",
                "chore",
            )
        )
    return changesets, bugs, links, Vocabulary.from_tokens(sorted(tokens))


def test_criterion_8_end_to_end_planted():
    seed = 1234
    d_in, d_out = 64, 32
    changesets, bugs, links, vocab = _planted_fixture(seed=seed)
    docs = explode_corpus(changesets, Granularity.HUNK)
    doc_seqs = encode_documents(docs, Strategy.ARCL, vocab, 64)
    query_seqs = {b.bug_id: encode_query(b, vocab, 64) for b in bugs}
    embedder = ReferenceHashEmbedder(d_in=d_in, seed=seed)
    qrels = qrels_from_links(links)

    def pipeline_mrr(projection: LinearProjection) -> float:
        mats = embed_documents(doc_seqs, embedder, projection)
        index = build_index(mats, n_partitions=16, n_subspaces=8, n_codewords=64, seed=seed)
        pack = PackedCorpus.from_matrices(mats)
        results = {}
        for b in bugs:
            q = embed_sequence(query_seqs[b.bug_id], embedder, projection, is_query=True)
            ranked = rank_two_stage(
                q, index, pack, n_prime=None, nprobe=16, k=60, bug_id=b.bug_id
            )
            agg = aggregate_to_changeset(ranked)
            results[b.bug_id] = [cs for cs, _ in agg.entries]
        return mrr(results, qrels)

    untrained = LinearProjection.seeded_init(d_in, d_out, seed=seed)
    mrr_untrained = pipeline_mrr(untrained)

    triplets = build_triplets(links, docs, seed=seed)
    cfg = TripletTrainConfig(margin=2.0, learning_rate=0.3, epochs=4, batch_size=16, seed=seed)
    trained = train_projection(triplets, query_seqs, doc_seqs, embedder, cfg, d_out=d_out)
    mrr_trained = pipeline_mrr(trained.projection)

    ok = mrr_trained >= 0.9 and mrr_trained > mrr_untrained
    _report(
        "8 end-to-end-planted",
        ok,
        f"trained MRR {mrr_trained:.3f} >= 0.9; untrained {mrr_untrained:.3f}; "
        f"loss {trained.epoch_losses[0]:.3f}->{trained.epoch_losses[-1]:.3f}",
    )
    assert mrr_trained >= 0.9
    assert mrr_trained > mrr_untrained
