"""perfbench's hooks against the functions they wrap.

perfbench times fbl by wrapping its functions by name from outside, so a
renamed function or a changed kernel signature would break traced
benchmark runs without failing any fbl test. This runs the hooks on one
two-stage query, one exact query and one ``fbl train-projection``.
"""

import json
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest

from fbl import cli, pipeline, store
from fbl.embed import EmbeddingMatrix, PackedCorpus
from fbl.index import build_index

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def layers_and_tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import tracer

    return layers, tracer


def _repeated_rows_session():
    """(pack, index, query, config) over a context-free embedder's documents."""
    rng = np.random.default_rng(3)
    table = rng.standard_normal((12, 16)).astype(np.float32)
    table /= np.linalg.norm(table, axis=1, keepdims=True)
    # a few token vectors, repeated
    docs = {
        f"d{i}:0:0": EmbeddingMatrix(rows=table[rng.integers(0, 12, size=6)]) for i in range(30)
    }
    pack = PackedCorpus.from_matrices(docs)
    index = build_index(pack, n_partitions=4, n_subspaces=4, n_codewords=16, seed=1)
    query = EmbeddingMatrix(rows=table[[0, 3, 3, 7]], is_query=True)
    config = pipeline.Config(n_partitions=4, nprobe=2, candidates=10, d_in=16, d_out=16)
    return pack, index, query, config


def _probed(index, query, nprobe):
    """Each query row's nprobe nearest partitions."""
    coarse = query.rows @ index.coarse.T
    return np.argsort(-coarse, axis=1, kind="stable")[:, :nprobe]


def test_perfbench_hooks_resolve_and_count_the_codes_scanned(layers_and_tracer):
    layers, tracer = layers_and_tracer
    pack, index, query, config = _repeated_rows_session()

    t = tracer.Tracer()
    layers.instrument(t)  # raises if a hooked name no longer resolves
    patches = list(t._patches)
    try:
        assert patches and all(vars(owner)[attr] is not raw for owner, attr, raw in patches)
        pipeline.run_query(query, index, pack, config, k=5)
    finally:
        t.restore()
    for owner, attr, raw in patches:
        assert vars(owner)[attr] is raw, attr

    # the scan span counts codes: the entries of each query row's probed partitions
    probed = _probed(index, query, 2)
    entries = int((index.part_offsets[probed + 1] - index.part_offsets[probed]).sum())
    part_of = np.empty(index.rows.shape[0], dtype=np.int64)  # each table row's partition
    part_of[index.rows] = np.repeat(np.arange(index.n_partitions), np.diff(index.part_offsets))
    pack_rows = sum(int(np.isin(part_of[pack.refs], row).sum()) for row in probed)
    scans = [s for s in t.spans if s.name == "kernels.adc_scan"]
    assert [s.attrs["codes"] for s in scans] == [entries]
    assert entries < pack_rows  # a repeated row is listed once
    assert {s.name for s in t.spans} >= {"retrieve.two_stage", "index.candidates", "kernels.maxsim"}


def test_perfbench_hooks_count_the_codes_of_a_query_that_cuts_no_row(layers_and_tracer):
    # a budget covering the table scores nothing, yet the scan span still
    # opens once and counts the probed entries
    layers, tracer = layers_and_tracer
    pack, index, query, config = _repeated_rows_session()
    config.candidates = None
    t = tracer.Tracer()
    layers.instrument(t)
    try:
        pipeline.run_query(query, index, pack, config, k=5)
    finally:
        t.restore()
    probed = _probed(index, query, 2)
    entries = int((index.part_offsets[probed + 1] - index.part_offsets[probed]).sum())
    scans = [s for s in t.spans if s.name == "kernels.adc_scan"]
    assert [s.attrs["codes"] for s in scans] == [entries]


def test_perfbench_hooks_trace_an_exact_query(layers_and_tracer):
    # perfbench's exact loop scores through the same kernel as re-scoring
    layers, tracer = layers_and_tracer
    pack, index, query, config = _repeated_rows_session()
    assert pack.table.shape[0] < pack.n_rows
    plain = pipeline.run_query(query, index, pack, config, k=len(pack), exact=True)

    t = tracer.Tracer()
    layers.instrument(t)
    patches = list(t._patches)
    try:
        traced = pipeline.run_query(query, index, pack, config, k=len(pack), exact=True)
    finally:
        t.restore()
    for owner, attr, raw in patches:
        assert vars(owner)[attr] is raw, attr
    assert traced.entries == plain.entries
    spans = t.spans
    exact = [i for i, s in enumerate(spans) if s.name == "retrieve.exact"]
    kernel = [s for s in spans if s.name == "kernels.maxsim"]
    assert len(exact) == 1 and len(kernel) == 1
    assert kernel[0].parent == exact[0]
    assert set(kernel[0].attrs) == {"rows", "docs"}


def _write_jsonl(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))


def _tiny_corpus(tmp_path):
    """(corpus dir, vocab file): four changesets, two bugs linked to them."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    words = ["widget", "parser", "cache", "socket"]
    _write_jsonl(corpus / "changesets.jsonl", [
        {"id": f"c{i}", "log": "", "timestamp": f"2021-01-0{i + 1}T00:00:00+00:00",
         "diff": f"diff --git a/F{i}.java b/F{i}.java\n--- a/F{i}.java\n+++ b/F{i}.java\n"
                 f"@@ -1,0 +1,1 @@\n+{words[i]} {words[i - 1]}\n"}
        for i in range(4)
    ])
    _write_jsonl(corpus / "bugs.jsonl", [
        {"id": f"b{i}", "summary": words[i], "description": "",
         "opened_at": f"2021-02-0{i + 1}T00:00:00+00:00"}
        for i in range(2)
    ])
    _write_jsonl(corpus / "links.jsonl", [{"bug_id": f"b{i}", "changeset_id": f"c{i}"}
                                          for i in range(2)])
    vocab = tmp_path / "vocab.txt"
    vocab.write_text("\n".join(words) + "\n")
    return corpus, vocab


def _traced_main(layers, tracer, argv):
    """Spans of ``fbl`` run on argv with perfbench's hooks installed, then removed."""
    t = tracer.Tracer()
    layers.instrument(t)  # raises if a hooked name no longer resolves
    patches = list(t._patches)
    try:
        assert cli.main(argv) == 0
    finally:
        t.restore()
    for owner, attr, raw in patches:
        assert vars(owner)[attr] is raw, attr
    return t.spans


def test_perfbench_hooks_trace_train_projection_and_restore(layers_and_tracer, tmp_path):
    layers, tracer = layers_and_tracer
    corpus, vocab = _tiny_corpus(tmp_path)
    argv = ["train-projection", "--corpus", str(corpus), "--vocab", str(vocab),
            "--out", str(tmp_path / "proj.fble"), "--d-in", "16", "--d-out", "8"]
    spans = _traced_main(layers, tracer, argv)
    assert [s.name for s in spans].count("embed.train") == 1


def test_perfbench_hooks_trace_fbl_index_set_up(layers_and_tracer, tmp_path):
    # perfbench's set-up metrics read these spans: embed.docs_s and embed.rows
    # from the one document embedding, index.build_s from the one build
    layers, tracer = layers_and_tracer
    corpus, vocab = _tiny_corpus(tmp_path)
    session = tmp_path / "session"
    argv = ["index", "--corpus", str(corpus), "--vocab", str(vocab), "--session", str(session),
            "--partitions", "2", "--subspaces", "2", "--codewords", "4", "--d-in", "16",
            "--d-out", "8"]
    spans = _traced_main(layers, tracer, argv)
    embedded = [s for s in spans if s.name == "embed.docs"]
    assert len(embedded) == 1 and [s.name for s in spans].count("index.build") == 1
    pack = store.load_session(session).doc_matrices
    assert pack.n_rows > 0 and embedded[0].attrs == {"rows": pack.n_rows}


def test_perfbench_hooks_time_a_query_embedding_as_one_sequence(layers_and_tracer):
    # embed.query_ms reads the embed.sequence span: the query's one look-up
    from fbl.corpus import BugReport
    from fbl.embed import LinearProjection
    from fbl.encode import Vocabulary

    layers, tracer = layers_and_tracer
    vocab = Vocabulary.from_tokens(["widget", "parser", "cache"])
    config = pipeline.Config(d_in=16, d_out=8)
    embedder, projection = pipeline.make_embedder(config), LinearProjection.seeded_init(16, 8, 1)
    report = BugReport("b", "widget parser widget", "cache", datetime(2021, 1, 1))
    t = tracer.Tracer()
    layers.instrument(t)
    try:
        rows = pipeline.embed_query_text(report, vocab, config, embedder, projection).rows
    finally:
        t.restore()
    spans = t.spans
    outer = [i for i, s in enumerate(spans) if s.name == "query.embed"]
    inner = [s for s in spans if s.name == "embed.sequence"]
    assert len(outer) == 1 and len(inner) == 1 and inner[0].parent == outer[0]
    assert rows.shape[0] > 0


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "perfbench's workloads.serve builds its Config from the manifest by hand and leaves out "
    "query_limit (the FOUND on serve in CHANGES.md); it passes once serve calls open_session"))
def test_perfbench_serves_the_config_fbl_query_runs(layers_and_tracer, tmp_path):
    corpus, vocab = _tiny_corpus(tmp_path)
    session = tmp_path / "session"
    assert cli.main(["index", "--corpus", str(corpus), "--vocab", str(vocab), "--session",
                     str(session), "--partitions", "2", "--subspaces", "2", "--codewords", "4",
                     "--d-in", "16", "--d-out", "8", "--query-limit", "64"]) == 0
    import workloads

    assert workloads.serve(session).config == pipeline.open_session(session).config


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "perfbench's _maxsim hook reads maxsim_packed's refs argument as document offsets (the "
    "FOUND on _maxsim in CHANGES.md); it passes once the hook sums ends - starts"))
def test_perfbench_counts_the_rows_and_documents_maxsim_scores(layers_and_tracer, monkeypatch):
    from fbl import _kernels

    layers, tracer = layers_and_tracer
    pack, index, query, config = _repeated_rows_session()
    score, calls = _kernels.maxsim_packed, []

    def scoring(q, table, refs, starts, ends):
        calls.append({"rows": int((ends - starts).sum()), "docs": len(starts)})
        return score(q, table, refs, starts, ends)

    monkeypatch.setattr(_kernels, "maxsim_packed", scoring)
    t = tracer.Tracer()
    layers.instrument(t)
    try:
        pipeline.run_query(query, index, pack, config, k=5, exact=True)
    finally:
        t.restore()
    assert calls == [{"rows": pack.n_rows, "docs": len(pack)}]
    assert [s.attrs for s in t.spans if s.name == "kernels.maxsim"] == calls
