"""Tests of the benchmark itself: inputs, gates, tracer hygiene, metric names.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from pathlib import Path

import numpy as np
import pytest

from fbl import cli, corpus, index as fbl_index, pipeline, retrieve
from fbl.embed import EmbeddingMatrix

import corpora
import layers
import workloads
from tracer import Tracer

BENCH = Path(__file__).resolve().parents[1]
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

TINY_PROJECT = corpora.ProjectShape(n_changesets=14, n_bugs=10)
TINY = workloads.Shape(rounds=2, slices=2, audited=4, n_docs=120, partitions=16,
                       codewords=16, project=TINY_PROJECT)


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_balanced_generator_is_a_function_of_its_seed():
    a, b, c = (corpora.balanced_corpus(s, n_docs=50, n_queries=5) for s in (7, 7, 8))
    assert a.rows.tobytes() == b.rows.tobytes()
    assert [q.tobytes() for q in a.queries] == [q.tobytes() for q in b.queries]
    assert a.query_sources == b.query_sources
    assert a.rows.tobytes() != c.rows.tobytes()


def test_project_generator_is_a_function_of_its_seed(tmp_path):
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        corpora.project_corpus(seed, tmp_path / name, TINY_PROJECT)
    a, b, c = (_files(tmp_path / n) for n in "abc")
    assert a == b
    assert a.keys() == c.keys() and a != c


def test_project_corpus_passes_ingest_with_every_link_resolving(tmp_path):
    counts = corpora.project_corpus(3, tmp_path / "gen")
    g = tmp_path / "gen"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["ingest", "--changesets", str(g / "changesets.jsonl"),
                         "--bugs", str(g / "bugs.jsonl"), "--links", str(g / "links.jsonl"),
                         "--out", str(tmp_path / "corpus")])
    assert code == 0
    assert f"{counts['hunks']} hunks" in out.getvalue()
    assert f"{counts['links']} links" in out.getvalue()
    changesets = {c.changeset_id for c in corpus.load_changesets(g / "changesets.jsonl")}
    bugs = {b.bug_id for b in corpus.load_bugs(g / "bugs.jsonl")}
    links = corpus.load_links(g / "links.jsonl")
    assert links and all(l.changeset_id in changesets and l.bug_id in bugs for l in links)


def test_gate_catches_a_perturbed_score():
    data = corpora.balanced_corpus(5, n_docs=80, n_queries=2)
    mats = {d: EmbeddingMatrix(rows=data.rows[i]) for i, d in enumerate(data.doc_ids)}
    idx = fbl_index.build_index(mats, 8, 16, 16, seed=5, max_iters=4)
    pack = retrieve.PackedCorpus.from_matrices(mats)
    config = pipeline.Config(n_partitions=8, nprobe=2, candidates=40, d_in=128, d_out=128)
    q = EmbeddingMatrix(rows=data.queries[0], is_query=True)
    two = pipeline.run_query(q, idx, pack, config, k=10).entries
    oracle = pipeline.run_query(q, idx, pack, config, k=len(pack), exact=True).entries
    assert workloads.gate_scores(two, oracle)
    doc, score = two[3]
    nudged = two[:3] + [(doc, float(np.nextafter(score, np.inf)))] + two[4:]
    assert not workloads.gate_scores(nudged, oracle)
    assert not workloads.gate_scores(two + [("no-such-doc:0:0", 1.0)], oracle)


def test_timed_scales_wall_time_by_the_probe(monkeypatch):
    monkeypatch.setattr(workloads, "_probe", lambda: 2 * workloads.REFERENCE_PROBE_S)
    result, wall, reference = workloads.timed(lambda: time.sleep(0.01) or "done")
    assert result == "done"
    assert wall >= 0.01 and reference == pytest.approx(wall / 2)
    assert workloads.medians({0: [3.0, 1.0, 2.0], 1: [5.0]}) == [2.0, 5.0]


def _patched_originals() -> dict:
    probe = Tracer()
    layers.instrument(probe)
    targets = [(owner, attr) for owner, attr, _ in probe._patches]
    probe.restore()
    return {(id(owner), attr): (owner, vars(owner)[attr]) for owner, attr in targets}


@pytest.mark.parametrize("name", ["balanced_20k", "project_cli"])
def test_emitted_metrics_match_benchmark_json(name, tmp_path):
    originals = _patched_originals()
    plain, _, _ = workloads.run_workload(name, 1, 0.0, False, tmp_path / "plain", TINY)
    traced, meta, tracer = workloads.run_workload(name, 1, 0.0, True, tmp_path / "traced", TINY)

    for result in (plain, traced):
        assert result["correct"], meta["problems"]
        assert result["failed"] == 0 and result["attempted"] > 0
    assert {n: m["unit"] for n, m in plain["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {n: m["unit"] for n, m in traced["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert name in {w["name"] for w in SPEC["workloads"]}

    # no wrapper outlives the traced run
    for (_, attr), (owner, raw) in originals.items():
        assert vars(owner)[attr] is raw, attr

    # a two-stage query span is its disjoint children plus the rank self time
    kids = tracer.children()
    spans = tracer.spans
    two_stage = [i for i, s in enumerate(spans) if s.name == "retrieve.two_stage"
                 and tracer.has_ancestor(i, "phase.two_stage")]
    assert two_stage
    for i in two_stage:
        assert {spans[c].name for c in kids[i]} == {"index.candidates", "kernels.maxsim"}
        inner = sorted((spans[c].start, spans[c].end) for c in kids[i])
        assert spans[i].start <= inner[0][0] and inner[-1][1] <= spans[i].end
        assert all(a[1] <= b[0] for a, b in zip(inner, inner[1:]))
        assert tracer.self_time(i, kids) >= 0
        assert spans[spans[i].parent].name == "query"
        assert spans[i].query == spans[spans[i].parent].query is not None


def test_tracer_restores_after_an_error():
    originals = _patched_originals()
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(layers.instrument):
            raise RuntimeError("boom")
    for (_, attr), (owner, raw) in originals.items():
        assert vars(owner)[attr] is raw, attr


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup == {"name": "setup_s", "unit": "s", "better": "lower",
                     "bound": max(m["bound"] for m in SPEC["end_to_end"])}
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    directions = {n: b for n, _, b in layers.PER_LAYER}
    assert {m["name"]: m["better"] for m in SPEC["per_layer"]} == directions
