import builtins
import dataclasses
import errno
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fbl

from fbl.cli import main
from fbl.pipeline import CONFIG_LEAST, MANIFEST_FIELDS, Config
from fbl.store import Manifest

WORDS = [
    "widget", "handler", "parser", "buffer", "cursor", "stream", "socket",
    "render", "layout", "cache", "token", "index", "queue", "worker",
]
PLANT = ["turbo", "encabulator", "overflow", "flux", "grommet"]


def _diff(path, lines):
    body = "".join(f"+{l}\n" for l in lines)
    return (
        f"diff --git a/{path} b/{path}\n"
        f"--- a/{path}\n+++ b/{path}\n"
        f"@@ -1,0 +1,{len(lines)} @@\n" + body
    )


@pytest.fixture
def corpus_dir(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    changesets = []
    for i in range(8):
        w = WORDS[i : i + 4]
        lines = [" ".join(w), " ".join(reversed(w))]
        if i == 3:
            lines = [" ".join(PLANT), "grommet flux " + WORDS[0]]
        changesets.append(
            {
                "id": f"c{i}",
                "log": f"change {i}",
                "diff": _diff(f"core/File{i}.java", lines),
                "timestamp": f"2021-01-{i + 1:02d}T00:00:00+00:00",
            }
        )
    bugs = [
        {
            "id": "b1",
            "summary": "turbo encabulator overflow",
            "description": "flux grommet",
            "opened_at": "2021-02-01T00:00:00+00:00",
        },
        {
            "id": "b2",
            "summary": "widget handler parser regression",
            "description": "buffer",
            "opened_at": "2021-02-02T00:00:00+00:00",
        },
    ]
    links = [
        {"bug_id": "b1", "changeset_id": "c3"},
        {"bug_id": "b2", "changeset_id": "c0"},
    ]
    (src / "changesets.jsonl").write_text(
        "\n".join(json.dumps(c) for c in changesets) + "\n"
    )
    (src / "bugs.jsonl").write_text("\n".join(json.dumps(b) for b in bugs) + "\n")
    (src / "links.jsonl").write_text("\n".join(json.dumps(l) for l in links) + "\n")
    vocab = tmp_path / "vocab.txt"
    vocab.write_text("\n".join(WORDS + PLANT + ["crash", "regression"]) + "\n")

    corpus = tmp_path / "corpus"
    rc = main(
        [
            "ingest",
            "--changesets", str(src / "changesets.jsonl"),
            "--bugs", str(src / "bugs.jsonl"),
            "--links", str(src / "links.jsonl"),
            "--out", str(corpus),
        ]
    )
    assert rc == 0
    return tmp_path, corpus, vocab


def _index_args(corpus, vocab, session):
    return [
        "index",
        "--corpus", str(corpus),
        "--vocab", str(vocab),
        "--session", str(session),
        "--partitions", "4",
        "--subspaces", "4",
        "--codewords", "16",
        "--d-in", "32",
        "--d-out", "16",
        "--seed", "7",
    ]


def test_ingest_index_query_pipeline(corpus_dir, capsys):
    tmp_path, corpus, vocab = corpus_dir
    session = tmp_path / "session"
    assert main(_index_args(corpus, vocab, session)) == 0
    capsys.readouterr()

    rc = main(
        [
            "query",
            "--session", str(session),
            "--text", "turbo encabulator overflow flux grommet",
            "--topk", "3",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 3
    top = json.loads(out[0])
    assert top["changeset_id"] == "c3"
    assert top["rank"] == 1


def test_index_packs_the_documents_once(corpus_dir, monkeypatch):
    # the pack is built from the embedding's table; the build and the save
    # receive that pack and pack nothing again
    from fbl.embed import PackedCorpus

    tmp_path, corpus, vocab = corpus_dir
    pack = PackedCorpus.from_matrices
    seen = []

    def recording(matrices):
        seen.append(type(matrices))
        return pack(matrices)

    monkeypatch.setattr(PackedCorpus, "from_matrices", staticmethod(recording))
    assert main(_index_args(corpus, vocab, tmp_path / "session")) == 0
    assert seen and all(kind is PackedCorpus for kind in seen)


def test_query_exhaustive_flags_match_exact(corpus_dir, capsys):
    tmp_path, corpus, vocab = corpus_dir
    session = tmp_path / "session"
    assert main(_index_args(corpus, vocab, session)) == 0
    capsys.readouterr()

    base = ["query", "--session", str(session), "--bug-file", str(corpus / "bugs.jsonl"), "--topk", "8"]
    assert main(base + ["--nprobe", "4", "--candidates", "all"]) == 0
    two_stage = capsys.readouterr().out
    assert main(base + ["--exact"]) == 0
    exact = capsys.readouterr().out
    assert two_stage == exact


def test_query_topk_one_single_line(corpus_dir, capsys):
    tmp_path, corpus, vocab = corpus_dir
    session = tmp_path / "session"
    assert main(_index_args(corpus, vocab, session)) == 0
    capsys.readouterr()
    assert main(["query", "--session", str(session), "--text", "widget", "--topk", "1"]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 1


def test_trec_format_and_aggregate(corpus_dir, capsys):
    tmp_path, corpus, vocab = corpus_dir
    session = tmp_path / "session"
    assert main(_index_args(corpus, vocab, session)) == 0
    capsys.readouterr()
    rc = main(
        [
            "query", "--session", str(session),
            "--text", "turbo encabulator overflow",
            "--topk", "2", "--format", "trec", "--aggregate",
        ]
    )
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    parts = lines[0].split()
    assert parts[0] == "adhoc" and parts[1] == "Q0" and parts[3] == "1"
    assert parts[2] == "c3"


def test_evaluate_end_to_end(corpus_dir, capsys, tmp_path):
    base_tmp, corpus, vocab = corpus_dir
    session = base_tmp / "session"
    assert main(_index_args(corpus, vocab, session)) == 0
    run_path = tmp_path / "run.jsonl"
    rc = main(
        [
            "query", "--session", str(session),
            "--bug-file", str(corpus / "bugs.jsonl"),
            "--topk", "8", "--exact",
            "--out", str(run_path),
        ]
    )
    assert rc == 0
    capsys.readouterr()
    metrics_path = tmp_path / "metrics.json"
    rc = main(
        [
            "evaluate",
            "--run", str(run_path),
            "--qrels", str(corpus / "links.jsonl"),
            "--bugs", str(corpus / "bugs.jsonl"),
            "--changesets", str(corpus / "changesets.jsonl"),
            "--out", str(metrics_path),
        ]
    )
    assert rc == 0
    report = json.loads(metrics_path.read_text())
    assert report["overall"]["bugs"] == 2
    assert report["overall"]["mrr"] == 1.0  # both planted bugs rank their changeset first
    assert "categories" in report
    assert report["overall"]["p@1"] == 1.0


def test_changeset_ids_with_colons_score_alike_from_every_run(tmp_path, capsys):
    # a JSONL run names changesets, a TREC run documents; read back, both
    # must name the linked changeset, with or without --aggregate
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    changesets = [
        {"id": "repo:aaa", "diff": _diff("A.java", PLANT), "timestamp": "2021-01-01"},
        {"id": "repo:bbb", "diff": _diff("B.java", WORDS[:5]), "timestamp": "2021-01-02"},
    ]
    bug = {"id": "b1", "summary": " ".join(PLANT[:3]), "opened_at": "2021-02-01"}
    (corpus / "changesets.jsonl").write_text("".join(json.dumps(c) + "\n" for c in changesets))
    (corpus / "bugs.jsonl").write_text(json.dumps(bug) + "\n")
    links = corpus / "links.jsonl"
    links.write_text(json.dumps({"bug_id": "b1", "changeset_id": "repo:aaa"}) + "\n")
    vocab = tmp_path / "vocab.txt"
    vocab.write_text("\n".join(WORDS + PLANT) + "\n")
    session = tmp_path / "session"
    assert main(_index_args(corpus, vocab, session)) == 0
    for fmt in ("jsonl", "trec"):
        for aggregate in ([], ["--aggregate"]):
            run = tmp_path / f"run.{fmt}"
            assert main(["query", "--session", str(session), "--bug-file",
                         str(corpus / "bugs.jsonl"), "--exact", "--format", fmt,
                         "--out", str(run)] + aggregate) == 0
            if fmt == "jsonl":
                named = {json.loads(line)["changeset_id"] for line in run.read_text().splitlines()}
                assert named == {"repo:aaa", "repo:bbb"}
            capsys.readouterr()
            assert main(["evaluate", "--run", str(run), "--qrels", str(links)]) == 0
            report = json.loads(capsys.readouterr().out)
            assert report["overall"]["mrr"] == 1.0, (fmt, aggregate)


def test_train_projection_command(corpus_dir, capsys, tmp_path):
    base_tmp, corpus, vocab = corpus_dir
    proj = tmp_path / "proj.fble"
    rc = main(
        [
            "train-projection",
            "--corpus", str(corpus),
            "--vocab", str(vocab),
            "--out", str(proj),
            "--d-in", "32", "--d-out", "16",
            "--epochs", "2", "--batch-size", "2",
            "--learning-rate", "0.05", "--margin", "1.0",
            "--seed", "7",
        ]
    )
    assert rc == 0
    assert proj.exists()
    out = capsys.readouterr().out
    assert "triplets" in out
    # the trained projection is loadable by index
    session = base_tmp / "session_trained"
    rc = main(_index_args(corpus, vocab, session) + ["--projection", str(proj)])
    assert rc == 0


def test_bench_emits_csv(corpus_dir, capsys, tmp_path):
    base_tmp, corpus, vocab = corpus_dir
    session = base_tmp / "session"
    assert main(_index_args(corpus, vocab, session)) == 0
    out_csv = tmp_path / "bench.csv"
    rc = main(
        [
            "bench", "--session", str(session),
            "--sizes", "20,60",
            "--queries", "2",
            "--out", str(out_csv),
        ]
    )
    assert rc == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0].startswith("embeddings,docs,partitions")
    assert len(lines) == 3


def test_out_of_range_counts_exit_1_naming_the_flag(corpus_dir, capsys):
    tmp_path, corpus, vocab = corpus_dir
    session = tmp_path / "session"
    assert main(_index_args(corpus, vocab, session)) == 0
    bad = [
        ("--candidates", "0"),
        ("--candidates", "-3"),
        ("--candidates", "x"),
        ("--topk", "0"),
        ("--topk", "-1"),
        ("--nprobe", "0"),
        ("--nprobe", "-2"),
    ]
    bench_only = [("--queries", "0"), ("--sizes", "abc"), ("--sizes", "-5"), ("--sizes", "40,0")]
    for command, extra, flags in (
        ("query", ["--text", "widget"], bad),
        ("bench", ["--sizes", "40"], bad + bench_only),
    ):
        for flag, value in flags:
            capsys.readouterr()
            assert main([command, "--session", str(session), *extra, flag, value]) == 1
            err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
            assert err["kind"] == "usage" and flag in err["error"], (command, flag, value)
    train = ["train-projection", "--corpus", str(corpus), "--vocab", str(vocab),
             "--out", str(tmp_path / "never.fble"), "--d-in", "32", "--d-out", "16"]
    for flag, value in [
        ("--margin", "nan"), ("--margin", "0"), ("--learning-rate", "nan"),
        ("--learning-rate", "inf"), ("--learning-rate", "-1"), ("--epochs", "-1"),
        ("--batch-size", "0"), ("--seed", "-1"), ("--d-out", "64"),
    ]:
        capsys.readouterr()
        assert main([*train, flag, value]) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["kind"] == "usage" and flag in err["error"], (flag, value)
        assert not (tmp_path / "never.fble").exists()
    capsys.readouterr()
    assert main(_index_args(corpus, vocab, tmp_path / "s2") + ["--seed", "-1"]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["kind"] == "usage" and "--seed" in err["error"]
    index_flags = [
        "--candidates", "--partitions", "--subspaces", "--codewords", "--nprobe",
        "--query-limit", "--doc-limit", "--d-in", "--d-out",
    ]
    for flag in index_flags:
        for value in ("0", "-1"):
            capsys.readouterr()
            assert main(_index_args(corpus, vocab, tmp_path / "s2") + [flag, value]) == 1
            err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
            assert err["kind"] == "usage" and flag in err["error"], (flag, value)
    # below the encoder's minima or outside the index's shape, and rejected
    # before the corpus is read: the corpus directory does not exist
    no_corpus = _index_args(tmp_path / "no-corpus", vocab, tmp_path / "s3")
    for flag, value in [
        ("--query-limit", "2"), ("--doc-limit", "3"), ("--codewords", "300"),
        ("--subspaces", "7"), ("--d-out", "1000"),
    ]:
        capsys.readouterr()
        assert main(no_corpus + [flag, value]) == 1, flag
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["kind"] == "usage" and flag in err["error"], (flag, value)
        assert not (tmp_path / "s3").exists()


def test_query_encodes_to_the_indexed_query_limit(corpus_dir, capsys):
    # [CLS] [Q] turbo encabulator [SEP]: the rest of a long text is cut
    tmp_path, corpus, vocab = corpus_dir
    long_text, head = "turbo encabulator overflow flux grommet widget", "turbo encabulator"
    outputs = {}
    for limit in ("5", "256"):
        session = tmp_path / f"session{limit}"
        assert main(_index_args(corpus, vocab, session) + ["--query-limit", limit]) == 0
        for text in (long_text, head):
            capsys.readouterr()
            assert main(["query", "--session", str(session), "--text", text, "--topk", "8"]) == 0
            outputs[limit, text] = capsys.readouterr().out
    assert outputs["5", long_text] == outputs["5", head]
    assert outputs["256", long_text] != outputs["256", head]
    assert outputs["5", head] == outputs["256", head]


def test_config_rejects_candidates_below_one():
    with pytest.raises(ValueError, match="candidates"):
        Config(candidates=0)
    assert Config(candidates=None).candidates is None
    with pytest.raises(ValueError, match="seed"):
        Config(seed=-1)
    assert Config(seed=0).seed == 0


@pytest.mark.parametrize("name, least", sorted(CONFIG_LEAST.items()))
def test_config_takes_each_count_down_to_its_least_value(name, least):
    with pytest.raises(ValueError, match=f"{name} must be >= {least}"):
        Config(**{name: least - 1})
    assert getattr(Config(**{name: least}), name) == least


@pytest.mark.parametrize(
    "command, flag",
    [("train-projection", flag)
     for flag in ("--partitions", "--subspaces", "--codewords", "--nprobe", "--candidates")]
    + [("index", "--nprobe"), ("index", "--candidates")]
    + [(command, flag) for command in ("train-projection", "index")
       for flag in ("--hunk-limit", "--file-limit", "--changeset-limit")],
)
def test_a_flag_the_command_does_not_read_exits_1(corpus_dir, capsys, tmp_path, command, flag):
    _, corpus, vocab = corpus_dir
    out = tmp_path / "out"
    if command == "index":
        argv = _index_args(corpus, vocab, out)
    else:
        argv = _train_args(corpus, vocab, out)
    capsys.readouterr()
    assert main(argv + [flag, "4"]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["kind"] == "usage" and f"unrecognized arguments: {flag} 4" in err["error"]
    assert not out.exists()


def test_index_without_config_flags_records_what_config_describes(tmp_path):
    # enough distinct rows for the default 320 partitions: 3 changesets of 120 words each
    words = [f"q{a}{b}" for a in "abcdefghijklmnop" for b in "abcdefghijklmnopqrstuvw"][:360]
    changesets = tmp_path / "changesets.jsonl"
    changesets.write_text("".join(
        json.dumps({"id": f"c{i}", "diff": _diff(f"F{i}.java", [" ".join(words[i::3])] * 2),
                    "timestamp": f"2021-01-0{i + 1}"}) + "\n"
        for i in range(3)
    ))
    vocab = tmp_path / "vocab.txt"
    vocab.write_text("\n".join(words) + "\n")
    assert main(["ingest", "--changesets", str(changesets), "--out", str(tmp_path / "c")]) == 0
    session = tmp_path / "session"
    argv = ["index", "--corpus", str(tmp_path / "c"), "--vocab", str(vocab), "--session"]
    assert main(argv + [str(session)]) == 0
    manifest = json.loads((session / "manifest.json").read_text())
    assert Config(**{name: manifest[name] for name in MANIFEST_FIELDS}) == Config()
    assert (manifest["doc_limit"], manifest["embedder_seed"]) == (256, 42)
    # the tuple names every field that the manifest and Config share
    shared = {f.name for f in dataclasses.fields(Manifest)} & set(Config.__dataclass_fields__)
    assert set(MANIFEST_FIELDS) == shared


def test_index_records_the_config_it_built_with(corpus_dir, tmp_path, monkeypatch):
    from fbl import cli, pipeline

    build, encode, built, limits = cli.build_session, pipeline.encode_documents, [], []

    def building(changesets, vocab, config, **kwargs):
        built.append(config)
        return build(changesets, vocab, config, **kwargs)

    def encoding(docs, strategy, vocab, limit):
        seqs = encode(docs, strategy, vocab, limit)
        limits.extend(s.limit for s in seqs.values())
        return seqs

    monkeypatch.setattr(cli, "build_session", building)
    monkeypatch.setattr(pipeline, "encode_documents", encoding)
    _, corpus, vocab = corpus_dir
    session = tmp_path / "session"
    argv = _index_args(corpus, vocab, session)
    assert main(argv + ["--granularity", "file", "--doc-limit", "100", "--query-limit", "64"]) == 0
    manifest = json.loads((session / "manifest.json").read_text())
    assert [Config(**{name: manifest[name] for name in MANIFEST_FIELDS})] == built
    assert (built[0].doc_limit, built[0].query_limit) == (100, 64)
    assert limits and set(limits) == {100}


def test_a_doc_limit_past_every_document_writes_the_default_files(corpus_dir, tmp_path):
    _, corpus, vocab = corpus_dir
    wrote = []
    for i, limit in enumerate(([], ["--doc-limit", "20000"])):
        out = tmp_path / f"run{i}"
        assert main(_index_args(corpus, vocab, out / "session") + limit) == 0
        assert main(_train_args(corpus, vocab, out / "proj.fble") + ["--epochs", "2"] + limit) == 0
        wrote.append([(out / name).read_bytes()
                      for name in ("session/docs.fblp", "session/index.fbli", "proj.fble")])
    assert wrote[0] == wrote[1]


def test_train_projection_does_not_ask_subspaces_to_divide_d_out(corpus_dir, tmp_path):
    # --subspaces belongs to `fbl index`, so only --d-in bounds --d-out here
    _, corpus, vocab = corpus_dir
    out = tmp_path / "p12.fble"
    assert main(_train_args(corpus, vocab, out) + ["--d-out", "12"]) == 0
    assert out.exists()


def test_index_with_fewer_distinct_rows_than_partitions_queries_every_document(
    tmp_path, capsys
):
    # hundreds of embeddings but a handful of distinct rows: 320 partitions
    # would be copies of a few places, and `fbl query` probing them ranked nothing
    changesets = tmp_path / "changesets.jsonl"
    changesets.write_text("".join(
        json.dumps({"id": f"c{i:02d}", "diff": _diff(f"F{i}.java", [" ".join(WORDS[:7])] * 2),
                    "timestamp": f"2021-01-01T00:{i:02d}:00"}) + "\n"
        for i in range(40)
    ))
    vocab = tmp_path / "vocab.txt"
    vocab.write_text("\n".join(WORDS[:7]) + "\n")
    assert main(["ingest", "--changesets", str(changesets), "--out", str(tmp_path / "c")]) == 0
    session = tmp_path / "session"
    capsys.readouterr()
    argv = ["index", "--corpus", str(tmp_path / "c"), "--vocab", str(vocab), "--session"]
    assert main(argv + [str(session)]) == 0
    found = re.search(r"\((\d+) embeddings, P=(\d+)\)", capsys.readouterr().out)
    assert found and 0 < int(found[2]) < 320 <= int(found[1])
    ranked = {}
    for extra in (["--candidates", "all"], ["--exact"]):
        query = ["query", "--session", str(session), "--text", "widget handler"]
        assert main(query + extra) == 0
        ranked[extra[0]] = [json.loads(line)["changeset_id"]
                            for line in capsys.readouterr().out.splitlines()]
    assert len(ranked["--exact"]) == 10
    assert ranked["--candidates"] == ranked["--exact"]


def test_bench_takes_at_most_one_partition_per_distinct_row():
    from fbl.embed import EmbeddingMatrix
    from fbl.pipeline import sweep_latency

    rng = np.random.default_rng(8)
    table = rng.standard_normal((6, 8)).astype(np.float32)
    table /= np.linalg.norm(table, axis=1, keepdims=True)
    docs = {f"c{i:02d}:0:0": EmbeddingMatrix(rows=table[rng.permutation(6)[:4]])
            for i in range(30)}
    config = Config(n_partitions=320, n_subspaces=2, n_codewords=16, d_in=8, d_out=8)
    rows = sweep_latency(docs, [1, 200], config, n_queries=1, query_rows=4)
    assert [(r.embeddings, r.docs, r.partitions) for r in rows] == [(4, 1, 4), (120, 30, 6)]
    assert [r.nprobe for r in rows] == [4, 6]


def test_train_projection_without_training_flags_trains_as_the_defaults(
    corpus_dir, tmp_path, monkeypatch
):
    from fbl import cli
    from fbl.embed import TripletTrainConfig

    train, seen = cli.train_projection, []

    def recording(triplets, queries, docs, embedder, cfg, **kwargs):
        seen.append((embedder.d_in, cfg, kwargs))
        return train(triplets, queries, docs, embedder, cfg, **kwargs)

    monkeypatch.setattr(cli, "train_projection", recording)
    _, corpus, vocab = corpus_dir
    argv = ["train-projection", "--corpus", str(corpus), "--vocab", str(vocab), "--out"]
    assert main(argv + [str(tmp_path / "proj.fble")]) == 0
    assert seen == [(768, TripletTrainConfig(seed=42), {"d_out": 128})]


def test_index_stores_the_vocabulary_bytes_it_hashed(corpus_dir, capsys, tmp_path):
    # CRLF line ends and a Latin-1 byte: parsed as `fbl query` parses them,
    # stored as they are
    _, corpus, vocab = corpus_dir
    raw = vocab.read_bytes().replace(b"\n", b"\r\n") + b"caf\xe9\r\n"
    odd = tmp_path / "vocab.txt"
    odd.write_bytes(raw)
    session = tmp_path / "session"
    assert main(_index_args(corpus, odd, session)) == 0
    assert (session / "vocab.txt").read_bytes() == raw
    manifest = json.loads((session / "manifest.json").read_text())
    digest = hashlib.sha256(raw).hexdigest()
    assert manifest["vocab_hash"] == manifest["checksums"]["vocab.txt"] == digest
    capsys.readouterr()
    assert main(["query", "--session", str(session), "--text", "turbo encabulator"]) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[0])["changeset_id"] == "c3"


def test_session_env_var_default(corpus_dir, capsys, monkeypatch):
    tmp_path, corpus, vocab = corpus_dir
    session = tmp_path / "session"
    assert main(_index_args(corpus, vocab, session)) == 0
    capsys.readouterr()
    monkeypatch.setenv("FBL_SESSION", str(session))
    assert main(["query", "--text", "widget handler", "--topk", "1"]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 1


def test_exit_codes(tmp_path, capsys):
    # usage error: unknown flag
    assert main(["query", "--bogus"]) == 1
    # usage error: missing required
    assert main(["ingest", "--out", str(tmp_path / "x")]) == 1
    # data error: nonexistent input file
    rc = main(
        [
            "ingest",
            "--changesets", str(tmp_path / "missing.jsonl"),
            "--out", str(tmp_path / "c"),
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()[-1]
    assert json.loads(err)["kind"] in ("data", "usage") or "error" in json.loads(err)


def test_ingest_leaves_only_the_files_it_was_given(corpus_dir, capsys, tmp_path):
    base_tmp, corpus, vocab = corpus_dir
    argv = ["ingest", "--changesets", str(base_tmp / "src" / "changesets.jsonl")]
    assert main(argv + ["--out", str(corpus)]) == 0
    assert "0 bugs, 0 links" in capsys.readouterr().out
    assert not (corpus / "bugs.jsonl").exists() and not (corpus / "links.jsonl").exists()
    assert main(_train_args(corpus, vocab, tmp_path / "proj.fble")) == 2
    assert "training needs links.jsonl" in json.loads(capsys.readouterr().err)["error"]


@pytest.mark.parametrize("command", ["ingest", "index", "query", "train-projection"])
def test_an_output_path_that_cannot_be_written_exits_2_naming_it(corpus_dir, capsys, tmp_path,
                                                                 command):
    base_tmp, corpus, vocab = corpus_dir
    a_file, a_dir = tmp_path / "taken", tmp_path / "dir"
    a_file.write_text("x")
    a_dir.mkdir()
    session = base_tmp / "session"
    if command == "query":
        assert main(_index_args(corpus, vocab, session)) == 0
    argv, bad = {
        "ingest": (["ingest", "--changesets", str(corpus / "changesets.jsonl"), "--out",
                    str(a_file)], a_file),
        "index": (_index_args(corpus, vocab, a_file), a_file),
        "query": (["query", "--session", str(session), "--text", "widget", "--out", str(a_dir)],
                  a_dir),
        "train-projection": (_train_args(corpus, vocab, a_dir), a_dir),
    }[command]
    capsys.readouterr()
    assert main(argv) == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["kind"] == "data" and str(bad) in payload["error"]


@pytest.mark.parametrize(
    "command,bad",
    [("train-projection", "dir"), ("train-projection", "nodir/p.fble"), ("index", "taken"),
     ("index", "taken/session"), ("bench", "dir"), ("bench", "nodir/b.csv"), ("query", "dir"),
     ("query", "nodir/run.jsonl"), ("evaluate", "dir"), ("evaluate", "nodir/m.json")],
)
def test_an_unusable_output_path_exits_2_before_any_work(corpus_dir, capsys, tmp_path,
                                                          monkeypatch, command, bad):
    base_tmp, corpus, vocab = corpus_dir
    (tmp_path / "taken").write_text("x")
    (tmp_path / "dir").mkdir()
    session = base_tmp / "session"
    if command in ("bench", "query"):
        assert main(_index_args(corpus, vocab, session)) == 0
    run = tmp_path / "run.jsonl"
    run.write_text(json.dumps(_GOOD_RUN) + "\n")
    reached = []
    for name in ("train_projection", "build_session", "sweep_latency", "run_query"):
        monkeypatch.setattr(fbl.cli, name, lambda *a, name=name, **k: reached.append(name))
    monkeypatch.setattr(fbl.evaluation, "read_run", lambda *a, **k: reached.append("read_run"))
    out = tmp_path / bad
    argv = {
        "train-projection": _train_args(corpus, vocab, out),
        "index": _index_args(corpus, vocab, out),
        "bench": ["bench", "--session", str(session), "--sizes", "20", "--out", str(out)],
        "query": ["query", "--session", str(session), "--text", "widget", "--out", str(out)],
        "evaluate": ["evaluate", "--run", str(run), "--qrels", str(corpus / "links.jsonl"),
                     "--out", str(out)],
    }[command]
    capsys.readouterr()
    assert main(argv) == 2
    assert reached == []
    assert json.loads(capsys.readouterr().err)["error"].startswith(f"{out}: ")


def test_a_failed_projection_write_leaves_the_earlier_file(corpus_dir, capsys, tmp_path,
                                                           monkeypatch):
    base_tmp, corpus, vocab = corpus_dir
    out = tmp_path / "out" / "proj.fble"
    out.parent.mkdir()
    assert main(_train_args(corpus, vocab, out) + ["--epochs", "0"]) == 0
    before = out.read_bytes()
    real_open = builtins.open

    class FullDisk:  # the first write (the FBLE magic and header) lands; the next fails
        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.writes += 1
            if self.writes > 1:
                raise OSError(errno.ENOSPC, "No space left on device")
            return self.fh.write(data)

    def failing_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return FullDisk(fh) if mode == "wb" else fh

    monkeypatch.setattr(builtins, "open", failing_open)
    assert main(_train_args(corpus, vocab, out)) == 2
    monkeypatch.undo()
    assert out.read_bytes() == before
    assert list(out.parent.iterdir()) == [out]  # no temp file left behind


@pytest.mark.parametrize("command", ["index", "train-projection", "query"])
def test_a_vocabulary_with_a_repeated_token_exits_2_naming_its_file(corpus_dir, capsys, tmp_path,
                                                                     command):
    base_tmp, corpus, vocab = corpus_dir
    dup = tmp_path / "dup.txt"
    dup.write_text(vocab.read_text() + "widget\n")
    session = tmp_path / "session"
    if command == "query":  # the session's own vocab.txt, with the manifest vouching for it
        assert main(_index_args(corpus, vocab, session)) == 0
        dup = session / "vocab.txt"
        dup.write_text(vocab.read_text() + "widget\n")
        data = json.loads((session / "manifest.json").read_text())
        data["checksums"]["vocab.txt"] = hashlib.sha256(dup.read_bytes()).hexdigest()
        (session / "manifest.json").write_text(json.dumps(data))
    argv = {
        "index": _index_args(corpus, dup, session),
        "train-projection": _train_args(corpus, dup, tmp_path / "proj.fble"),
        "query": ["query", "--session", str(session), "--text", "widget"],
    }[command]
    capsys.readouterr()
    assert main(argv) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == f"{dup}: duplicate vocabulary token 'widget'"


def test_stderr_is_one_json_line(tmp_path):
    # a fresh interpreter, so import-time output would land on stderr too
    env = {k: v for k, v in os.environ.items() if k != "FBL_SESSION"}
    paths = [str(Path(fbl.__file__).parents[1]), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    for argv in (
        ["query"],  # no session
        ["query", "--bogus"],  # an unknown flag
        ["ingest", "--out", str(tmp_path / "x")],  # a required flag missing
    ):
        proc = subprocess.run([sys.executable, "-m", "fbl.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1, argv
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["kind"] == "usage", (argv, lines)


_GOOD_CHANGESET = {"id": "c0", "diff": _diff("A.java", ["int x;"]), "timestamp": "2021-01-01"}
_GOOD_RUN = {"bug_id": "b1", "doc_id": "c0:0:0", "rank": 1, "score": 0.5}


@pytest.mark.parametrize(
    "name,bad_line,command",
    [
        ("changesets.jsonl", "[1]", "ingest"),
        ("changesets.jsonl", json.dumps({**_GOOD_CHANGESET, "id": "c1", "timestamp": "yesterday"}),
         "ingest"),
        ("changesets.jsonl", json.dumps({**_GOOD_CHANGESET, "id": "abc:0:1"}), "ingest"),
        ("run.jsonl", "{bad json", "evaluate"),
        ("run.trec", "b1 Q0 c0:0:0 first 0.5 fbl", "evaluate"),
        ("run.jsonl", json.dumps({**_GOOD_RUN, "doc_id": 5}), "evaluate"),
        ("run.jsonl", json.dumps({**_GOOD_RUN, "bug_id": 7}), "evaluate"),
    ],
    ids=["line_not_an_object", "bad_timestamp", "document_suffix_id", "bad_json_run_line",
         "non_integer_trec_rank", "integer_doc_id", "integer_bug_id"],
)
def test_malformed_input_line_exits_2_naming_file_and_line(
    tmp_path, capsys, name, bad_line, command
):
    first = json.dumps(_GOOD_CHANGESET if command == "ingest" else _GOOD_RUN)
    path = tmp_path / name
    path.write_text(first + "\n" + bad_line + "\n")
    links = tmp_path / "links.jsonl"
    links.write_text(json.dumps({"bug_id": "b1", "changeset_id": "c0"}) + "\n")
    if command == "ingest":
        argv = ["ingest", "--changesets", str(path), "--out", str(tmp_path / "out")]
    else:
        argv = ["evaluate", "--run", str(path), "--qrels", str(links)]
    assert main(argv) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["kind"] == "data"
    assert f"{path}:2:" in payload["error"]


def test_query_takes_exactly_one_input(tmp_path, capsys):
    # rejected before the session is opened: it does not exist
    missing = ["query", "--session", str(tmp_path / "missing")]
    for extra in (["--text", "widget", "--bug-file", str(tmp_path / "bugs.jsonl")], []):
        capsys.readouterr()
        assert main(missing + extra) == 1, extra
        err = json.loads(capsys.readouterr().err.strip())
        assert err["kind"] == "usage" and "--text" in err["error"] and "--bug-file" in err["error"]


def test_evaluate_takes_bugs_and_changesets_together(tmp_path, capsys):
    # rejected before the run is read: it does not exist
    argv = ["evaluate", "--run", str(tmp_path / "run.jsonl"), "--qrels", str(tmp_path / "q")]
    for flag in ("--bugs", "--changesets"):
        capsys.readouterr()
        assert main(argv + [flag, str(tmp_path / "x.jsonl")]) == 1, flag
        err = json.loads(capsys.readouterr().err.strip())
        assert err["kind"] == "usage" and "--bugs" in err["error"] and "--changesets" in err["error"]


def test_evaluate_against_qrels_without_links_exits_2_naming_the_file(tmp_path, capsys):
    run, links = tmp_path / "run.jsonl", tmp_path / "links.jsonl"
    run.write_text(json.dumps(_GOOD_RUN) + "\n")
    links.write_text("\n")
    assert main(["evaluate", "--run", str(run), "--qrels", str(links)]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["kind"] == "data" and str(links) in err["error"]


@pytest.mark.parametrize("flag", ["--changesets", "--bugs"])
@pytest.mark.parametrize("bad_id", ["fix a", "", " c1", "c1\t"],
                         ids=["inner_space", "empty", "leading_space", "trailing_tab"])
def test_ingest_rejects_an_id_a_trec_run_cannot_carry(tmp_path, capsys, flag, bad_id):
    # a TREC line splits on whitespace, so such an id would not read back
    changesets, bugs = tmp_path / "changesets.jsonl", tmp_path / "bugs.jsonl"
    bad = {"id": bad_id, "summary": "crash", "opened_at": "2021-01-01"}
    changesets.write_text(json.dumps(_GOOD_CHANGESET) + "\n" + (
        json.dumps({**_GOOD_CHANGESET, "id": bad_id}) + "\n" if flag == "--changesets" else ""))
    bugs.write_text(json.dumps({**bad, "id": "b1"}) + "\n" + (
        json.dumps(bad) + "\n" if flag == "--bugs" else ""))
    argv = ["ingest", "--changesets", str(changesets), "--bugs", str(bugs),
            "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    path = changesets if flag == "--changesets" else bugs
    assert payload["kind"] == "data" and f"{path}:2:" in payload["error"]


def _non_utf8(blob: bytes) -> bytes:
    return blob[:20] + b"\xff" + blob[21:]


def _set(field, value):
    def edit(blob: bytes) -> bytes:
        data = json.loads(blob)
        data[field] = value
        return json.dumps(data).encode()

    return edit


def _no_vocab_checksum(blob: bytes) -> bytes:
    data = json.loads(blob)
    del data["checksums"]["vocab.txt"]
    return json.dumps(data).encode()


@pytest.mark.parametrize(
    "edit",
    [_non_utf8, _set("checksums", 5), _set("granularity", "paragraph"), _set("d_in", -3),
     _no_vocab_checksum, _set("d_out", 8), _set("doc_limit", 3)],
    ids=["non_utf8", "checksums_int", "unknown_granularity", "negative_d_in", "no_vocab_checksum",
         "d_out_not_the_projections", "doc_limit_below_4"],
)
def test_query_on_a_bad_manifest_exits_2(corpus_dir, capsys, edit):
    base_tmp, corpus, vocab = corpus_dir
    session = base_tmp / "session"
    assert main(_index_args(corpus, vocab, session)) == 0
    manifest = session / "manifest.json"
    manifest.write_bytes(edit(manifest.read_bytes()))
    capsys.readouterr()
    assert main(["query", "--session", str(session), "--text", "widget"]) == 2
    assert "manifest.json" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["query", "bench"])
def test_an_unknown_embedder_kind_in_the_manifest_exits_2(corpus_dir, capsys, command):
    base_tmp, corpus, vocab = corpus_dir
    session = base_tmp / "session"
    assert main(_index_args(corpus, vocab, session)) == 0
    manifest = session / "manifest.json"
    manifest.write_bytes(_set("embedder_kind", "foo")(manifest.read_bytes()))
    capsys.readouterr()
    argv = {"query": ["--text", "widget"], "bench": ["--sizes", "20", "--queries", "1"]}[command]
    assert main([command, "--session", str(session)] + argv) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["kind"] == "data" and "manifest.json" in payload["error"]


def test_bench_without_a_size_exits_1_before_reading_the_session(tmp_path, capsys):
    missing = tmp_path / "no_session"
    for sizes in (",", ""):
        assert main(["bench", "--session", str(missing), "--sizes", sizes]) == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["kind"] == "usage" and "--sizes" in payload["error"]


def test_data_error_on_malformed_diff(tmp_path, capsys):
    bad = tmp_path / "changesets.jsonl"
    bad.write_text(
        json.dumps(
            {
                "id": "c1",
                "log": "",
                "diff": "diff --git a/x b/x\n--- a/x\n+++ b/x\n@@ broken @@\n",
                "timestamp": "2021-01-01T00:00:00+00:00",
            }
        )
        + "\n"
    )
    rc = main(["ingest", "--changesets", str(bad), "--out", str(tmp_path / "c")])
    assert rc == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "line" in payload["error"]


def test_file_embedder_roundtrip(corpus_dir, capsys, tmp_path):
    import numpy as np
    from fbl.store import write_matrix_file
    from fbl.encode import Vocabulary

    base_tmp, corpus, vocab = corpus_dir
    # static per-token matrix covering the whole vocabulary
    v = Vocabulary.from_file(vocab)
    rng = np.random.default_rng(0)
    table = rng.standard_normal((len(v), 32)).astype(np.float32)
    emb_path = tmp_path / "emb.fble"
    write_matrix_file(emb_path, table)

    session = tmp_path / "session_file_emb"
    rc = main(_index_args(corpus, vocab, session) + ["--embedder", f"file:{emb_path}"])
    assert rc == 0
    capsys.readouterr()
    rc = main(["query", "--session", str(session), "--text", "turbo encabulator overflow", "--topk", "1"])
    assert rc == 0
    top = json.loads(capsys.readouterr().out.strip())
    assert top["changeset_id"] == "c3"


def _short_table(vocab, path):
    """An FBLE table one row short of the vocabulary; returns its row count."""
    import numpy as np
    from fbl.store import write_matrix_file
    from fbl.encode import Vocabulary

    rows = len(Vocabulary.from_file(vocab)) - 1
    write_matrix_file(path, np.random.default_rng(0).standard_normal((rows, 32)))
    return rows


def _assert_short_table_error(capsys, path, rows):
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["kind"] == "data"
    assert str(path) in payload["error"]
    assert f"{rows} rows" in payload["error"] and f"{rows + 1} ids" in payload["error"]


def _train_args(corpus, vocab, out):
    return ["train-projection", "--corpus", str(corpus), "--vocab", str(vocab),
            "--out", str(out), "--d-in", "32", "--d-out", "16"]


def test_index_with_a_projection_of_another_d_out_exits_2(corpus_dir, capsys, tmp_path):
    base_tmp, corpus, vocab = corpus_dir
    proj = tmp_path / "p8.fble"
    assert main(_train_args(corpus, vocab, proj)[:-1] + ["8", "--epochs", "0"]) == 0
    session = tmp_path / "session"
    capsys.readouterr()
    assert main(_index_args(corpus, vocab, session) + ["--projection", str(proj)]) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "projection d_out=8 != configured d_out=16" in payload["error"]
    assert not session.exists()


@pytest.mark.parametrize("command", ["index", "train-projection"])
def test_file_embedder_short_of_the_vocabulary_exits_2(corpus_dir, capsys, tmp_path,
                                                       monkeypatch, command):
    from fbl.embed import FileEmbedder

    base_tmp, corpus, vocab = corpus_dir
    emb_path = tmp_path / "short.fble"
    rows = _short_table(vocab, emb_path)

    def embedded(self, ids):
        raise AssertionError("a document was embedded")

    monkeypatch.setattr(FileEmbedder, "embed_ids", embedded)
    if command == "index":
        argv = _index_args(corpus, vocab, tmp_path / "session")
    else:
        argv = _train_args(corpus, vocab, tmp_path / "proj.fble")
    capsys.readouterr()
    assert main(argv + ["--embedder", f"file:{emb_path}"]) == 2
    _assert_short_table_error(capsys, emb_path, rows)


@pytest.mark.parametrize("command", ["index", "train-projection"])
def test_non_finite_file_embedder_exits_2_naming_the_row(corpus_dir, capsys, tmp_path, command):
    import numpy as np
    from fbl.store import write_matrix_file
    from fbl.encode import Vocabulary

    base_tmp, corpus, vocab = corpus_dir
    table = np.random.default_rng(0).standard_normal((len(Vocabulary.from_file(vocab)), 32))
    table[5, 3] = np.inf
    table[7, 0] = np.nan
    emb_path = tmp_path / "bad.fble"
    write_matrix_file(emb_path, table)
    if command == "index":
        argv = _index_args(corpus, vocab, tmp_path / "session")
    else:
        argv = _train_args(corpus, vocab, tmp_path / "proj.fble")
    capsys.readouterr()
    assert main(argv + ["--embedder", f"file:{emb_path}"]) == 2
    payload = json.loads(capsys.readouterr().err)  # one JSON line, no numpy warning
    assert payload == {"error": f"{emb_path}: row 5 of the token table is not finite",
                       "kind": "data"}


def test_train_projection_prints_one_mean_loss_per_epoch(corpus_dir, capsys, tmp_path):
    base_tmp, corpus, vocab = corpus_dir
    argv = _train_args(corpus, vocab, tmp_path / "proj.fble")
    capsys.readouterr()
    assert main(argv + ["--epochs", "0"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "trained on 1 triplets for 0 epochs"
    assert main(argv + ["--epochs", "2"]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert re.fullmatch(
        r"trained on 1 triplets for 2 epochs; mean loss per epoch: \d+\.\d{4}, \d+\.\d{4}", first
    )


def test_query_on_a_session_whose_embedder_is_short_exits_2(corpus_dir, capsys, tmp_path):
    import hashlib

    import numpy as np
    from fbl.store import write_matrix_file
    from fbl.encode import Vocabulary

    base_tmp, corpus, vocab = corpus_dir
    full = tmp_path / "full.fble"
    write_matrix_file(full, np.ones((len(Vocabulary.from_file(vocab)), 32)))
    session = tmp_path / "session"
    assert main(_index_args(corpus, vocab, session) + ["--embedder", f"file:{full}"]) == 0
    # swap in a shorter table, with a checksum that matches it
    emb_path = session / "embedder.fble"
    rows = _short_table(vocab, emb_path)
    manifest = session / "manifest.json"
    data = json.loads(manifest.read_bytes())
    data["checksums"]["embedder.fble"] = hashlib.sha256(emb_path.read_bytes()).hexdigest()
    manifest.write_text(json.dumps(data))
    capsys.readouterr()
    # "turbo" and the query marks all have rows; only the vocabulary's last id has none
    assert main(["query", "--session", str(session), "--text", "turbo"]) == 2
    _assert_short_table_error(capsys, emb_path, rows)


def test_train_projection_rejects_a_link_to_an_unknown_bug(corpus_dir, capsys, tmp_path):
    base_tmp, corpus, vocab = corpus_dir
    with open(corpus / "links.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"bug_id": "b9", "changeset_id": "c1"}) + "\n")
    capsys.readouterr()
    assert main(_train_args(corpus, vocab, tmp_path / "proj.fble")) == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload == {"error": "link references unknown bug 'b9'", "kind": "data"}


def test_query_deterministic_across_runs(corpus_dir, capsys, tmp_path):
    base_tmp, corpus, vocab = corpus_dir
    session = base_tmp / "session"
    assert main(_index_args(corpus, vocab, session)) == 0
    capsys.readouterr()
    args = ["query", "--session", str(session), "--bug-file", str(corpus / "bugs.jsonl"), "--topk", "5"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second


def test_a_bugs_ranking_does_not_depend_on_the_other_bugs_in_the_file(corpus_dir, capsys,
                                                                      tmp_path):
    # queries share tokens, so a bug's rows come from the projection's memo
    # filled by whichever bugs came before it
    base_tmp, corpus, vocab = corpus_dir
    session = base_tmp / "session"
    assert main(_index_args(corpus, vocab, session)) == 0
    bugs = [{"id": f"q{i}", "summary": " ".join((WORDS + PLANT)[i : i + 3 + i % 4]),
             "description": PLANT[i % 5], "opened_at": "2021-03-01T00:00:00+00:00"}
            for i in range(12)]
    runs = []
    for order in (bugs, bugs[::-1]):
        (tmp_path / "bugs.jsonl").write_text("".join(json.dumps(b) + "\n" for b in order))
        capsys.readouterr()
        assert main(["query", "--session", str(session), "--bug-file",
                     str(tmp_path / "bugs.jsonl"), "--topk", "5"]) == 0
        lines: dict[str, list[str]] = {}
        for line in capsys.readouterr().out.splitlines():
            lines.setdefault(json.loads(line)["bug_id"], []).append(line)
        runs.append(lines)
    assert set(runs[0]) == {b["id"] for b in bugs} and runs[0] == runs[1]


def test_a_session_embedder_of_another_width_than_d_in_exits_2_naming_it(corpus_dir, capsys,
                                                                         tmp_path):
    from fbl.encode import Vocabulary
    from fbl.store import write_matrix_file

    base_tmp, corpus, vocab = corpus_dir
    rows = len(Vocabulary.from_file(vocab))
    full = tmp_path / "full.fble"
    write_matrix_file(full, np.ones((rows, 32)))
    session = tmp_path / "session"
    assert main(_index_args(corpus, vocab, session) + ["--embedder", f"file:{full}"]) == 0
    # a narrower table, with a checksum that matches it
    emb_path = session / "embedder.fble"
    write_matrix_file(emb_path, np.ones((rows, 12)))
    manifest = session / "manifest.json"
    data = json.loads(manifest.read_bytes())
    data["checksums"]["embedder.fble"] = hashlib.sha256(emb_path.read_bytes()).hexdigest()
    manifest.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["query", "--session", str(session), "--text", "turbo"]) == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload == {"error": f"{emb_path}: dim 12, but the manifest's d_in is 32",
                       "kind": "data"}


def test_index_reads_the_embedder_file_once(corpus_dir, capsys, tmp_path, monkeypatch):
    # the table the documents are embedded with is the table the session stores
    from fbl.encode import Vocabulary
    from fbl.store import write_matrix_file

    base_tmp, corpus, vocab = corpus_dir
    emb_path = tmp_path / "emb.fble"
    rows = len(Vocabulary.from_file(vocab))
    write_matrix_file(emb_path, np.random.default_rng(1).standard_normal((rows, 32)))
    opened = []
    real_open = io.open

    def recording_open(file, *args, **kwargs):
        opened.append(os.path.basename(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", recording_open)
    monkeypatch.setattr(builtins, "open", recording_open)
    session = tmp_path / "session"
    assert main(_index_args(corpus, vocab, session) + ["--embedder", f"file:{emb_path}"]) == 0
    monkeypatch.undo()
    assert opened.count("emb.fble") == 1
    assert (session / "embedder.fble").read_bytes() == emb_path.read_bytes()


_FBL_IN_A_CHILD = """
import os, sys
if sys.argv[1] == "one-cpu":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from fbl.cli import main
sys.exit(main(sys.argv[2:]))
"""


def test_index_and_query_write_the_same_bytes_on_one_cpu_and_on_every_cpu(corpus_dir,
                                                                          tmp_path):
    base_tmp, corpus, vocab = corpus_dir
    env = dict(os.environ)
    paths = [str(Path(fbl.__file__).parents[1]), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    got = {}
    for cpus, blas_threads in (("one-cpu", "1"), ("every-cpu", "2")):
        session = tmp_path / cpus
        run = tmp_path / f"{cpus}.jsonl"
        for argv in (_index_args(corpus, vocab, session),
                     ["query", "--session", str(session), "--bug-file",
                      str(corpus / "bugs.jsonl"), "--topk", "5", "--out", str(run)]):
            proc = subprocess.run([sys.executable, "-c", _FBL_IN_A_CHILD, cpus, *argv],
                                  env={**env, "OPENBLAS_NUM_THREADS": blas_threads},
                                  capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
        got[cpus] = {p.name: p.read_bytes() for p in session.iterdir()}, run.read_bytes()
    assert sorted(got["one-cpu"][0]) == ["docs.fblp", "index.fbli", "manifest.json",
                                         "projection.fble", "vocab.txt"]
    assert got["one-cpu"] == got["every-cpu"]
    assert len(got["one-cpu"][1].splitlines()) == 10  # two bugs, five documents each
