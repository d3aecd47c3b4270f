import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fbl

from fbl.cli import main
from fbl.pipeline import Config

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
        ("--batch-size", "0"), ("--seed", "-1"),
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
        "--query-limit", "--hunk-limit", "--file-limit", "--changeset-limit",
        "--d-in", "--d-out",
    ]
    for flag in index_flags:
        for value in ("0", "-1"):
            capsys.readouterr()
            assert main(_index_args(corpus, vocab, tmp_path / "s2") + [flag, value]) == 1
            err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
            assert err["kind"] == "usage" and flag in err["error"], (flag, value)


def test_config_rejects_candidates_below_one():
    with pytest.raises(ValueError, match="candidates"):
        Config(candidates=0)
    assert Config(candidates=None).candidates is None
    with pytest.raises(ValueError, match="seed"):
        Config(seed=-1)
    assert Config(seed=0).seed == 0


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


def test_stderr_is_one_json_line():
    # a fresh interpreter, so import-time output would land on stderr too
    env = {k: v for k, v in os.environ.items() if k != "FBL_SESSION"}
    paths = [str(Path(fbl.__file__).parents[1]), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    proc = subprocess.run([sys.executable, "-m", "fbl.cli", "query"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["kind"] == "usage"


_GOOD_CHANGESET = {"id": "c0", "diff": _diff("A.java", ["int x;"]), "timestamp": "2021-01-01"}
_GOOD_RUN = {"bug_id": "b1", "doc_id": "c0:0:0", "rank": 1, "score": 0.5}


@pytest.mark.parametrize(
    "name,bad_line,command",
    [
        ("changesets.jsonl", "[1]", "ingest"),
        ("changesets.jsonl", json.dumps({**_GOOD_CHANGESET, "id": "c1", "timestamp": "yesterday"}),
         "ingest"),
        ("run.jsonl", "{bad json", "evaluate"),
        ("run.trec", "b1 Q0 c0:0:0 first 0.5 fbl", "evaluate"),
    ],
    ids=["line_not_an_object", "bad_timestamp", "bad_json_run_line", "non_integer_trec_rank"],
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
     _no_vocab_checksum],
    ids=["non_utf8", "checksums_int", "unknown_granularity", "negative_d_in", "no_vocab_checksum"],
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
    from fbl.embed import write_matrix_file
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
