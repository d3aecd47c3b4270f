"""Command-line entry point.

Subcommands: ingest, train-projection, index, query, evaluate, bench.
Exit codes: 0 success, 1 usage error, 2 data error (bad input files or
session state), 3 internal error. Errors go to stderr as one JSON object.
The FBL_SESSION environment variable supplies the default session
directory for query/bench.
Each command takes only the ``pipeline.Config`` flags it reads, defaulting
to Config's values (--doc-limit to its granularity's); one below the
field's ``CONFIG_LEAST`` entry is a usage error naming the flag. query and
bench read the rest from the manifest.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import _kernels, corpus, evaluation, retrieve, store
from .corpus import Granularity, load_bugs, load_changesets, load_links
from .embed import TripletTrainConfig, train_projection
from .encode import Strategy, Vocabulary, encode_query
from .errors import DataError, FblError, FormatError
from .pipeline import (
    BENCH_CSV_HEADER,
    CONFIG_LEAST,
    MANIFEST_FIELDS,
    Config,
    bench_row_csv,
    build_session,
    embed_query_text,
    encode_documents,
    make_embedder,
    run_query,
    sweep_latency,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; usage errors are 1 here
        raise UsageError(EXIT_USAGE, f"usage: {message}")


def _emit_error(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": message, "kind": kind}) + "\n")


# the integer Config fields each command's count flags set
_ENCODING = ("query_limit", "doc_limit", "seed", "d_in", "d_out")
_INDEX_SHAPE = ("n_partitions", "n_subspaces", "n_codewords")
_PROBE = ("nprobe", "candidates")


def _flag(name: str) -> str:
    """The flag that sets Config field `name`: n_partitions is --partitions."""
    return "--" + name.removeprefix("n_").replace("_", "-")


def _add_counts(p: argparse.ArgumentParser, names: tuple[str, ...]) -> None:
    """Flags for the integer Config fields `names`, defaulting to Config's values."""
    for name in names:
        p.add_argument(_flag(name), dest=name, default=getattr(Config, name),
                       help="distinct embeddings to fetch, split over the query's rows (a "
                       "row keeps all tied at its cut), or 'all'" if name == "candidates" else None)
    p.set_defaults(config_counts=names)


def _add_config_flags(p: argparse.ArgumentParser, names: tuple[str, ...]) -> None:
    p.add_argument("--granularity", choices=[g.value for g in Granularity],
                   default=Config.granularity.value)
    p.add_argument("--strategy", choices=[s.value for s in Strategy],
                   default=Config.strategy.value)
    p.add_argument("--embedder", default=Config.embedder_kind, help="'hash' or 'file:<path>'")
    _add_counts(p, names)


def _positive(flag: str, raw, least: int = 1) -> int:
    """The flag's integer value; one below `least` is a usage error naming the flag."""
    value = int(raw) if str(raw).isdecimal() else -1
    if value < least:
        kind = {0: "a non-negative integer", 1: "a positive integer"}.get(
            least, f"an integer >= {least}"
        )
        raise UsageError(EXIT_USAGE, f"{flag} must be {kind}, got {raw!r}")
    return value


def _positive_real(flag: str, raw: float) -> float:
    if not (math.isfinite(raw) and raw > 0):
        raise UsageError(EXIT_USAGE, f"{flag} must be a positive finite number, got {raw!r}")
    return raw


def _counts(args) -> dict:
    """The Config fields the command's count flags set, checked against CONFIG_LEAST."""
    return {
        name: None if name == "candidates" and getattr(args, name) == "all"
        else _positive(_flag(name), getattr(args, name), CONFIG_LEAST[name])
        for name in args.config_counts
        if getattr(args, name) is not None  # no --doc-limit: Config picks the granularity's
    }


def _config_from_args(args) -> Config:
    embedder_kind, embedder_path = "hash", None
    if args.embedder != "hash":
        if not args.embedder.startswith("file:"):
            raise UsageError(EXIT_USAGE, f"bad --embedder {args.embedder!r}")
        embedder_kind, embedder_path = "file", args.embedder[5:]
    counts = _counts(args)
    # the shape's cross-field rules, on the flags of the command that sets them
    d_in, d_out = counts["d_in"], counts["d_out"]
    codewords, subspaces = counts.get("n_codewords", 1), counts.get("n_subspaces", 1)
    if d_out > d_in:
        raise UsageError(EXIT_USAGE, f"--d-out {d_out} must not exceed --d-in {d_in}")
    if codewords > 256:  # a code is one byte
        raise UsageError(EXIT_USAGE, f"--codewords must be at most 256, got {codewords}")
    if d_out % subspaces:
        raise UsageError(EXIT_USAGE, f"--subspaces {subspaces} must divide --d-out {d_out}")
    return Config(
        granularity=args.granularity,
        strategy=args.strategy,
        embedder_kind=embedder_kind,
        embedder_path=embedder_path,
        **counts,
    )


def _corpus_paths(corpus_dir: Path) -> tuple[Path, Path, Path]:
    return (
        corpus_dir / "changesets.jsonl",
        corpus_dir / "bugs.jsonl",
        corpus_dir / "links.jsonl",
    )


def _corpus_hash(corpus_dir: Path) -> str:
    parts = []
    for p in _corpus_paths(corpus_dir):
        parts.append(store.sha256_file(p) if p.exists() else "absent")
    return store.sha256_bytes("\n".join(parts).encode())


def _writable(raw: str, directory: bool = False) -> Path:
    """An output path, checked before the command does any work.

    A file's directory must exist and the file must not be a directory. A
    directory, which the save makes with its parents, must not be a file or
    lie under one.
    """
    path = Path(raw)
    if directory:
        up = next(p for p in (path, *path.parents) if p.exists())
        problem = None if up.is_dir() else f"{up} exists and is not a directory"
    elif path.is_dir():
        problem = "is a directory"
    else:
        problem = None if path.parent.is_dir() else f"no directory {path.parent}"
    if problem:
        raise DataError(f"{path}: {problem}")
    return path


def _check_links(changesets, bugs, links) -> None:
    """Every link must name a bug and a changeset of the corpus."""
    bug_ids = {b.bug_id for b in bugs}
    cs_ids = {c.changeset_id for c in changesets}
    for link in links:
        if link.bug_id not in bug_ids:
            raise DataError(f"link references unknown bug {link.bug_id!r}")
        if link.changeset_id not in cs_ids:
            raise DataError(f"link references unknown changeset {link.changeset_id!r}")


def cmd_ingest(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    changesets = load_changesets(args.changesets)
    bugs = load_bugs(args.bugs) if args.bugs else []
    links = load_links(args.links) if args.links else []
    _check_links(changesets, bugs, links)
    for dest, src in zip(_corpus_paths(out_dir), (args.changesets, args.bugs, args.links)):
        if src:
            dest.write_bytes(Path(src).read_bytes())
        else:  # an earlier ingest's file would outlive this one's report
            dest.unlink(missing_ok=True)
    n_hunks = sum(len(fd.hunks) for cs in changesets for fd in cs.files)
    print(
        f"ingested {len(changesets)} changesets "
        f"({n_hunks} hunks), {len(bugs)} bugs, {len(links)} links -> {out_dir}"
    )
    return EXIT_OK


def _load_corpus_dir(corpus_dir: Path):
    cs_path, bugs_path, links_path = _corpus_paths(corpus_dir)
    changesets = load_changesets(cs_path)
    bugs = load_bugs(bugs_path) if bugs_path.exists() else []
    links = load_links(links_path) if links_path.exists() else []
    return changesets, bugs, links


def cmd_train_projection(args) -> int:
    config = _config_from_args(args)
    cfg = TripletTrainConfig(
        margin=_positive_real("--margin", args.margin),
        learning_rate=_positive_real("--learning-rate", args.learning_rate),
        epochs=_positive("--epochs", args.epochs, least=0),
        batch_size=_positive("--batch-size", args.batch_size),
        seed=config.seed,
    )
    out = _writable(args.out)
    corpus_dir = Path(args.corpus)
    changesets, bugs, links = _load_corpus_dir(corpus_dir)
    if not links:
        raise DataError("training needs links.jsonl in the corpus directory")
    _check_links(changesets, bugs, links)
    vocab = Vocabulary.from_file(args.vocab)
    embedder = make_embedder(config, vocab=vocab)
    bug_map = {b.bug_id: b for b in bugs}
    train_links, _ = corpus.split_train_test(links, bug_map)
    docs = corpus.explode_corpus(changesets, config.granularity)
    triplets = corpus.build_triplets(train_links, docs, seed=config.seed)
    doc_seqs = encode_documents(docs, config.strategy, vocab, config.doc_limit)
    query_seqs = {
        b.bug_id: encode_query(b, vocab, config.query_limit) for b in bugs
    }
    result = train_projection(
        triplets, query_seqs, doc_seqs, embedder, cfg, d_out=config.d_out
    )
    store.save_projection(result.projection, out)
    done = f"trained on {len(triplets)} triplets for {cfg.epochs} epochs"
    trace = ", ".join(f"{x:.4f}" for x in result.epoch_losses)
    print(f"{done}; mean loss per epoch: {trace}" if trace else done)
    print(f"projection -> {args.out}")
    return EXIT_OK


def cmd_index(args) -> int:
    config = _config_from_args(args)
    session = args.session or os.environ.get("FBL_SESSION", "session")
    session_dir = _writable(session, directory=True)
    corpus_dir = Path(args.corpus)
    changesets, _, _ = _load_corpus_dir(corpus_dir)
    vocab_bytes = Path(args.vocab).read_bytes()
    projection = store.load_projection(args.projection) if args.projection else None
    built = build_session(
        changesets,
        Vocabulary.from_bytes(vocab_bytes, args.vocab),
        config,
        projection=projection,
        corpus_hash=_corpus_hash(corpus_dir),
        vocab_hash=store.sha256_bytes(vocab_bytes),
    )
    store.save_session(
        session_dir,
        built.manifest,
        built.index,
        built.projection,
        built.doc_matrices,
        vocab_text=vocab_bytes,
        embedder_matrix_path=config.embedder_path,
    )
    print(
        f"indexed {len(built.doc_matrices)} documents "
        f"({built.index.n_embeddings} embeddings, P={built.index.n_partitions}) -> {session_dir}"
    )
    return EXIT_OK


def _open_session(args):
    probe = _counts(args)
    raw = args.session or os.environ.get("FBL_SESSION", "")
    if not raw:
        raise UsageError(EXIT_USAGE, "no session: pass --session or set FBL_SESSION")
    session_dir = Path(raw)
    artifacts = store.load_session(session_dir)
    m = artifacts.manifest
    for name in [store.VOCAB_NAME] + [store.EMBEDDER_NAME] * (m.embedder_kind == "file"):
        if name not in m.checksums:
            raise FormatError(f"{session_dir / store.MANIFEST_NAME}: no checksum for {name}")
    vocab = Vocabulary.from_bytes(artifacts.vocab, session_dir / store.VOCAB_NAME)
    recorded = {name: getattr(m, name) for name in MANIFEST_FIELDS}
    embedder_path = str(session_dir / store.EMBEDDER_NAME) if m.embedder_kind == "file" else None
    try:
        config = Config(**recorded, **probe, embedder_path=embedder_path)
    except ValueError as exc:  # the values came from the session, not from flags
        raise FormatError(f"{session_dir / store.MANIFEST_NAME}: {exc}") from exc
    return artifacts, vocab, config


def cmd_query(args) -> int:
    _positive("--topk", args.topk)
    if args.out:
        _writable(args.out)
    artifacts, vocab, config = _open_session(args)
    embedder = make_embedder(config, artifacts.embedder, vocab=vocab)

    if args.text is not None:
        reports = [
            corpus.BugReport(
                bug_id="adhoc",
                summary=args.text,
                description="",
                opened_at=datetime.now(timezone.utc),
            )
        ]
    else:
        reports = load_bugs(args.bug_file)

    out_fh = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        for report in reports:
            q = embed_query_text(report, vocab, config, embedder, artifacts.projection)
            result = run_query(
                q,
                artifacts.index,
                artifacts.doc_matrices,
                config,
                k=args.topk,
                exact=args.exact,
                bug_id=report.bug_id,
            )
            if args.aggregate:
                result = retrieve.aggregate_to_changeset(result)
            if args.format == "trec":
                retrieve.write_trec(result, out_fh)
            else:
                retrieve.write_jsonl(result, out_fh)
    finally:
        if args.out:
            out_fh.close()
    return EXIT_OK


def cmd_evaluate(args) -> int:
    if (args.bugs is None) != (args.changesets is None):
        raise UsageError(EXIT_USAGE, "--bugs and --changesets go together: pass both or neither")
    if args.out:
        _writable(args.out)
    run = evaluation.read_run(args.run)
    links = load_links(args.qrels)
    if not links:
        raise DataError(f"{args.qrels}: no links to score against")
    qrels = evaluation.qrels_from_links(links)
    # aggregate document entries to changeset level before scoring
    results: dict[str, list[str]] = {}
    for bug_id, entries in run.items():
        ranked = retrieve.aggregate_to_changeset(retrieve.RankedResult(bug_id, list(entries)))
        results[bug_id] = [cs for cs, _ in ranked.entries]
    categories = None
    if args.bugs is not None:
        bugs = load_bugs(args.bugs)
        changesets = {c.changeset_id: c for c in load_changesets(args.changesets)}
        names = evaluation.gold_class_names(links, changesets)
        categories = {
            b.bug_id: evaluation.categorize(b, names[b.bug_id])
            for b in bugs
            if names.get(b.bug_id)
        }
    report = evaluation.metrics_report(results, qrels, categories)
    payload = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(payload + "\n", encoding="utf-8")
    else:
        print(payload)
    return EXIT_OK


def cmd_bench(args) -> int:
    _positive("--topk", args.topk)
    n_queries = _positive("--queries", args.queries)
    sizes = [_positive("--sizes", s) for s in args.sizes.split(",") if s]
    if not sizes:
        raise UsageError(EXIT_USAGE, f"--sizes must name at least one size, got {args.sizes!r}")
    if args.out:
        _writable(args.out)
    artifacts, _, config = _open_session(args)
    rows = sweep_latency(artifacts.doc_matrices, sizes, config, n_queries=n_queries, k=args.topk)
    lines = [BENCH_CSV_HEADER] + [bench_row_csv(r) for r in rows]
    payload = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(payload, encoding="utf-8")
    else:
        sys.stdout.write(payload)
    sys.stderr.write(f"kernel backend: {_kernels.BACKEND}\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fbl", description="Changeset-based bug localization")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate and stage corpus JSONL files")
    p.add_argument("--changesets", required=True)
    p.add_argument("--bugs")
    p.add_argument("--links")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("train-projection", help="train the embedding projection on triplets")
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, default=TripletTrainConfig.epochs)
    p.add_argument("--batch-size", type=int, default=TripletTrainConfig.batch_size)
    p.add_argument("--margin", type=float, default=TripletTrainConfig.margin)
    p.add_argument("--learning-rate", type=float, default=TripletTrainConfig.learning_rate)
    _add_config_flags(p, _ENCODING)
    p.set_defaults(func=cmd_train_projection)

    p = sub.add_parser("index", help="encode, embed, and index a corpus into a session")
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--session", default=None)
    p.add_argument("--projection", default=None)
    _add_config_flags(p, _ENCODING + _INDEX_SHAPE)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("query", help="rank documents for bug reports")
    p.add_argument("--session", default=None)
    given = p.add_mutually_exclusive_group(required=True)
    given.add_argument("--bug-file")
    given.add_argument("--text")
    p.add_argument("--topk", type=int, default=10)
    _add_counts(p, _PROBE)
    p.add_argument("--exact", action="store_true", help="brute-force oracle ranking")
    p.add_argument("--aggregate", action="store_true", help="collapse to changeset level")
    p.add_argument("--format", choices=["jsonl", "trec"], default="jsonl")
    p.add_argument("--out")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("evaluate", help="score a run file against qrels")
    p.add_argument("--run", required=True)
    p.add_argument("--qrels", required=True, help="links.jsonl")
    p.add_argument("--bugs", help="bugs.jsonl for NL/PL/FL categorization")
    p.add_argument("--changesets", help="changesets.jsonl for gold class names")
    p.add_argument("--out")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("bench", help="latency sweep: exact vs two-stage")
    p.add_argument("--session", default=None)
    p.add_argument("--sizes", required=True, help="comma-separated embedding counts")
    p.add_argument("--queries", type=int, default=5)
    p.add_argument("--topk", type=int, default=10)
    _add_counts(p, _PROBE)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        _emit_error("usage", str(exc))
        return exc.code
    except FileNotFoundError as exc:
        _emit_error("data", f"file not found: {exc.filename}")
        return EXIT_DATA
    except OSError as exc:  # such as an output file path that names a directory
        _emit_error("data", f"{exc.filename}: {exc.strerror}")
        return EXIT_DATA
    except DataError as exc:
        _emit_error("data", str(exc))
        return EXIT_DATA
    except FblError as exc:
        _emit_error(type(exc).__name__, str(exc))
        return EXIT_DATA
    except (ValueError, KeyError) as exc:
        _emit_error("usage", str(exc))
        return EXIT_USAGE
    except Exception as exc:  # pragma: no cover - safety net
        _emit_error("internal", f"{type(exc).__name__}: {exc}")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
