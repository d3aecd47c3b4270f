"""Command-line entry point.

Subcommands: ingest, train-projection, index, query, evaluate, bench.
Exit codes, by exception type alone: 0 success, 1 ``UsageError``, 2
``DataError``, any other ``FblError`` or ``OSError`` (bad input files or
session state), 3 anything else (an internal error). Errors go to stderr
as one JSON object. The FBL_SESSION environment variable supplies the
default session directory for index (else ./session), query and bench.
Each command takes only the ``pipeline.Config`` flags it reads, defaulting
to Config's values (--doc-limit to its granularity's, --partitions and
--codewords to the size the table gives); the config types judge them,
and a ``FieldError`` is a usage error naming the flag. query and bench
read the rest from the manifest.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import _kernels, corpus, evaluation, retrieve, store
from .corpus import Granularity, load_bugs, load_changesets, load_links
from .embed import TripletTrainConfig, train_projection
from .encode import Strategy, Vocabulary, encode_query
from .errors import DataError, FblError, FieldError, NonFiniteLoss
from .pipeline import (
    BENCH_CSV_HEADER,
    Config,
    bench_row_csv,
    build_session,
    embed_query_text,
    encode_documents,
    make_embedder,
    open_session,
    run_query,
    sweep_latency,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    """A bad flag or flag combination: exits EXIT_USAGE."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; usage errors are 1 here
        raise UsageError(f"usage: {message}")


def _emit_error(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": message, "kind": kind}) + "\n")


# the integer Config fields each command's count flags set
_ENCODING = ("query_limit", "doc_limit", "seed", "d_in", "d_out")
_INDEX_SHAPE = ("n_partitions", "n_subspaces", "n_codewords")
_PROBE = ("nprobe", "candidates")


def _flag(name: str) -> str:
    """The flag that sets Config field `name`: n_partitions is --partitions."""
    return "--" + name.removeprefix("n_").replace("_", "-")


def _int_or_all(raw: str) -> int | None:
    if raw != "all" and not raw.removeprefix("-").isdecimal():
        raise argparse.ArgumentTypeError(f"expected an integer or 'all', got {raw!r}")
    return None if raw == "all" else int(raw)


_HELP = {
    "candidates": "distinct embeddings to fetch, split over the query's rows (a row keeps all "
    "tied at its cut), or 'all'",
    "n_partitions": "coarse partitions, at most the table's distinct rows (default: sized to "
    "the table, the largest power of two <= min(256, distinct rows / 39))",
    "n_codewords": "PQ codewords per subspace, at most 256 (default: sized to the table, the "
    "largest power of two <= min(256, distinct rows / 39))",
}


def _add_counts(p: argparse.ArgumentParser, names: tuple[str, ...]) -> None:
    """Flags for the integer Config fields `names`, defaulting to Config's values."""
    for name in names:
        p.add_argument(_flag(name), dest=name, default=getattr(Config, name),
                       type=_int_or_all if name == "candidates" else int, help=_HELP.get(name))
    p.set_defaults(config_counts=names)


def _add_config_flags(p: argparse.ArgumentParser, names: tuple[str, ...]) -> None:
    p.add_argument("--granularity", choices=[g.value for g in Granularity],
                   default=Config.granularity.value)
    p.add_argument("--strategy", choices=[s.value for s in Strategy],
                   default=Config.strategy.value)
    p.add_argument("--embedder", default=Config.embedder_kind, help="'hash' or 'file:<path>'")
    _add_counts(p, names)


def _positive(flag: str, raw) -> int:
    """The flag's integer value; one below 1 is a usage error naming the flag."""
    value = int(raw) if str(raw).isdecimal() else -1
    if value < 1:
        raise UsageError(f"{flag} must be a positive integer, got {raw!r}")
    return value


def _judged(kind, **fields):
    """``kind(**fields)``: a field the type rejects is a usage error naming its flag."""
    try:
        return kind(**fields)
    except FieldError as exc:
        raise UsageError(f"{_flag(exc.field)} {exc.problem}") from None


def _counts(args) -> dict:
    """The Config fields the command's count flags set, as parsed."""
    return {name: getattr(args, name) for name in args.config_counts}


def _config_from_args(args) -> Config:
    embedder_kind, embedder_path = "hash", None
    if args.embedder != "hash":
        if not args.embedder.startswith("file:"):
            raise UsageError(f"bad --embedder {args.embedder!r}")
        embedder_kind, embedder_path = "file", args.embedder[5:]
    config = _judged(Config, granularity=args.granularity, strategy=args.strategy,
                     embedder_kind=embedder_kind, embedder_path=embedder_path, **_counts(args))
    # the shape's cross-field rules, on the flags of the command that sets them
    if config.d_out > config.d_in:
        raise UsageError(f"--d-out {config.d_out} must not exceed --d-in {config.d_in}")
    if "n_subspaces" in args.config_counts and config.d_out % config.n_subspaces:
        raise UsageError(f"--subspaces {config.n_subspaces} must divide --d-out {config.d_out}")
    return config


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
    cfg = _judged(TripletTrainConfig, margin=args.margin, learning_rate=args.learning_rate,
                  epochs=args.epochs, batch_size=args.batch_size, seed=config.seed)
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
    # training reads only the texts its triplets name
    named_docs = {d for t in triplets for d in (t.positive_doc, t.negative_doc)}
    named_bugs = {t.bug_id for t in triplets}
    doc_seqs = encode_documents([d for d in docs if d.doc_id in named_docs], config.strategy,
                                vocab, config.doc_limit)
    query_seqs = {b.bug_id: encode_query(b, vocab, config.query_limit)
                  for b in bugs if b.bug_id in named_bugs}
    try:
        result = train_projection(triplets, query_seqs, doc_seqs, embedder, cfg, d_out=config.d_out)
    except NonFiniteLoss as exc:
        raise NonFiniteLoss(f"{exc} (--learning-rate {args.learning_rate:g})") from None
    store.save_projection(result.projection, out)
    done = f"trained on {len(triplets)} triplets for {cfg.epochs} epochs"
    trace = ", ".join(f"{x:.4f}" for x in result.epoch_losses)
    print(f"{done}; mean loss per epoch: {trace}" if trace else done)
    print(f"projection -> {args.out}")
    return EXIT_OK


def _session_dir(args, fallback: str = "") -> str:
    """--session, else FBL_SESSION, else `fallback`; none of them is a usage error."""
    raw = args.session or os.environ.get("FBL_SESSION", fallback)
    if not raw:
        raise UsageError("no session: pass --session or set FBL_SESSION")
    return raw


def cmd_index(args) -> int:
    config = _config_from_args(args)
    session_dir = _writable(_session_dir(args, "session"), directory=True)
    corpus_dir = Path(args.corpus)
    changesets, _, _ = _load_corpus_dir(corpus_dir)
    # each input is read once: the session stores the bytes the build parsed
    vocab_bytes = Path(args.vocab).read_bytes()
    embedder = Path(config.embedder_path).read_bytes() if config.embedder_path else None
    projection = store.load_projection(args.projection) if args.projection else None
    built = build_session(
        changesets,
        Vocabulary.from_bytes(vocab_bytes, args.vocab),
        config,
        projection=projection,
        corpus_hash=_corpus_hash(corpus_dir),
        vocab_hash=store.sha256_bytes(vocab_bytes),
        embedder_bytes=embedder,
    )
    store.save_session(session_dir, built.manifest, built.index, built.projection,
                       built.doc_matrices, vocab_bytes, embedder)
    print(
        f"indexed {len(built.doc_matrices)} documents "
        f"({built.index.n_embeddings} embeddings, P={built.index.n_partitions}) -> {session_dir}"
    )
    return EXIT_OK


def cmd_query(args) -> int:
    _positive("--topk", args.topk)
    if args.out:
        _writable(args.out)
    probe = _counts(args)
    _judged(Config, **probe)  # before the session is read
    session = open_session(_session_dir(args), **probe)
    arts, config = session.artifacts, session.config
    embedder = session.embedder  # a table short of the vocabulary exits before --out opens

    if args.text is not None:
        reports = [corpus.BugReport("adhoc", args.text, "", datetime.now(timezone.utc))]
    else:
        reports = load_bugs(args.bug_file)

    out_fh = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        for report in reports:
            q = embed_query_text(report, session.vocab, config, embedder, arts.projection)
            result = run_query(
                q,
                arts.index,
                arts.doc_matrices,
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
        raise UsageError("--bugs and --changesets go together: pass both or neither")
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
        raise UsageError(f"--sizes must name at least one size, got {args.sizes!r}")
    if args.out:
        _writable(args.out)
    probe = _counts(args)
    _judged(Config, **probe)  # before the session is read
    session = open_session(_session_dir(args), **probe)
    rows = sweep_latency(session.artifacts.doc_matrices, sizes, session.config,
                         n_queries=n_queries, k=args.topk)
    lines = [BENCH_CSV_HEADER] + [bench_row_csv(r) for r in rows]
    payload = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(payload, encoding="utf-8")
    else:
        sys.stdout.write(payload)
    sys.stderr.write(f"kernel backend: {_kernels.BACKEND}\n")
    return EXIT_OK


def _ingest_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--changesets", required=True)
    p.add_argument("--bugs")
    p.add_argument("--links")
    p.add_argument("--out", required=True)


def _train_projection_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, default=TripletTrainConfig.epochs)
    p.add_argument("--batch-size", type=int, default=TripletTrainConfig.batch_size)
    p.add_argument("--margin", type=float, default=TripletTrainConfig.margin)
    p.add_argument("--learning-rate", type=float, default=TripletTrainConfig.learning_rate)
    _add_config_flags(p, _ENCODING)


def _index_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--session", default=None)
    p.add_argument("--projection", default=None)
    _add_config_flags(p, _ENCODING + _INDEX_SHAPE)


def _query_flags(p: argparse.ArgumentParser) -> None:
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


def _evaluate_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--run", required=True)
    p.add_argument("--qrels", required=True, help="links.jsonl")
    p.add_argument("--bugs", help="bugs.jsonl for NL/PL/FL categorization")
    p.add_argument("--changesets", help="changesets.jsonl for gold class names")
    p.add_argument("--out")


def _bench_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--session", default=None)
    p.add_argument("--sizes", required=True, help="comma-separated embedding counts")
    p.add_argument("--queries", type=int, default=5)
    p.add_argument("--topk", type=int, default=10)
    _add_counts(p, _PROBE)
    p.add_argument("--out")


# (name, help, flag adder, handler) of each command, in the order help lists them
_COMMANDS = (
    ("ingest", "validate and stage corpus JSONL files", _ingest_flags, cmd_ingest),
    ("train-projection", "train the embedding projection on triplets", _train_projection_flags,
     cmd_train_projection),
    ("index", "encode, embed, and index a corpus into a session", _index_flags, cmd_index),
    ("query", "rank documents for bug reports", _query_flags, cmd_query),
    ("evaluate", "score a run file against qrels", _evaluate_flags, cmd_evaluate),
    ("bench", "latency sweep: exact vs two-stage", _bench_flags, cmd_bench),
)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of `command` alone.

    A subcommand's parser, its help and its errors do not depend on which
    other subcommands exist, so a call that names its command parses as the
    full parser would, without building the others.
    """
    parser = _Parser(prog="fbl", description="Changeset-based bug localization")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, add_flags, handler in _COMMANDS:
        if command in (None, name):
            p = sub.add_parser(name, help=help_text)
            add_flags(p)
            p.set_defaults(func=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    named = argv[0] if argv and argv[0] in {c[0] for c in _COMMANDS} else None
    parser = build_parser(named)  # fbl, fbl -h and an unknown command get every command's
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        _emit_error("usage", str(exc))
        return EXIT_USAGE
    except FileNotFoundError as exc:
        _emit_error("data", f"file not found: {exc.filename}")
        return EXIT_DATA
    except OSError as exc:  # such as an output file path that names a directory
        _emit_error("data", f"{exc.filename}: {exc.strerror}")
        return EXIT_DATA
    except FblError as exc:  # DataError reports its kind as "data"
        _emit_error("data" if isinstance(exc, DataError) else type(exc).__name__, str(exc))
        return EXIT_DATA
    except Exception as exc:  # a bug: no input should reach here
        _emit_error("internal", f"{type(exc).__name__}: {exc}")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
