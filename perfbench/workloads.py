"""The two benchmark workloads, their correctness gates and their metrics.

Both are closed loops with one client: a CLI user waits for each answer
before asking the next question. ``balanced_20k`` drives ``index``,
``retrieve`` and ``store`` through the library on criterion 7's shape;
``project_cli`` drives every ``fbl`` command in-process through
``fbl.cli.main`` at CLI defaults. README.md says why each exists.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from fbl import cli, corpus, evaluation, index as fbl_index, pipeline, retrieve, store
from fbl.embed import EmbeddingMatrix, LinearProjection
from fbl.encode import Strategy, Vocabulary

import corpora
import layers
from tracer import Tracer

END_TO_END = [
    ("setup_s", "s"),
    ("cold_start_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("queries_per_s", "1/s"),
    ("exact_p50_ms", "ms"),
    ("recall_at_10", "ratio"),
    ("mrr", "ratio"),
    ("peak_rss_mb", "MB"),
    ("session_mb", "MB"),
    ("success_rate", "ratio"),
]

TOPK = 10
MIN_QUERIES = 100  # p90 needs ten samples beyond it
PROBE_TERMS, PROBE_REPEATS = 10_000, 3
# about the probe's time on a 2.1 GHz Xeon virtual core that no neighbour loads
REFERENCE_PROBE_S = 0.16e-3


@dataclass(frozen=True)
class Shape:
    """Sizes of one run; tests shrink them, the benchmark never does."""

    rounds: int = 2  # untraced runs set up once a round; traced runs once in all
    slices: int = 12  # per round
    audited: int = MIN_QUERIES
    timed: int = MIN_QUERIES  # distinct two-stage queries, each asked several times a run
    exact_timed: int = 20  # distinct exact queries
    cold_texts: int = 4  # distinct cold-start texts; each slice takes one cold start
    # balanced_20k: criterion 7's 20k-embedding point
    n_docs: int = 2500
    partitions: int = 320
    subspaces: int = 16
    codewords: int = 256
    build_iters: int = 8
    nprobe: int = 4
    candidates: int = 250
    # project_cli
    project: corpora.ProjectShape = field(default_factory=corpora.ProjectShape)


@dataclass
class Ledger:
    """Counts operations; exceptions, non-zero exits and failed gates all fail."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok


def fbl_main(ledger: Ledger, tracer: Tracer, *argv: str) -> str:
    """Run one ``fbl`` command in-process; returns its standard output."""
    out, err = io.StringIO(), io.StringIO()
    with tracer.span("cli." + argv[0]), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    ledger.check(code == 0, f"fbl {argv[0]} exited {code}: {err.getvalue().strip()[-300:]}")
    return out.getvalue()


@dataclass
class Served:
    """A loaded session, ready to answer queries the way ``fbl query`` does."""

    artifacts: store.SessionArtifacts
    pack: retrieve.PackedCorpus
    config: pipeline.Config


def serve(session: Path, **overrides) -> Served:
    arts = store.load_session(session)
    m = arts.manifest
    config = pipeline.Config(
        granularity=corpus.Granularity(m.granularity),
        strategy=Strategy(m.strategy),
        n_partitions=m.n_partitions,
        n_subspaces=m.n_subspaces,
        n_codewords=m.n_codewords,
        seed=m.seed,
        d_in=m.d_in,
        d_out=m.d_out,
        embedder_kind=m.embedder_kind,
        **overrides,
    )
    return Served(arts, retrieve.PackedCorpus.from_matrices(arts.doc_matrices), config)


# -- workloads -------------------------------------------------------------------


class Balanced:
    """Criterion 7's 20k point: 2,500 docs x 8 clustered rows, 96-row queries."""

    exact_share = 0.2  # of the loops' time; an exact query costs about a two-stage one

    def __init__(self, seed: int, shape: Shape, work: Path):
        self.seed, self.shape, self.work = seed, shape, work
        self.data = corpora.balanced_corpus(seed, shape.n_docs)
        dim = self.data.rows.shape[2]
        self.mats = {d: EmbeddingMatrix(rows=self.data.rows[i])
                     for i, d in enumerate(self.data.doc_ids)}
        self.projection = LinearProjection.seeded_init(dim, dim, seed)
        # a vocabulary and projection let `fbl query --text` open the session
        self.vocab_text = "\n".join(corpora.SPECIALS + corpora.NL_WORDS) + "\n"
        self.queries = [EmbeddingMatrix(rows=q, is_query=True) for q in self.data.queries]
        rng = np.random.default_rng([seed, 2])
        self.texts = [" ".join(rng.choice(corpora.NL_WORDS, size=8))
                      for _ in range(shape.cold_texts)]

    def setup(self, r: int, ledger: Ledger, tracer: Tracer) -> Path:
        s, dim = self.shape, self.data.rows.shape[2]
        session = self.work / f"session{r}"
        built = fbl_index.build_index(self.mats, s.partitions, s.subspaces, s.codewords,
                                      seed=self.seed, max_iters=s.build_iters)
        manifest = store.Manifest(
            corpus_hash="", granularity="hunk", strategy="arcl",
            vocab_hash=store.sha256_bytes(self.vocab_text.encode()),
            embedder_kind="hash", embedder_seed=self.seed, d_in=dim, d_out=dim,
            projection_hash=hashlib.sha256(self.projection.weights.tobytes()).hexdigest(),
            n_partitions=s.partitions, n_subspaces=s.subspaces, n_codewords=s.codewords,
            seed=self.seed, doc_limit=256,
        )
        store.save_session(session, manifest, built, self.projection, self.mats,
                           vocab_text=self.vocab_text)
        return session

    def serve(self, session: Path) -> Served:
        return serve(session, nprobe=self.shape.nprobe, candidates=self.shape.candidates)

    @property
    def n_distinct(self) -> int:
        return len(self.queries)

    def make_query(self, served: Served, q: int) -> EmbeddingMatrix:
        return self.queries[q]

    def mrr(self, served: Served, loop: "Loop", session: Path, ledger: Ledger,
            tracer: Tracer) -> float:
        """MRR against the documents each query was stitched from.

        Taken over the first MIN_QUERIES queries, which every run completes,
        so it repeats exactly for a seed.
        """
        ids = self.data.doc_ids
        results = {str(q): [corpus.changeset_of_doc(d) for d, _ in loop.entries[q]]
                   for q in range(min(MIN_QUERIES, self.n_distinct))}
        qrels = {q: {corpus.changeset_of_doc(ids[i]) for i in self.data.query_sources[int(q)]}
                 for q in results}
        return evaluation.mrr(results, qrels)


class Project:
    """A synthetic project history through every ``fbl`` command at CLI defaults."""

    exact_share = 0.1  # an exact query costs a tenth of a two-stage one

    def __init__(self, seed: int, shape: Shape, work: Path):
        self.seed, self.shape, self.work = seed, shape, work
        self.gen = work / "gen"
        self.counts = corpora.project_corpus(seed, self.gen, shape.project)
        self.bugs = corpus.load_bugs(self.gen / "bugs.jsonl")
        self.texts = [b.summary for b in self.bugs[: shape.cold_texts]]
        self.doc_ids = {d.doc_id for d in corpus.explode_corpus(
            corpus.load_changesets(self.gen / "changesets.jsonl"), corpus.Granularity.HUNK)}

    def setup(self, r: int, ledger: Ledger, tracer: Tracer) -> Path:
        g, c = self.gen, self.work / f"corpus{r}"
        proj, session = self.work / f"projection{r}.fble", self.work / f"session{r}"
        out = fbl_main(ledger, tracer, "ingest", "--changesets", str(g / "changesets.jsonl"),
                       "--bugs", str(g / "bugs.jsonl"), "--links", str(g / "links.jsonl"),
                       "--out", str(c))
        ledger.check(f"{self.counts['links']} links" in out, f"ingest lost links: {out!r}")
        fbl_main(ledger, tracer, "train-projection", "--corpus", str(c),
                 "--vocab", str(g / "vocab.txt"), "--out", str(proj))
        fbl_main(ledger, tracer, "index", "--corpus", str(c), "--vocab", str(g / "vocab.txt"),
                 "--session", str(session), "--projection", str(proj))
        return session

    def serve(self, session: Path) -> Served:
        served = serve(session)  # nprobe, candidates: CLI defaults
        self._vocab = Vocabulary.from_file(session / store.VOCAB_NAME)
        self._embedder = pipeline.make_embedder(served.config)
        return served

    @property
    def n_distinct(self) -> int:
        return len(self.bugs)

    def make_query(self, served: Served, q: int) -> EmbeddingMatrix:
        return pipeline.embed_query_text(self.bugs[q], self._vocab, served.config,
                                         self._embedder, served.artifacts.projection)

    def mrr(self, served: Served, loop: "Loop", session: Path, ledger: Ledger,
            tracer: Tracer) -> float:
        """Overall MRR that ``fbl evaluate`` reports for a ``--bug-file`` run."""
        g, run, report = self.gen, self.work / "run.jsonl", self.work / "metrics.json"
        fbl_main(ledger, tracer, "query", "--session", str(session),
                 "--bug-file", str(g / "bugs.jsonl"), "--out", str(run))
        per_bug: dict[str, int] = {}
        unknown = 0
        for line in run.read_text(encoding="utf-8").splitlines() if run.exists() else []:
            row = json.loads(line)
            per_bug[row["bug_id"]] = per_bug.get(row["bug_id"], 0) + 1
            unknown += row["doc_id"] not in self.doc_ids
        ledger.check(set(per_bug) == {b.bug_id for b in self.bugs}, "run file misses bugs")
        ledger.check(max(per_bug.values(), default=0) <= TOPK, "run file over topk")
        ledger.check(unknown == 0, f"run file names {unknown} unknown documents")
        fbl_main(ledger, tracer, "evaluate", "--run", str(run), "--qrels", str(g / "links.jsonl"),
                 "--bugs", str(g / "bugs.jsonl"), "--changesets", str(g / "changesets.jsonl"),
                 "--out", str(report))
        if not report.exists():
            return 0.0
        return float(json.loads(report.read_text(encoding="utf-8"))["overall"]["mrr"])


WORKLOADS = {"balanced_20k": Balanced, "project_cli": Project}


# -- the measured phases ------------------------------------------------------------


def _probe() -> float:
    """Fastest of a few runs of a fixed pure-Python loop: the CPU's speed right now."""
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        sum(range(PROBE_TERMS))
        best = min(best, time.perf_counter() - t0)
    return best


def timed(call):
    """Runs ``call()``; returns its result, its wall time and that time at reference speed.

    A shared host can run the same code up to 1.6x slower for seconds or
    minutes at a time, and how much of a run is slow differs from run to
    run (README.md). Probes just before and after the call measure the CPU's
    speed at that moment. Scaling the call's time to a CPU on which the
    probe takes ``REFERENCE_PROBE_S`` takes most of the host's speed out of
    it and leaves fbl's: the probe runs no fbl code.
    """
    before = _probe()
    t0 = time.perf_counter()
    result = call()
    elapsed = time.perf_counter() - t0
    return result, elapsed, elapsed * 2 * REFERENCE_PROBE_S / (before + _probe())


def medians(samples: dict[int, list[float]]) -> list[float]:
    """Each distinct operation's median time over its repeats."""
    return [statistics.median(times) for times in samples.values()]


@dataclass
class Loop:
    """Latencies of one kind of query, gathered over many short timed slices."""

    exact: bool = False
    latencies: list[float] = field(default_factory=list)  # wall times, every call
    samples: dict[int, list[float]] = field(default_factory=dict)  # query -> reference times
    entries: dict[int, list] = field(default_factory=dict)  # distinct query -> ranking

    def run(self, wl, served: Served, queries: Sequence[int], seconds: float, ledger: Ledger,
            tracer: Tracer, min_total: int = 0) -> None:
        """Closed loop: ask, wait, ask again, until time is up and ``min_total`` were asked.

        Every call asks at least once.

        Two-stage latency covers embedding the query (``fbl query`` pays it
        on every bug); exact latency is ``run_query(exact=True)`` alone.
        """
        arts, pack, config = served.artifacts, served.pack, served.config
        kind = "exact" if self.exact else "two_stage"
        t_start = time.perf_counter()
        with tracer.span(f"phase.{kind}"):
            asked = False
            while (not asked or time.perf_counter() - t_start < seconds
                   or len(self.latencies) < min_total):
                asked = True
                i = len(self.latencies)
                q = queries[i % len(queries)]
                tracer.query = f"{kind}/{i}"
                query = wl.make_query(served, q) if self.exact else None

                def ask():
                    with tracer.span("query"):
                        if self.exact:
                            return pipeline.run_query(query, arts.index, pack, config,
                                                      k=len(pack), exact=True)
                        return pipeline.run_query(wl.make_query(served, q), arts.index, pack,
                                                  config, k=TOPK)

                result, elapsed, reference = timed(ask)
                self.latencies.append(elapsed)
                self.samples.setdefault(q, []).append(reference)
                tracer.query = None
                if q in self.entries:
                    ledger.check(result.entries == self.entries[q],
                                 f"{kind} query {q} changed between repeats")
                else:
                    ledger.check(len(result.entries) == (len(pack) if self.exact else TOPK),
                                 f"{kind} query {q}: {len(result.entries)} hits")
                    self.entries[q] = result.entries


def audit(wl, served: Served, loop: Loop, exact: Loop, queries: Sequence[int],
          ledger: Ledger) -> list[float]:
    """Gate two-stage against the oracle on the audited queries; returns recall@10 each."""
    arts, pack, config = served.artifacts, served.pack, served.config
    recalls = []
    for q in queries:
        if q not in exact.entries:  # the timed exact loop did not reach it
            exact.entries[q] = pipeline.run_query(wl.make_query(served, q), arts.index, pack,
                                                  config, k=len(pack), exact=True).entries
        oracle, two = exact.entries[q], loop.entries[q]
        ledger.check(gate_scores(two, oracle),
                     f"query {q}: a two-stage score differs from the oracle's")
        top = {d for d, _ in oracle[:TOPK]}
        recalls.append(len(top & {d for d, _ in two}) / TOPK)
    return recalls


def exhaustive_gate(wl, served: Served, ledger: Ledger) -> None:
    """nprobe = P with every candidate must reproduce --exact, order and scores included."""
    arts, pack, config = served.artifacts, served.pack, served.config
    query = wl.make_query(served, 0)
    full = dataclasses.replace(config, nprobe=arts.index.n_partitions, candidates=None)
    exhaustive = pipeline.run_query(query, arts.index, pack, full, k=TOPK)
    oracle = pipeline.run_query(query, arts.index, pack, config, k=TOPK, exact=True)
    ledger.check(exhaustive.entries == oracle.entries, "exhaustive two-stage != exact")


def gate_scores(two_stage: list, oracle: list) -> bool:
    """Every (doc, score) from two-stage equals the oracle's score, bit for bit."""
    scores = dict(oracle)
    return all(d in scores and scores[d] == s for d, s in two_stage)


def _cold_start(texts: list[str], colds: dict[int, list[float]], session: Path,
                ledger: Ledger, tracer: Tracer) -> None:
    """One in-process ``fbl query --text`` call; successive calls cycle through ``texts``."""
    i = sum(map(len, colds.values())) % len(texts)
    with tracer.span("phase.cold_start"):
        out, _, reference = timed(lambda: fbl_main(
            ledger, tracer, "query", "--session", str(session), "--text", texts[i],
            "--topk", str(TOPK)))
    colds.setdefault(i, []).append(reference)
    ledger.check(0 < len(out.splitlines()) <= TOPK, "cold-start query printed no ranking")


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path,
                 shape: Shape = Shape()) -> tuple[dict, dict, Tracer]:
    """One run: returns (result line, run metadata, tracer).

    The run is cut into rounds, each with one set-up, and each round into
    slices that take cold starts, a two-stage loop slice and an exact loop
    slice. Each loop cycles through a fixed set of distinct queries, so
    every query is asked several times, spread over the whole run. Latency
    metrics take each query's median time at reference speed (``timed``).
    A traced run
    sets up once and runs an untraced two-stage slice before each traced
    one; their latency ratio is the trace overhead.
    """
    wl = WORKLOADS[name](seed, shape, work)  # input generation is not set-up
    ledger = Ledger()
    tracer = Tracer(enabled=trace)
    untraced = Tracer(enabled=False)
    rounds, slices = shape.rounds, shape.slices
    two_stage_s = seconds * (1 - wl.exact_share) / (rounds * slices)
    exact_s = seconds * wl.exact_share / (rounds * slices)
    distinct = range(min(shape.timed, wl.n_distinct))
    exact_distinct = range(min(shape.exact_timed, wl.n_distinct))
    audited = range(min(shape.audited, MIN_QUERIES, wl.n_distinct))  # every run asks these
    setups: list[float] = []
    colds: dict[int, list[float]] = {}
    loop, baseline, exact = Loop(), Loop(), Loop(exact=True)

    for r in range(rounds):
        if r == 0 or not trace:
            with tracer.installed(layers.instrument), tracer.span("phase.setup"):
                t0 = time.perf_counter()
                session = wl.setup(r, ledger, tracer)
                setups.append(time.perf_counter() - t0)
            if r == 0:
                first = session
                served = wl.serve(first)  # loading is cold start's cost, not the loop's
            else:  # builds are deterministic: every set-up writes the same session
                ledger.check(store.load_manifest(session).checksums
                             == store.load_manifest(first).checksums,
                             f"set-up {r} wrote a different session")
        for s in range(slices):
            need = MIN_QUERIES if (r, s) == (rounds - 1, slices - 1) else 0
            if trace:
                baseline.run(wl, served, distinct, two_stage_s, ledger, untraced, need)
            with tracer.installed(layers.instrument):
                _cold_start(wl.texts, colds, first, ledger, tracer)
                loop.run(wl, served, distinct, two_stage_s, ledger, tracer, need)
                exact.run(wl, served, exact_distinct, exact_s, ledger, tracer)
    recalls = audit(wl, served, loop, exact, audited, ledger)
    exhaustive_gate(wl, served, ledger)
    with tracer.installed(layers.instrument), tracer.span("phase.mrr"):
        mrr = wl.mrr(served, loop, first, ledger, tracer)
    if trace:
        same = all(baseline.entries[q] == e for q, e in loop.entries.items()
                   if q in baseline.entries)
        ledger.check(same, "a traced query ranked differently from the untraced one")

    two_ms = [x * 1e3 for x in medians(loop.samples)]
    session_bytes = _dir_bytes(first)
    index = served.artifacts.index
    if trace:
        overhead = 100.0 * (statistics.median(medians(loop.samples))
                            / statistics.median(medians(baseline.samples)) - 1.0)
        values = layers.layer_metrics(tracer, index, TOPK, session_bytes, overhead)
        metrics = {n: {"value": values[n], "unit": u} for n, u, _ in layers.PER_LAYER}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "cold_start_s": statistics.median(medians(colds)),
            "query_p50_ms": float(np.percentile(two_ms, 50)),
            "query_p90_ms": float(np.percentile(two_ms, 90)),
            # one client asking each query once
            "queries_per_s": len(two_ms) / (sum(two_ms) / 1e3),
            "exact_p50_ms": statistics.median(medians(exact.samples)) * 1e3,
            "recall_at_10": statistics.fmean(recalls),
            "mrr": mrr,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "session_mb": session_bytes / 1e6,
            "success_rate": 1.0 - ledger.failed / max(ledger.attempted, 1),
        }
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}

    sizes = np.diff(index.part_offsets)
    meta = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "corpus": {
            "docs": len(index.doc_ids),
            "embeddings": index.n_embeddings,
            "dim": index.dim,
            "P": index.n_partitions,
            "M": index.n_subspaces,
            "K": index.n_codewords,
            "nprobe": served.config.nprobe,
            "candidates": served.config.candidates,
            "partition_min": int(sizes.min()),
            "partition_median": float(np.median(sizes)),
            "partition_max": int(sizes.max()),
        },
        "samples": {"setups": len(setups), "cold_starts": sum(map(len, colds.values())),
                    "cold_texts": len(colds),
                    "queries": len(loop.latencies), "distinct_queries": len(loop.samples),
                    "exact_queries": len(exact.latencies),
                    "distinct_exact_queries": len(exact.samples), "audited": len(audited)},
        # wall times over every call, not scaled to reference speed
        "wall": {
            "query_p50_ms": statistics.median(loop.latencies) * 1e3,
            "queries_per_s": len(loop.latencies) / sum(loop.latencies),
            "exact_p50_ms": statistics.median(exact.latencies) * 1e3,
        },
        "problems": ledger.problems,
    }
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    return result, meta, tracer
