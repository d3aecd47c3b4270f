"""Where the tracer hooks into fbl, and how spans become per-layer metrics.

Every hook sits at a call into a layer's public function, patched in the
namespace of its caller. The metric map (which end-to-end metric each
per-layer metric should move, on which workload) is in README.md.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

import numpy as np

from tracer import Tracer


def _n_hunks(args, kwargs, cs):
    return {"hunks": sum(len(fd.hunks) for fd in cs.files)}


def _n_docs(args, kwargs, docs):
    return {"docs": len(docs)}


def _encoded(vocab_arg: int):
    def describe(args, kwargs, seq):
        vocab = args[vocab_arg] if len(args) > vocab_arg else kwargs["vocab"]
        real = seq.ids[: seq.real_length]
        return {"tokens": seq.real_length, "unk": real.count(vocab.unk_id),
                "at_limit": seq.real_length == seq.limit}

    return describe


def _embedded(args, kwargs, mats):
    return {"rows": sum(m.n_rows for m in mats.values())}


def _adc_probes(args, kwargs, scores):
    starts, ends = args[2], args[3]
    return {"codes": int((ends - starts).sum())}


def _adc_rows(args, kwargs, out):
    starts, ends = args[3], args[4]
    return {"codes": int((ends - starts).sum())}


def _maxsim(args, kwargs, scores):
    offsets = args[2]
    return {"rows": int(offsets[-1]), "docs": int(offsets.shape[0] - 1)}


def instrument(tracer: Tracer) -> None:
    """Wrap fbl's layer entry points; undone by ``Tracer.restore``."""
    from fbl import _kernels, cli, corpus, embed, index, pipeline, retrieve, store

    w = tracer.wrap
    # diffs, reached through corpus.load_changesets
    w(corpus, "parse_unified_diff", "diffs.parse", _n_hunks)
    # corpus
    w(pipeline, "explode_corpus", "corpus.explode", _n_docs)
    w(corpus, "explode_corpus", "corpus.explode", _n_docs)
    w(corpus, "build_triplets", "corpus.triplets")
    # encode
    w(pipeline, "encode_documents", "encode.docs")
    w(cli, "encode_documents", "encode.docs")
    w(pipeline, "encode_document", "encode.doc", _encoded(2))
    w(pipeline, "encode_query", "encode.query", _encoded(1))
    w(cli, "encode_query", "encode.query", _encoded(1))
    # embed
    w(pipeline, "embed_documents", "embed.docs", _embedded)
    w(pipeline, "embed_query_text", "query.embed")
    w(cli, "embed_query_text", "query.embed")
    w(pipeline, "embed_sequence", "embed.sequence")
    w(cli, "train_projection", "embed.train")
    tracer.count(embed, "loss_from_raw", "embed.loss_grad_calls")
    tracer.count(embed, "gradient_of_loss", "embed.loss_grad_calls")
    # pipeline and index build
    w(cli, "build_session", "pipeline.build_session")
    w(pipeline, "build_index", "index.build")
    w(index, "build_index", "index.build")
    w(index, "kmeans", "index.kmeans")
    w(_kernels, "assign_nearest", "kernels.assign_nearest")
    w(_kernels, "centroid_sums", "kernels.centroid_sums")
    # index query
    w(retrieve, "candidate_docs", "index.candidates", _n_docs)
    w(_kernels, "adc_scan_probes", "kernels.adc_scan", _adc_probes)
    if _kernels.adc_topk_rows is not None:
        w(_kernels, "adc_topk_rows", "kernels.adc_scan", _adc_rows)
    # retrieve
    w(pipeline, "rank_two_stage", "retrieve.two_stage")
    w(pipeline, "rank_exact", "retrieve.exact")
    w(_kernels, "maxsim_packed", "kernels.maxsim", _maxsim)
    w(retrieve.PackedCorpus, "from_matrices", "retrieve.pack")
    # store
    w(store, "save_session", "store.save")
    w(store, "load_session", "store.load")
    w(store, "sha256_file", "store.checksum")
    w(store, "load_index", "store.load_index")
    w(store, "read_doc_pack", "store.read_doc_pack")


# -- metric names, units and direction (mirrored in BENCHMARK.json) --------------

PER_LAYER = [
    ("diffs.parse_s", "s", "lower"),
    ("diffs.hunks", "count", "higher"),
    ("corpus.explode_s", "s", "lower"),
    ("corpus.docs", "count", "higher"),
    ("corpus.triplets_s", "s", "lower"),
    ("encode.docs_s", "s", "lower"),
    ("encode.tokens", "count", "lower"),
    ("encode.unk_rate", "ratio", "lower"),
    ("encode.truncated_docs", "count", "lower"),
    ("encode.query_ms", "ms", "lower"),
    ("embed.docs_s", "s", "lower"),
    ("embed.rows", "count", "lower"),
    ("embed.query_ms", "ms", "lower"),
    ("embed.train_s", "s", "lower"),
    ("embed.loss_grad_calls", "count", "lower"),
    ("index.build_s", "s", "lower"),
    ("index.kmeans_coarse_s", "s", "lower"),
    ("index.kmeans_pq_s", "s", "lower"),
    ("index.kmeans_self_s", "s", "lower"),
    ("kernels.assign_nearest_s", "s", "lower"),
    ("kernels.assign_nearest_calls", "count", "lower"),
    ("kernels.centroid_sums_s", "s", "lower"),
    ("index.partition_max", "count", "lower"),
    ("index.partition_max_over_median", "ratio", "lower"),
    ("index.candidates_ms", "ms", "lower"),
    ("kernels.adc_scan_ms", "ms", "lower"),
    ("kernels.adc_calls_per_query", "count", "lower"),
    ("index.codes_scanned_per_query", "count", "lower"),
    ("index.candidate_docs_per_query", "count", "lower"),
    ("retrieve.two_stage_ms", "ms", "lower"),
    ("retrieve.rescore_ms", "ms", "lower"),
    ("retrieve.rows_rescored_per_query", "count", "lower"),
    ("retrieve.useful_candidate_share", "ratio", "higher"),
    ("retrieve.rank_self_ms", "ms", "lower"),
    ("retrieve.exact_scan_ms", "ms", "lower"),
    ("retrieve.exact_self_ms", "ms", "lower"),
    ("retrieve.pack_s", "s", "lower"),
    ("store.save_s", "s", "lower"),
    ("store.bytes_written", "bytes", "lower"),
    ("store.load_s", "s", "lower"),
    ("store.checksum_s", "s", "lower"),
    ("store.load_index_s", "s", "lower"),
    ("store.read_doc_pack_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(tracer: Tracer, index, k: int, bytes_written: int, overhead_pct: float) -> dict:
    """Per-layer values from one traced run.

    Set-up values cover the single traced set-up. Query values are medians
    over the traced two-stage loop (one sample per query id); cold-start
    values are medians over the in-process ``fbl query`` calls. Layers a
    workload never enters read 0.
    """
    spans = tracer.spans
    kids = tracer.children()
    named = defaultdict(list)
    for i, s in enumerate(spans):
        named[s.name].append(i)

    def under(name: str, phase: str) -> list[int]:
        return [i for i in named[name] if tracer.has_ancestor(i, phase)]

    def total(name: str, phase: str = "phase.setup") -> float:
        return sum(spans[i].duration for i in under(name, phase))

    def attr_sum(idxs, key: str) -> float:
        return sum(spans[i].attrs.get(key, 0) for i in idxs)

    # set-up -------------------------------------------------------------------
    in_build = under("encode.doc", "pipeline.build_session")
    tokens = attr_sum(in_build, "tokens")
    kmeans_coarse = kmeans_pq = kmeans_self = 0.0
    for b in under("index.build", "phase.setup"):
        runs = [c for c in kids[b] if spans[c].name == "index.kmeans"]
        for j, c in enumerate(runs):
            if j == 0:
                kmeans_coarse += spans[c].duration
            else:
                kmeans_pq += spans[c].duration
            kmeans_self += tracer.self_time(c, kids)
    sizes = np.diff(index.part_offsets)

    # per query ------------------------------------------------------------------
    per_query = defaultdict(lambda: defaultdict(float))
    for i in named["retrieve.two_stage"]:
        if not tracer.has_ancestor(i, "phase.two_stage"):
            continue
        q = per_query[spans[i].query]
        q["two_stage"] += spans[i].duration
        q["rank_self"] += tracer.self_time(i, kids)
    for i in under("index.candidates", "phase.two_stage"):
        q = per_query[spans[i].query]
        q["candidates"] += spans[i].duration
        q["cand_docs"] += spans[i].attrs["docs"]
    for i in under("kernels.adc_scan", "phase.two_stage"):
        q = per_query[spans[i].query]
        q["adc"] += spans[i].duration
        q["adc_calls"] += 1
        q["codes"] += spans[i].attrs["codes"]
    for i in under("kernels.maxsim", "phase.two_stage"):
        q = per_query[spans[i].query]
        q["rescore"] += spans[i].duration
        q["rows"] += spans[i].attrs["rows"]
    queries = list(per_query.values())

    def qmed(key: str, scale: float = 1.0) -> float:
        return _median(q[key] * scale for q in queries)

    exact = under("retrieve.exact", "phase.exact")

    # query embedding and cold start ----------------------------------------------
    def child_ms(parent_name: str, child_name: str) -> float:
        return _median(
            sum(spans[c].duration for c in kids[p] if spans[c].name == child_name) * 1e3
            for p in named[parent_name]
        )

    colds = under("cli.query", "phase.cold_start")

    def cold_med(name: str) -> float:
        per_call = dict.fromkeys(colds, 0.0)
        for j in named[name]:
            c = tracer.ancestor(j, "cli.query")
            if c in per_call:
                per_call[c] += spans[j].duration
        return _median(per_call.values())

    return {
        "diffs.parse_s": total("diffs.parse"),
        "diffs.hunks": attr_sum(under("diffs.parse", "cli.ingest"), "hunks"),
        "corpus.explode_s": total("corpus.explode"),
        "corpus.docs": attr_sum(under("corpus.explode", "pipeline.build_session"), "docs"),
        "corpus.triplets_s": total("corpus.triplets"),
        "encode.docs_s": total("encode.docs"),
        "encode.tokens": tokens,
        "encode.unk_rate": attr_sum(in_build, "unk") / tokens if tokens else 0.0,
        "encode.truncated_docs": attr_sum(in_build, "at_limit"),
        "encode.query_ms": child_ms("query.embed", "encode.query"),
        "embed.docs_s": total("embed.docs"),
        "embed.rows": attr_sum(under("embed.docs", "phase.setup"), "rows"),
        "embed.query_ms": child_ms("query.embed", "embed.sequence"),
        "embed.train_s": total("embed.train"),
        "embed.loss_grad_calls": tracer.counts["embed.loss_grad_calls"],
        "index.build_s": total("index.build"),
        "index.kmeans_coarse_s": kmeans_coarse,
        "index.kmeans_pq_s": kmeans_pq,
        "index.kmeans_self_s": kmeans_self,
        "kernels.assign_nearest_s": total("kernels.assign_nearest"),
        "kernels.assign_nearest_calls": len(under("kernels.assign_nearest", "phase.setup")),
        "kernels.centroid_sums_s": total("kernels.centroid_sums"),
        "index.partition_max": int(sizes.max()),
        "index.partition_max_over_median": float(sizes.max() / max(np.median(sizes), 1.0)),
        "index.candidates_ms": qmed("candidates", 1e3),
        "kernels.adc_scan_ms": qmed("adc", 1e3),
        "kernels.adc_calls_per_query": qmed("adc_calls"),
        "index.codes_scanned_per_query": qmed("codes"),
        "index.candidate_docs_per_query": qmed("cand_docs"),
        "retrieve.two_stage_ms": qmed("two_stage", 1e3),
        "retrieve.rescore_ms": qmed("rescore", 1e3),
        "retrieve.rows_rescored_per_query": qmed("rows"),
        "retrieve.useful_candidate_share": _median(
            k / q["cand_docs"] for q in queries if q["cand_docs"]
        ),
        "retrieve.rank_self_ms": qmed("rank_self", 1e3),
        "retrieve.exact_scan_ms": _median(
            sum(spans[c].duration for c in kids[i] if spans[c].name == "kernels.maxsim") * 1e3
            for i in exact
        ),
        "retrieve.exact_self_ms": _median(tracer.self_time(i, kids) * 1e3 for i in exact),
        "retrieve.pack_s": cold_med("retrieve.pack"),
        "store.save_s": total("store.save"),
        "store.bytes_written": bytes_written,
        "store.load_s": cold_med("store.load"),
        "store.checksum_s": cold_med("store.checksum"),
        "store.load_index_s": cold_med("store.load_index"),
        "store.read_doc_pack_s": cold_med("store.read_doc_pack"),
        "trace.overhead_pct": overhead_pct,
    }
