"""End-to-end plumbing: configuration, session building, querying, benching.

This is the layer the CLI drives. Everything is deterministic given the
config seed; the bench functions are the only place wall clocks appear.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from . import _kernels
from .corpus import BugReport, Changeset, Document, Granularity, explode_corpus
from .embed import (
    EmbeddingMatrix,
    FileEmbedder,
    LinearProjection,
    ReferenceHashEmbedder,
    TokenEmbedder,
    embed_sequence,
)
from .encode import EncodedSequence, Strategy, Vocabulary, encode_document, encode_query
from .index import IvfPqIndex, build_index
from .retrieve import PackedCorpus, RankedResult, rank_exact, rank_two_stage
from .store import Manifest


@dataclass
class Config:
    granularity: Granularity = Granularity.HUNK
    strategy: Strategy = Strategy.ARCL
    query_limit: int = 256
    hunk_limit: int = 256
    file_limit: int = 512
    changeset_limit: int = 512
    n_partitions: int = 320
    candidates: int | None = 1000  # None means exhaustive
    nprobe: int = 16
    n_subspaces: int = 16
    n_codewords: int = 256
    seed: int = 42
    d_in: int = 768
    d_out: int = 128
    embedder_kind: str = "hash"  # "hash" or "file"
    embedder_path: str | None = None

    def __post_init__(self):
        for name in (
            "query_limit",
            "hunk_limit",
            "file_limit",
            "changeset_limit",
            "n_partitions",
            "nprobe",
            "n_subspaces",
            "n_codewords",
            "d_in",
            "d_out",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.candidates is not None and self.candidates < 1:
            raise ValueError("candidates must be positive (or None for all)")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    def doc_limit(self) -> int:
        return {
            Granularity.HUNK: self.hunk_limit,
            Granularity.FILE: self.file_limit,
            Granularity.CHANGESET: self.changeset_limit,
        }[self.granularity]


def make_embedder(config: Config, data: bytes | None = None) -> TokenEmbedder:
    """The configured embedder; ``data`` is the file's bytes when already read."""
    if config.embedder_kind == "hash":
        return ReferenceHashEmbedder(d_in=config.d_in, seed=config.seed)
    if config.embedder_kind == "file":
        if not config.embedder_path:
            raise ValueError("file embedder needs a path")
        emb = FileEmbedder.from_file(config.embedder_path, data)
        if emb.d_in != config.d_in:
            raise ValueError(f"embedder file dim {emb.d_in} != configured d_in {config.d_in}")
        return emb
    raise ValueError(f"unknown embedder kind {config.embedder_kind!r}")


def encode_documents(
    docs: Sequence[Document], strategy: Strategy, vocab: Vocabulary, limit: int
) -> dict[str, EncodedSequence]:
    return {d.doc_id: encode_document(d, strategy, vocab, limit) for d in docs}


def embed_documents(
    seqs: Mapping[str, EncodedSequence],
    embedder: TokenEmbedder,
    projection: LinearProjection,
) -> dict[str, EmbeddingMatrix]:
    return {
        doc_id: embed_sequence(seq, embedder, projection) for doc_id, seq in seqs.items()
    }


def embed_query_text(
    report: BugReport,
    vocab: Vocabulary,
    config: Config,
    embedder: TokenEmbedder,
    projection: LinearProjection,
) -> EmbeddingMatrix:
    seq = encode_query(report, vocab, config.query_limit)
    return embed_sequence(seq, embedder, projection, is_query=True)


@dataclass
class BuiltSession:
    manifest: Manifest
    index: IvfPqIndex
    projection: LinearProjection
    doc_matrices: PackedCorpus
    documents: list[Document] = field(default_factory=list)


def build_session(
    changesets: Sequence[Changeset],
    vocab: Vocabulary,
    config: Config,
    projection: LinearProjection | None = None,
    corpus_hash: str = "",
    vocab_hash: str = "",
) -> BuiltSession:
    """Encode, embed, and index a corpus under one configuration."""
    docs = explode_corpus(changesets, config.granularity)
    seqs = encode_documents(docs, config.strategy, vocab, config.doc_limit())
    embedder = make_embedder(config)
    if projection is None:
        projection = LinearProjection.seeded_init(config.d_in, config.d_out, config.seed)
    matrices = PackedCorpus.from_matrices(embed_documents(seqs, embedder, projection))
    index = build_index(
        matrices,
        n_partitions=config.n_partitions,
        n_subspaces=config.n_subspaces,
        n_codewords=config.n_codewords,
        seed=config.seed,
    )
    proj_hash = hashlib.sha256(
        np.ascontiguousarray(projection.weights, dtype="<f4").tobytes()
    ).hexdigest()
    manifest = Manifest(
        corpus_hash=corpus_hash,
        granularity=config.granularity.value,
        strategy=config.strategy.value,
        vocab_hash=vocab_hash,
        embedder_kind=config.embedder_kind,
        embedder_seed=config.seed,
        d_in=config.d_in,
        d_out=config.d_out,
        projection_hash=proj_hash,
        n_partitions=config.n_partitions,
        n_subspaces=config.n_subspaces,
        n_codewords=config.n_codewords,
        seed=config.seed,
        doc_limit=config.doc_limit(),
    )
    return BuiltSession(
        manifest=manifest,
        index=index,
        projection=projection,
        doc_matrices=matrices,
        documents=docs,
    )


def run_query(
    query: EmbeddingMatrix,
    index: IvfPqIndex,
    docs: Mapping[str, EmbeddingMatrix],
    config: Config,
    k: int,
    exact: bool = False,
    bug_id: str = "",
) -> RankedResult:
    if exact:
        result = rank_exact(query, docs, bug_id=bug_id)
        return RankedResult(bug_id=bug_id, entries=result.entries[:k], mode=result.mode)
    return rank_two_stage(
        query,
        index,
        docs,
        n_prime=config.candidates,
        nprobe=min(config.nprobe, index.n_partitions),
        k=k,
        bug_id=bug_id,
    )


# -- latency sweep ----------------------------------------------------------------


@dataclass
class BenchRow:
    embeddings: int
    docs: int
    partitions: int
    nprobe: int
    candidates: int | None
    queries: int
    exact_mean_s: float
    two_stage_mean_s: float
    ratio: float
    backend: str


BENCH_CSV_HEADER = (
    "embeddings,docs,partitions,nprobe,candidates,queries,"
    "exact_mean_s,two_stage_mean_s,ratio,backend"
)


def bench_row_csv(row: BenchRow) -> str:
    cand = "all" if row.candidates is None else str(row.candidates)
    return (
        f"{row.embeddings},{row.docs},{row.partitions},{row.nprobe},{cand},"
        f"{row.queries},{row.exact_mean_s:.6f},{row.two_stage_mean_s:.6f},"
        f"{row.ratio:.4f},{row.backend}"
    )


def _subsample_to_size(
    doc_matrices: Mapping[str, EmbeddingMatrix], target_embeddings: int
) -> dict[str, EmbeddingMatrix]:
    out: dict[str, EmbeddingMatrix] = {}
    total = 0
    for doc_id, mat in doc_matrices.items():
        if total >= target_embeddings:
            break
        out[doc_id] = mat
        total += mat.n_rows
    return out


def sweep_latency(
    doc_matrices: Mapping[str, EmbeddingMatrix],
    sizes: Sequence[int],
    config: Config,
    n_queries: int = 5,
    k: int = 10,
    build_max_iters: int = 8,
    query_rows: int = 64,
) -> list[BenchRow]:
    """Exact vs two-stage mean per-query latency at several corpus sizes.

    Queries are stitched from sampled document rows (bug reports run longer
    than hunks, hence query_rows). Quantizer quality barely affects scan
    latency, so index builds here run few k-means iterations.
    """
    rng = np.random.default_rng(config.seed)
    rows_out: list[BenchRow] = []
    for target in sizes:
        # packed once, for the build and the queries, like a live session
        pack = PackedCorpus.from_matrices(_subsample_to_size(doc_matrices, target))
        n_rows = pack.rows.shape[0]
        p_eff = min(config.n_partitions, max(1, n_rows))
        cfg = replace(config, n_partitions=p_eff, nprobe=min(config.nprobe, p_eff))
        index = build_index(
            pack,
            n_partitions=cfg.n_partitions,
            n_subspaces=cfg.n_subspaces,
            n_codewords=min(cfg.n_codewords, max(1, n_rows)),
            seed=cfg.seed,
            max_iters=build_max_iters,
        )
        doc_ids = pack.ids
        queries = []
        for _ in range(n_queries):
            rows: list[np.ndarray] = []
            have = 0
            while have < query_rows:
                pick = doc_ids[int(rng.integers(len(doc_ids)))]
                rows.append(pack[pick].rows)
                have += pack[pick].n_rows
            stacked = np.concatenate(rows)[:query_rows]
            queries.append(EmbeddingMatrix(np.ascontiguousarray(stacked), is_query=True))

        # one untimed run of each path first, so caches are warm when timing starts
        run_query(queries[0], index, pack, cfg, k=k, exact=True)
        run_query(queries[0], index, pack, cfg, k=k, exact=False)

        t0 = time.perf_counter()
        for q in queries:
            run_query(q, index, pack, cfg, k=k, exact=True)
        exact_mean = (time.perf_counter() - t0) / len(queries)

        t0 = time.perf_counter()
        for q in queries:
            run_query(q, index, pack, cfg, k=k, exact=False)
        two_stage_mean = (time.perf_counter() - t0) / len(queries)

        rows_out.append(
            BenchRow(
                embeddings=n_rows,
                docs=len(pack),
                partitions=cfg.n_partitions,
                nprobe=cfg.nprobe,
                candidates=cfg.candidates,
                queries=len(queries),
                exact_mean_s=exact_mean,
                two_stage_mean_s=two_stage_mean,
                ratio=two_stage_mean / exact_mean if exact_mean > 0 else float("nan"),
                backend=_kernels.BACKEND,
            )
        )
    return rows_out
