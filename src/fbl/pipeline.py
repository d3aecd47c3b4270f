"""End-to-end plumbing: configuration, building and opening sessions, querying, benching.

This is the layer the CLI drives. Everything is deterministic given the
config seed; the bench functions are the only place wall clocks appear.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import _kernels, store
from .corpus import BugReport, Changeset, Document, Granularity, explode_corpus
from .embed import (
    EmbeddingMatrix,
    LinearProjection,
    ReferenceHashEmbedder,
    TokenEmbedder,
    embed_distinct,
    embed_sequence,
)
from .encode import (
    DOC_LEAST, QUERY_LEAST, EncodedSequence, Strategy, Vocabulary, encode_document, encode_query,
)
from .errors import DataError, DimensionMismatch, FieldError, FormatError
from .index import IvfPqIndex, build_index
from .retrieve import PackedCorpus, RankedResult, rank_exact, rank_two_stage
from .store import Manifest, SessionArtifacts, load_embedder


# each integer Config field's least value
CONFIG_LEAST = {
    "query_limit": QUERY_LEAST, "doc_limit": DOC_LEAST,
    "n_partitions": 1, "candidates": 1, "nprobe": 1, "n_subspaces": 1, "n_codewords": 1,
    "seed": 0, "d_in": 1, "d_out": 1,
}

# the Config fields a session's manifest records under their own names
MANIFEST_FIELDS = (
    "granularity", "strategy", "query_limit", "doc_limit", "n_partitions", "n_subspaces",
    "n_codewords", "seed", "d_in", "d_out", "embedder_kind",
)


@dataclass
class Config:
    granularity: Granularity = Granularity.HUNK  # or its value
    strategy: Strategy = Strategy.ARCL  # or its value
    query_limit: int = 256
    doc_limit: int | None = None  # None means the granularity's default
    n_partitions: int | None = None  # None means sized to the table (index.centroids_for)
    candidates: int | None = 1000  # None means exhaustive
    nprobe: int = 16
    n_subspaces: int = 16
    n_codewords: int | None = None  # None means sized to the table (index.centroids_for)
    seed: int = 42
    d_in: int = 768
    d_out: int = 128
    embedder_kind: str = "hash"  # "hash" or "file"
    embedder_path: str | None = None

    def __post_init__(self):
        self.granularity = Granularity(self.granularity)
        self.strategy = Strategy(self.strategy)
        if self.doc_limit is None:
            self.doc_limit = 256 if self.granularity is Granularity.HUNK else 512
        if self.embedder_kind not in ("hash", "file"):
            raise ValueError(f"unknown embedder kind {self.embedder_kind!r}")
        for name, least in CONFIG_LEAST.items():
            value = getattr(self, name)
            if value is not None and value < least:  # None candidates: all, P and K: sized
                raise FieldError(name, f"must be >= {least}, got {value}")
        if self.n_codewords is not None and self.n_codewords > 256:  # a code is one byte
            raise FieldError("n_codewords", f"must be at most 256, got {self.n_codewords}")


def make_embedder(
    config: Config, data: bytes | None = None, vocab: Vocabulary | None = None
) -> TokenEmbedder:
    """The configured embedder; ``data`` is the file's bytes when already read.

    Given the vocabulary it will embed, a file table must hold a row for
    each of its ids; a shorter one is a data error, raised before any
    document is embedded.
    """
    if config.embedder_kind == "hash":
        return ReferenceHashEmbedder(d_in=config.d_in, seed=config.seed)
    if not config.embedder_path:  # Config admits only "hash" and "file"
        raise ValueError("file embedder needs a path")
    emb = load_embedder(config.embedder_path, data)
    if emb.d_in != config.d_in:
        raise DimensionMismatch(f"{config.embedder_path}: dim {emb.d_in} != d_in {config.d_in}")
    rows = emb.matrix.shape[0]
    if vocab is not None and rows < len(vocab):
        raise DataError(
            f"{config.embedder_path}: {rows} rows cannot embed the {len(vocab)} ids "
            "of the vocabulary"
        )
    return emb


def encode_documents(
    docs: Sequence[Document], strategy: Strategy, vocab: Vocabulary, limit: int
) -> dict[str, EncodedSequence]:
    return {d.doc_id: encode_document(d, strategy, vocab, limit) for d in docs}


def _float16_values(values: np.ndarray) -> np.ndarray:
    """``values`` rounded to float16 values, in their own dtype; one past float16's range stays."""
    with np.errstate(over="ignore"):
        half = values.astype(np.float16)
    return np.where(np.isfinite(half), half, values)


def embed_documents(
    seqs: Mapping[str, EncodedSequence],
    embedder: TokenEmbedder,
    projection: LinearProjection,
) -> PackedCorpus:
    """The documents' pack, built from one table of their distinct tokens.

    The table is rounded to float16 values before packing, so rows equal
    after rounding merge and ``docs.fblp`` stores the table at 2 bytes a value.
    """
    table, refs = embed_distinct([s.ids for s in seqs.values()], embedder, projection)
    offsets = np.cumsum([0] + [r.shape[0] for r in refs], dtype=np.int64)
    flat = np.concatenate([np.zeros(0, dtype=np.int64), *refs])
    return PackedCorpus.from_table(_float16_values(table), flat, offsets, seqs.keys())


def embed_query_text(
    report: BugReport,
    vocab: Vocabulary,
    config: Config,
    embedder: TokenEmbedder,
    projection: LinearProjection,
) -> EmbeddingMatrix:
    seq = encode_query(report, vocab, config.query_limit)
    return embed_sequence(seq, embedder, projection, is_query=True)


def build_session(
    changesets: Sequence[Changeset],
    vocab: Vocabulary,
    config: Config,
    projection: LinearProjection | None = None,
    corpus_hash: str = "",
    vocab_hash: str = "",
    embedder_bytes: bytes | None = None,  # a file embedder's table, when already read
) -> SessionArtifacts:
    """Encode, embed, and index a corpus under one configuration.

    The manifest records the index's partition count and codebook size,
    which the table may have capped or sized. The projection, seeded or
    given, is rounded to float16 values once, and the session embeds and
    stores that one, at 2 bytes a value.
    """
    for name in ("d_out", "d_in") if projection is not None else ():
        if (got := getattr(projection, name)) != (want := getattr(config, name)):
            raise DimensionMismatch(f"projection {name}={got} != configured {name}={want}")
    embedder = make_embedder(config, embedder_bytes, vocab=vocab)
    docs = explode_corpus(changesets, config.granularity)
    seqs = encode_documents(docs, config.strategy, vocab, config.doc_limit)
    if projection is None:
        projection = LinearProjection.seeded_init(config.d_in, config.d_out, config.seed)
    projection = LinearProjection(_float16_values(projection.weights))
    pack = embed_documents(seqs, embedder, projection)
    index = build_index(
        pack,
        n_partitions=config.n_partitions,
        n_subspaces=config.n_subspaces,
        n_codewords=config.n_codewords,
        seed=config.seed,
    )
    proj_hash = hashlib.sha256(
        np.ascontiguousarray(projection.weights, dtype="<f4").tobytes()
    ).hexdigest()
    recorded = {name: getattr(config, name) for name in MANIFEST_FIELDS}
    recorded.update(granularity=config.granularity.value, strategy=config.strategy.value,
                    n_partitions=index.n_partitions, n_codewords=index.n_codewords)
    manifest = Manifest(
        corpus_hash=corpus_hash,
        vocab_hash=vocab_hash,
        embedder_seed=config.seed,
        projection_hash=proj_hash,
        **recorded,
    )
    return SessionArtifacts(manifest, index, projection, pack)


@dataclass(frozen=True)
class OpenSession:
    """A loaded session, with the vocabulary and Config its queries run under."""

    artifacts: SessionArtifacts
    vocab: Vocabulary
    config: Config

    @cached_property
    def embedder(self) -> TokenEmbedder:
        """Made on first use, so a command that embeds no text parses no table."""
        return make_embedder(self.config, self.artifacts.embedder, vocab=self.vocab)


def open_session(directory: str | Path, **probe) -> OpenSession:
    """The session at ``directory``, served with the ``probe`` fields (nprobe, candidates)."""
    directory = Path(directory)
    artifacts = store.load_session(directory)  # through the module, where tracers wrap it
    m = artifacts.manifest
    vocab = Vocabulary.from_bytes(artifacts.vocab, directory / store.VOCAB_NAME)
    recorded = {name: getattr(m, name) for name in MANIFEST_FIELDS}
    embedder_path = str(directory / store.EMBEDDER_NAME) if m.embedder_kind == "file" else None
    try:
        config = Config(**recorded, **probe, embedder_path=embedder_path)
    except ValueError as exc:  # the values came from the session, not from the caller
        raise FormatError(f"{directory / store.MANIFEST_NAME}: {exc}") from exc
    return OpenSession(artifacts, vocab, config)


def run_query(
    query: EmbeddingMatrix,
    index: IvfPqIndex,
    pack: PackedCorpus,
    config: Config,
    k: int,
    exact: bool = False,
    bug_id: str = "",
) -> RankedResult:
    if exact:
        return rank_exact(query, pack, bug_id=bug_id, k=k)
    return rank_two_stage(
        query,
        index,
        pack,
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


def sweep_latency(
    doc_matrices: Mapping[str, EmbeddingMatrix],
    sizes: Sequence[int],
    config: Config,
    n_queries: int = 5,
    k: int = 10,
    query_rows: int = 64,
) -> list[BenchRow]:
    """Exact vs two-stage mean per-query latency at several corpus sizes.

    Queries are stitched from sampled document rows (bug reports run longer
    than hunks, hence query_rows). Quantizer quality barely affects scan
    latency, so index builds here run few k-means iterations. Every prefix
    builds with the config's partition count and codebook size: ``fbl bench``
    passes the ones its session was built with, and a library caller whose
    n_partitions or n_codewords is None gets each prefix's table-sized one.
    Each path's query loop runs in three rounds, alternating which path goes
    first, and reports its fastest round: load from other processes that
    slows one round does not reach the ratio.

    The documents are packed once. Each size builds and queries the pack's
    shortest document prefix holding at least that many rows (or all).
    """
    rng = np.random.default_rng(config.seed)
    rows_out: list[BenchRow] = []
    whole = PackedCorpus.from_matrices(doc_matrices)
    for target in sizes:
        pack = whole.prefix(int(np.searchsorted(whole.offsets[:-1], target)))
        index = build_index(
            pack,
            n_partitions=config.n_partitions,
            n_subspaces=config.n_subspaces,
            n_codewords=config.n_codewords,
            seed=config.seed,
            max_iters=8,
        )
        queries = []
        for _ in range(n_queries):
            rows: list[np.ndarray] = []
            have = 0
            while have < query_rows:
                rows.append(pack[pack.ids[int(rng.integers(len(pack)))]].rows)
                have += rows[-1].shape[0]
            stacked = np.concatenate(rows)[:query_rows]
            queries.append(EmbeddingMatrix(np.ascontiguousarray(stacked), is_query=True))

        # one untimed run of each path first, so caches are warm when timing starts
        run_query(queries[0], index, pack, config, k=k, exact=True)
        run_query(queries[0], index, pack, config, k=k, exact=False)

        fastest = {True: float("inf"), False: float("inf")}  # per-query mean, by exact
        for r in range(3):
            for exact in (r % 2 == 0, r % 2 == 1):
                t0 = time.perf_counter()
                for q in queries:
                    run_query(q, index, pack, config, k=k, exact=exact)
                fastest[exact] = min(fastest[exact], (time.perf_counter() - t0) / len(queries))
        exact_mean, two_stage_mean = fastest[True], fastest[False]

        rows_out.append(
            BenchRow(
                embeddings=pack.n_rows,
                docs=len(pack),
                partitions=index.n_partitions,
                nprobe=min(config.nprobe, index.n_partitions),
                candidates=config.candidates,
                queries=len(queries),
                exact_mean_s=exact_mean,
                two_stage_mean_s=two_stage_mean,
                ratio=two_stage_mean / exact_mean if exact_mean > 0 else float("nan"),
                backend=_kernels.BACKEND,
            )
        )
    return rows_out
