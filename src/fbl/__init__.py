"""Changeset-based bug localization.

Bug reports and code changes are embedded as matrices of unit-norm token
vectors; each distinct document token embedding lives once in an IVFPQ
index; queries run two-stage retrieval (ANN candidate generation, exact
late-interaction re-ranking) with a brute-force oracle alongside for
verification.
"""

from ._kernels import BACKEND as kernel_backend
from .corpus import (
    BugReport,
    Document,
    GoldLink,
    Granularity,
    Triplet,
    build_triplets,
    explode,
    split_train_test,
)
from .diffs import Changeset, DiffLine, FileDiff, Hunk, LineKind, parse_unified_diff
from .embed import (
    EmbeddingMatrix,
    FileEmbedder,
    LinearProjection,
    ReferenceHashEmbedder,
    TripletTrainConfig,
    embed_sequence,
    gradient_of_loss,
    train_projection,
)
from .encode import EncodedSequence, Strategy, Vocabulary, encode_document, encode_query, wordpiece_tokenize
from .index import IvfPqIndex, build_index, candidate_docs, kmeans
from .pipeline import Config, build_session
from .retrieve import (
    PackedCorpus,
    RankedResult,
    aggregate_to_changeset,
    rank_exact,
    rank_two_stage,
)

__version__ = "0.1.0"

__all__ = [
    "BugReport",
    "Changeset",
    "Config",
    "DiffLine",
    "Document",
    "EmbeddingMatrix",
    "EncodedSequence",
    "FileDiff",
    "FileEmbedder",
    "GoldLink",
    "Granularity",
    "Hunk",
    "IvfPqIndex",
    "LineKind",
    "LinearProjection",
    "PackedCorpus",
    "RankedResult",
    "ReferenceHashEmbedder",
    "Strategy",
    "Triplet",
    "TripletTrainConfig",
    "Vocabulary",
    "aggregate_to_changeset",
    "build_index",
    "build_session",
    "build_triplets",
    "candidate_docs",
    "embed_sequence",
    "encode_document",
    "encode_query",
    "explode",
    "gradient_of_loss",
    "kernel_backend",
    "kmeans",
    "parse_unified_diff",
    "rank_exact",
    "rank_two_stage",
    "split_train_test",
    "train_projection",
    "wordpiece_tokenize",
]
