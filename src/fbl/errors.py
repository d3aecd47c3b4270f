"""Exception types shared across the package.

The CLI picks an exit code by exception type alone: its own
``UsageError`` exits 1; ``DataError``, every other ``FblError`` and
``OSError`` exit 2; anything else, a ``ValueError`` included, is a bug and
exits 3. A ``FieldError`` never reaches that choice: the CLI reports it as
a ``UsageError`` naming the flag, and ``pipeline.open_session`` as a
``FormatError`` naming the manifest.
"""

from __future__ import annotations


class FblError(Exception):
    """Base class for all package errors."""


class FieldError(ValueError):
    """A configuration field holds a value its type does not admit."""

    def __init__(self, field: str, problem: str):
        super().__init__(f"{field} {problem}")
        self.field, self.problem = field, problem


class DataError(FblError):
    """Input data or persisted artifact is unusable."""


class MalformedDiff(DataError):
    """Unified diff text could not be parsed."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class NoNegativeAvailable(DataError):
    """Every candidate document is gold for some bug; no negative can be drawn."""


class EmptyGoldSet(DataError):
    """Bug has no gold class names to categorize against."""


class DimensionMismatch(FblError):
    """Embedder, projection or configuration disagree on a dimension."""


class NonFiniteLoss(FblError):
    """Training produced a NaN/inf loss; aborted."""


class InsufficientData(DataError):
    """No embeddings to build an index from."""


class EmptyIndex(DataError):
    """Search issued against an index with no embeddings."""


class FormatError(DataError):
    """A binary or JSON artifact failed structural validation."""
