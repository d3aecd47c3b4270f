"""Subword tokenization and special-token sequence construction.

Pre-tokenization rules (fixed so golden tests stay stable):

* text splits on whitespace; every non-alphanumeric character except ``_``
  becomes a standalone single-character token;
* ``_`` inside an identifier separates segments (snake_case split) and is
  dropped;
* alphanumeric runs split further at camelCase boundaries (``xY``,
  ``XYz`` acronym tails) and letter/digit boundaries;
* segments after the first within one identifier are matched in
  continuation mode, i.e. against ``##``-prefixed vocabulary entries;
* everything is lowercased before matching.

Subword matching is greedy longest-match-first; a segment with no
decomposition collapses to a single [UNK]. Candidate subwords are capped
at 100 characters to bound the scan.

Document sequences come in three flavors. ``D`` interleaves all payload
lines behind one [D] marker. ``ARC`` groups lines by modification kind,
each group behind its [A]/[R]/[C] marker (markers are emitted even for
empty groups). ``ARCL`` keeps original line order and emits a marker at
every point where the modification kind changes. Queries get a single [Q]
marker. Every sequence is [CLS]-led and [SEP]-terminated, and holds at
most its limit of tokens (the separator survives truncation).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from pathlib import Path

from .corpus import BugReport, Document
from .diffs import DiffLine, LineKind
from .errors import FormatError

PAD = "[PAD]"
UNK = "[UNK]"
CLS = "[CLS]"
SEP = "[SEP]"
Q_MARK = "[Q]"
D_MARK = "[D]"
A_MARK = "[A]"
R_MARK = "[R]"
C_MARK = "[C]"

# from_tokens appends missing ones in this order; [PAD] is never emitted but keeps its id
SPECIAL_TOKENS = (PAD, UNK, CLS, SEP, Q_MARK, D_MARK, A_MARK, R_MARK, C_MARK)

_MAX_SUBWORD_CHARS = 100


class Strategy(enum.Enum):
    D = "d"
    ARC = "arc"
    ARCL = "arcl"


@dataclass
class Vocabulary:
    token_to_id: dict[str, int]
    id_to_token: list[str]

    @property
    def unk_id(self) -> int:
        return self.token_to_id[UNK]

    def id_of(self, token: str) -> int:
        return self.token_to_id[token]

    def __len__(self) -> int:
        return len(self.id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_id

    @classmethod
    def from_tokens(cls, tokens: list[str]) -> "Vocabulary":
        """Build a vocabulary from surface forms, appending missing specials."""
        id_to_token = list(tokens)
        token_to_id = dict(zip(id_to_token, range(len(id_to_token))))
        if len(token_to_id) < len(id_to_token):  # name the first repeat in file order
            seen: set[str] = set()
            for tok in id_to_token:
                if tok in seen:
                    raise FormatError(f"duplicate vocabulary token {tok!r}")
                seen.add(tok)
        for special in SPECIAL_TOKENS:
            if special not in token_to_id:
                token_to_id[special] = len(id_to_token)
                id_to_token.append(special)
        return cls(token_to_id, id_to_token)

    @classmethod
    def from_bytes(cls, data: bytes, path: str | Path) -> "Vocabulary":
        """Parse a plain-text vocab (one token per line, id = line number) read from path.

        Lines end at \\n, \\r or \\r\\n, as in a file read as text; bytes
        that are not UTF-8 become U+FFFD. Errors name the path.
        """
        text = data.decode("utf-8", errors="replace")
        tokens = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
        while tokens and tokens[-1] == "":
            tokens.pop()  # trailing newline artifacts
        try:
            return cls.from_tokens(tokens)
        except FormatError as exc:
            raise FormatError(f"{path}: {exc}") from exc

    @classmethod
    def from_file(cls, path: str | Path) -> "Vocabulary":
        return cls.from_bytes(Path(path).read_bytes(), path)


@dataclass(frozen=True)
class EncodedSequence:
    ids: tuple[int, ...]
    limit: int

    @property
    def real_length(self) -> int:
        # kept for perfbench's encode hook, which reads it and slices by it
        return len(self.ids)


def _split_camel(run: str) -> list[str]:
    """Split one alphanumeric run at camelCase and letter/digit boundaries."""
    if len(run) <= 1:
        return [run]
    parts: list[str] = []
    start = 0
    for i in range(1, len(run)):
        prev, cur = run[i - 1], run[i]
        boundary = False
        if prev.islower() and cur.isupper():
            boundary = True
        elif prev.isdigit() != cur.isdigit():
            boundary = True
        elif (
            prev.isupper()
            and cur.isupper()
            and i + 1 < len(run)
            and run[i + 1].islower()
        ):
            boundary = True  # acronym tail: HTMLParser -> HTML | Parser
        if boundary:
            parts.append(run[start:i])
            start = i
    parts.append(run[start:])
    return parts


def pretokenize(text: str) -> list[tuple[str, bool]]:
    """Lowercased (segment, is_continuation) pairs ready for subword matching."""
    out: list[tuple[str, bool]] = []
    for chunk in text.split():
        segments_pending = False  # True while inside one identifier
        i = 0
        while i < len(chunk):
            ch = chunk[i]
            if ch.isalnum():
                j = i
                while j < len(chunk) and chunk[j].isalnum():
                    j += 1
                for part in _split_camel(chunk[i:j]):
                    out.append((part.lower(), segments_pending))
                    segments_pending = True
                i = j
            elif ch == "_":
                i += 1  # snake_case separator: dropped, keeps continuation
            else:
                out.append((ch, False))
                segments_pending = False
                i += 1
    return out


def _match_segment(segment: str, continuation: bool, vocab: Vocabulary) -> list[str]:
    chars = segment
    pieces: list[str] = []
    start = 0
    while start < len(chars):
        end = min(len(chars), start + _MAX_SUBWORD_CHARS)
        found = None
        while start < end:
            sub = chars[start:end]
            if start > 0 or continuation:
                sub = "##" + sub
            if sub in vocab:
                found = sub
                break
            end -= 1
        if found is None:
            return [UNK]
        pieces.append(found)
        start = end
    return pieces


def wordpiece_tokenize(text: str, vocab: Vocabulary) -> list[str]:
    """Greedy longest-match subword tokenization of raw text."""
    tokens: list[str] = []
    for segment, continuation in pretokenize(text):
        tokens.extend(_match_segment(segment, continuation, vocab))
    return tokens


def _finish(stream: list[int], vocab: Vocabulary, limit: int) -> EncodedSequence:
    """Truncate to limit-1 and terminate with [SEP]."""
    body = stream[: limit - 1]
    body.append(vocab.id_of(SEP))
    return EncodedSequence(ids=tuple(body), limit=limit)


def _tokens_to_ids(tokens: list[str], vocab: Vocabulary) -> list[int]:
    unk = vocab.unk_id
    return [vocab.token_to_id.get(t, unk) for t in tokens]


_KIND_MARK = {LineKind.ADDED: A_MARK, LineKind.REMOVED: R_MARK, LineKind.CONTEXT: C_MARK}


# the shortest limits: [CLS] [Q] [SEP] for a query, one mark more for a document
QUERY_LEAST, DOC_LEAST = 3, 4


def encode_document(
    doc: Document, strategy: Strategy, vocab: Vocabulary, limit: int
) -> EncodedSequence:
    if limit < DOC_LEAST:
        raise ValueError(f"document limit must be >= {DOC_LEAST}, got {limit}")
    lines: list[DiffLine] = doc.lines()
    stream: list[int] = [vocab.id_of(CLS)]
    if strategy is Strategy.D:
        stream.append(vocab.id_of(D_MARK))
        for dl in lines:
            stream.extend(_tokens_to_ids(wordpiece_tokenize(dl.text, vocab), vocab))
    elif strategy is Strategy.ARC:
        for kind in (LineKind.ADDED, LineKind.REMOVED, LineKind.CONTEXT):
            stream.append(vocab.id_of(_KIND_MARK[kind]))
            for dl in lines:
                if dl.kind is kind:
                    stream.extend(_tokens_to_ids(wordpiece_tokenize(dl.text, vocab), vocab))
    else:
        prev_kind = None
        for dl in lines:
            if dl.kind is not prev_kind:
                stream.append(vocab.id_of(_KIND_MARK[dl.kind]))
                prev_kind = dl.kind
            stream.extend(_tokens_to_ids(wordpiece_tokenize(dl.text, vocab), vocab))
    return _finish(stream, vocab, limit)


def encode_query(report: BugReport, vocab: Vocabulary, limit: int) -> EncodedSequence:
    if limit < QUERY_LEAST:
        raise ValueError(f"query limit must be >= {QUERY_LEAST}, got {limit}")
    stream = [vocab.id_of(CLS), vocab.id_of(Q_MARK)]
    stream.extend(_tokens_to_ids(wordpiece_tokenize(report.query_text(), vocab), vocab))
    return _finish(stream, vocab, limit)
