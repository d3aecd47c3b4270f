"""Seeded input generators for the two benchmark workloads.

Both generators are pure functions of their seed: the same seed gives
byte-identical output, another seed gives other data. The program under
test only ever sees what these functions produce.

``balanced`` follows the shape of acceptance criterion 7: hunk-sized
documents of 8 unit rows drawn around 256 unit centres, and 96-row queries
stitched from document rows. ``project`` writes a synthetic Java-like
project history as the JSONL files and vocabulary that ``fbl ingest``,
``train-projection`` and ``index`` read.
"""

from __future__ import annotations

import bisect
import itertools
import json
import random
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

# -- balanced: clustered unit rows, many short documents -------------------------


@dataclass
class BalancedCorpus:
    doc_ids: list[str]
    rows: np.ndarray  # (n_docs, rows_per_doc, dim) float32, unit rows
    queries: list[np.ndarray]  # (query_rows, dim) float32 each
    query_sources: list[list[int]]  # document indices each query was stitched from


def _unit(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def balanced_corpus(
    seed: int,
    n_docs: int,
    rows_per_doc: int = 8,
    dim: int = 128,
    n_centres: int = 256,
    noise: float = 0.2,
    n_queries: int = 200,
    query_rows: int = 96,
) -> BalancedCorpus:
    rng = np.random.default_rng([seed, 1])
    centres = _unit(rng.standard_normal((n_centres, dim)))
    labels = rng.integers(n_centres, size=(n_docs, rows_per_doc))
    rows = _unit(centres[labels] + noise * rng.standard_normal((n_docs, rows_per_doc, dim)))
    rows = rows.astype(np.float32)
    queries, sources = [], []
    per_query = -(-query_rows // rows_per_doc)
    for _ in range(n_queries):
        src = rng.choice(n_docs, size=per_query, replace=False)
        queries.append(np.ascontiguousarray(rows[src].reshape(-1, dim)[:query_rows]))
        sources.append(sorted(int(i) for i in src))
    doc_ids = [f"d{i:06d}:0:0" for i in range(n_docs)]
    return BalancedCorpus(doc_ids=doc_ids, rows=rows, queries=queries, query_sources=sources)


# -- project: a token-skewed Java-like history -------------------------------------

SPECIALS = ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[Q]", "[D]", "[A]", "[R]", "[C]"]
KEYWORDS = [
    "public", "private", "static", "final", "void", "int", "long", "boolean",
    "return", "if", "else", "for", "new", "null", "this", "true", "false", "throw",
]
PUNCT = list("=.();{},!<>+-[]:?&|*/\"'")
NL_WORDS = [
    "the", "a", "when", "after", "before", "is", "are", "not", "fails", "crash",
    "error", "exception", "wrong", "missing", "while", "with", "on", "in", "to",
    "of", "and", "user", "clicking", "opening", "saving", "loading", "window",
    "dialog", "value", "shows", "throws", "returns", "empty", "broken", "since",
    "update", "version", "page", "file", "list", "it", "should", "but", "instead",
]
# Subword syllables avoid j, q, x and z, so out-of-vocabulary segments spelled
# from those letters never decompose and always encode as one [UNK].
_ONSETS = ["b", "c", "d", "f", "g", "h", "k", "l", "m", "n", "p", "r", "s", "t", "v", "w",
           "br", "cl", "dr", "fl", "gr", "pl", "pr", "sh", "st", "th", "tr", "ch"]
_VOWELS = ["a", "e", "i", "o", "u", "ai", "ea", "io", "ou"]
_CODAS = ["", "", "n", "r", "s", "t", "l", "m", "ck", "nd", "st"]
_OOV_LETTERS = "jqxz"
_INVENTORY_SEED = 20211228


@dataclass(frozen=True)
class ProjectShape:
    n_changesets: int = 150
    n_bugs: int = 140
    n_subwords: int = 1500
    zipf_a: float = 1.1
    oov_share: float = 0.3  # identifiers carrying one out-of-vocabulary segment
    hunk_lines: tuple[int, int] = (3, 5)


class _Words:
    """Zipf-ranked subword inventory and identifier builder.

    The inventory, and so the vocabulary and every token id, is the same for
    all seeds, as a released tokenizer's would be; ``rng`` drives only what
    the project does with it. Token ids fix the embedding geometry, so runs
    with different seeds meet the same partition skew.
    """

    def __init__(self, rng: random.Random, shape: ProjectShape):
        fixed = random.Random(_INVENTORY_SEED)
        seen: set[str] = set(KEYWORDS) | set(NL_WORDS)
        words: list[str] = []
        while len(words) < shape.n_subwords:
            w = "".join(
                fixed.choice(_ONSETS) + fixed.choice(_VOWELS) + fixed.choice(_CODAS)
                for _ in range(fixed.choice((1, 1, 2)))
            )
            if len(w) >= 3 and w not in seen:
                seen.add(w)
                words.append(w)
        self.words = words
        self._cum = list(itertools.accumulate(1.0 / (r + 1) ** shape.zipf_a
                                              for r in range(len(words))))
        self.rng = rng
        self.oov_share = shape.oov_share

    def subword(self) -> str:
        i = bisect.bisect_left(self._cum, self.rng.random() * self._cum[-1])
        return self.words[min(i, len(self.words) - 1)]

    def identifier(self, parts: int | None = None, capital: bool = False) -> str:
        n = parts or self.rng.choice((1, 2, 2, 3))
        segs = [self.subword() for _ in range(n)]
        if self.rng.random() < self.oov_share:
            oov = "".join(self.rng.choice(_OOV_LETTERS) for _ in range(self.rng.randint(3, 5)))
            segs[self.rng.randrange(n)] = oov
        head = segs[0].capitalize() if capital else segs[0]
        return head + "".join(s.capitalize() for s in segs[1:])


def _statement(rng: random.Random, ids: list[str], words: _Words, cls: str) -> str:
    def name() -> str:
        return rng.choice(ids) if rng.random() < 0.6 else words.identifier()

    kind = rng.randrange(7)
    if kind == 0:
        return f"{rng.choice(KEYWORDS[5:8])} {name()} = {name()}.{name()}({name()});"
    if kind == 1:
        return f"if ({name()} != null && {name()}.{name()}()) {{"
    if kind == 2:
        return f"return {name()}.{name()}({name()}, {name()});"
    if kind == 3:
        return f"{name()}.{name()}({name()});"
    if kind == 4:
        return f"{cls} {name()} = new {cls}({name()});"
    if kind == 5:
        return f"private final {words.identifier(capital=True)} {name()};"
    return "}"


def _hunk_text(rng: random.Random, ids: list[str], words: _Words, cls: str,
               n_lines: tuple[int, int]) -> tuple[str, int, int]:
    n = rng.randint(*n_lines)
    lines = []
    for i in range(n):
        kind = rng.choice("+- ") if i not in (0, n - 1) else rng.choice("+-")
        lines.append((kind, "    " + _statement(rng, ids, words, cls)))
    old = sum(1 for k, _ in lines if k != "+")
    new = sum(1 for k, _ in lines if k != "-")
    return "".join(f"{k}{t}\n" for k, t in lines), old, new


def project_corpus(seed: int, out_dir: str | Path, shape: ProjectShape = ProjectShape()) -> dict:
    """Write changesets.jsonl, bugs.jsonl, links.jsonl and vocab.txt; return counts."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    words = _Words(rng, shape)
    base = datetime(2019, 1, 1, tzinfo=timezone.utc)

    changesets, topics, class_names = [], [], []
    n_hunks = 0
    for c in range(shape.n_changesets):
        cs_id = f"cs{c:05d}"
        topic = [words.identifier() for _ in range(6)]
        topics.append(topic)
        diff_parts, classes = [], []
        # a fixed file/hunk layout keeps the corpus size the same for every seed
        for f in range(1 + (c % 4 == 3)):
            cls = words.identifier(parts=rng.choice((1, 2)), capital=True)
            classes.append(cls)
            path = f"src/main/java/org/example/{words.subword()}/{cls}.java"
            diff_parts.append(f"diff --git a/{path} b/{path}\n--- a/{path}\n+++ b/{path}\n")
            start = rng.randint(1, 400)
            for _ in range(1 + ((c + f) % 3 == 2)):
                body, old, new = _hunk_text(rng, topic, words, cls, shape.hunk_lines)
                diff_parts.append(f"@@ -{start},{old} +{start},{new} @@\n{body}")
                start += old + rng.randint(5, 60)
                n_hunks += 1
        changesets.append({
            "id": cs_id,
            "log": f"Fix {classes[0]} {rng.choice(NL_WORDS)} {rng.choice(NL_WORDS)}",
            "diff": "".join(diff_parts),
            "timestamp": (base + timedelta(days=c)).isoformat(),
        })
        class_names.append(classes)

    gold = rng.sample(range(shape.n_changesets), shape.n_bugs)
    bugs, links = [], []
    for b, c in enumerate(gold):
        cs = changesets[c]
        planted = rng.sample(topics[c], 3)
        filler = [rng.choice(NL_WORDS) for _ in range(rng.randint(12, 24))]
        for ident in planted:
            filler.insert(rng.randrange(len(filler) + 1), ident)
        summary_cls = class_names[c][0] if rng.random() < 0.5 else rng.choice(planted)
        bugs.append({
            "id": f"BUG-{b:04d}",
            "summary": f"{rng.choice(NL_WORDS)} {summary_cls} {rng.choice(NL_WORDS)}",
            "description": " ".join(filler),
            "opened_at": (base + timedelta(days=c, hours=rng.randint(1, 23))).isoformat(),
        })
        links.append({"bug_id": f"BUG-{b:04d}", "changeset_id": cs["id"]})

    def dump(name: str, rows: list[dict]) -> None:
        with open(out / name, "w", encoding="utf-8", newline="\n") as fh:
            for row in rows:
                fh.write(json.dumps(row, sort_keys=True) + "\n")

    dump("changesets.jsonl", changesets)
    dump("bugs.jsonl", bugs)
    dump("links.jsonl", links)
    vocab = SPECIALS + KEYWORDS + PUNCT + NL_WORDS + [str(d) for d in range(10)]
    vocab += words.words + ["##" + w for w in words.words]
    (out / "vocab.txt").write_text("\n".join(vocab) + "\n", encoding="utf-8")
    return {"changesets": len(changesets), "hunks": n_hunks, "bugs": len(bugs), "links": len(links)}
