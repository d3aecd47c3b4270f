"""Retrieval corpus: documents, bug reports, gold links, and training triplets.

A changeset explodes into retrieval documents at one of three
granularities. Document ids are deterministic and human-debuggable:
``<changeset_id>:<file_idx>:<hunk_idx>``, with ``*`` standing in for the
index at coarser granularities (``abc123:*:*`` is the whole-changeset
document, ``abc123:0:*`` the first file, ``abc123:0:2`` its third hunk).

File diffs without hunks (binary entries, pure renames) never become
file- or hunk-level documents; there is no text to embed.
"""

from __future__ import annotations

import enum
import json
import random
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .diffs import Changeset, DiffLine, FileDiff, Hunk, parse_unified_diff
from .errors import DataError, NoNegativeAvailable


class Granularity(enum.Enum):
    CHANGESET = "changeset"
    FILE = "file"
    HUNK = "hunk"


@dataclass(frozen=True)
class Document:
    doc_id: str
    origin_changeset: str
    granularity: Granularity
    payload: Changeset | FileDiff | Hunk

    def lines(self) -> list[DiffLine]:
        """Payload diff lines in original order, all files/hunks flattened."""
        p = self.payload
        if isinstance(p, Hunk):
            return list(p.lines)
        if isinstance(p, FileDiff):
            return [dl for h in p.hunks for dl in h.lines]
        return [dl for fd in p.files for h in fd.hunks for dl in h.lines]


@dataclass(frozen=True)
class BugReport:
    bug_id: str
    summary: str
    description: str
    opened_at: datetime

    def query_text(self) -> str:
        return (self.summary + " " + self.description).strip()


@dataclass(frozen=True)
class GoldLink:
    bug_id: str
    changeset_id: str


@dataclass(frozen=True)
class Triplet:
    bug_id: str
    positive_doc: str
    negative_doc: str


def changeset_of_doc(doc_id: str) -> str:
    """Recover the origin changeset id from a document id."""
    return doc_id.rsplit(":", 2)[0]


def explode(cs: Changeset, granularity: Granularity) -> list[Document]:
    """Turn one changeset into retrieval documents at the given granularity."""
    if granularity is Granularity.CHANGESET:
        return [
            Document(
                doc_id=f"{cs.changeset_id}:*:*",
                origin_changeset=cs.changeset_id,
                granularity=granularity,
                payload=cs,
            )
        ]
    docs: list[Document] = []
    for fi, fd in enumerate(cs.files):
        if not fd.hunks:
            continue
        if granularity is Granularity.FILE:
            docs.append(
                Document(
                    doc_id=f"{cs.changeset_id}:{fi}:*",
                    origin_changeset=cs.changeset_id,
                    granularity=granularity,
                    payload=fd,
                )
            )
        else:
            for hi, h in enumerate(fd.hunks):
                docs.append(
                    Document(
                        doc_id=f"{cs.changeset_id}:{fi}:{hi}",
                        origin_changeset=cs.changeset_id,
                        granularity=granularity,
                        payload=h,
                    )
                )
    return docs


def explode_corpus(changesets: Iterable[Changeset], granularity: Granularity) -> list[Document]:
    docs: list[Document] = []
    for cs in changesets:
        docs.extend(explode(cs, granularity))
    return docs


def build_triplets(links: Sequence[GoldLink], docs: Sequence[Document], seed: int) -> list[Triplet]:
    """One triplet per (bug, gold document) pair; negatives drawn uniformly.

    The negative pool for a bug excludes documents from *any* of that
    bug's gold changesets. Output is balanced by construction and
    byte-identical across runs for a fixed seed; changing the seed can
    change only the negative_doc fields.
    """
    rng = random.Random(seed)
    gold_by_bug: dict[str, set[str]] = {}
    for link in links:
        gold_by_bug.setdefault(link.bug_id, set()).add(link.changeset_id)

    by_changeset: dict[str, list[Document]] = {}
    for d in docs:
        by_changeset.setdefault(d.origin_changeset, []).append(d)

    triplets: list[Triplet] = []
    for link in links:
        positives = by_changeset.get(link.changeset_id, [])
        if not positives:
            raise DataError(f"gold changeset {link.changeset_id} has no documents")
        gold = gold_by_bug[link.bug_id]
        pool = [d.doc_id for d in docs if d.origin_changeset not in gold]
        if not pool:
            raise NoNegativeAvailable(f"no non-gold document exists for bug {link.bug_id}")
        for pos in positives:
            neg = pool[rng.randrange(len(pool))]
            triplets.append(Triplet(bug_id=link.bug_id, positive_doc=pos.doc_id, negative_doc=neg))
    return triplets


def split_train_test(
    links: Sequence[GoldLink], bugs: Mapping[str, BugReport]
) -> tuple[list[GoldLink], list[GoldLink]]:
    """First ceil(n/2) links by bug opening date go to train, rest to test.

    Equal timestamps are ordered by bug_id ascending (stable for full ties).
    """
    ordered = sorted(links, key=lambda l: (bugs[l.bug_id].opened_at, l.bug_id))
    cut = (len(ordered) + 1) // 2
    return ordered[:cut], ordered[cut:]


# -- JSON-lines corpus files ---------------------------------------------------
#
# changesets.jsonl: {"id", "log", "diff", "timestamp"} per line
# bugs.jsonl:       {"id", "summary", "description", "opened_at"} per line
# links.jsonl:      {"bug_id", "changeset_id"} per line
# Timestamps are ISO-8601 strings.


def _iter_jsonl(path: Path):
    """(``path:line``, object) for every non-blank line; each must be a JSON object."""
    with open(path, encoding="utf-8", errors="replace") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}:{line_no}: bad JSON ({exc})") from exc
            if not isinstance(obj, dict):
                raise DataError(f"{path}:{line_no}: not a JSON object")
            yield f"{path}:{line_no}", obj


def _text(obj: dict, key: str, where: str, default: str | None = None) -> str:
    """A string field; a required one that is missing, or a non-string, is a DataError."""
    if key not in obj:
        if default is None:
            raise DataError(f"{where}: missing field {key!r}")
        return default
    if not isinstance(obj[key], str):
        raise DataError(f"{where}: field {key!r} is not a string")
    return obj[key]


def _timestamp(obj: dict, key: str, where: str) -> datetime:
    try:
        dt = datetime.fromisoformat(_text(obj, key, where))
    except ValueError as exc:
        raise DataError(f"{where}: field {key!r} is not an ISO-8601 timestamp") from exc
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt


def load_changesets(path: str | Path) -> list[Changeset]:
    out: list[Changeset] = []
    seen: set[str] = set()
    for where, obj in _iter_jsonl(Path(path)):
        cs_id = _text(obj, "id", where)
        if cs_id in seen:
            raise DataError(f"{where}: duplicate changeset id {cs_id!r}")
        seen.add(cs_id)
        out.append(
            parse_unified_diff(
                _text(obj, "diff", where),
                changeset_id=cs_id,
                log_message=_text(obj, "log", where, ""),
                committed_at=_timestamp(obj, "timestamp", where),
            )
        )
    return out


def load_bugs(path: str | Path) -> list[BugReport]:
    out: list[BugReport] = []
    seen: set[str] = set()
    for where, obj in _iter_jsonl(Path(path)):
        bug_id = _text(obj, "id", where)
        if bug_id in seen:
            raise DataError(f"{where}: duplicate bug id {bug_id!r}")
        seen.add(bug_id)
        out.append(
            BugReport(
                bug_id=bug_id,
                summary=_text(obj, "summary", where, ""),
                description=_text(obj, "description", where, ""),
                opened_at=_timestamp(obj, "opened_at", where),
            )
        )
    return out


def load_links(path: str | Path) -> list[GoldLink]:
    return [
        GoldLink(_text(obj, "bug_id", where), _text(obj, "changeset_id", where))
        for where, obj in _iter_jsonl(Path(path))
    ]
