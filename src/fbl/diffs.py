"""Unified-diff data model and parser.

Parses ``git diff`` output into a changeset structure: files, hunks, and
per-line modification kinds. The parser is count-driven: hunk bodies are
delimited by the line counts in their ``@@`` headers, so payload lines that
happen to start with ``-``/``+`` never bleed into headers. Binary-file
entries and pure renames carry no hunks and parse to empty file diffs.
``\\ No newline at end of file`` markers are dropped.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from datetime import datetime, timezone

from .errors import MalformedDiff


class LineKind(enum.Enum):
    ADDED = "+"
    REMOVED = "-"
    CONTEXT = " "


@dataclass(frozen=True)
class DiffLine:
    kind: LineKind
    text: str  # marker character stripped


@dataclass(frozen=True)
class Hunk:
    old_start: int
    new_start: int
    lines: tuple[DiffLine, ...]


@dataclass(frozen=True)
class FileDiff:
    path: str
    hunks: tuple[Hunk, ...]


@dataclass(frozen=True)
class Changeset:
    changeset_id: str
    log_message: str
    files: tuple[FileDiff, ...]
    committed_at: datetime = field(
        default_factory=lambda: datetime.fromtimestamp(0, tz=timezone.utc)
    )


_HUNK_RE = re.compile(r"^@@ -(\d+)(?:,(\d+))? \+(\d+)(?:,(\d+))? @@")
_GIT_HEADER_RE = re.compile(r'^diff --git (?:"?a/(.*?)"?) (?:"?b/(.*?)"?)$')


def parse_unified_diff(raw: str, changeset_id: str, log_message: str = "",
                       committed_at: datetime | None = None) -> Changeset:
    """Parse ``git diff`` text into a Changeset.

    Accepts both full ``diff --git`` output and bare ``---``/``+++`` pairs.
    Raises MalformedDiff (with a 1-based line number) on an unparseable
    ``@@`` header or an illegal leading character inside a hunk body.
    """
    lines = raw.split("\n")
    files: list[FileDiff] = []
    cur_path: str | None = None
    cur_hunks: list[Hunk] = []
    i = 0
    n = len(lines)

    def flush_file():
        nonlocal cur_path, cur_hunks
        if cur_path is not None:
            files.append(FileDiff(path=cur_path, hunks=tuple(cur_hunks)))
        cur_path = None
        cur_hunks = []

    while i < n:
        line = lines[i]
        if line.startswith("diff --git "):
            flush_file()
            m = _GIT_HEADER_RE.match(line)
            if not m:
                raise MalformedDiff(f"bad diff header: {line!r}", i + 1)
            cur_path = m.group(2)
            i += 1
        elif line.startswith("--- "):
            if cur_path is not None and cur_hunks:
                flush_file()  # bare `diff -u` output: previous file ends here
            if cur_path is None:
                source = line[4:].split("\t")[0].strip()
                if source != "/dev/null":
                    cur_path = source[2:] if source.startswith("a/") else source
            i += 1
        elif line.startswith("+++ "):
            target = line[4:].split("\t")[0].strip()
            if target != "/dev/null":
                tp = target[2:] if target.startswith("b/") else target
                if cur_path is None or not cur_hunks:
                    cur_path = tp  # prefer the post-image name (renames)
            i += 1
        elif line.startswith("@@"):
            m = _HUNK_RE.match(line)
            if not m:
                raise MalformedDiff(f"bad hunk header: {line!r}", i + 1)
            if cur_path is None:
                raise MalformedDiff("hunk header before any file header", i + 1)
            old_start = int(m.group(1))
            old_count = int(m.group(2)) if m.group(2) is not None else 1
            new_start = int(m.group(3))
            new_count = int(m.group(4)) if m.group(4) is not None else 1
            i += 1
            body: list[DiffLine] = []
            seen_old = 0
            seen_new = 0
            while seen_old < old_count or seen_new < new_count:
                if i >= n:
                    raise MalformedDiff("hunk body ends prematurely", i)
                payload = lines[i]
                if payload.startswith("\\"):
                    i += 1  # "\ No newline at end of file"
                    continue
                if payload == "":
                    # whitespace-stripped empty context line; tolerated
                    body.append(DiffLine(LineKind.CONTEXT, ""))
                    seen_old += 1
                    seen_new += 1
                elif payload[0] == "+":
                    body.append(DiffLine(LineKind.ADDED, payload[1:]))
                    seen_new += 1
                elif payload[0] == "-":
                    body.append(DiffLine(LineKind.REMOVED, payload[1:]))
                    seen_old += 1
                elif payload[0] == " ":
                    body.append(DiffLine(LineKind.CONTEXT, payload[1:]))
                    seen_old += 1
                    seen_new += 1
                else:
                    raise MalformedDiff(
                        f"illegal leading character {payload[0]!r} in hunk body", i + 1
                    )
                i += 1
            cur_hunks.append(Hunk(old_start=old_start, new_start=new_start, lines=tuple(body)))
        else:
            # index lines, mode lines, rename/binary notices, trailing junk
            i += 1
    flush_file()
    return Changeset(
        changeset_id=changeset_id,
        log_message=log_message,
        files=tuple(files),
        committed_at=committed_at or datetime.fromtimestamp(0, tz=timezone.utc),
    )
