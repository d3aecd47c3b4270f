"""In-memory span tracer that instruments fbl from outside the package.

The tracer wraps public functions in the namespace that calls them
(``fbl.retrieve.candidate_docs`` is the name ``rank_two_stage`` looks up),
so no program file changes. Each span records its name, start, end, parent
and the query id that was current when it opened; spans stay in memory and
are written out once, at the end of a run. ``installed()`` restores every
original function on exit, so nothing leaks into an untraced run.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    query: str | None  # e.g. "two_stage/12"; None outside a query
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while enabled; ``span`` is a no-op on a disabled tracer."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.query: str | None = None
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------------

    def _begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.query))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _end(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        idx = self._begin(name)
        try:
            yield
        finally:
            self._end(idx)

    # -- instrumentation ---------------------------------------------------------

    def _patch(self, owner: object, attr: str, replacement: Callable) -> None:
        raw = vars(owner)[attr]  # keeps a classmethod object intact for restore
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, staticmethod(replacement) if isinstance(owner, type) else replacement)

    def wrap(self, owner: object, attr: str, name: str, describe: Callable | None = None) -> None:
        """Replace owner.attr with a version that records a span per call.

        ``describe(args, kwargs, result)`` returns attributes for the span;
        it runs after the span has closed.
        """
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            idx = self._begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._end(idx)
            if describe is not None:
                self.spans[idx].attrs.update(describe(args, kwargs, result))
            return result

        self._patch(owner, attr, traced)

    def count(self, owner: object, attr: str, key: str) -> None:
        """Replace owner.attr with a version that only counts calls (hot paths)."""
        original = getattr(owner, attr)
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        self._patch(owner, attr, counted)

    def restore(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    @contextlib.contextmanager
    def installed(self, instrument: Callable[["Tracer"], None]):
        """Apply ``instrument(self)`` for the duration of the block, then undo it."""
        if not self.enabled:
            yield self
            return
        try:
            instrument(self)
            yield self
        finally:
            self.restore()

    # -- analysis ----------------------------------------------------------------

    def children(self) -> list[list[int]]:
        kids: list[list[int]] = [[] for _ in self.spans]
        for i, s in enumerate(self.spans):
            if s.parent >= 0:
                kids[s.parent].append(i)
        return kids

    def self_time(self, idx: int, kids: list[list[int]]) -> float:
        """Duration minus the time direct children cover.

        Spans come from one thread, so children of one parent never overlap
        and the covered time is the sum of their durations.
        """
        s = self.spans[idx]
        return s.duration - sum(self.spans[c].duration for c in kids[idx])

    def ancestor(self, idx: int, name: str) -> int:
        """Index of the nearest enclosing span called ``name``, or -1."""
        p = self.spans[idx].parent
        while p >= 0 and self.spans[p].name != name:
            p = self.spans[p].parent
        return p

    def has_ancestor(self, idx: int, name: str) -> bool:
        return self.ancestor(idx, name) >= 0

    def write_jsonl(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "query": s.query, "attrs": s.attrs,
                }) + "\n")
