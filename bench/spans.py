"""In-memory span recorder for the traced benchmark run.

A span is ``(name, start, end, parent, doc)``: ``parent`` is the index
of the enclosing span (or ``None``) and ``doc`` the document id the span
worked on, when there is one.  Spans are opened and closed around calls
into lexid from the benchmark's own code, kept in lists, and written out
once the run ends.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int | None] = []
        self.docs: list[int | None] = []
        self._open: list[int] = []

    def begin(self, name: str, doc: int | None = None) -> None:
        self.parents.append(self._open[-1] if self._open else None)
        self.names.append(name)
        self.docs.append(doc)
        self._open.append(len(self.starts))
        self.ends.append(0.0)
        self.starts.append(perf_counter())

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span measured elsewhere, as a child of the open span."""
        self.parents.append(self._open[-1] if self._open else None)
        self.names.append(name)
        self.docs.append(None)
        self.starts.append(start)
        self.ends.append(end)

    def end(self) -> float:
        """Close the innermost open span and return its duration."""
        now = perf_counter()
        i = self._open.pop()
        self.ends[i] = now
        return now - self.starts[i]

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """``name -> (count, total seconds, self seconds)``.

        Self time is a span's duration minus the time its child spans
        cover; children of one parent run one after another, so their
        durations add up without overlap.
        """
        child_time = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent is not None:
                child_time[parent] += self.ends[i] - self.starts[i]
        totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for i, name in enumerate(self.names):
            duration = self.ends[i] - self.starts[i]
            entry = totals[name]
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - child_time[i]
        return {name: tuple(v) for name, v in totals.items()}

    def write(self, path: Path) -> None:
        """A header line naming the fields, then one JSON array per span.

        Times are seconds from the first span's start.
        """
        if self._open:
            raise RuntimeError(f"{len(self._open)} span(s) still open")
        origin = self.starts[0] if self.starts else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"fields": ["id", "name", "start", "end", "parent", "doc"]}) + "\n")
            for i, name in enumerate(self.names):
                start, end = self.starts[i] - origin, self.ends[i] - origin
                record = [i, name, round(start, 7), round(end, 7), self.parents[i], self.docs[i]]
                out.write(json.dumps(record) + "\n")
