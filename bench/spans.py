"""In-memory spans around the benchmark's calls into each layer.

A span records (name, start, end, parent, item): the parent is the span
open when it began, and all spans of one execution of a workload item
share its item id. Spans stay in memory and are written out once, when
the run ends.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager, nullcontext

from clock import cpu_seconds

_NULL = nullcontext()


class NullTracer:
    """Stands in for a Tracer in untraced runs; records nothing."""

    on = False
    item = None
    raised_in = None

    def span(self, name: str):
        return _NULL

    def note(self, name: str, value) -> None:
        pass


class Tracer:
    on = True

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, item]
        self.notes: dict[str, list] = defaultdict(list)
        self.item: int | None = None
        self.raised_in: str | None = None  # innermost span an exception left
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        idx = len(self.spans)
        self.spans.append([name, cpu_seconds(), None, parent, self.item])
        self._open.append(idx)
        try:
            yield
        except BaseException:
            if self.raised_in is None:
                self.raised_in = name
            raise
        finally:
            self.spans[idx][2] = cpu_seconds()
            self._open.pop()

    def note(self, name: str, value) -> None:
        """A count measured at a layer boundary (sizes, outcomes)."""
        self.notes[name].append(value)

    def self_times(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds): each span's duration minus the
        time its direct children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name][0] += 1
            out[name][1] += end - start - child[i]
        return {k: (v[0], v[1]) for k, v in out.items()}

    def dump(self, path) -> None:
        keys = ("name", "start", "end", "parent", "item")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([dict(zip(keys, s)) for s in self.spans], handle)
