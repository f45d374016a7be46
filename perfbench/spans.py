"""In-memory span recorder that wraps treecolor's public functions.

A wrapper is installed on the module or class attribute where the caller
looks the name up (for example `treecolor.process.greedy_step`, which
`run_phase1` resolves from its module globals), so the traced run executes
the package's own code and only adds timing around each call.  Every call
becomes one span: name, start, end, index of the enclosing span, and the
wrapped call's return value when the caller asks to keep it.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Any


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at top level
    result: Any = None


class Tracer:
    """Records spans for wrapped callables until `restore` is called."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._installed: list[tuple[Any, str, Any]] = []

    def wrap(self, owner: Any, attr: str, name: str, keep_result: bool = False) -> None:
        """Replace `owner.attr` by a recording wrapper around it."""
        original = owner.__dict__[attr]
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = Span(name, clock(), 0.0, stack[-1] if stack else -1)
            spans.append(span)
            stack.append(idx)
            try:
                out = original(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if keep_result:
                span.result = out
            return out

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._installed.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- queries ------------------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def children_total(self, parent_name: str) -> float:
        """Summed duration of the direct children of every `parent_name` span."""
        parents = {i for i, s in enumerate(self.spans) if s.name == parent_name}
        return sum(s.end - s.start for s in self.spans if s.parent in parents)

    def within(self, ancestor_name: str, name: str) -> float:
        """Summed duration of `name` spans nested anywhere under an
        `ancestor_name` span."""
        total = 0.0
        for s in self.spans:
            if s.name != name:
                continue
            p = s.parent
            while p >= 0 and self.spans[p].name != ancestor_name:
                p = self.spans[p].parent
            if p >= 0:
                total += s.end - s.start
        return total

    def write(self, path: str) -> None:
        """Write the spans as JSON lines (times in seconds from the first
        span's start)."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "parent": s.parent,
                                     "start": s.start - t0, "end": s.end - t0}) + "\n")
