"""In-memory span recorder used by the benchmark's traced runs.

Spans are recorded from the benchmark's own files only: around the calls it
makes into each layer's public functions, and around module attributes it
patches from outside for the functions a facade calls internally (see
:meth:`SpanRecorder.patched`).  Nothing under ``src/`` is modified.

Each span carries its name, start, end, parent span and op id.  A layer's
self time is its span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator


class SpanRecorder:
    """Collects spans in memory; single-threaded by design."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._stack: list[int] = []
        self.op: int | None = None
        self.counts: dict[str, int] = {}

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around the enclosed block."""
        index = len(self.spans)
        record = {
            "name": name,
            "op": self.op,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def wrap(
        self, fn: Callable, name: str, count: Callable | None = None
    ) -> Callable:
        """``fn`` with every call recorded as a span named ``name``.

        ``count(args, kwargs)``, when given, returns the work items of one
        call; they are summed into :attr:`counts` under ``name``.
        """

        def traced(*args, **kwargs):
            if count is not None:
                self.counts[name] = self.counts.get(name, 0) + count(
                    args, kwargs
                )
            with self.span(name):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def patched(self, targets: Iterable[tuple]) -> Iterator[None]:
        """Replace ``owner.attr`` with a span-recording wrapper for the block.

        ``targets`` holds ``(owner, attribute, span name[, count])`` tuples;
        owners are modules or classes.  Originals are restored on exit.
        """
        saved = []
        try:
            for owner, attr, name, *count in targets:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, *count))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per-span self time in seconds (duration minus child durations)."""
        selfs = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                selfs[s["parent"]] -= s["end"] - s["start"]
        return selfs

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """``{name: {"self_s": ..., "total_s": ..., "calls": ...}}``.

        ``total_s`` sums only outermost spans of a name, so recursion or
        nesting of one layer inside itself is not double counted.
        """
        totals: dict[str, dict[str, float]] = {}
        selfs = self.self_times()
        for index, s in enumerate(self.spans):
            entry = totals.setdefault(
                s["name"], {"self_s": 0.0, "total_s": 0.0, "calls": 0}
            )
            entry["self_s"] += selfs[index]
            entry["calls"] += 1
            parent = s["parent"]
            nested = False
            while parent is not None:
                if self.spans[parent]["name"] == s["name"]:
                    nested = True
                    break
                parent = self.spans[parent]["parent"]
            if not nested:
                entry["total_s"] += s["end"] - s["start"]
        return totals

    def to_json(self) -> list[dict[str, Any]]:
        """Spans as plain dicts, times in seconds from the first span."""
        if not self.spans:
            return []
        origin = self.spans[0]["start"]
        return [
            {
                "id": index,
                "name": s["name"],
                "op": s["op"],
                "parent": s["parent"],
                "start_s": s["start"] - origin,
                "end_s": s["end"] - origin,
            }
            for index, s in enumerate(self.spans)
        ]
