"""Hierarchical span tracer and low-overhead counters.

Design constraints (they shape everything here):

* **Zero perturbation.**  The tracer only ever *observes*: it reads clocks
  and increments Python integers.  It never draws from an RNG, never
  touches a float that feeds a measurement, and instrumented code paths
  are structurally identical with tracing on or off — which is why golden
  campaign fixtures pass byte-for-byte under ``--trace``.
* **Unmeasurable overhead when disabled.**  Hook sites read
  :func:`~repro.obs.observer.active_observer` once and branch on its
  ``tracer`` being ``None``; no object is allocated, no string is
  formatted.
* **Deterministic merging.**  The sharded campaign executors
  (:mod:`repro.sim.parallel`) give every shard its *own* tracer — in the
  worker that executes it — and merge the per-shard payloads into the
  campaign tracer in canonical plan order, exactly like result merging.
  Counter totals and span structure are therefore identical between
  serial and parallel executions of the same campaign; only wall-clock
  timestamps (which are observations, not results) differ.

Counters are namespaced with dots.  Most are execution-invariant —
``solver.*``, ``run.*``, ``campaign.*`` count work the physics performs,
which the executor layout cannot change.  Counters under the prefixes in
:data:`NONDETERMINISTIC_COUNTER_PREFIXES` (per-process memoization hits
such as ``cache.*``, see :meth:`repro.cluster.cluster.Cluster.fleet_slice`)
legitimately depend on how shards were scheduled across workers;
:meth:`Tracer.deterministic_counters` filters them for equivalence checks.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator

__all__ = [
    "NONDETERMINISTIC_COUNTER_PREFIXES",
    "SpanRecord",
    "Tracer",
]

#: Counter namespaces whose totals legitimately vary with worker layout
#: (per-process caches warm differently depending on which worker executed
#: which shard).  Everything else must merge to identical totals.
NONDETERMINISTIC_COUNTER_PREFIXES = ("cache.",)


@dataclass(frozen=True)
class SpanRecord:
    """One finished span: a named, timed interval on a track.

    Attributes
    ----------
    name, category:
        What the span covers (``"campaign"``, ``"shard"``, ``"run"``,
        ``"solve"``, ...) and its coarse grouping for trace viewers.
    track:
        Timeline row the span belongs to (``"campaign"`` for the
        root, ``"day-000/run-000/shard-00"`` for shard-local spans).
        Within one track, hierarchy is expressed by time containment —
        exactly how Chrome-trace/Perfetto nest complete events.
    start_s:
        Wall-clock start (epoch seconds, ``time.time``-based) so spans
        recorded in different worker processes share one timeline.
    duration_s:
        Span length measured with ``time.perf_counter`` (monotonic,
        high-resolution).
    args:
        Sorted ``(key, value)`` pairs of JSON-able span attributes.
    """

    name: str
    category: str
    track: str
    start_s: float
    duration_s: float
    args: tuple[tuple[str, Any], ...] = ()

    @property
    def end_s(self) -> float:
        """Wall-clock end of the span (epoch seconds)."""
        return self.start_s + self.duration_s


class Tracer:
    """Collects spans and counters for one observed execution.

    A tracer is *passive* until code runs under
    :func:`~repro.obs.observer.activate`; the
    instrumentation hooks throughout the simulator then report into it.
    Campaign executors additionally create one short-lived tracer per
    shard (each on its own ``track``) and fold the results back with
    :meth:`merge_payload` in canonical order.

    Not thread-safe by design: activation is per-thread, and each
    concurrently-executing shard gets its own instance.  Merging happens
    on a single thread after execution.
    """

    def __init__(self, track: str = "campaign") -> None:
        self.track = track
        self.spans: list[SpanRecord] = []
        self.counters: dict[str, int | float] = {}

    # -- recording ----------------------------------------------------------

    @contextmanager
    def span(
        self, name: str, category: str = "campaign", **args: Any
    ) -> Iterator[None]:
        """Record a span around the enclosed block (on this tracer's track)."""
        start = time.time()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.record_span(
                name,
                category=category,
                track=self.track,
                start_s=start,
                duration_s=time.perf_counter() - t0,
                **args,
            )

    def record_span(
        self,
        name: str,
        *,
        category: str,
        track: str,
        start_s: float,
        duration_s: float,
        **args: Any,
    ) -> None:
        """Record an already-timed span (used for synthesized spans)."""
        self.spans.append(
            SpanRecord(
                name=name,
                category=category,
                track=track,
                start_s=start_s,
                duration_s=duration_s,
                args=tuple(sorted(args.items())),
            )
        )

    def add(self, counter: str, value: int | float = 1) -> None:
        """Increment a namespaced counter."""
        self.counters[counter] = self.counters.get(counter, 0) + value

    def gauge(self, counter: str, value: int | float) -> None:
        """Set a counter to an absolute value (last write wins on merge)."""
        self.counters[counter] = value

    # -- merging ------------------------------------------------------------

    def to_payload(self) -> tuple[tuple[SpanRecord, ...], dict[str, int | float]]:
        """A picklable snapshot: ``(spans, counters)``, plain tuples/dicts.

        This is what travels back from pool workers; it contains no locks,
        generators, or open resources.
        """
        return tuple(self.spans), dict(self.counters)

    def merge_payload(
        self, payload: tuple[tuple[SpanRecord, ...], dict[str, int | float]]
    ) -> None:
        """Fold a shard payload into this tracer.

        Spans are appended in the order given (callers iterate payloads in
        canonical plan order); counters are summed.  Calling this in the
        same order for any worker layout yields identical span sequences
        and counter totals.
        """
        spans, counters = payload
        self.spans.extend(spans)
        for name, value in sorted(counters.items()):
            self.add(name, value)

    # -- introspection ------------------------------------------------------

    def deterministic_counters(self) -> dict[str, int | float]:
        """Counters whose totals are invariant to worker count and backend."""
        return {
            name: value
            for name, value in sorted(self.counters.items())
            if not name.startswith(NONDETERMINISTIC_COUNTER_PREFIXES)
        }

    def span_index(self) -> dict[tuple[str, str], int]:
        """Multiset of ``(track, name)`` span keys — the structural skeleton.

        Two executions of the same campaign (any worker count) produce the
        same index; only timestamps inside the records differ.
        """
        index: dict[tuple[str, str], int] = {}
        for record in self.spans:
            key = (record.track, record.name)
            index[key] = index.get(key, 0) + 1
        return index

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Tracer(track={self.track!r}, {len(self.spans)} spans, "
            f"{len(self.counters)} counters)"
        )
