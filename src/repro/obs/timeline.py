"""Unified flight recorder: one byte-stable event timeline across layers.

The timeline is the fourth observability surface next to tracing
(:mod:`repro.obs.tracer`), monitoring (:mod:`repro.obs.metrics`) and health
(:mod:`repro.obs.health`).  Every layer of the stack appends typed events to
one canonical stream:

* ``campaign`` — campaign lifecycle and shard plan (``repro.sim.parallel``)
* ``sim`` — per-run solver outcomes (``repro.sim.run``)
* ``health`` — anomaly open/close transitions (``repro.obs.health``)
* ``sched`` — job submit/start/finish dispatch (``repro.sched.engine``)
* ``service`` — request admission and coalescing (``repro.service``)
* ``chaos`` — fault-injection declarations and scorecards (``repro.chaos``)

Events carry **no wall-clock timestamps**.  Ordering is a monotone logical
clock (``seq``) assigned after shard payloads are merged in canonical plan
order, so a recorded timeline is byte-identical at any worker count and
across repeated invocations with the same seed — the same guarantee the
tracer and monitor already provide for spans and metrics.

Hook protocol is the tracer's: hot paths read
:func:`~repro.obs.observer.active_observer` once and only pay for event
construction when its ``recorder`` is set (via
:func:`~repro.obs.observer.activate`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Mapping, Sequence

__all__ = [
    "TIMELINE_SCHEMA_VERSION",
    "TIMELINE_LAYERS",
    "TimelineError",
    "TimelineEvent",
    "TimelineRecorder",
    "canonical_digest",
    "measurement_digest",
    "timeline_lines",
    "write_timeline",
    "read_timeline",
    "validate_timeline_event",
]

TIMELINE_SCHEMA_VERSION = 1

#: Layers allowed in ``TimelineEvent.layer``, in stack order.
TIMELINE_LAYERS = ("campaign", "sim", "health", "sched", "service", "chaos")


class TimelineError(ValueError):
    """Raised for malformed timelines or events."""


def canonical_json(doc: Any) -> str:
    """The canonical JSON encoding used for every timeline line."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def canonical_digest(text: str) -> str:
    """Short stable digest of ``text`` (blake2b-128 hexdigest)."""
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


def measurement_digest(*arrays: Any) -> str:
    """Digest of raw measurement arrays (bit-exact, dtype-preserving)."""
    h = hashlib.blake2b(digest_size=16)
    for arr in arrays:
        h.update(arr.tobytes())
    return h.hexdigest()


@dataclass(frozen=True)
class TimelineEvent:
    """One record on the unified timeline.

    ``seq`` is the monotone logical clock — assigned when shard payloads are
    merged in plan order, not when the event was recorded.  ``entity`` names
    the subject (a gpu label, job id, request digest, cluster name, ...) and
    ``payload`` holds the layer-specific typed fields.
    """

    seq: int
    layer: str
    kind: str
    entity: str
    payload: tuple[tuple[str, Any], ...] = ()

    def as_dict(self) -> dict[str, Any]:
        """JSON-able view (one line of the serialized timeline)."""
        return {
            "seq": self.seq,
            "layer": self.layer,
            "kind": self.kind,
            "entity": self.entity,
            "payload": dict(self.payload),
        }

    def value(self, key: str, default: Any = None) -> Any:
        """The payload entry named ``key``, or ``default`` when absent."""
        for name, val in self.payload:
            if name == key:
                return val
        return default


def _freeze_payload(payload: Mapping[str, Any]) -> tuple[tuple[str, Any], ...]:
    return tuple(sorted(payload.items()))


class TimelineRecorder:
    """Collects timeline events; merge-friendly and optionally streaming.

    In the default (buffered) mode events accumulate in memory; shard-local
    recorders ship their buffers back via :meth:`to_payload` and the
    campaign-level recorder folds them in plan order with
    :meth:`merge_payload`.  Long-lived processes (the service) can instead
    pass ``stream`` — an open text file — to write each event line
    immediately without retaining it.
    """

    def __init__(self, *, stream: Any | None = None) -> None:
        self._events: list[tuple[str, str, str, tuple[tuple[str, Any], ...]]] = []
        self._stream = stream
        self._next_seq = 0
        if stream is not None:
            stream.write(canonical_json(_header_doc()) + "\n")
            stream.flush()

    # -- recording -------------------------------------------------------------

    def record(self, layer: str, kind: str, entity: str, **payload: Any) -> int:
        """Append one event; returns its provisional sequence number."""
        if layer not in TIMELINE_LAYERS:
            raise TimelineError(
                f"unknown layer {layer!r}; expected one of {TIMELINE_LAYERS}"
            )
        event = (layer, kind, entity, _freeze_payload(payload))
        seq = self._next_seq
        self._next_seq += 1
        if self._stream is not None:
            line = canonical_json(
                TimelineEvent(seq, *event).as_dict()
            )
            self._stream.write(line + "\n")
            self._stream.flush()
        else:
            self._events.append(event)
        return seq

    @property
    def n_events(self) -> int:
        return self._next_seq

    def events(self) -> tuple[TimelineEvent, ...]:
        """Buffered events with final sequence numbers assigned in order."""
        return tuple(
            TimelineEvent(seq, layer, kind, entity, payload)
            for seq, (layer, kind, entity, payload) in enumerate(self._events)
        )

    # -- shard merge protocol (mirrors Tracer/MetricsRegistry) ----------------

    def to_payload(self) -> tuple[tuple[str, str, str, tuple], ...]:
        """Picklable snapshot of buffered events for cross-process merge."""
        return tuple(self._events)

    def merge_payload(
        self, payload: Iterable[tuple[str, str, str, tuple]]
    ) -> None:
        """Fold a shard payload in, preserving the given (plan) order."""
        for layer, kind, entity, event_payload in payload:
            self._events.append((layer, kind, entity, tuple(event_payload)))
            self._next_seq += 1

    def digest(self) -> str:
        """Digest over the canonical serialized timeline."""
        return canonical_digest("\n".join(timeline_lines(self)))


# -- serialization -------------------------------------------------------------


def _header_doc() -> dict[str, Any]:
    return {"schema_version": TIMELINE_SCHEMA_VERSION, "stream": "repro.timeline"}


def timeline_lines(recorder: TimelineRecorder) -> list[str]:
    """Canonical JSONL lines: one header line, then one line per event."""
    lines = [canonical_json(_header_doc())]
    lines.extend(canonical_json(event.as_dict()) for event in recorder.events())
    return lines


def write_timeline(recorder: TimelineRecorder, path: Any) -> int:
    """Write the timeline as JSON Lines; returns the number of events."""
    lines = timeline_lines(recorder)
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")
    return len(lines) - 1


def validate_timeline_event(doc: Mapping[str, Any]) -> None:
    """Validate one parsed event line (dependency-free, like manifests)."""
    if not isinstance(doc, Mapping):
        raise TimelineError(f"event must be an object, got {type(doc).__name__}")
    for key, typ in (("seq", int), ("layer", str), ("kind", str), ("entity", str)):
        if key not in doc:
            raise TimelineError(f"event missing required key {key!r}")
        if not isinstance(doc[key], typ) or isinstance(doc[key], bool):
            raise TimelineError(
                f"event key {key!r} must be {typ.__name__}, "
                f"got {type(doc[key]).__name__}"
            )
    if doc["layer"] not in TIMELINE_LAYERS:
        raise TimelineError(f"unknown layer {doc['layer']!r}")
    if doc["seq"] < 0:
        raise TimelineError("seq must be non-negative")
    if not isinstance(doc.get("payload", {}), Mapping):
        raise TimelineError("payload must be an object")


def read_timeline(path: Any) -> tuple[dict[str, Any], tuple[TimelineEvent, ...]]:
    """Parse a timeline file; returns ``(header, events)``.

    Validates the header schema version and every event line; events must be
    in strictly increasing ``seq`` order.
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw_lines = [line for line in fh.read().splitlines() if line]
    if not raw_lines:
        raise TimelineError(f"empty timeline file: {path}")
    try:
        header = json.loads(raw_lines[0])
    except json.JSONDecodeError as exc:
        raise TimelineError(f"malformed timeline header: {exc}") from exc
    if not isinstance(header, dict) or "schema_version" not in header:
        raise TimelineError("timeline header missing schema_version")
    if header["schema_version"] != TIMELINE_SCHEMA_VERSION:
        raise TimelineError(
            f"unsupported timeline schema_version {header['schema_version']!r}; "
            f"this reader handles {TIMELINE_SCHEMA_VERSION}"
        )
    events: list[TimelineEvent] = []
    expected_seq = 0
    for lineno, line in enumerate(raw_lines[1:], start=2):
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TimelineError(f"line {lineno}: malformed JSON: {exc}") from exc
        validate_timeline_event(doc)
        if doc["seq"] != expected_seq:
            raise TimelineError(
                f"line {lineno}: seq {doc['seq']} out of order "
                f"(expected {expected_seq})"
            )
        expected_seq += 1
        events.append(
            TimelineEvent(
                seq=doc["seq"],
                layer=doc["layer"],
                kind=doc["kind"],
                entity=doc["entity"],
                payload=_freeze_payload(doc.get("payload", {})),
            )
        )
    return header, tuple(events)


def events_digest(events: Sequence[TimelineEvent]) -> str:
    """Digest of already-sequenced events (for ``repro replay`` output)."""
    lines = [canonical_json(_header_doc())]
    lines.extend(canonical_json(event.as_dict()) for event in events)
    return canonical_digest("\n".join(lines))
