"""The single activation slot every observability hook reads.

A hook site (``simulate_run``, ``Engine.step``, the DVFS solve, the
fleet caches, the scheduler) does ``obs = active_observer()`` once and
branches on the sink it feeds being ``None``.  When nothing is active the
reader returns one shared empty :class:`Observer`, so a disabled hook is
a thread-local read, an attribute read and a branch — nothing is
allocated or formatted.

Activation is per-thread and nestable: :func:`activate` replaces only the
sinks it is given and inherits the rest, so activating a shard tracer
leaves an outer monitor in place and ``activate_recorder(None)`` masks
only the recorder.  The campaign executors give every shard its own
sinks via :meth:`Observer.for_shard` and fold one picklable payload per
shard back with :meth:`Observer.merge_payload` in canonical plan order.
"""

from __future__ import annotations

import threading
from contextlib import AbstractContextManager, contextmanager
from typing import TYPE_CHECKING, Any, Iterator

from .metrics import FleetMonitor
from .timeline import TimelineRecorder
from .tracer import Tracer

if TYPE_CHECKING:  # pragma: no cover - types only (sim imports obs)
    from ..sim.parallel import ShardTask

__all__ = [
    "Observer",
    "activate",
    "activate_recorder",
    "active_monitor",
    "active_observer",
]

#: Track name for shard-local spans: lexical sort == canonical plan order.
_SHARD_TRACK = "day-{day:03d}/run-{run:03d}/shard-{shard:02d}"

_SINKS = ("tracer", "monitor", "recorder")


class Observer:
    """The sinks observing one thread: any of a tracer, monitor, recorder."""

    __slots__ = _SINKS

    def __init__(
        self,
        tracer: Tracer | None = None,
        monitor: FleetMonitor | None = None,
        recorder: TimelineRecorder | None = None,
    ) -> None:
        self.tracer = tracer
        self.monitor = monitor
        self.recorder = recorder

    def sinks(self) -> dict[str, Any]:
        """The attached sinks by slot name; empty when nothing observes."""
        return {
            name: getattr(self, name)
            for name in _SINKS
            if getattr(self, name) is not None
        }

    def for_shard(self, task: "ShardTask") -> "Observer":
        """Fresh shard-local sinks for the slots this observer fills.

        Shard monitors only collect (fleet-level aggregation happens once,
        in :meth:`FleetMonitor.finalize`, after the merge) and shard
        recorders only buffer (the campaign recorder assigns the logical
        clock after the merge), so no sink of the caller ever reaches a
        worker.  An empty observer is returned as is.
        """
        if not self.sinks():
            return self
        return Observer(
            tracer=None if self.tracer is None else Tracer(
                track=_SHARD_TRACK.format(
                    day=task.day, run=task.run_index, shard=task.shard_index
                )
            ),
            monitor=None if self.monitor is None else FleetMonitor(),
            recorder=None if self.recorder is None else TimelineRecorder(),
        )

    def to_payload(self) -> dict[str, Any]:
        """Picklable snapshot: each attached sink's payload by slot name."""
        return {name: sink.to_payload() for name, sink in self.sinks().items()}

    def merge_payload(self, payload: dict[str, Any]) -> None:
        """Fold one shard payload into the matching sinks of this observer."""
        for name, part in payload.items():
            getattr(self, name).merge_payload(part)


_EMPTY = Observer()


class _State(threading.local):
    # A class-level default makes the first read on a thread that never
    # activated anything a plain attribute read, not a caught
    # AttributeError.
    observer = _EMPTY


_STATE = _State()
#: Default of :func:`activate`'s arguments: keep the current sink.
_KEEP: Any = object()


def active_observer() -> Observer:
    """The observer active on *this* thread (a shared empty one if none).

    Thread-locality is load-bearing: the thread-backend campaign executor
    runs shards concurrently, each under its own sinks, without cross-talk.
    """
    return _STATE.observer


@contextmanager
def activate(
    tracer: Tracer | None = _KEEP,
    *,
    monitor: FleetMonitor | None = _KEEP,
    recorder: TimelineRecorder | None = _KEEP,
) -> Iterator[Observer]:
    """Activate sinks on this thread for the block.

    A sink passed (``None`` included) replaces the current one; a sink
    left out is inherited.  The previous observer is restored on exit.
    """
    previous = active_observer()
    current = Observer(
        previous.tracer if tracer is _KEEP else tracer,
        previous.monitor if monitor is _KEEP else monitor,
        previous.recorder if recorder is _KEEP else recorder,
    )
    _STATE.observer = current
    try:
        yield current
    finally:
        _STATE.observer = previous


def active_monitor() -> FleetMonitor | None:
    """The monitor active on this thread, or ``None``."""
    return active_observer().monitor


def activate_recorder(
    recorder: TimelineRecorder | None,
) -> AbstractContextManager[Observer]:
    """Activate ``recorder`` (``None`` masks the current one) for the block."""
    return activate(recorder=recorder)
