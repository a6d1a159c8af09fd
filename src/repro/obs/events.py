"""Flight recorder: stream structured telemetry events to a sink.

:mod:`repro.obs.collector` aggregates — a snapshot says *how much* time
each span path accumulated, never *when*. The flight recorder is the
live half: while a sink is installed (:func:`set_sink` /
``REPRO_OBS_EVENTS=path``), every span entry/exit, counter increment,
gauge sample, hot-loop duration report, and progress heartbeat is also
emitted as one structured event the moment it happens. A long sweep
becomes observable while it runs, a killed run keeps everything it
recorded up to the signal, and the stream is rich enough to
*reconstruct* the end-of-run snapshot exactly
(:func:`repro.obs.export.replay`) and to render a Chrome trace with
per-worker lanes (:func:`repro.obs.export.chrome_trace`).

Design decisions:

* **Off by default, twice over.** No sink is installed unless asked, so
  the recorder costs the collector hooks a single ``is not None`` check
  — and those hooks only run when collection itself is enabled, so the
  telemetry-off path is untouched. The enabled-and-recording path stays
  under the same ≤1.02x wall-clock gate as plain telemetry
  (``bench_fastsim``'s ``live_record``).
* **Events are plain dicts.** Every event carries ``type``, ``t`` (a
  :func:`repro.obs.clock.perf_counter` stamp — monotonic, shared across
  processes on Linux) and ``pid``; the rest is per-type payload. JSON in,
  JSON out: what :class:`JsonlSink` writes, :func:`read_events` returns.
* **Crash-safe JSONL.** :class:`JsonlSink` appends one line per event
  and flushes it immediately, so a SIGINT can corrupt at most the line
  being written; :func:`read_events` recovers by dropping a truncated
  final line (and only the final line — mid-file corruption still
  raises).
* **Workers ship events by value.** Pool workers record into an
  unbounded :class:`RingBufferSink` and return the events with their
  result; the parent folds them into its collector and re-emits them
  with ``remote: True`` and re-rooted span paths
  (:func:`repro.obs.merge_worker`). The stream is the one worker
  channel: replay counts every event once, and trace export uses
  ``remote``/``pid`` only to draw per-worker lanes.

Event types: ``span_start``, ``span_end``, ``duration``, ``counter``,
``gauge``, ``progress``.
"""

from __future__ import annotations

import json
import os
from collections import deque
from contextlib import contextmanager
from typing import Any, Iterator, Optional, Protocol

from repro.obs.clock import perf_counter

__all__ = [
    "EventSink",
    "RingBufferSink",
    "JsonlSink",
    "TeeSink",
    "recording",
    "set_sink",
    "recorded",
    "emit_event",
    "read_events",
]


class EventSink(Protocol):
    """Anything that accepts flight-recorder events."""

    def emit(self, event: dict[str, Any]) -> None: ...

    def close(self) -> None: ...


class RingBufferSink:
    """Keep the last ``capacity`` events in memory (tests, exports).

    Bounded by default, so a runaway event source degrades to losing the
    oldest events instead of exhausting memory. ``capacity=None`` keeps
    every event: pool workers record into such a sink and ship
    :meth:`events` back with their result, where a dropped event would
    be a lost aggregate.
    """

    def __init__(self, capacity: Optional[int] = 1 << 16) -> None:
        self._events: deque[dict[str, Any]] = deque(maxlen=capacity)

    def emit(self, event: dict[str, Any]) -> None:
        self._events.append(event)

    def events(self) -> list[dict[str, Any]]:
        """A copy of the buffered events, oldest first."""
        return list(self._events)

    def close(self) -> None:
        pass


class JsonlSink:
    """Append events to a JSONL file, one flushed line per event.

    The per-event flush is the crash-safety contract: after a SIGINT the
    file holds every event emitted before the signal, with at most the
    final line truncated — which :func:`read_events` drops on read.
    Event rates are structurally low (spans, merged phases, heartbeats —
    never per-round), so the flush is not a hot-path cost.
    """

    def __init__(self, path: os.PathLike | str) -> None:
        self.path = path
        self._handle = open(path, "a", encoding="utf-8")

    def emit(self, event: dict[str, Any]) -> None:
        self._handle.write(
            json.dumps(event, separators=(",", ":")) + "\n"
        )
        self._handle.flush()

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()


class TeeSink:
    """Fan every event out to several sinks (ring + file + renderer)."""

    def __init__(self, *sinks: EventSink) -> None:
        self.sinks = sinks

    def emit(self, event: dict[str, Any]) -> None:
        for sink in self.sinks:
            sink.emit(event)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


# ---------------------------------------------------------------------
# Module state: the installed sink, plus the pid stamped on every event.
# The pid is captured at install time, not import time, so a pool worker
# that installs its own sink after fork() stamps its own pid.
# ---------------------------------------------------------------------
_sink: Optional[EventSink] = None
_sink_pid: int = 0


def recording() -> bool:
    """Whether a flight-recorder sink is currently installed."""
    return _sink is not None


def set_sink(sink: Optional[EventSink]) -> Optional[EventSink]:
    """Install ``sink`` (``None`` stops recording); returns the previous
    sink (not closed — the caller that opened it owns it)."""
    global _sink, _sink_pid
    previous = _sink
    _sink = sink
    _sink_pid = os.getpid() if sink is not None else 0
    return previous


@contextmanager
def recorded(
    sink: Optional[EventSink] = None,
) -> Iterator[EventSink]:
    """Record events for the ``with`` body (default: a fresh ring).

    The previous sink is restored on exit; a sink passed in is *not*
    closed (the caller owns it), the default ring needs no closing.
    """
    active = sink if sink is not None else RingBufferSink()
    previous = set_sink(active)
    try:
        yield active
    finally:
        set_sink(previous)


def emit_event(event_type: str, **fields: Any) -> None:
    """Emit one event to the installed sink (no-op without one).

    The recorder stamps ``type``/``t``/``pid``; callers provide the
    per-type payload. Collector hooks pre-check :data:`_sink` inline and
    only pay this call while recording.
    """
    sink = _sink
    if sink is None:
        return
    event: dict[str, Any] = {
        "type": event_type,
        "t": perf_counter(),
        "pid": _sink_pid,
    }
    event.update(fields)
    sink.emit(event)


def read_events(path: os.PathLike | str) -> list[dict[str, Any]]:
    """Load a :class:`JsonlSink` file, recovering from a truncated tail.

    A process killed mid-write leaves at most one partial final line;
    that line is silently dropped. A malformed line anywhere *else*
    means the file was not produced by the flight recorder (or was
    corrupted beyond a kill), so it raises ``ValueError`` rather than
    silently skipping data.
    """
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    populated = [i for i, line in enumerate(lines) if line.strip()]
    events: list[dict[str, Any]] = []
    for index in populated:
        try:
            events.append(json.loads(lines[index]))
        except json.JSONDecodeError:
            if index == populated[-1]:
                break  # truncated final line: the interrupted write
            raise ValueError(
                f"{path}: malformed event on line {index + 1} "
                "(not a truncated tail)"
            ) from None
    return events


# ``REPRO_OBS_EVENTS=path`` installs a JSONL sink at import time, the
# flight-recorder counterpart of ``REPRO_OBS=1`` (which it composes
# with: span/counter/gauge events flow only while collection is
# enabled; progress events need only the sink).
_env_path = os.environ.get("REPRO_OBS_EVENTS", "").strip()
if _env_path:
    set_sink(JsonlSink(_env_path))
del _env_path
