"""In-process telemetry collection: spans, counters, and gauges.

Design notes
------------
* **Off by default.** The module-level enabled flag gates every recording
  entry point; when disabled, :func:`span` returns a shared no-op context
  manager and :func:`count` / :func:`gauge_max` / :func:`add_duration`
  return immediately. The hot paths (kernel round loop, event-engine
  dispatch) additionally check :func:`enabled` once per call and keep
  their measurements in local variables, so the disabled cost is a single
  branch.
* **Spans nest.** Each thread keeps its own span stack
  (:class:`threading.local`); a span's path is the ``/``-joined stack at
  entry time (``kernel.run/kernel.draw``). Aggregation is by path —
  repeated entries accumulate ``count`` and ``seconds`` rather than
  producing one record per entry, which keeps a million-round run's
  telemetry O(distinct paths).
* **Merge semantics.** Snapshots are plain JSON-able dicts. Merging
  sums span counts/durations and counters and takes the max of gauges,
  so folding several collectors is order-independent. Pool workers do
  not ship snapshots: they ship their recorded events, and the parent
  folds each one in with :meth:`Collector.apply` (:func:`merge_worker`)
  — the event stream is the one worker channel, and :func:`replay
  <repro.obs.export.replay>` is the same fold.
* **Determinism.** Recording only ever *observes* (wall-clock reads, dict
  updates); it never touches simulation RNG streams, so seeded results
  are bit-identical with telemetry on or off (enforced in
  ``bench_fastsim``).
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional

from repro.obs import events as _events

__all__ = [
    "Collector",
    "enabled",
    "enable",
    "disable",
    "collector",
    "set_collector",
    "scoped",
    "span",
    "count",
    "gauge_max",
    "add_duration",
    "run_in_worker",
    "merge_worker",
    "peak_rss_bytes",
    "sample_peak_rss",
    "reset_span_stack",
    "SNAPSHOT_SCHEMA",
]

#: Version stamp carried by every snapshot so future readers can detect
#: format drift in persisted telemetry blocks. Rev 2 dropped the
#: ``id``/``merged_ids`` duplicate-merge bookkeeping.
SNAPSHOT_SCHEMA = 2


class Collector:
    """Thread-safe aggregation of spans, counters, and gauges.

    A collector is cheap to create; worker processes build a fresh one
    per job (via :func:`scoped`) so a reused worker's tasks stay apart.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # path -> [count, total_seconds, attrs]; attrs keep the most
        # recent value per key (spans re-entered with new attributes
        # overwrite, which is what profiles want: "the last calibrate.churn
        # ran at peers=5000").
        self._spans: dict[str, list] = {}
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}

    # -- recording -----------------------------------------------------
    def record_span(
        self, path: str, seconds: float, attrs: Optional[dict] = None
    ) -> None:
        """Accumulate one span entry under ``path``."""
        with self._lock:
            entry = self._spans.get(path)
            if entry is None:
                entry = self._spans[path] = [0, 0.0, {}]
            entry[0] += 1
            entry[1] += seconds
            if attrs:
                entry[2].update(attrs)

    def add_duration(self, path: str, seconds: float, n: int = 1) -> None:
        """Accumulate ``seconds`` over ``n`` logical entries of ``path``.

        Hot loops measure phases into local floats and report once at the
        end; ``n`` preserves the true entry count (e.g. rounds).
        """
        with self._lock:
            entry = self._spans.get(path)
            if entry is None:
                entry = self._spans[path] = [0, 0.0, {}]
            entry[0] += n
            entry[1] += seconds

    def count(self, name: str, n: float = 1) -> None:
        """Increment counter ``name`` by ``n``."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + n

    def gauge_max(self, name: str, value: float) -> None:
        """Record ``value`` for gauge ``name``, keeping the maximum seen.

        Gauges are high-water marks (peak RSS, peak cache size); merging
        across workers takes the max, not the sum.
        """
        with self._lock:
            current = self._gauges.get(name)
            if current is None or value > current:
                self._gauges[name] = float(value)

    # -- views ---------------------------------------------------------
    @property
    def spans(self) -> dict[str, dict[str, Any]]:
        with self._lock:
            return {
                path: {"count": c, "seconds": s, "attrs": dict(a)}
                for path, (c, s, a) in self._spans.items()
            }

    @property
    def counters(self) -> dict[str, float]:
        with self._lock:
            return dict(self._counters)

    @property
    def gauges(self) -> dict[str, float]:
        with self._lock:
            return dict(self._gauges)

    def snapshot(self) -> dict[str, Any]:
        """A JSON-able copy of this collector's state."""
        with self._lock:
            return {
                "schema": SNAPSHOT_SCHEMA,
                "spans": {
                    path: {"count": c, "seconds": s, "attrs": dict(a)}
                    for path, (c, s, a) in self._spans.items()
                },
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
            }

    to_dict = snapshot

    def merge(self, snapshot: dict) -> None:
        """Fold a :meth:`snapshot` dict into this collector: span counts
        and durations and counters sum, gauges keep the maximum."""
        with self._lock:
            for path, data in snapshot.get("spans", {}).items():
                entry = self._spans.get(path)
                if entry is None:
                    entry = self._spans[path] = [0, 0.0, {}]
                entry[0] += int(data.get("count", 0))
                entry[1] += float(data.get("seconds", 0.0))
                attrs = data.get("attrs")
                if attrs:
                    entry[2].update(attrs)
            for name, value in snapshot.get("counters", {}).items():
                self._counters[name] = self._counters.get(name, 0.0) + value
            for name, value in snapshot.get("gauges", {}).items():
                current = self._gauges.get(name)
                if current is None or value > current:
                    self._gauges[name] = float(value)

    def apply(self, event: dict[str, Any]) -> None:
        """Fold one flight-recorder event into this collector.

        Each aggregate-bearing event goes through the method that
        recorded it live; ``span_start`` and ``progress`` events carry no
        aggregate state and are ignored.
        """
        kind = event.get("type")
        if kind == "span_end":
            self.record_span(
                event["path"], event["seconds"], event.get("attrs") or None
            )
        elif kind == "duration":
            self.add_duration(
                event["path"], event["seconds"], event.get("n", 1)
            )
        elif kind == "counter":
            self.count(event["name"], event["n"])
        elif kind == "gauge":
            self.gauge_max(event["name"], event["value"])

    def clear(self) -> None:
        """Drop all recorded data."""
        with self._lock:
            self._spans.clear()
            self._counters.clear()
            self._gauges.clear()

    def __bool__(self) -> bool:
        with self._lock:
            return bool(self._spans or self._counters or self._gauges)


# ---------------------------------------------------------------------
# Module-level state: one global collector, one enabled flag, and a
# per-thread span stack. ``REPRO_OBS=1`` in the environment enables
# collection at import time (useful for CLI runs and CI).
# ---------------------------------------------------------------------
_enabled = False
_collector = Collector()
_tls = threading.local()


def _stack() -> list:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
    return stack


def reset_span_stack() -> None:
    """Clear the calling thread's span stack.

    Worker-process entry points call this so recorded paths are rooted
    the same way regardless of the multiprocessing start method: under
    ``fork`` the child inherits whatever spans the parent had open at
    fork time, under ``spawn`` it starts empty.
    """
    _tls.stack = []


def enabled() -> bool:
    """Whether telemetry collection is currently on."""
    return _enabled


def enable() -> None:
    """Turn collection on (idempotent). The current collector is kept."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn collection off (idempotent). Recorded data is kept."""
    global _enabled
    _enabled = False


def collector() -> Collector:
    """The collector currently receiving recordings."""
    return _collector


def set_collector(target: Collector) -> Collector:
    """Swap the active collector; returns the previous one."""
    global _collector
    previous = _collector
    _collector = target
    return previous


@contextmanager
def scoped(merge_into_parent: bool = True) -> Iterator[Collector]:
    """Route recordings into a fresh collector for the ``with`` body.

    Used to carve out a per-experiment or per-job telemetry block; on
    exit the previous collector is restored and (by default) the child's
    data is folded back into it, so scoping never loses measurements.
    """
    child = Collector()
    previous = set_collector(child)
    try:
        yield child
    finally:
        set_collector(previous)
        if merge_into_parent:
            previous.merge(child.snapshot())


# ---------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------
class _Span:
    """Context manager that times one nested span entry."""

    __slots__ = ("_name", "_attrs", "_path", "_started")

    def __init__(self, name: str, attrs: dict) -> None:
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> "_Span":
        stack = _stack()
        stack.append(self._name)
        self._path = "/".join(stack)
        if _events._sink is not None:
            _events.emit_event(
                "span_start", path=self._path, attrs=self._attrs
            )
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        elapsed = time.perf_counter() - self._started
        stack = _stack()
        if stack and stack[-1] == self._name:
            stack.pop()
        _collector.record_span(self._path, elapsed, self._attrs)
        if _events._sink is not None:
            _events.emit_event(
                "span_end",
                path=self._path,
                seconds=elapsed,
                attrs=self._attrs,
            )
        return False


class _NoopSpan:
    """Shared do-nothing span returned while collection is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NOOP_SPAN = _NoopSpan()


def span(name: str, **attrs: Any):
    """Time a code region: ``with obs.span("calibrate.churn", peers=5000):``.

    Spans nest per thread; the recorded path is the ``/``-joined stack
    (``sweep.grid/kernel.run``). Attributes are attached to the
    aggregated entry, last writer wins.
    """
    if not _enabled:
        return _NOOP_SPAN
    return _Span(name, attrs)


def count(name: str, n: float = 1) -> None:
    """Increment counter ``name`` (no-op while disabled)."""
    if _enabled:
        _collector.count(name, n)
        if _events._sink is not None:
            _events.emit_event("counter", name=name, n=n)


def gauge_max(name: str, value: float) -> None:
    """Record a high-water-mark gauge (no-op while disabled)."""
    if _enabled:
        _collector.gauge_max(name, value)
        if _events._sink is not None:
            _events.emit_event("gauge", name=name, value=float(value))


def run_in_worker(
    fn: Callable[[Any], Any], payload: tuple[Any, bool]
) -> tuple[Any, list[dict[str, Any]]]:
    """Pool-worker side of telemetry shipping: ``fn(arg)`` plus the
    events it recorded, returned by value as ``(result, events)``.

    ``payload`` is ``(arg, collect)``; the flag travels with it because
    pool workers may be fresh processes (spawn) that do not inherit the
    parent's module state. The events are the worker's only telemetry
    channel, so they go to an unbounded per-call list — a bounded ring
    would silently drop aggregates. Each call records into its own
    scoped collector, since pool workers are *reused*. The sink is
    replaced *unconditionally* because ``fork``-started workers inherit
    the parent's sink (shared file descriptor, parent pid stamp). Bind
    ``fn`` with :func:`functools.partial` to get a picklable pool entry
    point.
    """
    arg, collect = payload
    sink = _events.RingBufferSink(capacity=None) if collect else None
    _events.set_sink(sink)
    try:
        if sink is None:
            return fn(arg), []
        enable()
        reset_span_stack()
        with scoped(merge_into_parent=False):
            result = fn(arg)
            sample_peak_rss("worker")
        return result, sink.events()
    finally:
        _events.set_sink(None)


def merge_worker(events: list[dict[str, Any]]) -> None:
    """Parent side of :func:`run_in_worker`: fold a worker's events into
    the active collector and re-emit them to the installed sink.

    Each event is marked ``remote: True`` and its span ``path`` is
    prefixed with the calling thread's current span path, so a pool
    worker's ``kernel.run`` nests exactly where a sequential in-process
    run would have recorded it (e.g. ``parallel.run_many/kernel.run``)
    and profiles keep one shape regardless of worker count. Call this
    *inside* the span that fanned the work out. No-op while disabled.
    """
    if not _enabled:
        return
    prefix = "/".join(_stack())
    sink = _events._sink
    for event in events:
        event = {**event, "remote": True}
        if prefix and "path" in event:
            event["path"] = f"{prefix}/{event['path']}"
        _collector.apply(event)
        if sink is not None:
            sink.emit(event)


def add_duration(name: str, seconds: float, n: int = 1) -> None:
    """Report a locally-accumulated duration under the current span path.

    Hot loops keep per-phase totals in local floats and call this once;
    ``name`` is appended to the calling thread's span stack so phases
    appear nested under their enclosing span (no-op while disabled).
    """
    if not _enabled:
        return
    stack = _stack()
    path = "/".join((*stack, name)) if stack else name
    _collector.add_duration(path, seconds, n)
    if _events._sink is not None:
        _events.emit_event("duration", path=path, seconds=seconds, n=n)


# ---------------------------------------------------------------------
# Memory sampling
# ---------------------------------------------------------------------
def peak_rss_bytes() -> int:
    """This process's peak resident set size in bytes (0 if unknown).

    ``ru_maxrss`` is a process-lifetime high-water mark: it only ever
    grows, so per-phase readings mean "peak so far", not "used by this
    phase".
    """
    try:
        import resource
    except ImportError:  # non-POSIX platform
        return 0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB; macOS reports bytes.
    if sys.platform == "darwin":
        return int(rss)
    return int(rss) * 1024


def sample_peak_rss(label: str = "process") -> int:
    """Record the current peak RSS as gauge ``{label}.peak_rss_bytes``.

    Returns the sampled value; records only while enabled.
    """
    peak = peak_rss_bytes()
    if _enabled and peak:
        gauge_max(f"{label}.peak_rss_bytes", float(peak))
    return peak


if os.environ.get("REPRO_OBS", "").strip().lower() not in ("", "0", "false"):
    enable()
