"""Turn recorded event streams back into snapshots, traces, and metrics.

Three consumers of the flight-recorder stream
(:mod:`repro.obs.events`):

* :func:`replay` — reconstruct an end-of-run
  :class:`~repro.obs.collector.Collector` snapshot from the events
  alone. The fidelity contract (enforced in ``tests/obs/test_replay.py``)
  is ``profile_data(replay(events)) == profile_data(snapshot)`` for
  sequential *and* pooled runs: every aggregate the collector built live
  is derivable from the stream, so a killed run's JSONL file is a full
  profile, not just a log.
* :func:`chrome_trace` — Chrome trace-event JSON (the Trace Event
  Format), loadable in Perfetto / ``chrome://tracing``. Spans and
  hot-loop durations become complete ("X") slices; each process gets
  its own pid lane with a ``process_name`` metadata record, so a jobs=4
  sweep renders as one main lane plus four worker lanes. Timestamps
  come from the events' shared monotonic clock, so cross-process slices
  align.
* :func:`openmetrics_text` — OpenMetrics text exposition of counters
  and gauges, the substrate a capacity-planning service can scrape.
  One counter family and one gauge family, each keyed by a ``name``
  label, which keeps arbitrary dotted telemetry names lossless —
  :func:`parse_openmetrics` round-trips the values exactly.
"""

from __future__ import annotations

from typing import Any, Iterable, Union

from repro.obs.collector import Collector

__all__ = [
    "replay",
    "chrome_trace",
    "openmetrics_text",
    "parse_openmetrics",
]


def replay(events: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """Rebuild a collector snapshot from a recorded event stream.

    A plain fold: every event goes through
    :meth:`~repro.obs.collector.Collector.apply` on a fresh collector —
    the same fold the live parent applies to pool workers' shipped
    events, which arrive in the stream already re-rooted and marked
    ``remote``. Returns a snapshot-shaped dict (pass it to
    :func:`~repro.obs.profile.profile_data` / ``profile_text``).
    """
    collector = Collector()
    for event in events:
        collector.apply(event)
    return collector.snapshot()


def chrome_trace(events: list[dict[str, Any]]) -> dict[str, Any]:
    """Render an event stream as Chrome trace-event JSON.

    Every process in the stream becomes a pid lane named via a
    ``process_name`` metadata ("M") record — ``main`` for the recording
    process (the first event's pid; the parent installs its sink before
    any worker runs), ``worker-<pid>`` for shipped remote events. Spans
    and durations become complete ("X") slices: the event timestamp is
    the *end* of the measured interval, so ``ts = t - seconds``,
    rebased to the earliest event and scaled to microseconds. Hot-loop
    ``duration`` events render as one slice covering their accumulated
    time. ``progress`` events become instant ("i") marks, which makes
    heartbeats visible as ticks along a worker's lane.
    """
    trace_events: list[dict[str, Any]] = []
    if not events:
        return {"traceEvents": trace_events, "displayTimeUnit": "ms"}
    t0 = min(event["t"] for event in events)
    root_pid = events[0]["pid"]
    pids_seen: dict[int, None] = {}
    for event in events:
        pid = event["pid"]
        pids_seen.setdefault(pid, None)
        kind = event.get("type")
        if kind in ("span_end", "duration"):
            path = event["path"]
            seconds = event["seconds"]
            slice_event: dict[str, Any] = {
                "name": path,
                "cat": path.split("/", 1)[0].split(".", 1)[0],
                "ph": "X",
                "ts": (event["t"] - seconds - t0) * 1e6,
                "dur": seconds * 1e6,
                "pid": pid,
                "tid": pid,
            }
            args: dict[str, Any] = {}
            if kind == "duration":
                args["n"] = event.get("n", 1)
            elif event.get("attrs"):
                args.update(event["attrs"])
            if args:
                slice_event["args"] = args
            trace_events.append(slice_event)
        elif kind == "progress":
            instant: dict[str, Any] = {
                "name": event["name"],
                "cat": event["name"].split(".", 1)[0],
                "ph": "i",
                "s": "p",
                "ts": (event["t"] - t0) * 1e6,
                "pid": pid,
                "tid": pid,
                "args": {
                    "done": event["done"],
                    "total": event.get("total"),
                },
            }
            trace_events.append(instant)
    metadata = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "args": {
                "name": "main" if pid == root_pid else f"worker-{pid}"
            },
        }
        for pid in pids_seen
    ]
    return {
        "traceEvents": metadata + trace_events,
        "displayTimeUnit": "ms",
    }


def _counters_and_gauges(
    source: Union[Collector, dict, list],
) -> tuple[dict[str, float], dict[str, float]]:
    """Normalize any metrics source to ``(counters, gauges)``.

    Accepts a live :class:`Collector`, a snapshot dict, or a recorded
    event list (which is replayed first).
    """
    if isinstance(source, list):
        source = replay(source)
    if isinstance(source, Collector):
        return source.counters, source.gauges
    return (
        dict(source.get("counters", {})),
        dict(source.get("gauges", {})),
    )


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def openmetrics_text(source: Union[Collector, dict, list]) -> str:
    """OpenMetrics text exposition of a source's counters and gauges.

    Telemetry names are dotted paths (RL107), which OpenMetrics metric
    names cannot carry — so the export uses two fixed families,
    ``repro_counter`` and ``repro_gauge``, with the telemetry name as a
    ``name`` label. That keeps the mapping lossless:
    :func:`parse_openmetrics` recovers exactly the values put in.
    """
    counters, gauges = _counters_and_gauges(source)
    lines = [
        "# TYPE repro_counter counter",
        "# HELP repro_counter repro.obs counters, keyed by dotted name.",
    ]
    for name in sorted(counters):
        lines.append(
            f'repro_counter_total{{name="{_escape_label(name)}"}} '
            f"{float(counters[name])!r}"
        )
    lines.append("# TYPE repro_gauge gauge")
    lines.append(
        "# HELP repro_gauge repro.obs high-water gauges, keyed by dotted name."
    )
    for name in sorted(gauges):
        lines.append(
            f'repro_gauge{{name="{_escape_label(name)}"}} '
            f"{float(gauges[name])!r}"
        )
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def parse_openmetrics(text: str) -> dict[str, dict[str, float]]:
    """Parse :func:`openmetrics_text` output back to values.

    Returns ``{"counters": {name: value}, "gauges": {name: value}}``.
    Only the two families this module writes are recognized; anything
    else raises ``ValueError`` so corruption is loud.
    """
    counters: dict[str, float] = {}
    gauges: dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("repro_counter_total{"):
            target = counters
            rest = line[len("repro_counter_total{") :]
        elif line.startswith("repro_gauge{"):
            target = gauges
            rest = line[len("repro_gauge{") :]
        else:
            raise ValueError(f"unrecognized OpenMetrics line: {line!r}")
        label, _, value_text = rest.partition("} ")
        if not label.startswith('name="') or not label.endswith('"'):
            raise ValueError(f"unrecognized OpenMetrics label: {line!r}")
        name = (
            label[len('name="') : -1]
            .replace("\\n", "\n")
            .replace('\\"', '"')
            .replace("\\\\", "\\")
        )
        target[name] = float(value_text)
    return {"counters": counters, "gauges": gauges}
