"""Standard-format exporters: Chrome/Perfetto traces, Prometheus text,
collapsed flamegraph stacks.

Everything here converts the repro-native artifacts — JSONL trace event
lists and :class:`~repro.telemetry.metrics.MetricsRegistry` snapshots —
into formats existing tooling understands:

* :func:`chrome_trace_events` / :func:`write_chrome_trace` — the Chrome
  trace-event JSON format (``ph: "X"`` complete events, microsecond
  timestamps), loadable in ``chrome://tracing`` and https://ui.perfetto.dev;
* :func:`prometheus_exposition` — the Prometheus text exposition format
  (version 0.0.4): counters, gauges, and histogram quantile summaries,
  also served by the campaign service's ``stats`` op so a live
  ``python -m repro serve`` process is scrapable;
* :func:`collapsed_stacks` / :func:`write_collapsed` — Brendan Gregg's
  collapsed-stack format (``frame;frame;frame count``) from ``profile``
  events, the input ``flamegraph.pl`` / speedscope / inferno expect.

:func:`parse_prometheus` is the matching strict reader, used by the
tests to prove round-trips.
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, List, Sequence, Tuple

from .metrics import SUMMARY_QUANTILES, MetricsRegistry

#: Default metric-name prefix of the Prometheus exposition.
PROMETHEUS_PREFIX = "repro"

_NAME_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")
_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})?"
    r"\s+(?P<value>[^\s]+)\s*$")


# -- Chrome / Perfetto trace events --------------------------------------

def chrome_trace_events(events: Sequence[Dict[str, Any]],
                        ) -> List[Dict[str, Any]]:
    """Convert trace ``span`` events to Chrome trace-event dicts.

    Each span becomes one complete ("X") event: ``ts``/``dur`` in
    microseconds (timestamps rebased to the earliest span so the viewer
    opens at t≈0), ``pid``/``tid`` from the originating process, span
    ids and attrs under ``args``.  Non-span events are skipped — the
    Chrome format has no place for metrics snapshots.
    """
    spans = [e for e in events if e.get("type") == "span"]
    if not spans:
        return []
    t_base = min(float(e.get("t_start") or 0.0) for e in spans)
    out = []
    for event in spans:
        args: Dict[str, Any] = {"span_id": event.get("span_id"),
                                "parent_id": event.get("parent_id")}
        if event.get("trace_id") is not None:
            args["trace_id"] = event["trace_id"]
        args.update(event.get("attrs") or {})
        pid = event.get("pid", 0)
        out.append({
            "name": event.get("name", "?"),
            "cat": "repro",
            "ph": "X",
            "ts": round((float(event.get("t_start") or 0.0) - t_base)
                        * 1e6, 3),
            "dur": round(float(event.get("duration_s") or 0.0) * 1e6, 3),
            "pid": pid,
            "tid": pid,
            "args": args,
        })
    return out


def write_chrome_trace(events: Sequence[Dict[str, Any]],
                       path: str) -> int:
    """Write events as a Chrome trace JSON file; returns spans written."""
    trace_events = chrome_trace_events(events)
    document = {"traceEvents": trace_events, "displayTimeUnit": "ms"}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, default=str)
        handle.write("\n")
    return len(trace_events)


# -- Prometheus text exposition ------------------------------------------

def _metric_name(prefix: str, name: str) -> str:
    full = f"{prefix}_{name}" if prefix else name
    return _NAME_SANITIZE.sub("_", full)


def _format_value(value: Any) -> str:
    number = float(value)
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def prometheus_exposition(metrics: Any,
                          prefix: str = PROMETHEUS_PREFIX) -> str:
    """Render a registry (or its :meth:`snapshot`) as Prometheus text.

    Counters and gauges become single samples; histograms become
    Prometheus *summaries*: one ``{quantile="..."}`` sample per entry
    of :data:`~repro.telemetry.metrics.SUMMARY_QUANTILES` plus the
    conventional ``_sum`` and ``_count`` series.  Metric names are
    prefixed and sanitised (``service.job_wall_s`` →
    ``repro_service_job_wall_s``).
    """
    snapshot = (metrics.snapshot()
                if isinstance(metrics, MetricsRegistry) else dict(metrics))
    lines: List[str] = []
    for name in sorted(snapshot.get("counters", {})):
        metric = _metric_name(prefix, name)
        lines.append(f"# TYPE {metric} counter")
        value = snapshot["counters"][name]
        lines.append(f"{metric} {_format_value(value)}")
    for name in sorted(snapshot.get("gauges", {})):
        metric = _metric_name(prefix, name)
        lines.append(f"# TYPE {metric} gauge")
        value = snapshot["gauges"][name]
        lines.append(f"{metric} {_format_value(value)}")
    for name in sorted(snapshot.get("histograms", {})):
        metric = _metric_name(prefix, name)
        summary = snapshot["histograms"][name]
        lines.append(f"# TYPE {metric} summary")
        for key, q in SUMMARY_QUANTILES:
            if key in summary:
                lines.append(
                    f'{metric}{{quantile="{q}"}} '
                    f"{_format_value(summary[key])}")
        lines.append(f"{metric}_sum {_format_value(summary.get('sum', 0))}")
        lines.append(
            f"{metric}_count {_format_value(summary.get('count', 0))}")
    return "\n".join(lines) + "\n" if lines else ""


def parse_prometheus(text: str) -> Dict[str, float]:
    """Strict parse of text exposition → ``{sample_name: value}``.

    Sample names keep their label set verbatim (``m{quantile="0.5"}``).
    Raises ``ValueError`` on any line that is neither a comment, blank,
    nor a well-formed sample — the tests use this to prove a live
    scrape is really Prometheus text.
    """
    samples: Dict[str, float] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_LINE.match(line)
        if match is None:
            raise ValueError(f"malformed exposition line: {raw!r}")
        key = match.group("name") + (match.group("labels") or "")
        samples[key] = float(match.group("value"))
    return samples


# -- collapsed stacks (flamegraphs) --------------------------------------

def collapsed_stacks(events: Sequence[Dict[str, Any]],
                     ) -> List[Tuple[str, int]]:
    """Fold ``profile`` events into collapsed-stack lines.

    Returns ``(stack, count)`` pairs where ``stack`` is the
    semicolon-joined root→leaf frame list, counts summed across events,
    sorted by descending count then stack.
    """
    folded: Dict[str, int] = {}
    for event in events:
        if event.get("type") != "profile":
            continue
        for entry in event.get("stacks", ()):
            frames = entry.get("frames") or []
            count = entry.get("count", 0)
            if not frames or not count:
                continue
            key = ";".join(frames)
            folded[key] = folded.get(key, 0) + count
    return sorted(folded.items(), key=lambda item: (-item[1], item[0]))


def write_collapsed(events: Sequence[Dict[str, Any]],
                    path: str) -> int:
    """Write profile events in collapsed-stack format; returns lines."""
    pairs = collapsed_stacks(events)
    with open(path, "w", encoding="utf-8") as handle:
        for stack, count in pairs:
            handle.write(f"{stack} {count}\n")
    return len(pairs)


def export_trace(events: Sequence[Dict[str, Any]], path: str,
                 fmt: str = "chrome") -> int:
    """Dispatch helper behind ``python -m repro trace export``."""
    if fmt == "chrome":
        return write_chrome_trace(events, path)
    if fmt == "collapsed":
        return write_collapsed(events, path)
    raise ValueError(f"unknown trace export format: {fmt!r}")
