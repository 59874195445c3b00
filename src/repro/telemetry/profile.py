"""Sampling wall-clock profiler attachable to any traced span.

A :class:`SamplingProfiler` runs a daemon thread that periodically grabs
the target thread's current Python stack via ``sys._current_frames()``
and counts identical stacks.  Pure stdlib, no signals, no C extension —
it works inside pool worker processes and under pytest alike.  The
overhead is one stack walk per ``interval_s`` (default 5 ms),
independent of how hot the profiled code is.

Results aggregate two ways:

* ``to_event()`` — a ``{"type": "profile"}`` trace event carrying the
  top stacks with counts, emitted into the same trace as the spans it
  covers (correlated by ``span_id``/``trace_id``);
* :func:`aggregate_hotspots` — fold profile events into per-function
  *self* and *total* seconds (self = samples where the function is the
  leaf; total = samples where it appears anywhere, deduplicated per
  stack so recursion doesn't double-count).  Self-times sum to exactly
  ``n_samples * interval_s`` ≤ the profiled wall time.

Enable on campaigns with the ``REPRO_PROFILE`` environment variable
(truthy, or a float sampling interval in seconds).  Export to
flamegraph tooling with :func:`repro.telemetry.export.collapsed_stacks`.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Environment variable enabling campaign profiling without code
#: changes.  Truthy values use :data:`DEFAULT_INTERVAL_S`; a float value
#: ("0.002") sets the sampling interval in seconds.
PROFILE_ENV_VAR = "REPRO_PROFILE"

#: Default sampling interval (seconds).
DEFAULT_INTERVAL_S = 0.005

#: Frames kept per sampled stack (root side is truncated beyond this).
MAX_STACK_DEPTH = 64

#: Distinct stacks kept in a profile event (highest count first).
MAX_EVENT_STACKS = 200


def _frame_label(frame) -> str:
    """``module.function`` label for one frame."""
    module = frame.f_globals.get("__name__", "?")
    return f"{module}.{frame.f_code.co_name}"


class SamplingProfiler:
    """Wall-clock stack sampler for one thread (default: the creator's).

    Use as a context manager around the region of interest, or
    ``start()``/``stop()`` explicitly.  Restartable: further
    ``start()`` calls keep accumulating into the same stack counts.
    """

    def __init__(self, interval_s: float = DEFAULT_INTERVAL_S,
                 max_depth: int = MAX_STACK_DEPTH):
        self.interval_s = float(interval_s)
        if self.interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.max_depth = max_depth
        self.n_samples = 0
        self.wall_s = 0.0
        self._counts: Dict[Tuple[str, ...], int] = {}
        self._target_ident: Optional[int] = None
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._t0: Optional[float] = None

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "SamplingProfiler":
        """Begin sampling the calling thread."""
        if self._thread is not None:
            raise RuntimeError("profiler already running")
        self._target_ident = threading.get_ident()
        self._stop.clear()
        self._t0 = time.perf_counter()
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop sampling (idempotent)."""
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join()
        self._thread = None
        if self._t0 is not None:
            self.wall_s += time.perf_counter() - self._t0
            self._t0 = None

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

    def _run(self) -> None:
        target = self._target_ident
        while not self._stop.wait(self.interval_s):
            frame = sys._current_frames().get(target)
            if frame is None:
                continue
            stack: List[str] = []
            depth = 0
            while frame is not None and depth < self.max_depth:
                stack.append(_frame_label(frame))
                frame = frame.f_back
                depth += 1
            key = tuple(reversed(stack))  # root → leaf
            self._counts[key] = self._counts.get(key, 0) + 1
            self.n_samples += 1

    # -- results ---------------------------------------------------------

    def stacks(self) -> Dict[Tuple[str, ...], int]:
        """Sampled stacks (root→leaf frame labels) → sample count."""
        return dict(self._counts)

    def to_event(self, span_id: Optional[str] = None,
                 trace_id: Optional[str] = None,
                 max_stacks: int = MAX_EVENT_STACKS) -> Dict[str, Any]:
        """The profile as one trace event (top ``max_stacks`` stacks)."""
        ranked = sorted(self._counts.items(),
                        key=lambda item: (-item[1], item[0]))
        event: Dict[str, Any] = {
            "type": "profile",
            "interval_s": self.interval_s,
            "n_samples": self.n_samples,
            "wall_s": round(self.wall_s, 6),
            "pid": os.getpid(),
            "stacks": [{"frames": list(frames), "count": count}
                       for frames, count in ranked[:max_stacks]],
        }
        if span_id is not None:
            event["span_id"] = span_id
        if trace_id is not None:
            event["trace_id"] = trace_id
        return event


def aggregate_hotspots(
        events: Sequence[Dict[str, Any]],
        limit: Optional[int] = None) -> List[Dict[str, Any]]:
    """Per-function self/total seconds from ``profile`` events.

    Accepts a full trace event list (non-profile events are skipped).
    Returns rows ``{"function", "self_s", "total_s", "self_pct"}``
    sorted by descending self time; ``limit`` truncates.  Self-times
    across all rows sum to ``n_samples * interval_s`` for each profile
    event, which is ≤ the wall time the profiler ran.
    """
    self_samples: Dict[str, float] = {}
    total_samples: Dict[str, float] = {}
    grand_total = 0.0
    for event in events:
        if event.get("type") != "profile":
            continue
        interval = float(event.get("interval_s") or DEFAULT_INTERVAL_S)
        for entry in event.get("stacks", ()):
            frames = entry.get("frames") or []
            count = entry.get("count", 0)
            if not frames or not count:
                continue
            seconds = count * interval
            grand_total += seconds
            leaf = frames[-1]
            self_samples[leaf] = self_samples.get(leaf, 0.0) + seconds
            for function in set(frames):  # dedup: recursion counts once
                total_samples[function] = (
                    total_samples.get(function, 0.0) + seconds)
    rows = [{"function": function,
             "self_s": round(self_s, 6),
             "total_s": round(total_samples.get(function, self_s), 6),
             "self_pct": round(100.0 * self_s / grand_total, 2)
             if grand_total else 0.0}
            for function, self_s in self_samples.items()]
    rows.sort(key=lambda row: (-row["self_s"], row["function"]))
    return rows[:limit] if limit is not None else rows


def profiler_for() -> Optional[SamplingProfiler]:
    """Resolve the campaign profiler from the environment.

    :data:`PROFILE_ENV_VAR` enables profiling — set to a float for a
    custom interval, or "1"/"true"/"yes"/"on" (or any other non-numeric
    non-empty value) for the default; "0"/"false"/"no"/"off" disable.
    Returns ``None`` when profiling is off.
    """
    raw = os.environ.get(PROFILE_ENV_VAR, "").strip()
    if not raw or raw.lower() in ("0", "false", "no", "off"):
        return None
    if raw.lower() in ("1", "true", "yes", "on"):
        return SamplingProfiler(interval_s=DEFAULT_INTERVAL_S)
    try:
        interval = float(raw)
    except ValueError:
        interval = DEFAULT_INTERVAL_S
    if interval <= 0:
        interval = DEFAULT_INTERVAL_S
    return SamplingProfiler(interval_s=interval)
