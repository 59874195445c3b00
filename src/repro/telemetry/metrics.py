"""Counters, gauges and histograms — the numeric half of telemetry.

A :class:`MetricsRegistry` is a flat namespace of named instruments.
Counters accumulate monotonically (Newton iterations, factorizations),
gauges hold last-written values (cache sizes), histograms keep running
distribution summaries (iterations per solve, LTE-rejected step sizes).
Registries merge — the parallel fault campaign merges every worker
process's snapshot into the parent's registry, which is what makes
serial and parallel campaign metrics identical.

The canonical counter names for solver bookkeeping live in
:data:`NEWTON_COUNTERS`; :func:`record_newton_stats` is the one mapping
from a :class:`~repro.sim.dc.NewtonStats`-shaped object onto a registry,
shared by the live instrumentation and by
:func:`repro.sim.report.solver_stats_report` so there is a single source
of truth for what each counter means.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional, Tuple

#: ``NewtonStats`` attribute → canonical metric name, in report order.
#: The label printed by ``solver_stats_report`` is the part after the
#: last dot of the metric name with the subsystem prefix stripped.
NEWTON_COUNTERS: Tuple[Tuple[str, str], ...] = (
    ("iterations", "newton.iterations"),
    ("n_factorizations", "newton.factorizations"),
    ("n_reuses", "newton.reuses"),
    ("n_rejected_steps", "transient.rejected_steps"),
    ("n_batched_solves", "campaign.batched_solves"),
    ("batch_occupancy", "campaign.batch_occupancy"),
    ("batch_fallbacks", "campaign.batch_fallbacks"),
    ("gmin_steps", "newton.gmin_steps"),
    ("source_steps", "newton.source_steps"),
)


class Counter:
    """Monotonic accumulator."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def add(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """Last-written value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value


#: Geometric growth factor of the histogram buckets.  Bucket ``i`` holds
#: values in ``(GAMMA**(i-1), GAMMA**i]``, bounding the relative error of
#: any reported quantile by ``GAMMA - 1`` (~9%) — the DDSketch idea.
BUCKET_GAMMA = 1.09
_LOG_GAMMA = math.log(BUCKET_GAMMA)

#: Quantiles reported by :meth:`Histogram.summary` (and Prometheus
#: exposition): key in the summary dict → q value.
SUMMARY_QUANTILES: Tuple[Tuple[str, float], ...] = (
    ("p50", 0.50), ("p95", 0.95), ("p99", 0.99),
)


class Histogram:
    """Running distribution summary with log-scaled quantile buckets.

    Raw samples are not retained: a million-defect campaign must not
    hold a million floats per instrument.  Exact count / sum / min /
    max are kept alongside a sparse dict of geometric buckets (growth
    factor :data:`BUCKET_GAMMA`), so :meth:`quantile` answers p50/p95/
    p99 within ~9% relative error in O(buckets) time.  Bucket counts
    add under :meth:`MetricsRegistry.merge`, so quantiles from merged
    worker registries equal the serial run's exactly — same samples,
    same buckets, same counts.
    """

    __slots__ = ("count", "total", "min", "max", "buckets",
                 "n_nonpositive")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.buckets: Dict[int, int] = {}
        self.n_nonpositive = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        if value > 0.0:
            index = int(math.ceil(math.log(value) / _LOG_GAMMA - 1e-9))
            self.buckets[index] = self.buckets.get(index, 0) + 1
        else:
            self.n_nonpositive += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate q-quantile (q in [0, 1]) from the buckets.

        Non-positive samples sort below every bucket and are reported
        as ``min``; results are clamped into ``[min, max]`` so the
        bucket upper bound never overshoots the observed range.
        """
        if not self.count:
            return 0.0
        rank = q * self.count
        cumulative = self.n_nonpositive
        if rank <= cumulative:
            return self.min if self.min is not None else 0.0
        for index in sorted(self.buckets):
            cumulative += self.buckets[index]
            if cumulative >= rank:
                value = BUCKET_GAMMA ** index
                return max(self.min, min(self.max, value))
        return self.max if self.max is not None else 0.0

    def summary(self) -> Dict[str, float]:
        summary = {"count": self.count, "sum": self.total,
                   "min": self.min, "max": self.max, "mean": self.mean}
        for key, q in SUMMARY_QUANTILES:
            summary[key] = self.quantile(q)
        return summary

    def to_dict(self) -> Dict[str, Any]:
        """Summary plus the raw buckets — the mergeable snapshot form."""
        state = self.summary()
        state["buckets"] = {str(i): c for i, c in self.buckets.items()}
        if self.n_nonpositive:
            state["n_nonpositive"] = self.n_nonpositive
        return state


class MetricsRegistry:
    """Named counters, gauges and histograms with get-or-create access."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter()
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge()
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram()
        return instrument

    def counter_value(self, name: str, default: int = 0) -> int:
        instrument = self._counters.get(name)
        return instrument.value if instrument is not None else default

    def snapshot(self) -> Dict[str, Any]:
        """JSON-serialisable view of every instrument."""
        return {
            "counters": {n: c.value for n, c in self._counters.items()},
            "gauges": {n: g.value for n, g in self._gauges.items()},
            "histograms": {n: h.to_dict()
                           for n, h in self._histograms.items()},
        }

    def merge(self, snapshot: Dict[str, Any]) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters and histogram summaries add; gauges take the incoming
        value (last write wins).  This is how worker-process campaign
        metrics combine into the parent registry so parallel aggregates
        equal serial ones.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).add(value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, summary in snapshot.get("histograms", {}).items():
            histogram = self.histogram(name)
            count = summary.get("count", 0)
            if not count:
                continue
            histogram.count += count
            histogram.total += summary.get("sum", 0.0)
            for bound, pick in (("min", min), ("max", max)):
                incoming = summary.get(bound)
                if incoming is None:
                    continue
                current = getattr(histogram, bound)
                setattr(histogram, bound,
                        incoming if current is None
                        else pick(current, incoming))
            # Bucket counts add (missing in legacy snapshots — tolerate).
            for index, bucket_count in summary.get("buckets", {}).items():
                index = int(index)
                histogram.buckets[index] = (
                    histogram.buckets.get(index, 0) + bucket_count)
            histogram.n_nonpositive += summary.get("n_nonpositive", 0)


def record_newton_stats(registry: MetricsRegistry, stats: Any) -> None:
    """Fold a ``NewtonStats``-shaped object into canonical counters.

    Duck-typed on the attribute names in :data:`NEWTON_COUNTERS` so the
    telemetry layer never imports the solver (no circular dependency);
    missing attributes count as zero, zero values are skipped.
    """
    for attr, name in NEWTON_COUNTERS:
        value = getattr(stats, attr, 0)
        if value:
            registry.counter(name).add(value)
