"""Turn a finished trace into a human-readable run report.

:class:`RunReport` consumes the raw event stream a campaign (or any
traced run) produced — from a capturing Telemetry, an event list, or a
JSONL file — and renders the triage summary the paper-reproduction
workflow needs: where the wall-clock went per phase, which defects were
slowest, which solves were convergence outliers, what every detector
oracle ruled, and the aggregate solver counters.  Text by default,
Markdown with ``render(markdown=True)``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from .metrics import MetricsRegistry
from .profile import aggregate_hotspots
from .sinks import read_jsonl

#: How many rows the "slowest" / "outlier" tables show.
TOP_N = 5

#: How many rows the profiler hotspot table shows.
HOTSPOT_TOP_N = 10


def _table(headers: Sequence[str], rows: Sequence[Sequence[Any]],
           title: str, markdown: bool) -> str:
    def render(cell: Any) -> str:
        if cell is None:
            return "-"
        if isinstance(cell, float):
            return f"{cell:.4g}"
        return str(cell)

    text_rows = [[render(cell) for cell in row] for row in rows]
    if markdown:
        lines = [f"### {title}", "",
                 "| " + " | ".join(headers) + " |",
                 "|" + "|".join("---" for _ in headers) + "|"]
        lines.extend("| " + " | ".join(row) + " |" for row in text_rows)
        return "\n".join(lines)
    widths = [len(header) for header in headers]
    for row in text_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def line(cells: Sequence[str]) -> str:
        return " | ".join(c.rjust(w) for c, w in zip(cells, widths))

    return "\n".join([title, line(headers),
                      "-+-".join("-" * w for w in widths)]
                     + [line(row) for row in text_rows])


class RunReport:
    """Structured view over a trace's events plus its rendering."""

    def __init__(self, events: Sequence[Dict[str, Any]]):
        self.spans = [e for e in events if e.get("type") == "span"]
        self.profiles = [e for e in events if e.get("type") == "profile"]
        self.metrics = MetricsRegistry()
        # Metrics events are cumulative registry snapshots (a registry
        # only ever grows), so a trace holding several flushes — e.g.
        # one per campaign plus one at close — is represented by its
        # *last* snapshot, not the sum of all of them.
        snapshots = [e for e in events if e.get("type") == "metrics"]
        if snapshots:
            self.metrics.merge(snapshots[-1])
        self._by_id = {span["span_id"]: span for span in self.spans}

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_events(cls, events: Sequence[Dict[str, Any]]) -> "RunReport":
        return cls(events)

    @classmethod
    def from_jsonl(cls, path: str) -> "RunReport":
        return cls(read_jsonl(path))

    @classmethod
    def from_telemetry(cls, telemetry: Any) -> "RunReport":
        """Build from a capturing Telemetry (flushes its metrics first)."""
        telemetry.flush_metrics()
        return cls(telemetry.events())

    # -- structured accessors --------------------------------------------

    def named(self, name: str) -> List[Dict[str, Any]]:
        """All spans called ``name``."""
        return [span for span in self.spans if span["name"] == name]

    def children_of(self, span: Dict[str, Any]) -> List[Dict[str, Any]]:
        return [s for s in self.spans
                if s.get("parent_id") == span["span_id"]]

    def total_newton_iterations(self) -> int:
        """Campaign-wide Newton iterations, metrics-first with a span
        fallback for traces recorded without a metrics flush."""
        value = self.metrics.counter_value("newton.iterations")
        if value:
            return value
        return sum(span["attrs"].get("iterations", 0)
                   for span in self.named("newton_solve"))

    def slowest_defects(self, limit: int = TOP_N) -> List[Dict[str, Any]]:
        defects = sorted(self.named("defect"),
                         key=lambda s: s.get("duration_s") or 0.0,
                         reverse=True)
        return defects[:limit]

    def slowest_defect_name(self) -> Optional[str]:
        slowest = self.slowest_defects(limit=1)
        if not slowest:
            return None
        return slowest[0]["attrs"].get("defect")

    def verdict_counts(self) -> Dict[str, Dict[str, int]]:
        """oracle → verdict → count over every defect span."""
        counts: Dict[str, Dict[str, int]] = {}
        for span in self.named("defect"):
            for oracle, verdict in span["attrs"].get("verdicts",
                                                     {}).items():
                row = counts.setdefault(oracle, {})
                row[verdict] = row.get(verdict, 0) + 1
        return counts

    def phase_breakdown(self) -> List[Dict[str, Any]]:
        """Per span-name totals: count, total and mean duration.

        Durations overlap hierarchically (a campaign span contains its
        defects), so rows answer "how long did we spend inside spans of
        this name", not a partition of wall time.
        """
        by_name: Dict[str, List[float]] = {}
        for span in self.spans:
            by_name.setdefault(span["name"], []).append(
                span.get("duration_s") or 0.0)
        rows = []
        for name, durations in sorted(by_name.items(),
                                      key=lambda kv: -sum(kv[1])):
            total = sum(durations)
            rows.append({"name": name, "count": len(durations),
                         "total_s": total,
                         "mean_s": total / len(durations)})
        return rows

    def quarantined_defects(self) -> List[Dict[str, Any]]:
        """Defect spans the campaign quarantined (with their reasons).

        These defects never produced a converged solve: the solver's
        degradation ladder (low-rank → warm full → escalated cold retry) ran
        dry, the worker crashed, or it hung past the liveness timeout.
        """
        return [span for span in self.named("defect")
                if span["attrs"].get("quarantined")]

    def resumed_count(self) -> int:
        """Defects restored from a checkpoint instead of re-solved."""
        return sum(span["attrs"].get("n_resumed", 0)
                   for span in self.named("campaign"))

    def verification_summary(self) -> Optional[Dict[str, Any]]:
        """Aggregates of the differential-verification fuzz runs in the
        trace (``repro.verify`` spans/counters), or ``None`` if the
        trace holds no verify session."""
        sessions = self.named("verify")
        scenarios = self.metrics.counter_value("verify.scenarios")
        if not sessions and not scenarios:
            return None
        return {
            "sessions": len(sessions),
            "wall_s": sum(s.get("duration_s") or 0.0 for s in sessions),
            "scenarios": scenarios,
            "engine_pairs": self.metrics.counter_value(
                "verify.engine_pairs"),
            "checks": self.metrics.counter_value("verify.checks"),
            "disagreements": self.metrics.counter_value(
                "verify.disagreements"),
            "shrinks": len(self.named("verify.shrink")),
        }

    def service_summary(self) -> Optional[Dict[str, Any]]:
        """Campaign-service activity in the trace (``service.job`` spans
        plus the ``service.*`` counters/gauges), or ``None`` when the
        trace holds no service jobs."""
        jobs = self.named("service.job")
        submitted = self.metrics.counter_value("service.jobs_submitted")
        if not jobs and not submitted:
            return None
        gauges = self.metrics.snapshot().get("gauges", {})
        return {
            "jobs": len(jobs) or submitted,
            "completed": self.metrics.counter_value(
                "service.jobs_completed"),
            "failed": self.metrics.counter_value("service.jobs_failed"),
            "wall_s": sum(s.get("duration_s") or 0.0 for s in jobs),
            "queue_depth": gauges.get("service.queue_depth", 0),
        }

    def store_summary(self) -> Optional[Dict[str, Any]]:
        """Result-store traffic (``campaign.store_*`` counters), or
        ``None`` when no store-backed campaign appears in the trace."""
        hits = self.metrics.counter_value("campaign.store_hits")
        misses = self.metrics.counter_value("campaign.store_misses")
        puts = self.metrics.counter_value("campaign.store_puts")
        if not (hits or misses or puts):
            return None
        lookups = hits + misses
        return {"hits": hits, "misses": misses, "puts": puts,
                "hit_rate": hits / lookups if lookups else 0.0}

    def mna_cache_summary(self) -> Optional[Dict[str, Any]]:
        """Campaign-wide MNA structure-cache activity, summed over every
        campaign span's ``mna_cache_delta`` (parent and worker processes
        both included since the deltas are merged at record time)."""
        totals: Dict[str, int] = {}
        seen = False
        for span in self.named("campaign"):
            delta = span["attrs"].get("mna_cache_delta")
            if not delta:
                continue
            seen = True
            for key, value in delta.items():
                totals[key] = totals.get(key, 0) + value
        return totals if seen else None

    def convergence_outliers(self, limit: int = TOP_N
                             ) -> List[Dict[str, Any]]:
        """Non-converged defects first, then the highest-iteration ones."""
        defects = self.named("defect")
        failed = [s for s in defects
                  if s["attrs"].get("converged") is False]
        converged = [s for s in defects
                     if s["attrs"].get("converged") is not False]
        converged.sort(key=lambda s: s["attrs"].get("newton_iterations", 0),
                       reverse=True)
        return (failed + converged)[:limit]

    def hotspots(self, limit: int = HOTSPOT_TOP_N) -> List[Dict[str, Any]]:
        """Per-function self/total seconds from the trace's ``profile``
        events (see :func:`~repro.telemetry.profile.aggregate_hotspots`),
        empty when the run was not profiled."""
        return aggregate_hotspots(self.profiles, limit=limit)

    def histogram_quantiles(self) -> List[Dict[str, Any]]:
        """One row per histogram instrument: count, mean, p50/p95/p99,
        max — the latency-distribution view of the run."""
        rows = []
        histograms = self.metrics.snapshot().get("histograms", {})
        for name in sorted(histograms):
            summary = histograms[name]
            rows.append({
                "name": name,
                "count": summary.get("count", 0),
                "mean": summary.get("mean", 0.0),
                "p50": summary.get("p50"),
                "p95": summary.get("p95"),
                "p99": summary.get("p99"),
                "max": summary.get("max"),
            })
        return rows

    # -- rendering -------------------------------------------------------

    def render(self, markdown: bool = False) -> str:
        sections: List[str] = []
        heading = "# Run report" if markdown else "Run report"
        campaigns = self.named("campaign")
        wall = sum(s.get("duration_s") or 0.0 for s in campaigns)
        summary = [f"spans: {len(self.spans)}",
                   f"total newton iterations: "
                   f"{self.total_newton_iterations()}"]
        if campaigns:
            summary.insert(0, f"campaign wall time: {wall:.4g} s")
        quarantined = self.quarantined_defects()
        if quarantined:
            summary.append(f"quarantined defects: {len(quarantined)}")
        resumed = self.resumed_count()
        if resumed:
            summary.append(f"resumed from checkpoint: {resumed}")
        sections.append(heading + "\n" + "\n".join(
            ("- " if markdown else "  ") + line for line in summary))

        phase_rows = [[r["name"], r["count"], r["total_s"], r["mean_s"]]
                      for r in self.phase_breakdown()]
        if phase_rows:
            sections.append(_table(
                ["phase", "count", "total (s)", "mean (s)"], phase_rows,
                "Per-phase time breakdown", markdown))

        hotspot_rows = [[r["function"], r["self_s"], r["total_s"],
                         f"{r['self_pct']:.1f}%"]
                        for r in self.hotspots()]
        if hotspot_rows:
            samples = sum(e.get("n_samples", 0) for e in self.profiles)
            sections.append(_table(
                ["function", "self (s)", "total (s)", "self %"],
                hotspot_rows,
                f"Profiler hotspots ({samples} samples)", markdown))

        slow_rows = [[s["attrs"].get("defect", "?"),
                      s["attrs"].get("solver", "-"),
                      s["attrs"].get("newton_iterations", 0),
                      s.get("duration_s")]
                     for s in self.slowest_defects()]
        if slow_rows:
            sections.append(_table(
                ["defect", "solver", "NR iters", "wall (s)"], slow_rows,
                "Slowest defects", markdown))

        outlier_rows = [[s["attrs"].get("defect", "?"),
                         "no" if s["attrs"].get("converged") is False
                         else "yes",
                         s["attrs"].get("newton_iterations", 0)]
                        for s in self.convergence_outliers()]
        if outlier_rows:
            sections.append(_table(
                ["defect", "converged", "NR iters"], outlier_rows,
                "Convergence outliers", markdown))

        quarantine_rows = [[s["attrs"].get("defect", "?"),
                            s["attrs"].get("kind", "?"),
                            s["attrs"].get("quarantine_reason", "-")]
                           for s in quarantined]
        if quarantine_rows:
            sections.append(_table(
                ["defect", "kind", "reason"], quarantine_rows,
                "Quarantined defects", markdown))

        verification = self.verification_summary()
        if verification:
            sections.append(_table(
                ["sessions", "wall (s)", "scenarios", "engine pairs",
                 "checks", "disagreements", "shrinks"],
                [[verification["sessions"], verification["wall_s"],
                  verification["scenarios"],
                  verification["engine_pairs"], verification["checks"],
                  verification["disagreements"],
                  verification["shrinks"]]],
                "Differential verification", markdown))

        service = self.service_summary()
        if service:
            sections.append(_table(
                ["jobs", "completed", "failed", "wall (s)", "queue depth"],
                [[service["jobs"], service["completed"], service["failed"],
                  service["wall_s"], service["queue_depth"]]],
                "Campaign service", markdown))

        store = self.store_summary()
        if store:
            sections.append(_table(
                ["hits", "misses", "puts", "hit rate"],
                [[store["hits"], store["misses"], store["puts"],
                  f"{store['hit_rate']:.1%}"]],
                "Result store", markdown))

        mna_cache = self.mna_cache_summary()
        if mna_cache:
            sections.append(_table(
                ["structure hits", "structure misses", "compiled builds"],
                [[mna_cache.get("structure_hits", 0),
                  mna_cache.get("structure_misses", 0),
                  mna_cache.get("compiled_builds", 0)]],
                "MNA structure cache (all processes)", markdown))

        verdicts = self.verdict_counts()
        if verdicts:
            states = sorted({state for row in verdicts.values()
                             for state in row})
            verdict_rows = [[oracle] + [row.get(state, 0)
                                        for state in states]
                            for oracle, row in sorted(verdicts.items())]
            sections.append(_table(["oracle"] + states, verdict_rows,
                                   "Detector verdicts", markdown))

        quantile_rows = [[r["name"], r["count"], r["mean"], r["p50"],
                          r["p95"], r["p99"], r["max"]]
                         for r in self.histogram_quantiles()
                         if r["count"]]
        if quantile_rows:
            sections.append(_table(
                ["histogram", "count", "mean", "p50", "p95", "p99", "max"],
                quantile_rows, "Histogram quantiles", markdown))

        counters = self.metrics.snapshot()["counters"]
        if counters:
            counter_rows = [[name, value]
                            for name, value in sorted(counters.items())]
            sections.append(_table(["counter", "value"], counter_rows,
                                   "Solver counters", markdown))
        return "\n\n".join(sections) + "\n"
