"""Observability layer: trace propagation, exporters, profiler, CLI.

Acceptance for the cross-process observability features: trace ids
minted at the root survive through worker envelopes so every event of a
parallel campaign carries them; ``Tracer.ingest`` handles empty, nested
and torn inputs; histograms answer quantiles within the sketch's
relative-error bound; the Chrome/Perfetto and Prometheus exporters
round-trip; the sampling profiler attributes self/total time sanely;
and the CLI front ends (``report``, ``trace``) drive it all.
"""

import asyncio
import json
from dataclasses import replace

import pytest

from repro.cml import NOMINAL, buffer_chain
from repro.dft import build_shared_monitor
from repro.faults import LogicOracle, enumerate_defects, run_campaign
from repro.sim.options import DEFAULT_OPTIONS
from repro.telemetry import (
    DEFAULT_INTERVAL_S,
    MetricsRegistry,
    RunReport,
    SamplingProfiler,
    Telemetry,
    TraceContext,
    Tracer,
    aggregate_hotspots,
    chrome_trace_events,
    collapsed_stacks,
    export_trace,
    new_trace_id,
    parse_prometheus,
    profiler_for,
    prometheus_exposition,
    read_jsonl,
    write_chrome_trace,
)
from repro.telemetry.sinks import InMemorySink


def _capturing_tracer(context=None):
    sink = InMemorySink()
    tracer = Tracer([sink], context=context)
    return tracer, sink.events


# -- trace context propagation -------------------------------------------

class TestTraceContext:
    def test_root_tracer_mints_a_trace_id(self):
        tracer, events = _capturing_tracer()
        with tracer.span("root"):
            pass
        assert len(tracer.trace_id) == 16
        assert events[0]["trace_id"] == tracer.trace_id
        assert events[0]["parent_id"] is None

    def test_child_tracer_joins_the_parents_trace(self):
        parent, parent_events = _capturing_tracer()
        with parent.span("campaign") as span:
            context = parent.context(span)
        child, child_events = _capturing_tracer(context=context)
        with child.span("defect"):
            pass
        assert child.trace_id == parent.trace_id
        assert child_events[0]["trace_id"] == parent.trace_id
        assert child_events[0]["parent_id"] == span.span_id

    def test_context_defaults_to_innermost_open_span(self):
        tracer, _ = _capturing_tracer()
        with tracer.span("outer"):
            with tracer.span("inner") as inner:
                context = tracer.context()
        assert context == TraceContext(tracer.trace_id, inner.span_id)

    def test_context_is_picklable(self):
        import pickle

        context = TraceContext(new_trace_id(), "abc-1")
        assert pickle.loads(pickle.dumps(context)) == context

    def test_same_trace_events_pass_through_ingest_verbatim(self):
        parent, parent_events = _capturing_tracer()
        with parent.span("campaign") as span:
            context = parent.context(span)
        child, child_events = _capturing_tracer(context=context)
        with child.span("defect", name_hint="R1"):
            with child.span("analysis"):
                pass
        parent.ingest(child_events)
        ingested = parent_events[1:]
        assert ingested == child_events
        span_ids = {e["span_id"] for e in parent_events}
        assert len(span_ids) == 3  # no collisions across tracers


class TestIngestEdgeCases:
    def test_empty_worker_trace_is_a_no_op(self):
        tracer, events = _capturing_tracer()
        tracer.ingest([])
        assert events == []

    def test_legacy_events_are_remapped_and_reparented(self):
        parent, events = _capturing_tracer()
        with parent.span("campaign") as span:
            parent.ingest(
                [{"type": "span", "name": "w", "span_id": 1,
                  "parent_id": None, "attrs": {}}],
                parent_id=span.span_id)
        worker = events[0]
        assert worker["parent_id"] == span.span_id
        assert worker["trace_id"] == parent.trace_id
        assert worker["span_id"] != 1

    def test_deeply_nested_legacy_trace_preserves_depth(self):
        depth = 50
        legacy = [{"type": "span", "name": f"level{i}", "span_id": i,
                   "parent_id": i - 1 if i else None, "attrs": {}}
                  for i in range(depth)]
        parent, events = _capturing_tracer()
        with parent.span("campaign") as span:
            parent.ingest(legacy, parent_id=span.span_id)
        ingested = events[:depth]
        by_id = {e["span_id"]: e for e in ingested}
        # Walk leaf → root: the chain must still be `depth` levels deep
        # and terminate at the campaign span.
        node = next(e for e in ingested if e["name"] == f"level{depth - 1}")
        hops = 0
        while node["parent_id"] != span.span_id:
            node = by_id[node["parent_id"]]
            hops += 1
        assert hops == depth - 1
        assert all(e["trace_id"] == parent.trace_id for e in ingested)

    def test_non_span_events_pass_through(self):
        tracer, events = _capturing_tracer()
        profile = {"type": "profile", "n_samples": 3, "stacks": []}
        tracer.ingest([profile])
        assert events == [profile]


class TestTornJsonl:
    def test_read_jsonl_skips_torn_and_garbage_tails(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_text('{"type": "span", "name": "ok", "span_id": "a-1",'
                        ' "parent_id": null, "t_start": 1.0,'
                        ' "duration_s": 0.5, "attrs": {}}\n'
                        '[1, 2, 3]\n'
                        '{"type": "span", "name": "tor')
        events = read_jsonl(str(path))
        assert [e["name"] for e in events] == ["ok"]
        with pytest.raises(ValueError):
            read_jsonl(str(path), strict=True)

    def test_report_from_torn_jsonl(self, tmp_path):
        tel = Telemetry.to_jsonl(str(tmp_path / "trace.jsonl"))
        with tel.span("campaign", n_defects=0):
            pass
        tel.close()
        with open(tmp_path / "trace.jsonl", "a") as handle:
            handle.write('{"type": "span", "name": "torn-off-mid-wr')
        report = RunReport.from_jsonl(str(tmp_path / "trace.jsonl"))
        assert len(report.named("campaign")) == 1


# -- histogram quantiles -------------------------------------------------

class TestHistogramQuantiles:
    def test_quantiles_within_sketch_error(self):
        registry = MetricsRegistry()
        h = registry.histogram("latency")
        for value in range(1, 101):
            h.observe(float(value))
        for q, expect in ((0.50, 50.0), (0.95, 95.0), (0.99, 99.0)):
            assert h.quantile(q) == pytest.approx(expect, rel=0.10)
        assert h.quantile(0.0) == 1.0
        assert h.quantile(1.0) == 100.0

    def test_nonpositive_values_sort_below_the_buckets(self):
        h = MetricsRegistry().histogram("signed")
        for value in (-1.0, 0.0, 10.0, 20.0):
            h.observe(value)
        assert h.quantile(0.25) <= 0.0
        assert h.quantile(1.0) == 20.0

    def test_split_merge_equals_single_registry(self):
        whole = MetricsRegistry()
        left, right = MetricsRegistry(), MetricsRegistry()
        for i in range(40):
            value = 0.5 + i * 0.37
            whole.histogram("h").observe(value)
            (left if i % 2 else right).histogram("h").observe(value)
        merged = MetricsRegistry()
        merged.merge(left.snapshot())
        merged.merge(right.snapshot())
        assert merged.snapshot() == whole.snapshot()

    def test_summary_carries_quantile_keys(self):
        h = MetricsRegistry().histogram("h")
        h.observe(2.0)
        summary = h.summary()
        assert {"p50", "p95", "p99"} <= set(summary)
        assert summary["p50"] == 2.0


# -- exporters -----------------------------------------------------------

class TestChromeExport:
    def _events(self):
        tracer, events = _capturing_tracer()
        with tracer.span("campaign", n_defects=2):
            with tracer.span("defect", defect="R1"):
                pass
        return events, tracer

    def test_spans_become_complete_events(self):
        events, tracer = self._events()
        chrome = chrome_trace_events(events)
        assert len(chrome) == 2
        assert all(e["ph"] == "X" for e in chrome)
        assert all(e["dur"] >= 0 for e in chrome)
        assert min(e["ts"] for e in chrome) == 0.0
        by_name = {e["name"]: e for e in chrome}
        assert by_name["defect"]["args"]["defect"] == "R1"
        assert by_name["defect"]["args"]["trace_id"] == tracer.trace_id

    def test_non_spans_are_skipped_and_file_round_trips(self, tmp_path):
        events, _ = self._events()
        events = events + [{"type": "metrics"}, {"type": "profile"}]
        path = tmp_path / "trace.json"
        assert write_chrome_trace(events, str(path)) == 2
        document = json.loads(path.read_text())
        assert document["displayTimeUnit"] == "ms"
        assert [e["name"] for e in document["traceEvents"]] == \
            ["defect", "campaign"]

    def test_export_trace_dispatch(self, tmp_path):
        events, _ = self._events()
        assert export_trace(events, str(tmp_path / "t.json"),
                            fmt="chrome") == 2
        with pytest.raises(ValueError, match="unknown trace export"):
            export_trace(events, str(tmp_path / "t.x"), fmt="svg")


class TestPrometheus:
    def _registry(self):
        registry = MetricsRegistry()
        registry.counter("solver.newton_solves").add(7)
        registry.gauge("service.queue_depth").set(3)
        h = registry.histogram("service.job_wall_s")
        for value in (0.5, 1.0, 2.0):
            h.observe(value)
        return registry

    def test_round_trip(self):
        text = prometheus_exposition(self._registry())
        samples = parse_prometheus(text)
        assert samples["repro_solver_newton_solves"] == 7
        assert samples["repro_service_queue_depth"] == 3
        assert samples["repro_service_job_wall_s_count"] == 3
        assert samples["repro_service_job_wall_s_sum"] == \
            pytest.approx(3.5)
        assert 'repro_service_job_wall_s{quantile="0.5"}' in samples
        assert 'repro_service_job_wall_s{quantile="0.99"}' in samples

    def test_names_are_sanitized(self):
        registry = MetricsRegistry()
        registry.counter("weird metric-name!").add(1)
        text = prometheus_exposition(registry)
        assert parse_prometheus(text)["repro_weird_metric_name_"] == 1

    def test_snapshot_dict_is_accepted(self):
        snapshot = self._registry().snapshot()
        assert prometheus_exposition(snapshot) == \
            prometheus_exposition(self._registry())

    def test_parser_rejects_garbage(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_prometheus("this is not an exposition\n")
        assert parse_prometheus("# just a comment\n\n") == {}


# -- sampling profiler ---------------------------------------------------

def _busy_wait(seconds):
    import time
    deadline = time.perf_counter() + seconds
    total = 0.0
    while time.perf_counter() < deadline:
        total += sum(i * i for i in range(200))
    return total


class TestSamplingProfiler:
    def test_samples_a_busy_function(self):
        with SamplingProfiler(interval_s=0.001) as profiler:
            _busy_wait(0.15)
        assert profiler.n_samples > 0
        assert profiler.wall_s > 0.1
        frames = {frame for stack in profiler.stacks() for frame in stack}
        assert any("_busy_wait" in frame for frame in frames)

    def test_event_and_hotspots(self):
        with SamplingProfiler(interval_s=0.001) as profiler:
            _busy_wait(0.15)
        event = profiler.to_event(span_id="a-1", trace_id="t")
        assert event["type"] == "profile"
        assert event["span_id"] == "a-1"
        assert event["n_samples"] == \
            sum(s["count"] for s in event["stacks"])
        rows = aggregate_hotspots([event])
        assert rows
        self_total = sum(row["self_s"] for row in rows)
        assert 0.0 < self_total <= profiler.wall_s + profiler.interval_s
        assert all(row["total_s"] >= row["self_s"] - 1e-9 for row in rows)
        assert sum(row["self_pct"] for row in rows) == \
            pytest.approx(100.0, abs=1.0)

    def test_collapsed_stacks_from_profile_event(self):
        event = {"type": "profile", "interval_s": 0.001,
                 "stacks": [{"frames": ["m.a", "m.b"], "count": 3},
                            {"frames": ["m.a"], "count": 5}]}
        assert collapsed_stacks([event, dict(event)]) == \
            [("m.a", 10), ("m.a;m.b", 6)]

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            SamplingProfiler(interval_s=0.0)


class TestProfilerFor:
    def test_env_values(self, monkeypatch):
        for raw, expect in (("1", DEFAULT_INTERVAL_S),
                            ("0.002", 0.002),
                            ("yes", DEFAULT_INTERVAL_S)):
            monkeypatch.setenv("REPRO_PROFILE", raw)
            profiler = profiler_for()
            assert profiler is not None and profiler.interval_s == expect
        for raw in ("", "0", "false", "off", "no"):
            monkeypatch.setenv("REPRO_PROFILE", raw)
            assert profiler_for() is None


# -- traced + profiled campaigns -----------------------------------------

@pytest.fixture(scope="module")
def small_campaign():
    chain = buffer_chain(NOMINAL, n_stages=2, frequency=100e6)
    build_shared_monitor(chain.circuit, chain.output_nets, tech=NOMINAL)
    oracles = [LogicOracle(chain.output_nets)]
    defects = list(enumerate_defects(chain.circuit, kinds=("pipe",),
                                     pipe_resistances=(4e3,)))[:4]
    return chain, oracles, defects


class TestCampaignObservability:
    def test_parallel_events_all_carry_the_root_trace_id(
            self, small_campaign):
        chain, oracles, defects = small_campaign
        tel = Telemetry.capturing()
        options = replace(DEFAULT_OPTIONS, telemetry=tel)
        run_campaign(chain.circuit, defects, oracles, options=options,
                     parallel=True, workers=2)
        tel.flush_metrics()
        events = tel.events()
        assert len(events) > len(defects)
        assert all(e.get("trace_id") == tel.tracer.trace_id
                   for e in events if e.get("type") != "meta")

    def test_profiled_campaign_emits_profile_event(self, small_campaign,
                                                   monkeypatch):
        chain, oracles, defects = small_campaign
        monkeypatch.setenv("REPRO_PROFILE", "0.001")
        tel = Telemetry.capturing()
        options = replace(DEFAULT_OPTIONS, telemetry=tel)
        run_campaign(chain.circuit, defects, oracles, options=options)
        profiles = [e for e in tel.events() if e.get("type") == "profile"]
        assert len(profiles) == 1
        campaign = [e for e in tel.events()
                    if e.get("type") == "span"
                    and e.get("name") == "campaign"]
        assert profiles[0]["span_id"] == campaign[0]["span_id"]
        assert profiles[0]["trace_id"] == tel.tracer.trace_id
        report = RunReport.from_events(tel.events())
        if profiles[0]["n_samples"]:
            assert "Profiler hotspots" in report.render()
            assert report.hotspots()

    def test_report_renders_histogram_quantiles(self, small_campaign):
        chain, oracles, defects = small_campaign
        tel = Telemetry.capturing()
        options = replace(DEFAULT_OPTIONS, telemetry=tel)
        run_campaign(chain.circuit, defects, oracles, options=options)
        tel.flush_metrics()
        report = RunReport.from_events(tel.events())
        rows = report.histogram_quantiles()
        assert any(row["name"] == "newton.iterations_per_solve"
                   for row in rows)
        assert "Histogram quantiles" in report.render()


# -- service scrape + dashboards -----------------------------------------

class TestServiceExposition:
    def test_stats_op_serves_parseable_exposition(self, tmp_path):
        from repro.service import CampaignService, JobSpec, \
            submit_and_stream

        async def scenario():
            service = CampaignService(store=str(tmp_path / "store"),
                                      workers=1)
            server = await service.serve(port=0)
            host, port = server.sockets[0].getsockname()[:2]
            try:
                spec = JobSpec(stages=2, kinds=("pipe",),
                               pipe_resistances=(4e3,), limit=3)
                events = await submit_and_stream(host, port, spec)
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b'{"op": "stats"}\n')
                await writer.drain()
                stats = json.loads(await reader.readline())
                writer.close()
            finally:
                server.close()
                await server.wait_closed()
            return service, events, stats

        service, events, stats = asyncio.run(scenario())
        trace_id = service.telemetry.tracer.trace_id
        accepted = [e for e in events if e["event"] == "accepted"]
        done = [e for e in events if e["event"] == "done"]
        assert accepted[0]["trace_id"] == trace_id
        assert done[0]["trace_id"] == trace_id
        assert stats["event"] == "stats"
        assert stats["trace_id"] == trace_id
        assert stats["jobs_completed"] == 1
        assert stats["defects_total"] == 3
        assert stats["uptime_s"] >= 0.0
        samples = parse_prometheus(stats["exposition"])
        assert samples["repro_service_jobs_submitted"] == 1
        assert samples["repro_service_jobs_completed"] == 1
        assert 'repro_service_job_wall_s{quantile="0.5"}' in samples
        assert "repro_service_job_wall_s_count" in samples


# -- CLI front ends ------------------------------------------------------

class TestCli:
    @pytest.fixture()
    def trace_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tel = Telemetry.to_jsonl(str(path))
        with SamplingProfiler(interval_s=0.001) as profiler:
            with tel.span("campaign", n_defects=1) as span:
                with tel.span("defect", defect="R1"):
                    _busy_wait(0.05)
        tel.tracer.emit(profiler.to_event(span_id=span.span_id,
                                          trace_id=tel.tracer.trace_id))
        tel.flush_metrics()
        tel.close()
        return path

    def test_report_subcommand(self, trace_file, capsys):
        from repro.__main__ import main
        assert main(["report", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "campaign" in out
        assert main(["report", str(trace_file), "--markdown"]) == 0

    def test_trace_export_chrome(self, trace_file, tmp_path, capsys):
        from repro.__main__ import main
        out_path = tmp_path / "perfetto.json"
        assert main(["trace", "export", str(trace_file),
                     "-o", str(out_path)]) == 0
        assert "wrote 2 span(s)" in capsys.readouterr().out
        document = json.loads(out_path.read_text())
        assert len(document["traceEvents"]) == 2

    def test_trace_export_collapsed(self, trace_file, tmp_path, capsys):
        from repro.__main__ import main
        out_path = tmp_path / "stacks.txt"
        assert main(["trace", "export", str(trace_file),
                     "-o", str(out_path), "--format", "collapsed"]) == 0
        assert "stack line(s)" in capsys.readouterr().out
        text = out_path.read_text()
        for line in text.splitlines():
            stack, count = line.rsplit(" ", 1)
            assert int(count) >= 1 and stack
