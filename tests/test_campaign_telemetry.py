"""Integration tests: telemetry threaded through the simulation stack.

Covers the acceptance criteria of the observability layer: a traced
campaign's JSONL reconstructs the full ``campaign → defect → analysis →
newton_solve`` hierarchy, serial and parallel campaigns report identical
aggregates and metrics, the progress callback fires on both paths, and
the satellite entry points (transient, DFT insertion, logic fault
simulation) each produce their spans.
"""

from dataclasses import replace

import pytest

from repro.circuit import Capacitor, Circuit, Pulse, Resistor, VoltageSource
from repro.cml import NOMINAL, buffer_chain
from repro.dft import build_shared_monitor
from repro.dft.insertion import instrument_chain
from repro.faults import (
    FlagOracle,
    IddqOracle,
    LogicOracle,
    enumerate_defects,
    run_campaign,
)
from repro.sim import SimOptions, transient
from repro.sim.options import DEFAULT_OPTIONS
from repro.telemetry import RunReport, Telemetry, read_jsonl
from repro.testgen import exhaustive_vectors, fault_simulate, full_adder


@pytest.fixture(scope="module")
def campaign_setup():
    chain = buffer_chain(NOMINAL, n_stages=3, frequency=100e6)
    monitor = build_shared_monitor(chain.circuit, chain.output_nets,
                                   tech=NOMINAL)
    oracles = [
        LogicOracle(chain.output_nets),
        FlagOracle(monitor.nets.flag, monitor.nets.flagb),
        IddqOracle(),
    ]
    defects = list(enumerate_defects(chain.circuit, kinds=("pipe",),
                                     pipe_resistances=(4e3,)))[:6]
    return chain, oracles, defects


def _traced_campaign(campaign_setup, **kwargs):
    chain, oracles, defects = campaign_setup
    tel = Telemetry.capturing()
    options = replace(DEFAULT_OPTIONS, telemetry=tel)
    result = run_campaign(chain.circuit, defects, oracles, options=options,
                          **kwargs)
    return result, tel


def _assert_full_hierarchy(report, n_defects):
    campaigns = report.named("campaign")
    assert len(campaigns) == 1
    campaign = campaigns[0]
    defect_spans = report.named("defect")
    assert len(defect_spans) == n_defects
    assert all(d["parent_id"] == campaign["span_id"] for d in defect_spans)
    for defect_span in defect_spans:
        analyses = report.children_of(defect_span)
        assert analyses, "defect span has no analysis child"
        assert all(a["name"] == "analysis" for a in analyses)
        solves = report.children_of(analyses[0])
        assert solves, "analysis span has no newton_solve child"
        assert all(s["name"] == "newton_solve" for s in solves)
    # The fault-free reference analysis nests under the campaign too.
    reference = [a for a in report.named("analysis")
                 if a["parent_id"] == campaign["span_id"]]
    assert reference


class TestCampaignTracing:
    def test_serial_trace_hierarchy(self, campaign_setup):
        result, tel = _traced_campaign(campaign_setup)
        report = RunReport.from_telemetry(tel)
        _assert_full_hierarchy(report, len(result.records))

    def test_parallel_trace_hierarchy_after_merge(self, campaign_setup):
        result, tel = _traced_campaign(campaign_setup, parallel=True,
                                       workers=2, chunk_size=2)
        report = RunReport.from_telemetry(tel)
        _assert_full_hierarchy(report, len(result.records))

    def test_repro_trace_env_writes_reconstructible_jsonl(
            self, campaign_setup, tmp_path, monkeypatch):
        chain, oracles, defects = campaign_setup
        path = tmp_path / "campaign.jsonl"
        monkeypatch.setenv("REPRO_TRACE", str(path))
        result = run_campaign(chain.circuit, defects, oracles,
                              parallel=True, workers=2)
        events = read_jsonl(str(path))
        assert events[0] == {"type": "meta", "schema": 1,
                             "pid": events[0]["pid"]}
        report = RunReport.from_events(events)
        _assert_full_hierarchy(report, len(result.records))
        assert report.metrics.counter_value("campaign.defects") == \
            len(result.records)

    def test_campaign_span_attrs(self, campaign_setup):
        result, tel = _traced_campaign(campaign_setup)
        report = RunReport.from_telemetry(tel)
        attrs = report.named("campaign")[0]["attrs"]
        assert attrs["n_defects"] == len(result.records)
        assert attrs["oracles"] == ["logic", "detector", "iddq"]
        assert attrs["n_converged"] == sum(
            1 for r in result.records if r.converged)
        assert attrs["solver_counts"] == result.solver_counts()
        assert attrs["newton_iterations"] == \
            result.aggregate_stats().iterations
        assert set(attrs["mna_cache_delta"]) == {
            "structure_hits", "structure_misses", "compiled_builds"}

    def test_report_names_slowest_defect_and_iterations(self,
                                                        campaign_setup):
        result, tel = _traced_campaign(campaign_setup)
        report = RunReport.from_telemetry(tel)
        slowest = report.slowest_defect_name()
        assert slowest in {r.defect.describe() for r in result.records}
        # The registry total also counts the fault-free reference solve,
        # which the per-record aggregate does not.
        campaign = report.named("campaign")[0]
        reference = [a for a in report.named("analysis")
                     if a["parent_id"] == campaign["span_id"]]
        total = (result.aggregate_stats().iterations
                 + sum(a["attrs"]["iterations"] for a in reference))
        assert report.total_newton_iterations() == total
        rendered = report.render()
        assert slowest in rendered
        assert f"total newton iterations: {total}" in rendered


class TestSerialParallelEquality:
    @pytest.mark.parametrize("low_rank", [False, True])
    def test_aggregates_and_metrics_match(self, campaign_setup, low_rank):
        # Batches of two make three low-rank units, so with two defects
        # per chunk three chunks reach the worker pool either way.
        engine = dict(low_rank=True, batch_size=2) if low_rank else {}
        serial, tel_s = _traced_campaign(campaign_setup, **engine)
        parallel, tel_p = _traced_campaign(campaign_setup, **engine,
                                           parallel=True, workers=2,
                                           chunk_size=2)
        assert serial.aggregate_stats() == parallel.aggregate_stats()
        for a, b in zip(serial.records, parallel.records):
            assert a.verdicts == b.verdicts
            assert a.solver == b.solver
            assert a.newton_iterations == b.newton_iterations
        for counter in ("n_batched_solves", "batch_occupancy",
                        "batch_fallbacks"):
            assert getattr(serial, counter) == getattr(parallel, counter)
        assert (serial.n_batched_solves > 0) == low_rank
        assert tel_s.metrics.snapshot() == tel_p.metrics.snapshot()

    def test_aggregates_match_untraced(self, campaign_setup):
        chain, oracles, defects = campaign_setup
        serial = run_campaign(chain.circuit, defects, oracles)
        parallel = run_campaign(chain.circuit, defects, oracles,
                                parallel=True, workers=2, chunk_size=2)
        assert serial.aggregate_stats() == parallel.aggregate_stats()

    def test_aggregate_stats_reports_like_newtonstats(self, campaign_setup):
        from repro.sim.report import solver_stats_report

        result, _ = _traced_campaign(campaign_setup)
        line = solver_stats_report(result.aggregate_stats())
        assert line.startswith("strategy=campaign ")
        assert f"iterations={result.aggregate_stats().iterations}" in line


class TestProgressCallback:
    def test_serial_progress(self, campaign_setup):
        chain, oracles, defects = campaign_setup
        calls = []
        run_campaign(chain.circuit, defects, oracles,
                     progress=lambda d, t, e: calls.append((d, t, e)))
        assert [c[0] for c in calls] == list(range(1, len(defects) + 1))
        assert all(t == len(defects) for _, t, _ in calls)
        assert all(e >= 0 for _, _, e in calls)

    def test_parallel_progress_reaches_total(self, campaign_setup):
        chain, oracles, defects = campaign_setup
        calls = []
        run_campaign(chain.circuit, defects, oracles, parallel=True,
                     workers=2, chunk_size=2,
                     progress=lambda d, t, e: calls.append((d, t, e)))
        assert calls, "progress never fired on the parallel path"
        done_counts = [d for d, _, _ in calls]
        assert done_counts == sorted(done_counts)
        assert done_counts[-1] == len(defects)


def _rc_circuit():
    circuit = Circuit("rc")
    circuit.add(VoltageSource("V1", "in", "0",
                              Pulse(0.0, 1.0, delay=0.0, rise=1e-12,
                                    fall=1e-12, width=1.0, period=0.0)))
    circuit.add(Resistor("R1", "in", "out", 1000.0))
    circuit.add(Capacitor("C1", "out", "0", 1e-9))
    return circuit


class TestOtherEntryPoints:
    def test_transient_analysis_span(self):
        tel = Telemetry.capturing()
        options = SimOptions(telemetry=tel)
        result = transient(_rc_circuit(), t_stop=1e-7, dt=1e-9,
                           options=options)
        spans = [e for e in tel.events() if e.get("type") == "span"]
        analysis = [s for s in spans if s["name"] == "analysis"
                    and s["attrs"].get("kind") == "transient"]
        assert len(analysis) == 1
        attrs = analysis[0]["attrs"]
        assert attrs["timepoints"] == len(result.times)
        assert attrs["rejected_steps"] == result.stats.n_rejected_steps
        # The initial operating point traces as a nested DC analysis.
        dc = [s for s in spans if s["attrs"].get("kind") == "dc"]
        assert dc and dc[0]["parent_id"] == analysis[0]["span_id"]

    def test_adaptive_transient_rejection_histogram(self):
        tel = Telemetry.capturing()
        options = SimOptions(telemetry=tel, adaptive_step=True)
        result = transient(_rc_circuit(), t_stop=2e-6, dt=1e-9,
                           options=options)
        histo = tel.metrics.histogram("transient.rejected_dt")
        assert histo.count == result.stats.n_rejected_steps

    def test_dft_insertion_span(self):
        tel = Telemetry.capturing()
        chain = buffer_chain(NOMINAL, n_stages=3, frequency=100e6)
        design = instrument_chain(chain, telemetry=tel)
        spans = [e for e in tel.events()
                 if e.get("name") == "dft_insertion"]
        assert len(spans) == 1
        attrs = spans[0]["attrs"]
        assert attrs["n_pairs"] == len(chain.output_nets)
        assert attrs["n_monitors"] == len(design.monitors)
        assert attrs["n_monitored_gates"] == design.n_monitored_gates

    def test_logic_fault_sim_span_and_counters(self):
        tel = Telemetry.capturing()
        network = full_adder()
        vectors = list(exhaustive_vectors(network.primary_inputs))
        result = fault_simulate(network, vectors, telemetry=tel)
        spans = [e for e in tel.events()
                 if e.get("name") == "logic_fault_sim"]
        assert len(spans) == 1
        attrs = spans[0]["attrs"]
        assert attrs["detected"] == len(result.detected)
        assert attrs["coverage"] == result.coverage
        counters = tel.metrics.snapshot()["counters"]
        assert counters.get("faultsim.detected", 0) == len(result.detected)
