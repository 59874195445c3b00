"""Performance harness: compiled engine, adaptive stepping, low-rank solves.

Times the workloads the performance work targets and writes
``BENCH_sim.json`` at the repository root so future changes have a perf
trajectory to compare against:

* **campaign** — the section-3 defect catalog (4 defect kinds, 2 pipe
  values) against the three-oracle setup on a 3-stage chain with a
  shared detector.  Baseline: legacy per-component stamping, cold
  starts.  Optimized: compiled stamping + fault-free warm starts.
* **campaign_batched** — the same catalog, warm-started compiled
  campaign as the baseline, against the low-rank engine: all low-rank
  defects solved together on the shared fault-free system as a stacked
  replay Newton iteration (one vectorised device evaluation and one
  stacked solve per iteration for the whole batch).  Also records that
  the verdicts are identical to the warm campaign's and how many
  members fell back to the conventional path.
* **transient** — an 8-stage buffer chain driven at 1 GHz for 2 ns.
  Baseline: legacy stamping.  Optimized: compiled stamping with the
  cached companion pattern.
* **transient_adaptive** — the same chain, compiled fixed-step as the
  baseline, against the LTE-controlled adaptive stepper; accuracy is
  pinned against a 4x-oversampled fixed-step reference.
* **telemetry** — the campaign workload untraced vs fully traced
  (``<3%`` overhead gate), plus the trace artifacts: one traced
  campaign's JSONL (``BENCH_trace.jsonl``) and its rendered run report
  (``BENCH_report.md``); the section's solver counters come from that
  trace.
* **robustness** — the campaign workload unguarded vs guarded with the
  fault-tolerance layer (per-defect solver deadline + JSONL
  checkpointing; ``<3%`` overhead gate), plus the checkpoint artifact
  (``BENCH_checkpoint.jsonl``) and a proof that resuming from it is
  record-identical to the uninterrupted run.
* **campaign_service** — the full 145-defect catalog (monitor sites
  included) through the asyncio campaign service: a cold sharded run
  populating the content-addressed result store (gated on parallel
  efficiency vs the serial solve), a warm re-submission served from
  cache (gated ≥10x over cold with ≥95% hit-rate and field-identical
  records), and a concurrent-client load test over the JSON-lines TCP
  front end.
* **observability** — the operational-observability layer: the
  Chrome/Perfetto exporter round-trips every span of the telemetry
  section's trace into ``BENCH_trace.perfetto.json``, a parallel
  traced campaign's events all carry the root ``trace_id``, the
  sampling profiler stays under 5% overhead on a traced campaign, the
  hotspot table is non-empty with self-times bounded by wall time, and
  a live TCP service's ``stats`` op parses as Prometheus text
  exposition.
* **testgen_atpg** — the gate-level ATPG engine on the ISCAS-like
  benchmark networks (500 and 1000 gates): strict stuck-at fault
  coverage gated at 99% on the 500-gate network, every unclassified
  fault re-screened with a large independent random batch (gate: none
  detectable — the engine leaves behind only redundant faults it could
  not prove untestable), wall time bounded per network, and a
  structural no-enumeration check (PODEM calls bounded by the
  collapsed fault list, applied vectors a vanishing fraction of the
  2^inputs input space).  The per-vector coverage-growth curves (and a
  sequential plan's toggle-coverage growth) land in
  ``BENCH_atpg_growth.json``.

Both baseline and optimized run in this same process (same BLAS, same
interpreter), so the reported speedups are apples-to-apples.  Run with::

    PYTHONPATH=src python benchmarks/perf/run_perf.py

See docs/performance.md for what the numbers mean and how to read them.
"""

from __future__ import annotations

import gc
import json
import pathlib
import time

import numpy as np

from repro.cml import NOMINAL, buffer_chain
from repro.dft import build_shared_monitor
from repro.faults import (
    FlagOracle,
    IddqOracle,
    LogicOracle,
    enumerate_defects,
    run_campaign,
)
from repro.sim.options import SimOptions
from repro.sim.transient import transient
from repro.telemetry import RunReport, Telemetry

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
OUTPUT = REPO_ROOT / "BENCH_sim.json"
TRACE_OUTPUT = REPO_ROOT / "BENCH_trace.jsonl"
REPORT_OUTPUT = REPO_ROOT / "BENCH_report.md"
CHECKPOINT_OUTPUT = REPO_ROOT / "BENCH_checkpoint.jsonl"
PERFETTO_OUTPUT = REPO_ROOT / "BENCH_trace.perfetto.json"
ATPG_GROWTH_OUTPUT = REPO_ROOT / "BENCH_atpg_growth.json"
DEFECT_FAMILIES_OUTPUT = REPO_ROOT / "BENCH_defect_families.json"
#: The committed witnesses for the extension defect families; the
#: bench replays them against the serial engine subset and gates on
#: bit-identical agreement.
FAMILY_WITNESSES = (
    REPO_ROOT / "tests" / "corpus" / "oxide_severity_escape.json",
    REPO_ROOT / "tests" / "corpus" / "lowswing_link_healing.json",
    REPO_ROOT / "tests" / "corpus" / "ila_c_testability.json",
)

#: Acceptance targets for the optimisation passes.
CAMPAIGN_TARGET = 3.0
CAMPAIGN_BATCHED_TARGET = 3.0
TRANSIENT_TARGET = 2.0
TRANSIENT_ADAPTIVE_TARGET = 2.0
#: Whole-trace accuracy bound for the adaptive stepper, volts.
ADAPTIVE_MAX_ERROR_V = 1e-3
#: Telemetry must stay near-free: traced campaign vs untraced, percent.
TELEMETRY_MAX_OVERHEAD_PCT = 3.0
#: The fault-tolerance machinery (per-defect solver deadline + JSONL
#: checkpointing) must stay near-free on an unperturbed campaign.
ROBUSTNESS_MAX_OVERHEAD_PCT = 3.0
#: Warm (fully cached) service re-run vs the cold run that filled the
#: store, and the floor on how much of it must come from cache.
CAMPAIGN_SERVICE_TARGET = 10.0
SERVICE_MIN_HIT_RATE = 0.95
#: Cold sharded run must stay close to ideal scaling:
#: serial_time / (workers x cold_wall).
SERVICE_MIN_EFFICIENCY = 0.7
#: Sampling profiler attached to a traced campaign, percent overhead.
OBSERVABILITY_MAX_OVERHEAD_PCT = 5.0
#: Profiler sampling interval for the bench runs (fine enough that a
#: sub-second campaign still collects a meaningful sample count).
PROFILE_BENCH_INTERVAL_S = 0.002
#: Strict stuck-at coverage floor for the 500-gate ATPG benchmark
#: (unclassified faults count *against* coverage, see AtpgRun.coverage).
ATPG_MIN_COVERAGE = 0.99
#: ATPG wall-time ceilings per benchmark network, seconds.  Measured
#: ~1.3 s (500 gates) / ~13 s (1000 gates); generous CI margin.
ATPG_MAX_RUNTIME_S = {"iscas_like_s1": 15.0, "iscas_like_s2": 90.0}
#: Independent random re-screen of the engine's unclassified faults.
ATPG_SCREEN_VECTORS = 8192


def _best_of(func, repeats: int = 3) -> float:
    """Best wall-clock of ``repeats`` runs (after one warmup)."""
    func()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def _campaign_bench():
    chain = buffer_chain(NOMINAL, n_stages=3, frequency=100e6)
    monitor = build_shared_monitor(chain.circuit, chain.output_nets,
                                   tech=NOMINAL)
    oracles = [
        LogicOracle(chain.output_nets),
        FlagOracle(monitor.nets.flag, monitor.nets.flagb),
        IddqOracle(),
    ]
    defects = list(enumerate_defects(
        chain.circuit,
        kinds=("pipe", "terminal-short", "resistor-short", "resistor-open"),
        pipe_resistances=(2e3, 4e3)))
    return chain, oracles, defects


def bench_campaign() -> dict:
    chain, oracles, defects = _campaign_bench()

    legacy = SimOptions(use_compiled=False)
    baseline = _best_of(lambda: run_campaign(
        chain.circuit, defects, oracles, options=legacy, warm_start=False))
    optimized = _best_of(lambda: run_campaign(chain.circuit, defects, oracles))

    warm = run_campaign(chain.circuit, defects, oracles)
    cold = run_campaign(chain.circuit, defects, oracles, warm_start=False)
    converged = [r for r in warm.records if r.converged]
    return {
        "defects": len(defects),
        "baseline_s": round(baseline, 4),
        "optimized_s": round(optimized, 4),
        "speedup": round(baseline / optimized, 2),
        "target_speedup": CAMPAIGN_TARGET,
        "mean_nr_iterations_warm": round(
            sum(r.newton_iterations for r in converged) / len(converged), 2),
        "mean_nr_iterations_cold": round(
            sum(r.newton_iterations for r in cold.records if r.converged)
            / len(converged), 2),
    }


def bench_campaign_batched() -> dict:
    """Warm-started campaign vs the batched low-rank engine.

    The low-rank engine stacks every low-rank defect into one vectorised
    replay Newton iteration (``repro.sim.batch``), so the per-defect
    injection, compile and Python dispatch collapse into a handful of
    array operations per iteration.  Verdicts must be identical to the
    warm campaign's; any member the batch returns unsolved is re-solved
    conventionally and counted in ``batch_fallbacks``.
    """
    chain, oracles, defects = _campaign_bench()

    baseline = _best_of(lambda: run_campaign(chain.circuit, defects, oracles))
    optimized = _best_of(lambda: run_campaign(
        chain.circuit, defects, oracles, low_rank=True))

    warm = run_campaign(chain.circuit, defects, oracles)
    batched = run_campaign(chain.circuit, defects, oracles, low_rank=True)
    identical = all(
        w.verdicts == b.verdicts and w.converged == b.converged
        for w, b in zip(warm.records, batched.records))
    occupancy = (batched.batch_occupancy / batched.n_batched_solves
                 if batched.n_batched_solves else 0.0)
    return {
        "defects": len(defects),
        "baseline_s": round(baseline, 4),
        "optimized_s": round(optimized, 4),
        "speedup": round(baseline / optimized, 2),
        "target_speedup": CAMPAIGN_BATCHED_TARGET,
        "verdicts_identical": identical,
        "solver_counts": batched.solver_counts(),
        "n_batched_solves": batched.n_batched_solves,
        "mean_batch_occupancy": round(occupancy, 2),
        "batch_fallbacks": batched.batch_fallbacks,
    }


def bench_transient() -> dict:
    chain = buffer_chain(NOMINAL, n_stages=8, frequency=1e9)
    circuit = chain.circuit
    t_stop, dt = 2e-9, 2e-12

    baseline = _best_of(lambda: transient(
        circuit, t_stop, dt, SimOptions(use_compiled=False)), repeats=2)
    optimized = _best_of(lambda: transient(
        circuit, t_stop, dt, SimOptions()), repeats=2)
    return {
        "n_stages": 8,
        "t_stop_s": t_stop,
        "dt_s": dt,
        "baseline_s": round(baseline, 4),
        "optimized_s": round(optimized, 4),
        "speedup": round(baseline / optimized, 2),
        "target_speedup": TRANSIENT_TARGET,
    }


def bench_transient_adaptive() -> dict:
    """Compiled fixed-step vs the LTE-controlled adaptive stepper.

    Accuracy is measured at the adaptive stepper's own time points
    against a 4x-oversampled fixed-step reference (linear interpolation
    of the dense reference trace), over every node of the chain.
    """
    chain = buffer_chain(NOMINAL, n_stages=8, frequency=1e9)
    circuit = chain.circuit
    t_stop, dt = 2e-9, 2e-12

    baseline = _best_of(lambda: transient(
        circuit, t_stop, dt, SimOptions()), repeats=2)
    optimized = _best_of(lambda: transient(
        circuit, t_stop, dt, SimOptions(adaptive_step=True)), repeats=2)

    adaptive = transient(circuit, t_stop, dt, SimOptions(adaptive_step=True))
    reference = transient(circuit, t_stop, dt / 4, SimOptions())
    t_ad = np.asarray(adaptive.times)
    t_ref = np.asarray(reference.times)
    max_error = 0.0
    for net in adaptive.structure.net_index:
        v_ad = np.asarray(adaptive.wave(net).values)
        v_ref = np.interp(t_ad, t_ref, np.asarray(reference.wave(net).values))
        max_error = max(max_error, float(np.max(np.abs(v_ad - v_ref))))

    fixed = transient(circuit, t_stop, dt, SimOptions())
    stats = adaptive.stats
    # The adaptive stepper must actually exercise the factor cache:
    # accepted steps that keep dt re-use the previous factorization, so
    # a zero here means the cache went dead on this path again.
    n_reuses = stats.n_reuses if stats else 0
    return {
        "n_stages": 8,
        "t_stop_s": t_stop,
        "dt_s": dt,
        "baseline_s": round(baseline, 4),
        "optimized_s": round(optimized, 4),
        "speedup": round(baseline / optimized, 2),
        "target_speedup": TRANSIENT_ADAPTIVE_TARGET,
        "timepoints_fixed": len(fixed.times),
        "timepoints_adaptive": len(adaptive.times),
        "rejected_steps": stats.n_rejected_steps if stats else None,
        "n_factorizations": stats.n_factorizations if stats else None,
        "n_reuses": n_reuses,
        "factor_cache_ok": n_reuses > 0,
        "max_error_v_vs_4x_reference": round(max_error, 6),
        "max_error_target_v": ADAPTIVE_MAX_ERROR_V,
        "accuracy_ok": max_error <= ADAPTIVE_MAX_ERROR_V,
    }


def bench_telemetry() -> dict:
    """Traced vs untraced campaign: the observability layer's cost.

    Also writes the trace artifacts the CI uploads: one fully traced
    campaign's JSONL (``BENCH_trace.jsonl``) and its rendered
    :class:`~repro.telemetry.RunReport` (``BENCH_report.md``) — the
    section's counters are read back from that same trace, so the
    numbers in BENCH_sim.json and the report artifacts cannot drift
    apart.
    """
    chain, oracles, defects = _campaign_bench()

    def run_disabled():
        run_campaign(chain.circuit, defects, oracles)

    def run_enabled():
        run_campaign(chain.circuit, defects, oracles,
                     options=SimOptions(telemetry=Telemetry.capturing()))

    def measure_overhead_once(pairs: int = 15):
        """One A/B attempt: interleaved pairs, total-time ratio.

        Interleaving spreads slow clock drift (thermal throttling,
        noisy-neighbour CI hosts) over both variants; the explicit
        collect stops either variant from paying the GC bill for the
        other's garbage (the traced variant retains its event buffers
        until the next collection).
        """
        total_disabled = total_enabled = 0.0
        for _ in range(pairs):
            gc.collect()
            start = time.perf_counter()
            run_disabled()
            total_disabled += time.perf_counter() - start
            gc.collect()
            start = time.perf_counter()
            run_enabled()
            total_enabled += time.perf_counter() - start
        return total_disabled, total_enabled

    # The true cost of the layer is ~1% (one span per defect/analysis/
    # solve, none in per-iteration loops), but shared hosts drift by a
    # few percent over any measurement window, so a single attempt can
    # read several percent high or low.  Retry up to three times and
    # accept the first attempt under the gate: a *real* regression
    # (per-iteration spans, eager serialization) overshoots 3% on every
    # attempt, while measurement noise on a sub-gate overhead does not.
    run_disabled(), run_enabled()
    attempts = []
    for _ in range(3):
        disabled, enabled = measure_overhead_once()
        attempts.append(round((enabled / disabled - 1.0) * 100.0, 2))
        if attempts[-1] <= TELEMETRY_MAX_OVERHEAD_PCT:
            break
    overhead_pct = attempts[-1]

    if TRACE_OUTPUT.exists():
        TRACE_OUTPUT.unlink()
    telemetry = Telemetry.to_jsonl(str(TRACE_OUTPUT))
    run_campaign(chain.circuit, defects, oracles,
                 options=SimOptions(telemetry=telemetry))
    telemetry.close()
    report = RunReport.from_jsonl(str(TRACE_OUTPUT))
    REPORT_OUTPUT.write_text(report.render(markdown=True) + "\n")

    iterations = report.metrics.histogram("newton.iterations_per_solve")
    return {
        "defects": len(defects),
        "disabled_s": round(disabled / 15, 4),
        "enabled_s": round(enabled / 15, 4),
        "overhead_pct": overhead_pct,
        "overhead_attempts_pct": attempts,
        "max_overhead_pct": TELEMETRY_MAX_OVERHEAD_PCT,
        "overhead_ok": overhead_pct <= TELEMETRY_MAX_OVERHEAD_PCT,
        "spans": len(report.spans),
        "total_newton_iterations": report.total_newton_iterations(),
        "mean_nr_iterations_per_solve": round(iterations.mean, 2),
        "slowest_defect": report.slowest_defect_name(),
        "trace_artifact": TRACE_OUTPUT.name,
        "report_artifact": REPORT_OUTPUT.name,
    }


def bench_robustness() -> dict:
    """Guarded vs unguarded campaign: the fault-tolerance layer's cost.

    The guarded variant arms everything a production batch run would: a
    per-defect solver deadline (one clock check per Newton iteration)
    and JSONL checkpointing of every completed record.  Both variants
    solve the identical unperturbed catalog, so the overhead is pure
    bookkeeping.  Also writes the checkpoint artifact the CI uploads
    (``BENCH_checkpoint.jsonl``) and proves a resume from it is
    record-identical to the uninterrupted run.
    """
    from repro.faults import load_checkpoint

    chain, oracles, defects = _campaign_bench()
    guarded_options = SimOptions(solve_deadline_s=30.0)

    def scratch_checkpoint() -> pathlib.Path:
        path = REPO_ROOT / "BENCH_checkpoint.tmp.jsonl"
        if path.exists():
            path.unlink()
        return path

    def run_unguarded():
        run_campaign(chain.circuit, defects, oracles)

    def run_guarded():
        path = scratch_checkpoint()
        try:
            run_campaign(chain.circuit, defects, oracles,
                         options=guarded_options, checkpoint=str(path))
        finally:
            if path.exists():
                path.unlink()

    def measure_overhead_once(pairs: int = 10):
        """One A/B attempt: interleaved pairs, best-time ratio.

        Interleaving spreads slow clock drift over both variants (see
        :func:`bench_telemetry`); comparing the *minimum* per-variant
        time rather than totals additionally filters one-sided drift
        spikes (a noisy-neighbour stall lands in one variant's total
        and reads as overhead), while a genuine systematic cost — the
        deadline check, the per-record checkpoint write — shifts the
        minimum too.
        """
        best_unguarded = best_guarded = float("inf")
        for _ in range(pairs):
            gc.collect()
            start = time.perf_counter()
            run_unguarded()
            best_unguarded = min(best_unguarded,
                                 time.perf_counter() - start)
            gc.collect()
            start = time.perf_counter()
            run_guarded()
            best_guarded = min(best_guarded, time.perf_counter() - start)
        return best_unguarded, best_guarded

    # Same noise discipline as the telemetry gate: the true cost is one
    # perf_counter() read per Newton iteration plus one JSON line per
    # defect, so any attempt past 3% is host drift — retry up to three
    # times and accept the first attempt under the gate.
    run_unguarded(), run_guarded()
    attempts = []
    for _ in range(3):
        unguarded, guarded = measure_overhead_once()
        attempts.append(round((guarded / unguarded - 1.0) * 100.0, 2))
        if attempts[-1] <= ROBUSTNESS_MAX_OVERHEAD_PCT:
            break
    overhead_pct = attempts[-1]

    # The uploaded checkpoint artifact + the resume round-trip proof.
    if CHECKPOINT_OUTPUT.exists():
        CHECKPOINT_OUTPUT.unlink()
    reference = run_campaign(chain.circuit, defects, oracles,
                             options=guarded_options,
                             checkpoint=str(CHECKPOINT_OUTPUT))
    resumed = run_campaign(chain.circuit, defects, oracles,
                           options=guarded_options,
                           checkpoint=str(CHECKPOINT_OUTPUT), resume=True)
    plain = run_campaign(chain.circuit, defects, oracles)
    return {
        "defects": len(defects),
        "unguarded_s": round(unguarded, 4),
        "guarded_s": round(guarded, 4),
        "overhead_pct": overhead_pct,
        "overhead_attempts_pct": attempts,
        "max_overhead_pct": ROBUSTNESS_MAX_OVERHEAD_PCT,
        "overhead_ok": overhead_pct <= ROBUSTNESS_MAX_OVERHEAD_PCT,
        "checkpoint_records": len(load_checkpoint(str(CHECKPOINT_OUTPUT))),
        "n_resumed": resumed.n_resumed,
        "records_identical_after_resume":
            resumed.records == reference.records,
        "verdicts_identical": all(
            g.verdicts == p.verdicts and g.converged == p.converged
            for g, p in zip(reference.records, plain.records)),
        "n_quarantined": len(reference.quarantined()),
        "checkpoint_artifact": CHECKPOINT_OUTPUT.name,
    }


def bench_observability() -> dict:
    """The operational-observability layer, gated end to end.

    Five checks, every ``*_ok`` flag a CI gate:

    * the Chrome/Perfetto export round-trips every span of
      ``BENCH_trace.jsonl`` (written by :func:`bench_telemetry`, which
      therefore must run first) into ``BENCH_trace.perfetto.json``;
    * a traced *parallel* campaign's events all carry the root
      ``trace_id`` (cross-process trace-context propagation);
    * a profiler-enabled campaign stays within
      ``OBSERVABILITY_MAX_OVERHEAD_PCT`` of the traced-only run;
    * the profiled run's hotspot table is non-empty with self-times
      summing to at most the measured wall time;
    * a live TCP service's ``stats`` op returns a body that strictly
      parses as Prometheus text exposition, with the expected samples.
    """
    import asyncio

    from repro.telemetry import (aggregate_hotspots, chrome_trace_events,
                                 parse_prometheus, read_jsonl,
                                 write_chrome_trace)

    chain, oracles, defects = _campaign_bench()

    # 1. Perfetto export round-trip over the telemetry section's trace.
    events = read_jsonl(str(TRACE_OUTPUT))
    source_spans = [e for e in events if e.get("type") == "span"]
    exported = chrome_trace_events(events)
    roundtrip_ok = (
        len(exported) == len(source_spans)
        and sorted(e["name"] for e in exported)
        == sorted(s["name"] for s in source_spans)
        and all(e["ph"] == "X" and e["dur"] >= 0 for e in exported))
    write_chrome_trace(events, str(PERFETTO_OUTPUT))

    # 2. Cross-process trace propagation on a parallel traced campaign.
    telemetry = Telemetry.capturing()
    run_campaign(chain.circuit, defects, oracles, parallel=True,
                 options=SimOptions(telemetry=telemetry))
    telemetry.flush_metrics()
    root_trace = telemetry.tracer.trace_id
    traced_events = [e for e in telemetry.events()
                     if e.get("type") != "meta"]
    propagation_ok = (
        len(traced_events) > len(defects)
        and all(e.get("trace_id") == root_trace for e in traced_events)
        and len({e.get("pid") for e in traced_events
                 if e.get("type") == "span"}) >= 1)

    # 3. Profiler overhead: traced campaign with vs without the sampler,
    # interleaved pairs with the telemetry section's retry discipline.
    def run_traced():
        run_campaign(chain.circuit, defects, oracles,
                     options=SimOptions(telemetry=Telemetry.capturing()))

    def run_profiled():
        run_campaign(chain.circuit, defects, oracles,
                     options=SimOptions(
                         telemetry=Telemetry.capturing(), profile=True,
                         profile_interval_s=PROFILE_BENCH_INTERVAL_S))

    def measure_overhead_once(pairs: int = 10):
        best_traced = best_profiled = float("inf")
        for _ in range(pairs):
            gc.collect()
            start = time.perf_counter()
            run_traced()
            best_traced = min(best_traced, time.perf_counter() - start)
            gc.collect()
            start = time.perf_counter()
            run_profiled()
            best_profiled = min(best_profiled,
                                time.perf_counter() - start)
        return best_traced, best_profiled

    run_traced(), run_profiled()
    attempts = []
    for _ in range(3):
        traced_s, profiled_s = measure_overhead_once()
        attempts.append(round((profiled_s / traced_s - 1.0) * 100.0, 2))
        if attempts[-1] <= OBSERVABILITY_MAX_OVERHEAD_PCT:
            break
    overhead_pct = attempts[-1]

    # 4. Hotspot aggregation from one dedicated profiled run.
    profile_tel = Telemetry.capturing()
    start = time.perf_counter()
    run_campaign(chain.circuit, defects, oracles,
                 options=SimOptions(
                     telemetry=profile_tel, profile=True,
                     profile_interval_s=PROFILE_BENCH_INTERVAL_S))
    profiled_wall_s = time.perf_counter() - start
    profile_events = [e for e in profile_tel.events()
                      if e.get("type") == "profile"]
    hotspots = aggregate_hotspots(profile_events)
    self_total_s = sum(row["self_s"] for row in hotspots)
    hotspots_ok = (len(hotspots) > 0
                   and 0.0 < self_total_s <= profiled_wall_s)

    # 5. Live-service Prometheus scrape over the real TCP front end.
    async def scrape() -> dict:
        import tempfile

        from repro.service import CampaignService, JobSpec, \
            submit_and_stream
        with tempfile.TemporaryDirectory() as tmpdir:
            service = CampaignService(store=tmpdir, workers=2)
            server = await service.serve(port=0)
            host, port = server.sockets[0].getsockname()[:2]
            spec = JobSpec(stages=2, kinds=("pipe",),
                           pipe_resistances=(4e3,), limit=4)
            await submit_and_stream(host, port, spec)
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b'{"op":"stats"}\n')
            await writer.drain()
            payload = json.loads(await reader.readline())
            writer.close()
            server.close()
            await server.wait_closed()
        return payload

    try:
        stats_payload = scrape_samples = None
        stats_payload = asyncio.run(scrape())
        scrape_samples = parse_prometheus(stats_payload["exposition"])
        scrape_ok = (
            scrape_samples.get("repro_service_jobs_submitted", 0) >= 1
            and scrape_samples.get("repro_service_jobs_completed", 0) >= 1
            and 'repro_service_job_wall_s{quantile="0.5"}' in scrape_samples
            and "repro_service_job_wall_s_count" in scrape_samples)
    except (ValueError, KeyError, OSError):
        scrape_ok = False

    return {
        "spans_in_trace": len(source_spans),
        "spans_exported": len(exported),
        "export_roundtrip_ok": roundtrip_ok,
        "perfetto_artifact": PERFETTO_OUTPUT.name,
        "parallel_events": len(traced_events),
        "trace_propagation_ok": propagation_ok,
        "profile_overhead_pct": overhead_pct,
        "profile_overhead_attempts_pct": attempts,
        "max_profile_overhead_pct": OBSERVABILITY_MAX_OVERHEAD_PCT,
        "profile_overhead_ok":
            overhead_pct <= OBSERVABILITY_MAX_OVERHEAD_PCT,
        "profile_samples": sum(e.get("n_samples", 0)
                               for e in profile_events),
        "hotspot_functions": len(hotspots),
        "hotspot_top": [row["function"] for row in hotspots[:3]],
        "hotspot_self_total_s": round(self_total_s, 4),
        "profiled_wall_s": round(profiled_wall_s, 4),
        "hotspots_ok": hotspots_ok,
        "prometheus_samples": len(scrape_samples or {}),
        "scrape_ok": scrape_ok,
    }


def bench_campaign_service() -> dict:
    """Cold sharded service run vs warm (fully cached) re-submission.

    The workload is the paper's full section-3 catalog with the
    monitor's own devices included (145 defects on the 3-stage chain):
    the DFT-flow shape where every defect is swept repeatedly across
    CLI runs, verify sweeps, and nightly fuzz — exactly what the
    content-addressed store exists to deduplicate.
    """
    import asyncio
    import tempfile

    from repro.parallel import default_workers
    from repro.service import CampaignService, JobSpec, run_load_test

    workers = default_workers()
    spec = JobSpec(stages=3,
                   kinds=("pipe", "terminal-short", "resistor-short",
                          "resistor-open"),
                   pipe_resistances=(2e3, 4e3),
                   include_monitor_sites=True,
                   parallel=True, workers=workers)

    # Serial reference: the same workload solved inline, no service, no
    # store — both the efficiency baseline and the record-identity
    # ground truth for cache-served results.
    chain = buffer_chain(NOMINAL, n_stages=3, frequency=100e6)
    monitor = build_shared_monitor(chain.circuit, chain.output_nets,
                                   tech=NOMINAL)
    oracles = [LogicOracle(chain.output_nets),
               FlagOracle(monitor.nets.flag, monitor.nets.flagb),
               IddqOracle()]
    defects = list(enumerate_defects(
        chain.circuit, kinds=tuple(spec.kinds),
        pipe_resistances=tuple(spec.pipe_resistances)))
    serial_result = run_campaign(chain.circuit, defects, oracles)
    serial_s = _best_of(lambda: run_campaign(chain.circuit, defects,
                                             oracles))

    async def run_service(tmpdir: str) -> dict:
        service = CampaignService(store=tmpdir, workers=workers)
        # Cold: timed once — it is the run that populates the store.
        start = time.perf_counter()
        cold = await service.run(spec)
        cold_s = time.perf_counter() - start
        # Warm: every record served from cache.  Best-of like the other
        # sections; re-runs only get *more* cached, never less.
        warm = None
        warm_s = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            warm = await service.run(spec)
            warm_s = min(warm_s, time.perf_counter() - start)
        # Load test: concurrent TCP clients re-submitting the (now
        # cached) job against the live service.
        server = await service.serve(port=0)
        host, port = server.sockets[0].getsockname()[:2]
        load = await run_load_test(host, port, [spec.to_dict()] * 4)
        server.close()
        await server.wait_closed()
        lookups = warm.n_store_hits + warm.n_store_misses
        return {
            "cold_s": cold_s, "warm_s": warm_s,
            "cold": cold, "warm": warm,
            "hit_rate": warm.n_store_hits / lookups if lookups else 0.0,
            "load": load,
            "max_queue_depth": service.max_queue_depth,
        }

    with tempfile.TemporaryDirectory() as tmpdir:
        outcome = asyncio.run(run_service(tmpdir))

    cold, warm = outcome["cold"], outcome["warm"]
    efficiency = serial_s / (workers * outcome["cold_s"])
    load = outcome["load"]
    return {
        "defects": len(warm.records),
        "workers": workers,
        "serial_s": round(serial_s, 4),
        "cold_s": round(outcome["cold_s"], 4),
        "warm_s": round(outcome["warm_s"], 4),
        "speedup": round(outcome["cold_s"] / outcome["warm_s"], 2),
        "target_speedup": CAMPAIGN_SERVICE_TARGET,
        "cache_hit_rate": round(outcome["hit_rate"], 4),
        "min_cache_hit_rate": SERVICE_MIN_HIT_RATE,
        "cache_hit_ok": outcome["hit_rate"] >= SERVICE_MIN_HIT_RATE,
        "parallel_efficiency": round(efficiency, 3),
        "min_parallel_efficiency": SERVICE_MIN_EFFICIENCY,
        "efficiency_ok": efficiency >= SERVICE_MIN_EFFICIENCY,
        # Cache-served records must be field-identical to freshly solved
        # ones — against both the cold service run and the plain serial
        # campaign (dataclass equality covers every record field).
        "records_identical_ok": (warm.records == cold.records
                                 and warm.records == serial_result.records),
        "load_clients": load["clients"],
        "load_completed": load["completed"],
        "load_wall_s": load["wall_s"],
        "load_store_hits": load["total_store_hits"],
        "load_test_ok": (load["completed"] == load["clients"]
                         and load["failed"] == 0),
        "max_queue_depth": outcome["max_queue_depth"],
    }


def bench_testgen_atpg() -> dict:
    """Gate-level ATPG on the ISCAS-like benchmarks, gated four ways.

    * ``coverage_ok`` — strict stuck-at coverage (unclassified faults
      count as missed) at least ``ATPG_MIN_COVERAGE`` on the 500-gate
      network;
    * ``no_detectable_missed_ok`` — every fault the engine left
      unclassified is re-screened with ``ATPG_SCREEN_VECTORS``
      independent random vectors; none may be detectable (i.e. the
      engine only leaves behind redundant faults it could not prove
      untestable within budget);
    * ``runtime_ok`` — wall time per network under
      ``ATPG_MAX_RUNTIME_S``;
    * ``no_enumeration_ok`` — structural proof there is no 2^n path:
      at most one PODEM call per collapsed fault and the total applied
      vector count a vanishing fraction of the input space.

    Also writes ``BENCH_atpg_growth.json``: the cumulative per-vector
    fault-coverage curve for each combinational benchmark and the
    toggle-coverage growth of a sequential test plan.
    """
    import random as _random
    from collections import Counter

    from repro.testgen import (BENCHMARKS, enumerate_stuck_faults,
                               fault_detect_matrix, generate_tests,
                               sequential_test_plan)

    def fault_coverage_growth(network, vectors) -> list:
        """Cumulative detected-fraction after each vector, in order."""
        masks = fault_detect_matrix(network, vectors)
        first = Counter((mask & -mask).bit_length() - 1
                        for mask in masks.values() if mask)
        growth, detected = [], 0
        for k in range(len(vectors)):
            detected += first.get(k, 0)
            growth.append(round(detected / len(masks), 4))
        return growth

    sections = {}
    growth_artifact = {}
    coverage_ok = runtime_ok = no_detectable_missed_ok = True
    no_enumeration_ok = True
    for name in ("iscas_like_s1", "iscas_like_s2"):
        network = BENCHMARKS[name]()
        gc.collect()
        start = time.perf_counter()
        run = generate_tests(network)
        wall_s = time.perf_counter() - start

        # Re-screen the unclassified remainder with a fresh, much
        # larger random batch than anything the engine itself applied.
        rng = _random.Random(0xA7B6)
        screen = [{pi: bool(rng.getrandbits(1))
                   for pi in network.primary_inputs}
                  for _ in range(ATPG_SCREEN_VECTORS)]
        detectable_missed = 0
        if run.missed:
            caught = fault_detect_matrix(network, screen,
                                         faults=run.missed)
            detectable_missed = sum(1 for mask in caught.values()
                                    if mask)

        n_inputs = len(network.primary_inputs)
        applied = len(run.vectors) + len(run.results)
        enumeration_free = (run.stats.podem_calls <= run.n_collapsed
                            and applied < 2 ** 12 < 2 ** n_inputs)

        runtime_ok &= wall_s <= ATPG_MAX_RUNTIME_S[name]
        no_detectable_missed_ok &= detectable_missed == 0
        no_enumeration_ok &= enumeration_free
        sections[name] = {
            "gates": len(network.gates),
            "inputs": n_inputs,
            "faults": run.n_faults,
            "collapsed": run.n_collapsed,
            "vectors": len(run.vectors),
            "coverage": round(run.coverage, 4),
            "fault_efficiency": round(run.efficiency, 4),
            "proven_untestable": len(run.proven_untestable),
            "unclassified": len(run.missed),
            "detectable_missed": detectable_missed,
            "podem_calls": run.stats.podem_calls,
            "backtracks": run.stats.backtracks,
            "wall_s": round(wall_s, 4),
            "max_wall_s": ATPG_MAX_RUNTIME_S[name],
        }
        growth_artifact[name] = fault_coverage_growth(network,
                                                      run.vectors)
    coverage_ok = (sections["iscas_like_s1"]["coverage"]
                   >= ATPG_MIN_COVERAGE)

    # Sequential recipe: toggle-coverage growth of the section-6.6 plan
    # (pseudorandom init from all-0, LFSR patterns, ATPG top-up).
    seq = BENCHMARKS["decider"]()
    plan = sequential_test_plan(seq, initial_state=False)
    growth_artifact["sequential_decider"] = {
        "toggle_growth": [round(g, 4) for g in plan.growth],
        "coverage": round(plan.coverage.coverage, 4),
        "init_cycles": plan.init_cycles,
        "vectors": len(plan.vectors),
    }
    ATPG_GROWTH_OUTPUT.write_text(
        json.dumps(growth_artifact, indent=2) + "\n")

    # Sanity anchor: the full fault universe of the bigger network —
    # confirms the matrices above covered the real list, not a sample.
    n_universe = len(enumerate_stuck_faults(BENCHMARKS["iscas_like_s2"]()))

    return {
        **sections,
        "fault_universe_s2": n_universe,
        "min_coverage": ATPG_MIN_COVERAGE,
        "coverage_ok": coverage_ok,
        "screen_vectors": ATPG_SCREEN_VECTORS,
        "no_detectable_missed_ok": no_detectable_missed_ok,
        "runtime_ok": runtime_ok,
        "no_enumeration_ok": no_enumeration_ok,
        "sequential_toggle_coverage":
            growth_artifact["sequential_decider"]["coverage"],
        "sequential_coverage_ok":
            growth_artifact["sequential_decider"]["coverage"] >= 0.99,
        "growth_artifact": ATPG_GROWTH_OUTPUT.name,
    }


def bench_defect_families() -> dict:
    """Detectability gates for the extension defect families.

    * ``monotone_ok`` — oxide-breakdown detection coverage is monotone
      non-decreasing in severity for every detector variant (the
      severity-sweep artifact, ``BENCH_defect_families.json``);
    * ``delta_identity_ok`` / ``batched_identity_ok`` — campaign
      verdicts on `OxideBreakdown` + `WireLeak` defects under the
      low-rank engine, in batches of one and at the default batch
      size, match the cold conventional solves vector-for-vector;
    * ``witnesses_ok`` — the three committed corpus witnesses (soft
      breakdown escape, low-swing healing, ILA C-testability) replay
      with zero cross-engine disagreements.
    """
    from repro.analysis import ila_c_testability_study, severity_sweep
    from repro.cml.interconnect import attach_low_swing_link
    from repro.faults import defect_key
    from repro.verify import (ENGINES_BY_NAME, cross_check,
                              load_scenario)

    sweep = severity_sweep(n_stages=3)

    # Verdict identity: cold vs low-rank (batches of one and default
    # batches) on a linked chain with both new families injected.
    chain = buffer_chain(NOMINAL, n_stages=3, frequency=100e6)
    link = attach_low_swing_link(chain.circuit, *chain.output_nets[-1],
                                 swing_factor=0.5)
    oracles = lambda: [LogicOracle(chain.output_nets + [link.out_nets]),
                       IddqOracle()]
    defects = list(enumerate_defects(
        chain.circuit, kinds=("oxide-breakdown", "wire-leak"),
        oxide_resistances=(1e3, 1e5, 10e6),
        wire_leak_resistances=(2e3, 20e3)))
    cold = run_campaign(chain.circuit, defects, oracles(),
                        warm_start=False)
    delta = run_campaign(chain.circuit, defects, oracles(), low_rank=True,
                         batch_size=1)
    batched = run_campaign(chain.circuit, defects, oracles(),
                           low_rank=True)

    def table(campaign):
        return {defect_key(r.defect): (tuple(sorted(r.verdicts.items())),
                                       r.converged)
                for r in campaign.records}

    delta_identity = table(delta) == table(cold)
    batched_identity = table(batched) == table(cold)

    # Corpus witnesses, serial engine subset (same set CI replays).
    engines = [ENGINES_BY_NAME[name] for name in
               ("compiled-dense", "legacy-dense", "compiled-sparse",
                "compiled-low-rank")]
    witnesses = {}
    witnesses_ok = True
    for path in FAMILY_WITNESSES:
        result = cross_check(load_scenario(path), engines)
        witnesses[path.name] = {
            "ok": result.ok,
            "checks": result.n_checks,
            "disagreements": len(result.disagreements),
        }
        witnesses_ok &= result.ok

    ila = ila_c_testability_study(n_cells=4, campaign_limit=12)

    artifact = {
        "severity_sweep": sweep.to_dict(),
        "ila": {
            "n_cells": ila.n_cells,
            "n_vectors": ila.n_vectors,
            "stuck_coverage": ila.stuck_coverage,
            "c_testable": ila.c_testable,
        },
        "witnesses": witnesses,
    }
    DEFECT_FAMILIES_OUTPUT.write_text(
        json.dumps(artifact, indent=2) + "\n")

    per_family = cold.coverage_matrix(by="family")
    return {
        "sites": sweep.n_sites,
        "severities": list(sweep.resistances),
        "detection_fractions": {str(v): sweep.fraction(v)
                                for v in sweep.variants},
        "monotone_ok": sweep.monotone_ok(),
        "campaign_defects": len(defects),
        "per_family_any": {family: row["any"]
                           for family, row in per_family.items()},
        "delta_identity_ok": delta_identity,
        "batched_identity_ok": batched_identity,
        "witnesses": witnesses,
        "witnesses_ok": witnesses_ok,
        "ila_c_testable_ok": ila.c_testable,
        "artifact": DEFECT_FAMILIES_OUTPUT.name,
    }


def main() -> int:
    results = {
        "description": (
            "Simulation-core performance: compiled vectorised stamping, "
            "warm-started fault campaigns, LTE-controlled adaptive "
            "transient stepping and batched low-rank (replay) fault "
            "solves.  Each section reports baseline vs optimized wall "
            "time, measured best-of-N in one process."),
        "campaign": bench_campaign(),
        "campaign_batched": bench_campaign_batched(),
        "transient": bench_transient(),
        "transient_adaptive": bench_transient_adaptive(),
        "telemetry": bench_telemetry(),
        "robustness": bench_robustness(),
        "campaign_service": bench_campaign_service(),
        # Depends on bench_telemetry's BENCH_trace.jsonl artifact.
        "observability": bench_observability(),
        "testgen_atpg": bench_testgen_atpg(),
        "defect_families": bench_defect_families(),
    }
    ok = True
    for name, section in results.items():
        if not isinstance(section, dict):
            continue
        if ("speedup" in section
                and section["speedup"] < section["target_speedup"]):
            ok = False
        # Every boolean "*_ok" flag a section reports is a gate
        # (accuracy_ok, factor_cache_ok, overhead_ok, cache_hit_ok,
        # efficiency_ok, records_identical_ok, load_test_ok, ...).
        for key, value in section.items():
            if key.endswith("_ok") and value is False:
                ok = False
        if section.get("verdicts_identical") is False:
            ok = False
        if section.get("records_identical_after_resume") is False:
            ok = False
    results["targets_met"] = ok
    OUTPUT.write_text(json.dumps(results, indent=2) + "\n")
    print(json.dumps(results, indent=2))
    print(f"\n[written to {OUTPUT}]")
    return 0 if results["targets_met"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
