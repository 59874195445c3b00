"""Campaign integration with the content-addressed result store.

The acceptance scenario for the caching layer: a cold campaign misses
and writes every record; a warm re-run — even from rebuilt circuit
objects, as a fresh process would hold — serves every defect from the
store *field-identically*; namespaces and electrical changes partition
the cache; quarantined records never poison it; and the campaign
fingerprint in every address lets a campaign resume from its own
records while campaigns whose defect keys collide never alias.
"""

import json
from dataclasses import replace

import pytest

from repro.cml import NOMINAL, buffer_chain
from repro.dft import build_shared_monitor
from repro.faults import (
    FlagOracle,
    IddqOracle,
    LogicOracle,
    defect_key,
    enumerate_defects,
    run_campaign,
)
from repro.sim import SimOptions
from repro.sim.mna import CACHE_STATS
from repro.sim.options import DEFAULT_OPTIONS
from repro.store import ResultStore, campaign_fingerprint, result_key
from repro.telemetry import RunReport, Telemetry

TECH = NOMINAL


def _setup(stages=2):
    chain = buffer_chain(TECH, n_stages=stages, frequency=100e6)
    monitor = build_shared_monitor(chain.circuit, chain.output_nets,
                                   tech=TECH)
    oracles = [
        LogicOracle(chain.output_nets),
        FlagOracle(monitor.nets.flag, monitor.nets.flagb),
        IddqOracle(),
    ]
    defects = list(enumerate_defects(chain.circuit, kinds=("pipe",),
                                     pipe_resistances=(4e3,)))[:4]
    return chain, oracles, defects


@pytest.fixture(scope="module")
def setup():
    return _setup()


class TestStoreRoundTrip:
    def test_cold_then_warm_is_field_identical(self, setup, tmp_path):
        chain, oracles, defects = setup
        store = ResultStore(tmp_path / "store")
        cold = run_campaign(chain.circuit, defects, oracles, store=store)
        assert cold.n_store_hits == 0
        assert cold.n_store_misses == len(defects)
        assert cold.n_store_puts == len(defects)

        warm = run_campaign(chain.circuit, defects, oracles, store=store)
        assert warm.n_store_hits == len(defects)
        assert warm.n_store_misses == 0
        assert warm.n_store_puts == 0
        # FaultRecord equality covers every compared field — verdicts,
        # solver, iterations, quarantine state.
        assert warm.records == cold.records
        for fresh, cached in zip(cold.records, warm.records):
            assert cached.solver == fresh.solver
            assert cached.newton_iterations == fresh.newton_iterations
            assert cached.verdicts == fresh.verdicts

    def test_store_path_is_coerced(self, setup, tmp_path):
        chain, oracles, defects = setup
        path = str(tmp_path / "store")
        cold = run_campaign(chain.circuit, defects, oracles, store=path)
        warm = run_campaign(chain.circuit, defects, oracles, store=path)
        assert cold.n_store_puts == len(defects)
        assert warm.n_store_hits == len(defects)

    def test_cross_campaign_reuse_with_rebuilt_objects(self, setup,
                                                       tmp_path):
        chain, oracles, defects = setup
        store = ResultStore(tmp_path / "store")
        cold = run_campaign(chain.circuit, defects, oracles, store=store)

        # A second campaign built from scratch — new Circuit, new
        # oracle objects, new Defect instances — as another process or
        # CLI invocation would hold.
        chain2, oracles2, defects2 = _setup()
        assert chain2.circuit is not chain.circuit
        warm = run_campaign(chain2.circuit, defects2, oracles2,
                            store=ResultStore(tmp_path / "store"))
        assert warm.n_store_hits == len(defects)
        assert warm.records == cold.records

    def test_namespace_partitions_the_cache(self, setup, tmp_path):
        chain, oracles, defects = setup
        store = ResultStore(tmp_path / "store")
        run_campaign(chain.circuit, defects, oracles, store=store,
                     store_namespace="engine-a")
        other = run_campaign(chain.circuit, defects, oracles, store=store,
                             store_namespace="engine-b")
        assert other.n_store_hits == 0  # engine-a's records invisible
        again = run_campaign(chain.circuit, defects, oracles, store=store,
                             store_namespace="engine-b")
        assert again.n_store_hits == len(defects)

    def test_electrical_change_misses(self, setup, tmp_path):
        chain, oracles, defects = setup
        store = ResultStore(tmp_path / "store")
        run_campaign(chain.circuit, defects, oracles, store=store)
        changed = run_campaign(chain.circuit, defects, oracles,
                               options=SimOptions(gmin=1e-10), store=store)
        assert changed.n_store_hits == 0

    def test_execution_only_option_change_still_hits(self, setup,
                                                     tmp_path):
        chain, oracles, defects = setup
        store = ResultStore(tmp_path / "store")
        run_campaign(chain.circuit, defects, oracles, store=store)
        warm = run_campaign(chain.circuit, defects, oracles,
                            options=SimOptions(chunk_timeout_s=30.0),
                            store=store)
        assert warm.n_store_hits == len(defects)

    def test_quarantined_records_are_not_cached(self, setup, tmp_path):
        chain, oracles, defects = setup
        store = ResultStore(tmp_path / "store")
        starved = run_campaign(chain.circuit, defects, oracles,
                               options=SimOptions(solve_deadline_s=1e-9),
                               store=store)
        assert len(starved.quarantined()) == len(defects)
        # A transient failure (deadline, crashed worker) must not
        # poison the cache: nothing was written.
        assert starved.n_store_puts == 0
        assert len(store) == 0
        retry = run_campaign(chain.circuit, defects, oracles,
                             options=SimOptions(solve_deadline_s=1e-9),
                             store=store)
        assert retry.n_store_hits == 0

    def test_parallel_campaign_uses_the_store(self, setup, tmp_path):
        chain, oracles, defects = setup
        store = ResultStore(tmp_path / "store")
        cold = run_campaign(chain.circuit, defects, oracles, store=store,
                            parallel=True, workers=2, chunk_size=2)
        warm = run_campaign(chain.circuit, defects, oracles, store=store,
                            parallel=True, workers=2, chunk_size=2)
        assert warm.n_store_hits == len(defects)
        assert warm.records == cold.records

    def test_entry_json_shape_is_pinned(self, setup, tmp_path):
        # Every existing store holds entries in exactly this shape: a
        # campaign writes it, and an entry written in it is a hit.
        chain, oracles, defects = setup
        fresh = run_campaign(chain.circuit, defects[:1], oracles)
        record = fresh.records[0]
        entry = {"type": "record", "schema": 1,
                 "key": defect_key(record.defect),
                 "verdicts": dict(record.verdicts),
                 "converged": record.converged,
                 "newton_iterations": record.newton_iterations,
                 "solver": record.solver,
                 "n_factorizations": record.n_factorizations,
                 "gmin_steps": record.gmin_steps,
                 "source_steps": record.source_steps,
                 "quarantined": record.quarantined,
                 "quarantine_reason": record.quarantine_reason}
        address = result_key(
            campaign_fingerprint(chain.circuit, DEFAULT_OPTIONS, oracles),
            defect_key(record.defect))
        written = tmp_path / "written"
        run_campaign(chain.circuit, defects[:1], oracles, store=written)
        [segment] = (written / "segments").glob("*.jsonl")
        assert json.loads(segment.read_text()) == {
            "type": "record", "schema": 1, "key": address, "entry": entry}

        legacy = tmp_path / "legacy" / "segments"
        legacy.mkdir(parents=True)
        (legacy / "seg-1-legacy.jsonl").write_text(json.dumps(
            {"type": "record", "schema": 1, "key": address,
             "entry": entry}) + "\n")
        served = run_campaign(chain.circuit, defects[:1], oracles,
                              store=legacy.parent)
        assert served.n_store_hits == 1
        assert served.records == fresh.records


class TestStoreTelemetry:
    def test_span_attrs_and_counters(self, setup, tmp_path):
        chain, oracles, defects = setup
        store = ResultStore(tmp_path / "store")
        tel = Telemetry.capturing()
        options = replace(DEFAULT_OPTIONS, telemetry=tel)
        run_campaign(chain.circuit, defects, oracles, options=options,
                     store=store)
        warm_tel = Telemetry.capturing()
        run_campaign(chain.circuit, defects, oracles,
                     options=replace(DEFAULT_OPTIONS, telemetry=warm_tel),
                     store=store)
        cold_attrs = RunReport.from_telemetry(tel).named("campaign")[0][
            "attrs"]
        warm_attrs = RunReport.from_telemetry(warm_tel).named(
            "campaign")[0]["attrs"]
        assert cold_attrs["n_store_misses"] == len(defects)
        assert cold_attrs["n_store_puts"] == len(defects)
        assert warm_attrs["n_store_hits"] == len(defects)
        counters = warm_tel.metrics.snapshot()["counters"]
        assert counters["campaign.store_hits"] == len(defects)

    def test_untraced_store_counters_absent_without_store(self, setup):
        # The serial-equals-parallel metrics invariant depends on the
        # store counters only appearing when a store is in play.
        chain, oracles, defects = setup
        tel = Telemetry.capturing()
        run_campaign(chain.circuit, defects, oracles,
                     options=replace(DEFAULT_OPTIONS, telemetry=tel))
        counters = tel.metrics.snapshot()["counters"]
        assert "campaign.store_hits" not in counters
        attrs = RunReport.from_telemetry(tel).named("campaign")[0]["attrs"]
        assert "n_store_hits" not in attrs


class TestWorkerCacheStats:
    def test_serial_campaign_reports_cache_delta(self, setup):
        chain, oracles, defects = setup
        result = run_campaign(chain.circuit, defects, oracles)
        assert set(result.mna_cache_stats) == set(CACHE_STATS)
        assert result.mna_cache_stats["compiled_builds"] >= 1

    def test_parallel_campaign_aggregates_worker_deltas(self, setup):
        chain, oracles, defects = setup
        result = run_campaign(chain.circuit, defects, oracles,
                              parallel=True, workers=2, chunk_size=2)
        assert set(result.mna_cache_stats) == set(CACHE_STATS)
        # The workers' structure-cache activity is visible in the
        # parent's aggregate even though CACHE_STATS is per-process.
        total = sum(result.mna_cache_stats.values())
        assert total >= len(defects)

    def test_traced_span_carries_merged_delta(self, setup):
        chain, oracles, defects = setup
        tel = Telemetry.capturing()
        run_campaign(chain.circuit, defects, oracles,
                     options=replace(DEFAULT_OPTIONS, telemetry=tel),
                     parallel=True, workers=2, chunk_size=2)
        attrs = RunReport.from_telemetry(tel).named("campaign")[0]["attrs"]
        assert set(attrs["mna_cache_delta"]) == set(CACHE_STATS)


class TestCheckpointFingerprint:
    """The store is each campaign's checkpoint, and the campaign
    fingerprint is part of every address: the same campaign resumes
    from its records, and no other campaign can read them."""

    def test_same_campaign_resumes(self, setup, tmp_path):
        chain, oracles, defects = setup
        store = tmp_path / "store"
        partial = run_campaign(chain.circuit, defects[:2], oracles,
                               store=store)
        resumed = run_campaign(chain.circuit, defects, oracles, store=store)
        assert resumed.n_store_hits == 2
        assert resumed.n_store_misses == len(defects) - 2
        assert resumed.records[:2] == partial.records
        assert resumed.records == run_campaign(chain.circuit, defects,
                                               oracles).records

    def test_cross_campaign_keys_may_collide_but_fingerprints_refuse(
            self, setup, tmp_path):
        # Two campaigns over the same chain with different solver
        # options share every defect_key; the fingerprint gives each
        # its own store addresses, so one never reads the other's.
        chain, oracles, defects = setup
        chain2, oracles2, defects2 = _setup()
        assert [defect_key(d) for d in defects2] == \
            [defect_key(d) for d in defects]
        store = tmp_path / "store"
        run_campaign(chain.circuit, defects, oracles, store=store,
                     options=SimOptions(gmin=1e-12))
        other_options = SimOptions(gmin=1e-10)
        other = run_campaign(chain2.circuit, defects2, oracles2,
                             store=store, options=other_options)
        assert other.n_store_hits == 0
        assert other.records == run_campaign(
            chain2.circuit, defects2, oracles2,
            options=other_options).records
