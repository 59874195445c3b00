"""Fault-tolerant campaign execution: quarantine, deadlines, resume.

The acceptance scenario for the robustness layer: a campaign containing
a defect that crashes its worker and a defect that hangs it still
completes, every healthy defect gets its normal record, the offenders
are quarantined with reasons — and a campaign killed mid-run resumes
from its result store to a record-identical result.
"""

import multiprocessing
import os
import time
from dataclasses import replace

import pytest

from repro.circuit import VoltageSource
from repro.cml import NOMINAL, buffer_chain
from repro.dft import build_shared_monitor
from repro.faults import (
    FAIL,
    FlagOracle,
    IddqOracle,
    LogicOracle,
    Pipe,
    defect_key,
    enumerate_defects,
    run_campaign,
)
from repro.faults.campaign import RETRY_ITERATION_SCALE, _escalated
from repro.sim import SimOptions

TECH = NOMINAL
WORKERS = 2


class CrashPipe(Pipe):
    """Defect whose solve kills the worker process outright."""

    kind = "crash"

    def apply(self, circuit):
        if multiprocessing.parent_process() is not None:
            os._exit(1)
        raise RuntimeError("crash defect ran in the parent")

    def delta_conductances(self, circuit):
        return None


class HangPipe(Pipe):
    """Defect whose solve sleeps far past any liveness timeout."""

    kind = "hang"

    def apply(self, circuit):
        time.sleep(60.0)

    def delta_conductances(self, circuit):
        return None


class ClashingSources(Pipe):
    """Defect adding a 1 V and a 2 V source on one net: no solver rung
    finds an operating point."""

    kind = "clash"

    def apply(self, circuit):
        net = circuit[self.transistor].net("c")
        circuit.add(VoltageSource("FAULT_V1", net, "0", 1.0))
        circuit.add(VoltageSource("FAULT_V2", net, "0", 2.0))

    def delta_conductances(self, circuit):
        return None


@pytest.fixture(scope="module")
def setup():
    chain = buffer_chain(TECH, n_stages=2, frequency=100e6)
    monitor = build_shared_monitor(chain.circuit, chain.output_nets,
                                   tech=TECH)
    oracles = [
        LogicOracle(chain.output_nets),
        FlagOracle(monitor.nets.flag, monitor.nets.flagb),
        IddqOracle(),
    ]
    defects = list(enumerate_defects(chain.circuit, kinds=("pipe",),
                                     pipe_resistances=(4e3,)))[:4]
    baseline = run_campaign(chain.circuit, defects, oracles)
    return chain, oracles, defects, baseline


@pytest.mark.timeout(120)
class TestCrashAndHang:
    def test_campaign_survives_crash_and_hang(self, setup):
        chain, oracles, defects, baseline = setup
        mixed = (defects[:2] + [CrashPipe("X1.Q1", 4e3)] + defects[2:3]
                 + [HangPipe("X1.Q2", 4e3)] + defects[3:])
        started = time.perf_counter()
        result = run_campaign(chain.circuit, mixed, oracles,
                              parallel=True, workers=WORKERS, chunk_size=1,
                              chunk_timeout=3.0)
        elapsed = time.perf_counter() - started
        # The 60s hang defect must not have run in the parent.
        assert elapsed < 30.0
        assert len(result.records) == len(mixed)

        # Every healthy defect got its normal verdicts.
        by_key = {defect_key(r.defect): r for r in result.records}
        for record in baseline.records:
            survivor = by_key[defect_key(record.defect)]
            assert survivor.converged
            assert survivor.verdicts == record.verdicts

        # The offenders are quarantined, with reasons saying why.
        quarantined = {r.defect.kind: r for r in result.quarantined()}
        assert set(quarantined) == {"crash", "hang"}
        for record in quarantined.values():
            assert not record.converged
            assert record.solver == "none"
            assert all(v == FAIL for v in record.verdicts.values())
        assert "crash" in quarantined["crash"].quarantine_reason
        assert "timeout" in quarantined["hang"].quarantine_reason

        # coverage_matrix breaks solver failures out per kind.
        matrix = result.coverage_matrix()
        assert tuple(matrix["crash"]["solver_failed"]) == (1, 1)
        assert tuple(matrix["hang"]["solver_failed"]) == (1, 1)
        assert tuple(matrix["pipe"]["solver_failed"]) == (0, 4)
        assert "solver_failed" in result.format()


@pytest.mark.parametrize("chunk_size", [0, -3])
def test_chunk_size_below_one_is_rejected(setup, chunk_size):
    # Refused in the plan step, before a chunk size below 1 can lose
    # every unit's records in the pool.
    chain, oracles, defects, _ = setup
    with pytest.raises(ValueError, match="chunk_size"):
        run_campaign(chain.circuit, defects, oracles, parallel=True,
                     workers=WORKERS, chunk_size=chunk_size)


def test_chunk_timeout_without_parallel_is_rejected(setup):
    # A serial campaign runs in-process, where no liveness window can
    # be kept: refused rather than silently ignored.
    chain, oracles, defects, _ = setup
    with pytest.raises(ValueError, match="chunk_timeout"):
        run_campaign(chain.circuit, defects, oracles, chunk_timeout=1.0)


@pytest.mark.timeout(120)
def test_chunk_timeout_guards_a_single_low_rank_unit(setup):
    """A parallel low-rank campaign smaller than one unit is one work
    item; its hang is still caught."""
    chain, oracles, defects, _ = setup
    started = time.perf_counter()
    result = run_campaign(chain.circuit,
                          defects + [HangPipe("X1.Q2", 4e3)], oracles,
                          low_rank=True, parallel=True, workers=WORKERS,
                          chunk_timeout=3.0)
    assert time.perf_counter() - started < 30.0
    assert len(result.quarantined()) == len(defects) + 1
    assert all("timeout" in record.quarantine_reason
               for record in result.quarantined())


class TestSolverDeadline:
    def test_generous_deadline_changes_nothing(self, setup):
        chain, oracles, defects, baseline = setup
        result = run_campaign(chain.circuit, defects, oracles,
                              options=SimOptions(solve_deadline_s=60.0))
        assert result.records == baseline.records

    def test_tiny_deadline_quarantines_with_ladder_trail(self, setup):
        chain, oracles, defects, _ = setup
        result = run_campaign(chain.circuit, defects, oracles,
                              options=SimOptions(solve_deadline_s=1e-9))
        assert len(result.quarantined()) == len(defects)
        reason = result.records[0].quarantine_reason
        # The whole degradation ladder is in the trail.
        assert "warm-full" in reason and "cold-retry" in reason
        assert "budget" in reason
        matrix = result.coverage_matrix()["pipe"]
        n = len(defects)
        assert tuple(matrix["solver_failed"]) == (n, n)
        # Paper-faithful headline: failures still count as caught.
        assert tuple(matrix["any"]) == (n, n)

    def test_delta_path_records_delta_rung(self, setup):
        chain, oracles, defects, _ = setup
        result = run_campaign(chain.circuit, defects, oracles,
                              low_rank=True,
                              options=SimOptions(solve_deadline_s=1e-9))
        assert len(result.quarantined()) == len(defects)
        assert result.records[0].quarantine_reason.startswith("delta:")

    @pytest.mark.parametrize("low_rank", [False, True])
    def test_quarantine_after_every_rung_is_tagged_none(self, setup,
                                                        low_rank):
        """A defect no solver rung can solve is quarantined with
        ``solver="none"``: it never counts as a full solve."""
        chain, oracles, defects, _ = setup
        clash = ClashingSources(defects[0].transistor)
        result = run_campaign(chain.circuit, [clash, defects[1]], oracles,
                              low_rank=low_rank)
        record = result.records[0]
        assert record.quarantined and not record.converged
        assert "cold-retry" in record.quarantine_reason
        assert record.solver == "none"
        solved = "batched" if low_rank else "full"
        assert result.solver_counts() == {"none": 1, solved: 1}

    def test_escalated_options_grow_iteration_cap(self):
        assert RETRY_ITERATION_SCALE == 2.0
        options = SimOptions(max_nr_iterations=75, solve_deadline_s=1.0)
        escalated = _escalated(options)
        assert escalated.max_nr_iterations == 150
        assert escalated == replace(options, max_nr_iterations=150)


def _kill_then_rerun(circuit, defects, oracles, store, killed_at,
                     **engine):
    """Run into ``store`` until ``progress`` reports ``killed_at``
    defects done, die there, then rerun the same campaign."""

    class Killed(RuntimeError):
        pass

    def die(done, total, elapsed):
        if done >= killed_at:
            raise Killed

    with pytest.raises(Killed):
        run_campaign(circuit, defects, oracles, store=store, progress=die,
                     **engine)
    return run_campaign(circuit, defects, oracles, store=store, **engine)


class TestCheckpointResume:
    """A campaign's result store is its checkpoint: every finished unit
    is stored as the parent sees it, so a rerun resumes a killed run."""

    def test_roundtrip_is_record_identical(self, setup, tmp_path):
        chain, oracles, defects, baseline = setup
        full = tmp_path / "full"
        result = run_campaign(chain.circuit, defects, oracles, store=full)
        assert result.records == baseline.records
        [segment] = (full / "segments").glob("*.jsonl")

        # Simulate a crash: two stored records, plus a torn final line
        # the killed process never finished writing.
        lines = segment.read_text().splitlines(keepends=True)
        partial = tmp_path / "partial"
        (partial / "segments").mkdir(parents=True)
        (partial / "segments" / segment.name).write_text(
            "".join(lines[:2]) + '{"type": "record", "torn')

        resumed = run_campaign(chain.circuit, defects, oracles,
                               store=partial)
        assert resumed.records == baseline.records
        assert (resumed.n_store_hits, resumed.n_store_misses) == (2, 2)
        assert resumed.n_store_puts == 2

        # The store is complete again: a rerun solves nothing anew.
        again = run_campaign(chain.circuit, defects, oracles, store=partial)
        assert again.records == baseline.records
        assert again.n_store_hits == len(defects)

    def test_kill_mid_run_then_resume(self, setup, tmp_path):
        chain, oracles, defects, baseline = setup
        resumed = _kill_then_rerun(chain.circuit, defects, oracles,
                                   tmp_path / "store", killed_at=2)
        assert resumed.records == baseline.records
        assert (resumed.n_store_hits, resumed.n_store_misses) == (2, 2)

    def test_kill_mid_run_then_resume_parallel(self, setup, tmp_path):
        chain, oracles, defects, baseline = setup
        resumed = _kill_then_rerun(chain.circuit, defects, oracles,
                                   tmp_path / "store", killed_at=2,
                                   parallel=True, workers=WORKERS)
        assert resumed.records == baseline.records
        assert (resumed.n_store_hits, resumed.n_store_misses) == (2, 2)

    def test_kill_mid_run_then_resume_low_rank(self, setup, tmp_path):
        # Units of 16 defects at batch_size=1: the kill lands after the
        # first unit, and the rerun solves the second.
        chain, oracles, _, _ = setup
        defects = list(enumerate_defects(chain.circuit, kinds=("pipe",),
                                         pipe_resistances=(4e3,)))
        assert len(defects) > 16
        engine = dict(low_rank=True, batch_size=1)
        unbroken = run_campaign(chain.circuit, defects, oracles, **engine)
        resumed = _kill_then_rerun(chain.circuit, defects, oracles,
                                   tmp_path / "store", killed_at=16,
                                   **engine)
        assert resumed.records == unbroken.records
        assert resumed.n_store_hits == 16
        assert resumed.n_store_misses == len(defects) - 16

    def test_rerun_retries_quarantined_defects(self, setup, tmp_path):
        chain, oracles, defects, _ = setup
        store = tmp_path / "store"
        options = SimOptions(solve_deadline_s=1e-9)
        first = run_campaign(chain.circuit, defects, oracles,
                             options=options, store=store)
        assert all(r.quarantined for r in first.records)
        assert first.n_store_puts == 0
        # Nothing was stored, so the rerun solves every defect again —
        # and, the starvation being deterministic, gets the same records.
        rerun = run_campaign(chain.circuit, defects, oracles,
                             options=options, store=store)
        assert rerun.n_store_hits == 0
        assert rerun.n_store_misses == len(defects)
        assert rerun.records == first.records
