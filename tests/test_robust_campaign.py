"""Fault-tolerant campaign execution: quarantine, deadlines, resume.

The acceptance scenario for the robustness layer: a campaign containing
a defect that crashes its worker and a defect that hangs it still
completes, every healthy defect gets its normal record, the offenders
are quarantined with reasons — and a campaign killed mid-run resumes
from its JSONL checkpoint to a record-identical result.
"""

import multiprocessing
import os
import time

import pytest

from repro.circuit import VoltageSource
from repro.cml import NOMINAL, buffer_chain
from repro.dft import build_shared_monitor
from repro.faults import (
    CHECKPOINT_SCHEMA,
    FAIL,
    FlagOracle,
    IddqOracle,
    LogicOracle,
    Pipe,
    defect_key,
    enumerate_defects,
    load_checkpoint,
    run_campaign,
)
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
        options = SimOptions(chunk_timeout_s=3.0,
                             chunk_retry_backoff_s=0.0)
        started = time.perf_counter()
        result = run_campaign(chain.circuit, mixed, oracles,
                              options=options, parallel=True,
                              workers=WORKERS, chunk_size=1)
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
        options = SimOptions(max_nr_iterations=100,
                             retry_iteration_scale=2.5)
        assert options.escalated().max_nr_iterations == 250
        assert options.escalated().reltol == options.reltol


class TestCheckpointResume:
    def test_roundtrip_is_record_identical(self, setup, tmp_path):
        chain, oracles, defects, baseline = setup
        full = str(tmp_path / "full.jsonl")
        result = run_campaign(chain.circuit, defects, oracles,
                              checkpoint=full)
        assert result.records == baseline.records
        entries = load_checkpoint(full)
        assert set(entries) == {defect_key(d) for d in defects}

        # Simulate a crash: keep the header + two records, plus a torn
        # final line the killed process never finished writing.
        with open(full, encoding="utf-8") as handle:
            lines = handle.readlines()
        partial = str(tmp_path / "partial.jsonl")
        with open(partial, "w", encoding="utf-8") as handle:
            handle.writelines(lines[:3])
            handle.write('{"type": "record", "torn')

        resumed = run_campaign(chain.circuit, defects, oracles,
                               checkpoint=partial, resume=True)
        assert resumed.records == baseline.records
        assert resumed.n_resumed == 2
        # The resumed run healed its own checkpoint: complete again.
        assert set(load_checkpoint(partial)) == set(entries)

        # Resuming the now-complete checkpoint solves nothing anew.
        again = run_campaign(chain.circuit, defects, oracles,
                             checkpoint=partial, resume=True)
        assert again.records == baseline.records
        assert again.n_resumed == len(defects)

    def test_kill_mid_run_then_resume(self, setup, tmp_path):
        chain, oracles, defects, baseline = setup
        path = str(tmp_path / "killed.jsonl")

        class Killed(RuntimeError):
            pass

        def die_after_two(done, total, elapsed):
            if done == 2:
                raise Killed

        with pytest.raises(Killed):
            run_campaign(chain.circuit, defects, oracles, checkpoint=path,
                         progress=die_after_two)
        assert len(load_checkpoint(path)) == 2

        resumed = run_campaign(chain.circuit, defects, oracles,
                               checkpoint=path, resume=True)
        assert resumed.records == baseline.records
        assert resumed.n_resumed == 2

    def test_resume_from_separate_file(self, setup, tmp_path):
        chain, oracles, defects, baseline = setup
        old = str(tmp_path / "old.jsonl")
        new = str(tmp_path / "new.jsonl")
        run_campaign(chain.circuit, defects, oracles, checkpoint=old)
        carried = run_campaign(chain.circuit, defects, oracles,
                               checkpoint=new, resume=old)
        assert carried.records == baseline.records
        assert carried.n_resumed == len(defects)
        # The carried-forward records were replayed into the new file.
        assert set(load_checkpoint(new)) == {defect_key(d)
                                             for d in defects}

    def test_resume_true_requires_checkpoint(self, setup):
        chain, oracles, defects, _ = setup
        with pytest.raises(ValueError, match="checkpoint"):
            run_campaign(chain.circuit, defects, oracles, resume=True)

    def test_loader_tolerates_garbage(self, tmp_path):
        path = str(tmp_path / "garbage.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("not json at all\n")
            handle.write('{"type": "header", "schema": '
                         f'{CHECKPOINT_SCHEMA}}}\n')
            handle.write('["a", "list", "entry"]\n')
            handle.write('{"type": "record"}\n')  # no key
            handle.write('{"type": "rec')
        assert load_checkpoint(path) == {}
        assert load_checkpoint(str(tmp_path / "missing.jsonl")) == {}

    def test_quarantined_records_checkpoint_and_resume(self, setup,
                                                       tmp_path):
        chain, oracles, defects, _ = setup
        path = str(tmp_path / "quarantine.jsonl")
        options = SimOptions(solve_deadline_s=1e-9)
        first = run_campaign(chain.circuit, defects, oracles,
                             options=options, checkpoint=path)
        # A resumed run must not pay for the quarantined defects again —
        # their (all-FAIL, reason-carrying) records come from the file.
        resumed = run_campaign(chain.circuit, defects, oracles,
                               options=options, checkpoint=path,
                               resume=True)
        assert resumed.n_resumed == len(defects)
        assert resumed.records == first.records
        assert all(r.quarantined for r in resumed.records)
        assert resumed.records[0].quarantine_reason == \
            first.records[0].quarantine_reason
