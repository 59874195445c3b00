"""Tests for operating-point reports and waveform CSV persistence."""

import numpy as np
import pytest

from repro.circuit import Circuit, Diode, Resistor, VoltageSource
from repro.cml import NOMINAL, buffer_chain
from repro.sim import (
    NewtonStats,
    bjt_region,
    load_waveforms_csv,
    op_report,
    operating_point,
    run_cycles,
    save_waveforms_csv,
    solver_stats_report,
    total_supply_power,
)

TECH = NOMINAL


class TestRegionClassification:
    def test_active(self):
        assert bjt_region({"vbe": 0.9, "vbc": -1.0}) == "active"

    def test_saturation(self):
        assert bjt_region({"vbe": 0.9, "vbc": 0.8}) == "saturation"

    def test_cutoff(self):
        assert bjt_region({"vbe": 0.2, "vbc": -2.0}) == "cutoff"

    def test_reverse(self):
        assert bjt_region({"vbe": -0.5, "vbc": 0.8}) == "reverse"


class TestOpReport:
    @pytest.fixture(scope="class")
    def chain_solution(self):
        chain = buffer_chain(TECH, n_stages=2)
        return chain, operating_point(chain.circuit)

    def test_report_lists_all_transistors(self, chain_solution):
        chain, solution = chain_solution
        report = op_report(chain.circuit, solution)
        for name in ("X1.Q1", "X1.Q2", "X1.Q3", "X2.Q3"):
            assert name in report

    def test_current_sources_read_active(self, chain_solution):
        chain, solution = chain_solution
        report = op_report(chain.circuit, solution)
        for line in report.splitlines():
            if ".Q3" in line:
                assert "active" in line

    def test_sources_section(self, chain_solution):
        chain, solution = chain_solution
        report = op_report(chain.circuit, solution)
        assert "VGND" in report
        assert "Sources" in report

    def test_passives_optional(self, chain_solution):
        chain, solution = chain_solution
        assert "X1.R1" not in op_report(chain.circuit, solution)
        assert "X1.R1" in op_report(chain.circuit, solution,
                                    include_passives=True)

    def test_diode_section(self):
        circuit = Circuit()
        circuit.add(VoltageSource("V1", "a", "0", 2.0))
        circuit.add(Resistor("R1", "a", "d", 1000))
        circuit.add(Diode("D1", "d", "0"))
        solution = operating_point(circuit)
        assert "D1" in op_report(circuit, solution)

    def test_total_supply_power(self, chain_solution):
        chain, solution = chain_solution
        power = total_supply_power(chain.circuit, solution)
        # Two buffers at ~0.5 mA each from 3.3 V plus bias leakage.
        assert 2e-3 < power < 6e-3


class TestWaveformCsv:
    def test_roundtrip(self, tmp_path):
        chain = buffer_chain(TECH, n_stages=2, frequency=100e6)
        result = run_cycles(chain.circuit, 100e6, cycles=1.0,
                            points_per_cycle=50)
        path = tmp_path / "waves.csv"
        save_waveforms_csv(str(path), result, ["op1", "op2"])
        loaded = load_waveforms_csv(str(path))
        assert set(loaded) == {"op1", "op2"}
        original = result.wave("op1")
        assert np.allclose(loaded["op1"].values, original.values)
        assert np.allclose(loaded["op1"].times, original.times)

    def test_loaded_waveform_measurable(self, tmp_path):
        chain = buffer_chain(TECH, n_stages=1, frequency=100e6)
        result = run_cycles(chain.circuit, 100e6, cycles=2.0,
                            points_per_cycle=100)
        path = tmp_path / "w.csv"
        save_waveforms_csv(str(path), result, ["op1"])
        wave = load_waveforms_csv(str(path))["op1"]
        assert wave.swing() == pytest.approx(TECH.swing, rel=0.1)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            load_waveforms_csv(str(path))


class TestSolverStatsReport:
    def test_counters_always_shown(self):
        stats = NewtonStats(strategy="plain", iterations=7,
                            n_factorizations=2)
        line = solver_stats_report(stats)
        assert "strategy=plain" in line
        assert "iterations=7" in line
        assert "factorizations=2" in line
        # zero-valued optional counters stay out of the line
        assert "gmin_steps" not in line
        assert "batch_fallbacks" not in line

    def test_optional_counters_appear_when_nonzero(self):
        stats = NewtonStats(strategy="gmin-stepping", gmin_steps=4,
                            batch_fallbacks=1)
        line = solver_stats_report(stats)
        assert "batch_fallbacks=1" in line
        assert "gmin_steps=4" in line

    def test_real_solve_stats_render(self):
        chain = buffer_chain(TECH, n_stages=1)
        solution = operating_point(chain.circuit)
        line = solver_stats_report(solution.stats)
        assert "iterations=" in line
        assert "factorizations=" in line

    def test_empty_campaign_aggregate(self):
        """A campaign with zero records renders the all-zero baseline."""
        from repro.faults.campaign import CampaignResult

        line = solver_stats_report(CampaignResult().aggregate_stats())
        assert line == "strategy=campaign iterations=0 factorizations=0"

    def test_all_fallback_campaign_aggregate(self):
        """Every batch member fell back: fallbacks equal the record count
        and both attempts' work shows up in the aggregate."""
        from repro.faults.campaign import CampaignResult, FaultRecord
        from repro.faults.defects import Pipe

        records = [FaultRecord(defect=Pipe("X1.Q1", 1e3), verdicts={},
                               solver="delta-fallback",
                               newton_iterations=11, n_factorizations=11)
                   for _ in range(3)]
        result = CampaignResult(records=records, batch_fallbacks=3)
        assert result.solver_counts() == {"delta-fallback": 3}
        stats = result.aggregate_stats()
        assert stats.batch_fallbacks == 3
        line = solver_stats_report(stats)
        assert "iterations=33" in line
        assert "batch_fallbacks=3" in line

    def test_transient_with_zero_rejected_steps(self):
        """A fixed-step transient prints its Newton work and nothing
        else."""
        stats = NewtonStats(strategy="trapezoidal", iterations=42,
                            n_factorizations=42)
        line = solver_stats_report(stats)
        assert line == ("strategy=trapezoidal iterations=42 "
                        "factorizations=42")
