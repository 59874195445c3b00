"""Integration tests of the experiment runners (reduced parameters).

The benchmarks assert the paper's claims at default scale; these tests
pin the runners' APIs and result invariants at the smallest settings so
regressions surface inside the fast suite.
"""

import math

import pytest

from repro.analysis import (
    dc_fault_coverage,
    fig2_stuck_at,
    fig4_healing,
    fig5_excursion,
    fig7_detector_response,
    fig12_hysteresis,
    fig14_load_sharing,
    section65_area,
    section66_toggle_study,
    table1_delays,
)
from repro.cml import NOMINAL, buffer_chain
from repro.dft import ComparatorConfig, build_shared_monitor
from repro.faults import FAIL, PASS, enumerate_defects, inject
from repro.sim import ConvergenceError, operating_point


def _cold_coverage(n_stages, kinds):
    """Per-defect ``(verdict, Iddq verdict)`` by the reference rules:
    inject, solve cold, read the monitor flag and screen ``|I - I_ref|``
    at 100 uA; a defect that does not converge is ``logic-dead`` with no
    Iddq verdict."""
    chain = buffer_chain(NOMINAL, n_stages=n_stages, frequency=100e6)
    defects = list(enumerate_defects(chain.circuit, kinds=kinds,
                                     pipe_resistances=(2e3, 4e3)))
    monitor = build_shared_monitor(chain.circuit, chain.output_nets,
                                   tech=NOMINAL)
    reference_iddq = operating_point(chain.circuit).branch_current("VGND")
    verdicts = {}
    for defect in defects:
        try:
            op = operating_point(inject(chain.circuit, defect))
        except ConvergenceError:
            verdicts[defect.name] = ("logic-dead", None)
            continue
        flagged = (op.voltage(monitor.nets.flag)
                   < op.voltage(monitor.nets.flagb))
        shifted = abs(op.branch_current("VGND") - reference_iddq) > 100e-6
        verdicts[defect.name] = ("detected" if flagged else "escaped",
                                 FAIL if shifted else PASS)
    return verdicts


class TestChainRunners:
    def test_fig2_result_fields(self):
        result = fig2_stuck_at(points_per_cycle=200, cycles=2.0)
        assert result.stuck_at_zero
        assert set(result.waves) == {"af", "abf", "opf", "opbf"}
        assert "stuck-at-0" in result.format()

    def test_fig4_result_consistency(self):
        result = fig4_healing(points_per_cycle=200, cycles=2.0)
        assert len(result.stage_names) == 8
        assert result.dut_swing_ratio > 1.5
        assert result.healed_by() is not None

    def test_table1_rows_aligned(self):
        result = table1_delays(points_per_cycle=800)
        assert len(result.taps) == 9
        for row in (result.ff_op, result.ff_opb, result.pipe_op,
                    result.pipe_opb):
            assert len(row) == 9
            assert row[0] == 0.0
        # Cumulative times increase along the chain.
        clean = [v for v in result.ff_op if v is not None]
        assert clean == sorted(clean)

    def test_fig5_reduced_sweep(self):
        result = fig5_excursion(pipe_values=(None, 1e3),
                                frequencies=(100e6, 1e9),
                                points_per_cycle=200, cycles=3.0)
        assert result.frequencies == [100e6, 1e9]
        assert result.vlow[1e3][0] < result.vlow[None][0]
        series = result.series(1e3)
        assert len(series) == 2


class TestDetectorRunners:
    def test_fig7_fields(self):
        result = fig7_detector_response(pipe_resistance=1e3,
                                        load_cap=1e-12, cycles=15)
        assert result.detected
        assert result.wave is not None
        assert result.v_min < NOMINAL.vgnd - 0.5

    def test_fig12_threshold_ordering(self):
        result = fig12_hysteresis()
        assert result.detect_threshold < result.release_threshold
        assert 0 < result.width < 0.1

    def test_fig14_small(self):
        result = fig14_load_sharing(n_values=(1, 10), faulty_pipe=None)
        assert result.faulty_vout_n1 is None
        assert result.vout[0] > result.vout[1]
        assert result.slope_per_gate > 0

    def test_fig14_without_a_passing_n(self):
        """The section 6.4 ablation's R0 breaks the scheme: no sampled N
        passes, and the safe bound reads NaN instead of crashing the
        report."""
        result = fig14_load_sharing(
            n_values=(45, 60), faulty_pipe=None,
            comparator_config=ComparatorConfig(r0=160e3))
        assert result.flag_pass == [False, False]
        assert math.isnan(result.safe_n)
        assert math.isnan(result.slope_per_gate)
        assert "safe N ~ nan" in result.format()


class TestMethodRunners:
    def test_area_study(self):
        study = section65_area(n_gates=50)
        assert set(study.relative_overhead) == {
            "xor-observer", "variant1", "variant2", "variant3-shared",
            "variant3-dual-emitter"}

    def test_toggle_study_unknown_benchmark(self):
        with pytest.raises(KeyError):
            section66_toggle_study(benchmark_name="nonexistent")

    def test_toggle_study_runs(self):
        study = section66_toggle_study(benchmark_name="shift4",
                                       n_vectors=64)
        assert study.final_coverage == 1.0

    def test_coverage_iddq_extension(self):
        study = dc_fault_coverage(n_stages=2, kinds=("pipe",),
                                  pipe_resistances=(4e3,))
        # Every Q3 pipe both flags the detector and raises Iddq.
        q3_names = [name for name, _, verdict in study.results
                    if "Q3" in name]
        assert q3_names
        for name, _kind, verdict in study.results:
            if "Q3" in name:
                assert verdict == "detected"
                assert study.iddq_verdicts[name] == FAIL
        assert "Iddq" in study.format()

    def test_coverage_matches_cold_per_defect_reference(self):
        """The campaign-backed study gives every defect the detector and
        Iddq verdicts of a cold inject-and-solve, opens included."""
        kinds = ("pipe", "terminal-short", "open", "resistor-short",
                 "resistor-open")
        study = dc_fault_coverage(n_stages=2, kinds=kinds)
        reference = _cold_coverage(2, kinds)
        assert len(study.results) == len(reference) == 56
        assert {kind for _, kind, _ in study.results} == set(kinds)
        for name, _kind, verdict in study.results:
            assert (verdict, study.iddq_verdicts.get(name)) == \
                reference[name], name

    def test_coverage_limit(self):
        study = dc_fault_coverage(n_stages=2, kinds=("pipe",),
                                  pipe_resistances=(4e3,), limit=3)
        assert len(study.results) == 3
