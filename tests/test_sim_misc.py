"""Coverage of the smaller engine pieces: options, reporting helpers,
transient step-halving and source edge cases."""


import pytest

from repro.analysis.reporting import (
    format_series,
    format_table,
    nanoseconds,
    picoseconds,
)
from repro.circuit import (
    Capacitor,
    Circuit,
    Dc,
    Prbs,
    Pulse,
    Pwl,
    Resistor,
    Sine,
    VoltageSource,
)
from repro.sim import SimOptions, run_cycles, transient
from repro.sim.dc import GMIN_FACTOR, GMIN_START, SOURCE_STEPS, gmin_ladder
from repro.sim.options import DEFAULT_OPTIONS


class TestOptions:
    def test_gmin_ladder_descends_to_gmin(self):
        assert (GMIN_START, GMIN_FACTOR, SOURCE_STEPS) == (1e-2, 10.0, 20)
        ladder = gmin_ladder(SimOptions().gmin)
        # Built by repeated division, so the rungs from 1e-6 down carry
        # its rounding; a literal tuple of powers of ten would differ.
        assert ladder == (0.01, 0.001, 0.0001, 1e-05, 1.0000000000000002e-06,
                          1.0000000000000002e-07, 1.0000000000000002e-08,
                          1.0000000000000003e-09, 1.0000000000000003e-10,
                          1.0000000000000003e-11, 1e-12)
        assert all(a > b for a, b in zip(ladder, ladder[1:]))

    def test_defaults_are_shared_instance(self):
        assert DEFAULT_OPTIONS.reltol == 1e-3


class TestReportingHelpers:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], [30, None]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "-" in lines[1]
        assert lines[3].endswith("-")  # None renders as '-'

    def test_format_table_title(self):
        text = format_table(["x"], [[1]], title="T")
        assert text.splitlines()[0] == "T"

    def test_format_series(self):
        text = format_series("s", [(1.0, 2.0)], "f", "v")
        assert "f -> v" in text
        assert "1" in text and "2" in text

    def test_unit_helpers(self):
        assert picoseconds(53e-12) == pytest.approx(53.0)
        assert nanoseconds(12.8e-9) == pytest.approx(12.8)
        assert picoseconds(None) is None
        assert nanoseconds(None) is None


class TestTransientRobustness:
    def test_step_halving_recovers(self):
        """A step too coarse for the source edge must be refined, not
        aborted: the result still resolves the edge."""
        circuit = Circuit()
        circuit.add(VoltageSource(
            "V1", "in", "0",
            Pwl([(0.0, 0.0), (1.0e-9, 0.0), (1.001e-9, 5.0),
                 (3e-9, 5.0)])))
        circuit.add(Resistor("R1", "in", "out", 100))
        circuit.add(Capacitor("C1", "out", "0", 1e-12))
        result = transient(circuit, 3e-9, 0.5e-9)
        # The BE restart at the breakpoint damps the trapezoidal ringing;
        # residual oscillation at this deliberately coarse step (5x the
        # circuit tau) stays within a quarter volt and decays.
        assert result.wave("out").values[-1] == pytest.approx(5.0, abs=0.25)
        late = result.wave("out").window(1.4e-9, 3e-9)
        assert late.maximum() < 6.0

    def test_run_cycles_kwargs_passthrough(self):
        circuit = Circuit()
        circuit.add(VoltageSource("V1", "in", "0", Dc(1.0)))
        circuit.add(Resistor("R1", "in", "out", 1000))
        circuit.add(Capacitor("C1", "out", "0", 1e-12))
        result = run_cycles(circuit, 1e9, cycles=1.0, points_per_cycle=20,
                            cap_overrides={"C1": 0.5})
        # The consistency step pins the first stored sample near 0.5 V.
        assert result.wave("out").values[0] == pytest.approx(0.5, abs=0.05)

    def test_unknown_cap_override_rejected(self):
        circuit = Circuit()
        circuit.add(VoltageSource("V1", "in", "0", Dc(1.0)))
        circuit.add(Resistor("R1", "in", "out", 1000))
        circuit.add(Capacitor("C1", "out", "0", 1e-12))
        with pytest.raises(KeyError):
            transient(circuit, 1e-9, 1e-10, cap_overrides={"C9": 0.0})


class TestSourceEdgeCases:
    def test_pulse_validation(self):
        with pytest.raises(ValueError):
            Pulse(0, 1, rise=0.0)
        with pytest.raises(ValueError):
            Pulse(0, 1, width=-1e-9)
        with pytest.raises(ValueError):
            Pulse(0, 1, rise=1e-9, fall=1e-9, width=5e-9, period=3e-9)

    def test_pulse_single_shot(self):
        pulse = Pulse(0, 1, rise=1e-10, fall=1e-10, width=1e-9, period=0)
        assert pulse.value(0.5e-9) == 1.0
        assert pulse.value(10e-9) == 0.0

    def test_sine_validation(self):
        with pytest.raises(ValueError):
            Sine(0, 1, frequency=0)

    def test_sine_delay_holds(self):
        wave = Sine(1.0, 0.5, 1e9, delay=1e-9)
        assert wave.value(0.5e-9) == wave.value(0.0)

    def test_pwl_validation(self):
        with pytest.raises(ValueError):
            Pwl([(0, 1)])
        with pytest.raises(ValueError):
            Pwl([(0, 1), (0, 2)])

    def test_prbs_validation(self):
        with pytest.raises(ValueError):
            Prbs(0, 1, 1e-9, order=6)
        with pytest.raises(ValueError):
            Prbs(0, 1, 1e-9, seed=0)

    def test_prbs_period_and_levels(self):
        prbs = Prbs(0.0, 1.0, 1e-9, order=7, seed=3)
        values = {prbs.value(t * 1e-9 + 0.5e-9) for t in range(127)}
        assert values == {0.0, 1.0}
        # Bit sequence repeats with the LFSR period.
        assert prbs.bit(5) == prbs.bit(5 + 127)

    def test_breakpoints_cover_edges(self):
        pulse = Pulse(0, 1, delay=1e-9, rise=1e-10, fall=1e-10,
                      width=1e-9, period=5e-9)
        points = pulse.breakpoints(6e-9)
        assert any(abs(p - 1e-9) < 1e-12 for p in points)
        assert all(0 < p < 6e-9 for p in points)

    def test_dc_breakpoints_empty(self):
        assert Dc(1.0).breakpoints(1e-6) == []
