"""Transient-analysis tests against analytic RC/RL-free solutions."""

import math
import re

import numpy as np
import pytest

from repro.circuit import (
    Bjt,
    Capacitor,
    Circuit,
    Diode,
    Pulse,
    Pwl,
    Resistor,
    Sine,
    VoltageSource,
)
from repro.cml import NOMINAL, buffer_chain
from repro.dft import DetectorConfig, attach_variant2, ensure_vtest
from repro.dft import test_mode_entry as enter_test_mode
from repro.sim import transient


def rc_circuit(r=1000.0, c=1e-9, waveform=None) -> Circuit:
    circuit = Circuit("rc")
    if waveform is None:
        waveform = Pulse(0.0, 1.0, delay=0.0, rise=1e-12, fall=1e-12,
                         width=1.0, period=0.0)
    circuit.add(VoltageSource("V1", "in", "0", waveform))
    circuit.add(Resistor("R1", "in", "out", r))
    circuit.add(Capacitor("C1", "out", "0", c))
    return circuit


class TestRcStep:
    def test_charging_curve_matches_analytic(self):
        r, c = 1000.0, 1e-9
        tau = r * c
        circuit = rc_circuit(r, c)
        result = transient(circuit, t_stop=5 * tau, dt=tau / 100)
        wave = result.wave("out")
        for t in (0.5 * tau, tau, 2 * tau, 4 * tau):
            expected = 1.0 - math.exp(-t / tau)
            assert wave.value_at(t) == pytest.approx(expected, abs=5e-3)

    def test_starts_from_operating_point(self):
        # DC value of the pulse is v1=0, so the cap starts discharged.
        result = transient(rc_circuit(), t_stop=1e-9, dt=1e-11)
        assert result.wave("out").values[0] == pytest.approx(0.0, abs=1e-9)

    def test_use_ic_starts_from_cap_ic(self):
        circuit = rc_circuit()
        circuit["C1"].ic = 0.7
        result = transient(circuit, t_stop=1e-9, dt=1e-11, use_ic=True)
        # The first accepted step must already reflect the 0.7 V initial
        # condition discharging/charging toward the input.
        assert result.wave("out").values[1] == pytest.approx(0.7, abs=0.05)

    def test_rc_discharge_through_resistor(self):
        circuit = Circuit()
        circuit.add(Capacitor("C1", "out", "0", 1e-9, ic=1.0))
        circuit.add(Resistor("R1", "out", "0", 1000))
        tau = 1e-6
        result = transient(circuit, t_stop=2 * tau, dt=tau / 200, use_ic=True)
        assert result.wave("out").value_at(tau) == pytest.approx(
            math.exp(-1.0), abs=5e-3)


class TestSources:
    def test_sine_amplitude_and_frequency(self):
        circuit = Circuit()
        circuit.add(VoltageSource("V1", "in", "0",
                                  Sine(1.0, 0.5, frequency=1e6)))
        circuit.add(Resistor("R1", "in", "0", 1000))
        result = transient(circuit, t_stop=2e-6, dt=2e-9)
        wave = result.wave("in")
        assert wave.maximum() == pytest.approx(1.5, abs=1e-3)
        assert wave.minimum() == pytest.approx(0.5, abs=1e-3)
        # Falling crossings of the offset give the period (the signal
        # *starts* on the offset so the t=0 rise is not a crossing).
        falls = wave.crossings(1.0, "fall")
        assert len(falls) == 2
        assert falls[1] - falls[0] == pytest.approx(1e-6, rel=1e-3)

    def test_pulse_square_wave_levels(self):
        circuit = Circuit()
        circuit.add(VoltageSource("V1", "in", "0",
                                  Pulse.square(0.0, 1.0, frequency=1e8)))
        circuit.add(Resistor("R1", "in", "0", 1000))
        result = transient(circuit, t_stop=30e-9, dt=25e-12)
        vlow, vhigh = result.wave("in").levels()
        assert vlow == pytest.approx(0.0, abs=1e-6)
        assert vhigh == pytest.approx(1.0, abs=1e-6)

    def test_pwl_ramp(self):
        circuit = Circuit()
        circuit.add(VoltageSource("V1", "in", "0",
                                  Pwl([(0, 0), (1e-6, 2.0), (2e-6, 2.0)])))
        circuit.add(Resistor("R1", "in", "0", 1000))
        result = transient(circuit, t_stop=2e-6, dt=1e-8)
        assert result.wave("in").value_at(0.5e-6) == pytest.approx(1.0,
                                                                   abs=1e-3)
        assert result.wave("in").value_at(1.5e-6) == pytest.approx(2.0,
                                                                   abs=1e-3)

    def test_breakpoints_inserted_into_grid(self):
        # A pulse edge much shorter than dt must still be resolved.
        circuit = Circuit()
        pulse = Pulse(0.0, 1.0, delay=0.5e-9, rise=1e-12, fall=1e-12,
                      width=10e-9)
        circuit.add(VoltageSource("V1", "in", "0", pulse))
        circuit.add(Resistor("R1", "in", "0", 1000))
        result = transient(circuit, t_stop=2e-9, dt=0.4e-9)
        wave = result.wave("in")
        assert wave.value_at(0.4e-9) == pytest.approx(0.0, abs=1e-3)
        assert wave.value_at(0.6e-9) == pytest.approx(1.0, abs=1e-3)


class TestNonlinearTransient:
    def test_diode_rectifier(self):
        circuit = Circuit()
        circuit.add(VoltageSource("V1", "in", "0",
                                  Sine(0.0, 5.0, frequency=1e6)))
        circuit.add(Diode("D1", "in", "out", isat=1e-15))
        circuit.add(Resistor("RL", "out", "0", 10e3))
        circuit.add(Capacitor("CL", "out", "0", 1e-9))
        result = transient(circuit, t_stop=4e-6, dt=4e-9)
        wave = result.wave("out")
        # Peak rectifier: settles near the positive peak minus a diode drop.
        assert 3.8 < wave.window(3e-6, 4e-6).minimum() < 4.6

    def test_bjt_switching_inverts(self):
        circuit = Circuit()
        circuit.add(VoltageSource("VCC", "vcc", "0", 3.3))
        circuit.add(VoltageSource("VIN", "b", "0",
                                  Pulse.square(0.2, 1.4, frequency=1e8)))
        circuit.add(Resistor("RC", "vcc", "c", 500))
        circuit.add(Bjt("Q1", "c", "b", "e", isat=4e-19, cje=10e-15,
                        cjc=10e-15))
        circuit.add(Resistor("RE", "e", "0", 600))
        result = transient(circuit, t_stop=30e-9, dt=20e-12)
        vin = result.wave("b")
        vout = result.wave("c")
        # Output low when input high: inverting stage.
        t_in_high = vin.crossings(0.8, "rise")[1] + 2e-9
        assert vout.value_at(t_in_high) < 3.1
        assert vout.swing() > 0.2

    def test_junction_caps_slow_edges(self):
        def delay_with_cjc(cjc: float) -> float:
            circuit = Circuit()
            circuit.add(VoltageSource("VCC", "vcc", "0", 3.3))
            # Nearly instantaneous input edges so the output slope is set
            # by the collector RC pole, not by the stimulus.
            circuit.add(VoltageSource("VIN", "b", "0",
                                      Pulse.square(0.2, 0.95, frequency=1e8,
                                                   edge_fraction=0.002)))
            circuit.add(Resistor("RC", "vcc", "c", 2000))
            circuit.add(Bjt("Q1", "c", "b", "0", isat=4e-19, cjc=cjc))
            result = transient(circuit, t_stop=20e-9, dt=10e-12)
            fall_in = result.wave("b").crossings(0.7, "rise")[0]
            fall_out = result.wave("c").first_crossing(2.0, "fall",
                                                       after=fall_in)
            return fall_out - fall_in

        assert delay_with_cjc(400e-15) > 2 * delay_with_cjc(5e-15)


class TestResultContainer:
    def test_unknown_net_raises(self):
        result = transient(rc_circuit(), t_stop=1e-9, dt=1e-11)
        with pytest.raises(KeyError):
            result.wave("bogus")

    def test_ground_wave_is_zero(self):
        result = transient(rc_circuit(), t_stop=1e-9, dt=1e-11)
        assert np.all(result.wave("0").values == 0.0)

    def test_branch_wave(self):
        result = transient(rc_circuit(), t_stop=1e-9, dt=1e-11)
        wave = result.branch_wave("V1")
        assert wave.values.shape == result.times.shape

    def test_differential(self):
        result = transient(rc_circuit(), t_stop=1e-9, dt=1e-11)
        diff = result.differential("in", "out")
        assert diff.values == pytest.approx(
            result.wave("in").values - result.wave("out").values)

    def test_final_voltages(self):
        result = transient(rc_circuit(), t_stop=1e-9, dt=1e-11)
        final = result.final_voltages()
        assert set(final) == {"in", "out"}

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            transient(rc_circuit(), t_stop=0, dt=1e-12)
        with pytest.raises(ValueError):
            transient(rc_circuit(), t_stop=1e-9, dt=-1.0)


class TestCapOverrides:
    """``cap_overrides`` starts one capacitor at a given voltage."""

    def test_capacitor_starts_at_its_override(self):
        result = transient(rc_circuit(), t_stop=1e-9, dt=1e-11,
                           cap_overrides={"C1": 0.25})
        assert result.wave("out").values[0] == pytest.approx(0.25, abs=1e-6)

    def test_detector_load_precharge(self):
        """The detector experiments' override names one capacitor: C7
        starts discharged, vout at the supply."""
        chain = buffer_chain(NOMINAL, frequency=100e6)
        ensure_vtest(chain.circuit, NOMINAL, enter_test_mode(NOMINAL))
        detector = attach_variant2(chain.circuit, "op", "opb", tech=NOMINAL,
                                   config=DetectorConfig(load_cap=1e-12))
        load = chain.circuit[f"{detector.name}.C7"]
        result = transient(chain.circuit, t_stop=1e-10, dt=1e-11,
                           cap_overrides={load.name: 0.0})
        across = result.differential(load.net("p"), load.net("n"))
        assert abs(across.values[0]) < 1e-3

    def test_component_with_two_dynamic_elements_raises(self):
        """A BJT owns two junction capacitances: the override would be
        ambiguous, so it raises, naming the component."""
        circuit = buffer_chain(NOMINAL, 2, 1e9).circuit
        bjt = next(c for c in circuit if isinstance(c, Bjt))
        assert len(bjt.dynamic_elements()) == 2
        with pytest.raises(ValueError, match=re.escape(repr(bjt.name))):
            transient(circuit, t_stop=1e-10, dt=1e-11,
                      cap_overrides={bjt.name: 0.0})

    def test_component_without_dynamic_elements_raises(self):
        with pytest.raises(KeyError, match="R1"):
            transient(rc_circuit(), t_stop=1e-9, dt=1e-11,
                      cap_overrides={"R1": 0.0})
