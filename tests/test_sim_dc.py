"""DC operating-point tests against hand-computable circuits."""

import math

import numpy as np
import pytest

from repro.circuit import (
    Bjt,
    Capacitor,
    Circuit,
    CurrentSource,
    Diode,
    MultiEmitterBjt,
    Resistor,
    THERMAL_VOLTAGE,
    VoltageSource,
)
from repro.sim import kcl_residuals, operating_point


class TestLinearCircuits:
    def test_voltage_divider(self):
        circuit = Circuit()
        circuit.add(VoltageSource("V1", "in", "0", 10.0))
        circuit.add(Resistor("R1", "in", "mid", 1000))
        circuit.add(Resistor("R2", "mid", "0", 3000))
        op = operating_point(circuit)
        assert op.voltage("mid") == pytest.approx(7.5)
        assert op.voltage("in") == pytest.approx(10.0)

    def test_source_branch_current(self):
        circuit = Circuit()
        circuit.add(VoltageSource("V1", "in", "0", 10.0))
        circuit.add(Resistor("R1", "in", "0", 1000))
        op = operating_point(circuit)
        # Convention: branch current flows p -> n through the source, so a
        # battery driving a load reports a negative current.
        assert op.branch_current("V1") == pytest.approx(-0.01)

    def test_current_source_into_resistor(self):
        circuit = Circuit()
        circuit.add(CurrentSource("I1", "0", "out", 1e-3))
        circuit.add(Resistor("R1", "out", "0", 2000))
        op = operating_point(circuit)
        assert op.voltage("out") == pytest.approx(2.0)

    def test_superposition_of_two_sources(self):
        circuit = Circuit()
        circuit.add(VoltageSource("V1", "a", "0", 5.0))
        circuit.add(VoltageSource("V2", "b", "0", 3.0))
        circuit.add(Resistor("Ra", "a", "out", 1000))
        circuit.add(Resistor("Rb", "b", "out", 1000))
        circuit.add(Resistor("Rg", "out", "0", 1000))
        op = operating_point(circuit)
        # out = (5/1k + 3/1k) / (3/1k) = 8/3
        assert op.voltage("out") == pytest.approx(8.0 / 3.0)

    def test_differential_helper(self):
        circuit = Circuit()
        circuit.add(VoltageSource("V1", "a", "0", 2.0))
        circuit.add(VoltageSource("V2", "b", "0", 0.5))
        circuit.add(Resistor("R1", "a", "b", 1000))
        op = operating_point(circuit)
        assert op.differential("a", "b") == pytest.approx(1.5)

    def test_voltage_reads_the_solution_vector(self):
        """``voltage`` reads ``x`` at the net's index, ground reads 0.0,
        and an unknown net raises the KeyError of the structure's
        ``voltages_from`` accessor."""
        circuit = Circuit()
        circuit.add(VoltageSource("V1", "in", "0", 10.0))
        circuit.add(Resistor("R1", "in", "mid", 1000))
        circuit.add(Resistor("R2", "mid", "0", 3000))
        op = operating_point(circuit)
        accessor = op.structure.voltages_from(op.x)
        for net, value in op.voltages().items():
            assert type(op.voltage(net)) is float
            assert op.voltage(net) == value == accessor(net)
        assert op.voltage("0") == 0.0
        with pytest.raises(KeyError) as error:
            op.voltage("no_such_net")
        with pytest.raises(KeyError) as expected:
            accessor("no_such_net")
        assert str(error.value) == str(expected.value)

    def test_stacked_voltage_sources(self):
        circuit = Circuit()
        circuit.add(VoltageSource("V1", "a", "0", 1.0))
        circuit.add(VoltageSource("V2", "b", "a", 2.0))
        circuit.add(Resistor("R", "b", "0", 1000))
        op = operating_point(circuit)
        assert op.voltage("b") == pytest.approx(3.0)


class TestDiodeCircuits:
    def test_diode_forward_drop(self):
        isat = 1e-15
        circuit = Circuit()
        circuit.add(VoltageSource("V1", "in", "0", 5.0))
        circuit.add(Resistor("R1", "in", "d", 1000))
        circuit.add(Diode("D1", "d", "0", isat=isat))
        op = operating_point(circuit)
        vd = op.voltage("d")
        i = (5.0 - vd) / 1000
        # The diode equation must hold at the solution.
        expected_i = isat * (math.exp(vd / THERMAL_VOLTAGE) - 1)
        assert i == pytest.approx(expected_i, rel=1e-2)
        assert 0.6 < vd < 0.85

    def test_reverse_biased_diode_blocks(self):
        circuit = Circuit()
        circuit.add(VoltageSource("V1", "in", "0", -5.0))
        circuit.add(Resistor("R1", "in", "d", 1000))
        circuit.add(Diode("D1", "d", "0"))
        op = operating_point(circuit)
        # Almost no current: the node follows the source.
        assert op.voltage("d") == pytest.approx(-5.0, abs=1e-3)

    def test_two_diodes_in_series_split_drop(self):
        circuit = Circuit()
        circuit.add(VoltageSource("V1", "in", "0", 5.0))
        circuit.add(Resistor("R1", "in", "d1", 1000))
        circuit.add(Diode("D1", "d1", "d2", isat=1e-15))
        circuit.add(Diode("D2", "d2", "0", isat=1e-15))
        op = operating_point(circuit)
        v1 = op.voltage("d1") - op.voltage("d2")
        v2 = op.voltage("d2")
        assert v1 == pytest.approx(v2, rel=1e-3)


class TestBjtCircuits:
    def make_common_emitter(self, vcc=5.0, rb=100e3, rc=1000):
        circuit = Circuit()
        circuit.add(VoltageSource("VCC", "vcc", "0", vcc))
        circuit.add(Resistor("RB", "vcc", "b", rb))
        circuit.add(Resistor("RC", "vcc", "c", rc))
        circuit.add(Bjt("Q1", "c", "b", "0", isat=1e-16, beta_f=100))
        return circuit

    def test_common_emitter_active_region(self):
        circuit = self.make_common_emitter()
        op = operating_point(circuit)
        info = op.operating_info("Q1")
        # Ib ~ (5 - 0.75) / 100k ~ 42 uA, Ic ~ beta * Ib while active.
        assert info["vbe"] == pytest.approx(0.78, abs=0.08)
        assert info["ic"] == pytest.approx(100 * info["ib"], rel=0.05)
        assert 0.2 < op.voltage("c") < 1.5

    def test_saturated_bjt_vce_small(self):
        # Huge base drive with large collector resistor: saturation.
        circuit = self.make_common_emitter(rb=10e3, rc=100e3)
        op = operating_point(circuit)
        vce = op.voltage("c")
        assert vce < 0.25

    def test_emitter_follower_level_shift(self):
        circuit = Circuit()
        circuit.add(VoltageSource("VCC", "vcc", "0", 3.3))
        circuit.add(VoltageSource("VIN", "b", "0", 2.0))
        circuit.add(Bjt("Q1", "vcc", "b", "e", isat=4e-19))
        circuit.add(Resistor("RE", "e", "0", 4000))
        op = operating_point(circuit)
        vbe = 2.0 - op.voltage("e")
        assert 0.8 < vbe < 1.0  # ~900 mV technology

    def test_kcl_residuals_tiny(self):
        circuit = self.make_common_emitter()
        op = operating_point(circuit)
        residuals = kcl_residuals(circuit, op)
        # Residuals scale with junction conductance times the Newton voltage
        # tolerance; 1e-7 A is far below any current of interest here.
        assert max(abs(r) for r in residuals.values()) < 1e-7

    def test_operating_info_for_source(self):
        circuit = self.make_common_emitter()
        op = operating_point(circuit)
        info = op.operating_info("VCC")
        assert info["v"] == pytest.approx(5.0)
        assert info["i"] < 0  # battery delivering current

    def test_initial_guess_reuse(self):
        circuit = self.make_common_emitter()
        op1 = operating_point(circuit)
        op2 = operating_point(circuit, initial=op1.x)
        assert np.allclose(op1.x, op2.x, atol=1e-6)
        assert op2.stats.iterations <= op1.stats.iterations


class TestMultiEmitterBjt:
    def test_matches_parallel_single_emitter(self):
        """A dual-emitter transistor with both emitters tied together must
        behave like a single transistor of the same total emitter area."""

        def build(multi: bool) -> Circuit:
            circuit = Circuit()
            circuit.add(VoltageSource("VCC", "vcc", "0", 3.3))
            circuit.add(VoltageSource("VB", "b", "0", 1.0))
            circuit.add(Resistor("RC", "vcc", "c", 500))
            circuit.add(Resistor("RE", "e", "0", 1000))
            if multi:
                circuit.add(MultiEmitterBjt("Q", "c", "b", ["e", "e"],
                                            isat=1e-18))
            else:
                circuit.add(Bjt("Q1", "c", "b", "e", isat=1e-18))
                circuit.add(Bjt("Q2", "c", "b", "e", isat=1e-18))
            return circuit

        op_multi = operating_point(build(True))
        op_pair = operating_point(build(False))
        assert op_multi.voltage("c") == pytest.approx(op_pair.voltage("c"),
                                                      abs=2e-3)
        assert op_multi.voltage("e") == pytest.approx(op_pair.voltage("e"),
                                                      abs=2e-3)

    def test_independent_emitters_conduct_independently(self):
        circuit = Circuit()
        circuit.add(VoltageSource("VCC", "vcc", "0", 3.3))
        circuit.add(VoltageSource("VB", "b", "0", 1.2))
        circuit.add(VoltageSource("VE2", "e2", "0", 1.0))  # reverse-biased
        circuit.add(Resistor("RC", "vcc", "c", 500))
        circuit.add(Resistor("RE1", "e1", "0", 1000))
        circuit.add(MultiEmitterBjt("Q", "c", "b", ["e1", "e2"], isat=4e-19))
        op = operating_point(circuit)
        info = op.operating_info("Q")
        assert info["ide_e1"] > 100 * max(info["ide_e2"], 1e-15)

    def test_kcl_holds_for_multi_emitter(self):
        circuit = Circuit()
        circuit.add(VoltageSource("VCC", "vcc", "0", 3.3))
        circuit.add(VoltageSource("VB", "b", "0", 1.0))
        circuit.add(Resistor("RC", "vcc", "c", 500))
        circuit.add(Resistor("RE1", "e1", "0", 1500))
        circuit.add(Resistor("RE2", "e2", "0", 1000))
        circuit.add(MultiEmitterBjt("Q", "c", "b", ["e1", "e2"], isat=4e-19))
        op = operating_point(circuit)
        residuals = kcl_residuals(circuit, op)
        assert max(abs(r) for r in residuals.values()) < 1e-9


class TestRobustness:
    def test_floating_net_raises(self):
        circuit = Circuit()
        circuit.add(VoltageSource("V1", "in", "0", 1.0))
        circuit.add(Resistor("R1", "in", "out", 1000))
        circuit.add(Capacitor("Cfloat", "other", "0", 1e-12))
        with pytest.raises(Exception):
            operating_point(circuit)

    def test_voltage_source_loop_raises(self):
        circuit = Circuit()
        circuit.add(VoltageSource("V1", "a", "0", 1.0))
        circuit.add(VoltageSource("V2", "a", "0", 2.0))
        circuit.add(Resistor("R", "a", "0", 1000))
        with pytest.raises(Exception):
            operating_point(circuit)

    def test_stats_reported(self):
        circuit = Circuit()
        circuit.add(VoltageSource("V1", "in", "0", 1.0))
        circuit.add(Resistor("R1", "in", "0", 1000))
        op = operating_point(circuit)
        assert op.stats.iterations >= 1
        assert op.stats.strategy == "newton"
