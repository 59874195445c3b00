"""Cross-validation of independent engine paths against each other.

Production confidence comes from agreement between implementations that
share no code path: dense vs sparse linear algebra, and a divide-by-2
built from the synthesized DFF.  Two more cross-checks live beside the
code they check: transient vs DC-sweep hysteresis in
``test_dcsweep.py`` and edge-timed vs ring-oscillator delay in
``test_oscillator_variation.py``.
"""

import numpy as np
import pytest

from repro.circuit import Pulse, VoltageSource
from repro.cml import NOMINAL, buffer_chain, differential_prbs
from repro.faults import Pipe, inject
from repro.sim import SimOptions, operating_point, run_cycles, transient
from repro.testgen import LogicNetwork, synthesize

TECH = NOMINAL


class TestSparseVsDense:
    def _solve(self, circuit, threshold):
        options = SimOptions(sparse_threshold=threshold)
        return operating_point(circuit, options)

    def test_same_operating_point(self):
        chain = buffer_chain(TECH, n_stages=6)
        dense = self._solve(chain.circuit, 10_000)  # force dense
        sparse = self._solve(chain.circuit, 1)      # force sparse
        for net in chain.circuit.unknown_nets():
            assert sparse.voltage(net) == pytest.approx(
                dense.voltage(net), abs=1e-7)

    def test_same_faulty_operating_point(self):
        chain = buffer_chain(TECH, n_stages=4)
        faulty = inject(chain.circuit, Pipe("X2.Q3", 4e3))
        dense = self._solve(faulty, 10_000)
        sparse = self._solve(faulty, 1)
        assert sparse.voltage("op2") == pytest.approx(dense.voltage("op2"),
                                                      abs=1e-7)

    def test_same_transient(self):
        def run(threshold):
            chain = buffer_chain(TECH, n_stages=2, frequency=1e9)
            return run_cycles(chain.circuit, 1e9, cycles=1.0,
                              points_per_cycle=100,
                              options=SimOptions(sparse_threshold=threshold))

        dense = run(10_000)
        sparse = run(1)
        assert np.allclose(dense.wave("op2").values,
                           sparse.wave("op2").values, atol=1e-6)


class TestDividerAtTransistorLevel:
    def test_divide_by_two(self):
        """A DFF with its inverted output fed back halves the clock —
        gate-level intent verified on the synthesized transistor netlist.
        """
        network = LogicNetwork("divider")
        network.add_gate("INV", "inverter", ["q"], "d")
        network.add_gate("FF", "dff", ["d"], "q")
        network.add_output("q")
        design = synthesize(network, TECH)
        circuit = design.circuit

        clock = 200e6
        clk_p, clk_n = design.clock_nets
        circuit.add(VoltageSource("VCLK", clk_p, "0",
                                  Pulse.square(TECH.vlow, TECH.vhigh,
                                               clock)))
        circuit.add(VoltageSource("VCLKB", clk_n, "0",
                                  Pulse.square(TECH.vhigh, TECH.vlow,
                                               clock)))
        result = transient(circuit, t_stop=60e-9, dt=50e-12)
        q = result.differential(*design.pair("q")).window(15e-9, 60e-9)
        edges = q.crossings(0.0, "rise")
        assert len(edges) >= 3
        periods = [b - a for a, b in zip(edges, edges[1:])]
        for period in periods:
            assert period == pytest.approx(2.0 / clock, rel=0.1)


class TestPrbsStimulus:
    def test_differential_prbs_complementary(self):
        wave_p, wave_n = differential_prbs(TECH, 1e-9, seed=3)
        for t in (0.4e-9, 3.6e-9, 17.2e-9, 64.9e-9):
            total = wave_p.value(t) + wave_n.value(t)
            assert total == pytest.approx(TECH.vhigh + TECH.vlow,
                                          abs=1e-9)

    def test_prbs_drives_chain(self):

        chain = buffer_chain(TECH, n_stages=3, frequency=100e6,
                             stimulus=differential_prbs(TECH, 5e-9,
                                                        seed=9))
        result = run_cycles(chain.circuit, 100e6, cycles=4,
                            points_per_cycle=200)
        out = result.wave("op3").window(10e-9, 40e-9)
        vlow, vhigh = out.levels()
        assert vhigh - vlow == pytest.approx(TECH.swing, rel=0.1)
