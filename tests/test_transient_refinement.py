"""Time-step error of the fixed-grid transient, checked by refinement.

The same run at ``dt`` and at ``dt / 4`` must agree within a stated
bound: on every library cell, on the 8-stage benchmark chain, and on
the DUT's local delay anomaly in one Table 1 row.  Each bound sits
about 1.5x above what the integrator gives today (quoted per test), so
an integrator change that loses accuracy crosses it: a trapezoidal
history term halved to ``0.5 * current`` reads 0.74 mV RMS on the
buffer, 0.81 mV on the chain and 2.4 ps of anomaly drift.
"""

import numpy as np
import pytest

from repro.analysis.chain_experiments import table1_delays
from repro.circuit import Circuit, VoltageSource
from repro.circuit.subcircuit import instantiate
from repro.cml import NOMINAL, VCS_NET, VGND_NET, buffer_chain
from repro.cml.cells import CELL_BUILDERS
from repro.cml.chain import differential_square
from repro.sim import transient
from repro.sim.options import SimOptions

TECH = NOMINAL

#: Bound on the RMS, over every net and sample, of a ``dt = 2 ps`` run
#: minus its ``dt / 4`` rerun at 1 GHz.  Today: 0.003-0.276 mV on the
#: cells (buffer and inverter the worst), 0.261 mV on the chain.
RMS_BOUND = 0.4e-3


def _trace_gaps(result, reference) -> np.ndarray:
    """Node-voltage gaps (samples x nets) at ``result``'s time points."""
    t = np.asarray(result.times)
    t_ref = np.asarray(reference.times)
    return np.column_stack([
        result.states[:, column]
        - np.interp(t, t_ref, reference.states[:, column])
        for column in result.structure.net_index.values()])


def _max_trace_error(result, reference) -> float:
    """Largest node-voltage gap, measured at ``result``'s time points."""
    return float(np.max(np.abs(_trace_gaps(result, reference))))


def _assert_refines(circuit: Circuit, t_stop: float, dt: float) -> None:
    coarse = transient(circuit, t_stop, dt, SimOptions())
    fine = transient(circuit, t_stop, dt / 4, SimOptions())
    rms = float(np.sqrt(np.mean(_trace_gaps(coarse, fine) ** 2)))
    assert rms < RMS_BOUND, (
        f"dt vs dt/4: {rms * 1e3:.3f} mV RMS, "
        f"{_max_trace_error(coarse, fine) * 1e3:.2f} mV max")


def _cell_transient_bench(cell, frequency: float) -> Circuit:
    """A transient testbench: rails, one toggling input, DC on the rest."""
    circuit = Circuit(f"bench_{cell.name}")
    TECH.add_supplies(circuit)
    connections = {}
    for rail in (VGND_NET, VCS_NET):
        if rail in cell.ports:
            connections[rail] = rail
    wave_p, wave_n = differential_square(TECH, frequency)
    for i, (port_p, port_n) in enumerate(cell.logic_inputs):
        shifted = port_p.endswith("l")
        high = TECH.low_level_high() if shifted else TECH.vhigh
        low = TECH.low_level_low() if shifted else TECH.vlow
        if i == 0 and not shifted:
            vp, vn = wave_p, wave_n
        else:
            vp, vn = (high, low) if i % 2 == 0 else (low, high)
        circuit.add(VoltageSource(f"V{port_p}", f"n_{port_p}", "0", vp))
        connections[port_p] = f"n_{port_p}"
        if port_n != port_p:
            circuit.add(VoltageSource(f"V{port_n}", f"n_{port_n}", "0", vn))
            connections[port_n] = f"n_{port_n}"
    for j, (out_p, out_n) in enumerate(cell.logic_outputs):
        connections[out_p] = f"out{j}_p"
        if out_n != out_p:
            connections[out_n] = f"out{j}_n"
    instantiate(circuit, cell, "U1", connections)
    return circuit


@pytest.mark.parametrize("cell_name", sorted(CELL_BUILDERS))
def test_cell_transient_refines_within_bound(cell_name):
    cell = CELL_BUILDERS[cell_name](TECH)
    _assert_refines(_cell_transient_bench(cell, frequency=1e9),
                    t_stop=1e-9, dt=2e-12)


def test_chain_transient_refines_within_bound():
    chain = buffer_chain(TECH, n_stages=8, frequency=1e9)
    _assert_refines(chain.circuit, t_stop=2e-9, dt=2e-12)


def test_table1_dut_anomaly_refines_within_bound():
    """The DUT's local ``op`` delay anomaly, the pipe's signature in
    Table 1, moves by under 1.5 ps from 300 to 1,200 points per cycle
    (today 56.30 vs 57.08 ps)."""
    anomalies = []
    for points in (300, 1200):
        table = table1_delays(points_per_cycle=points)
        anomalies.append(table.pipe_op[3] - table.ff_op[3])
    assert abs(anomalies[0] - anomalies[1]) < 1.5e-12
    assert 50e-12 < anomalies[1] < 65e-12
