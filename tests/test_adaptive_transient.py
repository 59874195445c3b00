"""Tests for the LTE-controlled adaptive transient stepper.

The adaptive path must stay a drop-in replacement for the fixed grid:
same physics on every library cell (within the documented millivolt
tolerance), exact landings on waveform breakpoints, and honest rejected-
step accounting through :class:`~repro.sim.dc.NewtonStats`.
"""

import numpy as np
import pytest

from repro.circuit import Circuit, VoltageSource
from repro.circuit.subcircuit import instantiate
from repro.cml import NOMINAL, VCS_NET, VGND_NET, buffer_chain
from repro.cml.cells import CELL_BUILDERS
from repro.cml.chain import differential_square
from repro.sim import transient
from repro.sim.options import SimOptions
from repro.sim.transient import _next_step, _source_breakpoints

TECH = NOMINAL


# ----------------------------------------------------------------------
# Step-size controller (pure function)
# ----------------------------------------------------------------------

def test_next_step_growth_is_clamped():
    options = SimOptions()
    h = 1e-12
    assert _next_step(h, 1e-9, options, 1e-16, 1e-9) == pytest.approx(
        h * options.step_grow_limit)


def test_next_step_shrink_is_clamped():
    options = SimOptions()
    h = 1e-12
    assert _next_step(h, 1e9, options, 1e-16, 1e-9) == pytest.approx(
        h * options.step_shrink_limit)


def test_next_step_zero_error_grows_at_the_limit():
    options = SimOptions()
    h = 1e-12
    assert _next_step(h, 0.0, options, 1e-16, 1e-9) == pytest.approx(
        h * options.step_grow_limit)


def test_next_step_moderate_error_follows_third_order_rule():
    options = SimOptions()
    h, err = 1e-12, 0.5
    expected = h * options.step_safety * err ** (-1.0 / 3.0)
    assert _next_step(h, err, options, 1e-16, 1e-9) == pytest.approx(expected)


def test_next_step_respects_hard_bounds():
    options = SimOptions()
    assert _next_step(1e-12, 1e9, options, 5e-13, 1e-9) == 5e-13
    assert _next_step(1e-9, 1e-9, options, 1e-16, 1.5e-9) == 1.5e-9


# ----------------------------------------------------------------------
# Trace accuracy
# ----------------------------------------------------------------------

def _max_trace_error(result, reference) -> float:
    """Largest node-voltage gap, measured at ``result``'s time points."""
    t = np.asarray(result.times)
    t_ref = np.asarray(reference.times)
    worst = 0.0
    for net, column in result.structure.net_index.items():
        v = result.states[:, column]
        v_ref = np.interp(t, t_ref, reference.states[:, column])
        worst = max(worst, float(np.max(np.abs(v - v_ref))))
    return worst


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
def test_adaptive_matches_fixed_on_every_cell(cell_name):
    """Adaptive traces agree with a 4x-finer fixed grid on each cell.

    The same-dt fixed grid is not the yardstick here: backward Euler at
    ``dt`` carries several millivolts of its own truncation error around
    the 1 GHz edges, which would dominate the comparison.
    """
    cell = CELL_BUILDERS[cell_name](TECH)
    circuit = _cell_transient_bench(cell, frequency=1e9)
    t_stop, dt = 1e-9, 2e-12
    reference = transient(circuit, t_stop, dt / 4, SimOptions())
    adaptive = transient(circuit, t_stop, dt, SimOptions(adaptive_step=True))
    assert _max_trace_error(adaptive, reference) < 1e-3


def test_adaptive_chain_accuracy_against_oversampled_reference():
    """On the benchmark chain the trace stays within 1 mV of a 4x-finer
    fixed-grid reference while using several times fewer time points."""
    chain = buffer_chain(TECH, n_stages=4, frequency=1e9)
    t_stop, dt = 2e-9, 2e-12
    adaptive = transient(chain.circuit, t_stop, dt,
                         SimOptions(adaptive_step=True))
    reference = transient(chain.circuit, t_stop, dt / 4, SimOptions())
    fixed = transient(chain.circuit, t_stop, dt, SimOptions())
    assert _max_trace_error(adaptive, reference) < 1e-3
    assert len(adaptive.times) < len(fixed.times) / 2
    # The stepper chords through its LU factorization within each solve.
    assert adaptive.stats.n_reuses > 0


# ----------------------------------------------------------------------
# Controller behaviour
# ----------------------------------------------------------------------

def test_adaptive_lands_exactly_on_source_breakpoints():
    chain = buffer_chain(TECH, n_stages=2, frequency=1e9)
    t_stop, dt = 2e-9, 2e-12
    result = transient(chain.circuit, t_stop, dt,
                       SimOptions(adaptive_step=True))
    times = set(float(t) for t in result.times)
    breakpoints = _source_breakpoints(chain.circuit, t_stop)
    assert breakpoints, "bench stimulus should have waveform corners"
    for bp in breakpoints:
        assert bp in times
    assert float(result.times[0]) == 0.0
    assert float(result.times[-1]) == t_stop


def test_tight_tolerance_rejects_and_retries_steps():
    """An aggressive LTE tolerance must reject steps (and still finish)."""
    chain = buffer_chain(TECH, n_stages=2, frequency=1e9)
    loose = transient(chain.circuit, 1e-9, 2e-12,
                      SimOptions(adaptive_step=True))
    tight = transient(chain.circuit, 1e-9, 2e-12,
                      SimOptions(adaptive_step=True, lte_reltol=1e-6,
                                 lte_abstol=1e-7))
    assert tight.stats.n_rejected_steps > 0
    assert len(tight.times) > len(loose.times)


def test_fixed_grid_reports_no_rejected_steps():
    chain = buffer_chain(TECH, n_stages=2, frequency=1e9)
    result = transient(chain.circuit, 1e-9, 2e-12, SimOptions())
    assert result.stats.n_rejected_steps == 0
    assert result.stats.n_factorizations > 0
