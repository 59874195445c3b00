"""Solve runs: when device values are read, where limiting state lands,
and that solved circuits are freed.

A compiled solve run (one operating-point Newton solve, one whole
transient) gathers device parameters and junction-limiting state once
and writes the limiting state back to the devices once, when it returns
or raises.  Mutating a device, a resistor or a source between runs must
therefore take effect exactly as on a freshly built circuit, and the
devices must hold the state the compiled arrays ended with, because
``kcl_residuals`` reads it from there.
"""

import copy
import gc
import pickle
import weakref

import numpy as np
import pytest

from repro.circuit import Bjt, Resistor
from repro.cml import NOMINAL, buffer_chain
from repro.cml.chain import differential_square
from repro.dft import build_shared_monitor
from repro.faults import (FlagOracle, IddqOracle, LogicOracle,
                          enumerate_defects, run_campaign)
from repro.sim import operating_point, transient
from repro.sim.dc import ConvergenceError
from repro.sim.mna import structure_for
from repro.sim.options import SimOptions
from repro.telemetry import Telemetry

T_STOP = 3e-9
DT = 20e-12


def _chain():
    return buffer_chain(NOMINAL, n_stages=2, frequency=1e9).circuit


def _scale_isat(circuit):
    bjt = next(c for c in circuit if isinstance(c, Bjt))
    bjt.isat *= 1.6


def _scale_resistor(circuit):
    resistor = next(c for c in circuit if isinstance(c, Resistor))
    resistor.resistance *= 1.3


def _swap_stimulus(circuit):
    wave_p, wave_n = differential_square(NOMINAL, 1.7e9)
    circuit["Va"].waveform = wave_p
    circuit["Vab"].waveform = wave_n


MUTATIONS = {"bjt-isat": _scale_isat, "resistor": _scale_resistor,
             "source-waveform": _swap_stimulus}


def _device_limits(structure):
    """Limiting state stored on the devices, in junction-vector order."""
    devices = structure.nonlinear
    diodes = [d for d in devices if d.device_kind == "diode"]
    bjts = [q for q in devices if q.device_kind == "bjt"]
    return ([d._v_last for d in diodes] + [q._vbe_last for q in bjts]
            + [q._vbc_last for q in bjts])


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_mutation_between_transients_matches_fresh_circuit(mutation):
    mutate = MUTATIONS[mutation]
    circuit = _chain()
    before = transient(circuit, T_STOP, DT)
    mutate(circuit)
    after = transient(circuit, T_STOP, DT)

    fresh = _chain()
    mutate(fresh)
    expected = transient(fresh, T_STOP, DT)
    np.testing.assert_array_equal(after.times, expected.times)
    np.testing.assert_array_equal(after.states, expected.states)
    assert after.stats.iterations == expected.stats.iterations
    assert not np.array_equal(before.states[-1], after.states[-1])


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_mutation_between_operating_points_matches_fresh_circuit(mutation):
    mutate = MUTATIONS[mutation]
    circuit = _chain()
    options = SimOptions(sparse_threshold=1)
    before = operating_point(circuit, options)
    mutate(circuit)
    after = operating_point(circuit, options)

    fresh = _chain()
    mutate(fresh)
    expected = operating_point(fresh, options)
    np.testing.assert_array_equal(after.x, expected.x)
    if mutation != "source-waveform":  # square waves share their DC value
        assert not np.array_equal(before.x, after.x)


@pytest.mark.parametrize("options", [
    SimOptions(),
    # Few enough iterations that steps fail and are halved.
    SimOptions(max_nr_iterations=4, max_step_halvings=6),
], ids=["fixed-grid", "halving"])
def test_transient_writes_limiting_state_back(options):
    circuit = _chain()
    operating_point(circuit)
    structure = structure_for(circuit)
    after_op = _device_limits(structure)
    transient(circuit, T_STOP, DT, options)
    stored = _device_limits(structure)
    assert stored == structure.compiled().snapshot_limits().tolist()
    assert stored != after_op


def test_failed_transient_writes_limiting_state_back():
    circuit = _chain()
    initial = operating_point(circuit)
    structure = structure_for(circuit)
    after_op = _device_limits(structure)
    # Zero tolerances: no Newton step can converge, so the first
    # timestep fails and the run raises.
    hopeless = SimOptions(reltol=0.0, vntol=0.0, abstol=0.0,
                          max_nr_iterations=3, max_step_halvings=1)
    with pytest.raises(ConvergenceError):
        transient(circuit, T_STOP, DT, hopeless, initial=initial)
    stored = _device_limits(structure)
    assert stored == structure.compiled().snapshot_limits().tolist()
    assert stored != after_op


@pytest.mark.parametrize("traced", [False, True], ids=["plain", "traced"])
def test_failed_transient_carries_its_newton_work(traced):
    """A transient that fails raises with the run's NewtonStats, folded
    into the metrics registry as a finished run's are."""
    circuit = _chain()
    initial = operating_point(circuit)
    telemetry = Telemetry.capturing() if traced else None
    one_shot = SimOptions(max_nr_iterations=1, max_step_halvings=0,
                          telemetry=telemetry)
    with pytest.raises(ConvergenceError) as raised:
        transient(circuit, 2e-9, 1e-11, one_shot, initial=initial)
    stats = raised.value.stats
    assert stats is not None
    assert (stats.iterations, stats.n_factorizations) == (1, 1)
    if traced:
        telemetry.flush_metrics()
        counters = telemetry.events()[-1]["counters"]
        assert counters["newton.iterations"] == 1
        (span,) = [e for e in telemetry.events()
                   if e.get("name") == "analysis"]
        assert span["attrs"]["iterations"] == 1


def test_failed_initial_operating_point_keeps_its_own_stats():
    """The operating point a transient solves first fails with its own
    stats (its homotopy's work), not the transient's."""
    one_shot = SimOptions(max_nr_iterations=1, max_step_halvings=0)
    with pytest.raises(ConvergenceError) as raised:
        transient(_chain(), 2e-9, 1e-11, one_shot)
    assert raised.value.stats.strategy == "source-stepping"
    assert raised.value.stats.iterations > 1


def test_copies_and_pickles_leave_solver_state_behind():
    circuit = _chain()
    operating_point(circuit)
    assert circuit._solver_cache is not None
    for clone in (circuit.copy(), copy.copy(circuit),
                  pickle.loads(pickle.dumps(circuit))):
        assert clone._solver_cache is None
        assert structure_for(clone) is not structure_for(circuit)
    assert circuit._solver_cache is not None


def _collected(make_and_solve) -> bool:
    """Whether everything ``make_and_solve`` leaves weakly referenced
    is freed once its circuit is dropped."""
    refs = make_and_solve()
    gc.collect()
    return all(ref() is None for ref in refs)


def test_solved_circuit_is_freed():
    def solve():
        circuit = _chain()
        operating_point(circuit)
        structure = structure_for(circuit)
        structure.compiled()
        return [weakref.ref(circuit), weakref.ref(structure)]

    assert _collected(solve)


@pytest.mark.parametrize("engine", ["delta", "batched"])
def test_low_rank_campaign_circuit_is_freed(engine):
    """Per-defect ("delta": batches of one) and batched low-rank
    campaigns both leave nothing alive once their circuit is dropped."""
    def solve():
        chain = buffer_chain(NOMINAL, n_stages=2, frequency=100e6)
        monitor = build_shared_monitor(chain.circuit, chain.output_nets,
                                       tech=NOMINAL)
        oracles = [LogicOracle(chain.output_nets),
                   FlagOracle(monitor.nets.flag, monitor.nets.flagb),
                   IddqOracle()]
        defects = list(enumerate_defects(chain.circuit, kinds=("pipe",),
                                         pipe_resistances=(2e3,)))
        result = run_campaign(chain.circuit, defects, oracles,
                              low_rank=True,
                              batch_size=None if engine == "batched" else 1)
        assert result.solver_counts().get("batched")
        structure = structure_for(chain.circuit)
        assert structure.delta_context is not None
        return [weakref.ref(chain.circuit), weakref.ref(structure),
                weakref.ref(structure.delta_context[1])]

    assert _collected(solve)
