"""Equivalence tests for the compiled stamping engine.

The compiled (vectorised, pattern-cached) path and the legacy
per-component stamping loop must produce the same physics: identical
operating points on every library cell, on faulted circuits, and over
transient runs — on both the dense and the sparse solver paths.  These
tests pin that contract; ``SimOptions(use_compiled=False)`` selects the
legacy reference engine.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.circuit import Circuit, VoltageSource
from repro.circuit.subcircuit import instantiate
from repro.cml import NOMINAL, VCS_NET, VGND_NET, buffer_chain
from repro.cml.cells import CELL_BUILDERS
from repro.dft import build_shared_monitor
from repro.faults import (
    FlagOracle,
    IddqOracle,
    LogicOracle,
    Pipe,
    enumerate_defects,
    run_campaign,
)
from repro.faults.campaign import _warm_start_vector
from repro.faults.injector import inject
from repro.sim import ConvergenceError, operating_point, transient
from repro.sim.mna import structure_for
from repro.sim.options import SimOptions

TECH = NOMINAL
DENSE = 10_000  # sparse_threshold forcing the dense path
SPARSE = 1      # sparse_threshold forcing the sparse path


def _cell_bench(cell) -> Circuit:
    """A DC testbench around ``cell``: rails plus driven inputs."""
    circuit = Circuit(f"bench_{cell.name}")
    TECH.add_supplies(circuit)
    connections = {}
    for rail in (VGND_NET, VCS_NET):
        if rail in cell.ports:
            connections[rail] = rail
    for i, (port_p, port_n) in enumerate(cell.logic_inputs):
        shifted = port_p.endswith("l")
        high = TECH.low_level_high() if shifted else TECH.vhigh
        low = TECH.low_level_low() if shifted else TECH.vlow
        vp, vn = (high, low) if i % 2 == 0 else (low, high)
        circuit.add(VoltageSource(f"V{port_p}", f"n_{port_p}", "0", vp))
        connections[port_p] = f"n_{port_p}"
        if port_n != port_p:  # single-ended ports drive one net only
            circuit.add(VoltageSource(f"V{port_n}", f"n_{port_n}", "0", vn))
            connections[port_n] = f"n_{port_n}"
    for j, (out_p, out_n) in enumerate(cell.logic_outputs):
        connections[out_p] = f"out{j}_p"
        if out_n != out_p:
            connections[out_n] = f"out{j}_n"
    instantiate(circuit, cell, "U1", connections)
    return circuit


def _solve_all_ways(circuit):
    """Operating points from every engine × solver-path combination."""
    return {
        (engine, path): operating_point(
            circuit, SimOptions(use_compiled=(engine == "compiled"),
                                sparse_threshold=threshold))
        for engine in ("compiled", "legacy")
        for path, threshold in (("dense", DENSE), ("sparse", SPARSE))
    }


def _assert_equivalent(circuit):
    solutions = _solve_all_ways(circuit)
    reference = solutions[("legacy", "dense")]
    for key, solution in solutions.items():
        if key == ("legacy", "dense"):
            continue
        for net, value in reference.voltages().items():
            assert solution.voltage(net) == pytest.approx(value, abs=1e-7), (
                f"{key}: net {net}")
        for name in reference.structure.branch_index:
            assert solution.branch_current(name) == pytest.approx(
                reference.branch_current(name), abs=1e-9), (
                f"{key}: branch {name}")


@pytest.mark.parametrize("cell_name", sorted(CELL_BUILDERS))
def test_cell_operating_points_equivalent(cell_name):
    """Compiled/legacy × dense/sparse agree on every library cell."""
    cell = CELL_BUILDERS[cell_name](TECH)
    _assert_equivalent(_cell_bench(cell))


def test_injected_pipe_circuit_equivalent():
    """The engines agree on a fault-injected (pipe) chain too."""
    chain = buffer_chain(TECH, n_stages=3, frequency=100e6)
    faulty = inject(chain.circuit, Pipe("X2.Q3", 4e3))
    _assert_equivalent(faulty)


def test_transient_equivalent():
    """Compiled and legacy transient runs agree along the whole trace."""
    chain = buffer_chain(TECH, n_stages=2, frequency=1e9)
    kwargs = dict(t_stop=1e-9, dt=4e-12)
    legacy = transient(chain.circuit, options=SimOptions(use_compiled=False),
                       **kwargs)
    compiled = transient(chain.circuit, options=SimOptions(), **kwargs)
    assert np.allclose(legacy.states, compiled.states, atol=1e-6)
    sparse = transient(chain.circuit,
                       options=SimOptions(sparse_threshold=SPARSE), **kwargs)
    assert np.allclose(legacy.states, sparse.states, atol=1e-6)


def test_legacy_operating_point_ignores_the_hash_seed():
    """The legacy engine is a reference across processes: its operating
    point is byte-identical under two string hash seeds (a diode-wired
    or plain BJT stamps its emitter partials in terminal order)."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = ("import sys; from repro.cml import NOMINAL, buffer_chain; "
            "from repro.sim import operating_point; "
            "from repro.sim.options import SimOptions; "
            "chain = buffer_chain(NOMINAL, 3, 100e6); "
            "sys.stdout.write(operating_point(chain.circuit, "
            "SimOptions(use_compiled=False)).x.tobytes().hex())")
    digests = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout)
    assert digests[0] and digests[0] == digests[1]


@pytest.fixture(scope="module")
def detector_campaign():
    """The Fig-13 shared-detector campaign setup (chain + oracles)."""
    chain = buffer_chain(TECH, n_stages=3, frequency=100e6)
    monitor = build_shared_monitor(chain.circuit, chain.output_nets,
                                   tech=TECH)
    oracles = [
        LogicOracle(chain.output_nets),
        FlagOracle(monitor.nets.flag, monitor.nets.flagb),
        IddqOracle(),
    ]
    defects = list(enumerate_defects(chain.circuit,
                                     kinds=("pipe", "terminal-short"),
                                     pipe_resistances=(4e3,)))
    return chain.circuit, defects, oracles


def test_parallel_campaign_identical(detector_campaign):
    """parallel=True returns records and coverage identical to serial.

    workers=2 forces a real process pool (pickling and all) even on
    single-core hosts; on platforms without multiprocessing the fallback
    reruns serially, which trivially keeps the equality.
    """
    circuit, defects, oracles = detector_campaign
    serial = run_campaign(circuit, defects, oracles)
    parallel = run_campaign(circuit, defects, oracles,
                            parallel=True, workers=2)
    assert parallel.records == serial.records
    assert parallel.coverage_matrix() == serial.coverage_matrix()
    assert parallel.oracle_names == serial.oracle_names


def test_warm_start_reduces_iterations(detector_campaign):
    """Warm-starting from the fault-free OP, as every campaign does,
    cuts Newton iterations."""
    circuit, defects, _ = detector_campaign
    reference = operating_point(circuit)
    warm = (reference.voltages(),
            {name: reference.branch_current(name)
             for name in reference.structure.branch_index})
    warm_total = cold_total = 0
    for defect in defects:
        faulty = inject(circuit, defect)
        initial = _warm_start_vector(structure_for(faulty), *warm)
        try:
            cold = operating_point(faulty)
            warmed = operating_point(faulty, initial=initial)
        except ConvergenceError:
            continue
        cold_total += cold.stats.iterations
        warm_total += warmed.stats.iterations
    assert warm_total > 0
    assert warm_total < cold_total
