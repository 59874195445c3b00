"""Tests for the low-rank fault engine against the conventional path.

The low-rank engine (:func:`repro.sim.batch.solve_batch`) solves
added-conductance defects on a shared fault-free compiled system,
skipping per-defect injection and compilation.  Its contract is pinned
to the conventional inject-and-solve path: on dense systems the replay
reproduces the conventional trajectory *bit for bit*, on sparse systems
it lands within the verify matrix's operating-point tolerance with the
same verdicts, opens take the conventional path, and serial/parallel
runs return the same records.
"""

import numpy as np
import pytest

from repro.cml import NOMINAL, buffer_chain
from repro.dft import build_shared_monitor
from repro.faults import (
    Bridge,
    FlagOracle,
    IddqOracle,
    LogicOracle,
    Pipe,
    enumerate_defects,
    run_campaign,
)
from repro.faults.campaign import _warm_start_vector
from repro.faults.defects import ResistorShort
from repro.faults.injector import inject
from repro.sim.batch import solve_batch
from repro.sim.dc import DeltaContext, operating_point
from repro.sim.mna import structure_for
from repro.sim.options import SimOptions
from repro.verify.oracle import Tolerances

TECH = NOMINAL


@pytest.fixture(scope="module")
def bench():
    chain = buffer_chain(TECH, n_stages=3, frequency=100e6)
    monitor = build_shared_monitor(chain.circuit, chain.output_nets,
                                   tech=TECH)
    oracles = [
        LogicOracle(chain.output_nets),
        FlagOracle(monitor.nets.flag, monitor.nets.flagb),
        IddqOracle(),
    ]
    defects = list(enumerate_defects(
        chain.circuit,
        kinds=("pipe", "terminal-short", "resistor-short", "resistor-open"),
        pipe_resistances=(2e3, 4e3)))
    return chain.circuit, defects, oracles


def _full_solution(circuit, defect, options, reference):
    warm = (reference.voltages(),
            {name: reference.branch_current(name)
             for name in reference.structure.branch_index})
    faulty = inject(circuit, defect)
    initial = _warm_start_vector(structure_for(faulty), *warm)
    return operating_point(faulty, options, initial=initial).x


def _batch_vs_full(circuit, defects, options):
    """(defect, low-rank x, conventional x) for every low-rank defect,
    all solved as one batch."""
    reference = operating_point(circuit, options)
    context = DeltaContext.build(circuit, options, reference.x)
    kept, specs = [], []
    for defect in defects:
        deltas = defect.delta_conductances(circuit)
        if deltas is None:
            continue
        specs.append(([(context.structure.index(p),
                        context.structure.index(n)) for p, n, _ in deltas],
                      [g for _, _, g in deltas]))
        kept.append(defect)
    outcomes, _ = solve_batch(context, specs, options)
    return [(defect, outcome.x,
             _full_solution(circuit, defect, options, reference))
            for defect, outcome in zip(kept, outcomes)]


def test_delta_solutions_bitwise_match_full_path(bench):
    """Every low-rank defect's batched solve equals the conventional
    inject-and-solve solution exactly (not within tolerance: bitwise)."""
    circuit, defects, _ = bench
    solved = _batch_vs_full(circuit, defects, SimOptions())
    for defect, x_low_rank, x_full in solved:
        assert x_low_rank is not None, defect.describe()
        assert np.array_equal(x_low_rank, x_full), defect.describe()
    assert len(solved) > 100  # the catalog is dominated by low-rank defects


def test_sparse_solutions_match_full_path_closely(bench):
    """Forced sparse, the fault stamps join the matrix after the
    fault-free assembly, so the replay agrees with the conventional
    solve to the verify matrix's operating-point tolerance rather than
    bitwise, and every verdict matches."""
    circuit, defects, oracles = bench
    options = SimOptions(sparse_threshold=1)
    solved = _batch_vs_full(circuit, defects, options)
    assert len(solved) > 100
    op_abs = Tolerances().op_abs
    for defect, x_low_rank, x_full in solved:
        assert x_low_rank is not None, defect.describe()
        assert np.max(np.abs(x_low_rank - x_full)) <= op_abs, \
            defect.describe()

    def table(**kwargs):
        result = run_campaign(circuit, defects, oracles, options=options,
                              **kwargs)
        return [(r.verdicts, r.converged) for r in result.records]

    assert table(low_rank=True) == table()


def test_sparse_ila_campaign_verdicts_match_conventional():
    """The sparse replay on a circuit that is sparse at the default
    threshold (the 8-cell AND-EXOR array): every sampled low-rank
    defect is solved in the batch and judged as the conventional path
    judges it."""
    from repro.circuit.components import VoltageSource
    from repro.testgen.circuits import ila_and_exor
    from repro.testgen.synthesis import synthesize

    network = ila_and_exor(8)
    design = synthesize(network, TECH)
    for signal in network.primary_inputs:
        net_p, net_n = design.pair(signal)
        design.circuit.add(VoltageSource(f"V_{signal}", net_p, "0",
                                         TECH.vhigh))
        design.circuit.add(VoltageSource(f"V_{signal}b", net_n, "0",
                                         TECH.vlow))
    circuit = design.circuit
    assert structure_for(circuit).n_unknowns >= SimOptions().sparse_threshold
    defects = list(enumerate_defects(
        circuit, kinds=("pipe", "terminal-short", "resistor-short",
                        "oxide-breakdown"),
        oxide_resistances=(1e3, 1e5)))[::8]
    oracles = [LogicOracle(design.gate_output_pairs()),
               IddqOracle(supply_source="VGND")]
    low_rank = run_campaign(circuit, defects, oracles, low_rank=True)
    conventional = run_campaign(circuit, defects, oracles)
    assert low_rank.solver_counts() == {"batched": len(defects)}
    assert low_rank.batch_fallbacks == 0
    table = [(r.verdicts, r.converged) for r in low_rank.records]
    assert table == [(r.verdicts, r.converged)
                     for r in conventional.records]
    # The sample exercises both oracles both ways.
    assert {tuple(sorted(v.items())) for v, _ in table} == {
        (("iddq", a), ("logic", b))
        for a in ("pass", "fail") for b in ("pass", "fail")}


def test_delta_campaign_verdicts_identical_to_warm(bench):
    circuit, defects, oracles = bench
    warm = run_campaign(circuit, defects, oracles)
    delta = run_campaign(circuit, defects, oracles, low_rank=True)
    for w, d in zip(warm.records, delta.records):
        assert w.verdicts == d.verdicts, d.defect.describe()
        assert w.converged == d.converged, d.defect.describe()
    counts = delta.solver_counts()
    assert counts.get("batched", 0) > len(defects) // 2
    assert delta.woodbury_fallbacks == 0
    assert delta.coverage_matrix() == warm.coverage_matrix()


def test_opens_fall_back_to_the_full_solver(bench):
    """Topology-changing defects carry no low-rank view: solver='full'."""
    circuit, defects, oracles = bench
    delta = run_campaign(circuit, defects, oracles, low_rank=True)
    open_records = [r for r in delta.records
                    if r.defect.kind in ("open", "resistor-open")]
    assert open_records
    for record in open_records:
        assert record.solver == "full"
    low_rank = [r for r in delta.records
                if r.defect.kind in ("pipe", "terminal-short",
                                     "resistor-short")]
    assert all(r.solver in ("batched", "delta-fallback") for r in low_rank)


def test_parallel_delta_campaign_identical_to_serial(bench):
    circuit, defects, oracles = bench
    serial = run_campaign(circuit, defects, oracles, low_rank=True,
                          batch_size=16)
    parallel = run_campaign(circuit, defects, oracles, low_rank=True,
                            batch_size=16, parallel=True, workers=2)
    assert parallel.records == serial.records


def test_delta_conductances_values_and_validation(bench):
    circuit, _, _ = bench
    # A resistor short is a single conductance across the element.
    resistor = circuit["X1.R1"]
    [(p, n, g)] = ResistorShort("X1.R1").delta_conductances(circuit)
    assert (p, n) == (resistor.net("p"), resistor.net("n"))
    assert g == 1.0 / ResistorShort("X1.R1").resistance
    # A pipe spans collector to emitter with 1/R.
    [(p, n, g)] = Pipe("X1.Q3", 4e3).delta_conductances(circuit)
    device = circuit["X1.Q3"]
    assert (p, n) == (device.net("c"), device.net("e"))
    assert g == pytest.approx(1.0 / 4e3)
    # Validation mirrors apply(): wrong component types and degenerate
    # shorts raise the same errors without mutating anything.
    with pytest.raises(TypeError):
        Pipe("X1.R1").delta_conductances(circuit)
    with pytest.raises(TypeError):
        ResistorShort("X1.Q3").delta_conductances(circuit)
    with pytest.raises(KeyError):
        Bridge("no_such_net", "0").delta_conductances(circuit)
    with pytest.raises(ValueError):
        Bridge("op1", "op1").delta_conductances(circuit)


def test_delta_records_surface_solver_counters(bench):
    circuit, defects, oracles = bench
    delta = run_campaign(circuit, defects, oracles, low_rank=True)
    solved = [r for r in delta.records if r.solver == "batched"]
    assert solved
    assert all(r.newton_iterations > 0 for r in solved)
    assert sum(r.n_factorizations for r in solved) > 0
