"""Tests for the batched fault engine against the conventional path.

The batched engine (:func:`repro.sim.batch.solve_batch`) solves every
defect with a DC view — added conductances and opens — on compiled
systems derived from the fault-free compile, skipping per-defect
injection and compilation.  Its contract is pinned to the conventional
inject-and-solve path: a derived compile equals the injected circuit's
compile array for array, the replay reproduces the conventional
trajectory *bit for bit* on dense and sparse systems, and
serial/parallel runs return the same records.
"""

import numpy as np
import pytest
from scipy.sparse.linalg import splu

import repro.faults.campaign as campaign_module
from repro.circuit import SplitTerminal
from repro.circuit.components import VoltageSource
from repro.cml import NOMINAL, buffer_chain
from repro.cml.interconnect import attach_low_swing_link
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
from repro.faults.defects import ResistorOpen, ResistorShort, TerminalOpen
from repro.faults.injector import inject
from repro.sim import mna
from repro.sim.batch import solve_batch
from repro.sim.dc import DeltaContext, operating_point
from repro.sim.mna import (build_base, solve_direct, stamp_nonlinear,
                           structure_for)
from repro.sim.options import SimOptions
from repro.testgen.circuits import ila_and_exor
from repro.testgen.synthesis import synthesize

TECH = NOMINAL
OPENS = ("open", "resistor-open")


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


def _ila():
    """The 8-cell AND-EXOR array with driven inputs: sparse at the
    default threshold."""
    network = ila_and_exor(8)
    design = synthesize(network, TECH)
    for signal in network.primary_inputs:
        net_p, net_n = design.pair(signal)
        design.circuit.add(VoltageSource(f"V_{signal}", net_p, "0",
                                         TECH.vhigh))
        design.circuit.add(VoltageSource(f"V_{signal}b", net_n, "0",
                                         TECH.vlow))
    return design


@pytest.fixture(scope="module")
def ila():
    design = _ila()
    assert (structure_for(design.circuit).n_unknowns
            >= SimOptions().sparse_threshold)
    return design


def _catalog_circuit():
    """The benchmark catalog's circuit: the 8-stage chain with a
    low-swing link and the shared monitor."""
    chain = buffer_chain(TECH, 8, 100e6)
    attach_low_swing_link(chain.circuit, *chain.output_nets[-1],
                          swing_factor=0.5)
    build_shared_monitor(chain.circuit, chain.output_nets, tech=TECH)
    return chain.circuit


def _full_solution(circuit, defect, options, reference):
    """The warm-started conventional solve of ``defect``: its operating
    point in the fault-free numbering, and its iteration count."""
    warm = (reference.voltages(),
            {name: reference.branch_current(name)
             for name in reference.structure.branch_index})
    faulty = inject(circuit, defect)
    structure = structure_for(faulty)
    solution = operating_point(faulty, options,
                               initial=_warm_start_vector(structure, *warm))
    clean = reference.structure
    index = ([structure.net_index[net] for net in clean.net_index]
             + [structure.branch_index[name] for name in clean.branch_index])
    return solution.x[index], solution.stats.iterations


def _batch_vs_full(circuit, defects, options):
    """(defect, batch member, conventional x, conventional iterations)
    for every defect with a DC view, all solved as one batch."""
    reference = operating_point(circuit, options)
    context = DeltaContext.build(circuit, options, reference.x)
    kept = [d for d in defects if d.delta_conductances(circuit) is not None]
    outcomes, _ = solve_batch(
        context, [d.delta_conductances(circuit) for d in kept], options)
    return [(defect, outcome,
             *_full_solution(circuit, defect, options, reference))
            for defect, outcome in zip(kept, outcomes)]


def _assert_bitwise(solved):
    for defect, outcome, x_full, iterations in solved:
        assert outcome.x is not None, (defect.describe(), outcome.failure)
        assert outcome.x.tobytes() == x_full.tobytes(), defect.describe()
        assert outcome.stats.iterations == iterations, defect.describe()


def _numbering(circuit, defect):
    """``(general, ground)`` for an open: its renumbering is not one
    inserted index, and the split terminal was on ground."""
    stamps = structure_for(circuit).compiled()
    member = stamps.derive(defect.delta_conductances(circuit))
    fresh = int(np.setdiff1d(np.arange(member.n), member.renumber)[0])
    nets = np.arange(stamps.n_nets)
    inserted = nets + (nets >= fresh)
    general = not np.array_equal(member.renumber[:stamps.n_nets], inserted)
    return general, member.origin[fresh] == -1


def test_delta_solutions_bitwise_match_full_path(bench):
    """Every batched defect's solve equals the conventional
    inject-and-solve solution exactly (not within tolerance: bitwise),
    in as many iterations."""
    circuit, defects, _ = bench
    solved = _batch_vs_full(circuit, defects, SimOptions())
    _assert_bitwise(solved)
    assert len(solved) == len(defects) > 100
    assert any(d.kind == "resistor-open" for d, *_ in solved)


def test_sparse_solutions_bitwise_match_full_path(bench):
    """Forced sparse, every member solves on its own derived CSC
    pattern: bitwise the conventional solve, and every verdict
    matches.  Members take several iterations on the one CSC matrix
    each keeps, so data left from an earlier iteration would show."""
    circuit, defects, oracles = bench
    options = SimOptions(sparse_threshold=1)
    solved = _batch_vs_full(circuit, defects, options)
    assert len(solved) > 100
    _assert_bitwise(solved)
    assert max(iterations for *_, iterations in solved) >= 2

    def table(**kwargs):
        result = run_campaign(circuit, defects, oracles, options=options,
                              **kwargs)
        return [(r.verdicts, r.converged) for r in result.records]

    assert table(low_rank=True) == table()


def test_sparse_ila_campaign_verdicts_match_conventional(ila):
    """The sparse replay on a circuit that is sparse at the default
    threshold (the 8-cell AND-EXOR array): every sampled defect is
    solved in the batch, bitwise as the conventional path solves it,
    and judged as the conventional path judges it."""
    circuit = ila.circuit
    defects = list(enumerate_defects(
        circuit, kinds=("pipe", "terminal-short", "resistor-short",
                        "oxide-breakdown"),
        oxide_resistances=(1e3, 1e5)))[::8]
    _assert_bitwise(_batch_vs_full(circuit, defects, SimOptions()))
    oracles = [LogicOracle(ila.gate_output_pairs()),
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


def test_sparse_factorization_sites_agree(ila, monkeypatch):
    """Every sparse factorization site factors alike: the legacy
    stamper's solve, ``solve_direct`` (conventional compiled solves and
    the batch replay) give bitwise-equal solutions of the 8-cell
    array's Jacobian, each within a relative 1e-12 of a dense solve."""
    circuit = ila.circuit
    x = operating_point(circuit).x
    structure = structure_for(circuit)
    settings = []

    def spy(matrix, **kwargs):
        settings.append((matrix, sorted(kwargs.items())))
        return splu(matrix, **kwargs)

    monkeypatch.setattr(mna, "splu", spy)
    stamper = build_base(structure, SimOptions(use_compiled=False), None)
    stamp_nonlinear(structure, stamper, x)
    legacy = stamper.solve()
    legacy_system = (settings[0][0], stamper._rhs)
    compiled = structure.compiled().build_system(SimOptions())
    assert compiled.sparse
    for matrix, rhs in (legacy_system, compiled.assemble(x)[:2]):
        direct = solve_direct(matrix, rhs, sparse=True)
        dense = np.linalg.solve(matrix.toarray(), rhs)
        assert (np.abs(direct - dense).max()
                <= 1e-12 * np.abs(dense).max())
    assert legacy.tobytes() == solve_direct(*legacy_system, True).tobytes()
    assert len({str(kwargs) for _, kwargs in settings}) == 1


def test_delta_campaign_verdicts_identical_to_warm(bench):
    circuit, defects, oracles = bench
    warm = run_campaign(circuit, defects, oracles)
    delta = run_campaign(circuit, defects, oracles, low_rank=True)
    for w, d in zip(warm.records, delta.records):
        assert w.verdicts == d.verdicts, d.defect.describe()
        assert w.converged == d.converged, d.defect.describe()
    counts = delta.solver_counts()
    assert counts.get("batched", 0) > len(defects) // 2
    assert delta.batch_fallbacks == 0
    assert delta.coverage_matrix() == warm.coverage_matrix()


def test_opens_are_solved_in_the_batch(bench, monkeypatch):
    """Opens join the batch (solver='batched'): no defect of the
    campaign is injected."""
    circuit, defects, oracles = bench
    injected = []

    def counting_inject(circuit, defects):
        injected.append(defects)
        return inject(circuit, defects)

    monkeypatch.setattr(campaign_module, "inject", counting_inject)
    delta = run_campaign(circuit, defects, oracles, low_rank=True)
    open_records = [r for r in delta.records if r.defect.kind in OPENS]
    assert open_records
    assert delta.solver_counts() == {"batched": len(defects)}
    assert injected == []


@pytest.mark.parametrize("which", ["catalog", "ila"])
def test_derived_tables_equal_injected_compile(which):
    """Every open's derived compile is the injected circuit's compile,
    array for array: static segments, nonlinear rows/cols/RHS rows,
    junction gather indices, the built base and the CSC pattern.  The
    opens cover splits of a grounded terminal and, on the array,
    renumberings that are not one inserted index.  A sample of added
    conductances, which keep the numbering, checks the same; the parent
    holds its run's linear base throughout, which a derived compile must
    not read (it would build the fault-free matrix)."""
    circuit = _catalog_circuit() if which == "catalog" else _ila().circuit
    options = SimOptions()
    stamps = structure_for(circuit).compiled()
    stamps.refresh()
    stamps.build_system(options)
    defects = list(enumerate_defects(circuit, kinds=OPENS))
    defects += list(enumerate_defects(
        circuit, kinds=("pipe", "resistor-short")))[::10]
    tables = ("_res_rows", "_res_cols", "_res_src", "_res_sign",
              "_gmin_rows", "_gmin_cols", "_gmin_sign", "_vs_rows",
              "_vs_cols", "_vs_vals", "_vs_rhs_rows", "_is_rhs_rows",
              "_is_rhs_src", "_is_rhs_sign", "_j_terminals", "nl_rows",
              "nl_cols", "nl_rhs_rows", "device_rows", "device_cols",
              "device_rhs_rows")
    general_cases = ground_cases = 0
    for defect in defects:
        derived = stamps.derive(defect.delta_conductances(circuit))
        compiled = structure_for(inject(circuit, defect)).compiled()
        where = defect.describe()
        assert (derived.n, derived.n_nets) == (compiled.n, compiled.n_nets)
        for name in tables:
            ours, theirs = getattr(derived, name), getattr(compiled, name)
            assert ours.dtype == theirs.dtype, (where, name)
            assert np.array_equal(ours, theirs), (where, name)
        ours, theirs = (derived.build_system(options),
                        compiled.build_system(options))
        assert ours.sparse == theirs.sparse
        assert ours.rhs_base.tobytes() == theirs.rhs_base.tobytes(), where
        if ours.sparse:
            for name in ("indices", "indptr", "static_pos", "nl_pos"):
                assert np.array_equal(getattr(ours.pattern, name),
                                      getattr(theirs.pattern, name)), where
            assert ours.base_data.tobytes() == theirs.base_data.tobytes()
        else:
            assert ours.base_dense.tobytes() == theirs.base_dense.tobytes()
        if defect.kind not in OPENS:
            assert derived.renumber is None
            continue
        general, ground = _numbering(circuit, defect)
        general_cases += general
        ground_cases += ground
    assert ground_cases > 0
    assert general_cases > 0 or which == "catalog"


def test_dense_opens_bitwise_match_full_path(bench):
    """Every open of the 3-stage bench: bitwise the conventional solve,
    in as many iterations."""
    circuit, _, _ = bench
    opens = list(enumerate_defects(circuit, kinds=OPENS))
    solved = _batch_vs_full(circuit, opens, SimOptions())
    assert len(solved) == len(opens) > 50
    _assert_bitwise(solved)


def test_sparse_renumbered_opens_bitwise_match_full_path(ila):
    """The ILA's opens whose numbering is a general permutation or
    splits a grounded terminal: bitwise the conventional sparse solve."""
    circuit = ila.circuit
    picked = {"general": [], "ground": []}
    for defect in enumerate_defects(circuit, kinds=OPENS):
        general, ground = _numbering(circuit, defect)
        if general:
            picked["general"].append(defect)
        if ground:
            picked["ground"].append(defect)
    assert picked["general"] and picked["ground"]
    opens = picked["general"][::4] + picked["ground"][::2]
    solved = _batch_vs_full(circuit, opens, SimOptions())
    _assert_bitwise(solved)


def test_open_one_unknown_below_sparse_threshold(bench):
    """An open adds one unknown: on a dense fault-free system one
    unknown below ``sparse_threshold`` its derived member is sparse,
    as a compile of the injected circuit would be, and solves bitwise
    like it."""
    circuit, _, _ = bench
    n = structure_for(circuit).n_unknowns
    options = SimOptions(sparse_threshold=n + 1)
    reference = operating_point(circuit, options)
    context = DeltaContext.build(circuit, options, reference.x)
    assert not context.system.sparse
    defect = TerminalOpen("X2.Q3", "b")
    derived = context.system.stamps.derive(defect.delta_conductances(circuit))
    assert derived.build_system(options).sparse
    solved = _batch_vs_full(circuit, [defect, Pipe("X2.Q3", 4e3)], options)
    _assert_bitwise(solved)


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
    # An open rejoins the old net to the split terminal's fresh net
    # through its resistance; the capacitor is open at DC.
    [(p, n, g)] = TerminalOpen("X1.Q3", "b").delta_conductances(circuit)
    assert (p, n) == (device.net("b"), SplitTerminal("X1.Q3", "b"))
    assert g == 1.0 / TerminalOpen("X1.Q3", "b").resistance
    assert ResistorOpen("X1.R1").delta_conductances(circuit) == \
        TerminalOpen("X1.R1", "p").delta_conductances(circuit)
    # Validation mirrors apply(): wrong component types and degenerate
    # shorts raise the same errors without mutating anything.
    with pytest.raises(TypeError):
        Pipe("X1.R1").delta_conductances(circuit)
    with pytest.raises(TypeError):
        ResistorShort("X1.Q3").delta_conductances(circuit)
    with pytest.raises(TypeError):
        ResistorOpen("X1.Q3").delta_conductances(circuit)
    with pytest.raises(KeyError):
        TerminalOpen("X1.Q3", "zz").delta_conductances(circuit)
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
