"""Tests for the batched campaign engine.

The engine stacks many fault systems — added conductances and opens,
each derived from the fault-free compile — into one vectorised replay
Newton iteration (``repro.sim.batch``).  Batching never changes a
member's arithmetic: a batch of N and N batches of one give bitwise
equal operating points and solver stats (the serial low-rank path *is*
a batch of one), members the batch returns unsolved are re-solved
conventionally with the same record at any batch size, and the batch
counters surface through CampaignResult and telemetry.  The numpy facts
that identity rests on are pinned at the end of the file.
"""

import os
import tracemalloc
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from repro.circuit import SplitTerminal
from repro.cml import NOMINAL, buffer_chain
from repro.dft import build_shared_monitor
from repro.faults import (
    FlagOracle,
    IddqOracle,
    LogicOracle,
    enumerate_defects,
    run_campaign,
)
from repro.faults.campaign import DEFAULT_BATCH_SIZE, WINDOWS_PER_UNIT
from repro.sim import dc as dc_module
from repro.sim.batch import solve_batch
from repro.sim.dc import (DeltaContext, _abs_tolerance, _converged,
                          operating_point)
from repro.sim.mna import (CompiledStamps, SingularMatrixError, solve_direct,
                           structure_for)
from repro.sim.options import SimOptions
from repro.telemetry import Telemetry
from repro.verify import cross_check, load_scenario
from repro.verify.generate import build_scenario
from repro.verify.oracle import ENGINES_BY_NAME, VERIFY_OPTIONS, _fresh_oracles

CORPUS_WITNESS = os.path.join(os.path.dirname(__file__), "corpus",
                              "batched_midbatch_fallback.json")


def _bench():
    chain = buffer_chain(NOMINAL, n_stages=3, frequency=100e6)
    monitor = build_shared_monitor(chain.circuit, chain.output_nets,
                                   tech=NOMINAL)
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


@pytest.fixture(scope="module")
def bench():
    return _bench()


def _member_views(circuit, defects):
    views = [defect.delta_conductances(circuit) for defect in defects]
    return [view for view in views if view is not None]


def _is_open(view):
    return any(isinstance(end, SplitTerminal)
               for p, n, _ in view for end in (p, n))


def _record_core(record):
    """Everything a store entry keeps of a record."""
    return (dict(record.verdicts), record.converged,
            record.newton_iterations, record.n_factorizations,
            record.gmin_steps, record.source_steps,
            record.quarantined, record.quarantine_reason, record.solver)


def _unsolvable(view):
    """A member the replay cannot solve: a conductance so large that
    the dense iterate turns non-finite after a few iterations and the
    sparse one never settles."""
    return [(p, n, 1e308) for p, n, _ in view]


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_solve_batch_bitwise_identical_to_serial(bench, sparse):
    """One batch of N members, low-rank and open, and N batches of one
    land on bitwise equal operating points with identical solver stats
    — including members that fail mid-batch, which fail identically
    alone."""
    circuit, defects, _ = bench
    options = SimOptions(sparse_threshold=1) if sparse else SimOptions()
    reference = operating_point(circuit, options)
    context = DeltaContext.build(circuit, options, reference.x.copy())
    assert context.system.sparse is sparse
    specs = _member_views(circuit, defects)
    assert len(specs) > 50
    opens = [view for view in specs if _is_open(view)]
    assert opens and len(opens) < len(specs)
    specs.insert(len(specs) // 2, _unsolvable(specs[0]))
    specs.insert(len(specs) // 3, _unsolvable(opens[0]))

    outcomes, counters = solve_batch(context, specs, options)
    assert counters.n_batched_solves > 0
    assert counters.batch_occupancy >= counters.n_batched_solves
    assert counters.batch_fallbacks == sum(
        1 for outcome in outcomes if outcome.x is None)
    assert counters.batch_fallbacks >= 2

    for spec, outcome in zip(specs, outcomes):
        [alone], _ = solve_batch(context, [spec], options)
        if outcome.x is None:
            assert alone.x is None
            assert alone.failure == outcome.failure
        else:
            assert np.array_equal(outcome.x, alone.x)
        assert (outcome.stats.iterations,
                outcome.stats.n_factorizations) == (
            alone.stats.iterations, alone.stats.n_factorizations)


def test_batched_campaign_records_match_serial_delta(bench):
    """The default batch size reproduces the serial low-rank path (a
    batch of one) record for record, solver tag included, and its
    verdicts equal the conventional campaign's."""
    circuit, defects, _ = bench
    # oracles hold prepared state — build a fresh set per campaign
    serial = run_campaign(circuit, defects, _bench()[2], low_rank=True,
                          batch_size=1)
    batched = run_campaign(circuit, defects, _bench()[2], low_rank=True)
    conventional = run_campaign(circuit, defects, _bench()[2])

    assert [_record_core(a) for a in serial.records] == \
           [_record_core(b) for b in batched.records]
    assert [(r.verdicts, r.converged) for r in conventional.records] == \
           [(r.verdicts, r.converged) for r in batched.records]

    counts = batched.solver_counts()
    assert counts.get("batched", 0) > 50
    assert batched.n_batched_solves > 0
    assert batched.batch_occupancy > batched.n_batched_solves
    aggregate = batched.aggregate_stats()
    assert aggregate.n_batched_solves == batched.n_batched_solves
    assert aggregate.batch_occupancy == batched.batch_occupancy
    assert aggregate.batch_fallbacks == batched.batch_fallbacks


def test_batched_campaign_parallel_matches_serial_batched(bench):
    circuit, defects, _ = bench
    subset = defects[:40]
    serial = run_campaign(circuit, subset, _bench()[2], low_rank=True)
    parallel = run_campaign(circuit, subset, _bench()[2], low_rank=True,
                            parallel=True, workers=2)
    assert [_record_core(a) for a in serial.records] == \
           [_record_core(b) for b in parallel.records]
    assert (parallel.n_batched_solves, parallel.batch_occupancy,
            parallel.batch_fallbacks) == (
        serial.n_batched_solves, serial.batch_occupancy,
        serial.batch_fallbacks)


def test_mixed_unit_parallel_matches_serial(bench):
    """Units mixing added-conductance and open members: parallel records
    and batch counters equal the serial run's."""
    circuit, defects, _ = bench
    opens = [d for d in defects if d.kind == "resistor-open"]
    subset = [d for pair in zip(defects[:len(opens)], opens) for d in pair]
    serial = run_campaign(circuit, subset, _bench()[2], low_rank=True,
                          batch_size=8)
    parallel = run_campaign(circuit, subset, _bench()[2], low_rank=True,
                            batch_size=8, parallel=True, workers=2)
    assert serial.solver_counts() == {"batched": len(subset)}
    assert [_record_core(a) for a in serial.records] == \
           [_record_core(b) for b in parallel.records]
    assert (parallel.n_batched_solves, parallel.batch_occupancy,
            parallel.batch_fallbacks) == (
        serial.n_batched_solves, serial.batch_occupancy,
        serial.batch_fallbacks)


def test_batched_campaign_batch_size_one(bench):
    """Degenerate batches (one member each) still reproduce records."""
    circuit, defects, _ = bench
    subset = defects[:12]
    full = run_campaign(circuit, subset, _bench()[2], low_rank=True)
    tiny = run_campaign(circuit, subset, _bench()[2], low_rank=True,
                        batch_size=1)
    assert [_record_core(r) for r in full.records] == \
           [_record_core(r) for r in tiny.records]
    assert tiny.n_batched_solves >= full.n_batched_solves


@pytest.mark.parametrize("batch_size", [0, -3])
def test_batch_size_below_one_is_rejected(bench, batch_size):
    circuit, defects, oracles = bench
    with pytest.raises(ValueError, match="at least 1"):
        run_campaign(circuit, defects[:2], oracles, low_rank=True,
                     batch_size=batch_size)


def test_batch_size_without_low_rank_is_rejected(bench):
    circuit, defects, oracles = bench
    with pytest.raises(ValueError, match="low_rank"):
        run_campaign(circuit, defects[:2], oracles, batch_size=8)


def test_batched_campaign_checkpoint_resume(bench, tmp_path):
    circuit, defects, _ = bench
    subset = defects[:20]
    store = tmp_path / "store"
    first = run_campaign(circuit, subset, _bench()[2], low_rank=True,
                         store=store)
    rerun = run_campaign(circuit, subset, _bench()[2], low_rank=True,
                         store=store)
    assert rerun.n_store_hits == len(subset)
    assert [_record_core(r) for r in first.records] == \
           [_record_core(r) for r in rerun.records]


def test_batched_campaign_telemetry_counters(bench):
    """Batch counters flow through NEWTON_COUNTERS into the metrics
    registry (and from there into the RunReport solver table)."""
    circuit, defects, _ = bench
    subset = defects[:20]
    telemetry = Telemetry.capturing()
    options = SimOptions(telemetry=telemetry)
    result = run_campaign(circuit, subset, _bench()[2], low_rank=True,
                          options=options)
    counters = telemetry.metrics.snapshot()["counters"]
    assert counters.get("campaign.batched_solves") == result.n_batched_solves
    assert counters.get("campaign.batch_occupancy") == result.batch_occupancy
    assert result.n_batched_solves > 0
    spans = [e for e in telemetry.events()
             if e.get("type") == "span" and e.get("name") == "campaign"]
    assert spans and spans[0]["attrs"]["low_rank"] is True
    assert spans[0]["attrs"]["n_batched_solves"] == result.n_batched_solves


def test_corpus_witness_has_midbatch_divergence():
    """The committed witness scenario batches a converging member and a
    diverging member together: the diverger's conventional re-solve
    gives a field-identical record (same quarantine trail, same stats,
    same solver tag) at the default batch size and alone in a batch of
    one, while the surviving member stays batch-solved."""
    scenario = load_scenario(CORPUS_WITNESS)
    engine = ENGINES_BY_NAME["compiled-low-rank"]
    options = engine.options(VERIFY_OPTIONS)

    def campaign(**kwargs):
        built = build_scenario(scenario)
        return built, run_campaign(built.circuit, built.defects,
                                   _fresh_oracles(built), options=options,
                                   low_rank=True, **kwargs)

    built, batched = campaign()
    assert len(built.defects) <= DEFAULT_BATCH_SIZE  # one batch
    assert batched.batch_fallbacks > 0
    counts = batched.solver_counts()
    assert counts.get("delta-fallback", 0) > 0
    assert counts.get("batched", 0) > 0

    _, serial = campaign(batch_size=1)
    assert [_record_core(a) for a in serial.records] == \
           [_record_core(b) for b in batched.records]


def test_corpus_witness_cross_checks_clean():
    scenario = load_scenario(CORPUS_WITNESS)
    engines = (ENGINES_BY_NAME["compiled-dense"],
               ENGINES_BY_NAME["compiled-low-rank"])
    result = cross_check(scenario, engines)
    assert result.ok, result.format()


# ----------------------------------------------------------------------
# The refilled replay window
# ----------------------------------------------------------------------
def _witness_catalog():
    """The corpus witness circuit with a catalog around its diverging
    pipe: pipes, terminal shorts and opens (two system sizes), one of
    them failing the replay under the verify options."""
    built = build_scenario(load_scenario(CORPUS_WITNESS))
    defects = list(enumerate_defects(
        built.circuit, kinds=("pipe", "terminal-short", "open"),
        pipe_resistances=(2e3, 8e3)))
    return built, defects


def test_refilled_window_records_match_across_units():
    """A small window over several units and a partial one, refilled
    from each unit's queue around a member that fails the replay: the
    records equal a window of one field for field, and the conventional
    campaign's verdicts; a parallel run equals the serial one in its
    records and all three batch counters."""
    built, defects = _witness_catalog()
    options = ENGINES_BY_NAME["compiled-low-rank"].options(VERIFY_OPTIONS)

    def campaign(**kwargs):
        return run_campaign(built.circuit, defects, _fresh_oracles(built),
                            options=options, **kwargs)

    unit = 2 * WINDOWS_PER_UNIT
    assert len(defects) > 3 * unit and len(defects) % unit
    assert any(defect.kind == "open" for defect in defects)
    window = campaign(low_rank=True, batch_size=2)
    assert window.solver_counts() == {"batched": len(defects) - 1,
                                      "delta-fallback": 1}
    assert window.batch_fallbacks == 1
    alone = campaign(low_rank=True, batch_size=1)
    assert [_record_core(a) for a in alone.records] == \
           [_record_core(b) for b in window.records]
    conventional = campaign()
    assert [(r.verdicts, r.converged) for r in conventional.records] == \
           [(r.verdicts, r.converged) for r in window.records]
    parallel = campaign(low_rank=True, batch_size=2, parallel=True,
                        workers=2)
    assert [_record_core(a) for a in parallel.records] == \
           [_record_core(b) for b in window.records]
    assert (parallel.n_batched_solves, parallel.batch_occupancy,
            parallel.batch_fallbacks) == (
        window.n_batched_solves, window.batch_occupancy,
        window.batch_fallbacks)


def _greedy_window(counts, width):
    """Replay iterations of ``width`` slots refilled in order from
    members needing ``counts`` iterations each."""
    queue, slots, iterations = list(counts), [], 0
    while queue or slots:
        admitted = width - len(slots)
        slots, queue = slots + queue[:admitted], queue[admitted:]
        iterations += 1
        slots = [left - 1 for left in slots if left > 1]
    return iterations


def test_window_counters_follow_the_greedy_schedule(bench):
    """Each unit's replay iterations are those of a greedy window over
    its members' own iteration counts, and the occupancy is their sum:
    fewer iterations than fixed batches of the window's width."""
    circuit, defects, _ = bench
    width = 4
    unit = width * WINDOWS_PER_UNIT
    assert len(defects) > 2 * unit
    result = run_campaign(circuit, defects, _bench()[2], low_rank=True,
                          batch_size=width)
    assert result.solver_counts() == {"batched": len(defects)}
    counts = [record.newton_iterations for record in result.records]
    assert result.n_batched_solves == sum(
        _greedy_window(counts[i:i + unit], width)
        for i in range(0, len(counts), unit))
    assert result.batch_occupancy == sum(counts)
    assert result.n_batched_solves < sum(
        max(counts[i:i + width]) for i in range(0, len(counts), width))


def _context(circuit, options):
    reference = operating_point(circuit, options)
    return DeltaContext.build(circuit, options, reference.x.copy())


def test_replay_deadline_counts_from_admission(bench, monkeypatch):
    """A member's wall-clock budget starts when it enters the window: a
    member admitted after a batch-wide deadline would have expired
    still solves, and the budget still binds each member.  The clock
    advances one second per replay iteration."""
    circuit, defects, _ = bench
    options = SimOptions()
    context = _context(circuit, options)
    views = _member_views(circuit, defects)[:2]
    untimed, _ = solve_batch(context, views, options, window=1)
    counts = [member.stats.iterations for member in untimed]
    assert min(counts) >= 2

    clock = [0.0]
    evaluate = CompiledStamps.eval_nonlinear_batch

    def ticking(self, *args):
        clock[0] += 1.0
        return evaluate(self, *args)

    monkeypatch.setattr(CompiledStamps, "eval_nonlinear_batch", ticking)
    monkeypatch.setattr(dc_module, "time",
                        SimpleNamespace(perf_counter=lambda: clock[0]))
    budget = max(counts) + 0.5
    assert sum(counts) - 1 > budget  # a batch-wide budget would expire
    timed, counters = solve_batch(
        context, views, replace(options, solve_deadline_s=budget), window=1)
    assert [member.failure for member in timed] == [None, None]
    for plain, member in zip(untimed, timed):
        assert np.array_equal(plain.x, member.x)
    assert counters.n_batched_solves == sum(counts)

    clock[0] = 0.0
    short = min(counts) - 1.5
    timed, _ = solve_batch(context, views,
                           replace(options, solve_deadline_s=short), window=1)
    for member in timed:
        assert member.x is None
        assert "budget" in member.failure


def test_window_memory_does_not_grow_with_the_unit(bench):
    """Members are derived as they enter the window and freed as they
    leave, so a unit of 16 windows peaks near one window's memory."""
    circuit, defects, _ = bench
    options = SimOptions()
    context = _context(circuit, options)
    views = _member_views(circuit, defects)
    width = 8
    unit = (views * WINDOWS_PER_UNIT)[:width * WINDOWS_PER_UNIT]

    def peak(batch):
        tracemalloc.start()
        try:
            solve_batch(context, batch, options, window=width)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert WINDOWS_PER_UNIT == 16
    assert peak(unit) <= 1.5 * peak(unit[:width])


# ----------------------------------------------------------------------
# The numpy facts the engine's bitwise identities rest on
# ----------------------------------------------------------------------
@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def _well_conditioned(rng, batch, n):
    mats = rng.standard_normal((batch, n, n))
    mats += n * np.eye(n)[None, :, :]
    return mats


def test_stacked_solve_matches_per_member_solves_bitwise(rng):
    """A stacked dense solve is bitwise the per-member 1-D solves: a
    member's replay iterate does not depend on its batch."""
    batch, n = 6, 8
    mats = _well_conditioned(rng, batch, n)
    rhs = rng.standard_normal((batch, n))
    stacked = np.linalg.solve(mats, rhs[..., None])[..., 0]
    for b in range(batch):
        assert np.array_equal(stacked[b], np.linalg.solve(mats[b], rhs[b]))


def test_dense_direct_solve_is_numpy_solve_bitwise(rng):
    """``solve_direct``'s dense solve, numpy's ``solve1`` gufunc without
    the ``np.linalg.solve`` wrapper, is ``np.linalg.solve`` bit for bit
    on perturbed Jacobians of the 8-stage paper chain, so the stacked
    replay solve stays bitwise the conventional one."""
    circuit = buffer_chain(NOMINAL, n_stages=8, frequency=100e6).circuit
    x = operating_point(circuit).x
    stamps = structure_for(circuit).compiled()
    stamps.refresh()
    system = stamps.build_system(SimOptions())
    assert not system.sparse
    for _ in range(40):
        matrix, rhs, _ = system.assemble(
            x + rng.normal(scale=0.05, size=x.shape))
        assert (solve_direct(matrix, rhs, sparse=False).tobytes()
                == np.linalg.solve(matrix, rhs).tobytes())


def test_dense_direct_solve_of_singular_matrix_raises_without_warning():
    """A singular dense matrix raises :class:`SingularMatrixError` with
    ``np.linalg.solve``'s message, and warns nothing (the bare gufunc
    warns of an invalid value and returns NaN)."""
    singular, rhs = np.zeros((3, 3)), np.ones(3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularMatrixError) as error:
            solve_direct(singular, rhs, sparse=False)
        with pytest.raises(np.linalg.LinAlgError) as numpy_error:
            np.linalg.solve(singular, rhs)
    assert str(error.value) == str(numpy_error.value) == "Singular matrix"


def test_stacked_solve_raises_on_singular_member(rng):
    """One singular member makes the whole stacked solve raise, which is
    why the engine isolates members with per-member solves."""
    mats = _well_conditioned(rng, 3, 4)
    mats[1] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(mats, rng.standard_normal((3, 4))[..., None])


def test_broadcast_add_at_accumulates_duplicates_once_each():
    target = np.zeros(3)
    np.add.at(target, (np.array([0, 1, 1, 2, 1]),),
              np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
    assert np.array_equal(target, np.array([1.0, 10.0, 4.0]))


def test_broadcast_add_at_rhs_form_matches_per_member_bitwise(rng):
    """``(member, row)`` scatter over a stacked RHS equals the per-member
    ``np.add.at`` a single assembly performs."""
    n, k, batch = 7, 12, 5
    rows = rng.integers(0, n, size=k)
    vals = rng.standard_normal((batch, k))
    base = rng.standard_normal(n)
    expected = np.stack([base.copy() for _ in range(batch)])
    for b in range(batch):
        np.add.at(expected[b], rows, vals[b])
    target = np.repeat(base[None, :], batch, axis=0)
    np.add.at(target, (np.arange(batch)[:, None], rows), vals)
    assert np.array_equal(target, expected)


def test_broadcast_add_at_matrix_form_matches_per_member_bitwise(rng):
    """``(member, nl_rows, nl_cols)`` scatter with duplicate (row, col)
    pairs equals the per-member matrix stamping."""
    n, k, batch = 5, 9, 4
    rows = rng.integers(0, n, size=k)
    cols = rng.integers(0, n, size=k)
    vals = rng.standard_normal((batch, k))
    base = rng.standard_normal((n, n))
    expected = np.stack([base.copy() for _ in range(batch)])
    for b in range(batch):
        np.add.at(expected[b], (rows, cols), vals[b])
    target = np.repeat(base[None, :, :], batch, axis=0)
    np.add.at(target, (np.arange(batch)[:, None], rows, cols), vals)
    assert np.array_equal(target, expected)


def test_replay_convergence_rule_is_the_serial_one(rng):
    """The replay judges its stack with the serial Newton test: one
    verdict per row, each equal to the 1-D call, on the per-unknown
    tolerance (``vntol`` on nets, ``abstol`` on branches)."""
    options = SimOptions()
    batch, n, n_nets = 12, 9, 6
    atol = _abs_tolerance(n, n_nets, options.vntol, options.abstol)
    assert np.array_equal(atol, [options.vntol] * n_nets
                          + [options.abstol] * (n - n_nets))
    x_old = rng.standard_normal((batch, n))
    x_new = x_old + rng.standard_normal((batch, n)) * 10.0 ** (
        rng.integers(-9, 0, size=(batch, 1)))
    stacked = _converged(x_old, x_new, np.repeat(atol[None], batch, 0),
                         options)
    assert stacked.shape == (batch,) and 0 < stacked.sum() < batch
    for row in range(batch):
        assert stacked[row] == _converged(x_old[row], x_new[row], atol,
                                          options)
