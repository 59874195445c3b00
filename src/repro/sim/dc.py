"""DC operating-point analysis.

Plain Newton-Raphson with SPICE junction limiting first; if that fails,
gmin stepping (a ladder of junction shunt conductances), and as a last
resort source stepping (ramping all independent sources from zero).  All
circuits in the reproduction converge with at most gmin stepping, but the
homotopies make the engine robust to user-built circuits and to the harsher
fault-injected topologies (hard shorts across junctions etc.).
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..circuit.netlist import GROUND, Circuit
from ..telemetry import telemetry_for
from .mna import (CompanionSet, MnaStructure, SingularMatrixError, build_base,
                  stamp_nonlinear, structure_for)
from .options import DEFAULT_OPTIONS, SimOptions

#: Gmin-stepping ladder used when the plain operating point fails:
#: junction shunts start at ``GMIN_START`` siemens and shrink by
#: ``GMIN_FACTOR`` per rung down to ``SimOptions.gmin``.
GMIN_START = 1e-2
GMIN_FACTOR = 10.0
#: Source-stepping increments (the last-resort homotopy).
SOURCE_STEPS = 20


class ConvergenceError(RuntimeError):
    """Newton-Raphson failed to converge after all fallback strategies.

    When raised from :func:`operating_point` the exception carries a
    ``stats`` attribute (:class:`NewtonStats`) accounting the work spent
    on the failed solve, so campaign records charge diverging defects
    their true cost.
    """

    #: Work spent before the failure; populated by :func:`operating_point`.
    stats: Optional["NewtonStats"] = None


class SolveDeadlineExceeded(ConvergenceError):
    """A solve's wall-clock budget (``SimOptions.solve_deadline_s``) ran out.

    Subclasses :class:`ConvergenceError` so existing handlers treat it
    as a non-convergence, but :func:`operating_point` aborts the
    homotopy ladder on it instead of escalating to the next (equally
    doomed, possibly much slower) strategy.
    """


def gmin_ladder(gmin: float) -> Tuple[float, ...]:
    """Decreasing gmin values from :data:`GMIN_START` ending at ``gmin``."""
    values = []
    g = GMIN_START
    while g > gmin * 1.001:
        values.append(g)
        g /= GMIN_FACTOR
    values.append(gmin)
    return tuple(values)


def _deadline_for(options: "SimOptions") -> Optional[float]:
    """Absolute ``perf_counter`` deadline for one solve, or ``None``."""
    if options.solve_deadline_s > 0:
        return time.perf_counter() + options.solve_deadline_s
    return None


def _check_deadline(deadline: Optional[float], iteration: int,
                    where: str) -> None:
    """Raise :class:`SolveDeadlineExceeded` once ``deadline`` has passed.

    Called between Newton iterations only: an individual assembled
    linear solve is never interrupted, so the overshoot is bounded by
    one iteration's cost.
    """
    if deadline is not None and time.perf_counter() > deadline:
        raise SolveDeadlineExceeded(
            f"{where} exceeded its wall-clock budget after "
            f"{iteration} iteration(s)")


@dataclass
class NewtonStats:
    """Bookkeeping returned with every solution (useful in tests/benches)."""

    iterations: int = 0
    gmin_steps: int = 0
    source_steps: int = 0
    strategy: str = "newton"
    #: Matrix factorizations performed: plain Newton factorizes every
    #: iteration, so ``n_factorizations == iterations`` on every path.
    n_factorizations: int = 0
    #: Always 0: no solve reuses a factorization and the fixed grid
    #: rejects no step.  Kept only because ``perfbench/layers.py`` reads
    #: both on every traced pass; they go with its next update (ROADMAP
    #: item 4).
    n_reuses: int = 0
    n_rejected_steps: int = 0
    #: Low-rank batch counters (see :mod:`repro.sim.batch`): batched
    #: replay iterations performed, the summed number of still-active
    #: batch members across those iterations (mean occupancy =
    #: ``batch_occupancy / n_batched_solves``), and members the batch
    #: returned unsolved for the conventional rungs.
    n_batched_solves: int = 0
    batch_occupancy: int = 0
    batch_fallbacks: int = 0


class DcSolution:
    """Operating point: node voltages and branch currents.

    Access voltages with :meth:`voltage` / :meth:`voltages` and the current
    through voltage sources with :meth:`branch_current`.
    """

    def __init__(self, structure: MnaStructure, x: np.ndarray,
                 stats: NewtonStats):
        self.structure = structure
        self.x = x
        self.stats = stats

    def voltage(self, net: str) -> float:
        """Voltage of ``net`` relative to ground."""
        if net == GROUND:
            return 0.0
        return float(self.x[self.structure.net_index[net]])

    def voltages(self) -> Dict[str, float]:
        """All node voltages as a dict (ground excluded)."""
        return {net: float(self.x[i])
                for net, i in self.structure.net_index.items()}

    def branch_current(self, component_name: str) -> float:
        """Current through a branch element (V source), p → n internally."""
        try:
            index = self.structure.branch_index[component_name]
        except KeyError:
            raise KeyError(
                f"{component_name!r} is not a branch element"
            ) from None
        return float(self.x[index])

    def differential(self, net_p: str, net_n: str) -> float:
        """Convenience: ``v(net_p) - v(net_n)``."""
        return self.voltage(net_p) - self.voltage(net_n)

    def operating_info(self, component_name: str) -> Dict[str, float]:
        """Device operating report (vbe/ic/... for transistors)."""
        component = self.structure.circuit[component_name]
        branch = None
        if component.is_branch():
            branch = self.branch_current(component_name)
        return component.operating_info(
            self.structure.voltages_from(self.x), branch)


@contextlib.contextmanager
def _device_run(structure: MnaStructure, options: SimOptions):
    """One solve run over the compiled devices.

    Gathers device parameters and junction-limiting state into the
    compiled arrays once on entry, and writes the limiting state back to
    the devices once on exit, returned or raised, so the legacy path
    (KCL residual checks) sees exactly the state the run left.  A run
    is one operating-point Newton solve or one whole transient.  The
    legacy engine reads the devices directly.
    """
    if not options.use_compiled:
        yield
        return
    stamps = structure.compiled()
    stamps.refresh()
    try:
        yield
    finally:
        stamps.store_states()


def _newton_solve(structure: MnaStructure, options: SimOptions,
                  x0: np.ndarray, *,
                  t: Optional[float] = None,
                  source_scale: float = 1.0,
                  gmin: Optional[float] = None,
                  companions: Optional[CompanionSet] = None,
                  stats: Optional[NewtonStats] = None,
                  deadline: Optional[float] = None) -> np.ndarray:
    """Run one Newton-Raphson solve; raises ConvergenceError on failure.

    The returned vector satisfies the per-unknown tolerance tests of
    ``options`` on an iteration where no junction limiting occurred.
    On the compiled engine it must run inside a :func:`_device_run`,
    which owns the device values and limiting state it iterates on.
    """
    local = options if gmin is None else _with_gmin(options, gmin)
    n_nets = structure.n_nets
    atol = _abs_tolerance(structure.n_unknowns, n_nets, options.vntol,
                          options.abstol)
    x = x0.copy()
    if options.use_compiled:
        stamps = structure.compiled()
        system = stamps.build_system(local, t, source_scale, companions)
        for iteration in range(options.max_nr_iterations):
            _check_deadline(deadline, iteration, "newton solve")
            x_new, limited = system.iterate(x)
            if stats is not None:
                stats.iterations += 1
                stats.n_factorizations += 1
            if not limited and _converged(x, x_new, atol, options):
                return x_new
            x = x_new
    else:
        stamper = build_base(structure, local, t, source_scale, companions)
        for iteration in range(options.max_nr_iterations):
            _check_deadline(deadline, iteration, "newton solve")
            stamper.restore_base()
            stamper.clear_limited()
            stamp_nonlinear(structure, stamper, x)
            x_new = stamper.solve()
            if stats is not None:
                stats.iterations += 1
                stats.n_factorizations += 1
            if not stamper.limited and _converged(x, x_new, atol, options):
                return x_new
            x = x_new
    raise ConvergenceError(
        f"Newton-Raphson did not converge in {options.max_nr_iterations} "
        "iterations"
    )


class DeltaContext:
    """Shared fault-free state for a campaign's low-rank solves.

    Built once per (circuit, options, reference solution): the compiled
    fault-free system and the junction-limiting state a freshly compiled
    injected circuit starts from, so every defect's solve
    (:func:`repro.sim.batch.solve_batch`) replays from an identical
    starting point regardless of what was solved before it
    (serial/parallel identity).  The batch members that only add
    conductances share one fault-free member, which the first batch on
    the context builds, and override the cells of its linear base their
    conductances touch (:attr:`linear_cells`).
    """

    def __init__(self, structure: MnaStructure, system, x_ref: np.ndarray,
                 reset_limits: np.ndarray, options: SimOptions):
        self.structure = structure
        self.system = system
        self.x_ref = x_ref
        self.reset_limits = reset_limits
        self.options = options
        #: The batch replay's member for the fault-free system itself
        #: (see :mod:`repro.sim.batch`); ``None`` until a batch needs it.
        self.shared_member = None

    @functools.cached_property
    def linear_cells(self):
        """The fault-free linear base cell by cell, in accumulation order
        (:meth:`~repro.sim.mna.CompiledStamps.linear_cells`); built
        once, by the first batch that needs it."""
        return self.system.stamps.linear_cells(self.options.gmin,
                                               self.system.pattern)

    @classmethod
    def build(cls, circuit: Circuit, options: SimOptions,
              x_ref: np.ndarray) -> "DeltaContext":
        structure = structure_for(circuit)
        structure.reset_device_states()
        stamps = structure.compiled()
        stamps.refresh()
        system = stamps.build_system(options)
        # The limiting state before any assembly is exactly the state a
        # freshly compiled injected circuit starts from (operating_point
        # resets device states before plain Newton), so the replay can
        # reproduce the conventional path's trajectory bit for bit.
        return cls(structure, system, x_ref.copy(), stamps.snapshot_limits(),
                   options)

    @classmethod
    def cached(cls, circuit: Circuit, options: SimOptions,
               x_ref: np.ndarray) -> "DeltaContext":
        """The context for ``(circuit, options, x_ref)``, built once.

        Kept on the circuit's MNA structure, so it is freed with the
        circuit.  Worker processes rebuild it from the pickled circuit
        once per chunk; the build is a pure function of its inputs, so
        serial and parallel campaigns perform identical arithmetic.
        """
        structure = structure_for(circuit)
        entry = structure.delta_context
        if entry is not None:
            cached_options, context = entry
            if (cached_options == options
                    and np.array_equal(context.x_ref, x_ref)):
                return context
        context = cls.build(circuit, options, x_ref)
        structure.delta_context = (options, context)
        return context


@functools.lru_cache(maxsize=64)
def _abs_tolerance(n: int, n_nets: int, vntol: float,
                   abstol: float) -> np.ndarray:
    """Per-unknown absolute Newton tolerance over ``n`` unknowns:
    ``vntol`` on the first ``n_nets`` (node voltages), ``abstol`` on the
    rest (branch currents).  Built once per shape and tolerances, so
    read-only."""
    atol = np.full(n, abstol)
    atol[:n_nets] = vntol
    atol.flags.writeable = False
    return atol


def _converged(x_old: np.ndarray, x_new: np.ndarray, atol: np.ndarray,
               options: SimOptions):
    """The Newton convergence test: every unknown moved by at most
    ``reltol * max(|x_old|, |x_new|) + atol``.

    Over the last axis: one verdict for an iterate, one per row for a
    ``(B, n)`` stack (the batched replay's).  ``atol`` comes from
    :func:`_abs_tolerance`.
    """
    delta = np.abs(x_new - x_old)
    tol = options.reltol * np.maximum(np.abs(x_new), np.abs(x_old)) + atol
    return (delta <= tol).all(axis=-1)


def _with_gmin(options: SimOptions, gmin: float) -> SimOptions:
    from dataclasses import replace
    return replace(options, gmin=gmin)


@contextlib.contextmanager
def _newton_span(tel, stats: NewtonStats, strategy: str):
    """``newton_solve`` tracing span around one solve strategy.

    No-op when telemetry is off; otherwise records the strategy and the
    iterations the wrapped block consumed (as a delta on the shared
    ``stats``, which accumulates across strategies).
    """
    if tel is None:
        yield
        return
    before = stats.iterations
    with tel.span("newton_solve", strategy=strategy) as span:
        try:
            yield
        finally:
            span.set(iterations=stats.iterations - before)


def operating_point(circuit: Circuit, options: SimOptions = DEFAULT_OPTIONS,
                    initial: Optional[np.ndarray] = None) -> DcSolution:
    """Compute the DC operating point of ``circuit``.

    Strategy: plain Newton → gmin stepping → source stepping.  Raises
    :class:`ConvergenceError` if everything fails.

    With telemetry enabled (``options.telemetry`` or ``REPRO_TRACE``)
    the solve traces an ``analysis`` span with one ``newton_solve``
    child per strategy attempted, and folds its
    :class:`NewtonStats` into the metrics registry — including when the
    solve ultimately fails, so diverging defects still show their cost.
    """
    tel = telemetry_for(options)
    stats = NewtonStats()
    if tel is None:
        try:
            return _operating_point_impl(circuit, options, initial, stats,
                                         None)
        except ConvergenceError as error:
            error.stats = stats
            raise
    with tel.span("analysis", kind="dc") as span:
        try:
            solution = _operating_point_impl(circuit, options, initial,
                                             stats, tel)
        except ConvergenceError as error:
            error.stats = stats
            raise
        finally:
            span.set(strategy=stats.strategy, iterations=stats.iterations)
            tel.record_newton(stats)
        return solution


def _fresh_solve(structure: MnaStructure, options: SimOptions,
                 x0: np.ndarray, **kwargs) -> np.ndarray:
    """One operating-point Newton solve from reset limiting state."""
    structure.reset_device_states()
    with _device_run(structure, options):
        return _newton_solve(structure, options, x0, **kwargs)


def _operating_point_impl(circuit: Circuit, options: SimOptions,
                          initial: Optional[np.ndarray],
                          stats: NewtonStats, tel) -> DcSolution:
    structure = structure_for(circuit)
    x0 = initial if initial is not None else np.zeros(structure.n_unknowns)
    # One wall-clock budget spans the whole homotopy ladder: a blown
    # deadline aborts immediately (the remaining strategies are slower,
    # not faster) instead of falling through to them.
    deadline = _deadline_for(options)

    try:
        with _newton_span(tel, stats, "newton"):
            x = _fresh_solve(structure, options, x0, stats=stats,
                             deadline=deadline)
        return DcSolution(structure, x, stats)
    except SolveDeadlineExceeded:
        raise
    except (ConvergenceError, SingularMatrixError):
        pass

    # Gmin stepping: solve with heavy junction shunts, then relax.
    stats.strategy = "gmin-stepping"
    x = x0
    try:
        with _newton_span(tel, stats, "gmin-stepping"):
            for gmin in gmin_ladder(options.gmin):
                x = _fresh_solve(structure, options, x, gmin=gmin,
                                 stats=stats, deadline=deadline)
                stats.gmin_steps += 1
        return DcSolution(structure, x, stats)
    except SolveDeadlineExceeded:
        raise
    except (ConvergenceError, SingularMatrixError):
        pass

    # Source stepping: ramp all independent sources from zero.
    stats.strategy = "source-stepping"
    x = np.zeros(structure.n_unknowns)
    try:
        with _newton_span(tel, stats, "source-stepping"):
            for step in range(1, SOURCE_STEPS + 1):
                scale = step / SOURCE_STEPS
                x = _fresh_solve(structure, options, x, source_scale=scale,
                                 stats=stats, deadline=deadline)
                stats.source_steps += 1
        return DcSolution(structure, x, stats)
    except SolveDeadlineExceeded:
        raise
    except (ConvergenceError, SingularMatrixError) as error:
        raise ConvergenceError(
            f"operating point failed after newton, gmin stepping and "
            f"source stepping: {error}"
        ) from None


def kcl_residuals(circuit: Circuit, solution: DcSolution,
                  options: SimOptions = DEFAULT_OPTIONS) -> Dict[str, float]:
    """Per-net KCL residual of a solution, in amperes.

    Re-assembles the linearised system at the solution itself and returns
    ``b - A x`` for the node rows.  At a converged operating point every
    entry is (numerically) zero — this is the property-based test hook for
    the engine.
    """
    structure = solution.structure
    stamper = build_base(structure, options, None)
    stamper.restore_base()
    stamp_nonlinear(structure, stamper, solution.x)
    if stamper.sparse:
        from scipy.sparse import coo_matrix
        extra = coo_matrix(
            (stamper._vals, (stamper._rows, stamper._cols)),
            shape=(structure.n_unknowns, structure.n_unknowns)).tocsc()
        matrix = stamper._base_matrix + extra
        residual = stamper._rhs - matrix.dot(solution.x)
    else:
        residual = stamper._rhs - stamper._dense.dot(solution.x)
    return {net: float(residual[i])
            for net, i in structure.net_index.items()}
