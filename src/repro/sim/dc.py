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
from typing import Callable, Dict, Optional

import numpy as np

from ..circuit.netlist import Circuit
from ..telemetry import telemetry_for
from .mna import (FactorCache, MnaStamper, MnaStructure, SingularMatrixError,
                  build_base, stamp_nonlinear, structure_for)
from .options import DEFAULT_OPTIONS, SimOptions


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
    #: Matrix factorizations performed vs factorization reuses (the
    #: modified-Newton LU-reuse policy; plain Newton factorizes every
    #: iteration, so without reuse ``n_factorizations == iterations``).
    n_factorizations: int = 0
    n_reuses: int = 0
    #: Adaptive-transient steps rejected by the LTE controller (or by a
    #: Newton failure forcing a step cut) and retried at a smaller step.
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
        return self.structure.voltages_from(self.x)(net)

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
    (AC linearisation, KCL residual checks) sees exactly the state the
    run left.  A run is one operating-point Newton solve or one whole
    transient.  The legacy engine reads the devices directly.
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
                  companions: Optional[Callable[[MnaStamper], None]] = None,
                  stats: Optional[NewtonStats] = None,
                  factor_cache: Optional[FactorCache] = None,
                  deadline: Optional[float] = None) -> np.ndarray:
    """Run one Newton-Raphson solve; raises ConvergenceError on failure.

    The returned vector satisfies the per-unknown tolerance tests of
    ``options`` on an iteration where no junction limiting occurred.
    On the compiled engine it must run inside a :func:`_device_run`,
    which owns the device values and limiting state it iterates on.

    ``factor_cache`` (compiled path only; the adaptive transient passes
    one) selects the modified-Newton iteration: steps are computed
    through the cache's LU factorization — possibly inherited from an
    earlier iteration or a previous transient step — and the Jacobian is
    refactorized only when the cache does not structurally fit this
    system or the residual-reduction rate stalls
    (``_REUSE_STALL_RATIO``).  Steps taken with a stale factorization
    must pass a tighter convergence test (``_REUSE_ACCEPT_FACTOR``) to
    bound the extra error of the linearly-converging tail.
    """
    local = options if gmin is None else _with_gmin(options, gmin)
    n_nets = structure.n_nets
    atol = _abs_tolerance(structure.n_unknowns, n_nets, options.vntol,
                          options.abstol)
    x = x0.copy()
    if options.use_compiled:
        stamps = structure.compiled()
        system = stamps.build_system(local, t, source_scale, companions)
        if factor_cache is not None:
            # A dense Jacobian carried across an LTE-sized timestep is
            # stale enough to turn 3-iteration solves into 5, and device
            # evaluation, not factorization, dominates a dense iteration:
            # dense solves refresh the factorization at their first
            # iteration and chord only *within* the solve.
            return _modified_newton(system, options, x, n_nets, atol,
                                    stats, factor_cache, deadline,
                                    refresh_first=not system.sparse)
        for iteration in range(options.max_nr_iterations):
            _check_deadline(deadline, iteration, "newton solve")
            x_new, limited = system.iterate(x)
            if options.max_voltage_step > 0:
                delta = x_new[:n_nets] - x[:n_nets]
                np.clip(delta, -options.max_voltage_step,
                        options.max_voltage_step, out=delta)
                x_new[:n_nets] = x[:n_nets] + delta
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
            if options.max_voltage_step > 0:
                delta = x_new[:n_nets] - x[:n_nets]
                np.clip(delta, -options.max_voltage_step,
                        options.max_voltage_step, out=delta)
                x_new[:n_nets] = x[:n_nets] + delta
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


#: Residual-reduction ratio above which a stale factorization is
#: considered stalled and the Jacobian is refactorized.
_REUSE_STALL_RATIO = 0.2
#: Convergence-tolerance tightening applied to steps computed with a
#: reused (stale) factorization, bounding the extra linear-convergence
#: error to a fraction of the Newton tolerance.
_REUSE_ACCEPT_FACTOR = 0.1


def _modified_newton(system, options: SimOptions, x: np.ndarray, n_nets: int,
                     atol: np.ndarray, stats: Optional[NewtonStats],
                     cache: FactorCache,
                     deadline: Optional[float] = None,
                     refresh_first: bool = False) -> np.ndarray:
    """Newton iteration through a reusable LU factorization.

    Each iteration assembles the Jacobian/RHS at the current iterate (the
    cheap, vectorised part), evaluates the true residual ``b - A x`` and
    steps through the cached factorization.  With a fresh factorization
    this is exactly the plain Newton step (``x + A^{-1}(b - A x) ==
    A^{-1} b``); with a stale one it is a chord iteration that converges
    to the same fixed point at a linear rate, trading factorizations for
    cheap back-substitutions.

    ``refresh_first`` refactorizes at the first iteration even when the
    cache structurally matches: the reuse window is then *within* this
    solve only — the dense-path policy, where a Jacobian inherited from
    the previous transient step costs more in extra chord iterations
    than its reuse saves.  Within-solve staleness is bounded (at most a
    few iterates old, stall-guarded), so those chord steps accept at
    the ordinary tolerance instead of ``_REUSE_ACCEPT_FACTOR``; the
    tighter test exists for factorizations of *unbounded* staleness
    inherited across solves.
    """
    token = system.factor_token
    prev_rnorm: Optional[float] = None
    for iteration in range(options.max_nr_iterations):
        _check_deadline(deadline, iteration, "modified newton solve")
        matrix, rhs, limited = system.assemble(x)
        residual = rhs - matrix @ x
        rnorm = float(np.max(np.abs(residual))) if residual.size else 0.0
        fresh = False
        if not cache.matches(token):
            cache.factorize(matrix, token, system.sparse)
            fresh = True
        elif iteration == 0 and refresh_first:
            cache.factorize(matrix, token, system.sparse)
            fresh = True
        elif (prev_rnorm is not None
              and rnorm > _REUSE_STALL_RATIO * prev_rnorm):
            cache.factorize(matrix, token, system.sparse)
            fresh = True
        else:
            cache.n_reuses += 1
        prev_rnorm = rnorm
        dx = cache.solve(residual)
        if options.max_voltage_step > 0:
            np.clip(dx[:n_nets], -options.max_voltage_step,
                    options.max_voltage_step, out=dx[:n_nets])
        x_new = x + dx
        if not np.all(np.isfinite(x_new)):
            raise SingularMatrixError("solution contains non-finite values")
        if stats is not None:
            stats.iterations += 1
            if fresh:
                stats.n_factorizations += 1
            else:
                stats.n_reuses += 1
        accept = 1.0 if fresh or refresh_first else _REUSE_ACCEPT_FACTOR
        if not limited and _converged(x, x_new, atol, options, accept):
            return x_new
        x = x_new
    raise ConvergenceError(
        f"modified Newton did not converge in {options.max_nr_iterations} "
        "iterations"
    )


class DeltaContext:
    """Shared fault-free state for a campaign's low-rank solves.

    Built once per (circuit, options, reference solution): the compiled
    fault-free system and the junction-limiting state a freshly compiled
    injected circuit starts from, so every defect's solve
    (:func:`repro.sim.batch.solve_batch`) replays from an identical
    starting point regardless of what was solved before it
    (serial/parallel identity).
    """

    def __init__(self, structure: MnaStructure, system, x_ref: np.ndarray,
                 reset_limits: np.ndarray):
        self.structure = structure
        self.system = system
        self.x_ref = x_ref
        self.reset_limits = reset_limits

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
        return cls(structure, system, x_ref.copy(), stamps.snapshot_limits())

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
               options: SimOptions, tol_factor: float = 1.0):
    """The Newton convergence test: every unknown moved by at most
    ``reltol * max(|x_old|, |x_new|) + atol`` (times ``tol_factor``).

    Over the last axis: one verdict for an iterate, one per row for a
    ``(B, n)`` stack (the batched replay's).  ``atol`` comes from
    :func:`_abs_tolerance`.
    """
    delta = np.abs(x_new - x_old)
    tol = options.reltol * np.maximum(np.abs(x_new), np.abs(x_old)) + atol
    if tol_factor != 1.0:
        tol *= tol_factor
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
            for gmin in options.gmin_ladder():
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
            for step in range(1, options.source_steps + 1):
                scale = step / options.source_steps
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
