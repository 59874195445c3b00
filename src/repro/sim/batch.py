"""Batched multi-defect Newton solves on stacked fault systems.

One fault campaign solves hundreds of operating points that differ from
the fault-free circuit by a rank-1/2 conductance update.  The serial
delta path (:func:`repro.sim.dc.delta_solve`) already shares the
compiled system across defects but still runs one Python-level Newton
loop per defect; this module runs one Newton loop per *batch*:

* **device evaluation** is one vectorised call over ``(n_defects,
  n_junctions)`` arrays (:meth:`CompiledStamps.eval_nonlinear_batch`),
* the **linear solve** routes every still-converging member through a
  single stacked dense solve, or — on the sparse path — one multi-RHS
  back-substitution of the shared fault-free factorization with a
  per-member Woodbury correction,
* **convergence masking** drops finished members out of the batch
  without touching the arithmetic of the others.

Bit-identity contract (the property :mod:`repro.verify` enforces):

* Dense: the batched replay performs, for every member, the exact
  floating-point operation sequence of the serial
  :func:`~repro.sim.dc._delta_replay` — same reset limiting state, same
  accumulation order (``np.add.at`` broadcast semantics), and a stacked
  ``np.linalg.solve`` whose per-slice results are bitwise equal to the
  serial 1-D solves.  A member that converges in the batch therefore
  lands on the bit-identical operating point.
* Sparse: members chord through the shared factorization exactly as the
  serial :func:`~repro.sim.dc._delta_chord` does (multi-RHS
  ``splu.solve`` is column-bitwise equal to the serial vector solves),
  including the stall escalation to a member-local refactorized
  operator; a member the serial path would abandon (step blow-up,
  repeated stalls) leaves the batch instead.
* Any member that leaves the batch — divergence, singular/non-finite
  iterate, stall, deadline — reports a failure and is re-solved by the
  caller through the *serial* per-defect ladder (delta → warm full →
  cold retry), so its record is bit-identical to a serial campaign's.

Array operations go through :mod:`repro.sim.backend`, keeping an
explicit seam for accelerator backends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import coo_matrix, csc_matrix

from .backend import ArrayBackend, get_backend
from .dc import (DeltaContext, NewtonStats, SolveDeadlineExceeded,
                 _check_deadline, _deadline_for, _DELTA_STEP_BLOWUP,
                 _DELTA_MAX_LOCAL_FACTORIZATIONS)
from .mna import (FactorCache, FaultedSystem, LowRankSolver,
                  SingularMatrixError)
from .options import SimOptions

#: One batch member's fault view: (net-index pairs, added conductances).
MemberSpec = Tuple[Sequence[Tuple[int, int]], Sequence[float]]


@dataclass
class BatchMember:
    """Outcome of one member of a batched solve.

    ``x`` is the converged operating point (host array) or ``None`` when
    the member left the batch; ``failure`` then says why, and the caller
    re-solves it through the serial per-defect ladder.  ``stats`` counts
    the work the batch spent on this member (mirroring the serial
    accounting: one factorization-equivalent per replay iteration).
    """

    stats: NewtonStats = field(
        default_factory=lambda: NewtonStats(strategy="batched"))
    x: Optional[np.ndarray] = None
    failure: Optional[str] = None


@dataclass
class BatchCounters:
    """Batch-level observability counters (see :class:`NewtonStats`)."""

    n_batched_solves: int = 0
    batch_occupancy: int = 0
    batch_fallbacks: int = 0


def solve_batch(context: DeltaContext, members: Sequence[MemberSpec],
                options: SimOptions,
                backend: Optional[ArrayBackend] = None
                ) -> Tuple[List[BatchMember], BatchCounters]:
    """Solve a batch of low-rank fault systems as one stacked iteration.

    Every member shares ``context`` (the fault-free compiled system at
    the reference operating point).  Returns one :class:`BatchMember`
    per spec, in order, plus the batch counters.  Never raises for a
    member-level failure: failed members carry ``x=None`` and count in
    ``batch_fallbacks``.
    """
    results = [BatchMember() for _ in members]
    counters = BatchCounters()
    if not members:
        return results, counters
    if backend is None:
        backend = get_backend()
    stamps = context.system.stamps
    # Same strategy gate as the serial ``delta_solve``; the batch only
    # models the two mainline pairings (dense replay, sparse chord).
    use_chord = options.newton_reuse != "never" and (
        context.system.sparse or options.newton_reuse == "always")
    supported = (options.delta_residual_tol <= 0 and stamps.supports_batch
                 and use_chord == context.system.sparse)
    if not supported:
        # Residual-gated acceptance re-assembles at the accepted iterate
        # (a per-member control flow the batch does not model), fallback
        # devices stamp through per-component callbacks, and the
        # off-diagonal reuse pairings (dense chord / sparse replay) are
        # serial-only; all route to the serial delta path.
        for member in results:
            member.failure = "batching unsupported for these options"
        counters.batch_fallbacks = len(members)
        return results, counters
    if context.system.sparse:
        _batch_chord(context, members, options, backend, counters, results)
    else:
        _batch_replay(context, members, options, backend, counters, results)
    counters.batch_fallbacks += sum(
        1 for member in results if member.x is None)
    return results, counters


def _tile(backend: ArrayBackend, array, count: int):
    """``count`` stacked copies of ``array`` (each bitwise a ``.copy()``)."""
    hosted = backend.asarray(array)
    return backend.xp.repeat(hosted[None, ...], count, axis=0)


def _batch_replay(context: DeltaContext, members: Sequence[MemberSpec],
                  options: SimOptions, backend: ArrayBackend,
                  counters: BatchCounters,
                  results: List[BatchMember]) -> None:
    """Stacked bitwise replay of the dense per-defect Newton solves."""
    system = context.system
    stamps = system.stamps
    xp = backend.xp
    n_nets = context.structure.n_nets
    count = len(members)

    bases = backend.stack(
        [FaultedSystem(system, pairs, gs)._base_faulted
         for pairs, gs in members])
    rhs_base = backend.asarray(system.rhs_base)
    limits = _tile(backend, context._reset_limits, count)
    x_stack = _tile(backend, context.x_ref, count)

    active = np.arange(count)
    deadline = _deadline_for(options)
    mvs = options.max_voltage_step
    for iteration in range(options.max_nr_iterations):
        if active.size == 0:
            return
        try:
            _check_deadline(deadline, iteration, "batched replay solve")
        except SolveDeadlineExceeded as error:
            for j in active:
                results[j].failure = str(error)
            return
        x_active = x_stack[active]
        nl_vals, nl_rhs_vals, limited, limits[active] = (
            stamps.eval_nonlinear_batch(x_active, limits[active], xp))

        rows = np.arange(active.size)
        rhs = _tile(backend, rhs_base, active.size)
        if nl_rhs_vals.shape[1]:
            backend.scatter_add(
                rhs, (rows[:, None], stamps.nl_rhs_rows[None, :]),
                nl_rhs_vals)
        matrices = bases[active]
        if nl_vals.shape[1]:
            backend.scatter_add(
                matrices, (rows[:, None], stamps.nl_rows[None, :],
                           stamps.nl_cols[None, :]), nl_vals)

        counters.n_batched_solves += 1
        counters.batch_occupancy += int(active.size)
        failed = np.zeros(active.size, dtype=bool)
        try:
            x_next = backend.solve_stacked(matrices, rhs)
        except Exception:
            # One singular member poisons the stacked solve; isolate it
            # with per-member solves (bitwise equal to the stacked rows).
            x_next = xp.empty_like(rhs)
            for row in range(active.size):
                try:
                    x_next[row] = backend.solve_one(matrices[row], rhs[row])
                except Exception as error:
                    failed[row] = True
                    results[active[row]].failure = str(error)
                    x_next[row] = 0.0
        finite = backend.to_numpy(xp.isfinite(x_next).all(axis=1))
        for row in np.nonzero(~finite & ~failed)[0]:
            results[active[row]].failure = (
                "solution contains non-finite values")
        failed |= ~finite

        if mvs > 0:
            step = x_next[:, :n_nets] - x_active[:, :n_nets]
            xp.clip(step, -mvs, mvs, out=step)
            x_next[:, :n_nets] = x_active[:, :n_nets] + step

        survivors = ~failed
        for row in np.nonzero(survivors)[0]:
            stats = results[active[row]].stats
            stats.iterations += 1
            stats.n_factorizations += 1

        # Elementwise broadcast of the serial ``_converged`` test.
        delta = xp.abs(x_next - x_active)
        scale = xp.maximum(xp.abs(x_next), xp.abs(x_active))
        tol = options.reltol * scale
        tol[:, :n_nets] += options.vntol
        tol[:, n_nets:] += options.abstol
        conv = backend.to_numpy((delta <= tol).all(axis=1))
        lim = backend.to_numpy(limited)
        done = survivors & ~lim & conv
        for row in np.nonzero(done)[0]:
            results[active[row]].x = np.array(
                backend.to_numpy(x_next[row]), copy=True)
        x_stack[active] = x_next
        active = active[survivors & ~done]
    for j in active:
        results[j].failure = (
            f"batched replay Newton did not converge in "
            f"{options.max_nr_iterations} iterations")


def _batch_chord(context: DeltaContext, members: Sequence[MemberSpec],
                 options: SimOptions, backend: ArrayBackend,
                 counters: BatchCounters,
                 results: List[BatchMember]) -> None:
    """Batched Woodbury chords through the shared sparse factorization.

    The shared work — device evaluation and the reference-factorization
    back-substitution — runs batched; the small ``k x k`` capacitance
    corrections and the sparse residual matvecs stay per-member (``k``
    is 1 or 2).  A stalled member refactorizes its true faulty Jacobian
    into a member-local operator and keeps chording through it — same
    escalation, same arithmetic as the serial chord — while still riding
    the batched device evaluation.  Members the serial chord would
    abandon entirely (step blow-up, repeated stalls, non-finite
    iterates) leave the batch for the serial per-defect ladder, so the
    batch never diverges from what the serial path would certify.
    """
    system = context.system
    stamps = system.stamps
    xp = backend.xp
    n = system.n
    n_nets = context.structure.n_nets
    count = len(members)

    faulted = [FaultedSystem(system, pairs, gs) for pairs, gs in members]
    solvers: List[Optional[LowRankSolver]] = []
    for index, (pairs, gs) in enumerate(members):
        try:
            solvers.append(LowRankSolver(context.cache, n, pairs, gs))
        except Exception as error:
            solvers.append(None)
            results[index].failure = str(error)

    limits = _tile(backend, context._reference_limits, count)
    x_stack = _tile(backend, context.x_ref, count)

    active = np.array([i for i in range(count) if solvers[i] is not None],
                      dtype=np.intp)
    # Members whose chord stalled carry a member-local refactorized
    # operator, exactly like the serial chord; they keep riding the
    # batched device evaluation but solve per-member.
    operators: List[Optional[FactorCache]] = [None] * count
    local_factorizations = np.zeros(count, dtype=int)
    prev_rnorm = np.full(count, np.nan)
    deadline = _deadline_for(options)
    mvs = options.max_voltage_step
    accept = options.delta_accept_factor
    for iteration in range(options.delta_max_iterations):
        if active.size == 0:
            return
        try:
            _check_deadline(deadline, iteration, "batched chord solve")
        except SolveDeadlineExceeded as error:
            for j in active:
                results[j].failure = str(error)
            return
        x_active = x_stack[active]
        nl_vals, nl_rhs_vals, limited, limits[active] = (
            stamps.eval_nonlinear_batch(x_active, limits[active], xp))

        # Per-member sparse assembly and residual (matches
        # ``FaultedSystem.assemble`` / ``_delta_residual`` bit for bit).
        # A stalled member refactorizes its true faulty Jacobian into a
        # member-local operator, exactly like the serial chord.
        shared_rows: List[int] = []
        shared_residuals: List[np.ndarray] = []
        local_rows: List[int] = []
        local_residuals: List[np.ndarray] = []
        limited_by_member = {int(j): bool(flag)
                             for j, flag in zip(active,
                                                backend.to_numpy(limited))}
        nl_vals_host = backend.to_numpy(nl_vals)
        nl_rhs_host = backend.to_numpy(nl_rhs_vals)
        x_host = backend.to_numpy(x_active)
        for row, j in enumerate(active):
            data = system.base_data.copy()
            np.add.at(data, system.pattern.nl_pos, nl_vals_host[row])
            matrix = csc_matrix(
                (data, system.pattern.indices, system.pattern.indptr),
                shape=(n, n))
            view = faulted[j]
            matrix = matrix + coo_matrix(
                (view._vals, (view._rows, view._cols)),
                shape=(n, n)).tocsc()
            rhs = system.rhs_base.copy()
            np.add.at(rhs, stamps.nl_rhs_rows, nl_rhs_host[row])
            residual = rhs - matrix.dot(x_host[row])
            rnorm = (float(np.max(np.abs(residual)))
                     if residual.size else 0.0)
            if not np.isfinite(rnorm):
                results[j].failure = "residual contains non-finite values"
                continue
            if (np.isfinite(prev_rnorm[j])
                    and rnorm > options.reuse_stall_ratio * prev_rnorm[j]):
                if (local_factorizations[j]
                        >= _DELTA_MAX_LOCAL_FACTORIZATIONS):
                    results[j].failure = "chord phase keeps stalling"
                    continue
                if operators[j] is None:
                    operators[j] = FactorCache()
                try:
                    operators[j].factorize(matrix, view.factor_token,
                                           view.sparse)
                except SingularMatrixError as error:
                    results[j].failure = str(error)
                    continue
                local_factorizations[j] += 1
                results[j].stats.n_factorizations += 1
            else:
                results[j].stats.n_reuses += 1
            prev_rnorm[j] = rnorm
            if operators[j] is None:
                shared_rows.append(int(j))
                shared_residuals.append(residual)
            else:
                local_rows.append(int(j))
                local_residuals.append(residual)
        if not shared_rows and not local_rows:
            active = np.array([], dtype=np.intp)
            return

        # One multi-RHS back-substitution through the shared reference
        # factorization (column-bitwise equal to per-member solves)
        # covers every non-stalled member; stalled members solve through
        # their local operator.
        steps: List[Tuple[int, np.ndarray]] = []
        if shared_rows:
            counters.n_batched_solves += 1
            counters.batch_occupancy += len(shared_rows)
            stacked = np.stack(shared_residuals, axis=1)
            y_all = context.cache.solve(stacked)
            if y_all.ndim == 1:
                y_all = y_all.reshape(n, 1)
            for column, j in enumerate(shared_rows):
                solver = solvers[j]
                y = y_all[:, column]
                try:
                    w = np.linalg.solve(solver.capacitance, solver.u.T @ y)
                except np.linalg.LinAlgError as error:
                    results[j].failure = str(error)
                    continue
                steps.append((j, y - solver.z @ w))
        for j, residual in zip(local_rows, local_residuals):
            steps.append((j, operators[j].solve(residual)))

        next_active: List[int] = []
        for j, dx in steps:
            if mvs > 0:
                np.clip(dx[:n_nets], -mvs, mvs, out=dx[:n_nets])
            x_old = backend.to_numpy(x_stack[j])
            x_new = x_old + dx
            if not np.all(np.isfinite(x_new)):
                results[j].failure = "solution contains non-finite values"
                continue
            if float(np.max(np.abs(dx))) > _DELTA_STEP_BLOWUP:
                results[j].failure = "chord step blow-up"
                continue
            results[j].stats.iterations += 1
            if not limited_by_member[j] and _converged_pair(
                    x_old, x_new, n_nets, options, accept):
                results[j].x = x_new
            else:
                x_stack[j] = backend.asarray(x_new)
                next_active.append(int(j))
        next_active.sort()
        active = np.array(next_active, dtype=np.intp)
    for j in active:
        results[j].failure = (
            f"batched chord did not converge in "
            f"{options.delta_max_iterations} iterations")


def _converged_pair(x_old: np.ndarray, x_new: np.ndarray, n_nets: int,
                    options: SimOptions, tol_factor: float) -> bool:
    """Serial ``_converged`` on one member (identical arithmetic)."""
    from .dc import _converged
    return _converged(x_old, x_new, n_nets, options, tol_factor)
