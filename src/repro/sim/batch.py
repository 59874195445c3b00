"""Batched low-rank fault solves: the campaign's low-rank engine.

One fault campaign solves hundreds of operating points that differ from
the fault-free circuit by a rank-1/2 conductance update (pipes, shorts,
bridges).  :func:`solve_batch` solves a batch of them together on the
shared fault-free compiled system — no per-defect injection, topology
rebuild or restamping-table compile — by *replay Newton* on each
member's faulted system (the fault-free system with the member's fault
conductances added): plain Newton from the fault-free operating point,
starting from the junction-limiting state a freshly compiled injected
circuit starts from.  Each iteration makes

* one vectorised device evaluation over ``(n_members, n_junctions)``
  arrays (:meth:`CompiledStamps.eval_nonlinear_batch`), then
* one stacked ``np.linalg.solve`` on dense systems, or one
  :meth:`CompiledSystem.solve_assembled` per member on sparse ones,

and drops converged members from the batch without touching the
arithmetic of the others, so a member's iterates never depend on what it
is batched with: a batch of N and N batches of one give bitwise-equal
results.

On dense systems the replay is the conventional inject-and-solve
trajectory bit for bit: same starting state, same matrix accumulation
order (``np.add.at`` broadcast semantics), and stacked solves whose
slices are bitwise the per-member 1-D solves.  Campaign verdicts
therefore cannot drift even on bistable faulty circuits.  On sparse
systems the fault stamps are added after the fault-free assembly, so
the replay agrees with the conventional solve to solver tolerance.

A member that fails — singular or non-finite iterate, no convergence
within ``options.max_nr_iterations``, the solve deadline — carries the
reason, and the campaign re-solves it conventionally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .dc import (DeltaContext, NewtonStats, SolveDeadlineExceeded,
                 _check_deadline, _deadline_for)
from .mna import SingularMatrixError, fault_overlay, faulted_dense_base
from .options import SimOptions

#: One batch member's fault view: (net-index pairs, added conductances).
MemberSpec = Tuple[Sequence[Tuple[int, int]], Sequence[float]]


@dataclass
class BatchMember:
    """Outcome of one member of a batched solve.

    ``x`` is the converged operating point, or ``None`` when the member
    failed; ``failure`` then says why.  ``stats`` counts the work the
    batch spent on this member: one factorization per replay iteration.
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
                options: SimOptions
                ) -> Tuple[List[BatchMember], BatchCounters]:
    """Solve a batch of low-rank fault systems by stacked replay Newton.

    Every member shares ``context`` (the fault-free compiled system and
    its reset limiting state).  Returns one :class:`BatchMember` per
    spec, in order, plus the batch counters.  Never raises for a
    member-level failure: failed members carry ``x=None`` and count in
    ``batch_fallbacks``.
    """
    results = [BatchMember() for _ in members]
    counters = BatchCounters()
    if not members:
        return results, counters
    if context.system.stamps.supports_batch:
        _replay(context, members, options, counters, results)
    else:
        # Fallback devices stamp through per-component callbacks, which
        # have no stacked evaluation.
        for member in results:
            member.failure = "nonlinear devices without a compiled model"
    counters.batch_fallbacks = sum(1 for member in results
                                   if member.x is None)
    return results, counters


def _replay(context: DeltaContext, members: Sequence[MemberSpec],
            options: SimOptions, counters: BatchCounters,
            results: List[BatchMember]) -> None:
    """Stacked plain Newton on every member's faulted system."""
    system = context.system
    stamps = system.stamps
    n_nets = context.structure.n_nets
    count = len(members)
    if system.sparse:
        overlays = [fault_overlay(system, pairs, gs) for pairs, gs in members]
    else:
        bases = np.stack([faulted_dense_base(system, pairs, gs)
                          for pairs, gs in members])
    limits = np.repeat(context.reset_limits[None, :], count, axis=0)
    x_stack = np.repeat(context.x_ref[None, :], count, axis=0)

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
            stamps.eval_nonlinear_batch(x_active, limits[active]))
        counters.n_batched_solves += 1
        counters.batch_occupancy += int(active.size)

        x_next = None
        if system.sparse:
            assembled = []
            for row, j in enumerate(active):
                matrix, member_rhs = system.stamp(nl_vals[row],
                                                  nl_rhs_vals[row])
                assembled.append((matrix + overlays[j], member_rhs))
        else:
            rows = np.arange(active.size)[:, None]
            matrices = bases[active]
            np.add.at(matrices, (rows, stamps.nl_rows, stamps.nl_cols),
                      nl_vals)
            rhs = np.repeat(system.rhs_base[None, :], active.size, axis=0)
            np.add.at(rhs, (rows, stamps.nl_rhs_rows), nl_rhs_vals)
            try:
                x_next = np.linalg.solve(matrices, rhs[..., None])[..., 0]
            except np.linalg.LinAlgError:
                # One singular member poisons the stacked solve; isolate
                # it with per-member solves (bitwise the stacked slices).
                assembled = zip(matrices, rhs)
        failed = np.zeros(active.size, dtype=bool)
        if x_next is None:
            x_next = np.zeros_like(x_active)
            for row, (matrix, member_rhs) in enumerate(assembled):
                try:
                    x_next[row] = system.solve_assembled(matrix, member_rhs)
                except SingularMatrixError as error:
                    failed[row] = True
                    results[active[row]].failure = str(error)
        finite = np.isfinite(x_next).all(axis=1)
        for row in np.nonzero(~finite & ~failed)[0]:
            results[active[row]].failure = (
                "solution contains non-finite values")
        failed |= ~finite

        if mvs > 0:
            step = x_next[:, :n_nets] - x_active[:, :n_nets]
            np.clip(step, -mvs, mvs, out=step)
            x_next[:, :n_nets] = x_active[:, :n_nets] + step

        survivors = ~failed
        for row in np.nonzero(survivors)[0]:
            stats = results[active[row]].stats
            stats.iterations += 1
            stats.n_factorizations += 1

        # Elementwise broadcast of :func:`repro.sim.dc._converged`.
        delta = np.abs(x_next - x_active)
        tol = options.reltol * np.maximum(np.abs(x_next), np.abs(x_active))
        tol[:, :n_nets] += options.vntol
        tol[:, n_nets:] += options.abstol
        done = survivors & ~limited & (delta <= tol).all(axis=1)
        for row in np.nonzero(done)[0]:
            results[active[row]].x = x_next[row].copy()
        x_stack[active] = x_next
        active = active[survivors & ~done]
    for j in active:
        results[j].failure = (
            f"replay Newton did not converge in "
            f"{options.max_nr_iterations} iterations")
