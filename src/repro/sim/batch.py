"""Batched fault solves: the campaign's low-rank engine.

One fault campaign solves hundreds of operating points of circuits that
differ from the fault-free one by a single defect.  :func:`solve_batch`
solves a batch of them together without injecting, copying or compiling
any circuit: every member is the compiled faulted system derived from
the fault-free compile (:meth:`CompiledStamps.derive`).  Added
conductances (pipes, shorts, bridges) keep the fault-free numbering;
an open moves its terminal onto a fresh net and renumbers the unknowns
as the injected circuit would.  Each member's tables come from the one
pattern builder the compile uses, and each member is dense or sparse by
its own size.

Members are solved by *replay Newton*: plain Newton from the fault-free
operating point (in the member's numbering, the fresh net of an open at
its old net's voltage, as the campaign's warm start maps it), starting
from the junction-limiting state a freshly compiled injected circuit
starts from.  Each iteration makes

* one vectorised device evaluation over every member
  (:meth:`CompiledStamps.eval_nonlinear_batch`), each member gathering
  its own junction terminals, then
* one stacked ``np.linalg.solve`` per system size over the dense
  members, and one factorization (:func:`~repro.sim.mna.factor_sparse`,
  as the conventional solve) per sparse member, of the one CSC matrix
  the member keeps for its whole solve and refills in place,

and drops converged members from the batch without touching the
arithmetic of the others, so a member's iterates never depend on what it
is batched with: a batch of N and N batches of one give bitwise-equal
results.

The replay is the conventional inject-and-solve trajectory bit for bit,
on dense and sparse systems alike: the same tables and starting state,
the same accumulation order (a member scatters the device values through
its own indices, its ground slots into one discarded extra slot), and
stacked solves whose slices are bitwise the per-member 1-D solves.
Campaign verdicts therefore cannot drift even on bistable faulty
circuits.  A converged solution is gathered back into the fault-free
numbering, the only one the campaign's oracles read.

A member that fails — no derivable system, singular or non-finite
iterate, no convergence within ``options.max_nr_iterations``, the solve
deadline — carries the reason, and the campaign re-solves it
conventionally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import csc_matrix

from .dc import (DeltaContext, NewtonStats, SolveDeadlineExceeded,
                 _abs_tolerance, _check_deadline, _converged, _deadline_for)
from .mna import SingularMatrixError, solve_direct
from .options import SimOptions

#: One batch member's defect, as its DC view: the ``(net_p, net_n, g)``
#: conductances of :meth:`repro.faults.defects.Defect.delta_conductances`.
MemberView = Sequence[Tuple[object, object, float]]


@dataclass
class BatchMember:
    """Outcome of one member of a batched solve.

    ``x`` is the converged operating point in the fault-free numbering,
    or ``None`` when the member failed; ``failure`` then says why.
    ``stats`` counts the work the batch spent on this member: one
    factorization per replay iteration.
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


class _Member:
    """What the replay reads of one member's derived faulted system.

    ``base``/``rhs_base`` are its Newton-invariant matrix (flat dense
    cells, or CSC data) and RHS, each with one extra slot at the end;
    ``cells``/``rhs_cells`` send every device stamp slot of the batch
    evaluation to a matrix cell and an RHS row, ground slots to the
    extra slot, which the solve never reads.  A sparse member's
    ``matrix`` is its CSC matrix for the whole solve: its data is a view
    of all but the extra slot of ``work``, which each iteration refills.
    The derived tables themselves are not kept.
    """

    def __init__(self, context: DeltaContext, view: MemberView,
                 options: SimOptions):
        stamps = context.system.stamps.derive(view)
        system = stamps.build_system(options)
        n = self.n = stamps.n
        self.n_nets = stamps.n_nets
        self.sparse = system.sparse
        self.renumber = stamps.renumber
        self.x0 = (context.x_ref if stamps.origin is None
                   else np.append(context.x_ref, 0.0)[stamps.origin])
        self.terminals = stamps._j_terminals
        rows, cols = stamps.device_rows, stamps.device_cols
        keep = (rows >= 0) & (cols >= 0)
        if system.sparse:
            pattern = system.pattern
            self.cells = np.full(len(rows), pattern.nnz)
            self.cells[keep] = pattern.nl_pos
            self.base = np.append(system.base_data, 0.0)
            self.work = self.base.copy()
            self.matrix = csc_matrix(
                (self.work[:-1], pattern.indices, pattern.indptr),
                shape=(n, n))
            if not np.shares_memory(self.matrix.data, self.work):
                raise RuntimeError("CSC data is not a view of the work "
                                   "buffer")
        else:
            self.cells = np.where(keep, rows * n + cols, n * n)
            self.base = np.append(system.base_dense.ravel(), 0.0)
        self.rhs_cells = np.where(stamps.device_rhs_rows >= 0,
                                  stamps.device_rhs_rows, n)
        self.rhs_base = np.append(system.rhs_base, 0.0)

    def solution(self, x: np.ndarray) -> np.ndarray:
        """A converged iterate in the fault-free numbering."""
        if self.renumber is None:
            return x[:self.n].copy()
        return x[self.renumber]


def solve_batch(context: DeltaContext, views: Sequence[MemberView],
                options: SimOptions
                ) -> Tuple[List[BatchMember], BatchCounters]:
    """Solve a batch of fault systems by stacked replay Newton.

    Every member is derived from ``context`` (the fault-free compiled
    system and its reset limiting state) and the defect's DC view.
    Returns one :class:`BatchMember` per view, in order, plus the batch
    counters.  Never raises for a member-level failure: failed members
    carry ``x=None`` and count in ``batch_fallbacks``.
    """
    results = [BatchMember() for _ in views]
    counters = BatchCounters()
    if not views:
        return results, counters
    if context.system.stamps.supports_batch:
        members: List[_Member] = []
        solved: List[BatchMember] = []
        for view, result in zip(views, results):
            try:
                members.append(_Member(context, view, options))
            except Exception as error:  # the conventional rung records it
                result.failure = (f"no derived system: "
                                  f"{type(error).__name__}: {error}")
                continue
            solved.append(result)
        if members:
            _replay(context, members, options, counters, solved)
    else:
        # Fallback devices stamp through per-component callbacks, which
        # have no stacked evaluation.
        for member in results:
            member.failure = "nonlinear devices without a compiled model"
    counters.batch_fallbacks = sum(1 for member in results
                                   if member.x is None)
    return results, counters


class _DenseStack:
    """The dense members of one system size, stacked for one solve."""

    def __init__(self, members: Sequence[_Member]):
        self.n = members[0].n
        self.bases = np.stack([m.base for m in members])
        self.cells = np.stack([m.cells for m in members])
        self.rhs_bases = np.stack([m.rhs_base for m in members])
        self.rhs_cells = np.stack([m.rhs_cells for m in members])

    def assemble(self, slots: np.ndarray, vals: np.ndarray,
                 rhs_vals: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(matrices, rhs)`` of the members at ``slots``, from their
        device values (one row each)."""
        n, count = self.n, len(slots)
        matrices = self.bases[slots]
        offsets = np.arange(count)[:, None] * matrices.shape[1]
        np.add.at(matrices.reshape(-1),
                  (self.cells[slots] + offsets).ravel(), vals.ravel())
        rhs = self.rhs_bases[slots]
        offsets = np.arange(count)[:, None] * rhs.shape[1]
        np.add.at(rhs.reshape(-1),
                  (self.rhs_cells[slots] + offsets).ravel(), rhs_vals.ravel())
        return matrices[:, :n * n].reshape(count, n, n), rhs[:, :n]


def _replay(context: DeltaContext, members: Sequence[_Member],
            options: SimOptions, counters: BatchCounters,
            results: List[BatchMember]) -> None:
    """Stacked plain Newton on every member's faulted system."""
    stamps = context.system.stamps  # the devices every member shares
    count = len(members)
    width = max(member.n for member in members)
    x_stack = np.zeros((count, width))
    for j, member in enumerate(members):
        x_stack[j, :member.n] = member.x0
    is_net = np.arange(width) < np.array(
        [member.n_nets for member in members])[:, None]
    atol = np.stack([_abs_tolerance(width, member.n_nets, options.vntol,
                                    options.abstol) for member in members])
    terminals = np.stack([member.terminals for member in members])
    limits = np.repeat(context.reset_limits[None, :], count, axis=0)

    # Dense members solve stacked, one stack per system size; ``group``
    # is a member's stack (-1: sparse) and ``slot`` its row there.
    sizes = sorted({m.n for m in members if not m.sparse})
    group = np.full(count, -1)
    slot = np.zeros(count, dtype=np.intp)
    stacks = []
    for g, n in enumerate(sizes):
        rows = [j for j, m in enumerate(members)
                if not m.sparse and m.n == n]
        group[rows] = g
        slot[rows] = np.arange(len(rows))
        stacks.append(_DenseStack([members[j] for j in rows]))

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
        vals, rhs_vals, limited, limits[active] = (
            stamps.eval_nonlinear_batch(x_active, limits[active],
                                        terminals[active]))
        counters.n_batched_solves += 1
        counters.batch_occupancy += int(active.size)

        x_next = np.zeros_like(x_active)
        failed = np.zeros(active.size, dtype=bool)

        def fail(row: int, reason: str) -> None:
            failed[row] = True
            results[active[row]].failure = reason

        active_group = group[active]
        for g, stack in enumerate(stacks):
            rows = np.flatnonzero(active_group == g)
            if rows.size == 0:
                continue
            matrices, rhs = stack.assemble(slot[active[rows]], vals[rows],
                                           rhs_vals[rows])
            try:
                x_next[rows, :stack.n] = np.linalg.solve(
                    matrices, rhs[..., None])[..., 0]
                continue
            except np.linalg.LinAlgError:
                pass
            # One singular member poisons the stacked solve; isolate it
            # with per-member solves (bitwise the stacked slices).
            for row, matrix, member_rhs in zip(rows, matrices, rhs):
                try:
                    x_next[row, :stack.n] = solve_direct(matrix, member_rhs,
                                                         sparse=False)
                except SingularMatrixError as error:
                    fail(row, str(error))
        for row in np.flatnonzero(active_group < 0):
            member = members[active[row]]
            np.copyto(member.work, member.base)
            np.add.at(member.work, member.cells, vals[row])
            rhs = member.rhs_base.copy()
            np.add.at(rhs, member.rhs_cells, rhs_vals[row])
            try:
                x_next[row, :member.n] = solve_direct(member.matrix, rhs[:-1],
                                                      sparse=True)
            except SingularMatrixError as error:
                fail(row, str(error))
        finite = np.isfinite(x_next).all(axis=1)
        for row in np.flatnonzero(~finite & ~failed):
            fail(row, "solution contains non-finite values")

        if mvs > 0:
            step = x_next - x_active
            np.clip(step, -mvs, mvs, out=step)
            x_next = np.where(is_net[active], x_active + step, x_next)

        survivors = ~failed
        for row in np.flatnonzero(survivors):
            stats = results[active[row]].stats
            stats.iterations += 1
            stats.n_factorizations += 1

        done = (survivors & ~limited
                & _converged(x_active, x_next, atol[active], options))
        for row in np.flatnonzero(done):
            results[active[row]].x = members[active[row]].solution(
                x_next[row])
        x_stack[active] = x_next
        active = active[survivors & ~done]
    for j in active:
        results[j].failure = (
            f"replay Newton did not converge in "
            f"{options.max_nr_iterations} iterations")
