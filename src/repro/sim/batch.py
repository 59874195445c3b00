"""Batched fault solves: the campaign's low-rank engine.

One fault campaign solves hundreds of operating points of circuits that
differ from the fault-free one by a single defect.  :func:`solve_batch`
solves them together without injecting, copying or compiling any
circuit: every member is the compiled faulted system of the fault-free
compile with the defect's conductances added.  Added conductances
(pipes, shorts, bridges) keep the fault-free numbering, so such a member
is the context's one fault-free member with the few matrix cells its
conductances touch overridden (:meth:`CompiledStamps.overrides`), each
cell's value the one the derived compile's linear base accumulates.  An
open moves its terminal onto a fresh net and renumbers the unknowns as
the injected circuit would; it, and a sparse member that reaches a cell
outside the fault-free CSC pattern, take the derived build
(:meth:`CompiledStamps.derive`), whose tables come from the one pattern
builder the compile uses, dense or sparse by the member's own size.

Members are solved by *replay Newton*: plain Newton from the fault-free
operating point (in the member's numbering, the fresh net of an open at
its old net's voltage, as the campaign's warm start maps it), starting
from the junction-limiting state a freshly compiled injected circuit
starts from.  The replay holds a *window* of member slots.  Each
iteration makes

* one vectorised device evaluation over every member in the window
  (:meth:`CompiledStamps.eval_nonlinear_batch`), each member gathering
  its own junction terminals, then
* one stacked ``np.linalg.solve`` per system size over the dense
  members, and one factorization (:func:`~repro.sim.mna.factor_sparse`,
  as the conventional solve) per sparse member, of a CSC matrix refilled
  in place: a derived member's own, or the fault-free member's, which
  the members on the fault-free pattern take in turn.

A member that converges or fails leaves the window, and its slot takes
the next member in line, so the window stays full until the members run
out.  None of this touches the arithmetic of the others, so a member's
iterates never depend on what it is batched with: a window of N and N
windows of one give bitwise-equal results.

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
conventionally.  Both budgets are the member's own, counted from when
it enters the window.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .dc import (DeltaContext, NewtonStats, SolveDeadlineExceeded,
                 _abs_tolerance, _check_deadline, _converged, _deadline_for)
from .mna import CompiledSystem, SingularMatrixError, solve_direct
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
    """What the replay reads of one member's faulted system.

    ``base``/``rhs_base`` are its Newton-invariant matrix (flat dense
    cells, or CSC data) and RHS, each with one extra slot at the end;
    ``cells``/``rhs_cells`` send every device stamp slot of the batch
    evaluation to a matrix cell and an RHS row, ground slots to the
    extra slot, which the solve never reads.  A member that only adds
    conductances between existing nets shares every table with the
    context's fault-free member and holds just ``overrides``, the base
    cells its conductances touch and their values
    (:meth:`CompiledStamps.overrides`); any other member is derived
    (:meth:`CompiledStamps.derive`) and holds its own tables.  A sparse
    member's ``matrix`` is the CSC matrix it is factored from, whose
    data views all but the extra slot of ``work``, refilled each
    iteration.  The members sharing the fault-free tables share that
    buffer too: the replay refills and factors one sparse member at a
    time.
    """

    def __init__(self, system: CompiledSystem, x0: np.ndarray):
        stamps = system.stamps
        n = self.n = stamps.n
        self.n_nets = stamps.n_nets
        self.sparse = system.sparse
        self.renumber = stamps.renumber
        self.x0 = x0
        self.terminals = stamps._j_terminals
        self.overrides: Optional[Tuple[np.ndarray, np.ndarray]] = None
        rows, cols = stamps.device_rows, stamps.device_cols
        keep = (rows >= 0) & (cols >= 0)
        if system.sparse:
            pattern = system.pattern
            self.cells = np.full(len(rows), pattern.nnz)
            self.cells[keep] = pattern.nl_pos
            self.base = np.append(system.base_data, 0.0)
            self.work = self.base.copy()
            self.matrix = pattern.matrix(self.work[:-1])
        else:
            self.cells = np.where(keep, rows * n + cols, n * n)
            self.base = np.append(system.base_dense.ravel(), 0.0)
        self.rhs_cells = np.where(stamps.device_rhs_rows >= 0,
                                  stamps.device_rhs_rows, n)
        self.rhs_base = np.append(system.rhs_base, 0.0)

    @classmethod
    def for_view(cls, context: DeltaContext, view: MemberView,
                 options: SimOptions) -> "_Member":
        """``view``'s member: the context's fault-free member with the
        cells its conductances touch overridden, or, when its system
        differs in more than those cells, its derived build."""
        stamps = context.system.stamps
        overrides = stamps.overrides(view, context.linear_cells)
        if overrides is not None:
            if context.shared_member is None:
                context.shared_member = cls(context.system, context.x_ref)
            member = copy.copy(context.shared_member)
            member.overrides = overrides
            return member
        derived = stamps.derive(view)
        x0 = (context.x_ref if derived.origin is None
              else np.append(context.x_ref, 0.0)[derived.origin])
        return cls(derived.build_system(options), x0)

    def write_base(self, out: np.ndarray) -> None:
        """Write this member's base over the start of ``out``."""
        out[:self.base.size] = self.base
        if self.overrides is not None:
            cells, values = self.overrides
            out[cells] = values

    def solution(self, x: np.ndarray) -> np.ndarray:
        """A converged iterate in the fault-free numbering."""
        if self.renumber is None:
            return x[:self.n].copy()
        return x[self.renumber]


def solve_batch(context: DeltaContext, views: Sequence[MemberView],
                options: SimOptions, window: Optional[int] = None
                ) -> Tuple[List[BatchMember], BatchCounters]:
    """Solve fault systems by stacked replay Newton, ``window`` at a time.

    Every member is built from ``context`` (the fault-free compiled
    system, its reset limiting state and its shared fault-free member)
    and the defect's DC view as it enters the replay, and freed as it
    leaves.  At most ``window`` members (default: every view) iterate
    together; a member that converges or fails hands its slot to the
    next view, in order.
    Returns one :class:`BatchMember` per view, in order, plus the batch
    counters.  Never raises for a member-level failure: failed members
    carry ``x=None`` and count in ``batch_fallbacks``.
    """
    results = [BatchMember() for _ in views]
    counters = BatchCounters()
    if not views:
        return results, counters
    if context.system.stamps.supports_batch:
        _Window(context, views, options, window or len(views),
                results).replay(counters)
    else:
        # Fallback devices stamp through per-component callbacks, which
        # have no stacked evaluation.
        for member in results:
            member.failure = "nonlinear devices without a compiled model"
    counters.batch_fallbacks = sum(1 for member in results
                                   if member.x is None)
    return results, counters


class _DenseStack:
    """The dense members' tables, stacked for one solve per system size.

    Row ``s`` holds the tables of the member in window slot ``s``,
    written over in place when the slot takes its next member.  Rows are
    as wide as the widest member's tables (``width`` unknowns); a
    narrower member's fill their start, so one stack serves both sizes.
    """

    def __init__(self, member: _Member, n_slots: int, width: int):
        self.bases = np.empty((n_slots, width * width + 1))
        self.cells = np.empty((n_slots, member.cells.size),
                              dtype=member.cells.dtype)
        self.rhs_bases = np.empty((n_slots, width + 1))
        self.rhs_cells = np.empty((n_slots, member.rhs_cells.size),
                                  dtype=member.rhs_cells.dtype)

    def put(self, slot: int, member: _Member) -> None:
        member.write_base(self.bases[slot])
        self.cells[slot] = member.cells
        self.rhs_bases[slot, :member.rhs_base.size] = member.rhs_base
        self.rhs_cells[slot] = member.rhs_cells

    def assemble(self, n: int, slots: np.ndarray, vals: np.ndarray,
                 rhs_vals: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(matrices, rhs)`` of the size-``n`` members at ``slots``,
        from their device values (one row each)."""
        count = len(slots)
        matrices = self.bases[slots, :n * n + 1]
        offsets = np.arange(count)[:, None] * (n * n + 1)
        np.add.at(matrices.reshape(-1),
                  (self.cells[slots] + offsets).ravel(), vals.ravel())
        rhs = self.rhs_bases[slots, :n + 1]
        offsets = np.arange(count)[:, None] * (n + 1)
        np.add.at(rhs.reshape(-1),
                  (self.rhs_cells[slots] + offsets).ravel(), rhs_vals.ravel())
        return matrices[:, :n * n].reshape(count, n, n), rhs[:, :n]


class _Window:
    """The replay's member slots, refilled from the queue of views.

    Row ``s`` of every per-slot array belongs to the member in slot
    ``s``: its iterate, limiting state, junction terminals, convergence
    tolerances and the iterations it has spent.  Iterates are one
    unknown wider than the fault-free system, since a derived compile
    splits at most one terminal; a narrower member's extra column stays
    zero.  ``owner`` is the view (and result) index of each slot's
    member.
    """

    def __init__(self, context: DeltaContext, views: Sequence[MemberView],
                 options: SimOptions, window: int,
                 results: List[BatchMember]):
        stamps = context.system.stamps
        self.context = context
        self.options = options
        self.results = results
        self.queue: Iterator[Tuple[int, MemberView]] = iter(enumerate(views))
        size = min(window, len(views))
        width = self.width = stamps.n + 1
        self.members: List[Optional[_Member]] = [None] * size
        self.occupied = np.zeros(size, dtype=bool)
        self.owner = np.zeros(size, dtype=np.intp)
        self.x = np.zeros((size, width))
        self.limits = np.empty((size, len(context.reset_limits)))
        self.terminals = np.empty((size,) + stamps._j_terminals.shape,
                                  dtype=stamps._j_terminals.dtype)
        self.atol = np.empty((size, width))
        self.iterations = np.zeros(size, dtype=np.intp)
        self.deadlines: List[Optional[float]] = [None] * size
        #: A slot's system size when it is dense, -1 when sparse.
        self.group = np.full(size, -1)
        self.dense: Optional[_DenseStack] = None
        self.dense_sizes: List[int] = []

    def fill(self, slot: int) -> bool:
        """Admit the next derivable view into ``slot``; False once the
        queue is empty.  A view without a derivable system fails here,
        without taking a slot."""
        options = self.options
        self.members[slot] = None
        for index, view in self.queue:
            try:
                member = _Member.for_view(self.context, view, options)
            except Exception as error:  # the conventional rung records it
                self.results[index].failure = (
                    f"no derived system: {type(error).__name__}: {error}")
                continue
            self.members[slot] = member
            self.owner[slot] = index
            self.x[slot] = 0.0
            self.x[slot, :member.n] = member.x0
            self.limits[slot] = self.context.reset_limits
            self.terminals[slot] = member.terminals
            self.atol[slot] = _abs_tolerance(self.width, member.n_nets,
                                             options.vntol, options.abstol)
            self.iterations[slot] = 0
            self.deadlines[slot] = _deadline_for(options)
            if member.sparse:
                self.group[slot] = -1
            else:
                self.group[slot] = member.n
                if self.dense is None:
                    self.dense = _DenseStack(member, len(self.members),
                                             self.width)
                if member.n not in self.dense_sizes:
                    self.dense_sizes.append(member.n)
                self.dense.put(slot, member)
            self.occupied[slot] = True
            return True
        self.occupied[slot] = False
        return False

    def fail(self, slot: int, reason: str) -> None:
        self.results[self.owner[slot]].failure = reason

    def spent(self, active: np.ndarray) -> np.ndarray:
        """Fail the members in the ``active`` slots that have used up
        their iteration cap or their wall-clock budget; a mask of them."""
        options = self.options
        spent = self.iterations[active] >= options.max_nr_iterations
        for slot in active[spent]:
            self.fail(slot, f"replay Newton did not converge in "
                            f"{options.max_nr_iterations} iterations")
        if options.solve_deadline_s > 0:
            for row in np.flatnonzero(~spent):
                slot = active[row]
                try:
                    _check_deadline(self.deadlines[slot],
                                    self.iterations[slot],
                                    "batched replay solve")
                except SolveDeadlineExceeded as error:
                    self.fail(slot, str(error))
                    spent[row] = True
        return spent

    def replay(self, counters: BatchCounters) -> None:
        """Stacked plain Newton until every view has left the window."""
        stamps = self.context.system.stamps  # the devices every member shares
        options = self.options
        for slot in range(len(self.members)):
            self.fill(slot)
        active = np.flatnonzero(self.occupied)
        while active.size:
            leaving = self.spent(active)
            if leaving.any():
                active = self._refill(active, leaving)
                continue
            x_active = self.x[active]
            vals, rhs_vals, limited, self.limits[active] = (
                stamps.eval_nonlinear_batch(x_active, self.limits[active],
                                            self.terminals[active]))
            counters.n_batched_solves += 1
            counters.batch_occupancy += int(active.size)

            x_next = np.zeros_like(x_active)
            failed = np.zeros(active.size, dtype=bool)

            def fail(row: int, reason: str) -> None:
                failed[row] = True
                self.fail(active[row], reason)

            active_group = self.group[active]
            for n in self.dense_sizes:
                rows = np.flatnonzero(active_group == n)
                if rows.size == 0:
                    continue
                matrices, rhs = self.dense.assemble(n, active[rows],
                                                    vals[rows],
                                                    rhs_vals[rows])
                try:
                    x_next[rows, :n] = np.linalg.solve(
                        matrices, rhs[..., None])[..., 0]
                    continue
                except np.linalg.LinAlgError:
                    pass
                # One singular member poisons the stacked solve; isolate
                # it with per-member solves (bitwise the stacked slices).
                for row, matrix, member_rhs in zip(rows, matrices, rhs):
                    try:
                        x_next[row, :n] = solve_direct(matrix, member_rhs,
                                                       sparse=False)
                    except SingularMatrixError as error:
                        fail(row, str(error))
            for row in np.flatnonzero(active_group < 0):
                member = self.members[active[row]]
                member.write_base(member.work)
                np.add.at(member.work, member.cells, vals[row])
                rhs = member.rhs_base.copy()
                np.add.at(rhs, member.rhs_cells, rhs_vals[row])
                try:
                    x_next[row, :member.n] = solve_direct(
                        member.matrix, rhs[:-1], sparse=True)
                except SingularMatrixError as error:
                    fail(row, str(error))
            finite = np.isfinite(x_next).all(axis=1)
            for row in np.flatnonzero(~finite & ~failed):
                fail(row, "solution contains non-finite values")

            survivors = ~failed
            self.iterations[active[survivors]] += 1
            for row in np.flatnonzero(survivors):
                stats = self.results[self.owner[active[row]]].stats
                stats.iterations += 1
                stats.n_factorizations += 1

            done = (survivors & ~limited
                    & _converged(x_active, x_next, self.atol[active],
                                 options))
            for row in np.flatnonzero(done):
                slot = active[row]
                self.results[self.owner[slot]].x = (
                    self.members[slot].solution(x_next[row]))
            self.x[active] = x_next
            active = self._refill(active, failed | done)

    def _refill(self, active: np.ndarray, leaving: np.ndarray
                ) -> np.ndarray:
        """Hand the slots of the ``leaving`` rows of ``active`` to the
        next views; the slots then active."""
        for slot in active[leaving]:
            self.fill(slot)
        return np.flatnonzero(self.occupied)
