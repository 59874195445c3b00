"""Fault-simulation campaigns: defects × detection oracles.

The paper's thesis is that amplitude detectors *complement* existing
tests: stuck-at faults fall to logic testing, gross shorts to Iddq, and
the parametric excursion class — invisible to both — to the built-in
detectors.  This module makes that comparison a first-class operation: a
campaign runs every defect of a catalog against a set of *oracles* (ways
of deciding pass/fail) and tabulates which test catches what.

Oracles judge DC operating points.  That matches the paper's §6.6 DC
test discussion; dynamic detection (toggling faults) is exercised by the
transient experiments in :mod:`repro.analysis`.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..circuit.netlist import Circuit
from ..parallel import MapFailure, parallel_map
from ..sim.batch import BatchMember, solve_batch
from ..sim.dc import (ConvergenceError, DcSolution, DeltaContext, NewtonStats,
                      operating_point)
from ..sim.mna import CACHE_STATS, structure_for
from ..sim.options import DEFAULT_OPTIONS, SimOptions
from ..store import ResultStore, campaign_fingerprint, result_key
from ..telemetry import (Telemetry, profiler_for, record_newton_stats,
                         telemetry_for)
from .defects import Defect
from .injector import inject

#: Verdicts an oracle can return.
PASS = "pass"
FAIL = "fail"


class Oracle:
    """A pass/fail judgement over a faulty operating point."""

    name = "oracle"

    def prepare(self, reference: DcSolution) -> None:
        """Capture whatever the oracle needs from the fault-free OP."""

    def judge(self, solution: DcSolution) -> str:
        """Return :data:`PASS` or :data:`FAIL` for a faulty OP."""
        raise NotImplementedError


class FlagOracle(Oracle):
    """Reads a built-in monitor's flag pair (the paper's detector)."""

    name = "detector"

    def __init__(self, flag: str, flagb: str):
        self.flag = flag
        self.flagb = flagb

    def judge(self, solution: DcSolution) -> str:
        good = solution.voltage(self.flag) > solution.voltage(self.flagb)
        return PASS if good else FAIL


class IddqOracle(Oracle):
    """Supply-current screen: fails when Iddq shifts beyond a threshold."""

    name = "iddq"

    def __init__(self, supply_source: str = "VGND",
                 threshold: float = 100e-6):
        self.supply_source = supply_source
        self.threshold = threshold
        self._reference: Optional[float] = None

    def prepare(self, reference: DcSolution) -> None:
        self._reference = reference.branch_current(self.supply_source)

    def judge(self, solution: DcSolution) -> str:
        if self._reference is None:
            raise RuntimeError("IddqOracle.prepare was never called")
        delta = solution.branch_current(self.supply_source) - self._reference
        return FAIL if abs(delta) > self.threshold else PASS


#: DC amplitude-detection criterion of a per-pair detector (variants
#: 1/2): its output must sag this far below the fault-free level, volts.
DETECTION_MARGIN = 0.25


class AmplitudeOracle(Oracle):
    """Reads one per-pair amplitude detector's output (variants 1/2):
    fails when it sits more than :data:`DETECTION_MARGIN` below its
    fault-free value."""

    name = "amplitude"

    def __init__(self, vout: str):
        self.vout = vout
        self._reference: Optional[float] = None

    def prepare(self, reference: DcSolution) -> None:
        self._reference = reference.voltage(self.vout)

    def judge(self, solution: DcSolution) -> str:
        if self._reference is None:
            raise RuntimeError("AmplitudeOracle.prepare was never called")
        sagged = (solution.voltage(self.vout)
                  < self._reference - DETECTION_MARGIN)
        return FAIL if sagged else PASS


class LogicOracle(Oracle):
    """Logic test at DC: compares differential output polarities against
    the fault-free reference (catches stuck-at-class defects)."""

    name = "logic"

    def __init__(self, output_pairs: Sequence[Tuple[str, str]]):
        self.output_pairs = list(output_pairs)
        self._reference: Optional[List[bool]] = None

    @staticmethod
    def _read(solution: DcSolution,
              pairs: Sequence[Tuple[str, str]]) -> List[bool]:
        return [solution.voltage(p) > solution.voltage(n)
                for p, n in pairs]

    def prepare(self, reference: DcSolution) -> None:
        self._reference = self._read(reference, self.output_pairs)

    def judge(self, solution: DcSolution) -> str:
        if self._reference is None:
            raise RuntimeError("LogicOracle.prepare was never called")
        observed = self._read(solution, self.output_pairs)
        return FAIL if observed != self._reference else PASS


@dataclass
class FaultRecord:
    """Outcome of one injected defect across all oracles."""

    defect: Defect
    verdicts: Dict[str, str]
    converged: bool = True
    #: Newton iterations spent on this defect's operating point (0 when
    #: the solve never converged) — the campaign benchmarks read this to
    #: show what warm starting buys.  A ``delta-fallback`` record also
    #: counts the failed low-rank attempt's iterations: the work was
    #: spent on this defect either way.
    newton_iterations: int = 0
    #: How the operating point was obtained: ``"full"`` (conventional
    #: inject-and-solve), ``"batched"`` (replay on a system derived from
    #: the fault-free compile, see
    #: :func:`repro.sim.batch.solve_batch`), ``"delta-fallback"`` (the
    #: batched solve failed; re-solved conventionally), ``"full-retry"``
    #: (the conventional solve failed and the escalated cold retry rung
    #: succeeded), or ``"none"`` (quarantined: no operating point).
    solver: str = "full"
    #: Factorizations performed for this defect's solve.
    n_factorizations: int = 0
    #: Homotopy steps the solve needed (0 when plain Newton converged);
    #: a hard defect that only falls to gmin/source stepping shows up
    #: here instead of silently inflating the iteration count.
    gmin_steps: int = 0
    source_steps: int = 0
    #: Quarantine state.  Set when the degradation ladder (low-rank →
    #: warm full → cold retry) exhausted every solver rung for this defect,
    #: or when the worker executing it crashed or hung; the reason is a
    #: human-readable account of what was tried and why it failed.
    #: Quarantined records keep ``converged=False`` and all-FAIL
    #: verdicts (the paper-faithful "catastrophically broken" reading);
    #: :meth:`CampaignResult.solver_failed` and the ``solver_failed``
    #: entry of :meth:`CampaignResult.coverage_matrix` break them out so
    #: solver failures can never silently inflate coverage.
    quarantined: bool = False
    quarantine_reason: Optional[str] = None

    def caught_by(self) -> List[str]:
        return [name for name, verdict in self.verdicts.items()
                if verdict == FAIL]

    def merge_stats(self, stats: NewtonStats) -> None:
        """Fold one solve's :class:`NewtonStats` into this record.

        The single merge point for per-defect counters — the full path,
        the low-rank path and the delta-fallback path (which merges both
        the failed attempt's and the re-solve's stats) all go through
        here, so serial and parallel campaigns account work identically.
        """
        self.newton_iterations += stats.iterations
        self.n_factorizations += stats.n_factorizations
        self.gmin_steps += stats.gmin_steps
        self.source_steps += stats.source_steps


@dataclass
class CampaignResult:
    """All fault records plus tabulation helpers."""

    records: List[FaultRecord] = field(default_factory=list)
    oracle_names: List[str] = field(default_factory=list)
    #: Low-rank engine observability, populated by ``low_rank=True``
    #: runs and excluded from equality (how the records were computed is
    #: not part of the result).  ``n_batched_solves`` counts batched
    #: replay iterations, ``batch_occupancy`` their summed member counts
    #: (mean occupancy = occupancy / solves), ``batch_fallbacks`` the
    #: members the batch returned unsolved, re-solved conventionally.
    n_batched_solves: int = field(default=0, compare=False)
    batch_occupancy: int = field(default=0, compare=False)
    batch_fallbacks: int = field(default=0, compare=False)
    #: Result-store activity for this campaign (``store=`` runs only;
    #: excluded from equality — a cache-served record *is* the record).
    #: ``n_store_hits`` were served from the content-addressed store
    #: without solving, ``n_store_misses`` were looked up and solved,
    #: ``n_store_puts`` newly written back.
    n_store_hits: int = field(default=0, compare=False)
    n_store_misses: int = field(default=0, compare=False)
    n_store_puts: int = field(default=0, compare=False)
    #: Campaign-wide MNA structure-cache activity — the parent process's
    #: :data:`~repro.sim.mna.CACHE_STATS` delta plus every worker
    #: process's shipped delta, so parallel campaigns account compiled
    #: structure reuse across the whole pool, not just the parent.
    mna_cache_stats: Dict[str, int] = field(default_factory=dict,
                                            compare=False)

    def coverage_matrix(self, by: str = "kind",
                        ) -> Dict[str, Dict[str, Tuple[int, int]]]:
        """kind -> oracle -> (caught, total); non-converged defects
        count as caught by every oracle (catastrophically broken).

        The paper-faithful headline numbers stay as Tables 1-2 read
        them, but every row also carries a ``"solver_failed"`` entry —
        ``(records whose operating point was never solved, total)`` —
        so solver failures are visible instead of silently folded into
        the "trivially detectable" bucket.

        ``by="family"`` groups rows by defect *family* instead of kind
        (``catalog`` / ``oxide`` / ``interconnect``), so mixed-family
        campaigns report a detection rate per class rather than one
        aggregate over the section-3 kinds.
        """
        if by not in ("kind", "family"):
            raise ValueError(f"by must be 'kind' or 'family', got {by!r}")
        matrix: Dict[str, Dict[str, List[int]]] = {}
        for record in self.records:
            group = (record.defect.kind if by == "kind"
                     else record.defect.family)
            kind_row = matrix.setdefault(
                group,
                {name: [0, 0]
                 for name in self.oracle_names + ["any", "solver_failed"]})
            caught = record.caught_by()
            for name in self.oracle_names:
                kind_row[name][1] += 1
                if not record.converged or name in caught:
                    kind_row[name][0] += 1
            kind_row["any"][1] += 1
            if not record.converged or caught:
                kind_row["any"][0] += 1
            kind_row["solver_failed"][1] += 1
            if not record.converged:
                kind_row["solver_failed"][0] += 1
        return {kind: {name: (v[0], v[1]) for name, v in row.items()}
                for kind, row in matrix.items()}

    def escapes(self) -> List[FaultRecord]:
        """Defects no oracle caught."""
        return [r for r in self.records
                if r.converged and not r.caught_by()]

    def solver_failed(self) -> List[FaultRecord]:
        """Records whose operating point was never solved.

        These are counted as caught in the headline coverage numbers
        (the paper's "catastrophically broken" reading) — this breakout
        exists so that reading can be audited, not inflated silently.
        """
        return [r for r in self.records if not r.converged]

    def quarantined(self) -> List[FaultRecord]:
        """Records the campaign quarantined, with their reasons."""
        return [r for r in self.records if r.quarantined]

    def solver_counts(self) -> Dict[str, int]:
        """Records per solver kind (see :attr:`FaultRecord.solver`)."""
        counts: Dict[str, int] = {}
        for record in self.records:
            counts[record.solver] = counts.get(record.solver, 0) + 1
        return counts

    def aggregate_stats(self) -> NewtonStats:
        """Campaign-wide solver counters, merged from every record.

        The result quacks like a per-solve :class:`NewtonStats`
        (strategy ``"campaign"``), so it feeds straight into
        :func:`repro.sim.report.solver_stats_report` and the telemetry
        counter mapping.  Records merge identically whether they were
        produced serially or by worker processes, so serial and
        parallel campaigns report the same aggregates.
        """
        stats = NewtonStats(strategy="campaign")
        for record in self.records:
            stats.iterations += record.newton_iterations
            stats.n_factorizations += record.n_factorizations
            stats.gmin_steps += record.gmin_steps
            stats.source_steps += record.source_steps
        stats.n_batched_solves = self.n_batched_solves
        stats.batch_occupancy = self.batch_occupancy
        stats.batch_fallbacks = self.batch_fallbacks
        return stats

    def format(self) -> str:
        from ..analysis.reporting import format_table

        columns = self.oracle_names + ["any", "solver_failed"]

        def table(matrix, label, title):
            headers = [label] + columns
            rows = []
            for group in sorted(matrix):
                row = [group]
                for name in columns:
                    caught, total = matrix[group][name]
                    row.append(f"{caught}/{total}")
                rows.append(row)
            return format_table(headers, rows, title=title)

        report = table(self.coverage_matrix(),
                       "defect kind", "Fault campaign coverage matrix")
        families = {record.defect.family for record in self.records}
        if len(families) > 1:
            report += "\n" + table(self.coverage_matrix(by="family"),
                                   "defect family",
                                   "Per-family coverage")
        return report


def _warm_start_vector(structure, net_volts: Dict[str, float],
                       branch_currents: Dict[str, float]) -> np.ndarray:
    """Map a fault-free solution onto a faulty topology's unknowns.

    Nets map by name; the fresh ``...#openN`` nets created by open
    defects inherit the voltage of the net they were split from, which
    is an excellent first guess for the high-impedance open model.
    Unmatched unknowns start at zero, exactly like a cold start.
    """
    x0 = np.zeros(structure.n_unknowns)
    for net, index in structure.net_index.items():
        value = net_volts.get(net)
        if value is None:
            value = net_volts.get(net.split("#open", 1)[0], 0.0)
        x0[index] = value
    for name, index in structure.branch_index.items():
        x0[index] = branch_currents.get(name, 0.0)
    return x0


def _annotate_defect_span(span, record: FaultRecord) -> None:
    """Attach a record's outcome to its ``defect`` tracing span."""
    span.set(converged=record.converged, solver=record.solver,
             newton_iterations=record.newton_iterations,
             verdicts=dict(record.verdicts),
             caught_by=record.caught_by())
    if record.quarantined:
        span.set(quarantined=True,
                 quarantine_reason=record.quarantine_reason)


def _quarantine_record(defect: Defect, oracles: Sequence[Oracle],
                       reason: str, solver: str = "none") -> FaultRecord:
    """Terminal rung of the degradation ladder: record the defect as
    unsolvable, with all-FAIL verdicts (paper-faithful) and the reason."""
    return FaultRecord(defect=defect,
                       verdicts={o.name: FAIL for o in oracles},
                       converged=False, solver=solver,
                       quarantined=True, quarantine_reason=reason)


def _guarded(defect: Defect, oracles: Sequence[Oracle],
             solve: Callable[[], FaultRecord]) -> FaultRecord:
    """Catch-all around one defect's unit of work.

    A pathological defect (invalid site, numerical blow-up, an oracle
    tripping over a mangled topology) must cost the campaign one
    quarantined record, never the whole sweep.  The degradation ladder
    inside ``solve`` handles ordinary non-convergence with specific
    reasons; this guard is the backstop for everything else.
    """
    try:
        return solve()
    except Exception as error:
        return _quarantine_record(
            defect, oracles, f"{type(error).__name__}: {error}")


#: Newton-iteration-cap escalation of the last-resort cold retry: it
#: solves with ``int(max_nr_iterations * RETRY_ITERATION_SCALE)``
#: iterations and a fresh deadline before the defect is quarantined.
RETRY_ITERATION_SCALE = 2.0


def _escalated(options: SimOptions) -> SimOptions:
    """Options for the last-resort cold retry: a larger Newton
    iteration cap (the deadline restarts by itself, because
    ``solve_deadline_s`` is a per-solve budget)."""
    return replace(options, max_nr_iterations=int(
        options.max_nr_iterations * RETRY_ITERATION_SCALE))


def _failed_stats(error: ConvergenceError) -> NewtonStats:
    """Work a failed solve spent (zeros when the solver predates it)."""
    stats = getattr(error, "stats", None)
    return stats if stats is not None else NewtonStats()


def _solve_defect(defect: Defect, circuit: Circuit,
                  oracles: Sequence[Oracle], options: SimOptions,
                  warm: Tuple[Dict[str, float], Dict[str, float]]
                  ) -> FaultRecord:
    """Conventional inject-and-solve with the degradation ladder's
    conventional rungs: warm full solve → escalated cold retry →
    quarantine.  Each rung charges its work to the defect's record."""
    faulty = inject(circuit, defect)
    initial = _warm_start_vector(structure_for(faulty), *warm)
    record = FaultRecord(defect=defect, verdicts={})
    try:
        solution = operating_point(faulty, options, initial=initial)
    except ConvergenceError as error:
        record.merge_stats(_failed_stats(error))
        failures = [f"warm-full: {error}"]
        # Last conventional rung: cold restart under an escalated
        # Newton-iteration cap (and a fresh wall-clock budget).  A
        # bistable faulty circuit sometimes diverges from the fault-free
        # warm start yet falls to a plain cold solve; a genuinely
        # unsolvable one is quarantined with the full account.
        try:
            solution = operating_point(faulty, _escalated(options))
        except ConvergenceError as retry_error:
            record.merge_stats(_failed_stats(retry_error))
            failures.append(f"cold-retry: {retry_error}")
            record.verdicts = {o.name: FAIL for o in oracles}
            record.converged = False
            record.solver = "none"
            record.quarantined = True
            record.quarantine_reason = "; ".join(failures)
            return record
        record.solver = "full-retry"
        record.merge_stats(solution.stats)
        record.verdicts = {o.name: o.judge(solution) for o in oracles}
        return record
    record.verdicts = {oracle.name: oracle.judge(solution)
                       for oracle in oracles}
    record.merge_stats(solution.stats)
    return record


def _solve_low_rank(defect: Defect, circuit: Circuit,
                    oracles: Sequence[Oracle], options: SimOptions,
                    warm: Tuple[Dict[str, float], Dict[str, float]],
                    context: DeltaContext, outcome: BatchMember
                    ) -> FaultRecord:
    """One batch member's record: judged on its replay solution, or
    re-solved down the conventional rungs when the batch returned it
    unsolved."""
    if outcome.x is not None:
        solution = DcSolution(context.structure, outcome.x, outcome.stats)
        record = FaultRecord(defect=defect,
                             verdicts={oracle.name: oracle.judge(solution)
                                       for oracle in oracles},
                             solver="batched")
    else:
        record = _solve_defect(defect, circuit, oracles, options, warm)
        if record.quarantined:
            # Keep the whole degradation trail in the quarantine reason:
            # the low-rank rung failed first.
            record.quarantine_reason = (
                f"delta: {outcome.failure}; {record.quarantine_reason}")
        else:
            record.solver = "delta-fallback"
    # The low-rank attempt's work belongs to this defect either way, so
    # aggregate stats account every iteration identically on the serial
    # and parallel paths.
    record.merge_stats(outcome.stats)
    return record


def _traced(defect: Defect, oracles: Sequence[Oracle], options: SimOptions,
            solve: Callable[[], FaultRecord],
            low_rank_stats: Optional[NewtonStats] = None) -> FaultRecord:
    """One defect's work under its ``defect`` tracing span (telemetry
    on), behind the quarantine guard.  The nested ``analysis`` /
    ``newton_solve`` spans come from :func:`operating_point` itself;
    ``low_rank_stats`` is the batch's work on the defect."""
    tel = telemetry_for(options)
    if tel is None:
        return _guarded(defect, oracles, solve)
    with tel.span("defect", defect=defect.describe(),
                  kind=defect.kind) as span:
        record = _guarded(defect, oracles, solve)
        if low_rank_stats is not None:
            tel.record_newton(low_rank_stats)
        _annotate_defect_span(span, record)
        return record


#: Default width of the low-rank replay window: the defects solved
#: together.  Wide enough that the vectorised device evaluation
#: amortises the per-iteration Python overhead (wider windows keep
#: winning past this on the perf bench, but with shrinking returns).
DEFAULT_BATCH_SIZE = 64

#: Replay windows per low-rank unit of work: a unit holds this many
#: times ``batch_size`` defects, all solved by one window that refills
#: from the unit's queue, so only the unit's last iterations run below
#: the window's width.  Small enough that a parallel campaign still gets
#: several units to spread across workers and that the store and
#: ``progress`` follow the campaign closely (a killed campaign loses at
#: most its units in flight): at about 2,000 defects/s on the 8-stage
#: paper chain, a full unit is about half a second of work.
WINDOWS_PER_UNIT = 16

#: Batch counters every unit of work reports (zeros off the low-rank path).
_BATCH_COUNTER_KEYS = ("n_batched_solves", "batch_occupancy",
                       "batch_fallbacks")


def _solve_unit(unit: Sequence[Defect], *, circuit: Circuit,
                oracles: Sequence[Oracle], options: SimOptions,
                warm: Tuple[Dict[str, float], Dict[str, float]],
                x_ref: Optional[np.ndarray], window: int
                ) -> Tuple[List[FaultRecord], Dict[str, int]]:
    """One campaign unit of work: batch or inject, solve, judge.

    Without ``x_ref`` every defect takes the conventional path.  With
    the fault-free solution ``x_ref``, every defect with a DC view
    (:meth:`~repro.faults.defects.Defect.delta_conductances`: added
    conductances, and opens) is solved in one replay window of
    ``window`` slots on systems derived from the shared fault-free
    compile (:func:`repro.sim.batch.solve_batch`), with no injection or
    compile; defects without a view, and members the replay returns
    unsolved, take the conventional path.  Module-level so the parallel
    executor can pickle it.  Returns the records in unit order plus the
    batch counters.
    """
    counters = dict.fromkeys(_BATCH_COUNTER_KEYS, 0)
    batched: Dict[int, BatchMember] = {}
    if x_ref is not None:
        context = DeltaContext.cached(circuit, options, x_ref)
        positions: List[int] = []
        views = []
        for position, defect in enumerate(unit):
            try:
                view = defect.delta_conductances(circuit)
            except Exception:
                continue  # the conventional path reproduces (and records) this
            if view is not None:
                positions.append(position)
                views.append(view)
        outcomes, batch_counters = solve_batch(context, views, options,
                                               window)
        batched = dict(zip(positions, outcomes))
        for key in _BATCH_COUNTER_KEYS:
            counters[key] = getattr(batch_counters, key)
        tel = telemetry_for(options)
        if tel is not None:
            # Batch-level counters are recorded once here (the members'
            # own solve stats flow through their records/defect spans);
            # bypasses the per-solve histogram, which would otherwise
            # see a phantom zero-iteration solve.
            record_newton_stats(
                tel.metrics, NewtonStats(strategy="batched", **counters))
    records: List[FaultRecord] = []
    for position, defect in enumerate(unit):
        outcome = batched.get(position)
        if outcome is None:
            records.append(_traced(defect, oracles, options, functools.partial(
                _solve_defect, defect, circuit, oracles, options, warm)))
        else:
            records.append(_traced(defect, oracles, options, functools.partial(
                _solve_low_rank, defect, circuit, oracles, options, warm,
                context, outcome), outcome.stats))
    return records, counters


@dataclass
class _WorkerResult:
    """One parallel unit's payload, shipped back to the parent.

    ``value`` is the unit's own ``(records, counters)`` result.  ``pid``
    lets the parent tell a genuine worker process from an in-process
    degraded run — when ``parallel_map`` falls back to serial execution
    the wrapper runs in the parent, whose process-global
    :data:`~repro.sim.mna.CACHE_STATS` delta already includes this
    unit's activity, so the parent must not add ``cache_delta`` again.
    ``events``/``metrics`` carry captured telemetry when tracing is on
    (see the capture/merge contract on :func:`_solve_unit_shipped`).
    """

    value: Any
    pid: int
    cache_delta: Dict[str, int]
    events: Optional[List[Dict]] = None
    metrics: Optional[Dict[str, Any]] = None


def _solve_unit_shipped(unit: Sequence[Defect], *, kwargs: Dict,
                        capture: bool,
                        trace_context=None) -> _WorkerResult:
    """Worker-process wrapper: solve one unit, ship stats (+telemetry).

    Used by every parallel campaign.  The worker's MNA structure-cache
    delta for this unit rides back with the records so the parent can
    aggregate campaign-wide cache activity across processes.  With
    ``capture`` (tracing on) the worker additionally records into a
    fresh in-memory Telemetry — the parent cannot ship its tracer (open
    file handles) across the process boundary — and returns the span
    events and metrics snapshot for the parent to merge.
    ``trace_context`` carries the campaign's
    :class:`~repro.telemetry.TraceContext`: the worker's spans are born
    in the campaign's trace (root ``trace_id``, parented under the
    campaign span), so ``Tracer.ingest`` correlates them by id and the
    merged registry stays identical to a serial run's.
    """
    telemetry = (Telemetry.capturing(context=trace_context)
                 if capture else None)
    if capture:
        kwargs = dict(kwargs,
                      options=replace(kwargs["options"], telemetry=telemetry))
    cache_before = dict(CACHE_STATS)
    value = _solve_unit(unit, **kwargs)
    delta = {key: CACHE_STATS[key] - cache_before[key]
             for key in cache_before}
    return _WorkerResult(
        value, os.getpid(), delta,
        telemetry.events() if capture else None,
        telemetry.metrics.snapshot() if capture else None)


def _unit_records(unit: Sequence[Defect], oracles: Sequence[Oracle],
                  value: Any) -> Tuple[List[FaultRecord], Dict[str, int]]:
    """Normalize one ``parallel_map`` result slot into records.

    ``value`` is the unit's ``(records, counters)`` (serial path), a
    :class:`_WorkerResult` envelope around it (parallel — the
    cache/telemetry payloads are merged separately by the caller), or a
    :class:`~repro.parallel.MapFailure` when the worker executing the
    unit crashed or hung, which quarantines every defect of the unit.
    """
    if isinstance(value, _WorkerResult):
        value = value.value
    if isinstance(value, MapFailure):
        reason = (f"worker {value.stage} failure after {value.attempts} "
                  f"attempt(s): {value.error_type}: {value.error}")
        return ([_quarantine_record(defect, oracles, reason)
                 for defect in unit], dict.fromkeys(_BATCH_COUNTER_KEYS, 0))
    records, counters = value
    return list(records), dict(counters)


# ---------------------------------------------------------------------------
# Record entries: the JSON form a record takes in the result store.
# ---------------------------------------------------------------------------

#: Version of a record entry's shape; bump on an incompatible change.
_RECORD_SCHEMA = 1

#: The FaultRecord fields an entry carries: every field but the defect,
#: which the campaign looking the entry up supplies.
_RECORD_FIELDS = tuple(f.name for f in fields(FaultRecord)
                       if f.name != "defect")


def defect_key(defect: Defect) -> str:
    """Stable identity of a defect within a campaign.

    ``describe()`` encodes the site and the model value (resistance),
    and ``kind`` disambiguates classes with overlapping descriptions —
    together they are unique within any catalog
    :func:`~repro.faults.catalog.enumerate_defects` produces.  With the
    campaign fingerprint it makes the record's store address
    (:func:`repro.store.result_key`).
    """
    return f"{defect.kind}|{defect.describe()}"


def _copied(value: Any) -> Any:
    """A dict field gets its own copy, so an entry never shares one
    with a record."""
    return dict(value) if isinstance(value, dict) else value


def _record_to_entry(record: FaultRecord) -> Dict[str, Any]:
    entry: Dict[str, Any] = {"type": "record", "schema": _RECORD_SCHEMA,
                             "key": defect_key(record.defect)}
    for name in _RECORD_FIELDS:
        entry[name] = _copied(getattr(record, name))
    return entry


def _record_from_entry(entry: Dict[str, Any],
                       defect: Defect) -> Optional[FaultRecord]:
    """The record ``entry`` holds, or ``None`` when it has another
    schema or lacks a field (the defect is then solved again)."""
    if (entry.get("schema") != _RECORD_SCHEMA
            or any(name not in entry for name in _RECORD_FIELDS)):
        return None
    return FaultRecord(defect=defect, **{name: _copied(entry[name])
                                         for name in _RECORD_FIELDS})


@contextlib.contextmanager
def _profiled(tel: Optional[Telemetry], span):
    """Sample the enclosed steps when ``REPRO_PROFILE`` asks for a
    profile; the profile event correlates to the campaign span it
    covered."""
    profiler = profiler_for() if tel is not None else None
    if profiler is None:
        yield
        return
    profiler.start()
    try:
        yield
    finally:
        profiler.stop()
        tel.tracer.emit(profiler.to_event(span_id=span.span_id,
                                          trace_id=tel.tracer.trace_id))
        span.set(profile_samples=profiler.n_samples)


def run_campaign(circuit: Circuit, defects: Sequence[Defect],
                 oracles: Sequence[Oracle], *,
                 options: SimOptions = DEFAULT_OPTIONS,
                 low_rank: bool = False,
                 batch_size: Optional[int] = None,
                 parallel: bool = False,
                 workers: Optional[int] = None,
                 chunk_size: Optional[int] = None,
                 chunk_timeout: Optional[float] = None,
                 progress: Optional[Callable[[int, int, float], None]] = None,
                 store: Optional[Union[ResultStore, str, os.PathLike]] = None,
                 store_namespace: str = ""
                 ) -> CampaignResult:
    """Inject each defect, solve DC, collect every oracle's verdict.

    ``circuit`` must already contain whatever the oracles read (monitor
    flags, supply sources).  Defects whose operating point cannot be
    solved run down a degradation ladder — low-rank batch (when
    ``low_rank=True``) → warm full solve → escalated cold retry — and are
    *quarantined* when every rung fails: recorded as non-converged
    (trivially detectable, the paper-faithful reading) with the reason
    on :attr:`FaultRecord.quarantine_reason` and broken out by
    :meth:`CampaignResult.solver_failed`.  ``options.solve_deadline_s``
    bounds each rung's wall-clock cost; a crashed or hung worker process
    likewise costs only its defects (quarantined with a worker reason),
    never the sweep (see :func:`repro.parallel.parallel_map` and
    ``chunk_timeout`` below).

    ``store`` (a :class:`repro.store.ResultStore` or a directory path)
    is the campaign's record log.  Every record is addressed by a
    content hash of (netlist, solver-relevant options, oracles,
    ``store_namespace``, defect): it is looked up before solving, and
    each finished unit of work's records are written the moment the
    parent process sees them.  So re-running an identical campaign
    (another CLI invocation, a verify sweep, a service job) is served
    from the store, field-identical to a fresh solve, and re-running a
    killed one resumes it: only the defects it had not finished are
    solved.  A campaign that differs in netlist, solver options,
    oracles or namespace has other addresses and never sees these
    records.  Quarantined records are *not* stored: a transient worker
    crash must not poison future runs, so a rerun retries them.  Store
    traffic is reported on :attr:`CampaignResult.n_store_hits` /
    ``n_store_misses`` / ``n_store_puts``; ``store_namespace``
    partitions otherwise-identical campaigns (the verify matrix passes
    the engine name).  A store opened here from a path is closed on
    return.

    Every conventional faulty solve starts from the fault-free
    operating point (mapped by net name, see :func:`_warm_start_vector`),
    which typically halves the Newton iteration count per defect.
    ``low_rank=True`` solves every defect with a DC view — added
    resistors between existing nets (pipes, shorts, bridges) and opens
    — on compiled systems derived from the fault-free compile instead
    of per-defect injection and compilation, by stacked replay Newton
    from the fault-free operating point (see
    :func:`repro.sim.batch.solve_batch`: vectorised device evaluation
    over ``(n_defects, n_devices)`` arrays, one stacked dense solve per
    system size or one sparse solve per member per iteration,
    per-defect convergence masking).  Defects are cut into units of
    :data:`WINDOWS_PER_UNIT` times ``batch_size`` (default
    :data:`DEFAULT_BATCH_SIZE`); each unit is solved by one replay
    window of ``batch_size`` slots, and a member that converges or fails
    hands its slot to the unit's next defect.  Each member's operating
    point is bitwise the warm-started conventional solve's, on dense
    and sparse systems, whatever it is solved with.  Defects without a
    view take the conventional path; members the replay returns
    unsolved are re-solved conventionally (tagged ``delta-fallback``,
    counted in :attr:`CampaignResult.batch_fallbacks`).  Replay work is
    observable via :attr:`CampaignResult.n_batched_solves` (replay
    iterations) / ``batch_occupancy`` (members summed over them) /
    ``batch_fallbacks`` and the matching ``campaign.*`` telemetry
    counters.  ``batch_size`` must be at least 1 and is only accepted
    with ``low_rank=True``.

    ``parallel=True`` fans the units of work — single defects, or
    units of windows with ``low_rank=True`` — out over a process pool
    (``workers`` processes, ``chunk_size`` defects per chunk, rounded up
    to whole units — see :func:`repro.parallel.parallel_map`); results
    and batch counters are identical to the serial path's, records in
    defect order.  ``chunk_size`` must be at least 1.  ``chunk_timeout``
    is the pool's liveness window in seconds: when no chunk completes
    for that long, the defects of the chunks still running are
    quarantined with a timeout reason (``None``, the default, waits
    forever).  A serial campaign runs in-process, where no window can
    be kept, so ``chunk_timeout`` is only accepted with
    ``parallel=True``.

    ``progress`` (when given) is called from the parent process as
    ``progress(defects_done, defects_to_solve, elapsed_seconds)`` after
    every finished unit of work, once its records are in the store.

    With telemetry enabled (``options.telemetry`` or ``REPRO_TRACE``)
    the run traces the full ``campaign → defect → analysis →
    newton_solve`` hierarchy, merges worker-process traces into the
    parent trace, and flushes a campaign-wide metrics snapshot at the
    end; render it with :class:`repro.telemetry.RunReport`.
    """
    # Plan: validate, fingerprint, size the units of work.
    if batch_size is not None:
        if not low_rank:
            raise ValueError("batch_size applies only with low_rank=True")
        if batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, "
                             f"got {batch_size}")
    if chunk_size is not None and chunk_size < 1:
        raise ValueError(f"chunk_size must be at least 1, got {chunk_size}")
    if chunk_timeout is not None and not parallel:
        raise ValueError("chunk_timeout applies only with parallel=True")
    defects = list(defects)
    window = batch_size or DEFAULT_BATCH_SIZE
    unit_size = window * WINDOWS_PER_UNIT if low_rank else 1
    tel = telemetry_for(options)
    with contextlib.ExitStack() as scope:
        if store is not None and not isinstance(store, ResultStore):
            store = ResultStore(store)
            scope.callback(store.close)
        span = None if tel is None else scope.enter_context(tel.span(
            "campaign", n_defects=len(defects),
            oracles=[oracle.name for oracle in oracles],
            low_rank=low_rank, parallel=parallel))
        with _profiled(tel, span):
            cache_before = dict(CACHE_STATS)
            fingerprint = (None if store is None else campaign_fingerprint(
                circuit, options, oracles, store_namespace))

            # Lookup: what an earlier run of this campaign finished.
            records: List[Optional[FaultRecord]] = [None] * len(defects)
            if store is not None:
                for index, defect in enumerate(defects):
                    entry = store.get(result_key(fingerprint,
                                                 defect_key(defect)))
                    if entry is not None:
                        records[index] = _record_from_entry(entry, defect)
            todo = [index for index, record in enumerate(records)
                    if record is None]
            if span is not None:
                span.set(n_todo=len(todo))

            # Sink: store each finished unit's records, then report it.
            n_done = n_puts = 0
            started = time.perf_counter()

            def sink(unit_records: List[FaultRecord]) -> None:
                nonlocal n_done, n_puts
                if store is not None:
                    for record in unit_records:
                        # A quarantine (a crash, a deadline) is retried
                        # by a rerun, not stored.
                        if not record.quarantined and store.put(
                                result_key(fingerprint,
                                           defect_key(record.defect)),
                                _record_to_entry(record)):
                            n_puts += 1
                n_done += len(unit_records)
                if progress is not None:
                    progress(n_done, len(todo),
                             time.perf_counter() - started)

            # Solve: the store's misses, unit by unit.
            fresh, batch_totals, worker_cache = _solve_todo(
                circuit, [defects[index] for index in todo], oracles,
                options, low_rank, window, unit_size, parallel, workers,
                chunk_size, chunk_timeout, sink, tel, span)
            for index, record in zip(todo, fresh):
                records[index] = record
            result = CampaignResult(
                records=records,
                oracle_names=[oracle.name for oracle in oracles],
                n_batched_solves=batch_totals["n_batched_solves"],
                batch_occupancy=batch_totals["batch_occupancy"],
                batch_fallbacks=batch_totals["batch_fallbacks"],
                n_store_hits=(0 if store is None
                              else len(defects) - len(todo)),
                n_store_misses=0 if store is None else len(todo),
                n_store_puts=n_puts,
                mna_cache_stats={
                    key: CACHE_STATS[key] - cache_before[key]
                    + worker_cache.get(key, 0) for key in CACHE_STATS})
        if tel is not None:
            _trace_campaign(tel, span, result, low_rank, store is not None)
    return result


def _trace_campaign(tel: Telemetry, span, result: CampaignResult,
                    low_rank: bool, stored: bool) -> None:
    """Annotate the finished campaign span and flush its metrics."""
    aggregate = result.aggregate_stats()
    if low_rank:
        span.set(n_batched_solves=result.n_batched_solves,
                 batch_occupancy=result.batch_occupancy,
                 batch_fallbacks=result.batch_fallbacks)
    span.set(n_converged=sum(1 for r in result.records if r.converged),
             solver_counts=result.solver_counts(),
             newton_iterations=aggregate.iterations,
             n_solver_failed=len(result.solver_failed()),
             n_quarantined=len(result.quarantined()),
             # Campaign-wide cache activity: parent-process delta plus
             # every worker process's shipped delta (chunk boundaries
             # make the split vary run to run; the sum is what reuse
             # actually bought the campaign).
             mna_cache_delta=dict(result.mna_cache_stats))
    if stored:
        span.set(n_store_hits=result.n_store_hits,
                 n_store_misses=result.n_store_misses,
                 n_store_puts=result.n_store_puts)
        tel.metrics.counter("campaign.store_hits").add(result.n_store_hits)
        tel.metrics.counter("campaign.store_misses").add(
            result.n_store_misses)
        tel.metrics.counter("campaign.store_puts").add(result.n_store_puts)
    tel.metrics.counter("campaign.defects").add(len(result.records))
    for solver_kind, count in result.solver_counts().items():
        tel.metrics.counter(f"campaign.solves.{solver_kind}").add(count)
    if result.solver_failed():
        tel.metrics.counter("campaign.solver_failed").add(
            len(result.solver_failed()))
    if result.quarantined():
        tel.metrics.counter("campaign.quarantined").add(
            len(result.quarantined()))
    tel.flush_metrics()


def _solve_todo(circuit: Circuit, todo: List[Defect],
                oracles: Sequence[Oracle], options: SimOptions,
                low_rank: bool, window: int, unit_size: int,
                parallel: bool, workers: Optional[int],
                chunk_size: Optional[int], chunk_timeout: Optional[float],
                sink: Callable[[List[FaultRecord]], None], tel, span
                ) -> Tuple[List[FaultRecord], Dict[str, int], Dict[str, int]]:
    """Solve the defects the store did not hold.

    The unit of work handed to :func:`repro.parallel.parallel_map` is a
    list of ``unit_size`` defects — one defect on the conventional path,
    :data:`WINDOWS_PER_UNIT` windows of ``window`` defects each with
    ``low_rank`` — so every unit keeps the same fault-tolerance
    properties: chunk salvage, hung-worker quarantine, and ``sink``
    receiving its records the moment the parent sees them.  Serial and
    parallel runs cut the same units, so their records and batch
    counters agree.  Returns the fresh records in ``todo`` order, the
    accumulated batch counters (zeros off the low-rank path), and the
    summed MNA-cache deltas shipped back from genuine worker processes
    (the parent's own delta is accounted by the caller)."""
    batch_totals = dict.fromkeys(_BATCH_COUNTER_KEYS, 0)
    worker_cache = dict.fromkeys(CACHE_STATS, 0)
    if not todo:
        return [], batch_totals, worker_cache
    # The solve deadline is a *per-defect* budget: the fault-free
    # reference is the baseline every oracle and warm start needs, so it
    # solves unbudgeted (a failure here is a hard error, not a
    # quarantine).
    reference = operating_point(
        circuit, replace(options, solve_deadline_s=0.0)
        if options.solve_deadline_s > 0 else options)
    for oracle in oracles:
        oracle.prepare(reference)

    warm = (reference.voltages(),
            {name: reference.branch_current(name)
             for name in reference.structure.branch_index})

    units = [todo[i:i + unit_size] for i in range(0, len(todo), unit_size)]
    # ``chunk_size`` counts defects; a chunk holds whole units.
    if chunk_size is not None:
        chunk_size = -(-chunk_size // unit_size)
    # Worker processes must not receive the parent's telemetry (sinks
    # hold open file handles and would not merge anyway); with tracing
    # on they get a capturing wrapper instead, and their traces are
    # grafted back into the parent trace below.
    kwargs: Dict = dict(
        circuit=circuit, oracles=tuple(oracles),
        options=replace(options, telemetry=None) if parallel else options,
        warm=warm, x_ref=reference.x.copy() if low_rank else None,
        window=window)
    capture = parallel and tel is not None
    if parallel:
        # Workers join the campaign's trace: spans they create carry the
        # root trace_id and parent under the campaign span from birth.
        trace_context = tel.tracer.context(span) if capture else None
        solve = functools.partial(_solve_unit_shipped, kwargs=kwargs,
                                  capture=capture,
                                  trace_context=trace_context)
    else:
        solve = functools.partial(_solve_unit, **kwargs)

    finished: List[Any] = [None] * len(units)

    def on_result(index: int, value) -> None:
        finished[index] = _unit_records(units[index], oracles, value)
        sink(finished[index][0])

    raw = parallel_map(solve, units, workers=workers if parallel else 1,
                       chunk_size=chunk_size, chunk_timeout=chunk_timeout,
                       on_result=on_result, on_error="return",
                       metrics=tel.metrics if tel is not None else None)
    records: List[FaultRecord] = []
    parent_id = span.span_id if span is not None else None
    parent_pid = os.getpid()
    for value, (unit_records, counters) in zip(raw, finished):
        if isinstance(value, _WorkerResult):
            if value.pid != parent_pid:
                for key, amount in value.cache_delta.items():
                    worker_cache[key] = worker_cache.get(key, 0) + amount
            if capture and value.events is not None:
                tel.tracer.ingest(value.events, parent_id=parent_id)
                tel.metrics.merge(value.metrics)
        records.extend(unit_records)
        for key in _BATCH_COUNTER_KEYS:
            batch_totals[key] += counters[key]
    return records, batch_totals, worker_cache
