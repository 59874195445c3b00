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

import functools
import json
import os
import time
from dataclasses import dataclass, field, replace
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
    #: Records reused from a checkpoint rather than re-solved (resume).
    #: Excluded from equality: a resumed result that reproduces the same
    #: records *is* the same result.
    n_resumed: int = field(default=0, compare=False)
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


def _failed_stats(error: ConvergenceError) -> NewtonStats:
    """Work a failed solve spent (zeros when the solver predates it)."""
    stats = getattr(error, "stats", None)
    return stats if stats is not None else NewtonStats()


def _solve_defect(defect: Defect, circuit: Circuit,
                  oracles: Sequence[Oracle], options: SimOptions,
                  warm: Optional[Tuple[Dict[str, float], Dict[str, float]]]
                  ) -> FaultRecord:
    """Conventional inject-and-solve with the degradation ladder's
    conventional rungs: (warm) full solve → escalated cold retry →
    quarantine.  Each rung charges its work to the defect's record."""
    faulty = inject(circuit, defect)
    initial = None
    if warm is not None:
        initial = _warm_start_vector(structure_for(faulty), *warm)
    record = FaultRecord(defect=defect, verdicts={})
    rung = "warm-full" if initial is not None else "cold-full"
    try:
        solution = operating_point(faulty, options, initial=initial)
    except ConvergenceError as error:
        record.merge_stats(_failed_stats(error))
        failures = [f"{rung}: {error}"]
        # Last conventional rung: cold restart under an escalated
        # Newton-iteration cap (and a fresh wall-clock budget).  A
        # bistable faulty circuit sometimes diverges from the fault-free
        # warm start yet falls to a plain cold solve; a genuinely
        # unsolvable one is quarantined with the full account.
        try:
            solution = operating_point(faulty, options.escalated())
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
                    warm: Optional[Tuple[Dict[str, float],
                                         Dict[str, float]]],
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


#: Default number of defects per low-rank batch.  Large enough that the
#: vectorised device evaluation amortises the per-iteration Python
#: overhead (wider batches keep winning well past this on the perf
#: bench, but with shrinking returns), small enough that a parallel
#: campaign still gets several batches to spread across workers and
#: that late-converging members do not ride along as dead batch rows
#: for many iterations.
DEFAULT_BATCH_SIZE = 64

#: Batch counters every unit of work reports (zeros off the low-rank path).
_BATCH_COUNTER_KEYS = ("n_batched_solves", "batch_occupancy",
                       "batch_fallbacks")


def _solve_unit(unit: Sequence[Defect], *, circuit: Circuit,
                oracles: Sequence[Oracle], options: SimOptions,
                warm: Optional[Tuple[Dict[str, float], Dict[str, float]]],
                x_ref: Optional[np.ndarray]
                ) -> Tuple[List[FaultRecord], Dict[str, int]]:
    """One campaign unit of work: batch or inject, solve, judge.

    Without ``x_ref`` every defect takes the conventional path.  With
    the fault-free solution ``x_ref``, every defect with a DC view
    (:meth:`~repro.faults.defects.Defect.delta_conductances`: added
    conductances, and opens) is a member of one batch solved on systems
    derived from the shared fault-free compile
    (:func:`repro.sim.batch.solve_batch`), with no injection or compile;
    defects without a view, and members the batch returns unsolved,
    take the conventional path.  Module-level so the parallel executor
    can pickle it.  Returns the records in unit order plus the batch
    counters.
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
        outcomes, batch_counters = solve_batch(context, views, options)
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
# Checkpointing: append-only JSONL of completed records, keyed by defect
# identity, so a crashed campaign resumes instead of restarting.
# ---------------------------------------------------------------------------

#: Checkpoint schema version; bump on incompatible record changes.
CHECKPOINT_SCHEMA = 1

#: FaultRecord fields serialized verbatim (everything except the defect
#: object, which the resuming campaign supplies, and ``verdicts``, which
#: needs a dict copy).
_RECORD_FIELDS = ("converged", "newton_iterations", "solver",
                  "n_factorizations", "gmin_steps", "source_steps",
                  "quarantined", "quarantine_reason")


def defect_key(defect: Defect) -> str:
    """Stable identity a checkpoint keys completed records by.

    ``describe()`` encodes the site and the model value (resistance),
    and ``kind`` disambiguates classes with overlapping descriptions —
    together they are unique within any catalog
    :func:`~repro.faults.catalog.enumerate_defects` produces.
    """
    return f"{defect.kind}|{defect.describe()}"


def _record_to_entry(record: FaultRecord) -> Dict[str, Any]:
    entry: Dict[str, Any] = {
        "type": "record", "schema": CHECKPOINT_SCHEMA,
        "key": defect_key(record.defect),
        "verdicts": dict(record.verdicts),
    }
    for name in _RECORD_FIELDS:
        entry[name] = getattr(record, name)
    return entry


def _record_from_entry(entry: Dict[str, Any], defect: Defect) -> FaultRecord:
    return FaultRecord(defect=defect, verdicts=dict(entry["verdicts"]),
                       **{name: entry[name] for name in _RECORD_FIELDS})


class CheckpointMismatch(ValueError):
    """A checkpoint belongs to a different campaign.

    Raised when a resume (or an append) targets a checkpoint whose
    header fingerprint — the content hash of (netlist, solver options,
    oracles, namespace) recorded when the file was created — does not
    match the running campaign.  Without this check two campaigns whose
    defect catalogs overlap in :func:`defect_key` space (the same pipe
    site exists in every variant of a netlist) would silently exchange
    records.  Headers without a fingerprint (pre-store checkpoints)
    are accepted for backward compatibility.
    """


def checkpoint_header(path: Union[str, os.PathLike]
                      ) -> Optional[Dict[str, Any]]:
    """The header entry of a checkpoint file, or ``None``.

    Tolerant like :func:`load_checkpoint`: a missing file, torn lines,
    or a headerless legacy checkpoint all return ``None`` rather than
    raising.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if isinstance(entry, dict) and entry.get("type") == "header":
                    return entry
    except OSError:
        return None
    return None


def _check_checkpoint_fingerprint(path: Union[str, os.PathLike],
                                  fingerprint: Optional[str]) -> None:
    """Refuse to mix records across campaigns (see CheckpointMismatch)."""
    if fingerprint is None:
        return
    header = checkpoint_header(path)
    recorded = header.get("fingerprint") if header else None
    if recorded is not None and recorded != fingerprint:
        raise CheckpointMismatch(
            f"checkpoint {path} was written by a different campaign "
            f"(fingerprint {recorded[:12]}.. != {fingerprint[:12]}..): "
            "same defect keys would alias across netlists/options; use a "
            "fresh checkpoint path or the original circuit and options")


def load_checkpoint(path: Union[str, os.PathLike]) -> Dict[str, Dict[str, Any]]:
    """Completed-record entries of a campaign checkpoint, keyed by defect.

    Tolerant by design: a missing file is an empty checkpoint, and a
    torn tail line (the process died mid-write) is skipped, so a resume
    never trips over the crash that made it necessary.  Later entries
    for the same key win.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError:
        return {}
    entries: Dict[str, Dict[str, Any]] = {}
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            continue  # torn write from a crash; everything before it holds
        if (isinstance(entry, dict) and entry.get("type") == "record"
                and entry.get("schema") == CHECKPOINT_SCHEMA
                and "key" in entry and "verdicts" in entry
                and all(name in entry for name in _RECORD_FIELDS)):
            entries[entry["key"]] = entry
    return entries


class _CheckpointWriter:
    """Append-only JSONL writer, one flushed line per completed record.

    Keys already present in the file (a resumed run appending to its own
    checkpoint) are skipped, so the file never accumulates duplicates
    and the writer is safe to feed from both the resumed-record replay
    and the live ``on_result`` stream.
    """

    def __init__(self, path: Union[str, os.PathLike],
                 n_defects: int, oracle_names: Sequence[str],
                 fingerprint: Optional[str] = None):
        self.path = path
        if os.path.exists(path):
            _check_checkpoint_fingerprint(path, fingerprint)
        self._written = set(load_checkpoint(path))
        new_file = not self._written and not os.path.exists(path)
        self._handle = open(path, "a", encoding="utf-8")
        # A crash can leave a torn final line with no newline; appending
        # straight after it would corrupt the first new record too.
        if self._handle.tell() > 0:
            with open(path, "rb") as check:
                check.seek(-1, os.SEEK_END)
                if check.read(1) != b"\n":
                    self._handle.write("\n")
        if new_file:
            header = {"type": "header", "schema": CHECKPOINT_SCHEMA,
                      "n_defects": n_defects,
                      "oracles": list(oracle_names)}
            if fingerprint is not None:
                header["fingerprint"] = fingerprint
            self._emit(header)

    def _emit(self, entry: Dict[str, Any]) -> None:
        self._handle.write(json.dumps(entry, sort_keys=True) + "\n")
        self._handle.flush()

    def write(self, record: FaultRecord) -> None:
        key = defect_key(record.defect)
        if key in self._written:
            return
        self._written.add(key)
        self._emit(_record_to_entry(record))

    def close(self) -> None:
        self._handle.close()


def run_campaign(circuit: Circuit, defects: Sequence[Defect],
                 oracles: Sequence[Oracle], *,
                 options: SimOptions = DEFAULT_OPTIONS,
                 warm_start: bool = True,
                 low_rank: bool = False,
                 batch_size: Optional[int] = None,
                 parallel: bool = False,
                 workers: Optional[int] = None,
                 chunk_size: Optional[int] = None,
                 progress: Optional[Callable[[int, int, float], None]] = None,
                 checkpoint: Optional[Union[str, os.PathLike]] = None,
                 resume: Union[bool, str, os.PathLike] = False,
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
    never the sweep (see :func:`repro.parallel.parallel_map`,
    ``options.chunk_timeout_s`` / ``max_chunk_retries``).

    ``checkpoint`` (a JSONL path) appends every completed record the
    moment the parent process sees it, keyed by defect identity
    (:func:`defect_key`).  ``resume`` skips defects already recorded:
    ``resume=True`` reads the ``checkpoint`` file itself, or pass an
    explicit path.  A resumed campaign returns records identical to an
    uninterrupted run's, in the original defect order, and keeps
    appending the newly solved defects to ``checkpoint``.  Checkpoint
    headers record the campaign's content fingerprint; resuming (or
    appending to) a checkpoint written by a different campaign —
    different netlist, solver options, or oracle configuration — raises
    :class:`CheckpointMismatch` instead of silently aliasing records by
    defect key.

    ``store`` (a :class:`repro.store.ResultStore` or a directory path)
    memoizes solves *across* campaigns: every record is addressed by a
    content hash of (netlist, solver-relevant options, oracles,
    ``store_namespace``, defect), looked up before solving and written
    back after — so re-running an identical campaign (another CLI
    invocation, a verify sweep, a service job) is served from cache,
    field-identical to a fresh solve, and never recomputed.
    Quarantined records are *not* cached: a transient worker crash must
    not poison future runs.  Store traffic is reported on
    :attr:`CampaignResult.n_store_hits` / ``n_store_misses`` /
    ``n_store_puts``; ``store_namespace`` partitions otherwise-identical
    campaigns (the verify matrix passes the engine name).

    ``warm_start`` seeds every faulty solve from the fault-free
    operating point (mapped by net name, see :func:`_warm_start_vector`),
    which typically halves the Newton iteration count per defect.
    ``low_rank=True`` solves every defect with a DC view — added
    resistors between existing nets (pipes, shorts, bridges) and opens
    — on compiled systems derived from the fault-free compile instead
    of per-defect injection and compilation: defects are partitioned
    into batches of ``batch_size`` (default :data:`DEFAULT_BATCH_SIZE`)
    and each batch runs one stacked replay Newton from the fault-free
    operating point (see :func:`repro.sim.batch.solve_batch`: vectorised
    device evaluation over ``(n_defects, n_devices)`` arrays, one
    stacked dense solve per system size or one sparse solve per member
    per iteration, per-defect convergence masking).  Each member's
    operating point is bitwise the warm-started conventional solve's, on
    dense and sparse systems.  Defects without a view take the
    conventional path; members the batch returns unsolved are re-solved
    conventionally (tagged ``delta-fallback``, counted in
    :attr:`CampaignResult.batch_fallbacks`).  Batch work is observable
    via :attr:`CampaignResult.n_batched_solves` / ``batch_occupancy`` /
    ``batch_fallbacks`` and the matching ``campaign.*`` telemetry
    counters.  ``batch_size`` must be at least 1 and is only accepted
    with ``low_rank=True``.

    ``parallel=True`` fans the units of work — single defects, or
    batches with ``low_rank=True`` — out over a process pool
    (``workers`` processes, ``chunk_size`` defects per chunk, rounded up
    to whole batches with ``low_rank=True`` — see
    :func:`repro.parallel.parallel_map`); results are returned in defect
    order and are identical to the serial path's.

    ``progress`` (when given) is called from the parent process as
    ``progress(defects_done, defects_total, elapsed_seconds)`` after
    every finished unit of work.

    With telemetry enabled (``options.telemetry`` or ``REPRO_TRACE``)
    the run traces the full ``campaign → defect → analysis →
    newton_solve`` hierarchy, merges worker-process traces into the
    parent trace, and flushes a campaign-wide metrics snapshot at the
    end; render it with :class:`repro.telemetry.RunReport`.
    """
    if batch_size is not None:
        if not low_rank:
            raise ValueError("batch_size applies only with low_rank=True")
        if batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, "
                             f"got {batch_size}")
    tel = telemetry_for(options)
    defects = list(defects)
    if tel is None:
        return _run_campaign_impl(circuit, defects, oracles, options,
                                  warm_start, low_rank, batch_size,
                                  parallel, workers,
                                  chunk_size, progress, checkpoint, resume,
                                  store, store_namespace, None, None)
    profiler = profiler_for(options)
    with tel.span("campaign", n_defects=len(defects),
                  oracles=[oracle.name for oracle in oracles],
                  warm_start=warm_start, low_rank=low_rank,
                  parallel=parallel) as span:
        if profiler is not None:
            profiler.start()
        try:
            result = _run_campaign_impl(circuit, defects, oracles, options,
                                        warm_start, low_rank, batch_size,
                                        parallel, workers,
                                        chunk_size, progress, checkpoint,
                                        resume, store, store_namespace,
                                        tel, span)
        finally:
            if profiler is not None:
                profiler.stop()
                # The profile correlates to the campaign span it covered.
                tel.tracer.emit(profiler.to_event(
                    span_id=span.span_id, trace_id=tel.tracer.trace_id))
                span.set(profile_samples=profiler.n_samples)
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
                 n_resumed=result.n_resumed,
                 # Campaign-wide cache activity: parent-process delta
                 # plus every worker process's shipped delta (chunk
                 # boundaries make the split vary run to run; the sum
                 # is what reuse actually bought the campaign).
                 mna_cache_delta=dict(result.mna_cache_stats))
        if store is not None:
            span.set(n_store_hits=result.n_store_hits,
                     n_store_misses=result.n_store_misses,
                     n_store_puts=result.n_store_puts)
            tel.metrics.counter("campaign.store_hits").add(
                result.n_store_hits)
            tel.metrics.counter("campaign.store_misses").add(
                result.n_store_misses)
            tel.metrics.counter("campaign.store_puts").add(
                result.n_store_puts)
        tel.metrics.counter("campaign.defects").add(len(result.records))
        for solver_kind, count in result.solver_counts().items():
            tel.metrics.counter(f"campaign.solves.{solver_kind}").add(count)
        if result.solver_failed():
            tel.metrics.counter("campaign.solver_failed").add(
                len(result.solver_failed()))
        if result.quarantined():
            tel.metrics.counter("campaign.quarantined").add(
                len(result.quarantined()))
        if result.n_resumed:
            tel.metrics.counter("campaign.resumed").add(result.n_resumed)
        tel.flush_metrics()
        return result


def _valid_record_entry(entry: Any) -> bool:
    """Schema check for an entry about to round-trip into a record."""
    return (isinstance(entry, dict)
            and entry.get("schema") == CHECKPOINT_SCHEMA
            and "verdicts" in entry
            and all(name in entry for name in _RECORD_FIELDS))


def _run_campaign_impl(circuit: Circuit, defects: List[Defect],
                       oracles: Sequence[Oracle], options: SimOptions,
                       warm_start: bool, low_rank: bool,
                       batch_size: Optional[int], parallel: bool,
                       workers: Optional[int], chunk_size: Optional[int],
                       progress: Optional[Callable[[int, int, float], None]],
                       checkpoint, resume, store, store_namespace,
                       tel, span) -> CampaignResult:
    oracle_names = [oracle.name for oracle in oracles]
    cache_before = dict(CACHE_STATS)

    store_obj: Optional[ResultStore] = None
    if store is not None:
        store_obj = (store if isinstance(store, ResultStore)
                     else ResultStore(store))
    # The fingerprint scopes both the store's content addresses and the
    # checkpoint header; skip the (cheap but nonzero) canonicalization
    # when nothing durable is in play.
    fingerprint = None
    if store_obj is not None or checkpoint is not None or resume:
        fingerprint = campaign_fingerprint(circuit, options, oracles,
                                           store_namespace)

    # Resume: reuse checkpointed records; only the remainder is solved.
    resumed: Dict[str, FaultRecord] = {}
    if resume:
        resume_path = checkpoint if resume is True else resume
        if resume_path is None:
            raise ValueError("resume=True requires a checkpoint path")
        _check_checkpoint_fingerprint(resume_path, fingerprint)
        entries = load_checkpoint(resume_path)
        for defect in defects:
            entry = entries.get(defect_key(defect))
            if entry is not None:
                resumed[defect_key(defect)] = _record_from_entry(entry,
                                                                 defect)

    # Store: serve whatever an earlier campaign already solved.
    cached: Dict[str, FaultRecord] = {}
    n_store_misses = 0
    if store_obj is not None:
        for defect in defects:
            key = defect_key(defect)
            if key in resumed:
                continue
            entry = store_obj.get(result_key(fingerprint, key))
            if entry is not None and _valid_record_entry(entry):
                cached[key] = _record_from_entry(entry, defect)
            else:
                n_store_misses += 1

    todo = [d for d in defects
            if defect_key(d) not in resumed and defect_key(d) not in cached]
    if span is not None:
        span.set(n_todo=len(todo))

    writer = None
    if checkpoint is not None:
        writer = _CheckpointWriter(checkpoint, n_defects=len(defects),
                                   oracle_names=oracle_names,
                                   fingerprint=fingerprint)
        for record in list(resumed.values()) + list(cached.values()):
            # No-op when resuming from this same file; carries records
            # forward when resuming from a different one or when the
            # store served them.
            writer.write(record)
    try:
        records_todo, batch_totals, worker_cache = _solve_todo(
            circuit, todo, oracles, options, warm_start, low_rank,
            batch_size, parallel, workers, chunk_size, progress, writer,
            tel, span)
    finally:
        if writer is not None:
            writer.close()

    fresh = {defect_key(d): r for d, r in zip(todo, records_todo)}
    records = [resumed.get(defect_key(d)) or cached.get(defect_key(d))
               or fresh[defect_key(d)] for d in defects]

    n_store_puts = 0
    if store_obj is not None:
        for record in records:
            if record.quarantined:
                continue  # a transient crash must not poison the cache
            if store_obj.put(result_key(fingerprint,
                                        defect_key(record.defect)),
                             _record_to_entry(record)):
                n_store_puts += 1

    mna_cache_stats = {key: CACHE_STATS[key] - cache_before[key]
                       + worker_cache.get(key, 0) for key in CACHE_STATS}
    return CampaignResult(records=records, oracle_names=oracle_names,
                          n_resumed=len(resumed),
                          n_batched_solves=batch_totals["n_batched_solves"],
                          batch_occupancy=batch_totals["batch_occupancy"],
                          batch_fallbacks=batch_totals["batch_fallbacks"],
                          n_store_hits=len(cached),
                          n_store_misses=n_store_misses,
                          n_store_puts=n_store_puts,
                          mna_cache_stats=mna_cache_stats)


def _solve_todo(circuit: Circuit, todo: List[Defect],
                oracles: Sequence[Oracle], options: SimOptions,
                warm_start: bool, low_rank: bool,
                batch_size: Optional[int], parallel: bool,
                workers: Optional[int], chunk_size: Optional[int],
                progress: Optional[Callable[[int, int, float], None]],
                writer, tel, span
                ) -> Tuple[List[FaultRecord], Dict[str, int], Dict[str, int]]:
    """Solve the not-yet-checkpointed defects.

    The unit of work handed to :func:`repro.parallel.parallel_map` is a
    list of defects — one defect each on the conventional path, one
    batch each with ``low_rank`` — so every unit keeps the same
    fault-tolerance properties: chunk salvage, hung-worker quarantine,
    checkpoint streaming.  Returns the fresh records in ``todo`` order,
    the accumulated batch counters (zeros off the low-rank path), and
    the summed MNA-cache deltas shipped back from genuine worker
    processes (the parent's own delta is accounted by the caller)."""
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

    warm = None
    if warm_start:
        warm = (reference.voltages(),
                {name: reference.branch_current(name)
                 for name in reference.structure.branch_index})

    size = (batch_size or DEFAULT_BATCH_SIZE) if low_rank else 1
    units = [todo[i:i + size] for i in range(0, len(todo), size)]
    # ``chunk_size`` counts defects; a chunk holds whole units.
    if chunk_size is not None:
        chunk_size = -(-chunk_size // size)
    # Worker processes must not receive the parent's telemetry (sinks
    # hold open file handles and would not merge anyway); with tracing
    # on they get a capturing wrapper instead, and their traces are
    # grafted back into the parent trace below.
    kwargs: Dict = dict(
        circuit=circuit, oracles=tuple(oracles),
        options=replace(options, telemetry=None) if parallel else options,
        warm=warm, x_ref=reference.x.copy() if low_rank else None)
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

    start = time.perf_counter()
    defects_done = 0

    def on_result(index: int, value) -> None:
        nonlocal defects_done
        unit_records, _ = _unit_records(units[index], oracles, value)
        if writer is not None:
            # Stream every finalized record to the checkpoint the moment
            # the parent sees it — including quarantined ones, so a
            # resume does not re-run a defect that already cost a hang.
            for record in unit_records:
                writer.write(record)
        if progress is not None:
            defects_done += len(unit_records)
            progress(defects_done, len(todo), time.perf_counter() - start)

    raw = parallel_map(solve, units, workers=workers,
                       chunk_size=chunk_size, serial=not parallel,
                       on_result=on_result,
                       chunk_timeout=(options.chunk_timeout_s
                                      if options.chunk_timeout_s > 0
                                      else None),
                       max_chunk_retries=options.max_chunk_retries,
                       retry_backoff=options.chunk_retry_backoff_s,
                       on_error="return",
                       metrics=tel.metrics if tel is not None else None)
    records: List[FaultRecord] = []
    parent_id = span.span_id if span is not None else None
    parent_pid = os.getpid()
    for unit, value in zip(units, raw):
        if isinstance(value, _WorkerResult):
            if value.pid != parent_pid:
                for key, amount in value.cache_delta.items():
                    worker_cache[key] = worker_cache.get(key, 0) + amount
            if capture and value.events is not None:
                tel.tracer.ingest(value.events, parent_id=parent_id)
                tel.metrics.merge(value.metrics)
        unit_records, counters = _unit_records(unit, oracles, value)
        records.extend(unit_records)
        for key in _BATCH_COUNTER_KEYS:
            batch_totals[key] += counters[key]
    return records, batch_totals, worker_cache
