"""Simulation tolerances and engine knobs, SPICE-flavoured defaults."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..telemetry import Telemetry


@dataclass
class SimOptions:
    """Options shared by DC and transient analyses.

    The defaults mirror Berkeley SPICE3 and are adequate for every circuit
    in the reproduction; experiments tighten/loosen them only where noted
    in EXPERIMENTS.md.
    """

    #: Relative tolerance on node voltages / branch currents.
    reltol: float = 1e-3
    #: Absolute voltage tolerance (SPICE ``vntol``), volts.
    vntol: float = 1e-6
    #: Absolute current tolerance (SPICE ``abstol``), amperes.
    abstol: float = 1e-12
    #: Shunt conductance across PN junctions, siemens.
    gmin: float = 1e-12
    #: Maximum Newton-Raphson iterations per solve.
    max_nr_iterations: int = 150
    #: Gmin-stepping ladder used when the plain operating point fails:
    #: conductances start at ``gmin_start`` and shrink by ``gmin_factor``.
    gmin_start: float = 1e-2
    gmin_factor: float = 10.0
    #: Number of source-stepping increments (last resort homotopy).
    source_steps: int = 20
    #: Above this many MNA unknowns, use the scipy sparse solver path.
    sparse_threshold: int = 120
    #: Transient integration method: ``"trap"`` or ``"be"``.
    integration: str = "trap"
    #: Maximum times a transient step is halved on NR failure.
    max_step_halvings: int = 10
    #: Use the compiled (vectorised, pattern-cached) stamping engine.
    #: ``False`` selects the legacy per-component stamping loop — kept as
    #: the reference implementation for equivalence tests and debugging.
    use_compiled: bool = True

    # -- fault-tolerant campaign execution -------------------------------
    #: Wall-clock budget for one operating-point solve, in seconds,
    #: covering the whole homotopy ladder (plain Newton, gmin stepping,
    #: source stepping).  Checked between Newton iterations — a single
    #: assembled linear solve is never interrupted — and raised as
    #: :class:`repro.sim.dc.SolveDeadlineExceeded`, which aborts the
    #: remaining homotopies instead of falling through to them.
    #: ``0`` disables the deadline (the default: zero cost on the hot
    #: path beyond one ``is not None`` test per iteration).
    solve_deadline_s: float = 0.0
    #: Newton-iteration-cap escalation applied by the fault campaign's
    #: last-resort cold retry: the retry solves with
    #: ``max_nr_iterations * retry_iteration_scale`` iterations and a
    #: fresh deadline before the defect is quarantined.
    retry_iteration_scale: float = 2.0
    #: Liveness timeout for a parallel campaign's chunk-wait loop, in
    #: seconds: if *no* chunk completes for this long, still-queued
    #: chunks are cancelled and rerun in-process and the chunks actually
    #: running are declared hung (their defects quarantine with a
    #: timeout reason).  ``0`` waits forever.
    chunk_timeout_s: float = 0.0
    #: Bounded resubmissions of a failed parallel chunk before its items
    #: fall back to an in-process serial rerun.
    max_chunk_retries: int = 1
    #: Backoff before a chunk resubmission, ``chunk_retry_backoff_s *
    #: attempt`` seconds.
    chunk_retry_backoff_s: float = 0.1

    # -- observability ---------------------------------------------------
    #: Structured-telemetry hook (:class:`repro.telemetry.Telemetry`):
    #: when set, every analysis entered with these options records
    #: nested tracing spans and solver metrics through it.  ``None``
    #: (the default) falls back to the ``REPRO_TRACE`` environment
    #: variable, and with neither set the instrumentation is a no-op.
    #: Excluded from equality/repr: two option sets that solve
    #: identically compare equal regardless of who is watching, and
    #: solver caches keyed on option equality stay shared.
    telemetry: Optional["Telemetry"] = field(
        default=None, compare=False, repr=False)
    #: Attach the sampling wall-clock profiler to campaigns run with
    #: these options (see :mod:`repro.telemetry.profile`).  The profile
    #: is emitted as a ``profile`` event into the campaign's trace and
    #: rendered as a hotspot table by RunReport.  Falls back to the
    #: ``REPRO_PROFILE`` environment variable when False.  Excluded
    #: from equality for the same reason as :attr:`telemetry`.
    profile: bool = field(default=False, compare=False)
    #: Profiler sampling interval in seconds; 0 means the default
    #: (:data:`repro.telemetry.profile.DEFAULT_INTERVAL_S`).
    profile_interval_s: float = field(default=0.0, compare=False)

    def escalated(self) -> "SimOptions":
        """Options for the campaign's last-resort cold retry.

        The Newton-iteration cap grows by :attr:`retry_iteration_scale`
        (never shrinks); the wall-clock deadline restarts because
        :attr:`solve_deadline_s` is a per-solve budget.
        """
        from dataclasses import replace
        return replace(self, max_nr_iterations=max(
            self.max_nr_iterations,
            int(self.max_nr_iterations * self.retry_iteration_scale)))

    def gmin_ladder(self) -> Tuple[float, ...]:
        """Decreasing gmin values ending at :attr:`gmin`."""
        values = []
        g = self.gmin_start
        while g > self.gmin * 1.001:
            values.append(g)
            g /= self.gmin_factor
        values.append(self.gmin)
        return tuple(values)


DEFAULT_OPTIONS = SimOptions()
