"""Simulation tolerances and engine knobs, SPICE-flavoured defaults."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

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
    #: Above this many MNA unknowns, use the scipy sparse solver path.
    sparse_threshold: int = 120
    #: Maximum times a transient step is halved on NR failure.
    max_step_halvings: int = 10
    #: Use the compiled (vectorised, pattern-cached) stamping engine.
    #: ``False`` selects the legacy per-component stamping loop — kept as
    #: the reference implementation for equivalence tests and debugging.
    use_compiled: bool = True
    #: Wall-clock budget for one operating-point solve, in seconds,
    #: covering the whole homotopy ladder (plain Newton, gmin stepping,
    #: source stepping).  Checked between Newton iterations — a single
    #: assembled linear solve is never interrupted — and raised as
    #: :class:`repro.sim.dc.SolveDeadlineExceeded`, which aborts the
    #: remaining homotopies instead of falling through to them.
    #: ``0`` disables the deadline (the default: zero cost on the hot
    #: path beyond one ``is not None`` test per iteration).
    solve_deadline_s: float = 0.0

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


DEFAULT_OPTIONS = SimOptions()
