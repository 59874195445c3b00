"""Analog simulation engine: DC operating point and transient analysis.

This replaces the paper's Spectre runs (see DESIGN.md substitution table).
Typical usage::

    from repro.sim import operating_point, transient

    op = operating_point(circuit)
    result = transient(circuit, t_stop=30e-9, dt=25e-12)
    swing = result.wave("op").swing()
"""

from .dcsweep import DcSweepResult, dc_sweep, hysteresis_sweep
from .dc import (ConvergenceError, DcSolution, NewtonStats, SolveDeadlineExceeded,
                 kcl_residuals, operating_point)
from .mna import MnaStructure, SingularMatrixError
from .options import DEFAULT_OPTIONS, SimOptions
from .report import (
    bjt_region,
    load_waveforms_csv,
    op_report,
    save_waveforms_csv,
    solver_stats_report,
    total_supply_power,
)
from .sweep import run_cycles
from .transient import TransientResult, transient
from .waveform import (
    Waveform,
    delay_between,
    differential_crossings,
    hysteresis_thresholds,
)

__all__ = [
    "SimOptions",
    "DEFAULT_OPTIONS",
    "operating_point",
    "dc_sweep",
    "DcSweepResult",
    "hysteresis_sweep",
    "op_report",
    "bjt_region",
    "solver_stats_report",
    "total_supply_power",
    "save_waveforms_csv",
    "load_waveforms_csv",
    "DcSolution",
    "NewtonStats",
    "kcl_residuals",
    "ConvergenceError",
    "SolveDeadlineExceeded",
    "SingularMatrixError",
    "MnaStructure",
    "transient",
    "TransientResult",
    "Waveform",
    "differential_crossings",
    "delay_between",
    "hysteresis_thresholds",
    "run_cycles",
]
