"""Stimulus-synchronised transient runs.

Figs. 5, 8 and 10 sweep stimulus frequency, pipe resistance and load
capacitance.  Each experiment loops over its own grid and simulates
every point with :func:`run_cycles`, which ties the time step to the
stimulus period.
"""

from __future__ import annotations

from ..circuit.netlist import Circuit
from .options import DEFAULT_OPTIONS, SimOptions
from .transient import TransientResult, transient


def run_cycles(circuit: Circuit, frequency: float, cycles: float = 3.0,
               points_per_cycle: int = 400,
               options: SimOptions = DEFAULT_OPTIONS,
               **transient_kwargs) -> TransientResult:
    """Simulate an integer number of stimulus cycles at ``frequency``.

    The common transient recipe of the experiments: step size is derived
    from the period so time resolution scales with the stimulus.  Extra
    keyword arguments (e.g. ``cap_overrides``) pass through to
    :func:`repro.sim.transient.transient`.
    """
    period = 1.0 / frequency
    return transient(circuit, t_stop=cycles * period,
                     dt=period / points_per_cycle, options=options,
                     **transient_kwargs)
