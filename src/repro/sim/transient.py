"""Transient analysis with trapezoidal / backward-Euler companion models.

The engine walks a uniform grid plus waveform breakpoints, solving the
nonlinear companion system by Newton-Raphson at each point.  When a
step fails to converge it is recursively halved up to
``options.max_step_halvings`` times; results are still reported on the
requested grid.  Time-step error is checked by grid refinement: the
same run at ``dt`` and at ``dt / 4`` must agree within a stated bound
(``tests/test_transient_refinement.py`` and :mod:`repro.verify`).

Charge storage is declared by components through ``dynamic_elements()``
(see :class:`repro.circuit.netlist.Component`), so explicit capacitors and
BJT junction capacitances share one code path.  The first step after t=0
uses backward Euler to damp the trapezoidal rule's start-up ringing.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuit.components import Capacitor
from ..circuit.netlist import Circuit
from ..telemetry import telemetry_for
from .dc import (ConvergenceError, DcSolution, NewtonStats, _device_run,
                 _newton_solve, operating_point)
from .mna import (CompanionSet, MnaStructure, SingularMatrixError,
                  structure_for)
from .options import DEFAULT_OPTIONS, SimOptions
from .waveform import Waveform


@dataclass
class _DynamicElement:
    """One charge-storage element declaration (state lives in arrays)."""

    key: str
    net_p: str
    net_n: str
    capacitance: float


class _CompanionState:
    """Vectorised integrator state for all charge-storage elements.

    Wraps a :class:`~repro.sim.mna.CompanionSet` (the fixed stamp
    pattern, resolved to integer indices once per transient) plus the
    per-element capacitance/voltage/current arrays, so each timestep
    computes every companion ``(geq, ieq)`` with two vectorised
    expressions instead of a per-element Python loop.
    """

    def __init__(self, structure: MnaStructure,
                 elements: Sequence[_DynamicElement]):
        self.keys = [e.key for e in elements]
        pairs = [(e.net_p, e.net_n) for e in elements]
        self.cap = np.array([e.capacitance for e in elements])
        self.voltage = np.zeros(len(elements))
        self.current = np.zeros(len(elements))
        self.set = CompanionSet(structure, pairs)
        self._idx_p = np.array([structure.index(p) for p, _ in pairs],
                               dtype=np.intp)
        self._idx_n = np.array([structure.index(n) for _, n in pairs],
                               dtype=np.intp)
        self._n = structure.n_unknowns

    def pair_voltages(self, x: np.ndarray) -> np.ndarray:
        """Voltage across each element at state ``x``."""
        x_ext = np.empty(self._n + 1)
        x_ext[:self._n] = x
        x_ext[self._n] = 0.0  # ground slot, reached through index -1
        return x_ext[self._idx_p] - x_ext[self._idx_n]

    def prepare(self, h: float, trapezoidal: bool
                ) -> Tuple[np.ndarray, np.ndarray]:
        """Install this step's companion values; returns ``(geq, ieq)``."""
        if trapezoidal:
            geq = 2.0 * self.cap / h
            ieq = -(geq * self.voltage + self.current)
        else:
            geq = self.cap / h
            ieq = -geq * self.voltage
        self.set.set_values(geq, ieq)
        return geq, ieq

    def commit(self, x_new: np.ndarray, geq: np.ndarray,
               ieq: np.ndarray) -> None:
        """Update element voltages/currents from an accepted solve."""
        v = self.pair_voltages(x_new)
        self.current = geq * v + ieq
        self.voltage = v

    def snapshot(self) -> Tuple[np.ndarray, np.ndarray]:
        return self.voltage.copy(), self.current.copy()

    def restore(self, saved: Tuple[np.ndarray, np.ndarray]) -> None:
        self.voltage, self.current = saved


class TransientResult:
    """Node voltages / branch currents over time.

    ``wave(net)`` returns a :class:`~repro.sim.waveform.Waveform` ready for
    the measurement toolkit (crossings, swing, time-to-stability...).
    """

    def __init__(self, structure: MnaStructure, times: np.ndarray,
                 states: np.ndarray, stats: Optional[NewtonStats] = None):
        self.structure = structure
        self.times = times
        self.states = states
        #: Solver bookkeeping for the whole run (iterations and
        #: factorizations).
        self.stats = stats if stats is not None else NewtonStats()

    def wave(self, net: str) -> Waveform:
        """Voltage waveform of ``net``."""
        if net == "0":
            return Waveform(self.times, np.zeros_like(self.times), name=net)
        try:
            column = self.structure.net_index[net]
        except KeyError:
            raise KeyError(f"no net {net!r} in transient result") from None
        return Waveform(self.times, self.states[:, column], name=net)

    def branch_wave(self, component_name: str) -> Waveform:
        """Branch-current waveform of a voltage source."""
        try:
            column = self.structure.branch_index[component_name]
        except KeyError:
            raise KeyError(
                f"{component_name!r} is not a branch element") from None
        return Waveform(self.times, self.states[:, column],
                        name=f"i({component_name})")

    def differential(self, net_p: str, net_n: str) -> Waveform:
        """Waveform of ``v(net_p) - v(net_n)``."""
        wave = self.wave(net_p) - self.wave(net_n)
        wave.name = f"{net_p}-{net_n}"
        return wave

    def final_voltages(self) -> Dict[str, float]:
        """Node voltages at the last time point."""
        last = self.states[-1]
        return {net: float(last[i])
                for net, i in self.structure.net_index.items()}


def _collect_dynamic(circuit: Circuit) -> List[_DynamicElement]:
    elements = []
    for component in circuit:
        for key, net_p, net_n, capacitance in component.dynamic_elements():
            if capacitance <= 0:
                continue
            elements.append(_DynamicElement(
                key=f"{component.name}:{key}", net_p=net_p, net_n=net_n,
                capacitance=capacitance))
    return elements


def _initial_element_voltages(state: _CompanionState, circuit: Circuit,
                              x: np.ndarray, use_ic: bool) -> None:
    """Seed element voltages from ``x`` (and cap ``ic`` attributes)."""
    state.voltage = state.pair_voltages(x)
    state.current = np.zeros_like(state.voltage)
    if not use_ic:
        return
    ic_by_key: Dict[str, float] = {}
    for component in circuit.components_of_type(Capacitor):
        if component.ic is not None:
            ic_by_key[f"{component.name}:c"] = float(component.ic)
    for i, key in enumerate(state.keys):
        if key in ic_by_key:
            state.voltage[i] = ic_by_key[key]


def _time_grid(t_stop: float, dt: float,
               circuit: Circuit) -> Tuple[np.ndarray, set]:
    """Uniform grid plus source-waveform breakpoints.

    Returns the grid and the set of breakpoint times: integration
    restarts with backward Euler after each one (the trapezoidal rule
    rings on the slope discontinuity otherwise).
    """
    n_steps = max(int(round(t_stop / dt)), 1)
    grid = list(np.linspace(0.0, t_stop, n_steps + 1))
    breakpoints: List[float] = []
    for component in circuit:
        waveform = getattr(component, "waveform", None)
        if waveform is not None:
            breakpoints.extend(waveform.breakpoints(t_stop))
    break_times = set()
    for point in breakpoints:
        index = bisect.bisect_left(grid, point)
        if index < len(grid) and abs(grid[index] - point) < dt * 1e-6:
            break_times.add(grid[index])
            continue
        if index > 0 and abs(grid[index - 1] - point) < dt * 1e-6:
            break_times.add(grid[index - 1])
            continue
        grid.insert(index, point)
        break_times.add(point)
    return np.asarray(grid), break_times


def transient(circuit: Circuit, t_stop: float, dt: float,
              options: SimOptions = DEFAULT_OPTIONS,
              initial: Optional[DcSolution] = None,
              use_ic: bool = False,
              cap_overrides: Optional[Dict[str, float]] = None) -> TransientResult:
    """Integrate ``circuit`` from 0 to ``t_stop`` with base step ``dt``.

    The initial state is the DC operating point (computed here unless an
    ``initial`` solution is supplied).  With ``use_ic=True`` capacitors
    carrying an ``ic`` attribute start from that voltage instead, and nets
    start from 0 — useful for deliberately unbalanced start-up experiments.

    ``cap_overrides`` maps capacitor component names to initial voltages,
    overriding the operating-point value for just those elements; a
    component owning more than one dynamic element (a BJT with both
    junction capacitances) raises :class:`ValueError`.  The
    detector experiments use it to start a monitoring node precharged to
    its quiescent level when the DC equilibrium (which a slow leak would
    only reach after microseconds) is not the physical test-start state.

    With telemetry enabled (``options.telemetry`` or ``REPRO_TRACE``)
    the run traces an ``analysis`` span (kind ``transient``) carrying
    the point count and solver counters.

    A run that fails raises :class:`~repro.sim.dc.ConvergenceError`
    carrying the run's :class:`~repro.sim.dc.NewtonStats` as ``stats``
    (an initial operating point that fails carries its own), folded
    into the metrics registry as a successful run's are.
    """
    if t_stop <= 0 or dt <= 0:
        raise ValueError("t_stop and dt must be positive")

    tel = telemetry_for(options)
    stats = NewtonStats()
    if tel is None:
        try:
            return _transient_impl(circuit, t_stop, dt, options, initial,
                                   use_ic, cap_overrides, stats)
        except ConvergenceError as error:
            if error.stats is None:
                error.stats = stats
            raise
    with tel.span("analysis", kind="transient", t_stop=t_stop,
                  dt=dt) as span:
        try:
            result = _transient_impl(circuit, t_stop, dt, options, initial,
                                     use_ic, cap_overrides, stats)
        except ConvergenceError as error:
            if error.stats is None:
                error.stats = stats
            raise
        finally:
            span.set(iterations=stats.iterations)
            tel.record_newton(stats)
        span.set(timepoints=len(result.times))
        return result


def _transient_impl(circuit: Circuit, t_stop: float, dt: float,
                    options: SimOptions, initial: Optional[DcSolution],
                    use_ic: bool, cap_overrides: Optional[Dict[str, float]],
                    stats: NewtonStats) -> TransientResult:
    structure = structure_for(circuit)
    elements = _collect_dynamic(circuit)
    state = _CompanionState(structure, elements)

    if use_ic:
        x = np.zeros(structure.n_unknowns)
        _initial_element_voltages(state, circuit, x, use_ic=True)
    else:
        solution = initial if initial is not None else operating_point(
            circuit, options)
        if solution.structure.circuit is not circuit:
            raise ValueError("initial solution computed for another circuit")
        x = solution.x.copy()
        _initial_element_voltages(state, circuit, x, use_ic=False)

    # Device values and limiting state: read once, written back once.
    with _device_run(structure, options):
        if cap_overrides:
            owned: Dict[str, List[int]] = {}
            for i, key in enumerate(state.keys):
                owned.setdefault(key.rsplit(":", 1)[0], []).append(i)
            for name, voltage in cap_overrides.items():
                if name not in owned:
                    raise KeyError(
                        f"no dynamic element on component {name!r}")
                if len(owned[name]) > 1:
                    raise ValueError(
                        f"component {name!r} owns {len(owned[name])} "
                        f"dynamic elements; cap_overrides takes a "
                        f"component with exactly one, such as a "
                        f"capacitor")
                state.voltage[owned[name][0]] = float(voltage)
            # Make the stored t=0 state consistent with the overridden
            # capacitor voltages: one vanishingly short backward-Euler
            # step lets the overridden caps act as voltage sources while
            # every other node settles around them.
            x = _advance(structure, state, options, x, 0.0, dt * 1e-6,
                         trapezoidal=False, stats=stats,
                         halvings_left=options.max_step_halvings)
        return _transient_fixed(circuit, structure, state, options, x,
                                stats, t_stop, dt)


def _transient_fixed(circuit: Circuit, structure: MnaStructure,
                     state: _CompanionState, options: SimOptions,
                     x: np.ndarray, stats: NewtonStats, t_stop: float,
                     dt: float) -> TransientResult:
    """Fixed-grid integration from 0 to ``t_stop`` with base step ``dt``."""
    times, break_times = _time_grid(t_stop, dt, circuit)
    states = np.empty((len(times), structure.n_unknowns))
    states[0] = x
    use_trap = options.integration.lower() == "trap"
    restart = True  # first step, and every step leaving a breakpoint
    for step_index in range(1, len(times)):
        t0, t1 = float(times[step_index - 1]), float(times[step_index])
        x = _advance(structure, state, options, x, t0, t1,
                     use_trap and not restart, stats,
                     options.max_step_halvings)
        states[step_index] = x
        restart = t1 in break_times
    return TransientResult(structure, times, states, stats)


def _advance(structure: MnaStructure, state: _CompanionState,
             options: SimOptions, x: np.ndarray, t0: float, t1: float,
             trapezoidal: bool, stats: NewtonStats,
             halvings_left: int) -> np.ndarray:
    """Advance the state from ``t0`` to ``t1``, halving on NR failure."""
    h = t1 - t0
    saved = state.snapshot()
    geq, ieq = state.prepare(h, trapezoidal)

    try:
        x_new = _newton_solve(structure, options, x, t=t1,
                              companions=state.set, stats=stats)
    except (ConvergenceError, SingularMatrixError):
        if halvings_left <= 0:
            raise ConvergenceError(
                f"transient step at t={t1:.6g}s failed to converge even "
                f"after {options.max_step_halvings} halvings")
        state.restore(saved)
        t_mid = 0.5 * (t0 + t1)
        x_mid = _advance(structure, state, options, x, t0, t_mid,
                         trapezoidal, stats, halvings_left - 1)
        return _advance(structure, state, options, x_mid, t_mid, t1,
                        trapezoidal, stats, halvings_left - 1)

    state.commit(x_new, geq, ieq)
    return x_new
