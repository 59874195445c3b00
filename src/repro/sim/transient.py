"""Transient analysis with trapezoidal / backward-Euler companion models.

Two integration modes share the companion-model machinery:

* the **fixed-grid** engine (the default, and the reference behaviour)
  walks a uniform grid plus waveform breakpoints, solving the nonlinear
  companion system by Newton-Raphson at each point.  When a step fails
  to converge it is recursively halved up to
  ``options.max_step_halvings`` times; results are still reported on the
  requested grid.
* the **adaptive** engine (``SimOptions(adaptive_step=True)``) drives
  the step size from a local-truncation-error estimate: each trapezoidal
  step is compared against a polynomial predictor extrapolated through
  the last accepted points, steps whose weighted LTE exceeds tolerance
  are rejected and retried smaller, and accepted steps grow/shrink
  within the ``step_grow_limit``/``step_shrink_limit`` clamps.  Source
  waveform breakpoints are landed on exactly and integration restarts
  with backward Euler after each one, mirroring the fixed-grid engine.

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
from .mna import (CompanionSet, FactorCache, MnaStructure,
                  SingularMatrixError, structure_for)
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
        #: Solver bookkeeping for the whole run (iterations,
        #: factorizations vs reuses, rejected adaptive steps).
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
    the point count and solver counters, and the adaptive stepper
    records every LTE-rejected step size into the
    ``transient.rejected_dt`` histogram.

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
                                   use_ic, cap_overrides, stats, None)
        except ConvergenceError as error:
            if error.stats is None:
                error.stats = stats
            raise
    with tel.span("analysis", kind="transient", t_stop=t_stop, dt=dt,
                  adaptive=options.adaptive_step) as span:
        try:
            result = _transient_impl(circuit, t_stop, dt, options, initial,
                                     use_ic, cap_overrides, stats, tel)
        except ConvergenceError as error:
            if error.stats is None:
                error.stats = stats
            raise
        finally:
            span.set(iterations=stats.iterations,
                     rejected_steps=stats.n_rejected_steps)
            tel.record_newton(stats)
        span.set(timepoints=len(result.times))
        return result


def _transient_impl(circuit: Circuit, t_stop: float, dt: float,
                    options: SimOptions, initial: Optional[DcSolution],
                    use_ic: bool, cap_overrides: Optional[Dict[str, float]],
                    stats: NewtonStats, tel) -> TransientResult:
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
        if options.adaptive_step:
            return _transient_adaptive(circuit, structure, state, options,
                                       x, stats, t_stop, dt, tel)
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


# ----------------------------------------------------------------------
# Adaptive (LTE-controlled) integration
# ----------------------------------------------------------------------

def _source_breakpoints(circuit: Circuit, t_stop: float) -> List[float]:
    """Sorted unique waveform corner times strictly inside (0, t_stop)."""
    points: List[float] = []
    for component in circuit:
        waveform = getattr(component, "waveform", None)
        if waveform is not None:
            points.extend(waveform.breakpoints(t_stop))
    return sorted({p for p in points if 0.0 < p < t_stop})


def _predict(history: Sequence[Tuple[float, np.ndarray]],
             t: float) -> np.ndarray:
    """Quadratic extrapolation through the last three accepted points."""
    (t2, x2), (t1, x1), (t0, x0) = history[-3:]
    d01 = (x0 - x1) / (t0 - t1)
    d12 = (x1 - x2) / (t1 - t2)
    d012 = (d01 - d12) / (t0 - t2)
    return x0 + (t - t0) * (d01 + (t - t1) * d012)


def _lte_error(x_new: np.ndarray, x_pred: np.ndarray, x_old: np.ndarray,
               h: float, h1: float, h2: float, n_nets: int,
               options: SimOptions) -> float:
    """Weighted max-norm LTE estimate of a trapezoidal step.

    The corrector/predictor difference is ``x'''`` times the sum of the
    trapezoidal LTE coefficient ``h^3/12`` and the quadratic-extrapolation
    coefficient ``h (h+h1) (h+h1+h2) / 6``; scaling by the trapezoidal
    share isolates the integrator's own truncation error.  Returns the
    largest node-voltage error relative to the acceptance weight (> 1
    means reject), with the SPICE ``trtol`` fudge already applied.
    """
    c_trap = h ** 3 / 12.0
    c_pred = h * (h + h1) * (h + h1 + h2) / 6.0
    lte = np.abs(x_new[:n_nets] - x_pred[:n_nets]) * (
        c_trap / (c_trap + c_pred))
    weight = (options.lte_reltol
              * np.maximum(np.abs(x_new[:n_nets]), np.abs(x_old[:n_nets]))
              + options.lte_abstol)
    if not lte.size:
        return 0.0
    return float(np.max(lte / weight)) / options.lte_trtol


def _next_step(h: float, err: float, options: SimOptions,
               dt_min: float, dt_max: float) -> float:
    """Step-size update from a normalised LTE ``err`` (clamped).

    Pure so the controller clamps are unit-testable: the classic
    third-order rule ``h * safety * err**(-1/3)`` bounded by the
    grow/shrink limits and the hard ``dt_min``/``dt_max`` bounds.
    """
    if err <= 0.0:
        factor = options.step_grow_limit
    else:
        factor = options.step_safety * err ** (-1.0 / 3.0)
    factor = min(max(factor, options.step_shrink_limit),
                 options.step_grow_limit)
    return min(max(h * factor, dt_min), dt_max)


def _transient_adaptive(circuit: Circuit, structure: MnaStructure,
                        state: _CompanionState, options: SimOptions,
                        x: np.ndarray, stats: NewtonStats, t_stop: float,
                        dt: float, tel=None) -> TransientResult:
    """LTE-controlled integration from 0 to ``t_stop`` (initial step ``dt``).

    Accepted points land exactly on every source-waveform breakpoint
    (integration restarts with backward Euler there, like the fixed-grid
    engine); between breakpoints the step grows and shrinks with the
    local truncation error.  Newton failures and LTE rejections both
    shrink the step and retry, bounded by ``options.max_step_halvings``
    consecutive attempts.
    """
    # Modified Newton: unlike the fixed grid (bit-pinned to the legacy
    # engine), the adaptive path owns its trajectory, so carrying the LU
    # factorization across accepted steps is pure savings.
    cache = FactorCache() if options.use_compiled else None
    dt_min, dt_max = options.lte_bounds(dt)
    use_trap = options.integration.lower() == "trap"
    breakpoints = _source_breakpoints(circuit, t_stop)
    n_nets = structure.n_nets

    h_restart = max(dt * options.step_restart_fraction, dt_min)

    times: List[float] = [0.0]
    trace: List[np.ndarray] = [x]
    history: List[Tuple[float, np.ndarray]] = [(0.0, x)]
    t = 0.0
    h = min(h_restart, dt_max)
    restart = True  # BE for the first step and after every breakpoint
    rejections = 0
    eps = t_stop * 1e-12
    while t < t_stop - eps:
        index = bisect.bisect_right(breakpoints, t + eps)
        next_stop = breakpoints[index] if index < len(breakpoints) else t_stop
        # Land exactly on the next breakpoint; also absorb slivers that
        # would otherwise leave a sub-dt_min remainder step.
        if t + h >= next_stop - eps or next_stop - (t + h) < dt_min:
            h_step = next_stop - t
            landing = True
        else:
            h_step = h
            landing = False
        trapezoidal = use_trap and not restart
        geq, ieq = state.prepare(h_step, trapezoidal)
        try:
            x_new = _newton_solve(structure, options, x, t=t + h_step,
                                  companions=state.set, stats=stats,
                                  factor_cache=cache)
        except (ConvergenceError, SingularMatrixError):
            stats.n_rejected_steps += 1
            rejections += 1
            if tel is not None:
                tel.metrics.histogram("transient.rejected_dt").observe(h_step)
            if rejections > options.max_step_halvings or h_step <= dt_min * 1.0001:
                raise ConvergenceError(
                    f"adaptive transient step at t={t + h_step:.6g}s failed "
                    f"to converge even at the minimum step {dt_min:.3g}s")
            h = max(h_step * 0.5, dt_min)
            continue

        if trapezoidal and len(history) >= 3:
            h1 = history[-1][0] - history[-2][0]
            h2 = history[-2][0] - history[-3][0]
            err = _lte_error(x_new, _predict(history, t + h_step), x,
                             h_step, h1, h2, n_nets, options)
            if err > 1.0 and h_step > dt_min * 1.0001:
                stats.n_rejected_steps += 1
                rejections += 1
                if tel is not None:
                    tel.metrics.histogram(
                        "transient.rejected_dt").observe(h_step)
                if rejections > options.max_step_halvings:
                    raise ConvergenceError(
                        f"adaptive transient step at t={t + h_step:.6g}s "
                        f"rejected {rejections} times in a row")
                h = min(_next_step(h_step, err, options, dt_min, dt_max),
                        h_step * 0.9)
                h = max(h, dt_min)
                continue
            h_next = _next_step(h_step, err, options, dt_min, dt_max)
            if landing:
                # A landing step may be artificially short; don't let it
                # collapse the controller's step.  An overestimate is
                # caught by the next step's own LTE test.
                h_next = max(h_next, h)
        else:
            h_next = h_step  # BE / startup steps carry no LTE estimate

        rejections = 0
        state.commit(x_new, geq, ieq)
        t = next_stop if landing else t + h_step
        times.append(t)
        trace.append(x_new)
        history.append((t, x_new))
        del history[:-3]
        x = x_new
        if landing and next_stop < t_stop - eps:
            # Landed on a source breakpoint: restart the integrator (BE
            # next step, fresh predictor history, conservative step).
            restart = True
            history = [(t, x_new)]
            h = min(max(h_next, dt_min), h_restart)
        else:
            restart = False
            h = min(max(h_next, dt_min), dt_max)

    return TransientResult(structure, np.asarray(times), np.asarray(trace),
                           stats)
