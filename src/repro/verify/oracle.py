"""Cross-engine oracles: run one scenario under every engine config.

The simulator grew several semantically-equivalent execution paths
(compiled vs. legacy stamping, dense vs. sparse linear algebra,
low-rank batched vs. conventional inject-and-solve, serial vs.
process-parallel campaigns).  They promise to agree; this module
*checks* it, scenario by scenario:

* **operating points** — node voltages vs. the baseline engine;
* **fault verdicts** — campaign verdict tables must be bit-identical
  across engines (the strongest promise: low-rank and parallel solves
  replay the conventional results exactly on the dense path);
* **waveforms** — transients sample-identical across stamping paths,
  and the baseline within a slew-aware envelope of its own rerun on a
  4x finer grid (the time-step error check);
* **physics invariants** — single-engine checks that need no second
  engine: KCL residuals, analog/logic agreement, detector flags at
  the fault-free point, output-swing bounds, supply-current sanity.

Every failed check becomes a :class:`Disagreement`; a scenario with at
least one is a counterexample that :mod:`repro.verify.shrink` minimizes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..faults.campaign import (
    FlagOracle,
    IddqOracle,
    LogicOracle,
    Oracle,
    PASS,
    defect_key,
    run_campaign,
)
from ..sim import SimOptions, operating_point, run_cycles
from ..sim.dc import kcl_residuals
from .generate import BuiltScenario, Scenario, build_scenario

#: sparse_threshold values that force one matrix backend or the other
#: (same convention as the engine cross-validation tests).
_FORCE_SPARSE = 1
_FORCE_DENSE = 10_000

#: Grid refinement of the transient check's time-step error reference.
_REFINE = 4

#: Base solver options for verification runs.  Newton is tightened well
#: past the production defaults so every engine converges to (nearly)
#: the same fixed point — with the stock reltol the engines are each
#: *individually* within tolerance but up to ~2e-5 V apart on stiff
#: monitor nets, which would drown real stamping bugs in solver noise.
VERIFY_OPTIONS = SimOptions(reltol=1e-6, vntol=1e-9)


@dataclass(frozen=True)
class EngineConfig:
    """One execution path through the simulator."""

    name: str
    use_compiled: bool = True
    #: True → force sparse, False → force dense, None → heuristic.
    sparse: Optional[bool] = False
    low_rank: bool = False
    parallel: bool = False
    workers: int = 2

    def options(self, base: SimOptions) -> SimOptions:
        changes: dict = {"use_compiled": self.use_compiled}
        if self.sparse is not None:
            changes["sparse_threshold"] = (
                _FORCE_SPARSE if self.sparse else _FORCE_DENSE)
        return replace(base, **changes)


#: The engine matrix.  The first entry is the baseline everything else
#: is compared against.  Kept deliberately orthogonal: each config
#: flips one axis off the baseline so a disagreement names the axis.
DEFAULT_ENGINES: Tuple[EngineConfig, ...] = (
    EngineConfig("compiled-dense"),
    EngineConfig("legacy-dense", use_compiled=False),
    EngineConfig("compiled-sparse", sparse=True),
    EngineConfig("compiled-low-rank", low_rank=True),
    EngineConfig("compiled-parallel", parallel=True),
)

ENGINES_BY_NAME: Dict[str, EngineConfig] = {
    engine.name: engine for engine in DEFAULT_ENGINES}


@dataclass(frozen=True)
class Tolerances:
    """Agreement thresholds, loosest-to-justify documented inline."""

    #: Node-voltage agreement across engines.  Under VERIFY_OPTIONS'
    #: tightened Newton the engines land within ~1e-7 V of each other
    #: on signal nets; high-impedance detector outputs amplify the
    #: residual iteration-order differences between dense and sparse
    #: factorizations to a couple of microvolts, hence 5e-6 (still
    #: three orders under any real stamping bug's footprint).
    op_abs: float = 5e-6
    #: KCL residual at a converged point (amperes).
    kcl_abs: float = 1e-6
    #: Fixed-grid waveform agreement across stamping paths (volts).
    waveform_abs: float = 1e-6
    #: Time-step error bound on *flat* regions: the baseline transient
    #: against its rerun on a 4x finer grid (volts).  On square-wave
    #: edges the coarse grid's truncation error is largest (its samples
    #: straddle the edge the fine grid resolves), so the per-sample
    #: allowance grows with the local slew: ``refined_abs + |dv/dt| *
    #: 3 * local_dt`` — tight where the waveform is flat, proportional
    #: to a few coarse steps' worth of edge where it is not.
    refined_abs: float = 5e-3
    #: Coarse-grid samples blanked at the start of the refinement
    #: comparison.  Both runs launch from the same DC point, but the
    #: first trapezoidal steps ring differently at different step
    #: sizes; the ringing decays within a few coarse steps and is
    #: startup artefact, not time-step error.
    startup_skip: int = 8
    #: Fault-free differential swing must sit in this band of the
    #: technology target (generous: degenerate logic depths and shared
    #: shifters shave the swing).
    swing_band: Tuple[float, float] = (0.5, 1.5)
    #: Fault-free supply current vs. the cells*itail prediction.
    iddq_band: Tuple[float, float] = (0.2, 5.0)


@dataclass(frozen=True)
class Disagreement:
    """One failed check (cross-engine or invariant)."""

    kind: str
    engine_a: str
    engine_b: str
    where: str
    value_a: float = 0.0
    value_b: float = 0.0
    tolerance: float = 0.0
    detail: str = ""

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def format(self) -> str:
        versus = (f"{self.engine_a} vs {self.engine_b}"
                  if self.engine_b else self.engine_a)
        return (f"[{self.kind}] {versus} at {self.where}: "
                f"{self.value_a!r} vs {self.value_b!r} "
                f"(tol {self.tolerance:g}) {self.detail}".rstrip())


@dataclass
class CheckResult:
    """Outcome of one scenario under the full engine matrix."""

    scenario: Scenario
    disagreements: List[Disagreement] = field(default_factory=list)
    n_engine_pairs: int = 0
    n_checks: int = 0
    engines: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.disagreements

    def format(self) -> str:
        head = (f"{self.scenario.name}: {self.n_checks} checks over "
                f"{self.n_engine_pairs} engine pairs -> "
                f"{'OK' if self.ok else f'{len(self.disagreements)} FAIL'}")
        lines = [head] + ["  " + d.format() for d in self.disagreements]
        return "\n".join(lines)


def _fresh_oracles(built: BuiltScenario) -> List[Oracle]:
    """Oracles are stateful (``prepare`` captures the reference), so
    every engine run gets its own instances."""
    oracles: List[Oracle] = [LogicOracle(built.output_pairs
                                         + built.link_output_pairs())]
    if built.flag_nets is not None:
        oracles.append(FlagOracle(*built.flag_nets))
    if "VGND" in built.circuit:
        oracles.append(IddqOracle(supply_source="VGND"))
    return oracles


def _op_check(scenario: Scenario, engines: Sequence[EngineConfig],
              base: SimOptions, tol: Tolerances,
              result: CheckResult) -> Optional[BuiltScenario]:
    """DC agreement: solve per engine, compare node voltages pairwise
    against the baseline.  Returns the baseline build (reused by the
    invariant checks), or ``None`` if the baseline itself failed."""
    solutions: Dict[str, Dict[str, float]] = {}
    baseline_built: Optional[BuiltScenario] = None
    for engine in engines:
        built = build_scenario(scenario)
        options = engine.options(base)
        try:
            solution = operating_point(built.circuit, options)
        except Exception as error:
            result.disagreements.append(Disagreement(
                kind="op-error", engine_a=engine.name, engine_b="",
                where="operating_point", detail=f"{error}"))
            continue
        solutions[engine.name] = dict(solution.voltages())
        if engine is engines[0]:
            baseline_built = built
            baseline_built.solution = solution  # type: ignore[attr-defined]
    baseline = engines[0].name
    if baseline not in solutions:
        return None
    for engine in engines[1:]:
        if engine.name not in solutions:
            continue
        result.n_engine_pairs += 1
        reference = solutions[baseline]
        candidate = solutions[engine.name]
        for net in sorted(set(reference) & set(candidate)):
            result.n_checks += 1
            delta = abs(reference[net] - candidate[net])
            if delta > tol.op_abs:
                result.disagreements.append(Disagreement(
                    kind="op", engine_a=baseline, engine_b=engine.name,
                    where=net, value_a=reference[net],
                    value_b=candidate[net], tolerance=tol.op_abs))
    return baseline_built


def _invariant_checks(built: BuiltScenario, tol: Tolerances,
                      result: CheckResult) -> None:
    """Single-engine physics invariants on the baseline fault-free OP."""
    scenario = built.scenario
    solution = built.solution  # type: ignore[attr-defined]
    engine = result.engines[0] if result.engines else "baseline"

    residuals = kcl_residuals(built.circuit, solution)
    result.n_checks += 1
    worst_net = max(residuals, key=lambda net: abs(residuals[net]),
                    default=None)
    if worst_net is not None and abs(residuals[worst_net]) > tol.kcl_abs:
        result.disagreements.append(Disagreement(
            kind="invariant-kcl", engine_a=engine, engine_b="",
            where=worst_net, value_a=residuals[worst_net],
            tolerance=tol.kcl_abs))

    # Analog polarity at every gate output must match the logic model.
    expected = scenario.network().evaluate(dict(scenario.input_values))
    for (net_p, net_n), signal in zip(
            built.output_pairs,
            (gate[3] for gate in scenario.gates)):
        logical = expected.get(signal)
        if logical is None:
            continue
        result.n_checks += 1
        analog = solution.voltage(net_p) > solution.voltage(net_n)
        if analog != logical:
            result.disagreements.append(Disagreement(
                kind="invariant-logic", engine_a=engine, engine_b="",
                where=signal,
                value_a=solution.voltage(net_p) - solution.voltage(net_n),
                value_b=1.0 if logical else 0.0,
                detail=f"analog {analog} != logic {logical}"))

    # Differential swing at every gate output inside the tech band.
    low = tol.swing_band[0] * built.tech.swing
    high = tol.swing_band[1] * built.tech.swing
    for (net_p, net_n), signal in zip(
            built.output_pairs,
            (gate[3] for gate in scenario.gates)):
        result.n_checks += 1
        swing = abs(solution.voltage(net_p) - solution.voltage(net_n))
        if not (low <= swing <= high):
            result.disagreements.append(Disagreement(
                kind="invariant-swing", engine_a=engine, engine_b="",
                where=signal, value_a=swing, value_b=built.tech.swing,
                tolerance=high,
                detail=f"band [{low:g}, {high:g}]"))

    # Low-swing links: the wire carries the reduced swing, the receiver
    # heals it, and the healed output follows the tapped signal's logic
    # value (driver and receiver are both non-inverting).
    for signal, link in built.links:
        result.n_checks += 1
        wire_swing = abs(solution.voltage(link.wire_nets[0])
                         - solution.voltage(link.wire_nets[1]))
        target = link.swing_factor * built.tech.swing
        if not (tol.swing_band[0] * target <= wire_swing
                <= tol.swing_band[1] * target):
            result.disagreements.append(Disagreement(
                kind="invariant-link-wire", engine_a=engine, engine_b="",
                where=link.wire_nets[0], value_a=wire_swing,
                value_b=target,
                detail=f"factor {link.swing_factor:g} wire swing"))
        result.n_checks += 1
        out_swing = abs(solution.voltage(link.out_nets[0])
                        - solution.voltage(link.out_nets[1]))
        if not (low <= out_swing <= high):
            result.disagreements.append(Disagreement(
                kind="invariant-link-heal", engine_a=engine, engine_b="",
                where=link.out_nets[0], value_a=out_swing,
                value_b=built.tech.swing,
                detail="receiver failed to regenerate the swing"))
        logical = expected.get(signal)
        if logical is not None:
            result.n_checks += 1
            analog = (solution.voltage(link.out_nets[0])
                      > solution.voltage(link.out_nets[1]))
            if analog != logical:
                result.disagreements.append(Disagreement(
                    kind="invariant-link-logic", engine_a=engine,
                    engine_b="", where=signal,
                    value_a=solution.voltage(link.out_nets[0])
                    - solution.voltage(link.out_nets[1]),
                    value_b=1.0 if logical else 0.0,
                    detail=f"healed output {analog} != logic {logical}"))

    # The fault-free circuit must not raise the shared flag.
    if built.flag_nets is not None:
        result.n_checks += 1
        verdict = FlagOracle(*built.flag_nets).judge(solution)
        if verdict != PASS:
            result.disagreements.append(Disagreement(
                kind="invariant-flag", engine_a=engine, engine_b="",
                where=built.flag_nets[0],
                detail=f"fault-free flag judged {verdict!r}"))

    # Supply current ~ (cells x tail current): catches wildly wrong
    # device evaluation that every engine gets wrong the same way.
    if "VGND" in built.circuit and built.n_cells:
        result.n_checks += 1
        iddq = abs(solution.branch_current("VGND"))
        predicted = built.n_cells * built.tech.itail
        if not (tol.iddq_band[0] * predicted <= iddq
                <= tol.iddq_band[1] * predicted):
            result.disagreements.append(Disagreement(
                kind="invariant-iddq", engine_a=engine, engine_b="",
                where="VGND", value_a=iddq, value_b=predicted,
                detail=f"band x{tol.iddq_band[0]}..x{tol.iddq_band[1]}"))


def _campaign_check(scenario: Scenario, engines: Sequence[EngineConfig],
                    base: SimOptions, tol: Tolerances,
                    result: CheckResult, store=None) -> None:
    """Fault-verdict bit-identity across the engine matrix.

    ``store`` memoizes each engine's campaign under a per-engine
    namespace: replaying a corpus witness (or re-fuzzing a seed) serves
    every engine's records from cache, while the namespaces keep the
    engines' records separate — a cached cross-check still compares
    independently-computed verdict tables, never one engine's cache
    against itself.
    """
    tables: Dict[str, Dict[str, Tuple[Dict[str, str], bool]]] = {}
    for engine in engines:
        built = build_scenario(scenario)
        options = engine.options(base)
        try:
            campaign = run_campaign(
                built.circuit, built.defects, _fresh_oracles(built),
                options=options, low_rank=engine.low_rank,
                parallel=engine.parallel, workers=engine.workers,
                store=store, store_namespace=f"verify:{engine.name}")
        except Exception as error:
            result.disagreements.append(Disagreement(
                kind="campaign-error", engine_a=engine.name, engine_b="",
                where="run_campaign", detail=f"{error}"))
            continue
        tables[engine.name] = {
            defect_key(record.defect): (dict(record.verdicts),
                                        record.converged)
            for record in campaign.records}
    baseline = engines[0].name
    if baseline not in tables:
        return
    reference = tables[baseline]
    for engine in engines[1:]:
        if engine.name not in tables:
            continue
        result.n_engine_pairs += 1
        candidate = tables[engine.name]
        for key in sorted(reference):
            result.n_checks += 1
            if key not in candidate:
                result.disagreements.append(Disagreement(
                    kind="verdict", engine_a=baseline,
                    engine_b=engine.name, where=key,
                    detail="defect missing from campaign"))
                continue
            verdicts_a, converged_a = reference[key]
            verdicts_b, converged_b = candidate[key]
            if verdicts_a != verdicts_b or converged_a != converged_b:
                result.disagreements.append(Disagreement(
                    kind="verdict", engine_a=baseline,
                    engine_b=engine.name, where=key,
                    detail=(f"{verdicts_a}/conv={converged_a} != "
                            f"{verdicts_b}/conv={converged_b}")))


def _transient_check(scenario: Scenario, engines: Sequence[EngineConfig],
                     base: SimOptions, tol: Tolerances,
                     result: CheckResult) -> None:
    """Waveform agreement on the first primary input's square-wave bench.

    The engines share timepoints exactly, so compiled vs. legacy is a
    sample-by-sample comparison.  The baseline engine then reruns on a
    grid ``_REFINE`` times finer, and its coarse run is held to a
    slew-aware envelope around that reference: the time-step error
    check.
    """
    cycles, points, frequency = scenario.transient
    fixed = [e for e in engines if not e.parallel and not e.low_rank]
    if not fixed:
        return
    baseline = fixed[0].name
    refined = f"{baseline}-refined"
    runs = [(e.name, e, points) for e in fixed]
    runs.append((refined, fixed[0], points * _REFINE))
    probes: List[str] = []
    waves: Dict[str, dict] = {}
    for name, engine, points_per_cycle in runs:
        built = build_scenario(scenario, transient_stimulus=True)
        if not probes:
            probes = [net
                      for pair in (built.output_pairs
                                   + built.link_output_pairs())
                      for net in pair]
        options = engine.options(base)
        try:
            run = run_cycles(built.circuit, frequency, cycles,
                             points_per_cycle=points_per_cycle,
                             options=options)
        except Exception as error:
            result.disagreements.append(Disagreement(
                kind="transient-error", engine_a=name,
                engine_b="", where="run_cycles", detail=f"{error}"))
            continue
        waves[name] = {net: run.wave(net) for net in probes}
    if baseline not in waves:
        return
    for engine in fixed[1:]:
        if engine.name not in waves:
            continue
        result.n_engine_pairs += 1
        for net in probes:
            result.n_checks += 1
            reference = waves[baseline][net]
            candidate = waves[engine.name][net]
            worst = max((abs(a - b) for a, b in
                         zip(reference.values, candidate.values)),
                        default=0.0)
            if worst > tol.waveform_abs:
                result.disagreements.append(Disagreement(
                    kind="waveform", engine_a=baseline,
                    engine_b=engine.name, where=net, value_a=worst,
                    tolerance=tol.waveform_abs))
    if refined not in waves:
        return
    result.n_engine_pairs += 1
    for net in probes:
        result.n_checks += 1
        coarse = waves[baseline][net]
        fine = waves[refined][net]
        skip = min(tol.startup_skip, coarse.times.size - 2)
        ref_t = coarse.times[skip:]
        ref_v = coarse.values[skip:]
        resampled = np.interp(ref_t, fine.times, fine.values)
        # Slew-aware envelope: a sample on an edge may legitimately
        # differ by (local slope) x (a few coarse steps) between the two
        # time discretizations.  Slew is taken as the max of both
        # traces' local slopes — the coarse grid under-reports the
        # slope of an edge the fine grid resolves.
        slew = np.maximum(np.abs(np.gradient(ref_v, ref_t)),
                          np.abs(np.gradient(resampled, ref_t)))
        allowed = tol.refined_abs + slew * 3.0 * np.gradient(ref_t)
        excess = np.abs(ref_v - resampled) - allowed
        worst = int(np.argmax(excess))
        if excess[worst] > 0.0:
            result.disagreements.append(Disagreement(
                kind="waveform-refined", engine_a=baseline,
                engine_b=refined, where=net,
                value_a=float(ref_v[worst]),
                value_b=float(resampled[worst]),
                tolerance=float(allowed[worst]),
                detail=f"at t={float(ref_t[worst]):.3e}s "
                       f"(slew-aware envelope)"))


def cross_check(scenario: Scenario,
                engines: Sequence[EngineConfig] = DEFAULT_ENGINES,
                tolerances: Tolerances = Tolerances(),
                base_options: SimOptions = VERIFY_OPTIONS,
                check_invariants: bool = True,
                check_transient: bool = True,
                store=None) -> CheckResult:
    """Run ``scenario`` under every engine and collect disagreements.

    ``store`` (a :class:`repro.store.ResultStore` or path) caches each
    engine's campaign records under a per-engine namespace, so repeat
    verifications (corpus replays, nightly fuzz re-runs) skip solves
    that already happened without weakening the cross-check.
    """
    if not engines:
        raise ValueError("need at least one engine config")
    result = CheckResult(scenario=scenario,
                         engines=tuple(e.name for e in engines))
    baseline_built = _op_check(scenario, engines, base_options,
                               tolerances, result)
    if baseline_built is not None and check_invariants:
        _invariant_checks(baseline_built, tolerances, result)
    if scenario.defects:
        _campaign_check(scenario, engines, base_options, tolerances,
                        result, store=store)
    if scenario.transient is not None and check_transient:
        _transient_check(scenario, engines, base_options, tolerances,
                         result)
    return result
