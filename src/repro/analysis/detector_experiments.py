"""Experiments on the built-in detectors: Figs. 7, 8, 10, 12, 14 and the
section 6.5/6.6 studies."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..circuit.components import VoltageSource
from ..circuit.netlist import Circuit
from ..circuit.sources import Pwl
from ..cml.chain import buffer_chain
from ..cml.technology import CmlTechnology, NOMINAL
from ..dft.comparator import ComparatorConfig, attach_comparator
from ..dft.detectors import (
    DetectorConfig,
    attach_variant1,
    attach_variant2,
)
from ..dft.sharing import build_shared_monitor, ensure_vtest, test_mode_entry
from ..faults.campaign import DETECTION_MARGIN
from ..faults.defects import Pipe
from ..faults.injector import inject
from ..sim.dc import operating_point
from ..sim.sweep import run_cycles
from ..sim.transient import transient
from ..sim.waveform import Waveform, hysteresis_thresholds
from .reporting import format_table, nanoseconds

PAPER_FREQUENCY = 100e6


# ----------------------------------------------------------------------
# Fig. 7 — detector transient response
# ----------------------------------------------------------------------
@dataclass
class DetectorResponse:
    """Fig. 7: one detector vout transient and its characteristics."""

    variant: int
    pipe_resistance: Optional[float]
    frequency: float
    load_cap: float
    t_stability: Optional[float]
    v_max: Optional[float]
    v_min: float
    ripple: float
    wave: Waveform = field(repr=False, default=None)

    @property
    def detected(self) -> bool:
        """Did vout leave the fault-free band within the window?"""
        return self.v_min < self.wave.values[0] - DETECTION_MARGIN

    def format(self) -> str:
        rows = [[
            self.variant,
            self.pipe_resistance,
            self.frequency,
            self.load_cap * 1e12,
            nanoseconds(self.t_stability),
            self.v_max,
            self.v_min,
            self.ripple,
            "detected" if self.detected else "escaped",
        ]]
        return format_table(
            ["variant", "pipe (Ohm)", "freq (Hz)", "C (pF)",
             "tstab (ns)", "Vmax (V)", "Vmin (V)", "ripple (V)", "verdict"],
            rows, title="Fig. 7 — detector response")


def _detector_testbench(tech: CmlTechnology, variant: int,
                        pipe_resistance: Optional[float],
                        frequency: float, config: DetectorConfig):
    """Chain + detector on the DUT outputs + optional pipe."""
    chain = buffer_chain(tech, frequency=frequency)
    if variant == 1:
        detector = attach_variant1(chain.circuit, "op", "opb", tech=tech,
                                   config=config)
    elif variant == 2:
        ensure_vtest(chain.circuit, tech, test_mode_entry(tech))
        detector = attach_variant2(chain.circuit, "op", "opb", tech=tech,
                                   config=config)
    else:
        raise ValueError(f"variant must be 1 or 2, got {variant}")
    circuit = chain.circuit
    if pipe_resistance is not None:
        circuit = inject(circuit, Pipe("DUT.Q3", pipe_resistance))
    return circuit, detector


def fig7_detector_response(tech: CmlTechnology = NOMINAL,
                           pipe_resistance: Optional[float] = 1e3,
                           frequency: float = PAPER_FREQUENCY,
                           load_cap: float = 10e-12,
                           variant: int = 1,
                           cycles: float = 30,
                           points_per_cycle: int = 150) -> DetectorResponse:
    """Reproduce Fig. 7: the detector output decays through a transient
    period into a rippling stable period (tstability, Vmax)."""
    config = DetectorConfig(load_cap=load_cap)
    circuit, detector = _detector_testbench(tech, variant, pipe_resistance,
                                            frequency, config)
    result = run_cycles(circuit, frequency, cycles=cycles,
                        points_per_cycle=points_per_cycle,
                        cap_overrides={f"{detector.name}.C7": 0.0})
    raw = result.wave(detector.vout)
    # The t=0 sample is the DC operating point *before* the precharge
    # override takes effect; measurements start once the load capacitor
    # state has asserted itself (a couple of steps in).
    wave = Waveform(raw.times[3:], raw.values[3:], name=raw.name)
    # A 20 % margin reads the paper's "first minimum" robustly for both
    # variants (variant 2 rides a deep per-cycle ripple).
    return DetectorResponse(
        variant=variant, pipe_resistance=pipe_resistance,
        frequency=frequency, load_cap=load_cap,
        t_stability=wave.time_to_stability(margin=0.2),
        v_max=wave.stable_maximum(margin=0.2), v_min=wave.minimum(),
        ripple=wave.ripple(), wave=wave)


# ----------------------------------------------------------------------
# Figs. 8 and 10 — tstability / Vmax vs frequency, pipe and load
# ----------------------------------------------------------------------
@dataclass
class DetectorSweep:
    """Figs. 8/10: detector characteristics across the parameter grid."""

    variant: int
    responses: List[DetectorResponse]

    def series(self, measure: str, pipe: float, load_cap: float
               ) -> List[Tuple[float, Optional[float]]]:
        """One figure series: ``measure`` ("t_stability"/"v_max"/"v_min")
        vs frequency at fixed pipe and load."""
        points = []
        for response in self.responses:
            if (response.pipe_resistance == pipe
                    and response.load_cap == load_cap):
                points.append((response.frequency,
                               getattr(response, measure)))
        return sorted(points)

    def format(self) -> str:
        rows = []
        for r in self.responses:
            rows.append([r.pipe_resistance, r.frequency, r.load_cap * 1e12,
                         nanoseconds(r.t_stability), r.v_max, r.v_min])
        return format_table(
            ["pipe (Ohm)", "freq (Hz)", "C (pF)", "tstab (ns)",
             "Vmax (V)", "Vmin (V)"], rows,
            title=f"Fig. {'8' if self.variant == 1 else '10'} — "
                  f"variant {self.variant} detector sweep")


def _detector_sweep(variant: int, tech: CmlTechnology,
                    pipe_values: Sequence[float],
                    frequencies: Sequence[float],
                    load_caps: Sequence[float],
                    cycles: float, points_per_cycle: int) -> DetectorSweep:
    responses = []
    for load_cap in load_caps:
        for pipe in pipe_values:
            for frequency in frequencies:
                responses.append(fig7_detector_response(
                    tech, pipe, frequency, load_cap, variant=variant,
                    cycles=cycles, points_per_cycle=points_per_cycle))
    return DetectorSweep(variant=variant, responses=responses)


def fig8_variant1_sweep(tech: CmlTechnology = NOMINAL,
                        pipe_values: Sequence[float] = (1e3, 2e3),
                        frequencies: Sequence[float] = (100e6, 500e6, 1e9),
                        load_caps: Sequence[float] = (1e-12, 10e-12),
                        cycles: float = 30,
                        points_per_cycle: int = 120) -> DetectorSweep:
    """Fig. 8: variant-1 tstability vs frequency, pipe value and load.

    tstability grows with frequency (the excursion shrinks, Fig. 5) and
    with the load capacitor."""
    return _detector_sweep(1, tech, pipe_values, frequencies, load_caps,
                           cycles, points_per_cycle)


def fig10_variant2_sweep(tech: CmlTechnology = NOMINAL,
                         pipe_values: Sequence[float] = (1e3, 3e3, 5e3),
                         frequencies: Sequence[float] = (100e6, 500e6, 1e9),
                         load_caps: Sequence[float] = (1e-12,),
                         cycles: float = 30,
                         points_per_cycle: int = 120) -> DetectorSweep:
    """Fig. 10: variant-2 sweep (vtest = 3.7 V).  Detectable amplitude
    extends to larger pipe resistances and tstability is much shorter."""
    return _detector_sweep(2, tech, pipe_values, frequencies, load_caps,
                           cycles, points_per_cycle)


# ----------------------------------------------------------------------
# Fig. 12 — comparator hysteresis
# ----------------------------------------------------------------------
@dataclass
class HysteresisResult:
    """Fig. 12: guaranteed-detect / guaranteed-pass thresholds."""

    detect_threshold: float
    release_threshold: float
    vfb_levels: Tuple[float, float]
    flag_levels: Tuple[float, float]

    @property
    def width(self) -> float:
        return self.release_threshold - self.detect_threshold

    def format(self) -> str:
        rows = [
            ["guaranteed detect (vout <=)", self.detect_threshold],
            ["guaranteed pass (vout >=)", self.release_threshold],
            ["band width (V)", self.width],
            ["vfb low/high (V)", f"{self.vfb_levels[0]:.3f}/"
                                 f"{self.vfb_levels[1]:.3f}"],
            ["flag low/high (V)", f"{self.flag_levels[0]:.3f}/"
                                  f"{self.flag_levels[1]:.3f}"],
        ]
        return format_table(["quantity", "value"], rows,
                            title="Fig. 12 — comparator hysteresis")


def fig12_hysteresis(tech: CmlTechnology = NOMINAL,
                     config: Optional[ComparatorConfig] = None,
                     ramp_time: float = 200e-9,
                     dt: float = 0.1e-9) -> HysteresisResult:
    """Reproduce Fig. 12: sweep a forced vout down and back up through the
    comparator and read both switching thresholds off the flag output."""
    circuit = Circuit("fig12")
    tech.add_supplies(circuit)
    ensure_vtest(circuit, tech)
    half = ramp_time / 2
    circuit.add(VoltageSource("VFORCE", "vout", "0",
                              Pwl([(0.0, tech.vtest), (half, tech.vgnd),
                                   (ramp_time, tech.vtest)])))
    nets = attach_comparator(circuit, "vout", tech=tech,
                             config=config or ComparatorConfig())
    result = transient(circuit, t_stop=ramp_time, dt=dt)
    flag_diff = result.wave(nets.flag) - result.wave(nets.flagb)
    detect, release = hysteresis_thresholds(result.wave("vout"), flag_diff,
                                            0.0)
    if detect is None or release is None:
        raise RuntimeError("comparator did not switch during the ramp")
    return HysteresisResult(
        detect_threshold=detect, release_threshold=release,
        vfb_levels=result.wave(nets.vfb).levels(),
        flag_levels=result.wave(nets.flag).levels())


# ----------------------------------------------------------------------
# Fig. 14 — load sharing
# ----------------------------------------------------------------------
@dataclass
class LoadSharingResult:
    """Fig. 14: fault-free vout/vfb vs N, slope, safe sharing bound."""

    n_values: List[int]
    vout: List[float]
    vfb: List[float]
    flag_pass: List[bool]
    release_threshold: float
    faulty_vout_n1: Optional[float]

    def _pass_samples(self) -> List[Tuple[int, float]]:
        return [(n, v) for n, v, ok in zip(self.n_values, self.vout,
                                           self.flag_pass) if ok]

    @property
    def slope_per_gate(self) -> float:
        """Fault-free vout decline per added gate (V), from the PASS-state
        samples (linear, R0-dominated); NaN with fewer than two."""
        samples = self._pass_samples()
        if len(samples) < 2:
            return float("nan")
        (n0, v0), (n1, v1) = samples[0], samples[-1]
        return (v0 - v1) / (n1 - n0)

    @property
    def safe_n(self) -> float:
        """Largest N keeping fault-free vout above the guaranteed-pass
        threshold (the paper's criterion; theirs evaluates to 45); NaN
        when no sampled N passes."""
        samples = self._pass_samples()
        if not samples:
            return float("nan")
        (n0, v0) = samples[0]
        slope = self.slope_per_gate
        if slope <= 0:
            return float("inf")
        return n0 + (v0 - self.release_threshold) / slope

    def format(self) -> str:
        rows = [[n, v, f, "PASS" if ok else "FAIL"]
                for n, v, f, ok in zip(self.n_values, self.vout, self.vfb,
                                       self.flag_pass)]
        title = (f"Fig. 14 — load sharing: slope "
                 f"{self.slope_per_gate * 1e3:.2f} mV/gate, safe N ~ "
                 f"{self.safe_n:.0f}"
                 + (f", faulty vout(N=1) = {self.faulty_vout_n1:.3f} V"
                    if self.faulty_vout_n1 is not None else ""))
        return format_table(["N", "vout (V)", "vfb (V)", "flag"], rows,
                            title=title)


def fig14_load_sharing(tech: CmlTechnology = NOMINAL,
                       n_values: Sequence[int] = (1, 5, 10, 20, 30, 45, 60),
                       faulty_pipe: Optional[float] = 5e3,
                       comparator_config: Optional[ComparatorConfig] = None
                       ) -> LoadSharingResult:
    """Reproduce Fig. 14: DC operating points of fault-free chains of N
    buffers sharing one monitor, plus a faulty single-gate reference.

    DC analysis is exact here: with a static input, exactly one detector
    transistor per gate carries the off-state leakage, matching the
    time-averaged toggling behaviour the paper measures after stability.
    """
    release = fig12_hysteresis(tech, comparator_config).release_threshold
    vout_list, vfb_list, pass_list = [], [], []
    for n in n_values:
        chain = buffer_chain(tech, n_stages=int(n),
                             frequency=PAPER_FREQUENCY)
        monitor = build_shared_monitor(
            chain.circuit, chain.output_nets, tech=tech,
            comparator_config=comparator_config or ComparatorConfig())
        op = operating_point(chain.circuit)
        vout_list.append(op.voltage(monitor.vout))
        vfb_list.append(op.voltage(monitor.nets.vfb))
        pass_list.append(op.voltage(monitor.nets.flag)
                         > op.voltage(monitor.nets.flagb))

    faulty_vout = None
    if faulty_pipe is not None:
        chain = buffer_chain(tech, n_stages=1, frequency=PAPER_FREQUENCY)
        monitor = build_shared_monitor(
            chain.circuit, chain.output_nets, tech=tech,
            comparator_config=comparator_config or ComparatorConfig())
        faulty = inject(chain.circuit, Pipe("X1.Q3", faulty_pipe))
        op = operating_point(faulty)
        faulty_vout = op.voltage(monitor.vout)

    return LoadSharingResult(n_values=[int(n) for n in n_values],
                             vout=vout_list, vfb=vfb_list,
                             flag_pass=pass_list,
                             release_threshold=release,
                             faulty_vout_n1=faulty_vout)
