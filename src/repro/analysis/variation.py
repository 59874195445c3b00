"""Process-variation study: the paper's section-1 delay-test escape claim.

"Considering that each gate can have a modest variation in delay of 10 %
of nominal value, the tester evaluating a 10 gate deep chain could escape
a faulty gate going twice slower than nominal, when all others have their
nominal delay value."

This module quantifies that argument on the reproduced technology: a
Monte-Carlo population of chains with per-gate parameter spread sets the
pass/fail limit a chain-delay tester must use, and the escape probability
of a 2x-slow gate is measured against it.  The companion result is that
the *built-in detector* verdict is unaffected by the same spread — its
thresholds are referenced to vtest, not to accumulated delay.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..circuit.components import Capacitor, Resistor
from ..circuit.devices import Bjt
from ..cml.chain import BufferChain, buffer_chain
from ..cml.technology import CmlTechnology, NOMINAL
from ..dft.sharing import build_shared_monitor
from ..parallel import parallel_map
from ..sim.dc import operating_point
from ..sim.sweep import run_cycles
from ..sim.waveform import differential_crossings
from .reporting import format_table, picoseconds


def perturb_chain(chain: BufferChain, sigma: float,
                  rng: random.Random) -> None:
    """Apply per-gate Gaussian parameter spread (in place).

    Collector resistors and wiring capacitances scale with independent
    N(1, sigma) factors per stage; the current-source isat too (a tail
    spread moves both swing and speed).  Factors are clipped to ±3 sigma.
    """
    def factor() -> float:
        return 1.0 + max(-3 * sigma, min(3 * sigma, rng.gauss(0.0, sigma)))

    for instance in chain.instances:
        r_scale = factor()
        c_scale = factor()
        i_scale = factor()
        for component in instance.components:
            if isinstance(component, Resistor):
                component.resistance *= r_scale
            elif isinstance(component, Capacitor):
                component.capacitance *= c_scale
            elif isinstance(component, Bjt) and component.name.endswith("Q3"):
                component.isat *= i_scale


def slow_down_stage(chain: BufferChain, stage_index: int,
                    slow_factor: float) -> None:
    """Make one stage ``slow_factor`` times slower (a local delay fault).

    Scaling the stage's load capacitances multiplies its RC delay — the
    'faulty gate going twice slower' of the paper's argument.
    """
    instance = chain.instances[stage_index]
    for component in instance.components:
        if isinstance(component, Capacitor):
            component.capacitance *= slow_factor


def chain_delay(chain: BufferChain, frequency: float = 100e6,
                points_per_cycle: int = 500) -> float:
    """End-to-end delay: input edge to last-output edge (differential)."""
    result = run_cycles(chain.circuit, frequency, cycles=2.5,
                        points_per_cycle=points_per_cycle)
    t_ref = differential_crossings(result.wave("va"), result.wave("vab"),
                                   "rise", after=1.2 / frequency)[0]
    last_p, last_n = chain.output_nets[-1]
    edges = [t for t in differential_crossings(
        result.wave(last_p), result.wave(last_n), "rise") if t > t_ref]
    if not edges:
        raise RuntimeError("no output edge found")
    return edges[0] - t_ref


@dataclass
class EscapeStudy:
    """Chain-delay testing vs built-in detection under process spread."""

    sigma: float
    slow_factor: float
    n_stages: int
    fault_free_delays: List[float]
    faulty_delays: List[float]
    test_limit: float
    detector_catches: Optional[int] = None
    detector_trials: Optional[int] = None

    @property
    def escape_fraction(self) -> float:
        """Fraction of slow-gate chains passing the chain-delay test."""
        escapes = sum(1 for d in self.faulty_delays if d <= self.test_limit)
        return escapes / len(self.faulty_delays)

    def format(self) -> str:
        rows = [
            ["fault-free delay, min/max (ps)",
             f"{picoseconds(min(self.fault_free_delays)):.1f} / "
             f"{picoseconds(max(self.fault_free_delays)):.1f}"],
            ["test limit (ps)", f"{picoseconds(self.test_limit):.1f}"],
            ["faulty delay, min/max (ps)",
             f"{picoseconds(min(self.faulty_delays)):.1f} / "
             f"{picoseconds(max(self.faulty_delays)):.1f}"],
            ["delay-test escape fraction",
             f"{self.escape_fraction * 100:.0f}%"],
        ]
        if self.detector_trials:
            rows.append(["detector catch rate (same spread, 4k pipe)",
                         f"{self.detector_catches}/{self.detector_trials}"])
        return format_table(["quantity", "value"], rows, title=(
            f"Section 1 claim — {self.slow_factor:g}x-slow gate in a "
            f"{self.n_stages}-stage chain, sigma = {self.sigma:.0%}"))


def _delay_sample(task) -> Tuple[float, float]:
    """One Monte-Carlo sample: (fault-free delay, slow-gate delay).

    Module-level and seed-driven so the parallel executor can pickle it
    and the result is identical regardless of execution order.
    """
    tech, n_stages, sigma, slow_factor, sample_seed = task

    clean = buffer_chain(tech, n_stages=n_stages, frequency=100e6)
    perturb_chain(clean, sigma, random.Random(sample_seed))
    fault_free = chain_delay(clean)

    slow = buffer_chain(tech, n_stages=n_stages, frequency=100e6)
    perturb_chain(slow, sigma, random.Random(sample_seed))
    slow_down_stage(slow, n_stages // 2, slow_factor)
    return fault_free, chain_delay(slow)


def _detector_sample(task) -> bool:
    """One detector trial: does the flag catch a 4k pipe on the perturbed
    chain's middle stage?"""
    from ..faults.defects import Pipe
    from ..faults.injector import inject

    tech, n_stages, sigma, sample_seed = task
    chain = buffer_chain(tech, n_stages=n_stages, frequency=100e6)
    perturb_chain(chain, sigma, random.Random(sample_seed))
    monitor = build_shared_monitor(chain.circuit, chain.output_nets,
                                   tech=tech)
    target = chain.instances[n_stages // 2].name
    op = operating_point(inject(chain.circuit, Pipe(f"{target}.Q3", 4e3)))
    return op.voltage(monitor.nets.flag) < op.voltage(monitor.nets.flagb)


def delay_escape_study(tech: CmlTechnology = NOMINAL,
                       n_stages: int = 10,
                       sigma: float = 0.10,
                       slow_factor: float = 2.0,
                       n_samples: int = 8,
                       seed: int = 42,
                       check_detector: bool = True,
                       parallel: bool = False,
                       workers: Optional[int] = None) -> EscapeStudy:
    """Monte-Carlo reproduction of the section-1 escape argument.

    The tester's pass limit is the worst fault-free delay of the sampled
    population (the tightest limit that never fails a good chain); the
    escape fraction is the share of slow-gate chains inside that limit.
    With a mid-chain gate ``slow_factor`` x slower adding ~1 extra stage
    delay against a spread of ~sigma * sqrt(N) * stage, escapes are
    common — the paper's point.

    Samples are seeded up front from ``seed``, so ``parallel=True``
    (process-pool fan-out over ``workers``) returns exactly the same
    study as the serial path.
    """
    rng = random.Random(seed)
    tasks = [(tech, n_stages, sigma, slow_factor, rng.randrange(1 << 30))
             for _ in range(n_samples)]
    workers = workers if parallel else 1
    samples = parallel_map(_delay_sample, tasks, workers=workers)
    fault_free = [s[0] for s in samples]
    faulty = [s[1] for s in samples]
    test_limit = max(fault_free)

    catches = trials = None
    if check_detector:
        rng_det = random.Random(seed + 1)
        det_tasks = [(tech, n_stages, sigma, rng_det.randrange(1 << 30))
                     for _ in range(n_samples)]
        verdicts = parallel_map(_detector_sample, det_tasks,
                                workers=workers)
        catches, trials = sum(verdicts), n_samples

    return EscapeStudy(sigma=sigma, slow_factor=slow_factor,
                       n_stages=n_stages, fault_free_delays=fault_free,
                       faulty_delays=faulty, test_limit=test_limit,
                       detector_catches=catches, detector_trials=trials)
