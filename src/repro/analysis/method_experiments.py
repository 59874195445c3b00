"""Method-level studies: area (section 6.5), testing approach (section
6.6) and an extension DC fault-coverage campaign over the section-3
catalog."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..cml.chain import buffer_chain
from ..cml.technology import CmlTechnology, NOMINAL
from ..dft.area import overhead_table
from ..dft.sharing import build_shared_monitor
from ..faults.campaign import FAIL, FlagOracle, IddqOracle, run_campaign
from ..faults.catalog import enumerate_defects
from ..faults.defects import Defect
from ..testgen.circuits import BENCHMARKS
from ..testgen.initialization import convergence_length
from ..testgen.patterns import random_vectors
from ..testgen.toggle import KEEP_STATE, coverage_growth
from .reporting import format_table


# ----------------------------------------------------------------------
# Section 6.5 — area overhead
# ----------------------------------------------------------------------
@dataclass
class AreaStudy:
    """Per-gate effective area of each DFT scheme, relative to a buffer."""

    n_gates: int
    relative_overhead: Dict[str, float]

    def format(self) -> str:
        rows = sorted(self.relative_overhead.items(), key=lambda kv: kv[1])
        return format_table(
            ["scheme", "area / buffer"], rows,
            title=f"Section 6.5 — area overhead over {self.n_gates} gates")


def section65_area(n_gates: int = 100,
                   tech: CmlTechnology = NOMINAL) -> AreaStudy:
    """Compare detector schemes against the prior-art XOR observer."""
    return AreaStudy(n_gates=n_gates,
                     relative_overhead=overhead_table(n_gates, tech))


# ----------------------------------------------------------------------
# Section 6.6 — toggle testing with random patterns
# ----------------------------------------------------------------------
@dataclass
class ToggleStudy:
    """Random-pattern toggle testing of one benchmark network."""

    benchmark: str
    n_gates: int
    initialization_cycles: Optional[int]
    vectors_applied: int
    final_coverage: float
    vectors_to_full: Optional[int]
    growth: List[float] = field(repr=False, default_factory=list)

    def format(self) -> str:
        rows = [[
            self.benchmark, self.n_gates,
            self.initialization_cycles, self.vectors_applied,
            f"{self.final_coverage * 100:.1f}%", self.vectors_to_full,
        ]]
        return format_table(
            ["benchmark", "gates", "init cycles", "vectors",
             "toggle coverage", "vectors to 100%"], rows,
            title="Section 6.6 — random-pattern toggle testing")


def section66_toggle_study(benchmark_name: str = "decider",
                           n_vectors: int = 128,
                           seed: int = 9) -> ToggleStudy:
    """The paper's sequential recipe end to end: pseudorandom
    initialization (ref [13]) followed by toggle-coverage accumulation."""
    if benchmark_name not in BENCHMARKS:
        raise KeyError(f"unknown benchmark {benchmark_name!r}; "
                       f"choose from {sorted(BENCHMARKS)}")
    network = BENCHMARKS[benchmark_name]()
    init_vectors = random_vectors(network.primary_inputs, n_vectors,
                                  seed=seed)
    init = convergence_length(network, init_vectors)

    test_vectors = random_vectors(network.primary_inputs, n_vectors,
                                  seed=seed + 1)
    # Measure from the state the initialization sequence converged to
    # (coverage_growth resets to all-0 by default).
    growth = coverage_growth(network, test_vectors,
                             initial_state=KEEP_STATE)
    vectors_to_full = None
    for index, value in enumerate(growth, start=1):
        if value >= 1.0:
            vectors_to_full = index
            break
    return ToggleStudy(
        benchmark=benchmark_name, n_gates=len(network.gates),
        initialization_cycles=init.cycles if init.converged else None,
        vectors_applied=n_vectors, final_coverage=growth[-1],
        vectors_to_full=vectors_to_full, growth=growth)


# ----------------------------------------------------------------------
# Extension — DC fault coverage of the instrumented chain
# ----------------------------------------------------------------------
@dataclass
class CoverageStudy:
    """Which catalog defects flip the monitor flag at DC.

    The paper argues current-source pipes are fully DC-testable through
    the detectors; this extension quantifies the claim across the whole
    section-3 defect catalog on the Fig. 3 chain.
    """

    results: List[Tuple[str, str, str]]  # (defect name, kind, verdict)
    #: Iddq verdict (:data:`~repro.faults.campaign.PASS` /
    #: :data:`~repro.faults.campaign.FAIL`) per converged defect.
    iddq_verdicts: Dict[str, str]
    #: Threshold the Iddq oracle judged :attr:`iddq_verdicts` at,
    #: amperes; :meth:`format` prints it and nothing re-applies it.
    iddq_threshold: float

    def by_kind(self) -> Dict[str, Tuple[int, int]]:
        """kind -> (detected, total)."""
        table: Dict[str, List[int]] = {}
        for _, kind, verdict in self.results:
            entry = table.setdefault(kind, [0, 0])
            entry[1] += 1
            if verdict == "detected":
                entry[0] += 1
        return {k: (v[0], v[1]) for k, v in table.items()}

    def iddq_by_kind(self) -> Dict[str, Tuple[int, int]]:
        """kind -> (defects the Iddq oracle failed, total)."""
        table: Dict[str, List[int]] = {}
        for name, kind, _verdict in self.results:
            entry = table.setdefault(kind, [0, 0])
            entry[1] += 1
            if self.iddq_verdicts.get(name) == FAIL:
                entry[0] += 1
        return {k: (v[0], v[1]) for k, v in table.items()}

    @property
    def detected_fraction(self) -> float:
        detected = sum(1 for _, _, v in self.results if v == "detected")
        return detected / len(self.results) if self.results else 0.0

    def format(self) -> str:
        iddq = self.iddq_by_kind()
        rows = []
        for kind, (hit, total) in sorted(self.by_kind().items()):
            iddq_hit = iddq.get(kind, (0, total))[0]
            rows.append([kind, hit, iddq_hit, total,
                         f"{hit / total * 100:.0f}%",
                         f"{iddq_hit / total * 100:.0f}%"])
        return format_table(
            ["defect kind", "detector", "Iddq", "total",
             "detector cov", "Iddq cov"], rows,
            title=(f"Extension — DC coverage: detector "
                   f"{self.detected_fraction * 100:.0f}% of "
                   f"{len(self.results)} defects "
                   f"(Iddq screen at {self.iddq_threshold * 1e6:.0f} uA)"))


def dc_fault_coverage(tech: CmlTechnology = NOMINAL,
                      n_stages: int = 4,
                      kinds: Sequence[str] = ("pipe", "terminal-short",
                                              "resistor-short"),
                      pipe_resistances: Sequence[float] = (2e3, 4e3),
                      limit: Optional[int] = None) -> CoverageStudy:
    """Instrument a chain, run the catalog as one campaign, read the flag.

    ``detected`` = flag low at DC; ``logic-dead`` = the operating point no
    longer converges (catastrophic fault, trivially detectable; no Iddq
    verdict); others are ``escaped`` (need toggling or at-speed methods).
    """
    chain = buffer_chain(tech, n_stages=n_stages, frequency=100e6)
    # Enumerate fault sites before instrumentation so only the functional
    # logic is attacked (defects inside the monitor are a separate, much
    # smaller exposure the paper does not study).
    defects: List[Defect] = list(enumerate_defects(
        chain.circuit, kinds=kinds, pipe_resistances=pipe_resistances))
    if limit is not None:
        defects = defects[:limit]
    monitor = build_shared_monitor(chain.circuit, chain.output_nets,
                                   tech=tech)
    flag = FlagOracle(monitor.nets.flag, monitor.nets.flagb)
    iddq = IddqOracle(supply_source="VGND")
    campaign = run_campaign(chain.circuit, defects, [flag, iddq],
                            low_rank=True)

    results: List[Tuple[str, str, str]] = []
    iddq_verdicts: Dict[str, str] = {}
    for record in campaign.records:
        defect = record.defect
        if not record.converged:
            results.append((defect.name, defect.kind, "logic-dead"))
            continue
        flagged = record.verdicts[flag.name] == FAIL
        results.append((defect.name, defect.kind,
                        "detected" if flagged else "escaped"))
        iddq_verdicts[defect.name] = record.verdicts[iddq.name]
    return CoverageStudy(results=results, iddq_verdicts=iddq_verdicts,
                         iddq_threshold=iddq.threshold)
