"""Detectability studies for the extension defect families.

Two studies beyond the paper's own catalog:

* :func:`severity_sweep` — gate-oxide breakdown is a *continuum* of
  resistive severities (Carter/Ozev/Sorin), not a binary fault.  The
  sweep injects an :class:`~repro.faults.defects.OxideBreakdown` at
  every base junction of a buffer chain, walks the resistance from soft
  (~10 MΩ) to hard (~1 kΩ), and measures the detection fraction of each
  amplitude-detector variant (0 = logic/IDDQ only, 1/2 = per-pair
  detectors, 3 = shared monitor), each variant one batched campaign
  with that variant's oracles.  The headline claim — detection is
  monotone non-decreasing in severity per variant — is
  :meth:`SeveritySweep.monotone_ok`, which the tests assert.

* :func:`ila_c_testability_study` — the AND-EXOR iterative array's
  constant 8-vector C-test must reach 100% single-stuck coverage at the
  gate level *and* agree with a transistor-level campaign over the
  paper's defect catalog on the same topology.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..cml.chain import buffer_chain
from ..cml.technology import CmlTechnology, NOMINAL
from ..dft.detectors import attach_variant1, attach_variant2
from ..dft.sharing import build_shared_monitor, ensure_vtest
from ..faults.campaign import (AmplitudeOracle, FlagOracle, IddqOracle,
                               LogicOracle, run_campaign)
from ..faults.catalog import enumerate_defects
from ..faults.defects import OxideBreakdown
from ..testgen.circuits import ila_and_exor, ila_c_test_vectors
from ..testgen.faultsim import enumerate_stuck_faults, fault_simulate
from ..testgen.synthesis import synthesize

#: Default severity grid, soft to hard.
DEFAULT_SWEEP_RESISTANCES = (10e6, 1e6, 1e5, 1e4, 1e3)


@dataclass
class SeveritySweep:
    """Detection coverage vs. breakdown severity, per detector variant."""

    #: Severity grid, ordered soft (high Ω) to hard (low Ω).
    resistances: Tuple[float, ...]
    variants: Tuple[int, ...]
    #: variant -> detected-site count per resistance (aligned with
    #: :attr:`resistances`).
    detected: Dict[int, List[int]]
    n_sites: int
    n_stages: int

    def monotone_ok(self) -> bool:
        """Detection never drops as severity grows (resistance falls)."""
        return all(counts[i] <= counts[i + 1]
                   for counts in self.detected.values()
                   for i in range(len(counts) - 1))

    def format(self) -> str:
        from .reporting import format_table

        headers = ["resistance"] + [f"variant {v}" for v in self.variants]
        rows = []
        for index, resistance in enumerate(self.resistances):
            row = [f"{resistance:g}Ohm"]
            for variant in self.variants:
                row.append(f"{self.detected[variant][index]}"
                           f"/{self.n_sites}")
            rows.append(row)
        return format_table(
            headers, rows,
            title=f"Oxide-breakdown severity sweep "
                  f"({self.n_stages}-stage chain)")


def _oxide_sites(circuit) -> List[OxideBreakdown]:
    """One soft breakdown per base junction; the sweep re-scales it."""
    return list(enumerate_defects(circuit, kinds=("oxide-breakdown",),
                                  oxide_resistances=(10e6,)))


def _variant_testbench(tech: CmlTechnology, n_stages: int, variant: int):
    """A driven chain with one detector variant attached; returns
    ``(circuit, sites, oracles)``.  The oxide sites are enumerated before
    the detector is attached, so only the chain is attacked."""
    chain = buffer_chain(tech, n_stages=n_stages, frequency=100e6)
    circuit = chain.circuit
    sites = _oxide_sites(circuit)

    if variant == 0:
        oracles = [LogicOracle(chain.output_nets),
                   IddqOracle(supply_source="VGND")]
    elif variant in (1, 2):
        op, opb = chain.output_nets[-1]
        if variant == 1:
            detector = attach_variant1(circuit, op, opb, tech=tech)
        else:
            ensure_vtest(circuit, tech)
            detector = attach_variant2(circuit, op, opb, tech=tech)
        oracles = [AmplitudeOracle(detector.vout)]
    elif variant == 3:
        monitor = build_shared_monitor(circuit, chain.output_nets,
                                       tech=tech)
        oracles = [FlagOracle(monitor.nets.flag, monitor.nets.flagb)]
    else:
        raise ValueError(f"unknown detector variant {variant}")

    return circuit, sites, oracles


def severity_sweep(tech: CmlTechnology = NOMINAL,
                   resistances: Sequence[float] = DEFAULT_SWEEP_RESISTANCES,
                   variants: Sequence[int] = (0, 1, 2, 3),
                   n_stages: int = 4) -> SeveritySweep:
    """Detection coverage vs. oxide-breakdown resistance per variant.

    Sites are every base junction of an ``n_stages`` buffer chain; the
    same site list is swept at every resistance so the per-variant
    curves are directly comparable.  Each variant is one low-rank
    campaign over sites × resistances; a site counts as detected when
    any of the variant's oracles catches it or its faulty circuit does
    not converge (the campaign's "catastrophically broken" reading).
    """
    resistances = tuple(resistances)
    if sorted(resistances, reverse=True) != list(resistances):
        raise ValueError("resistances must be ordered soft (high) to "
                         "hard (low)")
    detected: Dict[int, List[int]] = {}
    n_sites = 0
    for variant in variants:
        circuit, sites, oracles = _variant_testbench(tech, n_stages,
                                                     variant)
        n_sites = len(sites)
        defects = [dc_replace(site, resistance=resistance)
                   for resistance in resistances for site in sites]
        records = run_campaign(circuit, defects, oracles,
                               low_rank=True).records
        caught = [not record.converged or bool(record.caught_by())
                  for record in records]
        detected[variant] = [sum(caught[k * n_sites:(k + 1) * n_sites])
                             for k in range(len(resistances))]
    return SeveritySweep(resistances=resistances,
                         variants=tuple(variants), detected=detected,
                         n_sites=n_sites, n_stages=n_stages)


@dataclass
class IlaStudy:
    """C-testability of the AND-EXOR array, gate and transistor level."""

    n_cells: int
    n_vectors: int
    #: Gate-level stuck coverage of the constant C-test set.
    stuck_coverage: float
    #: Transistor-level campaign coverage ("any" oracle) per defect kind.
    campaign_coverage: Dict[str, Tuple[int, int]]
    #: The C-testability claim: constant-size test set, full coverage.
    c_testable: bool

    def format(self) -> str:
        from .reporting import format_table

        rows = [["cells", self.n_cells],
                ["C-test vectors", self.n_vectors],
                ["stuck coverage", f"{self.stuck_coverage * 100:.1f}%"],
                ["C-testable", self.c_testable]]
        for kind, (caught, total) in sorted(
                self.campaign_coverage.items()):
            rows.append([f"campaign {kind}", f"{caught}/{total}"])
        return format_table(["quantity", "value"], rows,
                            title="ILA C-testability study")


def ila_c_testability_study(n_cells: int = 4,
                            tech: CmlTechnology = NOMINAL,
                            campaign_kinds: Sequence[str] = ("pipe",),
                            campaign_limit: Optional[int] = None
                            ) -> IlaStudy:
    """Check the ILA's constant C-test set at both abstraction levels.

    Gate level: :func:`~repro.testgen.circuits.ila_c_test_vectors` (8
    vectors regardless of ``n_cells``) must detect every single stuck
    fault.  Transistor level: a DC campaign over ``campaign_kinds``
    with the logic/IDDQ oracles on the synthesized array reports what
    the analog reality says about the same topology.
    """
    network = ila_and_exor(n_cells)
    vectors = ila_c_test_vectors(n_cells)
    sim = fault_simulate(network, vectors,
                         faults=enumerate_stuck_faults(network))
    coverage = sim.coverage

    design = synthesize(network, tech)
    from ..circuit.components import VoltageSource
    for signal in network.primary_inputs:
        net_p, net_n = design.pair(signal)
        # A static all-ones vector (the carry-toggling C-test corner).
        design.circuit.add(VoltageSource(f"V_{signal}", net_p, "0",
                                         tech.vhigh))
        design.circuit.add(VoltageSource(f"V_{signal}b", net_n, "0",
                                         tech.vlow))
    defects = list(enumerate_defects(design.circuit,
                                     kinds=tuple(campaign_kinds)))
    if campaign_limit is not None:
        defects = defects[:campaign_limit]
    oracles = [LogicOracle(design.gate_output_pairs()),
               IddqOracle(supply_source="VGND")]
    campaign = run_campaign(design.circuit, defects, oracles)
    matrix = campaign.coverage_matrix()
    campaign_coverage = {kind: row["any"] for kind, row in matrix.items()}

    return IlaStudy(n_cells=n_cells, n_vectors=len(vectors),
                    stuck_coverage=coverage,
                    campaign_coverage=campaign_coverage,
                    c_testable=(coverage == 1.0 and len(vectors) == 8))
