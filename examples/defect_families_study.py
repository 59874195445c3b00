"""Detectability of the extension defect families.

Three studies beyond the paper's own section-3 catalog:

* **Oxide-breakdown severity sweep** — gate-oxide breakdown is a
  continuum of resistive severities (soft ~10 MΩ to hard ~1 kΩ), not a
  binary fault.  The sweep measures the detection fraction of every
  amplitude-detector variant along that continuum and prints the
  coverage-vs-severity table (detection must be monotone in severity;
  tests/test_defect_families.py asserts it).

* **Low-swing link healing** — a driver/receiver interconnect link
  launches half the nominal swing onto a long differential wire; the
  receiver's differential pair heals it back to (nearly) full swing.  A
  wire leak erodes the wire swing further: the logic value survives
  (healing) while the amplitude margin quietly disappears — the regime
  where the paper's detectors earn their area.

* **ILA C-testability** — the AND-EXOR iterative array is C-testable:
  a constant 8-vector test set reaches 100% single-stuck coverage at
  any array length, checked here at gate level and cross-checked by a
  transistor-level campaign on the same topology.

Set REPRO_EXAMPLE_FAST=1 for the smoke-test configuration (smaller
chain, coarser severity grid, shorter array).

Run with:  python examples/defect_families_study.py
"""

import os

from repro.analysis import ila_c_testability_study, severity_sweep
from repro.cml import NOMINAL, buffer_chain
from repro.cml.interconnect import attach_low_swing_link, link_swing
from repro.faults import WireLeak, catalog_summary, inject
from repro.sim import operating_point


def main() -> None:
    fast = bool(os.environ.get("REPRO_EXAMPLE_FAST"))

    # -- 1. severity sweep ---------------------------------------------
    sweep = severity_sweep(
        n_stages=2 if fast else 4,
        resistances=(10e6, 1e4, 1e3) if fast else (10e6, 1e6, 1e5,
                                                   1e4, 1e3))
    print(sweep.format())
    print(f"monotone detection vs severity: {sweep.monotone_ok()}\n")

    # -- 2. low-swing link healing -------------------------------------
    chain = buffer_chain(NOMINAL, n_stages=2)
    link = attach_low_swing_link(chain.circuit, *chain.output_nets[-1],
                                 swing_factor=0.5)
    healthy = operating_point(chain.circuit)
    leaky = inject(chain.circuit, WireLeak(*link.wire_nets, 2e3))
    degraded = operating_point(leaky)
    print("Low-swing link (factor 0.5, 2 kOhm wire leak):")
    for label, sol in (("healthy", healthy), ("leaky", degraded)):
        print(f"  {label:8s} wire {link_swing(sol, link) * 1e3:6.1f} mV"
              f" -> healed out "
              f"{link_swing(sol, link, 'out') * 1e3:6.1f} mV")
    healed = link_swing(degraded, link, "out")
    print(f"  logic survives: {healed > 0.5 * NOMINAL.swing} "
          f"(healed swing {healed * 1e3:.1f} mV)\n")

    # Per-family site census of the instrumented circuit.
    print("Defect-site census by family:",
          catalog_summary(chain.circuit, by_family=True), "\n")

    # -- 3. ILA C-testability ------------------------------------------
    study = ila_c_testability_study(
        n_cells=2 if fast else 4,
        campaign_limit=8 if fast else None)
    print(study.format())
    assert study.c_testable, "constant 8-vector set must fully cover"


if __name__ == "__main__":
    main()
