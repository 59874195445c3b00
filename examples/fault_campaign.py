"""Which test catches which defect?  A three-oracle fault campaign.

Runs every section-3 defect of an instrumented buffer chain against
three static test methods and prints the coverage matrix:

* **logic** — compare the DC output polarities against a good chain
  (what a stuck-at tester sees with one vector applied);
* **detector** — the paper's built-in amplitude monitor flag;
* **iddq** — a 100 uA supply-current screen.

The complementarity is the paper's core argument: the detector owns the
parametric excursion class that both classic methods miss.

The campaign runs with the fault-tolerant execution layer armed the way
a long batch job would: a per-defect solver deadline (a defect whose
solve runs dry on the whole degradation ladder is quarantined with a
reason instead of aborting the sweep) and a result store directory that
takes each finished defect's record as it comes, so rerunning this
script after killing it resumes where it stopped (see
docs/robustness.md).

Run with:  python examples/fault_campaign.py
"""

import shutil

from repro.cml import NOMINAL, buffer_chain
from repro.dft import build_shared_monitor
from repro.faults import (
    FlagOracle,
    IddqOracle,
    LogicOracle,
    enumerate_defects,
    run_campaign,
)
from repro.sim import SimOptions

TECH = NOMINAL
STORE = "fault_campaign_store"


def main() -> None:
    chain = buffer_chain(TECH, n_stages=4, frequency=100e6)
    defects = list(enumerate_defects(
        chain.circuit,
        kinds=("pipe", "terminal-short", "resistor-short",
               "resistor-open"),
        pipe_resistances=(2e3, 4e3, 8e3)))
    monitor = build_shared_monitor(chain.circuit, chain.output_nets,
                                   tech=TECH)
    oracles = [
        LogicOracle(chain.output_nets),
        FlagOracle(monitor.nets.flag, monitor.nets.flagb),
        IddqOracle(threshold=100e-6),
    ]
    print(f"Injecting {len(defects)} defects into "
          f"{chain.circuit.summary()} ...")
    result = run_campaign(
        chain.circuit, defects, oracles,
        options=SimOptions(solve_deadline_s=30.0),
        store=STORE)
    if result.n_store_hits:
        print(f"(resumed: {result.n_store_hits} records from {STORE}/)")
    print(result.format())
    for record in result.quarantined():
        print(f"quarantined {record.defect.describe()}: "
              f"{record.quarantine_reason}")
    shutil.rmtree(STORE)

    escapes = result.escapes()
    print(f"\nEscaping every static oracle: {len(escapes)} defects, e.g.:")
    for record in escapes[:5]:
        print(f"  - {record.defect.describe()}")
    print(
        "\nReading: pipes on current sources fall to the detector (and\n"
        "often Iddq); stuck-at-class shorts fall to logic testing; the\n"
        "remaining escapes are single-sided or polarity-dependent faults\n"
        "that need the toggling stimulus of section 6.6 to be asserted.")


if __name__ == "__main__":
    main()
