"""The benchmark's workloads: inputs from a seed, one measured pass,
and the checks that decide whether the pass was correct.

Each workload has three steps.  ``build(seed)`` is set-up: circuit or
network construction, defect enumeration and the fault-free reference.
``run(state, span)`` is the measured pass; ``span(name)`` is a context
manager that marks the pass's own sub-steps: the untraced pass probes
the host speed at their boundaries, the traced pass names them.
``check(state, output)`` compares the pass's outputs with an independent
reference and returns ``(attempted, failed)`` operation counts; any
mismatch is a failed operation.  ``summary(output, wall_s, segments)``
gives the workload's end-to-end quantities besides wall time, from the
pass's scaled seconds and those of its marked sub-steps, and
``release(state)`` frees what set-up created.
"""

from __future__ import annotations

import inspect
import json
import math
import random
import shutil
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references"
#: Result stores live here, inside the checkout, and are removed after use.
STORE_ROOT = ROOT / ".perfbench_tmp"


# ---------------------------------------------------------------------------
# Campaign entry: the one place the benchmark calls ``run_campaign``.
# ---------------------------------------------------------------------------
def campaign(circuit, defects, oracles, *, serial: bool = False, **kwargs):
    """Run a fault campaign on the low-rank engine.

    ``serial=False`` selects the batched low-rank engine, ``serial=True``
    the per-defect low-rank engine used as the independent reference.
    Spelled through whichever keyword ``run_campaign`` accepts, so a
    later ``low_rank=`` switch does not break the benchmark.
    """
    from repro.faults import run_campaign

    params = inspect.signature(run_campaign).parameters
    if serial:
        if "delta" in params:
            kwargs["delta"] = True
        else:
            kwargs["low_rank"] = True
            kwargs["batch_size"] = 1
    elif "low_rank" in params:
        kwargs["low_rank"] = True
    else:
        kwargs["batched"] = True
    return run_campaign(circuit, defects, oracles, **kwargs)


def verdict_table(result) -> Dict[str, list]:
    """``defect_key`` -> [sorted verdict pairs, converged]."""
    from repro.faults.campaign import defect_key

    return {defect_key(record.defect):
            [sorted(record.verdicts.items()), record.converged]
            for record in result.records}


def compare_tables(table: Dict[str, list], reference: Dict[str, list]
                   ) -> Tuple[int, int]:
    """(attempted, failed): one operation per defect in either table."""
    table, reference = _jsonable(table), _jsonable(reference)
    keys = set(table) | set(reference)
    return len(keys), sum(1 for key in keys
                          if table.get(key) != reference.get(key))


def _jsonable(value):
    """``value`` as it reads back from JSON (tuples become lists)."""
    return json.loads(json.dumps(value))


def any_coverage(records) -> float:
    """Share of the campaign records' defects caught by at least one
    oracle."""
    caught = sum(1 for record in records
                 if not record.converged or record.caught_by())
    return caught / len(records)


def reset_program_caches() -> None:
    """Start a pass from the cache state of a fresh process.

    The program's per-circuit caches (MNA structures, low-rank delta
    contexts) are weak-keyed dicts whose values refer back to their keys,
    so entries for discarded circuits are never freed: every pass would
    otherwise leave ~15 MB behind and slow the next through the garbage
    collector.  Clearing them between passes keeps passes independent.
    """
    import importlib

    for module, name in (("repro.sim.mna", "_STRUCTURE_CACHE"),
                         ("repro.faults.campaign", "_DELTA_CONTEXTS")):
        cache = getattr(importlib.import_module(module), name, None)
        if cache is not None:
            cache.clear()


def load_reference(name: str):
    path = REFERENCES / name
    if not path.exists():
        return None
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# paper: every registered experiment, in registry order
# ---------------------------------------------------------------------------
#: Arguments for the long sweeps, so one pass of all sixteen experiments
#: fits a run.  Each keeps the sweep's structure (same circuits, same
#: analyses) on a coarser grid; the others run at their defaults.
PAPER_ARGS = {
    "table1": {"points_per_cycle": 300},
    "table2": {"points_per_cycle": 300},
    "fig5": {"pipe_values": (None, 3e3), "frequencies": (1e9,),
             "points_per_cycle": 150},
    "fig7": {"cycles": 8},
    "fig8": {"pipe_values": (1e3,), "frequencies": (1e9,),
             "load_caps": (10e-12,), "cycles": 10},
    "fig10": {"pipe_values": (1e3,), "frequencies": (1e9,), "cycles": 10},
    "fig14": {"n_values": (1, 5, 10)},
    "variation": {"n_samples": 1},
    "families": {"resistances": (1e7, 1e5, 1e3)},
}


#: The experiment registry (``repro.__main__.EXPERIMENTS``) as recorded
#: in ``references/paper.json``, in registry order.  A name missing from
#: the registry fails its check.
PAPER_EXPERIMENTS = ("fig2", "fig4", "table1", "table2", "fig5", "fig7",
                     "fig8", "fig10", "fig12", "fig14", "area", "toggle",
                     "coverage", "variation", "families", "ila")


class Paper:
    name = "paper"

    def build(self, seed: int):
        from repro.__main__ import EXPERIMENTS

        return [(name, EXPERIMENTS[name]) for name in PAPER_EXPERIMENTS
                if name in EXPERIMENTS]

    def run(self, experiments, span):
        results = {}
        for name, func in experiments:
            with span(f"analysis.{name}"):
                results[name] = func(**PAPER_ARGS.get(name, {}))
        return {name: (result, result.format())
                for name, result in results.items()}

    def release(self, experiments) -> None:
        pass

    def check(self, experiments, output) -> Tuple[int, int]:
        reference = load_reference("paper.json") or {}
        failed = sum(1 for name, (_, text) in output.items()
                     if reference.get(name) != text)
        failed += sum(1 for name in reference if name not in output)
        return max(len(output), len(reference)), failed

    def summary(self, output, wall_s: float, segments) -> Dict[str, float]:
        coverage = output["coverage"][0]
        table = coverage.by_kind()
        detected = sum(caught for caught, _ in table.values())
        judged = len(coverage.results)
        families = output["families"][0]
        judged += families.n_sites * len(families.resistances) * len(
            families.variants)
        ila = output["ila"][0]
        judged += sum(total for _, total in ila.campaign_coverage.values())
        return {"defects_per_s": judged / wall_s,
                "fault_coverage": detected / len(coverage.results),
                "test_vectors": float(ila.n_vectors)}


# ---------------------------------------------------------------------------
# catalog: all defect families on the paper chain plus a low-swing link
# ---------------------------------------------------------------------------
def _sig3(value: float) -> float:
    return float(f"{value:.3g}")


#: Resistance sets one catalog pass solves, one campaign each.  Solver
#: work per set follows the drawn values chaotically (batched solves
#: vary 2x, Newton iterations ±15% between sets); a pass over several
#: sets averages that out, so seeds differ by far less than sets do.
CATALOG_SETS = 4


def catalog_values(seed: int, index: int = 0):
    """(pipe, oxide) resistances of set ``index`` at ``seed``: the
    reference values for set 0 at seed 0, log-uniform draws otherwise —
    one pipe from each half of the paper's 1-5 kOhm range, one oxide
    value each from the hard, mid and soft decades."""
    if seed == 0 and index == 0:
        return (2e3, 4e3), (1e3, 1e5, 1e7)
    rng = random.Random(seed * CATALOG_SETS + index)
    low, high = 3.0, math.log10(5e3)
    middle = (low + high) / 2
    pipes = (_sig3(10 ** rng.uniform(low, middle)),
             _sig3(10 ** rng.uniform(middle, high)))
    oxide = tuple(_sig3(10 ** rng.uniform(centre - 0.5, centre + 0.5))
                  for centre in (3.0, 5.0, 7.0))
    return pipes, oxide


class Catalog:
    name = "catalog"

    def __init__(self):
        self._serial: Dict[Tuple[int, int], Dict[str, list]] = {}

    def build(self, seed: int):
        from repro.cml import NOMINAL, buffer_chain
        from repro.cml.interconnect import attach_low_swing_link
        from repro.dft import build_shared_monitor
        from repro.faults import (FlagOracle, IddqOracle, LogicOracle,
                                  enumerate_defects)
        from repro.faults.catalog import ALL_KINDS
        from repro.sim import operating_point
        from repro.store import ResultStore

        chain = buffer_chain(NOMINAL, 8, 100e6)
        link = attach_low_swing_link(chain.circuit, *chain.output_nets[-1],
                                     swing_factor=0.5)
        defect_sets = []
        for index in range(CATALOG_SETS):
            pipes, oxide = catalog_values(seed, index)
            defect_sets.append(list(enumerate_defects(
                chain.circuit, kinds=ALL_KINDS, pipe_resistances=pipes,
                oxide_resistances=oxide, wire_leak_resistances=(2e3, 2e4))))
        monitor = build_shared_monitor(chain.circuit, chain.output_nets,
                                       tech=NOMINAL)
        oracles = [LogicOracle(list(chain.output_nets) + [link.out_nets]),
                   FlagOracle(monitor.nets.flag, monitor.nets.flagb),
                   IddqOracle()]
        operating_point(chain.circuit)
        STORE_ROOT.mkdir(exist_ok=True)
        store_dir = Path(tempfile.mkdtemp(prefix="store-", dir=STORE_ROOT))
        # One store per set: the sets share every defect whose kind takes
        # no resistance, and each set's solve must solve all of its own.
        stores = [ResultStore(store_dir / f"set{index}")
                  for index in range(CATALOG_SETS)]
        return {"seed": seed, "circuit": chain.circuit,
                "defect_sets": defect_sets, "oracles": oracles,
                "stores": stores, "store_dir": store_dir}

    def run(self, state, span):
        """Per set: the campaign into its empty store, then the
        resubmission."""
        output = []
        for defects, store in zip(state["defect_sets"], state["stores"]):
            args = (state["circuit"], defects, state["oracles"])
            with span("catalog.solve"):
                solved = campaign(*args, store=store)
            with span("catalog.resubmit"):
                cached = campaign(*args, store=store)
            output.append({"solved": solved, "cached": cached})
        return output

    def release(self, state) -> None:
        for store in state["stores"]:
            store.close()
        shutil.rmtree(state["store_dir"], ignore_errors=True)

    def check(self, state, output) -> Tuple[int, int]:
        seed = state["seed"]
        attempted = failed = 0
        for index, (defects, result) in enumerate(
                zip(state["defect_sets"], output)):
            solved, cached = result["solved"], result["cached"]
            table = verdict_table(solved)
            if (seed, index) not in self._serial:
                self._serial[seed, index] = verdict_table(campaign(
                    state["circuit"], defects, state["oracles"],
                    serial=True))
            done, bad = compare_tables(table, self._serial[seed, index])
            attempted, failed = attempted + done, failed + bad
            recorded = (load_reference(f"catalog_seed{seed}.json")
                        if index == 0 else None)
            if recorded is not None:
                done, bad = compare_tables(table, recorded)
                attempted, failed = attempted + done, failed + bad
            # The resubmission must be served entirely from the store
            # and be field-identical to the solve pass.
            attempted += len(solved.records)
            if cached.n_store_hits != len(solved.records) or \
                    cached.n_store_misses != 0:
                failed += len(solved.records)
            else:
                failed += sum(1 for a, b in zip(solved.records,
                                                cached.records) if a != b)
        return attempted, failed

    def summary(self, output, wall_s: float, segments) -> Dict[str, float]:
        records = [record for result in output
                   for record in result["solved"].records]
        return {"defects_per_s": len(records) / segments["catalog.solve"],
                "fault_coverage": any_coverage(records),
                "test_vectors": 1.0}


# ---------------------------------------------------------------------------
# ila_sparse: the AND-EXOR array, large enough for the sparse solver
# ---------------------------------------------------------------------------
ILA_KINDS = ("pipe", "terminal-short", "open", "resistor-short",
             "resistor-open", "oxide-breakdown")

#: Share of each defect kind's sites one pass solves (a seeded sample).
ILA_SAMPLE = 0.25


class IlaSparse:
    name = "ila_sparse"

    def __init__(self):
        self._serial: Dict[int, Dict[str, list]] = {}

    def build(self, seed: int):
        from repro.circuit.components import VoltageSource
        from repro.cml import NOMINAL
        from repro.faults import IddqOracle, LogicOracle, enumerate_defects
        from repro.sim import operating_point
        from repro.testgen.circuits import ila_and_exor
        from repro.testgen.synthesis import synthesize

        rng = random.Random(seed)
        network = ila_and_exor(8)
        design = synthesize(network, NOMINAL)
        for signal in network.primary_inputs:
            high = True if seed == 0 else bool(rng.getrandbits(1))
            net_p, net_n = design.pair(signal)
            design.circuit.add(VoltageSource(
                f"V_{signal}", net_p, "0",
                NOMINAL.vhigh if high else NOMINAL.vlow))
            design.circuit.add(VoltageSource(
                f"V_{signal}b", net_n, "0",
                NOMINAL.vlow if high else NOMINAL.vhigh))
        defects = list(enumerate_defects(design.circuit, kinds=ILA_KINDS,
                                         oxide_resistances=(1e3, 1e5)))
        by_kind: Dict[str, List] = {}
        for defect in defects:
            by_kind.setdefault(defect.kind, []).append(defect)
        chosen = []
        for kind in ILA_KINDS:
            group = by_kind.get(kind, [])
            picks = sorted(rng.sample(range(len(group)),
                                      round(len(group) * ILA_SAMPLE)))
            chosen += [group[i] for i in picks]
        oracles = [LogicOracle(design.gate_output_pairs()),
                   IddqOracle(supply_source="VGND")]
        operating_point(design.circuit)
        return {"seed": seed, "circuit": design.circuit,
                "defects": chosen, "oracles": oracles}

    def run(self, state, span):
        """One campaign per defect kind.  A single campaign takes 3-5 s;
        per-kind campaigns let the host-speed probes follow the host
        through the pass (the pass-to-pass spread of scaled seconds
        drops from 0.11 to 0.06) at no cost in host time."""
        by_kind: Dict[str, List] = {}
        for defect in state["defects"]:
            by_kind.setdefault(defect.kind, []).append(defect)
        results = []
        for kind, defects in by_kind.items():
            with span(f"ila_sparse.{kind}"):
                results.append(campaign(state["circuit"], defects,
                                        state["oracles"]))
        return {"solved": results}

    def release(self, state) -> None:
        pass

    def check(self, state, output) -> Tuple[int, int]:
        seed = state["seed"]
        if seed not in self._serial:
            self._serial[seed] = verdict_table(campaign(
                state["circuit"], state["defects"], state["oracles"],
                serial=True))
        table = {}
        for result in output["solved"]:
            table.update(verdict_table(result))
        return compare_tables(table, self._serial[seed])

    def summary(self, output, wall_s: float, segments) -> Dict[str, float]:
        records = [record for result in output["solved"]
                   for record in result.records]
        return {"defects_per_s": len(records) / wall_s,
                "fault_coverage": any_coverage(records),
                "test_vectors": 1.0}


# ---------------------------------------------------------------------------
# atpg: PODEM test generation on the generated ISCAS-like benchmark
# ---------------------------------------------------------------------------
#: ``generate_tests``'s own default seed; run seed ``n`` uses this + n.
ATPG_SEED = 17

#: Random vectors the check screens undetected faults with, and the
#: screen's seed (``+ run seed``), apart from any seed the run uses.
ATPG_SCREEN = 1024
ATPG_SCREEN_SEED = 7919

#: The generated network: ``iscas_like_s2``'s generator seed at 350 of
#: its 1000 gates and 24 of its 48 inputs.  A pass takes about 1 s, so
#: a run holds a score of passes and the host speed is probed often
#: enough to follow it.  PODEM keeps the largest share of the pass
#: (~60%, bit-parallel fault simulation ~30%), and its work hardly
#: depends on the ATPG seed (backtracks within 0.2% across seeds), while
#: at 700 gates and 48 inputs it varies by ±10%.
ATPG_GATES = 350
ATPG_INPUTS = 24


class Atpg:
    name = "atpg"

    def build(self, seed: int):
        from repro.testgen.circuits import iscas_like

        return {"seed": seed,
                "network": iscas_like(2, n_gates=ATPG_GATES,
                                      n_inputs=ATPG_INPUTS)}

    def run(self, state, span):
        from repro.testgen import generate_tests

        return {"run": generate_tests(state["network"],
                                      seed=ATPG_SEED + state["seed"])}

    def release(self, state) -> None:
        pass

    def check(self, state, output) -> Tuple[int, int]:
        """Check how the run classified every stuck-at fault; one
        operation per fault, plus one for the fault count.

        * Detected: each confirmed fault is re-simulated with the serial
          ``fault_simulate`` against the first returned vector the
          bit-parallel matrix says detects it.  The serial simulator
          alone decides, so a wrong hint shows up as a failure.
        * Not detected: no returned vector and no vector of a seeded
          random screen may detect a fault the run lists as missed or
          proven untestable.  ``fault_coverage`` leaves proven-untestable
          faults out of its denominator, so a detectable fault wrongly
          proven untestable would otherwise raise it unseen.
        * Complete: confirmed, missed and proven untestable are disjoint
          and together are exactly both polarities on every signal, and
          ``n_faults`` is that number, so no fault can drop out.
        """
        from collections import Counter

        from repro.testgen.faultsim import (StuckFault, fault_detect_matrix,
                                            fault_simulate)

        run, network = output["run"], state["network"]
        expected = {StuckFault(net, value) for net in network.signals()
                    for value in (False, True)}
        listed = Counter(list(run.confirmed) + list(run.missed)
                         + list(run.proven_untestable))
        bad = expected ^ set(listed)
        bad.update(fault for fault, times in listed.items() if times > 1)

        confirmed = [fault for fault in run.confirmed if fault in expected]
        hints = fault_detect_matrix(network, run.vectors, confirmed)
        groups: Dict[int, list] = {}
        for fault in confirmed:
            mask = hints.get(fault, 0)
            groups.setdefault((mask & -mask).bit_length() - 1 if mask else 0,
                              []).append(fault)
        for index, faults in groups.items():
            bad.update(fault_simulate(network, [run.vectors[index]],
                                      faults=faults).undetected)

        rng = random.Random(ATPG_SCREEN_SEED + state["seed"])
        screen = [{pi: bool(rng.getrandbits(1))
                   for pi in network.primary_inputs}
                  for _ in range(ATPG_SCREEN)]
        undetected = [fault for fault in list(run.missed)
                      + list(run.proven_untestable) if fault in expected]
        caught = fault_detect_matrix(network, list(run.vectors) + screen,
                                     undetected)
        bad.update(fault for fault in undetected if caught.get(fault, 0))
        return (len(expected | set(listed)) + 1,
                len(bad) + (run.n_faults != len(expected)))

    def summary(self, output, wall_s: float, segments) -> Dict[str, float]:
        run = output["run"]
        return {"defects_per_s": run.n_faults / wall_s,
                "fault_coverage": run.coverage,
                "test_vectors": float(len(run.vectors))}


WORKLOADS = {cls.name: cls for cls in (Paper, Catalog, IlaSparse, Atpg)}
