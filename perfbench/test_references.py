"""A corrupted reference or a misreported result must be reported as a
failed operation.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_references.py -q
"""

from __future__ import annotations

import copy
import json
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def _corrupting(monkeypatch, name: str, corrupt) -> None:
    """Serve reference ``name`` with ``corrupt`` applied to a copy."""
    original = workloads.load_reference

    def load(requested: str):
        reference = original(requested)
        if requested == name:
            reference = copy.deepcopy(reference)
            corrupt(reference)
        return reference

    monkeypatch.setattr(workloads, "load_reference", load)


def _declared(kind: str):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return [(entry["name"], entry["unit"]) for entry in spec[kind]]


def _reported(result):
    return [(name, entry["unit"])
            for name, entry in result["metrics"].items()]


def test_clean_catalog_run_passes_and_reports_declared_metrics():
    result = run.measure("catalog", 0, seconds=0.0, trace=False)
    assert result["correct"] and result["failed"] == 0
    assert _reported(result) == _declared("end_to_end")


def test_traced_run_reports_declared_per_layer_metrics():
    result = run.measure("catalog", 0, seconds=0.0, trace=True)
    assert result["correct"]
    assert _reported(result) == _declared("per_layer")
    assert result["metrics"]["trace.coverage"]["value"] >= 0.95
    # Counts repeat exactly from run to run; only times and the host's
    # speed may differ.
    again = run.measure("catalog", 0, seconds=0.0, trace=True)

    def counts(metrics):
        return {name: entry["value"] for name, entry in metrics.items()
                if entry["unit"] not in ("s", "%", "fraction")
                and not name.startswith("host.")}

    assert counts(again["metrics"]) == counts(result["metrics"])


def test_flipped_catalog_verdict_fails_one_operation(monkeypatch):
    def flip(reference):
        key = next(key for key in sorted(reference)
                   if key.startswith("pipe|"))
        verdicts = reference[key][0]
        oracle, verdict = verdicts[0]
        verdicts[0] = [oracle, "pass" if verdict == "fail" else "fail"]

    _corrupting(monkeypatch, "catalog_seed0.json", flip)
    result = run.measure("catalog", 0, seconds=0.0, trace=False)
    assert not result["correct"]
    assert result["failed"] == 1


def test_changed_paper_row_fails_one_operation(monkeypatch):
    paper = workloads.WORKLOADS["paper"]()
    reference = workloads.load_reference("paper.json")
    # The recorded texts stand in for a pass that reproduced them.
    output = {name: (None, text) for name, text in reference.items()}
    assert paper.check(None, output) == (len(reference), 0)

    def change_row(texts):
        lines = texts["table1"].splitlines()
        row = len(lines) - 1
        lines[row] = lines[row].replace("0", "1", 1)
        assert lines[row] != texts["table1"].splitlines()[row]
        texts["table1"] = "\n".join(lines)

    _corrupting(monkeypatch, "paper.json", change_row)
    assert paper.check(None, output) == (len(reference), 1)


def test_misclassified_atpg_fault_fails_one_operation():
    from repro.testgen import generate_tests
    from repro.testgen.circuits import iscas_like

    atpg = workloads.WORKLOADS["atpg"]()
    state = {"seed": 0, "network": iscas_like(2, n_gates=120, n_inputs=12)}
    run_ = generate_tests(state["network"], seed=workloads.ATPG_SEED)
    attempted, failed = atpg.check(state, {"run": run_})
    assert failed == 0 and attempted == run_.n_faults + 1

    detectable, rest = run_.confirmed[0], run_.confirmed[1:]
    # Wrongly proven untestable: leaves coverage's denominator.
    proven = replace(run_, confirmed=rest,
                     proven_untestable=run_.proven_untestable + [detectable])
    assert atpg.check(state, {"run": proven}) == (attempted, 1)
    # Dropped from every class.
    dropped = replace(run_, confirmed=rest)
    assert atpg.check(state, {"run": dropped}) == (attempted, 1)
    # Fault count that no longer matches the network.
    miscounted = replace(run_, n_faults=run_.n_faults - 1)
    assert atpg.check(state, {"run": miscounted}) == (attempted, 1)
