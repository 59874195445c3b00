"""CLI round-trip: a campaign killed mid-run and rerun on the same
result store must produce record-identical results to an unbroken run.
Exercises the real ``python -m repro campaign`` entry point via
subprocess, including a simulated mid-run kill (a partial store whose
segment ends in a torn line)."""

import json
import os
import subprocess
import sys

import pytest

REPO_SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
TOTAL_DEFECTS = 6
PARTIAL_DEFECTS = 3


def _run_campaign(tmp_path, *extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    command = [sys.executable, "-m", "repro", "campaign",
               "--stages", "2", "--kinds", "pipe",
               "--pipe-resistances", "2e3", "4e3", "8e3",
               *extra]
    return subprocess.run(command, cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)


def _segment_lines(store):
    return [line for segment in sorted((store / "segments").glob("*.jsonl"))
            for line in segment.read_text().splitlines() if line]


def _entries(store):
    """Every record entry in ``store``'s segments, by store address."""
    entries = {}
    for line in _segment_lines(store):
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            continue
        entries[entry["key"]] = entry["entry"]
    return entries


@pytest.fixture(scope="module")
def roundtrip(tmp_path_factory):
    """One partial run + simulated kill + rerun, one unbroken run."""
    tmp_path = tmp_path_factory.mktemp("campaign_cli")
    resumed_store = tmp_path / "resumed"
    fresh_store = tmp_path / "fresh"

    partial = _run_campaign(tmp_path, "--limit", str(PARTIAL_DEFECTS),
                            "--store", str(resumed_store))
    assert partial.returncode == 0, partial.stderr

    # Simulate dying mid-write: append a torn (truncated) JSON line.
    [segment] = (resumed_store / "segments").glob("*.jsonl")
    with open(segment, "a", encoding="utf-8") as handle:
        handle.write('{"type": "record", "schema"')

    resumed = _run_campaign(tmp_path, "--limit", str(TOTAL_DEFECTS),
                            "--store", str(resumed_store))
    assert resumed.returncode == 0, resumed.stderr

    fresh = _run_campaign(tmp_path, "--limit", str(TOTAL_DEFECTS),
                          "--store", str(fresh_store))
    assert fresh.returncode == 0, fresh.stderr
    return resumed, fresh, resumed_store, fresh_store


def test_resume_skips_completed_defects(roundtrip):
    resumed, _, _, _ = roundtrip
    assert (f"store: {PARTIAL_DEFECTS} hit(s) / "
            f"{TOTAL_DEFECTS - PARTIAL_DEFECTS} miss(es)") in resumed.stdout


def test_resumed_equals_fresh_record_for_record(roundtrip):
    _, _, resumed_store, fresh_store = roundtrip
    resumed_entries = _entries(resumed_store)
    assert len(resumed_entries) == TOTAL_DEFECTS
    assert resumed_entries == _entries(fresh_store)


def test_torn_checkpoint_line_is_ignored(roundtrip):
    """The torn line injected into the store's segment must not surface
    as a record, and every surviving line must be valid JSON exactly
    once per defect."""
    _, _, resumed_store, _ = roundtrip
    parsed = []
    torn = 0
    for line in _segment_lines(resumed_store):
        try:
            parsed.append(json.loads(line))
        except json.JSONDecodeError:
            torn += 1
    assert torn == 1  # exactly the line the simulated crash tore
    keys = [e["key"] for e in parsed if e.get("type") == "record"]
    assert len(keys) == len(set(keys)) == TOTAL_DEFECTS


def test_resumed_and_fresh_reports_match(roundtrip):
    """The human-readable coverage table (verdict section of stdout)
    must be identical whether or not the run was interrupted."""
    resumed, fresh, _, _ = roundtrip

    def table(text):
        return [line for line in text.splitlines()
                if "|" in line or "%" in line]

    assert table(resumed.stdout) == table(fresh.stdout)
