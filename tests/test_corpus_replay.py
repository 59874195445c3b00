"""Golden regression corpus: every committed scenario must replay
clean under the full serial engine matrix.

Scenarios land here in two ways: hand-picked diverse cases from the
fuzzer, and (after triage + a fix) shrunk counterexamples that
``python -m repro verify`` serialized.  Either way the contract is the
same — the file is a frozen, replayable witness that the engines agree.
"""

import glob
import os

import pytest

from repro.verify import DEFAULT_ENGINES, cross_check, load_scenario

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
CORPUS = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))

#: Parallel campaigns fork workers per scenario; the corpus runs in CI
#: on every push, so it sticks to the serial engines (the dedicated
#: parallel-equivalence tests cover that axis).
ENGINES = tuple(e for e in DEFAULT_ENGINES if not e.parallel)


def test_corpus_is_not_empty():
    assert CORPUS, f"no scenarios committed under {CORPUS_DIR}"


@pytest.mark.parametrize(
    "path", CORPUS, ids=[os.path.basename(p) for p in CORPUS])
def test_corpus_scenario_replays_clean(path):
    scenario = load_scenario(path)
    result = cross_check(scenario, ENGINES)
    assert result.ok, result.format()
    assert result.n_checks > 0


def test_corpus_covers_detector_variants():
    variants = {load_scenario(path).detector_variant for path in CORPUS}
    assert 3 in variants, "corpus must include a shared-monitor case"
    assert variants & {1, 2}, "corpus must include a per-pair detector"


def test_corpus_covers_defects_and_transients():
    scenarios = [load_scenario(path) for path in CORPUS]
    assert any(s.defects for s in scenarios)
    assert any(s.transient is not None for s in scenarios)
    classes = {d["class"] for s in scenarios for d in s.defects}
    assert "TerminalOpen" in classes, \
        "corpus must exercise opens, renumbered members of the batch"


def test_corpus_covers_new_defect_families():
    """ISSUE 10 witnesses: the extension families stay replayable."""
    scenarios = [load_scenario(path) for path in CORPUS]
    classes = {d["class"] for s in scenarios for d in s.defects}
    assert "OxideBreakdown" in classes, \
        "corpus must freeze a soft/hard severity escape pair"
    assert "WireLeak" in classes, \
        "corpus must freeze a low-swing link healing case"
    assert any(s.links for s in scenarios), \
        "corpus must build at least one low-swing link"
    assert any(s.input_names for s in scenarios), \
        "corpus must carry a structured-input (ILA) topology"


def test_corpus_witness_files_exist():
    present = {os.path.basename(p) for p in CORPUS}
    for witness in ("oxide_severity_escape.json",
                    "lowswing_link_healing.json",
                    "ila_c_testability.json"):
        assert witness in present
