"""Every example script must import and run end-to-end in fast mode.

Examples are documentation that executes; this keeps them from rotting
as the library evolves.  ``REPRO_EXAMPLE_FAST=1`` switches the heavy
scripts onto reduced grids, and each example runs from a temporary
working directory so dropped artifacts (result stores, output files)
never touch the repo.
"""

import importlib
import os
import sys

import pytest

EXAMPLES_DIR = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, "examples"))

#: module name -> argv for main() (None = zero-argument main()).
EXAMPLES = {
    "quickstart": None,
    "fault_campaign": None,
    "dft_insertion_flow": None,
    "fault_diagnosis": None,
    "healing_study": None,
    "detector_design_space": None,
    "sequential_bist": None,
    "service_smoke": None,
    "defect_families_study": None,
    "paper_scale_reproduction": (["--quick", "--only", "fig2"],),
}


def test_every_example_is_listed():
    scripts = {name[:-3] for name in os.listdir(EXAMPLES_DIR)
               if name.endswith(".py")}
    assert scripts == set(EXAMPLES), \
        "new example scripts must be added to the smoke test"


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_example_runs_in_fast_mode(name, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_EXAMPLE_FAST", "1")
    monkeypatch.chdir(tmp_path)
    monkeypatch.syspath_prepend(EXAMPLES_DIR)
    # A fresh import per test: examples read the environment at run
    # time, but stale module state from a previous parametrization (or
    # an aborted run) must not leak in.
    sys.modules.pop(name, None)
    module = importlib.import_module(name)
    try:
        arguments = EXAMPLES[name] or ()
        module.main(*arguments)
    finally:
        sys.modules.pop(name, None)
    out = capsys.readouterr().out
    assert out.strip(), f"{name} printed nothing"
