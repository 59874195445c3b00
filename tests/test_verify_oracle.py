"""Cross-engine oracle matrix: clean scenarios agree, injected bugs
are caught (and shrunk to a minimal reproducer)."""

import pytest

from repro.sim.mna import MnaStamper
from repro.verify import (
    DEFAULT_ENGINES,
    EngineConfig,
    GeneratorConfig,
    Tolerances,
    cross_check,
    fuzz_session,
    parse_budget,
    random_scenario,
)

#: The matrix without the parallel engine: monkeypatched bugs do not
#: propagate into worker processes, and workers slow unit tests down.
SERIAL_ENGINES = tuple(e for e in DEFAULT_ENGINES if not e.parallel)


def test_engine_matrix_covers_required_axes():
    names = {e.name for e in DEFAULT_ENGINES}
    assert "compiled-dense" in names            # baseline
    assert "legacy-dense" in names              # compiled vs legacy
    assert any(e.low_rank for e in DEFAULT_ENGINES)  # low-rank vs full
    assert any(e.parallel for e in DEFAULT_ENGINES)  # serial vs parallel


def test_engine_options_force_backends():
    from repro.sim import SimOptions
    base = SimOptions()
    sparse = EngineConfig("s", sparse=True).options(base)
    dense = EngineConfig("d", sparse=False).options(base)
    assert sparse.sparse_threshold <= 1
    assert dense.sparse_threshold >= 10_000
    legacy = EngineConfig("l", use_compiled=False).options(base)
    assert not legacy.use_compiled


@pytest.mark.parametrize("seed", range(4))
def test_clean_scenarios_agree(seed):
    result = cross_check(random_scenario(seed), SERIAL_ENGINES)
    assert result.ok, result.format()
    assert result.n_engine_pairs >= len(SERIAL_ENGINES) - 1
    assert result.n_checks > 0


def test_defective_scenario_exercises_campaign_check():
    config = GeneratorConfig(transient_fraction=0.0)
    for seed in range(30):
        scenario = random_scenario(seed, config)
        if scenario.defects:
            break
    else:
        pytest.fail("no defective scenario in seed range")
    result = cross_check(scenario, SERIAL_ENGINES)
    assert result.ok, result.format()


def test_injected_stamping_bug_is_caught_and_shrunk():
    """The headline acceptance test: corrupt the legacy stamping path
    (conductances scaled by 2%) and require the oracle matrix to flag
    compiled-vs-legacy and the shrinker to reduce the reproducer to a
    trivial circuit."""
    original = MnaStamper.conductance

    def corrupted(self, net_a, net_b, conductance):
        original(self, net_a, net_b, conductance * 1.02)

    MnaStamper.conductance = corrupted
    try:
        report = fuzz_session(seed=0, budget_s=120, max_scenarios=3,
                              engines=SERIAL_ENGINES, max_failures=1)
    finally:
        MnaStamper.conductance = original
    assert not report.ok, "2% conductance error must not survive"
    failure = report.failures[0]
    kinds = {d.kind for d in failure.result.disagreements}
    assert "op" in kinds or "verdict" in kinds
    engines = {d.engine_b for d in failure.result.disagreements
               if d.kind == "op"}
    assert "legacy-dense" in engines
    assert len(failure.shrunk.gates) <= 3
    # The shrunk scenario still reproduces under a fresh check.
    recheck = cross_check(failure.shrunk, SERIAL_ENGINES)
    assert recheck.ok, "bug was unpatched, shrunk scenario must pass now"


def test_loosened_tolerance_hides_small_bug():
    """Tolerances are an explicit dial: the same 2% bug disappears when
    op_abs is opened wide (guards against silently-loose defaults)."""
    original = MnaStamper.conductance

    def corrupted(self, net_a, net_b, conductance):
        original(self, net_a, net_b, conductance * 1.02)

    scenario = random_scenario(0)
    MnaStamper.conductance = corrupted
    try:
        engines = SERIAL_ENGINES[:2]  # compiled vs legacy only
        tight = cross_check(scenario, engines)
        loose = cross_check(scenario, engines,
                            tolerances=Tolerances(op_abs=1.0))
    finally:
        MnaStamper.conductance = original
    assert not tight.ok
    assert not any(d.kind == "op" for d in loose.disagreements)


def test_disagreement_serializes():
    from repro.verify import Disagreement
    d = Disagreement(kind="op", engine_a="a", engine_b="b",
                     where="n1", value_a=1.0, value_b=2.0,
                     tolerance=1e-6)
    data = d.to_dict()
    assert data["kind"] == "op" and data["where"] == "n1"
    assert "a vs b" in d.format()


def test_parse_budget():
    assert parse_budget("60s") == 60.0
    assert parse_budget("2m") == 120.0
    assert parse_budget("1h") == 3600.0
    assert parse_budget("300") == 300.0
    with pytest.raises(ValueError):
        parse_budget("soon")


def test_fuzz_session_reports_counts():
    report = fuzz_session(seed=7, budget_s=30, max_scenarios=4,
                          engines=SERIAL_ENGINES)
    assert report.ok, report.format()
    assert report.n_scenarios == 4
    assert report.n_engine_pairs > 0
    assert "4 scenarios" in report.format()
