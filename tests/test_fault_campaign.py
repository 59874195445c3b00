"""Tests for the fault-campaign API (defects × oracles)."""

import numpy as np
import pytest

from repro.cml import NOMINAL, buffer_chain
from repro.dft import build_shared_monitor
from repro.faults import (
    DETECTION_MARGIN,
    FAIL,
    PASS,
    AmplitudeOracle,
    FlagOracle,
    IddqOracle,
    LogicOracle,
    Pipe,
    TerminalShort,
    enumerate_defects,
    run_campaign,
)

TECH = NOMINAL


class _Reading:
    """A stand-in operating point whose every net reads ``volts``."""

    def __init__(self, volts):
        self.volts = volts

    def voltage(self, net):
        return self.volts


@pytest.fixture(scope="module")
def campaign_setup():
    chain = buffer_chain(TECH, n_stages=3, frequency=100e6)
    monitor = build_shared_monitor(chain.circuit, chain.output_nets,
                                   tech=TECH)
    oracles = [
        LogicOracle(chain.output_nets),
        FlagOracle(monitor.nets.flag, monitor.nets.flagb),
        IddqOracle(),
    ]
    return chain, oracles


class TestOracles:
    def test_flag_oracle_verdicts(self, campaign_setup):
        chain, oracles = campaign_setup
        result = run_campaign(chain.circuit, [Pipe("X2.Q3", 4e3)], oracles)
        record = result.records[0]
        assert record.verdicts["detector"] == FAIL
        assert record.verdicts["logic"] == PASS  # parametric, logic-clean

    def test_logic_oracle_catches_stuck_at(self, campaign_setup):
        """With the static input low, a C-E short on Q1 (whose collector
        is the complement output) flips the observed polarity — a
        stuck-at the single-vector DC logic test can see.  (The dual
        short on Q2 needs the opposite input vector, which is exactly
        why §6.6 asks for toggling stimulus.)"""
        chain, oracles = campaign_setup
        result = run_campaign(chain.circuit,
                              [TerminalShort("X2.Q1", "c", "e")], oracles)
        assert result.records[0].verdicts["logic"] == FAIL

    def test_iddq_oracle_catches_pipe(self, campaign_setup):
        chain, oracles = campaign_setup
        result = run_campaign(chain.circuit, [Pipe("X1.Q3", 2e3)], oracles)
        assert result.records[0].verdicts["iddq"] == FAIL

    def test_unprepared_oracle_raises(self):
        from repro.sim import operating_point

        chain = buffer_chain(TECH, n_stages=1)
        solution = operating_point(chain.circuit)
        with pytest.raises(RuntimeError):
            IddqOracle().judge(solution)
        with pytest.raises(RuntimeError):
            LogicOracle(chain.output_nets).judge(solution)
        with pytest.raises(RuntimeError):
            AmplitudeOracle("op").judge(solution)

    def test_amplitude_oracle_fails_just_below_the_margin(self):
        assert DETECTION_MARGIN == 0.25
        oracle = AmplitudeOracle("vout")
        oracle.prepare(_Reading(3.5))
        edge = 3.5 - DETECTION_MARGIN
        assert oracle.judge(_Reading(3.6)) == PASS
        assert oracle.judge(_Reading(edge)) == PASS
        assert oracle.judge(_Reading(np.nextafter(edge, 0.0))) == FAIL


class TestCampaign:
    def test_matrix_shape_and_totals(self, campaign_setup):
        chain, oracles = campaign_setup
        defects = list(enumerate_defects(chain.circuit, kinds=("pipe",),
                                         pipe_resistances=(4e3,)))
        result = run_campaign(chain.circuit, defects, oracles)
        matrix = result.coverage_matrix()
        assert set(matrix) == {"pipe"}
        for oracle in ("logic", "detector", "iddq", "any"):
            caught, total = matrix["pipe"][oracle]
            assert total == len(defects)
            assert 0 <= caught <= total

    def test_any_is_union(self, campaign_setup):
        chain, oracles = campaign_setup
        defects = list(enumerate_defects(
            chain.circuit, kinds=("pipe", "terminal-short"),
            pipe_resistances=(4e3,)))
        result = run_campaign(chain.circuit, defects, oracles)
        matrix = result.coverage_matrix()
        for kind, row in matrix.items():
            best_single = max(row[name][0] for name in
                              ("logic", "detector", "iddq"))
            assert row["any"][0] >= best_single

    def test_complementarity_story(self, campaign_setup):
        """The paper's argument: the detector catches (current-source)
        pipes that logic testing passes, and logic testing catches
        stuck-at-class shorts the detector passes."""
        chain, oracles = campaign_setup
        defects = ([Pipe(f"X{i}.Q3", 4e3) for i in (1, 2, 3)]
                   + [TerminalShort(f"X{i}.Q1", "c", "e")
                      for i in (1, 2, 3)])
        result = run_campaign(chain.circuit, defects, oracles)
        matrix = result.coverage_matrix()
        assert matrix["pipe"]["detector"][0] == 3
        assert matrix["pipe"]["logic"][0] == 0
        assert matrix["terminal-short"]["logic"][0] >= 2

    def test_escapes_listed(self, campaign_setup):
        chain, oracles = campaign_setup
        # A mild pipe on a pair transistor escapes every DC oracle.
        defects = [Pipe("X2.Q1", 20e3)]
        result = run_campaign(chain.circuit, defects, oracles)
        assert len(result.escapes()) == 1

    def test_format_contains_matrix(self, campaign_setup):
        chain, oracles = campaign_setup
        result = run_campaign(chain.circuit, [Pipe("X1.Q3", 4e3)], oracles)
        text = result.format()
        assert "detector" in text and "iddq" in text and "any" in text
