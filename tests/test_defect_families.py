"""New defect families (ISSUE 10): gate-oxide breakdown, low-swing
interconnect links, and the AND-EXOR iterative logic array.

Covers the defect models themselves (apply/delta/severity), the link
primitive's healing electrics, per-family catalog and coverage
breakouts, cold/delta/batched verdict identity, the severity-sweep
study, ILA C-testability at gate and transistor level, and the
semantics the corpus witnesses freeze (soft escape, link healing).
"""

import dataclasses
import os

import pytest

from repro.analysis import ila_c_testability_study, severity_sweep
from repro.cml import NOMINAL, buffer_chain
from repro.cml.interconnect import (
    LINK_WIRE_SUFFIX,
    attach_low_swing_link,
    link_swing,
    link_wire_pairs,
    low_swing_driver_cell,
)
from repro.dft import (
    attach_variant1,
    attach_variant2,
    build_shared_monitor,
    ensure_vtest,
)
from repro.faults import (
    DEFECT_CLASSES,
    DEFECT_FAMILIES,
    HARD_BREAKDOWN_RESISTANCE,
    SOFT_BREAKDOWN_RESISTANCE,
    IddqOracle,
    LogicOracle,
    OxideBreakdown,
    WireLeak,
    catalog_summary,
    enumerate_defects,
    inject,
    run_campaign,
)
from repro.sim import ConvergenceError, operating_point
from repro.testgen import (
    enumerate_stuck_faults,
    fault_simulate,
    generate_tests,
    ila_and_exor,
    ila_c_test_vectors,
)

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")


def _linked_chain(n_stages=2, swing_factor=0.5):
    chain = buffer_chain(NOMINAL, n_stages=n_stages)
    link = attach_low_swing_link(chain.circuit, *chain.output_nets[-1],
                                 swing_factor=swing_factor)
    return chain, link


# ----------------------------------------------------------------------
# Oxide breakdown
# ----------------------------------------------------------------------
class TestOxideBreakdown:
    def test_apply_adds_junction_resistor(self):
        chain = buffer_chain(NOMINAL, n_stages=1)
        faulty = inject(chain.circuit, OxideBreakdown("X1.Q1", "b", "e",
                                                      1e3))
        added = [c for c in faulty if c.name.startswith("FAULT_OXBD")]
        assert len(added) == 1
        resistor = added[0]
        device = faulty["X1.Q1"]
        assert {resistor.net("p"), resistor.net("n")} == \
            {device.net("b"), device.net("e")}
        assert resistor.resistance == 1e3

    def test_delta_matches_apply_nets(self):
        chain = buffer_chain(NOMINAL, n_stages=1)
        defect = OxideBreakdown("X1.Q2", "b", "c", 1e5)
        (net_a, net_b, g), = defect.delta_conductances(chain.circuit)
        device = chain.circuit["X1.Q2"]
        assert {net_a, net_b} == {device.net("b"), device.net("c")}
        assert g == pytest.approx(1.0 / 1e5)

    def test_severity_scale(self):
        soft = OxideBreakdown("X", resistance=SOFT_BREAKDOWN_RESISTANCE)
        hard = OxideBreakdown("X", resistance=HARD_BREAKDOWN_RESISTANCE)
        mid = OxideBreakdown("X", resistance=1e5)
        assert soft.severity == pytest.approx(0.0)
        assert hard.severity == pytest.approx(1.0)
        assert 0.0 < mid.severity < 1.0
        # Clamped outside the soft..hard span.
        assert OxideBreakdown("X", resistance=1e9).severity == 0.0
        assert OxideBreakdown("X", resistance=1.0).severity == 1.0

    def test_shared_net_rejected(self):
        chain = buffer_chain(NOMINAL, n_stages=1)
        with pytest.raises(ValueError, match="share a net"):
            OxideBreakdown("X1.Q1", "b", "b").apply(chain.circuit)

    def test_non_bjt_rejected(self):
        from repro.circuit import Resistor

        chain = buffer_chain(NOMINAL, n_stages=1)
        resistor = chain.circuit.components_of_type(Resistor)[0]
        with pytest.raises(TypeError):
            OxideBreakdown(resistor.name).apply(chain.circuit)

    def test_enumeration_scales_with_resistance_grid(self):
        chain = buffer_chain(NOMINAL, n_stages=1)
        one = list(enumerate_defects(chain.circuit,
                                     kinds=("oxide-breakdown",),
                                     oxide_resistances=(10e6,)))
        three = list(enumerate_defects(chain.circuit,
                                       kinds=("oxide-breakdown",),
                                       oxide_resistances=(1e3, 1e5,
                                                          10e6)))
        assert one and len(three) == 3 * len(one)
        assert all(d.terminal_a == "b" for d in one)


# ----------------------------------------------------------------------
# Low-swing interconnect
# ----------------------------------------------------------------------
class TestLowSwingLink:
    def test_driver_swing_factor_validated(self):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                low_swing_driver_cell(NOMINAL, swing_factor=bad)

    def test_link_launches_reduced_swing_and_heals(self):
        chain, link = _linked_chain(swing_factor=0.5)
        solution = operating_point(chain.circuit)
        wire = link_swing(solution, link)
        healed = link_swing(solution, link, "out")
        assert wire == pytest.approx(0.5 * NOMINAL.swing, rel=0.25)
        # The receiver's differential pair restores (nearly) full swing.
        assert healed > 0.8 * NOMINAL.swing

    def test_wire_leak_erodes_wire_but_logic_heals(self):
        chain, link = _linked_chain(swing_factor=0.5)
        healthy = operating_point(chain.circuit)
        leaky = inject(chain.circuit, WireLeak(*link.wire_nets, 2e3))
        degraded = operating_point(leaky)
        assert link_swing(degraded, link) < 0.9 * link_swing(healthy,
                                                             link)
        # ... yet the received logic value survives (the healing case).
        assert link_swing(degraded, link, "out") > 0.5 * NOMINAL.swing

    def test_link_wire_pairs_and_wire_leak_sites(self):
        chain, link = _linked_chain()
        pairs = link_wire_pairs(chain.circuit)
        assert (link.wire_nets[0], link.wire_nets[1]) in pairs
        assert all(p.endswith(LINK_WIRE_SUFFIX) for p, _ in pairs)
        leaks = list(enumerate_defects(chain.circuit,
                                       kinds=("wire-leak",)))
        assert leaks and all(isinstance(d, WireLeak) for d in leaks)
        assert {(d.net_a, d.net_b) for d in leaks} >= set(pairs)

    def test_wire_leak_validates_endpoints(self):
        chain, _ = _linked_chain()
        with pytest.raises(KeyError):
            WireLeak("nosuch.lw", "nosuch.lwb").apply(chain.circuit)
        with pytest.raises(ValueError):
            WireLeak("LNK.lw", "LNK.lw").apply(chain.circuit)


# ----------------------------------------------------------------------
# Catalog and campaign per-family breakouts
# ----------------------------------------------------------------------
class TestFamilyBreakouts:
    def test_defect_families_partition_classes(self):
        assert set(DEFECT_FAMILIES) == {"catalog", "oxide",
                                        "interconnect"}
        assert sorted(c.__name__ for family in DEFECT_FAMILIES.values()
                      for c in family) == \
            sorted(c.__name__ for c in DEFECT_CLASSES)
        assert OxideBreakdown in DEFECT_FAMILIES["oxide"]
        assert WireLeak in DEFECT_FAMILIES["interconnect"]

    def test_catalog_summary_by_family(self):
        chain, _ = _linked_chain()
        flat = catalog_summary(chain.circuit)
        nested = catalog_summary(chain.circuit, by_family=True)
        assert set(nested) == {"catalog", "oxide", "interconnect"}
        assert nested["oxide"]["oxide-breakdown"] > 0
        assert nested["interconnect"]["wire-leak"] > 0
        # The nested view is a partition of the flat one.
        refolded = {kind: count for kinds in nested.values()
                    for kind, count in kinds.items()}
        assert refolded == flat

    def _mixed_campaign(self):
        chain, link = _linked_chain()
        defects = [d for kind in ("pipe", "oxide-breakdown", "wire-leak")
                   for d in list(enumerate_defects(
                       chain.circuit, kinds=(kind,),
                       oxide_resistances=(1e3,)))[:4]]
        oracles = [LogicOracle(chain.output_nets + [link.out_nets]),
                   IddqOracle(supply_source="VGND")]
        return run_campaign(chain.circuit, defects, oracles), defects

    def test_coverage_matrix_by_family(self):
        campaign, defects = self._mixed_campaign()
        by_kind = campaign.coverage_matrix()
        by_family = campaign.coverage_matrix(by="family")
        assert set(by_family) == {d.family for d in defects}
        # Totals must agree between the two groupings.
        total = sum(row["any"][1] for row in by_kind.values())
        assert sum(row["any"][1] for row in by_family.values()) == total
        with pytest.raises(ValueError):
            campaign.coverage_matrix(by="severity")

    def test_format_appends_family_table(self):
        campaign, _ = self._mixed_campaign()
        report = campaign.format()
        assert "Per-family coverage" in report
        assert "interconnect" in report


# ----------------------------------------------------------------------
# Conventional / delta / batched verdict identity on the new families
# ----------------------------------------------------------------------
def test_delta_and_batched_match_cold_solves():
    chain, link = _linked_chain()
    defects = list(enumerate_defects(
        chain.circuit, kinds=("oxide-breakdown", "wire-leak"),
        oxide_resistances=(1e3, 10e6)))[:8]
    assert defects

    def verdicts(**kwargs):
        oracles = [LogicOracle(chain.output_nets + [link.out_nets]),
                   IddqOracle(supply_source="VGND")]
        result = run_campaign(chain.circuit, defects, oracles, **kwargs)
        return [(r.defect.describe(), dict(r.verdicts), r.converged)
                for r in result.records]

    conventional = verdicts()
    assert verdicts(low_rank=True, batch_size=1) == conventional
    assert verdicts(low_rank=True) == conventional


# ----------------------------------------------------------------------
# Severity sweep study
# ----------------------------------------------------------------------
def _cold_detections(variant, resistances, n_stages):
    """Detected-site counts per resistance by the reference rules: every
    oxide site injected and solved cold, one at a time, and judged by
    the variant's own test (a non-convergent circuit counts as
    detected)."""
    chain = buffer_chain(NOMINAL, n_stages=n_stages, frequency=100e6)
    circuit = chain.circuit
    sites = list(enumerate_defects(circuit, kinds=("oxide-breakdown",),
                                   oxide_resistances=(10e6,)))
    if variant == 0:
        reference = operating_point(circuit)
        ref_iddq = reference.branch_current("VGND")
        polarity = [(p, n, reference.voltage(p) > reference.voltage(n))
                    for p, n in chain.output_nets]

        def detect(solution):
            if any((solution.voltage(p) > solution.voltage(n)) != ref
                   for p, n, ref in polarity):
                return True
            return abs(solution.branch_current("VGND") - ref_iddq) > 100e-6
    elif variant in (1, 2):
        op, opb = chain.output_nets[-1]
        if variant == 1:
            detector = attach_variant1(circuit, op, opb, tech=NOMINAL)
        else:
            ensure_vtest(circuit, NOMINAL)
            detector = attach_variant2(circuit, op, opb, tech=NOMINAL)
        ref_vout = operating_point(circuit).voltage(detector.vout)

        def detect(solution):
            return solution.voltage(detector.vout) < ref_vout - 0.25
    else:
        monitor = build_shared_monitor(circuit, chain.output_nets,
                                       tech=NOMINAL)

        def detect(solution):
            return (solution.voltage(monitor.nets.flag)
                    < solution.voltage(monitor.nets.flagb))

    counts = []
    for resistance in resistances:
        count = 0
        for site in sites:
            faulty = inject(circuit, dataclasses.replace(
                site, resistance=resistance))
            try:
                count += detect(operating_point(faulty))
            except ConvergenceError:
                count += 1
        counts.append(count)
    return counts


class TestSeveritySweep:
    def test_campaign_sweep_matches_cold_per_defect_reference(self):
        resistances = (10e6, 10e3, 1e3)
        sweep = severity_sweep(resistances=resistances, n_stages=2)
        assert sweep.n_sites == 12
        for variant in (0, 1, 2, 3):
            assert sweep.detected[variant] == _cold_detections(
                variant, resistances, n_stages=2), variant
        # The grid reaches every oracle: logic/Iddq, amplitude and flag.
        assert sweep.detected[0][-1] and sweep.detected[2][-1]
        assert sweep.detected[3][-1]

    def test_sweep_is_monotone_and_serializable(self):
        sweep = severity_sweep(resistances=(10e6, 1e3), variants=(0,),
                               n_stages=1)
        assert sweep.n_sites > 0
        assert sweep.monotone_ok()
        # Hard breakdowns must be strictly more detectable than soft.
        soft, hard = sweep.detected[0]
        assert hard >= soft
        assert "severity sweep" in sweep.format()

    def test_sweep_rejects_unordered_grid(self):
        with pytest.raises(ValueError, match="soft"):
            severity_sweep(resistances=(1e3, 10e6), variants=(0,),
                           n_stages=1)


# ----------------------------------------------------------------------
# ILA C-testability
# ----------------------------------------------------------------------
class TestIla:
    def test_ila_logic_and_shape(self):
        network = ila_and_exor(3)
        assert len(network.primary_inputs) == 7  # y0 + 3*(a, b)
        assert len(network.primary_outputs) == 3
        vector = {"y0": False, "a0": True, "b0": True, "a1": True,
                  "b1": False, "a2": True, "b2": True}
        values = network.evaluate(vector)
        # y1 = 0 ^ (1&1) = 1; y2 = 1 ^ (1&0) = 1; y3 = 1 ^ (1&1) = 0.
        assert (values["y1"], values["y2"], values["y3"]) == \
            (True, True, False)

    @pytest.mark.parametrize("n_cells", [1, 2, 4])
    def test_c_test_set_is_constant_and_complete(self, n_cells):
        network = ila_and_exor(n_cells)
        vectors = ila_c_test_vectors(n_cells)
        assert len(vectors) == 8  # constant size at any array length
        sim = fault_simulate(network, vectors,
                             faults=enumerate_stuck_faults(network))
        assert sim.coverage == 1.0

    def test_atpg_cannot_beat_the_c_test_set(self):
        """PODEM confirms the constant set is already complete: full
        ATPG reaches the same 100% on the same fault list."""
        network = ila_and_exor(3)
        run = generate_tests(network, seed=3)
        assert run.coverage == 1.0

    def test_transistor_level_study_agrees(self):
        study = ila_c_testability_study(n_cells=2, campaign_limit=6)
        assert study.c_testable
        assert study.stuck_coverage == 1.0
        assert study.n_vectors == 8
        caught, total = study.campaign_coverage["pipe"]
        assert total > 0 and caught >= 0
        assert "C-testability" in study.format()


# ----------------------------------------------------------------------
# Witness semantics (frozen by the corpus)
# ----------------------------------------------------------------------
class TestWitnessSemantics:
    def test_oxide_escape_witness_escapes_soft_detects_hard(self):
        from repro.verify import build_scenario, load_scenario
        from repro.verify.oracle import _fresh_oracles

        scenario = load_scenario(
            os.path.join(CORPUS_DIR, "oxide_severity_escape.json"))
        built = build_scenario(scenario)
        campaign = run_campaign(built.circuit, built.defects,
                                _fresh_oracles(built))
        by_r = {r.defect.resistance: r for r in campaign.records}
        soft, hard = by_r[max(by_r)], by_r[min(by_r)]
        assert soft.converged
        assert all(v == "pass" for v in soft.verdicts.values())
        assert (not hard.converged
                or any(v == "fail" for v in hard.verdicts.values()))

    def test_link_healing_witness_keeps_logic(self):
        from repro.verify import build_scenario, load_scenario
        from repro.verify.oracle import _fresh_oracles

        scenario = load_scenario(
            os.path.join(CORPUS_DIR, "lowswing_link_healing.json"))
        assert scenario.links
        built = build_scenario(scenario)
        campaign = run_campaign(built.circuit, built.defects,
                                _fresh_oracles(built))
        record, = campaign.records
        assert record.converged
        assert record.verdicts["logic"] == "pass"

    def test_ila_witness_preserves_input_names(self):
        from repro.verify import load_scenario

        scenario = load_scenario(
            os.path.join(CORPUS_DIR, "ila_c_testability.json"))
        assert "y0" in scenario.input_names
        network = scenario.network()
        assert set(scenario.input_names) == set(network.primary_inputs)
