"""Tests for the defect models, injector and fault catalog."""

import copy

import pytest

from repro.circuit import Capacitor, Resistor, Waveform
from repro.cml import NOMINAL, attach_low_swing_link, buffer_chain
from repro.faults import (
    ALL_KINDS,
    Bridge,
    OxideBreakdown,
    Pipe,
    ResistorOpen,
    ResistorShort,
    TerminalOpen,
    TerminalShort,
    WireLeak,
    catalog_summary,
    enumerate_defects,
    inject,
    injected_names,
    resistor_sites,
    strip_faults,
    transistor_sites,
)
from repro.sim import operating_point, run_cycles
from repro.sim.mna import structure_for

TECH = NOMINAL


@pytest.fixture()
def chain():
    return buffer_chain(TECH, frequency=100e6)


class TestPipe:
    def test_adds_resistor_across_ce(self, chain):
        faulty = inject(chain.circuit, Pipe("DUT.Q3", 4e3))
        names = injected_names(faulty)
        assert len(names) == 1
        pipe = faulty[names[0]]
        q3 = faulty["DUT.Q3"]
        assert {pipe.net("p"), pipe.net("n")} == {q3.net("c"), q3.net("e")}
        assert pipe.resistance == 4e3

    def test_original_untouched(self, chain):
        count = len(chain.circuit)
        inject(chain.circuit, Pipe("DUT.Q3"))
        assert len(chain.circuit) == count
        assert injected_names(chain.circuit) == []

    def test_increases_tail_current(self, chain):
        faulty = inject(chain.circuit, Pipe("DUT.Q3", 4e3))
        # DC with the input stuck at its t=0 value: the DUT on-branch
        # carries tail + pipe current, so its low level drops.
        op_clean = operating_point(chain.circuit)
        op_faulty = operating_point(faulty)
        low_clean = min(op_clean.voltage("op"), op_clean.voltage("opb"))
        low_faulty = min(op_faulty.voltage("op"), op_faulty.voltage("opb"))
        assert low_faulty < low_clean - 0.15

    def test_rejects_non_transistor(self, chain):
        with pytest.raises(TypeError):
            inject(chain.circuit, Pipe("DUT.R1"))

    def test_describe(self):
        assert "4000" in Pipe("DUT.Q3", 4e3).describe()
        assert "DUT.Q3" in Pipe("DUT.Q3").name


class TestTerminalShort:
    def test_fig2_stuck_at_zero(self, chain):
        """C-E short on Q2 sticks output op at logic 0 (paper Fig. 2)."""
        faulty = inject(chain.circuit, TerminalShort("DUT.Q2", "c", "e"))
        result = run_cycles(faulty, 100e6, cycles=2.0, points_per_cycle=300)
        op_wave = result.wave("op").window(5e-9, 20e-9)
        opb_wave = result.wave("opb").window(5e-9, 20e-9)
        # op is pinned at the low level (the collector resistor now feeds
        # the tail directly) — it never rises toward logic high...
        # (allowing ~30 mV of capacitive feedthrough ripple)
        assert op_wave.extreme_swing() < 0.15 * TECH.swing
        assert op_wave.maximum() < TECH.vlow + 0.03
        # ...so the differential value op-opb never goes positive by more
        # than a sliver: a stuck-at-0 as seen by the next stage.
        assert (op_wave.values - opb_wave.values).max() < 0.05

    def test_same_net_rejected(self, chain):
        faulty = chain.circuit.copy()
        # Q1 and Q2 share the tail net; short e-e of one device is a no-op.
        with pytest.raises(ValueError, match="no-op"):
            TerminalShort("DUT.Q1", "e", "e").apply(faulty)

    def test_multiple_shorts_unique_names(self, chain):
        faulty = inject(chain.circuit, [
            TerminalShort("DUT.Q2", "c", "e"),
            TerminalShort("DUT.Q2", "b", "e"),
        ])
        assert len(injected_names(faulty)) == 2


class TestOpen:
    def test_open_splits_terminal(self, chain):
        faulty = inject(chain.circuit, TerminalOpen("DUT.Q1", "b"))
        q1 = faulty["DUT.Q1"]
        assert q1.net("b") != chain.circuit["DUT.Q1"].net("b")
        names = injected_names(faulty)
        assert len(names) == 2  # R and C of the open model
        kinds = {type(faulty[n]) for n in names}
        assert kinds == {Resistor, Capacitor}

    def test_open_base_kills_switching(self, chain):
        faulty = inject(chain.circuit, TerminalOpen("DUT.Q1", "b"))
        result = run_cycles(faulty, 100e6, cycles=2.0, points_per_cycle=300)
        # With Q1's base floating the DUT can no longer steer properly:
        # the differential output barely toggles compared to nominal.
        swing = result.differential("op", "opb").window(5e-9, 20e-9)
        assert swing.extreme_swing() < 1.5 * TECH.swing  # no clean 2*swing

    def test_resistor_open_isolates(self, chain):
        faulty = inject(chain.circuit, ResistorOpen("DUT.R1"))
        op = operating_point(faulty)
        # DUT.R1 feeds the 'op' output; opened, the output can only be
        # pulled far below the nominal low level by the tail current
        # through the (now huge) open resistance path.
        assert min(op.voltage("op"), op.voltage("opb")) < TECH.vlow


class TestBridgeAndResistorShort:
    def test_bridge_couples_nets(self, chain):
        faulty = inject(chain.circuit, Bridge("op", "opb", 1.0))
        result = run_cycles(faulty, 100e6, cycles=2.0, points_per_cycle=300)
        diff = result.differential("op", "opb").window(5e-9, 20e-9)
        assert diff.extreme_swing() < 0.2 * TECH.swing

    def test_bridge_unknown_net(self, chain):
        with pytest.raises(KeyError):
            inject(chain.circuit, Bridge("op", "bogus"))

    def test_bridge_same_net(self, chain):
        with pytest.raises(ValueError):
            inject(chain.circuit, Bridge("op", "op"))

    def test_bridge_endpoints_follow_the_topology(self):
        """Both methods raise on a missing endpoint, on a net added
        after a first check both find it, and equal endpoints still
        raise ValueError."""
        circuit = buffer_chain(TECH, n_stages=1).circuit
        net = circuit.unknown_nets()[0]
        bridge = Bridge(net, "late")
        with pytest.raises(KeyError, match="late"):
            bridge.delta_conductances(circuit)
        with pytest.raises(KeyError, match="late"):
            bridge.apply(circuit.copy())
        circuit.add(Resistor("RLATE", "late", "0", 1e3))
        assert bridge.delta_conductances(circuit) == [(net, "late", 1.0)]
        bridge.apply(circuit)
        assert circuit.has_net("late") and circuit.has_net("0")
        with pytest.raises(ValueError, match="differ"):
            Bridge("late", "late").delta_conductances(circuit)

    def test_resistor_short_kills_swing_on_one_side(self, chain):
        faulty = inject(chain.circuit, ResistorShort("DUT.R2"))
        result = run_cycles(faulty, 100e6, cycles=2.0, points_per_cycle=300)
        # R2 shorted: opb is pinned at vgnd.
        opb = result.wave("opb").window(5e-9, 20e-9)
        assert opb.extreme_swing() < 0.02
        assert opb.minimum() > TECH.vhigh - 0.02

    def test_resistor_short_type_check(self, chain):
        with pytest.raises(TypeError):
            inject(chain.circuit, ResistorShort("DUT.Q1"))


class TestModelValues:
    """A defect refuses, when constructed, a value its injected resistor
    or capacitor would refuse, so the low-rank engine (which never
    injects) and the conventional one see the same defects."""

    @pytest.mark.parametrize("cls, site", [
        pytest.param(cls, site, id=cls.kind) for cls, site in (
            (Pipe, ("X1.Q3",)),
            (TerminalShort, ("X1.Q3", "c", "e")),
            (Bridge, ("op1", "opb1")),
            (TerminalOpen, ("X1.Q3", "c")),
            (ResistorShort, ("X1.RC1",)),
            (OxideBreakdown, ("X1.Q3",)),
            (WireLeak, ("lw", "lwb")))])
    def test_resistance_below_minimum_rejected(self, cls, site):
        with pytest.raises(ValueError, match="1e-09 below minimum"):
            cls(*site, resistance=1e-9)
        cls(*site, resistance=Resistor.MIN_RESISTANCE)

    @pytest.mark.parametrize("capacitance", [0.0, -1e-15])
    def test_open_capacitance_must_be_positive(self, capacitance):
        with pytest.raises(ValueError, match="capacitance"):
            TerminalOpen("X1.Q3", "c", capacitance=capacitance)

    def test_catalog_refuses_a_sub_minimum_pipe(self, chain):
        with pytest.raises(ValueError, match="below minimum"):
            list(enumerate_defects(chain.circuit, kinds=("pipe",),
                                   pipe_resistances=(1e-9,)))


class TestInjector:
    def test_inject_records_defects(self, chain):
        defect = Pipe("DUT.Q3", 4e3)
        faulty = inject(chain.circuit, defect)
        assert faulty.injected_defects == [defect]
        assert "pipe" in faulty.title

    def test_strip_faults_roundtrip(self, chain):
        faulty = inject(chain.circuit, [Pipe("DUT.Q3"),
                                        Bridge("op", "opb")])
        clean = strip_faults(faulty)
        assert injected_names(clean) == []
        assert len(clean) == len(chain.circuit)

    def test_stripped_circuit_behaves_nominally(self, chain):
        faulty = inject(chain.circuit, Pipe("DUT.Q3", 1e3))
        clean = strip_faults(faulty)
        op_clean = operating_point(clean)
        op_ref = operating_point(chain.circuit)
        assert op_clean.voltage("op") == pytest.approx(op_ref.voltage("op"),
                                                       abs=1e-6)


class TestCatalog:
    def test_transistor_sites_count(self, chain):
        # 8 buffers x 3 transistors each.
        assert len(transistor_sites(chain.circuit)) == 24

    def test_resistor_sites_count(self, chain):
        # 8 buffers x 2 collector resistors.
        assert len(resistor_sites(chain.circuit)) == 16

    def test_pipe_enumeration_with_values(self, chain):
        pipes = [d for d in enumerate_defects(chain.circuit, kinds=("pipe",),
                                              pipe_resistances=(1e3, 4e3))]
        assert len(pipes) == 48
        assert {p.resistance for p in pipes} == {1e3, 4e3}

    def test_terminal_short_enumeration(self, chain):
        shorts = list(enumerate_defects(chain.circuit,
                                        kinds=("terminal-short",)))
        # 3 terminal pairs per BJT, all on distinct nets here.
        assert len(shorts) == 24 * 3

    def test_catalog_summary_keys(self, chain):
        summary = catalog_summary(chain.circuit)
        assert summary["pipe"] == 24
        assert summary["resistor-short"] == 16
        assert summary["open"] == 24 * 3
        assert summary["bridge"] > 0

    def test_unknown_kind_rejected(self, chain):
        with pytest.raises(ValueError):
            list(enumerate_defects(chain.circuit, kinds=("wormhole",)))

    def test_fault_elements_not_re_enumerated(self, chain):
        faulty = inject(chain.circuit, Pipe("DUT.Q3"))
        assert len(transistor_sites(faulty)) == 24
        assert "FAULT" not in " ".join(resistor_sites(faulty))

    def test_every_enumerated_defect_injects(self, chain):
        # The link gives the wire-leak kind its sites.
        attach_low_swing_link(chain.circuit, *chain.output_nets[-1])
        circuit = chain.circuit
        structure = structure_for(circuit)
        version = circuit.topology_version
        before = _component_states(circuit)
        kinds = []
        for defect in enumerate_defects(circuit, kinds=ALL_KINDS):
            faulty = inject(circuit, defect)
            assert injected_names(faulty)
            kinds.append(defect.kind)
        assert set(kinds) == set(ALL_KINDS)
        assert len(kinds) > 100
        assert _component_states(circuit) == before
        assert circuit.topology_version == version
        assert structure_for(circuit) is structure


def _component_states(circuit):
    """Each component's class, name, terminals and parameters, by value
    (a waveform by its attributes), detached from the circuit."""
    return copy.deepcopy([
        (type(component), {key: vars(value) if isinstance(value, Waveform)
                           else value
                           for key, value in vars(component).items()})
        for component in circuit])
