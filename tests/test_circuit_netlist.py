"""Tests for the flat netlist container and topology operations."""

import copy

import pytest

from repro.circuit import (
    Bjt,
    Capacitor,
    Circuit,
    Resistor,
    SubCircuit,
    VoltageSource,
    instantiate,
)
from repro.cml import NOMINAL, buffer_chain
from repro.sim import operating_point


def simple_divider() -> Circuit:
    circuit = Circuit("divider")
    circuit.add(VoltageSource("V1", "in", "0", 10.0))
    circuit.add(Resistor("R1", "in", "mid", 1000))
    circuit.add(Resistor("R2", "mid", "0", 1000))
    return circuit


class TestCircuitContainer:
    def test_add_and_lookup(self):
        circuit = simple_divider()
        assert circuit["R1"].resistance == 1000
        assert "R2" in circuit
        assert len(circuit) == 3

    def test_duplicate_name_rejected(self):
        circuit = simple_divider()
        with pytest.raises(ValueError, match="duplicate"):
            circuit.add(Resistor("R1", "a", "b", 1))

    def test_unknown_component_keyerror(self):
        with pytest.raises(KeyError, match="R99"):
            simple_divider()["R99"]

    def test_remove(self):
        circuit = simple_divider()
        removed = circuit.remove("R2")
        assert removed.name == "R2"
        assert "R2" not in circuit

    def test_components_of_type(self):
        circuit = simple_divider()
        assert len(circuit.components_of_type(Resistor)) == 2
        assert len(circuit.components_of_type(VoltageSource)) == 1

    def test_nets_order_and_content(self):
        nets = simple_divider().nets()
        assert nets == ["in", "0", "mid"]

    def test_unknown_nets_excludes_ground(self):
        assert "0" not in simple_divider().unknown_nets()

    def test_components_on_net(self):
        attached = simple_divider().components_on_net("mid")
        names = sorted((c.name, t) for c, t in attached)
        assert names == [("R1", "n"), ("R2", "p")]


class TestTerminalOperations:
    def test_net_accessor(self):
        r = Resistor("R", "a", "b", 100)
        assert r.net("p") == "a"

    def test_unknown_terminal(self):
        r = Resistor("R", "a", "b", 100)
        with pytest.raises(KeyError, match="unknown terminal"):
            r.net("x")

    def test_rewire(self):
        r = Resistor("R", "a", "b", 100)
        r.rewire("n", "c")
        assert r.net("n") == "c"

    def test_split_terminal(self):
        circuit = simple_divider()
        old, new = circuit.split_terminal("R2", "p")
        assert old == "mid"
        assert circuit["R2"].net("p") == new
        assert circuit["R1"].net("n") == "mid"
        assert new != "mid" and new.startswith("mid")

    def test_split_terminal_unique_names(self):
        circuit = simple_divider()
        _, first = circuit.split_terminal("R1", "n")
        _, second = circuit.split_terminal("R2", "p")
        assert first != second

    def test_merge_nets(self):
        circuit = simple_divider()
        circuit.merge_nets("in", "mid")
        assert circuit["R1"].net("n") == "in"
        assert circuit["R2"].net("p") == "in"
        assert "mid" not in circuit.nets()


class TestValidation:
    def test_clean_circuit_validates(self):
        assert simple_divider().validate() == []

    def test_dangling_net_detected(self):
        circuit = simple_divider()
        circuit.add(Resistor("R3", "mid", "dangling", 1))
        warnings = circuit.validate()
        assert any("dangling" in w for w in warnings)

    def test_missing_ground_detected(self):
        circuit = Circuit()
        circuit.add(Resistor("R1", "a", "b", 1))
        assert any("ground" in w for w in circuit.validate())

    def test_copy_is_independent(self):
        circuit = simple_divider()
        clone = circuit.copy()
        clone["R1"].rewire("n", "elsewhere")
        assert circuit["R1"].net("n") == "mid"

    def test_shallow_copy_does_not_share_components(self):
        # copy.copy used to share the component dict: adding to the
        # clone added to the original without bumping its topology
        # version, so the original kept solving its stale cached
        # structure (3.05 V where the loaded circuit reads about 1 V).
        chain = buffer_chain(NOMINAL, n_stages=2)
        circuit = chain.circuit
        net = chain.output_nets[-1][0]
        before = operating_point(circuit).voltage(net)
        version = circuit.topology_version
        clone = copy.copy(circuit)
        clone.add(Resistor("RLEAK", net, "0", 10))
        assert "RLEAK" not in circuit
        assert len(clone) == len(circuit) + 1
        assert circuit.topology_version == version
        assert operating_point(circuit).voltage(net) == before
        assert operating_point(clone).voltage(net) < before - 1.0


class TestComponentValidation:
    def test_resistor_rejects_short(self):
        with pytest.raises(ValueError, match="minimum"):
            Resistor("R", "a", "b", 0)

    def test_capacitor_rejects_negative(self):
        with pytest.raises(ValueError, match="positive"):
            Capacitor("C", "a", "b", -1e-12)

    def test_resistor_parses_string_value(self):
        assert Resistor("R", "a", "b", "4k").resistance == 4000.0

    def test_bjt_rejects_bad_params(self):
        with pytest.raises(ValueError):
            Bjt("Q", "c", "b", "e", isat=-1)

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            Resistor("", "a", "b", 1)


class TestSubCircuit:
    def make_cell(self) -> SubCircuit:
        cell = SubCircuit("rc", ports=["inp", "out"])
        cell.circuit.add(Resistor("R", "inp", "out", 1000))
        cell.circuit.add(Capacitor("C", "out", "0", 1e-12))
        cell.circuit.add(Resistor("Rint", "out", "internal", 500))
        cell.circuit.add(Resistor("Rint2", "internal", "0", 500))
        return cell

    def test_instantiate_prefixes_names(self):
        parent = Circuit()
        cell = self.make_cell()
        inst = instantiate(parent, cell, "X1", {"inp": "a", "out": "b"})
        assert "X1.R" in parent
        assert parent["X1.R"].net("p") == "a"
        assert inst.port("out") == "b"

    def test_internal_nets_prefixed(self):
        parent = Circuit()
        instantiate(parent, self.make_cell(), "X1", {"inp": "a", "out": "b"})
        assert parent["X1.Rint"].net("n") == "X1.internal"

    def test_ground_is_global(self):
        parent = Circuit()
        instantiate(parent, self.make_cell(), "X1", {"inp": "a", "out": "b"})
        assert parent["X1.C"].net("n") == "0"

    def test_two_instances_independent(self):
        parent = Circuit()
        instantiate(parent, self.make_cell(), "X1", {"inp": "a", "out": "b"})
        instantiate(parent, self.make_cell(), "X2", {"inp": "b", "out": "c"})
        assert parent["X1.Rint"].net("n") != parent["X2.Rint"].net("n")
        assert len(parent) == 8

    def test_missing_port_rejected(self):
        parent = Circuit()
        with pytest.raises(ValueError, match="unconnected"):
            self.make_cell().instantiate(parent, "X1", {"inp": "a"})

    def test_unknown_port_rejected(self):
        parent = Circuit()
        with pytest.raises(ValueError, match="unknown ports"):
            self.make_cell().instantiate(
                parent, "X1", {"inp": "a", "out": "b", "bogus": "c"})

    def test_duplicate_ports_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SubCircuit("bad", ports=["a", "a"])

    def test_instance_component_accessor(self):
        parent = Circuit()
        inst = instantiate(parent, self.make_cell(), "X1",
                           {"inp": "a", "out": "b"})
        assert inst.component("R") is parent["X1.R"]
        with pytest.raises(KeyError):
            inst.component("nope")

    def test_template_not_mutated_by_instance(self):
        parent = Circuit()
        cell = self.make_cell()
        instantiate(parent, cell, "X1", {"inp": "a", "out": "b"})
        assert cell.circuit["R"].net("p") == "inp"

    def test_internal_nets_listing(self):
        assert self.make_cell().internal_nets() == ["internal"]
