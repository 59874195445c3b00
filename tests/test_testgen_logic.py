"""Tests of the gate-level logic simulator and benchmark circuits."""

import itertools
import os
import subprocess
import sys

import pytest

from repro.cml.cells import CELL_BUILDERS
from repro.testgen import (
    BENCHMARKS,
    LogicNetwork,
    full_adder,
    iscas_like,
    johnson_counter,
    mux_select_tree,
    parity_tree,
    random_network,
    ripple_adder,
    sequential_decider,
    shift_register,
)
from repro.testgen.atpg import unroll
from repro.testgen.logic import Gate


def _reference_add_gate(self, name, cell_type, inputs, output):
    """``LogicNetwork.add_gate`` as a quadratic loop: scan every gate for
    a second driver and build the cell's template for its metadata."""
    if name in self.gates:
        raise ValueError(f"duplicate gate name {name!r}")
    if cell_type not in self.COMBINATIONAL and cell_type != "dff":
        raise ValueError(f"unsupported cell type {cell_type!r}")
    if any(gate.output == output for gate in self.gates.values()):
        raise ValueError(f"net {output!r} already driven")
    template = CELL_BUILDERS[cell_type]()
    expected = 1 if cell_type == "dff" else len(template.logic_inputs)
    if len(inputs) != expected:
        raise ValueError(
            f"{name}: {cell_type} takes {expected} inputs, got "
            f"{len(inputs)}")
    gate = Gate(name=name, cell_type=cell_type, inputs=list(inputs),
                output=output, eval_fn=template.logic_eval,
                is_sequential=(cell_type == "dff"))
    self.gates[name] = gate
    self._order = None
    self._compiled = None
    return gate


def _layout(network):
    """Everything a network holds, gate for gate; an evaluator is
    compared by its code (each template builds its own function)."""
    gates = [(g.name, g.cell_type, g.inputs, g.output, g.eval_fn.__code__,
              g.is_sequential, g.state) for g in network.gates.values()]
    return (network.name, network.primary_inputs, network.primary_outputs,
            gates)


#: Networks built through ``add_gate``: every benchmark, seeded random
#: and ISCAS-like networks, and unrolled sequential benchmarks.
NETWORK_BUILDERS = (
    list(BENCHMARKS.items())
    + [(f"random_{seed}", lambda seed=seed: random_network(seed, n_gates=40,
                                                         n_inputs=4))
       for seed in range(12)]
    + [(f"iscas_like_{seed}", lambda seed=seed: iscas_like(seed, n_gates=150,
                                                          n_inputs=12))
       for seed in range(3)]
    + [(f"{name}_x3", lambda name=name: unroll(BENCHMARKS[name](), 3).network)
       for name in ("shift4", "johnson4", "gray3", "decider")])


class TestNetworkConstruction:
    def test_duplicate_gate_rejected(self):
        net = LogicNetwork()
        net.add_input("a")
        net.add_gate("G", "buffer", ["a"], "x")
        with pytest.raises(ValueError, match="duplicate gate"):
            net.add_gate("G", "buffer", ["a"], "y")

    def test_double_driven_net_rejected(self):
        net = LogicNetwork()
        net.add_input("a")
        net.add_gate("G1", "buffer", ["a"], "x")
        with pytest.raises(ValueError, match="already driven"):
            net.add_gate("G2", "inverter", ["a"], "x")

    def test_bad_cell_type_rejected(self):
        net = LogicNetwork()
        net.add_input("a")
        with pytest.raises(ValueError, match="unsupported"):
            net.add_gate("G", "nand17", ["a"], "x")

    def test_arity_checked(self):
        net = LogicNetwork()
        net.add_input("a")
        with pytest.raises(ValueError, match="takes 2 inputs"):
            net.add_gate("G", "and2", ["a"], "x")

    def test_combinational_cycle_detected(self):
        net = LogicNetwork()
        net.add_input("a")
        net.add_gate("G1", "and2", ["a", "y"], "x")
        net.add_gate("G2", "or2", ["x", "a"], "y")
        with pytest.raises(ValueError, match="cycle"):
            net.combinational_order()

    def test_cycle_behind_acyclic_gates_detected(self):
        """A self-loop fed by an acyclic gate still raises."""
        net = LogicNetwork()
        net.add_input("a")
        net.add_gate("G1", "buffer", ["a"], "x")
        net.add_gate("G2", "and2", ["x", "y"], "y")
        with pytest.raises(ValueError, match="cycle"):
            net.combinational_order()

    def test_combinational_order_is_pinned(self):
        """Fan-out, reconvergence, a gate read twice by one reader and
        gates added before their drivers: the order is the one the
        previous networkx-based sort gave (first mention, then
        generation by generation)."""
        net = LogicNetwork()
        for signal in "abc":
            net.add_input(signal)
        net.add_gate("g5", "mux2", ["n3", "n4", "n2"], "n5")
        net.add_gate("g1", "buffer", ["a"], "n1")
        net.add_gate("g4", "or2", ["n2", "c"], "n4")
        net.add_gate("g3", "xor2", ["n1", "n1"], "n3")
        net.add_gate("g2", "and2", ["n1", "b"], "n2")
        net.add_gate("g6", "inverter", ["c"], "n6")
        net.add_gate("g7", "and2", ["n6", "n5"], "n7")
        assert [g.name for g in net.combinational_order()] == [
            "g1", "g6", "g3", "g2", "g4", "g5", "g7"]

    def test_program_imports_without_networkx(self):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        code = ("import sys; sys.modules['networkx'] = None; "
                "import repro.__main__")
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr

    def test_feedback_through_dff_allowed(self):
        net = shift_register(2)
        assert net.validate() == []

    @pytest.mark.parametrize("name,build", NETWORK_BUILDERS,
                             ids=[name for name, _ in NETWORK_BUILDERS])
    def test_networks_match_the_reference_builder(self, name, build,
                                                  monkeypatch):
        network = build()
        with monkeypatch.context() as patch:
            patch.setattr(LogicNetwork, "add_gate", _reference_add_gate)
            reference = build()
        assert _layout(network) == _layout(reference)
        assert ([g.name for g in network.combinational_order()]
                == [g.name for g in reference.combinational_order()])

    @pytest.mark.parametrize("call", [
        ("G1", "buffer", ["a"], "y"),        # duplicate gate name
        ("G9", "nand17", ["a"], "z"),        # unsupported cell type
        ("G9", "inverter", ["a"], "x"),      # net driven by a gate
        ("G9", "and2", ["a"], "z"),          # too few inputs
        ("G9", "mux2", ["a", "b"], "z"),
        ("G9", "dff", ["a", "b"], "z"),      # a dff's clock is implicit
        ("G9", "buffer", [], "z"),
        ("G9", "buffer", ["a"], "b"),        # a primary input: accepted
    ])
    def test_errors_match_the_reference_builder(self, call, monkeypatch):
        def outcome(add_gate):
            net = LogicNetwork()
            net.add_input("a")
            net.add_input("b")
            with monkeypatch.context() as patch:
                patch.setattr(LogicNetwork, "add_gate", add_gate)
                net.add_gate("G1", "and2", ["a", "b"], "x")
                try:
                    net.add_gate(*call)
                except ValueError as error:
                    message = str(error)
                else:
                    message = None
                # A refused gate leaves its output free.
                net.add_gate("G8", "buffer", ["a"], "z")
            return message, _layout(net)

        assert outcome(LogicNetwork.add_gate) == outcome(_reference_add_gate)

    def test_undriven_input_warned(self):
        net = LogicNetwork()
        net.add_input("a")
        net.add_gate("G", "and2", ["a", "ghost"], "x")
        assert any("ghost" in w for w in net.validate())


class TestCombinationalSimulation:
    @pytest.mark.parametrize("a,b,cin",
                             list(itertools.product([False, True], repeat=3)))
    def test_full_adder_truth_table(self, a, b, cin):
        net = full_adder()
        values = net.evaluate({"a": a, "b": b, "cin": cin})
        total = int(a) + int(b) + int(cin)
        assert values["sum"] == bool(total & 1)
        assert values["cout"] == bool(total >> 1)

    def test_ripple_adder_adds(self):
        net = ripple_adder(4)
        for a, b, cin in ((3, 5, 0), (15, 1, 0), (7, 8, 1), (0, 0, 1)):
            vector = {"cin": bool(cin)}
            for bit in range(4):
                vector[f"a{bit}"] = bool((a >> bit) & 1)
                vector[f"b{bit}"] = bool((b >> bit) & 1)
            values = net.evaluate(vector)
            total = a + b + cin
            result = sum(int(values[f"sum{bit}"]) << bit for bit in range(4))
            result += int(values["carry3"]) << 4
            assert result == total

    def test_parity_tree(self):
        net = parity_tree(8)
        for word in (0, 0b10110101, 0b11111111, 0b00000001):
            vector = {f"d{i}": bool((word >> i) & 1) for i in range(8)}
            values = net.evaluate(vector)
            assert values[net.primary_outputs[0]] == bool(
                bin(word).count("1") & 1)

    def test_mux4(self):
        net = mux_select_tree()
        data = {"d0": True, "d1": False, "d2": True, "d3": False}
        for select in range(4):
            vector = dict(data)
            vector["s0"] = bool(select & 1)
            vector["s1"] = bool(select >> 1)
            values = net.evaluate(vector)
            assert values["out"] == data[f"d{select}"]

    def test_unknown_input_rejected(self):
        net = full_adder()
        with pytest.raises(KeyError):
            net.evaluate({"a": True, "b": True, "zap": False})


class TestXPropagation:
    def test_and_false_dominates_x(self):
        net = LogicNetwork()
        net.add_input("a")
        net.add_input("b")
        net.add_gate("G", "and2", ["a", "b"], "x")
        values = net.evaluate({"a": False, "b": None})
        assert values["x"] is False

    def test_or_true_dominates_x(self):
        net = LogicNetwork()
        net.add_input("a")
        net.add_input("b")
        net.add_gate("G", "or2", ["a", "b"], "x")
        values = net.evaluate({"a": True, "b": None})
        assert values["x"] is True

    def test_xor_with_x_is_x(self):
        net = LogicNetwork()
        net.add_input("a")
        net.add_input("b")
        net.add_gate("G", "xor2", ["a", "b"], "x")
        values = net.evaluate({"a": True, "b": None})
        assert values["x"] is None

    def test_mux_with_x_select_but_equal_data(self):
        net = LogicNetwork()
        for name in ("a", "b", "s"):
            net.add_input(name)
        net.add_gate("G", "mux2", ["a", "b", "s"], "x")
        values = net.evaluate({"a": True, "b": True, "s": None})
        assert values["x"] is True

    def test_missing_inputs_default_to_x(self):
        net = full_adder()
        values = net.evaluate({"a": True})
        assert values["sum"] is None


class TestSequentialSimulation:
    def test_shift_register_delays(self):
        net = shift_register(3)
        net.reset(False)
        stream = [True, False, True, True, False, False]
        outputs = [net.step({"sin": bit})["q2"] for bit in stream]
        # Output is the input delayed by 3 cycles (initially False).
        assert outputs == [False, False, False, True, False, True]

    def test_reset_to_x(self):
        net = shift_register(2)
        net.reset(None)
        values = net.step({"sin": True})
        assert values["q1"] is None

    def test_set_state_validates(self):
        net = sequential_decider()
        with pytest.raises(ValueError, match="not sequential"):
            net.set_state({"A1": True})

    def test_johnson_counter_cycles(self):
        net = johnson_counter(3)
        net.reset(False)
        seen = set()
        for _ in range(12):
            values = net.step({"en": True})
            seen.add(tuple(values[f"q{i}"] for i in range(3)))
        # A 3-stage Johnson counter visits 6 distinct states.
        assert len(seen) == 6

    def test_state_roundtrip(self):
        net = sequential_decider()
        net.set_state({"F0": True, "F1": False})
        assert net.state() == {"F0": True, "F1": False}
