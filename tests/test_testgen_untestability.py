"""Untestability proofs from learned literals, held to exhaustive
simulation.

Before it searches, ``PodemEngine.detect`` tries to prove a stuck-at
fault untestable from the literals it learns over the compiled network
(each net a constant, or a possibly negated named function): either the
fault is never activated, or every path from its site to an observed
net crosses a net whose faulty function equals its fault-free one.  On
seeded networks small enough to enumerate every input vector (gates
that read one net twice included):

* every learned constant is constant, and nets given one name compute
  that function or its complement;
* no assignment of the free inputs, unknown pins included, detects a
  fault the literals prove untestable, and ``detect`` reports it
  untestable with no backtrack;
* no input vector detects a target ``detect`` reports untestable;

with no pins, with known and unknown pinned inputs, and with custom
observed sets.  With an unknown pin the search's own verdicts are not
proofs (an X can hide an effect every pin value would show, and the
backtrace can pick an input only the pin could set), so there only
the literal proofs are held to the exhaustive reference.
"""

import random

import pytest

from repro.testgen import (LogicNetwork, PackedVectors, StuckFault,
                           fault_detect_matrix, iscas_like, random_network)
from repro.testgen.atpg import DETECTED, UNTESTABLE, PodemEngine

SETUPS = ("none", "pinned", "observed")


def _networks(family):
    """Ten seeded networks of at most 11 inputs."""
    for seed in range(10):
        rng = random.Random(seed)
        if family == "random":
            yield random_network(rng, n_gates=rng.randint(10, 40),
                                 n_inputs=rng.randint(3, 8),
                                 name=f"proofs{seed}")
        else:
            yield iscas_like(seed, n_gates=rng.randint(30, 90),
                             n_inputs=rng.randint(4, 11),
                             layer_width=rng.randint(4, 8))


def _setup(network, setup, pinned_values=(False, None, True)):
    """Engine keyword arguments of one setup: pins on the first inputs,
    or a seeded quarter of the signals observed."""
    if setup == "pinned":
        return {"pinned": dict(zip(network.primary_inputs, pinned_values))}
    if setup == "observed":
        signals = network.signals()
        rng = random.Random(network.name)
        return {"observed": rng.sample(signals, max(1, len(signals) // 4))}
    return {}


def _exhaustive(network, pinned):
    """Every assignment of the inputs not pinned to a known value, with
    the known pins held."""
    free = [pi for pi in network.primary_inputs
            if pinned.get(pi) is None]
    count = 1 << len(free)
    full = (1 << count) - 1
    bits = {pi: full if pinned[pi] else 0 for pi in network.primary_inputs
            if pinned.get(pi) is not None}
    for k, pi in enumerate(free):
        bits[pi] = sum(1 << j for j in range(count) if j >> k & 1)
    return PackedVectors(count, bits)


def _reads_a_net_twice(network):
    return any(len(set(gate.inputs)) < len(gate.inputs)
               for gate in network.gates.values())


def _all_faults(network):
    return [StuckFault(net, value) for net in network.signals()
            for value in (False, True)]


@pytest.mark.parametrize("family", ["random", "iscas"])
@pytest.mark.parametrize("setup", SETUPS)
def test_learned_literals_hold(family, setup):
    learned = twice = 0
    for network in _networks(family):
        twice += _reads_a_net_twice(network)
        kwargs = _setup(network, setup)
        engine = PodemEngine(network, **kwargs)
        vectors = _exhaustive(network, kwargs.get("pinned", {}))
        full = (1 << vectors.count) - 1
        signals = network.signals()
        # With every net observed, a net stuck-at-0 is detected exactly
        # by the vectors that drive it to 1: its truth table.
        truth = fault_detect_matrix(
            network, vectors, [StuckFault(net, False) for net in signals],
            observed=signals)
        view = network.compiled()
        literals = engine._fault_free_literals()
        functions = {}
        for net in signals:
            code, table = literals[view.index[net]], \
                truth[StuckFault(net, False)]
            if code < 2:
                assert table == (full if code else 0), net
                learned += net not in network.primary_inputs
            else:
                function = table ^ (full if code & 1 else 0)
                assert functions.setdefault(code >> 1, function) \
                    == function, net
    assert learned > 0
    assert twice > 0


@pytest.mark.parametrize("family", ["random", "iscas"])
@pytest.mark.parametrize("setup", SETUPS)
def test_proofs_are_detected_by_no_assignment(family, setup):
    proofs = 0
    for network in _networks(family):
        kwargs = _setup(network, setup)
        engine = PodemEngine(network, backtrack_limit=20, **kwargs)
        vectors = _exhaustive(network, kwargs.get("pinned", {}))
        faults = _all_faults(network)
        masks = fault_detect_matrix(network, vectors, faults,
                                    observed=kwargs.get("observed"))
        index = network.compiled().index
        for fault in faults:
            if not engine._proven_untestable(index[fault.net], fault.value):
                continue
            proofs += 1
            assert masks[fault] == 0, fault
            calls = engine.stats.podem_calls
            result = engine.detect(fault)
            assert result.status == UNTESTABLE
            assert result.backtracks == 0
            assert engine.stats.podem_calls == calls + 1
    assert proofs > 0


@pytest.mark.parametrize("family", ["random", "iscas"])
@pytest.mark.parametrize("setup", SETUPS)
def test_untestable_targets_are_detected_by_no_vector(family, setup):
    verdicts = 0
    for network in _networks(family):
        # Known pins only: see the module docstring.
        kwargs = _setup(network, setup, pinned_values=(False, True))
        engine = PodemEngine(network, backtrack_limit=20, **kwargs)
        vectors = _exhaustive(network, kwargs.get("pinned", {}))
        faults = _all_faults(network)
        masks = fault_detect_matrix(network, vectors, faults,
                                    observed=kwargs.get("observed"))
        for fault in faults:
            if engine.detect(fault).status == UNTESTABLE:
                verdicts += 1
                assert masks[fault] == 0, fault
    assert verdicts > 0


class TestProofs:
    """The two proofs on hand-built networks: the search alone settles
    each of these targets only after backtracking."""

    @pytest.fixture
    def network(self):
        network = LogicNetwork("redundant")
        for pi in ("a", "b", "c"):
            network.add_input(pi)
        network.add_gate("X", "xor2", ["a", "a"], "zero")    # == 0
        network.add_gate("N", "inverter", ["a"], "na")
        network.add_gate("A", "and2", ["na", "a"], "also0")  # == 0
        network.add_gate("B", "and2", ["zero", "b"], "blocked")
        network.add_gate("O", "or2", ["also0", "c"], "pass")  # == c
        network.add_gate("Y", "xor2", ["blocked", "pass"], "y")
        network.add_gate("M", "mux2", ["b", "c", "b"], "m")  # b ? c : b
        network.add_output("y")
        network.add_output("m")
        return network

    @pytest.mark.parametrize("net, value", [
        ("zero", False),     # activation: xor2(a, a) is 0
        ("also0", False),    # activation: and2(not a, a) is 0
        ("blocked", False),  # activation: and2(0, b) is 0
        ("b", True),         # observation: and2(0, b) blocks it at y
        ("na", False),       # observation: and2(0, a) is 0 as well
        ("a", True),         # observation: every reader of a is 0
    ])
    def test_settled_without_search(self, network, net, value):
        engine = PodemEngine(network, observed=["y"])
        result = engine.detect(StuckFault(net, value))
        assert result.status == UNTESTABLE
        assert result.backtracks == 0

    def test_learned_literals(self, network):
        engine = PodemEngine(network)
        view = network.compiled()
        literals = engine._fault_free_literals()
        code = {net: literals[view.index[net]] for net in view.nets}
        assert code["zero"] == code["also0"] == code["blocked"] == 0
        assert code["pass"] == code["c"] == code["y"]
        assert code["na"] == code["a"] ^ 1
        # mux2(b, c, b) is b and c: a function of its own.
        assert code["m"] not in (0, 1, code["b"], code["b"] ^ 1,
                                 code["c"], code["c"] ^ 1)

    def test_observable_fault_is_not_proven(self, network):
        """``b`` stuck-at-1 is blocked at ``y`` but seen at ``m``."""
        engine = PodemEngine(network)
        index = network.compiled().index
        assert not engine._proven_untestable(index["b"], True)
        assert engine.detect(StuckFault("b", True)).status == DETECTED

    def test_pins_are_constants_or_free(self):
        network = LogicNetwork("pins")
        for pi in ("a", "s"):
            network.add_input(pi)
        network.add_gate("A", "and2", ["a", "s"], "y")
        network.add_output("y")
        index = network.compiled().index
        held = PodemEngine(network, pinned={"s": False})
        assert held._proven_untestable(index["a"], True)   # s = 0 blocks
        assert held._proven_untestable(index["y"], False)  # y is 0
        unknown = PodemEngine(network, pinned={"s": None})
        assert not unknown._proven_untestable(index["a"], True)
        assert not unknown._proven_untestable(index["y"], False)
