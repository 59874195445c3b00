"""The event-driven gate-level engines, held to full re-simulation.

PODEM keeps one five-valued value per net for a whole search and, after
each decision, flip or undo, re-evaluates only the gates the change
reaches; bit-parallel fault simulation evaluates only the gates a fault
disturbs.  Both must give exactly what a full pass gives:

* every settled PODEM state equals a full five-valued pass over the
  search's cone under the same assignment (pinned nets override, the
  fault site carries its fault value), with pinned state known and X;
* every detect mask equals a brute-force reference built from
  ``LogicNetwork.evaluate(vector, forces={net: value})``, vector by
  vector, in the dict and in the packed form;
* ``generate_tests`` keeps the vectors recorded before the engines were
  made event-driven.

A pinned net is never a decision: backtrace and propagation choose only
inputs some decision can set, so an unknown flip-flop state no longer
turns a justifiable objective into an untestability "proof".
"""

import hashlib
import json
import random

import pytest

from repro.testgen import (BENCHMARKS, LogicNetwork, PackedVectors,
                           StuckFault, enumerate_stuck_faults,
                           fault_detect_matrix, generate_tests, iscas_like,
                           random_network, sensitization_report, unroll)
from repro.testgen import dcalc
from repro.testgen.atpg import (DETECTED, PodemEngine, _Implication,
                                _state_map)
from repro.testgen.dcalc import FIVE_VALUES, X


# ----------------------------------------------------------------------
# PODEM: maintained values == a full pass, at every settle
# ----------------------------------------------------------------------
def _full_pass(network, pinned, implication):
    """Five-valued values of every net, computed from scratch."""
    view = network.compiled()
    fault = implication.fault
    values = {view.nets[net]: dcalc.from_logic(value)
              for net, value in implication.assignment.items()}
    for net, value in pinned.items():
        values[net] = dcalc.from_logic(value)
    if fault is not None and fault.net in values:
        values[fault.net] = dcalc.fault_value(fault.value,
                                              values[fault.net].good)
    for position in sorted(implication.cone):
        gate = view.order[position]
        out = dcalc.dcalc_eval(gate.eval_fn,
                               [values.get(net, X) for net in gate.inputs])
        if fault is not None and gate.output == fault.net:
            out = dcalc.fault_value(fault.value, out.good)
        values[gate.output] = out
    return {net: values.get(net, X) for net in view.nets}


@pytest.fixture
def checked(monkeypatch):
    """Check every settle of every search against :func:`_full_pass`.

    Returns a dict holding the number of settles checked and an
    ``engine`` factory, which records the nets each engine pins."""
    original = _Implication.settle
    checks = {"settles": 0}
    pinned_of = {}

    def settle(implication):
        original(implication)
        engine = implication.engine
        network = engine.network
        view = network.compiled()
        expected = _full_pass(network, pinned_of[id(engine)], implication)
        actual = {net: FIVE_VALUES[code]
                  for net, code in zip(view.nets, implication.values)}
        assert actual == expected
        checks["settles"] += 1

    def engine(network, pinned=None, **kwargs):
        made = PodemEngine(network, pinned=pinned, **kwargs)
        state = {g.output: g.state for g in network.sequential_gates()}
        state.update(pinned or {})
        pinned_of[id(made)] = state
        return made

    monkeypatch.setattr(_Implication, "settle", settle)
    checks["engine"] = engine
    return checks


def _exercise(engine, nets):
    """Detect both stuck-at faults on, and justify both values of,
    every net in ``nets``; returns the backtracks spent."""
    backtracks = 0
    for net in nets:
        for value in (False, True):
            backtracks += engine.detect(StuckFault(net, value)).backtracks
            backtracks += engine.justify(net, value).backtracks
    return backtracks


class TestImplicationMatchesFullPass:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("pinned_value", ["free", False, None])
    def test_random_networks(self, checked, seed, pinned_value):
        rng = random.Random(seed)
        network = random_network(rng, n_gates=rng.randint(12, 24),
                                 n_inputs=rng.randint(4, 7),
                                 name=f"implied{seed}")
        pinned = ({} if pinned_value == "free"
                  else {"i0": pinned_value, "i1": pinned_value})
        engine = checked["engine"](network, pinned=pinned,
                                   backtrack_limit=8)
        _exercise(engine, network.signals())
        assert checked["settles"] > 0

    @pytest.mark.parametrize("seed", (3, 4))
    @pytest.mark.parametrize("pinned_value", [True, None])
    def test_iscas_like_networks(self, checked, seed, pinned_value):
        network = iscas_like(seed, n_gates=60, n_inputs=10,
                             layer_width=8)
        engine = checked["engine"](network,
                                   pinned={"i0": pinned_value},
                                   backtrack_limit=6)
        assert _exercise(engine, network.signals()[:30]) > 0

    @pytest.mark.parametrize("name", ["decider", "gray3", "johnson4"])
    @pytest.mark.parametrize("state", [False, None])
    def test_flip_flop_state(self, checked, name, state):
        network = BENCHMARKS[name]()
        engine = checked["engine"](network,
                                   pinned=_state_map(network, state),
                                   observed=network.signals())
        _exercise(engine, network.signals())

    @pytest.mark.parametrize("name", ["decider", "gray3"])
    @pytest.mark.parametrize("state", [False, None])
    def test_unrolled_networks(self, checked, name, state):
        flat = unroll(BENCHMARKS[name](), 3, initial_state=state)
        engine = checked["engine"](flat.network, pinned=flat.pinned,
                                   observed=[])
        for net in flat.network.signals():
            for value in (False, True):
                engine.justify(net, value)
        assert checked["settles"] > 0


# ----------------------------------------------------------------------
# Pinned nets are never decisions (backtrace picks controllable inputs)
# ----------------------------------------------------------------------
class TestPinnedNetsAreNotDecisions:
    @pytest.mark.parametrize("order", [("q", "b"), ("b", "q")])
    def test_unknown_flip_flop_input_is_not_chosen(self, order):
        network = LogicNetwork("ff_and")
        network.add_input("b")
        network.add_gate("G", "and2", list(order), "m")
        network.add_gate("F", "dff", ["m"], "q")
        engine = PodemEngine(network, observed=[],
                             pinned=_state_map(network, None))
        result = engine.justify("m", False)
        assert result.status == DETECTED
        assert result.vector == {"b": False}

    @pytest.mark.parametrize("order", [("s", "a"), ("a", "s")])
    def test_unrolled_unknown_state_is_not_a_decision(self, order):
        network = LogicNetwork("or_state")
        network.add_input("a")
        network.add_gate("G", "or2", list(order), "y")
        network.add_gate("F", "dff", ["y"], "s")
        flat = unroll(network, 1, initial_state=None)
        engine = PodemEngine(flat.network, observed=[], pinned=flat.pinned)
        result = engine.justify("y@0", True)
        assert result.status == DETECTED
        assert result.vector == {"a@0": True}
        assert result.backtracks == 0

    def test_decider_output_toggles_from_unknown_state(self):
        """``d1 = OR(AND(s0, go), go)`` equals ``go`` whatever ``s0`` is,
        so it toggles from the all-X state; it used to be reported
        state-blocked."""
        network = BENCHMARKS["decider"]()
        report = sensitization_report(network, state=None)
        assert "O1" not in report.untestable
        pair = next(p for p in report.pairs if p.target == "d1")
        network.reset(None)
        assert network.evaluate(pair.vector_low)["d1"] is False
        assert network.evaluate(pair.vector_high)["d1"] is True


# ----------------------------------------------------------------------
# Bit-parallel fault simulation == brute force, dict and packed forms
# ----------------------------------------------------------------------
def _brute_force(network, vectors, faults, observed):
    masks = {}
    for fault in faults:
        mask = 0
        for j, vector in enumerate(vectors):
            good = network.evaluate(vector)
            bad = network.evaluate(vector, forces={fault.net: fault.value})
            if any(good[net] != bad[net] for net in observed):
                mask |= 1 << j
        masks[fault] = mask
    return masks


def _packed(network, vectors):
    return PackedVectors(len(vectors), {
        pi: sum(1 << j for j, vector in enumerate(vectors) if vector[pi])
        for pi in network.primary_inputs})


def _downstream(network, net):
    seen, stack = {net}, [net]
    while stack:
        current = stack.pop()
        for gate in network.gates.values():
            if current in gate.inputs and gate.output not in seen:
                seen.add(gate.output)
                stack.append(gate.output)
    return seen


def _bit_network(seed):
    rng = random.Random(100 + seed)
    return random_network(rng, n_gates=rng.randint(14, 22), n_inputs=5,
                          name=f"bits{seed}")


class TestFaultSimulationMatchesBruteForce:
    @pytest.mark.parametrize("seed", range(5))
    def test_masks(self, seed):
        network = _bit_network(seed)
        rng = random.Random(seed)
        inputs = network.primary_inputs
        # i0 held at 0 on every vector, so i0 stuck-at-0 is never
        # activated; the first four vectors repeat at the end.
        vectors = [{pi: pi != "i0" and bool(rng.getrandbits(1))
                    for pi in inputs} for _ in range(20)]
        vectors += vectors[:4]
        signals = network.signals()
        faults = enumerate_stuck_faults(network)
        internal = [net for net in signals if net not in inputs]
        # A primary input, a few internal nets, and nets no observed
        # net can see.
        partial = rng.sample(internal, 3) + [inputs[1]]
        for observed in (list(network.primary_outputs), partial, signals):
            expected = _brute_force(network, vectors, faults, observed)
            assert fault_detect_matrix(network, vectors, faults,
                                       observed) == expected
            assert fault_detect_matrix(network, _packed(network, vectors),
                                       faults, observed) == expected
            assert expected[StuckFault("i0", False)] == 0
            if observed is partial:
                assert any(not _downstream(network, f.net) & set(partial)
                           for f in faults)

    def test_sweep_includes_mux_gates(self):
        assert any(gate.cell_type == "mux2" for seed in range(5)
                   for gate in _bit_network(seed).gates.values())

    def test_partially_activated_fault(self):
        network = LogicNetwork("and")
        for pi in ("a", "b"):
            network.add_input(pi)
        network.add_gate("G", "and2", ["a", "b"], "y")
        network.add_output("y")
        vectors = [{"a": True, "b": True}, {"a": False, "b": True},
                   {"a": True, "b": True}, {"a": False, "b": False}]
        masks = fault_detect_matrix(network, vectors)
        assert masks[StuckFault("a", False)] == 0b0101
        assert masks[StuckFault("b", False)] == 0b0101
        assert masks[StuckFault("b", True)] == 0  # activated, blocked
        assert masks[StuckFault("y", False)] == 0b0101
        assert masks[StuckFault("y", True)] == 0b1010

    def test_mux_heavy_network(self):
        network = random_network(7, n_gates=30, n_inputs=6,
                                 cell_pool=("mux2", "xor2", "inverter"))
        rng = random.Random(7)
        vectors = [{pi: bool(rng.getrandbits(1))
                    for pi in network.primary_inputs} for _ in range(40)]
        faults = enumerate_stuck_faults(network)
        observed = network.signals()[::3]
        assert fault_detect_matrix(network, vectors, faults, observed) \
            == _brute_force(network, vectors, faults, observed)


class TestPackedVectors:
    def test_draw_matches_dict_draws_and_rng_state(self):
        inputs = [f"i{k}" for k in range(7)]
        packed_rng, dict_rng = random.Random(5), random.Random(5)
        packed = PackedVectors.draw(packed_rng, inputs, 37)
        dicts = [{pi: bool(dict_rng.getrandbits(1)) for pi in inputs}
                 for _ in range(37)]
        assert [packed.vector(j) for j in range(37)] == dicts
        assert [list(packed.vector(j)) for j in range(37)] == \
            [list(vector) for vector in dicts]
        assert packed_rng.getstate() == dict_rng.getstate()

    def test_empty_draw(self):
        rng = random.Random(1)
        before = rng.getstate()
        assert PackedVectors.draw(rng, ["a"], 0) == PackedVectors(0, {"a": 0})
        assert rng.getstate() == before


class TestSameErrors:
    @pytest.fixture
    def network(self):
        return BENCHMARKS["full_adder"]()

    def test_fault_site_outside_network(self, network):
        vectors = [{pi: True for pi in network.primary_inputs}]
        for form in (vectors, _packed(network, vectors)):
            with pytest.raises(KeyError, match="not in network"):
                fault_detect_matrix(network, form,
                                    [StuckFault("nowhere", True)])

    def test_non_bool_vector_entry(self, network):
        vector = {pi: True for pi in network.primary_inputs}
        vector["a"] = 1
        with pytest.raises(ValueError, match="does not assign a boolean"):
            fault_detect_matrix(network, [dict(vector)])
        del vector["a"]
        with pytest.raises(ValueError, match="does not assign a boolean"):
            fault_detect_matrix(network, [vector])

    def test_unknown_observed_net(self, network):
        vectors = [{pi: True for pi in network.primary_inputs}]
        for form in (vectors, _packed(network, vectors)):
            with pytest.raises(KeyError):
                fault_detect_matrix(network, form, observed=["nowhere"])


# ----------------------------------------------------------------------
# generate_tests keeps its recorded results
# ----------------------------------------------------------------------
#: ``generate_tests(iscas_like(2, n_gates=350, n_inputs=24), seed=s)``:
#: sha256 prefix of the sorted-key JSON of the vectors, vector count and
#: PODEM calls as recorded before the engines were event-driven, and the
#: backtracks left once the learned-literal proofs settle the 17 targets
#: that used to abort at the budget (3,594 at seed 17, 3,590 at the
#: others before).
RECORDED_RUNS = {
    17: ("22b9d484b533", 14, 26, 4),
    18: ("9676dc1ba290", 11, 25, 0),
    19: ("c077f3853249", 14, 25, 0),
    20: ("0a74b1c942df", 13, 25, 0),
}


@pytest.mark.parametrize("seed", sorted(RECORDED_RUNS))
def test_atpg_results_are_unchanged(seed):
    digest, n_vectors, podem_calls, backtracks = RECORDED_RUNS[seed]
    run = generate_tests(iscas_like(2, n_gates=350, n_inputs=24),
                         seed=seed)
    text = json.dumps(run.vectors, sort_keys=True).encode()
    assert hashlib.sha256(text).hexdigest()[:12] == digest
    assert len(run.vectors) == n_vectors
    assert run.stats.podem_calls == podem_calls
    assert run.stats.backtracks == backtracks
    assert len(run.aborted) == 0
    assert len(run.confirmed) == 716
    assert len(run.missed) == 0
    assert len(run.proven_untestable) == 32
    assert run.n_collapsed == 679
    assert run.n_faults == 748
