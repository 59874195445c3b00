"""Structural circuit copies: what a copy shares with its original.

``Circuit.copy`` (and ``SubCircuit.instantiate``) copy components with
``structural_copy``: a new instance of the same class whose mutable
attributes are its own.  Fault injection mutates the copy, so every
mutation on it must leave the original untouched, and the copy must
solve bitwise like a ``copy.deepcopy`` of the original, which these
tests keep as the reference.
"""

import copy

import numpy as np
import pytest

from repro.circuit import (
    Bjt,
    Capacitor,
    Circuit,
    CurrentSource,
    Dc,
    Diode,
    MultiEmitterBjt,
    Prbs,
    Pulse,
    Pwl,
    Resistor,
    SubCircuit,
    VoltageSource,
    Waveform,
)
from repro.cml import NOMINAL, attach_low_swing_link, buffer_chain
from repro.dft import build_shared_monitor
from repro.faults import ALL_KINDS, enumerate_defects, inject
from repro.sim import operating_point
from repro.sim.mna import structure_for


def _every_kind_circuit() -> Circuit:
    """One component of every class, driven by every waveform class."""
    circuit = Circuit("every-kind")
    circuit.add(VoltageSource("VCC", "vcc", "0", 3.3))
    circuit.add(VoltageSource("VIN", "in", "0",
                              Pulse(0.9, 1.1, delay=1e-9, period=4e-9)))
    circuit.add(VoltageSource("VP", "p", "0", Prbs(0.0, 1.0, 1e-9)))
    circuit.add(Resistor("RP", "p", "0", 1e3))
    circuit.add(Resistor("RB", "in", "b", 1e3))
    circuit.add(Resistor("RC", "vcc", "c", 2e3))
    circuit.add(MultiEmitterBjt("Q1", "c", "b", ["e1", "e2"]))
    circuit.add(Resistor("RE1", "e1", "0", 500))
    circuit.add(Resistor("RE2", "e2", "0", 500))
    circuit.add(Bjt("Q2", "vcc", "c", "e3"))
    circuit.add(Resistor("RE3", "e3", "0", 2e3))
    circuit.add(Diode("D1", "e3", "d"))
    circuit.add(Resistor("RD", "d", "0", 1e3))
    circuit.add(CurrentSource("I1", "vcc", "d",
                              Pwl([(0.0, 1e-4), (1e-9, 2e-4)])))
    circuit.add(Capacitor("C1", "c", "0", 1e-12))
    return circuit


def _component_states(circuit):
    """Each component's class, name, terminals and parameters, by value
    (a waveform by its attributes), detached from the circuit."""
    return copy.deepcopy([
        (type(component), {key: vars(value) if isinstance(value, Waveform)
                           else value
                           for key, value in vars(component).items()})
        for component in circuit])


def _catalog_bench_circuit() -> Circuit:
    """The 8-stage paper chain with a low-swing link and the shared
    monitor: the circuit of the benchmark's catalog campaign."""
    chain = buffer_chain(NOMINAL, 8, 100e6)
    attach_low_swing_link(chain.circuit, *chain.output_nets[-1],
                          swing_factor=0.5)
    build_shared_monitor(chain.circuit, chain.output_nets, tech=NOMINAL)
    return chain.circuit


def test_injected_copy_solves_bitwise_like_a_deep_copy():
    circuit = _catalog_bench_circuit()
    operating_point(circuit)  # leave limiting state for the copies to take
    first = {}
    for defect in enumerate_defects(circuit, kinds=ALL_KINDS):
        first.setdefault(defect.kind, defect)
    assert set(first) == set(ALL_KINDS)
    for defect in first.values():
        faulty = inject(circuit, defect)
        reference = copy.deepcopy(circuit)
        defect.apply(reference)
        assert faulty.nets() == reference.nets(), defect
        assert np.array_equal(operating_point(faulty).x,
                              operating_point(reference).x), defect


def test_copy_keeps_order_names_counters_and_values():
    circuit = _every_kind_circuit()
    circuit.split_terminal("RP", "n")
    circuit.injected_defects = []
    operating_point(circuit)
    clone = circuit.copy()
    assert [c.name for c in clone] == [c.name for c in circuit]
    assert clone.title == circuit.title
    assert clone.topology_version == circuit.topology_version
    assert clone._split_counter == circuit._split_counter == 1
    assert clone._solver_cache is None
    assert _component_states(clone) == _component_states(circuit)
    assert clone.injected_defects == []
    assert clone.injected_defects is not circuit.injected_defects
    for original, copied in zip(circuit, clone):
        _assert_owns_mutable_state(copied, original)


def _assert_owns_mutable_state(copied, original):
    """Same class, and no attribute but a name, number or None shared
    with the original (a waveform's own attributes included)."""
    assert type(copied) is type(original)
    for key, value in vars(original).items():
        if isinstance(value, (str, int, float, type(None))):
            continue
        assert vars(copied)[key] is not value, (original, key)
        if isinstance(value, Waveform):
            _assert_owns_mutable_state(vars(copied)[key], value)


def _rewire(clone):
    clone["RC"].rewire("n", "elsewhere")


def _split(clone):
    clone.split_terminal("Q1", "e2")


def _add(clone):
    clone.add(Resistor("RX", "c", "0", 1e3))


def _remove(clone):
    clone.remove("RE1")


def _scalar(clone):
    clone["RC"].resistance = 1.0
    clone["Q2"].isat *= 2.0


def _replace_waveform(clone):
    clone["VIN"].waveform = Dc(0.0)


def _waveform_attribute(clone):
    clone["VIN"].waveform.v2 = 2.0
    clone["I1"].waveform.points[0] = (0.0, 5e-4)


def _solve(clone):
    operating_point(clone)
    assert any(clone["Q1"]._vbe_last)


@pytest.mark.parametrize("mutate", [
    _rewire, _split, _add, _remove, _scalar, _replace_waveform,
    _waveform_attribute, _solve,
], ids=lambda mutate: mutate.__name__.strip("_"))
def test_mutating_the_copy_leaves_the_original_untouched(mutate):
    circuit = _every_kind_circuit()
    structure = structure_for(circuit)
    states = _component_states(circuit)
    version = circuit.topology_version
    mutate(circuit.copy())
    assert _component_states(circuit) == states
    assert circuit.topology_version == version
    assert circuit._split_counter == 0
    assert structure_for(circuit) is structure


def test_instances_own_their_state():
    cell = SubCircuit("stage", ports=["in", "out"])
    cell.circuit.add(VoltageSource("V", "in", "0", Pulse(0.0, 1.0)))
    cell.circuit.add(MultiEmitterBjt("Q", "out", "in", ["e1", "e2"]))
    parent = Circuit()
    cell.instantiate(parent, "X1", {"in": "a", "out": "b"})
    cell.instantiate(parent, "X2", {"in": "b", "out": "c"})
    template = cell.circuit["Q"]
    for instance in ("X1", "X2"):
        assert parent[f"{instance}.Q"]._vbe_last is not template._vbe_last
        assert parent[f"{instance}.V"].waveform is not \
            cell.circuit["V"].waveform
    parent["X1.Q"]._vbe_last[0] = 0.7
    parent["X1.V"].waveform.v2 = 2.0
    assert template._vbe_last == parent["X2.Q"]._vbe_last == [0.0, 0.0]
    assert cell.circuit["V"].waveform.v2 == parent["X2.V"].waveform.v2 == 1.0

