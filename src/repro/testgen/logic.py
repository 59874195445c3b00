"""Gate-level 3-valued logic simulation of CML cell networks.

Section 6.6 of the paper reduces detector-based testing to a *toggle*
problem: once every gate output toggles while the detectors watch, every
single-output amplitude fault is asserted half the cycles.  This module
provides the synchronous gate-level network used to compute toggle
coverage, find sensitizing vectors and study pseudorandom initialization —
all on the very same cells as the transistor-level library
(:mod:`repro.cml.cells` attaches ``logic_eval`` metadata to each cell).

Values are three-state: ``True``, ``False`` and ``None`` (unknown / X).
Unknowns propagate pessimistically through the cell evaluators.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import (Callable, Dict, Iterable, List, Optional, Sequence, Set,
                    Tuple)

#: The 3-valued domain.
Value = Optional[bool]


def _x_safe(eval_fn: Callable[..., Tuple[bool, ...]],
            inputs: Sequence[Value]) -> Value:
    """Evaluate a boolean cell function with X-propagation.

    If any input is X, the output is X unless every completion of the X
    inputs yields the same value (e.g. ``AND(False, X) = False``).
    """
    unknown = [i for i, v in enumerate(inputs) if v is None]
    if not unknown:
        return eval_fn(*inputs)[0]
    if len(unknown) > 4:
        return None
    outcomes = set()
    for mask in range(1 << len(unknown)):
        candidate = list(inputs)
        for bit, index in enumerate(unknown):
            candidate[index] = bool((mask >> bit) & 1)
        outcomes.add(eval_fn(*candidate)[0])
        if len(outcomes) > 1:
            return None
    return outcomes.pop()


@functools.lru_cache(maxsize=None)
def _cell_logic(cell_type: str
                ) -> Tuple[int, Callable[..., Tuple[bool, ...]]]:
    """Input count and ``logic_eval`` of one cell type, read once from
    its transistor-level template (see ``CELL_BUILDERS``)."""
    from ..cml.cells import CELL_BUILDERS

    template = CELL_BUILDERS[cell_type]()
    if cell_type == "dff":
        return 1, template.logic_eval  # clock is implicit at the logic level
    return len(template.logic_inputs), template.logic_eval


@dataclass(frozen=True)
class CompiledNetwork:
    """The combinational view of a network over integer net indices.

    Gate ``p`` is ``order[p]``, the ``p``-th combinational gate in
    evaluation order, so a gate's readers always have larger positions
    than the gate: processing queued positions smallest first evaluates
    them in a valid order.  Nets are the primary inputs, then every gate
    output, then any net a gate reads that nothing drives.
    """

    nets: List[str]
    index: Dict[str, int]
    order: List["Gate"]
    #: Per gate position: its input nets and its output net.
    inputs: List[Tuple[int, ...]]
    output: List[int]
    #: Per net: positions of the combinational gates reading it,
    #: ascending and each once.
    readers: List[Tuple[int, ...]]
    #: Per net: position of its combinational driver, or -1.
    driver: List[int]


@dataclass
class Gate:
    """One gate instance in a logic network."""

    name: str
    cell_type: str
    inputs: List[str]
    output: str
    eval_fn: Callable[..., Tuple[bool, ...]]
    is_sequential: bool = False
    state: Value = None

    def combinational_value(self, values: Dict[str, Value]) -> Value:
        ins = [values.get(net) for net in self.inputs]
        return _x_safe(self.eval_fn, ins)


class LogicNetwork:
    """A synchronous network of combinational gates and D flip-flops.

    Combinational gates evaluate in topological order each cycle; ``dff``
    gates sample their data input at the end of the cycle and present it
    on their output at the start of the next one.  Feedback loops are only
    legal through flip-flops (combinational cycles raise at build time).
    """

    COMBINATIONAL = {"buffer", "inverter", "and2", "or2", "xor2", "mux2"}

    def __init__(self, name: str = ""):
        self.name = name
        self.gates: Dict[str, Gate] = {}
        #: Every gate output: :meth:`add_gate` refuses a second driver.
        self._driven: Set[str] = set()
        self.primary_inputs: List[str] = []
        self.primary_outputs: List[str] = []
        self._order: Optional[List[Gate]] = None
        self._compiled: Optional[CompiledNetwork] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_input(self, net: str) -> str:
        if net in self.primary_inputs:
            raise ValueError(f"duplicate primary input {net!r}")
        self.primary_inputs.append(net)
        self._order = None
        self._compiled = None
        return net

    def add_output(self, net: str) -> str:
        if net in self.primary_outputs:
            raise ValueError(f"duplicate primary output {net!r}")
        self.primary_outputs.append(net)
        return net

    def add_gate(self, name: str, cell_type: str, inputs: Sequence[str],
                 output: str) -> Gate:
        """Add a gate of a known CML cell type (see ``CELL_BUILDERS``)."""
        if name in self.gates:
            raise ValueError(f"duplicate gate name {name!r}")
        if cell_type not in self.COMBINATIONAL and cell_type != "dff":
            raise ValueError(f"unsupported cell type {cell_type!r}")
        if output in self._driven:
            raise ValueError(f"net {output!r} already driven")
        expected, eval_fn = _cell_logic(cell_type)
        if len(inputs) != expected:
            raise ValueError(
                f"{name}: {cell_type} takes {expected} inputs, got "
                f"{len(inputs)}")
        gate = Gate(name=name, cell_type=cell_type, inputs=list(inputs),
                    output=output, eval_fn=eval_fn,
                    is_sequential=(cell_type == "dff"))
        self.gates[name] = gate
        self._driven.add(output)
        self._order = None
        self._compiled = None
        return gate

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def signals(self) -> List[str]:
        """All nets: primary inputs plus every gate output."""
        nets = list(self.primary_inputs)
        nets += [g.output for g in self.gates.values()]
        return nets

    def combinational_order(self) -> List[Gate]:
        """Combinational gates in topological evaluation order.

        Kahn's algorithm, generation by generation: first the gates no
        combinational gate drives, then the gates all of whose drivers
        are placed, and so on.  Gates keep their order of first mention
        (as a gate, or as a driver of a later one), and a gate's readers
        follow in the order they first read it; a gate that reads one
        net twice counts once.
        """
        if self._order is not None:
            return self._order
        combinational = [g for g in self.gates.values()
                         if not g.is_sequential]
        driver = {g.output: g.name for g in combinational}
        # Gate -> its readers; gates and readers in first-mention order.
        readers: Dict[str, Dict[str, None]] = {}
        for gate in combinational:
            readers.setdefault(gate.name, {})
            for net in gate.inputs:
                if net in driver:
                    readers.setdefault(driver[net], {})[gate.name] = None
        pending = dict.fromkeys(readers, 0)  # unplaced drivers per gate
        for names in readers.values():
            for name in names:
                pending[name] += 1
        generation = [name for name, count in pending.items() if count == 0]
        order: List[str] = []
        while generation:
            order += generation
            ready = []
            for name in generation:
                for reader in readers[name]:
                    pending[reader] -= 1
                    if pending[reader] == 0:
                        ready.append(reader)
            generation = ready
        if len(order) < len(pending):
            raise ValueError(
                "combinational cycle detected; feedback must go through "
                "a dff")
        self._order = [self.gates[name] for name in order]
        return self._order

    def compiled(self) -> CompiledNetwork:
        """The network compiled to integer net indices (cached until
        the next input or gate is added)."""
        if self._compiled is not None:
            return self._compiled
        order = self.combinational_order()
        names = dict.fromkeys(self.signals())
        for gate in order:
            names.update(dict.fromkeys(gate.inputs))
        nets = list(names)
        index = {net: i for i, net in enumerate(nets)}
        inputs = [tuple(index[net] for net in gate.inputs)
                  for gate in order]
        output = [index[gate.output] for gate in order]
        readers: List[List[int]] = [[] for _ in nets]
        driver = [-1] * len(nets)
        for position, ins in enumerate(inputs):
            driver[output[position]] = position
            for net in dict.fromkeys(ins):
                readers[net].append(position)
        self._compiled = CompiledNetwork(
            nets=nets, index=index, order=order, inputs=inputs,
            output=output, readers=[tuple(r) for r in readers],
            driver=driver)
        return self._compiled

    def sequential_gates(self) -> List[Gate]:
        return [g for g in self.gates.values() if g.is_sequential]

    def validate(self) -> List[str]:
        """Topology warnings: undriven nets, unread outputs."""
        warnings = []
        driven = self._driven.union(self.primary_inputs)
        for gate in self.gates.values():
            for net in gate.inputs:
                if net not in driven:
                    warnings.append(f"{gate.name}: input {net!r} undriven")
        for net in self.primary_outputs:
            if net not in driven:
                warnings.append(f"primary output {net!r} undriven")
        self.combinational_order()  # raises on cycles
        return warnings

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def set_state(self, states: Dict[str, Value]) -> None:
        """Force flip-flop states (by gate name)."""
        for name, value in states.items():
            gate = self.gates[name]
            if not gate.is_sequential:
                raise ValueError(f"{name} is not sequential")
            gate.state = value

    def state(self) -> Dict[str, Value]:
        """Current flip-flop states."""
        return {g.name: g.state for g in self.sequential_gates()}

    def reset(self, value: Value = None) -> None:
        """Set every flip-flop to ``value`` (default: unknown)."""
        for gate in self.sequential_gates():
            gate.state = value

    def evaluate(self, inputs: Dict[str, Value],
                 forces: Optional[Dict[str, Value]] = None
                 ) -> Dict[str, Value]:
        """One combinational evaluation with current flip-flop states.

        ``forces`` pins nets to fixed values *during* evaluation (applied
        after the driving gate computes, before fanout reads) — the
        logic-level stuck-at fault model.
        """
        unknown_inputs = set(inputs) - set(self.primary_inputs)
        if unknown_inputs:
            raise KeyError(f"not primary inputs: {sorted(unknown_inputs)}")
        forces = forces or {}
        values: Dict[str, Value] = {net: None for net in self.signals()}
        values.update(inputs)
        values.update(forces)
        for gate in self.sequential_gates():
            values[gate.output] = forces.get(gate.output, gate.state)
        for gate in self.combinational_order():
            computed = gate.combinational_value(values)
            values[gate.output] = forces.get(gate.output, computed)
        return values

    def step(self, inputs: Dict[str, Value],
             forces: Optional[Dict[str, Value]] = None) -> Dict[str, Value]:
        """One synchronous cycle: evaluate, then clock the flip-flops."""
        values = self.evaluate(inputs, forces)
        for gate in self.sequential_gates():
            gate.state = values.get(gate.inputs[0])
        return values

    def run(self, vectors: Iterable[Dict[str, Value]]
            ) -> List[Dict[str, Value]]:
        """Apply a vector sequence; returns the per-cycle signal values."""
        return [self.step(vector) for vector in vectors]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<LogicNetwork {self.name!r}: {len(self.gates)} gates, "
                f"{len(self.primary_inputs)} inputs>")
