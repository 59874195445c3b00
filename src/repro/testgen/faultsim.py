"""Gate-level stuck-at fault simulation.

Serial fault simulation over the 3-valued logic network: every net gets
a stuck-at-0 and stuck-at-1 fault; a vector set detects a fault when any
primary output (or observed net) differs from the golden response on any
cycle.  This quantifies the *logic-test* side of the coverage story the
paper's detectors complement — the analog campaign
(:mod:`repro.faults.campaign`) plays the same role at transistor level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import repeat
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..telemetry import Telemetry, from_env
from .logic import CompiledNetwork, LogicNetwork, Value


@dataclass(frozen=True)
class StuckFault:
    """One logic-level stuck-at fault."""

    net: str
    value: bool

    def describe(self) -> str:
        return f"{self.net} stuck-at-{int(self.value)}"


def enumerate_stuck_faults(network: LogicNetwork,
                           include_inputs: bool = True) -> List[StuckFault]:
    """Both polarities on every signal (optionally excluding inputs)."""
    nets = network.signals() if include_inputs else [
        g.output for g in network.gates.values()]
    faults = []
    for net in nets:
        faults.append(StuckFault(net, False))
        faults.append(StuckFault(net, True))
    return faults


@dataclass
class FaultSimResult:
    """Detected/undetected split of a stuck-at fault simulation."""

    detected: List[StuckFault] = field(default_factory=list)
    undetected: List[StuckFault] = field(default_factory=list)
    vectors_used: int = 0

    @property
    def coverage(self) -> float:
        total = len(self.detected) + len(self.undetected)
        return len(self.detected) / total if total else 1.0

    def format(self) -> str:
        from ..analysis.reporting import format_table

        rows = [["detected", len(self.detected)],
                ["undetected", len(self.undetected)],
                ["coverage", f"{self.coverage * 100:.1f}%"],
                ["vectors", self.vectors_used]]
        return format_table(["quantity", "value"], rows,
                            title="Stuck-at fault simulation")


def _golden_responses(network: LogicNetwork,
                      vectors: Sequence[Dict[str, Value]],
                      observed: Sequence[str],
                      initial_state: Value) -> List[Tuple]:
    network.reset(initial_state)
    responses = []
    for vector in vectors:
        values = network.step(vector)
        responses.append(tuple(values.get(net) for net in observed))
    return responses


def fault_simulate(network: LogicNetwork,
                   vectors: Sequence[Dict[str, Value]],
                   faults: Optional[Sequence[StuckFault]] = None,
                   observed: Optional[Sequence[str]] = None,
                   initial_state: Value = False,
                   telemetry: Optional[Telemetry] = None) -> FaultSimResult:
    """Serial stuck-at fault simulation with early drop on detection.

    ``observed`` defaults to the primary outputs — detectors on every
    gate output correspond to observing every signal, which is how the
    paper's architecture turns internal faults into primary ones (pass
    ``observed=network.signals()`` to model that).

    ``telemetry`` (or the ``REPRO_TRACE`` environment variable) traces
    the run as a ``logic_fault_sim`` span and bumps the
    ``faultsim.detected`` / ``faultsim.undetected`` counters.
    """
    tel = telemetry if telemetry is not None else from_env()
    if tel is None:
        return _fault_simulate_impl(network, vectors, faults, observed,
                                    initial_state)
    with tel.span("logic_fault_sim", n_vectors=len(vectors)) as span:
        result = _fault_simulate_impl(network, vectors, faults, observed,
                                      initial_state)
        span.set(n_faults=len(result.detected) + len(result.undetected),
                 detected=len(result.detected),
                 undetected=len(result.undetected),
                 coverage=result.coverage)
        if result.detected:
            tel.metrics.counter("faultsim.detected").add(
                len(result.detected))
        if result.undetected:
            tel.metrics.counter("faultsim.undetected").add(
                len(result.undetected))
        return result


def _fault_simulate_impl(network: LogicNetwork,
                         vectors: Sequence[Dict[str, Value]],
                         faults: Optional[Sequence[StuckFault]],
                         observed: Optional[Sequence[str]],
                         initial_state: Value) -> FaultSimResult:
    if faults is None:
        faults = enumerate_stuck_faults(network)
    if observed is None:
        observed = list(network.primary_outputs)
    if not observed:
        raise ValueError("nothing to observe")

    golden = _golden_responses(network, vectors, observed, initial_state)

    result = FaultSimResult(vectors_used=len(vectors))
    for fault in faults:
        forces = {fault.net: fault.value}
        network.reset(initial_state)
        detected = False
        for vector, expected in zip(vectors, golden):
            values = network.step(vector, forces=forces)
            response = tuple(values.get(net) for net in observed)
            if response != expected:
                detected = True
                break
        (result.detected if detected else result.undetected).append(fault)
    return result


def observability_gain(network: LogicNetwork,
                       vectors: Sequence[Dict[str, Value]],
                       telemetry: Optional[Telemetry] = None
                       ) -> Tuple[float, float]:
    """Stuck-at coverage with output-only vs every-gate observation.

    Quantifies the paper's architectural claim: "instead of testing the
    circuits at the primary outputs, the testing is performed on all
    gate outputs through these built-in detectors".  Returns
    ``(coverage_outputs_only, coverage_all_gates)``.

    One telemetry handle is resolved here and threaded through both
    passes: the pair is a *single* logical experiment, traced as one
    ``observability_gain`` span whose ``faultsim.*`` counters are
    bumped once (from the all-gates pass, the architecture under
    study) instead of once per internal fault simulation.
    """
    tel = telemetry if telemetry is not None else from_env()
    if tel is None:
        outputs_only = _fault_simulate_impl(network, vectors, None, None,
                                            False)
        all_gates = _fault_simulate_impl(network, vectors, None,
                                         network.signals(), False)
        return outputs_only.coverage, all_gates.coverage
    with tel.span("observability_gain", n_vectors=len(vectors)) as span:
        outputs_only = _fault_simulate_impl(network, vectors, None, None,
                                            False)
        all_gates = _fault_simulate_impl(network, vectors, None,
                                         network.signals(), False)
        span.set(coverage_outputs=outputs_only.coverage,
                 coverage_all_gates=all_gates.coverage)
        if all_gates.detected:
            tel.metrics.counter("faultsim.detected").add(
                len(all_gates.detected))
        if all_gates.undetected:
            tel.metrics.counter("faultsim.undetected").add(
                len(all_gates.undetected))
        return outputs_only.coverage, all_gates.coverage


# ----------------------------------------------------------------------
# Bit-parallel fault simulation (combinational)
# ----------------------------------------------------------------------
#: Byte 0 -> ASCII "0", byte 1 -> ASCII "1": one bool per byte to the
#: digits of a base-2 literal.
_BINARY_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _pack_column(column: bytes) -> int:
    """The integer whose bit ``j`` is ``column[j]`` (each 0 or 1)."""
    return int(column[::-1].translate(_BINARY_DIGITS), 2) if column else 0


@dataclass(frozen=True)
class PackedVectors:
    """``count`` fully specified vectors, one integer per primary input:
    bit ``j`` of ``bits[pi]`` is vector ``j``'s value of ``pi``.

    The form :func:`fault_detect_matrix` simulates; passing it directly
    skips building (and re-packing) one dict per vector.
    """

    count: int
    bits: Dict[str, int]

    @classmethod
    def draw(cls, rng, inputs: Sequence[str], count: int
             ) -> "PackedVectors":
        """``count`` random vectors, drawing ``rng.getrandbits(1)`` in the
        order ``[{pi: bool(rng.getrandbits(1)) for pi in inputs} for _ in
        range(count)]`` does, so both forms hold the same vectors and
        leave ``rng`` in the same state."""
        width = len(inputs)
        draws = bytes(map(rng.getrandbits, repeat(1, count * width)))
        return cls(count, {pi: _pack_column(draws[i::width])
                           for i, pi in enumerate(inputs)})

    def vector(self, j: int) -> Dict[str, bool]:
        """Vector ``j`` as a dict, in primary-input order."""
        return {pi: bool(bits >> j & 1) for pi, bits in self.bits.items()}


def _pack(network: LogicNetwork,
          vectors: Sequence[Dict[str, bool]]) -> PackedVectors:
    bits: Dict[str, int] = {}
    for pi in network.primary_inputs:
        column = [vector.get(pi) for vector in vectors]
        for j, value in enumerate(column):
            if not isinstance(value, bool):
                raise ValueError(
                    f"vector {j} does not assign a boolean to {pi!r}")
        bits[pi] = _pack_column(bytes(column))
    return PackedVectors(len(vectors), bits)


def _bit_evaluators(view: CompiledNetwork, mask: int
                    ) -> List[Callable[[List[int]], int]]:
    """Per gate position, its output as a function of the per-net
    bit-packed values (bit j = vector j's value)."""
    evaluators: List[Callable[[List[int]], int]] = []
    for gate, ins in zip(view.order, view.inputs):
        cell = gate.cell_type
        if cell == "buffer":
            evaluator = (lambda v, a=ins[0]: v[a])
        elif cell == "inverter":
            evaluator = (lambda v, a=ins[0]: ~v[a] & mask)
        elif cell == "and2":
            evaluator = (lambda v, a=ins[0], b=ins[1]: v[a] & v[b])
        elif cell == "or2":
            evaluator = (lambda v, a=ins[0], b=ins[1]: v[a] | v[b])
        elif cell == "xor2":
            evaluator = (lambda v, a=ins[0], b=ins[1]: v[a] ^ v[b])
        elif cell == "mux2":
            evaluator = (lambda v, a=ins[0], b=ins[1], s=ins[2]:
                         (v[a] & ~v[s]) | (v[b] & v[s]))
        else:
            evaluator = (lambda v, gate=gate, ins=ins:
                         _bit_eval_generic(gate, [v[i] for i in ins], mask))
        evaluators.append(evaluator)
    return evaluators


def _bit_eval_generic(gate, ins: List[int], mask: int) -> int:
    """Any boolean cell over bit-packed vectors, one vector at a time."""
    out = 0
    bit = 0
    probe = mask
    while probe:
        args = [bool((v >> bit) & 1) for v in ins]
        if gate.eval_fn(*args)[0]:
            out |= 1 << bit
        probe >>= 1
        bit += 1
    return out


def fault_detect_matrix(network: LogicNetwork,
                        vectors: Union[Sequence[Dict[str, bool]],
                                       PackedVectors],
                        faults: Optional[Sequence[StuckFault]] = None,
                        observed: Optional[Sequence[str]] = None
                        ) -> Dict[StuckFault, int]:
    """Which vectors detect which faults, bit-parallel.

    Packs the whole vector set into one arbitrary-precision integer per
    net (bit ``j`` = vector ``j``; ``vectors`` may already be
    :class:`PackedVectors`) and simulates the fault-free network once.
    Each fault is then event-driven: a fault whose stuck value equals
    the fault-free value on every vector is never activated and costs
    nothing more; otherwise only gates with an input that differs from
    its fault-free value are evaluated, so cost scales with the gates
    each fault actually disturbs, not faults x cone size.  Returns
    ``fault -> bitmask`` of detecting vector indices (0 = undetected).

    Combinational networks with fully specified boolean vectors only —
    this is the ATPG confirmation/compaction kernel, not a replacement
    for the 3-valued :func:`fault_simulate`.
    """
    if network.sequential_gates():
        raise ValueError("bit-parallel fault simulation is combinational;"
                         " unroll sequential networks first")
    if faults is None:
        faults = enumerate_stuck_faults(network)
    if observed is None:
        observed = list(network.primary_outputs)
    observed = list(observed)
    if not observed:
        raise ValueError("nothing to observe")

    view = network.compiled()
    packed = (vectors if isinstance(vectors, PackedVectors)
              else _pack(network, vectors))
    mask = (1 << packed.count) - 1

    golden: List[Optional[int]] = [None] * len(view.nets)
    for pi in network.primary_inputs:
        if pi not in packed.bits:
            raise ValueError(f"packed vectors assign nothing to {pi!r}")
        golden[view.index[pi]] = packed.bits[pi] & mask
    output, readers = view.output, view.readers
    for ins in view.inputs:
        for net in ins:
            if golden[net] is None and view.driver[net] < 0:
                raise KeyError(view.nets[net])  # a net nothing drives
    evaluate = _bit_evaluators(view, mask)
    for position, evaluator in enumerate(evaluate):
        golden[output[position]] = evaluator(golden)

    is_observed = bytearray(len(view.nets))
    if faults:  # an unknown observed net raises once a fault needs it
        for net in observed:
            is_observed[view.index[net]] = 1
    current = list(golden)  # fault-free values, patched per fault
    results: Dict[StuckFault, int] = {}
    for fault in faults:
        site = view.index.get(fault.net)
        if site is None:
            raise KeyError(f"fault site {fault.net!r} not in network")
        stuck = mask if fault.value else 0
        if golden[site] == stuck:  # never activated
            results[fault] = 0
            continue
        current[site] = stuck
        changed = [site]
        queue = list(readers[site])  # ascending: already a heap
        queued = set(queue)
        while queue:
            position = heappop(queue)
            value = evaluate[position](current)
            out = output[position]
            if value != current[out]:
                current[out] = value
                changed.append(out)
                for reader in readers[out]:
                    if reader not in queued:
                        queued.add(reader)
                        heappush(queue, reader)
        detected = 0
        for net in changed:
            if is_observed[net]:
                detected |= current[net] ^ golden[net]
            current[net] = golden[net]
        results[fault] = detected & mask
    return results
