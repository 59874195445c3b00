"""Fault-list and vector-set compaction for the ATPG layer.

Two classic size reductions:

* **equivalence collapsing** — structurally equivalent stuck-at faults
  (indistinguishable at every observed net, for every input vector) are
  grouped into classes and only one representative is targeted by the
  PODEM engine.  The rules are the textbook ones, applied only where
  they are exact: through fanout-free buffer/inverter connections and
  onto the controlled output of AND/OR gates, and never across a net
  the architecture observes directly (a detector on the net tells the
  class members apart).
* **greedy vector-set compaction** — given the detect matrix of a
  candidate vector set (:func:`repro.testgen.faultsim
  .fault_detect_matrix`), pick a small subset covering every detected
  fault (greedy set cover), preserving the detected-fault set exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set

from .faultsim import StuckFault, enumerate_stuck_faults
from .logic import LogicNetwork


@dataclass
class FaultClasses:
    """Equivalence-collapsed fault list."""

    #: One fault per class, in deterministic order.
    representatives: List[StuckFault]
    #: representative -> every member (including itself).
    classes: Dict[StuckFault, List[StuckFault]] = field(
        default_factory=dict)

    @property
    def n_faults(self) -> int:
        return sum(len(members) for members in self.classes.values())

    def class_of(self, fault: StuckFault) -> StuckFault:
        """The representative of ``fault``'s class."""
        for rep, members in self.classes.items():
            if fault in members:
                return rep
        raise KeyError(fault.describe())


def collapse_faults(network: LogicNetwork,
                    faults: Optional[Sequence[StuckFault]] = None,
                    observed: Optional[Sequence[str]] = None
                    ) -> FaultClasses:
    """Equivalence-collapse ``faults`` over ``network``.

    A gate-input fault is merged into the corresponding gate-output
    fault when (a) the input net's only fanout is this gate, (b) the
    input net is not directly observed, and (c) the gate forces its
    output for that stuck value (AND/sa0, OR/sa1, buffer/inverter for
    both polarities).  Under those conditions the two faulty machines
    are indistinguishable everywhere downstream — the classes are exact
    equivalences, which the tests verify by exhaustive simulation.
    """
    if faults is None:
        faults = enumerate_stuck_faults(network)
    observed_set: Set[str] = set(
        observed if observed is not None else network.primary_outputs)

    fanout: Dict[str, int] = {}
    for gate in network.gates.values():
        for net in gate.inputs:
            fanout[net] = fanout.get(net, 0) + 1

    #: (net, value) -> (net, value) it merges into, one gate at a time.
    merge: Dict[StuckFault, StuckFault] = {}
    for gate in network.gates.values():
        if gate.is_sequential:
            continue
        out = gate.output
        for index, net in enumerate(gate.inputs):
            if fanout.get(net, 0) != 1 or net in observed_set:
                continue
            if gate.cell_type == "buffer":
                merge[StuckFault(net, False)] = StuckFault(out, False)
                merge[StuckFault(net, True)] = StuckFault(out, True)
            elif gate.cell_type == "inverter":
                merge[StuckFault(net, False)] = StuckFault(out, True)
                merge[StuckFault(net, True)] = StuckFault(out, False)
            elif gate.cell_type == "and2":
                merge[StuckFault(net, False)] = StuckFault(out, False)
            elif gate.cell_type == "or2":
                merge[StuckFault(net, True)] = StuckFault(out, True)

    def resolve(fault: StuckFault) -> StuckFault:
        seen = {fault}
        while fault in merge:
            fault = merge[fault]
            if fault in seen:  # defensive; merges follow the DAG
                break
            seen.add(fault)
        return fault

    classes: Dict[StuckFault, List[StuckFault]] = {}
    fault_set = set(faults)
    for fault in faults:
        rep = resolve(fault)
        if rep not in fault_set:
            # The chain left the requested fault list; keep the fault
            # as its own representative rather than inventing targets.
            rep = fault
        classes.setdefault(rep, []).append(fault)
    return FaultClasses(representatives=list(classes), classes=classes)


def greedy_compact(detects: Mapping[StuckFault, int],
                   n_vectors: int) -> List[int]:
    """Greedy set cover over a detect matrix.

    ``detects`` maps each fault to a bitmask of detecting vector
    indices (bit ``i`` set = vector ``i`` detects it).  Returns sorted
    indices of a subset of vectors detecting every coverable fault —
    the detected-fault set is preserved by construction.
    """
    per_vector: Dict[int, Set[StuckFault]] = {i: set()
                                              for i in range(n_vectors)}
    uncovered: Set[StuckFault] = set()
    for fault, mask in detects.items():
        if not mask:
            continue
        uncovered.add(fault)
        index = 0
        while mask:
            if mask & 1:
                per_vector[index].add(fault)
            mask >>= 1
            index += 1

    selected: List[int] = []
    while uncovered:
        best = max(per_vector,
                   key=lambda i: (len(per_vector[i] & uncovered), -i))
        gain = per_vector[best] & uncovered
        if not gain:  # pragma: no cover - uncovered implies a gain
            break
        selected.append(best)
        uncovered -= gain
        del per_vector[best]
    return sorted(selected)
