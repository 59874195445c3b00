"""Hierarchical circuit construction with eager flattening.

A :class:`SubCircuit` is a reusable cell definition: a builder function
populates an internal :class:`~repro.circuit.netlist.Circuit` against formal
port names.  Instantiating it into a parent circuit copies every component,
prefixing names with the instance name (``"DUT.Q3"``) and remapping port
nets onto the parent's nets.  Internal nets get the same prefix.

Eager flattening keeps the simulation engine hierarchy-free and — more
importantly for this paper — makes every defect site of a composed design
addressable from the top level, which is what the fault catalog in
:mod:`repro.faults.catalog` enumerates.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from .netlist import GROUND, Circuit, Component, structural_copy

#: Nets that pass through hierarchy unprefixed (global rails).
GLOBAL_NETS = frozenset({GROUND})


class SubCircuit:
    """A reusable cell: ports plus an internal template circuit.

    Build one either by populating :attr:`circuit` directly or by passing a
    ``builder`` callable that receives the internal circuit::

        buf = SubCircuit("buffer", ports=["a", "ab", "op", "opb", "vgnd"])
        buf.circuit.add(Resistor("R1", "vgnd", "op", 500))
        ...
    """

    def __init__(self, name: str, ports: List[str],
                 builder: Optional[Callable[[Circuit], None]] = None,
                 globals_: Optional[List[str]] = None):
        if len(set(ports)) != len(ports):
            raise ValueError(f"{name}: duplicate port names")
        self.name = name
        self.ports = list(ports)
        self.globals = set(globals_ or ()) | set(GLOBAL_NETS)
        self.circuit = Circuit(title=name)
        if builder is not None:
            builder(self.circuit)

    def internal_nets(self) -> List[str]:
        """Nets of the template that are neither ports nor globals."""
        ports = set(self.ports)
        return [n for n in self.circuit.nets()
                if n not in ports and n not in self.globals]

    def instantiate(self, parent: Circuit, instance: str,
                    connections: Dict[str, str]) -> List[Component]:
        """Flatten one instance of this cell into ``parent``.

        ``connections`` maps every port to a parent net.  Returns the list
        of components added (their names are ``"<instance>.<name>"``).
        """
        missing = set(self.ports) - set(connections)
        if missing:
            raise ValueError(
                f"{self.name} instance {instance!r}: unconnected ports "
                f"{sorted(missing)}"
            )
        unknown = set(connections) - set(self.ports)
        if unknown:
            raise ValueError(
                f"{self.name} instance {instance!r}: unknown ports "
                f"{sorted(unknown)}"
            )

        def map_net(net: str) -> str:
            if net in self.globals:
                return net
            if net in connections:
                return connections[net]
            return f"{instance}.{net}"

        added = []
        for template in self.circuit:
            component = structural_copy(template)
            component.name = f"{instance}.{template.name}"
            for terminal, net in template.terminals.items():
                component.terminals[terminal] = map_net(net)
            parent.add(component)
            added.append(component)
        return added


class CellInstance:
    """Record of one instantiated cell inside a composed design.

    The CML chain and detector-insertion code keep these so experiments can
    ask "what is the output net of the third buffer" or "which transistor
    is DUT.Q3" without string arithmetic.
    """

    def __init__(self, name: str, cell: SubCircuit, connections: Dict[str, str],
                 components: List[Component]):
        self.name = name
        self.cell = cell
        self.connections = dict(connections)
        self.components = components

    def port(self, port: str) -> str:
        """Parent net attached to ``port``."""
        try:
            return self.connections[port]
        except KeyError:
            raise KeyError(
                f"{self.name}: no port {port!r} (has {sorted(self.connections)})"
            ) from None

    def component(self, local_name: str) -> Component:
        """Component of this instance by its template-local name."""
        full = f"{self.name}.{local_name}"
        for component in self.components:
            if component.name == full:
                return component
        raise KeyError(f"{self.name}: no component {local_name!r}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CellInstance {self.name} of {self.cell.name}>"


def instantiate(parent: Circuit, cell: SubCircuit, instance: str,
                connections: Dict[str, str]) -> CellInstance:
    """Convenience wrapper returning a :class:`CellInstance` record."""
    components = cell.instantiate(parent, instance, connections)
    return CellInstance(instance, cell, connections, components)
