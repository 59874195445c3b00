"""Low-swing interconnect links: driver/receiver cell pair.

Repeaterless low-swing interconnect (Naveen/Sharma style) is a natural
CML neighbour: a link driver with reduced collector resistors launches a
*fraction* of the nominal swing onto a long differential wire, and a
standard full-swing CML buffer at the far end regenerates the levels.
The healing effect the paper studies for gates (section 5) extends to
links — the receiver restores the logic value while the amplitude
margin on the wire quietly erodes — which is exactly the regime where
threshold-based amplitude detection needs characterization.

The wire nets follow a naming convention (``<name>.lw`` / ``<name>.lwb``)
so the fault catalog can enumerate interconnect defect sites
(:class:`repro.faults.defects.WireLeak`) without layout data:
:func:`link_wire_pairs` recovers every link wire pair from a flattened
circuit by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..circuit.components import Capacitor, Resistor
from ..circuit.devices import Bjt
from ..circuit.netlist import Circuit
from ..circuit.subcircuit import SubCircuit
from .cells import RAIL_PORTS, _add_tail, _decorate, buffer_cell
from .technology import VCS_NET, VEE_NET, VGND_NET, CmlTechnology, NOMINAL

#: Net-name suffixes of a link's differential wire pair.  The fault
#: catalog keys on these to enumerate interconnect defect sites.
LINK_WIRE_SUFFIX = ".lw"
LINK_WIRE_SUFFIX_B = ".lwb"


def low_swing_driver_cell(tech: CmlTechnology = NOMINAL,
                          swing_factor: float = 0.5) -> SubCircuit:
    """Link driver: a CML buffer launching ``swing_factor`` of the swing.

    Electrically a Fig. 1 buffer whose collector resistors are scaled by
    ``swing_factor`` — the tail current is unchanged, so the launched
    swing is ``swing_factor * tech.swing`` around the same vgnd high
    level a receiver input expects.  Ports: ``a``/``ab`` differential
    input, ``w``/``wb`` the wire outputs, plus the rails.
    """
    if not 0.0 < swing_factor <= 1.0:
        raise ValueError(
            f"swing_factor must be in (0, 1], got {swing_factor}")
    cell = SubCircuit("cml_lowswing_driver",
                      ports=["a", "ab", "w", "wb"] + RAIL_PORTS)
    circuit = cell.circuit
    reduced = swing_factor * tech.rc
    circuit.add(Resistor("R1", VGND_NET, "w", reduced))
    circuit.add(Resistor("R2", VGND_NET, "wb", reduced))
    circuit.add(Bjt("Q1", "wb", "a", "tail", **tech.bjt_params()))
    circuit.add(Bjt("Q2", "w", "ab", "tail", **tech.bjt_params()))
    _add_tail(circuit, tech, "tail")
    return _decorate(cell, "lowswing_driver", [("a", "ab")], [("w", "wb")],
                     lambda a: (a,))


def low_swing_receiver_cell(tech: CmlTechnology = NOMINAL) -> SubCircuit:
    """Link receiver: a full-swing buffer regenerating the levels.

    The differential pair's exponential steering heals a reduced input
    swing back to (nearly) the nominal output swing — the link-level
    analogue of the paper's section-5 healing effect.
    """
    cell = buffer_cell(tech)
    cell.name = "cml_lowswing_receiver"
    return _decorate(cell, "lowswing_receiver", [("a", "ab")],
                     [("op", "opb")], lambda a: (a,))


@dataclass
class LowSwingLink:
    """One attached link: driver, differential wire, receiver."""

    name: str
    swing_factor: float
    #: Differential input nets the driver taps.
    in_nets: Tuple[str, str]
    #: The low-swing wire pair (``<name>.lw`` / ``<name>.lwb``).
    wire_nets: Tuple[str, str]
    #: Regenerated full-swing output pair of the receiver.
    out_nets: Tuple[str, str]
    #: Names of every component the link added.
    elements: List[str]


def attach_low_swing_link(circuit: Circuit, net_p: str, net_n: str,
                          name: str = "LNK",
                          tech: CmlTechnology = NOMINAL,
                          swing_factor: float = 0.5,
                          wire_cap: Optional[float] = None) -> LowSwingLink:
    """Attach a driver + wire + receiver link tapping ``net_p``/``net_n``.

    The link is a pure *consumer* of the tapped pair (high-impedance
    transistor bases), so attaching one does not disturb the driving
    gate's levels beyond its wire load.  ``wire_cap`` is the lumped
    capacitance per wire rail (defaults to twice ``tech.c_wire`` — a
    link wire is long, that is the point).
    """
    wire_p = f"{name}{LINK_WIRE_SUFFIX}"
    wire_n = f"{name}{LINK_WIRE_SUFFIX_B}"
    out_p = f"{name}.op"
    out_n = f"{name}.opb"
    driver = low_swing_driver_cell(tech, swing_factor)
    receiver = low_swing_receiver_cell(tech)
    elements = [c.name for c in driver.instantiate(circuit, f"{name}.DRV", {
        "a": net_p, "ab": net_n, "w": wire_p, "wb": wire_n,
        VGND_NET: VGND_NET, VCS_NET: VCS_NET})]
    elements += [c.name for c in receiver.instantiate(
        circuit, f"{name}.RCV", {
            "a": wire_p, "ab": wire_n, "op": out_p, "opb": out_n,
            VGND_NET: VGND_NET, VCS_NET: VCS_NET})]
    cap = 2.0 * tech.c_wire if wire_cap is None else wire_cap
    if cap > 0:
        for index, wire in enumerate((wire_p, wire_n), start=1):
            name_c = f"{name}.CWL{index}"
            circuit.add(Capacitor(name_c, wire, VEE_NET, cap))
            elements.append(name_c)
    return LowSwingLink(name=name, swing_factor=swing_factor,
                        in_nets=(net_p, net_n),
                        wire_nets=(wire_p, wire_n),
                        out_nets=(out_p, out_n), elements=elements)


def link_wire_pairs(circuit: Circuit) -> List[Tuple[str, str]]:
    """Every link wire pair of a circuit, by the naming convention.

    Deterministic (sorted) so fault-site enumeration over links is
    reproducible; pairs missing their complement are skipped.
    """
    nets = set(circuit.nets())
    pairs = []
    for net in sorted(nets):
        if not net.endswith(LINK_WIRE_SUFFIX):
            continue
        other = net[:-len(LINK_WIRE_SUFFIX)] + LINK_WIRE_SUFFIX_B
        if other in nets:
            pairs.append((net, other))
    return pairs


def link_swing(solution, link: LowSwingLink,
               where: str = "wire") -> float:
    """Differential amplitude at a link's wire or output pair.

    ``where`` is ``"wire"`` (the reduced-swing segment), ``"out"`` (the
    healed receiver output) or ``"in"`` (the tapped source pair) — the
    three probes of a swing-sensitivity study.
    """
    pair = {"wire": link.wire_nets, "out": link.out_nets,
            "in": link.in_nets}.get(where)
    if pair is None:
        raise ValueError(f"where must be wire/out/in, got {where!r}")
    return abs(solution.voltage(pair[0]) - solution.voltage(pair[1]))
