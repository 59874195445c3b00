"""Electrical defect models (paper section 3).

The paper models manufacturing defects at the device level, exactly as
reproduced here:

* **shorts / bridges** — "a resistor of small value (~1 Ω) can be used to
  model shorts and bridges";
* **opens** — "split a node and add a 100 MΩ resistor in parallel to a
  1 fF capacitor to link the two parts together";
* **pipes** — "usually modelled by a resistor of a few KΩ between the
  collector and emitter of a transistor" (dislocation through the base of
  a vertical NPN).

Every defect is a small declarative object with an ``apply`` method that
mutates a circuit (the injector in :mod:`repro.faults.injector` always
passes a copy).  Injected elements are named ``FAULT_*`` so experiments
can identify and strip them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, List, Optional, Tuple, Union

from ..circuit.components import Capacitor, Resistor
from ..circuit.devices import Bjt, MultiEmitterBjt
from ..circuit.netlist import Circuit, SplitTerminal

#: A DC-view endpoint: a net name, or the fresh net of a split terminal.
Endpoint = Union[str, SplitTerminal]

#: Canonical model values from section 3 of the paper.
SHORT_RESISTANCE = 1.0
OPEN_RESISTANCE = 100e6
OPEN_CAPACITANCE = 1e-15
DEFAULT_PIPE_RESISTANCE = 4e3

#: Gate-oxide breakdown severity continuum (Carter/Ozev/Sorin): a soft
#: breakdown is a barely-conducting ~10 MΩ path, a hard one ~1 kΩ.
SOFT_BREAKDOWN_RESISTANCE = 10e6
HARD_BREAKDOWN_RESISTANCE = 1e3
#: Log-spaced severities the catalog enumerates per junction by default.
DEFAULT_BREAKDOWN_RESISTANCES = (1e3, 1e5, 10e6)

#: Default severity of a differential wire leak on a low-swing link
#: (soft enough to shave swing without collapsing the logic value).
DEFAULT_WIRE_LEAK_RESISTANCE = 20e3


class Defect:
    """Base class: a physical defect mapped to a netlist transformation."""

    #: Short tag used in fault-catalog identifiers.
    kind: ClassVar[str] = "defect"

    #: Defect family, for per-family coverage breakouts: the paper's
    #: section-3 classes are ``"catalog"``; the severity-continuum
    #: gate-oxide models are ``"oxide"``; low-swing interconnect defects
    #: are ``"interconnect"``.
    family: ClassVar[str] = "catalog"

    def __post_init__(self) -> None:
        """Refuse a model value :meth:`apply` would refuse (through
        :class:`Resistor` and :class:`Capacitor`), so that every campaign
        engine, with or without injection, sees the same defects."""
        resistance = getattr(self, "resistance", None)
        if resistance is not None and resistance < Resistor.MIN_RESISTANCE:
            raise ValueError(
                f"{self.kind} resistance {resistance} below minimum "
                f"{Resistor.MIN_RESISTANCE} Ohm")
        capacitance = getattr(self, "capacitance", None)
        if capacitance is not None and capacitance <= 0:
            raise ValueError(f"{self.kind} capacitance {capacitance} must "
                             f"be positive")

    def apply(self, circuit: Circuit) -> None:
        """Mutate ``circuit`` to contain this defect."""
        raise NotImplementedError

    def delta_conductances(self, circuit: Circuit
                           ) -> Optional[List[Tuple[Endpoint, Endpoint,
                                                    float]]]:
        """DC view of this defect on ``circuit``, if one exists.

        The ``(net_p, net_n, g)`` conductances :meth:`apply` appends to
        the circuit's resistors, in the order it appends them.  A defect
        that only *adds* resistors between existing nets (pipes, shorts,
        bridges) is a rank-k update of the fault-free MNA matrix.  An
        open also moves one terminal onto a fresh net, which its view
        names as the endpoint ``SplitTerminal(component, terminal)``;
        the open model's capacitor is open at DC and not in the view.
        The campaign derives each view's compiled system from the
        fault-free compile (:meth:`repro.sim.mna.CompiledStamps.derive`)
        instead of injecting and compiling the circuit.  Defects that
        remove elements, or change the circuit some other way, return
        ``None`` and are injected and solved conventionally.
        Implementations perform the same validation as :meth:`apply` and
        raise the same errors.
        """
        return None

    def describe(self) -> str:
        """Human-readable one-liner for reports."""
        raise NotImplementedError

    @property
    def name(self) -> str:
        """Stable identifier, usable as a dict key in coverage tables."""
        return self.describe().replace(" ", "_")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.describe()}>"


def _unique_name(circuit: Circuit, stem: str) -> str:
    if stem not in circuit:
        return stem
    index = 2
    while f"{stem}_{index}" in circuit:
        index += 1
    return f"{stem}_{index}"


@dataclass(frozen=True)
class Pipe(Defect):
    """Collector-emitter pipe on a bipolar transistor.

    The paper's headline defect: an uncompensated parallel current path
    that, on a current-source transistor, raises the tail current and the
    output swing of the gate (section 5).
    """

    transistor: str
    resistance: float = DEFAULT_PIPE_RESISTANCE

    kind: ClassVar[str] = "pipe"

    def apply(self, circuit: Circuit) -> None:
        device = circuit[self.transistor]
        if not isinstance(device, (Bjt, MultiEmitterBjt)):
            raise TypeError(f"{self.transistor} is not a bipolar transistor")
        emitter = "e" if isinstance(device, Bjt) else "e1"
        circuit.add(Resistor(
            _unique_name(circuit, f"FAULT_PIPE_{self.transistor}"),
            device.net("c"), device.net(emitter), self.resistance))

    def delta_conductances(self, circuit: Circuit
                           ) -> Optional[List[Tuple[str, str, float]]]:
        device = circuit[self.transistor]
        if not isinstance(device, (Bjt, MultiEmitterBjt)):
            raise TypeError(f"{self.transistor} is not a bipolar transistor")
        emitter = "e" if isinstance(device, Bjt) else "e1"
        return [(device.net("c"), device.net(emitter),
                 1.0 / self.resistance)]

    def describe(self) -> str:
        return f"pipe {self.resistance:g}Ohm on {self.transistor} C-E"


@dataclass(frozen=True)
class TerminalShort(Defect):
    """Resistive short between two terminals of one device.

    ``TerminalShort("DUT.Q2", "c", "e")`` is the Fig. 2 stuck-at-0 defect.
    """

    component: str
    terminal_a: str
    terminal_b: str
    resistance: float = SHORT_RESISTANCE

    kind: ClassVar[str] = "terminal-short"

    def apply(self, circuit: Circuit) -> None:
        device = circuit[self.component]
        net_a = device.net(self.terminal_a)
        net_b = device.net(self.terminal_b)
        if net_a == net_b:
            raise ValueError(
                f"{self.component}: terminals {self.terminal_a}/"
                f"{self.terminal_b} share a net; short is a no-op")
        circuit.add(Resistor(
            _unique_name(circuit, f"FAULT_SHORT_{self.component}"),
            net_a, net_b, self.resistance))

    def delta_conductances(self, circuit: Circuit
                           ) -> Optional[List[Tuple[str, str, float]]]:
        device = circuit[self.component]
        net_a = device.net(self.terminal_a)
        net_b = device.net(self.terminal_b)
        if net_a == net_b:
            raise ValueError(
                f"{self.component}: terminals {self.terminal_a}/"
                f"{self.terminal_b} share a net; short is a no-op")
        return [(net_a, net_b, 1.0 / self.resistance)]

    def describe(self) -> str:
        return (f"short {self.component} {self.terminal_a}-"
                f"{self.terminal_b} ({self.resistance:g}Ohm)")


@dataclass(frozen=True)
class Bridge(Defect):
    """Resistive bridge between two signal nets (metal-layer defect)."""

    net_a: str
    net_b: str
    resistance: float = SHORT_RESISTANCE

    kind: ClassVar[str] = "bridge"

    def apply(self, circuit: Circuit) -> None:
        for net in (self.net_a, self.net_b):
            if not circuit.has_net(net):
                raise KeyError(f"bridge endpoint {net!r} not in circuit")
        if self.net_a == self.net_b:
            raise ValueError("bridge endpoints must differ")
        circuit.add(Resistor(
            _unique_name(circuit, f"FAULT_BRIDGE_{self.net_a}_{self.net_b}"),
            self.net_a, self.net_b, self.resistance))

    def delta_conductances(self, circuit: Circuit
                           ) -> Optional[List[Tuple[str, str, float]]]:
        for net in (self.net_a, self.net_b):
            if not circuit.has_net(net):
                raise KeyError(f"bridge endpoint {net!r} not in circuit")
        if self.net_a == self.net_b:
            raise ValueError("bridge endpoints must differ")
        return [(self.net_a, self.net_b, 1.0 / self.resistance)]

    def describe(self) -> str:
        return f"bridge {self.net_a}~{self.net_b} ({self.resistance:g}Ohm)"


@dataclass(frozen=True)
class TerminalOpen(Defect):
    """Open at one device terminal (severed contact / wire).

    Splits the terminal onto a fresh net and reconnects through the
    paper's 100 MΩ ∥ 1 fF open model.
    """

    component: str
    terminal: str
    resistance: float = OPEN_RESISTANCE
    capacitance: float = OPEN_CAPACITANCE

    kind: ClassVar[str] = "open"

    def apply(self, circuit: Circuit) -> None:
        old_net, new_net = circuit.split_terminal(self.component,
                                                  self.terminal)
        stem = f"FAULT_OPEN_{self.component}_{self.terminal}"
        circuit.add(Resistor(_unique_name(circuit, f"{stem}_R"),
                             old_net, new_net, self.resistance))
        circuit.add(Capacitor(_unique_name(circuit, f"{stem}_C"),
                              old_net, new_net, self.capacitance))

    def delta_conductances(self, circuit: Circuit
                           ) -> Optional[List[Tuple[Endpoint, Endpoint,
                                                    float]]]:
        old_net = circuit[self.component].net(self.terminal)
        return [(old_net, SplitTerminal(self.component, self.terminal),
                 1.0 / self.resistance)]

    def describe(self) -> str:
        return f"open at {self.component}.{self.terminal}"


@dataclass(frozen=True)
class ResistorShort(Defect):
    """Short across a resistor strip (the resistor effectively vanishes)."""

    resistor: str
    resistance: float = SHORT_RESISTANCE

    kind: ClassVar[str] = "resistor-short"

    def apply(self, circuit: Circuit) -> None:
        component = circuit[self.resistor]
        if not isinstance(component, Resistor):
            raise TypeError(f"{self.resistor} is not a resistor")
        circuit.add(Resistor(
            _unique_name(circuit, f"FAULT_RSHORT_{self.resistor}"),
            component.net("p"), component.net("n"), self.resistance))

    def delta_conductances(self, circuit: Circuit
                           ) -> Optional[List[Tuple[str, str, float]]]:
        component = circuit[self.resistor]
        if not isinstance(component, Resistor):
            raise TypeError(f"{self.resistor} is not a resistor")
        return [(component.net("p"), component.net("n"),
                 1.0 / self.resistance)]

    def describe(self) -> str:
        return f"short across {self.resistor}"


@dataclass(frozen=True)
class ResistorOpen(Defect):
    """Severed resistor strip: the element is bypassed into the open model."""

    resistor: str

    kind: ClassVar[str] = "resistor-open"

    def apply(self, circuit: Circuit) -> None:
        component = circuit[self.resistor]
        if not isinstance(component, Resistor):
            raise TypeError(f"{self.resistor} is not a resistor")
        TerminalOpen(self.resistor, "p").apply(circuit)

    def delta_conductances(self, circuit: Circuit
                           ) -> Optional[List[Tuple[Endpoint, Endpoint,
                                                    float]]]:
        component = circuit[self.resistor]
        if not isinstance(component, Resistor):
            raise TypeError(f"{self.resistor} is not a resistor")
        return TerminalOpen(self.resistor, "p").delta_conductances(circuit)

    def describe(self) -> str:
        return f"open resistor {self.resistor}"


@dataclass(frozen=True)
class OxideBreakdown(Defect):
    """Resistive gate-oxide breakdown path across one device junction.

    Carter/Ozev/Sorin model oxide breakdown as a *continuum* of resistive
    severities rather than a binary fault: a soft breakdown is a barely
    conducting ~10 MΩ path, a hard one a ~1 kΩ near-short.  On the
    bipolar CML devices here the analogous dielectric path sits across
    the base junction (base-emitter by default, base-collector as the
    second site), so severity sweeps probe exactly the regime where the
    amplitude detectors' thresholds decide detection.

    Being a pure added conductance between existing nets, it carries a
    :meth:`delta_conductances` view, so the low-rank campaign engine
    solves it without recompiling the topology.
    """

    transistor: str
    terminal_a: str = "b"
    terminal_b: str = "e"
    resistance: float = SOFT_BREAKDOWN_RESISTANCE

    kind: ClassVar[str] = "oxide-breakdown"
    family: ClassVar[str] = "oxide"

    @property
    def severity(self) -> float:
        """0 (soft, ~10 MΩ) .. 1 (hard, ~1 kΩ), log-interpolated."""
        import math
        span = math.log(SOFT_BREAKDOWN_RESISTANCE
                        / HARD_BREAKDOWN_RESISTANCE)
        raw = math.log(SOFT_BREAKDOWN_RESISTANCE
                       / max(self.resistance, 1e-12)) / span
        return min(1.0, max(0.0, raw))

    def _junction(self, circuit: Circuit) -> Tuple[str, str]:
        device = circuit[self.transistor]
        if not isinstance(device, (Bjt, MultiEmitterBjt)):
            raise TypeError(
                f"{self.transistor} is not a bipolar transistor")
        net_a = device.net(self.terminal_a)
        net_b = device.net(self.terminal_b)
        if net_a == net_b:
            raise ValueError(
                f"{self.transistor}: terminals {self.terminal_a}/"
                f"{self.terminal_b} share a net; breakdown is a no-op")
        return net_a, net_b

    def apply(self, circuit: Circuit) -> None:
        net_a, net_b = self._junction(circuit)
        circuit.add(Resistor(
            _unique_name(circuit, f"FAULT_OXBD_{self.transistor}"),
            net_a, net_b, self.resistance))

    def delta_conductances(self, circuit: Circuit
                           ) -> Optional[List[Tuple[str, str, float]]]:
        net_a, net_b = self._junction(circuit)
        return [(net_a, net_b, 1.0 / self.resistance)]

    def describe(self) -> str:
        return (f"oxide-breakdown {self.resistance:g}Ohm on "
                f"{self.transistor} {self.terminal_a}-{self.terminal_b}")


@dataclass(frozen=True)
class WireLeak(Defect):
    """Resistive leakage between interconnect wires (low-swing links).

    A partially-conducting path between the two rails of a differential
    link wire (or from a wire to any neighbouring net).  Unlike the 1 Ω
    :class:`Bridge`, the default severity only *shaves* the received
    swing — the regime where a low-swing link's receiver may still heal
    the logic value while the amplitude margin quietly erodes.
    """

    net_a: str
    net_b: str
    resistance: float = DEFAULT_WIRE_LEAK_RESISTANCE

    kind: ClassVar[str] = "wire-leak"
    family: ClassVar[str] = "interconnect"

    def _validate(self, circuit: Circuit) -> None:
        for net in (self.net_a, self.net_b):
            if not circuit.has_net(net):
                raise KeyError(f"wire-leak endpoint {net!r} not in circuit")
        if self.net_a == self.net_b:
            raise ValueError("wire-leak endpoints must differ")

    def apply(self, circuit: Circuit) -> None:
        self._validate(circuit)
        circuit.add(Resistor(
            _unique_name(circuit,
                         f"FAULT_WLEAK_{self.net_a}_{self.net_b}"),
            self.net_a, self.net_b, self.resistance))

    def delta_conductances(self, circuit: Circuit
                           ) -> Optional[List[Tuple[str, str, float]]]:
        self._validate(circuit)
        return [(self.net_a, self.net_b, 1.0 / self.resistance)]

    def describe(self) -> str:
        return (f"wire-leak {self.net_a}~{self.net_b} "
                f"({self.resistance:g}Ohm)")


#: All concrete defect classes, for catalog enumeration.
DEFECT_CLASSES: List[type] = [
    Pipe, TerminalShort, Bridge, TerminalOpen, ResistorShort, ResistorOpen,
    OxideBreakdown, WireLeak,
]

#: family tag -> defect classes, for per-family coverage breakouts.
DEFECT_FAMILIES: dict = {}
for _cls in DEFECT_CLASSES:
    DEFECT_FAMILIES.setdefault(_cls.family, []).append(_cls)

_DEFECT_BY_NAME = {cls.__name__: cls for cls in DEFECT_CLASSES}


def defect_to_dict(defect: Defect) -> dict:
    """JSON-serializable view of a defect (all concrete classes are
    frozen dataclasses of plain str/float fields)."""
    import dataclasses
    if type(defect) not in DEFECT_CLASSES:
        raise TypeError(f"not a serializable defect: {defect!r}")
    return {"class": type(defect).__name__,
            **dataclasses.asdict(defect)}


def defect_from_dict(data: dict) -> Defect:
    """Inverse of :func:`defect_to_dict` (used by the verification
    corpus to replay serialized fault scenarios)."""
    fields = dict(data)
    class_name = fields.pop("class", None)
    cls = _DEFECT_BY_NAME.get(class_name)
    if cls is None:
        raise ValueError(f"unknown defect class {class_name!r}")
    return cls(**fields)
