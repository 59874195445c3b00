"""Linear components and independent sources.

Sign conventions (shared with :mod:`repro.sim.mna`):

* two-terminal elements have terminals ``"p"`` and ``"n"``; positive element
  current flows from ``p`` to ``n`` *through* the element;
* a voltage source's branch current is the current flowing from ``p``
  through the source to ``n`` (so a battery charging a load reports a
  negative branch current, as in SPICE);
* a current source pushes its value from ``p`` to ``n`` through itself,
  i.e. it pulls current out of net ``p`` and injects it into net ``n``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..units import parse_value
from .netlist import Component
from .sources import Dc, Waveform


class Resistor(Component):
    """An ideal resistor.  ``value`` accepts floats or strings like ``"4k"``."""

    #: Compiled-stamping dispatch tag: declares that this component's
    #: entire linear stamp is the standard conductance pattern between
    #: ``p`` and ``n`` with value :attr:`conductance`, letting
    #: :class:`repro.sim.mna.CompiledStamps` pre-resolve its matrix
    #: entries to integer indices.  A subclass that overrides
    #: :meth:`stamp_linear` with a different shape cannot be compiled
    #: (see :attr:`repro.circuit.netlist.Component.stamp_kind`).
    stamp_kind = "conductance"

    MIN_RESISTANCE = 1e-6

    def __init__(self, name: str, p: str, n: str, value):
        super().__init__(name, {"p": p, "n": n})
        resistance = parse_value(value)
        if resistance < self.MIN_RESISTANCE:
            raise ValueError(
                f"{name}: resistance {resistance} below minimum "
                f"{self.MIN_RESISTANCE} Ohm; use Circuit.merge_nets for a "
                "hard short"
            )
        self.resistance = resistance

    @property
    def conductance(self) -> float:
        return 1.0 / self.resistance

    def stamp_linear(self, stamper, t: float) -> None:
        stamper.conductance(self.net("p"), self.net("n"), self.conductance)

    def operating_info(self, voltages, branch_current: Optional[float]) -> Dict[str, float]:
        v = voltages(self.net("p")) - voltages(self.net("n"))
        return {"v": v, "i": v * self.conductance,
                "power": v * v * self.conductance}


class Capacitor(Component):
    """An ideal capacitor (open at DC, companion model in transient).

    ``ic`` optionally records an initial voltage used when the transient
    analysis is started with ``use_ic=True`` instead of from an operating
    point.
    """

    def __init__(self, name: str, p: str, n: str, value, ic: Optional[float] = None):
        super().__init__(name, {"p": p, "n": n})
        capacitance = parse_value(value)
        if capacitance <= 0:
            raise ValueError(f"{name}: capacitance must be positive")
        self.capacitance = capacitance
        self.ic = ic

    def dynamic_elements(self) -> List[Tuple[str, str, str, float]]:
        return [("c", self.net("p"), self.net("n"), self.capacitance)]


class VoltageSource(Component):
    """Independent voltage source driven by a :class:`Waveform`.

    A bare number is promoted to a DC waveform, so
    ``VoltageSource("vgnd", "vgnd", "0", 3.3)`` is the usual rail idiom.
    """

    #: Compiled-stamping dispatch tag (see :class:`Resistor`): the
    #: standard MNA branch pattern with the waveform value on the RHS.
    stamp_kind = "vsource"

    def __init__(self, name: str, p: str, n: str, waveform):
        super().__init__(name, {"p": p, "n": n})
        if not isinstance(waveform, Waveform):
            waveform = Dc(parse_value(waveform))
        self.waveform = waveform

    def is_branch(self) -> bool:
        return True

    def stamp_linear(self, stamper, t: float) -> None:
        value = self.waveform.dc() if t is None else self.waveform.value(t)
        stamper.voltage_source(self, self.net("p"), self.net("n"), value)

    def operating_info(self, voltages, branch_current: Optional[float]) -> Dict[str, float]:
        v = voltages(self.net("p")) - voltages(self.net("n"))
        info = {"v": v}
        if branch_current is not None:
            info["i"] = branch_current
            info["power"] = v * branch_current
        return info


class CurrentSource(Component):
    """Independent current source driven by a :class:`Waveform`."""

    #: Compiled-stamping dispatch tag (see :class:`Resistor`): RHS-only
    #: current injection between ``p`` and ``n``.
    stamp_kind = "isource"

    def __init__(self, name: str, p: str, n: str, waveform):
        super().__init__(name, {"p": p, "n": n})
        if not isinstance(waveform, Waveform):
            waveform = Dc(parse_value(waveform))
        self.waveform = waveform

    def stamp_linear(self, stamper, t: float) -> None:
        value = self.waveform.dc() if t is None else self.waveform.value(t)
        stamper.current_source(self.net("p"), self.net("n"), value)
