"""Circuit description substrate: netlists, components, devices, hierarchy.

Public API re-exported here; see the sibling modules for details:

* :mod:`repro.circuit.netlist` — :class:`Circuit`, :class:`Component`
* :mod:`repro.circuit.components` — R, C, V/I sources
* :mod:`repro.circuit.sources` — waveforms (DC, pulse, sine, PWL, PRBS)
* :mod:`repro.circuit.devices` — diode and bipolar transistors
* :mod:`repro.circuit.subcircuit` — hierarchical cells, eager flattening
"""

from .components import Capacitor, CurrentSource, Resistor, VoltageSource
from .devices import (
    Bjt,
    Diode,
    MultiEmitterBjt,
    THERMAL_VOLTAGE,
    critical_voltage,
    junction_current,
    pnjlim,
)
from .netlist import GROUND, Circuit, Component, SplitTerminal
from .sources import Dc, Prbs, Pulse, Pwl, Sine, Waveform
from .spice import to_spice, write_spice
from .spice_reader import SpiceParseError, from_spice, read_spice
from .subcircuit import CellInstance, SubCircuit, instantiate

__all__ = [
    "GROUND",
    "Circuit",
    "Component",
    "SplitTerminal",
    "Resistor",
    "Capacitor",
    "VoltageSource",
    "CurrentSource",
    "Waveform",
    "Dc",
    "Pulse",
    "Sine",
    "Pwl",
    "Prbs",
    "Diode",
    "Bjt",
    "MultiEmitterBjt",
    "THERMAL_VOLTAGE",
    "junction_current",
    "critical_voltage",
    "pnjlim",
    "to_spice",
    "write_spice",
    "from_spice",
    "read_spice",
    "SpiceParseError",
    "SubCircuit",
    "CellInstance",
    "instantiate",
]
