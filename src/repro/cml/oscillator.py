"""CML ring oscillator — a self-checking validation vehicle.

A ring of buffers with one crossed (inverting) connection oscillates at
``f = 1 / (2 * N * t_stage)``, so the measured period cross-checks the
same stage delay that Tables 1-2 measure with edges — two independent
measurements of one calibrated quantity.  Also the natural testbench for
"at-speed" behaviour: the ring runs at the technology's own speed rather
than at a stimulus frequency.

The balanced DC operating point of a differential ring is metastable; a
brief current kick on one node starts the oscillation, exactly like noise
would in silicon.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..circuit.components import CurrentSource
from ..circuit.netlist import Circuit
from ..circuit.sources import Pulse
from ..circuit.subcircuit import CellInstance, instantiate
from .cells import buffer_cell
from .technology import VCS_NET, VGND_NET, CmlTechnology, NOMINAL


@dataclass
class RingOscillator:
    """A composed ring with measurement metadata."""

    circuit: Circuit
    tech: CmlTechnology
    n_stages: int
    instances: List[CellInstance]
    tap: Tuple[str, str]


def ring_oscillator(tech: CmlTechnology = NOMINAL, n_stages: int = 5,
                    kick_current: float = 50e-6,
                    kick_duration: float = 100e-12) -> RingOscillator:
    """Build an ``n_stages``-buffer ring with one inverting hookup.

    ``n_stages`` may be any count >= 3 (the single crossing provides the
    odd inversion).  A current pulse on the first stage's output breaks
    the metastable balance shortly after t = 0.
    """
    if n_stages < 3:
        raise ValueError("a ring needs at least 3 stages")
    circuit = Circuit(title=f"cml-ring-{n_stages}")
    tech.add_supplies(circuit)
    template = buffer_cell(tech)

    instances = []
    for index in range(n_stages):
        previous = (index - 1) % n_stages
        in_p, in_n = f"r{previous}", f"rb{previous}"
        if index == 0:
            in_p, in_n = in_n, in_p  # the single inverting crossing
        instances.append(instantiate(circuit, template, f"S{index}", {
            "a": in_p, "ab": in_n,
            "op": f"r{index}", "opb": f"rb{index}",
            VGND_NET: VGND_NET, VCS_NET: VCS_NET,
        }))

    circuit.add(CurrentSource(
        "IKICK", "r0", "0",
        Pulse(0.0, kick_current, delay=10e-12, rise=10e-12, fall=10e-12,
              width=kick_duration, period=0.0)))
    return RingOscillator(circuit=circuit, tech=tech, n_stages=n_stages,
                          instances=instances, tap=("r0", "rb0"))


def measure_frequency(oscillator: RingOscillator, t_stop: float = 10e-9,
                      dt: float = 5e-12) -> Optional[float]:
    """Run the ring and return the oscillation frequency (None if dead).

    The frequency comes from the median period over the settled tail of
    the run, measured at the differential zero crossings of the tap.
    """
    from ..sim.transient import transient
    from ..sim.waveform import differential_crossings

    result = transient(oscillator.circuit, t_stop=t_stop, dt=dt)
    tap_p, tap_n = oscillator.tap
    crossings = differential_crossings(result.wave(tap_p),
                                       result.wave(tap_n), "rise",
                                       after=t_stop * 0.3)
    if len(crossings) < 3:
        return None
    periods = sorted(b - a for a, b in zip(crossings, crossings[1:]))
    return 1.0 / periods[len(periods) // 2]
