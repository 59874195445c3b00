"""Buffer chains and differential stimulus (the Fig. 3 test circuit).

The paper's evaluation vehicle is a chain of 8 CML buffers whose third
stage is the device under test.  :func:`buffer_chain` reproduces it with
the paper's own net names, so Table 1's columns (``op1, a, op, op3 ...
op7``) are literal net names of the composed circuit, and the DUT's
current-source transistor is the component ``"DUT.Q3"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..circuit.components import VoltageSource
from ..circuit.netlist import Circuit
from ..circuit.sources import Pulse, Sine, Waveform
from ..circuit.subcircuit import CellInstance, SubCircuit, instantiate
from .cells import buffer_cell
from .technology import VCS_NET, VGND_NET, CmlTechnology, NOMINAL

#: Instance names of the Fig. 3 chain, DUT third as in the paper.
FIG3_INSTANCES = ("X11", "X22", "DUT", "X33", "X44", "X55", "X66", "X77")

#: Output net names of the Fig. 3 chain (the paper's Table 1 columns).
FIG3_OUTPUTS = ("op1", "a", "op", "op3", "op4", "op5", "op6", "op7")


def differential_square(tech: CmlTechnology, frequency: float,
                        edge_fraction: float = 0.01) -> Tuple[Waveform, Waveform]:
    """Anti-phase square waves at the nominal CML logic levels."""
    positive = Pulse.square(tech.vlow, tech.vhigh, frequency,
                            edge_fraction=edge_fraction)
    negative = Pulse.square(tech.vhigh, tech.vlow, frequency,
                            edge_fraction=edge_fraction)
    return positive, negative


def differential_sine(tech: CmlTechnology, frequency: float) -> Tuple[Waveform, Waveform]:
    """Anti-phase sines centred on the CML mid level."""
    amplitude = 0.5 * tech.swing
    positive = Sine(tech.vmid, amplitude, frequency)
    negative = Sine(tech.vmid, -amplitude, frequency)
    return positive, negative


def differential_prbs(tech: CmlTechnology, bit_period: float,
                      order: int = 7, seed: int = 1
                      ) -> Tuple[Waveform, Waveform]:
    """Anti-phase pseudorandom bit streams at the CML logic levels.

    The section-6.6 stimulus for sequential circuits; both rails derive
    from the same LFSR so the pair stays complementary bit by bit.
    """
    from ..circuit.sources import Prbs

    positive = Prbs(tech.vlow, tech.vhigh, bit_period, order=order,
                    seed=seed)
    negative = Prbs(tech.vhigh, tech.vlow, bit_period, order=order,
                    seed=seed)
    return positive, negative


def add_differential_source(circuit: Circuit, name: str, net_p: str,
                            net_n: str, waveforms: Tuple[Waveform, Waveform]
                            ) -> None:
    """Attach a differential stimulus pair (sources ``V<name>``/``V<name>b``)."""
    wave_p, wave_n = waveforms
    circuit.add(VoltageSource(f"V{name}", net_p, "0", wave_p))
    circuit.add(VoltageSource(f"V{name}b", net_n, "0", wave_n))


@dataclass
class BufferChain:
    """A composed buffer chain plus the bookkeeping experiments need."""

    circuit: Circuit
    tech: CmlTechnology
    instances: List[CellInstance]
    input_nets: Tuple[str, str]
    output_nets: List[Tuple[str, str]]
    frequency: float

    @property
    def dut(self) -> CellInstance:
        """The device-under-test stage (third buffer in the Fig. 3 chain)."""
        for instance in self.instances:
            if instance.name == "DUT":
                return instance
        raise KeyError("chain has no stage named 'DUT'")

    def taps(self) -> List[str]:
        """Measurement nets in paper order: input then all stage outputs."""
        return [self.input_nets[0]] + [p for p, _ in self.output_nets]

    def __len__(self) -> int:
        return len(self.instances)


def buffer_chain(tech: CmlTechnology = NOMINAL, n_stages: int = 8,
                 frequency: float = 100e6,
                 stimulus: Optional[Tuple[Waveform, Waveform]] = None,
                 instance_names: Optional[Sequence[str]] = None,
                 output_names: Optional[Sequence[str]] = None,
                 cell: Optional[SubCircuit] = None) -> BufferChain:
    """Build the Fig. 3 test circuit (or a generalised chain).

    By default this is the paper's 8-buffer chain with its exact instance
    and net names; the DUT is the third stage.  ``stimulus`` defaults to
    an anti-phase square wave at ``frequency``.
    """
    if n_stages < 1:
        raise ValueError("a chain needs at least one stage")
    if instance_names is None:
        instance_names = (FIG3_INSTANCES if n_stages == 8 else
                          tuple(f"X{i + 1}" for i in range(n_stages)))
    if output_names is None:
        output_names = (FIG3_OUTPUTS if n_stages == 8 else
                        tuple(f"op{i + 1}" for i in range(n_stages)))
    if len(instance_names) != n_stages or len(output_names) != n_stages:
        raise ValueError("instance/output name lists must match n_stages")

    circuit = Circuit(title=f"cml-buffer-chain-{n_stages}")
    tech.add_supplies(circuit)
    template = cell if cell is not None else buffer_cell(tech)

    if stimulus is None:
        stimulus = differential_square(tech, frequency)
    add_differential_source(circuit, "a", "va", "vab", stimulus)

    instances: List[CellInstance] = []
    outputs: List[Tuple[str, str]] = []
    previous = ("va", "vab")
    for name, out in zip(instance_names, output_names):
        out_b = _complement_name(out)
        inst = instantiate(circuit, template, name, {
            "a": previous[0], "ab": previous[1],
            "op": out, "opb": out_b,
            VGND_NET: VGND_NET, VCS_NET: VCS_NET,
        })
        instances.append(inst)
        outputs.append((out, out_b))
        previous = (out, out_b)

    return BufferChain(circuit=circuit, tech=tech, instances=instances,
                       input_nets=("va", "vab"), output_nets=outputs,
                       frequency=frequency)


def _complement_name(net: str) -> str:
    """Paper-style complement naming: op→opb, op3→opb3, a→ab."""
    if net.startswith("op"):
        return "opb" + net[2:]
    return net + "b"
