"""Output compaction for BIST: MISR signature analysis.

The paper's BIST references ([9], [10]) pair a pseudorandom pattern
generator with response compaction.  In the detector architecture the
natural responses to compact are the monitor *flag* outputs plus any
observable logic outputs: a multiple-input signature register (MISR)
folds the whole test session into one word to compare against the
fault-free golden signature.

The MISR here is the standard type-2 (internal-XOR) register over GF(2)
with configurable feedback taps; :func:`bist_session` wires it to a
gate-level network and returns the signature of a pattern run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from .logic import LogicNetwork, Value
from .patterns import LFSR_TAPS


class Misr:
    """Multiple-input signature register (internal XOR feedback).

    ``width`` bits; feedback polynomial from :data:`LFSR_TAPS` for that
    width.  Inputs shorter than the register are zero-padded; unknown
    (None) response bits poison the signature (``valid`` goes False), as
    X states would in hardware.
    """

    def __init__(self, width: int = 16, seed: int = 0):
        if width not in LFSR_TAPS:
            raise ValueError(
                f"unsupported width {width}; choose from {sorted(LFSR_TAPS)}")
        self.width = width
        self.taps = LFSR_TAPS[width]
        self.state = seed & ((1 << width) - 1)
        self.valid = True
        self.cycles = 0

    def clock(self, bits: Sequence[Value]) -> None:
        """Shift one response word into the register."""
        if len(bits) > self.width:
            raise ValueError(
                f"{len(bits)} response bits exceed MISR width {self.width}")
        if any(b is None for b in bits):
            self.valid = False
        word = 0
        for index, bit in enumerate(bits):
            if bit:
                word |= 1 << index
        feedback = 0
        for tap in self.taps:
            feedback ^= (self.state >> (self.width - tap)) & 1
        self.state = ((self.state >> 1)
                      | (feedback << (self.width - 1))) ^ word
        self.state &= (1 << self.width) - 1
        self.cycles += 1

    @property
    def signature(self) -> int:
        return self.state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Misr width={self.width} cycles={self.cycles} "
                f"signature=0x{self.state:0{(self.width + 3) // 4}x}>")


@dataclass
class BistResult:
    """Outcome of one BIST session."""

    signature: int
    valid: bool
    cycles: int
    observed: List[str]

    def matches(self, golden: "BistResult") -> bool:
        """Signature comparison; invalid (X-poisoned) sessions never match."""
        return (self.valid and golden.valid
                and self.signature == golden.signature
                and self.cycles == golden.cycles)


def bist_session(network: LogicNetwork,
                 vectors: Iterable[Dict[str, Value]],
                 observed: Optional[Sequence[str]] = None,
                 misr_width: int = 16,
                 initial_state: Value = False) -> BistResult:
    """Run ``vectors`` through the network, compacting ``observed`` nets.

    ``observed`` defaults to the primary outputs.  Flip-flops start at
    ``initial_state`` (pass None to model an unknown power-up state —
    the signature then reports invalid unless initialization vectors
    resolve every X before observation matters, which is exactly the
    ref-[13] requirement).
    """
    if observed is None:
        observed = list(network.primary_outputs)
    if not observed:
        raise ValueError("nothing to observe: no primary outputs")
    network.reset(initial_state)
    misr = Misr(width=misr_width)
    for vector in vectors:
        values = network.step(vector)
        misr.clock([values.get(net) for net in observed])
    return BistResult(signature=misr.signature, valid=misr.valid,
                      cycles=misr.cycles, observed=list(observed))
