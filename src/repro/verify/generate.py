"""Seeded random generation of well-formed CML fault scenarios.

A :class:`Scenario` is a complete, JSON-serializable description of one
differential-verification case: a random gate-level network (lowered to
transistors through :func:`repro.testgen.synthesize`), a randomized
technology corner, one of the paper's detector variants (or none), a DC
input vector, and a handful of defects drawn from the fault catalog.
The same scenario dict always builds the same circuit, so a fuzz
failure serialized by :mod:`repro.verify.shrink` replays bit-for-bit in
the regression corpus (``tests/corpus/``).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from ..circuit.components import VoltageSource
from ..circuit.netlist import Circuit
from ..circuit.sources import Pulse
from ..cml.interconnect import LowSwingLink, attach_low_swing_link
from ..cml.technology import CmlTechnology, NOMINAL
from ..dft.detectors import DetectorInstance, attach_variant1, attach_variant2
from ..dft.sharing import SharedMonitor, build_shared_monitor, ensure_vtest
from ..faults.catalog import enumerate_defects
from ..faults.defects import (DEFAULT_BREAKDOWN_RESISTANCES,
                              DEFAULT_WIRE_LEAK_RESISTANCE, Defect,
                              defect_from_dict, defect_to_dict)
from ..testgen.circuits import ila_and_exor, iscas_like, random_network
from ..testgen.logic import LogicNetwork
from ..testgen.synthesis import SynthesizedDesign, synthesize

#: Scenario serialization schema; bump on incompatible changes.
SCENARIO_SCHEMA = 1

#: Technology parameters the generator randomizes, with their ranges.
#: Deliberately modest: every corner in the box must still be a working
#: CML process (the generator's job is well-formed inputs; the oracles'
#: job is catching engines that disagree about them).
TECH_RANGES: Dict[str, Tuple[float, float]] = {
    "swing": (0.20, 0.30),
    "itail": (0.35e-3, 0.65e-3),
    "temperature_c": (0.0, 85.0),
    "c_wire": (30e-15, 80e-15),
}


class ScenarioError(ValueError):
    """A scenario dict that cannot be built into a circuit."""


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs of the random scenario generator."""

    min_gates: int = 1
    max_gates: int = 5
    max_inputs: int = 3
    max_defects: int = 2
    #: Network topology generator: ``"random"`` (uniform input draws,
    #: shallow), ``"iscas"`` (layered/reconvergent, the ATPG bench
    #: structure scaled down to fuzzing size) or ``"ila"``
    #: (AND-EXOR iterative array, the C-testability benchmark).
    network_style: str = "random"
    #: Detector variants to draw from: 0 = uninstrumented, 1/2 = one
    #: per-pair detector (its ``vout`` is compared across engines),
    #: 3 = the shared monitor + comparator (adds the flag oracle).
    detector_variants: Tuple[int, ...] = (0, 1, 2, 3)
    #: Defect kinds the generator samples sites from.  Includes ``open``
    #: so the batch's renumbered members (a split terminal on a fresh
    #: net) are fuzzed too.
    defect_kinds: Tuple[str, ...] = ("pipe", "terminal-short",
                                     "resistor-short", "bridge", "open")
    pipe_resistances: Tuple[float, ...] = (1e3, 2e3, 4e3, 8e3)
    #: Severity samples for ``oxide-breakdown`` sites (only drawn when
    #: the kind is in ``defect_kinds``).
    oxide_resistances: Tuple[float, ...] = DEFAULT_BREAKDOWN_RESISTANCES
    #: Leak samples for ``wire-leak`` sites (need links to exist).
    wire_leak_resistances: Tuple[float, ...] = (2e3,
                                                DEFAULT_WIRE_LEAK_RESISTANCE)
    #: Per-gate-output probability of tapping a low-swing interconnect
    #: link; 0 keeps the generator's per-seed outputs bit-identical to
    #: configs that predate links.
    link_fraction: float = 0.0
    #: Swing-reduction factors links draw from.
    link_swing_range: Tuple[float, float] = (0.45, 0.8)
    #: Fraction of scenarios that also carry a transient (waveform)
    #: cross-check, and its grid.
    transient_fraction: float = 0.25
    transient_cycles: float = 1.0
    transient_points: int = 60
    transient_frequency: float = 1e9


@dataclass(frozen=True)
class Scenario:
    """One self-contained verification case (fully serializable)."""

    name: str
    seed: int
    n_inputs: int
    #: Gate list: ``(gate_name, cell_type, (inputs...), output)``.
    gates: Tuple[Tuple[str, str, Tuple[str, ...], str], ...]
    #: Primary input name -> applied logic value.
    input_values: Tuple[Tuple[str, bool], ...]
    #: Technology overrides applied on top of NOMINAL.
    tech_overrides: Tuple[Tuple[str, float], ...] = ()
    #: 0 = none, 1/2 = single detector on ``detector_pair`` (gate
    #: index), 3 = shared monitor over every gate output.
    detector_variant: int = 0
    detector_pair: int = 0
    defects: Tuple[dict, ...] = ()
    #: Transient cross-check grid; ``None`` skips the waveform oracle.
    transient: Optional[Tuple[float, int, float]] = None
    #: Low-swing interconnect links: ``(tapped_signal, swing_factor)``
    #: per link.  Additive and default-empty, so schema 1 corpus files
    #: without the key keep replaying bit-identically.
    links: Tuple[Tuple[str, float], ...] = ()
    #: Explicit primary-input names, in declaration order.  Empty means
    #: the positional ``i0..i{n-1}`` convention (every pre-ILA
    #: scenario); ILA arrays need their structured ``y0/a{k}/b{k}``
    #: names preserved.  Additive, so the schema stays at 1.
    input_names: Tuple[str, ...] = ()

    # -- construction helpers -------------------------------------------

    def network(self) -> LogicNetwork:
        net = LogicNetwork(self.name)
        names = self.input_names or tuple(
            f"i{k}" for k in range(self.n_inputs))
        for name in names:
            net.add_input(name)
        for gate_name, cell, inputs, output in self.gates:
            net.add_gate(gate_name, cell, list(inputs), output)
        consumed = {inp for g in net.gates.values() for inp in g.inputs}
        for g in net.gates.values():
            if g.output not in consumed:
                net.add_output(g.output)
        return net

    def tech(self) -> CmlTechnology:
        return NOMINAL.scaled(**dict(self.tech_overrides))

    def defect_objects(self) -> List[Defect]:
        return [defect_from_dict(d) for d in self.defects]

    def with_(self, **changes) -> "Scenario":
        return replace(self, **changes)

    # -- serialization --------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema": SCENARIO_SCHEMA,
            "name": self.name,
            "seed": self.seed,
            "n_inputs": self.n_inputs,
            "gates": [list(g[:2]) + [list(g[2]), g[3]]
                      for g in self.gates],
            "input_values": {k: v for k, v in self.input_values},
            "tech_overrides": {k: v for k, v in self.tech_overrides},
            "detector_variant": self.detector_variant,
            "detector_pair": self.detector_pair,
            "defects": [dict(d) for d in self.defects],
            "transient": (list(self.transient)
                          if self.transient is not None else None),
            "links": [list(link) for link in self.links],
            "input_names": list(self.input_names),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        if data.get("schema") != SCENARIO_SCHEMA:
            raise ScenarioError(
                f"unsupported scenario schema {data.get('schema')!r}")
        try:
            transient = data.get("transient")
            return cls(
                name=data["name"],
                seed=int(data.get("seed", 0)),
                n_inputs=int(data["n_inputs"]),
                gates=tuple((g[0], g[1], tuple(g[2]), g[3])
                            for g in data["gates"]),
                input_values=tuple(sorted(
                    (k, bool(v))
                    for k, v in data["input_values"].items())),
                tech_overrides=tuple(sorted(
                    (k, float(v))
                    for k, v in data.get("tech_overrides", {}).items())),
                detector_variant=int(data.get("detector_variant", 0)),
                detector_pair=int(data.get("detector_pair", 0)),
                defects=tuple(dict(d) for d in data.get("defects", ())),
                transient=(None if transient is None
                           else (float(transient[0]), int(transient[1]),
                                 float(transient[2]))),
                links=tuple((str(signal), float(factor))
                            for signal, factor in data.get("links", ())),
                input_names=tuple(data.get("input_names", ())),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ScenarioError(f"malformed scenario: {error}") from None


@dataclass
class BuiltScenario:
    """A scenario lowered to a solvable transistor-level circuit."""

    scenario: Scenario
    circuit: Circuit
    design: SynthesizedDesign
    tech: CmlTechnology
    output_pairs: List[Tuple[str, str]]
    defects: List[Defect]
    monitor: Optional[SharedMonitor] = None
    detector: Optional[DetectorInstance] = None
    #: Shifter/gate instance count, for the supply-current invariant.
    n_cells: int = 0
    stimulus_nets: Tuple[str, str] = ("", "")
    #: Attached low-swing links: ``(tapped_signal, LowSwingLink)``.
    links: List[Tuple[str, LowSwingLink]] = None

    def __post_init__(self):
        if self.links is None:
            self.links = []

    @property
    def flag_nets(self) -> Optional[Tuple[str, str]]:
        if self.monitor is None:
            return None
        return (self.monitor.nets.flag, self.monitor.nets.flagb)

    def link_output_pairs(self) -> List[Tuple[str, str]]:
        """Receiver output pairs — extra logic-oracle observations."""
        return [link.out_nets for _, link in self.links]


def build_scenario(scenario: Scenario,
                   transient_stimulus: bool = False) -> BuiltScenario:
    """Lower a scenario to a driven, instrumented, solvable circuit.

    ``transient_stimulus`` replaces the first primary input's DC drive
    with a differential square wave at the scenario's transient
    frequency (the waveform-oracle bench); all other inputs stay DC.
    """
    try:
        network = scenario.network()
        tech = scenario.tech()
    except (KeyError, ValueError) as error:
        raise ScenarioError(str(error)) from None
    design = synthesize(network, tech)
    circuit = design.circuit

    values = dict(scenario.input_values)
    missing = [s for s in network.primary_inputs if s not in values]
    if missing:
        raise ScenarioError(f"inputs without values: {missing}")
    frequency = (scenario.transient[2] if scenario.transient is not None
                 else 1e9)
    stimulus_nets = ("", "")
    for index, signal in enumerate(network.primary_inputs):
        net_p, net_n = design.pair(signal)
        if transient_stimulus and index == 0:
            circuit.add(VoltageSource(
                f"V_{signal}", net_p, "0",
                Pulse.square(tech.vlow, tech.vhigh, frequency)))
            circuit.add(VoltageSource(
                f"V_{signal}b", net_n, "0",
                Pulse.square(tech.vhigh, tech.vlow, frequency)))
            stimulus_nets = (net_p, net_n)
            continue
        high = values[signal]
        circuit.add(VoltageSource(
            f"V_{signal}", net_p, "0",
            tech.vhigh if high else tech.vlow))
        circuit.add(VoltageSource(
            f"V_{signal}b", net_n, "0",
            tech.vlow if high else tech.vhigh))

    # Links attach before defect validation: their wires and devices are
    # functional fabric (legitimate defect sites), unlike detectors.
    links: List[Tuple[str, LowSwingLink]] = []
    for index, (signal, factor) in enumerate(scenario.links):
        try:
            net_p, net_n = design.pair(signal)
            link = attach_low_swing_link(circuit, net_p, net_n,
                                         name=f"LNK{index}", tech=tech,
                                         swing_factor=factor)
        except (KeyError, ValueError) as error:
            raise ScenarioError(f"bad link {signal!r}: {error}") from None
        links.append((signal, link))

    # Defect sites are validated against the *uninstrumented* design so
    # only the functional logic is attacked (same policy as the CLI
    # campaign), but they are resolved lazily by the injector, so the
    # check here is a name-presence test with a scenario-level error.
    defects = [defect_from_dict(d) for d in scenario.defects]
    names = set(c.name for c in circuit)
    nets = set(circuit.nets())
    for defect in defects:
        for site in defect_sites(defect):
            if site not in names and site not in nets:
                raise ScenarioError(
                    f"defect site {site!r} not in circuit "
                    f"({defect.describe()})")

    built = BuiltScenario(scenario=scenario, circuit=circuit,
                          design=design, tech=tech,
                          output_pairs=design.gate_output_pairs(),
                          defects=defects,
                          stimulus_nets=stimulus_nets,
                          links=links)
    # Each link adds a driver and a receiver tail to the supply current.
    built.n_cells = sum(1 for name in design.instances) + sum(
        1 for c in circuit if c.name.startswith("LS_") and
        c.name.endswith(".Q1")) + 2 * len(links)

    variant = scenario.detector_variant
    if variant not in (0, 1, 2, 3):
        raise ScenarioError(f"unknown detector variant {variant}")
    if variant in (1, 2):
        pairs = built.output_pairs
        if not pairs:
            raise ScenarioError("detector needs at least one gate output")
        op, opb = pairs[scenario.detector_pair % len(pairs)]
        if variant == 1:
            built.detector = attach_variant1(circuit, op, opb, tech=tech)
        else:
            ensure_vtest(circuit, tech)
            built.detector = attach_variant2(circuit, op, opb, tech=tech)
    elif variant == 3:
        # Link receiver outputs are monitored alongside the gate outputs
        # (full-swing nodes the shared comparator legitimately covers).
        built.monitor = build_shared_monitor(
            circuit, built.output_pairs + built.link_output_pairs(),
            tech=tech)
    return built


def defect_sites(defect: Defect) -> List[str]:
    """Component/net names a defect references (shrinker dependency)."""
    sites = []
    for attr in ("transistor", "component", "resistor", "net_a", "net_b"):
        value = getattr(defect, attr, None)
        if isinstance(value, str):
            sites.append(value)
    return sites


def save_scenario(scenario: Scenario, path) -> None:
    """Serialize a scenario to a replayable JSON file."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(scenario.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_scenario(path) -> Scenario:
    """Load a scenario written by :func:`save_scenario`."""
    with open(path, "r", encoding="utf-8") as handle:
        return Scenario.from_dict(json.load(handle))


def random_scenario(seed: int,
                    config: GeneratorConfig = GeneratorConfig()
                    ) -> Scenario:
    """Generate one well-formed scenario, deterministically from ``seed``."""
    rng = random.Random(seed)
    n_inputs = rng.randint(1, config.max_inputs)
    n_gates = rng.randint(config.min_gates, config.max_gates)
    if config.network_style == "iscas":
        network = iscas_like(rng, n_gates=n_gates,
                             n_inputs=max(2, n_inputs),
                             name=f"fuzz{seed}",
                             layer_width=max(2, n_gates // 4))
        n_inputs = len(network.primary_inputs)
    elif config.network_style == "random":
        network = random_network(rng, n_gates=n_gates, n_inputs=n_inputs,
                                 name=f"fuzz{seed}")
    elif config.network_style == "ila":
        # Two gates per array cell; the gate budget sets the depth.
        network = ila_and_exor(max(1, n_gates // 2), name=f"fuzz{seed}")
        n_inputs = len(network.primary_inputs)
    else:
        raise ValueError(
            f"unknown network_style {config.network_style!r}")
    gates = tuple((g.name, g.cell_type, tuple(g.inputs), g.output)
                  for g in network.gates.values())
    input_values = tuple(sorted(
        (signal, bool(rng.getrandbits(1)))
        for signal in network.primary_inputs))

    overrides = []
    for key, (low, high) in TECH_RANGES.items():
        if rng.random() < 0.5:
            overrides.append((key, round(rng.uniform(low, high), 9)))
    tech = NOMINAL.scaled(**dict(overrides))

    variant = rng.choice(config.detector_variants)
    detector_pair = rng.randrange(len(network.gates))

    # Link draws are gated on the knob so configs that predate links
    # consume exactly the same random stream per seed.
    links: Tuple[Tuple[str, float], ...] = ()
    if config.link_fraction > 0:
        low, high = config.link_swing_range
        links = tuple(
            (gate.output, round(rng.uniform(low, high), 6))
            for gate in network.gates.values()
            if not gate.is_sequential and rng.random() < config.link_fraction)

    # Sample defects from the real catalog of the synthesized design so
    # every site is valid by construction.  Links are attached first —
    # their wires and devices are fabric, hence sites.
    design = synthesize(network, tech)
    for index, (signal, factor) in enumerate(links):
        net_p, net_n = design.pair(signal)
        attach_low_swing_link(design.circuit, net_p, net_n,
                              name=f"LNK{index}", tech=tech,
                              swing_factor=factor)
    sites = list(enumerate_defects(
        design.circuit, kinds=config.defect_kinds,
        pipe_resistances=config.pipe_resistances,
        oxide_resistances=config.oxide_resistances,
        wire_leak_resistances=config.wire_leak_resistances))
    n_defects = rng.randint(0, min(config.max_defects, len(sites)))
    defects = tuple(defect_to_dict(d)
                    for d in rng.sample(sites, n_defects))

    transient = None
    if rng.random() < config.transient_fraction:
        transient = (config.transient_cycles, config.transient_points,
                     config.transient_frequency)

    return Scenario(name=f"fuzz{seed}", seed=seed, n_inputs=n_inputs,
                    gates=gates, input_values=input_values,
                    tech_overrides=tuple(sorted(overrides)),
                    detector_variant=variant,
                    detector_pair=detector_pair,
                    defects=defects, transient=transient,
                    links=links,
                    input_names=(tuple(network.primary_inputs)
                                 if config.network_style == "ila" else ()))
