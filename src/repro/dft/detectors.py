"""Built-in amplitude detectors, variants 1 and 2 (paper sections 6.1-6.2).

Both detectors convert an abnormal output voltage excursion into a slow
downward drift of a monitoring net ``vout`` that a comparator can read:

* **Variant 1 (single-sided, Fig. 6)** — transistor Q4 straddles the
  differential outputs (base on ``op``, emitter on ``opb``).  Its collector
  current grows exponentially with the differential amplitude, so only an
  *excessive* swing pumps appreciable charge out of the diode(Q5)/capacitor
  (C7) load each cycle.  The paper's detection threshold (0.57 V) is the
  amplitude whose pumped charge beats the load restoration within the test
  window; here the detector transistor is drawn ``detector_area`` times the
  unit device, which sets that threshold (see EXPERIMENTS.md calibration).

* **Variant 2 (double-sided with controlled bias, Fig. 9)** — two unit
  transistors Q4/Q5 with bases on the test rail ``vtest`` and emitters on
  ``op``/``opb``.  In normal mode vtest = vgnd and the detector is inert;
  in test mode vtest is raised (3.7 V for a 900 mV VBE technology) so any
  output sinking below ``vtest - VBE`` turns the detector on.  This checks
  absolute low levels, catching smaller excursions (paper: down to 0.35 V)
  much faster.

The load network is shared code: a diode-connected transistor (or a
resistor — the paper notes a 160 kΩ resistor also works) in parallel with
a capacitor, hung from a supply net (vgnd for variant 1, vtest for the
variant-3 load of :mod:`repro.dft.comparator`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..circuit.components import Capacitor, Resistor
from ..circuit.devices import Bjt, MultiEmitterBjt
from ..circuit.netlist import Circuit
from ..cml.technology import VGND_NET, VTEST_NET, CmlTechnology, NOMINAL


@dataclass(frozen=True)
class DetectorConfig:
    """Knobs of the detector load network and device sizing."""

    #: Load style: "diode" (Q5/Q6 diode-connected transistor) or "resistor".
    load: str = "diode"
    #: Load capacitor (paper studies 10 pF and 1 pF).
    load_cap: float = 10e-12
    #: Resistor value when ``load == "resistor"`` (paper: 160 kΩ).
    load_resistance: float = 160e3
    #: Area multiple of the variant-1 detector transistor.  Larger devices
    #: lower the detectable amplitude for a given test window.
    detector_area: float = 100.0
    #: Area multiple of the variant-2 detector transistors (unit devices).
    detector_area_v2: float = 1.0
    #: Area multiple of the diode load device.
    load_area: float = 1.0


DEFAULT_CONFIG = DetectorConfig()


@dataclass
class DetectorInstance:
    """Handle to one attached detector: nets and element names."""

    name: str
    variant: int
    vout: str
    monitored: List[Tuple[str, str]]
    elements: List[str] = field(default_factory=list)


def _scaled_bjt_params(tech: CmlTechnology, area: float) -> dict:
    """BJT parameters for an ``area``-times detector device.

    Saturation current scales linearly with emitter area; the junction
    capacitances are scaled with sqrt(area), modelling a long narrow
    detector emitter whose capacitive footprint grows much slower than its
    current capability.  (Fully area-scaled capacitances would couple the
    monitored edges straight into vout and mask the rectified signal —
    see the detector-design ablation bench.)
    """
    params = tech.bjt_params()
    params["isat"] = params["isat"] * area
    params["cje"] = params["cje"] * area ** 0.5
    params["cjc"] = params["cjc"] * area ** 0.5
    return params


def add_load_network(circuit: Circuit, name: str, vout: str, supply: str,
                     tech: CmlTechnology, config: DetectorConfig,
                     extra_resistor: Optional[float] = None,
                     diode_name: str = "Q5") -> List[str]:
    """Attach the diode/resistor + capacitor load from ``supply`` to ``vout``.

    ``extra_resistor`` adds the variant-3 parallel R0.  ``diode_name``
    follows the paper's numbering (Q5 in Fig. 6, Q6 in Fig. 9, Q0 in
    Fig. 11).  Returns the names of the elements created.
    """
    elements: List[str] = []
    if config.load == "diode":
        # Diode-connected transistor: base and collector on the supply.
        diode = Bjt(f"{name}.{diode_name}", supply, supply, vout,
                    **_scaled_bjt_params(tech, config.load_area))
        circuit.add(diode)
        elements.append(diode.name)
    elif config.load == "resistor":
        resistor = Resistor(f"{name}.R5", supply, vout,
                            config.load_resistance)
        circuit.add(resistor)
        elements.append(resistor.name)
    else:
        raise ValueError(f"unknown load style {config.load!r}")
    cap = Capacitor(f"{name}.C7", vout, supply, config.load_cap)
    circuit.add(cap)
    elements.append(cap.name)
    if extra_resistor is not None:
        r0 = Resistor(f"{name}.R0", supply, vout, extra_resistor)
        circuit.add(r0)
        elements.append(r0.name)
    return elements


def attach_variant1(circuit: Circuit, op: str, opb: str, name: str = "DET",
                    tech: CmlTechnology = NOMINAL,
                    config: DetectorConfig = DEFAULT_CONFIG,
                    both_polarities: bool = False) -> DetectorInstance:
    """Attach a variant-1 (single-sided) detector to one output pair.

    ``vout`` rests at vgnd and is pulled down when ``op - opb`` exceeds the
    detectable amplitude.  With ``both_polarities`` a mirrored Q4 is added
    so excursions of either sign are caught (the paper's detector is
    single-sided; the mirrored option is an ablation).
    """
    vout = f"{name}.vout"
    elements: List[str] = []
    q4 = Bjt(f"{name}.Q4", vout, op, opb,
             **_scaled_bjt_params(tech, config.detector_area))
    circuit.add(q4)
    elements.append(q4.name)
    if both_polarities:
        q4b = Bjt(f"{name}.Q4B", vout, opb, op,
                  **_scaled_bjt_params(tech, config.detector_area))
        circuit.add(q4b)
        elements.append(q4b.name)
    elements += add_load_network(circuit, name, vout, VGND_NET, tech, config)
    return DetectorInstance(name=name, variant=1, vout=vout,
                            monitored=[(op, opb)], elements=elements)


def attach_variant2(circuit: Circuit, op: str, opb: str, name: str = "DET",
                    tech: CmlTechnology = NOMINAL,
                    config: DetectorConfig = DEFAULT_CONFIG,
                    dual_emitter: bool = False,
                    vtest_net: str = VTEST_NET,
                    load_supply: Optional[str] = None) -> DetectorInstance:
    """Attach a variant-2 (double-sided, vtest-biased) detector.

    The circuit must provide the ``vtest`` rail (see
    ``CmlTechnology.add_supplies(include_vtest=True)``); drive it with a
    PWL ramp to model test-mode entry.  With ``dual_emitter`` the two
    detector transistors merge into one dual-emitter device (Fig. 15 area
    optimization).  ``load_supply`` defaults to vgnd (plain variant 2);
    the variant-3 comparator attaches its own vtest-supplied load instead.
    """
    vout = f"{name}.vout"
    elements: List[str] = []
    params = _scaled_bjt_params(tech, config.detector_area_v2)
    if dual_emitter:
        device = MultiEmitterBjt(f"{name}.Q45", vout, vtest_net, [op, opb],
                                 **params)
        circuit.add(device)
        elements.append(device.name)
    else:
        q4 = Bjt(f"{name}.Q4", vout, vtest_net, op, **params)
        q5 = Bjt(f"{name}.Q5", vout, vtest_net, opb, **params)
        circuit.add(q4)
        circuit.add(q5)
        elements += [q4.name, q5.name]
    if load_supply is None:
        load_supply = VGND_NET
    elements += add_load_network(circuit, name, vout, load_supply, tech,
                                 config, diode_name="Q6")
    return DetectorInstance(name=name, variant=2, vout=vout,
                            monitored=[(op, opb)], elements=elements)


def attach_detector_pair_only(circuit: Circuit, op: str, opb: str,
                              vout: str, name: str,
                              tech: CmlTechnology = NOMINAL,
                              config: DetectorConfig = DEFAULT_CONFIG,
                              dual_emitter: bool = False,
                              vtest_net: str = VTEST_NET) -> List[str]:
    """Attach only the per-gate detector transistors onto an existing
    shared ``vout`` (the Fig. 13 load-sharing building block)."""
    params = _scaled_bjt_params(tech, config.detector_area_v2)
    if dual_emitter:
        device = MultiEmitterBjt(f"{name}.Q45", vout, vtest_net, [op, opb],
                                 **params)
        circuit.add(device)
        return [device.name]
    q4 = Bjt(f"{name}.Q4", vout, vtest_net, op, **params)
    q5 = Bjt(f"{name}.Q5", vout, vtest_net, opb, **params)
    circuit.add(q4)
    circuit.add(q5)
    return [q4.name, q5.name]
