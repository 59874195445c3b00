"""Operating-point reports and waveform data export.

:func:`op_report` renders the classic SPICE ``.op`` printout — every
device's bias point with an operating-region classification — which is
how the calibration numbers in EXPERIMENTS.md were read out.
:func:`save_waveforms_csv` / :func:`load_waveforms_csv` persist transient
traces for external plotting.
"""

from __future__ import annotations

import csv
from typing import Dict, List, Sequence

from ..circuit.components import Resistor, VoltageSource
from ..circuit.devices import Bjt, Diode
from ..circuit.netlist import Circuit
from ..telemetry import NEWTON_COUNTERS, MetricsRegistry, record_newton_stats
from .dc import DcSolution
from .transient import TransientResult
from .waveform import Waveform

#: Counters printed even when zero.  Everything else in
#: :data:`~repro.telemetry.NEWTON_COUNTERS` only appears when it
#: actually fired.
_ALWAYS_SHOWN = frozenset({"newton.iterations", "newton.factorizations"})


def bjt_region(info: Dict[str, float]) -> str:
    """Classify a BJT bias point from its junction voltages."""
    vbe, vbc = info["vbe"], info["vbc"]
    forward_be = vbe > 0.5
    forward_bc = vbc > 0.4
    if forward_be and not forward_bc:
        return "active"
    if forward_be and forward_bc:
        return "saturation"
    if not forward_be and forward_bc:
        return "reverse"
    return "cutoff"


def op_report(circuit: Circuit, solution: DcSolution,
              include_passives: bool = False) -> str:
    """A SPICE-style ``.op`` table of device bias points."""
    from ..analysis.reporting import format_table

    sections: List[str] = []

    bjt_rows = []
    for device in circuit.components_of_type(Bjt):
        info = solution.operating_info(device.name)
        bjt_rows.append([
            device.name, f"{info['vbe'] * 1e3:.1f}",
            f"{info['vce'] * 1e3:.0f}", f"{info['ic'] * 1e6:.2f}",
            f"{info['ib'] * 1e9:.1f}", bjt_region(info),
        ])
    if bjt_rows:
        sections.append(format_table(
            ["transistor", "VBE (mV)", "VCE (mV)", "IC (uA)", "IB (nA)",
             "region"], bjt_rows, title="Bipolar operating points"))

    diode_rows = []
    for device in circuit.components_of_type(Diode):
        info = solution.operating_info(device.name)
        diode_rows.append([device.name, f"{info['v'] * 1e3:.1f}",
                           f"{info['i'] * 1e6:.3f}"])
    if diode_rows:
        sections.append(format_table(
            ["diode", "V (mV)", "I (uA)"], diode_rows, title="Diodes"))

    source_rows = []
    for source in circuit.components_of_type(VoltageSource):
        info = solution.operating_info(source.name)
        source_rows.append([
            source.name, f"{info['v']:.4f}",
            f"{info.get('i', 0.0) * 1e3:.4f}",
            f"{-info.get('power', 0.0) * 1e3:.4f}",
        ])
    if source_rows:
        sections.append(format_table(
            ["source", "V (V)", "I (mA)", "P delivered (mW)"],
            source_rows, title="Sources"))

    if include_passives:
        resistor_rows = []
        for resistor in circuit.components_of_type(Resistor):
            info = solution.operating_info(resistor.name)
            resistor_rows.append([
                resistor.name, f"{info['v'] * 1e3:.2f}",
                f"{info['i'] * 1e6:.2f}",
                f"{info['power'] * 1e6:.3f}",
            ])
        if resistor_rows:
            sections.append(format_table(
                ["resistor", "V (mV)", "I (uA)", "P (uW)"],
                resistor_rows, title="Resistors"))

    return "\n\n".join(sections)


def solver_stats_report(stats) -> str:
    """One-line summary of a solve's :class:`~repro.sim.dc.NewtonStats`.

    Surfaces the Newton iterations and factorizations, the homotopy
    steps and the campaign's batch counters.

    Built on the telemetry counter mapping
    (:data:`~repro.telemetry.NEWTON_COUNTERS` via
    :func:`~repro.telemetry.record_newton_stats`), so this report, the
    JSONL traces and the campaign :class:`~repro.telemetry.RunReport`
    all read the same counters — one source of truth.  Accepts anything
    stats-shaped: a per-solve :class:`~repro.sim.dc.NewtonStats` or a
    campaign aggregate from
    :meth:`~repro.faults.campaign.CampaignResult.aggregate_stats`.
    """
    registry = MetricsRegistry()
    record_newton_stats(registry, stats)
    parts = [f"strategy={stats.strategy}"]
    for _attr, metric in NEWTON_COUNTERS:
        value = registry.counter_value(metric)
        if value or metric in _ALWAYS_SHOWN:
            parts.append(f"{metric.rsplit('.', 1)[-1]}={value}")
    return " ".join(parts)


def total_supply_power(circuit: Circuit, solution: DcSolution) -> float:
    """Total power delivered by all voltage sources, watts."""
    total = 0.0
    for source in circuit.components_of_type(VoltageSource):
        total -= solution.operating_info(source.name).get("power", 0.0)
    return total


def save_waveforms_csv(path: str, result: TransientResult,
                       nets: Sequence[str]) -> None:
    """Dump selected node waveforms to a CSV (time + one column per net)."""
    waves = [result.wave(net) for net in nets]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["time_s"] + list(nets))
        for index, t in enumerate(result.times):
            writer.writerow([repr(float(t))]
                            + [repr(float(w.values[index])) for w in waves])


def load_waveforms_csv(path: str) -> Dict[str, Waveform]:
    """Load waveforms saved by :func:`save_waveforms_csv`."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        if not header or header[0] != "time_s":
            raise ValueError(f"{path}: not a waveform CSV")
        columns: List[List[float]] = [[] for _ in header]
        for row in reader:
            for index, cell in enumerate(row):
                columns[index].append(float(cell))
    times = columns[0]
    return {name: Waveform(times, values, name=name)
            for name, values in zip(header[1:], columns[1:])}
