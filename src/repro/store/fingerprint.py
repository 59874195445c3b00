"""Canonical content fingerprints for campaign memoization.

A campaign solve is a pure function of (netlist content, solver
options, oracle configuration, defect).  The result store keys cached
records by a cryptographic hash of exactly those inputs, so two
campaigns that *mean* the same solve — run from different processes,
different CLI invocations, or rebuilt circuit objects — address the
same cache line, while any electrical or solver-relevant change moves
to a fresh one.

Canonicalization is structural, not identity-based: a circuit is
reduced to its components' class names, terminal wiring and public
electrical parameters (sorted by component name, so construction order
is irrelevant); options to the fields that can change a solve
(:data:`SOLVE_OPTION_FIELDS`); oracles to their class names and public
configuration.  Hashes are SHA-256 over the sorted-key JSON of that
canonical form — deterministic across processes and interpreter hash
seeds.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING, Any, Dict, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only; the store never
    from ..sim.options import SimOptions  # imports the simulator

#: Bump when the canonical form changes incompatibly (old cache lines
#: simply miss — a fingerprint change is an implicit cache flush), and
#: when a solver constant changes, such as the gmin ladder and source
#: steps of :mod:`repro.sim.dc` or the campaign's retry iteration scale:
#: those values are code, not options, so no fingerprint sees them.
FINGERPRINT_SCHEMA = 1

#: :class:`~repro.sim.options.SimOptions` fields that can change what a
#: record contains: the only fields the options fingerprint hashes, so
#: adding or removing any other field leaves every store valid.
#: ``solve_deadline_s`` belongs here: it can turn a slow solve into a
#: quarantine.
SOLVE_OPTION_FIELDS = frozenset({
    "reltol", "vntol", "abstol", "gmin", "max_nr_iterations",
    "sparse_threshold", "max_step_halvings", "use_compiled",
    "solve_deadline_s",
})

#: :class:`~repro.sim.options.SimOptions` fields that cannot change what
#: any record contains, so a run traced or untraced hits the same cache
#: lines.  Every field is in exactly one of the two sets.
EXECUTION_ONLY_OPTION_FIELDS = frozenset({"telemetry"})


def canonical(value: Any, _depth: int = 0) -> Any:
    """JSON-able canonical form of ``value`` (recursive, depth-capped).

    Primitives pass through; sequences and dicts canonicalize
    elementwise (dicts by sorted key); objects become their class name
    plus every public, non-callable instance attribute.  Anything
    deeper than the cap (pathological self-referential structures)
    degrades to ``repr`` — stable enough for a conservative cache key.
    """
    if _depth > 8:
        return repr(value)
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, (list, tuple)):
        return [canonical(item, _depth + 1) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(canonical(item, _depth + 1) for item in value)
    if isinstance(value, dict):
        return {str(key): canonical(item, _depth + 1)
                for key, item in sorted(value.items(),
                                        key=lambda kv: str(kv[0]))}
    if hasattr(value, "tolist"):  # numpy scalars / arrays
        return canonical(value.tolist(), _depth + 1)
    state: Dict[str, Any] = {"__class__": type(value).__name__}
    attrs = getattr(value, "__dict__", None)
    if attrs is None:
        return repr(value)
    for key, attr in sorted(attrs.items()):
        if key.startswith("_") or callable(attr):
            continue
        state[key] = canonical(attr, _depth + 1)
    return state


def _digest(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def circuit_fingerprint(circuit: Iterable) -> str:
    """Content hash of a circuit's electrical identity.

    Covers every component's class, name, terminal→net wiring and
    public parameters (resistances, device model values, source
    waveforms — anything electrical).  Sorted by component name so the
    fingerprint is independent of construction order; independent of
    object identity, so a circuit rebuilt from the same recipe in
    another process fingerprints identically.
    """
    components = []
    for component in sorted(circuit, key=lambda c: c.name):
        params = {}
        for key, attr in sorted(vars(component).items()):
            if key.startswith("_") or key in ("name", "terminals"):
                continue
            if callable(attr):
                continue
            params[key] = canonical(attr)
        components.append({
            "class": type(component).__name__,
            "name": component.name,
            "terminals": canonical(dict(component.terminals)),
            "params": params,
        })
    return _digest({"schema": FINGERPRINT_SCHEMA,
                    "components": components})


def options_fingerprint(options: "SimOptions") -> str:
    """Content hash of the :data:`SOLVE_OPTION_FIELDS` of ``options``."""
    fields = {name: canonical(getattr(options, name))
              for name in SOLVE_OPTION_FIELDS}
    return _digest({"schema": FINGERPRINT_SCHEMA, "options": fields})


def oracles_fingerprint(oracles: Sequence[Any]) -> str:
    """Content hash of an oracle list's classes and configuration.

    Order matters only through each oracle's own content (the verdict
    dict is keyed by oracle name, not position), but the canonical form
    keeps list order for simplicity — campaigns build their oracle
    lists deterministically.
    """
    return _digest({"schema": FINGERPRINT_SCHEMA,
                    "oracles": [canonical(oracle) for oracle in oracles]})


def campaign_fingerprint(circuit: Iterable, options: "SimOptions",
                         oracles: Sequence[Any],
                         namespace: str = "") -> str:
    """The combined cache scope one campaign's records live under.

    ``namespace`` partitions otherwise-identical campaigns — the verify
    oracle matrix passes the engine name, so each engine's records are
    cached separately and a warm re-verification still compares
    per-engine results rather than one engine's cache against itself.
    """
    return _digest({
        "schema": FINGERPRINT_SCHEMA,
        "circuit": circuit_fingerprint(circuit),
        "options": options_fingerprint(options),
        "oracles": oracles_fingerprint(oracles),
        "namespace": namespace,
    })


def result_key(fingerprint: str, defect_key: str) -> str:
    """Content address of one defect's record within a campaign scope."""
    return hashlib.sha256(
        f"{fingerprint}\n{defect_key}".encode("utf-8")).hexdigest()
