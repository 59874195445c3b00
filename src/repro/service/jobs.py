"""Campaign job specifications and the scenario → workload builder.

A :class:`JobSpec` is the wire-level description of one campaign job:
which chain to build, which defects to enumerate, and which engine
knobs to run with.  It is deliberately JSON-round-trippable
(:meth:`JobSpec.to_dict` / :meth:`JobSpec.from_dict`) so the TCP front
end, the in-process API, and test harnesses all speak the same
language.  :func:`build_campaign_job` turns a spec into the concrete
``(circuit, defects, oracles, options)`` the campaign engine consumes;
``python -m repro campaign`` builds a spec from its flags and calls it
too, so CLI and service jobs are byte-identical workloads.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..circuit.netlist import Circuit
from ..faults import (ALL_KINDS, FlagOracle, IddqOracle, LogicOracle,
                      Oracle, enumerate_defects)
from ..sim.options import SimOptions

#: Defect kinds enumerated when a spec does not name any.
DEFAULT_KINDS = ("pipe", "terminal-short", "resistor-short")


@dataclass
class JobSpec:
    """One campaign job, as submitted by a client.

    ``include_monitor_sites=False`` (the CLI default) enumerates fault
    sites before instrumentation, so only the functional logic is
    attacked; ``True`` enumerates after the shared monitor is built,
    which adds the detector's own devices to the catalog (the DFT
    overhead-circuitry question: can the tester test itself?).

    A spec checks its fields when it is constructed and raises
    :class:`ValueError` naming the first bad one, so a malformed
    submission is refused before any job exists.
    """

    stages: int = 3
    kinds: Sequence[str] = DEFAULT_KINDS
    pipe_resistances: Sequence[float] = (2e3, 4e3)
    limit: Optional[int] = None
    include_monitor_sites: bool = False
    # Engine knobs (mirror ``run_campaign``'s signature).
    low_rank: bool = False
    parallel: bool = False
    workers: Optional[int] = None
    chunk_size: Optional[int] = None
    # Fault-tolerance budgets (0 = unbounded, as on the CLI).
    deadline_s: float = 0.0
    chunk_timeout_s: float = 0.0
    #: Partitions the result store (e.g. per tenant or per sweep name).
    namespace: str = ""
    #: Free-form client metadata, echoed back with results.
    tags: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.kinds, (list, tuple)) or not all(
                kind in ALL_KINDS for kind in self.kinds):
            raise ValueError(f"kinds must be a list of defect kinds from "
                             f"{list(ALL_KINDS)}, got {self.kinds!r}")
        self.kinds = tuple(self.kinds)
        if not isinstance(self.pipe_resistances, (list, tuple)) or not all(
                _is_number(r) and r > 0 for r in self.pipe_resistances):
            raise ValueError(f"pipe_resistances must be a list of positive "
                             f"resistances, got {self.pipe_resistances!r}")
        self.pipe_resistances = tuple(float(r) for r in self.pipe_resistances)
        _check_int("stages", self.stages, 1, optional=False)
        _check_int("limit", self.limit, 0)
        _check_int("workers", self.workers, 1)
        _check_int("chunk_size", self.chunk_size, 1)
        for name in ("deadline_s", "chunk_timeout_s"):
            value = getattr(self, name)
            if not (_is_number(value) and value >= 0):
                raise ValueError(
                    f"{name} must be >= 0 seconds, got {value!r}")
        for name in ("include_monitor_sites", "low_rank", "parallel"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise ValueError(f"{name} must be true or false, got "
                                 f"{value!r}")
        if self.chunk_timeout_s > 0 and not self.parallel:
            raise ValueError("chunk_timeout_s applies only with "
                             "parallel=true")
        if not isinstance(self.tags, dict):
            raise ValueError(f"tags must be an object, got {self.tags!r}")

    def to_dict(self) -> Dict[str, Any]:
        payload = asdict(self)
        payload["kinds"] = list(self.kinds)
        payload["pipe_resistances"] = list(self.pipe_resistances)
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "JobSpec":
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416
        unknown = set(payload) - known
        if unknown:
            raise ValueError(
                f"unknown JobSpec field(s): {', '.join(sorted(unknown))}")
        return cls(**payload)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_int(name: str, value: Any, minimum: int,
               optional: bool = True) -> None:
    """Raise unless ``value`` is an integer >= ``minimum`` (or ``None``
    when ``optional``)."""
    if optional and value is None:
        return
    if not (isinstance(value, int) and not isinstance(value, bool)
            and value >= minimum):
        allowed = "null or " if optional else ""
        raise ValueError(f"{name} must be {allowed}an integer >= {minimum}, "
                         f"got {value!r}")


def build_campaign_job(spec: JobSpec
                       ) -> Tuple[Circuit, List, List[Oracle], SimOptions]:
    """Materialize a spec into ``(circuit, defects, oracles, options)``.

    Builds the ``stages``-long CML buffer chain, instruments it with the
    paper's shared amplitude monitor, and wires the standard three-oracle
    panel (logic, detector flag, Iddq).  Deterministic: the same spec
    always yields a circuit with the same content fingerprint, which is
    what makes service-level store reuse across submissions sound.
    """
    from ..cml import NOMINAL, buffer_chain
    from ..dft import build_shared_monitor

    chain = buffer_chain(NOMINAL, n_stages=spec.stages, frequency=100e6)
    defects: List = []
    if not spec.include_monitor_sites:
        defects = list(enumerate_defects(
            chain.circuit, kinds=tuple(spec.kinds),
            pipe_resistances=tuple(spec.pipe_resistances)))
    monitor = build_shared_monitor(chain.circuit, chain.output_nets,
                                   tech=NOMINAL)
    if spec.include_monitor_sites:
        defects = list(enumerate_defects(
            chain.circuit, kinds=tuple(spec.kinds),
            pipe_resistances=tuple(spec.pipe_resistances)))
    if spec.limit is not None:
        defects = defects[:spec.limit]
    oracles: List[Oracle] = [
        LogicOracle(chain.output_nets),
        FlagOracle(monitor.nets.flag, monitor.nets.flagb),
        IddqOracle(),
    ]
    options = SimOptions(solve_deadline_s=spec.deadline_s)
    return chain.circuit, defects, oracles, options
