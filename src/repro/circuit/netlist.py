"""Flat netlist representation used by the whole package.

A :class:`Circuit` is an ordered collection of named :class:`Component`
instances, each of which maps *terminal names* (``"p"``, ``"n"``, ``"b"``,
``"c"``, ``"e"`` ...) to *net names*.  Net ``"0"`` is the global ground
reference.

Keeping the terminal → net mapping explicit (rather than positional node
lists) is what makes the fault-injection machinery in :mod:`repro.faults`
simple: a *pipe* adds a resistor between two existing terminals' nets, and
an *open* rewires a single terminal onto a fresh net (see
:meth:`Circuit.split_terminal`).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from .sources import Waveform

GROUND = "0"


class SplitTerminal(NamedTuple):
    """The fresh net :meth:`Circuit.split_terminal` would move a terminal to.

    Stands for that net, before any split happens, as an endpoint in a
    defect's DC view (see
    :meth:`repro.faults.defects.Defect.delta_conductances`): an open's
    view is its rejoining conductance between the terminal's old net and
    ``SplitTerminal(component, terminal)``.
    """

    component: str
    terminal: str


#: Types of names, parameters and counters: :func:`structural_copy`
#: shares them without further checks.
_IMMUTABLE = frozenset({str, int, float, bool, type(None)})


def structural_copy(obj):
    """A new instance of ``obj``'s class with its own attribute dict.

    Dicts and lists (a terminal map,
    :class:`~repro.circuit.devices.MultiEmitterBjt`'s per-emitter
    limiting state, a PWL point list, a circuit's ``injected_defects``)
    are copied one level deep, which owns them because their items are
    immutable; waveforms are copied structurally.  Names, floats,
    counters and any other object (frozen defects) are shared, so the
    copy computes bitwise like ``obj``.  No ``__init__`` runs, so
    nothing is re-parsed or re-derived.  This is the circuit layer's one
    way to copy a component.
    """
    clone = object.__new__(type(obj))
    clone.__dict__ = state = obj.__dict__.copy()
    for key, value in state.items():
        if type(value) in _IMMUTABLE:
            continue
        if isinstance(value, (dict, list)):
            state[key] = value.copy()
        elif isinstance(value, Waveform):
            state[key] = structural_copy(value)
    return clone


class Component:
    """Base class for all circuit elements.

    Subclasses declare their terminals by passing a ``terminals`` mapping of
    terminal name → net name.  The simulation engine discovers behaviour via
    the hook methods below; the defaults describe an element that stamps
    nothing (useful for annotations).
    """

    #: Compiled-stamping dispatch tags.  ``stamp_kind`` declares a known
    #: linear stamp shape ("conductance", "vsource", "isource"); a
    #: component that overrides :meth:`stamp_linear` must declare one,
    #: or the compiled engine refuses it (the legacy engine still stamps
    #: it).  ``device_kind`` declares a known nonlinear model ("diode",
    #: "bjt"); for ``None`` the compiled engine calls the device's own
    #: :meth:`stamp_nonlinear` through a collector adapter.
    stamp_kind: Optional[str] = None
    device_kind: Optional[str] = None

    def __init__(self, name: str, terminals: Dict[str, str]):
        if not name:
            raise ValueError("component name must be non-empty")
        self.name = name
        self.terminals: Dict[str, str] = dict(terminals)

    # ------------------------------------------------------------------
    # Topology helpers
    # ------------------------------------------------------------------
    def nets(self) -> List[str]:
        """Nets touched by this component, in terminal-declaration order."""
        return list(self.terminals.values())

    def net(self, terminal: str) -> str:
        """Net currently attached to ``terminal``."""
        try:
            return self.terminals[terminal]
        except KeyError:
            raise KeyError(
                f"{self.name}: unknown terminal {terminal!r} "
                f"(has {sorted(self.terminals)})"
            ) from None

    def rewire(self, terminal: str, net: str) -> None:
        """Reattach ``terminal`` to ``net`` (used by fault injection)."""
        self.net(terminal)  # validate terminal exists
        self.terminals[terminal] = net

    # ------------------------------------------------------------------
    # Engine hooks (overridden by concrete elements)
    # ------------------------------------------------------------------
    def is_branch(self) -> bool:
        """True when the element needs an MNA branch-current unknown."""
        return False

    def is_nonlinear(self) -> bool:
        """True when the element must be re-stamped on each NR iteration."""
        return False

    def stamp_linear(self, stamper, t: float) -> None:
        """Stamp time-invariant linear contributions (and sources at ``t``)."""

    def stamp_nonlinear(self, stamper, voltages) -> None:
        """Stamp the linearisation around the NR iterate ``voltages``.

        ``voltages`` is a callable net → volts for the current iterate.
        """

    def dynamic_elements(self) -> List[Tuple[str, str, str, float]]:
        """Charge-storage declaration: ``(key, net+, net-, capacitance)``.

        The transient engine turns each entry into a companion model; DC
        analysis ignores them (capacitors are open at DC).
        """
        return []

    def junctions(self) -> List[Tuple[str, str, float]]:
        """PN junctions as ``(net+, net-, vcrit)`` for NR voltage limiting."""
        return []

    def operating_info(self, voltages, branch_current: Optional[float]) -> Dict[str, float]:
        """Small-signal/operating info for reports (best effort)."""
        return {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        pins = ", ".join(f"{t}={n}" for t, n in self.terminals.items())
        return f"<{type(self).__name__} {self.name} ({pins})>"


class Circuit:
    """A mutable, flat netlist.

    Components are stored in insertion order under unique names.  Hierarchy
    is handled by :mod:`repro.circuit.subcircuit`, which flattens instances
    into the parent with ``"inst."`` name prefixes, so every fault site in a
    full design is addressable from the top level (e.g. ``"DUT.Q3"``).
    """

    def __init__(self, title: str = ""):
        self.title = title
        self._components: Dict[str, Component] = {}
        self._split_counter = 0
        #: Bumped on every topology mutation (add/remove/rewire); lets
        #: the simulation engine cache per-topology artifacts (MNA
        #: numbering, compiled stamps) and invalidate them reliably.
        self._topology_version = 0
        #: Those artifacts, held here so they die with the circuit (see
        #: :func:`repro.sim.mna.structure_for`).  Copies and pickles
        #: leave them behind; they are rebuilt on demand.
        self._solver_cache = None
        #: ``(topology_version, frozenset of nets)`` for :meth:`has_net`.
        self._net_set = None

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_solver_cache"] = None
        state["_net_set"] = None
        return state

    def __copy__(self) -> "Circuit":
        # A shallow copy would share the component dict: adding to the
        # clone would add to this circuit without bumping its topology
        # version, leaving its cached MNA structure stale.
        return self.copy()

    @property
    def topology_version(self) -> int:
        """Monotonic counter of topology mutations (see engine caching)."""
        return self._topology_version

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def add(self, component: Component) -> Component:
        """Add ``component``; its name must be unique within the circuit."""
        if component.name in self._components:
            raise ValueError(f"duplicate component name {component.name!r}")
        self._components[component.name] = component
        self._topology_version += 1
        return component

    def remove(self, name: str) -> Component:
        """Remove and return the component called ``name``."""
        try:
            component = self._components.pop(name)
        except KeyError:
            raise KeyError(f"no component named {name!r}") from None
        self._topology_version += 1
        return component

    def __getitem__(self, name: str) -> Component:
        try:
            return self._components[name]
        except KeyError:
            raise KeyError(f"no component named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._components

    def __iter__(self) -> Iterator[Component]:
        return iter(self._components.values())

    def __len__(self) -> int:
        return len(self._components)

    @property
    def components(self) -> List[Component]:
        """Components in insertion order."""
        return list(self._components.values())

    def components_of_type(self, cls) -> List[Component]:
        """All components that are instances of ``cls``."""
        return [c for c in self if isinstance(c, cls)]

    # ------------------------------------------------------------------
    # Net queries
    # ------------------------------------------------------------------
    def nets(self) -> List[str]:
        """All nets including ground, in first-appearance order."""
        seen: Dict[str, None] = {}
        for component in self:
            for net in component.nets():
                seen.setdefault(net, None)
        return list(seen)

    def has_net(self, net: str) -> bool:
        """Whether some terminal is on ``net`` (ground included): a set
        lookup, the set rebuilt once per topology version."""
        entry = self._net_set
        if entry is None or entry[0] != self._topology_version:
            entry = self._net_set = (self._topology_version,
                                     frozenset(self.nets()))
        return net in entry[1]

    def unknown_nets(self) -> List[str]:
        """Nets that get an MNA voltage unknown (everything but ground)."""
        return [n for n in self.nets() if n != GROUND]

    def components_on_net(self, net: str) -> List[Tuple[Component, str]]:
        """``(component, terminal)`` pairs attached to ``net``."""
        attached = []
        for component in self:
            for terminal, terminal_net in component.terminals.items():
                if terminal_net == net:
                    attached.append((component, terminal))
        return attached

    # ------------------------------------------------------------------
    # Mutation used by fault injection
    # ------------------------------------------------------------------
    def split_terminal(self, component_name: str, terminal: str) -> Tuple[str, str]:
        """Detach one terminal onto a fresh net.

        Returns ``(old_net, new_net)``.  The caller is responsible for
        re-linking the two nets (e.g. with the paper's 100 MΩ ∥ 1 fF open
        model, see :mod:`repro.faults.defects`).
        """
        component = self[component_name]
        old_net = component.net(terminal)
        self._split_counter += 1
        new_net = f"{old_net}#open{self._split_counter}"
        component.rewire(terminal, new_net)
        self._topology_version += 1
        return old_net, new_net

    def merge_nets(self, keep: str, remove: str) -> None:
        """Rewire every terminal on ``remove`` to ``keep`` (hard short)."""
        for component, terminal in self.components_on_net(remove):
            component.rewire(terminal, keep)
        self._topology_version += 1

    def copy(self) -> "Circuit":
        """Structural copy; fault injection always works on a copy.

        The copy has this circuit's title, split counter, topology
        version and component order, and a :func:`structural_copy` of
        each component.  Rewiring or splitting a terminal, adding or
        removing a component, changing a parameter or a waveform, and the
        limiting state a solve writes back to the devices all stay on
        the copy.  Names, floats and counters are taken verbatim, so the
        copy numbers its MNA unknowns, names its ``#openN`` nets and
        solves bitwise like a ``copy.deepcopy``.  Solver state is left
        behind and rebuilt on demand.
        """
        clone = structural_copy(self)
        clone._components = {name: structural_copy(component)
                             for name, component in self._components.items()}
        clone._solver_cache = None
        return clone

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def validate(self) -> List[str]:
        """Return a list of human-readable topology warnings.

        Checks for nets with a single connection (dangling) and for the
        absence of a ground reference.  An empty list means no warnings.
        """
        warnings = []
        nets = self.nets()
        if GROUND not in nets:
            warnings.append("circuit has no ground net '0'")
        for net in nets:
            if net == GROUND:
                continue
            if len(self.components_on_net(net)) < 2:
                warnings.append(f"net {net!r} has fewer than two connections")
        return warnings

    def summary(self) -> str:
        """One-line inventory, e.g. ``'12 components, 9 nets'``."""
        return f"{len(self)} components, {len(self.nets())} nets"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Circuit {self.title!r}: {self.summary()}>"
