"""Gate-level ATPG: PODEM path sensitization on the CML logic network.

Section 6.6 of the paper reduces single-output amplitude-fault testing
to toggling every gate output while its built-in detector watches.  The
previous implementation found toggle vectors by enumerating up to 2^n
input vectors per gate; this module replaces that with a PODEM-style
engine (Goel 1981) over the five-valued D-calculus of :mod:`.dcalc`:

* **justification** — drive one net to one value (the toggle objective:
  detectors on every output make observation trivial, so sensitizing a
  gate means justifying both of its output values);
* **detection** — activate a stuck-at fault and propagate the ``D`` to
  an observed net through the D-frontier (the classic mode, used when
  only the primary outputs are observed);
* **time-frame expansion** — :func:`unroll` flattens a few cycles of a
  sequential network into one combinational network so the same engine
  can target gates behind (shallow) flip-flop state, which is how
  :func:`sequential_test_plan` tops up the coverage holes pseudorandom
  patterns leave behind.

Decisions are made only at primary inputs (PODEM's defining trick), so
the search never enumerates vector spaces; a backtrack budget bounds
worst-case behaviour and aborted targets are reported as such rather
than silently declared untestable.  Before a detection search, the
constant nets learned over the network (``xor2(n, n)`` is 0 whatever
``n`` is) prove redundant faults untestable that no search within the
budget could.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Dict, List, Mapping, Optional, Sequence, Set, \
    Tuple, Union

from ..telemetry import Telemetry, from_env
from . import dcalc
from .dcalc import DValue, FIVE_VALUES
from .faultsim import PackedVectors, StuckFault
from .logic import Gate, LogicNetwork, Value
from .patterns import random_vectors

#: Default PODEM backtrack budget per target.
DEFAULT_BACKTRACK_LIMIT = 200

#: Canonical-value code for fast table lookups (the calculus only ever
#: produces the five module singletons, so identity is a safe key).
_CODE_BY_ID = {id(v): c for c, v in enumerate(FIVE_VALUES)}

#: The engine keeps each net's value as its code: 0, 1, D, D', X.
_ZERO, _ONE, _X = (_CODE_BY_ID[id(v)]
                   for v in (dcalc.ZERO, dcalc.ONE, dcalc.X))
#: code -> good-machine value; code -> whether it is D or D'.
_GOOD = tuple(v.good for v in FIVE_VALUES)
_ERROR = tuple(v.is_error for v in FIVE_VALUES)
#: stuck value -> (code -> code of the fault site carrying it).
_FAULT_SITE = {stuck: tuple(_CODE_BY_ID[id(dcalc.fault_value(stuck, v.good))]
                            for v in FIVE_VALUES)
               for stuck in (False, True)}

#: cell type -> flat 5-valued truth table (base-5 row index, first
#: input most significant).  Shared across engines: a cell type always
#: maps to the same ``logic_eval`` (see ``LogicNetwork.add_gate``).
_TABLE_CACHE: Dict[str, List[DValue]] = {}
#: The same tables over value codes.
_CODE_TABLES: Dict[str, Tuple[int, ...]] = {}


def _cell_table(cell_type: str, eval_fn, n_inputs: int) -> List[DValue]:
    """The precomputed five-valued truth table of one cell type.

    Replaces per-evaluation exhaustive X-completion (``_x_safe``) with
    a flat list lookup, so one gate evaluation in the PODEM inner loop
    costs one index computation and one list read.
    """
    key = f"{cell_type}/{n_inputs}"
    table = _TABLE_CACHE.get(key)
    if table is None:
        table = []
        for row in range(5 ** n_inputs):
            codes = []
            remainder = row
            for _ in range(n_inputs):
                codes.append(remainder % 5)
                remainder //= 5
            codes.reverse()
            table.append(dcalc.dcalc_eval(
                eval_fn, [FIVE_VALUES[c] for c in codes]))
        _TABLE_CACHE[key] = table
    return table


def _code_table(gate: Gate) -> Tuple[int, ...]:
    """:func:`_cell_table` of ``gate``'s cell type, as value codes."""
    key = f"{gate.cell_type}/{len(gate.inputs)}"
    table = _CODE_TABLES.get(key)
    if table is None:
        table = _CODE_TABLES[key] = tuple(
            _CODE_BY_ID[id(v)] for v in _cell_table(
                gate.cell_type, gate.eval_fn, len(gate.inputs)))
    return table


def _row(codes: Sequence[int]) -> int:
    """The truth-table row of one combination of input codes."""
    row = 0
    for code in codes:
        row = row * 5 + code
    return row


# Literals: what the untestability proofs know of a net's boolean
# function.  0 and 1 are the constants; ``2 * name + 2`` is the
# function called ``name`` and ``2 * name + 3`` its complement, so
# ``code ^ 1`` negates any literal.  Two nets with one literal compute
# the same function; two literals that differ prove nothing.

#: (cell type, input literals with names renumbered 1, 2, ... by first
#: appearance) -> output literal over those numbers, or -1 when the
#: output is neither a constant nor an input literal.
_LITERAL_RULES: Dict[Tuple[str, Tuple[int, ...]], int] = {}


def _literal_rule(eval_fn, pattern: Tuple[int, ...], n_names: int) -> int:
    """Evaluate ``eval_fn`` on every assignment of ``pattern``'s names
    (at most three inputs: at most 8 rows) and name its output."""
    rows = 1 << n_names
    column = 0
    for row in range(rows):
        args = [bool(code) if code < 2
                else bool(row >> ((code >> 1) - 1) & 1) != bool(code & 1)
                for code in pattern]
        if eval_fn(*args)[0]:
            column |= 1 << row
    full = (1 << rows) - 1
    if column in (0, full):
        return int(column == full)
    for number in range(1, n_names + 1):
        named = sum(1 << row for row in range(rows)
                    if row >> (number - 1) & 1)
        if column in (named, named ^ full):
            return 2 * number + (column != named)
    return -1


def _derive_literal(gate: Gate, codes: Sequence[int]) -> int:
    """The literal of ``gate``'s output given its inputs' literals, or
    -1 when it is none of the constants or input literals.

    Derived from the cell's ``logic_eval``, as :func:`.dcalc.dcalc_eval`
    derives the five-valued tables, and cached per input pattern, so
    ``xor2(n, n)`` is 0 and ``and2(n, not n)`` too, whatever ``n`` is.
    """
    names: List[int] = []
    pattern: List[int] = []
    for code in codes:
        if code < 2:
            pattern.append(code)
            continue
        name = code >> 1
        if name not in names:
            names.append(name)
        pattern.append(2 * names.index(name) + 2 + (code & 1))
    key = (gate.cell_type, tuple(pattern))
    rule = _LITERAL_RULES.get(key)
    if rule is None:
        rule = _LITERAL_RULES[key] = _literal_rule(gate.eval_fn, key[1],
                                                   len(names))
    if rule < 2:
        return rule
    return 2 * names[(rule >> 1) - 1] + (rule & 1)


#: PODEM call outcomes.
DETECTED = "detected"
UNTESTABLE = "untestable"
ABORTED = "aborted"

#: ``state`` arguments accepted by the sequential helpers: one uniform
#: 3-valued value for every flip-flop, or a per-gate mapping.
StateArg = Union[Value, Mapping[str, Value]]


@dataclass
class AtpgResult:
    """Outcome of one PODEM call."""

    status: str
    target: str
    vector: Optional[Dict[str, bool]] = None
    backtracks: int = 0

    def __bool__(self) -> bool:
        return self.status == DETECTED


@dataclass
class EngineStats:
    """Cumulative counters of one :class:`PodemEngine` instance."""

    podem_calls: int = 0
    backtracks: int = 0
    detected: int = 0
    untestable: int = 0
    aborted: int = 0


def _state_map(network: LogicNetwork, state: StateArg) -> Dict[str, Value]:
    """Flip-flop *output-net* values from a ``state`` argument."""
    pinned: Dict[str, Value] = {}
    for gate in network.sequential_gates():
        if isinstance(state, Mapping):
            pinned[gate.output] = state.get(gate.name)
        else:
            pinned[gate.output] = state
    return pinned


class _Implication:
    """The five-valued values of one PODEM search, kept event-driven.

    ``values[net]`` is always what a full forward pass over ``cone``
    would give under ``assignment``: decidable nets carry their decision
    (X if undecided), pinned nets their constant, the fault site its
    fault value, cone gates their table output, every other net X.
    :meth:`assign` changes one decidable net and queues the cone gates
    reading it; :meth:`settle` evaluates queued gates smallest position
    (evaluation order) first, queueing a gate's readers only when its
    output changes.
    """

    def __init__(self, engine: "PodemEngine", cone: List[int],
                 fault: Optional[StuckFault]):
        view = engine._view
        self.engine = engine
        self.cone = cone
        self.fault = fault
        self.values = [_X] * len(view.nets)
        self.assignment: Dict[int, bool] = {}
        self._site = -1
        self._site_codes: Tuple[int, ...] = ()
        for net, code in engine._pinned.items():
            self.values[net] = code
        if fault is not None:
            self._site = view.index[fault.net]
            self._site_codes = _FAULT_SITE[fault.value]
            if self._site in engine._pinned:
                self.values[self._site] = \
                    self._site_codes[self.values[self._site]]
        self._in_cone = bytearray(len(view.order))
        for position in cone:
            self._in_cone[position] = 1
        # Every cone gate queued: the first settle is a full pass.
        self._queue = list(cone)
        self._queued = bytearray(self._in_cone)
        self.settle()

    def assign(self, net: int, value: Optional[bool]) -> None:
        """Decide decidable ``net`` (``None``: undo its decision)."""
        if value is None:
            del self.assignment[net]
            code = _X
        else:
            self.assignment[net] = value
            code = _ONE if value else _ZERO
        if net == self._site:
            code = self._site_codes[code]
        if code != self.values[net]:
            self.values[net] = code
            in_cone, queued = self._in_cone, self._queued
            for reader in self.engine._view.readers[net]:
                if in_cone[reader] and not queued[reader]:
                    queued[reader] = 1
                    heappush(self._queue, reader)

    def settle(self) -> None:
        """Evaluate the queued gates and everything their changes reach."""
        view = self.engine._view
        tables, inputs, output = self.engine._tables, view.inputs, view.output
        readers, in_cone = view.readers, self._in_cone
        values, queue, queued = self.values, self._queue, self._queued
        site, site_codes = self._site, self._site_codes
        while queue:
            position = heappop(queue)
            queued[position] = 0
            row = 0
            for net in inputs[position]:
                row = row * 5 + values[net]
            code = tables[position][row]
            out = output[position]
            if out == site:
                code = site_codes[code]
            if code != values[out]:
                values[out] = code
                for reader in readers[out]:
                    if in_cone[reader] and not queued[reader]:
                        queued[reader] = 1
                        heappush(queue, reader)


class PodemEngine:
    """PODEM over one (combinational view of a) logic network.

    ``pinned`` maps nets the engine must treat as constants — flip-flop
    outputs carrying the current state, or frame-0 state nets of an
    unrolled network.  A pinned net is never a decision, even when it is
    a primary input.  With ``free_state=True`` those nets become
    decision variables instead (used to tell *structurally* untestable
    targets from merely state-blocked ones).

    The engine works on :meth:`LogicNetwork.compiled`: nets and gates
    are integer indices, and each search keeps one :class:`_Implication`
    that re-evaluates only the gates a decision reaches.
    """

    def __init__(self, network: LogicNetwork,
                 observed: Optional[Sequence[str]] = None,
                 pinned: Optional[Mapping[str, Value]] = None,
                 free_state: bool = False,
                 backtrack_limit: int = DEFAULT_BACKTRACK_LIMIT):
        self.network = network
        self.backtrack_limit = backtrack_limit
        self.stats = EngineStats()

        view = self._view = network.compiled()
        index = view.index
        self._tables = [_code_table(gate) for gate in view.order]
        #: fault site -> (reachable observed, cone, frontier gates).
        self._cone_cache: Dict[
            int, Tuple[List[int], List[int], List[int]]] = {}
        #: Each net's fault-free literal, learned on the first detect.
        self._literals: Optional[List[int]] = None

        pinned_nets: Dict[str, Value] = {
            g.output: g.state for g in network.sequential_gates()}
        if pinned:
            pinned_nets.update(pinned)
        decidable = [net for net in network.primary_inputs
                     if net not in pinned_nets]
        if free_state:
            decidable += sorted(pinned_nets)
            pinned_nets = {}
        # A net outside the network feeds no gate: pinning it is moot.
        self._pinned: Dict[int, int] = {
            index[net]: _CODE_BY_ID[id(dcalc.from_logic(value))]
            for net, value in pinned_nets.items() if net in index}
        self._decidable: Set[int] = {index[net] for net in decidable
                                     if net in index}

        if observed is None:
            observed = list(network.primary_outputs)
        self._observed: Set[int] = {index[net] for net in observed
                                    if net in index}

        # Levels (0 at every net no gate drives) and controllability:
        # a net is controllable when it is decidable or some input of
        # its driver is.  Backtrace and propagation objectives choose
        # only controllable X inputs, so an X no decision can set (a
        # pinned unknown state, an undriven net) is never chosen over
        # one that can.
        self._level = [0] * len(view.nets)
        self._controllable = bytearray(len(view.nets))
        for net in self._decidable:
            self._controllable[net] = 1
        for ins, out in zip(view.inputs, view.output):
            self._level[out] = 1 + max(self._level[net] for net in ins)
            self._controllable[out] = any(
                self._controllable[net] for net in ins)

    # ------------------------------------------------------------------
    # Cone restriction: per-target relevant gate lists
    # ------------------------------------------------------------------
    def _fanin_gates(self, nets: Sequence[int]) -> List[int]:
        """Driving gates of the transitive fanin of ``nets``, in
        evaluation order."""
        driver, inputs = self._view.driver, self._view.inputs
        seen: Set[int] = set()
        stack = list(nets)
        gates: List[int] = []
        while stack:
            net = stack.pop()
            if net in seen:
                continue
            seen.add(net)
            position = driver[net]
            if position < 0:
                continue
            gates.append(position)
            stack.extend(inputs[position])
        gates.sort()
        return gates

    def _downstream_nets(self, net: int) -> Set[int]:
        """``net`` plus every net reachable through combinational
        fanout."""
        readers, output = self._view.readers, self._view.output
        seen = {net}
        stack = [net]
        while stack:
            for position in readers[stack.pop()]:
                out = output[position]
                if out not in seen:
                    seen.add(out)
                    stack.append(out)
        return seen

    # ------------------------------------------------------------------
    # Untestability proofs from learned literals
    # ------------------------------------------------------------------
    def _fault_free_literals(self) -> List[int]:
        """Each net's fault-free literal (see :func:`_derive_literal`).

        A pinned net with a known value is that constant.  Every other
        net no gate drives (a decidable input, an unknown pin, an
        undriven net) is a free function named after itself, and so is
        a gate output that is neither a constant nor an input literal.
        A gate's output replaces any pin on its net, as in
        :class:`_Implication`.
        """
        if self._literals is None:
            view = self._view
            literals = [2 * net + 2 for net in range(len(view.nets))]
            for net, code in self._pinned.items():
                if _GOOD[code] is not None:
                    literals[net] = int(_GOOD[code])
            for position, gate in enumerate(view.order):
                out = view.output[position]
                code = _derive_literal(
                    gate, [literals[net] for net in view.inputs[position]])
                literals[out] = code if code >= 0 else 2 * out + 2
            self._literals = literals
        return self._literals

    def _proven_untestable(self, site: int, stuck: bool) -> bool:
        """Whether the learned literals prove that no assignment
        detects ``site`` stuck-at ``stuck``: either the site's
        fault-free literal is the stuck constant (activation is
        impossible), or no observed net's faulty literal differs from
        its fault-free one (every path crosses a net whose faulty
        function equals its fault-free one).

        The faulty literals are derived over the site's fanout, only
        at gates an input of which changed.  It is sound because:

        * a fault sits on a net (a stem), so every reader of the site
          sees the stuck constant;
        * a faulty literal that is new gets a name after every
          fault-free one (``len(nets) + out``), so one name never
          stands for two different functions;
        * known pins are constants, and unknown pins and decidable
          nets free names, so a proof holds for every value of both.
        """
        good = self._fault_free_literals()
        if good[site] == int(stuck):
            return True
        view = self._view
        readers, output, observed = view.readers, view.output, self._observed
        if site in observed:
            return False
        fresh = len(view.nets)
        faulty = {site: int(stuck)}
        queue = list(readers[site])  # ascending: already a heap
        queued = set(queue)
        while queue:
            position = heappop(queue)
            code = _derive_literal(
                view.order[position],
                [faulty.get(net, good[net]) for net in view.inputs[position]])
            out = output[position]
            if code < 0:
                code = 2 * (fresh + out) + 2
            if code == good[out]:
                continue
            if out in observed:
                return False
            faulty[out] = code
            for reader in readers[out]:
                if reader not in queued:
                    queued.add(reader)
                    heappush(queue, reader)
        return True

    # ------------------------------------------------------------------
    # Backtrace: objective (net, value) -> primary-input assignment
    # ------------------------------------------------------------------
    def _backtrace(self, net: int, value: bool, values: List[int]
                   ) -> Optional[Tuple[int, bool]]:
        seen: Set[int] = set()
        while True:
            if net in self._decidable:
                return net, value
            if net in seen:  # combinational loops are impossible, but
                return None  # stay safe against pathological backtrace
            seen.add(net)
            position = self._view.driver[net]
            if position < 0:  # pinned state / undriven net
                return None
            step = self._backtrace_step(position, value, values)
            if step is None:
                return None
            net, value = step

    def _backtrace_step(self, position: int, value: bool,
                        values: List[int]) -> Optional[Tuple[int, bool]]:
        """Choose one controllable X input of gate ``position`` (and its
        value) toward the objective ``output == value``."""
        ins = self._view.inputs[position]
        goods = [_GOOD[values[net]] for net in ins]
        controllable = self._controllable
        unknown = [i for i, good in enumerate(goods)
                   if good is None and controllable[ins[i]]]
        if not unknown:
            return None
        cell = self._view.order[position].cell_type
        levels = self._level
        if cell in ("buffer", "inverter"):
            return ins[0], (value if cell == "buffer" else not value)
        if cell in ("and2", "or2"):
            # Controlling objective (AND=0 / OR=1): one input suffices,
            # so take the easiest (shallowest) X input.  Non-controlling
            # (all inputs required): take the hardest (deepest) first so
            # infeasibility surfaces before effort is spent on the rest.
            controlling = (value is False) == (cell == "and2")
            choose = min if controlling else max
            pick = choose(unknown, key=lambda i: levels[ins[i]])
            return ins[pick], value
        if cell == "xor2":
            pick = min(unknown, key=lambda i: levels[ins[i]])
            known = [good for good in goods if good is not None]
            if known:
                return ins[pick], (value != known[0])
            return ins[pick], value
        if cell == "mux2":
            sel = goods[2]
            if sel is not None:
                target = 1 if sel else 0
                if target in unknown:
                    return ins[target], value
                return None
            # Select the data input that already carries the objective
            # value (or the first unknown one) by steering the select.
            if 2 in unknown:
                for index, want in ((0, False), (1, True)):
                    if goods[index] is not None and goods[index] == value:
                        return ins[2], want
            return ins[unknown[0]], value
        # Unknown cell type: try each candidate value of the first X
        # input and keep one that does not fix the output wrongly.
        index = unknown[0]
        table = self._tables[position]
        for candidate in (value, not value):
            trial = [values[net] for net in ins]
            trial[index] = _ONE if candidate else _ZERO
            good = _GOOD[table[_row(trial)]]
            if good is None or good == value:
                return ins[index], candidate
        return ins[index], value

    # ------------------------------------------------------------------
    # Propagation machinery (detection mode)
    # ------------------------------------------------------------------
    def _d_frontier(self, values: List[int], gates: List[int]
                    ) -> List[int]:
        inputs, output = self._view.inputs, self._view.output
        frontier = [
            position for position in gates
            if values[output[position]] == _X
            and any(_ERROR[values[net]] for net in inputs[position])]
        frontier.sort(key=lambda position: self._level[output[position]])
        return frontier

    def _x_path_exists(self, values: List[int], start: List[int]) -> bool:
        """Can any fault effect still reach an observed net?

        ``start`` holds every net that may carry ``D``/``D'`` (the fault
        site and the gates downstream of it)."""
        start = [net for net in start if _ERROR[values[net]]]
        if any(net in self._observed for net in start):
            return True
        readers, output = self._view.readers, self._view.output
        seen: Set[int] = set(start)
        queue = deque(start)
        while queue:
            net = queue.popleft()
            for position in readers[net]:
                out = output[position]
                if out in seen:
                    continue
                code = values[out]
                if code == _X or _ERROR[code]:
                    if out in self._observed:
                        return True
                    seen.add(out)
                    queue.append(out)
        return False

    def _propagation_objective(self, values: List[int],
                               frontier: List[int]
                               ) -> Optional[Tuple[int, bool]]:
        """Next objective advancing the D-frontier, or None if stuck."""
        controllable = self._controllable
        for position in frontier:
            ins = self._view.inputs[position]
            table = self._tables[position]
            codes = [values[net] for net in ins]
            fallback: Optional[Tuple[int, bool]] = None
            for index, net in enumerate(ins):
                if codes[index] != _X or not controllable[net]:
                    continue
                for candidate in (True, False):
                    trial = list(codes)
                    trial[index] = _ONE if candidate else _ZERO
                    out = table[_row(trial)]
                    if _ERROR[out]:
                        return net, candidate
                    if out == _X and fallback is None:
                        fallback = (net, candidate)
            if fallback is not None:
                return fallback
        return None

    # ------------------------------------------------------------------
    # The PODEM decision loop
    # ------------------------------------------------------------------
    def justify(self, net: str, value: bool) -> AtpgResult:
        """Find an input vector driving ``net`` to ``value``."""
        target = f"{net}={int(value)}"
        node = self._view.index[net]
        cone = self._fanin_gates([node])

        def status(values: List[int]) -> str:
            good = _GOOD[values[node]]
            if good is None:
                return "open"
            return "success" if good == value else "fail"

        def objective(values: List[int]) -> Optional[Tuple[int, bool]]:
            return node, value

        return self._search(target, None, status, objective, cone)

    def detect(self, fault: StuckFault) -> AtpgResult:
        """Find a vector detecting ``fault`` at an observed net.

        A fault :meth:`_proven_untestable` settles is untestable with
        no search (one call, no backtrack)."""
        target = fault.describe()
        site = self._view.index[fault.net]
        if self._proven_untestable(site, fault.value):
            # Never activated, or never observed (a site no observed net
            # is downstream of included): untestable without a search.
            self.stats.podem_calls += 1
            self.stats.untestable += 1
            return AtpgResult(status=UNTESTABLE, target=target)
        cached = self._cone_cache.get(site)
        if cached is None:
            downstream = self._downstream_nets(site)
            reachable = [net for net in self._observed
                         if net in downstream]
            # Only the fanin cones of the reachable observed nets
            # (which include the fault site's own cone and every side
            # input along the propagation paths) influence detection.
            cone = self._fanin_gates(reachable + [site])
            output = self._view.output
            frontier_gates = [position for position in cone
                              if output[position] in downstream]
            cached = (reachable, cone, frontier_gates)
            self._cone_cache[site] = cached
        reachable, cone, frontier_gates = cached
        # Every net that can carry the fault effect.
        carriers = [site] + [self._view.output[position]
                             for position in frontier_gates]
        #: The D-frontier of the values ``status`` last saw, which the
        #: ``objective`` call that follows it reads.
        frontier: List[int] = []

        def status(values: List[int]) -> str:
            if any(_ERROR[values[net]] for net in reachable):
                return "success"
            good = _GOOD[values[site]]
            if good is not None and good == fault.value:
                return "fail"  # activation impossible under assignment
            if good is None:
                return "open"  # activation still pending
            frontier[:] = self._d_frontier(values, frontier_gates)
            if not frontier:
                return "fail"
            if not self._x_path_exists(values, carriers):
                return "fail"
            return "open"

        def objective(values: List[int]) -> Optional[Tuple[int, bool]]:
            if values[site] == _X:
                return site, (not fault.value)
            return self._propagation_objective(values, frontier)

        return self._search(target, fault, status, objective, cone)

    def _search(self, target: str, fault: Optional[StuckFault],
                status, objective, cone: List[int]) -> AtpgResult:
        self.stats.podem_calls += 1
        implication = _Implication(self, cone, fault)
        values, assignment = implication.values, implication.assignment
        decisions: List[List] = []  # [net, value, alternative_tried]
        backtracks = 0

        def outcome(kind: str) -> AtpgResult:
            if kind == DETECTED:
                self.stats.detected += 1
            elif kind == UNTESTABLE:
                self.stats.untestable += 1
            else:
                self.stats.aborted += 1
            vector = None
            if kind == DETECTED:
                nets = self._view.nets
                vector = {nets[net]: value
                          for net, value in assignment.items()}
            return AtpgResult(status=kind, target=target, vector=vector,
                              backtracks=backtracks)

        while True:
            state = status(values)
            if state == "success":
                return outcome(DETECTED)
            if state == "open":
                goal = objective(values)
                if goal is not None:
                    step = self._backtrace(goal[0], goal[1], values)
                    if step is not None and step[0] not in assignment:
                        implication.assign(step[0], step[1])
                        decisions.append([step[0], step[1], False])
                        implication.settle()
                        continue
            # Dead end: flip the deepest untried decision.
            while decisions:
                net, value, tried = decisions.pop()
                implication.assign(net, None)
                if not tried:
                    backtracks += 1
                    self.stats.backtracks += 1
                    if backtracks > self.backtrack_limit:
                        return outcome(ABORTED)
                    implication.assign(net, not value)
                    decisions.append([net, not value, True])
                    break
            else:
                return outcome(UNTESTABLE)
            implication.settle()


# ----------------------------------------------------------------------
# Time-frame expansion
# ----------------------------------------------------------------------
@dataclass
class Unrolled:
    """A sequential network flattened over ``n_frames`` clock cycles.

    Frame-0 flip-flop outputs become pinned pseudo-inputs carrying the
    initial state; a flip-flop's output in frame ``t`` is a buffer of
    its data input in frame ``t-1``.
    """

    network: LogicNetwork
    source: LogicNetwork
    n_frames: int
    pinned: Dict[str, Value]

    def net_at(self, net: str, frame: int) -> str:
        """The unrolled copy of ``net`` in clock cycle ``frame``."""
        if not 0 <= frame < self.n_frames:
            raise ValueError(f"frame {frame} outside 0..{self.n_frames - 1}")
        return f"{net}@{frame}"

    def vectors_from(self, assignment: Mapping[str, bool],
                     fill: bool = False) -> List[Dict[str, bool]]:
        """Map a flat engine assignment back to a per-cycle sequence."""
        vectors = []
        for frame in range(self.n_frames):
            vectors.append({
                pi: bool(assignment.get(self.net_at(pi, frame), fill))
                for pi in self.source.primary_inputs})
        return vectors


def unroll(network: LogicNetwork, n_frames: int,
           initial_state: StateArg = False) -> Unrolled:
    """Flatten ``n_frames`` cycles of ``network`` into one combinational
    network (classic time-frame expansion for shallow state)."""
    if n_frames < 1:
        raise ValueError("need at least one frame")
    flat = LogicNetwork(f"{network.name}#x{n_frames}")
    state = _state_map(network, initial_state)
    pinned: Dict[str, Value] = {}

    for frame in range(n_frames):
        for pi in network.primary_inputs:
            flat.add_input(f"{pi}@{frame}")
    for gate in network.sequential_gates():
        net = f"{gate.output}@0"
        flat.add_input(net)
        pinned[net] = state[gate.output]

    for frame in range(n_frames):
        for gate in network.gates.values():
            if gate.is_sequential:
                if frame == 0:
                    continue  # frame-0 state is a pinned input
                flat.add_gate(f"{gate.name}@{frame}", "buffer",
                              [f"{gate.inputs[0]}@{frame - 1}"],
                              f"{gate.output}@{frame}")
            else:
                flat.add_gate(f"{gate.name}@{frame}", gate.cell_type,
                              [f"{net}@{frame}" for net in gate.inputs],
                              f"{gate.output}@{frame}")
    for out in dict.fromkeys(network.primary_outputs):
        flat.add_output(f"{out}@{n_frames - 1}")
    return Unrolled(network=flat, source=network, n_frames=n_frames,
                    pinned=pinned)


# ----------------------------------------------------------------------
# Combinational ATPG run: per-fault PODEM + compaction + confirmation
# ----------------------------------------------------------------------
@dataclass
class AtpgRun:
    """One full ATPG pass over a fault list."""

    network_name: str
    vectors: List[Dict[str, bool]]
    results: List[AtpgResult]
    #: Faults the compacted vector set provably detects (bit-parallel
    #: fault simulation over the *uncollapsed* list).
    confirmed: List[StuckFault] = field(default_factory=list)
    #: Neither detected nor proven untestable (unclassified: aborted
    #: targets and their equivalence classes, mostly redundant faults
    #: the budget could not prove so).
    missed: List[StuckFault] = field(default_factory=list)
    untestable: List[str] = field(default_factory=list)
    #: Every member of a proven-untestable equivalence class.
    proven_untestable: List[StuckFault] = field(default_factory=list)
    aborted: List[str] = field(default_factory=list)
    stats: EngineStats = field(default_factory=EngineStats)
    n_collapsed: int = 0
    n_faults: int = 0

    @property
    def coverage(self) -> float:
        """Confirmed detections over non-proven-untestable faults.

        Strict: unclassified faults count against coverage even though
        most are redundant faults that merely escaped proof.
        """
        testable = len(self.confirmed) + len(self.missed)
        return len(self.confirmed) / testable if testable else 1.0

    @property
    def efficiency(self) -> float:
        """Classified faults (detected or proven untestable) over all
        faults — the standard ATPG fault-efficiency figure."""
        if not self.n_faults:
            return 1.0
        done = len(self.confirmed) + len(self.proven_untestable)
        return done / self.n_faults

    def format(self) -> str:
        from ..analysis.reporting import format_table

        rows = [["faults", self.n_faults],
                ["collapsed targets", self.n_collapsed],
                ["vectors", len(self.vectors)],
                ["confirmed detected", len(self.confirmed)],
                ["proven untestable", len(self.proven_untestable)],
                ["unclassified", len(self.missed)],
                ["aborted (budget)", len(self.aborted)],
                ["coverage", f"{self.coverage * 100:.2f}%"],
                ["fault efficiency", f"{self.efficiency * 100:.2f}%"],
                ["backtracks", self.stats.backtracks]]
        return format_table(["quantity", "value"], rows,
                            title=f"ATPG run — {self.network_name}")


def generate_tests(network: LogicNetwork,
                   faults: Optional[Sequence[StuckFault]] = None,
                   observed: Optional[Sequence[str]] = None,
                   backtrack_limit: int = DEFAULT_BACKTRACK_LIMIT,
                   compact: bool = True,
                   seed: int = 17,
                   random_phase: int = 64,
                   telemetry: Optional[Telemetry] = None) -> AtpgRun:
    """PODEM test generation for a combinational network.

    The classic two-phase flow: ``random_phase`` seeded random vectors
    are fault-simulated bit-parallel first and every fault they detect
    is dropped from the target list (random patterns catch the easy
    bulk cheaply); PODEM then targets only the random-resistant
    remainder, re-screening the queue against freshly generated
    vectors every few targets.  The fault list is equivalence-collapsed
    (:func:`.compaction.collapse_faults`) before targeting, the vector
    set is optionally compacted (greedy set cover) and the final
    detected-fault set is *confirmed* by bit-parallel fault simulation
    of the full, uncollapsed fault list.  Unassigned inputs in PODEM
    cubes are filled pseudorandomly (seeded) so each vector also
    covers faults it was not targeted at.

    There is no exhaustive-enumeration path here: the random phase is a
    fixed-size sample and cost per PODEM target is bounded by the
    backtrack budget, not by 2^inputs.
    """
    from .compaction import collapse_faults, greedy_compact
    from .faultsim import enumerate_stuck_faults, fault_detect_matrix

    if network.sequential_gates():
        raise ValueError(
            "generate_tests is combinational; use sequential_test_plan "
            "(or unroll) for networks with flip-flops")
    if faults is None:
        faults = enumerate_stuck_faults(network)
    if observed is None:
        observed = list(network.primary_outputs)

    tel = telemetry if telemetry is not None else from_env()
    if tel is None:
        return _generate_tests_impl(network, faults, observed,
                                    backtrack_limit, compact, seed,
                                    random_phase, collapse_faults,
                                    greedy_compact, fault_detect_matrix)
    with tel.span("atpg_run", network=network.name,
                  n_faults=len(faults)) as span:
        run = _generate_tests_impl(network, faults, observed,
                                   backtrack_limit, compact, seed,
                                   random_phase, collapse_faults,
                                   greedy_compact, fault_detect_matrix)
        span.set(n_vectors=len(run.vectors),
                 coverage=run.coverage,
                 n_aborted=len(run.aborted))
        metrics = tel.metrics
        metrics.counter("atpg.podem_calls").add(run.stats.podem_calls)
        metrics.counter("atpg.backtracks").add(run.stats.backtracks)
        metrics.counter("atpg.detected").add(run.stats.detected)
        metrics.counter("atpg.untestable").add(run.stats.untestable)
        metrics.counter("atpg.aborted").add(run.stats.aborted)
    tel.flush_metrics()
    return run


#: Re-screen the PODEM target queue after this many fresh vectors.
_DROP_INTERVAL = 16


def _generate_tests_impl(network, faults, observed, backtrack_limit,
                         compact, seed, random_phase, collapse_faults,
                         greedy_compact, fault_detect_matrix) -> AtpgRun:
    import random as _random

    collapsed = collapse_faults(network, faults, observed=observed)
    engine = PodemEngine(network, observed=observed,
                         backtrack_limit=backtrack_limit)
    rng = _random.Random(seed)
    inputs = network.primary_inputs

    # Phase 1: random vectors knock out the easily detected bulk.
    vectors: List[Dict[str, bool]] = [
        {pi: bool(rng.getrandbits(1)) for pi in inputs}
        for _ in range(random_phase)]
    targets: List[StuckFault] = collapsed.representatives
    if vectors:
        screened = fault_detect_matrix(network, vectors, targets,
                                       observed=observed)
        targets = [f for f in targets if not screened[f]]

    # Phase 2: PODEM on the random-resistant remainder, periodically
    # dropping queued targets the new vectors already detect.
    results: List[AtpgResult] = []
    untestable: List[str] = []
    aborted_faults: List[StuckFault] = []
    fresh: List[Dict[str, bool]] = []
    queue = list(targets)

    def target_fault(fault: StuckFault, active: PodemEngine) -> None:
        result = active.detect(fault)
        results.append(result)
        if result.status == DETECTED:
            cube = dict(result.vector)
            for pi in inputs:
                if pi not in cube:
                    cube[pi] = bool(rng.getrandbits(1))
            vectors.append(cube)
            fresh.append(cube)
        elif result.status == UNTESTABLE:
            untestable.append(result.target)
        else:
            aborted_faults.append(fault)

    while queue:
        if len(fresh) >= _DROP_INTERVAL:
            screened = fault_detect_matrix(network, fresh, queue,
                                           observed=observed)
            queue = [f for f in queue if not screened[f]]
            fresh = []
            if not queue:
                break
        target_fault(queue.pop(0), engine)

    aborted = [f.describe() for f in aborted_faults]
    proven: Set[StuckFault] = set()
    untestable_set = set(untestable)
    for rep, members in collapsed.classes.items():
        if rep.describe() in untestable_set:
            proven.update(members)

    # Phase 3: escalating random mop-up.  Aborted targets are mostly
    # redundant faults the budget could not *prove* untestable, but any
    # detectable stragglers (aborted or simply unlucky) are cheap to
    # rescue with bit-parallel screening.  Up to four rounds, each
    # batch four times the last, run for as long as faults neither
    # detected nor proven untestable remain (a proven fault never sets
    # a detect bit, so screening it could keep no vector); each round
    # keeps the first vector catching each newly caught fault.  The
    # batches are drawn packed, so only kept vectors become dicts.
    detects = fault_detect_matrix(network, vectors, faults,
                                  observed=observed)
    leftovers = [f for f in faults
                 if not detects.get(f, 0) and f not in proven]
    batch = 4 * random_phase
    rescued = False
    for _ in range(4):
        if not leftovers or not random_phase:
            break
        extra = PackedVectors.draw(rng, inputs, batch)
        caught = fault_detect_matrix(network, extra, leftovers,
                                     observed=observed)
        useful: Set[int] = set()
        for mask in caught.values():
            if mask:
                useful.add((mask & -mask).bit_length() - 1)
        if useful:
            vectors.extend(extra.vector(i) for i in sorted(useful))
            leftovers = [f for f in leftovers if not caught[f]]
            rescued = True
        batch *= 4
    if rescued:
        detects = fault_detect_matrix(network, vectors, faults,
                                      observed=observed)
    if compact and vectors:
        keep = greedy_compact(detects, len(vectors))
        vectors = [vectors[i] for i in keep]
        detects = fault_detect_matrix(network, vectors, faults,
                                      observed=observed)
    confirmed = [f for f in faults if detects.get(f, 0)]
    missed = [f for f in faults
              if not detects.get(f, 0) and f not in proven]

    return AtpgRun(network_name=network.name, vectors=vectors,
                   results=results, confirmed=confirmed, missed=missed,
                   untestable=untestable,
                   proven_untestable=[f for f in faults if f in proven],
                   aborted=aborted, stats=engine.stats,
                   n_collapsed=len(collapsed.representatives),
                   n_faults=len(faults))


# ----------------------------------------------------------------------
# Sequential networks: pseudorandom + coverage-hole top-up
# ----------------------------------------------------------------------
@dataclass
class SequentialPlan:
    """The paper's sequential recipe, with ATPG-backed hole top-up."""

    vectors: List[Dict[str, bool]]
    init_cycles: int
    coverage: "ToggleCoverage"  # noqa: F821 - forward ref to .toggle
    growth: List[float]
    topped_up: List[str] = field(default_factory=list)
    unresolved: List[str] = field(default_factory=list)

    def format(self) -> str:
        from ..analysis.reporting import format_table

        rows = [["vectors", len(self.vectors)],
                ["init cycles", self.init_cycles],
                ["toggle coverage", f"{self.coverage.coverage * 100:.1f}%"],
                ["holes topped up", len(self.topped_up)],
                ["holes unresolved", len(self.unresolved)]]
        return format_table(["quantity", "value"], rows,
                            title="Sequential test plan")


def sequential_test_plan(network: LogicNetwork,
                         n_random: int = 256,
                         seed: int = 5,
                         initial_state: StateArg = None,
                         top_up_frames: int = 4,
                         backtrack_limit: int = DEFAULT_BACKTRACK_LIMIT,
                         ) -> SequentialPlan:
    """Toggle-coverage-driven pattern generation for sequential logic.

    1. apply a pseudorandom initialization prefix from the all-X state
       until every flip-flop is known (section 6.6 / ref [13]);
    2. apply LFSR random patterns, accumulating toggle coverage;
    3. for each remaining coverage hole, unroll ``top_up_frames``
       cycles from the *reached* state and ask the PODEM engine for a
       short sequence asserting the missing value, appending it to the
       plan (and its cycles to the coverage) when found.

    The network is reset to ``initial_state`` (default: all-X, the
    honest power-on assumption) before the run, so the plan does not
    depend on whatever was simulated previously.
    """
    from .toggle import ToggleCoverage

    state = _state_map(network, initial_state)
    for gate in network.sequential_gates():
        gate.state = state[gate.output]

    signals = [g.output for g in network.gates.values()]
    coverage = ToggleCoverage(signals=signals)
    applied: List[Dict[str, bool]] = []
    growth: List[float] = []

    def apply(vector: Dict[str, bool]) -> None:
        coverage.observe(network.step(vector))
        applied.append(vector)
        growth.append(coverage.coverage)

    # 1. pseudorandom initialization until the state is known.
    init_vectors = random_vectors(network.primary_inputs,
                                  max(n_random, 64), seed=seed)
    init_cycles = 0
    for vector in init_vectors:
        if all(v is not None for v in network.state().values()):
            break
        apply(vector)
        init_cycles += 1

    # 2. LFSR random patterns with coverage accumulation.
    for vector in random_vectors(network.primary_inputs, n_random,
                                 seed=seed + 1):
        apply(vector)

    # 3. ATPG top-up of the remaining holes via time-frame expansion.
    topped_up: List[str] = []
    unresolved: List[str] = []
    for hole in list(coverage.untoggled()):
        closed = True
        for value in (True, False):
            seen = coverage.seen1 if value else coverage.seen0
            if hole in seen:
                continue
            flat = unroll(network, top_up_frames,
                          initial_state=network.state())
            engine = PodemEngine(flat.network, observed=[],
                                 pinned=flat.pinned,
                                 backtrack_limit=backtrack_limit)
            sequence: Optional[List[Dict[str, bool]]] = None
            for frame in range(top_up_frames):
                result = engine.justify(flat.net_at(hole, frame), value)
                if result:
                    sequence = flat.vectors_from(
                        result.vector)[:frame + 1]
                    break
            if sequence is None:
                closed = False
                continue
            for vector in sequence:
                apply(vector)
        (topped_up if closed else unresolved).append(hole)

    return SequentialPlan(vectors=applied, init_cycles=init_cycles,
                          coverage=coverage, growth=growth,
                          topped_up=topped_up, unresolved=unresolved)
