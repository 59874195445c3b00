"""Modified nodal analysis: unknown numbering, stamping, linear solve.

The system solved each Newton iteration is ``A x = b`` where ``x`` holds
one voltage per non-ground net followed by one current per branch element
(voltage sources).  :class:`MnaStructure` owns the numbering;
:class:`MnaStamper` is the write interface handed to components (see the
sign conventions in :mod:`repro.circuit.components`).

Assembly is split into a *base* part (linear elements + sources at the
current time + companion conductances, which are constant across Newton
iterations of one solve) and a per-iteration nonlinear part, so only the
handful of device stamps is rebuilt inside the Newton loop.

Two assembly engines coexist:

* the **legacy stamping path** (:class:`MnaStamper`, :func:`build_base`,
  :func:`stamp_nonlinear`) resolves net names per stamp and loops over
  components in Python.  It remains the reference implementation and
  the cross-check target of the equivalence tests; select it with
  ``SimOptions(use_compiled=False)``.
* the **compiled path** (:class:`CompiledStamps` / :class:`CompiledSystem`)
  resolves every net and branch name to integer indices once per
  topology, prebuilds fixed-sparsity COO index arrays for the linear,
  gmin and device stamps, and evaluates every diode/BJT junction as one
  vector (gather junction voltages → one exponential + SPICE limiting
  call → scatter stamps).  On the sparse path
  the CSC sparsity pattern and the COO→CSC scatter map are computed once
  and reused by every Newton iteration and transient timestep, so each
  iteration only rewrites the value vector before refactorising.  Every
  sparse factorization is :func:`factor_sparse`: SuperLU ordered and
  blocked for circuit matrices.  SciPy is imported inside the sparse
  sites only, on the first sparse system, so dense runs never load it.

Compiled artifacts are cached per circuit topology via
:func:`structure_for`, keyed on :attr:`Circuit.topology_version`, which
is what lets DC sweeps, parameter sweeps and fault campaigns stop paying
structure-rebuild cost on every solve.  Component *values* are read
again by every solve run — source waveforms per system build;
resistances, device parameters and junction-limiting state once per run
(one operating-point Newton solve, one whole transient) — so mutating
them between runs, as the variation studies do, stays safe.  The
resistor, gmin and voltage-source part of the matrix (the *linear base*)
is stamped once per run too: a transient timestep copies it and adds its
companion stamps.
"""

from __future__ import annotations

import copy
from typing import (TYPE_CHECKING, Callable, Dict, List, NamedTuple,
                    Optional, Sequence, Tuple)

import numpy as np
from numpy.linalg._umath_linalg import solve1 as _solve1

from ..circuit.devices import Bjt, junction_current_vec, pnjlim_vec
from ..circuit.netlist import GROUND, Circuit, Component, SplitTerminal

if TYPE_CHECKING:
    from scipy.sparse import csc_matrix


class SingularMatrixError(RuntimeError):
    """The MNA matrix is singular (floating net, V-source loop, ...)."""


class MnaStructure:
    """Fixed unknown numbering for a circuit.

    Nets are numbered in first-appearance order (ground excluded), branch
    elements after them.  Rebuild the structure after topology mutations
    (fault injection creates a fresh one anyway); :func:`structure_for`
    does the rebuild-on-mutation bookkeeping automatically.
    """

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self.net_index: Dict[str, int] = {}
        for net in circuit.unknown_nets():
            self.net_index[net] = len(self.net_index)
        self.branch_index: Dict[str, int] = {}
        for component in circuit:
            if component.is_branch():
                self.branch_index[component.name] = (
                    len(self.net_index) + len(self.branch_index)
                )
        self.n_nets = len(self.net_index)
        self.n_unknowns = self.n_nets + len(self.branch_index)
        self.nonlinear = [c for c in circuit if c.is_nonlinear()]
        self.junction_list: List[Tuple[str, str]] = []
        for component in self.nonlinear:
            for p, n, _vcrit in component.junctions():
                self.junction_list.append((p, n))
        self._compiled: Optional["CompiledStamps"] = None
        #: ``(options, DeltaContext)`` of the last low-rank campaign
        #: context built on this topology (see ``DeltaContext.cached``).
        self.delta_context = None

    def index(self, net: str) -> int:
        """Matrix index of a net; -1 for ground."""
        if net == GROUND:
            return -1
        try:
            return self.net_index[net]
        except KeyError:
            raise KeyError(f"net {net!r} not in MNA structure") from None

    def compiled(self) -> "CompiledStamps":
        """The compiled stamping tables for this topology (built lazily)."""
        if self._compiled is None:
            CACHE_STATS["compiled_builds"] += 1
            self._compiled = CompiledStamps(self)
        return self._compiled

    def voltages_from(self, x: np.ndarray) -> Callable[[str], float]:
        """A net → volts accessor over the solution vector ``x``."""
        index = self.net_index

        def voltages(net: str) -> float:
            if net == GROUND:
                return 0.0
            return float(x[index[net]])

        return voltages

    def reset_device_states(self) -> None:
        """Clear junction-limiting memory on all nonlinear devices."""
        for component in self.nonlinear:
            reset = getattr(component, "reset_state", None)
            if reset is not None:
                reset()


#: Always-on, per-process cache statistics.  Plain dict increments cost
#: nanoseconds, so these run unconditionally; the telemetry layer
#: snapshots them around campaigns to show what the structure and
#: compiled-stamp caches are buying (or not).
CACHE_STATS = {
    "structure_hits": 0,
    "structure_misses": 0,
    "compiled_builds": 0,
}


def structure_for(circuit: Circuit) -> MnaStructure:
    """Cached :class:`MnaStructure` for ``circuit``.

    Reuses the numbering (and any compiled stamps hanging off it) as long
    as the circuit's topology is unchanged; a mutation bumping
    :attr:`~repro.circuit.netlist.Circuit.topology_version` forces a
    rebuild.  This is what makes repeated ``operating_point`` calls on
    one circuit — DC sweeps, hysteresis legs, campaign references — pay
    the name-resolution cost only once.

    The ``(topology_version, structure)`` entry lives on the circuit
    itself: the structure refers back to its circuit, so a global map
    would keep every solved circuit alive, while an attribute forms a
    cycle the garbage collector frees with the circuit.
    """
    version = getattr(circuit, "topology_version", None)
    entry = getattr(circuit, "_solver_cache", None)
    if entry is not None and entry[0] == version:
        CACHE_STATS["structure_hits"] += 1
        return entry[1]
    CACHE_STATS["structure_misses"] += 1
    structure = MnaStructure(circuit)
    try:
        circuit._solver_cache = (version, structure)
    except AttributeError:  # circuit-like object without attributes
        pass
    return structure


class MnaStamper:
    """Accumulates stamps into dense or sparse storage.

    One stamper is created per solve; ``snapshot_base`` freezes the linear
    part so the Newton loop can ``restore_base`` cheaply each iteration.
    This is the legacy (reference) assembly engine — the hot paths use
    :class:`CompiledStamps` instead.
    """

    def __init__(self, structure: MnaStructure, sparse: bool):
        self.structure = structure
        self.sparse = sparse
        n = structure.n_unknowns
        self._n = n
        self._rhs = np.zeros(n)
        self._limited = False
        self.source_scale = 1.0
        if sparse:
            self._rows: List[int] = []
            self._cols: List[int] = []
            self._vals: List[float] = []
            self._base_matrix: Optional[csc_matrix] = None
        else:
            self._dense = np.zeros((n, n))
            self._base_dense: Optional[np.ndarray] = None
        self._base_rhs: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Raw entry access
    # ------------------------------------------------------------------
    def _add(self, i: int, j: int, value: float) -> None:
        if i < 0 or j < 0 or value == 0.0:
            return
        if self.sparse:
            self._rows.append(i)
            self._cols.append(j)
            self._vals.append(value)
        else:
            self._dense[i, j] += value

    def _add_rhs(self, i: int, value: float) -> None:
        if i >= 0:
            self._rhs[i] += value

    # ------------------------------------------------------------------
    # Component-facing API
    # ------------------------------------------------------------------
    def conductance(self, net_a: str, net_b: str, g: float) -> None:
        """Stamp conductance ``g`` between two nets."""
        a = self.structure.index(net_a)
        b = self.structure.index(net_b)
        self._add(a, a, g)
        self._add(b, b, g)
        self._add(a, b, -g)
        self._add(b, a, -g)

    def current_source(self, net_from: str, net_to: str, i: float) -> None:
        """Independent current ``i`` flowing from ``net_from`` to ``net_to``
        through the element."""
        i *= self.source_scale
        self._add_rhs(self.structure.index(net_from), -i)
        self._add_rhs(self.structure.index(net_to), i)

    def voltage_source(self, component: Component, net_p: str, net_n: str,
                       value: float) -> None:
        """Stamp a branch equation ``v(p) - v(n) = value``."""
        k = self.structure.branch_index[component.name]
        p = self.structure.index(net_p)
        n = self.structure.index(net_n)
        self._add(p, k, 1.0)
        self._add(n, k, -1.0)
        self._add(k, p, 1.0)
        self._add(k, n, -1.0)
        self._add_rhs(k, value * self.source_scale)

    def nonlinear_current(self, net: str, i_op: float,
                          partials: Sequence[Tuple[str, float]],
                          bias: float) -> None:
        """Linearised current ``i_op`` leaving ``net`` into a device.

        ``partials`` are ``(net_k, dI/dV_k)`` and ``bias`` must equal
        ``sum_k g_k * v_k`` evaluated at the device's linearisation point
        (after junction limiting).  Stamps the Norton equivalent.
        """
        row = self.structure.index(net)
        if row < 0:
            return
        for net_k, g in partials:
            self._add(row, self.structure.index(net_k), g)
        self._add_rhs(row, bias - i_op)

    def mark_limited(self) -> None:
        """Called by devices when junction limiting altered the iterate."""
        self._limited = True

    @property
    def limited(self) -> bool:
        return self._limited

    def clear_limited(self) -> None:
        self._limited = False

    # ------------------------------------------------------------------
    # Base snapshot / solve
    # ------------------------------------------------------------------
    def snapshot_base(self) -> None:
        """Freeze the current stamps as the per-iteration starting point."""
        self._base_rhs = self._rhs.copy()
        if self.sparse:
            from scipy.sparse import coo_matrix

            matrix = coo_matrix(
                (self._vals, (self._rows, self._cols)), shape=(self._n, self._n)
            )
            self._base_matrix = matrix.tocsc()
        else:
            self._base_dense = self._dense.copy()

    def restore_base(self) -> None:
        """Drop all stamps added since :meth:`snapshot_base`."""
        if self._base_rhs is None:
            raise RuntimeError("snapshot_base was never called")
        self._rhs = self._base_rhs.copy()
        if self.sparse:
            self._rows, self._cols, self._vals = [], [], []
        else:
            self._dense = self._base_dense.copy()

    def solve(self) -> np.ndarray:
        """Solve the assembled system; raises :class:`SingularMatrixError`."""
        if self.sparse:
            from scipy.sparse import coo_matrix, csc_matrix

            if self._vals:
                extra = coo_matrix(
                    (self._vals, (self._rows, self._cols)),
                    shape=(self._n, self._n)).tocsc()
                matrix = (extra if self._base_matrix is None
                          else self._base_matrix + extra)
            elif self._base_matrix is not None:
                matrix = self._base_matrix
            else:
                matrix = csc_matrix((self._n, self._n))
            x = factor_sparse(matrix).solve(self._rhs)
        else:
            try:
                x = np.linalg.solve(self._dense, self._rhs)
            except np.linalg.LinAlgError as error:
                raise SingularMatrixError(str(error)) from None
        if not np.all(np.isfinite(x)):
            raise SingularMatrixError("solution contains non-finite values")
        return x


# ----------------------------------------------------------------------
# Compiled stamping
# ----------------------------------------------------------------------

def _index_array(structure: MnaStructure, nets: Sequence[str]) -> np.ndarray:
    return np.array([structure.index(net) for net in nets], dtype=np.intp)


#: The four cells a conductance between nets ``(a, b)`` stamps, as
#: ``(row end, column end, sign)`` with ends ``0 = a``, ``1 = b``: the
#: blocks of :func:`_conductance_pattern`, in its order.
_CONDUCTANCE_BLOCKS = ((0, 0, 1.0), (1, 1, 1.0), (0, 1, -1.0), (1, 0, -1.0))


def _conductance_pattern(idx_a: np.ndarray, idx_b: np.ndarray
                         ) -> Tuple[np.ndarray, ...]:
    """COO pattern of ``g`` stamped between net pairs ``(a, b)``.

    Laid out block by block (:data:`_CONDUCTANCE_BLOCKS`), each block
    over every pair in order.  Returns ``(rows, cols, src, sign,
    block)`` with ground entries pruned: per-element values are
    ``values[src] * sign``, and ``block`` is each entry's block.
    """
    ends = (idx_a, idx_b)
    rows = np.concatenate([ends[r] for r, _, _ in _CONDUCTANCE_BLOCKS])
    cols = np.concatenate([ends[c] for _, c, _ in _CONDUCTANCE_BLOCKS])
    sign = np.repeat([s for _, _, s in _CONDUCTANCE_BLOCKS], len(idx_a))
    src = np.tile(np.arange(len(idx_a), dtype=np.intp), 4)
    block = np.repeat(np.arange(4, dtype=np.intp), len(idx_a))
    keep = (rows >= 0) & (cols >= 0)
    return rows[keep], cols[keep], src[keep], sign[keep], block[keep]


def _injection_pattern(idx_from: np.ndarray, idx_to: np.ndarray
                       ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """RHS pattern of current ``i`` flowing from → to through an element
    (``rhs[from] -= i``, ``rhs[to] += i``), ground entries pruned."""
    m = len(idx_from)
    ones = np.ones(m)
    rows = np.concatenate([idx_from, idx_to])
    sign = np.concatenate([-ones, ones])
    src = np.tile(np.arange(m, dtype=np.intp), 2)
    keep = rows >= 0
    return rows[keep], src[keep], sign[keep]


class _LinearCells(NamedTuple):
    """A compile's linear base cell by cell, for
    :meth:`CompiledStamps.overrides`.

    Cells are keyed by their flat dense index ``row * n + col``.
    ``shares[cell]`` holds a cell's contributions in the order
    :meth:`CompiledStamps._linear_base` accumulates them, in five
    groups: the resistors of each of the four conductance blocks
    (:data:`_CONDUCTANCE_BLOCKS`), then the gmin shunts and
    voltage-source incidences.  A derived compile appends its fault
    conductances to the resistor segment, so each of its entries lands
    at the end of its block's group.  ``slots`` maps every cell of a
    sparse base's CSC pattern to its data position; ``None`` for a
    dense base, whose positions are the keys themselves.
    """

    shares: Dict[int, Tuple[Sequence[float], ...]]
    slots: Optional[Dict[int, int]]


#: The shares of a cell the linear segment does not stamp.
_NO_SHARES: Tuple[Sequence[float], ...] = ((), (), (), (), ())


class CompanionSet:
    """Fixed-pattern transient companion stamps.

    One conductance plus one RHS current injection per charge-storage
    element; the pattern is resolved to integer indices once per
    transient and only the ``(geq, ieq)`` values change per timestep.
    The object is also callable with the legacy :class:`MnaStamper` API
    so the reference stamping path accepts it as a ``companions`` hook.
    """

    def __init__(self, structure: MnaStructure,
                 pairs: Sequence[Tuple[str, str]]):
        self.pairs = list(pairs)
        idx_p = _index_array(structure, [p for p, _ in self.pairs])
        idx_n = _index_array(structure, [n for _, n in self.pairs])
        self.rows, self.cols, self.src, self.sign, _ = _conductance_pattern(
            idx_p, idx_n)
        self.rhs_rows, self.rhs_src, self.rhs_sign = _injection_pattern(
            idx_p, idx_n)
        #: Flat dense cells (``row * n + col``) of the matrix pattern.
        self.cells = self.rows * structure.n_unknowns + self.cols
        self.geq = np.zeros(len(self.pairs))
        self.ieq = np.zeros(len(self.pairs))
        #: Sparse-pattern cache slot owned by CompiledStamps.
        self._pattern_cache: Optional[Tuple[int, "_CscPattern"]] = None

    def set_values(self, geq: np.ndarray, ieq: np.ndarray) -> None:
        """Install this step's companion conductances and currents."""
        self.geq = np.asarray(geq, dtype=float)
        self.ieq = np.asarray(ieq, dtype=float)

    def matrix_values(self) -> np.ndarray:
        return self.geq[self.src] * self.sign

    def rhs_values(self) -> np.ndarray:
        return self.ieq[self.rhs_src] * self.rhs_sign

    def __call__(self, stamper: MnaStamper) -> None:
        """Stamp through the legacy component-facing API."""
        for (net_p, net_n), geq, ieq in zip(self.pairs, self.geq, self.ieq):
            stamper.conductance(net_p, net_n, float(geq))
            stamper.current_source(net_p, net_n, float(ieq))


class _FallbackCollector:
    """Duck-typed :class:`MnaStamper` recording integer triplets.

    Nonlinear devices without a compiled model (``device_kind``) stamp
    through this adapter; the triplets are merged into the compiled
    system, so such devices stay correct at legacy-path speed without
    blocking the vectorised fast path for everything else.
    """

    def __init__(self, structure: MnaStructure):
        self.structure = structure
        self.rows: List[int] = []
        self.cols: List[int] = []
        self.vals: List[float] = []
        self.rhs_rows: List[int] = []
        self.rhs_vals: List[float] = []
        self._limited = False

    def _add(self, i: int, j: int, value: float) -> None:
        if i < 0 or j < 0 or value == 0.0:
            return
        self.rows.append(i)
        self.cols.append(j)
        self.vals.append(value)

    def _add_rhs(self, i: int, value: float) -> None:
        if i >= 0:
            self.rhs_rows.append(i)
            self.rhs_vals.append(value)

    def nonlinear_current(self, net: str, i_op: float,
                          partials: Sequence[Tuple[str, float]],
                          bias: float) -> None:
        row = self.structure.index(net)
        if row < 0:
            return
        for net_k, g in partials:
            self._add(row, self.structure.index(net_k), g)
        self._add_rhs(row, bias - i_op)

    def mark_limited(self) -> None:
        self._limited = True

    @property
    def limited(self) -> bool:
        return self._limited

    def matrix_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (np.asarray(self.rows, dtype=np.intp),
                np.asarray(self.cols, dtype=np.intp),
                np.asarray(self.vals, dtype=float))

    def rhs_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        return (np.asarray(self.rhs_rows, dtype=np.intp),
                np.asarray(self.rhs_vals, dtype=float))


class _CscPattern:
    """Fixed CSC sparsity pattern plus COO-slot → data-slot scatter maps.

    A structurally singular pattern raises :class:`SingularMatrixError`
    when it is built (:func:`check_structure`), so the matrices refilled
    on it reach SuperLU unchecked.
    """

    def __init__(self, n: int, static_rows: np.ndarray, static_cols: np.ndarray,
                 nl_rows: np.ndarray, nl_cols: np.ndarray, n_linear: int):
        self.n = n
        #: The static entries open with the linear segment's.
        self.n_linear = n_linear
        rows = np.concatenate([static_rows, nl_rows])
        cols = np.concatenate([static_cols, nl_cols])
        key = cols.astype(np.int64) * n + rows.astype(np.int64)
        uniq, inv = np.unique(key, return_inverse=True)
        self.nnz = len(uniq)
        self.indices = (uniq % n).astype(np.int32)
        counts = np.bincount((uniq // n).astype(np.intp), minlength=n)
        self.indptr = np.concatenate(
            [[0], np.cumsum(counts)]).astype(np.int32)
        inv = inv.ravel()
        self.static_pos = inv[:len(static_rows)]
        self.nl_pos = inv[len(static_rows):]
        check_structure(self.matrix(np.ones(self.nnz)))

    def matrix(self, data: np.ndarray) -> csc_matrix:
        """The CSC matrix on this pattern whose data *is* ``data``, not a
        copy: refilling ``data`` in place refills the matrix."""
        from scipy.sparse import csc_matrix

        matrix = csc_matrix((data, self.indices, self.indptr),
                            shape=(self.n, self.n))
        if not np.shares_memory(matrix.data, data):
            raise RuntimeError("CSC data is not a view of the work buffer")
        return matrix


class _Layout(NamedTuple):
    """The device stamp slots the junction kernel writes, in order.

    ``d_src``/``d_sign`` pick each diode matrix value (the diode's
    conductance and its sign) and ``q_vsel`` the BJT ones out of the
    slot-major ``(3, 3, mq)`` stamp block; the ``rhs`` fields do the same
    for the RHS.  A compile's own layout keeps the slots off ground (its
    pruned pattern); the full layout keeps every slot.
    """

    d_src: np.ndarray
    d_sign: np.ndarray
    d_rhs_src: np.ndarray
    d_rhs_sign: np.ndarray
    q_vsel: np.ndarray
    q_rhs_vsel: np.ndarray

    @classmethod
    def select(cls, nd: int, keep: np.ndarray,
               rhs_keep: np.ndarray) -> "_Layout":
        """The slots ``keep``/``rhs_keep`` mark in the full layout (diode
        slots first, see :meth:`CompiledStamps._build_tables`)."""
        ones = np.ones(nd)
        d_src = np.tile(np.arange(nd, dtype=np.intp), 4)
        d_sign = np.concatenate([ones, ones, -ones, -ones])
        d_keep, d_rhs_keep = keep[:4 * nd], rhs_keep[:2 * nd]
        return cls(d_src[d_keep], d_sign[d_keep],
                   d_src[:2 * nd][d_rhs_keep],
                   np.concatenate([-ones, ones])[d_rhs_keep],
                   np.flatnonzero(keep[4 * nd:]),
                   np.flatnonzero(rhs_keep[2 * nd:]))


def _junction_voltages(X: np.ndarray, terminals: np.ndarray) -> np.ndarray:
    """``(..., 2, m)`` junction (p, n) terminal voltages at iterate(s) ``X``.

    ``terminals`` indexes the last axis of ``X`` (``-1`` reads ground):
    one ``(2, m)`` array for every row, or a ``(B, 2, m)`` stack holding
    each row's own of a ``(B, width)`` ``X``.
    """
    n = X.shape[-1]
    X_ext = np.empty(X.shape[:-1] + (n + 1,))
    X_ext[..., :n] = X
    X_ext[..., n] = 0.0  # ground slot, reached through index -1
    if terminals.ndim == 2:
        return X_ext.take(terminals, axis=-1)
    # Flat indices into the stack: row r's ground (-1) is slot n of row r.
    rows = np.arange(len(X_ext))[:, None, None] * (n + 1)
    return X_ext.reshape(-1).take(terminals % (n + 1) + rows)


class _TerminalMap:
    """Where each terminal of a compiled circuit sits, for renumbering.

    ``nets`` holds the net index of every terminal in circuit order —
    the order :class:`MnaStructure` numbers nets by first appearance —
    and ``roles`` the ``(role, position)`` entries each terminal fills in
    the per-terminal index arrays of :class:`CompiledStamps`.
    """

    def __init__(self, stamps: "CompiledStamps"):
        structure = stamps.structure
        self.slot: Dict[Tuple[str, str], int] = {}
        nets: List[int] = []
        for component in structure.circuit:
            for terminal, net in component.terminals.items():
                self.slot[component.name, terminal] = len(nets)
                nets.append(structure.index(net))
        self.nets = np.array(nets, dtype=np.intp)
        uniq, first = np.unique(self.nets, return_index=True)
        self.first = first[uniq >= 0]  # first appearance of each net

        self.roles: Dict[Tuple[str, str], List[Tuple[str, int]]] = {}
        for role, components, terminal in (
                ("res_a", stamps._resistors, "p"),
                ("res_b", stamps._resistors, "n"),
                ("vs_p", stamps._vsources, "p"),
                ("vs_n", stamps._vsources, "n"),
                ("is_p", stamps._isources, "p"),
                ("is_n", stamps._isources, "n"),
                ("d_p", stamps._diodes, "p"), ("d_n", stamps._diodes, "n"),
                ("q_b", stamps._bjts, "b"), ("q_c", stamps._bjts, "c"),
                ("q_e", stamps._bjts, "e")):
            for position, component in enumerate(components):
                self._add(component.name, terminal, role, position)
        # Junction shunts, in ``junction_list`` order: a diode's (p, n),
        # a BJT's (b, e) then (b, c).
        position = 0
        for component in structure.nonlinear:
            pairs = ((("p", "n"),) if component.device_kind == "diode"
                     else (("b", "e"), ("b", "c")))
            for p, n in pairs:
                self._add(component.name, p, "jct_p", position)
                self._add(component.name, n, "jct_n", position)
                position += 1

    def _add(self, name: str, terminal: str, role: str, position: int
             ) -> None:
        self.roles.setdefault((name, terminal), []).append((role, position))

    def split(self, component: str, terminal: str, n_unknowns: int
              ) -> Tuple[np.ndarray, int, int]:
        """The numbering after ``component.terminal`` moves to a fresh net.

        The injected circuit keeps every component in order and appends
        the rejoining elements, so its nets still number by first
        appearance: the fresh net where the terminal sits, its old net at
        its next use — or at the rejoining resistor, after every
        component — when the terminal was that net's first appearance.
        That is a general permutation, not always one inserted index.
        Returns ``(remap, fresh, old)``: the new index of every unknown
        (branches shift up by one) followed by ``-1`` for ground, the
        fresh net's index, and the old net's (``-1``: ground).
        """
        slot = self.slot[component, terminal]
        old = int(self.nets[slot])
        first = self.first.copy()
        if old >= 0 and first[old] == slot:
            later = np.flatnonzero(self.nets[slot + 1:] == old)
            first[old] = slot + 1 + later[0] if later.size else len(self.nets)
        n_nets = len(first)
        perm = np.empty(n_nets + 1, dtype=np.intp)
        perm[np.argsort(np.append(first, slot))] = np.arange(n_nets + 1)
        remap = np.concatenate([perm[:n_nets],
                                np.arange(n_nets + 1, n_unknowns + 1), [-1]])
        return remap, int(perm[n_nets]), old


class CompiledStamps:
    """Per-topology compiled stamping tables.

    Resolves every net and branch name to an integer index exactly once,
    prebuilds the fixed COO index/sign arrays for linear elements, gmin
    shunts and nonlinear devices, and evaluates every diode/BJT junction
    as one vector.  Source values are read per :meth:`build_system`;
    resistances (through the linear base), device parameters and
    limiting state once per solve run, from :meth:`refresh` on, and the
    limiting state is written back by :meth:`store_states`, so parameter
    mutation between runs stays safe.

    Every table comes from one pattern builder (:meth:`_build_tables`)
    over per-terminal net-index arrays, which :meth:`derive` renumbers to
    produce a faulted circuit's tables without compiling it.
    """

    def __init__(self, structure: MnaStructure):
        self.structure = structure
        circuit = structure.circuit
        self.n_nets = structure.n_nets
        self.n = structure.n_unknowns

        self._resistors: List[Component] = []
        self._vsources: List[Component] = []
        self._isources: List[Component] = []
        for component in circuit:
            kind = component.stamp_kind
            if kind == "conductance":
                self._resistors.append(component)
            elif kind == "vsource":
                self._vsources.append(component)
            elif kind == "isource":
                self._isources.append(component)
            elif type(component).stamp_linear is not Component.stamp_linear:
                raise TypeError(
                    f"{component.name}: {type(component).__name__} stamps "
                    f"a linear part without a compiled stamp_kind "
                    f"('conductance', 'vsource' or 'isource'); declare "
                    f"one, or solve with SimOptions(use_compiled=False)")

        self._diodes: List[Component] = []
        self._bjts: List[Component] = []
        self._nonlinear_fallback: List[Component] = []
        for component in structure.nonlinear:
            kind = component.device_kind
            if kind == "diode":
                self._diodes.append(component)
            elif kind == "bjt":
                self._bjts.append(component)
            else:
                self._nonlinear_fallback.append(component)
        self._n_diodes = len(self._diodes)

        # Net index of every stamped terminal, one array per role.
        def nets(components, terminal):
            return _index_array(structure,
                                [c.net(terminal) for c in components])

        self._nets: Dict[str, np.ndarray] = {
            "res_a": nets(self._resistors, "p"),
            "res_b": nets(self._resistors, "n"),
            "jct_p": _index_array(structure,
                                  [p for p, _ in structure.junction_list]),
            "jct_n": _index_array(structure,
                                  [n for _, n in structure.junction_list]),
            "vs_p": nets(self._vsources, "p"),
            "vs_n": nets(self._vsources, "n"),
            "vs_k": np.array([structure.branch_index[s.name]
                              for s in self._vsources], dtype=np.intp),
            "is_p": nets(self._isources, "p"),
            "is_n": nets(self._isources, "n"),
            "d_p": nets(self._diodes, "p"), "d_n": nets(self._diodes, "n"),
            "q_b": nets(self._bjts, "b"), "q_c": nets(self._bjts, "c"),
            "q_e": nets(self._bjts, "e"),
        }
        #: Conductances a derived compile appends to the resistor segment.
        self._fault_g: Optional[np.ndarray] = None
        #: A derived compile's index of every unknown of the compile it
        #: came from, and back (``None``: the same numbering).
        self.renumber: Optional[np.ndarray] = None
        self.origin: Optional[np.ndarray] = None
        self._terminal_map: Optional[_TerminalMap] = None
        self._full: Optional[_Layout] = None
        self._build_tables()
        self._pattern_nocomp: Optional[_CscPattern] = None
        self.refresh()

    def _build_tables(self, renumbered: bool = True) -> None:
        """The pattern builder: every index table from :attr:`_nets`.

        ``renumbered=False`` rebuilds only the resistor segment, the one
        a derived compile in the same numbering changes.
        """
        nets = self._nets
        (self._res_rows, self._res_cols, self._res_src, self._res_sign,
         self._res_block) = _conductance_pattern(nets["res_a"],
                                                 nets["res_b"])
        if not renumbered:
            return

        (self._gmin_rows, self._gmin_cols,
         _, self._gmin_sign, _) = _conductance_pattern(nets["jct_p"],
                                                       nets["jct_n"])

        vs_p, vs_n, vs_k = nets["vs_p"], nets["vs_n"], nets["vs_k"]
        ones = np.ones(len(vs_k))
        rows = np.concatenate([vs_p, vs_n, vs_k, vs_k])
        cols = np.concatenate([vs_k, vs_k, vs_p, vs_n])
        vals = np.concatenate([ones, -ones, ones, -ones])
        keep = (rows >= 0) & (cols >= 0)
        self._vs_rows, self._vs_cols = rows[keep], cols[keep]
        self._vs_vals = vals[keep]
        self._vs_rhs_rows = vs_k

        (self._is_rhs_rows, self._is_rhs_src,
         self._is_rhs_sign) = _injection_pattern(nets["is_p"], nets["is_n"])

        # Every compiled junction in one vector: diodes, then the BJT
        # base-emitter junctions, then the base-collector ones.
        d_p, d_n = nets["d_p"], nets["d_n"]
        q_b, q_c, q_e = nets["q_b"], nets["q_c"], nets["q_e"]
        self._j_terminals = np.stack([np.concatenate([d_p, q_b, q_b]),
                                      np.concatenate([d_n, q_e, q_c])])

        # Every device stamp slot in kernel order, ground ones included:
        # a diode's conductance pattern between p and n (its Norton RHS,
        # g*v - i, is +1 on p's row and -1 on n's), then the BJTs'
        # slot-major (3, 3, mq) block — rows (c, b, e), cols (b, c, e).
        self.device_rows = np.concatenate(
            [d_p, d_n, d_p, d_n] + [q_c] * 3 + [q_b] * 3 + [q_e] * 3)
        self.device_cols = np.concatenate(
            [d_p, d_n, d_n, d_p] + [q_b, q_c, q_e] * 3)
        self.device_rhs_rows = np.concatenate([d_n, d_p, q_c, q_b, q_e])
        # The nonlinear pattern (fixed across iterations/timesteps) keeps
        # the slots off ground.
        keep = (self.device_rows >= 0) & (self.device_cols >= 0)
        rhs_keep = self.device_rhs_rows >= 0
        self.nl_rows = self.device_rows[keep]
        self.nl_cols = self.device_cols[keep]
        self.nl_cells = self.nl_rows * self.n + self.nl_cols  # flat dense
        self.nl_rhs_rows = self.device_rhs_rows[rhs_keep]
        self._layout = _Layout.select(self._n_diodes, keep, rhs_keep)

    def derive(self, view: Sequence[Tuple[object, object, float]]
               ) -> "CompiledStamps":
        """This compile with a defect's DC view injected.

        ``view`` lists the ``(net_p, net_n, g)`` conductances the
        injected circuit appends to its resistors (see
        :meth:`repro.faults.defects.Defect.delta_conductances`); an
        endpoint :class:`~repro.circuit.netlist.SplitTerminal` is the
        fresh net an open moves that terminal to.  The result equals the
        compile of the injected circuit array for array — the
        per-terminal index arrays renumbered to its first-appearance
        order (:meth:`_TerminalMap.split`), the fault conductances
        appended to the resistor segment, every table from
        :meth:`_build_tables` — without copying, injecting or compiling
        the circuit.  It shares this compile's components and device
        state; :attr:`renumber` maps this compile's unknowns into its
        numbering and :attr:`origin` back (the fresh net to its old net).
        """
        if self._fault_g is not None:
            raise ValueError("derive from a compile, not a derived one")
        splits = {end for p, q, _ in view for end in (p, q)
                  if isinstance(end, SplitTerminal)}
        if len(splits) > 1:
            raise ValueError("a derived compile splits at most one terminal")
        member = copy.copy(self)
        # Its own patterns and linear base: the fault conductances join
        # the resistor segment.
        member._pattern_nocomp = None
        member._base = None
        nets = dict(self._nets)
        resolve = self.structure.index
        if splits:
            if self._nonlinear_fallback:
                raise ValueError("devices without a compiled model "
                                 "resolve nets by name: inject to split")
            (split,) = splits
            if self._terminal_map is None:
                self._terminal_map = _TerminalMap(self)
            remap, fresh, old = self._terminal_map.split(*split, self.n)
            nets = {role: remap[array] for role, array in nets.items()}
            for role, position in self._terminal_map.roles.get(split, ()):
                nets[role][position] = fresh
            member.n_nets, member.n = self.n_nets + 1, self.n + 1
            member.renumber = remap[:-1]
            member.origin = np.empty(member.n, dtype=np.intp)
            member.origin[member.renumber] = np.arange(self.n)
            member.origin[fresh] = old

            def resolve(end):
                if isinstance(end, SplitTerminal):
                    return fresh
                return remap[self.structure.index(end)]

        for role, end in (("res_a", 0), ("res_b", 1)):
            nets[role] = np.concatenate([nets[role], np.array(
                [resolve(term[end]) for term in view], dtype=np.intp)])
        member._nets = nets
        member._fault_g = np.array([g for _, _, g in view], dtype=float)
        member._build_tables(renumbered=bool(splits))
        return member

    # ------------------------------------------------------------------
    # Per-run value/state gathering
    # ------------------------------------------------------------------
    def refresh(self) -> None:
        """Gather device parameters and junction-limiting state, and drop
        the previous run's linear base (:meth:`_linear_base`).

        Called once per solve run (one operating-point Newton solve, one
        whole transient), never per system build: device and resistor
        values cannot change inside a run.
        """
        self._base = None
        diodes, bjts = self._diodes, self._bjts
        self._j_isat = np.array([d.isat for d in diodes]
                                + [q.isat for q in bjts] * 2)
        self._j_nvt = np.array([d.nvt for d in diodes]
                               + [q.nvt for q in bjts] * 2)
        self._j_vcrit = np.array([d._vcrit for d in diodes]
                                 + [q._vcrit for q in bjts] * 2)
        self._q_beta = np.array([[q.beta_f for q in bjts],
                                 [q.beta_r for q in bjts]])
        self._q_vaf = np.array([q.vaf for q in bjts])
        self._has_early = bool((self._q_vaf > 0).any())
        self._limits = np.array([d._v_last for d in diodes]
                                + [q._vbe_last for q in bjts]
                                + [q._vbc_last for q in bjts])

    def snapshot_limits(self) -> np.ndarray:
        """A copy of the junction-limiting state (junction-vector order).

        The low-rank campaign engine starts every defect's solve from
        the snapshot taken at reset, an identical, history-independent
        state — a requirement for serial/parallel result identity.
        """
        return self._limits.copy()

    def store_states(self) -> None:
        """Write limiting state back to the devices.

        Keeps the legacy path (KCL residual checks) seeing exactly the
        state a compiled run would have left.
        """
        nd, mq = self._n_diodes, len(self._bjts)
        limits = self._limits.tolist()
        for diode, v in zip(self._diodes, limits[:nd]):
            diode._v_last = v
        for bjt, vbe, vbc in zip(self._bjts, limits[nd:nd + mq],
                                 limits[nd + mq:]):
            bjt._vbe_last = vbe
            bjt._vbc_last = vbc

    # ------------------------------------------------------------------
    # Nonlinear evaluation (vectorised)
    # ------------------------------------------------------------------
    def eval_nonlinear(self, x: np.ndarray
                       ) -> Tuple[np.ndarray, np.ndarray, bool]:
        """Evaluate all compiled devices linearised at iterate ``x``.

        Uses and updates the stored limiting state.  Returns matrix
        values aligned with ``nl_rows/nl_cols``, RHS values aligned with
        ``nl_rhs_rows``, and the limited flag.
        """
        vals, rhs, limited, self._limits = self._eval_junctions(
            _junction_voltages(x, self._j_terminals), self._limits,
            self._layout)
        return vals, rhs, bool(limited)

    @property
    def supports_batch(self) -> bool:
        """True when every nonlinear device has a compiled pattern.

        Fallback devices stamp through a per-component Python callback
        and cannot be evaluated as a stacked batch; the low-rank campaign
        engine leaves such topologies to the conventional path.
        """
        return not self._nonlinear_fallback

    def eval_nonlinear_batch(self, X, limits, terminals=None):
        """Batched :meth:`eval_nonlinear` over a ``(B, n)`` iterate stack.

        ``X`` holds one Newton iterate per batch member (one member per
        fault system) and ``limits`` each member's *own* ``(B, m)``
        junction-limiting state — limiting history is part of the
        Newton trajectory, so it is never shared across members.
        Returns ``(nl_vals, nl_rhs_vals, limited, limits')``: ``(B, .)``
        value stacks, a per-member limited vector and the updated state.
        Serial and batched calls run the same kernel, so row ``j`` of
        every output is bitwise equal to a serial call with member
        ``j``'s state — the property the low-rank campaign's verdict
        identity rests on.

        Members numbered differently — derived compiles (:meth:`derive`)
        sharing these devices — pass their own ``(B, 2, m)`` junction
        terminal indices as ``terminals`` (``X`` is then as wide as the
        widest member); the values then cover every device stamp slot,
        aligned with each member's ``device_rows``/``device_cols`` and
        ``device_rhs_rows``, ground slots included.
        """
        if terminals is None:
            return self._eval_junctions(
                _junction_voltages(X, self._j_terminals), limits,
                self._layout)
        if self._full is None:
            self._full = _Layout.select(
                self._n_diodes, np.ones(len(self.device_rows), dtype=bool),
                np.ones(len(self.device_rhs_rows), dtype=bool))
        return self._eval_junctions(_junction_voltages(X, terminals),
                                    limits, self._full)

    def _eval_junctions(self, terminals, limits, layout: _Layout):
        """The junction kernel: every device stamp at the junction
        terminal voltages ``terminals`` (``(..., 2, m)``).

        Works over the last axis, so a single iterate and each row of a
        ``(B, n)`` stack perform the same floating-point operations in
        the same order.  One limiting and one exponential call cover the
        whole junction vector; the BJT stamps are one ``(3, 3, mq)``
        block (rows c, b, e; columns b, c, e).  ``layout`` picks the
        stamp slots returned.
        """
        lead = terminals.shape[:-2]
        v, lim = pnjlim_vec(terminals[..., 0, :] - terminals[..., 1, :],
                            limits, self._j_nvt, self._j_vcrit)
        i, g = junction_current_vec(v, self._j_isat, self._j_nvt)

        nd, mq = self._n_diodes, len(self._bjts)
        d_vals, d_rhs = len(layout.d_src), len(layout.d_rhs_src)
        vals = np.empty(lead + (d_vals + len(layout.q_vsel),))
        rhs = np.empty(lead + (d_rhs + len(layout.q_rhs_vsel),))
        if nd:
            vals[..., :d_vals] = g.take(layout.d_src, axis=-1) * layout.d_sign
            rhs[..., :d_rhs] = ((g * v - i).take(layout.d_rhs_src, axis=-1)
                                * layout.d_rhs_sign)
        if mq:
            pair = lead + (2, mq)
            vj = v[..., nd:].reshape(pair)          # (vbe, vbc)
            ij = i[..., nd:].reshape(pair)          # (ide, idc)
            gj = g[..., nd:].reshape(pair)          # (gde, gdc)
            ij_beta = ij / self._q_beta             # (ide/bf, idc/br)
            gj_beta = gj / self._q_beta             # (gde/bf, gdc/br)
            gde, gdc = gj[..., 0, :], gj[..., 1, :]
            i_tran = ij[..., 0, :] - ij[..., 1, :]

            cur = np.empty(lead + (3, mq))          # (ic, ib, ie)
            if self._has_early:
                k, dk = self._early_factor(vj[..., 1, :])
                cur[..., 0, :] = i_tran * k - ij_beta[..., 1, :]
                dic_dvbc = -gdc * k + i_tran * dk - gj_beta[..., 1, :]
                gde_k = gde * k
            else:  # k = 1, dk = 0 for every device: the factor drops out
                cur[..., 0, :] = i_tran - ij_beta[..., 1, :]
                dic_dvbc = -gdc - gj_beta[..., 1, :]
                gde_k = gde
            cur[..., 1, :] = ij_beta[..., 0, :] + ij_beta[..., 1, :]
            cur[..., 2, :] = -(cur[..., 0, :] + cur[..., 1, :])

            stamp = np.empty(lead + (3, 3, mq))
            stamp[..., 0, 0, :] = gde_k + dic_dvbc           # (c, b)
            stamp[..., 0, 1, :] = -dic_dvbc                  # (c, c)
            stamp[..., 0, 2, :] = -gde_k                     # (c, e)
            stamp[..., 1, 0, :] = (gj_beta[..., 0, :]        # (b, b)
                                   + gj_beta[..., 1, :])
            stamp[..., 1, 1:, :] = -gj_beta[..., ::-1, :]    # (b, c), (b, e)
            stamp[..., 2, :, :] = -(stamp[..., 0, :, :]      # (e, .)
                                    + stamp[..., 1, :, :])
            vals[..., d_vals:] = stamp.reshape(lead + (9 * mq,)).take(
                layout.q_vsel, axis=-1)

            # Node voltages (b, c, e) at the limited linearisation point.
            vb = terminals[..., 0, nd:nd + mq]
            node = np.empty(lead + (3, mq))
            node[..., 0, :] = vb
            node[..., 1:, :] = vb[..., None, :] - vj[..., ::-1, :]
            terms = stamp * node[..., None, :, :]
            norton = (terms[..., :, 0, :] + terms[..., :, 1, :]
                      + terms[..., :, 2, :] - cur)
            rhs[..., d_rhs:] = norton.reshape(lead + (3 * mq,)).take(
                layout.q_rhs_vsel, axis=-1)
        return vals, rhs, lim.any(axis=-1), v

    def _early_factor(self, vbc):
        """Early factor ``k = 1 - vbc/vaf`` and its slope, clamped like
        :meth:`repro.circuit.devices.Bjt.currents` (1 and 0 where
        ``vaf`` is 0)."""
        vaf = self._q_vaf
        has_early = vaf > 0
        vaf_div = np.where(has_early, vaf, 1.0)
        k_raw = 1.0 - vbc / vaf_div
        # The scalar rule keeps dk = -1/vaf on the closed interval.
        kmin, kmax = Bjt.EARLY_FACTOR_MIN, Bjt.EARLY_FACTOR_MAX
        k = np.minimum(np.maximum(k_raw, kmin), kmax)
        dk = np.where((k_raw >= kmin) & (k_raw <= kmax), -1.0 / vaf_div, 0.0)
        return np.where(has_early, k, 1.0), np.where(has_early, dk, 0.0)

    # ------------------------------------------------------------------
    # System assembly
    # ------------------------------------------------------------------
    def build_system(self, options, t: Optional[float] = None,
                     source_scale: float = 1.0,
                     companions: Optional[CompanionSet] = None
                     ) -> "CompiledSystem":
        """Assemble the Newton-invariant base for one solve.

        Starts from the run's linear base (:meth:`_linear_base`) and
        stamps the transient ``companions``, if any, on a copy.  The RHS
        (sources at ``t``, then the companions) is built afresh.
        """
        n = self.n
        sparse = n >= options.sparse_threshold

        rhs = np.zeros(n)
        if self._vsources:
            vs_values = np.array(
                [s.waveform.dc() if t is None else s.waveform.value(t)
                 for s in self._vsources])
            np.add.at(rhs, self._vs_rhs_rows, vs_values * source_scale)
        if self._isources:
            is_values = np.array(
                [s.waveform.dc() if t is None else s.waveform.value(t)
                 for s in self._isources]) * source_scale
            np.add.at(rhs, self._is_rhs_rows,
                      is_values[self._is_rhs_src] * self._is_rhs_sign)

        pattern = self._sparse_pattern(companions) if sparse else None
        base = self._linear_base(options.gmin, pattern)
        if companions is not None:
            np.add.at(rhs, companions.rhs_rows, companions.rhs_values())
            base = base.copy()
            # Dense cells, or the CSC data after the linear segment's.
            cells = (companions.cells if pattern is None
                     else pattern.static_pos[pattern.n_linear:])
            np.add.at(base.reshape(-1), cells, companions.matrix_values())
        return CompiledSystem(self, sparse, base, rhs, pattern)

    def _linear_rows_cols(self) -> Tuple[np.ndarray, np.ndarray]:
        """COO rows and columns of the linear segment: resistors, gmin
        shunts, voltage-source incidences."""
        return (np.concatenate([self._res_rows, self._gmin_rows,
                                self._vs_rows]),
                np.concatenate([self._res_cols, self._gmin_cols,
                                self._vs_cols]))

    def _linear_base(self, gmin: float,
                     pattern: Optional[_CscPattern]) -> np.ndarray:
        """The run's linear base: the matrix part the resistors (a
        derived compile's fault conductances included), the junction
        gmin shunts and the voltage-source incidences stamp — dense, or
        the CSC data on ``pattern``.

        Built by a run's first system build and reused by every later
        one with the same ``gmin`` and pattern; :meth:`refresh` drops
        it, so resistor values are read once per run.  Read-only: builds
        stamp on a copy.  ``np.add.at`` accumulates in index order, so
        the linear segment into zeros and then the rest equals one
        accumulation over the whole concatenation, bit for bit.
        """
        key = (gmin, pattern)
        if self._base is not None and self._base[0] == key:
            return self._base[1]
        vals = self._linear_values(gmin)
        if pattern is None:
            base = np.zeros((self.n, self.n))
            np.add.at(base, self._linear_rows_cols(), vals)
        else:
            base = np.zeros(pattern.nnz)
            np.add.at(base, pattern.static_pos[:pattern.n_linear], vals)
        base.flags.writeable = False
        self._base = (key, base)
        return base

    def _linear_values(self, gmin: float) -> np.ndarray:
        """The linear segment's values, aligned with
        :meth:`_linear_rows_cols`."""
        res_g = np.array([r.conductance for r in self._resistors])
        if self._fault_g is not None:
            res_g = np.concatenate([res_g, self._fault_g])
        return np.concatenate([res_g[self._res_src] * self._res_sign,
                               gmin * self._gmin_sign, self._vs_vals])

    def linear_cells(self, gmin: float,
                     pattern: Optional[_CscPattern]) -> "_LinearCells":
        """The linear base :meth:`_linear_base` builds with ``gmin`` on
        ``pattern``, cell by cell in its accumulation order: what
        :meth:`overrides` reads."""
        rows, cols = self._linear_rows_cols()
        groups = np.full(len(rows), 4)  # after the four resistor blocks
        groups[:len(self._res_block)] = self._res_block
        shares: Dict[int, Tuple[List[float], ...]] = {}
        for cell, group, value in zip((rows * self.n + cols).tolist(),
                                      groups.tolist(),
                                      self._linear_values(gmin).tolist()):
            shares.setdefault(cell, ([], [], [], [], []))[group].append(value)
        slots = None
        if pattern is not None:
            pattern_cols = np.repeat(np.arange(self.n),
                                     np.diff(pattern.indptr))
            slots = {cell: slot for slot, cell in enumerate(
                (pattern.indices.astype(np.intp) * self.n
                 + pattern_cols).tolist())}
        return _LinearCells({cell: tuple(map(tuple, groups))
                             for cell, groups in shares.items()}, slots)

    def overrides(self, view: Sequence[Tuple[object, object, float]],
                  cells: "_LinearCells"
                  ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """The base cells ``derive(view)`` changes, with their values.

        A view that only adds conductances between existing nets keeps
        this compile's numbering, device tables and RHS, and on a sparse
        base whose CSC pattern already holds every cell it touches, the
        pattern too.
        Its derived system then differs from this one only in those
        cells.  Returns their positions in the base ``cells`` describes
        (flat dense index, or CSC data position) and the values the
        derived linear base accumulates there, bit for bit: each cell's
        shares with the view's conductances appended to their blocks'
        groups, as :meth:`derive` appends them to the resistor segment.
        ``None`` for any other view, which takes the derived build.
        """
        added: Dict[int, Tuple[List[float], ...]] = {}
        for net_p, net_n, g in view:
            if (isinstance(net_p, SplitTerminal)
                    or isinstance(net_n, SplitTerminal)):
                return None
            ends = (self.structure.index(net_p), self.structure.index(net_n))
            for block, (row, col, sign) in enumerate(_CONDUCTANCE_BLOCKS):
                if ends[row] >= 0 and ends[col] >= 0:
                    added.setdefault(ends[row] * self.n + ends[col],
                                     ([], [], [], []))[block].append(
                        float(g) * sign)
        positions, values = [], []
        for cell, joined in added.items():
            if cells.slots is None:
                position = cell
            else:
                position = cells.slots.get(cell)
                if position is None:  # the derived pattern gains the cell
                    return None
            shares = cells.shares.get(cell, _NO_SHARES)
            # One addition at a time, in np.add.at's order (never sum(),
            # which compensates on Python 3.12+).
            value = 0.0
            for block in range(4):
                for share in shares[block]:
                    value += share
                for share in joined[block]:
                    value += share
            for share in shares[4]:
                value += share
            positions.append(position)
            values.append(value)
        return np.array(positions, dtype=np.intp), np.array(values)

    def _sparse_pattern(self, companions: Optional[CompanionSet]
                        ) -> _CscPattern:
        """The CSC pattern + scatter maps of the linear segment followed
        by the ``companions``' entries, built once (symbolic-analysis
        reuse) and cached on this compile, or with companions on the
        :class:`CompanionSet`."""
        if companions is None:
            if self._pattern_nocomp is not None:
                return self._pattern_nocomp
        else:
            cached = companions._pattern_cache
            if cached is not None and cached[0] == id(self):
                return cached[1]
        rows, cols = self._linear_rows_cols()
        n_linear = len(rows)
        if companions is not None:
            rows = np.concatenate([rows, companions.rows])
            cols = np.concatenate([cols, companions.cols])
        pattern = _CscPattern(self.n, rows, cols, self.nl_rows,
                              self.nl_cols, n_linear)
        if companions is None:
            self._pattern_nocomp = pattern
        else:
            companions._pattern_cache = (id(self), pattern)
        return pattern


#: :func:`factor_sparse`'s SuperLU settings: minimum-degree ordering on
#: ``A^T + A``, no supernode amalgamation.
_PERMC_SPEC = "MMD_AT_PLUS_A"
_RELAX = 1
_PANEL_SIZE = 1


def check_structure(matrix) -> None:
    """Raise :class:`SingularMatrixError` when every matrix on the
    sparsity pattern of the square sparse ``matrix`` is singular.

    That is when its structural rank, the size of a maximum matching of
    rows to columns over the stored entries, falls short, as a
    voltage-source loop makes it.  SuperLU set up as
    :func:`factor_sparse` sets it up can crash the interpreter on such
    a matrix instead of reporting it singular.
    """
    from scipy.sparse.csgraph import structural_rank

    n = matrix.shape[0]
    rank = structural_rank(matrix)
    if rank < n:
        raise SingularMatrixError(
            f"structurally singular matrix: structural rank {rank} of {n}")


def factor_sparse(matrix, checked: bool = False):
    """SuperLU factorization of a CSC circuit matrix; every sparse
    factorization goes through here.

    Set up the way circuit simulators factor (KLU: Davis & Palamadai
    Natarajan, "Algorithm 907: KLU, a direct sparse solver for circuit
    simulation problems", ACM TOMS 37(3), 2010).  MNA matrices are
    near-symmetric in structure, fill in little and have tiny
    supernodes, so a minimum-degree ordering on ``A^T + A`` beats
    SuperLU's default COLAMD, and no supernode amalgamation beats its
    relaxed supernodes and panels.  The pivot threshold keeps its
    default, partial pivoting: voltage-source branch rows have zero
    diagonals.  Raises :class:`SingularMatrixError` on a singular matrix.
    The pattern is checked first (:func:`check_structure`) unless
    ``checked`` says it already was, as a :class:`_CscPattern`'s is
    when it is built.
    """
    from scipy.sparse.linalg import splu

    if not checked:
        check_structure(matrix)
    try:
        return splu(matrix, permc_spec=_PERMC_SPEC, relax=_RELAX,
                    panel_size=_PANEL_SIZE)
    except RuntimeError as error:
        raise SingularMatrixError(str(error)) from None


def _raise_singular(error: str, flag: int) -> None:
    raise SingularMatrixError("Singular matrix")


@np.errstate(call=_raise_singular, invalid="call", over="ignore",
             divide="ignore", under="ignore")
def _solve_dense(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``np.linalg.solve(matrix, rhs)`` of a float matrix and a 1-D
    ``rhs``, bit for bit: the ``solve1`` gufunc it runs, under its error
    policy (a singular matrix raises), without its argument handling."""
    return _solve1(matrix, rhs, signature="dd->d")


def solve_direct(matrix, rhs: np.ndarray, sparse: bool) -> np.ndarray:
    """One factorization and solve of an assembled dense or CSC matrix;
    raises :class:`SingularMatrixError` on a singular matrix or a
    non-finite solution.  A CSC matrix's pattern must be checked
    already (:func:`check_structure`): a compiled system's or batch
    member's is, when it is built."""
    if sparse:
        x_new = factor_sparse(matrix, checked=True).solve(rhs)
    else:
        x_new = _solve_dense(matrix, rhs)
    if not np.isfinite(x_new).all():
        raise SingularMatrixError("solution contains non-finite values")
    return x_new


class CompiledSystem:
    """One solve's assembled base plus the per-iteration fast path.

    ``assemble`` restamps only the nonlinear devices (vectorised), reuses
    the frozen base matrix/RHS and — on the sparse path — the cached CSC
    pattern and one CSC matrix, refilled in place each iteration;
    ``iterate`` solves the assembled system directly.
    """

    def __init__(self, stamps: CompiledStamps, sparse: bool,
                 base: np.ndarray, rhs_base: np.ndarray,
                 pattern: Optional[_CscPattern]):
        self.stamps = stamps
        self.sparse = sparse
        self.n = stamps.n
        self.rhs_base = rhs_base
        self.pattern = pattern
        # The base matrix (CSC data on the sparse path); read-only when
        # it is the run's linear base itself.
        if sparse:
            self.base_data = base
            # The sparse matrix every stamp refills: its data views
            # ``_work``; made by the first stamp.
            self._work: Optional[np.ndarray] = None
            self._matrix: Optional[csc_matrix] = None
        else:
            self.base_dense = base

    def assemble(self, x: np.ndarray):
        """Assemble the system linearised at iterate ``x``.

        Returns ``(matrix, rhs, limited)`` where ``matrix`` is a fresh
        dense ndarray, or on the sparse path this system's one CSC
        matrix, whose values the next :meth:`stamp` overwrites (use it
        before assembling again), and ``limited`` reports junction
        limiting at this iterate.
        """
        stamps = self.stamps
        nl_vals, nl_rhs_vals, limited = stamps.eval_nonlinear(x)

        fb = None
        if stamps._nonlinear_fallback:
            fb = _FallbackCollector(stamps.structure)
            voltages = stamps.structure.voltages_from(x)
            for component in stamps._nonlinear_fallback:
                component.stamp_nonlinear(fb, voltages)
            limited = limited or fb.limited
        matrix, rhs = self.stamp(nl_vals, nl_rhs_vals, fb)
        return matrix, rhs, limited

    def stamp(self, nl_vals: np.ndarray, nl_rhs_vals: np.ndarray,
              fb: Optional[_FallbackCollector] = None):
        """``(matrix, rhs)`` from evaluated device stamp values.

        ``nl_vals``/``nl_rhs_vals`` are aligned with the compiled
        nonlinear pattern (one :meth:`CompiledStamps.eval_nonlinear`
        result, or one row of a batched evaluation); ``fb`` carries the
        fallback devices' stamps.  The dense matrix is fresh; the sparse
        one is this system's CSC matrix, refilled in place, unless
        fallback stamps make a new one, whose pattern is checked here.
        """
        stamps = self.stamps
        rhs = self.rhs_base.copy()
        np.add.at(rhs, stamps.nl_rhs_rows, nl_rhs_vals)
        if fb is not None:
            fb_rhs_rows, fb_rhs_vals = fb.rhs_arrays()
            np.add.at(rhs, fb_rhs_rows, fb_rhs_vals)

        if self.sparse:
            if self._matrix is None:
                self._work = np.empty_like(self.base_data)
                self._matrix = self.pattern.matrix(self._work)
            np.copyto(self._work, self.base_data)
            np.add.at(self._work, self.pattern.nl_pos, nl_vals)
            matrix = self._matrix
            if fb is not None:
                from scipy.sparse import coo_matrix

                rows, cols, vals = fb.matrix_arrays()
                matrix = matrix + coo_matrix(
                    (vals, (rows, cols)), shape=(self.n, self.n)).tocsc()
                check_structure(matrix)
        else:
            matrix = self.base_dense.copy()
            np.add.at(matrix.reshape(-1), stamps.nl_cells, nl_vals)
            if fb is not None:
                rows, cols, vals = fb.matrix_arrays()
                np.add.at(matrix, (rows, cols), vals)
        return matrix, rhs

    def solve_assembled(self, matrix, rhs: np.ndarray) -> np.ndarray:
        """Direct solve of an assembled system (one factorization)."""
        return solve_direct(matrix, rhs, self.sparse)

    def iterate(self, x: np.ndarray) -> Tuple[np.ndarray, bool]:
        """One Newton step: stamp at ``x``, solve, report limiting."""
        matrix, rhs, limited = self.assemble(x)
        return self.solve_assembled(matrix, rhs), limited


def build_base(structure: MnaStructure, options, t: Optional[float],
               source_scale: float = 1.0,
               companions: Optional[Callable[[MnaStamper], None]] = None) -> MnaStamper:
    """Assemble the Newton-invariant part of the system (legacy path).

    ``t`` is the source evaluation time (``None`` for DC).  ``companions``
    optionally stamps charge-storage companion models (transient only).
    Junction gmin shunts are included here so the gmin-stepping homotopy
    just rebuilds the base with a different ``options.gmin``.
    """
    sparse = structure.n_unknowns >= options.sparse_threshold
    stamper = MnaStamper(structure, sparse)
    stamper.source_scale = source_scale
    for component in structure.circuit:
        component.stamp_linear(stamper, t)
    gmin = options.gmin
    if gmin > 0:
        for p, n in structure.junction_list:
            stamper.conductance(p, n, gmin)
    if companions is not None:
        companions(stamper)
    stamper.snapshot_base()
    return stamper


def stamp_nonlinear(structure: MnaStructure, stamper: MnaStamper,
                    x: np.ndarray) -> None:
    """Stamp all nonlinear devices linearised at iterate ``x``."""
    voltages = structure.voltages_from(x)
    for component in structure.nonlinear:
        component.stamp_nonlinear(stamper, voltages)
