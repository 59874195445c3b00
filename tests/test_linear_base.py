"""The per-run linear base of compiled system assembly.

A compiled solve run (one operating-point Newton solve, one whole
transient) stamps the resistor, gmin and voltage-source part of the
matrix once; every system build of the run copies that base and stamps
the companions on top.  ``np.add.at`` accumulates in index order, so
this must equal assembling each system in one accumulation over all its
segments, as every build did before the base was shared.  These tests
pin every built system to that reference, array for array, and pin the
run boundaries: a new run sees a changed gmin, and a derived compile
never reads its parent's base.
"""

import importlib
from dataclasses import replace

import numpy as np
import pytest
from scipy.sparse import csc_matrix

from repro.circuit import Resistor
from repro.cml import NOMINAL, buffer_chain
from repro.faults import Pipe, inject
from repro.sim import operating_point, transient
from repro.sim.mna import (CompanionSet, CompiledStamps, _CscPattern,
                           structure_for)
from repro.sim.options import SimOptions

transient_module = importlib.import_module("repro.sim.transient")

DENSE = SimOptions(sparse_threshold=10_000)
SPARSE = SimOptions(sparse_threshold=1)
SOLVERS = pytest.mark.parametrize("options", [DENSE, SPARSE],
                                  ids=["dense", "sparse"])
T_STOP = 2e-9
DT = 20e-12


def reference_system(stamps, options, t=None, source_scale=1.0,
                     companions=None):
    """One build assembled in a single accumulation over the concatenated
    segments: resistors, gmin shunts, voltage-source incidences, then
    companions.  Returns ``(dense matrix or CSC data, rhs, CSC pattern
    or None)``."""
    n = stamps.n
    res_g = np.array([r.conductance for r in stamps._resistors])
    if stamps._fault_g is not None:
        res_g = np.concatenate([res_g, stamps._fault_g])
    rows = [stamps._res_rows, stamps._gmin_rows, stamps._vs_rows]
    cols = [stamps._res_cols, stamps._gmin_cols, stamps._vs_cols]
    vals = [res_g[stamps._res_src] * stamps._res_sign,
            options.gmin * stamps._gmin_sign, stamps._vs_vals]
    n_linear = sum(len(r) for r in rows)

    def value(source):
        return (source.waveform.dc() if t is None
                else source.waveform.value(t))

    rhs = np.zeros(n)
    if stamps._vsources:
        np.add.at(rhs, stamps._vs_rhs_rows,
                  np.array([value(s) for s in stamps._vsources])
                  * source_scale)
    if stamps._isources:
        currents = np.array([value(s) for s in stamps._isources]) * (
            source_scale)
        np.add.at(rhs, stamps._is_rhs_rows,
                  currents[stamps._is_rhs_src] * stamps._is_rhs_sign)
    if companions is not None:
        rows.append(companions.rows)
        cols.append(companions.cols)
        vals.append(companions.matrix_values())
        np.add.at(rhs, companions.rhs_rows, companions.rhs_values())
    rows, cols, vals = (np.concatenate(a) for a in (rows, cols, vals))
    if n >= options.sparse_threshold:
        pattern = _CscPattern(n, rows, cols, stamps.nl_rows,
                              stamps.nl_cols, n_linear)
        data = np.zeros(pattern.nnz)
        np.add.at(data, pattern.static_pos, vals)
        return data, rhs, pattern
    dense = np.zeros((n, n))
    np.add.at(dense, (rows, cols), vals)
    return dense, rhs, None


@pytest.fixture
def builds(monkeypatch):
    """Check every system built during the test against
    :func:`reference_system`; the list of checked builds' companions."""
    checked = []
    build = CompiledStamps.build_system

    def checking(self, options, t=None, source_scale=1.0, companions=None):
        system = build(self, options, t, source_scale, companions)
        matrix, rhs, pattern = reference_system(self, options, t,
                                                source_scale, companions)
        assert system.rhs_base.tobytes() == rhs.tobytes()
        assert system.sparse == (pattern is not None)
        if pattern is None:
            assert system.base_dense.tobytes() == matrix.tobytes()
        else:
            for name in ("indices", "indptr", "static_pos", "nl_pos"):
                assert np.array_equal(getattr(system.pattern, name),
                                      getattr(pattern, name)), name
            assert system.base_data.tobytes() == matrix.tobytes()
        checked.append(companions)
        return system

    monkeypatch.setattr(CompiledStamps, "build_system", checking)
    return checked


@pytest.fixture
def steps(monkeypatch):
    """``(h, trapezoidal)`` of every companion-model step prepared."""
    prepared = []
    prepare = transient_module._CompanionState.prepare

    def recording(self, h, trapezoidal):
        prepared.append((h, trapezoidal))
        return prepare(self, h, trapezoidal)

    monkeypatch.setattr(transient_module._CompanionState, "prepare",
                        recording)
    return prepared


def _piped_chain():
    return inject(buffer_chain(NOMINAL, 3, 1e9).circuit, Pipe("X2.Q3", 4e3))


def _chain():
    return buffer_chain(NOMINAL, 2, 1e9).circuit


@SOLVERS
@pytest.mark.parametrize("mode", ["fixed", "halving"])
def test_every_transient_system_equals_reference_assembly(
        options, mode, builds, steps):
    """Trapezoidal steps, backward-Euler restarts and halved steps after
    a Newton failure: every system of the run equals the
    single-accumulation assembly."""
    circuit = _piped_chain()
    initial = operating_point(circuit, options)
    n_dc = len(builds)
    if mode == "halving":
        options = replace(options, max_nr_iterations=4, max_step_halvings=6)
    result = transient(circuit, T_STOP, DT, options, initial=initial)

    transient_builds = builds[n_dc:]
    assert len(transient_builds) == len(steps) >= len(result.times) - 1
    assert all(isinstance(c, CompanionSet) for c in transient_builds)
    assert {trapezoidal for _, trapezoidal in steps} == {True, False}
    lengths = {round(h / DT, 9) for h, _ in steps}
    if mode == "halving":
        assert {0.5, 0.25} <= lengths


class _GenericResistor(Resistor):
    """A resistor that declares no compiled stamp."""

    stamp_kind = None


def test_linear_component_without_stamp_kind_is_refused():
    """The compiled engine stamps a linear part only through a declared
    ``stamp_kind``: compiling a component that overrides
    ``stamp_linear`` without one raises, naming it.  The legacy engine
    still stamps it."""
    chain = buffer_chain(NOMINAL, 2, 1e9)
    circuit = chain.circuit
    out_p, out_n = chain.output_nets[-1]
    circuit.add(_GenericResistor("RX", out_p, out_n, 20e3))
    with pytest.raises(TypeError, match="RX"):
        operating_point(circuit)
    reference = buffer_chain(NOMINAL, 2, 1e9).circuit
    reference.add(Resistor("RX", out_p, out_n, 20e3))
    legacy = SimOptions(use_compiled=False)
    assert (operating_point(circuit, legacy).x.tobytes()
            == operating_point(reference, legacy).x.tobytes())


def test_base_follows_gmin_and_solver_within_a_run(builds):
    """The base is keyed by gmin and by the dense or sparse pattern, so
    builds that change either inside one run still equal the
    reference."""
    stamps = structure_for(_piped_chain()).compiled()
    stamps.refresh()
    for options in (DENSE, replace(DENSE, gmin=1e-6), SPARSE,
                    replace(SPARSE, gmin=1e-6), DENSE):
        stamps.build_system(options)
    assert len(builds) == 5


@SOLVERS
def test_gmin_change_between_runs_matches_fresh_circuit(options):
    circuit = _chain()
    before = transient(circuit, T_STOP, DT, options)
    changed = replace(options, gmin=1e-6)
    after = transient(circuit, T_STOP, DT, changed)
    expected = transient(_chain(), T_STOP, DT, changed)
    np.testing.assert_array_equal(after.times, expected.times)
    assert after.states.tobytes() == expected.states.tobytes()
    assert after.stats.iterations == expected.stats.iterations
    assert not np.array_equal(before.states, after.states)


@SOLVERS
def test_run_base_is_read_only_and_left_intact(options):
    """Builds stamp on copies: after a whole transient the run's base is
    still the linear part alone, and it cannot be written."""
    circuit = _chain()
    transient(circuit, T_STOP, DT, options)
    stamps = structure_for(circuit).compiled()
    (gmin, pattern), base = stamps._base
    assert gmin == options.gmin
    assert not base.flags.writeable
    linear, _, _ = reference_system(stamps, DENSE)
    if pattern is not None:
        base = csc_matrix((base, pattern.indices, pattern.indptr),
                          shape=linear.shape).toarray()
    assert base.tobytes() == linear.tobytes()
    with pytest.raises(ValueError):
        stamps._base[1][0] += 1.0


def test_split_accumulation_equals_one_accumulation():
    """The numpy fact the base rests on: ``np.add.at`` accumulates in
    index order, so a first segment into zeros, then the rest on a copy
    through flat cells, equals one accumulation over both through 2-D
    indices, bit for bit, duplicates included; another order differs."""
    rng = np.random.default_rng(1234)
    n, k, split = 5, 60, 35
    rows = rng.integers(0, n, size=k)
    cols = rng.integers(0, n, size=k)
    vals = rng.standard_normal(k) * 10.0 ** rng.integers(-12, 4, size=k)
    one = np.zeros((n, n))
    np.add.at(one, (rows, cols), vals)
    base = np.zeros((n, n))
    np.add.at(base, (rows[:split], cols[:split]), vals[:split])
    two = base.copy()
    np.add.at(two.reshape(-1), rows[split:] * n + cols[split:], vals[split:])
    assert two.tobytes() == one.tobytes()
    reordered = np.zeros((n, n))
    np.add.at(reordered, (rows[::-1], cols[::-1]), vals[::-1])
    assert reordered.tobytes() != one.tobytes()
