"""Five-valued D-calculus truth tables, pinned per library cell.

The calculus is the semantic foundation of the PODEM engine: every
entry of every cell's 5-valued truth table is checked against an
independent two-machine reference (good and faulty copies enumerated
over all binary completions of the X inputs), and the classic
propagation identities are pinned explicitly so a sign error cannot
hide inside the derived tables.
"""

import itertools

import pytest

from repro.cml.cells import CELL_BUILDERS
from repro.testgen import D, DBAR, FIVE_VALUES, ONE, X, ZERO, dcalc_eval
from repro.testgen.dcalc import fault_value, from_pair
from repro.testgen.logic import LogicNetwork

COMBINATIONAL = sorted(LogicNetwork.COMBINATIONAL)


def _cell_eval(cell_type):
    template = CELL_BUILDERS[cell_type]()
    return template.logic_eval, len(template.logic_inputs)


def _reference(eval_fn, inputs):
    """Two independent machines, exhaustive X-completion per machine."""
    def component(values):
        unknown = [i for i, v in enumerate(values) if v is None]
        seen = set()
        for bits in itertools.product([False, True], repeat=len(unknown)):
            complete = list(values)
            for where, bit in zip(unknown, bits):
                complete[where] = bit
            seen.add(eval_fn(*complete)[0])
        return seen.pop() if len(seen) == 1 else None

    return from_pair(component([v.good for v in inputs]),
                     component([v.faulty for v in inputs]))


class TestTruthTables:
    @pytest.mark.parametrize("cell_type", COMBINATIONAL)
    def test_every_row_matches_two_machine_reference(self, cell_type):
        eval_fn, n_inputs = _cell_eval(cell_type)
        for row in itertools.product(FIVE_VALUES, repeat=n_inputs):
            assert dcalc_eval(eval_fn, row) is _reference(eval_fn, row), \
                f"{cell_type}{tuple(v.symbol for v in row)}"

    @pytest.mark.parametrize("cell_type", COMBINATIONAL)
    def test_binary_rows_reduce_to_boolean_function(self, cell_type):
        """On {0,1} inputs the calculus is just the cell's function."""
        eval_fn, n_inputs = _cell_eval(cell_type)
        lift = {False: ZERO, True: ONE}
        for bits in itertools.product([False, True], repeat=n_inputs):
            expected = lift[eval_fn(*bits)[0]]
            assert dcalc_eval(eval_fn, [lift[b] for b in bits]) is expected

    def test_truth_table_helper_is_complete(self):
        """The symbol table built from dcalc_eval spans all 5**n rows."""
        eval_fn, n_inputs = _cell_eval("and2")
        table = {tuple(v.symbol for v in row): dcalc_eval(eval_fn, row).symbol
                 for row in itertools.product(FIVE_VALUES, repeat=n_inputs)}
        assert len(table) == 5 ** n_inputs
        assert table[("D", "1")] == "D"
        assert table[("D", "0")] == "0"
        assert table[("D", "X")] == "X"


class TestPropagationIdentities:
    """The classic D-calculus identities, written out by hand."""

    def test_and2(self):
        eval_fn, _ = _cell_eval("and2")
        assert dcalc_eval(eval_fn, [D, ONE]) is D
        assert dcalc_eval(eval_fn, [D, ZERO]) is ZERO
        assert dcalc_eval(eval_fn, [D, D]) is D
        assert dcalc_eval(eval_fn, [D, DBAR]) is ZERO
        assert dcalc_eval(eval_fn, [ZERO, X]) is ZERO

    def test_or2(self):
        eval_fn, _ = _cell_eval("or2")
        assert dcalc_eval(eval_fn, [D, ZERO]) is D
        assert dcalc_eval(eval_fn, [D, ONE]) is ONE
        assert dcalc_eval(eval_fn, [D, DBAR]) is ONE
        assert dcalc_eval(eval_fn, [ONE, X]) is ONE

    def test_inverter_and_buffer(self):
        inv, _ = _cell_eval("inverter")
        buf, _ = _cell_eval("buffer")
        assert dcalc_eval(inv, [D]) is DBAR
        assert dcalc_eval(inv, [DBAR]) is D
        assert dcalc_eval(inv, [X]) is X
        assert dcalc_eval(buf, [D]) is D

    def test_xor2(self):
        eval_fn, _ = _cell_eval("xor2")
        assert dcalc_eval(eval_fn, [D, ZERO]) is D
        assert dcalc_eval(eval_fn, [D, ONE]) is DBAR
        assert dcalc_eval(eval_fn, [D, D]) is ZERO
        assert dcalc_eval(eval_fn, [D, DBAR]) is ONE

    def test_mux2_routes_the_selected_error(self):
        eval_fn, _ = _cell_eval("mux2")
        # mux2 inputs: (a, b, select) — select=0 routes a, 1 routes b.
        assert dcalc_eval(eval_fn, [D, ZERO, ZERO]) is D
        assert dcalc_eval(eval_fn, [D, ZERO, ONE]) is ZERO
        # Equal data dominate an unknown select, even carrying an error.
        assert dcalc_eval(eval_fn, [D, D, X]) is D


class TestCalculusPrimitives:
    def test_from_pair_canonicalizes_partial_knowledge_to_x(self):
        assert from_pair(True, None) is X
        assert from_pair(None, False) is X
        assert from_pair(True, False) is D
        assert from_pair(False, True) is DBAR
        assert from_pair(True, True) is ONE
        assert from_pair(False, False) is ZERO

    def test_fault_activation(self):
        # A stuck-at-v site carries an error only when driven to not-v.
        assert fault_value(True, False) is DBAR
        assert fault_value(False, True) is D
        assert fault_value(True, True) is ONE
        assert fault_value(False, False) is ZERO
        assert fault_value(True, None) is X

    def test_error_and_known_flags(self):
        assert D.is_error and DBAR.is_error
        assert not ONE.is_error and not ZERO.is_error
        assert not X.is_known and ONE.is_known

    def test_atpg_flat_tables_agree_with_dcalc_eval(self):
        """The engine's precomputed base-5 tables are exactly the
        calculus — the perf path cannot drift from the reference."""
        from repro.testgen.atpg import _cell_table

        for cell_type in COMBINATIONAL:
            eval_fn, n_inputs = _cell_eval(cell_type)
            flat = _cell_table(cell_type, eval_fn, n_inputs)
            assert len(flat) == 5 ** n_inputs
            for row_index, row in enumerate(
                    itertools.product(FIVE_VALUES, repeat=n_inputs)):
                assert flat[row_index] is dcalc_eval(eval_fn, row)
