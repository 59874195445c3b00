"""A structurally singular system raises on the sparse path.

SuperLU, set up as ``mna.factor_sparse`` sets it up, can kill the
interpreter with SIGSEGV on a structurally singular matrix (a
voltage-source loop) instead of reporting it singular, depending on
heap layout.  So every pattern is checked before it reaches SuperLU,
and the solves below run in fresh interpreters, several times each: a
crash would otherwise end the whole test run, and one interpreter's
heap layout proves little.  Each expects the check's own message, as
SuperLU reports some of these matrices singular itself when it does not
crash.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.cml import NOMINAL, buffer_chain
from repro.sim.mna import SingularMatrixError, _FallbackCollector, structure_for
from repro.sim.options import SimOptions

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

#: Two parallel 1 V sources across a 1 kOhm resistor, solved sparse on
#: the compiled (``sys.argv[1] == "1"``) or the legacy engine.
SOURCE_LOOP = """
import sys
from repro.circuit import Circuit, Resistor, VoltageSource
from repro.sim import ConvergenceError, SimOptions, operating_point

circuit = Circuit()
circuit.add(VoltageSource("V1", "a", "0", 1.0))
circuit.add(VoltageSource("V2", "a", "0", 1.0))
circuit.add(Resistor("R1", "a", "0", 1e3))
options = SimOptions(sparse_threshold=0, use_compiled=sys.argv[1] == "1")
try:
    operating_point(circuit, options)
except ConvergenceError as error:
    print(type(error).__name__, error)
"""

#: The source loop's matrix, factored bare.
BARE_MATRIX = """
import numpy as np
from scipy.sparse import csc_matrix
from repro.sim.mna import SingularMatrixError, factor_sparse

matrix = csc_matrix(np.array([[1e-3, 1.0, 1.0], [1.0, 0.0, 0.0],
                              [1.0, 0.0, 0.0]]))
try:
    factor_sparse(matrix)
except SingularMatrixError as error:
    print(type(error).__name__, error)
"""


def _run(code: str, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, (done.returncode, done.stderr)
    return done.stdout.strip()


@pytest.mark.parametrize("run", range(3))
@pytest.mark.parametrize("compiled", ["1", "0"], ids=["compiled", "legacy"])
def test_voltage_source_loop_raises_on_the_sparse_path(compiled, run):
    output = _run(SOURCE_LOOP, compiled)
    assert output.startswith("ConvergenceError")
    assert "structurally singular matrix" in output


def test_bare_structurally_singular_matrix_raises():
    assert _run(BARE_MATRIX) == ("SingularMatrixError structurally singular "
                                 "matrix: structural rank 2 of 3")


def test_fallback_stamp_sum_is_checked():
    """Fallback device stamps are summed onto the system's CSC matrix,
    and the sum drops exact zeros, so it can lose entries its checked
    pattern has: the sum is checked before it can reach SuperLU."""
    stamps = structure_for(buffer_chain(NOMINAL, 2, 1e9).circuit).compiled()
    stamps.refresh()
    system = stamps.build_system(SimOptions(sparse_threshold=0))
    system.base_data = np.zeros_like(system.base_data)
    with pytest.raises(SingularMatrixError, match="structurally singular"):
        system.stamp(np.zeros(len(stamps.nl_rows)),
                     np.zeros(len(stamps.nl_rhs_rows)),
                     _FallbackCollector(stamps.structure))
