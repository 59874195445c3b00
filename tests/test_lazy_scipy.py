"""SciPy is the sparse path's import, not the program's.

The paper's circuits are dense MNA systems, so loading the program and
running dense work must not import SciPy: its sparse module and SuperLU
are loaded on the first sparse system.  Each check runs in a fresh
interpreter, because this test process has imported SciPy already.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

#: Dense work with SciPy unimportable: ``import scipy`` would raise.
DENSE_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
import repro.__main__
from repro.cml import NOMINAL, buffer_chain
from repro.faults import LogicOracle, enumerate_defects, run_campaign
from repro.sim import operating_point, transient
from repro.store import ResultStore
from repro.testgen import BENCHMARKS, generate_tests

chain = buffer_chain(NOMINAL, 3, 100e6)
op = operating_point(chain.circuit)
wave = transient(chain.circuit, t_stop=1e-9, dt=50e-12, initial=op)
defects = list(enumerate_defects(chain.circuit, kinds=("pipe",),
                                 pipe_resistances=(4e3,)))
result = run_campaign(chain.circuit, defects,
                      [LogicOracle(chain.output_nets)], low_rank=True,
                      store=ResultStore(sys.argv[1]))
run = generate_tests(BENCHMARKS["full_adder"]())
loaded = [name for name in sys.modules
          if name.split(".")[0] == "scipy" and sys.modules[name] is not None]
print(len(wave.times), len(result.records), result.n_store_misses,
      len(run.vectors), len(loaded))
"""

#: A sparse solve imports ``scipy.sparse``, and only then.
SPARSE_ON_DEMAND = """
import sys
import numpy as np
import repro.__main__
from repro.cml import NOMINAL, buffer_chain
from repro.sim import operating_point
from repro.sim.options import SimOptions

chain = buffer_chain(NOMINAL, 2, 100e6)
dense = operating_point(chain.circuit)
before = "scipy.sparse" in sys.modules
sparse = operating_point(chain.circuit, SimOptions(sparse_threshold=0))
assert np.allclose(sparse.x, dense.x, rtol=0, atol=1e-9)
print(before, "scipy.sparse" in sys.modules)
"""


def _run(code: str, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_dense_work_runs_without_scipy(tmp_path):
    timepoints, records, misses, vectors, loaded = _run(
        DENSE_WITHOUT_SCIPY, str(tmp_path / "store"))
    assert int(timepoints) > 1
    assert int(records) == int(misses) > 0
    assert int(vectors) > 0
    assert loaded == "0"


def test_first_sparse_system_imports_scipy_sparse():
    assert _run(SPARSE_ON_DEMAND) == ["False", "True"]
