"""Outside-in per-layer tracing for the benchmark.

The program itself carries no benchmark instrumentation.  A traced pass
instead swaps each layer's public entry point (a module-level function
or a class method) for a thin wrapper that records a span: wall time,
call count, and *self* time — the span's duration minus the part its
nested spans cover.  Wrappers are installed for one pass and removed
afterwards, so untraced passes run the program exactly as shipped.

Counts come only from the program's own result objects, read at the
outermost call that returns them (``DcSolution.stats``,
``TransientResult.stats``, ``CampaignResult``, ``AtpgRun.stats``) plus
the delta of :data:`repro.sim.mna.CACHE_STATS` over the pass.  They are
exact: the same pass on the same inputs repeats them bit for bit.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

#: Counters read from result objects, in report order, with units.
COUNTERS = (
    ("sim.mna.factorizations", "count"),
    ("sim.mna.factor_reuses", "count"),
    ("sim.mna.reuse_ratio", "ratio"),
    ("sim.mna.structure_hits", "count"),
    ("sim.mna.structure_misses", "count"),
    ("sim.mna.structure_hit_ratio", "ratio"),
    ("sim.mna.compiled_builds", "count"),
    ("sim.dc.newton_iterations", "count"),
    ("sim.dc.homotopy_steps", "count"),
    ("sim.transient.timepoints", "count"),
    ("sim.transient.rejected_steps", "count"),
    ("sim.batch.batched_solves", "count"),
    ("sim.batch.occupancy", "members"),
    ("sim.batch.fallbacks", "count"),
    ("sim.batch.fallback_ratio", "ratio"),
    ("faults.defects", "count"),
    ("faults.solved_full", "count"),
    ("faults.solved_low_rank", "count"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.hit_ratio", "ratio"),
    ("testgen.podem_calls", "count"),
    ("testgen.backtracks", "count"),
    ("testgen.aborted", "count"),
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class LayerTracer:
    """Span stack plus the patch table of one traced pass."""

    def __init__(self):
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        # Each frame: [name, start, time covered by child spans].
        self._stack: List[list] = []
        self._patches: List[Tuple[object, str, object]] = []
        #: ``module.attribute`` of every entry point :func:`install`
        #: could not find in this version of the program.
        self.missing: List[str] = []
        # Depth of result-bearing calls, so nested results (a campaign's
        # own operating points) are not counted twice.
        self._result_depth = 0

    # -- spans -----------------------------------------------------------
    def _enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def _exit(self) -> None:
        name, start, covered = self._stack.pop()
        elapsed = time.perf_counter() - start
        self.self_s[name] += elapsed - covered
        self.total_s[name] += elapsed
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += elapsed

    @contextmanager
    def span(self, name: str):
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    def wrap(self, name: str, func: Callable,
             on_result: Optional[Callable] = None) -> Callable:
        tracer = self

        if on_result is None:
            @functools.wraps(func)
            def traced(*args, **kwargs):
                tracer._enter(name)
                try:
                    return func(*args, **kwargs)
                finally:
                    tracer._exit()
            return traced

        @functools.wraps(func)
        def traced_result(*args, **kwargs):
            outermost = tracer._result_depth == 0
            tracer._result_depth += 1
            tracer._enter(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._exit()
                tracer._result_depth -= 1
            if outermost:
                on_result(tracer.counts, result)
            return result
        return traced_result

    # -- patching --------------------------------------------------------
    def patch_method(self, cls, attr: str, name: str,
                     on_result: Optional[Callable] = None) -> None:
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            wrapped = classmethod(self.wrap(name, original.__func__,
                                            on_result))
        else:
            wrapped = self.wrap(name, original, on_result)
        setattr(cls, attr, wrapped)
        self._patches.append((cls, attr, original))

    def patch_function(self, func: Callable, name: str,
                       on_result: Optional[Callable] = None) -> None:
        """Replace ``func`` in every loaded ``repro`` module that binds
        it, so callers that imported it by name see the wrapper too."""
        wrapped = self.wrap(name, func, on_result)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro"
                                      or module_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    setattr(module, attr, wrapped)
                    self._patches.append((module, attr, func))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


# -- result-object readers ---------------------------------------------------
def _add_newton(counts, stats) -> None:
    counts["sim.mna.factorizations"] += stats.n_factorizations
    counts["sim.mna.factor_reuses"] += stats.n_reuses
    counts["sim.dc.newton_iterations"] += stats.iterations
    counts["sim.dc.homotopy_steps"] += stats.gmin_steps + stats.source_steps


def _read_solution(counts, solution) -> None:
    _add_newton(counts, solution.stats)


def _read_transient(counts, result) -> None:
    _add_newton(counts, result.stats)
    counts["sim.transient.timepoints"] += len(result.times)
    counts["sim.transient.rejected_steps"] += result.stats.n_rejected_steps


def _read_campaign(counts, result) -> None:
    counts["faults.defects"] += len(result.records)
    counts["store.hits"] += result.n_store_hits
    counts["store.misses"] += result.n_store_misses
    if result.n_store_hits:
        # Store-served records carry the counters of the campaign that
        # solved them; only campaigns that solved everything count work.
        return
    _add_newton(counts, result.aggregate_stats())
    solvers = result.solver_counts()
    fallbacks = getattr(result, "batch_fallbacks", 0)
    counts["sim.batch.batched_solves"] += getattr(result, "n_batched_solves",
                                                  0)
    counts["sim.batch.members"] += getattr(result, "batch_occupancy", 0)
    counts["sim.batch.fallbacks"] += fallbacks
    counts["sim.batch.eligible"] += solvers.get("batched", 0) + fallbacks
    low_rank = solvers.get("batched", 0) + solvers.get("delta", 0)
    counts["faults.solved_low_rank"] += low_rank
    counts["faults.solved_full"] += len(result.records) - low_rank


def _read_atpg(counts, run) -> None:
    counts["testgen.podem_calls"] += run.stats.podem_calls
    counts["testgen.backtracks"] += run.stats.backtracks
    counts["testgen.aborted"] += len(run.aborted)


def _import_program() -> None:
    """Import every ``repro`` module before patching, so no module can
    bind a wrapper by name after the pass and keep it."""
    import pkgutil

    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name != "repro.__main__":
            importlib.import_module(info.name)


#: Every wrapped entry point: (module, attribute or ``Class.method``,
#: span name, result reader or None).  An entry point a later version of
#: the program no longer has is skipped and listed in
#: :attr:`LayerTracer.missing`; its span reads zero.
ENTRY_POINTS = (
    ("repro.sim.mna", "structure_for", "sim.mna.structure_for", None),
    ("repro.sim.mna", "CompiledStamps.__init__", "sim.mna.compile", None),
    ("repro.sim.mna", "CompiledStamps.build_system", "sim.mna.build_system",
     None),
    ("repro.sim.mna", "CompiledSystem.assemble", "sim.mna.assemble", None),
    ("repro.sim.mna", "FaultedSystem.assemble", "sim.mna.assemble", None),
    ("repro.sim.mna", "CompiledStamps.eval_nonlinear",
     "sim.mna.eval_nonlinear", None),
    ("repro.sim.mna", "CompiledStamps.eval_nonlinear_batch",
     "sim.mna.eval_nonlinear_batch", None),
    ("repro.sim.mna", "CompiledSystem.solve_assembled",
     "sim.mna.solve_assembled", None),
    ("repro.sim.mna", "FactorCache.factorize", "sim.mna.factorize", None),
    ("repro.sim.mna", "FactorCache.solve", "sim.mna.factor_solve", None),
    ("repro.sim.dc", "operating_point", "sim.dc.operating_point",
     _read_solution),
    ("repro.sim.dc", "DeltaContext.build", "sim.dc.delta_context", None),
    ("repro.sim.dc", "delta_solve", "sim.dc.delta_solve", None),
    ("repro.sim.batch", "solve_batch", "sim.batch.solve_batch", None),
    ("repro.sim.transient", "transient", "sim.transient.transient",
     _read_transient),
    ("repro.faults.injector", "inject", "faults.inject", None),
    ("repro.faults.campaign", "LogicOracle.judge", "faults.oracle_judge",
     None),
    ("repro.faults.campaign", "FlagOracle.judge", "faults.oracle_judge",
     None),
    ("repro.faults.campaign", "IddqOracle.judge", "faults.oracle_judge",
     None),
    ("repro.faults.campaign", "run_campaign", "faults.run_campaign",
     _read_campaign),
    ("repro.store.fingerprint", "campaign_fingerprint", "store.fingerprint",
     None),
    ("repro.store.fingerprint", "result_key", "store.fingerprint", None),
    ("repro.store.result_store", "ResultStore.get", "store.get", None),
    ("repro.store.result_store", "ResultStore.put", "store.put", None),
    ("repro.testgen.atpg", "generate_tests", "testgen.generate_tests",
     _read_atpg),
    ("repro.testgen.atpg", "PodemEngine.detect", "testgen.podem", None),
    ("repro.testgen.faultsim", "fault_detect_matrix", "testgen.faultsim",
     None),
    ("repro.testgen.compaction", "collapse_faults", "testgen.compaction",
     None),
    ("repro.testgen.compaction", "greedy_compact", "testgen.compaction",
     None),
    ("repro.testgen.faultsim", "fault_simulate", "testgen.fault_simulate",
     None),
)


#: Span names, in report order.  Every one is reported on every
#: workload (zero where the workload never enters the layer).
SPANS = tuple(dict.fromkeys(span for _, _, span, _ in ENTRY_POINTS))


def install(tracer: LayerTracer) -> None:
    """Wrap every entry point in :data:`ENTRY_POINTS` that the program
    has, and list the others in ``tracer.missing``."""
    _import_program()
    for module_name, attribute, span, reader in ENTRY_POINTS:
        # By full module name: ``repro.sim.transient`` is shadowed by the
        # function of the same name that ``repro.sim`` re-exports.
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            owner = None
        class_name, _, method = attribute.rpartition(".")
        if class_name:
            cls = getattr(owner, class_name, None)
            if cls is not None and method in vars(cls):
                tracer.patch_method(cls, method, span, reader)
                continue
        elif hasattr(owner, attribute):
            tracer.patch_function(getattr(owner, attribute), span, reader)
            continue
        tracer.missing.append(f"{module_name}.{attribute}")


def derived_counts(counts: Dict[str, float],
                   cache_delta: Dict[str, int]) -> Dict[str, float]:
    """The :data:`COUNTERS` values of one traced pass."""
    out = {name: float(counts.get(name, 0.0)) for name, _ in COUNTERS}
    out["sim.mna.reuse_ratio"] = _ratio(
        counts["sim.mna.factor_reuses"],
        counts["sim.mna.factorizations"] + counts["sim.mna.factor_reuses"])
    hits = cache_delta.get("structure_hits", 0)
    misses = cache_delta.get("structure_misses", 0)
    out["sim.mna.structure_hits"] = float(hits)
    out["sim.mna.structure_misses"] = float(misses)
    out["sim.mna.structure_hit_ratio"] = _ratio(hits, hits + misses)
    out["sim.mna.compiled_builds"] = float(
        cache_delta.get("compiled_builds", 0))
    out["sim.batch.occupancy"] = _ratio(counts["sim.batch.members"],
                                        counts["sim.batch.batched_solves"])
    out["sim.batch.fallback_ratio"] = _ratio(counts["sim.batch.fallbacks"],
                                             counts["sim.batch.eligible"])
    out["store.hit_ratio"] = _ratio(
        counts["store.hits"], counts["store.hits"] + counts["store.misses"])
    return out
