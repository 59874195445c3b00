"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload catalog --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 3 --seconds 25

A run imports the program from ``src/``, then repeats set-up plus one
measured pass until the pass boundary nearest to ``--seconds`` (at
least one pass).  Every pass is checked; a failed check is a failed operation.
With ``--trace 0`` the passes run untraced, timed in host seconds scaled
to a reference host speed (``hostspeed.py``), and the end-to-end metrics
are reported as medians over passes.  With
``--trace 1`` untraced and traced passes alternate, and the per-layer
metrics of the traced passes are reported.  ``--workload all`` runs
every workload in both modes, each in its own process, and prints one
table.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("paper", "catalog", "ila_sparse", "atpg")

#: End-to-end metrics with their units.
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("defects_per_s", "1/s"), ("fault_coverage", "fraction"),
              ("test_vectors", "count"))

#: Fewest set-ups a run times, so ``setup_s`` is a median.
MIN_SETUPS = 3


def _single_threaded() -> None:
    """Pin numeric libraries to one thread: the benchmark measures one
    serial process, and idle BLAS threads only add noise."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _set_up(workload, seed: int):
    """One set-up from a fresh cache state: (state, scaled seconds)."""
    from hostspeed import Meter
    from workloads import reset_program_caches

    reset_program_caches()
    gc.collect()
    meter = Meter()
    state = workload.build(seed)
    meter.finish()
    return state, meter.scaled_s


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of workload ``name``; returns the result object."""
    sys.path.insert(0, str(HERE))
    from hostspeed import Meter

    meter = Meter()
    import repro.__main__  # noqa: F401  (the whole program, as users load it)
    meter.finish()
    import_s = meter.scaled_s

    import layers
    from workloads import WORKLOADS

    workload = WORKLOADS[name]()
    setups, walls, summaries, traces = [], [], [], []
    host_walls, slowdowns = [], []
    attempted = failed = 0
    peak_rss_mb = None

    def one_pass(traced: bool) -> None:
        """Set up, run and check one pass, untraced or traced."""
        nonlocal attempted, failed, peak_rss_mb
        state, setup_s = _set_up(workload, seed)
        setups.append(setup_s)
        tracer = layers.LayerTracer() if traced else None
        if traced:
            from repro.sim.mna import CACHE_STATS
            cache_before = dict(CACHE_STATS)
            layers.install(tracer)
            if tracer.missing:
                print(f"entry points not found, their spans read 0: "
                      f"{', '.join(tracer.missing)}", file=sys.stderr)
        try:
            meter = Meter()
            # The traced pass marks its sub-steps as spans of the tracer;
            # the untraced one probes the host speed at their boundaries.
            output = workload.run(state, tracer.span if traced
                                  else meter.span)
            meter.finish()
        finally:
            if traced:
                tracer.restore()
        if peak_rss_mb is None:
            # Import, one set-up and one pass: independent of how many
            # passes fit the run.
            peak_rss_mb = _peak_rss_mb()
        if traced:
            cache_delta = {key: CACHE_STATS[key] - cache_before[key]
                           for key in cache_before}
            traces.append((tracer, cache_delta, meter))
        else:
            walls.append(meter.scaled_s)
            host_walls.append(meter.host_s)
            slowdowns.append(meter.slowdown)
            summaries.append(workload.summary(output, meter.scaled_s,
                                              meter.segments))
        done, bad = workload.check(state, output)
        attempted += done
        failed += bad
        workload.release(state)

    loop_start = time.perf_counter()
    while True:
        began = time.perf_counter()
        one_pass(traced=False)
        if trace:
            one_pass(traced=True)
        step = time.perf_counter() - began
        # Stop at the pass boundary nearest to ``seconds``, taking the
        # next step to last as long as this one.
        if time.perf_counter() - loop_start + step / 2 > seconds:
            break
    while len(setups) < MIN_SETUPS:
        state, setup_s = _set_up(workload, seed)
        setups.append(setup_s)
        workload.release(state)

    if trace:
        metrics = _layer_metrics(traces, walls, host_walls, slowdowns)
    else:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (import_s + statistics.median(setups), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        for key, unit in END_TO_END[3:]:
            metrics[key] = (statistics.median(s[key] for s in summaries),
                            unit)
    print(f"{name}: {len(setups)} set-up(s); untraced pass seconds, "
          f"scaled {[round(w, 3) for w in walls]}, "
          f"host {[round(w, 3) for w in host_walls]}", file=sys.stderr)
    return {"correct": failed == 0 and attempted > 0,
            "attempted": attempted, "failed": failed,
            "metrics": {key: {"value": value, "unit": unit}
                        for key, (value, unit) in metrics.items()}}


def _layer_metrics(traces, untraced_walls, host_walls, slowdowns) -> dict:
    """Per-layer metrics: medians of self time over the traced passes,
    calls and counters from the first (they repeat exactly).  Span times
    are host seconds; the traced pass's own probes only scale
    ``trace.overhead_pct``."""
    import layers
    from workloads import PAPER_EXPERIMENTS

    def median_over(value):
        return statistics.median(value(tracer) for tracer, _, _ in traces)

    first, first_cache, _ = traces[0]
    metrics = {}
    for span in layers.SPANS:
        metrics[f"{span}.self_s"] = (
            median_over(lambda tracer: tracer.self_s.get(span, 0.0)), "s")
        metrics[f"{span}.calls"] = (first.calls.get(span, 0), "count")
    counts = layers.derived_counts(first.counts, first_cache)
    for name, unit in layers.COUNTERS:
        metrics[name] = (counts[name], unit)
    for experiment in PAPER_EXPERIMENTS:
        metrics[f"analysis.{experiment}.s"] = (median_over(
            lambda tracer: tracer.total_s.get(f"analysis.{experiment}", 0.0)),
            "s")

    def analysis_self(tracer):
        return sum(value for span, value in tracer.self_s.items()
                   if span.startswith("analysis."))

    # The named layers are the library spans plus the paper's
    # per-experiment spans; the rest of the pass, including the
    # workloads' own sub-step spans, is the benchmark's glue.
    def named(span):
        return span in layers.SPANS or span.startswith("analysis.")

    coverages, others = [], []
    for tracer, _, meter in traces:
        covered = sum(value for span, value in tracer.self_s.items()
                      if named(span))
        coverages.append(covered / meter.host_s)
        others.append(meter.host_s - covered)
    traced = statistics.median(meter.scaled_s for _, _, meter in traces)
    untraced = statistics.median(untraced_walls)
    metrics["analysis.self_s"] = (median_over(analysis_self), "s")
    metrics["other.self_s"] = (statistics.median(others), "s")
    metrics["trace.coverage"] = (statistics.median(coverages), "fraction")
    metrics["trace.overhead_pct"] = (100.0 * (traced - untraced) / untraced,
                                     "%")
    metrics["trace.wall_s"] = (
        statistics.median(meter.host_s for _, _, meter in traces), "s")
    # An entry point the program no longer has reads zero in its span;
    # this count keeps such a zero from passing for a gain.
    metrics["trace.missing_entry_points"] = (len(first.missing), "count")
    # Untraced passes in plain host seconds, and how much slower than the
    # reference speed the host ran them (see hostspeed.py).
    metrics["host.wall_s"] = (statistics.median(host_walls), "s")
    metrics["host.slowdown"] = (statistics.median(slowdowns), "ratio")
    return metrics


def print_table(title: str, result: dict) -> None:
    print(f"== {title}: attempted {result['attempted']}, "
          f"failed {result['failed']}, correct {result['correct']}")
    for key, entry in result["metrics"].items():
        print(f"  {key:<44} {entry['value']:>14.6g} {entry['unit']}")


def run_all(seed: int, seconds: float) -> int:
    """Every workload in both modes, each run in its own process."""
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"== {name} (trace {trace}): exit {proc.returncode}")
                status = 1
                continue
            result = json.loads(lines[-1])
            print_table(f"{name} (trace {trace}, seed {seed})", result)
            if not result["correct"]:
                status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program source under {SRC}: run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    sys.path.insert(0, str(SRC))
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print_table(f"{args.workload} (trace {args.trace}, seed {args.seed})",
                result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    _single_threaded()
    sys.exit(main())
