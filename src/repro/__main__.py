"""Command-line entry point: run paper experiments by name.

Usage::

    python -m repro list
    python -m repro run fig4 table1
    python -m repro run all
    python -m repro export-spice --stages 8 --pipe 4e3 chain.cir
    python -m repro campaign --stages 4 --parallel --store results/
    python -m repro verify --seed 0 --budget 60s
    python -m repro verify --replay tests/corpus/shared_monitor_pipe.json
    python -m repro serve --port 8765 --store results/
    python -m repro report run.jsonl
    python -m repro trace export run.jsonl -o run.perfetto.json
    python -m repro trace export run.jsonl -o run.folded --format collapsed
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from typing import Callable, Dict

from . import analysis

#: Experiment registry: name -> zero-argument callable returning a result
#: object with a ``format()`` method.
EXPERIMENTS: Dict[str, Callable] = {
    "fig2": analysis.fig2_stuck_at,
    "fig4": analysis.fig4_healing,
    "table1": analysis.table1_delays,
    "table2": analysis.table2_delays,
    "fig5": analysis.fig5_excursion,
    "fig7": analysis.fig7_detector_response,
    "fig8": analysis.fig8_variant1_sweep,
    "fig10": analysis.fig10_variant2_sweep,
    "fig12": analysis.fig12_hysteresis,
    "fig14": analysis.fig14_load_sharing,
    "area": analysis.section65_area,
    "toggle": analysis.section66_toggle_study,
    "coverage": analysis.dc_fault_coverage,
    "variation": analysis.delay_escape_study,
    "families": analysis.severity_sweep,
    "ila": analysis.ila_c_testability_study,
}


def _cmd_list() -> int:
    print("Available experiments (python -m repro run <name> ...):")
    for name, func in EXPERIMENTS.items():
        doc = (func.__doc__ or "").strip().splitlines()[0]
        print(f"  {name:<10} {doc}")
    return 0


def _cmd_run(names) -> int:
    if names == ["all"]:
        names = list(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        print(f"choose from: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2
    for name in names:
        started = time.time()
        result = EXPERIMENTS[name]()
        elapsed = time.time() - started
        print(result.format())
        print(f"[{name}: {elapsed:.1f} s]\n")
    return 0


def _cmd_export_spice(path: str, stages: int, pipe: float) -> int:
    from .circuit.spice import write_spice
    from .cml import NOMINAL, buffer_chain
    from .dft import build_shared_monitor
    from .faults import Pipe, inject

    chain = buffer_chain(NOMINAL, n_stages=stages, frequency=100e6)
    build_shared_monitor(chain.circuit, chain.output_nets)
    circuit = chain.circuit
    if pipe > 0:
        circuit = inject(circuit, Pipe("DUT.Q3" if stages == 8 else
                                       "X1.Q3", pipe))
    write_spice(circuit, path,
                title=f"instrumented {stages}-stage CML chain")
    print(f"wrote {path} ({circuit.summary()})")
    return 0


def _cmd_campaign(args) -> int:
    from .cml import NOMINAL, buffer_chain
    from .dft import build_shared_monitor
    from .faults import (FlagOracle, IddqOracle, LogicOracle,
                         enumerate_defects, run_campaign)
    from .sim import SimOptions

    chain = buffer_chain(NOMINAL, n_stages=args.stages, frequency=100e6)
    # Enumerate fault sites before instrumentation so only the functional
    # logic is attacked.
    defects = list(enumerate_defects(
        chain.circuit, kinds=tuple(args.kinds),
        pipe_resistances=tuple(args.pipe_resistances)))
    if args.limit is not None:
        defects = defects[:args.limit]
    monitor = build_shared_monitor(chain.circuit, chain.output_nets,
                                   tech=NOMINAL)
    oracles = [LogicOracle(chain.output_nets),
               FlagOracle(monitor.nets.flag, monitor.nets.flagb),
               IddqOracle()]
    options = SimOptions(solve_deadline_s=args.deadline,
                         chunk_timeout_s=args.chunk_timeout)

    started = time.time()
    result = run_campaign(chain.circuit, defects, oracles,
                          options=options, low_rank=args.low_rank,
                          parallel=args.parallel, workers=args.workers,
                          chunk_size=args.chunk_size, store=args.store)
    elapsed = time.time() - started

    print(result.format())
    line = (f"[{len(result.records)} defects in {elapsed:.1f} s"
            f" ({args.stages}-stage chain)")
    if args.store is not None:
        line += (f", store: {result.n_store_hits} hit(s) /"
                 f" {result.n_store_misses} miss(es)")
    quarantined = result.quarantined()
    if quarantined:
        line += f", {len(quarantined)} quarantined"
    print(line + "]")
    for record in quarantined:
        print(f"  quarantined {record.defect.kind} "
              f"{record.defect.describe()}: {record.quarantine_reason}")
    return 0


def _cmd_atpg(args) -> int:
    from .testgen import generate_tests, sequential_test_plan
    from .testgen.circuits import BENCHMARKS, iscas_like

    if args.benchmark in BENCHMARKS:
        network = BENCHMARKS[args.benchmark]()
    elif args.benchmark == "iscas":
        network = iscas_like(args.seed, n_gates=args.gates,
                             n_inputs=args.inputs)
    else:
        print(f"unknown benchmark {args.benchmark!r}; choose from "
              f"{sorted(BENCHMARKS)} or 'iscas'", file=sys.stderr)
        return 2

    started = time.time()
    if network.sequential_gates():
        plan = sequential_test_plan(
            network, n_random=args.random,
            initial_state=(None if args.x_init else False),
            backtrack_limit=args.backtracks)
        print(plan.format())
        if plan.unresolved:
            print("unresolved holes:", ", ".join(plan.unresolved))
    else:
        run = generate_tests(network, backtrack_limit=args.backtracks,
                             compact=not args.no_compact,
                             random_phase=args.random)
        print(run.format())
        if args.show_missed and run.missed:
            for fault in run.missed:
                print("  unclassified:", fault.describe())
    print(f"[{len(network.gates)} gates in {time.time() - started:.1f} s]")
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from .service import CampaignService

    async def main() -> int:
        service = CampaignService(store=args.store, workers=args.workers,
                                  max_concurrent_jobs=args.max_jobs)
        server = await service.serve(host=args.host, port=args.port)
        host, port = server.sockets[0].getsockname()[:2]
        store_note = f", store={args.store}" if args.store else ""
        print(f"campaign service listening on {host}:{port} "
              f"({service.workers} worker(s){store_note})", flush=True)
        async with server:
            await server.serve_forever()
        return 0

    try:
        return asyncio.run(main())
    except KeyboardInterrupt:
        print("service stopped")
        return 0


def _cmd_verify(args) -> int:
    from .telemetry import from_env
    from .verify import (DEFAULT_ENGINES, ENGINES_BY_NAME, GeneratorConfig,
                         cross_check, fuzz_session, load_scenario,
                         parse_budget)

    engines = list(DEFAULT_ENGINES)
    if args.engines:
        unknown = [n for n in args.engines if n not in ENGINES_BY_NAME]
        if unknown:
            print(f"unknown engines: {', '.join(unknown)}",
                  file=sys.stderr)
            print(f"choose from: {', '.join(ENGINES_BY_NAME)}",
                  file=sys.stderr)
            return 2
        engines = [ENGINES_BY_NAME[n] for n in args.engines]

    if args.replay:
        failures = 0
        for path in args.replay:
            result = cross_check(load_scenario(path), engines)
            print(f"{path}: {result.format()}")
            failures += 0 if result.ok else 1
        return 1 if failures else 0

    try:
        budget = parse_budget(args.budget)
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2
    config = GeneratorConfig()
    if getattr(args, "style", None):
        config = replace(config, network_style=args.style)
    if getattr(args, "families", False):
        # The new-families rotation: oxide/interconnect defect kinds in
        # the sample pool plus a healthy link rate.
        config = replace(
            config,
            defect_kinds=config.defect_kinds + ("oxide-breakdown",
                                                "wire-leak"),
            link_fraction=0.3)
    report = fuzz_session(
        seed=args.seed, budget_s=budget,
        max_scenarios=args.max_scenarios, engines=engines,
        config=config,
        out_dir=args.out, telemetry=from_env(),
        shrink_failures=not args.no_shrink,
        progress=lambda line: print(f"  ... {line}", flush=True))
    print(report.format())
    return 0 if report.ok else 1


def _cmd_report(args) -> int:
    from .telemetry import RunReport

    try:
        report = RunReport.from_jsonl(args.trace)
    except OSError as error:
        print(f"cannot read {args.trace}: {error}", file=sys.stderr)
        return 2
    print(report.render(markdown=args.markdown))
    return 0


def _cmd_trace(args) -> int:
    from .telemetry import export_trace, read_jsonl

    if args.trace_command == "report":
        return _cmd_report(args)
    try:
        events = read_jsonl(args.trace)
    except OSError as error:
        print(f"cannot read {args.trace}: {error}", file=sys.stderr)
        return 2
    n = export_trace(events, args.output, fmt=args.format)
    what = "span(s)" if args.format == "chrome" else "stack line(s)"
    print(f"wrote {n} {what} to {args.output} ({args.format} format)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'DFT Method for CML Digital "
                    "Circuits' (DATE 1999)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run_parser = sub.add_parser("run", help="run experiments by name")
    run_parser.add_argument("names", nargs="+",
                            help="experiment names, or 'all'")

    export = sub.add_parser("export-spice",
                            help="export an instrumented chain as a "
                                 "SPICE deck")
    export.add_argument("path")
    export.add_argument("--stages", type=int, default=8)
    export.add_argument("--pipe", type=float, default=0.0,
                        help="inject a C-E pipe of this resistance "
                             "(0 = fault-free)")

    campaign = sub.add_parser(
        "campaign",
        help="run a fault campaign on an instrumented chain")
    campaign.add_argument("--stages", type=int, default=3)
    campaign.add_argument("--kinds", nargs="+",
                          default=["pipe", "terminal-short",
                                   "resistor-short"],
                          help="defect kinds to enumerate")
    campaign.add_argument("--pipe-resistances", nargs="+", type=float,
                          default=[2e3, 4e3])
    campaign.add_argument("--limit", type=int, default=None,
                          help="cap the number of defects")
    campaign.add_argument("--parallel", action="store_true")
    campaign.add_argument("--workers", type=int, default=None)
    campaign.add_argument("--chunk-size", type=int, default=None,
                          help="defects per parallel chunk (whole "
                               "units of replay windows with --low-rank)")
    campaign.add_argument("--low-rank", action="store_true",
                          help="solve pipes, shorts and bridges in "
                               "batches on the shared fault-free system "
                               "instead of injecting each defect")
    campaign.add_argument("--deadline", type=float, default=0.0,
                          metavar="SECONDS",
                          help="per-defect solver wall-clock budget "
                               "(0 = unbounded)")
    campaign.add_argument("--chunk-timeout", type=float, default=0.0,
                          metavar="SECONDS",
                          help="parallel liveness timeout: quarantine "
                               "defects whose worker hangs this long "
                               "(0 = wait forever)")
    campaign.add_argument("--store", default=None, metavar="DIR",
                          help="content-addressed result store: serve "
                               "already-solved defects from it and write "
                               "each finished unit back, so rerunning a "
                               "killed campaign resumes it")

    atpg = sub.add_parser(
        "atpg",
        help="gate-level ATPG: PODEM on a benchmark network "
             "(sequential benchmarks get the random + top-up plan)")
    atpg.add_argument("benchmark",
                      help="benchmark name (see repro.testgen.BENCHMARKS)"
                           " or 'iscas' for a seeded generated network")
    atpg.add_argument("--gates", type=int, default=500,
                      help="gate count for 'iscas' (default 500)")
    atpg.add_argument("--inputs", type=int, default=32,
                      help="primary inputs for 'iscas' (default 32)")
    atpg.add_argument("--seed", type=int, default=1,
                      help="seed for 'iscas' (default 1)")
    atpg.add_argument("--backtracks", type=int, default=200,
                      help="PODEM backtrack budget per target")
    atpg.add_argument("--random", type=int, default=64,
                      help="random-phase vector count (combinational) "
                           "or random pattern count (sequential)")
    atpg.add_argument("--no-compact", action="store_true",
                      help="skip greedy vector-set compaction")
    atpg.add_argument("--x-init", action="store_true",
                      help="sequential plans: start from all-X state "
                           "(default: all flip-flops reset to 0)")
    atpg.add_argument("--show-missed", action="store_true",
                      help="list unclassified faults")

    serve = sub.add_parser(
        "serve",
        help="run the long-lived campaign service (JSON-lines TCP)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765,
                       help="TCP port (0 = ephemeral)")
    serve.add_argument("--store", default=None, metavar="DIR",
                       help="shared content-addressed result store")
    serve.add_argument("--workers", type=int, default=None,
                       help="process-pool width for sharded jobs "
                            "(default: all cores)")
    serve.add_argument("--max-jobs", type=int, default=1,
                       help="jobs solving concurrently (default 1: one "
                            "job already saturates the cores)")

    verify = sub.add_parser(
        "verify",
        help="differential fuzzing: random scenarios under the full "
             "engine matrix, disagreements shrunk and serialized")
    verify.add_argument("--seed", type=int, default=0,
                        help="master seed; scenario seeds derive from it")
    verify.add_argument("--budget", default="60s",
                        help="wall-clock budget, e.g. 60s, 5m (default 60s)")
    verify.add_argument("--max-scenarios", type=int, default=None,
                        help="stop after this many scenarios")
    verify.add_argument("--engines", nargs="+", default=None,
                        help="engine configs to cross-check "
                             "(default: the full matrix)")
    verify.add_argument("--out", default="verify_failures",
                        metavar="DIR",
                        help="directory for shrunk failing scenarios")
    verify.add_argument("--no-shrink", action="store_true",
                        help="serialize failures without minimizing")
    verify.add_argument("--style", default=None,
                        choices=("random", "iscas", "ila"),
                        help="network topology style for generated "
                             "scenarios (default: random)")
    verify.add_argument("--families", action="store_true",
                        help="rotate in the extension defect families: "
                             "oxide-breakdown and wire-leak kinds plus "
                             "low-swing links")
    verify.add_argument("--replay", nargs="+", default=None,
                        metavar="JSON",
                        help="re-check serialized scenarios instead of "
                             "fuzzing")

    report = sub.add_parser(
        "report",
        help="render a RunReport from a saved JSONL trace")
    report.add_argument("trace", metavar="TRACE.jsonl")
    report.add_argument("--markdown", action="store_true",
                        help="emit Markdown instead of aligned text")

    trace = sub.add_parser(
        "trace",
        help="work with saved JSONL traces (export, report)")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_export = trace_sub.add_parser(
        "export",
        help="convert a trace to a standard format")
    trace_export.add_argument("trace", metavar="TRACE.jsonl")
    trace_export.add_argument("-o", "--output", required=True,
                              help="output file path")
    trace_export.add_argument("--format", default="chrome",
                              choices=["chrome", "collapsed"],
                              help="chrome: Perfetto/chrome://tracing "
                                   "JSON; collapsed: flamegraph stacks")
    trace_report = trace_sub.add_parser(
        "report", help="same as 'repro report'")
    trace_report.add_argument("trace", metavar="TRACE.jsonl")
    trace_report.add_argument("--markdown", action="store_true")

    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args.names)
    if args.command == "export-spice":
        return _cmd_export_spice(args.path, args.stages, args.pipe)
    if args.command == "campaign":
        return _cmd_campaign(args)
    if args.command == "atpg":
        return _cmd_atpg(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "trace":
        return _cmd_trace(args)
    return 2  # pragma: no cover


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly (dup the
        # devnull over stdout so the interpreter's flush-at-exit does
        # not raise the same error again).
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
