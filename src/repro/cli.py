"""Command-line interface: ``python -m repro <command>``.

Commands:

    table1 | table2 | fig2 | fig3 | activations | section4 | quantization
    codesize | int8 | energy | isa-ref
        regenerate one experiment/reference and print it

    all [--out DIR]
        regenerate every experiment; optionally write artifacts to DIR

    suite [--level X] [--scale N] [--engine auto|interp|turbo]
        execute the (scaled) benchmark suite on the ISS with golden
        checking and print the per-network cycle table; the default
        engine is auto (turbo at paper scale REPRO_SCALE=1, the
        interpreter otherwise)

    profile NETWORK [--level a-f] [--engine interp|turbo|both]
            [--out FILE.json] [--folded FILE.folded]
        run one network on the ISS and print the hierarchical cycle
        attribution (network/layer/kernel regions, stall split); totals
        are asserted identical to the execution Trace, and --engine
        both cross-checks the two engines against each other

    overhead-bench [--out FILE.json]
        measure instrumented vs. uninstrumented ISS throughput and
        serving latency; writes BENCH_obs.json

    serve-bench [--requests N] [--rate R] [--traffic KIND]
            [--tenants N] [--out FILE.json]
        drive one batched inference engine with an open-loop load
        generator (--traffic poisson|diurnal|bursty|diurnal-bursty,
        --tenants for per-tenant network mixes) against the sequential
        baseline; writes BENCH_serve.json

    cluster-bench [--requests N] [--workers 1,2,4,8] [--traffic KIND]
            [--autoscale] [--out FILE.json] [--trace-out FILE.json]
        drive the process-sharded serving cluster over a worker-count
        scaling curve at one offered load; writes BENCH_serve.json by
        default and, with --trace-out, one merged Perfetto trace
        spanning the router and every worker process

    chaos-bench [--requests N] [--duration S] [--cluster]
            [--workers N] [--out FILE.json] [--trace-out FILE.json]
        drive the runtime under a scripted fault scenario (weight
        bit-flips, crashes, latency spikes, activation SDC) and write
        BENCH_chaos.json; --trace-out additionally writes a
        Perfetto-loadable span trace of the chaos pass; --cluster runs
        the scenario against the process-sharded cluster and adds
        SIGKILL worker-process deaths on a deterministic schedule

    aot-bench [--batch B] [--repeats N] [--out FILE.json]
        time every compiled plan against the scalar QuantModel, check
        it bit-exactly and place it on the host roofline; writes
        BENCH_aot.json and exits 1 if any output diverged

    Every bench runs through one harness (repro.bench): each checks
    every served output bit-exactly against the golden model, writes
    one JSON schema ("schema": 1) and prints one kind of table.  The
    load benches drain gracefully on SIGINT/SIGTERM: submission stops,
    in-flight requests settle and the partial benchmark JSON is still
    written (with "interrupted": true).  serve-bench, cluster-bench and
    chaos-bench also accept --dashboard PORT to serve the live web
    control plane (metrics, flamegraphs, traces, operator actions) for
    the duration of the run.

    dashboard [--port P] [--cluster] [--workers N] [--load RPS]
            [--duration S] [--token TOKEN]
        run the live web control plane standalone against a fresh
        engine (or, with --cluster, a process-sharded cluster) with a
        steady background load so the charts move; stops on
        SIGINT/SIGTERM or after --duration seconds (0 = run forever)

    lint [FILE.s ...] [--levels XY] [--json]
        run the static analyzer (CFG/dataflow lint) over assembly files
        or, with no files, over every generated suite kernel; every
        finding carries a stable string rule id (the --json document
        lists the full rule catalog under "rules"); exit codes: 0 = no
        error-severity findings, 1 = at least one error finding,
        2 = bad usage (unknown network/level)

    certify [FILE.s ...] [--kernels] [--levels XY] [--json] [--full]
        run the abstract-interpretation certifier: proven register
        value ranges, memory-safety proofs for every load/store against
        the declared buffer footprint, and proven loop trip counts;
        with no files certifies every generated suite kernel; exit
        codes: 0 = every access proven, 1 = unproven accesses remain,
        2 = bad usage

    run FILE.s
        assemble and execute a RISC-V assembly file on the extended core,
        then print the register file and execution histogram
"""

from __future__ import annotations

import argparse
import os
import sys

__all__ = ["main"]

_DRIVERS = {
    "table1": "repro.eval.table1",
    "table2": "repro.eval.table2",
    "fig2": "repro.eval.fig2",
    "fig3": "repro.eval.fig3",
    "activations": "repro.eval.activations",
    "section4": "repro.eval.section4",
    "quantization": "repro.eval.quantization",
    "codesize": "repro.eval.codesize",
    "int8": "repro.eval.int8_study",
    "energy": "repro.eval.energy_table",
    "bitwidth": "repro.eval.bitwidth",
    "beyond": "repro.eval.beyond",
    "isa-ref": "repro.isa.reference",
}


def _run_driver(name: str) -> str:
    import importlib
    module = importlib.import_module(_DRIVERS[name])
    return module.main()


def _cmd_all(args) -> int:
    for name in _DRIVERS:
        text = _run_driver(name)
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            path = os.path.join(args.out, f"{name}.txt")
            with open(path, "w") as handle:
                handle.write(text + "\n")
            print(f"[written {path}]")
        print()
    return 0


def _cmd_suite(args) -> int:
    from .rrm.suite import LEVEL_KEYS, SuiteRunner
    levels = [args.level] if args.level else list(LEVEL_KEYS)
    runner = SuiteRunner(scale=args.scale, check=not args.no_check,
                         engine=args.engine)
    print(f"executing the suite on the ISS (scale {args.scale or 'env'}, "
          f"engine {runner.engine}"
          + (" [auto]" if args.engine == "auto" else "")
          + f", golden checking {'off' if args.no_check else 'on'})")
    for level in levels:
        print(f"\nlevel {level}:")
        total = 0
        for network in runner.networks:
            trace = runner.run_network(network, level)
            total += trace.total_cycles
            print(f"  {network.name:<15s} {trace.total_cycles:>9d} cycles"
                  f"  ({trace.total_instrs} instrs)")
        print(f"  {'TOTAL':<15s} {total:>9d} cycles")
    return 0


def _cmd_profile(args) -> int:
    from .obs import profile_network
    engines = ["interp", "turbo"] if args.engine == "both" \
        else [args.engine]
    profiles = {}
    for engine in engines:
        profiles[engine] = profile_network(
            args.network, level_key=args.level, engine=engine,
            seed=args.seed, scale=args.scale, check=args.check)
    if len(profiles) == 2:
        interp, turbo = profiles["interp"], profiles["turbo"]
        if (interp.total_cycles != turbo.total_cycles
                or interp.total_instrs != turbo.total_instrs):
            print("engine mismatch: interp "
                  f"{interp.total_cycles} cycles != turbo "
                  f"{turbo.total_cycles} cycles", file=sys.stderr)
            return 1
    profile = profiles[engines[-1]]
    print(profile.table(max_depth=args.depth))
    print()
    stall = profile.total_cycles - profile.total_instrs
    print(f"{args.network} level {args.level}: {profile.total_cycles} "
          f"cycles, {profile.total_instrs} instrs, {stall} stall cycles "
          f"(engine{'s' if len(engines) > 1 else ''} {'+'.join(engines)}, "
          "totals == Trace exactly)")
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(profile.to_json() + "\n")
        print(f"[written {args.out}]")
    if args.folded:
        with open(args.folded, "w") as handle:
            handle.write(profile.folded(mnemonics=args.mnemonics))
        print(f"[written {args.folded}]")
    return 0


#: Bench command -> ``(module, driver)``.  A driver takes the command's
#: options as keyword arguments plus ``stop_event`` and returns its
#: result in the shared schema (:mod:`repro.bench`).
_BENCHES = {
    "serve-bench": ("repro.bench", "serve"),
    "cluster-bench": ("repro.bench", "cluster"),
    "chaos-bench": ("repro.bench", "chaos"),
    "aot-bench": ("repro.bench", "aot"),
    "overhead-bench": ("repro.obs.overhead", "run_overhead_bench"),
}


def _interrupt_note(stop) -> None:
    if stop.triggered:
        print(f"\n[{stop.signal_name or 'signal'} received -- drained "
              "in-flight requests, wrote partial results]")


def _cmd_bench(args) -> int:
    import importlib

    from .bench import render
    from .serve.shutdown import GracefulShutdown
    module, name = _BENCHES[args.command]
    driver = getattr(importlib.import_module(module), name)
    options = {k: v for k, v in vars(args).items() if k != "command"}
    with GracefulShutdown() as stop:
        result = driver(**options, stop_event=stop.event)
    print(render(result))
    if args.out:
        print(f"\n[written {args.out}]")
    if result.get("trace"):
        trace = result["trace"]
        print(f"[written {trace['path']}: {trace['events']} trace events "
              "-- load at https://ui.perfetto.dev]")
    _interrupt_note(stop)
    return 0 if result.get("bit_exact", True) else 1


def _traffic(kind: str):
    """``--traffic`` value: an arrival shape (argparse type)."""
    from .serve.loadgen import TrafficModel
    try:
        return TrafficModel(kind=kind)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _worker_counts(text: str) -> list:
    """``--workers 1,2,4``: the scaling-curve worker counts."""
    return [int(w) for w in text.split(",") if w.strip()]


def _cmd_dashboard(args) -> int:
    import itertools
    import threading
    import time

    from .obs.metrics import set_build_info
    from .obs.web import DashboardServer
    from .rrm.networks import suite
    from .serve.engine import EngineConfig, InferenceEngine
    from .serve.loadgen import make_request_stream
    from .serve.shutdown import GracefulShutdown

    networks = suite(args.scale)
    engine_config = EngineConfig(level=args.level, seed=args.seed)
    engine = None
    cluster = None
    if args.cluster:
        from .cluster.cluster import (ClusterConfig, ServingCluster,
                                      worker_layout)
        n_shards, replicas = worker_layout(args.workers, len(networks))
        cluster = ServingCluster(
            networks,
            ClusterConfig(n_shards=n_shards,
                          replicas_per_shard=replicas,
                          engine=engine_config))
        cluster.start()
        target = cluster
        mode = f"cluster ({n_shards}x{replicas} workers)"
    else:
        engine = InferenceEngine(networks=networks,
                                 config=engine_config)
        engine.start()
        target = engine
        mode = "engine"
    set_build_info(engine="dashboard")
    dash = DashboardServer(engine=engine, cluster=cluster,
                           host=args.host, port=args.port,
                           auth_token=args.token)
    dash.start()
    # A small reproducible request stream, cycled at --load req/s so
    # the charts move.  Overload is shed by the engine/router (settled
    # rejected, never raised), so the loop needs no error handling.
    stream = make_request_stream(networks, 256, seed=args.seed)
    done = threading.Event()

    def _load() -> None:
        interval = 1.0 / args.load
        for network, x_raw in itertools.cycle(stream):
            if done.is_set():
                return
            target.submit(network.name, x_raw, timeout_s=5.0)
            done.wait(interval)

    loader = None
    if args.load > 0:
        loader = threading.Thread(target=_load, name="dash-load",
                                  daemon=True)
        loader.start()
    until = (f"stopping after {args.duration:g}s" if args.duration
             else "ctrl-c to stop")
    print(f"[dashboard live at {dash.url} -- {mode}, "
          f"{args.load:g} req/s background load, {until}]")
    with GracefulShutdown() as stop:
        try:
            deadline = (time.monotonic() + args.duration
                        if args.duration else None)
            while not stop.event.is_set():
                if (deadline is not None
                        and time.monotonic() >= deadline):
                    break
                stop.event.wait(0.2)
        finally:
            done.set()
            if loader is not None:
                loader.join(timeout=5.0)
            dash.stop()
            if cluster is not None:
                cluster.stop()
            if engine is not None:
                engine.stop()
    actions = len(dash.audit_entries())
    print(f"[dashboard stopped -- {dash.events.seq} events streamed, "
          f"{actions} operator action(s) audited]")
    _interrupt_note(stop)
    return 0


def _suite_selection(args):
    """Resolve --networks/--levels for the kernel sweeps; ``None`` on a
    usage error (after printing it)."""
    from .analysis.linter import ALL_LEVEL_KEYS
    from .rrm.networks import FULL_SUITE
    levels = list(ALL_LEVEL_KEYS)
    if args.levels:
        levels = [k for k in args.levels.replace(",", "") if k.strip()]
        unknown = sorted(set(levels) - set(ALL_LEVEL_KEYS))
        if unknown:
            print(f"unknown level(s): {', '.join(unknown)}",
                  file=sys.stderr)
            return None
    networks = FULL_SUITE
    if args.networks:
        wanted = set(args.networks.split(","))
        networks = [n for n in FULL_SUITE if n.name in wanted]
        missing = wanted - {n.name for n in networks}
        if missing:
            print(f"unknown network(s): {', '.join(sorted(missing))}",
                  file=sys.stderr)
            return None
    return networks, levels


def _cmd_lint(args) -> int:
    from .analysis.linter import (lint_network, lint_text,
                                  render_results)
    results = []
    if args.files:
        for path in args.files:
            with open(path) as handle:
                source = handle.read()
            results.append(lint_text(source, name=path))
    if args.kernels or not args.files:
        selection = _suite_selection(args)
        if selection is None:
            return 2
        networks, levels = selection
        for network in networks:
            for level in levels:
                results.append(lint_network(network, level))
    print(render_results(results, min_severity=args.min_severity,
                         as_json=args.json))
    return 1 if any(not r.ok for r in results) else 0


def _cmd_certify(args) -> int:
    import json

    from .analysis.absint import analyze
    from .analysis.footprint import Footprint
    from .isa import assemble
    reports = []
    if args.files:
        for path in args.files:
            with open(path) as handle:
                program = assemble(handle.read())
            reports.append(
                (path, analyze(program, Footprint.default(args.memory))))
    if args.kernels or not args.files:
        from .rrm.suite import plan_for
        selection = _suite_selection(args)
        if selection is None:
            return 2
        networks, levels = selection
        for network in networks:
            for level in levels:
                plan = plan_for(network, level)
                cert = analyze(assemble(plan.text),
                               Footprint.from_plan(plan))
                reports.append((f"{network.name}/{level}", cert))
    unproven = sum(len(c.unproven) for _, c in reports)
    if args.json:
        doc = {"results": [{"name": name, **cert.to_dict(full=args.full)}
                           for name, cert in reports],
               "total_unproven": unproven,
               "proven": unproven == 0}
        print(json.dumps(doc, indent=2))
    else:
        for name, cert in reports:
            proven_trips = sum(1 for f in cert.loops
                               if f.trip is not None)
            print(f"{name}: mode={cert.mode} "
                  f"accesses={len(cert.accesses)} "
                  f"unproven={len(cert.unproven)} "
                  f"trips={proven_trips}/{len(cert.loops)} "
                  f"saturating={len(cert.saturation)}")
            for access in cert.unproven:
                print(f"  UNPROVEN {access.mnemonic} "
                      f"@0x{access.idx * 4:x}: {access.reason} "
                      f"[0x{access.lo:x}, 0x{access.hi:x}]")
        print(f"== {len(reports)} program(s): "
              f"{unproven} unproven access(es)")
    return 1 if unproven else 0


def _cmd_run(args) -> int:
    from .core import Cpu, Memory
    from .isa import assemble, reg_name
    with open(args.file) as handle:
        source = handle.read()
    program = assemble(source)
    memory = Memory(args.memory)
    program.load_data(memory)
    cpu = Cpu(program, memory, engine=args.engine)
    trace = cpu.run()
    print(f"halted after {cpu.instret} instructions, "
          f"{cpu.cycles} cycles\n")
    for i in range(0, 32, 4):
        print("  ".join(f"{reg_name(r):>5s}={cpu.reg(r):08x}"
                        for r in range(i, i + 4)))
    print()
    print(trace.table(top_n=10))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Extending the RISC-V ISA for "
                    "Efficient RNN-based 5G Radio Resource Management' "
                    "(DAC 2020)")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in _DRIVERS:
        sub.add_parser(name, help=f"regenerate {name}")

    p_all = sub.add_parser("all", help="regenerate every experiment")
    p_all.add_argument("--out", help="directory for text artifacts")

    p_suite = sub.add_parser("suite", help="run the suite on the ISS")
    p_suite.add_argument("--level", choices=list("abcde"))
    p_suite.add_argument("--scale", type=int, default=None,
                         help="suite down-scale factor (default: "
                              "REPRO_SCALE or 4)")
    p_suite.add_argument("--no-check", action="store_true",
                         help="skip golden-model verification")
    p_suite.add_argument("--engine",
                         choices=["auto", "interp", "turbo"],
                         default="auto",
                         help="ISS execution engine (auto = turbo at "
                              "paper scale REPRO_SCALE=1, interp "
                              "otherwise)")

    p_profile = sub.add_parser(
        "profile",
        help="hierarchical cycle attribution for one suite network")
    p_profile.add_argument("network", help="suite network name")
    p_profile.add_argument("--level", choices=list("abcdef"), default="e",
                           help="optimization level (default: e)")
    p_profile.add_argument("--engine",
                           choices=["interp", "turbo", "both"],
                           default="interp",
                           help="ISS engine; 'both' runs interp and turbo "
                                "and cross-checks their totals")
    p_profile.add_argument("--scale", type=int, default=None,
                           help="suite down-scale factor (default: "
                                "REPRO_SCALE or 4)")
    p_profile.add_argument("--seed", type=int, default=2020)
    p_profile.add_argument("--depth", type=int, default=None,
                           help="max region depth in the printed table")
    p_profile.add_argument("--check", action="store_true",
                           help="also verify against the golden model")
    p_profile.add_argument("--out",
                           help="write the full profile tree as JSON")
    p_profile.add_argument("--folded",
                           help="write folded stacks (flamegraph.pl / "
                                "speedscope input)")
    p_profile.add_argument("--mnemonics", action="store_true",
                           help="per-mnemonic leaf frames in --folded")

    p_obs = sub.add_parser(
        "overhead-bench",
        help="measure observability overhead (instrumented vs. not)")
    p_obs.add_argument("--scale", type=int, default=None,
                       help="suite down-scale factor (default: "
                            "REPRO_SCALE or 4)")
    p_obs.add_argument("--level", choices=list("abcdef"), default="e")
    p_obs.add_argument("--engine", choices=["interp", "turbo"],
                       default="interp")
    p_obs.add_argument("--network", default=None,
                       help="suite network for the ISS leg (default: "
                            "the largest)")
    p_obs.add_argument("--repeats", type=int, default=3,
                       help="timed repetitions per ISS measurement")
    p_obs.add_argument("--requests", type=int, default=150,
                       help="requests per serve leg")
    p_obs.add_argument("--seed", type=int, default=2020)
    p_obs.add_argument("--out", default="BENCH_obs.json",
                       help="JSON results path ('' to skip writing)")

    p_aot = sub.add_parser(
        "aot-bench",
        help="model-level compiled-plan throughput and bit-exactness "
             "vs the scalar model, with roofline report")
    p_aot.add_argument("--level", choices=list("abcdef"), default="e")
    p_aot.add_argument("--scale", type=int, default=None,
                       help="suite down-scale factor (default: "
                            "REPRO_SCALE or 4)")
    p_aot.add_argument("--batch", type=int, default=16,
                       help="batch size per timed infer call")
    p_aot.add_argument("--repeats", type=int, default=5,
                       help="best-of-N timing repeats")
    p_aot.add_argument("--seed", type=int, default=2020)
    p_aot.add_argument("--out", default="BENCH_aot.json",
                       help="JSON results path ('' to skip writing)")

    # The flags every load bench (serve, cluster, chaos) shares.
    load = argparse.ArgumentParser(add_help=False)
    load.add_argument("--requests", type=int,
                      help="number of requests per pass")
    load.add_argument("--rate", type=float, default=None,
                      help="offered load in req/s (default: 8x the "
                           "measured sequential throughput; chaos-bench: "
                           "--requests over --duration)")
    load.add_argument("--level", choices=list("abcde"), default="e")
    load.add_argument("--scale", type=int, default=None,
                      help="suite down-scale factor (default: "
                           "REPRO_SCALE or 4)")
    load.add_argument("--batch", type=int, default=16,
                      help="max dynamic batch size (per replica)")
    load.add_argument("--linger-ms", type=float, default=2.0,
                      help="max batching linger in milliseconds")
    load.add_argument("--seed", type=int, default=2020)
    load.add_argument("--out",
                      help="JSON results path ('' to skip writing)")
    load.add_argument("--dashboard", type=int, default=None,
                      metavar="PORT",
                      help="serve the live web control plane on this "
                           "port for the duration of the run")

    p_serve = sub.add_parser(
        "serve-bench", parents=[load],
        help="benchmark the batched inference runtime under Poisson load")
    p_serve.set_defaults(requests=400, out="BENCH_serve.json")

    p_cluster = sub.add_parser(
        "cluster-bench", parents=[load],
        help="benchmark the process-sharded serving cluster "
             "(worker-count scaling curve)")
    p_cluster.set_defaults(requests=400, out="BENCH_serve.json")
    p_cluster.add_argument("--workers", type=_worker_counts,
                           default="1,2,4,8",
                           help="comma-separated worker counts for the "
                                "scaling curve (default: 1,2,4,8)")
    p_cluster.add_argument("--capacity", type=int, default=256,
                           help="router per-replica outstanding budget "
                                "(admission control)")
    p_cluster.add_argument("--autoscale", action="store_true",
                           help="enable the queue-driven per-shard "
                                "autoscaler during cluster passes")
    p_cluster.add_argument("--trace-out", default=None,
                           help="write one merged Perfetto trace spanning "
                                "the router and every worker (largest "
                                "worker count)")
    for p_open in (p_serve, p_cluster):
        p_open.add_argument("--timeout-ms", type=float, default=10000.0,
                            help="per-request deadline in milliseconds")
        p_open.add_argument("--traffic", type=_traffic, default="poisson",
                            help="arrival process shape: poisson, "
                                 "diurnal, bursty or diurnal-bursty "
                                 "(default: poisson)")
        p_open.add_argument("--tenants", type=int, default=0,
                            help="multi-tenant mode: number of tenants "
                                 "with per-tenant network mixes "
                                 "(0 = uniform)")

    p_chaos = sub.add_parser(
        "chaos-bench", parents=[load],
        help="benchmark fault tolerance under a scripted chaos scenario")
    p_chaos.set_defaults(requests=300, out="BENCH_chaos.json")
    p_chaos.add_argument("--duration", type=float, default=3.0,
                         help="target run duration in seconds (sets the "
                              "offered rate when --rate is not given)")
    p_chaos.add_argument("--integrity-every", type=int, default=5,
                         help="weight-CRC verification cadence in batches")
    p_chaos.add_argument("--cluster", action="store_true",
                         help="run the scenario against the process-"
                              "sharded cluster, adding SIGKILL worker-"
                              "process deaths on a deterministic schedule")
    p_chaos.add_argument("--workers", type=int, default=4,
                         help="total cluster worker processes with "
                              "--cluster (default: 4)")
    p_chaos.add_argument("--no-abft", dest="abft", action="store_false",
                         help="serve with the plain batched model "
                              "(injected SDC then corrupts results "
                              "silently instead of being detected)")
    p_chaos.add_argument("--no-hedge", dest="hedge", action="store_false",
                         help="--cluster only: disable hedged retries "
                              "and the retry budget")
    p_chaos.add_argument("--no-ipc-faults", dest="ipc_faults",
                         action="store_false",
                         help="--cluster only: perfect router<->worker "
                              "pipes (no message-level fault injection)")
    p_chaos.add_argument("--trace-out", default=None,
                         help="write a Perfetto-loadable span trace of "
                              "the chaos pass (Chrome trace-event JSON; "
                              "merged over router and workers with "
                              "--cluster)")

    p_dash = sub.add_parser(
        "dashboard",
        help="run the live web control plane standalone against a "
             "fresh engine or cluster with background load")
    p_dash.add_argument("--port", type=int, default=8321,
                        help="HTTP port (default: 8321; 0 = ephemeral)")
    p_dash.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: 127.0.0.1)")
    p_dash.add_argument("--level", choices=list("abcde"), default="e")
    p_dash.add_argument("--scale", type=int, default=None,
                        help="suite down-scale factor (default: "
                             "REPRO_SCALE or 4)")
    p_dash.add_argument("--cluster", action="store_true",
                        help="serve a process-sharded cluster instead "
                             "of a single in-process engine")
    p_dash.add_argument("--workers", type=int, default=4,
                        help="total cluster worker processes with "
                             "--cluster (default: 4)")
    p_dash.add_argument("--load", type=float, default=20.0,
                        help="background request rate in req/s so the "
                             "charts move (0 = no load)")
    p_dash.add_argument("--duration", type=float, default=0.0,
                        help="stop after this many seconds (default: "
                             "0 = run until SIGINT/SIGTERM)")
    p_dash.add_argument("--token", default=None,
                        help="bearer token required for operator POST "
                             "actions (default: none, actions open)")
    p_dash.add_argument("--seed", type=int, default=2020)

    p_lint = sub.add_parser(
        "lint",
        help="static analysis (CFG/dataflow lint) of assembly programs")
    p_lint.add_argument("files", nargs="*",
                        help=".s files to lint (default: all generated "
                             "suite kernels)")
    p_lint.add_argument("--kernels", action="store_true",
                        help="also lint the generated suite kernels when "
                             "files are given")
    p_lint.add_argument("--networks",
                        help="comma-separated suite network names "
                             "(default: all)")
    p_lint.add_argument("--levels",
                        help="optimization level keys, e.g. 'de' "
                             "(default: abcdef)")
    p_lint.add_argument("--min-severity", choices=["error", "warning",
                                                   "info"],
                        default="warning",
                        help="lowest severity to print (default: warning)")
    p_lint.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON")

    p_cert = sub.add_parser(
        "certify",
        help="abstract-interpretation certificates: value ranges, "
             "memory safety, proven trip counts")
    p_cert.add_argument("files", nargs="*",
                        help=".s files to certify (default: all "
                             "generated suite kernels)")
    p_cert.add_argument("--kernels", action="store_true",
                        help="also certify the generated suite kernels "
                             "when files are given")
    p_cert.add_argument("--networks",
                        help="comma-separated network names "
                             "(default: all)")
    p_cert.add_argument("--levels",
                        help="level keys to certify, e.g. 'adf' "
                             "(default: abcdef)")
    p_cert.add_argument("--json", action="store_true",
                        help="emit machine-readable certificate JSON")
    p_cert.add_argument("--full", action="store_true",
                        help="include per-access detail and per-point "
                             "register bounds in the JSON")
    p_cert.add_argument("--memory", type=int, default=1 << 20,
                        help="memory size for bare files (kernels use "
                             "their declared footprint)")

    p_run = sub.add_parser("run", help="assemble + execute a .s file")
    p_run.add_argument("file")
    p_run.add_argument("--memory", type=int, default=1 << 20,
                       help="memory size in bytes")
    p_run.add_argument("--engine", choices=["interp", "turbo"],
                       default="interp",
                       help="ISS execution engine (turbo = vectorized "
                            "loop kernels, bit- and cycle-exact)")

    args = parser.parse_args(argv)
    if args.command in _DRIVERS:
        _run_driver(args.command)
        return 0
    if args.command == "all":
        return _cmd_all(args)
    if args.command == "suite":
        return _cmd_suite(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command in _BENCHES:
        return _cmd_bench(args)
    if args.command == "dashboard":
        return _cmd_dashboard(args)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "certify":
        return _cmd_certify(args)
    if args.command == "run":
        return _cmd_run(args)
    return 2


if __name__ == "__main__":
    sys.exit(main())
