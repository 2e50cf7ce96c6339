"""Chaos benchmarking: the serving engine under scripted faults.

``python -m repro chaos-bench`` drives the open-loop Poisson load
generator against an engine wired to a seeded
:class:`~repro.faults.FaultInjector`, then measures what a fault-free
run of the *same* request stream achieves, and reports:

* **availability** — the fraction of non-rejected requests that
  completed with *bit-exact* output (every DONE output is checked
  against a pristine per-sample golden model, so a bit-flipped weight
  that silently corrupts a result counts as unavailable, not as done);
* **goodput** — correct completions per second, vs. the fault-free
  baseline at the same offered rate;
* **recovery** — every breaker open/close transition with timestamps,
  per-network recovery durations, and whether every opened breaker
  re-closed once its fault window passed;
* **integrity** — CRC checks, violations and automatic
  re-quantize-and-reload repairs;
* **determinism** — the canonical injected-fault log and its SHA-256;
  two runs with the same seed produce the identical digest.

Results are written to ``BENCH_chaos.json``.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from ..faults import FaultInjector, FaultPlan, FaultSpec
from ..rrm.networks import suite
from .breaker import BreakerState
from .engine import EngineConfig, InferenceEngine, ModelRegistry
from .loadgen import LoadGenerator, make_request_stream
from .metrics import ServeMetrics

__all__ = ["default_scenario", "run_chaos_bench", "render_chaos_table",
           "golden_outputs"]


def default_scenario(networks, n_requests: int, seed: int = 2020) -> FaultPlan:
    """The standard chaos script, scaled to the expected traffic.

    Windows live in per-network request-sequence space (deterministic
    for a given stream seed).  Four independent fault processes, each on
    its own network: SEU weight bit-flips, transient batch crashes
    (recovered by bisect), a persistent crash window (opens the
    breaker), and latency spikes.
    """
    names = sorted(net.name for net in networks)
    per_network = max(1, n_requests // max(1, len(names)))
    w = max(3, per_network // 5)

    def pick(i: int) -> str:
        return names[i % len(names)]

    return FaultPlan([
        FaultSpec(kind="bitflip", network=pick(0), start=w, stop=3 * w,
                  rate=0.5),
        FaultSpec(kind="crash", network=pick(1), start=w, stop=2 * w,
                  transient=True),
        FaultSpec(kind="crash", network=pick(2), start=w,
                  stop=w + max(3, per_network // 8), transient=False),
        FaultSpec(kind="latency", network=pick(3), start=w, stop=w + 3,
                  delay_s=0.02),
        # Activation-state SDC after the bitflip window on the same
        # network: the CRC weight guard cannot see these — only the
        # ABFT column checksums can.
        FaultSpec(kind="sdc", network=pick(0), start=3 * w,
                  stop=3 * w + max(2, w // 2)),
    ])


def golden_outputs(networks, stream, level: str, seed: int) -> tuple:
    """Pristine per-request outputs via a fresh sequential golden model.

    Returns ``(outputs, summary)`` where ``summary`` doubles as the
    sequential-baseline timing (same measurement as ``serve-bench``'s
    baseline, but keeping the outputs for correctness checking).
    """
    registry = ModelRegistry(seed=seed)
    outputs = []
    start = time.perf_counter()
    for network, x_raw in stream:
        entry = registry.get(network, level)
        entry.reference.reset()
        outputs.append(entry.reference.forward(x_raw))
    elapsed = time.perf_counter() - start
    return outputs, {
        "requests": len(stream),
        "elapsed_s": elapsed,
        "throughput_rps": len(stream) / elapsed if elapsed > 0 else 0.0,
    }


def _drive(networks, config: EngineConfig, stream, rate_rps: float,
           seed: int, expected, injector=None,
           recovery_budget_s: float = 3.0, tracer=None,
           stop_event=None, dashboard=None) -> dict:
    """One load-generator pass; returns accounting incl. correctness."""
    engine = InferenceEngine(networks=networks, config=config,
                             metrics=ServeMetrics(),
                             fault_injector=injector, tracer=tracer)
    if dashboard is not None:
        dashboard.attach(engine=engine)
    for network in networks:  # warm the registry outside the timed region
        engine.registry.get(network, config.level)
    generator = LoadGenerator(engine, rate_rps, seed=seed, timeout_s=None,
                              stop_event=stop_event)
    with engine:
        run = generator.run(stream)
        probes = _probe_open_breakers(engine, stream, recovery_budget_s)
    requests = run.pop("requests")
    correct = sum(1 for request, want in zip(requests, expected)
                  if request.ok and np.array_equal(request.output, want))
    run["requests"] = requests
    rejected = (run["rejected_timeout"] + run["rejected_capacity"]
                + run["rejected_unavailable"])
    accepted = run["submitted"] - rejected
    incorrect = run["completed"] - correct
    return {
        **run,
        "correct": correct,
        "incorrect": incorrect,
        "rejected": rejected,
        "availability": correct / accepted if accepted else 0.0,
        "goodput_rps": correct / run["elapsed_s"]
            if run["elapsed_s"] > 0 else 0.0,
        "recovery_probes": probes,
        "engine": engine,
    }


def _probe_open_breakers(engine: InferenceEngine, stream,
                         budget_s: float) -> int:
    """Health-probe networks whose breaker is still open post-run.

    A breaker only re-closes when a half-open probe batch succeeds; if
    the load stopped while one was open, nothing would ever probe it.
    This is the serving-system equivalent of a health checker.  Probe
    requests are excluded from the availability accounting.
    """
    sample = {}
    for network, x_raw in stream:
        sample.setdefault(network.name, x_raw)
    deadline = time.monotonic() + budget_s
    probes = 0
    while time.monotonic() < deadline:
        open_names = [name for name, breaker in engine.breakers.items()
                      if breaker.state != BreakerState.CLOSED
                      and name in sample]
        if not open_names:
            break
        for name in open_names:
            request = engine.submit(name, sample[name])
            probes += 1
            request.wait(timeout=1.0)
        time.sleep(0.01)
    return probes


def _breaker_report(engine: InferenceEngine) -> dict:
    events = sorted(engine.breaker_events, key=lambda e: e["t"])
    t0 = events[0]["t"] if events else 0.0
    opens = sum(1 for e in events if e["to"] == BreakerState.OPEN)
    closes = sum(1 for e in events if e["to"] == BreakerState.CLOSED)
    recovery: dict = {}
    opened_at: dict = {}
    for event in events:
        name = event["network"]
        if event["to"] == BreakerState.OPEN:
            opened_at.setdefault(name, event["t"])
        elif event["to"] == BreakerState.CLOSED and name in opened_at:
            recovery.setdefault(name, []).append(
                event["t"] - opened_at.pop(name))
    final_states = {name: breaker.state
                    for name, breaker in engine.breakers.items()}
    ever_opened = {e["network"] for e in events
                   if e["to"] == BreakerState.OPEN}
    all_reclosed = all(final_states[name] == BreakerState.CLOSED
                       for name in ever_opened)
    return {
        "opens": opens,
        "closes": closes,
        "all_reclosed": all_reclosed,
        "final_states": final_states,
        "recovery_s": recovery,
        "events": [{**e, "t": e["t"] - t0} for e in events],
    }


def run_chaos_bench(scale: int | None = None, level: str = "e",
                    n_requests: int = 300, duration_s: float = 3.0,
                    rate_rps: float | None = None,
                    max_batch_size: int = 16, max_linger_s: float = 0.002,
                    integrity_check_every: int = 5, seed: int = 2020,
                    scenario: FaultPlan | None = None,
                    out_path: str | None = None,
                    trace_out: str | None = None,
                    stop_event=None, abft: bool = True,
                    dashboard_port: int | None = None) -> dict:
    """The ``chaos-bench`` experiment: fault-free baseline, then chaos.

    Returns the JSON-ready result dict; also writes it to ``out_path``
    when given.  ``rate_rps=None`` spreads ``n_requests`` over
    ``duration_s`` so the run spans enough wall time for breaker
    open/backoff/half-open dynamics to play out.  With ``trace_out`` the
    chaos pass runs with a span tracer attached and writes a
    Perfetto-loadable Chrome trace-event JSON of the whole pipeline
    (enqueue/batch/execute spans, fault and breaker instants).
    """
    networks = suite(scale)
    if rate_rps is None:
        rate_rps = max(1.0, n_requests / duration_s)
    config = EngineConfig(level=level, max_batch_size=max_batch_size,
                          max_linger_s=max_linger_s, seed=seed,
                          integrity_check_every=integrity_check_every,
                          abft=abft)
    stream = make_request_stream(networks, n_requests, seed=seed)
    expected, sequential = golden_outputs(networks, stream, level, seed)
    plan = scenario if scenario is not None \
        else default_scenario(networks, n_requests, seed=seed)

    from ..obs.web import bench_dashboard
    with bench_dashboard(dashboard_port, label="chaos-bench",
                         scale=scale) as dashboard:
        baseline = _drive(networks, config, stream, rate_rps, seed,
                          expected, stop_event=stop_event,
                          dashboard=dashboard)
        injector = FaultInjector(plan, seed=seed)
        tracer = None
        if trace_out:
            from ..obs import SpanTracer
            tracer = SpanTracer(process_name="repro.serve chaos-bench")
        chaos = _drive(networks, config, stream, rate_rps, seed, expected,
                       injector=injector, tracer=tracer,
                       stop_event=stop_event, dashboard=dashboard)
        stop_t = time.monotonic()

    engine = chaos.pop("engine")
    baseline_engine = baseline.pop("engine")
    chaos_requests = chaos.pop("requests")
    baseline.pop("requests")
    metrics = engine.metrics.to_dict()
    breakers = _breaker_report(engine)
    fault_log = injector.canonical_log()

    # Resilience accounting: exactly-once settlement over every chaos
    # request, plus the measured cost of the ABFT checksum pass.
    from ..resilience import check_requests, measure_abft_overhead
    invariants = check_requests(chaos_requests, stop_t=stop_t)
    overhead_net = min(networks, key=lambda n: n.name)
    overhead_pct = measure_abft_overhead(
        overhead_net,
        engine.registry.get(overhead_net, level).params_raw)
    resilience = {
        "abft": abft,
        "sdc_detections": metrics["total"]["sdc_detections"],
        "sdc_repairs": metrics["total"]["sdc_repairs"],
        "sdc_reruns": metrics["total"]["sdc_reruns"],
        # Hedging/retry budgets live in the cluster router; the
        # single-process bench reports them as structurally zero so the
        # two BENCH_chaos variants share one schema.
        "hedges": 0,
        "hedge_wins": 0,
        "retry_budget_denied": 0,
        "abft_overhead_pct": overhead_pct,
        "invariants_ok": invariants.ok,
        "invariants": invariants.to_dict(),
    }
    result = {
        "bench": "chaos",
        "config": {
            "scale": scale,
            "level": level,
            "n_requests": n_requests,
            "rate_rps": rate_rps,
            "duration_s": duration_s,
            "max_batch_size": max_batch_size,
            "max_linger_s": max_linger_s,
            "integrity_check_every": integrity_check_every,
            "breaker_failure_threshold": config.breaker_failure_threshold,
            "breaker_backoff_s": config.breaker_backoff_s,
            "seed": seed,
            "abft": abft,
        },
        "scenario": plan.to_dict(),
        "interrupted": bool(baseline.get("interrupted")
                            or chaos.get("interrupted")),
        "chaos": chaos,
        "baseline": baseline,
        "availability": chaos["availability"],
        "goodput_rps": chaos["goodput_rps"],
        "goodput_ratio_vs_baseline":
            chaos["goodput_rps"] / baseline["goodput_rps"]
            if baseline["goodput_rps"] > 0 else 0.0,
        "sequential_golden": sequential,
        "breakers": breakers,
        "all_breakers_reclosed": breakers["all_reclosed"],
        "integrity": {
            "checks": metrics["total"]["integrity_checks"],
            "violations": metrics["total"]["integrity_violations"],
            "repairs": metrics["total"]["integrity_repairs"],
        },
        "integrity_repairs": metrics["total"]["integrity_repairs"],
        "faults": {
            "injected_events": len(fault_log),
            "by_kind": injector.counts(),
            "log_sha256": injector.log_digest(),
            "log": fault_log,
        },
        "fault_log_sha256": injector.log_digest(),
        "resilience": resilience,
        "baseline_metrics": baseline_engine.metrics.to_dict(),
        "metrics": metrics,
    }
    if tracer is not None:
        directory = os.path.dirname(os.path.abspath(trace_out))
        os.makedirs(directory, exist_ok=True)
        tracer.dump(trace_out)
        result["trace"] = {"path": trace_out, "events": tracer.n_events,
                           "dropped": tracer.n_dropped}
    if out_path:
        directory = os.path.dirname(os.path.abspath(out_path))
        os.makedirs(directory, exist_ok=True)
        with open(out_path, "w") as handle:
            json.dump(result, handle, indent=2)
            handle.write("\n")
    return result


def render_chaos_table(result: dict) -> str:
    """Human-readable chaos report for one bench result."""
    lines = []
    config = result["config"]
    lines.append("chaos-bench: fault-tolerant serving under scripted faults "
                 f"(level {config['level']}, seed {config['seed']}, "
                 f"{config['n_requests']} requests @ "
                 f"{config['rate_rps']:.0f} req/s)")
    lines.append("")
    header = (f"{'network':<15}{'done':>6}{'fail':>6}{'rej':>5}{'faults':>8}"
              f"{'bisect':>8}{'retry':>7}{'repair':>8}{'breaker':>10}")
    lines.append(header)
    lines.append("-" * len(header))
    for name, net in result["metrics"]["per_network"].items():
        rejected = (net["rejected_timeout"] + net["rejected_capacity"]
                    + net["rejected_unavailable"])
        breaker = net["breaker"]
        breaker_cell = (f"{breaker['opens']}o/{breaker['closes']}c"
                        if breaker["opens"] else "-")
        lines.append(f"{name:<15}{net['completed']:>6}{net['failed']:>6}"
                     f"{rejected:>5}{net['faults_injected']:>8}"
                     f"{net['bisects']:>8}{net['retries']:>7}"
                     f"{net['integrity_repairs']:>8}{breaker_cell:>10}")
    lines.append("-" * len(header))
    chaos = result["chaos"]
    lines.append("")
    lines.append(f"availability        {result['availability'] * 100:>9.1f} %"
                 "  (non-rejected requests completing bit-exactly)")
    lines.append(f"goodput             {result['goodput_rps']:>9.1f} req/s"
                 f"  ({result['goodput_ratio_vs_baseline'] * 100:.0f}% of the"
                 " fault-free baseline at the same offered load)")
    injected = result['faults']['injected_events']
    lines.append(f"faults injected     {injected:>9d}"
                 f"  {result['faults']['by_kind']}")
    lines.append(f"integrity repairs   {result['integrity']['repairs']:>9d}"
                 f"  ({result['integrity']['checks']} checks, "
                 f"{result['integrity']['violations']} corrupted arrays)")
    recloses = "yes" if result["all_breakers_reclosed"] else "NO"
    recovery = {name: [round(v, 3) for v in vals]
                for name, vals in result["breakers"]["recovery_s"].items()}
    lines.append(f"breakers            {result['breakers']['opens']:>9d} opens"
                 f"  all re-closed: {recloses}  recovery_s: {recovery}")
    lines.append(f"incorrect / failed  {chaos['incorrect']:>9d} / "
                 f"{chaos['failed']}")
    res = result.get("resilience")
    if res is not None:
        status = "ok" if res["invariants_ok"] else "VIOLATED"
        lines.append(f"sdc / abft          {res['sdc_detections']:>9d} "
                     f"detected  {res['sdc_repairs']} repairs, "
                     f"{res['sdc_reruns']} reruns, checksum overhead "
                     f"{res['abft_overhead_pct']:.1f}%")
        lines.append(f"invariants          {status:>9}"
                     "  (exactly-once settlement)")
    lines.append(f"fault-log sha256    {result['fault_log_sha256'][:16]}…"
                 "  (identical for identical seeds)")
    return "\n".join(lines)
