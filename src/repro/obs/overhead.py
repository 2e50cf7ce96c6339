"""Observability overhead benchmark (``BENCH_obs.json``).

Profiling and tracing are opt-in by design: cycle attribution is
*post-hoc* (it reads the per-instruction stats cells both engines
already maintain — nothing extra runs while the ISS executes), and
every serving-engine trace hook is guarded by a single ``tracer is
None`` test.  This bench quantifies both claims:

* **ISS leg** — instructions retired per wall-second, sampled as
  back-to-back triplets (uninstrumented, uninstrumented again, with a
  full profile built after the run).  The median paired ratio between
  the two uninstrumented legs is the wall-clock measurement noise
  floor; the profiled leg's median ratio is the opt-in cost.
* **Serve leg** — a ``serve-bench`` engine pass (the one pass runner
  of :mod:`repro.bench`, offered 8x the sequential throughput): p99
  latency and achieved throughput with no tracer vs. with a
  :class:`~repro.obs.spans.SpanTracer` attached.
* **Dashboard leg** — the same serve bench with the live web control
  plane (:mod:`repro.obs.web`) attached and an external scraper
  polling ``/metrics`` and ``/api/metrics.json`` every 25ms: sampler
  thread, HTTP handler threads and registry renders all competing
  with the engine for CPU.  The on-path cost of the dashboard (the
  three stage-histogram records every request performs whether or not
  anyone is watching) is bounded structurally, like the guard cost.
* **Off-path cost** — the headline ``overhead_off_pct``.  With tracing
  off the hot path contains nothing but a handful of ``tracer is
  None`` guards, so the off cost is computed *structurally*: the
  measured wall cost of one disabled guard, times a conservative
  guard count per request, over the measured per-request service
  time.  (A wall-clock A/B of identical code cannot resolve this — it
  sits far below the noise floor reported above.)  The budget is 2%;
  the structural bound lands orders of magnitude under it.
"""

from __future__ import annotations

import time

import numpy as np

from ..kernels.runner import NetworkProgram
from ..nn.network import init_params, quantize_params
from ..rrm.networks import suite
from .profiler import profile_cpu
from .spans import SpanTracer

__all__ = ["run_overhead_bench"]


def _median(values: list) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _iss_legs(network, level: str, engine: str, seed: int,
              repeats: int) -> dict:
    """Instret/s for two uninstrumented legs and one profiled leg.

    A shared machine modulates throughput by >10% over seconds, which
    swamps single-digit overheads measured from independent timings.
    Samples are therefore taken as back-to-back triplets
    (off-a, off-b, profiled) and each comparison is the **median of the
    per-triplet ratios**: the paired design cancels slow drift, and the
    median discards contention bursts that land inside one triplet.
    """
    params = quantize_params(
        init_params(network, np.random.default_rng(seed)))
    rng = np.random.default_rng(seed)
    xs = [np.asarray(rng.uniform(-1.0, 1.0, network.input_size) * 4096,
                     dtype=np.int64)
          for _ in range(network.timesteps)]
    # Calibration run (untimed): a scaled-down network retires only a
    # few thousand instructions, so a single forward is dominated by
    # timer noise.  Batch enough forwards per timed sample to cover
    # ~100k instructions.
    warm = NetworkProgram(network, params, level, engine=engine)
    warm.forward(xs)
    instrs = warm.trace.total_instrs
    inner = max(1, round(100_000 / max(1, instrs)))

    def sample(profile: bool) -> float:
        programs = [NetworkProgram(network, params, level, engine=engine)
                    for _ in range(inner)]
        start = time.perf_counter()
        for program in programs:
            program.forward(xs)
            if profile:
                profile_cpu(program.cpu,
                            region_paths=program.plan.region_paths,
                            root=network.name)
        elapsed = time.perf_counter() - start
        return inner * instrs / elapsed if elapsed > 0 else 0.0

    pairs = max(2 * repeats + 3, 9)
    off_ratios, on_ratios = [], []
    best_off = best_on = 0.0
    for _ in range(pairs):
        a = sample(False)
        b = sample(False)
        profiled = sample(True)
        if a and b:
            off_ratios.append(a / b)
        if a and profiled:
            on_ratios.append(profiled / max(a, b))
        best_off = max(best_off, a, b)
        best_on = max(best_on, profiled)
    off_pct = abs(1.0 - _median(off_ratios)) * 100.0 if off_ratios else 0.0
    on_pct = max(0.0, (1.0 - _median(on_ratios)) * 100.0) \
        if on_ratios else 0.0
    return {"best_off": best_off, "best_profiled": best_on,
            "off_spread_pct": off_pct, "profile_overhead_pct": on_pct,
            "triplets": pairs, "instrs_per_run": instrs,
            "forwards_per_sample": inner}


# Upper bound on `tracer is None` guard sites a request crosses in the
# serving engine (submit, dispatch, attempt start, execute span,
# respond, plus slack for retry/bisect paths).
_GUARDS_PER_REQUEST = 8


def _guard_cost_s(iters: int = 200_000, repeats: int = 5) -> float:
    """Wall cost of one disabled trace hook: an attribute fetch plus an
    ``is None`` test.  Best of ``repeats`` timing loops."""
    class _Holder:
        tracer = None

    holder = _Holder()
    best = float("inf")
    for _ in range(repeats):
        hits = 0
        start = time.perf_counter()
        for _ in range(iters):
            if holder.tracer is not None:
                hits += 1
        elapsed = time.perf_counter() - start
        best = min(best, elapsed / iters)
    return best


def _stage_records_per_request(mean_batch_size: float) -> float:
    """Amortized stage-histogram updates per served request.

    ``ServeMetrics.on_stages`` performs one per-request ``queue_wait``
    record plus two batch-wide ``record_n`` calls per settled batch
    (the engine-wide view is merged off-path at read time), so a batch
    of ``B`` requests costs ``B + 2`` updates: ``1 + 2/B`` each.
    These run whether or not a dashboard is attached — they are the
    dashboard's on-path cost.
    """
    return 1.0 + 2.0 / max(1.0, mean_batch_size)


def _stage_record_cost_s(iters: int = 100_000,
                         repeats: int = 5) -> float:
    """Wall cost of one ``LatencyHistogram.record`` call (a log-bucket
    index plus two scalar accumulations).  Best of ``repeats``."""
    from ..serve.metrics import LatencyHistogram

    hist = LatencyHistogram()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(iters):
            hist.record(1e-4)
        elapsed = time.perf_counter() - start
        best = min(best, elapsed / iters)
    return best


def _serve_leg(networks, level: str, requests: int, seed: int,
               tracer=None, dashboard=None, stop_event=None) -> dict:
    """One serve-bench engine pass, optionally traced or watched."""
    from ..bench import EngineTarget, offered_load, run_pass
    from ..serve.engine import EngineConfig

    stream, _, golden, rate = offered_load(networks, requests, level, seed)
    target = EngineTarget(networks, EngineConfig(level=level, seed=seed),
                          tracer=tracer)
    engine = run_pass(target, stream, rate, golden, seed, timeout_s=10.0,
                      stop_event=stop_event, dashboard=dashboard)
    return {key: engine[key] for key in (
        "p99_s", "p50_s", "achieved_throughput_rps", "completed",
        "mean_batch_size")}


def _dashboard_serve_leg(networks, level: str, requests: int, seed: int,
                         stop_event=None) -> dict:
    """Serve leg with the web control plane attached and scraped.

    A scraper thread polls ``/metrics`` and ``/api/metrics.json``
    every 25ms for the whole run (connection errors before the server
    is up are counted, not fatal) — far harder than any real browser
    or Prometheus scrape cadence, so the leg is an upper bound on the
    observer cost: the sampler thread, per-request HTTP handler
    threads and Prometheus/JSON registry renders all competing with
    the engine.  The cadence is deliberately aggressive because the
    dashboard-live window of a scaled-down bench lasts well under a
    second; a polite 4 Hz scraper could miss it entirely.
    """
    import socket
    import threading
    import urllib.error
    import urllib.request

    from .web import bench_dashboard

    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()

    stop = threading.Event()
    scrapes = {"ok": 0, "errors": 0}

    def _scrape() -> None:
        base = f"http://127.0.0.1:{port}"
        # The dashboard-live window of a scaled-down bench can be well
        # under a second, so connect attempts run every 5ms until the
        # server first answers (refused connects are ~free), then back
        # off to a steady 25ms scrape cadence.
        interval = 0.005
        while not stop.wait(interval):
            for path in ("/metrics", "/api/metrics.json"):
                try:
                    with urllib.request.urlopen(
                            base + path, timeout=2.0) as response:
                        response.read()
                    scrapes["ok"] += 1
                    interval = 0.025
                except (urllib.error.URLError, OSError):
                    scrapes["errors"] += 1

    scraper = threading.Thread(target=_scrape, name="obs-scraper",
                               daemon=True)
    scraper.start()
    try:
        with bench_dashboard(port, label="overhead-bench") as dashboard:
            leg = _serve_leg(networks, level, requests, seed,
                             dashboard=dashboard, stop_event=stop_event)
    finally:
        stop.set()
        scraper.join(timeout=5.0)
    return {**leg, "scrapes": scrapes["ok"],
            "scrape_errors": scrapes["errors"]}


def run_overhead_bench(scale: int | None = None, level: str = "e",
                       engine: str = "interp", network: str | None = None,
                       repeats: int = 3, requests: int = 150,
                       seed: int = 2020, out: str | None = None,
                       stop_event=None) -> dict:
    """Measure instrumented vs. uninstrumented ISS and serve costs.

    Returns the result in the shared bench schema
    (:func:`repro.bench.emit`); also writes it to ``out`` when given.
    ``network`` picks the ISS leg's suite network (default: the
    largest).
    """
    from ..bench import emit
    config = {"scale": scale, "level": level, "engine": engine,
              "network": network, "repeats": repeats,
              "requests": requests, "seed": seed, "out": out}
    networks = suite(scale)
    by_name = {n.name: n for n in networks}
    if network is None:
        network = max(networks, key=lambda n: n.input_size * n.timesteps)
    elif network in by_name:
        network = by_name[network]
    else:
        raise KeyError(f"unknown network {network!r}; suite has "
                       f"{sorted(by_name)}")
    config["network"] = network.name

    iss = _iss_legs(network, level, engine, seed, repeats)

    legs = dict(level=level, requests=requests, seed=seed,
                stop_event=stop_event)
    serve_off = _serve_leg(networks, **legs)
    tracer = SpanTracer(process_name="repro.serve overhead-bench")
    serve_on = _serve_leg(networks, tracer=tracer, **legs)
    serve_dash = _dashboard_serve_leg(networks, **legs)

    guard_s = _guard_cost_s()
    rps = serve_off["achieved_throughput_rps"]
    service_s = 1.0 / rps if rps else 0.0
    off_pct = (_GUARDS_PER_REQUEST * guard_s / service_s * 100.0
               if service_s else 0.0)
    record_s = _stage_record_cost_s()
    stage_records = _stage_records_per_request(
        serve_off["mean_batch_size"])
    dash_on_path_pct = (stage_records * record_s / service_s * 100.0
                        if service_s else 0.0)

    p99_overhead = (max(0.0, (serve_on["p99_s"] - serve_off["p99_s"])
                        / serve_off["p99_s"] * 100.0)
                    if serve_off["p99_s"] and serve_on["p99_s"] else 0.0)
    dash_p99_overhead = (
        max(0.0, (serve_dash["p99_s"] - serve_off["p99_s"])
            / serve_off["p99_s"] * 100.0)
        if serve_off["p99_s"] and serve_dash["p99_s"] else 0.0)
    return emit(
        "overhead", config,
        iss={
            "uninstrumented": {"instret_per_s": iss["best_off"]},
            "instrumented": {"instret_per_s": iss["best_profiled"]},
            "instrs_per_run": iss["instrs_per_run"],
            "forwards_per_sample": iss["forwards_per_sample"],
            "triplets": iss["triplets"],
            "noise_floor_pct": iss["off_spread_pct"],
            "profile_overhead_pct": iss["profile_overhead_pct"],
        },
        serve={
            "uninstrumented": serve_off,
            "instrumented": serve_on,
            "trace_events": tracer.n_events,
            "p99_overhead_pct": p99_overhead,
        },
        # Dashboard cost: a wall-clock leg with the control plane
        # attached and scraped, plus the structural on-path bound for
        # the always-on stage-histogram records.  The wall-clock p99
        # delta sits inside the noise floor; the structural bound is
        # the number that must stay inside the 2% budget.
        dashboard={
            "attached": serve_dash,
            "p99_overhead_pct": dash_p99_overhead,
            "on_path": {
                "stage_record_cost_ns": record_s * 1e9,
                "records_per_request": stage_records,
                "service_time_us": service_s * 1e6,
                "overhead_pct": dash_on_path_pct,
            },
            "budget_pct": 2.0,
            "within_budget": dash_on_path_pct <= 2.0,
        },
        # Off-path cost, structural: disabled-guard wall cost times
        # guard count, over per-request service time.  Far below the
        # wall-clock noise floor (iss.noise_floor_pct), which is why a
        # direct A/B cannot measure it.
        off_path={
            "guard_cost_ns": guard_s * 1e9,
            "guards_per_request": _GUARDS_PER_REQUEST,
            "service_time_us": service_s * 1e6,
        },
        overhead_off_pct=off_pct,
        summary={
            "iss_instret_per_s": iss["best_off"],
            "iss_profiled_instret_per_s": iss["best_profiled"],
            "profile_overhead_pct": iss["profile_overhead_pct"],
            "iss_noise_floor_pct": iss["off_spread_pct"],
            "serve_p99_off_s": serve_off["p99_s"],
            "serve_p99_traced_s": serve_on["p99_s"],
            "serve_p99_dashboard_s": serve_dash["p99_s"],
            "trace_events": tracer.n_events,
            "dashboard_scrapes": serve_dash["scrapes"],
            "stage_records_per_request": stage_records,
            "stage_record_cost_ns": record_s * 1e9,
            "service_time_us": service_s * 1e6,
            "dashboard_on_path_pct": dash_on_path_pct,
            "dashboard_within_budget": dash_on_path_pct <= 2.0,
            "overhead_off_pct": off_pct,
        })
