"""Open-loop Poisson load generation and the ``serve-bench`` backend.

The generator is *open-loop*: arrival times are drawn up front from an
exponential inter-arrival distribution and requests are submitted at
those times regardless of how the engine is coping — the standard way to
measure a serving system honestly (closed-loop generators hide overload
by self-throttling).  ``run_serve_bench`` measures a sequential
(batch=1, per-sample ``QuantModel``) baseline over the same request
stream, drives the engine at a multiple of that baseline's capacity, and
writes ``BENCH_serve.json`` with offered load, achieved throughput,
latency percentiles and the batch-size distribution.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from ..rrm.networks import suite
from .engine import EngineConfig, InferenceEngine
from .metrics import ServeMetrics

__all__ = ["LoadGenerator", "TrafficModel", "make_tenant_stream",
           "sequential_baseline", "run_serve_bench", "render_table"]


def _random_request(network, rng: np.random.Generator) -> np.ndarray:
    """Raw Q3.12 input sequence ``(timesteps, input_size)`` in [-1, 1)."""
    floats = rng.uniform(-1.0, 1.0, (network.timesteps, network.input_size))
    return np.asarray(floats * 4096, dtype=np.int64)


def make_request_stream(networks, n_requests: int, seed: int = 2020) -> list:
    """A reproducible request stream: ``[(network, x_raw), ...]``.

    Networks are drawn uniformly so every queue sees traffic and batches
    can form on each of them.
    """
    rng = np.random.default_rng(seed)
    stream = []
    for _ in range(n_requests):
        network = networks[int(rng.integers(len(networks)))]
        stream.append((network, _random_request(network, rng)))
    return stream


@dataclass(frozen=True)
class TrafficModel:
    """Arrival-process shape for the load generator.

    ``kind`` selects among:

    * ``poisson`` — homogeneous Poisson (the historical default);
    * ``diurnal`` — Poisson whose rate follows a sinusoidal envelope
      (one full period over the run by default), the classic
      day/night cell-load profile from the RRM literature;
    * ``bursty`` — Markov-modulated Poisson: a hidden two-state chain
      flips between quiet and burst, multiplying the rate by
      ``burst_rate_multiplier`` while in the burst state;
    * ``diurnal-bursty`` — both modulations composed.

    Modulated rates are normalised by the modulation's long-run mean,
    so every kind offers (approximately) the same *average* load — the
    shapes differ, the area under the curve does not, which keeps
    throughput numbers comparable across traffic models.
    """

    kind: str = "poisson"
    #: Sinusoid amplitude as a fraction of the mean rate, in [0, 1).
    diurnal_depth: float = 0.8
    #: Seconds per diurnal cycle; ``None`` = one cycle over the run.
    diurnal_period_s: float | None = None
    #: Rate multiplier while the burst state is on.
    burst_rate_multiplier: float = 4.0
    #: Per-arrival P(quiet -> burst) / P(burst -> quiet).
    burst_on_prob: float = 0.05
    burst_off_prob: float = 0.25

    KINDS = ("poisson", "diurnal", "bursty", "diurnal-bursty")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown traffic kind {self.kind!r}; "
                             f"choose from {self.KINDS}")
        if not 0.0 <= self.diurnal_depth < 1.0:
            raise ValueError("diurnal_depth must be in [0, 1)")
        if self.burst_rate_multiplier < 1.0:
            raise ValueError("burst_rate_multiplier must be >= 1")

    def arrival_times(self, n: int, rate_rps: float,
                      seed: int) -> np.ndarray:
        """``n`` cumulative arrival offsets (seconds) at mean rate
        ``rate_rps``, reproducible for a given seed."""
        rng = np.random.default_rng(seed)
        diurnal = "diurnal" in self.kind
        bursty = "bursty" in self.kind
        if not diurnal and not bursty:
            return np.cumsum(rng.exponential(1.0 / rate_rps, n))
        period = self.diurnal_period_s
        if period is None:
            period = max(n / rate_rps, 1e-6)
        # Normalise the MMPP so the long-run *time-averaged* rate stays
        # at rate_rps.  The chain transitions per arrival, so pi_on is
        # the stationary fraction of arrivals (not of time) in the
        # burst state; the mean inter-arrival gap is then
        # (pi_off + pi_on/mult) / (rate * norm), and norm must equal
        # that harmonic-style mean — not the arithmetic mean
        # 1 + pi_on*(mult-1), which would undershoot the target rate.
        pi_on = (self.burst_on_prob
                 / max(self.burst_on_prob + self.burst_off_prob, 1e-12))
        burst_norm = (1.0 - pi_on) + pi_on / self.burst_rate_multiplier
        times = np.empty(n)
        t = 0.0
        in_burst = False
        for i in range(n):
            lam = rate_rps
            if diurnal:
                lam *= 1.0 + self.diurnal_depth * math.sin(
                    2.0 * math.pi * t / period)
            if bursty:
                if in_burst:
                    if rng.random() < self.burst_off_prob:
                        in_burst = False
                elif rng.random() < self.burst_on_prob:
                    in_burst = True
                lam *= (self.burst_rate_multiplier if in_burst
                        else 1.0) * burst_norm
            t += rng.exponential(1.0 / max(lam, 1e-9))
            times[i] = t
        return times

    def to_dict(self) -> dict:
        out = {"kind": self.kind}
        if "diurnal" in self.kind:
            out["diurnal_depth"] = self.diurnal_depth
            out["diurnal_period_s"] = self.diurnal_period_s
        if "bursty" in self.kind:
            out["burst_rate_multiplier"] = self.burst_rate_multiplier
            out["burst_on_prob"] = self.burst_on_prob
            out["burst_off_prob"] = self.burst_off_prob
        return out


def make_tenant_stream(networks, n_requests: int, n_tenants: int = 4,
                       seed: int = 2020,
                       concentration: float = 0.7) -> tuple:
    """A multi-tenant request stream with per-tenant network mixes.

    Each tenant draws its own network preference vector from a
    Dirichlet(``concentration``) — low concentration means skewed,
    tenant-specific mixes (one tenant hammers the LSTM, another the
    small MLP), which is what makes per-shard load uneven and the
    autoscaler earn its keep.  Requests round-robin over tenants.

    Returns ``(stream, info)`` where ``stream`` is the usual
    ``[(network, x_raw), ...]`` (drop-in everywhere a uniform stream
    goes) and ``info`` records each request's tenant and every
    tenant's mix for the bench report.
    """
    if n_tenants < 1:
        raise ValueError("need at least one tenant")
    rng = np.random.default_rng(seed)
    mixes = rng.dirichlet([concentration] * len(networks), size=n_tenants)
    stream = []
    tenant_of = []
    for i in range(n_requests):
        tenant = i % n_tenants
        network = networks[int(rng.choice(len(networks),
                                          p=mixes[tenant]))]
        stream.append((network, _random_request(network, rng)))
        tenant_of.append(tenant)
    info = {
        "n_tenants": n_tenants,
        "concentration": concentration,
        "mixes": {f"tenant-{t}": {net.name: round(float(p), 4)
                                  for net, p in zip(networks, mixes[t])}
                  for t in range(n_tenants)},
        "tenant_of": tenant_of,
    }
    return stream, info


def sequential_baseline(engine: InferenceEngine, stream,
                        clock=time.perf_counter) -> dict:
    """Serve the stream one request at a time through ``QuantModel``.

    This is the pre-serving state of the repo — a single-sample golden
    model invoked per request — and the throughput floor the batched
    engine must beat.  Models come from the engine's registry, so the
    baseline and the engine run identical parameters.
    """
    start = clock()
    for network, x_raw in stream:
        entry = engine.registry.get(network, engine.config.level)
        entry.reference.reset()
        entry.reference.forward(x_raw)
    elapsed = clock() - start
    return {
        "requests": len(stream),
        "elapsed_s": elapsed,
        "throughput_rps": len(stream) / elapsed if elapsed > 0 else 0.0,
    }


class LoadGenerator:
    """Open-loop load generator over a prepared request stream.

    ``engine`` is anything with ``submit(name, x_raw, timeout_s=...)``
    returning a waitable request handle — the single-process
    :class:`InferenceEngine` and the cluster front-end both qualify.
    ``traffic`` selects the arrival process (default: homogeneous
    Poisson).  ``stop_event`` (a ``threading.Event``) aborts submission
    between arrivals: already-submitted requests still settle and are
    accounted, and the summary gains ``"interrupted": True`` — this is
    what lets Ctrl-C produce a valid partial benchmark instead of a
    stack trace.
    """

    def __init__(self, engine, rate_rps: float,
                 seed: int = 2020, timeout_s: float | None = None,
                 traffic: TrafficModel | None = None, stop_event=None):
        if rate_rps <= 0:
            raise ValueError("rate must be positive")
        self.engine = engine
        self.rate_rps = float(rate_rps)
        self.seed = seed
        self.timeout_s = timeout_s
        self.traffic = traffic or TrafficModel()
        self.stop_event = stop_event

    def arrival_times(self, n: int) -> np.ndarray:
        return self.traffic.arrival_times(n, self.rate_rps, self.seed + 1)

    def _stopped(self) -> bool:
        return self.stop_event is not None and self.stop_event.is_set()

    def run(self, stream, wait_s: float = 30.0) -> dict:
        """Drive the engine; returns the run summary (see keys below)."""
        arrivals = self.arrival_times(len(stream))
        requests = []
        interrupted = False
        start = time.perf_counter()
        for (network, x_raw), offset in zip(stream, arrivals):
            if self._stopped():
                interrupted = True
                break
            delay = (start + offset) - time.perf_counter()
            while delay > 0:
                time.sleep(min(delay, 0.05))
                if self._stopped():
                    break
                delay = (start + offset) - time.perf_counter()
            if self._stopped():
                interrupted = True
                break
            requests.append(self.engine.submit(network.name, x_raw,
                                               timeout_s=self.timeout_s))
        for request in requests:
            request.wait(timeout=wait_s)
        elapsed = time.perf_counter() - start
        completed = sum(1 for r in requests if r.ok)
        return {
            "offered_rate_rps": self.rate_rps,
            "traffic": self.traffic.to_dict(),
            "interrupted": interrupted,
            "submitted": len(requests),
            "completed": completed,
            "rejected_timeout": sum(
                1 for r in requests if r.status == "rejected_timeout"),
            "rejected_capacity": sum(
                1 for r in requests if r.status == "rejected_capacity"),
            "rejected_unavailable": sum(
                1 for r in requests if r.status == "rejected_unavailable"),
            "failed": sum(1 for r in requests if r.status == "failed"),
            "elapsed_s": elapsed,
            "achieved_throughput_rps":
                completed / elapsed if elapsed > 0 else 0.0,
            "requests": requests,
        }


def run_serve_bench(scale: int | None = None, level: str = "e",
                    n_requests: int = 400, rate_rps: float | None = None,
                    rate_multiplier: float = 8.0, max_batch_size: int = 16,
                    max_linger_s: float = 0.002,
                    timeout_s: float | None = 10.0, seed: int = 2020,
                    out_path: str | None = None, tracer=None,
                    traffic: TrafficModel | None = None,
                    n_tenants: int = 0, stop_event=None,
                    dashboard_port: int | None = None) -> dict:
    """The ``serve-bench`` experiment: baseline, then batched serving.

    Returns the JSON-ready result dict; also writes it to ``out_path``
    when given.  ``rate_rps=None`` auto-scales the offered load to
    ``rate_multiplier`` times the measured sequential capacity, so the
    engine is measured under saturation where batching matters.
    ``traffic`` selects the arrival process; ``n_tenants > 0`` swaps
    the uniform network mix for per-tenant Dirichlet mixes.
    ``stop_event`` makes the run interruptible (partial results are
    still written — see :class:`LoadGenerator`).  The result also
    carries the per-network roofline placement
    (:mod:`repro.perfmodel.roofline`).  ``dashboard_port``
    attaches a live :class:`repro.obs.web.DashboardServer` to the
    serving engine for the duration of the run.
    """
    networks = suite(scale)
    config = EngineConfig(level=level, max_batch_size=max_batch_size,
                          max_linger_s=max_linger_s, seed=seed)
    engine = InferenceEngine(networks=networks, config=config,
                             metrics=ServeMetrics(), tracer=tracer)
    tenant_info = None
    if n_tenants > 0:
        stream, tenant_info = make_tenant_stream(networks, n_requests,
                                                 n_tenants, seed=seed)
    else:
        stream = make_request_stream(networks, n_requests, seed=seed)
    # Warm the registry (params, plans, cycle counts) outside the timed
    # regions so neither path pays one-time codegen costs.
    for network in networks:
        engine.registry.get(network, level)

    from ..obs.web import bench_dashboard
    with bench_dashboard(dashboard_port, engine=engine,
                         label="serve-bench", scale=scale):
        baseline = sequential_baseline(engine, stream)
        if rate_rps is None:
            rate_rps = max(1.0,
                           baseline["throughput_rps"] * rate_multiplier)

        generator = LoadGenerator(engine, rate_rps, seed=seed,
                                  timeout_s=timeout_s, traffic=traffic,
                                  stop_event=stop_event)
        with engine:
            run = generator.run(stream)
    run.pop("requests")  # handles are not JSON; chaos-bench uses them

    metrics = engine.metrics.to_dict()
    completed = run["completed"]

    # Roofline placement: achieved per-network req/s from this run vs
    # the calibrated host ceiling at each network's intensity, at the
    # rows per call the engine actually formed.
    from ..perfmodel.roofline import measured_rows_per_call, roofline_report
    elapsed = run.get("elapsed_s") or 0.0
    achieved = {
        name: net["completed"] / elapsed if elapsed > 0 else 0.0
        for name, net in metrics["per_network"].items()
    }
    roofline = roofline_report(
        networks, achieved_rps=achieved,
        rows_per_call=measured_rows_per_call(metrics["per_network"]))

    result = {
        "bench": "serve",
        "config": {
            "scale": scale,
            "level": level,
            "n_requests": n_requests,
            "max_batch_size": max_batch_size,
            "max_linger_s": max_linger_s,
            "timeout_s": timeout_s,
            "seed": seed,
            "n_tenants": n_tenants,
        },
        "roofline": roofline,
        **run,
        **({"tenants": {k: v for k, v in tenant_info.items()
                        if k != "tenant_of"}}
           if tenant_info is not None else {}),
        "baseline_sequential": baseline,
        "speedup_vs_sequential":
            run["achieved_throughput_rps"] / baseline["throughput_rps"]
            if baseline["throughput_rps"] > 0 else 0.0,
        "latency": metrics["total"]["latency"],
        "latency_stages": metrics["total"]["stages"],
        "mean_batch_size": metrics["mean_batch_size"],
        "batch_size_distribution": metrics["batch_size_distribution"],
        "sim_cycles_total": metrics["total"]["sim_cycles"],
        "sim_cycles_per_request":
            metrics["total"]["sim_cycles"] / completed if completed else 0,
        "metrics": metrics,
    }
    if out_path:
        directory = os.path.dirname(os.path.abspath(out_path))
        os.makedirs(directory, exist_ok=True)
        with open(out_path, "w") as handle:
            json.dump(result, handle, indent=2)
            handle.write("\n")
    return result


def _ms(seconds, width: int = 9) -> str:
    """One latency cell; ``None`` (empty histogram) renders as ``-``."""
    if seconds is None:
        return f"{'-':>{width}}"
    return f"{seconds * 1e3:>{width}.2f}"


def render_table(result: dict) -> str:
    """Human-readable latency/throughput table for one bench result."""
    lines = []
    lines.append("serve-bench: batched RRM inference runtime "
                 f"(level {result['config']['level']}, "
                 f"batch<={result['config']['max_batch_size']}, "
                 f"linger {result['config']['max_linger_s'] * 1e3:.1f} ms)")
    lines.append("")
    header = (f"{'network':<15}{'done':>6}{'rej':>5}{'p50 ms':>9}"
              f"{'p95 ms':>9}{'p99 ms':>9}{'Mcyc/req':>10}")
    lines.append(header)
    lines.append("-" * len(header))
    per_network = result["metrics"]["per_network"]
    for name, net in per_network.items():
        latency = net["latency"]
        rejected = net["rejected_timeout"] + net["rejected_capacity"]
        mcycles = (net["sim_cycles"] / net["completed"] / 1e6
                   if net["completed"] else 0.0)
        lines.append(f"{name:<15}{net['completed']:>6}{rejected:>5}"
                     f"{_ms(latency['p50_s'])}"
                     f"{_ms(latency['p95_s'])}"
                     f"{_ms(latency['p99_s'])}"
                     f"{mcycles:>10.3f}")
    lines.append("-" * len(header))
    total = result["metrics"]["total"]["latency"]
    lines.append(f"{'TOTAL':<15}{result['completed']:>6}"
                 f"{result['submitted'] - result['completed']:>5}"
                 f"{_ms(total['p50_s'])}{_ms(total['p95_s'])}"
                 f"{_ms(total['p99_s'])}"
                 f"{result['sim_cycles_per_request'] / 1e6:>10.3f}")
    lines.append("")
    lines.append(f"offered load        {result['offered_rate_rps']:>10.1f} "
                 "req/s (open-loop Poisson)")
    lines.append(f"sequential baseline "
                 f"{result['baseline_sequential']['throughput_rps']:>10.1f} "
                 "req/s (batch=1 QuantModel)")
    lines.append(f"achieved throughput "
                 f"{result['achieved_throughput_rps']:>10.1f} req/s "
                 f"({result['speedup_vs_sequential']:.2f}x sequential, "
                 f"mean batch {result['mean_batch_size']:.1f})")
    roofline = result.get("roofline")
    if roofline:
        host = roofline["host"]
        lines.append("")
        lines.append(
            f"roofline: host peak {host['peak_flops'] / 1e9:.1f} Gop/s, "
            f"bandwidth {host['bandwidth_bytes_s'] / 1e9:.1f} GB/s, "
            f"ridge {host['ridge_oi']:.0f} op/B")
        header = (f"{'network':<15}{'ops/req':>10}{'B/req':>10}"
                  f"{'op/B':>7}{'bound':>9}{'ceil rps':>12}"
                  f"{'ach rps':>10}{'% ceil':>8}")
        lines.append(header)
        lines.append("-" * len(header))
        for name, pt in roofline["per_network"].items():
            achieved = pt.get("achieved_rps")
            pct = pt.get("pct_of_ceiling")
            lines.append(
                f"{name:<15}{pt['ops']:>10}{pt['bytes']:>10.0f}"
                f"{pt['oi']:>7.1f}{pt['bound']:>9}"
                f"{pt['ceiling_rps']:>12.0f}"
                + (f"{achieved:>10.1f}" if achieved is not None
                   else f"{'-':>10}")
                + (f"{pct:>8.2f}" if pct is not None else f"{'-':>8}"))
    return "\n".join(lines)
