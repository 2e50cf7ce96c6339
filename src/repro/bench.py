"""One bench harness: every ``*-bench`` command runs through this module.

The paper measures all ten RRM networks at every level with one method.
The benches here share one chain — golden pass, load, accounting, JSON,
table — instead of one copy per command:

* **Golden pass** (:func:`golden_pass`): a fresh
  :class:`~repro.serve.engine.ModelRegistry` is warmed (every model
  built) before the timer starts; the pass then yields every expected
  output and the sequential, one-request-at-a-time ``QuantModel``
  timing.
* **Targets**: :class:`EngineTarget` (one in-process
  :class:`~repro.serve.engine.InferenceEngine`) and
  :class:`ClusterTarget` (a :class:`~repro.cluster.ServingCluster`).
  They differ only in start/stop, which breakers are open, their final
  report and their trace.
* **Pass runner** (:func:`run_pass`): build and warm the target, submit
  the stream through the open-loop
  :class:`~repro.serve.loadgen.LoadGenerator`, probe open breakers until
  they re-close, stop, and account.
* **Accounting** (:func:`account`): statuses, bit-exact correctness
  against the golden outputs, availability, goodput and latency
  percentiles, from the request handles of one pass.
* **One writer and one renderer**: :func:`emit` stamps
  ``"schema": 1`` on the result and writes ``BENCH_*.json``;
  :func:`render` prints every kind of result.

Chaos plans (:class:`~repro.faults.FaultPlan`) and traffic shapes
(:class:`~repro.serve.loadgen.TrafficModel`, request streams) are data
handed to the targets and the pass runner, not branches in them.  The
drivers' keyword arguments carry the CLI option names
(``python -m repro serve-bench --linger-ms 2`` is
``serve(linger_ms=2)``).

The cluster and resilience modules are imported where they are used.
Importing them loads ``repro.resilience``, which an engine otherwise
imports inside its first batch; ``serve-bench`` and the serve legs of
``overhead-bench`` keep timing that cold first burst, as they always
have; warming the target is a change to what they measure.
"""

from __future__ import annotations

import collections
import json
import os
import platform
import time

import numpy as np

from .faults import FaultInjector, default_scenario
from .nn.network import init_params, quantize_params
from .rrm.networks import suite
from .serve.engine import EngineConfig, InferenceEngine, ModelRegistry
from .serve.loadgen import (LoadGenerator, make_request_stream,
                            make_tenant_stream)
from .serve.metrics import ServeMetrics

__all__ = ["SCHEMA", "golden_pass", "offered_load", "EngineTarget",
           "ClusterTarget", "run_pass", "account", "host_info", "emit",
           "render", "serve", "cluster", "chaos", "aot"]

#: Version of the ``BENCH_*.json`` layout every bench writes.
SCHEMA = 1
#: serve-bench and cluster-bench offer this multiple of the sequential
#: throughput when no rate is given, so batching has work to do.
RATE_MULTIPLIER = 8.0
#: Seconds the post-run probe loop may spend re-closing breakers.
RECOVERY_BUDGET_S = 3.0
#: Per-request deadline of ``chaos-bench --cluster``.
CLUSTER_CHAOS_TIMEOUT_S = 5.0
#: ``chaos-bench --cluster`` IPC fault mix (``ChannelFaultPlan`` fields):
#: every message-fault family, biased towards the recoverable kinds,
#: summing well under 1 so most traffic still passes clean.
CHANNEL_FAULTS = dict(drop_p=0.015, duplicate_p=0.02, corrupt_p=0.03,
                      reorder_p=0.02, delay_p=0.03, delay_s=0.02)
#: Engine counters every pass reports (fleet-summed on a cluster).
_ENGINE_COUNTERS = ("faults_injected", "integrity_checks",
                    "integrity_violations", "integrity_repairs",
                    "sdc_detections", "sdc_repairs", "sdc_reruns")
#: Router, IPC and process-lifecycle counters only a cluster has.
_CLUSTER_COUNTERS = ("redispatched", "hedges", "hedge_wins",
                     "hedge_denied", "duplicate_responses", "ipc_rejects",
                     "naks", "suspects", "proc_kills", "proc_deaths",
                     "replica_starts")


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def golden_pass(networks, stream, level: str, seed: int) -> tuple:
    """Expected outputs and sequential timing of one request stream.

    A fresh registry with the engine's seed builds every network's
    model *before* the timer starts, so the timed loop runs only
    per-request ``QuantModel`` inference — the pre-serving state of the
    repo, and the throughput floor batching must beat.  Returns
    ``(outputs, sequential)``.
    """
    registry = ModelRegistry(seed=seed)
    models = {net.name: registry.get(net, level).reference
              for net in networks}
    outputs = []
    start = time.perf_counter()
    for network, x_raw in stream:
        model = models[network.name]
        model.reset()
        outputs.append(model.forward(x_raw))
    elapsed = time.perf_counter() - start
    return outputs, {"requests": len(stream), "elapsed_s": elapsed,
                     "throughput_rps": _ratio(len(stream), elapsed)}


class EngineTarget:
    """One in-process engine; ``plan`` arms a seeded fault injector."""

    kind = "engine"

    def __init__(self, networks, config: EngineConfig, plan=None,
                 tracer=None):
        self.injector = (FaultInjector(plan, seed=config.seed)
                         if plan is not None else None)
        self.serving = InferenceEngine(
            networks=networks, config=config, metrics=ServeMetrics(),
            fault_injector=self.injector, tracer=tracer)
        self.stopped_at = None

    def start(self) -> None:
        engine = self.serving
        for network in engine.networks:
            engine.registry.get(network, engine.config.level)
        engine.start()

    def stop(self) -> None:
        self.stopped_at = time.monotonic()
        self.serving.stop()

    def open_breakers(self) -> set:
        return {name for name, state in self.serving.breaker_states().items()
                if state != "closed"}

    def final(self, requests) -> dict:
        """After :meth:`stop`: invariants over ``requests``, breakers,
        resilience counters, injected faults and the final metrics."""
        from .resilience.invariants import check_requests
        engine = self.serving
        metrics = engine.metrics.to_dict()
        invariants = check_requests(requests, stop_t=self.stopped_at)
        events = sorted(engine.breaker_events, key=lambda e: e["t"])
        recovery: dict = {}
        opened_at: dict = {}
        for event in events:
            name = event["network"]
            if event["to"] == "open":
                opened_at.setdefault(name, event["t"])
            elif event["to"] == "closed" and name in opened_at:
                recovery.setdefault(name, []).append(
                    event["t"] - opened_at.pop(name))
        states = engine.breaker_states()
        out = {
            "invariants_ok": invariants.ok,
            "invariants": invariants.to_dict(),
            "breakers": {
                "final_states": states,
                "all_reclosed": all(s == "closed" for s in states.values()),
                "opens": sum(e["to"] == "open" for e in events),
                "closes": sum(e["to"] == "closed" for e in events),
                "recovery_s": recovery,
            },
            "resilience": {key: metrics["total"][key]
                           for key in _ENGINE_COUNTERS},
            "mean_batch_size": metrics["mean_batch_size"],
            "metrics": metrics,
        }
        if self.injector is not None:
            log = self.injector.canonical_log()
            out["faults"] = {"injected_events": len(log),
                             "by_kind": self.injector.counts(),
                             "log_sha256": self.injector.log_digest(),
                             "log": log}
        return out

    def trace(self) -> dict:
        return self.serving.tracer.to_chrome_trace()


class ClusterTarget:
    """A process-sharded cluster; ``plan`` runs in every worker."""

    kind = "cluster"

    def __init__(self, networks, config, plan=None, on_routed=None):
        from .cluster.cluster import ServingCluster
        from .cluster.metrics import ClusterMetrics
        self.metrics = ClusterMetrics()
        self.serving = ServingCluster(networks, config, fault_plan=plan,
                                      metrics=self.metrics,
                                      on_routed=on_routed)

    def start(self) -> None:
        self.serving.start()  # each worker warms its registry first

    def stop(self) -> None:
        self.serving.stop()

    def open_breakers(self) -> set:
        return {name
                for stats in self.serving.snapshot_workers().values()
                if stats
                for name, state in stats.get("breakers", {}).items()
                if state != "closed"}

    def final(self, requests) -> dict:
        from .resilience.invariants import (check_breaker_transitions,
                                            check_router_invariants)
        cluster = self.serving
        metrics = self.metrics.to_dict()
        finals = dict(sorted(cluster.worker_finals().items()))
        invariants = check_router_invariants(
            cluster.audit.events(), stop_t=cluster.stopped_at,
            dropped=cluster.audit.dropped)
        for payload in finals.values():
            invariants = invariants.merge(check_breaker_transitions(
                payload.get("breaker_events", [])))
        states = {worker: payload.get("breaker_states", {})
                  for worker, payload in finals.items()}
        faults = {
            "injected_events": sum(len(payload.get("fault_log", []))
                                   for payload in finals.values()),
            "per_worker_log_sha256": {
                worker: payload["fault_digest"]
                for worker, payload in finals.items()
                if "fault_digest" in payload},
        }
        if cluster.channel_log is not None:
            faults["channel"] = {
                "injected_events": len(cluster.channel_log),
                "by_kind": cluster.channel_log.counts(),
                "log_sha256": cluster.channel_log.digest(),
                "log": cluster.channel_log.canonical(),
            }
        return {
            "invariants_ok": invariants.ok,
            "invariants": invariants.to_dict(),
            "breakers": {
                "final_states": states,
                "all_reclosed": all(state == "closed"
                                    for worker in states.values()
                                    for state in worker.values()),
            },
            "resilience": {
                **{key: metrics["fleet_engine_totals"][key]
                   for key in _ENGINE_COUNTERS},
                **{key: metrics["total"][key] for key in _CLUSTER_COUNTERS},
            },
            "faults": faults,
            "shard_plan": cluster.plan.to_dict(),
            "shared_store_nbytes": cluster.store.nbytes,
            "events": cluster.events,
            "metrics": metrics,
        }

    def trace(self) -> dict:
        return self.serving.merged_trace()


def _probe_breakers(target, stream) -> int:
    """Re-close breakers the run left open.

    A breaker re-closes only when a half-open probe succeeds; once the
    load stops nothing would probe it.  Like a health checker, this
    loop submits one real request per open network until none is open
    or :data:`RECOVERY_BUDGET_S` passes.  Probes are not accounted.
    """
    sample: dict = {}
    for network, x_raw in stream:
        sample.setdefault(network.name, x_raw)
    deadline = time.monotonic() + RECOVERY_BUDGET_S
    probes = 0
    while time.monotonic() < deadline:
        names = sorted(target.open_breakers() & sample.keys())
        if not names:
            break
        requests = [target.serving.submit(name, sample[name])
                    for name in names]
        probes += len(requests)
        for request in requests:
            request.wait(timeout=1.0)
        time.sleep(0.01)
    return probes


def run_pass(target, stream, rate: float, golden: tuple, seed: int,
             timeout_s: float | None = None, traffic=None, stop_event=None,
             dashboard=None) -> dict:
    """One measured pass of ``stream`` against ``target`` at ``rate``.

    Builds and warms the target, submits through the open-loop load
    generator, probes open breakers, stops the target, then accounts
    every handle against ``golden`` (from :func:`golden_pass`) and adds
    the target's final report.
    """
    expected, sequential = golden
    target.start()
    try:
        if dashboard is not None:
            dashboard.attach(**{target.kind: target.serving})
        run = LoadGenerator(target.serving, rate, seed=seed,
                            timeout_s=timeout_s, traffic=traffic,
                            stop_event=stop_event).run(stream)
        probes = _probe_breakers(target, stream)
    finally:
        target.stop()
    names = [network.name for network in target.serving.networks]
    summary = account(run, expected, names)
    summary["speedup_vs_sequential"] = _ratio(
        summary["achieved_throughput_rps"], sequential["throughput_rps"])
    summary["recovery_probes"] = probes
    summary.update(target.final(run["requests"]))
    return summary


def _tally(pairs) -> dict:
    """Counts and latency percentiles over ``(handle, expected)``."""
    status = collections.Counter(request.status for request, _ in pairs)
    latencies = [request.latency for request, _ in pairs
                 if request.ok and request.latency is not None]
    p50, p95, p99 = (np.percentile(latencies, (50, 95, 99)).tolist()
                     if latencies else (None, None, None))
    return {
        "submitted": len(pairs),
        "completed": status["done"],
        "correct": sum(1 for request, want in pairs
                       if request.ok and np.array_equal(request.output,
                                                        want)),
        "rejected": sum(n for s, n in status.items()
                        if s.startswith("rejected")),
        "failed": status["failed"],
        "p50_s": p50,
        "p95_s": p95,
        "p99_s": p99,
    }


def account(run: dict, expected, networks=()) -> dict:
    """The one accounting of a :meth:`LoadGenerator.run` result.

    Every handle is settled by now; ``expected[i]`` is the golden output
    of the ``i``-th submitted request.  ``correct`` counts completions
    that are bit-exact, ``availability`` is correct over accepted (not
    rejected) requests, and ``per_network`` breaks the counts down for
    every name in ``networks`` plus any the run reached.
    """
    requests = run["requests"]
    pairs = list(zip(requests, expected))
    status = collections.Counter(request.status for request in requests)
    total = _tally(pairs)
    accepted = total["submitted"] - total["rejected"]
    elapsed = run["elapsed_s"]
    names = sorted(set(networks) | {request.network for request in requests})
    return {
        "offered_rate_rps": run["offered_rate_rps"],
        "traffic": run["traffic"],
        "interrupted": run["interrupted"],
        **total,
        "incorrect": total["completed"] - total["correct"],
        "rejected_timeout": status["rejected_timeout"],
        "rejected_capacity": status["rejected_capacity"],
        "rejected_unavailable": status["rejected_unavailable"],
        "accepted": accepted,
        "availability": _ratio(total["correct"], accepted),
        "failure_reasons": dict(sorted(collections.Counter(
            request.error or "unknown" for request in requests
            if request.status == "failed").items())),
        "elapsed_s": elapsed,
        "achieved_throughput_rps": _ratio(total["completed"], elapsed),
        "goodput_rps": _ratio(total["correct"], elapsed),
        "per_network": {name: _tally([p for p in pairs
                                      if p[0].network == name])
                        for name in names},
    }


def _write(doc: dict, path: str) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")


def _config(options: dict) -> dict:
    """A driver's options, JSON-ready: the result's ``config``."""
    return {key: value.to_dict() if hasattr(value, "to_dict") else value
            for key, value in options.items() if key != "stop_event"}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def host_info() -> dict:
    """The host a result was measured on: every ``BENCH_*.json`` writer
    records it, so rates can be compared across machines."""
    return {"cpu_count": os.cpu_count(), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "numpy": np.__version__}


def emit(bench: str, config: dict, **sections) -> dict:
    """Assemble one result in the shared schema and write it.

    Every result carries ``schema``, ``bench``, ``config`` and ``host``;
    load benches add ``sequential``, ``passes`` (label -> accounting
    plus the target's final report) and ``interrupted``; every bench
    adds a flat ``summary`` of headline numbers for :func:`render`.
    The result is written to ``config["out"]`` when that is set.
    """
    result = {"schema": SCHEMA, "bench": bench, "config": config,
              "host": host_info()}
    passes = sections.get("passes")
    if passes is not None:
        result["interrupted"] = any(p["interrupted"]
                                    for p in passes.values())
    result.update(sections)
    if config.get("out"):
        _write(result, config["out"])
    return result


def _dump_trace(target, path: str | None):
    """Write the target's Perfetto trace; returns its summary."""
    if path is None:
        return None
    doc = target.trace()
    _write(doc, path)
    return {"path": path, "events": len(doc["traceEvents"])}


def offered_load(networks, requests: int, level: str, seed: int,
                 tenants: int = 0, rate: float | None = None) -> tuple:
    """The open-loop load of serve-bench and cluster-bench.

    Returns ``(stream, tenant_mix, golden, rate)``: the request stream
    (with ``tenants``, per-tenant network mixes, described by
    ``tenant_mix``), its golden pass, and the offered rate —
    :data:`RATE_MULTIPLIER` times the sequential throughput unless
    ``rate`` is given.
    """
    tenant_mix = None
    if tenants > 0:
        stream, info = make_tenant_stream(networks, requests, tenants,
                                          seed=seed)
        tenant_mix = {k: v for k, v in info.items() if k != "tenant_of"}
    else:
        stream = make_request_stream(networks, requests, seed=seed)
    golden = golden_pass(networks, stream, level, seed)
    if rate is None:
        rate = max(1.0, RATE_MULTIPLIER * golden[1]["throughput_rps"])
    return stream, tenant_mix, golden, rate


def _engine_config(level, batch, linger_ms, seed, **extra) -> EngineConfig:
    return EngineConfig(level=level, max_batch_size=batch,
                        max_linger_s=linger_ms / 1e3, seed=seed, **extra)


def _seconds(ms: float | None) -> float | None:
    return None if ms is None else ms / 1e3


def serve(requests: int = 400, rate: float | None = None,
          level: str = "e", scale: int | None = None, batch: int = 16,
          linger_ms: float = 2.0, timeout_ms: float | None = 10000.0,
          seed: int = 2020, traffic=None, tenants: int = 0,
          dashboard: int | None = None, out: str | None = None,
          stop_event=None) -> dict:
    """``serve-bench``: one engine against the sequential baseline.

    Without ``rate`` the offered load is :data:`RATE_MULTIPLIER` times
    the sequential throughput, so the engine runs where batching
    matters.
    """
    config = _config(locals())
    from .obs.web import bench_dashboard
    networks = suite(scale)
    stream, tenant_mix, golden, rate = offered_load(
        networks, requests, level, seed, tenants, rate)
    sequential = golden[1]
    with bench_dashboard(dashboard, label="serve-bench",
                         scale=scale) as dash:
        engine = run_pass(
            EngineTarget(networks, _engine_config(level, batch, linger_ms,
                                                  seed)),
            stream, rate, golden, seed, timeout_s=_seconds(timeout_ms),
            traffic=traffic, stop_event=stop_event, dashboard=dash)
    return emit("serve", config, sequential=sequential,
                passes={"engine": engine}, tenants=tenant_mix, summary={
                    "offered_rate_rps": rate,
                    "sequential_rps": sequential["throughput_rps"],
                    "achieved_throughput_rps":
                        engine["achieved_throughput_rps"],
                    "speedup_vs_sequential":
                        engine["speedup_vs_sequential"],
                    "mean_batch_size": engine["mean_batch_size"],
                    "correct": engine["correct"],
                    "completed": engine["completed"],
                })


def cluster(requests: int = 400, rate: float | None = None,
            workers=(1, 2, 4, 8), level: str = "e",
            scale: int | None = None, batch: int = 16,
            linger_ms: float = 2.0, capacity: int = 256,
            timeout_ms: float | None = 10000.0, autoscale: bool = False,
            traffic=None, tenants: int = 0, seed: int = 2020,
            out: str | None = None, trace_out: str | None = None,
            dashboard: int | None = None, stop_event=None) -> dict:
    """``cluster-bench``: a worker-count scaling curve at one rate.

    The single-process engine and every cluster size serve the same
    stream at the same offered rate, so the curve isolates the fleet
    effect; the largest size is traced when ``trace_out`` is given.
    """
    config = _config(locals())
    # Loads repro.resilience before the single-process pass, as always.
    from .cluster.cluster import ClusterConfig, worker_layout
    from .obs.web import bench_dashboard
    networks = suite(scale)
    stream, tenant_mix, golden, rate = offered_load(
        networks, requests, level, seed, tenants, rate)
    sequential = golden[1]
    engine_config = _engine_config(level, batch, linger_ms, seed)
    options = dict(timeout_s=_seconds(timeout_ms), traffic=traffic,
                   stop_event=stop_event)
    trace = None
    with bench_dashboard(dashboard, label="cluster-bench",
                         scale=scale) as dash:
        single = run_pass(EngineTarget(networks, engine_config), stream,
                          rate, golden, seed, dashboard=dash, **options)
        passes = {"engine": single}
        for count in workers:
            if stop_event is not None and stop_event.is_set():
                break
            shards, replicas = worker_layout(count, len(networks))
            traced = trace_out is not None and count == max(workers)
            target = ClusterTarget(networks, ClusterConfig(
                n_shards=shards, replicas_per_shard=replicas,
                capacity=capacity, engine=engine_config,
                autoscale=autoscale, trace=traced))
            entry = run_pass(target, stream, rate, golden, seed,
                             dashboard=dash, **options)
            entry.update(workers=count, speedup_vs_single_process=_ratio(
                entry["achieved_throughput_rps"],
                single["achieved_throughput_rps"]))
            passes[f"cluster-{count}"] = entry
            if traced:
                trace = _dump_trace(target, trace_out)
    curve = [p for p in passes.values() if "workers" in p]
    best = max(curve, key=lambda p: p["achieved_throughput_rps"],
               default=single)
    return emit("cluster", config, sequential=sequential, passes=passes,
                tenants=tenant_mix, trace=trace, summary={
                    "offered_rate_rps": rate,
                    "sequential_rps": sequential["throughput_rps"],
                    "single_process_rps": single["achieved_throughput_rps"],
                    "best_workers": best.get("workers"),
                    "best_rps": best["achieved_throughput_rps"],
                    "best_speedup_vs_sequential":
                        best["speedup_vs_sequential"],
                    "best_speedup_vs_single_process":
                        best.get("speedup_vs_single_process"),
                })


def _kill_schedule(plan, replicas: int, requests: int) -> dict:
    """``{shard: routed count}``: SIGKILL one replica of each shard with
    a survivor at ~40% of its expected traffic (only shard 0 when
    shards have one replica, so most of the fleet keeps serving)."""
    schedule = {}
    for shard in range(plan.n_shards):
        hosted = len(plan.networks_of[shard])
        if hosted == 0 or (replicas < 2 and shard > 0):
            continue
        expected = requests * hosted / len(plan.shard_of)
        schedule[shard] = max(5, int(expected * 0.4))
    return schedule


def _chaos_cluster(networks, engine_config, requests: int, workers: int,
                   hedge: bool, ipc_faults: bool, trace: bool, plan):
    """The ``chaos-bench --cluster`` target and its kill record.

    Hedges and NAK redispatches need a second replica in every shard to
    land on, so with either enabled the workers fold into fewer, deeper
    shards.  Fault windows count per-replica sequence numbers, so the
    default plan is scaled to what one replica sees.
    """
    from .cluster.cluster import ClusterConfig, worker_layout
    from .resilience.channel import ChannelFaultPlan
    from .resilience.hedging import HedgePolicy
    n_shards = len(networks)
    if hedge or ipc_faults:
        n_shards = min(n_shards, max(1, workers // 2))
    shards, replicas = worker_layout(workers, n_shards)
    if plan is None:
        plan = default_scenario(networks, max(1, requests // replicas))
    kills = {"schedule": {}, "killed": {}}

    def on_routed(shard: int, count: int) -> None:
        if (shard not in kills["killed"]
                and count >= kills["schedule"].get(shard, float("inf"))):
            kills["killed"][shard] = target.serving.kill_replica(shard)

    target = ClusterTarget(networks, ClusterConfig(
        n_shards=shards, replicas_per_shard=replicas, engine=engine_config,
        hedge=HedgePolicy() if hedge else None,
        channel_faults=(ChannelFaultPlan(**CHANNEL_FAULTS)
                        if ipc_faults else None),
        trace=trace), plan=plan, on_routed=on_routed)
    kills["schedule"] = _kill_schedule(target.serving.plan, replicas,
                                       requests)
    return target, plan, kills


def chaos(requests: int = 300, duration: float = 3.0,
          rate: float | None = None, level: str = "e",
          scale: int | None = None, batch: int = 16,
          linger_ms: float = 2.0, integrity_every: int = 5,
          cluster: bool = False, workers: int = 4, abft: bool = True,
          hedge: bool = True, ipc_faults: bool = True, seed: int = 2020,
          out: str | None = None, trace_out: str | None = None,
          dashboard: int | None = None, stop_event=None,
          plan=None) -> dict:
    """``chaos-bench``: availability under a scripted fault plan.

    ``plan`` (default: :func:`repro.faults.default_scenario` scaled to
    the traffic) runs in the engine, or with ``cluster`` in every
    worker, where seeded SIGKILLs of worker processes, IPC faults
    (``ipc_faults``) and hedged retries (``hedge``) join it.  Without
    ``rate``, ``requests`` spread over ``duration`` seconds, long enough
    for breakers to open, back off and re-close.  The engine also runs
    a fault-free baseline pass of the same stream first.
    """
    config = _config(locals())
    from .obs.web import bench_dashboard
    networks = suite(scale)
    if rate is None:
        rate = max(1.0, requests / duration)
    engine_config = _engine_config(level, batch, linger_ms, seed,
                                   integrity_check_every=integrity_every,
                                   abft=abft)
    stream = make_request_stream(networks, requests, seed=seed)
    golden = golden_pass(networks, stream, level, seed)
    passes, kills, timeout_s = {}, None, None
    with bench_dashboard(dashboard, label="chaos-bench",
                         scale=scale) as dash:
        if cluster:
            target, plan, kills = _chaos_cluster(
                networks, engine_config, requests, workers, hedge,
                ipc_faults, trace_out is not None, plan)
            timeout_s = CLUSTER_CHAOS_TIMEOUT_S
        else:
            from .obs.spans import SpanTracer
            if plan is None:
                plan = default_scenario(networks, requests)
            passes["baseline"] = run_pass(
                EngineTarget(networks, engine_config), stream, rate,
                golden, seed, stop_event=stop_event, dashboard=dash)
            target = EngineTarget(networks, engine_config, plan=plan,
                                  tracer=SpanTracer(
                                      process_name="repro.serve chaos-bench")
                                  if trace_out else None)
        passes["chaos"] = run_pass(target, stream, rate, golden, seed,
                                   timeout_s=timeout_s,
                                   stop_event=stop_event, dashboard=dash)
    measured, baseline = passes["chaos"], passes.get("baseline")
    probe_net = min(networks, key=lambda n: n.name)
    from .resilience import measure_abft_overhead
    overhead = measure_abft_overhead(probe_net, quantize_params(
        init_params(probe_net, np.random.default_rng(seed))))
    summary = {
        "availability": measured["availability"],
        "goodput_rps": measured["goodput_rps"],
        "goodput_ratio_vs_baseline": None if baseline is None else _ratio(
            measured["goodput_rps"], baseline["goodput_rps"]),
        **measured["resilience"],
        "breakers_reclosed": measured["breakers"]["all_reclosed"],
        "recovery_probes": measured["recovery_probes"],
        "invariants_ok": measured["invariants_ok"],
        "abft_overhead_pct": overhead,
    }
    return emit("cluster-chaos" if cluster else "chaos", config,
                sequential=golden[1], passes=passes,
                scenario=plan.to_dict(), kills=kills,
                trace=_dump_trace(target, trace_out), summary=summary)


def _best_time(fn, *args, repeats: int) -> float:
    """Best-of-``repeats`` wall time of ``fn(*args)``."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def aot(level: str = "e", scale: int | None = None, batch: int = 16,
        repeats: int = 5, seed: int = 2020, out: str | None = None,
        fuzz_batches: int = 3, stop_event=None) -> dict:
    """``aot-bench``: compiled plans against the scalar oracle.

    The open-loop benches measure the *system* at an offered load; this
    one isolates the compiled model.  Per network, ``fuzz_batches``
    batches of full-range int16 rows go through the scalar
    :class:`~repro.nn.network.QuantModel` once: those outputs are what
    the plan must match (``bit_exact``) and the best per-row time is
    the scalar speed.  The plan's best-of-``repeats`` batch time gives
    ``speedup_vs_scalar`` and places the network on the roofline at
    ``batch`` rows per call.
    """
    config = _config(locals())
    from .nn.network import QuantModel
    from .perfmodel.roofline import roofline_report
    from .serve.aot import build_serving_model
    networks = suite(scale)
    rng = np.random.default_rng(seed)
    rows, total_aot, total_scalar = {}, 0.0, 0.0
    for network in networks:
        if stop_event is not None and stop_event.is_set():
            break
        params = quantize_params(
            init_params(network, np.random.default_rng(seed)))
        model = build_serving_model(network, params, level=level)
        scalar = QuantModel(network, params)
        shape = (network.timesteps, network.input_size)
        x = rng.integers(-4096, 4096, size=(batch,) + shape)
        fuzz = rng.integers(-32768, 32768,
                            size=(fuzz_batches * batch,) + shape)
        want, t_row = [], float("inf")
        for row in fuzz:
            t0 = time.perf_counter()
            scalar.reset()
            want.append(scalar.forward(row))
            t_row = min(t_row, time.perf_counter() - t0)
        got = np.concatenate([model.infer(fuzz[i:i + batch])
                              for i in range(0, len(fuzz), batch)])
        t_aot = _best_time(model.infer, x, repeats=repeats)
        total_aot += t_aot
        total_scalar += t_row
        rows[network.name] = {
            "bit_exact": bool(np.array_equal(got, np.stack(want))),
            "aot_rps": batch / t_aot,
            "scalar_rps": 1.0 / t_row,
            "speedup_vs_scalar": t_row * batch / t_aot,
        }
    roofline = roofline_report(
        [n for n in networks if n.name in rows],
        achieved_rps={name: row["aot_rps"] for name, row in rows.items()},
        rows_per_call=batch)
    for name, point in roofline["per_network"].items():
        rows[name]["pct_of_ceiling"] = point["pct_of_ceiling"]
    total = {"aot_rps": _ratio(len(rows) * batch, total_aot),
             "scalar_rps": _ratio(len(rows), total_scalar),
             "speedup_vs_scalar": _ratio(total_scalar * batch, total_aot)}
    bit_exact = all(row["bit_exact"] for row in rows.values())
    return emit("aot", config, interrupted=len(rows) < len(networks),
                bit_exact=bit_exact, per_network=rows, total=total,
                roofline=roofline, summary={"bit_exact": bit_exact,
                                            **total})


# ----------------------------------------------------------------------
# The renderer.
_HEADERS = {"submitted": "sent", "completed": "done", "correct": "ok",
            "rejected": "rej", "failed": "fail",
            "achieved_throughput_rps": "req/s", "availability": "avail",
            "bit_exact": "exact", "aot_rps": "aot rps",
            "scalar_rps": "scalar rps", "speedup_vs_scalar": "speedup",
            "pct_of_ceiling": "% ceil"}
_PASS_COLUMNS = ("submitted", "completed", "correct", "rejected", "failed",
                 "achieved_throughput_rps", "p50_s", "p99_s",
                 "availability")


def _cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "NO"
    if isinstance(value, float):
        return f"{value:.0f}" if abs(value) >= 1000 else f"{value:.4g}"
    return str(value)


def _table(corner: str, rows: dict) -> list:
    """Aligned text table; ``*_s`` columns print in milliseconds."""
    columns = list(next(iter(rows.values()), {}))
    head = [corner] + [_HEADERS.get(c, c[:-2] + " ms" if c.endswith("_s")
                                    else c) for c in columns]
    body = [[label] + [_cell(row[c] * 1e3 if c.endswith("_s")
                             and row[c] is not None else row[c])
                       for c in columns]
            for label, row in rows.items()]
    widths = [max(len(line[i]) for line in [head] + body)
              for i in range(len(head))]

    def fmt(line):
        return line[0].ljust(widths[0]) + "".join(
            cell.rjust(width + 2) for cell, width in zip(line[1:],
                                                         widths[1:]))
    return [fmt(head), "-" * len(fmt(head)), *map(fmt, body), ""]


def render(result: dict) -> str:
    """Every bench result as text: its passes, one row per network
    (from the last pass of a load bench), then the summary."""
    config = result["config"]
    title = ", ".join(f"{key} {config[key]}"
                      for key in ("level", "scale", "requests", "batch",
                                  "seed")
                      if config.get(key) is not None)
    lines = [f"{result['bench']}-bench ({title}, "
             f"{result['host']['cpu_count']} cpu)", ""]
    per_network = result.get("per_network")
    passes = result.get("passes")
    if passes:
        lines += _table("pass", {label: {c: p.get(c) for c in _PASS_COLUMNS}
                                 for label, p in passes.items()})
        per_network = list(passes.values())[-1]["per_network"]
    if per_network:
        lines += _table("network", per_network)
    width = max(map(len, result["summary"]))
    lines += [f"{key.replace('_', ' '):<{width}}  {_cell(value)}"
              for key, value in result["summary"].items()]
    if result.get("interrupted"):
        lines.append("note: run interrupted -- partial results")
    return "\n".join(lines)
