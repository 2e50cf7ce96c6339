"""``cluster-bench`` and the cluster flavour of ``chaos-bench``.

``run_cluster_bench`` measures the process-sharded cluster against the
same yardsticks as ``serve-bench`` — the sequential (batch=1) baseline
and the single-process batched engine — over a 1/2/4/8-worker scaling
curve, all at the same offered load, with every DONE output checked
bit-exactly against the golden model.  The host's ``cpu_count`` is
recorded in the result: on a single-core container the curve is
honestly flat (N workers time-slice one core), and the CI assertions
gate on core count for exactly that reason.

``run_cluster_chaos_bench`` runs the scripted in-process fault scenario
(:func:`repro.serve.chaos.default_scenario`) inside every worker *plus*
a cluster-only fault no thread-level harness can express: SIGKILL of a
live worker process mid-run, at a deterministic per-shard routed-request
count.  The supervisor must detect the death, redispatch the dead
replica's in-flight requests to surviving replicas and respawn a
replacement; availability is measured exactly as in ``chaos-bench``
(bit-exact completions over accepted requests).
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from ..perfmodel.roofline import measured_rows_per_call, roofline_report
from ..resilience.channel import ChannelFaultPlan
from ..resilience.hedging import HedgePolicy
from ..resilience.invariants import (check_breaker_transitions,
                                     check_router_invariants)
from ..serve.chaos import default_scenario, golden_outputs
from ..serve.engine import EngineConfig, InferenceEngine
from ..serve.loadgen import (LoadGenerator, TrafficModel,
                             make_request_stream, make_tenant_stream)
from ..serve.metrics import ServeMetrics
from .cluster import ClusterConfig, ServingCluster
from .metrics import ClusterMetrics
from .trace import dump_merged_trace

__all__ = ["worker_layout", "run_cluster_bench",
           "run_cluster_chaos_bench", "render_cluster_table",
           "render_cluster_chaos_table"]


def worker_layout(workers: int, n_networks: int) -> tuple:
    """``(n_shards, replicas_per_shard)`` for a total worker count.

    The shard count is the largest divisor of ``workers`` that does not
    exceed the network count (a shard must host at least one network),
    so the product is always exactly ``workers``: 1 -> 1x1, 2 -> 2x1,
    4 -> 4x1, 8 -> 4x2 on the default four-network suite.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    n_shards = 1
    for divisor in range(1, workers + 1):
        if workers % divisor == 0 and divisor <= n_networks:
            n_shards = divisor
    return n_shards, workers // n_shards


def _accounting(requests, expected_by_id: dict, clock_elapsed: float,
                rate_rps: float, interrupted: bool) -> dict:
    """serve-bench-compatible accounting plus bit-exact correctness."""
    completed = sum(1 for r in requests if r.ok)
    correct = sum(1 for i, r in enumerate(requests)
                  if r.ok and np.array_equal(r.output, expected_by_id[i]))
    rejected = sum(1 for r in requests
                   if r.status.startswith("rejected"))
    accepted = len(requests) - rejected
    failure_reasons: dict = {}
    incorrect_by_network: dict = {}
    for i, r in enumerate(requests):
        if r.status == "failed":
            reason = r.error or "unknown"
            failure_reasons[reason] = failure_reasons.get(reason, 0) + 1
        elif r.ok and not np.array_equal(r.output, expected_by_id[i]):
            incorrect_by_network[r.network] = \
                incorrect_by_network.get(r.network, 0) + 1
    return {
        "failure_reasons": dict(sorted(failure_reasons.items())),
        "incorrect_by_network": dict(sorted(
            incorrect_by_network.items())),
        "offered_rate_rps": rate_rps,
        "interrupted": interrupted,
        "submitted": len(requests),
        "completed": completed,
        "correct": correct,
        "incorrect": completed - correct,
        "rejected_timeout": sum(1 for r in requests
                                if r.status == "rejected_timeout"),
        "rejected_capacity": sum(1 for r in requests
                                 if r.status == "rejected_capacity"),
        "rejected_unavailable": sum(
            1 for r in requests if r.status == "rejected_unavailable"),
        "failed": sum(1 for r in requests if r.status == "failed"),
        "accepted": accepted,
        "availability": correct / accepted if accepted else 0.0,
        "elapsed_s": clock_elapsed,
        "achieved_throughput_rps":
            completed / clock_elapsed if clock_elapsed > 0 else 0.0,
        "goodput_rps": correct / clock_elapsed if clock_elapsed > 0
            else 0.0,
    }


def _drive_cluster(cluster: ServingCluster, stream, rate_rps: float,
                   seed: int, expected, timeout_s,
                   traffic: TrafficModel | None,
                   stop_event=None) -> dict:
    generator = LoadGenerator(cluster, rate_rps, seed=seed,
                              timeout_s=timeout_s, traffic=traffic,
                              stop_event=stop_event)
    start = time.perf_counter()
    run = generator.run(stream)
    elapsed = time.perf_counter() - start
    requests = run.pop("requests")
    expected_by_id = dict(enumerate(expected))
    return _accounting(requests, expected_by_id, elapsed, rate_rps,
                       run["interrupted"])


def _single_process_pass(networks, config: EngineConfig, stream,
                         rate_rps: float, seed: int, timeout_s,
                         traffic, expected, stop_event=None) -> dict:
    """The one-process reference point (serve-bench's engine run)."""
    engine = InferenceEngine(networks=networks, config=config,
                             metrics=ServeMetrics())
    for network in networks:
        engine.registry.get(network, config.level)
    generator = LoadGenerator(engine, rate_rps, seed=seed,
                              timeout_s=timeout_s, traffic=traffic,
                              stop_event=stop_event)
    start = time.perf_counter()
    with engine:
        run = generator.run(stream)
    elapsed = time.perf_counter() - start
    requests = run.pop("requests")
    expected_by_id = dict(enumerate(expected))
    out = _accounting(requests, expected_by_id, elapsed, rate_rps,
                      run["interrupted"])
    out["latency"] = engine.metrics.to_dict()["total"]["latency"]
    return out


def _cluster_roofline(networks, best_entry) -> dict:
    """Per-network roofline with achieved req/s from the best pass, at
    the rows per call its workers formed."""
    achieved, rows = {}, 1
    if best_entry is not None:
        elapsed = best_entry.get("elapsed_s") or 0.0
        per_net = best_entry.get("cluster_metrics", {}).get(
            "per_network", {})
        if elapsed > 0:
            achieved = {name: counters.get("completed", 0) / elapsed
                        for name, counters in per_net.items()}
        rows = best_entry["rows_per_call"]
    return roofline_report(networks, achieved_rps=achieved,
                           rows_per_call=rows)


def run_cluster_bench(scale: int | None = None, level: str = "e",
                      n_requests: int = 400,
                      rate_rps: float | None = None,
                      rate_multiplier: float = 8.0,
                      worker_counts=(1, 2, 4, 8),
                      max_batch_size: int = 16,
                      max_linger_s: float = 0.002,
                      capacity: int = 256,
                      timeout_s: float | None = 10.0, seed: int = 2020,
                      autoscale: bool = False,
                      traffic: TrafficModel | None = None,
                      n_tenants: int = 0,
                      out_path: str | None = None,
                      trace_out: str | None = None,
                      stop_event=None,
                      dashboard_port: int | None = None) -> dict:
    """The ``cluster-bench`` experiment: a worker-count scaling curve.

    Every pass (sequential, single-process, and each cluster size)
    serves the *same* request stream at the *same* offered rate, so the
    curve isolates the fleet effect.  The largest worker count runs
    with tracing when ``trace_out`` is given and writes the merged
    fleet-wide Perfetto trace.
    """
    from ..rrm.networks import suite
    networks = suite(scale)
    engine_config = EngineConfig(level=level,
                                 max_batch_size=max_batch_size,
                                 max_linger_s=max_linger_s, seed=seed)
    tenant_info = None
    if n_tenants > 0:
        stream, tenant_info = make_tenant_stream(networks, n_requests,
                                                 n_tenants, seed=seed)
    else:
        stream = make_request_stream(networks, n_requests, seed=seed)
    expected, sequential = golden_outputs(networks, stream, level, seed)
    if rate_rps is None:
        rate_rps = max(1.0,
                       sequential["throughput_rps"] * rate_multiplier)

    single = _single_process_pass(networks, engine_config, stream,
                                  rate_rps, seed, timeout_s, traffic,
                                  expected, stop_event=stop_event)

    curve = []
    merged_trace_info = None
    store_nbytes = None
    trace_at = max(worker_counts) if trace_out else None
    from ..obs.web import bench_dashboard
    dashboard_ctx = bench_dashboard(dashboard_port, label="cluster-bench",
                                    scale=scale)
    with dashboard_ctx as dashboard:
        for workers in worker_counts:
            if stop_event is not None and stop_event.is_set():
                break
            n_shards, replicas = worker_layout(workers, len(networks))
            cluster_config = ClusterConfig(
                n_shards=n_shards, replicas_per_shard=replicas,
                capacity=capacity, engine=engine_config,
                autoscale=autoscale, trace=(workers == trace_at))
            metrics = ClusterMetrics()
            cluster = ServingCluster(networks, cluster_config,
                                     metrics=metrics)
            if dashboard is not None:
                dashboard.attach(cluster=cluster)
            with cluster:
                run = _drive_cluster(cluster, stream, rate_rps, seed,
                                     expected, timeout_s, traffic,
                                     stop_event=stop_event)
            store_nbytes = cluster.store.nbytes
            cluster_metrics = metrics.to_dict()
            entry = {
                "workers": workers,
                "n_shards": n_shards,
                "replicas_per_shard": replicas,
                **run,
                "rows_per_call": measured_rows_per_call(*(
                    final.get("per_network", {})
                    for final in metrics.worker_finals.values())),
                "speedup_vs_sequential":
                    run["achieved_throughput_rps"]
                    / sequential["throughput_rps"]
                    if sequential["throughput_rps"] > 0 else 0.0,
                "speedup_vs_single_process":
                    run["achieved_throughput_rps"]
                    / single["achieved_throughput_rps"]
                    if single["achieved_throughput_rps"] > 0 else 0.0,
                "latency": cluster_metrics["latency"],
                "cluster_metrics": cluster_metrics,
                "shard_plan": cluster.plan.to_dict(),
            }
            if workers == trace_at:
                trace = cluster.merged_trace()
                if trace is not None:
                    directory = os.path.dirname(
                        os.path.abspath(trace_out))
                    os.makedirs(directory, exist_ok=True)
                    dump_merged_trace(trace, trace_out)
                    merged_trace_info = {
                        "path": trace_out,
                        "events": len(trace["traceEvents"]),
                        "processes": trace["otherData"]["processes"],
                    }
            curve.append(entry)

    best = max(curve, key=lambda e: e["achieved_throughput_rps"]) \
        if curve else None
    result = {
        "bench": "cluster",
        "config": {
            "scale": scale,
            "level": level,
            "n_requests": n_requests,
            "rate_rps": rate_rps,
            "worker_counts": list(worker_counts),
            "max_batch_size": max_batch_size,
            "max_linger_s": max_linger_s,
            "capacity": capacity,
            "timeout_s": timeout_s,
            "seed": seed,
            "autoscale": autoscale,
            "traffic": (traffic or TrafficModel()).to_dict(),
            "n_tenants": n_tenants,
        },
        # Fleet capacity vs the host roofline: achieved per-network
        # req/s from the best cluster pass against the calibrated
        # single-host ceiling at each network's intensity.
        "roofline": _cluster_roofline(networks, best),
        #: Scaling context: N workers cannot beat 1 worker on a
        #: single-core host, and readers of this JSON need to know
        #: which kind of host produced it.
        "cpu_count": os.cpu_count(),
        "interrupted": bool(single.get("interrupted")
                            or any(e.get("interrupted") for e in curve)),
        "sequential_baseline": sequential,
        "single_process": single,
        "scaling_curve": curve,
        "best": None if best is None else {
            "workers": best["workers"],
            "achieved_throughput_rps":
                best["achieved_throughput_rps"],
            "speedup_vs_sequential": best["speedup_vs_sequential"],
            "speedup_vs_single_process":
                best["speedup_vs_single_process"],
        },
        "shared_store_nbytes": store_nbytes,
    }
    if tenant_info is not None:
        result["tenants"] = {k: v for k, v in tenant_info.items()
                             if k != "tenant_of"}
    if merged_trace_info is not None:
        result["trace"] = merged_trace_info
    if out_path:
        directory = os.path.dirname(os.path.abspath(out_path))
        os.makedirs(directory, exist_ok=True)
        with open(out_path, "w") as handle:
            json.dump(result, handle, indent=2)
            handle.write("\n")
    return result


def _probe_cluster_breakers(cluster: ServingCluster, stream,
                            budget_s: float) -> int:
    """Health-probe networks whose breaker is open in any worker.

    The cluster analogue of ``chaos._probe_open_breakers``: breakers
    live inside worker engines, so open states are discovered via the
    snapshot protocol and probed by submitting real requests (a closed
    breaker's worker just serves them; an open one converts the probe
    into its half-open trial).  Probe requests happen after the
    measured run and are excluded from availability accounting.
    """
    sample = {}
    for network, x_raw in stream:
        sample.setdefault(network.name, x_raw)
    deadline = time.monotonic() + budget_s
    probes = 0
    while time.monotonic() < deadline:
        snapshots = cluster.snapshot_workers()
        open_names = set()
        for stats in snapshots.values():
            if not stats:
                continue
            for name, state in stats.get("breakers", {}).items():
                if state != "closed" and name in sample:
                    open_names.add(name)
        if not open_names:
            break
        requests = [cluster.submit(name, sample[name])
                    for name in sorted(open_names)]
        probes += len(requests)
        for request in requests:
            request.wait(timeout=1.0)
        time.sleep(0.02)
    return probes


def _default_kill_schedule(cluster: ServingCluster,
                           n_requests: int) -> dict:
    """``{shard: routed_count_to_kill_at}`` — one kill per shard that
    has a surviving replica, at ~40% of its expected traffic."""
    schedule = {}
    total = len(cluster.networks)
    for shard in range(cluster.plan.n_shards):
        if len(cluster.plan.networks_of[shard]) == 0:
            continue
        if cluster.config.replicas_per_shard < 2 and shard > 0:
            # With single-replica shards, kill only shard 0 so most of
            # the fleet keeps serving while the respawn path is still
            # exercised.
            continue
        expected = n_requests * len(cluster.plan.networks_of[shard]) \
            / total
        schedule[shard] = max(5, int(expected * 0.4))
    return schedule


#: Default message-fault mix for ``chaos-bench --cluster`` IPC chaos:
#: every fault family represented, biased towards the recoverable
#: kinds, summing well under 1 so most traffic still passes clean.
DEFAULT_CHANNEL_FAULTS = ChannelFaultPlan(
    drop_p=0.015, duplicate_p=0.02, corrupt_p=0.03, reorder_p=0.02,
    delay_p=0.03, delay_s=0.02)


def run_cluster_chaos_bench(scale: int | None = None, level: str = "e",
                            n_requests: int = 300,
                            duration_s: float = 3.0,
                            rate_rps: float | None = None,
                            workers: int = 4,
                            max_batch_size: int = 16,
                            max_linger_s: float = 0.002,
                            integrity_check_every: int = 5,
                            capacity: int = 256, seed: int = 2020,
                            kill_schedule: dict | None = None,
                            recovery_budget_s: float = 3.0,
                            out_path: str | None = None,
                            stop_event=None, abft: bool = True,
                            hedge: bool = True,
                            ipc_faults: bool = True,
                            timeout_s: float | None = 5.0,
                            dashboard_port: int | None = None) -> dict:
    """``chaos-bench --cluster``: scripted faults + worker-process kills.

    Every worker runs the standard in-process fault scenario (now
    including activation SDC, caught by ABFT when ``abft``) through its
    own seeded injector; on top, ``kill_schedule`` (default: one kill
    per shard at ~40% of its expected traffic) SIGKILLs live worker
    processes at deterministic per-shard routed-request counts, and
    ``ipc_faults`` injects seeded message-level drop/duplicate/corrupt/
    reorder/delay faults on every router↔worker pipe.  ``hedge``
    enables p95 hedged retries under a token-bucket budget — the
    recovery path for dropped messages.  The run ends with the
    exactly-once invariant checker over the router audit log.
    """
    from ..rrm.networks import suite
    networks = suite(scale)
    if rate_rps is None:
        rate_rps = max(1.0, n_requests / duration_s)
    engine_config = EngineConfig(
        level=level, max_batch_size=max_batch_size,
        max_linger_s=max_linger_s, seed=seed,
        integrity_check_every=integrity_check_every, abft=abft)
    stream = make_request_stream(networks, n_requests, seed=seed)
    expected, sequential = golden_outputs(networks, stream, level, seed)
    if hedge or ipc_faults:
        # Hedges and NAK redispatches need a second replica in every
        # shard to land on; fold the worker budget into fewer, deeper
        # shards instead of the default one-replica spread.
        n_shards, replicas = worker_layout(
            workers, min(len(networks), max(1, workers // 2)))
    else:
        n_shards, replicas = worker_layout(workers, len(networks))
    # Fault windows count per-replica, per-network sequence numbers;
    # JSQ splits a shard's traffic across its replicas, so scale the
    # windows down to what a single replica actually sees.
    plan = default_scenario(networks, max(1, n_requests // replicas),
                            seed=seed)

    holder: dict = {"cluster": None, "killed": {}}

    def on_routed(shard: int, count: int) -> None:
        cluster = holder["cluster"]
        schedule = holder["schedule"]
        if cluster is None or shard in holder["killed"]:
            return
        if shard in schedule and count >= schedule[shard]:
            holder["killed"][shard] = cluster.kill_replica(shard)

    metrics = ClusterMetrics()
    cluster = ServingCluster(
        networks,
        ClusterConfig(n_shards=n_shards, replicas_per_shard=replicas,
                      capacity=capacity, engine=engine_config,
                      hedge=HedgePolicy() if hedge else None,
                      channel_faults=(DEFAULT_CHANNEL_FAULTS
                                      if ipc_faults else None)),
        fault_plan=plan, metrics=metrics, on_routed=on_routed)
    holder["cluster"] = cluster
    holder["schedule"] = (kill_schedule if kill_schedule is not None
                          else _default_kill_schedule(cluster,
                                                      n_requests))
    probes = 0
    from ..obs.web import bench_dashboard
    with bench_dashboard(dashboard_port, cluster=cluster,
                         label="chaos-bench --cluster", scale=scale):
        with cluster:
            run = _drive_cluster(cluster, stream, rate_rps, seed,
                                 expected, timeout_s, None,
                                 stop_event=stop_event)
            probes = _probe_cluster_breakers(cluster, stream,
                                             recovery_budget_s)
    cluster_metrics = metrics.to_dict()
    finals = cluster.worker_finals()

    final_breakers = {worker: payload.get("breaker_states", {})
                      for worker, payload in sorted(finals.items())}
    all_reclosed = all(state == "closed"
                       for states in final_breakers.values()
                       for state in states.values())
    fault_digests = {worker: payload["fault_digest"]
                     for worker, payload in sorted(finals.items())
                     if "fault_digest" in payload}
    injected = sum(len(payload.get("fault_log", []))
                   for payload in finals.values())

    # Invariants: exactly-once + post-stop deadline discipline from the
    # router audit, legal transitions from every worker's breaker log.
    invariants = None
    if cluster.audit is not None:
        invariants = check_router_invariants(
            cluster.audit.events(), stop_t=cluster.stopped_at,
            dropped=cluster.audit.dropped)
        for payload in finals.values():
            invariants = invariants.merge(check_breaker_transitions(
                payload.get("breaker_events", [])))
    totals = cluster_metrics["total"]
    fleet = cluster_metrics["fleet_engine_totals"]
    resilience = {
        "abft": abft,
        "hedge": hedge,
        "ipc_faults": ipc_faults,
        "hedges": totals["hedges"],
        "hedge_wins": totals["hedge_wins"],
        "retry_budget_denied": totals["hedge_denied"],
        "duplicate_responses": totals["duplicate_responses"],
        "ipc_rejects": totals["ipc_rejects"],
        "naks": totals["naks"],
        "suspects": totals["suspects"],
        "sdc_detections": fleet.get("sdc_detections", 0),
        "sdc_repairs": fleet.get("sdc_repairs", 0),
        "sdc_reruns": fleet.get("sdc_reruns", 0),
    }
    if cluster.retry_budget is not None:
        resilience["retry_budget"] = cluster.retry_budget.snapshot()
    if cluster.channel_log is not None:
        resilience["channel_faults"] = {
            "injected_events": len(cluster.channel_log),
            "by_kind": cluster.channel_log.counts(),
            "log_sha256": cluster.channel_log.digest(),
            "log": cluster.channel_log.canonical(),
        }
    if invariants is not None:
        resilience["invariants_ok"] = invariants.ok
        resilience["invariants"] = invariants.to_dict()

    result = {
        "bench": "cluster-chaos",
        "config": {
            "scale": scale,
            "level": level,
            "n_requests": n_requests,
            "rate_rps": rate_rps,
            "duration_s": duration_s,
            "workers": workers,
            "n_shards": n_shards,
            "replicas_per_shard": replicas,
            "capacity": capacity,
            "integrity_check_every": integrity_check_every,
            "seed": seed,
            "abft": abft,
            "hedge": hedge,
            "ipc_faults": ipc_faults,
            "timeout_s": timeout_s,
        },
        "cpu_count": os.cpu_count(),
        "scenario": plan.to_dict(),
        "kill_schedule": {str(k): v
                          for k, v in holder["schedule"].items()},
        "killed_workers": {str(k): v
                           for k, v in holder["killed"].items()},
        **{key: run[key] for key in
           ("interrupted", "submitted", "completed", "correct",
            "incorrect", "failed", "failure_reasons",
            "incorrect_by_network", "accepted", "availability",
            "goodput_rps", "elapsed_s",
            "achieved_throughput_rps")},
        "rejected": run["rejected_timeout"] + run["rejected_capacity"]
            + run["rejected_unavailable"],
        "recovery_probes": probes,
        "sequential_golden": sequential,
        "proc_deaths": cluster_metrics["total"]["proc_deaths"],
        "proc_kills": cluster_metrics["total"]["proc_kills"],
        "replica_starts": cluster_metrics["total"]["replica_starts"],
        "redispatched": cluster_metrics["total"]["redispatched"],
        "breakers": {"final_states": final_breakers,
                     "all_reclosed": all_reclosed},
        "all_breakers_reclosed": all_reclosed,
        "faults": {"injected_events": injected,
                   "per_worker_log_sha256": fault_digests},
        "resilience": resilience,
        "cluster_metrics": cluster_metrics,
        "events": [{k: v for k, v in event.items()}
                   for event in cluster.events],
    }
    if out_path:
        directory = os.path.dirname(os.path.abspath(out_path))
        os.makedirs(directory, exist_ok=True)
        with open(out_path, "w") as handle:
            json.dump(result, handle, indent=2)
            handle.write("\n")
    return result


def _ms(seconds, width: int = 9) -> str:
    if seconds is None:
        return f"{'-':>{width}}"
    return f"{seconds * 1e3:>{width}.2f}"


def render_cluster_table(result: dict) -> str:
    """Human-readable scaling-curve report for ``cluster-bench``."""
    config = result["config"]
    lines = []
    lines.append("cluster-bench: process-sharded serving fleet "
                 f"(level {config['level']}, seed {config['seed']}, "
                 f"{config['n_requests']} requests @ "
                 f"{config['rate_rps']:.0f} req/s, "
                 f"{result['cpu_count']} cpu)")
    lines.append("")
    header = (f"{'workers':<10}{'layout':>8}{'done':>6}{'ok':>6}"
              f"{'shed':>6}{'req/s':>10}{'p50 ms':>9}{'p95 ms':>9}"
              f"{'vs seq':>8}{'vs 1proc':>9}")
    lines.append(header)
    lines.append("-" * len(header))
    single = result["single_process"]
    lines.append(f"{'1 (in-proc)':<10}{'-':>8}{single['completed']:>6}"
                 f"{single['correct']:>6}"
                 f"{single['rejected_capacity']:>6}"
                 f"{single['achieved_throughput_rps']:>10.1f}"
                 f"{_ms(single['latency']['p50_s'])}"
                 f"{_ms(single['latency']['p95_s'])}"
                 f"{'-':>8}{'1.00x':>9}")
    for entry in result["scaling_curve"]:
        layout = f"{entry['n_shards']}x{entry['replicas_per_shard']}"
        latency = entry["latency"]
        values = list(latency.values())
        p50 = values[0]["p50_s"] if values else None
        p95 = values[0]["p95_s"] if values else None
        if len(values) > 1:
            p50 = max((v["p50_s"] for v in values
                       if v["p50_s"] is not None), default=None)
            p95 = max((v["p95_s"] for v in values
                       if v["p95_s"] is not None), default=None)
        shed = entry["rejected_capacity"] + entry["rejected_unavailable"]
        lines.append(
            f"{entry['workers']:<10}{layout:>8}{entry['completed']:>6}"
            f"{entry['correct']:>6}{shed:>6}"
            f"{entry['achieved_throughput_rps']:>10.1f}"
            f"{_ms(p50)}{_ms(p95)}"
            f"{entry['speedup_vs_sequential']:>7.2f}x"
            f"{entry['speedup_vs_single_process']:>8.2f}x")
    lines.append("-" * len(header))
    lines.append("")
    lines.append(f"sequential baseline "
                 f"{result['sequential_baseline']['throughput_rps']:>10.1f}"
                 " req/s (batch=1 QuantModel)")
    if result["best"] is not None:
        best = result["best"]
        lines.append(f"best fleet          "
                     f"{best['achieved_throughput_rps']:>10.1f} req/s "
                     f"({best['workers']} workers, "
                     f"{best['speedup_vs_sequential']:.2f}x sequential, "
                     f"{best['speedup_vs_single_process']:.2f}x "
                     "single-process)")
    store_kib = (result["shared_store_nbytes"] or 0) / 1024
    lines.append(f"shared weight store {store_kib:>10.1f} KiB "
                 "(quantized once, mapped by every worker)")
    if result["cpu_count"] == 1:
        lines.append("note: single-core host -- workers time-slice one "
                     "core, the curve measures overhead, not scaling")
    if result.get("interrupted"):
        lines.append("note: run interrupted -- partial results")
    return "\n".join(lines)


def render_cluster_chaos_table(result: dict) -> str:
    """Human-readable report for ``chaos-bench --cluster``."""
    config = result["config"]
    lines = []
    lines.append("cluster chaos-bench: fleet under scripted faults + "
                 f"process kills (level {config['level']}, "
                 f"seed {config['seed']}, {config['workers']} workers as "
                 f"{config['n_shards']}x{config['replicas_per_shard']}, "
                 f"{config['n_requests']} requests)")
    lines.append("")
    lines.append(f"availability        {result['availability'] * 100:>9.1f}"
                 " %  (non-rejected requests completing bit-exactly)")
    lines.append(f"goodput             {result['goodput_rps']:>9.1f}"
                 " req/s")
    lines.append(f"process kills       {result['proc_kills']:>9d}"
                 f"  (deaths detected: {result['proc_deaths']}, "
                 f"replicas started: {result['replica_starts']})")
    lines.append(f"redispatched        {result['redispatched']:>9d}"
                 "  in-flight requests failed over to live replicas")
    lines.append(f"faults injected     "
                 f"{result['faults']['injected_events']:>9d}"
                 "  (in-process scenario, per-worker injectors)")
    recloses = "yes" if result["all_breakers_reclosed"] else "NO"
    lines.append(f"breakers re-closed  {recloses:>9s}"
                 f"  (recovery probes: {result['recovery_probes']})")
    lines.append(f"incorrect / failed  {result['incorrect']:>9d} / "
                 f"{result['failed']}")
    res = result.get("resilience")
    if res is not None:
        lines.append(f"hedges              {res['hedges']:>9d}"
                     f"  ({res['hedge_wins']} won, "
                     f"{res['retry_budget_denied']} budget-denied, "
                     f"{res['duplicate_responses']} duplicate responses "
                     "absorbed)")
        channel = res.get("channel_faults")
        if channel is not None:
            lines.append(f"ipc faults          "
                         f"{channel['injected_events']:>9d}"
                         f"  {channel['by_kind']}  "
                         f"(naks: {res['naks']}, rejects: "
                         f"{res['ipc_rejects']}, sha256 "
                         f"{channel['log_sha256'][:16]}…)")
        lines.append(f"sdc / abft          {res['sdc_detections']:>9d}"
                     f" detected  ({res['sdc_repairs']} repairs, "
                     f"{res['sdc_reruns']} reruns)")
        if "invariants_ok" in res:
            status = "ok" if res["invariants_ok"] else "VIOLATED"
            lines.append(f"invariants          {status:>9}"
                         "  (exactly-once, deadline discipline, "
                         "breaker edges)")
    if result.get("interrupted"):
        lines.append("note: run interrupted -- partial results")
    return "\n".join(lines)
