"""The process-sharded serving cluster: router + worker fleet + scaling.

:class:`ServingCluster` composes the pieces in this package into one
serving system:

* quantize the whole suite **once** and publish it via a
  :class:`~repro.cluster.store.SharedWeightStore`;
* partition the networks over shards
  (:class:`~repro.cluster.router.ShardPlan`) and spawn N worker
  processes per shard, each hosting a full
  :class:`~repro.serve.engine.InferenceEngine` replica attached to the
  shared store;
* route requests through the front-end :class:`~repro.cluster.router.
  Router` (hash sharding, JSQ, admission control);
* supervise the fleet — a dead worker process is detected, its
  in-flight requests redispatched to surviving replicas (inference is
  idempotent), and a replacement spawned within the restart budget;
* optionally autoscale each shard from the router's queue-depth gauges
  (:class:`~repro.cluster.autoscaler.AutoscalerPolicy`).

Worker processes use the ``spawn`` start method: it is the only method
that is safe on every platform and Python version in CI, and it makes
the shared weight store genuinely load-bearing (a forked child would
inherit the parent's quantized weights for free and hide regressions
in the store path).

Thread layout in the parent: the caller's threads submit via
:meth:`submit`; one *collector* thread drains the shared response
queue; one *supervisor* thread watches process liveness and runs the
autoscaler tick.  All worker communication is queue-based — the parent
never shares mutable state with a worker except the read-only weight
segment.

Resilience wiring (:mod:`repro.resilience`): every wire item is CRC32
framed end to end; a corrupt request is NAKed by the worker, a corrupt
response is rejected by the collector, both feeding the router's
redispatch path.  Worker heartbeats drive a phi-accrual failure
detector whose suspicion penalizes JSQ routing; the supervisor tick
issues hedged retries for p95-slow requests under a token-bucket retry
budget; and an optional :class:`~repro.resilience.channel.
ChannelFaultPlan` injects seeded message-level faults on every
router↔worker pipe for chaos runs.  Stop (or an unexpected supervisor
exit) settles every still-pending request as ``rejected_unavailable``
so no caller ever hangs on ``result()``.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_mod
import signal
import threading
import time
from dataclasses import dataclass, field, replace

from ..resilience.channel import (ChannelFaultLog, FaultyChannel,
                                  attach_crc, check_crc)
from ..resilience.detector import PhiAccrualDetector
from ..resilience.hedging import RetryBudget
from ..resilience.invariants import RouterAudit
from ..serve.engine import EngineConfig, RequestStatus
from .autoscaler import AutoscalerConfig, AutoscalerPolicy
from .metrics import ClusterMetrics
from .router import ReplicaHandle, Router, ShardPlan
from .store import SharedWeightStore
from .trace import merge_traces
from .worker import WorkerSpec, worker_main

__all__ = ["ClusterConfig", "ServingCluster", "worker_layout"]


@dataclass
class ClusterConfig:
    """Knobs for one cluster run."""

    n_shards: int = 2
    replicas_per_shard: int = 1
    #: Router-side per-replica outstanding budget (admission control).
    capacity: int = 256
    #: Engine configuration applied to every replica.
    engine: EngineConfig = field(default_factory=EngineConfig)
    #: Respawn a replacement when a worker process dies unexpectedly.
    restart_dead_workers: bool = True
    max_worker_restarts: int = 4
    #: Autoscaling (off by default; cluster-bench enables it).
    autoscale: bool = False
    autoscaler: AutoscalerConfig = field(default_factory=AutoscalerConfig)
    autoscale_interval_s: float = 0.05
    #: Supervisor liveness-poll interval.
    supervise_interval_s: float = 0.02
    #: Collect spans in the router and every worker, merged at stop.
    trace: bool = False
    #: Worker outbox coalescing interval.
    flush_interval_s: float = 0.002
    #: Seconds start()/stop() wait for worker handshakes.
    handshake_timeout_s: float = 60.0
    #: Hedged-retry policy (:class:`~repro.resilience.hedging.
    #: HedgePolicy`); ``None`` disables hedging and the retry budget.
    hedge: object = None
    #: Message-level IPC fault plan (:class:`~repro.resilience.channel.
    #: ChannelFaultPlan`); ``None`` means perfect pipes.
    channel_faults: object = None
    #: Phi-accrual failure detection over worker heartbeats (suspicion
    #: penalizes JSQ routing; replaces trust in fixed-interval polls).
    adaptive_detector: bool = True
    #: Worker heartbeat cadence (detector input); 0 disables.
    heartbeat_interval_s: float = 0.05
    #: Record a router audit log for post-run invariant checking.
    audit: bool = True

    @property
    def seed(self) -> int:
        return self.engine.seed


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


class _ProcReplica(ReplicaHandle):
    """A ReplicaHandle backed by a worker process and its inbox queue.

    Request items are CRC32-framed before they hit the queue; when a
    chaos run configures channel faults, the framed items pass through
    a per-replica ``tx`` :class:`~repro.resilience.channel.
    FaultyChannel` on the way.
    """

    def __init__(self, shard: int, index: int, name: str, in_q, process,
                 tx_channel: FaultyChannel | None = None):
        super().__init__(shard=shard, index=index, name=name)
        self.in_q = in_q
        self.process = process
        self.tx_channel = tx_channel
        self.ready = threading.Event()
        self.final = threading.Event()
        #: True when the parent retired/killed it on purpose.
        self.expected_exit = False

    def _put(self, items) -> None:
        try:
            self.in_q.put(("req", items))
        except (ValueError, OSError):
            # Queue already closed (replica torn down between the
            # router's accepting-check and this send): the supervisor
            # redispatches the in-flight entries it finds.
            pass

    def send(self, items) -> None:
        framed = [attach_crc(item) for item in items]
        if self.tx_channel is not None:
            self.tx_channel.send(framed)
        else:
            self._put(framed)


class ServingCluster:
    """Lifecycle owner for the router + worker-process fleet.

    Usage::

        cluster = ServingCluster(networks, ClusterConfig(n_shards=2))
        cluster.start()
        request = cluster.submit("sun2017", x_raw, timeout_s=0.1)
        y = request.result(timeout=1.0)
        cluster.stop()

    ``fault_plan`` (a :class:`~repro.faults.FaultPlan`) is shipped to
    every worker, which instantiates its own seeded injector — specs
    for networks a shard does not host simply never fire.
    ``on_routed(shard, count)`` hooks every successful route (the chaos
    driver schedules worker kills with it).
    """

    def __init__(self, networks=None, config: ClusterConfig | None = None,
                 scale: int | None = None, fault_plan=None,
                 metrics: ClusterMetrics | None = None, on_routed=None):
        if networks is None:
            from ..rrm.networks import suite
            networks = suite(scale)
        self.networks = tuple(networks)
        self.config = config or ClusterConfig()
        self.fault_plan = fault_plan
        self.metrics = metrics or ClusterMetrics()
        self.plan = ShardPlan(self.networks, self.config.n_shards)
        self.tracer = None
        if self.config.trace:
            from ..obs.spans import SpanTracer
            self.tracer = SpanTracer(process_name="repro.cluster/router")
        self.detector = (PhiAccrualDetector()
                         if self.config.adaptive_detector else None)
        self.audit = RouterAudit() if self.config.audit else None
        #: Retry budget exists only alongside hedging — without it,
        #: dead-replica redispatch keeps its PR-6 always-affordable
        #: semantics.
        self.retry_budget = (RetryBudget()
                             if self.config.hedge is not None else None)
        self.channel_log = (ChannelFaultLog()
                            if self.config.channel_faults is not None
                            else None)
        self.router = Router(self.plan, capacity=self.config.capacity,
                             metrics=self.metrics, tracer=self.tracer,
                             on_routed=on_routed,
                             hedge=self.config.hedge,
                             budget=self.retry_budget,
                             suspicion=self._suspicion,
                             audit=self.audit)
        self.store: SharedWeightStore | None = None
        self._ctx = multiprocessing.get_context("spawn")
        self._out_q = None
        self._replicas: list[_ProcReplica] = []
        self._rx_channels: dict[str, FaultyChannel] = {}
        self._suspected: set[str] = set()
        self._next_index = [0] * self.plan.n_shards
        self._restarts_used = 0
        self._lock = threading.Lock()
        self._running = False
        self._stop_event = threading.Event()
        self._stop_supervisor = threading.Event()
        self._collector: threading.Thread | None = None
        self._supervisor: threading.Thread | None = None
        self._policy = AutoscalerPolicy(self.config.autoscaler)
        self._last_stats: dict[str, dict] = {}
        self._worker_finals: dict[str, dict] = {}
        self._worker_traces: list[dict] = []
        #: Monotonic timestamp of stop() entry (invariant checking).
        self.stopped_at: float | None = None
        #: Scaling/lifecycle event log (mirrors engine.breaker_events).
        self.events: list[dict] = []

    def _suspicion(self, name: str) -> float:
        """JSQ routing penalty from the phi-accrual detector."""
        if self.detector is None:
            return 0.0
        return self.detector.penalty(name)

    # ------------------------------------------------------------------
    # Lifecycle.
    def start(self) -> "ServingCluster":
        with self._lock:
            if self._running:
                return self
            self._running = True
        self._stop_event.clear()
        self._stop_supervisor.clear()
        self.store = SharedWeightStore.create(self.networks,
                                              seed=self.config.seed)
        self._out_q = self._ctx.Queue()
        self._collector = threading.Thread(target=self._collect_loop,
                                           name="cluster-collector",
                                           daemon=True)
        self._collector.start()
        spawned = []
        for shard in range(self.plan.n_shards):
            for _ in range(self.config.replicas_per_shard):
                spawned.append(self._spawn_replica(shard))
        deadline = time.monotonic() + self.config.handshake_timeout_s
        for replica in spawned:
            remaining = max(0.0, deadline - time.monotonic())
            if not replica.ready.wait(remaining):
                self.stop()
                raise RuntimeError(
                    f"worker {replica.name} failed to become ready "
                    f"within {self.config.handshake_timeout_s}s")
        self._supervisor = threading.Thread(target=self._supervise_loop,
                                            name="cluster-supervisor",
                                            daemon=True)
        self._supervisor.start()
        return self

    def _spawn_replica(self, shard: int) -> _ProcReplica:
        index = self._next_index[shard]
        self._next_index[shard] += 1
        name = f"shard-{shard}/replica-{index}"
        spec = WorkerSpec(
            name=name, shard=shard, index=index,
            networks=self.plan.networks_of[shard],
            store_descriptor=self.store.descriptor,
            config=replace(self.config.engine),
            fault_plan=self.fault_plan,
            fault_seed=self.config.seed,
            trace=self.config.trace,
            flush_interval_s=self.config.flush_interval_s,
            heartbeat_interval_s=self.config.heartbeat_interval_s,
        )
        in_q = self._ctx.Queue()
        process = self._ctx.Process(target=worker_main,
                                    args=(spec, in_q, self._out_q),
                                    name=name, daemon=True)
        process.start()
        tx_channel = None
        if self.config.channel_faults is not None:
            def _deliver_tx(items, _q=in_q):
                try:
                    _q.put(("req", items))
                except (ValueError, OSError):
                    pass
            tx_channel = FaultyChannel(name, "tx",
                                       self.config.channel_faults,
                                       self.config.seed, _deliver_tx,
                                       log=self.channel_log)
            self._rx_channels[name] = FaultyChannel(
                name, "rx", self.config.channel_faults, self.config.seed,
                lambda items, _name=name: self._handle_res(_name, items),
                log=self.channel_log)
        replica = _ProcReplica(shard, index, name, in_q, process,
                               tx_channel=tx_channel)
        with self._lock:
            self._replicas.append(replica)
        self.router.attach_replica(replica)
        self.metrics.on_replica_start(name)
        self._log_event("replica_start", shard=shard, worker=name)
        return replica

    def stop(self) -> None:
        with self._lock:
            if not self._running:
                return
            self._running = False
        self.stopped_at = time.monotonic()
        self._stop_supervisor.set()
        if self._supervisor is not None:
            self._supervisor.join(timeout=10.0)
            self._supervisor = None
        live = [r for r in self.replicas() if r.process.is_alive()]
        for replica in live:
            replica.accepting = False
            replica.expected_exit = True
            # Flush any tx-held (delayed/reordered) requests ahead of
            # the stop sentinel so the worker's drain still sees them.
            if replica.tx_channel is not None:
                replica.tx_channel.close()
            try:
                replica.in_q.put(("stop",))
            except (ValueError, OSError):
                pass
        deadline = time.monotonic() + self.config.handshake_timeout_s
        for replica in live:
            remaining = max(0.0, deadline - time.monotonic())
            replica.final.wait(remaining)
        self._stop_event.set()
        if self._collector is not None:
            self._collector.join(timeout=10.0)
            self._collector = None
        # Responses still held by rx fault channels must NOT settle
        # after the stranded sweep below — a delayed DONE landing past
        # its deadline post-stop would violate exactly-once accounting.
        for channel in list(self._rx_channels.values()):
            dropped = channel.drop_pending()
            if dropped:
                self._log_event("rx_dropped_at_stop", worker=channel.name,
                                count=dropped)
        for replica in self.replicas():
            replica.process.join(timeout=5.0)
            if replica.process.is_alive():
                replica.process.terminate()
                replica.process.join(timeout=5.0)
            replica.in_q.close()
        # Whatever is still unsettled (dropped responses, requests on a
        # worker that never answered) is rejected now: stop() guarantees
        # every ClusterRequest settles — no caller hangs on result().
        stranded = self.router.fail_all_inflight(
            "cluster stopped", status=RequestStatus.REJECTED_UNAVAILABLE)
        if stranded and self.tracer is not None:
            self.tracer.instant("stop:stranded", "router",
                                args={"count": stranded})
        if self._out_q is not None:
            self._out_q.close()
            self._out_q.join_thread()
            self._out_q = None
        if self.store is not None:
            self.store.unlink()

    def __enter__(self) -> "ServingCluster":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Request path.
    def submit(self, network_name: str, x_raw, timeout_s=None):
        return self.router.submit(network_name, x_raw,
                                  timeout_s=timeout_s)

    # ------------------------------------------------------------------
    # Collector: the single reader of the shared response queue.
    def _handle_res(self, worker_name: str, batch) -> None:
        """Verify and complete one batch of framed response items."""
        for item in batch:
            if not check_crc(item):
                # Corrupt in transit; the rid field is intact by
                # construction, so withdraw that leg and redispatch.
                self.metrics.on_ipc_reject(worker_name)
                self._log_event("ipc_reject", worker=worker_name,
                                rid=int(item[0]))
                self.router.nak(worker_name, [item[0]],
                                reason="response corrupt in transit")
                continue
            (rid, status, output, service_latency, batch_size,
             error) = item[:6]
            self.router.complete(rid, status, output, service_latency,
                                 batch_size, error, worker_name)

    def _collect_loop(self) -> None:
        while True:
            try:
                message = self._out_q.get(timeout=0.05)
            except (queue_mod.Empty, OSError, ValueError):
                if self._stop_event.is_set():
                    return
                continue
            kind = message[0]
            # Any traffic from a worker proves the process is alive.
            if self.detector is not None and len(message) > 1 \
                    and isinstance(message[1], str):
                self.detector.heartbeat(message[1])
            if kind == "res":
                _, worker_name, batch = message
                channel = self._rx_channels.get(worker_name)
                if channel is not None:
                    channel.send(batch)
                else:
                    self._handle_res(worker_name, batch)
            elif kind == "hb":
                pass  # heartbeat already recorded above
            elif kind == "nak":
                _, worker_name, rids = message
                for rid in rids:
                    self._log_event("worker_nak", worker=worker_name,
                                    rid=int(rid))
                self.router.nak(worker_name, rids,
                                reason="request corrupt in transit")
            elif kind == "ready":
                _, worker_name, pid = message
                replica = self._find(worker_name)
                if replica is not None:
                    replica.ready.set()
                self._log_event("ready", worker=worker_name, pid=pid)
            elif kind == "stats":
                _, worker_name, stats = message
                self._last_stats[worker_name] = stats
            elif kind == "final":
                _, worker_name, payload = message
                self._worker_finals[worker_name] = payload
                self.metrics.absorb_worker_final(
                    worker_name, payload.get("metrics", {}))
                raw = payload.get("trace")
                if raw is not None:
                    self._worker_traces.append(raw)
                replica = self._find(worker_name)
                if replica is not None:
                    replica.final.set()

    def _find(self, name: str) -> _ProcReplica | None:
        with self._lock:
            for replica in self._replicas:
                if replica.name == name:
                    return replica
        return None

    # ------------------------------------------------------------------
    # Supervisor: liveness + suspicion + hedging + autoscaling.
    def _supervise_loop(self) -> None:
        last_scale = time.monotonic()
        try:
            # Event.wait instead of bare sleep: stop() interrupts the
            # tick immediately instead of paying up to a full interval.
            while not self._stop_supervisor.wait(
                    self.config.supervise_interval_s):
                for replica in self.replicas():
                    if (replica.accepting
                            and not replica.process.is_alive()):
                        self._handle_death(replica)
                self._suspicion_tick()
                self.router.hedge_tick()
                self.router.reap_expired()
                self._flush_channels()
                if (self.config.autoscale
                        and time.monotonic() - last_scale
                        >= self.config.autoscale_interval_s):
                    last_scale = time.monotonic()
                    self._autoscale_tick()
        finally:
            if self._running:
                # The supervisor died (or was never cleanly stopped)
                # while the cluster still thinks it is serving: nothing
                # will redispatch or settle in-flight work any more, so
                # settle it here — no request may hang forever.
                self.router.fail_all_inflight(
                    "supervisor exited",
                    status=RequestStatus.REJECTED_UNAVAILABLE)

    def _suspicion_tick(self) -> None:
        """Track phi-threshold crossings per live worker."""
        if self.detector is None:
            return
        for replica in self.replicas():
            name = replica.name
            if not replica.accepting:
                self._suspected.discard(name)
                continue
            if self.detector.is_suspect(name):
                if name not in self._suspected:
                    self._suspected.add(name)
                    self.metrics.on_suspect(name)
                    self._log_event("suspect", worker=name,
                                    phi=self.detector.phi(name))
            else:
                self._suspected.discard(name)

    def _flush_channels(self) -> None:
        """Release due delayed items on every fault channel."""
        for replica in self.replicas():
            if replica.tx_channel is not None:
                replica.tx_channel.flush()
        for channel in list(self._rx_channels.values()):
            channel.flush()

    def _handle_death(self, replica: _ProcReplica) -> None:
        exitcode = replica.process.exitcode
        self.metrics.on_proc_death(replica.name)
        self._log_event("proc_death", worker=replica.name,
                        shard=replica.shard, exitcode=exitcode)
        if self.tracer is not None:
            self.tracer.instant("proc_death", "supervisor",
                                args={"worker": replica.name,
                                      "exitcode": exitcode})
        if self.detector is not None:
            self.detector.forget(replica.name)
        self._suspected.discard(replica.name)
        counts = self.router.fail_replica(
            replica, reason=f"worker process {replica.name} died "
                            f"(exit {exitcode})")
        self.router.detach_replica(replica)
        self._log_event("redispatch", worker=replica.name, **counts)
        live_in_shard = [r for r in self.router.replicas(replica.shard)
                         if r.accepting]
        need_respawn = (self.config.restart_dead_workers
                        and self._restarts_used
                        < self.config.max_worker_restarts)
        if need_respawn or not live_in_shard:
            self._restarts_used += 1
            self._spawn_replica(replica.shard)

    def _autoscale_tick(self) -> None:
        for stat in self.router.shard_stats():
            decision = self._policy.observe(
                stat["shard"], max(1, stat["replicas"]),
                stat["outstanding"], stat["capacity"])
            if decision.delta > 0:
                replica = self._spawn_replica(decision.shard)
                self._log_event("scale_up", shard=decision.shard,
                                worker=replica.name,
                                utilization=decision.utilization,
                                reason=decision.reason)
            elif decision.delta < 0:
                self._retire_one(decision)

    def _retire_one(self, decision) -> None:
        self.retire_replica(decision.shard, reason=decision.reason,
                            utilization=decision.utilization)

    def retire_replica(self, shard: int, reason: str = "operator",
                       utilization: float | None = None) -> str | None:
        """Drain and retire one replica of ``shard``.

        The autoscaler's scale-down path and the dashboard's drain
        action both land here.  Returns the retired worker's name, or
        ``None`` when the shard has at most one accepting replica (a
        shard is never drained empty).  Outstanding requests finish
        (the worker drains before exit); nothing new is routed to it
        once accepting is off.
        """
        candidates = [r for r in self.router.replicas(shard)
                      if r.accepting]
        if len(candidates) <= 1:
            return None
        replica = max(candidates, key=lambda r: r.index)
        replica.accepting = False
        replica.expected_exit = True
        try:
            replica.in_q.put(("stop",))
        except (ValueError, OSError):
            pass
        self.router.detach_replica(replica)
        self.metrics.on_replica_retired(replica.name)
        self._log_event("scale_down", shard=shard, worker=replica.name,
                        utilization=utilization, reason=reason)
        return replica.name

    def flush_plan_caches(self) -> int:
        """Ask every live worker to drop its ``(network, level)`` plan
        cache (rebuilt lazily on the next request).  Returns the number
        of workers messaged — the flush itself is asynchronous."""
        flushed = 0
        for replica in self.replicas():
            if replica.accepting and replica.process.is_alive():
                try:
                    replica.in_q.put(("flush",))
                    flushed += 1
                except (ValueError, OSError):
                    pass
        self._log_event("plan_cache_flush", workers=flushed)
        return flushed

    # ------------------------------------------------------------------
    # Chaos hooks.
    def kill_replica(self, shard: int) -> str | None:
        """SIGKILL one live replica of ``shard`` (the chaos scenario).

        Returns the killed worker's name (or ``None`` if the shard has
        no live replica).  The supervisor detects the death, fails over
        the in-flight requests and respawns within the restart budget —
        exactly the path a production orchestrator exercises.
        """
        candidates = [r for r in self.router.replicas(shard)
                      if r.accepting and r.process.is_alive()]
        if not candidates:
            return None
        replica = min(candidates, key=lambda r: r.index)
        self.metrics.on_proc_kill(replica.name)
        self._log_event("proc_kill", worker=replica.name, shard=shard)
        if self.tracer is not None:
            self.tracer.instant("proc_kill", "supervisor",
                                args={"worker": replica.name})
        os.kill(replica.process.pid, signal.SIGKILL)
        return replica.name

    # ------------------------------------------------------------------
    # Introspection.
    def replicas(self) -> list:
        with self._lock:
            return list(self._replicas)

    def live_replica_count(self) -> int:
        return sum(1 for r in self.replicas()
                   if r.accepting and r.process.is_alive())

    def snapshot_workers(self, wait_s: float = 0.5) -> dict:
        """Ask every live worker for a load snapshot; return the latest."""
        asked = []
        for replica in self.replicas():
            if replica.accepting and replica.process.is_alive():
                try:
                    replica.in_q.put(("snapshot",))
                    asked.append(replica.name)
                except (ValueError, OSError):
                    pass
        deadline = time.monotonic() + wait_s
        while (time.monotonic() < deadline
               and not all(name in self._last_stats for name in asked)):
            time.sleep(0.01)
        return {name: self._last_stats.get(name) for name in asked}

    def breaker_states(self) -> dict:
        """Final per-worker breaker states (from worker final payloads)."""
        return {name: payload.get("breaker_states", {})
                for name, payload in sorted(self._worker_finals.items())}

    def worker_finals(self) -> dict:
        return dict(self._worker_finals)

    def merged_trace(self) -> dict | None:
        """The fleet-wide Perfetto trace (after :meth:`stop`)."""
        if self.tracer is None:
            return None
        return merge_traces(self.tracer.export_raw(),
                            sorted(self._worker_traces,
                                   key=lambda r: r["process_name"]))

    def _log_event(self, kind: str, **details) -> None:
        self.events.append({"t": time.monotonic(), "event": kind,
                            **details})
