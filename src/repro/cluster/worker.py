"""The worker-process side of the serving cluster.

Each worker process hosts one :class:`~repro.serve.engine.
InferenceEngine` replica serving its shard's networks from the shared
quantized-weight store.  The process boundary is crossed by exactly two
``multiprocessing`` queues:

* **inbox** (parent -> worker): ``("req", [(rid, network, x_raw,
  deadline_abs, crc), ...])``, ``("snapshot",)`` and ``("stop",)``
  tuples.
* **outbox** (worker -> parent, shared by all workers): responses and
  control messages, every one tagged with the worker name.

Every request/response wire item carries a trailing CRC32
(:mod:`repro.resilience.channel`): a corrupt request item is NAKed
back to the router (``("nak", name, [rids])``) for redispatch instead
of being served with flipped bits, and the parent's collector verifies
response items symmetrically.  The outbox sender doubles as a
heartbeat source (``("hb", name)`` every ``heartbeat_interval_s``) for
the parent's phi-accrual failure detector.

Responses are *coalesced*: a dedicated sender thread drains an internal
buffer and ships every settled request it finds as one ``("res", name,
[...])`` message, so queue traffic amortises under load instead of
paying one pickled message per request — on a busy replica this is the
difference between the IPC queue being a footnote and being the
bottleneck.

Deadlines travel as *absolute* ``time.monotonic`` values: on Linux that
clock is CLOCK_MONOTONIC, shared by every process on the host, so the
worker re-derives the remaining budget locally without clock-sync
machinery.

``worker_main`` is the spawn entry point; everything it needs arrives
in the picklable :class:`WorkerSpec`.
"""

from __future__ import annotations

import signal
import threading
from dataclasses import dataclass, field

import numpy as np

from ..resilience.channel import attach_crc, check_crc
from ..serve.engine import EngineConfig, InferenceEngine
from ..serve.metrics import ServeMetrics
from .store import SharedWeightStore, StoreBackedRegistry

__all__ = ["WorkerSpec", "worker_main"]


@dataclass
class WorkerSpec:
    """Everything a spawned worker needs (picklable by construction)."""

    name: str
    shard: int
    index: int
    #: The networks this replica serves (frozen dataclasses pickle fine).
    networks: tuple
    #: ``SharedWeightStore.descriptor`` — shm name + layout manifest.
    store_descriptor: dict
    config: EngineConfig = field(default_factory=EngineConfig)
    #: Optional ``FaultPlan`` restricted to this shard's networks.
    fault_plan: object = None
    fault_seed: int = 2020
    #: Record spans in the worker for the merged cluster trace.
    trace: bool = False
    #: Seconds the outbox sender sleeps between coalescing sweeps.
    flush_interval_s: float = 0.002
    #: Cadence of ``("hb", name)`` liveness messages (phi-accrual
    #: detector input); 0 disables heartbeats.
    heartbeat_interval_s: float = 0.05


class _Outbox:
    """Coalescing response sender.

    ``put`` is called from engine settle callbacks (engine worker
    threads); a single sender thread batches everything buffered since
    the last sweep into one queue message.  ``close`` flushes the tail
    and — critically for ``mp.Queue`` — joins the queue's feeder thread
    so no response is stranded in the pickling pipeline when the
    process exits.
    """

    def __init__(self, out_q, name: str, flush_interval_s: float,
                 heartbeat_interval_s: float = 0.0):
        self._q = out_q
        self._name = name
        self._interval = flush_interval_s
        self._hb_interval = heartbeat_interval_s
        self._hb_due = 0.0
        self._buf: list = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run,
                                        name=f"{name}-outbox", daemon=True)
        self._thread.start()

    def put(self, item) -> None:
        with self._lock:
            self._buf.append(item)

    def send_control(self, message) -> None:
        """Ship a control tuple immediately (not coalesced)."""
        self._q.put(message)

    def _drain(self) -> None:
        with self._lock:
            batch, self._buf = self._buf, []
        if batch:
            self._q.put(("res", self._name, batch))

    def _run(self) -> None:
        import time
        while not self._stop.wait(self._interval):
            self._drain()
            if self._hb_interval > 0:
                now = time.monotonic()
                if now >= self._hb_due:
                    self._hb_due = now + self._hb_interval
                    self._q.put(("hb", self._name))
        self._drain()

    def close(self) -> None:
        self._stop.set()
        self._thread.join(timeout=10.0)
        self._drain()
        self._q.close()
        self._q.join_thread()


def _settle_payload(request) -> tuple:
    """Pack one settled engine Request for the response queue."""
    output = request.output
    if output is not None:
        output = np.ascontiguousarray(output)
    return (request.cluster_rid, request.status, output,
            request.latency, request.batch_size, request.error)


def worker_main(spec: WorkerSpec, in_q, out_q) -> None:
    """Spawn entry point: serve ``spec.networks`` until ``("stop",)``.

    Inbox kinds besides requests and stop: ``("snapshot",)`` asks for a
    load-stats control message back, ``("flush",)`` drops the plan/model
    cache (rebuilt lazily — the operator flush action).

    Lifecycle on the outbox: ``("ready", name, pid)`` once the engine
    is warm, ``("res", name, [...])`` batches while serving, and a
    final ``("final", name, payload)`` carrying the metrics snapshot,
    breaker states/events, the fault injector's canonical log + digest
    and the raw span trace, then a clean exit.
    """
    # The parent coordinates shutdown via ("stop",); a terminal SIGINT
    # (Ctrl-C fans out to the process group) must not kill the worker
    # mid-drain.
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    import os

    store = SharedWeightStore.attach(spec.store_descriptor)
    injector = None
    if spec.fault_plan is not None:
        from ..faults.injector import FaultInjector
        injector = FaultInjector(spec.fault_plan, seed=spec.fault_seed)
    tracer = None
    if spec.trace:
        from ..obs.spans import SpanTracer
        tracer = SpanTracer(process_name=f"repro.cluster/{spec.name}")
    registry = StoreBackedRegistry(store, seed=spec.config.seed,
                                   mutable=injector is not None,
                                   abft=spec.config.abft)
    metrics = ServeMetrics()
    engine = InferenceEngine(networks=spec.networks, config=spec.config,
                             metrics=metrics, fault_injector=injector,
                             tracer=tracer, registry=registry)
    # Warm every (network, level) entry before declaring readiness so
    # the first routed request doesn't pay plan/trace construction.
    for network in spec.networks:
        engine.registry.get(network, spec.config.level)
    engine.start()

    outbox = _Outbox(out_q, spec.name, spec.flush_interval_s,
                     heartbeat_interval_s=spec.heartbeat_interval_s)
    outbox.send_control(("ready", spec.name, os.getpid()))

    def on_settle(request) -> None:
        outbox.put(attach_crc(_settle_payload(request)))

    clock = engine.clock
    running = True
    while running:
        message = in_q.get()
        kind = message[0]
        if kind == "req":
            corrupted: list = []
            for item in message[1]:
                if not check_crc(item):
                    # A flipped bit in transit: the rid field is never
                    # corrupted by the injector, so NAK it back for
                    # redispatch rather than serving garbage.
                    corrupted.append(item[0])
                    continue
                rid, network_name, x_raw, deadline = item[:4]
                timeout_s = None
                if deadline is not None:
                    timeout_s = deadline - clock()
                # ``tag`` stamps the router's id on the engine request
                # *before* any synchronous settle path can fire the
                # callback, so the response is always addressable.
                engine.submit(network_name, x_raw, timeout_s=timeout_s,
                              on_settle=on_settle, tag=rid)
            if corrupted:
                outbox.send_control(("nak", spec.name, corrupted))
        elif kind == "flush":
            engine.registry.flush()
        elif kind == "snapshot":
            outbox.send_control(
                ("stats", spec.name, {
                    "queue_depth": engine.total_queue_depth(),
                    "breakers": engine.breaker_states(),
                }))
        elif kind == "stop":
            running = False

    engine.stop(drain=True)
    final = {
        "metrics": metrics.to_dict(),
        "breaker_states": engine.breaker_states(),
        "breaker_events": engine.breaker_events,
        "store_nbytes": store.nbytes,
    }
    if injector is not None:
        final["fault_log"] = injector.canonical_log()
        final["fault_digest"] = injector.log_digest()
    if tracer is not None:
        final["trace"] = tracer.export_raw()
    outbox.send_control(("final", spec.name, final))
    outbox.close()
    store.close()
