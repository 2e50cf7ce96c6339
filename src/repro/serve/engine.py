"""The inference engine: queues, dynamic batching, plan cache, deadlines —
and the fault-tolerance layer that keeps all of it serving under injected
hardware- and software-level faults.

One :class:`InferenceEngine` serves the whole network suite from one
dispatcher thread.  Each network gets its own request queue; submissions
append to it under the engine lock.  The dispatcher takes, from the
*ready* queue whose head is due first, up to ``max_batch_size``
requests, stacks their inputs and runs them through the network's
cached compiled model.  A request is due at its deadline, or at its
arrival when it has none, so no request can starve.  A queue is ready
when

* it holds a full batch,
* its head has waited ``max_linger_s``, or
* its measured arrival rate says no further row will arrive before the
  linger runs out (the *rate gate*: a smoothed inter-arrival gap kept
  per network at submit), so a lone request at low load is served at
  once while a loaded queue still waits for a full batch.

Overload behaviour degrades gracefully rather than collapsing:

* a full queue sheds new arrivals immediately (``rejected_capacity``),
* requests whose deadline has already passed are rejected at dispatch
  time instead of wasting batch slots (``rejected_timeout``).

Inputs are validated at this edge: a request whose shape does not fit
its network, or whose values leave the int16 range of the paper's
16-bit datapath, fails alone, with no bisect and no breaker failure.

Fault behaviour degrades gracefully too (see ``docs/ROBUSTNESS.md``):

* **Batch-bisect retry** — a failed batch execution splits recursively
  so a poison request fails alone while every peer still completes with
  bit-exact output.
* **Circuit breakers** — per-network; N consecutive fully-failed batches
  open the breaker, new submissions are rejected fast
  (``rejected_unavailable``), and exponential-backoff half-open probes
  re-close it once the network recovers.
* **Worker death** — an injected ``kill`` fails only the batch it hits
  and counts as a breaker failure; the dispatcher keeps serving.  A
  batch that never returns stalls every network (there is one
  dispatcher); a dead *process* is the cluster's job.
* **Weight-integrity guards** — CRC32 checksums over every quantized
  parameter array, verified on a batch cadence and on batch failure;
  a mismatch (e.g. an injected SEU bit flip) triggers an automatic
  re-quantize-and-reload repair.

The model registry is keyed on ``(network, level)``; each entry's
compiled model carries the static per-inference cycle count of the
network's generated kernel, which the metrics report as estimated
simulated cycles per request.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
import zlib
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..faults.plans import InjectedWorkerDeath
from ..nn.network import Network, QuantModel, init_params, quantize_params
from ..rrm.networks import suite
from .aot import AotBatchedModel
from .breaker import CircuitBreaker
from .metrics import ServeMetrics

__all__ = ["EngineConfig", "InferenceEngine", "ModelRegistry", "Request",
           "RequestStatus", "ModelEntry"]


class RequestStatus:
    PENDING = "pending"
    DONE = "done"
    REJECTED_TIMEOUT = "rejected_timeout"
    REJECTED_CAPACITY = "rejected_capacity"
    #: Fast-fail while the network's circuit breaker is open.
    REJECTED_UNAVAILABLE = "rejected_unavailable"
    FAILED = "failed"


@dataclass
class Request:
    """One in-flight inference request."""

    network: str
    x_raw: np.ndarray
    submit_time: float
    deadline: float | None = None
    id: int = 0
    #: Stable per-request trace ID (stamped at submit); the same ID
    #: labels every span/instant the request produces, so a response can
    #: be looked up in the exported Perfetto trace.
    trace_id: str = ""
    #: Per-network arrival index (stamped at submit).  Fault injection is
    #: keyed on this, which is what makes chaos scenarios reproducible.
    seq: int = 0
    status: str = RequestStatus.PENDING
    output: np.ndarray | None = None
    latency: float | None = None
    batch_size: int | None = None
    error: str | None = None
    #: Monotonic timestamp of the (single) effective settle; the
    #: post-run invariant checker uses it for deadline discipline.
    settled_at: float | None = None
    #: Settle calls absorbed by the idempotence guard after the first.
    duplicate_settles: int = 0
    #: Optional ``callable(request)`` invoked exactly once, after the
    #: request reaches a terminal status (from whichever thread settles
    #: it).  The cluster worker uses this to ship responses back over
    #: its pipe without polling; exceptions are swallowed so a broken
    #: callback can never kill the engine's dispatcher thread.
    on_settle: object = field(default=None, repr=False)
    _done: threading.Event = field(default_factory=threading.Event,
                                   repr=False)
    _settle_lock: threading.Lock = field(default_factory=threading.Lock,
                                         repr=False)

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the request settles; returns False on wait timeout."""
        return self._done.wait(timeout)

    @property
    def ok(self) -> bool:
        return self.status == RequestStatus.DONE

    def result(self, timeout: float | None = None) -> np.ndarray:
        if not self.wait(timeout):
            raise TimeoutError(f"request {self.id} still pending")
        if not self.ok:
            raise RuntimeError(f"request {self.id} {self.status}")
        return self.output

    def _settle(self, status: str, output=None, latency=None,
                batch_size=None, error=None) -> bool:
        """Settle exactly once; later calls are absorbed and counted.

        Returns True iff this call was the effective settle.  The guard
        is what makes redispatch/hedge races safe: whichever path wins
        publishes the result, every loser becomes a counted no-op.
        """
        with self._settle_lock:
            if self._done.is_set():
                self.duplicate_settles += 1
                return False
            self.status = status
            self.output = output
            self.latency = latency
            self.batch_size = batch_size
            self.error = error
            self.settled_at = time.monotonic()
            self._done.set()
        if self.on_settle is not None:
            try:
                self.on_settle(self)
            except Exception:
                pass
        return True


@dataclass
class ModelEntry:
    """Cached per-(network, level) serving state."""

    network: Network
    level: str
    model: AotBatchedModel
    reference: QuantModel
    params_raw: list
    cycles_per_request: int
    #: CRC32 per parameter array, frozen at registry build — the ground
    #: truth the integrity guard re-verifies against.
    checksums: list = field(default_factory=list)


def _param_checksums(params_raw: list) -> list:
    return [{key: zlib.crc32(np.ascontiguousarray(layer[key]).tobytes())
             for key in sorted(layer)}
            for layer in params_raw]


class ModelRegistry:
    """Plan/model cache keyed on ``(network, level)``.

    Parameters are drawn once per network with the registry seed (same
    recipe as :class:`repro.rrm.suite.SuiteRunner`), quantized to Q3.12
    and shared by the compiled batched model and the per-sample
    reference.

    Because the recipe is a pure function of ``(network, seed)``, the
    registry can also *repair* an entry whose arrays were corrupted in
    memory: :meth:`repair` re-quantizes pristine parameters and reloads
    them in place, so the batched model and the reference (which share
    the arrays) recover together.
    """

    def __init__(self, seed: int = 2020, abft: bool = False):
        self.seed = seed
        #: With ``abft`` the served model's plan verifies a column
        #: checksum on every accumulator, so silent compute corruption
        #: raises instead of serving bad outputs.
        self.abft = abft
        self._lock = threading.Lock()
        self._entries: dict[tuple, ModelEntry] = {}

    def _build_model(self, network: Network, params: list, level: str):
        # Looked up at call time, so a wrapper installed on the module
        # (a tracing probe, say) sees every build.
        from .aot import build_serving_model
        return build_serving_model(network, params, level=level,
                                   abft=self.abft)

    def _pristine_params(self, network: Network) -> list:
        return quantize_params(
            init_params(network, np.random.default_rng(self.seed)))

    def _params_for(self, network: Network) -> list:
        """Parameter source for new entries (overridden by the
        store-backed cluster registry)."""
        return self._pristine_params(network)

    def get(self, network: Network, level: str) -> ModelEntry:
        key = (network, level)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                params = self._params_for(network)
                model = self._build_model(network, params, level)
                entry = ModelEntry(
                    network=network,
                    level=level,
                    model=model,
                    reference=QuantModel(network, params),
                    params_raw=params,
                    cycles_per_request=model.cycles_per_request,
                    checksums=_param_checksums(params),
                )
                self._entries[key] = entry
        return entry

    def verify(self, entry: ModelEntry) -> list:
        """Re-checksum an entry's arrays; returns mismatches as
        ``[(layer_index, key), ...]`` (empty = intact)."""
        mismatches = []
        current = _param_checksums(entry.params_raw)
        for layer_idx, (now, then) in enumerate(zip(current,
                                                    entry.checksums)):
            for key in then:
                if now[key] != then[key]:
                    mismatches.append((layer_idx, key))
        return mismatches

    def repair(self, entry: ModelEntry) -> int:
        """Reload pristine quantized parameters in place.

        Returns the number of arrays restored.  In-place (``np.copyto``)
        so every model sharing the arrays sees the repair immediately.
        """
        pristine = self._pristine_params(entry.network)
        restored = 0
        for layer, good in zip(entry.params_raw, pristine):
            for key in layer:
                np.copyto(layer[key], good[key])
                restored += 1
        # The compiled model holds derived operands (transposed float64
        # weights, pre-shifted biases, checksum references); re-derive
        # them from the repaired arrays so they cannot drift.
        entry.model.reload_params()
        return restored

    def flush(self) -> int:
        """Drop every cached ``(network, level)`` entry.

        Returns the number of entries dropped.  The next request per
        key rebuilds plan, model and reference from pristine parameters
        — the operator's big hammer when a cached entry is suspected
        bad (the dashboard's flush-plan-cache action lands here).
        """
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
        return dropped

    def __len__(self) -> int:
        return len(self._entries)


@dataclass(frozen=True)
class EngineConfig:
    """Batching, overload and fault-tolerance policy knobs."""

    level: str = "e"
    max_batch_size: int = 16
    #: Max time the oldest queued request waits for the batch to fill
    #: (not at all when the network's measured arrival rate says no
    #: further row will arrive within it).
    max_linger_s: float = 0.002
    #: Per-network queue capacity; arrivals beyond it are shed.
    queue_capacity: int = 1024
    seed: int = 2020
    #: Consecutive fully-failed batches that open a network's breaker.
    breaker_failure_threshold: int = 3
    #: Initial breaker-open duration; doubles per re-open, capped below.
    breaker_backoff_s: float = 0.05
    breaker_backoff_max_s: float = 2.0
    #: Submissions admitted while half-open (one probe batch's worth).
    breaker_probe_quota: int = 4
    #: Verify weight CRCs every N dispatched batches per network
    #: (0 disables the integrity guard entirely).
    integrity_check_every: int = 50
    #: Extra attempts for a failing single-request batch (bisect leaf or
    #: batch-of-one): a transient fault recovers, a persistent poison
    #: request still fails after the budget.
    failed_single_retries: int = 1
    #: Serve the ABFT plan, whose column checksum detects silent
    #: compute corruption (then repaired and rerun) instead of serving
    #: it.
    abft: bool = False
    #: Full-batch reruns attempted after an ABFT detection before the
    #: batch settles FAILED.
    abft_max_reruns: int = 2

    def __post_init__(self):
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.max_linger_s < 0:
            raise ValueError("max_linger_s cannot be negative")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.breaker_failure_threshold < 1:
            raise ValueError("breaker_failure_threshold must be >= 1")
        if self.integrity_check_every < 0:
            raise ValueError("integrity_check_every cannot be negative")
        if self.failed_single_retries < 0:
            raise ValueError("failed_single_retries cannot be negative")
        if self.abft_max_reruns < 0:
            raise ValueError("abft_max_reruns cannot be negative")


class _TracingMetricsProxy:
    """Forwards every metrics hook, mirroring fault events into a tracer.

    Handed to the fault injector in place of the raw metrics object so
    injected faults show up as instants on the trace timeline without
    the injector or the metrics classes knowing about tracing.
    """

    def __init__(self, metrics: ServeMetrics, tracer):
        self._metrics = metrics
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._metrics, name)

    def on_fault(self, name: str, kind: str) -> None:
        self._tracer.instant(f"fault:{kind}", "faults",
                             args={"network": name})
        self._metrics.on_fault(name, kind)


#: Weight of each new inter-arrival gap in a network's smoothed gap, the
#: rate gate's estimate (the same constant TCP smooths round trips with).
_GAP_WEIGHT = 0.125
#: How long :meth:`InferenceEngine.stop` waits for the dispatcher.
_STOP_TIMEOUT_S = 30.0


class _NetworkQueue:
    """Request queue + arrival-rate state for one network.

    Guarded by the engine lock.
    """

    def __init__(self, network: Network):
        self.network = network
        self.pending: deque[Request] = deque()
        #: Per-network arrival counter (fault-injection key space).
        self.seq = 0
        #: Dispatched-batch counter (integrity-check cadence).
        self.batches = 0
        #: Last queued arrival, and the smoothed gap between queued
        #: arrivals (``None`` until two have been seen).
        self.last_arrival: float | None = None
        self.gap: float | None = None

    def arrive(self, now: float) -> None:
        if self.last_arrival is not None:
            gap = now - self.last_arrival
            self.gap = gap if self.gap is None \
                else self.gap + _GAP_WEIGHT * (gap - self.gap)
        self.last_arrival = now

    def ready_at(self, max_batch_size: int, max_linger_s: float) -> float:
        """When the head batch may go: ``-inf`` if it may go now,
        otherwise the end of the head's linger."""
        if len(self.pending) >= max_batch_size:
            return -math.inf
        linger_end = self.pending[0].submit_time + max_linger_s
        if self.gap is None or self.last_arrival + self.gap > linger_end:
            return -math.inf  # no further row expected in time
        return linger_end


class InferenceEngine:
    """Batched, fault-tolerant serving runtime for the RRM suite.

    Typical use::

        engine = InferenceEngine(scale=4)
        engine.start()
        req = engine.submit("sun2017", x_raw, timeout_s=0.1)
        y = req.result(timeout=1.0)
        engine.stop()

    Requests may be submitted before :meth:`start`; they queue up and are
    served once the dispatcher runs (tests use this for deterministic
    batch formation).  ``clock`` is injectable for tests.
    ``fault_injector`` (a :class:`repro.faults.FaultInjector`) hooks
    every execution attempt; ``None`` serves fault-free.
    """

    def __init__(self, networks=None, config: EngineConfig | None = None,
                 scale: int | None = None, metrics: ServeMetrics | None = None,
                 clock=time.monotonic, fault_injector=None, tracer=None,
                 registry: ModelRegistry | None = None):
        self.config = config or EngineConfig()
        self.networks = tuple(networks) if networks is not None \
            else suite(scale)
        self.metrics = metrics or ServeMetrics()
        self.clock = clock
        self.injector = fault_injector
        #: Optional :class:`repro.obs.SpanTracer`.  Every hook below is
        #: guarded by ``is None`` so the untraced hot path pays one test.
        self.tracer = tracer
        self._injector_metrics = self.metrics if tracer is None \
            else _TracingMetricsProxy(self.metrics, tracer)
        #: ``registry`` is injectable so a cluster worker can serve from
        #: the shared quantized-weight store instead of re-quantizing.
        self.registry = registry if registry is not None \
            else ModelRegistry(seed=self.config.seed,
                               abft=self.config.abft)
        self._queues = {net.name: _NetworkQueue(net) for net in self.networks}
        self._ids = itertools.count(1)
        #: The engine lock: guards every queue and the flags below.
        self._cond = threading.Condition(threading.Lock())
        self._running = False
        #: Set by ``stop(drain=True)``: serve the backlog, then exit.
        self._draining = False
        self._thread: threading.Thread | None = None
        #: The batch the dispatcher is executing (settled by ``stop`` if
        #: the dispatcher never comes back from it).
        self._inflight: list[Request] = []
        #: Breaker transition log: ``{"t", "network", "from", "to"}``.
        self.breaker_events: list[dict] = []
        self.breakers = {
            name: CircuitBreaker(
                failure_threshold=self.config.breaker_failure_threshold,
                backoff_s=self.config.breaker_backoff_s,
                backoff_max_s=self.config.breaker_backoff_max_s,
                probe_quota=self.config.breaker_probe_quota,
                clock=self.clock,
                on_transition=self._breaker_callback(name),
            )
            for name in self._queues
        }

    def _breaker_callback(self, name: str):
        def _on_transition(old: str, new: str) -> None:
            self.breaker_events.append(
                {"t": self.clock(), "network": name, "from": old, "to": new})
            self.metrics.on_breaker(name, old, new)
            if self.tracer is not None:
                self.tracer.instant(f"breaker:{old}->{new}", "breaker",
                                    args={"network": name})
        return _on_transition

    # ------------------------------------------------------------------
    # Lifecycle.
    def start(self) -> "InferenceEngine":
        with self._cond:
            if self._running:
                return self
            self._running = True
            self._draining = False
        for breaker in self.breakers.values():
            breaker.reset()
        self._thread = threading.Thread(target=self._dispatch,
                                        name="serve-dispatcher", daemon=True)
        self._thread.start()
        return self

    def stop(self, drain: bool = True) -> None:
        """Stop the dispatcher; with ``drain`` (default) serve the backlog
        first.

        With ``drain=False`` the backlog is *settled* as FAILED rather
        than stranded, and so is a batch the dispatcher has not come
        back from within ``_STOP_TIMEOUT_S``: every accepted request is
        guaranteed a terminal status once ``stop`` returns.
        """
        with self._cond:
            self._draining = drain and self._running
            self._running = False
            self._cond.notify()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=_STOP_TIMEOUT_S)
        with self._cond:
            self._draining = False
            leftovers = list(self._inflight) \
                if thread is not None and thread.is_alive() else []
            for queue in self._queues.values():
                leftovers.extend(queue.pending)
                queue.pending.clear()
        for request in leftovers:
            self._settle_failed(request, request.network, "engine stopped")

    def _settle_failed(self, request: Request, name: str, error: str) -> None:
        if request._done.is_set():
            return
        request._settle(RequestStatus.FAILED, error=error)
        self.metrics.on_failed(name)

    def __enter__(self) -> "InferenceEngine":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Submission.
    def submit(self, network_name: str, x_raw,
               timeout_s: float | None = None, on_settle=None,
               tag=None) -> Request:
        """Enqueue one inference; returns immediately with a request handle.

        ``x_raw`` is a raw Q3.12 input vector ``(in_size,)`` or a
        per-timestep sequence ``(T, in_size)``.  ``timeout_s`` is the
        request deadline relative to now; a request still queued past its
        deadline is rejected, never silently served late.  While the
        network's circuit breaker is open the request is rejected
        immediately (``rejected_unavailable``) without queueing.
        ``on_settle`` (optional) is called once with the request when it
        reaches a terminal status — including the synchronous rejection
        paths below, which is why it is attached at construction.
        ``tag`` (optional) is stored as ``request.cluster_rid`` *before*
        any settle path can run — the cluster worker's ``on_settle``
        reads it, and the synchronous rejections below would otherwise
        race a post-submit assignment.
        """
        queue = self._queues.get(network_name)
        if queue is None:
            raise KeyError(f"unknown network {network_name!r}; serving "
                           f"{sorted(self._queues)}")
        now = self.clock()
        request = Request(
            network=network_name,
            x_raw=np.asarray(x_raw, dtype=np.int64),
            submit_time=now,
            deadline=None if timeout_s is None else now + timeout_s,
            id=next(self._ids),
            on_settle=on_settle,
        )
        if tag is not None:
            request.cluster_rid = tag
        request.trace_id = f"{network_name}-{request.id}"
        tracer = self.tracer
        if tracer is not None:
            request._enqueue_us = tracer.now_us()
        self.metrics.on_submit(network_name)
        reject = None
        with self._cond:
            # Every arrival consumes a sequence number, accepted or not,
            # so the fault-injection key space is deterministic.
            request.seq = queue.seq
            queue.seq += 1
            if not self.breakers[network_name].allow_request():
                reject = "unavailable"
            elif len(queue.pending) >= self.config.queue_capacity:
                reject = "capacity"
            else:
                queue.arrive(now)
                queue.pending.append(request)
                depth = len(queue.pending)
                # The dispatcher already waits on this queue's head
                # linger; wake it only when that may change.
                if depth == 1 or not self._running or queue.ready_at(
                        self.config.max_batch_size,
                        self.config.max_linger_s) <= now:
                    self._cond.notify()
        if reject is not None:
            request._settle(RequestStatus.REJECTED_UNAVAILABLE
                            if reject == "unavailable"
                            else RequestStatus.REJECTED_CAPACITY)
            self.metrics.on_reject(network_name, reject)
            if tracer is not None:
                tracer.instant(f"reject:{reject}", f"{network_name}/queue",
                               args={"trace_id": request.trace_id})
            return request
        self._report_depth(network_name, depth)
        return request

    def _report_depth(self, name: str, depth: int) -> None:
        total = sum(len(q.pending) for q in self._queues.values())
        self.metrics.on_queue_depth(name, depth, total)

    # ------------------------------------------------------------------
    # Introspection (cluster workers report these in load snapshots).
    def queue_depths(self) -> dict:
        """Current pending-queue depth per network (point-in-time)."""
        return {name: len(q.pending) for name, q in self._queues.items()}

    def total_queue_depth(self) -> int:
        return sum(len(q.pending) for q in self._queues.values())

    def breaker_states(self) -> dict:
        """Current breaker state string per network."""
        return {name: breaker.state
                for name, breaker in self.breakers.items()}

    # ------------------------------------------------------------------
    # Dispatcher.
    def _next_queue(self):
        """Pick the ready queue whose head is due first.

        Returns ``(queue, None)``, or ``(None, wake)`` with the time the
        first waiting queue becomes ready (``None``: nothing queued).
        Called under the engine lock; a draining engine lingers for
        nothing.
        """
        cfg = self.config
        now = self.clock()
        best, best_due, wake = None, 0.0, None
        for queue in self._queues.values():
            if not queue.pending:
                continue
            ready_at = queue.ready_at(cfg.max_batch_size, cfg.max_linger_s) \
                if self._running else -math.inf
            if ready_at <= now:
                head = queue.pending[0]
                due = head.submit_time if head.deadline is None \
                    else head.deadline
                if best is None or due < best_due:
                    best, best_due = queue, due
            elif wake is None or ready_at < wake:
                wake = ready_at
        return best, wake

    def _dispatch(self) -> None:
        size = self.config.max_batch_size
        while True:
            with self._cond:
                while True:
                    if not (self._running or self._draining):
                        return
                    queue, wake = self._next_queue()
                    if queue is not None:
                        break
                    if not self._running:
                        return  # drained
                    self._cond.wait(None if wake is None
                                    else wake - self.clock())
                pending = queue.pending
                batch = [pending.popleft()
                         for _ in range(min(len(pending), size))]
                depth = len(pending)
                self._inflight = batch
            name = queue.network.name
            if self.tracer is not None:
                self._trace_dispatch(name, batch)
            self._report_depth(name, depth)
            try:
                self._execute(queue.network, batch,
                              dispatch_t=self.clock())
            except InjectedWorkerDeath:
                # A simulated hard death fails only its own batch.
                for request in batch:
                    self._settle_failed(request, name,
                                        "worker died mid-batch")
                self.breakers[name].record_failure()
            self._inflight = []

    def _trace_dispatch(self, name: str, batch: list[Request]) -> None:
        """Close the enqueue spans and emit the batch-assembly span."""
        tracer = self.tracer
        now = tracer.now_us()
        for request in batch:
            tracer.complete("enqueue", f"{name}/queue",
                            getattr(request, "_enqueue_us", now), now,
                            args={"trace_id": request.trace_id,
                                  "seq": request.seq})
        first = min(getattr(r, "_enqueue_us", now) for r in batch)
        tracer.complete("batch-assembly", name, first, now,
                        args={"batch_size": len(batch)})

    def _execute(self, network: Network, batch: list[Request],
                 dispatch_t: float | None = None) -> None:
        name = network.name
        now = self.clock()
        if dispatch_t is None:
            dispatch_t = now
        live: list[Request] = []
        for request in batch:
            if request.deadline is not None and now > request.deadline:
                request._settle(RequestStatus.REJECTED_TIMEOUT)
                self.metrics.on_reject(name, "timeout")
                if self.tracer is not None:
                    self.tracer.instant("reject:timeout", f"{name}/queue",
                                        args={"trace_id": request.trace_id})
            else:
                live.append(request)
        if not live:
            return
        # Everything from here on is guarded: no exception may kill the
        # dispatcher (registry build failures included — they settle the
        # batch as FAILED instead of stranding the queue forever).
        try:
            entry = self.registry.get(network, self.config.level)
        except Exception as exc:
            for request in live:
                self._settle_failed(request, name, repr(exc))
            self.metrics.on_batch_failure(name)
            self.breakers[name].record_failure()
            return
        # Malformed inputs fail their own request, never the batch or
        # the dispatcher.  Shapes are checked per request; the int16
        # range once over the stacked batch, per row only on a miss.
        valid: list[Request] = []
        rows: list[np.ndarray] = []
        for request in live:
            try:
                rows.append(self._normalize_input(network, request.x_raw))
                valid.append(request)
            except ValueError as exc:
                self._settle_failed(request, name, str(exc))
        if not valid:
            return
        inputs = np.stack(rows)
        if inputs.min() < -32768 or inputs.max() > 32767:
            wide = ((inputs < -32768) | (inputs > 32767)).any(axis=(1, 2))
            for request in itertools.compress(valid, wide):
                self._settle_failed(request, name,
                                    f"{name}: input outside the int16 range")
            valid = list(itertools.compress(valid, ~wide))
            inputs = inputs[~wide]
            if not valid:
                return
        successes = self._run_attempt(network, entry, valid, inputs,
                                      depth=0, dispatch_t=dispatch_t)
        if successes > 0:
            self.breakers[name].record_success()
        else:
            self.breakers[name].record_failure()

    def _run_attempt(self, network: Network, entry: ModelEntry,
                     requests: list[Request], inputs: np.ndarray,
                     depth: int, retries: int | None = None,
                     sdc_reruns: int | None = None,
                     dispatch_t: float | None = None) -> int:
        """One execution attempt; recurses (bisect/retry) on failure.

        Returns the number of requests settled DONE.  A failing batch of
        size > 1 splits in half and retries each side independently, so
        a poison request is isolated in O(log batch) re-executions while
        every healthy peer still completes.  A failing batch of size 1
        is retried ``failed_single_retries`` times (a transient fault
        recovers; a persistent one fails only itself).

        An ABFT checksum mismatch (``SdcDetected``) takes a different
        path: the corruption is in *compute*, not in one poison input,
        so bisecting is pointless — instead the entry is quarantined
        and repaired (re-quantize + reload, same machinery as the CRC
        guard) and the whole batch reruns, bounded by
        ``abft_max_reruns``.
        """
        from ..resilience.abft import SdcDetected
        name = network.name
        tracer = self.tracer
        if retries is None:
            retries = self.config.failed_single_retries
        if sdc_reruns is None:
            sdc_reruns = self.config.abft_max_reruns
        t_start = tracer.now_us() if tracer is not None else 0.0
        attempt_t = self.clock()
        try:
            if self.injector is not None:
                self.injector.before_execute(name, entry, requests, inputs,
                                             metrics=self._injector_metrics)
            if depth == 0:
                self._integrity_tick(network, entry)
            outputs = entry.model.infer(inputs)
        except SdcDetected as exc:
            if tracer is not None:
                tracer.complete("execute", name, t_start,
                                args={"batch": len(requests),
                                      "depth": depth, "ok": False,
                                      "sdc": True})
                tracer.instant("sdc-detected", name,
                               args={"rows": list(exc.rows),
                                     "batch": len(requests)})
            exc.network = name
            self.metrics.on_sdc_detected(name, max(1, len(exc.rows)))
            self.metrics.on_batch_failure(name)
            # Quarantine + repair: reload pristine quantized weights so
            # a corrupted-parameter cause is cleared; a transient
            # compute upset is gone on rerun either way.
            self.registry.repair(entry)
            self.metrics.on_sdc_repair(name)
            if sdc_reruns > 0:
                self.metrics.on_sdc_rerun(name)
                return self._run_attempt(network, entry, requests, inputs,
                                         depth, retries=retries,
                                         sdc_reruns=sdc_reruns - 1,
                                         dispatch_t=dispatch_t)
            for request in requests:
                self._settle_failed(request, name, repr(exc))
            return 0
        except Exception as exc:
            # InjectedWorkerDeath is a BaseException and deliberately
            # escapes this guard: the dispatcher fails the whole batch.
            if tracer is not None:
                tracer.complete("execute", name, t_start,
                                args={"batch": len(requests),
                                      "depth": depth, "ok": False})
            self.metrics.on_batch_failure(name)
            if depth == 0:
                # A batch failure is a cheap moment to re-verify the
                # weights: crashes and memory corruption travel together.
                self._integrity_check(network, entry)
            if len(requests) == 1:
                if retries > 0:
                    self.metrics.on_retry(name)
                    if tracer is not None:
                        tracer.instant(
                            "retry", name,
                            args={"trace_id": requests[0].trace_id})
                    return self._run_attempt(network, entry, requests,
                                             inputs, depth + 1, retries - 1,
                                             dispatch_t=dispatch_t)
                self._settle_failed(requests[0], name, repr(exc))
                if tracer is not None:
                    tracer.instant("respond", name,
                                   args={"trace_id": requests[0].trace_id,
                                         "status": "failed"})
                return 0
            self.metrics.on_bisect(name)
            if tracer is not None:
                tracer.instant("bisect", name,
                               args={"batch": len(requests), "depth": depth})
            mid = len(requests) // 2
            return (self._run_attempt(network, entry, requests[:mid],
                                      inputs[:mid], depth + 1,
                                      dispatch_t=dispatch_t)
                    + self._run_attempt(network, entry, requests[mid:],
                                        inputs[mid:], depth + 1,
                                        dispatch_t=dispatch_t))
        done = self.clock()
        latencies = []
        for row, request in enumerate(requests):
            latency = done - request.submit_time
            request._settle(RequestStatus.DONE, output=outputs[row],
                            latency=latency, batch_size=len(requests))
            latencies.append(latency)
        self.metrics.on_batch(name, len(requests), latencies,
                              entry.cycles_per_request)
        # Stage decomposition: queue wait is per request; assembly and
        # execute are attempt-wide.  Retries/bisects charge only the
        # winning attempt's execute window.  Clamped at zero because
        # the histogram rejects negatives and a fake bench clock may
        # not be strictly monotonic across threads.
        if dispatch_t is not None:
            self.metrics.on_stages(
                name,
                [max(0.0, dispatch_t - r.submit_time) for r in requests],
                max(0.0, attempt_t - dispatch_t),
                max(0.0, done - attempt_t))
        if tracer is not None:
            tracer.complete("execute", name, t_start,
                            args={"batch": len(requests), "depth": depth,
                                  "ok": True})
            for request in requests:
                tracer.instant("respond", name,
                               args={"trace_id": request.trace_id,
                                     "status": "done"})
        return len(requests)

    # ------------------------------------------------------------------
    # Weight integrity.
    def _integrity_tick(self, network: Network, entry: ModelEntry) -> None:
        every = self.config.integrity_check_every
        if not every:
            return
        queue = self._queues[network.name]
        queue.batches += 1
        if queue.batches % every == 0:
            self._integrity_check(network, entry)

    def _integrity_check(self, network: Network, entry: ModelEntry) -> None:
        if not self.config.integrity_check_every:
            return
        name = network.name
        self.metrics.on_integrity_check(name)
        mismatches = self.registry.verify(entry)
        if mismatches:
            self.metrics.on_integrity_violation(name, len(mismatches))
            self.registry.repair(entry)
            self.metrics.on_integrity_repair(name)

    @staticmethod
    def _normalize_input(network: Network, x: np.ndarray) -> np.ndarray:
        """Broadcast a single vector to the network's timestep count."""
        if x.ndim == 1:
            x = np.repeat(x[None, :], network.timesteps, axis=0)
        if x.shape != (network.timesteps, network.input_size):
            raise ValueError(
                f"{network.name}: input shape {x.shape} != "
                f"({network.timesteps}, {network.input_size})")
        return x
