"""Serving metrics: counters, gauges, latency histograms, cycle estimates.

The primitive machinery (``Counter``/``Gauge``/``LatencyHistogram``)
lives in :mod:`repro.obs.metrics`; this module re-exports it unchanged
and keeps the serving-specific aggregate, :class:`ServeMetrics` — the
engine's full metric set (global and per-network) dumped as a
JSON-ready dict.  Every engine pass of the benches writes that dict
into its ``BENCH_*.json`` (``passes.<label>.metrics``), so the perf
trajectory is trackable across PRs.

:meth:`ServeMetrics.register` additionally exposes every value through
the unified metrics registry, so one ``REGISTRY.prometheus_text()``
scrape covers serving, faults and the ISS engines together.

Estimated *simulated* cycles per request come from the static
``network_trace`` model (builder counts x timesteps), i.e. what the
request would have cost on the extended core — the bridge between the
serving layer and the paper's cycle accounting.
"""

from __future__ import annotations

import json
import threading

from ..obs.metrics import Counter, Gauge, LatencyHistogram

__all__ = ["Counter", "Gauge", "LatencyHistogram", "ServeMetrics", "STAGES"]

#: Monotonic per-network counters exposed through the registry.
_COUNTER_FIELDS = (
    "submitted", "completed", "rejected_timeout", "rejected_capacity",
    "rejected_unavailable", "failed", "batches", "batch_failures",
    "bisects", "retries", "integrity_checks", "integrity_violations",
    "integrity_repairs", "sdc_detections", "sdc_repairs", "sdc_reruns",
    "faults_injected", "breaker_opens", "breaker_closes", "sim_cycles",
)

#: Per-request latency decomposition stages (histogram per stage).
#: ``queue_wait`` is submit -> batch dispatch, ``batch_assembly`` is
#: dispatch -> execution start (deadline checks, input normalization,
#: plan-cache lookup), ``execute`` is the model inference itself.
STAGES = ("queue_wait", "batch_assembly", "execute")


class _NetworkMetrics:
    """Per-network slice of the engine metrics."""

    def __init__(self):
        self.submitted = Counter()
        self.completed = Counter()
        self.rejected_timeout = Counter()
        self.rejected_capacity = Counter()
        self.rejected_unavailable = Counter()
        self.failed = Counter()
        self.batches = Counter()
        self.batch_failures = Counter()
        self.bisects = Counter()
        self.retries = Counter()
        self.integrity_checks = Counter()
        self.integrity_violations = Counter()
        self.integrity_repairs = Counter()
        self.sdc_detections = Counter()
        self.sdc_repairs = Counter()
        self.sdc_reruns = Counter()
        self.faults_injected = Counter()
        self.breaker_opens = Counter()
        self.breaker_closes = Counter()
        #: Point-in-time breaker state (plain str write, GIL-safe).
        self.breaker_state = "closed"
        self.queue_depth = Gauge()
        self.latency = LatencyHistogram()
        #: Written per network only; ``ServeMetrics.total``'s copy
        #: stays empty (totals merge at read time, see stage_totals).
        self.stages = {stage: LatencyHistogram() for stage in STAGES}
        self.sim_cycles = Counter()

    def to_dict(self) -> dict:
        return {
            "submitted": self.submitted.value,
            "completed": self.completed.value,
            "rejected_timeout": self.rejected_timeout.value,
            "rejected_capacity": self.rejected_capacity.value,
            "rejected_unavailable": self.rejected_unavailable.value,
            "failed": self.failed.value,
            "batches": self.batches.value,
            "batch_failures": self.batch_failures.value,
            "bisects": self.bisects.value,
            "retries": self.retries.value,
            "integrity_checks": self.integrity_checks.value,
            "integrity_violations": self.integrity_violations.value,
            "integrity_repairs": self.integrity_repairs.value,
            "sdc_detections": self.sdc_detections.value,
            "sdc_repairs": self.sdc_repairs.value,
            "sdc_reruns": self.sdc_reruns.value,
            "faults_injected": self.faults_injected.value,
            "breaker": {
                "state": self.breaker_state,
                "opens": self.breaker_opens.value,
                "closes": self.breaker_closes.value,
            },
            "queue_depth": self.queue_depth.value,
            "queue_depth_max": self.queue_depth.max,
            "sim_cycles": self.sim_cycles.value,
            "latency": self.latency.summary(),
            "stages": {stage: hist.summary()
                       for stage, hist in self.stages.items()},
        }


class ServeMetrics:
    """The engine's full metric set: global plus per-network."""

    def __init__(self):
        self._lock = threading.Lock()
        self.total = _NetworkMetrics()
        self.per_network: dict[str, _NetworkMetrics] = {}
        self.batch_sizes: dict[int, int] = {}
        #: Injected-fault counts by fault kind (engine-wide).
        self.fault_counts: dict[str, int] = {}

    def network(self, name: str) -> _NetworkMetrics:
        with self._lock:
            if name not in self.per_network:
                self.per_network[name] = _NetworkMetrics()
            return self.per_network[name]

    # ------------------------------------------------------------------
    # Event hooks called by the engine.
    def on_submit(self, name: str) -> None:
        self.total.submitted.inc()
        self.network(name).submitted.inc()

    def on_reject(self, name: str, reason: str) -> None:
        counter = {"timeout": "rejected_timeout",
                   "capacity": "rejected_capacity",
                   "unavailable": "rejected_unavailable"}[reason]
        getattr(self.total, counter).inc()
        getattr(self.network(name), counter).inc()

    def on_failed(self, name: str) -> None:
        self.total.failed.inc()
        self.network(name).failed.inc()

    def on_batch_failure(self, name: str) -> None:
        """One execution attempt (top-level or bisect half) failed."""
        self.total.batch_failures.inc()
        self.network(name).batch_failures.inc()

    def on_bisect(self, name: str) -> None:
        """A failed batch was split for retry."""
        self.total.bisects.inc()
        self.network(name).bisects.inc()

    def on_retry(self, name: str) -> None:
        """A failed single-request batch was re-attempted."""
        self.total.retries.inc()
        self.network(name).retries.inc()

    def on_integrity_check(self, name: str) -> None:
        self.total.integrity_checks.inc()
        self.network(name).integrity_checks.inc()

    def on_integrity_violation(self, name: str, n_arrays: int = 1) -> None:
        self.total.integrity_violations.inc(n_arrays)
        self.network(name).integrity_violations.inc(n_arrays)

    def on_integrity_repair(self, name: str) -> None:
        self.total.integrity_repairs.inc()
        self.network(name).integrity_repairs.inc()

    def on_sdc_detected(self, name: str, n_rows: int = 1) -> None:
        """ABFT column checksum caught silent compute corruption."""
        self.total.sdc_detections.inc(n_rows)
        self.network(name).sdc_detections.inc(n_rows)

    def on_sdc_repair(self, name: str) -> None:
        """A quarantined entry was repaired after an SDC detection."""
        self.total.sdc_repairs.inc()
        self.network(name).sdc_repairs.inc()

    def on_sdc_rerun(self, name: str) -> None:
        """A batch was re-executed after SDC repair."""
        self.total.sdc_reruns.inc()
        self.network(name).sdc_reruns.inc()

    def on_fault(self, name: str, kind: str) -> None:
        """The fault injector fired one fault event."""
        self.total.faults_injected.inc()
        self.network(name).faults_injected.inc()
        with self._lock:
            self.fault_counts[kind] = self.fault_counts.get(kind, 0) + 1

    def on_breaker(self, name: str, old_state: str, new_state: str) -> None:
        """A network's circuit breaker changed state."""
        net = self.network(name)
        net.breaker_state = new_state
        if new_state == "open":
            self.total.breaker_opens.inc()
            net.breaker_opens.inc()
        elif new_state == "closed" and old_state != "closed":
            self.total.breaker_closes.inc()
            net.breaker_closes.inc()

    def on_batch(self, name: str, batch_size: int, latencies,
                 sim_cycles_per_request: int) -> None:
        net = self.network(name)
        self.total.batches.inc()
        net.batches.inc()
        with self._lock:
            self.batch_sizes[batch_size] = \
                self.batch_sizes.get(batch_size, 0) + 1
        for latency in latencies:
            self.total.completed.inc()
            net.completed.inc()
            self.total.latency.record(latency)
            net.latency.record(latency)
        cycles = sim_cycles_per_request * len(latencies)
        self.total.sim_cycles.inc(cycles)
        net.sim_cycles.inc(cycles)

    def on_stages(self, name: str, queue_waits, assembly_s: float,
                  execute_s: float) -> None:
        """Latency decomposition for one settled batch.

        ``queue_waits`` is per-request (each request queued at its own
        submit time); assembly and execute are batch-wide, recorded once
        per request so stage counts line up with ``completed``.

        Only the per-network histograms are written here — one
        ``queue_wait`` record per request plus two batch-wide
        ``record_n`` calls, so the hot-path cost amortizes to
        ``1 + 2/batch_size`` histogram updates per request.  The
        engine-wide view is merged from them at read time
        (:meth:`stage_totals`), not double-recorded.
        """
        stages = self.network(name).stages
        queue_hist = stages["queue_wait"]
        for queue_wait in queue_waits:
            queue_hist.record(queue_wait)
        n = len(queue_waits)
        stages["batch_assembly"].record_n(assembly_s, n)
        stages["execute"].record_n(execute_s, n)

    def stage_totals(self) -> dict:
        """Engine-wide stage decomposition summaries, merged bucket-
        exactly from the per-network histograms at read time."""
        with self._lock:
            nets = list(self.per_network.values())
        return {stage: LatencyHistogram.merged(
                    [net.stages[stage] for net in nets]).summary()
                for stage in STAGES}

    def on_queue_depth(self, name: str, depth: int, total_depth: int) -> None:
        self.network(name).queue_depth.set(depth)
        self.total.queue_depth.set(total_depth)

    # ------------------------------------------------------------------
    @property
    def mean_batch_size(self) -> float:
        with self._lock:
            total = sum(size * n for size, n in self.batch_sizes.items())
            count = sum(self.batch_sizes.values())
        return total / count if count else 0.0

    def to_dict(self) -> dict:
        with self._lock:
            batch_sizes = {str(k): v
                           for k, v in sorted(self.batch_sizes.items())}
            fault_counts = dict(sorted(self.fault_counts.items()))
        total = self.total.to_dict()
        # total's own stage histograms are never written (on_stages is
        # per-network only); present the read-time merge instead.
        total["stages"] = self.stage_totals()
        return {
            "total": total,
            "mean_batch_size": self.mean_batch_size,
            "batch_size_distribution": batch_sizes,
            "faults_by_kind": fault_counts,
            "per_network": {name: net.to_dict()
                            for name, net in sorted(self.per_network.items())},
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    # ------------------------------------------------------------------
    # Unified-registry exposition (see repro.obs.metrics).
    def collect(self) -> list:
        """Registry-collector snapshot: ``(name, kind, help, samples)``."""
        with self._lock:
            nets = sorted(self.per_network.items())
            fault_counts = sorted(self.fault_counts.items())
            batch_sizes = sorted(self.batch_sizes.items())
        rows = []
        for field in _COUNTER_FIELDS:
            samples = [({"network": name}, getattr(net, field).value)
                       for name, net in nets]
            rows.append((f"serve_{field}_total", "counter",
                         f"Serve {field.replace('_', ' ')} (per network).",
                         samples))
        rows.append(("serve_queue_depth", "gauge",
                     "Pending requests per network queue.",
                     [({"network": name}, net.queue_depth.value)
                      for name, net in nets]))
        rows.append(("serve_breaker_open", "gauge",
                     "1 while the network's circuit breaker is not closed.",
                     [({"network": name},
                       0 if net.breaker_state == "closed" else 1)
                      for name, net in nets]))
        latency_samples = []
        for name, net in nets:
            hist = net.latency
            for q in (0.5, 0.95, 0.99):
                value = hist.percentile(q)
                if value is not None:
                    latency_samples.append(
                        ({"network": name, "quantile": str(q)}, value))
            latency_samples.append(({"network": name}, hist.sum, "_sum"))
            latency_samples.append(({"network": name}, hist.count,
                                    "_count"))
        rows.append(("serve_request_latency_seconds", "summary",
                     "End-to-end request latency.", latency_samples))
        stage_samples = []
        for name, net in nets:
            for stage in STAGES:
                hist = net.stages[stage]
                base = {"network": name, "stage": stage}
                for q in (0.5, 0.95, 0.99):
                    value = hist.percentile(q)
                    if value is not None:
                        stage_samples.append(
                            ({**base, "quantile": str(q)}, value))
                stage_samples.append((base, hist.sum, "_sum"))
                stage_samples.append((base, hist.count, "_count"))
        rows.append(("serve_stage_latency_seconds", "summary",
                     "Request latency decomposition: queue_wait vs "
                     "batch_assembly vs execute.", stage_samples))
        rows.append(("serve_faults_injected_by_kind_total", "counter",
                     "Injected fault events by kind (engine-wide).",
                     [({"kind": kind}, count)
                      for kind, count in fault_counts]))
        rows.append(("serve_batches_by_size_total", "counter",
                     "Dispatched batches by batch size.",
                     [({"size": str(size)}, count)
                      for size, count in batch_sizes]))
        return rows

    def register(self, registry=None) -> "ServeMetrics":
        """Expose this metric set on a registry (default the global one)."""
        if registry is None:
            from ..obs.metrics import REGISTRY
            registry = REGISTRY
        registry.register_collector(self.collect)
        return self
