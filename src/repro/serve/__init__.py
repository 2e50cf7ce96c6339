"""Batched RRM inference runtime (the serving layer of the stack).

The rest of the repository answers "how fast is one inference on the
extended core"; this package answers "how do we serve many of them" —
and "how do we keep serving them when the substrate misbehaves".  It
layers a production-shaped runtime on top of the bit-exact golden model:

* :mod:`repro.serve.aot` — :class:`~repro.serve.aot.AotBatchedModel`,
  the batched model: each network compiled once into a fused numpy
  callable that runs dense/LSTM/conv layers over a leading batch axis
  with the exact Q3.12 saturation semantics of
  :class:`repro.nn.network.QuantModel` (bit-identical per row), with
  the ABFT column checksum as a compile flag.
* :mod:`repro.serve.engine` — :class:`InferenceEngine`, per-network
  request queues served by one dispatcher thread (due-time order
  across networks; dynamic batching by max batch size and a max linger
  that the measured arrival rate can skip), a cached plan/model
  registry keyed on ``(network, level)``, per-request deadlines with
  timeout rejection and load shedding, and the fault-tolerance layer:
  batch-bisect retry, worker deaths confined to their own batch and
  CRC32 weight-integrity guards with automatic repair.
* :mod:`repro.serve.breaker` — :class:`CircuitBreaker`, the per-network
  closed/open/half-open state machine with exponential backoff that
  fast-fails submissions to a broken network
  (``REJECTED_UNAVAILABLE``).
* :mod:`repro.serve.metrics` — counters, gauges and latency histograms
  (p50/p95/p99), breaker-state gauges, fault/retry/repair counters,
  plus estimated simulated cycles per request from the static
  ``network_trace`` model; dumpable as JSON.
* :mod:`repro.serve.loadgen` — the traffic data: reproducible request
  streams (uniform or multi-tenant mixes), arrival shapes (Poisson,
  diurnal, Markov-modulated bursty) and the open-loop submission loop.
* :mod:`repro.serve.shutdown` — :class:`GracefulShutdown`, mapping the
  first SIGINT/SIGTERM to a drain event so interrupted bench runs
  still write partial results.

Scaling this engine beyond one process — sharding, replica balancing,
worker supervision and autoscaling — lives in :mod:`repro.cluster`.
The ``serve-bench`` and ``chaos-bench`` commands drive the engine
through the one bench harness, :mod:`repro.bench`.
"""

from .aot import AotBatchedModel
from .breaker import BreakerState, CircuitBreaker
from .engine import (EngineConfig, InferenceEngine, ModelRegistry, Request,
                     RequestStatus)
from .loadgen import (LoadGenerator, TrafficModel, make_request_stream,
                      make_tenant_stream)
from .metrics import Counter, Gauge, LatencyHistogram, ServeMetrics
from .shutdown import GracefulShutdown

__all__ = [
    "AotBatchedModel",
    "BreakerState",
    "CircuitBreaker",
    "EngineConfig",
    "InferenceEngine",
    "ModelRegistry",
    "Request",
    "RequestStatus",
    "LoadGenerator",
    "TrafficModel",
    "make_request_stream",
    "make_tenant_stream",
    "GracefulShutdown",
    "Counter",
    "Gauge",
    "LatencyHistogram",
    "ServeMetrics",
]
