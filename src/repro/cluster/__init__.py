"""repro.cluster — the process-sharded serving cluster.

Scales the single-process :class:`~repro.serve.engine.InferenceEngine`
out to a supervised fleet of worker processes behind one deterministic
front end:

* :mod:`repro.cluster.store` — quantize the suite once, publish the
  Q3.12 weights through one ``multiprocessing.shared_memory`` segment,
  serve every replica from read-only views of it.
* :mod:`repro.cluster.router` — hash sharding by network,
  join-shortest-queue replica balancing, queue-depth admission control
  with immediate shedding, and in-flight redispatch when a replica
  dies.
* :mod:`repro.cluster.worker` — the worker-process main loop: one
  engine replica per process, coalesced response batches over a
  shared queue.
* :mod:`repro.cluster.autoscaler` — a pure hysteresis policy scaling
  each shard from the router's queue-depth gauges.
* :mod:`repro.cluster.cluster` — lifecycle: spawn, supervise, fail
  over, autoscale, drain.
* :mod:`repro.cluster.metrics` / :mod:`repro.cluster.trace` — fleet
  roll-ups: one metrics registry and one Perfetto timeline across
  router and all workers.

``repro cluster-bench`` (the worker-count scaling curve) and ``repro
chaos-bench --cluster`` (scripted faults plus SIGKILL worker deaths)
drive this package through the one bench harness, :mod:`repro.bench`.
See ``docs/SERVING.md`` for the architecture walk-through.
"""

from .autoscaler import AutoscalerConfig, AutoscalerPolicy, ScaleDecision
from .cluster import ClusterConfig, ServingCluster, worker_layout
from .metrics import ClusterMetrics
from .router import ClusterRequest, ReplicaHandle, Router, ShardPlan
from .store import SharedWeightStore, StoreBackedRegistry
from .trace import dump_merged_trace, merge_traces
from .worker import WorkerSpec, worker_main

__all__ = [
    "AutoscalerConfig", "AutoscalerPolicy", "ScaleDecision",
    "ClusterConfig", "ServingCluster", "ClusterMetrics",
    "ClusterRequest", "ReplicaHandle", "Router", "ShardPlan",
    "SharedWeightStore", "StoreBackedRegistry",
    "WorkerSpec", "worker_main", "merge_traces", "dump_merged_trace",
    "worker_layout",
]
