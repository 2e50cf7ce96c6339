"""One workload run, in the fresh interpreter that ``run.py`` starts.

Usage (normally only through ``run.py``)::

    python3 rrmbench/workload.py --workload serve-engine --seed 1 \
        --seconds 15 --t-launch <monotonic> [--trace-out PATH]
        [--setup-only] [--corrupt]

The process sets up the workload, computes the expected outputs (the
oracle, kept out of ``setup_s``), runs the timed phases, checks every
output it counts, tears everything down and prints human-readable
lines followed by one JSON line with its figures.  The program is
driven only through public functions of ``repro.serve.engine``,
``repro.serve.aot``, ``repro.cluster``, ``repro.kernels``,
``repro.isa`` and ``repro.core``; ``repro.nn`` and ``repro.perfmodel``
supply the oracle.
"""

from __future__ import annotations

import argparse
import collections
import importlib
import json
import os
import resource
import sys
import threading
import time

import numpy as np

import measure

#: Paper scale, passed explicitly: ``REPRO_SCALE`` is never read.
SCALE = 1
#: Level the serving stack runs (``EngineConfig`` default) and the
#: level ``sim_cycles`` reports.
SERVE_LEVEL = "e"
ISS_LEVELS = ("a", "e")
#: Inputs per network in the seeded pool.
POOL = 64
#: Open-loop offered rates (req/s): constants, never derived from a
#: measurement taken during the run.  The engine's p50 over ten runs
#: spread 0.24-0.33 of its median at 2000 req/s and 0.29 at 1000, past
#: its bound, and 0.07 at 200, where nearly every batch is one row and
#: the 2 ms linger dominates.
ENGINE_RATE = 200.0
CLUSTER_RATE = 1000.0
#: Closed loop: requests kept outstanding per network, and the longest
#: the client sleeps before looking for a settled request again.
DEPTH = 16
POLL_S = 0.002
OFFLINE_BATCH = 64
#: The cluster: one shard of two worker processes.
CLUSTER_SHARDS = 1
CLUSTER_REPLICAS = 2
#: Bytes per element of the compiled plan's operands (float64 weights,
#: int64 activations), for ``aot.gbytes_per_s``.
OPERAND_BYTES = 8
#: A traced run prints every per-layer metric, but each workload's path
#: reaches only some layers.  After the measured workload, the traced
#: interpreter runs each other scored workload briefly (its companion)
#: and keeps the per-layer metrics the measured one did not produce.
#: Seconds per companion: the engine's open loop needs over 1000
#: arrivals for ``engine.p99_ms``; one ISS round is the shortest run.
COMPANIONS = {"serve-engine": 11.0, "offline-batch": 2.0, "iss-suite": 0.0}

clock = time.monotonic


class CheckFailed(Exception):
    pass


class Workload:
    """Set-up, oracle, timed phases and checks shared by all workloads."""

    name = ""
    #: Levels the oracle predicts cycles for.
    levels = (SERVE_LEVEL,)
    #: Run the interpreter on one CPU (set before any thread starts).
    one_cpu = False

    def __init__(self, seed: int, corrupt: bool, recorder=None):
        from repro.rrm.networks import suite
        self.networks = suite(SCALE)
        self.names = [net.name for net in self.networks]
        self.seed = seed
        self.corrupt = corrupt
        #: A :class:`measure.SpanRecorder` in traced runs.
        self.recorder = recorder
        #: Traced runs: durations of the calls set-up made into each
        #: layer, from :meth:`Probes.take`.
        self.setup_calls: dict = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.e2e: dict = {}
        self.layer: dict = {}
        self.lines: list = []

    # -- helpers -------------------------------------------------------
    def weights(self, network) -> list:
        """Quantized parameters with the program's default seed."""
        from repro.nn.network import init_params, quantize_params
        from repro.serve.engine import EngineConfig
        rng = np.random.default_rng(EngineConfig().seed)
        return quantize_params(init_params(network, rng))

    def make_oracle(self, shared=None) -> None:
        """Seeded input pool and its expected outputs from the scalar
        ``QuantModel`` (taken from ``shared``, a workload with the same
        seed, when given); plus the static cycle/instret prediction."""
        from repro.nn.network import QuantModel
        from repro.perfmodel import predict_network_cycles
        self.predicted = {
            level: [predict_network_cycles(net, level)
                    for net in self.networks]
            for level in self.levels}
        if shared is not None:
            self.pool, self.expected = shared.pool, shared.expected
            return
        self.pool = []
        self.expected = []
        for index, net in enumerate(self.networks):
            rng = np.random.default_rng([self.seed, index])
            xs = rng.integers(-4096, 4096, size=(POOL, net.timesteps,
                                                 net.input_size))
            golden = QuantModel(net, self.weights(net))
            outs = []
            for x in xs:
                golden.reset()
                outs.append(golden.forward(x))
            self.pool.append(xs)
            self.expected.append(np.stack(outs))

    def error(self, text: str) -> None:
        self.errors.append(text)

    def check_row(self, k: int, index: int, out, what: str) -> None:
        """Bit-exact vs ``QuantModel``, right size, within int16."""
        net = self.networks[k]
        if self.corrupt and out is not None:
            # Self-check: the benchmark itself makes one result wrong.
            out = np.array(out, copy=True)
            out.flat[0] += 1
            self.corrupt = False
        if out is None or np.shape(out) != (net.output_size,):
            self.error(f"{what} {net.name}[{index}]: output shape "
                       f"{np.shape(out)} != ({net.output_size},)")
        elif out.min() < -32768 or out.max() > 32767:
            self.error(f"{what} {net.name}[{index}]: output outside int16")
        elif not np.array_equal(out, self.expected[k][index]):
            self.error(f"{what} {net.name}[{index}]: output differs from "
                       f"QuantModel")

    def put(self, table: dict, name: str, value, unit: str,
            note: str = "") -> None:
        table[name] = {"value": float(value), "unit": unit}
        self.lines.append(f"  {name:<28} {float(value):>14.6g} {unit:<9}"
                          f"{note}")

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def build_metrics(self) -> None:
        """Traced runs: AOT builds and the code generation they (or the
        engine's ``plan_for``) did inside set-up."""
        build_s = self.setup_calls["build"]
        codegen_s = self.setup_calls["codegen"]
        self.put(self.layer, "aot.build_ms", sum(build_s) * 1e3, "ms",
                 f"{len(build_s)} builds")
        self.put(self.layer, "kernels.codegen_s", sum(codegen_s), "s",
                 f"{len(codegen_s)} plans")

    # -- interface -----------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def measure(self, seconds: float) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass


def proc_status(pid: int, key: str) -> int:
    """A ``kB``/count field of ``/proc/<pid>/status`` (0 if gone)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith(key + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Probes:
    """Traced runs: a span and a duration for every call set-up makes
    into the public builders of each layer, installed once per
    interpreter so a workload and its companions share them."""

    def __init__(self, recorder):
        import repro.kernels.runner as runner
        import repro.serve.aot
        # ``repro.rrm`` re-exports a ``suite`` function over the module.
        rrm_suite = importlib.import_module("repro.rrm.suite")
        self.calls = {"build": [], "codegen": [], "assemble": [], "cpu": []}
        for owner, attr, span, sink in (
                (repro.serve.aot, "build_serving_model",
                 "aot.build_serving_model", "build"),
                (rrm_suite, "NetworkPlan", "kernels.NetworkPlan", "codegen"),
                (runner, "NetworkPlan", "kernels.NetworkPlan", "codegen"),
                (runner, "assemble", "isa.assemble", "assemble"),
                (runner, "Cpu", "core.Cpu", "cpu")):
            setattr(owner, attr, recorder.timed(span, getattr(owner, attr),
                                                self.calls[sink]))

    def take(self) -> dict:
        """Durations recorded since the last call, by builder."""
        taken = {name: list(sink) for name, sink in self.calls.items()}
        for sink in self.calls.values():
            sink.clear()
        return taken


def set_up(workload: Workload, probes) -> None:
    """``workload.setup()``, keeping the layer calls it made."""
    if probes is not None:
        probes.take()
    workload.setup()
    if probes is not None:
        workload.setup_calls = probes.take()


# ----------------------------------------------------------------------
# Serving: engine and cluster share the open and closed loops.
class _CallProbe:
    """Traced engine runs: spans around every ``infer`` call of the
    served models, linked to the requests each call settled."""

    def __init__(self, recorder):
        self.recorder = recorder
        self.calls: list = []
        self.served_by: dict = {}
        #: Link requests to calls only while the open loop runs (that is
        #: where ``engine.queue_ms`` comes from); a map holding every
        #: closed-loop request would tax the run it measures.
        self.linking = False
        self._local = threading.local()
        self._lock = threading.Lock()

    def wrap(self, model):
        probe = self

        class TimedModel:
            def __getattr__(self, attr):
                return getattr(model, attr)

            def infer(self, x_batch):
                t0 = clock()
                c0 = time.thread_time()
                out = model.infer(x_batch)
                cpu = time.thread_time() - c0
                t1 = clock()
                span = probe.recorder.add(
                    f"aot.infer {model.network.name}", t0, t1,
                    args={"rows": len(x_batch)})
                with probe._lock:
                    probe.calls.append((t0, t1, cpu, len(x_batch)))
                probe._local.last = (span, t0)
                return out

        return TimedModel()

    def on_settle(self, request) -> None:
        last = getattr(self._local, "last", None)
        if last is not None:
            self.served_by[request.id] = last

    def window(self, start: float, end: float) -> list:
        return [c for c in self.calls if start <= c[0] < end]


class ServeWorkload(Workload):
    rate = 0.0
    #: A :class:`_CallProbe` in traced engine runs.
    probe = None

    def submit(self, k: int, x):
        raise NotImplementedError

    def served_cycles(self) -> dict:
        """``{network: cycles per request}`` as the serving stack
        reports it (its per-network metrics)."""
        raise NotImplementedError

    def warm(self, copies: int) -> None:
        """Serve every network once per replica (zeros input)."""
        pending = []
        for k, net in enumerate(self.networks):
            x = np.zeros((net.timesteps, net.input_size), dtype=np.int64)
            pending.extend(self.submit(k, x) for _ in range(copies))
        for request in pending:
            if not request.wait(60) or not request.ok:
                raise CheckFailed(f"warm-up request {request.status}")

    # -- phases --------------------------------------------------------
    def open_phase(self, seconds: float) -> dict:
        schedule = measure.open_loop_schedule(
            self.seed, self.rate, seconds, len(self.networks), POOL)
        t0 = clock() + 0.01
        if self.probe is not None:
            self.probe.linking = True
        records = measure.drive_open_loop(
            schedule, lambda k, i: self.submit(k, self.pool[k][i]), t0)
        latencies, done = [], []
        for (due, _, _, request), (_, k, index) in zip(records, schedule):
            self.attempted += 1
            if not request.wait(60):
                self.error(f"open-loop {self.names[k]} never settled")
                continue
            self.check_settled_once(request)
            if not request.ok:
                self.failed += 1
                continue
            self.check_row(k, index, request.output, "served")
            latencies.append(request.settled_at - due)
            done.append((due, request))
        if self.probe is not None:
            self.probe.linking = False
        return {"t0": t0, "end": clock(), "records": records,
                "latencies": latencies, "done": done,
                "late": measure.lateness(records)}

    def closed_phase(self, seconds: float) -> dict:
        """Keep DEPTH requests per network outstanding for ``seconds``.

        Only counts are kept per request, so memory does not grow with
        throughput; requests still outstanding at the end are drained,
        checked and counted as attempted, and only those settled inside
        the window count toward throughput.
        """
        rng = np.random.default_rng([self.seed, 0xC105])
        order = [rng.permutation(POOL) for _ in self.networks]
        sent = [0] * len(self.networks)
        outstanding = [collections.deque() for _ in self.networks]
        in_window = [0] * len(self.networks)
        submit_s, batch_sizes = [], []
        traced = self.recorder is not None

        def send(k):
            index = int(order[k][sent[k] % POOL])
            sent[k] += 1
            start = clock()
            request = self.submit(k, self.pool[k][index])
            if traced:
                submit_s.append(clock() - start)
            outstanding[k].append((request, index, start))

        def harvest(k, request, index):
            self.attempted += 1
            self.check_settled_once(request)
            if not request.ok:
                self.failed += 1
                return
            self.check_row(k, index, request.output, "served")
            if request.settled_at <= t_end:
                in_window[k] += 1
            batch_sizes.append(request.batch_size)

        t0 = clock()
        t_end = t0 + seconds
        cpu0 = time.process_time()
        threads = None
        for k in range(len(self.networks)):
            for _ in range(DEPTH):
                send(k)
        while True:
            now = clock()
            if now >= t_end:
                break
            if threads is None and now >= t0 + seconds / 2:
                threads = self.live_threads()
            progressed = False
            for k, queue in enumerate(outstanding):
                while queue and queue[0][0].wait(0):
                    request, index, _ = queue.popleft()
                    harvest(k, request, index)
                    send(k)
                    progressed = True
            if not progressed:
                oldest = min((q[0] for q in outstanding if q),
                             key=lambda entry: entry[2])
                oldest[0].wait(POLL_S)
        cpu = time.process_time() - cpu0
        for k, queue in enumerate(outstanding):
            for request, index, _ in queue:
                if not request.wait(60):
                    self.attempted += 1
                    self.error(f"closed-loop {self.names[k]} never "
                               f"settled")
                    continue
                harvest(k, request, index)
        return {"t0": t0, "t_end": t_end, "cpu": cpu, "threads": threads,
                "in_window": in_window, "batch_sizes": batch_sizes,
                "submit_s": submit_s}

    def live_threads(self) -> int:
        return threading.active_count()

    def measure(self, seconds: float) -> None:
        opened = self.open_phase(seconds / 2)
        closed = self.closed_phase(seconds / 2)
        window = closed["t_end"] - closed["t0"]
        completed = sum(closed["in_window"])
        instret = self.predicted[SERVE_LEVEL]
        cycles = self.served_cycles()
        for k, net in enumerate(self.networks):
            want = self.predicted[SERVE_LEVEL][k].cycles
            if cycles.get(net.name) != want:
                self.error(f"{net.name}: served cycles per request "
                           f"{cycles.get(net.name)} != predicted {want}")
        lat = opened["latencies"]
        self.put(self.e2e, "p50_ms", measure.median(lat) * 1e3, "ms",
                 measure.describe(lat, 1e3) + " (open loop, from due)")
        self.put(self.e2e, "throughput_rps", completed / window,
                 "req/s", f"{completed} completed in {window:.2f} s "
                 f"(closed loop, {DEPTH}/network)")
        self.put(self.e2e, "sim_mips",
                 sum(instret[k].instret * n
                     for k, n in enumerate(closed["in_window"]))
                 / window / 1e6, "Minstr/s",
                 "level-e instructions served per second")
        self.put(self.e2e, "sim_cycles",
                 sum(cycles.get(name, 0) for name in self.names), "cycles",
                 "served cycles per request, summed over the suite")
        late = opened["late"]
        self.lines.append(f"  open loop: {len(opened['records'])} arrivals "
                          f"at {self.rate:g} req/s; generator late "
                          f"{measure.describe(late, 1e3)} ms")
        if self.recorder is not None:
            self.layer_metrics(opened, closed)
            self.put(self.layer, "loadgen.late_ms.median",
                     measure.median(late) * 1e3, "ms")
            self.put(self.layer, "loadgen.late_ms.max", max(late) * 1e3,
                     "ms")
            for due, sent, sent_end, request in opened["records"]:
                if request.settled_at is None:
                    continue
                rid = f"r{request.id}"
                parent = self.recorder.add("request", due,
                                           request.settled_at, rid=rid)
                self.recorder.add("submit", sent, sent_end, parent=parent,
                                  rid=rid)
                link = self.probe and self.probe.served_by.get(request.id)
                if link:
                    span, start = link
                    self.recorder.add("queue", due, start, parent=parent,
                                      rid=rid, args={"infer_span": span})

    def check_settled_once(self, request) -> None:
        if request.duplicate_settles:
            self.error(f"request {request.id} settled "
                       f"{1 + request.duplicate_settles} times")

    def tail_metric(self, name: str, values) -> None:
        p99 = measure.percentile_at(values, 99.0)
        if p99 is None:
            self.lines.append(f"  {name}: fewer than 1000 samples")
        else:
            self.put(self.layer, name, p99 * 1e3, "ms",
                     f"n={len(values)}")


class EngineWorkload(ServeWorkload):
    """One ``InferenceEngine`` (default ``EngineConfig``)."""

    name = "serve-engine"
    rate = ENGINE_RATE
    #: The engine's threads share one interpreter lock.  Free to use
    #: both cores of a 2-core host, handing the lock between cores made
    #: ten runs swing 5.3k-10.9k req/s and 2.9-10.2 ms p50; on one CPU
    #: it is both faster and steadier.
    one_cpu = True

    def setup(self) -> None:
        from repro.serve.engine import EngineConfig, InferenceEngine
        self.engine = InferenceEngine(networks=self.networks,
                                      config=EngineConfig())
        level = self.engine.config.level
        for net in self.networks:
            self.engine.registry.get(net, level)
        if self.recorder is not None:
            self.probe = _CallProbe(self.recorder)
            for net in self.networks:
                entry = self.engine.registry.get(net, level)
                entry.model = self.probe.wrap(entry.model)
        self.engine.start()
        self.warm(1)

    def submit(self, k: int, x):
        if self.probe is None or not self.probe.linking:
            return self.engine.submit(self.names[k], x)
        return self.engine.submit(self.names[k], x,
                                  on_settle=self.probe.on_settle)

    def served_cycles(self) -> dict:
        per = self.engine.metrics.to_dict()["per_network"]
        return {name: row["sim_cycles"] // row["completed"]
                for name, row in per.items() if row["completed"]}

    def teardown(self) -> None:
        self.engine.stop()

    def layer_metrics(self, opened, closed) -> None:
        probe = self.probe
        submit_us = [(end - sent) * 1e6
                     for _, sent, end, _ in opened["records"]]
        submit_us += [s * 1e6 for s in closed["submit_s"]]
        self.put(self.layer, "engine.submit_us", measure.median(submit_us),
                 "us", f"n={len(submit_us)}")
        queue_ms = [(probe.served_by[r.id][1] - due) * 1e3
                    for due, r in opened["done"] if r.id in probe.served_by]
        self.put(self.layer, "engine.queue_ms", measure.median(queue_ms),
                 "ms", f"n={len(queue_ms)}")
        for phase, start, end in (
                ("open", opened["t0"], opened["end"]),
                ("closed", closed["t0"], closed["t_end"])):
            calls = probe.window(start, end)
            self.put(self.layer, f"engine.rows_per_call.{phase}",
                     sum(c[3] for c in calls) / len(calls), "rows",
                     f"{len(calls)} calls")
        calls = probe.window(closed["t0"], closed["t_end"])
        rows = sum(c[3] for c in calls)
        self.put(self.layer, "aot.wall_us_per_row",
                 sum(c[1] - c[0] for c in calls) / rows * 1e6, "us")
        self.put(self.layer, "aot.cpu_us_per_row",
                 sum(c[2] for c in calls) / rows * 1e6, "us")
        self.put(self.layer, "engine.threads", closed["threads"], "count")
        self.put(self.layer, "engine.cpu_ms_per_req",
                 closed["cpu"] / sum(closed["in_window"]) * 1e3, "ms")
        self.tail_metric("engine.p99_ms", opened["latencies"])
        self.build_metrics()


class ClusterWorkload(ServeWorkload):
    """A ``ServingCluster``: one shard of two worker processes."""

    name = "serve-cluster"
    rate = CLUSTER_RATE
    stopped = False

    def setup(self) -> None:
        from repro.cluster import ClusterConfig, ServingCluster
        self.cluster = ServingCluster(
            networks=self.networks,
            config=ClusterConfig(n_shards=CLUSTER_SHARDS,
                                 replicas_per_shard=CLUSTER_REPLICAS))
        start = clock()
        self.cluster.start()
        self.start_s = clock() - start
        # Back-to-back pairs alternate between the two replicas (JSQ).
        self.warm(CLUSTER_REPLICAS)
        self.worker_pids = [r.process.pid for r in self.cluster.replicas()]

    def submit(self, k: int, x):
        return self.cluster.submit(self.names[k], x)

    def live_threads(self) -> int:
        return threading.active_count() + sum(
            proc_status(pid, "Threads") for pid in self.worker_pids)

    def workers_rss_mb(self) -> float:
        return sum(proc_status(pid, "VmHWM")
                   for pid in self.worker_pids) / 1024.0

    def peak_rss_mb(self) -> float:
        return super().peak_rss_mb() + self.worker_rss

    def served_cycles(self) -> dict:
        totals = collections.Counter()
        counts = collections.Counter()
        for final in self.cluster.worker_finals().values():
            for name, row in final["metrics"]["per_network"].items():
                totals[name] += row["sim_cycles"]
                counts[name] += row["completed"]
        return {name: totals[name] // counts[name]
                for name in counts if counts[name]}

    def closed_phase(self, seconds: float) -> dict:
        result = super().closed_phase(seconds)
        # Workers' peaks are read while they are alive; served_cycles
        # needs their final reports, so stop the cluster here.
        self.worker_rss = self.workers_rss_mb()
        self.cluster.stop()
        self.stopped = True
        return result

    def teardown(self) -> None:
        if not self.stopped:
            self.worker_rss = self.workers_rss_mb()
            self.cluster.stop()
            self.stopped = True

    def layer_metrics(self, opened, closed) -> None:
        submit_us = [(end - sent) * 1e6
                     for _, sent, end, _ in opened["records"]]
        submit_us += [s * 1e6 for s in closed["submit_s"]]
        self.put(self.layer, "cluster.start_s", self.start_s, "s")
        self.put(self.layer, "cluster.submit_us",
                 measure.median(submit_us), "us", f"n={len(submit_us)}")
        done = [r for _, r in opened["done"]
                if r.service_latency is not None]
        self.put(self.layer, "cluster.ipc_ms", measure.median(
            [(r.latency - r.service_latency) * 1e3 for r in done]), "ms",
            f"n={len(done)}")
        self.put(self.layer, "cluster.service_ms", measure.median(
            [r.service_latency * 1e3 for r in done]), "ms")
        sizes = closed["batch_sizes"]
        self.put(self.layer, "cluster.rows_per_batch",
                 len(sizes) / sum(1.0 / b for b in sizes), "rows",
                 "closed loop")
        self.put(self.layer, "cluster.worker_rss_mb", self.worker_rss, "MB",
                 f"{len(self.worker_pids)} workers")
        self.put(self.layer, "engine.threads", closed["threads"], "count",
                 "parent + workers")
        self.tail_metric("cluster.p99_ms", opened["latencies"])


# ----------------------------------------------------------------------
class OfflineWorkload(Workload):
    """Rounds of ``AotBatchedModel.infer`` at batch 64, no engine."""

    name = "offline-batch"

    def setup(self) -> None:
        import repro.serve.aot
        self.models = []
        for net in self.networks:
            model = repro.serve.aot.build_serving_model(
                net, self.weights(net), level=SERVE_LEVEL)
            model.infer(np.zeros((OFFLINE_BATCH, net.timesteps,
                                  net.input_size), dtype=np.int64))
            self.models.append(model)

    def measure(self, seconds: float) -> None:
        n = len(self.networks)
        times = [[] for _ in range(n)]
        rows = 0
        start = clock()
        rounds = 0
        while rounds == 0 or clock() - start < seconds:
            rows_idx = (np.arange(OFFLINE_BATCH) + rounds) % POOL
            for k, model in enumerate(self.models):
                batch = self.pool[k][rows_idx]
                t0 = clock()
                out = model.infer(batch)
                t1 = clock()
                times[k].append(t1 - t0)
                if self.recorder is not None:
                    self.recorder.add(f"aot.infer {self.names[k]}", t0, t1,
                                      args={"rows": OFFLINE_BATCH})
                self.attempted += OFFLINE_BATCH
                rows += OFFLINE_BATCH
                self.check_batch(k, rows_idx, out)
            rounds += 1
        busy = sum(sum(t) for t in times)
        instret = self.predicted[SERVE_LEVEL]
        self.put(self.e2e, "p50_ms",
                 sum(measure.median(t) for t in times) * 1e3, "ms",
                 f"suite pass at batch {OFFLINE_BATCH}: per-network median "
                 f"call, summed ({rounds} rounds)")
        self.put(self.e2e, "throughput_rps", rows / busy, "req/s",
                 f"{rows} rows in {busy:.2f} s inside infer")
        self.put(self.e2e, "sim_mips",
                 sum(instret[k].instret * OFFLINE_BATCH * len(times[k])
                     for k in range(n)) / busy / 1e6, "Minstr/s",
                 "level-e instructions computed per second")
        cycles = 0
        for k, model in enumerate(self.models):
            want = instret[k].cycles
            if model.cycles_per_request != want:
                self.error(f"{self.names[k]}: model cycles per request "
                           f"{model.cycles_per_request} != predicted {want}")
            cycles += model.cycles_per_request
        self.put(self.e2e, "sim_cycles", cycles, "cycles",
                 "model cycles per request, summed over the suite")
        if self.recorder is not None:
            total_bytes = 0
            for k, net in enumerate(self.networks):
                per_row = measure.median(times[k]) / OFFLINE_BATCH
                self.put(self.layer, f"aot.us_per_row.{net.name}",
                         per_row * 1e6, "us")
                total_bytes += len(times[k]) * self.bytes_per_call(k)
            self.put(self.layer, "aot.gbytes_per_s", total_bytes / busy / 1e9,
                     "GB/s", "from tensor shapes")
            self.build_metrics()

    def bytes_per_call(self, k: int) -> int:
        """Weights once per call, activations once per row: every
        layer's parameters, inputs and outputs (plus an LSTM's cell
        state in and out), at the compiled plan's operand width."""
        from repro.nn.network import LstmSpec
        net = self.networks[k]
        weights = sum(np.size(a) for layer in self.models[k].params
                      for a in layer.values())
        activations = 0
        for spec in net.layers:
            activations += spec.in_size + spec.out_size
            if isinstance(spec, LstmSpec):
                activations += 2 * spec.n
        return OPERAND_BYTES * (weights + OFFLINE_BATCH * activations)

    def check_batch(self, k: int, rows_idx, out) -> None:
        """Whole-batch compare; row by row only to name what differs."""
        out = np.asarray(out)
        if self.corrupt:
            out = np.array(out, copy=True)
            out[0, 0] += 1
            self.corrupt = False
        expected = self.expected[k][rows_idx]
        if out.shape != expected.shape:
            self.error(f"offline {self.names[k]}: output shape {out.shape} "
                       f"!= {expected.shape}")
        elif (not np.array_equal(out, expected) or out.min() < -32768
              or out.max() > 32767):
            for row, index in enumerate(rows_idx):
                self.check_row(k, int(index), out[row], "offline")


# ----------------------------------------------------------------------
class IssWorkload(Workload):
    """Whole-network inferences on the cycle-exact ISS (turbo engine)."""

    name = "iss-suite"
    levels = ISS_LEVELS

    def setup(self) -> None:
        from repro.kernels import NetworkProgram
        self.programs = {}
        self.program_s = []
        for k, net in enumerate(self.networks):
            params = self.weights(net)
            for level in ISS_LEVELS:
                t0 = clock()
                self.programs[level, k] = NetworkProgram(
                    net, params, level_key=level, engine="turbo")
                t1 = clock()
                self.program_s.append(t1 - t0)
                if self.recorder is not None:
                    self.recorder.add(f"kernels.NetworkProgram {net.name} "
                                      f"{level}", t0, t1)

    def measure(self, seconds: float) -> None:
        n = len(self.networks)
        times = {key: [] for key in self.programs}
        instret = {level: 0 for level in ISS_LEVELS}
        busy = {level: 0.0 for level in ISS_LEVELS}
        suite_cycles = {}
        suite_instret = {}
        start = clock()
        rounds = 0
        while rounds == 0 or clock() - start < seconds:
            for level in ISS_LEVELS:
                cycles_sum = instret_sum = 0
                for k in range(n):
                    program = self.programs[level, k]
                    cpu = program.cpu
                    index = rounds % POOL
                    program.reset_state()
                    c0, i0 = cpu.cycles, cpu.instret
                    t0 = clock()
                    out = program.forward(self.pool[k][index])
                    t1 = clock()
                    cycles = cpu.cycles - c0
                    retired = cpu.instret - i0
                    times[level, k].append(t1 - t0)
                    busy[level] += t1 - t0
                    instret[level] += retired
                    self.attempted += 1
                    if self.recorder is not None:
                        self.recorder.add(
                            f"core.forward {self.names[k]} {level}", t0, t1,
                            args={"cycles": cycles, "instret": retired})
                    if self.corrupt:
                        cycles += 1
                        self.corrupt = False
                    self.check_row(k, index, out, f"iss level {level}")
                    want = self.predicted[level][k]
                    if (cycles, retired) != (want.cycles, want.instret):
                        self.error(
                            f"iss level {level} {self.names[k]}: "
                            f"{cycles} cycles / {retired} instret != "
                            f"predicted {want.cycles} / {want.instret}")
                    cycles_sum += cycles
                    instret_sum += retired
                suite_cycles.setdefault(level, cycles_sum)
                suite_instret.setdefault(level, instret_sum)
            rounds += 1
        total_busy = sum(busy.values())
        forwards = sum(len(t) for t in times.values())
        self.put(self.e2e, "p50_ms",
                 sum(measure.median(t) for t in times.values()) * 1e3, "ms",
                 f"suite pass at levels a+e: per-program median forward, "
                 f"summed ({rounds} rounds)")
        self.put(self.e2e, "throughput_rps", forwards / total_busy,
                 "req/s", f"{forwards} inferences in {total_busy:.2f} s")
        self.put(self.e2e, "sim_mips",
                 sum(instret.values()) / total_busy / 1e6, "Minstr/s",
                 "both levels")
        self.put(self.e2e, "sim_cycles", suite_cycles["e"], "cycles",
                 "level e, one inference of every network")
        self.lines.append(f"  level a suite: {suite_cycles['a']} cycles, "
                          f"{suite_instret['a']} instret")
        if self.recorder is not None:
            for level in ISS_LEVELS:
                self.put(self.layer, f"core.mips.{level}",
                         instret[level] / busy[level] / 1e6, "Minstr/s")
                self.put(self.layer, f"core.instret.{level}",
                         suite_instret[level], "count")
            self.put(self.layer, "core.cycles.a", suite_cycles["a"],
                     "cycles")
            self.put(self.layer, "core.turbo_bails",
                     sum(p.cpu.turbo_stats["bails"]
                         for p in self.programs.values()), "count")
            calls = {name: sum(s) for name, s in self.setup_calls.items()}
            self.put(self.layer, "kernels.codegen_s", calls["codegen"], "s",
                     f"{len(self.setup_calls['codegen'])} plans")
            self.put(self.layer, "isa.assemble_s", calls["assemble"], "s")
            self.put(self.layer, "core.build_s", calls["cpu"], "s",
                     "Cpu construction incl. turbo code")
            self.put(self.layer, "kernels.load_s",
                     sum(self.program_s) - calls["codegen"]
                     - calls["assemble"] - calls["cpu"], "s",
                     "NetworkProgram self time (memory image)")


WORKLOADS = {cls.name: cls for cls in (EngineWorkload, ClusterWorkload,
                                        OfflineWorkload, IssWorkload)}


def leftover_threads() -> list:
    """Non-daemon threads other than this one still alive after a grace
    period."""
    others = [t for t in threading.enumerate()
              if t is not threading.main_thread() and not t.daemon]
    for thread in others:
        thread.join(timeout=2.0)
    return [t.name for t in others if t.is_alive()]


def run_companions(main: Workload, probes: Probes) -> None:
    """Traced runs: run every other workload of :data:`COMPANIONS`
    briefly, traced, after ``main``, and keep each per-layer metric
    ``main`` did not produce.  Their operations and checks count."""
    for name, seconds in COMPANIONS.items():
        if name == main.name:
            continue
        companion = WORKLOADS[name](main.seed, False, main.recorder)
        cpus = os.sched_getaffinity(0)
        if companion.one_cpu:
            os.sched_setaffinity(0, {min(cpus)})
        try:
            set_up(companion, probes)
            try:
                companion.make_oracle(shared=main)
                companion.measure(seconds)
            finally:
                companion.teardown()
        finally:
            os.sched_setaffinity(0, cpus)
        kept = [key for key in companion.layer if key not in main.layer]
        for key in kept:
            main.layer[key] = companion.layer[key]
        main.attempted += companion.attempted
        main.failed += companion.failed
        main.errors += companion.errors
        main.lines.append(f"  companion {name}, {seconds:g} s, for "
                          f"{len(kept)} per-layer metrics:")
        main.lines += ["  " + line for line in companion.lines]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--t-launch", type=float, required=True)
    parser.add_argument("--trace-out")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--corrupt", action="store_true")
    args = parser.parse_args(argv)

    recorder = probes = None
    if args.trace_out is not None:
        recorder = measure.SpanRecorder()
        probes = Probes(recorder)
    workload = WORKLOADS[args.workload](args.seed, args.corrupt, recorder)
    if workload.one_cpu:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    set_up(workload, probes)
    setup_s = clock() - args.t_launch
    result = {"setup_s": setup_s}
    if args.setup_only:
        workload.teardown()
    else:
        try:
            t0 = clock()
            workload.make_oracle()
            oracle_s = clock() - t0
            workload.measure(args.seconds)
        finally:
            workload.teardown()
        workload.put(workload.e2e, "peak_rss_mb", workload.peak_rss_mb(),
                     "MB")
        if recorder is not None:
            workload.put(workload.layer, "oracle_s", oracle_s, "s")
            run_companions(workload, probes)
            recorder.write(args.trace_out, f"rrmbench {args.workload}")
        result.update(attempted=workload.attempted, failed=workload.failed,
                      errors=workload.errors, e2e=workload.e2e,
                      layer=workload.layer)
    result["threads"] = leftover_threads()
    for line in workload.lines:
        print(line)
    print(json.dumps(result), flush=True)
    if result["threads"]:
        # Non-daemon threads would keep the interpreter alive.
        os._exit(3)
    return 0


if __name__ == "__main__":
    sys.exit(main())
