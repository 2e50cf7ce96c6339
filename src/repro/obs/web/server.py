"""The live control plane: a stdlib HTTP server over a running system.

:class:`DashboardServer` attaches to an :class:`~repro.serve.engine.
InferenceEngine` and/or a :class:`~repro.cluster.ServingCluster` and
serves every telemetry artifact the repo produces — the unified metrics
registry (JSON and Prometheus text), live incremental updates (SSE and
long-poll, monotonic sequence numbers), profiler flamegraphs, span
traces, worker/breaker/phi-accrual state and bench history — plus four
operator POST actions (drain shard, trigger chaos, flush plan cache,
toggle fault injector), each routed through the existing engine/cluster
APIs and recorded in an audit log.

Zero third-party dependencies: ``http.server.ThreadingHTTPServer``, one
handler thread per connection, all joined on :meth:`DashboardServer.
stop` so a dashboard leaves no threads behind.

API endpoints (all JSON unless noted; see docs/OBSERVABILITY.md):

====================  ==================================================
``GET /``             the single-page app (HTML)
``GET /app.js``       the app's JavaScript
``GET /metrics``      Prometheus text exposition (version 0.0.4)
``GET /api/metrics.json``  registry snapshot with labeled families
``GET /api/status``   build info, uptime, engine/cluster state
``GET /api/updates``  long-poll: events after ``?since=N``
``GET /api/stream``   SSE: same events, ``id:`` = sequence number
``GET /api/flamegraph``  profile ``?network=`` as tree + folded stacks
``GET /api/trace``    Chrome trace-event JSON from the live tracer
``GET /api/bench``    every ``BENCH_*.json`` in the bench directory
``GET /api/audit``    operator-action audit log
``POST /api/actions/<name>``  drain | chaos | flush-plan-cache |
                      toggle-injector
====================  ==================================================
"""

from __future__ import annotations

import collections
import contextlib
import glob
import json
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from ..metrics import REGISTRY, build_info, uptime_s
from .static import APP_JS, INDEX_HTML

__all__ = ["DashboardServer", "EventLog", "API_VERSION",
           "PROMETHEUS_CONTENT_TYPE", "ACTIONS", "bench_dashboard"]

#: Version stamped into every ``/api/*`` JSON response as ``"v"``.
API_VERSION = 1

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Operator actions accepted by ``POST /api/actions/<name>``.
ACTIONS = ("drain", "chaos", "flush-plan-cache", "toggle-injector")

#: Upper bound on one long-poll wait; clients re-arm with ``since``.
MAX_POLL_S = 30.0


class EventLog:
    """Bounded event log with monotonic sequence numbers.

    Producers :meth:`append`; consumers either snapshot (:meth:`since`)
    or block (:meth:`wait_since`) for events past a sequence number.
    The sequence is strictly increasing for the life of the process, so
    a client that replays ``?since=N`` across reconnects never sees a
    duplicate or a gap it cannot detect.
    """

    def __init__(self, maxlen: int = 4096):
        self._cond = threading.Condition()
        self._events: collections.deque = collections.deque(maxlen=maxlen)
        self._seq = 0

    @property
    def seq(self) -> int:
        return self._seq

    def append(self, kind: str, data: dict) -> dict:
        with self._cond:
            self._seq += 1
            event = {"seq": self._seq, "t": time.time(), "kind": kind,
                     "data": data}
            self._events.append(event)
            self._cond.notify_all()
        return event

    def since(self, after: int) -> list:
        with self._cond:
            return [e for e in self._events if e["seq"] > after]

    def wait_since(self, after: int, timeout_s: float,
                   stop=None) -> list:
        """Events after ``after``, blocking up to ``timeout_s``.

        Returns early (possibly empty) when ``stop`` is set — callers
        holding a connection open must not outlive the server.
        """
        deadline = time.monotonic() + timeout_s
        with self._cond:
            while self._seq <= after:
                if stop is not None and stop.is_set():
                    return []
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return []
                self._cond.wait(timeout=min(remaining, 0.25))
            return [e for e in self._events if e["seq"] > after]

    def kick(self) -> None:
        """Wake every waiter (used on server shutdown)."""
        with self._cond:
            self._cond.notify_all()


class _Server(ThreadingHTTPServer):
    # Handler threads are joined in server_close() (block_on_close),
    # so DashboardServer.stop() is a full barrier: afterwards no
    # dashboard thread exists.  Handlers must therefore never block
    # unboundedly — long-polls are capped and SSE loops watch _stop.
    daemon_threads = False
    block_on_close = True
    allow_reuse_address = True
    dashboard: "DashboardServer"


class DashboardServer:
    """Serve the control plane for an engine and/or cluster.

    Either attachment may be ``None`` (endpoints degrade to 409/404
    no-ops); both may be swapped at runtime with :meth:`attach` — the
    cluster benches re-attach per worker-count pass.

    ``auth_token`` guards *mutating* requests only: when set, POST
    requires ``Authorization: Bearer <token>``.  Reads stay open, like
    a Prometheus scrape endpoint.
    """

    def __init__(self, engine=None, cluster=None, registry=None,
                 host: str = "127.0.0.1", port: int = 0,
                 auth_token: str | None = None,
                 sample_interval_s: float = 0.5,
                 bench_dir: str = ".",
                 flame_scale: int | None = 8,
                 flame_engine: str = "interp"):
        self.registry = registry if registry is not None else REGISTRY
        self.host = host
        self.port = port
        self.auth_token = auth_token
        self.sample_interval_s = sample_interval_s
        self.bench_dir = bench_dir
        self.flame_scale = flame_scale
        self.flame_engine = flame_engine
        self.events = EventLog()
        self.audit: list = []
        self._audit_lock = threading.Lock()
        self._attach_lock = threading.Lock()
        self._engine = None
        self._cluster = None
        self._collectors: dict = {}
        self.attach(engine=engine, cluster=cluster)
        self._flame_cache: dict = {}
        self._stop = threading.Event()
        self._httpd: _Server | None = None
        self._serve_thread: threading.Thread | None = None
        self._sampler: threading.Thread | None = None

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "DashboardServer":
        if self._httpd is not None:
            raise RuntimeError("dashboard already started")
        self._stop.clear()
        self._httpd = _Server((self.host, self.port), _Handler)
        self._httpd.dashboard = self
        self.port = self._httpd.server_address[1]
        self._serve_thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="dashboard-http", daemon=True)
        self._serve_thread.start()
        self._sampler = threading.Thread(
            target=self._sample_loop, name="dashboard-sampler", daemon=True)
        self._sampler.start()
        return self

    def stop(self) -> None:
        if self._httpd is None:
            return
        self._stop.set()
        self.events.kick()
        self._httpd.shutdown()
        self._httpd.server_close()   # joins handler threads
        self._serve_thread.join()
        self._sampler.join()
        self._httpd = None
        self._serve_thread = None
        self._sampler = None
        with self._attach_lock:
            for collect in self._collectors.values():
                self.registry.unregister_collector(collect)
            self._collectors.clear()

    def __enter__(self) -> "DashboardServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def attach(self, engine=None, cluster=None) -> None:
        """Swap the live engine/cluster the dashboard reads from.

        The attachment's metric collector is registered on the
        dashboard's registry (so ``/metrics`` covers it) and the
        previous attachment's collector is dropped; :meth:`stop`
        removes whatever is still registered.
        """
        with self._attach_lock:
            if engine is not None:
                self._swap_collector("engine", engine.metrics.collect)
                self._engine = engine
            if cluster is not None:
                self._swap_collector("cluster", cluster.metrics.collect)
                self._cluster = cluster

    def _swap_collector(self, key: str, collect) -> None:
        old = self._collectors.get(key)
        if old is collect:
            return
        if old is not None:
            self.registry.unregister_collector(old)
        self.registry.register_collector(collect)
        self._collectors[key] = collect

    def detach(self) -> None:
        with self._attach_lock:
            self._engine = None
            self._cluster = None
            for collect in self._collectors.values():
                self.registry.unregister_collector(collect)
            self._collectors.clear()

    def _sources(self):
        with self._attach_lock:
            return self._engine, self._cluster

    # -- sampling ------------------------------------------------------
    def _sample_loop(self) -> None:
        while not self._stop.wait(self.sample_interval_s):
            try:
                self.events.append("sample", self._sample())
            except Exception:
                # The sampled engine/cluster may be stopping mid-read;
                # a failed sample is dropped, the loop must survive.
                continue

    def _sample(self) -> dict:
        engine, cluster = self._sources()
        data = {"uptime_s": uptime_s()}
        if engine is not None:
            total = engine.metrics.total
            rejected = (total.rejected_timeout.value
                        + total.rejected_capacity.value
                        + total.rejected_unavailable.value)
            data.update({
                "submitted": total.submitted.value,
                "completed": total.completed.value,
                "failed": total.failed.value,
                "rejected": rejected,
                "queue_depth": engine.total_queue_depth(),
                "breakers_open": sum(
                    1 for state in engine.breaker_states().values()
                    if state != "closed"),
                "p50_s": total.latency.percentile(0.50),
                "p95_s": total.latency.percentile(0.95),
                "p99_s": total.latency.percentile(0.99),
            })
        if cluster is not None:
            stats = cluster.router.shard_stats()
            data.update({
                "queue_depth": sum(s["outstanding"] for s in stats),
                "live_replicas": cluster.live_replica_count(),
                "shards": stats,
            })
            totals = cluster.metrics.to_dict().get("total", {})
            for ours, theirs in (("completed", "completed"),
                                 ("submitted", "submitted"),
                                 ("failed", "failed")):
                if theirs in totals:
                    data[ours] = totals[theirs]
        return data

    # -- snapshots -----------------------------------------------------
    def status(self) -> dict:
        engine, cluster = self._sources()
        mode = ("cluster" if cluster is not None
                else "engine" if engine is not None else "none")
        body = {"v": API_VERSION, "build": build_info(),
                "uptime_s": uptime_s(), "seq": self.events.seq,
                "mode": mode, "actions": list(ACTIONS),
                "networks": self._network_names(engine, cluster)}
        if engine is not None:
            injector = getattr(engine, "injector", None)
            body["engine"] = {
                "queue_depths": engine.queue_depths(),
                "total_queue_depth": engine.total_queue_depth(),
                "breakers": engine.breaker_states(),
                "plan_cache_entries": len(engine.registry),
                "level": engine.config.level,
                "injector": {
                    "present": injector is not None,
                    "enabled": bool(getattr(injector, "enabled", False)),
                },
            }
            body["stages"] = engine.metrics.stage_totals()
        if cluster is not None:
            detector = cluster.detector
            phis = detector.snapshot() if detector is not None else {}
            replicas = []
            for replica in cluster.replicas():
                suspect = (detector.is_suspect(replica.name)
                           if detector is not None else False)
                replicas.append({
                    "name": replica.name,
                    "shard": replica.shard,
                    "index": replica.index,
                    "alive": replica.process.is_alive(),
                    "accepting": replica.accepting,
                    "suspect": suspect,
                    "phi": phis.get(replica.name),
                    "outstanding": getattr(replica, "outstanding", None),
                })
            body["cluster"] = {
                "replicas": replicas,
                "shards": cluster.router.shard_stats(),
                "live_replicas": cluster.live_replica_count(),
                "events": list(cluster.events)[-25:],
            }
        return body

    @staticmethod
    def _network_names(engine, cluster) -> list:
        source = engine if engine is not None else cluster
        if source is None:
            return []
        return [net.name for net in source.networks]

    def metrics_json(self) -> dict:
        return {"v": API_VERSION, "seq": self.events.seq,
                "t": time.time(), "metrics": self.registry.to_dict()}

    def flamegraph(self, network: str | None, level: str | None) -> dict:
        engine, cluster = self._sources()
        names = self._network_names(engine, cluster)
        if network is None:
            if not names:
                raise KeyError("no networks attached; pass ?network=")
            network = names[0]
        if level is None:
            level = engine.config.level if engine is not None else "e"
        key = (network, level, self.flame_engine)
        with self._attach_lock:
            cached = self._flame_cache.get(key)
        if cached is not None:
            return cached
        from ..profiler import profile_network
        profile = profile_network(network, level_key=level,
                                  engine=self.flame_engine,
                                  scale=self.flame_scale)
        body = dict(profile.to_dict())
        body.update({"v": API_VERSION, "network": network, "level": level,
                     "folded": profile.folded()})
        with self._attach_lock:
            self._flame_cache[key] = body
        return body

    def trace(self) -> dict | None:
        engine, cluster = self._sources()
        for source in (cluster, engine):
            tracer = getattr(source, "tracer", None)
            if tracer is not None:
                return tracer.to_chrome_trace()
        return None

    def bench(self) -> dict:
        benches = {}
        pattern = os.path.join(self.bench_dir, "BENCH_*.json")
        for path in sorted(glob.glob(pattern)):
            try:
                with open(path) as fh:
                    benches[os.path.basename(path)] = json.load(fh)
            except (OSError, ValueError):
                continue
        return {"v": API_VERSION, "dir": self.bench_dir,
                "benches": benches}

    # -- operator actions ----------------------------------------------
    def perform_action(self, action: str, params: dict,
                       remote: str = "") -> tuple:
        """Run one operator action; returns ``(status, body)``.

        Every attempt — success, no-op and failure alike — lands in the
        audit log and in the event stream (kind ``action``), so the
        record of *who asked for what* survives even when nothing
        happened.
        """
        ok, status, detail = False, 200, {}
        engine, cluster = self._sources()
        try:
            if action == "drain":
                shard = int(params.get("shard", 0))
                if cluster is None:
                    status, detail = 409, {"error": "no cluster attached"}
                else:
                    worker = cluster.retire_replica(shard)
                    ok = worker is not None
                    if ok:
                        detail = {"worker": worker, "shard": shard}
                    else:
                        status = 409
                        detail = {"error": "shard has no spare replica "
                                           "to drain", "shard": shard}
            elif action == "chaos":
                shard = int(params.get("shard", 0))
                if cluster is not None:
                    worker = cluster.kill_replica(shard)
                    ok = worker is not None
                    if ok:
                        detail = {"killed": worker, "shard": shard}
                    else:
                        status = 409
                        detail = {"error": "no live replica on shard",
                                  "shard": shard}
                elif engine is not None:
                    detail = self._arm_engine_chaos(engine, params)
                    ok = True
                else:
                    status, detail = 409, {"error": "nothing attached"}
            elif action == "flush-plan-cache":
                if cluster is not None:
                    workers = cluster.flush_plan_caches()
                    ok = True
                    detail = {"workers": workers}
                elif engine is not None:
                    ok = True
                    detail = {"entries": engine.registry.flush()}
                else:
                    status, detail = 409, {"error": "nothing attached"}
            elif action == "toggle-injector":
                injector = getattr(engine, "injector", None) \
                    if engine is not None else None
                if injector is None:
                    status = 409
                    detail = {"error": "no fault injector attached"}
                else:
                    enabled = params.get("enabled")
                    if enabled is None:
                        enabled = not injector.enabled
                    injector.enabled = bool(enabled)
                    ok = True
                    detail = {"enabled": injector.enabled}
            else:
                status, detail = 404, {"error": f"unknown action "
                                                f"{action!r}",
                                       "known": list(ACTIONS)}
        except Exception as exc:  # action must never kill the server
            status, detail = 500, {"error": repr(exc)}
        entry = {"t": time.time(), "action": action, "params": params,
                 "ok": ok, "status": status if not ok else 200,
                 "detail": detail, "remote": remote}
        with self._audit_lock:
            self.audit.append(entry)
        self.events.append("action", entry)
        body = {"v": API_VERSION, "ok": ok, "action": action,
                "detail": detail}
        return (200 if ok else status, body)

    @staticmethod
    def _arm_engine_chaos(engine, params: dict) -> dict:
        """Install a short seeded fault window on a bare engine.

        The cluster path kills a process; the single-engine equivalent
        is a transient scripted scenario — a crash window plus a
        latency stall over the next few sequence numbers per network —
        exercising bisect/retry/breaker exactly like ``chaos-bench``.
        """
        from ...faults.injector import FaultInjector
        from ...faults.plans import FaultPlan, FaultSpec
        seed = int(params.get("seed", 2020))
        horizon = int(params.get("requests", 20))
        start = max((q.seq for q in engine._queues.values()), default=0)
        plan = FaultPlan([
            FaultSpec(kind="crash", start=start, stop=start + horizon,
                      probability=0.3),
            FaultSpec(kind="latency", start=start, stop=start + horizon,
                      probability=0.2, delay_s=0.01),
        ])
        engine.injector = FaultInjector(plan, seed=seed)
        return {"armed": "engine", "seed": seed,
                "window": [start, start + horizon]}

    def audit_entries(self) -> list:
        with self._audit_lock:
            return list(self.audit)


@contextlib.contextmanager
def bench_dashboard(port: int | None, engine=None, cluster=None,
                    label: str = "", scale: int | None = None,
                    quiet: bool = False):
    """Run a bench with ``--dashboard PORT`` attached (no-op on None).

    Registers the engine/cluster metric collectors on the global
    registry for the duration (so ``/metrics`` covers the run) and
    tears everything down — dashboard threads included — on exit.
    Yields the :class:`DashboardServer` (or ``None``); cluster benches
    that rebuild their fleet per pass re-point it with
    ``dashboard.attach(cluster=...)``.
    """
    if port is None:
        yield None
        return
    from ..metrics import set_build_info
    set_build_info(engine=label)
    dashboard = DashboardServer(engine=engine, cluster=cluster, port=port,
                                flame_scale=scale)
    dashboard.start()
    if not quiet:
        print(f"[dashboard live at {dashboard.url}]")
    try:
        yield dashboard
    finally:
        dashboard.stop()


class _Handler(BaseHTTPRequestHandler):
    # One instance per request; ``self.server.dashboard`` is the hub.
    server: _Server
    protocol_version = "HTTP/1.0"  # close per request; no idle threads

    # -- plumbing ------------------------------------------------------
    def log_message(self, format, *args):  # noqa: A002 - stdlib name
        pass  # the serving path must not spam stderr per scrape

    def _send_body(self, body: bytes, content_type: str,
                   status: int = 200, extra: dict | None = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("Cache-Control", "no-store")
        for key, value in (extra or {}).items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, obj, status: int = 200,
                   extra: dict | None = None) -> None:
        body = json.dumps(obj, default=str).encode()
        self._send_body(body, "application/json", status, extra)

    def _query(self) -> dict:
        return parse_qs(urlparse(self.path).query)

    def _qs(self, query: dict, key: str, default=None):
        values = query.get(key)
        return values[0] if values else default

    # -- GET -----------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib handler name
        dash = self.server.dashboard
        path = urlparse(self.path).path
        try:
            if path == "/":
                self._send_body(INDEX_HTML.encode(),
                                "text/html; charset=utf-8")
            elif path == "/app.js":
                self._send_body(APP_JS.encode(),
                                "application/javascript; charset=utf-8")
            elif path == "/metrics":
                self._send_body(dash.registry.prometheus_text().encode(),
                                PROMETHEUS_CONTENT_TYPE)
            elif path == "/api/metrics.json":
                self._send_json(dash.metrics_json())
            elif path == "/api/status":
                self._send_json(dash.status())
            elif path == "/api/updates":
                self._long_poll(dash)
            elif path == "/api/stream":
                self._sse(dash)
            elif path == "/api/flamegraph":
                self._flamegraph(dash)
            elif path == "/api/trace":
                self._trace(dash)
            elif path == "/api/bench":
                self._send_json(dash.bench())
            elif path == "/api/audit":
                self._send_json({"v": API_VERSION,
                                 "entries": dash.audit_entries()})
            else:
                self._send_json({"v": API_VERSION,
                                 "error": f"no such path {path!r}"},
                                status=404)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-write; nothing to salvage
        except Exception as exc:
            try:
                self._send_json({"v": API_VERSION, "error": repr(exc)},
                                status=500)
            except (BrokenPipeError, ConnectionResetError, ValueError):
                pass

    def _long_poll(self, dash: DashboardServer) -> None:
        query = self._query()
        since = int(self._qs(query, "since", 0))
        timeout_s = min(float(self._qs(query, "timeout_s", 5.0)),
                        MAX_POLL_S)
        events = dash.events.wait_since(since, timeout_s,
                                        stop=dash._stop)
        self._send_json({"v": API_VERSION, "seq": dash.events.seq,
                         "events": events})

    def _sse(self, dash: DashboardServer) -> None:
        query = self._query()
        since = int(self._qs(query, "since", dash.events.seq))
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-store")
        self.end_headers()
        while not dash._stop.is_set():
            events = dash.events.wait_since(since, 1.0, stop=dash._stop)
            if not events:
                # Comment line = keep-alive; also detects dead clients.
                self.wfile.write(b": keep-alive\n\n")
                self.wfile.flush()
                continue
            for event in events:
                since = event["seq"]
                payload = json.dumps(event, default=str)
                self.wfile.write(
                    f"id: {event['seq']}\ndata: {payload}\n\n".encode())
            self.wfile.flush()

    def _flamegraph(self, dash: DashboardServer) -> None:
        query = self._query()
        try:
            body = dash.flamegraph(self._qs(query, "network"),
                                   self._qs(query, "level"))
        except KeyError as exc:
            self._send_json({"v": API_VERSION, "error": str(exc)},
                            status=404)
            return
        self._send_json(body)

    def _trace(self, dash: DashboardServer) -> None:
        trace = dash.trace()
        if trace is None:
            self._send_json({"v": API_VERSION,
                             "error": "no tracer attached"}, status=404)
            return
        extra = {}
        if self._qs(self._query(), "download"):
            extra["Content-Disposition"] = \
                'attachment; filename="repro_trace.json"'
        self._send_json(trace, extra=extra)

    # -- POST ----------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 - stdlib handler name
        dash = self.server.dashboard
        path = urlparse(self.path).path
        try:
            if dash.auth_token is not None:
                supplied = self.headers.get("Authorization", "")
                if supplied != f"Bearer {dash.auth_token}":
                    self._send_json(
                        {"v": API_VERSION, "error": "unauthorized"},
                        status=401,
                        extra={"WWW-Authenticate": "Bearer"})
                    return
            if not path.startswith("/api/actions/"):
                self._send_json({"v": API_VERSION,
                                 "error": f"no such path {path!r}"},
                                status=404)
                return
            action = path[len("/api/actions/"):]
            length = int(self.headers.get("Content-Length") or 0)
            raw = self.rfile.read(length) if length else b""
            try:
                params = json.loads(raw) if raw else {}
                if not isinstance(params, dict):
                    raise ValueError("body must be a JSON object")
            except ValueError as exc:
                self._send_json({"v": API_VERSION, "error": repr(exc)},
                                status=400)
                return
            status, body = dash.perform_action(
                action, params, remote=self.client_address[0])
            self._send_json(body, status=status)
        except (BrokenPipeError, ConnectionResetError):
            pass
        except Exception as exc:
            try:
                self._send_json({"v": API_VERSION, "error": repr(exc)},
                                status=500)
            except (BrokenPipeError, ConnectionResetError, ValueError):
                pass
