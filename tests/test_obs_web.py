"""Live web control plane: HTTP endpoints, streaming, operator
actions, stage-latency decomposition and clean shutdown."""

import http.client
import json
import math
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.obs.metrics import LatencyHistogram
from repro.obs.web import (ACTIONS, API_VERSION, DashboardServer,
                           EventLog, PROMETHEUS_CONTENT_TYPE)
from repro.rrm.networks import suite
from repro.serve.engine import EngineConfig, InferenceEngine
from repro.serve.metrics import STAGES, ServeMetrics

NETWORKS = suite(4)
BY_NAME = {net.name: net for net in NETWORKS}


def _input(network, seed=0):
    rng = np.random.default_rng(seed)
    floats = rng.uniform(-1.0, 1.0, network.input_size)
    return np.asarray(floats * 4096, dtype=np.int64)


def _get(url, timeout=30.0):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.status, dict(response.headers), response.read()


def _get_json(url):
    try:
        status, headers, body = _get(url)
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), json.loads(exc.read())
    return status, headers, json.loads(body)


def _post(url, body=None, token=None, raw=None):
    data = raw if raw is not None else json.dumps(body or {}).encode()
    request = urllib.request.Request(url, data=data, method="POST")
    if token is not None:
        request.add_header("Authorization", f"Bearer {token}")
    try:
        with urllib.request.urlopen(request, timeout=30.0) as response:
            return (response.status, dict(response.headers),
                    json.loads(response.read()))
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), json.loads(exc.read())


@pytest.fixture(scope="module")
def served():
    """One engine with a few completed requests plus a live dashboard."""
    engine = InferenceEngine(
        networks=NETWORKS,
        config=EngineConfig(level="e", max_batch_size=4,
                            max_linger_s=0.001))
    engine.start()
    name = "wang2018"
    requests = [engine.submit(name, _input(BY_NAME[name], i))
                for i in range(6)]
    for request in requests:
        assert request.wait(timeout=30.0)
    dashboard = DashboardServer(engine=engine, sample_interval_s=0.05)
    dashboard.start()
    yield engine, dashboard
    dashboard.stop()
    engine.stop()


class TestEventLog:
    def test_seq_is_monotonic_and_since_filters(self):
        log = EventLog()
        for i in range(5):
            log.append("k", {"i": i})
        assert log.seq == 5
        assert [e["seq"] for e in log.since(2)] == [3, 4, 5]
        assert log.since(5) == []

    def test_wait_since_unblocks_on_append(self):
        log = EventLog()
        out = []
        waiter = threading.Thread(
            target=lambda: out.extend(log.wait_since(0, 10.0)))
        waiter.start()
        time.sleep(0.05)
        log.append("k", {})
        waiter.join(10.0)
        assert not waiter.is_alive()
        assert [e["seq"] for e in out] == [1]

    def test_wait_since_returns_empty_when_stopped(self):
        log = EventLog()
        stop = threading.Event()
        result = {}

        def waiter():
            result["events"] = log.wait_since(0, 30.0, stop=stop)

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.05)
        stop.set()
        log.kick()
        thread.join(10.0)
        assert not thread.is_alive()
        assert result["events"] == []

    def test_log_is_bounded_but_seq_keeps_counting(self):
        log = EventLog(maxlen=8)
        for i in range(20):
            log.append("k", {"i": i})
        events = log.since(0)
        assert len(events) == 8
        assert events[-1]["seq"] == 20
        assert log.seq == 20


class TestLatencyHistogramExtensions:
    def test_fast_index_matches_log_formula(self):
        hist = LatencyHistogram()
        rng = np.random.default_rng(7)
        for value in 10.0 ** rng.uniform(-6.5, 2.0, 2000):
            value = float(value)
            if value <= hist.FLOOR:
                expected = 0
            else:
                expected = max(0, int(math.log(value / hist.FLOOR,
                                               hist.BASE)) + 1)
            assert hist._index(value) == expected

    def test_record_n_equals_n_records(self):
        a, b = LatencyHistogram(), LatencyHistogram()
        for _ in range(5):
            a.record(0.003)
        b.record_n(0.003, 5)
        assert a.summary() == b.summary()

    def test_record_n_rejects_negative_and_skips_empty(self):
        hist = LatencyHistogram()
        with pytest.raises(ValueError):
            hist.record_n(-1.0, 3)
        hist.record_n(0.001, 0)
        assert hist.count == 0

    def test_merged_equals_union_of_samples(self):
        a, b, union = (LatencyHistogram(), LatencyHistogram(),
                       LatencyHistogram())
        for value in (1e-5, 3e-4):
            a.record(value)
            union.record(value)
        b.record(2e-3)
        union.record(2e-3)
        merged = LatencyHistogram.merged([a, b])
        assert merged.summary() == union.summary()

    def test_merged_of_empties_is_empty(self):
        merged = LatencyHistogram.merged([LatencyHistogram(),
                                          LatencyHistogram()])
        assert merged.summary()["count"] == 0


class TestStageDecomposition:
    def test_per_network_records_and_read_time_totals(self):
        metrics = ServeMetrics()
        metrics.on_stages("a", [0.001, 0.002], 0.0005, 0.003)
        metrics.on_stages("b", [0.004], 0.001, 0.002)
        stages_a = metrics.per_network["a"].stages
        for stage in STAGES:
            assert stages_a[stage].count == 2
        totals = metrics.stage_totals()
        for stage in STAGES:
            assert totals[stage]["count"] == 3
        assert totals["queue_wait"]["max_s"] == 0.004
        # The hot path never writes total's own histograms; to_dict
        # presents the read-time merge instead.
        assert metrics.total.stages["queue_wait"].count == 0
        doc = metrics.to_dict()
        assert doc["total"]["stages"]["execute"]["count"] == 3
        assert doc["per_network"]["b"]["stages"]["execute"]["count"] == 1

    def test_stage_family_in_collect(self):
        metrics = ServeMetrics()
        metrics.on_stages("a", [0.001], 0.0005, 0.003)
        families = {row[0]: row for row in metrics.collect()}
        name, kind, _, samples = families["serve_stage_latency_seconds"]
        assert kind == "summary"
        labels = {(s[0]["network"], s[0]["stage"]) for s in samples}
        assert labels == {("a", stage) for stage in STAGES}

    def test_engine_decomposition_lines_up_with_completed(self, served):
        engine, _ = served
        net = engine.metrics.per_network["wang2018"]
        assert net.stages["queue_wait"].count == net.completed.value
        totals = engine.metrics.stage_totals()
        total_completed = engine.metrics.total.completed.value
        for stage in STAGES:
            assert totals[stage]["count"] == total_completed
            assert totals[stage]["p50_s"] is not None


class TestHttpGet:
    def test_prometheus_text_roundtrip(self, served):
        engine, dashboard = served
        status, headers, body = _get(dashboard.url + "/metrics")
        assert status == 200
        assert headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
        text = body.decode()
        assert "# TYPE repro_build_info gauge" in text
        assert "# TYPE repro_uptime_seconds gauge" in text
        completed = None
        for line in text.splitlines():
            if line.startswith('serve_completed_total{network="wang2018"}'):
                completed = float(line.rsplit(" ", 1)[1])
        assert completed == engine.metrics.total.completed.value

    def test_metrics_json_schema(self, served):
        _, dashboard = served
        status, headers, body = _get_json(dashboard.url
                                          + "/api/metrics.json")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        assert body["v"] == API_VERSION
        assert isinstance(body["seq"], int)
        assert isinstance(body["t"], float)
        assert "serve_completed_total" in body["metrics"]

    def test_status_schema(self, served):
        engine, dashboard = served
        status, _, body = _get_json(dashboard.url + "/api/status")
        assert status == 200
        assert body["v"] == API_VERSION
        assert body["mode"] == "engine"
        assert body["actions"] == list(ACTIONS)
        assert set(body["build"]) == {"version", "engine"}
        assert body["uptime_s"] > 0
        assert body["networks"] == [net.name for net in engine.networks]
        sub = body["engine"]
        for key in ("queue_depths", "total_queue_depth", "breakers",
                    "plan_cache_entries", "level", "injector"):
            assert key in sub
        assert set(body["stages"]) == set(STAGES)

    def test_audit_schema(self, served):
        _, dashboard = served
        status, _, body = _get_json(dashboard.url + "/api/audit")
        assert status == 200
        assert body["v"] == API_VERSION
        assert isinstance(body["entries"], list)

    def test_bench_endpoint_reads_bench_files(self, tmp_path):
        (tmp_path / "BENCH_demo.json").write_text(
            json.dumps({"bench": "demo", "value": 1}))
        (tmp_path / "BENCH_broken.json").write_text("{not json")
        with DashboardServer(bench_dir=str(tmp_path)) as dashboard:
            status, _, body = _get_json(dashboard.url + "/api/bench")
        assert status == 200
        assert body["v"] == API_VERSION
        assert body["benches"] == {"BENCH_demo.json":
                                   {"bench": "demo", "value": 1}}

    def test_flamegraph_schema(self, served):
        _, dashboard = served
        status, _, body = _get_json(
            dashboard.url + "/api/flamegraph?network=wang2018")
        assert status == 200
        assert body["v"] == API_VERSION
        assert body["network"] == "wang2018"
        assert body["level"] == "e"
        assert "wang2018" in body["folded"]

    def test_flamegraph_404_when_nothing_attached(self):
        with DashboardServer() as dashboard:
            status, _, body = _get_json(dashboard.url + "/api/flamegraph")
        assert status == 404
        assert "error" in body

    def test_trace_404_without_tracer(self, served):
        _, dashboard = served
        status, _, body = _get_json(dashboard.url + "/api/trace")
        assert status == 404
        assert "error" in body

    def test_trace_serves_chrome_trace_with_download(self):
        from repro.obs.spans import SpanTracer
        engine = InferenceEngine(networks=NETWORKS,
                                 config=EngineConfig(level="e"),
                                 tracer=SpanTracer(process_name="t"))
        with DashboardServer(engine=engine) as dashboard:
            status, headers, body = _get_json(
                dashboard.url + "/api/trace?download=1")
        assert status == 200
        assert "traceEvents" in body
        assert headers["Content-Disposition"].startswith("attachment")

    def test_index_and_app_js_served(self, served):
        _, dashboard = served
        status, headers, body = _get(dashboard.url + "/")
        assert status == 200
        assert headers["Content-Type"].startswith("text/html")
        assert b"<!doctype html>" in body.lower()
        status, headers, _ = _get(dashboard.url + "/app.js")
        assert status == 200
        assert headers["Content-Type"].startswith(
            "application/javascript")

    def test_unknown_path_is_json_404(self, served):
        _, dashboard = served
        status, _, body = _get_json(dashboard.url + "/api/nope")
        assert status == 404
        assert "error" in body


class TestStreaming:
    def test_long_poll_returns_existing_events_immediately(self, served):
        _, dashboard = served
        dashboard.events.append("test", {"x": 1})
        status, _, body = _get_json(
            dashboard.url + "/api/updates?since=0&timeout_s=5")
        assert status == 200
        assert body["v"] == API_VERSION
        seqs = [event["seq"] for event in body["events"]]
        assert seqs == sorted(seqs)
        assert body["seq"] >= seqs[-1]

    def test_long_poll_monotonic_under_concurrency(self, served):
        _, dashboard = served
        errors = []
        stop_appending = threading.Event()

        def poll():
            since = dashboard.events.seq
            seen = []
            for _ in range(5):
                status, _, body = _get_json(
                    f"{dashboard.url}/api/updates"
                    f"?since={since}&timeout_s=5")
                if status != 200:
                    errors.append(("status", status))
                    return
                seqs = [event["seq"] for event in body["events"]]
                if any(s <= since for s in seqs) or seqs != sorted(seqs):
                    errors.append(("order", since, seqs))
                    return
                seen.extend(seqs)
                if seqs:
                    since = seqs[-1]
            if len(seen) != len(set(seen)):
                errors.append(("duplicates", seen))

        def append():
            i = 0
            while not stop_appending.is_set():
                dashboard.events.append("tick", {"i": i})
                i += 1
                time.sleep(0.002)

        appender = threading.Thread(target=append)
        pollers = [threading.Thread(target=poll) for _ in range(4)]
        appender.start()
        for poller in pollers:
            poller.start()
        for poller in pollers:
            poller.join(60.0)
        stop_appending.set()
        appender.join(10.0)
        assert not errors
        assert not any(poller.is_alive() for poller in pollers)

    def test_sse_stream_ids_are_monotonic(self, served):
        _, dashboard = served
        connection = http.client.HTTPConnection(
            dashboard.host, dashboard.port, timeout=30)
        try:
            connection.request("GET", "/api/stream?since=0")
            response = connection.getresponse()
            assert response.status == 200
            assert response.headers["Content-Type"] == "text/event-stream"
            for i in range(3):
                dashboard.events.append("test", {"i": i})
            ids = []
            while len(ids) < 3:
                line = response.fp.readline()
                if line.startswith(b"id: "):
                    ids.append(int(line[4:].strip()))
            assert ids == sorted(ids)
            assert len(set(ids)) == len(ids)
        finally:
            connection.close()


class TestOperatorActions:
    def test_flush_plan_cache_takes_effect_and_audits(self, served):
        engine, dashboard = served
        engine.registry.get(BY_NAME["wang2018"], "e")
        assert len(engine.registry) > 0
        before = len(dashboard.audit_entries())
        status, _, body = _post(
            dashboard.url + "/api/actions/flush-plan-cache")
        assert status == 200
        assert body["ok"] is True
        assert body["detail"]["entries"] > 0
        assert len(engine.registry) == 0
        entries = dashboard.audit_entries()
        assert len(entries) == before + 1
        assert entries[-1]["action"] == "flush-plan-cache"
        assert entries[-1]["ok"] is True

    def test_chaos_arms_engine_and_toggle_disables(self, served):
        engine, dashboard = served
        status, _, body = _post(dashboard.url + "/api/actions/chaos",
                                {"seed": 7, "requests": 5})
        assert status == 200
        assert body["detail"]["armed"] == "engine"
        assert engine.injector is not None
        assert engine.injector.enabled is True
        status, _, body = _post(
            dashboard.url + "/api/actions/toggle-injector")
        assert status == 200
        assert body["detail"]["enabled"] is False
        assert engine.injector.enabled is False
        actions = [e["action"] for e in dashboard.audit_entries()]
        assert actions[-2:] == ["chaos", "toggle-injector"]
        engine.injector = None

    def test_actions_appear_in_event_stream(self, served):
        _, dashboard = served
        since = dashboard.events.seq
        _post(dashboard.url + "/api/actions/flush-plan-cache")
        kinds = [event["kind"]
                 for event in dashboard.events.since(since)]
        assert "action" in kinds

    def test_drain_without_cluster_is_409_and_audited(self, served):
        _, dashboard = served
        status, _, body = _post(dashboard.url + "/api/actions/drain",
                                {"shard": 0})
        assert status == 409
        assert body["ok"] is False
        assert dashboard.audit_entries()[-1]["ok"] is False

    def test_toggle_injector_without_injector_is_409(self, served):
        engine, dashboard = served
        assert getattr(engine, "injector", None) is None
        status, _, body = _post(
            dashboard.url + "/api/actions/toggle-injector")
        assert status == 409
        assert "error" in body["detail"]

    def test_unknown_action_is_404_with_catalog(self, served):
        _, dashboard = served
        status, _, body = _post(dashboard.url + "/api/actions/reboot")
        assert status == 404
        assert body["detail"]["known"] == list(ACTIONS)

    def test_malformed_json_body_is_400(self, served):
        _, dashboard = served
        status, _, body = _post(
            dashboard.url + "/api/actions/flush-plan-cache",
            raw=b"{not json")
        assert status == 400
        assert "error" in body

    def test_post_to_unknown_path_is_404(self, served):
        _, dashboard = served
        status, _, body = _post(dashboard.url + "/api/nope")
        assert status == 404


class TestPostAuth:
    @pytest.fixture()
    def auth_dashboard(self, served):
        engine, _ = served
        dashboard = DashboardServer(engine=engine, auth_token="sesame")
        dashboard.start()
        yield dashboard
        dashboard.stop()

    def test_post_without_token_is_401(self, auth_dashboard):
        status, headers, body = _post(
            auth_dashboard.url + "/api/actions/flush-plan-cache")
        assert status == 401
        assert headers["WWW-Authenticate"] == "Bearer"
        assert body["error"] == "unauthorized"
        # A rejected request never reaches the action layer.
        assert auth_dashboard.audit_entries() == []

    def test_post_with_wrong_token_is_401(self, auth_dashboard):
        status, _, _ = _post(
            auth_dashboard.url + "/api/actions/flush-plan-cache",
            token="wrong")
        assert status == 401

    def test_post_with_token_succeeds(self, served, auth_dashboard):
        engine, _ = served
        engine.registry.get(BY_NAME["wang2018"], "e")
        status, _, body = _post(
            auth_dashboard.url + "/api/actions/flush-plan-cache",
            token="sesame")
        assert status == 200
        assert body["ok"] is True
        assert len(engine.registry) == 0

    def test_reads_stay_open_without_token(self, auth_dashboard):
        status, _, body = _get_json(auth_dashboard.url + "/api/status")
        assert status == 200
        assert body["v"] == API_VERSION


class TestLifecycle:
    def test_stop_joins_every_thread_even_with_open_sse(self):
        before = set(threading.enumerate())
        dashboard = DashboardServer(sample_interval_s=0.05)
        dashboard.start()
        connection = http.client.HTTPConnection(
            dashboard.host, dashboard.port, timeout=30)
        connection.request("GET", "/api/stream")
        response = connection.getresponse()
        assert response.status == 200
        dashboard.events.append("test", {})
        assert response.fp.readline()  # the handler is live mid-stream
        dashboard.stop()
        leaked = [thread for thread
                  in set(threading.enumerate()) - before
                  if thread.is_alive()]
        assert leaked == []
        connection.close()

    def test_restart_after_stop(self):
        dashboard = DashboardServer()
        dashboard.start()
        first = dashboard.url
        dashboard.stop()
        dashboard.start()
        try:
            status, _, body = _get_json(dashboard.url + "/api/status")
            assert status == 200
            assert body["mode"] == "none"
        finally:
            dashboard.stop()
        assert first  # both generations served from a real port

    def test_stop_unregisters_collectors(self, served):
        engine, _ = served
        from repro.obs.metrics import REGISTRY
        extra = DashboardServer(engine=engine)
        extra.start()
        extra.stop()
        # The module fixture's dashboard is still attached, so exactly
        # one copy of the engine collector must remain registered.
        text = REGISTRY.prometheus_text()
        assert text.count("# TYPE serve_completed_total counter") == 1
