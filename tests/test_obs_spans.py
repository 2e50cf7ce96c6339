"""Span tracing: Chrome trace export and serving-engine integration."""

import json

import numpy as np

from repro.obs.spans import SpanTracer
from repro.rrm.networks import suite
from repro.serve.engine import EngineConfig, InferenceEngine

NETWORKS = suite(4)


def _input(network, seed=0):
    rng = np.random.default_rng(seed)
    floats = rng.uniform(-1.0, 1.0, network.input_size)
    return np.asarray(floats * 4096, dtype=np.int64)


class TestSpanTracer:
    def test_complete_and_instant_events(self):
        clock = iter([0.0, 0.001, 0.003, 0.004]).__next__
        tracer = SpanTracer(clock=clock)
        start = tracer.now_us()
        tracer.complete("work", "worker", start)
        tracer.instant("mark", "worker")
        assert tracer.n_events == 2
        trace = tracer.to_chrome_trace()
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        instants = [e for e in trace["traceEvents"] if e["ph"] == "i"]
        assert spans[0]["name"] == "work"
        assert spans[0]["dur"] == 2000.0
        assert instants[0]["s"] == "t"

    def test_track_metadata(self):
        tracer = SpanTracer(process_name="proc")
        tracer.instant("a", "track-one")
        tracer.instant("b", "track-two")
        trace = tracer.to_chrome_trace()
        meta = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        names = {e["args"].get("name") for e in meta
                 if e["name"] == "thread_name"}
        assert names == {"track-one", "track-two"}
        assert any(e["name"] == "process_name"
                   and e["args"]["name"] == "proc" for e in meta)

    def test_bounded_buffer_drops_newest(self):
        tracer = SpanTracer(max_events=2)
        for i in range(5):
            tracer.instant(f"e{i}", "t")
        assert tracer.n_events == 2
        assert tracer.n_dropped == 3
        trace = tracer.to_chrome_trace()
        assert trace["otherData"]["dropped_events"] == 3

    def test_events_sorted_by_timestamp(self):
        tracer = SpanTracer()
        tracer.complete("late", "t", start_us=500.0, end_us=600.0)
        tracer.complete("early", "t", start_us=10.0, end_us=20.0)
        events = [e for e in tracer.to_chrome_trace()["traceEvents"]
                  if e["ph"] == "X"]
        assert [e["name"] for e in events] == ["early", "late"]

    def test_dump_is_valid_json(self, tmp_path):
        tracer = SpanTracer()
        tracer.instant("x", "t", args={"k": 1})
        path = tmp_path / "trace.json"
        tracer.dump(str(path))
        data = json.loads(path.read_text())
        assert "traceEvents" in data
        assert data["displayTimeUnit"] == "ms"

    def test_negative_duration_clamped(self):
        tracer = SpanTracer()
        tracer.complete("w", "t", start_us=100.0, end_us=50.0)
        event = [e for e in tracer.to_chrome_trace()["traceEvents"]
                 if e["ph"] == "X"][0]
        assert event["dur"] == 0.0


class TestEngineTracing:
    def _traced_engine(self, **overrides):
        tracer = SpanTracer()
        defaults = dict(level="e", max_batch_size=4, max_linger_s=0.001)
        defaults.update(overrides)
        engine = InferenceEngine(networks=NETWORKS,
                                 config=EngineConfig(**defaults),
                                 tracer=tracer)
        return engine, tracer

    def test_trace_ids_surface_in_responses(self):
        engine, _tracer = self._traced_engine()
        network = NETWORKS[0]
        with engine:
            request = engine.submit(network.name, _input(network))
            request.wait(timeout=5.0)
        assert request.ok
        assert request.trace_id == f"{network.name}-{request.id}"

    def test_trace_ids_assigned_without_tracer(self):
        engine = InferenceEngine(networks=NETWORKS,
                                 config=EngineConfig(level="e"))
        network = NETWORKS[0]
        with engine:
            request = engine.submit(network.name, _input(network))
            request.wait(timeout=5.0)
        assert request.trace_id

    def test_pipeline_spans_recorded(self):
        engine, tracer = self._traced_engine()
        network = NETWORKS[0]
        with engine:
            requests = [engine.submit(network.name, _input(network, i))
                        for i in range(4)]
            for request in requests:
                request.wait(timeout=5.0)
        trace = tracer.to_chrome_trace()
        names = {e["name"] for e in trace["traceEvents"]}
        assert {"enqueue", "batch-assembly", "execute", "respond"} <= names
        respond = [e for e in trace["traceEvents"]
                   if e["name"] == "respond"]
        got = {e["args"]["trace_id"] for e in respond}
        assert got == {r.trace_id for r in requests}

    def test_execute_span_has_batch_args(self):
        engine, tracer = self._traced_engine()
        network = NETWORKS[0]
        with engine:
            requests = [engine.submit(network.name, _input(network, i))
                        for i in range(3)]
            for request in requests:
                request.wait(timeout=5.0)
        executes = [e for e in tracer.to_chrome_trace()["traceEvents"]
                    if e["name"] == "execute"]
        assert executes
        for event in executes:
            assert event["args"]["ok"] is True
            assert event["args"]["depth"] == 0
            assert event["args"]["batch"] >= 1

    def test_untraced_engine_has_no_tracer_overhead_objects(self):
        engine = InferenceEngine(networks=NETWORKS,
                                 config=EngineConfig(level="e"))
        assert engine.tracer is None
        assert engine._injector_metrics is engine.metrics


class TestChaosTracing:
    def test_chaos_bench_emits_perfetto_trace(self, tmp_path):
        from repro.bench import chaos
        trace_path = tmp_path / "chaos_trace.json"
        result = chaos(scale=4, requests=40, duration=0.5, out=None,
                       trace_out=str(trace_path))
        assert result["trace"]["path"] == str(trace_path)
        assert result["trace"]["events"] > 0
        data = json.loads(trace_path.read_text())
        phases = {e["ph"] for e in data["traceEvents"]}
        assert {"M", "X"} <= phases
        names = {e["name"] for e in data["traceEvents"]}
        assert "execute" in names
        # Injected faults appear as instants on the faults track.
        assert any(name.startswith("fault:") for name in names)
