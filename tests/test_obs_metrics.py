"""Unified metrics registry: families, exposition, empty-histogram guards."""

import json

import pytest

from repro.obs.metrics import (Counter, CounterFamily, Gauge, GaugeFamily,
                               HistogramFamily, LatencyHistogram,
                               MetricsRegistry)


class TestPrimitives:
    def test_counter(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_high_water(self):
        g = Gauge()
        g.set(7)
        g.set(3)
        assert g.value == 3
        assert g.max == 7

    def test_histogram_percentiles(self):
        h = LatencyHistogram()
        for ms in range(1, 101):
            h.record(ms / 1e3)
        assert h.count == 100
        assert abs(h.mean - 0.0505) < 1e-9
        p50 = h.percentile(0.50)
        # Log buckets: <=19% relative error per bucket.
        assert 0.04 <= p50 <= 0.06
        assert h.percentile(1.0) == h.summary()["max_s"] == 0.1

    def test_histogram_sum_property(self):
        h = LatencyHistogram()
        h.record(0.25)
        h.record(0.75)
        assert h.sum == pytest.approx(1.0)


class TestEmptyHistogramGuards:
    """The empty-histogram bugfix: quantiles are None, never garbage."""

    def test_percentile_none_when_empty(self):
        h = LatencyHistogram()
        assert h.percentile(0.5) is None
        assert h.percentile(0.99) is None

    def test_summary_none_fields_when_empty(self):
        summary = LatencyHistogram().summary()
        assert summary["count"] == 0
        for key in ("mean_s", "min_s", "max_s", "p50_s", "p95_s", "p99_s"):
            assert summary[key] is None

    def test_render_dashes_for_idle_network(self):
        # A bench result where one network received zero traffic must
        # render '-' cells instead of crashing on None * 1e3.
        from repro.bench import render
        busy = {"completed": 2, "p50_s": 0.01, "p99_s": 0.01}
        idle = {"completed": 0, "p50_s": None, "p99_s": None}
        result = {
            "bench": "serve", "config": {"level": "e"},
            "host": {"cpu_count": 1},
            "per_network": {"busy": busy, "idle": idle},
            "summary": {"achieved_throughput_rps": 1.0, "p99_s": None},
        }
        table = render(result)
        idle_row = next(line for line in table.splitlines()
                        if line.startswith("idle"))
        assert idle_row.split()[1:] == ["0", "-", "-"]
        assert "None" not in table


class TestFamilies:
    def test_counter_family_labels(self):
        fam = CounterFamily("f_total", "help", ("kind",))
        fam.inc(kind="a")
        fam.inc(2, kind="b")
        fam.inc(kind="a")
        assert fam.labels(kind="a").value == 2
        assert fam.samples() == [({"kind": "a"}, 2), ({"kind": "b"}, 2)]

    def test_label_schema_enforced(self):
        fam = CounterFamily("f_total", "", ("kind",))
        with pytest.raises(ValueError):
            fam.labels(wrong="x")
        with pytest.raises(ValueError):
            fam.labels()

    def test_unlabeled_family(self):
        fam = GaugeFamily("g", "")
        fam.set(9)
        assert fam.samples() == [({}, 9)]

    def test_histogram_family_summary_samples(self):
        fam = HistogramFamily("h_seconds", "", ("net",))
        fam.record(0.5, net="x")
        samples = fam.samples()
        quantiles = [s for s in samples if "quantile" in s[0]]
        assert len(quantiles) == 3
        assert ({"net": "x"}, 0.5, "_sum") in samples
        assert ({"net": "x"}, 1, "_count") in samples

    def test_invalid_metric_name_rejected(self):
        with pytest.raises(ValueError):
            CounterFamily("9bad", "")
        with pytest.raises(ValueError):
            CounterFamily("has space", "")


class TestRegistry:
    def test_idempotent_registration(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", "help", ("k",))
        b = reg.counter("x_total", "help", ("k",))
        assert a is b

    def test_conflicting_registration_raises(self):
        reg = MetricsRegistry()
        reg.counter("x_total", "", ("k",))
        with pytest.raises(ValueError):
            reg.gauge("x_total", "", ("k",))
        with pytest.raises(ValueError):
            reg.counter("x_total", "", ("other",))

    def test_collector_round_trip(self):
        reg = MetricsRegistry()

        @reg.register_collector
        def collect():
            return [("c_total", "counter", "h", [({"k": "v"}, 3)])]

        rows = reg.collect()
        assert ("c_total", "counter", "h", [({"k": "v"}, 3)]) in rows
        reg.unregister_collector(collect)
        assert reg.collect() == []

    def test_prometheus_text_format(self):
        reg = MetricsRegistry()
        fam = reg.counter("req_total", "Requests.", ("net",))
        fam.inc(5, net="sun2017")
        reg.gauge("depth", "Queue depth.").set(2)
        text = reg.prometheus_text()
        assert "# HELP req_total Requests." in text
        assert "# TYPE req_total counter" in text
        assert 'req_total{net="sun2017"} 5' in text
        assert "# TYPE depth gauge" in text
        assert "depth 2" in text
        assert text.endswith("\n")

    def test_prometheus_label_escaping(self):
        reg = MetricsRegistry()
        reg.counter("e_total", "", ("k",)).inc(k='a"b\nc\\d')
        text = reg.prometheus_text()
        assert r'k="a\"b\nc\\d"' in text

    def test_summary_exposition(self):
        reg = MetricsRegistry()
        reg.histogram("lat_seconds", "", ("net",)).record(0.1, net="x")
        text = reg.prometheus_text()
        assert "# TYPE lat_seconds summary" in text
        assert 'lat_seconds{net="x",quantile="0.5"}' in text
        assert 'lat_seconds_sum{net="x"}' in text
        assert 'lat_seconds_count{net="x"} 1' in text

    def test_to_dict_is_json_ready(self):
        reg = MetricsRegistry()
        reg.counter("a_total", "").inc(2)
        json.dumps(reg.to_dict())


class TestLabelEscapingRoundTrip:
    """escape_label_value must invert exactly via unescape_label_value."""

    CASES = (
        "plain",
        "shard-0/replica-1",          # cluster worker ids: '/' verbatim
        'quote " inside',
        "back\\slash",
        "new\nline",
        "\\n",                         # literal backslash-n, NOT newline
        '\\"',                         # literal backslash-quote
        "mix \\ of \" all\n three \\\\",
        "",
        "trailing backslash \\",
    )

    def test_round_trip_exact(self):
        from repro.obs.metrics import (escape_label_value,
                                       unescape_label_value)
        for value in self.CASES:
            escaped = escape_label_value(value)
            assert "\n" not in escaped  # exposition lines stay one-line
            assert unescape_label_value(escaped) == value

    def test_escape_order_backslash_first(self):
        # If '"' were escaped before '\\', the backslash introduced by
        # the quote escape would be doubled and the round trip broken.
        from repro.obs.metrics import (escape_label_value,
                                       unescape_label_value)
        assert escape_label_value('"') == r'\"'
        assert unescape_label_value(r'\\n') == "\\n"
        assert unescape_label_value(r'\n') == "\n"

    def test_worker_label_survives_exposition(self):
        from repro.obs.metrics import escape_label_value
        reg = MetricsRegistry()
        fam = reg.counter("w_total", "", ("worker",))
        fam.inc(worker="shard-0/replica-1")
        text = reg.prometheus_text()
        assert 'w_total{worker="shard-0/replica-1"} 1' in text
        assert escape_label_value("shard-0/replica-1") == \
            "shard-0/replica-1"

    def test_help_text_escaping(self):
        reg = MetricsRegistry()
        reg.counter("h_total", "line one\nline \\ two").inc()
        text = reg.prometheus_text()
        assert r"# HELP h_total line one\nline \\ two" in text


class TestServeMetricsBridge:
    def test_serve_metrics_register_and_expose(self):
        from repro.serve.metrics import ServeMetrics
        reg = MetricsRegistry()
        metrics = ServeMetrics().register(reg)
        metrics.on_submit("sun2017")
        metrics.on_batch("sun2017", 2, [0.01, 0.02], 1000)
        metrics.on_fault("sun2017", "bitflip")
        text = reg.prometheus_text()
        assert 'serve_submitted_total{network="sun2017"} 1' in text
        assert 'serve_completed_total{network="sun2017"} 2' in text
        assert 'serve_faults_injected_by_kind_total{kind="bitflip"} 1' \
            in text
        assert 'serve_batches_by_size_total{size="2"} 1' in text
        assert 'serve_request_latency_seconds_count{network="sun2017"} 2' \
            in text

    def test_serve_to_dict_shape_unchanged(self):
        from repro.serve.metrics import ServeMetrics
        metrics = ServeMetrics()
        metrics.on_batch("x", 1, [0.01], 500)
        snap = metrics.to_dict()
        assert snap["total"]["completed"] == 1
        assert snap["total"]["sim_cycles"] == 500
        assert snap["total"]["latency"]["count"] == 1
        assert snap["batch_size_distribution"] == {"1": 1}

    def test_turbo_counters_on_global_registry(self):
        from repro.core import Cpu, Memory
        from repro.isa import assemble
        from repro.obs.metrics import REGISTRY
        fam = REGISTRY.counter(
            "iss_turbo_events_total",
            "Turbo-engine analysis, plan-cache and runtime-bail events.",
            ("event",))
        def counts():
            return {s[0]["event"]: s[1] for s in fam.samples()}

        before = counts()
        source = """
            li x1, 0
            li x2, 400
        loop:
            addi x1, x1, 1
            bne x1, x2, loop
            ebreak
        """
        program = assemble(source)
        cpu = Cpu(program, Memory(1 << 16), engine="turbo")
        cpu.run()
        after = counts()
        compiled = sum(v for k, v in after.items()
                       if k.startswith("compile_"))
        compiled_before = sum(v for k, v in before.items()
                              if k.startswith("compile_"))
        assert compiled > compiled_before
        # Same program object again: the analysis cache must hit.
        hits_before = after.get("cache_hit", 0)
        Cpu(program, Memory(1 << 16), engine="turbo").run()
        assert counts().get("cache_hit", 0) == hits_before + 1
