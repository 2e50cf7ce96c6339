"""Inference engine behaviour: batching, deadlines, shedding, metrics."""

import time

import numpy as np
import pytest

from repro.nn.network import QuantModel
from repro.rrm.networks import suite
from repro.rrm.suite import network_trace
from repro.serve.engine import (EngineConfig, InferenceEngine, ModelRegistry,
                                RequestStatus)
from repro.serve.metrics import Counter, Gauge, LatencyHistogram

NETWORKS = suite(4)
BY_NAME = {net.name: net for net in NETWORKS}


def _input(network, seed=0):
    rng = np.random.default_rng(seed)
    floats = rng.uniform(-1.0, 1.0, network.input_size)
    return np.asarray(floats * 4096, dtype=np.int64)


def _engine(**overrides):
    defaults = dict(level="e", max_batch_size=8, max_linger_s=0.001)
    defaults.update(overrides)
    return InferenceEngine(networks=NETWORKS,
                           config=EngineConfig(**defaults))


class TestBatching:
    def test_pre_start_submissions_form_one_batch(self):
        engine = _engine()
        name = "wang2018"
        requests = [engine.submit(name, _input(BY_NAME[name], i))
                    for i in range(5)]
        with engine:
            for request in requests:
                assert request.wait(timeout=5.0)
        assert all(r.ok for r in requests)
        # All five were queued before the worker ran, so they must have
        # been served as a single batch of 5.
        assert {r.batch_size for r in requests} == {5}
        assert engine.metrics.batch_sizes == {5: 1}

    def test_batch_capped_at_max_batch_size(self):
        engine = _engine(max_batch_size=8)
        name = "eisen2019"
        requests = [engine.submit(name, _input(BY_NAME[name], i))
                    for i in range(20)]
        with engine:
            for request in requests:
                assert request.wait(timeout=5.0)
        sizes = sorted(r.batch_size for r in requests)
        assert max(sizes) <= 8
        assert sum(engine.metrics.batch_sizes.values()) >= 3  # 8+8+4
        assert engine.metrics.network(name).completed.value == 20

    def test_results_bit_exact_vs_reference(self):
        engine = _engine()
        name = "sun2017"
        network = BY_NAME[name]
        xs = [_input(network, seed) for seed in range(6)]
        requests = [engine.submit(name, x) for x in xs]
        with engine:
            outputs = [r.result(timeout=5.0) for r in requests]
        entry = engine.registry.get(network, "e")
        for x, out in zip(xs, outputs):
            reference = QuantModel(network, entry.params_raw)
            expected = reference.forward(
                np.repeat(x[None, :], network.timesteps, axis=0))
            assert np.array_equal(out, expected)

    def test_pressure_skips_linger(self):
        # A backlog of whole batches is dispatched at once, never held
        # for the (here very long) linger.
        engine = _engine(max_linger_s=5.0)
        name = "naparstek2019"
        requests = [engine.submit(name, _input(BY_NAME[name], i))
                    for i in range(16)]
        started = time.monotonic()
        with engine:
            for request in requests:
                assert request.wait(timeout=5.0)
            assert time.monotonic() - started < 2.5
        assert all(r.ok for r in requests)
        assert engine.metrics.batch_sizes == {8: 2}


class TestDeadlinesAndShedding:
    def test_expired_deadline_rejected_not_served(self):
        engine = _engine()
        name = "yu2017"
        request = engine.submit(name, _input(BY_NAME[name]), timeout_s=0.0)
        with engine:
            assert request.wait(timeout=5.0)
        assert request.status == RequestStatus.REJECTED_TIMEOUT
        assert request.output is None
        with pytest.raises(RuntimeError, match="rejected_timeout"):
            request.result(timeout=1.0)
        assert engine.metrics.total.rejected_timeout.value == 1
        assert engine.metrics.network(name).rejected_timeout.value == 1

    def test_queue_overflow_sheds_capacity(self):
        engine = _engine(queue_capacity=2)
        name = "lee2018"
        requests = [engine.submit(name, _input(BY_NAME[name], i))
                    for i in range(4)]
        shed = [r for r in requests
                if r.status == RequestStatus.REJECTED_CAPACITY]
        assert len(shed) == 2
        assert all(r._done.is_set() for r in shed)
        assert engine.metrics.total.rejected_capacity.value == 2
        with engine:
            for request in requests:
                assert request.wait(timeout=5.0)
        assert sum(1 for r in requests if r.ok) == 2

    def test_unknown_network_raises(self):
        engine = _engine()
        with pytest.raises(KeyError, match="unknown network"):
            engine.submit("resnet50", np.zeros(4, dtype=np.int64))

    def test_bad_input_fails_request_not_worker(self):
        engine = _engine()
        name = "wang2018"
        network = BY_NAME[name]
        bad = engine.submit(name, np.zeros(3, dtype=np.int64))
        with engine:
            assert bad.wait(timeout=5.0)
            assert bad.status == RequestStatus.FAILED
            assert "input shape" in bad.error
            # The worker survives and keeps serving good requests.
            good = engine.submit(name, _input(network))
            assert good.wait(timeout=5.0)
            assert good.ok
        assert engine.metrics.network(name).failed.value == 1

    @pytest.mark.parametrize("value", (32768, -32769))
    def test_out_of_range_input_fails_alone(self, value):
        # Outside int16 a request fails at the edge like a bad shape:
        # no bisect, no batch failure, no breaker failure.
        engine = _engine(breaker_failure_threshold=1)
        name = "sun2017"
        network = BY_NAME[name]
        xs = [_input(network, seed) for seed in range(4)]
        xs[0][0] = -32768  # the int16 minimum itself is served
        xs[2][1] = value
        requests = [engine.submit(name, x) for x in xs]
        with engine:
            for request in requests:
                assert request.wait(timeout=5.0)
        wide = requests.pop(2)
        assert wide.status == RequestStatus.FAILED
        assert "int16" in wide.error
        entry = engine.registry.get(network, "e")
        for x, request in zip(xs[:2] + xs[3:], requests):
            assert request.ok and request.batch_size == 3
            expected = QuantModel(network, entry.params_raw).forward(
                np.repeat(x[None, :], network.timesteps, axis=0))
            assert np.array_equal(request.output, expected)
        metrics = engine.metrics.network(name)
        assert metrics.failed.value == 1
        assert metrics.bisects.value == 0
        assert metrics.batch_failures.value == 0
        assert engine.breaker_states()[name] == "closed"


class TestMetrics:
    def test_counts_and_sim_cycles(self):
        engine = _engine()
        name = "challita2017"
        network = BY_NAME[name]
        n = 6
        requests = [engine.submit(name, _input(network, i))
                    for i in range(n)]
        with engine:
            for request in requests:
                assert request.wait(timeout=5.0)
        net = engine.metrics.network(name)
        assert net.submitted.value == n
        assert net.completed.value == n
        expected_cycles = network_trace(network, "e").total_cycles * n
        assert net.sim_cycles.value == expected_cycles
        assert engine.metrics.total.latency.count == n
        assert engine.metrics.total.latency.percentile(0.5) > 0
        snapshot = engine.metrics.to_dict()
        assert snapshot["per_network"][name]["completed"] == n
        assert snapshot["total"]["sim_cycles"] == expected_cycles

    def test_histogram_percentiles(self):
        histogram = LatencyHistogram()
        for ms in range(1, 101):
            histogram.record(ms / 1e3)
        assert histogram.count == 100
        # Bucket upper bounds quantize by at most one 2**(1/4) step.
        assert 0.045 <= histogram.percentile(0.5) <= 0.062
        assert 0.090 <= histogram.percentile(0.95) <= 0.115
        assert histogram.percentile(1.0) == pytest.approx(0.1, rel=0.2)
        assert histogram.summary()["count"] == 100
        with pytest.raises(ValueError):
            histogram.percentile(1.5)
        with pytest.raises(ValueError):
            histogram.record(-1.0)

    def test_counter_and_gauge(self):
        counter = Counter()
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)
        gauge = Gauge()
        gauge.set(7)
        gauge.set(3)
        assert gauge.value == 3
        assert gauge.max == 7


class TestRegistryAndConfig:
    def test_registry_caches_entries_and_reuses_plan_for(self):
        registry = ModelRegistry(seed=11)
        network = NETWORKS[0]
        first = registry.get(network, "e")
        second = registry.get(network, "e")
        assert first is second
        assert len(registry) == 1
        assert first.cycles_per_request == \
            network_trace(network, "e").total_cycles
        other = registry.get(network, "c")
        assert other is not first
        assert len(registry) == 2

    def test_registry_models_share_params(self):
        registry = ModelRegistry()
        entry = registry.get(NETWORKS[1], "e")
        assert entry.model.params is entry.params_raw
        assert entry.reference.params is entry.params_raw

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(max_batch_size=0)
        with pytest.raises(ValueError):
            EngineConfig(max_linger_s=-1.0)
        with pytest.raises(ValueError):
            EngineConfig(queue_capacity=0)

    def test_start_is_idempotent_and_stop_twice_ok(self):
        engine = _engine()
        engine.start()
        engine.start()
        engine.stop()
        engine.stop()
