"""The engine's single dispatcher: the rate-gated linger, due-first order
across networks, one thread under load, a batch that never returns, and
exactly-once, bit-exact settlement under heavy thread switching."""

import math
import os
import sys
import threading
import time

import numpy as np
import pytest

import repro.serve.engine as engine_mod
from repro.faults import FaultInjector, FaultSpec
from repro.nn.network import QuantModel
from repro.rrm.networks import suite
from repro.serve.engine import (EngineConfig, InferenceEngine, Request,
                                RequestStatus)

NETWORKS = suite(4)
BY_NAME = {net.name: net for net in NETWORKS}


def _input(network, seed=0):
    rng = np.random.default_rng(seed)
    floats = rng.uniform(-1.0, 1.0, network.input_size)
    return np.asarray(floats * 4096, dtype=np.int64)


def _engine(specs=None, **overrides):
    defaults = dict(level="e", max_batch_size=8, max_linger_s=0.001)
    defaults.update(overrides)
    injector = None if specs is None else FaultInjector(specs, seed=2020)
    return InferenceEngine(networks=NETWORKS,
                           config=EngineConfig(**defaults),
                           fault_injector=injector)


def _expected(engine, network, x):
    reference = QuantModel(network,
                           engine.registry.get(network, "e").params_raw)
    return reference.forward(
        np.repeat(x[None, :], network.timesteps, axis=0))


class _CallOrder:
    """Wraps a served model and logs which network each call ran."""

    def __init__(self, model, name, log):
        self.model, self.name, self.log = model, name, log

    def infer(self, xs):
        self.log.append(self.name)
        return self.model.infer(xs)


class TestRateGate:
    def _queue(self, arrivals):
        queue = engine_mod._NetworkQueue(NETWORKS[0])
        for t in arrivals:
            queue.arrive(t)
            queue.pending.append(Request(network=NETWORKS[0].name,
                                         x_raw=np.zeros(1), submit_time=t))
        return queue

    def test_unknown_rate_goes_at_once(self):
        assert self._queue([1.0]).ready_at(16, 0.002) == -math.inf

    def test_slow_arrivals_go_at_once(self):
        queue = self._queue([1.0, 1.05, 1.1])
        assert queue.gap == pytest.approx(0.05)
        assert queue.ready_at(16, 0.002) == -math.inf

    def test_fast_arrivals_linger(self):
        queue = self._queue([1.0, 1.0005, 1.001])
        assert queue.ready_at(16, 0.002) == 1.002

    def test_full_batch_goes_at_once(self):
        queue = self._queue([1.0, 1.0005, 1.001])
        assert queue.ready_at(3, 0.002) == -math.inf

    def test_gap_is_smoothed(self):
        queue = self._queue([0.0, 1.0, 1.5])
        assert queue.gap == pytest.approx(1.0 + 0.125 * (0.5 - 1.0))


class TestLinger:
    def test_lone_request_skips_long_linger(self):
        engine = _engine(max_linger_s=0.5)
        name = "sun2017"
        with engine:
            first = engine.submit(name, _input(BY_NAME[name]))
            assert first.wait(timeout=5.0) and first.ok
            time.sleep(0.6)  # arrivals slower than the linger
            second = engine.submit(name, _input(BY_NAME[name], 1))
            assert second.wait(timeout=5.0) and second.ok
        assert first.latency < 0.25
        assert second.latency < 0.25

    def test_burst_forms_full_batches(self):
        engine = _engine(max_linger_s=0.5)
        name = "eisen2019"
        with engine:
            requests = [engine.submit(name, _input(BY_NAME[name], i))
                        for i in range(32)]
            for request in requests:
                assert request.wait(timeout=5.0)
        assert all(r.ok for r in requests)
        # Only the very first arrival has no measured rate to wait on.
        assert engine.metrics.batch_sizes.get(8, 0) >= 3


class TestDueOrder:
    def test_head_due_first_runs_first(self):
        engine = _engine(max_linger_s=0.0)
        calls = []
        for net in NETWORKS:
            entry = engine.registry.get(net, "e")
            entry.model = _CallOrder(entry.model, net.name, calls)
        submissions = [("sun2017", 30.0), ("wang2018", 10.0),
                       ("lee2018", None), ("yu2017", 20.0)]
        requests = [engine.submit(name, _input(BY_NAME[name]),
                                  timeout_s=timeout)
                    for name, timeout in submissions]
        with engine:
            for request in requests:
                assert request.wait(timeout=5.0) and request.ok
        # No deadline: due at arrival, so ahead of every deadline.
        assert calls == ["lee2018", "wang2018", "yu2017", "sun2017"]


class TestOneThread:
    def test_caller_threads_plus_one_under_load(self):
        engine = _engine()
        before = set(threading.enumerate())
        with engine:
            requests = [engine.submit(net.name, _input(net, i))
                        for i in range(20) for net in NETWORKS]
            assert set(threading.enumerate()) - before == {engine._thread}
            for request in requests:
                assert request.wait(timeout=10.0)
            assert set(threading.enumerate()) - before == {engine._thread}
        assert set(threading.enumerate()) - before == set()
        assert all(r.ok for r in requests)

    def test_stop_settles_a_batch_that_never_returns(self, monkeypatch):
        # One dispatcher: a stuck batch holds up every network.  stop()
        # still gives the stuck batch and the bystander a terminal
        # status once its wait for the dispatcher runs out.
        monkeypatch.setattr(engine_mod, "_STOP_TIMEOUT_S", 0.2)
        stuck, bystander = "sun2017", "wang2018"
        engine = _engine(
            [FaultSpec(kind="latency", network=stuck, start=0, stop=1,
                       delay_s=1.5)])
        slow = engine.submit(stuck, _input(BY_NAME[stuck]))
        engine.start()
        dispatcher = engine._thread
        deadline = time.monotonic() + 5.0
        while not engine._inflight and time.monotonic() < deadline:
            time.sleep(0.005)
        waiting = engine.submit(bystander, _input(BY_NAME[bystander]))
        started = time.monotonic()
        engine.stop(drain=True)
        assert time.monotonic() - started < 1.0
        for request in (slow, waiting):
            assert request.status == RequestStatus.FAILED
            assert request.error == "engine stopped"
        # When the batch finally returns, its late result is absorbed.
        dispatcher.join(timeout=5.0)
        assert not dispatcher.is_alive()
        assert slow.status == RequestStatus.FAILED
        assert slow.duplicate_settles == 1


class TestStress:
    def test_exactly_once_and_bit_exact_under_switching(self):
        engine = _engine(max_batch_size=8, max_linger_s=0.001)
        pool = {net.name: [_input(net, i) for i in range(3)]
                for net in NETWORKS}
        expected = {name: [_expected(engine, BY_NAME[name], x) for x in xs]
                    for name, xs in pool.items()}
        names = sorted(pool)
        n_threads = (os.cpu_count() or 1) + 2
        per_thread = 200
        settles = {}
        settle_lock = threading.Lock()

        def on_settle(request):
            with settle_lock:
                settles[request.id] = settles.get(request.id, 0) + 1

        submitted = [[] for _ in range(n_threads)]

        def client(k):
            for i in range(per_thread):
                name = names[(k + i) % len(names)]
                index = (k * per_thread + i) % 3
                request = engine.submit(name, pool[name][index],
                                        on_settle=on_settle)
                submitted[k].append((name, index, request))

        old = sys.getswitchinterval()
        started = time.monotonic()
        sys.setswitchinterval(1e-5)
        try:
            with engine:
                clients = [threading.Thread(target=client, args=(k,))
                           for k in range(n_threads)]
                for thread in clients:
                    thread.start()
                for thread in clients:
                    thread.join(timeout=30.0)
                    assert not thread.is_alive()
                for name, index, request in sum(submitted, []):
                    assert request.wait(timeout=30.0)
        finally:
            sys.setswitchinterval(old)
        assert time.monotonic() - started < 60.0
        everything = sum(submitted, [])
        assert len(everything) == n_threads * per_thread
        for name, index, request in everything:
            assert request.ok, request.error
            assert request.duplicate_settles == 0
            assert settles[request.id] == 1
            assert np.array_equal(request.output, expected[name][index])
        assert engine.metrics.total.completed.value == len(everything)
