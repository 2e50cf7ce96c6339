"""Engine lifecycle: restart, non-drained stop, thread hygiene, and the
drain after a worker death (no request may ever be left stranded)."""

import threading
import time

import numpy as np

from repro.faults import FaultInjector, FaultSpec
from repro.rrm.networks import suite
from repro.serve.engine import (EngineConfig, InferenceEngine, RequestStatus)

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


class TestRestart:
    def test_stop_then_start_serves_again(self):
        engine = _engine()
        name = "sun2017"
        engine.start()
        first = engine.submit(name, _input(BY_NAME[name]))
        assert first.wait(timeout=10.0) and first.ok
        engine.stop()
        engine.start()
        second = engine.submit(name, _input(BY_NAME[name], 1))
        assert second.wait(timeout=10.0) and second.ok
        engine.stop()
        assert engine.metrics.network(name).completed.value == 2

    def test_restart_resets_breakers_and_restart_budget(self):
        name = "challita2017"
        engine = _engine(
            [FaultSpec(kind="crash", network=name, start=0, stop=1,
                       transient=False)],
            breaker_failure_threshold=1, breaker_backoff_s=30.0,
            breaker_backoff_max_s=30.0, failed_single_retries=0)
        doomed = engine.submit(name, _input(BY_NAME[name]))
        engine.start()
        assert doomed.wait(timeout=10.0)
        assert engine.breakers[name].state == "open"
        engine.stop()
        # A restart is a clean slate: the breaker is closed again and a
        # request outside the fault window (seq 1) is served normally.
        engine.start()
        assert engine.breakers[name].state == "closed"
        request = engine.submit(name, _input(BY_NAME[name], 1))
        assert request.wait(timeout=10.0) and request.ok
        engine.stop()

    def test_start_is_idempotent(self):
        engine = _engine()
        before = len(threading.enumerate())
        engine.start()
        spawned = len(threading.enumerate()) - before
        engine.start()  # no-op: must not double-spawn
        assert len(threading.enumerate()) - before == spawned
        engine.stop()


class TestStopSettlement:
    def test_stop_without_drain_settles_pending(self):
        # Huge linger + batch size keep submissions queued; a non-drained
        # stop must still give every one of them a terminal status.
        engine = _engine(max_linger_s=30.0, max_batch_size=64)
        name = "wang2018"
        engine.start()
        requests = [engine.submit(name, _input(BY_NAME[name], i))
                    for i in range(5)]
        engine.stop(drain=False)
        for request in requests:
            assert request._done.is_set()
            assert request.status in (RequestStatus.FAILED,
                                      RequestStatus.DONE)
        failed = [r for r in requests if r.status == RequestStatus.FAILED]
        assert all(r.error == "engine stopped" for r in failed)

    def test_stop_on_never_started_engine_settles_pre_start_backlog(self):
        engine = _engine()
        name = "yu2017"
        requests = [engine.submit(name, _input(BY_NAME[name], i))
                    for i in range(3)]
        engine.stop()
        for request in requests:
            assert request.status == RequestStatus.FAILED
            assert request.error == "engine stopped"

    def test_drain_after_kill_returns_promptly(self):
        # A kill fails only its batch; the backlog queued behind it is
        # still served by the drain, and stop returns without sitting
        # out any deadline.
        name = "sun2017"
        engine = _engine(
            [FaultSpec(kind="kill", network=name, start=0, stop=1)])
        killed = engine.submit(name, _input(BY_NAME[name]))
        engine.start()
        assert killed.wait(timeout=10.0)
        backlog = [engine.submit(name, _input(BY_NAME[name], i))
                   for i in range(1, 4)]
        started = time.monotonic()
        engine.stop(drain=True)
        assert time.monotonic() - started < 5.0
        assert killed.status == RequestStatus.FAILED
        assert killed.error == "worker died mid-batch"
        assert all(r.ok for r in backlog)

    def test_drained_stop_completes_backlog(self):
        engine = _engine()
        name = "naparstek2019"
        engine.start()
        requests = [engine.submit(name, _input(BY_NAME[name], i))
                    for i in range(20)]
        engine.stop()  # drain=True: backlog served, not failed
        assert all(r.ok for r in requests)


class TestThreadHygiene:
    def test_no_thread_leak_across_restarts(self):
        before = set(threading.enumerate())
        engine = _engine()
        name = "lee2018"
        for round_ in range(3):
            engine.start()
            request = engine.submit(name, _input(BY_NAME[name], round_))
            assert request.wait(timeout=10.0) and request.ok
            engine.stop()
        leaked = set(threading.enumerate()) - before
        assert leaked == set(), f"leaked threads: {leaked}"

    def test_kill_does_not_leak_threads(self):
        name = "sun2017"
        before = set(threading.enumerate())
        engine = _engine(
            [FaultSpec(kind="kill", network=name, start=0, stop=1)])
        killed = engine.submit(name, _input(BY_NAME[name]))
        with engine:
            assert killed.wait(timeout=10.0)
            revived = engine.submit(name, _input(BY_NAME[name], 5))
            assert revived.wait(timeout=10.0) and revived.ok
        leaked = set(threading.enumerate()) - before
        assert leaked == set(), f"leaked threads: {leaked}"

    def test_all_engine_threads_are_daemonic(self):
        engine = _engine()
        with engine:
            serve_threads = [t for t in threading.enumerate()
                             if t.name.startswith("serve-")]
            assert serve_threads
            assert all(t.daemon for t in serve_threads)
