"""Fault tolerance end to end: bisect isolation, breakers, worker death,
weight-integrity guards (the acceptance scenarios from the robustness PR)."""

import threading
import time

import numpy as np

from repro.faults import FaultInjector, FaultSpec
from repro.nn.network import QuantModel
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


def _expected(engine, network, x):
    entry = engine.registry.get(network, "e")
    reference = QuantModel(network, entry.params_raw)
    reference.reset()
    return reference.forward(
        np.repeat(x[None, :], network.timesteps, axis=0))


def _wait_all(requests, timeout=10.0):
    for request in requests:
        assert request.wait(timeout=timeout)


class TestBisectIsolation:
    def test_poison_request_fails_alone_peers_bit_exact(self):
        name = "sun2017"
        engine = _engine([FaultSpec(kind="poison", network=name, seqs=(2,))])
        xs = [_input(BY_NAME[name], seed) for seed in range(6)]
        requests = [engine.submit(name, x) for x in xs]
        with engine:
            _wait_all(requests)
        # Only the poison request failed; everyone else is bit-exact.
        assert requests[2].status == RequestStatus.FAILED
        assert "InjectedCrash" in requests[2].error
        for i, (request, x) in enumerate(zip(requests, xs)):
            if i == 2:
                continue
            assert request.ok, f"peer {i}: {request.status}"
            assert np.array_equal(request.output,
                                  _expected(engine, BY_NAME[name], x))
        net = engine.metrics.network(name)
        assert net.bisects.value >= 1
        assert net.failed.value == 1
        # Isolating one poison request is a batch *success*: the breaker
        # must not have opened.
        assert engine.breakers[name].state == "closed"
        assert net.breaker_opens.value == 0

    def test_transient_crash_batch_fully_recovers(self):
        name = "wang2018"
        engine = _engine([FaultSpec(kind="crash", network=name,
                                    start=0, stop=6, transient=True)])
        requests = [engine.submit(name, _input(BY_NAME[name], i))
                    for i in range(6)]
        with engine:
            _wait_all(requests)
        assert all(r.ok for r in requests)
        net = engine.metrics.network(name)
        assert net.batch_failures.value >= 1
        assert net.bisects.value + net.retries.value >= 1
        assert engine.breakers[name].state == "closed"

    def test_transient_crash_on_single_request_recovers_via_retry(self):
        name = "lee2018"
        engine = _engine([FaultSpec(kind="crash", network=name,
                                    start=0, stop=1, transient=True)])
        request = engine.submit(name, _input(BY_NAME[name]))
        with engine:
            assert request.wait(timeout=10.0)
        assert request.ok  # nothing to bisect; the retry budget saved it
        assert engine.metrics.network(name).retries.value == 1


class TestCircuitBreaker:
    def test_persistent_crash_opens_then_probes_reclose(self):
        name = "challita2017"
        engine = _engine(
            [FaultSpec(kind="crash", network=name, start=0, stop=2,
                       transient=False)],
            breaker_failure_threshold=1,
            breaker_backoff_s=0.3,
            failed_single_retries=0,
        )
        doomed = [engine.submit(name, _input(BY_NAME[name], i))
                  for i in range(2)]
        with engine:
            _wait_all(doomed)
            assert all(r.status == RequestStatus.FAILED for r in doomed)
            # The fully-failed batch tripped the breaker: fast-fail now.
            assert engine.breakers[name].state == "open"
            shed = engine.submit(name, _input(BY_NAME[name], 10))
            assert shed.status == RequestStatus.REJECTED_UNAVAILABLE
            assert shed._done.is_set()
            # After the backoff a probe (seq 3, outside the fault window)
            # succeeds and re-closes the breaker.
            time.sleep(0.4)
            probe = engine.submit(name, _input(BY_NAME[name], 11))
            assert probe.wait(timeout=10.0)
            assert probe.ok
            assert engine.breakers[name].state == "closed"
        net = engine.metrics.network(name)
        assert net.rejected_unavailable.value == 1
        assert net.breaker_opens.value == 1
        assert net.breaker_closes.value == 1
        events = [(e["network"], e["from"], e["to"])
                  for e in engine.breaker_events]
        assert (name, "closed", "open") in events
        assert (name, "half_open", "closed") in events

    def test_other_networks_unaffected_by_open_breaker(self):
        bad, good = "challita2017", "sun2017"
        engine = _engine(
            [FaultSpec(kind="crash", network=bad, start=0, stop=1,
                       transient=False)],
            breaker_failure_threshold=1,
            breaker_backoff_s=30.0,
            breaker_backoff_max_s=30.0,
            failed_single_retries=0,
        )
        doomed = engine.submit(bad, _input(BY_NAME[bad]))
        with engine:
            assert doomed.wait(timeout=10.0)
            assert engine.breakers[bad].state == "open"
            ok = engine.submit(good, _input(BY_NAME[good]))
            assert ok.wait(timeout=10.0)
            assert ok.ok
            assert engine.breakers[good].state == "closed"


class TestWeightIntegrity:
    def test_bitflip_detected_and_repaired_outputs_stay_correct(self):
        name = "naparstek2019"
        engine = _engine(
            [FaultSpec(kind="bitflip", network=name, start=0, stop=8,
                       rate=3.0)],
            integrity_check_every=1, max_batch_size=1)
        xs = [_input(BY_NAME[name], seed) for seed in range(8)]
        requests = [engine.submit(name, x) for x in xs]
        with engine:
            _wait_all(requests)
        net = engine.metrics.network(name)
        assert net.faults_injected.value >= 1
        assert net.integrity_checks.value >= 1
        assert net.integrity_repairs.value >= 1
        # The cadence check runs after injection and before inference, so
        # every output must still be bit-exact despite the flips.
        for request, x in zip(requests, xs):
            assert request.ok
            assert np.array_equal(request.output,
                                  _expected(engine, BY_NAME[name], x))
        # And the arrays themselves ended up pristine.
        entry = engine.registry.get(BY_NAME[name], "e")
        assert engine.registry.verify(entry) == []

    def test_integrity_guard_disabled_with_zero_cadence(self):
        name = "yu2017"
        engine = _engine(
            [FaultSpec(kind="bitflip", network=name, start=0, stop=4,
                       rate=3.0)],
            integrity_check_every=0, max_batch_size=1)
        requests = [engine.submit(name, _input(BY_NAME[name], i))
                    for i in range(4)]
        with engine:
            _wait_all(requests)
        net = engine.metrics.network(name)
        assert net.integrity_checks.value == 0
        assert net.integrity_repairs.value == 0
        entry = engine.registry.get(BY_NAME[name], "e")
        assert engine.registry.verify(entry)  # corruption went unrepaired


class TestWorkerDeath:
    def test_kill_fails_only_its_batch(self):
        victim, bystander = "sun2017", "wang2018"
        engine = _engine(
            [FaultSpec(kind="kill", network=victim, start=0, stop=1)])
        killed = engine.submit(victim, _input(BY_NAME[victim]))
        others = [engine.submit(bystander, _input(BY_NAME[bystander], i))
                  for i in range(3)]
        before = set(threading.enumerate())
        with engine:
            dispatcher = engine._thread
            assert killed.wait(timeout=10.0)
            assert killed.status == RequestStatus.FAILED
            assert "died" in killed.error
            # Other networks never noticed.
            _wait_all(others)
            assert all(r.ok for r in others)
            # The same dispatcher serves the victim network again.
            revived = engine.submit(victim, _input(BY_NAME[victim], 5))
            assert revived.wait(timeout=10.0)
            assert revived.ok
            assert engine._thread is dispatcher and dispatcher.is_alive()
            assert set(threading.enumerate()) - before == {dispatcher}
        assert engine.metrics.network(victim).failed.value == 1
        assert engine.metrics.network(bystander).failed.value == 0

    def test_kill_opens_breaker_at_threshold_one(self):
        name = "eisen2019"
        engine = _engine(
            [FaultSpec(kind="kill", network=name, start=0, stop=1)],
            breaker_failure_threshold=1, breaker_backoff_s=30.0,
            breaker_backoff_max_s=30.0)
        requests = [engine.submit(name, _input(BY_NAME[name], i))
                    for i in range(3)]
        with engine:
            _wait_all(requests)
            assert all(r.status == RequestStatus.FAILED for r in requests)
            assert engine.breakers[name].state == "open"
            shed = engine.submit(name, _input(BY_NAME[name], 9))
            assert shed.status == RequestStatus.REJECTED_UNAVAILABLE


class TestRegistryFailureGuard:
    def test_registry_exception_fails_batch_not_worker(self, monkeypatch):
        name = "sun2017"
        engine = _engine()
        real_get = engine.registry.get
        calls = {"n": 0}

        def flaky_get(network, level):
            calls["n"] += 1
            if calls["n"] == 1:
                raise OSError("model store unreachable")
            return real_get(network, level)

        monkeypatch.setattr(engine.registry, "get", flaky_get)
        first = engine.submit(name, _input(BY_NAME[name]))
        with engine:
            assert first.wait(timeout=10.0)
            assert first.status == RequestStatus.FAILED
            assert "model store unreachable" in first.error
            # The worker survived the exception and serves the retry.
            second = engine.submit(name, _input(BY_NAME[name], 1))
            assert second.wait(timeout=10.0)
            assert second.ok
        net = engine.metrics.network(name)
        assert net.batch_failures.value == 1
        assert engine.breakers[name].state == "closed"
