"""Graceful shutdown: signal-to-event mapping, partial bench accounting."""

import signal
import threading

import numpy as np

from repro.bench import account
from repro.rrm.networks import suite
from repro.serve.loadgen import LoadGenerator, make_request_stream
from repro.serve.shutdown import GracefulShutdown

NETWORKS = suite(4)


class TestGracefulShutdown:
    def test_first_signal_sets_event_and_keeps_running(self):
        with GracefulShutdown() as stop:
            assert not stop.triggered
            signal.raise_signal(signal.SIGTERM)  # must NOT kill pytest
            assert stop.triggered
            assert stop.signal_name == "SIGTERM"
        assert stop.event.is_set()

    def test_handlers_restored_on_exit(self):
        before = {sig: signal.getsignal(sig)
                  for sig in GracefulShutdown.SIGNALS}
        with GracefulShutdown():
            changed = {sig: signal.getsignal(sig)
                       for sig in GracefulShutdown.SIGNALS}
            assert changed != before
        after = {sig: signal.getsignal(sig)
                 for sig in GracefulShutdown.SIGNALS}
        assert after == before

    def test_degrades_to_noop_off_main_thread(self):
        results = {}

        def body():
            with GracefulShutdown() as stop:
                results["installed"] = stop._installed
                results["event_ok"] = not stop.triggered

        thread = threading.Thread(target=body)
        thread.start()
        thread.join()
        assert results == {"installed": False, "event_ok": True}

    def test_manual_event_set_still_works_without_signals(self):
        stop = GracefulShutdown()
        stop.event.set()  # e.g. a supervising thread pulls the plug
        assert stop.triggered
        assert stop.signal_name is None


_OUTPUT = np.zeros(1)


class _SlowEngine:
    """Settles instantly but lets arrival pacing dominate the run."""

    class _Request:
        network = "net"
        status = "done"
        ok = True
        output = _OUTPUT
        latency = 0.001
        error = None

        def wait(self, timeout=None):
            return True

    def __init__(self):
        self.submitted = 0

    def submit(self, name, x_raw, timeout_s=None):
        self.submitted += 1
        return self._Request()


class TestPartialBench:
    def test_stop_event_interrupts_submission_with_accounting(self):
        engine = _SlowEngine()
        stop = threading.Event()
        generator = LoadGenerator(engine, rate_rps=50.0, seed=1,
                                  stop_event=stop)
        stream = make_request_stream(NETWORKS, 100)

        def pull_plug():
            while engine.submitted < 5:
                pass
            stop.set()

        plug = threading.Thread(target=pull_plug)
        plug.start()
        summary = account(generator.run(stream), [_OUTPUT] * len(stream))
        plug.join()
        assert summary["interrupted"] is True
        # Partial but valid: whatever was submitted is fully accounted.
        assert 5 <= summary["submitted"] < 100
        assert summary["completed"] == summary["submitted"]
        assert summary["correct"] == summary["submitted"]

    def test_no_stop_event_runs_to_completion(self):
        engine = _SlowEngine()
        generator = LoadGenerator(engine, rate_rps=100_000.0, seed=1)
        summary = account(generator.run(make_request_stream(NETWORKS, 25)),
                          [_OUTPUT] * 25)
        assert summary["interrupted"] is False
        assert summary["submitted"] == 25

    def test_preset_stop_event_submits_nothing(self):
        stop = threading.Event()
        stop.set()
        engine = _SlowEngine()
        generator = LoadGenerator(engine, rate_rps=100.0,
                                  stop_event=stop)
        summary = account(generator.run(make_request_stream(NETWORKS, 10)),
                          [_OUTPUT] * 10)
        assert summary["interrupted"] is True
        assert summary["submitted"] == 0
        assert np.isfinite(summary["elapsed_s"])
