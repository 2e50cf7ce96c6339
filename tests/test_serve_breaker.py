"""Circuit-breaker state machine (``repro.serve.breaker``), fake clock."""

import pytest

from repro.serve.breaker import BreakerState, CircuitBreaker


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def _breaker(**kw):
    clock = FakeClock()
    transitions = []
    kw.setdefault("failure_threshold", 3)
    kw.setdefault("backoff_s", 1.0)
    kw.setdefault("backoff_max_s", 8.0)
    kw.setdefault("probe_quota", 2)
    breaker = CircuitBreaker(
        clock=clock,
        on_transition=lambda old, new: transitions.append((old, new)),
        **kw)
    return breaker, clock, transitions


def _trip(breaker, n=3):
    for _ in range(n):
        breaker.record_failure()


class TestValidation:
    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(backoff_s=0)
        with pytest.raises(ValueError):
            CircuitBreaker(backoff_s=2.0, backoff_max_s=1.0)
        with pytest.raises(ValueError):
            CircuitBreaker(probe_quota=0)


class TestStateMachine:
    def test_threshold_opens(self):
        breaker, _clock, transitions = _breaker()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == BreakerState.CLOSED
        assert breaker.allow_request()
        breaker.record_failure()
        assert breaker.state == BreakerState.OPEN
        assert not breaker.allow_request()
        assert transitions == [("closed", "open")]

    def test_success_resets_consecutive_count(self):
        breaker, _clock, _ = _breaker()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == BreakerState.CLOSED

    def test_backoff_gates_half_open(self):
        breaker, clock, _ = _breaker()
        _trip(breaker)
        clock.advance(0.99)
        assert not breaker.allow_request()
        assert breaker.state == BreakerState.OPEN
        clock.advance(0.02)
        assert breaker.allow_request()
        assert breaker.state == BreakerState.HALF_OPEN

    def test_probe_quota_limits_half_open_admission(self):
        breaker, clock, _ = _breaker(probe_quota=2)
        _trip(breaker)
        clock.advance(1.5)
        assert breaker.allow_request()
        assert breaker.allow_request()
        assert not breaker.allow_request()  # quota exhausted
        breaker.record_success()
        assert breaker.state == BreakerState.CLOSED
        assert breaker.allow_request()

    def test_probe_failure_reopens_and_doubles_backoff(self):
        breaker, clock, transitions = _breaker()
        _trip(breaker)  # open, backoff 1s
        clock.advance(1.5)
        assert breaker.allow_request()  # half-open
        breaker.record_failure()  # single failure trips from half-open
        assert breaker.state == BreakerState.OPEN
        # Backoff now 2s: not admitted after 1.5s, admitted after 2.5s.
        clock.advance(1.5)
        assert not breaker.allow_request()
        clock.advance(1.0)
        assert breaker.allow_request()
        assert transitions == [("closed", "open"), ("open", "half_open"),
                               ("half_open", "open"), ("open", "half_open")]

    def test_backoff_caps(self):
        breaker, clock, _ = _breaker(backoff_s=1.0, backoff_max_s=4.0)
        _trip(breaker)
        for _ in range(5):  # repeated probe failures: 2, 4, 4, 4, 4
            clock.advance(100.0)
            assert breaker.allow_request()
            breaker.record_failure()
        clock.advance(3.9)
        assert not breaker.allow_request()
        clock.advance(0.2)
        assert breaker.allow_request()

    def test_success_after_probe_resets_backoff(self):
        breaker, clock, _ = _breaker()
        _trip(breaker)
        clock.advance(1.5)
        assert breaker.allow_request()
        breaker.record_failure()  # backoff -> 2s
        clock.advance(2.5)
        assert breaker.allow_request()
        breaker.record_success()  # closed, backoff back to 1s
        _trip(breaker)
        clock.advance(1.1)
        assert breaker.allow_request()  # 1s backoff again, not 4s

    def test_reset_restores_pristine_closed(self):
        breaker, clock, _ = _breaker()
        _trip(breaker)
        clock.advance(1.5)
        breaker.allow_request()
        breaker.record_failure()  # backoff doubled
        breaker.reset()
        assert breaker.state == BreakerState.CLOSED
        assert breaker.consecutive_failures == 0
        assert breaker.allow_request()
        # Backoff is back to the initial value after a fresh trip.
        _trip(breaker)
        clock.advance(1.1)
        assert breaker.allow_request()

    def test_transition_callback_not_fired_on_noop(self):
        breaker, _clock, transitions = _breaker()
        breaker.record_success()  # already closed
        assert transitions == []
