"""Per-network circuit breaker: fail fast instead of queueing onto a fire.

State machine::

    CLOSED ──(N consecutive batch failures)──▶ OPEN
      ▲                                         │ backoff elapses
      │ probe batch succeeds                    ▼
      └──────────────────────────────────── HALF_OPEN
                 probe batch fails ▶ OPEN (backoff doubled, capped)

While OPEN every new submission is rejected immediately
(``REJECTED_UNAVAILABLE``) — requests spend no queue time on a network
that is known-broken.  After the exponential backoff elapses the breaker
admits a small probe quota (HALF_OPEN); one successful batch closes it
and resets the backoff, one failed batch re-opens it with the backoff
doubled (capped at ``backoff_max_s``).

Failures are counted per *dispatched batch outcome*: a batch counts as a
failure only when **no** request in it completed (batch-bisect isolating
a single poison request still yields a success, so one bad client cannot
open the breaker for everyone).
"""

from __future__ import annotations

import threading
import time

__all__ = ["BreakerState", "CircuitBreaker"]


class BreakerState:
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """Thread-safe per-network circuit breaker.

    Args:
        failure_threshold: consecutive failed batches that open the
            breaker from CLOSED.
        backoff_s: initial OPEN duration; doubles on every re-open.
        backoff_max_s: cap for the exponential backoff.
        probe_quota: submissions admitted while HALF_OPEN (enough to
            form one probe batch).
        clock: injectable monotonic clock.
        on_transition: optional ``callback(old_state, new_state)``
            invoked (under the breaker lock) on every state change.
    """

    def __init__(self, failure_threshold: int = 3, backoff_s: float = 0.05,
                 backoff_max_s: float = 2.0, probe_quota: int = 4,
                 clock=time.monotonic, on_transition=None):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if backoff_s <= 0 or backoff_max_s < backoff_s:
            raise ValueError("need 0 < backoff_s <= backoff_max_s")
        if probe_quota < 1:
            raise ValueError("probe_quota must be >= 1")
        self.failure_threshold = failure_threshold
        self.backoff_s = backoff_s
        self.backoff_max_s = backoff_max_s
        self.probe_quota = probe_quota
        self.clock = clock
        self.on_transition = on_transition
        self._lock = threading.Lock()
        self._state = BreakerState.CLOSED
        self._failures = 0
        self._backoff = backoff_s
        self._open_until = 0.0
        self._probes = 0

    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    @property
    def consecutive_failures(self) -> int:
        return self._failures

    def _transition(self, new: str) -> None:
        old = self._state
        if old == new:
            return
        self._state = new
        if self.on_transition is not None:
            self.on_transition(old, new)

    # ------------------------------------------------------------------
    def allow_request(self) -> bool:
        """Admission check at submit time; may move OPEN -> HALF_OPEN."""
        with self._lock:
            if self._state == BreakerState.CLOSED:
                return True
            if self._state == BreakerState.OPEN:
                if self.clock() < self._open_until:
                    return False
                self._transition(BreakerState.HALF_OPEN)
                self._probes = 0
            # HALF_OPEN: admit up to the probe quota.
            if self._probes < self.probe_quota:
                self._probes += 1
                return True
            return False

    def record_success(self) -> None:
        """A dispatched batch completed at least one request."""
        with self._lock:
            self._failures = 0
            self._backoff = self.backoff_s
            self._transition(BreakerState.CLOSED)

    def record_failure(self) -> None:
        """A dispatched batch completed nothing."""
        with self._lock:
            self._failures += 1
            tripped = (self._state == BreakerState.HALF_OPEN
                       or self._failures >= self.failure_threshold)
            if not tripped:
                return
            if self._state != BreakerState.CLOSED:  # re-opening
                self._backoff = min(self._backoff * 2, self.backoff_max_s)
            self._open_until = self.clock() + self._backoff
            self._transition(BreakerState.OPEN)

    def reset(self) -> None:
        """Back to pristine CLOSED (engine restart)."""
        with self._lock:
            self._failures = 0
            self._backoff = self.backoff_s
            self._open_until = 0.0
            self._probes = 0
            self._transition(BreakerState.CLOSED)
