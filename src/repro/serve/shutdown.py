"""Graceful SIGINT/SIGTERM handling for the benchmark CLIs.

The benches can run for a while at large scales; killing them with
Ctrl-C used to discard every measurement already taken.
:class:`GracefulShutdown` converts the first SIGINT/SIGTERM into a
``threading.Event`` that the load generator polls between arrivals:
submission stops, in-flight requests settle, engines/clusters drain
normally and the partial result — with ``"interrupted": true`` — is
still written to the benchmark JSON.

A *second* signal restores the previous handlers and re-raises, so a
wedged run can still be killed the ordinary way.

Only the main thread of the main interpreter may install signal
handlers; constructed anywhere else (or under a test runner that owns
the handlers) the context manager degrades to a plain no-op event
holder.
"""

from __future__ import annotations

import signal
import threading

__all__ = ["GracefulShutdown"]


class GracefulShutdown:
    """Context manager mapping the first SIGINT/SIGTERM to an event.

    Usage::

        with GracefulShutdown() as stop:
            result = repro.bench.serve(..., stop_event=stop.event)
        if stop.triggered:
            print("interrupted -- partial results written")
    """

    SIGNALS = (signal.SIGINT, signal.SIGTERM)

    def __init__(self):
        self.event = threading.Event()
        self.signal_name: str | None = None
        self._previous: dict = {}
        self._installed = False

    @property
    def triggered(self) -> bool:
        return self.event.is_set()

    def _handle(self, signum, frame) -> None:
        if self.event.is_set():
            # Second signal: give up on draining, restore the previous
            # handlers and let the default behaviour take over.
            self._restore()
            signal.raise_signal(signum)
            return
        self.signal_name = signal.Signals(signum).name
        self.event.set()

    def __enter__(self) -> "GracefulShutdown":
        if threading.current_thread() is threading.main_thread():
            try:
                for sig in self.SIGNALS:
                    self._previous[sig] = signal.getsignal(sig)
                    signal.signal(sig, self._handle)
                self._installed = True
            except (ValueError, OSError):
                self._restore()
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        if not self._installed:
            self._previous.clear()
            return
        self._installed = False
        for sig, previous in self._previous.items():
            try:
                signal.signal(sig, previous)
            except (ValueError, OSError):
                pass
        self._previous.clear()
