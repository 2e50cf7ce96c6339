"""Structured span tracing with Chrome trace-event JSON export.

A :class:`SpanTracer` collects *complete* spans (begin/end on one
track), *instant* events, and per-track names, all stamped from one
monotonic clock, and renders them in the Chrome trace-event format —
load the written file at https://ui.perfetto.dev (or
``chrome://tracing``) to see the serving pipeline laid out per network:
enqueue, batch assembly, execute attempts (with bisect depth), retries,
breaker transitions and injected faults.

Tracing is strictly opt-in: the serving engine's hot path pays a single
``is None`` test per hook when no tracer is attached.  Recording is a
lock plus a list append; buffers are bounded (drop-newest beyond
``max_events``) so a runaway run cannot exhaust memory.
"""

from __future__ import annotations

import itertools
import json
import threading
import time

__all__ = ["SpanTracer"]


class SpanTracer:
    """Bounded, thread-safe span/instant collector.

    ``clock`` must be monotonic and in seconds (default
    ``time.monotonic``); all exported timestamps are microseconds
    relative to the tracer's creation.
    """

    def __init__(self, clock=time.monotonic, max_events: int = 200_000,
                 process_name: str = "repro.serve"):
        self.clock = clock
        self.max_events = max_events
        self.process_name = process_name
        self._t0 = clock()
        self._lock = threading.Lock()
        self._events: list[dict] = []
        self._dropped = 0
        self._tracks: dict[str, int] = {}
        self._next_tid = itertools.count(1)

    # -- time ----------------------------------------------------------
    def now_us(self) -> float:
        """Microseconds since tracer creation (event timestamp base)."""
        return (self.clock() - self._t0) * 1e6

    # -- recording -----------------------------------------------------
    def _tid(self, track: str) -> int:
        tid = self._tracks.get(track)
        if tid is None:
            tid = next(self._next_tid)
            self._tracks[track] = tid
        return tid

    def _push(self, event: dict) -> None:
        with self._lock:
            if len(self._events) >= self.max_events:
                self._dropped += 1
                return
            self._events.append(event)

    def complete(self, name: str, track: str, start_us: float,
                 end_us: float | None = None, args: dict | None = None):
        """Record a complete span on ``track`` from ``start_us`` to now
        (or an explicit ``end_us``)."""
        if end_us is None:
            end_us = self.now_us()
        event = {"ph": "X", "name": name, "pid": 1,
                 "tid": self._tid(track), "ts": start_us,
                 "dur": max(0.0, end_us - start_us)}
        if args:
            event["args"] = args
        self._push(event)

    def instant(self, name: str, track: str,
                args: dict | None = None) -> None:
        """Record a zero-duration marker on ``track`` at the current time."""
        event = {"ph": "i", "s": "t", "name": name, "pid": 1,
                 "tid": self._tid(track), "ts": self.now_us()}
        if args:
            event["args"] = args
        self._push(event)

    # -- export --------------------------------------------------------
    @property
    def n_events(self) -> int:
        return len(self._events)

    @property
    def n_dropped(self) -> int:
        return self._dropped

    def export_raw(self) -> dict:
        """Portable snapshot for cross-process trace merging.

        Contains the raw events, the track-name map, and the tracer's
        monotonic epoch ``t0_s``.  On Linux ``time.monotonic`` is
        CLOCK_MONOTONIC, which is shared by every process on the host,
        so a parent can re-base a worker's microsecond timestamps onto
        its own timeline with a single offset
        (see :func:`repro.cluster.trace.merge_traces`).
        """
        with self._lock:
            events = list(self._events)
            tracks = dict(self._tracks)
        return {
            "process_name": self.process_name,
            "t0_s": self._t0,
            "events": events,
            "tracks": tracks,
            "dropped": self._dropped,
        }

    def to_chrome_trace(self) -> dict:
        """The trace as a Chrome trace-event JSON object."""
        with self._lock:
            events = list(self._events)
            tracks = dict(self._tracks)
        meta = [{"ph": "M", "name": "process_name", "pid": 1, "tid": 0,
                 "args": {"name": self.process_name}}]
        for track, tid in sorted(tracks.items(), key=lambda kv: kv[1]):
            meta.append({"ph": "M", "name": "thread_name", "pid": 1,
                         "tid": tid, "args": {"name": track}})
            meta.append({"ph": "M", "name": "thread_sort_index", "pid": 1,
                         "tid": tid, "args": {"sort_index": tid}})
        return {
            "traceEvents": meta + sorted(events, key=lambda e: e["ts"]),
            "displayTimeUnit": "ms",
            "otherData": {"dropped_events": self._dropped},
        }

    def dump(self, path: str) -> None:
        """Write the Perfetto-loadable trace JSON to ``path``."""
        with open(path, "w") as handle:
            json.dump(self.to_chrome_trace(), handle, indent=1)
            handle.write("\n")
