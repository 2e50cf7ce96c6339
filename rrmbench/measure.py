"""Measurement helpers shared by the workloads: percentiles, the
open-loop schedule and its lateness accounting, and the span recorder.

Everything here is pure Python over numbers and callables, so the unit
tests in ``test_measure.py`` drive it with fake clocks.
"""

from __future__ import annotations

import json
import math
import statistics
import threading
import time

import numpy as np

#: Percentiles tried, highest first, by :func:`tail_percentile`.
TAIL_CANDIDATES = (99.99, 99.9, 99.0, 95.0, 90.0, 75.0)
#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10
#: Below this many samples only the median is reported.
TAIL_MIN_SAMPLES = 40


def median(values) -> float:
    return float(statistics.median(values))


def _rank(pct: float, n: int) -> int:
    """1-based nearest rank of the ``pct`` percentile of ``n`` samples
    (rounded first, so 99.9% of 10000 is rank 9990, not 9991)."""
    return math.ceil(round(pct * n / 100.0, 6))


def tail_percentile(values):
    """``(percentile, value)`` for the highest percentile in
    :data:`TAIL_CANDIDATES` with at least ten samples beyond it, or
    ``None`` below 40 samples, where the median is all a sample
    supports.

    Nearest-rank definition: the p-th percentile of n sorted samples is
    the one at rank ``ceil(p/100 * n)``; the samples beyond it are the
    ``n - rank`` above that rank.
    """
    n = len(values)
    if n < TAIL_MIN_SAMPLES:
        return None
    ordered = sorted(values)
    for pct in TAIL_CANDIDATES:
        rank = _rank(pct, n)
        if n - rank >= TAIL_BEYOND:
            return pct, float(ordered[rank - 1])
    raise AssertionError("unreachable: p75 always qualifies at n >= 40")


def percentile_at(values, pct: float):
    """Nearest-rank ``pct`` percentile, or ``None`` when fewer than ten
    samples lie beyond it (that percentile would be no tail)."""
    n = len(values)
    rank = _rank(pct, n)
    if n == 0 or n - rank < TAIL_BEYOND:
        return None
    return float(sorted(values)[rank - 1])


def describe(values, scale: float = 1.0) -> str:
    """``median X (n=N), pP Y`` in the units of ``values * scale``."""
    if not values:
        return "no samples"
    text = f"median {median(values) * scale:.4g} (n={len(values)})"
    tail = tail_percentile(values)
    if tail is not None:
        text += f", p{tail[0]:g} {tail[1] * scale:.4g}"
    return text


def spread(values) -> dict:
    """Median, quartiles, extremes and IQR/median of run-level values
    (quartiles as ``statistics.quantiles(values, n=4)`` gives them)."""
    values = [float(v) for v in values]
    mid = median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = mid
    return {"n": len(values), "median": mid, "q1": q1, "q3": q3,
            "min": min(values), "max": max(values),
            "iqr_over_median": (q3 - q1) / mid if mid else float("inf")}


# ----------------------------------------------------------------------
# Open loop.
def open_loop_schedule(seed: int, rate: float, duration: float,
                       n_networks: int, pool: int) -> list:
    """Poisson arrivals: ``[(offset_s, network_index, input_index)]``.

    Exactly ``round(rate * duration)`` arrivals with exponential gaps,
    each to a uniformly drawn network and pool input; a pure function
    of its arguments.
    """
    count = int(round(rate * duration))
    rng = np.random.default_rng([seed, 0x0F3E])
    offsets = np.cumsum(rng.exponential(1.0 / rate, size=count))
    networks = rng.integers(n_networks, size=count)
    inputs = rng.integers(pool, size=count)
    return [(float(t), int(n), int(i))
            for t, n, i in zip(offsets, networks, inputs)]


def drive_open_loop(schedule, submit, t0: float, clock=time.monotonic,
                    sleep=time.sleep) -> list:
    """Submit each arrival at ``t0 + offset`` regardless of completions.

    Returns ``[(due, sent, sent_end, handle)]``: ``sent - due`` is how
    late the generator ran, ``sent_end - sent`` the submit call, and a
    request's latency is measured from ``due``, so a stall in the
    generator or the system is charged to every request it delayed.
    """
    records = []
    for offset, network, index in schedule:
        due = t0 + offset
        now = clock()
        if now < due:
            sleep(due - now)
            now = clock()
        handle = submit(network, index)
        records.append((due, now, clock(), handle))
    return records


def lateness(records) -> list:
    """Per-arrival lateness ``max(0, sent - due)`` of open-loop records."""
    return [max(0.0, sent - due) for due, sent, _, _ in records]


# ----------------------------------------------------------------------
# Spans.
class SpanRecorder:
    """In-memory spans written once, at the end, as Chrome trace JSON.

    A span has a name, start and end (``time.monotonic`` seconds), a
    parent span id (0 for none) and an optional request id; spans of
    one request share it and render as one async track in Perfetto.
    Spans without a request id render on the thread that recorded them.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._next = 0
        self.spans: list = []

    def add(self, name: str, start: float, end: float, parent: int = 0,
            rid=None, args=None) -> int:
        with self._lock:
            self._next += 1
            span_id = self._next
            self.spans.append((span_id, name, start, end, parent, rid,
                               threading.get_ident(), args))
        return span_id

    def timed(self, name: str, fn, sink: list | None = None):
        """Wrap ``fn`` so every call is recorded as a span (and its
        duration appended to ``sink``)."""
        def wrapper(*args, **kwargs):
            start = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                self.add(name, start, end)
                if sink is not None:
                    sink.append(end - start)
        return wrapper

    def chrome_trace(self, process_name: str) -> dict:
        if self.spans:
            origin = min(span[2] for span in self.spans)
        else:
            origin = 0.0
        pid = 1
        events = [{"name": "process_name", "ph": "M", "pid": pid,
                   "args": {"name": process_name}}]
        for span_id, name, start, end, parent, rid, tid, args in self.spans:
            meta = {"span": span_id, "parent": parent}
            if rid is not None:
                meta["rid"] = rid
            if args:
                meta.update(args)
            ts = (start - origin) * 1e6
            if rid is None:
                events.append({"name": name, "ph": "X", "pid": pid,
                               "tid": tid, "ts": ts,
                               "dur": (end - start) * 1e6, "args": meta})
            else:
                common = {"name": name, "cat": "request", "pid": pid,
                          "id": str(rid)}
                events.append(dict(common, ph="b", ts=ts, args=meta))
                events.append(dict(common, ph="e",
                                   ts=(end - origin) * 1e6))
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path: str, process_name: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(process_name), handle)
