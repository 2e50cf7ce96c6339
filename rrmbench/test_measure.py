"""Tests of the benchmark's measurement helpers.

    python3 -m pytest rrmbench/test_measure.py -q
"""

import math

import pytest

import measure


class FakeClock:
    """A clock that only moves when told to (sleep or work)."""

    def __init__(self, now: float = 100.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# Percentiles.
def test_median_alone_below_forty_samples():
    for n in (1, 10, 39):
        assert measure.tail_percentile(list(range(n))) is None
    assert "p" not in measure.describe([1.0] * 39).split("(n=39)")[1]


def test_tail_at_forty_samples_is_p75_with_ten_beyond():
    values = list(range(1, 41))
    pct, value = measure.tail_percentile(values)
    assert pct == 75.0
    assert value == 30
    assert sum(v > value for v in values) == 10


@pytest.mark.parametrize("n, pct", [(100, 90.0), (199, 90.0), (200, 95.0),
                                    (999, 95.0), (1000, 99.0),
                                    (9999, 99.0), (10000, 99.9),
                                    (100000, 99.99)])
def test_highest_percentile_with_ten_beyond(n, pct):
    values = [float(v) for v in range(n)]
    got_pct, value = measure.tail_percentile(values[::-1])
    assert got_pct == pct
    beyond = sum(v > value for v in values)
    assert beyond >= 10
    # The next higher candidate would leave fewer than ten beyond it.
    higher = [p for p in measure.TAIL_CANDIDATES if p > pct]
    if higher:
        rank = math.ceil(min(higher) / 100 * n)
        assert n - rank < 10


def test_percentile_at_refuses_a_tail_without_ten_beyond():
    assert measure.percentile_at(list(range(999)), 99.0) is None
    assert measure.percentile_at(list(range(1000)), 99.0) == 989


def test_spread_matches_statistics_quantiles():
    got = measure.spread([10, 11, 12, 13, 14, 15, 16, 17, 18, 30])
    assert got["median"] == 14.5
    assert (got["q1"], got["q3"]) == (11.75, 17.25)
    assert got["iqr_over_median"] == pytest.approx(5.5 / 14.5)


# ----------------------------------------------------------------------
# Open-loop schedule.
def test_schedule_is_a_function_of_the_seed():
    a = measure.open_loop_schedule(7, 2000.0, 2.0, 10, 64)
    b = measure.open_loop_schedule(7, 2000.0, 2.0, 10, 64)
    c = measure.open_loop_schedule(8, 2000.0, 2.0, 10, 64)
    assert a == b
    assert a != c
    assert len(a) == len(c) == 4000


def test_schedule_shape():
    schedule = measure.open_loop_schedule(3, 1000.0, 5.0, 10, 64)
    offsets = [t for t, _, _ in schedule]
    assert offsets == sorted(offsets)
    assert offsets[0] > 0
    # Mean gap of a Poisson process at 1000/s, within 5% over 5000.
    assert offsets[-1] / len(offsets) == pytest.approx(1e-3, rel=0.05)
    assert {n for _, n, _ in schedule} == set(range(10))
    assert all(0 <= i < 64 for _, _, i in schedule)


# ----------------------------------------------------------------------
# Lateness.
def test_on_time_generator_is_never_late():
    clock = FakeClock()
    schedule = [(0.001 * (i + 1), 0, i) for i in range(5)]
    records = measure.drive_open_loop(
        schedule, lambda n, i: i, t0=clock(), clock=clock,
        sleep=clock.sleep)
    assert measure.lateness(records) == pytest.approx([0.0] * 5, abs=1e-9)
    assert [h for *_, h in records] == [0, 1, 2, 3, 4]


def test_slow_submits_make_later_arrivals_late_and_latency_counts_it():
    clock = FakeClock(0.0)
    # Arrivals every 1 ms; each submit call takes 3 ms.

    def submit(n, i):
        clock.sleep(0.003)
        return i

    schedule = [(0.001 * (i + 1), 0, i) for i in range(5)]
    records = measure.drive_open_loop(schedule, submit, t0=0.0,
                                      clock=clock, sleep=clock.sleep)
    late = measure.lateness(records)
    assert late == pytest.approx([0.0, 0.002, 0.004, 0.006, 0.008])
    # Submit-call time is sent_end - sent, not charged as lateness.
    assert all(end - sent == pytest.approx(0.003)
               for _, sent, end, _ in records)
    # A request settling 1 ms after it was sent waited since its due
    # time: latency from due includes the generator's lateness.
    latencies = [(sent + 0.001) - due for due, sent, _, _ in records]
    assert latencies == pytest.approx([x + 0.001 for x in late])


def test_lateness_clamps_an_early_wakeup_to_zero():
    records = [(1.0, 0.9999, 1.0, None), (2.0, 2.5, 2.6, None)]
    assert measure.lateness(records) == [0.0, 0.5]


# ----------------------------------------------------------------------
def test_recorder_writes_request_tracks_and_thread_spans(tmp_path):
    rec = measure.SpanRecorder()
    parent = rec.add("request", 1.0, 1.004, rid="r1")
    rec.add("submit", 1.0, 1.001, parent=parent, rid="r1")
    rec.add("aot.infer x", 1.002, 1.003, args={"rows": 2})
    trace = rec.chrome_trace("bench")
    kinds = [e["ph"] for e in trace["traceEvents"]]
    assert kinds == ["M", "b", "e", "b", "e", "X"]
    submit = trace["traceEvents"][3]
    assert submit["args"]["parent"] == parent
    assert submit["id"] == "r1"
    rec.write(str(tmp_path / "t.json"), "bench")
    assert (tmp_path / "t.json").stat().st_size > 0
