"""Traffic data for the benches: request streams, arrival shapes and
the open-loop submission loop.

The generator is *open-loop*: arrival times are drawn up front from the
:class:`TrafficModel` and requests are submitted at those times
regardless of how the engine is coping — the standard way to measure a
serving system honestly (closed-loop generators hide overload by
self-throttling).  Accounting for the returned request handles is the
bench harness's job (:func:`repro.bench.account`).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

__all__ = ["LoadGenerator", "TrafficModel", "make_request_stream",
           "make_tenant_stream"]


def _random_request(network, rng: np.random.Generator) -> np.ndarray:
    """Raw Q3.12 input sequence ``(timesteps, input_size)`` in [-1, 1)."""
    floats = rng.uniform(-1.0, 1.0, (network.timesteps, network.input_size))
    return np.asarray(floats * 4096, dtype=np.int64)


def make_request_stream(networks, n_requests: int, seed: int = 2020) -> list:
    """A reproducible request stream: ``[(network, x_raw), ...]``.

    Networks are drawn uniformly so every queue sees traffic and batches
    can form on each of them.
    """
    rng = np.random.default_rng(seed)
    stream = []
    for _ in range(n_requests):
        network = networks[int(rng.integers(len(networks)))]
        stream.append((network, _random_request(network, rng)))
    return stream


@dataclass(frozen=True)
class TrafficModel:
    """Arrival-process shape for the load generator.

    ``kind`` selects among:

    * ``poisson`` — homogeneous Poisson (the historical default);
    * ``diurnal`` — Poisson whose rate follows a sinusoidal envelope
      (one full period over the run by default), the classic
      day/night cell-load profile from the RRM literature;
    * ``bursty`` — Markov-modulated Poisson: a hidden two-state chain
      flips between quiet and burst, multiplying the rate by
      ``burst_rate_multiplier`` while in the burst state;
    * ``diurnal-bursty`` — both modulations composed.

    Modulated rates are normalised by the modulation's long-run mean,
    so every kind offers (approximately) the same *average* load — the
    shapes differ, the area under the curve does not, which keeps
    throughput numbers comparable across traffic models.
    """

    kind: str = "poisson"
    #: Sinusoid amplitude as a fraction of the mean rate, in [0, 1).
    diurnal_depth: float = 0.8
    #: Seconds per diurnal cycle; ``None`` = one cycle over the run.
    diurnal_period_s: float | None = None
    #: Rate multiplier while the burst state is on.
    burst_rate_multiplier: float = 4.0
    #: Per-arrival P(quiet -> burst) / P(burst -> quiet).
    burst_on_prob: float = 0.05
    burst_off_prob: float = 0.25

    KINDS = ("poisson", "diurnal", "bursty", "diurnal-bursty")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown traffic kind {self.kind!r}; "
                             f"choose from {self.KINDS}")
        if not 0.0 <= self.diurnal_depth < 1.0:
            raise ValueError("diurnal_depth must be in [0, 1)")
        if self.burst_rate_multiplier < 1.0:
            raise ValueError("burst_rate_multiplier must be >= 1")

    def arrival_times(self, n: int, rate_rps: float,
                      seed: int) -> np.ndarray:
        """``n`` cumulative arrival offsets (seconds) at mean rate
        ``rate_rps``, reproducible for a given seed."""
        rng = np.random.default_rng(seed)
        diurnal = "diurnal" in self.kind
        bursty = "bursty" in self.kind
        if not diurnal and not bursty:
            return np.cumsum(rng.exponential(1.0 / rate_rps, n))
        period = self.diurnal_period_s
        if period is None:
            period = max(n / rate_rps, 1e-6)
        # Normalise the MMPP so the long-run *time-averaged* rate stays
        # at rate_rps.  The chain transitions per arrival, so pi_on is
        # the stationary fraction of arrivals (not of time) in the
        # burst state; the mean inter-arrival gap is then
        # (pi_off + pi_on/mult) / (rate * norm), and norm must equal
        # that harmonic-style mean — not the arithmetic mean
        # 1 + pi_on*(mult-1), which would undershoot the target rate.
        pi_on = (self.burst_on_prob
                 / max(self.burst_on_prob + self.burst_off_prob, 1e-12))
        burst_norm = (1.0 - pi_on) + pi_on / self.burst_rate_multiplier
        times = np.empty(n)
        t = 0.0
        in_burst = False
        for i in range(n):
            lam = rate_rps
            if diurnal:
                lam *= 1.0 + self.diurnal_depth * math.sin(
                    2.0 * math.pi * t / period)
            if bursty:
                if in_burst:
                    if rng.random() < self.burst_off_prob:
                        in_burst = False
                elif rng.random() < self.burst_on_prob:
                    in_burst = True
                lam *= (self.burst_rate_multiplier if in_burst
                        else 1.0) * burst_norm
            t += rng.exponential(1.0 / max(lam, 1e-9))
            times[i] = t
        return times

    def to_dict(self) -> dict:
        out = {"kind": self.kind}
        if "diurnal" in self.kind:
            out["diurnal_depth"] = self.diurnal_depth
            out["diurnal_period_s"] = self.diurnal_period_s
        if "bursty" in self.kind:
            out["burst_rate_multiplier"] = self.burst_rate_multiplier
            out["burst_on_prob"] = self.burst_on_prob
            out["burst_off_prob"] = self.burst_off_prob
        return out


def make_tenant_stream(networks, n_requests: int, n_tenants: int = 4,
                       seed: int = 2020,
                       concentration: float = 0.7) -> tuple:
    """A multi-tenant request stream with per-tenant network mixes.

    Each tenant draws its own network preference vector from a
    Dirichlet(``concentration``) — low concentration means skewed,
    tenant-specific mixes (one tenant hammers the LSTM, another the
    small MLP), which is what makes per-shard load uneven and the
    autoscaler earn its keep.  Requests round-robin over tenants.

    Returns ``(stream, info)`` where ``stream`` is the usual
    ``[(network, x_raw), ...]`` (drop-in everywhere a uniform stream
    goes) and ``info`` records each request's tenant and every
    tenant's mix for the bench report.
    """
    if n_tenants < 1:
        raise ValueError("need at least one tenant")
    rng = np.random.default_rng(seed)
    mixes = rng.dirichlet([concentration] * len(networks), size=n_tenants)
    stream = []
    tenant_of = []
    for i in range(n_requests):
        tenant = i % n_tenants
        network = networks[int(rng.choice(len(networks),
                                          p=mixes[tenant]))]
        stream.append((network, _random_request(network, rng)))
        tenant_of.append(tenant)
    info = {
        "n_tenants": n_tenants,
        "concentration": concentration,
        "mixes": {f"tenant-{t}": {net.name: round(float(p), 4)
                                  for net, p in zip(networks, mixes[t])}
                  for t in range(n_tenants)},
        "tenant_of": tenant_of,
    }
    return stream, info


class LoadGenerator:
    """Open-loop load generator over a prepared request stream.

    ``engine`` is anything with ``submit(name, x_raw, timeout_s=...)``
    returning a waitable request handle — the single-process
    :class:`~repro.serve.engine.InferenceEngine` and the cluster
    front-end both qualify.  ``traffic`` selects the arrival process
    (default: homogeneous Poisson).  ``stop_event`` (a
    ``threading.Event``) aborts submission between arrivals:
    already-submitted requests still settle and are returned, and the
    run reads ``"interrupted": True`` — this is what lets Ctrl-C
    produce a valid partial benchmark instead of a stack trace.
    """

    def __init__(self, engine, rate_rps: float,
                 seed: int = 2020, timeout_s: float | None = None,
                 traffic: TrafficModel | None = None, stop_event=None):
        if rate_rps <= 0:
            raise ValueError("rate must be positive")
        self.engine = engine
        self.rate_rps = float(rate_rps)
        self.seed = seed
        self.timeout_s = timeout_s
        self.traffic = traffic or TrafficModel()
        self.stop_event = stop_event

    def arrival_times(self, n: int) -> np.ndarray:
        return self.traffic.arrival_times(n, self.rate_rps, self.seed + 1)

    def _stopped(self) -> bool:
        return self.stop_event is not None and self.stop_event.is_set()

    def run(self, stream, wait_s: float = 30.0) -> dict:
        """Submit ``stream`` on schedule and wait for every handle.

        Returns the offered rate, the traffic shape, whether a stop
        event cut submission short, the wall time from the first
        scheduled arrival until the last handle settled, and the
        submitted request handles in stream order.
        """
        arrivals = self.arrival_times(len(stream))
        requests = []
        interrupted = False
        start = time.perf_counter()
        for (network, x_raw), offset in zip(stream, arrivals):
            if self._stopped():
                interrupted = True
                break
            delay = (start + offset) - time.perf_counter()
            while delay > 0:
                time.sleep(min(delay, 0.05))
                if self._stopped():
                    break
                delay = (start + offset) - time.perf_counter()
            if self._stopped():
                interrupted = True
                break
            requests.append(self.engine.submit(network.name, x_raw,
                                               timeout_s=self.timeout_s))
        for request in requests:
            request.wait(timeout=wait_s)
        return {
            "offered_rate_rps": self.rate_rps,
            "traffic": self.traffic.to_dict(),
            "interrupted": interrupted,
            "elapsed_s": time.perf_counter() - start,
            "requests": requests,
        }
