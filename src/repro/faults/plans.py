"""Fault plans: the scriptable description of a chaos scenario.

A *fault plan* is a list of :class:`FaultSpec` entries, each describing
one fault process scoped to one network (or all networks) and to an
*activation window* in per-network request-sequence space.  Windows are
expressed in sequence numbers — the per-network arrival index stamped on
every request at submit time — rather than wall-clock time, so the same
plan with the same seed injects the *identical* fault sequence on every
run no matter how the dynamic batcher happens to group requests.

Fault kinds (``FaultSpec.kind``):

``bitflip``
    SEU-style single-bit upsets in the quantized Q3.12 parameter arrays
    of the network's :class:`~repro.serve.engine.ModelEntry`.  For each
    windowed request the injector draws ``Poisson(rate)`` flips; each
    flip picks a parameter array, a flat element and a bit in the 16-bit
    storage word, all from an RNG keyed on ``(seed, spec, seq)``.

``crash``
    A transient batch-execution exception (:class:`InjectedCrash`).
    With ``transient=True`` (default) each windowed request triggers at
    most one crash — the batch-bisect retry then recovers every peer.
    With ``transient=False`` the crash re-fires on every attempt that
    contains a windowed request, which is what drives a circuit breaker
    open.

``latency``
    A slow batch: the injector sleeps ``delay_s`` before execution the
    first time it sees each windowed request.

``corrupt``
    Input corruption: the request's normalized input block is
    overwritten with values derived from the keyed RNG (idempotent, so
    bisect retries see the same corrupted data).

``poison``
    A poison request: every execution attempt containing one of the
    listed ``seqs`` raises :class:`InjectedCrash`, so only batch-bisect
    can isolate it.  Models a request that deterministically kills its
    batch.

``kill``
    Worker death: raises :class:`InjectedWorkerDeath` (a
    ``BaseException``) the first time a windowed request is executed,
    escaping the engine's batch guard; the dispatcher fails that batch
    and keeps serving.

``sdc``
    Silent data corruption in *compute*: a single-bit XOR armed into
    one element of the model's next dense accumulator (activation
    state, invisible to the CRC32 weight guard), fired at most once per
    windowed request.  A plain model serves the corrupted result
    silently; the ABFT model (:mod:`repro.resilience.abft`) detects it
    via integer column checksums, repairs and reruns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["FaultSpec", "FaultPlan", "InjectedCrash", "InjectedWorkerDeath",
           "FAULT_KINDS", "default_scenario"]

FAULT_KINDS = ("bitflip", "crash", "latency", "corrupt", "poison", "kill",
               "sdc")


class InjectedCrash(RuntimeError):
    """A scripted batch-execution failure (caught by the engine)."""


class InjectedWorkerDeath(BaseException):
    """A scripted worker-thread death.

    Derives from ``BaseException`` so it escapes the engine's
    ``except Exception`` batch guard by design: this fault fails its
    whole batch at the dispatcher instead of taking the bisect path.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One fault process in a chaos scenario.

    Attributes:
        kind: one of :data:`FAULT_KINDS`.
        network: network name this fault targets (``None`` = every
            network; each network then evolves its own independent
            per-seq stream).
        start: first per-network sequence number the fault is active for.
        stop: one past the last active sequence number (``None`` = no
            upper bound).
        rate: ``bitflip`` only — expected flips per windowed inference.
        probability: ``crash`` only — per-request chance of firing.
        delay_s: ``latency`` only — seconds to stall the batch.
        transient: ``crash`` only — fire at most once per request
            (``True``) or on every attempt (``False``).
        seqs: ``poison`` only — explicit per-network sequence numbers.
    """

    kind: str
    network: str | None = None
    start: int = 0
    stop: int | None = None
    rate: float = 1.0
    probability: float = 1.0
    delay_s: float = 0.0
    transient: bool = True
    seqs: tuple = ()

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"expected one of {FAULT_KINDS}")
        if self.start < 0:
            raise ValueError("window start cannot be negative")
        if self.stop is not None and self.stop < self.start:
            raise ValueError("window stop cannot precede start")
        if self.rate < 0:
            raise ValueError("rate cannot be negative")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if self.delay_s < 0:
            raise ValueError("delay cannot be negative")
        # Canonicalize so plans hash/compare cleanly.
        object.__setattr__(self, "seqs", tuple(sorted(int(s)
                                                      for s in self.seqs)))

    def applies_to(self, network: str) -> bool:
        return self.network is None or self.network == network

    def in_window(self, seq: int) -> bool:
        if self.kind == "poison":
            return seq in self.seqs
        if seq < self.start:
            return False
        return self.stop is None or seq < self.stop

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "network": self.network,
            "start": self.start,
            "stop": self.stop,
            "rate": self.rate,
            "probability": self.probability,
            "delay_s": self.delay_s,
            "transient": self.transient,
            "seqs": list(self.seqs),
        }


@dataclass
class FaultPlan:
    """An ordered collection of fault specs (one chaos scenario)."""

    specs: list = field(default_factory=list)

    def __post_init__(self):
        self.specs = [spec if isinstance(spec, FaultSpec)
                      else FaultSpec(**spec) for spec in self.specs]

    def __iter__(self):
        return iter(self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    def for_network(self, network: str) -> list:
        return [spec for spec in self.specs if spec.applies_to(network)]

    def to_dict(self) -> dict:
        return {"specs": [spec.to_dict() for spec in self.specs]}


def default_scenario(networks, n_requests: int) -> FaultPlan:
    """The standard chaos script, scaled to the expected traffic.

    Windows live in per-network request-sequence space (deterministic
    for a given stream seed).  Four independent fault processes, each on
    its own network: SEU weight bit-flips, transient batch crashes
    (recovered by bisect), a persistent crash window (opens the
    breaker), and latency spikes; then activation SDC on the bit-flip
    network, which only the ABFT checksums can see.
    """
    names = sorted(net.name for net in networks)
    per_network = max(1, n_requests // max(1, len(names)))
    w = max(3, per_network // 5)

    def pick(i: int) -> str:
        return names[i % len(names)]

    return FaultPlan([
        FaultSpec(kind="bitflip", network=pick(0), start=w, stop=3 * w,
                  rate=0.5),
        FaultSpec(kind="crash", network=pick(1), start=w, stop=2 * w,
                  transient=True),
        FaultSpec(kind="crash", network=pick(2), start=w,
                  stop=w + max(3, per_network // 8), transient=False),
        FaultSpec(kind="latency", network=pick(3), start=w, stop=w + 3,
                  delay_s=0.02),
        FaultSpec(kind="sdc", network=pick(0), start=3 * w,
                  stop=3 * w + max(2, w // 2)),
    ])
