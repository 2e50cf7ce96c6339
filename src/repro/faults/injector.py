"""Deterministic, seeded fault injection for the serving engine.

:class:`FaultInjector` is the single chokepoint the engine calls before
every batch-execution attempt.  All randomness is drawn from numpy
``Generator`` instances keyed on ``(seed, spec index, request seq)``, and
every fault decision is a pure function of a request's per-network
sequence number — never of wall-clock time or of how the dynamic batcher
grouped requests.  Two runs against the same request stream with the
same seed therefore inject the *identical* fault sequence, which is what
makes chaos scenarios reproducible scripts instead of randomness
(asserted by ``tests/test_serve_chaos.py`` via the canonical log
digest).

The injector mutates real state: bit flips are XORed into the shared
quantized parameter arrays of the target :class:`ModelEntry` (exactly
what an SEU in weight SRAM does — the model, the per-sample reference
and the integrity checker all see the corruption), input corruption
overwrites the normalized input block in place, and crash/kill faults
raise through the engine's execution path.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time

import numpy as np

from .plans import FaultPlan, FaultSpec, InjectedCrash, InjectedWorkerDeath

__all__ = ["FaultInjector", "flip_bit16"]

_WORD_BITS = 16  # Q3.12 lives in a 16-bit storage word


def flip_bit16(value: int, bit: int) -> int:
    """Flip one bit of a 16-bit two's-complement word stored as int."""
    if not 0 <= bit < _WORD_BITS:
        raise ValueError(f"bit must be in [0, {_WORD_BITS})")
    flipped = (int(value) & 0xFFFF) ^ (1 << bit)
    return flipped - 0x10000 if flipped >= 0x8000 else flipped


def _param_arrays(params_raw: list) -> list:
    """Deterministic flat view of every parameter array: (layer, key, arr)."""
    arrays = []
    for layer_idx, layer in enumerate(params_raw):
        for key in sorted(layer):
            arrays.append((layer_idx, key, layer[key]))
    return arrays


class FaultInjector:
    """Applies a :class:`FaultPlan` at the engine's execution chokepoint.

    Args:
        plan: the scenario script (a :class:`FaultPlan`, a list of
            :class:`FaultSpec`, or a list of spec dicts).
        seed: root seed for every keyed RNG draw.

    The engine calls :meth:`before_execute` once per execution attempt
    (including batch-bisect retries); per-request "first time" semantics
    are tracked internally so transient faults do not re-fire on retry.
    """

    def __init__(self, plan, seed: int = 2020):
        if not isinstance(plan, FaultPlan):
            plan = FaultPlan(list(plan))
        self.plan = plan
        self.seed = int(seed)
        self._lock = threading.Lock()
        self._seen: dict = {}   # (spec_idx, network) -> set of seqs
        self._log: list = []    # append-only event dicts
        #: Operator kill switch (dashboard toggle-injector action):
        #: while ``False``, :meth:`before_execute` is a no-op.  Seq
        #: windows keep advancing on the engine side, so disabling
        #: *skips* scheduled faults rather than deferring them.
        self.enabled = True
        #: Injectable for tests (latency faults sleep through this).
        self.sleep = time.sleep

    # ------------------------------------------------------------------
    # Bookkeeping.
    def _rng(self, spec_idx: int, seq: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, spec_idx, seq])

    def _first_time(self, spec_idx: int, network: str, seq: int) -> bool:
        key = (spec_idx, network)
        with self._lock:
            seen = self._seen.setdefault(key, set())
            if seq in seen:
                return False
            seen.add(seq)
            return True

    def _record(self, kind: str, network: str, seq: int, **detail) -> None:
        event = {"kind": kind, "network": network, "seq": int(seq), **detail}
        with self._lock:
            self._log.append(event)

    # ------------------------------------------------------------------
    # The engine hook.
    def before_execute(self, network: str, entry, requests, inputs,
                       metrics=None) -> None:
        """Apply every active fault to one execution attempt.

        ``requests`` carry per-network ``.seq`` numbers; ``inputs`` is
        the stacked input batch, one row per request (rows mutated in
        place by ``corrupt``).  May sleep (``latency``), mutate ``entry``'s
        parameter arrays (``bitflip``), or raise (``crash``/``poison``
        -> :class:`InjectedCrash`, ``kill`` ->
        :class:`InjectedWorkerDeath`).
        """
        if not self.enabled:
            return
        raise_crash = None
        raise_death = False
        delay = 0.0
        for spec_idx, spec in enumerate(self.plan):
            if not spec.applies_to(network):
                continue
            hits = [(pos, req.seq) for pos, req in enumerate(requests)
                    if spec.in_window(req.seq)]
            if not hits:
                continue
            if spec.kind == "corrupt":
                for pos, seq in hits:
                    self._corrupt(spec_idx, spec, network, seq, inputs[pos],
                                  metrics)
            elif spec.kind == "bitflip":
                for _, seq in hits:
                    if self._first_time(spec_idx, network, seq):
                        self._bitflip(spec_idx, spec, network, seq, entry,
                                      metrics)
            elif spec.kind == "sdc":
                for _, seq in hits:
                    if self._first_time(spec_idx, network, seq):
                        self._sdc(spec_idx, spec, network, seq, entry,
                                  metrics)
            elif spec.kind == "latency":
                fresh = [seq for _, seq in hits
                         if self._first_time(spec_idx, network, seq)]
                if fresh:
                    delay += spec.delay_s
                    for seq in fresh:
                        self._record("latency", network, seq,
                                     delay_s=spec.delay_s)
                        self._count(metrics, network, "latency")
            elif spec.kind == "kill":
                fresh = [seq for _, seq in hits
                         if self._first_time(spec_idx, network, seq)]
                if fresh:
                    for seq in fresh:
                        self._record("kill", network, seq)
                        self._count(metrics, network, "kill")
                    raise_death = True
            elif spec.kind in ("crash", "poison"):
                crash = self._crash(spec_idx, spec, network, hits, metrics)
                raise_crash = raise_crash or crash
        if delay > 0:
            self.sleep(delay)
        if raise_death:
            raise InjectedWorkerDeath(f"injected worker death on {network}")
        if raise_crash is not None:
            raise raise_crash

    # ------------------------------------------------------------------
    # Individual fault mechanics.
    def _corrupt(self, spec_idx: int, spec: FaultSpec, network: str,
                 seq: int, x: np.ndarray, metrics) -> None:
        rng = self._rng(spec_idx, seq)
        # Idempotent by construction: the overwrite is a pure function of
        # (seed, spec, seq), so bisect retries re-derive identical bytes.
        x[...] = rng.integers(-32768, 32768, size=x.shape, dtype=np.int64)
        if self._first_time(spec_idx, network, seq):
            self._record("corrupt", network, seq)
            self._count(metrics, network, "corrupt")

    def _bitflip(self, spec_idx: int, spec: FaultSpec, network: str,
                 seq: int, entry, metrics) -> None:
        rng = self._rng(spec_idx, seq)
        n_flips = int(rng.poisson(spec.rate))
        if n_flips == 0:
            return
        arrays = _param_arrays(entry.params_raw)
        sizes = np.array([arr.size for _, _, arr in arrays])
        total = int(sizes.sum())
        for _ in range(n_flips):
            flat = int(rng.integers(total))
            bit = int(rng.integers(_WORD_BITS))
            arr_idx = int(np.searchsorted(np.cumsum(sizes), flat,
                                          side="right"))
            layer_idx, key, arr = arrays[arr_idx]
            offset = flat - int(np.cumsum(sizes)[arr_idx - 1]) \
                if arr_idx else flat
            arr.flat[offset] = flip_bit16(arr.flat[offset], bit)
            self._record("bitflip", network, seq, layer=layer_idx, key=key,
                         index=offset, bit=bit)
            self._count(metrics, network, "bitflip")

    def _sdc(self, spec_idx: int, spec: FaultSpec, network: str,
             seq: int, entry, metrics) -> None:
        """Arm one silent-data-corruption event on the entry's model.

        The corruption is a single-bit XOR into one element of the next
        dense/LSTM *accumulator* — compute state, not weights, so the
        CRC32 weight guard cannot see it.  It is applied by the model
        itself at its next accumulator and self-clears (transient
        upset); without ABFT it silently corrupts outputs, with ABFT
        the column checksum catches it with certainty (the flipped bit
        is below bit 31, so the row sum changes mod 2**32).
        """
        rng = self._rng(spec_idx, seq)
        row_draw = int(rng.integers(1 << 30))
        col_draw = int(rng.integers(1 << 30))
        bit = int(rng.integers(31))

        def _corrupt_acc(acc, _row=row_draw, _col=col_draw, _bit=bit):
            r = _row % acc.shape[0]
            c = _col % acc.shape[1]
            acc[r, c] = int(acc[r, c]) ^ (1 << _bit)

        entry.model.arm_sdc(_corrupt_acc)
        self._record("sdc", network, seq, bit=bit)
        self._count(metrics, network, "sdc")

    def _crash(self, spec_idx: int, spec: FaultSpec, network: str,
               hits, metrics):
        """Decide whether a crash/poison spec fires for this attempt."""
        firing = []
        for _, seq in hits:
            if spec.kind == "poison":
                # Persistent per-request: fires on every attempt, logged
                # once, so only bisect can isolate it.
                if self._first_time(spec_idx, network, seq):
                    self._record("poison", network, seq)
                    self._count(metrics, network, "poison")
                firing.append(seq)
            elif spec.transient:
                if self._first_time(spec_idx, network, seq):
                    if self._fires(spec_idx, spec, seq):
                        self._record("crash", network, seq, transient=True)
                        self._count(metrics, network, "crash")
                        firing.append(seq)
            else:
                if self._fires(spec_idx, spec, seq):
                    if self._first_time(spec_idx, network, seq):
                        self._record("crash", network, seq, transient=False)
                        self._count(metrics, network, "crash")
                    firing.append(seq)
        if not firing:
            return None
        return InjectedCrash(
            f"injected {spec.kind} on {network} (seqs {sorted(firing)})")

    def _fires(self, spec_idx: int, spec: FaultSpec, seq: int) -> bool:
        if spec.probability >= 1.0:
            return True
        return bool(self._rng(spec_idx, seq).random() < spec.probability)

    @staticmethod
    def _count(metrics, network: str, kind: str) -> None:
        if metrics is not None:
            metrics.on_fault(network, kind)

    # ------------------------------------------------------------------
    # Introspection.
    @property
    def log(self) -> list:
        """The raw injection log (append order; thread-interleaved)."""
        with self._lock:
            return list(self._log)

    def canonical_log(self) -> list:
        """The injection log in canonical order, deduplicated.

        Sorted by ``(network, seq, kind, detail)`` so it is identical
        across runs regardless of worker-thread interleaving — the
        artifact the determinism guarantee is asserted on.
        """
        def _key(event):
            return (event["network"], event["seq"], event["kind"],
                    json.dumps(event, sort_keys=True))
        seen = set()
        out = []
        for event in sorted(self.log, key=_key):
            marker = json.dumps(event, sort_keys=True)
            if marker not in seen:
                seen.add(marker)
                out.append(event)
        return out

    def log_digest(self) -> str:
        """SHA-256 over the canonical log (the determinism fingerprint)."""
        payload = json.dumps(self.canonical_log(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()

    def counts(self) -> dict:
        """Injected-event counts by fault kind (from the canonical log)."""
        out: dict = {}
        for event in self.canonical_log():
            out[event["kind"]] = out.get(event["kind"], 0) + 1
        return out
