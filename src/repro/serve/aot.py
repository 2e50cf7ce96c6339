"""Ahead-of-time plan compiler: one fused batched callable per network.

:class:`AotBatchedModel` is the serving stack's one batched model.  It
lowers a ``(network, level)`` plan **once**, at registry-build time,
into a single generated Python function with no per-layer dispatch:

* weights are preloaded as contiguous arrays — the matvec operand as a
  transposed *float64* copy (see the exactness argument below), the
  requantizing bias pre-shifted into the accumulator domain;
* the dense / LSTM / conv steps of every timestep are emitted inline,
  so one call executes the whole inference;
* ``tanh``/``sig`` are evaluated by a single vectorized ``np.take``
  into precomputed full-domain Q3.12 tables (65536 entries — every
  activation input is post-saturation int16 by construction, so the
  table covers the entire reachable domain);
* every intermediate buffer is preallocated per batch size and reused
  across batches (`out=` forms throughout; the only per-call
  allocation is the returned output copy).

Every row equals an independent scalar
:class:`repro.nn.network.QuantModel` run, the one oracle
(``tests/test_serve_aot.py`` and ``tests/test_serve_batched.py``).

Exactness of the float64 matmul
-------------------------------
The scalar model accumulates ``acc = sum(w_ij * x_j) + (b_i << 12)`` in
exact integer arithmetic before ``wrap32``.  Inputs are int16, as on
the paper's 16-bit datapath (:meth:`AotBatchedModel.infer` rejects
anything wider), weights are int16 by Q3.12 quantization, and every
value fed back between layers is saturated to int16.  So every product
is at most ``2**30`` in magnitude and every partial sum is bounded by
``n_in * 2**30 < 2**53`` for any realistic layer width — each is an
integer exactly representable in IEEE float64, *regardless of the
summation order BLAS picks*.  The float64 GEMM therefore returns the
exact integer sum, the cast back to int64 is exact, and ``wrap32`` /
shift / saturate proceed bit-identically to the integer path — the
same prove-exact-then-vectorize contract as the turbo ISS engine.

ABFT: compiled with ``abft=True``, the plan verifies the integer
column checksum of every dense/LSTM accumulator (:func:`_abft_check`)
and raises :class:`repro.resilience.abft.SdcDetected`, which the
engine answers with quarantine → repair → rerun.  The ``arm_sdc``
fault-injection hook fires at the same point of the datapath in both
plans (the wrapped 32-bit accumulator, before the lossy shift).

A construct the compiler cannot lower (an unknown layer spec or
activation) raises at build time: callers never see a half-compiled
model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..fixedpoint.activations import SIG_TABLE, TANH_TABLE
from ..fixedpoint.lut import pla_apply
from ..nn.network import ConvSpec, DenseSpec, LstmSpec, Network
from ..obs.metrics import REGISTRY

__all__ = ["AotPlan", "compile_plan", "AotBatchedModel",
           "build_serving_model", "TANH_LUT", "SIG_LUT"]

_FRAC = 12

#: Compile and plan-cache events on the unified ``repro.obs`` registry,
#: mirroring ``iss_turbo_events_total``.
_AOT_EVENTS = REGISTRY.counter(
    "serve_aot_events_total",
    "AOT plan-compiler compile and plan-cache events.",
    ("event",))


def _full_domain_lut(table) -> np.ndarray:
    """The PLA evaluated at every int16 point: ``lut[x + 32768]``."""
    lut = pla_apply(table, np.arange(-32768, 32768, dtype=np.int64))
    return np.ascontiguousarray(lut, dtype=np.int64)


TANH_LUT = _full_domain_lut(TANH_TABLE)
SIG_LUT = _full_domain_lut(SIG_TABLE)


def _sdc_hook(model, acc) -> None:
    """Apply a pending injected accumulator corruption (rare path)."""
    model._take_sdc()(acc)


def _abft_check(model, acc, x, colsum, bias_sum) -> None:
    """Column-checksum verification of one fused accumulator.

    For ``acc = wrap32((b << 12) + x @ w.T)`` every fault-free row
    satisfies ``wrap32(sum(acc[r])) == wrap32((sum(b) << 12) + x[r] @
    colsum)`` with ``colsum = w.sum(axis=0)``, exactly (the identity is
    derived in :mod:`repro.resilience.abft`).  ``colsum`` and
    ``bias_sum`` are operands like the weights: ``reload_params``
    re-derives them whenever the registry repairs an entry, so the
    reference never drifts from what the GEMM actually used.
    """
    from ..nn.layers import wrap32
    from ..resilience.abft import SdcDetected
    got = wrap32(acc.sum(axis=1))
    want = wrap32(bias_sum + x @ colsum)
    bad = got != want
    if bad.any():
        rows = np.flatnonzero(bad)
        model.sdc_detections += len(rows)
        raise SdcDetected(
            f"ABFT column-checksum mismatch in {len(rows)} batch "
            f"row(s): {rows.tolist()}", rows=rows)


@dataclass(frozen=True)
class AotPlan:
    """A compiled plan: generated source, callable and operand recipes."""

    network: Network
    abft: bool
    #: The generated Python source (kept for inspection and docs).
    source: str
    #: ``fn(X, T, W, BUF, model) -> np.ndarray`` — the fused pass.
    fn: object
    #: ``[(name, builder(params_raw) -> ndarray), ...]``.
    weight_builders: tuple
    #: ``[(name, shape_fn(B), dtype), ...]`` preallocated per batch size.
    buffer_specs: tuple


class _Compiler:
    """Lowers one network's layer list into fused numpy source."""

    def __init__(self, network: Network, abft: bool):
        self.network = network
        self.abft = abft
        self.lines: list[str] = []
        self.weights: list = []
        self.buffers: list = []

    # -- helpers -------------------------------------------------------
    def emit(self, line: str, indent: int = 2) -> None:
        self.lines.append("    " * indent + line)

    def weight(self, name: str, builder) -> None:
        self.weights.append((name, builder))

    def buffer(self, name: str, shape_fn, dtype=np.int64) -> None:
        self.buffers.append((name, shape_fn, dtype))

    def _wrap32(self, acc: str, tmp: str) -> None:
        """In-place 32-bit two's-complement wrap of ``acc``."""
        self.emit(f"np.bitwise_and({acc}, 0xFFFFFFFF, out={acc})")
        self.emit(f"np.bitwise_and({acc}, 0x80000000, out={tmp})")
        self.emit(f"np.left_shift({tmp}, 1, out={tmp})")
        self.emit(f"np.subtract({acc}, {tmp}, out={acc})")

    def _acc_hooks(self, acc: str, x_int: str, k: int) -> None:
        """SDC injection point + (ABFT variant) checksum verification."""
        self.emit(f"if model._sdc_corruptor is not None: "
                  f"_sdc_hook(model, {acc})")
        if self.abft:
            self.emit(f"_abft_check(model, {acc}, {x_int}, "
                      f"CS{k}, BSUM{k})")

    def _activation(self, acc: str, out: str, func) -> str:
        """Emit the activation; returns the live value variable."""
        if func is None:
            return acc
        if func == "relu":
            self.emit(f"np.maximum({acc}, 0, out={acc})")
            return acc
        lut = "LTANH" if func == "tanh" else "LSIG"
        self.emit(f"{acc} += 32768")
        self.emit(f"np.take({lut}, {acc}, out={out})")
        return out

    # -- layers --------------------------------------------------------
    def dense(self, k: int, spec: DenseSpec) -> None:
        if spec.activation not in (None, "relu", "tanh", "sig"):
            raise ValueError(f"unknown activation {spec.activation!r}")
        m, n = spec.n_in, spec.n_out
        self.weight(f"WF{k}", lambda p, i=k: np.ascontiguousarray(
            np.asarray(p[i]["w"], dtype=np.int64).T, dtype=np.float64))
        self.weight(f"BS{k}", lambda p, i=k: np.ascontiguousarray(
            np.asarray(p[i]["b"], dtype=np.int64) << _FRAC))
        self.buffer(f"XF{k}", lambda B, m=m: (B, m), np.float64)
        self.buffer(f"CF{k}", lambda B, n=n: (B, n), np.float64)
        self.buffer(f"A{k}", lambda B, n=n: (B, n))
        self.buffer(f"T{k}", lambda B, n=n: (B, n))
        if self.abft:
            self.weight(f"CS{k}", lambda p, i=k: np.ascontiguousarray(
                np.asarray(p[i]["w"], dtype=np.int64).sum(axis=0)))
            self.weight(f"BSUM{k}", lambda p, i=k: np.int64(
                int(np.asarray(p[i]["b"], dtype=np.int64).sum())
                << _FRAC))
        self.emit(f"np.copyto(XF{k}, V)")
        self.emit(f"np.matmul(XF{k}, WF{k}, out=CF{k})")
        self.emit(f"np.copyto(A{k}, CF{k}, casting='unsafe')")
        self.emit(f"A{k} += BS{k}")
        self._wrap32(f"A{k}", f"T{k}")
        self._acc_hooks(f"A{k}", "V", k)
        self.emit(f"np.right_shift(A{k}, 12, out=A{k})")
        self.emit(f"np.clip(A{k}, -32768, 32767, out=A{k})")
        if spec.activation in ("tanh", "sig"):
            self.buffer(f"O{k}", lambda B, n=n: (B, n))
        value = self._activation(f"A{k}", f"O{k}", spec.activation)
        self.emit(f"V = {value}")

    def lstm(self, k: int, spec: LstmSpec) -> None:
        m, n = spec.m, spec.n
        self.weight(f"WF{k}", lambda p, i=k: np.ascontiguousarray(
            np.asarray(p[i]["w"], dtype=np.int64).T, dtype=np.float64))
        self.weight(f"BS{k}", lambda p, i=k: np.ascontiguousarray(
            np.asarray(p[i]["b"], dtype=np.int64) << _FRAC))
        self.buffer(f"XHF{k}", lambda B, w=m + n: (B, w), np.float64)
        self.buffer(f"CF{k}", lambda B, w=4 * n: (B, w), np.float64)
        self.buffer(f"Z{k}", lambda B, w=4 * n: (B, w))
        self.buffer(f"T4{k}", lambda B, w=4 * n: (B, w))
        for gate in ("IG", "FG", "OG", "GG", "TN", "H", "C"):
            self.buffer(f"{gate}{k}", lambda B, n=n: (B, n))
        if self.abft:
            self.buffer(f"XH{k}", lambda B, w=m + n: (B, w))
            self.weight(f"CS{k}", lambda p, i=k: np.ascontiguousarray(
                np.asarray(p[i]["w"], dtype=np.int64).sum(axis=0)))
            self.weight(f"BSUM{k}", lambda p, i=k: np.int64(
                int(np.asarray(p[i]["b"], dtype=np.int64).sum())
                << _FRAC))
            self.emit(f"np.copyto(XH{k}[:, :{m}], V)")
            self.emit(f"np.copyto(XH{k}[:, {m}:], H{k})")
            self.emit(f"np.copyto(XHF{k}, XH{k})")
        else:
            self.emit(f"np.copyto(XHF{k}[:, :{m}], V)")
            self.emit(f"np.copyto(XHF{k}[:, {m}:], H{k})")
        self.emit(f"np.matmul(XHF{k}, WF{k}, out=CF{k})")
        self.emit(f"np.copyto(Z{k}, CF{k}, casting='unsafe')")
        self.emit(f"Z{k} += BS{k}")
        self._wrap32(f"Z{k}", f"T4{k}")
        self._acc_hooks(f"Z{k}", f"XH{k}", k)
        self.emit(f"np.right_shift(Z{k}, 12, out=Z{k})")
        self.emit(f"np.clip(Z{k}, -32768, 32767, out=Z{k})")
        self.emit(f"Z{k} += 32768")
        self.emit(f"np.take(LSIG, Z{k}[:, :{n}], out=IG{k})")
        self.emit(f"np.take(LSIG, Z{k}[:, {n}:{2 * n}], out=FG{k})")
        self.emit(f"np.take(LSIG, Z{k}[:, {2 * n}:{3 * n}], out=OG{k})")
        self.emit(f"np.take(LTANH, Z{k}[:, {3 * n}:], out=GG{k})")
        self.emit(f"np.multiply(IG{k}, GG{k}, out=IG{k})")
        self.emit(f"np.right_shift(IG{k}, 12, out=IG{k})")
        self.emit(f"np.multiply(FG{k}, C{k}, out=FG{k})")
        self.emit(f"np.right_shift(FG{k}, 12, out=FG{k})")
        self.emit(f"np.add(IG{k}, FG{k}, out=IG{k})")
        self.emit(f"np.clip(IG{k}, -32768, 32767, out=C{k})")
        self.emit(f"np.add(C{k}, 32768, out=TN{k})")
        self.emit(f"np.take(LTANH, TN{k}, out=IG{k})")
        self.emit(f"np.multiply(OG{k}, IG{k}, out=H{k})")
        self.emit(f"np.right_shift(H{k}, 12, out=H{k})")
        self.emit(f"V = H{k}")

    def conv(self, k: int, spec: ConvSpec) -> None:
        # im2col + float64 GEMM, exact by the same bound as dense.  No
        # SDC or ABFT hook: the conv checksum algebra differs.
        ho, wo = spec.h_out, spec.w_out
        kk, pix, win = spec.k, ho * wo, spec.cin * spec.k ** 2
        self.weight(f"WCF{k}", lambda p, i=k, c=spec.cout:
                    np.ascontiguousarray(
                        np.asarray(p[i]["w"], dtype=np.int64)
                        .reshape(c, -1).T, dtype=np.float64))
        self.weight(f"BSC{k}", lambda p, i=k: np.ascontiguousarray(
            np.asarray(p[i]["b"], dtype=np.int64) << _FRAC))
        self.buffer(f"XCF{k}", lambda B, s=(pix, win): (B,) + s,
                    np.float64)
        self.buffer(f"CFC{k}", lambda B, s=(pix, spec.cout): (B,) + s,
                    np.float64)
        self.buffer(f"AC{k}", lambda B, s=(pix, spec.cout): (B,) + s)
        self.buffer(f"TC{k}", lambda B, s=(pix, spec.cout): (B,) + s)
        self.buffer(f"OC{k}", lambda B, s=(spec.cout, pix): (B,) + s)
        self.emit(f"PV{k} = V.reshape(B, {spec.cin}, {spec.h}, "
                  f"{spec.w})")
        self.emit(f"PW{k} = _windows(PV{k}, ({kk}, {kk}), "
                  f"axis=(2, 3))")
        # im2col: gather (B, ho, wo, cin, k, k) patches into the
        # float64 GEMM operand, then one batched matmul per layer.
        self.emit(f"np.copyto(XCF{k}.reshape(B, {ho}, {wo}, "
                  f"{spec.cin}, {kk}, {kk}), "
                  f"PW{k}.transpose(0, 2, 3, 1, 4, 5))")
        self.emit(f"np.matmul(XCF{k}, WCF{k}, out=CFC{k})")
        self.emit(f"np.copyto(AC{k}, CFC{k}, casting='unsafe')")
        self.emit(f"AC{k} += BSC{k}")
        self._wrap32(f"AC{k}", f"TC{k}")
        self.emit(f"np.right_shift(AC{k}, 12, out=AC{k})")
        self.emit(f"np.clip(AC{k}, -32768, 32767, out=AC{k})")
        # back to the scalar model's channel-major (B, cout*ho*wo).
        self.emit(f"np.copyto(OC{k}, AC{k}.transpose(0, 2, 1))")
        self.emit(f"V = OC{k}.reshape(B, -1)")

    # -- driver --------------------------------------------------------
    def compile(self) -> AotPlan:
        head = ["def _aot_pass(X, T, W, BUF, model):",
                "    B = X.shape[0]"]
        self.emit("V = X if X.ndim == 2 else X[:, _t]")
        for k, spec in enumerate(self.network.layers):
            if isinstance(spec, DenseSpec):
                self.dense(k, spec)
            elif isinstance(spec, LstmSpec):
                self.lstm(k, spec)
            elif isinstance(spec, ConvSpec):
                self.conv(k, spec)
            else:
                raise TypeError(
                    f"cannot compile layer spec {type(spec).__name__}")
        body = self.lines
        self.lines = []
        # Prologue: bind operands/buffers to locals, zero LSTM state.
        for name, _ in self.weights:
            self.emit(f"{name} = W['{name}']", indent=1)
        for name, _, _ in self.buffers:
            self.emit(f"{name} = BUF['{name}']", indent=1)
        for k, spec in enumerate(self.network.layers):
            if isinstance(spec, LstmSpec):
                self.emit(f"H{k}.fill(0)", indent=1)
                self.emit(f"C{k}.fill(0)", indent=1)
        self.emit("for _t in range(T):", indent=1)
        source = "\n".join(head + self.lines + body
                           + ["    return V.copy()"])
        namespace = {"np": np, "LTANH": TANH_LUT, "LSIG": SIG_LUT,
                     "_windows": np.lib.stride_tricks.sliding_window_view,
                     "_sdc_hook": _sdc_hook, "_abft_check": _abft_check}
        exec(compile(source, f"<aot:{self.network.name}>", "exec"),
             namespace)
        return AotPlan(network=self.network, abft=self.abft,
                       source=source, fn=namespace["_aot_pass"],
                       weight_builders=tuple(self.weights),
                       buffer_specs=tuple(self.buffers))


_PLAN_CACHE: dict = {}


def compile_plan(network: Network, abft: bool = False) -> AotPlan:
    """Compile (or fetch the cached) fused plan for one network.

    Plans are cached on ``(network, abft)`` — the generated code
    depends only on the layer structure, never on parameter values, so
    every registry (and every batch size) shares one compilation.
    """
    key = (network, bool(abft))
    plan = _PLAN_CACHE.get(key)
    if plan is not None:
        _AOT_EVENTS.inc(event="plan_cache_hit")
        return plan
    plan = _Compiler(network, abft).compile()
    _PLAN_CACHE[key] = plan
    _AOT_EVENTS.inc(event="compile")
    return plan


class AotBatchedModel:
    """The batched serving model: one network's compiled plan.

    :meth:`infer` runs one full inference per row of a batch; with
    ``abft`` the plan verifies every dense/LSTM accumulator and raises
    :class:`repro.resilience.abft.SdcDetected` on a mismatch.  The
    static per-inference cycle estimate is carried as
    :attr:`cycles_per_request` and is cycle-exact vs
    :func:`repro.perfmodel.predict_network_cycles` (asserted by
    ``tests/test_serve_aot.py``).
    """

    def __init__(self, network: Network, params_raw: list,
                 level: str = "e", abft: bool = False):
        self.network = network
        #: The quantized parameter arrays (shared with the registry's
        #: reference model; repairs restore them in place).
        self.params = params_raw
        self.level = level
        self._plan = compile_plan(network, abft)
        self._weights: dict = {}
        self.reload_params()
        self._buffers: dict[int, dict] = {}
        self._sdc_corruptor = None
        #: Batch rows whose ABFT checksum failed (always 0 without ABFT).
        self.sdc_detections = 0
        from ..rrm.suite import network_trace
        #: Static whole-inference cycle count of the generated kernel
        #: (== ``predict_network_cycles(network, level).cycles``).
        self.cycles_per_request = int(
            network_trace(network, level).total_cycles)

    def reload_params(self) -> None:
        """Re-derive every preloaded operand from ``self.params``.

        Called by :meth:`repro.serve.engine.ModelRegistry.repair` after
        restoring pristine parameters, so the compiled operands can
        never drift from the registry's ground truth.
        """
        for name, builder in self._plan.weight_builders:
            self._weights[name] = builder(self.params)

    def arm_sdc(self, corruptor) -> None:
        """Arm a one-shot accumulator corruption for fault injection.

        ``corruptor(acc)`` mutates the next dense/LSTM accumulator in
        place (a single-bit flip, typically).  Without ABFT the
        corruption reaches the outputs silently — this is what an
        undetected SDC looks like; with ABFT the checksum catches it.
        Arming twice before the next accumulator chains the corruptors.
        """
        prev = self._sdc_corruptor
        if prev is None:
            self._sdc_corruptor = corruptor
        else:
            def chained(acc, _first=prev, _second=corruptor):
                _first(acc)
                _second(acc)
            self._sdc_corruptor = chained

    def _take_sdc(self):
        corruptor, self._sdc_corruptor = self._sdc_corruptor, None
        return corruptor

    def _buffers_for(self, batch: int) -> dict:
        buf = self._buffers.get(batch)
        if buf is None:
            buf = {name: np.zeros(shape_fn(batch), dtype=dtype)
                   for name, shape_fn, dtype in self._plan.buffer_specs}
            self._buffers[batch] = buf
        return buf

    def infer(self, x_batch) -> np.ndarray:
        """One full inference per row, from zero state.

        Args:
            x_batch: ``(B, T, in_size)`` int16 values with ``B >= 1``
                and ``T == network.timesteps``, or ``(B, in_size)`` to
                feed the same input at every timestep.

        Returns:
            ``(B, out_size)`` raw outputs of the final timestep.

        Raises:
            ValueError: on any other shape, or on a value outside
                [-32768, 32767] (where the float64-GEMM exactness
                argument stops holding).
        """
        x = np.asarray(x_batch, dtype=np.int64)
        timesteps, n_in = self.network.timesteps, self.network.input_size
        if x.shape[1:] not in ((timesteps, n_in), (n_in,)) or not len(x):
            raise ValueError(
                f"expected (B, {timesteps}, {n_in}) or (B, {n_in}) "
                f"inputs with B >= 1, got {x.shape}")
        if x.min() < -32768 or x.max() > 32767:
            raise ValueError("inputs must lie in the int16 range "
                             "[-32768, 32767]")
        return self._plan.fn(x, timesteps, self._weights,
                             self._buffers_for(x.shape[0]), self)


def build_serving_model(network: Network, params_raw: list,
                        level: str = "e",
                        abft: bool = False) -> AotBatchedModel:
    """Build the serving model for one registry entry."""
    return AotBatchedModel(network, params_raw, level=level, abft=abft)
