"""Network planning and execution on the simulated core.

:class:`NetworkPlan` lowers a :class:`~repro.nn.network.Network` to one
assembly program for a given optimization level: it places every buffer
with :class:`~repro.kernels.common.DataLayout`, emits all layer kernels,
and carries the builder's exact static instruction/cycle histogram (the
analytical performance model needs nothing else — no weights, no
execution).

:class:`NetworkProgram` turns a plan into an executable: assembles the
program, writes the quantized parameter image and PLA LUTs into simulator
memory, and steps inputs through the core.  Results are bit-exact against
:class:`~repro.nn.network.QuantModel`.
"""

from __future__ import annotations

import numpy as np

from ..core.cpu import Cpu
from ..core.memory import Memory
from ..core.tracer import Trace
from ..fixedpoint.activations import SIG_TABLE, TANH_TABLE
from ..isa.assembler import assemble
from ..nn.network import ConvSpec, DenseSpec, LstmSpec, Network, QuantModel
from .common import AsmBuilder, DataLayout, LEVELS, OptLevel
from .conv import gen_conv
from .copy import gen_copy
from .fc import gen_fc
from .jobs import ConvJob, MatvecJob, padded_row
from .lstm import LstmJob, gen_lstm_step
from .matvec import SPILL_ADDR

__all__ = ["NetworkPlan", "NetworkProgram", "FRAME_REGS", "FRAME_ADDR"]

_LUT_LEN = TANH_TABLE.n_intervals

#: Callee-saved registers each level's layer kernels clobber (plus ra).
#: Real deployments call one C function per layer; the save/restore and
#: call/return costs are part of the measured kernels, so we model them.
FRAME_REGS = {"a": 10, "b": 6, "c": 12, "d": 12, "e": 12, "f": 12}

#: Frame save area (absolute, reachable via imm(x0); above the level-e
#: spill slots, below the DataLayout base).
FRAME_ADDR = 32


def _sreg_num(i: int) -> int:
    """x-register number of ``s{i}`` (s0/s1 = x8/x9, s2.. = x18..)."""
    return 8 + i if i < 2 else 16 + i


def _emit_frame_begin(b: AsmBuilder, level: OptLevel) -> None:
    b.comment("layer call frame: save")
    with b.region("frame"):
        b.emit("jal x0, 4")  # call cost (jump-and-link to the function)
        b.emit(f"sw ra, {FRAME_ADDR}(x0)")
        for i in range(FRAME_REGS[level.key]):
            b.emit(f"sw s{i}, {FRAME_ADDR + 4 + 4 * i}(x0)")
    b.written_mask = 0  # track clobbers across the layer body


def _emit_frame_end(b: AsmBuilder, level: OptLevel) -> None:
    # Dead-restore elimination: a saved register the layer body never
    # wrote still holds its saved value, so reloading it is a no-op.
    clobbered = b.written_mask
    b.comment("layer call frame: restore")
    with b.region("frame"):
        for i in range(FRAME_REGS[level.key]):
            if (clobbered >> _sreg_num(i)) & 1:
                b.emit(f"lw s{i}, {FRAME_ADDR + 4 + 4 * i}(x0)")
        b.emit(f"lw ra, {FRAME_ADDR}(x0)")
        b.emit("jal x0, 4")  # return cost


class NetworkPlan:
    """Placement + code generation for one network at one level."""

    def __init__(self, network: Network, level):
        """``level`` is a level key ("a".."e") or an OptLevel instance
        (the latter allows ablation levels, e.g. tiling without the
        activation extension)."""
        if isinstance(level, OptLevel):
            self.level = level
        elif level in LEVELS:
            self.level = LEVELS[level]
        else:
            raise ValueError(f"unknown optimization level {level!r}")
        self.network = network
        self.layout = DataLayout(base=0x1000)
        self.builder = AsmBuilder()
        self._plan_fixed_regions()
        self._plan_and_emit_layers()
        self.builder.emit("ebreak")
        self.text = self.builder.text()

    # ------------------------------------------------------------------
    @property
    def trace(self) -> Trace:
        """Exact per-step instruction/cycle histogram (static analysis)."""
        return self.builder.trace

    @property
    def region_paths(self) -> list:
        """Per-instruction profiler region paths (index = program index)."""
        return self.builder.region_paths

    @property
    def cycles_per_step(self) -> int:
        return self.builder.trace.total_cycles

    # ------------------------------------------------------------------
    def _plan_fixed_regions(self) -> None:
        layout = self.layout
        if layout.base <= SPILL_ADDR + 8:
            raise ValueError("layout base overlaps the spill slots")
        self.acc_addr = layout.alloc_word("acc", 1)
        self.lut_tanh_m = layout.alloc_half("lut_tanh_m", _LUT_LEN)
        self.lut_tanh_q = layout.alloc_half("lut_tanh_q", _LUT_LEN)
        self.lut_sig_m = layout.alloc_half("lut_sig_m", _LUT_LEN)
        self.lut_sig_q = layout.alloc_half("lut_sig_q", _LUT_LEN)

    def _lstm_xh_size(self, spec: LstmSpec) -> int:
        return padded_row(spec.m + spec.n, self.level.key)

    def _plan_and_emit_layers(self) -> None:
        """Allocate buffers and emit each layer's kernel in order."""
        network, level, layout = self.network, self.level, self.layout
        b = self.builder
        quantum = level.key

        # Input buffer of layer 0 (LSTM layers own their xh buffer).
        first = network.layers[0]
        if isinstance(first, LstmSpec):
            if first.m % 2 or first.n % 2:
                raise ValueError("LSTM widths must be even (layout rule)")
            addr = layout.alloc_half("xh0", self._lstm_xh_size(first))
        else:
            addr = layout.alloc_half("in0", padded_row(first.in_size,
                                                       quantum))
        self.input_addr = addr
        self.lstm_states: list[dict] = []

        src = addr  # where the current layer reads its input vector
        for index, spec in enumerate(network.layers):
            is_last = index == len(network.layers) - 1
            nxt = None if is_last else network.layers[index + 1]
            kind = {LstmSpec: "lstm", DenseSpec: "dense",
                    ConvSpec: "conv"}[type(spec)]
            region = b.region(f"L{index}.{kind}")
            region.__enter__()
            _emit_frame_begin(b, level)

            if isinstance(spec, LstmSpec):
                if spec.m % 2 or spec.n % 2:
                    raise ValueError("LSTM widths must be even")
                if index == 0:
                    xh = self.input_addr
                elif f"xh{index}" in layout.regions:
                    # the previous dense/conv layer already wrote its
                    # output straight into this xh's x slot
                    xh = layout.addr(f"xh{index}")
                else:
                    xh = layout.alloc_half(f"xh{index}",
                                           self._lstm_xh_size(spec))
                    # previous hidden state -> this layer's x slot
                    gen_copy(b, level, src, xh, spec.m)
                c_addr = layout.alloc_half(f"c{index}", spec.n)
                z_addr = layout.alloc_half(f"z{index}",
                                           padded_row(4 * spec.n, quantum))
                w_addr = layout.alloc_half(
                    f"w{index}",
                    4 * spec.n * padded_row(spec.m + spec.n, quantum))
                b_addr = layout.alloc_half(f"b{index}", 4 * spec.n)
                job = LstmJob(
                    m=spec.m, n=spec.n, w_addr=w_addr, b_addr=b_addr,
                    xh_addr=xh, z_addr=z_addr, c_addr=c_addr,
                    row_halfwords=padded_row(spec.m + spec.n, quantum),
                    acc_addr=self.acc_addr,
                    lut_tanh_m=self.lut_tanh_m, lut_tanh_q=self.lut_tanh_q,
                    lut_sig_m=self.lut_sig_m, lut_sig_q=self.lut_sig_q)
                gen_lstm_step(b, level, job)
                self.lstm_states.append(
                    {"h_addr": job.h_addr, "c_addr": c_addr, "n": spec.n})
                src = job.h_addr
                if is_last:
                    self.output_addr = job.h_addr
                _emit_frame_end(b, level)
                region.__exit__(None, None, None)
                continue

            # Dense / Conv: allocate the destination buffer.
            if nxt is not None and isinstance(nxt, LstmSpec):
                if nxt.m % 2 or nxt.n % 2:
                    raise ValueError("LSTM widths must be even")
                dst = layout.alloc_half(f"xh{index + 1}",
                                        self._lstm_xh_size(nxt))
            else:
                dst = layout.alloc_half(f"buf{index + 1}",
                                        padded_row(spec.out_size, quantum))
            if isinstance(spec, DenseSpec):
                w_addr = layout.alloc_half(
                    f"w{index}",
                    spec.n_out * padded_row(spec.n_in, quantum))
                b_addr = layout.alloc_half(f"b{index}", spec.n_out)
                if level.key == "f":
                    # beyond-the-paper: interleaved stream, fused act
                    from .interleaved import gen_matvec_interleaved
                    gen_matvec_interleaved(
                        b, n_in=spec.n_in, n_out=spec.n_out,
                        w_addr=w_addr, x_addr=src, b_addr=b_addr,
                        out_addr=dst,
                        row_halfwords=padded_row(spec.n_in, quantum),
                        max_tile=level.max_tile,
                        fused_activation=spec.activation)
                else:
                    job = MatvecJob(
                        n_in=spec.n_in, n_out=spec.n_out, w_addr=w_addr,
                        x_addr=src, b_addr=b_addr, out_addr=dst,
                        row_halfwords=padded_row(spec.n_in, quantum),
                        acc_addr=self.acc_addr)
                    luts = {
                        "tanh": (self.lut_tanh_m, self.lut_tanh_q),
                        "sig": (self.lut_sig_m, self.lut_sig_q),
                        "relu": (None, None),
                        None: (None, None),
                    }[spec.activation]
                    gen_fc(b, level, job, activation=spec.activation,
                           lut_m_addr=luts[0], lut_q_addr=luts[1])
            else:  # ConvSpec
                patch_hw = padded_row(spec.cin * spec.k ** 2, quantum)
                if level.key == "a":
                    w_addr = layout.alloc_half(
                        f"w{index}", spec.cout * spec.cin * spec.k ** 2)
                    patch_addr = 0
                else:
                    w_addr = layout.alloc_half(f"w{index}",
                                               spec.cout * patch_hw)
                    patch_addr = layout.alloc_half(f"patch{index}", patch_hw)
                b_addr = layout.alloc_half(f"b{index}", spec.cout)
                # level f's interleaved matvec has no strided-output form;
                # conv layers fall back to the level-e kernels
                conv_level = LEVELS["e"] if level.key == "f" else level
                gen_conv(b, conv_level, ConvJob(
                    cin=spec.cin, cout=spec.cout, h=spec.h, w=spec.w,
                    k=spec.k, w_addr=w_addr, x_addr=src, b_addr=b_addr,
                    out_addr=dst, patch_addr=patch_addr,
                    patch_row_halfwords=patch_hw, acc_addr=self.acc_addr))
            src = dst
            if is_last:
                self.output_addr = dst
            _emit_frame_end(b, level)
            region.__exit__(None, None, None)


class NetworkProgram:
    """Executable network: plan + assembled program + parameter image."""

    def __init__(self, network: Network, params_raw: list,
                 level_key: str = "d", max_instrs: int = 500_000_000,
                 wait_states: int = 0, engine: str = "interp"):
        self.plan = NetworkPlan(network, level_key)
        self.network = network
        self.params = params_raw
        self.program = assemble(self.plan.text)
        size = self.plan.layout._next + 0x1000
        self.memory = Memory(size_bytes=(size + 0xFFF) & ~0xFFF,
                             wait_states=wait_states)
        self.cpu = Cpu(self.program, self.memory,
                       extensions=self.plan.level.extensions,
                       max_instrs=max_instrs, engine=engine)
        self._write_luts()
        self._write_params()
        self.reset_state()

    # ------------------------------------------------------------------
    def _write_luts(self) -> None:
        plan, mem = self.plan, self.memory
        mem.store_halfwords(plan.lut_tanh_m, TANH_TABLE.slopes)
        mem.store_halfwords(plan.lut_tanh_q, TANH_TABLE.offsets)
        mem.store_halfwords(plan.lut_sig_m, SIG_TABLE.slopes)
        mem.store_halfwords(plan.lut_sig_q, SIG_TABLE.offsets)

    def _padded_rows(self, w: np.ndarray, row_hw: int) -> np.ndarray:
        rows, cols = w.shape
        out = np.zeros((rows, row_hw), dtype=np.int64)
        out[:, :cols] = w
        return out

    def _write_params(self) -> None:
        plan, mem = self.plan, self.memory
        quantum = plan.level.key
        for index, (spec, layer) in enumerate(zip(self.network.layers,
                                                  self.params)):
            w = np.asarray(layer["w"], dtype=np.int64)
            bias = np.asarray(layer["b"], dtype=np.int64)
            w_addr = plan.layout.addr(f"w{index}")
            b_addr = plan.layout.addr(f"b{index}")
            if isinstance(spec, ConvSpec):
                flat = w.reshape(spec.cout, -1)
                if quantum == "a":
                    mem.store_halfwords(w_addr, flat)
                else:
                    row_hw = padded_row(spec.cin * spec.k ** 2, quantum)
                    mem.store_halfwords(w_addr,
                                        self._padded_rows(flat, row_hw))
            else:
                row_hw = padded_row(spec.in_size if isinstance(spec,
                                    DenseSpec) else spec.m + spec.n, quantum)
                if quantum == "f":
                    from .interleaved import interleave_weights
                    mem.store_halfwords(
                        w_addr, interleave_weights(
                            w, row_hw, plan.level.max_tile))
                else:
                    mem.store_halfwords(w_addr,
                                        self._padded_rows(w, row_hw))
            mem.store_halfwords(b_addr, bias)

    # ------------------------------------------------------------------
    def reset_state(self) -> None:
        """Zero the recurrent state (h and c buffers)."""
        for state in self.plan.lstm_states:
            zeros = np.zeros(state["n"], dtype=np.int64)
            self.memory.store_halfwords(state["h_addr"], zeros)
            self.memory.store_halfwords(state["c_addr"], zeros)

    def step(self, x_raw) -> np.ndarray:
        """Run one inference step; returns the raw output vector."""
        x = np.asarray(x_raw, dtype=np.int64)
        if x.shape != (self.network.input_size,):
            raise ValueError(
                f"input must have shape ({self.network.input_size},)")
        self.memory.store_halfwords(self.plan.input_addr, x)
        self.cpu.execute(0)
        return self.memory.load_halfwords(self.plan.output_addr,
                                          self.network.output_size)

    def forward(self, xs_raw) -> np.ndarray:
        out = None
        for x in xs_raw:
            out = self.step(x)
        return out

    def run_and_check(self, xs_raw) -> np.ndarray:
        """Run a sequence and assert bit-exactness vs. the golden model.

        Returns the final output.  Raises AssertionError on any mismatch.
        """
        golden = QuantModel(self.network, self.params)
        self.reset_state()
        out = ref = None
        for t, x in enumerate(xs_raw):
            out = self.step(x)
            ref = golden.step(x)
            if not np.array_equal(out, ref):
                bad = np.flatnonzero(out != ref)
                raise AssertionError(
                    f"{self.network.name} level {self.plan.level.key} "
                    f"step {t}: mismatch at outputs {bad[:8]} "
                    f"(got {out[bad[:8]]}, want {ref[bad[:8]]})")
        return out

    @property
    def trace(self) -> Trace:
        """Accumulated ISS execution histogram across all steps so far."""
        return self.cpu.trace()
