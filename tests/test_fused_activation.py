"""Fused activation epilogue (optimization beyond the paper)."""

import zlib

import numpy as np
import pytest

from repro.core import Cpu, Memory
from repro.isa import assemble
from repro.kernels import (AsmBuilder, LEVELS, MatvecJob, gen_matvec,
                           padded_row)
from repro.nn import apply_activation_fixed, dense_fixed


def run_fused(level_key, w, x, bias, activation):
    level = LEVELS[level_key]
    n_out, n_in = w.shape
    row_hw = padded_row(n_in, level_key)
    builder = AsmBuilder()
    gen_matvec(builder, level, MatvecJob(
        n_in=n_in, n_out=n_out, w_addr=0x8000, x_addr=0x2000,
        b_addr=0x3000, out_addr=0x3800, row_halfwords=row_hw,
        acc_addr=0x0FF0), fused_activation=activation)
    builder.emit("ebreak")
    mem = Memory(1 << 17)
    rows = np.zeros((n_out, row_hw), dtype=np.int64)
    rows[:, :n_in] = w
    mem.store_halfwords(0x8000, rows)
    xp = np.zeros(row_hw, dtype=np.int64)
    xp[:n_in] = x
    mem.store_halfwords(0x2000, xp)
    mem.store_halfwords(0x3000, bias)
    cpu = Cpu(assemble(builder.text()), mem, extensions=level.extensions)
    iss = cpu.run()
    return mem.load_halfwords(0x3800, n_out), iss, builder.trace


class TestFusedActivation:
    @pytest.mark.parametrize("level", ("c", "d", "e"))
    @pytest.mark.parametrize("activation", ("tanh", "sig", "relu"))
    def test_matches_golden(self, level, activation):
        rng = np.random.default_rng(
            zlib.crc32(repr((level, activation)).encode()))
        w = rng.integers(-2000, 2000, (17, 14))
        x = rng.integers(-2000, 2000, 14)
        bias = rng.integers(-2000, 2000, 17)
        out, iss, model = run_fused(level, w, x, bias, activation)
        expected = apply_activation_fixed(dense_fixed(w, x, bias),
                                          activation)
        assert np.array_equal(out, expected)
        for t in (iss, model):
            t.instrs.pop("ebreak", None)
            t.cycles.pop("ebreak", None)
        assert iss == model

    def test_cheaper_than_separate_pass(self):
        from repro.kernels import ActivationJob, gen_activation
        rng = np.random.default_rng(0)
        n_in, n_out = 32, 40
        w = rng.integers(-1000, 1000, (n_out, n_in))
        x = rng.integers(-1000, 1000, n_in)
        bias = rng.integers(-500, 500, n_out)
        _, iss_fused, _ = run_fused("e", w, x, bias, "sig")

        builder = AsmBuilder()
        level = LEVELS["e"]
        row_hw = padded_row(n_in, "e")
        gen_matvec(builder, level, MatvecJob(
            n_in=n_in, n_out=n_out, w_addr=0x8000, x_addr=0x2000,
            b_addr=0x3000, out_addr=0x3800, row_halfwords=row_hw,
            acc_addr=0x0FF0))
        gen_activation(builder, level, ActivationJob(
            func="sig", addr=0x3800, count=n_out))
        separate = builder.trace.total_cycles
        assert iss_fused.total_cycles < separate
        # the saving is the whole standalone pass (3 cycles/element now
        # that it is software-pipelined) minus one pl.sig per out
        assert separate - iss_fused.total_cycles > 2 * n_out

    def test_rejected_on_sw_levels(self):
        builder = AsmBuilder()
        job = MatvecJob(n_in=4, n_out=4, w_addr=0x8000, x_addr=0x2000,
                        b_addr=0x3000, out_addr=0x3800, row_halfwords=4,
                        acc_addr=0x0FF0)
        with pytest.raises(ValueError):
            gen_matvec(builder, LEVELS["b"], job, fused_activation="relu")
        with pytest.raises(ValueError):
            gen_matvec(builder, LEVELS["a"], job, fused_activation="tanh")
