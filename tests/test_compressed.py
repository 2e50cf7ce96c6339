"""RV32C compressed encodings: round-trips, boundaries, size analysis."""

import pytest
from hypothesis import given, strategies as st

from repro.isa import Instr, assemble
from repro.isa.compressed import (analyze_program, compress, decompress)

cregs = st.integers(8, 15)
anyreg = st.integers(1, 31)


def roundtrip(instr):
    word = compress(instr)
    assert word is not None, f"{instr} should compress"
    assert 0 <= word <= 0xFFFF
    assert word & 3 != 3, "compressed words never end in 0b11"
    return decompress(word)


def assert_same(instr, twin):
    assert twin.mnemonic == instr.mnemonic
    assert (twin.rd, twin.rs1, twin.rs2, twin.imm) == \
        (instr.rd, instr.rs1, instr.rs2, instr.imm)


class TestRoundTrips:
    @given(cregs, cregs, st.integers(0, 31))
    def test_clw(self, rd, rs1, word_off):
        instr = Instr("lw", rd=rd, rs1=rs1, imm=word_off * 4)
        assert_same(instr, roundtrip(instr))

    @given(cregs, cregs, st.integers(0, 31))
    def test_csw(self, rs2, rs1, word_off):
        instr = Instr("sw", rs2=rs2, rs1=rs1, imm=word_off * 4)
        assert_same(instr, roundtrip(instr))

    @given(anyreg, st.integers(0, 63))
    def test_clwsp_cswsp(self, rd, word_off):
        lw = Instr("lw", rd=rd, rs1=2, imm=word_off * 4)
        assert_same(lw, roundtrip(lw))
        sw = Instr("sw", rs2=rd, rs1=2, imm=word_off * 4)
        assert_same(sw, roundtrip(sw))

    @given(anyreg, st.integers(-32, 31))
    def test_caddi(self, rd, imm):
        instr = Instr("addi", rd=rd, rs1=rd, imm=imm)
        assert_same(instr, roundtrip(instr))

    @given(anyreg, st.integers(-32, 31))
    def test_cli(self, rd, imm):
        instr = Instr("addi", rd=rd, rs1=0, imm=imm)
        assert_same(instr, roundtrip(instr))

    @given(cregs, st.integers(-32, 31))
    def test_candi(self, rd, imm):
        instr = Instr("andi", rd=rd, rs1=rd, imm=imm)
        assert_same(instr, roundtrip(instr))

    @given(cregs, cregs, st.sampled_from(["sub", "xor", "or", "and"]))
    def test_calu(self, rd, rs2, op):
        instr = Instr(op, rd=rd, rs1=rd, rs2=rs2)
        assert_same(instr, roundtrip(instr))

    @given(anyreg, st.integers(1, 31))
    def test_cslli(self, rd, sh):
        instr = Instr("slli", rd=rd, rs1=rd, imm=sh)
        assert_same(instr, roundtrip(instr))

    @given(cregs, st.integers(1, 31), st.sampled_from(["srli", "srai"]))
    def test_cshift(self, rd, sh, op):
        instr = Instr(op, rd=rd, rs1=rd, imm=sh)
        assert_same(instr, roundtrip(instr))

    @given(st.integers(-1024, 1023), st.sampled_from([0, 1]))
    def test_cj_cjal(self, halfoff, rd):
        instr = Instr("jal", rd=rd, imm=halfoff * 2)
        assert_same(instr, roundtrip(instr))

    @given(cregs, st.integers(-128, 127),
           st.sampled_from(["beq", "bne"]))
    def test_cbranch(self, rs1, halfoff, op):
        instr = Instr(op, rs1=rs1, rs2=0, imm=halfoff * 2)
        assert_same(instr, roundtrip(instr))

    @given(anyreg, anyreg)
    def test_cadd(self, rd, rs2):
        instr = Instr("add", rd=rd, rs1=rd, rs2=rs2)
        assert_same(instr, roundtrip(instr))

    @given(anyreg, anyreg)
    def test_cmv_from_add(self, rd, rs2):
        instr = Instr("add", rd=rd, rs1=0, rs2=rs2)
        assert_same(instr, roundtrip(instr))

    def test_cmv_from_addi_semantics(self):
        # addi rd, rs1, 0 compresses to c.mv, which canonically expands
        # to add rd, x0, rs1: textually different, semantically identical
        instr = Instr("addi", rd=10, rs1=11, imm=0)
        twin = decompress(compress(instr))
        assert twin.mnemonic == "add"
        assert (twin.rd, twin.rs1, twin.rs2) == (10, 0, 11)

    def test_jr_jalr_ebreak(self):
        assert_same(Instr("jalr", rd=0, rs1=5, imm=0),
                    roundtrip(Instr("jalr", rd=0, rs1=5, imm=0)))
        assert_same(Instr("jalr", rd=1, rs1=5, imm=0),
                    roundtrip(Instr("jalr", rd=1, rs1=5, imm=0)))
        assert decompress(compress(Instr("ebreak"))).mnemonic == "ebreak"


class TestNotCompressible:
    @pytest.mark.parametrize("instr", [
        Instr("addi", rd=5, rs1=5, imm=100),       # imm too large
        Instr("lw", rd=5, rs1=6, imm=8),           # regs outside x8-15
        Instr("lw", rd=9, rs1=10, imm=2),          # misaligned offset
        Instr("lw", rd=9, rs1=10, imm=128),        # offset too large
        Instr("sub", rd=9, rs1=10, rs2=11),        # rd != rs1
        Instr("p.mac", rd=5, rs1=6, rs2=7),        # no RVC form
        Instr("pv.sdotsp.h", rd=5, rs1=6, rs2=7),
        Instr("pl.tanh", rd=5, rs1=6),
        Instr("beq", rs1=9, rs2=10, imm=4),        # rs2 != x0
        Instr("jal", rd=0, imm=4096),              # offset too far
        Instr("mul", rd=9, rs1=9, rs2=10),
    ])
    def test_returns_none(self, instr):
        assert compress(instr) is None

    def test_decompress_rejects_32bit(self):
        with pytest.raises(ValueError):
            decompress(0x0003)


class TestAnalysis:
    def test_baseline_kernels_highly_compressible(self):
        from repro.kernels import NetworkPlan
        from repro.nn import DenseSpec, Network
        net = Network("cs", (DenseSpec(16, 24, "relu"), DenseSpec(24, 8)))
        prog_a = assemble(NetworkPlan(net, "a").text)
        prog_e = assemble(NetworkPlan(net, "e").text)
        stats_a = analyze_program(prog_a)
        stats_e = analyze_program(prog_e)
        # the generators favour t/a registers, outside RVC's x8-15
        # window, so the fraction is lower than compiler output would be
        assert stats_a.compressible_fraction > 0.25
        # the optimized kernels live in custom-encoding space
        assert stats_e.compressible_fraction < stats_a.compressible_fraction
        assert stats_a.size_rv32c_bytes < stats_a.size_rv32i_bytes
        assert stats_a.compression_ratio < 0.9

    def test_stats_arithmetic(self):
        prog = assemble("addi a0, a0, 1\np.mac a1, a2, a3\nebreak\n")
        stats = analyze_program(prog)
        assert stats.total_instrs == 3
        assert stats.compressed_instrs == 2  # addi + ebreak
        assert stats.size_rv32i_bytes == 12
        assert stats.size_rv32c_bytes == 8

    def test_empty_program(self):
        from repro.isa.program import Program
        stats = analyze_program(Program([]))
        assert stats.compressible_fraction == 0.0
        assert stats.compression_ratio == 1.0


class TestCodesizeDriver:
    def test_driver_runs_and_orders_levels(self):
        from repro.eval.codesize import compute_codesize, format_codesize
        from repro.rrm.networks import suite
        result = compute_codesize(suite(8))
        assert result["a"]["fraction"] > result["e"]["fraction"]
        for stats in result.values():
            assert 0.5 <= stats["ratio"] <= 1.0
        text = format_codesize(result)
        assert "RV32IMC" in text
