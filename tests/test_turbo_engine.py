"""Unit tests for the turbo execution engine (``repro.core.turbo``).

The differential suites (``test_turbo_differential``,
``test_turbo_fuzz``) establish equivalence at scale; these tests pin the
engine's contract points one by one: engine selection, vectorization
thresholds, fallback behavior, error semantics, and cycle attribution.
"""

import pytest

from repro.core import (Cpu, ExecutionLimitExceeded, Memory, MemoryError32,
                        SimError)
from repro.core.turbo import VEC_MIN_ITERS
from repro.isa import assemble


def _pair(src, mem_words=1 << 16, wait_states=0, **kw):
    program = assemble(src)
    cpus = []
    for engine in ("interp", "turbo"):
        cpu = Cpu(program, Memory(mem_words, wait_states=wait_states),
                  engine=engine, **kw)
        cpus.append(cpu)
    return cpus


def _assert_same(ref, tur):
    assert tur.instret == ref.instret
    assert tur.cycles == ref.cycles
    assert [tur.reg(r) for r in range(32)] == \
        [ref.reg(r) for r in range(32)]
    assert tur.memory.words == ref.memory.words
    assert [tuple(c) for c in tur._stats] == \
        [tuple(c) for c in ref._stats]


class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        program = assemble("ebreak")
        with pytest.raises(SimError, match="unknown engine"):
            Cpu(program, Memory(1 << 12), engine="warp")

    def test_interp_has_zero_turbo_stats(self):
        program = assemble("ebreak")
        cpu = Cpu(program, Memory(1 << 12))
        cpu.run()
        assert cpu.turbo_stats["vector_loops"] == 0


class TestVectorization:
    def test_long_hw_loop_vectorizes(self):
        src = """
            li a1, 0x1000
            lp.setupi 0, 400, end
            p.lw t0, 4(a1!)
            add a0, a0, t0
        end:
            xor a2, a2, a0
            ebreak
        """
        ref, tur = _pair(src)
        ref.run()
        tur.run()
        _assert_same(ref, tur)
        assert tur.turbo_stats["vector_loops"] >= 1
        assert tur.turbo_stats["bails"] == 0

    def test_short_loop_stays_on_closures(self):
        count = VEC_MIN_ITERS - 1
        src = f"""
            li a1, 0x1000
            lp.setupi 0, {count}, end
            p.lw t0, 4(a1!)
            add a0, a0, t0
        end:
            xor a2, a2, a0
            ebreak
        """
        ref, tur = _pair(src)
        ref.run()
        tur.run()
        _assert_same(ref, tur)
        assert tur.turbo_stats["vector_loops"] == 0

    def test_jal_fallthrough_filler_body(self):
        # Generated kernels pad some loop bodies with jal x0, 4; the
        # body is still straight-line and must vectorize.
        src = """
            li a1, 0x1000
            lp.setupi 0, 300, end
            p.lw t0, 4(a1!)
            jal x0, 4
            add a0, a0, t0
        end:
            addi a3, a3, 2
            ebreak
        """
        ref, tur = _pair(src)
        ref.run()
        tur.run()
        _assert_same(ref, tur)
        assert tur.turbo_stats["vector_loops"] >= 1

    def test_branch_loop_vectorizes(self):
        src = """
            li s4, 0
            li s5, 2000
            li a1, 0x1000
        top:
            p.lw t0, 4(a1!)
            add a0, a0, t0
            addi s4, s4, 1
            bltu s4, s5, top
            ebreak
        """
        ref, tur = _pair(src)
        ref.run()
        tur.run()
        _assert_same(ref, tur)
        assert tur.turbo_stats["vector_iters"] > 0

    def test_spr_stream_exact_with_wait_states(self):
        src = """
            li a0, 0x1000
            li a1, 0x2000
            li t1, 0x3000
            pl.sdotsp.h.0 x0, a0, x0
            pl.sdotsp.h.1 x0, a1, x0
            lp.setupi 0, 200, end
            p.lw t0, 4(t1!)
            pl.sdotsp.h.0 s0, a0, t0
            pl.sdotsp.h.1 s1, a1, t0
        end:
            ebreak
        """
        for wait in (0, 2):
            ref, tur = _pair(src, wait_states=wait)
            ref.run()
            tur.run()
            _assert_same(ref, tur)


class TestLoopSemantics:
    def test_zero_count_register_loop_skips_body(self):
        src = """
            li a2, 0
            lp.setup 0, a2, end
            addi t0, t0, 1
        end:
            addi t1, t1, 1
            ebreak
        """
        ref, tur = _pair(src)
        ref.run()
        tur.run()
        _assert_same(ref, tur)
        assert tur.reg(5) == 0  # body skipped
        assert tur.reg(6) == 1

    def test_state_persists_across_runs(self):
        # NetworkProgram.step() calls run(0) repeatedly on one Cpu; the
        # plan cache and counters must accumulate exactly.
        src = """
            li a1, 0x1000
            lp.setupi 0, 100, end
            p.lw t0, 4(a1!)
            add a0, a0, t0
        end:
            ebreak
        """
        ref, tur = _pair(src)
        for _ in range(3):
            ref.run(0)
            tur.run(0)
        _assert_same(ref, tur)


class TestErrors:
    def test_execution_limit_exact_on_closure_path(self):
        # The and-chained operand is not an affine induction, so the
        # loop never vectorizes; the amortized budget check must raise
        # at exactly the same retired count as the interpreter's
        # per-instruction check.
        src = """
            li a0, 255
            li a1, 255
        top:
            and a0, a0, a1
            bge a0, x0, top
            ebreak
        """
        ref, tur = _pair(src, max_instrs=501)
        with pytest.raises(ExecutionLimitExceeded):
            ref.run()
        with pytest.raises(ExecutionLimitExceeded):
            tur.run()
        assert tur.turbo_stats["vector_iters"] == 0
        assert tur.instret == ref.instret

    def test_execution_limit_caught_in_vector_loop(self):
        # A vectorized never-exiting loop: the kernel detects the
        # budget between windows — possibly late, never missed — and
        # instret must reflect the overrun.
        src = """
            li s4, 0
        top:
            addi s4, s4, 1
            bge s4, x0, top
            ebreak
        """
        limit = 100_000
        ref, tur = _pair(src, max_instrs=limit)
        with pytest.raises(ExecutionLimitExceeded):
            ref.run()
        with pytest.raises(ExecutionLimitExceeded):
            tur.run()
        assert ref.instret == limit + 1
        assert tur.instret > limit

    def test_budget_is_per_run(self):
        # Each run of 1000 loop trips retires 2004 instructions, well
        # inside the budget; ten runs retire four times the budget in
        # total.  A run past the budget still raises, and instret
        # counts its overrun on top of the earlier runs.
        src = """
            li a1, 0x100
            lw s5, 0(a1)
            li s4, 0
        top:
            addi s4, s4, 1
            blt s4, s5, top
            ebreak
        """
        limit = 5_000
        ref, tur = _pair(src, max_instrs=limit)
        for cpu in (ref, tur):
            cpu.memory.store_word(0x100, 1000)
            for _ in range(10):
                cpu.run()
            assert cpu.instret == 10 * 2004
            cpu.memory.store_word(0x100, 100_000)
            with pytest.raises(ExecutionLimitExceeded):
                cpu.run()
        assert tur.turbo_stats["vector_iters"] > 0
        assert ref.instret == 10 * 2004 + limit + 1
        assert tur.instret > 10 * 2004 + limit

    def test_wild_address_raises_memory_error(self):
        src = """
            li a1, 0x7f000000
            lw t0, 0(a1)
            ebreak
        """
        for cpu in _pair(src, mem_words=1 << 12):
            with pytest.raises(MemoryError32):
                cpu.run()

    def test_oob_inside_vector_window(self):
        # The streamed pointer runs off the end of memory mid-loop; the
        # turbo engine must surface the same error (after bailing out of
        # the vector path), not silently clamp.
        src = """
            li a1, 15000
            lp.setupi 0, 500, end
            p.lw t0, 4(a1!)
            add a0, a0, t0
        end:
            ebreak
        """
        for cpu in _pair(src, mem_words=1 << 12):
            with pytest.raises(MemoryError32):
                cpu.run()


class TestCycleAttribution:
    def test_histogram_cells_match_per_instruction(self):
        # Not just total cycles: every static instruction's [count,
        # cycles] cell must match, including load-use stalls and the
        # div's 35-cycle charge.
        src = """
            li a1, 0x1000
            li s5, 60
            li s4, 0
        top:
            p.lw t0, 4(a1!)
            add a0, a0, t0
            div a2, a0, s5
            addi s4, s4, 1
            bltu s4, s5, top
            ebreak
        """
        ref, tur = _pair(src)
        ref.run()
        tur.run()
        _assert_same(ref, tur)
        trace_ref = ref.trace()
        trace_tur = tur.trace()
        assert trace_tur.instrs == trace_ref.instrs
        assert trace_tur.cycles == trace_ref.cycles
