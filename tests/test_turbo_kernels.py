"""Generated turbo loop kernels: the suite's hot shapes and the kernel cache.

``repro.core.turbo`` lowers each eligible loop body once per *shape*
(mnemonics, registers, immediates, wait states, loop kind) into a
generated numpy function.  These tests pin:

* the two shapes that dominate the paper-scale suite take the vector
  path with total equivalence against the interpreter — a level-a matvec
  row (8 instructions, branch-closed, accumulator in memory) at 64 trips
  and a level-e output tile (22 instructions: two input loads and twenty
  ``pl.sdotsp.h``) at 16 trips;
* every access of a vectorized body is range-checked, including a load
  whose value is dead;
* building the suite's level-a and level-e programs compiles exactly one
  kernel per distinct body shape, and rebuilding a program compiles
  nothing;
* a run that retires past its budget raises even when the overrun
  comes from a vector window shortly before the program halts;
* stepping a network never builds the execution histogram.
"""

import numpy as np
import pytest

from repro.core import (Cpu, ExecutionLimitExceeded, Memory, MemoryError32,
                        turbo)
from repro.isa import assemble
from repro.kernels.runner import NetworkPlan, NetworkProgram
from repro.nn.network import init_params, quantize_params
from repro.rrm.networks import suite

#: Level-a matvec row (``kernels.matvec._gen_level_a``'s inner loop).
ROW_A = """
    li s1, 0x100
    li t0, 0x1000
    li t1, 0x8000
    li s0, {end}
    sw x0, 0(s1)
top:
    lw t6, 0(s1)
    lh t4, 0(t0)
    addi t0, t0, 2
    lh t5, 0(t1)
    addi t1, t1, 2
    p.mac t6, t4, t5
    sw t6, 0(s1)
    bltu t1, s0, top
    ebreak
"""

_PTRS = ["a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7", "s10", "s11"]
_ACCS = ["s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9"]


def tile_e(trips):
    """Level-e 10-row output tile (``kernels.matvec._gen_tile_body_vliw``
    with input tiling): 22-instruction body, ``trips`` iterations."""
    lines = [f"li {p}, {0x1000 + k * 8 * trips}"
             for k, p in enumerate(_PTRS)]
    lines += ["li t1, 0x8000", "pl.sdotsp.h.0 x0, a0, x0",
              "pl.sdotsp.h.1 x0, a1, x0", f"lp.setupi 0, {trips}, end",
              "p.lw t0, 4(t1!)", "p.lw t4, 4(t1!)"]
    for seq in range(20):
        x = "t0" if seq < 10 else "t4"
        lines.append(f"pl.sdotsp.h.{seq % 2} {_ACCS[seq % 10]}, "
                     f"{_PTRS[(seq + 2) % 10]}, {x}")
    lines += ["end:", "ebreak"]
    return "\n".join(lines) + "\n"


def _run_both(text):
    program = assemble(text)
    image = np.random.default_rng(7).integers(-32768, 32768, 20000)
    cpus = []
    for engine in ("interp", "turbo"):
        memory = Memory(1 << 17)
        memory.store_halfwords(0x1000, image)
        cpu = Cpu(program, memory, engine=engine)
        cpu.run()
        cpus.append(cpu)
    return cpus


def _assert_total_equivalence(ref, tur):
    assert tur.instret == ref.instret
    assert tur.cycles == ref.cycles
    assert [tur.reg(r) for r in range(32)] == \
        [ref.reg(r) for r in range(32)]
    assert list(tur.sprs) == list(ref.sprs)
    assert tur.memory.words == ref.memory.words
    assert tur._stats == ref._stats


class TestHotShapes:
    def test_level_a_row_64_trips(self):
        ref, tur = _run_both(ROW_A.format(end=0x8000 + 2 * 64))
        _assert_total_equivalence(ref, tur)
        assert tur.turbo_stats["vector_loops"] > 0
        assert tur.turbo_stats["bails"] == 0

    def test_level_e_tile_16_trips(self):
        ref, tur = _run_both(tile_e(16))
        _assert_total_equivalence(ref, tur)
        assert tur.turbo_stats["vector_loops"] > 0
        assert tur.turbo_stats["vector_iters"] == 16
        assert tur.turbo_stats["bails"] == 0

    @pytest.mark.parametrize("wait", [0, 2])
    def test_level_e_tile_wait_states(self, wait):
        program = assemble(tile_e(24))
        cpus = []
        for engine in ("interp", "turbo"):
            memory = Memory(1 << 17, wait_states=wait)
            memory.store_halfwords(0x1000, np.arange(-3000, 3000))
            cpu = Cpu(program, memory, engine=engine)
            cpu.run()
            cpus.append(cpu)
        _assert_total_equivalence(*cpus)
        assert cpus[1].turbo_stats["vector_loops"] > 0

    def test_dead_load_is_range_checked(self):
        # The first load's value is overwritten by the second, but its
        # pointer walks off the end of memory: the interpreter faults,
        # so the vector path must bail and let the closures fault too.
        src = """
            li a1, 0x1000
            li a2, 16200
            lp.setupi 0, 200, end
            p.lw t0, 4(a2!)
            p.lw t0, 4(a1!)
            add a0, a0, t0
        end:
            ebreak
        """
        for engine in ("interp", "turbo"):
            cpu = Cpu(assemble(src), Memory(1 << 14), engine=engine)
            with pytest.raises(MemoryError32, match="pc=0x10"):
                cpu.run()


def _events():
    return {s[0]["event"]: s[1] for s in turbo._TURBO_EVENTS.samples()}


class TestKernelCache:
    @pytest.mark.parametrize("level, shapes, loops",
                             [("a", 3, 48), ("e", 9, 698)])
    def test_one_kernel_per_body_shape(self, monkeypatch, level, shapes,
                                       loops):
        monkeypatch.setattr(turbo, "_KERNELS", {})
        texts = [NetworkPlan(net, level).text for net in suite(1)]
        before = _events()
        plans = [turbo.analyze_program(assemble(text)) for text in texts]
        after = _events()
        compiled = after["kernel_compile"] - before.get("kernel_compile", 0)
        hits = after["kernel_cache_hit"] - before.get("kernel_cache_hit", 0)
        kernels = {id(plan[1]["kernel"]) for p in plans
                   for plan in p.values() if plan[0] != "fuse"}
        assert compiled == shapes == len(kernels)
        assert compiled + hits == loops

        # A rebuilt program (a new Program object: no plan cache) hits
        # the kernel cache for every loop and compiles nothing.
        again = [turbo.analyze_program(assemble(text)) for text in texts]
        final = _events()
        assert final["kernel_compile"] == after["kernel_compile"]
        assert final["kernel_cache_hit"] - after["kernel_cache_hit"] == \
            loops
        assert [[plan[1]["kernel"] for plan in p.values()
                 if plan[0] != "fuse"] for p in again] == \
            [[plan[1]["kernel"] for plan in p.values()
              if plan[0] != "fuse"] for p in plans]


class TestStepPath:
    def test_step_builds_no_trace(self, monkeypatch):
        network = suite(8)[0]
        params = quantize_params(
            init_params(network, np.random.default_rng(2020)))
        program = NetworkProgram(network, params, "e", engine="turbo")
        x = np.zeros(network.input_size, dtype=np.int64)
        program.step(x)
        want = program.trace
        calls = []
        real = Cpu.trace
        monkeypatch.setattr(Cpu, "trace", lambda self: calls.append(1)
                            or real(self))
        program.reset_state()
        program.step(x)
        assert calls == []
        # The histogram is still complete on demand, and run() still
        # returns it.
        assert program.trace.total_instrs == 2 * want.total_instrs
        assert program.cpu.run(0) == program.trace


class TestExitSolve:
    def test_closed_form_matches_every_iteration(self):
        # The branch-loop exit solve against the interpreter's branch
        # semantics, iteration by iteration, with inductions that cross
        # the signed and unsigned wrap points inside the window.
        from repro.core.cpu import BRANCH_OPS
        rng = np.random.default_rng(11)
        edges = [0, 1, 5, 0x7FFFFFF0, 0x80000000, 0x80000005,
                 0xFFFFFFF0, 0xFFFFFFFF]
        for _ in range(3000):
            m = str(rng.choice(sorted(BRANCH_OPS)))
            x0 = int(rng.choice(edges)) if rng.random() < 0.5 \
                else int(rng.integers(0, 1 << 32))
            x0 = (x0 + int(rng.integers(-8, 8))) & 0xFFFFFFFF
            s = int(rng.choice([0, 1, -1, 2, -4, 7, 0x40000000,
                                -0x40000000, int(rng.integers(-99, 99))]))
            y = int(rng.choice(edges)) if rng.random() < 0.5 \
                else (x0 + s * int(rng.integers(0, 40))) & 0xFFFFFFFF
            n = int(rng.integers(1, 60))
            swapped = bool(rng.random() < 0.5)
            want = n
            for j in range(n):
                x = (x0 + s * j) & 0xFFFFFFFF
                a, b = (y, x) if swapped else (x, y)
                if not BRANCH_OPS[m](a, b):
                    want = j
                    break
            got = turbo._exit(m, x0, s, y, n, swapped)
            assert got == want, (m, x0, s, y, n, swapped)


#: Loop bodies whose windows must bail (or not) on the commit checks;
#: every case must still match the interpreter exactly.
GUARDS = {
    # store feeds the next iteration's load: stale snapshot -> bail
    "memory_recurrence": ("""
        li a1, 0x1000
        li a2, 0x1004
        lp.setupi 0, 100, end
        p.lw t0, 4(a1!)
        addi t0, t0, 1
        p.sw t0, 4(a2!)
    end:
        ebreak
    """, True),
    # in-place update: the store follows the load of the same word in
    # the same iteration only -> exact without a bail
    "same_iteration_update": ("""
        li a1, 0x1000
        lp.setupi 0, 100, end
        lw t0, 0(a1)
        addi t0, t0, 3
        p.sw t0, 4(a1!)
    end:
        ebreak
    """, False),
    # a word store every 2 bytes overlaps its own previous iteration
    "self_overlapping_store": ("""
        li a1, 0x1000
        lp.setupi 0, 100, end
        sw a0, 0(a1)
        addi a1, a1, 2
        addi a0, a0, 7
    end:
        ebreak
    """, True),
    # two store streams, one iteration apart on the same words
    "cross_iteration_stores": ("""
        li a1, 0x1000
        li a2, 0x1004
        lp.setupi 0, 100, end
        p.sw a0, 4(a1!)
        p.sw a3, 4(a2!)
        addi a0, a0, 1
    end:
        ebreak
    """, True),
    # a carried memory cell that another stream also writes
    "slot_conflict": ("""
        li s1, 0x1100
        li a1, 0x1000
        lp.setupi 0, 100, end
        lw t0, 0(s1)
        addi t0, t0, 1
        sw t0, 0(s1)
        p.sw t0, 4(a1!)
    end:
        ebreak
    """, True),
}


class TestGuards:
    @pytest.mark.parametrize("name", sorted(GUARDS))
    def test_commit_checks(self, name):
        text, bails = GUARDS[name]
        ref, tur = _run_both(text)
        _assert_total_equivalence(ref, tur)
        if bails:
            assert tur.turbo_stats["bails"] > 0
        else:
            assert tur.turbo_stats["bails"] == 0
            assert tur.turbo_stats["vector_loops"] > 0

    def test_data_dependent_exit_uses_speculative_windows(self):
        # The exit test reads memory (a zero sentinel), so it has no
        # closed form: windows are speculative and commit the prefix up
        # to the first fall-through.
        src = """
            li a1, 0x1000
            li a0, 0
        top:
            lw t0, 0(a1)
            addi a1, a1, 4
            add a0, a0, t0
            bne t0, x0, top
            ebreak
        """
        program = assemble(src)
        cpus = []
        for engine in ("interp", "turbo"):
            memory = Memory(1 << 17)
            memory.store_words_array(0x1000, list(range(1, 3000)) + [0])
            cpu = Cpu(program, memory, engine=engine)
            cpu.run()
            cpus.append(cpu)
        _assert_total_equivalence(*cpus)
        kernel = next(plan[1]["kernel"] for plan in
                      turbo.analyze_program(program).values()
                      if plan[0] == "br")
        assert not kernel.exact
        assert cpus[1].turbo_stats["vector_iters"] > 0


class TestBudget:
    def test_overrun_just_before_halt_raises(self):
        # 2004 instructions retire against a budget of 2003; almost all
        # in one vector window, and the program halts a few dispatches
        # later — before the run loop's periodic budget check.
        src = """
            li a1, 0x1000
            lp.setupi 0, 1000, end
            p.lw t0, 4(a1!)
            add a0, a0, t0
        end:
            addi a2, a2, 1
            addi a2, a2, 1
            addi a2, a2, 1
            ebreak
        """
        for engine in ("interp", "turbo"):
            cpu = Cpu(assemble(src), Memory(1 << 16), engine=engine,
                      max_instrs=2003)
            with pytest.raises(ExecutionLimitExceeded):
                cpu.run()
            assert cpu.instret > 2003
