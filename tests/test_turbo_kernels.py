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
* a branch loop whose exit has no closed form (a zero sentinel) gets
  no kernel and runs on its closures;
* stepping a network never builds the execution histogram;
* two-level loop nests run as one window over whole outer iterations (a
  level-a matvec layer, a level-a conv output row), and every case that
  must not — a triangular nest, an unrolled bound that wraps, an
  epilogue store into the span a later row reads, two inner stores
  whose ranges overlap — keeps its exact per-row result; an unrolled
  bound that never exits still stops at the budget.
"""

import numpy as np
import pytest

from repro.analysis.cfg import build_cfg
from repro.core import (Cpu, ExecutionLimitExceeded, Memory, MemoryError32,
                        turbo)
from repro.isa import assemble
from repro.kernels.common import AsmBuilder, LEVELS
from repro.kernels.conv import gen_conv
from repro.kernels.jobs import ConvJob, MatvecJob
from repro.kernels.matvec import gen_matvec
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


def matvec_a(n_out, n_in, out_addr=0x9000):
    """``kernels.matvec._gen_level_a`` at ``n_out`` x ``n_in`` (weights
    at 0x1000, input at 0x8000)."""
    b = AsmBuilder()
    gen_matvec(b, LEVELS["a"], MatvecJob(
        n_in, n_out, w_addr=0x1000, x_addr=0x8000, b_addr=0x8800,
        out_addr=out_addr, row_halfwords=n_in, acc_addr=0x100))
    b.emit("ebreak")
    return b.text()


def matvec_e(n_out, n_in, out_addr=0x9000, edit=None):
    """``kernels.matvec._gen_tiled`` at level e (weights at 0x1004, so no
    row pointer is a multiple of 4096, whose ``li`` is one instruction
    shorter; input at 0x8000); ``edit(tile, line)`` may rewrite each
    tile's lines."""
    b = AsmBuilder()
    gen_matvec(b, LEVELS["e"], MatvecJob(
        n_in, n_out, w_addr=0x1004, x_addr=0x8000, b_addr=0x8800,
        out_addr=out_addr, row_halfwords=n_in, acc_addr=0x100))
    b.emit("ebreak")
    if edit is None:
        return b.text()
    lines, tile = [], 0
    for line in b.text().splitlines():
        lines.append(edit(tile, line))
        tile += line.strip().startswith("lp.setupi")
    return "\n".join(lines) + "\n"


def _runs(text):
    return [plan[1]["n"] for plan in
            turbo.analyze_program(assemble(text)).values()
            if plan[0] == "run"]


def conv_a(cin, cout, h, w):
    """``kernels.conv._gen_level_a`` with 3x3 filters."""
    b = AsmBuilder()
    gen_conv(b, LEVELS["a"], ConvJob(
        cin, cout, h, w, 3, w_addr=0x1000, x_addr=0x4000, b_addr=0x7000,
        out_addr=0x9000, acc_addr=0x100))
    b.emit("ebreak")
    return b.text()


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
    assert tur.regs == ref.regs  # x0's write sink too
    assert list(tur.sprs) == list(ref.sprs)
    assert tur._spr_ready == ref._spr_ready
    assert tur._hw == ref._hw
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


#: Two-level nests per level: level a's 29 matvec layers and lee2018's
#: two conv layers.
NESTS = {"a": 31, "e": 0}
#: Rerolled runs per level (unit kernel shapes, runs): level e's tile
#: runs of at least VEC_MIN_ITERS units share one unit shape; lee2018's
#: conv tiles copy the im2col buffer their own loop reads, so they never
#: form a run.
RUNS = {"a": (0, 0), "e": (1, 15)}


class TestKernelCache:
    # Level a: 3 single-block row shapes; 3 software-activation loops
    # whose fall-through ``jal`` fillers split them into blocks; 5 conv
    # loops over unrolled 3x3 bodies; 3 nest shapes (the matvec layer,
    # conv1's oy-by-ox, conv2's ox-by-ci).  The conv loops three or more
    # levels deep stay on the closures.  ``shapes`` and ``loops`` count
    # loop kernels; a run's unit kernel comes on top (``RUNS``).
    @pytest.mark.parametrize("level, shapes, loops",
                             [("a", 14, 95), ("e", 9, 698)])
    def test_one_kernel_per_body_shape(self, monkeypatch, level, shapes,
                                       loops):
        monkeypatch.setattr(turbo, "_KERNELS", {})
        monkeypatch.setattr(turbo, "_UNITS", {})
        units, runs = RUNS[level]
        texts = [NetworkPlan(net, level).text for net in suite(1)]
        before = _events()
        plans = [turbo.analyze_program(assemble(text)) for text in texts]
        after = _events()
        compiled = after["kernel_compile"] - before.get("kernel_compile", 0)
        hits = after["kernel_cache_hit"] - before.get("kernel_cache_hit", 0)
        kernels = {id(plan[1]["kernel"]) for p in plans
                   for plan in p.values() if plan[0] != "fuse"}
        assert compiled == shapes + units == len(kernels)
        assert compiled + hits == loops + runs
        assert sum(plan[0] == "run" for p in plans
                   for plan in p.values()) == runs
        assert sum(plan[0] == "br" and plan[1]["kernel"].nest
                   for p in plans for plan in p.values()) == NESTS[level]

        # A rebuilt program (a new Program object: no plan cache) hits
        # the kernel cache for every loop and run and compiles nothing.
        again = [turbo.analyze_program(assemble(text)) for text in texts]
        final = _events()
        assert final["kernel_compile"] == after["kernel_compile"]
        assert final["kernel_cache_hit"] - after["kernel_cache_hit"] == \
            loops + runs
        assert [[plan[1]["kernel"] for plan in p.values()
                 if plan[0] != "fuse"] for p in again] == \
            [[plan[1]["kernel"] for plan in p.values()
              if plan[0] != "fuse"] for p in plans]


#: A nest whose inner bound advances with the outer index (row i sums
#: i + 1 products): every row has its own trip count.
TRIANGLE = """
    li s1, 0x100
    li s3, 0x8000
    li s10, 0x8002
    li t0, 0x1000
    li t3, 0x9000
    li a6, 60
outer:
    sw x0, 0(s1)
    mv t1, s3
inner:
    lw t6, 0(s1)
    lh t4, 0(t0)
    addi t0, t0, 2
    lh t5, 0(t1)
    addi t1, t1, 2
    p.mac t6, t4, t5
    sw t6, 0(s1)
    bltu t1, s10, inner
    lw t6, 0(s1)
    sh t6, 0(t3)
    addi t3, t3, 2
    addi s10, s10, 2
    addi a6, a6, -1
    bne a6, x0, outer
    ebreak
"""

#: The level-a conv's ``kx`` loop (``bltu t1, t6`` with ``t6 = t0 + 6``)
#: unrolled into its row loop; ``t0`` walks from ``{t0}`` by 2 per row.
KX = """
    li s1, 0x100
    li s2, 0x1000
    li s0, 0x9000
    li t0, {t0}
    li a6, 40
row:
    sw x0, 0(s1)
    mv s4, s2
    mv t1, t0
    addi t6, t0, 6
kx:
    lw t2, 0(s1)
    lh t3, 0(s4)
    addi s4, s4, 2
    addi t1, t1, 2
    p.mac t2, t3, t3
    sw t2, 0(s1)
    bltu t1, t6, kx
    lw t2, 0(s1)
    sh t2, 0(s0)
    addi s0, s0, 2
    addi t0, t0, 2
    addi a6, a6, -1
    bne a6, x0, row
    ebreak
"""


#: A row loop around an inner loop that stores two interleaved halfwords
#: per trip: the inner store ranges overlap, so the nest must bail.  The
#: inner loop closes on ``{closing}``.
STORE_PAIR = """
    li t0, 0x1000
    li s8, 0x9000
    li s5, 24
    li a6, 12
row:
    mv t1, t0
    mv t2, s5
    addi t6, t0, 96
inner:
    lh t4, 0(t1)
    lh t5, 2(t1)
    sh t4, 0(s8)
    sh t5, 2(s8)
    addi s8, s8, 4
    addi t1, t1, 4
    {closing}
    addi t0, t0, 96
    addi a6, a6, -1
    bne a6, x0, row
    ebreak
"""

#: The ``kx`` pattern counting down: ``bgeu t1, t6`` with ``t6 = t0 - 6``.
#: At ``t0 = 6`` the bound is 0, the unsigned test is always taken and
#: the inner loop never exits.
KX_DOWN = """
    li s1, 0x100
    li s2, 0x1000
    li s0, 0x9000
    li t0, {t0}
    li a6, 40
row:
    sw x0, 0(s1)
    mv s4, s2
    mv t1, t0
    addi t6, t0, -6
kx:
    lw t2, 0(s1)
    lh t3, 0(s4)
    addi s4, s4, 2
    addi t1, t1, -2
    p.mac t2, t3, t3
    sw t2, 0(s1)
    bgeu t1, t6, kx
    lw t2, 0(s1)
    sh t2, 0(s0)
    addi s0, s0, 2
    addi t0, t0, 2
    addi a6, a6, -1
    bne a6, x0, row
    ebreak
"""


#: Four rows of 16 trips summing the halfwords an index table points
#: at: the inner load's address is not affine in the trip.
INDEXED = """
    li s0, 0x2000
    li s3, 0x8000
    li s1, 0x100
    li t2, 0
    li t3, 4
outer:
    li s4, 0
    lp.setupi 0, 16, end
    p.lw t5, 4(s0!)
    add t6, s3, t5
    lh t4, 0(t6)
    add s4, s4, t4
end:
    p.sw s4, 4(s1!)
    addi t2, t2, 1
    bltu t2, t3, outer
    ebreak
"""


class TestNests:
    def test_level_a_matvec_is_one_nest_window(self):
        ref, tur = _run_both(matvec_a(64, 64))
        _assert_total_equivalence(ref, tur)
        stats = tur.turbo_stats
        assert (stats["nest_loops"], stats["vector_loops"],
                stats["vector_iters"], stats["bails"]) == (1, 1, 64, 0)

    def test_nest_windows_are_chunked(self, monkeypatch):
        # At most 1024 elements a window: 64 rows of 64 trips take four
        # windows of 16 whole rows, only the last one exiting the loop.
        monkeypatch.setattr(turbo, "_KERNELS", {})
        monkeypatch.setattr(turbo, "NEST_ELEMS", 1024)
        ref, tur = _run_both(matvec_a(64, 64))
        _assert_total_equivalence(ref, tur)
        stats = tur.turbo_stats
        assert (stats["nest_loops"], stats["vector_loops"],
                stats["vector_iters"], stats["bails"]) == (4, 4, 64, 0)

    def test_lee2018_conv2_nests_per_output_row(self):
        # 8x10x10 -> 8x8x8: one ox-by-ci window per (co, oy) row, the
        # 3x3 ky/kx loops unrolled into the ci body.
        ref, tur = _run_both(conv_a(8, 8, 10, 10))
        _assert_total_equivalence(ref, tur)
        assert tur.turbo_stats["nest_loops"] == 8 * 8
        assert tur.turbo_stats["bails"] == 0

    def test_triangular_nest_is_never_a_rectangle(self):
        plans = turbo.analyze_program(assemble(TRIANGLE)).values()
        assert not any(plan[0] == "br" and plan[1]["kernel"].nest
                       for plan in plans)
        ref, tur = _run_both(TRIANGLE)
        _assert_total_equivalence(ref, tur)
        assert tur.turbo_stats["nest_loops"] == 0
        assert tur.turbo_stats["vector_loops"] > 0  # the long rows

    @pytest.mark.parametrize("t0, wraps", [(0x10000, False),
                                           (0xFFFFFFC0, True)])
    def test_unrolled_bound_checked_over_window(self, t0, wraps):
        # Near 2**32, t0 + 6 wraps and kx runs once instead of three
        # times: the window's guard must catch it and commit nothing.
        ref, tur = _run_both(KX.format(t0=t0))
        _assert_total_equivalence(ref, tur)
        assert (tur.turbo_stats["bails"] > 0) == wraps
        assert (tur.turbo_stats["vector_loops"] > 0) != wraps

    def test_unrolled_bound_that_never_exits_hits_the_budget(self):
        # The window's guard bails on the first row; the row then runs
        # on the closures, whose inner loop never exits: the budget must
        # still stop it.
        program = assemble(KX_DOWN.format(t0=6))
        for engine in ("interp", "turbo"):
            cpu = Cpu(program, Memory(1 << 17), engine=engine,
                      max_instrs=20_000)
            with pytest.raises(ExecutionLimitExceeded):
                cpu.run()
        ref, tur = _run_both(KX_DOWN.format(t0=0x10000))
        _assert_total_equivalence(ref, tur)
        assert tur.turbo_stats["vector_loops"] > 0

    @pytest.mark.parametrize("closing", [
        "addi t2, t2, -1\n    bne t2, x0, inner",  # counter from s5
        "bltu t1, t6, inner",                       # bound a constant away
    ], ids=["count", "near"])
    def test_overlapping_inner_stores_bail(self, closing):
        ref, tur = _run_both(STORE_PAIR.format(closing=closing))
        _assert_total_equivalence(ref, tur)
        assert tur.turbo_stats["bails"] > 0
        assert tur.turbo_stats["nest_loops"] == 0
        assert tur.turbo_stats["vector_loops"] > 0  # the rows, one by one

    def test_epilogue_store_into_a_later_rows_input_bails(self):
        # Each row's output overwrites the input the next rows read.
        ref, tur = _run_both(matvec_a(64, 64, out_addr=0x8000))
        _assert_total_equivalence(ref, tur)
        assert tur.turbo_stats["bails"] > 0
        assert tur.turbo_stats["nest_loops"] == 0

    def test_far_apart_indexed_inner_loads(self):
        # The inner load's address is an index read from memory, so the
        # window gathers an (n, T) address array; the indices spread
        # over 16 KB, so it is read word by word.
        program = assemble(INDEXED)
        indices = 4 * np.random.default_rng(5).integers(0, 4096, 4 * 16)
        cpus = []
        for engine in ("interp", "turbo"):
            memory = Memory(1 << 17)
            memory.store_words_array(0x2000, indices)
            memory.store_halfwords(0x8000, np.arange(8192) - 4096)
            cpu = Cpu(program, memory, engine=engine)
            cpu.run()
            cpus.append(cpu)
        ref, tur = cpus
        _assert_total_equivalence(ref, tur)
        assert (tur.turbo_stats["nest_loops"],
                tur.turbo_stats["bails"]) == (1, 0)

    @pytest.mark.parametrize("name", ["lee2018", "ahmed2019"])
    def test_scale1_level_a_matches_interpreter(self, name):
        # Paper scale: lee2018's conv rows are long enough to nest (at
        # the differential tests' scale 8 they are 3x3 and 1x1).
        network = next(net for net in suite(1) if net.name == name)
        params = quantize_params(
            init_params(network, np.random.default_rng(2020)))
        xs = np.random.default_rng(3).integers(
            -4096, 4096, (network.timesteps, network.input_size))
        runs = []
        for engine in ("interp", "turbo"):
            program = NetworkProgram(network, params, "a", engine=engine)
            runs.append((program.forward(xs), program.cpu))
        (out_ref, ref), (out_tur, tur) = runs
        assert np.array_equal(out_ref, out_tur)
        _assert_total_equivalence(ref, tur)
        assert tur.turbo_stats["nest_loops"] > 0
        assert tur.turbo_stats["bails"] == 0


class TestSpanCache:
    def test_rewritten_weights_are_read_again(self, monkeypatch):
        # A cached memory span is reused only while its words are
        # unchanged: weights rewritten between two runs of one program
        # change the second run as they change the interpreter's.
        monkeypatch.setattr(turbo, "_SPANS", {})
        monkeypatch.setattr(turbo, "_SPANS_HELD", [0])
        program = assemble(matvec_a(64, 64))
        rng = np.random.default_rng(11)
        first, second = (rng.integers(-32768, 32768, 64 * 64)
                         for _ in range(2))
        cpus = []
        for engine in ("interp", "turbo"):
            memory = Memory(1 << 17)
            memory.store_halfwords(0x1000, first)
            memory.store_halfwords(0x8000, np.arange(64))
            cpu = Cpu(program, memory, engine=engine)
            cpu.run()
            memory.store_halfwords(0x1000, second)
            cpu.run()
            cpus.append(cpu)
        _assert_total_equivalence(*cpus)
        assert turbo._SPANS  # the weights were read through the cache
        assert cpus[1].turbo_stats["nest_loops"] == 2


#: Eight 8-trip tiles whose primes open each unit, after a short loop
#: whose last instruction loads SPR 0: the first prime stalls a cycle.
PRIMED = "\n".join(
    ["li a0, 0x1000", "li a1, 0x1400", "li a2, 0x1800",
     "lp.setupi 1, 2, pre", "addi t5, t5, 1", "pl.sdotsp.h.0 x0, a2, x0",
     "pre:"]
    + [line for k in range(8) for line in (
        "pl.sdotsp.h.0 x0, a0, x0", "pl.sdotsp.h.1 x0, a1, x0",
        "li t1, 0x8000", f"lp.setupi 0, 8, end{k}", "p.lw t0, 4(t1!)",
        "pl.sdotsp.h.0 s0, a0, t0", "pl.sdotsp.h.1 s1, a1, t0",
        f"end{k}:")]
    + ["ebreak"]) + "\n"

#: The level-e tile loop inside a branch loop: the primes sit in the
#: outer level, the tile's 16 trips are the nest's inner level.
TILE_LOOP = "\n".join(
    ["li t2, 0", "li t3, 12", "outer:"]
    + tile_e(16).splitlines()[:-2]
    + ["end:", "addi t2, t2, 1", "bltu t2, t3, outer", "ebreak"]) + "\n"


class TestRuns:
    def test_level_e_dense_layer_is_one_run_window(self):
        # Ten 10-row tiles: the first one's block also sets the bias and
        # output pointers, so tiles 1-9 form the run.
        text = matvec_e(100, 64)
        assert _runs(text) == [9]
        ref, tur = _run_both(text)
        _assert_total_equivalence(ref, tur)
        stats = tur.turbo_stats
        assert (stats["nest_loops"], stats["bails"]) == (1, 0)
        assert stats["vector_iters"] == 16 + 9  # tile 0's trips + 9 units

    def test_store_into_a_later_units_weights_bails_to_the_units(self):
        # Tile k's outputs land in the weight rows a later tile reads.
        # The output pointer is a register, so the run is built and its
        # window bails at run time; the first unit's block, the per-unit
        # hardware-loop windows and the later blocks finish the layer.
        text = matvec_e(100, 64, out_addr=0x1004 + 2 * 64 * 50)
        assert _runs(text) == [9]
        ref, tur = _run_both(text)
        _assert_total_equivalence(ref, tur)
        stats = tur.turbo_stats
        assert stats["bails"] == 1 and stats["nest_loops"] == 0
        assert stats["vector_loops"] == 10  # every tile's own window

    def test_unit_reading_its_own_stores_is_not_a_run(self):
        # Each unit copies its input into a staging buffer through a
        # materialized pointer and its loop reads the copy (lee2018's
        # im2col): rejected at build time, the units stay exact.
        def stage(tile, line):
            if line.strip() == "li t1, 32768" and tile > 0:
                return ("    li t4, 32896\n    li t1, 32768\n"
                        "    p.lw t0, 4(t4!)\n    p.sw t0, 4(t1!)\n"
                        "    li t1, 32768")
            return line
        text = matvec_e(100, 64, edit=stage)
        assert _runs(text) == []
        ref, tur = _run_both(text)
        _assert_total_equivalence(ref, tur)
        assert tur.turbo_stats["bails"] == 0

    def test_stride_break_splits_the_run(self):
        # From tile 10 on, row pointer a3 reads 4 bytes further on: its
        # stride breaks once, so tiles 1-9 and 10-19 are two runs.
        def shift(tile, line):
            head = line.strip().split(",")
            if tile >= 10 and head[0] == "li a3":
                return f"    li a3, {int(head[1]) + 4}"
            return line
        text = matvec_e(200, 64, edit=shift)
        assert _runs(text) == [9, 10]
        ref, tur = _run_both(text)
        _assert_total_equivalence(ref, tur)
        assert tur.turbo_stats["nest_loops"] == 2
        assert tur.turbo_stats["bails"] == 0

    def test_first_units_spr_entry_stall_is_exact(self):
        # The instruction before the run loads SPR 0, so the first unit's
        # first prime waits a cycle; the later primes never wait.
        program = assemble(PRIMED)
        assert _runs(PRIMED) == [8]
        ref, tur = _run_both(PRIMED)
        _assert_total_equivalence(ref, tur)
        start = next(i for i in range(len(program))
                     if program[i].mnemonic == "lp.setupi") + 3
        assert ref._stats[start] == [1, 2]
        assert tur.turbo_stats["nest_loops"] == 1

    def test_bailed_nest_keeps_its_inner_hardware_loop_windows(self):
        # Level b's row loop around a hardware loop, each row's output
        # landing in the weights a later row reads: the nest window
        # bails, and every row's inner loop still runs as a window of
        # its own.
        b = AsmBuilder()
        gen_matvec(b, LEVELS["b"], MatvecJob(
            64, 16, w_addr=0x1000, x_addr=0x8000, b_addr=0x8800,
            out_addr=0x1000 + 2 * 64 * 12, row_halfwords=64,
            acc_addr=0x100))
        b.emit("ebreak")
        ref, tur = _run_both(b.text())
        _assert_total_equivalence(ref, tur)
        stats = tur.turbo_stats
        assert stats["bails"] > 0 and stats["nest_loops"] == 0
        assert stats["vector_loops"] == 16

    def test_branch_loop_around_a_tile_is_one_nest_window(self):
        # A hardware loop is a nest's inner level too: 12 tiles of 16
        # trips, primes in the outer level, in one window.
        ref, tur = _run_both(TILE_LOOP)
        _assert_total_equivalence(ref, tur)
        stats = tur.turbo_stats
        assert (stats["vector_loops"], stats["nest_loops"],
                stats["vector_iters"], stats["bails"]) == (1, 1, 12, 0)


    def test_tile_loop_leaves_its_own_sites_loop_state(self, monkeypatch):
        # One kernel serves the tile-loop shape wherever it sits: the
        # hardware-loop registers each window leaves name the body of
        # its own site, not the one that compiled the kernel.
        monkeypatch.setattr(turbo, "_KERNELS", {})
        for pad in (0, 3):
            ref, tur = _run_both("nop\n" * pad + TILE_LOOP)
            _assert_total_equivalence(ref, tur)
            assert tur.turbo_stats["nest_loops"] == 1


class TestFusedPrologues:
    def test_level_e_fuses_every_straight_block_outside_loops(self):
        # Every straight block of at least FUSE_MIN instructions outside
        # the hardware-loop bodies is compiled — a tile prologue too,
        # which ends at its own loop's lp.setupi (the setup stays out),
        # or holds its loop unrolled when the loop is too short for a
        # window (lee2018's 3-trip conv loops); the first tile of a
        # rerolled run would keep its block as the run's fallback.
        network = next(net for net in suite(1) if net.name == "lee2018")
        program = assemble(NetworkPlan(network, "e").text)
        cfg = build_cfg(program)
        plans = turbo.analyze_program(program)
        bodies = [(lp.body_start, lp.body_end) for lp in cfg.loops]
        want = [block for block in cfg.blocks
                if block.id in cfg.reachable and len(block) >= turbo.FUSE_MIN
                and not any(lo <= i <= hi for lo, hi in bodies
                            for i in (block.start, block.end))]
        assert want
        assert all(block.start in plans for block in want)
        prologues = [block for block in want
                     if program[block.end].mnemonic.startswith("lp.setup")]
        assert prologues
        unrolled = 0
        for block in prologues:
            kind, plan = plans[block.start]
            if kind == "run":
                plan = plan["fuse"]
            assert kind in ("fuse", "run")
            setup = program[block.end]
            if plan["end"] != block.end:
                assert setup.mnemonic == "lp.setupi" and setup.imm == 3
                assert plan["end"] == (setup.addr + setup.imm2) // 4 + 1
                unrolled += 1
        assert unrolled == 100
        params = quantize_params(
            init_params(network, np.random.default_rng(2020)))
        cpu = NetworkProgram(network, params, "e", engine="turbo").cpu
        assert cpu.turbo_stats["fused_blocks"] == sum(
            plan[0] in ("fuse", "run") for plan in plans.values())


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

    def test_data_dependent_exit_runs_on_closures(self):
        # The exit test reads memory (a zero sentinel), so it has no
        # closed form: the loop gets no kernel and keeps its closures.
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
        assert not any(plan[0] == "br" for plan in
                       turbo.analyze_program(program).values())
        be = next(i for i in range(len(program))
                  if program[i].mnemonic == "bne")
        bs = (program[be].addr + program[be].imm) // 4
        assert turbo._loop_kernel(program, 0, "br", bs, be) is None
        assert cpus[1].turbo_stats["vector_loops"] == 0


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
