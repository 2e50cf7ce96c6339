"""Benchmark: raw ISS simulation throughput (simulator health metric).

Three workloads bracket the engine design space:

* *turbo-hot* — a long hardware loop with statically resolvable strides,
  exactly the shape ``repro.core.turbo`` compiles into fused numpy
  kernels.
* *interpreter-hot* — short, branchy scalar code below the turbo
  profitability thresholds, where both engines run the same compiled
  closures (asserted: no vector window runs).
* *tile-e* — the paper's level-e output tile, a 22-instruction
  ``pl.sdotsp.h`` body at 16 trips, entered 50 times by a branch loop:
  a nest whose inner level is the hardware loop, which must run as one
  nest window (asserted).
* *matvec-a* — the level-a matvec (``kernels.matvec._gen_level_a``) at
  64 rows x 64 columns: a two-level loop nest that must run as one nest
  window (asserted).
* *matvec-e* — the level-e matvec (``kernels.matvec._gen_tiled``) at
  100 rows x 128 columns: ten unrolled 10-row tiles, of which the nine
  after the first form one rerolled run that must run as one window
  (asserted).

Both engines run every program; ``BENCH_iss.json`` records the host,
the instret/s rates, each program's turbo vector- and nest-window
counts, and the turbo speedups (the acceptance floor is 10x on the
turbo-hot program).
"""

import time

from repro.bench import host_info
from repro.core import Cpu, Memory, turbo
from repro.isa import assemble
from repro.kernels.common import AsmBuilder, LEVELS
from repro.kernels.jobs import MatvecJob
from repro.kernels.matvec import gen_matvec

#: Long, stride-regular hardware loop: vectorizes end to end.
TURBO_HOT = """
    li a0, 0
    li a1, 0x1000
    lp.setupi 0, 500, end
    p.lw t0, 4(a1!)
    pv.sdotsp.h a0, t0, t0
    addi a2, a2, 1
    sub a3, a2, a0
    xor a4, a3, a2
    and a5, a4, a3
end:
    addi a1, a1, -2000
    ebreak
"""

#: Short trip counts under the turbo profitability floor plus a branchy
#: outer loop: every window falls back to the compiled closures.
INTERP_HOT = """
    li s0, 0
    li s1, 300
outer:
    li a1, 0x1000
    lp.setupi 0, 6, end
    p.lw t0, 4(a1!)
    add a0, a0, t0
end:
    xor a2, a2, a0
    addi s0, s0, 1
    bltu s0, s1, outer
    ebreak
"""


_PTRS = ["a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7", "s10", "s11"]

#: Level-e 10-row output tile, 16 trips, entered 50 times.
TILE_E = "\n".join(
    ["li t2, 0", "li t3, 50", "outer:"]
    + [f"li {p}, {0x1000 + 128 * k}" for k, p in enumerate(_PTRS)]
    + ["li t1, 0x8000", "pl.sdotsp.h.0 x0, a0, x0",
       "pl.sdotsp.h.1 x0, a1, x0", "lp.setupi 0, 16, end",
       "p.lw t0, 4(t1!)", "p.lw t4, 4(t1!)"]
    + [f"pl.sdotsp.h.{seq % 2} s{seq % 10}, {_PTRS[(seq + 2) % 10]}, "
       f"{'t0' if seq < 10 else 't4'}" for seq in range(20)]
    + ["end:", "addi t2, t2, 1", "bltu t2, t3, outer", "ebreak"]) + "\n"


def _matvec(level, n_out=64, n_in=64, w_addr=0x1000):
    b = AsmBuilder()
    gen_matvec(b, LEVELS[level], MatvecJob(
        n_in, n_out, w_addr=w_addr, x_addr=0x8000, b_addr=0x8800,
        out_addr=0x9000, row_halfwords=n_in, acc_addr=0x100))
    b.emit("ebreak")
    return b.text()


#: Level-a matvec layer, 64 x 64: one nest window per run.
MATVEC_A = _matvec("a")
#: Level-e matvec layer, 100 x 128 (weights at 0x1004, so every tile's
#: row pointers take a two-instruction ``li``): one run of nine tiles.
MATVEC_E = _matvec("e", 100, 128, w_addr=0x1004)


def _run(program, engine):
    cpu = Cpu(program, Memory(1 << 16), engine=engine)
    cpu.run()
    return cpu


def _rate(program, engine, min_time=0.3):
    """Best instret/s over repeated timed runs totalling >= min_time.

    One warm CPU is reused and only ``run()`` is timed: the metric is
    simulation throughput, not program/plan compilation (which is
    amortized over every run of a simulated workload).
    """
    cpu = Cpu(program, Memory(1 << 16), engine=engine)
    cpu.run()  # warm up closure/plan caches
    best = 0.0
    spent = 0.0
    while spent < min_time:
        before = cpu.instret
        t0 = time.perf_counter()
        cpu.run(0)
        dt = time.perf_counter() - t0
        spent += dt
        best = max(best, (cpu.instret - before) / dt)
    return best


def test_iss_instructions_per_second(benchmark):
    program = assemble(TURBO_HOT)
    cpu = benchmark(lambda: _run(program, "interp"))
    assert cpu.instret > 3000


def test_iss_instructions_per_second_turbo(benchmark):
    program = assemble(TURBO_HOT)
    cpu = benchmark(lambda: _run(program, "turbo"))
    assert cpu.instret > 3000


def test_iss_throughput_artifact(save_json):
    programs = {"turbo_hot": assemble(TURBO_HOT),
                "interp_hot": assemble(INTERP_HOT),
                "tile_e": assemble(TILE_E),
                "matvec_a": assemble(MATVEC_A),
                "matvec_e": assemble(MATVEC_E)}
    run_units = [plan[1]["n"] for plan in
                 turbo.analyze_program(programs["matvec_e"]).values()
                 if plan[0] == "run"]
    vector_loops, nest_loops = {}, {}
    for name, program in programs.items():
        ref, tur = _run(program, "interp"), _run(program, "turbo")
        assert (tur.instret, tur.cycles) == (ref.instret, ref.cycles)
        vector_loops[name] = tur.turbo_stats["vector_loops"]
        nest_loops[name] = tur.turbo_stats["nest_loops"]
    # The brackets hold only while each program takes its intended path.
    assert vector_loops["interp_hot"] == 0, vector_loops
    assert vector_loops["turbo_hot"] > 0, vector_loops
    assert vector_loops["tile_e"] == nest_loops["tile_e"] == 1, \
        (vector_loops, nest_loops)
    assert vector_loops["matvec_a"] == nest_loops["matvec_a"] == 1, \
        (vector_loops, nest_loops)
    # The first tile's own window, then the run of the other nine.
    assert run_units == [9], run_units
    assert (vector_loops["matvec_e"], nest_loops["matvec_e"]) == (2, 1), \
        (vector_loops, nest_loops)
    rates = {name: {engine: _rate(program, engine)
                    for engine in ("interp", "turbo")}
             for name, program in programs.items()}
    speedup = rates["turbo_hot"]["turbo"] / rates["turbo_hot"]["interp"]
    save_json("BENCH_iss.json", {
        "host": host_info(),
        "instret_per_second": rates,
        "vector_loops": vector_loops,
        "nest_loops": nest_loops,
        "run_units": {"matvec_e": run_units},
        "turbo_speedup_turbo_hot": speedup,
        "turbo_speedup_interp_hot":
            rates["interp_hot"]["turbo"] / rates["interp_hot"]["interp"],
        "turbo_speedup_tile_e":
            rates["tile_e"]["turbo"] / rates["tile_e"]["interp"],
        "turbo_speedup_matvec_a":
            rates["matvec_a"]["turbo"] / rates["matvec_a"]["interp"],
        "turbo_speedup_matvec_e":
            rates["matvec_e"]["turbo"] / rates["matvec_e"]["interp"],
    })
    assert speedup >= 10.0, f"turbo speedup {speedup:.1f}x below 10x"
