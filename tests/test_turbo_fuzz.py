"""Differential fuzzing: turbo engine vs. the closure interpreter.

Random *legal* programs — hardware loops, post-increment loads/stores,
SPR dot-product streams, forward branches and counted branch loops — are
executed on both engines over identical memory images.  Final registers,
the full memory image, SPR state, retired instructions, total cycles and
every per-static-instruction ``[count, cycles]`` cell must match
bit-for-bit and cycle-for-cycle on every case.

The generator keeps every program terminating and in-bounds by
construction (counted loops only, pointer strides sized to the region),
but is otherwise free to compose shapes the turbo compiler vectorizes,
partially vectorizes, or must bail on.  Loop trip counts straddle the
vectorization thresholds, and each chunk must reach the vector path in a
minimum number of cases, so the corpus cannot silently degrade into
interpreter against interpreter.

A second corpus draws two-level loop nests in the shape of the level-a
kernels: a row loop around one inner branch loop (a constant counter, a
pointer against a bound fixed before the nest, a pointer against a bound
a constant away, or a triangular bound), memory-resident or register
accumulators, inner stores (one or two per trip), short loops inside
the inner body, and outputs that sometimes overwrite a later row's
input.
"""

import numpy as np
import pytest

from repro.core import Cpu, Memory
from repro.core.turbo import VEC_MIN_ITERS, VEC_MIN_WORK
from repro.isa import assemble

N_CASES = 220
#: Cases per chunk (of N_CASES // 4) that must run a vector window.
MIN_VECTOR_CASES = 15

_DATA = ["t0", "t1", "t2", "t3", "a0", "a3", "a4", "a5"]
_PTRS = ["a1", "a2", "s2", "s3"]
_CNTS = [("s4", "s5"), ("s6", "s7")]
_ALU = ["add", "sub", "xor", "and", "or",
        "div", "divu", "rem", "remu"]


class _Gen:
    def __init__(self, rng):
        self.rng = rng
        self.lines = []
        self.n_labels = 0
        self.spr_primed = [False, False]

    def label(self):
        self.n_labels += 1
        return f"L{self.n_labels}"

    def emit(self, line):
        self.lines.append(line)

    def _imm(self):
        return int(self.rng.integers(-2048, 2048))

    def _trips(self, blen):
        """A trip count near one of the vectorization thresholds (the
        iteration floor, or the work floor for this body length), or
        anywhere in 1..89."""
        rng = self.rng
        pick = int(rng.integers(0, 3))
        if pick == 2:
            return int(rng.integers(1, 90))
        near = VEC_MIN_ITERS if pick == 0 else -(-VEC_MIN_WORK // blen)
        return max(1, near + int(rng.integers(-2, 3)))

    def _ptr_init(self, reg):
        base = 0x1000 + 8 * int(self.rng.integers(0, 128))
        self.emit(f"li {reg}, {base}")

    def _body_instr(self, ptr, allow_load=True):
        rng = self.rng
        choices = ["alu", "addi"]
        if allow_load:
            choices += ["lw", "sw", "sdot"]
            if self.spr_primed[0]:
                choices.append("spr")
        kind = rng.choice(choices)
        d = rng.choice(_DATA)
        if kind == "lw":
            self.emit(f"p.lw {d}, 4({ptr}!)")
        elif kind == "sw":
            self.emit(f"p.sw {d}, 4({ptr}!)")
        elif kind == "sdot":
            a, b = rng.choice(_DATA, size=2)
            self.emit(f"pv.sdotsp.h {d}, {a}, {b}")
        elif kind == "spr":
            src = rng.choice(_DATA)
            self.emit(f"pl.sdotsp.h.0 {d}, {ptr}, {src}")
        elif kind == "addi":
            self.emit(f"addi {d}, {d}, {self._imm()}")
        else:
            a, b = rng.choice(_DATA, size=2)
            self.emit(f"{rng.choice(_ALU)} {d}, {a}, {b}")

    def seg_hw(self):
        rng = self.rng
        ptr = rng.choice(_PTRS)
        self._ptr_init(ptr)
        if rng.random() < 0.5 and not self.spr_primed[0]:
            # Prime the SPR stream so in-loop pl.sdotsp is protocol-legal.
            self.emit(f"pl.sdotsp.h.0 x0, {ptr}, x0")
            self.spr_primed[0] = True
        end = self.label()
        setup = len(self.lines)
        n_body = int(rng.integers(1, 6))
        for i in range(n_body):
            # A plain load may not end a hardware loop (core rule).
            self._body_instr(ptr, allow_load=i < n_body - 1)
        if self.lines[-1].startswith("p.lw"):
            self.emit(f"addi {rng.choice(_DATA)}, x0, 1")
        count = self._trips(len(self.lines) - setup)
        self.lines.insert(setup, f"lp.setupi 0, {count}, {end}")
        self.lines.append(f"{end}:")

    def seg_branch_loop(self):
        rng = self.rng
        cnt, bound = _CNTS[int(rng.integers(0, len(_CNTS)))]
        ptr = rng.choice(_PTRS)
        self._ptr_init(ptr)
        n_body = int(rng.integers(1, 4))
        self.emit(f"li {cnt}, 0")
        self.emit(f"li {bound}, {self._trips(n_body + 2)}")
        top = self.label()
        self.lines.append(f"{top}:")
        for _ in range(n_body):
            self._body_instr(ptr)
        self.emit(f"addi {cnt}, {cnt}, 1")
        op = rng.choice(["bltu", "bne", "blt"])
        self.emit(f"{op} {cnt}, {bound}, {top}")

    def seg_forward_branch(self):
        rng = self.rng
        d = rng.choice(_DATA)
        skip = self.label()
        self.emit(f"andi {d}, {d}, 7")
        self.emit(f"{rng.choice(['beq', 'bne'])} {d}, x0, {skip}")
        for _ in range(int(rng.integers(1, 3))):
            self._body_instr(rng.choice(_PTRS), allow_load=False)
        self.lines.append(f"{skip}:")

    def seg_straight(self):
        rng = self.rng
        ptr = rng.choice(_PTRS)
        self._ptr_init(ptr)
        for _ in range(int(rng.integers(2, 7))):
            self._body_instr(ptr)
        if rng.random() < 0.3:
            a, b = rng.choice(_DATA, size=2)
            self.emit(f"{rng.choice(['div', 'remu'])} {a}, {a}, {b}")

    def program_text(self):
        rng = self.rng
        for reg in _DATA:
            self.emit(f"li {reg}, {int(rng.integers(0, 1 << 15))}")
        segs = [self.seg_hw, self.seg_branch_loop,
                self.seg_forward_branch, self.seg_straight]
        for _ in range(int(rng.integers(2, 6))):
            segs[int(rng.integers(0, len(segs)))]()
        self.emit("ebreak")
        return "\n".join(self.lines) + "\n"


class _NestGen:
    """A random two-level loop nest (see the module docstring)."""

    def __init__(self, rng):
        self.rng = rng
        self.lines = []

    def emit(self, *lines):
        self.lines.extend(lines)

    def _alu(self):
        """One ALU op whose result no later iteration feeds back."""
        rng = self.rng
        d = rng.choice(["a3", "a5"])
        a, b = rng.choice(["t3", "t4", "t5", "s2", "s3"], size=2)
        if rng.random() < 0.5:
            self.emit(f"{rng.choice(['add', 'sub', 'xor', 'and'])} "
                      f"{d}, {a}, {b}")
        else:
            self.emit(f"{rng.choice(['addi', 'srai', 'slli'])} {d}, {a}, "
                      f"{int(rng.integers(0, 8))}")

    def program_text(self):
        rng = self.rng
        rows = int(rng.integers(1, 17))
        trips = int(rng.choice([1, 3, 8, 9, 16, 24, 40, 64]))
        inner = rng.choice(["count", "bound", "near", "triangle"],
                           p=[0.3, 0.3, 0.25, 0.15])
        slot = rng.random() < 0.7
        x_base = 0x4000 + 2 * int(rng.integers(0, 64))
        out = x_base + 2 * int(rng.integers(0, 4)) if rng.random() < 0.15 \
            else 0x9000
        for reg in ("a0", "a3", "a5", "t3", "t4", "t5"):
            self.emit(f"li {reg}, {int(rng.integers(-4096, 4096))}")
        self.emit("li s1, 0x100", "li s2, 0x1000", f"li s3, {x_base}",
                  f"li s8, {out}", f"li s9, {x_base + 2 * trips}",
                  f"li s10, {x_base + 2}", f"li a6, {rows}", "mv t0, s2",
                  "li s11, 0xa000", "mv t1, s3")
        # the input pointer runs on across rows (its bound, for "near",
        # moves with it: the same trip count on every row)
        stream = inner in ("count", "near") and rng.random() < 0.3
        self.emit("outer:")
        if rng.random() < 0.5:
            self._alu()
        if slot:
            self.emit("sw a3, 0(s1)")
        if not stream:
            self.emit("mv t1, s3")
        reset = rng.random() < 0.4
        if reset:
            self.emit("mv t0, s2")  # every row re-reads one weight row
        if inner == "count":
            self.emit(f"li a4, {trips}")
        elif inner == "near":
            self.emit(f"addi t6, t1, {2 * trips}")
        self.emit("inner:")
        if slot:
            self.emit("lw t2, 0(s1)")
        self.emit("lh t4, 0(t0)", "addi t0, t0, 2", "lh t5, 0(t1)",
                  "addi t1, t1, 2")
        if rng.random() < 0.3:
            # a short loop inside the inner body: always unrolled
            self.emit("li a7, 2", "short:", "add a5, a5, t4",
                      "addi a7, a7, -1", "bne a7, x0, short")
        self.emit("p.mac t2, t4, t5" if slot else "p.mac a0, t4, t5")
        if rng.random() < 0.4:
            self._alu()
        if slot:
            self.emit("sw t2, 0(s1)")
        if rng.random() < 0.3:
            # an inner store: its own stream, or interleaved with the
            # row outputs (then every window bails); sometimes a pair of
            # halfwords per trip, whose overlapping ranges bail too
            ptr = rng.choice(["s8", "s11"])
            if rng.random() < 0.3:
                self.emit(f"sh t5, 0({ptr})", f"sh t4, 2({ptr})",
                          f"addi {ptr}, {ptr}, 4")
            else:
                self.emit(f"sh t5, 0({ptr})", f"addi {ptr}, {ptr}, 2")
        self.emit({"count": "addi a4, a4, -1\nbne a4, x0, inner",
                   "bound": "bltu t1, s9, inner",
                   "near": "bltu t1, t6, inner",
                   "triangle": "bltu t1, s10, inner"}[inner])
        if slot:
            self.emit("lw t2, 0(s1)", "srai t2, t2, 12")
        self.emit(f"sh {'t2' if slot else 'a0'}, 0(s8)", "addi s8, s8, 2")
        if inner == "triangle":
            self.emit("addi s10, s10, 2")
        if rng.random() < 0.5:
            self._alu()
        if slot and rng.random() < 0.15:
            self.emit("addi s1, s1, 4")  # a new accumulator cell per row
        if not reset and rng.random() < 0.3:
            # the row loop ends on the weight pointer the inner loop
            # advances
            self.lines.insert(0, f"li s7, {0x1000 + 2 * trips * rows}")
            self.emit("bltu t0, s7, outer", "ebreak")
        else:
            self.emit("addi a6, a6, -1", "bne a6, x0, outer", "ebreak")
        return "\n".join(self.lines) + "\n"


def _execute(program, image, engine):
    memory = Memory(1 << 16)
    memory.store_halfwords(0x1000, image)
    cpu = Cpu(program, memory, engine=engine)
    cpu.run()
    return cpu, memory


def _run_equivalent(text, image, ctx):
    """Run ``text`` on both engines, assert total equivalence and return
    the turbo CPU."""
    program = assemble(text)
    ref_cpu, ref_mem = _execute(program, image, "interp")
    tur_cpu, tur_mem = _execute(program, image, "turbo")
    ctx = f"{ctx}:\n{text}"
    assert tur_cpu.instret == ref_cpu.instret, ctx
    assert tur_cpu.cycles == ref_cpu.cycles, ctx
    for r in range(32):
        assert tur_cpu.reg(r) == ref_cpu.reg(r), f"x{r} {ctx}"
    assert list(tur_cpu.sprs) == list(ref_cpu.sprs), ctx
    assert tur_mem.words == ref_mem.words, ctx
    for i, (got, want) in enumerate(zip(tur_cpu._stats, ref_cpu._stats)):
        assert got == want, f"cell {i} ({program[i]}) {ctx}"
    return tur_cpu


@pytest.mark.parametrize("chunk", range(4))
def test_turbo_matches_interpreter(chunk):
    per_chunk = N_CASES // 4
    vector_cases = 0
    for case in range(chunk * per_chunk, (chunk + 1) * per_chunk):
        rng = np.random.default_rng(1000 + case)
        text = _Gen(rng).program_text()
        image = rng.integers(0, 1 << 16, 2048)
        tur_cpu = _run_equivalent(text, image, f"case {case}")
        vector_cases += tur_cpu.turbo_stats["vector_loops"] > 0
    assert vector_cases >= MIN_VECTOR_CASES, \
        f"only {vector_cases} of {per_chunk} cases reached a vector window"


N_NEST_CASES = 120
#: Nest cases per chunk (of N_NEST_CASES // 2) that must run a nest
#: window.
MIN_NEST_CASES = 15


@pytest.mark.parametrize("chunk", range(2))
def test_nests_match_interpreter(chunk):
    per_chunk = N_NEST_CASES // 2
    nest_cases = 0
    for case in range(chunk * per_chunk, (chunk + 1) * per_chunk):
        rng = np.random.default_rng(5000 + case)
        text = _NestGen(rng).program_text()
        image = rng.integers(0, 1 << 16, 8192)
        tur_cpu = _run_equivalent(text, image, f"nest case {case}")
        nest_cases += tur_cpu.turbo_stats["nest_loops"] > 0
    assert nest_cases >= MIN_NEST_CASES, \
        f"only {nest_cases} of {per_chunk} cases ran a nest window"
