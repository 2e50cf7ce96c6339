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

A third corpus draws straight-line blocks, which turbo compiles into
generated scalar code: every ALU op, loads and stores of every size
(post-increment ones with ``rd == rs1`` too), ``x0`` destinations,
``lui``/``auipc``, ``pl.tanh``/``pl.sig``, ``pl.sdotsp`` reads at random
distances from the load that fills their SPR, and ``csrr`` of the cycle
and retired-instruction counters in mid-block.  An out-of-range access
at a random instruction of such a block must fault like the
interpreter, with the same committed state.  Some blocks end in a
hardware loop too short for a window, which the compiled block holds
unrolled; an access of its body may fault at a random trip, leaving
the hardware-loop registers as the interpreter leaves them.
"""

import numpy as np
import pytest

from repro.core import Cpu, Memory, MemoryError32, turbo
from repro.core.cpu import ACC_ALU_OPS, ALU_OPS
from repro.core.turbo import FUSE_MIN, VEC_MIN_ITERS, VEC_MIN_WORK
from repro.isa import assemble
from repro.isa.instructions import SPECS, Fmt

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


#: Registers a random block computes in, its load/store bases and its
#: two SPR streams.
_BDATA = ["t0", "t1", "t2", "a0", "a3", "a4", "a5", "s8"]
_BPTRS = ["s4", "s5"]
_BSTREAMS = ["s6", "s7"]
_LOADS = ["lb", "lbu", "lh", "lhu", "lw", "p.lb", "p.lbu", "p.lh", "p.lhu",
          "p.lw"]
_STORES = ["sb", "sh", "sw", "p.sb", "p.sh", "p.sw"]
_ALU_ALL = sorted(set(ALU_OPS) - ACC_ALU_OPS)
_SPR_OPS = ["pl.sdotsp.h.0", "pl.sdotsp.h.1", "pl.sdotsp.b.0",
            "pl.sdotsp.b.1"]


class _BlockGen:
    """Random straight-line blocks (see the module docstring)."""

    def __init__(self, rng):
        self.rng = rng

    def _reg(self, x0=0.1):
        return "x0" if self.rng.random() < x0 else \
            str(self.rng.choice(_BDATA))

    def instr(self):
        rng = self.rng
        kind = rng.choice(["alu", "alu", "alu", "acc", "load", "load",
                           "store", "store", "spr", "spr", "pla", "upper",
                           "csr"], p=[.16, .16, .16, .06, .1, .08, .06, .04,
                                      .07, .05, .02, .02, .02])
        if kind == "alu":
            m = str(rng.choice(_ALU_ALL))
            d, a, b = self._reg(), self._reg(0.05), self._reg(0.05)
            fmt = SPECS[m].fmt
            if fmt == Fmt.R:
                return f"{m} {d}, {a}, {b}"
            if fmt == Fmt.R2:
                return f"{m} {d}, {a}"
            if fmt == Fmt.SHIFT:
                return f"{m} {d}, {a}, {int(rng.integers(0, 32))}"
            return f"{m} {d}, {a}, {int(rng.integers(-2048, 2048))}"
        if kind == "acc":
            m = str(rng.choice(sorted(ACC_ALU_OPS)))
            return f"{m} {self._reg()}, {self._reg(0)}, {self._reg(0)}"
        if kind in ("load", "store"):
            m = str(rng.choice(_LOADS if kind == "load" else _STORES))
            size = SPECS[m].size
            ptr = str(rng.choice(_BPTRS))
            if SPECS[m].postinc:
                off = size * int(rng.integers(-2, 3))
                where = f"{off}({ptr}!)"
            else:
                where = f"{size * int(rng.integers(-8, 8))}({ptr})"
            if kind == "store":
                return f"{m} {self._reg()}, {where}"
            # the post-increment wins over rd when rd == rs1
            d = ptr if SPECS[m].postinc and rng.random() < 0.15 \
                else self._reg()
            return f"{m} {d}, {where}"
        if kind == "spr":
            # a read of SPR k stalls while the load that filled it is
            # less than two cycles old
            return f"{rng.choice(_SPR_OPS)} {self._reg(0.3)}, " \
                f"{rng.choice(_BSTREAMS)}, {self._reg(0.2)}"
        if kind == "pla":
            return f"{rng.choice(['pl.tanh', 'pl.sig'])} {self._reg()}, " \
                f"{self._reg(0)}"
        if kind == "upper":
            return f"{rng.choice(['lui', 'auipc'])} {self._reg()}, " \
                f"{int(rng.integers(0, 1 << 20))}"
        return f"csrr {self._reg(0)}, {rng.choice(['mcycle', 'minstret'])}"

    def block(self):
        return [self.instr() for _ in range(
            int(self.rng.integers(FUSE_MIN, 40)))]

    def program_text(self, blocks=None, fault_at=None):
        """Blocks separated by taken branches, after a prologue that sets
        every register; ``fault_at`` puts an access through the
        out-of-range pointer s9 at that position of the first block."""
        rng = self.rng
        lines = [f"li {r}, {int(rng.integers(0, 1 << 32))}" for r in _BDATA]
        lines += ["li s4, 0x4000", "li s5, 0x6002", "li s6, 0x8000",
                  "li s7, 0xa004", "li s9, 0x20000"]
        blocks = blocks or [self.block() for _ in
                            range(int(rng.integers(1, 4)))]
        if fault_at is not None:
            blocks[0].insert(fault_at, str(rng.choice([
                "lw t0, 0(s9)", "p.lhu a0, 2(s9!)", "sh a3, 6(s9)",
                "p.sb t1, 1(s9!)", "pl.sdotsp.h.1 a4, s9, t2"])))
        for n, block in enumerate(blocks):
            lines.append(f"beq x0, x0, B{n}")
            lines.append(f"B{n}:")
            lines += block
        lines.append("ebreak")
        return "\n".join(lines) + "\n"


def _total_state(cpu):
    return {"regs": list(cpu.regs), "sprs": list(cpu.sprs),
            "ready": list(cpu._spr_ready), "memory": list(cpu.memory.words),
            "cycles": cpu.cycles, "instret": cpu.instret,
            "hw": list(cpu._hw),
            "stats": [list(cell) for cell in cpu._stats]}


def _run_block_program(text, image):
    """Both engines' total state and fault message (None without)."""
    program = assemble(text)
    out = []
    for engine in ("interp", "turbo"):
        memory = Memory(1 << 16)
        memory.store_halfwords(0x1000, image)
        cpu = Cpu(program, memory, engine=engine)
        try:
            cpu.run()
            fault = None
        except MemoryError32 as exc:
            fault = str(exc)
        out.append((_total_state(cpu), fault, cpu))
    return out


N_BLOCK_CASES = 240


@pytest.mark.parametrize("chunk", range(2))
def test_blocks_match_interpreter(chunk):
    per_chunk = N_BLOCK_CASES // 2
    for case in range(chunk * per_chunk, (chunk + 1) * per_chunk):
        rng = np.random.default_rng(9000 + case)
        text = _BlockGen(rng).program_text()
        image = rng.integers(0, 1 << 16, 20000)
        (ref, ref_fault, _), (tur, tur_fault, cpu) = \
            _run_block_program(text, image)
        assert ref_fault is None, f"case {case}: {ref_fault}\n{text}"
        assert cpu.turbo_stats["fused_blocks"] > 0
        for key in ref:
            assert tur[key] == ref[key], f"case {case}: {key}\n{text}"


def test_out_of_range_access_faults_like_the_interpreter():
    # The k-th instruction of a compiled block faults: the same
    # MemoryError32 (its pc), and everything before it committed.  In
    # odd cases the block sets the faulting pointer s9 itself, so the
    # access is folded and the block steps on the closures.
    for case in range(60):
        rng = np.random.default_rng(9500 + case)
        gen = _BlockGen(rng)
        block = gen.block()
        k = int(rng.integers(0, len(block) + 1))
        if case % 2:
            block.insert(0, "lui s9, 32")
            k += 1
        text = gen.program_text([block], fault_at=k)
        image = rng.integers(0, 1 << 16, 20000)
        (ref, ref_fault, _), (tur, tur_fault, _) = \
            _run_block_program(text, image)
        assert ref_fault is not None and tur_fault == ref_fault, \
            f"case {case}\n{text}"
        for key in ref:
            assert tur[key] == ref[key], f"case {case}: {key}\n{text}"


def _short_loop_block(gen, fault_trip=None):
    """A random block ending in a short hardware loop (1-7 trips) of
    random block instructions (no CSR, which keeps a loop on its
    closures); with ``fault_trip``, an access of the body leaves memory
    at that trip."""
    rng = gen.rng
    body = [line for line in (gen.instr() for _ in range(
        int(rng.integers(1, 16)))) if not line.startswith("csrr")]
    trips = int(rng.integers(1, 8))
    head = []
    if fault_trip is not None:
        head = [f"li s10, {(1 << 16) - 4 * fault_trip}"]
        body.insert(int(rng.integers(0, len(body) + 1)), "p.lw t1, 4(s10!)")
    # a plain load may not end a hardware loop
    body.append("xor t0, t0, a3")
    if fault_trip is not None and rng.random() < 0.3:
        body[body.index("p.lw t1, 4(s10!)")] = "xor t1, t1, a4"
        body.append("p.sw t1, 4(s10!)")  # the body's last instruction
    return head + gen.block() + [
        f"lp.setupi {int(rng.integers(0, 2))}, {trips}, L{trips}"] + \
        body + [f"L{trips}:"], trips


def _holds_its_loop(program):
    """Does a compiled block hold the program's hardware loop?"""
    setup = next(i for i in range(len(program))
                 if program[i].mnemonic == "lp.setupi")
    return any(kind == "fuse" and idx < setup < plan["end"]
               for idx, (kind, plan) in
               turbo.analyze_program(program).items())


def test_blocks_with_short_loops_match_interpreter():
    unrolled = 0
    for case in range(120):
        rng = np.random.default_rng(9700 + case)
        gen = _BlockGen(rng)
        block, _trips = _short_loop_block(gen)
        text = gen.program_text([block, gen.block()])
        image = rng.integers(0, 1 << 16, 20000)
        (ref, ref_fault, _), (tur, _f, _c) = _run_block_program(text, image)
        assert ref_fault is None, f"case {case}: {ref_fault}\n{text}"
        for key in ref:
            assert tur[key] == ref[key], f"case {case}: {key}\n{text}"
        unrolled += _holds_its_loop(assemble(text))
    assert unrolled >= 100


def test_fault_in_an_unrolled_loop_like_the_interpreter():
    # The access faults at a random trip of the unrolled loop: the same
    # MemoryError32, the earlier trips and the loop registers (active,
    # the trips left) committed as the interpreter commits them.  In
    # odd cases the block sets the faulting pointer itself, so the
    # access is folded and the block steps on the closures.
    for case in range(60):
        rng = np.random.default_rng(9800 + case)
        gen = _BlockGen(rng)
        trips, text = 0, ""
        while trips < 2 or not _holds_its_loop(assemble(text)):
            fault_trip = int(rng.integers(0, 7))
            block, trips = _short_loop_block(gen, fault_trip)
            fault_trip = min(fault_trip, trips - 1)
            block[0] = f"li s10, {(1 << 16) - 4 * fault_trip}"
            blocks = [block] if case % 2 else [[block.pop(0)], block]
            text = gen.program_text(blocks)
        image = rng.integers(0, 1 << 16, 20000)
        (ref, ref_fault, _), (tur, tur_fault, _) = \
            _run_block_program(text, image)
        assert ref_fault is not None and tur_fault == ref_fault, \
            f"case {case}\n{text}"
        for key in ref:
            assert tur[key] == ref[key], f"case {case}: {key}\n{text}"


#: A branch out of a hardware-loop body leaves the loop active; the
#: block it lands in must step on the closures (an active loop's end is
#: checked per dispatch).
STALE_LOOP = """
    li a0, 0
    li a1, 3
    lp.setupi 0, 10, end
    addi a0, a0, 1
    bltu a0, a1, stay
    beq x0, x0, out
stay:
    addi a2, a2, 5
end:
    addi a3, a3, 7
out:
    add a4, a0, a1
    slli a5, a4, 3
    xor a2, a2, a5
    sub a3, a3, a2
    ebreak
"""


def test_block_after_a_branch_out_of_a_hardware_loop():
    program = assemble(STALE_LOOP)
    out = next(i for i in range(len(program))
               if program[i].mnemonic == "add")
    assert turbo.analyze_program(program)[out][0] == "fuse"
    ref = Cpu(program, Memory(1 << 12))
    ref.run()
    tur = Cpu(program, Memory(1 << 12))
    calls = []
    first = tur._code[out]

    def counted():
        calls.append(out)
        return first()
    tur._code[out] = counted
    tur._tcode = turbo.build_turbo_code(tur)
    tur.run()
    assert calls == [out]  # the guard stepped the block's first closure
    assert ref._hw[0] == tur._hw[0] == 1
    assert _total_state(tur) == _total_state(ref)
