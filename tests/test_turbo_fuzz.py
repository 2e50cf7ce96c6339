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


def _execute(program, image, engine):
    memory = Memory(1 << 16)
    memory.store_halfwords(0x1000, image)
    cpu = Cpu(program, memory, engine=engine)
    cpu.run()
    return cpu, memory


@pytest.mark.parametrize("chunk", range(4))
def test_turbo_matches_interpreter(chunk):
    per_chunk = N_CASES // 4
    vector_cases = 0
    for case in range(chunk * per_chunk, (chunk + 1) * per_chunk):
        rng = np.random.default_rng(1000 + case)
        text = _Gen(rng).program_text()
        program = assemble(text)
        image = rng.integers(0, 1 << 16, 2048)
        ref_cpu, ref_mem = _execute(program, image, "interp")
        tur_cpu, tur_mem = _execute(program, image, "turbo")
        ctx = f"case {case}:\n{text}"
        assert tur_cpu.instret == ref_cpu.instret, ctx
        assert tur_cpu.cycles == ref_cpu.cycles, ctx
        for r in range(32):
            assert tur_cpu.reg(r) == ref_cpu.reg(r), f"x{r} {ctx}"
        assert list(tur_cpu.sprs) == list(ref_cpu.sprs), ctx
        assert tur_mem.words == ref_mem.words, ctx
        for i, (got, want) in enumerate(zip(tur_cpu._stats,
                                            ref_cpu._stats)):
            assert got == want, f"cell {i} ({program[i]}) {ctx}"
        vector_cases += tur_cpu.turbo_stats["vector_loops"] > 0
    assert vector_cases >= MIN_VECTOR_CASES, \
        f"only {vector_cases} of {per_chunk} cases reached a vector window"
