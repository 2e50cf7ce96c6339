"""Closed-form whole-network latency from static block cycle bounds.

:func:`predict_program_cycles` predicts the exact cycle and instruction
count of a kernel program *without simulating it*: it walks the
instruction stream once, folding constant registers (the generated
kernels compute every loop bound and address from ``li`` chains, never
from data), charging costs from :mod:`repro.analysis.cycles` — whole
blocks at a time when the block's bound is exact and branch/SPR-free,
per instruction otherwise — and collapsing loops in closed form: after
observing that consecutive loop-tail states differ by a constant affine
delta, the remaining iterations are extrapolated arithmetically
(hardware-loop counts are architectural state; conditional back edges
are solved from the affine induction of their operand registers).

Data values loaded from memory are never needed: RRM kernel control
flow is data-independent, which is exactly what makes the latency a
closed form.  Programs whose control flow depends on loaded data raise
:class:`Unpredictable` instead of guessing.

The walk visits each loop body a small constant number of times (three
tail events to prove the delta is affine), so the cost is proportional
to the *static* program size, not the dynamic instruction count — a
one-second ISS run is predicted in well under a millisecond.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.cfg import build_cfg
from ..analysis.cycles import instruction_cost, summarize_blocks
from ..core.cpu import ACC_ALU_OPS, ALU_OPS, BRANCH_OPS, _M32
from ..isa.instructions import Fmt, reads_mask

__all__ = ["PredictedLatency", "Unpredictable", "predict_program_cycles",
           "predict_network_cycles", "certified_trip_counts"]

#: Loop-tail events observed before extrapolating (two equal deltas).
_STEADY = 3
#: Walk-step safety valve: a program this model fits collapses far
#: below it; data-dependent control flow would not, and must not hang.
_MAX_STEPS = 2_000_000
#: Affine extrapolation is only trusted while every folded register
#: stays far from the 2**32 wrap (addresses and counters always do).
_NO_WRAP = 1 << 31


class Unpredictable(Exception):
    """The program's timing is not a static closed form (control flow
    depends on loaded data, or a loop never reaches an affine steady
    state)."""


@dataclass(frozen=True)
class PredictedLatency:
    cycles: int
    instret: int


def _branch_exit_count(m, a, b, da, db):
    """Smallest k >= 1 such that branch ``m`` with operand values
    ``a + da*k``, ``b + db*k`` is *not* taken (the loop exits), or raise
    if the affine induction never exits."""
    d = da - db
    c = a - b
    if m == "bne":
        # Exits at the first k with c + d*k == 0: exact division only.
        if d == 0 or (-c) % d != 0 or (-c) // d < 1:
            raise Unpredictable("bne loop never exits")
        return (-c) // d
    if m == "beq":
        # Was taken, so c == 0; exits as soon as the operands diverge.
        if d == 0:
            raise Unpredictable("beq loop with constant operands")
        return 1
    if m in ("blt", "bltu"):
        # Taken while c + d*k < 0; exits at k = ceil(-c / d), d > 0.
        if d <= 0:
            raise Unpredictable("loop counter never reaches its bound")
        return max(1, -(c // d))
    if m in ("bge", "bgeu"):
        # Taken while c + d*k >= 0; exits at k = floor(c / -d) + 1.
        if d >= 0:
            raise Unpredictable("loop counter never reaches its bound")
        return max(1, c // (-d) + 1)
    raise Unpredictable(m)  # pragma: no cover - BRANCH_OPS is exhaustive


class _Walker:
    def __init__(self, program, wait_states):
        self.program = program
        self.wait = wait_states
        self.cfg = build_cfg(program)
        self.blocks = summarize_blocks(program, self.cfg, wait_states)
        # Blocks whose static bound is the exact cost of any visit:
        # branch/SPR-free with no loop-setup/halt side effects.
        self._fast = [
            b.exact and not b.has_branch and not b.has_spr
            and not any(program[i].mnemonic in
                        ("lp.setup", "lp.setupi", "ebreak")
                        for i in range(b.start, b.end + 1))
            for b in self.blocks]
        self.consts = {r: 0 for r in range(32)}
        self.clk = 0
        self.instret = 0
        self.spr_ready = [0, 0]
        self.hw = [0] * 8
        self.snaps = {}

    # ----------------------------------------------------------- helpers
    def _get(self, r):
        return 0 if r == 0 else self.consts.get(r)

    def _set(self, r, v):
        if r:
            if v is None:
                self.consts.pop(r, None)
            else:
                self.consts[r] = v & _M32

    def _require(self, instr, *regs):
        vals = []
        for r in regs:
            v = self._get(r)
            if v is None:
                raise Unpredictable(
                    f"control depends on non-constant x{r} at "
                    f"0x{instr.addr:x} ({instr})")
            vals.append(v)
        return vals

    # ------------------------------------------------------ instruction
    def _exec(self, idx):
        """Execute instruction ``idx`` symbolically; returns next index
        (before hardware-loop back-edge handling) or None on halt."""
        program = self.program
        instr = program[idx]
        spec = instr.spec
        m = instr.mnemonic
        rd, rs1, rs2, imm = instr.rd, instr.rs1, instr.rs2, instr.imm

        if m == "ebreak":
            self.clk += 1
            self.instret += 1
            return None
        if m in ("lp.setup", "lp.setupi"):
            base = instr.loop * 4
            end_idx = (instr.addr + instr.imm2) // 4
            if m == "lp.setupi":
                count = imm
            else:
                (count,) = self._require(instr, rs1)
            self.hw[base] = 1
            self.hw[base + 1] = idx + 1
            self.hw[base + 2] = end_idx
            self.hw[base + 3] = count
            self.clk += 1
            self.instret += 1
            self.snaps.pop(("hw", base), None)
            # Only register-count loops skip the body when empty; the
            # immediate form always runs the body once (as in the core).
            if m == "lp.setup" and count <= 0:
                self.hw[base] = 0
                return end_idx + 1
            return idx + 1
        if spec.is_branch:
            a, b = self._require(instr, rs1, rs2)
            taken = BRANCH_OPS[m](a, b)
            self.clk += 2 if taken else 1
            self.instret += 1
            tgt = (instr.addr + imm) // 4
            if not taken:
                self.snaps.pop(("br", tgt, idx), None)
            return tgt if taken else idx + 1
        if spec.is_jump:
            self.clk += 2
            self.instret += 1
            if m == "jal":
                self._set(rd, (instr.addr + 4) & _M32)
                return (instr.addr + imm) // 4
            (base,) = self._require(instr, rs1)  # jalr
            self._set(rd, (instr.addr + 4) & _M32)
            return ((base + imm) & _M32 & ~1) // 4
        if m.startswith("pl.sdotsp."):
            k = 0 if m.endswith(".0") else 1
            extra = self.spr_ready[k] - self.clk
            if extra < 0:
                extra = 0
            self.spr_ready[k] = self.clk + extra + 2
            self.clk += 1 + extra + self.wait
            self.instret += 1
            self._set(rd, None)
            a = self._get(rs1)
            self._set(rs1, None if a is None else a + 4)
            return idx + 1
        self.clk += instruction_cost(program, idx, self.wait)
        self.instret += 1
        if m in ("pl.tanh", "pl.sig") or spec.fmt == Fmt.CSR \
                or spec.is_load:
            # Loaded/activation/CSR values are data, never control.
            self._set(rd, None)
            if spec.postinc:
                a = self._get(rs1)
                self._set(rs1, None if a is None else a + imm)
            return idx + 1
        if spec.is_store:
            if spec.postinc:
                a = self._get(rs1)
                self._set(rs1, None if a is None else a + imm)
            return idx + 1
        op = ALU_OPS.get(m)
        if op is not None:
            # Fold when every read register (per the shared hazard
            # definition) is a known constant; x0 is always 0.
            mask = reads_mask(instr)
            known = all(self._get(r) is not None
                        for r in range(1, 32) if (mask >> r) & 1)
            if known:
                a = self._get(rs1) or 0
                b = self._get(rs2) or 0
                third = self._get(rd) or 0 if m in ACC_ALU_OPS else imm
                try:
                    self._set(rd, op(a, b, third))
                except ZeroDivisionError:
                    self._set(rd, None)
            else:
                self._set(rd, None)
            return idx + 1
        if m == "lui":
            self._set(rd, (imm << 12) & _M32)
        elif m == "auipc":
            self._set(rd, (instr.addr + (imm << 12)) & _M32)
        elif rd:
            self._set(rd, None)  # unknown effects never reach control
        return idx + 1

    # ------------------------------------------------ loop extrapolation
    def _snapshot(self):
        return (self.clk, self.instret, dict(self.consts),
                tuple(self.spr_ready), tuple(self.hw))

    def _deltas(self, s0, s1):
        """Affine delta between two tail snapshots, or None."""
        dc = s1[0] - s0[0]
        di = s1[1] - s0[1]
        if set(s0[2]) != set(s1[2]):
            return None
        dregs = {r: s1[2][r] - s0[2][r] for r in s0[2]}
        dspr = tuple(b - a for a, b in zip(s0[3], s1[3]))
        return (dc, di, dregs, dspr)

    def _advance(self, delta, n):
        """Apply ``n`` iterations' worth of ``delta`` to the state."""
        dc, di, dregs, dspr = delta
        self.clk += dc * n
        self.instret += di * n
        for r, d in dregs.items():
            v = self.consts[r] + d * n
            if d and not (0 <= v < _NO_WRAP
                          and 0 <= self.consts[r] < _NO_WRAP):
                # Affine extrapolation is only exact without 2**32 wrap;
                # endpoints in range bound the (monotonic) intermediates.
                raise Unpredictable("affine register leaves no-wrap range")
            self.consts[r] = v
        self.spr_ready = [v + d * n
                          for v, d in zip(self.spr_ready, dspr)]

    def _steady(self, key):
        """Record a tail event; returns the per-iteration delta once two
        consecutive deltas agree, else None."""
        snaps = self.snaps.setdefault(key, [])
        snaps.append(self._snapshot())
        if len(snaps) > _STEADY:
            snaps.pop(0)
        if len(snaps) < _STEADY:
            return None
        d0 = self._deltas(snaps[0], snaps[1])
        d1 = self._deltas(snaps[1], snaps[2])
        if d0 is None or d1 is None or d0[:2] != d1[:2] or \
                d0[2] != d1[2] or d0[3] != d1[3]:
            return None
        # Hardware state must be identical across events apart from the
        # decremented count of the loop being collapsed.
        h0, h1, h2 = snaps[0][4], snaps[1][4], snaps[2][4]
        skip = key[1] + 3 if key[0] == "hw" else None
        for i in range(8):
            if i == skip:
                continue
            if not h0[i] == h1[i] == h2[i]:
                return None
        return d1

    # ------------------------------------------------------------- walk
    def run(self):
        program = self.program
        size = len(program)
        hw = self.hw
        idx = 0
        steps = 0
        block_of = self.cfg.block_of
        blocks = self.blocks
        while 0 <= idx < size:
            steps += 1
            if steps > _MAX_STEPS:
                raise Unpredictable("no closed form found "
                                    "(walk did not collapse)")
            block = blocks[block_of[idx]]
            if idx == block.start and self._fast[block.block_id] and \
                    not (hw[0] and block.start <= hw[2] <= block.end) and \
                    not (hw[4] and block.start <= hw[6] <= block.end):
                # Whole-block fast path: the static bound is exact and
                # nothing in the block touches loops or SPR timing, so
                # charge it in one add and fold registers cost-free.
                clk0, n0 = self.clk, self.instret
                i = block.start
                while i <= block.end:
                    i = self._exec(i)
                self.clk = clk0 + block.min_cycles
                self.instret = n0 + block.n_instrs
                idx = i
                continue
            nxt = self._exec(idx)
            if nxt is None:
                break
            # Hardware-loop back edges (mirrors the run loop exactly).
            for base in (0, 4):
                if hw[base] and idx == hw[base + 2]:
                    hw[base + 3] -= 1
                    if hw[base + 3] > 0:
                        nxt = hw[base + 1]
                        delta = self._steady(("hw", base))
                        if delta is not None and hw[base + 3] > 1:
                            self._advance(delta, hw[base + 3] - 1)
                            hw[base + 3] = 1
                    else:
                        hw[base] = 0
                        self.snaps.pop(("hw", base), None)
                    break
            else:
                if nxt < idx and program[idx].spec.is_branch:
                    key = ("br", nxt, idx)
                    delta = self._steady(key)
                    if delta is not None:
                        instr = program[idx]
                        dregs = delta[2]
                        a, b = self.consts.get(instr.rs1, 0), \
                            self.consts.get(instr.rs2, 0)
                        da = dregs.get(instr.rs1, 0)
                        db = dregs.get(instr.rs2, 0)
                        if 0 <= a < _NO_WRAP and 0 <= b < _NO_WRAP:
                            # In the no-wrap range the exit iteration is
                            # a closed form of the affine induction.
                            k = _branch_exit_count(instr.mnemonic, a, b,
                                                   da, db)
                            if k > 1:
                                self._advance(delta, k - 1)
            idx = nxt
        return PredictedLatency(self.clk, self.instret)


def predict_program_cycles(program,
                           wait_states: int = 0) -> PredictedLatency:
    """Exact cycles/instret of one run of ``program`` from entry 0,
    without simulation; raises :class:`Unpredictable` when the timing is
    not a static closed form."""
    return _Walker(program, wait_states).run()


def predict_network_cycles(network, level_key: str,
                           wait_states: int = 0) -> PredictedLatency:
    """Whole-network inference latency (all timesteps), closed-form.

    Each timestep runs the same generated kernel, and kernel control
    flow is data-independent, so the network latency is ``timesteps``
    times the per-step prediction.
    """
    from ..rrm.suite import plan_for
    from ..isa import assemble
    program = assemble(plan_for(network, level_key).text)
    step = predict_program_cycles(program, wait_states)
    return PredictedLatency(step.cycles * network.timesteps,
                            step.instret * network.timesteps)


def certified_trip_counts(network, level_key: str) -> dict:
    """Absint-proven constant trip counts ``{branch_idx: N}`` for the
    generated kernel of ``(network, level_key)``.

    These are *static facts*, not walker extrapolations: the abstract
    interpreter proves them sound for every execution, and the ISS
    observer harness cross-validates them against real back-edge
    execution counts."""
    from ..analysis.absint import proven_trip_counts
    from ..analysis.footprint import Footprint
    from ..isa import assemble
    from ..rrm.suite import plan_for
    plan = plan_for(network, level_key)
    return proven_trip_counts(assemble(plan.text),
                              Footprint.from_plan(plan))
