"""RI5CY-style instruction-set simulator: functional + cycle model.

The CPU executes an assembled :class:`~repro.isa.program.Program` with the
timing rules reverse-engineered from the paper's Table I (documented in
DESIGN.md):

* 1 cycle base cost per instruction;
* taken branches cost 2 cycles, ``jal``/``jalr`` cost 2;
* a load costs one extra stall cycle (charged to the load, as Table I does)
  when the *next* instruction reads the loaded register;
* hardware-loop back edges are free; ``lp.setup``/``lp.setupi`` cost 1;
* ``pl.sdotsp.h.{0,1}`` compute with the current value of SPR[k] while
  loading ``mem[rs1]`` into SPR[k] and post-incrementing ``rs1``; reading an
  SPR sooner than 2 cycles after its load was issued stalls the pipeline;
* memory wait states (0 by default) are added to every load/store.

For speed every static instruction is compiled once into a Python closure
that mutates the register file / memory directly and returns the next
instruction index; per-static-instruction ``[count, cycles]`` cells are
aggregated into a :class:`~repro.core.tracer.Trace` on demand.

Two execution engines share those closures (``Cpu(engine=...)``):

* ``"interp"`` (default): the per-instruction closure interpreter.
* ``"turbo"``: :mod:`repro.core.turbo` overlays the closure table with
  generated code: loop kernels (vectorized numpy execution of provably
  safe hardware/software loops and two-level nests), rerolled runs of
  level-e tiles, and straight-line blocks compiled to scalar Python,
  falling back to the closures everywhere else.  Architecturally and
  cycle-wise bit-exact against ``"interp"`` (see docs/TIMING.md).
"""

from __future__ import annotations

from ..fixedpoint.activations import SIG_TABLE, TANH_TABLE
from ..isa import csr as csrdefs
from ..isa.instructions import Fmt, Instr, reads_mask as _reads_mask
from ..isa.program import Program
from .exceptions import ExecutionLimitExceeded, MemoryError32, SimError
from .memory import Memory
from .tracer import Trace

__all__ = ["Cpu", "DEFAULT_EXTENSIONS", "BASELINE_EXTENSIONS",
           "XPULP_EXTENSIONS", "ENGINES", "ALU_OPS", "BRANCH_OPS",
           "ACC_ALU_OPS"]

#: Execution engines accepted by :class:`Cpu`.
ENGINES = ("interp", "turbo")

#: Dispatches between exact budget checks in the turbo run loop (the
#: interpreter loop checks every instruction; turbo amortizes the check
#: because kernel retirements make it a three-term comparison).
_BUDGET_STRIDE = 1024

_M32 = 0xFFFFFFFF

#: Serial divider latency (RI5CY's divider iterates bit-serially; the
#: kernels never divide, so a fixed representative cost suffices).
DIV_CYCLES = 35
_DIV_OPS = frozenset({"div", "divu", "rem", "remu"})

#: Full extension set of the paper's enhanced core.
DEFAULT_EXTENSIONS = frozenset({"I", "M", "Xmac", "Xpulp", "Xrnn"})
#: The RV32IMC baseline core (we do not model the C re-encoding: compressed
#: instructions change code size, not instruction/cycle counts).  "Xmac" is
#: included because the paper's Table Ia baseline column contains mac.
BASELINE_EXTENSIONS = frozenset({"I", "M", "Xmac"})
#: A standard RI5CY with Xpulp but without the paper's new instructions.
XPULP_EXTENSIONS = frozenset({"I", "M", "Xmac", "Xpulp"})


def _signed32(value: int) -> int:
    return value - ((value & 0x80000000) << 1)


def _pla_lists(table):
    return list(int(v) for v in table.slopes), \
        list(int(v) for v in table.offsets)


_TANH_M, _TANH_Q = _pla_lists(TANH_TABLE)
_SIG_M, _SIG_Q = _pla_lists(SIG_TABLE)
_PLA_SHIFT = TANH_TABLE.shift
_PLA_N = TANH_TABLE.n_intervals
_PLA_ONE = TANH_TABLE.fmt.from_float(1.0)  # 1.0 in Q3.12 = 4096
_PLA_FRAC = TANH_TABLE.slope_fmt.frac_bits


def _pla_scalar(x: int, slopes, offsets, is_sig: bool) -> int:
    """Scalar Algorithm 2, bit-identical to fixedpoint.lut.pla_apply."""
    neg = x < 0
    mag = -x if neg else x
    idx = mag >> _PLA_SHIFT
    if idx < _PLA_N:
        y = ((slopes[idx] * mag) >> _PLA_FRAC) + offsets[idx]
    else:
        y = _PLA_ONE
    if neg:
        y = -y
        if is_sig:
            y = _PLA_ONE + y
    if y > 32767:
        y = 32767
    elif y < -32768:
        y = -32768
    return y


class Cpu:
    """One RI5CY-style core bound to a program and a memory."""

    def __init__(self, program: Program, memory: Memory | None = None,
                 extensions=DEFAULT_EXTENSIONS,
                 max_instrs: int = 500_000_000,
                 engine: str = "interp"):
        if engine not in ENGINES:
            raise SimError(
                f"unknown engine {engine!r}; expected one of {ENGINES}")
        self.program = program
        self.memory = memory if memory is not None else Memory()
        self.extensions = frozenset(extensions)
        self.max_instrs = max_instrs
        self.engine = engine
        # Register file: 32 architectural registers + one write sink so
        # compiled closures can write "x0" without a branch.
        self.regs = [0] * 33
        self.sprs = [0, 0]
        self._spr_ready = [0, 0]
        self.clk = [0]
        self.halted = False
        self.instret = 0
        # Hardware loop state: [active, start, end, count] x 2.
        self._hw = [0, 0, 0, 0, 0, 0, 0, 0]
        #: general read/write CSR storage (mscratch and friends)
        self.csrs = {csrdefs.MSCRATCH: 0}
        self._stats = [[0, 0] for _ in program]
        self._code = [self._compile(i, instr)
                      for i, instr in enumerate(program)]
        # Instructions retired inside vectorized turbo kernels, *in
        # addition to* the per-closure count in the run loop.  A list so
        # kernels can bump it without attribute lookups.
        self._xinstret = [0]
        # The value of ``_xinstret`` past which a turbo kernel knows the
        # current run has overrun its budget (set by each run).
        self._xlimit = [0]
        #: turbo-engine counters (always present; zeros under "interp")
        self.turbo_stats = {"vector_loops": 0, "vector_iters": 0,
                            "nest_loops": 0, "bails": 0, "fused_blocks": 0}
        if engine == "turbo":
            from .turbo import build_turbo_code
            self._tcode = build_turbo_code(self)
        else:
            self._tcode = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def cycles(self) -> int:
        return self.clk[0]

    def reg(self, index: int) -> int:
        """Unsigned value of register ``index``."""
        return self.regs[index] if index else 0

    def reg_s(self, index: int) -> int:
        """Signed value of register ``index``."""
        return _signed32(self.reg(index))

    def set_reg(self, index: int, value: int) -> None:
        if index:
            self.regs[index] = value & _M32

    def reset(self) -> None:
        """Clear architectural and statistics state (memory untouched).

        All state containers are mutated in place because the compiled
        instruction closures capture them by reference.
        """
        self.regs[:] = [0] * 33
        self.sprs[:] = [0, 0]
        self._spr_ready[:] = [0, 0]
        self.clk[0] = 0
        self.halted = False
        self.instret = 0
        self._hw[:] = [0, 0, 0, 0, 0, 0, 0, 0]
        self.csrs = {csrdefs.MSCRATCH: 0}
        self._xinstret[0] = 0
        for key in self.turbo_stats:
            self.turbo_stats[key] = 0
        for cell in self._stats:
            cell[0] = cell[1] = 0

    def run(self, entry: int = 0) -> Trace:
        """Execute from byte address ``entry`` until halt or fall-through
        and return the execution histogram accumulated so far
        (:meth:`trace`).

        Raises :class:`ExecutionLimitExceeded` once this run retires more
        than ``max_instrs`` instructions (a per-run budget: ``instret``
        keeps counting across runs, the budget does not).
        """
        self.execute(entry)
        return self.trace()

    def execute(self, entry: int = 0) -> None:
        """:meth:`run` without building the histogram: for callers that
        step the core many times and read results from memory (a
        :class:`Trace` walks every static instruction)."""
        if entry % 4:
            raise SimError("entry point must be word-aligned")
        if self._tcode is not None:
            self._run_turbo(entry)
            return
        code = self._code
        hw = self._hw
        size = len(code)
        idx = entry // 4
        budget = self.max_instrs
        executed = 0
        self.halted = False
        while 0 <= idx < size:
            try:
                nxt = code[idx]()
            except IndexError:
                # the compiled fast paths access memory unchecked; a
                # wild address surfaces here with program context
                instr = self.program[idx]
                raise MemoryError32(
                    f"memory access out of range at pc=0x{instr.addr:x} "
                    f"({instr})") from None
            executed += 1
            if executed > budget:
                self.instret += executed
                raise ExecutionLimitExceeded(
                    f"exceeded {self.max_instrs} instructions")
            if hw[0] and idx == hw[2]:
                hw[3] -= 1
                if hw[3] > 0:
                    nxt = hw[1]
                else:
                    hw[0] = 0
            elif hw[4] and idx == hw[6]:
                hw[7] -= 1
                if hw[7] > 0:
                    nxt = hw[5]
                else:
                    hw[4] = 0
            if self.halted:
                break
            idx = nxt
        self.instret += executed

    def _run_turbo(self, entry: int = 0) -> None:
        """:meth:`execute` against the turbo code table.

        Identical to the interpreter loop except that the per-entry code
        table may contain compiled loop kernels that retire many
        instructions per call; those report the extra retirements via
        ``self._xinstret`` so ``instret`` and the budget stay exact.
        (A kernel checks the budget after each vector window, the
        dispatch loop folds kernel retirements into its own budget test
        only every ``_BUDGET_STRIDE`` dispatches, and once more when
        the run ends, so the limit may be detected slightly late — but
        never missed.)
        """
        code = self._tcode
        hw = self._hw
        size = len(code)
        idx = entry // 4
        budget = self.max_instrs
        executed = 0
        xi = self._xinstret
        xstart = xi[0]
        self._xlimit[0] = xstart + budget
        check_at = min(_BUDGET_STRIDE, budget + 1)
        self.halted = False
        while 0 <= idx < size:
            try:
                nxt = code[idx]()
            except IndexError:
                instr = self.program[idx]
                raise MemoryError32(
                    f"memory access out of range at pc=0x{instr.addr:x} "
                    f"({instr})") from None
            except ExecutionLimitExceeded:
                # A loop kernel tripped the budget mid-dispatch; fold
                # its retirements in so instret reflects the overrun.
                self.instret += executed + xi[0] - xstart
                raise
            executed += 1
            if executed >= check_at:
                retired = executed + xi[0] - xstart
                if retired > budget:
                    self.instret += retired
                    raise ExecutionLimitExceeded(
                        f"exceeded {self.max_instrs} instructions")
                check_at = executed + min(_BUDGET_STRIDE,
                                          budget - retired + 1)
            if hw[0] and idx == hw[2]:
                hw[3] -= 1
                if hw[3] > 0:
                    nxt = hw[1]
                else:
                    hw[0] = 0
            elif hw[4] and idx == hw[6]:
                hw[7] -= 1
                if hw[7] > 0:
                    nxt = hw[5]
                else:
                    hw[4] = 0
            if self.halted:
                break
            idx = nxt
        retired = executed + xi[0] - xstart
        self.instret += retired
        if retired > budget:  # kernels retired past it since the last check
            raise ExecutionLimitExceeded(
                f"exceeded {self.max_instrs} instructions")

    def trace(self) -> Trace:
        """Aggregate per-instruction stats into a display-name histogram."""
        out = Trace()
        for instr, (count, cyc) in zip(self.program, self._stats):
            if count:
                out.add(instr.spec.display, count, cyc)
        return out

    def run_logged(self, entry: int = 0, limit: int = 10_000,
                   truncate: bool = False) -> list:
        """Execute like :meth:`run`, recording a per-instruction log.

        Returns a list of (cycle, address, disassembly) tuples — the
        debugging view of the pipeline.  Raises
        :class:`ExecutionLimitExceeded` if the program runs longer than
        ``limit`` instructions (logging is for short windows), unless
        ``truncate`` is set, in which case the log so far is returned.
        """
        code = self._code
        hw = self._hw
        size = len(code)
        idx = entry // 4
        log = []
        self.halted = False
        while 0 <= idx < size:
            if len(log) >= limit:
                if truncate:
                    break
                raise ExecutionLimitExceeded(
                    f"log limit of {limit} instructions reached")
            instr = self.program[idx]
            log.append((self.clk[0], instr.addr, str(instr)))
            nxt = code[idx]()
            self.instret += 1
            if hw[0] and idx == hw[2]:
                hw[3] -= 1
                if hw[3] > 0:
                    nxt = hw[1]
                else:
                    hw[0] = 0
            elif hw[4] and idx == hw[6]:
                hw[7] -= 1
                if hw[7] > 0:
                    nxt = hw[5]
                else:
                    hw[4] = 0
            if self.halted:
                break
            idx = nxt
        return log

    @staticmethod
    def format_log(log: list) -> str:
        """Render a :meth:`run_logged` log with per-instruction cycles."""
        lines = [f"{'cycle':>7}  {'pc':>6}  instruction"]
        for i, (cycle, addr, text) in enumerate(log):
            nxt = log[i + 1][0] if i + 1 < len(log) else None
            cost = f" ({nxt - cycle} cyc)" if nxt is not None else ""
            lines.append(f"{cycle:>7}  {addr:>6x}  {text}{cost}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def _compile(self, idx: int, instr: Instr):
        spec = instr.spec
        if spec.ext not in self.extensions:
            raise SimError(
                f"instruction {instr.mnemonic!r} at 0x{instr.addr:x} needs "
                f"extension {spec.ext!r}, core has {sorted(self.extensions)}")
        regs = self.regs
        words = self.memory.words
        stats = self._stats[idx]
        clk = self.clk
        nxt = idx + 1
        wait = self.memory.wait_states
        m = instr.mnemonic
        rd, rs1, rs2, imm = instr.rd, instr.rs1, instr.rs2, instr.imm
        wd = rd if rd else 32  # write sink for x0

        def bump(cost: int):
            stats[0] += 1
            stats[1] += cost
            clk[0] += cost

        # ---------------------------------------------------------- ALU
        alu = self._alu_builder(m)
        if alu is not None:
            cost = DIV_CYCLES if m in _DIV_OPS else 1
            if self._needs_old_rd(m):
                # Accumulators (p.mac, pv.sdotsp.h) read old rd as 3rd arg.
                def fn(op=alu):
                    regs[wd] = op(regs[rs1], regs[rs2], regs[rd])
                    bump(1)
                    return nxt
            else:
                def fn(op=alu):
                    regs[wd] = op(regs[rs1], regs[rs2], imm)
                    bump(cost)
                    return nxt
            return fn

        if m == "lui":
            value = (imm << 12) & _M32

            def fn():
                regs[wd] = value
                bump(1)
                return nxt
            return fn
        if m == "auipc":
            value = (instr.addr + (imm << 12)) & _M32

            def fn():
                regs[wd] = value
                bump(1)
                return nxt
            return fn

        # -------------------------------------------------------- Loads
        if spec.is_load and not m.startswith("pl.sdotsp"):
            return self._compile_load(idx, instr, bump)

        # ------------------------------------------------------- Stores
        if spec.is_store:
            return self._compile_store(instr, bump, nxt)

        # ----------------------------------------------- Control flow
        if spec.is_branch:
            tgt = (instr.addr + imm) // 4
            cond = self._branch_cond(m)

            def fn(cond=cond):
                if cond(regs[rs1], regs[rs2]):
                    bump(2)
                    return tgt
                bump(1)
                return nxt
            return fn
        if m == "jal":
            tgt = (instr.addr + imm) // 4
            link = (instr.addr + 4) & _M32

            def fn():
                regs[wd] = link
                bump(2)
                return tgt
            return fn
        if m == "jalr":
            link = (instr.addr + 4) & _M32

            def fn():
                target = (regs[rs1] + imm) & _M32 & ~1
                regs[wd] = link
                bump(2)
                return target // 4
            return fn

        # ------------------------------------------------ Hardware loops
        if m in ("lp.setup", "lp.setupi"):
            return self._compile_hwloop(idx, instr, bump)

        # --------------------------------------------------- Xrnn ops
        if m == "pl.tanh":
            def fn():
                regs[wd] = _pla_scalar(_signed32(regs[rs1]),
                                       _TANH_M, _TANH_Q, False) & _M32
                bump(1)
                return nxt
            return fn
        if m == "pl.sig":
            def fn():
                regs[wd] = _pla_scalar(_signed32(regs[rs1]),
                                       _SIG_M, _SIG_Q, True) & _M32
                bump(1)
                return nxt
            return fn
        if m.startswith("pl.sdotsp."):
            return self._compile_pl_sdotsp(instr, bump, nxt, wait)

        # --------------------------------------------------------- CSRs
        if spec.fmt == Fmt.CSR:
            return self._compile_csr(instr, bump, nxt)

        # ---------------------------------------------------- The rest
        if m == "ebreak":
            def fn():
                self.halted = True
                bump(1)
                return nxt
            return fn
        if m in ("fence", "ecall"):
            def fn():
                bump(1)
                return nxt
            return fn
        raise SimError(f"no executor for {m!r}")

    # ------------------------------------------------------------------
    @staticmethod
    def _alu_builder(m: str):
        """Return op(rs1_val, rs2_val, imm) for simple write-rd ALU ops."""
        return ALU_OPS.get(m)

    @staticmethod
    def _needs_old_rd(m: str) -> bool:
        """Ops that accumulate into rd get old rd as their 3rd argument."""
        return m in ACC_ALU_OPS

    def _compile_load(self, idx: int, instr: Instr, bump):
        spec = instr.spec
        regs = self.regs
        words = self.memory.words
        nxt = idx + 1
        rd, rs1, imm = instr.rd, instr.rs1, instr.imm
        wd = rd if rd else 32
        wait = self.memory.wait_states
        # Static load-use stall: does the next instruction read rd?
        stall = 0
        if rd and nxt < len(self.program):
            if (_reads_mask(self.program[nxt]) >> rd) & 1:
                stall = 1
        cost = 1 + stall + wait
        postinc = spec.postinc
        size, signed = spec.size, spec.signed

        if size == 4:
            if postinc:
                def fn():
                    addr = regs[rs1]
                    regs[wd] = words[addr >> 2]
                    regs[rs1] = (addr + imm) & _M32
                    bump(cost)
                    return nxt
            else:
                def fn():
                    addr = (regs[rs1] + imm) & _M32
                    regs[wd] = words[addr >> 2]
                    bump(cost)
                    return nxt
            return fn

        def narrow(addr):
            word = words[addr >> 2]
            if size == 2:
                value = (word >> ((addr & 2) << 3)) & 0xFFFF
                if signed and value & 0x8000:
                    value |= 0xFFFF0000
            else:
                value = (word >> ((addr & 3) << 3)) & 0xFF
                if signed and value & 0x80:
                    value |= 0xFFFFFF00
            return value

        if postinc:
            def fn():
                addr = regs[rs1]
                regs[wd] = narrow(addr)
                regs[rs1] = (addr + imm) & _M32
                bump(cost)
                return nxt
        else:
            def fn():
                regs[wd] = narrow((regs[rs1] + imm) & _M32)
                bump(cost)
                return nxt
        return fn

    def _compile_store(self, instr: Instr, bump, nxt: int):
        spec = instr.spec
        regs = self.regs
        words = self.memory.words
        rs1, rs2, imm = instr.rs1, instr.rs2, instr.imm
        cost = 1 + self.memory.wait_states
        postinc = spec.postinc
        size = spec.size

        def write(addr):
            value = regs[rs2] if rs2 else 0
            if size == 4:
                words[addr >> 2] = value
            elif size == 2:
                shift = (addr & 2) << 3
                index = addr >> 2
                words[index] = (words[index] & ~(0xFFFF << shift)) \
                    | ((value & 0xFFFF) << shift)
            else:
                shift = (addr & 3) << 3
                index = addr >> 2
                words[index] = (words[index] & ~(0xFF << shift)) \
                    | ((value & 0xFF) << shift)

        if postinc:
            def fn():
                addr = regs[rs1]
                write(addr)
                regs[rs1] = (addr + imm) & _M32
                bump(cost)
                return nxt
        else:
            def fn():
                write((regs[rs1] + imm) & _M32)
                bump(cost)
                return nxt
        return fn

    def _compile_hwloop(self, idx: int, instr: Instr, bump):
        regs = self.regs
        hw = self._hw
        nxt = idx + 1
        end_idx = (instr.addr + instr.imm2) // 4
        if end_idx <= idx or end_idx >= len(self.program):
            raise SimError(f"hardware loop end out of range at "
                           f"0x{instr.addr:x}")
        end_spec = self.program[end_idx].spec
        if end_spec.is_load and not \
                self.program[end_idx].mnemonic.startswith("pl.sdotsp"):
            raise SimError("a plain load may not be the last instruction "
                           "of a hardware loop (load-use stall across the "
                           "back edge is not modeled)")
        base = instr.loop * 4
        if instr.mnemonic == "lp.setupi":
            count = instr.imm

            def fn():
                hw[base] = 1
                hw[base + 1] = nxt
                hw[base + 2] = end_idx
                hw[base + 3] = count
                bump(1)
                return nxt
            return fn
        rs1 = instr.rs1

        def fn():
            hw[base] = 1
            hw[base + 1] = nxt
            hw[base + 2] = end_idx
            hw[base + 3] = regs[rs1] if rs1 else 0
            bump(1)
            # Zero-count loops skip the body entirely.
            if hw[base + 3] <= 0:
                hw[base] = 0
                return end_idx + 1
            return nxt
        return fn

    def _compile_pl_sdotsp(self, instr: Instr, bump, nxt: int, wait: int):
        regs = self.regs
        words = self.memory.words
        sprs = self.sprs
        ready = self._spr_ready
        clk = self.clk
        k = 0 if instr.mnemonic.endswith(".0") else 1
        rd, rs1, rs2 = instr.rd, instr.rs1, instr.rs2
        wd = rd if rd else 32
        dot = _dot4b if ".b." in instr.mnemonic else _dot2h

        def fn():
            now = clk[0]
            extra = ready[k] - now
            if extra < 0:
                extra = 0
            regs[wd] = (regs[rd] + dot(sprs[k],
                                       regs[rs2] if rs2 else 0)) & _M32
            addr = regs[rs1]
            sprs[k] = words[addr >> 2]
            regs[rs1] = (addr + 4) & _M32
            start = now + extra
            ready[k] = start + 2
            bump(1 + extra + wait)
            return nxt
        return fn

    def _read_csr(self, csr: int) -> int:
        """Live CSR read (counters reflect state *before* the csr op)."""
        if csr == csrdefs.MCYCLE:
            return self.clk[0] & _M32
        if csr == csrdefs.MCYCLEH:
            return (self.clk[0] >> 32) & _M32
        if csr == csrdefs.MINSTRET:
            return sum(cell[0] for cell in self._stats) & _M32
        if csr == csrdefs.MINSTRETH:
            return (sum(cell[0] for cell in self._stats) >> 32) & _M32
        if csr == csrdefs.MHARTID:
            return 0
        return self.csrs.get(csr, 0)

    def _write_csr(self, csr: int, value: int) -> None:
        """CSR write; the counter CSRs are read-only in this model."""
        if csr in (csrdefs.MCYCLE, csrdefs.MCYCLEH, csrdefs.MINSTRET,
                   csrdefs.MINSTRETH, csrdefs.MHARTID):
            return
        self.csrs[csr] = value & _M32

    def _compile_csr(self, instr: Instr, bump, nxt: int):
        regs = self.regs
        m = instr.mnemonic
        rd, rs1, csr = instr.rd, instr.rs1, instr.imm
        wd = rd if rd else 32

        def fn():
            old = self._read_csr(csr)
            if m == "csrrw":
                self._write_csr(csr, regs[rs1] if rs1 else 0)
            elif rs1:  # csrrs/csrrc with rs1 == x0 do not write
                operand = regs[rs1]
                if m == "csrrs":
                    self._write_csr(csr, old | operand)
                else:
                    self._write_csr(csr, old & ~operand)
            regs[wd] = old
            bump(1)
            return nxt
        return fn

    @staticmethod
    def _branch_cond(m: str):
        return BRANCH_OPS[m]


# ----------------------------------------------------------------------
# Helper semantics shared by the ALU table
# ----------------------------------------------------------------------
def _div(a, b, i):
    sa, sb = _signed32(a), _signed32(b)
    if sb == 0:
        return _M32
    if sa == -(1 << 31) and sb == -1:
        return 0x80000000
    q = abs(sa) // abs(sb)
    if (sa < 0) != (sb < 0):
        q = -q
    return q & _M32


def _divu(a, b, i):
    if b == 0:
        return _M32
    return (a // b) & _M32


def _rem(a, b, i):
    sa, sb = _signed32(a), _signed32(b)
    if sb == 0:
        return a
    if sa == -(1 << 31) and sb == -1:
        return 0
    r = abs(sa) % abs(sb)
    if sa < 0:
        r = -r
    return r & _M32


def _remu(a, b, i):
    if b == 0:
        return a
    return (a % b) & _M32


def _halves(value):
    lo = value & 0xFFFF
    hi = (value >> 16) & 0xFFFF
    return lo - ((lo & 0x8000) << 1), hi - ((hi & 0x8000) << 1)


def _dot2h(a, b):
    """Signed 2-way 16-bit dot product of two packed words."""
    a0, a1 = _halves(a)
    b0, b1 = _halves(b)
    return a0 * b0 + a1 * b1


def _bytes4(value):
    out = []
    for shift in (0, 8, 16, 24):
        byte = (value >> shift) & 0xFF
        out.append(byte - ((byte & 0x80) << 1))
    return out


def _dot4b(a, b):
    """Signed 4-way 8-bit dot product of two packed words."""
    av, bv = _bytes4(a), _bytes4(b)
    return sum(x * y for x, y in zip(av, bv))


def _pack(lo, hi):
    return ((hi & 0xFFFF) << 16) | (lo & 0xFFFF)


def _pv_add_h(a, b, i):
    a0, a1 = _halves(a)
    b0, b1 = _halves(b)
    return _pack(a0 + b0, a1 + b1)


def _pv_sub_h(a, b, i):
    a0, a1 = _halves(a)
    b0, b1 = _halves(b)
    return _pack(a0 - b0, a1 - b1)


def _pv_mul_h(a, b, i):
    a0, a1 = _halves(a)
    b0, b1 = _halves(b)
    return _pack(a0 * b0, a1 * b1)


def _pv_sra_h(a, b, i):
    a0, a1 = _halves(a)
    return _pack(a0 >> i, a1 >> i)


def _pv_extract_h(a, b, i):
    half = _halves(a)[i & 1]
    return half & _M32


def _p_clip(a, b, i):
    value = _signed32(a)
    if i == 0:
        return 0 if value > 0 else value & _M32
    lo, hi = -(1 << (i - 1)), (1 << (i - 1)) - 1
    return max(lo, min(hi, value)) & _M32


def _pv_sdotsp_h(a, b, acc):
    a0 = a & 0xFFFF
    a1 = (a >> 16) & 0xFFFF
    b0 = b & 0xFFFF
    b1 = (b >> 16) & 0xFFFF
    a0 -= (a0 & 0x8000) << 1
    a1 -= (a1 & 0x8000) << 1
    b0 -= (b0 & 0x8000) << 1
    b1 -= (b1 & 0x8000) << 1
    return (acc + a0 * b0 + a1 * b1) & _M32


#: op(rs1_val, rs2_val, imm_or_old_rd) for every simple write-rd ALU op.
#: Shared by the interpreter's closure compiler and ``repro.core.turbo``'s
#: scalar fallback paths; built once at import instead of per ``_compile``.
ALU_OPS = {
    "addi": lambda a, b, i: (a + i) & _M32,
    "slti": lambda a, b, i: 1 if _signed32(a) < i else 0,
    "sltiu": lambda a, b, i: 1 if a < (i & _M32) else 0,
    "xori": lambda a, b, i: (a ^ i) & _M32,
    "ori": lambda a, b, i: (a | i) & _M32,
    "andi": lambda a, b, i: (a & i) & _M32,
    "slli": lambda a, b, i: (a << i) & _M32,
    "srli": lambda a, b, i: a >> i,
    "srai": lambda a, b, i: (_signed32(a) >> i) & _M32,
    "add": lambda a, b, i: (a + b) & _M32,
    "sub": lambda a, b, i: (a - b) & _M32,
    "sll": lambda a, b, i: (a << (b & 31)) & _M32,
    "slt": lambda a, b, i: 1 if _signed32(a) < _signed32(b) else 0,
    "sltu": lambda a, b, i: 1 if a < b else 0,
    "xor": lambda a, b, i: a ^ b,
    "srl": lambda a, b, i: a >> (b & 31),
    "sra": lambda a, b, i: (_signed32(a) >> (b & 31)) & _M32,
    "or": lambda a, b, i: a | b,
    "and": lambda a, b, i: a & b,
    "mul": lambda a, b, i: (a * b) & _M32,
    "mulh": lambda a, b, i: ((_signed32(a) * _signed32(b)) >> 32) & _M32,
    "mulhu": lambda a, b, i: ((a * b) >> 32) & _M32,
    "mulhsu": lambda a, b, i: ((_signed32(a) * b) >> 32) & _M32,
    "div": _div, "divu": _divu, "rem": _rem, "remu": _remu,
    "p.mac": lambda a, b, acc: (acc + _signed32(a) * _signed32(b)) & _M32,
    "pv.sdotsp.h": _pv_sdotsp_h,
    "pv.sdotsp.b": lambda a, b, acc: (acc + _dot4b(a, b)) & _M32,
    "pv.add.h": _pv_add_h,
    "pv.sub.h": _pv_sub_h,
    "pv.mul.h": _pv_mul_h,
    "pv.sra.h": _pv_sra_h,
    "pv.pack.h": lambda a, b, i: ((b & 0xFFFF) << 16) | (a & 0xFFFF),
    "pv.extract.h": _pv_extract_h,
    "p.abs": lambda a, b, i: abs(_signed32(a)) & _M32,
    "p.min": lambda a, b, i: (a if _signed32(a) < _signed32(b) else b),
    "p.max": lambda a, b, i: (a if _signed32(a) > _signed32(b) else b),
    "p.minu": lambda a, b, i: min(a, b),
    "p.maxu": lambda a, b, i: max(a, b),
    "p.clip": _p_clip,
    "p.exths": lambda a, b, i:
        ((a & 0xFFFF) | (0xFFFF0000 if a & 0x8000 else 0)),
}

#: ALU ops whose third argument is the *old rd* (accumulators).
ACC_ALU_OPS = frozenset({"p.mac", "pv.sdotsp.h", "pv.sdotsp.b"})

#: cond(rs1_val, rs2_val) for every conditional branch.
BRANCH_OPS = {
    "beq": lambda a, b: a == b,
    "bne": lambda a, b: a != b,
    "blt": lambda a, b: _signed32(a) < _signed32(b),
    "bge": lambda a, b: _signed32(a) >= _signed32(b),
    "bltu": lambda a, b: a < b,
    "bgeu": lambda a, b: a >= b,
}
