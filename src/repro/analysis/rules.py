"""Lint rules over the CFG/dataflow results.

Each rule is a function ``rule(ctx) -> list[Finding]`` registered in
``RULES``.  Findings carry (severity, rule id, byte address, instruction
text, message), so error-severity findings gate CI while the warnings
double as an optimization worklist (every load-use finding names the
exact instruction pair and costs one cycle per execution).

Severity policy:

* ``error`` — the program violates a hardware constraint the core
  enforces (or silently mis-executes on real RI5CY): malformed hardware
  loops, branches across a loop-body boundary, a plain load ending a loop
  body, a guaranteed SPR re-read stall every iteration.
* ``warning`` — legal but costly or suspicious: avoidable load-use
  stalls, broken SPR alternation with safe distance, a clobbered
  ``lp.setup`` count register (harmless on this core, which latches the
  count, but non-portable), reads of never-written registers,
  unreachable code, memory accesses the abstract interpreter could not
  prove in-footprint, loops with no proven trip count.
* ``info`` — notes: dead register writes (the callee-save/restore idiom
  produces these legitimately), saves of caller state, accumulators
  whose exact-math range engages the saturating-MAC semantics.

Every rule has a stable string id (``Finding.rule``) surfaced in the
JSON output together with :func:`rule_catalog`; downstream tooling
should key on those ids, never on finding order.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..isa.instructions import reads_mask, writes_mask
from ..isa.registers import reg_name
from .cfg import Cfg, build_cfg
from .dataflow import Liveness, ReachingDefs

__all__ = ["Severity", "Finding", "AnalysisContext", "RULES",
           "rule_catalog", "run_rules"]


class Severity:
    ERROR = "error"
    WARNING = "warning"
    INFO = "info"
    ORDER = {ERROR: 0, WARNING: 1, INFO: 2}


@dataclass(frozen=True)
class Finding:
    """One lint finding, sortable by (severity, address)."""

    severity: str
    rule: str
    addr: int
    instr: str
    message: str

    def sort_key(self):
        return (Severity.ORDER[self.severity], self.addr, self.rule)

    def render(self) -> str:
        return (f"{self.severity:<7s} {self.rule:<22s} "
                f"0x{self.addr:04x}  {self.instr:<28s} {self.message}")

    def to_dict(self) -> dict:
        return {"severity": self.severity, "rule": self.rule,
                "addr": self.addr, "instr": self.instr,
                "message": self.message}


class AnalysisContext:
    """Lazily-computed shared analysis state handed to every rule.

    ``footprint`` (optional) is the declared memory footprint the
    abstract-interpretation rules prove loads/stores against; without
    one the permissive whole-memory footprint is used.
    """

    def __init__(self, program, cfg: Cfg | None = None, footprint=None):
        self.program = program
        self.cfg = cfg if cfg is not None else build_cfg(program)
        self.footprint = footprint
        self._liveness = None
        self._reaching = None
        self._absint = None

    @property
    def liveness(self) -> Liveness:
        if self._liveness is None:
            self._liveness = Liveness(self.cfg)
        return self._liveness

    @property
    def reaching(self) -> ReachingDefs:
        if self._reaching is None:
            self._reaching = ReachingDefs(self.cfg)
        return self._reaching

    @property
    def absint(self):
        """Abstract-interpretation :class:`~.absint.Certificate`."""
        if self._absint is None:
            from .absint import analyze
            self._absint = analyze(self.program, self.footprint)
        return self._absint

    def finding(self, severity, rule, idx, message) -> Finding:
        instr = self.program[idx]
        return Finding(severity=severity, rule=rule, addr=instr.addr,
                       instr=str(instr), message=message)


RULES: dict = {}


def rule(rule_id: str, severity: str = Severity.WARNING):
    """Register a lint rule under its stable string id.  ``severity``
    is the rule's nominal severity (individual findings may demote,
    e.g. ``use-before-def`` on callee-saved registers)."""
    def deco(fn):
        RULES[rule_id] = fn
        fn.rule_id = rule_id
        fn.severity = severity
        doc = (fn.__doc__ or "").strip()
        fn.summary = doc.split("\n")[0].strip() if doc else ""
        return fn
    return deco


def rule_catalog() -> dict:
    """Stable machine-readable catalog ``{id: {severity, summary}}`` —
    the contract downstream tooling keys findings on."""
    return {rule_id: {"severity": fn.severity, "summary": fn.summary}
            for rule_id, fn in sorted(RULES.items())}


def _is_plain_load(instr) -> bool:
    return instr.spec.is_load \
        and not instr.mnemonic.startswith("pl.sdotsp")


# ----------------------------------------------------------------------
# Scheduling rules
# ----------------------------------------------------------------------
@rule("load-use-stall", Severity.WARNING)
def check_load_use(ctx) -> list:
    """Plain load whose next sequential instruction reads the loaded
    register: the core stalls one cycle, charged to the load, on every
    execution (the charge is purely sequential — the core decides it at
    compile time from ``program[idx + 1]``, exactly as this scan does)."""
    out = []
    program = ctx.program
    for idx in range(len(program) - 1):
        instr = program[idx]
        if not _is_plain_load(instr) or not instr.rd:
            continue
        nxt = program[idx + 1]
        if (reads_mask(nxt) >> instr.rd) & 1:
            out.append(ctx.finding(
                Severity.WARNING, "load-use-stall", idx,
                f"{nxt.mnemonic} reads {reg_name(instr.rd)} right after "
                f"its load: +1 cycle per execution; move an independent "
                f"instruction between them"))
    return out


@rule("spr-reread", Severity.ERROR)
def check_spr_reread(ctx) -> list:
    """``pl.sdotsp`` SPR double-buffer protocol, hard half: re-reading an
    SPR sooner than 2 cycles after its load stalls.  A same-index
    ``pl.sdotsp`` executing immediately after another (sequentially or
    across a hardware-loop back edge) re-reads at +1 cycle — a guaranteed
    stall on every execution."""
    out = []
    program = ctx.program
    loop_ends = {lp.body_end: lp for lp in ctx.cfg.loops}

    def spr_index(instr):
        if instr.mnemonic.startswith("pl.sdotsp"):
            return int(instr.mnemonic[-1])
        return None

    for idx, instr in enumerate(program):
        k = spr_index(instr)
        if k is None:
            continue
        successors = []
        if idx + 1 < len(program):
            successors.append(idx + 1)
        lp = loop_ends.get(idx)
        if lp is not None:
            successors.append(lp.body_start)
        for succ in successors:
            if spr_index(program[succ]) == k:
                via = "across the loop back edge " \
                    if succ != idx + 1 else ""
                out.append(ctx.finding(
                    Severity.ERROR, "spr-reread", succ,
                    f"SPR[{k}] re-read {via}1 cycle after its load at "
                    f"0x{instr.addr:x}: stalls every execution "
                    f"(needs >= 2 cycles)"))
    return out


@rule("spr-alternation", Severity.ERROR)
def check_spr_alternation(ctx) -> list:
    """Strict half of the SPR protocol: inside a hardware-loop body that
    uses both SPR buffers, the ``.0``/``.1`` stream must strictly
    alternate (cyclically, since the back edge is free).  Non-alternating
    but distance-safe sequences leave no slack and break the Table II
    double-buffer pattern; every generated kernel satisfies the strict
    form, so violations are reported as errors."""
    out = []
    program = ctx.program
    for lp in ctx.cfg.loops:
        seq = [(idx, int(program[idx].mnemonic[-1]))
               for idx in range(lp.body_start, lp.body_end + 1)
               if program[idx].mnemonic.startswith("pl.sdotsp")]
        if len(seq) < 2:
            continue
        indices = {k for _, k in seq}
        if len(indices) < 2:
            continue  # single-SPR streams are a deliberate scheme
        for pos in range(len(seq)):
            idx, k = seq[pos]
            prev_idx, prev_k = seq[pos - 1]  # cyclic
            if k == prev_k and idx != prev_idx + 1:
                # adjacent same-index is already an error (spr-reread)
                out.append(ctx.finding(
                    Severity.ERROR, "spr-alternation", idx,
                    f"SPR[{k}] used twice in a row in the loop body "
                    f"(previous use at 0x{program[prev_idx].addr:x}); "
                    f"the .0/.1 stream must alternate"))
    return out


# ----------------------------------------------------------------------
# Hardware-loop legality
# ----------------------------------------------------------------------
@rule("hwloop-malformed", Severity.ERROR)
def check_hwloop_malformed(ctx) -> list:
    """Loop end marker outside the program, or a non-positive body."""
    out = []
    for idx, end_addr in ctx.cfg.bad_targets:
        instr = ctx.program[idx]
        if instr.mnemonic in ("lp.setup", "lp.setupi"):
            out.append(ctx.finding(
                Severity.ERROR, "hwloop-malformed", idx,
                f"hardware loop end 0x{end_addr:x} is outside the "
                f"program (empty body or bad offset)"))
    return out


@rule("branch-target", Severity.ERROR)
def check_branch_targets(ctx) -> list:
    """Branch or jump whose resolved target lies outside the program."""
    out = []
    for idx, target in ctx.cfg.bad_targets:
        instr = ctx.program[idx]
        if instr.mnemonic in ("lp.setup", "lp.setupi"):
            continue
        out.append(ctx.finding(
            Severity.ERROR, "branch-target", idx,
            f"target 0x{target:x} is outside the program"))
    return out


@rule("hwloop-boundary", Severity.ERROR)
def check_hwloop_boundary(ctx) -> list:
    """No branches into or out of a hardware-loop body.  The loop end
    comparator fires on the body-end PC: entering mid-body skips the
    setup, leaving by branch abandons live loop state."""
    out = []
    program = ctx.program
    for lp in ctx.cfg.loops:
        for idx, instr in enumerate(program):
            spec = instr.spec
            if not (spec.is_branch or instr.mnemonic == "jal"):
                continue
            target = (instr.addr + instr.imm) // 4
            if not 0 <= target < len(program):
                continue  # branch-target rule reports it
            inside_src = lp.contains(idx)
            inside_dst = lp.contains(target)
            if inside_src and not inside_dst:
                out.append(ctx.finding(
                    Severity.ERROR, "hwloop-boundary", idx,
                    f"branches out of the hardware loop body "
                    f"[0x{lp.body_start * 4:x}, 0x{lp.body_end * 4:x}]"))
            elif inside_dst and not inside_src and idx != lp.setup_idx:
                out.append(ctx.finding(
                    Severity.ERROR, "hwloop-boundary", idx,
                    f"branches into the hardware loop body "
                    f"[0x{lp.body_start * 4:x}, 0x{lp.body_end * 4:x}] "
                    f"bypassing its lp.setup"))
    return out


@rule("hwloop-nesting", Severity.ERROR)
def check_hwloop_nesting(ctx) -> list:
    """Bodies must be disjoint or strictly nested, nesting depth <= 2
    (the core has two loop register sets), and nested loops must use
    distinct loop indices."""
    out = []
    loops = ctx.cfg.loops
    for i, a in enumerate(loops):
        for b in loops[i + 1:]:
            a_range = set(range(a.body_start, a.body_end + 1))
            b_range = set(range(b.body_start, b.body_end + 1))
            overlap = a_range & b_range
            if not overlap:
                continue
            if not (a_range <= b_range or b_range <= a_range):
                out.append(ctx.finding(
                    Severity.ERROR, "hwloop-nesting", b.setup_idx,
                    f"loop body overlaps the loop at "
                    f"0x{a.setup_idx * 4:x} without nesting"))
            elif a.index == b.index:
                out.append(ctx.finding(
                    Severity.ERROR, "hwloop-nesting", b.setup_idx,
                    f"nested loops share hardware loop index "
                    f"{a.index}; the inner setup clobbers the outer "
                    f"loop state"))
    for lp in loops:
        depth = len(ctx.cfg.loops_containing(lp.body_start))
        if depth > 2:
            out.append(ctx.finding(
                Severity.ERROR, "hwloop-nesting", lp.setup_idx,
                f"hardware loops nested {depth} deep; the core "
                f"supports 2 levels"))
    return out


@rule("hwloop-count-clobber", Severity.WARNING)
def check_hwloop_count_clobber(ctx) -> list:
    """``lp.setup`` count register redefined inside the body.  This core
    latches the count at setup so execution is unaffected, but cores that
    re-read the register would change trip count — non-portable."""
    out = []
    program = ctx.program
    for lp in ctx.cfg.loops:
        if lp.counted:
            continue
        setup = program[lp.setup_idx]
        if not setup.rs1:
            continue
        for idx in range(lp.body_start, lp.body_end + 1):
            if (writes_mask(program[idx]) >> setup.rs1) & 1:
                out.append(ctx.finding(
                    Severity.WARNING, "hwloop-count-clobber", idx,
                    f"writes {reg_name(setup.rs1)}, the lp.setup count "
                    f"register of the loop at 0x{setup.addr:x}"))
    return out


@rule("hwloop-load-end", Severity.ERROR)
def check_hwloop_load_end(ctx) -> list:
    """A plain load may not end a hardware-loop body: the load-use stall
    across the free back edge is not modeled, and the core refuses to
    execute such programs (see Cpu._compile_hwloop)."""
    out = []
    for lp in ctx.cfg.loops:
        last = ctx.program[lp.body_end]
        if _is_plain_load(last):
            out.append(ctx.finding(
                Severity.ERROR, "hwloop-load-end", lp.body_end,
                "plain load is the last instruction of a hardware loop "
                "body; the core rejects this program"))
    return out


# ----------------------------------------------------------------------
# Dataflow rules
# ----------------------------------------------------------------------
#: Callee-saved registers plus ra: storing them while uninitialized is
#: the save idiom at a function head, reported as info, not warning.
_SAVE_IDIOM_REGS = frozenset([1] + [8, 9] + list(range(18, 28)))


@rule("use-before-def", Severity.WARNING)
def check_use_before_def(ctx) -> list:
    """Register read with no prior write on some path from entry.  The
    core boots from a zeroed register file, so this reads 0 — almost
    always a scheduling or allocation bug.  Stores of uninitialized
    callee-saved registers (the frame-save idiom) demote to info."""
    out = []
    program = ctx.program
    for idx, mask in ctx.reaching.uses_before_def():
        instr = program[idx]
        regs = [r for r in range(1, 32) if (mask >> r) & 1]
        names = ", ".join(reg_name(r) for r in regs)
        is_save = (instr.spec.is_store
                   and all(r in _SAVE_IDIOM_REGS for r in regs))
        if is_save:
            out.append(ctx.finding(
                Severity.INFO, "use-before-def", idx,
                f"saves caller state from uninitialized {names} "
                f"(frame-save idiom)"))
        else:
            out.append(ctx.finding(
                Severity.WARNING, "use-before-def", idx,
                f"reads {names} before any instruction writes "
                f"{'it' if len(regs) == 1 else 'them'}"))
    return out


@rule("dead-write", Severity.INFO)
def check_dead_write(ctx) -> list:
    """Register write never read before being overwritten (or before
    program exit).  The trailing frame restore legitimately produces
    these, hence info severity."""
    out = []
    program = ctx.program
    for idx in ctx.liveness.dead_writes():
        instr = program[idx]
        w = writes_mask(instr)
        regs = [r for r in range(1, 32) if (w >> r) & 1]
        dead = [r for r in regs
                if not (ctx.liveness.live_out_at(idx) >> r) & 1]
        names = ", ".join(reg_name(r) for r in dead)
        out.append(ctx.finding(
            Severity.INFO, "dead-write", idx,
            f"value written to {names} is never read"))
    return out


@rule("unreachable", Severity.WARNING)
def check_unreachable(ctx) -> list:
    """Blocks no path from the entry reaches."""
    out = []
    for block in ctx.cfg.unreachable_blocks:
        out.append(ctx.finding(
            Severity.WARNING, "unreachable", block.start,
            f"unreachable block of {len(block)} instruction(s)"))
    return out


# ----------------------------------------------------------------------
# Abstract-interpretation rules (repro.analysis.absint)
# ----------------------------------------------------------------------
@rule("possible-oob", Severity.WARNING)
def check_possible_oob(ctx) -> list:
    """Load/store whose address range could not be proven inside the
    declared memory footprint.  On a certified kernel this is always a
    real problem; on bare assembly it flags addresses the interval
    analysis cannot bound."""
    out = []
    for access in sorted(ctx.absint.unproven, key=lambda a: a.idx):
        out.append(ctx.finding(
            Severity.WARNING, "possible-oob", access.idx,
            f"{access.kind} of [0x{access.lo:x}, 0x{access.hi:x}] "
            f"not proven safe: {access.reason}"))
    return out


@rule("unproven-saturation", Severity.INFO)
def check_unproven_saturation(ctx) -> list:
    """Accumulator whose exact-math result can leave the signed-32
    range, engaging the saturating-MAC semantics.  Expected on real
    kernels (that is what the hardware saturation is for) — the note
    tells the datapath-sizing study exactly which MACs need it."""
    out = []
    cert = ctx.absint
    for idx in sorted(cert.saturation):
        lo, hi = cert.saturation[idx]
        out.append(ctx.finding(
            Severity.INFO, "unproven-saturation", idx,
            f"exact-math accumulator range [{lo}, {hi}] exceeds "
            f"signed-32: saturating semantics engaged"))
    return out


@rule("unbounded-trip", Severity.WARNING)
def check_unbounded_trip(ctx) -> list:
    """Loop whose body-execution count could not be statically proven:
    its certificate carries no trip fact for it."""
    out = []
    for fact in ctx.absint.loops:
        if fact.trip is None:
            out.append(ctx.finding(
                Severity.WARNING, "unbounded-trip", fact.back,
                f"no proven trip count for the {fact.kind} loop "
                f"headed at 0x{fact.head * 4:x}"))
    return out


def run_rules(program, cfg: Cfg | None = None,
              rules: list | None = None, footprint=None) -> list:
    """Run ``rules`` (default: all) over ``program``; sorted findings."""
    ctx = AnalysisContext(program, cfg, footprint)
    selected = RULES.values() if rules is None \
        else [RULES[r] for r in rules]
    findings = []
    for fn in selected:
        findings.extend(fn(ctx))
    return sorted(findings, key=Finding.sort_key)
