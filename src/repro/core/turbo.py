"""Turbo execution engine: generated code over the closure ISS.

``Cpu(engine="turbo")`` overlays the per-instruction closure table with
code compiled for the program's hot paths:

* **Hardware loops** (``lp.setup``/``lp.setupi``) whose body is a single
  straight-line basic block of provably safe instructions are executed as
  fused numpy kernels, every iteration from iteration 0 evaluated at once
  (the kernel computes each SPR's entry stall from the clock) —
  post-increment load chains become slices of one memory span, dot
  products become one product-sum, PLA activations use a vectorized
  Algorithm 2 identical to the scalar one.
* **Branch-closed loops** (a backward branch to the loop head, e.g. a
  level-a matvec row) whose exit test compares an affine induction
  against an invariant: the exit iteration is solved in closed form on
  entry, and the window commits exactly the iterations up to it.  A loop
  whose exit has no closed form (say, a data-dependent sentinel) keeps
  its interpreter closures.  Short inner branch loops whose every
  exit decision is static (the level-a conv's 3-trip ``kx``/``ky``
  loops) are unrolled into the body, each decision re-checked over the
  window.
* **Loop nests** (a branch loop around exactly one inner loop — a
  branch loop, e.g. a whole level-a matvec layer, or a hardware loop,
  e.g. a level-e tile) run as one 2-D window: ``n`` outer iterations by
  ``T`` inner trips, ``T`` the same for every outer iteration, the inner
  loads ``(n, T)`` gathers and the inner accumulators product-sums over
  the inner axis.  ``pl.sdotsp`` primes may sit in the outer level: an
  inner SPR read sees the outer prime's load at trip 0 and the previous
  trip's load after it.
* **Rerolled runs.**  Level e unrolls every layer into tiles; each
  *unit* is a compiled block that ends at its own ``lp.setupi``, plus
  that hardware loop.  A maximal run of adjacent units with one shape
  and one trip count, whose materialized constants (``li`` values, a
  ``lui``/``addi`` pair folded) advance by fixed strides, runs as one
  nest window of units x trips.  One kernel per unit shape takes the
  run's constants, strides and ``T``; every unit commits its own cells.
  A run whose stores land where it loads, as its constants place them
  (an im2col copy its own loop reads), stays per unit; a bail at run
  time falls back to the first unit's block.
* **Compiled blocks.**  Every straight-line block of at least
  ``FUSE_MIN`` instructions outside the hardware loops (a tile prologue
  up to its ``lp.setupi``) is lowered once per block *shape*
  (mnemonics, registers and costs) into generated scalar Python:
  registers live in locals, immediates are per-site constants, the
  ``[count, cycles]`` increments are baked in and a ``pl.sdotsp``
  computes its SPR stall from the ready time and the running clock.
  What a block computes from its constants alone (a ``lui``/``addi``
  pair, a pointer it sets and post-increments, an access's address
  through one) is folded once per site.  A hardware loop too short for
  a window right after a block (lee2018's 3-trip conv loops) is held
  by that block, unrolled.  A CSR reads the live counters, so it runs
  on its closure between two compiled segments; an out-of-range access
  commits everything before it and raises the interpreter's
  ``MemoryError32`` naming its pc.

Each eligible loop body is walked once into a symbolic template and the
template is lowered to straight-line Python source — one generated
function per body *shape* (mnemonics, registers, immediates, wait states
and loop kind), ``exec``-ed once and cached for the process, so the
unrolled copies of a kernel share one function.  The generated code reads
each contiguous memory span once as a ``uint32`` array (a large one, such
as a layer's weights, from a cache checked word for word), takes halfword
and byte operands as ``int16``/``int8`` views, groups isomorphic loads and
dot-product terms into one 2-D gather and one product-sum, reduces
accumulators whose only consumer is the final write to one sum, and
evaluates values that only the final write needs at the last iteration in
plain Python.

The engine is *bit-exact* and *cycle-exact* against the interpreter: all
arithmetic is carried out in ``int64`` and reduced mod 2**32 (masking is a
ring homomorphism, so sums/products commute with it), loads read the
pre-loop memory snapshot and the kernel *bails out* — committing nothing
and falling back to the closures — whenever it cannot prove the absence of
aliasing between the loop's stores and its load window, when an address
leaves memory, or when a store stride would self-overlap.  Cycles are
charged from the statically known per-instruction costs (the same rules
:mod:`repro.analysis.cycles` encodes), which the eligibility rules make
exact: a loop body is only compiled when every cost is static — in
particular every ``pl.sdotsp`` re-read is provably stall-free.

Eligibility is decided per loop at ``Cpu`` construction (cached on the
:class:`~repro.isa.program.Program`); anything unprovable in a loop —
irregular control flow, CSRs, ``ebreak``, unresolvable loop-carried
dependencies — simply keeps its interpreter closures.  See
docs/TIMING.md.
"""

from __future__ import annotations

import re
from array import array

import numpy as np

from ..analysis.cfg import build_cfg
from ..isa.instructions import SPECS, Fmt, reads_mask
from ..obs.metrics import REGISTRY
from .cpu import (
    ACC_ALU_OPS, ALU_OPS, BRANCH_OPS, DIV_CYCLES, _DIV_OPS, _M32, _PLA_FRAC,
    _PLA_N, _PLA_ONE, _PLA_SHIFT, _SIG_M, _SIG_Q, _TANH_M, _TANH_Q, _bytes4,
    _dot2h, _dot4b, _halves, _pla_scalar, _signed32,
)
from .exceptions import ExecutionLimitExceeded, MemoryError32

__all__ = ["build_turbo_code", "analyze_program"]

#: Vectorize a loop only when its trip count clears this ...
VEC_MIN_ITERS = 8
#: ... and trip count x body length clears this: below either, the
#: fixed cost of one generated-kernel window (about 15-40 us) outweighs
#: the closures it replaces (about 0.3-0.6 us per instruction).
VEC_MIN_WORK = 96
#: Largest iteration window evaluated as one numpy chunk.
N_MAX = 1 << 21
#: A compiled loop is disabled after this many runtime bails.
MAX_BAILS = 3
#: Minimum basic-block length worth a compiled block.
FUSE_MIN = 4
#: Most inner trips x outer iterations one loop-nest window evaluates
#: (its largest 2-D temporaries hold this many int64 elements).
NEST_ELEMS = 1 << 18
#: Most instructions one template walk visits, unrolled loops included.
UNROLL_STEPS = 8192
#: Most instructions a compiled block retires with the short hardware
#: loop at its end unrolled.
UNROLL_BLOCK = 512

_U64 = np.uint64
_MASK = np.uint64(0xFFFFFFFF)

#: Engine-wide compile/cache/bail event counts on the unified registry
#: (``repro.obs``).  The bail child is pre-bound: wrapper bail paths are
#: hot and must not pay the family's label lookup.
_TURBO_EVENTS = REGISTRY.counter(
    "iss_turbo_events_total",
    "Turbo-engine analysis, plan-cache, kernel-cache and runtime-bail "
    "events.",
    ("event",))
_BAILS = _TURBO_EVENTS.labels(event="bail")


class _Bail(Exception):
    """Runtime fallback: nothing has been committed, use the closures."""


class _Unsupported(Exception):
    """Build-time rejection: this loop keeps its interpreter closures."""


# ----------------------------------------------------------------------
# Vector ops without a direct int64 lowering (uint64 arrays, every result
# masked to 32 bits); generated kernels call them through uint64 views.
# ----------------------------------------------------------------------
def _vs(a):
    """Signed (int64) view of masked uint64 values."""
    a = a & _MASK
    return a.astype(np.int64) - \
        (((a >> _U64(31)) & _U64(1)).astype(np.int64) << np.int64(32))


def _vmask_i64(v):
    """int64 (possibly negative) -> masked uint64."""
    return (v & np.int64(0xFFFFFFFF)).astype(_U64)


def _vhalves(a):
    """Sign-extended int64 halves of packed uint64 words."""
    lo = (a & _U64(0xFFFF)).astype(np.int64)
    hi = ((a >> _U64(16)) & _U64(0xFFFF)).astype(np.int64)
    lo -= (lo & 0x8000) << 1
    hi -= (hi & 0x8000) << 1
    return lo, hi


def _v_pack(lo, hi):
    return (((hi & np.int64(0xFFFF)) << np.int64(16))
            | (lo & np.int64(0xFFFF))).astype(_U64)


# RISC-V M division semantics, vectorized.  Divide-by-zero is handled
# by substituting a safe divisor and patching the result with np.where
# (numpy would warn and produce 0 otherwise); both operands fit in
# int64 with room to spare, so truncating division is ``abs // abs``
# with the sign reapplied — floor and truncation agree on non-negative
# values.  The signed-overflow case (-2**31 / -1) needs no special
# path: the exact int64 quotient 2**31 masks to 0x80000000 and the
# exact remainder 0 is already correct.
def _v_div(a, b, i):
    sa, sb = _vs(a), _vs(b)
    safe = np.where(sb == 0, np.int64(1), sb)
    q = np.abs(sa) // np.abs(safe)
    q = np.where((sa < 0) != (sb < 0), -q, q)
    q = np.where(sb == 0, np.int64(-1), q)  # -1 masks to 0xFFFFFFFF
    return _vmask_i64(q)


def _v_divu(a, b, i):
    au, bu = a & _MASK, b & _MASK
    safe = np.where(bu == 0, _U64(1), bu)
    return np.where(bu == 0, _MASK, au // safe)


def _v_rem(a, b, i):
    sa, sb = _vs(a), _vs(b)
    safe = np.where(sb == 0, np.int64(1), sb)
    r = np.abs(sa) % np.abs(safe)
    r = np.where(sa < 0, -r, r)
    r = np.where(sb == 0, sa, r)  # rem by zero returns the dividend
    return _vmask_i64(r)


def _v_remu(a, b, i):
    au, bu = a & _MASK, b & _MASK
    safe = np.where(bu == 0, _U64(1), bu)
    return np.where(bu == 0, au, au % safe)


_VOPS = {
    "pv.add.h": lambda a, b, i: _v_pack(*[x + y for x, y in
                                          zip(_vhalves(a), _vhalves(b))]),
    "pv.sub.h": lambda a, b, i: _v_pack(*[x - y for x, y in
                                          zip(_vhalves(a), _vhalves(b))]),
    "pv.mul.h": lambda a, b, i: _v_pack(*[x * y for x, y in
                                          zip(_vhalves(a), _vhalves(b))]),
    "pv.sra.h": lambda a, b, i: _v_pack(*[h >> np.int64(i)
                                          for h in _vhalves(a)]),
    "pv.pack.h": lambda a, b, i: (((b & _U64(0xFFFF)) << _U64(16))
                                  | (a & _U64(0xFFFF))),
    "pv.extract.h": lambda a, b, i: _vmask_i64(_vhalves(a)[i & 1]),
    "div": _v_div,
    "divu": _v_divu,
    "rem": _v_rem,
    "remu": _v_remu,
}

#: ALU mnemonics (and accumulator pseudo-ops) lowered directly to int64
#: numpy expressions by :class:`_Lower`.
_DIRECT = frozenset({
    "addi", "slti", "sltiu", "xori", "ori", "andi", "slli", "srli", "srai",
    "add", "sub", "sll", "slt", "sltu", "xor", "srl", "sra", "or", "and",
    "mul", "macterm", "dot2h", "dot4b", "p.abs", "p.min", "p.max", "p.minu",
    "p.maxu", "p.clip", "p.exths",
})

#: Scalar semantics for the pseudo-mnemonics above (real mnemonics reuse
#: :data:`repro.core.cpu.ALU_OPS` so scalar paths are the interpreter's).
_SCALAR_EXTRA = {
    "macterm": lambda a, b, i: (_signed32(a) * _signed32(b)) & _M32,
    "dot2h": lambda a, b, i: _dot2h(a, b) & _M32,
    "dot4b": lambda a, b, i: _dot4b(a, b) & _M32,
}

_TANH_M_V = np.array(_TANH_M, dtype=np.int64)
_TANH_Q_V = np.array(_TANH_Q, dtype=np.int64)
_SIG_M_V = np.array(_SIG_M, dtype=np.int64)
_SIG_Q_V = np.array(_SIG_Q, dtype=np.int64)


# ----------------------------------------------------------------------
# Symbolic nodes (hashable tuples; equal tuples share evaluation)
#
#   ("const", c)                — the constant c (masked)
#   ("regin", r)                — value of reg r at iteration start
#   ("slotin", addr)            — carried value of memory word `addr`
#   ("sum", root, terms, c)     — root + sum(terms) + c (root may be None)
#   ("alu", m, a, b, imm)       — ALU op m (see _DIRECT and _VOPS)
#   ("load", addr, size, sgn)   — memory gather from the loop-entry snapshot
#   ("pla", x, is_sig)          — pl.tanh / pl.sig
#   ("sprin", k, o)             — SPR k value consumed by its o-th reader
# ----------------------------------------------------------------------
_CONST0 = ("const", 0)


def _mk_addc(x, c):
    """x + const (folding; keeps sum roots intact for induction)."""
    if x[0] == "const":
        return ("const", (x[1] + c) & _M32)
    if x[0] == "sum":
        return ("sum", x[1], x[2], x[3] + c)
    if x[0] in ("regin", "slotin"):
        return ("sum", x, (), c)
    return ("sum", None, (x,), c)


def _mk_acc(x, term):
    """x + term (appends an accumulation term, keeping the root)."""
    if x[0] == "sum":
        return ("sum", x[1], x[2] + (term,), x[3])
    if x[0] == "const":
        return ("sum", None, (term,), x[1])
    if x[0] in ("regin", "slotin"):
        return ("sum", x, (term,), 0)
    return ("sum", None, (x, term), 0)


def _decompose(n):
    if n[0] == "sum":
        return n[1], list(n[2]), n[3]
    if n[0] == "const":
        return None, [], n[1]
    if n[0] in ("regin", "slotin"):
        return n, [], 0
    return None, [n], 0


def _subst(node, old, new, memo):
    """Replace ``old`` with ``new`` throughout a node tree.

    When a ``sum`` had the replaced node among its terms and no root,
    ``new`` (a placeholder) is promoted to the root slot so the carried
    value classes (aff/acc) recognise the accumulation pattern."""
    if node == old:
        return new
    if not isinstance(node, tuple):
        return node
    hit = memo.get(node)
    if hit is not None:
        return hit
    k = node[0]
    if k in ("const", "regin", "sprin"):
        out = node
    elif k == "slotin":
        key = node[1]
        out = node if not isinstance(key, tuple) \
            else ("slotin", _subst(key, old, new, memo))
    elif k == "sum":
        root = node[1]
        nroot = None if root is None else _subst(root, old, new, memo)
        nterms = tuple(_subst(t, old, new, memo) for t in node[2])
        if nroot is None and new in nterms:
            i = nterms.index(new)
            nterms = nterms[:i] + nterms[i + 1:]
            nroot = new
        out = ("sum", nroot, nterms, node[3])
    elif k == "alu":
        out = ("alu", node[1], _subst(node[2], old, new, memo),
               _subst(node[3], old, new, memo), node[4])
    elif k == "load":
        out = ("load", _subst(node[1], old, new, memo), node[2], node[3])
    elif k == "pla":
        out = ("pla", _subst(node[1], old, new, memo), node[2])
    elif k == "j2":
        out = ("j2", _subst(node[1], old, new, memo), node[2])
    elif k in ("isum", "jlast"):
        out = (k, _subst(node[1], old, new, memo))
    elif k == "jprev":
        out = (k, _subst(node[1], old, new, memo),
               _subst(node[2], old, new, memo))
    else:
        out = node
    memo[node] = out
    return out


def _mk_add2(x, y):
    """x + y; merges into one sum when at most one side has a root."""
    xr = x[1] if x[0] == "sum" else (x if x[0] in ("regin", "slotin")
                                     else None)
    yr = y[1] if y[0] == "sum" else (y if y[0] in ("regin", "slotin")
                                     else None)
    if xr is not None and yr is not None:
        return ("alu", "add", x, y, 0)
    if xr is None and yr is not None:
        x, y = y, x
    r1, t1, c1 = _decompose(x)
    r2, t2, c2 = _decompose(y)
    terms = tuple(t1 + t2)
    c = c1 + c2
    if r1 is None and not terms:
        return ("const", c & _M32)
    return ("sum", r1, terms, c)


def _inner_loops(program, lo, hi):
    """``{head: end}`` of the back-branch loops inside ``lo..hi``; they
    must nest properly, one loop per head."""
    loops = {}
    for i in range(lo, hi + 1):
        instr = program[i]
        if not instr.spec.is_branch:
            continue
        h = (instr.addr + instr.imm) // 4
        if lo <= h < i:
            if h in loops:
                raise _Unsupported("two loops share a head")
            loops[h] = i
    spans = sorted(loops.items())
    for a, (h1, e1) in enumerate(spans):
        for h2, e2 in spans[a + 1:]:
            if h2 <= e1 < e2:
                raise _Unsupported("overlapping loops")
    return loops


def _wrap_guard(m, root, terms, consts):
    """``(x, signed, lo, hi)`` with ``x = root + terms``: while the
    canonical value of ``x`` stays in ``[lo, hi]``, no ``x + c`` (``c`` in
    ``consts``) wraps in compare ``m``'s domain, so ``m`` orders them as
    it orders the constants.  None when every value wraps."""
    signed = m in ("blt", "bge")
    top, bot = ((1 << 31) - 1, -(1 << 31)) if signed else (_M32, 0)
    lo, hi = bot - min(consts), top - max(consts)
    if lo > hi:
        return None
    x = root if not terms else terms[0] if root is None and \
        len(terms) == 1 else ("sum", root, tuple(terms), 0)
    return x, signed, lo, hi


def _branch_guard(m, a, b):
    """Static outcome of branch ``m`` on nodes ``a``/``b``: ``(taken,
    guard)``, ``guard`` None or a :func:`_wrap_guard` the outcome needs;
    None when the outcome depends on runtime values."""
    ra, ta, ca = _decompose(a)
    rb, tb, cb = _decompose(b)
    if ra != rb or ta != tb:
        return None
    if ra is None and not ta:
        return bool(BRANCH_OPS[m](ca & _M32, cb & _M32)), None
    if m in ("beq", "bne"):
        return ((ca - cb) % (1 << 32) == 0) == (m == "beq"), None
    guard = _wrap_guard(m, ra, ta, (ca, cb))
    if guard is None:
        return None
    return (ca < cb if m in ("blt", "bltu") else ca >= cb), guard


def _sum_of(parts, c):
    """The sum of ``parts`` plus the constant ``c``."""
    out = _CONST0
    for x in parts:
        out = _mk_add2(out, x)
    return _mk_addc(out, c)


def _invariant(node, res):
    """Does ``node`` keep its value across the loop's iterations?"""
    ph = set()
    _collect_placeholders(node, ph)
    return all(p[0] != "sprin" and res.get(p, ("inv",))[0] == "inv"
               for p in ph)


def _branch_trips(m, x0, s, y, swapped):
    """Walk-time trip count of a branch loop whose exit test compares the
    induction ``x0 + s*j`` with ``y``: ``(T, guard)`` as in
    :func:`_branch_guard`, or None when the count depends on runtime
    values."""
    rx, tx, cx = _decompose(x0)
    ry, ty, cy = _decompose(y)
    if rx != ry or tx != ty:
        return None
    if (rx is None and not tx) or m in ("beq", "bne"):
        k = _exit(m, cx & _M32, s, cy & _M32, NEST_ELEMS, swapped)
        guard = None
    else:
        k = _leading(m, cx, s, cy, swapped)
        if k is None:
            raise _Unsupported("inner loop never exits")
        guard = _wrap_guard(m, rx, tx, (cx, cx + s * k, cy))
        if guard is None:
            raise _Unsupported("inner exit always wraps")
    if k >= NEST_ELEMS:
        raise _Unsupported("inner loop too long")
    return k + 1, guard


class _Walk:
    """One symbolic pass over a loop body.

    Registers start as ``("regin", r)`` placeholders; the finalize step
    classifies each placeholder from the body's *final* expression for
    that register (invariant / affine induction / additive accumulator /
    one-iteration-delayed "shift" carry) and rejects anything else.

    The body may hold branch loops of its own.  One whose exit the walk
    can decide at every iteration (a constant counter, or an induction
    against a bound a constant away) and that stays below the vector
    thresholds is unrolled, each decision guarded by a range check the
    kernel repeats over the window.  With ``nest`` set, one other inner
    loop may remain: it becomes the inner level of a loop nest
    (:meth:`_nest`).
    """

    def __init__(self, program, bs, stop, wait, nest=False, budget=None,
                 sites=None):
        self.program = program
        self.wait = wait
        self.nest_ok = nest
        self.budget = budget if budget is not None else [UNROLL_STEPS]
        # A rerolled run's unit: {index: site} of its materialized
        # constants (-1 for the ``addi`` that completes a ``lui``).
        self.sites = sites
        self.sym = {0: _CONST0}
        # Slot key: a const byte address (int) or a loop-invariant
        # address node (tuple) -> last stored node for that memory cell.
        self.slotsym = {}
        self.slot_loaded = set()   # slot keys read as carried cells
        self.load_nodes = {}       # addr node -> word load node (promo)
        self.load_pos = {}         # load node -> last body position
        self.stores = []           # (addr_node, value_node, size, pos)
        self.spr = {0: [], 1: []}  # SPR k -> ordered load nodes
        self.spr_pos = {0: [], 1: []}
        self.spr_ins = {0: [], 1: []}  # the instruction of each access
        self.costs = []            # static cost per body position
        # (static index, count, count per inner trip, cycles, cycles
        # per inner trip) of every executed instruction
        self.steps = []
        self.guards = []           # (node, signed, lo, hi) range checks
        self.nest = None
        self.nest_pos = None       # the inner loop's step position
        self.hw_loop = None        # a hardware inner loop's setup
        self.nest_cycles = None    # its static cycles, when T is known
        # SPR k -> (first, last access position in the inner body, its
        # length, cost before the first access, cost from the last on)
        self.inner_spr = {}
        self.depth = 0
        self.loops = _inner_loops(program, bs, stop)
        self._range(bs, stop, None)
        self._check_spr_gaps()

    def _reg(self, r):
        if r not in self.sym:
            self.sym[r] = ("regin", r)
        return self.sym[r]

    def _setreg(self, r, node):
        if r:
            self.sym[r] = node

    def _tick(self, i, cost):
        self.budget[0] -= 1
        if self.budget[0] < 0:
            raise _Unsupported("unrolled body too long")
        self.costs.append(cost)
        self.steps.append((i, 1, 0, cost, 0))

    def _cost(self, i, base=1):
        """Static closure cost of instruction ``i`` (load-use stall rule
        identical to ``Cpu._compile_load``)."""
        instr = self.program[i]
        spec = instr.spec
        if spec.is_load:
            stall = 0
            if instr.rd and i + 1 < len(self.program):
                if (reads_mask(self.program[i + 1]) >> instr.rd) & 1:
                    stall = 1
            return 1 + stall + self.wait
        if spec.is_store:
            return 1 + self.wait
        return base

    # ------------------------------------------------- control flow
    def _range(self, lo, hi, entered):
        i = lo
        while i <= hi:
            end = self.loops.get(i)
            instr = self.program[i]
            if end is not None and i != entered:
                self._loop(i, end)
                i = end + 1
            elif instr.mnemonic == "lp.setupi" and self.nest_ok:
                # A hardware loop: the nest's inner level, its trip count
                # the setup's (a run's argument ``T`` in a unit walk).
                end = (instr.addr + instr.imm2) // 4
                if end > hi or self.depth:
                    raise _Unsupported("hardware loop leaves the body")
                self._tick(i, 1)
                self.hw_loop = (instr.loop, i + 1, end, instr.imm)
                self._nest(i + 1, end, hw=None if self.sites is not None
                           else max(instr.imm, 1))
                i = end + 1
            else:
                self._step(len(self.costs), i)
                i += 1

    _STATE = ("sym", "slotsym", "slot_loaded", "load_nodes", "load_pos",
              "stores", "spr", "spr_pos", "spr_ins", "costs", "steps",
              "guards")

    def _save(self):
        out = {k: getattr(self, k).copy() for k in self._STATE}
        for k in ("spr", "spr_pos", "spr_ins"):
            out[k] = {key: v.copy() for key, v in out[k].items()}
        return out

    def _loop(self, h, e):
        """Unroll the inner loop ``h..e`` or make it the nest's inner
        level."""
        instr = self.program[e]
        saved = self._save()
        first = len(self.steps)
        self.depth += 1
        try:
            trips = 0
            while True:
                self._range(h, e - 1, h)
                out = _branch_guard(instr.mnemonic, self._reg(instr.rs1),
                                    self._reg(instr.rs2))
                if out is None:
                    break
                taken, guard = out
                if guard is not None:
                    self.guards.append(guard)
                self._tick(e, 2 if taken else 1)
                trips += 1
                if trips >= VEC_MIN_ITERS and \
                        len(self.steps) - first >= VEC_MIN_WORK:
                    break  # long enough for a window of its own
                if not taken:
                    return
        except _Unsupported:
            if self.budget[0] < 0:
                raise
        finally:
            self.depth -= 1
        for k, v in saved.items():
            setattr(self, k, v)
        self._nest(h, e)

    # --------------------------------------------------------- nest
    def _cell(self, key):
        """The node holding memory cell ``key`` (a slot of this walk)."""
        if key in self.slotsym:
            return self.slotsym[key]
        for k in range(len(self.stores) - 1, -1, -1):
            a, v, size, _pos = self.stores[k]
            if a == key and size == 4:
                del self.stores[k]
                self.slotsym[key] = v
                return v
        self.slotsym[key] = ("slotin", key)
        self.slot_loaded.add(key)
        return self.slotsym[key]

    def _nest(self, h, e, hw=False):
        """Fold the inner loop ``h..e`` into this walk as one step of
        ``T`` inner trips (``T`` the same for every outer iteration).

        The inner loop is a branch loop, or with ``hw`` set the body of a
        hardware loop: ``hw`` is then its trip count, or None for a unit
        walk's runtime ``T``.  The inner loop's placeholders are replaced
        by this walk's current nodes; an affine one becomes ``("j2",
        entry, stride)`` (its value at inner trip ``j``), so the inner
        loads become 2-D, and each carried value leaves the loop as its
        exit value: ``entry + T*stride``, ``entry + sum over j of the
        terms``, or the body's value at ``j = T-1``.  An SPR read at the
        top of the inner body sees, at trip 0, the value this walk loaded
        last (``("jprev", value, stream)``)."""
        if not self.nest_ok or self.depth or self.nest is not None:
            raise _Unsupported("more than one inner loop, or deeper")
        ti = _try_loop_template(self.program, self.wait, h, e,
                                cond_term=None if hw is not False else e,
                                budget=self.budget)
        res = ti["res"]
        entries = {}
        spr_in = {k: ("sprin", k, len(self.spr[k])) for k in (0, 1)}

        def outer_key(key):
            if not isinstance(key, tuple):
                return key
            key = sub(key)
            if key[0] != "const":
                return key
            if key[1] % 4:
                raise _Unsupported("unaligned carried cell")
            return key[1]

        def entry(p):
            if p not in entries:
                entries[p] = self._reg(p[1]) if p[0] == "regin" \
                    else self._cell(outer_key(p[1]))
            return entries[p]

        memo = {}

        def sub(n):
            """Inner node -> node over this walk (2-D where it varies with
            the inner trip)."""
            if n[0] == "const":
                return n
            hit = memo.get(n)
            if hit is not None:
                return hit
            k = n[0]
            if k in ("regin", "slotin"):
                spec = res.get(n, ("inv",))
                if spec[0] == "inv":
                    out = entry(n)
                elif spec[0] == "aff":
                    out = ("j2", entry(n), _sext(spec[1]))
                else:
                    raise _Unsupported("inner carried value read in loop")
            elif k == "sum":
                out = _sum_of([sub(x) for x in _addends(n)], n[3])
            elif k == "alu":
                out = ("alu", n[1], sub(n[2]), sub(n[3]), n[4])
            elif k == "load":
                out = ("load", sub(n[1]), n[2], n[3])
            elif k == "pla":
                out = ("pla", sub(n[1]), n[2])
            elif k == "sprin":
                occ = ti["spr"][n[1]]
                out = sub(occ[n[2] - 1]) if n[2] else \
                    ("jprev", spr_in[n[1]], sub(occ[-1]))
            else:
                raise _Unsupported(k)
            memo[n] = out
            return out

        if hw is not False:
            self.nest = {"T": hw, "hw": True}
            self._fold(ti, sub, entry, outer_key, hw, None)
            return
        # The trip count: the exit test compares an affine induction
        # with an invariant.
        m, a, b = ti["cond"]
        swapped = _aff_stride(a, res) is None
        ind, bound = (b, a) if swapped else (a, b)
        s = _aff_stride(ind, res)
        if s is None or not _invariant(bound, res):
            raise _Unsupported("inner exit not closed-form")
        root = ind if ind[0] != "sum" else ind[1]
        x0 = _mk_addc(entry(root), ind[3] if ind[0] == "sum" else 0)
        y = sub(bound)
        nest = {"m": m, "s": s, "swapped": swapped, "x0": x0, "y": y,
                "T": None}
        out = _branch_trips(m, x0, s, y, swapped)
        if out is not None:
            nest["T"], guard = out
            if guard is not None:
                self.guards.append(guard)
        self.nest = nest
        self._fold(ti, sub, entry, outer_key, nest["T"], e)

    def _fold(self, ti, sub, entry, outer_key, T, closing):
        """Bind the inner template ``ti`` (its nodes mapped by ``sub``)
        as one step of this walk; ``closing`` is the inner branch loop's
        closing branch, None for a hardware loop."""
        res = ti["res"]

        def tmul(c):
            if T is not None:
                return ("const", (c * T) & _M32)
            return ("alu", "mul", ("trip",), ("const", c & _M32), 0)

        def last(n):
            """Inner node at its last trip (``j = T-1``)."""
            if n[0] == "const":
                return n
            k = n[0]
            if k in ("regin", "slotin"):
                spec = res.get(n, ("inv",))
                if spec[0] == "inv":
                    return entry(n)
                if spec[0] == "aff":
                    c = _sext(spec[1])
                    return _mk_addc(_mk_add2(entry(n), tmul(c)), -c)
                raise _Unsupported("inner carried value read in loop")
            if k == "sum":
                p = n[1]
                spec = res.get(p) if p is not None else None
                if spec is not None and spec[0] == "acc" and \
                        n == ("sum", p) + spec[1:]:
                    # The accumulator after its last trip.
                    total = _sum_of([sub(x) for x in spec[1]], 0)
                    return _mk_add2(_mk_add2(entry(p), ("isum", total)),
                                    tmul(_sext(spec[2])))
                return _sum_of([last(x) for x in _addends(n)], n[3])
            if k == "alu":
                return ("alu", n[1], last(n[2]), last(n[3]), n[4])
            if k == "load":
                return ("load", last(n[1]), n[2], n[3])
            if k == "pla":
                return ("pla", last(n[1]), n[2])
            if k == "sprin" and n[2]:
                return last(ti["spr"][n[1]][n[2] - 1])
            raise _Unsupported(k)

        pos = len(self.costs)
        for node in ti["load_pos"]:
            self.load_pos[sub(node)] = pos
        for addr, value, size, _pos in ti["stores"]:
            self.stores.append((sub(addr), sub(value), size, pos))
        for x, signed, lo, hi in ti["guards"]:
            self.guards.append((sub(x), signed, lo, hi))
        exits = [(r, last(n)) for r, n in ti["writes"]]
        slots = []
        for key, n in ti["slots"]:
            entry(("slotin", key))
            slots.append((outer_key(key), last(n)))
        for r, node in exits:
            self._setreg(r, node)
        for key, node in slots:
            self.slotsym[key] = node
        # The SPR streams run on: the inner loop's last load of each is
        # this walk's latest, read at the last trip.
        self.inner_spr = {}
        for k, occ in ti["spr"].items():
            if occ:
                self.spr[k].append(("jlast", sub(occ[-1])))
                self.spr_pos[k].append(pos)
                self.spr_ins[k].append(ti["spr_ins"][k][0])
                ps = ti["spr_pos"][k]
                self.inner_spr[k] = (ps[0], ps[-1], len(ti["costs"]),
                                     sum(ti["costs"][:ps[0]]),
                                     ti["spr_tail"][k])
        self.nest_pos = pos
        self.nest_cycles = None if T is None else T * sum(ti["costs"])
        # Costs: the body runs T times; a closing branch is taken T-1
        # times (2 cycles) and falls through once.
        self.costs.append(0)
        steps = ti["steps"] if closing is None else ti["steps"][:-1]
        for i, kc, _kt, cc, _ct in steps:
            self.steps.append((i, 0, kc, 0, cc) if T is None
                              else (i, kc * T, 0, cc * T, 0))
        if closing is not None:
            self.steps.append((closing, 0, 1, -1, 2) if T is None
                              else (closing, T, 0, 2 * T - 1, 0))
            self.nest_cycles = None if T is None else \
                self.nest_cycles + T - 1

    # ------------------------------------------------------------ step
    def _step(self, pos, i):
        instr = self.program[i]
        spec = instr.spec
        m = instr.mnemonic
        rd, rs1, rs2, imm = instr.rd, instr.rs1, instr.rs2, instr.imm
        site = None if self.sites is None else self.sites.get(i)
        if site is not None:
            # A unit's materialized constant: the run passes its value.
            if site >= 0:
                self._setreg(rd, ("site", site))
            self._tick(i, 1)
            return

        if m == "jal" and (instr.addr + imm) // 4 == i + 1:
            # Fall-through jump (codegen filler): pure 2-cycle timing
            # no-op inside an otherwise straight-line body.
            self._setreg(rd, ("const", (instr.addr + 4) & _M32))
            self._tick(i, 2)
            return

        if m in ("mulh", "mulhu", "mulhsu") or \
                spec.fmt == Fmt.CSR or spec.is_jump or spec.is_branch or \
                m in ("ebreak", "fence", "ecall", "lp.setup", "lp.setupi"):
            raise _Unsupported(m)

        if m == "lui":
            self._setreg(rd, ("const", (imm << 12) & _M32))
        elif m == "auipc":
            self._setreg(rd, ("const", (instr.addr + (imm << 12)) & _M32))
        elif m == "addi":
            self._setreg(rd, _mk_addc(self._reg(rs1), imm))
        elif m == "add":
            self._setreg(rd, _mk_add2(self._reg(rs1), self._reg(rs2)))
        elif m == "p.mac":
            term = ("alu", "macterm", self._reg(rs1), self._reg(rs2), 0)
            self._setreg(rd, _mk_acc(self._reg(rd), term))
        elif m in ("pv.sdotsp.h", "pv.sdotsp.b"):
            op = "dot2h" if m.endswith(".h") else "dot4b"
            term = ("alu", op, self._reg(rs1), self._reg(rs2), 0)
            self._setreg(rd, _mk_acc(self._reg(rd), term))
        elif m in ("pl.tanh", "pl.sig"):
            self._setreg(rd, ("pla", self._reg(rs1), m == "pl.sig"))
        elif m.startswith("pl.sdotsp."):
            self._pl_sdotsp(pos, instr)
            self.spr_ins[int(m[-1])].append(i)
            self._tick(i, 1 + self.wait)
            return
        elif spec.is_load:
            self._load(instr, pos)
        elif spec.is_store:
            self._store(instr, pos)
        elif m in _DIRECT or m in _VOPS:
            self._setreg(rd, ("alu", m, self._reg(rs1), self._reg(rs2),
                              imm))
        else:
            raise _Unsupported(m)
        self._tick(i, self._cost(i, DIV_CYCLES if m in _DIV_OPS else 1))

    def _load(self, instr, pos):
        spec = instr.spec
        if spec.postinc:
            if not instr.rs1:
                raise _Unsupported("postinc x0 base")
            addr = self._reg(instr.rs1)
        else:
            addr = _mk_addc(self._reg(instr.rs1), instr.imm)
        if spec.size == 4 and addr[0] == "const" and addr[1] % 4 == 0:
            key = addr[1]
        elif spec.size == 4 and (addr in self.slotsym or any(
                a == addr and z == 4 for a, _v, z, _p in self.stores)):
            # A node-keyed slot established by an earlier store: the
            # load reads what this iteration stored (the address must
            # prove loop-invariant).
            key = addr
        else:
            key = None
        if key is not None:
            value = self._cell(key)
            self.slot_loaded.add(key)
        else:
            value = ("load", addr, spec.size, spec.signed)
            self.load_pos[value] = pos
            if spec.size == 4:
                self.load_nodes.setdefault(addr, value)
        # An x0 destination discards the value, but the access (and its
        # out-of-range behaviour) still happens: every load is checked.
        self._setreg(instr.rd, value)
        if spec.postinc:
            self.sym[instr.rs1] = _mk_addc(addr, instr.imm)

    def _store(self, instr, pos):
        spec = instr.spec
        if spec.postinc:
            if not instr.rs1:
                raise _Unsupported("postinc x0 base")
            addr = self._reg(instr.rs1)
        else:
            addr = _mk_addc(self._reg(instr.rs1), instr.imm)
        value = self._reg(instr.rs2)
        if spec.size == 4 and addr[0] == "const" and addr[1] % 4 == 0:
            self.slotsym[addr[1]] = value
        elif spec.size == 4 and addr in self.slotsym:
            self.slotsym[addr] = value
        elif spec.size == 4 and addr in self.load_nodes:
            # The iteration loads and stores the same word address: a
            # memory-carried cell (e.g. the level-a accumulator).
            # Promote the load to a slot so the carried-value classes
            # apply; the address must later prove loop-invariant.
            old = self.load_nodes.pop(addr)
            self._substitute(old, ("slotin", addr))
            self.slotsym[addr] = self._reg(instr.rs2)
            self.slot_loaded.add(addr)
        else:
            self.stores.append((addr, value, spec.size, pos))
        if spec.postinc:
            self.sym[instr.rs1] = _mk_addc(addr, instr.imm)

    def _substitute(self, old, new):
        """Rewrite all walked symbolic state, replacing ``old``."""
        memo = {}

        def sub(n):
            return _subst(n, old, new, memo)

        def subkey(k):
            return sub(k) if isinstance(k, tuple) else k

        self.sym = {r: sub(v) for r, v in self.sym.items()}
        self.slotsym = {subkey(k): sub(v)
                        for k, v in self.slotsym.items()}
        self.slot_loaded = {subkey(k) for k in self.slot_loaded}
        self.load_nodes = {sub(k): sub(v)
                           for k, v in self.load_nodes.items()}
        self.load_pos = {sub(k): v for k, v in self.load_pos.items()
                         if sub(k)[0] == "load"}
        self.stores = [(sub(a), sub(v), s, p)
                       for a, v, s, p in self.stores]
        self.spr = {k: [sub(n) for n in v] for k, v in self.spr.items()}

    def _pl_sdotsp(self, pos, instr):
        if not instr.rs1:
            raise _Unsupported("pl.sdotsp x0 base")
        k = int(instr.mnemonic[-1])
        op = "dot4b" if ".b." in instr.mnemonic else "dot2h"
        o = len(self.spr[k])
        term = ("alu", op, ("sprin", k, o), self._reg(instr.rs2), 0)
        # Closure order: rd is written *before* the address is read, so
        # rd == rs1 reads the just-accumulated value.
        self._setreg(instr.rd, _mk_acc(self._reg(instr.rd), term))
        addr = self._reg(instr.rs1)
        node = ("load", addr, 4, False)
        self.spr[k].append(node)
        self.load_pos[node] = pos
        self.spr_pos[k].append(pos)
        self.sym[instr.rs1] = _mk_addc(addr, 4)

    def _check_spr_gaps(self):
        """Every same-index SPR re-read must be >= 1 instruction away
        (cyclically): then it is provably stall-free, so the static
        1+wait cost is exact for all vectorized iterations.

        An inner loop counts as one trip here: its own walk checked the
        gaps between its trips, so only its first and last access meet
        this walk's."""
        P = self.nest_pos
        inner = self.inner_spr
        L = next(iter(inner.values()))[2] if inner else 1
        blen = len(self.costs) - 1 + L if P is not None else len(self.costs)
        for k, ps in self.spr_pos.items():
            if not ps:
                continue
            at = []  # (first, last) coordinate of each access
            for p in ps:
                if p == P:
                    first, last = inner[k][:2]
                    at.append((P + first, P + last))
                else:
                    c = p + L - 1 if P is not None and p > P else p
                    at.append((c, c))
            gaps = [at[j + 1][0] - at[j][1] - 1 for j in range(len(at) - 1)]
            # across the back edge
            gaps.append(blen - at[-1][1] + at[0][0] - 1)
            if min(gaps) < 1:
                raise _Unsupported(f"SPR {k} re-read gap < 1")


# ----------------------------------------------------------------------
# Template finalization: classify loop-carried placeholders
# ----------------------------------------------------------------------
def _collect_placeholders(node, out):
    k = node[0]
    if k in ("regin", "slotin", "sprin"):
        out.add(node)
    elif k == "sum":
        if node[1] is not None:
            out.add(node[1])
        for t in node[2]:
            _collect_placeholders(t, out)
    elif k == "alu":
        _collect_placeholders(node[2], out)
        _collect_placeholders(node[3], out)
    elif k in ("load", "pla", "j2", "isum", "jlast"):
        _collect_placeholders(node[1], out)
    elif k == "jprev":
        _collect_placeholders(node[1], out)
        _collect_placeholders(node[2], out)


def _finalize(walk, extra_roots=()):
    """Resolve every ``regin``/``slotin`` placeholder reachable from the
    template's outputs, rejecting unresolvable carried dependencies."""
    res = {}
    busy = set()

    def classify(n):
        if n in res:
            return
        if n in busy:
            raise _Unsupported("cyclic loop-carried dependency")
        busy.add(n)
        if n[0] == "regin":
            fin = walk.sym.get(n[1], n)
        else:
            fin = walk.slotsym.get(n[1], n)
        if fin == n:
            res[n] = ("inv",)
        elif fin[0] == "sum" and fin[1] == n:
            for t in fin[2]:
                scan(t)
            if fin[2]:
                res[n] = ("acc", fin[2], fin[3])
            else:
                res[n] = ("aff", fin[3])
        else:
            scan(fin)
            res[n] = ("shift", fin)
        busy.discard(n)

    def scan(node):
        k = node[0]
        if k in ("regin", "slotin"):
            classify(node)
        elif k == "sum":
            if node[1] is not None:
                classify(node[1])
            for t in node[2]:
                scan(t)
        elif k == "alu":
            scan(node[2])
            scan(node[3])
        elif k in ("load", "pla", "j2", "isum", "jlast"):
            scan(node[1])
        elif k == "jprev":
            scan(node[1])
            scan(node[2])

    writes = [(r, node) for r, node in walk.sym.items()
              if r and node != ("regin", r)]
    slots = [(a, node) for a, node in walk.slotsym.items()
             if node != ("slotin", a)]
    for _, node in writes:
        scan(node)
    for _, node in slots:
        scan(node)
    for addr, value, _size, _pos in walk.stores:
        scan(addr)
        scan(value)
    for occ in walk.spr.values():
        for node in occ:
            scan(node)
    for node in extra_roots:
        scan(node)
    for key in walk.slotsym:
        if isinstance(key, tuple):
            scan(key)
            ph = set()
            _collect_placeholders(key, ph)
            for p in ph:
                if p[0] == "sprin" or res.get(p, ("x",))[0] != "inv":
                    raise _Unsupported("slot address not loop-invariant")
    return res, writes, slots


def _aff_stride(anode, res):
    """Per-iteration stride of an address that is an affine induction
    (``root`` or ``root + c`` with an ``aff`` root), else None."""
    if anode[0] in ("regin", "slotin"):
        root = anode
    elif anode[0] == "sum" and anode[1] is not None and not anode[2]:
        root = anode[1]
    else:
        return None
    spec = res[root]
    return _sext(spec[1]) if spec[0] == "aff" else None


def _aff2(addr):
    """``(base, stride)`` when a nest's inner address is ``base +
    stride*j`` (``base`` an outer-loop node), else None."""
    if addr[0] == "j2":
        return addr[1], addr[2]
    if addr[0] == "sum" and addr[1] is None and len(addr[2]) == 1 and \
            addr[2][0][0] == "j2":
        return _mk_addc(addr[2][0][1], addr[3]), addr[2][0][2]
    return None


def _sext(c):
    """Signed 32-bit value of ``c`` (mod 2**32)."""
    return _signed32(c & _M32)


def _addends(node):
    """Root (if any) and terms of a ``sum`` node."""
    return ([node[1]] if node[1] is not None else []) + list(node[2])


# ----------------------------------------------------------------------
# Runtime helpers called by the generated kernels
# ----------------------------------------------------------------------
_J = np.arange(1 << 16, dtype=np.int64)
#: Element dtype of a memory access by (size, signed).
_ELEM = {(4, False): np.uint32, (4, True): np.uint32,
         (2, True): np.int16, (2, False): np.uint16,
         (1, True): np.int8, (1, False): np.uint8}
_LOG2 = {4: 2, 2: 1, 1: 0}
#: ``array`` typecode of a C uint32.
_WORD = "I" if array("I").itemsize == 4 else "L"
#: A load group is read as one memory span while the span is at most
#: this many times the bytes its members touch (plus a page of slack).
_DENSE = 2
#: Spans of at least this many words are cached (:func:`_span`) ...
_SPAN_MIN = 256
#: ... up to this many words in all (12 bytes each: the cached words'
#: references and their uint32 copy), after which the cache starts over.
_SPAN_WORDS = 3 << 19
#: (word list id, first word, last word) -> (the words, their array).
_SPANS = {}
_SPANS_HELD = [0]


def _iota(n):
    """``arange(n)`` as int64 (a view for the common short windows)."""
    return _J[:n] if n <= len(_J) else np.arange(n, dtype=np.int64)


def _ld(mem, a, size, signed):
    """Scalar load of ``size`` bytes at byte address ``a`` (in range)."""
    word = mem[a >> 2]
    if size == 4:
        return word
    if size == 2:
        v = (word >> ((a & 2) << 3)) & 0xFFFF
        if signed and v & 0x8000:
            v |= 0xFFFF0000
        return v
    v = (word >> ((a & 3) << 3)) & 0xFF
    if signed and v & 0x80:
        v |= 0xFFFFFF00
    return v


def _words(mem, wlo, whi):
    """Memory words [wlo, whi] as a writable uint32 array (through
    ``array.array``: about twice as fast as ``np.array`` on a list)."""
    return np.frombuffer(array(_WORD, mem[wlo:whi + 1]), dtype=np.uint32)


def _span(mem, lo, hi, dtype):
    """Memory bytes [lo, hi], read once as uint32 words, as read-only
    ``dtype`` elements (element i holds the bytes at ``(lo & ~3) + i *
    size``).

    A span of at least ``_SPAN_MIN`` words (a layer's weights, read
    again at every inference) is cached by word list and range.  A hit
    is checked by comparing the span's words with the cached ones, which
    costs a seventh of converting them (the word objects are mostly the
    very ones cached), so a rewritten word or a reused list id only costs
    a conversion."""
    wlo, whi = lo >> 2, hi >> 2
    if whi - wlo < _SPAN_MIN:
        return _words(mem, wlo, whi).view(dtype)
    key = (id(mem), wlo, whi)
    words = mem[wlo:whi + 1]
    hit = _SPANS.get(key)
    if hit is not None and hit[0] == words:
        return hit[1].view(dtype)
    out = np.frombuffer(array(_WORD, words), dtype=np.uint32)
    out.flags.writeable = False
    if hit is None:
        _SPANS_HELD[0] += len(words)
        if _SPANS_HELD[0] > _SPAN_WORDS:
            _SPANS.clear()
            _SPANS_HELD[0] = len(words)
    _SPANS[key] = (words, out)
    return out.view(dtype)


def _bounds(bases, stride, n, mlen):
    """Byte range of the accesses ``base + stride*j`` (j < n) over all
    bases; bails when an address wraps or leaves memory."""
    lo, hi = min(bases), max(bases)
    if stride > 0:
        hi += stride * (n - 1)
    else:
        lo += stride * (n - 1)
    if lo < 0 or hi >> 2 >= mlen:
        raise _Bail
    return lo, hi


def _gather(mem, lo, hi, bases, stride, n, size, dtype):
    """``(len(bases), n)`` matrix of the elements at ``base + stride*j``:
    one memory span when the bases are close together, else one per
    base."""
    if hi - lo > _DENSE * len(bases) * (abs(stride) * n + 4) + 4096:
        return np.stack([_row(mem, b, stride, n, size, dtype)
                         for b in bases])
    sh = _LOG2[size]
    view = _span(mem, lo, hi, dtype)
    first = np.array(bases, dtype=np.int64)
    off = (lo >> 2) << (2 - sh)
    if stride % size == 0:
        idx = ((first >> sh) - off)[:, None] + (stride >> sh) * _iota(n)
    else:
        idx = ((first[:, None] + stride * _iota(n)) >> sh) - off
    return view[idx]


def _row(mem, base, stride, n, size, dtype):
    """The n elements at ``base + stride*j`` from their own span."""
    end = base + stride * (n - 1)
    lo = min(base, end)
    view = _span(mem, lo, max(base, end), dtype)
    sh = _LOG2[size]
    off = (lo >> 2) << (2 - sh)
    if stride > 0 and stride % size == 0:
        first, step = (base >> sh) - off, stride >> sh
        return view[first:first + step * (n - 1) + 1:step]
    return view[((base + stride * _iota(n)) >> sh) - off]


def _gather2(mem, mlen, bases, stride, T, size, dtype):
    """Elements at ``base + stride*j`` (j < T) for every base, with their
    byte range: a ``(members, n, T)`` array for ``(n,)`` base vectors,
    ``(members, T)`` for int bases.  Bails when an address leaves
    memory."""
    vec = isinstance(bases[0], np.ndarray)
    flat = np.concatenate(bases) if vec else np.array(bases, dtype=np.int64)
    lo, hi = int(flat.min()), int(flat.max())
    if stride > 0:
        hi += stride * (T - 1)
    else:
        lo += stride * (T - 1)
    if lo < 0 or hi >> 2 >= mlen:
        raise _Bail
    rows = len(flat)
    if vec and len(bases) == 1 and stride == size and not lo % size and \
            (rows == 1 or (np.diff(flat) == size * T).all()):
        # Rows back to back (a matvec's weight block): one span.
        sh = _LOG2[size]
        view = _span(mem, lo, hi, dtype)
        off = (lo >> sh) - ((lo >> 2) << (2 - sh))
        out = view[off:off + rows * T].reshape(1, rows, T)
    else:
        out = _gather(mem, lo, hi, flat, stride, T, size, dtype)
        if vec:
            out = out.reshape(len(bases), -1, T)
    return out, lo, hi + size - 1


def _gather_at(mem, mlen, addr, size, dtype):
    """Elements at an arbitrary address array (``(n,)``, or ``(n, T)``
    in a nest), with its byte range; bails when an address leaves
    memory.  Addresses spread far apart (a run's per-tile weight rows)
    are read word by word, not as one span."""
    lo, hi = int(addr.min()), int(addr.max())
    if hi >> 2 >= mlen:
        raise _Bail
    sh = _LOG2[size]
    if (hi - lo) >> 2 > _DENSE * addr.size + 1024:
        flat = addr.ravel()
        words = np.array([mem[a] for a in (flat >> 2).tolist()],
                         dtype=np.int64)
        raw = (words >> ((flat & 3) << 3)) & ((1 << (8 * size)) - 1)
        out = raw.astype(_ELEM[size, False]).view(dtype)
        return out.reshape(addr.shape), lo, hi
    view = _span(mem, lo, hi, dtype)
    return view[(addr >> sh) - ((lo >> 2) << (2 - sh))], lo, hi


def _stride_of(addr):
    """Uniform stride of an address vector, or None."""
    d = np.diff(addr)
    return int(d[0]) if len(d) and (d == d[0]).all() else None


def _with_prev(mat, prev):
    """``mat`` plus one row per ``(row, entry)``: that row's values one
    iteration late, ``entry`` first — what an SPR read sees of the stream
    its previous occurrence loads."""
    g, n = mat.shape
    out = np.empty((g + len(prev), n), dtype=mat.dtype)
    out[:g] = mat
    for i, (row, entry) in enumerate(prev):
        out[g + i, 0] = entry
        out[g + i, 1:] = mat[row, :-1]
    return out


def _prev2(first, mat):
    """Each row one trip late, ``first`` at trip 0: what an SPR read at
    the top of a nest's inner body sees (``first`` the value loaded
    before the inner loop, per outer iteration), or a family of
    one-iteration-delayed carries (``first`` their entries)."""
    if isinstance(first, np.ndarray) and mat.ndim == 1:
        mat = np.broadcast_to(mat, (len(first), len(mat)))
    out = np.empty(mat.shape, dtype=np.int64)
    out[..., 0] = first
    out[..., 1:] = mat[..., :-1]
    return out


def _shift(entry, v):
    """One-iteration-delayed carry: ``entry`` then ``v`` without its
    last element."""
    out = np.empty(len(v), dtype=np.int64)
    out[0] = entry
    out[1:] = v[:-1]
    return out


def _excl_cumsum(tot):
    out = np.empty(len(tot), dtype=np.int64)
    out[0] = 0
    np.cumsum(tot[:-1], out=out[1:])
    return out


def _lanes(x, lanes):
    """Sign-extended int64 16-bit (lanes=2) or 8-bit (lanes=4) lanes of
    32-bit values: an ``(n, lanes)`` array, or a vector for a scalar."""
    if isinstance(x, np.ndarray):
        dt = np.int16 if lanes == 2 else np.int8
        return x.astype(np.uint32).view(dt).reshape(x.shape + (lanes,)) \
            .astype(np.int64)
    return np.array(_halves(x) if lanes == 2 else _bytes4(x),
                    dtype=np.int64)


def _dots2(a, b, lanes):
    """Lane dot products summed over the inner trips of every row of
    ``a`` (raw words, ``(rows, n, T)`` or ``(rows, T)``) with every row
    of ``b`` (``(rows_b, T)``): an int64 ``(rows, [n,] rows_b)`` array.
    One float64 product is exact while the sums stay below 2**53."""
    dt = np.int16 if lanes == 2 else np.int8
    A = a.view(dt)
    B = b.view(dt)
    if A.shape[-1] < 1 << 21:
        return (A.astype(np.float64) @ B.astype(np.float64).T) \
            .astype(np.int64)
    return np.einsum("...k,bk->...b", A.astype(np.int64),
                     B.astype(np.int64))


def _dot_v(a, b, lanes):
    return (_lanes(a, lanes) * _lanes(b, lanes)).sum(axis=-1)


def _dot_sum(a, b, lanes):
    """Lane dot products of two inner-trip word streams, at most one of
    them ``(n, T)`` and the other ``(T,)``, summed over the trips
    (:func:`_dots2` of the one against the other)."""
    if a.ndim < b.ndim:
        a, b = b, a
    out = _dots2(np.atleast_2d(a.astype(np.uint32)),
                 b.astype(np.uint32)[None], lanes)[:, 0]
    return out if a.ndim == 2 else out[0]


def _signed_rows(raw):
    return raw.view(np.int32).astype(np.int64) if raw.dtype == np.uint32 \
        else raw.astype(np.int64)


def _rows_dot2h(a, b):
    """Per-row sums of the signed 16-bit lane products of two word
    matrices (one ``pv.sdotsp.h``/``pl.sdotsp.h`` term per row)."""
    return (a.view(np.int16).astype(np.int64)
            * b.view(np.int16)).sum(axis=1).tolist()


def _rows_dot4b(a, b):
    return (a.view(np.int8).astype(np.int64)
            * b.view(np.int8)).sum(axis=1).tolist()


def _rows_mac(a, b):
    """Per-row sums of signed products (one ``p.mac`` term per row)."""
    return (_signed_rows(a) * _signed_rows(b)).sum(axis=1).tolist()


def _pla_s(x, is_sig):
    """Vector Algorithm 2 on signed int64 input, bit-identical to
    ``cpu._pla_scalar`` (result signed)."""
    slopes = _SIG_M_V if is_sig else _TANH_M_V
    offsets = _SIG_Q_V if is_sig else _TANH_Q_V
    neg = x < 0
    mag = np.abs(x)
    idx = mag >> _PLA_SHIFT
    inb = idx < _PLA_N
    idxc = np.where(inb, idx, 0)
    y = ((slopes[idxc] * mag) >> _PLA_FRAC) + offsets[idxc]
    y = np.where(inb, y, _PLA_ONE)
    y = np.where(neg, -y, y)
    if is_sig:
        y = np.where(neg, _PLA_ONE + y, y)
    return np.clip(y, -32768, 32767)


def _store_range(base, stride, n, size, mbytes):
    """``(lo, hi, stride)`` of n stores at ``base + stride*j``; bails
    when one would wrap, leave memory or overlap its own previous
    iteration.  A single store has stride 0."""
    if n == 1:
        stride = 0
    last = base + stride * (n - 1)
    lo, hi = (base, last) if stride >= 0 else (last, base)
    if lo < 0 or hi + size > mbytes:
        raise _Bail
    if stride and abs(stride) < size:
        raise _Bail  # the store would self-overlap
    return lo, hi + size - 1, stride


def _store_vec(addr, n):
    """``(base, stride)`` of a store address vector; bails unless the
    stride is uniform."""
    stride = 0
    if n > 1:
        d = np.diff(addr)
        stride = int(d[0])
        if not (d == stride).all():
            raise _Bail
    return int(addr[0]), stride


def _store(mem, size, base, stride, n, val):
    """Commit n stores of ``val`` (a vector, or one value for every
    iteration) at ``base + stride*j``; stride 0 leaves the last value."""
    if stride == 0:
        v = val if isinstance(val, int) else int(val[-1])
        widx = base >> 2
        if size == 4:
            mem[widx] = v & _M32
        elif size == 2:
            sh = (base & 2) << 3
            mem[widx] = (mem[widx] & ~(0xFFFF << sh)) | ((v & 0xFFFF) << sh)
        else:
            sh = (base & 3) << 3
            mem[widx] = (mem[widx] & ~(0xFF << sh)) | ((v & 0xFF) << sh)
        return
    last = base + stride * (n - 1)
    lo, hi = (base, last) if stride > 0 else (last, base)
    wlo, whi = lo >> 2, hi >> 2
    seg = _words(mem, wlo, whi)
    dtype = _ELEM[size, False]
    sh = _LOG2[size]
    view = seg.view(dtype)
    idx = ((base + stride * _iota(n)) >> sh) - (wlo << (2 - sh))
    mask = (1 << (8 * size)) - 1
    view[idx] = val & mask if isinstance(val, int) \
        else (val & mask).astype(dtype)
    mem[wlo:whi + 1] = seg.tolist()


def _has_k(d, s, wlo, whi):
    """Is there an integer k >= 1 with ``wlo <= d + s*k <= whi``?"""
    if s > 0:
        lo = -(-(wlo - d) // s)
        hi = (whi - d) // s
    else:
        lo = -(-(whi - d) // s)
        hi = (wlo - d) // s
    return max(lo, 1) <= hi


def _no_alias(lrecs, srecs, nstores, sread, swrite):
    """Bail unless committing the window equals running it in order.

    ``lrecs``/``srecs`` are ``(pos, lo, hi, base, stride, size)`` byte
    ranges of every load and store (written slots last, ``pos`` None;
    stride None for a nest's inner access, whose any overlap bails);
    ``sread``/``swrite`` are ``(slot, addr)`` of the carried memory
    cells read and written."""
    # Load/store aliasing.  Interval overlap alone is not fatal: equal
    # uniform strides let us solve exactly which iteration pairs (k =
    # load iter - store iter) touch common bytes.  A k = 0 hit is fine
    # when the store issues after the load's last body position; any
    # k >= 1 hit means a later load would read a byte an earlier
    # iteration stored — the snapshot gather would be stale, so bail.
    top = max(r[2] for r in srecs) if srecs else -1
    bot = min(r[1] for r in srecs) if srecs else 0
    for lpos, llo, lhi, lbase, ls, lsz in lrecs:
        if llo > top or bot > lhi:
            continue  # clear of every store
        for spos, slo, shi, sbase, ss, ssz in srecs:
            if llo > shi or slo > lhi:
                continue
            if ls is None or ls != ss or ls == 0:
                raise _Bail
            d = lbase - sbase
            wlo, whi = 1 - lsz, ssz - 1
            if wlo <= d <= whi and (spos is None or spos < lpos):
                raise _Bail
            if _has_k(d, ls, wlo, whi):
                raise _Bail
    # A carried slot read sees only its own cell's history: any other
    # write landing on that cell invalidates the whole window.
    for slot, a in sread:
        for _pos, slo, shi, _b, _s, _z in srecs[:nstores]:
            if a <= shi and slo <= a + 3:
                raise _Bail
        for slot2, a2 in swrite:
            if slot2 != slot and a <= a2 + 3 and a2 <= a + 3:
                raise _Bail
    # Store/store conflicts: same-iteration overlaps commit in program
    # order, cross-iteration overlaps do not.
    for i in range(len(srecs)):
        for j in range(i + 1, len(srecs)):
            _p1, l1, h1, b1, s1, z1 = srecs[i]
            _p2, l2, h2, b2, s2, z2 = srecs[j]
            if l1 > h2 or l2 > h1:
                continue
            if s1 is None or s1 != s2 or s1 == 0:
                raise _Bail
            d = b1 - b2
            wlo, whi = 1 - z1, z2 - 1
            if _has_k(d, s1, wlo, whi) or _has_k(d, -s1, wlo, whi):
                raise _Bail


def _leading(m, x0, s, y, swapped):
    """Leading taken iterations of branch ``m`` on ``x0 + s*j`` against
    the invariant ``y`` (exact integers, no wrap), or None if every
    iteration is taken."""
    if m in ("beq", "bne"):
        if s == 0:
            return None if (x0 == y) == (m == "beq") else 0
        if m == "beq":
            return 1 if x0 == y else 0
        d = y - x0
        return d // s if d % s == 0 and d // s >= 0 else None
    if swapped:  # y < x  <=>  -x < -y;  y >= x  <=>  -x >= -y
        x0, s, y = -x0, -s, -y
    if m in ("blt", "bltu"):
        if x0 >= y:
            return 0
        return None if s <= 0 else -((x0 - y) // s)
    if x0 < y:
        return 0
    return None if s >= 0 else (x0 - y) // (-s) + 1


def _exit(m, x0, s, y, n, swapped):
    """Leading taken iterations (capped at n) of a branch-closed loop
    whose exit test compares the induction ``x0 + s*j`` (mod 2**32) with
    the invariant ``y``, solved in closed form on each stretch of
    iterations between two wraps of ``x``."""
    if m in ("blt", "bge"):
        x, y = _signed32(x0), _signed32(y)
        lo, hi = -(1 << 31), (1 << 31) - 1
    else:
        x, lo, hi = x0, 0, _M32
    j = 0
    while j < n:
        span = n - j
        if s > 0:
            span = min(span, (hi - x) // s + 1)
        elif s < 0:
            span = min(span, (x - lo) // -s + 1)
        k = _leading(m, x, s, y, swapped)
        if k is not None and k < span:
            return j + k
        j += span
        x = ((x + s * span - lo) & _M32) + lo
    return n


#: Names the generated kernels see besides their per-shape constants.
_KERNEL_NS = {
    "np": np, "_Bail": _Bail, "_iota": _iota, "_ld": _ld, "_bounds": _bounds,
    "_gather": _gather, "_gather2": _gather2, "_gather_at": _gather_at,
    "_stride_of": _stride_of,
    "_with_prev": _with_prev, "_shift": _shift, "_prev2": _prev2,
    "_dots2": _dots2,
    "_excl_cumsum": _excl_cumsum, "_dot_v": _dot_v, "_dot_sum": _dot_sum,
    "_rows_dot2h": _rows_dot2h, "_rows_dot4b": _rows_dot4b,
    "_rows_mac": _rows_mac, "_pla_s": _pla_s, "_pla_scalar": _pla_scalar,
    "_signed32": _signed32, "_store_range": _store_range,
    "_store_vec": _store_vec, "_store": _store, "_no_alias": _no_alias,
    "_exit": _exit, "_TANH_M": _TANH_M, "_TANH_Q": _TANH_Q,
    "_SIG_M": _SIG_M, "_SIG_Q": _SIG_Q,
}

_M = _M32
_B = 0x80000000
_ROWS = {"dot2h": "_rows_dot2h", "dot4b": "_rows_dot4b",
         "macterm": "_rows_mac"}


# ----------------------------------------------------------------------
# Lowering: template -> straight-line Python source
# ----------------------------------------------------------------------
def _load_groups(t):
    """Static SLP grouping of the template's affine loads.

    Loads whose address is an affine induction are grouped by (SPR
    stream or not, size, signedness, stride); each group is read as one
    ``(members, n)`` matrix.  An SPR stream's group also carries, per
    SPR, its last occurrence delayed by one iteration: the values its
    first reader consumes."""
    res = t["res"]
    spr_nodes = {node for occ in t["spr"].values() for node in occ}
    groups, gof, index = [], {}, {}
    for node in sorted(t["load_pos"], key=t["load_pos"].get):
        s = _aff_stride(node[1], res)
        if s is None:
            continue
        key = (node in spr_nodes, node[2], node[3], s)
        g = index.get(key)
        if g is None:
            g = index[key] = len(groups)
            groups.append({"size": node[2], "signed": node[3],
                           "stride": s, "members": [], "prev": []})
        gof[node] = (g, len(groups[g]["members"]))
        groups[g]["members"].append(node)
    prev_row = {}
    for k, occ in t["spr"].items():
        if occ and occ[-1] in gof:
            g, row = gof[occ[-1]]
            grp = groups[g]
            prev_row[k] = (g, len(grp["members"]) + len(grp["prev"]))
            grp["prev"].append((row, k))
    return groups, gof, prev_row


class _Lower:
    """Demand-driven lowering of one template into straight-line code.

    Every node has up to three lowered values, each emitted once:
    ``S`` (a loop-invariant Python int), ``V`` (an int64 vector over the
    n iterations, with a *form*: ``u`` canonical unsigned, ``s``
    canonical signed, ``w`` any value congruent mod 2**32) and ``L``
    (the Python int at the last iteration, mostly computed without the
    vector).  Each memory read is preceded by its range check, so the
    generated function raises ``_Bail`` before any out-of-range access
    and before committing anything."""

    def __init__(self, t, groups):
        self.t = t
        self.res = t["res"]
        self.groups, self.gof, self.prev_row = groups
        self.lines = []
        self.consts = {}
        self.memo = {}
        self.vec = {}
        self.nvar = 0
        self.dyn = {}      # dynamic-address load -> (lo, hi, addr)
        self.finals = {}   # acc placeholder -> var of its final value
        self.jv = {}       # node -> varies with the inner trip (nests)

    def J(self):
        """The iteration-index vector, emitted on first use."""
        return self.once("J", lambda: self.line("J = _iota(n)") or "J")

    def Jt(self):
        """The inner-trip index vector of a loop nest."""
        return self.once("Jt", lambda: self.line(
            f"Jt = _iota({self.trip()})") or "Jt")

    def trip(self):
        """The nest's inner trip count ``T``: a constant, or the
        argument ``T`` that ``cond`` solved for the window."""
        T = self.t["nest"]["T"]
        return "T" if T is None else str(T)

    # -------------------------------------------------------- plumbing
    def line(self, text):
        self.lines.append(text)

    def tmp(self, expr):
        name = f"v{self.nvar}"
        self.nvar += 1
        self.lines.append(f"{name} = {expr}")
        return name

    def const(self, value):
        name = f"c{len(self.consts)}"
        self.consts[name] = value
        return name

    def once(self, key, fn):
        if key not in self.memo:
            self.memo[key] = fn()
        return self.memo[key]

    def source(self, header):
        return header + "\n" + "".join(f"    {ln}\n" for ln in self.lines)

    # ------------------------------------------------- static analysis
    def is_vec(self, node):
        hit = self.vec.get(node)
        if hit is not None:
            return hit
        k = node[0]
        if k in ("const", "trip"):
            out = False
        elif k in ("regin", "slotin"):
            out = self.res[node][0] != "inv"
        elif k == "sprin":
            out = node[2] == 0 or \
                self.is_vec(self.t["spr"][node[1]][node[2] - 1])
        elif k == "site":
            out = node[1] in self.t["vary"]
        elif k == "jprev":
            out = self.is_vec(node[1]) or self.is_vec(node[2])
        elif k == "sum":
            out = (node[1] is not None and self.is_vec(node[1])) or \
                any(self.is_vec(x) for x in node[2])
        elif k == "alu":
            out = self.is_vec(node[2]) or self.is_vec(node[3])
        else:  # load, pla
            out = self.is_vec(node[1])
        self.vec[node] = out
        return out

    def is_j(self, node):
        """Does ``node`` vary with a nest's inner trip?  Such a node
        lowers to an ``(n, T)`` array (``(T,)`` when it does not vary with
        the outer loop)."""
        hit = self.jv.get(node)
        if hit is not None:
            return hit
        k = node[0]
        if k in ("j2", "jprev"):
            out = True
        elif k in ("const", "regin", "slotin", "sprin", "trip", "isum",
                   "site", "jlast"):
            out = False
        elif k == "sum":
            out = any(self.is_j(x) for x in _addends(node))
        elif k == "alu":
            out = self.is_j(node[2]) or self.is_j(node[3])
        else:  # load, pla
            out = self.is_j(node[1])
        self.jv[node] = out
        return out

    def arr(self, node):
        return self.is_vec(node) or self.is_j(node)

    def affine(self, node):
        """``(x0, stride)`` when ``node`` is ``x0 + stride*j``, else None."""
        def build():
            s = _aff_stride(node, self.res)
            if s is None:
                return None
            if node[0] == "sum":
                c = _sext(node[3])
                x0 = self.entry(node[1])
                return (self.tmp(f"({x0} + {c}) & {_M}") if c else x0), s
            return self.entry(node), s
        return self.once(("aff", node), build)

    # ------------------------------------------------------- scalars
    def entry(self, p):
        """Value of a carried placeholder entering the window."""
        def build():
            if p[0] == "regin":
                return self.tmp(f"regs[{p[1]}] & {_M}")
            return self.tmp(f"mem[{self.slot_addr(p[1])} >> 2]")
        return self.once(("entry", p), build)

    def slot_addr(self, key):
        def build():
            if not isinstance(key, tuple):
                self.line(f"if {key >> 2} >= mlen: raise _Bail")
                return str(key)
            if self.is_vec(key):
                self.line("raise _Bail")
                return "0"
            a = self.S(key)
            self.line(f"if {a} & 3 or {a} >> 2 >= mlen: raise _Bail")
            return a
        return self.once(("slot", key), build)

    def sop(self, m):
        fn = ALU_OPS.get(m) or _SCALAR_EXTRA[m]
        return self.once(("sop", m), lambda: self.const(fn))

    def S(self, node):
        k = node[0]
        if k == "const":
            return str(node[1] & _M)
        return self.once(("S", node), lambda: self._scalar(node))

    def _scalar(self, node):
        k = node[0]
        if k in ("regin", "slotin"):
            return self.entry(node)
        if k == "sum":
            parts = [self.S(x) for x in _addends(node)]
            return self.tmp(f"({' + '.join(parts)} + {node[3] & _M}) & {_M}")
        if k == "alu":
            return self.tmp(f"{self.sop(node[1])}({self.S(node[2])}, "
                            f"{self.S(node[3])}, {node[4]}) & {_M}")
        if k == "load":
            a = self.S(node[1])
            self.line(f"if {a} >> 2 >= mlen: raise _Bail")
            return self.tmp(f"_ld(mem, {a}, {node[2]}, {node[3]})")
        if k == "pla":
            tbl = "_SIG_M, _SIG_Q" if node[2] else "_TANH_M, _TANH_Q"
            return self.tmp(f"_pla_scalar(_signed32({self.S(node[1])}), "
                            f"{tbl}, {node[2]}) & {_M}")
        if k == "trip":
            return self.trip()
        if k == "isum":
            return self.tmp(f"{self._isum(node[1], False)} & {_M}")
        if k == "site":
            return f"sc[{node[1]}]"
        if k == "jlast":
            return self.tmp(f"int({self.as_u(node[1])}[-1])")
        # sprin reading a loop-invariant occurrence
        return self.S(self.t["spr"][node[1]][node[2] - 1])

    # ------------------------------------------------------- vectors
    def V(self, node):
        return self.once(("V", node), lambda: self._vector(node))

    def col(self, node, v, two):
        """``v``, an outer-loop vector, as an ``(n, 1)`` column when it
        meets inner-trip arrays (``two``)."""
        if not two or self.is_j(node) or not self.is_vec(node):
            return v
        return self.once(("col", v), lambda: self.tmp(f"{v}[:, None]"))

    def w(self, node, two=False):
        """Expression for ``node`` in any form (vector or scalar)."""
        if not self.arr(node):
            return self.S(node)
        return self.col(node, self.V(node)[0], two)

    def form(self, node):
        return self.V(node)[1] if self.arr(node) else "u"

    def as_u(self, node, two=False):
        if not self.arr(node):
            return self.S(node)
        v, f = self.V(node)
        u = v if f == "u" else self.once(
            ("u", node), lambda: self.tmp(f"{v} & {_M}"))
        return self.col(node, u, two)

    def as_s(self, node, two=False):
        if not self.arr(node):
            return self.once(("ss", node), lambda: self.tmp(
                f"_signed32({self.S(node)})"))
        v, f = self.V(node)
        src = v if f == "u" else f"({v} & {_M})"
        sv = v if f == "s" else self.once(
            ("s", node), lambda: self.tmp(f"({src} ^ {_B}) - {_B}"))
        return self.col(node, sv, two)

    def _vector(self, node):
        k = node[0]
        two = self.is_j(node)
        if k in ("regin", "slotin"):
            return self._carried(node)
        if k == "sprin":
            return self._sprin(node)
        if k == "sum":
            parts = [self.w(x, two) for x in _addends(node)]
            c = _sext(node[3])
            if c:
                parts.append(str(c))
            return self.tmp(" + ".join(parts)), "w"
        if k == "alu":
            return self._alu(*node[1:], two=two)
        if k == "load":
            return self._load(node)
        if k == "j2":
            return self.tmp(f"{self.w(node[1], True)} + {node[2]} * "
                            f"{self.Jt()}"), "w"
        if k == "isum":
            return self.tmp(self._isum(node[1], True)), "w"
        if k == "site":
            return self.tmp(f"sc[{node[1]}] + ss[{node[1]}] * "
                            f"{self.J()}"), "u"
        if k == "jlast":
            return self.tmp(f"{self.as_u(node[1])}[:, -1]"), "u"
        if k == "jprev":
            return self.tmp(f"_prev2({self.as_u(node[1])}, "
                            f"{self.as_u(node[2])})"), "u"
        return self.tmp(f"_pla_s({self.as_s(node[1], two)}, "
                        f"{node[2]})"), "s"

    def _isum(self, total, vec):
        """Expression for the sum of ``total`` over the inner trips (an
        outer-loop vector when ``vec``, else a Python int)."""
        parts, c = (_addends(total), total[3]) if total[0] == "sum" \
            else ([total], 0)
        out, inner = [], []
        for x in parts:
            if self.is_j(x):
                d = self.tdot(x)
                if d is None:
                    d = self.tsum(x)
                if d is None:
                    inner.append(x)
                else:
                    out.append(d if vec or not self.is_vec(x)
                               else f"int({d}.sum())")
        if inner:
            tot = f"({' + '.join(self.w(x, True) for x in inner)})"
            out.append(f"{tot}.sum(axis=-1)" if vec and any(
                self.is_vec(x) for x in inner) else f"int({tot}.sum())")
        T = self.trip()
        out += [f"{T} * {self.w(x)}" for x in parts if not self.is_j(x)]
        if c:
            out.append(f"{T} * {_sext(c)}")
        return f"({' + '.join(out)})"

    def tsum(self, x):
        """A dot-product term of two inner-trip streams (say, an SPR
        read one trip late against an input row), at most one varying
        with the outer loop, summed over the inner trips by one float64
        product; None for any other term."""
        if x[0] != "alu" or x[1] not in ("dot2h", "dot4b") or \
                not (self.is_j(x[2]) and self.is_j(x[3])) or \
                self.is_vec(x[2]) and self.is_vec(x[3]):
            return None
        d = self.tmp(f"_dot_sum({self.w(x[2], True)}, "
                     f"{self.w(x[3], True)}, {2 if x[1] == 'dot2h' else 4})")
        return d if self.is_vec(x) else f"int({d})"

    def tdot(self, x):
        """A nest's dot-product term summed over the inner trips, from
        one batched product of the two 2-D load groups it reads (every
        row of one against every row of the other); None for any other
        term."""
        d = self.tdot_at(x)
        return None if d is None else f"{d[0]}[{d[1]}, ..., {d[2]}]"

    def tdot_at(self, x):
        """``(products, row, column)`` of :meth:`tdot`'s term, or None."""
        if x[0] != "alu" or x[1] not in ("dot2h", "dot4b"):
            return None
        of = self.groups2()[1]
        a, b = of.get(x[2]), of.get(x[3])
        if a is None or b is None or \
                self.is_vec(x[2]) and self.is_vec(x[3]):
            return None
        grp = self.groups2()[0]
        if grp[a[0]]["size"] != 4 or grp[b[0]]["size"] != 4:
            return None
        if self.is_vec(x[3]):
            a, b = b, a
        lanes = 2 if x[1] == "dot2h" else 4
        d = self.once(("dots", a[0], b[0], lanes), lambda: self.tmp(
            f"_dots2({self.mat2(a[0])[0]}, {self.mat2(b[0])[0]}, {lanes})"))
        return d, a[1], b[1]

    # ------------------------------------------------------ families
    def fam(self, nodes):
        """One node standing for outer-loop vectors (a tile's per-row
        chains): its vector is an ``(R, n)`` array, row r being
        ``nodes[r]``'s, computed once for all rows where the nodes are
        isomorphic — they differ only in which rows of one load group or
        one batched product they read and which carried registers they
        shift — and stacked from the rows' own vectors below where they
        are not.  None unless every node is an outer-loop vector."""
        if any(not self.is_vec(n) or self.is_j(n) for n in nodes):
            return None

        def build():
            out = self._fam(nodes)
            if out is None:
                rows = ", ".join(self.w(n) for n in nodes)
                out = self._leaf(f"np.stack(({rows},))", "w")
            return out
        return self.once(("fam", tuple(nodes)), build)

    def _leaf(self, expr, form):
        node = ("fam", len(self.memo))
        self.memo[("V", node)] = (self.tmp(expr), form)
        self.vec[node], self.jv[node] = True, False
        return node

    def _fam(self, nodes):
        first = nodes[0]
        k = first[0]
        if all(n == first for n in nodes):
            return first
        if any(n[0] != k for n in nodes):
            return None
        if k == "load":
            at = [self.gof.get(n) for n in nodes]
            if None in at or len({g for g, _ in at}) > 1 or \
                    any(n[2:] != first[2:] for n in nodes):
                return None
            form = "s" if first[3] and first[2] < 4 else "u"
            rows = self.rows64(at[0][0], [r for _, r in at])
            return self._leaf(rows, form)
        def each(xs):
            return xs[0] if all(x == xs[0] for x in xs) else self.fam(xs)
        if k == "alu":
            if any(n[1] != first[1] or n[4] != first[4] for n in nodes):
                return None
            a, b = (each([n[i] for n in nodes]) for i in (2, 3))
            return None if a is None or b is None else \
                ("alu", first[1], a, b, first[4])
        if k == "sum":
            if any(n[3] != first[3] or len(n[2]) != len(first[2]) or
                   (n[1] is None) != (first[1] is None) for n in nodes):
                return None
            parts = [each([n[1] for n in nodes])] \
                if first[1] is not None else []
            parts += [each([n[2][i] for n in nodes])
                      for i in range(len(first[2]))]
            if None in parts:
                return None
            return ("sum", None, tuple(parts), first[3])
        if k in ("regin", "slotin"):
            specs = [self.res[n] for n in nodes]
            if any(spec[0] != "shift" for spec in specs):
                return None
            fin = self.fam([spec[1] for spec in specs])
            if fin is None:
                return None
            entries = ", ".join(self.entry(n) for n in nodes)
            return self._leaf(f"_prev2([{entries}], {self.w(fin)})", "w")
        if k == "isum":
            return self._fam_isum([n[1] for n in nodes])
        return None

    def _fam_isum(self, totals):
        """A family of inner-trip sums whose every term is a
        :meth:`tdot` of one batched product."""
        parts = [_addends(x) if x[0] == "sum" else [x] for x in totals]
        if any(len(p) != len(parts[0]) for p in parts) or \
                any(x[0] == "sum" and x[3] for x in totals):
            return None
        out = []
        for i in range(len(parts[0])):
            at = [self.tdot_at(p[i]) for p in parts]
            if None in at or len({d for d, _a, _b in at}) > 1:
                return None
            rows = [a for _d, a, _b in at]
            cols = [b for _d, _a, b in at]
            out.append(f"{at[0][0]}[{self.const(np.array(rows))}, ..., "
                       f"{self.const(np.array(cols))}]")
        return self._leaf(" + ".join(out), "w")

    def rows64(self, g, idx):
        """Rows ``idx`` of 1-D load group ``g`` as an int64 matrix."""
        m = self.mat64(g)
        if idx == list(range(idx[0], idx[0] + len(idx))):
            return f"{m}[{idx[0]}:{idx[0] + len(idx)}]"
        return f"{m}[{self.const(np.array(idx, dtype=np.intp))}]"

    def _carried(self, p):
        spec = self.res[p]
        x0 = self.entry(p)
        if spec[0] == "aff":
            return self.tmp(f"{x0} + {_sext(spec[1])} * {self.J()}"), "w"
        if spec[0] == "acc":
            parts = [self.w(t) for t in spec[1]]
            if not any(self.is_vec(t) for t in spec[1]):
                # Invariant terms: an induction with a runtime stride.
                step = self.tmp(f"({' + '.join(parts)} + "
                                f"{_sext(spec[2])}) & {_M}")
                return self.tmp(f"{x0} + {step} * {self.J()}"), "w"
            tot = self.tmp(" + ".join(parts))
            return self.tmp(f"{x0} + {_sext(spec[2])} * {self.J()} + "
                            f"_excl_cumsum({tot})"), "w"
        fin = spec[1]
        f = self.V(fin)[0] if self.is_vec(fin) else \
            self.tmp(f"np.full(n, {self.S(fin)}, np.int64)")
        return self.tmp(f"_shift({x0}, {f})"), "w"

    def _sprin(self, node):
        k, o = node[1], node[2]
        row = self.raw_row(node)
        if row is not None:
            g, i = row
            return self.tmp(f"{self.mat64(g)}[{i}]"), "u"
        occ = self.t["spr"][k]
        if o:
            return self.V(occ[o - 1])
        last = occ[-1]
        f = self.V(last)[0] if self.is_vec(last) else \
            self.tmp(f"np.full(n, {self.S(last)}, np.int64)")
        return self.tmp(f"_shift(sprs[{k}], {f})"), "u"

    def _load(self, node):
        size, signed = node[2], node[3]
        form = "s" if signed and size < 4 else "u"
        gi = self.gof.get(node)
        if gi is not None:
            return self.tmp(f"{self.mat64(gi[0])}[{gi[1]}]"), form
        gi = self.groups2()[1].get(node)
        if gi is not None:
            # Only this row widens: most of a group's rows feed batched
            # products straight from the raw words.
            return self.tmp(f"{self.mat2(gi[0])[0]}[{gi[1]}]"
                            ".astype(np.int64)"), form
        a = self.as_u(node[1])
        raw, lo, hi = f"v{self.nvar}", f"v{self.nvar + 1}", \
            f"v{self.nvar + 2}"
        self.nvar += 3
        self.line(f"{raw}, {lo}, {hi} = _gather_at(mem, mlen, {a}, {size}, "
                  f"{self.const(_ELEM[size, signed])})")
        self.dyn[node] = (lo, hi, a)
        return self.tmp(f"{raw}.astype(np.int64)"), form

    def _alu(self, m, a, b, imm, two=False):
        if m in _VOPS:
            def u64(x):
                return f"{self.as_u(x, two)}.view(np.uint64)" \
                    if self.arr(x) else f"np.uint64({self.S(x)})"
            fn = self.once(("vop", m), lambda: self.const(_VOPS[m]))
            return self.tmp(f"{fn}({u64(a)}, {u64(b)}, {imm})"
                            ".view(np.int64)"), "u"

        def w(x):
            return self.w(x, two)

        def su(x):
            return self.as_u(x, two)

        def ss(x):
            return self.as_s(x, two)
        if m in ("add", "sub", "mul"):
            op = {"add": "+", "sub": "-", "mul": "*"}[m]
            return self.tmp(f"{w(a)} {op} {w(b)}"), "w"
        if m == "addi":
            return self.tmp(f"{w(a)} + {imm}"), "w"
        if m in ("and", "or", "xor", "andi", "ori", "xori"):
            op = {"a": "&", "o": "|", "x": "^"}[m[0]]
            if m[-1] == "i":
                rhs, fb = str(imm), ("b" if 0 <= imm < _B else "s")
            else:
                rhs, fb = w(b), self.form(b)
            fa = self.form(a)
            if op == "&" and "u" in (fa, fb):
                out = "u"
            elif {fa, fb} <= {"u", "b"}:
                out = "u"
            elif {fa, fb} <= {"s", "b"}:
                out = "s"
            else:
                out = "w"
            return self.tmp(f"{w(a)} {op} {rhs}"), out
        if m == "slli":
            return self.tmp(f"{su(a)} << {imm}"), "w"
        if m == "srli":
            return self.tmp(f"{su(a)} >> {imm}"), "u"
        if m == "srai":
            return self.tmp(f"{ss(a)} >> {imm}"), "s"
        if m in ("sll", "srl", "sra"):
            src = ss(a) if m == "sra" else su(a)
            op = "<<" if m == "sll" else ">>"
            form = {"sll": "w", "srl": "u", "sra": "s"}[m]
            return self.tmp(f"{src} {op} ({su(b)} & 31)"), form
        if m in ("slt", "sltu", "slti", "sltiu"):
            conv = ss if m in ("slt", "slti") else su
            rhs = {"slti": str(imm), "sltiu": str(imm & _M)}.get(m)
            rhs = rhs if rhs is not None else conv(b)
            return self.tmp(f"({conv(a)} < {rhs}).astype(np.int64)"), "u"
        if m == "macterm":
            return self.tmp(f"{ss(a)} * {ss(b)}"), "w"
        if m in ("dot2h", "dot4b"):
            lanes = 2 if m == "dot2h" else 4
            return self.tmp(f"_dot_v({w(a)}, {w(b)}, {lanes})"), "w"
        if m == "p.abs":
            return self.tmp(f"np.abs({ss(a)})"), "u"
        if m in ("p.min", "p.max"):
            fn = "np.minimum" if m == "p.min" else "np.maximum"
            return self.tmp(f"{fn}({ss(a)}, {ss(b)})"), "s"
        if m in ("p.minu", "p.maxu"):
            fn = "np.minimum" if m == "p.minu" else "np.maximum"
            return self.tmp(f"{fn}({su(a)}, {su(b)})"), "u"
        if m == "p.clip":
            if imm == 0:
                return self.tmp(f"np.minimum({ss(a)}, 0)"), "s"
            lo, hi = -(1 << (imm - 1)), (1 << (imm - 1)) - 1
            return self.tmp(f"np.minimum(np.maximum({ss(a)}, {lo}), "
                            f"{hi})"), "s"
        # p.exths
        return self.tmp(f"(({w(a)} & 65535) ^ 32768) - 32768"), "s"

    # ---------------------------------------------------- load groups
    def group(self, g):
        """Bases and range check of load group ``g``."""
        def build():
            grp = self.groups[g]
            bases = [self.affine(node[1])[0] for node in grp["members"]]
            bl = self.tmp(f"[{', '.join(bases)}]")
            lo, hi = f"v{self.nvar}", f"v{self.nvar + 1}"
            self.nvar += 2
            self.line(f"{lo}, {hi} = _bounds({bl}, {grp['stride']}, n, mlen)")
            return bl, lo, hi
        return self.once(("group", g), build)

    def mat(self, g):
        """Raw element matrix of group ``g`` (members, then delayed SPR
        rows)."""
        def build():
            grp = self.groups[g]
            bl, lo, hi = self.group(g)
            dt = self.const(_ELEM[grp["size"], grp["signed"]])
            m = self.tmp(f"_gather(mem, {lo}, {hi}, {bl}, {grp['stride']}, "
                         f"n, {grp['size']}, {dt})")
            if grp["prev"]:
                prev = ", ".join(f"({row}, sprs[{k}])"
                                 for row, k in grp["prev"])
                m = self.tmp(f"_with_prev({m}, ({prev},))")
            return m
        return self.once(("mat", g), build)

    def groups2(self):
        """Affine loads of a nest's inner loop, grouped by (size, sign,
        inner stride, whether the base moves with the outer loop): each
        group is read as one ``(members, n, T)`` (or ``(members, T)``)
        array."""
        def build():
            groups, of, index = [], {}, {}
            pos = self.t["load_pos"]
            for node in sorted(pos, key=pos.get):
                af = _aff2(node[1]) if self.is_j(node) else None
                if af is None:
                    continue
                base, s = af
                key = (node[2], node[3], s, self.is_vec(base))
                g = index.get(key)
                if g is None:
                    g = index[key] = len(groups)
                    groups.append({"size": node[2], "signed": node[3],
                                   "stride": s, "bases": []})
                of[node] = (g, len(groups[g]["bases"]))
                groups[g]["bases"].append(base)
            return groups, of
        return self.once("groups2", build)

    def mat2(self, g):
        """Raw element array and byte range of 2-D load group ``g``."""
        def build():
            grp = self.groups2()[0][g]
            bases = ", ".join(self.as_u(b) for b in grp["bases"])
            dt = self.const(_ELEM[grp["size"], grp["signed"]])
            m, lo, hi = (f"v{self.nvar + i}" for i in range(3))
            self.nvar += 3
            self.line(f"{m}, {lo}, {hi} = _gather2(mem, mlen, [{bases}], "
                      f"{grp['stride']}, {self.trip()}, {grp['size']}, {dt})")
            return m, lo, hi
        return self.once(("mat2", g), build)

    def mat64(self, g):
        return self.once(("mat64", g), lambda: self.tmp(
            f"{self.mat(g)}.astype(np.int64)"))

    def raw_row(self, node):
        """``(group, row)`` holding ``node``'s raw values, or None."""
        if node[0] == "load":
            return self.gof.get(node)
        if node[0] == "sprin":
            k, o = node[1], node[2]
            if o:
                return self.raw_row(self.t["spr"][k][o - 1])
            return self.prev_row.get(k)
        return None

    def rows(self, g, idx):
        """Rows ``idx`` of group ``g``'s raw matrix (a slice when they
        are consecutive)."""
        m = self.mat(g)
        grp = self.groups[g]
        if idx == list(range(idx[0], idx[0] + len(idx))):
            if len(idx) == len(grp["members"]) + len(grp["prev"]):
                return m
            return self.tmp(f"{m}[{idx[0]}:{idx[0] + len(idx)}]")
        return self.tmp(f"{m}[{self.const(np.array(idx, dtype=np.intp))}]")

    # -------------------------------------------------- final values
    def lower_finals(self, roots):
        """Final values of the accumulators whose completed sum is only
        read after the window (``roots``): ``entry + c*n + sum(terms)``,
        with isomorphic dot/mac terms batched into one product-sum."""
        accs = [p for p, spec in self.res.items() if spec[0] == "acc"
                and ("sum", p, spec[1], spec[2]) in roots]
        parts = {p: [] for p in accs}
        batches = {}
        for p in accs:
            for term in self.res[p][1]:
                key = self._batch_key(term)
                if key is not None:
                    batches.setdefault(key[0], []).append((p, key[1], key[2]))
                elif self.is_vec(term):
                    parts[p].append(f"int({self.w(term)}.sum())")
                else:
                    parts[p].append(f"n * {self.S(term)}")
        for (op, ga, gb), items in batches.items():
            a = self.rows(ga, [ra for _, ra, _ in items])
            b = self.rows(gb, [rb for _, _, rb in items])
            sums = self.tmp(f"{_ROWS[op]}({a}, {b})")
            for i, (p, _, _) in enumerate(items):
                parts[p].append(f"{sums}[{i}]")
        for p in accs:
            c = _sext(self.res[p][2])
            terms = [self.entry(p)] + ([f"{c} * n"] if c else []) + parts[p]
            self.finals[p] = self.tmp(f"({' + '.join(terms)}) & {_M}")

    def _batch_key(self, term):
        if term[0] != "alu" or term[1] not in _ROWS:
            return None
        ra, rb = self.raw_row(term[2]), self.raw_row(term[3])
        if ra is None or rb is None:
            return None
        if term[1] != "macterm" and (self.groups[ra[0]]["size"] != 4
                                     or self.groups[rb[0]]["size"] != 4):
            return None
        return (term[1], ra[0], rb[0]), ra[1], rb[1]

    # ---------------------------------------------------- last values
    def L(self, node):
        if not self.is_vec(node):
            return self.S(node)
        return self.once(("L", node), lambda: self._last(node))

    def _last(self, node):
        k = node[0]
        af = self.affine(node)
        if af is not None:
            return self.tmp(f"({af[0]} + {af[1]} * (n - 1)) & {_M}")
        if k == "sum":
            p = node[1]
            if p in self.finals and node == ("sum", p) + self.res[p][1:]:
                return self.finals[p]
            parts = [self.L(x) for x in _addends(node)]
            return self.tmp(f"({' + '.join(parts)} + {node[3] & _M}) & {_M}")
        if k == "alu":
            return self.tmp(f"{self.sop(node[1])}({self.L(node[2])}, "
                            f"{self.L(node[3])}, {node[4]}) & {_M}")
        if k == "pla":
            tbl = "_SIG_M, _SIG_Q" if node[2] else "_TANH_M, _TANH_Q"
            return self.tmp(f"_pla_scalar(_signed32({self.L(node[1])}), "
                            f"{tbl}, {node[2]}) & {_M}")
        if k == "load" and node in self.gof:
            self.group(self.gof[node][0])
            x0, s = self.affine(node[1])
            return self.tmp(f"_ld(mem, ({x0} + {s} * (n - 1)) & {_M}, "
                            f"{node[2]}, {node[3]})")
        if k == "sprin":
            occ = self.t["spr"][node[1]]
            if node[2]:
                return self.L(occ[node[2] - 1])
            if occ[-1] in self.gof:
                self.group(self.gof[occ[-1]][0])
                x0, s = self.affine(occ[-1][1])
                return self.tmp(f"sprs[{node[1]}] if n == 1 else _ld(mem, "
                                f"({x0} + {s} * (n - 2)) & {_M}, 4, False)")
        return self.tmp(f"int({self.V(node)[0]}[-1]) & {_M}")

    # --------------------------------------------------- load records
    def load_rec(self, node, pos):
        """Range-check ``node`` (even if its value is dead) and return
        its ``(pos, lo, hi, base, stride, size)`` record expression."""
        size = node[2]
        if self.is_j(node):
            # A nest's inner load: its whole 2-D range, with no stride
            # (any overlap with a store bails).
            gi = self.groups2()[1].get(node)
            if gi is not None:
                _m, lo, hi = self.mat2(gi[0])
                return f"({pos}, {lo}, {hi}, {lo}, None, {size})"
            self.V(node)
            lo, hi, _a = self.dyn[node]
            return f"({pos}, {lo}, {hi} + {size - 1}, {lo}, None, {size})"
        gi = self.gof.get(node)
        if gi is not None:
            self.group(gi[0])
            x0, s = self.affine(node[1])
            end = f"{x0} + {s} * (n - 1)"
            lo, hi = (x0, end) if s >= 0 else (end, x0)
            return f"({pos}, {lo}, {hi} + {size - 1}, {x0}, {s}, {size})"
        if not self.is_vec(node[1]):
            self.S(node)
            a = self.S(node[1])
            return f"({pos}, {a}, {a} + {size - 1}, {a}, 0, {size})"
        self.V(node)
        lo, hi, a = self.dyn[node]
        return (f"({pos}, {lo}, {hi} + {size - 1}, int({a}[0]), "
                f"_stride_of({a}), {size})")


def _lower_body(t, groups):
    """Source of ``body(regs, mem, sprs, n, cells, clk, ready, xi, T)``:
    evaluate n iterations (``T`` inner trips each, in a nest), check,
    then commit them."""
    lw = _Lower(t, groups)
    lw.line("mlen = len(mem)")
    lw.line("mbytes = mlen << 2")
    # The window's first read of each SPR waits for the load that fed
    # it before the window (rule 5); every later read is stall-free
    # (the walk's gap rule), so these are the only dynamic cycles.
    stalls = []
    for before, _off, k in t["spr_first"]:
        before = " - ".join([f"{before}"] + stalls)
        lw.line(f"w{k} = ready[{k}] - clk[0] - {before}")
        lw.line(f"w{k} = w{k} if w{k} > 0 else 0")
        stalls.append(f"w{k}")
    roots = {node for _, node in t["writes"]} | \
        {node for _, node in t["slots"]}
    lw.lower_finals(roots)
    regs = [(r, lw.L(node)) for r, node in t["writes"]]
    slots = [(lw.slot_addr(key), lw.L(node)) for key, node in t["slots"]]
    sprs = [(k, lw.L(occ[-1])) for k, occ in t["spr"].items() if occ]
    stores, srecs = [], []
    todo = _merge_stores(lw, t["stores"], stores, srecs) if t.get("unit") \
        else t["stores"]
    for anode, vnode, size, pos in todo:
        if lw.is_j(anode) or lw.is_j(vnode):
            # A nest's inner store: T stores per outer iteration, in
            # order; no stride (any overlap with another access bails).
            T = lw.trip()
            base, stride = f"v{lw.nvar}", f"v{lw.nvar + 1}"
            lw.nvar += 2
            lw.line(f"{base}, {stride} = _store_vec(np.broadcast_to("
                    f"{lw.as_u(anode, True)}, (n, {T})).ravel(), n * {T})")
            value = lw.tmp(f"np.broadcast_to({lw.w(vnode, True)}, "
                           f"(n, {T})).ravel()")
            lo, hi, st = f"v{lw.nvar}", f"v{lw.nvar + 1}", f"v{lw.nvar + 2}"
            lw.nvar += 3
            lw.line(f"{lo}, {hi}, {st} = _store_range({base}, {stride}, "
                    f"n * {T}, {size}, mbytes)")
            stores.append((size, base, st, value, f"n * {T}"))
            srecs.append(f"({pos}, {lo}, {hi}, {base}, None, {size})")
            continue
        if lw.is_vec(anode):
            af = lw.affine(anode)
            if af is not None:
                base, stride = af
            else:
                base, stride = f"v{lw.nvar}", f"v{lw.nvar + 1}"
                lw.nvar += 2
                lw.line(f"{base}, {stride} = _store_vec({lw.as_u(anode)}, n)")
            value = lw.L(vnode) if stride == 0 else lw.w(vnode)
        else:
            base, stride, value = lw.S(anode), 0, lw.L(vnode)
        lo, hi, st = f"v{lw.nvar}", f"v{lw.nvar + 1}", f"v{lw.nvar + 2}"
        lw.nvar += 3
        lw.line(f"{lo}, {hi}, {st} = _store_range({base}, {stride}, n, "
                f"{size}, mbytes)")
        stores.append((size, base, st, value, "n"))
        srecs.append(f"({pos}, {lo}, {hi}, {base}, {st}, {size})")
    # The rows of one 2-D load group share one record.
    lrecs = list(dict.fromkeys(
        lw.load_rec(node, pos) for node, pos in
        sorted(t["load_pos"].items(), key=lambda kv: kv[1])))
    _lower_guards(lw, t["guards"])
    slot_ids = {key: i for i, key in enumerate(
        sorted({key for key, _ in t["slots"]} | set(t["sloads"]),
               key=repr))}
    sread = [(slot_ids[key], lw.slot_addr(key)) for key in t["sloads"]]
    if stores or slots:
        swrite = [(slot_ids[key], a) for (key, _), (a, _) in
                  zip(t["slots"], slots)]
        srecs += [f"(None, {a}, {a} + 3, {a}, 0, 4)" for a, _ in slots]
        lw.line(f"_no_alias([{', '.join(lrecs)}], [{', '.join(srecs)}], "
                f"{len(stores)}, [{', '.join(f'({i}, {a})' for i, a in sread)}"
                f"], [{', '.join(f'({i}, {a})' for i, a in swrite)}])")
    # ---------------------------------------------- all checks passed
    for size, base, st, value, count in stores:
        lw.line(f"_store(mem, {size}, {base}, {st}, {count}, {value})")
    for a, value in slots:
        lw.line(f"mem[{a} >> 2] = {value}")
    for r, value in regs:
        lw.line(f"regs[{r}] = {value}")
    T = lw.trip() if t["nest"] is not None else None
    if not t.get("unit"):
        # A rerolled run's wrapper commits every unit's own cells.
        for off, (kc, kt, cc, ct) in t["cells"]:
            lw.line(f"x = cells[{off}]; x[0] += {_lin(kc, kt, T)} * n; "
                    f"x[1] += {_lin(cc, ct, T)} * n")
    for _before, off, k in t["spr_first"]:
        lw.line(f"cells[{off}][1] += w{k}")
    sums = [sum(c[k] for _, c in t["cells"]) for k in range(4)]
    total = " + ".join([f"{_lin(sums[2], sums[3], T)} * n"] + stalls)
    lw.line(f"clk[0] += {total}")
    for k, value in sprs:
        lw.line(f"sprs[{k}] = {value}")
        lw.line(f"ready[{k}] = clk[0] + {2 - t['spr_tail'][k]}")
    lw.line(f"xi[0] += {_lin(sums[0], sums[1], T)} * n")
    return lw.source("def body(regs, mem, sprs, n, cells, clk, ready, xi, "
                     "T=0, sc=(), ss=()):"), lw.consts


def _merge_stores(lw, todo, stores, srecs):
    """Commit as one store each set of a unit's stores that fills one
    contiguous block per unit (a tile's outputs: ``size``-byte stores at
    ``base + i*size``, ``base`` advancing by their total per unit); the
    rest are returned.  A merged store's record has no stride, so any
    overlap with a load bails."""
    groups = {}
    for rec in todo:
        anode, vnode, size, _pos = rec
        s = _aff_stride(anode, lw.res)
        if s is None or lw.is_j(vnode) or not lw.is_vec(vnode):
            continue
        root, c = (anode[1], anode[3]) if anode[0] == "sum" else (anode, 0)
        groups.setdefault((root, size, s), []).append((_sext(c), rec))
    merged = set()
    for (_root, size, s), members in groups.items():
        members.sort(key=lambda m: m[0])
        k = len(members)
        if k < 2 or s != k * size or [m[0] for m in members] != \
                list(range(members[0][0], members[0][0] + k * size, size)):
            continue
        base = lw.affine(members[0][1][0])[0]
        family = lw.fam([m[1][1] for m in members])
        value = lw.tmp(f"{lw.w(family)}.T.ravel()")
        lo, hi, st = f"v{lw.nvar}", f"v{lw.nvar + 1}", f"v{lw.nvar + 2}"
        lw.nvar += 3
        lw.line(f"{lo}, {hi}, {st} = _store_range({base}, {size}, n * {k}, "
                f"{size}, mbytes)")
        stores.append((size, base, st, value, f"n * {k}"))
        srecs.append(f"({members[0][1][3]}, {lo}, {hi}, {base}, None, "
                     f"{size})")
        merged.update(id(m[1]) for m in members)
    return [rec for rec in todo if id(rec) not in merged]


def _lin(c, per_trip, T):
    """Source of ``c + per_trip*T``."""
    return str(c) if not per_trip else f"({c} + {per_trip} * {T})"


def _lower_guards(lw, guards):
    """Bail unless every unrolled branch decision holds over the window:
    each guarded value stays inside its no-wrap range."""
    ranges = {}
    for x, signed, lo, hi in guards:
        r = ranges.setdefault((x, signed), [lo, hi])
        r[0], r[1] = max(r[0], lo), min(r[1], hi)
    for (x, signed), (lo, hi) in ranges.items():
        if lo > hi:
            raise _Unsupported("contradictory unrolled branches")
        v = lw.as_s(x) if signed else lw.as_u(x)
        if lw.arr(x):
            lw.line(f"if {v}.min() < {lo} or {v}.max() > {hi}: raise _Bail")
        else:
            lw.line(f"if not {lo} <= {v} <= {hi}: raise _Bail")


def _solve_trip(lw, nest):
    """Source of a nest's inner trip count ``T``: a constant, or solved
    from the exit operands, which must not vary with the outer loop."""
    if nest is None:
        return "0"
    if nest["T"] is not None:
        return str(nest["T"])
    x0, y = nest["x0"], nest["y"]
    if lw.is_vec(x0) or lw.is_vec(y):
        raise _Unsupported("inner trip count varies")
    lw.line(f"T = _exit({nest['m']!r}, {lw.S(x0)}, {nest['s']}, "
            f"{lw.S(y)}, {NEST_ELEMS}, {nest['swapped']}) + 1")
    lw.line(f"if T > {NEST_ELEMS}: raise _Bail")
    return "T"


def _lower_cond(t, groups):
    """Source of ``cond(regs, mem, sprs, n)``: the number of leading
    iterations (capped at n) whose closing branch is taken, solved in
    closed form, and a nest's inner trip count (0 outside nests).  The
    exit test must compare an affine induction against an invariant."""
    lw = _Lower(t, groups)
    lw.line("mlen = len(mem)")
    m, a, b = t["cond"]
    af = {x: lw.affine(x) if lw.is_vec(x) else (lw.S(x), 0) for x in (a, b)}
    if af[a] is None or af[b] is None or lw.is_vec(a) and lw.is_vec(b):
        raise _Unsupported("exit not closed-form")
    T = _solve_trip(lw, t["nest"])
    swapped = lw.is_vec(b)
    (x0, s), y = (af[b], af[a][0]) if swapped else (af[a], af[b][0])
    lw.line(f"return _exit({m!r}, {x0}, {s}, {y}, n, {swapped}), {T}")
    return lw.source("def cond(regs, mem, sprs, n):"), lw.consts


class _Kernel:
    """The generated functions of one loop-body shape.

    An iteration retires ``blen + blen_t*T`` instructions, ``T`` being a
    loop nest's inner trip count (which ``cond`` returns)."""

    def __init__(self, t):
        self.blen = sum(c[0] for _, c in t["cells"])
        self.blen_t = sum(c[1] for _, c in t["cells"])
        self.br_cost = t["costs"][-1]
        self.nest = t["nest"] is not None
        # SPRs whose ready time a window sets, and the hardware loop a
        # nest's inner level runs: (loop set, body start, end, count),
        # start and end as offsets from the body's first instruction
        # (the kernel is shared by every site of its shape).
        self.sprs = [k for k, occ in t["spr"].items() if occ]
        # (offset, [count, count per trip, cycles, cycles per trip]) of
        # each instruction: a rerolled run's wrapper commits them.
        self.cells = t["cells"]
        self.hw = t["hwloop"]
        groups = _load_groups(t)
        self.cond, self.source = None, ""
        if t["cond"] is not None:
            # An exit without a closed form rejects the loop before its
            # body is compiled.
            src, consts = _lower_cond(t, groups)
            self.cond = _exec(src, consts, "cond")
            self.source = src + "\n"
        src, consts = _lower_body(t, groups)
        self.source += src
        self.body = _exec(src, consts, "body")

    def pays(self, trips, T=0):
        """Is a window of ``trips`` iterations worth its fixed cost?  A
        nest's iterations carry ``T`` inner trips, so it needs no
        minimum iteration count."""
        return (self.nest or trips >= VEC_MIN_ITERS) and \
            trips * (self.blen + self.blen_t * T) >= VEC_MIN_WORK


def _exec(src, consts, name):
    ns = dict(_KERNEL_NS)
    ns.update(consts)
    exec(compile(src, f"<turbo {name}>", "exec"), ns)
    return ns[name]


#: Process-wide kernel cache: body shape -> _Kernel, or None for shapes
#: that keep their closures.
_KERNELS = {}


def _shape_key(program, kind, bs, be, wait):
    """Everything a loop template depends on: the body's instructions
    (position-dependent constants only where ``jal``/``auipc`` bake in
    an address), wait states, loop kind, and — for a body ending in a
    load — the registers the next instruction reads (its stall)."""
    body = []
    for i in range(bs, be + 1):
        ins = program[i]
        where = ins.addr if ins.mnemonic == "auipc" or \
            (ins.mnemonic == "jal" and ins.rd) else None
        body.append((ins.mnemonic, ins.rd, ins.rs1, ins.rs2, ins.imm,
                     ins.imm2, ins.loop, where))
    nxt = None
    if program[be].spec.is_load and be + 1 < len(program) and \
            not program[be].mnemonic.startswith("pl.sdotsp"):
        nxt = reads_mask(program[be + 1])
    return kind, wait, tuple(body), nxt


def _loop_kernel(program, wait, kind, bs, be):
    """The cached kernel for the loop body ``bs..be``, compiling it on
    first sight of its shape; None if the body is not vectorizable."""
    key = _shape_key(program, kind, bs, be, wait)
    if key in _KERNELS:
        kernel = _KERNELS[key]
        if kernel is not None:
            _TURBO_EVENTS.inc(event="kernel_cache_hit")
        return kernel
    try:
        kernel = _Kernel(_try_loop_template(
            program, wait, bs, be, cond_term=be if kind == "br" else None,
            nest=kind == "br"))
        _TURBO_EVENTS.inc(event="kernel_compile")
    except _Unsupported:
        kernel = None
    _KERNELS[key] = kernel
    return kernel


# ----------------------------------------------------------------------
# Wrappers installed into the turbo code table
# ----------------------------------------------------------------------
def _reraise_oob(cpu, i):
    instr = cpu.program[i]
    raise MemoryError32(
        f"memory access out of range at pc=0x{instr.addr:x} "
        f"({instr})") from None


def _make_hw_wrapper(cpu, idx, plan):
    setup_fn = cpu._code[idx]
    hw = cpu._hw
    base = plan["loopreg"] * 4
    ob = 4 - base
    bs, be = plan["bs"], plan["be"]
    kernel = plan["kernel"]
    body = kernel.body
    regs, mem, sprs = cpu.regs, cpu.memory.words, cpu.sprs
    cells = cpu._stats[bs:be + 1]
    clk, ready = cpu.clk, cpu._spr_ready
    xi = cpu._xinstret
    xlimit = cpu._xlimit
    tstats = cpu.turbo_stats
    state = {"bails": 0}

    def wrapper():
        nxt = setup_fn()
        if not hw[base]:
            return nxt  # zero-trip lp.setup skipped the body
        n = hw[base + 3]
        if state["bails"] >= MAX_BAILS or not kernel.pays(n):
            return nxt
        if hw[ob] and bs <= hw[ob + 2] <= be:
            return nxt  # the other loop set's back edge ends in our body
        done = 0
        while done < n:
            c = min(n - done, N_MAX)
            try:
                body(regs, mem, sprs, c, cells, clk, ready, xi)
            except _Bail:
                state["bails"] += 1
                tstats["bails"] += 1
                _BAILS.inc()
                break
            tstats["vector_loops"] += 1
            tstats["vector_iters"] += c
            done += c
            if xi[0] > xlimit[0]:
                raise ExecutionLimitExceeded(
                    f"exceeded {cpu.max_instrs} instructions")
        rem = n - done
        if rem > 0:
            hw[base + 3] = rem
            return bs
        hw[base] = 0
        hw[base + 3] = 0
        return be + 1
    return wrapper


def _hw_tail(loop, at=0):
    """``(base, state)``: the hardware-loop registers the interpreter
    leaves after the last trip of ``loop`` (loop set, body start and end
    as offsets from ``at``, count), or ``(0, None)``."""
    if loop is None:
        return 0, None
    lp, bs, be, count = loop
    return lp * 4, [0, at + bs, at + be, count - max(count, 1)]


def _make_br_wrapper(cpu, idx, plan):
    code = cpu._code
    hw = cpu._hw
    bs, be = plan["bs"], plan["be"]
    kernel = plan["kernel"]
    body, cond = kernel.body, kernel.cond
    br_cost, nest = kernel.br_cost, kernel.nest
    regs, mem, sprs = cpu.regs, cpu.memory.words, cpu.sprs
    sprs_set = kernel.sprs
    hw_base, hw_tail = _hw_tail(kernel.hw, bs)
    setups = {i for i in range(bs, be) if cpu.program[i].mnemonic in
              ("lp.setup", "lp.setupi")}
    cells = cpu._stats[bs:be + 1]
    last = cpu._stats[be]
    clk, ready = cpu.clk, cpu._spr_ready
    xi = cpu._xinstret
    xlimit = cpu._xlimit
    tstats = cpu.turbo_stats
    state = {"bails": 0}

    def bail():
        state["bails"] += 1
        tstats["bails"] += 1
        _BAILS.inc()

    def iteration():
        """One iteration on the closures, up to its closing branch, the
        back edge of a branch loop inside the body or the setup of a
        hardware loop inside it (its wrapper windows it and the run loop
        takes its back edges); the run loop steps (and budgets) the
        rest."""
        i, count = bs, 1
        try:
            while True:
                j = code[i]()
                if i == be or j <= i or j in setups:
                    xi[0] += count
                    return j
                i = j
                count += 1
        except IndexError:
            _reraise_oob(cpu, i)

    def windows(k, T):
        """Vector windows from the loop head to its exit (``k``, ``T``:
        the leading taken iterations and inner trip count ``cond``
        solved there); the exit index, or None after a bail."""
        while True:
            exited = k < N_MAX
            r = k + 1 if exited else N_MAX
            if r * T > NEST_ELEMS:
                # A nest's 2-D temporaries stay bounded: whole outer
                # iterations, NEST_ELEMS inner trips at a time.
                r, exited = max(1, NEST_ELEMS // T), False
            try:
                body(regs, mem, sprs, r, cells, clk, ready, xi, T)
            except _Bail:
                return bail()
            # taken branches cost 2; the exit branch falls through for 1
            extra = 2 * r - (1 if exited else 0) - r * br_cost
            clk[0] += extra
            last[1] += extra
            # Every taken branch before the window's last SPR loads
            # delayed them a cycle.
            for k in sprs_set:
                ready[k] += r - 1
            if hw_tail is not None:
                hw[hw_base:hw_base + 4] = hw_tail
            tstats["vector_loops"] += 1
            tstats["vector_iters"] += r
            if nest:
                tstats["nest_loops"] += 1
            if xi[0] > xlimit[0]:
                raise ExecutionLimitExceeded(
                    f"exceeded {cpu.max_instrs} instructions")
            if exited:
                return be + 1
            try:  # a window short of the exit: solve again from here
                k, T = cond(regs, mem, sprs, N_MAX)
            except _Bail:
                return bail()

    def wrapper():
        if hw[0] or hw[4]:
            return code[bs]()  # stale active loop state: stay scalar
        xi[0] -= 1  # the dispatch counted one; count what retires here
        if state["bails"] < MAX_BAILS:
            try:
                k, T = cond(regs, mem, sprs, N_MAX)
            except _Bail:
                bail()
            else:
                if kernel.pays(k + 1, T):
                    nxt = windows(k, T)
                    if nxt is not None:
                        return nxt
                else:
                    # Too short for a window: run it on the closures.
                    j = bs
                    while j == bs:
                        j = iteration()
                    return j
        return iteration()
    return wrapper


def _make_fuse_wrapper(cpu, idx, plan):
    """The compiled stepper of the block ``idx .. plan["end"] - 1``."""
    def fault(k):
        _reraise_oob(cpu, idx + k)
    return plan["make"](cpu.regs, cpu.memory.words, cpu.sprs,
                        cpu._spr_ready, cpu.clk, cpu._stats[idx:plan["end"]],
                        cpu._hw, cpu._xinstret, cpu._code[idx], fault,
                        plan["end"], plan["consts"])


def _make_run_wrapper(cpu, idx, plan):
    """A rerolled run: one window over its units, or after a bail the
    first unit's compiled block (and the per-unit windows after it)."""
    fallback = _make_fuse_wrapper(cpu, idx, plan["fuse"])
    hw = cpu._hw
    body = plan["kernel"].body
    n, T, end = plan["n"], plan["T"], plan["end"]
    sc, ss = plan["sc"], plan["ss"]
    regs, mem, sprs = cpu.regs, cpu.memory.words, cpu.sprs
    unit = plan["unit"]
    cells = cpu._stats[idx:idx + n * unit]
    # Every unit's cells, grouped by their [count, cycles] increment:
    # constant increments commit fastest.
    groups = {}
    for off, (kc, kt, cc, ct) in plan["kernel"].cells:
        groups.setdefault((kc + kt * T, cc + ct * T), []).append(off)
    commits = [(a, b, [cells[u * unit + off] for u in range(n)
                       for off in offs])
               for (a, b), offs in groups.items()]
    clk, ready = cpu.clk, cpu._spr_ready
    xi = cpu._xinstret
    xlimit = cpu._xlimit
    tstats = cpu.turbo_stats
    hw_base, hw_tail = _hw_tail(plan["hw"])
    state = {"bails": 0}

    def wrapper():
        if hw[0] or hw[4] or state["bails"] >= MAX_BAILS:
            return fallback()
        try:
            body(regs, mem, sprs, n, cells, clk, ready, xi, T, sc, ss)
        except _Bail:
            state["bails"] += 1
            tstats["bails"] += 1
            _BAILS.inc()
            return fallback()
        for a, b, group in commits:
            for x in group:
                x[0] += a
                x[1] += b
        hw[hw_base:hw_base + 4] = hw_tail
        xi[0] -= 1  # the dispatch counted one
        tstats["vector_loops"] += 1
        tstats["nest_loops"] += 1
        tstats["vector_iters"] += n
        if xi[0] > xlimit[0]:
            raise ExecutionLimitExceeded(
                f"exceeded {cpu.max_instrs} instructions")
        return end
    return wrapper


# ----------------------------------------------------------------------
# Compiled straight-line blocks: one generated scalar function per shape
# ----------------------------------------------------------------------
#: ALU ops lowered inline (``a``/``b`` the source registers, ``i`` the
#: site's immediate, ``d`` the old rd); the rest call their ``ALU_OPS``
#: entry.
_INLINE = {
    "addi": "({a} + {i}) & 4294967295",
    "add": "({a} + {b}) & 4294967295",
    "sub": "({a} - {b}) & 4294967295",
    "and": "{a} & {b}", "or": "{a} | {b}", "xor": "{a} ^ {b}",
    "andi": "{a} & {i} & 4294967295",
    "ori": "({a} | {i}) & 4294967295",
    "xori": "({a} ^ {i}) & 4294967295",
    "slli": "({a} << {i}) & 4294967295",
    "srli": "{a} >> {i}",
    "srai": "((({a} ^ 2147483648) - 2147483648) >> {i}) & 4294967295",
    "sll": "({a} << ({b} & 31)) & 4294967295",
    "srl": "{a} >> ({b} & 31)",
    "sra": "((({a} ^ 2147483648) - 2147483648) >> ({b} & 31)) "
           "& 4294967295",
    "slt": "1 if ({a} ^ 2147483648) < ({b} ^ 2147483648) else 0",
    "sltu": "1 if {a} < {b} else 0",
    "slti": "1 if ({a} ^ 2147483648) - 2147483648 < {i} else 0",
    "sltiu": "1 if {a} < {i} else 0",
    "mul": "({a} * {b}) & 4294967295",
    "p.mac": "({d} + (({a} ^ 2147483648) - 2147483648) * "
             "(({b} ^ 2147483648) - 2147483648)) & 4294967295",
    "p.max": "{a} if ({a} ^ 2147483648) > ({b} ^ 2147483648) else {b}",
    "p.min": "{a} if ({a} ^ 2147483648) < ({b} ^ 2147483648) else {b}",
    "p.maxu": "{a} if {a} > {b} else {b}",
    "p.minu": "{a} if {a} < {b} else {b}",
}
#: Inline ops that take no immediate.
_NO_IMM = frozenset({"add", "sub", "and", "or", "xor", "sll", "srl", "sra",
                     "slt", "sltu", "mul", "p.mac", "p.max", "p.min",
                     "p.maxu", "p.minu"})


def _const_kind(m):
    """How a block instruction's per-site constants come from its
    immediate: 0 none, 1 the immediate, 2 ``lui``, 3 ``auipc``, 4 the
    ``p.clip`` bounds, 5 the unsigned immediate."""
    if m.startswith("pl."):
        return 0
    if m in ("lui", "auipc", "p.clip", "sltiu"):
        return {"lui": 2, "auipc": 3, "p.clip": 4, "sltiu": 5}[m]
    if SPECS[m].is_load or SPECS[m].is_store:
        return 1
    return 0 if m in _NO_IMM or m in ACC_ALU_OPS or m not in ALU_OPS else 1


def _cost_kind(m):
    """0 one cycle, 1 a load (its load-use stall and wait states), 2 a
    store or ``pl.sdotsp`` (wait states; the SPR stall is dynamic), 3 a
    division."""
    if m.startswith("pl.sdotsp"):
        return 2
    if SPECS[m].is_load:
        return 1
    if SPECS[m].is_store:
        return 2
    return 3 if m in _DIV_OPS else 0


#: Mnemonic -> (cost kind, constant kind) of every instruction a
#: compiled block holds.  The rest end a block (branches, jumps,
#: ``lp.setup``, ``ebreak``) or, like a CSR reading the live counters,
#: run on their closures between two compiled segments.
_BLOCK_KINDS = {m: (_cost_kind(m), _const_kind(m)) for m in SPECS
                if m in ALU_OPS or SPECS[m].is_load or SPECS[m].is_store
                or m in ("lui", "auipc", "pl.tanh", "pl.sig", "fence",
                         "ecall")}
#: Constants per constant kind.
_NCONSTS = (0, 1, 1, 1, 2, 1)


def _lower_block(shape):
    """Source and constants of ``make(...)``, the factory of one block
    shape's compiled stepper.

    ``shape`` is ``(mnemonic, rd, rs1, rs2, cost)`` per instruction.  An
    ``lp.setupi`` entry (``rd`` its loop set, ``rs1`` its count ``T``)
    makes the rest of the shape a short hardware loop, unrolled ``T``
    times.  Registers live in locals and are written back at the end;
    memory, the SPRs and their ready times are written in program order,
    as the closures write them.

    A value the block computes from its per-site constants alone (a
    ``lui``/``addi`` pair, a post-incremented pointer it set, the address
    of an access through one) is folded: ``derive`` computes it once per
    site, and such an access indexes its word directly.  The block
    checks at entry that every folded access is in range, else steps on
    the closures.  An out-of-range access through any other address (an
    ``IndexError`` from the word list) commits every earlier
    instruction's registers, cells and cycles and the hardware-loop
    registers, then raises the interpreter's ``MemoryError32`` through
    ``fault``."""
    body, loaded, written, stalls = [], [], {}, []
    ns = {"_pla_scalar": _pla_scalar, "_dot4b": _dot4b,
          "_TANH_M": _TANH_M, "_TANH_Q": _TANH_Q, "_SIG_M": _SIG_M,
          "_SIG_Q": _SIG_Q}
    # The executed order of the static instructions: the loop body
    # (everything after an ``lp.setupi``) T times.
    setup = next((j for j, entry in enumerate(shape)
                  if entry[0] == "lp.setupi"), None)
    order = list(range(len(shape)))
    if setup is not None:
        order += order[setup + 1:] * (shape[setup][2] - 1)
    prefix = [0]
    for j in order:
        prefix.append(prefix[-1] + shape[j][4])
    # Each static instruction's first per-site constant.
    cbase = [0]
    for entry in shape:
        cbase.append(cbase[-1] + (0 if entry[0] == "lp.setupi" else
                                  _NCONSTS[_BLOCK_KINDS[entry[0]][1]]))
    nconst = [0]
    spr_at = {}  # SPR -> the position of its last load so far
    defs, words = [], []  # derived constants; folded word indices
    val, held = {}, {}    # register -> its folded value; the one x<r> holds
    pos = [0]

    def folded(e):
        return e[0] in "cd"  # a per-site or derived constant

    def derive(expr):
        defs.append(f"d{len(defs)} = {expr}")
        return f"d{len(defs) - 1}"

    def get(r):
        if r in val:
            return val[r]
        if r not in written and r not in loaded:
            loaded.append(r)
        return f"x{r}"

    def put(r, expr):
        """Write register ``r`` (x0 included: a post-increment base)."""
        val.pop(r, None)
        held.pop(r, None)
        body.append(f"x{r} = {expr}")
        written.setdefault(r, pos[0])

    def fold(r, name):
        val[r] = name
        written.setdefault(r, pos[0])

    def const():
        nconst[0] += 1
        return f"c{nconst[0] - 1}"

    def may_fault():
        """Mark a position whose access may fault: the folded registers
        written so far get their locals, which the handler commits."""
        for r, name in val.items():
            if held.get(r) != name:
                body.append(f"x{r} = {name}")
                held[r] = name
        body.append(f"k = {pos[0]}")

    def access(rs1, postinc, size):
        """Address an access: ``(word, shift)`` of a folded one, else
        None after setting ``a``."""
        base = get(rs1)
        if not folded(base):
            may_fault()
            body.append(f"a = {base}" if postinc
                        else f"a = ({base} + {const()}) & 4294967295")
            return None
        a = base if postinc else \
            derive(f"({base} + {const()}) & 4294967295")
        w = derive(f"{a} >> 2")
        words.append(w)
        if postinc:
            fold(rs1, derive(f"({a} + {const()}) & 4294967295"))
        sh = None if size == 4 else \
            derive(f"({a} & {2 if size == 2 else 3}) << 3")
        return w, sh

    def post(rs1, postinc, got):
        if postinc and got is None:
            put(rs1, f"(a + {const()}) & 4294967295")

    for p, j in enumerate(order):
        m, rd, rs1, rs2, _cost = shape[j]
        if m == "lp.setupi":
            continue  # its registers are written at the end or a fault
        nconst[0] = cbase[j]
        pos[0] = p
        spec = SPECS[m]
        wd = rd or 32  # the closures' write sink for x0
        if m.startswith("pl.sdotsp."):
            k = int(m[-1])
            # A read two or more cycles after this block loaded the SPR
            # cannot stall (later stalls only delay the read further).
            wait = k not in spr_at or prefix[p] - prefix[spr_at[k]] < 2
            spr_at[k] = p
            if wait:
                body += [f"e = ready[{k}] - t - {prefix[p]} - st",
                         "if e < 0: e = 0"]
            acc = get(rd)
            if not rs2:
                dot = acc
            elif ".b." in m:
                dot = f"({acc} + _dot4b(sprs[{k}], {get(rs2)})) & 4294967295"
            else:
                y = get(rs2)
                body.append(f"h = sprs[{k}]")
                dot = (f"({acc} + (((h & 65535) ^ 32768) - 32768) * "
                       f"((({y} & 65535) ^ 32768) - 32768) + "
                       f"(((h >> 16) ^ 32768) - 32768) * "
                       f"((({y} >> 16) ^ 32768) - 32768)) & 4294967295")
            # rd is written before the load, as the closure writes it,
            # so it stays written when the load faults.
            pos[0] = p - 1
            put(wd, dot)
            pos[0] = p
            base = get(rs1)
            if folded(base):
                w = derive(f"{base} >> 2")
                words.append(w)
                body.append(f"sprs[{k}] = mem[{w}]")
                fold(rs1, derive(f"({base} + 4) & 4294967295"))
            else:
                may_fault()
                body += [f"a = {base}", f"sprs[{k}] = mem[a >> 2]"]
                put(rs1, "(a + 4) & 4294967295")
            if wait:
                body += [f"ready[{k}] = t + {prefix[p]} + st + e + 2",
                         "st += e", f"w{p} = e"]
                stalls.append((p, j))
            else:
                body.append(f"ready[{k}] = t + {prefix[p] + 2} + st")
        elif spec.is_load:
            got = access(rs1, spec.postinc, spec.size)
            word, sh = (f"mem[{got[0]}]", got[1]) if got else \
                ("mem[a >> 2]", "(a & 2) << 3" if spec.size == 2
                 else "(a & 3) << 3")
            if spec.size == 4:
                put(wd, word)
            else:
                mask = 65535 if spec.size == 2 else 255
                body.append(f"v = ({word} >> ({sh})) & {mask}")
                top = (mask + 1) >> 1
                put(wd, f"((v ^ {top}) - {top}) & 4294967295"
                    if spec.signed else "v")
            post(rs1, spec.postinc, got)
        elif spec.is_store:
            got = access(rs1, spec.postinc, spec.size)
            v = get(rs2) if rs2 else "0"
            if spec.size == 4:
                body.append(f"mem[{got[0] if got else 'a >> 2'}] = {v}")
            else:
                mask = 65535 if spec.size == 2 else 255
                if got:
                    q, sh = got
                    keep = derive(f"~({mask} << {sh})")
                    body.append(f"mem[{q}] = (mem[{q}] & {keep}) | "
                                f"(({v} & {mask}) << {sh})")
                else:
                    sh = "(a & 2) << 3" if spec.size == 2 else \
                        "(a & 3) << 3"
                    body += ["q = a >> 2", f"s = {sh}",
                             f"mem[q] = (mem[q] & ~({mask} << s)) | "
                             f"(({v} & {mask}) << s)"]
            post(rs1, spec.postinc, got)
        elif m in ("lui", "auipc"):
            fold(wd, const())
        elif m in ("pl.tanh", "pl.sig"):
            tbl = "_SIG_M, _SIG_Q, True" if m == "pl.sig" else \
                "_TANH_M, _TANH_Q, False"
            put(wd, f"_pla_scalar(({get(rs1)} ^ 2147483648) - 2147483648, "
                f"{tbl}) & 4294967295")
        elif m == "p.clip":
            lo, hi = const(), const()
            body.append(f"v = ({get(rs1)} ^ 2147483648) - 2147483648")
            put(wd, f"({lo} if v < {lo} else {hi} if v > {hi} else v) "
                "& 4294967295")
        elif m in ALU_OPS:
            form = _INLINE.get(m, "{b}")
            a = get(rs1)
            b = get(rs2) if "{b}" in form else None
            third = get(rd) if m in ACC_ALU_OPS else \
                None if m in _NO_IMM else const()
            if m in _INLINE:
                expr = form.format(a=a, b=b, i=third, d=third)
                if all(x is None or folded(x) for x in (a, b, third)):
                    fold(wd, derive(expr))
                    continue
            else:
                ns[f"_op{j}"] = ALU_OPS[m]
                expr = f"_op{j}({a}, {b}, {third})"
            put(wd, expr)
    n = len(order)
    costs = tuple(entry[4] for entry in shape)
    ns["_P"] = tuple(prefix)
    head = ["def blk():"]
    commit = [f"regs[{r}] = {val.get(r, f'x{r}')}" for r in written]
    if setup is None:
        ns["_Q"] = costs
        cells_fix = ["for x, q in zip(cells[:k], _Q):", "    x[0] += 1",
                     "    x[1] += q"]
        cells_all = ["for x, q in zip(cells, _Q):", "    x[0] += 1",
                     "    x[1] += q"]
        hw_fix, hw_all = [], []
    else:
        T, base = shape[setup][2], shape[setup][1] * 4
        L = len(shape) - setup - 1
        ns["_Q"], ns["_O"] = costs, tuple(order)
        ns["_C"] = tuple(1 if j <= setup else T for j in range(len(shape)))
        ns["_CQ"] = tuple(c * q for c, q in zip(ns["_C"], costs))
        cells_fix = ["for j in _O[:k]:", "    x = cells[j]", "    x[0] += 1",
                     "    x[1] += _Q[j]"]
        cells_all = ["for x, c, q in zip(cells, _C, _CQ):", "    x[0] += c",
                     "    x[1] += q"]
        # The loop registers as the interpreter leaves them: active with
        # the trips left during the loop, spent after its last trip.
        loop = f"hw[{base}:{base + 4}] = "
        hw_fix = [f"if k > {setup}: {loop}[1, end - {L}, end - 1, "
                  f"{T} - (k - {setup + 1}) // {L}]"]
        hw_all = [f"{loop}[0, end - {L}, end - 1, 0]"]
    fix = []
    if any(ln.startswith("k = ") for ln in body):
        # The handler commits what the closures would have committed
        # before the faulting access.
        fix = [f"regs[{r}] = x{r}" if r in loaded else
               f"if k > {p}: regs[{r}] = x{r}" for r, p in written.items()]
        fix += cells_fix
        fix += [f"if k > {p}: cells[{j}][1] += w{p}" for p, j in stalls]
        fix += hw_fix
        fix += ["clk[0] = t + _P[k]" + (" + st" if stalls else ""),
                "fault(k)" if setup is None else "fault(_O[k])"]
    tail = commit + cells_all + hw_all
    tail += [f"cells[{j}][1] += w{p}" for p, j in stalls]
    tail += [f"clk[0] = t + {prefix[-1]}" + (" + st" if stalls else ""),
             f"xi[0] += {n - 1}", "return end"]
    # The per-site values the stepper reads: one tuple per site, not one
    # closure cell per value (cells are objects the garbage collector
    # walks at every Cpu build).
    used = sorted(set(re.findall(r"\b[cd]\d+\b", "\n".join(
        body + fix + tail))), key=lambda x: (x[0], int(x[1:])))
    check = "hw[0] or hw[4]"
    if words:
        used.append("dmax")
        defs.append(f"dmax = max(({''.join(f'{w}, ' for w in words)}))")
        check += " or dmax >= len(mem)"
    if used:
        head.append(f"    {', '.join(used)}, = site")
    # A stale active loop (a branch out of its body), or a folded
    # access out of range, is stepped on the closures.
    head += [f"    if {check}:", "        return first()"]
    head += [f"    x{r} = regs[{r}]" for r in loaded]
    head.append("    t = clk[0]")
    if stalls:
        head.append("    st = 0")
    if fix:
        head.append("    try:")
        head += [f"        {ln}" for ln in body]
        head.append("    except IndexError:")
        head += [f"        {ln}" for ln in fix]
    else:
        head += [f"    {ln}" for ln in body]
    head += [f"    {ln}" for ln in tail]
    args = ["regs", "mem", "sprs", "ready", "clk", "cells", "hw", "xi",
            "first", "fault", "end", "consts"]
    src = "def derive(" + ", ".join(f"c{i}" for i in range(cbase[-1])) + \
        "):\n" + "".join(f"    {ln}\n" for ln in defs) + \
        f"    return ({''.join(f'{u}, ' for u in used)})\n\n\n" + \
        f"def make({', '.join(args)}):\n    site = derive(*consts)\n" + \
        "".join(f"    {ln}\n" for ln in head) + "    return blk\n"
    return src, ns


#: Process-wide block cache: block shape -> (factory of its stepper,
#: the shape).
_BLOCKS = {}


def _block_plan(program, wait, lo, hi):
    """The compiled-block plan of instructions ``lo .. hi - 1`` (after an
    ``lp.setupi``, the body of its short hardware loop)."""
    shape, consts = [], []
    kinds = _BLOCK_KINDS
    for i in range(lo, hi):
        ins = program[i]
        m, rd = ins.mnemonic, ins.rd
        if m == "lp.setupi":
            shape.append((m, ins.loop, ins.imm, 0, 1))
            continue
        ck, kk = kinds[m]
        if ck == 0:
            cost = 1
        elif ck == 1:  # the next instruction is in the block or ends it
            cost = 1 + wait + (rd and reads_mask(program[i + 1]) >> rd & 1)
        else:
            cost = 1 + wait if ck == 2 else DIV_CYCLES
        shape.append((m, rd, ins.rs1, ins.rs2, cost))
        if kk == 1:
            consts.append(ins.imm)
        elif kk:
            imm = ins.imm
            if kk == 2:
                consts.append((imm << 12) & _M32)
            elif kk == 3:
                consts.append((ins.addr + (imm << 12)) & _M32)
            elif kk == 5:
                consts.append(imm & _M32)
            elif imm:
                consts += [-(1 << (imm - 1)), (1 << (imm - 1)) - 1]
            else:
                consts += [-(1 << 31), 0]
    key = tuple(shape)
    hit = _BLOCKS.get(key)
    if hit is None:
        src, ns = _lower_block(key)
        hit = _BLOCKS[key] = (_exec(src, ns, "make"), key)
        _TURBO_EVENTS.inc(event="block_compile")
    # The cached key: every block of one shape shares one tuple.
    return {"end": hi, "make": hit[0], "consts": tuple(consts),
            "key": hit[1]}


# ----------------------------------------------------------------------
# Rerolled runs: adjacent level-e tiles as one nest window
# ----------------------------------------------------------------------
#: Block shape -> its materialized constants (see :func:`_site_plan`).
_SITE_PLANS = {}


def _site_plan(shape):
    """The materialized constants (``li``, ``auipc``) of a block shape:
    ``(offset, partner offset, const index, partner const index)`` each,
    the partner being the ``addi`` that completes a ``lui`` (or None)."""
    out = _SITE_PLANS.get(shape)
    if out is not None:
        return out
    out, at = [], [0]
    for entry in shape:
        at.append(at[-1] + _NCONSTS[_BLOCK_KINDS[entry[0]][1]])
    j = 0
    while j < len(shape):
        m, rd, rs1 = shape[j][:3]
        if rd and m in ("lui", "auipc"):
            nxt = shape[j + 1] if j + 1 < len(shape) else None
            if m == "lui" and nxt is not None and nxt[0] == "addi" and \
                    nxt[1] == nxt[2] == rd:
                out.append((j, j + 1, at[j], at[j + 1]))
                j += 2
                continue
            out.append((j, None, at[j], None))
        elif rd and m == "addi" and not rs1:
            out.append((j, None, at[j], None))
        j += 1
    _SITE_PLANS[shape] = out
    return out


def _unit_sites(plan):
    """``(values, other constants)`` of a unit's block: the value each
    materialized constant holds, and every other per-site constant."""
    consts = plan["consts"]
    values, used = [], set()
    for _j, _j2, c1, c2 in _site_plan(plan["key"]):
        used.add(c1)
        v = consts[c1]
        if c2 is not None:
            used.add(c2)
            v += consts[c2]
        values.append(v & _M32)
    return values, tuple(c for i, c in enumerate(consts) if i not in used)


def _interval(node, sites, N, T):
    """Value range of an address node over a run's units ``u < N`` and
    inner trips ``j < T``, or None when it depends on runtime state."""
    k = node[0]
    if k == "const":
        return node[1], node[1]
    if k == "site":
        c, s = sites[node[1]]
        return min(c, c + s * (N - 1)), max(c, c + s * (N - 1))
    if k == "j2":
        r = _interval(node[1], sites, N, T)
        d = node[2] * (T - 1)
        return None if r is None else (r[0] + min(0, d), r[1] + max(0, d))
    if k == "sum" and node[1] is None:
        lo = hi = node[3]
        for x in node[2]:
            r = _interval(x, sites, N, T)
            if r is None:
                return None
            lo, hi = lo + r[0], hi + r[1]
        return lo, hi
    return None


def _run_aliases(t, sites, N, T):
    """Does a store of the run land where the run loads, as far as the
    run's constants place them?  (Say, a conv tile's im2col copy that its
    own loop then reads.)  Such a run keeps its per-unit windows; the
    window's runtime check covers the addresses held in registers."""
    def ranges(accesses):
        out = []
        for addr, size in accesses:
            r = _interval(addr, sites, N, T)
            if r is not None:
                out.append((r[0], r[1] + size - 1))
        return out
    loads = ranges((node[1], node[2]) for node in t["load_pos"])
    return any(slo <= lhi and llo <= shi for slo, shi in
               ranges((a, size) for a, _v, size, _p in t["stores"])
               for llo, lhi in loads)


#: Process-wide unit cache: unit shape -> [template or None, kernel].
_UNITS = {}


def _unit_kernel(program, wait, run, sites):
    """The kernel of a run's unit shape, or None when the shape has none
    or the run aliases (:func:`_run_aliases`).  The run's materialized
    constants and its trip count are the kernel's arguments, so every
    run of one shape shares one walk and one compile."""
    bs, be, _values, sig, block, loop = run[0]
    vary = tuple(k for k, (_c, s) in enumerate(sites) if s)
    key = (wait, block["key"], sig[1], sig[2], sig[3], vary)
    unit = _UNITS.get(key)
    if unit is None:
        at = {}
        for k, (j, j2, _c1, _c2) in enumerate(_site_plan(block["key"])):
            at[bs + j] = k
            if j2 is not None:
                at[bs + j2] = -1
        try:
            t = _try_loop_template(program, wait, bs, be, nest=True,
                                   sites=at)
            if len(t["cells"]) != be - bs + 1 or t["hwloop"] is None:
                raise _Unsupported("not one block and one hardware loop")
            t["unit"], t["vary"] = True, vary
        except _Unsupported:
            t = None
        unit = _UNITS[key] = [t, None]
    t, kernel = unit
    if t is None or _run_aliases(t, sites, len(run), sig[4]):
        return None
    if kernel is None:
        try:
            kernel = unit[1] = _Kernel(t)
        except _Unsupported:
            unit[0] = None
            return None
        _TURBO_EVENTS.inc(event="kernel_compile")
    else:
        _TURBO_EVENTS.inc(event="kernel_cache_hit")
    return kernel


def _plan_runs(program, wait, plans):
    """Reroll the tiles: each maximal sequence of adjacent units — a
    compiled block ending at its own ``lp.setupi``, then that hardware
    loop — with one shape and one trip count, whose materialized
    constants advance by fixed strides, becomes a ``run`` plan at its
    first unit: one nest window of units x trips."""
    units = []
    for idx in sorted(plans):
        kind, plan = plans[idx]
        if kind != "fuse":
            continue
        setup = plan["end"]
        loop = plans.get(setup)
        if loop is None or loop[0] != "hw" or \
                program[setup].mnemonic != "lp.setupi" or \
                program[setup].imm < 1:
            continue
        loop = loop[1]
        values, rest = _unit_sites(plan)
        units.append((idx, loop["be"], values,
                      (plan["key"], rest, id(loop["kernel"]),
                       program[setup].loop, program[setup].imm),
                      plan, loop))
    i = 0
    while i < len(units):
        j, strides = i + 1, None
        while j < len(units) and units[j][0] == units[j - 1][1] + 1 and \
                units[j][3] == units[i][3]:
            d = [b - a for a, b in zip(units[j - 1][2], units[j][2])]
            if strides is not None and d != strides:
                break
            strides, j = d, j + 1
        if j - i >= VEC_MIN_ITERS:
            # Fewer units run faster one by one: a run window's fixed
            # cost is several unit windows'.
            _plan_run(program, wait, plans, units[i:j], strides)
        i = j


def _plan_run(program, wait, plans, run, strides):
    bs, be, values, sig, block, _loop = run[0]
    N, T = len(run), sig[4]
    kernel = _unit_kernel(program, wait, run, list(zip(values, strides)))
    if kernel is None:
        return
    last = run[-1][5]
    plans[bs] = ("run", {
        "kernel": kernel, "fuse": block, "n": N, "T": T,
        "unit": be - bs + 1, "end": run[-1][1] + 1, "sc": values,
        "ss": strides,
        "hw": (sig[3], last["bs"], last["be"], T)})
    _TURBO_EVENTS.inc(event="compile_run")


# ----------------------------------------------------------------------
# Program analysis: which entries get which wrapper
# ----------------------------------------------------------------------
def _try_loop_template(program, wait, bs, be, cond_term=None, nest=False,
                       budget=None, sites=None):
    stop = be if cond_term is None else be - 1
    walk = _Walk(program, bs, stop, wait, nest=nest, budget=budget,
                 sites=sites)
    extra = list(walk.load_pos)  # every access is range-checked
    extra += [g[0] for g in walk.guards]
    if walk.nest is not None and "hw" not in walk.nest:
        extra += [walk.nest["x0"], walk.nest["y"]]
    cond = None
    if cond_term is not None:
        instr = program[cond_term]
        a, b = walk._reg(instr.rs1), walk._reg(instr.rs2)
        cond = (instr.mnemonic, a, b)
        extra += [a, b]
        walk._tick(cond_term, 1)  # branch base (taken penalty at commit)
    res, writes, slots = _finalize(walk, extra)
    hw = walk.hw_loop
    cells = {}
    for i, kc, kt, cc, ct in walk.steps:
        cell = cells.setdefault(i - bs, [0, 0, 0, 0])
        for k, v in enumerate((kc, kt, cc, ct)):
            cell[k] += v
    t = {"costs": walk.costs, "writes": writes, "slots": slots,
         "stores": walk.stores, "spr": walk.spr, "res": res,
         "sloads": sorted(walk.slot_loaded, key=repr),
         "load_pos": walk.load_pos, "cond": cond, "spr_tail": {},
         "steps": walk.steps, "cells": sorted(cells.items()),
         "guards": walk.guards, "nest": walk.nest, "vary": (),
         "hwloop": hw and (hw[0], hw[1] - bs, hw[2] - bs, hw[3]),
         "spr_pos": walk.spr_pos, "spr_ins": walk.spr_ins,
         "spr_first": []}
    # Each SPR's first access (its only dynamic stall, on the window's
    # first iteration) and the cycles from its last load to the end of
    # the iteration (its ready time after the window).
    P, costs, inner = walk.nest_pos, walk.costs, walk.inner_spr

    def nest_cycles():
        if walk.nest_cycles is None:
            raise _Unsupported("SPR timing spans a runtime trip count")
        return walk.nest_cycles
    for k, ps in walk.spr_pos.items():
        if not ps:
            continue
        p = ps[0]
        before = sum(costs[:p]) + (
            inner[k][3] if p == P else
            nest_cycles() if P is not None and P < p else 0)
        t["spr_first"].append((before, walk.spr_ins[k][0] - bs, k))
        p = ps[-1]
        t["spr_tail"][k] = sum(costs[p + 1:]) + (
            inner[k][4] if p == P else costs[p] + (
                nest_cycles() if P is not None and P > p else 0))
    t["spr_first"].sort()
    return t


def analyze_program(program, wait_states=0):
    """Compile-time analysis: map instruction index -> turbo plan.

    Returns ``{idx: ("hw"|"br", plan) | ("fuse", end)}`` where a loop
    plan holds its body span, loop register and shape-shared kernel (a
    two-level nest's kernel has ``nest`` set); cached per
    :class:`Program` by :func:`build_turbo_code`.
    """
    cfg = build_cfg(program)
    plans = {}

    def straight(bs, be):
        """Body executes top-to-bottom: no branches, and the only jumps
        are fall-through ``jal`` fillers targeting the next index."""
        for i in range(bs, be):
            spec = program[i].spec
            if spec.is_branch:
                return False
            if spec.is_jump:
                instr = program[i]
                if instr.mnemonic != "jal" or \
                        (instr.addr + instr.imm) // 4 != i + 1:
                    return False
        return True

    loop_spans = [(lp.setup_idx, lp.body_end) for lp in cfg.loops]
    for lp in cfg.loops:
        if not straight(lp.body_start, lp.body_end):
            continue
        overlap = [s for s in loop_spans
                   if s != (lp.setup_idx, lp.body_end)
                   and s[0] <= lp.body_end and lp.setup_idx <= s[1]]
        if overlap:
            continue
        term = program[lp.body_end].spec
        if term.is_branch or term.is_jump:
            continue
        kernel = _loop_kernel(program, wait_states, "hw",
                              lp.body_start, lp.body_end)
        if kernel is None:
            continue
        plans[lp.setup_idx] = ("hw", {"kernel": kernel,
                                      "bs": lp.body_start,
                                      "be": lp.body_end,
                                      "loopreg": lp.index})
        _TURBO_EVENTS.inc(event="compile_hw")

    # Hardware-loop spans covering each index (setup to body end).
    covered = [0] * (len(program) + 1)
    for lo, hi in loop_spans:
        covered[lo] += 1
        covered[hi + 1] -= 1
    for i in range(1, len(covered)):
        covered[i] += covered[i - 1]
    setups = {lo for lo, _ in loop_spans}

    for block in cfg.blocks:
        start, end = block.start, block.end
        if block.id not in cfg.reachable or start in plans:
            continue
        # A block may end at its own loop's setup (a level-e tile
        # prologue): the fused stepper stops before it.
        if covered[start] or covered[end] > (end in setups):
            continue
        term = program[end]
        head = (term.addr + term.imm) // 4
        if term.spec.is_branch and head <= start and head < end and \
                not covered[head] and \
                cfg.block_at(head).id in cfg.reachable:
            # A branch loop; one over several blocks holds inner loops
            # that unroll, or one that becomes a nest's inner level.
            kernel = _loop_kernel(program, wait_states, "br", head, end)
            if kernel is not None:
                plans[head] = ("br", {"kernel": kernel, "bs": head,
                                      "be": end})
                _TURBO_EVENTS.inc(event="compile_br")
            if head == start:
                continue
        if len(block) >= FUSE_MIN:
            lo = start
            for i in range(start, end + 1):
                if i == end or program[i].mnemonic not in _BLOCK_KINDS:
                    if i - lo >= 2:
                        plans[lo] = ("fuse", _block_plan(
                            program, wait_states, lo, i))
                        _TURBO_EVENTS.inc(event="compile_fuse")
                    lo = i + 1
    _plan_runs(program, wait_states, plans)
    # A run's later units run only after a bail: they keep their loops.
    inside = {i for idx, (kind, plan) in plans.items() if kind == "run"
              for i in range(idx + 1, plan["end"])}
    for idx, (kind, plan) in list(plans.items()):
        if kind == "fuse" and idx not in inside:
            be = _short_loop(program, plans, idx, plan["end"])
            if be is not None:
                plans[idx] = ("fuse", _block_plan(
                    program, wait_states, idx, be + 1))
    return plans


def _short_loop(program, plans, lo, s):
    """The body end of the hardware loop set up at ``s``, right after
    the compiled block from ``lo``, when that block may hold the loop
    unrolled: an ``lp.setupi`` whose body is block instructions and
    whose trips are too few for a window of their own."""
    ins = program[s]
    if ins.mnemonic != "lp.setupi" or ins.imm < 1:
        return None
    be = (ins.addr + ins.imm2) // 4
    if not s < be < len(program) or \
            s - lo + 1 + ins.imm * (be - s) > UNROLL_BLOCK or \
            any(program[i].mnemonic not in _BLOCK_KINDS
                for i in range(s + 1, be + 1)):
        return None
    loop = plans.get(s)
    if loop is not None and loop[1]["kernel"].pays(ins.imm):
        return None
    return be


def build_turbo_code(cpu):
    """Build the turbo code table for ``cpu`` (interpreter closures with
    loop kernels overlaid at eligible entries)."""
    program = cpu.program
    key = (cpu.memory.wait_states,)
    cached = getattr(program, "_turbo_cache", None)
    if cached is None or cached[0] != key:
        _TURBO_EVENTS.inc(event="cache_miss")
        cached = (key, analyze_program(program, cpu.memory.wait_states))
        try:
            program._turbo_cache = cached
        except AttributeError:
            pass
    else:
        _TURBO_EVENTS.inc(event="cache_hit")
    tcode = list(cpu._code)
    nfuse = 0
    for idx, plan in cached[1].items():
        if plan[0] == "hw":
            tcode[idx] = _make_hw_wrapper(cpu, idx, plan[1])
        elif plan[0] == "br":
            tcode[idx] = _make_br_wrapper(cpu, idx, plan[1])
        elif plan[0] == "run":
            tcode[idx] = _make_run_wrapper(cpu, idx, plan[1])
            nfuse += 1
        else:
            tcode[idx] = _make_fuse_wrapper(cpu, idx, plan[1])
            nfuse += 1
    cpu.turbo_stats["fused_blocks"] = nfuse
    return tcode
