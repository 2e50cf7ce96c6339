"""Turbo execution engine: vectorized loop kernels over the closure ISS.

``Cpu(engine="turbo")`` overlays the per-instruction closure table with
compiled kernels for the program's hot loops:

* **Hardware loops** (``lp.setup``/``lp.setupi``) whose body is a single
  straight-line basic block of provably safe instructions are executed as
  fused numpy kernels: iteration 0 runs through the ordinary closures (it
  absorbs any dynamic SPR entry stall), then all remaining iterations are
  evaluated at once — post-increment load chains become gathers, dot
  products become cumulative sums, PLA activations use a vectorized
  Algorithm 2 identical to the scalar one.
* **Branch-closed loops** (a single block whose terminating branch targets
  its own start, e.g. the level-a matvec) are solved in chunks: the kernel
  evaluates a candidate iteration window, finds the first iteration whose
  branch falls through, and commits exactly that prefix.
* **Superblocks** (straight-line blocks outside every loop) are stepped
  through a tight local closure loop, skipping the run loop's per
  instruction bookkeeping.

The engine is *bit-exact* and *cycle-exact* against the interpreter: all
arithmetic is carried out in ``uint64`` and reduced mod 2**32 (masking is a
ring homomorphism, so sums/products/cumsums commute with it), loads gather
from the pre-loop memory snapshot and the kernel *bails out* — committing
nothing and falling back to the closures — whenever it cannot prove the
absence of aliasing between the loop's stores and its load window, when an
address leaves memory, or when a store stride would self-overlap.  Cycles
are charged from the statically known per-instruction costs (the same
rules :mod:`repro.analysis.cycles` encodes), which the eligibility rules
make exact: a loop body is only compiled when every cost is static —
in particular every ``pl.sdotsp`` re-read is provably stall-free.

Eligibility is decided per loop at ``Cpu`` construction (cached on the
:class:`~repro.isa.program.Program`); anything unprovable — irregular
control flow, CSRs, ``ebreak``, divisions, unresolvable loop-carried
dependencies — simply keeps its interpreter closures.  See docs/TIMING.md.
"""

from __future__ import annotations

import numpy as np

from ..analysis.cfg import build_cfg
from ..isa.instructions import Fmt, reads_mask
from ..obs.metrics import REGISTRY
from .cpu import (
    ALU_OPS, _DIV_OPS, _M32, _PLA_FRAC, _PLA_N, _PLA_ONE, _PLA_SHIFT,
    _SIG_M, _SIG_Q, _TANH_M, _TANH_Q, _dot2h, _dot4b, _pla_scalar,
    _signed32, DIV_CYCLES,
)
from .exceptions import ExecutionLimitExceeded, MemoryError32

__all__ = ["build_turbo_code", "analyze_program"]

#: Iteration counts at or below this stay on the interpreter.
MIN_VEC = 4
#: Vectorize a loop only when iterations x body length clears this:
#: below it the fixed numpy setup cost of a window outweighs closures.
VEC_MIN_WORK = 512
#: ... and only when the iteration count alone clears this: numpy's
#: per-node fixed cost is amortized across iterations, not body length.
VEC_MIN_ITERS = 48
#: Default first solve window for branch-closed loops (adapted per loop).
CHUNK0 = 256
#: Largest iteration window evaluated as one numpy chunk.
N_MAX = 1 << 21
#: A compiled loop is disabled after this many runtime bails.
MAX_BAILS = 3
#: Minimum block length worth a fused superblock stepper.
FUSE_MIN = 4

_U64 = np.uint64
_MASK = np.uint64(0xFFFFFFFF)

#: Engine-wide compile/cache/bail event counts on the unified registry
#: (``repro.obs``).  The bail child is pre-bound: wrapper bail paths are
#: hot and must not pay the family's label lookup.
_TURBO_EVENTS = REGISTRY.counter(
    "iss_turbo_events_total",
    "Turbo-engine analysis, plan-cache and runtime-bail events.",
    ("event",))
_BAILS = _TURBO_EVENTS.labels(event="bail")


class _Bail(Exception):
    """Runtime fallback: nothing has been committed, use the closures."""


class _Unsupported(Exception):
    """Build-time rejection: this loop keeps its interpreter closures."""


# ----------------------------------------------------------------------
# Vectorized op table (uint64 arrays, every result masked to 32 bits)
# ----------------------------------------------------------------------
def _vs(a):
    """Signed (int64) view of masked uint64 values."""
    a = a & _MASK
    return a.astype(np.int64) - \
        (((a >> _U64(31)) & _U64(1)).astype(np.int64) << np.int64(32))


def _vu(x):
    return _U64(x & 0xFFFFFFFF)


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


def _vbytes(a):
    out = []
    for shift in (0, 8, 16, 24):
        b = ((a >> _U64(shift)) & _U64(0xFF)).astype(np.int64)
        out.append(b - ((b & 0x80) << 1))
    return out


def _v_dot2h(a, b, i):
    a0, a1 = _vhalves(a)
    b0, b1 = _vhalves(b)
    return _vmask_i64(a0 * b0 + a1 * b1)


def _v_dot4b(a, b, i):
    av, bv = _vbytes(a), _vbytes(b)
    acc = av[0] * bv[0]
    for x, y in zip(av[1:], bv[1:]):
        acc = acc + x * y
    return _vmask_i64(acc)


def _v_pack(lo, hi):
    return (((hi & np.int64(0xFFFF)) << np.int64(16))
            | (lo & np.int64(0xFFFF))).astype(_U64)


def _v_sra(a, b, i):
    sh = (b & _U64(31)).astype(np.int64)
    return _vmask_i64(_vs(a) >> sh)


def _v_clip(a, b, i):
    v = _vs(a)
    if i == 0:
        return np.where(v > 0, _U64(0), a & _MASK)
    lo, hi = -(1 << (i - 1)), (1 << (i - 1)) - 1
    return _vmask_i64(np.clip(v, lo, hi))


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
    "addi": lambda a, b, i: (a + _vu(i)) & _MASK,
    "slti": lambda a, b, i: (_vs(a) < np.int64(i)).astype(_U64),
    "sltiu": lambda a, b, i: ((a & _MASK) < _vu(i)).astype(_U64),
    "xori": lambda a, b, i: (a ^ _vu(i)) & _MASK,
    "ori": lambda a, b, i: (a | _vu(i)) & _MASK,
    "andi": lambda a, b, i: (a & _vu(i)) & _MASK,
    "slli": lambda a, b, i: (a << _vu(i)) & _MASK,
    "srli": lambda a, b, i: (a & _MASK) >> _vu(i),
    "srai": lambda a, b, i: _vmask_i64(_vs(a) >> np.int64(i)),
    "add": lambda a, b, i: (a + b) & _MASK,
    "sub": lambda a, b, i: (a - b) & _MASK,
    "sll": lambda a, b, i: (a << (b & _U64(31))) & _MASK,
    "slt": lambda a, b, i: (_vs(a) < _vs(b)).astype(_U64),
    "sltu": lambda a, b, i: ((a & _MASK) < (b & _MASK)).astype(_U64),
    "xor": lambda a, b, i: (a ^ b) & _MASK,
    "srl": lambda a, b, i: (a & _MASK) >> (b & _U64(31)),
    "sra": _v_sra,
    "or": lambda a, b, i: (a | b) & _MASK,
    "and": lambda a, b, i: (a & b) & _MASK,
    "mul": lambda a, b, i: (a * b) & _MASK,
    "macterm": lambda a, b, i: _vmask_i64(_vs(a) * _vs(b)),
    "dot2h": _v_dot2h,
    "dot4b": _v_dot4b,
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
    "p.abs": lambda a, b, i: _vmask_i64(np.abs(_vs(a))),
    "p.min": lambda a, b, i: np.where(_vs(a) < _vs(b), a, b) & _MASK,
    "p.max": lambda a, b, i: np.where(_vs(a) > _vs(b), a, b) & _MASK,
    "p.minu": lambda a, b, i: np.minimum(a & _MASK, b & _MASK),
    "p.maxu": lambda a, b, i: np.maximum(a & _MASK, b & _MASK),
    "p.clip": _v_clip,
    "p.exths": lambda a, b, i: ((a & _U64(0xFFFF))
                                | np.where((a & _U64(0x8000)) != 0,
                                           _U64(0xFFFF0000), _U64(0))),
    "div": _v_div,
    "divu": _v_divu,
    "rem": _v_rem,
    "remu": _v_remu,
}

#: Scalar semantics for the pseudo-mnemonics above (real mnemonics reuse
#: :data:`repro.core.cpu.ALU_OPS` so scalar paths are the interpreter's).
_SCALAR_EXTRA = {
    "macterm": lambda a, b, i: (_signed32(a) * _signed32(b)) & _M32,
    "dot2h": lambda a, b, i: _dot2h(a, b) & _M32,
    "dot4b": lambda a, b, i: _dot4b(a, b) & _M32,
}

_BROPS = {
    "beq": lambda a, b: a == b,
    "bne": lambda a, b: a != b,
    "blt": lambda a, b: _vs(a) < _vs(b),
    "bge": lambda a, b: _vs(a) >= _vs(b),
    "bltu": lambda a, b: (a & _MASK) < (b & _MASK),
    "bgeu": lambda a, b: (a & _MASK) >= (b & _MASK),
}

_TANH_M_V = np.array(_TANH_M, dtype=np.int64)
_TANH_Q_V = np.array(_TANH_Q, dtype=np.int64)
_SIG_M_V = np.array(_SIG_M, dtype=np.int64)
_SIG_Q_V = np.array(_SIG_Q, dtype=np.int64)


def _pla_vec(x, is_sig):
    """Vector Algorithm 2, bit-identical to ``cpu._pla_scalar``."""
    slopes = _SIG_M_V if is_sig else _TANH_M_V
    offsets = _SIG_Q_V if is_sig else _TANH_Q_V
    xs = _vs(x)
    neg = xs < 0
    mag = np.where(neg, -xs, xs)
    idx = mag >> np.int64(_PLA_SHIFT)
    inb = idx < _PLA_N
    idxc = np.where(inb, idx, 0)
    y = ((slopes[idxc] * mag) >> np.int64(_PLA_FRAC)) + offsets[idxc]
    y = np.where(inb, y, np.int64(_PLA_ONE))
    y = np.where(neg, -y, y)
    if is_sig:
        y = np.where(neg, np.int64(_PLA_ONE) + y, y)
    y = np.clip(y, -32768, 32767)
    return _vmask_i64(y)


# ----------------------------------------------------------------------
# Symbolic nodes (hashable tuples; equal tuples share evaluation)
#
#   ("const", c)                — the constant c (masked)
#   ("regin", r)                — value of reg r at iteration start
#   ("slotin", addr)            — carried value of memory word `addr`
#   ("sum", root, terms, c)     — root + sum(terms) + c (root may be None)
#   ("alu", m, a, b, imm)       — op from _VOPS
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


class _Walk:
    """One symbolic pass over a straight-line loop body.

    Registers start as ``("regin", r)`` placeholders; the finalize step
    classifies each placeholder from the body's *final* expression for
    that register (invariant / affine induction / additive accumulator /
    one-iteration-delayed "shift" carry) and rejects anything else.
    """

    def __init__(self, program, idxs, wait, allow_spr):
        self.program = program
        self.idxs = idxs
        self.wait = wait
        self.allow_spr = allow_spr
        self.sym = {0: _CONST0}
        # Slot key: a const byte address (int) or a loop-invariant
        # address node (tuple) -> last stored node for that memory cell.
        self.slotsym = {}
        self.slot_loaded = set()   # slot keys read as carried cells
        self.load_nodes = {}       # addr node -> word load node (promo)
        self.load_pos = {}         # load node -> last body position
        self.stores = []           # (addr_node, value_node, size, pos)
        self.forced = []           # nodes evaluated for side conditions
        self.spr = {0: [], 1: []}  # SPR k -> ordered load nodes
        self.spr_pos = {0: [], 1: []}
        self.costs = []
        for pos, i in enumerate(idxs):
            self._step(pos, i)
        self._check_spr_gaps()

    def _reg(self, r):
        if r not in self.sym:
            self.sym[r] = ("regin", r)
        return self.sym[r]

    def _setreg(self, r, node):
        if r:
            self.sym[r] = node

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

    def _step(self, pos, i):
        instr = self.program[i]
        spec = instr.spec
        m = instr.mnemonic
        rd, rs1, rs2, imm = instr.rd, instr.rs1, instr.rs2, instr.imm

        if m == "jal" and (instr.addr + imm) // 4 == i + 1:
            # Fall-through jump (codegen filler): pure 2-cycle timing
            # no-op inside an otherwise straight-line body.
            self._setreg(rd, ("const", (instr.addr + 4) & _M32))
            self.costs.append(2)
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
            self.costs.append(1 + self.wait)
            return
        elif spec.is_load:
            self._load(instr, pos)
        elif spec.is_store:
            self._store(instr, pos)
        elif m in _VOPS:
            self._setreg(rd, ("alu", m, self._reg(rs1), self._reg(rs2),
                              imm))
        else:
            raise _Unsupported(m)
        self.costs.append(self._cost(
            i, DIV_CYCLES if m in _DIV_OPS else 1))

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
        elif spec.size == 4 and addr in self.slotsym:
            key = addr  # node-keyed slot established by an earlier store
        else:
            key = None
        if key is not None:
            if key not in self.slotsym:
                self.slotsym[key] = ("slotin", key)
            self.slot_loaded.add(key)
            value = self.slotsym[key]
        else:
            value = ("load", addr, spec.size, spec.signed)
            self.load_pos[value] = pos
            if spec.size == 4:
                self.load_nodes.setdefault(addr, value)
        if instr.rd:
            self._setreg(instr.rd, value)
        else:
            # x0 destination: value is discarded but the access (and its
            # out-of-range behaviour) must still happen.
            self.forced.append(value)
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
        elif addr in self.slotsym:
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
        self.load_pos = {sub(k): v for k, v in self.load_pos.items()}
        self.stores = [(sub(a), sub(v), s, p)
                       for a, v, s, p in self.stores]
        self.forced = [sub(n) for n in self.forced]
        self.spr = {k: [sub(n) for n in v] for k, v in self.spr.items()}

    def _pl_sdotsp(self, pos, instr):
        if not self.allow_spr:
            raise _Unsupported("pl.sdotsp outside a hardware loop")
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
        1+wait cost is exact for all vectorized iterations."""
        blen = len(self.idxs)
        for k, ps in self.spr_pos.items():
            if not ps:
                continue
            gaps = [ps[j + 1] - ps[j] - 1 for j in range(len(ps) - 1)]
            gaps.append(blen - ps[-1] + ps[0] - 1)  # across the back edge
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
    elif k in ("load", "pla"):
        _collect_placeholders(node[1], out)


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
        elif k in ("load", "pla"):
            scan(node[1])

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
    for node in walk.forced:
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


# ----------------------------------------------------------------------
# Runtime evaluation
# ----------------------------------------------------------------------
def _arr(v, n):
    if isinstance(v, np.ndarray):
        return v
    return np.full(n, _vu(int(v)), dtype=_U64)


def _excl_cumsum(tot):
    out = np.empty_like(tot)
    out[0] = 0
    np.cumsum(tot[:-1], out=out[1:])
    return out


#: Memory list -> uint64 conversion granularity (words) for the
#: per-window chunk cache shared by every gather in one evaluation.
_CHUNK_SHIFT = 8
_CHUNK_WORDS = 1 << _CHUNK_SHIFT


def _mem_span(ctx, wlo, whi):
    """uint64 view of memory words [wlo, whi]; chunk-cached per window
    so the many gathers of one template share list->array conversions."""
    chunks = ctx["chunks"]
    c0, c1 = wlo >> _CHUNK_SHIFT, whi >> _CHUNK_SHIFT
    parts = []
    for c in range(c0, c1 + 1):
        ch = chunks.get(c)
        if ch is None:
            base = c << _CHUNK_SHIFT
            ch = np.array(ctx["mem"][base:base + _CHUNK_WORDS],
                          dtype=_U64)
            chunks[c] = ch
        parts.append(ch)
    arr = parts[0] if len(parts) == 1 else np.concatenate(parts)
    base = c0 << _CHUNK_SHIFT
    return arr[wlo - base:whi + 1 - base]


def _static_stride(anode, res):
    """Per-iteration address stride proved at build time, or None."""
    if anode[0] == "const":
        return 0
    if anode[0] in ("regin", "slotin"):
        anode = ("sum", anode, (), 0)
    if anode[0] != "sum" or anode[2] or anode[1] is None:
        return None
    spec = res.get(anode[1])
    if spec is None:
        return None
    if spec[0] == "inv":
        return 0
    if spec[0] == "aff":
        c = spec[1] & _M32
        return c - (1 << 32) if c & 0x80000000 else c
    return None


def _slot_addr(key, ctx):
    """Resolve a slot key (const byte address or invariant node) to an
    int byte address; bails on misalignment or a non-scalar address."""
    if not isinstance(key, tuple):
        return key
    a = ctx["slotaddr"].get(key)
    if a is None:
        v = _ev(key, ctx)
        if isinstance(v, np.ndarray):
            raise _Bail
        a = int(v) & _M32
        if a % 4 or (a >> 2) >= ctx["mlen"]:
            raise _Bail
        ctx["slotaddr"][key] = a
    return a


def _ev(node, ctx):
    cache = ctx["cache"]
    v = cache.get(node)
    if v is not None:
        return v
    k = node[0]
    if k == "const":
        v = node[1] & _M32
    elif k == "regin":
        v = _ev_carried(node, ctx["regs"][node[1]], ctx)
    elif k == "slotin":
        a = _slot_addr(node[1], ctx)
        widx = a >> 2
        if widx >= ctx["mlen"]:
            raise _Bail
        v = _ev_carried(node, ctx["mem"][widx], ctx)
    elif k == "sum":
        v = node[3] & _M32
        if node[1] is not None:
            v = v + _ev(node[1], ctx)
        for t in node[2]:
            tv = _ev(t, ctx)
            v = v + (tv & _MASK if isinstance(tv, np.ndarray)
                     else (tv & _M32))
        v = v & _MASK if isinstance(v, np.ndarray) else v & _M32
    elif k == "alu":
        a = _ev(node[2], ctx)
        b = _ev(node[3], ctx)
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            if not isinstance(a, np.ndarray):
                a = _vu(a)
            if not isinstance(b, np.ndarray):
                b = _vu(b)
            v = _VOPS[node[1]](a, b, node[4])
        else:
            op = ALU_OPS.get(node[1]) or _SCALAR_EXTRA[node[1]]
            v = op(a, b, node[4]) & _M32
    elif k == "load":
        v = _ev_load(node, ctx)
    elif k == "pla":
        x = _ev(node[1], ctx)
        if isinstance(x, np.ndarray):
            v = _pla_vec(x, node[2])
        else:
            sl, of = (_SIG_M, _SIG_Q) if node[2] else (_TANH_M, _TANH_Q)
            v = _pla_scalar(_signed32(x), sl, of, node[2]) & _M32
    elif k == "sprin":
        occ = ctx["spr"][node[1]]
        if node[2] == 0:
            last = _arr(_ev(occ[-1], ctx), ctx["n"])
            v = np.empty(ctx["n"], dtype=_U64)
            v[0] = _vu(ctx["sprs"][node[1]])
            v[1:] = last[:-1]
        else:
            v = _ev(occ[node[2] - 1], ctx)
    else:  # pragma: no cover - walk only builds the kinds above
        raise _Bail
    cache[node] = v
    return v


def _ev_carried(node, entry, ctx):
    spec = ctx["res"][node]
    kind = spec[0]
    if kind == "inv":
        return entry & _M32
    if kind == "aff":
        return (_vu(entry) + _vu(spec[1]) * ctx["J"]) & _MASK
    if kind == "acc":
        # Cache the cumulative prefix per (node) so mid-body reads that
        # captured partial sums share it.
        tot = np.zeros(ctx["n"], dtype=_U64)
        for t in spec[1]:
            tot += _arr(_ev(t, ctx), ctx["n"]) & _MASK
        return (_vu(entry) + _vu(spec[2]) * ctx["J"]
                + _excl_cumsum(tot)) & _MASK
    # "shift": value at iteration j is the carried expression of j-1.
    fin = _arr(_ev(spec[1], ctx), ctx["n"])
    out = np.empty(ctx["n"], dtype=_U64)
    out[0] = _vu(entry)
    out[1:] = fin[:-1]
    return out


def _ev_load(node, ctx):
    addr = _ev(node[1], ctx)
    size, signed = node[2], node[3]
    mem = ctx["mem"]
    if not isinstance(addr, np.ndarray):
        a = addr & _M32
        if a >> 2 >= ctx["mlen"]:
            raise _Bail
        ctx["lrecs"].append((node, a, a + size - 1, a, 0, size))
        word = mem[a >> 2]
        if size == 4:
            return word
        if size == 2:
            v = (word >> ((a & 2) << 3)) & 0xFFFF
            if signed and v & 0x8000:
                v |= 0xFFFF0000
        else:
            v = (word >> ((a & 3) << 3)) & 0xFF
            if signed and v & 0x80:
                v |= 0xFFFFFF00
        return v
    stride = ctx["lstride"].get(node, -1)
    if stride != -1 and int(addr[-1]) - int(addr[0]) \
            == stride * (len(addr) - 1):
        # Affine chain proved at build time and no 2^32 wrap occurred
        # (endpoint displacement matches): endpoints bound the range.
        first, last = int(addr[0]), int(addr[-1])
        lo, hi = (first, last) if stride >= 0 else (last, first)
    else:
        lo = int(addr.min())
        hi = int(addr.max())
        d = np.diff(addr.astype(np.int64))
        stride = int(d[0]) if len(d) and (d == d[0]).all() else None
    if hi >> 2 >= ctx["mlen"]:
        raise _Bail
    ctx["lrecs"].append((node, lo, hi + size - 1, int(addr[0]), stride,
                         size))
    wlo = lo >> 2
    w = _mem_span(ctx, wlo, hi >> 2)[
        (addr >> _U64(2)).astype(np.int64) - wlo]
    if size == 4:
        return w
    if size == 2:
        v = (w >> ((addr & _U64(2)) << _U64(3))) & _U64(0xFFFF)
        if signed:
            v = np.where((v & _U64(0x8000)) != 0,
                         v | _U64(0xFFFF0000), v)
    else:
        v = (w >> ((addr & _U64(3)) << _U64(3))) & _U64(0xFF)
        if signed:
            v = np.where((v & _U64(0x80)) != 0, v | _U64(0xFFFFFF00), v)
    return v


# ----------------------------------------------------------------------
# Commit
# ----------------------------------------------------------------------
def _scatter(mem, size, addr, val):
    wlo = int(addr.min()) >> 2
    whi = int(addr.max()) >> 2
    seg = np.array(mem[wlo:whi + 1], dtype=_U64)
    idx = (addr >> _U64(2)).astype(np.int64) - wlo
    if size == 4:
        seg[idx] = val & _MASK
    elif size == 2:
        sh = (addr & _U64(2)) << _U64(3)
        np.bitwise_and.at(seg, idx, ~(_U64(0xFFFF) << sh))
        np.bitwise_or.at(seg, idx, (val & _U64(0xFFFF)) << sh)
    else:
        sh = (addr & _U64(3)) << _U64(3)
        np.bitwise_and.at(seg, idx, ~(_U64(0xFF) << sh))
        np.bitwise_or.at(seg, idx, (val & _U64(0xFF)) << sh)
    mem[wlo:whi + 1] = seg.tolist()


def _eval_all(cpu, t, n):
    ctx = {"J": np.arange(n, dtype=_U64), "n": n, "regs": cpu.regs,
           "mem": cpu.memory.words, "mlen": len(cpu.memory.words),
           "sprs": cpu.sprs, "res": t["res"], "spr": t["spr"],
           "cache": {}, "lrecs": [], "slotaddr": {}, "chunks": {},
           "lstride": t["lstride"]}
    outs = [(r, _ev(node, ctx)) for r, node in t["writes"]]
    stores = [(size, pos, ss, _ev(a, ctx), _ev(v, ctx))
              for a, v, size, pos, ss in t["stores"]]
    slots = [(key, _slot_addr(key, ctx), _ev(node, ctx))
             for key, node in t["slots"]]
    for node in t["forced"]:
        _ev(node, ctx)
    sprout = {}
    for k, occ in t["spr"].items():
        if occ:
            for node in occ:  # every SPR load checks its address range
                _ev(node, ctx)
            sprout[k] = _ev(occ[-1], ctx)
    cond = None
    if t.get("cond") is not None:
        m, a, b = t["cond"]
        cond = _BROPS[m](_arr(_ev(a, ctx), n), _arr(_ev(b, ctx), n))
    return ctx, outs, stores, slots, sprout, cond


def _last(v, r):
    return int(v[r - 1]) if isinstance(v, np.ndarray) else int(v)


def _has_k(d, s, wlo, whi):
    """Is there an integer k >= 1 with ``wlo <= d + s*k <= whi``?"""
    if s > 0:
        lo = -(-(wlo - d) // s)
        hi = (whi - d) // s
    else:
        lo = -(-(whi - d) // s)
        hi = (wlo - d) // s
    return max(lo, 1) <= hi


def _commit(cpu, t, ctx, outs, stores, slots, sprout, r):
    mem_bytes = ctx["mlen"] * 4
    srecs = []  # (pos, lo, hi, base, stride, size)
    sprep = []
    for size, pos, ss, addr, val in stores:
        if isinstance(addr, np.ndarray):
            a = addr[:r]
            if ss is not None and int(a[-1]) - int(a[0]) == ss * (r - 1):
                s = ss if r > 1 else 0
                first, last = int(a[0]), int(a[-1])
                lo, hi = (first, last) if s >= 0 else (last, first)
            else:
                lo = int(a.min())
                hi = int(a.max())
                s = 0
                if r > 1:
                    d = np.diff(a.astype(np.int64))
                    s = int(d[0])
                    if not (d == s).all():
                        raise _Bail
            if hi + size > mem_bytes:
                raise _Bail
            if s != 0 and abs(s) < size:
                raise _Bail  # the store would self-overlap
            if s == 0:
                sprep.append((size, None, int(a[0]), _last(val, r)))
            else:
                v = val[:r] if isinstance(val, np.ndarray) \
                    else np.full(r, _vu(int(val)), dtype=_U64)
                sprep.append((size, a, None, v))
            srecs.append((pos, lo, hi + size - 1, int(a[0]), s, size))
        else:
            lo = int(addr) & _M32
            if lo + size > mem_bytes:
                raise _Bail
            sprep.append((size, None, lo, _last(val, r)))
            srecs.append((pos, lo, lo + size - 1, lo, 0, size))
    n_stores = len(srecs)
    slot_addrs = {}
    for key, addr, _v in slots:
        srecs.append((None, addr, addr + 3, addr, 0, 4))
        slot_addrs[key] = addr
    # Load/store aliasing.  Interval overlap alone is not fatal: equal
    # uniform strides let us solve exactly which iteration pairs (k =
    # load iter - store iter) touch common bytes.  A k = 0 hit is fine
    # when the store issues after the load's last body position; any
    # k >= 1 hit means a later load would read a byte an earlier
    # iteration stored — the snapshot gather would be stale, so bail.
    load_pos = t["load_pos"]
    for lnode, llo, lhi, lbase, ls, lsz in ctx["lrecs"]:
        for spos, slo, shi, sbase, ss, ssz in srecs:
            if llo > shi or slo > lhi:
                continue
            if ls is None or ls != ss or ls == 0:
                raise _Bail
            d = lbase - sbase
            wlo, whi = 1 - lsz, ssz - 1
            if wlo <= d <= whi:
                lpos = load_pos.get(lnode)
                if lpos is None or spos is None or spos < lpos:
                    raise _Bail
            if _has_k(d, ls, wlo, whi):
                raise _Bail
    # A carried slot read sees only its own cell's history: any other
    # write landing on that cell invalidates the whole window.
    for key in t["sloads"]:
        a = _slot_addr(key, ctx)
        for _pos, slo, shi, _b, _s, _z in srecs[:n_stores]:
            if a <= shi and slo <= a + 3:
                raise _Bail
        for k2, a2 in slot_addrs.items():
            if k2 != key and a <= a2 + 3 and a2 <= a + 3:
                raise _Bail
    # Store/store conflicts: same-iteration overlaps commit in program
    # order (sprep keeps it), cross-iteration overlaps do not.
    for i in range(len(srecs)):
        for j in range(i + 1, len(srecs)):
            _p1, l1, h1, b1, s1, z1 = srecs[i]
            _p2, l2, h2, b2, s2, z2 = srecs[j]
            if l1 > h2 or l2 > h1:
                continue
            if s1 != s2 or s1 == 0:
                raise _Bail
            d = b1 - b2
            wlo, whi = 1 - z1, z2 - 1
            if _has_k(d, s1, wlo, whi) or _has_k(d, -s1, wlo, whi):
                raise _Bail

    # ------------------------------------------------- all checks passed
    mem = ctx["mem"]
    for size, a, scalar_addr, v in sprep:
        if a is None:
            addr, value = scalar_addr, v
            widx = addr >> 2
            if size == 4:
                mem[widx] = value
            elif size == 2:
                sh = (addr & 2) << 3
                mem[widx] = (mem[widx] & ~(0xFFFF << sh)) \
                    | ((value & 0xFFFF) << sh)
            else:
                sh = (addr & 3) << 3
                mem[widx] = (mem[widx] & ~(0xFF << sh)) \
                    | ((value & 0xFF) << sh)
        else:
            _scatter(mem, size, a, v)
    for _key, addr, v in slots:
        mem[addr >> 2] = _last(v, r)
    regs = cpu.regs
    for reg, v in outs:
        regs[reg] = _last(v, r)
    stats = cpu._stats
    base = t["bs"]
    for off, c in enumerate(t["costs"]):
        cell = stats[base + off]
        cell[0] += r
        cell[1] += r * c
    cpu.clk[0] += r * t["total_cost"]
    for k, v in sprout.items():
        cpu.sprs[k] = _last(v, r)
        cpu._spr_ready[k] = cpu.clk[0] - t["spr_tail"][k] + 2
    cpu._xinstret[0] += r * t["blen"]


# ----------------------------------------------------------------------
# Wrappers installed into the turbo code table
# ----------------------------------------------------------------------
def _reraise_oob(cpu, i):
    instr = cpu.program[i]
    raise MemoryError32(
        f"memory access out of range at pc=0x{instr.addr:x} "
        f"({instr})") from None


def _make_hw_wrapper(cpu, idx, t):
    setup_fn = cpu._code[idx]
    code = cpu._code
    hw = cpu._hw
    base = t["loopreg"] * 4
    ob = 4 - base
    bs, be, blen = t["bs"], t["be"], t["blen"]
    xi = cpu._xinstret
    tstats = cpu.turbo_stats
    state = {"bails": 0}

    def wrapper():
        nxt = setup_fn()
        if not hw[base]:
            return nxt  # zero-trip lp.setup skipped the body
        n = hw[base + 3]
        if state["bails"] >= MAX_BAILS or n < VEC_MIN_ITERS \
                or n * blen < VEC_MIN_WORK:
            return nxt
        if hw[ob] and bs <= hw[ob + 2] <= be:
            return nxt  # the other loop set's back edge ends in our body
        # Iteration 0 through the closures: absorbs dynamic SPR entry
        # stalls so the static vector costs are exact afterwards.
        i = bs
        try:
            while True:
                j = code[i]()
                if i == be:
                    break
                i = j
        except IndexError:
            _reraise_oob(cpu, i)
        xi[0] += blen
        done = 1
        while n - done > MIN_VEC:
            c = min(n - done, N_MAX)
            try:
                ctx, outs, stores, slots, sprout, _ = _eval_all(cpu, t, c)
                _commit(cpu, t, ctx, outs, stores, slots, sprout, c)
            except _Bail:
                state["bails"] += 1
                tstats["bails"] += 1
                _BAILS.inc()
                break
            tstats["vector_loops"] += 1
            tstats["vector_iters"] += c
            done += c
        rem = n - done
        if rem > 0:
            hw[base + 3] = rem
            return bs
        hw[base] = 0
        hw[base + 3] = 0
        return be + 1
    return wrapper


def _make_br_wrapper(cpu, idx, t, proven_trip=None):
    code = cpu._code
    hw = cpu._hw
    bs, be, blen = t["bs"], t["be"], t["blen"]
    br_cost = t["costs"][-1]  # not-taken cost of the branch terminator
    xi = cpu._xinstret
    xlimit = cpu._xlimit
    tstats = cpu.turbo_stats
    # An absint-proven constant trip count seeds the window hint (the
    # first iteration always runs scalar, so N trips leave N-1 for the
    # vector path); runtime learning still adapts after every exit, so
    # execution stays bit- and cycle-exact either way.
    hint0 = CHUNK0 if proven_trip is None \
        else max(proven_trip - 1, MIN_VEC)
    state = {"bails": 0, "hint": hint0}

    def wrapper():
        if hw[0] or hw[4]:
            return code[bs]()  # stale active loop state: stay scalar
        i = bs
        try:
            while True:
                j = code[i]()
                if i == be:
                    break
                i = j
        except IndexError:
            _reraise_oob(cpu, i)
        xi[0] += blen - 1  # the dispatch itself already counts one
        if j != bs:
            return j  # exited after one iteration
        if state["bails"] >= MAX_BAILS or state["hint"] < VEC_MIN_ITERS \
                or state["hint"] * blen < VEC_MIN_WORK:
            return bs  # scalar: one iteration per wrapper call
        total = 0
        u = max(MIN_VEC, min(state["hint"] * 2, N_MAX))
        while True:
            try:
                try:
                    ctx, outs, stores, slots, sprout, cond = \
                        _eval_all(cpu, t, u)
                except _Bail:
                    # Speculative windows overshoot the loop's real trip
                    # count; an out-of-range gather near the end of the
                    # window is expected — retry a smaller window before
                    # concluding the loop really faults.
                    if u > MIN_VEC:
                        u = max(MIN_VEC, u // 8)
                        continue
                    raise
                if cond.all():
                    r, exited = u, False
                else:
                    r, exited = int(np.argmax(~cond)) + 1, True
                _commit(cpu, t, ctx, outs, stores, slots, sprout, r)
            except _Bail:
                state["bails"] += 1
                tstats["bails"] += 1
                _BAILS.inc()
                return bs
            # taken branches cost 2; the exit branch falls through for 1
            cpu.clk[0] += 2 * r - (1 if exited else 0) - r * br_cost
            cell = cpu._stats[be]
            cell[1] += 2 * r - (1 if exited else 0) - r * br_cost
            tstats["vector_loops"] += 1
            tstats["vector_iters"] += r
            total += r
            if exited:
                state["hint"] = max(total, MIN_VEC)
                return be + 1
            u = min(u * 8, N_MAX)
            if xi[0] > xlimit[0]:
                raise ExecutionLimitExceeded(
                    f"exceeded {cpu.max_instrs} instructions")
    return wrapper


def _make_fuse_wrapper(cpu, idx, end):
    code = cpu._code
    hw = cpu._hw
    fns = [code[i] for i in range(idx, end)]
    first = code[idx]
    xi = cpu._xinstret
    extra = len(fns) - 1

    def wrapper():
        if hw[0] or hw[4]:
            return first()  # an active loop may end mid-block: step out
        off = 0
        try:
            for fn in fns:
                fn()
                off += 1
        except IndexError:
            _reraise_oob(cpu, idx + off)
        xi[0] += extra
        return end
    return wrapper


# ----------------------------------------------------------------------
# Program analysis: which entries get which wrapper
# ----------------------------------------------------------------------
def _try_loop_template(program, cfg, wait, bs, be, cond_term=None,
                       loopreg=None):
    idxs = range(bs, be + (0 if cond_term else 1))
    walk = _Walk(program, idxs, wait, allow_spr=cond_term is None)
    extra = ()
    cond = None
    if cond_term is not None:
        instr = program[cond_term]
        a, b = walk._reg(instr.rs1), walk._reg(instr.rs2)
        cond = (instr.mnemonic, a, b)
        extra = (a, b)
        walk.costs.append(1)  # branch base (taken penalty at commit)
    for key in walk.slot_loaded:
        # Force every slot read so its range check always runs, even
        # when the loaded value is otherwise dead.
        walk.forced.append(("slotin", key))
    res, writes, slots = _finalize(walk, extra)
    lstride = {}
    for node in walk.load_pos:
        s = _static_stride(node[1], res)
        if s is not None:
            lstride[node] = s
    stores = [(a, v, size, pos, _static_stride(a, res))
              for a, v, size, pos in walk.stores]
    blen = be - bs + 1
    t = {"bs": bs, "be": be, "blen": blen, "costs": walk.costs,
         "total_cost": sum(walk.costs), "writes": writes, "slots": slots,
         "stores": stores, "spr": walk.spr, "res": res,
         "lstride": lstride,
         "forced": walk.forced, "sloads": sorted(walk.slot_loaded,
                                                 key=repr),
         "load_pos": walk.load_pos, "cond": cond, "loopreg": loopreg,
         "spr_tail": {}}
    for k, ps in walk.spr_pos.items():
        if ps:
            t["spr_tail"][k] = sum(walk.costs[ps[-1]:])
    return t


def analyze_program(program, wait_states=0):
    """Compile-time analysis: map instruction index -> turbo plan.

    Returns ``{idx: ("hw"|"br", template) | ("fuse", end)}``; cached per
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
        try:
            t = _try_loop_template(program, cfg, wait_states,
                                   lp.body_start, lp.body_end,
                                   loopreg=lp.index)
        except _Unsupported:
            continue
        plans[lp.setup_idx] = ("hw", t)
        _TURBO_EVENTS.inc(event="compile_hw")

    def in_loop(i):
        return any(lo <= i <= hi for lo, hi in loop_spans)

    for block in cfg.blocks:
        if block.id not in cfg.reachable or block.start in plans:
            continue
        if in_loop(block.start) or in_loop(block.end):
            continue
        term = program[block.end]
        if term.spec.is_branch and \
                (term.addr + term.imm) // 4 == block.start and \
                block.end > block.start:
            try:
                t = _try_loop_template(program, cfg, wait_states,
                                       block.start, block.end,
                                       cond_term=block.end)
            except _Unsupported:
                continue
            plans[block.start] = ("br", t)
            _TURBO_EVENTS.inc(event="compile_br")
        elif len(block) >= FUSE_MIN:
            plans[block.start] = ("fuse", block.end)
            _TURBO_EVENTS.inc(event="compile_fuse")
    return plans


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
    proven = {}
    if any(plan[0] == "br" for plan in cached[1].values()):
        from ..analysis.absint import proven_trip_counts
        proven = proven_trip_counts(program)
    for idx, plan in cached[1].items():
        if plan[0] == "hw":
            tcode[idx] = _make_hw_wrapper(cpu, idx, plan[1])
        elif plan[0] == "br":
            tcode[idx] = _make_br_wrapper(cpu, idx, plan[1],
                                          proven.get(plan[1]["be"]))
        else:
            tcode[idx] = _make_fuse_wrapper(cpu, idx, plan[1])
            nfuse += 1
    cpu.turbo_stats["fused_blocks"] = nfuse
    return tcode
