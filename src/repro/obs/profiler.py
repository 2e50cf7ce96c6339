"""Hierarchical cycle-attribution profiler over the ISS.

Both execution engines charge every retired instruction's cycles into
the same per-static-instruction ``[count, cycles]`` cells (the
interpreter through its ``bump`` closures, the turbo engine through its
kernel commit paths — see ``docs/TIMING.md``).  Attribution over those
cells keyed on the static instruction *index* is therefore exact and
engine-agnostic by construction: a profile's cycle total equals
``Trace.total_cycles()`` bit-for-bit on either engine, and turbo's
compiled blocks, vectorized loops and rerolled tile runs land on the
regions their instructions came from.

Region paths come from one of two sources:

* generated kernels: :class:`~repro.kernels.common.AsmBuilder` records
  the region stack per emitted instruction (``NetworkPlan.region_paths``
  aligns 1:1 with the assembled program);
* plain ``.s`` files: :func:`region_paths_from_labels` derives a
  one-level path from the nearest preceding assembler label.

Stall cycles (anything beyond 1 cycle/instruction) are split by cause:
``load_use`` (plain-load use-after-load bubbles), ``spr_wait``
(``pl.sdotsp`` SPR ready-time stalls), ``branch_overhead`` (taken
branches, jumps, calls/returns), ``div_serial`` (bit-serial divider),
and ``mem_wait`` (configured memory wait states).  The per-category sum
equals ``total_cycles - total_instrs`` exactly — the same quantity
``Trace.stall_summary()`` reports per mnemonic.
"""

from __future__ import annotations

import json

from ..core.cpu import _DIV_OPS
from ..core.tracer import Trace

__all__ = ["ProfileNode", "Profile", "profile_cpu", "profile_network",
           "region_paths_from_labels", "STALL_KINDS"]

#: Stall categories, in reporting order.
STALL_KINDS = ("load_use", "spr_wait", "branch_overhead", "div_serial",
               "mem_wait", "other")


def _classify_stalls(instr, count: int, cycles: int, wait: int) -> dict:
    """Split one static instruction's extra cycles by cause."""
    extra = cycles - count
    if extra <= 0:
        return {}
    spec = instr.spec
    m = instr.mnemonic
    out = {}
    if spec.is_load and not m.startswith("pl.sdotsp"):
        mem = wait * count
        if mem:
            out["mem_wait"] = mem
        if extra - mem:
            out["load_use"] = extra - mem
    elif m.startswith("pl.sdotsp"):
        mem = wait * count
        if mem:
            out["mem_wait"] = mem
        if extra - mem:
            out["spr_wait"] = extra - mem
    elif spec.is_store:
        out["mem_wait"] = extra
    elif spec.is_branch or spec.is_jump:
        out["branch_overhead"] = extra
    elif m in _DIV_OPS:
        out["div_serial"] = extra
    else:
        out["other"] = extra
    return out


class ProfileNode:
    """One region in the attribution tree.

    ``self_*`` fields hold what was charged *directly* to this node
    (instructions whose region path ends here); subtree totals are
    computed on demand so merging is trivial.
    """

    __slots__ = ("name", "children", "self_instrs", "self_cycles",
                 "self_stalls", "mnemonics")

    def __init__(self, name: str):
        self.name = name
        self.children: dict[str, ProfileNode] = {}
        self.self_instrs = 0
        self.self_cycles = 0
        self.self_stalls: dict[str, int] = {}
        #: display name -> [instrs, cycles] charged directly here.
        self.mnemonics: dict[str, list] = {}

    def child(self, name: str) -> "ProfileNode":
        node = self.children.get(name)
        if node is None:
            node = ProfileNode(name)
            self.children[name] = node
        return node

    def record(self, display: str, instrs: int, cycles: int,
               stalls: dict) -> None:
        self.self_instrs += instrs
        self.self_cycles += cycles
        for kind, n in stalls.items():
            self.self_stalls[kind] = self.self_stalls.get(kind, 0) + n
        cell = self.mnemonics.get(display)
        if cell is None:
            self.mnemonics[display] = [instrs, cycles]
        else:
            cell[0] += instrs
            cell[1] += cycles

    # -- subtree aggregates --------------------------------------------
    @property
    def total_instrs(self) -> int:
        return self.self_instrs + sum(c.total_instrs
                                      for c in self.children.values())

    @property
    def total_cycles(self) -> int:
        return self.self_cycles + sum(c.total_cycles
                                      for c in self.children.values())

    def total_stalls(self) -> dict:
        out = dict(self.self_stalls)
        for node in self.children.values():
            for kind, n in node.total_stalls().items():
                out[kind] = out.get(kind, 0) + n
        return out

    def walk(self, prefix=()):
        """Yield ``(path_tuple, node)`` depth-first in insertion order."""
        path = prefix + (self.name,)
        yield path, self
        for node in self.children.values():
            yield from node.walk(path)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "cycles": self.total_cycles,
            "instrs": self.total_instrs,
            "stalls": {k: v for k, v in sorted(self.total_stalls().items())
                       if v},
            "self": {
                "cycles": self.self_cycles,
                "instrs": self.self_instrs,
                "mnemonics": {name: {"instrs": c[0], "cycles": c[1]}
                              for name, c in sorted(self.mnemonics.items())},
            },
            "children": [node.to_dict()
                         for node in self.children.values()],
        }


class Profile:
    """An attribution tree plus run metadata and exporters."""

    def __init__(self, root: ProfileNode, meta: dict | None = None):
        self.root = root
        self.meta = dict(meta or {})

    @property
    def total_cycles(self) -> int:
        return self.root.total_cycles

    @property
    def total_instrs(self) -> int:
        return self.root.total_instrs

    def stall_summary(self) -> dict:
        """Stall cycles by cause; sums to ``total_cycles-total_instrs``."""
        return {k: v for k, v in sorted(self.root.total_stalls().items())
                if v}

    # -- exports -------------------------------------------------------
    def folded(self, mnemonics: bool = False) -> str:
        """Folded-stack lines (``a;b;c <cycles>``) for flamegraph tools.

        With ``mnemonics`` each leaf frame is the instruction display
        name, giving per-mnemonic flame width inside each region.
        """
        lines = []
        for path, node in self.root.walk():
            stack = ";".join(path)
            if mnemonics:
                for name, (_instrs, cycles) in sorted(node.mnemonics.items()):
                    if cycles:
                        lines.append(f"{stack};{name} {cycles}")
            elif node.self_cycles:
                lines.append(f"{stack} {node.self_cycles}")
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        stalls = self.stall_summary()
        return {
            "meta": self.meta,
            "total_cycles": self.total_cycles,
            "total_instrs": self.total_instrs,
            "stall_cycles": sum(stalls.values()),
            "stalls": stalls,
            "tree": self.root.to_dict(),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def table(self, max_depth: int | None = None) -> str:
        """Indented tree: cycles, share, instrs, stall split per region."""
        total = self.total_cycles or 1
        lines = [f"{'region':<40}{'cycles':>12}{'%':>7}{'instrs':>12}"
                 f"{'stall':>10}"]
        for path, node in self.root.walk():
            depth = len(path) - 1
            if max_depth is not None and depth > max_depth:
                continue
            cycles = node.total_cycles
            if not cycles:
                continue
            stall = sum(node.total_stalls().values())
            label = "  " * depth + node.name
            lines.append(f"{label:<40}{cycles:>12}"
                         f"{100.0 * cycles / total:>6.1f}%"
                         f"{node.total_instrs:>12}{stall:>10}")
        stalls = self.stall_summary()
        if stalls:
            split = "  ".join(f"{k}={v}" for k, v in stalls.items())
            lines.append(f"stall cycles: {split}")
        return "\n".join(lines)


def region_paths_from_labels(program) -> list:
    """One-level region paths from assembler labels.

    Each instruction maps to the nearest label at or before its address
    (``(entry)`` before the first label) — the fallback attribution for
    hand-written ``.s`` files that carry no builder metadata.
    """
    marks = sorted(((addr, name) for name, addr in program.labels.items()),
                   key=lambda kv: (kv[0], kv[1]))
    paths = []
    pos = 0
    current = "(entry)"
    for instr in program:
        while pos < len(marks) and marks[pos][0] <= instr.addr:
            current = marks[pos][1]
            pos += 1
        paths.append((current,))
    return paths


def profile_cpu(cpu, region_paths=None, root: str = "program",
                meta: dict | None = None) -> Profile:
    """Build a profile from a CPU's accumulated per-instruction stats.

    ``region_paths`` is one path tuple per static instruction (e.g.
    ``NetworkPlan.region_paths``); omitted, paths derive from labels.
    The profile covers everything the CPU has retired since reset, on
    either engine.
    """
    program = cpu.program
    if region_paths is None:
        region_paths = region_paths_from_labels(program)
    if len(region_paths) != len(program):
        raise ValueError(
            f"region_paths covers {len(region_paths)} instructions, "
            f"program has {len(program)}")
    wait = cpu.memory.wait_states
    root_node = ProfileNode(root)
    for instr, path, (count, cycles) in zip(program, region_paths,
                                            cpu._stats):
        if not count:
            continue
        node = root_node
        for part in path:
            node = node.child(part)
        node.record(instr.spec.display, count, cycles,
                    _classify_stalls(instr, count, cycles, wait))
    info = {"engine": cpu.engine, "wait_states": wait}
    info.update(meta or {})
    return Profile(root_node, info)


def profile_network(network, level_key: str = "e", engine: str = "interp",
                    seed: int = 2020, scale: int | None = None,
                    check: bool = False) -> Profile:
    """Run one network on the ISS and attribute every cycle.

    ``network`` is a :class:`~repro.nn.network.Network` or a suite
    network name (resolved at ``scale``).  Inputs and parameters follow
    the ``SuiteRunner`` recipe, so interp and turbo runs of the same
    call are bit-identical.  The profile's totals are asserted equal to
    the CPU ``Trace`` totals before returning.
    """
    import numpy as np

    from ..kernels.runner import NetworkProgram
    from ..nn.network import init_params, quantize_params

    if isinstance(network, str):
        from ..rrm.networks import suite
        by_name = {net.name: net for net in suite(scale)}
        if network not in by_name:
            raise KeyError(f"unknown network {network!r}; suite has "
                           f"{sorted(by_name)}")
        network = by_name[network]
    params = quantize_params(
        init_params(network, np.random.default_rng(seed)))
    program = NetworkProgram(network, params, level_key, engine=engine)
    rng = np.random.default_rng(seed)
    xs = [np.asarray(rng.uniform(-1.0, 1.0, network.input_size) * 4096,
                     dtype=np.int64)
          for _ in range(network.timesteps)]
    if check:
        program.run_and_check(xs)
    else:
        program.forward(xs)
    profile = profile_cpu(
        program.cpu, region_paths=program.plan.region_paths,
        root=network.name,
        meta={"network": network.name, "level": level_key,
              "timesteps": network.timesteps, "seed": seed})
    _assert_trace_exact(profile, program.trace)
    return profile


def _assert_trace_exact(profile: Profile, trace: Trace) -> None:
    if (profile.total_cycles != trace.total_cycles
            or profile.total_instrs != trace.total_instrs):
        raise AssertionError(
            f"profile totals ({profile.total_instrs} instrs, "
            f"{profile.total_cycles} cycles) != trace totals "
            f"({trace.total_instrs} instrs, {trace.total_cycles} cycles)")
