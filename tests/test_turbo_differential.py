"""Turbo engine vs. interpreter over the full RRM suite.

The tentpole guarantee: ``Cpu(engine="turbo")`` is *bit-exact* (final
registers, every memory word, SPR values and ready times, hardware-loop
registers) and *cycle-exact* (total cycles
AND every per-static-instruction ``[count, cycles]`` histogram cell)
against the closure interpreter, across all 10 suite networks at every
optimization level a-f, at scale 8 and at paper scale (scale 1).  Any
divergence — even one cycle attributed to a different instruction —
fails, and so does a turbo run that bails to its closures.
"""

import numpy as np
import pytest

from repro.kernels.runner import NetworkProgram
from repro.nn.network import init_params, quantize_params
from repro.rrm.networks import suite

LEVELS = "abcdef"


def _engine_state(network, params, xs, level, engine):
    program = NetworkProgram(network, params, level, engine=engine)
    outs = [list(map(int, program.step(x))) for x in xs]
    cpu = program.cpu
    return {
        "outs": outs,
        "instret": cpu.instret,
        "cycles": cpu.cycles,
        "regs": [cpu.reg(r) for r in range(32)],
        "sprs": list(cpu.sprs),
        "spr_ready": list(cpu._spr_ready),
        "hw": list(cpu._hw),
        "memory": tuple(cpu.memory.words),
        "stats": [tuple(cell) for cell in cpu._stats],
        "bails": cpu.turbo_stats["bails"],  # always 0 on the interpreter
    }


def _run_both(network, level):
    params = quantize_params(
        init_params(network, np.random.default_rng(2020)))
    rng = np.random.default_rng(7)
    xs = [np.asarray(rng.uniform(-1, 1, network.input_size) * 4096,
                     dtype=np.int64)
          for _ in range(network.timesteps)]
    ref = _engine_state(network, params, xs, level, "interp")
    tur = _engine_state(network, params, xs, level, "turbo")
    return ref, tur


#: (network index, scale): every network at scale 8, whose ids stay the
#: bare index, and at paper scale.
CASES = [pytest.param(i, 8, id=str(i)) for i in range(10)] + \
    [pytest.param(i, 1, id=f"{i}-scale1") for i in range(10)]


@pytest.mark.parametrize("net_index, scale", CASES)
def test_full_suite_bit_and_cycle_exact(net_index, scale):
    """All 10 networks x all 6 levels, at scale 8 and at paper scale
    (one timestep per network: one inference per level)."""
    network = suite(scale)[net_index]
    for level in LEVELS:
        ref, tur = _run_both(network, level)
        for key in ref:
            assert tur[key] == ref[key], \
                f"{network.name} level {level}: {key} diverges"


@pytest.mark.parametrize("net_index", [0, 3])
def test_default_scale_spot_check(net_index):
    """Two networks at the default benchmarking scale for larger loop
    trip counts (the scale the Table I validation runs use)."""
    network = suite(4)[net_index]
    for level in LEVELS:
        ref, tur = _run_both(network, level)
        for key in ref:
            assert tur[key] == ref[key], \
                f"{network.name} level {level}: {key} diverges"
