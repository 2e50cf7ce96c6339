"""Benchmark: suite-scale invariance of the speedup story.

`REPRO_SCALE` shrinks the networks for ISS runs; the claim that the
reduced-scale validation covers the paper-scale numbers rests on the
speedups being stable across scales.  This bench sweeps the static model
over scales 1/2/4/8 and asserts the stage ratios hold."""

import pytest

from repro.core.tracer import Trace
from repro.rrm.networks import suite
from repro.rrm.suite import LEVEL_KEYS, network_trace


def _speedups_at_scale(scale):
    networks = suite(scale)
    totals = {}
    for key in LEVEL_KEYS:
        total = Trace()
        for network in networks:
            total.merge(network_trace(network, key))
        totals[key] = total.total_cycles
    return {key: totals["a"] / totals[key] for key in LEVEL_KEYS}


def test_scale_invariance(benchmark, save_artifact):
    scales = (1, 2, 4, 8)
    table = benchmark.pedantic(
        lambda: {s: _speedups_at_scale(s) for s in scales},
        rounds=1, iterations=1)
    lines = ["suite speedups vs scale factor"]
    for scale, speeds in table.items():
        lines.append("  scale %d: " % scale + "  ".join(
            f"{k}={speeds[k]:.2f}" for k in LEVEL_KEYS))
    save_artifact("scaling.txt", "\n".join(lines))
    # ordering holds at every scale
    for speeds in table.values():
        assert speeds["b"] < speeds["c"] < speeds["d"]
        assert speeds["e"] > 0.97 * speeds["d"]
    # the full-scale stage-e speedup is the largest (smaller networks are
    # overhead-bound), and scale 4 stays within ~25% of scale 1
    assert table[1]["e"] >= table[8]["e"]
    assert table[4]["e"] > 0.75 * table[1]["e"]
    print()
    print("\n".join(lines))
