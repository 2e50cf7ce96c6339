"""Benchmarks for the beyond-the-paper studies: RV32C code size and the
INT8 throughput/accuracy trade-off."""

import pytest

from repro.eval.codesize import compute_codesize, format_codesize
from repro.eval.int8_study import (compute_int8_study, format_int8_study)
from repro.rrm.networks import suite


def test_codesize(benchmark, save_artifact):
    result = benchmark.pedantic(lambda: compute_codesize(suite(4)),
                                rounds=1, iterations=1)
    save_artifact("codesize.txt", format_codesize(result))
    # baseline code is the most compressible; every level gains something
    assert result["a"]["fraction"] == max(s["fraction"]
                                          for s in result.values())
    for stats in result.values():
        assert stats["ratio"] < 1.0
    print()
    print(format_codesize(result))


def test_int8_study(benchmark, save_artifact):
    result = benchmark.pedantic(compute_int8_study, rounds=1, iterations=1)
    save_artifact("int8_study.txt", format_int8_study(result))
    assert 1.6 <= result["cycles"]["speedup"] <= 2.1
    assert abs(result["accuracy"]["loss_q3_12_pct"]) < 0.5
    assert result["accuracy"]["loss_q3_4_pct"] > \
        result["accuracy"]["loss_q3_12_pct"]
    print()
    print(format_int8_study(result))


def test_bitwidth_sweep(benchmark, save_artifact):
    from repro.eval.bitwidth import compute_bitwidth_sweep, format_bitwidth
    result = benchmark.pedantic(lambda: compute_bitwidth_sweep(n_eval=25),
                                rounds=1, iterations=1)
    save_artifact("bitwidth.txt", format_bitwidth(result))
    losses = {r["frac_bits"]: r["loss_pct"] for r in result["rows"]}
    assert losses[4] == max(losses.values())
    assert abs(losses[12]) < 0.25
    print()
    print(format_bitwidth(result))


def test_level_f(benchmark, save_artifact):
    from repro.eval.beyond import compute_beyond, format_beyond
    result = benchmark.pedantic(compute_beyond, rounds=1, iterations=1)
    save_artifact("beyond_level_f.txt", format_beyond(result))
    assert result["suite_speedup_f"] > result["suite_speedup_e"]
    assert 1.0 < result["suite_gain_pct"] < 10.0
    # the pointer-setup-bound small networks gain the most
    gains = {r["name"]: r["gain_pct"] for r in result["rows"]}
    assert gains["eisen2019"] > gains["ye2018"]
    print()
    print(format_beyond(result))
