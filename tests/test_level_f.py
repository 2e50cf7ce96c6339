"""Level f (interleaved stream + fused activations) end-to-end."""

import numpy as np
import pytest

from repro.kernels import LEVELS, NetworkProgram
from repro.nn import (ConvSpec, DenseSpec, LstmSpec, Network, init_params,
                      quantize_params)
from repro.rrm.networks import suite
from repro.rrm.suite import network_trace


def _params(net, seed=0):
    return quantize_params(init_params(net, np.random.default_rng(seed)))


def _inputs(net, count, seed=1):
    rng = np.random.default_rng(seed)
    return [np.asarray(rng.uniform(-1, 1, net.input_size) * 4096,
                       dtype=np.int64) for _ in range(count)]


NETS = (
    Network("fd", (DenseSpec(12, 40, "relu"), DenseSpec(40, 20, "tanh"),
                   DenseSpec(20, 6, "sig"))),
    Network("fl", (DenseSpec(6, 12, "relu"), LstmSpec(12, 8),
                   LstmSpec(8, 6), DenseSpec(6, 4, "sig"))),
    Network("fc", (ConvSpec(2, 4, 6, 6, 3), DenseSpec(64, 10, "relu"),
                   DenseSpec(10, 4))),
)


class TestLevelF:
    @pytest.mark.parametrize("net", NETS, ids=lambda n: n.name)
    def test_bit_exact_and_model_match(self, net):
        program = NetworkProgram(net, _params(net), "f")
        program.run_and_check(_inputs(net, 3))
        assert program.trace == program.plan.trace.scaled(3)

    @pytest.mark.parametrize("net", NETS, ids=lambda n: n.name)
    def test_faster_than_level_e(self, net):
        cycles_e = NetworkProgram(net, _params(net), "e") \
            .plan.cycles_per_step
        cycles_f = NetworkProgram(net, _params(net), "f") \
            .plan.cycles_per_step
        assert cycles_f < cycles_e

    def test_level_f_definition(self):
        level = LEVELS["f"]
        assert level.max_tile == 18
        assert level.vliw and level.hw_activations

    def test_suite_gain_shape(self):
        from repro.eval.beyond import compute_beyond
        result = compute_beyond(suite(4))
        assert 0 < result["suite_gain_pct"] < 15
        assert result["suite_speedup_f"] > result["suite_speedup_e"]
        for row in result["rows"]:
            assert row["f"] <= row["e"]

    def test_scaled_suite_iss_validation(self):
        """Every network of the reduced suite runs bit-exactly at level f
        and matches the static model."""
        for network in suite(8):
            params = _params(network, seed=3)
            program = NetworkProgram(network, params, "f")
            program.run_and_check(_inputs(network, network.timesteps,
                                          seed=4))
            iss = program.trace
            model = network_trace(network, "f").scaled(1)
            for t in (iss, model):
                t.instrs.pop("ebreak", None)
                t.cycles.pop("ebreak", None)
            assert iss == model, network.name
