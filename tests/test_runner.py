"""NetworkPlan / NetworkProgram: placement, execution, golden checking."""

import numpy as np
import pytest

from repro.kernels import LEVELS, NetworkPlan, NetworkProgram
from repro.kernels.runner import FRAME_REGS
from repro.nn import (ConvSpec, DenseSpec, LstmSpec, Network, init_params, quantize_params)
from repro.rrm.networks import FULL_SUITE

LEVEL_KEYS = ("a", "b", "c", "d", "e")


def _params(net, seed=0):
    return quantize_params(init_params(net, np.random.default_rng(seed)))


def _inputs(net, count, seed=1):
    rng = np.random.default_rng(seed)
    return [np.asarray(rng.uniform(-1, 1, net.input_size) * 4096,
                       dtype=np.int64) for _ in range(count)]


MIXED = Network("mixed", (DenseSpec(6, 12, "relu"), LstmSpec(12, 8),
                          LstmSpec(8, 6), DenseSpec(6, 4, "sig")))
FEEDFORWARD = Network("ff", (DenseSpec(8, 20, "relu"),
                             DenseSpec(20, 12, "tanh"), DenseSpec(12, 3)))
CNN = Network("cnn", (ConvSpec(2, 4, 6, 6, 3), DenseSpec(64, 10, "relu"),
                      DenseSpec(10, 4)))


class TestEndToEnd:
    @pytest.mark.parametrize("level", LEVEL_KEYS)
    @pytest.mark.parametrize("net", (MIXED, FEEDFORWARD, CNN),
                             ids=lambda n: n.name)
    def test_bit_exact_vs_golden(self, level, net):
        program = NetworkProgram(net, _params(net), level)
        program.run_and_check(_inputs(net, 3))

    @pytest.mark.parametrize("level", LEVEL_KEYS)
    def test_iss_matches_static_model(self, level):
        program = NetworkProgram(MIXED, _params(MIXED), level)
        steps = 4
        program.forward(_inputs(MIXED, steps))
        assert program.trace == program.plan.trace.scaled(steps)

    def test_mismatch_reported_with_context(self):
        program = NetworkProgram(FEEDFORWARD, _params(FEEDFORWARD), "d")
        # corrupt the last layer's weights in simulator memory only: the
        # corruption reaches the output unmasked by any activation
        addr = program.plan.layout.addr("w2")
        program.memory.store_halfwords(addr, [32767] * 8)
        with pytest.raises(AssertionError, match="ff level d"):
            program.run_and_check(_inputs(FEEDFORWARD, 1))

    def test_reset_state_reproduces_run(self):
        program = NetworkProgram(MIXED, _params(MIXED), "c")
        xs = _inputs(MIXED, 2)
        first = program.forward(xs)
        program.reset_state()
        again = program.forward(xs)
        assert np.array_equal(first, again)

    def test_bad_input_shape_rejected(self):
        program = NetworkProgram(FEEDFORWARD, _params(FEEDFORWARD), "b")
        with pytest.raises(ValueError):
            program.step(np.zeros(3, dtype=np.int64))


class TestInstructionBudget:
    @pytest.mark.parametrize("engine", ("interp", "turbo"))
    def test_budget_is_per_inference(self, engine):
        # eisen2019 retires 1206 instructions per inference at level e,
        # so 100 of them retire well past the budget in total; only a
        # single run may not.
        net = next(n for n in FULL_SUITE if n.name == "eisen2019")
        program = NetworkProgram(net, _params(net), "e",
                                 max_instrs=50_000, engine=engine)
        for x in _inputs(net, 100):
            program.step(x)
        assert program.cpu.instret == 100 * 1206


class TestPlanning:
    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            NetworkPlan(FEEDFORWARD, "z")

    def test_odd_lstm_width_rejected(self):
        net = Network("odd", (LstmSpec(6, 5),))
        with pytest.raises(ValueError):
            NetworkPlan(net, "d")

    def test_regions_do_not_overlap(self):
        plan = NetworkPlan(MIXED, "e")
        spans = sorted((addr, addr + size)
                       for addr, size in plan.layout.regions.values())
        for (a_start, a_end), (b_start, b_end) in zip(spans, spans[1:]):
            assert a_end <= b_start

    def test_lstm_chain_has_copy(self):
        plan = NetworkPlan(MIXED, "d")
        assert "copy" in plan.text  # comment emitted by gen_copy

    def test_single_lstm_has_no_copy(self):
        net = Network("l", (DenseSpec(4, 6), LstmSpec(6, 4)))
        plan = NetworkPlan(net, "d")
        assert "copy" not in plan.text

    def test_cycles_per_step_positive_and_ordered(self):
        cycles = {k: NetworkPlan(MIXED, k).cycles_per_step
                  for k in LEVEL_KEYS}
        assert cycles["a"] > cycles["b"] > cycles["c"] > cycles["d"]

    def test_frame_regs_table_covers_levels(self):
        assert set(FRAME_REGS) == set(LEVELS)  # a-e plus the "f" study

    def test_level_object_accepted(self):
        plan = NetworkPlan(FEEDFORWARD, LEVELS["c"])
        assert plan.level is LEVELS["c"]


class TestLayoutDetails:
    def test_lstm_first_layer_input_is_xh(self):
        net = Network("l0", (LstmSpec(4, 6), DenseSpec(6, 2)))
        plan = NetworkPlan(net, "d")
        assert plan.input_addr == plan.layout.addr("xh0")

    def test_dense_before_lstm_writes_into_xh(self):
        plan = NetworkPlan(MIXED, "d")
        # buf1 must not exist: dense layer 0 writes straight into xh1
        assert "buf1" not in plan.layout.regions
        assert "xh1" in plan.layout.regions

    def test_output_addr_is_last_buffer(self):
        plan = NetworkPlan(FEEDFORWARD, "d")
        assert plan.output_addr == plan.layout.addr("buf3")

    def test_lstm_output_addr_is_h_region(self):
        net = Network("l", (DenseSpec(4, 6), LstmSpec(6, 4)))
        plan = NetworkPlan(net, "d")
        assert plan.output_addr == plan.layout.addr("xh1") + 2 * 6


class TestWaitStates:
    def test_wait_states_slow_execution_only(self):
        import numpy as np
        net = FEEDFORWARD
        params = _params(net)
        fast = NetworkProgram(net, params, "d")
        slow = NetworkProgram(net, params, "d", wait_states=2)
        xs = _inputs(net, 1)
        out_fast = fast.forward(xs)
        out_slow = slow.forward(xs)
        assert np.array_equal(out_fast, out_slow)
        assert slow.trace.total_cycles > 1.5 * fast.trace.total_cycles
