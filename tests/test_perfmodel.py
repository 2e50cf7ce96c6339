"""Analytical performance model: builder counts vs. closed-form marginals
and vs. the ISS on the scaled benchmark suite."""

import pytest

from repro.kernels import AsmBuilder, LEVELS, MatvecJob, gen_matvec, padded_row
from repro.perfmodel import matvec_marginal, network_trace, plan_for
from repro.rrm import SuiteRunner
from repro.rrm.networks import suite
from repro.rrm.suite import LEVEL_KEYS


def _counts(level_key, n_in, n_out, max_tile=10):
    builder = AsmBuilder()
    job = MatvecJob(n_in=n_in, n_out=n_out, w_addr=0x1000, x_addr=0x4000,
                    b_addr=0x5000, out_addr=0x5800,
                    row_halfwords=padded_row(n_in, level_key),
                    acc_addr=0x0FF0, max_tile=max_tile)
    gen_matvec(builder, LEVELS[level_key], job)
    return builder.trace


class TestClosedFormMarginals:
    """Differencing the builder over n_in cancels all prologue costs; what
    remains must equal the written-down per-element algebra exactly."""

    @pytest.mark.parametrize("level", LEVEL_KEYS)
    def test_marginal_instructions_and_cycles(self, level):
        marg = matvec_marginal(level, tile=10)
        unit = marg["unit_elems"]
        if level == "a":
            n_out = 1
            tiles = 1
        else:
            n_out = 10
            tiles = 1
        small = _counts(level, 3 * unit, n_out)
        large = _counts(level, 7 * unit, n_out)
        d_units = (7 - 3)
        per_pass = n_out if level in ("a", "b") else tiles
        d_instr = large.total_instrs - small.total_instrs
        d_cycles = large.total_cycles - small.total_cycles
        assert d_instr == marg["instrs"] * d_units * per_pass
        assert d_cycles == marg["cycles"] * d_units * per_pass

    @pytest.mark.parametrize("level", LEVEL_KEYS)
    def test_macs_per_cycle_ordering(self, level):
        marg = matvec_marginal(level)
        density = marg["macs"] / marg["cycles"]
        expected_floor = {"a": 0.1, "b": 0.45, "c": 0.9, "d": 1.5,
                          "e": 1.7}[level]
        assert density >= expected_floor

    def test_unknown_level(self):
        with pytest.raises(ValueError):
            matvec_marginal("z")


class TestPlanCache:
    def test_plan_for_caches(self):
        net = suite(8)[3]
        assert plan_for(net, "c") is plan_for(net, "c")

    def test_network_trace_scales_with_timesteps(self):
        net = suite(8)[0]  # recurrent
        per_inf = network_trace(net, "d")
        per_step = plan_for(net, "d").trace
        assert per_inf.total_cycles == per_step.total_cycles * net.timesteps


@pytest.mark.slow
class TestModelVsIssOnSuite:
    """End-to-end: the static model equals the ISS execution histogram for
    every network of the (reduced-scale) suite at every level."""

    @pytest.mark.parametrize("level", LEVEL_KEYS)
    def test_suite_model_equals_iss(self, level):
        runner = SuiteRunner(scale=8, check=True)
        for network in runner.networks:
            iss = runner.run_network(network, level)
            model = network_trace(network, level)
            iss.instrs.pop("ebreak", None)
            iss.cycles.pop("ebreak", None)
            model.instrs.pop("ebreak", None)
            model.cycles.pop("ebreak", None)
            assert iss == model, f"{network.name} at level {level}"
