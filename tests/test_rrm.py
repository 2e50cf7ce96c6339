"""RRM benchmark suite definitions, scaling, scenarios, WMMSE, trainer."""

import numpy as np
import pytest

from repro.nn import ConvSpec, DenseSpec, LstmSpec
from repro.rrm import (FULL_SUITE, InterferenceChannel, MLPTrainer,
                       NETWORK_ORDER, SpectrumAccessEnv, make_wmmse_dataset,
                       sum_rate, train_power_allocator,
                       wmmse_power_allocation)
from repro.rrm.networks import suite


class TestSuiteDefinitions:
    def test_ten_networks_in_order(self):
        assert len(FULL_SUITE) == 10
        assert tuple(n.name for n in FULL_SUITE) == NETWORK_ORDER

    def test_kernel_mix_matches_paper(self):
        kinds = {n.name: {type(l).__name__ for l in n.layers}
                 for n in FULL_SUITE}
        assert "LstmSpec" in kinds["challita2017"]
        assert "LstmSpec" in kinds["naparstek2019"]
        assert "ConvSpec" in kinds["lee2018"]
        fc_only = [n for n in FULL_SUITE
                   if n.name not in ("challita2017", "naparstek2019",
                                     "lee2018")]
        for net in fc_only:
            assert all(isinstance(l, DenseSpec) for l in net.layers)

    def test_lstm_activation_budget(self):
        """Table Ic shows 0.4 kcycles of tanh/sig: the two LSTM networks
        must produce ~400 activation evaluations per suite pass (4n gate
        activations plus n pointwise tanh per timestep)."""
        total = 0
        for net in FULL_SUITE[:2]:
            for spec in net.layers:
                if isinstance(spec, LstmSpec):
                    total += net.timesteps * 5 * spec.n
        assert total == 400

    def test_suite_macs_order_of_magnitude(self):
        total = sum(n.macs_per_inference for n in FULL_SUITE)
        # paper: 1.62M MACs per suite pass; ours must be the same order
        assert 0.8e6 < total < 2.5e6

    def test_small_fm_networks_are_smallest(self):
        sizes = {n.name: n.macs_per_inference for n in FULL_SUITE}
        assert sizes["eisen2019"] == min(sizes.values())
        assert sizes["wang2018"] < np.median(list(sizes.values()))

    def test_lstm_widths_even(self):
        for net in FULL_SUITE:
            for spec in net.layers:
                if isinstance(spec, LstmSpec):
                    assert spec.m % 2 == 0 and spec.n % 2 == 0


class TestSuiteModule:
    def test_submodule_keeps_its_name(self):
        import importlib

        import repro.rrm.suite
        from repro.kernels import NetworkPlan
        module = repro.rrm.suite
        assert module is importlib.import_module("repro.rrm.suite")
        assert module.NetworkPlan is NetworkPlan
        net = suite(8)[0]
        assert module.plan_for(net, "e") is module.plan_for(net, "e")


class TestScaling:
    @pytest.mark.parametrize("scale", (1, 2, 4, 8))
    def test_scaled_suite_is_consistent(self, scale):
        for net in suite(scale):
            assert net.layers  # Network validates chaining on construction
            for spec in net.layers:
                if isinstance(spec, (DenseSpec, LstmSpec)):
                    assert spec.out_size % 2 == 0

    def test_scale_one_is_identity(self):
        assert suite(1) == FULL_SUITE

    def test_scaling_shrinks_macs(self):
        full = sum(n.macs_per_inference for n in FULL_SUITE)
        scaled = sum(n.macs_per_inference for n in suite(4))
        assert scaled < full / 6

    def test_conv_chain_scales_spatially_consistently(self):
        lee = next(n for n in suite(4) if n.name == "lee2018")
        convs = [l for l in lee.layers if isinstance(l, ConvSpec)]
        assert convs[1].h == convs[0].h_out
        assert convs[1].cin == convs[0].cout

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "2")
        from repro.rrm.networks import default_scale
        assert default_scale() == 2
        monkeypatch.setenv("REPRO_SCALE", "0")
        with pytest.raises(ValueError):
            default_scale()


class TestInterferenceChannel:
    def test_gain_matrix_properties(self):
        scenario = InterferenceChannel(6, seed=0)
        gains = scenario.gain_matrix()
        assert gains.shape == (6, 6)
        assert np.all(gains > 0)
        # normalization: median direct gain is 1
        assert np.median(np.diag(gains)) == pytest.approx(1.0)

    def test_direct_links_dominate_on_average(self):
        scenario = InterferenceChannel(8, seed=1)
        direct, cross = [], []
        for _ in range(20):
            gains = scenario.gain_matrix()
            direct.append(np.mean(np.diag(gains)))
            cross.append(np.mean(gains - np.diag(np.diag(gains))))
        assert np.mean(direct) > 5 * np.mean(cross)

    def test_features_shape_and_range(self):
        scenario = InterferenceChannel(4, seed=2)
        gains = scenario.gain_matrix()
        feats = scenario.features(gains, 16)
        assert feats.shape == (16,)
        assert np.all(np.abs(feats) <= 1.0)
        padded = scenario.features(gains, 20)
        assert np.all(padded[16:] == 0)
        truncated = scenario.features(gains, 9)
        assert truncated.shape == (9,)

    def test_seed_reproducibility(self):
        a = InterferenceChannel(5, seed=9).gain_matrix()
        b = InterferenceChannel(5, seed=9).gain_matrix()
        assert np.array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValueError):
            InterferenceChannel(0)


class TestWmmse:
    def test_symmetric_strong_interference_goes_binary(self):
        gains = np.array([[1.0, 0.9], [0.9, 1.0]])
        power = wmmse_power_allocation(gains, noise=0.1)
        assert sorted(power.round(3)) == [0.0, 1.0]

    def test_no_interference_full_power(self):
        gains = np.eye(3)
        power = wmmse_power_allocation(gains, noise=0.5)
        assert np.allclose(power, 1.0, atol=1e-3)

    def test_never_exceeds_budget(self):
        scenario = InterferenceChannel(5, seed=3)
        for _ in range(5):
            power = wmmse_power_allocation(scenario.gain_matrix(),
                                           p_max=0.7)
            assert np.all(power <= 0.7 + 1e-9)
            assert np.all(power >= 0)

    def test_beats_or_matches_full_power_in_dense_cells(self):
        scenario = InterferenceChannel(5, area_m=40.0, seed=4)
        wins = 0
        for _ in range(15):
            gains = scenario.gain_matrix()
            rate_w = sum_rate(gains, wmmse_power_allocation(gains))
            rate_f = sum_rate(gains, np.ones(5))
            assert rate_w > 0.85 * rate_f  # never catastrophically worse
            wins += rate_w >= rate_f
        assert wins >= 12

    def test_input_validation(self):
        with pytest.raises(ValueError):
            wmmse_power_allocation(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            wmmse_power_allocation(np.array([[-1.0]]))

    def test_sum_rate_zero_power(self):
        gains = np.eye(2)
        assert sum_rate(gains, np.zeros(2)) == 0.0


class TestSpectrumAccessEnv:
    def test_observation_is_pm_one(self):
        env = SpectrumAccessEnv(6, seed=0)
        obs = env.observation()
        assert set(np.unique(obs)).issubset({-1.0, 1.0})

    def test_reward_consistent_with_occupancy(self):
        env = SpectrumAccessEnv(4, seed=1)
        busy_before = env.occupancy.copy()
        reward, _ = env.step(2)
        assert reward == (-1.0 if busy_before[2] else 1.0)

    def test_occupancy_evolves_stochastically(self):
        env = SpectrumAccessEnv(16, p_busy_to_free=0.5, p_free_to_busy=0.5,
                                seed=2)
        before = env.occupancy.copy()
        env.step(0)
        env.step(0)
        assert not np.array_equal(before, env.occupancy)

    def test_validation(self):
        with pytest.raises(ValueError):
            SpectrumAccessEnv(0)
        with pytest.raises(ValueError):
            SpectrumAccessEnv(4, p_busy_to_free=1.5)
        env = SpectrumAccessEnv(4, seed=3)
        with pytest.raises(ValueError):
            env.step(4)


class TestTrainer:
    def test_loss_decreases(self):
        trainer, _ = train_power_allocator(
            n_pairs=3, hidden=(24,), n_samples=48, epochs=1)
        xs, ys, _ = make_wmmse_dataset(3, 48, seed=0)
        losses = trainer.fit(xs, ys, epochs=15)
        assert losses[-1] < losses[0] * 0.9

    def test_gradient_matches_numerical(self):
        from repro.nn import Network
        net = Network("g", (DenseSpec(3, 4, "relu"), DenseSpec(4, 2, "sig")))
        trainer = MLPTrainer(net, seed=0, lr=0.0)
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, (5, 3))
        y = rng.uniform(0, 1, (5, 2))

        def loss_at(params):
            saved = trainer.params
            trainer.params = params
            out, _ = trainer.forward(x)
            trainer.params = saved
            return np.mean((out - y) ** 2)

        # analytic gradient via a tiny-lr step
        trainer.lr = 1e-3
        base = loss_at(trainer.params)
        import copy
        before = copy.deepcopy(trainer.params)
        trainer.train_batch(x, y)
        grad_w00 = (before[0]["w"][0, 0] - trainer.params[0]["w"][0, 0]) \
            / trainer.lr
        eps = 1e-5
        perturbed = copy.deepcopy(before)
        perturbed[0]["w"][0, 0] += eps
        numeric = (loss_at(perturbed) - base) / eps
        assert grad_w00 == pytest.approx(numeric, rel=0.05, abs=1e-6)

    def test_dense_only_enforced(self):
        from repro.nn import Network
        with pytest.raises(ValueError):
            MLPTrainer(Network("l", (LstmSpec(4, 4),)))

    def test_weights_stay_in_q312_envelope(self):
        trainer, _ = train_power_allocator(
            n_pairs=3, hidden=(16,), n_samples=32, epochs=10)
        for layer in trainer.params:
            assert np.max(np.abs(layer["w"])) <= 4.0
