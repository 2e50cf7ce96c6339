"""Traffic models: determinism, mean-rate normalisation, tenant mixes."""

import numpy as np
import pytest

from repro.rrm.networks import suite
from repro.serve.loadgen import (LoadGenerator, TrafficModel,
                                 make_request_stream, make_tenant_stream)

NETWORKS = suite(4)


class TestTrafficModel:
    @pytest.mark.parametrize("kind", TrafficModel.KINDS)
    def test_arrivals_deterministic_and_monotone(self, kind):
        model = TrafficModel(kind=kind)
        a = model.arrival_times(200, rate_rps=100.0, seed=7)
        b = model.arrival_times(200, rate_rps=100.0, seed=7)
        assert np.array_equal(a, b)
        assert np.all(np.diff(a) > 0)
        assert a[0] > 0

    def test_different_seeds_differ(self):
        model = TrafficModel(kind="bursty")
        a = model.arrival_times(50, 100.0, seed=1)
        b = model.arrival_times(50, 100.0, seed=2)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("kind", TrafficModel.KINDS)
    def test_mean_rate_approximately_preserved(self, kind):
        # Every modulation is normalised by its long-run mean, so the
        # *average* offered load matches plain Poisson to ~15%.
        model = TrafficModel(kind=kind)
        times = model.arrival_times(4000, rate_rps=1000.0, seed=3)
        achieved = len(times) / times[-1]
        assert achieved == pytest.approx(1000.0, rel=0.15)

    def test_bursty_has_heavier_tail_than_poisson(self):
        n, rate = 4000, 1000.0
        poisson = TrafficModel().arrival_times(n, rate, seed=5)
        bursty = TrafficModel(
            kind="bursty", burst_rate_multiplier=8.0).arrival_times(
                n, rate, seed=5)
        # Burst phases compress inter-arrivals: the gap distribution's
        # dispersion (CV) must exceed the exponential's CV of 1.
        def cv(times):
            gaps = np.diff(times)
            return float(np.std(gaps) / np.mean(gaps))
        assert cv(bursty) > cv(poisson) * 1.1

    def test_diurnal_rate_actually_varies(self):
        n, rate = 2000, 1000.0
        times = TrafficModel(kind="diurnal",
                             diurnal_depth=0.9).arrival_times(
                                 n, rate, seed=9)
        # Split the run into quarters: peak quarter must see far more
        # arrivals than trough quarter under a 0.9-depth sinusoid.
        quarters = np.searchsorted(
            times, np.linspace(0, times[-1], 5)[1:-1])
        counts = np.diff(np.concatenate([[0], quarters, [n]]))
        assert max(counts) > 1.5 * min(counts)

    def test_validation(self):
        with pytest.raises(ValueError):
            TrafficModel(kind="tidal")
        with pytest.raises(ValueError):
            TrafficModel(diurnal_depth=1.0)
        with pytest.raises(ValueError):
            TrafficModel(burst_rate_multiplier=0.5)

    def test_to_dict_only_carries_relevant_knobs(self):
        assert TrafficModel().to_dict() == {"kind": "poisson"}
        bursty = TrafficModel(kind="bursty").to_dict()
        assert "burst_rate_multiplier" in bursty
        assert "diurnal_depth" not in bursty
        both = TrafficModel(kind="diurnal-bursty").to_dict()
        assert "burst_rate_multiplier" in both
        assert "diurnal_depth" in both


class TestTenantStream:
    def test_stream_shape_matches_uniform_stream(self):
        stream, info = make_tenant_stream(NETWORKS, 40, n_tenants=4,
                                          seed=11)
        uniform = make_request_stream(NETWORKS, 40, seed=11)
        assert len(stream) == len(uniform)
        for network, x in stream:
            assert network in NETWORKS
            assert x.shape == (network.timesteps, network.input_size)
            assert x.dtype == np.int64

    def test_deterministic(self):
        a, info_a = make_tenant_stream(NETWORKS, 30, seed=13)
        b, info_b = make_tenant_stream(NETWORKS, 30, seed=13)
        assert info_a["mixes"] == info_b["mixes"]
        for (net_a, x_a), (net_b, x_b) in zip(a, b):
            assert net_a.name == net_b.name
            assert np.array_equal(x_a, x_b)

    def test_tenants_round_robin_and_mixes_sum_to_one(self):
        n_tenants = 3
        stream, info = make_tenant_stream(NETWORKS, 31,
                                          n_tenants=n_tenants, seed=17)
        assert info["tenant_of"] == [i % n_tenants for i in range(31)]
        assert len(info["mixes"]) == n_tenants
        for mix in info["mixes"].values():
            assert sum(mix.values()) == pytest.approx(1.0, abs=0.01)

    def test_low_concentration_skews_mixes(self):
        def mean_top_share(concentration):
            _, info = make_tenant_stream(NETWORKS, 10, n_tenants=4,
                                         seed=19,
                                         concentration=concentration)
            tops = [max(mix.values())
                    for mix in info["mixes"].values()]
            return sum(tops) / len(tops)

        # Low concentration concentrates each tenant's traffic on a few
        # networks; high concentration approaches the uniform mix
        # (top share -> 1/len(NETWORKS)).
        assert mean_top_share(0.1) > 2 * mean_top_share(50.0)
        assert mean_top_share(50.0) < 2.0 / len(NETWORKS)

    def test_needs_a_tenant(self):
        with pytest.raises(ValueError):
            make_tenant_stream(NETWORKS, 10, n_tenants=0)


class TestGeneratorIntegration:
    class _NullEngine:
        """Accepts everything instantly (duck-typed engine)."""

        class _Request:
            status = "done"
            ok = True

            def wait(self, timeout=None):
                return True

        def submit(self, name, x_raw, timeout_s=None):
            return self._Request()

    def test_generator_accepts_traffic_model(self):
        generator = LoadGenerator(self._NullEngine(), rate_rps=50_000.0,
                                  traffic=TrafficModel(kind="bursty"))
        summary = generator.run(make_request_stream(NETWORKS, 20))
        assert len(summary["requests"]) == 20
        assert summary["traffic"]["kind"] == "bursty"
        assert summary["interrupted"] is False
