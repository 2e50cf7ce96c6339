"""Roofline capacity model: exact traffic counts and ceiling math.

All assertions pin explicit ``peak_flops``/``bandwidth`` so the tests
are deterministic — :func:`calibrate_host` is only checked for shape
and positivity, and its timing window through an injected clock.
"""

import pytest

from repro.nn.network import ConvSpec, DenseSpec, LstmSpec, Network
from repro.perfmodel import (calibrate_host, network_bytes, network_ops,
                             operational_intensity, roofline_point,
                             roofline_report)
from repro.perfmodel.roofline import measure_roofs
from repro.rrm.networks import FULL_SUITE

_DENSE = Network("d", (DenseSpec(8, 4, "relu"),), timesteps=1)
_LSTM = Network("l", (LstmSpec(6, 5),), timesteps=3)
_CONV = Network("c", (ConvSpec(2, 3, 6, 6, 3),), timesteps=1)


class TestTrafficCounts:
    def test_dense_ops(self):
        # 8*4 MACs, 2 ops each.
        assert network_ops(_DENSE) == 2 * 8 * 4

    def test_dense_bytes(self):
        # params: 8*4 weights + 4 biases; stream: 8 in + 4 out.
        assert network_bytes(_DENSE) == 2 * ((8 * 4 + 4) + (8 + 4))

    def test_lstm_bytes(self):
        params = 4 * 5 * (6 + 5) + 4 * 5
        stream = _LSTM.layers[0].in_size + _LSTM.layers[0].out_size \
            + 4 * 5  # h/c read + write
        assert network_bytes(_LSTM) == 2 * (params + stream * 3)

    def test_conv_bytes(self):
        params = 3 * 2 * 9 + 3
        spec = _CONV.layers[0]
        stream = spec.in_size + spec.out_size
        assert network_bytes(_CONV) == 2 * (params + stream)

    @pytest.mark.parametrize("rows", (1, 64))
    def test_weights_once_per_call_activations_per_row(self, rows):
        # LSTM: weights + biases once per call; input, output and h/c
        # state per timestep of every row.
        params = 4 * 5 * (6 + 5) + 4 * 5
        stream = 6 + 5 + 4 * 5
        assert network_bytes(_LSTM, rows) == 2 * (params + rows * stream * 3)
        assert operational_intensity(_LSTM, rows) == pytest.approx(
            rows * network_ops(_LSTM) / network_bytes(_LSTM, rows))

    def test_batching_raises_intensity(self):
        for net in FULL_SUITE:
            assert operational_intensity(net, 64) \
                > operational_intensity(net, 1)

    def test_intensity_is_ratio(self):
        for net in (_DENSE, _LSTM, _CONV):
            assert operational_intensity(net) == pytest.approx(
                network_ops(net) / network_bytes(net))

    def test_suite_counts_positive(self):
        for net in FULL_SUITE:
            assert network_ops(net) > 0
            assert network_bytes(net) > 0


class TestCeilingMath:
    def test_memory_bound(self):
        # Huge compute roof: the bandwidth roof binds.
        p = roofline_point(_DENSE, peak_flops=1e15, bandwidth=1e9)
        oi = operational_intensity(_DENSE)
        assert p["bound"] == "memory"
        assert p["attainable_ops_s"] == pytest.approx(1e9 * oi)
        assert p["ceiling_rps"] == pytest.approx(
            1e9 * oi / network_ops(_DENSE))

    def test_compute_bound(self):
        p = roofline_point(_DENSE, peak_flops=1e6, bandwidth=1e12)
        assert p["bound"] == "compute"
        assert p["attainable_ops_s"] == pytest.approx(1e6)

    def test_achieved_fields(self):
        p = roofline_point(_DENSE, peak_flops=1e9, bandwidth=1e9,
                           achieved_rps=100.0)
        assert p["achieved_ops_s"] == pytest.approx(
            100.0 * network_ops(_DENSE))
        assert p["pct_of_ceiling"] == pytest.approx(
            100.0 * 100.0 / p["ceiling_rps"])

    def test_ceiling_only_row_has_no_achieved(self):
        p = roofline_point(_DENSE, peak_flops=1e9, bandwidth=1e9)
        assert "achieved_rps" not in p
        assert "pct_of_ceiling" not in p

    def test_rows_per_call_shares_the_weights(self):
        one = roofline_point(_LSTM, peak_flops=1e15, bandwidth=1e9)
        many = roofline_point(_LSTM, peak_flops=1e15, bandwidth=1e9,
                              rows_per_call=64)
        assert many["rows_per_call"] == 64
        assert many["ops"] == one["ops"] == network_ops(_LSTM)
        assert many["bytes"] == pytest.approx(network_bytes(_LSTM, 64) / 64)
        assert many["oi"] == pytest.approx(operational_intensity(_LSTM, 64))
        assert many["ceiling_rps"] == pytest.approx(
            1e9 * many["oi"] / network_ops(_LSTM))
        assert many["ceiling_rps"] > one["ceiling_rps"]

    def test_rows_per_call_must_be_positive(self):
        with pytest.raises(ValueError, match="rows_per_call"):
            roofline_point(_DENSE, peak_flops=1e9, bandwidth=1e9,
                           rows_per_call=0)


class TestReport:
    def test_report_shape(self):
        rep = roofline_report(FULL_SUITE, peak_flops=2e9, bandwidth=1e9,
                              achieved_rps={FULL_SUITE[0].name: 50.0})
        assert rep["host"]["ridge_oi"] == pytest.approx(2.0)
        assert set(rep["per_network"]) == {n.name for n in FULL_SUITE}
        first = rep["per_network"][FULL_SUITE[0].name]
        assert first["achieved_rps"] == 50.0
        other = rep["per_network"][FULL_SUITE[1].name]
        assert "achieved_rps" not in other

    def test_rows_per_call_per_network(self):
        first, second = FULL_SUITE[0].name, FULL_SUITE[1].name
        rep = roofline_report(FULL_SUITE, peak_flops=2e9, bandwidth=1e9,
                              rows_per_call={first: 16})
        assert rep["per_network"][first]["rows_per_call"] == 16
        assert rep["per_network"][second]["rows_per_call"] == 1

    def test_calibration_shape_and_cache(self):
        cal = calibrate_host()
        assert cal["peak_flops"] > 0
        assert cal["bandwidth_bytes_s"] > 0
        assert cal["ridge_oi"] == pytest.approx(
            cal["peak_flops"] / cal["bandwidth_bytes_s"])
        assert calibrate_host() is cal

    def test_calibration_outlasts_a_busy_moment(self):
        # The clock makes the first four timed runs slow (a busy host)
        # and every later one fast: each roof keeps timing until its
        # window is spent, so both come from the fast runs.
        slow, fast = 0.03, 0.001
        ticks = [0, 0.0]

        def clock():
            ticks[0] += 1
            if ticks[0] % 2 == 0:  # the end of a timed run
                ticks[1] += slow if ticks[0] <= 8 else fast
            return ticks[1]
        roofs = measure_roofs(size=16, copy_mb=1, clock=clock)
        assert roofs["peak_flops"] == pytest.approx(2 * 16 ** 3 / fast)
        assert roofs["bandwidth_bytes_s"] == pytest.approx(
            2 * (1 << 20) / fast)
        assert ticks[0] > 2 * 4  # timing went on past the slow runs


class TestAotBenchWithinCeiling:
    def test_no_network_above_its_ceiling(self):
        # At batch 64 the weights are shared by 64 rows; charged once
        # per row instead, paper-scale networks read up to 180%.
        from repro.bench import aot
        result = aot(scale=1, batch=64, repeats=2, fuzz_batches=1)
        for name, point in result["roofline"]["per_network"].items():
            assert point["rows_per_call"] == 64
            assert 0 < point["pct_of_ceiling"] <= 100.0, name
