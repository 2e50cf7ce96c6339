"""Bit-exactness of the batched model against the per-sample golden model.

Property-style: for every suite network, random Q3.12 parameters and
inputs, batch sizes 1/3/16 and multiple timesteps, every row of the
compiled batched model's output must equal an independent per-sample
``QuantModel`` run.
"""

import dataclasses
import zlib

import numpy as np
import pytest

from repro.nn.layers import conv2d_fixed, dense_fixed, lstm_step_fixed
from repro.nn.network import (ConvSpec, DenseSpec, LstmSpec, Network,
                              QuantModel, init_params, quantize_params)
from repro.rrm.networks import FULL_SUITE, suite
from repro.serve.aot import AotBatchedModel

BATCH_SIZES = (1, 3, 16)


def _params(network, seed=7, scale=1.0):
    return quantize_params(
        init_params(network, np.random.default_rng(seed), scale=scale))


def _inputs(rng, shape, spread=1.0):
    return np.asarray(rng.uniform(-spread, spread, shape) * 4096,
                      dtype=np.int64)


def _stepped(network):
    # Recurrent networks get several timesteps so batched state (h, c)
    # evolution is exercised, not just a single forward.
    if network.is_recurrent:
        return dataclasses.replace(network, timesteps=3)
    return network


def _assert_bitexact(network, params, xs):
    """xs: (B, T, in_size); every row must match a per-sample run."""
    batch_size, timesteps, _ = xs.shape
    out = AotBatchedModel(network, params).infer(xs)
    for row in range(batch_size):
        reference = QuantModel(network, params)
        expected = reference.forward(xs[row])
        assert np.array_equal(out[row], expected), (
            f"{network.name}: batched row {row} diverges "
            f"(B={batch_size}, T={timesteps})")


class TestFullSuiteBitExact:
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    @pytest.mark.parametrize("network", FULL_SUITE,
                             ids=[n.name for n in FULL_SUITE])
    def test_matches_per_sample_quantmodel(self, network, batch_size):
        network = _stepped(network)
        rng = np.random.default_rng(
            zlib.crc32(repr((network.name, batch_size)).encode()))
        xs = _inputs(rng, (batch_size, network.timesteps,
                           network.input_size))
        _assert_bitexact(network, _params(network), xs)

    @pytest.mark.parametrize("network", suite(4),
                             ids=[n.name for n in suite(4)])
    def test_scaled_suite_saturation_stress(self, network):
        # Oversized params + inputs spanning the full Q3.12 range drive
        # the datapath into saturation and 32-bit wraparound; the batched
        # model must reproduce those exactly too.
        network = _stepped(network)
        rng = np.random.default_rng(99)
        xs = _inputs(rng, (8, network.timesteps, network.input_size),
                     spread=7.9)
        _assert_bitexact(network, _params(network, scale=6.0), xs)


class TestBatchedPrimitives:
    """One layer per network, against the scalar layer functions."""

    @staticmethod
    def _model(layer, rng, shape_w, n_out, timesteps=1):
        network = Network(name="one", layers=(layer,), timesteps=timesteps)
        params = [{"w": rng.integers(-2000, 2000, shape_w, dtype=np.int64),
                   "b": rng.integers(-500, 500, n_out, dtype=np.int64)}]
        return AotBatchedModel(network, params), params[0]

    def test_dense_rows_independent(self):
        rng = np.random.default_rng(3)
        model, p = self._model(DenseSpec(9, 6), rng, (6, 9), 6)
        x = rng.integers(-32768, 32768, (4, 1, 9), dtype=np.int64)
        out = model.infer(x)
        for row in range(4):
            assert np.array_equal(out[row],
                                  dense_fixed(p["w"], x[row, 0], p["b"]))

    def test_lstm_rows_independent(self):
        rng = np.random.default_rng(4)
        m, n, batch, steps = 6, 4, 3, 3
        model, p = self._model(LstmSpec(m, n), rng, (4 * n, m + n),
                               4 * n, timesteps=steps)
        x = rng.integers(-8000, 8000, (batch, steps, m), dtype=np.int64)
        out = model.infer(x)
        for row in range(batch):
            h = c = np.zeros(n, dtype=np.int64)
            for t in range(steps):
                h, c = lstm_step_fixed(p["w"], p["b"], x[row, t], h, c)
            assert np.array_equal(out[row], h)

    def test_conv_rows_independent(self):
        rng = np.random.default_rng(5)
        model, p = self._model(ConvSpec(2, 3, 6, 6, 3), rng, (3, 2, 3, 3), 3)
        x = rng.integers(-8000, 8000, (4, 1, 2 * 6 * 6), dtype=np.int64)
        out = model.infer(x)
        for row in range(4):
            planes = x[row, 0].reshape(2, 6, 6)
            assert np.array_equal(
                out[row], conv2d_fixed(p["w"], planes, p["b"]).reshape(-1))


class TestBatchedApi:
    def _network(self):
        return Network(name="t", layers=(LstmSpec(4, 4),
                                         DenseSpec(4, 2, "sig")),
                       timesteps=2)

    def test_infer_broadcasts_single_input(self):
        network = self._network()
        params = _params(network)
        rng = np.random.default_rng(0)
        x = _inputs(rng, (3, network.input_size))
        out = AotBatchedModel(network, params).infer(x)
        # (B, in) means "feed the same input at every timestep".
        for row in range(3):
            expected = QuantModel(network, params).forward(
                [x[row]] * network.timesteps)
            assert np.array_equal(out[row], expected)

    def test_infer_rejects_bad_timesteps(self):
        network = self._network()
        model = AotBatchedModel(network, _params(network))
        with pytest.raises(ValueError, match="expected"):
            model.infer(np.zeros((2, 5, network.input_size),
                                 dtype=np.int64))

    def test_infer_requires_positive_batch(self):
        network = self._network()
        model = AotBatchedModel(network, _params(network))
        with pytest.raises(ValueError, match="B >= 1"):
            model.infer(np.zeros((0, network.timesteps,
                                  network.input_size), dtype=np.int64))
