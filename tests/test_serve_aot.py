"""AOT serving plans: bit-exactness, cycle-exactness, ABFT, input range.

Every row of the compiled model, with and without the ABFT checksum,
must equal an independent scalar ``QuantModel`` run — on every suite
network, over the full int16 input range.  Cycle estimates must equal
the static performance model exactly.
"""

import zlib

import numpy as np
import pytest

from repro.kernels.common import LEVELS
from repro.nn.network import (DenseSpec, Network, QuantModel, init_params,
                              quantize_params)
from repro.perfmodel import predict_network_cycles
from repro.resilience.abft import SdcDetected
from repro.rrm.networks import FULL_SUITE, suite
from repro.serve.aot import (AotBatchedModel, _PLAN_CACHE,
                             build_serving_model, compile_plan)

_IDS = [n.name for n in FULL_SUITE]


def _seed(*key) -> int:
    """An RNG seed fixed by ``key`` in every process (``hash`` of a
    string is salted per process, so it would draw new inputs per run)."""
    return zlib.crc32(repr(key).encode())


def _params(network, seed=7, scale=1.0):
    return quantize_params(
        init_params(network, np.random.default_rng(seed), scale=scale))


def _inputs(rng, shape, spread=1.0):
    return np.asarray(rng.uniform(-spread, spread, shape) * 4096,
                      dtype=np.int64)


def _batch(network, rng, batch_size, spread=1.0):
    return _inputs(rng, (batch_size, network.timesteps,
                         network.input_size), spread=spread)


def _full_range(network, rng, batch_size):
    return rng.integers(-32768, 32768, (batch_size, network.timesteps,
                                        network.input_size), dtype=np.int64)


def _scalar_rows(network, params, xs):
    """Each ``(T, in_size)`` row of ``xs`` through the scalar oracle."""
    model = QuantModel(network, params)
    outs = []
    for x in xs:
        model.reset()
        outs.append(model.forward(x))
    return np.stack(outs)


class TestBitExactness:
    """Compiled plan ≡ ABFT plan ≡ scalar QuantModel."""

    @pytest.mark.parametrize("batch_size", (1, 3, 16))
    @pytest.mark.parametrize("network", FULL_SUITE, ids=_IDS)
    def test_triple_equivalence(self, network, batch_size):
        rng = np.random.default_rng(_seed("aot", network.name, batch_size))
        params = _params(network)
        xs = _batch(network, rng, batch_size)
        out = AotBatchedModel(network, params).infer(xs)
        checked = AotBatchedModel(network, params, abft=True)
        assert np.array_equal(checked.infer(xs), out)
        assert checked.sdc_detections == 0
        assert np.array_equal(out, _scalar_rows(network, params, xs)), (
            f"{network.name}: AOT diverges from scalar")

    @pytest.mark.parametrize("network", suite(4),
                             ids=[n.name for n in suite(4)])
    def test_saturation_stress(self, network):
        # Oversized params + full-range inputs exercise saturation and
        # 32-bit wraparound through the float64-GEMM datapath.
        rng = np.random.default_rng(_seed("sat", network.name))
        params = _params(network, scale=8.0)
        xs = _full_range(network, rng, 8)
        assert np.array_equal(AotBatchedModel(network, params).infer(xs),
                              _scalar_rows(network, params, xs))

    @pytest.mark.parametrize("network", FULL_SUITE, ids=_IDS)
    def test_fuzz_randomized(self, network):
        params = _params(network, seed=31, scale=2.0)
        aot = AotBatchedModel(network, params)
        for trial in range(5):
            rng = np.random.default_rng(9000 + trial)
            xs = _batch(network, rng, int(rng.integers(1, 9)),
                        spread=float(rng.uniform(0.1, 8.0)))
            assert np.array_equal(aot.infer(xs),
                                  _scalar_rows(network, params, xs))

    def test_2d_input_path(self):
        network = FULL_SUITE[0]
        params = _params(network)
        rng = np.random.default_rng(3)
        x2 = _inputs(rng, (5, network.input_size))
        expanded = np.repeat(x2[:, None, :], network.timesteps, axis=1)
        assert np.array_equal(AotBatchedModel(network, params).infer(x2),
                              _scalar_rows(network, params, expanded))

    @pytest.mark.parametrize("network", suite(4),
                             ids=[n.name for n in suite(4)])
    def test_int16_min_batch_matches_scalar(self, network):
        # -32768 is a legal int16 value: it must take the compiled path
        # and stay exact, on the largest weights too.
        params = _params(network, scale=8.0)
        xs = np.full((4, network.timesteps, network.input_size), -32768,
                     dtype=np.int64)
        assert np.array_equal(AotBatchedModel(network, params).infer(xs),
                              _scalar_rows(network, params, xs))

    @pytest.mark.parametrize("value", (32768, -32769))
    def test_out_of_range_input_raises(self, value):
        # Beyond int16 the float64 exactness proof is void, and the
        # paper's 16-bit datapath cannot hold the value either.
        network = FULL_SUITE[0]
        model = AotBatchedModel(network, _params(network))
        xs = np.zeros((3, network.timesteps, network.input_size),
                      dtype=np.int64)
        xs[1, 0, 0] = value
        with pytest.raises(ValueError, match="int16"):
            model.infer(xs)


class TestCycleExactness:
    @pytest.mark.parametrize("level", LEVELS)
    @pytest.mark.parametrize("network", FULL_SUITE, ids=_IDS)
    def test_matches_static_model(self, network, level):
        model = AotBatchedModel(network, _params(network), level=level)
        assert model.cycles_per_request == \
            predict_network_cycles(network, level).cycles


class TestAbft:
    @pytest.mark.parametrize("network", FULL_SUITE, ids=_IDS)
    def test_clean_run_matches_plain(self, network):
        # Saturating values wrap the 32-bit accumulators, and the
        # checksum identity must still hold exactly.
        params = _params(network, scale=8.0)
        rng = np.random.default_rng(_seed("abft", network.name))
        xs = _full_range(network, rng, 4)
        abft = AotBatchedModel(network, params, abft=True)
        assert np.array_equal(abft.infer(xs),
                              AotBatchedModel(network, params).infer(xs))
        assert abft.sdc_detections == 0

    def test_detects_injected_sdc(self):
        network = FULL_SUITE[0]
        params = _params(network)
        xs = _batch(network, np.random.default_rng(5), 4)
        abft = AotBatchedModel(network, params, abft=True)
        # Flip a bit above the requantization shift so the corruption
        # would be output-visible if it went undetected.
        abft.arm_sdc(lambda acc: acc.__setitem__(
            (0, 0), acc[0, 0] ^ (1 << 20)))
        with pytest.raises(SdcDetected) as exc:
            abft.infer(xs)
        assert 0 in exc.value.rows
        assert abft.sdc_detections >= 1


class TestPlanCacheAndFallback:
    def test_plan_cache_reuses_compiled_plans(self):
        network = FULL_SUITE[0]
        assert compile_plan(network) is compile_plan(network)
        assert compile_plan(network, abft=True) is not compile_plan(network)
        assert (network, False) in _PLAN_CACHE
        assert (network, True) in _PLAN_CACHE

    def test_build_serving_model_has_no_fallback(self):
        network = FULL_SUITE[0]
        params = _params(network)
        for abft in (False, True):
            model = build_serving_model(network, params, abft=abft)
            assert isinstance(model, AotBatchedModel)
            assert model._plan is compile_plan(network, abft)
        # A construct the compiler cannot lower fails the build.
        odd = Network(name="odd", layers=(DenseSpec(4, 2, "gelu"),))
        with pytest.raises(ValueError, match="gelu"):
            build_serving_model(odd, _params(odd))

    def test_shape_validation(self):
        network = FULL_SUITE[0]
        model = AotBatchedModel(network, _params(network))
        for shape in ((2, 99, network.input_size), (network.input_size,),
                      (0, network.timesteps, network.input_size)):
            with pytest.raises(ValueError):
                model.infer(np.zeros(shape, dtype=np.int64))


class TestRegistryIntegration:
    def test_registry_serves_aot_by_default(self):
        from repro.serve.engine import ModelRegistry
        registry = ModelRegistry(seed=2020)
        network = FULL_SUITE[0]
        entry = registry.get(network, "e")
        assert isinstance(entry.model, AotBatchedModel)
        assert entry.cycles_per_request == entry.model.cycles_per_request

    def test_repair_reloads_compiled_weights(self):
        from repro.serve.engine import ModelRegistry
        registry = ModelRegistry(seed=2020)
        network = FULL_SUITE[0]
        entry = registry.get(network, "e")
        rng = np.random.default_rng(8)
        xs = _batch(network, rng, 3)
        golden = entry.model.infer(xs)
        # Corrupt a live parameter tensor, then repair: the compiled
        # operands must be rebuilt from the restored params.
        layer = entry.params_raw[0]
        key = next(iter(layer))
        layer[key] ^= 1
        entry.model.reload_params()
        registry.repair(entry)
        assert np.array_equal(entry.model.infer(xs), golden)
