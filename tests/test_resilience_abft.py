"""ABFT column-checksum integrity: bit-exact transparency, certain
detection of accumulator corruption, and the engine's quarantine →
repair → rerun path (including injector-driven ``sdc`` faults)."""

import numpy as np
import pytest

from repro.faults import FaultInjector, FaultSpec
from repro.nn.layers import wrap32
from repro.nn.network import QuantModel
from repro.resilience import SdcDetected
from repro.rrm.networks import suite
from repro.serve.aot import AotBatchedModel, _abft_check
from repro.serve.engine import (EngineConfig, InferenceEngine,
                                ModelRegistry, RequestStatus)

NETWORKS = suite(4)
BY_NAME = {net.name: net for net in NETWORKS}
REGISTRY = ModelRegistry(seed=2020)


def _params(network, level="e"):
    return REGISTRY.get(network, level).params_raw


def _batch(network, batch_size=5, seed=0):
    rng = np.random.default_rng(seed)
    floats = rng.uniform(-1.0, 1.0, (batch_size, network.input_size))
    return np.asarray(floats * 4096, dtype=np.int64)


def _scalar(network, params, x):
    """The scalar oracle on one ``(in_size,)`` input fed every step."""
    return QuantModel(network, params).forward([x] * network.timesteps)


class TestDifferential:
    @pytest.mark.parametrize("network", NETWORKS, ids=lambda n: n.name)
    def test_no_false_positives_and_bit_exact(self, network):
        """Fault-free, the checked model must be bit-identical to the
        scalar oracle — the checksum identity is exact in int
        arithmetic, so it never fires spuriously and never perturbs
        outputs."""
        params = _params(network)
        checked = AotBatchedModel(network, params, abft=True)
        for seed in range(3):
            x = _batch(network, seed=seed)
            out = checked.infer(x)
            for row in range(len(x)):
                assert np.array_equal(out[row],
                                      _scalar(network, params, x[row]))
        assert checked.sdc_detections == 0

    def test_verify_mask_is_per_row(self):
        network = NETWORKS[0]
        rng = np.random.default_rng(1)
        w = rng.integers(-2048, 2048, (8, network.input_size))
        x = rng.integers(-2048, 2048, (4, network.input_size))
        bias = rng.integers(-2048, 2048, 8)
        acc = wrap32((bias << 12) + x @ w.T)
        colsum, bias_sum = w.sum(axis=0), int(bias.sum()) << 12
        model = AotBatchedModel(network, _params(network), abft=True)
        _abft_check(model, acc, x, colsum, bias_sum)
        acc[2, 3] ^= 1 << 7
        with pytest.raises(SdcDetected) as info:
            _abft_check(model, acc, x, colsum, bias_sum)
        assert info.value.rows == (2,)
        assert model.sdc_detections == 1


class TestDetection:
    def test_every_injected_corruption_detected(self):
        """100% detection: any single-bit flip below bit 31 of any
        accumulator element breaks the row checksum with certainty."""
        network = BY_NAME["sun2017"]
        checked = AotBatchedModel(network, _params(network), abft=True)
        x = _batch(network, batch_size=4, seed=7)
        rng = np.random.default_rng(11)
        trials = 25
        for _ in range(trials):
            row, col_draw = int(rng.integers(4)), int(rng.integers(1 << 20))
            bit = int(rng.integers(31))

            def corrupt(acc, _r=row, _c=col_draw, _b=bit):
                c = _c % acc.shape[1]
                acc[_r, c] = int(acc[_r, c]) ^ (1 << _b)

            checked.arm_sdc(corrupt)
            with pytest.raises(SdcDetected) as info:
                checked.infer(x)
            assert row in info.value.rows
        assert checked.sdc_detections >= trials

    def test_plain_model_is_silently_corrupted(self):
        """The contrast that motivates ABFT: the plain model swallows
        the same corruption and returns wrong bits for that row."""
        network = BY_NAME["sun2017"]
        params = _params(network)
        plain = AotBatchedModel(network, params)
        x = _batch(network, batch_size=2, seed=3)
        plain.arm_sdc(lambda acc: acc.__setitem__((0, 0),
                                                  int(acc[0, 0]) ^ (1 << 20)))
        corrupted = plain.infer(x)
        assert plain.sdc_detections == 0
        assert not np.array_equal(corrupted[0],
                                  _scalar(network, params, x[0]))
        assert np.array_equal(corrupted[1], _scalar(network, params, x[1]))


class TestEnginePath:
    def _run(self, abft, seed=2020):
        name = "sun2017"
        spec = FaultSpec(kind="sdc", network=name, start=1, stop=4)
        injector = FaultInjector([spec], seed=seed)
        engine = InferenceEngine(
            networks=NETWORKS,
            config=EngineConfig(level="e", max_batch_size=4,
                                max_linger_s=0.001, abft=abft),
            fault_injector=injector)
        network = BY_NAME[name]
        xs = [_batch(network, batch_size=1, seed=s)[0] for s in range(8)]
        entry = engine.registry.get(network, "e")
        expected = [_scalar(network, entry.params_raw, x) for x in xs]
        with engine:
            requests = [engine.submit(name, x) for x in xs]
            for request in requests:
                assert request.wait(timeout=10.0)
        totals = engine.metrics.to_dict()["total"]
        return requests, expected, totals, injector

    def test_sdc_detected_repaired_rerun_bit_exact(self):
        requests, expected, totals, _ = self._run(abft=True)
        assert totals["sdc_detections"] >= 1
        assert totals["sdc_repairs"] >= 1
        assert totals["sdc_reruns"] >= 1
        # Every request completed with the *correct* bits: the rerun
        # after quarantine+repair hides the corruption from clients.
        for i, request in enumerate(requests):
            assert request.status == RequestStatus.DONE
            assert np.array_equal(request.output, expected[i])

    def test_without_abft_same_faults_corrupt_silently(self):
        requests, expected, totals, _ = self._run(abft=False)
        assert totals["sdc_detections"] == 0
        wrong = sum(1 for i, request in enumerate(requests)
                    if request.ok
                    and not np.array_equal(request.output, expected[i]))
        assert wrong >= 1

    def test_fault_log_digest_deterministic_with_sdc(self):
        """Identical seeds → identical canonical fault logs, with the
        new ``sdc`` kind present in the log."""
        _, _, _, first = self._run(abft=True)
        _, _, _, second = self._run(abft=True)
        log = first.canonical_log()
        assert log == second.canonical_log()
        assert any(event["kind"] == "sdc" for event in log)
