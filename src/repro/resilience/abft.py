"""ABFT compute-integrity for the batched matvec hot path.

Algorithm-based fault tolerance via integer column checksums: for the
dense accumulator ``acc = wrap32((bias << F) + x @ w.T)`` the compiled
plan (:func:`repro.serve.aot._abft_check`, emitted when a model is
built with ``abft=True``) verifies, per batch row,

    wrap32(sum_j acc[b, j]) == wrap32((sum_j bias[j]) << F
                                      + x[b] @ (sum_j w[j, :]))

Both sides are exact int64 arithmetic (values bounded well below
2**63), and wrap32-of-sum equals sum-of-wrap32 modulo 2**32, so the
identity holds *exactly* on fault-free hardware — zero false
positives.  Any single-element corruption of the accumulator that
changes its value modulo 2**32 (e.g. flipping any bit below bit 31 of
one element) breaks the row identity and is detected with certainty.

This detects SDC in the *computation* (activations, intermediate
sums): a corrupted weight corrupts both ``acc`` and the column-sum
reference consistently and passes — by design, weight integrity is the
CRC32 guard's job (:meth:`repro.serve.engine.ModelRegistry.verify`).

Conv layers are excluded: their checksum algebra differs; coverage is
the dense/LSTM matvec path that dominates paper workloads.
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["SdcDetected", "measure_abft_overhead"]


class SdcDetected(RuntimeError):
    """A column-checksum mismatch: silent data corruption in compute.

    Attributes:
        network: network name (filled in by the engine when known).
        rows: batch-row indices whose checksum failed.
    """

    def __init__(self, message: str, rows=()):
        super().__init__(message)
        self.network: str | None = None
        self.rows = tuple(int(r) for r in rows)


def measure_abft_overhead(network, params_raw, batch_size: int = 16,
                          repeats: int = 5) -> float:
    """Measured ABFT cost as a percentage of the served model.

    Times the compiled plan with and without the checksum
    (:class:`repro.serve.aot.AotBatchedModel` with ``abft`` off and
    on), best of ``repeats`` on identical inputs, and returns
    ``100 * (t_abft / t_plain - 1)`` (clamped at 0 from below — timer
    noise on tiny networks can make the checked run appear faster).
    """
    from ..serve.aot import AotBatchedModel
    rng = np.random.default_rng(2020)
    x = rng.integers(-2048, 2048,
                     size=(batch_size, network.input_size), dtype=np.int64)
    plain = AotBatchedModel(network, params_raw)
    checked = AotBatchedModel(network, params_raw, abft=True)
    for model in (plain, checked):  # warm up caches / allocators
        model.infer(x)

    def _time(model):
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            model.infer(x)
            best = min(best, time.perf_counter() - t0)
        return best

    t_plain = _time(plain)
    t_checked = _time(checked)
    if t_plain <= 0.0:
        return 0.0
    return max(0.0, 100.0 * (t_checked / t_plain - 1.0))
