"""Roofline capacity model for the serving host.

The classic roofline (Williams et al.) bounds attainable throughput by
``min(peak_compute, bandwidth * operational_intensity)``.  Here the
"kernel" is one batched call of a network as the AOT backend executes
it (:mod:`repro.serve.aot`): the op count is the network's exact MAC
count (2 ops per MAC) per row, and the bytes moved are the int16 Q3.12
footprint the paper's datapath streams — weights + biases once per
call, input / output / recurrent state once per timestep of every row.
Operational intensity is their ratio, so it grows with the rows per
call: each suite network lands at an x-position set by its batch, and
the model converts straight into a per-network request/s ceiling for
capacity planning.

Ceilings come from :func:`calibrate_host`, a two-point microbenchmark of
the same primitives the fused plans actually use (float64 GEMM for the
compute roof, large-array copy for the bandwidth roof).  ``aot-bench``
places each network's best-of-N compiled batch time against its
ceiling at that batch, so its percentage is a share of what this host
could do, and it stays at or below 100%.  An open-loop bench cannot be
placed this way: its completions over elapsed time are the offered
load, not the network's capacity, so ``serve-bench`` and
``cluster-bench`` report no roofline.  Pass explicit
``peak_flops``/``bandwidth`` to pin the ceilings (tests do, for
determinism).
"""

from __future__ import annotations

import time

import numpy as np

from ..nn.network import ConvSpec, DenseSpec, LstmSpec, Network

__all__ = ["network_ops", "network_bytes", "operational_intensity",
           "calibrate_host", "roofline_point", "roofline_report"]

#: Bytes per element of the Q3.12 datapath (int16 weights/activations).
_ELEM_BYTES = 2


def network_ops(network: Network) -> int:
    """Arithmetic ops per inference: 2 per MAC (multiply + accumulate).

    Exact, from the layer specs — the same count the paper uses for its
    MAC/cycle efficiency figures.
    """
    return 2 * network.macs_per_inference


def _layer_param_elems(spec) -> int:
    if isinstance(spec, DenseSpec):
        return spec.n_out * spec.n_in + spec.n_out
    if isinstance(spec, LstmSpec):
        return 4 * spec.n * (spec.m + spec.n) + 4 * spec.n
    if isinstance(spec, ConvSpec):
        return spec.cout * spec.cin * spec.k ** 2 + spec.cout
    raise TypeError(f"unknown layer spec {spec!r}")


def _layer_stream_elems(spec) -> int:
    """Activation traffic per timestep: input read + output write, plus
    recurrent state read+write for LSTM layers."""
    elems = spec.in_size + spec.out_size
    if isinstance(spec, LstmSpec):
        elems += 4 * spec.n  # h read, c read, h write, c write
    return elems


def network_bytes(network: Network, rows_per_call: float = 1) -> float:
    """Bytes one call of ``rows_per_call`` rows moves on the int16
    datapath.

    Weights and biases stream once per call (the batch shares them);
    activations and recurrent state move once per timestep of every
    row.  At one row per call this is one unbatched inference.
    """
    params = sum(_layer_param_elems(s) for s in network.layers)
    stream = sum(_layer_stream_elems(s) for s in network.layers)
    return _ELEM_BYTES * (params
                          + rows_per_call * stream * network.timesteps)


def operational_intensity(network: Network,
                          rows_per_call: float = 1) -> float:
    """Ops per byte moved at ``rows_per_call`` — the network's
    x-position on the roofline."""
    return (rows_per_call * network_ops(network)
            / network_bytes(network, rows_per_call))


_CALIBRATION: dict | None = None
#: Seconds of timed runs behind each roof.
_MIN_TIME = 0.2


def _best_time(fn, repeats: int, clock) -> float:
    """The fastest of repeated timed calls of ``fn``: at least ``repeats``
    of them, and more until they span ``_MIN_TIME`` seconds, so a moment
    when the host is busy cannot set a roof."""
    best, spent, calls = float("inf"), 0.0, 0
    while calls < repeats or spent < _MIN_TIME:
        t0 = clock()
        fn()
        took = clock() - t0
        best, spent, calls = min(best, took), spent + took, calls + 1
    return best


def measure_roofs(size: int = 384, repeats: int = 3, copy_mb: int = 32,
                  clock=time.perf_counter) -> dict:
    """Measure this host's compute and bandwidth roofs (uncached).

    * ``peak_flops`` — float64 GEMM on a ``size x size`` problem, the
      exact primitive the AOT backend's hot loop is built from.
    * ``bandwidth`` — bytes/s of a large out-of-cache array copy.

    Each roof is the fastest of timed runs spanning at least
    ``_MIN_TIME`` seconds (``clock`` times them).  Returns
    ``{"peak_flops", "bandwidth_bytes_s", "ridge_oi"}`` where
    ``ridge_oi`` is the intensity at which the two roofs intersect.
    """
    rng = np.random.default_rng(2020)
    a = rng.standard_normal((size, size))
    b = rng.standard_normal((size, size))
    out = np.empty((size, size))
    np.matmul(a, b, out=out)  # warm-up
    best = _best_time(lambda: np.matmul(a, b, out=out), repeats, clock)
    peak = 2 * size ** 3 / best if best > 0 else 0.0

    n = copy_mb * (1 << 20) // 8
    src = rng.standard_normal(n)
    dst = np.empty(n)
    np.copyto(dst, src)  # warm-up
    best = _best_time(lambda: np.copyto(dst, src), repeats, clock)
    # One read + one write stream.
    bandwidth = 2 * n * 8 / best if best > 0 else 0.0
    return {
        "peak_flops": peak,
        "bandwidth_bytes_s": bandwidth,
        "ridge_oi": peak / bandwidth if bandwidth > 0 else 0.0,
    }


def calibrate_host() -> dict:
    """This host's roofs (:func:`measure_roofs`), measured once per
    process."""
    global _CALIBRATION
    if _CALIBRATION is None:
        _CALIBRATION = measure_roofs()
    return _CALIBRATION


def roofline_point(network: Network, peak_flops: float | None = None,
                   bandwidth: float | None = None,
                   achieved_rps: float | None = None,
                   rows_per_call: float = 1) -> dict:
    """One network's roofline row at ``rows_per_call`` rows per call.

    ``ops`` and ``bytes`` are per request (the call's bytes shared by
    its rows).  ``ceiling_rps`` converts the attainable ops/s at the
    network's intensity into whole inferences per second; ``bound``
    names the binding roof.  With ``achieved_rps`` the row also carries
    the achieved ops/s and percent-of-ceiling.
    """
    if rows_per_call <= 0:
        raise ValueError("rows_per_call must be positive")
    if peak_flops is None or bandwidth is None:
        cal = calibrate_host()
        peak_flops = peak_flops if peak_flops is not None \
            else cal["peak_flops"]
        bandwidth = bandwidth if bandwidth is not None \
            else cal["bandwidth_bytes_s"]
    ops = network_ops(network)
    nbytes = network_bytes(network, rows_per_call) / rows_per_call
    oi = ops / nbytes
    attainable = min(peak_flops, bandwidth * oi)
    point = {
        "rows_per_call": rows_per_call,
        "ops": ops,
        "bytes": nbytes,
        "oi": oi,
        "bound": "compute" if peak_flops <= bandwidth * oi
        else "memory",
        "attainable_ops_s": attainable,
        "ceiling_rps": attainable / ops if ops else 0.0,
    }
    if achieved_rps is not None:
        point["achieved_rps"] = achieved_rps
        point["achieved_ops_s"] = achieved_rps * ops
        point["pct_of_ceiling"] = (100.0 * achieved_rps
                                   / point["ceiling_rps"]
                                   if point["ceiling_rps"] > 0 else 0.0)
    return point


def roofline_report(networks, achieved_rps: dict | None = None,
                    peak_flops: float | None = None,
                    bandwidth: float | None = None,
                    rows_per_call=1) -> dict:
    """Per-network roofline table for a bench report.

    ``achieved_rps`` maps network name to measured request/s (missing
    networks get ceiling-only rows).  ``rows_per_call`` is the batch
    the requests were served at: one number for every network, or a
    map from network name to its measured mean (missing: 1).
    """
    if peak_flops is None or bandwidth is None:
        cal = calibrate_host()
        peak_flops = peak_flops if peak_flops is not None \
            else cal["peak_flops"]
        bandwidth = bandwidth if bandwidth is not None \
            else cal["bandwidth_bytes_s"]
    achieved_rps = achieved_rps or {}
    if not isinstance(rows_per_call, dict):
        rows_per_call = {network.name: rows_per_call
                         for network in networks}
    return {
        "host": {
            "peak_flops": peak_flops,
            "bandwidth_bytes_s": bandwidth,
            "ridge_oi": peak_flops / bandwidth if bandwidth > 0
            else 0.0,
        },
        "per_network": {
            network.name: roofline_point(
                network, peak_flops=peak_flops, bandwidth=bandwidth,
                achieved_rps=achieved_rps.get(network.name),
                rows_per_call=rows_per_call.get(network.name, 1))
            for network in networks
        },
    }
