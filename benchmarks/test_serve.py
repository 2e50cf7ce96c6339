"""Benchmark: the batched serving runtime vs. sequential inference.

Runs the open-loop Poisson load generator against the
:class:`repro.serve.engine.InferenceEngine` at reduced scale and leaves
``out/BENCH_serve.json`` behind — the machine-readable perf artifact the
serving stack is tracked by across PRs — plus the rendered
latency/throughput table as ``out/serve.txt``.
"""

from repro.bench import render, serve


def test_serve_bench_artifact(save_artifact, save_json):
    result = serve(scale=4, requests=300)
    save_json("BENCH_serve.json", result)
    save_artifact("serve.txt", render(result))
    engine = result["passes"]["engine"]

    assert engine["submitted"] == 300
    assert engine["completed"] > 0
    assert engine["metrics"]["total"]["failed"] == 0
    # Dynamic batching must beat the batch=1 sequential baseline.
    assert engine["achieved_throughput_rps"] > \
        result["sequential"]["throughput_rps"]
    assert engine["mean_batch_size"] > 1.0


def test_batched_model_infer_throughput(benchmark):
    """Microbenchmark: compiled batched inferences per second (batch 16)."""
    import numpy as np

    from repro.nn.network import init_params, quantize_params
    from repro.rrm.networks import suite
    from repro.serve.aot import AotBatchedModel

    network = next(n for n in suite(4) if n.name == "sun2017")
    params = quantize_params(
        init_params(network, np.random.default_rng(0)))
    model = AotBatchedModel(network, params)
    rng = np.random.default_rng(1)
    x = np.asarray(rng.uniform(-1, 1, (16, network.input_size)) * 4096,
                   dtype=np.int64)

    out = benchmark(model.infer, x)
    assert out.shape == (16, network.output_size)
