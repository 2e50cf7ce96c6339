"""Load generator, the serve-bench driver and the serve-bench CLI."""

import json

import numpy as np
import pytest

from repro import bench
from repro.cli import main
from repro.rrm.networks import suite
from repro.serve.engine import InferenceEngine
from repro.serve.loadgen import LoadGenerator, make_request_stream

NETWORKS = suite(4)


class TestStream:
    def test_stream_is_reproducible(self):
        first = make_request_stream(NETWORKS, 20, seed=5)
        second = make_request_stream(NETWORKS, 20, seed=5)
        assert [n.name for n, _ in first] == [n.name for n, _ in second]
        for (_, xa), (_, xb) in zip(first, second):
            assert np.array_equal(xa, xb)

    def test_stream_shapes_match_networks(self):
        for network, x in make_request_stream(NETWORKS, 30, seed=1):
            assert x.shape == (network.timesteps, network.input_size)
            assert x.dtype == np.int64

    def test_arrivals_are_increasing(self):
        engine = InferenceEngine(networks=NETWORKS)
        generator = LoadGenerator(engine, rate_rps=1000.0, seed=3)
        arrivals = generator.arrival_times(50)
        assert arrivals.shape == (50,)
        assert np.all(np.diff(arrivals) >= 0)

    def test_rate_must_be_positive(self):
        engine = InferenceEngine(networks=NETWORKS)
        with pytest.raises(ValueError):
            LoadGenerator(engine, rate_rps=0.0)


class TestServeBench:
    def test_bench_writes_json_and_beats_sequential(self, tmp_path):
        out = tmp_path / "BENCH_serve.json"
        result = bench.serve(scale=4, requests=120, out=str(out))
        assert out.exists()
        on_disk = json.loads(out.read_text())
        assert on_disk["bench"] == "serve"
        engine = result["passes"]["engine"]
        assert on_disk["passes"]["engine"]["submitted"] == 120
        assert (engine["completed"]
                + engine["rejected_timeout"]
                + engine["rejected_capacity"]
                + engine["metrics"]["total"]["failed"]) == 120
        # The point of the subsystem: batched serving must outrun the
        # sequential per-sample baseline on the same request stream.
        assert engine["achieved_throughput_rps"] > \
            result["sequential"]["throughput_rps"]
        assert engine["mean_batch_size"] > 1.0
        assert engine["p99_s"] >= engine["p50_s"]
        assert engine["metrics"]["total"]["sim_cycles"] > 0


class TestCli:
    def test_serve_bench_command(self, tmp_path, capsys):
        out = tmp_path / "BENCH_serve.json"
        assert main(["serve-bench", "--requests", "60",
                     "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "achieved throughput" in printed
        assert "sequential rps" in printed
        data = json.loads(out.read_text())
        assert data["passes"]["engine"]["submitted"] == 60
