"""The one bench harness: golden pass, accounting, the cluster driver and
every bench command through the CLI."""

import json
import time

import numpy as np
import pytest

from repro import bench
from repro.cli import main
from repro.rrm.networks import suite
from repro.serve.engine import ModelRegistry
from repro.serve.loadgen import make_request_stream

NETWORKS = suite(4)
NAMES = [net.name for net in NETWORKS]


def _identity_holds(summary: dict) -> bool:
    return summary["submitted"] == (summary["completed"]
                                    + summary["rejected"]
                                    + summary["failed"])


class TestGoldenPass:
    def test_sequential_timing_counts(self):
        stream = make_request_stream(NETWORKS, 10, seed=2)
        outputs, sequential = bench.golden_pass(NETWORKS, stream, "e", 2020)
        assert len(outputs) == 10
        assert sequential["requests"] == 10
        assert sequential["elapsed_s"] > 0
        assert sequential["throughput_rps"] > 0

    def test_no_model_build_inside_the_timed_loop(self, monkeypatch):
        # Every build sleeps; a pass that built its models inside the
        # timed loop would report at least one sleep per network.
        build = ModelRegistry._build_model
        builds = []

        def slow_build(self, network, params, level):
            builds.append(network.name)
            time.sleep(0.05)
            return build(self, network, params, level)

        monkeypatch.setattr(ModelRegistry, "_build_model", slow_build)
        stream = make_request_stream(NETWORKS, 10, seed=3)
        _, sequential = bench.golden_pass(NETWORKS, stream, "e", 2020)
        assert sorted(builds) == sorted(NAMES)
        assert sequential["elapsed_s"] < 0.05

    def test_outputs_match_a_fresh_reference(self):
        stream = make_request_stream(NETWORKS, 6, seed=4)
        outputs, _ = bench.golden_pass(NETWORKS, stream, "e", 2020)
        registry = ModelRegistry(seed=2020)
        for (network, x_raw), got in zip(stream, outputs):
            reference = registry.get(network, "e").reference
            reference.reset()
            assert np.array_equal(reference.forward(x_raw), got)


class _Handle:
    def __init__(self, network, status, output=None, latency=None,
                 error=None):
        self.network, self.status, self.output = network, status, output
        self.latency, self.error = latency, error

    @property
    def ok(self):
        return self.status == "done"


class TestAccounting:
    def _run(self, handles, interrupted=False):
        return {"offered_rate_rps": 100.0, "traffic": {"kind": "poisson"},
                "interrupted": interrupted, "elapsed_s": 0.5,
                "requests": handles}

    def test_statuses_correctness_and_availability(self):
        one, two = np.array([1]), np.array([2])
        handles = [_Handle("a", "done", one, 0.001),
                   _Handle("a", "done", two, 0.003),   # wrong output
                   _Handle("b", "rejected_capacity"),
                   _Handle("b", "failed", error="boom")]
        summary = bench.account(self._run(handles), [one, one, one, one],
                                networks=["a", "b", "c"])
        assert _identity_holds(summary)
        assert (summary["completed"], summary["correct"],
                summary["incorrect"]) == (2, 1, 1)
        assert summary["rejected_capacity"] == summary["rejected"] == 1
        assert summary["accepted"] == 3
        assert summary["availability"] == pytest.approx(1 / 3)
        assert summary["goodput_rps"] == pytest.approx(2.0)
        assert summary["achieved_throughput_rps"] == pytest.approx(4.0)
        assert summary["failure_reasons"] == {"boom": 1}
        assert summary["p50_s"] == pytest.approx(0.002)
        rows = summary["per_network"]
        assert list(rows) == ["a", "b", "c"]
        assert rows["a"]["correct"] == 1 and rows["b"]["failed"] == 1
        assert rows["c"]["submitted"] == 0 and rows["c"]["p99_s"] is None

    def test_interrupted_run_accounts_what_was_submitted(self):
        out = np.array([0])
        handles = [_Handle("a", "done", out, 0.001) for _ in range(3)]
        summary = bench.account(self._run(handles, interrupted=True),
                                [out] * 10)
        assert summary["interrupted"] is True
        assert summary["submitted"] == summary["correct"] == 3
        assert summary["availability"] == 1.0


class TestClusterDriver:
    def test_one_worker_pass_is_accounted_and_bit_exact(self, tmp_path):
        out = tmp_path / "BENCH_cluster.json"
        result = bench.cluster(scale=4, requests=60, workers=[1],
                               out=str(out))
        assert json.loads(out.read_text())["schema"] == 1
        assert result["schema"] == 1
        assert list(result["passes"]) == ["engine", "cluster-1"]
        for summary in result["passes"].values():
            assert summary["submitted"] == 60
            assert _identity_holds(summary)
            assert summary["correct"] == summary["completed"]
        worker = result["passes"]["cluster-1"]
        assert worker["workers"] == 1
        assert worker["invariants_ok"]
        assert worker["speedup_vs_single_process"] > 0


_CLI_CASES = {
    "serve-bench": ["--requests", "40"],
    "chaos-bench": ["--requests", "40", "--duration", "0.4"],
    "cluster-bench": ["--requests", "40", "--workers", "1"],
    "aot-bench": ["--repeats", "1"],
}


class TestBenchCli:
    @pytest.mark.parametrize("command", list(_CLI_CASES))
    def test_writes_schema_and_names_every_network(self, command, tmp_path,
                                                    capsys):
        out = tmp_path / "BENCH.json"
        assert main([command, *_CLI_CASES[command], "--out",
                     str(out)]) == 0
        printed = capsys.readouterr().out
        result = json.loads(out.read_text())
        assert result["schema"] == bench.SCHEMA == 1
        assert result["bench"] == command.split("-")[0]
        for name in NAMES:
            assert name in printed, (command, name)
        assert f"[written {out}]" in printed

    def test_serve_bench_cluster_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve-bench", "--cluster", "--workers", "1,2"])
        assert exc.value.code == 2
        assert "--cluster" in capsys.readouterr().err
