"""Chaos bench harness: availability, recovery and run-to-run determinism
on a small scripted scenario (the full default scenario runs under
``benchmarks/test_chaos.py``)."""

import json

from repro import bench
from repro.faults import FaultPlan, FaultSpec, default_scenario
from repro.rrm.networks import suite

NAMES = sorted(net.name for net in suite(4))

# Small but spicy: guaranteed weight corruption on one network (high-rate
# bit flips with a tight integrity cadence forces >= 1 repair) and a
# persistent crash window on another (forces the breaker open; the seq
# counter advances past the window, so probes re-close it).
SCENARIO = FaultPlan([
    FaultSpec(kind="bitflip", network=NAMES[0], start=1, stop=10, rate=3.0),
    FaultSpec(kind="crash", network=NAMES[1], start=0, stop=4,
              transient=False),
])


def _run(out=None):
    return bench.chaos(scale=4, requests=80, duration=0.8,
                       integrity_every=1, seed=2020, plan=SCENARIO,
                       out=out)


class TestChaosBench:
    def test_acceptance_and_artifact(self, tmp_path):
        out = tmp_path / "BENCH_chaos.json"
        result = _run(out=str(out))
        chaos = result["passes"]["chaos"]

        # -- availability: non-rejected requests complete bit-exactly.
        assert chaos["submitted"] == 80
        assert chaos["availability"] >= 0.90
        assert chaos["incorrect"] == 0  # repaired, never wrong
        assert chaos["goodput_rps"] > 0

        # -- faults actually fired, and the guard repaired the weights.
        assert chaos["faults"]["by_kind"].get("bitflip", 0) >= 1
        assert chaos["faults"]["by_kind"].get("crash", 0) >= 1
        assert chaos["resilience"]["integrity_repairs"] >= 1
        assert chaos["resilience"]["integrity_checks"] > 0

        # -- the persistent-crash breaker opened and re-closed.
        assert chaos["breakers"]["opens"] >= 1
        assert chaos["breakers"]["all_reclosed"]
        for durations in chaos["breakers"]["recovery_s"].values():
            assert all(d >= 0 for d in durations)

        # -- the artifact on disk is the result, JSON-clean.
        written = json.loads(out.read_text())["passes"]["chaos"]
        assert (written["faults"]["log_sha256"]
                == chaos["faults"]["log_sha256"])
        assert written["availability"] == chaos["availability"]

    def test_identical_seed_identical_fault_sequence(self):
        first = _run()["passes"]["chaos"]["faults"]
        second = _run()["passes"]["chaos"]["faults"]
        assert first["log"] == second["log"]
        assert first["log_sha256"] == second["log_sha256"]
        assert first["by_kind"] == second["by_kind"]

    def test_default_scenario_shape(self):
        networks = suite(4)
        plan = default_scenario(networks, 300)
        kinds = [spec.kind for spec in plan.specs]
        assert kinds == ["bitflip", "crash", "crash", "latency", "sdc"]
        # Each process targets its own network, windows are bounded.
        assert len({spec.network for spec in plan.specs}) == 4
        assert all(spec.stop is not None for spec in plan.specs)
        transient = [s for s in plan.specs if s.kind == "crash"]
        assert {s.transient for s in transient} == {True, False}
