"""Benchmark: the serving runtime under the default chaos scenario.

Runs ``chaos-bench`` (weight bit-flips, transient and persistent batch
crashes, latency spikes — all seeded and deterministic) at reduced scale
and leaves ``out/BENCH_chaos.json`` behind — the machine-readable
fault-tolerance artifact the serving stack is tracked by across PRs —
plus the rendered availability/recovery report as ``out/chaos.txt``.
"""

from repro.bench import chaos, render


def test_chaos_bench_artifact(save_artifact, save_json):
    result = chaos(scale=4, requests=300, duration=3.0)
    save_json("BENCH_chaos.json", result)
    save_artifact("chaos.txt", render(result))
    measured = result["passes"]["chaos"]

    assert measured["submitted"] == 300
    # The acceptance bar: >= 90% of non-rejected requests complete with
    # bit-exact output while the chaos scenario is running.
    # (a few outputs may be silently corrupted between cadence-5
    # integrity checks — those count against availability, not as done).
    assert measured["availability"] >= 0.90
    # Faults really were injected, end to end.
    assert measured["faults"]["injected_events"] > 0
    assert set(measured["faults"]["by_kind"]) >= {"bitflip", "crash"}
    # The integrity guard caught the bit flips and repaired in place.
    assert measured["resilience"]["integrity_repairs"] >= 1
    # No breaker that opened stayed open once its fault window passed.
    assert measured["breakers"]["all_reclosed"]
    # Chaos costs throughput, but the runtime must stay useful.
    assert result["summary"]["goodput_ratio_vs_baseline"] >= 0.5
