"""Steadiness: run every workload N times with fresh seeds.

    python3 rrmbench/steady.py --runs 10 [--workloads a,b] [--seconds S]
        [--seed-base N] [--compare rrmbench/out/steady-<...>.json]

Workload order alternates between runs (forward, then reversed).  For
each end-to-end metric it prints the median, quartiles, min, max and
IQR/median beside the metric's bound from ``BENCHMARK.json``, and the
share of failed operations.  ``--compare`` also prints how far each
median moved against an earlier set, in the direction that counts as
worse.  The raw values are written to ``rrmbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

import measure

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"], cwd=ROOT, capture_output=True, text=True,
        timeout=200)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed "
                         f"({proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-1])


def worse_by(metric: dict, old: float, new: float) -> float:
    """Relative change of ``new`` vs ``old`` in the worse direction."""
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads",
                        default=",".join(w["name"]
                                         for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--seed-base", type=int,
                        default=int(time.time()) % 1_000_000 * 100)
    parser.add_argument("--compare")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    raw = {w: {"seeds": [], "attempted": [], "failed": [],
               "metrics": {name: [] for name in metrics}}
           for w in workloads}
    started = time.monotonic()
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else workloads[::-1]
        for workload in order:
            seed = args.seed_base + i
            result = run_once(workload, seed, args.seconds)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: incorrect")
            row = raw[workload]
            row["seeds"].append(seed)
            row["attempted"].append(result["attempted"])
            row["failed"].append(result["failed"])
            for name in metrics:
                row["metrics"][name].append(
                    result["metrics"][name]["value"])
            print(f"run {i + 1}/{args.runs} {workload} seed {seed} "
                  f"({time.monotonic() - started:.0f} s)", flush=True)
    previous = None
    if args.compare:
        with open(args.compare) as handle:
            previous = json.load(handle)["raw"]
    print(f"\n{'workload':<14}{'metric':<16}{'median':>12}{'q1':>12}"
          f"{'q3':>12}{'min':>12}{'max':>12}{'iqr/med':>9}{'bound':>7}"
          + ("  moved" if previous else ""))
    ok = True
    for workload in workloads:
        row = raw[workload]
        failed = sum(row["failed"]) / sum(row["attempted"])
        for name, metric in metrics.items():
            stats = measure.spread(row["metrics"][name])
            bound = metric["bound"]
            steady = (name == "setup_s"
                      or stats["iqr_over_median"] <= bound)
            line = (f"{workload:<14}{name:<16}{stats['median']:>12.5g}"
                    f"{stats['q1']:>12.5g}{stats['q3']:>12.5g}"
                    f"{stats['min']:>12.5g}{stats['max']:>12.5g}"
                    f"{stats['iqr_over_median']:>9.3f}{bound:>7.2f}")
            if previous and workload in previous:
                old = measure.median(previous[workload]["metrics"][name])
                moved = worse_by(metric, old, stats["median"])
                line += f"  {moved:+.3f}"
                steady = steady and moved <= bound
            ok = ok and steady
            print(line + ("" if steady else "  <-- over bound"))
        print(f"{workload:<14}{'failed share':<16}{failed:>12.6f}")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out",
                        f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json")
    with open(path, "w") as handle:
        json.dump({"runs": args.runs, "seconds": args.seconds,
                   "raw": raw}, handle, indent=1)
    print(f"\nraw values: {os.path.relpath(path, ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
