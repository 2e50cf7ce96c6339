"""The repository benchmark: one workload, one seed, one JSON line.

    python3 rrmbench/run.py --workload serve-engine --seed 1 \
        --seconds 15 --trace 0

Run from the root of a source checkout.  Each workload runs in a fresh
interpreter (``workload.py``) in its own process group, with BLAS
threads pinned and the suite scale passed explicitly.  ``--trace 0``
sets up three times (two set-up-only interpreters, then the measured
one) and prints the end-to-end metrics, ``setup_s`` being the median
of the three.  ``--trace 1`` runs the workload untraced and then
traced, prints the per-layer metrics of the traced run plus
``trace.overhead_pct``, and writes the spans as Chrome trace JSON
under ``rrmbench/out/``.  The traced interpreter then runs the other
scored workloads briefly, so that it reports the metrics of layers the
workload's own path does not reach.  A scored workload's result must
hold exactly the metrics ``BENCHMARK.json`` declares for the mode, in
their units.

After every interpreter exits, any process left in its group, any new
shared-memory segment and any non-daemon thread it reported is named
on stderr and killed or removed, and the run fails.  So does an output
that differs from the scalar ``QuantModel`` or a cycle count that
differs from ``predict_network_cycles``.  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SHM = "/dev/shm"

WORKLOADS = ("serve-engine", "serve-cluster", "offline-batch", "iss-suite")
END_TO_END = ("setup_s", "peak_rss_mb", "p50_ms", "throughput_rps",
              "sim_mips", "sim_cycles")
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: The whole run, every interpreter included, ends within this.
BUDGET_S = 170.0
#: Metric each workload's tracing overhead is taken on.
PRIMARY = {"serve-engine": "throughput_rps",
           "serve-cluster": "throughput_rps",
           "offline-batch": "throughput_rps",
           "iss-suite": "sim_mips"}
#: Environment of every workload interpreter.  One BLAS thread: the
#: engine already runs a thread per network on a host this size, and
#: BLAS threads on top of them make throughput swing.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class RunFailed(Exception):
    pass


def log(text: str) -> None:
    print(text, flush=True)


def commit() -> str:
    """HEAD of the checkout's own ``.git``, if it has one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "n/a (not a git checkout)"


def environment() -> list:
    os.environ.update(PINNED_ENV)
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return [f"nproc {len(os.sched_getaffinity(0))}", f"cpu {cpu}",
            f"python {platform.python_version()}",
            f"numpy {np.__version__}",
            f"blas {blas.get('name')} {blas.get('version')}",
            "env " + " ".join(f"{k}={v}" for k, v in PINNED_ENV.items()),
            f"commit {commit()}"]


def group_members(pgid: int) -> list:
    """Live (non-zombie) processes in process group ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        name = stat[stat.index("(") + 1:stat.rindex(")")]
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(f"{entry} ({name})")
    return members


def shm_entries() -> set:
    try:
        return set(os.listdir(SHM))
    except OSError:
        return set()


def wait_gone(pgid: int, seconds: float) -> list:
    deadline = time.monotonic() + seconds
    while True:
        left = group_members(pgid)
        if not left or time.monotonic() >= deadline:
            return left
        time.sleep(0.05)


def run_child(workload: str, extra: list, deadline: float,
              env: dict) -> dict:
    """One workload interpreter in its own process group; returns its
    JSON result after checking it left nothing behind."""
    shm_before = shm_entries()
    command = [sys.executable, os.path.join(HERE, "workload.py"),
               "--workload", workload] + extra
    t_launch = time.monotonic()
    proc = subprocess.Popen(command + ["--t-launch", repr(t_launch)],
                            cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    problems = []
    try:
        out, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        problems.append("interpreter overran the time budget")
    leftovers = wait_gone(proc.pid, 3.0)
    if leftovers:
        problems.append("processes outlived it: " + ", ".join(leftovers))
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        still = wait_gone(proc.pid, 5.0)
        if still:
            problems.append("could not kill: " + ", ".join(still))
    leaked = sorted(shm_entries() - shm_before)
    for name in leaked:
        try:
            os.unlink(os.path.join(SHM, name))
        except OSError:
            pass
    if leaked:
        problems.append("shared memory outlived it: " + ", ".join(leaked))
    lines = out.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    for line in lines[:-1] if result is not None else lines:
        log(line)
    if result is None:
        problems.append(f"no result (exit code {proc.returncode})")
    elif result.get("threads"):
        problems.append("non-daemon threads outlived it: "
                        + ", ".join(result["threads"]))
    elif proc.returncode != 0:
        problems.append(f"exit code {proc.returncode}")
    if problems:
        raise RunFailed("; ".join(problems))
    return result


def undeclared(workload: str, trace: int, metrics: dict) -> list:
    """How ``metrics`` differ from the ones ``BENCHMARK.json`` declares
    for this mode, if it scores ``workload``."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            manifest = json.load(handle)
    except (OSError, ValueError):
        return []
    if workload not in (w["name"] for w in manifest["workloads"]):
        return []
    declared = {m["name"]: m["unit"]
                for m in manifest["per_layer" if trace else "end_to_end"]}
    problems = [f"missing {name}" for name in declared
                if name not in metrics]
    problems += [f"undeclared {name}" for name in metrics
                 if name not in declared]
    problems += [f"{name} in {metrics[name]['unit']}, declared in {unit}"
                 for name, unit in declared.items()
                 if name in metrics and metrics[name]["unit"] != unit]
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true",
                        help="self-check: make one result wrong")
    args = parser.parse_args(argv)
    started = time.monotonic()
    deadline = started + BUDGET_S
    if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                       "__init__.py")):
        print(f"rrmbench: {args.workload}: no source tree at "
              f"{os.path.join(ROOT, 'src')}; run from a checkout",
              file=sys.stderr)
        return 2

    for line in environment():
        log(line)
    log(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g}"
        f" trace {args.trace}")
    os.makedirs(OUT, exist_ok=True)
    tmp = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.pop("REPRO_SCALE", None)
    env.update(PINNED_ENV, PYTHONPATH=os.path.join(ROOT, "src"), TMPDIR=tmp)
    measured = ["--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.corrupt:
        measured.append("--corrupt")
    try:
        if args.trace:
            plain = run_child(args.workload, measured, deadline, env)
            trace_path = os.path.join(
                OUT, f"trace-{args.workload}-seed{args.seed}.json")
            traced = run_child(args.workload,
                               measured + ["--trace-out", trace_path],
                               deadline, env)
            children = [plain, traced]
            metrics = dict(traced["layer"])
            key = PRIMARY[args.workload]
            base = plain["e2e"][key]["value"]
            metrics["trace.overhead_pct"] = {
                "value": (base - traced["e2e"][key]["value"]) / base * 100,
                "unit": "%"}
            log(f"trace written to {os.path.relpath(trace_path, ROOT)}")
        else:
            setups = [run_child(args.workload,
                                measured + ["--setup-only"], deadline,
                                env)["setup_s"]
                      for _ in range(SETUP_SAMPLES - 1)]
            result = run_child(args.workload, measured, deadline, env)
            setups.append(result["setup_s"])
            children = [result]
            metrics = {"setup_s": {"value": statistics.median(setups),
                                   "unit": "s"}}
            metrics.update((name, result["e2e"][name])
                           for name in END_TO_END[1:])
            log("  setup_s samples: "
                + ", ".join(f"{s:.3f}" for s in setups))
    except RunFailed as exc:
        print(f"rrmbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    problems = undeclared(args.workload, args.trace, metrics)
    if problems:
        print(f"rrmbench: {args.workload}: result does not match "
              f"BENCHMARK.json: {'; '.join(problems)}", file=sys.stderr)
        return 1
    errors = [e for child in children for e in child["errors"]]
    for text in errors[:10]:
        print(f"rrmbench: {args.workload}: check failed: {text}",
              file=sys.stderr)
    if len(errors) > 10:
        print(f"rrmbench: {args.workload}: {len(errors) - 10} more check "
              f"failures", file=sys.stderr)
    summary = {"correct": not errors,
               "attempted": sum(c["attempted"] for c in children),
               "failed": sum(c["failed"] for c in children),
               "metrics": metrics}
    log(f"{args.workload}: {summary['attempted']} attempted, "
        f"{summary['failed']} failed, "
        f"{'correct' if not errors else 'INCORRECT'}, "
        f"{time.monotonic() - started:.1f} s")
    for name, metric in metrics.items():
        log(f"  {name:<28} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps(summary), flush=True)
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
