"""Self-check: the benchmark's checks can fail.

    python3 rrmbench/selfcheck.py

Runs each workload briefly with ``--corrupt``, which makes the
benchmark itself alter one result after the program returns it: one
served row (serve-engine, serve-cluster), one offline row
(offline-batch) and one simulated cycle count (iss-suite).  Every such
run must exit non-zero and name its workload on stderr; the command
exits non-zero if any does not.
"""

from __future__ import annotations

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CASES = (("serve-engine", "served"), ("serve-cluster", "served"),
         ("offline-batch", "offline"), ("iss-suite", "cycles"))


def main() -> int:
    ok = True
    for workload, what in CASES:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", "1", "--seconds", "2", "--trace", "0",
             "--corrupt"], cwd=ROOT, capture_output=True, text=True,
            timeout=200)
        caught = (proc.returncode != 0
                  and f"rrmbench: {workload}: check failed" in proc.stderr
                  and what in proc.stderr)
        ok = ok and caught
        first = next((line for line in proc.stderr.splitlines()
                      if workload in line), "(nothing on stderr)")
        print(f"{workload:<14} exit {proc.returncode}  "
              f"{'caught' if caught else 'NOT CAUGHT'}: {first}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
