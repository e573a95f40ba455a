"""Check that the traced run's work counters repeat exactly.

    python3 perfbench/check_counters.py --workload W --seed N [--seconds S]

Runs ``run.py --trace 1`` twice with the same seed and compares every
per-layer metric whose unit is not seconds (calls, products, ratios, bits,
bytes, cache sizes).  Prints each counter that differs and the number of
unstable counters; exits 1 if there is any.  A counter that does not repeat
may support a claim only as a count, never as a speed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def traced_metrics(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=BENCH.parent,
                          timeout=300, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload}: traced run reported wrong outputs")
    return result["metrics"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("ideals", "chain", "grr", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=1)
    args = parser.parse_args()
    first = traced_metrics(args.workload, args.seed, args.seconds)
    second = traced_metrics(args.workload, args.seed, args.seconds)
    counters = [name for name, m in first.items() if m["unit"] != "s"]
    unstable = [name for name in counters if first[name]["value"] != second[name]["value"]]
    for name in unstable:
        print(f"UNSTABLE {name}: {first[name]['value']} then {second[name]['value']}")
    print(f"{args.workload}: {len(counters)} counters compared, unstable_counters = {len(unstable)}")
    return 1 if unstable else 0


if __name__ == "__main__":
    sys.exit(main())
