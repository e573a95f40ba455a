"""jacrel benchmark: one seeded workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload {ideals,chain,grr,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  Every pass over the workload's case list runs in a fresh
interpreter, so module caches start cold as they do for a CLI user.  All
load is one process at a time (closed loop, one client).  Case times are
CPU seconds scaled to a reference machine speed (see speed.py); the plain
wall-clock figures are printed beside them.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics:
calls and self time of the wrapped layer boundaries, the work counters, the
cache sizes, and the tracing overhead.  Every pass checks its outputs; the
last line of stdout is the JSON result.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import speed
from tracer import merge

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
DEADLINE_S = 160.0  # the whole run must end within 180 s
SETUP_PROBES = 9
# Passes in a 20-second run; a run makes round(count * --seconds / 20),
# at least one.  The count does not depend on how fast the program is, so
# every commit is measured on the same cases and the percentiles stay
# comparable.  At the commit that defined the benchmark (Python 3.11, 2-core
# x86-64 container) one pass took about 25 s (ideals), 16 s (chain), 3 s
# (grr) and 5 s (cli); chain runs two passes because with one its p50 and
# tail spread by about 10 % from seed to seed.
PASSES_PER_20_S = {"ideals": 1, "chain": 2, "grr": 5, "cli": 5}
SETUP_CODE = ("import time; t = time.thread_time(); import jacrel, jacrel.cli; "
              "print(time.thread_time() - t)")


def make_cases(workload: str, seed: int) -> list:
    """The workload's fixed case list in the seed's order."""
    if workload == "ideals":
        cases = [[g, d, r] for g in (5, 6, 7) for r in (2, 3, 4) for d in range(2 * r, 11)]
    elif workload == "chain":
        cases = [[g, d, r] for g in (3, 4, 5, 6) for r in (2, 3) for d in range(2 * r, 9)]
    elif workload == "grr":
        cases = [[g, d, r, M] for r in (1, 2, 3) for g in range(1, 6) for d in range(1, 9)
                 for M in (d, d + 1, d + 2)]
    else:
        cases = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))
    random.Random(seed).shuffle(cases)
    return cases


class Run:
    def __init__(self, workload: str, cases: list, env: dict, start: float) -> None:
        self.workload = workload
        self.cases = cases
        self.env = env
        self.start = start
        self.errors: list[str] = []

    def _remaining(self) -> float:
        return max(1.0, DEADLINE_S - (perf_counter() - self.start))

    def grid_pass(self, traced: bool) -> tuple[list, dict | None]:
        """One fresh worker over the case list.

        Returns ``([[wall s, adjusted CPU s, error], ...], trace summary)``.
        """
        spans = str(OUT / f"{self.workload}.spans") if traced else "-"
        cmd = [sys.executable, str(BENCH / "worker.py"), "grid", self.workload, spans]
        failed = [[0.0, 0.0, "worker failed"] for _ in self.cases], None
        try:
            proc = subprocess.run(cmd, input=json.dumps(self.cases), capture_output=True,
                                  text=True, env=self.env, cwd=ROOT,
                                  timeout=self._remaining())
        except subprocess.TimeoutExpired:
            self.errors.append("worker timed out")
            return failed
        try:
            result = json.loads(proc.stdout)
        except json.JSONDecodeError:
            self.errors.append(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
            return failed
        return result["cases"], result["trace"]

    def cli_pass(self, traced: bool) -> tuple[list, dict | None]:
        """Each command of the mix in its own fresh process, one at a time."""
        results, summaries, out_bytes = [], [], 0
        before = speed.chunk()
        for k, case in enumerate(self.cases):
            if traced:
                summary_path = OUT / f"cli-{k}.json"
                summary_path.unlink(missing_ok=True)
                cmd = [sys.executable, str(BENCH / "worker.py"), "cli", str(summary_path),
                       str(OUT / f"cli-{k}.spans"), *case["argv"]]
            else:
                cmd = [sys.executable, "-m", "jacrel.cli", *case["argv"]]
            start, cpu = perf_counter(), children_cpu()
            try:
                proc = subprocess.run(cmd, capture_output=True, env=self.env, cwd=ROOT,
                                      timeout=self._remaining())
            except subprocess.TimeoutExpired:
                results.append([perf_counter() - start] * 2 + ["timed out"])
                continue
            elapsed, cpu = perf_counter() - start, children_cpu() - cpu
            after = speed.chunk()
            adjusted = cpu * speed.factor(before, after)
            before = after
            error = None
            if proc.returncode != case["exit"]:
                error = f"exit {proc.returncode}, expected {case['exit']}"
            elif hashlib.sha256(proc.stdout).hexdigest() != case["sha256"]:
                error = "stdout digest differs from golden.json"
            elif not all(s.encode() in proc.stdout for s in case["contains"]):
                error = "stdout misses an expected line"
            if traced:
                out_bytes += len(proc.stdout)
                if summary_path.is_file():
                    summaries.append(json.loads(summary_path.read_text(encoding="utf-8")))
                else:
                    error = error or f"no trace summary: {proc.stderr[-2000:]!r}"
            results.append([elapsed, adjusted, error])
        if not traced:
            return results, None
        trace = merge(summaries)
        trace["counters"]["cli.output_bytes"] = out_bytes
        return results, trace

    def one_pass(self, traced: bool) -> tuple[list, dict | None]:
        if self.workload == "cli":
            return self.cli_pass(traced)
        return self.grid_pass(traced)


def children_cpu() -> float:
    """CPU seconds of all finished child processes."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def setup_seconds(env: dict) -> list[float]:
    """Speed-adjusted CPU time to import jacrel and jacrel.cli in fresh interpreters."""
    samples = []
    before = speed.chunk()
    for _ in range(SETUP_PROBES + 1):  # the first probe only warms the .pyc files
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], capture_output=True,
                              text=True, env=env, cwd=ROOT, timeout=60, check=True)
        after = speed.chunk()
        samples.append(float(proc.stdout) * speed.factor(before, after))
        before = after
    return samples[1:]


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it, and its value."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def ratio(num: float, den: float) -> float:
    """num / den, and 0 where nothing was measured (a failed pass or an unused layer)."""
    return num / den if den else 0.0


def layer_values(names: list[str], trace: dict) -> dict[str, float]:
    """Per-layer metrics of one pass, from its merged trace summary."""
    calls, self_s, counters = trace["calls"], trace["self_s"], trace["counters"]
    values = {}
    for name in names:
        stem, _, last = name.rpartition(".")
        if name == "linalg.rows_useful_ratio":
            values[name] = ratio(counters.get("linalg.rows_useful", 0),
                                 counters.get("linalg.rows_added", 0))
        elif last == "hit_ratio":
            values[name] = ratio(counters.get(f"{stem}.hits", 0),
                                 counters.get(f"{stem}.lookups", 0))
        elif last == "calls":
            values[name] = calls.get(stem, 0)
        elif last == "self_s":
            values[name] = self_s.get(stem, 0.0)
        elif name != "trace.overhead_s":
            values[name] = counters.get(name, 0)
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("ideals", "chain", "grr", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    start = perf_counter()

    if not (ROOT / "src" / "jacrel" / "__init__.py").is_file():
        print(f"error: no jacrel sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    OUT.mkdir(exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    try:
        setup = setup_seconds(env)
    except subprocess.CalledProcessError as exc:
        print(f"error: jacrel does not import:\n{exc.stderr}", file=sys.stderr)
        return 1
    run = Run(args.workload, make_cases(args.workload, args.seed), env, start)

    # --trace 1 alternates an untraced and a traced pass, each about as long
    passes = PASSES_PER_20_S[args.workload] * args.seconds / 20 / (2 if args.trace else 1)
    plain, traced = [], []
    for _ in range(max(1, round(passes))):
        plain.append(run.one_pass(False)[0])
        if args.trace:
            traced.append(run.one_pass(True))
        if run.errors:
            break

    results = [c for p in plain for c in p] + [c for p, _ in traced for c in p]
    failures = [e for _, _, e in results if e]
    attempted, failed = len(results), len(failures)
    for message in run.errors + sorted(set(failures)):
        print(f"FAIL: {message}", file=sys.stderr)
    raw_pass_s = [sum(c[0] for c in p) for p in plain]
    print(f"workload={args.workload} seed={args.seed} passes={len(plain)} "
          f"cases/pass={len(run.cases)} wall_s={perf_counter() - start:.2f}")
    print(f"pass_s wall = {[round(s, 3) for s in raw_pass_s]}, adjusted CPU = "
          f"{[round(sum(c[1] for c in p), 3) for p in plain]}")
    print(f"fail_share = {failed}/{attempted} = {failed / attempted:.4g}")

    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        per_pass = [layer_values(names, trace) for _, trace in traced if trace]
        if not per_pass:
            print("error: no traced pass produced a trace", file=sys.stderr)
            return 1
        values = dict(per_pass[0])  # counters: deterministic, from the first pass
        for name in names:
            if name.endswith(".self_s"):
                values[name] = statistics.median(v[name] for v in per_pass)
        # speed-adjusted, like the end-to-end times: the machine's drift
        # between two passes is larger than the overhead on some workloads
        traced_s = [sum(c[1] for c in p) for p, _ in traced]
        plain_s = [sum(c[1] for c in p) for p in plain]
        values["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(plain_s)
        specs = spec["per_layer"]
    else:
        latencies = [c[1] for p in plain for c in p]
        raw = [c[0] for p in plain for c in p]
        pct, tail_s = tail(latencies)
        values = {
            "setup_s": statistics.median(setup),
            "cases_per_s": statistics.median(ratio(len(p), sum(c[1] for c in p)) for p in plain),
            "case_ms.p50": 1000 * statistics.median(latencies),
            "case_ms.tail": 1000 * tail_s,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        }
        print(f"case_ms.tail is p{pct:.1f} over {len(latencies)} cases")
        print(f"wall clock, not adjusted: cases_per_s = {ratio(len(raw), sum(raw)):.6g}, case_ms.p50 = "
              f"{1000 * statistics.median(raw):.6g}, case_ms.tail = {1000 * tail(raw)[1]:.6g}")
        if args.workload == "cli":
            per_cmd: dict[str, list[float]] = {}
            for p in plain:
                for case, c in zip(run.cases, p):
                    per_cmd.setdefault(" ".join(case["argv"]), []).append(c[1])
            for cmd, samples in sorted(per_cmd.items()):
                print(f"  {1000 * statistics.median(samples):9.2f} ms  jacrel {cmd}")
        specs = spec["end_to_end"]
    metrics = {}
    for m in specs:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
