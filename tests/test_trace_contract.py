"""The benchmark's tracer (perfbench/tracer.py) wraps jacrel functions and
reads its caches by name.  Running it here makes the removal of a name it
hooks fail the test suite instead of breaking a traced benchmark run."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys
import jacrel.cli
from tracer import Tracer

tracer = Tracer()
tracer.install()
for argv in (["identities", "--max-n", "3", "--order", "2"],
             ["equivalence", "--g", "3", "--d", "4", "--r", "2"],
             ["grr", "--g", "4", "--d", "5", "--r", "2", "--M", "5"]):
    before = tracer.summary()
    code = jacrel.cli.main(argv)
    if code != 0:
        sys.exit(f"{argv[0]} exited {code}")
    if argv[0] == "equivalence":
        # the chain's series products must pass through the hooked __mul__
        # and size their operands, and the ideal cells must still insert
        # rows through the hooked RowSpace.add, or the layer metrics read 0
        after = tracer.summary()
        for kind, key in (("calls", "rings.LaurentSeries.mul"),
                          ("counters", "rings.LaurentSeries.mul.coeff_products"),
                          ("calls", "linalg.RowSpace.add")):
            if not after[kind].get(key, 0) > before[kind].get(key, 0):
                sys.exit(f"equivalence left {kind} {key} at {after[kind].get(key)}")
    if argv[0] == "grr":
        # the Chern-class tower must run through the hooked chern_classes and
        # GrrElement.__mul__, or the GRR layer metrics read 0
        after = tracer.summary()
        for key in ("grr.GrrElement.mul", "grr.chern_classes"):
            if not after["calls"].get(key, 0) > before["calls"].get(key, 0):
                sys.exit(f"grr left calls {key} at {after['calls'].get(key)}")
tracer.cache_counters()
calls = tracer.summary()["calls"]
if calls.get("cli.main") != 3:
    sys.exit(f"cli.main traced {calls.get('cli.main')} times, expected 3")
"""


def test_tracer_installs_and_runs_the_cli():
    # no bytecode: the run must leave perfbench/ as it found it
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT / "perfbench",
                            env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
