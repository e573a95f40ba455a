"""What a cold process loads.

``import jacrel`` loads no submodule, each exported name is read from its
submodule on first access, and each CLI subcommand imports only the modules
it runs.  A new top-level import that undoes this fails here, since a fresh
``jacrel`` process pays for every module it loads.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import jacrel

SRC = str(Path(__file__).resolve().parent.parent / "src")

# prints the modules that importing jacrel and jacrel.cli and, given argv,
# running that command with its report discarded add to a fresh process
SCRIPT = """
import contextlib, io, json, sys
before = set(sys.modules)
import jacrel, jacrel.cli
if len(sys.argv) > 1:
    with contextlib.redirect_stdout(io.StringIO()):
        code = jacrel.cli.main(sys.argv[1:])
    assert code == 0, code
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def run_fresh(code: str, *args: str) -> str:
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    result = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                            text=True, timeout=300, env=dict(os.environ, PYTHONPATH=path))
    assert result.returncode == 0, result.stderr
    return result.stdout


def added_modules(*argv: str) -> set[str]:
    return set(json.loads(run_fresh(SCRIPT, *argv)))


@pytest.mark.parametrize("argv, needed, absent", [
    ((), {"jacrel", "cli", "rings"}, {"relations", "grr"}),
    (("identities", "--max-n", "3", "--order", "2"), {"combinat"},
     {"relations", "tautalg", "linalg", "grr"}),
    (("relations", "--g", "4", "--d", "5", "--r", "2", "--family", "vdgk6"),
     {"relations"}, {"grr"}),
    (("equivalence", "--g", "3", "--d", "4", "--r", "2"), {"relations", "linalg"}, {"grr"}),
    (("grr", "--g", "4", "--d", "5", "--r", "2", "--M", "5"), {"grr", "tautalg"},
     {"relations", "linalg", "combinat"}),
])
def test_each_command_loads_only_the_modules_it_runs(argv, needed, absent):
    added = added_modules(*argv)
    loaded = {m.removeprefix("jacrel.") for m in added if m.startswith("jacrel")}
    assert needed <= loaded
    assert not absent & loaded
    # no record generates code at import: dataclasses alone pulls in inspect and ast
    assert "dataclasses" not in added


def test_every_export_is_its_submodule_object():
    names = [n for n in jacrel.__all__ if n != "__version__"]
    for name in names:
        value = getattr(jacrel, name)
        assert value.__module__.startswith("jacrel.")
        assert getattr(sys.modules[value.__module__], name) is value
    namespace = {}
    exec("from jacrel import *", namespace)
    assert all(namespace[n] is getattr(jacrel, n) for n in names)
    assert namespace["__version__"] == jacrel.__version__ == "0.1.0"


def test_dir_lists_the_exports_and_unknown_names_raise():
    assert set(jacrel.__all__) <= set(dir(jacrel))
    with pytest.raises(AttributeError, match="no_such_name"):
        jacrel.no_such_name
    with pytest.raises(ImportError):
        exec("from jacrel import no_such_name", {})


def test_cold_import_loads_nothing_until_a_name_is_used():
    out = run_fresh("""
import json, sys
import jacrel
before = sorted(m for m in sys.modules if m.startswith("jacrel"))
listed = set(jacrel.__all__) <= set(dir(jacrel))
family = jacrel.gen_family
after = sorted(m for m in sys.modules if m.startswith("jacrel"))
print(json.dumps([before, listed, family is sys.modules["jacrel.relations"].gen_family,
                  "jacrel.grr" in after]))
""")
    before, listed, same, grr_loaded = json.loads(out)
    assert before == ["jacrel"]
    assert listed and same and not grr_loaded
