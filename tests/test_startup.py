"""What a fresh process loads: each subcommand imports only what it runs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs the command line in the child and prints its exit code and the
# modules the run imported, leaving out whatever the interpreter had loaded
# before.
PROBE = """
import io, sys
before = set(sys.modules)
sys.stdout = io.StringIO()
from catalankit.cli import main
code = main(sys.argv[1:])
sys.stdout = sys.__stdout__
print(code, *(name for name in sys.modules if name not in before))
"""

# Runs the command line in the child with the module named first made to
# raise ValueError("simulated") while it loads, and prints how main ended.
FAILING_LOAD = """
import importlib.machinery, io, sys

class FailingLoad:
    def find_spec(self, name, path=None, target=None):
        return importlib.machinery.ModuleSpec(name, self) if name == sys.argv[1] else None

    def create_module(self, spec):
        return None

    def exec_module(self, module):
        raise ValueError("simulated")

sys.meta_path.insert(0, FailingLoad())
from catalankit.cli import main
sys.stdout = io.StringIO()
try:
    outcome = f"returned {main(sys.argv[2:])}"
except Exception as exc:
    outcome = f"{type(exc).__name__}: {exc}"
sys.stdout = sys.__stdout__
print(outcome)
"""

ALWAYS = {"cli", "exact", "reporting"}
C2 = ALWAYS | {"catalan2", "hyper", "quad", "series"}

CASES = [
    (("catalan", "--n", "0"), "text", ALWAYS),
    (("c2", "--a", "1", "--b", "4", "--n", "2"), "json", C2),
    (("q", "--n", "3", "--y", "1/2"), "csv", ALWAYS | {"hyper", "qfunc"}),
    # the functional checks its inputs by exact's c2 rule and loads no c2
    # route; only q_hyp sums a pFq, so hyper stays out too
    (("functional", "--a", "2", "--b", "1", "--p", "1/2", "--n", "2"), "text",
     ALWAYS | {"functional", "qfunc", "quad"}),
]


def loaded(*args):
    run = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(SRC)), check=True, timeout=30)
    return run.stdout.split()


@pytest.mark.parametrize("argv, fmt, modules", CASES, ids=[c[0][0] for c in CASES])
def test_a_subcommand_loads_only_its_routes(argv, fmt, modules):
    code, *names = loaded("-c", PROBE, *argv, "--format", fmt)
    assert code == "0"
    ours = {name.removeprefix("catalankit.") for name in names if name.startswith("catalankit.")}
    assert ours == modules
    assert not {"dataclasses", "inspect"} & set(names)
    assert not ({"json", "csv"} - {fmt}) & set(names)


# A load error is not an input error: main raises it where the command
# imports its route module, and no row is skipped for it.
@pytest.mark.parametrize("module, argv", [
    ("catalankit.quad", ("functional", "--a", "2", "--b", "1", "--p", "1/2", "--n", "2")),
    ("catalankit.qfunc", ("q", "--n", "3", "--y", "1/2")),
], ids=["functional", "q"])
def test_a_route_module_that_fails_to_load_raises_its_error(module, argv):
    assert loaded("-c", FAILING_LOAD, module, *argv) == ["ValueError:", "simulated"]


def test_importing_the_package_loads_no_route():
    names = loaded("-c", "import sys, catalankit; print(*sys.modules)")
    assert [name for name in names if name.startswith("catalankit")] == ["catalankit"]


def test_the_quadrature_loads_no_other_route():
    # the series it referees (hyper) and their oracles (checks) stay out
    names = loaded("-c", "import sys, catalankit.quad; print(*sys.modules)")
    assert [name for name in names if name.startswith("catalankit")] == [
        "catalankit", "catalankit.quad"]
