"""The package runs on numpy and click alone; scipy is a test-only reference.

Commands that need no numpy, ``bounds-table`` and ``--help``, run without it,
and importing the package and its CLI loads none of it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import bdlimits

#: Makes every import of the package named by the first argument fail as if
#: it were not installed, then runs the CLI on the remaining arguments.
BLOCK = """
import sys

class Block:
    def __init__(self, package):
        self.package = package

    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == self.package:
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, Block(sys.argv.pop(1)))
from bdlimits.cli import main
main(sys.argv[1:], prog_name="bdlimits")
"""

RUN_CLI = "import sys; from bdlimits.cli import main; main(sys.argv[1:], prog_name='bdlimits')"


def python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports this checkout's package."""
    src = str(Path(bdlimits.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True, env=env, timeout=120)


def test_cli_import_loads_no_scipy():
    code = "import sys, bdlimits.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = python("-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout == b"[]\n"


@pytest.mark.parametrize(
    "args",
    [["bounds-table"], ["risk", "--oracle"], ["toy", "--seeds", "3"], ["probe", "--trials", "500"]],
    ids=lambda args: args[0],
)
def test_commands_run_without_scipy(args):
    blocked = python("-c", BLOCK, "scipy", *args)
    assert blocked.returncode == 0, blocked.stderr
    normal = python("-c", RUN_CLI, *args)
    assert normal.returncode == 0, normal.stderr
    assert blocked.stdout == normal.stdout


def test_import_loads_no_numpy():
    code = "import sys, bdlimits, bdlimits.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    result = python("-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout == b"[]\n"


def test_numpy_loads_with_the_first_name_that_needs_it():
    code = (
        "import sys, bdlimits as bd; bd.impossibility_min_n(0.1, 0.001, 10.0); print('numpy' in sys.modules); "
        "bd.Categorical; print('numpy' in sys.modules)"
    )
    result = python("-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout == b"False\nTrue\n"


@pytest.mark.parametrize(
    "args",
    [["bounds-table"], ["bounds-table", "--format", "json", "--alpha", "0.01", "--beta", "0.1"], ["--help"]],
    ids=["bounds-table", "bounds-table-json", "help"],
)
def test_commands_run_without_numpy(args):
    blocked = python("-c", BLOCK, "numpy", *args)
    assert blocked.returncode == 0, blocked.stderr
    normal = python("-c", RUN_CLI, *args)
    assert normal.returncode == 0, normal.stderr
    assert blocked.stdout == normal.stdout
