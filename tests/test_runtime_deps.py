"""The package runs on numpy and click alone; scipy is a test-only reference."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import bdlimits

#: Makes every scipy import fail as if scipy were not installed, then runs
#: the CLI on the remaining arguments.
BLOCK_SCIPY = """
import sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, BlockScipy())
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
    blocked = python("-c", BLOCK_SCIPY, *args)
    assert blocked.returncode == 0, blocked.stderr
    normal = python("-c", RUN_CLI, *args)
    assert normal.returncode == 0, normal.stderr
    assert blocked.stdout == normal.stdout
