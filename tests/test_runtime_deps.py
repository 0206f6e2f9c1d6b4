"""The package runs on numpy and click alone; scipy is a test-only reference.

Commands that need no numpy, ``bounds-table`` and ``--help``, run without it,
and importing the package and its CLI loads none of it. Importing the CLI
loads only the package modules that every command uses; the closed-form
bounds load with ``bounds-table`` and ``risk --oracle --detector np``.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

import bdlimits
from bdlimits.cli import main

#: Ends each command's stdout in a blocked run, before its exit code.
END = b"\x1e"

#: Makes every import of the package named by the first argument fail as if
#: it were not installed, then runs the CLI on each argument list of the
#: second, a JSON list, one after another in this one interpreter. After
#: each command's stdout it prints END, the command's exit code and a newline.
BLOCK = """
import json, sys

class Block:
    def __init__(self, package):
        self.package = package

    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == self.package:
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, Block(sys.argv[1]))
from bdlimits.cli import main
for args in json.loads(sys.argv[2]):
    try:
        main(args, prog_name="bdlimits")
    except SystemExit as exit:
        print(f"\\x1e{exit.code}", flush=True)
"""

#: Runs the CLI on the arguments, then prints whether the bounds module loaded.
BOUNDS_LOADED = """
import sys
from bdlimits.cli import main
try:
    main(sys.argv[1:], prog_name="bdlimits")
finally:
    print("bdlimits.bounds" in sys.modules)
"""


def python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports this checkout's package, with
    help text 80 columns wide, as :func:`unblocked` prints it."""
    src = str(Path(bdlimits.__file__).resolve().parents[1])
    env = {
        **os.environ,
        "COLUMNS": "80",
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    }
    return subprocess.run([sys.executable, *args], capture_output=True, env=env, timeout=120)


def blocked(package: str, commands: list[list[str]]) -> tuple[list[tuple[bytes, bytes]], bytes]:
    """Run the commands one after another in one fresh interpreter that cannot
    import ``package``: each command's (exit code, stdout), and the stderr."""
    result = python("-c", BLOCK, package, json.dumps(commands))
    assert result.returncode == 0, result.stderr
    runs = re.findall(b"(.*?)" + END + b"(.*?)\n", result.stdout, re.S)
    assert len(runs) == len(commands), result.stdout
    return [(code, stdout) for stdout, code in runs], result.stderr


def unblocked(args: list[str]) -> bytes:
    """The command's stdout bytes, run in-process, as the CLI prints them
    unblocked (``stdout_bytes``: ``stdout`` would turn \\r\\n into \\n)."""
    result = CliRunner(env={"COLUMNS": "80"}).invoke(main, args, prog_name="bdlimits")
    assert result.exit_code == 0, result.output
    return result.stdout_bytes


def assert_runs_blocked(runs, commands, args) -> None:
    """The blocked run of ``args`` exited 0 and printed what it prints unblocked."""
    (code, stdout), stderr = runs[0][commands.index(args)], runs[1]
    assert code == b"0", stderr
    assert stdout == unblocked(args)


#: The commands that run without scipy, all in one blocked interpreter.
SCIPY_FREE = [["bounds-table"], ["risk", "--oracle"], ["toy", "--seeds", "3"], ["probe", "--trials", "500"]]

#: The commands that run without numpy, all in one blocked interpreter.
NUMPY_FREE = [["bounds-table"], ["bounds-table", "--format", "json", "--alpha", "0.01", "--beta", "0.1"], ["--help"]]


@pytest.fixture(scope="module")
def without_scipy():
    return blocked("scipy", SCIPY_FREE)


@pytest.fixture(scope="module")
def without_numpy():
    return blocked("numpy", NUMPY_FREE)


def test_cli_import_loads_no_scipy():
    code = "import sys, bdlimits.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = python("-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout == b"[]\n"


@pytest.mark.parametrize("args", SCIPY_FREE, ids=lambda args: args[0])
def test_commands_run_without_scipy(args, without_scipy):
    assert_runs_blocked(without_scipy, SCIPY_FREE, args)


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


@pytest.mark.parametrize("args", NUMPY_FREE, ids=["bounds-table", "bounds-table-json", "help"])
def test_commands_run_without_numpy(args, without_numpy):
    assert_runs_blocked(without_numpy, NUMPY_FREE, args)


def test_cli_import_loads_no_importlib_resources():
    # -S keeps site's own start-up from loading it; only the bundled
    # catalog, read by ``load_catalog``, needs it
    click_site = str(Path(click.__file__).resolve().parents[1])
    src = str(Path(bdlimits.__file__).resolve().parents[1])
    code = "import sys, bdlimits.cli; print('importlib.resources' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, click_site])}
    result = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == b"False\n"


def test_cli_import_loads_only_what_every_command_uses():
    code = (
        "import sys, bdlimits.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'bdlimits')); "
        "print('csv' in sys.modules, 'dataclasses' in sys.modules)"
    )
    result = python("-c", code)
    assert result.returncode == 0, result.stderr
    package = ["bdlimits", "bdlimits.checks", "bdlimits.cli", "bdlimits.errors", "bdlimits.results"]
    assert result.stdout.decode().splitlines() == [repr(package), "False False"]


@pytest.mark.parametrize(
    "args, loaded",
    [
        (["--help"], False),
        (["risk", "--trials", "100"], False),
        (["risk", "--trials", "100", "--oracle"], True),
        (["risk", "--trials", "100", "--oracle", "--detector", "type2-tv"], False),
        (["bounds-table"], True),
    ],
    ids=["help", "risk", "risk-oracle", "risk-oracle-type2-tv", "bounds-table"],
)
def test_bounds_load_only_with_the_commands_that_use_them(args, loaded):
    result = python("-c", BOUNDS_LOADED, *args)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == str(loaded).encode()
