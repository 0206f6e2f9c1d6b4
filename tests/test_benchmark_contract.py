"""The package names the benchmark's traced run reaches for still resolve.

``perfbench/layers.py`` wraps a fixed list of package functions by name, the
dataset validation hook and the four CLI callbacks, and reads the ``trials``
argument of each per-trial loop. A rename or a new signature there breaks
``--trace 1`` without failing any other test.
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

from bdlimits import cli, distributions

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def layers():
    """``perfbench/layers.py``, imported without writing bytecode beside it."""
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True
    try:
        yield importlib.import_module("layers")
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_flag
        for name in ("layers", "tracer"):
            sys.modules.pop(name, None)


def resolve(module: str, attr: str):
    return getattr(importlib.import_module(f"bdlimits.{module}"), attr)


def test_traced_functions_resolve(layers):
    for label, module, attr in layers.FUNCTIONS:
        assert callable(resolve(module, attr)), label


def test_dataset_hook_resolves(layers):
    assert layers.SYMBOL_DATASET == "distributions.SymbolDataset"
    assert callable(distributions.SymbolDataset.__post_init__)


def test_cli_callbacks_resolve(layers):
    for command in layers.CLI_COMMANDS:
        assert callable(cli.main.commands[command].callback), command


def test_loops_take_trials(layers):
    for label in layers.LOOPS:
        module, attr = label.split(".")
        assert "trials" in inspect.signature(resolve(module, attr)).parameters, label
