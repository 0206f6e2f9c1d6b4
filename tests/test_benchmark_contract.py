"""The benchmark's traced run and its correctness gates hold on the package.

``perfbench/layers.py`` wraps a fixed list of package functions by name, the
dataset validation hook and the four CLI callbacks, and reads the ``trials``
argument of each per-trial loop. A rename or a new signature there breaks
``--trace 1`` without failing any other test. The CLI reads the bounds names
it calls through their module when a command runs, so a wrapper set after
the import still sees every call. ``perfbench/workloads.py``
gates each ``exact-grid`` result against its own type-sum reference, so an
oracle that fails the gate fails here too, and every workload's gates run
here on one whole cycle, so a changed return type or call shape fails here
and not only in the benchmark run. Every call ``perfbench/workloads.py``
makes into the package also binds to its callee's signature, so a renamed
or reordered parameter fails here by name. The default priors that
``mc-small-k`` asks for on every op stay classmethods that return one
shared prior, so its cell law is built once.
"""

import ast
import contextlib
import dataclasses
import importlib
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from bdlimits import bounds, cli, distributions, exact_type3_risk
from bdlimits.distributions import Categorical
from bdlimits.harness import JointPrior, benchmark_instances

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@contextlib.contextmanager
def perfbench_module(name: str, *imports: str):
    """``perfbench/<name>.py``, imported without writing bytecode beside it;
    the perfbench modules it ``imports`` are dropped again with it."""
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True
    try:
        yield importlib.import_module(name)
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_flag
        for module in (name, *imports):
            sys.modules.pop(module, None)


@pytest.fixture(scope="module")
def layers():
    with perfbench_module("layers", "tracer") as module:
        yield module


@pytest.fixture(scope="module")
def workloads():
    with perfbench_module("workloads") as module:
        yield module


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


@pytest.mark.parametrize(
    "args, calls",
    [
        (["bounds-table"], {"table_report": 1, "exact_type3_risk": 0}),
        (["risk", "--oracle", "--trials", "100"], {"table_report": 0, "exact_type3_risk": 1}),
        (["risk", "--trials", "100"], {"table_report": 0, "exact_type3_risk": 0}),
        (
            ["risk", "--oracle", "--detector", "type2-tv", "--trials", "100"],
            {"table_report": 0, "exact_type3_risk": 0},
        ),
    ],
    ids=["bounds-table", "risk-oracle", "risk", "risk-oracle-type2-tv"],
)
def test_cli_reads_bounds_names_at_call_time(monkeypatch, args, calls):
    # ``--trace 1`` sets its wrappers on the module, as ``setattr`` does here,
    # after the CLI has been imported
    seen = dict.fromkeys(calls, 0)

    def counting(name):
        original = getattr(bounds, name)

        def wrapper(*args, **kwargs):
            seen[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(bounds, name, counting(name))
    result = CliRunner().invoke(cli.main, args)
    assert result.exit_code == 0, result.output
    assert seen == calls


def package_calls(module):
    """(call text, callee, call node) of each call in ``module``'s source on a
    name it imported from the package, a module or a class."""
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if not isinstance(node, ast.Call):
            continue
        attrs, root = [], node.func
        while isinstance(root, ast.Attribute):
            attrs.append(root.attr)
            root = root.value
        if not isinstance(root, ast.Name):
            continue
        callee = getattr(module, root.id, None)
        home = callee.__name__ if inspect.ismodule(callee) else getattr(callee, "__module__", "")
        if not str(home).startswith("bdlimits"):
            continue
        for attr in reversed(attrs):
            callee = getattr(callee, attr)
        yield ast.unparse(node.func), callee, node


@pytest.mark.parametrize(
    "name, cells",
    [
        ("mbd_default", (0.5, 0.0, 0.5, 0.0)),
        ("sbd_default", (0.5, 0.0, 0.25, 0.25)),
        ("ood_default", (0.5, 0.5, 0.0, 0.0)),
    ],
)
def test_default_priors_shared(name, cells):
    # ``mc-small-k`` calls ``harness.JointPrior.sbd_default()`` on every op;
    # one shared prior builds its cell law once
    assert isinstance(inspect.getattr_static(JointPrior, name), classmethod)
    prior = getattr(JointPrior, name)()
    assert prior is getattr(JointPrior, name)()
    assert prior == JointPrior(*cells)
    with pytest.raises(dataclasses.FrozenInstanceError):
        prior.p00 = 1.0
    assert prior.cell_law is prior.cell_law
    assert prior.cell_law == Categorical(np.array(cells))
    assert prior.cell_law == JointPrior(*cells).cell_law


def test_workload_calls_bind(workloads):
    called = set()
    for text, callee, node in package_calls(workloads):
        starred = any(isinstance(arg, ast.Starred) for arg in node.args)
        assert not starred and all(kw.arg for kw in node.keywords), text
        # bind checks the count, the order and the keyword names of the arguments
        inspect.signature(callee).bind(*node.args, **{kw.arg: kw.value for kw in node.keywords})
        called.add(text)
    assert {
        "bounds.exact_type3_risk",
        "harness.estimate_generalized_risk",
        "harness.type0_demo_risk",
        "adversary.imposs_probe",
        "adversary.ImpossibilityConfig",
        "detectors.type2_tv",
        "cli.main.main",
    } <= called, called


def test_exact_grid_gate(workloads):
    grid = workloads.ExactGrid
    instances = {inst.label: inst for inst in benchmark_instances()}
    for label, ns in grid.GRID.items():
        pair = instances[label].pair
        for n in ns:
            reference = workloads.type_sum_risk(pair, n)
            assert abs(exact_type3_risk(pair, n) - reference) <= grid.TOLERANCE, (label, n)


def test_one_cycle_of_each_workload(workloads, tmp_path):
    for name, workload_cls in workloads.WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        workload = workload_cls(1, workdir)
        workload.begin_cycle()
        for op in workload.ops():
            assert workload.check(op, workload.run(op)), (name, op)
        assert workload.end_cycle(), name
