"""The package's lazy surface: every export resolves on first access.

``bdlimits/__init__`` imports no module up front; each exported name is
looked up in its module when it is first read. These tests hold that the
names, ``dir``, ``from bdlimits import *`` and the command line's detector
choices still match the modules that define them.
"""

import importlib
import importlib.util

import click
import pytest

import bdlimits as bd
from bdlimits import cli, harness


def test_every_export_is_its_module_object():
    for module, names in bd._EXPORTS.items():
        home = importlib.import_module(f"bdlimits.{module}")
        for name in names:
            assert getattr(bd, name) is getattr(home, name), name


def test_exports_are_all_and_unique():
    names = [name for names in bd._EXPORTS.values() for name in names]
    assert len(names) == len(set(names))
    assert bd.__all__ == names


def test_dir_lists_every_export_before_any_is_read():
    # a fresh copy of the package module, none of whose exports is bound yet
    spec = importlib.util.spec_from_file_location("bdlimits", bd.__file__)
    fresh = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fresh)
    assert not set(vars(fresh)) & set(fresh.__all__)
    listed = dir(fresh)
    assert set(fresh.__all__) <= set(listed)
    assert "__version__" in listed


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from bdlimits import *", namespace)
    for name in bd.__all__:
        assert namespace[name] is getattr(bd, name), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'bdlimits' has no attribute 'no_such_name'$"):
        bd.no_such_name
    assert not hasattr(bd, "no_such_name")
    with pytest.raises(ImportError):
        exec("from bdlimits import no_such_name", {})


def test_risk_detector_choices_are_the_harness_detectors():
    (option,) = [p for p in cli.main.commands["risk"].params if p.name == "detector_name"]
    assert isinstance(option.type, click.Choice)
    assert list(option.type.choices) == sorted(harness.DETECTORS)
