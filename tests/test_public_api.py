"""Sanity checks on the public API surface."""

import importlib

import pytest

import repro

SUBPACKAGES = ["repro.core", "repro.flash", "repro.sram", "repro.cleaning",
               "repro.sim", "repro.workloads", "repro.db", "repro.ext",
               "repro.ramdisk", "repro.analysis", "repro.service"]


def test_top_level_all_resolves():
    for name in repro.__all__:
        assert hasattr(repro, name), name


@pytest.mark.parametrize("package", SUBPACKAGES)
def test_subpackage_all_resolves(package):
    module = importlib.import_module(package)
    assert module.__doc__, f"{package} needs a docstring"
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{package}.{name}"


def test_version():
    assert repro.__version__


def test_key_entry_points_are_top_level():
    for name in ("EnvySystem", "EnvyConfig", "simulate_tpca",
                 "measure_cleaning_cost", "TpcaDatabase", "BlockDevice"):
        assert name in repro.__all__, name


def _repro_modules():
    import pkgutil

    return sorted(info.name for info in pkgutil.walk_packages(
        repro.__path__, prefix="repro."))


@pytest.mark.parametrize("module_name", _repro_modules())
def test_every_module_all_resolves(module_name):
    """``from <module> import *`` must not raise: every name a module
    lists in ``__all__`` exists (``repro.core.recovery`` once listed a
    ``JournalledStore`` that did not)."""
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", [])
               if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ lists {missing}"
