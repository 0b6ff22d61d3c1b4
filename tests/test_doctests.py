"""Runs the doctests embedded in module docstrings and APIs."""

import doctest

import pytest

import repro.cleaning.cost
import repro.workloads.bimodal

MODULES = [
    repro.cleaning.cost,
    repro.workloads.bimodal,
]


@pytest.mark.parametrize("module", MODULES,
                         ids=[m.__name__ for m in MODULES])
def test_module_doctests(module):
    result = doctest.testmod(module, verbose=False)
    assert result.failed == 0, f"{result.failed} doctest failures"
    assert result.attempted > 0, "no doctests found; update MODULES"
