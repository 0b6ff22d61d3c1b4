"""Tier-1 is a gate, so it must give the same verdict on the same tree:
every Hypothesis test draws a fixed example sequence (``derandomize``)
and none is failed by a slow box (``deadline=None``).  Known regressions
are carried by explicit ``@example``\\ s, not by luck of the draw.

CI jobs that run only Hypothesis-free test files do not install it.

``--update-fidelity`` rewrites the fidelity-ledger cases a run produces
instead of checking them (``tests/fidelity.py``).
"""

from .fidelity import LEDGER

try:
    from hypothesis import settings
except ImportError:
    pass
else:
    settings.register_profile("tier1", derandomize=True, deadline=None)
    settings.load_profile("tier1")


def pytest_addoption(parser):
    parser.addoption("--update-fidelity", action="store_true",
                     help="rewrite the tests/data/fidelity.json cases this "
                          "run produces instead of checking them")


def pytest_configure(config):
    LEDGER.update = config.getoption("update_fidelity")


def pytest_sessionfinish():
    if LEDGER.update:
        LEDGER.save()
