"""The fidelity ledger: every pinned simulated output, in one file.

``tests/data/fidelity.json`` maps ``owner/case`` to ``{key: value}``;
every owner compares through :meth:`Ledger.check`, and
``pytest --update-fidelity`` rewrites the cases a run produced (DESIGN.md
"Fidelity ledger").  The one anchor outside it is the ``fidelity_digest``
of each workload in ``benchmarks/e2e/baseline.json``, which only a
benchmark change may edit.
"""

import json
from pathlib import Path

PATH = Path(__file__).parent / "data" / "fidelity.json"


def mismatch(produced, expected, path="fidelity", against="ledger"):
    """Every dotted key at which ``produced`` differs from ``expected``
    (a moved value, or a key only one side has); ``[]`` iff equal."""
    if isinstance(produced, dict) and isinstance(expected, dict):
        found = [f"{path}.{key}: in the {against}, not produced"
                 for key in expected.keys() - produced.keys()]
        found += [f"{path}.{key}: produced, not in the {against}"
                  for key in produced.keys() - expected.keys()]
        for key in expected.keys() & produced.keys():
            found += mismatch(produced[key], expected[key], f"{path}.{key}",
                              against)
        return sorted(found)
    if (isinstance(produced, list) and isinstance(expected, list)
            and len(produced) == len(expected)):
        return [line for index, pair in enumerate(zip(produced, expected))
                for line in mismatch(*pair, f"{path}[{index}]", against)]
    if produced == expected:
        return []
    return [f"{path}: produced {produced!r} != {against} {expected!r}"]


class Ledger:
    """``{owner/case: {key: value}}``, checked or rewritten case by case.

    In update mode a produced case replaces the ledger's instead of being
    compared with it; two producers of one case must agree either way.
    """

    def __init__(self, cases, update=False):
        self.cases = cases
        self.update = update
        self.produced = {}

    def problems(self, case, block):
        block = json.loads(json.dumps(block))    # as the file holds it
        found = mismatch(block, self.produced.setdefault(case, block), case,
                         "other producer")
        if self.update:
            return found
        if case not in self.cases:
            return found + [f"{case}: produced, not in the ledger"]
        return found + mismatch(block, self.cases[case], case)

    def check(self, case, block):
        found = self.problems(case, block)
        assert not found, "\n".join(found)

    def rewritten(self):
        return {**self.cases, **self.produced}

    def save(self):
        """Sorted keys, one leaf per line: one diff line per moved leaf."""
        PATH.write_text(json.dumps(self.rewritten(), indent=1,
                                   sort_keys=True) + "\n")


LEDGER = Ledger(json.loads(PATH.read_text()))
