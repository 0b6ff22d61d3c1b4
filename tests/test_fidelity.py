"""The ledger's checker names exactly what moved (``tests/fidelity.py``)."""

import copy

import pytest

from .fidelity import LEDGER, Ledger


def planted(case):
    """A row: ``case`` produced as the ledger holds it, against a ledger
    whose last leaf of ``case`` changed — one problem, naming that leaf."""
    cases = dict(LEDGER.cases)
    node = cases[case] = copy.deepcopy(cases[case])
    path = case
    while isinstance(node, (dict, list)) and node:
        key = max(node) if isinstance(node, dict) else len(node) - 1
        path += f".{key}" if isinstance(node, dict) else f"[{key}]"
        parent, node = node, node[key]
    parent[key] = "planted"
    return (cases, False, [(case, LEDGER.cases[case])],
            [f"{path}: produced {node!r} != ledger 'planted'"], None)


RUN, REPLAY = "tpca_run/mmu2", "executor_replay/plain"
OLD, NEW = {"sha256": "old"}, {"sha256": "new"}
#: id -> (ledger, update mode, (case, block)s produced, the problems
#: reported, the ledger an update writes); the first case of every owner
#: is planted.
ROWS = {f"planted-{case.split('/')[0]}": planted(case) for case in sorted(
    {case.split("/")[0]: case
     for case in sorted(LEDGER.cases, reverse=True)}.values())}
ROWS.update({
    "stale-key": ({RUN: dict(OLD, erases=3)}, False, [(RUN, OLD)],
                  [f"{RUN}.erases: in the ledger, not produced"], None),
    "missing-key": ({RUN: OLD}, False, [(RUN, dict(OLD, erases=3))],
                    [f"{RUN}.erases: produced, not in the ledger"], None),
    "missing-case": ({}, False, [(RUN, OLD)],
                     [f"{RUN}: produced, not in the ledger"], None),
    # test_pinned and test_pinned_with_a_recorder_subscribed make RUN;
    # test_result_matches_parent_commit and every feed split make REPLAY.
    "producers-disagree": ({RUN: OLD}, False, [(RUN, OLD), (RUN, NEW)], [
        f"{RUN}.sha256: produced 'new' != other producer 'old'",
        f"{RUN}.sha256: produced 'new' != ledger 'old'"], None),
    "producers-disagree-on-update": (
        {REPLAY: OLD}, True, [(REPLAY, NEW), (REPLAY, OLD)],
        [f"{REPLAY}.sha256: produced 'old' != other producer 'new'"],
        {REPLAY: NEW}),
    "partial-update": ({RUN: OLD, REPLAY: OLD}, True, [(REPLAY, NEW)], [],
                       {RUN: OLD, REPLAY: NEW}),
})


@pytest.mark.parametrize("cases, update, made, problems, rewritten",
                         list(ROWS.values()), ids=list(ROWS))
def test_checker_names_exactly_what_moved(cases, update, made, problems,
                                          rewritten):
    ledger = Ledger(cases, update)
    assert [line for case, block in made
            for line in ledger.problems(case, block)] == problems
    assert rewritten is None or ledger.rewritten() == rewritten
