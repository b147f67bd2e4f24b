"""Acceptance gate: the twelve verification criteria, one test each.

Each test runs the corresponding suite entry from ``v2lam.checks`` with the
default parameters (the same path the ``v2lam check`` command uses), prints
its one-line verdict, and enforces both the mathematical assertion and the
wall-clock budget.
"""
from __future__ import annotations

import pytest

from v2lam import checks
from v2lam.angles import NumericError
from v2lam.checks import CRITERIA, CheckParams, run_check

BUDGET_SECONDS = {
    1: 5.0,   # digit-series agreement, 200 random angles
    2: 5.0,   # blow-up arc endpoints
    3: 1.0,   # truncated measure mass
    4: 10.0,  # same-side crossing scan
    5: 5.0,   # two-sided invariance
    6: 5.0,   # construction equivalence
    7: 5.0,   # leaf/address matching
    8: 1.0,   # regulated-ray algebra
    9: 5.0,   # fixed points, Green, escape coordinate
    10: 60.0,  # parameter raster membership
    11: 60.0,  # parameter rays
    12: 10.0,  # ray leaves vs. lamination
}

PARAMS = CheckParams()

_IDS = ["%02d-%s" % (num, name) for num, name, _, _ in CRITERIA]


@pytest.mark.parametrize("number", [num for num, _, _, _ in CRITERIA], ids=_IDS)
def test_criterion(number):
    result = run_check(number, PARAMS)
    print(result.line())
    assert result.ok, "criterion %02d %s failed: %s" % (
        result.number, result.name, result.detail)
    budget = BUDGET_SECONDS[number]
    assert result.seconds < budget, (
        "criterion %02d took %.2fs, budget %.0fs"
        % (result.number, result.seconds, budget))


def test_a_numeric_failure_is_a_failed_check(monkeypatch):
    # run_check never raises: an engine failure becomes a failed result
    def body(params):
        raise NumericError("no convergence")

    monkeypatch.setattr(checks, "CRITERIA", tuple(
        (num, name, group, body if num == 9 else fn) for num, name, group, fn in CRITERIA))
    result = run_check(9, PARAMS)
    assert not result.ok and result.detail == "NumericError: no convergence"
