"""Acceptance gate: the twelve verification criteria, one test each.

Each test runs the corresponding suite entry from ``v2lam.checks`` with the
default parameters (the same path the ``v2lam check`` command uses), prints
its one-line verdict, and enforces both the mathematical assertion and the
wall-clock budget.
"""
from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import pytest

from v2lam import checks, dynamics
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
    10: 10.0,  # parameter raster membership
    11: 10.0,  # parameter rays
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


@pytest.fixture(scope="module")
def sixth_leaves():
    """The measured leaves that check 12 judges with the default parameters."""
    ray = dynamics.trace_parameter_ray(Fraction(1, 6), s_from=8.0, s_to=0.5, steps=120)
    return dynamics.ray_leaf_endpoints(ray.points[-1][1], PARAMS.leaf_depth,
                                       theta0=Fraction(1, 6))


def _two_on_one(leaves):
    # leaves 1 and 2 are the two depth-1 leaves
    leaves[2] = replace(leaves[2], leg1=leaves[1].leg1, leg2=leaves[1].leg2)


def _no_interval(leaves):
    leaves[3] = replace(leaves[3], leg2=None)


def _shifted(leaves):
    num, bits = leaves[5].leg1
    leaves[5] = replace(leaves[5], leg1=(num + 1, bits))


def _no_first_interval(leaves):
    leaves[4] = replace(leaves[4], leg1=None)


def _whole_circle(leaves):
    # both legs span the circle: the leaf lands on all four depth-2 inside chords
    leaves[3] = replace(leaves[3], leg1=(0, 0), leg2=(0, 0))


@pytest.mark.parametrize("spoil, detail", [
    (None, None),
    (_two_on_one, "two leaves land on one model leaf at depth 1"),
    (_no_interval, "leaf at depth 2 lands on 0 model leaves"),
    (_shifted, "leaf at depth 2 lands on 0 model leaves"),
    (_no_first_interval, "leaf at depth 2 lands on 0 model leaves"),
    (_whole_circle, "leaf at depth 2 lands on 4 model leaves"),
], ids=["as-measured", "two-on-one", "no-interval", "shifted-one-step", "no-first-interval",
        "whole-circle"])
def test_ray_leaf_check_fails_when_a_leaf_misses_its_model_leaf(monkeypatch, sixth_leaves,
                                                                spoil, detail):
    leaves = list(sixth_leaves)
    if spoil is not None:
        spoil(leaves)
    monkeypatch.setattr(dynamics, "ray_leaf_endpoints", lambda a, depth, theta0: leaves)
    result = run_check(12, PARAMS)
    assert result.ok == (detail is None)
    if detail is not None:
        assert result.detail == detail
