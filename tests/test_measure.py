import random
from fractions import Fraction as Fr

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import exact_oracles as oracle
from v2lam.angles import DomainError, double, x0_digits, x0_series
from v2lam.measure import (
    Arc,
    _interval_gap,
    cumulative,
    h_arc,
    h_point,
    mu_weight,
    preimages_of_angle,
    semiconjugacy_check,
    sigma0_arc,
    sigma_lengths_periodic,
    truncation_width,
)


def _random_nonperiodic(rng, qmax=3000):
    while True:
        q = rng.randrange(2, qmax)
        p = rng.randrange(1, q)
        t = Fr(p, q)
        if t.denominator % 2 == 0 and (t.denominator & (t.denominator - 1)) != 0:
            return t


def test_preimages():
    assert preimages_of_angle(Fr(1, 2), 0) == [Fr(1, 2)]
    assert preimages_of_angle(Fr(1, 2), 1) == [Fr(1, 4), Fr(3, 4)]
    assert preimages_of_angle(Fr(1, 6), 2) == [Fr(1, 24), Fr(7, 24), Fr(13, 24), Fr(19, 24)]


def test_mu_weight_examples():
    assert mu_weight(Fr(1, 12), Fr(1, 6)) == Fr(1, 8)
    assert mu_weight(Fr(1, 6), Fr(1, 6)) == Fr(1, 2)
    assert mu_weight(Fr(1, 3), Fr(1, 6)) == 0
    assert mu_weight(0, 0) == Fr(2, 3)          # closed-form geometric series
    assert mu_weight(Fr(1, 2), 0) == Fr(2, 3) / 4
    assert mu_weight(Fr(1, 12), Fr(1, 6), M=0) == 0
    assert mu_weight(Fr(1, 12), Fr(1, 6), M=1) == Fr(1, 8)
    assert mu_weight(Fr(3, 7), Fr(1, 7)) == 0   # the other cycle over the denominator 7


@st.composite
def weight_cases(draw):
    """(z, theta0, M): theta0 periodic or not, z one of its depth-n preimages,
    one of its images (the cycle points of a periodic theta0) or arbitrary."""
    odd = 2 * draw(st.integers(0, 199)) + 1
    t0 = draw(oracle.even_generators() | st.integers(0, odd - 1).map(lambda k: Fr(k, odd)))
    n = draw(st.integers(0, 12))
    z = draw(st.integers(0, (1 << n) - 1).map(lambda k: (t0 + k) / (1 << n))
             | st.integers(0, 12).map(lambda j: double(t0, j))
             | st.fractions(min_value=-2, max_value=2, max_denominator=1000))
    return z, t0, draw(st.none() | st.integers(0, 12))


@settings(max_examples=400)
@given(case=weight_cases())
def test_mu_weight_matches_the_orbit_walk(case):
    z, t0, M = case
    assert mu_weight(z, t0, M) == oracle.mu_weight(z, t0, M)


def test_cumulative_exact_values():
    assert cumulative(Fr(1, 2), Fr(1, 2)) == Fr(1, 4)
    assert cumulative(Fr(1, 2), Fr(1, 4)) == Fr(1, 16)
    assert cumulative(Fr(1, 2), Fr(3, 4)) == Fr(13, 16)
    assert cumulative(Fr(1, 2), 0) == 0
    for t0 in (Fr(1, 2), Fr(1, 6), Fr(5, 12), Fr(3, 10)):
        assert cumulative(t0, t0) == x0_digits(t0)
        # the series' lower end is the capped F at theta0
        for M in range(1, 41):
            assert x0_series(t0, M)[0] == cumulative(t0, t0, M)


def test_cumulative_truncation_sandwich_and_pairing():
    rng = random.Random(7)
    for _ in range(150):
        t0 = _random_nonperiodic(rng)
        t = Fr(rng.randrange(0, 997), 997)
        M = rng.randrange(0, 25)
        fm, fx = cumulative(t0, t, M), cumulative(t0, t)
        assert fm <= fx < fm + truncation_width(M)
        # exact pairing with doubling: 4 F(t) = F(2t) mod 1
        assert (4 * cumulative(t0, t) - cumulative(t0, (2 * t) % 1)) % 1 == 0
    # period 8052, where the Fraction oracle is too slow: non-atoms over the
    # odd part 8053 of 3/16106 take the numpy table, the capped side does not
    t0 = Fr(3, 16106)
    for t in (Fr(1, 8053), Fr(5000, 8053), Fr(7, 4 * 8053), Fr(12345, 32 * 8053)):
        fx = cumulative(t0, t)
        for M in (0, 12, 40):
            fm = cumulative(t0, t, M)
            assert fm <= fx < fm + truncation_width(M)
        assert (4 * fx - cumulative(t0, (2 * t) % 1)) % 1 == 0


def test_cumulative_rejects_periodic():
    with pytest.raises(DomainError):
        cumulative(Fr(1, 3), Fr(1, 5))
    with pytest.raises(DomainError):
        h_arc(Fr(1, 5), Fr(0))


def test_h_arc_examples():
    assert str(h_arc(Fr(1, 2), Fr(1, 2))) == "[1/4, 3/4)"
    assert str(h_arc(Fr(1, 4), Fr(1, 2))) == "[1/16, 3/16)"
    assert str(h_arc(Fr(3, 4), Fr(1, 2))) == "[13/16, 15/16)"
    # non-atom angles collapse to a point
    arc = h_arc(Fr(1, 3), Fr(1, 2))
    assert arc.length == 0
    # truncated endpoints lie within the truncation width below the exact ones
    arc = h_arc(Fr(1, 2), Fr(1, 2), M=30)
    assert truncation_width(30) == Fr(1, 2**31)
    x0 = x0_digits(Fr(1, 2))
    assert x0 - truncation_width(30) < arc.start <= x0


def test_sigma0_arc():
    arc = sigma0_arc(Fr(1, 6))
    assert (arc.start, arc.end) == (Fr(11, 60), Fr(41, 60))
    assert arc.length == Fr(1, 2)
    assert sigma0_arc(Fr(1, 2)).start == Fr(1, 4)
    assert arc.contains(Fr(1, 2)) and not arc.contains(Fr(0))


def test_sigma_lengths_periodic():
    assert sigma_lengths_periodic(1) == [Fr(2, 3)]
    assert sigma_lengths_periodic(2) == [Fr(2, 15), Fr(8, 15)]
    for p in range(1, 8):
        lens = sigma_lengths_periodic(p)
        assert sum(lens) == Fr(2, 3)
        assert all(lens[j + 1] == 4 * lens[j] for j in range(p - 1))


def test_atomic_measure_mass():
    am = oracle.AtomicMeasure(Fr(1, 2), 5)
    assert am.total_mass() == 1 - Fr(1, 64)
    assert am.listed_mass() == am.total_mass()
    # deep cap: listed atoms stop at list_cap but the exact mass identity holds
    am = oracle.AtomicMeasure(Fr(1, 6), 20, list_cap=8)
    assert am.total_mass() == 1 - Fr(1, 2**21)
    assert am.listed_mass() == 1 - Fr(1, 2**9)
    assert len(am.atoms) == 2**9 - 1


def test_atoms_are_disjoint_across_depths():
    rng = random.Random(3)
    for _ in range(20):
        t0 = _random_nonperiodic(rng, 500)
        am = oracle.AtomicMeasure(t0, 6)
        angles = [t for t, _ in am.atoms]
        assert len(angles) == len(set(angles))


def test_h_point_hits_atoms():
    lo, hi = h_point(Fr(1, 4), Fr(1, 2))
    assert lo <= Fr(1, 2) <= hi and hi - lo <= Fr(1, 2**48)
    lo, hi = h_point(Fr(1, 16), Fr(1, 2))
    assert lo <= Fr(1, 4) <= hi


def test_h_point_beyond_the_truncated_mass():
    # with a depth cap M the cumulative function stays below 1 - 2^-(M+1);
    # a point beyond it gets the last bisection cell
    assert h_point(Fr(31, 32), Fr(1, 2), M=3) == (1 - Fr(1, 2**48), Fr(1))


@settings(max_examples=60)
@given(t0=oracle.even_generators(), u=st.fractions(min_value=0, max_value=1, max_denominator=1000),
       M=st.none() | st.integers(0, 12), bits=st.integers(1, 48))
def test_h_point_matches_the_fraction_bisection(t0, u, M, bits):
    assert h_point(u, t0, M, bits) == oracle.h_point(u, t0, M, bits)


@pytest.mark.parametrize("a, b, gap", [
    ((Fr(0), Fr(1, 8)), (Fr(1, 2), Fr(5, 8)), Fr(3, 8)),
    ((Fr(0), Fr(1, 8)), (Fr(3, 16), Fr(1, 4)), Fr(1, 16)),
    ((Fr(0), Fr(1, 4)), (Fr(1, 2), Fr(1, 4)), Fr(0)),    # lengths add up to a full turn
    ((Fr(0), Fr(1, 4)), (Fr(1, 4), Fr(1, 2)), Fr(0)),     # the arcs touch
    ((Fr(0), Fr(1, 8)), (Fr(1, 16), Fr(1, 2)), Fr(0)),    # the arcs overlap
], ids=["apart", "near", "full-turn", "touching", "overlapping"])
def test_interval_gap(a, b, gap):
    assert _interval_gap(a, b) == gap == _interval_gap(b, a)


def test_semiconjugacy_defects():
    rng = random.Random(11)
    samples = [Fr(rng.randrange(1, 4096), 4096) for _ in range(32)]
    samples += [Fr(rng.randrange(1, 997), 997) for _ in range(16)]
    rep = semiconjugacy_check(Fr(1, 6), samples, 20)
    assert rep.max_defect <= Fr(1, 2**16)
    rep = semiconjugacy_check(Fr(1, 2), samples, None)
    assert rep.max_defect == 0
    assert rep.skipped  # some samples do land in the central arc


def test_arc_str():
    assert str(Arc(Fr(1, 16), Fr(3, 16))) == "[1/16, 3/16)"


@settings(max_examples=150)
@given(t0=oracle.even_generators(), t=st.fractions(min_value=-2, max_value=2, max_denominator=600),
       M=st.one_of(st.none(), st.integers(0, 40)))
@example(t0=Fr(5, 12), t=Fr(17, 24), M=None)  # a depth-1 atom: 2t = theta0 ties, c_1 = 0
@example(t0=Fr(1, 6), t=Fr(0), M=None)
@example(t0=Fr(3, 10), t=Fr(2, 7), M=None)  # periodic t
@example(t0=Fr(1, 6), t=Fr(1, 2 * 281), M=None)  # 281 has order 70: n = 71, the loop
@example(t0=Fr(1, 6), t=Fr(1, 2 * 228479), M=None)  # order 71: n = 72, the table
# order 221 and den >= 2^31: the loop
@example(t0=Fr(7, 20), t=Fr(3, 4 * ((1 << 13) - 1) * ((1 << 17) - 1)), M=None)
def test_cumulative_matches_fraction_oracle(t0, t, M):
    assert cumulative(t0, t, M) == oracle.cumulative(t0, t, M)


def test_cumulative_matches_fraction_oracle_on_every_cap():
    rng = random.Random(9)
    for _ in range(20):
        t0, t = _random_nonperiodic(rng, 200), Fr(rng.randrange(1000), 1000)
        for M in [None, *range(41)]:
            assert cumulative(t0, t, M) == oracle.cumulative(t0, t, M)
