"""Exact-angle arithmetic: digits, nu, x0/y0 correspondences, orbit types."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from v2lam.angles import (
    HALF,
    DigitStream,
    DomainError,
    _x0_digit_pair,
    angle,
    circle_distance,
    binary_digit,
    digit_stream,
    double,
    doubling_orbit,
    nu,
    nu_stream,
    orbit_type,
    x0_digit_stream,
    x0_digits,
    x0_series,
    y0_from_theta,
)


@given(u=st.fractions(), v=st.fractions())
def test_circle_distance_on_fractions(u, v):
    # the exact form it replaced in the checks: reduce u - v into [0, 1) first
    d = angle(u - v)
    got = circle_distance(u, v)
    assert isinstance(got, F)
    assert got == min(d, 1 - d) == circle_distance(v, u)
    assert 0 <= got <= HALF


@given(u=st.floats(-1e6, 1e6), v=st.floats(-1e6, 1e6))
def test_circle_distance_on_floats(u, v):
    # the float form it replaced in the ray leaves, bit for bit
    d = abs(u - v) % 1.0
    assert repr(circle_distance(u, v)) == repr(min(d, 1.0 - d))


def test_double():
    assert double(F(1, 3)) == F(2, 3)
    assert double(F(3, 4)) == F(1, 2)
    assert double(F(0)) == F(0)


def test_binary_digit():
    assert binary_digit(F(1, 2), 1) == 1
    # 1/6 = 0.0(01)_2 via long division
    assert binary_digit(F(1, 6), 3) == 1
    assert [binary_digit(F(1, 3), m) for m in (1, 2)] == [0, 1]


def test_digit_stream_examples():
    assert str(digit_stream(F(1, 6))) == "0(01)"
    assert str(digit_stream(F(0))) == "(0)"
    assert str(digit_stream(F(1, 4))) == "01(0)"


def test_digit_stream_roundtrip_and_agreement():
    rng = random.Random(7)
    for _ in range(60):
        q = rng.randrange(2, 3000)
        p = rng.randrange(0, q)
        t = angle(F(p, q))
        s = digit_stream(t)
        assert s.to_fraction() == t
        for m in range(1, 65):
            assert binary_digit(t, m) == s.digit(m)
        # angle expansions never end in all-ones
        assert set(s.period) != {1}


def test_digit_stream_canonical_minimal():
    # canonicalization folds representational slack
    assert DigitStream.make([0, 0, 1], [0, 1, 1, 1]) == DigitStream.make([0, 0], [1, 0, 1, 1])
    assert DigitStream.make([], [0, 1, 0, 1]) == DigitStream.make([], [0, 1])
    assert DigitStream.make([1, 0], [0, 0]) == DigitStream.make([1], [0])


def test_digit_stream_parse():
    assert DigitStream.parse("0(01)") == digit_stream(F(1, 6))
    with pytest.raises(DomainError):
        DigitStream.parse("01")


def test_nu():
    assert nu(F(3, 7), 0) == 1 and nu(F(0), 0) == 1
    assert nu(F(3, 5), 1) == 0  # frac(6/5) = 1/5 < 3/5
    assert all(nu(F(1, 6), m) == 1 for m in range(1, 12))  # orbit {1/3,2/3} >= 1/6


def test_nu_stream_eventually_periodic():
    for t in (F(1, 6), F(5, 12), F(3, 10), F(7, 20)):
        s = nu_stream(t)
        o = orbit_type(t)
        assert len(s.period) in _divisors(o.period)
        for m in range(1, 40):
            assert s.digit(m) == nu(t, m)


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def test_x0_series_enclosure():
    lo, hi = x0_series(F(1, 2), 30)
    assert hi - lo == F(1, 2**31)
    assert lo <= F(1, 4) <= hi  # closed form x0(1/2) = 1/4
    lo, hi = x0_series(F(1, 6), 30)
    assert lo <= F(11, 60) <= hi


def test_x0_digits_exact_values():
    assert x0_digits(F(1, 2)) == F(1, 4)
    assert x0_digits(F(1, 6)) == F(11, 60)
    # digits of x0(1/6): 0,0,1,0 then repeating 1,1,1,0
    s = x0_digit_stream(F(1, 6))
    assert s.prefix(12) == [0, 0, 1, 0, 1, 1, 1, 0, 1, 1, 1, 0]


def test_x0_digits_structure():
    rng = random.Random(11)
    for _ in range(40):
        t = _random_nonperiodic(rng, 2**12)
        s = x0_digit_stream(t)
        assert s.digit(1) == 0
        th = digit_stream(t)
        for m in range(1, 20):
            assert s.digit(2 * m) == th.digit(m)
            assert s.digit(2 * m + 1) == nu(t, m)
        x = x0_digits(t)
        assert F(0) < x < F(1, 2)
        lo, hi = x0_series(t, 40)
        assert lo <= x <= hi


def test_x0_digit_pair_matches_reduced_value_and_stream_oracle():
    # criterion 01 compares the unreduced pair against the series bounds
    # without reducing it, so the pair must equal the public value exactly
    rng = random.Random(5)
    for _ in range(60):
        t = _random_nonperiodic(rng, 2**12)
        num, den = _x0_digit_pair(t)
        assert F(num, den) == x0_digits(t) == x0_digit_stream(t).to_fraction()


def test_x0_rejects_periodic():
    with pytest.raises(DomainError):
        x0_digits(F(1, 3))
    with pytest.raises(DomainError):
        x0_digits(F(0))


def test_y0_values():
    assert y0_from_theta(F(0)) == F(1, 3)
    assert y0_from_theta(F(1, 2)) == F(7, 12)
    assert y0_from_theta(F(1, 6)) == F(7, 20)


def test_orbit_type():
    o = orbit_type(F(1, 3))
    assert (o.tag, o.preperiod, o.period) == ("periodic", 0, 2)
    o = orbit_type(F(1, 6))
    assert (o.tag, o.preperiod, o.period) == ("preperiodic", 1, 2)
    assert orbit_type(F(3, 8)).tag == "dyadic"


def test_orbit_type_matches_dynamics():
    rng = random.Random(3)
    for _ in range(40):
        q = rng.randrange(2, 500)
        t = angle(F(rng.randrange(0, q), q))
        o = orbit_type(t)
        pre, cyc = doubling_orbit(t)
        assert len(pre) == o.preperiod
        assert len(cyc) == o.period
        # applying double q times fixes t iff the period divides q (periodic case)
        if o.tag == "periodic":
            u = t
            for _ in range(o.period):
                u = double(u)
            assert u == t


def _random_nonperiodic(rng, qmax):
    while True:
        a = rng.randrange(1, 13)
        m = rng.randrange(1, max(2, qmax >> a), 2)
        q = (1 << a) * m
        if q > qmax:
            continue
        p = rng.randrange(1, q)
        t = F(p, q)
        if t.denominator % 2 == 0:
            return t
