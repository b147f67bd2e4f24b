"""Exact-angle arithmetic: digits, nu, x0/y0 correspondences, orbit types."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from v2lam.angles import (
    HALF,
    DigitStream,
    DomainError,
    _TABLE_FROM,
    _cumulative_pair,
    _interleaved_bit_ints,
    _interleaved_by_loop,
    _interleaved_by_table,
    _order_of_two,
    angle,
    circle_distance,
    digit_stream,
    double,
    nu,
    orbit_type,
    x0_digit_stream,
    x0_digits,
    x0_series,
    y0_from_theta,
)
from v2lam.symbolic import critical_address

import exact_oracles
import stream_oracles as oracle
from stream_oracles import TupleStream, nu_stream


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


def test_angle_returns_a_normalised_fraction_unchanged():
    for f in (F(0), F(5, 12), F(1, 2), F(999, 1000)):
        assert angle(f) is f
    f = F(17, 12)
    assert angle(f) == F(5, 12) and angle(f) is not f


def test_angle_parses_and_normalises_as_before():
    cases = [("5/12", F(5, 12)), ("0.25", F(1, 4)), (" 17/12 ", F(5, 12)), ("-1/3", F(2, 3)),
             (3, F(0)), (-7, F(0)), (F(-1, 3), F(2, 3)), (F(-7, 4), F(1, 4)), (F(3), F(0)),
             (True, F(0)), (0.75, F(3, 4)), (-0.25, F(3, 4))]
    for value, want in cases:
        got = angle(value)
        assert type(got) is F and got == want
        assert got == F(value) - (F(value).numerator // F(value).denominator)


@given(f=st.fractions())
def test_angle_of_a_fraction_lies_in_the_unit_interval(f):
    got = angle(f)
    assert 0 <= got < 1 and (f - got).denominator == 1
    assert angle(got) is got


def test_double():
    assert double(F(1, 3)) == F(2, 3)
    assert double(F(3, 4)) == F(1, 2)
    assert double(F(0)) == F(0)


@given(f=st.fractions(), k=st.integers(min_value=0, max_value=200))
def test_k_step_doubling_matches_the_power_of_two(f, k):
    # oracle: 2^k t mod 1 with the power 2^k built in full
    assert double(f, k) == (F(2) ** k * f) % 1
    assert nu(f, k) == (1 if (F(2) ** k * angle(f)) % 1 >= angle(f) else 0)


def test_binary_digit():
    assert oracle.binary_digit(F(1, 2), 1) == 1
    # 1/6 = 0.0(01)_2 via long division
    assert oracle.binary_digit(F(1, 6), 3) == 1
    assert [oracle.binary_digit(F(1, 3), m) for m in (1, 2)] == [0, 1]


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
            assert oracle.binary_digit(t, m) == s.digit(m)
        # angle expansions never end in all-ones
        assert set(TupleStream.of(s).period) != {1}
        assert TupleStream.of(s) == oracle.digit_stream(t)


@settings(max_examples=200)
@given(t=st.fractions(0, 1, max_denominator=1 << 14).map(lambda f: f % 1))
def test_digit_stream_period_is_the_order_of_two_of_the_long_division(t):
    # the period comes from the order of 2, not from walking the remainders
    assert TupleStream.of(digit_stream(t)) == oracle.digit_stream(t)


def test_digit_stream_canonical_minimal():
    # canonicalization folds representational slack
    assert DigitStream.parse("001(0111)") == DigitStream.parse("00(1011)")
    assert DigitStream.parse("(0101)") == DigitStream.parse("(01)")
    assert DigitStream.parse("10(00)") == DigitStream.parse("1(0)")


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
        num, den = _cumulative_pair(t, t)
        assert F(num, den) == x0_digits(t) == x0_digit_stream(t).to_fraction()
        assert TupleStream.of(x0_digit_stream(t)) == oracle.x0_digit_stream(t)


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
        pre, cyc = exact_oracles.doubling_orbit(t)
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


# ---------------------------------------------------------------------------
# packed streams against the tuple oracles

bit_lists = st.lists(st.integers(0, 1), max_size=10)
periods = st.tuples(st.lists(st.integers(0, 1), min_size=1, max_size=6),
                    st.integers(1, 3)).map(lambda pr: pr[0] * pr[1])


@given(pre=bit_lists, per=periods)
def test_stream_print_parse_round_trip(pre, per):
    s = TupleStream.make(pre, per).packed()
    assert str(s) == str(TupleStream.make(pre, per))
    assert DigitStream.parse(str(s)) == s
    assert DigitStream.parse(str(TupleStream(tuple(pre), tuple(per)))) == s


@given(pre=bit_lists, per=periods, k=st.integers(0, 25), word=bit_lists)
def test_stream_operations_match_tuple_oracle(pre, per, k, word):
    o = TupleStream.make(pre, per)
    s = o.packed()
    assert TupleStream.of(s) == o
    assert TupleStream(tuple(pre), tuple(per)).packed().canonical() == s
    assert s.canonical() == s
    assert [s.digit(m) for m in range(1, 30)] == [o.digit(m) for m in range(1, 30)]
    assert s.prefix(k) == o.prefix(k)
    assert TupleStream.of(s.shifted(k)) == o.shifted(k)
    assert s.shifted(k).canonical() == s.shifted(k)
    assert s.to_fraction() == o.to_fraction()
    packed_word = int("".join(map(str, word)) or "0", 2)
    assert TupleStream.of(s.prepended(packed_word, len(word))) == TupleStream.make(word + pre, per)


def test_stream_rejects_bad_bits():
    with pytest.raises(DomainError):
        DigitStream.parse("02(1)")
    with pytest.raises(DomainError):
        DigitStream.parse("01()")
    with pytest.raises(DomainError):
        DigitStream.parse("0(012)")


@st.composite
def even_angles(draw, max_den=1 << 24):
    """n/den with even den <= max_den whose odd part has a short period:
    any odd part below 2^12, or a Mersenne number 2^k - 1 (period k)."""
    bits = max_den.bit_length() - 2
    m = draw(st.one_of(st.integers(0, (1 << min(bits, 11)) - 1).map(lambda i: 2 * i + 1),
                       st.integers(1, bits).map(lambda k: (1 << k) - 1)))
    den = m << draw(st.integers(1, (max_den // m).bit_length() - 1))
    return F(2 * draw(st.integers(0, den // 2 - 1)) + 1, den)


@settings(max_examples=60)
@given(t=even_angles())
def test_x0_fast_paths_agree_with_interleave_oracle(t):
    num, den = _cumulative_pair(t, t)
    stream = x0_digit_stream(t)
    x0 = oracle.x0_digit_stream(t)
    assert x0_digits(t) == F(num, den) == stream.to_fraction() == x0.to_fraction()
    assert TupleStream.of(stream) == x0


@settings(max_examples=200)
@given(t=even_angles(), M=st.integers(1, 64))
def test_x0_series_matches_the_fraction_sum(t, M):
    assert x0_series(t, M) == exact_oracles.x0_series(t, M)


@settings(max_examples=60)
@given(t=even_angles(1 << 16))
def test_digit_stream_orbit_type_and_y0_match_long_division(t):
    s, o = digit_stream(t), oracle.digit_stream(t)
    assert TupleStream.of(s) == o
    ot = orbit_type(t)
    assert (ot.preperiod, ot.period) == (len(o.pre), len(o.period))
    m = len(o.pre) + len(o.period)
    y0 = F(1, 3) + sum(F(o.digit(j), 4 ** j) for j in range(1, m + 1))
    y0 += sum(F(o.digit(j), 4 ** j) for j in range(len(o.pre) + 1, m + 1)) / (4 ** len(o.period) - 1)
    assert y0_from_theta(t) == y0


# ---------------------------------------------------------------------------
# doubling periods beyond trial division

def _walked_order(m):
    k, v = 1, 2 % m
    while v != 1 % m:  # modulo 1 every power is 1, so the order is 1
        k, v = k + 1, 2 * v % m
    return k


def test_order_of_two_matches_the_orbit_walk():
    rng = random.Random(17)
    for m in [3, 5, 7, 9, 21, 1023, 2047, 3 ** 7] + [rng.randrange(3, 1 << 16, 2) for _ in range(40)]:
        assert _order_of_two(m) == _walked_order(m), m
    # 2^k - 1 ends the walk within its bit length; from 2^40 on the walk
    # runs to the end
    assert _order_of_two((1 << 39) - 1) == 39
    assert _order_of_two((1 << 41) - 1) == 41
    assert _order_of_two((1 << 61) - 1) == 61
    assert _order_of_two(((1 << 61) - 1) * ((1 << 89) - 1)) == 61 * 89
    assert _order_of_two(3 * 5 * ((1 << 61) - 1)) == math.lcm(2, 4, 61)


# products of 2^a - 1 and 2^b - 1 with gcd(a, b) = 1, which are coprime,
# so the order of 2 is lcm(a, b)
mersenne_pairs = st.tuples(st.integers(1, 40), st.integers(1, 40)).filter(
    lambda p: math.gcd(*p) == 1).map(lambda p: ((1 << p[0]) - 1) * ((1 << p[1]) - 1))


@settings(max_examples=200)
@given(m=st.one_of(st.integers(0, 1 << 14).map(lambda i: 2 * i + 1),
                   st.tuples(mersenne_pairs, st.integers(0, 1 << 8)).map(
                       lambda p: p[0] * (2 * p[1] + 1))))
def test_order_of_two_matches_the_plain_walk(m):
    # short orders end the bit-length walk, longer ones below 2^40 are
    # factored, and from 2^40 on the walk runs to the end
    assert _order_of_two(m) == _walked_order(m)


@st.composite
def table_angles(draw, nonperiodic=True):
    """num/den, den < 2^31, with an orbit n = e + L on either side of the
    crossover: an odd part below 2^12, or a Mersenne pair below 2^30, up to
    den = 2^31 - 2 (2^30 - 1, order 30).  A nonperiodic draw has an even
    den and an odd num; any other draw any num over any such den."""
    m = draw(st.one_of(st.integers(0, (1 << 11) - 1).map(lambda i: 2 * i + 1),
                       mersenne_pairs.filter(lambda m: m < 1 << 30)))
    den = m << draw(st.integers(int(nonperiodic), (((1 << 31) - 1) // m).bit_length() - 1))
    if not nonperiodic:
        return F(draw(st.integers(0, den - 1)), den)
    return F(2 * draw(st.integers(0, den // 2 - 1)) + 1, den)


@settings(max_examples=200)
@given(t=table_angles(nonperiodic=False), theta0=exact_oracles.even_generators() | table_angles())
@example(t=F(5, 2 * 71), theta0=F(5, 2 * 71))  # 71 has order 35: n = 36, the loop
@example(t=F(7, 2 * 283), theta0=F(7, 2 * 283))  # 283 has order 94: n = 95, the table
@example(t=F(1, (1 << 31) - 2), theta0=F(1, (1 << 31) - 2))  # order 30 just below 2^31: the loop
# order 221 near 2^31: the table
@example(t=F(3, 2 * ((1 << 13) - 1) * ((1 << 17) - 1)),
         theta0=F(3, 2 * ((1 << 13) - 1) * ((1 << 17) - 1)))
@example(t=F(5, 283), theta0=F(1, 6))  # a periodic t, order 94: the table
@example(t=F(0), theta0=F(5, 12))
def test_x0_kernel_loop_and_table_agree_on_both_sides_of_the_crossover(t, theta0):
    num, den = t.numerator, t.denominator
    e = (den & -den).bit_length() - 1
    L = _order_of_two(den >> e)
    T = theta0.numerator * den // theta0.denominator
    assert den < 1 << 31
    loop = _interleaved_by_loop(num, den, T, e, L)
    assert loop == _interleaved_by_table(num, den, T, e, L) == _interleaved_bit_ints(t, theta0)
    assert loop[1] == e and loop[3] == L


def test_x0_kernel_examples_lie_on_both_sides_of_the_crossover():
    def n(t):
        return sum(_interleaved_bit_ints(t, t)[1::2])

    loop = [F(5, 2 * 71), F(1, (1 << 31) - 2)]
    table = [F(7, 2 * 283), F(3, 2 * ((1 << 13) - 1) * ((1 << 17) - 1))]
    assert max(map(n, loop)) < _TABLE_FROM <= min(map(n, table))


def test_x0_and_critical_address_at_a_61_bit_mersenne_denominator():
    # 2^61 - 1 is prime: trial division up to its square root never ends
    t = F(1, 2 * ((1 << 61) - 1))
    num, den = _cumulative_pair(t, t)
    x0 = oracle.x0_digit_stream(t)
    assert x0_digits(t) == F(num, den) == x0.to_fraction()
    assert TupleStream.of(x0_digit_stream(t)) == x0
    assert str(x0_digit_stream(t)) == "00(" + "10" * 60 + "11)"
    eps = oracle.epsilon_star(t)
    assert [TupleStream.of(a.body) for a in critical_address(t)] == [eps, eps]
    assert str(critical_address(t)[0]) == "0|0(" + "0" * 121 + "1)"
