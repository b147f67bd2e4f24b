"""Tests for the binary-address model."""

import random
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from v2lam.angles import DigitStream, DomainError, angle, digit_stream, x0_digits
from v2lam.symbolic import (
    Address,
    Dyadic,
    RegulatedRaySymbol,
    addr_equivalent,
    address_to_angle,
    angle_to_address,
    cells_at_depth,
    critical_address,
    epsilon_star,
    leaf_addresses_match,
    regulated_ray_image,
    regulated_ray_preimage,
    shift,
)


def addr(pre, period):
    return Address(DigitStream.make(pre, period))


# ---------------------------------------------------------------------------
# Address basics


def test_address_print_parse_roundtrip():
    a = addr((1, 1, 1, 0), (1, 0))
    assert str(a) == "1|1(10)"
    assert Address.parse(str(a)) == a
    assert Address.parse("0|10(01)").prefix(6) == [0, 1, 0, 0, 1, 0]
    with pytest.raises(DomainError):
        Address.parse("10(01)")
    with pytest.raises(DomainError):
        Address.parse("2|0(1)")


def test_address_leading_body_shift():
    a = addr((0,), (1, 0))  # 0,1,0,1,0,...
    assert a.leading == 0
    assert a.body == DigitStream.make((), (1, 0))
    # shift drops the first bit: 1,0,1,0,... printed with the lead absorbed
    s = a.shift()
    assert s.prefix(6) == [1, 0, 1, 0, 1, 0]
    assert str(s) == "1|(01)"
    assert shift(a) == s
    # all-zeros is shift-invariant
    zeros = addr((), (0,))
    assert shift(zeros) == zeros
    # double shift of a preperiod-2 stream drops both preperiod bits
    b = addr((1, 0), (0, 1, 1))
    assert shift(shift(b)).prefix(6) == b.prefix(8)[2:]


# ---------------------------------------------------------------------------
# Critical addresses


def test_epsilon_star_half():
    d = epsilon_star(F(1, 2))
    assert d.prefix(8) == [1, 1, 0, 1, 0, 1, 0, 1]
    assert d == DigitStream.make((1, 1), (0, 1))


def test_epsilon_star_one_sixth():
    d = epsilon_star(F(1, 6))
    assert d.prefix(10) == [0, 0, 0, 0, 1, 0, 0, 0, 1, 0]
    assert d == DigitStream.parse("0(0001)")


def test_critical_address_pair_structure():
    for t in (F(1, 2), F(1, 6), F(5, 12), F(3, 10)):
        a0, a1 = critical_address(t)
        assert (a0.leading, a1.leading) == (0, 1)
        assert a0.body == a1.body == epsilon_star(t)
        # the two addresses differ exactly in position 1
        assert a0.stream.shifted(1) == a1.stream.shifted(1)
        assert a0.digit(1) != a1.digit(1)


def test_critical_address_rejects_periodic():
    for t in (F(0), F(1, 3), F(2, 7)):
        with pytest.raises(DomainError):
            critical_address(t)


# ---------------------------------------------------------------------------
# Angle <-> address


def test_angle_to_address_examples():
    assert angle_to_address(F(1, 4)).prefix(8) == [1, 1, 1, 0, 1, 0, 1, 0]
    assert angle_to_address(F(3, 4)).prefix(6) == [0, 1, 1, 0, 1, 0]


def test_address_to_angle_examples():
    # "10" repeating: all angle digits flip to 0
    assert address_to_angle(addr((), (1, 0))) == F(0)
    # all-zero address: odd positions flip to 1, giving 0.(10) = 2/3
    assert address_to_angle(addr((), (0,))) == F(2, 3)
    # all-ones address: 0.(01) = 1/3
    assert address_to_angle(addr((), (1,))) == F(1, 3)


def test_angle_address_roundtrip_random():
    rng = random.Random(7)
    for _ in range(100):
        den = rng.randrange(2, 4000)
        t = F(rng.randrange(0, den), den)
        assert address_to_angle(angle_to_address(t)) == angle(t)


def test_critical_endpoints_have_critical_addresses():
    # pins the flip parity: x0 and x0+1/2 must map to the critical pair
    for t in (F(1, 2), F(1, 6), F(5, 12)):
        a0, a1 = critical_address(t)
        x0 = x0_digits(t)
        assert angle_to_address(x0) == a1
        assert angle_to_address(angle(x0 + F(1, 2))) == a0
    assert x0_digits(F(1, 2)) == F(1, 4)


def test_conjugacy_with_shift():
    # address(-2*theta) equals shift(address(theta)); for dyadic theta the
    # shifted stream may be the other binary representation of the same angle
    thetas = [F(k, 63) for k in range(63)] + [F(k, 20) for k in range(1, 20)]
    for t in thetas:
        lhs = angle_to_address(angle(-2 * t))
        rhs = shift(angle_to_address(t))
        if t.denominator & (t.denominator - 1):
            assert lhs == rhs
        else:
            assert address_to_angle(lhs) == address_to_angle(rhs)
    # dyadic case concretely: theta = 1/4 shifts onto the all-ones-tail
    # representation of 1/2
    lhs = angle_to_address(F(1, 2))
    rhs = shift(angle_to_address(F(1, 4)))
    assert lhs != rhs and address_to_angle(rhs) == F(1, 2)
    assert addr_equivalent(lhs, rhs, F(1, 6))


# ---------------------------------------------------------------------------
# The equivalence relation


def test_rule1_omega_pair():
    x, y = addr((), (0, 1)), addr((), (1, 0))
    assert addr_equivalent(x, y, F(1, 6))
    assert addr_equivalent(y, x, F(1, 2))


def test_rule2_common_prefix_pair():
    x = addr((1, 0), (0, 1))  # 1,0,0,1,0,1,...
    y = addr((1, 1), (1, 0))  # 1,1,1,0,1,0,...
    assert x.prefix(7) == [1, 0, 0, 1, 0, 1, 0]
    assert y.prefix(7) == [1, 1, 1, 0, 1, 0, 1]
    assert addr_equivalent(x, y, F(1, 6))
    assert addr_equivalent(x, y, F(1, 2))
    # both name the angle 1/4
    assert address_to_angle(x) == address_to_angle(y) == F(1, 4)


def test_rule3_critical_pair():
    for t in (F(1, 6), F(5, 12)):
        eps = epsilon_star(t)
        for w in ((), (0,), (0, 1), (1, 1, 0)):
            x = addr(w + (0,) + eps.pre, eps.period)
            y = addr(w + (1,) + eps.pre, eps.period)
            assert addr_equivalent(x, y, t)
    # but not for a different generator whose eps differs
    eps = epsilon_star(F(1, 6))
    x = addr((0,) + eps.pre, eps.period)
    y = addr((1,) + eps.pre, eps.period)
    assert not addr_equivalent(x, y, F(3, 10))


def test_unrelated_addresses_not_equivalent():
    assert not addr_equivalent(addr((), (0, 1, 1)), addr((), (0, 0, 1, 1)),
                               F(1, 6))
    assert not addr_equivalent(addr((1,), (0,)), addr((), (1,)), F(1, 6))


def test_reflexive():
    a = addr((1, 0, 1), (1, 1, 0))
    assert addr_equivalent(a, a, F(1, 6))


def test_dyadic_generator_closure_class():
    # For theta0 = 1/2 the critical pair endpoints are dyadic angles, so the
    # class of the critical value has four addresses; all pairs must relate.
    eps = epsilon_star(F(1, 2))
    members = [
        addr((0,) + eps.pre, eps.period),   # 0·eps  (angle 3/4)
        addr((1,) + eps.pre, eps.period),   # 1·eps  (angle 1/4)
        addr((0, 0, 0, 1), (0, 1)),         # other rep of 3/4
        addr((1, 0, 0, 1), (0, 1)),         # other rep of 1/4
    ]
    assert {address_to_angle(m) for m in members} == {F(1, 4), F(3, 4)}
    for i in range(4):
        for j in range(4):
            assert addr_equivalent(members[i], members[j], F(1, 2))


def _universe(max_pre=6, max_per=4):
    """All canonical addresses with preperiod <= max_pre, period <= max_per."""
    seen = {}
    for lp in range(max_pre + 1):
        for pre in product((0, 1), repeat=lp):
            for ll in range(1, max_per + 1):
                for per in product((0, 1), repeat=ll):
                    s = DigitStream.make(pre, per)
                    if len(s.pre) <= max_pre and len(s.period) <= max_per:
                        seen[s] = Address(s)
    return list(seen.values())


def _critical_keys(a, eps):
    """Independent decomposition oracle: the (w, b) splits of a as w·b·eps."""
    keys = set()
    for rep_angle_stream in _angle_reps_oracle(address_to_angle(a)):
        s = _flip_oracle(rep_angle_stream)
        hits = []
        for k in range(1, len(s.pre) + len(s.period) + 1):
            if s.shifted(k) == eps:
                hits.append(k)
        assert len(hits) <= 1  # the split is unique when eps is not periodic
        if hits:
            k = hits[0]
            keys.add((tuple(s.prefix(k - 1)), s.digit(k)))
    return keys


def _angle_reps_oracle(t):
    s = digit_stream(t)
    reps = [s]
    if t == 0:
        reps.append(DigitStream.make((), (1,)))
    elif t.denominator & (t.denominator - 1) == 0:
        reps.append(DigitStream.make(s.pre[:-1] + (0,), (1,)))
    return reps


def _flip_oracle(s):
    p, l = len(s.pre), len(s.period)
    if l % 2:
        l *= 2
    return DigitStream.make(
        tuple(s.digit(m) ^ (m & 1) for m in range(1, p + 1)),
        tuple(s.digit(m) ^ (m & 1) for m in range(p + 1, p + l + 1)))


@pytest.mark.parametrize("theta0", [F(1, 2), F(1, 6)])
def test_equivalence_relation_brute_force(theta0):
    """The relation is an equivalence on the full small-address universe.

    Classes are computed independently (same angle, or matching critical
    splits over both angle representations) with union-find; the library
    decision procedure must say True exactly within classes.
    """
    universe = _universe(6, 4)
    eps = epsilon_star(theta0)
    assert len(eps.pre) > 0  # decomposition uniqueness needs non-periodic eps

    parent = list(range(len(universe)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        parent[find(i)] = find(j)

    by_angle = {}
    by_key = {}
    for i, a in enumerate(universe):
        by_angle.setdefault(address_to_angle(a), []).append(i)
        for w, b in _critical_keys(a, eps):
            by_key.setdefault((w, b), []).append(i)
    for group in by_angle.values():
        for i in group[1:]:
            union(group[0], i)
    for (w, b), zeros in by_key.items():
        ones = by_key.get((w, 1 - b))
        if ones:
            for i in zeros:
                for j in ones:
                    union(i, j)

    components = {}
    for i in range(len(universe)):
        components.setdefault(find(i), []).append(i)
    # 64 dyadic same-angle groups plus 31 critical splits; when theta0 is
    # dyadic the splits merge angle groups pairwise (33 classes of four),
    # otherwise they stand alone (95 classes)
    nontrivial = [c for c in components.values() if len(c) > 1]
    assert len(nontrivial) == (33 if theta0 == F(1, 2) else 95)
    if theta0 == F(1, 2):
        assert {len(c) for c in nontrivial} == {2, 4}

    # within components: all pairs related, both orders
    for comp in nontrivial:
        for i in comp:
            for j in comp:
                assert addr_equivalent(universe[i], universe[j], theta0)

    # across components: sampled pairs unrelated
    rng = random.Random(11)
    roots = list(components)
    for _ in range(400):
        r1, r2 = rng.sample(roots, 2)
        i = rng.choice(components[r1])
        j = rng.choice(components[r2])
        assert not addr_equivalent(universe[i], universe[j], theta0)


def test_shift_compatibility_sweep():
    """x ~ y implies shift(x) ~ shift(y), away from the omega pair."""
    theta0 = F(1, 6)
    eps = epsilon_star(theta0)
    omega = {DigitStream.make((), (0, 1)), DigitStream.make((), (1, 0))}
    pairs = []
    # same-angle pairs for a spread of dyadic angles
    for den_exp in range(1, 6):
        for num in range(1, 1 << den_exp, 2):
            t = F(num, 1 << den_exp)
            reps = _angle_reps_oracle(t)
            pairs.append((Address(_flip_oracle(reps[0])),
                          Address(_flip_oracle(reps[1]))))
    # critical pairs
    for w in ((), (0,), (1,), (0, 1), (1, 1, 0), (0, 0, 1, 0)):
        pairs.append((addr(w + (0,) + eps.pre, eps.period),
                      addr(w + (1,) + eps.pre, eps.period)))
    for x, y in pairs:
        assert addr_equivalent(x, y, theta0)
        if x.stream in omega or y.stream in omega:
            continue
        assert addr_equivalent(shift(x), shift(y), theta0)


# ---------------------------------------------------------------------------
# Cross-validation against 2L(x0)


def test_leaf_addresses_match_examples():
    rep = leaf_addresses_match(F(1, 2), 6)
    assert rep.ok and rep.leaf_failures == () and rep.word_failures == ()
    assert rep.leaves_checked == 127 and rep.words_checked == 127
    assert "ok" in str(rep)


@pytest.mark.parametrize("theta0", [F(1, 2), F(1, 6), F(5, 12)])
def test_leaf_addresses_match_depth6(theta0):
    assert leaf_addresses_match(theta0, 6).ok


def test_leaf_addresses_match_depth0_is_critical_pair():
    rep = leaf_addresses_match(F(1, 6), 0)
    assert rep.ok and rep.leaves_checked == 1 and rep.words_checked == 1


def test_leaf_addresses_match_negative_depth_vacuous():
    rep = leaf_addresses_match(F(1, 6), -1)
    assert rep.ok and rep.leaves_checked == 0 and rep.words_checked == 0


def test_leaf_addresses_match_rejects_periodic():
    with pytest.raises(DomainError):
        leaf_addresses_match(F(1, 3), 2)


# ---------------------------------------------------------------------------
# Cells


def test_cells_at_depth_small():
    assert cells_at_depth(0) == [""]
    assert cells_at_depth(2) == ["00", "01", "10", "11"]
    with pytest.raises(DomainError):
        cells_at_depth(-1)


def test_cells_at_depth_counts():
    for n in range(13):
        assert len(cells_at_depth(n)) == 1 << n
    assert len(cells_at_depth(20)) == 1 << 20


def test_cells_shift_compatibility():
    prev = set(cells_at_depth(3))
    for w in cells_at_depth(4):
        assert w[1:] in prev


# ---------------------------------------------------------------------------
# Regulated-ray symbols


def test_ray_symbol_print_parse():
    g = RegulatedRaySymbol.of("inf", (F(1, 2), F(1, 4)))
    assert g.angles == (Dyadic(1, 1), Dyadic(1, 2))
    assert str(g) == "G(inf;1/2,1/4)"
    assert RegulatedRaySymbol.parse(str(g)) == g
    m = RegulatedRaySymbol.of("0", ("3/4",), marker=True)
    assert str(m) == "G(0;3/4)+seg"
    assert RegulatedRaySymbol.parse(str(m)) == m
    assert RegulatedRaySymbol.parse("G(inf)") == RegulatedRaySymbol("inf", ())
    assert RegulatedRaySymbol.parse("G(0;2/4,3/8)") == \
        RegulatedRaySymbol("0", (Dyadic(1, 1), Dyadic(3, 3)))


def test_ray_symbol_validation():
    with pytest.raises(DomainError):
        RegulatedRaySymbol.of("inf", (F(1, 3),))  # not dyadic
    with pytest.raises(DomainError):
        RegulatedRaySymbol.of("0", (F(0),))  # not in (0,1)
    with pytest.raises(DomainError):
        RegulatedRaySymbol.of("0", (F(5, 4),))
    with pytest.raises(DomainError):
        RegulatedRaySymbol.of("one", (F(1, 2),))
    for text in ("H(0;1/2)", "G(0;1/3)", "G(0;0)", "G(x;1/2)",
                 "G(0;a/b)", "G(0;1/0)", "G(0;1/2,)"):
        with pytest.raises(DomainError):
            RegulatedRaySymbol.parse(text)


def test_ray_image_rules():
    img = regulated_ray_image
    assert img(RegulatedRaySymbol.parse("G(0;1/4)")) == \
        RegulatedRaySymbol.parse("G(inf;1/4)")
    assert img(RegulatedRaySymbol.parse("G(inf;1/4)")) == \
        RegulatedRaySymbol.parse("G(0;1/2)")
    assert img(RegulatedRaySymbol.parse("G(inf;1/2,1/4)")) == \
        RegulatedRaySymbol.parse("G(inf;1/4)+seg")
    # doubling wraps mod 1
    assert img(RegulatedRaySymbol.parse("G(inf;3/4)")) == \
        RegulatedRaySymbol.parse("G(0;1/2)")
    with pytest.raises(DomainError):
        img(RegulatedRaySymbol("inf", ()))


def test_ray_preimage_rules():
    pre = regulated_ray_preimage
    assert tuple(map(str, pre(RegulatedRaySymbol.parse("G(0;1/2)")))) == \
        ("G(inf;1/4)", "G(inf;3/4)")
    assert tuple(map(str, pre(RegulatedRaySymbol.parse("G(0;1/4,1/2)")))) == \
        ("G(inf;1/8,1/2)", "G(inf;5/8,1/2)")
    with pytest.raises(DomainError):
        pre(RegulatedRaySymbol.parse("G(inf;1/2)"))
    with pytest.raises(DomainError):
        pre(RegulatedRaySymbol("0", ()))


def test_ray_image_preimage_identity():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randrange(1, 4)
        angles = tuple(
            F(rng.randrange(1, 1 << 6) * 2 + 1, 1 << 7) for _ in range(n))
        g = RegulatedRaySymbol.of("0", angles, marker=bool(rng.getrandbits(1)))
        for h in regulated_ray_preimage(g):
            assert regulated_ray_image(h) == g


def test_ray_marker_is_sticky():
    g = RegulatedRaySymbol.parse("G(inf;1/2,3/4)")
    h = regulated_ray_image(g)
    assert h.marker
    h2 = regulated_ray_image(h)  # G(0;1/2)+seg
    assert h2.marker
    assert h2 == RegulatedRaySymbol.parse("G(0;1/2)+seg")


# Oracles: the rewrite rules in Fraction arithmetic on (base, angles, marker)
# triples, checked against the int-pair rules by the properties below.


def _oracle_str(base, angles, marker):
    inner = base + (";" + ",".join(map(str, angles)) if angles else "")
    return "G(%s)%s" % (inner, "+seg" if marker else "")


def _oracle_image(base, angles, marker):
    if base == "0":
        return ("inf", angles, marker)
    num, den = angles[0].numerator, angles[0].denominator
    if 2 * num != den:
        return ("0", (F(2 * num % den, den),) + angles[1:], marker)
    return ("inf", angles[1:], True)


def _oracle_preimage(base, angles, marker):
    num, den = angles[0].numerator, angles[0].denominator
    rest = angles[1:]
    return (("inf", (F(num, 2 * den),) + rest, marker),
            ("inf", (F(num + den, 2 * den),) + rest, marker))


_dyadic_unit = st.integers(1, 24).flatmap(
    lambda k: st.integers(0, (1 << (k - 1)) - 1).map(lambda j: F(2 * j + 1, 1 << k)))


def _ray_parts(bases=("0", "inf"), min_angles=0):
    return st.tuples(st.sampled_from(bases),
                     st.lists(_dyadic_unit, min_size=min_angles, max_size=6).map(tuple),
                     st.booleans())


@settings(max_examples=200, deadline=None)
@given(_ray_parts())
def test_ray_symbol_print_parse_property(parts):
    g = RegulatedRaySymbol.of(*parts)
    assert str(g) == _oracle_str(*parts)
    assert RegulatedRaySymbol.parse(str(g)) == g


@settings(max_examples=200, deadline=None)
@given(_ray_parts(min_angles=1))
def test_ray_image_matches_fraction_oracle(parts):
    g = RegulatedRaySymbol.of(*parts)
    assert str(regulated_ray_image(g)) == _oracle_str(*_oracle_image(*parts))


@settings(max_examples=200, deadline=None)
@given(_ray_parts(bases=("0",), min_angles=1))
def test_ray_preimage_matches_fraction_oracle(parts):
    g = RegulatedRaySymbol.of(*parts)
    got = regulated_ray_preimage(g)
    assert tuple(map(str, got)) == \
        tuple(_oracle_str(*q) for q in _oracle_preimage(*parts))
    assert all(regulated_ray_image(q) == g for q in got)
