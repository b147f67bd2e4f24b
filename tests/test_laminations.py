from collections import Counter
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exact_oracles as oracle
from v2lam import laminations
from v2lam.angles import DomainError
from v2lam.laminations import (
    INSIDE,
    OUTSIDE,
    Lamination,
    Leaf,
    _crossings,
    _over_common_denominator,
    build_2L,
    build_basilica,
    build_L,
    build_L0,
    build_quadratic_lamination,
    check_two_sided_invariance,
    complementary_regions,
    count_same_side_crossings,
    leaf_in_quadratic_lamination,
    leaves_cross,
    mate,
    mirror_outside,
    pairs_cross,
    quadratic_major,
)
from v2lam.svg import render_svg
from v2lam.symbolic import leaf_addresses_match


def view(lam):
    """The library lamination lam read through the Fraction oracle."""
    return oracle.Lamination.of(lam)


def keyset(lam):
    return sorted(view(lam).key_set())


def library(*leaves):
    """The library lamination of hand-written leaves, over the lcm of their
    denominators."""
    ints, den = _over_common_denominator([x for l in leaves for x in (l.a, l.b)])
    lam = Lamination(den)
    for l, a, b in zip(leaves, ints[::2], ints[1::2]):
        lam.add(l.side, a, b, l.depth)
    return lam


def test_leaf_normalization():
    l = Leaf(Fr(3, 4), Fr(1, 4))
    assert (l.a, l.b) == (Fr(1, 4), Fr(3, 4))
    with pytest.raises(DomainError):
        Leaf(Fr(1, 4), Fr(5, 4))  # same angle mod 1


def test_leaves_cross():
    assert pairs_cross(Fr(0), Fr(1, 2), Fr(1, 4), Fr(3, 4))
    assert not pairs_cross(Fr(0), Fr(1, 4), Fr(1, 2), Fr(3, 4))
    assert not pairs_cross(Fr(0), Fr(1, 4), Fr(0), Fr(1, 2))
    # endpoints are reduced mod 1 first: 1 and 0 are one shared endpoint
    assert not pairs_cross(Fr(0), Fr(1, 2), Fr(1), Fr(1, 4))
    assert pairs_cross(Fr(-1), Fr(1, 2), Fr(5, 4), Fr(7, 4))
    assert leaves_cross(Leaf(Fr(0), Fr(1, 2)), Leaf(Fr(1, 4), Fr(3, 4)))


def test_build_L0():
    lam = build_L0(Fr(1, 2), 0)
    assert keyset(lam) == [(INSIDE, Fr(1, 4), Fr(3, 4))]
    lam = build_L0(Fr(1, 2), 1)
    assert keyset(lam) == [
        (INSIDE, Fr(1, 16), Fr(3, 16)),
        (INSIDE, Fr(1, 4), Fr(3, 4)),
        (INSIDE, Fr(13, 16), Fr(15, 16)),
    ]
    with pytest.raises(DomainError):
        build_L0(Fr(1, 3), 2)


def test_build_L0_forward_invariance_under_quadrupling():
    # quadrupling a non-central leaf's endpoints lands on another leaf
    lam = view(build_L0(Fr(1, 6), 4))
    keys = {(l.a, l.b) for l in lam}
    central = (Fr(11, 60), Fr(41, 60))
    for l in lam:
        if (l.a, l.b) == central:
            continue
        ia, ib = (4 * l.a) % 1, (4 * l.b) % 1
        if ia == ib:
            continue
        assert (min(ia, ib), max(ia, ib)) in keys


def test_build_L():
    lam = view(build_L(Fr(1, 2), 1))
    expect = {(Fr(1, 4), Fr(3, 4))} | {
        (Fr(1, 16) + Fr(k, 4), Fr(3, 16) + Fr(k, 4)) for k in range(4)
    }
    assert {(l.a, l.b) for l in lam} == expect
    # central chord present at every depth; layer sizes 4^n
    for d in range(4):
        lam = view(build_L(Fr(1, 6), d))
        assert lam.has(INSIDE, Fr(11, 60), Fr(41, 60))
        assert len(lam) == sum(4**n for n in range(d + 1))
        # arc lengths (1/2) 4^-n per layer
        for l in lam:
            assert min(l.b - l.a, 1 - (l.b - l.a)) == Fr(1, 2) * Fr(1, 4**l.depth)


def test_build_L_antipodal_symmetry():
    for t0 in (Fr(1, 2), Fr(1, 6), Fr(5, 12)):
        lam = view(build_L(t0, 3))
        for l in lam:
            assert lam.has(l.side, l.a + Fr(1, 2), l.b + Fr(1, 2))


def test_build_2L_layers():
    assert keyset(build_2L(Fr(1, 2), 0)) == [(INSIDE, Fr(1, 4), Fr(3, 4))]
    keys = keyset(build_2L(Fr(1, 2), 1))
    assert (OUTSIDE, Fr(1, 8), Fr(3, 8)) in keys
    assert (OUTSIDE, Fr(5, 8), Fr(7, 8)) in keys
    lam = view(build_2L(Fr(1, 2), 2))
    for pair in ((Fr(5, 16), Fr(7, 16)), (Fr(13, 16), Fr(15, 16)),
                 (Fr(1, 16), Fr(3, 16)), (Fr(9, 16), Fr(11, 16))):
        assert lam.has(INSIDE, *pair)
    lam = view(build_2L(Fr(1, 6), 1))
    assert lam.has(OUTSIDE, Fr(19, 120), Fr(49, 120))
    assert lam.has(OUTSIDE, Fr(79, 120), Fr(109, 120))
    assert view(build_2L(Fr(1, 6), 2)).has(INSIDE, Fr(71, 240), Fr(101, 240))


def test_mirror_outside():
    lam = library(Leaf(Fr(1, 4), Fr(3, 4)), Leaf(Fr(1, 16), Fr(3, 16)))
    m = mirror_outside(lam)
    assert keyset(m) == [(OUTSIDE, Fr(5, 8), Fr(7, 8))]  # antipodal leaf dropped
    assert len(mirror_outside(library())) == 0


def test_construction_equivalence():
    for t0 in (Fr(1, 2), Fr(1, 6), Fr(5, 12)):
        for d in range(9):
            two = view(build_2L(t0, d)).key_set()
            ins = frozenset((INSIDE, l.a, l.b) for l in view(build_L(t0, d // 2)))
            outs = view(mirror_outside(build_L(t0, (d + 1) // 2))).key_set()
            assert two == ins | outs, (t0, d)


def test_no_crossings_depth8():
    for t0 in (Fr(1, 2), Fr(1, 6), Fr(5, 12)):
        bad, n = count_same_side_crossings(build_2L(t0, 8))
        assert bad == 0 and n > 10_000
        bad, _ = count_same_side_crossings(build_L(t0, 4))
        assert bad == 0


def test_two_sided_invariance():
    rep = check_two_sided_invariance(build_2L(Fr(1, 2), 6), 5)
    assert rep.ok and rep.checked == 63
    # adversarial single leaf fails the backward condition
    rep = check_two_sided_invariance(library(Leaf(Fr(0), Fr(1, 3))), 0)
    assert not rep.ok
    assert "backward" in {kind for _, kind in rep.failures}


def test_quadratic_membership():
    assert leaf_in_quadratic_lamination(Fr(0), Leaf(Fr(0), Fr(1, 2)))
    assert leaf_in_quadratic_lamination(Fr(1, 3), Leaf(Fr(1, 3), Fr(2, 3)))
    assert leaf_in_quadratic_lamination(Fr(0), Leaf(Fr(0), Fr(1, 4)))
    assert not leaf_in_quadratic_lamination(Fr(0), Leaf(Fr(1, 8), Fr(5, 8)))


def test_build_quadratic_L0():
    lam = view(build_quadratic_lamination(Fr(0), 1))
    assert {(l.a, l.b) for l in lam} == {
        (Fr(0), Fr(1, 2)), (Fr(0), Fr(1, 4)), (Fr(0), Fr(3, 4)),
        (Fr(1, 4), Fr(1, 2)), (Fr(1, 2), Fr(3, 4)),
    }


def test_build_quadratic_third():
    lam = view(build_quadratic_lamination(Fr(1, 3), 2))
    assert lam.has(INSIDE, Fr(1, 3), Fr(2, 3))
    assert lam.has(INSIDE, Fr(1, 6), Fr(1, 3))
    for d in range(4):
        assert Leaf(*quadratic_major(Fr(1, 3))) in view(build_quadratic_lamination(Fr(1, 3), d))


def test_quadratic_backward_invariance():
    for y0, d in ((Fr(0), 4), (Fr(1, 3), 4), (Fr(1, 5), 3)):
        lam = view(build_quadratic_lamination(y0, d))
        keys = {(l.a, l.b) for l in lam}
        for l in lam:
            ia, ib = (2 * l.a) % 1, (2 * l.b) % 1
            if ia != ib:
                assert (min(ia, ib), max(ia, ib)) in keys


def test_quadratic_no_crossings_for_noncollapsing_generators():
    for y0, d in ((Fr(1, 5), 6), (Fr(1, 6), 6), (Fr(3, 10), 5), (Fr(5, 12), 5),
                  (Fr(0), 1)):
        bad, _ = count_same_side_crossings(build_quadratic_lamination(y0, d))
        assert bad == 0, (y0, d)


def test_quadratic_collapsing_generators_admit_class_diagonals():
    # y0 = 0 identifies all dyadic angles; deep truncations therefore contain
    # crossing diagonals of the collapsing class (e.g. {0,1/4} and {1/8,1/2}).
    lam = build_quadratic_lamination(Fr(0), 2)
    leaves = view(lam)
    assert leaves.has(INSIDE, Fr(0), Fr(1, 4)) and leaves.has(INSIDE, Fr(1, 8), Fr(1, 2))
    bad, _ = count_same_side_crossings(lam)
    assert bad > 0


def test_basilica():
    assert {(l.a, l.b) for l in view(build_basilica(0))} == {(Fr(1, 3), Fr(2, 3))}
    d1 = {(l.a, l.b) for l in view(build_basilica(1))}
    assert d1 == {(Fr(1, 3), Fr(2, 3)), (Fr(1, 6), Fr(1, 3)), (Fr(2, 3), Fr(5, 6))}
    lam = build_basilica(10)
    assert len(lam) == 2**11 - 1
    bad, _ = count_same_side_crossings(lam)
    assert bad == 0


def test_basilica_inside_quadratic_third():
    # the basilica truncation is a sub-lamination of the y0 = 1/3 system
    bas = {(l.a, l.b) for l in view(build_basilica(3))}
    quad = {(l.a, l.b) for l in view(build_quadratic_lamination(Fr(1, 3), 4))}
    assert bas <= quad


def test_mate():
    assert len(mate(library(), library())) == 0
    m = view(mate(build_basilica(1), build_basilica(1)))
    assert m.has(OUTSIDE, Fr(2, 3), Fr(1, 3))  # negated endpoints, set-equal
    assert len(m.side_leaves(INSIDE)) == 3 and len(m.side_leaves(OUTSIDE)) == 3


def _regions(lam, side):
    """complementary_regions with each angle as a Fraction, as the oracle gives it."""
    return [[(kind, Fr(x, lam.den), Fr(y, lam.den)) for kind, x, y in cycle]
            for cycle in complementary_regions(lam, side)]


def test_complementary_regions():
    assert len(complementary_regions(library(Leaf(Fr(0), Fr(1, 2))), INSIDE)) == 2
    assert complementary_regions(library(), INSIDE) == [[("arc", 0, 0)]]
    assert _regions(library(), INSIDE) == [[("arc", Fr(0), Fr(0))]]
    lam = build_quadratic_lamination(Fr(0), 1)
    regions = complementary_regions(lam, INSIDE)
    assert len(regions) == 4
    # every listed region alternates to include at least one circle arc
    for cycle in regions:
        assert any(kind == "arc" for kind, *_ in cycle)
    assert _regions(lam, OUTSIDE) == _regions(library(), INSIDE)
    with pytest.raises(DomainError, match="crossing chord pairs: 1$"):
        complementary_regions(library(Leaf(Fr(0), Fr(1, 2)), Leaf(Fr(1, 4), Fr(3, 4))), INSIDE)
    with pytest.raises(DomainError, match="crossing chord pairs: 3$"):
        complementary_regions(library(Leaf(Fr(0), Fr(1, 2)), Leaf(Fr(1, 4), Fr(3, 4)),
                                      Leaf(Fr(1, 8), Fr(5, 8))), INSIDE)


def test_complementary_regions_skip_pockets_and_start_at_the_first_half_edge():
    # the triangle 0, 1/4, 1/2 is a pocket inside {0, 1/2}; chord k's
    # half-edges are 2k (lo -> hi) and 2k + 1 (hi -> lo) in sorted order
    lam = Lamination(4)
    for a, b in ((0, 2), (0, 1), (1, 2)):
        lam.add(INSIDE, a, b, 0)
    assert _regions(lam, INSIDE) == [
        [("chord", Fr(1, 4), Fr(0)), ("arc", Fr(0), Fr(1, 4))],          # half-edge 1
        [("chord", Fr(0), Fr(1, 2)), ("arc", Fr(1, 2), Fr(0))],          # 2, the outer face
        [("chord", Fr(1, 2), Fr(1, 4)), ("arc", Fr(1, 4), Fr(1, 2))],    # 5
    ]


def test_leaf_text_roundtrip():
    lam = build_2L(Fr(1, 2), 3)
    text = lam.to_text()
    assert oracle.Lamination.from_text(text).key_set() == view(lam).key_set()
    assert "I 1/4 3/4" in text.splitlines()


def test_render_svg():
    doc = render_svg(library(Leaf(Fr(0), Fr(1, 2))))
    assert doc.count("<line") == 1
    doc0 = render_svg(library())
    assert "<circle" in doc0 and "<path" not in doc0
    lam = build_2L(Fr(1, 2), 4)
    doc = render_svg(lam)
    assert doc.count("<line") + doc.count("<path") == len(lam)
    assert doc == render_svg(build_2L(Fr(1, 2), 4))  # deterministic


# ---------------------------------------------------------------------------
# the integer store and its builders against the Fraction store and builders
# ---------------------------------------------------------------------------

def _same_lamination(fast, slow):
    assert fast.to_text() == slow.to_text()
    assert list(view(fast)) == list(slow)   # keys and depths, in order
    assert len(fast) == len(slow)


def _same_report(fast, slow):
    assert fast.checked == slow.checked
    assert fast.failures == slow.failures


@settings(max_examples=40)
@given(t=oracle.even_generators(), depth=st.integers(0, 9))
def test_build_2L_matches_fraction_oracle(t, depth):
    fast, slow = build_2L(t, depth), oracle.build_2L(t, depth)
    _same_lamination(fast, slow)
    for at in (depth - 1, depth):  # passing, and failing backward on the top layer
        _same_report(check_two_sided_invariance(fast, at),
                     oracle.check_two_sided_invariance(slow, at))


@settings(max_examples=30)
@given(t=oracle.even_generators(), depth=st.integers(0, 5))
def test_build_L_matches_fraction_oracle(t, depth):
    # L(depth) and its mirror, the one-sided halves of 2L up to depth 10
    fast, slow = build_L(t, depth), oracle.build_L(t, depth)
    _same_lamination(fast, slow)
    _same_lamination(mirror_outside(fast), oracle.mirror_outside(slow))


@settings(max_examples=30)
@given(t=oracle.even_generators(), depth=st.integers(0, 7))
def test_build_L0_matches_measure_oracle(t, depth):
    # the pulled-back critical leaf against one leaf per atom over its h-arc
    fast = build_L0(t, depth)
    _same_lamination(fast, oracle.build_L0(t, depth))
    # every L0 chord is an L chord of the same depth, and layer m holds 2^m
    full = build_L(t, depth)
    assert fast.den == full.den
    assert all(full.chords[c] == d for c, d in fast.chords.items())
    assert Counter(fast.chords.values()) == {m: 2 ** m for m in range(depth + 1)}


def test_build_L0_matches_measure_oracle_at_period_8052():
    # endpoints of more than 4300 digits; keys, depths and order only, as
    # the leaf text of these endpoints is slow to write
    assert list(view(build_L0(Fr(3, 16106), 8))) == list(oracle.build_L0(Fr(3, 16106), 8))


_y0s = st.builds(Fr, st.integers(0, 63), st.integers(1, 64))


@settings(max_examples=40)
@given(y0=_y0s, depth=st.integers(0, 7))
def test_quadratic_pullback_matches_pair_loop(y0, depth):
    _same_lamination(build_quadratic_lamination(y0, depth),
                  oracle.build_quadratic_lamination(y0, depth))


@settings(max_examples=30)
@given(outer=_y0s, inner=st.none() | _y0s, depth=st.integers(0, 5))
def test_mate_and_text_round_trip_match_fraction_oracle(outer, inner, depth):
    if inner is None:
        fast_in, slow_in = build_basilica(depth), oracle.build_basilica(depth)
    else:
        fast_in = build_quadratic_lamination(inner, depth)
        slow_in = oracle.build_quadratic_lamination(inner, depth)
    fast = mate(fast_in, build_quadratic_lamination(outer, depth))
    slow = oracle.mate(slow_in, oracle.build_quadratic_lamination(outer, depth))
    _same_lamination(fast, slow)
    assert oracle.Lamination.from_text(fast.to_text()).key_set() == slow.key_set()


_leaf = st.builds(
    lambda a, b, side, depth: (a, b, side, depth),
    st.builds(Fr, st.integers(0, 23), st.integers(1, 12)),
    st.builds(Fr, st.integers(0, 23), st.integers(1, 12)),
    st.sampled_from((INSIDE, OUTSIDE)), st.integers(0, 3),
).filter(lambda l: l[0] % 1 != l[1] % 1)


@settings(max_examples=200)
@given(items=st.lists(_leaf, max_size=24), depth=st.integers(-1, 3))
def test_leaf_sets_match_fraction_oracle(items, depth):
    # odd and mixed denominators, repeated chords at several depths
    leaves = [Leaf(a, b, side, d) for a, b, side, d in items]
    fast, slow = library(*leaves), oracle.Lamination(leaves)
    _same_lamination(fast, slow)
    _same_report(check_two_sided_invariance(fast, depth),
                 oracle.check_two_sided_invariance(slow, depth))
    _same_lamination(mirror_outside(fast), oracle.mirror_outside(slow))
    assert count_same_side_crossings(fast) == oracle.count_same_side_crossings(slow)


def test_building_and_emitting_construct_no_leaf(monkeypatch):
    # Leaf objects are the edge form of a chord; the builders, the reports,
    # both writers and the address match run on integer chords
    calls = []
    post_init = Leaf.__post_init__

    def counting(self):
        calls.append(self)
        post_init(self)

    monkeypatch.setattr(Leaf, "__post_init__", counting)
    lam = build_2L(Fr(5, 12), 10)
    lam.to_text()
    render_svg(lam, color_by_depth=True)
    count_same_side_crossings(lam)
    assert check_two_sided_invariance(lam, 9).ok
    complementary_regions(lam, INSIDE)
    for other in (build_L(Fr(5, 12), 4), mirror_outside(build_L(Fr(5, 12), 4)),
                  build_quadratic_lamination(Fr(1, 7), 5), build_basilica(5)):
        other.to_text()
        render_svg(other)
    assert leaf_addresses_match(Fr(5, 12), 8).ok
    assert calls == []
    assert len(view(lam)) == len(calls) == 2047  # the counter does count


def test_quadratic_builder_walks_orbits_only_from_the_major(monkeypatch):
    # of the about n^2 / 2 pairs of the n <= 2^(depth+2) points, only the
    # <= 2n with an endpoint on the major chord are tested by orbit walks
    walks = []
    orbit_admits = laminations._orbit_admits

    def counting(*args):
        walks.append(args)
        return orbit_admits(*args)

    monkeypatch.setattr(laminations, "_orbit_admits", counting)
    lam = build_quadratic_lamination(Fr(1, 7), 8)
    assert len(lam) > 1000 and 0 < len(walks) <= 2 * 2 ** 10


# ---------------------------------------------------------------------------
# the crossing predicate, the sorted sweep and the basilica filter against
# their O(n^2) oracles
# ---------------------------------------------------------------------------

_chord = st.tuples(st.integers(0, 12), st.integers(0, 12)).filter(lambda c: c[0] != c[1]).map(
    lambda c: (min(c), max(c)))


@settings(max_examples=300)
@given(chords=st.lists(_chord, max_size=40), repeat=st.integers(0, 40))
def test_crossings_match_pair_scan(chords, repeat):
    # 13 endpoint values force shared endpoints and nested chords; the
    # repeated prefix adds duplicate chords
    chords = chords + chords[:repeat]
    assert _crossings(chords) == oracle.crossings(chords)


_turns = st.builds(Fr, st.integers(-24, 48), st.integers(1, 8))


@settings(max_examples=500)
@given(a1=_turns, b1=_turns, a2=_turns, b2=_turns)
def test_pairs_cross_matches_arc_oracle(a1, b1, a2, b2):
    # endpoints outside [0, 1) and coinciding mod 1 included
    reduced = [Fr(x) % 1 for x in (a1, b1, a2, b2)]
    assert pairs_cross(a1, b1, a2, b2) == oracle.pairs_cross(*reduced)
    assert pairs_cross(a1, b1, a2, b2) == pairs_cross(a2, b2, b1, a1)


@pytest.mark.parametrize("depth", range(11))
def test_basilica_matches_accumulated_filter(depth):
    _same_lamination(build_basilica(depth), oracle.build_basilica(depth))


@settings(max_examples=15)
@given(t=oracle.even_generators(), depth=st.integers(0, 10))
def test_count_same_side_crossings_matches_pair_scan(t, depth):
    for lam in (build_2L(t, depth), build_L(t, depth // 2)):
        assert count_same_side_crossings(lam) == oracle.count_same_side_crossings(view(lam))


@pytest.mark.parametrize("depth", range(5))
def test_count_crossings_of_collapsing_quadratic_matches_pair_scan(depth):
    lam = build_quadratic_lamination(Fr(0), depth)
    assert count_same_side_crossings(lam) == oracle.count_same_side_crossings(view(lam))


# ---------------------------------------------------------------------------
# complementary regions against the planar face walk
# ---------------------------------------------------------------------------

def _same_regions(lam):
    for side in (INSIDE, OUTSIDE):
        try:
            want = oracle.complementary_regions(view(lam), side)
        except DomainError as exc:
            with pytest.raises(DomainError) as got:
                complementary_regions(lam, side)
            assert str(got.value) == str(exc)
        else:
            assert _regions(lam, side) == want


@st.composite
def _chord_families(draw):
    """Leaves of both sides over one small or non-dyadic denominator.

    Each drawn chord is kept when it crosses no kept chord of its side, and
    now and then regardless, so some families cross; a kept chord is
    sometimes repeated, or split at an inner point into two chords that
    close a pocket with it.
    """
    den = draw(st.sampled_from((2, 3, 4, 5, 6, 7, 9, 10, 12, 15, 16, 24, 30)))
    kept = {INSIDE: [], OUTSIDE: []}
    leaves = []
    for _ in range(draw(st.integers(0, 12))):
        side = draw(st.sampled_from((INSIDE, OUTSIDE)))
        how = draw(st.sampled_from(("new", "new", "new", "any", "repeat", "pocket")))
        if how in ("repeat", "pocket") and kept[side]:
            a, b = draw(st.sampled_from(kept[side]))
            chords = [(a, b)]
            if how == "pocket" and b - a > 1:
                c = draw(st.integers(a + 1, b - 1))
                chords = [(a, c), (c, b)]
        else:
            a, b = sorted(draw(st.lists(st.integers(0, den - 1), min_size=2, max_size=2,
                                        unique=True)))
            chords = [(a, b)]
            if how != "any" and any(laminations._chords_cross(a, b, *c) for c in kept[side]):
                chords = []
        for a, b in chords:
            kept[side].append((a, b))
            leaves.append(Leaf(Fr(a, den), Fr(b, den), side, draw(st.integers(0, 3))))
    return leaves


@settings(max_examples=60)
@given(leaves=_chord_families())
def test_complementary_regions_match_face_walk(leaves):
    _same_regions(library(*leaves))


@pytest.mark.parametrize("depth", range(10))
def test_complementary_regions_of_built_laminations_match_face_walk(depth):
    # the quadratic lamination of 1/3 collapses a class, so from depth 1 on it crosses
    for lam in (build_2L(Fr(5, 12), depth), build_basilica(depth),
                build_quadratic_lamination(Fr(1, 5), depth),
                build_quadratic_lamination(Fr(1, 3), min(depth, 6))):
        _same_regions(lam)
