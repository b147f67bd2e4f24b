"""Binary-address model of the Julia set boundary.

An address is an infinite bit sequence; points of the Julia set correspond
to addresses modulo a small equivalence relation generated by three rule
shapes (the omega pair, same-angle pairs, and critical pairs built from the
critical itinerary).  The module provides:

- ``Address``: an eventually periodic bit sequence, printed ``b|pre(period)``;
- ``critical_address``: the two addresses of the critical value, assembled
  digitwise from the generator angle theta0 and its ``nu`` sequence;
- ``angle_to_address`` / ``address_to_angle``: the exact identification with
  circle angles (flip every odd-position bit), conjugating t -> -2t with the
  one-sided shift;
- ``addr_equivalent``: exact decision procedure for the equivalence relation
  on eventually periodic addresses;
- ``leaf_addresses_match``: cross-validation of the address model against the
  invariant lamination 2L(x0) built in :mod:`v2lam.laminations`;
- ``cells_at_depth``: the 2**n depth-n cell labels;
- ``RegulatedRaySymbol`` with its rewrite rules for images and preimages.

All functions are pure and exact.  Angles are ``Fraction``s and addresses
are :class:`~v2lam.angles.DigitStream`s, whose preperiod and period are
packed integers.  The equivalence is decided on the addresses' angles as
integers over one denominator (``_CriticalTails``), so a report over the
integer chords of 2L(x0) computes the critical tails once, from x0, and
builds no address.  A regulated-ray angle num/2**k is the one integer
``(1 << k) | num``, on which the rewrite rules are bit operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm
from typing import NamedTuple

from .angles import (
    DigitStream,
    DomainError,
    _alternating,
    angle,
    digit_stream,
    require_nonperiodic,
    x0_digit_stream,
    x0_digits,
)
from .laminations import INSIDE, OUTSIDE, Leaf, build_2L


# ---------------------------------------------------------------------------
# Address


@dataclass(frozen=True)
class Address:
    """An eventually periodic infinite bit sequence (an address).

    Stored as a canonical :class:`DigitStream`; two addresses compare equal
    exactly when they agree as bit sequences.  Unlike binary expansions of
    angles, addresses are pure symbol sequences: an all-ones period is a
    legitimate address distinct from its "carried" counterpart.

    Printed as ``b|pre(period)`` where ``b`` is the first bit and
    ``pre(period)`` the remaining stream, e.g. ``"1|10(01)"``.
    """

    stream: DigitStream

    @property
    def leading(self) -> int:
        return self.stream.digit(1)

    @property
    def body(self) -> DigitStream:
        return self.stream.shifted(1)

    @staticmethod
    def from_leading_body(leading: int, body: DigitStream) -> "Address":
        if leading not in (0, 1):
            raise DomainError("leading bit must be 0 or 1")
        return Address(body.prepended(leading, 1))

    def shift(self, k: int) -> "Address":
        """Drop the first k bits."""
        return Address(self.stream.shifted(k))

    def __str__(self) -> str:
        return "%d|%s" % (self.leading, self.body)

    @staticmethod
    def parse(text: str) -> "Address":
        """Inverse of str: ``"b|pre(period)"``."""
        text = text.strip()
        if "|" not in text:
            raise DomainError("address must look like 'b|pre(period)'")
        lead_s, body_s = text.split("|", 1)
        if lead_s not in ("0", "1"):
            raise DomainError("leading bit must be 0 or 1")
        return Address.from_leading_body(int(lead_s), DigitStream.parse(body_s))


# ---------------------------------------------------------------------------
# Critical addresses


def epsilon_star(theta0: Fraction) -> DigitStream:
    """The shared body d of the two critical addresses.

    d interleaves the binary digits of theta0 with the complemented nu
    sequence: d[2m-1] = theta0[m], d[2m] = 1 - nu_m(theta0).  The digits of
    x0 are 0, theta0[1], nu_1(theta0), theta0[2], ..., so d is the address
    of x0 (its digits flipped at the odd positions) without its first bit.
    """
    return _flip_odd(x0_digit_stream(theta0)).shifted(1)


def critical_address(theta0: Fraction) -> tuple[Address, Address]:
    """The two addresses of the critical value, as (0-leading, 1-leading).

    Both share the body d = epsilon_star(theta0) and differ exactly in
    position 1.
    """
    d = epsilon_star(theta0)
    return (Address.from_leading_body(0, d), Address.from_leading_body(1, d))


# ---------------------------------------------------------------------------
# Angle <-> address identification


def _flip_odd(s: DigitStream) -> DigitStream:
    """Flip the bits in odd (1-indexed) positions; an exact involution."""
    per, l = s.per, s.l
    if l % 2:
        per, l = (per << l) | per, 2 * l
    # the period starts at position p + 1, odd exactly when p is even
    return DigitStream(s.pre ^ _alternating(s.p), s.p,
                       per ^ (_alternating(l) >> (s.p & 1)), l).canonical()


def angle_to_address(theta: Fraction) -> Address:
    """Address of a circle angle: bit k = theta[k] XOR (k odd).

    Uses the canonical (never all-ones) binary expansion of theta.
    """
    return Address(_flip_odd(digit_stream(theta)))


def address_to_angle(a: Address) -> Fraction:
    """Exact angle of an address; inverse of angle_to_address.

    Distinct addresses may share an angle exactly when the angle is a
    dyadic rational (two binary expansions); the all-ones carry is resolved
    by exact rational summation.
    """
    return angle(_flip_odd(a.stream).to_fraction())


# ---------------------------------------------------------------------------
# The equivalence relation


class _CriticalTails:
    """The address equivalence of one theta0, decided on angles.

    Two addresses are equivalent when their angles are equal, or when some
    binary expansions of the two angles, flipped at their odd positions,
    are a critical pair w0d, w1d (d = epsilon_star(theta0)).  Unflipped,
    such a pair is two expansions that differ only in digit m = len(w) + 1
    and go on with one tail: d flipped at its odd positions when m is even
    (the tail c_0), at its even positions when m is odd (c_1 = 1 - c_0).
    For the angles a (the one whose expansion has digit 0 at m) and b in
    [0, 1) that says

        b = a + 2^-m (mod 1)  and  2^m a - c_m is an even integer.

    Every bit sequence whose value is an angle mod 1 is an expansion of it,
    so this covers both expansions of a dyadic angle.  Flipping d at its
    odd positions complements x0's digits after the first, so the tails are
    c_0 = 1 - 2 x0 and c_1 = 2 x0, computed once.
    """

    def __init__(self, theta0: Fraction):
        c1 = 2 * x0_digits(theta0)
        self.den = c1.denominator
        #: the numerators of c_0 and c_1 over den
        self.tails = (self.den - c1.numerator, c1.numerator)

    def related(self, u: int, v: int, den: int) -> bool:
        """Whether the angles u/den and v/den (0 <= u, v < den) are equivalent."""
        return u == v or self._split(u, v, den) or self._split(v, u, den)

    def _split(self, u: int, v: int, den: int) -> bool:
        """Whether u/den and v/den are the digit-0 and digit-1 halves of a critical pair."""
        d = (v - u) % den
        scale, r = divmod(den, d)
        if r or scale & (scale - 1):
            return False
        # with 2^m = scale, 2^m u/den - c_m = u/d - c_m must be an even integer
        td = self.den
        return (u * td - self.tails[(scale.bit_length() - 1) & 1] * d) % (2 * d * td) == 0


def addr_equivalent(x: Address, y: Address, theta0: Fraction) -> bool:
    """Exact decision of the address equivalence relation for theta0.

    True iff x = y as sequences, or {x, y} matches one of the rule shapes:

    1. the omega pair (010101..., 101010...);
    2. a same-angle pair w0(01)^inf / w1(10)^inf (the two addresses of one
       dyadic angle);
    3. a critical pair w0d / w1d with d = epsilon_star(theta0),

    closed under exchanging an address for the other representative of the
    same dyadic angle (without this closure the three literal shapes fail
    transitivity when theta0 itself is dyadic).  Rules 1 and 2 are exactly
    the pairs with equal underlying angles; all three are decided on the
    angles by :class:`_CriticalTails`.
    """
    a, b = address_to_angle(x), address_to_angle(y)
    den = lcm(a.denominator, b.denominator)
    return _CriticalTails(theta0).related(a.numerator * (den // a.denominator),
                                          b.numerator * (den // b.denominator), den)


# ---------------------------------------------------------------------------
# Cross-validation against the lamination model


@dataclass(frozen=True)
class AddressMatchReport:
    """Two-way comparison of address classes with 2L(x0) leaves."""

    leaves_checked: int
    leaf_failures: tuple
    words_checked: int
    word_failures: tuple

    @property
    def ok(self) -> bool:
        return not self.leaf_failures and not self.word_failures

    def __str__(self) -> str:
        return ("leaves %d (bad %d), words %d (bad %d) -> %s" % (
            self.leaves_checked, len(self.leaf_failures),
            self.words_checked, len(self.word_failures),
            "ok" if self.ok else "MISMATCH"))


def leaf_addresses_match(theta0: Fraction, depth: int) -> AddressMatchReport:
    """Check that leaves of 2L(x0) and critical address pairs correspond.

    Forward: the endpoint angles of every leaf of build_2L(theta0, depth)
    map to addr_equivalent addresses.  Converse: for every word w with
    len(w) <= depth, the two addresses w0d, w1d (d the critical body) map
    to angles that span a leaf of the lamination on the expected side
    (inside for even len(w), outside for odd).  A negative depth checks
    nothing and passes vacuously.

    Both directions run on the lamination's integer chords over its
    denominator.  The angle of the address w b d is (f + c)/2^(k+1) with f
    the k+1 bits of w b flipped at the odd positions and c the tail of
    :class:`_CriticalTails`.  A failing leaf is reported as a ``Leaf``, a
    failing word as (w, angle of w0d, angle of w1d).
    """
    t = require_nonperiodic(theta0)
    if depth < 0:
        return AddressMatchReport(0, (), 0, ())
    lam = build_2L(t, depth)
    tails = _CriticalTails(t)
    den, chords = lam.den, lam.chords
    leaf_failures = tuple(Leaf(Fraction(lo, den), Fraction(hi, den), side, d)
                          for (side, lo, hi), d in chords.items()
                          if not tails.related(lo, hi, den))

    word_failures = []
    td = tails.den
    for k in range(depth + 1):
        side = INSIDE if k % 2 == 0 else OUTSIDE
        unit, c = td << (k + 1), tails.tails[(k + 1) & 1]
        flip = _alternating(k + 1)
        for w in range(1 << k):
            f = (w << 1) ^ flip  # the angle digits of w0; w1 ends in the other bit
            u, ru = divmod((f * td + c) * den, unit)
            v, rv = divmod(((f ^ 1) * td + c) * den, unit)
            u, v = u % den, v % den
            if ru or rv or ((side, u, v) if u < v else (side, v, u)) not in chords:
                word_failures.append((format(w, "0%db" % k) if k else "",
                                      angle(Fraction(f * td + c, unit)),
                                      angle(Fraction((f ^ 1) * td + c, unit))))
    return AddressMatchReport(len(chords), leaf_failures, (2 << depth) - 1,
                              tuple(word_failures))


def cells_at_depth(n: int) -> list[str]:
    """All 2**n binary words naming the depth-n cells.

    The labels compose with the dynamics by shift: the image of cell w is
    the cell w[1:].  Depth 0 is the single unlabelled main cell [""].
    """
    if n < 0:
        raise DomainError("depth must be >= 0")
    return ["".join(bits) for bits in product("01", repeat=n)]


# ---------------------------------------------------------------------------
# Regulated-ray rewrite algebra


def _dyadic_text(code: int) -> str:
    """``"num/2**k"`` for the angle code (1 << k) | num, which is ``str`` of
    the equal ``Fraction`` because num is odd."""
    den = 1 << (code.bit_length() - 1)
    return "%d/%d" % (code ^ den, den)


class RegulatedRaySymbol(NamedTuple):
    """Symbol G(base; r1, r2, ...) for a regulated ray, plus a segment marker.

    base is "0" or "inf"; the angles are a finite tuple of dyadic angles in
    (0,1), each num/2**k (num odd, k >= 1) held as the integer code
    ``(1 << k) | num``: 1/2 is 3, 1/4 is 5 and 3/4 is 7.  The marker records
    that the symbol has absorbed the segment joining 0 and infinity (set by
    the image rule at r1 = 1/2).  Printed as e.g. "G(inf;1/2,1/4)" or
    "G(0;3/4)+seg".

    Build symbols from outside values with :meth:`of` or :meth:`parse`; the
    rewrite rules build their outputs directly, since they keep every code
    an angle in (0,1).
    """

    base: str
    angles: tuple[int, ...]
    marker: bool = False

    @classmethod
    def of(cls, base: str, angles, marker: bool = False) -> "RegulatedRaySymbol":
        """Validated symbol from angles given as Fractions or "p/q" text."""
        if base not in ("0", "inf"):
            raise DomainError('base must be "0" or "inf"')
        codes = []
        for r in angles:
            try:
                r = Fraction(r)
            except (TypeError, ValueError, ArithmeticError):
                raise DomainError("bad regulated-ray angle %r" % (r,)) from None
            num, den = r.numerator, r.denominator
            if not 0 < num < den:
                raise DomainError("regulated-ray angles must lie strictly in (0,1)")
            if den & (den - 1):
                raise DomainError("regulated-ray angles must be dyadic")
            codes.append(den | num)
        return cls(base, tuple(codes), marker)

    def __str__(self) -> str:
        inner = self.base
        if self.angles:
            inner += ";" + ",".join(map(_dyadic_text, self.angles))
        return "G(%s)%s" % (inner, "+seg" if self.marker else "")

    @staticmethod
    def parse(text: str) -> "RegulatedRaySymbol":
        text = text.strip()
        marker = False
        if text.endswith("+seg"):
            marker = True
            text = text[: -len("+seg")]
        if not (text.startswith("G(") and text.endswith(")")):
            raise DomainError('ray symbol must look like "G(base;r1,...)"')
        inner = text[2:-1]
        base, _, rest = inner.partition(";")
        return RegulatedRaySymbol.of(base, rest.split(",") if rest else (), marker)


def regulated_ray_image(g: RegulatedRaySymbol) -> RegulatedRaySymbol:
    """One application of the dynamics to a regulated-ray symbol.

    G(0; r1, ...)            -> G(inf; r1, ...)
    G(inf; r1, ...), r1!=1/2 -> G(0; 2*r1 mod 1, ...)
    G(inf; 1/2, r2, ...)     -> G(inf; r2, ...) with the segment marker set

    On the code (1 << k) | num of r1, doubling mod 1 clears bit k and sets
    bit k-1, and r1 = 1/2 is the code 3.
    """
    base, angles, marker = g
    if not angles:
        raise DomainError("cannot map a ray symbol with no angles")
    if base == "0":
        return RegulatedRaySymbol("inf", angles, marker)
    code = angles[0]
    if code == 3:
        return RegulatedRaySymbol("inf", angles[1:], True)
    half = 1 << (code.bit_length() - 2)
    return RegulatedRaySymbol("0", (code ^ (2 * half) | half,) + angles[1:], marker)


def regulated_ray_preimage(g: RegulatedRaySymbol
                           ) -> tuple[RegulatedRaySymbol, RegulatedRaySymbol]:
    """The two preimage symbols of a base-0 regulated ray.

    G(0; r1, ...) -> G(inf; r1/2, ...) and G(inf; (r1+1)/2, ...), that is
    num/2**k -> num/2**(k+1) and (num + 2**k)/2**(k+1): the code c of r1
    becomes c + 2**k and c + 2**(k+1).
    Base-inf symbols are rejected: their preimages pass through the
    absorption rule and are recovered via regulated_ray_image instead.
    """
    base, angles, marker = g
    if base != "0":
        raise DomainError("preimage rule applies to base-0 symbols only")
    if not angles:
        raise DomainError("cannot map a ray symbol with no angles")
    code, rest = angles[0], angles[1:]
    top = 1 << (code.bit_length() - 1)
    return (RegulatedRaySymbol("inf", (code + top,) + rest, marker),
            RegulatedRaySymbol("inf", (code + 2 * top,) + rest, marker))
