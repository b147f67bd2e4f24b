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

All functions are pure and exact.  Angles and addresses are ``Fraction``s
and bit tuples; regulated-ray angles are ``Dyadic`` int pairs, on which the
rewrite rules are digit shifts.
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
    angle,
    digit_stream,
    interleave_streams,
    nu_stream,
    require_nonperiodic,
)
from .laminations import INSIDE, OUTSIDE, build_2L


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
    def from_bits(pre, period) -> "Address":
        return Address(DigitStream.make(pre, period))

    @staticmethod
    def from_leading_body(leading: int, body: DigitStream) -> "Address":
        if leading not in (0, 1):
            raise DomainError("leading bit must be 0 or 1")
        return Address(DigitStream.make((leading,) + body.pre, body.period))

    def digit(self, m: int) -> int:
        return self.stream.digit(m)

    def prefix(self, n: int) -> list[int]:
        return self.stream.prefix(n)

    def shift(self) -> "Address":
        """Drop the first bit."""
        return Address(self.stream.shifted(1))

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


def shift(x: Address) -> Address:
    """Drop the first bit of an address."""
    return x.shift()


# ---------------------------------------------------------------------------
# Critical addresses


def complement_stream(s: DigitStream) -> DigitStream:
    """Bitwise complement, as a symbol sequence."""
    return DigitStream.make(
        tuple(1 - b for b in s.pre), tuple(1 - b for b in s.period)
    )


def epsilon_star(theta0: Fraction) -> DigitStream:
    """The shared body d of the two critical addresses.

    d interleaves the binary digits of theta0 with the complemented nu
    sequence: d[2m-1] = theta0[m], d[2m] = 1 - nu_m(theta0).
    """
    t = require_nonperiodic(theta0)
    return interleave_streams(digit_stream(t), complement_stream(nu_stream(t)))


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
    p, l = len(s.pre), len(s.period)
    if l % 2:
        l *= 2
    pre = tuple(s.digit(m) ^ (m & 1) for m in range(1, p + 1))
    per = tuple(s.digit(m) ^ (m & 1) for m in range(p + 1, p + l + 1))
    return DigitStream.make(pre, per)


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


def _first_difference(sx: DigitStream, sy: DigitStream) -> int | None:
    """1-indexed position of the first differing bit, or None if equal."""
    if sx == sy:
        return None
    bound = max(len(sx.pre), len(sy.pre)) + lcm(len(sx.period), len(sy.period))
    for m in range(1, bound + 1):
        if sx.digit(m) != sy.digit(m):
            return m
    return None


def _is_critical_pair(sx: DigitStream, sy: DigitStream, eps: DigitStream) -> bool:
    """True iff {sx, sy} = {w0 eps, w1 eps} for some common finite prefix w."""
    d = _first_difference(sx, sy)
    if d is None:
        return False
    return sx.shifted(d) == eps and sy.shifted(d) == eps


def _angle_reps(t: Fraction) -> list[DigitStream]:
    """All binary expansions of an angle: one, or two for dyadic angles."""
    s = digit_stream(t)
    reps = [s]
    t = angle(t)
    if t == 0:
        reps.append(DigitStream.make((), (1,)))
    elif t.denominator & (t.denominator - 1) == 0:
        # canonical terminating expansion: pre ends in 1, period (0)
        reps.append(DigitStream.make(s.pre[:-1] + (0,), (1,)))
    return reps


def _representatives(x: Address) -> list[Address]:
    """The addresses sharing x's underlying angle (x itself among them)."""
    return [Address(_flip_odd(s)) for s in _angle_reps(address_to_angle(x))]


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
    the pairs with equal underlying angles, which is how they are decided.
    """
    t = require_nonperiodic(theta0)
    if x.stream == y.stream:
        return True
    if address_to_angle(x) == address_to_angle(y):
        return True
    eps = epsilon_star(t)
    for xr in _representatives(x):
        for yr in _representatives(y):
            if _is_critical_pair(xr.stream, yr.stream, eps):
                return True
    return False


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
    to angles that either coincide or span a leaf of the lamination on the
    expected side (inside for even len(w), outside for odd).  A negative
    depth checks nothing and passes vacuously.
    """
    t = require_nonperiodic(theta0)
    if depth < 0:
        return AddressMatchReport(0, (), 0, ())
    lam = build_2L(t, depth)
    eps = epsilon_star(t)

    leaf_failures = []
    count = 0
    for leaf in lam:
        count += 1
        ax, ay = angle_to_address(leaf.a), angle_to_address(leaf.b)
        if not addr_equivalent(ax, ay, t):
            leaf_failures.append(leaf)

    word_failures = []
    nwords = 0
    for k in range(depth + 1):
        side = INSIDE if k % 2 == 0 else OUTSIDE
        for bits in product((0, 1), repeat=k):
            nwords += 1
            tu = address_to_angle(
                Address(DigitStream.make(bits + (0,) + eps.pre, eps.period)))
            tv = address_to_angle(
                Address(DigitStream.make(bits + (1,) + eps.pre, eps.period)))
            if tu == tv:
                continue
            if not lam.has(side, tu, tv):
                word_failures.append(("".join(map(str, bits)), tu, tv))
    return AddressMatchReport(count, tuple(leaf_failures), nwords,
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


class Dyadic(NamedTuple):
    """The angle num / 2**k in (0,1), with num odd and k >= 1.

    Printed as ``"num/2**k"``, which is ``str`` of the equal ``Fraction``
    because num is odd.
    """

    num: int
    k: int

    def __str__(self) -> str:
        return "%d/%d" % (self.num, 1 << self.k)


class RegulatedRaySymbol(NamedTuple):
    """Symbol G(base; r1, r2, ...) for a regulated ray, plus a segment marker.

    base is "0" or "inf"; the angles are a finite tuple of :class:`Dyadic`
    angles in (0,1).  The marker records that the symbol has absorbed the
    segment joining 0 and infinity (set by the image rule at r1 = 1/2).
    Printed as e.g. "G(inf;1/2,1/4)" or "G(0;3/4)+seg".

    Build symbols from outside values with :meth:`of` or :meth:`parse`; the
    rewrite rules build their outputs directly, since they keep every angle
    a dyadic in (0,1).
    """

    base: str
    angles: tuple[Dyadic, ...]
    marker: bool = False

    @classmethod
    def of(cls, base: str, angles, marker: bool = False) -> "RegulatedRaySymbol":
        """Validated symbol from angles given as Fractions or "p/q" text."""
        if base not in ("0", "inf"):
            raise DomainError('base must be "0" or "inf"')
        dyadics = []
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
            dyadics.append(Dyadic(num, den.bit_length() - 1))
        return cls(base, tuple(dyadics), marker)

    def __str__(self) -> str:
        inner = self.base
        if self.angles:
            inner += ";" + ",".join(str(r) for r in self.angles)
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

    On r1 = num/2**k, doubling mod 1 is (num mod 2**(k-1)) / 2**(k-1), and
    r1 = 1/2 is exactly k = 1.
    """
    base, angles, marker = g
    if not angles:
        raise DomainError("cannot map a ray symbol with no angles")
    if base == "0":
        return RegulatedRaySymbol("inf", angles, marker)
    num, k = angles[0]
    if k > 1:
        doubled = Dyadic(num & ((1 << (k - 1)) - 1), k - 1)
        return RegulatedRaySymbol("0", (doubled,) + angles[1:], marker)
    return RegulatedRaySymbol("inf", angles[1:], True)


def regulated_ray_preimage(g: RegulatedRaySymbol
                           ) -> tuple[RegulatedRaySymbol, RegulatedRaySymbol]:
    """The two preimage symbols of a base-0 regulated ray.

    G(0; r1, ...) -> G(inf; r1/2, ...) and G(inf; (r1+1)/2, ...), that is
    num/2**k -> num/2**(k+1) and (num + 2**k)/2**(k+1).
    Base-inf symbols are rejected: their preimages pass through the
    absorption rule and are recovered via regulated_ray_image instead.
    """
    base, angles, marker = g
    if base != "0":
        raise DomainError("preimage rule applies to base-0 symbols only")
    if not angles:
        raise DomainError("cannot map a ray symbol with no angles")
    (num, k), rest = angles[0], angles[1:]
    return (RegulatedRaySymbol("inf", (Dyadic(num, k + 1),) + rest, marker),
            RegulatedRaySymbol("inf", (Dyadic(num + (1 << k), k + 1),) + rest, marker))
