"""Deterministic SVG rendering of laminations.

Inside leaves are drawn as hyperbolic geodesics: circular arcs orthogonal to
the unit circle (straight diameters for antipodal endpoint pairs).  Outside
leaves use the complementary arc of the same orthogonal circle, which lies
outside the disk; antipodal outside leaves become the two straight radial
rays of the extended diameter.

Output is plain SVG 1.1 text; all coordinates are formatted with six decimal
places, so identical input produces byte-identical documents.
"""

from __future__ import annotations

import math

from .laminations import INSIDE, Lamination

DEFAULT_INSIDE = "#1f77b4"
DEFAULT_OUTSIDE = "#d62728"
#: Pixel radius of the unit circle, canvas margin, and stroke width.
RADIUS = 300
MARGIN = 24
STROKE_WIDTH = 1.0
DEPTH_PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728",
    "#9467bd", "#8c564b", "#e377c2", "#7f7f7f",
)


def _fmt(x: float) -> str:
    s = "%.6f" % x
    return "0.000000" if s == "-0.000000" else s


def render_svg(lam: Lamination, color_by_depth: bool = False) -> str:
    """Render the lamination to an SVG document string.

    ``color_by_depth`` cycles an 8-color palette by leaf depth instead of
    the side colors.
    """
    size = 2 * (RADIUS + MARGIN)
    cx = cy = size / 2.0
    r = float(RADIUS)

    def unit(t: float) -> tuple[float, float]:
        a = 2.0 * math.pi * t
        return math.cos(a), math.sin(a)

    def color(side: str, depth: int) -> str:
        if color_by_depth:
            return DEPTH_PALETTE[depth % len(DEPTH_PALETTE)]
        return DEFAULT_INSIDE if side == INSIDE else DEFAULT_OUTSIDE

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'width="%d" height="%d" viewBox="0 0 %d %d">' % (size, size, size, size),
        '<rect width="%d" height="%d" fill="white"/>' % (size, size),
        '<circle cx="%s" cy="%s" r="%s" fill="none" stroke="black" '
        'stroke-width="%s"/>' % (_fmt(cx), _fmt(cy), _fmt(r), _fmt(STROKE_WIDTH)),
    ]

    groups = {INSIDE: [], "O": []}
    width = _fmt(STROKE_WIDTH)
    n = lam.den
    for (side, a, b), depth in lam.chords.items():
        # int true division is correctly rounded, so a / n == float(Fraction(a, n))
        (cu, su), (cv, sv) = unit(a / n), unit(b / n)
        ux, uy = cx + r * cu, cy - r * su
        vx, vy = cx + r * cv, cy - r * sv
        stroke = ' stroke="%s" stroke-width="%s" fill="none"' % (color(side, depth), width)
        antipodal = 2 * (b - a) == n
        if antipodal and side == INSIDE:
            el = '<line x1="%s" y1="%s" x2="%s" y2="%s"%s/>' % (
                _fmt(ux), _fmt(uy), _fmt(vx), _fmt(vy), stroke)
        elif antipodal:
            # extended diameter: two radial rays leaving the disk
            el = ('<path d="M %s %s L %s %s M %s %s L %s %s"%s/>' % (
                _fmt(ux), _fmt(uy), _fmt(cx + 2 * (ux - cx)), _fmt(cy + 2 * (uy - cy)),
                _fmt(vx), _fmt(vy), _fmt(cx + 2 * (vx - cx)), _fmt(cy + 2 * (vy - cy)),
                stroke))
        else:
            # circle orthogonal to the unit circle through both endpoints:
            # center (u+v)/(1 + Re(u conj(v))) in unit coordinates
            u, v = complex(cu, su), complex(cv, sv)
            den = 1.0 + (u * v.conjugate()).real
            c = (u + v) / den
            rad = abs(u - c)
            px, py = cx + r * c.real, cy - r * c.imag
            pr = r * rad
            cross = (ux - px) * (vy - py) - (uy - py) * (vx - px)
            sweep = 1 if cross > 0 else 0
            large = 0
            if side != INSIDE:
                large, sweep = 1, 1 - sweep
            el = '<path d="M %s %s A %s %s 0 %d %d %s %s"%s/>' % (
                _fmt(ux), _fmt(uy), _fmt(pr), _fmt(pr), large, sweep,
                _fmt(vx), _fmt(vy), stroke)
        groups[INSIDE if side == INSIDE else "O"].append(el)

    lines.append('<g id="inside">')
    lines.extend(groups[INSIDE])
    lines.append('</g>')
    lines.append('<g id="outside">')
    lines.extend(groups["O"])
    lines.append('</g>')
    lines.append('</svg>')
    return "\n".join(lines) + "\n"
