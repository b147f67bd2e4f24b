"""Rasterized parameter-plane and Julia-set pictures for f_a(z) = a/(z^2+2z).

The connectedness-locus raster (``m2_raster``) classifies each parameter
pixel by iterating the free critical orbit -1 -> -a -> f_a(-a) -> ...; the
parameter belongs to the locus exactly when that orbit does *not* converge
to the superattracting 2-cycle {0, infinity}.  Escape is detected with the
certified trap radii from :mod:`v2lam.dynamics.core`.

Julia rasters support two independent methods (useful as cross-checks):

- ``method="escape"``: iterate F = f∘f on a pixel grid and record the first
  trap entry together with which half-basin (0-side or infinity-side) was
  entered;
- ``method="inverse"``: accumulate backward orbits of a repelling fixed
  point under the two branches of f^-1, which converge to the Julia set.

Both trap-iteration rasters (``m2_raster`` and the escape method) run on
one kernel, ``_trap_iterate``.  It keeps only the still-active pixels, as
flat compacted arrays of their grid indices, orbit points and, where these
vary per pixel, parameters and trap radii; each step advances and tests
only those pixels, writes each newly trapped pixel's signed step count back
through its index, and drops it from the arrays.  The rasters supply only
their start values, step map and trap radii.

Outputs are ``Raster`` objects (int32 grids plus geometry) and can be
written as binary PGM/PPM images with a deterministic text sidecar.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from ..angles import DomainError
from .core import NumericError, _certify_trap_once, fixed_points, multiplier, trap_radii

__all__ = [
    "Raster",
    "m2_raster",
    "julia_raster",
    "julia_agreement",
]


@dataclass
class Raster:
    """A rectangular grid of int32 classification values with its geometry.

    Pixel centers: x_i = re_min + (i + 1/2) dx for column i, and rows are
    placed symmetrically about the horizontal midline im_mid =
    (im_min + im_max)/2 via y_j = im_mid + (j + 1/2 - height/2) dy, so that
    conjugation-symmetric windows give exactly conjugation-symmetric pixel
    centers in floating point.
    """

    width: int
    height: int
    re_min: float
    re_max: float
    im_min: float
    im_max: float
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def dx(self) -> float:
        return (self.re_max - self.re_min) / self.width if self.width else 0.0

    @property
    def dy(self) -> float:
        return (self.im_max - self.im_min) / self.height if self.height else 0.0

    def xs(self) -> np.ndarray:
        return self.re_min + (np.arange(self.width) + 0.5) * self.dx

    def ys(self) -> np.ndarray:
        mid = 0.5 * (self.im_min + self.im_max)
        return mid + (np.arange(self.height) + 0.5 - self.height / 2.0) * self.dy

    def write_pgm(self, path: str, levels: np.ndarray | None = None) -> None:
        """Write an 8-bit binary PGM (P5) plus a text sidecar ``path + '.txt'``.

        ``levels`` maps the raw int32 values to 0..255; by default value 0
        maps to 0 (black) and positive counts cycle through 64..255,
        negatives through 32..223.
        """
        img = _to_gray(self.values) if levels is None else levels
        _write_pnm(path, img, color=False)
        self._write_sidecar(path + ".txt")

    def write_ppm(self, path: str) -> None:
        """Write a binary PPM (P6) with sign-split coloring plus sidecar."""
        v = self.values
        r = np.zeros(v.shape, dtype=np.uint8)
        g = np.zeros(v.shape, dtype=np.uint8)
        b = np.zeros(v.shape, dtype=np.uint8)
        pos = v > 0
        neg = v < 0
        r[pos] = 64 + (v[pos] * 13) % 192
        b[neg] = 64 + ((-v[neg]) * 13) % 192
        g[~(pos | neg)] = 0  # members stay black
        img = np.stack([r, g, b], axis=-1)
        _write_pnm(path, img, color=True)
        self._write_sidecar(path + ".txt")

    def _write_sidecar(self, path: str) -> None:
        lines = [
            f"width {self.width}",
            f"height {self.height}",
            f"re_min {self.re_min!r}",
            f"re_max {self.re_max!r}",
            f"im_min {self.im_min!r}",
            f"im_max {self.im_max!r}",
        ]
        for key in sorted(self.meta):
            lines.append(f"{key} {self.meta[key]!r}")
        with open(path, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")


def _to_gray(v: np.ndarray) -> np.ndarray:
    img = np.zeros(v.shape, dtype=np.uint8)
    pos = v > 0
    neg = v < 0
    img[pos] = (64 + (v[pos] * 9) % 192).astype(np.uint8)
    img[neg] = (32 + ((-v[neg]) * 9) % 192).astype(np.uint8)
    return img


def _write_pnm(path: str, img: np.ndarray, color: bool) -> None:
    magic = b"P6" if color else b"P5"
    h, w = img.shape[:2]
    header = magic + b"\n" + f"{w} {h}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(img, dtype=np.uint8).tobytes())


def _grid(width, height, re_min, re_max, im_min, im_max):
    """Pixel-centre coordinates of a window; refuses a window with no finite grid."""
    if width < 0 or height < 0:
        raise DomainError("raster dimensions must be nonnegative")
    if not all(math.isfinite(b) for b in (re_min, re_max, im_min, im_max)):
        raise DomainError("raster bounds must be finite")
    if re_max < re_min or im_max < im_min:
        raise DomainError("raster bounds must be ordered")
    if not (math.isfinite(re_max - re_min) and math.isfinite(im_max - im_min)):
        raise NumericError("raster window span overflows")
    xs = re_min + (np.arange(width) + 0.5) * ((re_max - re_min) / width if width else 0.0)
    mid = 0.5 * (im_min + im_max)
    dy = (im_max - im_min) / height if height else 0.0
    ys = mid + (np.arange(height) + 0.5 - height / 2.0) * dy
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise NumericError("raster pixel centres overflow")
    return xs, ys


def _trap_iterate(values, active, step, n_max, *, test_start, inner_sign):
    """Iterate ``z <- step(z, c)`` on a compacted active set until each pixel is trapped.

    ``active`` is a list ``[idx, z, c, rho, r_out]`` that the kernel empties
    and from then on owns, so it can free each array as the set shrinks.
    Pixel ``idx[i]`` of the flat int32 grid ``values`` starts at ``z[i]``;
    a scalar ``z`` is a start shared by all pixels (only with ``test_start``
    false).  ``c``, ``rho`` and ``r_out`` are scalars or arrays aligned with
    ``idx``.  At step k = 1 .. n_max the orbit is advanced once (at k = 1
    only when ``test_start`` is false) and every active point with
    |z| <= rho, |z| >= r_out or a non-finite z is settled: its pixel gets
    ``k``, or ``inner_sign * k`` when it lies in the inner disc.  Settled
    pixels are dropped from the flat arrays, so each step costs only the
    pixels still active; pixels never trapped keep their value.  Overflow
    through the pole region is silent and counts as outer-trap entry at
    that step.
    """
    idx, z, c, rho, r_out = active
    active.clear()
    per_pixel = [np.ndim(x) > 0 for x in (c, rho, r_out)]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(1, n_max + 1):
            if not idx.size:
                break
            if k > 1 or not test_start:
                z = step(z, c)
            mag = np.abs(z)
            inner = mag <= rho
            hit = inner | ~np.isfinite(mag) | (mag >= r_out)
            if not hit.any():
                continue
            values[idx[hit]] = k
            values[idx[inner]] = inner_sign * k
            # Reassign one array at a time so each old copy is freed at once.
            keep = ~hit
            del mag, inner, hit
            idx = idx[keep]
            z = z[keep]
            if per_pixel[0]:
                c = c[keep]
            if per_pixel[1]:
                rho = rho[keep]
            if per_pixel[2]:
                r_out = r_out[keep]


def _f_step(z, a):
    """One step of f_a, kept out of place: in-place complex products round differently."""
    return a / (z * (z + 2.0))


def _ff_step(z, a):
    """One step of F = f_a∘f_a; huge |z| acts like infinity (f -> 0 -> non-finite)."""
    w = a / (z * (z + 2.0))
    return a / (w * (w + 2.0))


def m2_raster(
    width: int,
    height: int,
    re_min: float = -8.0,
    re_max: float = 4.0,
    im_min: float = -6.0,
    im_max: float = 6.0,
    n_max: int = 512,
) -> Raster:
    """Connectedness-locus raster over a parameter window.

    Value semantics per pixel (parameter a at the pixel center):

    - ``0``: member — the free critical orbit has not entered the certified
      trap after ``n_max`` steps of f;
    - ``n >= 1``: first step at which the orbit z_0 = -1, z_{k+1} = f_a(z_k)
      lies in the trap {|z| <= rho(a)} ∪ {|z| >= R(a)};
    - ``-1``: the puncture a = 0 (f_a degenerate), only possible when a
      pixel center lands exactly on 0.

    The orbits of all other pixels are iterated together with numpy on a
    compacted active set: flat arrays of the pixel indices, orbit points,
    parameters and trap radii that shrink as pixels are trapped, so each
    step costs only the pixels still undecided.  Non-finite intermediate
    values (overflow through the pole region) count as trap entry at that
    step.
    """
    _certify_trap_once()
    xs, ys = _grid(width, height, re_min, re_max, im_min, im_max)
    A = (xs[None, :] + 1j * ys[:, None]).ravel()
    values = np.zeros(A.size, dtype=np.int32)
    values[A == 0] = -1
    idx = np.flatnonzero(A)
    A = A[idx]
    with np.errstate(over="ignore"):
        mod_a = np.abs(A)
        r_out = 1.0 + np.sqrt(1.0 + np.maximum(4.0 * mod_a, 21.0))
    if np.isinf(r_out).any():
        # as in trap_radii: R overflows for |a| beyond ~4.5e307
        raise NumericError(
            f"trap radius R overflows double precision for |a| = {float(mod_a.max())!r}")
    # Every orbit starts at the critical point -1; the kernel takes over the
    # arrays, so no full-grid copy outlives the first compaction.
    active = [idx, np.complex128(-1.0), A, np.minimum(0.25, mod_a / 21.0), r_out]
    del idx, A, mod_a, r_out
    _trap_iterate(values, active, _f_step, n_max, test_start=False, inner_sign=1)
    return Raster(
        width, height, re_min, re_max, im_min, im_max, values.reshape(height, width),
        meta={"kind": "m2", "n_max": n_max},
    )


def julia_raster(
    a: complex,
    width: int,
    height: int,
    re_min: float = -3.5,
    re_max: float = 1.5,
    im_min: float = -2.5,
    im_max: float = 2.5,
    n_max: int = 512,
    method: str = "escape",
    points: int = 200_000,
    seed: int = 0,
) -> Raster:
    """Julia-set raster for a fixed parameter in the dynamical plane.

    ``method="escape"`` iterates F = f∘f from each pixel center and stores
    ``+n`` when the orbit first enters the outer trap {|z| >= R} at step n,
    ``-n`` for the inner trap {|z| <= rho}, and ``0`` when undecided after
    ``n_max`` steps (Julia-adjacent pixels).  The sign therefore encodes the
    F-invariant half-basin, whose common boundary is the Julia set.

    ``method="inverse"`` draws a repelling fixed point backward: iterate the
    two branches z = -1 ± sqrt(1 + a/w) of f^-1 with random branch choice,
    discard a transient, and histogram the orbit; pixels hit at least once
    get value 1.  Raises ``NumericError`` when no repelling fixed point is
    available.
    """
    a = complex(a)
    if a == 0:
        raise DomainError("parameter a must be nonzero")
    if method == "escape":
        return _julia_escape(a, width, height, re_min, re_max, im_min, im_max, n_max)
    if method == "inverse":
        return _julia_inverse(
            a, width, height, re_min, re_max, im_min, im_max, points, seed
        )
    raise DomainError(f"unknown julia method {method!r}")


def _julia_escape(a, width, height, re_min, re_max, im_min, im_max, n_max):
    _certify_trap_once()
    rho, r_out = trap_radii(a)
    xs, ys = _grid(width, height, re_min, re_max, im_min, im_max)
    values = np.zeros(width * height, dtype=np.int32)
    # Step 1 tests the pixel centers themselves; each later step applies F.
    active = [np.arange(values.size), (xs[None, :] + 1j * ys[:, None]).ravel(), a, rho, r_out]
    _trap_iterate(values, active, _ff_step, n_max, test_start=True, inner_sign=-1)
    return Raster(
        width, height, re_min, re_max, im_min, im_max, values.reshape(height, width),
        meta={"kind": "julia-escape", "a": a, "n_max": n_max, "rho": rho, "R": r_out},
    )


def _julia_inverse(a, width, height, re_min, re_max, im_min, im_max, points, seed):
    start = None
    for z in fixed_points(a):
        try:
            if abs(multiplier(a, z)) > 1.0 + 1e-9:
                start = z
                break
        except DomainError:
            continue
    if start is None:
        raise NumericError("no repelling fixed point found for inverse iteration")
    rng = random.Random(seed)
    transient = 128
    total = max(points, 1)
    xs, ys = _grid(width, height, re_min, re_max, im_min, im_max)
    values = np.zeros((height, width), dtype=np.int32)
    dx = (re_max - re_min) / width if width else 0.0
    dy = (im_max - im_min) / height if height else 0.0
    y0 = ys[0] - 0.5 * dy if height else 0.0
    w = start
    kept = 0
    steps = 0
    max_steps = 50 * (total + transient)
    while kept < total and steps < max_steps:
        steps += 1
        if w == 0:
            w = start
            continue
        root = complex(np.sqrt(complex(1.0 + a / w)))
        z = -1.0 + root if rng.random() < 0.5 else -1.0 - root
        w = z
        if steps <= transient:
            continue
        kept += 1
        i = int((z.real - re_min) / dx) if dx else -1
        j = int((z.imag - y0) / dy) if dy else -1
        if 0 <= i < width and 0 <= j < height:
            values[j, i] += 1
    return Raster(
        width, height, re_min, re_max, im_min, im_max, values,
        meta={"kind": "julia-inverse", "a": a, "points": total, "seed": seed},
    )


def julia_agreement(escape: Raster, inverse: Raster) -> float:
    """Fraction of inverse-method pixels lying on the escape-method boundary.

    The escape boundary is the set of pixels whose 4-neighborhood contains
    both signs (outer and inner basin), dilated by one pixel; the returned
    value is the fraction of pixels hit by the inverse method that fall in
    this dilated boundary.  The two rasters must share geometry.
    """
    if (escape.width, escape.height) != (inverse.width, inverse.height):
        raise DomainError("julia_agreement requires equal raster shapes")
    v = escape.values
    pos = v > 0
    neg = v < 0
    boundary = np.zeros(v.shape, dtype=bool)
    # A pixel is boundary if among itself and its 4-neighbors both signs occur.
    near_pos = pos.copy()
    near_neg = neg.copy()
    for arr_src, arr_dst in ((pos, near_pos), (neg, near_neg)):
        arr_dst[1:, :] |= arr_src[:-1, :]
        arr_dst[:-1, :] |= arr_src[1:, :]
        arr_dst[:, 1:] |= arr_src[:, :-1]
        arr_dst[:, :-1] |= arr_src[:, 1:]
    boundary = near_pos & near_neg
    # Dilate by one pixel (8-neighborhood): rows first, then columns of the
    # row-dilated mask, which covers all Chebyshev-distance-1 offsets.
    rows = boundary.copy()
    rows[1:, :] |= boundary[:-1, :]
    rows[:-1, :] |= boundary[1:, :]
    dil = rows.copy()
    dil[:, 1:] |= rows[:, :-1]
    dil[:, :-1] |= rows[:, 1:]
    hits = inverse.values > 0
    total = int(hits.sum())
    if total == 0:
        return 0.0
    return float((hits & dil).sum()) / total
