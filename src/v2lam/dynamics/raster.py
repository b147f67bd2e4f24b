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
their start values, the number of f steps per kernel step and trap radii.
Three rules make this cheap without changing a single output value:

- **One rounding.**  Each step of f is computed as ``a / ((z + 2) * z)``
  with the product formed in place (``_f_step``), so a pixel's orbit rounds
  the same whether 10 or 10^6 pixels are active; it is a function of its
  own start and parameter alone.
- **Certified retirement.**  Every attracting cycle other than the
  supercycle {0, infinity} attracts the free critical point -1, and pixels
  caught by one would iterate all ``n_max`` steps only to end as 0.  The
  kernel saves each orbit point now and then, and when an orbit comes back
  near its saved point, ``_certify`` tries to prove that the pixel's float
  orbit never enters a trap: a disc about the point that f^p maps into
  itself and whose images all miss the traps.  A certified pixel is
  dropped with value 0, the value it would reach at ``n_max``; boundary
  and parabolic pixels never certify and keep iterating.
- **Mirrored windows.**  A window with im_min = -im_max (and, for a Julia
  set, a real a) has pixel centres that are exact conjugates across its
  midline, and f commutes with conjugation bit for bit, so only the first
  ceil(height/2) rows are iterated and the rest are their mirror image.

Outputs are ``Raster`` objects (int32 grids plus geometry) and can be
written as binary PGM/PPM images with a deterministic text sidecar.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field

import numpy as np

from ..angles import DomainError
from .core import (NumericError, _trap_radii_of_modulus, fixed_point_multiplier, fixed_points,
                   trap_radii)

__all__ = [
    "Raster",
    "m2_raster",
    "julia_raster",
    "julia_agreement",
]


@dataclass
class Raster:
    """A rectangular grid of int32 classification values with its geometry.

    Pixel centers (``_grid``): x_i = re_min + (i + 1/2) dx for column i, and
    rows are placed symmetrically about the horizontal midline im_mid =
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

    def xs(self) -> np.ndarray:
        return self._centres()[0]

    def ys(self) -> np.ndarray:
        return self._centres()[1]

    def _centres(self):
        return _grid(self.width, self.height, self.re_min, self.re_max, self.im_min, self.im_max)

    def write_pgm(self, path: str) -> None:
        """Write an 8-bit binary PGM (P5) plus a text sidecar ``path + '.txt'``.

        Value 0 maps to 0 (black); positive counts cycle through 64..255,
        negatives through 32..223.
        """
        _write_pnm(path, _to_gray(self.values), color=False)
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
    """Pixel centres (xs, ys) and spacings (dx, dy); refuses a window with no finite grid."""
    if width < 0 or height < 0:
        raise DomainError("raster dimensions must be nonnegative")
    if not all(math.isfinite(b) for b in (re_min, re_max, im_min, im_max)):
        raise DomainError("raster bounds must be finite")
    if re_max < re_min or im_max < im_min:
        raise DomainError("raster bounds must be ordered")
    if not (math.isfinite(re_max - re_min) and math.isfinite(im_max - im_min)):
        raise NumericError("raster window span overflows")
    dx = (re_max - re_min) / width if width else 0.0
    dy = (im_max - im_min) / height if height else 0.0
    xs = re_min + (np.arange(width) + 0.5) * dx
    ys = 0.5 * (im_min + im_max) + (np.arange(height) + 0.5 - height / 2.0) * dy
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise NumericError("raster pixel centres overflow")
    return xs, ys, dx, dy


def _trap_iterate(values, active, f_steps, n_max, *, test_start, inner_sign):
    """Iterate ``z <- f^f_steps(z)`` on a compacted active set until each pixel is settled.

    ``active`` is a list ``[idx, z, c, rho, r_out]`` that the kernel empties
    and from then on owns, so it can free each array as the set shrinks.
    Pixel ``idx[i]`` of the flat int32 grid ``values`` starts at ``z[i]``;
    a scalar ``z`` is a start shared by all pixels (only with ``test_start``
    false).  ``c``, ``rho`` and ``r_out`` are scalars or arrays aligned with
    ``idx``.  At step k = 1 .. n_max the orbit is advanced by ``f_steps``
    steps of f_c (at k = 1 only when ``test_start`` is false) and every
    active point with |z| <= rho, |z| >= r_out or a non-finite z is trapped:
    its pixel gets ``k``, or ``inner_sign * k`` when it lies in the inner
    disc.  Trapped pixels are dropped from the flat arrays, so each step
    costs only the pixels still active; pixels never trapped keep their
    value.  Overflow through the pole region is silent and counts as
    outer-trap entry at that step.

    Pixels attracted by a cycle other than the supercycle are retired
    early.  Each active point is saved at steps 8, 16, 32 and every 32
    steps after, and a pixel whose orbit comes back to within
    ``_CLOSE * (1 + |saved point|)`` of its saved point after p steps
    becomes pending with the first such lag p.  At the next save the pending pixels are
    passed to ``_certify`` in one batch, unless their remaining work is too
    small to pay for it (``_GATE``), and those it certifies are dropped with
    their value 0.
    """
    idx, z, c, rho, r_out = active
    active.clear()
    per_pixel = [np.ndim(x) > 0 for x in (c, rho, r_out)]
    saved = lag = tol = None
    saved_at, window_end = 0, _next_save(0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(1, n_max + 1):
            if not idx.size:
                break
            if k > 1 or not test_start:
                for _ in range(f_steps):
                    z = _f_step(z, c)
            mag = np.abs(z)
            # nan compares false, so a non-finite point is never inside.
            inside = (mag > rho) & (mag < r_out)
            drop = None
            if not inside.all():
                drop = ~inside
                values[idx[drop]] = k
                values[idx[mag <= rho]] = inner_sign * k
            del mag, inside
            if saved is not None:
                # A point found back has its saved copy set to nan, so only
                # its first lag in the window is kept.
                back = np.abs(z - saved) <= tol
                if back.any():
                    lag[back] = k - saved_at
                    saved[back] = np.nan
                del back
            if k == window_end:
                if lag is not None and lag.any():
                    pending = np.flatnonzero(lag)
                    if pending.size * (n_max - k) >= _GATE * int(lag.max()):
                        sub = [x[pending] if per else x
                               for x, per in zip((c, rho, r_out), per_pixel)]
                        ok = pending[_certify(z[pending], lag[pending] * f_steps, *sub)[0]]
                        if ok.size:
                            drop = np.zeros(idx.size, dtype=bool) if drop is None else drop
                            drop[ok] = True
                saved_at, window_end = k, _next_save(k)
                saved = lag = tol = None
            if drop is not None:
                # Reassign one array at a time so each old copy is freed at once.
                keep = ~drop
                del drop
                idx = idx[keep]
                z = z[keep]
                if per_pixel[0]:
                    c = c[keep]
                if per_pixel[1]:
                    rho = rho[keep]
                if per_pixel[2]:
                    r_out = r_out[keep]
                if saved is not None:
                    saved, lag, tol = saved[keep], lag[keep], tol[keep]
            if saved_at == k and window_end < n_max:
                # ``z`` is only ever rebound, so ``saved`` may share it.
                saved = z
                lag = np.zeros(idx.size, dtype=np.int8)
                tol = _CLOSE * (1.0 + np.abs(z))


#: Relative distance at which an orbit counts as back at its saved point.
_CLOSE = 1e-3

#: Pixel-steps of remaining work per certification step below which a
#: window's pending pixels are left to iterate.  One step of ``_certify``
#: makes some 40 numpy calls, about the cost of this many pixel-steps of the
#: main loop, so certification never costs much more than it can save.
_GATE = 2048


def _next_save(k):
    """The save step after step k: 8, 16, 32, then every 32 steps."""
    return 8 if k < 8 else 2 * k if k < 32 else k + 32


def _certify(z, n, c, rho, r_out):
    """Which points z have a forward orbit under f_c that provably never enters a trap.

    Returns the mask of certified points and the radius r_0 tried for each.

    ``n`` holds each point's candidate cycle length in steps of f.  Along
    the float orbit z_0 = z, z_1 = f(z_0), ... the multiplier lam of f^n
    and the closing gap |z_n - z| give a radius
    r_0 = max(|z_n - z|, 1e-9 (1 + |z|)) (2 + 4/(1 - |lam|)), tried only
    where |lam| < 0.98.  The disc D_0 = D(z, r_0) is carried through n steps
    by f(D(x, r)) ⊂ D(f(x), |c| e / (|q| (|q| - e))), with q = x(x + 2)
    and e = r (|2x + 2| + r) (since w(w + 2) - q = (w - x)(w + x + 2)),
    where 2e <= |q| keeps |q| - e free of cancellation.  Each new radius is
    widened by 1e-12 (bound + |centre|), far above the rounding of a float
    step of f and of the kernel's |z|.  A point is certified when the discs
    D_1 ... D_n miss both traps and D_n lies inside D(z, (1 - 1e-6) r_0):
    then f^n maps D_0 into itself, so the float orbit of z stays in
    D_1 ∪ ... ∪ D_n for ever and is never trapped.  ``c``, ``rho`` and
    ``r_out`` are scalars or arrays aligned with ``z``.
    """
    # Sort by cycle length, longest first, so that the points still moving
    # at step i are a leading slice.
    order = np.argsort(-n, kind="stable")
    z, n = z[order], n[order]
    c, rho, r_out = (x[order] if np.ndim(x) else x for x in (c, rho, r_out))
    live = [int(np.count_nonzero(n > i)) for i in range(int(n[0]))]
    # |f'(w)| = 2 |w + 1| |f(w)| / |q|; the factors 2 are applied at the end.
    lam = np.ones(z.size, dtype=np.complex128)
    w = z.copy()
    for m in live:
        x = w[:m]
        q = x + 2.0
        q *= x
        fx = _head(c, m) / q
        x += 1.0
        x *= fx
        x /= q
        lam[:m] *= x
        w[:m] = fx
    r0 = np.maximum(np.abs(w - z), 1e-9 * (1.0 + np.abs(z)))
    lam = np.abs(lam)
    lam *= 2.0 ** n
    ok = lam < 0.98
    r0 *= 2.0 + 4.0 / (1.0 - np.where(ok, lam, 0.0))
    mod_c = np.abs(c)
    centre, r = z.copy(), r0.copy()
    for m in live:
        x, rm = centre[:m], r[:m]
        q = x + 2.0
        q *= x
        mod_q = np.abs(q)
        e = np.abs(x + 1.0)
        e *= 2.0
        e += rm
        e *= rm
        ok[:m] &= e + e <= mod_q
        bound = _head(mod_c, m) * e
        bound /= mod_q * (mod_q - e)
        x[:] = _head(c, m) / q
        size = np.abs(x)
        rm[:] = (1.0 + 1e-12) * bound + 1e-12 * size
        ok[:m] &= (size - rm > _head(rho, m)) & (size + rm < _head(r_out, m))
    ok &= np.abs(centre - z) + r <= (1.0 - 1e-6) * r0
    unsort = np.argsort(order)
    return ok[unsort], r0[unsort]


def _head(x, m):
    """The first m entries of a per-pixel array, or a scalar shared by all pixels."""
    return x[:m] if np.ndim(x) else x


def _f_step(z, a):
    """One step of f_a as ``a / ((z + 2) * z)``, in that operand order at every size.

    Under numpy's temporary elision ``z * (z + 2.0)`` is computed in place
    as (z + 2)·z once the temporary holds 16,384 elements (256 KiB) or more,
    and as z·(z + 2) below that; with FMA the two orders round the product
    differently, so a pixel's value would depend on how many others are
    still active.  The in-place product fixes the order.
    """
    w = z + 2.0
    w *= z
    return a / w


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
    xs, ys, _, _ = _grid(width, height, re_min, re_max, im_min, im_max)
    rows = _iterated_rows(height, im_min == -im_max)
    A = (xs[None, :] + 1j * ys[:rows, None]).ravel()
    values = np.zeros(A.size, dtype=np.int32)
    values[A == 0] = -1
    idx = np.flatnonzero(A)
    A = A[idx]
    with np.errstate(over="ignore"):
        rho, r_out = _trap_radii_of_modulus(np.abs(A))
    # Every orbit starts at the critical point -1; the kernel takes over the
    # arrays, so no full-grid copy outlives the first compaction.
    active = [idx, np.complex128(-1.0), A, rho, r_out]
    del idx, A, rho, r_out
    _trap_iterate(values, active, 1, n_max, test_start=False, inner_sign=1)
    return Raster(
        width, height, re_min, re_max, im_min, im_max, _mirrored(values, rows, height, width),
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
    if method == "escape":
        return _julia_escape(a, width, height, re_min, re_max, im_min, im_max, n_max)
    if method == "inverse":
        return _julia_inverse(
            a, width, height, re_min, re_max, im_min, im_max, points, seed
        )
    raise DomainError(f"unknown julia method {method!r}")


def _julia_escape(a, width, height, re_min, re_max, im_min, im_max, n_max):
    rho, r_out = trap_radii(a)
    xs, ys, _, _ = _grid(width, height, re_min, re_max, im_min, im_max)
    rows = _iterated_rows(height, im_min == -im_max and a.imag == 0)
    values = np.zeros(width * rows, dtype=np.int32)
    # Step 1 tests the pixel centers themselves; each later step applies F.
    active = [np.arange(values.size), (xs[None, :] + 1j * ys[:rows, None]).ravel(), a, rho, r_out]
    _trap_iterate(values, active, 2, n_max, test_start=True, inner_sign=-1)
    return Raster(
        width, height, re_min, re_max, im_min, im_max, _mirrored(values, rows, height, width),
        meta={"kind": "julia-escape", "a": a, "n_max": n_max, "rho": rho, "R": r_out},
    )


def _iterated_rows(height, symmetric):
    """The rows a raster iterates: ceil(height/2) for a window symmetric under conjugation."""
    return (height + 1) // 2 if symmetric else height


def _mirrored(values, rows, height, width):
    """The (height, width) grid whose first ``rows`` rows are ``values`` and the rest their mirror.

    Pixel centres of a window with im_min = -im_max are exact conjugates
    across the midline (see ``_grid``), and the step commutes with
    conjugation bit for bit, so a mirrored row holds the values it would get.
    """
    v = values.reshape(rows, width)
    if rows == height:
        return v
    return np.concatenate((v, v[:height - rows][::-1]))


def _julia_inverse(a, width, height, re_min, re_max, im_min, im_max, points, seed):
    start = next((z for z in fixed_points(a) if abs(fixed_point_multiplier(a, z)) > 1.0 + 1e-9),
                 None)
    if start is None:
        raise NumericError("no repelling fixed point found for inverse iteration")
    rng = random.Random(seed)
    transient = 128
    total = max(points, 1)
    _, ys, dx, dy = _grid(width, height, re_min, re_max, im_min, im_max)
    values = np.zeros((height, width), dtype=np.int32)
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
        root = cmath.sqrt(1.0 + a / w)
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
