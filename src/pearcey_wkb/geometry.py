"""Characteristic roots, Borel singularities and derived loci.

The characteristic cubic of the system is

    4 zeta^3 + 2 x2 zeta + x1 = 0,

whose discriminant zero set T = {27 x1^2 + 8 x2^3 = 0} is the turning-point
locus.  Root labels ell = 1, 2, 3 are fixed by analytic continuation from
the reference locus {x2 = 0, x1 > 0}, where

    zeta_ell(x1, 0) = -(x1/4)^(1/3) e^(2 pi i ell / 3),
    u_ell(x1, 0)    =  p_ell x1^(4/3),   p_ell = (3/4^(4/3)) e^(2 pi i ell/3),

with principal real roots for x1 > 0.  Here u_ell = -(1/4)(3 x1 zeta_ell +
2 x2 zeta_ell^2) are the Borel-plane singularities (minus the critical
values of the phase).

The labeling path is a fixed convention, not a parameter: ``labeling_path``
gives the one polyline from (1, 0) to each point.  ``labeled_point`` tracks
the roots along it once and keeps, from that one trace, the labeled
zeta_ell, the u_ell and the continued branch of
f_0 = (6 zeta_ell^2 + x2)^(-1/2) (``LabeledPoint.f0``).  ``char_roots``,
``critical_values`` and ``wkb_series.f0_branch`` read it.

Two derived polynomials are derived exactly rather than transcribed from
the paper, because their published displays fail quasi-homogeneity checks
(weights 3, 2, 4, 4 for x1, x2, y, F):

* ``singular_locus_cubic`` -- the cubic in y cutting out the Borel
  singularities, the z-discriminant of z^4 + x2 z^2 + x1 z + y, written
  out in closed form (the tests check it against the elimination).
* ``stokes_sextic`` -- the degree-6 polynomial in F whose roots at a fixed
  base point are the pairwise differences of critical values; obtained
  from the cubic as its squared-difference resolvent at G = F^2.
"""

from __future__ import annotations

import functools
from cmath import isfinite
from dataclasses import dataclass

import numpy as np

from . import tracking
from .aberth import roots_aberth
from .errors import NumericError, TurningPointError, ValidationError
from .multipoly import MultiPoly, eval_grid

TURNING_TOL = 1e-12
RESIDUAL_TOL = 1e-10
TURNING_GUARD = 0.08  # labeling legs closer than this (relative) to T are bowed

XYVARS = ("x1", "x2", "y")


@dataclass(frozen=True)
class PlanePoint:
    """Base-plane point (x1, x2)."""

    x1: complex
    x2: complex

    def __post_init__(self):
        if not (isfinite(self.x1) and isfinite(self.x2)):
            raise ValidationError("plane point must be finite")

    def as_tuple(self) -> tuple[complex, complex]:
        return (complex(self.x1), complex(self.x2))


@dataclass(frozen=True)
class LabeledRoots3:
    """Three labeled roots: ``values[i]`` carries label ell = i + 1."""

    values: tuple[complex, complex, complex]

    def __getitem__(self, ell: int) -> complex:
        if ell not in (1, 2, 3):
            raise ValidationError("label must be 1, 2 or 3")
        return self.values[ell - 1]


def p_ell(ell: int) -> complex:
    """Scaled singularity position p_ell = (3/4^(4/3)) e^(2 pi i ell / 3)."""
    return 3.0 / 4.0 ** (4.0 / 3.0) * np.exp(2j * np.pi * ell / 3.0)


def char_cubic_coeffs(x: PlanePoint) -> np.ndarray:
    """Ascending coefficients of 4 zeta^3 + 2 x2 zeta + x1."""
    x1, x2 = x.as_tuple()
    return np.array([x1, 2 * x2, 0.0, 4.0], dtype=complex)


def turning_discriminant(x: PlanePoint):
    """Value of 27 x1^2 + 8 x2^3 and an on-locus flag; ``NumericError``
    naming x where a power overflows."""
    x1, x2 = x.as_tuple()
    try:
        a = 27 * x1**2
        b = 8 * x2**3
    except OverflowError:
        raise NumericError(f"turning discriminant overflows at (x1, x2) = {(x1, x2)}") from None
    value = a + b
    on_set = abs(value) <= TURNING_TOL * max(abs(a), abs(b), 1.0)
    return value, on_set


def reference_zetas(x1) -> np.ndarray:
    """Exact labels on the reference locus x2 = 0, x1 > 0."""
    x1 = complex(x1)
    if x1.imag != 0 or x1.real <= 0:
        raise ValidationError("reference locus requires real x1 > 0")
    r = (x1.real / 4.0) ** (1.0 / 3.0)
    return np.array([-r * np.exp(2j * np.pi * ell / 3) for ell in (1, 2, 3)])


def labeling_path(x: PlanePoint) -> tuple[PlanePoint, ...]:
    """The labeling path of x: a polyline from the reference point (1, 0).

    Coordinates move one at a time (x1 leg then x2 leg, or the reverse when
    the target x1 is small); any leg that approaches the turning locus is
    bowed by shifting its closest point in the +i direction of x1.  The leg
    order and the bow side are the labeling convention.  A leg that five
    nested bows leave within 1e-4 (relative) of the locus raises
    ``ValidationError`` naming its endpoints.
    """
    x1, x2 = x.as_tuple()
    if abs(x1) >= 0.1 * max(1.0, abs(x2) ** 1.5):
        raw = [(1.0 + 0j, 0j), (x1, 0j), (x1, x2)]
    else:
        raw = [(1.0 + 0j, 0j), (1.0 + 0j, x2), (x1, x2)]
    pts = [raw[0]]
    for a, b in zip(raw[:-1], raw[1:]):
        if a == b:
            continue
        pts.extend(_bow_leg(a, b, depth=0))
    return tuple(PlanePoint(*p) for p in pts)


def _bow_leg(a, b, depth: int) -> list:
    """Waypoints from a to b (exclusive of a) bowed off the turning locus."""
    ts = np.linspace(0.0, 1.0, 65)
    s1 = max(abs(a[0]), abs(b[0]))
    s2 = max(abs(a[1]), abs(b[1]))
    denom = max(27 * s1**2, 8 * s2**3, 1.0)
    worst = None
    for t in ts:
        p1 = a[0] + (b[0] - a[0]) * t
        p2 = a[1] + (b[1] - a[1]) * t
        v = 27 * p1**2 + 8 * p2**3
        rel = abs(v) / denom
        if worst is None or rel < worst[0]:
            worst = (rel, t)
    if worst[0] >= TURNING_GUARD or depth >= 5:
        if worst[0] < 1e-4:
            raise ValidationError(
                "labeling path cannot avoid the turning locus on its leg from "
                "(x1, x2) = ({:.8g}, {:.8g}) to ({:.8g}, {:.8g})".format(*a, *b)
            )
        return [b]
    t = min(max(worst[1], 0.15), 0.85)
    mid1 = a[0] + (b[0] - a[0]) * t
    mid2 = a[1] + (b[1] - a[1]) * t
    scale = max(1.0, abs(a[0]), abs(b[0]), abs(a[1]), abs(b[1]))
    mid = (mid1 + 0.4j * scale, mid2)
    return _bow_leg(a, mid, depth + 1) + _bow_leg(mid, b, depth + 1)


def char_trace(path: tuple[PlanePoint, ...]) -> tracking.Trace:
    """Characteristic roots tracked along a labeling path's (x1, x2) polyline.

    Starts from the exact labels at ``path[0]``, the reference point (1, 0)
    of a labeling path; each record's point is an (x1, x2) tuple.
    """
    return tracking.track_polyline(
        lambda p: char_cubic_coeffs(PlanePoint(*p)),
        [p.as_tuple() for p in path],
        reference_zetas(path[0].x1),
    )


@dataclass(frozen=True)
class LabeledPoint:
    """The labels of one base point x, fixed along its labeling path.

    ``trace`` tracks the characteristic roots along ``labeling_path(x)``;
    ``zetas`` are its final roots, checked against the characteristic cubic,
    and ``us`` the Borel singularities u_ell = -(1/4)(3 x1 zeta_ell +
    2 x2 zeta_ell^2) over them, checked against the singular-locus cubic.
    """

    x: PlanePoint
    trace: tracking.Trace
    zetas: LabeledRoots3
    us: LabeledRoots3

    def f0(self, ell: int) -> complex:
        """f_0 = (6 zeta_ell^2 + x2)^(-1/2) continued along the trace."""
        # accumulated phase of w = 6 zeta^2 + x2, seeded by the continuous
        # reference convention arg zeta_ell = pi + 2 pi ell / 3
        theta = 2.0 * (np.pi + 2.0 * np.pi * ell / 3.0)
        w_prev = None
        # walk the recorded steps, unwrapping the phase of w
        for (_, x2_here), triple in zip(self.trace.points, self.trace.values):
            w = 6.0 * triple[ell - 1] ** 2 + x2_here
            if w_prev is None:
                w_prev = w
                continue
            ratio = w / w_prev
            dtheta = np.angle(ratio)
            if abs(dtheta) > 2.5:
                raise ValidationError(
                    "phase step too large while continuing f0; refine the path"
                )
            theta += dtheta
            w_prev = w
        return abs(w_prev) ** (-0.5) * np.exp(-0.5j * theta)


def labeled_point(x: PlanePoint) -> LabeledPoint:
    """The labels of x, tracked along ``labeling_path(x)``.

    Each point is labeled once per process and shared by every caller.  The
    cache is keyed on the coordinates' bit patterns as well, so 0.0 and
    -0.0 (equal as ``PlanePoint`` fields) are labeled apart.  A point on the
    turning locus is rejected: labels are undefined there.
    """
    return _labeled_point(x, np.array(x.as_tuple(), dtype=complex).tobytes())


@functools.lru_cache(maxsize=32)
def _labeled_point(x: PlanePoint, bits: bytes) -> LabeledPoint:
    # ``bits`` only keys the cache
    _, on_t = turning_discriminant(x)
    if on_t:
        raise TurningPointError("turning point: labels undefined")
    trace = char_trace(labeling_path(x))
    zetas = trace.final
    resid = [abs(np.polyval(char_cubic_coeffs(x)[::-1], z)) for z in zetas]
    scale = max(1.0, *(abs(v) for v in char_cubic_coeffs(x)))
    if max(resid) > RESIDUAL_TOL * scale * 10:
        raise TurningPointError("characteristic roots failed residual check")
    x1, x2 = x.as_tuple()
    us = tuple(-(3 * x1 * z + 2 * x2 * z * z) / 4.0 for z in zetas)
    coeffs = singular_cubic_coeffs(x)
    scale = max(1.0, max(abs(u) for u in us)) ** 3 * max(abs(c) for c in coeffs)
    for u in us:
        r = np.polyval(coeffs[::-1], u)
        if abs(r) > RESIDUAL_TOL * scale * 100:
            raise ValidationError(
                f"critical value {u} fails the singular-locus cubic (residual {abs(r):.2e})"
            )
    return LabeledPoint(x, trace, LabeledRoots3(tuple(zetas)), LabeledRoots3(us))


def char_roots(x: PlanePoint) -> LabeledRoots3:
    """Labeled characteristic roots zeta_ell(x)."""
    return labeled_point(x).zetas


def critical_values(x: PlanePoint) -> LabeledRoots3:
    """Borel singularities u_ell = -(1/4)(3 x1 zeta_ell + 2 x2 zeta_ell^2)."""
    return labeled_point(x).us


# -- derived polynomials (cached, computed once) ----------------------------------


@functools.cache
def singular_locus_cubic() -> MultiPoly:
    """Cubic in y cutting out the Borel singularities over (x1, x2).

    It is the z-discriminant of the depressed quartic z^4 + x2 z^2 + x1 z + y,

        256 y^3 - 128 x2^2 y^2 + 144 x1^2 x2 y - 27 x1^4 + 16 x2^4 y
        - 4 x1^2 x2^3,

    written out in integers (``multipoly.discriminant`` of the quartic
    gives it term for term).  Its terms are listed in the order that
    elimination leaves them in, which the compiled evaluator sums in, so
    that every value it gives is bitwise the elimination's.  The published
    display of this cubic is not used (two of its printed terms are
    inconsistent with quasi-homogeneity).
    """
    return MultiPoly(
        XYVARS,
        {(2, 3, 0): -4, (0, 4, 1): 16, (4, 0, 0): -27, (2, 1, 1): 144, (0, 2, 2): -128,
         (0, 0, 3): 256},
    )


@functools.cache
def _cubic_line():
    return singular_locus_cubic().compile("y")


def singular_cubic_coeffs(x: PlanePoint) -> list[complex]:
    """Ascending numeric coefficients in y of the singular-locus cubic."""
    return _cubic_line()(*x.as_tuple())


def singular_cubic_grid(x1, x2) -> np.ndarray:
    """Cubic coefficients over broadcast arrays of x1 and x2, shape (..., 4)."""
    return eval_grid(_cubic_line(), x1, x2)


@functools.cache
def stokes_sextic() -> MultiPoly:
    """Degree-6 polynomial in F over (x1, x2) cutting out the Stokes set.

    Its roots are the differences +-(y_j - y_k) of the roots of
    ``singular_locus_cubic()``, a y^3 + b y^2 + c y + d, so it is that
    cubic's squared-difference resolvent at G = F^2:

        a^4 G^3 - 2 a^2 (b^2 - 3ac) G^2 + (b^2 - 3ac)^2 G - Disc,

    with Disc the cubic's discriminant, in exact integers, made primitive
    (content 2^16; the F^6 term is positive).  It is even in F: a cubic in
    F^2.  The published sextic display is not used (its F^2 term has the
    wrong weighted degree and its leading term is off by 2^12).
    """
    fvars = ("x1", "x2", "F")
    d, c, b, a = (p.drop_variable("y").embed(fvars)
                  for p in singular_locus_cubic().as_univariate("y"))
    g = MultiPoly.var(fvars, "F", 2)
    k = b * b - a * c * 3
    disc = b * b * c * c - a * c**3 * 4 - b**3 * d * 4 - a * a * d * d * 27 + a * b * c * d * 18
    return (a**4 * g**3 - a * a * k * g * g * 2 + k * k * g - disc).primitive()[0]


@functools.cache
def _sextic_line():
    return stokes_sextic().compile("F")


def stokes_sextic_coeffs(x: PlanePoint) -> list[complex]:
    """Ascending numeric coefficients in F of the derived sextic at x."""
    return _sextic_line()(*x.as_tuple())


def stokes_sextic_grid(x1, x2) -> np.ndarray:
    """Sextic coefficients over broadcast arrays of x1 and x2, shape (..., 7)."""
    return eval_grid(_sextic_line(), x1, x2)


def stokes_sextic_roots(x: PlanePoint) -> np.ndarray:
    """The six roots in F of the derived sextic at x: +- the square roots of
    the roots of its even part, a cubic in G = F^2."""
    f = np.sqrt(roots_aberth(stokes_sextic_coeffs(x)[::2]))
    return np.concatenate([f, -f])


def export_polynomials() -> dict:
    """JSON-ready export of the derived polynomials."""
    return {
        "singular_locus_cubic": singular_locus_cubic().to_json(),
        "stokes_sextic": stokes_sextic().to_json(),
    }
