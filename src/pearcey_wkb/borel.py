"""The degree-4 algebraic function of the Borel plane.

The Laplace-form integrand g(x1, x2, y) = -1/(4z^3 + 2x2 z + x1), with z a
root of z^4 + x2 z^2 + x1 z + y = 0, satisfies the quartic

    A(x1,x2,y) g^4 + B(x1,x2,y) g^2 - 8 x1 g + 1 = 0,
    A = 4 x1^2 x2 (36y - x2^2) + 16 y (x2^2 - 4y)^2 - 27 x1^4,
    B = 2 (-8 x2 y + 2 x2^3 + 9 x1^2),

with zero cubic term (so the four branches sum to 0) and A equal to the
singular-locus cubic in y.  In scaled coordinates s = y/x1^(4/3),
t = x2/x1^(2/3) the function h = x1 g obeys

    (256 s^3 - 128 s^2 t^2 + 16 s t (t^3 + 9) - 4 t^3 - 27) h^4
        + (4 t^3 - 16 s t + 18) h^2 - 8 h + 1 = 0.

Branch labels come in two chart systems:

* origin chart: h1..h4 by the germs at (s, t) = (0, 0),
      h1 = 1/3 + (4/9) e^(-2 pi i/3) s + (2/9) e^(2 pi i/3) t + ...
      h2 = 1/3 + (4/9) e^(+2 pi i/3) s + (2/9) e^(-2 pi i/3) t + ...
      h3 = 1/3 + (4/9) s + (2/9) t + ...,   h4 = -1 - 2 s t - 4 s^3 + ...
* p_ell charts: at s = p_ell (t = 0) the two singular branches carry
      +- (2^(-5/6)/sqrt(3)) e^(-2 pi i ell/3) (p_ell - s)^(-1/2)
  and the two regular branches tend to (4 + i sqrt2)/18 and
  (4 - i sqrt2)/18.  The square root uses the cut along the negative real
  direction from p_ell with (p_ell - s)^(-1/2) = i kappa_ell
  (s - p_ell)^(-1/2), kappa = (-1, +1, +1), principal branch on the right.

Every Borel transform of a WKB solution is the sheet difference

    psi_ell_B = (i / sqrt(pi)) (-1)^(ell-1) (g_ell - g_4),

which this module evaluates, continues along paths, and differentiates
across cuts (discontinuity operators).  Every Borel-plane path of one base
point x, monodromy loops included, runs through one :class:`SheetField`.
It tracks the four roots z_k of z^4 + x2 z^2 + x1 z + y = 0 in y, the
preimages of y = -phi(z), phi(z) = z^4 + x2 z^2 + x1 z, and reads sheet k
as g_k = -1/phi'(z_k) (h_k = x1 g_k) only where a value is read (Berry and
Howls 1991: the Borel transform of a saddle expansion is dz/dy over the
preimages).  In z two roots meet only where y is a critical value u_ell,
at the critical point zeta_ell, so a path in y needs no planning beyond
the u_ell.  The origin labels are the roots at y = 0 in closed form
(:meth:`SheetField.origin_sheets`), and each transform's anchor is local at
its own u_ell (:meth:`SheetField.local_sheets`), with no route from the
origin.

The chart functions (``quartic_spec``, ``origin_germs``,
``branches_at_origin``, ``branches_at_p``) share no code with
:class:`SheetField`: they track h itself, in the quartics above, and serve
``verify`` and the tests as an independent oracle.
"""

from __future__ import annotations

import cmath
import functools
from collections.abc import Callable
from dataclasses import dataclass
from math import pi, sqrt

import numpy as np

from . import tracking
from .errors import ContinuationError, CutError, NumericError, ValidationError
from .geometry import (
    XYVARS,
    PlanePoint,
    labeled_point,
    p_ell,
)
from .multipoly import MultiPoly, compile_polys

STVARS = ("s", "t")
T_VALIDITY = 0.2  # |x2 / x1^(2/3)| bound inside which chart results are validated
SEED_SCALE = 0.02
SEED_HALVINGS = 8  # halvings of a rejected origin seed point before seeding gives up
RHO_REL = 0.18  # approach radius around a singularity, relative to min separation
PASS_REL = 0.05  # a route leg or Laplace ray passing nearer a singularity than this (same scale)
ANCHOR_REL = 0.3  # anchor radius above each u_ell, relative to min separation
LOOP_REL = 0.25  # monodromy loop radius around u_ell, relative to |u_ell|
GERM_MISFIT = 0.2  # largest relative misfit of a local pair against its series germ


# -- quartic data -----------------------------------------------------------------


def _xy_quartic_polys() -> list[MultiPoly]:
    """Exact coefficient polynomials [c0..c4] of the quartic in g."""
    x1 = MultiPoly.var(XYVARS, "x1")
    x2 = MultiPoly.var(XYVARS, "x2")
    y = MultiPoly.var(XYVARS, "y")
    A = (
        x1**2 * x2 * (y * 36 - x2**2) * 4
        + y * (x2**2 - y * 4) ** 2 * 16
        - x1**4 * 27
    )
    B = (x2 * y * -8 + x2**3 * 2 + x1**2 * 9) * 2
    one = MultiPoly.const(XYVARS, 1)
    return [one, x1 * -8, B, MultiPoly.zero(XYVARS), A]


def _st_quartic_polys() -> list[MultiPoly]:
    s = MultiPoly.var(STVARS, "s")
    t = MultiPoly.var(STVARS, "t")
    lead = (
        s**3 * 256
        - s**2 * t**2 * 128
        + s * t * (t**3 + 9) * 16
        - t**3 * 4
        - MultiPoly.const(STVARS, 27)
    )
    quad = t**3 * 4 - s * t * 16 + MultiPoly.const(STVARS, 18)
    one = MultiPoly.const(STVARS, 1)
    return [one, MultiPoly.const(STVARS, -8), quad, MultiPoly.zero(STVARS), lead]


@dataclass(frozen=True)
class QuarticSpec:
    """Quartic coefficient functions for one chart ('xy' or 'st')."""

    chart: str
    evaluate: Callable  # compiled coefficient list, see compile_polys

    def coeffs(self, *point) -> list[complex]:
        """Ascending numeric coefficients at a chart point."""
        return self.evaluate(*map(complex, point))


@functools.cache
def quartic_spec(chart: str) -> QuarticSpec:
    if chart not in ("xy", "st"):
        raise ValidationError("chart must be 'xy' or 'st'")
    polys = _xy_quartic_polys() if chart == "xy" else _st_quartic_polys()
    return QuarticSpec(chart, compile_polys(polys, f"quartic, {chart} chart"))


# -- sheet permutations ----------------------------------------------------------


def cycle_notation(perm: tuple[int, ...]) -> str:
    """One-line cycle notation (1-based) of a sheet permutation."""
    seen = [False] * len(perm)
    out = []
    for i in range(len(perm)):
        if seen[i] or perm[i] == i:
            seen[i] = True
            continue
        cyc = [i]
        seen[i] = True
        j = perm[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = perm[j]
        out.append("(" + " ".join(str(k + 1) for k in cyc) + ")")
    return "".join(out) if out else "()"


# -- origin chart ---------------------------------------------------------------


def origin_germs(s: complex, t: complex) -> np.ndarray:
    """First-order origin-chart germ values [h1..h4]."""
    w = np.exp(2j * pi / 3)
    s = complex(s)
    t = complex(t)
    return np.array(
        [
            1 / 3 + 4 / 9 * s / w + 2 / 9 * t * w,
            1 / 3 + 4 / 9 * s * w + 2 / 9 * t / w,
            1 / 3 + 4 / 9 * s + 2 / 9 * t,
            -1 - 2 * s * t - 4 * s**3,
        ],
        dtype=complex,
    )


def _seed_scale(s: complex, t: complex) -> float:
    """The factor f of the origin seed point (f s, f t) of (s, t)."""
    scale = max(abs(s), abs(t))
    return 1.0 if scale == 0 else min(1.0, SEED_SCALE / scale)


def branches_at_origin(s: complex, t: complex) -> np.ndarray:
    """The four origin-labeled sheet values h1..h4 at (s, t).

    Labels are seeded by one tracker step (:func:`tracking.polish`) from the
    first-order germs at the seed point, (s, t) scaled down to max(|s|, |t|)
    <= ``SEED_SCALE``: the step's residual test and collision guard decide
    them.  A rejected step (near t = 2s, where the germs of h1 and h2
    coincide to first order) halves the seed point along the same ray, up to
    ``SEED_HALVINGS`` times, and no accepted step raises
    ``ContinuationError`` naming (s, t) and the last seed radius tried.  The
    seeded values are continued radially to the requested point; meeting the
    discriminant en route raises ``ContinuationError`` with the obstruction
    point.
    """
    s = complex(s)
    t = complex(t)
    if s == 0 and t == 0:
        return np.array([1 / 3, 1 / 3, 1 / 3, -1], dtype=complex)
    spec = quartic_spec("st")
    f = _seed_scale(s, t)
    s1, t1 = s * f, t * f
    for k in range(SEED_HALVINGS + 1):
        s0, t0 = s1 * 0.5**k, t1 * 0.5**k
        germs = origin_germs(s0, t0).tolist()
        seeded = tracking.polish(spec.coeffs(s0, t0), germs, germs)
        if seeded is not None:
            break
    else:
        raise ContinuationError(
            f"no origin-chart seed for (s, t) = ({s:.6g}, {t:.6g}): the germ step was "
            f"rejected down to seed radius {max(abs(s0), abs(t0)):.3g}",
            location=(s, t),
        )
    if (s0, t0) == (s, t):
        return np.array(seeded, dtype=complex)
    trace = tracking.track_polyline(lambda p: spec.coeffs(*p), [(s0, t0), (s, t)], seeded)
    return trace.final


# -- p_ell charts ----------------------------------------------------------------

KAPPA = {1: -1.0, 2: 1.0, 3: 1.0}
H3_CONST = (4 + 1j * sqrt(2)) / 18
H4_CONST = (4 - 1j * sqrt(2)) / 18


def singular_pair_scale(ell: int) -> complex:
    """Coefficient of (p_ell - s)^(-1/2) in the singular germ h1^(ell)."""
    return 2.0 ** (-5.0 / 6.0) / sqrt(3.0) * np.exp(-2j * pi * ell / 3)


def root_inv_p(ell: int, s: complex) -> complex:
    """(p_ell - s)^(-1/2) on the convention cut leftward from p_ell.

    Defined as i * kappa_ell * (s - p_ell)^(-1/2) with the principal square
    root on the right (upper-side boundary values on the cut).
    """
    z = complex(s) - p_ell(ell)
    if z.imag == 0.0:
        z = complex(z.real, 0.0)  # +0 imaginary part: upper-side convention
    return 1j * KAPPA[ell] / np.sqrt(z)


def branches_at_p(ell: int, s: complex, t: complex = 0.0) -> np.ndarray:
    """The four p_ell-chart sheet values [h1^(ell) .. h4^(ell)] at (s, t).

    At t = 0 labels follow the local germs (singular pair by the signed
    square-root germ, regular pair by the constants (4 +- i sqrt2)/18); for
    t != 0 the t = 0 labels are continued in t at fixed s.
    """
    if ell not in (1, 2, 3):
        raise ValidationError("ell must be 1, 2 or 3")
    s = complex(s)
    t = complex(t)
    pl = p_ell(ell)
    if abs(s - pl) < 1e-10:
        raise CutError(
            f"evaluation at the branch point p_{ell}; the local cut starts there"
        )
    spec = quartic_spec("st")
    roots = np.roots(spec.coeffs(s, 0.0)[::-1])
    order = np.argsort([min(abs(r - H3_CONST), abs(r - H4_CONST)) for r in roots])
    reg = [roots[order[0]], roots[order[1]]]
    sing = [roots[order[2]], roots[order[3]]]
    if abs(reg[0] - H3_CONST) + abs(reg[1] - H4_CONST) > abs(
        reg[0] - H4_CONST
    ) + abs(reg[1] - H3_CONST):
        reg = [reg[1], reg[0]]
    germ_diff = 2.0 * singular_pair_scale(ell) * root_inv_p(ell, s)
    if ((sing[0] - sing[1]) * np.conj(germ_diff)).real < 0:
        sing = [sing[1], sing[0]]
    vals = np.array([sing[0], sing[1], reg[0], reg[1]], dtype=complex)
    if t == 0:
        return vals
    trace = tracking.track_polyline(lambda tt: spec.coeffs(s, tt), [0j, t], vals)
    return trace.final


# -- path tracking -----------------------------------------------------------------


def track_s_with_bows(field, vals, path) -> np.ndarray:
    """Leg-by-leg tracking of ``field``'s sheets along a y-path.

    A path is a list of pieces, each a point or a :class:`tracking.Arc`.  It
    starts at its first piece and runs straight to each next point, one
    tracker leg (a :class:`tracking.Segment`) per stretch; it runs straight
    to an arc's start (unless it is already there) and then along the arc,
    one leg.  A failing leg raises ``ContinuationError`` naming the piece
    and the tau or angle reached.  (``perfbench/tracer.py`` binds this
    name.)
    """
    cur = np.asarray(vals, dtype=complex)
    here = _start(path[0])
    for piece in path:
        start = _start(piece)
        if start != here:
            cur = tracking.track_family(field.coeffs_at, tracking.Segment(here, start), cur).final
        here = start
        if isinstance(piece, tracking.Arc):
            cur = tracking.track_family(field.coeffs_at, piece, cur).final
            here = piece.end
    return cur


def _start(piece) -> complex:
    """Where a path piece (a point or an arc) begins."""
    return piece.start if isinstance(piece, tracking.Arc) else complex(piece)


def monodromy(ell: int, x: PlanePoint) -> tuple[int, ...]:
    """Sheet permutation (origin labels) around u_ell of ``labeled_point(x)``.

    The sheets are carried from y = 0 to the base point on the origin side
    of u_ell, then once around the counterclockwise circle of radius
    ``LOOP_REL * |u_ell|`` about u_ell (one arc leg), both through
    :class:`SheetField`.  The result maps starting label i (0-based) to the
    label its continuation matches on return.
    """
    field = SheetField(x)
    center = field.u(ell)
    theta0 = float(np.angle(-center))  # the base point faces the origin
    loop = tracking.Arc(center, LOOP_REL * abs(center), theta0, theta0 + 2 * pi)
    base_vals = field.track_y_polyline([loop.start])
    looped = field.track_from(base_vals, [loop])
    return tuple(tracking.match_labels(looped, base_vals))


# -- psi evaluation ---------------------------------------------------------------


@dataclass
class PsiValue:
    """Evaluation result with chart-validity flag and diagnostics."""

    value: complex
    chart_validated: bool


class SheetField:
    """The four sheets of the Borel plane of one x, as the roots z_1..z_4 of
    z^4 + x2 z^2 + x1 z + y = 0 continued in y.

    Sheet k reads g_k = -1/phi'(z_k), phi'(z) = 4 z^3 + 2 x2 z + x1
    (:meth:`g`), only where a value is read.  A path is a list of y-plane
    points and :class:`tracking.Arc` pieces, as in :func:`track_s_with_bows`;
    the family's ascending coefficients at y are ``[y, x1, x2, 0, 1]``.
    ``c`` is the principal cube root of x1 (x1 = 0 raises
    ``ValidationError``) and ``t = x2 / c^2`` the scaled coordinate that
    ``chart_validated`` bounds.

    Origin labels hold at y = 0 (:meth:`origin_sheets`), from where
    :meth:`track_y_polyline` carries them; monodromy and ``verify`` start
    there.  Each Borel transform also has an *anchor*: the sheet tuple at
    the point u_ell + i r directly above its singularity, built there from
    the local pair that meets at zeta_ell (:meth:`local_sheets`).  On the
    standard slit plane (cuts from every u_k in the +real direction, local
    branch fixed by 0 <= arg(y - u_ell) < 2 pi) the transform's value
    equals its local series there, so continuing from the anchor realizes
    the standard branch.
    """

    def __init__(self, x: PlanePoint):
        x1 = complex(x.x1)
        if x1 == 0:
            raise ValidationError("x1 must be nonzero for the scaling chart")
        self.x = x
        self.x1, self.x2 = x1, complex(x.x2)
        self.c = abs(x1) ** (1.0 / 3.0) * np.exp(1j * np.angle(x1) / 3.0)
        self.t = self.x2 / self.c**2
        point = labeled_point(x)
        self.u_vals = np.array(point.us.values, dtype=complex)
        self.zetas = np.array(point.zetas.values, dtype=complex)
        self.min_sep = tracking._min_pairwise(self.u_vals)
        self._anchors: dict[int, tuple[complex, np.ndarray]] = {}  # see anchor

    @property
    def chart_validated(self) -> bool:
        return abs(self.t) <= T_VALIDITY

    def u(self, ell: int) -> complex:
        """The labelled singularity u_ell (ell = 1, 2 or 3)."""
        if ell not in (1, 2, 3):
            raise ValidationError("ell must be 1, 2 or 3")
        return self.u_vals[ell - 1]

    def coeffs_at(self, y: complex) -> list[complex]:
        """Ascending coefficients of the z-quartic at y."""
        return [y, self.x1, self.x2, 0j, 1 + 0j]

    def g(self, z):
        """The sheet value g = -1/phi'(z) of a root z (or an array of them)."""
        return -1 / ((4 * z * z + 2 * self.x2) * z + self.x1)

    def origin_sheets(self) -> np.ndarray:
        """The origin-labelled sheets at y = 0.

        Sheet 4 is z = 0 (h4 = -1).  Sheets 1, 2 and 3 are the roots of
        z^3 + x2 z + x1: at x2 = 0 they are c (e^(-i pi/3), e^(i pi/3), -1)
        (h = 1/3, and dh/ds = (4/9) zhat^2, dh/dt = -(2/9) zhat with zhat =
        z / c give the germs of ``origin_germs``), and one degree-3 leg
        continues them in x2 to the field's.  Two of them meet on that leg
        only where |t| = 3 / 2^(2/3) and t^3 is real and negative, past the
        validated chart; the leg then raises ``ContinuationError``.
        """
        cube = [self.c * w for w in (cmath.exp(-1j * pi / 3), cmath.exp(1j * pi / 3), -1)]
        if self.x2 != 0:
            try:
                leg = tracking.track_family(
                    lambda x2: [self.x1, x2, 0j, 1 + 0j], tracking.Segment(0j, self.x2), cube
                )
            except ContinuationError as err:
                raise ContinuationError(
                    f"origin labels: the roots of z^3 + x2 z + x1 continued in x2: {err}",
                    location=err.location,
                ) from err
            cube = leg.final.tolist()
        return np.array([*cube, 0j])

    def track_y_polyline(self, y_path) -> np.ndarray:
        """Sheet 4-tuple at the end of a y-plane path from y = 0, origin
        labels, the first stretch straight from 0."""
        return track_s_with_bows(self, self.origin_sheets(), [0j, *y_path])

    def track_from(self, vals, y_path) -> np.ndarray:
        """Continue a known tuple along a y-plane path starting at its
        first piece."""
        return track_s_with_bows(self, vals, y_path)

    def track_stops(self, vals, y0: complex, y1: complex, stops) -> list[np.ndarray]:
        """Sheet tuples at the points y0 + (y1 - y0) tau of the segment
        y0 -> y1, one per tau in the ascending ``stops`` (in (0, 1]).

        The segment is one tracker leg landing on every stop (in one batch
        after its steps, see ``tracking.track_family``).
        """
        leg = tracking.track_family(self.coeffs_at, tracking.Segment(y0, y1), vals, stops=stops)
        at = dict(zip(leg.taus, leg.values))
        return [at[tau] for tau in stops]

    def local_sheets(self, ell: int, y: complex) -> np.ndarray:
        """The sheet tuple at y near u_ell, built from the local roots.

        With y = u_ell + w^2 the pair that meets at zeta_ell starts at
        zeta_ell +- w sqrt(-2 / phi''(zeta_ell)), and the other two roots
        at the roots of z^2 + 2 zeta_ell z + x2 + 3 zeta_ell^2, the
        quartic's cofactor of (z - zeta_ell)^2 at y = u_ell.  One tracker
        step (:func:`tracking.polish`) polishes all four; a rejected step
        raises ``ContinuationError``.  The pair becomes sheets ell and 4,
        in the order whose transform fits the local series germ: a misfit
        above ``GERM_MISFIT`` either way raises ``ValidationError``.  The
        other two take the remaining places; no value read here depends on
        their order.
        """
        u, zeta = complex(self.u(ell)), complex(self.zetas[ell - 1])
        d = cmath.sqrt(complex(y) - u) * cmath.sqrt(-2 / (12 * zeta * zeta + 2 * self.x2))
        root = cmath.sqrt(-2 * zeta * zeta - self.x2)
        guess = [-zeta + root, -zeta - root]
        guess.insert(ell - 1, zeta + d)
        guess.append(zeta - d)
        sheets = tracking.polish(self.coeffs_at(y), guess, guess)
        if sheets is None:
            raise ContinuationError(
                f"the local roots at u_{ell} fail the tracker step at y = {complex(y):.6g}",
                location=y,
            )
        sheets = np.array(sheets)
        got = self.psi_from_sheets(ell, sheets)
        ref = self._series_germ(ell, y)
        if abs(got + ref) < abs(got - ref):
            sheets[[ell - 1, 3]] = sheets[[3, ell - 1]]
            got = -got
        if abs(got - ref) > GERM_MISFIT * abs(ref):
            raise ValidationError(
                f"anchor germ disagrees with the local series "
                f"({abs(got - ref) / abs(ref):.2e} relative)"
            )
        return sheets

    def anchor(self, ell: int) -> tuple[complex, np.ndarray]:
        """Anchor point u_ell + i r, r = ``ANCHOR_REL`` min_sep, and the
        sheet tuple there (:meth:`local_sheets`), cached per ell."""
        if ell not in self._anchors:
            point = self.u(ell) + 1j * ANCHOR_REL * self.min_sep
            self._anchors[ell] = (point, self.local_sheets(ell, point))
        return self._anchors[ell]

    def _series_germ(self, ell: int, y: complex) -> complex:
        from .wkb_series import borel_coeffs

        bct = borel_coeffs(self.x, ell, 6)
        return bct.eval_series(y)

    def psi_from_sheets(self, ell: int, sheets) -> complex:
        return 1j / sqrt(pi) * (-1) ** (ell - 1) * (self.g(sheets[ell - 1]) - self.g(sheets[3]))


def psi_borel_eval(
    ell: int,
    x: PlanePoint,
    y: complex,
    path: list | None = None,
    allow_unvalidated: bool = False,
) -> PsiValue:
    """Evaluate the standard branch of one Borel transform at y.

    The default route runs from the transform's anchor above u_ell to y
    without crossing any of the three cuts; an explicit ``path`` (y-plane
    polyline from the anchor to y) overrides it.
    """
    field = SheetField(x)
    if not field.chart_validated and not allow_unvalidated:
        raise ValidationError(
            f"outside validated chart: |t| = {abs(field.t):.3f} > {T_VALIDITY}"
        )
    a, sheets0 = field.anchor(ell)
    if path is None:
        path = _slit_plane_route(field, a, complex(y))
    try:
        sheets = field.track_from(sheets0, [a] + list(path))
    except NumericError as e:
        e.args = (f"continuing to y = {complex(y)}: {e}",)
        raise
    return PsiValue(
        value=field.psi_from_sheets(ell, sheets),
        chart_validated=field.chart_validated,
    )


def _crosses_cut(a: complex, b: complex, u: complex) -> bool:
    """Does segment a->b cross the horizontal cut {u + sigma, sigma >= 0}?

    A point on the cut's line counts as above it, so a segment ending on
    the cut from above touches it without crossing: the value there is the
    one from above, as in ``discontinuity``.
    """
    ai = (a - u).imag
    bi = (b - u).imag
    if (ai >= 0) == (bi >= 0):
        return False
    tau = ai / (ai - bi)
    re = (a - u).real + tau * ((b - u).real - (a - u).real)
    return re > -1e-14


def _slit_plane_route(field: SheetField, start: complex, y: complex) -> list[complex]:
    """Waypoints from ``start`` to y avoiding the three cuts.

    The route runs left at the start's height to Re = min Re(u) - min_sep,
    then vertically to y's height and right to y.  Where that last leg
    would pass within ``PASS_REL`` min_sep of a singularity u_k, it runs
    ``RHO_REL`` min_sep above or below u_k instead, on y's side of u_k's
    cut, and the route drops vertically to y.
    """
    us = field.u_vals
    if not any(_crosses_cut(start, y, u) for u in us):
        return [y]
    L = min(u.real for u in us) - field.min_sep
    w1, w2 = complex(L, start.imag), complex(L, y.imag)
    u = min(us, key=lambda u: _segment_point_distance(w2, y, u))
    if _segment_point_distance(w2, y, u) < PASS_REL * field.min_sep:
        rho = RHO_REL * field.min_sep
        height = u.imag + (rho if y.imag >= u.imag else -rho)
        route = [w1, complex(L, height), complex(y.real, height), y]
    else:
        route = [w1, w2, y]
    for a, b in zip([start] + route[:-1], route):
        if any(_crosses_cut(a, b, u) for u in us):
            raise ContinuationError(
                "could not build a cut-avoiding route; supply an explicit path",
                location=y,
            )
    return route


def _segment_point_distance(a: complex, b: complex, p: complex) -> float:
    d = b - a
    if d == 0:
        return abs(p - a)
    tau = max(0.0, min(1.0, ((p - a) / d).real))
    return abs(a + tau * d - p)


# -- discontinuities ----------------------------------------------------------------


@dataclass
class DiscontinuityResult:
    value: complex
    hypothesis_ok: bool
    details: str = ""


def discontinuity(
    kind: str,
    ell: int,
    k: int,
    field_or_x,
    y: complex,
) -> DiscontinuityResult:
    """Discontinuity of a continued Borel transform across the cut at u_k.

    ``plain``: jump at u_k of the transform labeled ell continued from its
    anchor germ along the segment u_ell -> u_k.  ``tilde``: same after the
    detour through the remaining singularity u_j (segment to u_j, branch
    swap there, segment to u_k).  ``y`` must lie on the cut {u_k + positive
    reals} with |y - u_k| below half the singularity separation; the jump
    f(y) - f(u_k + (y - u_k) e^(2 pi i)) is read on the cut, from the two
    sides of the circle of radius |y - u_k| (``_cut_jump``).  ``field_or_x``
    is the base point or its ``SheetField``, whose anchors are then reused.
    """
    if kind not in ("plain", "tilde"):
        raise ValidationError("kind must be 'plain' or 'tilde'")
    if ell == k or ell not in (1, 2, 3) or k not in (1, 2, 3):
        raise ValidationError("need distinct ell, k in 1..3")
    field = field_or_x if isinstance(field_or_x, SheetField) else SheetField(field_or_x)
    uk = field.u_vals[k - 1]
    ul = field.u_vals[ell - 1]
    sigma = complex(y) - uk
    if not (sigma.real > 0 and abs(sigma.imag) <= 1e-9 * abs(sigma)):
        raise ValidationError("y must lie on the cut from u_k in the +real direction")
    R = sigma.real
    if R > 0.45 * field.min_sep:
        raise ValidationError(
            "y too far from u_k: the jump circle would reach other singularities"
        )

    j = [m for m in (1, 2, 3) if m not in (ell, k)][0]
    mids = [] if kind == "plain" else [j]
    hypothesis_ok = True
    details = []
    if kind == "plain":
        d = _segment_point_distance(ul, uk, field.u_vals[j - 1])
        if d < RHO_REL * field.min_sep:
            hypothesis_ok = False
            details.append(f"u_{j} within {d:.2e} of segment u_{ell}u_{k}")

    approach = _ray_chain(field, ell, mids, k)
    arrived = field.track_from(field.anchor(ell)[1], approach)  # the chain starts at the anchor
    jump = _cut_jump(
        field, uk, R, approach[-1].end, arrived, lambda s: field.psi_from_sheets(ell, s)
    )
    return DiscontinuityResult(jump, hypothesis_ok, "; ".join(details))


def psi_on_cut(field_or_x, k: int, y: complex) -> complex:
    """Standard on-cut value of one Borel transform at y = u_k + sigma.

    This is the jump of the fourth sheet across the cut, read on the
    cut (``_cut_jump``), divided by sqrt(pi)/i: the quantity the
    discontinuity identities are stated against.  It equals the arg -> 2 pi
    (k = 1, 3) or arg -> 0 (k = 2) boundary value of the local series.
    """
    field = field_or_x if isinstance(field_or_x, SheetField) else SheetField(field_or_x)
    uk = field.u(k)
    sigma = complex(y) - uk
    if not (sigma.real > 0 and abs(sigma.imag) <= 1e-9 * abs(sigma)):
        raise ValidationError("y must lie on the cut from u_k in the +real direction")
    R = sigma.real
    a, sheets0 = field.anchor(k)
    jump = _cut_jump(field, uk, R, a, sheets0, lambda s: field.g(s[3]))
    return 1j / sqrt(pi) * jump


def _cut_side(field: SheetField, uk: complex, R: float, start, sheets, theta: float):
    """Sheet tuple at u_k + R e^(i theta), carried from ``start`` (where
    ``sheets`` hold) straight to u_k + i R and along the circle of radius R
    about u_k to angle theta."""
    return field.track_from(sheets, [start, tracking.Arc(uk, R, pi / 2, theta)])


def _cut_jump(field: SheetField, uk: complex, R: float, start, sheets, read) -> complex:
    """Jump of ``read(sheet tuple)`` across the cut at u_k + R.

    ``sheets`` hold at ``start``, a point of u_k's anchor frame above u_k.
    From there each side descends to u_k + i R and follows the circle of
    radius R to the cut: clockwise to angle 0 above it, counterclockwise to
    angle 2 pi below it.  The sheets are analytic on that circle (the cut
    labels the sides; it is no singularity of the tracked values), so the
    jump is read(above) - read(below), with no limit to take.
    """
    above = _cut_side(field, uk, R, start, sheets, 0.0)
    below = _cut_side(field, uk, R, start, sheets, 2 * pi)
    return read(above) - read(below)


def _ray_angle(u: complex) -> float:
    """The angle about u at which u's own ray from the origin reaches it,
    within pi of the anchor angle pi/2: in [-pi/2, 3 pi/2).

    A singularity on the negative real axis, whose ray runs along its own
    cut, raises ``ValidationError``.
    """
    w = -u / abs(u)
    if abs(w.imag) <= 1e-12:
        if w.real >= 0:
            raise ValidationError("singularity sits on its own cut direction")
        return pi
    theta = float(np.angle(w))
    return theta + 2 * pi if theta < -pi / 2 else theta


def _ray_chain(field: SheetField, ell: int, mids: list[int], k: int) -> list:
    """Path realizing the segment continuations u_ell -> (mids) -> u_k.

    Straight segments between the singularities are replaced by the
    homotopic route through the origin region (down one ray, across, up the
    next).  At each end the path turns the short way between the anchor
    angle pi/2 and the ray's angle (``_ray_angle``), so it never crosses
    the continuation of a ray beyond its u: the sheets it carries are those
    continued straight from the origin, which are single-valued off those
    continuations, and the anchor is their value there.  Each intermediate singularity is
    encircled once counterclockwise from its ray (the square-root branch
    swap).  The path's arcs are :class:`tracking.Arc` pieces of anchor
    radius; it starts at u_ell's anchor point and ends at u_k's anchor
    point (angle pi/2).
    """
    u = field.u_vals
    r_a = ANCHOR_REL * field.min_sep
    r_low = 0.15 * min(abs(v) for v in u)

    def low(v):  # the point of v's ray near the origin
        return r_low * v / abs(v)

    first, last = u[ell - 1], u[k - 1]
    pts: list = [tracking.Arc(first, r_a, pi / 2, _ray_angle(first)), low(first)]
    for idx in mids:
        here = u[idx - 1]
        theta = _ray_angle(here)
        pts += [low(here), tracking.Arc(here, r_a, theta, theta + 2 * pi), low(here)]
    return pts + [low(last), tracking.Arc(last, r_a, _ray_angle(last), pi / 2)]


# -- holonomic-system residuals ---------------------------------------------------


@dataclass(frozen=True)
class BorelOperatorSpec:
    """One Borel-plane operator as coefficient/derivative-multi-index pairs.

    Multi-indices order the derivatives as (d/dx1, d/dx2, d/dy).
    """

    op_id: int
    table: tuple


def borel_operator(op_id: int) -> BorelOperatorSpec:
    x1 = MultiPoly.var(XYVARS, "x1")
    x2 = MultiPoly.var(XYVARS, "x2")
    y = MultiPoly.var(XYVARS, "y")
    c = lambda v: MultiPoly.const(XYVARS, v)
    tables = {
        1: ((c(4), (1, 1, 0)), (x2 * 2, (1, 0, 1)), (x1, (0, 0, 2))),
        2: (
            (c(4), (0, 2, 0)),
            (x1, (1, 0, 1)),
            (x2 * 2, (0, 1, 1)),
            (c(1), (0, 0, 1)),
        ),
        3: ((c(1), (0, 1, 1)), (c(-1), (2, 0, 0))),
        4: ((x1 * 3, (1, 0, 0)), (x2 * 2, (0, 1, 0)), (y * 4, (0, 0, 1)), (c(3), (0, 0, 0))),
    }
    if op_id not in tables:
        raise ValidationError("op_id must be 1..4")
    return BorelOperatorSpec(op_id, tables[op_id])


@functools.cache
def _operator_line():
    """The four operators and the coefficients of all of them compiled as
    one list, operator after operator."""
    ops = [borel_operator(op_id) for op_id in (1, 2, 3, 4)]
    return ops, compile_polys([c for op in ops for c, _ in op.table], "borel operators")


_QUARTIC_GVARS = ("x1", "x2", "y", "g")


def _quartic_in_g() -> MultiPoly:
    polys = _xy_quartic_polys()
    g = MultiPoly.var(_QUARTIC_GVARS, "g")
    acc = MultiPoly.zero(_QUARTIC_GVARS)
    for k, p in enumerate(polys):
        acc = acc + p.embed(_QUARTIC_GVARS) * g**k
    return acc


@functools.cache
def _quartic_jet():
    """Keys, coefficient scale and compiled values of the quartic F in g and
    the partials ``implicit_jet`` reads: key () is F, (v,) is dF/dv and
    (v, w) is d2F/dv dw for v not after w in ``_QUARTIC_GVARS``."""
    F = _quartic_in_g()
    polys = {(): F}
    for v in _QUARTIC_GVARS:
        polys[(v,)] = F.derivative(v)
    for i, v in enumerate(_QUARTIC_GVARS):
        for w in _QUARTIC_GVARS[i:]:
            polys[(v, w)] = polys[(v,)].derivative(w)
    scale = sum(abs(complex(c)) for c in F.terms.values()) or 1.0
    return tuple(polys), scale, compile_polys(list(polys.values()), "quartic jet")


def implicit_jet(x: PlanePoint, y: complex, g: complex) -> dict:
    """First and second partials of the quartic branch through (x, y, g).

    Derivatives are exact implicit jets of the defining polynomial, not
    finite differences.  Keys are tuples of variable names, e.g. ("x1",),
    ("x1", "y"); the zeroth jet is under ().
    """
    keys, scale, evaluate = _quartic_jet()
    dF = dict(zip(keys, evaluate(complex(x.x1), complex(x.x2), complex(y), complex(g))))
    if abs(dF[()]) > 1e-7 * scale * max(1.0, abs(g)) ** 4:
        raise ValidationError(f"g does not satisfy the quartic (residual {abs(dF[()]):.2e})")
    dg = dF[("g",)]
    if abs(dg) < 1e-12 * scale:
        raise ValidationError("singular-locus proximity: dF/dg ~ 0")
    jets = {(): complex(g)}
    base = ("x1", "x2", "y")
    for v in base:
        jets[(v,)] = -dF[(v,)] / dg
    for i, v in enumerate(base):
        for w in base[i:]:
            val = (
                dF[(v, w)]
                + dF[(v, "g")] * jets[(w,)]
                + dF[(w, "g")] * jets[(v,)]
                + dF[("g", "g")] * jets[(v,)] * jets[(w,)]
            )
            jets[(v, w)] = -val / dg
            jets[(w, v)] = jets[(v, w)]
    return jets


def _derivative_from_jets(jets: dict, multi: tuple[int, int, int]) -> complex:
    names = []
    for name, count in zip(("x1", "x2", "y"), multi):
        names.extend([name] * count)
    if len(names) > 2:
        raise ValidationError("jets available through order 2 only")
    return jets[tuple(names)] if names else jets[()]


def verify_annihilation(x: PlanePoint, y: complex) -> tuple[float, ...]:
    """Scaled residuals of the four Borel-plane operators (op_id 1..4, in
    order) applied to the fourth origin-chart branch of the quartic at y.

    The branch is tracked once; derivatives are its exact implicit jets.
    """
    field = SheetField(x)
    g_value = field.g(field.track_y_polyline([complex(y)])[3])
    jets = implicit_jet(x, y, g_value)
    point = (complex(x.x1), complex(x.x2), complex(y))
    ops, evaluate = _operator_line()
    values = iter(evaluate(*point))
    residuals = []
    for op in ops:
        acc = 0j
        scale = 0.0
        for (_, multi), c in zip(op.table, values):  # the table first: zip stops on it
            term = c * _derivative_from_jets(jets, multi)
            acc += term
            scale += abs(term)
        residuals.append(abs(acc) / max(scale, 1e-30))
    return tuple(residuals)
