"""Laplace integrals of the Borel transforms and the defining integral.

``laplace_borel_sum`` evaluates the Borel sum of one WKB solution,

    Psi_ell(eta) = int_{u_ell}^{u_ell + infty} e^(-eta y) psi_ell_B(y) dy,

along the cut ray, removing the inverse-square-root endpoint by the
substitution y = u_ell + w^2.  The integrand near the endpoint uses the
local series; beyond a hand-off radius w_mid the sheet continuation takes
over.  It starts on the ray itself: the local pair of z-roots at
u_ell + (w_mid/4)^2 (``SheetField.local_sheets``), carried by one leg to
the hand-off point u_ell + w_mid^2, with no route from an anchor.

``pearcey_quadrature`` integrates exp(eta (z^4 + x2 z^2 + x1 z)) along a
piecewise-linear contour joining two valleys of the integrand, giving an
independent oracle for linear combinations of the Borel sums.

Every integral uses one panel rule, ``gauss_segment``: the 49-point
Gauss-Kronrod rule K49 and its embedded 24-point Gauss rule G24, whose
nodes it shares, with one array call of the integrand on every node of
every panel.  The endpoint piece and the defining integral bisect panels
adaptively (``adaptive_segment``) until |K49 - G24| meets the tolerance.
The far piece runs passes of 4, then 8, then 16 panels, one tracker leg per
pass landing on every node, until the two estimates agree.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import pi, sqrt

import numpy as np

from .aberth import roots_aberth
from .errors import PearceyError, QuadratureConvergenceError, TailBoundError, ValidationError
from .geometry import PlanePoint
from .borel import PASS_REL, SheetField
from .wkb_series import WkbSeriesTable, borel_coeffs

LAPLACE_ORDER = 8  # order of the local series near each u_ell
TAIL_LOG = 38.0  # the Laplace ray ends where e^(-eta (y - u_ell)) = e^(-TAIL_LOG)
LAPLACE_TOL = 1e-9  # default tol of laplace_borel_sum, relative to the sum's scale
MAX_DEPTH = 12  # bisection depth at which adaptive_segment gives up

# The one panel rule of every integral here: the 24-point Gauss-Legendre
# rule G24 on [-1, 1] and its Kronrod extension K49 (Kronrod 1965), exact
# for polynomials of degree <= 73, whose 49 nodes hold G24's 24.  Both are
# symmetric, so only the nonnegative halves are listed, ascending.  G24 is
# numpy.polynomial.legendre.leggauss(24) (eigenvalues of the companion
# matrix, one Newton step, symmetrised): its positive nodes and their
# weights.  K49 was computed in 60-digit arithmetic (the Stieltjes
# polynomial E_25 from its orthogonality to P_24 P_k, its zeros, then the
# weights from exactness on P_0..P_48) and rounded to the nearest double:
# its Kronrod-only nodes from 0, and the weights of all its nonnegative
# nodes.
_G24_NODES = (
    0.06405689286260563, 0.1911188674736163, 0.3150426796961634,
    0.4337935076260451, 0.5454214713888396, 0.6480936519369755,
    0.7401241915785544, 0.820001985973903, 0.8864155270044011,
    0.9382745520027328, 0.9747285559713095, 0.9951872199970213,
)
_G24_WEIGHTS = (
    0.12793819534675202, 0.12583745634682825, 0.1216704729278033,
    0.11550566805372552, 0.10744427011596556, 0.09761865210411393,
    0.0861901615319532, 0.07334648141108016, 0.05929858491543636,
    0.04427743881741941, 0.02853138862893356, 0.01234122979998869,
)
_K49_NODES = (
    0.0, 0.1278512402862167, 0.2536004303696779, 0.37519115479795084,
    0.49061236546344644, 0.5979905139060784, 0.6955320723967788,
    0.7816772264764643, 0.8549538039040514, 0.9142406907949115,
    0.9584416844052094, 0.987040496015809, 0.999201056021875,
)
_K49_WEIGHTS = (
    0.06410046376926672, 0.06396962624137635, 0.06357487871297242,
    0.06291711226969811, 0.062004001419781275, 0.06083803487312786,
    0.059416543245952094, 0.057748675375690034, 0.05585171510306332,
    0.05372794550175132, 0.05137195138345764, 0.048801386753259055,
    0.04604589177656383, 0.04310592819369527, 0.039967623893622184,
    0.03665810024221296, 0.033227378319829574, 0.029671306090659117,
    0.025951194661374105, 0.02210408490006189, 0.01823117855038727,
    0.014327444630883845, 0.010259786409280762, 0.006025671015720144,
    0.002152308550946222,
)


@functools.cache
def _gk_nodes():
    """K49 on [-1, 1]: ascending nodes, Kronrod weights, and the weights of
    the embedded G24, zero off the Gauss nodes.

    The Gauss nodes sit at the odd indices, so one set of integrand values
    gives both sums.
    """
    pos, xg, wg = np.array(_K49_NODES), np.array(_G24_NODES), np.array(_G24_WEIGHTS)
    xs = np.empty(49)
    xs[0::2] = np.concatenate([-pos[:0:-1], pos])
    xs[1::2] = np.concatenate([-xg[::-1], xg])
    wgs = np.zeros(49)
    wgs[1::2] = np.concatenate([wg[::-1], wg])
    return xs, np.array(_K49_WEIGHTS[:0:-1] + _K49_WEIGHTS), wgs


def gauss_segment(f, edges) -> tuple[complex, complex]:
    """K49 and embedded G24 integrals of f along the polyline through
    ``edges``, one panel between each two consecutive edges.

    ``f`` is called once, on the array of every panel's 49 nodes (one row
    per panel), and returns its values there.
    """
    xs, kws, gws = _gk_nodes()
    edges = np.asarray(edges)
    halves = (edges[1:] - edges[:-1]) / 2
    mids = (edges[1:] + edges[:-1]) / 2
    terms = f(mids[:, None] + halves[:, None] * xs)
    return (halves * (terms * kws).sum(axis=1)).sum(), (halves * (terms * gws).sum(axis=1)).sum()


def adaptive_segment(f, a: complex, b: complex, tol: float, depth: int = 0) -> complex:
    """Adaptive bisection of one K49 panel, with |K49 - G24| as the error
    estimate; returns the K49 value.

    Each half gets half the tolerance.  A piece still above its tolerance
    after ``MAX_DEPTH`` bisections raises ``QuadratureConvergenceError``.
    """
    fine, coarse = gauss_segment(f, np.array([a, b]))
    err = abs(fine - coarse)
    if err <= tol:
        return fine
    if depth >= MAX_DEPTH:
        raise QuadratureConvergenceError(
            f"adaptive quadrature on [{complex(a)}, {complex(b)}] did not reach tol "
            f"{tol:.3g} after {MAX_DEPTH} bisections: |fine - coarse| = {err:.3g}"
        )
    mid = (a + b) / 2.0
    return adaptive_segment(f, a, mid, tol / 2, depth + 1) + adaptive_segment(
        f, mid, b, tol / 2, depth + 1
    )


@dataclass
class LaplaceResult:
    value: complex
    ell: int
    eta: float
    truncation: float  # ray length used
    series_radius: float
    nodes: int  # sheet tuples tracked on the ray, over all passes
    converged: bool  # Kronrod and embedded Gauss estimates agree (True without a far piece)


def laplace_borel_sum(
    ell: int,
    x: PlanePoint,
    eta: float,
    table: WkbSeriesTable | None = None,
    tol: float = LAPLACE_TOL,
) -> LaplaceResult:
    """Borel sum of one WKB solution by quadrature along the cut ray.

    The ray must not pass near another singularity; otherwise the Borel sum
    is ill-defined (Stokes configuration) and an error is raised.
    """
    if eta <= 0:
        raise ValidationError("eta must be positive real")
    field = SheetField(x)
    ul = field.u(ell)
    length = TAIL_LOG / eta
    for m in (1, 2, 3):
        if m == ell:
            continue
        um = field.u_vals[m - 1]
        d = um - ul
        if 0 < d.real < length and abs(d.imag) < PASS_REL * field.min_sep:
            raise TailBoundError(
                f"integration ray from u_{ell} passes near u_{m}; Borel sum undefined"
            )

    bct = borel_coeffs(x, ell, LAPLACE_ORDER, table=table)
    # hand-off radius: series truncation error ~ (r/min_sep)^(order + 1/2)
    r_series = 0.12 * field.min_sep
    w_mid = sqrt(min(r_series, length / 2))
    w_max = sqrt(length)

    # endpoint piece from the local series (y = u_ell + w^2)
    def f_series(w: np.ndarray) -> np.ndarray:
        w2 = w * w
        return np.exp(-eta * (ul + w2)) * bct.eval_offset(w2) * 2.0 * w

    part1 = adaptive_segment(f_series, 0.0, w_mid, tol * np.exp(-eta * ul.real))

    # far piece by sheet continuation: the local pair at a quarter of w_mid
    # carried out to it, then K49 panels, one ray leg per pass landing on
    # every node; 4, then 8, then 16 panels until the Kronrod and embedded
    # Gauss estimates agree
    part2 = 0j
    nodes = 0
    converged = True  # without a far piece there is nothing to refine
    if w_max > w_mid:
        y0, start_y = ul + (w_mid / 4) ** 2, ul + w_mid**2
        vals = field.track_from(field.local_sheets(ell, y0), [y0, start_y])

        def f_far(w: np.ndarray) -> np.ndarray:
            nonlocal nodes
            flat = w.ravel()
            taus = (flat**2 - w_mid**2) / (flat[-1] ** 2 - w_mid**2)
            sheets = field.track_stops(vals, start_y, ul + flat[-1] ** 2, taus)
            nodes += len(sheets)
            psis = field.psi_from_sheets(ell, np.array(sheets).T)
            return (np.exp(-eta * (ul + flat * flat)) * psis * 2.0 * flat).reshape(w.shape)

        npanels = 4
        for _ in range(3):
            part2, gauss = gauss_segment(f_far, np.linspace(w_mid, w_max, npanels + 1))
            converged = bool(
                abs(part2 - gauss) <= tol * max(abs(part2), np.exp(-eta * ul.real))
            )
            if converged:
                break
            npanels *= 2
    return LaplaceResult(part1 + part2, ell, eta, length, r_series, nodes, converged)


# -- defining oscillatory integral ------------------------------------------------


def valley_directions(eta: complex) -> list[complex]:
    """Unit directions of the four valleys of exp(eta z^4) at infinity."""
    base = (pi - np.angle(complex(eta))) / 4.0
    return [np.exp(1j * (base + k * pi / 2)) for k in range(4)]


def _phase(x: PlanePoint, z: complex) -> complex:
    x1, x2 = x.as_tuple()
    return z**4 + x2 * z**2 + x1 * z


def _ray_peak_log(x: PlanePoint, eta: complex, d: complex, k: int) -> float:
    """Largest Re(eta phase(r d)) over r >= 0 on the ray of valley k along d.

    On a valley ray eta (r d)^4 = -|eta| r^4, so the exponent is a real
    quartic in r, whose maximum lies at r = 0 or at a real root of its
    derivative -4 |eta| r^3 + 2 Re(eta x2 d^2) r + Re(eta x1 d).  The
    exponent at the real part of every root, clipped to r >= 0, reaches that
    maximum and nothing above it.
    """
    x1, x2 = x.as_tuple()
    cubic = [(eta * x1 * d).real, 2 * (eta * x2 * d * d).real, 0.0, -4 * abs(eta)]
    try:
        crit = roots_aberth(cubic)
    except PearceyError as e:
        e.args = (f"peak cubic -4 |eta| r^3 + 2 Re(eta x2 d^2) r + Re(eta x1 d) on valley "
                  f"ray {k} at (x1, x2) = {(x1, x2)}: {e.detail}",)
        raise
    return max(0.0, *((eta * _phase(x, max(0.0, r.real) * d)).real for r in crit))


def pearcey_quadrature(
    x: PlanePoint,
    eta: complex,
    contour: tuple[int, int],
    r_cap: float = 60.0,
) -> complex:
    """Integral of exp(eta (z^4 + x2 z^2 + x1 z)) over a valley-pair contour.

    ``contour`` picks the ordered pair of valley indices (0..3); the path
    runs from infinity in valley a through the origin to infinity in valley
    b.  The integrand's peak is its largest modulus on the two rays
    (``_ray_peak_log``); the tolerance is relative to it, and the truncation
    radius satisfies a 1e-16 tail bound relative to it, else
    ``TailBoundError``.
    """
    eta = complex(eta)
    if eta.real <= 0:
        raise ValidationError("need Re eta > 0")
    a, b = contour
    if a == b or not (0 <= a <= 3 and 0 <= b <= 3):
        raise ValidationError("contour must be an ordered pair of distinct valleys 0..3")
    dirs = valley_directions(eta)
    x1, x2 = x.as_tuple()

    peak_log = max(_ray_peak_log(x, eta, dirs[k], k) for k in (a, b))
    if peak_log > 600.0:
        raise TailBoundError(
            f"integrand peak exp({peak_log:.1f}) overflows double precision"
        )

    R = 2.0
    while any((eta * (R * d) ** 4).real + abs(eta) * (abs(x2) * R**2 + abs(x1) * R)
              > peak_log - 37.0 for d in (dirs[a], dirs[b])):
        R *= 1.5
        if R > r_cap:
            raise TailBoundError(
                f"tail bound not achieved at radius cap {r_cap}; "
                f"peak_log={peak_log:.2f}"
            )

    def f(z: np.ndarray) -> np.ndarray:
        return np.exp(eta * _phase(x, z))

    tol_abs = 1e-10 * np.exp(peak_log)  # relative to the integrand's peak
    return adaptive_segment(f, R * dirs[a], 0.0, tol_abs) + adaptive_segment(
        f, 0.0, R * dirs[b], tol_abs
    )


def match_borel_combination(
    value: complex, psis, tol: float = 1e-4
) -> tuple[complex, tuple[int, int, int]]:
    """Identify a valley-pair integral as a signed sum of Borel sums.

    Searches value = phase * sqrt(pi) * sum_l eps_l Psi_l with
    phase in {i, -i} and eps in {-1, 0, 1}; the phase is the fixed
    orientation factor between the defining contour and the Laplace rays.
    Returns (phase, eps) normalized so the first nonzero eps is +1; raises
    if no combination or more than one matches within ``tol`` relative.
    """
    import itertools

    hits = []
    for eps in itertools.product((-1, 0, 1), repeat=3):
        if all(e == 0 for e in eps):
            continue
        first = next(e for e in eps if e != 0)
        if first < 0:
            continue  # dedupe the (eps, phase) -> (-eps, -phase) symmetry
        comb = sqrt(pi) * sum(e * p for e, p in zip(eps, psis))
        for phase in (1j, -1j):
            if abs(value - phase * comb) <= tol * abs(value):
                hits.append((phase, eps))
    if len(hits) != 1:
        raise ValidationError(
            f"expected exactly one matching Borel-sum combination, found {hits}"
        )
    return hits[0]


def pearcey_p1_residual(x: PlanePoint, eta: complex, contour) -> float:
    """Scaled finite-difference residual of the first defining operator.

    Applies 4 d1 d2 + 2 eta x2 d1 + eta^2 x1 to the contour integral by
    central differences in (x1, x2).
    """
    x1, x2 = x.as_tuple()
    h = 1e-3

    def u(dx1, dx2):
        return pearcey_quadrature(PlanePoint(x1 + dx1, x2 + dx2), eta, contour)

    upp = u(h, h)
    upm = u(h, -h)
    ump = u(-h, h)
    umm = u(-h, -h)
    d12 = (upp - upm - ump + umm) / (4 * h * h)
    d1 = (u(h, 0) - u(-h, 0)) / (2 * h)
    u0 = u(0, 0)
    val = 4 * d12 + 2 * eta * x2 * d1 + eta**2 * x1 * u0
    scale = abs(4 * d12) + abs(2 * eta * x2 * d1) + abs(eta**2 * x1 * u0)
    return abs(val) / max(scale, 1e-300)
