"""Independent slow oracles used by the tests.

These deliberately avoid the library's fraction-free elimination: the
determinant here is plain cofactor expansion over exact polynomials, so a
resultant computed both ways checks the Bareiss path against something it
shares no code with.  The raster oracle labels the Borel singularities of a
Stokes section one cell at a time from ``numpy.roots`` of the hand-expanded
singular cubic, with none of the library's solver, coefficients or matcher.
The defining Pearcey integral is evaluated by mpmath at 30 digits along the
valley rays, sharing no code with ``quadrature.py``.  sympy re-derives the
singular cubic and the Stokes sextic by its own resultants, and does the
exact ring's arithmetic and chart derivatives as plain rational functions
of zeta and x2.

The remaining oracles keep earlier implementations as references: the
tracker step loop on numpy scalars, the Borel-plane circles (anchor arcs,
cut-jump sides, monodromy loops) as chord polylines, one tracker leg per
chord, the event bisection one bracket and one cubic solve at a time, the
f_0 phase continuation tracked one labeling-path leg at a time, the
truncated-power expansion of the amplitude exponential, and central finite
differences of a quartic branch by a Newton iteration of their own on the
hand-expanded quartic.  Event zeros are also located at 30 digits from
mpmath roots of the hand-expanded singular cubic.
"""

from fractions import Fraction

import numpy as np
import sympy

from pearcey_wkb import borel, stokes, tracking
from pearcey_wkb.aberth import roots_aberth
from pearcey_wkb.errors import DominanceError
from pearcey_wkb.geometry import (
    PlanePoint,
    char_cubic_coeffs,
    labeling_path,
    reference_zetas,
    singular_cubic_coeffs,
)
from pearcey_wkb.multipoly import MultiPoly, sylvester_matrix


def det_cofactor(matrix):
    """Cofactor-expansion determinant of a matrix of MultiPoly entries."""
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    variables = matrix[0][0].variables
    total = MultiPoly.zero(variables)
    for j in range(n):
        entry = matrix[0][j]
        if entry.is_zero():
            continue
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        term = entry * det_cofactor(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def resultant_cofactor(p: MultiPoly, q: MultiPoly, name: str) -> MultiPoly:
    return det_cofactor(sylvester_matrix(p, q, name))


def random_multipoly(rng, variables, max_degree=2, max_terms=4, coeff_range=6):
    terms = {}
    for _ in range(rng.integers(1, max_terms + 1)):
        exps = tuple(int(rng.integers(0, max_degree + 1)) for _ in variables)
        c = int(rng.integers(-coeff_range, coeff_range + 1))
        if c:
            terms[exps] = Fraction(c)
    return MultiPoly(variables, terms)


def finite_difference(f, z0: complex, h: float = 1e-6) -> complex:
    """Central difference derivative of a complex function of one variable."""
    return (f(z0 + h) - f(z0 - h)) / (2 * h)


def singular_cubic_closed_form(x1: complex, x2: complex) -> list[complex]:
    """Descending coefficients in y of disc_z(z^4 + x2 z^2 + x1 z + y),
    expanded by hand: 256 y^3 - 128 x2^2 y^2 + (144 x1^2 x2 + 16 x2^4) y
    - (27 x1^4 + 4 x1^2 x2^3)."""
    return [
        256.0,
        -128.0 * x2**2,
        144.0 * x1**2 * x2 + 16.0 * x2**4,
        -(27.0 * x1**4 + 4.0 * x1**2 * x2**3),
    ]


def _nearest_labels(ref, roots, guard_ratio):
    """Roots reordered to follow ``ref`` (nearest value per label), or None
    when a nearest match fails to beat its runner-up or is not a bijection."""
    order = []
    for r in ref:
        dist = sorted((abs(r - z), k) for k, z in enumerate(roots))
        if dist[1][0] < guard_ratio * dist[0][0]:
            return None
        order.append(dist[0][1])
    if sorted(order) != [0, 1, 2]:
        return None
    return [roots[k] for k in order]


def raster_labels_oracle(x2, window, resolution, first_labels, guard_ratio=1.0 + 1e-12):
    """Labeled Borel singularities on a raster, one cell at a time.

    numpy.roots of the closed-form cubic per cell; labels continue from
    ``first_labels`` at the bottom-left cell, along each row left to right
    and from row start to row start bottom to top.  A failed match falls
    back to roots sorted by (real, imag) and flags the cell.  Returns
    ``(values, flagged)`` as nested lists indexed [i][j] (i = imaginary row).
    """
    re0, re1, im0, im1 = window
    xs = np.linspace(re0, re1, resolution)
    ys = np.linspace(im0, im1, resolution)
    values = [[None] * resolution for _ in range(resolution)]
    flagged = [[False] * resolution for _ in range(resolution)]
    for i in range(resolution):
        for j in range(resolution):
            roots = list(np.roots(singular_cubic_closed_form(complex(xs[j], ys[i]), complex(x2))))
            if i == 0 and j == 0:
                values[i][j] = list(first_labels)
                continue
            ref = values[i][j - 1] if j else values[i - 1][0]
            labeled = _nearest_labels(ref, roots, guard_ratio)
            if labeled is None:
                labeled = sorted(roots, key=lambda z: (z.real, z.imag))
                flagged[i][j] = True
            values[i][j] = labeled
    return values, flagged


# -- tracker step loop on numpy scalars ------------------------------------------


def _poly_eval_np(coeffs, z):
    acc = 0j
    for c in coeffs[::-1]:
        acc = acc * z + c
    return acc


def _residual_scale_np(coeffs, z):
    za = max(1.0, abs(z))
    return float(sum(abs(c) * za**k for k, c in enumerate(coeffs)))


def _min_pairwise_np(vals):
    m = np.inf
    for i in range(vals.size):
        for j in range(i + 1, vals.size):
            m = min(m, abs(vals[i] - vals[j]))
    return m


def _newton_polish_np(coeffs, z):
    dcoeffs = coeffs[1:] * np.arange(1, coeffs.size)
    for _ in range(12):
        p = _poly_eval_np(coeffs, z)
        dp = _poly_eval_np(dcoeffs, z)
        if dp == 0:
            break
        step = p / dp
        z = z - step
        if abs(step) < 1e-16 * (1.0 + abs(z)):
            break
    return z


def _accept_np(coeffs, old_vals, new_vals, residual_tol, guard_ratio):
    if not np.all(np.isfinite(new_vals)):
        return False
    for z in new_vals:
        if abs(_poly_eval_np(coeffs, z)) > residual_tol * _residual_scale_np(coeffs, z):
            return False
    disp = float(np.max(np.abs(new_vals - old_vals)))
    if len(new_vals) > 1:
        sep = _min_pairwise_np(new_vals)
        if sep < guard_ratio * disp or sep == 0.0:
            return False
    return True


class StepUnderflow(Exception):
    """The reference loop halved its step below the floor at ``tau``."""

    def __init__(self, tau):
        super().__init__(f"step underflow at tau={tau}")
        self.tau = tau


def track_family_numpy(coeffs_fn, start_vals, residual_tol=1e-9, guard_ratio=3.0,
                       min_step=1e-11, max_step=0.25):
    """The tracker's step loop with numpy-scalar arithmetic throughout.

    Same start check, step schedule (half of ``max_step``, doubling to
    ``max_step`` on accept, halving on reject), Newton polish and acceptance
    rule as the library.
    Returns ``(taus, values, accepted, rejected)``; raises ``StepUnderflow``
    where the library raises ``ContinuationError``.
    """
    vals = np.array(start_vals, dtype=complex)
    c0 = np.asarray(coeffs_fn(0.0), dtype=complex)
    for z in vals:
        if abs(_poly_eval_np(c0, z)) > residual_tol * _residual_scale_np(c0, z) * 10:
            raise ValueError("start value does not satisfy the family")
    taus, values = [0.0], [vals]
    accepted = rejected = 0
    tau, step = 0.0, 0.5 * max_step
    while tau < 1.0:
        target = min(1.0, tau + step)
        c = np.asarray(coeffs_fn(target), dtype=complex)
        new_vals = np.array([_newton_polish_np(c, z) for z in vals])
        if _accept_np(c, vals, new_vals, residual_tol, guard_ratio):
            accepted += 1
            tau, vals = target, new_vals
            taus.append(tau)
            values.append(vals)
            step = min(2 * step, max_step)
        else:
            rejected += 1
            step *= 0.5
            if step < min_step:
                raise StepUnderflow(tau)
    return taus, values, accepted, rejected


# -- Borel-plane circles as chord polylines -------------------------------------


def circle_knots(center: complex, radius: float, theta0: float, theta1: float, n: int = 48):
    """Polyline approximating an arc; n chords per full turn of angle span."""
    span = theta1 - theta0
    m = max(8, int(abs(span) / (2 * np.pi) * n) + 1)
    return [center + radius * np.exp(1j * (theta0 + span * k / m)) for k in range(m + 1)]


def chord_anchor(field, ell):
    """``SheetField.anchor(ell)``'s sheet tuple, the ray and the arc to
    u_ell + i r tracked as a 48-per-turn chord polyline."""
    u = field.u_vals[ell - 1]
    r = borel.ANCHOR_REL * field.min_sep
    arc = circle_knots(u, r, borel._ray_angle(u), np.pi / 2)
    sheets = field.track_y_polyline([u - r * (u / abs(u))] + arc[1:])
    got = field.psi_from_sheets(ell, sheets)
    ref = field._series_germ(ell, u + 1j * r)
    if abs(got + ref) < abs(got - ref):
        sheets = sheets.copy()
        sheets[ell - 1], sheets[3] = sheets[3], sheets[ell - 1]
    return sheets


def chord_cut_side(field, uk, R, start, sheets, theta):
    """``borel._cut_side`` with the circle of radius R as a 48-per-turn
    chord polyline."""
    arc = circle_knots(uk, R, np.pi / 2, theta, n=48)
    return field.track_from(sheets, [start, uk + 1j * R] + arc[1:])


def chord_monodromy(ell, x):
    """``borel.monodromy`` with the loop as a 96-chord polyline."""
    field = borel.SheetField(x)
    center = field.u_vals[ell - 1]
    radius = borel.LOOP_REL * abs(center)
    base = center - radius * center / abs(center)
    base_vals = field.track_y_polyline([base])
    theta0 = float(np.angle(base - center))
    loop = circle_knots(center, radius, theta0, theta0 + 2 * np.pi, n=96)
    return tuple(tracking.match_labels(field.track_from(base_vals, loop), base_vals))


# -- event bisection one bracket at a time ------------------------------------


def _u_at(pts, tau, near_vals):
    x1, x2 = stokes._x_at(pts, tau)
    roots = roots_aberth(singular_cubic_coeffs(PlanePoint(x1, x2)), tol=1e-13)
    perm = tracking.match_labels(near_vals, roots, guard_ratio=1.0 + 1e-12)
    return np.array([roots[p] for p in perm])


def scalar_detect_events(x_path, tol=stokes.BISECTION_TOL):
    """Events of a path by bisecting each bracket on its own, one
    batch-of-one cubic solve per step: pair by pair, Stokes crossings
    before segment crossings, then sorted by tau."""
    traj = stokes.track_u(x_path)
    pts = [(complex(p[0]), complex(p[1])) for p in x_path]
    events = []

    for pair in stokes.PAIRS:
        series = [stokes._indicator(v, pair) for v in traj.values]
        for n in range(1, len(series)):
            if series[n - 1] == 0.0:
                continue
            if series[n - 1] * series[n] < 0:
                lo, hi = traj.taus[n - 1], traj.taus[n]
                vals = traj.values[n - 1]
                f_lo = series[n - 1]
                while hi - lo > tol:
                    mid = (lo + hi) / 2
                    vmid = _u_at(pts, mid, vals)
                    f_mid = stokes._indicator(vmid, pair)
                    if f_lo * f_mid <= 0:
                        hi = mid
                    else:
                        lo, f_lo, vals = mid, f_mid, vmid
                tau_c = (lo + hi) / 2
                v_c = _u_at(pts, tau_c, vals)
                j, k = pair
                re_uj = v_c[j - 1].real
                re_uk = v_c[k - 1].real
                if abs(re_uj - re_uk) < 1e-9 * max(abs(v) for v in v_c):
                    raise DominanceError(f"dominance undecidable for pair {pair} at tau={tau_c}")
                dom, rec = (j, k) if re_uj < re_uk else (k, j)
                events.append(
                    stokes.StokesEvent(
                        "stokes_crossing", tau_c, stokes._x_at(pts, tau_c), pair,
                        dominant=dom, recessive=rec, im_before=int(np.sign(series[n - 1])),
                    )
                )

        crosser = next(m for m in (1, 2, 3) if m not in pair)
        sig = [stokes._segment_signature(v, pair, crosser) for v in traj.values]
        for n in range(1, len(sig)):
            c0, _ = sig[n - 1]
            c1, _ = sig[n]
            if c0 == 0.0 or c0 * c1 >= 0:
                continue
            lo, hi = traj.taus[n - 1], traj.taus[n]
            vals = traj.values[n - 1]
            f_lo = c0
            while hi - lo > tol:
                mid = (lo + hi) / 2
                vmid = _u_at(pts, mid, vals)
                f_mid, _ = stokes._segment_signature(vmid, pair, crosser)
                if f_lo * f_mid <= 0:
                    hi = mid
                else:
                    lo, f_lo, vals = mid, f_mid, vmid
            tau_c = (lo + hi) / 2
            v_c = _u_at(pts, tau_c, vals)
            _, lam = stokes._segment_signature(v_c, pair, crosser)
            if 0.0 < lam < 1.0:
                events.append(
                    stokes.StokesEvent(
                        "segment_crossing", tau_c, stokes._x_at(pts, tau_c), pair, crosser=crosser
                    )
                )

    events.sort(key=lambda e: e.tau)
    return events


def mp_event_zero(x_path, ev, near_vals, dps=30):
    """Zero near ``ev.tau`` of the function whose sign change marks ``ev``,
    at ``dps`` digits.

    At each tau the u's are ``mpmath.polyroots`` of the hand-expanded
    singular cubic at the path point, labelled by nearest value to
    ``near_vals`` (the library's u's at the reported centre); the zero of
    Im(u_j - u_k), or of the crosser's signed area against its pair's
    segment, is found by the Anderson-Bjorck bracketing method."""
    import mpmath

    pts = [(complex(a), complex(b)) for a, b in x_path]
    nseg = len(pts) - 1
    j, k = ev.pair

    with mpmath.workdps(dps):
        def us(tau):
            s = min(int(tau * nseg), nseg - 1)
            local = tau * nseg - s
            (a1, a2), (b1, b2) = pts[s], pts[s + 1]
            x1 = mpmath.mpc(a1) + (mpmath.mpc(b1) - mpmath.mpc(a1)) * local
            x2 = mpmath.mpc(a2) + (mpmath.mpc(b2) - mpmath.mpc(a2)) * local
            roots = mpmath.polyroots(singular_cubic_closed_form(x1, x2), maxsteps=200, extraprec=60)
            order = [min(range(3), key=lambda m: abs(roots[m] - v)) for v in near_vals]
            assert sorted(order) == [0, 1, 2], f"labels not a bijection at tau={tau}"
            return [roots[m] for m in order]

        def f(tau):
            u = us(tau)
            if ev.kind == "stokes_crossing":
                return mpmath.im(u[j - 1] - u[k - 1])
            a, c = u[j - 1], u[ev.crosser - 1]
            return mpmath.im((c - a) * mpmath.conj(u[k - 1] - a))

        w = 100 * mpmath.mpf(stokes.BISECTION_TOL)
        tau = mpmath.mpf(ev.tau)
        return float(mpmath.findroot(f, (tau - w, tau + w), solver="anderson"))


# -- f_0 phase continuation one labeling-path leg at a time -------------------


def f0_branch_per_leg(x, ell):
    """(6 zeta_ell^2 + x2)^(-1/2) continued along the labeling path, with
    one ``track_family`` call and one phase-unwrapping loop per leg."""
    theta = 2.0 * (np.pi + 2.0 * np.pi * ell / 3.0)
    w_prev = None
    pts = [p.as_tuple() for p in labeling_path(x)]
    ref = reference_zetas(pts[0][0].real)
    vals = ref
    for (a1, a2), (b1, b2) in zip(pts[:-1], pts[1:]):
        def coeffs_fn(t, a1=a1, a2=a2, b1=b1, b2=b2):
            return char_cubic_coeffs(PlanePoint(a1 + (b1 - a1) * t, a2 + (b2 - a2) * t))

        def point_fn(t, a1=a1, b1=b1):
            return a1 + (b1 - a1) * t

        trace = tracking.track_family(coeffs_fn, point_fn, vals)
        for tau, triple in zip(trace.taus, trace.values):
            w = 6.0 * triple[ell - 1] ** 2 + (a2 + (b2 - a2) * tau)
            if w_prev is not None:
                dtheta = np.angle(w / w_prev)
                assert abs(dtheta) <= 2.5, "phase step too large"
                theta += dtheta
            w_prev = w
        vals = trace.final
    if w_prev is None:  # single-vertex path
        w_prev = 6.0 * ref[ell - 1] ** 2 + 0.0
    return abs(w_prev) ** (-0.5) * np.exp(-0.5j * theta)


# -- sympy: the exact ring and the elimination ---------------------------------------

ZETA, X2 = sympy.symbols("zeta x2")
D_SYM = 6 * ZETA**2 + X2


def multipoly_sympy(p: MultiPoly):
    """A MultiPoly as a sympy expression in symbols named after its variables."""
    syms = [sympy.Symbol(v) for v in p.variables]
    return sympy.Add(*(
        sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(s**k for s, k in zip(syms, e)))
        for e, c in p.terms.items()
    ))


def zeta_numerator_sympy(f):
    """The integer numerator of a ZetaRational as a sympy expression."""
    return sympy.Add(*(c * ZETA**i * X2**j for (i, j), c in f.terms.items()))


def zeta_rational_sympy(f):
    """scalar * N / (6 zeta^2 + x2)^m as a sympy expression."""
    scalar = sympy.Rational(f.scalar.numerator, f.scalar.denominator)
    return scalar * zeta_numerator_sympy(f) / D_SYM**f.denom_power


def chart_d1_sympy(expr):
    """d/dx1 = -(2 d)^(-1) d/dzeta in the (zeta, x2) chart, cancelled."""
    return sympy.cancel(-sympy.diff(expr, ZETA) / (2 * D_SYM))


def chart_d2_sympy(expr):
    """d/dx2 = d/dx2|_zeta - zeta d^(-1) d/dzeta in the (zeta, x2) chart, cancelled."""
    return sympy.cancel(sympy.diff(expr, X2) - ZETA * sympy.diff(expr, ZETA) / D_SYM)


def singular_cubic_sympy():
    """The z-discriminant of z^4 + x2 z^2 + x1 z + y."""
    z, x1, x2, y = sympy.symbols("z x1 x2 y")
    return sympy.discriminant(z**4 + x2 * z**2 + x1 * z + y, z)


def stokes_sextic_sympy():
    """The factor of F-degree 6 of resultant(pk, resultant(pl, q, zl), zk), with
    pl, pk the characteristic cubic in zl, zk and q = (1/4)(zl - zk)(3 x1 +
    2 x2 (zl + zk)) - F."""
    zl, zk, x1, x2, F = sympy.symbols("zl zk x1 x2 F")
    pl = 4 * zl**3 + 2 * x2 * zl + x1
    pk = 4 * zk**3 + 2 * x2 * zk + x1
    q = (zl - zk) * (3 * x1 + 2 * x2 * (zl + zk)) / 4 - F
    elim = sympy.resultant(pk, sympy.resultant(pl, q, zl), zk)
    (sextic,) = [g for g, _ in sympy.factor_list(elim)[1] if sympy.degree(g, F) == 6]
    return sextic


# -- amplitude exponential by truncated powers -------------------------------------


def exp_series_power_expansion(a, n):
    """Coefficients 0..n of exp(sum_{j>=1} a_j eta^(-j)) by summing
    (sum a_j eta^(-j))^m / m! with truncated products; ``a[0]`` is unused.
    Entries are ZetaRational (any exact ring with +, * and Fraction scaling)."""
    zero = a[0] * 0
    one = zero + 1
    trunc = [zero] + list(a[1 : n + 1])
    out = [one] + [zero] * n
    power = [one] + [zero] * n
    fact = 1
    for m in range(1, n + 1):
        nxt = [zero] * (n + 1)
        for i, p in enumerate(power):
            for j in range(0, n + 1 - i):
                nxt[i + j] = nxt[i + j] + p * trunc[j]
        power = nxt
        fact *= m
        for k in range(n + 1):
            out[k] = out[k] + power[k] * Fraction(1, fact)
    return out


# -- finite-difference jets of a quartic branch ------------------------------------


def xy_quartic_descending(x1, x2, y):
    """Descending coefficients in g of A g^4 + B g^2 - 8 x1 g + 1, with
    A = 4 x1^2 x2 (36 y - x2^2) + 16 y (x2^2 - 4 y)^2 - 27 x1^4 and
    B = 2 (-8 x2 y + 2 x2^3 + 9 x1^2), expanded by hand."""
    a = 4 * x1**2 * x2 * (36 * y - x2**2) + 16 * y * (x2**2 - 4 * y) ** 2 - 27 * x1**4
    b = 2 * (-8 * x2 * y + 2 * x2**3 + 9 * x1**2)
    return [a, 0.0, b, -8 * x1, 1.0]


def newton_root(coeffs, z, iters=40):
    """Newton iteration from z on descending coefficients."""
    for _ in range(iters):
        p = dp = 0j
        for c in coeffs:
            dp = dp * z + p
            p = p * z + c
        step = p / dp
        z = z - step
        if abs(step) <= 1e-16 * abs(z):
            break
    return z


def fd_jets(x1, x2, y, g0, h):
    """Central finite differences, through second order, of the quartic
    branch through g0 at (x1, x2, y); keys as in ``borel.implicit_jet``."""
    names = ("x1", "x2", "y")
    base = (complex(x1), complex(x2), complex(y))

    def g(*shift):
        at = [b + h * s for b, s in zip(base, shift)]
        return newton_root(xy_quartic_descending(*at), complex(g0))

    def at(**steps):
        return g(*(steps.get(v, 0) for v in names))

    jets = {}
    for i, v in enumerate(names):
        jets[(v,)] = (at(**{v: 1}) - at(**{v: -1})) / (2 * h)
        jets[(v, v)] = (at(**{v: 1}) - 2 * at() + at(**{v: -1})) / h**2
        for w in names[i + 1 :]:
            pp, mm = at(**{v: 1, w: 1}), at(**{v: -1, w: -1})
            pm, mp = at(**{v: 1, w: -1}), at(**{v: -1, w: 1})
            jets[(v, w)] = jets[(w, v)] = (pp - pm - mp + mm) / (4 * h**2)
    return jets


# -- the defining Pearcey integral at high precision ---------------------------------


def pearcey_integral_mp(x1, x2, eta, contour, dps=30):
    """int exp(eta (z^4 + x2 z^2 + x1 z)) dz from infinity in valley a
    through 0 to infinity in valley b, by mpmath quadrature along the two
    valley rays z = r d_k, d_k = exp(i ((pi - arg eta)/4 + k pi/2)), on
    which eta z^4 = -|eta| r^4."""
    import mpmath

    with mpmath.workdps(dps):
        eta, x1, x2 = mpmath.mpmathify(eta), mpmath.mpmathify(x1), mpmath.mpmathify(x2)
        base = (mpmath.pi - mpmath.arg(eta)) / 4

        def ray(k):
            d = mpmath.expjpi((base / mpmath.pi) + mpmath.mpf(k) / 2)
            return d * mpmath.quad(
                lambda r: mpmath.exp(eta * ((r * d) ** 4 + x2 * (r * d) ** 2 + x1 * r * d)),
                [0, 1, 2, mpmath.inf],
            )

        a, b = contour
        return complex(ray(b) - ray(a))
