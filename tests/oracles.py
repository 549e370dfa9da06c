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
tracker step loop on numpy scalars (no predictor; steps sized by the guard
margin, its share rounded down to a multiple of 1/16, stops landed one
value at a time after the steps), the tracker's scalar step helpers
(Horner loops called per value) whose start check and accept/reject
decisions its generated step kernel and batched stop landing must
reproduce, the per-cell loop of the raster CSV export, the raster label
sweep matching labeled values cell to cell, and composing its batched edge
permutations one column at a time, the nearest-value matcher on a sort of
every distance row, the Newton polish evaluating
every row of a block in each iteration, the Borel-plane circles (anchor arcs, cut-jump
sides, monodromy loops) as chord polylines, one tracker leg per chord, the
event bisection one bracket and one cubic solve at a time, the
f_0 phase continuation tracked one labeling-path leg at a time, the
truncated-power expansion of the amplitude exponential, and central finite
differences of a quartic branch by a Newton iteration of their own on the
hand-expanded quartic, and the trajectory panel drawn one panel and one
point at a time.  Polished roots are checked against mpmath roots at
30 digits.  The origin-labelled sheets of the scaled quartic
are continued from hand-written first-order germs near (0, 0) by the numpy
step loop.  Event zeros are also located at 30 digits from
mpmath roots of the hand-expanded singular cubic, and the raster's sextic
layer is checked against min |Im(u_j - u_k)| from the phase's critical
points refined at 30 digits.  Two helpers serve only
the tests: a polynomial from its roots, and substitution of a polynomial
for a variable of a ``MultiPoly``.
"""

from cmath import isfinite
from fractions import Fraction

import numpy as np
import sympy

from pearcey_wkb import borel, stokes, tracking
from pearcey_wkb.aberth import _POLISH_ITERS, poly_eval_many, roots_aberth
from pearcey_wkb.errors import DominanceError, PearceyError
from pearcey_wkb.geometry import (
    PlanePoint,
    char_cubic_coeffs,
    critical_values,
    labeling_path,
    reference_zetas,
    singular_cubic_coeffs,
)
from pearcey_wkb.multipoly import MultiPoly, sylvester_matrix
from pearcey_wkb.tracking import _NEWTON_ITERS, GUARD_RATIO, RESIDUAL_TOL, _min_pairwise


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


def from_roots(roots, lead: complex = 1.0) -> np.ndarray:
    """Monic-times-lead polynomial with the given roots (ascending coeffs)."""
    c = np.array([complex(lead)])
    for r in roots:
        c = np.convolve(c, np.array([-complex(r), 1.0]))
    return c


def substitute(p: MultiPoly, name: str, repl: MultiPoly) -> MultiPoly:
    """Substitute a polynomial (same variable set) for a variable of p."""
    p._check_compat(repl)
    i = p.variables.index(name)
    # group by exponent of the substituted variable, then Horner
    by_k: dict[int, MultiPoly] = {}
    for e, c in p.terms.items():
        k = e[i]
        e2 = list(e)
        e2[i] = 0
        part = by_k.setdefault(k, MultiPoly.zero(p.variables))
        by_k[k] = part + MultiPoly(p.variables, {tuple(e2): c})
    if not by_k:
        return MultiPoly.zero(p.variables)
    kmax = max(by_k)
    acc = MultiPoly.zero(p.variables)
    for k in range(kmax, -1, -1):
        acc = acc * repl
        if k in by_k:
            acc = acc + by_k[k]
    return acc


def raster_csv_oracle(section) -> str:
    """``RasterSection.to_csv`` one cell at a time: both coordinates and
    every sign read by numpy indexing per cell."""
    res = section.resolution
    lines = ["i,j,x1_re,x1_im,sign_12,sign_13,sign_23,near_turning"]
    re0, re1, im0, im1 = section.window
    res_re = np.linspace(re0, re1, res)
    res_im = np.linspace(im0, im1, res)
    for i in range(res):
        for j in range(res):
            lines.append(
                ",".join(
                    [
                        str(i),
                        str(j),
                        repr(res_re[j]),
                        repr(res_im[i]),
                        str(int(section.signs[0, i, j])),
                        str(int(section.signs[1, i, j])),
                        str(int(section.signs[2, i, j])),
                        str(int(section.near_turning[i, j])),
                    ]
                )
            )
    return "\n".join(lines) + "\n"


def _relabel(ref: np.ndarray, roots: np.ndarray):
    """Order each row of ``roots`` like its row of ``ref``; rows whose match
    fails fall back to sorted order and are flagged."""
    perm, ok = tracking.match_labels_rows(ref, roots, guard_ratio=1.0 + 1e-12)
    ordered = np.take_along_axis(roots, perm, axis=-1)
    ordered[~ok] = np.sort(roots[~ok], axis=-1)
    return ordered, ~ok


def scalar_label_sweep(roots: np.ndarray, x1_first: complex, x2: complex):
    """The raster label sweep matching labeled values cell to cell: up
    column 0 one cell per call, then column by column, every row against
    its left neighbour."""
    res = roots.shape[0]
    values = np.empty_like(roots)
    flagged = np.zeros(roots.shape[:2], dtype=bool)
    try:
        values[0, 0] = critical_values(PlanePoint(x1_first, x2)).values
    except PearceyError:
        values[0, 0] = np.sort(roots[0, 0])
        flagged[0, 0] = True
    for i in range(1, res):
        values[i : i + 1, 0], flagged[i : i + 1, 0] = _relabel(
            values[i - 1 : i, 0], roots[i : i + 1, 0]
        )
    for j in range(1, res):
        values[:, j], flagged[:, j] = _relabel(values[:, j - 1], roots[:, j])
    return values, flagged


def sort_nearest(old_vals: np.ndarray, new_vals: np.ndarray):
    """Per old value: index of the nearest new value, its distance and the
    runner-up's (inf for a single value), row-wise over leading axes."""
    dist = np.abs(old_vals[..., :, None] - new_vals[..., None, :])
    ranked = np.sort(dist, axis=-1)
    second = ranked[..., 1] if ranked.shape[-1] > 1 else np.full(ranked.shape[:-1], np.inf)
    return np.argmin(dist, axis=-1), ranked[..., 0], second


def sort_is_bijection(perm: np.ndarray) -> np.ndarray:
    return (np.sort(perm, axis=-1) == np.arange(perm.shape[-1])).all(axis=-1)


def sort_match_labels_rows(old_vals, new_vals, guard_ratio):
    """``tracking.match_labels_rows`` on the sort: ``(perm, d1, d2, ok)``."""
    perm, d1, d2 = sort_nearest(
        np.asarray(old_vals, dtype=complex), np.asarray(new_vals, dtype=complex)
    )
    ok = ~(d2 < guard_ratio * d1).any(axis=-1) & sort_is_bijection(perm)
    return perm, d1, d2, ok


def loop_label_sweep(roots: np.ndarray, x1_first: complex, x2: complex):
    """The raster label sweep composing the batched edge permutations one
    Python step per cell of column 0 and one per column."""
    res = roots.shape[0]
    raw = roots.copy()
    flagged = np.zeros(roots.shape[:2], dtype=bool)
    try:
        raw[0, 0] = critical_values(PlanePoint(x1_first, x2)).values
    except PearceyError:
        raw[0, 0] = np.sort(roots[0, 0])
        flagged[0, 0] = True
    guard = 1.0 + 1e-12
    col_perm, col_ok = tracking.match_labels_rows(raw[:-1, 0], raw[1:, 0], guard)
    row_perm, row_ok = tracking.match_labels_rows(raw[:, :-1], raw[:, 1:], guard)
    flagged[1:, 0] = ~col_ok
    flagged[:, 1:] = ~row_ok
    # labels[i, j] indexes raw[i, j]; a flagged cell takes its sorted order
    sorted_order = np.argsort(raw, axis=-1)
    labels = np.empty(raw.shape, dtype=np.intp)
    labels[0, 0] = np.arange(3)
    for i in range(1, res):
        labels[i, 0] = col_perm[i - 1, labels[i - 1, 0]] if col_ok[i - 1] else sorted_order[i, 0]
    rows = np.arange(res)[:, None]
    for j in range(1, res):
        step = row_perm[rows, j - 1, labels[:, j - 1]]
        labels[:, j] = np.where(row_ok[:, j - 1, None], step, sorted_order[:, j])
    return np.take_along_axis(raw, labels, axis=-1), flagged


def plain_newton_polish(c: np.ndarray, dc: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Per-root Newton polish of a whole block: every row is evaluated in
    each of the ``_POLISH_ITERS`` iterations until no root is active."""
    active = np.ones(z.shape, dtype=bool)
    for _ in range(_POLISH_ITERS):
        p = poly_eval_many(c, z)
        dp = poly_eval_many(dc, z)
        active &= dp != 0
        step = np.divide(p, dp, out=np.zeros_like(p), where=active)
        z = z - step
        active &= ~(np.abs(step) < 1e-16 * (1.0 + np.abs(z)))
        if not active.any():
            break
    return z


# -- the tracker's scalar step helpers -------------------------------------------


def _horner(c: list, z):
    """Value at z of the polynomial with descending coefficients ``c``."""
    acc = c[0]
    for a in c[1:]:
        acc = acc * z + a
    return acc


def _newton_polish(c: list, dc: list, z: complex) -> complex:
    """Newton iterations from z on descending coefficients c, dc = c'."""
    for _ in range(_NEWTON_ITERS):
        p = _horner(c, z)
        dp = _horner(dc, z)
        if dp == 0:
            break
        step = p / dp
        z = z - step
        if abs(step) < 1e-16 * (1.0 + abs(z)):
            break
    return z


def _residual_scale(abs_c: list, z: complex) -> float:
    """sum_k |c_k| max(1, |z|)^k from the descending moduli ``abs_c``."""
    return _horner(abs_c, max(1.0, abs(z)))


def _accept(c: list, old_vals: list, new_vals: list) -> bool:
    """Residual test and collision guard on descending coefficients ``c``."""
    if not all(isfinite(z) for z in new_vals):
        return False
    abs_c = [abs(a) for a in c]
    for z in new_vals:
        if abs(_horner(c, z)) > RESIDUAL_TOL * _residual_scale(abs_c, z):
            return False
    disp = max(abs(a - b) for a, b in zip(new_vals, old_vals))
    if len(new_vals) > 1:
        sep = _min_pairwise(new_vals)
        if sep < GUARD_RATIO * disp or sep == 0.0:
            return False
    return True


def scalar_step(c: list, old_vals: list, guess=None):
    """One tracker step by the scalar helpers, Newton starting from
    ``guess`` (default ``old_vals``): the polished values and the
    ``_accept`` decision on them.  ``abs()`` overflow propagates."""
    n = len(c) - 1
    dc = [(n - k) * a for k, a in enumerate(c[:-1])]
    new_vals = [_newton_polish(c, dc, z) for z in (old_vals if guess is None else guess)]
    return new_vals, _accept(c, old_vals, new_vals)


def scalar_misfit(c: list, vals: list, factor):
    """The tracker's start check by the scalar helpers: the first value
    failing the residual test scaled by ``factor``, or None."""
    abs_c = [abs(a) for a in c]
    for z in vals:
        if abs(_horner(c, z)) > RESIDUAL_TOL * _residual_scale(abs_c, z) * factor:
            return z
    return None


def mp_polyroots(c: list, dps: int = 30):
    """Roots of the polynomial with descending coefficients ``c``, by
    ``mpmath.polyroots`` at ``dps`` digits, each paired with its roundoff
    floor 2^-52 sum_k |c_k| max(1, |r|)^k / |p'(r)|: the distance from r
    within which evaluating p in double precision cannot tell a value from
    r."""
    import mpmath

    n = len(c) - 1
    out = []
    with mpmath.workdps(dps):
        dc = [(n - k) * mpmath.mpc(a) for k, a in enumerate(c[:-1])]
        for r in mpmath.polyroots([mpmath.mpc(a) for a in c], maxsteps=200, extraprec=60):
            scale = _horner([abs(a) for a in c], max(1.0, abs(complex(r))))
            out.append((complex(r), 2.0**-52 * scale / float(abs(mpmath.polyval(dc, r)))))
    return out


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


def _newton_polish_np(coeffs, z, iters=12):
    dcoeffs = coeffs[1:] * np.arange(1, coeffs.size)
    for _ in range(iters):
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


def _margin_np(old_vals, new_vals, guard_ratio):
    """Whether the guard passes new values, and their margin: minimum
    pairwise separation over largest displacement from the old values (inf
    for one value or no displacement, 0 for a zero separation)."""
    if new_vals.size == 1:
        return True, np.inf
    sep = _min_pairwise_np(new_vals)
    disp = float(np.max(np.abs(new_vals - old_vals)))
    if sep == 0.0:
        return False, 0.0
    return sep >= guard_ratio * disp, (sep / disp if disp > 0 else np.inf)


def _steps_np(coeffs_fn, tau, vals, end, max_step, min_step, residual_tol, guard_ratio,
              step_safety, share_grid):
    """Accepted (tau, values) from ``tau`` to ``end`` and the accepted and
    rejected counts, sizing each step by the guard margin."""
    records = []
    accepted = rejected = 0
    step = 0.5 * max_step
    while tau < end:
        target = min(end, tau + step)
        h = target - tau
        c = np.asarray(coeffs_fn(target), dtype=complex)
        new_vals = np.array([_newton_polish_np(c, z) for z in vals])
        fits = np.all(np.isfinite(new_vals)) and all(
            abs(_poly_eval_np(c, z)) <= residual_tol * _residual_scale_np(c, z) for z in new_vals
        )
        guard_ok, rho = _margin_np(vals, new_vals, guard_ratio) if fits else (False, None)
        gain = None
        if rho is not None:
            gain = float(np.floor(min(2.0, step_safety * rho / guard_ratio) * share_grid))
            gain /= share_grid
        if guard_ok:
            accepted += 1
            tau, vals = target, new_vals
            records.append((tau, vals))
            step = min(max_step, h * gain)
        else:
            rejected += 1
            step = h * (0.5 if gain is None else min(0.5, max(0.1, gain)))
            if step < min_step:
                raise StepUnderflow(tau)
    return records, accepted, rejected


def track_family_numpy(coeffs_fn, start_vals, residual_tol=1e-9, guard_ratio=3.0,
                       min_step=1e-11, max_step=0.25, stops=(), step_safety=0.8,
                       share_grid=16):
    """The tracker's step loop with numpy-scalar arithmetic throughout.

    Same start check, step schedule and acceptance rule as the library:
    the first step is half of ``max_step``; with the share g = min(2,
    step_safety rho / guard_ratio) rounded down to a multiple of 1 /
    share_grid, rho being the guard margin (minimum separation over largest
    displacement), an accepted step of size h is followed by min(max_step,
    h g), a step the guard rejects is retried at h min(0.5, max(0.1, g)),
    and any other rejection at h / 2.  Newton starts from the
    previous values (no predictor) and stops at a correction below 1e-16
    (1 + |z|) or after 12 iterations.  Each of ``stops`` up to the last
    accepted tau that is not a step's tau is then landed by Newton, value
    by value, from the linear interpolation of the records around it, and
    must pass the residual test and the guard from the earlier one;
    otherwise the loop runs from that record to the stop.  Returns ``(taus,
    values, accepted, rejected)`` over steps and stops in tau order, the
    counts those of the leg's own steps; raises ``StepUnderflow`` where the
    library raises ``ContinuationError``.
    """
    vals = np.array(start_vals, dtype=complex)
    c0 = np.asarray(coeffs_fn(0.0), dtype=complex)
    for z in vals:
        if abs(_poly_eval_np(c0, z)) > residual_tol * _residual_scale_np(c0, z) * 10:
            raise ValueError("start value does not satisfy the family")
    args = (max_step, min_step, residual_tol, guard_ratio, step_safety, share_grid)
    records, accepted, rejected = _steps_np(coeffs_fn, 0.0, vals, 1.0, *args)
    records.insert(0, (0.0, vals))
    taus = [tau for tau, _ in records]
    landed = []
    for stop in stops:
        if stop > taus[-1] or stop in taus:
            continue
        i = max(k for k, tau in enumerate(taus) if tau < stop)
        (t0, v0), (t1, v1) = records[i], records[i + 1]
        c = np.asarray(coeffs_fn(stop), dtype=complex)
        guess = v0 + (v1 - v0) * ((stop - t0) / (t1 - t0))
        new_vals = np.array([_newton_polish_np(c, z, iters=20) for z in guess])
        if not _accept_np(c, v0, new_vals, residual_tol, guard_ratio):
            new_vals = _steps_np(coeffs_fn, t0, v0, stop, *args)[0][-1][1]
        landed.append((stop, new_vals))
    records = sorted(records + landed, key=lambda r: r[0])
    return [tau for tau, _ in records], [v for _, v in records], accepted, rejected


# -- origin-labelled sheets of the scaled quartic ---------------------------------


def st_quartic_ascending(s, t):
    """Ascending coefficients in h of the scaled quartic
    (256 s^3 - 128 s^2 t^2 + 16 s t (t^3 + 9) - 4 t^3 - 27) h^4
    + (4 t^3 - 16 s t + 18) h^2 - 8 h + 1, expanded by hand."""
    lead = 256 * s**3 - 128 * s**2 * t**2 + 16 * s * t * (t**3 + 9) - 4 * t**3 - 27
    quad = 4 * t**3 - 16 * s * t + 18
    return np.array([1.0, -8.0, quad, 0.0, lead], dtype=complex)


def origin_sheets_oracle(s, t, near=0.02):
    """Origin-labelled sheets h1..h4 at (s, t), by continuation from (0, 0).

    The first-order origin germs, written out by hand, are Newton-polished
    at (s, t) scaled down to max(|s|, |t|) = ``near`` and continued along
    the straight segment to (s, t) by :func:`track_family_numpy`.
    """
    f = min(1.0, near / max(abs(s), abs(t)))
    s0, t0 = s * f, t * f
    w = np.exp(2j * np.pi / 3)
    germs = [
        1 / 3 + 4 / 9 * s0 / w + 2 / 9 * t0 * w,
        1 / 3 + 4 / 9 * s0 * w + 2 / 9 * t0 / w,
        1 / 3 + 4 / 9 * s0 + 2 / 9 * t0,
        -1 - 2 * s0 * t0 - 4 * s0**3,
    ]
    start = [newton_root(st_quartic_ascending(s0, t0)[::-1], g) for g in germs]
    moved = max(abs(a - g) for a, g in zip(start, germs))
    assert moved < 0.1 * _min_pairwise(start), "germs too far from their roots"
    _, values, _, _ = track_family_numpy(
        lambda tau: st_quartic_ascending(s0 + (s - s0) * tau, t0 + (t - t0) * tau), start
    )
    return values[-1]


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


def _im_gap(vals, pair) -> float:
    j, k = pair
    return float((vals[j - 1] - vals[k - 1]).imag)


def _segment_position(vals, pair, crosser) -> tuple[float, float]:
    """(signed area of the crosser against the segment of ``pair``, the
    crosser's projection onto that segment as a fraction of its length)."""
    a = complex(vals[pair[0] - 1])
    d = complex(vals[pair[1] - 1]) - a
    w = complex(vals[crosser - 1]) - a
    cross = d.real * w.imag - d.imag * w.real
    dot = d.real * w.real + d.imag * w.imag
    length2 = d.real * d.real + d.imag * d.imag
    return cross, (dot / length2 if length2 > 0 else -1.0)


def scalar_detect_events(x_path, tol=stokes.BISECTION_TOL):
    """Events of a path by bisecting each bracket on its own, one
    batch-of-one cubic solve per step: pair by pair, Stokes crossings
    before segment crossings, then sorted by tau.  Each pair brackets its
    own segment crossing, the sign change of the third u's signed area
    against the pair's segment."""
    traj = stokes.track_u(x_path)
    pts = [(complex(p[0]), complex(p[1])) for p in x_path]
    events = []

    for pair in stokes.PAIRS:
        series = [_im_gap(v, pair) for v in traj.values]
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
                    f_mid = _im_gap(vmid, pair)
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
        sig = [_segment_position(v, pair, crosser) for v in traj.values]
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
                f_mid, _ = _segment_position(vmid, pair, crosser)
                if f_lo * f_mid <= 0:
                    hi = mid
                else:
                    lo, f_lo, vals = mid, f_mid, vmid
            tau_c = (lo + hi) / 2
            v_c = _u_at(pts, tau_c, vals)
            _, lam = _segment_position(v_c, pair, crosser)
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


def mp_min_im_difference(x1: complex, x2: complex, dps: int = 30) -> float:
    """min |Im(u_j - u_k)| over the three pairs at (x1, x2), at ``dps``
    digits: the phase's critical points, ``numpy.roots`` of the hand-written
    4 zeta^3 + 2 x2 zeta + x1 refined by Newton in mpmath, carry
    u = -(3 x1 zeta + 2 x2 zeta^2) / 4.  The three points must be distinct."""
    import mpmath

    with mpmath.workdps(dps):
        a, b = mpmath.mpc(x1), mpmath.mpc(x2)
        zetas = []
        for z in np.roots([4.0, 0.0, 2.0 * complex(x2), complex(x1)]):
            z = mpmath.mpc(z)
            for _ in range(40):
                step = (4 * z**3 + 2 * b * z + a) / (12 * z**2 + 2 * b)
                z -= step
                if abs(step) <= mpmath.mpf(10) ** (3 - dps) * (1 + abs(z)):
                    break
            else:
                raise AssertionError(f"Newton did not converge at {(x1, x2)}")
            zetas.append(z)
        us = [-(3 * a * z + 2 * b * z * z) / 4 for z in zetas]
        assert len({complex(z) for z in zetas}) == 3, (x1, x2)
        return float(min(abs(mpmath.im(us[j] - us[k])) for j, k in ((0, 1), (0, 2), (1, 2))))


# -- f_0 phase continuation one labeling-path leg at a time -------------------


def f0_branch_per_leg(x, ell):
    """(6 zeta_ell^2 + x2)^(-1/2) continued along the labeling path, with
    one ``track_family`` call and one phase-unwrapping loop per leg."""
    theta = 2.0 * (np.pi + 2.0 * np.pi * ell / 3.0)
    w_prev = None
    pts = [p.as_tuple() for p in labeling_path(x)]
    ref = reference_zetas(pts[0][0].real)
    vals = ref
    for a, b in zip(pts[:-1], pts[1:]):
        trace = tracking.track_family(
            lambda p: char_cubic_coeffs(PlanePoint(*p)), tracking.Segment(a, b), vals
        )
        for (_, x2), triple in zip(trace.points, trace.values):
            w = 6.0 * triple[ell - 1] ** 2 + x2
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


def trajectory_panel(traj, upto_tau: float, meta: str = "") -> str:
    """One trajectory panel of ``track-u --panels`` drawn alone: the rows of
    the trace up to ``upto_tau``, its window from their largest |Re u| and
    |Im u|, and each polyline point mapped and formatted by itself."""
    from pearcey_wkb.svgout import TRAJ_COLORS, SvgCanvas

    rows = [v.tolist() for t, v in zip(traj.taus, traj.values) if t <= upto_tau]
    tracks = [list(track) for track in zip(*rows)]
    allv = [z for tr in tracks for z in tr]
    m = max(max(abs(z.real) for z in allv), max(abs(z.imag) for z in allv)) * 1.2
    canvas = SvgCanvas(window=(-m, m, -m, m), meta=meta)

    def polyline(zs, color, width):
        pts = " ".join(f"{x:.6g},{y:.6g}" for x, y in map(canvas._map, zs))
        canvas.elements.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="{width:.6g}"/>'
        )

    canvas.frame()
    polyline([complex(-m, 0), complex(m, 0)], "#cccccc", 1.0)
    polyline([complex(0, -m), complex(0, m)], "#cccccc", 1.0)
    for i, tr in enumerate(tracks):
        polyline(tr, TRAJ_COLORS[i], 1.4)
        canvas.dot(tr[-1], r=3.0, color=TRAJ_COLORS[i])
        canvas.text(tr[-1] + 0.03 * abs(m), f"u{i + 1}", color=TRAJ_COLORS[i])
    return canvas.render()
