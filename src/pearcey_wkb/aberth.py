"""Simultaneous polynomial root finding (Aberth-Ehrlich).

Univariate polynomials are plain complex coefficient arrays in ascending
degree order.  The iteration starts from a deterministic placement, so the
output ordering is reproducible run to run: a cubic row starts at its
closed-form (Cardano) roots, and any other row, or a cubic row whose closed
form is not finite or not distinct (short of an exact triple root), on a
circle (scaled roots of unity with a fixed angular offset).  The start is
only a start: the residual test decides which rows the iteration still has
to move.

``roots_aberth_batch`` solves many polynomials of one degree at once, one
row each; ``roots_aberth`` is a batch of one.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .errors import DegenerateLeadingCoefficient, RootConvergenceError, ValidationError

ROOT_TOL = 1e-12  # relative residual target per root, the solvers' default
_MAX_ITERS = 400
_POLISH_ITERS = 20
_LEAD_TOL = 1e-14  # relative to the largest coefficient
_SEED_ANGLE = 0.43  # fixed offset; breaks symmetry locking on real polynomials
# 1, w, w^2 for w = e^(2 pi i / 3), written out: no ufunc runs at import
_CUBE_ROOTS_OF_UNITY = np.array([1.0, complex(-0.5, 0.75**0.5), complex(-0.5, -(0.75**0.5))])
# closed-form cubic roots closer than this, relative to the row's largest,
# are not distinct: Cardano's error grows as 1/separation, so such a pair
# may start nearer one root than the other, and Newton polish cannot split it
_DISTINCT = 2.0**-20


def poly_eval_many(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Horner evaluation of each row of ``coeffs`` at the same row of ``z``.

    ``coeffs`` holds ascending coefficients along its last axis, shape
    (..., n + 1) with n >= 1; ``z`` has shape (..., m).
    """
    acc = coeffs[..., -1, None]
    for k in range(coeffs.shape[-1] - 2, -1, -1):
        acc = acc * z + coeffs[..., k, None]
    return acc


def _row_error(cls, row, detail: str, **kw):
    """A ``cls`` error with message "row <row>: <detail>"; it keeps ``row``
    and ``detail`` as attributes, so a caller can name the row its own way."""
    err = cls(f"row {row}: {detail}", **kw)
    err.row, err.detail = int(row), detail
    return err


def _validated(coeffs, tol: float) -> np.ndarray:
    """Coefficient rows as a complex (N, n + 1) array; errors name the row."""
    if tol <= 0:
        raise ValidationError("tol must be positive")
    c = np.asarray(coeffs, dtype=complex)
    if c.ndim != 2 or c.shape[1] == 0:
        raise ValidationError("polynomial coefficients must be a nonempty (N, n+1) array")
    bad = np.flatnonzero(~np.isfinite(c).all(axis=1))
    if bad.size:
        raise _row_error(ValidationError, bad[0], "polynomial coefficients must be finite")
    scale = np.abs(c).max(axis=1, initial=0.0)
    bad = np.flatnonzero(scale == 0.0)
    if bad.size:
        raise _row_error(ValidationError, bad[0], "zero polynomial")
    bad = np.flatnonzero(np.abs(c[:, -1]) <= _LEAD_TOL * scale)
    if bad.size:
        r = bad[0]
        raise _row_error(
            DegenerateLeadingCoefficient, r,
            f"leading coefficient {c[r, -1]:.3e} below tolerance (scale {scale[r]:.3e})",
        )
    if c.shape[1] < 2:
        raise ValidationError("degree must be at least 1")
    return c


def roots_aberth_batch(coeffs, tol: float = ROOT_TOL) -> np.ndarray:
    """Roots of every row of ``coeffs``, one Aberth iteration per row.

    Parameters
    ----------
    coeffs : array_like, shape (N, n + 1)
        Ascending complex coefficients of N polynomials of degree n >= 1.
    tol : float
        Relative residual target per root:
        |p(r)| <= tol * sum_k |c_k| max(1,|r|)^k.

    Returns
    -------
    roots : ndarray, shape (N, n)
        Row r holds the roots of row r in deterministic order, the same
        whatever the other rows are.  A degree-3 row starts at its
        closed-form roots (``_cubic_start``); any other row, and a cubic
        row whose closed form overflows or is not distinct (short of an
        exact triple root), starts on a circle of scaled roots of unity.
        Within a row, roots that pass the residual test stay put while the
        others move; a row stops once all its roots pass, so a cubic row
        whose closed form passes is checked once and never iterated.  Every
        root is then Newton-polished to machine accuracy.  Errors name the
        first offending row, as their message and as the attributes ``row``
        and ``detail``.
    """
    c = _validated(coeffs, tol)
    n = c.shape[1] - 1
    if n == 1:
        return (-c[:, 0] / c[:, 1])[:, None]
    if c.shape[0] == 0:
        return np.empty((0, n), dtype=complex)

    dc = c[:, 1:] * np.arange(1, n + 1)
    # Fujiwara-type bound on root modulus
    lead = np.abs(c[:, -1])
    radius = np.minimum(1.0 + np.max(np.abs(c[:, :-1]) / lead[:, None], axis=1), 1e8)
    z = 0.5 * radius[:, None] * _unit_circle(n)
    if n == 3:
        z = _cubic_start(c, z)

    out = np.empty(z.shape, dtype=complex)
    # 1 / (z_i - z_j) summed over j != i: an infinite diagonal adds exact zeros
    inf_diag = np.diag(np.full(n, np.inf)).astype(complex)
    rows, ca, dca, cabs = np.arange(c.shape[0]), c, dc, np.abs(c)
    for _ in range(_MAX_ITERS):
        p = poly_eval_many(ca, z)
        ok = np.abs(p) <= tol * poly_eval_many(cabs, np.maximum(1.0, np.abs(z)))
        done = ok.all(axis=1)
        if done.any():
            # retire finished rows; the rest continue on compacted arrays
            out[rows[done]] = z[done]
            if done.all():
                break
            keep = ~done
            rows, ca, dca, cabs = rows[keep], ca[keep], dca[keep], cabs[keep]
            z, p, ok = z[keep], p[keep], ok[keep]
        dp = poly_eval_many(dca, z)
        newton = p / np.where(dp == 0, 1e-300, dp)
        sums = (1.0 / (z[:, :, None] - z[:, None, :] + inf_diag)).sum(axis=2)
        denom = 1.0 - newton * sums
        denom = np.where(np.abs(denom) < 1e-300, 1e-300, denom)
        z = z - np.where(ok, 0.0, newton / denom)
    else:
        raise _row_error(
            RootConvergenceError, rows[0],
            f"Aberth iteration did not converge in {_MAX_ITERS} iterations",
            last_iterate=z[0],
        )
    return _newton_polish(c, dc, out)


@cache
def _unit_circle(n: int) -> np.ndarray:
    """The n roots of unity turned by ``_SEED_ANGLE``, the circle start's
    directions: computed once per degree, read-only."""
    unit = np.exp(1j * (2 * np.pi * np.arange(n) / n + _SEED_ANGLE))
    unit.flags.writeable = False
    return unit


def _cubic_start(coeffs: np.ndarray, circle: np.ndarray) -> np.ndarray:
    """Closed-form (Cardano) roots of each cubic row, else its circle start.

    For the row a y^3 + b y^2 + c y + d, with D0 = b^2 - 3ac and
    D1 = 2b^3 - 9abc + 27a^2 d, the roots are
    -(b + w^k C + D0 / (w^k C)) / (3a), w = e^(2 pi i / 3), where C^3 =
    (D1 +- sqrt(D1^2 - 4 D0^3)) / 2 takes the sign of larger modulus, so
    the sum does not cancel.  A row with D0 = D1 = 0 exactly is an exact
    triple root (C = 0): all three start at -b / (3a).  Any other row whose
    values are not finite (overflow) or not distinct (two within
    ``_DISTINCT`` of the largest, near a double root) keeps ``circle``.
    """
    d, c, b, a = coeffs.T
    with np.errstate(all="ignore"):
        d0 = b * b - 3.0 * a * c
        d1 = (2.0 * b * b - 9.0 * a * c) * b + 27.0 * a * a * d
        s = np.sqrt(d1 * d1 - 4.0 * d0 * d0 * d0)
        c3 = np.where(np.abs(d1 + s) >= np.abs(d1 - s), d1 + s, d1 - s) / 2.0
        wc = c3[:, None] ** (1.0 / 3.0) * _CUBE_ROOTS_OF_UNITY
        z = -(b[:, None] + wc + d0[:, None] / wc) / (3.0 * a[:, None])
        gap = np.abs(z[:, [0, 0, 1]] - z[:, [1, 2, 2]]).min(axis=1)
    good = np.isfinite(z).all(axis=1) & (gap > _DISTINCT * np.abs(z).max(axis=1))
    triple = (d0 == 0) & (d1 == 0)
    z[triple] = (-b[triple] / (3.0 * a[triple]))[:, None]
    return np.where((good | triple)[:, None], z, circle)


def _newton_polish(c: np.ndarray, dc: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Per-root Newton polish (simple roots sharpen even when the residual
    test stopped early inside a near-multiple cluster).

    A root stops at a zero derivative, after a step below 1e-16 (1 + |r|),
    or after ``_POLISH_ITERS`` steps.  A row retires once all its roots have
    stopped; the rest continue on compacted arrays, as in the Aberth loop.
    """
    out = np.empty_like(z)
    rows = np.arange(z.shape[0])
    active = np.ones(z.shape, dtype=bool)
    for _ in range(_POLISH_ITERS):
        p = poly_eval_many(c, z)
        dp = poly_eval_many(dc, z)
        active &= dp != 0
        step = np.divide(p, dp, out=np.zeros_like(p), where=active)
        z = z - step
        active &= ~(np.abs(step) < 1e-16 * (1.0 + np.abs(z)))
        live = active.any(axis=1)
        if not live.all():
            out[rows[~live]] = z[~live]
            if not live.any():
                return out
            rows, c, dc, z, active = rows[live], c[live], dc[live], z[live], active[live]
    out[rows] = z
    return out


def roots_aberth(coeffs, tol: float = ROOT_TOL) -> np.ndarray:
    """All complex roots of one polynomial, in deterministic order.

    A batch of one for :func:`roots_aberth_batch`: ``coeffs`` are ascending
    complex coefficients of degree >= 1, and ``tol`` is the relative
    residual target |p(r)| <= tol * sum_k |c_k| max(1,|r|)^k.
    """
    return roots_aberth_batch(np.asarray(coeffs, dtype=complex).reshape(1, -1), tol)[0]
