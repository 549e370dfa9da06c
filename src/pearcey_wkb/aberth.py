"""Closed-form roots of polynomials of degree 1 to 3.

Univariate polynomials are plain complex coefficient arrays in ascending
degree order.  Every runtime root solve is a cubic: the singular cubic, the
derived sextic as a cubic in G = F^2 and the quadrature's ray-peak cubic.
``roots_aberth_batch`` solves many polynomials of one degree at once, one
row each; ``roots_aberth`` is a batch of one.  Their names stay while
``perfbench/tracer.py`` binds them.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateLeadingCoefficient, RootConvergenceError, ValidationError

ROOT_TOL = 1e-12  # relative residual target per root, the solvers' default
_POLISH_ITERS = 20
_LEAD_TOL = 1e-14  # relative to the largest coefficient
# 1, w, w^2 for w = e^(2 pi i / 3), written out: no ufunc runs at import
_CUBE_ROOTS_OF_UNITY = np.array([1.0, complex(-0.5, 0.75**0.5), complex(-0.5, -(0.75**0.5))])
# closed-form cubic roots closer than this, relative to the row's largest,
# are not distinct: Cardano's error grows as 1/separation, so such a pair
# may lie nearer one root than the other, and Newton polish cannot split it
_DISTINCT = 2.0**-20
# rows whose largest coefficient lies outside 2^+-_EXP_RANGE are scaled into
# [1/2, 1): Cardano's D1^2 - 4 D0^3 takes sixth powers of the coefficients,
# which overflow near 1e+60, or underflow near 1e-60 to finite wrong roots
_EXP_RANGE = 100


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


def _validated(coeffs, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient rows as a complex (N, n + 1) array, and each row's
    largest modulus; errors name the row."""
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
    if not 2 <= c.shape[1] <= 4:
        raise ValidationError(f"degree {c.shape[1] - 1}: the solver takes degrees 1 to 3")
    return c, scale


def roots_aberth_batch(coeffs, tol: float = ROOT_TOL) -> np.ndarray:
    """Roots of every row of ``coeffs``, in closed form.

    Parameters
    ----------
    coeffs : array_like, shape (N, n + 1)
        Ascending complex coefficients of N polynomials of degree n <= 3.
    tol : float
        Relative residual target per root:
        |p(r)| <= tol * sum_k |c_k| max(1,|r|)^k.

    Returns
    -------
    roots : ndarray, shape (N, n)
        Row r holds the roots of row r in deterministic order, the same
        whatever the other rows are.  A row far from unit size is first
        scaled by a power of 2, exactly.  A quadratic row takes the stable
        quadratic formula (``_quadratic``).  A cubic row takes its Cardano
        roots (``_cubic_start``), Newton-polished, or where those are not
        distinct the pair rule (``_pair_rule``).  Every root must then pass
        the residual test, else ``RootConvergenceError``.  Errors name the
        first offending row, as their message and as the attributes ``row``
        and ``detail``.
    """
    c, scale = _validated(coeffs, tol)
    if c.shape[1] == 2:
        return (-c[:, 0] / c[:, 1])[:, None]
    e = np.frexp(scale)[1][:, None]
    if (np.abs(e) > _EXP_RANGE).any():
        c = np.where(np.abs(e) > _EXP_RANGE, np.ldexp(c.real, -e) + 1j * np.ldexp(c.imag, -e), c)
    z = _quadratic(c[:, 2], c[:, 1], c[:, 0]) if c.shape[1] == 3 else _cubic_roots(c)
    ok = np.abs(poly_eval_many(c, z)) <= tol * poly_eval_many(np.abs(c), np.maximum(1.0, np.abs(z)))
    bad = np.flatnonzero(~ok.all(axis=1))
    if bad.size:
        raise _row_error(
            RootConvergenceError, bad[0], f"a root fails the residual test (tol {tol:.1e})",
            last_iterate=z[bad[0]],
        )
    return z


def _cubic_roots(c: np.ndarray) -> np.ndarray:
    """Each cubic row's Cardano roots, Newton-polished, or its pair rule."""
    z, ok = _cubic_start(c)
    dc = c[:, 1:] * np.arange(1, 4)
    if ok.all():
        return _newton_polish(c, dc, z)
    z[ok] = _newton_polish(c[ok], dc[ok], z[ok])
    z[~ok] = _pair_rule(c[~ok], dc[~ok])
    return z


def _cubic_start(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form (Cardano) roots of each cubic row, and whether the row
    may start at them.

    For the row a y^3 + b y^2 + c y + d, with D0 = b^2 - 3ac and
    D1 = 2b^3 - 9abc + 27a^2 d, the roots are
    -(b + w^k C + D0 / (w^k C)) / (3a), w = e^(2 pi i / 3), where C^3 =
    (D1 +- sqrt(D1^2 - 4 D0^3)) / 2 takes the sign of larger modulus, so
    the sum does not cancel.  A row with D0 = D1 = 0 exactly is an exact
    triple root (C = 0): all three are -b / (3a).  A row may start at its
    roots if they are a triple root, or finite and distinct: no two within
    ``_DISTINCT`` of the largest, as they are near a double root.
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
    return z, good | triple


def _quadratic(a, b, c) -> np.ndarray:
    """The roots of each a y^2 + b y + c, shape (N, 2), by the stable
    formula: q = -(b +- sqrt(b^2 - 4ac)) / 2 with the sign of larger
    modulus, then q / a and c / q (0 where q = 0, a double root at 0)."""
    s = np.sqrt(b * b - 4.0 * a * c)
    q = -0.5 * np.where(np.abs(b + s) >= np.abs(b - s), b + s, b - s)
    return np.stack([q / a, np.divide(c, q, out=np.zeros_like(q), where=q != 0)], axis=1)


def _pair_rule(c: np.ndarray, dc: np.ndarray) -> np.ndarray:
    """Roots of cubic rows with a near-double pair: the pair
    m +- sqrt(-2 p(m) / p''(m)), p to second order about the critical point
    m (the root of p' with the smaller |p(m)|), and the third root
    -b / a - 2m, as the roots sum to -b / a.  Only the third root is
    Newton-polished: from a near-double pair, Newton can carry both values
    off their roots."""
    crit = _quadratic(dc[:, 2], dc[:, 1], dc[:, 0])
    pc = poly_eval_many(c, crit)
    first = np.abs(pc[:, 0]) <= np.abs(pc[:, 1])
    m, pm = np.where(first, crit[:, 0], crit[:, 1]), np.where(first, pc[:, 0], pc[:, 1])
    a, b = c[:, 3], c[:, 2]
    with np.errstate(all="ignore"):
        half = np.sqrt(-2.0 * pm / (6.0 * a * m + 2.0 * b))
    third = _newton_polish(c, dc, (-b / a - 2.0 * m)[:, None])[:, 0]
    return np.stack([m + half, m - half, third], axis=1)


def _newton_polish(c: np.ndarray, dc: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Per-root Newton polish of the values ``z`` on the rows ``c``, whose
    derivatives are ``dc``.

    A root stops at a zero derivative, after a step below 1e-16 (1 + |r|),
    or after ``_POLISH_ITERS`` steps.  A row retires once all its roots have
    stopped; the rest continue on compacted arrays.
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
    complex coefficients of degree 1 to 3, and ``tol`` is the relative
    residual target |p(r)| <= tol * sum_k |c_k| max(1,|r|)^k.
    """
    return roots_aberth_batch(np.asarray(coeffs, dtype=complex).reshape(1, -1), tol)[0]
