"""Simultaneous polynomial root finding (Aberth-Ehrlich).

Univariate polynomials are plain complex coefficient arrays in ascending
degree order.  The iteration starts from a deterministic placement (scaled
roots of unity with a fixed angular offset) so the output ordering is
reproducible run to run.

``roots_aberth_batch`` solves many polynomials of one degree at once, one
row each; ``roots_aberth`` is a batch of one.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateLeadingCoefficient, RootConvergenceError, ValidationError

_MAX_ITERS = 400
_POLISH_ITERS = 20
_LEAD_TOL = 1e-14  # relative to the largest coefficient
_SEED_ANGLE = 0.43  # fixed offset; breaks symmetry locking on real polynomials


def poly_eval_many(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Horner evaluation of each row of ``coeffs`` at the same row of ``z``.

    ``coeffs`` holds ascending coefficients along its last axis, shape
    (..., n + 1) with n >= 1; ``z`` has shape (..., m).
    """
    acc = coeffs[..., -1, None]
    for k in range(coeffs.shape[-1] - 2, -1, -1):
        acc = acc * z + coeffs[..., k, None]
    return acc


def _validated(coeffs, tol: float) -> np.ndarray:
    """Coefficient rows as a complex (N, n + 1) array; errors name the row."""
    if tol <= 0:
        raise ValidationError("tol must be positive")
    c = np.asarray(coeffs, dtype=complex)
    if c.ndim != 2 or c.shape[1] == 0:
        raise ValidationError("polynomial coefficients must be a nonempty (N, n+1) array")
    bad = np.flatnonzero(~np.isfinite(c).all(axis=1))
    if bad.size:
        raise ValidationError(f"row {bad[0]}: polynomial coefficients must be finite")
    scale = np.abs(c).max(axis=1, initial=0.0)
    bad = np.flatnonzero(scale == 0.0)
    if bad.size:
        raise ValidationError(f"row {bad[0]}: zero polynomial")
    bad = np.flatnonzero(np.abs(c[:, -1]) <= _LEAD_TOL * scale)
    if bad.size:
        r = bad[0]
        raise DegenerateLeadingCoefficient(
            f"row {r}: leading coefficient {c[r, -1]:.3e} below tolerance (scale {scale[r]:.3e})"
        )
    if c.shape[1] < 2:
        raise ValidationError("degree must be at least 1")
    return c


def roots_aberth_batch(coeffs, tol: float = 1e-12) -> np.ndarray:
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
        whatever the other rows are.  Within a row, roots that pass the
        residual test stay put while the others move; a row stops once all
        its roots pass.  Every root is then Newton-polished to machine
        accuracy.  Errors name the first offending row.
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
    k = np.arange(n)
    z = 0.5 * radius[:, None] * np.exp(1j * (2 * np.pi * k / n + _SEED_ANGLE))

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
        raise RootConvergenceError(
            f"row {rows[0]}: Aberth iteration did not converge in {_MAX_ITERS} iterations",
            last_iterate=z[0],
        )
    return _newton_polish(c, dc, out)


def _newton_polish(c: np.ndarray, dc: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Per-root Newton polish (simple roots sharpen even when the residual
    test stopped early inside a near-multiple cluster).

    A root stops at a zero derivative, after a step below 1e-16 (1 + |r|),
    or after ``_POLISH_ITERS`` steps.
    """
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


def roots_aberth(coeffs, tol: float = 1e-12) -> np.ndarray:
    """All complex roots of one polynomial, in deterministic order.

    A batch of one for :func:`roots_aberth_batch`: ``coeffs`` are ascending
    complex coefficients of degree >= 1, and ``tol`` is the relative
    residual target |p(r)| <= tol * sum_k |c_k| max(1,|r|)^k.
    """
    return roots_aberth_batch(np.asarray(coeffs, dtype=complex).reshape(1, -1), tol)[0]


def from_roots(roots, lead: complex = 1.0) -> np.ndarray:
    """Monic-times-lead polynomial with the given roots (ascending coeffs)."""
    c = np.array([complex(lead)])
    for r in roots:
        c = np.convolve(c, np.array([-complex(r), 1.0]))
    return c
