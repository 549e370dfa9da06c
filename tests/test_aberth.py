import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pearcey_wkb import aberth
from pearcey_wkb.aberth import from_roots, roots_aberth, roots_aberth_batch
from pearcey_wkb.errors import (
    DegenerateLeadingCoefficient,
    RootConvergenceError,
    ValidationError,
)


def _as_set(roots, expected, tol=1e-9):
    roots = sorted(roots, key=lambda z: (round(z.real, 6), round(z.imag, 6)))
    expected = sorted(expected, key=lambda z: (round(z.real, 6), round(z.imag, 6)))
    return all(abs(a - b) <= tol for a, b in zip(roots, expected))


def test_quadratic_identity_case():
    roots = roots_aberth([1.0, 0.0, 1.0], tol=1e-12)
    assert _as_set(roots, [1j, -1j])


def test_cube_roots_of_unity():
    # characteristic cubic at (x1, x2) = (-4, 0)
    roots = roots_aberth([-4.0, 0.0, 0.0, 4.0], tol=1e-12)
    w = np.exp(2j * np.pi / 3)
    assert _as_set(roots, [1.0, w, w**2])


def test_triple_root_factorization():
    # -27 h^4 + 18 h^2 - 8 h + 1 = -27 (h - 1/3)^3 (h + 1)
    roots = roots_aberth([1.0, -8.0, 18.0, 0.0, -27.0], tol=1e-12)
    near_third = [r for r in roots if abs(r - 1 / 3) < 1e-3]
    near_minus1 = [r for r in roots if abs(r + 1) < 1e-6]
    assert len(near_third) == 3 and len(near_minus1) == 1


def test_degenerate_leading_coefficient():
    with pytest.raises(DegenerateLeadingCoefficient):
        roots_aberth([1.0, 2.0, 1e-18], tol=1e-12)


def test_invalid_inputs():
    with pytest.raises(ValidationError):
        roots_aberth([], tol=1e-12)
    with pytest.raises(ValidationError):
        roots_aberth([1.0, 1.0], tol=-1.0)
    with pytest.raises(ValidationError):
        roots_aberth([np.nan, 1.0], tol=1e-12)


def test_deterministic_output_order():
    c = [2.0, -3.0, 0.5, 1.0, 0.25]
    r1 = roots_aberth(c)
    r2 = roots_aberth(c)
    assert np.array_equal(r1, r2)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 8))
def test_reconstruction_round_trip(seed, degree):
    rng = np.random.default_rng(seed)
    roots = rng.normal(size=degree) + 1j * rng.normal(size=degree)
    # keep the polynomial well conditioned: push colliding roots apart
    for i in range(degree):
        for j in range(i):
            if abs(roots[i] - roots[j]) < 0.3:
                roots[i] += 0.5 + 0.5j
    lead = 1.0 + 0.5j
    coeffs = from_roots(roots, lead)
    found = roots_aberth(coeffs, tol=1e-13)
    rebuilt = from_roots(sorted(found, key=lambda z: (z.real, z.imag)), lead)
    ordered = from_roots(sorted(roots, key=lambda z: (z.real, z.imag)), lead)
    scale = max(abs(c) for c in ordered)
    assert max(abs(a - b) for a, b in zip(rebuilt, ordered)) <= 1e-8 * scale


def _mixed_rows(degree, count):
    """Rows of one degree whose solves take different iteration counts:
    plain random roots, a near-double root, and a wide spread of moduli."""
    rng = np.random.default_rng(degree)
    rows = []
    for r in range(count):
        roots = rng.normal(size=degree) + 1j * rng.normal(size=degree)
        if r % 3 == 1:
            roots[1] = roots[0] + 1e-3 * (1 + 1j)
        elif r % 3 == 2:
            roots *= 3.0 ** np.arange(degree)
        rows.append(from_roots(roots, 1.0 + 0.5j))
    return np.array(rows)


@pytest.mark.parametrize("degree", [3, 4, 6])
def test_batch_rows_equal_single_solves(degree, monkeypatch):
    coeffs = _mixed_rows(degree, 9)
    batch = roots_aberth_batch(coeffs, tol=1e-12)
    assert batch.shape == (9, degree)

    evaluations = []
    horner = aberth.poly_eval_many

    def counted(c, z):
        evaluations[-1] += 1
        return horner(c, z)

    monkeypatch.setattr(aberth, "poly_eval_many", counted)
    for row, got in zip(coeffs, batch):
        evaluations.append(0)
        single = roots_aberth(row, tol=1e-12)
        assert single.shape == (degree,)
        assert np.max(np.abs(got - single)) <= 1e-14 * np.max(np.abs(single))
    # the rows really stop at different iteration counts
    assert len(set(evaluations)) > 1


def test_batch_errors_name_the_row():
    good = [-4.0, 0.0, 0.0, 4.0]
    with pytest.raises(DegenerateLeadingCoefficient, match="row 2"):
        roots_aberth_batch([good, good, [1.0, 2.0, 3.0, 1e-18]])
    with pytest.raises(ValidationError, match="row 1"):
        roots_aberth_batch([good, [np.nan, 0.0, 0.0, 1.0], good])
    with pytest.raises(ValidationError, match="row 0"):
        roots_aberth_batch([[np.inf, 0.0, 0.0, 1.0], good])
    with pytest.raises(ValidationError, match="row 1"):
        roots_aberth_batch([good, [0.0, 0.0, 0.0, 0.0]])
    # z^2 - 2: rounding keeps the residual above an unattainable tolerance,
    # while z^2 - 1 lands on its roots exactly
    with pytest.raises(RootConvergenceError, match="row 1") as exc:
        roots_aberth_batch([[-1.0, 0.0, 1.0], [-2.0, 0.0, 1.0]], tol=1e-30)
    assert np.allclose(sorted(exc.value.last_iterate.real), [-np.sqrt(2), np.sqrt(2)])


def test_batch_shapes():
    assert roots_aberth_batch(np.zeros((0, 4)) + 1.0).shape == (0, 3)
    linear = roots_aberth_batch([[2.0, 1.0], [-3.0, 1.5]])
    assert np.allclose(linear[:, 0], [-2.0, 2.0])
    with pytest.raises(ValidationError):
        roots_aberth_batch([1.0, 0.0, 1.0])  # 1-D input belongs to roots_aberth


def test_single_solve_returns_roots():
    roots = roots_aberth(np.array([-4.0, 0.0, 0.0, 4.0]))
    assert roots.shape == (3,)
