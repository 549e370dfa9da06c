import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import from_roots, plain_newton_polish
from pearcey_wkb import aberth, stokes
from pearcey_wkb.aberth import roots_aberth, roots_aberth_batch
from pearcey_wkb.errors import (
    DegenerateLeadingCoefficient,
    RootConvergenceError,
    ValidationError,
)
from pearcey_wkb.geometry import (
    TURNING_GUARD,
    PlanePoint,
    singular_cubic_coeffs,
    singular_cubic_grid,
    stokes_sextic_grid,
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
    c = [2.0, -3.0, 0.5, 0.25]
    r1 = roots_aberth(c)
    r2 = roots_aberth(c)
    assert np.array_equal(r1, r2)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 3))
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
    # the solver is closed-form: a degree above 3 is rejected by name
    with pytest.raises(ValidationError, match=f"degree {degree + 2}"):
        roots_aberth(from_roots([*roots, 1.0, -1.0], lead))


def _mixed_rows(degree, count):
    """Rows of one degree whose polish takes different iteration counts:
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


@pytest.mark.parametrize("degree", [3])
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
    # the rows really stop polishing at different iteration counts
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


def _sextic_block_x2_zero():
    # the first 512 cells of the res-32 x2 = 0 sextic layer over window +-0.45,
    # as the raster solves them: the cubic in G = F^2 of the even coefficients
    xs = np.linspace(-0.45, 0.45, 32)
    return stokes_sextic_grid(stokes._complex_grid(xs, xs).ravel()[:512], 0.0)[:, ::2], 1e-10


def _cubic_block_near_turning_point():
    # 512 cells within 1e-3 of the turning point x1 = 1 at x2 = -1.5
    k = np.arange(512)
    cells = 1.0 + 1e-3 * np.linspace(0.01, 1.0, 512) * np.exp(2j * np.pi * k / 512)
    return singular_cubic_grid(cells, -1.5), aberth.ROOT_TOL


@pytest.mark.parametrize("block", [_sextic_block_x2_zero, _cubic_block_near_turning_point])
def test_retiring_polish_equals_plain_polish(block, monkeypatch):
    coeffs, tol = block()
    calls = []
    polish = aberth._newton_polish

    def captured(c, dc, z):
        out = polish(c, dc, z)
        calls.append((c, dc, z, out))
        return out

    monkeypatch.setattr(aberth, "_newton_polish", captured)
    roots_aberth_batch(coeffs, tol)
    # one call polishes the rows whose closed form is distinct, another the
    # third roots of the pair rule's rows, if there are any
    for c, dc, z, got in calls:
        want = plain_newton_polish(c, dc, z)
        assert (got.view(np.uint64) == want.view(np.uint64)).all()

    rows = []
    horner = aberth.poly_eval_many

    def counted(c, z):
        rows.append(c.shape[0])
        return horner(c, z)

    monkeypatch.setattr(aberth, "poly_eval_many", counted)
    c, dc, z, _ = calls[0]
    polish(c, dc, z)
    # finished rows leave the block; near the turning point some root runs
    # all iterations, so the block also leaves the loop at its end
    assert rows[0] == c.shape[0] and rows[-1] < rows[0]
    assert (len(rows) == 2 * aberth._POLISH_ITERS) == (block is _cubic_block_near_turning_point)


# -- the closed-form start of cubic rows ----------------------------------------


def _oracle_roots(c, unit):
    """The roots of ascending ``c`` by ``mpmath.polyroots`` at 30 digits,
    each with its floor: the distance within which a relative residual of
    ``unit`` cannot tell a value from the root,
    (unit S / |p^(m)(r) / m!|)^(1/m) for a root r of multiplicity m, with
    S = sum_k |c_k| max(1, |r|)^k (``oracles.mp_polyroots`` for m = 1 and
    unit 2^-52)."""
    import mpmath

    desc = [mpmath.mpc(complex(a)) for a in np.asarray(c, dtype=complex)[::-1]]
    out = []
    with mpmath.workdps(30):
        roots = mpmath.polyroots(desc, maxsteps=2000, extraprec=120)
        for r in roots:
            m = sum(abs(r - q) <= mpmath.mpf(10) ** -20 * max(1, abs(r)) for q in roots)
            deriv = desc
            for _ in range(m):
                deriv = [(len(deriv) - 1 - k) * a for k, a in enumerate(deriv[:-1])]
            scale = sum(abs(a) * max(1, abs(r)) ** k for k, a in enumerate(reversed(desc)))
            lead = abs(mpmath.polyval(deriv, r)) / mpmath.factorial(m)
            out.append((complex(r), float((unit * scale / lead) ** (mpmath.mpf(1) / m))))
    return out


def _assert_on_oracle_roots(c, roots, unit=aberth.ROOT_TOL):
    """The roots of ascending ``c`` lie on its 30-digit mpmath roots, one
    each, within 1e-14 (relative) plus the floor of ``unit``: by default
    as close as the solver's residual test can tell."""
    oracle = _oracle_roots(c, unit)
    assert len(oracle) == len(roots)

    def misfit(perm):
        return max(
            abs(z - oracle[k][0]) / (1e-14 * max(1.0, abs(oracle[k][0])) + oracle[k][1])
            for z, k in zip(roots, perm)
        )

    worst = min(misfit(perm) for perm in itertools.permutations(range(len(roots))))
    assert worst <= 1.0, (roots, oracle)


def _closed_form_start(c):
    """The closed-form start of the cubic ``c``, or None where the row may
    not start there."""
    z, ok = aberth._cubic_start(np.array([c], dtype=complex))
    return z[0] if ok[0] else None


def _starts_closed_form(c) -> bool:
    return _closed_form_start(c) is not None


_complex = st.builds(complex, st.floats(-10, 10), st.floats(-10, 10))


@settings(max_examples=60, deadline=None)
@given(st.lists(_complex, min_size=3, max_size=3), _complex)
@example([-8 + 0j, 0j, 0j], 1 + 0j)  # D0 = 0: C^3 = D1 needs the larger sign
def test_cubic_roots_match_mpmath(low, lead):
    c = [*low, lead if abs(lead) >= 0.1 else lead + 1.0]
    start = _closed_form_start(c)
    if start is not None:  # the start alone already lies on the roots
        _assert_on_oracle_roots(c, start)
    _assert_on_oracle_roots(c, roots_aberth(c))
    # well-separated roots are polished to machine accuracy
    if min(abs(a - b) for a, b in itertools.combinations(np.roots(c[::-1]), 2)) > 1e-3:
        _assert_on_oracle_roots(c, roots_aberth(c), unit=2.0**-49)


def test_pair_too_close_for_the_closed_form_takes_the_pair_rule():
    # roots 0 and -1.9e-8 beside -6.4i: Cardano returns the pair's midpoint
    # twice, from which the polish cannot split it; the pair rule, expanded
    # about the critical point between them, resolves both to machine
    # accuracy
    c = [0j, 1.192092896e-07j, 6.421875j, 1.0]
    assert not _starts_closed_form(c)
    _assert_on_oracle_roots(c, roots_aberth(c), unit=2.0**-49)


def test_closed_form_start_of_a_pure_cube():
    # y^3 - 8: D0 = 0, so D1 - sqrt(D1^2) cancels to 0 and only the sign of
    # larger modulus gives C
    start = _closed_form_start([-8.0, 0.0, 0.0, 1.0])
    assert start is not None and _as_set(start, 2 * aberth._CUBE_ROOTS_OF_UNITY, tol=1e-15)


def test_triple_root_at_the_origin_is_exact():
    # 256 y^3: D0 = D1 = 0, so C = 0 and all three roots start at -b / (3a)
    # = 0, where the residual is 0 and the polish stops at p' = 0
    c = singular_cubic_coeffs(PlanePoint(0.0, 0.0))
    assert list(_closed_form_start(c)) == [0, 0, 0]
    assert list(roots_aberth(c)) == [0, 0, 0]
    assert list(roots_aberth([0, 0, 0, 256])) == [0, 0, 0]


def test_exact_triple_root_off_the_origin():
    # (y - 2i)^3 and 4 (y + 1/2)^3: exact triple roots in binary, started
    # at -b / (3a) and never moved
    for c, root in (([8j, -12.0, -6j, 1.0], 2j), ([0.5, 3.0, 6.0, 4.0], -0.5)):
        assert list(roots_aberth(c)) == [root] * 3


_x2 = st.builds(
    lambda r, phi: r * np.exp(1j * phi), st.floats(0.05, 5.0), st.floats(0.0, 2 * np.pi)
)


@settings(max_examples=40, deadline=None)
@given(_x2, st.sampled_from([1, -1]))
@example(-1.5 + 0j, 1)  # x1 = 1: an exact double root
@example(np.complex128(4.717250707064841), 1)  # a pair 7e-8 apart: the pair rule
def test_double_root_on_the_turning_locus(x2, sign):
    # 27 x1^2 + 8 x2^3 = 0 up to rounding: the cubic has a double root
    x1 = sign * np.sqrt(-8 * x2**3 / 27)
    c = singular_cubic_coeffs(PlanePoint(x1, x2))
    _assert_on_oracle_roots(c, roots_aberth(c))


@settings(max_examples=40, deadline=None)
@given(_x2)
@example(1.0 + 0j)  # 16 y (4y - 1)^2: an exact double root
def test_zero_constant_term(x2):
    # x1 = 0: roots 0 and the double root x2^2 / 4
    c = singular_cubic_coeffs(PlanePoint(0.0, x2))
    assert c[0] == 0
    _assert_on_oracle_roots(c, roots_aberth(c))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, -1]), st.integers(140, 160))
def test_overflowing_closed_form_is_rescaled(seed, sign, exponent):
    # coefficients near 1e+-150: D1^2 overflows or D0, D1 underflow, so the
    # row is scaled by a power of 2 before its closed form
    rng = np.random.default_rng(seed)
    c = from_roots(rng.normal(size=3) + 1j * rng.normal(size=3), 1.0 + 0.5j)
    c = c * 10.0 ** (sign * exponent)
    assert not _starts_closed_form(c)
    _assert_on_oracle_roots(c, roots_aberth(c))


# -- near-double roots against 40-digit mpmath -----------------------------------


def _worst_relative_error(c) -> float:
    """The worst relative error of the roots of the ascending cubic ``c``
    against its 40-digit mpmath roots, matched one to one."""
    import mpmath

    desc = [mpmath.mpc(complex(a)) for a in np.asarray(c, dtype=complex)[::-1]]
    with mpmath.workdps(40):
        oracle = [complex(r) for r in mpmath.polyroots(desc, maxsteps=500, extraprec=200)]
    roots = roots_aberth(c)
    return min(
        max(abs(z - oracle[k]) / abs(oracle[k]) for z, k in zip(roots, perm))
        for perm in itertools.permutations(range(3))
    )


def test_near_double_root_on_the_turning_locus():
    # 27 x1^2 + 8 x2^3 = 0 up to rounding: a pair about 1e-8 apart, which
    # the pair rule resolves about as well as the row's rounding allows
    x2 = 3.482057638282707
    c = singular_cubic_coeffs(PlanePoint(np.sqrt(complex(-8 * x2**3 / 27)), x2))
    assert _worst_relative_error(c) <= 1e-8


def _near_double_rows(where: str) -> list:
    """40 seeded singular cubics with a near-double pair: on the turning
    locus up to rounding, or at |x1| in [1e-9, 1e-5], beside the double root
    x2^2 / 4 of x1 = 0; |x2| in [0.05, 5]."""
    rng = np.random.default_rng(2026)
    rows = []
    for _ in range(40):
        x2 = rng.uniform(0.05, 5.0) * np.exp(1j * rng.uniform(0.0, 2 * np.pi))
        if where == "caustic":
            x1 = rng.choice([1, -1]) * np.sqrt(-8 * x2**3 / 27)
        else:
            x1 = 10.0 ** rng.uniform(-9, -5) * np.exp(1j * rng.uniform(0.0, 2 * np.pi))
        rows.append(singular_cubic_coeffs(PlanePoint(x1, x2)))
    return rows


@pytest.mark.parametrize("where", ["caustic", "x1 = 0"])
def test_near_double_rows_are_accurate(where):
    assert max(_worst_relative_error(c) for c in _near_double_rows(where)) <= 2e-8


def test_underflowing_closed_form_is_rescaled():
    # coefficients near 1e-60: D1^2 and D0^3 underflow to 0 while D1 does
    # not, so the closed form at that scale is finite, distinct and wrong
    rng = np.random.default_rng(60)
    c = from_roots(rng.normal(size=3) + 1j * rng.normal(size=3), 1.0 + 0.5j) * 1e-60
    start = _closed_form_start(c)
    assert start is not None
    with pytest.raises(AssertionError):
        _assert_on_oracle_roots(c, start)
    _assert_on_oracle_roots(c, roots_aberth(c))


_OTHER_ROWS = [
    singular_cubic_coeffs(PlanePoint(0.0, 0.0)),  # exact triple root
    singular_cubic_coeffs(PlanePoint(1.0, -1.5)),  # double root: the pair rule
    list(10.0**150 * np.array([1.0, -2.0, 0.5j, 1.0])),  # overflow: rescaled
    singular_cubic_coeffs(PlanePoint(0.3 + 0.1j, 0.2)),  # distinct Cardano roots
]


@settings(max_examples=30, deadline=None)
@given(st.lists(_complex, min_size=3, max_size=3), _complex, st.integers(0, 4))
def test_cubic_row_does_not_depend_on_its_batch(low, lead, where):
    row = [*low, lead if abs(lead) >= 0.1 else lead + 1.0]
    rows = _OTHER_ROWS[:where] + [row] + _OTHER_ROWS[where:]
    got = roots_aberth_batch(rows)[where]
    assert (got.view(np.uint64) == roots_aberth(row).view(np.uint64)).all()


def test_figure_slice_block_passes_at_its_start(monkeypatch):
    # the first 512 cells of the res-32 x2 = 0.5 + 0.25i figure slice, window
    # +-0.8, which stay off the turning locus by the labeling guard
    xs = np.linspace(-0.8, 0.8, 32)
    x2 = 0.5 + 0.25j
    cells = stokes._complex_grid(xs, xs).ravel()[:512]
    a, b = 27 * cells**2, 8 * x2**3
    assert np.min(np.abs(a + b) / np.maximum(np.abs(a), abs(b))) > TURNING_GUARD
    coeffs = singular_cubic_grid(cells, x2)

    evaluations, before_polish = [], []
    horner, polish = aberth.poly_eval_many, aberth._newton_polish

    def counted(c, z):
        evaluations.append(c.shape[0])
        return horner(c, z)

    def captured(c, dc, z):
        before_polish.extend(evaluations)
        return polish(c, dc, z)

    monkeypatch.setattr(aberth, "poly_eval_many", counted)
    monkeypatch.setattr(aberth, "_newton_polish", captured)
    roots_aberth_batch(coeffs)
    # the closed form goes straight to the polish: no Horner call before it
    assert before_polish == []
