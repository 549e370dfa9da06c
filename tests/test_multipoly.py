from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pearcey_wkb.errors import ValidationError
from pearcey_wkb.multipoly import MultiPoly, compile_polys, discriminant, eval_grid, resultant

from oracles import random_multipoly, resultant_cofactor

V = ("z", "x", "y")


def var(name):
    return MultiPoly.var(V, name)


def const(c):
    return MultiPoly.const(V, c)


def test_resultant_direct_substitution():
    z, x, y = var("z"), var("x"), var("y")
    r = resultant(z * z - x, z - y, "z")
    assert r == (y * y - x)


def test_resultant_char_cubic_vs_cofactor():
    # discriminant-style elimination for the characteristic cubic
    zv = ("zeta", "x1", "x2")
    zeta = MultiPoly.var(zv, "zeta")
    x1 = MultiPoly.var(zv, "x1")
    x2 = MultiPoly.var(zv, "x2")
    p = zeta**3 * 4 + x2 * zeta * 2 + x1
    q = zeta**2 * 12 + x2 * 2
    fast = resultant(p, q, "zeta")
    slow = resultant_cofactor(p, q, "zeta")
    assert fast == slow
    expected = MultiPoly(zv, {(0, 2, 0): 1728, (0, 0, 3): 512})  # 64(27x1^2+8x2^3)
    assert fast == expected


def test_resultant_quartic_vs_cofactor():
    qv = ("z", "x1", "x2", "y")
    z = MultiPoly.var(qv, "z")
    x1 = MultiPoly.var(qv, "x1")
    x2 = MultiPoly.var(qv, "x2")
    y = MultiPoly.var(qv, "y")
    p = z**4 + x2 * z**2 + x1 * z + y
    dp = z**3 * 4 + x2 * z * 2 + x1
    fast = resultant(p, dp, "z")
    slow = resultant_cofactor(p, dp, "z")
    assert fast == slow
    # 256y^3 - 128x2^2y^2 + 16x2(x2^3+9x1^2)y - x1^2(27x1^2+4x2^3)
    expected = MultiPoly(
        qv,
        {
            (0, 0, 0, 3): 256,
            (0, 0, 2, 2): -128,
            (0, 0, 4, 1): 16,
            (0, 2, 1, 1): 144,
            (0, 2, 3, 0): -4,
            (0, 4, 0, 0): -27,
        },
    )
    assert fast == expected


def test_resultant_var_absent_errors():
    x, y = var("x"), var("y")
    with pytest.raises(ValidationError):
        resultant(x + 1, y + 2, "z")


def test_discriminant_quadratic():
    z, x, y = var("z"), var("x"), var("y")
    d = discriminant(z * z + x * z + y, "z")
    assert d == x * x - const(4) * y


def test_discriminant_char_cubic_zero_set():
    zv = ("zeta", "x1", "x2")
    zeta = MultiPoly.var(zv, "zeta")
    x1 = MultiPoly.var(zv, "x1")
    x2 = MultiPoly.var(zv, "x2")
    d = discriminant(zeta**3 * 4 + x2 * zeta * 2 + x1, "zeta")
    # -16 (27 x1^2 + 8 x2^3): zero set is exactly the turning locus
    assert d == MultiPoly(zv, {(0, 2, 0): -432, (0, 0, 3): -128})
    t_poly = MultiPoly(zv, {(0, 2, 0): 27, (0, 0, 3): 8})
    assert t_poly.divides(d)


def test_exact_division_and_primitive():
    z, x, _ = var("z"), var("x"), var("y")
    a = (z + x) * (z * z - x * 3 + 2)
    q = a.exact_divide(z + x)
    assert q == z * z - x * 3 + 2
    with pytest.raises(ValidationError):
        (z + x + 1).exact_divide(z - x)
    p, c = (a * Fraction(-6, 7)).primitive()
    assert p * c == a * Fraction(-6, 7)
    assert p.content() == 1


def test_json_round_trip():
    z, x, y = var("z"), var("x"), var("y")
    p = z * z * x - y * Fraction(7, 3) + 1
    assert MultiPoly.from_json(p.to_json()) == p


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_resultant_multiplicative(seed):
    rng = np.random.default_rng(seed)
    vv = ("z", "w")
    while True:
        p = random_multipoly(rng, vv, max_degree=2, max_terms=3)
        q = random_multipoly(rng, vv, max_degree=2, max_terms=3)
        r = random_multipoly(rng, vv, max_degree=2, max_terms=3)
        if all(f.degree("z") >= 1 for f in (p, q, r)):
            break
    lhs = resultant(p * q, r, "z")
    rhs = resultant(p, r, "z") * resultant(q, r, "z")
    assert lhs == rhs


def test_compile_matches_eval_numeric():
    # at scalars the compiled coefficient list is eval_numeric bit for bit;
    # on a broadcast grid numpy's complex products round differently, so
    # each entry agrees to 1e-15 of its term scale (sum of |terms|)
    rng = np.random.default_rng(5)
    vv = ("a", "b", "t")
    for _ in range(20):
        p = random_multipoly(rng, vv, max_degree=3, max_terms=5)
        evaluate = p.compile("t")
        moduli = MultiPoly(vv, {e: abs(c) for e, c in p.terms.items()}).compile("t")
        a = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
        b = 0.7 - 0.2j
        got = eval_grid(evaluate, a, b)
        assert got.shape == (2, 3, p.degree("t") + 1)
        scale = eval_grid(moduli, np.abs(a), abs(b)).real
        for idx in np.ndindex(2, 3):
            point = {"a": a[idx], "b": b, "t": 0.0}
            want = [c.eval_numeric(point) for c in p.as_univariate("t")]
            assert evaluate(complex(a[idx]), b) == want
            assert np.all(np.abs(got[idx] - want) <= 1e-15 * scale[idx])
    with pytest.raises(ValidationError):
        p.compile("t")(1.0)


def _eval_uncached(p, values):
    vals = [complex(values[v]) for v in p.variables]
    acc = 0j
    for e, c in p.terms.items():
        term = complex(c)
        for v, k in zip(vals, e):
            if k:
                term *= v**k
        acc += term
    return acc


@pytest.mark.parametrize("seed", range(4))
def test_eval_numeric_bitwise_equals_uncached_formula(seed):
    rng = np.random.default_rng(seed)
    p = random_multipoly(rng, V, max_degree=3, max_terms=6) * Fraction(3, 7)
    q = random_multipoly(rng, V, max_degree=3, max_terms=6)
    points = [
        {v: complex(*rng.normal(size=2)) for v in V} for _ in range(5)
    ]
    # evaluate the operands first, so their caches exist before deriving
    for pt in points:
        p.eval_numeric(pt)
        q.eval_numeric(pt)
    derived = [p, q, p + q, p * q, (p * q).primitive()[0], p - q, -p, p**2]
    for poly in derived:
        for pt in points:
            assert poly.eval_numeric(pt) == _eval_uncached(poly, pt)


@pytest.mark.parametrize("seed", range(4))
def test_compiled_list_bitwise_equals_uncached_formula(seed):
    rng = np.random.default_rng(10 + seed)
    polys = [random_multipoly(rng, V, max_degree=4, max_terms=8) * Fraction(3, 7)
             for _ in range(3)]
    polys += [MultiPoly.zero(V), const(Fraction(-8, 3))]
    evaluate = compile_polys(polys)
    for _ in range(5):
        pt = {v: complex(*rng.normal(size=2)) for v in V}
        assert evaluate(*(pt[v] for v in V)) == [_eval_uncached(p, pt) for p in polys]
    # constant entries broadcast to the input's shape
    z = rng.normal(size=7) + 0j
    got = eval_grid(evaluate, z, 0.5 + 0j, z)
    assert got.shape == (7, 5)
    assert np.all(got[:, 3] == 0) and np.all(got[:, 4] == complex(Fraction(-8, 3)))


def _sympy_coefficient_lists():
    """(name, numeric coefficients at a point, ascending sympy coefficient
    expressions, symbols) for the package's four coefficient lists, the
    quartics written out from their displayed form."""
    import sympy

    from pearcey_wkb.borel import quartic_spec
    from pearcey_wkb.geometry import (
        PlanePoint,
        singular_cubic_coeffs,
        stokes_sextic,
        stokes_sextic_coeffs,
    )

    from oracles import singular_cubic_sympy, stokes_sextic_sympy

    x1, x2, y, g, s, t, h, F = sympy.symbols("x1 x2 y g s t h F")
    A = 4 * x1**2 * x2 * (36 * y - x2**2) + 16 * y * (x2**2 - 4 * y) ** 2 - 27 * x1**4
    B = 2 * (-8 * x2 * y + 2 * x2**3 + 9 * x1**2)
    xy = A * g**4 + B * g**2 - 8 * x1 * g + 1
    st = (
        (256 * s**3 - 128 * s**2 * t**2 + 16 * s * t * (t**3 + 9) - 4 * t**3 - 27) * h**4
        + (4 * t**3 - 16 * s * t + 18) * h**2 - 8 * h + 1
    )
    sextic = sympy.Poly(stokes_sextic_sympy(), F)
    lead = stokes_sextic().terms[(0, 0, 6)]  # the scale sympy's factor leaves free
    sextic = sextic * (sympy.Rational(lead.numerator, lead.denominator) / sextic.LC())
    lists = [
        ("xy quartic", lambda p: quartic_spec("xy").coeffs(*p), sympy.Poly(xy, g), (x1, x2, y)),
        ("st quartic", lambda p: quartic_spec("st").coeffs(*p), sympy.Poly(st, h), (s, t)),
        ("cubic", lambda p: singular_cubic_coeffs(PlanePoint(*p)),
         sympy.Poly(singular_cubic_sympy(), y), (x1, x2)),
        ("sextic", lambda p: stokes_sextic_coeffs(PlanePoint(*p)), sextic, (x1, x2)),
    ]
    return [(name, fn, poly.all_coeffs()[::-1], syms) for name, fn, poly, syms in lists]


def test_coefficient_lists_match_sympy_at_random_points():
    import sympy

    rng = np.random.default_rng(11)
    for name, coeffs_at, exprs, syms in _sympy_coefficient_lists():
        for _ in range(4):
            point = [complex(*rng.normal(size=2)) for _ in syms]
            exact = {
                sym: sympy.Rational(v.real) + sympy.I * sympy.Rational(v.imag)
                for sym, v in zip(syms, point)
            }
            want = [complex(sympy.N(sympy.expand(e.subs(exact)), 30)) for e in exprs]
            got = coeffs_at(point)
            scale = max(1.0, *map(abs, want))
            assert len(got) == len(want), name
            assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-13 * scale, name
