from fractions import Fraction
from math import gcd

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from pearcey_wkb.errors import EvaluationError
from pearcey_wkb.multipoly import MultiPoly
from pearcey_wkb.zeta_ring import VARS, ZetaRational, homogeneity_residual

from oracles import (
    X2,
    ZETA,
    chart_d1_sympy,
    chart_d2_sympy,
    random_multipoly,
    zeta_numerator_sympy,
    zeta_rational_sympy,
)


def zr(num_terms, denom_power=0, scalar=1):
    return ZetaRational(MultiPoly(VARS, num_terms), denom_power, Fraction(scalar))


def test_derive_zeta_d1():
    got = ZetaRational.zeta().derive("d1")
    expected = zr({(0, 0): 1}, 1, Fraction(-1, 2))
    assert got == expected


def test_derive_constant_is_zero():
    assert ZetaRational.const(1).derive("d1").is_zero()
    assert ZetaRational.const(1).derive("d2").is_zero()


def test_derive_denominator_poly():
    d = ZetaRational(ZetaRational.denominator_poly())
    got = d.derive("d1")
    expected = zr({(1, 0): -6}, 1)  # -6 zeta / (6 zeta^2 + x2)
    assert got == expected


def test_derive_denominator_numeric_cross_check():
    # chain rule result checked against finite differences along the
    # constraint curve x1 = -4 z^3 - 2 x2 z (x2 held fixed)
    d = ZetaRational(ZetaRational.denominator_poly())
    got = d.derive("d1")
    z0, x20 = 0.7 + 0.2j, 0.3 - 0.1j
    h = 1e-6

    def x1_of(z):
        return -4 * z**3 - 2 * x20 * z

    def z_of_x1(x1_target, z_guess):
        z = z_guess
        for _ in range(50):
            f = -4 * z**3 - 2 * x20 * z - x1_target
            df = -12 * z**2 - 2 * x20
            z -= f / df
        return z

    x10 = x1_of(z0)
    zp = z_of_x1(x10 + h, z0)
    zm = z_of_x1(x10 - h, z0)
    fd = ((6 * zp**2 + x20) - (6 * zm**2 + x20)) / (2 * h)
    assert abs(fd - got.eval(z0, x20)) < 1e-6 * max(1.0, abs(fd))


def test_eval_examples():
    assert ZetaRational.zeta().eval(1.0, 0.0) == 1.0
    f = zr({(1, 0): 3}, 2)  # 3 zeta / (6 zeta^2 + x2)^2
    assert abs(f.eval(1.0, 0.0) - 1 / 12) < 1e-15


def test_eval_at_turning_point_errors():
    f = zr({(1, 0): 1}, 1)
    with pytest.raises(EvaluationError):
        f.eval(1.0, -6.0)  # 6 zeta^2 + x2 = 0


def test_normalization_cancels_denominator():
    d_poly = ZetaRational.denominator_poly()
    f = ZetaRational(d_poly * MultiPoly(VARS, {(1, 0): 2}), 1)
    assert f.denom_power == 0
    assert f == zr({(1, 0): 1}, 0, 2)


def test_x1_weight_identity():
    # x1 = -4 zeta^3 - 2 x2 zeta scales as lambda^3 (residual weight -3)
    assert homogeneity_residual(ZetaRational.x1(), -3).is_zero()
    assert homogeneity_residual(ZetaRational.zeta(), -1).is_zero()


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2))
def test_mixed_partials_commute(seed, denom_power):
    rng = np.random.default_rng(seed)
    f = ZetaRational(random_multipoly(rng, VARS, max_degree=3, max_terms=4), denom_power)
    d12 = f.derive("d1").derive("d2")
    d21 = f.derive("d2").derive("d1")
    assert d12 == d21


def test_directional_derivative_matches_d1():
    # numeric directional derivative along the constraint curve vs d1,
    # 50 random rational-ish points
    rng = np.random.default_rng(5)
    f = zr({(2, 1): 3, (1, 0): -2, (0, 2): 1}, 1, Fraction(5, 3))
    df = f.derive("d1")
    checked = 0
    for _ in range(50):
        z0 = complex(rng.integers(1, 8), rng.integers(-3, 4)) / 4
        x20 = complex(rng.integers(-6, 7), rng.integers(-3, 4)) / 4
        if abs(6 * z0**2 + x20) < 0.3:
            continue
        h = 1e-7

        def z_shift(dx1):
            z = z0
            for _ in range(60):
                g = 4 * z**3 + 2 * x20 * z - (4 * z0**3 + 2 * x20 * z0) + dx1
                dg = 12 * z**2 + 2 * x20
                z -= g / dg
            return z

        fd = (f.eval(z_shift(h), x20) - f.eval(z_shift(-h), x20)) / (2 * h)
        exact = df.eval(z0, x20)
        assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))
        checked += 1
    assert checked >= 40


def test_json_round_trip():
    f = zr({(2, 1): 3, (0, 0): -1}, 2, Fraction(-7, 6))
    assert ZetaRational.from_json(f.to_json()) == f


# -- the integer kernel against sympy -------------------------------------------------


@st.composite
def zeta_rationals(draw):
    """random_multipoly numerators, times d^0..2 so that cancellation is exercised,
    over d^0..3 with a rational scalar."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    num = random_multipoly(rng, VARS, max_degree=3, max_terms=4)
    num = num * ZetaRational.denominator_poly() ** draw(st.integers(0, 2))
    scalar = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9)))
    return ZetaRational(num, draw(st.integers(0, 3)), scalar)


def assert_canonical(f):
    if f.is_zero():
        assert (f.terms, f.denom_power) == ({}, 0)
        return
    coeffs = list(f.terms.values())
    assert all(type(c) is int and c != 0 for c in coeffs)
    assert gcd(*coeffs) == 1
    num = zeta_numerator_sympy(f)
    assert sympy.Poly(num, ZETA, X2).LC(order="grlex") > 0
    if f.denom_power > 0:
        assert sympy.expand(num.subs(X2, -6 * ZETA**2)) != 0  # d does not divide it


def assert_equals_sympy(f, expr):
    assert_canonical(f)
    assert sympy.cancel(zeta_rational_sympy(f) - expr) == 0


# d cancels in a product only from a factor without denominator
_D_TIMES_ZETA = ZetaRational(ZetaRational.denominator_poly() * MultiPoly.var(VARS, "zeta"))
_X2_OVER_D2 = zr({(0, 1): 1}, 2, Fraction(3, 5))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(zeta_rationals(), zeta_rationals())
@example(_D_TIMES_ZETA, _X2_OVER_D2)
@example(_X2_OVER_D2, _D_TIMES_ZETA)
def test_sum_and_product_match_sympy(a, b):
    assert_canonical(a)
    sa, sb = zeta_rational_sympy(a), zeta_rational_sympy(b)
    assert_equals_sympy(a + b, sympy.cancel(sa + sb))
    assert_equals_sympy(a * b, sympy.cancel(sa * sb))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.lists(zeta_rationals(), max_size=5))
def test_sum_reduced_once_matches_sympy_and_repeated_addition(items):
    # one reduction gives the canonical element, so its fields are those
    # of the left-to-right + chain
    total = ZetaRational.sum(items)
    assert_equals_sympy(total, sympy.cancel(sum(zeta_rational_sympy(z) for z in items)))
    chain = ZetaRational.zero()
    for z in items:
        chain = chain + z
    assert (total.terms, total.denom_power, total.scalar) == (
        chain.terms, chain.denom_power, chain.scalar)


def test_sum_edge_cases():
    z = _X2_OVER_D2
    assert ZetaRational.sum([]) == ZetaRational.zero()
    assert ZetaRational.sum([ZetaRational.zero(), z]) is z
    assert ZetaRational.sum([z, -z, ZetaRational.zero()]).is_zero()
    # d cancels out of a sum whose terms have it in their denominators
    d_over_d3 = ZetaRational.sum([zr({(2, 0): 6}, 3), zr({(0, 1): 1}, 3)])
    assert d_over_d3 == zr({(0, 0): 1}, 2)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(zeta_rationals())
def test_chart_derivatives_match_sympy(a):
    sa = zeta_rational_sympy(a)
    assert_equals_sympy(a.derive("d1"), chart_d1_sympy(sa))
    assert_equals_sympy(a.derive("d2"), chart_d2_sympy(sa))
