from fractions import Fraction

import numpy as np
import pytest
import sympy

from pearcey_wkb import geometry
from pearcey_wkb.borel import SheetField
from pearcey_wkb.errors import TurningPointError, ValidationError
from pearcey_wkb.geometry import (
    PlanePoint,
    char_roots,
    critical_values,
    labeled_point,
    p_ell,
    reference_zetas,
    singular_locus_cubic,
    stokes_sextic,
    stokes_sextic_roots,
    turning_discriminant,
)
from pearcey_wkb.multipoly import MultiPoly, discriminant
from pearcey_wkb.aberth import roots_aberth

from oracles import multipoly_sympy, singular_cubic_sympy, stokes_sextic_sympy, substitute


W = np.exp(2j * np.pi / 3)


def _sorted(vals):
    return sorted(vals, key=lambda z: (round(z.real, 8), round(z.imag, 8)))


class TestCharRoots:
    def test_cube_roots_of_unity_as_set(self):
        z = char_roots(PlanePoint(-4.0, 0.0))
        got = _sorted(z.values)
        want = _sorted([1.0 + 0j, W, W**2])
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-10

    def test_zero_one_minus_one(self):
        z = char_roots(PlanePoint(0.0, -2.0))
        got = _sorted(z.values)
        want = _sorted([0.0 + 0j, 1.0 + 0j, -1.0 + 0j])
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-10

    def test_generic_point_residual(self):
        z = char_roots(PlanePoint(1.0, 1.0))
        roots = roots_aberth([1.0, 2.0, 0.0, 4.0], tol=1e-13)
        got = _sorted(z.values)
        want = _sorted(roots)
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-10

    def test_turning_point_strict_error(self):
        with pytest.raises(TurningPointError):
            char_roots(PlanePoint(0.0, 0.0))

    def test_reference_labels(self):
        z = char_roots(PlanePoint(1.0, 0.0))
        ref = reference_zetas(1.0)
        assert max(abs(a - b) for a, b in zip(z.values, ref)) < 1e-12


class TestCriticalValues:
    def test_positive_axis(self):
        u = critical_values(PlanePoint(4.0, 0.0))
        want = _sorted([3.0 + 0j, -3 * np.exp(1j * np.pi / 3), -3 * np.exp(-1j * np.pi / 3)])
        assert max(abs(a - b) for a, b in zip(_sorted(u.values), want)) < 1e-10
        # labels follow u_ell ~ p_ell x1^(4/3) on the reference locus
        assert abs(u[3] - 3.0) < 1e-10
        assert abs(u[1] - 3 * W) < 1e-10

    def test_negative_axis(self):
        u = critical_values(PlanePoint(-4.0, 0.0))
        want = _sorted([3.0 + 0j, 3 * W, 3 * W**2])
        assert max(abs(a - b) for a, b in zip(_sorted(u.values), want)) < 1e-10

    def test_merged_near_turning_point(self):
        # approaching T two of the values coalesce (double critical point)
        x2 = -3.0
        x1 = np.sqrt(-8 * x2**3 / 27) * (1 + 1e-3)
        u = critical_values(PlanePoint(x1, x2))
        d = min(
            abs(u.values[i] - u.values[j]) for i in range(3) for j in range(i)
        )
        assert d < 0.15 * max(abs(v) for v in u.values)


class TestTurningDiscriminant:
    def test_origin(self):
        v, on = turning_discriminant(PlanePoint(0.0, 0.0))
        assert v == 0 and on

    def test_float_point_on_set(self):
        v, on = turning_discriminant(PlanePoint(2 * np.sqrt(2), -3.0))
        assert abs(v) < 1e-10 and on

    def test_off_set(self):
        v, on = turning_discriminant(PlanePoint(1.0, 0.0))
        assert v == 27 and not on


class TestSingularLocusCubic:
    def test_equals_the_elimination_term_for_term_in_order(self):
        # the closed form is the z-discriminant of the depressed quartic,
        # its terms in the order elimination leaves them, which the
        # compiled evaluator sums in
        quartic = MultiPoly(("z", "x1", "x2", "y"),
                            {(4, 0, 0, 0): 1, (2, 0, 1, 0): 1, (1, 1, 0, 0): 1, (0, 0, 0, 1): 1})
        eliminated = discriminant(quartic, "z").drop_variable("z")
        cubic = singular_locus_cubic()
        assert cubic.variables == eliminated.variables == ("x1", "x2", "y")
        assert list(cubic.terms.items()) == list(eliminated.terms.items())
        assert all(type(c) is int for c in cubic.terms.values())

    def test_leading_coefficient(self):
        cubic = singular_locus_cubic()
        lead = cubic.as_univariate("y")[3]
        assert lead.constant_value() == 256

    def test_specialization_x2_zero(self):
        cubic = singular_locus_cubic()
        spec = substitute(cubic, "x2", MultiPoly.zero(cubic.variables))
        # 256 y^3 - 27 x1^4
        expected = MultiPoly(cubic.variables, {(0, 0, 3): 256, (4, 0, 0): -27})
        assert spec == expected

    def test_vanishes_on_critical_values(self):
        rng = np.random.default_rng(42)
        cubic = singular_locus_cubic()
        for _ in range(20):
            x = PlanePoint(complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
            us = critical_values(x).values
            scale = max(1.0, max(abs(u) for u in us)) ** 3 * 256
            for u in us:
                r = cubic.eval_numeric({"x1": x.x1, "x2": x.x2, "y": u})
                assert abs(r) < 1e-10 * scale


class TestStokesSextic:
    def test_root_set_at_reference(self):
        # at (-4, 0) the pairwise differences all have modulus 3 sqrt(3)
        roots = stokes_sextic_roots(PlanePoint(-4.0, 0.0))
        assert np.allclose(np.abs(roots), 3 * np.sqrt(3), atol=1e-8)
        us = critical_values(PlanePoint(-4.0, 0.0)).values
        diffs = _sorted([us[j] - us[k] for j in range(3) for k in range(3) if j != k])
        assert max(abs(a - b) for a, b in zip(_sorted(roots), diffs)) < 1e-8

    def test_roots_equal_pairwise_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = PlanePoint(complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
            if turning_discriminant(x)[1]:
                continue
            us = critical_values(x).values
            diffs = _sorted([us[j] - us[k] for j in range(3) for k in range(3) if j != k])
            roots = _sorted(stokes_sextic_roots(x))
            scale = max(1.0, max(abs(d) for d in diffs))
            assert max(abs(a - b) for a, b in zip(roots, diffs)) < 1e-8 * scale

    def test_constant_term_carries_turning_cubed(self):
        sext = stokes_sextic()
        const = sext.as_univariate("F")[0]
        t = MultiPoly(sext.variables, {(2, 0, 0): 27, (0, 3, 0): 8})
        q = const.exact_divide(t).exact_divide(t).exact_divide(t)
        # remaining factor is proportional to x1^2
        x1sq = MultiPoly(sext.variables, {(2, 0, 0): 1})
        assert x1sq.divides(q)
        assert not t.divides(q)

    def test_specialization_x2_zero(self):
        sext = stokes_sextic()
        spec = substitute(sext, "x2", MultiPoly.zero(sext.variables))
        expected = MultiPoly(sext.variables, {(0, 0, 6): 2**16, (8, 0, 0): 3**9})
        assert spec == expected

    def test_cubic_in_f_squared(self):
        # the roots are +-(y_j - y_k) over the singular cubic a y^3 + b y^2 +
        # c y + d, so the sextic is even in F and, with G = F^2, 2^16 times it
        # is a^4 prod_{j<k} (G - (y_j - y_k)^2): in G, the symmetric functions
        # of the squared differences, written in a, b, c, d without resultants
        sext = stokes_sextic()
        assert all(ef % 2 == 0 for _, _, ef in sext.terms)
        gvars = ("x1", "x2", "G")
        in_g = MultiPoly(gvars, {(e1, e2, ef // 2): 2**16 * c
                                 for (e1, e2, ef), c in sext.terms.items()})
        d, c, b, a = (p.drop_variable("y").embed(gvars)
                      for p in singular_locus_cubic().as_univariate("y"))
        g = MultiPoly.var(gvars, "G")
        k = b * b - a * c * 3
        disc = b * b * c * c - a * c**3 * 4 - b**3 * d * 4 - a * a * d * d * 27 + a * b * c * d * 18
        assert in_g == a**4 * g**3 - a * a * k * g * g * 2 + k * k * g - disc
        assert all(type(v) is int for v in in_g.terms.values())

    def test_built_from_the_cubic_in_few_products(self, monkeypatch):
        # the resolvent of the eliminated cubic: no second elimination (823
        # products by two nested resultants)
        singular_locus_cubic()
        products, real = [], MultiPoly.__mul__
        monkeypatch.setattr(MultiPoly, "__mul__", lambda p, q: products.append(1) or real(p, q))
        sextic, count = stokes_sextic.__wrapped__(), len(products)
        assert 0 < count <= 50
        assert sextic == stokes_sextic()

    def test_weighted_homogeneity(self):
        # weights 3, 2, 4 for x1, x2, F; every term has weighted degree 24
        sext = stokes_sextic()
        for (e1, e2, ef), _c in sext.terms.items():
            assert 3 * e1 + 2 * e2 + 4 * ef == 24


class TestEliminationOracle:
    """The derived polynomials equal sympy's own elimination up to a constant."""

    @staticmethod
    def assert_constant_multiple(ours, theirs):
        ratio = sympy.cancel(multipoly_sympy(ours) / theirs)
        assert ratio.is_Rational and ratio != 0, ratio

    def test_singular_cubic(self):
        self.assert_constant_multiple(singular_locus_cubic(), singular_cubic_sympy())

    def test_stokes_sextic(self):
        self.assert_constant_multiple(stokes_sextic(), stokes_sextic_sympy())


class TestScaled:
    """The scaling chart (s, t) = (y / x1^(4/3), x2 / x1^(2/3)) of SheetField."""

    def test_fixed_point(self):
        f = SheetField(PlanePoint(1.0, 0.0))
        assert abs(f.s_of_y(p_ell(3)) - p_ell(3)) < 1e-14 and abs(f.t) < 1e-14

    def test_homogeneity(self):
        f = SheetField(PlanePoint(16.0, 0.0))
        assert abs(f.s_of_y(16 ** (4 / 3) * p_ell(3)) - p_ell(3)) < 1e-12

    def test_x1_zero_errors(self):
        with pytest.raises(ValidationError):
            SheetField(PlanePoint(0.0, 1.0))


class TestInvariants:
    def test_primitive_difference_identity_exact(self):
        # varpi(za) - varpi(zb) = (1/4)(za - zb)(3 x1 + 2 x2 (za + zb))
        # as an exact polynomial identity (no cubic constraint needed)
        V = ("za", "zb", "x1", "x2")
        za, zb = MultiPoly.var(V, "za"), MultiPoly.var(V, "zb")
        x1, x2 = MultiPoly.var(V, "x1"), MultiPoly.var(V, "x2")

        def varpi(z):
            return (x1 * z * 3 + x2 * z * z * 2) * Fraction(1, 4)

        lhs = varpi(za) - varpi(zb)
        rhs = (za - zb) * (x1 * 3 + x2 * (za + zb) * 2) * Fraction(1, 4)
        assert lhs == rhs

    def test_weighted_homogeneity_of_labels(self):
        x = PlanePoint(0.8, -0.3 + 0.2j)
        lam = 1.7
        z1 = char_roots(x)
        z2 = char_roots(PlanePoint(lam**3 * x.x1, lam**2 * x.x2))
        for a, b in zip(z1.values, z2.values):
            assert abs(b - lam * a) < 1e-10 * max(1.0, abs(b))
        u1 = critical_values(x)
        u2 = critical_values(PlanePoint(lam**3 * x.x1, lam**2 * x.x2))
        for a, b in zip(u1.values, u2.values):
            assert abs(b - lam**4 * a) < 1e-10 * max(1.0, abs(b))


# the (x1, x2) of the 24 seeded borel/quadrature benchmark inputs
POOL_POINTS = [
    (1.1121 - 0.2752j, 0.0871 + 0.1743j), (0.6076 + 0.1598j, 0.1401 - 0.0327j),
    (0.9327 + 0.2432j, -0.0416 + 0.0954j), (0.9302 + 0.0628j, -0.0317 - 0.0849j),
    (1.2843 + 0.2713j, -0.1570 + 0.0500j), (0.9712 - 0.0442j, 0.0772 + 0.0646j),
    (0.8532 - 0.1284j, -0.1096 - 0.1058j), (0.9195 - 0.1886j, -0.0503 + 0.1513j),
    (0.6585 - 0.0261j, -0.1294 + 0.0635j), (0.6693 - 0.0063j, -0.0144 + 0.0656j),
    (1.0678 + 0.2583j, 0.1367 - 0.0890j), (1.0049 + 0.0484j, 0.1342 - 0.0320j),
    (1.1179 - 0.1053j, 0.0620 - 0.0155j), (1.0324 - 0.1928j, -0.0014 - 0.1594j),
    (1.0688 - 0.0077j, -0.1094 + 0.1608j), (0.6113 - 0.1245j, -0.0657 + 0.1199j),
    (0.7765 + 0.1650j, -0.0955 - 0.1414j), (1.0971 - 0.0501j, 0.0819 - 0.1782j),
    (1.3203 - 0.0548j, 0.0534 - 0.1942j), (0.6978 + 0.0631j, 0.1478 - 0.0453j),
    (1.3361 - 0.3772j, -0.1296 - 0.1341j), (0.6740 - 0.1138j, -0.0114 + 0.0119j),
    (1.2252 + 0.0451j, -0.0934 + 0.1130j), (0.7104 - 0.0996j, -0.0479 - 0.0817j),
]


def _label_bytes(point):
    vals = [*point.zetas.values, *point.us.values, *(point.f0(ell) for ell in (1, 2, 3))]
    return np.array(vals, dtype=complex).tobytes()


class TestLabeledPoint:
    POINTS = [PlanePoint(*p) for p in POOL_POINTS] + [
        PlanePoint(1.0, 0.0),
        PlanePoint(-0.8 + 0.02j, 0.3 - 0.1j),  # default path bows off the turning locus
    ]

    def test_cached_labels_equal_fresh_ones_bitwise(self):
        cached = [_label_bytes(labeled_point(x)) for x in self.POINTS]
        for x, want in zip(self.POINTS, cached):
            assert _label_bytes(labeled_point(x)) == want
        geometry._labeled_point.cache_clear()
        for x, want in zip(self.POINTS, cached):
            assert _label_bytes(labeled_point(x)) == want

    def test_signed_zeros_are_labeled_apart(self):
        pos, neg = PlanePoint(1.2, 0.0), PlanePoint(1.2, -0.0)
        assert pos == neg
        want = _label_bytes(labeled_point(neg))
        geometry._labeled_point.cache_clear()
        labeled_point(pos)
        assert labeled_point(neg) is not labeled_point(pos)
        assert _label_bytes(labeled_point(neg)) == want

    def test_views_read_the_point(self):
        x = PlanePoint(0.7, 0.2 - 0.1j)
        point = labeled_point(x)
        assert char_roots(x) is point.zetas
        assert critical_values(x) is point.us
        assert labeled_point(x) is point
