import cmath
from math import gamma, pi, sqrt

import numpy as np
import pytest

from pearcey_wkb import quadrature
from pearcey_wkb.borel import SheetField
from pearcey_wkb.errors import (
    NumericError,
    QuadratureConvergenceError,
    TailBoundError,
    ValidationError,
)
from pearcey_wkb.geometry import PlanePoint
from pearcey_wkb.quadrature import (
    _gk_nodes,
    adaptive_segment,
    gauss_segment,
    laplace_borel_sum,
    match_borel_combination,
    pearcey_p1_residual,
    pearcey_quadrature,
    valley_directions,
)
from pearcey_wkb.wkb_series import f0_branch


class TestAdaptiveSegment:
    def test_polynomial_exact(self):
        val = adaptive_segment(lambda z: z**3, 0.0, 1.0 + 1j, 1e-14)
        expect = (1.0 + 1j) ** 4 / 4
        assert abs(val - expect) < 1e-12

    def test_oscillatory(self):
        val = adaptive_segment(lambda z: np.exp(1j * 40 * z), 0.0, 1.0, 1e-12)
        expect = (np.exp(40j) - 1) / 40j
        assert abs(val - expect) < 1e-10

    def test_unconverged_segment_raises(self):
        # a pole 1e-12 off the segment: no bisection depth resolves it
        pole = 0.5 + 1e-12j
        with pytest.raises(QuadratureConvergenceError) as info:
            adaptive_segment(lambda z: 1.0 / (z - pole), 0.0, 1.0, 1e-10)
        assert isinstance(info.value, NumericError)
        msg = str(info.value)
        assert "did not reach tol" in msg and "|fine - coarse| = " in msg
        assert f"after {quadrature.MAX_DEPTH} bisections" in msg


def _g24_mirrored():
    """G24 on [-1, 1] from its half tables: ascending nodes and weights."""
    xg, wg = np.array(quadrature._G24_NODES), np.array(quadrature._G24_WEIGHTS)
    return np.concatenate([-xg[::-1], xg]), np.concatenate([wg[::-1], wg])


class TestKronrod:
    def test_k49_integrates_legendre_polynomials_exactly(self):
        xs, kws, _ = _gk_nodes()
        for k in range(74):
            pk = np.polynomial.legendre.Legendre.basis(k)(xs)
            exact = 2.0 if k == 0 else 0.0
            assert abs(sum(w * p for w, p in zip(kws, pk)) - exact) < 1e-14, k
        # degree 74 is beyond the rule
        p74 = np.polynomial.legendre.Legendre.basis(74)(xs)
        assert abs(sum(w * p for w, p in zip(kws, p74))) > 1e-6

    @pytest.mark.parametrize("n", [24])  # the one tabulated Gauss rule
    def test_gl_nodes_are_numpys_leggauss(self, n):
        xs, ws = _g24_mirrored()
        want_xs, want_ws = np.polynomial.legendre.leggauss(n)
        np.testing.assert_allclose(xs, want_xs, rtol=0, atol=1e-15)
        np.testing.assert_allclose(ws, want_ws, rtol=0, atol=1e-15)

    def test_gauss_subset_is_the_24_point_rule(self):
        xs, kws, gws = _gk_nodes()
        xg, wg = _g24_mirrored()
        assert len(xs) == len(kws) == len(gws) == 49
        assert np.all(np.diff(xs) > 0)
        assert xs[1::2].tobytes() == xg.tobytes()
        assert gws[1::2].tobytes() == wg.tobytes()
        assert not any(gws[0::2])

    def test_panel_rule_calls_its_integrand_once_on_every_node(self):
        shapes = []

        def power(n):
            def f(z):
                shapes.append(z.shape)
                return z**n
            return f

        # three panels from 0 to 2: G24 is exact to degree 47, K49 to 73
        edges = np.array([0.0, 0.5j, 1.0 + 0.5j, 2.0])
        kron, gauss = gauss_segment(power(47), edges)
        assert max(abs(kron - 2.0**48 / 48), abs(gauss - 2.0**48 / 48)) < 1e-13 * 2.0**48 / 48
        kron, _ = gauss_segment(power(73), edges)
        assert abs(kron - 2.0**74 / 74) < 1e-13 * 2.0**74 / 74
        assert shapes == [(3, 49)] * 2


class TestPearceyQuadrature:
    def test_gamma_quarter_oracle(self):
        # vanishing base point: the integral reduces to Gamma(1/4) data
        v = pearcey_quadrature(PlanePoint(0.0, 0.0), 1.0, (2, 0))
        expect = np.exp(1j * pi / 4) * gamma(0.25) / 2
        assert abs(v - expect) < 1e-9 * abs(expect)

    def test_weighted_homogeneity(self):
        x = PlanePoint(0.7, 0.3 + 0.1j)
        lam, eta = 2.0, 3.0
        v1 = pearcey_quadrature(
            PlanePoint(lam**3 * 0.7, lam**2 * (0.3 + 0.1j)), eta / lam**4, (1, 3)
        )
        v2 = pearcey_quadrature(x, eta, (1, 3))
        assert abs(v1 - lam * v2) < 1e-6 * abs(lam * v2)

    def test_annihilation_by_finite_differences(self):
        r = pearcey_p1_residual(PlanePoint(1.0, 0.1), 10.0, (1, 2))
        assert r < 1e-4

    def test_contour_validation(self):
        with pytest.raises(ValidationError):
            pearcey_quadrature(PlanePoint(1.0, 0.0), 1.0, (1, 1))
        with pytest.raises(ValidationError):
            pearcey_quadrature(PlanePoint(1.0, 0.0), -2.0, (0, 1))

    def test_valley_directions_rotate_with_eta(self):
        d1 = valley_directions(1.0)
        d2 = valley_directions(1j)
        assert abs(d1[0] - np.exp(1j * pi / 4)) < 1e-12
        assert abs(d2[0] - np.exp(1j * (pi - pi / 2) / 4)) < 1e-12

    def test_tail_bound_cap(self):
        # truncation radius needed exceeds the cap
        with pytest.raises(TailBoundError):
            pearcey_quadrature(PlanePoint(30.0, 0.0), 1.0, (0, 1), r_cap=2.0)
        # integrand peak too large for double precision at all
        with pytest.raises(TailBoundError):
            pearcey_quadrature(PlanePoint(1e9, 0.0), 1.0, (0, 1))


class TestLaplace:
    def test_leading_order_ratio(self, series8):
        x = PlanePoint(1.0, 0.1)
        f = SheetField(x)
        errs = []
        for eta in (10.0, 20.0, 40.0):
            val = laplace_borel_sum(3, x, eta, table=series8).value
            lead = np.exp(-eta * f.u_vals[2]) * eta**-0.5 * f0_branch(x, 3)
            errs.append(abs(val / lead - 1))
        assert errs[0] < 0.1
        assert errs[2] < errs[1] < errs[0]
        # 1/eta convergence: halving error when eta doubles, roughly
        assert 1.5 < errs[0] / errs[1] < 2.5

    def test_ray_through_singularity_rejected(self, series8):
        # arg x1 = 3 pi / 8 rotates the singularity triangle so one pair is
        # horizontally aligned; the Laplace ray from the left one is blocked
        x = PlanePoint(np.exp(3j * np.pi / 8), 0.0)
        f = SheetField(x)
        aligned = [
            (j, k)
            for j in (1, 2, 3)
            for k in (1, 2, 3)
            if j != k
            and abs((f.u_vals[j - 1] - f.u_vals[k - 1]).imag) < 1e-9
            and (f.u_vals[k - 1] - f.u_vals[j - 1]).real > 0
        ]
        assert aligned
        with pytest.raises(TailBoundError):
            laplace_borel_sum(aligned[0][0], x, 10.0, table=series8)

    def test_linearity_of_integral(self, series8):
        # integral of a sum equals the sum of integrals: check via two
        # labels at the same eta against a combined quadrature
        x = PlanePoint(1.0, 0.1)
        eta = 12.0
        v1 = laplace_borel_sum(1, x, eta, table=series8).value
        v2 = laplace_borel_sum(2, x, eta, table=series8).value
        v3 = laplace_borel_sum(3, x, eta, table=series8).value
        assert np.isfinite(v1) and np.isfinite(v2) and np.isfinite(v3)
        # conjugate-symmetric point: Psi_1 and Psi_2 are conjugates
        assert abs(v1 - np.conj(v2)) < 1e-6 * abs(v1)


class TestMatching:
    def test_unique_combination(self, series8):
        x = PlanePoint(1.0, 0.1)
        eta = 10.0
        psis = [laplace_borel_sum(ell, x, eta, table=series8).value for ell in (1, 2, 3)]
        v = pearcey_quadrature(x, eta, (1, 2))
        phase, eps = match_borel_combination(v, psis, tol=1e-4)
        assert eps == (0, 0, 1)  # recessive saddle contour
        comb = phase * sqrt(pi) * sum(e * p for e, p in zip(eps, psis))
        assert abs(v - comb) < 1e-6 * abs(v)

    def test_no_match_raises(self):
        with pytest.raises(ValidationError):
            match_borel_combination(1.0 + 0j, [1e6, 2e6, 3e6], tol=1e-8)


class TestDefiningIntegralOracle:
    """Borel sums against the defining integral at 30 digits (mpmath along
    the valley rays, no code shared with ``quadrature.py``).

    The second point and eta are those of the benchmark's seeded quadrature
    pool entry 1, on the non-adjacent contour (0, 2), whose matched
    combination has two nonzero coefficients.
    """

    @pytest.mark.parametrize(
        "x1, x2, eta, contour, phase, eps",
        [
            (1.0, 0.1, 10.0, (1, 2), 1j, (0, 0, 1)),
            (0.6076 + 0.1598j, 0.1401 - 0.0327j, 6.01, (0, 2), -1j, (0, 1, -1)),
        ],
    )
    def test_borel_sums_match_defining_integral(self, series8, x1, x2, eta, contour, phase, eps):
        from oracles import pearcey_integral_mp

        x = PlanePoint(x1, x2)
        psis = [laplace_borel_sum(ell, x, eta, table=series8).value for ell in (1, 2, 3)]
        value = pearcey_integral_mp(x1, x2, eta, contour)
        assert match_borel_combination(value, psis) == (phase, eps)
        comb = phase * sqrt(pi) * sum(e * p for e, p in zip(eps, psis))
        assert abs(value - comb) <= 1e-10 * abs(value)

    @pytest.mark.parametrize(
        "x1, x2, eta, contour, rel",
        [
            # the straight contour peaks at e^28.65, far above the saddles'
            # e^16.37: a tolerance from the saddles is out of reach
            (2.0, 1 + 1j, 20.0, (1, 3), 1e-8),
            # a G16/G32 pair read 2.05e-13 and 1.44e-13 here
            (0.9712 - 0.0442j, 0.0772 + 0.0646j, 11.48, (1, 2), 1e-14),
            (0.9195 - 0.1886j, -0.0503 + 0.1513j, 10.49, (1, 2), 1e-14),
        ],
    )
    def test_quadrature_matches_defining_integral(self, x1, x2, eta, contour, rel):
        from oracles import pearcey_integral_mp

        want = pearcey_integral_mp(x1, x2, eta, contour, dps=40)
        got = pearcey_quadrature(PlanePoint(x1, x2), eta, contour)
        assert abs(got - want) <= rel * abs(want)

    def test_sums_report_nodes_and_convergence(self, series8):
        r = laplace_borel_sum(3, PlanePoint(1.0, 0.1), 10.0, table=series8)
        assert (r.nodes, r.converged) == (196, True)

    def test_disagreeing_estimates_run_three_passes(self, series8, monkeypatch):
        # far-piece sheets off by 1e-6 at the Gauss nodes alone: the Gauss
        # sum never agrees with Kronrod to 1e-9, all three passes run, and
        # the result says so
        real = SheetField.track_stops

        def off_at_gauss_nodes(self, vals, y0, y1, stops):
            sheets = real(self, vals, y0, y1, stops)
            return [s * (1 + 1e-6) if i % 49 % 2 else s for i, s in enumerate(sheets)]

        monkeypatch.setattr(SheetField, "track_stops", off_at_gauss_nodes)
        r = laplace_borel_sum(3, PlanePoint(1.0, 0.1), 10.0, table=series8)
        assert (r.nodes, r.converged) == (196 + 392 + 784, False)

    def test_unreachable_tolerance_raises(self, series8):
        # the endpoint piece cannot reach 1e-30 and says so
        with pytest.raises(QuadratureConvergenceError):
            laplace_borel_sum(2, PlanePoint(1.0, 0.1), 10.0, table=series8, tol=1e-30)

    def test_endpoint_piece_reaches_tight_tolerance(self, series8):
        # the series piece takes the offset w^2 itself, so no digits cancel
        # near w = 0 and 1e-14 converges on the first pass
        r = laplace_borel_sum(3, PlanePoint(1.0, 0.1), 10.0, table=series8, tol=1e-14)
        assert (r.nodes, r.converged) == (196, True)

    def test_converged_sum_tracks_its_ray_once(self, series8, monkeypatch):
        calls = []
        real = SheetField.track_stops

        def counted(self, vals, y0, y1, stops):
            calls.append(len(stops))
            return real(self, vals, y0, y1, stops)

        monkeypatch.setattr(SheetField, "track_stops", counted)
        r = laplace_borel_sum(1, PlanePoint(1.0, 0.1), 10.0, table=series8)
        assert r.converged and calls == [r.nodes] == [196]


# ROADMAP item 9's points beyond |t| <= 0.2, eta = 8: the adjacent contours
# whose Borel sums the matcher identifies, and those it refuses because one
# sum lies more than 1e4 below the integral (every coefficient of it then
# matches within the matcher's 1e-4)
BEYOND_CHART = [
    (PlanePoint(0.15, 0.5 + 0.25j), [(0, 1), (1, 2), (2, 3), (3, 0)], []),
    (PlanePoint(0.15, 0.5 + 0.5j), [(0, 1), (1, 2), (2, 3), (3, 0)], []),
    (PlanePoint(1.0, 1.5 * cmath.exp(0.25j * pi)), [(0, 1), (1, 2), (2, 3), (3, 0)], []),
    (PlanePoint(1.0, 2 * cmath.exp(0.25j * pi)), [(0, 1), (1, 2), (2, 3), (3, 0)], []),
    (PlanePoint(1.0, 3 * cmath.exp(0.25j * pi)), [(0, 1), (1, 2), (2, 3), (3, 0)], []),
    (PlanePoint(1.0, 2j), [(0, 1), (1, 2)], [(2, 3), (3, 0)]),
    (PlanePoint(1.0, 3j), [], [(0, 1), (1, 2), (2, 3), (3, 0)]),
]


@pytest.mark.parametrize("x, matched, refused", BEYOND_CHART, ids=[str(p[0]) for p in BEYOND_CHART])
def test_borel_sums_beyond_the_chart_match_the_defining_integral(x, matched, refused, series8):
    # each transform's anchor is local at its own u_ell, so every Borel sum
    # here exists; a matched combination reproduces the integral to 1e-9,
    # and a refused contour's best combination still does
    import itertools

    psis = [laplace_borel_sum(ell, x, 8.0, table=series8).value for ell in (1, 2, 3)]

    def misfit(value, phase, eps):
        return abs(value - phase * sqrt(pi) * sum(e * p for e, p in zip(eps, psis))) / abs(value)

    for contour in matched:
        value = pearcey_quadrature(x, 8.0, contour)
        assert misfit(value, *match_borel_combination(value, psis)) <= 1e-9
    for contour in refused:
        value = pearcey_quadrature(x, 8.0, contour)
        with pytest.raises(ValidationError, match="expected exactly one"):
            match_borel_combination(value, psis)
        combos = itertools.product((1j, -1j), itertools.product((-1, 0, 1), repeat=3))
        assert min(misfit(value, phase, eps) for phase, eps in combos) <= 1e-9
