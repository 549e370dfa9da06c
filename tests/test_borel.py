import numpy as np
import pytest

from oracles import chord_anchor, chord_cut_side, chord_monodromy, fd_jets
from pearcey_wkb import borel, tracking
from pearcey_wkb.borel import (
    H3_CONST,
    H4_CONST,
    SheetField,
    branches_at_origin,
    branches_at_p,
    cycle_notation,
    discontinuity,
    implicit_jet,
    monodromy,
    psi_borel_eval,
    psi_on_cut,
    quartic_spec,
    root_inv_p,
    singular_pair_scale,
    verify_annihilation,
    _cut_side,
    _ray_chain,
)
from pearcey_wkb.errors import CutError, ValidationError
from pearcey_wkb.geometry import PlanePoint, p_ell, singular_cubic_coeffs
from pearcey_wkb.quadrature import laplace_borel_sum
from pearcey_wkb.wkb_series import borel_coeffs

DICTIONARY = {
    1: {1: 2, 2: 4, 3: 3, 4: 1},
    2: {1: 3, 2: 2, 3: 4, 4: 1},
    3: {1: 4, 2: 3, 3: 1, 4: 2},
}


class TestQuartic:
    def test_origin_factorization(self):
        c = quartic_spec("st").coeffs(0.0, 0.0)
        expect = np.polynomial.polynomial.polyfromroots([1 / 3, 1 / 3, 1 / 3, -1]) * (-27)
        assert np.allclose(c, expect, atol=1e-12)

    def test_leading_vanishes_at_p3(self):
        c = quartic_spec("st").coeffs(p_ell(3), 0.0)
        assert abs(c[4]) < 1e-12
        roots = np.roots([c[2], c[1], c[0]])
        want = sorted([H3_CONST, H4_CONST], key=lambda z: z.imag)
        got = sorted(roots, key=lambda z: z.imag)
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-12

    def test_xy_root_sum_zero(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            x1, x2, y = (complex(*rng.normal(size=2)) for _ in range(3))
            c = quartic_spec("xy").coeffs(x1, x2, y)
            if abs(c[4]) < 1e-6:
                continue
            roots = np.roots(c[::-1])
            scale = max(abs(r) for r in roots)
            assert abs(roots.sum()) < 1e-8 * scale

    def test_xy_leading_is_singular_cubic(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            x1, x2, y = (complex(*rng.normal(size=2)) for _ in range(3))
            c = quartic_spec("xy").coeffs(x1, x2, y)
            cub = np.polyval(
                singular_cubic_coeffs(PlanePoint(x1, x2))[::-1], y
            )
            assert abs(c[4] - cub) < 1e-9 * max(1.0, abs(cub))


class TestOriginChart:
    def test_origin_values(self):
        h = branches_at_origin(0.0, 0.0)
        assert np.allclose(h[:3], 1 / 3) and abs(h[3] + 1) < 1e-14

    def test_first_order_h3(self):
        eps = 1e-4
        h = branches_at_origin(eps, 0.0)
        assert abs((h[2] - 1 / 3) / eps - 4 / 9) < 1e-3

    def test_first_order_phases(self):
        eps = 1e-4
        w = np.exp(2j * np.pi / 3)
        h = branches_at_origin(eps, 0.0)
        assert abs((h[0] - 1 / 3) / eps - 4 / 9 / w) < 1e-3
        assert abs((h[1] - 1 / 3) / eps - 4 / 9 * w) < 1e-3

    def test_h4_cubic_term(self):
        eps = 1e-2
        h = branches_at_origin(eps, 0.0)
        assert abs(h[3] + 1 + 4 * eps**3) < 5 * eps**4

    def test_t_direction_phases(self):
        eps = 1e-4
        w = np.exp(2j * np.pi / 3)
        h = branches_at_origin(0.0, eps)
        assert abs((h[0] - 1 / 3) / eps - 2 / 9 * w) < 1e-3
        assert abs((h[1] - 1 / 3) / eps - 2 / 9 / w) < 1e-3
        assert abs(h[3] + 1) < 1e-8  # h4(0, t) = -1 exactly


class TestPCharts:
    def test_regular_constants(self):
        for ell in (1, 2, 3):
            s = p_ell(ell) * (1 - 1e-5)
            h = branches_at_p(ell, s, 0.0)
            assert abs(h[2] - H3_CONST) < 1e-3
            assert abs(h[3] - H4_CONST) < 1e-3

    def test_singular_pair_on_cut(self):
        # real offset below p3: the difference is real via the cut convention
        s = p_ell(3) - 1e-4
        h = branches_at_p(3, s, 0.0)
        want = 2 * singular_pair_scale(3) * root_inv_p(3, s)
        assert abs((h[0] - h[1]) - want) < 1e-3 * abs(want)
        assert abs(want - 2 * (2 ** (-5 / 6) / np.sqrt(3)) * 100.0) < 1e-10

    def test_root_sum_zero(self):
        for ell in (1, 2, 3):
            h = branches_at_p(ell, p_ell(ell) * 0.9, 0.0)
            assert abs(h.sum()) < 1e-9 * max(abs(v) for v in h)

    def test_branch_point_errors(self):
        with pytest.raises(CutError):
            branches_at_p(3, p_ell(3), 0.0)


class TestDictionary:
    @pytest.mark.parametrize("ell", [1, 2, 3])
    def test_identifications_t0(self, ell):
        pl = p_ell(ell)
        d = pl / abs(pl)
        start = branches_at_origin(d * 0.02, 0.0)
        final = tracking.track_polyline(
            lambda s: quartic_spec("st").coeffs(s, 0.0), [d * 0.02, pl * 0.85], start
        ).final
        local = branches_at_p(ell, pl * 0.85, 0.0)
        perm = tracking.match_labels(final, local, guard_ratio=1.1)
        got = {j + 1: perm[j] + 1 for j in range(4)}
        assert got == DICTIONARY[ell]

    def test_constant_path_identity(self):
        start = branches_at_origin(0.1, 0.05)
        final = tracking.track_polyline(
            lambda s: quartic_spec("st").coeffs(s, 0.05), [0.1, 0.1], start
        ).final
        assert np.allclose(final, start, atol=1e-12)


class TestMonodromy:
    def test_transpositions(self):
        x = PlanePoint(1.0, 0.0)
        assert cycle_notation(monodromy(1, x)) == "(1 4)"
        assert cycle_notation(monodromy(2, x)) == "(2 4)"
        assert cycle_notation(monodromy(3, x)) == "(3 4)"

    @pytest.mark.parametrize("ell", [0, 4])
    def test_unknown_singularity_rejected(self, ell):
        with pytest.raises(ValidationError):
            monodromy(ell, PlanePoint(1.0, 0.0))

    def test_transpositions_off_axis(self):
        assert cycle_notation(monodromy(3, PlanePoint(1.0, 0.1j))) == "(3 4)"

    def test_transpositions_at_complex_x(self):
        # the loops run around the u_ell of labeled_point(x), x1 off the real axis
        x = PlanePoint(0.9302 + 0.0628j, -0.0317 - 0.0849j)
        perms = [cycle_notation(monodromy(ell, x)) for ell in (1, 2, 3)]
        assert perms == ["(1 4)", "(2 4)", "(3 4)"]

    def test_composite_loop_is_4_cycle(self):
        spec = quartic_spec("st")
        d = np.exp(1j * np.pi / 3)
        start = branches_at_origin(0.02 * d, 0.0)
        to_base = tracking.track_polyline(
            lambda s: spec.coeffs(s, 0.0), [0.02 * d, 0.9 * d], start
        )
        loop = tracking.Arc(0, 0.9, np.pi / 3, np.pi / 3 + 2 * np.pi)
        looped = tracking.track_arc(lambda s: spec.coeffs(s, 0.0), loop, to_base.final)
        perm = tuple(tracking.match_labels(looped.final, to_base.final))
        lengths = sorted(
            len(c) for c in cycle_notation(perm).strip("()").split(")(")
            if c
        )
        assert cycle_notation(perm).count("(") == 1  # a single cycle
        assert len(set(perm)) == 4 and all(perm[i] != i for i in range(4))

    def test_homotopic_loops_agree(self, monkeypatch):
        x = PlanePoint(1.0, 0.0)
        monkeypatch.setattr(borel, "LOOP_REL", 0.2)
        a = monodromy(3, x)
        monkeypatch.setattr(borel, "LOOP_REL", 0.3)
        b = monodromy(3, x)
        assert a == b


# chart points of the rotated, off-axis and complex-x tests, and the complex
# x of the ``borel --monodromy`` call in scripts/compare_artifacts.py
ARC_POINTS = [
    PlanePoint(1.0, 0.0),
    PlanePoint(1.0, 0.07),
    PlanePoint(1.0, 0.06 + 0.02j),
    PlanePoint(1j, 0.02),
    PlanePoint(0.5 + 0.5j, 0.03 - 0.02j),
    PlanePoint(0.9302 + 0.0628j, -0.0317 - 0.0849j),
]


def _close(got, want, rel=1e-12):
    return np.abs(got - want).max() <= rel * np.abs(want).max()


class TestArcRoutes:
    """Each circle tracked as one arc leg against the chord polylines it
    replaced (48 chords per turn, 96 per monodromy loop)."""

    @pytest.mark.parametrize("x", ARC_POINTS, ids=str)
    def test_anchor_sheets_match_chords(self, x):
        field = SheetField(x)
        for ell in (1, 2, 3):
            assert _close(field.anchor(ell)[1], chord_anchor(field, ell))

    @pytest.mark.parametrize("x", ARC_POINTS, ids=str)
    def test_cut_sides_match_chords(self, x):
        field = SheetField(x)
        R = 0.25 * field.min_sep
        for k in (1, 2, 3):
            uk = field.u(k)
            a, sheets = field.anchor(k)
            for theta in (borel.THETA_LIFT, 2 * np.pi - borel.THETA_LIFT):
                got = _cut_side(field, uk, R, a, sheets, theta)
                assert _close(got, chord_cut_side(field, uk, R, a, sheets, theta))

    @pytest.mark.parametrize("x", ARC_POINTS, ids=str)
    def test_monodromy_matches_chords(self, x):
        for ell in (1, 2, 3):
            assert monodromy(ell, x) == chord_monodromy(ell, x)


@pytest.mark.parametrize("ell", [0, 4])
@pytest.mark.parametrize(
    "call",
    [
        lambda ell, x: psi_borel_eval(ell, x, 0.3),
        lambda ell, x: psi_on_cut(x, ell, 1.0),
        lambda ell, x: laplace_borel_sum(ell, x, 10.0),
    ],
    ids=["psi_borel_eval", "psi_on_cut", "laplace_borel_sum"],
)
def test_unknown_ell_rejected_before_tracking(call, ell, monkeypatch):
    x = PlanePoint(1.0, 0.0)
    SheetField(x)  # the labelled point is cached before tracking is disabled

    def no_tracking(*args, **kw):
        raise AssertionError("tracked before checking ell")

    monkeypatch.setattr(tracking, "track_family", no_tracking)
    with pytest.raises(ValidationError, match="ell must be 1, 2 or 3"):
        call(ell, x)


class TestPsiEvaluation:
    @pytest.mark.parametrize("ell", [1, 2, 3])
    def test_series_vs_algebraic(self, ell, series8):
        x = PlanePoint(1.0, 0.08)
        bct = borel_coeffs(x, ell, 8, table=series8)
        y = bct.base + 0.01 * abs(bct.base) * np.exp(1j * np.pi / 2)
        series = bct.eval_series(y)
        alg = psi_borel_eval(ell, x, y).value
        assert abs(series - alg) < 1e-4 * abs(alg)

    def test_series_convergence_rate(self, series8):
        # partial sums approach the sheet value as the order grows
        x = PlanePoint(1.0, 0.05)
        bct = borel_coeffs(x, 3, 8, table=series8)
        y = bct.base + 0.2 * abs(bct.base) * 1j
        alg = psi_borel_eval(3, x, y).value
        errs = [abs(bct.eval_series(y, nmax=n) - alg) for n in (2, 5, 8)]
        assert errs[2] < errs[1] < errs[0]

    def test_outside_chart_flagging(self):
        x = PlanePoint(1.0, 0.35)
        with pytest.raises(ValidationError):
            psi_borel_eval(1, x, 0.05)
        res = psi_borel_eval(1, x, 0.05, allow_unvalidated=True)
        assert not res.chart_validated

    def test_single_valued_where_unbranched(self, series8):
        # difference of two regular sheets is insensitive to the approach side
        x = PlanePoint(1.0, 0.05)
        f = SheetField(x)
        y = 0.1 * f.min_sep * 1j  # near the origin, far from cuts
        a = psi_borel_eval(1, x, y, path=[f.anchor(1)[0], y]).value
        b = psi_borel_eval(
            1, x, y, path=[f.anchor(1)[0], y - 0.05 * f.min_sep, y]
        ).value
        assert abs(a - b) < 1e-9 * max(1.0, abs(a))


class TestDiscontinuities:
    @pytest.mark.parametrize("ell,k", [(1, 3), (2, 1), (3, 2)])
    def test_plain_identity(self, ell, k):
        x = PlanePoint(1.0, 0.06 + 0.02j)
        f = SheetField(x)
        y = f.u_vals[k - 1] + 0.25 * f.min_sep
        d = discontinuity("plain", ell, k, x, y)
        rhs = (-1) ** ell * psi_on_cut(f, k, y)
        assert abs(d.value - rhs) < 1e-8 * abs(rhs)
        assert d.hypothesis_ok

    def test_tilde_vanishes(self):
        x = PlanePoint(1.0, 0.06 + 0.02j)
        f = SheetField(x)
        y = f.u_vals[0] + 0.25 * f.min_sep
        d = discontinuity("tilde", 2, 1, x, y)
        scale = abs(psi_on_cut(f, 1, y))
        assert abs(d.value) < 1e-8 * scale

    @pytest.mark.parametrize("kind", ["plain", "tilde"])
    def test_field_argument_gives_the_same_bits(self, kind, monkeypatch):
        # a field passed in keeps its anchors: the jump has the bits of a
        # fresh field's, with fewer tracker legs once anchor(3) is cached
        x = PlanePoint(1.0, 0.07)
        f = SheetField(x)
        y = f.u_vals[2] + 0.25 * f.min_sep
        psi_on_cut(f, 3, y)
        legs = []
        real = tracking.track_family

        def counted(*args, **kw):
            legs.append(1)
            return real(*args, **kw)

        monkeypatch.setattr(tracking, "track_family", counted)
        want = discontinuity(kind, 1, 3, x, y)
        fresh = len(legs)
        got = discontinuity(kind, 1, 3, f, y)
        assert got.value == want.value and got.hypothesis_ok == want.hypothesis_ok
        assert len(legs) - fresh < fresh

    def test_ray_chain_ends_at_anchor_point(self):
        # the chain's last arc and the anchor share one radius
        field = SheetField(PlanePoint(1.0, 0.07))
        for k in (1, 2, 3):
            a = field.anchor(k)[0]
            for ell in (m for m in (1, 2, 3) if m != k):
                assert abs(_ray_chain(field, ell, [], k)[-1].end - a) <= 1e-14 * abs(a)

    def test_off_cut_rejected(self):
        x = PlanePoint(1.0, 0.06)
        f = SheetField(x)
        with pytest.raises(ValidationError):
            discontinuity("plain", 1, 3, x, f.u_vals[2] + 0.2j * f.min_sep)


class TestAnnihilation:
    def test_residuals_small(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            x = PlanePoint(1.0 + 0.2 * rng.normal(), 0.1 * complex(*rng.normal(size=2)))
            y = 0.05 * complex(*rng.normal(size=2))
            for op in (1, 2, 3, 4):
                assert verify_annihilation(op, x, y) < 1e-8

    def test_non_solution_control(self):
        # y * g4 fails the first operator by a product-rule remainder
        x = PlanePoint(1.0, 0.1)
        y = 0.03 + 0.02j
        f = SheetField(x)
        sheets = f.track_y_polyline([y])
        g4 = sheets[3] / complex(x.x1)
        jets = implicit_jet(x, y, g4)
        extra = 2 * complex(x.x2) * jets[("x1",)] + 2 * complex(x.x1) * jets[("y",)]
        scale = (
            abs(4 * jets[("x1", "x2")])
            + abs(2 * complex(x.x2) * jets[("x1", "y")])
            + abs(complex(x.x1) * jets[("y", "y")])
        )
        assert abs(extra) / scale > 1e-3

    def test_jets_match_finite_differences(self):
        # exact implicit jets against central differences of the branch,
        # each point solved by the oracle's own Newton iteration
        x = PlanePoint(1.0, 0.1)
        y = 0.03 + 0.02j
        g = SheetField(x).track_y_polyline([y])[3] / complex(x.x1)
        exact = implicit_jet(x, y, g)
        fd = fd_jets(x.x1, x.x2, y, g, h=1e-4)
        for key, value in fd.items():
            tol = 1e-6 if len(key) == 1 else 2e-5
            assert abs(value - exact[key]) <= tol * abs(exact[key]), key
        assert verify_annihilation(1, x, y) < 1e-10


class TestCutBranchForm:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_on_cut_value_matches_local_series(self, k, series8):
        # the on-cut branch (jump of the fourth sheet) equals the local
        # series with the boundary determination (-1)^k relative to the
        # principal upper value
        x = PlanePoint(1.0, 0.07)
        f = SheetField(x)
        bct = borel_coeffs(x, k, 8, table=series8)
        sigma = 0.02 * f.min_sep
        y = f.u_vals[k - 1] + sigma
        got = psi_on_cut(f, k, y)
        upper = bct.eval_series(f.u_vals[k - 1] + complex(sigma, 0.0))
        assert abs(got - (-1) ** k * upper) < 1e-6 * abs(upper)


class TestBranchTag:
    def test_origin_tag_resolves(self):
        from pearcey_wkb.borel import BranchTag

        tag = BranchTag("origin", 3)
        assert abs(tag.germ(0.01, 0.0) - (1 / 3 + 4 / 9 * 0.01)) < 1e-12
        h = branches_at_origin(0.01, 0.0)
        assert abs(tag.germ(0.01, 0.0) - h[2]) < 1e-4

    def test_p_chart_tag_resolves(self):
        from pearcey_wkb.borel import BranchTag

        s = p_ell(3) * 0.97
        singular = BranchTag("p3", 1).germ(s)
        regular = BranchTag("p3", 4).germ(s)
        h = branches_at_p(3, s, 0.0)
        assert abs(regular - H4_CONST) < 1e-12
        # the singular germ dominates near the branch point and matches the
        # half of the tracked difference
        assert abs((h[0] - h[1]) / 2 - singular) < 0.15 * abs(singular)

    def test_bad_tags_rejected(self):
        from pearcey_wkb.borel import BranchTag

        with pytest.raises(ValidationError):
            BranchTag("p4", 1)
        with pytest.raises(ValidationError):
            BranchTag("origin", 5)


class TestLeadingSingularCoefficient:
    def test_scaled_leading_constant_for_real_label(self, series8):
        # the singular prefactor of the third transform on the real slice
        x = PlanePoint(1.0, 0.0)
        f = SheetField(x)
        u3 = f.u_vals[2]
        c0 = -(2 ** (1 / 6)) / np.sqrt(3 * np.pi)
        vals = []
        for r in (1e-3, 5e-4):
            w = r * 1j
            psi = psi_borel_eval(3, x, u3 + w).value
            vals.append(psi * np.sqrt(w))
        # Richardson in r (half-power corrections are O(r))
        extrap = 2 * vals[1] - vals[0]
        assert abs(extrap - c0) < 5e-3 * abs(c0)


class TestRotatedConfigurations:
    """Branch machinery away from the reference wedge."""

    @pytest.mark.parametrize(
        "x1,x2", [(-1.0, 0.05), (1j, 0.02), (0.5 + 0.5j, 0.03 - 0.02j)]
    )
    def test_series_vs_algebraic_rotated(self, x1, x2, series8):
        x = PlanePoint(x1, x2)
        for ell in (1, 2, 3):
            bct = borel_coeffs(x, ell, 8, table=series8)
            y = bct.base + 0.01 * abs(bct.base) * np.exp(1j * np.pi / 2)
            series = bct.eval_series(y)
            alg = psi_borel_eval(ell, x, y, allow_unvalidated=True).value
            assert abs(series - alg) < 1e-6 * abs(alg)

    def test_unsigned_jump_identities_rotated(self):
        # the unsigned identities survive arbitrary rotation: the jump has
        # the magnitude of the target transform and the detour jump vanishes
        x = PlanePoint(1j, 0.02)
        f = SheetField(x)
        R = 0.25 * f.min_sep
        for ell, k in ((1, 2), (3, 1)):
            y = f.u_vals[k - 1] + R
            d = discontinuity("plain", ell, k, x, y)
            rhs = psi_on_cut(f, k, y)
            assert abs(abs(d.value) - abs(rhs)) < 1e-8 * abs(rhs)
            dt = discontinuity("tilde", ell, k, x, y)
            assert abs(dt.value) < 1e-8 * abs(rhs)
