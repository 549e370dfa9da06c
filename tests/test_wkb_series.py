import hashlib
import json
from fractions import Fraction

import numpy as np

import pytest

from oracles import exp_series_power_expansion, f0_branch_per_leg
from pearcey_wkb import wkb_series
from pearcey_wkb.geometry import PlanePoint, labeling_path
from pearcey_wkb.multipoly import MultiPoly
from pearcey_wkb.wkb_series import (
    borel_coeffs,
    build_series,
    f0_branch,
    gamma_half_ratio,
    nonlinear_residual_orders,
    reference_f0,
    scaled_expansion,
    varpi,
)
from pearcey_wkb.zeta_ring import VARS, ZetaRational, homogeneity_residual


def zr(terms, m=0, s=1):
    return ZetaRational(MultiPoly(VARS, terms), m, Fraction(s))


class TestRecurrences:
    def test_leading_terms(self, series8):
        assert series8.s1_at(-1) == ZetaRational.zeta()
        assert series8.s2_at(-1) == ZetaRational.zeta() ** 2

    def test_s0_closed_form(self, series8):
        # 3 zeta / (6 zeta^2 + x2)^2
        assert series8.s1_at(0) == zr({(1, 0): 3}, 2)

    def test_closedness_exact(self, series8):
        for j in range(-1, 9):
            assert series8.s1_at(j).derive("d2") == series8.s2_at(j).derive("d1")

    def test_homogeneity_exact(self, series8):
        for j in range(-1, 9):
            assert homogeneity_residual(series8.s1_at(j), 4 * (j + 1) - 1).is_zero()
            assert homogeneity_residual(series8.s2_at(j), 4 * (j + 1) - 2).is_zero()

    def test_nonlinear_residual_vanishes(self, series8):
        res = nonlinear_residual_orders(series8)
        assert res  # nonempty
        assert all(v.is_zero() for v in res.values())


class TestPrimitives:
    def test_leading_primitive_value(self, series8):
        # at (-4, 0) with zeta = 1 the leading primitive equals -3
        w = varpi(series8)
        assert abs(w.eval(1.0, 0.0) - (-3.0)) < 1e-14

    def test_log_term_fields(self, series8):
        assert series8.log_multiplier == Fraction(-1, 2)
        assert series8.log_argument == ZetaRational(
            ZetaRational.denominator_poly()
        )
        assert series8.prim[1] is None  # slot of j = 0

    def test_gradient_identity(self, series8):
        # d/dx1 of the j-th primitive reproduces S_j^(1) exactly
        for j in range(1, 5):
            assert series8.prim_at(j).derive("d1") == series8.s1_at(j)


class TestAmplitudeRatios:
    def test_f0_ratio_is_one(self, series8):
        assert series8.f[0] == ZetaRational.const(1)

    def test_f1_is_first_primitive(self, series8):
        # first-order term of exp(sum_j eta^-j int omega_j)
        assert series8.f[1] == series8.prim_at(1)

    def test_f2_second_order(self, series8):
        i1 = series8.prim_at(1)
        i2 = series8.prim_at(2)
        assert series8.f[2] == i2 + i1 * i1 * Fraction(1, 2)


class TestGamma:
    def test_ratios(self):
        assert gamma_half_ratio(0) == 1
        assert gamma_half_ratio(1) == Fraction(1, 2)
        assert gamma_half_ratio(2) == Fraction(3, 4)
        assert gamma_half_ratio(3) == Fraction(15, 8)


class TestBorelCoeffs:
    def test_entry_zero(self, series8):
        x = PlanePoint(1.0, 0.05)
        for ell in (1, 2, 3):
            bct = borel_coeffs(x, ell, 4, table=series8)
            f0 = f0_branch(x, ell)
            assert abs(bct.coeffs[0] - f0 / np.sqrt(np.pi)) < 1e-12

    def test_base_at_unit_point(self, series8):
        from pearcey_wkb.geometry import p_ell

        bct = borel_coeffs(PlanePoint(1.0, 0.0), 3, 2, table=series8)
        assert abs(bct.base - p_ell(3)) < 1e-12

    def test_ratio_coeff1(self, series8):
        x = PlanePoint(1.0, 0.05)
        bct = borel_coeffs(x, 2, 2, table=series8)
        from pearcey_wkb.geometry import char_roots

        z = char_roots(x)[2]
        i1 = series8.prim_at(1).eval(z, complex(x.x2))
        expect = i1 * gamma_half_ratio(0) / gamma_half_ratio(1)
        got = bct.coeffs[1] / bct.coeffs[0]
        assert abs(got - expect) < 1e-10 * max(1.0, abs(expect))


F0_POINTS = {
    "reference_single_vertex": (1.0, 0.0),
    "bowed_default_provenance": (-0.8 + 0.02j, 0.3 - 0.1j),
    "chart_real": (1.0, 0.1),
    "chart_complex": (0.5 + 0.5j, -0.05j),
    "chart_bowed": (-1.0 + 0.3j, 0.15),
    "chart_lower": (0.2 - 0.7j, 0.1 + 0.05j),
}


class TestF0Branch:
    def test_provenances_cover_single_vertex_and_bows(self):
        assert len(labeling_path(PlanePoint(*F0_POINTS["reference_single_vertex"]))) == 1
        assert len(labeling_path(PlanePoint(*F0_POINTS["bowed_default_provenance"]))) > 3

    @pytest.mark.parametrize("name", sorted(F0_POINTS))
    def test_bitwise_equal_to_per_leg_loop(self, name):
        x = PlanePoint(*F0_POINTS[name])
        for ell in (1, 2, 3):
            got = np.complex128(f0_branch(x, ell)).tobytes()
            assert got == np.complex128(f0_branch_per_leg(x, ell)).tobytes()


class TestScaledExpansion:
    def test_reference_f0_values(self):
        for ell in (1, 2, 3):
            want = -(2 ** (1 / 6) / np.sqrt(3)) * np.exp(-2j * np.pi * ell / 3)
            assert abs(reference_f0(ell) - want) < 1e-14

    def test_leading_coefficients(self, series8):
        for ell in (1, 2, 3):
            c = scaled_expansion(ell, 2, table=series8)
            c0 = -(2 ** (1 / 6) / np.sqrt(3 * np.pi)) * np.exp(-2j * np.pi * ell / 3)
            r1 = -(7 / (9 * 2 ** (1 / 3))) * np.exp(-2j * np.pi * ell / 3)
            r2 = (385 / (486 * 2 ** (2 / 3))) * np.exp(2j * np.pi * ell / 3)
            assert abs(c[0] - c0) < 1e-10 * abs(c0)
            assert abs(c[1] / c[0] - r1) < 1e-10 * abs(r1)
            assert abs(c[2] / c[0] - r2) < 1e-10 * abs(r2)

    def test_ell3_real_multiples(self, series8):
        # for the real-singularity label the stated radicals appear with
        # real coefficients
        c = scaled_expansion(3, 4, table=series8)
        for cj in c:
            assert abs(cj.imag) < 1e-12 * max(1.0, abs(cj))


class TestSeriesExport:
    def test_json_round_trip_entries(self, series8):
        doc = series8.to_json()
        assert doc["order"] == 8
        assert len(doc["s1"]) == 10
        restored = ZetaRational.from_json(doc["s1"][1])
        assert restored == series8.s1_at(0)


class TestSeriesCache:
    """``build_series`` serves every order from one process-wide table."""

    @staticmethod
    def fresh(monkeypatch, order):
        monkeypatch.setattr(wkb_series, "_TABLE", None)
        return build_series(order)

    def test_truncations_equal_fresh_builds(self, monkeypatch):
        self.fresh(monkeypatch, 10)
        cached = [build_series(k).to_json() for k in range(10)]
        for k in range(10):
            assert cached[k] == self.fresh(monkeypatch, k).to_json(), k

    def test_extension_equals_fresh_build(self, monkeypatch):
        self.fresh(monkeypatch, 6)
        extended = build_series(8)
        assert extended.to_json() == self.fresh(monkeypatch, 8).to_json()

    def test_failed_order_leaves_table_intact(self, monkeypatch):
        self.fresh(monkeypatch, 4)
        exp_term = wkb_series._exp_term
        failures = []

        def fail_once(table, f, k):
            if not failures:
                failures.append(k)
                raise RuntimeError("interrupted")
            return exp_term(table, f, k)

        monkeypatch.setattr(wkb_series, "_exp_term", fail_once)
        with pytest.raises(RuntimeError):
            build_series(5)
        assert failures == [5]
        extended = build_series(6)
        assert extended == self.fresh(monkeypatch, 6)  # pair sums and d1s1 too

    def test_copies_are_independent(self, monkeypatch):
        a = self.fresh(monkeypatch, 3)
        a.s1.clear()
        a.f.append(None)
        b = build_series(3)
        assert len(b.s1) == 5 and len(b.f) == 4

    def test_each_order_built_once_by_verify_then_quadrature(self, monkeypatch, tmp_path):
        from collections import Counter

        from pearcey_wkb.cli import main

        built = Counter()
        add_order = wkb_series._add_order
        order_zero = wkb_series._order_zero_table

        def counted_add(table, j):
            built[j] += 1
            return add_order(table, j)

        def counted_zero():
            built[0] += 1
            return order_zero()

        monkeypatch.setattr(wkb_series, "_TABLE", None)
        monkeypatch.setattr(wkb_series, "_add_order", counted_add)
        monkeypatch.setattr(wkb_series, "_order_zero_table", counted_zero)
        out = str(tmp_path)
        assert main(["--out-dir", out, "verify"]) == 0
        assert sorted(built) == list(range(7))
        argv = ["--x1=1", "--x2=0.1", "--eta=10", "--contour=1,2", "--compare-borel"]
        assert main(["--out-dir", out, "quadrature", *argv]) == 0
        assert sorted(built) == list(range(9))
        assert set(built.values()) == {1}


# sha256 of json.dumps(build_series(12).to_json(), sort_keys=True), recorded
# with the Fraction-coefficient ring the integer kernel replaced
SERIES12_SHA256 = "702af12b5f8ca45dd32fa1ef981db9a27a8ef6662dfc34b4500a804a0d7f2f96"


def test_series_12_golden_hash():
    doc = json.dumps(build_series(12).to_json(), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == SERIES12_SHA256


# sha256 of build_series(12).to_json() with its d1s1 list added, as JSON with
# sorted keys, recorded from the tree that reduced after every addition
SERIES12_FIELDS_SHA256 = "2313fdc6f6c2d15a6c8cd17bca57654a41e4f792e1b21ca970d4bc1404809e8c"


class TestSeriesReducedOnce:
    """Sums reduced once give the table that reducing every addition gave."""

    def test_fields_match_the_per_addition_table(self, monkeypatch):
        monkeypatch.setattr(wkb_series, "_TABLE", None)
        table = build_series(12)
        doc = table.to_json()
        doc["d1s1"] = [z.to_json() for z in table.d1s1]
        digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
        assert digest == SERIES12_FIELDS_SHA256
        # each kept pair sum is its sum over a + b = j - 1, added term by term
        S = table.s1_at
        for j in range(-1, 13):
            direct = ZetaRational.zero()
            for a in range(-1, j + 1):
                direct = direct + S(a) * S(j - 1 - a)
            assert table.pair_sums[j + 1] == direct, j

    @pytest.mark.parametrize("sequence", [(12,), (6, 12), (10, 8, 12)])
    def test_build_sequence_does_not_matter(self, monkeypatch, sequence):
        monkeypatch.setattr(wkb_series, "_TABLE", None)
        direct = build_series(12)
        monkeypatch.setattr(wkb_series, "_TABLE", None)
        for order in sequence:
            table = build_series(order)
        assert table == direct
        assert nonlinear_residual_orders(table) == {J: ZetaRational.zero() for J in range(-3, 11)}

    def test_a_sum_is_reduced_once(self, monkeypatch):
        from pearcey_wkb import zeta_ring

        monkeypatch.setattr(wkb_series, "_TABLE", None)
        reductions = []
        reduce = zeta_ring._reduce
        monkeypatch.setattr(zeta_ring, "_reduce", lambda *a: reductions.append(1) or reduce(*a))
        build_series(10)
        assert len(reductions) <= 411 // 2  # one per addition gave 411


def test_f_values_are_bitwise_eval_through_one_line(monkeypatch):
    # truncated copies read the compiled line of the table they were cut
    # from; each value is that of ZetaRational.eval, bit for bit
    from pearcey_wkb.errors import EvaluationError

    monkeypatch.setattr(wkb_series, "_TABLE", None)
    full = build_series(10)
    cut = build_series(6)
    assert cut.f_line is full.f_line
    for zeta, x2 in [(0.7 + 0.2j, 0.1 - 0.3j), (-1.3, 0.0), (0.05j, 2.5 + 1j)]:
        assert cut.f_values(zeta, x2) == [f.eval(zeta, x2) for f in cut.f]
        assert full.f_values(zeta, x2) == [f.eval(zeta, x2) for f in full.f]
    assert full.f_line.values is not None and len(full.f_line.f) == 11
    # a table whose f list is not the line's own gets a line of its own
    cut.f[3] = cut.f[3] * 2
    assert cut.f_values(0.7, 0.1) == [f.eval(0.7, 0.1) for f in cut.f]
    assert cut.f_line is not full.f_line
    with pytest.raises(EvaluationError, match="turning point"):
        full.f_values(1j / 6**0.5, 1.0 + 1e-13)


def test_f_recurrence_equals_power_expansion(series8):
    a = [ZetaRational.zero()] + [series8.prim_at(j) for j in range(1, 9)]
    want = exp_series_power_expansion(a, 8)
    assert series8.f == want
