"""Acceptance criteria.

One test per criterion; each prints a single pass/fail line with its stated
tolerance pinned.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

import numpy as np
import pytest

from pearcey_wkb import tracking
from pearcey_wkb.borel import (
    H3_CONST,
    H4_CONST,
    SheetField,
    branches_at_origin,
    branches_at_p,
    discontinuity,
    psi_on_cut,
    quartic_spec,
    verify_annihilation,
)
from pearcey_wkb.geometry import (
    PlanePoint,
    critical_values,
    p_ell,
    singular_cubic_coeffs,
    stokes_sextic_roots,
    turning_discriminant,
)
from pearcey_wkb.quadrature import (
    laplace_borel_sum,
    match_borel_combination,
    pearcey_quadrature,
)
from pearcey_wkb.stokes import PAPER_POLYLINE, connection_walk
from pearcey_wkb.wkb_series import build_series, scaled_expansion
from pearcey_wkb.zeta_ring import homogeneity_residual


def report(num: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def table():
    return build_series(8)


def test_criterion_1_scaled_expansion(table):
    t0 = time.time()
    tol = 1e-10
    worst = 0.0
    for ell in (1, 2, 3):
        c = scaled_expansion(ell, 2, table=table)
        phase = np.exp(-2j * np.pi * ell / 3)
        c0 = -(2 ** (1 / 6) / np.sqrt(3 * np.pi)) * phase
        r1 = -(7 / (9 * 2 ** (1 / 3))) * phase
        r2 = (385 / (486 * 2 ** (2 / 3))) / phase
        worst = max(
            worst,
            abs(c[0] - c0) / abs(c0),
            abs(c[1] / c[0] - r1) / abs(r1),
            abs(c[2] / c[0] - r2) / abs(r2),
        )
    dt = time.time() - t0
    report(
        1,
        worst < tol and dt < 10.0,
        f"scaled expansion constants rel err {worst:.2e} (tol {tol}), {dt:.2f}s < 10s",
    )


def test_criterion_2_branch_constants():
    t0 = time.time()
    tol = 1e-12
    worst = 0.0
    for ell in (1, 2, 3):
        coeffs = quartic_spec("st").coeffs(p_ell(ell), 0.0)
        assert abs(coeffs[4]) < 1e-10
        roots = np.roots([coeffs[2], coeffs[1], coeffs[0]])
        got = sorted(roots, key=lambda z: -z.imag)
        worst = max(worst, abs(got[0] - H3_CONST), abs(got[1] - H4_CONST))
    dt = time.time() - t0
    report(
        2,
        worst < tol and dt < 1.0,
        f"local regular branch constants err {worst:.2e} (tol {tol}), {dt:.2f}s < 1s",
    )


def test_criterion_3_origin_germs():
    coeffs = quartic_spec("st").coeffs(0.0, 0.0)
    factored = np.polynomial.polynomial.polyfromroots([1 / 3, 1 / 3, 1 / 3, -1]) * (-27)
    ok_fact = bool(np.allclose(coeffs, factored, atol=1e-12))
    eps = 1e-4
    w = np.exp(2j * np.pi / 3)
    hs = branches_at_origin(eps, 0.0)
    ht = branches_at_origin(0.0, eps)
    errs = [
        abs((hs[0] - 1 / 3) / eps - (4 / 9) / w),
        abs((hs[1] - 1 / 3) / eps - (4 / 9) * w),
        abs((hs[2] - 1 / 3) / eps - 4 / 9),
        abs((ht[0] - 1 / 3) / eps - (2 / 9) * w),
        abs((ht[1] - 1 / 3) / eps - (2 / 9) / w),
        abs((ht[2] - 1 / 3) / eps - 2 / 9),
    ]
    report(
        3,
        ok_fact and max(errs) < 1e-3,
        f"origin quartic factorization ok={ok_fact}, germ slope err {max(errs):.2e} (tol 1e-3)",
    )


DICTIONARY = {
    1: {1: 2, 2: 4, 3: 3, 4: 1},
    2: {1: 3, 2: 2, 3: 4, 4: 1},
    3: {1: 4, 2: 3, 3: 1, 4: 2},
}


def test_criterion_4_branch_dictionary():
    t0 = time.time()
    count = 0
    for tval in (0.0, 0.1j):
        for ell in (1, 2, 3):
            pl = p_ell(ell)
            d = pl / abs(pl)
            s_eval = pl * 0.85
            start = branches_at_origin(d * 0.02, tval)
            final = tracking.track_polyline(
                lambda s: quartic_spec("st").coeffs(s, tval), [d * 0.02, s_eval], start
            ).final
            local = branches_at_p(ell, s_eval, tval)
            perm = tracking.match_labels(final, local, guard_ratio=1.05)
            got = {j + 1: perm[j] + 1 for j in range(4)}
            assert got == DICTIONARY[ell], (tval, ell, got)
            count += 4
    dt = time.time() - t0
    report(
        4,
        count == 24 and dt < 30.0,
        f"all twelve identifications at t=0 and |t|=0.1 ({count} labels), {dt:.2f}s < 30s",
    )


def test_criterion_5_discontinuity_identities():
    rng = np.random.default_rng(17)
    rel_tol = 1e-6
    abs_tol = 1e-6
    worst_plain = 0.0
    worst_tilde = 0.0
    pairs = [(1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)]
    for n in range(10):
        x = PlanePoint(
            1.0 + 0.2 * rng.uniform(-1, 1),
            0.08 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
        )
        ell, k = pairs[n % 6]
        f = SheetField(x)
        y = f.u_vals[k - 1] + 0.25 * f.min_sep
        d = discontinuity("plain", ell, k, x, y)
        rhs = (-1) ** ell * psi_on_cut(f, k, y)
        worst_plain = max(worst_plain, abs(d.value - rhs) / abs(rhs))
        dt_ = discontinuity("tilde", ell, k, x, y)
        worst_tilde = max(worst_tilde, abs(dt_.value) / abs(rhs))
    report(
        5,
        worst_plain < rel_tol and worst_tilde < abs_tol,
        f"jump identities: plain rel {worst_plain:.2e} (tol {rel_tol}), "
        f"detour abs {worst_tilde:.2e} (tol {abs_tol})",
    )


def test_criterion_6_connection_walk():
    systems = [
        ((2, 3), ((1, 0, 0), (0, 1, 0), (0, -1, 1))),
        ((1, 2), ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
        ((1, 3), ((1, 0, -1), (0, 1, 0), (0, 0, 1))),
        ((2, 3), ((1, 0, 0), (0, 1, 0), (0, -1, 1))),
        ((1, 2), ((1, -1, 0), (0, 1, 0), (0, 0, 1))),
    ]
    vertices = [3, 6, 7, 9, 11]
    walk = connection_walk(PAPER_POLYLINE)
    ok = len(walk) == 5
    for (ev, mat), (pair, entries), vertex in zip(walk, systems, vertices):
        ok = ok and ev.pair == pair and mat.entries == entries
        ok = ok and abs(ev.tau * 12 - vertex) < 1.0
    report(
        6,
        ok,
        "five crossings near the stated vertices with the five region systems, entry-for-entry",
    )


def test_criterion_7_derived_polynomial_oracles():
    rng = np.random.default_rng(23)
    worst_sextic = 0.0
    worst_cubic = 0.0
    n_done = 0
    while n_done < 50:
        x = PlanePoint(complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
        if turning_discriminant(x)[1]:
            continue
        us = critical_values(x).values
        diffs = sorted(
            (us[j] - us[k] for j in range(3) for k in range(3) if j != k),
            key=lambda z: (round(z.real, 8), round(z.imag, 8)),
        )
        roots = sorted(
            stokes_sextic_roots(x), key=lambda z: (round(z.real, 8), round(z.imag, 8))
        )
        scale = max(1.0, max(abs(d) for d in diffs))
        worst_sextic = max(
            worst_sextic, max(abs(a - b) for a, b in zip(roots, diffs)) / scale
        )
        cub = singular_cubic_coeffs(x)
        cscale = max(abs(c) for c in cub) * max(1.0, max(abs(u) for u in us)) ** 3
        worst_cubic = max(
            worst_cubic,
            max(abs(np.polyval(cub[::-1], u)) for u in us) / cscale,
        )
        n_done += 1
    report(
        7,
        worst_sextic < 1e-8 and worst_cubic < 1e-10,
        f"sextic roots vs pairwise differences {worst_sextic:.2e} (tol 1e-8); "
        f"cubic on singularities {worst_cubic:.2e} (tol 1e-10)",
    )


def test_criterion_8_exact_identities(table):
    ok = True
    for j in range(-1, 9):
        ok = ok and table.s1_at(j).derive("d2") == table.s2_at(j).derive("d1")
        ok = ok and homogeneity_residual(table.s1_at(j), 4 * (j + 1) - 1).is_zero()
        ok = ok and homogeneity_residual(table.s2_at(j), 4 * (j + 1) - 2).is_zero()
    from pearcey_wkb.wkb_series import nonlinear_residual_orders

    res = nonlinear_residual_orders(table)
    ok = ok and bool(res) and all(v.is_zero() for v in res.values())
    report(8, ok, "closedness, homogeneity and gradient-system residual exact for j <= 8")


def test_criterion_9_annihilation():
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(10):
        x = PlanePoint(
            1.0 + 0.3 * rng.uniform(-1, 1),
            0.15 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
        )
        y = 0.06 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        worst = max(worst, *verify_annihilation(x, y))
    report(9, worst < 1e-8, f"operator residuals on quartic branches {worst:.2e} (tol 1e-8)")


def test_criterion_10_integral_cross_check(table):
    t0 = time.time()
    x = PlanePoint(0.7, 0.3 + 0.1j)
    lam, eta0 = 2.0, 3.0
    v1 = pearcey_quadrature(
        PlanePoint(lam**3 * x.x1, lam**2 * x.x2), eta0 / lam**4, (1, 3)
    )
    v2 = pearcey_quadrature(x, eta0, (1, 3))
    hom_err = abs(v1 - lam * v2) / abs(lam * v2)

    xm = PlanePoint(1.0, 0.1)
    eta = 10.0
    psis = [laplace_borel_sum(ell, xm, eta, table=table).value for ell in (1, 2, 3)]
    v = pearcey_quadrature(xm, eta, (1, 2))
    phase, eps = match_borel_combination(v, psis, tol=1e-4)
    comb = phase * np.sqrt(np.pi) * sum(e * p for e, p in zip(eps, psis))
    match_err = abs(v - comb) / abs(v)
    dt = time.time() - t0
    report(
        10,
        hom_err < 1e-6 and match_err < 1e-4 and dt < 60.0,
        f"homogeneity {hom_err:.2e} (tol 1e-6); valley pair vs Borel sums "
        f"{match_err:.2e} (tol 1e-4) via eps={eps}, {dt:.2f}s < 60s",
    )
