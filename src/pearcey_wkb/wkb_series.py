"""Exact WKB series and Borel coefficients.

The two gradient components S^(1) = d(log u)/dx1 and S^(2) = d(log u)/dx2
expand as formal series sum_j S_j^(k) eta^(-j) starting at j = -1, with
S_(-1)^(1) = zeta a characteristic root and S_(-1)^(2) = zeta^2.  The
recurrences

    S_0^(1) = -(1/2) d1 log(6 zeta^2 + x2),
    S_j^(1) = -2/(6 zeta^2 + x2) * ( sum_{j1+j2+j3=j-2} S^(1)S^(1)S^(1)
              + 3 sum_{j1+j2=j-2} S^(1) d1 S^(1) + d1^2 S_{j-2}^(1) ),
    S_j^(2) = sum_{m=0}^{j+1} S_{m-1}^(1) S_{j-m}^(1) + d1 S_{j-1}^(1),

(indices range over -1 <= j_i < j) close over the ring of ``ZetaRational``
elements, so the whole table is exact.

Primitives of the closed 1-form omega = S^(1) dx1 + S^(2) dx2 fixed by the
weighted-homogeneity constraint are

    int omega_j = -(1/(4j)) (3 x1 S_j^(1) + 2 x2 S_j^(2))   (j != 0),
    int omega_0 = -(1/2) log(6 zeta^2 + x2),

and the normalized amplitude ratios f_j/f_0 come from expanding
exp( sum_{j>=1} eta^(-j) int omega_j ), with the closed-form prefactor
f_0 = (6 zeta^2 + x2)^(-1/2) kept out of the series.  The square root's
branch is continued by ``geometry.LabeledPoint.f0`` over the same trace of
the labeling path that fixes the root labels, from its reference value

    f_0(1, 0) = -(2^(1/6)/sqrt(3)) e^(-2 pi i ell/3),

the value forced by continuous phase tracking of zeta_ell along the
reference locus.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import factorial, sqrt, pi

import numpy as np

from .errors import ValidationError
from .geometry import PlanePoint, labeled_point, reference_zetas
from .zeta_ring import ZetaRational


def gamma_half_ratio(j: int) -> Fraction:
    """Gamma(j + 1/2) / Gamma(1/2) as an exact rational."""
    return Fraction(factorial(2 * j), 4**j * factorial(j))


@dataclass
class WkbSeriesTable:
    """Exact series data up to order N.

    Lists are indexed by j + 1 for j = -1 .. N (``s1``, ``s2``, ``prim``,
    ``d1s1`` holding d1 S_j^(1)) and by j for j = 0 .. N (``f``, holding
    f_j/f_0).  The j = 0 primitive is the logarithm
    -(1/2) log(6 zeta^2 + x2); its slot in ``prim`` is None and the log data
    lives in ``log_multiplier`` / ``log_argument``.
    """

    order: int
    s1: list = field(default_factory=list)
    s2: list = field(default_factory=list)
    prim: list = field(default_factory=list)
    f: list = field(default_factory=list)
    log_multiplier: Fraction = Fraction(-1, 2)
    log_argument: ZetaRational = None
    d1s1: list = field(default_factory=list)

    def s1_at(self, j: int) -> ZetaRational:
        return self.s1[j + 1]

    def s2_at(self, j: int) -> ZetaRational:
        return self.s2[j + 1]

    def prim_at(self, j: int) -> ZetaRational:
        if j == 0:
            raise ValidationError("order-0 primitive is logarithmic; use log fields")
        return self.prim[j + 1]

    def truncated(self, order: int) -> "WkbSeriesTable":
        """A copy with fresh lists holding orders -1 .. ``order``."""
        if not 0 <= order <= self.order:
            raise ValidationError(f"order must be in 0..{self.order}")
        n = order + 2
        return replace(
            self,
            order=order,
            s1=self.s1[:n],
            s2=self.s2[:n],
            prim=self.prim[:n],
            f=self.f[: order + 1],
            d1s1=self.d1s1[:n],
        )

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "s1": [z.to_json() for z in self.s1],
            "s2": [z.to_json() for z in self.s2],
            "prim": [None if z is None else z.to_json() for z in self.prim],
            "f_over_f0": [z.to_json() for z in self.f],
            "log_multiplier": str(self.log_multiplier),
            "log_argument": self.log_argument.to_json(),
        }


def _denominator() -> ZetaRational:
    return ZetaRational(ZetaRational.denominator_poly())


_TABLE: WkbSeriesTable | None = None  # the process-wide table, grown on demand


def build_series(order: int) -> WkbSeriesTable:
    """The exact series table through eta^(-order).

    One table per process serves every call: an order above any built so
    far extends it in place, so each order is computed once, and the
    caller gets a truncated copy of its own.
    """
    global _TABLE
    if order < 0:
        raise ValidationError("order must be >= 0")
    if _TABLE is None:
        _TABLE = _order_zero_table()
    for j in range(_TABLE.order + 1, order + 1):
        _TABLE = _add_order(_TABLE, j)
    return _TABLE.truncated(order)


def _order_zero_table() -> WkbSeriesTable:
    """Orders j = -1 and 0: zeta, zeta^2 and the closed form
    S_0^(1) = -(1/2) d1 log(6 zeta^2 + x2)."""
    zeta = ZetaRational.zeta()
    d = _denominator()
    s0 = d.derive("d1") * ZetaRational.const(1).over_d(1) * Fraction(-1, 2)
    table = WkbSeriesTable(order=0, s1=[zeta, s0], s2=[zeta * zeta], log_argument=d)
    table.d1s1 = [z.derive("d1") for z in table.s1]
    table.s2.append(_s2_term(table, 0))
    table.prim = [_primitive(table, -1), None]
    table.f = [ZetaRational.const(1)]
    return table


def _add_order(table: WkbSeriesTable, j: int) -> WkbSeriesTable:
    """``table`` (built through j - 1) extended by order j >= 1.

    The result has fresh lists and ``table`` is left as it was, so a failure
    part way through cannot leave a half-extended table behind.
    """
    S = table.s1_at

    def dS(i):
        return table.d1s1[i + 1]

    def pair_sum(q):  # sum_{a+b=q} S_a S_b, read off S_(q+1)^(2) = pair_sum(q) + d1 S_q
        return table.s2_at(q + 1) - dS(q)

    # triple sum by its first factor: for j1 >= 0 the other two form a whole
    # pair sum; for j1 = -1 they sum to j - 1 without the unknown S_j
    rest = ZetaRational.zero()
    for j2 in range(0, j):
        rest = rest + S(j2) * S(j - 1 - j2)
    triple = S(-1) * rest
    for j1 in range(0, j):
        triple = triple + S(j1) * pair_sum(j - 2 - j1)
    pair = ZetaRational.zero()
    for j1 in range(-1, j):
        j2 = j - 2 - j1
        if -1 <= j2 < j:
            pair = pair + S(j1) * dS(j2)
    bracket = triple + pair * 3 + dS(j - 2).derive("d1")
    sj = (bracket * Fraction(-2)).over_d(1)
    out = replace(table, order=j, s1=table.s1 + [sj], d1s1=table.d1s1 + [sj.derive("d1")])
    out.s2 = table.s2 + [_s2_term(out, j)]
    out.prim = table.prim + [_primitive(out, j)]
    out.f = table.f + [_exp_term(out, table.f, j)]
    return out


def _s2_term(table: WkbSeriesTable, j: int) -> ZetaRational:
    """S_j^(2) = sum_{m=0}^{j+1} S_{m-1}^(1) S_{j-m}^(1) + d1 S_{j-1}^(1)."""
    acc = ZetaRational.zero()
    for m in range(0, j + 2):
        acc = acc + table.s1_at(m - 1) * table.s1_at(j - m)
    return acc + table.d1s1[j]


def _primitive(table: WkbSeriesTable, j: int) -> ZetaRational:
    """Primitive of omega_j fixed by weighted homogeneity (j != 0)."""
    x1 = ZetaRational.x1()
    x2 = ZetaRational.x2()
    return (x1 * table.s1_at(j) * 3 + x2 * table.s2_at(j) * 2) * Fraction(-1, 4 * j)


def varpi(table: WkbSeriesTable) -> ZetaRational:
    """Leading primitive (1/4)(3 x1 zeta + 2 x2 zeta^2); u = -varpi."""
    return table.prim_at(-1)


def wkb_f_coeffs(table: WkbSeriesTable, order: int | None = None) -> list[ZetaRational]:
    """Amplitude ratios f_j/f_0 from the exponential of the primitives.

    The series is exp( sum_{j>=1} eta^(-j) int omega_j ) expanded through
    eta^(-order); the prefactor f_0 stays closed-form.
    """
    n = table.order if order is None else order
    if n > table.order:
        raise ValidationError("order exceeds the table")
    f = [ZetaRational.const(1)]
    for k in range(1, n + 1):
        f.append(_exp_term(table, f, k))
    return f


def _exp_term(table: WkbSeriesTable, f: list, k: int) -> ZetaRational:
    """f_k = (1/k) sum_{j=1..k} j a_j f_{k-j} for f = exp(sum_j a_j eta^(-j)),
    a_j = int omega_j, from f_0 .. f_{k-1}."""
    acc = ZetaRational.zero()
    for j in range(1, k + 1):
        acc = acc + table.prim_at(j) * f[k - j] * j
    return acc * Fraction(1, k)


def nonlinear_residual_orders(table: WkbSeriesTable) -> dict[int, ZetaRational]:
    """Coefficients of the first gradient equation after substituting the
    truncated series.

    The equation is 4 S^3 + 2 eta^2 x2 S + eta^3 x1 + 12 S d1 S + 4 d1^2 S
    with S the truncated S^(1).  Orders eta^(+3) .. eta^(-(N-2)) must vanish
    exactly; the returned dict maps order index J (coefficient of eta^(-J))
    to the computed coefficient for J = -3 .. N-2.
    """
    n = table.order
    x1 = ZetaRational.x1()
    x2 = ZetaRational.x2()
    s = {j: table.s1_at(j) for j in range(-1, n + 1)}
    ds = {j: v.derive("d1") for j, v in s.items()}
    dds = {j: v.derive("d1") for j, v in ds.items()}
    out = {}
    for J in range(-3, n - 1):
        acc = ZetaRational.zero()
        for j1 in s:
            for j2 in s:
                j3 = J - j1 - j2
                if j3 in s:
                    acc = acc + s[j1] * s[j2] * s[j3] * 4
        if J + 2 in s:
            acc = acc + x2 * s[J + 2] * 2
        if J == -3:
            acc = acc + x1
        for j1 in s:
            j2 = J - j1
            if j2 in ds:
                acc = acc + s[j1] * ds[j2] * 12
        if J in dds:
            acc = acc + dds[J] * 4
        out[J] = acc
    return out


# -- Borel coefficients -----------------------------------------------------------


@dataclass
class BorelCoeffTable:
    """Local expansion data of one Borel transform at its singularity.

    ``coeffs[j]`` multiplies (y - base)^(j - 1/2); entry 0 equals
    f_0 / sqrt(pi) on the continued branch.
    """

    ell: int
    x: PlanePoint
    base: complex
    coeffs: list[complex]

    def eval_series(self, y: complex, nmax: int | None = None) -> complex:
        """Partial sum at y with the principal branch of (y-base)^(-1/2)."""
        return self.eval_offset(complex(y) - self.base, nmax)

    def eval_offset(self, w: complex, nmax: int | None = None) -> complex:
        """Partial sum at y = base + w, from the offset w itself: a small w
        keeps its digits, which y - base would cancel."""
        root = 1.0 / np.sqrt(w)
        n = len(self.coeffs) if nmax is None else min(nmax + 1, len(self.coeffs))
        acc = 0j
        wp = 1.0 + 0j
        for j in range(n):
            acc += self.coeffs[j] * wp
            wp *= w
        return acc * root


def reference_f0(ell: int) -> complex:
    """Branch value of (6 zeta_ell^2 + x2)^(-1/2) at the reference point (1,0)."""
    return -(2.0 ** (1.0 / 6.0) / sqrt(3.0)) * np.exp(-2j * np.pi * ell / 3.0)


def f0_branch(x: PlanePoint, ell: int) -> complex:
    """Continue f_0 = (6 zeta_ell^2 + x2)^(-1/2) along the labeling path."""
    return labeled_point(x).f0(ell)


def borel_coeffs(
    x: PlanePoint, ell: int, order: int, table: WkbSeriesTable | None = None
) -> BorelCoeffTable:
    """Numeric expansion coefficients of one Borel transform at u_ell."""
    if ell not in (1, 2, 3):
        raise ValidationError("ell must be 1, 2 or 3")
    if table is None or table.order < order:
        table = build_series(order)
    point = labeled_point(x)
    z0 = point.zetas[ell]
    x2 = complex(x.x2)
    f0 = point.f0(ell)
    sqrt_pi = sqrt(pi)
    coeffs = []
    for j in range(order + 1):
        fj = table.f[j].eval(z0, x2)
        coeffs.append(fj * f0 / (sqrt_pi * float(gamma_half_ratio(j))))
    return BorelCoeffTable(ell=ell, x=x, base=point.us[ell], coeffs=coeffs)


def scaled_expansion(ell: int, order: int, table: WkbSeriesTable | None = None):
    """Expansion coefficients of the scaled Borel transform at s = p_ell.

    Returns c_0 .. c_order with the (s - p_ell)^(-1/2) prefactor taken out:
    the scaled transform at t = 0 is (s-p_ell)^(-1/2) sum_j c_j (s-p_ell)^j.
    """
    if table is None or table.order < order:
        table = build_series(order)
    z0 = reference_zetas(1.0)[ell - 1]
    f0 = reference_f0(ell)
    sqrt_pi = sqrt(pi)
    out = []
    for j in range(order + 1):
        fj = table.f[j].eval(z0, 0.0)
        out.append(fj * f0 / (sqrt_pi * float(gamma_half_ratio(j))))
    return out
