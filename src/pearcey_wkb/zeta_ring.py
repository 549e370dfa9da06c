"""Exact coefficient ring for the WKB recurrences.

All series coefficients live in Q[zeta, x2] localized at d = 6*zeta^2 + x2:
a ``ZetaRational`` is  scalar * N(zeta, x2) / d^m  with N integer-primitive.
The first coordinate zeta is the leading characteristic root, constrained by
4*zeta^3 + 2*x2*zeta + x1 = 0; consequently x1 never appears internally and
is substituted as x1 = -4*zeta^3 - 2*x2*zeta wherever a formula mentions it.

In this chart the coordinate derivatives become first-order operators that
keep denominators confined to powers of d:

    d/dx1 = -(2 d)^(-1) d/dzeta
    d/dx2 = d/dx2|_zeta - zeta d^(-1) d/dzeta
"""

from __future__ import annotations

from fractions import Fraction

from .errors import EvaluationError
from .multipoly import MultiPoly

VARS = ("zeta", "x2")

_D = MultiPoly(VARS, {(2, 0): 6, (0, 1): 1})  # 6*zeta^2 + x2
_DENOM_FLOOR = 1e-12


def _zero_poly():
    return MultiPoly.zero(VARS)


class ZetaRational:
    """Element scalar * num / (6 zeta^2 + x2)^denom_power, fully reduced."""

    __slots__ = ("num", "denom_power", "scalar")

    def __init__(self, num: MultiPoly, denom_power: int = 0, scalar=Fraction(1)):
        if num.variables != VARS:
            num = num.embed(VARS)
        scalar = Fraction(scalar)
        denom_power = int(denom_power)
        if denom_power < 0:
            num = num * _D ** (-denom_power)
            denom_power = 0
        # cancel denominator factors
        while denom_power > 0 and not num.is_zero():
            if not _divisible_by_d(num):
                break
            num = num.exact_divide(_D)
            denom_power -= 1
        prim, content = num.primitive()
        if content == 0:
            self.num = _zero_poly()
            self.denom_power = 0
            self.scalar = Fraction(0)
        else:
            self.num = prim
            self.denom_power = denom_power
            self.scalar = scalar * content

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> "ZetaRational":
        return cls(_zero_poly())

    @classmethod
    def const(cls, c) -> "ZetaRational":
        return cls(MultiPoly.const(VARS, 1), 0, Fraction(c))

    @classmethod
    def zeta(cls) -> "ZetaRational":
        return cls(MultiPoly.var(VARS, "zeta"))

    @classmethod
    def x2(cls) -> "ZetaRational":
        return cls(MultiPoly.var(VARS, "x2"))

    @classmethod
    def x1(cls) -> "ZetaRational":
        """x1 rewritten in chart coordinates: -4*zeta^3 - 2*x2*zeta."""
        return cls(MultiPoly(VARS, {(3, 0): -4, (1, 1): -2}))

    @classmethod
    def denominator_poly(cls) -> MultiPoly:
        return _D

    # -- structure --------------------------------------------------------

    def is_zero(self) -> bool:
        return self.scalar == 0

    def __eq__(self, other):
        if not isinstance(other, ZetaRational):
            return NotImplemented
        return (
            self.scalar == other.scalar
            and self.denom_power == other.denom_power
            and self.num == other.num
        )

    def __hash__(self):
        return hash((self.scalar, self.denom_power, self.num))

    def __repr__(self):
        if self.is_zero():
            return "0"
        s = f"({self.scalar})*[{self.num!r}]"
        if self.denom_power:
            s += f"/(6*zeta^2+x2)^{self.denom_power}"
        return s

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ZetaRational.const(other)
        m = max(self.denom_power, other.denom_power)
        a = self.num * self.scalar * _D ** (m - self.denom_power)
        b = other.num * other.scalar * _D ** (m - other.denom_power)
        return ZetaRational(a + b, m)

    __radd__ = __add__

    def __neg__(self):
        out = ZetaRational.__new__(ZetaRational)
        out.num = self.num
        out.denom_power = self.denom_power
        out.scalar = -self.scalar
        return out

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ZetaRational.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            out = ZetaRational.__new__(ZetaRational)
            c = Fraction(other)
            if c == 0:
                return ZetaRational.zero()
            out.num = self.num
            out.denom_power = self.denom_power
            out.scalar = self.scalar * c
            return out
        return ZetaRational(
            self.num * other.num,
            self.denom_power + other.denom_power,
            self.scalar * other.scalar,
        )

    __rmul__ = __mul__

    def __pow__(self, n: int):
        result = ZetaRational.const(1)
        for _ in range(n):
            result = result * self
        return result

    # -- chart derivatives ------------------------------------------------

    def _d_zeta_parts(self) -> tuple[MultiPoly, int]:
        """d/dzeta of num/d^m as (numerator, new denom power), unreduced."""
        dnum = self.num.derivative("zeta")
        if self.denom_power == 0:
            return dnum, 0
        m = self.denom_power
        zeta = MultiPoly.var(VARS, "zeta")
        # (N' d - 12 m zeta N) / d^(m+1)
        return dnum * _D - zeta * self.num * (12 * m), m + 1

    def derive(self, direction: str) -> "ZetaRational":
        """Apply the chart form of d/dx1 (``d1``) or d/dx2 (``d2``)."""
        if direction == "d1":
            n, m = self._d_zeta_parts()
            return ZetaRational(n, m + 1, self.scalar * Fraction(-1, 2))
        if direction == "d2":
            zeta = MultiPoly.var(VARS, "zeta")
            dz_n, dz_m = self._d_zeta_parts()
            # partial w.r.t. x2 at fixed zeta
            dx2 = self.num.derivative("x2")
            if self.denom_power == 0:
                part1 = ZetaRational(dx2, 0, self.scalar)
            else:
                m = self.denom_power
                part1 = ZetaRational(dx2 * _D - self.num * m, m + 1, self.scalar)
            part2 = ZetaRational(zeta * dz_n, dz_m + 1, -self.scalar)
            return part1 + part2
        raise ValueError(f"unknown direction {direction!r} (want 'd1' or 'd2')")

    # -- evaluation -----------------------------------------------------------

    def eval(self, zeta0: complex, x20: complex, floor: float = _DENOM_FLOOR) -> complex:
        """Numeric evaluation; errors out at/near the turning locus d = 0."""
        d = 6 * complex(zeta0) ** 2 + complex(x20)
        if abs(d) < floor:
            raise EvaluationError(
                f"evaluation at/near turning point: |6 zeta^2 + x2| = {abs(d):.3e}"
            )
        n = self.num.eval_numeric({"zeta": zeta0, "x2": x20})
        return complex(self.scalar) * n / d**self.denom_power

    def eval_exact(self, zeta0: Fraction, x20: Fraction) -> Fraction:
        d = 6 * zeta0**2 + x20
        if d == 0:
            raise EvaluationError("evaluation at turning point")
        n = self.num.eval({"zeta": zeta0, "x2": x20})
        return self.scalar * n / d**self.denom_power

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "numerator": self.num.to_json(),
            "denom_power": self.denom_power,
            "scalar": str(self.scalar),
        }

    @classmethod
    def from_json(cls, data: dict) -> "ZetaRational":
        return cls(
            MultiPoly.from_json(data["numerator"]),
            data["denom_power"],
            Fraction(data["scalar"]),
        )


def _divisible_by_d(num: MultiPoly) -> bool:
    """Whether d = 6*zeta^2 + x2 divides num: num(zeta, -6 zeta^2) == 0,
    summing c*(-6)^b into zeta^(a+2b) for each term c*zeta^a*x2^b."""
    acc: dict[int, Fraction] = {}
    for (a, b), c in num.terms.items():
        acc[a + 2 * b] = acc.get(a + 2 * b, 0) + c * (-6) ** b
    return not any(acc.values())


def homogeneity_residual(f: ZetaRational, weight: int) -> ZetaRational:
    """Euler-type residual 3*x1*d1(f) + 2*x2*d2(f) + weight*f.

    Vanishes identically when f scales as lambda^(-weight) under
    (x1, x2) -> (lambda^3 x1, lambda^2 x2); the series coefficients satisfy
    this with weight 4(j+1)-k.
    """
    x1 = ZetaRational.x1()
    x2 = ZetaRational.x2()
    return x1 * f.derive("d1") * 3 + x2 * f.derive("d2") * 2 + f * Fraction(weight)
