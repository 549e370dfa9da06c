"""Exact coefficient ring for the WKB recurrences.

All series coefficients live in Q[zeta, x2] localized at d = 6*zeta^2 + x2:
a ``ZetaRational`` is  scalar * N(zeta, x2) / d^m.  The numerator N is held
as an integer dict {(i, j): c} over zeta^i x2^j, primitive (coefficient gcd
1) with a positive leading coefficient in descending graded-lex order, and
not divisible by d when m > 0; only the scalar is a ``Fraction``.  This form
is unique, so equal elements have equal fields.
The first coordinate zeta is the leading characteristic root, constrained by
4*zeta^3 + 2*x2*zeta + x1 = 0; consequently x1 never appears internally and
is substituted as x1 = -4*zeta^3 - 2*x2*zeta wherever a formula mentions it.

In this chart the coordinate derivatives become first-order operators that
keep denominators confined to powers of d:

    d/dx1 = -(2 d)^(-1) d/dzeta
    d/dx2 = d/dx2|_zeta - zeta d^(-1) d/dzeta

d is irreducible, and monic in x2, so it divides an integer numerator
exactly when synthetic division in x2 leaves no remainder, and the quotient
is again integer.  By Gauss's lemma a product of primitive numerators is
primitive.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from fractions import Fraction
from math import gcd, lcm

from .errors import EvaluationError
from .multipoly import MultiPoly, compile_polys

VARS = ("zeta", "x2")

_D_TERMS = {(2, 0): 6, (0, 1): 1}  # 6*zeta^2 + x2
_D = MultiPoly(VARS, _D_TERMS)
_DENOM_FLOOR = 1e-12


def _grlex(e):
    return (e[0] + e[1], e)


def _mul_terms(a: dict, b: dict) -> dict:
    """Product of two integer numerators."""
    out: dict = {}
    get = out.get
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            e = (i1 + i2, j1 + j2)
            out[e] = get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


@functools.cache
def _d_power(k: int) -> dict:
    """d^k as an integer numerator (shared: callers must not mutate it)."""
    return {(0, 0): 1} if k == 0 else _mul_terms(_d_power(k - 1), _D_TERMS)


def _add_into(acc: dict, terms: dict, c: int, shift: tuple[int, int]) -> None:
    """acc += c * zeta^shift[0] * x2^shift[1] * terms, in place."""
    a, b = shift
    get = acc.get
    for (i, j), v in terms.items():
        e = (i + a, j + b)
        acc[e] = get(e, 0) + c * v


def _div_d(terms: dict) -> dict | None:
    """terms / d if d divides terms, else None.

    Synthetic division by x2 - t with t = -6 zeta^2, from the top x2-degree
    down: q_(k-1) = c_k + t q_k, and the remainder is c_0 + t q_0.
    """
    if sum(c * (-6) ** j for (_, j), c in terms.items()):
        return None  # d vanishes at (zeta, x2) = (1, -6) and terms does not
    n = max(j for _, j in terms)
    rows: list[dict] = [{} for _ in range(n + 1)]
    for (i, j), c in terms.items():
        rows[j][i] = c
    out = {}
    carry: dict = {}
    for k in range(n, -1, -1):
        row = rows[k]
        for i, c in carry.items():
            row[i + 2] = row.get(i + 2, 0) - 6 * c
        carry = {i: c for i, c in row.items() if c}
        if k:
            for i, c in carry.items():
                out[(i, k - 1)] = c
    return None if carry else out


def _cancel_d(terms: dict, m: int) -> tuple[dict, int]:
    """Divide d out of terms while it divides and m > 0: (quotient, m left)."""
    while m > 0:
        q = _div_d(terms)
        if q is None:
            break
        terms, m = q, m - 1
    return terms, m


def _reduce(terms: dict, m: int, scalar: Fraction) -> tuple[dict, int, Fraction]:
    """Canonical (numerator, denom power, scalar) of scalar * terms / d^m."""
    terms = {e: c for e, c in terms.items() if c}
    if not terms or scalar == 0:
        return {}, 0, Fraction(0)
    terms, m = _cancel_d(terms, m)
    g = 0
    for c in terms.values():
        g = gcd(g, c)
        if g == 1:
            break
    if terms[max(terms, key=_grlex)] < 0:
        g = -g
    if g != 1:
        terms = {e: c // g for e, c in terms.items()}
    return terms, m, scalar * g


def _make(terms: dict, m: int, scalar: Fraction) -> "ZetaRational":
    """Wrap fields already in canonical form."""
    out = ZetaRational.__new__(ZetaRational)
    out.terms = terms
    out.denom_power = m
    out.scalar = scalar
    out._num = None
    return out


class ZetaRational:
    """Element scalar * num / (6 zeta^2 + x2)^denom_power, fully reduced.

    ``terms`` is the integer numerator; ``num`` is a ``MultiPoly`` view of
    it, built on first use.
    """

    __slots__ = ("terms", "denom_power", "scalar", "_num")

    def __init__(self, num: MultiPoly, denom_power: int = 0, scalar=Fraction(1)):
        if num.variables != VARS:
            num = num.embed(VARS)
        prim, content = num.primitive()
        terms = {e: int(c) for e, c in prim.terms.items()}
        m = int(denom_power)
        if m < 0:
            terms, m = _mul_terms(terms, _d_power(-m)), 0
        self.terms, self.denom_power, self.scalar = _reduce(
            terms, m, Fraction(scalar) * content
        )
        self._num = None

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> "ZetaRational":
        return _make({}, 0, Fraction(0))

    @classmethod
    def const(cls, c) -> "ZetaRational":
        return _make(*_reduce({(0, 0): 1}, 0, Fraction(c)))

    @classmethod
    def zeta(cls) -> "ZetaRational":
        return _make({(1, 0): 1}, 0, Fraction(1))

    @classmethod
    def x2(cls) -> "ZetaRational":
        return _make({(0, 1): 1}, 0, Fraction(1))

    @classmethod
    def x1(cls) -> "ZetaRational":
        """x1 rewritten in chart coordinates: -4*zeta^3 - 2*x2*zeta."""
        return _make(*_reduce({(3, 0): -4, (1, 1): -2}, 0, Fraction(1)))

    @classmethod
    def denominator_poly(cls) -> MultiPoly:
        return _D

    # -- structure --------------------------------------------------------

    @property
    def num(self) -> MultiPoly:
        """The numerator as a ``MultiPoly``, terms in descending graded-lex order."""
        if self._num is None:
            ordered = sorted(self.terms.items(), key=lambda t: _grlex(t[0]), reverse=True)
            self._num = MultiPoly(VARS, dict(ordered))
        return self._num

    def is_zero(self) -> bool:
        return self.scalar == 0

    def __eq__(self, other):
        if not isinstance(other, ZetaRational):
            return NotImplemented
        return (
            self.scalar == other.scalar
            and self.denom_power == other.denom_power
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.scalar, self.denom_power, frozenset(self.terms.items())))

    def __repr__(self):
        if self.is_zero():
            return "0"
        s = f"({self.scalar})*[{self.num!r}]"
        if self.denom_power:
            s += f"/(6*zeta^2+x2)^{self.denom_power}"
        return s

    # -- arithmetic ---------------------------------------------------------

    @classmethod
    def sum(cls, items) -> "ZetaRational":
        """The sum of ``items``, reduced once.

        Every term is brought to one integer scalar denominator and to the
        highest power of d among them, the integer numerators are added, and
        the total is reduced: as the canonical form is unique, that is the
        element repeated ``+`` gives, for one reduction instead of one per
        addition.
        """
        items = [z for z in items if not z.is_zero()]
        if len(items) < 2:
            return items[0] if items else cls.zero()
        den = lcm(*(z.scalar.denominator for z in items))
        cs = [z.scalar.numerator * (den // z.scalar.denominator) for z in items]
        g = gcd(*cs)
        m = max(z.denom_power for z in items)
        acc: dict = {}
        for z, c in zip(items, cs):
            k = m - z.denom_power
            _add_into(acc, _mul_terms(z.terms, _d_power(k)) if k else z.terms, c // g, (0, 0))
        return _make(*_reduce(acc, m, Fraction(g, den)))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ZetaRational.const(other)
        return ZetaRational.sum((self, other))

    __radd__ = __add__

    def __neg__(self):
        return _make(self.terms, self.denom_power, -self.scalar)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ZetaRational.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return ZetaRational.zero()
            return _make(self.terms, self.denom_power, self.scalar * other)
        if self.is_zero() or other.is_zero():
            return ZetaRational.zero()
        # d is prime and prime to a numerator over d^m with m > 0, so it can
        # only cancel from a factor without a denominator; the product of the
        # primitive, positively led numerators is then canonical as it stands
        a, ma = self.terms, self.denom_power
        b, mb = other.terms, other.denom_power
        if ma == 0:
            a, mb = _cancel_d(a, mb)
        elif mb == 0:
            b, ma = _cancel_d(b, ma)
        return _make(_mul_terms(a, b), ma + mb, self.scalar * other.scalar)

    __rmul__ = __mul__

    def over_d(self, k: int) -> "ZetaRational":
        """self / (6 zeta^2 + x2)^k for k >= 0."""
        return _make(*_reduce(self.terms, self.denom_power + k, self.scalar))

    def __pow__(self, n: int):
        result = ZetaRational.const(1)
        for _ in range(n):
            result = result * self
        return result

    # -- chart derivatives ------------------------------------------------

    def derive(self, direction: str) -> "ZetaRational":
        """Apply the chart form of d/dx1 (``d1``) or d/dx2 (``d2``)."""
        n, m = self.terms, self.denom_power
        dz = {(i - 1, j): i * c for (i, j), c in n.items() if i}
        if direction == "d1":
            # -(1/2) d^(-1) d/dzeta (N/d^m) = -(1/2) (N_zeta d - 12 m zeta N) / d^(m+2)
            num = _mul_terms(dz, _D_TERMS)
            _add_into(num, n, -12 * m, (1, 0))
            return _make(*_reduce(num, m + 2, self.scalar * Fraction(-1, 2)))
        if direction == "d2":
            # d/dx2|_zeta (N/d^m) - zeta d^(-1) d/dzeta (N/d^m)
            #   = (N_x2 d^2 - zeta N_zeta d + m N (6 zeta^2 - x2)) / d^(m+2)
            dx2 = {(i, j - 1): j * c for (i, j), c in n.items() if j}
            num = _mul_terms(dx2, _d_power(2))
            _add_into(num, _mul_terms(dz, _D_TERMS), -1, (1, 0))
            _add_into(num, n, 6 * m, (2, 0))
            _add_into(num, n, -m, (0, 1))
            return _make(*_reduce(num, m + 2, self.scalar))
        raise ValueError(f"unknown direction {direction!r} (want 'd1' or 'd2')")

    # -- evaluation -----------------------------------------------------------

    def eval(self, zeta0: complex, x20: complex) -> complex:
        """Numeric evaluation; errors out at/near the turning locus d = 0."""
        d = _d_value(zeta0, x20)
        n = self.num.eval_numeric({"zeta": zeta0, "x2": x20})
        return complex(self.scalar) * n / d**self.denom_power

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


def _d_value(zeta0: complex, x20: complex) -> complex:
    """d = 6 zeta^2 + x2 at a point; ``EvaluationError`` at/near d = 0."""
    d = 6 * complex(zeta0) ** 2 + complex(x20)
    if abs(d) < _DENOM_FLOOR:
        raise EvaluationError(
            f"evaluation at/near turning point: |6 zeta^2 + x2| = {abs(d):.3e}"
        )
    return d


def compile_rationals(items, label: str) -> Callable:
    """One function of (zeta, x2) returning the value of every element of
    ``items``, bitwise ``ZetaRational.eval`` of each: the numerators are
    compiled as one list (``compile_polys``, under ``label``), and the same
    check of d raises ``EvaluationError`` near the turning locus."""
    evaluate = compile_polys([z.num for z in items], label)
    parts = [(complex(z.scalar), z.denom_power) for z in items]

    def values(zeta0: complex, x20: complex) -> list[complex]:
        d = _d_value(zeta0, x20)
        nums = evaluate(complex(zeta0), complex(x20))
        return [s * n / d**m for (s, m), n in zip(parts, nums)]

    return values


def homogeneity_residual(f: ZetaRational, weight: int) -> ZetaRational:
    """Euler-type residual 3*x1*d1(f) + 2*x2*d2(f) + weight*f.

    Vanishes identically when f scales as lambda^(-weight) under
    (x1, x2) -> (lambda^3 x1, lambda^2 x2); the series coefficients satisfy
    this with weight 4(j+1)-k.
    """
    x1 = ZetaRational.x1()
    x2 = ZetaRational.x2()
    return ZetaRational.sum(
        (x1 * f.derive("d1") * 3, x2 * f.derive("d2") * 2, f * Fraction(weight))
    )
