"""Exact multivariate polynomials over the rationals.

``MultiPoly`` stores a map from exponent vectors to exact coefficients
over a fixed, ordered tuple of variable names: a Python ``int``, or a
``Fraction`` where not integral.  Arithmetic is exact and stays on ``int``
where its operands are; construction, scalar products and exact division
store integral values as ``int`` (polynomial sums and products are not
re-normalised).  Term order for display and serialization is graded
lexicographic (total degree first, then lex on the declared variable
order), descending.

Numeric evaluation has one path: :func:`compile_polys` turns a list of
polynomials into straight-line Python source, compiled once per list on
first use.  For every term, in ``terms`` order, the source adds
``complex(c) * v0 ** k0 * v1 ** k1 * ...`` to an accumulator that starts
at ``0j``, so a value at Python complex scalars is bitwise the same however
the list is grouped; numpy arrays broadcast through the same source.
:meth:`MultiPoly.eval_numeric` and :meth:`MultiPoly.compile` are this
evaluator applied to one polynomial and to a coefficient list.  The source
is built from the polynomials' own coefficients and exponents only.

The module also provides Sylvester resultants computed by fraction-free
(Bareiss) elimination, and discriminants with the standard sign convention

    disc(p) = (-1)^(n(n-1)/2) Res(p, p') / lc(p),   n = deg p.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import numpy as np

from .errors import NumericError, ValidationError

RationalLike = int | Fraction


def _rational(c) -> RationalLike:
    """An exact coefficient: an ``int`` where integral, else a ``Fraction``."""
    if isinstance(c, int):
        return int(c)
    if isinstance(c, str):
        c = Fraction(c)
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise TypeError(f"not an exact rational: {c!r}")


def _quotient(a: RationalLike, b: RationalLike) -> RationalLike:
    """a / b exactly: floor division where both are ints and it is exact."""
    if type(a) is int and type(b) is int and a % b == 0:
        return a // b
    return _rational(Fraction(a, b))


def _grlex_key(exps: tuple[int, ...]):
    return (sum(exps), exps)


class MultiPoly:
    """Multivariate polynomial with exact coefficients: ``int``, or
    ``Fraction`` where not integral.

    Instances are immutable in practice: no public method mutates ``terms``,
    and :meth:`eval_numeric` keeps the compiled function of the polynomial
    once its first call has built it.
    Arithmetic requires both operands to share the same variable tuple; use
    :meth:`embed` to move a polynomial into a larger variable set.
    """

    __slots__ = ("variables", "terms", "_line")

    def __init__(self, variables, terms=None):
        self.variables = tuple(variables)
        clean: dict[tuple[int, ...], RationalLike] = {}
        if terms:
            nv = len(self.variables)
            for exps, c in terms.items():
                c = _rational(c)
                if c == 0:
                    continue
                exps = tuple(int(e) for e in exps)
                if len(exps) != nv or any(e < 0 for e in exps):
                    raise ValidationError(f"bad exponent vector {exps}")
                clean[exps] = _rational(clean.get(exps, 0) + c)
                if clean[exps] == 0:
                    del clean[exps]
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, variables) -> "MultiPoly":
        return cls(variables, {})

    @classmethod
    def const(cls, variables, c) -> "MultiPoly":
        variables = tuple(variables)
        return cls(variables, {(0,) * len(variables): c})

    @classmethod
    def var(cls, variables, name, power: int = 1) -> "MultiPoly":
        variables = tuple(variables)
        i = variables.index(name)
        e = [0] * len(variables)
        e[i] = power
        return cls(variables, {tuple(e): 1})

    # -- basic structure ----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> RationalLike:
        return self.terms.get((0,) * len(self.variables), 0)

    def sorted_terms(self):
        """Terms in descending graded-lex order (deterministic)."""
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    def degree(self, name: str) -> int:
        i = self.variables.index(name)
        return max((e[i] for e in self.terms), default=0)

    def __eq__(self, other):
        return (
            isinstance(other, MultiPoly)
            and self.variables == other.variables
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for exps, c in self.sorted_terms():
            mono = "*".join(
                f"{v}^{e}" if e > 1 else v
                for v, e in zip(self.variables, exps)
                if e
            )
            parts.append(f"({c})*{mono}" if mono else f"({c})")
        return " + ".join(parts)

    # -- arithmetic ----------------------------------------------------

    def _check_compat(self, other: "MultiPoly"):
        if self.variables != other.variables:
            raise ValidationError(
                f"variable mismatch: {self.variables} vs {other.variables}"
            )

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.variables, other)
        self._check_compat(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c
            if s == 0:
                terms.pop(e, None)
            else:
                terms[e] = s
        out = MultiPoly.__new__(MultiPoly)
        out.variables = self.variables
        out.terms = terms
        return out

    __radd__ = __add__

    def __neg__(self):
        out = MultiPoly.__new__(MultiPoly)
        out.variables = self.variables
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.variables, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c0 = _rational(other)
            if c0 == 0:
                return MultiPoly.zero(self.variables)
            out = MultiPoly.__new__(MultiPoly)
            out.variables = self.variables
            out.terms = {e: _rational(c * c0) for e, c in self.terms.items()}
            return out
        self._check_compat(other)
        terms: dict[tuple[int, ...], RationalLike] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = terms.get(e, 0) + c1 * c2
                if s == 0:
                    terms.pop(e, None)
                else:
                    terms[e] = s
        out = MultiPoly.__new__(MultiPoly)
        out.variables = self.variables
        out.terms = terms
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValidationError("negative power")
        result = MultiPoly.const(self.variables, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- calculus and evaluation ----------------------------------------

    def derivative(self, name: str) -> "MultiPoly":
        i = self.variables.index(name)
        terms = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            e2 = list(e)
            e2[i] -= 1
            terms[tuple(e2)] = c * e[i]
        return MultiPoly(self.variables, terms)

    def eval_numeric(self, values: dict) -> complex:
        """Evaluation in complex double precision by the polynomial's
        compiled function (see :func:`compile_polys`)."""
        try:
            line = self._line
        except AttributeError:
            line = self._line = compile_polys([self])
        return line(*[complex(values[v]) for v in self.variables])[0]

    def embed(self, variables) -> "MultiPoly":
        """Re-express in a superset/reordering of the current variables."""
        variables = tuple(variables)
        idx = [variables.index(v) for v in self.variables]
        terms = {}
        for e, c in self.terms.items():
            e2 = [0] * len(variables)
            for j, k in zip(idx, e):
                e2[j] = k
            terms[tuple(e2)] = c
        return MultiPoly(variables, terms)

    def drop_variable(self, name: str) -> "MultiPoly":
        """Remove an unused variable from the declared tuple."""
        i = self.variables.index(name)
        if any(e[i] for e in self.terms):
            raise ValidationError(f"variable {name} still occurs")
        newvars = self.variables[:i] + self.variables[i + 1 :]
        return MultiPoly(
            newvars, {e[:i] + e[i + 1 :]: c for e, c in self.terms.items()}
        )

    # -- univariate views ------------------------------------------------

    def as_univariate(self, name: str) -> list["MultiPoly"]:
        """Coefficient list (ascending) w.r.t. one variable.

        Coefficients keep the full variable tuple with the chosen variable
        at exponent zero.
        """
        i = self.variables.index(name)
        deg = self.degree(name)
        coeffs = [MultiPoly.zero(self.variables) for _ in range(deg + 1)]
        for e, c in self.terms.items():
            e2 = list(e)
            k = e2[i]
            e2[i] = 0
            coeffs[k] = coeffs[k] + MultiPoly(self.variables, {tuple(e2): c})
        return coeffs

    def compile(self, name: str):
        """Compiled coefficient list w.r.t. one variable.

        The result takes the remaining variables in declared order and
        returns the coefficients ascending in ``name``: at Python complex
        scalars, ``[c.eval_numeric(point) for c in self.as_univariate(name)]``
        bit for bit (see :func:`compile_polys` for arrays).
        """
        i = self.variables.index(name)
        coeffs = [{} for _ in range(self.degree(name) + 1)]
        for e, c in self.terms.items():
            coeffs[e[i]][e[:i] + e[i + 1 :]] = c
        rest = self.variables[:i] + self.variables[i + 1 :]
        return compile_polys([MultiPoly(rest, t) for t in coeffs], f"coefficients in {name}")

    def leading_coeff(self, name: str) -> "MultiPoly":
        return self.as_univariate(name)[-1]

    # -- exact division and content --------------------------------------

    def exact_divide(self, divisor: "MultiPoly") -> "MultiPoly":
        """Exact polynomial division; raises if the division is not exact."""
        self._check_compat(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if divisor.is_constant():
            return self * Fraction(1, divisor.constant_value())
        rem = self
        qterms: dict[tuple[int, ...], RationalLike] = {}
        dlead_e, dlead_c = divisor.sorted_terms()[0]
        while not rem.is_zero():
            rlead_e, rlead_c = rem.sorted_terms()[0]
            qe = tuple(a - b for a, b in zip(rlead_e, dlead_e))
            if any(k < 0 for k in qe):
                raise ValidationError("division not exact")
            qc = _quotient(rlead_c, dlead_c)
            qterms[qe] = qterms.get(qe, 0) + qc
            rem = rem - divisor * MultiPoly(self.variables, {qe: qc})
        return MultiPoly(self.variables, qterms)

    def divides(self, other: "MultiPoly") -> bool:
        try:
            other.exact_divide(self)
            return True
        except (ValidationError, ZeroDivisionError):
            return False

    def content(self) -> RationalLike:
        """Positive rational c with self/c integer-primitive; 0 for zero."""
        if self.is_zero():
            return 0
        num_g = 0
        den_l = 1
        for c in self.terms.values():
            num_g = gcd(num_g, abs(c.numerator))
            den_l = den_l * c.denominator // gcd(den_l, c.denominator)
        return _rational(Fraction(num_g, den_l))

    def primitive(self) -> tuple["MultiPoly", RationalLike]:
        """Return (primitive part, content-with-sign).

        The primitive part has coprime integer coefficients and a positive
        leading (graded-lex) coefficient; ``self == part * scale``.
        """
        if self.is_zero():
            return self, 0
        c = self.content()
        lead = self.sorted_terms()[0][1]
        if lead < 0:
            c = -c
        return self * Fraction(1, c), c

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "variables": list(self.variables),
            "terms": [
                {"exponents": list(e), "coefficient": str(c)}
                for e, c in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "MultiPoly":
        return cls(
            tuple(data["variables"]),
            {
                tuple(t["exponents"]): Fraction(t["coefficient"])
                for t in data["terms"]
            },
        )


# -- numeric evaluation ----------------------------------------------------------


def _overflow(variables, values) -> NumericError:
    """The error of an evaluation whose powers overflow, naming the input
    (an array input by its size)."""
    at = ", ".join(
        f"{v} = {x!r}" if np.ndim(x) == 0 else f"{v} = <{np.size(x)} values>"
        for v, x in zip(variables, values)
    )
    return NumericError(f"coefficient evaluation overflows at {at}")


def compile_polys(polys, label: str = "compile_polys"):
    """One straight-line function evaluating every polynomial of ``polys``.

    All polynomials share one variable tuple.  The function takes one value
    per variable, in declared order, and returns the list of values, one
    per polynomial.  Each value sums ``complex(c) * v0 ** k0 * ...`` over
    the terms in ``terms`` order, starting from ``0j``, with every power
    computed once per call; at Python complex scalars that is bitwise
    :meth:`MultiPoly.eval_numeric`.  Numpy arrays (broadcast together) give
    arrays, except that an entry without variables stays a Python complex;
    :func:`eval_grid` stacks the values into one array.  A wrong number of
    values raises ``ValidationError``; a power that overflows (a Python
    complex one raises ``OverflowError``) raises ``NumericError`` naming
    the values.  The source is compiled under the file name ``<label>``, so
    that a traceback or a count of ``compile()`` calls names the list.
    """
    variables = polys[0].variables
    if any(p.variables != variables for p in polys):
        raise ValidationError("compile_polys needs one variable tuple")
    nv = len(variables)
    powers = sorted({(i, k) for p in polys for e in p.terms for i, k in enumerate(e) if k})
    lines = [
        "def evaluate(*values):",
        f"    if len(values) != {nv}:",
        f"        raise ValidationError({f'expected {nv} values {variables}'!r})",
        f"    ({''.join(f'v{i}, ' for i in range(nv))}) = values",
    ]
    lines.append("    try:")
    lines += [f"        v{i}_{k} = v{i} ** {k}" for i, k in powers]
    for j, p in enumerate(polys):
        lines.append(f"        c{j} = 0j")
        for e, c in p.terms.items():
            factors = "".join(f" * v{i}_{k}" for i, k in enumerate(e) if k)
            lines.append(f"        c{j} += {complex(c)!r}{factors}")
    lines += [
        "    except OverflowError:",
        f"        raise _overflow({variables!r}, values) from None",
        f"    return [{', '.join(f'c{j}' for j in range(len(polys)))}]",
    ]
    namespace = {"ValidationError": ValidationError, "_overflow": _overflow}
    exec(compile("\n".join(lines), f"<{label}>", "exec"), namespace)
    return namespace["evaluate"]


def eval_grid(evaluate, *inputs) -> np.ndarray:
    """A :func:`compile_polys` function over broadcast inputs as one array of
    shape (..., number of polynomials), every entry broadcast to the inputs'
    shape."""
    values = evaluate(*inputs)
    return np.stack(np.broadcast_arrays(*values, *inputs)[: len(values)], axis=-1)


# -- resultants ---------------------------------------------------------------


def sylvester_matrix(p: MultiPoly, q: MultiPoly, name: str) -> list[list[MultiPoly]]:
    """Sylvester matrix of p and q w.r.t. one variable.

    Entries are polynomials in the remaining variables (the eliminated
    variable appears at exponent 0 everywhere).
    """
    pc = p.as_univariate(name)
    qc = q.as_univariate(name)
    m = len(pc) - 1
    n = len(qc) - 1
    if m < 1 or n < 1:
        raise ValidationError("both inputs must have positive degree in " + name)
    size = m + n
    zero = MultiPoly.zero(p.variables)
    rows = []
    for i in range(n):  # rows of p coefficients
        row = [zero] * size
        for k, c in enumerate(reversed(pc)):
            row[i + k] = c
        rows.append(row)
    for i in range(m):  # rows of q coefficients
        row = [zero] * size
        for k, c in enumerate(reversed(qc)):
            row[i + k] = c
        rows.append(row)
    return rows


def _det_bareiss(matrix: list[list[MultiPoly]], variables) -> MultiPoly:
    """Fraction-free Bareiss determinant over the polynomial ring."""
    n = len(matrix)
    if n == 0:
        return MultiPoly.const(variables, 1)
    m = [row[:] for row in matrix]
    sign = 1
    prev = MultiPoly.const(variables, 1)
    for k in range(n - 1):
        if m[k][k].is_zero():
            pivot_row = next(
                (i for i in range(k + 1, n) if not m[i][k].is_zero()), None
            )
            if pivot_row is None:
                return MultiPoly.zero(variables)
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = num.exact_divide(prev)
            m[i][k] = MultiPoly.zero(variables)
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return -det if sign < 0 else det


def resultant(p: MultiPoly, q: MultiPoly, name: str) -> MultiPoly:
    """Resultant of p and q w.r.t. ``name`` (Sylvester determinant).

    The result carries the same variable tuple with the eliminated variable
    unused; call :meth:`MultiPoly.drop_variable` to remove it.
    """
    if p.variables != q.variables:
        raise ValidationError("variable mismatch in resultant")
    if p.degree(name) < 1 and q.degree(name) < 1:
        raise ValidationError(f"{name} absent from both inputs")
    if p.degree(name) < 1 or q.degree(name) < 1:
        raise ValidationError(f"both inputs must have positive degree in {name}")
    return _det_bareiss(sylvester_matrix(p, q, name), p.variables)


def discriminant(p: MultiPoly, name: str) -> MultiPoly:
    """Discriminant w.r.t. ``name`` with the standard sign convention."""
    n = p.degree(name)
    if n < 2:
        raise ValidationError("degree must be at least 2 for a discriminant")
    res = resultant(p, p.derivative(name), name)
    lead = p.leading_coeff(name)
    out = res.exact_divide(lead)
    if (n * (n - 1) // 2) % 2:
        out = -out
    return out
