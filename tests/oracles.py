"""Independent slow oracles used by the tests.

These deliberately avoid the library's fraction-free elimination: the
determinant here is plain cofactor expansion over exact polynomials, so a
resultant computed both ways checks the Bareiss path against something it
shares no code with.  The raster oracle labels the Borel singularities of a
Stokes section one cell at a time from ``numpy.roots`` of the hand-expanded
singular cubic, with none of the library's solver, coefficients or matcher.
"""

from fractions import Fraction

import numpy as np

from pearcey_wkb.multipoly import MultiPoly, sylvester_matrix


def det_cofactor(matrix):
    """Cofactor-expansion determinant of a matrix of MultiPoly entries."""
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    variables = matrix[0][0].variables
    total = MultiPoly.zero(variables)
    for j in range(n):
        entry = matrix[0][j]
        if entry.is_zero():
            continue
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        term = entry * det_cofactor(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def resultant_cofactor(p: MultiPoly, q: MultiPoly, name: str) -> MultiPoly:
    return det_cofactor(sylvester_matrix(p, q, name))


def random_multipoly(rng, variables, max_degree=2, max_terms=4, coeff_range=6):
    terms = {}
    for _ in range(rng.integers(1, max_terms + 1)):
        exps = tuple(int(rng.integers(0, max_degree + 1)) for _ in variables)
        c = int(rng.integers(-coeff_range, coeff_range + 1))
        if c:
            terms[exps] = Fraction(c)
    return MultiPoly(variables, terms)


def finite_difference(f, z0: complex, h: float = 1e-6) -> complex:
    """Central difference derivative of a complex function of one variable."""
    return (f(z0 + h) - f(z0 - h)) / (2 * h)


def singular_cubic_closed_form(x1: complex, x2: complex) -> list[complex]:
    """Descending coefficients in y of disc_z(z^4 + x2 z^2 + x1 z + y),
    expanded by hand: 256 y^3 - 128 x2^2 y^2 + (144 x1^2 x2 + 16 x2^4) y
    - (27 x1^4 + 4 x1^2 x2^3)."""
    return [
        256.0,
        -128.0 * x2**2,
        144.0 * x1**2 * x2 + 16.0 * x2**4,
        -(27.0 * x1**4 + 4.0 * x1**2 * x2**3),
    ]


def _nearest_labels(ref, roots, guard_ratio):
    """Roots reordered to follow ``ref`` (nearest value per label), or None
    when a nearest match fails to beat its runner-up or is not a bijection."""
    order = []
    for r in ref:
        dist = sorted((abs(r - z), k) for k, z in enumerate(roots))
        if dist[1][0] < guard_ratio * dist[0][0]:
            return None
        order.append(dist[0][1])
    if sorted(order) != [0, 1, 2]:
        return None
    return [roots[k] for k in order]


def raster_labels_oracle(x2, window, resolution, first_labels, guard_ratio=1.0 + 1e-12):
    """Labeled Borel singularities on a raster, one cell at a time.

    numpy.roots of the closed-form cubic per cell; labels continue from
    ``first_labels`` at the bottom-left cell, along each row left to right
    and from row start to row start bottom to top.  A failed match falls
    back to roots sorted by (real, imag) and flags the cell.  Returns
    ``(values, flagged)`` as nested lists indexed [i][j] (i = imaginary row).
    """
    re0, re1, im0, im1 = window
    xs = np.linspace(re0, re1, resolution)
    ys = np.linspace(im0, im1, resolution)
    values = [[None] * resolution for _ in range(resolution)]
    flagged = [[False] * resolution for _ in range(resolution)]
    for i in range(resolution):
        for j in range(resolution):
            roots = list(np.roots(singular_cubic_closed_form(complex(xs[j], ys[i]), complex(x2))))
            if i == 0 and j == 0:
                values[i][j] = list(first_labels)
                continue
            ref = values[i][j - 1] if j else values[i - 1][0]
            labeled = _nearest_labels(ref, roots, guard_ratio)
            if labeled is None:
                labeled = sorted(roots, key=lambda z: (z.real, z.imag))
                flagged[i][j] = True
            values[i][j] = labeled
    return values, flagged
