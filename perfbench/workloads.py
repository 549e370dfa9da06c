"""Seeded inputs for the three benchmark workloads.

A workload run is a list of CLI calls, each an argv list for
``pearcey_wkb.cli.main``.  Every workload has a fixed part anchored to the
paper's figures and a seeded part.  The seeded part is drawn from a pool of
``POOL_SIZE`` inputs per workload; the pool itself is generated here from
fixed pool seeds, and ``--seed`` picks which pool entries a run uses.  That
keeps a reference output, recorded once from the parent commit, available
for every input any seed can select.

Draws stay inside the program's documented preconditions and are never
filtered on the program's outcome:

* raster resolution >= 16 (``raster_section``);
* Borel and quadrature points inside the validated chart
  |x2 / x1^(2/3)| <= 0.2 (``borel.T_VALIDITY``);
* a quadrature's Laplace rays (from each singularity u_l in the +real
  direction, length 38/eta) pass no other singularity within 0.05 of the
  singularity separation (``quadrature.laplace_borel_sum``);
* a quadrature's three Borel sums stay within ``BOREL_SPREAD_DECADES``
  decades of each other, so that ``quadrature.match_borel_combination``
  can identify the integral uniquely within its relative tolerance 1e-4;
* every polyline segment keeps the relative turning-discriminant measure
  that ``geometry.default_provenance`` uses (65 samples per segment) above
  its guard 0.08;
* negative numbers are passed as ``--flag=value``.

This module imports nothing from the package under test.
"""

from __future__ import annotations

import cmath
import math
import random

import numpy

WORKLOADS = ("sections", "paths", "borel_sums")
POOL_SIZE = 24

# the three figure slices of scripts/reproduce_figures.py, same windows and
# markers; the resolution is lowered so a workload run stays a few seconds
FIGURE_RES = 32
SEEDED_RES = 64
PAPER_POLYLINE = [
    (0.15, 0.0),
    (0.15, 0.32),
    (0.15, 0.5),
    (0.15, 0.5 + 0.25j),
    (0.15, 0.5 + 0.5j),
    (0.15 + 0.25j, 0.5 + 0.5j),
    (0.15 + 0.37j, 0.5 + 0.5j),
    (0.15 + 0.45j, 0.5 + 0.5j),
    (0.15 + 0.56j, 0.5 + 0.5j),
    (0.15 + 0.69j, 0.5 + 0.5j),
    (0.22 + 0.69j, 0.5 + 0.5j),
    (0.28 + 0.69j, 0.5 + 0.5j),
    (0.45 + 0.69j, 0.5 + 0.5j),
]
_LATER_VERTEX_MARKS = [f"{complex(a).real},{complex(a).imag}" for a, _ in PAPER_POLYLINE[4:]]
FIGURE_SLICES = [
    ("0", "-0.45,0.45,-0.45,0.45", ["0.15,0"]),
    ("0.5,0.25", "-0.8,0.8,-0.8,0.8", ["0.15,0"]),
    ("0.5,0.5", "-0.8,0.8,-0.8,0.8", _LATER_VERTEX_MARKS),
]
# the wider figure window: per-cell root-solver work on it varies less
# with x2 than on the narrow one, which keeps seeds comparable
SEEDED_WINDOW = FIGURE_SLICES[1][1]

SERIES_ORDER = 10
TURNING_GUARD = 0.08
CHART_T_MAX = 0.2
VERTEX_JITTER = 0.03
# |Psi_l| scales as exp(-eta Re u_l); a Borel sum more than 1e4 below the
# integral leaves its coefficient undetermined at the 1e-4 matching
# tolerance (the call exits 2); half a decade is kept for the prefactors
BOREL_SPREAD_DECADES = 3.5

# seeded pool entries per workload run
SEEDED_PER_RUN = {"sections": 1, "paths": 3, "borel_sums": 3}


def _num(v: float) -> str:
    return f"{v:.4f}"


def _cpx(z: complex) -> str:
    return f"{_num(z.real)},{_num(z.imag)}"


def _in_disk(rng: random.Random, radius: float) -> complex:
    return cmath.rect(radius * math.sqrt(rng.random()), 2 * math.pi * rng.random())


def _round(z: complex) -> complex:
    return complex(float(_num(z.real)), float(_num(z.imag)))


def turning_measure(a, b) -> float:
    """Smallest |27 x1^2 + 8 x2^3| / scale over 65 samples of segment a->b.

    The same relative measure ``geometry._bow_leg`` uses to keep labeling
    paths off the turning locus.
    """
    s1 = max(abs(a[0]), abs(b[0]))
    s2 = max(abs(a[1]), abs(b[1]))
    denom = max(27 * s1**2, 8 * s2**3, 1.0)
    worst = math.inf
    for k in range(65):
        t = k / 64
        p1 = a[0] + (b[0] - a[0]) * t
        p2 = a[1] + (b[1] - a[1]) * t
        worst = min(worst, abs(27 * p1**2 + 8 * p2**3) / denom)
    return worst


def _section(x2: str, window: str, res: int, marks=(), sextic=False) -> list[str]:
    argv = ["stokes-section", f"--x2={x2}", f"--window={window}", "--res", str(res)]
    for m in marks:
        argv.append(f"--mark={m}")
    if sextic:
        argv.append("--with-sextic")
    return argv


def _path_calls(spec: str) -> list[list[str]]:
    return [
        ["connect", f"--path={spec}"],
        ["events", f"--path={spec}"],
        ["track-u", f"--path={spec}", "--panels"],
    ]


def _chart_point(rng: random.Random) -> tuple[complex, complex]:
    """(x1, x2) near the reference point with |x2 / x1^(2/3)| <= 0.2."""
    while True:
        x1 = _round(cmath.rect(rng.uniform(0.6, 1.4), rng.uniform(-0.3, 0.3)))
        c = abs(x1) ** (1 / 3) * cmath.exp(1j * cmath.phase(x1) / 3)
        x2 = _round(_in_disk(rng, CHART_T_MAX) * c**2)
        if abs(x2 / c**2) <= CHART_T_MAX:
            return x1, x2


def singularities(x1: complex, x2: complex) -> list[complex]:
    """The three u = -(3 x1 zeta + 2 x2 zeta^2)/4 over the cubic's roots."""
    zetas = numpy.roots([4.0, 0.0, 2 * x2, x1])
    return [complex(-(3 * x1 * z + 2 * x2 * z * z) / 4) for z in zetas]


def laplace_rays_clear(x1: complex, x2: complex, eta: float) -> bool:
    us = singularities(x1, x2)
    min_sep = min(abs(a - b) for i, a in enumerate(us) for b in us[i + 1:])
    for a in us:
        for b in us:
            d = b - a
            if b is not a and 0 < d.real < 38.0 / eta and abs(d.imag) < 0.05 * min_sep:
                return False
    return True


def borel_sums_comparable(x1: complex, x2: complex, eta: float) -> bool:
    logs = [(-eta * u).real / math.log(10) for u in singularities(x1, x2)]
    return max(logs) - min(logs) <= BOREL_SPREAD_DECADES


def fixed_calls(workload: str) -> list[list[str]]:
    """The paper-anchored calls every run of the workload makes."""
    if workload == "sections":
        calls = [_section(x2, w, FIGURE_RES, marks) for x2, w, marks in FIGURE_SLICES]
        x2, w, marks = FIGURE_SLICES[0]
        calls.append(_section(x2, w, FIGURE_RES, marks, sextic=True))
        return calls
    if workload == "paths":
        return _path_calls("paper-polyline")
    if workload == "borel_sums":
        return [["series", "--order", str(SERIES_ORDER)], ["verify"]]
    raise ValueError(f"unknown workload {workload!r}")


def pool_entry(workload: str, index: int) -> list[list[str]]:
    """Calls of seeded pool entry ``index``; depends on nothing else."""
    rng = random.Random(f"perfbench:{workload}:{index}")
    if workload == "sections":
        x2 = _round(_in_disk(rng, 0.7))
        return [_section(_cpx(x2), SEEDED_WINDOW, SEEDED_RES)]
    if workload == "paths":
        while True:
            pts = [
                (_round(complex(a) + _in_disk(rng, VERTEX_JITTER)),
                 _round(complex(b) + _in_disk(rng, VERTEX_JITTER)))
                for a, b in PAPER_POLYLINE
            ]
            if all(turning_measure(p, q) >= TURNING_GUARD for p, q in zip(pts, pts[1:])):
                break
        spec = ";".join(f"{_cpx(a)}/{_cpx(b)}" for a, b in pts)
        return _path_calls(spec)
    if workload == "borel_sums":
        # alternate the two seeded subcommands through the pool
        x1, x2 = _chart_point(rng)
        if index % 2 == 0:
            y = _round(cmath.rect(rng.uniform(0.1, 1.0), rng.uniform(-math.pi, math.pi)))
            ell = rng.choice((1, 2, 3))
            return [["borel", f"--x1={_cpx(x1)}", f"--x2={_cpx(x2)}",
                     f"--y={_cpx(y)}", "--ell", str(ell)]]
        eta = round(rng.uniform(6.0, 14.0), 2)
        while not (laplace_rays_clear(x1, x2, eta) and borel_sums_comparable(x1, x2, eta)):
            x1, x2 = _chart_point(rng)
            eta = round(rng.uniform(6.0, 14.0), 2)
        a = rng.randrange(4)
        b = (a + rng.choice((1, -1))) % 4
        return [["quadrature", f"--x1={_cpx(x1)}", f"--x2={_cpx(x2)}",
                 f"--eta={eta}", f"--contour={a},{b}", "--compare-borel"]]
    raise ValueError(f"unknown workload {workload!r}")


def pool_indices(workload: str, seed: int) -> list[int]:
    """Pool entries a run with this seed uses, in call order."""
    rng = random.Random(f"perfbench:select:{workload}:{seed}")
    k = SEEDED_PER_RUN[workload]
    if workload == "borel_sums":
        # keep the borel/quadrature mix fixed: one borel, two quadratures
        evens = list(range(0, POOL_SIZE, 2))
        odds = list(range(1, POOL_SIZE, 2))
        return rng.sample(evens, 1) + rng.sample(odds, k - 1)
    return rng.sample(range(POOL_SIZE), k)


def plan(workload: str, seed: int) -> list[list[str]]:
    """Every CLI call of one workload run, in order."""
    calls = list(fixed_calls(workload))
    for i in pool_indices(workload, seed):
        calls.extend(pool_entry(workload, i))
    return calls


def all_inputs(workload: str) -> list[list[str]]:
    """Every call any seed can make (fixed part plus the whole pool)."""
    calls = list(fixed_calls(workload))
    for i in range(POOL_SIZE):
        calls.extend(pool_entry(workload, i))
    return calls
