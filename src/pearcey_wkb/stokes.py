"""Stokes sets, singularity trajectories, and connection matrices.

The Stokes set is the locus where Im(u_j - u_k) = 0 for some pair of Borel
singularities.  Along a path in the base plane this module tracks labeled
singularities (re-solving their cubic at every step, no integration),
detects two kinds of events

* ``stokes_crossing``: a zero of Im(u_j - u_k), located by safeguarded
  secant (regula falsi) bracketing;
* ``segment_crossing``: the third singularity passes through the open
  segment joining a pair (collinearity with interior projection),

and emits one connection matrix per Stokes crossing.  The matrix acts on
the column (Psi_1, Psi_2, Psi_3) of Borel sums, expressing the sums of the
earlier region through those of the later region:

    Psi_d(before) = Psi_d(after) + (-1)^d Psi_r(after),

where d is the dominant label at the crossing (larger Re of the leading
exponent, i.e. smaller Re u) and r the recessive one.  A crossing whose
pair has odd accumulated segment-crossing parity produces the identity
matrix (no Stokes phenomenon): the detour continuation relevant there has
vanishing discontinuity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tracking
from .aberth import roots_aberth_batch
from .errors import (
    DominanceError,
    LabelMatchError,
    PearceyError,
    ValidationError,
)
from .geometry import (
    PlanePoint,
    critical_values,
    singular_cubic_coeffs,
    singular_cubic_grid,
    stokes_sextic_grid,
)

PAIRS = ((1, 2), (1, 3), (2, 3))
BISECTION_TOL = 1e-10  # width to which detect_events narrows each crossing's bracket
NEAR_TOL = 0.04  # raster cells whose u's are closer (relative) are flagged


def stokes_indicator(x: PlanePoint):
    """The three reals Im(u_j - u_k) for pairs (1,2), (1,3), (2,3)."""
    us = critical_values(x)
    return tuple(float((us[j] - us[k]).imag) for j, k in PAIRS)


# -- trajectories -----------------------------------------------------------------


@dataclass
class UTrajectories:
    """Labeled Borel-singularity tracks along a base-plane path."""

    taus: list[float]  # global parameter in [0, 1]
    points: list[tuple[complex, complex]]  # (x1, x2) samples
    values: list[np.ndarray]  # three labeled u's per sample


def track_u(x_path: list[PlanePoint | tuple]) -> UTrajectories:
    """Track the labeled u's along a polyline of base points.

    Each accepted step re-solves the singularity cubic and matches labels
    (no numerical integration).  A path passing too near the turning locus
    stops with a ``ContinuationError`` carrying the obstruction point.
    """
    pts = [p.as_tuple() if isinstance(p, PlanePoint) else (complex(p[0]), complex(p[1])) for p in x_path]
    if len(pts) < 2:
        raise ValidationError("path needs at least 2 vertices")
    start = critical_values(PlanePoint(*pts[0]))
    trace = tracking.track_polyline(
        lambda p: singular_cubic_coeffs(PlanePoint(*p)),
        pts,
        np.array(start.values, dtype=complex),
    )
    out = UTrajectories([], [], [])
    nseg = len(pts) - 1
    i = -1
    for tau, point, tvals in zip(trace.taus, trace.points, trace.values):
        if tau == 0.0:  # every leg starts with a tau = 0 record
            i += 1
        g = (i + tau) / nseg
        if out.taus and g <= out.taus[-1]:
            continue
        out.taus.append(g)
        out.points.append(point)
        out.values.append(tvals)
    return out


def _x_at(pts, tau: float) -> tuple[complex, complex]:
    nseg = len(pts) - 1
    s = min(int(tau * nseg), nseg - 1)
    local = tau * nseg - s
    (a1, a2), (b1, b2) = pts[s], pts[s + 1]
    return (a1 + (b1 - a1) * local, a2 + (b2 - a2) * local)


# -- events ---------------------------------------------------------------------


@dataclass
class StokesEvent:
    """One event along a tracked path.

    ``kind`` is 'stokes_crossing' (Im(u_j - u_k) = 0 for ``pair``) or
    'segment_crossing' (label ``crosser`` passes the open segment of
    ``pair``).  For Stokes crossings ``dominant`` holds the label with the
    larger Re of the leading exponent and ``im_before`` the sign of the
    indicator just before the event.
    """

    kind: str
    tau: float
    x: tuple[complex, complex]
    pair: tuple[int, int]
    crosser: int | None = None
    dominant: int | None = None
    recessive: int | None = None
    im_before: int | None = None

    def to_json(self) -> dict:
        d = {
            "kind": self.kind,
            "tau": self.tau,
            "x1": [self.x[0].real, self.x[0].imag],
            "x2": [self.x[1].real, self.x[1].imag],
            "pair": list(self.pair),
        }
        if self.kind == "segment_crossing":
            d["crosser"] = self.crosser
        else:
            d["dominant"] = self.dominant
            d["recessive"] = self.recessive
            d["im_before"] = self.im_before
        return d


def _indicator(vals: np.ndarray, pair) -> float:
    j, k = pair
    return float((vals[j - 1] - vals[k - 1]).imag)


def _segment_signature(vals: np.ndarray, pair, crosser) -> tuple[float, float]:
    """(signed area, interior projection) of the crosser vs the segment."""
    j, k = pair
    a = vals[j - 1]
    b = vals[k - 1]
    c = vals[crosser - 1]
    d = b - a
    L2 = abs(d) ** 2
    cross = ((c - a) * np.conj(d)).imag
    lam = ((c - a) * np.conj(d)).real / L2 if L2 > 0 else -1.0
    return float(cross), float(lam)


def _event_value(kind: str, pair, crosser, vals: np.ndarray) -> float:
    """The function whose sign change marks an event of ``kind``: the Stokes
    indicator of ``pair`` or the crosser's signed area against its segment."""
    if kind == "stokes_crossing":
        return _indicator(vals, pair)
    return _segment_signature(vals, pair, crosser)[0]


@dataclass
class _Bracket:
    """A sign change of an event function between consecutive samples.

    ``f_lo`` and ``f_hi`` are the function at ``lo`` and ``hi``, ``vals``
    the labeled u's at ``lo``; ``im_before`` is its sign at the opening
    sample.
    """

    kind: str
    pair: tuple[int, int]
    crosser: int | None
    lo: float
    hi: float
    f_lo: float
    f_hi: float
    vals: np.ndarray
    im_before: int


def _brackets(traj: UTrajectories) -> list[_Bracket]:
    """Every bracket of a tracked path: pair by pair, Stokes crossings
    before segment crossings, each kind in path order."""
    out = []
    for pair in PAIRS:
        crosser = next(m for m in (1, 2, 3) if m not in pair)
        for kind, c in (("stokes_crossing", None), ("segment_crossing", crosser)):
            series = [_event_value(kind, pair, c, v) for v in traj.values]
            for n in range(1, len(series)):
                if series[n - 1] * series[n] < 0:
                    out.append(
                        _Bracket(
                            kind, pair, c, traj.taus[n - 1], traj.taus[n], series[n - 1],
                            series[n], traj.values[n - 1], int(np.sign(series[n - 1])),
                        )
                    )
    return out


def _u_batch(pts, taus: list[float], brackets: list[_Bracket]) -> np.ndarray:
    """Labeled u's at ``taus[r]``, matched to ``brackets[r].vals``, by one
    cubic batch; a failed match raises ``LabelMatchError`` naming the
    bracket that owns the row."""
    x = [_x_at(pts, t) for t in taus]
    coeffs = singular_cubic_grid(np.array([p[0] for p in x]), np.array([p[1] for p in x]))
    roots = roots_aberth_batch(coeffs, 1e-13)
    ref = np.array([b.vals for b in brackets])
    perm, ok = tracking.match_labels_rows(ref, roots, guard_ratio=1.0 + 1e-12)
    if not ok.all():
        b = brackets[int(np.argmin(ok))]
        raise LabelMatchError(
            f"label match failed locating the {b.kind} of pair {b.pair} "
            f"bracketed by tau in [{b.lo!r}, {b.hi!r}]"
        )
    return np.take_along_axis(roots, perm, axis=-1)


def _candidates(b: _Bracket) -> list[float]:
    """The points one step evaluates inside (lo, hi), ascending: the
    midpoint, the regula-falsi estimate of the zero and two straddle points
    ``BISECTION_TOL / 4`` either side of it."""
    est = b.lo - b.f_lo * (b.hi - b.lo) / (b.f_hi - b.f_lo)
    q = BISECTION_TOL / 4
    return sorted({t for t in ((b.lo + b.hi) / 2, est - q, est, est + q) if b.lo < t < b.hi})


def detect_events(x_path: list) -> tuple[UTrajectories, list[StokesEvent]]:
    """Locate all Stokes and segment crossings along a path, in order.

    Every sign change between consecutive samples is narrowed to width
    ``BISECTION_TOL``, all brackets of the path in lockstep.  Each step
    solves the cubic in one batch at every unfinished bracket's candidates
    (``_candidates``) and keeps the sub-interval where the event function
    changes sign: the midpoint halves each bracket at least, and the
    straddle points close it once the secant estimate is within a quarter
    of the tolerance.  A last batch gives the u's at every bracket's
    centre.  A Stokes crossing whose dominance is undecidable raises
    ``DominanceError``; a segment crossing counts only where the crosser
    projects inside the segment.
    """
    traj = track_u(x_path)
    pts = [p.as_tuple() if isinstance(p, PlanePoint) else (complex(p[0]), complex(p[1])) for p in x_path]
    brackets = _brackets(traj)
    if not brackets:
        return traj, []

    active = [b for b in brackets if b.hi - b.lo > BISECTION_TOL]
    while active:
        cands = [_candidates(b) for b in active]
        owners = [b for b, ts in zip(active, cands) for _ in ts]
        values = iter(_u_batch(pts, [t for ts in cands for t in ts], owners))
        for b, ts in zip(active, cands):
            rows = [(t, next(values)) for t in ts]
            for t, v in rows:
                f = _event_value(b.kind, b.pair, b.crosser, v)
                if b.f_lo * f <= 0:
                    b.hi, b.f_hi = t, f
                    break
                b.lo, b.f_lo, b.vals = t, f, v
        active = [b for b in active if b.hi - b.lo > BISECTION_TOL]

    centres = [(b.lo + b.hi) / 2 for b in brackets]
    events: list[StokesEvent] = []
    for b, tau_c, v_c in zip(brackets, centres, _u_batch(pts, centres, brackets)):
        if b.kind == "stokes_crossing":
            j, k = b.pair
            re_uj = v_c[j - 1].real
            re_uk = v_c[k - 1].real
            gap = abs(re_uj - re_uk)
            scale = max(abs(v) for v in v_c)
            if gap < 1e-9 * scale:
                raise DominanceError(
                    f"dominance undecidable for pair {b.pair} at tau={tau_c}"
                )
            dom, rec = (j, k) if re_uj < re_uk else (k, j)
            events.append(
                StokesEvent(
                    "stokes_crossing", tau_c, _x_at(pts, tau_c), b.pair,
                    dominant=dom, recessive=rec, im_before=b.im_before,
                )
            )
        elif 0.0 < _segment_signature(v_c, b.pair, b.crosser)[1] < 1.0:
            events.append(
                StokesEvent(
                    "segment_crossing", tau_c, _x_at(pts, tau_c), b.pair, crosser=b.crosser
                )
            )

    events.sort(key=lambda e: e.tau)
    return traj, events


# -- connection matrices ------------------------------------------------------------


@dataclass(frozen=True)
class ConnectionMatrix:
    """Integer matrix C with Psi(before) = C Psi(after) across a crossing."""

    entries: tuple  # 3x3 nested tuples of ints

    def __post_init__(self):
        m = np.array(self.entries, dtype=int)
        if m.shape != (3, 3):
            raise ValidationError("connection matrix must be 3x3")
        if round(float(np.linalg.det(m))) != 1:
            raise ValidationError("connection matrix must have determinant 1")
        off = m - np.eye(3, dtype=int)
        if np.count_nonzero(off) > 1:
            raise ValidationError("connection matrix must be an elementary transvection")

    @classmethod
    def identity(cls) -> "ConnectionMatrix":
        return cls(((1, 0, 0), (0, 1, 0), (0, 0, 1)))

    @classmethod
    def transvection(cls, dominant: int, recessive: int, sign: int) -> "ConnectionMatrix":
        m = np.eye(3, dtype=int)
        m[dominant - 1, recessive - 1] = sign
        return cls(tuple(tuple(int(v) for v in row) for row in m))

    def as_array(self) -> np.ndarray:
        return np.array(self.entries, dtype=int)

    def to_json(self) -> list:
        return [list(r) for r in self.entries]


def connection_walk(x_path: list) -> list[tuple[StokesEvent, ConnectionMatrix]]:
    """Connection matrices for every Stokes crossing along a path.

    Segment-crossing parity per pair toggles between the plain jump formula
    (elementary transvection with entry (-1)^dominant) and the vanished
    detour formula (identity matrix).
    """
    _, events = detect_events(x_path)
    parity = {pair: 0 for pair in PAIRS}
    out = []
    for ev in events:
        if ev.kind == "segment_crossing":
            parity[ev.pair] ^= 1
            continue
        if parity[ev.pair] % 2 == 1:
            out.append((ev, ConnectionMatrix.identity()))
        else:
            sign = -1 if ev.dominant % 2 else 1
            out.append((ev, ConnectionMatrix.transvection(ev.dominant, ev.recessive, sign)))
    return out


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
"""Named path 'paper-polyline': the thirteen-vertex continuation path whose
five Stokes crossings generate the six-region connection system."""


# -- raster sections ---------------------------------------------------------------


@dataclass
class RasterSection:
    """Signs of the three Stokes indicators over an x1 grid at fixed x2."""

    x2: complex
    window: tuple[float, float, float, float]
    resolution: int
    signs: np.ndarray  # (3, res, res) int8
    near_turning: np.ndarray  # (res, res) bool
    polylines: dict  # pair -> list of polylines [(x1 complex, ...), ...]
    sextic_sign: np.ndarray | None = None
    turning_points: tuple = ()

    def to_csv(self) -> str:
        res = self.resolution
        lines = ["i,j,x1_re,x1_im,sign_12,sign_13,sign_23,near_turning"]
        re0, re1, im0, im1 = self.window
        res_re = np.linspace(re0, re1, res)
        res_im = np.linspace(im0, im1, res)
        for i in range(res):
            for j in range(res):
                lines.append(
                    ",".join(
                        [
                            str(i),
                            str(j),
                            repr(res_re[j]),
                            repr(res_im[i]),
                            str(int(self.signs[0, i, j])),
                            str(int(self.signs[1, i, j])),
                            str(int(self.signs[2, i, j])),
                            str(int(self.near_turning[i, j])),
                        ]
                    )
                )
        return "\n".join(lines) + "\n"


def raster_section(
    x2: complex,
    window: tuple[float, float, float, float],
    resolution: int,
    with_sextic: bool = False,
) -> RasterSection:
    """Sample the Stokes indicators on an x1 grid at fixed x2.

    The cubic is solved for the whole grid, ``BLOCK`` cells per vectorised
    Aberth batch.  Labels then continue from the bottom-left cell: up
    column 0 one cell at a time, then column by column, every row matched
    against its left neighbour at once.  Each cell's reference cell is the
    same as in a row-by-row sweep (left to right, rows bottom to top).
    Cells too close to the turning locus, or whose match is ambiguous, are
    flagged and their labels are best-effort (sorted roots, merged-root
    mode).  Zero-crossing polylines per pair come from sign changes between
    adjacent cells.
    """
    if resolution < 16:
        raise ValidationError("resolution must be at least 16")
    re0, re1, im0, im1 = (float(v) for v in window)
    xs = np.linspace(re0, re1, resolution)
    ys = np.linspace(im0, im1, resolution)
    x1 = _complex_grid(xs, ys)
    sext = _sextic_layer(x2, x1) if with_sextic else None
    roots = _solve_blocks(singular_cubic_grid, x1.ravel(), x2, 1e-12)
    values, near = _label_sweep(roots.reshape(resolution, resolution, 3), x1[0, 0], x2)

    sep = np.min(np.abs(values[..., _PAIR_J] - values[..., _PAIR_K]), axis=-1)
    near |= sep < NEAR_TOL * np.maximum(1e-12, np.max(np.abs(values), axis=-1))
    im = np.moveaxis(_pair_im(values), -1, 0)
    signs = np.where(im < 0, -1, 1).astype(np.int8)

    union, per_pair = _edge_zero_points(values, near, xs, ys)
    tps = _turning_points_in_window(x2, window)
    return RasterSection(
        x2=complex(x2),
        window=(re0, re1, im0, im1),
        resolution=resolution,
        signs=signs,
        near_turning=near,
        polylines={"union": union, **{PAIRS[p]: per_pair[p] for p in range(3)}},
        sextic_sign=sext,
        turning_points=tps,
    )


BLOCK = 512
"""Cells (or edges) per vectorised step of a raster section; bounds the
size of the solver and edge-pass temporaries whatever the resolution."""

# label indices (0-based) of the pairs in PAIRS
_PAIR_J = np.array([j - 1 for j, _ in PAIRS])
_PAIR_K = np.array([k - 1 for _, k in PAIRS])


def _complex_grid(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """grid[i, j] = complex(re[j], im[i]), built without rounding."""
    grid = np.empty((im.size, re.size), dtype=complex)
    grid.real = re[None, :]
    grid.imag = im[:, None]
    return grid


def _pair_im(values: np.ndarray) -> np.ndarray:
    """Im(u_j - u_k) for the pairs in PAIRS along the last axis."""
    return (values[..., _PAIR_J] - values[..., _PAIR_K]).imag


def _solve_blocks(coeffs_of, x1: np.ndarray, x2: complex, tol: float) -> np.ndarray:
    """Roots at every x1 (flat array) for fixed x2, ``BLOCK`` cells per batch."""
    return np.concatenate(
        [
            roots_aberth_batch(coeffs_of(x1[s : s + BLOCK], x2), tol)
            for s in range(0, x1.size, BLOCK)
        ]
    )


def _relabel(ref: np.ndarray, roots: np.ndarray):
    """Order each row of ``roots`` like its row of ``ref``; rows whose match
    fails fall back to sorted order and are flagged."""
    perm, ok = tracking.match_labels_rows(ref, roots, guard_ratio=1.0 + 1e-12)
    ordered = np.take_along_axis(roots, perm, axis=-1)
    ordered[~ok] = np.sort(roots[~ok], axis=-1)
    return ordered, ~ok


def _label_sweep(roots: np.ndarray, x1_first: complex, x2: complex):
    """Labeled values and fallback flags for a (res, res, 3) root grid."""
    res = roots.shape[0]
    values = np.empty_like(roots)
    flagged = np.zeros(roots.shape[:2], dtype=bool)
    try:
        values[0, 0] = critical_values(PlanePoint(x1_first, x2)).values
    except PearceyError:
        values[0, 0] = np.sort(roots[0, 0])
        flagged[0, 0] = True
    for i in range(1, res):
        values[i : i + 1, 0], flagged[i : i + 1, 0] = _relabel(
            values[i - 1 : i, 0], roots[i : i + 1, 0]
        )
    for j in range(1, res):
        values[:, j], flagged[:, j] = _relabel(values[:, j - 1], roots[:, j])
    return values, flagged


def _edge_zero_points(values: np.ndarray, near: np.ndarray, xs, ys):
    """Zero-crossing midpoints with edge-local root matching.

    Matching roots only across single cell edges sidesteps the global
    labeling obstruction (monodromy around in-window turning points), so no
    spurious seam crossings appear.  Per-pair attribution uses the stored
    grid labels of the first cell and is best-effort near the turning set.
    Horizontal edges come first, then vertical ones, each row-major;
    ``BLOCK`` edges are matched at a time.
    """
    union: list[complex] = []
    per_pair: list[list[complex]] = [[], [], []]
    x_mid = (xs[:-1] + xs[1:]) / 2
    y_mid = (ys[:-1] + ys[1:]) / 2
    edges = (
        (values[:, :-1], values[:, 1:], near[:, :-1] | near[:, 1:], _complex_grid(x_mid, ys)),
        (values[:-1], values[1:], near[:-1] | near[1:], _complex_grid(xs, y_mid)),
    )
    for va, vb, skip, mid in edges:
        va, vb = va.reshape(-1, 3), vb.reshape(-1, 3)
        skip, mid = skip.ravel(), mid.ravel()
        for s in range(0, mid.size, BLOCK):
            a, b = va[s : s + BLOCK], vb[s : s + BLOCK]
            perm, ok = tracking.match_labels_rows(a, b, guard_ratio=1.0 + 1e-12)
            sa = _pair_im(a)
            sb = _pair_im(np.take_along_axis(b, perm, axis=-1))
            hit = ((sa == 0.0) | (sa * sb < 0)) & (ok & ~skip[s : s + BLOCK])[:, None]
            m = mid[s : s + BLOCK]
            for p in range(3):
                per_pair[p].extend(m[hit[:, p]].tolist())
            union.extend(m[hit.any(axis=1)].tolist())
    return union, per_pair


def _sextic_layer(x2: complex, x1: np.ndarray) -> np.ndarray:
    """min |Im F| over the derived sextic roots, per grid cell.

    Cells are independent (no label continuation): the sextic is solved
    ``BLOCK`` cells per vectorised Aberth batch, in one thread.
    """
    roots = _solve_blocks(stokes_sextic_grid, x1.ravel(), x2, 1e-10)
    return np.min(np.abs(roots.imag), axis=1).reshape(x1.shape)


def _turning_points_in_window(x2: complex, window) -> tuple:
    """Roots of the turning discriminant in x1 for fixed x2, inside window."""
    x2 = complex(x2)
    disc = -8.0 * x2**3 / 27.0
    r = np.sqrt(complex(disc))
    out = []
    re0, re1, im0, im1 = window
    for cand in (r, -r):
        if re0 <= cand.real <= re1 and im0 <= cand.imag <= im1:
            if not any(abs(cand - o) < 1e-14 for o in out):
                out.append(cand)
    return tuple(out)
