"""Stokes sets, singularity trajectories, and connection matrices.

The Stokes set is the locus where Im(u_j - u_k) = 0 for some pair of Borel
singularities.  Along a path in the base plane this module tracks labeled
singularities (Newton-correcting them onto their cubic at every step, no
integration), detects two kinds of events

* ``stokes_crossing``: a zero of Im(u_j - u_k);
* ``segment_crossing``: one singularity passes through the open segment
  joining the other two, a zero of the signed area of the triangle
  u_1 u_2 u_3 at which that u projects inside the segment,

each located by ITP bracketing (a regula-falsi point, truncated and
projected so that no bracket takes more steps than bisection), one bracket
after the other, its labeled u's corrected from its lower end by one
tracker step (``tracking.polish``) on the same cubic evaluator as the
track,

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

import math
from dataclasses import dataclass

import numpy as np

from . import tracking
from .aberth import ROOT_TOL, roots_aberth_batch
from .errors import (
    ContinuationError,
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
ITP_K1 = 0.01  # ITP's truncation kappa1, times a bracket's opening width
ITP_SLACK = 2.0**-10  # share of eps the projection keeps back from roundoff
NEAR_TOL = 0.04  # raster cells whose u's are closer (relative) are flagged


# -- trajectories -----------------------------------------------------------------


def _path_points(x_path: list[PlanePoint | tuple]) -> list[tuple[complex, complex]]:
    """A base-plane path's knots as (x1, x2) tuples of complex."""
    return [
        p.as_tuple() if isinstance(p, PlanePoint) else (complex(p[0]), complex(p[1]))
        for p in x_path
    ]


def track_u(x_path: list[PlanePoint | tuple]) -> tracking.Trace:
    """Track the labeled u's along a polyline of base points.

    Each accepted step Newton-corrects the u's onto the singularity cubic
    and passes the tracker's collision guard (no numerical integration).
    The trace's taus are global: segment i of n covers [i/n, (i+1)/n], and
    each knot is recorded once.  A path passing too near the turning locus
    stops with a ``ContinuationError`` carrying the obstruction point.
    """
    pts = _path_points(x_path)
    if len(pts) < 2:
        raise ValidationError("path needs at least 2 vertices")
    start = critical_values(PlanePoint(*pts[0]))
    return tracking.track_polyline(_cubic_at, pts, np.array(start.values, dtype=complex))


def _cubic_at(p: tuple[complex, complex]) -> np.ndarray:
    return singular_cubic_coeffs(PlanePoint(*p))


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


def _event_value(pair, vals) -> float:
    """The function whose sign change marks an event: Im(u_j - u_k) for a
    Stokes ``pair``; for ``pair`` None, twice the signed area of the triangle
    u_1 u_2 u_3, zero where the three u's are collinear."""
    if pair is None:
        a, b, c = vals
        return float(((c - a) * np.conj(b - a)).imag)
    j, k = pair
    return float((vals[j - 1] - vals[k - 1]).imag)


def _crosser(vals) -> tuple[tuple[int, int], int] | None:
    """The first pair of ``PAIRS`` whose segment the third u projects strictly
    inside, and that u's label; None when no u does."""
    for pair in PAIRS:
        j, k = pair
        crosser = 6 - j - k
        a = vals[j - 1]
        d = vals[k - 1] - a
        L2 = abs(d) ** 2
        if L2 > 0 and 0.0 < ((vals[crosser - 1] - a) * np.conj(d)).real / L2 < 1.0:
            return pair, crosser
    return None


@dataclass
class _Bracket:
    """A sign change of an event function between consecutive samples.

    ``pair`` is the Stokes pair whose indicator changes sign, or None for the
    collinearity of the three u's (``_event_value``).  ``f_lo`` and ``f_hi``
    are the function at ``lo`` and ``hi``, ``lo_vals`` and ``hi_vals`` the
    labeled u's there (Python complex).  Narrowing keeps the sign of
    ``f_lo``, the function's sign at the opening sample.
    """

    pair: tuple[int, int] | None
    lo: float
    hi: float
    f_lo: float
    f_hi: float
    lo_vals: list[complex]
    hi_vals: list[complex]


def _brackets(traj: tracking.Trace) -> list[_Bracket]:
    """Every bracket of a tracked path: the Stokes crossings pair by pair,
    then the collinearities, each in path order."""
    out = []
    for pair in (*PAIRS, None):
        series = [_event_value(pair, v) for v in traj.values]
        for n in range(1, len(series)):
            if series[n - 1] * series[n] < 0:
                out.append(
                    _Bracket(
                        pair, traj.taus[n - 1], traj.taus[n], series[n - 1], series[n],
                        traj.values[n - 1].tolist(), traj.values[n].tolist(),
                    )
                )
    return out


def _u_at(pts, t: float, b: _Bracket) -> list[complex]:
    """Labeled u's at ``t``, one tracker step (``tracking.polish``) from the
    bracket's lower end, Newton starting from the linear interpolation
    between its ``lo_vals`` and ``hi_vals`` at ``t``.

    A rejected step is retried as a tracker leg, a ``tracking.Segment`` from
    the bracket's lower end to ``t``, which halves its steps where the u's
    pass close to each other between the samples.  The leg's u's take the
    labels of the nearest values of the interpolation
    (``tracking.match_labels``), so that the row is labelled as the
    bracket's samples are: where the track's step between them swapped two
    u's that pass close to each other, the leg would otherwise carry the
    lower sample's labels to a row whose event function is compared with
    the upper one's.  When the leg fails or the match is ambiguous,
    ``LabelMatchError`` names the bracket.
    """
    w = (t - b.lo) / (b.hi - b.lo)
    guess = [lo + (hi - lo) * w for lo, hi in zip(b.lo_vals, b.hi_vals)]
    x = _x_at(pts, t)
    vals = tracking.polish(_cubic_at(x), b.lo_vals, guess)
    if vals is None:
        leg = tracking.Segment(_x_at(pts, b.lo), x)
        try:
            vals = tracking.track_family(_cubic_at, leg, b.lo_vals).final.tolist()
            vals = [vals[p] for p in tracking.match_labels(guess, vals)]
        except (ContinuationError, LabelMatchError) as err:
            what = "collinearity" if b.pair is None else f"stokes_crossing of pair {b.pair}"
            raise LabelMatchError(
                f"tracker step rejected locating the {what} "
                f"bracketed by tau in [{b.lo!r}, {b.hi!r}]: {err}"
            ) from err
    return vals


def _itp_point(lo: float, hi: float, f_lo: float, f_hi: float, width0: float, j: int) -> float:
    """Step ``j`` (0, 1, ...) of ITP (interpolate, truncate, project;
    Oliveira and Takahashi, ACM TOMS 47(1), 2020) in the bracket (lo, hi)
    of a sign change that opened at width ``width0``, with f_lo, f_hi the
    function at its ends.

    The regula-falsi point is moved towards the midpoint by
    kappa1 (hi - lo)^2, kappa1 = ``ITP_K1 / width0``, then projected to
    within r = eps 2^(n_half - j) - (hi - lo) / 2 of the midpoint, with
    eps = ``BISECTION_TOL / 2`` and n_half = ceil(log2(width0 / (2 eps))):
    whichever side holds the zero, the bracket is at most
    2 eps 2^(n_half - j - 1) wide after the step, so n_half steps, no more
    than bisection takes, narrow it to ``BISECTION_TOL``.  The radius is
    taken with eps less its share ``ITP_SLACK``, and at least 0, so that
    roundoff in the point cannot leave the last bracket a few ulps wider
    than the tolerance and cost a step more.  A point that rounds onto an
    end (a zero found at an end, where the truncation is below the spacing
    of floats) is replaced by the midpoint: a row there would not narrow
    the bracket.
    """
    eps = BISECTION_TOL / 2
    n_half = math.ceil(math.log2(width0 / (2 * eps)))
    mid = (lo + hi) / 2
    x_f = (hi * f_lo - lo * f_hi) / (f_lo - f_hi)
    delta = ITP_K1 / width0 * (hi - lo) ** 2
    sigma = math.copysign(1.0, mid - x_f)
    x_t = x_f + sigma * delta if delta <= abs(mid - x_f) else mid
    r = max(0.0, eps * (1 - ITP_SLACK) * 2.0 ** (n_half - j) - (hi - lo) / 2)
    x = x_t if abs(x_t - mid) <= r else mid - sigma * r
    return x if lo < x < hi else mid


def detect_events(x_path: list) -> tuple[tracking.Trace, list[StokesEvent]]:
    """Locate all Stokes and segment crossings along a path, in order.

    Every sign change between consecutive samples of an event function
    (``_event_value``) is narrowed to width ``BISECTION_TOL``, one bracket
    after the other, by ITP (``_itp_point``): one row a step, the labeled
    u's at the step's point taken from the bracket's lower end
    (``_u_at``), keeping the sub-interval where the function changes sign.
    On a smooth function the steps close in superlinearly, and they never
    number more than bisection's.  The u's at the bracket's centre then
    decide the event.  A Stokes crossing whose dominance is undecidable
    raises ``DominanceError``.  A collinearity is a segment crossing where
    one u projects inside the segment of the other two (``_crosser``), and
    no event otherwise.  A row the tracker cannot reach raises
    ``LabelMatchError`` naming its bracket.
    """
    pts = _path_points(x_path)
    traj = track_u(pts)
    events: list[StokesEvent] = []
    for b in _brackets(traj):
        width0, j = b.hi - b.lo, 0
        while b.hi - b.lo > BISECTION_TOL:
            t = _itp_point(b.lo, b.hi, b.f_lo, b.f_hi, width0, j)
            v = _u_at(pts, t, b)
            f = _event_value(b.pair, v)
            if b.f_lo * f <= 0:
                b.hi, b.f_hi, b.hi_vals = t, f, v
            else:
                b.lo, b.f_lo, b.lo_vals = t, f, v
            j += 1
        tau_c = (b.lo + b.hi) / 2
        v_c = _u_at(pts, tau_c, b)
        x_c = _x_at(pts, tau_c)
        if b.pair is None:
            hit = _crosser(v_c)
            if hit is not None:
                events.append(StokesEvent("segment_crossing", tau_c, x_c, hit[0], crosser=hit[1]))
            continue
        j, k = b.pair
        re_uj = v_c[j - 1].real
        re_uk = v_c[k - 1].real
        if abs(re_uj - re_uk) < 1e-9 * max(abs(v) for v in v_c):
            raise DominanceError(f"dominance undecidable for pair {b.pair} at tau={tau_c}")
        dom, rec = (j, k) if re_uj < re_uk else (k, j)
        events.append(
            StokesEvent(
                "stokes_crossing", tau_c, x_c, b.pair,
                dominant=dom, recessive=rec, im_before=1 if b.f_lo > 0 else -1,
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


# a cell's ",sign_12,sign_13,sign_23,near_turning" by its code: bits 3, 2
# and 1 set where a pair's sign is -1, bit 0 where the cell is flagged
_CSV_SUFFIXES = [
    ",{},{},{},{}".format(*(-1 if code & bit else 1 for bit in (8, 4, 2)), code & 1)
    for code in range(16)
]


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

    def csv_chunks(self):
        """The CSV text: the header line, then one chunk per grid row i
        (imaginary), its cells j (real) in order.  Coordinates are the
        ``repr`` of their ``np.linspace`` entries; a cell's signs and flag
        are one code into ``_CSV_SUFFIXES``."""
        res, (re0, re1, im0, im1) = self.resolution, self.window
        yield "i,j,x1_re,x1_im,sign_12,sign_13,sign_23,near_turning\n"
        neg = self.signs < 0
        codes = (8 * neg[0] + 4 * neg[1] + 2 * neg[2] + self.near_turning).tolist()
        cells = [None] * (2 * res)
        cells[::2] = [f",{j},{x!r}," for j, x in enumerate(np.linspace(re0, re1, res))]
        for i, (y, row) in enumerate(zip(np.linspace(im0, im1, res), codes)):
            # a cell's tail ends with the next line's row number: cut the last
            num, y = str(i), repr(y)
            tails = [f"{y}{t}\n{num}" for t in _CSV_SUFFIXES]
            cells[1::2] = map(tails.__getitem__, row)
            yield (num + "".join(cells))[: -len(num)]

    def to_csv(self) -> str:
        """The whole CSV text, the join of ``csv_chunks``."""
        return "".join(self.csv_chunks())


def raster_section(
    x2: complex,
    window: tuple[float, float, float, float],
    resolution: int,
    with_sextic: bool = False,
) -> RasterSection:
    """Sample the Stokes indicators on an x1 grid at fixed x2.

    The cubic is solved for the whole grid, ``BLOCK`` cells per vectorised
    solver batch: a 32x32 grid in one batch, the CLI's default 128x128 in
    eight.  Labels then continue from the bottom-left cell, up column 0 and
    along each row (``_label_sweep``), composed from batched matches across
    the sweep's cell edges without a Python step per row or column.  Cells
    too close to the turning locus, or whose match is ambiguous, are
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
    roots = _solve_blocks(singular_cubic_grid, x1, x2, ROOT_TOL)
    # near starts as the sweep's flags, which _edge_zero_points relies on
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


BLOCK = 2048
"""Cells (or edges) per vectorised step of a raster section; bounds the
size of the solver and edge-pass temporaries whatever the resolution.
Each batch has a fixed cost of about half a millisecond in numpy calls
whatever its size, so a block holds a whole 32x32 slice; the solver's
(N, 3, 3) complex temporaries are 0.3 MB at 2048 cubic rows."""

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
    """Roots at every cell of the (res, res) x1 grid for fixed x2, flat in
    row-major cell order, ``BLOCK`` cells per batch.

    A solver error names the grid cell (i, j) and its x1, not the row of
    its batch.  Coefficients that overflow come out not finite, which the
    solver rejects, so numpy's overflow warnings are silenced.
    """
    cells = x1.ravel()
    out = []
    for s in range(0, cells.size, BLOCK):
        with np.errstate(over="ignore", invalid="ignore"):
            coeffs = coeffs_of(cells[s : s + BLOCK], x2)
        try:
            out.append(roots_aberth_batch(coeffs, tol))
        except PearceyError as e:
            if not hasattr(e, "row"):
                raise
            k = s + e.row
            cell = tuple(int(v) for v in np.unravel_index(k, x1.shape))
            e.args = (f"cell (i, j) = {cell} at x1 = {cells[k]}: {e.detail}",)
            raise
    return np.concatenate(out)


def _label_sweep(roots: np.ndarray, x1_first: complex, x2: complex):
    """Labeled values and fallback flags for a (res, res, 3) root grid.

    Labels continue from the bottom-left cell up column 0, then along each
    row, every cell matched to its predecessor's labeled values.  The
    matches are batched: each edge of that sweep is matched once between
    raw roots (cell (0, 0) holds its ``critical_values`` row), one call for
    column 0 and one for all rows.  Nearest matching and its guard are
    equivariant under reordering the old set, so composing the edge
    permutations along the sweep gives each cell's labels.  A failed edge
    resets its cell to sorted order and flags it.

    A cell's labels are one of the six orderings of three indices, and an
    edge maps its predecessor's ordering to its own: a permutation applied
    to it, or the reset to the cell's sorted order whatever it was.  Those
    twelve maps are closed under composition (``_SWEEP_COMPOSE``), so each
    cell's labels are a prefix composition from cell (0, 0), up column 0
    and then along the cell's row, taken for all cells at once in log2(res)
    doubling steps (``_compose_prefix``), with no Python step per column or
    row.
    """
    raw = roots.copy()
    flagged = np.zeros(roots.shape[:2], dtype=bool)
    try:
        raw[0, 0] = critical_values(PlanePoint(x1_first, x2)).values
    except PearceyError:
        raw[0, 0] = np.sort(roots[0, 0])
        flagged[0, 0] = True
    guard = 1.0 + 1e-12
    col_perm, col_ok = tracking.match_labels_rows(raw[:-1, 0], raw[1:, 0], guard)
    row_perm, row_ok = tracking.match_labels_rows(raw[:, :-1], raw[:, 1:], guard)
    flagged[1:, 0] = ~col_ok
    flagged[:, 1:] = ~row_ok
    # each cell's edge map: its permutation's ordering, or 6 + its sorted
    # one where the edge failed; cell (0, 0) resets to the identity ordering,
    # so every prefix from it is a reset, to 6 + that cell's ordering
    edge = np.empty(raw.shape[:2], dtype=np.intp)
    edge[1:, 0], edge[:, 1:] = _ordering(col_perm), _ordering(row_perm)
    edge[flagged] = 6 + _ordering(np.argsort(raw[flagged], axis=-1))
    edge[0, 0] = 6
    edge[:, 0] = _compose_prefix(edge[:, 0])
    state = _compose_prefix(edge) - 6
    # labels[i, j] indexes raw[i, j], as flat indices into raw
    labels = _ORDERINGS[state] + 3 * np.arange(state.size).reshape(*state.shape, 1)
    return raw.ravel()[labels], flagged


# the six orderings of three labels, the identity first; a label array's
# ordering is its index here (``_ordering``)
_ORDERINGS = np.array([(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)])
_ORDERING_OF_CODE = np.zeros(27, dtype=np.intp)
_ORDERING_OF_CODE[_ORDERINGS @ (9, 3, 1)] = np.arange(6)


def _ordering(perm: np.ndarray) -> np.ndarray:
    """The index in ``_ORDERINGS`` of each bijective row of a (..., 3)
    permutation array (other rows give an arbitrary index)."""
    return _ORDERING_OF_CODE[9 * perm[..., 0] + 3 * perm[..., 1] + perm[..., 2]]


# the sweep's twelve edge maps on orderings: m < 6 applies the permutation
# _ORDERINGS[m] to the predecessor's labels, m >= 6 resets them to ordering
# m - 6; _SWEEP_COMPOSE[m, n] is the map "n, then m"
_PRODUCTS = _ordering(_ORDERINGS[:, _ORDERINGS])  # [m, n]: m applied to ordering n
_SWEEP_COMPOSE = np.vstack([
    np.hstack([_PRODUCTS, 6 + _PRODUCTS]),
    np.repeat(np.arange(6, 12)[:, None], 12, axis=1),
])


def _compose_prefix(maps: np.ndarray) -> np.ndarray:
    """The composition of every prefix of edge maps along the last axis:
    out[..., j] is maps[..., j] after ... after maps[..., 0], taken in
    ceil(log2(n)) doubling steps."""
    out, n, d = maps.copy(), maps.shape[-1], 1
    while d < n:
        out[..., d:] = _SWEEP_COMPOSE.ravel()[12 * out[..., d:] + out[..., :-d]]
        d *= 2
    return out


def _edge_zero_points(values: np.ndarray, near: np.ndarray, xs, ys):
    """Zero-crossing midpoints with edge-local root matching.

    Matching roots only across single cell edges sidesteps the global
    labeling obstruction (monodromy around in-window turning points), so no
    spurious seam crossings appear.  Per-pair attribution uses the stored
    grid labels of the first cell and is best-effort near the turning set.
    Horizontal edges come first, then vertical ones, each row-major.  A
    horizontal edge is one the label sweep has matched: matching its
    labeled values again succeeds exactly where its right-hand cell is not
    flagged, and gives the identity there, so only the vertical edges are
    matched, ``BLOCK`` at a time.  ``near`` must include the sweep's flags.
    """
    union: list[complex] = []
    per_pair: list[list[complex]] = [[], [], []]
    x_mid = (xs[:-1] + xs[1:]) / 2
    y_mid = (ys[:-1] + ys[1:]) / 2
    edges = (
        (values[:, :-1], values[:, 1:], near[:, :-1] | near[:, 1:], _complex_grid(x_mid, ys),
         False),
        (values[:-1], values[1:], near[:-1] | near[1:], _complex_grid(xs, y_mid), True),
    )
    for va, vb, skip, mid, rematch in edges:
        va, vb = va.reshape(-1, 3), vb.reshape(-1, 3)
        skip, mid = skip.ravel(), mid.ravel()
        for s in range(0, mid.size, BLOCK):
            a, b, keep = va[s : s + BLOCK], vb[s : s + BLOCK], ~skip[s : s + BLOCK]
            if rematch:
                perm, ok = tracking.match_labels_rows(a, b, guard_ratio=1.0 + 1e-12)
                b, keep = np.take_along_axis(b, perm, axis=-1), keep & ok
            sa, sb = _pair_im(a), _pair_im(b)
            hit = ((sa == 0.0) | (sa * sb < 0)) & keep[:, None]
            m = mid[s : s + BLOCK]
            for p in range(3):
                per_pair[p].extend(m[hit[:, p]].tolist())
            union.extend(m[hit.any(axis=1)].tolist())
    return union, per_pair


def _sextic_layer(x2: complex, x1: np.ndarray) -> np.ndarray:
    """min |Im F| over the derived sextic roots, per grid cell.

    The sextic is even in F: its even coefficients are a cubic in G = F^2,
    solved ``BLOCK`` independent cells per batch; +-sqrt(G) share |Im|.
    """
    roots = _solve_blocks(lambda x1, x2: stokes_sextic_grid(x1, x2)[:, ::2], x1, x2, 1e-10)
    return np.min(np.abs(np.sqrt(roots).imag), axis=1).reshape(x1.shape)


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
