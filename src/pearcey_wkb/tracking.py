"""Labeled root continuation along paths.

One tracker serves every continuation job in the package: characteristic
roots of the cubic along x-paths, Borel singularities from their cubic, and
the four sheets of the Borel quartic along paths in the base plane.  A path
is a sequence of pieces, and every piece is one :func:`track_family` call
over its parameter tau in [0, 1]:

* a straight :class:`Segment` starts at tau-step 0.125 and never steps more
  than ``MAX_STEP`` = 0.25; a polyline is one segment per pair of knots,
  recorded as one trace over global taus (:func:`track_polyline`), and a
  segment that must pass through given points (the Gauss nodes of a
  Laplace ray) has those points' taus as ``stops``, which its steps
  ignore: once the leg has stopped, every stop it passed is landed in one
  batched Newton polish from the two records around it
  (:func:`_land_stops`), and a stop that fails the residual test or the
  collision guard is landed by a scalar leg from the record before it;
* a circular :class:`Arc` is one piece however far it turns, its steps
  capped at ``ARC_STEP`` radians.

Each step is a predictor-corrector.  The predictor extrapolates the last
two accepted tuples of the leg linearly in tau (a secant; a leg's first
step starts from the current values), and Newton corrects the prediction
onto the polynomial at the new parameter, stopping once its correction is
at roundoff.  The collision guard then accepts or rejects the step: the
corrected values must pass a residual test, and their minimum pairwise
separation must exceed ``GUARD_RATIO`` times the largest value
displacement from the previous accepted values.  The ratio of the two,
the guard margin rho, sizes the next step: an accepted step is followed
by one ``STEP_SAFETY`` rho / ``GUARD_RATIO`` times as long (at most twice,
within the cap), a step the guard rejects is retried at that share of its
length (between a tenth and a half), and any other rejection halves it;
the share is rounded down to a multiple of 1/16, so that roundoff in the
values does not move the taus.
A family of degree n is tracked through all n of its roots, since the
guard keeps apart only the values it sees; any other number of values
raises ``ValueError``.  The correction and both tests run in one step
kernel per degree (:func:`_step_kernel`), straight-line Python generated
from one source template on first use: the polynomial, its derivative
and the residual scale are written out in Horner form on local
coefficients, and the n values are unrolled into named locals, each with
its own Newton loop, so the residual tests, the displacement, the
pairwise separation and the margin are plain expressions over them.
:func:`polish` is one such step from a prediction of the caller's; event
bisection in ``stokes`` labels its rows by it, and ``borel`` builds each
local anchor and seeds the origin-chart sheets with it.  Running out of
refinement raises ``ContinuationError`` with the path point where the
tracker gave up; the message also names the piece and where on it the
tracker stopped (``where``): the segment and the tau reached, or the arc
and the angle reached.
"""

from __future__ import annotations

from bisect import bisect_right
from cmath import exp, isfinite
from dataclasses import dataclass, field
from functools import cache
from math import floor, inf

import numpy as np

from .aberth import poly_eval_many
from .errors import ContinuationError, LabelMatchError

GUARD_RATIO = 3.0
SOLVE_GUARD_RATIO = 1.2  # label guard when relabelling a full solve by approximate values
RESIDUAL_TOL = 1e-9
MIN_STEP = 1e-11
STEP_SAFETY = 0.8  # share of the guard margin a step is sized to use
_MARGIN_GAIN = STEP_SAFETY / GUARD_RATIO
_SHARE_GRID = 16  # margins that agree to 1/16 size equal steps: roundoff moves no tau
MAX_STEP = 0.25  # tau-step cap of a straight leg; its first step is half of it
ARC_STEP = 0.1  # step cap along an arc, in radians
_NEWTON_ITERS = 12
_ROUNDOFF = 4.5e-16  # relative size of a Newton correction at roundoff, about two ulps


def _nearest(old_vals: np.ndarray, new_vals: np.ndarray):
    """Per old value: index of the nearest new value, its distance and the
    runner-up's (inf for a single value), row-wise over leading axes.

    Three new values, the raster's rows, take a sort-free path: the nearest
    and the runner-up are the minimum and the median of the three distances
    by a min/max network, and the index is the first of the minimal ones,
    as ``np.argmin`` picks it.  Distances that hold a NaN, and any other
    number of values, take the sort.
    """
    dist = np.abs(old_vals[..., :, None] - new_vals[..., None, :])
    if dist.shape[-1] == 3 and not np.isnan(dist).any():
        a, b, c = dist[..., 0], dist[..., 1], dist[..., 2]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        nearest = np.where(c < lo, 2, (b < a).astype(np.intp))
        return nearest, np.minimum(lo, c), np.maximum(lo, np.minimum(hi, c))
    ranked = np.sort(dist, axis=-1)
    second = ranked[..., 1] if ranked.shape[-1] > 1 else np.full(ranked.shape[:-1], np.inf)
    return np.argmin(dist, axis=-1), ranked[..., 0], second


def _is_bijection(perm: np.ndarray) -> np.ndarray:
    """Whether each row of ``perm`` holds every index once; three indices
    by their bits, 1 + 2 + 4."""
    if perm.shape[-1] == 3:
        return (1 << perm[..., 0]) + (1 << perm[..., 1]) + (1 << perm[..., 2]) == 7
    return (np.sort(perm, axis=-1) == np.arange(perm.shape[-1])).all(axis=-1)


def match_labels(old_vals, new_vals, guard_ratio: float = GUARD_RATIO):
    """Permutation assigning each old value its nearest new value.

    The assignment must be a bijection and each nearest match must beat the
    runner-up by ``guard_ratio``; ties raise ``LabelMatchError`` rather than
    guessing.
    """
    old_vals = np.asarray(old_vals, dtype=complex)
    perm, d1, d2 = _nearest(old_vals, np.asarray(new_vals, dtype=complex))
    ambiguous = np.flatnonzero(d2 < guard_ratio * d1)
    if ambiguous.size:
        i = ambiguous[0]
        raise LabelMatchError(
            f"ambiguous match for value {old_vals[i]}: d1={d1[i]:.3e}, d2={d2[i]:.3e}"
        )
    if not _is_bijection(perm):
        raise LabelMatchError("matching is not a bijection")
    return perm.tolist()


def match_labels_rows(old_vals, new_vals, guard_ratio: float = GUARD_RATIO):
    """:func:`match_labels` for every row of (M, n) arrays at once.

    Returns ``(perm, ok)``: ``perm[r]`` sends row r's old values to indices
    of its new values, and ``ok[r]`` is False where :func:`match_labels`
    would raise (ambiguous or not a bijection).
    """
    perm, d1, d2 = _nearest(
        np.asarray(old_vals, dtype=complex), np.asarray(new_vals, dtype=complex)
    )
    ambiguous = d2 < guard_ratio * d1
    if ambiguous.shape[-1] == 3:  # three slices beat a reduction over a short axis
        ambiguous = ambiguous[..., 0] | ambiguous[..., 1] | ambiguous[..., 2]
    else:
        ambiguous = ambiguous.any(axis=-1)
    return perm, ~ambiguous & _is_bijection(perm)


def _descending(coeffs) -> list:
    """Ascending coefficients (any sequence) -> descending list of Python
    complex."""
    return [complex(a) for a in reversed(coeffs)]


def _min_pairwise(vals) -> float:
    m = inf
    for i, a in enumerate(vals):
        for b in vals[i + 1 :]:
            m = min(m, abs(a - b))
    return m


_STEP_TEMPLATE = """
def misfit(c, vals, factor):
    {cs} = c
    {zs} = vals
{abs_lines}
{misfit_lines}
    return None


def step(c, old, guess):
    {cs} = c
    {os} = old
    {zs} = guess
{d_lines}
{newton_lines}
    if not ({finite}):
        return None, None
{abs_lines}
{residual_lines}
    disp = {disp}
{guard_lines}
"""

_NEWTON_LINES = """
    for k in range({iters}):
        p = {p}
        dp = {dp}
        if dp == 0:
            break
        s = p / dp
        {z} = {z} - s
        a = abs(s)
        r = 1.0 + abs({z})
        tol = {eps!r} * r
        if a < tol or k and (a * a * a < tol * a_prev * a_prev or a >= a_prev and a_prev * a_prev < tol * r):
            break
        a_prev = a"""

_RESIDUAL_LINES = """
    r = max(1.0, abs({z}))
    if abs({p}) > {tol!r} * ({scale}){factor}:
        return {out}"""

_GUARD_LINES = """
    sep = {sep}
    if sep < {guard!r} * disp or sep == 0.0:
        return None, sep / disp if disp else 0.0
    return [{zs}], sep / disp if disp else inf"""


def _horner_source(coeffs: list, z: str) -> str:
    """Horner's rule on the named descending coefficients, as source."""
    text = coeffs[0]
    for a in coeffs[1:]:
        text = f"({text}) * {z} + {a}"
    return text


def _fold_source(fn: str, terms: list) -> str:
    """``fn(*terms)`` as source, or the single term alone."""
    return terms[0] if len(terms) == 1 else f"{fn}({', '.join(terms)})"


@cache
def _step_kernel(n: int):
    """The tracker's step kernel for degree n, as ``(step, misfit)``.

    Both take the descending coefficients ``c`` as a list of n + 1 Python
    complex numbers and n values, one per root.  ``misfit(c, vals,
    factor)`` is the residual test: the first z of ``vals`` with |p(z)| >
    RESIDUAL_TOL * sum_k |c_k| max(1, |z|)^k * factor, or None.  ``step(c,
    old, guess)`` runs up to ``_NEWTON_ITERS`` Newton iterations from each
    value of ``guess`` and returns ``(values, rho)``: the polished values,
    or None when one is not finite, fails the residual test (factor 1) or
    the collision guard rejects them (minimum separation below
    ``GUARD_RATIO`` times the largest displacement from ``old``, or zero),
    and the guard margin rho, separation over displacement (inf for one
    value or no displacement, 0 for a zero separation), or None where the
    guard was not reached.  ``abs()`` of a finite complex beyond the float
    range raises ``OverflowError``.

    Both are straight-line code generated from one template on first use:
    the polynomial, its derivative and the residual scale are written out in
    Horner form on local coefficients, and the values are unrolled into
    named locals, each with its own copy of the Newton loop, so that the
    tests, the displacement and the pairwise separation are plain
    expressions over them with no list built or walked.  The operations and
    their order are those of one loop over the values.

    Newton stops at p' = 0 or once its correction s is at roundoff: |s| <
    ``_ROUNDOFF`` (1 + |z|); or, from the second iteration on, |s|^3 <
    ``_ROUNDOFF`` (1 + |z|) |s_prev|^2, where the quadratic model puts the
    next correction below roundoff; or |s| no smaller than a previous
    correction below sqrt(``_ROUNDOFF``) (1 + |z|), one that quadratic
    convergence would have followed with a correction at roundoff
    (stagnation at the roundoff floor).  A correction that grows while
    Newton is still far from a root does not stop it.
    """
    if n < 1:
        raise ValueError("the step kernel needs degree at least 1")
    cs = [f"c{k}" for k in range(n + 1)]
    ds = [f"d{k}" for k in range(n)]
    zs = [f"z{i}" for i in range(n)]
    scale = _horner_source([f"a{k}" for k in range(n + 1)], "r")

    def residual(z, factor, out):
        return _RESIDUAL_LINES.format(
            z=z, p=_horner_source(cs, z), tol=RESIDUAL_TOL, scale=scale, factor=factor, out=out
        )

    pairs = [f"abs({a} - {b})" for i, a in enumerate(zs) for b in zs[i + 1 :]]
    source = _STEP_TEMPLATE.format(
        cs=", ".join(cs) + ",",
        zs=", ".join(zs) + ",",
        os=", ".join(f"o{i}" for i in range(n)) + ",",
        abs_lines="\n".join(f"    a{k} = abs(c{k})" for k in range(n + 1)),
        misfit_lines="".join(residual(z, " * factor", z) for z in zs),
        d_lines="\n".join(f"    d{k} = {n - k} * c{k}" for k in range(n)),
        newton_lines="".join(
            _NEWTON_LINES.format(
                iters=_NEWTON_ITERS,
                z=z,
                p=_horner_source(cs, z),
                dp=_horner_source(ds, z),
                eps=_ROUNDOFF,
            )
            for z in zs
        ),
        finite=" and ".join(f"isfinite({z})" for z in zs),
        residual_lines="".join(residual(z, "", "None, None") for z in zs),
        disp=_fold_source("max", [f"abs(z{i} - o{i})" for i in range(n)]),
        guard_lines=_GUARD_LINES.format(
            sep=_fold_source("min", pairs), guard=GUARD_RATIO, zs=", ".join(zs) + ","
        )
        if pairs
        else "    return [z0], inf",
    )
    namespace = {"isfinite": isfinite, "inf": inf}
    exec(compile(source, f"<step kernel, degree {n}>", "exec"), namespace)
    return namespace["step"], namespace["misfit"]


def _kernel_for(c: list, vals) -> tuple:
    """The step kernel of the degree of the descending coefficients ``c``;
    ``ValueError`` unless ``vals`` holds one value per root."""
    n = len(c) - 1
    if len(vals) != n:
        raise ValueError(f"a degree-{n} family is tracked through its {n} roots, not {len(vals)}")
    return _step_kernel(n)


@dataclass
class Trace:
    """Recorded continuation of a fixed number of labeled values.

    ``values[i]`` is the tuple tracked at parameter ``taus[i]`` and base
    point ``points[i]`` (a complex number or a tuple of them, the form of
    the path's knots).
    """

    taus: list[float] = field(default_factory=list)
    points: list = field(default_factory=list)
    values: list[np.ndarray] = field(default_factory=list)

    def record(self, tau, point, vals):
        self.taus.append(float(tau))
        self.points.append(point)
        self.values.append(np.array(vals, dtype=complex))

    @property
    def final(self) -> np.ndarray:
        return self.values[-1]

    @property
    def min_separation(self) -> float:
        """Smallest pairwise distance of recorded values anywhere along the
        path; inf when each record holds a single value."""
        return min(map(_min_pairwise, self.values), default=inf)


def track_family(coeffs_at, piece, start_vals, *, trace: Trace | None = None, stops=()) -> Trace:
    """Continue labeled roots of a polynomial family along one path piece,
    tau running over [0, 1].

    Parameters
    ----------
    coeffs_at : callable
        Point of the piece -> ascending complex coefficient array of the
        family member there; called once at tau = 0, once per attempted
        step and once per stop, on ``piece.at(tau)``.
    piece : Segment or Arc
        The path piece: ``at(tau)`` is its point at tau, ``max_step`` its
        largest tau-step and ``where(tau)`` names it and tau in an error
        message.
    start_vals : sequence of complex
        Labeled roots at tau = 0, one per root of the family (``ValueError``
        otherwise); they must satisfy the tau = 0 polynomial.
    stops : sequence of float
        Ascending taus in (0, 1] the trace must land on.  They do not
        shorten the leg's steps: once the leg has stopped, every stop up to
        its last accepted tau is landed in one batch (:func:`_land_stops`).
        Each stop is recorded once, among the steps in tau order.

    Each accepted step records its tau, the point its coefficients were
    computed at and the values.  The coefficients become one descending
    list of Python complex numbers, on which the step kernel of the
    family's degree (:func:`_step_kernel`) polishes the values and tests
    them.  Newton starts from the secant through the last two accepted
    tuples of this call, evaluated at the new tau; the first step starts
    from ``start_vals``.

    The step size follows the guard margin rho = sep / disp the kernel
    reports (minimum pairwise separation over largest displacement; inf
    for one value or no displacement).  The first step is half of
    ``max_step``.  With the share g = min(2, ``STEP_SAFETY`` rho /
    ``GUARD_RATIO``) rounded down to a multiple of 1/16
    (:func:`_margin_share`), the step after an accepted step of size h is
    min(max_step, h g); after a step the collision guard rejects, the retry
    is h min(0.5, max(0.1, g)); any other rejection halves it, and a step
    below ``MIN_STEP`` ends the leg.  A ``ContinuationError``
    raised on the way, ``coeffs_at``'s own included, comes out with
    ``piece.where`` of the last accepted tau appended; the stops up to that
    tau are still recorded.
    """
    stops = [float(s) for s in stops]
    if any(not 0.0 < s <= 1.0 for s in stops) or any(
        a >= b for a, b in zip(stops[:-1], stops[1:])
    ):
        raise ValueError("stops must be ascending taus in (0, 1]")
    if trace is None:
        trace = Trace()
    leg = Trace() if stops else trace
    vals = np.asarray(start_vals, dtype=complex).tolist()
    failure = None
    try:
        here = piece.at(0.0)
        c0 = _descending(coeffs_at(here))
        misfit = _kernel_for(c0, vals)[1]
        bad = misfit(c0, vals, 10)
        if bad is not None:
            raise ContinuationError(
                f"start value {bad} does not satisfy the family at tau=0", location=here
            )
        leg.record(0.0, here, vals)
        _steps(coeffs_at, piece, leg, 1.0)
    except ContinuationError as err:
        failure = _named(err, piece, leg)
        if not stops:
            raise failure from err
    if not stops:
        return trace
    reached = set(leg.taus)
    todo = [s for s in stops if s <= leg.taus[-1] and s not in reached] if leg.taus else []
    landed, fallen = _land_stops(coeffs_at, piece, todo, leg)
    records = zip(leg.taus, leg.points, leg.values)
    if fallen is not None:  # keep what precedes the stop that could not be landed
        failure, end = fallen, todo[len(landed)]
        records = ((tau, p, v) for tau, p, v in records if tau < end)
    for tau, point, vals in sorted([*records, *landed], key=lambda r: r[0]):
        trace.record(tau, point, vals)
    if failure is not None:
        raise failure
    return trace


def _named(err: ContinuationError, piece, trace: Trace) -> ContinuationError:
    """``err`` with ``piece.where`` of the trace's last tau (0 when empty)
    appended to its message."""
    tau = trace.taus[-1] if trace.taus else 0.0
    named = ContinuationError(f"{err} ({piece.where(tau)})", location=err.location)
    named.__cause__ = err
    return named


def _steps(coeffs_at, piece, trace: Trace, end: float) -> None:
    """The step loop of :func:`track_family`: continue the trace's last
    record along ``piece`` up to tau ``end``, recording each accepted step.
    Raises a bare ``ContinuationError`` on step underflow."""
    tau, here, vals = trace.taus[-1], trace.points[-1], trace.values[-1].tolist()
    advance = _step_kernel(len(vals))[0]
    step = 0.5 * piece.max_step
    last = None  # (tau, values) of the accepted record before the current one
    while tau < end:
        target = min(end, tau + step)
        point = piece.at(target)
        c = _descending(coeffs_at(point))
        if last is None:
            guess = vals
        else:
            r = (target - tau) / (tau - last[0])
            guess = [v + (v - w) * r for v, w in zip(vals, last[1])]
        try:
            new_vals, rho = advance(c, vals, guess)
        except OverflowError:  # abs() of a finite complex beyond the float range
            new_vals = rho = None
        h = target - tau
        if new_vals is not None:
            last = (tau, vals)
            tau, here, vals = target, point, new_vals
            trace.record(tau, here, vals)
            step = min(piece.max_step, h * _margin_share(rho))
        else:
            step = h * (0.5 if rho is None else min(0.5, max(0.1, _margin_share(rho))))
            if step < MIN_STEP:
                raise ContinuationError(
                    "near-discriminant passage: step underflow during tracking", location=here
                )


def _margin_share(rho: float) -> float:
    """``STEP_SAFETY`` rho / ``GUARD_RATIO``, at most 2, rounded down to a
    multiple of 1 / ``_SHARE_GRID``: a step size is then a function of the
    accept/reject decisions and of the margins to that grid, so values that
    differ by roundoff give the same taus (unless a margin falls within
    roundoff of a grid point)."""
    return floor(_SHARE_GRID * min(2.0, _MARGIN_GAIN * rho)) / _SHARE_GRID


def _newton_polish(c: np.ndarray, dc: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Newton on the values ``z`` of the rows ``c`` (ascending; ``dc`` their
    derivatives), each value stopped by the step kernel's rule and cap
    (:func:`_step_kernel`), so that a batch lands where scalar steps land."""
    live, a_prev = np.ones(z.shape, dtype=bool), np.zeros(z.shape)
    with np.errstate(all="ignore"):
        for k in range(_NEWTON_ITERS):
            p, dp = poly_eval_many(c, z), poly_eval_many(dc, z)
            live &= dp != 0
            s = np.divide(p, dp, out=np.zeros_like(p), where=live)
            z, a = z - s, np.abs(s)
            r = 1.0 + np.abs(z)
            tol = _ROUNDOFF * r
            done = a < tol
            if k:
                done |= (a * a * a < tol * a_prev**2) | (a >= a_prev) & (a_prev**2 < tol * r)
            live &= ~done
            if not live.any():
                break
            a_prev = a
    return z


def _land_stops(coeffs_at, piece, stops: list, leg: Trace) -> tuple[list, ContinuationError | None]:
    """Land a leg's ``stops`` (ascending taus inside its recorded span, none
    of them a record's tau) in one batch.

    ``coeffs_at`` is called once per stop point.  Newton starts from the
    linear interpolation of the two records that bracket the stop, and the
    rows are polished together by :func:`_newton_polish`, which stops each
    value as a step stops it.  A stop's values must then be finite, pass
    the step kernel's residual test and pass the collision guard measured
    from the earlier bracketing record;
    a stop that fails is landed by :func:`_fallback` from that record.
    Returns ``(records, failure)``: ``(tau, point, values)`` per stop in
    order, and None, or the records before the first stop whose fallback
    failed and its ``ContinuationError``.
    """
    if not stops:
        return [], None
    lo = [bisect_right(leg.taus, s) - 1 for s in stops]
    points = [piece.at(s) for s in stops]
    c = np.array([coeffs_at(p) for p in points], dtype=complex)
    start = np.array([leg.values[i] for i in lo])
    w = np.array([(s - leg.taus[i]) / (leg.taus[i + 1] - leg.taus[i]) for s, i in zip(stops, lo)])
    guess = start + (np.array([leg.values[i + 1] for i in lo]) - start) * w[:, None]
    n = c.shape[1] - 1
    z = _newton_polish(c, c[:, 1:] * np.arange(1, n + 1), guess)
    with np.errstate(all="ignore"):
        scale = poly_eval_many(np.abs(c), np.maximum(1.0, np.abs(z)))
        ok = (np.abs(poly_eval_many(c, z)) <= RESIDUAL_TOL * scale).all(axis=1)
        ok &= np.isfinite(z).all(axis=1) & np.isfinite(scale).all(axis=1)
        if n > 1:
            i, j = np.triu_indices(n, 1)
            sep = np.abs(z[:, i] - z[:, j]).min(axis=1)
            ok &= (sep >= GUARD_RATIO * np.abs(z - start).max(axis=1)) & (sep != 0.0)
    records = []
    for k, (tau, point) in enumerate(zip(stops, points)):
        vals = z[k]
        if not ok[k]:
            i = lo[k]
            try:
                vals = _fallback(coeffs_at, piece, (leg.taus[i], leg.points[i], leg.values[i]), tau)
            except ContinuationError as err:
                return records, err
        records.append((tau, point, vals))
    return records, None


def _fallback(coeffs_at, piece, record: tuple, end: float) -> np.ndarray:
    """A stop landed by a scalar leg of steps on ``piece`` from ``record``
    (tau, point, values) to tau ``end``; a failure names the tau reached."""
    sub = Trace()
    sub.record(*record)
    try:
        _steps(coeffs_at, piece, sub, end)
    except ContinuationError as err:
        raise _named(err, piece, sub) from err
    return sub.final


def track_polyline(coeffs_at, knots, start_vals) -> Trace:
    """Track through a polyline of base points, one :class:`Segment` per
    pair of consecutive knots, into one trace.

    Knots are complex numbers or tuples of them, as for :class:`Segment`;
    ``coeffs_at`` maps a point in the knots' form to ascending
    coefficients.  The trace's taus are global: a record at tau on segment
    i of n (counting from 0) has tau (i + tau) / n.  Each inner knot is
    recorded once, by the end record of the segment before it.  A single
    knot gives a trace of ``start_vals`` alone, unchecked.
    """
    knots = [tuple(map(complex, k)) if isinstance(k, tuple) else complex(k) for k in knots]
    if not knots:
        raise ContinuationError("path needs at least 1 vertex")
    trace = Trace()
    if len(knots) == 1:
        trace.record(0.0, knots[0], start_vals)
        return trace
    vals, n = start_vals, len(knots) - 1
    for i, (a, b) in enumerate(zip(knots[:-1], knots[1:])):
        leg = track_family(coeffs_at, Segment(a, b, i + 1, n), vals)
        first = min(i, 1)  # knot a is the previous segment's end record
        trace.taus += [(i + tau) / n for tau in leg.taus[first:]]
        trace.points += leg.points[first:]
        trace.values += leg.values[first:]
        vals = leg.final
    return trace


def _knot_text(knot) -> str:
    """A knot as text, each coordinate to 6 significant digits."""
    if isinstance(knot, tuple):
        return "(" + ", ".join(f"{c:.6g}" for c in knot) + ")"
    return f"{knot:.6g}"


@dataclass(frozen=True)
class Segment:
    """The straight piece from knot ``a`` to knot ``b``, segment ``index`` of
    the ``count`` segments of its polyline.

    A knot is either a complex number (a point of the s- or x1-plane) or a
    tuple of complex coordinates (a point of the (x1, x2) or (s, t) plane);
    both knots have the same form.
    """

    a: complex | tuple
    b: complex | tuple
    index: int = 1
    count: int = 1

    max_step = MAX_STEP

    def at(self, tau: float):
        """The point ``a + (b - a) * tau``, coordinate by coordinate."""
        if isinstance(self.a, tuple):
            return tuple(p + (q - p) * tau for p, q in zip(self.a, self.b))
        return self.a + (self.b - self.a) * tau

    def where(self, tau: float) -> str:
        """The segment and tau, as an error message names them."""
        return (
            f"segment {self.index} of {self.count}, from {_knot_text(self.a)} "
            f"to {_knot_text(self.b)}, at tau {tau:.6g}"
        )


@dataclass(frozen=True)
class Arc:
    """The circular arc center + radius e^(i theta), theta running from
    ``theta0`` to ``theta1`` (counterclockwise when theta1 > theta0)."""

    center: complex
    radius: float
    theta0: float
    theta1: float

    def angle(self, tau: float) -> float:
        """theta0 + (theta1 - theta0) tau, exactly theta0 and theta1 at the
        ends so that arcs meeting at one angle share the point."""
        return (1.0 - tau) * self.theta0 + tau * self.theta1

    def at(self, tau: float) -> complex:
        """The point at parameter tau in [0, 1]."""
        return self.center + self.radius * exp(1j * self.angle(tau))

    def where(self, tau: float) -> str:
        """The arc and the angle at tau, as an error message names them."""
        return (
            f"arc about {self.center:.6g} of radius {self.radius:.6g}, "
            f"at angle {self.angle(tau):.6g}"
        )

    @property
    def start(self) -> complex:
        return self.at(0.0)

    @property
    def end(self) -> complex:
        return self.at(1.0)

    @property
    def max_step(self) -> float:
        """Tau-step cap: ``ARC_STEP`` radians, at most ``MAX_STEP``."""
        span = abs(self.theta1 - self.theta0)
        return MAX_STEP if span * MAX_STEP <= ARC_STEP else ARC_STEP / span


def polish(coeffs, old, guess):
    """One tracker step from the labeled values ``old`` onto the polynomial
    with ascending ``coeffs``, Newton starting from ``guess`` (a prediction
    of the new values, in the order of ``old``; both lists of Python
    complex).

    ``old`` holds one value per root (``ValueError`` otherwise).  Returns
    the polished values as a list of Python complex numbers, or None where
    ``track_family`` would reject the step (a value not finite, a failed
    residual test, the collision guard measured from ``old``, or a value
    beyond the float range).
    """
    c = _descending(coeffs)
    step = _kernel_for(c, old)[0]
    try:
        return step(c, old, guess)[0]
    except OverflowError:
        return None


def solve_and_match(coeffs, approx_vals):
    """Solve the polynomial fully and relabel to match approximate values.

    No library code calls it: origin seeding is one :func:`polish` step.  It
    stays while the benchmark tracer (``perfbench/tracer.py``) binds it by
    name.
    """
    roots = np.roots(np.asarray(coeffs, dtype=complex)[::-1])
    perm = match_labels(approx_vals, roots, guard_ratio=SOLVE_GUARD_RATIO)
    return np.array([roots[p] for p in perm])
