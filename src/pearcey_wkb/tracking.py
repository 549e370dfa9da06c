"""Labeled root continuation along paths.

One tracker serves every continuation job in the package: characteristic
roots of the cubic along x-paths, Borel singularities from their cubic, and
the four sheets of the Borel quartic along paths in the base plane.  Every
leg of a path is one :func:`track_family` call over tau in [0, 1]:

* a straight leg, one per segment of a polyline (:func:`track_polyline`),
  starts at tau-step 0.125 and never steps more than ``MAX_STEP`` = 0.25;
  a leg that must pass through given points (the Gauss nodes of a Laplace
  ray) has those points' taus as ``stops``, each step that would pass the
  next stop being shortened to land on it;
* a circular :class:`Arc` is one leg however far it turns
  (:func:`track_arc`), its steps capped at ``ARC_STEP`` radians.

There is no predictor: each step Newton-corrects the previous values onto
the polynomial at the new parameter.  The collision guard then accepts or
halves the step: the corrected values must pass a residual test, and their
minimum pairwise separation must exceed ``GUARD_RATIO`` times the largest
value displacement in the step.  Running out of refinement raises
``ContinuationError`` with the path point where the tracker gave up; on an
arc the message also names the arc and the angle reached.
"""

from __future__ import annotations

from cmath import exp, isfinite, phase
from dataclasses import dataclass, field
from math import inf

import numpy as np

from .aberth import roots_aberth
from .errors import ContinuationError, LabelMatchError

GUARD_RATIO = 3.0
SOLVE_GUARD_RATIO = 1.2  # label guard when relabelling a full solve by approximate values
RESIDUAL_TOL = 1e-9
MIN_STEP = 1e-11
MAX_STEP = 0.25  # tau-step cap of a straight leg; its first step is half of it
ARC_STEP = 0.1  # step cap along an arc, in radians
_NEWTON_ITERS = 12


def _nearest(old_vals: np.ndarray, new_vals: np.ndarray):
    """Per old value: index of the nearest new value, its distance and the
    runner-up's (inf for a single value), row-wise over leading axes."""
    dist = np.abs(old_vals[..., :, None] - new_vals[..., None, :])
    ranked = np.sort(dist, axis=-1)
    second = ranked[..., 1] if ranked.shape[-1] > 1 else np.full(ranked.shape[:-1], np.inf)
    return np.argmin(dist, axis=-1), ranked[..., 0], second


def _is_bijection(perm: np.ndarray) -> np.ndarray:
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
    ok = ~(d2 < guard_ratio * d1).any(axis=-1) & _is_bijection(perm)
    return perm, ok


def _descending(coeffs) -> list:
    """Ascending coefficients (any sequence) -> descending list of Python
    complex."""
    return [complex(a) for a in reversed(coeffs)]


def _horner(c: list, z):
    """Value at z of the polynomial with descending coefficients ``c``."""
    acc = c[0]
    for a in c[1:]:
        acc = acc * z + a
    return acc


def _newton_polish(c: list, dc: list, z: complex) -> complex:
    """Newton iterations from z on descending coefficients c, dc = c'."""
    for _ in range(_NEWTON_ITERS):
        p = _horner(c, z)
        dp = _horner(dc, z)
        if dp == 0:
            break
        step = p / dp
        z = z - step
        if abs(step) < 1e-16 * (1.0 + abs(z)):
            break
    return z


def _residual_scale(abs_c: list, z: complex) -> float:
    """sum_k |c_k| max(1, |z|)^k from the descending moduli ``abs_c``."""
    return _horner(abs_c, max(1.0, abs(z)))


def _min_pairwise(vals) -> float:
    m = inf
    for i, a in enumerate(vals):
        for b in vals[i + 1 :]:
            m = min(m, abs(a - b))
    return m


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


def track_family(
    coeffs_fn,
    point_fn,
    start_vals,
    *,
    trace: Trace | None = None,
    stops=(),
    max_step: float = MAX_STEP,
) -> Trace:
    """Continue labeled roots of a polynomial family over tau in [0, 1].

    Parameters
    ----------
    coeffs_fn : callable
        tau -> ascending complex coefficient array of the family member;
        called once at tau = 0 and once per attempted step.
    point_fn : callable
        tau -> base-plane point (diagnostics only).
    start_vals : sequence of complex
        Labeled roots at tau = 0; they must satisfy the tau = 0 polynomial.
    stops : sequence of float
        Ascending taus in (0, 1] the trace must land on: a step that would
        pass the next stop is shortened to end on it, and a rejected
        shortened step halves its own length.  Each stop is recorded once,
        like any accepted step.
    max_step : float
        Largest tau-step; the first step is half of it, each accepted step
        doubles the next up to it and each rejected step halves it.

    Each step's coefficients become one descending list of Python complex
    numbers, so the Newton polish and the acceptance test run on scalars.
    """
    stops = [float(s) for s in stops]
    if any(not 0.0 < s <= 1.0 for s in stops) or any(
        a >= b for a, b in zip(stops[:-1], stops[1:])
    ):
        raise ValueError("stops must be ascending taus in (0, 1]")
    vals = np.asarray(start_vals, dtype=complex).tolist()
    c0 = _descending(coeffs_fn(0.0))
    abs_c0 = [abs(a) for a in c0]
    for z in vals:
        if abs(_horner(c0, z)) > RESIDUAL_TOL * _residual_scale(abs_c0, z) * 10:
            raise ContinuationError(
                f"start value {z} does not satisfy the family at tau=0",
                location=point_fn(0.0),
            )
    if trace is None:
        trace = Trace()
    trace.record(0.0, point_fn(0.0), vals)

    next_stop = 0
    tau = 0.0
    step = 0.5 * max_step
    while tau < 1.0:
        target = min(1.0, tau + step)
        at_stop = next_stop < len(stops) and target >= stops[next_stop]
        if at_stop:
            target = stops[next_stop]
        c = _descending(coeffs_fn(target))
        n = len(c) - 1
        dc = [(n - k) * a for k, a in enumerate(c[:-1])]
        try:
            new_vals = [_newton_polish(c, dc, z) for z in vals]
            ok = _accept(c, vals, new_vals)
        except OverflowError:  # abs() of a finite complex beyond the float range
            ok = False
        if ok:
            tau = target
            vals = new_vals
            trace.record(tau, point_fn(tau), vals)
            step = min(2 * step, max_step)
            next_stop += at_stop
        else:
            step = 0.5 * (target - tau if at_stop else step)
            if step < MIN_STEP:
                raise ContinuationError(
                    "near-discriminant passage: step underflow during tracking",
                    location=point_fn(tau),
                )
    return trace


def _accept(c: list, old_vals: list, new_vals: list) -> bool:
    """Residual test and collision guard on descending coefficients ``c``."""
    if not all(isfinite(z) for z in new_vals):
        return False
    abs_c = [abs(a) for a in c]
    for z in new_vals:
        if abs(_horner(c, z)) > RESIDUAL_TOL * _residual_scale(abs_c, z):
            return False
    disp = max(abs(a - b) for a, b in zip(new_vals, old_vals))
    if len(new_vals) > 1:
        sep = _min_pairwise(new_vals)
        if sep < GUARD_RATIO * disp or sep == 0.0:
            return False
    return True


def track_polyline(coeffs_at_point, knots, start_vals, *, trace=None) -> Trace:
    """Track through a polyline of base points, one ``track_family`` leg per
    segment.

    A knot is either a complex number (a point of the s- or x1-plane) or a
    tuple of complex coordinates (a point of the (x1, x2) or (s, t) plane);
    all knots of a path have the same form.  The point at parameter tau of
    the segment from a to b is ``a + (b - a) * tau``, coordinate by
    coordinate, and ``coeffs_at_point`` maps such a point, in the knots'
    form, to ascending coefficients.  Every leg starts with a tau = 0
    record, so the records of leg i follow its i-th tau = 0 record.  A
    single knot gives a trace of ``start_vals`` alone, unchecked.
    """
    knots = [tuple(map(complex, k)) if isinstance(k, tuple) else complex(k) for k in knots]
    if not knots:
        raise ContinuationError("path needs at least 1 vertex")
    if len(knots) == 1:
        trace = Trace() if trace is None else trace
        trace.record(0.0, knots[0], start_vals)
        return trace
    vals = start_vals
    for a, b in zip(knots[:-1], knots[1:]):
        def point_fn(t, a=a, b=b):
            return _lerp(a, b, t)

        def coeffs_fn(t, a=a, b=b):
            return coeffs_at_point(_lerp(a, b, t))

        trace = track_family(coeffs_fn, point_fn, vals, trace=trace)
        vals = trace.final
    return trace


def _lerp(a, b, t):
    """The point at parameter t of the segment from knot a to knot b."""
    if isinstance(a, tuple):
        return tuple(p + (q - p) * t for p, q in zip(a, b))
    return a + (b - a) * t


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

    def part(self, tau0: float, tau1: float) -> Arc:
        """The stretch from parameter tau0 to tau1."""
        return Arc(self.center, self.radius, self.angle(tau0), self.angle(tau1))

    def scaled(self, factor: complex) -> Arc:
        """The image arc under z -> factor * z."""
        turn = phase(factor)
        return Arc(
            self.center * factor, self.radius * abs(factor), self.theta0 + turn, self.theta1 + turn
        )


def track_arc(coeffs_at_point, arc: Arc, start_vals, *, trace: Trace | None = None) -> Trace:
    """Track along ``arc`` as one ``track_family`` leg, steps capped at
    ``ARC_STEP`` radians.

    ``coeffs_at_point`` maps a complex point to ascending coefficients.  A
    ``ContinuationError`` names the arc's centre and radius and the angle
    of the last accepted step.
    """
    trace = Trace() if trace is None else trace
    first = len(trace.taus)
    try:
        return track_family(
            lambda tau: coeffs_at_point(arc.at(tau)),
            arc.at,
            start_vals,
            trace=trace,
            max_step=arc.max_step,
        )
    except ContinuationError as err:
        theta = arc.angle(trace.taus[-1]) if len(trace.taus) > first else arc.theta0
        raise ContinuationError(
            f"{err} (arc about {arc.center:.6g} of radius {arc.radius:.6g}, "
            f"at angle {theta:.6g})",
            location=err.location,
        ) from err


def solve_and_match(coeffs, approx_vals):
    """Solve the polynomial fully and relabel to match approximate values."""
    roots = roots_aberth(coeffs)
    perm = match_labels(approx_vals, roots, guard_ratio=SOLVE_GUARD_RATIO)
    return np.array([roots[p] for p in perm])
