"""The tracker's step loop against its numpy-scalar reference.

Each family is recorded leg by leg from a real library call, every leg one
path piece (a ``Segment`` or an ``Arc``); then every leg is replayed
through ``tracking.track_family`` and through the reference loop in
``oracles``, with the piece's own step cap and stops: the tau sequence
and the accept/reject counts must be the same, and the tracked values,
stops included, must agree to 1e-13 relative.  The monodromy loop is
one arc leg among them, and a Laplace ray landing on its 196 nodes
another.  On random families, every accepted step has a guard margin of
at least ``GUARD_RATIO``, and each step is the one the margin rule sizes
from the step before (its share rounded down to a multiple of 1/16): at
most twice it (within the cap) after an accept, at most half after a
guard rejection, half after any other; a degree-1 family still tracks.  On
random families whose roots stay apart, the secant-predicted tracker ends
where the reference loop ends, to 1e-12; tracking fewer values than the
degree raises ``ValueError``, and they are tracked as part of the full
tuple.  The generated step kernel of each degree polishes onto distinct
roots of its polynomial, computed at 30 digits by mpmath, and
start-checks bit for bit as the scalar Horner-loop helpers it replaced
(kept in ``oracles``), on random polynomials of degree 1 to 6 from starts
near the roots; it accepts or rejects as they do there and on each kind
of rejection, and reports the guard margin.  ``polish`` gives the same
bits from a numpy coefficient row of ``singular_cubic_grid`` as from the
row's list of Python complex.

With ``stops``, a Laplace ray of the z-quartic is tracked as one leg
whose steps ignore the stops, each Gauss node then landed once in one
batch; the values there match a replay one node-to-node leg at a time.
The batch accepts or rejects each stop as the scalar helpers do from the
same record and Newton start, with their values to 1e-13; a stop whose
batch row is forced to fail, and only that stop, is landed by the scalar
fallback leg.

Every straight Borel-plane stretch is one tracker leg: one through a sheet
node, where two g-sheets cross but the z-roots stay apart, arrives at the
sheets of a route round the node, to 1e-12, at t = 0.1 and at t = 0, where
the nodes merge.  At chart points (|t| <= 0.2)
with random y, anchors, evaluations, cut values and monodromy raise
nothing, each monodromy is a transposition (ell 4), and the plain jump
identity holds to 1e-6.  An arc that cannot be passed names itself and
the angle reached in the error, a segment its endpoints and the tau
reached; a segment's point at tau is ``a + (b - a) * tau`` bit for bit.

Properties of ``track_polyline`` on (x1, x2) knots of the characteristic
cubic, over polylines that stay clear of the turning locus: its one trace
is the segments' own legs, bit for bit, on global taus that ascend and
record each knot once; a path and its reverse give back the start labels,
midpoints leave the final values unchanged, and a single knot gives back
the start values.

Label matching of three values takes a sort-free path: on rows drawn from
a small lattice, so that values repeat and distances tie exactly, it gives
the nearest index, both distances and the verdict bit for bit as the
sort-based matcher it replaced (kept in ``oracles``), under the raster's
guard ``1 + 1e-12`` and the tracker's 3.0; four values still take the sort.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from oracles import (
    StepUnderflow,
    from_roots,
    mp_polyroots,
    scalar_misfit,
    scalar_step,
    sort_match_labels_rows,
    track_family_numpy,
)
from pearcey_wkb import borel, tracking
from pearcey_wkb.borel import SheetField, monodromy, psi_borel_eval
from pearcey_wkb.errors import ContinuationError, LabelMatchError
from pearcey_wkb.geometry import (
    PlanePoint,
    char_cubic_coeffs,
    char_trace,
    labeling_path,
    singular_cubic_grid,
)
from pearcey_wkb.quadrature import _gk_nodes
from pearcey_wkb.stokes import PAPER_POLYLINE, track_u


def _recorded_legs(monkeypatch, run):
    legs = []
    real = tracking.track_family

    def recorder(coeffs_at, piece, start_vals, stops=(), **kw):
        legs.append((coeffs_at, piece, np.array(start_vals, dtype=complex), list(stops)))
        return real(coeffs_at, piece, start_vals, stops=stops, **kw)

    monkeypatch.setattr(tracking, "track_family", recorder)
    run()
    monkeypatch.undo()
    return legs


def _replay(monkeypatch, coeffs_at, piece, start, stops):
    """The library's leg: its taus and values, steps and stops merged, and
    its accepted and rejected steps, the stops it landed not counted."""
    calls, landed = [0], [0]
    land = tracking._land_stops

    def counted(point):
        calls[0] += 1
        return coeffs_at(point)

    def landing(coeffs_at, piece, stops, leg):
        landed[0] += len(stops)
        return land(coeffs_at, piece, stops, leg)

    monkeypatch.setattr(tracking, "_land_stops", landing)
    try:
        trace = tracking.track_family(counted, piece, start, stops=stops)
    except ContinuationError:
        return None
    finally:
        monkeypatch.undo()
    accepted = len(trace.taus) - 1 - landed[0]
    return trace.taus, trace.values, accepted, calls[0] - 1 - landed[0] - accepted


def _reference(coeffs_at, piece, start, stops):
    try:
        return track_family_numpy(
            lambda tau: coeffs_at(piece.at(tau)), start, max_step=piece.max_step, stops=stops
        )
    except StepUnderflow:
        return None


# the unit segment: its point at tau is tau itself, for families written in tau
UNIT = tracking.Segment(0.0, 1.0)


@dataclass(frozen=True)
class _Family:
    run: object  # the library call, given what ``setup`` returns if there is one
    straight: int  # least number of straight legs
    arcs: int = 0  # arc legs
    turns: int = 0  # full-turn arcs among them
    stopped: int = 0  # legs with stops
    setup: object = None  # called before the legs are recorded


FAMILIES = {
    # the straight leg from the seed to the loop's base point, then the loop
    "st_quartic_monodromy_loop": _Family(lambda: monodromy(1, PlanePoint(1.0, 0.0)), 1, 1, 1),
    "char_cubic_default_provenance": _Family(
        lambda: char_trace(labeling_path(PlanePoint(-0.8 + 0.02j, 0.3 - 0.1j))), 3
    ),
    "u_cubic_paper_polyline": _Family(lambda: track_u(PAPER_POLYLINE), len(PAPER_POLYLINE) - 1),
    # one pass of a Laplace ray, landing on its 196 Gauss-Kronrod nodes
    "st_quartic_laplace_ray": _Family(
        lambda ray: _ray_trace(*ray), 1, stopped=1, setup=lambda: _laplace_ray()
    ),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_steps_match_numpy_reference(family, monkeypatch):
    spec = FAMILIES[family]
    run = spec.run if spec.setup is None else functools.partial(spec.run, spec.setup())
    legs = _recorded_legs(monkeypatch, run)
    arcs = [piece for _, piece, _, _ in legs if isinstance(piece, tracking.Arc)]
    assert len(legs) - len(arcs) >= spec.straight
    assert len(arcs) == spec.arcs
    turns = [arc.theta1 - arc.theta0 == pytest.approx(2 * np.pi, rel=1e-15) for arc in arcs]
    assert sum(turns) == spec.turns
    assert sum(bool(stops) for *_, stops in legs) == spec.stopped
    accepted_total = 0
    for coeffs_at, piece, start, stops in legs:
        got = _replay(monkeypatch, coeffs_at, piece, start, stops)
        want = _reference(coeffs_at, piece, start, stops)
        assert (got is None) == (want is None)
        if got is None:
            continue
        taus, values, accepted, rejected = got
        assert taus == want[0]
        assert (accepted, rejected) == (want[2], want[3])
        for v, w in zip(values, want[1]):
            assert np.abs(v - w).max() <= 1e-13 * np.abs(w).max()
        accepted_total += accepted
    assert accepted_total >= 5 * len(legs)


def test_track_family_keyword_is_trace_only():
    def coeffs_fn(t):
        return np.array([-(1 + t), 0, 1], dtype=complex)

    for knob in ({"guard_ratio": 2.0}, {"max_step": 0.1}, {"point_fn": lambda t: t}):
        with pytest.raises(TypeError):
            tracking.track_family(coeffs_fn, UNIT, [1.0, -1.0], **knob)
    trace = tracking.Trace()
    out = tracking.track_family(coeffs_fn, UNIT, [1.0, -1.0], trace=trace)
    assert out is trace
    assert np.allclose(trace.final, [np.sqrt(2), -np.sqrt(2)], atol=1e-14)
    assert trace.min_separation == pytest.approx(2.0)
    # one value per record: no pair to measure
    single = tracking.track_family(lambda t: np.array([-t, 1.0]), UNIT, [0.0])
    assert single.min_separation == np.inf
    # three segments in one trace, each knot recorded once at its global tau:
    # the minimum over every record of every leg
    legs = char_trace(labeling_path(PlanePoint(-0.8 + 0.02j, 0.3 - 0.1j)))
    assert [legs.taus.count(i / 3) for i in range(4)] == [1, 1, 1, 1]
    want = min(abs(a - b) for v in legs.values for a, b in itertools.combinations(v, 2))
    assert legs.min_separation == want


def test_values_beyond_float_range_stop_tracking():
    # the root of z - a*t leaves the float range near t = 0.9: |a t| overflows
    # in abs(), which must end in ContinuationError rather than OverflowError
    a = 1.4e308 * (1 + 1j)

    def coeffs_fn(t):
        return np.array([-a * t, 1.0], dtype=complex)

    with pytest.raises(ContinuationError):
        tracking.track_family(coeffs_fn, UNIT, [0.0])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_final_values_match_numpy_reference(seed, degree):
    # roots on random quadratic curves r0 + v t + w t^2 that stay 0.05 apart:
    # the secant-predicted tracker ends where the reference loop, Newton
    # from the previous values, ends
    rng = np.random.default_rng(seed)
    r0, v, w = (rng.normal(size=degree) + 1j * rng.normal(size=degree) for _ in range(3))
    lead = complex(*rng.normal(size=2))
    ts = np.linspace(0.0, 1.0, 201)[:, None]
    curves = r0 + v * ts + w * ts**2
    assume(all(np.abs(curves[:, i] - curves[:, j]).min() > 0.05
               for i, j in itertools.combinations(range(degree), 2)))

    def coeffs_fn(t):
        return from_roots(r0 + v * t + w * t * t, lead)

    want = track_family_numpy(coeffs_fn, r0)[1][-1]
    got = tracking.track_family(coeffs_fn, UNIT, r0).final
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.floats(0.0, 1.0))
def test_steps_are_sized_by_the_guard_margin(seed, degree, spread):
    # roots on random quadratic curves, pressed together by ``spread`` so
    # that some legs meet the guard or fail: every accepted step has margin
    # rho >= GUARD_RATIO; the first step is half the cap, and with the share
    # g = min(2, 0.8 rho / 3) rounded down to a multiple of 1/16, each next
    # step is min(cap, h g) after an accept (at most twice the step, within
    # the cap), h min(0.5, max(0.1, g)) after a guard rejection (at most
    # half) and h / 2 after any other rejection
    rng = np.random.default_rng(seed)
    r0, v, w = (rng.normal(size=degree) + 1j * rng.normal(size=degree) for _ in range(3))
    r0 = r0 * spread
    lead = complex(*rng.normal(size=2))
    targets, outcomes = [], []
    kernel = tracking._step_kernel

    def recording(n):
        step, misfit = kernel(n)

        def recorded(c, old, guess):
            out = step(c, old, guess)
            outcomes.append(out)
            return out

        return recorded, misfit

    def coeffs_fn(t):
        targets.append(t)
        return from_roots(r0 + v * t + w * t * t, lead)

    tracking._step_kernel = recording
    try:
        trace = tracking.track_family(coeffs_fn, UNIT, r0)
    except ContinuationError:
        trace = None
    finally:
        tracking._step_kernel = kernel
    if degree == 1:  # no pairs: every step doubles, and the leg ends on the root
        assert trace is not None and all(rho == np.inf for _, rho in outcomes)
        assert abs(trace.final[0] - (r0 + v + w)[0]) <= 1e-12 * max(1.0, abs(trace.final[0]))
    cap, tau, rule = tracking.MAX_STEP, 0.0, 0.5 * tracking.MAX_STEP
    assert len(outcomes) == len(targets) - 1
    for target, (vals, rho) in zip(targets[1:], outcomes):
        h = target - tau
        assert h == pytest.approx(min(rule, 1.0 - tau), rel=1e-9, abs=1e-15)
        gain = None
        if rho is not None:
            share = min(2.0, tracking.STEP_SAFETY / tracking.GUARD_RATIO * rho)
            gain = math.floor(16 * share) / 16
            assert share - 1 / 16 < gain <= share
        if vals is not None:
            assert rho >= tracking.GUARD_RATIO
            tau, rule = target, min(cap, h * gain)
            assert rule <= min(cap, 2 * h)
        elif rho is not None:
            rule = h * min(0.5, max(0.1, gain))
            assert rule <= 0.5 * h
        else:
            rule = 0.5 * h
    assert (trace is None) == (tau < 1.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.data())
def test_tracking_fewer_values_than_the_degree(seed, degree, data):
    # the guard keeps apart only the values it sees, so a leg follows every
    # root of its family: a few of the roots are refused before any step is
    # taken, and are tracked as part of the full tuple, through the kernel of
    # the degree alone, ending where the reference loop on that tuple ends
    rng = np.random.default_rng(seed)
    r0, v, w = (rng.normal(size=degree) + 1j * rng.normal(size=degree) for _ in range(3))
    r0 = 1.5 * np.exp(2j * np.pi * np.arange(degree) / degree) + 0.1 * r0
    v, w = 0.1 * v, 0.1 * w
    lead = complex(*rng.normal(size=2))
    keep = data.draw(st.lists(st.integers(0, degree - 1), min_size=1, max_size=degree - 1,
                              unique=True))

    def coeffs_fn(t):
        return from_roots(r0 + v * t + w * t * t, lead)

    kernel, keys = tracking._step_kernel, set()
    tracking._step_kernel = lambda n: keys.add(n) or kernel(n)
    try:
        with pytest.raises(ValueError, match=f"degree-{degree} family"):
            tracking.track_family(coeffs_fn, UNIT, r0[keep])
        assert keys == set()
        got = tracking.track_family(coeffs_fn, UNIT, r0).final[keep]
    finally:
        tracking._step_kernel = kernel
    assert keys == {degree}
    want = track_family_numpy(coeffs_fn, r0)[1][-1][keep]
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_newton_starts_from_the_secant_prediction(monkeypatch):
    # a leg's first attempt starts Newton from the start values; every later
    # one from the secant through the last two accepted records, evaluated
    # at the attempted tau, while the guard still measures from the record
    seen = []
    kernel = tracking._step_kernel

    def recording(n):
        step, misfit = kernel(n)

        def recorded(c, old, guess):
            seen.append((list(old), list(guess)))
            return step(c, old, guess)

        return recorded, misfit

    targets = []

    def coeffs_fn(t):
        targets.append(t)
        return from_roots([1 + t + t * t, -1 - 2j * t, 3j - t], 1.0)

    monkeypatch.setattr(tracking, "_step_kernel", recording)
    trace = tracking.track_family(coeffs_fn, UNIT, [1.0, -1.0, 3j])
    assert len(seen) == len(targets) - 1 >= 5
    for (old, guess), target in zip(seen, targets[1:]):
        i = next(i for i, v in enumerate(trace.values) if v.tolist() == old)
        if i == 0:
            assert guess == old
            continue
        tau, prev = trace.taus[i], trace.values[i - 1]
        want = old + (old - prev) * (target - tau) / (tau - trace.taus[i - 1])
        assert np.abs(np.array(guess) - want).max() <= 1e-15 * np.abs(want).max()


def test_step_kernel_starts_from_the_guess_and_guards_from_old():
    # z^2 - 1 from old values near +-1: Newton from the old values accepts
    # them at +-1; from the swapped guess it lands on the swapped roots, and
    # the guard, measuring from the old values, rejects the swap
    step, _ = tracking._step_kernel(2)
    c = [1 + 0j, 0j, -1 + 0j]
    old = [1.3 + 0j, -1.3 + 0j]
    assert step(c, old, old) == ([1.0, -1.0], pytest.approx(2.0 / 0.3, rel=1e-15))
    # the guard's margin, separation 2 over displacement 2.3, comes with the rejection
    assert step(c, old, [-1.0 + 0j, 1.0 + 0j]) == (None, pytest.approx(2.0 / 2.3, rel=1e-15))
    assert step(c, old, [1.01 + 0j, -1.01 + 0j])[0] == [1.0, -1.0]


# -- the generated step kernel: 30-digit roots and the scalar helpers' decisions --


def _outcome(fn, *args):
    """``fn(*args)``, or "overflow" where abs() of a finite complex overflows."""
    try:
        return fn(*args)
    except OverflowError:
        return "overflow"


def _assert_on_distinct_roots(c, vals):
    """Each value lies within 1e-14 max(1, |z|), plus its root's roundoff
    floor, of a root of c at 30 digits, no two values on the same root."""
    roots = mp_polyroots(c)
    nearest = [min(range(len(roots)), key=lambda k: abs(z - roots[k][0])) for z in vals]
    assert len(set(nearest)) == len(vals)
    for z, k in zip(vals, nearest):
        r, floor = roots[k]
        assert abs(z - r) <= 1e-14 * max(1.0, abs(z)) + floor, (z, r, floor)


def _assert_step(c, old):
    """The degree's kernel, Newton starting from ``old``, accepts or rejects
    as the scalar helpers do, its accepted values lie on distinct roots
    (``_assert_on_distinct_roots``), and it start-checks (factors 1 and 10)
    as the helpers do, bit for bit; returns the helpers' polished values and
    decision, or "overflow"."""
    step, misfit = tracking._step_kernel(len(c) - 1)
    got = _outcome(lambda *args: step(*args)[0], c, old, old)
    want = _outcome(scalar_step, c, old)
    if want == "overflow":
        assert got == "overflow"
    elif want[1]:
        assert got is not None
        _assert_on_distinct_roots(c, got)
    else:
        assert got is None
    for factor in (1, 10):
        assert repr(_outcome(misfit, c, old, factor)) == repr(
            _outcome(scalar_misfit, c, old, factor)
        )
    return want


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.floats(-14.0, 0.0))
# a Newton correction grows on the second iteration far from the root: a
# stagnation stop there would end a polish the helpers finish
@example(846834528, 5, -1.3421774825891166)
@example(947574232, 6, -0.7742394019821432)
@example(4022823784, 6, -0.6557164725574545)
def test_step_kernel_matches_scalar_helpers(seed, degree, log_noise):
    # start values near the roots of a random polynomial: small noise is
    # polished and accepted, large noise ends in collisions or misfits.  The
    # kernel accepts or rejects as the helpers do, an accepted step lands on
    # distinct roots, and the start check is the helpers', bit for bit
    rng = np.random.default_rng(seed)
    roots = rng.normal(size=degree) + 1j * rng.normal(size=degree)
    lead = complex(*rng.normal(size=2))
    c = tracking._descending(from_roots(roots, lead))
    noise = rng.normal(size=degree) + 1j * rng.normal(size=degree)
    _assert_step(c, (roots + 10.0**log_noise * noise).tolist())


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.floats(-14.0, 0.0), st.data())
def test_step_kernel_on_fewer_values_matches_scalar_helpers(seed, degree, log_noise, data):
    # starts near some of the roots: ``polish`` refuses them alone, and the
    # degree's kernel, given them with the other roots as the remaining
    # starts, accepts or rejects and start-checks as the helpers do
    rng = np.random.default_rng(seed)
    roots = rng.normal(size=degree) + 1j * rng.normal(size=degree)
    lead = complex(*rng.normal(size=2))
    coeffs = from_roots(roots, lead)
    keep = data.draw(st.lists(st.integers(0, degree - 1), min_size=1, max_size=degree - 1,
                              unique=True))
    starts = roots.copy()
    starts[keep] += 10.0**log_noise * (rng.normal(size=len(keep)) + 1j * rng.normal(size=len(keep)))
    few = starts[keep].tolist()
    with pytest.raises(ValueError, match=f"degree-{degree} family"):
        tracking.polish(coeffs, few, few)
    _assert_step(tracking._descending(coeffs), starts.tolist())


def test_step_kernel_rejects_as_scalar_helpers():
    inf, nan = float("inf"), float("nan")
    # accepted: start values near the roots +-1 and 2j
    c = tracking._descending(from_roots([1.0, -1.0, 2j], 0.5 - 1j))
    new, ok = _assert_step(c, [1.0 + 1e-6j, -1.0 - 1e-7, 2j + 1e-8])
    assert ok
    # a value that is not finite after the polish
    c = [1 + 0j, 0j, -1 + 0j]
    new, ok = _assert_step(c, [complex(inf, 0.0), -1 + 0j])
    assert not ok and not all(map(np.isfinite, new))
    # a failed residual test: Newton on z^2 + 1 from real starts stays real
    c = [1 + 0j, 0j, 1 + 0j]
    new, ok = _assert_step(c, [0.5 + 0j, -0.5 + 0j])
    assert not ok and all(map(np.isfinite, new))
    assert scalar_misfit(c, new, 1) is not None
    # a collision: both roots of z^2 - z found, but sep 1 < 3 * disp 0.4
    c = [1 + 0j, -1 + 0j, 0j]
    old = [0j, 0.6 + 0j]
    new, ok = _assert_step(c, old)
    sep = abs(new[0] - new[1])
    disp = max(abs(a - b) for a, b in zip(new, old))
    assert not ok and scalar_misfit(c, new, 1) is None
    assert 0.0 < sep < tracking.GUARD_RATIO * disp
    # both starts polish onto the root 1: zero separation
    new, ok = _assert_step([1 + 0j, 0j, -1 + 0j], [0.9 + 0j, 1.1 + 0j])
    assert not ok and new[0] == new[1]
    # coefficients near 1e300 whose root lies beyond the float range: abs()
    # of the polished value overflows
    c = [1e-8 + 0j, -1.3e300 * (1 + 1j)]
    assert _assert_step(c, [1.2e308 * (1 + 1j)]) == "overflow"
    # a NaN coefficient: every value polishes to NaN
    new, ok = _assert_step([1 + 0j, complex(nan, 0.0), 1 + 0j], [0.5j, -0.5j])
    assert not ok


def test_polish_of_a_numpy_row_equals_polish_of_its_list():
    # rows of singular_cubic_grid at the quarter points between consecutive
    # samples of the paper polyline's track, Newton from the samples'
    # interpolation: the values come out as Python complex with the bits
    # they have from the row's list of Python complex, and a rejected step
    # is rejected from both
    traj = track_u(PAPER_POLYLINE)
    calls = []
    for a, b, va, vb in zip(traj.points[:-1], traj.points[1:], traj.values[:-1], traj.values[1:]):
        for w in (0.25, 0.5, 0.75):
            x1, x2 = (p + (q - p) * w for p, q in zip(a, b))
            calls.append((singular_cubic_grid(x1, x2), va.tolist(), (va + (vb - va) * w).tolist()))
    coeffs, old, _ = calls[0]
    calls.append((coeffs, old, old[::-1]))  # Newton onto swapped labels: the guard rejects
    outcomes = []
    for coeffs, old, guess in calls:
        assert type(coeffs) is np.ndarray
        got = tracking.polish(coeffs, old, guess)
        want = tracking.polish(coeffs.tolist(), old, guess)
        outcomes.append(got is None)
        assert (got is None) == (want is None)
        if got is not None:
            assert all(type(z) is complex for z in got)
            assert np.array(got).view(np.uint64).tolist() == np.array(want).view(np.uint64).tolist()
    assert len(calls) >= 100 and outcomes[-1] and not all(outcomes)


# -- stops: a Laplace ray as one leg landing on every Kronrod node --------------


def _laplace_ray(ell=3, x=PlanePoint(1.0, 0.1), eta=10.0, npanels=4):
    """The field, the sheets at the ray's start u + w_mid^2, the end y and
    the taus of one 49-node Gauss-Kronrod pass, as ``laplace_borel_sum``
    sets them."""
    field = SheetField(x)
    u = field.u_vals[ell - 1]
    w_mid = np.sqrt(min(0.12 * field.min_sep, 38.0 / eta / 2))
    edges = np.linspace(w_mid, np.sqrt(38.0 / eta), npanels + 1)
    xs, _, _ = _gk_nodes()
    w = np.concatenate([(lo + hi) / 2 + (hi - lo) / 2 * xs for lo, hi in zip(edges, edges[1:])])
    y0, y1 = u + w_mid**2, u + w[-1] ** 2
    near = u + (w_mid / 4) ** 2
    start = field.track_from(field.local_sheets(ell, near), [near, y0])
    taus = ((w**2 - w_mid**2) / (w[-1] ** 2 - w_mid**2)).tolist()
    return field, start, y0, y1, taus


def _ray_trace(field, start, y0, y1, stops):
    ray = tracking.Segment(y0, y1)
    return tracking.track_family(field.coeffs_at, ray, start, stops=stops)


def test_each_stop_is_recorded_once():
    field, start, y0, y1, taus = _laplace_ray()
    assert taus[-1] == 1.0
    trace = _ray_trace(field, start, y0, y1, taus)
    assert all(trace.taus.count(tau) == 1 for tau in taus)
    assert all(p < q for p, q in zip(trace.taus, trace.taus[1:]))
    # plain step taus (0.125, 0.375, ...) as stops are still recorded once
    grid = [0.125, 0.375, 0.5, 0.5 + 1e-9, 1.0]
    trace = _ray_trace(field, start, y0, y1, grid)
    assert all(trace.taus.count(tau) == 1 for tau in grid)


def test_stops_must_ascend_inside_the_unit_interval():
    def coeffs_fn(t):
        return np.array([-(1 + t), 0, 1], dtype=complex)

    for bad in ([0.0, 0.5], [0.5, 0.5], [0.7, 0.2], [0.5, 1.5]):
        with pytest.raises(ValueError):
            tracking.track_family(coeffs_fn, UNIT, [1.0, -1.0], stops=bad)


def test_stop_values_match_node_by_node_legs():
    field, start, y0, y1, taus = _laplace_ray()
    trace = _ray_trace(field, start, y0, y1, taus)
    at_stop = dict(zip(trace.taus, trace.values))
    vals, prev = start, y0
    for tau in taus:
        point = y0 + (y1 - y0) * tau
        vals = tracking.track_polyline(field.coeffs_at, [prev, point], vals).final
        prev = point
        assert np.abs(at_stop[tau] - vals).max() <= 1e-13 * np.abs(vals).max()
    assert field.track_stops(start, y0, y1, taus)[-1].tolist() == trace.final.tolist()


def _bracketed(leg, taus):
    """Per stop tau that is no record's: the index of the record before it
    and Newton's start, the records' linear interpolation at tau."""
    out = []
    for tau in taus:
        if tau in leg.taus:
            continue
        i = max(k for k, t in enumerate(leg.taus) if t < tau)
        w = (tau - leg.taus[i]) / (leg.taus[i + 1] - leg.taus[i])
        out.append((tau, i, leg.values[i] + (leg.values[i + 1] - leg.values[i]) * w))
    return out


def _fallbacks(monkeypatch):
    """The taus ``tracking._fallback`` lands, in call order."""
    seen, real = [], tracking._fallback

    def recorded(coeffs_at, piece, record, end):
        seen.append(end)
        return real(coeffs_at, piece, record, end)

    monkeypatch.setattr(tracking, "_fallback", recorded)
    return seen


@pytest.mark.parametrize("swapped", [None, 1, 2])
def test_batched_landing_decides_as_the_scalar_helpers(swapped, monkeypatch):
    # the ray's own steps, with the labels of one later record swapped (so
    # that Newton starts for the stops before it lean onto swapped roots):
    # each stop is accepted or rejected as the scalar helpers decide from
    # the same record and start, and an accepted stop has their values
    field, start, y0, y1, taus = _laplace_ray()
    ray = tracking.Segment(y0, y1)
    leg = tracking.track_family(field.coeffs_at, ray, start)
    if swapped is not None:
        leg.values[swapped] = leg.values[swapped][[1, 0, 2, 3]]
    stops = _bracketed(leg, taus)
    fallen = _fallbacks(monkeypatch)
    landed, failure = tracking._land_stops(field.coeffs_at, ray, [t for t, _, _ in stops], leg)
    assert failure is None and [r[0] for r in landed] == [t for t, _, _ in stops]
    decisions = []
    for (tau, i, guess), (_, point, vals) in zip(stops, landed):
        assert point == ray.at(tau)
        c = tracking._descending(field.coeffs_at(point))
        want, ok = scalar_step(c, leg.values[i].tolist(), guess.tolist())
        decisions.append(ok)
        assert (tau in fallen) == (not ok)
        if ok:
            assert np.abs(vals - want).max() <= 1e-13 * np.abs(want).max()
    assert all(decisions) == (swapped is None)
    assert any(decisions)


def test_one_rejected_stop_alone_takes_the_scalar_fallback(monkeypatch):
    field, start, y0, y1, taus = _laplace_ray()
    want = _ray_trace(field, start, y0, y1, taus)
    polish = tracking._newton_polish
    forced = 37  # the batch row of this stop comes back with two labels swapped

    def swapping(c, dc, z):
        out = polish(c, dc, z)
        out[forced] = out[forced][[1, 0, 2, 3]]
        return out

    monkeypatch.setattr(tracking, "_newton_polish", swapping)
    fallen = _fallbacks(monkeypatch)
    got = _ray_trace(field, start, y0, y1, taus)
    assert fallen == [taus[forced]]
    assert got.taus == want.taus
    for g, w in zip(got.values, want.values):
        assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()


# -- straight stretches: one leg each, through a node too -----------------------


def test_stretch_clear_of_the_nodes_is_one_leg(monkeypatch):
    # in z two sheets meet only at the u_ell, so every straight stretch is
    # one leg: one through the node (t^2 + 2t)/4, where two g-sheets cross
    # (at t = 0 all three nodes sit at the origin), included; it reaches the
    # sheets of a route round the node's other side
    real_track, legs = tracking.track_family, []

    def recorded(coeffs_at, piece, start_vals, **kw):
        legs.append(piece)
        return real_track(coeffs_at, piece, start_vals, **kw)

    for x2 in (0.1, 0.0):
        field = SheetField(PlanePoint(1.0, x2))
        t = field.t
        node = (t * t + 2 * t) / 4 * field.c**4
        a, b = node - 0.3, node + 0.3
        start = field.track_y_polyline([a])
        legs.clear()
        with monkeypatch.context() as m:
            m.setattr(tracking, "track_family", recorded)
            got = field.track_from(start, [a, b])
        assert [(leg.a, leg.b) for leg in legs] == [(a, b)]
        want = field.track_from(start, [a, node - 0.05j, b])
        assert np.abs(field.g(got) - field.g(want)).max() <= 1e-12 * np.abs(field.g(want)).max()


@settings(max_examples=60, deadline=None)
@given(
    st.floats(0.8, 1.2), st.floats(0.0, 0.2), st.floats(0.0, 1.0),
    st.floats(0.0, 0.9), st.floats(0.0, 1.0), st.integers(1, 3), st.integers(1, 2),
)
@example(1.0, 0.0322, 0.0, 0.3, 0.0, 3, 1)  # the seed leg would run into a node
@example(1.0, 0.07, 0.0, 0.3, 0.0, 1, 2)  # verify's jump sample: a route through a node
@example(1.0, 0.0, 0.0, 0.25, 0.0, 1, 1)  # t = 0: a route through the merged nodes
@example(1.0, 0.0078125, 0.0, 0.75, 0.0, 1, 1)  # real t and y: y on u_3's cut
def test_chart_points_route_every_borel_call(x1, t_abs, t_turn, s_abs, s_turn, ell, shift):
    # chart points, |t| <= 0.2, and y anywhere with |s| < 0.9 but next to a
    # singularity: every call reaches its point, the monodromy
    # around u_ell is the transposition (ell 4), and criterion 5's plain
    # jump identity u_ell -> u_k holds to 1e-6
    t = t_abs * np.exp(2j * np.pi * t_turn)
    x = PlanePoint(x1, t * x1 ** (2 / 3))
    field = SheetField(x)
    # |t| = 0.2 can round to just above borel.T_VALIDITY
    assume(field.chart_validated)
    y = s_abs * np.exp(2j * np.pi * s_turn) * field.c**4
    assume(min(abs(y - u) for u in field.u_vals) > 0.05 * field.min_sep)
    field.anchor(ell)
    assert np.isfinite(psi_borel_eval(ell, x, y).value)
    assert borel.cycle_notation(monodromy(ell, x)) == f"({ell} 4)"
    k = (ell + shift - 1) % 3 + 1
    y_cut = field.u_vals[k - 1] + 0.25 * field.min_sep
    jump = borel.discontinuity("plain", ell, k, field, y_cut).value
    rhs = (-1) ** ell * borel.psi_on_cut(field, k, y_cut)
    assert abs(jump - rhs) <= 1e-6 * abs(rhs)


# -- arcs: one leg per circle -------------------------------------------------


def test_arc_failure_names_the_arc_and_angle():
    # z^2 = p - 1: the two roots meet at p = 1, angle 0 of the unit circle
    arc = tracking.Arc(0j, 1.0, -np.pi / 2, np.pi / 2)
    root = np.sqrt(arc.start - 1)
    with pytest.raises(ContinuationError) as err:
        tracking.track_family(lambda p: [1 - p, 0, 1], arc, [root, -root])
    message = str(err.value)
    assert "arc about 0+0j of radius 1," in message
    angle = float(message.rsplit("at angle ", 1)[1].rstrip(")"))
    assert abs(angle) < 1e-3
    assert abs(err.value.location - np.exp(1j * angle)) < 1e-12


@pytest.mark.parametrize(
    "segment, coeffs_at, text",
    [
        # complex knots, as a bow's straight legs
        (tracking.Segment(-1 + 0j, 3 + 0j), lambda p: [1 - p, 0, 1], "from -1+0j to 3+0j"),
        # (x1, x2) knots, as the event bracketing's retried rows
        (tracking.Segment((-1 + 0j, 0.5j), (3 + 0j, 0.5j)), lambda p: [1 - p[0], 0, 1],
         "from (-1+0j, 0+0.5j) to (3+0j, 0+0.5j)"),
    ],
    ids=["complex", "tuple"],
)
def test_segment_failure_names_its_endpoints_and_tau(segment, coeffs_at, text):
    # z^2 = p - 1 along p from -1 to 3: the two roots meet at p = 1, tau 0.5
    root = 1j * np.sqrt(2.0)
    with pytest.raises(ContinuationError) as err:
        tracking.track_family(coeffs_at, segment, [root, -root])
    message = str(err.value)
    assert f"(segment 1 of 1, {text}, at tau " in message
    tau = float(message.rsplit("at tau ", 1)[1].rstrip(")"))
    assert 0.49 < tau <= 0.5
    got, want = err.value.location, segment.at(tau)
    assert type(got) is type(want)
    assert np.abs(np.subtract(got, want)).max() < 1e-5


def _bits(z):
    return (z.real.hex(), z.imag.hex())


_finite = st.floats(-1e6, 1e6, allow_subnormal=False)
_z = st.builds(complex, _finite, _finite)


@settings(max_examples=200, deadline=None)
@given(_z, _z, _z, _z, st.floats(0.0, 1.0))
def test_segment_point_is_the_lerp_expression(a, b, c, d, tau):
    # bit for bit a + (b - a) * tau, coordinate by coordinate for tuple knots
    assert _bits(tracking.Segment(a, b).at(tau)) == _bits(a + (b - a) * tau)
    got = tracking.Segment((a, c), (b, d)).at(tau)
    assert list(map(_bits, got)) == [_bits(a + (b - a) * tau), _bits(c + (d - c) * tau)]


# -- track_polyline on (x1, x2) knots of the characteristic cubic ---------------


def _char_coeffs(p):
    return char_cubic_coeffs(PlanePoint(*p))


def _clear_of_turning_locus(a, b, guard=0.08):
    """labeling_path's test: the relative turning measure
    |27 x1^2 + 8 x2^3| / max(27 s1^2, 8 s2^3, 1) stays above ``guard`` at
    65 samples of the segment."""
    s1 = max(abs(a[0]), abs(b[0]))
    s2 = max(abs(a[1]), abs(b[1]))
    ts = np.linspace(0.0, 1.0, 65)
    x1 = a[0] + (b[0] - a[0]) * ts
    x2 = a[1] + (b[1] - a[1]) * ts
    measure = np.abs(27 * x1**2 + 8 * x2**3) / max(27 * s1**2, 8 * s2**3, 1.0)
    return measure.min() > guard


_part = st.floats(-1.5, 1.5, allow_subnormal=False)
_coord = st.builds(complex, _part, _part)
_knot = st.tuples(_coord, _coord)


def _start_roots(knot):
    return np.roots(_char_coeffs(knot)[::-1])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(_knot, min_size=2, max_size=4))
def test_reverse_path_returns_start_labels(knots):
    assume(all(_clear_of_turning_locus(a, b) for a, b in zip(knots[:-1], knots[1:])))
    start = _start_roots(knots[0])
    there = tracking.track_polyline(_char_coeffs, knots, start)
    back = tracking.track_polyline(_char_coeffs, knots[::-1], there.final)
    assert tracking.match_labels(back.final, start) == [0, 1, 2]
    assert np.abs(back.final - start).max() <= 1e-12 * max(1.0, np.abs(start).max())


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(_knot, min_size=2, max_size=4))
def test_midpoints_leave_final_values_unchanged(knots):
    assume(all(_clear_of_turning_locus(a, b) for a, b in zip(knots[:-1], knots[1:])))
    refined = [knots[0]]
    for a, b in zip(knots[:-1], knots[1:]):
        refined += [tuple((p + q) / 2 for p, q in zip(a, b)), b]
    start = _start_roots(knots[0])
    coarse = tracking.track_polyline(_char_coeffs, knots, start).final
    fine = tracking.track_polyline(_char_coeffs, refined, start).final
    assert np.abs(fine - coarse).max() <= 1e-12 * max(1.0, np.abs(coarse).max())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(_knot, min_size=2, max_size=5))
def test_polyline_is_its_segment_legs_on_global_taus(knots):
    assume(all(_clear_of_turning_locus(a, b) for a, b in zip(knots[:-1], knots[1:])))
    start = _start_roots(knots[0])
    trace = tracking.track_polyline(_char_coeffs, knots, start)
    n, vals, legs = len(knots) - 1, start, []
    for i, (a, b) in enumerate(zip(knots[:-1], knots[1:])):
        legs.append(tracking.track_family(_char_coeffs, tracking.Segment(a, b, i + 1, n), vals))
        vals = legs[-1].final
    # the start, then every record of each leg after its own start, bit for bit
    assert trace.taus == [0.0] + [(i + t) / n for i, leg in enumerate(legs) for t in leg.taus[1:]]
    assert trace.points == [legs[0].points[0]] + [p for leg in legs for p in leg.points[1:]]
    want = [legs[0].values[0]] + [v for leg in legs for v in leg.values[1:]]
    assert np.array(trace.values).view(np.uint64).tolist() == np.array(want).view(np.uint64).tolist()
    assert all(p < q for p, q in zip(trace.taus, trace.taus[1:]))
    for j, knot in enumerate(knots):
        assert trace.taus.count(j / n) == 1
        point = trace.points[trace.taus.index(j / n)]
        assert np.abs(np.subtract(point, knot)).max() <= 1e-14


@settings(max_examples=20, deadline=None, derandomize=True)
@given(_knot)
def test_single_knot_returns_start_values(knot):
    start = _start_roots(knot)
    trace = tracking.track_polyline(_char_coeffs, [knot], start)
    assert trace.taus == [0.0]
    assert trace.points == [knot]
    assert np.array_equal(trace.final, start)


# -- label matching ---------------------------------------------------------------


# lattice points repeat values and tie distances exactly; a few off-lattice
# values, an infinite and a NaN one reach the other branches
_lattice = st.builds(complex, st.integers(-2, 2), st.integers(-2, 2))
_value = st.one_of(
    _lattice, _lattice, _lattice, _z,
    st.sampled_from([complex(np.inf, 0.0), complex(np.nan, 0.0)]),
)


def _old_and_new(n):
    """1 to 6 rows of n old and n new values, as two complex arrays."""
    def rows(m):
        row = st.lists(_value, min_size=n, max_size=n)
        return st.lists(row, min_size=m, max_size=m).map(lambda r: np.array(r, dtype=complex))
    return st.integers(1, 6).flatmap(lambda m: st.tuples(rows(m), rows(m)))


def _sorts(monkeypatch):
    calls = []
    real = np.sort
    monkeypatch.setattr(np, "sort", lambda *a, **kw: calls.append(1) or real(*a, **kw))
    return calls


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf
@pytest.mark.parametrize("guard", [1.0 + 1e-12, tracking.GUARD_RATIO])
@settings(max_examples=200, deadline=None, derandomize=True)
@given(values=_old_and_new(3))
def test_three_value_match_equals_the_sort(guard, values):
    old, new = values
    perm, ok = tracking.match_labels_rows(old, new, guard)
    want_perm, d1, d2, want_ok = sort_match_labels_rows(old, new, guard)
    got_perm, got_d1, got_d2 = tracking._nearest(old, new)
    assert perm.dtype == want_perm.dtype and np.array_equal(perm, want_perm)
    assert np.array_equal(got_perm, want_perm)
    assert got_d1.tobytes() == d1.tobytes() and got_d2.tobytes() == d2.tobytes()
    assert np.array_equal(ok, want_ok)
    # one row at a time: match_labels raises exactly where ok is False
    for r in range(len(old)):
        try:
            got = tracking.match_labels(old[r], new[r], guard)
        except LabelMatchError:
            assert not want_ok[r]
        else:
            assert want_ok[r] and got == want_perm[r].tolist()


@pytest.mark.parametrize(
    "old, new",
    [
        # exact ties: each old value halfway between two new ones
        ([0, 2, 4j], [1, 1, 2 + 4j]),
        ([1, 1j, -1], [0, 0, 0]),  # every distance equal, a duplicate new value
        ([1, 2, 3], [3, 2, 1]),  # exact matches, reversed
        ([0, 1, 2], [0.5, 1.5, 2.5 + 1e-9]),
    ],
)
@pytest.mark.parametrize("guard", [1.0 + 1e-12, tracking.GUARD_RATIO])
def test_three_value_ties_take_the_fast_path(old, new, guard, monkeypatch):
    old, new = np.array([old], dtype=complex), np.array([new], dtype=complex)
    want_perm, d1, d2, want_ok = sort_match_labels_rows(old, new, guard)
    sorts = _sorts(monkeypatch)
    perm, ok = tracking.match_labels_rows(old, new, guard)
    got_perm, got_d1, got_d2 = tracking._nearest(old, new)
    assert sorts == []
    assert np.array_equal(perm, want_perm) and np.array_equal(ok, want_ok)
    assert got_d1.tobytes() == d1.tobytes() and got_d2.tobytes() == d2.tobytes()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@settings(max_examples=100, deadline=None, derandomize=True)
@given(values=_old_and_new(4))
def test_four_values_take_the_sort(values):
    old, new = values
    want_perm, d1, d2, want_ok = sort_match_labels_rows(old, new, tracking.GUARD_RATIO)
    with pytest.MonkeyPatch.context() as mp:
        sorts = _sorts(mp)
        perm, ok = tracking.match_labels_rows(old, new, tracking.GUARD_RATIO)
    # one sort of the distances, one of the permutation for the bijection test
    assert len(sorts) == 2
    assert np.array_equal(perm, want_perm) and np.array_equal(ok, want_ok)
