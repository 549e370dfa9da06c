"""The tracker's step loop against its numpy-scalar reference.

Each family is recorded leg by leg from a real library call, then every leg
is replayed through ``tracking.track_family`` and through the reference loop
in ``oracles``, with the leg's own step cap: the tau sequence and the
accept/reject counts must be the same, and the tracked values must agree to
1e-13 relative.  The monodromy loop is one arc leg among them.

With ``stops``, a Laplace ray of the Borel quartic is tracked as one leg
that lands once on every Gauss node; the values there match a replay one
node-to-node leg at a time, and a failure forced mid-ray falls back to the
bowed leg for one stretch and still yields every node.  A failure forced
mid-arc bows the chord of one stretch of the arc and arrives at the
unforced sheets; an arc that cannot be passed names itself in the error.

Properties of ``track_polyline`` on (x1, x2) knots of the characteristic
cubic, over polylines that stay clear of the turning locus: a path and its
reverse give back the start labels, midpoints leave the final values
unchanged, and a single knot gives back the start values.
"""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import StepUnderflow, track_family_numpy
from pearcey_wkb import borel, tracking
from pearcey_wkb.borel import SheetField, monodromy
from pearcey_wkb.errors import ContinuationError
from pearcey_wkb.geometry import PlanePoint, char_cubic_coeffs, char_trace, labeling_path
from pearcey_wkb.quadrature import _gk_nodes
from pearcey_wkb.stokes import PAPER_POLYLINE, track_u


def _recorded_legs(monkeypatch, run):
    legs = []
    real = tracking.track_family

    def recorder(coeffs_fn, point_fn, start_vals, **kw):
        cap = kw.get("max_step", tracking.MAX_STEP)
        legs.append((coeffs_fn, point_fn, np.array(start_vals, dtype=complex), cap))
        return real(coeffs_fn, point_fn, start_vals, **kw)

    monkeypatch.setattr(tracking, "track_family", recorder)
    run()
    monkeypatch.undo()
    return legs


def _replay(coeffs_fn, point_fn, start, cap):
    calls = [0]

    def counted(tau):
        calls[0] += 1
        return coeffs_fn(tau)

    try:
        trace = tracking.track_family(counted, point_fn, start, stops=(), max_step=cap)
    except ContinuationError:
        return None
    accepted = len(trace.taus) - 1
    return trace.taus, trace.values, accepted, calls[0] - 1 - accepted


def _reference(coeffs_fn, start, cap):
    try:
        return track_family_numpy(coeffs_fn, start, max_step=cap)
    except StepUnderflow:
        return None


# family -> (library call, least number of straight legs, full-turn arc legs)
FAMILIES = {
    # the straight leg from the seed to the loop's base point, then the loop
    "st_quartic_monodromy_loop": (lambda: monodromy(1, PlanePoint(1.0, 0.0)), 1, 1),
    "char_cubic_default_provenance": (
        lambda: char_trace(labeling_path(PlanePoint(-0.8 + 0.02j, 0.3 - 0.1j))), 3, 0
    ),
    "u_cubic_paper_polyline": (lambda: track_u(PAPER_POLYLINE), len(PAPER_POLYLINE) - 1, 0),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_steps_match_numpy_reference(family, monkeypatch):
    run, straight, loops = FAMILIES[family]
    legs = _recorded_legs(monkeypatch, run)
    arcs = [getattr(leg[1], "__self__", None) for leg in legs]
    arcs = [arc for arc in arcs if isinstance(arc, tracking.Arc)]
    assert len(legs) - len(arcs) >= straight
    assert len(arcs) == loops
    for arc in arcs:
        assert arc.theta1 - arc.theta0 == pytest.approx(2 * np.pi, rel=1e-15)
    accepted_total = 0
    for coeffs_fn, point_fn, start, cap in legs:
        got = _replay(coeffs_fn, point_fn, start, cap)
        want = _reference(coeffs_fn, start, cap)
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

    with pytest.raises(TypeError):
        tracking.track_family(coeffs_fn, lambda t: t, [1.0, -1.0], guard_ratio=2.0)
    trace = tracking.Trace()
    out = tracking.track_family(coeffs_fn, lambda t: t, [1.0, -1.0], trace=trace)
    assert out is trace
    assert np.allclose(trace.final, [np.sqrt(2), -np.sqrt(2)], atol=1e-14)
    assert trace.min_separation == pytest.approx(2.0)
    # one value per record: no pair to measure
    single = tracking.track_family(lambda t: np.array([-t, 1.0]), lambda t: t, [0.0])
    assert single.min_separation == np.inf
    # many legs: the minimum over every record of every leg
    legs = char_trace(labeling_path(PlanePoint(-0.8 + 0.02j, 0.3 - 0.1j)))
    assert legs.taus.count(0.0) == 3
    want = min(abs(a - b) for v in legs.values for a, b in itertools.combinations(v, 2))
    assert legs.min_separation == want


def test_values_beyond_float_range_stop_tracking():
    # the root of z - a*t leaves the float range near t = 0.9: |a t| overflows
    # in abs(), which must end in ContinuationError rather than OverflowError
    a = 1.4e308 * (1 + 1j)

    def coeffs_fn(t):
        return np.array([-a * t, 1.0], dtype=complex)

    with pytest.raises(ContinuationError):
        tracking.track_family(coeffs_fn, lambda t: t, [0.0])


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
    a, sheets = field.anchor(ell)
    start = field.track_from(sheets, [a, y0])
    taus = ((w**2 - w_mid**2) / (w[-1] ** 2 - w_mid**2)).tolist()
    return field, start, y0, y1, taus


def _ray_trace(field, start, y0, y1, stops):
    a, b = field.s_of_y(y0), field.s_of_y(y1)
    return tracking.track_family(
        lambda r: field.spec.coeffs(a + (b - a) * r, field.t),
        lambda r: a + (b - a) * r,
        start,
        stops=stops,
    )


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
            tracking.track_family(coeffs_fn, lambda t: t, [1.0, -1.0], stops=bad)


def test_stop_values_match_node_by_node_legs():
    field, start, y0, y1, taus = _laplace_ray()
    trace = _ray_trace(field, start, y0, y1, taus)
    at_stop = dict(zip(trace.taus, trace.values))
    a, b = field.s_of_y(y0), field.s_of_y(y1)
    vals, prev = start, a
    for tau in taus:
        point = a + (b - a) * tau
        vals = tracking.track_polyline(
            lambda s: field.spec.coeffs(s, field.t), [prev, point], vals
        ).final
        prev = point
        assert np.abs(at_stop[tau] - vals).max() <= 1e-13 * np.abs(vals).max()
    assert field.track_stops(start, y0, y1, taus)[-1].tolist() == trace.final.tolist()


@pytest.mark.parametrize("fail_after", [0, 5])
def test_failure_mid_ray_bows_one_stretch_and_returns_every_node(fail_after, monkeypatch):
    field, start, y0, y1, taus = _laplace_ray()
    want = field.track_stops(start, y0, y1, taus)
    real_track, real_bows = tracking.track_family, borel.track_s_with_bows
    bowed = []

    def failing(coeffs_fn, point_fn, start_vals, *, stops=(), **kw):
        # every ray leg gives up just past its (fail_after + 1)-th stop
        limit = stops[fail_after] if len(stops) > fail_after + 1 else 2.0

        def coeffs(r):
            if r > limit:
                raise ContinuationError("forced", location=point_fn(r))
            return coeffs_fn(r)

        return real_track(coeffs, point_fn, start_vals, stops=stops, **kw)

    def counted(field, vals, s_knots):
        bowed.append(len(s_knots))
        return real_bows(field, vals, s_knots)

    monkeypatch.setattr(tracking, "track_family", failing)
    monkeypatch.setattr(borel, "track_s_with_bows", counted)
    got = field.track_stops(start, y0, y1, taus)
    assert len(got) == len(taus)
    assert bowed and all(n == 2 for n in bowed)
    # each failing leg reaches fail_after + 1 stops, one bowed stretch adds the next
    left, stretches = len(taus), 0
    while left > fail_after + 1:
        left -= fail_after + 2
        stretches += 1
    assert len(bowed) == stretches
    for g, w in zip(got, want):
        assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()


# -- arcs: one leg per circle, a bowed chord where it fails --------------------


def test_failure_mid_arc_bows_one_chord_and_arrives_at_the_same_sheets(monkeypatch):
    field = SheetField(PlanePoint(1.0, 0.1))
    u = field.u(3)
    arc = tracking.Arc(u, borel.ANCHOR_REL * field.min_sep, borel._ray_angle(u), np.pi / 2)
    start = field.track_y_polyline([arc.start])
    want = field.track_from(start, [arc])
    real_track = tracking.track_family
    legs = []

    def failing(coeffs_fn, point_fn, start_vals, **kw):
        # the first arc leg gives up half way round
        piece = getattr(point_fn, "__self__", None)
        legs.append(piece if isinstance(piece, tracking.Arc) else "straight")
        if len(legs) > 1:
            return real_track(coeffs_fn, point_fn, start_vals, **kw)

        def coeffs(r):
            if r > 0.5:
                raise ContinuationError("forced", location=point_fn(r))
            return coeffs_fn(r)

        return real_track(coeffs, point_fn, start_vals, **kw)

    monkeypatch.setattr(tracking, "track_family", failing)
    got = field.track_from(start, [arc])
    # the failing arc, the bowed chord (two straight legs), the rest of the arc
    assert legs[1:3] == ["straight", "straight"] and len(legs) == 4
    whole, rest = legs[0], legs[3]
    assert rest.theta1 == whole.theta1
    reached = whole.theta0 + 0.5 * (whole.theta1 - whole.theta0)
    assert 0 < abs(rest.theta0 - reached) <= tracking.ARC_STEP
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_arc_failure_names_the_arc_and_angle():
    # z^2 = p - 1: the two roots meet at p = 1, angle 0 of the unit circle
    arc = tracking.Arc(0j, 1.0, -np.pi / 2, np.pi / 2)
    root = np.sqrt(arc.start - 1)
    with pytest.raises(ContinuationError) as err:
        tracking.track_arc(lambda p: [1 - p, 0, 1], arc, [root, -root])
    message = str(err.value)
    assert "arc about 0+0j of radius 1," in message
    angle = float(message.rsplit("at angle ", 1)[1].rstrip(")"))
    assert abs(angle) < 1e-3
    assert abs(err.value.location - np.exp(1j * angle)) < 1e-12


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


@settings(max_examples=20, deadline=None, derandomize=True)
@given(_knot)
def test_single_knot_returns_start_values(knot):
    start = _start_roots(knot)
    trace = tracking.track_polyline(_char_coeffs, [knot], start)
    assert trace.taus == [0.0]
    assert trace.points == [knot]
    assert np.array_equal(trace.final, start)
