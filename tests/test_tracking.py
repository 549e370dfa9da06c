"""The tracker's step loop against its numpy-scalar reference.

Each family is recorded leg by leg from a real library call, then every leg
is replayed through ``tracking.track_family`` and through the reference loop
in ``oracles``: the tau sequence and the accept/reject counts must be the
same, and the tracked values must agree to 1e-13 relative.

Properties of ``track_polyline`` on (x1, x2) knots of the characteristic
cubic, over polylines that stay clear of the turning locus: a path and its
reverse give back the start labels, midpoints leave the final values
unchanged, and a single knot gives back the start values.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import StepUnderflow, track_family_numpy
from pearcey_wkb import tracking
from pearcey_wkb.borel import monodromy
from pearcey_wkb.errors import ContinuationError
from pearcey_wkb.geometry import PlanePoint, char_cubic_coeffs, char_roots
from pearcey_wkb.stokes import PAPER_POLYLINE, track_u


def _recorded_legs(monkeypatch, run):
    legs = []
    real = tracking.track_family

    def recorder(coeffs_fn, point_fn, start_vals, *, trace=None):
        legs.append((coeffs_fn, point_fn, np.array(start_vals, dtype=complex)))
        return real(coeffs_fn, point_fn, start_vals, trace=trace)

    monkeypatch.setattr(tracking, "track_family", recorder)
    run()
    monkeypatch.undo()
    return legs


def _replay(coeffs_fn, point_fn, start):
    calls = [0]

    def counted(tau):
        calls[0] += 1
        return coeffs_fn(tau)

    try:
        trace = tracking.track_family(counted, point_fn, start)
    except ContinuationError:
        return None
    accepted = len(trace.taus) - 1
    return trace.taus, trace.values, accepted, calls[0] - 1 - accepted


def _reference(coeffs_fn, start):
    try:
        return track_family_numpy(coeffs_fn, start)
    except StepUnderflow:
        return None


FAMILIES = {
    "st_quartic_monodromy_loop": lambda: monodromy(1),
    "char_cubic_default_provenance": lambda: char_roots(PlanePoint(-0.8 + 0.02j, 0.3 - 0.1j)),
    "u_cubic_paper_polyline": lambda: track_u(PAPER_POLYLINE),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_steps_match_numpy_reference(family, monkeypatch):
    legs = _recorded_legs(monkeypatch, FAMILIES[family])
    assert len(legs) >= 3
    accepted_total = 0
    for coeffs_fn, point_fn, start in legs:
        got = _replay(coeffs_fn, point_fn, start)
        want = _reference(coeffs_fn, start)
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


def test_values_beyond_float_range_stop_tracking():
    # the root of z - a*t leaves the float range near t = 0.9: |a t| overflows
    # in abs(), which must end in ContinuationError rather than OverflowError
    a = 1.4e308 * (1 + 1j)

    def coeffs_fn(t):
        return np.array([-a * t, 1.0], dtype=complex)

    with pytest.raises(ContinuationError):
        tracking.track_family(coeffs_fn, lambda t: t, [0.0])


# -- track_polyline on (x1, x2) knots of the characteristic cubic ---------------


def _char_coeffs(p):
    return char_cubic_coeffs(PlanePoint(*p))


def _clear_of_turning_locus(a, b, guard=0.08):
    """default_provenance's test: the relative turning measure
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
