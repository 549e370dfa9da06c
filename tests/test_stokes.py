import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    mp_event_zero,
    mp_min_im_difference,
    raster_csv_oracle,
    raster_labels_oracle,
    scalar_detect_events,
    loop_label_sweep,
    scalar_label_sweep,
)
from pearcey_wkb import aberth, stokes, tracking
from pearcey_wkb.cli import main
from pearcey_wkb.errors import (
    ContinuationError,
    LabelMatchError,
    TurningPointError,
    ValidationError,
)
from pearcey_wkb.geometry import PlanePoint, critical_values, singular_cubic_grid
from pearcey_wkb.stokes import (
    BISECTION_TOL,
    PAIRS,
    PAPER_POLYLINE,
    ConnectionMatrix,
    connection_walk,
    detect_events,
    raster_section,
    track_u,
)

SYSTEMS = [
    ((2, 3), ((1, 0, 0), (0, 1, 0), (0, -1, 1))),
    ((1, 2), ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
    ((1, 3), ((1, 0, -1), (0, 1, 0), (0, 0, 1))),
    ((2, 3), ((1, 0, 0), (0, 1, 0), (0, -1, 1))),
    ((1, 2), ((1, -1, 0), (0, 1, 0), (0, 0, 1))),
]


def _indicator(x: PlanePoint):
    """The three reals Im(u_j - u_k) for pairs (1,2), (1,3), (2,3)."""
    us = critical_values(x)
    return tuple(float((us[j] - us[k]).imag) for j, k in PAIRS)


class TestIndicator:
    def test_reference_values(self):
        vals = _indicator(PlanePoint(4.0, 0.0))
        mags = sorted(abs(v) for v in vals)
        s3 = 3 * np.sqrt(3) / 2
        assert abs(mags[0] - s3) < 1e-9
        assert abs(mags[1] - s3) < 1e-9
        assert abs(mags[2] - 2 * s3) < 1e-9
        assert all(abs(v) > 1e-6 for v in vals)

    def test_on_turning_set_errors(self):
        with pytest.raises(TurningPointError):
            _indicator(PlanePoint(2 * np.sqrt(2), -3.0))

    def test_scaling_homogeneity(self):
        x = PlanePoint(0.8, 0.2 + 0.1j)
        lam = 1.5
        a = _indicator(x)
        b = _indicator(PlanePoint(lam**3 * x.x1, lam**2 * x.x2))
        for u, v in zip(a, b):
            assert abs(v - lam**4 * u) < 1e-9 * max(1.0, abs(v))


class TestTrackU:
    def test_constant_path(self):
        traj = track_u([(0.5, 0.1), (0.5, 0.1)])
        first = traj.values[0]
        last = traj.values[-1]
        assert np.allclose(first, last, atol=1e-12)

    def test_closed_loop_identity(self):
        loop = [
            (0.5, 0.1),
            (0.5 + 0.1j, 0.1),
            (0.5 + 0.1j, 0.15),
            (0.5, 0.1),
        ]
        traj = track_u(loop)
        assert np.allclose(traj.values[0], traj.values[-1], atol=1e-9)

    def test_path_needs_two_vertices(self):
        with pytest.raises(ValidationError):
            track_u([(0.5, 0.1)])


@pytest.fixture(scope="module")
def paper_events():
    return detect_events(PAPER_POLYLINE)


@pytest.fixture(scope="module")
def section0():
    return raster_section(0.0, (-1, 1, -1, 1), 64)


class TestEvents:
    def test_five_stokes_crossings(self, paper_events):
        _, events = paper_events
        stokes = [e for e in events if e.kind == "stokes_crossing"]
        assert len(stokes) == 5

    def test_crossing_locations(self, paper_events):
        # near the 4th, 7th, 8th, 10th and 12th vertices (segment index
        # tau * 12 close to 3, 6, 7, 9, 11)
        _, events = paper_events
        stokes = sorted(
            (e for e in events if e.kind == "stokes_crossing"), key=lambda e: e.tau
        )
        near = [e.tau * 12 for e in stokes]
        vertices = [3, 6, 7, 9, 11]
        for got, want in zip(near, vertices):
            assert abs(got - want) < 1.0

    def test_segment_crossings(self, paper_events):
        _, events = paper_events
        segs = [e for e in events if e.kind == "segment_crossing"]
        assert len(segs) == 2
        assert all(e.pair == (1, 2) and e.crosser == 3 for e in segs)

    def test_subpath_to_vertex5(self):
        _, events = detect_events(PAPER_POLYLINE[:5])
        stokes = [e for e in events if e.kind == "stokes_crossing"]
        assert len(stokes) == 1
        assert stokes[0].pair == (2, 3)
        assert stokes[0].dominant == 3

    def test_subpath_to_vertex7_segment_crossing(self):
        _, events = detect_events(PAPER_POLYLINE[:7])
        segs = [e for e in events if e.kind == "segment_crossing"]
        assert len(segs) == 1
        assert segs[0].pair == (1, 2) and segs[0].crosser == 3

    def test_refinement_invariance(self, paper_events):
        # doubling the sample density of the polyline leaves the event list
        # unchanged (same kinds, same order, same locations)
        refined = []
        pts = [(complex(a), complex(b)) for a, b in PAPER_POLYLINE]
        for (a1, a2), (b1, b2) in zip(pts[:-1], pts[1:]):
            refined.append((a1, a2))
            refined.append(((a1 + b1) / 2, (a2 + b2) / 2))
        refined.append(pts[-1])
        _, ev1 = paper_events
        _, ev2 = detect_events(refined)
        assert [e.kind for e in ev1] == [e.kind for e in ev2]
        assert [e.pair for e in ev1] == [e.pair for e in ev2]
        for a, b in zip(ev1, ev2):
            assert abs(complex(a.x[0]) - complex(b.x[0])) < 1e-6

    def test_reversed_path_mirrors_events(self, paper_events):
        _, fwd = paper_events
        _, rev = detect_events(list(reversed(PAPER_POLYLINE)))
        assert [e.kind for e in fwd] == [e.kind for e in reversed(rev)]
        for a, b in zip(fwd, reversed(rev)):
            assert a.pair == b.pair
            assert abs(a.tau - (1.0 - b.tau)) < 1e-6
            if a.kind == "stokes_crossing":
                assert a.dominant == b.dominant
                assert a.im_before == -b.im_before


def _event_labels(ev):
    return (ev.kind, ev.pair, ev.crosser, ev.dominant, ev.recessive, ev.im_before)


def _count_rows(monkeypatch):
    """Count the event rows, the calls of ``tracking.polish`` (one per row of
    ``stokes._u_at``); returns a list whose length is that count.  Any Aberth
    batch solved meanwhile fails the test."""
    rows = []
    polish = tracking.polish

    def counted(coeffs, old, guess):
        rows.append(1)
        return polish(coeffs, old, guess)

    def no_batch(*args, **kw):
        raise AssertionError("events solved an Aberth batch")

    monkeypatch.setattr(tracking, "polish", counted)
    monkeypatch.setattr(stokes, "roots_aberth_batch", no_batch)
    monkeypatch.setattr(aberth, "roots_aberth_batch", no_batch)
    return rows


def _recorded_rows(monkeypatch):
    """Wrap ``stokes._u_at``; returns the list of its calls as (tau, bracket,
    the bracket's (lo, hi) at the call, labelled u's), the bracket being the
    live object ``detect_events`` narrows."""
    seen = []
    u_at = stokes._u_at

    def recorded(pts, t, b):
        out = u_at(pts, t, b)
        seen.append((t, b, (b.lo, b.hi), out))
        return out

    monkeypatch.setattr(stokes, "_u_at", recorded)
    return seen


def _centre_values(rows):
    """The labelled u's of each bracket's last row, its centre, keyed by tau."""
    last = {id(b): (t, v) for t, b, _, v in rows}
    return dict(last.values())


def _jittered(seed, amount=0.01):
    """``PAPER_POLYLINE`` with every vertex coordinate moved by up to
    ``amount`` in each of its real and imaginary parts."""
    rng = np.random.default_rng(seed)
    return [
        tuple(complex(c) + complex(*rng.uniform(-amount, amount, 2)) for c in v)
        for v in PAPER_POLYLINE
    ]


PATHS = [PAPER_POLYLINE, PAPER_POLYLINE[:5], PAPER_POLYLINE[::-1], [(0.5, 0.1), (0.5, 0.1)]]
PATH_IDS = ["paper", "paper-to-vertex5", "reversed", "constant"]


class TestLockstepBisection:
    """Event bracketing one bracket at a time: each ITP step takes one row
    from the bracket's lower end, one tracker step, and keeps the half
    where the event function changes sign."""

    # a random path near the cusp on which two u's nearly collide between
    # two tracker samples, inside a Stokes-crossing bracket
    NEAR_COLLISION = [
        (0.36336439526294884 + 0.23866070833766478j, 0.2495340764557477 - 0.29029191638046503j),
        (-0.02231562779327234 - 0.009793655397306145j, 0.1759418593380263 + 0.10350653546579186j),
        (0.35637085484218123 + 0.13388579861028693j, 0.24419063485373205 - 0.07246718996078103j),
    ]

    @pytest.mark.parametrize("path", PATHS, ids=PATH_IDS)
    def test_matches_scalar_oracle(self, path, monkeypatch):
        want = scalar_detect_events(path)
        rows = _count_rows(monkeypatch)
        _, got = detect_events(path)
        assert [_event_labels(e) for e in got] == [_event_labels(e) for e in want]
        for a, b in zip(got, want):
            assert abs(a.tau - b.tau) <= BISECTION_TOL
        if not want:
            assert rows == []

    @pytest.mark.parametrize("path", PATHS[:3], ids=PATH_IDS[:3])
    def test_taus_within_half_tol_of_mp_zero(self, path, monkeypatch):
        # every reported centre lies within half the tolerance of the event
        # function's zero computed at 30 digits from the hand-expanded cubic
        rows = _recorded_rows(monkeypatch)
        _, got = detect_events(path)
        centres = _centre_values(rows)
        assert got
        for ev in got:
            zero = mp_event_zero(path, ev, centres[ev.tau])
            assert abs(ev.tau - zero) <= BISECTION_TOL / 2, (ev.kind, ev.pair, ev.tau - zero)

    def test_one_batch_per_bisection_step(self, monkeypatch):
        # ITP steps on 5 Stokes and 2 collinearity brackets, and each
        # bracket's centre: 54 rows (107 with the secant-straddle rounds of
        # four candidates each), each one tracker step, and no Aberth batch
        rows = _count_rows(monkeypatch)
        detect_events(PAPER_POLYLINE)
        assert len(stokes._brackets(track_u(PAPER_POLYLINE))) == 7
        assert len(rows) == 54

    @pytest.mark.parametrize(
        "path",
        [PAPER_POLYLINE[::-1], PAPER_POLYLINE[:7], PAPER_POLYLINE[4:], *(_jittered(s) for s in (1, 2, 3))],
        ids=["reversed", "paper-to-vertex7", "paper-from-vertex5", "jitter-1", "jitter-2", "jitter-3"],
    )
    def test_never_more_batches_than_bisection(self, path, monkeypatch):
        # bisection halves a bracket ceil(log2(width / tol)) times, then
        # solves once at its centre; ITP's projection keeps that worst case
        # for every bracket.  No step solves an Aberth batch
        widths = [b.hi - b.lo for b in stokes._brackets(track_u(path))]
        _count_rows(monkeypatch)
        rows = _recorded_rows(monkeypatch)
        detect_events(path)
        steps = {}  # bracket -> its batches, one per (lo, hi) it was solved from
        for _, b, ends, _ in rows:
            steps.setdefault(id(b), set()).add(ends)
        assert len(steps) == len(widths) > 0
        for width, batches in zip(widths, steps.values()):
            assert 2 <= len(batches) <= math.ceil(math.log2(width / BISECTION_TOL)) + 1

    def test_each_collinearity_is_bracketed_once(self):
        # the three u's become collinear once between two samples: one
        # bracket of the signed area, and the u inside the segment of the
        # other two names one segment crossing
        for path, segments in ((PAPER_POLYLINE, 2), (self.NEAR_COLLISION, 3)):
            brackets = stokes._brackets(track_u(path))
            lines = [(b.lo, b.hi) for b in brackets if b.pair is None]
            _, events = detect_events(path)
            crossings = [e for e in events if e.kind == "segment_crossing"]
            assert len(lines) == len(crossings) == segments
            for (lo, hi), ev in zip(lines, crossings):
                assert lo < ev.tau < hi

    def test_label_match_failure_names_its_bracket(self, monkeypatch, tmp_path):
        # the tracker step of the second bracket's first row is rejected, and
        # so is the tracker leg that retries it
        first, bad = stokes._brackets(track_u(PAPER_POLYLINE))[:2]
        rows = _recorded_rows(monkeypatch)
        detect_events(PAPER_POLYLINE)
        monkeypatch.undo()
        row = sum(b is rows[0][1] for _, b, _, _ in rows)  # the first bracket's rows
        polish = tracking.polish
        calls = []

        def reject_row(coeffs, old, guess):
            calls.append(1)
            if len(calls) < row + 1:
                return polish(coeffs, old, guess)
            monkeypatch.setattr(tracking, "track_family", reject_leg)
            return None

        def reject_leg(*args, **kw):
            raise ContinuationError("injected")

        monkeypatch.setattr(tracking, "polish", reject_row)
        with pytest.raises(LabelMatchError) as info:
            detect_events(PAPER_POLYLINE)
        assert len(calls) == row + 1
        msg = str(info.value)
        assert f"stokes_crossing of pair {bad.pair}" in msg
        assert f"[{bad.lo!r}, {bad.hi!r}]" in msg
        assert f"[{first.lo!r}, {first.hi!r}]" not in msg
        assert msg.endswith(": injected")
        calls.clear()
        argv = ["--out-dir", str(tmp_path), "connect", "--path", "paper-polyline"]
        assert main(argv) == 3

    def test_rejected_row_is_retried_as_a_tracker_leg(self, monkeypatch):
        # on this path two u's pass within 1e-3 of each other inside one
        # tracker step and apart again, and the track's step swaps their
        # labels.  The first row of the Stokes bracket that step opens
        # fails the collision guard, measured from the bracket's lower end,
        # and is continued there by a tracker leg that halves its steps; the
        # leg's u's carry the lower sample's labels and are relabelled as
        # the bracket's samples are.  The one-at-a-time oracle's label
        # matching fails there; the events, kinds and labels, are those that
        # matching all three roots of the cubic at each row gave, and each
        # lies within half the tolerance of its 30-digit zero
        path = self.NEAR_COLLISION
        want = [
            ("stokes_crossing", (1, 3), None, 1, 3, -1),
            ("segment_crossing", (1, 2), 3, None, None, None),
            ("stokes_crossing", (2, 3), None, 3, 2, -1),
            ("stokes_crossing", (1, 2), None, 1, 2, 1),
            ("segment_crossing", (2, 3), 1, None, None, None),
            ("stokes_crossing", (1, 3), None, 3, 1, 1),
            ("segment_crossing", (1, 2), 3, None, None, None),
        ]
        with pytest.raises(LabelMatchError):
            scalar_detect_events(path)
        polish, leg = tracking.polish, tracking.track_family
        calls, rejected, legs = [], [], []

        def recorded_polish(coeffs, old, guess):
            out = polish(coeffs, old, guess)
            if out is None:
                rejected.append((len(calls), old))
            calls.append(1)
            return out

        def recorded_leg(coeffs_at, piece, start_vals, **kw):
            out = leg(coeffs_at, piece, start_vals, **kw)
            legs.append((piece, out.final.tolist()))
            return out

        traj = track_u(path)
        rows = _recorded_rows(monkeypatch)
        monkeypatch.setattr(tracking, "polish", recorded_polish)
        monkeypatch.setattr(tracking, "track_family", recorded_leg)
        _, got = detect_events(path)
        centres = _centre_values(rows)
        # track_u's n segments, then the retry: one bare segment
        n = len(path) - 1
        assert len(rejected) == 1
        assert [(p.index, p.count) for p, _ in legs] == [(i, n) for i in range(1, n + 1)] + [(1, 1)]
        row, old = rejected[0]
        assert any(v.tolist() == old for v in traj.values)  # a tracker sample
        # the row holds the leg's u's, two of them under each other's labels
        retried, final = rows[row][3], legs[-1][1]
        assert sorted(retried, key=abs) == sorted(final, key=abs)
        assert sum(a != b for a, b in zip(retried, final)) == 2
        assert [_event_labels(e) for e in got] == want
        for ev in got:
            zero = mp_event_zero(path, ev, centres[ev.tau])
            assert abs(ev.tau - zero) <= BISECTION_TOL / 2, (ev.kind, ev.pair, ev.tau - zero)

    def test_injected_rejection_is_retried_as_a_tracker_leg(self, monkeypatch):
        # the first row of the second bracket is rejected once and retried
        # by a tracker leg from that bracket's lower end; its u's keep their
        # labels, and the events are those of the plain run
        want = [_event_labels(e) for e in detect_events(PAPER_POLYLINE)[1]]
        bad = stokes._brackets(track_u(PAPER_POLYLINE))[1]
        rows = _recorded_rows(monkeypatch)
        detect_events(PAPER_POLYLINE)
        skip = sum(b is rows[0][1] for _, b, _, _ in rows)  # the first bracket's rows
        polish, leg = tracking.polish, tracking.track_family
        calls, legs = [], []

        def reject_once(coeffs, old, guess):
            calls.append(1)
            return None if len(calls) == skip + 1 else polish(coeffs, old, guess)

        def recorded_leg(coeffs_at, piece, start_vals, **kw):
            out = leg(coeffs_at, piece, start_vals, **kw)
            legs.append((piece, start_vals, out.final.tolist()))
            return out

        rows.clear()
        monkeypatch.setattr(tracking, "polish", reject_once)
        monkeypatch.setattr(tracking, "track_family", recorded_leg)
        _, got = detect_events(PAPER_POLYLINE)
        retry = legs[-1]
        assert (retry[0].index, retry[0].count) == (1, 1)
        assert retry[0].a == stokes._x_at(stokes._path_points(PAPER_POLYLINE), bad.lo)
        assert retry[1] == bad.lo_vals
        assert rows[skip][3] == retry[2]
        assert [_event_labels(e) for e in got] == want
        centres = _centre_values(rows)
        for ev in got:
            zero = mp_event_zero(PAPER_POLYLINE, ev, centres[ev.tau])
            assert abs(ev.tau - zero) <= BISECTION_TOL / 2, (ev.kind, ev.pair, ev.tau - zero)


def _itp_narrow(f, lo, hi):
    """Narrow the sign change of ``f`` in (lo, hi) to ``BISECTION_TOL`` as
    ``detect_events`` does, each step's point from ``stokes._itp_point``;
    returns the final (lo, hi, f_lo) and the width after each step."""
    f_lo, f_hi, width0 = f(lo), f(hi), hi - lo
    widths = []
    while hi - lo > BISECTION_TOL:
        t = stokes._itp_point(lo, hi, f_lo, f_hi, width0, len(widths))
        assert lo < t < hi
        ft = f(t)
        if f_lo * ft <= 0:
            hi, f_hi = t, ft
        else:
            lo, f_lo = t, ft
        widths.append(hi - lo)
    return lo, hi, f_lo, widths


def _bisection_steps(width):
    return math.ceil(math.log2(width / BISECTION_TOL))


class TestItpPoint:
    """ITP on synthetic brackets: never more steps than bisection, each
    step inside the bisection bound, the final bracket within the
    tolerance around the zero and on the opening sign of f_lo."""

    @pytest.mark.parametrize("zero", [0.3, 0.5, 0.51, 0.7, 0.99])
    def test_linear_function_needs_few_steps(self, zero):
        lo, hi, f_lo, widths = _itp_narrow(lambda t: 2.0 * (t - zero), 0.0, 1.0)
        assert lo <= zero <= hi and hi - lo <= BISECTION_TOL and f_lo < 0
        # regula falsi is exact on a line: at most 13 of bisection's 34 steps
        assert len(widths) <= 13 < _bisection_steps(1.0) == 34

    @pytest.mark.parametrize("zero", [0.3, 0.51, 0.99])
    def test_cubic_zero_where_regula_falsi_stalls(self, zero):
        # at a triple zero the regula-falsi point creeps towards it from one
        # side; the projection keeps bisection's step count
        lo, hi, f_lo, widths = _itp_narrow(lambda t: -((t - zero) ** 3), 0.0, 1.0)
        assert lo <= zero <= hi and hi - lo <= BISECTION_TOL and f_lo > 0
        assert len(widths) <= _bisection_steps(1.0)

    @settings(max_examples=200, deadline=None)
    @given(
        lo=st.floats(-2.0, 2.0),
        log_width=st.floats(-9.9, 0.5),
        share=st.floats(1e-6, 1.0 - 1e-6),  # f stays far above the underflow of f_lo * f
        slope=st.floats(1e-8, 1e3),
        sign=st.sampled_from([1, -1]),
        kind=st.sampled_from(["linear", "cubic", "tanh", "step"]),
    )
    @example(lo=0.5, log_width=math.log10(0.0625), share=0.99, slope=1.0, sign=1, kind="cubic")
    def test_never_more_steps_than_bisection(self, lo, log_width, share, slope, sign, kind):
        hi = lo + 10.0**log_width
        zero = lo + (hi - lo) * share
        f = {
            "linear": lambda t: sign * slope * (t - zero),
            "cubic": lambda t: sign * slope * (t - zero) ** 3,
            "tanh": lambda t: math.tanh(sign * slope * (t - zero)),
            "step": lambda t: sign * slope if t > zero else -sign * slope,
        }[kind]
        f_lo, f_hi = f(lo), f(hi)
        if not (hi - lo > BISECTION_TOL and f_lo * f_hi < 0):
            return
        n_half = _bisection_steps(hi - lo)
        end_lo, end_hi, end_f_lo, widths = _itp_narrow(f, lo, hi)
        assert len(widths) <= n_half
        # the bracket after step j is no wider than bisection's after j + 1
        for j, w in enumerate(widths):
            assert w <= BISECTION_TOL * 2.0 ** (n_half - j - 1)
        assert end_hi - end_lo <= BISECTION_TOL
        assert end_f_lo * f_lo > 0
        assert end_lo <= zero <= end_hi


class TestConnectionWalk:
    def test_paper_systems(self):
        walk = connection_walk(PAPER_POLYLINE)
        assert len(walk) == 5
        for (ev, mat), (pair, entries) in zip(walk, SYSTEMS):
            assert ev.pair == pair
            assert mat.entries == entries

    def test_all_transvections_det_one(self):
        walk = connection_walk(PAPER_POLYLINE)
        for _, mat in walk:
            m = mat.as_array()
            assert round(float(np.linalg.det(m))) == 1
            assert np.count_nonzero(m - np.eye(3, dtype=int)) <= 1

    def test_matrix_validation(self):
        with pytest.raises(ValidationError):
            ConnectionMatrix(((1, 0, 0), (0, 2, 0), (0, 0, 1)))
        with pytest.raises(ValidationError):
            ConnectionMatrix(((1, 1, 0), (0, 1, 0), (0, 1, 1)))
        inv = ConnectionMatrix.transvection(3, 2, -1)
        assert inv.as_array()[2, 1] == -1


class TestRaster:
    def test_ray_structure_at_x2_zero(self, section0):
        pts = [p for p in section0.polylines["union"] if abs(p) > 0.2]
        assert len(pts) > 100
        res = [(np.angle(p) - np.pi / 8) % (np.pi / 4) for p in pts]
        on = sum(1 for r in res if r < 0.06 or r > np.pi / 4 - 0.06)
        assert on == len(pts)
        # all eight rays are populated
        octants = set(
            int(((np.angle(p) - np.pi / 8) % (2 * np.pi)) // (np.pi / 4))
            for p in pts
        )
        assert len(octants) == 8

    def test_turning_markers(self, section0):
        assert section0.turning_points == (0j,)
        s = raster_section(0.5 + 0.25j, (-1, 1, -1, 1), 24)
        assert len(s.turning_points) == 2
        for tp in s.turning_points:
            v = 27 * tp**2 + 8 * (0.5 + 0.25j) ** 3
            assert abs(v) < 1e-9

    def test_resolution_validation(self):
        with pytest.raises(ValidationError):
            raster_section(0.0, (-1, 1, -1, 1), 8)

    def test_csv_export(self, section0):
        csv = section0.to_csv()
        lines = csv.splitlines()
        assert lines[0].startswith("i,j,")
        assert len(lines) == 1 + 64 * 64

    def test_csv_equals_cellwise_oracle(self):
        # re range 1.9, im range 1.5 and both indicator signs vary: swapped
        # coordinates or a transposed sign grid would change the text
        s = raster_section(0.5 + 0.25j, (-1.2, 0.7, -0.4, 1.1), 24)
        for k in range(3):
            assert not (s.signs[k] == s.signs[k].T).all()
        assert s.near_turning.any()
        assert s.to_csv() == raster_csv_oracle(s)


    @pytest.mark.parametrize(
        "x2, window",
        [
            (0.0, (-1.0, 1.0, -1.0, 1.0)),
            (0.5 + 0.25j, (-1.0, 1.0, -1.0, 1.0)),
            (0.5 + 0.5j, (-0.8, 0.8, -0.8, 0.8)),
        ],
    )
    def test_signs_match_cellwise_oracle(self, x2, window):
        res = 24
        sec = raster_section(x2, window, res)
        first = critical_values(PlanePoint(complex(window[0], window[2]), x2)).values
        values, flagged = raster_labels_oracle(x2, window, res, first)
        compared = 0
        for i in range(res):
            for j in range(res):
                if sec.near_turning[i, j]:
                    continue
                assert not flagged[i][j], (i, j)
                u = values[i][j]
                scale = max(abs(v) for v in u)
                for p, (a, b) in enumerate(PAIRS):
                    im = (u[a - 1] - u[b - 1]).imag
                    if abs(im) < 1e-9 * scale:
                        continue
                    assert sec.signs[p, i, j] == (1 if im > 0 else -1), (i, j, (a, b))
                    compared += 1
        assert compared > 0.8 * 3 * res * res

    def test_block_size_does_not_change_the_section(self, monkeypatch):
        args = (0.5 + 0.25j, (-1, 1, -1, 1), 24)
        ref = raster_section(*args, with_sextic=True)
        monkeypatch.setattr(stokes, "BLOCK", 7)  # 24 * 24 cells is not a multiple of 7
        got = raster_section(*args, with_sextic=True)
        assert np.array_equal(got.signs, ref.signs)
        assert np.array_equal(got.near_turning, ref.near_turning)
        assert np.array_equal(got.sextic_sign, ref.sextic_sign)
        assert got.polylines == ref.polylines
        assert got.turning_points == ref.turning_points


class TestCsvParsedBack:
    """The section CSV read back as text: every field is what the section
    holds, and the streamed chunks are ``to_csv()``."""

    SECTIONS = [
        (0.5 + 0.25j, (-0.8, 0.8, -0.8, 0.8), 16),
        # turning points x1 = +-1 inside the window: flagged cells
        (-1.5, (-1.5, 1.5, -1.5, 1.5), 17),
        (0.3 + 0.1j, (-1.2, 0.7, -0.4, 1.1), 32),
    ]

    @staticmethod
    def _float(text):
        # coordinates are written as numpy scalar reprs, "np.float64(...)"
        if text.startswith("np.float64(") and text.endswith(")"):
            text = text[len("np.float64("):-1]
        return float(text)

    def test_fields_read_back(self):
        seen_signs, seen_flags = set(), set()
        for x2, window, res in self.SECTIONS:
            sec = raster_section(x2, window, res)
            chunks = list(sec.csv_chunks())
            assert len(chunks) == 1 + res
            text = "".join(chunks)
            assert text == sec.to_csv() and text.endswith("\n")
            lines = text.splitlines()
            assert lines[0] == "i,j,x1_re,x1_im,sign_12,sign_13,sign_23,near_turning"
            rows = [line.split(",") for line in lines[1:]]
            assert len(rows) == res * res
            assert all(len(r) == 8 for r in rows)
            assert [(int(r[0]), int(r[1])) for r in rows] == [
                (i, j) for i in range(res) for j in range(res)
            ]
            re = np.array([self._float(r[2]) for r in rows]).reshape(res, res)
            im = np.array([self._float(r[3]) for r in rows]).reshape(res, res)
            want_re, want_im = np.linspace(*window[:2], res), np.linspace(*window[2:], res)
            assert (re.view(np.int64) == want_re.view(np.int64)[None, :]).all()
            assert (im.view(np.int64) == want_im.view(np.int64)[:, None]).all()
            signs = np.array([[int(v) for v in r[4:7]] for r in rows]).T.reshape(3, res, res)
            flags = np.array([int(r[7]) for r in rows]).reshape(res, res)
            assert np.array_equal(signs, sec.signs)
            assert np.array_equal(flags, sec.near_turning.astype(int))
            seen_signs |= {(p, v) for p in range(3) for v in np.unique(signs[p]).tolist()}
            seen_flags |= set(np.unique(flags).tolist())
        assert seen_signs == {(p, v) for p in range(3) for v in (-1, 1)}
        assert seen_flags == {0, 1}


def _grid_roots(x2, window, res):
    """Raw cubic roots of a raster section's cells and its first cell."""
    xs = np.linspace(window[0], window[1], res)
    ys = np.linspace(window[2], window[3], res)
    x1 = stokes._complex_grid(xs, ys)
    roots = stokes._solve_blocks(singular_cubic_grid, x1.ravel(), x2, aberth.ROOT_TOL)
    return roots.reshape(res, res, 3), x1[0, 0]


def _seeded_x2(n):
    rng = np.random.default_rng(11)
    return [complex(*rng.uniform(-0.7, 0.7, 2)) for _ in range(n)]


class TestLabelSweep:
    """The batched sweep against one-row-at-a-time matching, bit for bit,
    and its prefix composition of edge maps against composing the same edge
    permutations one column at a time (``oracles.loop_label_sweep``).

    The raster's edge pass does not match horizontal edges again: matching a
    row's labeled values cell to cell must succeed exactly where the sweep
    did not flag the right-hand cell, with the identity there.
    """

    @pytest.mark.parametrize(
        "x2, window, res",
        [
            # turning points x1 = +-1 on the grid: resets mid-row
            (-1.5, (-1.5, 1.5, -1.5, 1.5), 33),
            # the seed-1 seeded slice of the sections workload
            (0.0687 + 0.4267j, (-0.8, 0.8, -0.8, 0.8), 64),
            # cell (0, 0) on a turning point: flagged, in sorted order
            (-1.5, (-1.0, 1.0, 0.0, 1.5), 32),
        ],
    )
    def test_equal_to_the_column_loop(self, x2, window, res):
        roots, first = _grid_roots(x2, window, res)
        values, flagged = stokes._label_sweep(roots, first, x2)
        want, want_flagged = loop_label_sweep(roots, first, x2)
        assert values.tobytes() == want.tobytes()
        assert np.array_equal(flagged, want_flagged)
        if res == 33:
            # resets in the middle of rows, with unflagged cells after them
            assert (flagged[:, 1:-1] & ~flagged[:, 2:]).any()

    def test_every_edge_map_composes_as_its_action(self):
        # "n, then m" does to every label array what n, then m, does to it
        orderings = stokes._ORDERINGS

        def act(m, labels):  # a permutation's labels, or a reset's
            return orderings[m][labels] if m < 6 else orderings[m - 6]

        for m, n, labels in itertools.product(range(12), range(12), orderings):
            assert np.array_equal(act(stokes._SWEEP_COMPOSE[m, n], labels),
                                  act(m, act(n, labels)))

    @staticmethod
    def _assert_equal_to_scalar_sweep(x2, window, res):
        roots, first = _grid_roots(x2, window, res)
        values, flagged = stokes._label_sweep(roots, first, x2)
        want, want_flagged = scalar_label_sweep(roots, first, x2)
        assert (values.view(np.uint64) == want.view(np.uint64)).all()
        assert np.array_equal(flagged, want_flagged)
        perm, ok = tracking.match_labels_rows(values[:, :-1], values[:, 1:], 1.0 + 1e-12)
        assert np.array_equal(ok, ~flagged[:, 1:])
        assert (perm[ok] == np.arange(3)).all()
        return flagged

    @pytest.mark.parametrize(
        "x2, res", [(x2, (32, 48, 64)[k % 3]) for k, x2 in enumerate(_seeded_x2(21))]
    )
    def test_seeded_sections(self, x2, res):
        self._assert_equal_to_scalar_sweep(x2, (-0.8, 0.8, -0.8, 0.8), res)

    def test_flagged_cells_on_the_turning_locus(self):
        flagged = self._assert_equal_to_scalar_sweep(-1.5, (-1.5, 1.5, -1.5, 1.5), 64)
        assert flagged[1:].any() and flagged[:, 1:].any()
        # the edge pass skips the horizontal edges of flagged cells
        assert raster_section(-1.5, (-1.5, 1.5, -1.5, 1.5), 64).near_turning[flagged].all()

    def test_first_cell_on_a_turning_point_falls_back_to_sorted(self):
        # x1 = -1 is a turning point at x2 = -1.5
        x2, window = -1.5, (-1.0, 1.0, 0.0, 1.5)
        with pytest.raises(TurningPointError):
            critical_values(PlanePoint(-1.0, x2))
        flagged = self._assert_equal_to_scalar_sweep(x2, window, 32)
        assert flagged[0, 0]


class TestSexticOverlay:
    def test_overlay_agreement(self):
        # the minimum |Im F| over the derived sextic roots is small exactly
        # near the union polylines, one cell away from the turning set
        sec = raster_section(0.25, (-0.8, 0.8, -0.8, 0.8), 48, with_sextic=True)
        xs = np.linspace(-0.8, 0.8, 48)
        cell = xs[1] - xs[0]
        vals = sec.sextic_sign
        # every crossing midpoint sits within one cell of a small-|Im F| cell
        misses = 0
        pts = sec.polylines["union"]
        for p in pts:
            j = int(np.clip(round((p.real + 0.8) / cell), 0, 47))
            i = int(np.clip(round((p.imag + 0.8) / cell), 0, 47))
            block = vals[max(0, i - 1) : i + 2, max(0, j - 1) : j + 2]
            near_t = sec.near_turning[
                max(0, i - 1) : i + 2, max(0, j - 1) : j + 2
            ].any()
            if near_t:
                continue
            if block.min() > 0.5 * cell * 10:
                misses += 1
        assert misses <= max(1, len(pts) // 100)


class TestSexticGeometricAgreement:
    def test_grid_101_sign_change_agreement(self):
        # Im F = 0 for the derived sextic holds exactly where some pair of
        # singularities aligns horizontally: on a 101x101 grid the two
        # edge-crossing indicators must agree on at least 99% of edges away
        # from the turning locus.  Cells are solved as independent batches;
        # an edge whose label match is ambiguous is skipped.
        from pearcey_wkb.aberth import roots_aberth_batch
        from pearcey_wkb.geometry import singular_cubic_grid, stokes_sextic_grid
        from pearcey_wkb import tracking as trk

        x2 = 0.25
        n = 101
        x1 = np.empty((n, n), dtype=complex)  # x1[i, j] = complex(xs[j], ys[i])
        x1.real = np.linspace(-0.8, 0.8, n)[None, :]
        x1.imag = np.linspace(-0.8, 0.8, n)[:, None]
        u_vals = roots_aberth_batch(singular_cubic_grid(x1.ravel(), x2), tol=1e-12)
        f_vals = roots_aberth_batch(stokes_sextic_grid(x1.ravel(), x2), tol=1e-10)
        u_vals, f_vals = u_vals.reshape(n, n, 3), f_vals.reshape(n, n, 6)
        sep = np.abs(u_vals[..., [0, 0, 1]] - u_vals[..., [1, 2, 2]]).min(axis=-1)
        near = sep < 0.05 * np.maximum(1e-12, np.abs(u_vals).max(axis=-1))

        # edges (i, j)-(i, j+1) for every row, (i, j)-(i+1, j) for j < n - 1
        a = (np.s_[:, :-1], np.s_[:-1, :-1])
        b = (np.s_[:, 1:], np.s_[1:, :-1])

        def edge_change(vals, im_parts):
            # per edge: whether the label match succeeds, and whether some
            # Im part is zero at the first end or changes sign along it
            va = np.concatenate([vals[s].reshape(-1, vals.shape[-1]) for s in a])
            vb = np.concatenate([vals[s].reshape(-1, vals.shape[-1]) for s in b])
            perm, ok = trk.match_labels_rows(va, vb, guard_ratio=1.0 + 1e-12)
            sa = im_parts(va)
            sb = im_parts(np.take_along_axis(vb, perm, axis=-1))
            return ((sa == 0.0) | (sa * sb < 0)).any(axis=-1), ok

        # a pair of singularities aligns horizontally somewhere on the edge
        change_u, ok_u = edge_change(u_vals, lambda v: (v[:, [1, 2, 2]] - v[:, [0, 0, 1]]).imag)
        # some root of the sextic becomes real somewhere on the edge
        change_f, ok_f = edge_change(f_vals, lambda v: v.imag)
        far = ~np.concatenate([near[s].ravel() | near[t].ravel() for s, t in zip(a, b)])
        counted = far & ok_u & ok_f
        total = int(counted.sum())
        agree = int((counted & (change_u == change_f)).sum())
        print(f"sign-change agreement {agree}/{total} = {agree / total:.5f}")
        assert total > 15000
        assert agree / total >= 0.99


class TestSexticLayerOracle:
    """The raster's sextic layer is min |Im(u_j - u_k)| to 1e-12 at every
    cell, against the pairs' 30-digit values."""

    @pytest.mark.parametrize(
        "x2, window, res",
        [
            (0.0, (-0.45, 0.45, -0.45, 0.45), 32),  # the sections figure slice
            (-1.5, (-1.5, 1.5, -1.5, 1.5), 32),  # turning points x1 = +-1 inside
            *[(x2, (-0.8, 0.8, -0.8, 0.8), 16) for x2 in _seeded_x2(3)],
        ],
    )
    def test_every_cell(self, x2, window, res):
        sec = raster_section(x2, window, res, with_sextic=True)
        xs = np.linspace(window[0], window[1], res)
        ys = np.linspace(window[2], window[3], res)
        want = np.array([[mp_min_im_difference(complex(x, y), x2) for x in xs] for y in ys])
        assert np.abs(sec.sextic_sign - want).max() <= 1e-12

    def test_triple_point(self):
        # at x1 = x2 = 0 the three u's meet: Q(G) = 65536 G^3, an exact
        # triple root, which the cubic start places at G = 0 exactly
        sec = raster_section(0.0, (-0.45, 0.45, -0.45, 0.45), 33, with_sextic=True)
        assert sec.sextic_sign[16, 16] == 0.0


class TestTrajectoryAnchoring:
    def test_paper_path_starts_at_reference_positions(self, paper_events):
        from pearcey_wkb.geometry import p_ell

        traj, _ = paper_events
        scale = 0.15 ** (4 / 3)
        for ell in (1, 2, 3):
            assert abs(traj.values[0][ell - 1] - p_ell(ell) * scale) < 1e-10

    def test_trajectories_are_continuous(self, paper_events):
        traj, _ = paper_events
        vals = np.array(traj.values)
        steps = np.abs(np.diff(vals, axis=0)).max(axis=1)
        seps = np.array(
            [
                min(abs(v[0] - v[1]), abs(v[0] - v[2]), abs(v[1] - v[2]))
                for v in traj.values
            ]
        )
        assert (steps < seps[:-1]).all()


def test_obstruction_location_is_the_plane_point():
    # the segment x2 = -0.3 meets the turning locus 27 x1^2 + 8 x2^3 = 0 at
    # x1 = sqrt(0.008); the tracker gives up there and says so in (x1, x2)
    with pytest.raises(ContinuationError) as exc:
        track_u([(0.5, -0.3), (-0.5, -0.3)])
    loc = exc.value.location
    assert isinstance(loc, tuple) and len(loc) == 2
    x1, x2 = loc
    assert x2 == -0.3
    assert abs(x1 - np.sqrt(0.008)) < 1e-3
    assert abs(27 * x1**2 + 8 * x2**3) < 1e-4


@pytest.mark.parametrize("path", [[(0.5, -0.3), (-0.5, -0.3)], [(0.5, 0.3), (0.5, -0.3), (-0.5, -0.3)]])
def test_obstruction_message_names_the_segment(path):
    # the failing leg is the last segment, x2 = -0.3, tau running x1 down from 0.5
    with pytest.raises(ContinuationError) as exc:
        track_u(path)
    message = str(exc.value)
    n = len(path) - 1
    assert f"(segment {n} of {n}, from (0.5+0j, -0.3+0j) to (-0.5+0j, -0.3+0j), at tau " in message
    tau = float(message.rsplit("at tau ", 1)[1].rstrip(")"))
    assert abs(exc.value.location[0] - (0.5 - tau)) < 1e-6
