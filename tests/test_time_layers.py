"""Smoke test of ``scripts/time_layers.py``: every layer it times and every
name its counting hooks patch still exist, so a rename fails here rather
than in a benchmark run, the event counts of the paper polyline read as
the bracketing makes them, a leg that raises ``ContinuationError`` is
counted as failed, a Laplace ray's landed stops are counted apart from
its steps, the rows of every Horner evaluation are summed, and adaptive
quadrature panels are counted with the integrand points they evaluate.
Samples are scaled to reference speed by the calibration loop timed in
the same interpreter.  Its ``resolved`` rule needs both a median gap
beyond the larger interquartile spread and 9 of 10 pairs won, and the
gap again in each half of the pairs, so bimodal samples of identical code
read unresolved; every run stored in ``BENCH_layers.json`` reads as that
rule says."""

import importlib.util
import json
import pathlib

import numpy as np
import pytest

from pearcey_wkb import aberth, borel, stokes, tracking
from pearcey_wkb.cli import main
from pearcey_wkb.errors import ContinuationError

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "time_layers.py"


@pytest.fixture(scope="module")
def time_layers():
    spec = importlib.util.spec_from_file_location("time_layers", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_case_runs_once(time_layers):
    assert list(time_layers.CASES)[: len(time_layers.COLD)] == list(time_layers.COLD)
    assert time_layers.PER_ATTEMPT in time_layers.CASES
    ns = {}
    for setup, stmt in time_layers.CASES.values():
        exec(setup, ns)
        exec(stmt, ns)


def test_counting_hooks_around_a_cli_call(time_layers, tmp_path):
    patched = (borel.monodromy, borel._cut_jump, borel.SheetField.anchor,
               borel.SheetField.track_stops, tracking.track_family, stokes._brackets)
    argv = ["--out-dir", str(tmp_path), "borel", "--x1", "1", "--x2", "0.1", "--y", "0.1",
            "--ell", "1"]
    with time_layers.counting() as counts:
        assert main(argv) == 0
    assert counts["tracker.anchor.legs"] > 0
    assert counts["calls.QuarticSpec.coeffs"] > 0
    # the paper polyline's 5 Stokes and 2 collinearity brackets, 54 rows
    with time_layers.counting() as counts:
        assert main(["--out-dir", str(tmp_path), "connect", "--path", "paper-polyline"]) == 0
    assert (counts["events.brackets"], counts["events.rows"]) == (7, 54)
    assert patched == (borel.monodromy, borel._cut_jump, borel.SheetField.anchor,
                       borel.SheetField.track_stops, tracking.track_family, stokes._brackets)


def test_failed_legs_are_counted(time_layers):
    # z^2 = p - 1 along p from -1 to 3: the two roots meet at p = 1
    root = 1j * np.sqrt(2.0)
    with time_layers.counting() as counts:
        tracking.track_family(lambda p: [1 - p, 0, 1], tracking.Segment(-1 + 0j, 0.5 + 0j),
                              [root, -root])
        with pytest.raises(ContinuationError):
            tracking.track_family(lambda p: [1 - p, 0, 1], tracking.Segment(-1 + 0j, 3 + 0j),
                                  [root, -root])
    assert (counts["tracker.rest.legs"], counts["tracker.rest.failed"]) == (2, 1)


def test_landed_stops_are_counted_apart_from_steps(time_layers, series8):
    # a converged Laplace sum: one ray leg, 196 nodes, the last of them the
    # leg's end record; the other 195 are landed in one batch, none of them
    # by a fallback leg, and are not counted as steps
    from pearcey_wkb.geometry import PlanePoint
    from pearcey_wkb.quadrature import laplace_borel_sum

    hooks = (tracking._land_stops, tracking._fallback)
    with time_layers.counting() as counts:
        assert (tracking._land_stops, tracking._fallback) != hooks
        r = laplace_borel_sum(3, PlanePoint(1.0, 0.1), 10.0, table=series8)
    assert (tracking._land_stops, tracking._fallback) == hooks
    assert (r.nodes, counts["laplace.nodes"], counts["tracker.laplace.legs"]) == (196, 196, 1)
    assert counts["tracker.laplace.landed"] == 195
    assert "tracker.laplace.fallbacks" not in counts
    # the leg's own steps, fewer than the nodes of one of its 4 panels
    assert counts["tracker.laplace.accepted"] + counts["tracker.laplace.rejected"] < 49


def test_only_the_stop_landing_hooks_may_be_missing(time_layers, monkeypatch):
    # a tree without batched stop landing is counted without its two hooks;
    # any other hook missing fails loudly instead of counting nothing, and
    # leaves no hook patched
    real = (tracking.track_family, tracking._land_stops, stokes._brackets)
    monkeypatch.delattr(tracking, "_land_stops")
    monkeypatch.delattr(tracking, "_fallback")
    with time_layers.counting() as counts:
        pass
    assert not hasattr(tracking, "_land_stops") and counts == {}
    monkeypatch.delattr(stokes, "_brackets")
    with pytest.raises(AttributeError, match="_brackets"):
        with time_layers.counting():
            pass
    assert tracking.track_family is real[0]
    monkeypatch.undo()
    assert (tracking.track_family, tracking._land_stops, stokes._brackets) == real


def test_adaptive_panels_and_their_integrand_points_are_counted(time_layers):
    # every panel calls its integrand once, on its 49 nodes; the far piece
    # of a Laplace sum is no adaptive panel
    from pearcey_wkb import quadrature
    from pearcey_wkb.geometry import PlanePoint

    real = quadrature.adaptive_segment
    with time_layers.counting() as counts:
        quadrature.pearcey_quadrature(PlanePoint(1.0, 0.1), 10.0, (1, 2))
    panels = counts["quadrature.adaptive_panels"]
    assert panels >= 2
    assert counts["quadrature.integrand.calls"] == panels
    assert counts["quadrature.integrand.points"] == 49 * panels
    assert quadrature.adaptive_segment is real


def test_horner_rows_are_counted_through_both_modules(time_layers):
    from pearcey_wkb.geometry import singular_cubic_grid

    hooks = (aberth.poly_eval_many, tracking.poly_eval_many)
    block = singular_cubic_grid(np.linspace(-0.8, 0.8, 512) + 0.3j, 0.25 - 0.05j)
    with time_layers.counting() as counts:
        aberth.roots_aberth_batch(block)
    assert (aberth.poly_eval_many, tracking.poly_eval_many) == hooks
    # every call evaluates the 512 rows or those still unfinished
    calls = counts["calls.poly_eval_many"]
    assert calls >= 2 and 2 * 512 <= counts["rows.poly_eval_many"] <= 512 * calls
    # the batched stop landing evaluates through tracking's own reference
    with time_layers.counting() as counts:
        tracking.poly_eval_many(np.ones((5, 4)), np.zeros((5, 3)))
    assert (counts["calls.poly_eval_many"], counts["rows.poly_eval_many"]) == (1, 5)


def test_samples_are_scaled_by_the_calibration_next_to_them(time_layers):
    # B's layer ran while the machine was half as fast: its layer and
    # calibration times both doubled, so at reference speed A and B tie
    ref_us = 1e6 * time_layers.CAL_REF_S
    name = "cubic, 1 cell"
    a = [{name: (10.0 + 0.1 * k, ref_us)} for k in range(10)]
    b = [{name: (2 * (10.0 + 0.1 * k), 2 * ref_us)} for k in range(10)]
    counts = {side: {name: {}} for side in "ab"}
    row = time_layers.layer_row(name, {"a": a, "b": b}, counts)
    assert row["raw"]["b"]["median"] == 2 * row["raw"]["a"]["median"]
    assert row["calibration_us"]["b"]["median"] == 2 * ref_us
    assert row["a"]["samples"] == pytest.approx(row["b"]["samples"])
    assert not row["resolved"]
    # the same times with B's machine at full speed: B is twice as slow
    b = [{name: (s[name][0], ref_us)} for s in b]
    row = time_layers.layer_row(name, {"a": a, "b": b}, counts)
    assert row["b"]["median"] == pytest.approx(2 * row["a"]["median"])
    assert row["resolved"] and row["b_faster_pairs"] == 0


def test_each_layer_is_timed_between_two_calibration_loops(time_layers, monkeypatch):
    import child

    order = []
    monkeypatch.setattr(child, "calibration_loop", lambda: order.append("cal"))
    monkeypatch.setattr(child, "order", order, raising=False)
    setup = "from child import order"
    monkeypatch.setattr(time_layers, "CASES", {
        "cold": (setup, "order.append('cold')"), "warm": (setup, "order.append('warm')")})
    monkeypatch.setattr(time_layers, "COLD", ("cold",))
    out = time_layers.time_layers()
    assert set(out) == {"cold", "warm"}
    assert order[:3] == ["cal", "cold", "cal"] and order[3] == "cal" and order[-1] == "cal"
    assert set(order[4:-1]) == {"warm"}
    assert all(us > 0 and cal > 0 for us, cal in out.values())


def _row(time_layers, a, b):
    """A layer row from A's and B's samples, as ``main`` stores it."""
    return {"a": time_layers.spread(a), "b": time_layers.spread(b),
            "b_faster_pairs": sum(y < x for x, y in zip(a, b))}


def test_resolved_needs_the_gap_beyond_both_spreads_and_nine_of_ten_pairs(time_layers):
    def resolved(b):
        return time_layers.resolved(_row(time_layers, a, b))

    a = [10.0, 10.2, 10.4, 10.1, 10.3, 10.0, 10.2, 10.4, 10.1, 10.3]
    assert resolved([x - 1.0 for x in a])
    assert resolved([x + 1.0 for x in a])  # B slower: A faster in 10 of 10
    # the gap exceeds A's spread but not B's
    assert not resolved([5.0, 9.0, 13.0, 8.5, 9.2, 4.0, 14.0, 9.1, 9.3, 8.9])
    # a clear median gap, B faster in 8 of 10 pairs, then in 9
    assert not resolved([x - 1.0 for x in a[:8]] + [12.0, 12.0])
    assert resolved([x - 1.0 for x in a[:9]] + [12.0])


def test_bimodal_samples_of_identical_code_are_not_resolved(time_layers):
    # each interpreter runs the same code at one of two speeds, L or H; the
    # modes line up against A in the first five pairs and mix in the last five
    L, H = 2250.0, 3100.0
    a = [L + 1, L + 3, L + 2, L + 4, L, L + 2, H + 1, L + 30, H + 2, L + 1]
    b = [H + 2, H + 1, H + 4, H, H + 3, H + 3, H + 4, H + 1, H + 5, L + 6]
    row = _row(time_layers, a, b)
    # the whole run alone reads B slower in 10 of 10 pairs, its median gap
    # beyond both spreads
    assert row["b_faster_pairs"] == 0
    assert time_layers._apart(row["a"], row["b"], 1)
    # the last five pairs, on their own, do not set the medians apart
    assert not time_layers._apart(time_layers._inner(a[5:]), time_layers._inner(b[5:]), 1)
    assert not time_layers.resolved(row)
    # with both halves lined up as the first, the difference is resolved
    assert time_layers.resolved(_row(time_layers, a[:5] * 2, b[:5] * 2))


def test_stored_runs_follow_the_rule(time_layers):
    with open(time_layers.OUT) as f:
        runs = json.load(f)["runs"]
    for run in runs:
        for name, row in run["layers"].items():
            assert row["resolved"] == time_layers.resolved(row), (run["label"], name)
