#!/usr/bin/env python3
"""Time each layer of two source trees in interleaved pairs, and count its work.

Usage: python3 scripts/time_layers.py SRC_A SRC_B LABEL

SRC_A and SRC_B are source trees (each with ``src/pearcey_wkb``); A is the
baseline.  Each of the ``REPEAT`` pairs starts one fresh interpreter per tree,
importing ``pearcey_wkb`` from that tree, which times every layer of
``CASES`` in table order; which tree runs first alternates from pair to pair.
The cold layers (``COLD``) come first and are timed once, before any other
layer fills their caches; the CLI import layer times a whole fresh
``python -c "import pearcey_wkb.cli"``, interpreter start included.  Every
other layer runs once to warm up, then ``ROUNDS`` rounds of as many calls
as fill ``ROUND_S`` seconds; the sample is the fastest round's time per
call.  The tracker layer is reported per
attempted step (accepted or rejected) of its leg.  Each layer is
flanked by two runs of the calibration loop of ``perfbench/child.py``, so
that its sample can be scaled to the benchmark's reference speed
(``perfbench/run.py``'s ``CAL_REF_S``): a sample taken while the machine
runs slow is scaled down by as much as the loop slowed next to it.

Next to the times, one counting interpreter per tree runs each layer's
statement once more under ``counting()``, and one per workload runs the
seed-1 plan of ``perfbench/workloads.py``.  The counts do not depend on the
machine: tracker legs, failed legs, accepted and rejected steps, landed
stops and their fallbacks per context, the event brackets and rows, Laplace nodes,
adaptive quadrature panels and the integrand calls and points they
evaluate, the calls of ``roots_aberth_batch``, of ``poly_eval_many`` and the rows
it evaluates, the calls of the coefficient evaluators and the exact
products (``MultiPoly``, ``ZetaRational``) and derivatives.

The run is stored under LABEL in ``BENCH_layers.json`` at the repository
root, replacing an earlier run with the same label.  Per layer it keeps
each tree's median, quartiles and samples at reference speed (``a``,
``b``), as measured (``raw``) and of the calibration loop next to them
(``calibration_us``), the pairs in which B was faster at
reference speed, and whether the difference is resolved (``resolved``),
read from the reference-speed samples (from the raw ones in runs stored
before the scaling, which have no ``raw`` key): the medians differ
by more than the larger of A's and B's interquartile spreads, the tree
with the lower median is the faster one in at least ``WINS_TO_RESOLVE`` of
the ``REPEAT`` pairs, and each half of the pairs, the first and the last
``REPEAT // 2``, on its own shows the medians apart the same way by more
than the larger of its own two spreads (quartiles taken inclusive of the
half's ends, ``_inner``).  The halves guard against layers whose time is
bimodal from one interpreter to the next: ten pairs of single
interpreters can line the modes up by chance in one half, but seldom in
both.  A layer that is not resolved is noise, and no claim
rests on it.  Every stored run is re-evaluated under this rule whenever the
file is written.
"""

import contextlib
import cProfile
import importlib
import json
import math
import os
import platform
import pstats
import statistics
import subprocess
import sys
import tempfile
import timeit
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.join(HERE, "..", "perfbench")
OUT = os.path.join(HERE, "..", "BENCH_layers.json")
REPEAT = 10  # interleaved pairs
WINS_TO_RESOLVE = 9  # of the REPEAT pairs; a one-sided sign test gives p = 0.011 for 9 of 10
ROUNDS = 5
ROUND_S = 0.02
WORKLOADS = ("sections", "paths", "borel_sums")
sys.path.insert(0, PERFBENCH)
from run import CAL_REF_S  # noqa: E402  the seconds of one loop at reference speed

GEOMETRY = """
import numpy as np
from pearcey_wkb.geometry import (PlanePoint, singular_cubic_coeffs, singular_cubic_grid,
                                  stokes_sextic_coeffs, stokes_sextic_grid)
from pearcey_wkb.borel import quartic_spec
st = quartic_spec("st")
x = PlanePoint(0.31 + 0.12j, 0.25 - 0.05j)
cells = np.linspace(-0.8, 0.8, 512) + 0.3j
"""
ROOTS = GEOMETRY + """
from pearcey_wkb.aberth import roots_aberth, roots_aberth_batch
one, block = singular_cubic_coeffs(x), singular_cubic_grid(cells, x.x2)
"""
SECTIONS = """
import numpy as np
from pearcey_wkb import aberth, stokes
from pearcey_wkb.geometry import singular_cubic_grid, stokes_sextic_grid
# the seed-1 seeded slice of the sections workload: cubic roots of its cells
x2_seeded = 0.0687 + 0.4267j
grid = stokes._complex_grid(np.linspace(-0.8, 0.8, 64), np.linspace(-0.8, 0.8, 64))
grid_roots = stokes._solve_blocks(singular_cubic_grid, grid.ravel(), x2_seeded,
                                  aberth.ROOT_TOL).reshape(64, 64, 3)
# the res-32 x2 = 0 figure slice, window +-0.45, and its first 512 sextic rows
near = np.linspace(-0.45, 0.45, 32)
figure = stokes._complex_grid(near, near)
sextic_x2_zero = stokes_sextic_grid(figure.ravel()[:512], 0.0)
# the seed-1 seeded slice itself, whose CSV the workload writes
seeded = stokes.raster_section(x2_seeded, (-0.8, 0.8, -0.8, 0.8), 64)
# the x2 = 0.5 + 0.25i figure slice at the CLI's default resolution
figure_x2, figure_window = 0.5 + 0.25j, (-0.8, 0.8, -0.8, 0.8)
"""
BOREL = """
from pearcey_wkb.borel import SheetField
from pearcey_wkb.geometry import PlanePoint
from pearcey_wkb.quadrature import LAPLACE_ORDER, laplace_borel_sum, pearcey_quadrature
from pearcey_wkb.wkb_series import build_series
field = SheetField(PlanePoint(1, 0.1))
anchor, sheets = field.anchor(1)
table = build_series(LAPLACE_ORDER)
"""
TRACK_U = """
import inspect
from pearcey_wkb.stokes import PAPER_POLYLINE, track_u
from pearcey_wkb.svgout import render_trajectories
# the 13 SVG texts of track-u --panels on the paper polyline, no file written
trace = track_u(PAPER_POLYLINE)
panel_taus = [min(1.0, v / 12) for v in range(13)]
if "upto_taus" in inspect.signature(render_trajectories).parameters:
    render_panels = lambda: render_trajectories(trace, panel_taus, meta="META")
else:  # a tree that renders one panel a call
    render_panels = lambda: [render_trajectories(trace, upto_tau=t, meta="META")
                             for t in panel_taus]
"""

# layer -> (setup, statement); the setups run in one namespace, in order
CASES = {
    "build_series(8), cold": ("from pearcey_wkb.wkb_series import build_series", "build_series(8)"),
    "elimination, cold": ("from pearcey_wkb.geometry import singular_locus_cubic, stokes_sextic",
                          "singular_locus_cubic(); stokes_sextic()"),
    # a fresh interpreter, which inherits the PYTHONPATH of the tree being timed
    "import pearcey_wkb.cli, cold": (
        "import subprocess, sys",
        'subprocess.run([sys.executable, "-c", "import pearcey_wkb.cli"], check=True)'),
    "st quartic, 1 point": (GEOMETRY, "st.coeffs(0.21 + 0.05j, 0.07 - 0.02j)"),
    "cubic, 1 cell": (GEOMETRY, "singular_cubic_coeffs(x)"),
    "cubic, 512 cells": (GEOMETRY, "singular_cubic_grid(cells, x.x2)"),
    "sextic, 1 cell": (GEOMETRY, "stokes_sextic_coeffs(x)"),
    "sextic, 512 cells": (GEOMETRY, "stokes_sextic_grid(cells, x.x2)"),
    "roots deg 3, batch of 1": (ROOTS, "roots_aberth(one)"),
    "roots deg 3, 512 rows": (ROOTS, "roots_aberth_batch(block)"),
    # the sextic rows as the raster solves them: the cubic in G = F^2
    "roots deg 6, 512 rows, x2 = 0": (
        SECTIONS, "aberth.roots_aberth_batch(sextic_x2_zero[:, ::2], 1e-10)"),
    "sextic layer, x2 = 0, 32x32": (SECTIONS, "stokes._sextic_layer(0.0, figure)"),
    "label sweep, 64x64": (SECTIONS, "stokes._label_sweep(grid_roots, grid[0, 0], x2_seeded)"),
    "section CSV, 64x64": (SECTIONS, "seeded.to_csv()"),
    "raster section, 128x128": (SECTIONS, "stokes.raster_section(figure_x2, figure_window, 128)"),
    "tracker step": (BOREL, "field.track_from(sheets, [anchor, anchor + 1.5])"),
    "laplace_borel_sum, warm": (BOREL, "laplace_borel_sum(1, field.x, 10.0, table=table)"),
    "pearcey_quadrature, warm": (BOREL, "pearcey_quadrature(field.x, 10.0, (1, 2))"),
    "detect_events(PAPER_POLYLINE)": (
        "from pearcey_wkb.stokes import PAPER_POLYLINE, detect_events",
        "detect_events(PAPER_POLYLINE)"),
    "track-u panels, paper polyline": (TRACK_U, "render_panels()"),
}
COLD = ("build_series(8), cold", "elimination, cold", "import pearcey_wkb.cli, cold")
PER_ATTEMPT = "tracker step"

# count key -> function in the package, its calls counted by cProfile
CALLS = {
    "events.rows": "tracking.polish",
    "calls.poly_eval_many": "aberth.poly_eval_many",
    "calls.roots_aberth_batch": "aberth.roots_aberth_batch",
    "calls.QuarticSpec.coeffs": "borel.QuarticSpec.coeffs",
    "calls.singular_cubic_coeffs": "geometry.singular_cubic_coeffs",
    "calls.singular_cubic_grid": "geometry.singular_cubic_grid",
    "calls.stokes_sextic_coeffs": "geometry.stokes_sextic_coeffs",
    "calls.stokes_sextic_grid": "geometry.stokes_sextic_grid",
    "calls.MultiPoly.eval_numeric": "multipoly.MultiPoly.eval_numeric",
    "calls.MultiPoly.__mul__": "multipoly.MultiPoly.__mul__",
    "calls.ZetaRational.__mul__": "zeta_ring.ZetaRational.__mul__",
    "calls.ZetaRational.derive": "zeta_ring.ZetaRational.derive",
}


def profile_key(target: str) -> tuple:
    """cProfile's (file, first line, name) key of a function in the package,
    so that another function of the same name in the same file is not
    counted with it."""
    module, *path = target.split(".")
    obj = importlib.import_module(f"pearcey_wkb.{module}")
    for name in path:
        obj = getattr(obj, name)
    code = obj.__code__
    return code.co_filename, code.co_firstlineno, code.co_name


@contextlib.contextmanager
def counting():
    """Count the package's work while active; the nonzero counts land in the
    yielded dict on exit, and every patched name is restored.

    A tracker leg is one ``track_family`` call, one path piece (a
    ``Segment`` or an ``Arc``): it attempts one step per call of its
    coefficient callable, the first argument, after the call at tau = 0
    and outside ``tracking._land_stops``, and accepts those that add a
    point to its trace; a leg that raises ``ContinuationError`` is counted
    as ``failed``, whether or not a caller recovers from it.  The stops it lands in one batch there are counted
    as ``landed``, and those of them landed again by a scalar leg
    (``tracking._fallback``, whose steps are not attempts of the leg) as
    ``fallbacks``; a tree that lands stops as steps, without these two
    hooks, records neither count.  Any other hook missing raises
    ``AttributeError``.  Its context is the
    innermost of ``monodromy``, ``anchor`` (``SheetField.anchor``),
    ``cut_jump`` (``borel._cut_jump``) and ``laplace``
    (``SheetField.track_stops``, whose stops are the Laplace nodes) it runs
    in, else ``rest``.  Event brackets are the items ``stokes._brackets``
    returns, one per sign change of an event function between samples, and
    event rows the calls of ``tracking.polish``, one tracker step per row of
    the event bracketing.  ``rows.poly_eval_many`` sums the coefficient rows
    of every ``poly_eval_many`` call, through ``aberth`` or ``tracking``:
    the Horner work of the root solves, whatever their batching.
    ``quadrature.adaptive_panels`` counts the calls of
    ``quadrature.adaptive_segment``, one panel each, and
    ``quadrature.integrand.calls`` and ``.points`` the calls of their
    integrands and the points evaluated, one per call where the integrand
    takes a scalar.
    """
    from pearcey_wkb import aberth, borel, quadrature, stokes, tracking
    from pearcey_wkb.errors import ContinuationError

    counts, stack, patched = Counter(), ["rest"], []

    def patch(owner, name, wrap, optional=False):
        if optional and not hasattr(owner, name):  # a hook an older tree lacks
            return
        real = getattr(owner, name)
        patched.append((owner, name, real))
        setattr(owner, name, wrap(real))

    def within(context):
        def wrap(real):
            def wrapper(*args, **kw):
                stack.append(context)
                try:
                    return real(*args, **kw)
                finally:
                    stack.pop()
            return wrapper
        return wrap

    landing = [False, 0]  # inside _land_stops; stops landed so far

    def track_family(real):
        def wrapper(coeffs_at, *args, **kw):
            evaluations = [0]

            def counted(point):
                evaluations[0] += not landing[0]
                return coeffs_at(point)

            if kw.get("trace") is None:
                kw["trace"] = tracking.Trace()
            trace = kw["trace"]
            before, context, landed = len(trace.taus), stack[-1], landing[1]
            try:
                return real(counted, *args, **kw)
            except ContinuationError:
                counts[f"tracker.{context}.failed"] += 1
                raise
            finally:
                accepted = max(0, len(trace.taus) - before - 1 - (landing[1] - landed))
                counts[f"tracker.{context}.legs"] += 1
                counts[f"tracker.{context}.accepted"] += accepted
                counts[f"tracker.{context}.rejected"] += max(0, evaluations[0] - 1) - accepted
        return wrapper

    def land_stops(real):
        def wrapper(coeffs_at, piece, stops, *args):
            counts[f"tracker.{stack[-1]}.landed"] += len(stops)
            landing[0] = True
            try:
                return real(coeffs_at, piece, stops, *args)
            finally:
                landing[0] = False
                landing[1] += len(stops)
        return wrapper

    def fallback(real):
        def wrapper(*args):
            counts[f"tracker.{stack[-1]}.fallbacks"] += 1
            return real(*args)
        return wrapper

    def rows(key):  # one row per item a call returns
        def wrap(real):
            def wrapper(*args, **kw):
                out = real(*args, **kw)
                counts[key] += len(out)
                return out
            return wrapper
        return wrap

    def evaluated_rows(real):  # the coefficient rows of one Horner evaluation
        def wrapper(coeffs, z):
            counts["rows.poly_eval_many"] += math.prod(coeffs.shape[:-1])
            return real(coeffs, z)
        return wrapper

    def adaptive_panels(real):
        def wrapper(f, *args, **kw):
            counts["quadrature.adaptive_panels"] += 1
            if not hasattr(f, "counted"):  # the bisections pass the wrapped integrand on
                integrand = f

                def f(z):
                    counts["quadrature.integrand.calls"] += 1
                    counts["quadrature.integrand.points"] += getattr(z, "size", 1)
                    return integrand(z)

                f.counted = True
            return real(f, *args, **kw)
        return wrapper

    out = {}
    profile = cProfile.Profile()
    try:
        patch(borel, "monodromy", within("monodromy"))
        patch(borel.SheetField, "anchor", within("anchor"))
        patch(borel, "_cut_jump", within("cut_jump"))
        patch(borel.SheetField, "track_stops",
              lambda real: within("laplace")(rows("laplace.nodes")(real)))
        patch(tracking, "track_family", track_family)
        patch(tracking, "_land_stops", land_stops, optional=True)
        patch(tracking, "_fallback", fallback, optional=True)
        patch(stokes, "_brackets", rows("events.brackets"))
        patch(aberth, "poly_eval_many", evaluated_rows)
        patch(quadrature, "adaptive_segment", adaptive_panels)
        patch(tracking, "poly_eval_many", evaluated_rows)
        profile.enable()
        yield out
    finally:
        profile.disable()
        for owner, name, real in reversed(patched):
            setattr(owner, name, real)
    calls = {where: row[1] for where, row in pstats.Stats(profile).stats.items()}
    counts.update({key: calls.get(profile_key(target), 0) for key, target in CALLS.items()})
    out.update(sorted((k, v) for k, v in counts.items() if v))


def time_layers() -> dict:
    """Per layer, the microseconds per statement in this interpreter and
    the mean microseconds of the calibration loop of ``perfbench/child.py``
    timed just before and just after the layer, as a pair."""
    from child import calibrate  # imports pearcey_wkb: only in a fresh interpreter

    ns, out = {}, {}
    for name, (setup, stmt) in CASES.items():
        exec(setup, ns)
        timer = timeit.Timer(stmt, globals=ns)
        cal = calibrate(1)
        if name in COLD:
            us = 1e6 * timer.timeit(1)
        else:
            timer.timeit(1)
            number = 1
            while timer.timeit(number) < ROUND_S:
                number *= 2
            us = 1e6 * min(timer.repeat(ROUNDS, number)) / number
        out[name] = (us, 1e6 * statistics.mean(cal + calibrate(1)))
    return out


def count_layers() -> dict:
    """Counts of each layer's timed statement, warm as it is timed."""
    ns, out = {}, {}
    for name, (setup, stmt) in CASES.items():
        exec(setup, ns)
        if name not in COLD:
            exec(stmt, ns)
        with counting() as out[name]:
            exec(stmt, ns)
    return out


def count_plan(plan: list) -> dict:
    """Counts of one workload plan's CLI calls."""
    from pearcey_wkb.cli import main

    with tempfile.TemporaryDirectory() as d, counting() as counts:
        for argv in plan:
            if main(["--out-dir", d, "--no-timestamp", *argv]) != 0:
                raise SystemExit(f"nonzero exit: {argv}")
    return counts


def fresh(src_root: str, call: str):
    """The JSON value of ``call``, an expression over this module, evaluated
    in a fresh interpreter importing ``pearcey_wkb`` from SRC_ROOT/src."""
    code = (f"import json, sys; sys.path.insert(0, {HERE!r}); import time_layers; "
            f"print(json.dumps(time_layers.{call}))")
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(src_root), "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def layer_row(name: str, samples: dict, counts: dict) -> dict:
    """One layer's row from each tree's interpreter samples (the dicts
    ``time_layers`` returns) and layer counts (``count_layers``): each
    sample scaled to reference speed by the calibration loop timed next to
    it, and the raw samples and calibration times beside them."""
    row, raw, cal = {"unit": "us per call at reference speed"}, {}, {}
    for side in samples:
        per, cal_us = zip(*(s[name] for s in samples[side]))
        if name == PER_ATTEMPT:
            row["unit"] = "us per attempted step at reference speed"
            attempts = sum(v for k, v in counts[side][name].items()
                           if k.endswith((".accepted", ".rejected")))
            per = [t / attempts for t in per]
        raw[side], cal[side] = spread(per), spread(cal_us)
        row[side] = spread([t * 1e6 * CAL_REF_S / c for t, c in zip(per, cal_us)])
    row["raw"], row["calibration_us"] = raw, cal
    row["b_faster_pairs"] = sum(b < a for a, b in zip(row["a"]["samples"], row["b"]["samples"]))
    row["resolved"] = resolved(row)
    row["counts"] = {side: counts[side][name] for side in samples}
    return row


def spread(samples: list) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {"median": round(median, 3), "q1": round(q1, 3), "q3": round(q3, 3),
            "samples": [round(s, 3) for s in samples]}


def resolved(row: dict) -> bool:
    """Whether a layer's A and B times differ beyond noise (module docstring)."""
    a, b = row["a"], row["b"]
    slower = 1 if b["median"] > a["median"] else -1  # the direction of B's median
    wins = row["b_faster_pairs"]
    if slower > 0:
        wins = len(a["samples"]) - wins
    half = len(a["samples"]) // 2
    halves = [(_inner(a["samples"][s]), _inner(b["samples"][s]))
              for s in (slice(None, half), slice(half, None))]
    return wins >= WINS_TO_RESOLVE and all(
        _apart(x, y, slower) for x, y in [(a, b), *halves])


def _inner(samples: list) -> dict:
    """The median and quartiles of half a run's samples, taken inclusive of
    its ends: of five samples, the middle one and the second from each end,
    so that one outlier does not widen the spread."""
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _apart(a: dict, b: dict, slower: int) -> bool:
    """Whether B's median lies beyond A's on the side ``slower`` (+1 above,
    -1 below) by more than the larger of their interquartile spreads."""
    return slower * (b["median"] - a["median"]) > max(a["q3"] - a["q1"], b["q3"] - b["q1"])


def main() -> None:
    if len(sys.argv) != 4:
        raise SystemExit(__doc__.split("\n\n")[1])
    trees = dict(zip("ab", sys.argv[1:3]))
    label = sys.argv[3]
    import workloads

    samples = {side: [] for side in trees}
    for k in range(REPEAT):
        for side in ("ab" if k % 2 == 0 else "ba"):
            samples[side].append(fresh(trees[side], "time_layers()"))
        print(f"pair {k + 1}/{REPEAT}", file=sys.stderr)
    counts = {side: fresh(src, "count_layers()") for side, src in trees.items()}
    plans = {w: {side: fresh(src, f"count_plan({workloads.plan(w, 1)!r})")
                 for side, src in trees.items()} for w in WORKLOADS}

    layers = {}
    for name in CASES:
        row = layers[name] = layer_row(name, samples, counts)
        print(f"{name:32s} A {row['a']['median']:10.3f} [{row['a']['q1']:.3f}, "
              f"{row['a']['q3']:.3f}]  B {row['b']['median']:10.3f}  "
              f"B/A {row['b']['median'] / row['a']['median']:.3f}  "
              f"{'resolved' if row['resolved'] else 'unresolved'}  {row['unit']}")
    equal = counts["a"] == counts["b"] and all(p["a"] == p["b"] for p in plans.values())
    for w, p in plans.items():
        print(w, json.dumps(p["a"]) if p["a"] == p["b"] else json.dumps(p))
    print("counts equal" if equal else "COUNTS DIFFER")
    run = {
        "label": label,
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "pairs": REPEAT,
        "counts_equal": equal,
        "layers": layers,
        "seed1_plans": plans,
    }

    doc = {"runs": []}
    if os.path.exists(OUT):
        with open(OUT) as f:
            doc = json.load(f)
    doc["runs"] = [r for r in doc["runs"] if r["label"] != label] + [run]
    for r in doc["runs"]:
        for row in r["layers"].values():
            row["resolved"] = resolved(row)
    with open(OUT, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
