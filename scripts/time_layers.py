#!/usr/bin/env python3
"""Time each layer of two source trees in interleaved pairs, and count its work.

Usage: python3 scripts/time_layers.py SRC_A SRC_B LABEL

SRC_A and SRC_B are source trees (each with ``src/pearcey_wkb``); A is the
baseline.  Each of the ``REPEAT`` pairs starts one fresh interpreter per tree,
importing ``pearcey_wkb`` from that tree, which times every layer of
``CASES`` in table order; which tree runs first alternates from pair to pair.
The cold layers (``COLD``) come first and are timed once, before any other
layer fills their caches.  Every other layer runs once to warm up, then
``ROUNDS`` rounds of as many calls as fill ``ROUND_S`` seconds; the sample
is the fastest round's time per call.  The tracker layer is reported per
attempted step (accepted or rejected) of its leg.

Next to the times, one counting interpreter per tree runs each layer's
statement once more under ``counting()``, and one per workload runs the
seed-1 plan of ``perfbench/workloads.py``.  The counts do not depend on the
machine: tracker legs and accepted and rejected steps per context, the
event solver's cubic batches and rows, Laplace nodes, and the calls of
``poly_eval_many``, the coefficient evaluators and the exact products
(``MultiPoly``, ``ZetaRational``) and derivatives.

The run is stored under LABEL in ``BENCH_layers.json`` at the repository
root, replacing an earlier run with the same label.  Per layer it keeps
each tree's median, quartiles and samples, the pairs in which B was faster,
and whether the medians differ by more than A's interquartile spread
(``resolved``); a layer that does not is unresolved, and no claim rests on it.
"""

import contextlib
import cProfile
import json
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
OUT = os.path.join(HERE, "..", "BENCH_layers.json")
REPEAT = 10  # interleaved pairs
ROUNDS = 5
ROUND_S = 0.02
WORKLOADS = ("sections", "paths", "borel_sums")

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
one = {3: singular_cubic_coeffs(x), 4: st.coeffs(0.21 + 0.05j, 0.07 - 0.02j),
       6: stokes_sextic_coeffs(x)}
block = {3: singular_cubic_grid(cells, x.x2),
         4: np.array([st.coeffs(s, 0.07 - 0.02j) for s in cells]),
         6: stokes_sextic_grid(cells, x.x2)}
"""
BOREL = """
from pearcey_wkb.borel import SheetField
from pearcey_wkb.geometry import PlanePoint
from pearcey_wkb.quadrature import LAPLACE_ORDER, laplace_borel_sum
from pearcey_wkb.wkb_series import build_series
field = SheetField(PlanePoint(1, 0.1))
anchor, sheets = field.anchor(1)
table = build_series(LAPLACE_ORDER)
"""

# layer -> (setup, statement); the setups run in one namespace, in order
CASES = {
    "build_series(8), cold": ("from pearcey_wkb.wkb_series import build_series", "build_series(8)"),
    "elimination, cold": ("from pearcey_wkb.geometry import singular_locus_cubic, stokes_sextic",
                          "singular_locus_cubic(); stokes_sextic()"),
    "st quartic, 1 point": (GEOMETRY, "st.coeffs(0.21 + 0.05j, 0.07 - 0.02j)"),
    "cubic, 1 cell": (GEOMETRY, "singular_cubic_coeffs(x)"),
    "cubic, 512 cells": (GEOMETRY, "singular_cubic_grid(cells, x.x2)"),
    "sextic, 1 cell": (GEOMETRY, "stokes_sextic_coeffs(x)"),
    "sextic, 512 cells": (GEOMETRY, "stokes_sextic_grid(cells, x.x2)"),
    **{f"roots deg {n}, {rows}": (ROOTS, stmt)
       for n in (3, 4, 6)
       for rows, stmt in (("batch of 1", f"roots_aberth(one[{n}])"),
                          ("512 rows", f"roots_aberth_batch(block[{n}])"))},
    "tracker step": (BOREL, "field.track_from(sheets, [anchor, anchor + 1.5])"),
    "laplace_borel_sum, warm": (BOREL, "laplace_borel_sum(1, field.x, 10.0, table=table)"),
    "detect_events(PAPER_POLYLINE)": (
        "from pearcey_wkb.stokes import PAPER_POLYLINE, detect_events",
        "detect_events(PAPER_POLYLINE)"),
}
COLD = ("build_series(8), cold", "elimination, cold")
PER_ATTEMPT = "tracker step"

# count key -> (file name, function name), counted by cProfile
CALLS = {
    "events.batches": ("stokes.py", "_u_batch"),
    "calls.poly_eval_many": ("aberth.py", "poly_eval_many"),
    "calls.QuarticSpec.coeffs": ("borel.py", "coeffs"),
    "calls.singular_cubic_coeffs": ("geometry.py", "singular_cubic_coeffs"),
    "calls.singular_cubic_grid": ("geometry.py", "singular_cubic_grid"),
    "calls.stokes_sextic_coeffs": ("geometry.py", "stokes_sextic_coeffs"),
    "calls.stokes_sextic_grid": ("geometry.py", "stokes_sextic_grid"),
    "calls.MultiPoly.eval_numeric": ("multipoly.py", "eval_numeric"),
    "calls.MultiPoly.__mul__": ("multipoly.py", "__mul__"),
    "calls.ZetaRational.__mul__": ("zeta_ring.py", "__mul__"),
    "calls.ZetaRational.derive": ("zeta_ring.py", "derive"),
}


@contextlib.contextmanager
def counting():
    """Count the package's work while active; the nonzero counts land in the
    yielded dict on exit, and every patched name is restored.

    A tracker leg is one ``track_family`` call: it attempts one step per
    coefficient evaluation after the first, and accepts those that add a
    point to its trace.  Its context is the innermost of ``monodromy``,
    ``anchor`` (``SheetField.anchor``), ``cut_jump`` (``borel._cut_jump``)
    and ``laplace`` (``SheetField.track_stops``, whose stops are the Laplace
    nodes) it runs in, else ``rest``.  Event batches and rows are the calls
    and rows of ``stokes._u_batch``.
    """
    from pearcey_wkb import borel, stokes, tracking

    counts, stack, patched = Counter(), ["rest"], []

    def patch(owner, name, wrap):
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

    def track_family(real):
        def wrapper(coeffs_fn, *args, **kw):
            evaluations = [0]

            def counted(tau):
                evaluations[0] += 1
                return coeffs_fn(tau)

            if kw.get("trace") is None:
                kw["trace"] = tracking.Trace()
            trace = kw["trace"]
            before, context = len(trace.taus), stack[-1]
            try:
                return real(counted, *args, **kw)
            finally:
                accepted = max(0, len(trace.taus) - before - 1)
                counts[f"tracker.{context}.legs"] += 1
                counts[f"tracker.{context}.accepted"] += accepted
                counts[f"tracker.{context}.rejected"] += max(0, evaluations[0] - 1) - accepted
        return wrapper

    def rows(key):  # one row per item a call returns
        def wrap(real):
            def wrapper(*args, **kw):
                out = real(*args, **kw)
                counts[key] += len(out)
                return out
            return wrapper
        return wrap

    patch(borel, "monodromy", within("monodromy"))
    patch(borel.SheetField, "anchor", within("anchor"))
    patch(borel, "_cut_jump", within("cut_jump"))
    patch(borel.SheetField, "track_stops",
          lambda real: within("laplace")(rows("laplace.nodes")(real)))
    patch(tracking, "track_family", track_family)
    patch(stokes, "_u_batch", rows("events.rows"))
    out = {}
    profile = cProfile.Profile()
    try:
        profile.enable()
        yield out
    finally:
        profile.disable()
        for owner, name, real in reversed(patched):
            setattr(owner, name, real)
    calls = Counter()
    for (path, _, name), row in pstats.Stats(profile).stats.items():
        calls[os.path.basename(path), name] += row[1]
    counts.update({key: calls[where] for key, where in CALLS.items()})
    out.update(sorted((k, v) for k, v in counts.items() if v))


def time_layers() -> dict:
    """Microseconds per statement of every layer, in this interpreter."""
    ns, out = {}, {}
    for name, (setup, stmt) in CASES.items():
        exec(setup, ns)
        timer = timeit.Timer(stmt, globals=ns)
        if name in COLD:
            out[name] = 1e6 * timer.timeit(1)
            continue
        timer.timeit(1)
        number = 1
        while timer.timeit(number) < ROUND_S:
            number *= 2
        out[name] = 1e6 * min(timer.repeat(ROUNDS, number)) / number
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


def spread(samples: list) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {"median": round(median, 3), "q1": round(q1, 3), "q3": round(q3, 3),
            "samples": [round(s, 3) for s in samples]}


def main() -> None:
    if len(sys.argv) != 4:
        raise SystemExit(__doc__.split("\n\n")[1])
    trees = dict(zip("ab", sys.argv[1:3]))
    label = sys.argv[3]
    sys.path.insert(0, os.path.join(HERE, "..", "perfbench"))
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
        row = {"unit": "us per call"}
        for side in trees:
            per = [s[name] for s in samples[side]]
            if name == PER_ATTEMPT:
                row["unit"] = "us per attempted step"
                attempts = sum(v for k, v in counts[side][name].items()
                               if k.endswith((".accepted", ".rejected")))
                per = [t / attempts for t in per]
            row[side] = spread(per)
        row["b_faster_pairs"] = sum(b < a for a, b in zip(row["a"]["samples"],
                                                           row["b"]["samples"]))
        row["resolved"] = (abs(row["b"]["median"] - row["a"]["median"])
                           > row["a"]["q3"] - row["a"]["q1"])
        row["counts"] = {side: counts[side][name] for side in trees}
        layers[name] = row
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
    with open(OUT, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
