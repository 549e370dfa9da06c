#!/usr/bin/env python3
"""Time the coefficient evaluators and count their calls in the workloads.

Usage: python3 scripts/time_evaluator.py SRC_ROOT LABEL

Every timing runs in a fresh interpreter importing ``pearcey_wkb`` from
SRC_ROOT/src.  After one warm-up call it times the evaluation with
``timeit``: REPEAT rounds of as many calls as ``autorange`` fits in 0.2 s,
reported as microseconds per call (median and minimum over the rounds).
The rows are the st and xy quartics (``QuarticSpec.coeffs`` at one point)
and the singular-locus cubic and the Stokes sextic at 1 cell
(``singular_cubic_coeffs``, ``stokes_sextic_coeffs``) and at 16 and 512
cells (``singular_cubic_grid``, ``stokes_sextic_grid`` over an x1 array at
fixed x2, as a raster block passes them).

One more fresh interpreter per workload runs its seed-1 plan from
``perfbench/workloads.py`` under ``cProfile`` and reads how often each
evaluator ran; the counts do not depend on the machine.  The rows are
stored under LABEL in ``BENCH_evaluator.json`` at the repository root,
replacing an earlier run with the same label.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "..", "BENCH_evaluator.json")
REPEAT = 7
WORKLOADS = ("sections", "paths", "borel_sums")

SETUP = """
import numpy as np
from pearcey_wkb.borel import quartic_spec
from pearcey_wkb.geometry import (PlanePoint, singular_cubic_coeffs, singular_cubic_grid,
                                  stokes_sextic_coeffs, stokes_sextic_grid)
st = quartic_spec("st")
xy = quartic_spec("xy")
x = PlanePoint(0.31 + 0.12j, 0.25 - 0.05j)
cells = np.linspace(-0.8, 0.8, 512) + 0.3j
"""

CASES = {
    "st quartic": "st.coeffs(0.21 + 0.05j, 0.07 - 0.02j)",
    "xy quartic": "xy.coeffs(0.31 + 0.12j, 0.25 - 0.05j, 0.4 + 0.1j)",
    "cubic, 1 cell": "singular_cubic_coeffs(x)",
    "cubic, 16 cells": "singular_cubic_grid(cells[:16], 0.25 - 0.05j)",
    "cubic, 512 cells": "singular_cubic_grid(cells, 0.25 - 0.05j)",
    "sextic, 1 cell": "stokes_sextic_coeffs(x)",
    "sextic, 16 cells": "stokes_sextic_grid(cells[:16], 0.25 - 0.05j)",
    "sextic, 512 cells": "stokes_sextic_grid(cells, 0.25 - 0.05j)",
}

TIME_CASE = """
import json, statistics, timeit
{setup}
stmt = {stmt!r}
exec(stmt)
number, _ = timeit.Timer(stmt, globals=globals()).autorange()
rounds = timeit.repeat(stmt, globals=globals(), number=number, repeat={repeat})
per_call = [1e6 * r / number for r in rounds]
print(json.dumps({{"median_us": round(statistics.median(per_call), 3),
                  "min_us": round(min(per_call), 3), "calls_per_round": number}}))
"""

# (label, file name, function name) of each evaluator counted in the plans
COUNTED = [
    ("borel.QuarticSpec.coeffs", "borel.py", "coeffs"),
    ("geometry.singular_cubic_coeffs", "geometry.py", "singular_cubic_coeffs"),
    ("geometry.singular_cubic_grid", "geometry.py", "singular_cubic_grid"),
    ("geometry.stokes_sextic_coeffs", "geometry.py", "stokes_sextic_coeffs"),
    ("geometry.stokes_sextic_grid", "geometry.py", "stokes_sextic_grid"),
    ("stokes._u_batch", "stokes.py", "_u_batch"),
    ("multipoly.MultiPoly.eval_numeric", "multipoly.py", "eval_numeric"),
]

COUNT_PLAN = """
import cProfile, json, os, pstats, sys, tempfile
sys.path.insert(0, {perfbench!r})
import workloads
from pearcey_wkb.cli import main
profile = cProfile.Profile()
with tempfile.TemporaryDirectory() as d:
    for argv in workloads.plan({workload!r}, 1):
        profile.enable()
        rc = main(["--out-dir", d, "--no-timestamp", *argv])
        profile.disable()
        if rc != 0:
            raise SystemExit(f"exit code {{rc}}: {{argv}}")
calls = {{}}
for (path, _, name), row in pstats.Stats(profile).stats.items():
    key = (os.path.basename(path), name)
    calls[key] = calls.get(key, 0) + row[1]
print(json.dumps({{label: calls.get((f, n), 0) for label, f, n in {counted!r}}}))
"""


def fresh(src_root: str, code: str) -> str:
    """Last line of standard output of ``code`` run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(src_root), "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    return proc.stdout.strip().splitlines()[-1]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("src_root")
    ap.add_argument("label")
    args = ap.parse_args()

    timings = {}
    for name, stmt in CASES.items():
        code = TIME_CASE.format(setup=SETUP, stmt=stmt, repeat=REPEAT)
        timings[name] = json.loads(fresh(args.src_root, code))
        print(f"{name:18s} {timings[name]['median_us']:9.2f} us/call "
              f"(min {timings[name]['min_us']:.2f})")
    counts = {}
    for workload in WORKLOADS:
        code = COUNT_PLAN.format(perfbench=os.path.join(HERE, "..", "perfbench"),
                                 workload=workload, counted=COUNTED)
        counts[workload] = json.loads(fresh(args.src_root, code))
        print(workload, json.dumps(counts[workload]))
    run = {
        "label": args.label,
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "repeat": REPEAT,
        "us_per_call": timings,
        "seed1_calls": counts,
    }

    doc = {"runs": []}
    if os.path.exists(OUT):
        with open(OUT) as f:
            doc = json.load(f)
    doc["runs"] = [r for r in doc["runs"] if r["label"] != args.label] + [run]
    with open(OUT, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


if __name__ == "__main__":
    main()
