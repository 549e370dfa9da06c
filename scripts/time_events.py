#!/usr/bin/env python3
"""Count and time ``stokes.detect_events`` on two polylines.

Usage: python3 scripts/time_events.py SRC_ROOT LABEL

The inputs are ``paper-polyline`` and the first seeded polyline of
``perfbench/workloads.py``'s ``plan("paths", 1)``.  Every sample is a fresh
interpreter importing ``pearcey_wkb`` from SRC_ROOT/src that times two
``detect_events`` calls on one input: the first (``cold``, which also pays
for the one-time coefficient setup a shell call pays) and a repeat
(``warm``); each time is the median of REPEAT samples.  One more fresh
interpreter per input counts, for one call, the cubic batches the event
solver makes (``roots_aberth_batch`` calls and rows, as seen by
``stokes``) and every ``aberth.poly_eval_many`` call, the path tracking
included.  The counts do not depend on the machine.  The rows are stored
under LABEL in ``BENCH_events.json`` at the repository root, replacing an
earlier run with the same label.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "perfbench"))

import workloads  # noqa: E402

REPEAT = 7
OUT = os.path.join(HERE, "..", "BENCH_events.json")

TIME_CALL = """
import time
from pearcey_wkb.cli import _resolve_path
from pearcey_wkb.stokes import detect_events
path = _resolve_path({spec!r})
times = []
for _ in range(2):
    t0 = time.perf_counter()
    detect_events(path)
    times.append(time.perf_counter() - t0)
print(*times)
"""

COUNT_CALL = """
import json
from pearcey_wkb import aberth, stokes
from pearcey_wkb.cli import _resolve_path

counts = {{"batches": 0, "rows": 0, "poly_eval_many": 0}}
real_batch, real_eval = stokes.roots_aberth_batch, aberth.poly_eval_many

def batch(coeffs, tol):
    counts["batches"] += 1
    counts["rows"] += len(coeffs)
    return real_batch(coeffs, tol)

def poly_eval_many(coeffs, z):
    counts["poly_eval_many"] += 1
    return real_eval(coeffs, z)

stokes.roots_aberth_batch = batch
aberth.poly_eval_many = poly_eval_many
_, events = stokes.detect_events(_resolve_path({spec!r}))
counts["events"] = len(events)
print(json.dumps(counts))
"""


def fresh(src_root: str, code: str) -> str:
    """Last line of standard output of ``code`` run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(src_root), "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    return proc.stdout.strip().splitlines()[-1]


def inputs() -> dict[str, str]:
    """Row name -> ``--path`` spec."""
    seeded = next(a.split("=", 1)[1] for argv in workloads.plan("paths", 1) for a in argv
                  if a.startswith("--path=") and a != "--path=paper-polyline")
    return {"paper-polyline": "paper-polyline", "seed-1 polyline": seeded}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("src_root")
    ap.add_argument("label")
    args = ap.parse_args()

    rows = {}
    for name, spec in inputs().items():
        samples = [[float(t) for t in fresh(args.src_root, TIME_CALL.format(spec=spec)).split()]
                   for _ in range(REPEAT)]
        cold = [s[0] for s in samples]
        warm = [s[1] for s in samples]
        counts = json.loads(fresh(args.src_root, COUNT_CALL.format(spec=spec)))
        rows[name] = {"cold_median_s": round(statistics.median(cold), 5),
                      "warm_median_s": round(statistics.median(warm), 5),
                      "cold_samples_s": [round(s, 5) for s in cold],
                      "warm_samples_s": [round(s, 5) for s in warm],
                      "counts": counts}
        print(f"cold {statistics.median(cold):.4f} s  warm {statistics.median(warm):.4f} s  "
              f"{json.dumps(counts)}  {name}")
    run = {
        "label": args.label,
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "repeat": REPEAT,
        "rows": rows,
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
