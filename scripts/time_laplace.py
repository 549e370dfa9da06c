#!/usr/bin/env python3
"""Time the Laplace Borel sums on the benchmark's quadrature inputs.

Usage: python3 scripts/time_laplace.py SRC_ROOT LABEL

The inputs are the 12 ``quadrature --compare-borel`` calls of the
``borel_sums`` pool in ``perfbench/workloads.py``.  Every sample is a fresh
interpreter importing ``pearcey_wkb`` from SRC_ROOT/src that times one
``cli.main`` call; each time is the median of REPEAT samples.  One more
fresh interpreter per input reads the nodes tracked for each Borel sum (the
artifact's ``laplace`` entries) and counts tracker steps the way
``perfbench/tracer.py`` does: the ``track_family`` calls made inside
``SheetField.track_stops`` are the Laplace legs, every other call is
counted apart.  The counts do not depend on the machine.  The rows are
stored under LABEL in ``BENCH_laplace.json`` at the repository root,
replacing an earlier run with the same label.
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
OUT = os.path.join(HERE, "..", "BENCH_laplace.json")

TIME_CALL = """
import tempfile, time
from pearcey_wkb.cli import main
with tempfile.TemporaryDirectory() as d:
    t0 = time.perf_counter()
    rc = main(["--out-dir", d, "--no-timestamp", *{argv!r}])
    elapsed = time.perf_counter() - t0
if rc != 0:
    raise SystemExit(f"exit code {{rc}}")
print(elapsed)
"""

COUNT_CALL = """
import json, os, tempfile
from pearcey_wkb import tracking
from pearcey_wkb.borel import SheetField
from pearcey_wkb.cli import main

counts = {{"laplace_accepted": 0, "laplace_rejected": 0,
           "other_accepted": 0, "other_rejected": 0}}
inside = [0]
real_family, real_stops = tracking.track_family, SheetField.track_stops

def track_stops(*args, **kw):
    inside[0] += 1
    try:
        return real_stops(*args, **kw)
    finally:
        inside[0] -= 1

def track_family(coeffs_fn, *args, **kw):
    evaluations = [0]

    def counted(tau):
        evaluations[0] += 1
        return coeffs_fn(tau)

    if kw.get("trace") is None:
        kw["trace"] = tracking.Trace()
    before = len(kw["trace"].taus)
    leg = "laplace" if inside[0] else "other"
    try:
        return real_family(counted, *args, **kw)
    finally:
        attempts = max(0, evaluations[0] - 1)
        accepted = max(0, len(kw["trace"].taus) - before - 1)
        counts[leg + "_accepted"] += accepted
        counts[leg + "_rejected"] += attempts - accepted

tracking.track_family = track_family
SheetField.track_stops = track_stops
with tempfile.TemporaryDirectory() as d:
    rc = main(["--out-dir", d, "--no-timestamp", *{argv!r}])
    if rc != 0:
        raise SystemExit(f"exit code {{rc}}")
    with open(os.path.join(d, "quadrature.json")) as f:
        doc = json.load(f)
counts["nodes"] = [s["nodes"] for s in doc["laplace"]]
counts["converged"] = [s["converged"] for s in doc["laplace"]]
print(json.dumps(counts))
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

    inputs = [c for c in workloads.all_inputs("borel_sums") if c[0] == "quadrature"]
    rows = {}
    for argv in inputs:
        samples = [float(fresh(args.src_root, TIME_CALL.format(argv=argv)))
                   for _ in range(REPEAT)]
        row = {"median_s": round(statistics.median(samples), 5),
               "samples_s": [round(s, 5) for s in samples]}
        row.update(json.loads(fresh(args.src_root, COUNT_CALL.format(argv=argv))))
        rows[" ".join(argv)] = row
        print(f"median {row['median_s']:.4f} s  nodes {row['nodes']}  "
              f"laplace steps {row['laplace_accepted']}/{row['laplace_rejected']}  "
              f"other {row['other_accepted']}/{row['other_rejected']}  {' '.join(argv[1:5])}")
    totals = {k: sum(r[k] for r in rows.values())
              for k in ("laplace_accepted", "laplace_rejected", "other_accepted",
                        "other_rejected")}
    totals["sum_of_medians_s"] = round(sum(r["median_s"] for r in rows.values()), 5)
    totals["nodes"] = sum(sum(r["nodes"]) for r in rows.values())
    run = {
        "label": args.label,
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "repeat": REPEAT,
        "totals": totals,
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
    print("totals", json.dumps(totals))


if __name__ == "__main__":
    main()
