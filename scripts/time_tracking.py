#!/usr/bin/env python3
"""Count and time the tracker legs of the seed-1 ``borel_sums`` plan.

Usage: python3 scripts/time_tracking.py SRC_ROOT LABEL

The inputs are the CLI calls of ``perfbench/workloads.py``'s
``plan("borel_sums", 1)``.  Every sample is a fresh interpreter importing
``pearcey_wkb`` from SRC_ROOT/src that times one ``cli.main`` call; each
time is the median of REPEAT samples.  One more fresh interpreter per call
counts the ``track_family`` legs and their accepted and rejected steps the
way ``perfbench/tracer.py`` does, split by the innermost context the leg
runs in:

* ``monodromy``: ``borel.monodromy`` (the loops around u_ell);
* ``anchor``: ``SheetField.anchor`` (the ray and arc above u_ell);
* ``cut_jump``: ``borel._cut_jump`` (the circle sides of a cut jump);
* ``laplace``: ``SheetField.track_stops`` (the Laplace ray legs);
* ``rest``: every other leg.

The counts do not depend on the machine.  The counting interpreter also
times each leg (``track_family`` call, coefficient evaluations included);
it runs REPEAT times per call, the counts must agree across runs, and each
context's ``leg_s`` is the median of its summed leg time.  The totals give
each context's mean time per attempted step, ``us_per_attempt``: the sum
over calls of ``leg_s`` divided by the attempts (accepted plus rejected).
The rows are stored under LABEL in ``BENCH_tracking.json`` at the
repository root, replacing an earlier run with the same label.
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
OUT = os.path.join(HERE, "..", "BENCH_tracking.json")
CONTEXTS = ("monodromy", "anchor", "cut_jump", "laplace", "rest")
COUNTS = ("legs", "accepted", "rejected")

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
import functools, json, tempfile, time
from pearcey_wkb import borel, tracking
from pearcey_wkb.cli import main

counts = {{c: {{"legs": 0, "accepted": 0, "rejected": 0, "leg_s": 0.0}} for c in {contexts!r}}}
stack = ["rest"]

def within(name, real):
    @functools.wraps(real)
    def wrapper(*args, **kw):
        stack.append(name)
        try:
            return real(*args, **kw)
        finally:
            stack.pop()
    return wrapper

borel.monodromy = within("monodromy", borel.monodromy)
borel.SheetField.anchor = within("anchor", borel.SheetField.anchor)
borel._cut_jump = within("cut_jump", borel._cut_jump)
borel.SheetField.track_stops = within("laplace", borel.SheetField.track_stops)
real_family = tracking.track_family

def track_family(coeffs_fn, *args, **kw):
    evaluations = [0]

    def counted(tau):
        evaluations[0] += 1
        return coeffs_fn(tau)

    if kw.get("trace") is None:
        kw["trace"] = tracking.Trace()
    before = len(kw["trace"].taus)
    row = counts[stack[-1]]
    t0 = time.perf_counter()
    try:
        return real_family(counted, *args, **kw)
    finally:
        row["leg_s"] += time.perf_counter() - t0
        attempts = max(0, evaluations[0] - 1)
        accepted = max(0, len(kw["trace"].taus) - before - 1)
        row["legs"] += 1
        row["accepted"] += accepted
        row["rejected"] += attempts - accepted

tracking.track_family = track_family
with tempfile.TemporaryDirectory() as d:
    rc = main(["--out-dir", d, "--no-timestamp", *{argv!r}])
if rc != 0:
    raise SystemExit(f"exit code {{rc}}")
print(json.dumps(counts))
"""


def fresh(src_root: str, code: str) -> str:
    """Last line of standard output of ``code`` run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(src_root), "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    return proc.stdout.strip().splitlines()[-1]


def leg_counts(src_root: str, argv: list) -> dict:
    """Per context: legs, accepted and rejected steps of one call, equal
    over REPEAT counting runs, and the median of their leg time."""
    runs = [json.loads(fresh(src_root, COUNT_CALL.format(argv=argv, contexts=CONTEXTS)))
            for _ in range(REPEAT)]
    out = {}
    for c in CONTEXTS:
        steps = [{k: r[c][k] for k in COUNTS} for r in runs]
        if any(s != steps[0] for s in steps):
            raise SystemExit(f"step counts differ between runs of {argv}: {steps}")
        out[c] = dict(steps[0], leg_s=round(statistics.median(r[c]["leg_s"] for r in runs), 6))
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("src_root")
    ap.add_argument("label")
    args = ap.parse_args()

    rows = {}
    for argv in workloads.plan("borel_sums", 1):
        samples = [float(fresh(args.src_root, TIME_CALL.format(argv=argv)))
                   for _ in range(REPEAT)]
        counts = leg_counts(args.src_root, argv)
        rows[" ".join(argv)] = {"median_s": round(statistics.median(samples), 5),
                                "samples_s": [round(s, 5) for s in samples],
                                "contexts": counts}
        legs = sum(c["legs"] for c in counts.values())
        steps = sum(c["accepted"] + c["rejected"] for c in counts.values())
        print(f"median {statistics.median(samples):.4f} s  legs {legs}  "
              f"step attempts {steps}  {' '.join(argv[:3])}")
    totals = {c: {k: sum(r["contexts"][c][k] for r in rows.values())
                  for k in (*COUNTS, "leg_s")} for c in CONTEXTS}
    totals["all"] = {k: sum(totals[c][k] for c in CONTEXTS) for k in (*COUNTS, "leg_s")}
    for t in totals.values():
        attempts = t["accepted"] + t["rejected"]
        t["leg_s"] = round(t["leg_s"], 6)
        t["us_per_attempt"] = round(1e6 * t["leg_s"] / attempts, 3) if attempts else None
    totals["sum_of_medians_s"] = round(sum(r["median_s"] for r in rows.values()), 5)
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
