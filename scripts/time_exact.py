#!/usr/bin/env python3
"""Time the exact layer: cold series builds and the cold elimination.

Usage: python3 scripts/time_exact.py SRC_ROOT LABEL

Every sample is a fresh interpreter importing ``pearcey_wkb`` from
SRC_ROOT/src, which times one cold ``build_series(n)`` for n = 8, 10, 12, or
one cold ``singular_locus_cubic()`` followed by ``stokes_sextic()``.  One more
fresh interpreter per order counts the ``ZetaRational.__mul__`` and
``derive`` calls of ``build_series(n)``: the counts depend only on the
recurrences, not on the ring's arithmetic.  Each time is the median of
REPEAT samples.  The rows are stored under LABEL in ``BENCH_exact_ring.json``
at the repository root, replacing an earlier run with the same label.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ORDERS = (8, 10, 12)
REPEAT = 7
ELIMINATION = "singular_locus_cubic+stokes_sextic"
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_exact_ring.json")

TIME_SERIES = """
import time
from pearcey_wkb.wkb_series import build_series
t0 = time.perf_counter()
build_series({n})
print(time.perf_counter() - t0)
"""

TIME_ELIMINATION = """
import time
from pearcey_wkb.geometry import singular_locus_cubic, stokes_sextic
t0 = time.perf_counter()
singular_locus_cubic()
stokes_sextic()
print(time.perf_counter() - t0)
"""

COUNT_SERIES = """
import json
from pearcey_wkb.wkb_series import build_series
from pearcey_wkb.zeta_ring import ZetaRational
counts = {{"__mul__": 0, "derive": 0}}
for name in counts:
    def counted(*args, _f=vars(ZetaRational)[name], _name=name):
        counts[_name] += 1
        return _f(*args)
    setattr(ZetaRational, name, counted)
build_series({n})
print(json.dumps(counts))
"""


def fresh(src_root: str, code: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(src_root), "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    return proc.stdout.strip()


def timed(src_root: str, code: str) -> dict:
    samples = [float(fresh(src_root, code)) for _ in range(REPEAT)]
    return {"median_s": round(statistics.median(samples), 5),
            "samples_s": [round(s, 5) for s in samples]}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("src_root")
    ap.add_argument("label")
    args = ap.parse_args()

    rows = {}
    for n in ORDERS:
        row = timed(args.src_root, TIME_SERIES.format(n=n))
        counts = json.loads(fresh(args.src_root, COUNT_SERIES.format(n=n)))
        row["mul_calls"] = counts["__mul__"]
        row["derive_calls"] = counts["derive"]
        rows[f"build_series({n})"] = row
    rows[ELIMINATION] = timed(args.src_root, TIME_ELIMINATION)
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
    for name, row in rows.items():
        extra = "".join(f"  {k} {row[k]}" for k in ("mul_calls", "derive_calls") if k in row)
        print(f"{name:<36} median {row['median_s']:.4f} s{extra}")


if __name__ == "__main__":
    main()
