"""Append one measured entry to ``perfbench/history.jsonl``.

Run from the repository root:

    python3 perfbench/record_history.py --label baseline --seeds 1 2 3 4 5 6 7 8 9 10

For every workload it runs the benchmark exactly as ``BENCHMARK.json``
describes (one fresh ``run.py`` per seed), untraced for each of ``--seeds``
and traced for each of ``--traced-seeds``, then appends the end-to-end and
per-layer results, the run-to-run spread of each end-to-end metric (first
to third quartile over its median) and a machine note.  Entries are only
ever appended.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
HISTORY = os.path.join(HERE, "history.jsonl")


def bench(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["seed"] = seed
    return result


def machine() -> dict:
    import numpy

    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine(),
            "system": platform.system()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--traced-seeds", type=int, nargs="*", default=[1])
    ap.add_argument("--note", default="")
    args = ap.parse_args()
    if len(args.seeds) < 2:
        ap.error("give at least two --seeds to measure a spread")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                text=True).stdout.strip() or None
    except OSError:
        commit = None
    entry = {
        "label": args.label,
        "recorded": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "commit": commit,
        "note": args.note,
        "machine": machine(),
        "run_seconds": spec["run_seconds"],
        "workloads": {},
    }
    for w in spec["workloads"]:
        name = w["name"]
        plain = [bench(spec, name, s, 0) for s in args.seeds]
        traced = [bench(spec, name, s, 1) for s in args.traced_seeds]
        summary = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in plain]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            summary[m["name"]] = {"median": med, "spread": (q3 - q1) / med, "bound": m["bound"]}
            print(f"{name:<11}{m['name']:<13}median {med:.4f} {m['unit']:<3} "
                  f"spread {(q3 - q1) / med:.3f} (bound {m['bound']})", flush=True)
        entry["workloads"][name] = {
            "end_to_end": summary,
            "runs": [{"seed": r["seed"], "correct": r["correct"], "attempted": r["attempted"],
                      "failed": r["failed"],
                      "metrics": {k: v["value"] for k, v in r["metrics"].items()}}
                     for r in plain],
            "traced": [{"seed": r["seed"], "correct": r["correct"],
                        "metrics": {k: v["value"] for k, v in r["metrics"].items()}}
                       for r in traced],
        }
    with open(HISTORY, "a") as f:
        f.write(json.dumps(entry, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
