"""Record the reference outputs every benchmark call is checked against.

Run from the repository root at the commit whose outputs are the reference
(the parent of a change under test):

    python3 perfbench/record_reference.py

It makes every call any seed can select (each workload's fixed part and
its whole seeded pool) and writes ``perfbench/reference.json``.  A
reference is recorded, not computed: failing calls are kept with their
exit code.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

import checks
import workloads
from run import REFERENCE, BenchError, run_child


def main() -> int:
    root = os.getcwd()
    work = os.path.join(root, ".bench_out", "reference")
    records = {}
    tolerances = None
    try:
        for wl in workloads.WORKLOADS:
            calls = workloads.all_inputs(wl)
            result = run_child(root, os.path.join(work, wl), calls, False, "",
                               time.perf_counter() + 3600)
            for argv, call in zip(calls, result["calls"]):
                records[checks.reference_key(argv)] = checks.extract(
                    argv, call["out_dir"], call["rc"], call["stdout"]
                )
                if argv[0] == "series" and call["rc"] == 0:
                    with open(os.path.join(call["out_dir"], "series.json")) as f:
                        tolerances = json.load(f)["meta"]["tolerances"]
            failing = sum(1 for c in result["calls"] if c["rc"] != 0)
            print(f"{wl}: {len(calls)} calls, {failing} exit non-zero", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if tolerances is None:
        raise BenchError("no series call recorded the CLI tolerances")
    with open(REFERENCE, "w") as f:
        json.dump({"tolerances": tolerances, "calls": records}, f, indent=0, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
