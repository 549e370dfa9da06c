#!/usr/bin/env python3
"""Write the artifacts of every benchmark input, for a byte-identity check.

Usage: python3 scripts/compare_artifacts.py SRC_ROOT OUT_DIR

Imports ``pearcey_wkb`` from SRC_ROOT/src and runs each call of
``perfbench/workloads.py``'s ``all_inputs(w)``, for every workload, through
``cli.main(["--out-dir", d, "--no-timestamp", *argv])``.  Call k of workload
w writes into d = OUT_DIR/w/k, plus its exit code in d/rc and what it wrote
to stderr in d/stderr, so a reworded error message shows.  The calls of
``EXTRA`` follow, into OUT_DIR/extra/k: subcommands and options that no
workload reaches.  Run it on two source trees, then compare the two OUT_DIRs
with ``scripts/diff_artifacts.py``.
"""

import contextlib
import io
import os
import sys

src_root, out_dir = sys.argv[1:3]
sys.path.insert(0, os.path.join(os.path.abspath(src_root), "src"))
sys.path.insert(1, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))

import workloads  # noqa: E402
from pearcey_wkb.cli import main  # noqa: E402

EXTRA = [
    ["geometry", "--x1", "1", "--x2", "0"],
    ["geometry", "--x1=1.2252,0.0451", "--x2=-0.0934,0.1130", "--export-polys"],
    ["geometry", "--x1", "1", "--x2=-1.5"],  # on the turning locus
    ["geometry", "--x1", "1.0000001", "--x2=-1.5"],  # no bow clears the labeling path
    ["borel", "--x1=0.9302,0.0628", "--x2=-0.0317,-0.0849", "--y=0.3,0.2",
     "--ell", "1", "--monodromy"],
    ["borel", "--x1", "1", "--x2", "1.5", "--y", "0.1", "--ell", "1",
     "--allow-unvalidated", "--monodromy"],  # outside the validated chart
]

calls = {w: workloads.all_inputs(w) for w in workloads.WORKLOADS}
calls["extra"] = EXTRA
for w, argvs in calls.items():
    for k, argv in enumerate(argvs):
        d = os.path.join(out_dir, w, f"{k:03d}")
        os.makedirs(d, exist_ok=True)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(["--out-dir", d, "--no-timestamp", *argv])
        with open(os.path.join(d, "rc"), "w") as f:
            f.write(f"{rc}\n")
        with open(os.path.join(d, "stderr"), "w") as f:
            f.write(err.getvalue())
