#!/usr/bin/env python3
"""Write the artifacts of every benchmark input, for a byte-identity check.

Usage: python3 scripts/compare_artifacts.py SRC_ROOT OUT_DIR

Imports ``pearcey_wkb`` from SRC_ROOT/src and runs each call of
``perfbench/workloads.py``'s ``all_inputs(w)``, for every workload, through
``cli.main(["--out-dir", d, "--no-timestamp", *argv])``.  Call k of workload
w writes into d = OUT_DIR/w/k, plus its exit code in d/rc and what it wrote
to stderr in d/stderr, so a reworded error message shows.  A call that ends
in an uncaught exception records exit code 1 and ``uncaught <Type>: <msg>``
in d/stderr, as ``perfbench/child.py`` does.  The calls of ``EXTRA`` follow,
into OUT_DIR/extra/k: subcommands, options and malformed inputs that no
workload reaches.  Every call runs in OUT_DIR, where the path files of
``INPUTS`` are written first, so that error messages naming them read the
same for every tree.  Run it on two source trees, then compare the two
OUT_DIRs with ``scripts/diff_artifacts.py``.
"""

import contextlib
import io
import os
import sys

src_root, out_dir = sys.argv[1], os.path.abspath(sys.argv[2])
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
    # malformed input: each is a validation error (exit 2)
    ["track-u", "--path", "0.1,0"],
    ["events", "--path", "missing.json"],
    ["connect", "--path", "rows.json"],
    ["track-u", "--path", "strings.json"],
    ["events", "--path", "text.json"],
    ["stokes-section", "--x2", "0", "--window=a,1,-1,1", "--res", "16"],
    ["quadrature", "--x1", "1", "--x2", "0", "--eta", "abc", "--contour", "0,1"],
    ["quadrature", "--x1", "1", "--x2", "0", "--eta", "1", "--contour", "1"],
    ["quadrature", "--x1", "1", "--x2", "0", "--eta", "1", "--contour", "a,b"],
    ["verify", "--samples", "0"],
    # non-finite numbers (exit 2) and coefficients that overflow (exit 3)
    ["stokes-section", "--x2=inf", "--window=-1,1,-1,1", "--res", "16"],
    ["stokes-section", "--x2=1e200", "--window=-1,1,-1,1", "--res", "16"],
    ["stokes-section", "--x2", "0", "--window=-1e200,1e200,-1,1", "--res", "16"],
    ["geometry", "--x1", "1", "--x2=1e200"],
    ["borel", "--x1=1e200", "--x2", "0", "--y", "0.1", "--ell", "1"],
    ["track-u", "--path", "0.15,0/0,0;1e200,0/0,0"],
    ["borel", "--x1=1", "--x2=0", "--y=1e200", "--ell", "1"],
    ["quadrature", "--x1=1e200", "--x2=0", "--eta", "1", "--contour", "0,1"],
    # next to the sheet node (t^2 + 2t)/4, where an origin seed once ran (exit 0)
    ["borel", "--x1", "1", "--x2", "0.032", "--y", "0.3", "--ell", "3"],
    ["borel", "--x1", "1", "--x2", "0.0322", "--y", "0.3", "--ell", "3"],
    ["quadrature", "--x1", "1", "--x2", "0.0322", "--eta", "8", "--contour", "0,1",
     "--compare-borel"],
    # the straight contour peaks at e^28.65, far above the saddles' e^16.37
    ["quadrature", "--x1", "2", "--x2", "1,1", "--eta", "20", "--contour", "1,3"],
    # a route that ends on the node (t^2 + 2t)/4, where two g-sheets are equal
    ["borel", "--x1", "1", "--x2", "0.1", "--y", "0.0525", "--ell", "3"],
]
INPUTS = {
    "rows.json": "[[0.15, 0, 0, 0], [0.15, 0]]",
    "strings.json": '[[0.15, 0, 0, 0], ["a", "b", "c", "d"]]',
    "text.json": "0.15,0/0,0;0.2,0/0,0",
}

calls = {w: workloads.all_inputs(w) for w in workloads.WORKLOADS}
calls["extra"] = EXTRA
os.makedirs(out_dir, exist_ok=True)
os.chdir(out_dir)
for name, text in INPUTS.items():
    with open(name, "w") as f:
        f.write(text)
for w, argvs in calls.items():
    for k, argv in enumerate(argvs):
        d = os.path.join(out_dir, w, f"{k:03d}")
        os.makedirs(d, exist_ok=True)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                rc = main(["--out-dir", d, "--no-timestamp", *argv])
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # an uncaught error exits 1 from the shell
                print(f"uncaught {type(exc).__name__}: {exc}", file=sys.stderr)
                rc = 1
        with open(os.path.join(d, "rc"), "w") as f:
            f.write(f"{rc}\n")
        with open(os.path.join(d, "stderr"), "w") as f:
            f.write(err.getvalue())
