"""Checks of the benchmark itself (not part of the package's test suite).

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

# counts that must repeat exactly between two traced runs of one seed
DETERMINISTIC = [
    "tracking.track_family.steps_accepted",
    "tracking.track_family.steps_rejected",
    "aberth.roots_aberth.deg3.calls",
    "aberth.roots_aberth.deg4.calls",
    "aberth.roots_aberth.deg6.calls",
    "aberth.poly_eval_many.calls",
    "multipoly.MultiPoly.eval_numeric.calls",
    "wkb_series.build_series.calls",
    "stokes.raster_section.cells",
    "stokes.raster_section.near_turning_cells",
]
ERROR_TYPES = ("LabelMatchError", "ContinuationError")

# one small input per workload for the wrapper-coverage check
SMALL = {
    "sections": [["stokes-section", "--x2=0.5,0.25", "--window=-0.8,0.8,-0.8,0.8",
                  "--res", "16", "--with-sextic"]],
    "paths": [["connect", "--path=paper-polyline"]],
    "borel_sums": [["borel", "--x1=1", "--x2=0.1", "--y=0.5,0.1", "--ell", "3"]],
}

PROFILE_SCRIPT = r"""
import cProfile, json, os, pstats, sys
sys.path.insert(0, {bench!r})
import pearcey_wkb.cli
from tracer import Tracer
from pearcey_wkb import aberth, multipoly, tracking
originals = {{
    "aberth.roots_aberth": aberth.roots_aberth,
    "multipoly.MultiPoly.eval_numeric": multipoly.MultiPoly.eval_numeric,
    "tracking.track_family": tracking.track_family,
}}
tracer = Tracer().install()
prof = cProfile.Profile()
prof.enable()
for k, argv in enumerate({calls!r}):
    pearcey_wkb.cli.main(["--out-dir", os.path.join({out!r}, str(k)), "--no-timestamp"] + argv)
prof.disable()
stats = pstats.Stats(prof).stats
summary = tracer.summary()
out = {{}}
for name, fn in originals.items():
    code = fn.__code__
    key = (code.co_filename, code.co_firstlineno, code.co_name)
    out[name] = {{"profile": stats.get(key, (0, 0))[1], "wrapper": summary[name + ".calls"]}}
print(json.dumps(out))
"""


def _traced(workload: str, seed: int, tmp_path) -> dict:
    calls = workloads.plan(workload, seed)
    spans = str(tmp_path / "spans.tsv")
    return run.run_child(ROOT, str(tmp_path / "work"), calls, True, spans,
                         time.perf_counter() + 600)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat(workload, tmp_path):
    first = _traced(workload, 1, tmp_path / "a")["layers"]
    second = _traced(workload, 1, tmp_path / "b")["layers"]
    for name in DETERMINISTIC:
        assert first[name] == second[name], name
    for exc in ERROR_TYPES:
        a = {k: v for k, v in first.items() if k.endswith(f".errors.{exc}")}
        b = {k: v for k, v in second.items() if k.endswith(f".errors.{exc}")}
        assert a == b, exc
    counts = {k for k in first if not k.endswith("_s")}
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = [m["name"] for m in json.load(f)["per_layer"]]
    assert not [m for m in declared if m not in first and not m.startswith("trace.")]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_wrapper_counts_match_cprofile(workload, tmp_path):
    script = PROFILE_SCRIPT.format(bench=BENCH, calls=SMALL[workload], out=str(tmp_path))
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=run.child_env(ROOT),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout.splitlines()[-1])
    for name, c in counts.items():
        assert c["profile"] > 0, name
        assert c["wrapper"] == c["profile"], (name, c)


def test_plan_depends_only_on_seed():
    for wl in workloads.WORKLOADS:
        assert workloads.plan(wl, 7) == workloads.plan(wl, 7)
        assert workloads.plan(wl, 7) != workloads.plan(wl, 8)


def test_inputs_respect_preconditions():
    for wl in workloads.WORKLOADS:
        for argv in workloads.all_inputs(wl):
            # negative numbers go as --flag=value, so no bare token starts with "-"
            assert all(a.startswith("--") or not a.startswith("-") for a in argv), argv
            if argv[0] == "stokes-section":
                assert int(checks._flag(argv, "--res")) >= 16
            if argv[0] in ("borel", "quadrature"):
                x1 = checks._cpx(checks._flag(argv, "--x1").split(","))
                x2 = checks._cpx(checks._flag(argv, "--x2").split(","))
                c = abs(x1) ** (1 / 3) * complex(x1 / abs(x1)) ** (1 / 3)
                assert abs(x2 / c**2) <= workloads.CHART_T_MAX
            if argv[0] == "quadrature":
                eta = float(checks._flag(argv, "--eta"))
                assert workloads.laplace_rays_clear(x1, x2, eta)
                assert workloads.borel_sums_comparable(x1, x2, eta)
            if argv[0] in ("connect", "events", "track-u"):
                verts = checks.path_vertices(checks._flag(argv, "--path"))
                assert all(workloads.turning_measure(a, b) >= workloads.TURNING_GUARD
                           for a, b in zip(verts, verts[1:]))


def test_every_input_has_a_reference():
    with open(run.REFERENCE) as f:
        reference = json.load(f)
    for wl in workloads.WORKLOADS:
        for argv in workloads.all_inputs(wl):
            key = checks.reference_key(argv)
            assert key in reference["calls"], argv
            # the benchmark counts a non-zero exit as a failed operation
            assert reference["calls"][key]["rc"] == 0, argv


def test_checks_reject_changed_outputs():
    with open(run.REFERENCE) as f:
        reference = json.load(f)
    tol = reference["tolerances"]
    for key, ref in reference["calls"].items():
        argv = json.loads(key)
        assert checks.compare(argv, dict(ref), ref, tol) == []
        assert checks.compare(argv, {"rc": 2}, ref, tol)
        bad = json.loads(json.dumps(ref))
        if argv[0] == "stokes-section":
            far = next(i for i, c in enumerate(ref["cells"]) if not int(c, 16) & 8)
            flipped = "%x" % (int(ref["cells"][far], 16) ^ 1)
            bad["cells"] = ref["cells"][:far] + flipped + ref["cells"][far + 1:]
        elif argv[0] in ("events", "connect") and ref["event_floats"]:
            bad["event_floats"][0]["tau"] += 1e-6
        elif argv[0] == "track-u":
            bad["vertex_u"][-1] = bad["vertex_u"][-1][2:4] + bad["vertex_u"][-1][:2] + \
                bad["vertex_u"][-1][4:]
        elif argv[0] == "borel":
            re, im = (float(v) for v in ref["psi_value"])
            bad["psi_value"] = [repr(re * (1 + 1e-6)), repr(im)]
        elif argv[0] == "quadrature":
            bad["value"] = [repr(float(v) * (1 + 1e-6)) for v in ref["value"]]
        elif argv[0] == "verify":
            bad["lines"][0] = bad["lines"][0].replace("PASS", "FAIL")
        elif argv[0] == "series":
            bad["series_sha"] = "0" * 64
        else:
            continue
        assert checks.compare(argv, bad, ref, tol), argv


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paths", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
