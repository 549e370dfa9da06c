"""Benchmark of the pearcey-wkb command line.

Usage, from the repository root:

    python3 perfbench/run.py --workload sections --seed 1 --seconds 40 --trace 0

Each workload run is a fresh interpreter (``child.py``) that imports the
package from ``src/`` and makes the workload's CLI calls in sequence, one
client in a closed loop: single process, single thread, with
``PEARCEY_THREADS`` removed from the environment.  Runs repeat until
``--seconds`` is spent; every run's outputs are checked against the
reference recorded from the parent commit (``checks.py``).

``--trace 0`` reports the end-to-end metrics.  Timings are in reference-speed
seconds: each run's measured time times ``CAL_REF_S`` over the mean time of
the calibration loops ``child.py`` runs between that run's calls, which
cancels the machine's speed drift.  Every metric is the median over the
runs of the window.
``--trace 1`` alternates untraced and traced runs of the same inputs and
reports the per-layer metrics of ``tracer.py``, plus the tracing overhead;
the spans of the last traced run are written to
``.bench_out/trace/<workload>-seed<seed>.spans.tsv``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference.json")
HARD_LIMIT_S = 170.0
# mean calibration-loop time on the quiet 2-core machine the benchmark was
# defined on; the scale of the reference-speed seconds reported below
CAL_REF_S = 0.019


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env.pop("PEARCEY_THREADS", None)
    env["PYTHONPATH"] = os.path.join(root, "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(root: str, work: str, calls: list, trace: bool, spans: str, deadline: float) -> dict:
    """One fresh-interpreter workload run; returns the child's result."""
    os.makedirs(work, exist_ok=True)
    plan_path = os.path.join(work, "plan.json")
    result_path = os.path.join(work, "result.json")
    with open(plan_path, "w") as f:
        json.dump({"src": os.path.join(root, "src"), "calls": calls, "trace": trace,
                   "spans": spans, "out_dir": os.path.join(work, "out")}, f)
    spawn = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, plan_path, result_path],
            cwd=root, env=child_env(root), capture_output=True, text=True,
            timeout=max(1.0, deadline - spawn),
        )
    except subprocess.TimeoutExpired:
        raise BenchError("workload run exceeded the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"workload run failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    with open(result_path) as f:
        result = json.load(f)
    result["setup_s"] = result["ready"] - spawn
    result["cal_s"] = statistics.mean(result["cal_samples"])
    return result


def check_run(calls: list, result: dict, reference: dict) -> list[list[str]]:
    """Problems per call of one workload run."""
    out = []
    for argv, call in zip(calls, result["calls"]):
        try:
            got = checks.extract(argv, call["out_dir"], call["rc"], call["stdout"])
        except (OSError, ValueError, KeyError, IndexError) as exc:
            out.append([f"unreadable output: {type(exc).__name__}: {exc}"])
            continue
        ref = reference["calls"][checks.reference_key(argv)]
        out.append(checks.compare(argv, got, ref, reference["tolerances"]))
    return out


def tail(values: list[float]) -> tuple[str, float] | None:
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    j = n - 11
    return f"p{100 * j / (n - 1):.0f}", sorted(values)[j]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    start = time.perf_counter()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "pearcey_wkb", "cli.py")):
        raise BenchError(f"no package source under {root}/src; run from the repository root")
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(REFERENCE) as f:
        reference = json.load(f)
    calls = workloads.plan(args.workload, args.seed)
    missing = [a for a in calls if checks.reference_key(a) not in reference["calls"]]
    if missing:
        raise BenchError(f"no reference output for {missing[0]}; rerun record_reference.py")

    out_root = os.path.join(root, ".bench_out")
    work = os.path.join(out_root, f"run-{os.getpid()}")
    spans = os.path.join(out_root, "trace", f"{args.workload}-seed{args.seed}.spans.tsv")
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    deadline = start + args.seconds
    hard_deadline = start + HARD_LIMIT_S
    modes = [False, True] if args.trace else [False]
    runs = {False: [], True: []}
    attempted = failed = 0
    correct = True
    problems_seen = []
    try:
        while True:
            t_batch = time.perf_counter()
            for traced in modes:
                result = run_child(root, os.path.join(work, str(len(runs[traced]))), calls,
                                   traced, spans, hard_deadline)
                for argv, call, problems in zip(calls, result["calls"],
                                                check_run(calls, result, reference)):
                    attempted += 1
                    failed += bool(call["rc"] != 0 or problems)
                    if problems:
                        correct = False
                        problems_seen.append((argv, problems))
                shutil.rmtree(os.path.join(work, str(len(runs[traced])), "out"), ignore_errors=True)
                runs[traced].append(result)
            batch = time.perf_counter() - t_batch
            if time.perf_counter() + batch > deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for argv, problems in problems_seen[:10]:
        print(f"CHECK FAILED {' '.join(argv)[:120]}: {'; '.join(problems)}", file=sys.stderr)

    plain = runs[False]
    with open(os.path.join(out_root, f"{args.workload}-seed{args.seed}.runs.json"), "w") as f:
        json.dump([{**{k: r[k] for k in ("setup_s", "wall_s", "cpu_s", "cal_samples", "peak_rss_mb")},
                    "call_wall_s": [c["wall_s"] for c in r["calls"]],
                    "call_cpu_s": [c["cpu_s"] for c in r["calls"]]}
                   for r in plain], f)
    samples = {name: [r[name] for r in plain]
               for name in ("setup_s", "wall_s", "cpu_s", "cal_s", "peak_rss_mb")}
    values = {
        "setup_s": statistics.median(_ref_s(r, "setup_s") for r in plain),
        "wall_ref_s": statistics.median(_ref_s(r, "wall_s") for r in plain),
        "cpu_ref_s": statistics.median(_ref_s(r, "cpu_s") for r in plain),
        "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
    }
    print(f"workload {args.workload}  seed {args.seed}  runs {len(plain)}  "
          f"calls per run {len(calls)}")
    print("measured:")
    print(f"{'metric':<14}{'unit':<7}{'median':>10}{'tail':>17}{'min':>10}{'n':>5}")
    units = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "cal_s": "s", "peak_rss_mb": "MB"}
    for name, v in samples.items():
        t = tail(v)
        tail_text = f"{t[0]}={t[1]:.4f}" if t else "n/a (n<11)"
        print(f"{name:<14}{units[name]:<7}{statistics.median(v):>10.4f}{tail_text:>17}"
              f"{min(v):>10.4f}{len(v):>5}")
    print(f"{'fail_ratio':<14}{'ratio':<7}{failed / attempted:>10.4f}{'':>27}{attempted:>5}")
    print("wall_s samples: " + " ".join(f"{v:.3f}" for v in samples["wall_s"]))
    print(f"at the reference calibration speed (cal_s = {CAL_REF_S} s):")
    for m in spec["end_to_end"]:
        print(f"{m['name']:<14}{m['unit']:<7}{values[m['name']]:>10.4f}")

    if args.trace:
        traced = runs[True]
        layers = _layer_metrics(traced, plain)
        metrics = {}
        for m in spec["per_layer"]:
            if m["name"] not in layers:
                raise BenchError(f"tracer produced no metric {m['name']}")
            metrics[m["name"]] = {"value": layers[m["name"]], "unit": m["unit"]}
        summary = os.path.join(out_root, "trace", f"{args.workload}-seed{args.seed}.layers.json")
        with open(summary, "w") as f:
            json.dump({"layers": layers, "bindings": traced[-1]["bindings"]}, f, indent=1,
                      sort_keys=True)
        for name, v in metrics.items():
            print(f"  {name:<52}{v['value']:>14.6g} {v['unit']}")
        print_shares(calls, traced[-1])
    else:
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def print_shares(calls: list, traced: dict) -> None:
    """Largest layers per subcommand, as shares of its traced busy time."""
    by_cmd: dict[str, dict[str, float]] = {}
    for k, argv in enumerate(calls):
        acc = by_cmd.setdefault(argv[0], {})
        for name, busy in traced["busy_by_call"].get(str(k), {}).items():
            acc[name] = acc.get(name, 0.0) + busy
    for cmd, acc in by_cmd.items():
        total = acc.get("cli.main", 0.0)
        if not total:
            continue
        layers = sorted(((v, n) for n, v in acc.items() if not n.startswith("cli.")), reverse=True)
        text = ", ".join(f"{n} {v / total:.0%}" for v, n in layers[:5])
        print(f"  share of {cmd} ({total:.3f} s traced): {text}")


def _ref_s(run: dict, name: str) -> float:
    """A run's time scaled from its own calibration speed to the reference."""
    return run[name] * CAL_REF_S / run["cal_s"]


def _layer_metrics(traced: list[dict], plain: list[dict]) -> dict:
    """Per-layer values: counts from the traced runs, times as medians."""
    layers = {}
    for name in traced[0]["layers"]:
        values = [r["layers"].get(name, 0) for r in traced]
        if name.endswith("_s"):
            layers[name] = statistics.median(values)
        else:
            if len(set(values)) != 1:
                print(f"warning: count {name} differs between traced runs: {values}",
                      file=sys.stderr)
            layers[name] = values[0]
    traced_wall = statistics.median(_ref_s(r, "wall_s") for r in traced)
    plain_wall = statistics.median(_ref_s(r, "wall_s") for r in plain)
    layers["trace.wall_ref_s"] = traced_wall
    layers["trace.untraced_wall_ref_s"] = plain_wall
    layers["trace.overhead_ratio"] = traced_wall / plain_wall - 1.0
    return layers


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
