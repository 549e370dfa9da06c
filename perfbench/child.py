"""One workload run in a fresh interpreter (started by run.py).

Usage: python3 child.py PLAN_JSON RESULT_JSON

The plan lists the CLI calls; they run in sequence in this process through
``pearcey_wkb.cli.main``, the way ``scripts/reproduce_figures.py`` drives
them.  The result records when the package import finished (for
``setup_s``), wall and CPU time of the calls, peak resident memory, each
call's exit code and output, the times of the calibration loops run between
the calls, and, for a traced run, the per-layer summary.
"""

import sys
import time

import pearcey_wkb
import pearcey_wkb.cli

READY = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402


def calibration_loop() -> None:
    """Fixed work of the package's kind (complex Horner steps, tiny arrays).

    It never touches the package, so its time measures only how fast the
    machine runs such code around this workload run.
    """
    import numpy

    z = 0.3 + 0.4j
    coeffs = [1.0 + 0j, 0.5j, -0.25, 4.0]
    acc = 0j
    for _ in range(32000):
        p = 0j
        for c in coeffs:
            p = p * z + c
        acc += p
    a = numpy.arange(4, dtype=complex)
    for _ in range(5000):
        a = numpy.abs(a - 0.5j) + 0.1j


def calibrate(repeats: int = 2) -> list[float]:
    """Times of a few calibration loops, in seconds."""
    out = []
    for _ in range(repeats):
        t = time.perf_counter()
        calibration_loop()
        out.append(time.perf_counter() - t)
    return out


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_call(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = pearcey_wkb.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # an uncaught error exits 1 from the shell
            print(f"uncaught {type(exc).__name__}: {exc}", file=sys.stderr)
            rc = 1
    return rc, out.getvalue(), err.getvalue()


def main() -> int:
    with open(sys.argv[1]) as f:
        plan = json.load(f)
    src = os.path.realpath(plan["src"])
    if not os.path.realpath(pearcey_wkb.__file__).startswith(src + os.sep):
        print(f"imported {pearcey_wkb.__file__}, not the package under {src}", file=sys.stderr)
        return 2
    tracer = None
    if plan["trace"]:
        from tracer import Tracer

        tracer = Tracer().install()
    calls = []
    cal_samples = []
    wall = cpu = 0.0
    for k, argv in enumerate(plan["calls"]):
        cal_samples += calibrate()
        if tracer is not None:
            tracer.begin_call(k)
        cpu0 = _cpu_s()
        out_dir = os.path.join(plan["out_dir"], f"call{k:02d}")
        c0 = time.perf_counter()
        rc, stdout, stderr = run_call(["--out-dir", out_dir, "--no-timestamp"] + argv)
        c1 = time.perf_counter()
        cpu1 = _cpu_s()
        cpu += cpu1 - cpu0
        wall += c1 - c0
        calls.append({"rc": rc, "stdout": stdout, "stderr": stderr,
                      "wall_s": c1 - c0, "cpu_s": cpu1 - cpu0, "out_dir": out_dir})
    cal_samples += calibrate()
    result = {
        "ready": READY,
        "wall_s": wall,
        "cpu_s": cpu,
        "cal_samples": cal_samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "calls": calls,
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["bindings"] = tracer.bindings
        result["busy_by_call"] = tracer.busy_by_call()
        tracer.write_spans(plan["spans"])
    with open(sys.argv[2], "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
