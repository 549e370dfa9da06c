"""Smoke test of ``scripts/time_layers.py``: every layer it times and every
name its counting hooks patch still exist, so a rename fails here rather
than in a benchmark run."""

import importlib.util
import pathlib

import pytest

from pearcey_wkb import borel, stokes, tracking
from pearcey_wkb.cli import main

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "time_layers.py"


@pytest.fixture(scope="module")
def time_layers():
    spec = importlib.util.spec_from_file_location("time_layers", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_case_runs_once(time_layers):
    assert list(time_layers.CASES)[: len(time_layers.COLD)] == list(time_layers.COLD)
    assert time_layers.PER_ATTEMPT in time_layers.CASES
    ns = {}
    for setup, stmt in time_layers.CASES.values():
        exec(setup, ns)
        exec(stmt, ns)


def test_counting_hooks_around_a_cli_call(time_layers, tmp_path):
    patched = (borel.monodromy, borel._cut_jump, borel.SheetField.anchor,
               borel.SheetField.track_stops, tracking.track_family, stokes._u_batch)
    argv = ["--out-dir", str(tmp_path), "borel", "--x1", "1", "--x2", "0.1", "--y", "0.1",
            "--ell", "1"]
    with time_layers.counting() as counts:
        assert main(argv) == 0
    assert counts["tracker.anchor.legs"] > 0
    assert counts["calls.QuarticSpec.coeffs"] > 0
    assert patched == (borel.monodromy, borel._cut_jump, borel.SheetField.anchor,
                       borel.SheetField.track_stops, tracking.track_family, stokes._u_batch)
