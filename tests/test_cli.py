import json
import subprocess
import sys
from collections import Counter

import pytest

from pearcey_wkb import geometry
from pearcey_wkb.cli import main

SYSTEMS = [
    [[1, 0, 0], [0, 1, 0], [0, -1, 1]],
    [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    [[1, 0, -1], [0, 1, 0], [0, 0, 1]],
    [[1, 0, 0], [0, 1, 0], [0, -1, 1]],
    [[1, -1, 0], [0, 1, 0], [0, 0, 1]],
]


def run(args):
    return main(args)


def test_series_output(tmp_path):
    out = tmp_path / "o"
    assert run(["--out-dir", str(out), "series", "--order", "2"]) == 0
    doc = json.loads((out / "series.json").read_text())
    assert doc["meta"]["version"]
    assert doc["series"]["order"] == 2
    # S_0^(1) = 3 zeta (6 zeta^2 + x2)^(-2)
    s0 = doc["series"]["s1"][1]
    assert s0["denom_power"] == 2
    assert s0["scalar"] == "3"
    assert s0["numerator"]["terms"] == [
        {"exponents": [1, 0], "coefficient": "1"}
    ]


def test_geometry_and_exit_codes(tmp_path):
    out = tmp_path / "o"
    assert run(["--out-dir", str(out), "geometry", "--x1", "1", "--x2", "0"]) == 0
    doc = json.loads((out / "geometry.json").read_text())
    assert doc["on_turning_set"] is False
    assert len(doc["critical_values"]) == 3
    # validation failure: malformed number
    assert run(["--out-dir", str(out), "geometry", "--x1", "nope", "--x2", "0"]) == 2


def test_geometry_near_turning_locus_names_the_leg(tmp_path, capsys):
    # 27 x1^2 + 8 x2^3 = 5.4e-6: off the locus, but no bow clears its x2 leg
    argv = ["--out-dir", str(tmp_path), "geometry", "--x1", "1.0000001", "--x2=-1.5"]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "cannot avoid the turning locus on its leg from (x1, x2) = (" in err
    assert "to (1.0000001+0j, -1.5+0j)" in err
    assert "provenance" not in err


def test_borel_monodromy_outside_validated_chart(tmp_path):
    # t = x2 / x1^(2/3) = 1.5: the loops run around the u_ell of labeled_point(x)
    out = tmp_path / "o"
    argv = ["--out-dir", str(out), "borel", "--x1", "1", "--x2", "1.5", "--y", "0.1",
            "--ell", "1", "--allow-unvalidated", "--monodromy"]
    assert run(argv) == 0
    doc = json.loads((out / "borel.json").read_text())
    assert doc["chart_validated"] is False
    assert doc["monodromy"] == {
        "around_u1": "(1 4)", "around_u2": "(2 4)", "around_u3": "(3 4)"
    }


def test_unknown_flag_exits_one(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["series", "--bogus"])
    assert exc.value.code == 1


def test_connect_reproduces_systems(tmp_path):
    out = tmp_path / "o"
    assert run(["--out-dir", str(out), "connect", "--path", "paper-polyline"]) == 0
    doc = json.loads((out / "connect.json").read_text())
    mats = [c["matrix"] for c in doc["crossings"]]
    assert mats == SYSTEMS


def test_byte_identical_reruns(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = [
        "stokes-section",
        "--x2",
        "0",
        "--window=-0.6,0.6,-0.6,0.6",
        "--res",
        "24",
    ]
    assert run(["--out-dir", str(out1), "--no-timestamp"] + args) == 0
    assert run(["--out-dir", str(out2), "--no-timestamp"] + args) == 0
    for name in ("stokes_section.csv", "stokes_section.svg"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_events_json(tmp_path):
    out = tmp_path / "o"
    assert run(["--out-dir", str(out), "events", "--path", "paper-polyline"]) == 0
    doc = json.loads((out / "events.json").read_text())
    kinds = [e["kind"] for e in doc["events"]]
    assert kinds.count("stokes_crossing") == 5
    assert kinds.count("segment_crossing") == 2


def test_track_u_csv_fields_are_plain_floats(tmp_path):
    out = tmp_path / "o"
    assert run(["--out-dir", str(out), "track-u", "--path", "paper-polyline"]) == 0
    lines = (out / "track_u.csv").read_text().splitlines()
    rows = [ln.split(",") for ln in lines if not ln.startswith("#")]
    assert rows[0][0] == "tau" and len(rows) > 2
    for row in rows[1:]:
        assert len(row) == len(rows[0])
        for field in row:
            float(field)


def test_config_file(tmp_path):
    cfgfile = tmp_path / "conf"
    cfgfile.write_text("order=3\n")
    out = tmp_path / "o"
    assert run(["--out-dir", str(out), "series", "--config", str(cfgfile), "--order", "2"]) == 0
    doc = json.loads((out / "series.json").read_text())
    assert doc["series"]["order"] == 2  # flag wins over config default


def test_config_value_applies_over_default(tmp_path):
    cfgfile = tmp_path / "conf"
    cfgfile.write_text("order=3\n")
    out = tmp_path / "o"
    assert run(["--out-dir", str(out), "series", "--config", str(cfgfile)]) == 0
    doc = json.loads((out / "series.json").read_text())
    assert doc["series"]["order"] == 3


def test_config_res_and_sextic_flag(tmp_path, monkeypatch):
    from pearcey_wkb import stokes

    seen = []
    real = stokes.raster_section

    def spy(*args, **kw):
        seen.append(kw["with_sextic"])
        return real(*args, **kw)

    monkeypatch.setattr(stokes, "raster_section", spy)
    cfgfile = tmp_path / "conf"
    cfgfile.write_text("res=32\nwith_sextic=false\n")
    args = ["stokes-section", "--x2", "0", "--window=-0.5,0.5,-0.5,0.5"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["--out-dir", str(a), "--no-timestamp", *args, "--config", str(cfgfile)]) == 0
    assert run(["--out-dir", str(b), "--no-timestamp", *args, "--res", "32"]) == 0
    assert seen == [False, False]
    rows = [ln for ln in (a / "stokes_section.csv").read_text().splitlines()
            if ln and not ln.startswith("#")]
    assert len(rows) == 1 + 32 * 32
    # same options, so the same config hash and the same bytes as the flags
    for name in ("stokes_section.csv", "stokes_section.svg"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_config_supplies_required_flag(tmp_path):
    cfgfile = tmp_path / "conf"
    cfgfile.write_text("x1 = 1\n")
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["--out-dir", str(a), "geometry", "--config", str(cfgfile), "--x2", "0"]) == 0
    assert run(["--out-dir", str(b), "geometry", "--x1", "1", "--x2", "0"]) == 0
    assert (a / "geometry.json").read_bytes() == (b / "geometry.json").read_bytes()


@pytest.mark.parametrize("text", ["res=many\n", "with_sextic=maybe\n", "bogus=1\n"])
def test_bad_config_is_usage_error(tmp_path, text):
    cfgfile = tmp_path / "conf"
    cfgfile.write_text(text)
    args = ["stokes-section", "--x2", "0", "--window=-0.5,0.5,-0.5,0.5", "--config", str(cfgfile)]
    with pytest.raises(SystemExit) as exc:
        run(["--out-dir", str(tmp_path / "o"), *args])
    assert exc.value.code == 1


@pytest.mark.parametrize("how", ["config", "flag"])
def test_series_has_no_format_option(tmp_path, how):
    cfgfile = tmp_path / "conf"
    cfgfile.write_text("format=json\n")
    extra = ["--config", str(cfgfile)] if how == "config" else ["--format", "json"]
    with pytest.raises(SystemExit) as exc:
        run(["--out-dir", str(tmp_path / "o"), "series", *extra])
    assert exc.value.code == 1


def test_quadrature_command(tmp_path):
    out = tmp_path / "o"
    assert (
        run(
            [
                "--out-dir",
                str(out),
                "quadrature",
                "--x1",
                "0",
                "--x2",
                "0",
                "--eta",
                "1",
                "--contour",
                "2,0",
            ]
        )
        == 0
    )
    doc = json.loads((out / "quadrature.json").read_text())
    from math import gamma, pi
    import numpy as np

    got = complex(float(doc["value"][0]), float(doc["value"][1]))
    expect = np.exp(1j * pi / 4) * gamma(0.25) / 2
    assert abs(got - expect) < 1e-8


def test_quadrature_compare_borel_reports_laplace_passes(tmp_path):
    out = tmp_path / "o"
    argv = ["--out-dir", str(out), "quadrature", "--x1", "1", "--x2", "0.1",
            "--eta", "10", "--contour", "1,2", "--compare-borel"]
    assert run(argv) == 0
    doc = json.loads((out / "quadrature.json").read_text())
    assert doc["laplace"] == [{"nodes": 196, "converged": True}] * 3
    assert doc["matched_combination"]["coefficients"] == [0, 0, 1]
    assert doc["chart_validated"] is True


def test_quadrature_compare_borel_flags_points_outside_the_chart(tmp_path):
    # |t| = |x2 / x1^(2/3)| = 0.5 > borel.T_VALIDITY: the sums are written, flagged
    out = tmp_path / "o"
    argv = ["--out-dir", str(out), "quadrature", "--x1", "1", "--x2", "0.5",
            "--eta", "10", "--contour", "1,2", "--compare-borel"]
    assert run(argv) == 0
    doc = json.loads((out / "quadrature.json").read_text())
    assert doc["chart_validated"] is False


def test_unconverged_quadrature_exits_3(tmp_path, capsys, monkeypatch):
    from pearcey_wkb import quadrature

    monkeypatch.setattr(quadrature, "MAX_DEPTH", 0)
    argv = ["--out-dir", str(tmp_path), "quadrature", "--x1", "0", "--x2", "0",
            "--eta", "1", "--contour", "2,0"]
    assert run(argv) == 3
    assert "did not reach tol 1e-10 after 0 bisections" in capsys.readouterr().err


def test_header_tolerances_are_the_constants(tmp_path):
    from pearcey_wkb import quadrature, stokes, tracking

    assert run(["--out-dir", str(tmp_path), "series", "--order", "1"]) == 0
    doc = json.loads((tmp_path / "series.json").read_text())
    assert doc["meta"]["tolerances"] == {
        "root_residual": 1e-12,
        "tracking_residual": tracking.RESIDUAL_TOL,
        "bisection": stokes.BISECTION_TOL,
        "quadrature": quadrature.LAPLACE_TOL,
    }


def test_quadrature_compare_borel_labels_each_point_once(tmp_path, monkeypatch):
    paths = Counter()
    real = geometry.char_trace

    def counted(path):
        paths[tuple(p.as_tuple() for p in path)] += 1
        return real(path)

    monkeypatch.setattr(geometry, "char_trace", counted)
    geometry._labeled_point.cache_clear()
    argv = ["--out-dir", str(tmp_path), "quadrature", "--x1=0.9302,0.0628",
            "--x2=-0.0317,-0.0849", "--eta", "7.15", "--contour", "1,0", "--compare-borel"]
    assert run(argv) == 0
    assert paths and set(paths.values()) == {1}


def test_console_script_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "pearcey_wkb.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "pearcey-wkb" in proc.stdout
