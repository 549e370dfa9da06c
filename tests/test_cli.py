import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

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


def test_track_u_panels_equal_panels_drawn_alone(tmp_path):
    # the panels of one pass over the trace are those drawn one at a time
    from oracles import trajectory_panel
    from pearcey_wkb.stokes import PAPER_POLYLINE, track_u
    from pearcey_wkb.svgout import render_trajectories

    for path in (PAPER_POLYLINE, PAPER_POLYLINE[::-1][:4]):
        traj = track_u(path)
        taus = [min(1.0, v / (len(path) - 1)) for v in range(len(path))]
        panels = render_trajectories(traj, taus, meta="META")
        assert panels == [trajectory_panel(traj, t, meta="META") for t in taus]
    out = tmp_path / "o"
    assert run(["--out-dir", str(out), "--no-timestamp", "track-u", "--path", "paper-polyline",
                "--panels"]) == 0
    assert len(list(out.glob("trajectories_*.svg"))) == len(PAPER_POLYLINE)


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


def test_config_call_leaves_later_calls_at_the_defaults(tmp_path, monkeypatch):
    # calls without --config share one parser; a --config call edits a
    # parser of its own, so its defaults and optional flags do not leak
    from pearcey_wkb import cli

    built, seen = [], []
    real_build = cli.build_parser

    def build():
        built.append(1)
        return real_build()

    monkeypatch.setattr(cli, "build_parser", build)
    monkeypatch.setattr(cli, "_shared_parser", None)
    monkeypatch.setitem(cli._COMMANDS, "series", lambda cfg, args: seen.append(args.order) or 0)
    monkeypatch.setitem(cli._COMMANDS, "geometry", lambda cfg, args: seen.append(args.x1) or 0)
    order, x1 = tmp_path / "order", tmp_path / "x1"
    order.write_text("order=3\n")
    x1.write_text("x1=1\n")
    out = ["--out-dir", str(tmp_path / "o")]
    assert run([*out, "series", "--config", str(order)]) == 0
    assert run([*out, "series"]) == 0
    assert run([*out, "geometry", "--config", str(x1), "--x2", "0"]) == 0
    assert run([*out, "geometry", "--x1", "2", "--x2", "0"]) == 0
    assert seen == [3, 8, "1", "2"]
    with pytest.raises(SystemExit) as exc:  # --x1 is a required flag again
        run([*out, "geometry", "--x2", "0"])
    assert exc.value.code == 1
    assert len(built) == 3  # one per --config call and one shared


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

    # one panel per ray cannot reach the tolerance here
    monkeypatch.setattr(quadrature, "MAX_DEPTH", 0)
    argv = ["--out-dir", str(tmp_path), "quadrature", "--x1", "1", "--x2", "0",
            "--eta", "1", "--contour", "0,1"]
    assert run(argv) == 3
    assert "did not reach tol 1.35e-10 after 0 bisections" in capsys.readouterr().err


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


def test_verify_and_quadrature_leave_numpy_random_and_polynomial_unloaded(tmp_path):
    # numpy loads both lazily: verify draws its samples with the standard
    # library, and the Gauss-Kronrod panel rule is tabulated
    import pearcey_wkb

    code = "\n".join([
        "import sys",
        "from pearcey_wkb.cli import main",
        f"out = {str(tmp_path)!r}",
        "assert main(['--out-dir', out, 'verify']) == 0",
        "assert main(['--out-dir', out, 'quadrature', '--x1', '1', '--x2', '0.1',"
        " '--eta', '10', '--contour', '1,2', '--compare-borel']) == 0",
        "print(sorted(m for m in sys.modules if m.startswith(('numpy.random', 'numpy.polynomial'))))",
    ])
    src = str(Path(pearcey_wkb.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_one_compile_per_family_in_a_fresh_process(tmp_path):
    # series, verify and borel in one fresh process: each generated source
    # (a step kernel of one degree, the quartic jet, the operator list, the
    # numerators of one series table, ...) is compiled once, under its name
    import pearcey_wkb

    code = "\n".join([
        "import builtins, collections, json",
        "names = collections.Counter()",
        "real = builtins.compile",
        "def counted(source, filename, *args, **kw):",
        "    names[filename] += str(filename).startswith('<')",
        "    return real(source, filename, *args, **kw)",
        "builtins.compile = counted",
        "from pearcey_wkb.cli import main",
        f"out = {str(tmp_path)!r}",
        "assert main(['--out-dir', out, 'series', '--order', '10']) == 0",
        "assert main(['--out-dir', out, 'verify']) == 0",
        "assert main(['--out-dir', out, 'borel', '--x1=1.2252,0.0451', '--x2=-0.0934,0.1130',"
        " '--y=-0.1922,-0.4663', '--ell', '2']) == 0",
        "print(json.dumps({k: v for k, v in names.items() if v}))",
    ])
    src = str(Path(pearcey_wkb.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    names = json.loads(proc.stdout.splitlines()[-1])
    assert set(names.values()) == {1}, names
    # the order-10 table serves verify's order 6 and borel's order 8 too
    assert {"<step kernel, degree 4>", "<quartic jet>", "<borel operators>",
            "<series numerators f_0..f_10>"} <= set(names)
    assert not any(n.startswith("<series numerators") for n in set(names) - {
        "<series numerators f_0..f_10>"})
    # and the coefficients it evaluates are ZetaRational.eval's, bit for bit
    from math import pi, sqrt

    from pearcey_wkb.wkb_series import borel_coeffs, build_series, gamma_half_ratio

    table = build_series(10)
    for x, ell, order in [(geometry.PlanePoint(1.2252 + 0.0451j, -0.0934 + 0.1130j), 2, 8),
                          (geometry.PlanePoint(1.0, 0.1), 3, 10),
                          (geometry.PlanePoint(0.9302 + 0.0628j, -0.0317 - 0.0849j), 1, 6)]:
        point = geometry.labeled_point(x)
        z0, f0 = point.zetas[ell], point.f0(ell)
        want = [table.f[j].eval(z0, complex(x.x2)) * f0 / (sqrt(pi) * float(gamma_half_ratio(j)))
                for j in range(order + 1)]
        assert borel_coeffs(x, ell, order).coeffs == want


QUADRATURE = ["quadrature", "--x1", "1", "--x2", "0"]


@pytest.mark.parametrize(
    "argv, text",
    [
        (["track-u", "--path", "0.1,0"], "'0.1,0'"),
        (["events", "--path", "missing.json"], "'missing.json'"),
        (["connect", "--path", "{tmp}/rows.json"], "rows.json"),
        (["track-u", "--path", "{tmp}/short.json"], "short.json"),
        (["events", "--path", "{tmp}/text.json"], "text.json"),
        (["stokes-section", "--x2", "0", "--window=a,1,-1,1", "--res", "16"], "'a,1,-1,1'"),
        ([*QUADRATURE, "--eta", "abc", "--contour", "0,1"], "'abc'"),
        ([*QUADRATURE, "--eta", "1", "--contour", "1"], "'1'"),
        ([*QUADRATURE, "--eta", "1", "--contour", "a,b"], "'a,b'"),
    ],
    ids=["inline-vertex", "missing-file", "row-of-two", "row-not-numbers", "not-json",
         "window", "eta", "contour-one", "contour-letters"],
)
def test_malformed_input_is_a_validation_error(tmp_path, capsys, monkeypatch, argv, text):
    monkeypatch.chdir(tmp_path)  # "missing.json" is not there
    (tmp_path / "rows.json").write_text("[[0.15, 0, 0, 0], [0.15, 0]]")
    (tmp_path / "short.json").write_text('[[0.15, 0, 0, 0], ["a", "b", "c", "d"]]')
    (tmp_path / "text.json").write_text("0.15,0/0,0;0.2,0/0,0")
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    assert run(["--out-dir", str(tmp_path / "o"), *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and text in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "argv, code, text",
    [
        (["stokes-section", "--x2=inf", "--window=-1,1,-1,1", "--res", "16"], 2,
         "validation error: number 'inf' is not finite"),
        (["stokes-section", "--x2=1e200", "--window=-1,1,-1,1", "--res", "16"], 3,
         "numeric failure: coefficient evaluation overflows at x1 = <256 values>, "
         "x2 = (1e+200+0j)"),
        (["stokes-section", "--x2", "0", "--window=-1e200,1e200,-1,1", "--res", "16"], 2,
         "validation error: cell (i, j) = (0, 0) at x1 = (-1e+200-1j): "
         "polynomial coefficients must be finite"),
        (["geometry", "--x1", "1", "--x2=1e200"], 3,
         "numeric failure: turning discriminant overflows at (x1, x2) = "
         "((1+0j), (1e+200+0j))"),
        (["geometry", "--x1", "1e400", "--x2", "0"], 2,
         "validation error: cannot parse number '1e400'"),
        (["borel", "--x1=1e200", "--x2", "0", "--y", "0.1", "--ell", "1"], 3,
         "numeric failure: turning discriminant overflows at (x1, x2) = ((1e+200+0j), 0j)"),
        (["track-u", "--path", "0.15,0/0,0;1e200,0/0,0"], 3,
         "numeric failure: coefficient evaluation overflows at x1 = (1.25e+199+0j), x2 = 0j"),
        ([*QUADRATURE, "--eta", "nan", "--contour", "0,1"], 2,
         "validation error: eta: 'nan' is not finite"),
        (["borel", "--x1=1", "--x2=0", "--y=1e200", "--ell", "1"], 3,
         "numeric failure: continuing to y = (1e+200+0j): near-discriminant passage: "
         "step underflow"),
        (["quadrature", "--x1=1e200", "--x2=0", "--eta", "1", "--contour", "0,1"], 2,
         "validation error: peak cubic -4 |eta| r^3 + 2 Re(eta x2 d^2) r + Re(eta x1 d) "
         "on valley ray 0 at (x1, x2) = ((1e+200+0j), 0j): leading coefficient"),
    ],
    ids=["section-inf", "section-overflow", "section-window", "geometry-overflow",
         "geometry-1e400", "borel-overflow", "track-u-overflow", "quadrature-nan",
         "borel-huge-y", "quadrature-saddle"],
)
def test_huge_and_non_finite_numbers_exit_typed(tmp_path, capsys, argv, code, text):
    assert run(["--out-dir", str(tmp_path / "o"), *argv]) == code
    err = capsys.readouterr().err
    assert err.startswith(text) and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_path_file_rows_parse_as_before(tmp_path):
    # a JSON file of [x1re, x1im, x2re, x2im] rows gives the inline path's bytes
    rows = [[0.15, 0, 0, 0], [0.15, 0, 0.32, 0], [0.15, 0, 0.5, 0.25]]
    (tmp_path / "path.json").write_text(json.dumps(rows))
    inline = "0.15,0/0,0;0.15,0/0.32,0;0.15,0/0.5,0.25"
    for name, spec in (("file", str(tmp_path / "path.json")), ("inline", inline)):
        assert run(["--out-dir", str(tmp_path / name), "--no-timestamp", "track-u",
                    "--path", spec]) == 0
    body = {name: [line for line in (tmp_path / name / "track_u.csv").read_text().splitlines()
                   if not line.startswith("#")] for name in ("file", "inline")}
    assert len(body["file"]) > 3 and body["file"] == body["inline"]


def test_verify_needs_a_sample(tmp_path, capsys):
    # zero samples would pass the annihilation check without evaluating it
    assert run(["--out-dir", str(tmp_path / "o"), "verify", "--samples", "0"]) == 2
    captured = capsys.readouterr()
    assert "--samples must be at least 1, not 0" in captured.err
    assert "PASS" not in captured.out
    assert not (tmp_path / "o").exists()


def test_console_script_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "pearcey_wkb.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "pearcey-wkb" in proc.stdout
