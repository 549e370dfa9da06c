"""Command-line interface.

Every subcommand writes deterministic files into the output directory; each
file carries a header with the package version, a hash of the resolved
configuration, and the tolerances in force.  Exit codes: 0 success, 1 usage
error, 2 validation error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import cmath
import hashlib
import json
import os
import random
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import __version__
from .aberth import ROOT_TOL
from .errors import NumericError, PearceyError, ValidationError
from .quadrature import LAPLACE_TOL
from .stokes import BISECTION_TOL
from .tracking import RESIDUAL_TOL

TOLERANCES = {
    "root_residual": ROOT_TOL,
    "tracking_residual": RESIDUAL_TOL,
    "bisection": BISECTION_TOL,
    "quadrature": LAPLACE_TOL,
}


_PROG = "pearcey-wkb"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


def _parse_complex(text: str) -> complex:
    """Accept 'a', 'a,b', or python-style 'a+bj'; the value must be finite."""
    text = str(text).strip()
    try:
        if "," in text:
            re_s, im_s = text.split(",", 1)
            value = complex(float(Fraction(re_s)), float(Fraction(im_s)))
        else:
            try:
                value = complex(float(Fraction(text)), 0.0)
            except ValueError:
                value = complex(text.replace(" ", ""))
    except (ValueError, ZeroDivisionError, OverflowError) as e:
        raise ValidationError(f"cannot parse number {text!r}: {e}") from None
    if not cmath.isfinite(value):
        raise ValidationError(f"number {text!r} is not finite")
    return value


def _parse_numbers(text: str, convert, count: int, what: str) -> list:
    """``count`` comma-separated numbers, each read by ``convert``; floats
    must be finite."""
    try:
        values = [convert(v) for v in text.split(",")]
    except ValueError:
        values = None
    if values is None or len(values) != count:
        raise ValidationError(f"{what}: cannot parse {text!r}")
    if any(isinstance(v, float) and not cmath.isfinite(v) for v in values):
        raise ValidationError(f"{what}: {text!r} is not finite")
    return values


def _cpx_json(z: complex) -> list[str]:
    return [repr(float(z.real)), repr(float(z.imag))]


@dataclass
class RunConfig:
    command: str
    options: dict = field(default_factory=dict)
    out_dir: str = "out"
    no_timestamp: bool = False

    def config_hash(self) -> str:
        blob = json.dumps(
            {"command": self.command, "options": self.options}, sort_keys=True
        )
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def meta(self) -> dict:
        return {
            "version": __version__,
            "config_hash": self.config_hash(),
            "tolerances": TOLERANCES,
            "command": self.command,
        }


def _ensure_out(cfg: RunConfig) -> str:
    os.makedirs(cfg.out_dir, exist_ok=True)
    return cfg.out_dir


def _write_json(cfg: RunConfig, name: str, payload: dict) -> str:
    path = os.path.join(_ensure_out(cfg), name)
    doc = {"meta": cfg.meta(), **payload}
    text = json.dumps(doc, indent=1, sort_keys=True)  # one write, not json.dump's chunks
    with open(path, "w") as f:
        f.write(text + "\n")
    return path

def _write_csv(cfg: RunConfig, name: str, chunks) -> str:
    """The meta header, then each text chunk as it comes."""
    path = os.path.join(_ensure_out(cfg), name)
    meta = cfg.meta()
    head = "".join(
        f"# {k}: {json.dumps(meta[k], sort_keys=True)}\n" for k in sorted(meta)
    )
    with open(path, "w") as f:
        f.write(head)
        f.writelines(chunks)
    return path


def _write_svg(cfg: RunConfig, name: str, svg: str) -> str:
    path = os.path.join(_ensure_out(cfg), name)
    stamp = "" if cfg.no_timestamp else f" generated {time.strftime('%Y-%m-%dT%H:%M:%S')}"
    svg = svg.replace("<!-- META -->", f"<!-- {json.dumps(cfg.meta(), sort_keys=True)}{stamp} -->")
    with open(path, "w") as f:
        f.write(svg)
    return path


def _load_config_file(path: str) -> dict:
    out = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValidationError(f"bad config line: {line!r}")
            k, v = line.split("=", 1)
            out[k.strip().replace("-", "_")] = v.strip()
    return out


_NOT_CONFIGURABLE = {"help", "config"}
_BOOLEANS = {"true": True, "false": False}


def _config_value(parser, action, text: str):
    """A config-file string parsed the way the flag's own action would."""
    key = action.dest
    try:
        if action.nargs == 0:  # store_true
            return _BOOLEANS[text.lower()]
        value = action.type(text) if action.type else text
    except (KeyError, ValueError):
        parser.error(f"config {key}: invalid value {text!r}")
    if action.choices is not None and value not in action.choices:
        parser.error(f"config {key}: {value!r} is not one of {list(action.choices)}")
    return value


_shared_parser = None  # the parser of every call without --config, built on first use


def _parse_args(argv):
    """Parse argv with ``--config`` values in between: flag > config > default.

    A config key names a subcommand option (its dest, dashes or
    underscores) or one of the common options.  Options with a real default
    get the config value as their default before parsing; the rest (no
    default, repeatable, common) are filled in afterwards when no flag gave
    them.  Options given by the config file are no longer required flags.
    Calls without ``--config`` share one parser; a call with it builds its
    own, whose options it edits.
    """
    global _shared_parser
    pre = _Parser(prog=_PROG, add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if not path:
        if _shared_parser is None:
            _shared_parser = build_parser()
        return _shared_parser.parse_args(argv)
    parser = build_parser()
    try:
        config = _load_config_file(path)
    except (OSError, ValidationError) as e:
        parser.error(f"config file: {e}")
    subparsers = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    for sub in subparsers.values():
        for action in sub._actions:
            if action.dest not in config or action.dest in _NOT_CONFIGURABLE:
                continue
            action.required = False
            if action.default not in (None, argparse.SUPPRESS):
                action.default = _config_value(parser, action, config[action.dest])
    args = parser.parse_args(argv)
    actions = {a.dest: a for a in subparsers[args.command]._actions}
    unknown = sorted(k for k in config if k not in actions or k in _NOT_CONFIGURABLE)
    if unknown:
        parser.error(f"config keys not options of {args.command}: {', '.join(unknown)}")
    for key, text in config.items():
        action = actions[key]
        if action.default in (None, argparse.SUPPRESS) and getattr(args, key, None) is None:
            value = _config_value(parser, action, text)
            if isinstance(action, argparse._AppendAction):
                value = [value]
            setattr(args, key, value)
    return args


def _resolve_path(spec: str):
    from .stokes import PAPER_POLYLINE

    if spec == "paper-polyline":
        return [(complex(a), complex(b)) for a, b in PAPER_POLYLINE]
    if os.path.exists(spec):
        try:
            with open(spec) as f:
                rows = json.load(f)
            if any(len(p) != 4 for p in rows):
                raise ValueError("every row must be 4 numbers x1re, x1im, x2re, x2im")
            return [(complex(*map(float, p[:2])), complex(*map(float, p[2:]))) for p in rows]
        except (OSError, ValueError, TypeError) as e:
            raise ValidationError(f"path file {spec!r}: {e}") from None
    # inline: semicolon-separated vertices "x1re,x1im/x2re,x2im"
    pts = []
    for vertex in spec.split(";"):
        if vertex.count("/") != 1:
            raise ValidationError(f"path {spec!r}: {vertex!r} is not a file or x1/x2 vertex")
        a, b = vertex.split("/")
        pts.append((_parse_complex(a), _parse_complex(b)))
    if len(pts) < 2:
        raise ValidationError("path needs at least 2 vertices")
    return pts


# -- subcommand implementations -------------------------------------------------


def _cmd_series(cfg: RunConfig, args) -> int:
    from .wkb_series import build_series

    table = build_series(args.order)
    payload = {"series": table.to_json()}
    p = _write_json(cfg, "series.json", payload)
    print(p)
    return 0


def _cmd_geometry(cfg: RunConfig, args) -> int:
    from .geometry import (
        PlanePoint,
        char_roots,
        critical_values,
        export_polynomials,
        turning_discriminant,
    )

    x = PlanePoint(_parse_complex(args.x1), _parse_complex(args.x2))
    value, on_set = turning_discriminant(x)
    payload = {"turning_discriminant": _cpx_json(value), "on_turning_set": bool(on_set)}
    if not on_set:
        zr = char_roots(x)
        us = critical_values(x)
        payload["char_roots"] = [_cpx_json(z) for z in zr.values]
        payload["critical_values"] = [_cpx_json(u) for u in us.values]
    if args.export_polys:
        payload["derived_polynomials"] = export_polynomials()
    p = _write_json(cfg, "geometry.json", payload)
    print(p)
    return 0


def _cmd_borel(cfg: RunConfig, args) -> int:
    from .geometry import PlanePoint
    from .borel import psi_borel_eval
    from .wkb_series import borel_coeffs

    x = PlanePoint(_parse_complex(args.x1), _parse_complex(args.x2))
    y = _parse_complex(args.y)
    res = psi_borel_eval(args.ell, x, y, allow_unvalidated=args.allow_unvalidated)
    bct = borel_coeffs(x, args.ell, args.order)
    payload = {
        "psi_value": _cpx_json(res.value),
        "chart_validated": bool(res.chart_validated),
        "singularity": _cpx_json(bct.base),
        "series_coefficients": [_cpx_json(c) for c in bct.coeffs],
    }
    if args.monodromy:
        from .borel import cycle_notation, monodromy

        payload["monodromy"] = {
            f"around_u{ell}": cycle_notation(monodromy(ell, x)) for ell in (1, 2, 3)
        }
    p = _write_json(cfg, "borel.json", payload)
    print(p)
    return 0


def _cmd_stokes_section(cfg: RunConfig, args) -> int:
    from .stokes import raster_section
    from .svgout import render_section

    window = tuple(_parse_numbers(args.window, float, 4, "window re0,re1,im0,im1"))
    section = raster_section(
        _parse_complex(args.x2), window, args.res, with_sextic=args.with_sextic
    )
    p1 = _write_csv(cfg, "stokes_section.csv", section.csv_chunks())
    extra = [_parse_complex(d) for d in (args.mark or [])]
    p2 = _write_svg(cfg, "stokes_section.svg", render_section(section, extra, "META"))
    print(p1)
    print(p2)
    return 0


def _cmd_track_u(cfg: RunConfig, args) -> int:
    from .stokes import track_u
    from .svgout import render_trajectories

    path = _resolve_path(args.path)
    traj = track_u(path)
    rows = ["tau,x1_re,x1_im,x2_re,x2_im,u1_re,u1_im,u2_re,u2_im,u3_re,u3_im\n"]
    for tau, (x1, x2), vals in zip(traj.taus, traj.points, traj.values):
        cells = [tau, x1.real, x1.imag, x2.real, x2.imag]
        for v in vals.tolist():
            cells += (v.real, v.imag)
        rows.append(",".join(map(repr, cells)) + "\n")
    p = _write_csv(cfg, "track_u.csv", rows)
    print(p)
    if args.panels:
        nseg = len(path) - 1
        taus = [min(1.0, (v - 1) / nseg) for v in range(1, len(path) + 1)]
        for v, svg in enumerate(render_trajectories(traj, taus, meta="META"), start=1):
            print(_write_svg(cfg, f"trajectories_{v:02d}.svg", svg))
    return 0


def _cmd_events(cfg: RunConfig, args) -> int:
    from .stokes import detect_events

    path = _resolve_path(args.path)
    _, events = detect_events(path)
    payload = {"events": [e.to_json() for e in events]}
    p = _write_json(cfg, "events.json", payload)
    print(p)
    return 0


def _cmd_connect(cfg: RunConfig, args) -> int:
    from .stokes import connection_walk

    path = _resolve_path(args.path)
    walk = connection_walk(path)
    payload = {
        "crossings": [
            {"event": ev.to_json(), "matrix": mat.to_json()} for ev, mat in walk
        ]
    }
    p = _write_json(cfg, "connect.json", payload)
    print(p)
    return 0


def _cmd_verify(cfg: RunConfig, args) -> int:
    from .geometry import PlanePoint
    from .wkb_series import build_series
    from .zeta_ring import homogeneity_residual
    from .borel import branches_at_origin, verify_annihilation

    if args.samples < 1:
        raise ValidationError(f"--samples must be at least 1, not {args.samples}")
    checks = []
    order = args.order
    table = build_series(order)
    ok = all(
        table.s1_at(j).derive("d2") == table.s2_at(j).derive("d1")
        for j in range(-1, order + 1)
    )
    checks.append(("closedness_exact", ok))
    ok = all(
        homogeneity_residual(table.s1_at(j), 4 * (j + 1) - 1).is_zero()
        and homogeneity_residual(table.s2_at(j), 4 * (j + 1) - 2).is_zero()
        for j in range(-1, order + 1)
    )
    checks.append(("homogeneity_exact", ok))
    rng = random.Random(0)
    worst = 0.0
    for _ in range(args.samples):
        a, b, c, d, e = (rng.gauss(0.0, 1.0) for _ in range(5))
        x = PlanePoint(1.0 + 0.2 * a, 0.08 * complex(b, c))
        y = 0.04 * complex(d, e)
        worst = max(worst, *verify_annihilation(x, y))
    checks.append(("annihilation_residual<1e-8", worst < 1e-8))
    h = branches_at_origin(0.05, 0.02)
    checks.append(("quartic_root_sum", abs(h.sum()) < 1e-10))
    from .borel import cycle_notation, monodromy

    perms = [cycle_notation(monodromy(ell, PlanePoint(1.0, 0.0))) for ell in (1, 2, 3)]
    checks.append(("monodromy_transpositions", perms == ["(1 4)", "(2 4)", "(3 4)"]))
    from .borel import SheetField, discontinuity, psi_on_cut

    xd = PlanePoint(1.0, 0.07)
    fd = SheetField(xd)
    yd = fd.u_vals[2] + 0.25 * fd.min_sep
    d = discontinuity("plain", 1, 3, fd, yd)
    rhs = -psi_on_cut(fd, 3, yd)
    checks.append(("jump_identity_sample", abs(d.value - rhs) < 1e-6 * abs(rhs)))

    failed = [name for name, ok in checks if not ok]
    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    payload = {"checks": {name: bool(ok) for name, ok in checks}}
    _write_json(cfg, "verify.json", payload)
    if failed:
        raise NumericError(f"verification failed: {failed}")
    return 0


def _cmd_quadrature(cfg: RunConfig, args) -> int:
    from .borel import SheetField
    from .geometry import PlanePoint
    from .quadrature import (
        LAPLACE_ORDER,
        laplace_borel_sum,
        match_borel_combination,
        pearcey_quadrature,
    )
    from .wkb_series import build_series

    x = PlanePoint(_parse_complex(args.x1), _parse_complex(args.x2))
    (eta,) = _parse_numbers(args.eta, float, 1, "eta")
    a, b = _parse_numbers(args.contour, int, 2, "contour a,b")
    value = pearcey_quadrature(x, eta, (a, b))
    payload = {"contour": [a, b], "eta": repr(eta), "value": _cpx_json(value)}
    if args.compare_borel:
        table = build_series(LAPLACE_ORDER)
        sums = [laplace_borel_sum(ell, x, eta, table=table) for ell in (1, 2, 3)]
        psis = [r.value for r in sums]
        phase, eps = match_borel_combination(value, psis)
        payload["chart_validated"] = bool(SheetField(x).chart_validated)
        payload["borel_sums"] = [_cpx_json(p) for p in psis]
        payload["laplace"] = [{"nodes": r.nodes, "converged": r.converged} for r in sums]
        payload["matched_combination"] = {
            "phase": _cpx_json(phase),
            "coefficients": list(eps),
        }
    p = _write_json(cfg, "quadrature.json", payload)
    print(p)
    return 0


# -- argument wiring ---------------------------------------------------------------


def build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="key=value config file (flags override)")
    common.add_argument("--out-dir", default=argparse.SUPPRESS)
    common.add_argument("--no-timestamp", action="store_true",
                        default=argparse.SUPPRESS,
                        help="suppress the SVG timestamp for byte-identical output")
    parser = _Parser(prog=_PROG, description=__doc__, parents=[common])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("series", help="exact WKB series table")
    p.add_argument("--order", type=int, default=8)

    p = add_parser("geometry", help="roots, singularities, derived polynomials")
    p.add_argument("--x1", required=True)
    p.add_argument("--x2", required=True)
    p.add_argument("--export-polys", action="store_true")

    p = add_parser("borel", help="Borel transform value and local series")
    p.add_argument("--x1", required=True)
    p.add_argument("--x2", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--ell", type=int, required=True, choices=[1, 2, 3])
    p.add_argument("--order", type=int, default=8)
    p.add_argument("--allow-unvalidated", action="store_true")
    p.add_argument("--monodromy", action="store_true",
                   help="include sheet permutations around each singularity")

    p = add_parser("stokes-section", help="raster section of the Stokes set")
    p.add_argument("--x2", required=True)
    p.add_argument("--window", required=True, help="re0,re1,im0,im1")
    p.add_argument("--res", type=int, default=128)
    p.add_argument("--with-sextic", action="store_true")
    p.add_argument("--mark", action="append", help="extra marker point (repeatable)")

    p = add_parser("track-u", help="track the labeled singularities along a path")
    p.add_argument("--path", required=True, help="'paper-polyline', file, or inline spec")
    p.add_argument("--panels", action="store_true", help="emit one SVG per vertex")

    p = add_parser("events", help="Stokes and segment crossings along a path")
    p.add_argument("--path", required=True)

    p = add_parser("connect", help="connection matrices along a path")
    p.add_argument("--path", required=True)

    p = add_parser("verify", help="run the built-in identity battery")
    p.add_argument("--order", type=int, default=6)
    p.add_argument("--samples", type=int, default=5)

    p = add_parser("quadrature", help="defining integral over a valley pair")
    p.add_argument("--x1", required=True)
    p.add_argument("--x2", required=True)
    p.add_argument("--eta", required=True)
    p.add_argument("--contour", required=True, help="a,b valley indices 0..3")
    p.add_argument("--compare-borel", action="store_true")

    return parser


_COMMANDS = {
    "series": _cmd_series,
    "geometry": _cmd_geometry,
    "borel": _cmd_borel,
    "stokes-section": _cmd_stokes_section,
    "track-u": _cmd_track_u,
    "events": _cmd_events,
    "connect": _cmd_connect,
    "verify": _cmd_verify,
    "quadrature": _cmd_quadrature,
}


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    options = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("command", "config", "out_dir", "no_timestamp") and v is not None
    }
    cfg = RunConfig(
        command=args.command,
        options={k: str(v) for k, v in options.items()},
        out_dir=getattr(args, "out_dir", "out"),
        no_timestamp=bool(getattr(args, "no_timestamp", False)),
    )
    try:
        return _COMMANDS[args.command](cfg, args)
    except ValidationError as e:
        print(f"validation error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3
    except PearceyError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
