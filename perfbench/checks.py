"""Output checks for the benchmark's CLI calls.

``extract`` reads what one CLI call produced (exit code, printed lines and
artifacts) into a small JSON-ready record; the reference file holds the
records of the parent commit.  ``compare`` checks a fresh record against
its reference:

* exact and sign artifacts must agree byte for byte: ``series.json``'s
  series payload, the section CSV outside the reference's
  ``near_turning`` cells (labels there are documented as best-effort),
  event kinds, pairs and roles, and connection matrices;
* floating values must agree within the CLI's own ``meta.tolerances`` as
  recorded in the reference;
* every ``verify`` line must read PASS;
* the exit code must match.

This module imports nothing from the package under test.
"""

from __future__ import annotations

import hashlib
import json
import os

from workloads import PAPER_POLYLINE


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _load_json(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


def _float(v) -> float:
    # track_u.csv writes numpy scalars by repr, e.g. "np.float64(0.5)"
    if isinstance(v, str) and v.endswith(")"):
        v = v[v.index("(") + 1:-1]
    return float(v)


def _cpx(pair) -> complex:
    return complex(_float(pair[0]), _float(pair[1]))


def _csv_rows(path: str) -> tuple[dict, list[list[str]]]:
    """Meta header and rows of a CLI CSV artifact (column header dropped)."""
    meta = {}
    rows = []
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, value = line[2:].split(": ", 1)
                meta[key] = json.loads(value)
            elif line:
                rows.append(line.split(","))
    return meta, rows[1:]


def _flag(argv: list[str], name: str) -> str | None:
    for i, a in enumerate(argv):
        if a.startswith(name + "="):
            return a.split("=", 1)[1]
        if a == name and i + 1 < len(argv):
            return argv[i + 1]
    return None


def path_vertices(spec: str) -> list[tuple[complex, complex]]:
    if spec == "paper-polyline":
        return [(complex(a), complex(b)) for a, b in PAPER_POLYLINE]
    out = []
    for vertex in spec.split(";"):
        a, b = vertex.split("/")
        out.append(tuple(complex(*(float(v) for v in p.split(","))) for p in (a, b)))
    return out


def _event_key(e: dict) -> list:
    return [e["kind"], e["pair"], e.get("crosser"), e.get("dominant"),
            e.get("recessive"), e.get("im_before")]


def _event_floats(e: dict) -> dict:
    return {"tau": e["tau"], "x1": e["x1"], "x2": e["x2"]}


def extract(argv: list[str], out_dir: str, rc: int, stdout: str) -> dict:
    """Record of one CLI call's outcome, comparable with ``compare``."""
    rec = {"rc": rc}
    if rc != 0:
        return rec
    cmd = argv[0]
    if cmd == "series":
        doc = _load_json(os.path.join(out_dir, "series.json"))
        rec["series_sha"] = _sha(json.dumps(doc["series"], sort_keys=True))
    elif cmd == "verify":
        doc = _load_json(os.path.join(out_dir, "verify.json"))
        rec["lines"] = [ln for ln in stdout.splitlines() if ln.strip()]
        rec["checks"] = doc["checks"]
    elif cmd == "borel":
        doc = _load_json(os.path.join(out_dir, "borel.json"))
        for key in ("psi_value", "chart_validated", "singularity", "series_coefficients"):
            rec[key] = doc[key]
    elif cmd == "quadrature":
        doc = _load_json(os.path.join(out_dir, "quadrature.json"))
        for key in ("value", "borel_sums", "matched_combination"):
            rec[key] = doc.get(key)
    elif cmd == "stokes-section":
        _, rows = _csv_rows(os.path.join(out_dir, "stokes_section.csv"))
        rec["coords_sha"] = _sha("\n".join(",".join(r[:4]) for r in rows))
        # one hex digit per cell: sign bits of the three pairs, near-turning bit
        rec["cells"] = "".join(
            "%x" % ((r[4] == "1") | (r[5] == "1") << 1 | (r[6] == "1") << 2 | (r[7] == "1") << 3)
            for r in rows
        )
        rec["svg"] = os.path.getsize(os.path.join(out_dir, "stokes_section.svg")) > 0
    elif cmd == "track-u":
        _, rows = _csv_rows(os.path.join(out_dir, "track_u.csv"))
        nseg = len(path_vertices(_flag(argv, "--path"))) - 1
        vertex_taus = {k / nseg: k for k in range(nseg + 1)}
        vertices = {}
        for r in rows:
            k = vertex_taus.get(_float(r[0]))
            if k is not None and k not in vertices:
                vertices[k] = r[5:]
        rec["vertex_u"] = [vertices.get(k) for k in range(nseg + 1)]
        rec["panels"] = sum(1 for ln in stdout.splitlines() if ln.endswith(".svg"))
    elif cmd == "events":
        doc = _load_json(os.path.join(out_dir, "events.json"))
        rec["events"] = [_event_key(e) for e in doc["events"]]
        rec["event_floats"] = [_event_floats(e) for e in doc["events"]]
    elif cmd == "connect":
        doc = _load_json(os.path.join(out_dir, "connect.json"))
        rec["events"] = [_event_key(c["event"]) for c in doc["crossings"]]
        rec["event_floats"] = [_event_floats(c["event"]) for c in doc["crossings"]]
        rec["matrices"] = [c["matrix"] for c in doc["crossings"]]
    else:
        raise ValueError(f"no extractor for subcommand {cmd!r}")
    return rec


def _close(got, ref, tol: float) -> bool:
    """Relative agreement of two [re, im] pairs (absolute when ref is 0)."""
    r = _cpx(ref)
    return abs(_cpx(got) - r) <= tol * (abs(r) or 1.0)


def _close_list(got, ref, tol: float) -> bool:
    if got is None or ref is None or len(got) != len(ref):
        return got == ref
    return all(_close(g, r, tol) for g, r in zip(got, ref))


def _compare_quadrature(got: dict, ref: dict, tol: float) -> list[str]:
    problems = []
    if not _close(got["value"], ref["value"], tol):
        problems.append("quadrature value differs")
    if ref["borel_sums"] is not None and not _close_list(got["borel_sums"], ref["borel_sums"], tol):
        problems.append("Borel sums differ")
    if got["matched_combination"] != ref["matched_combination"]:
        problems.append("matched combination differs")
    return problems


def compare(argv: list[str], got: dict, ref: dict, tolerances: dict) -> list[str]:
    """Problems found in ``got`` against the reference record ``ref``."""
    cmd = argv[0]
    if got["rc"] != ref["rc"]:
        return [f"exit code {got['rc']}, reference {ref['rc']}"]
    if got["rc"] != 0:
        return []
    problems = []
    track_tol = tolerances["tracking_residual"]
    if cmd == "series":
        if got["series_sha"] != ref["series_sha"]:
            problems.append("series payload differs")
    elif cmd == "verify":
        if not got["lines"] or any(not ln.startswith("PASS ") for ln in got["lines"]):
            problems.append("a verify line does not read PASS")
        if any(not got["checks"].get(name) for name in ref["checks"]):
            problems.append("a reference check is missing or failed")
    elif cmd == "borel":
        if not _close(got["psi_value"], ref["psi_value"], track_tol):
            problems.append("psi value differs")
        if got["chart_validated"] != ref["chart_validated"]:
            problems.append("chart flag differs")
        if not _close(got["singularity"], ref["singularity"], track_tol):
            problems.append("singularity differs")
        if not _close_list(got["series_coefficients"], ref["series_coefficients"], track_tol):
            problems.append("series coefficients differ")
    elif cmd == "quadrature":
        problems += _compare_quadrature(got, ref, tolerances["quadrature"])
    elif cmd == "stokes-section":
        if got["coords_sha"] != ref["coords_sha"]:
            problems.append("section grid differs")
        elif any(
            r != g for r, g in zip(ref["cells"], got["cells"]) if not int(r, 16) & 8
        ):
            problems.append("section signs differ outside near-turning cells")
        if not got["svg"]:
            problems.append("section SVG is empty")
    elif cmd == "track-u":
        if got["panels"] != ref["panels"]:
            problems.append("panel count differs")
        for g, r in zip(got["vertex_u"], ref["vertex_u"]):
            if g is None or r is None:
                if g != r:
                    problems.append("vertex sample missing")
                continue
            gu = [_cpx(g[i:i + 2]) for i in (0, 2, 4)]
            ru = [_cpx(r[i:i + 2]) for i in (0, 2, 4)]
            scale = max(abs(u) for u in ru) or 1.0
            if any(abs(a - b) > track_tol * scale for a, b in zip(gu, ru)):
                problems.append("labeled u differ at a path vertex")
                break
    elif cmd in ("events", "connect"):
        if got["events"] != ref["events"]:
            problems.append("event kinds, pairs or roles differ")
        else:
            tol = tolerances["bisection"]
            verts = path_vertices(_flag(argv, "--path"))
            speed = (len(verts) - 1) * max(
                max(abs(b[0] - a[0]), abs(b[1] - a[1])) for a, b in zip(verts, verts[1:])
            )
            for g, r in zip(got["event_floats"], ref["event_floats"]):
                if abs(g["tau"] - r["tau"]) > tol:
                    problems.append("event position differs")
                    break
                if any(abs(_cpx(g[k]) - _cpx(r[k])) > tol * speed for k in ("x1", "x2")):
                    problems.append("event point differs")
                    break
        if cmd == "connect" and got["matrices"] != ref["matrices"]:
            problems.append("connection matrices differ")
    return problems


def reference_key(argv: list[str]) -> str:
    return json.dumps(argv)
