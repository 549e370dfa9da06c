#!/usr/bin/env python3
"""Compare two artifact trees written by ``compare_artifacts.py``.

Usage: python3 scripts/diff_artifacts.py OUT_A OUT_B

Prints how many files are byte-identical and lists the others.  For a JSON
file that differs it prints the worst relative difference over the floats
at the same key path (an [re, im] pair counts as one complex number) and
every key found on one side only.  Floats are JSON numbers with a fraction
or strings that parse as floats, the form the CLI writes them in.  A CSV
file that differs is compared cell by cell: cells that parse as floats and
are not integer literals by the worst relative difference, every other cell
exactly.

Exits 1 if any difference is not a float difference: a file on one side
only, a differing file that is neither JSON nor CSV, a differing string,
integer, boolean or list length, a differing non-float CSV cell or a CSV row
count or length that differs; exits 0 otherwise.
"""

import csv
import json
import os
import sys


def _files(root):
    out = set()
    for d, _, names in os.walk(root):
        out.update(os.path.relpath(os.path.join(d, n), root) for n in names)
    return out


def _float(v):
    if isinstance(v, float):
        return v
    if isinstance(v, str):
        try:
            return float(v)
        except ValueError:
            return None
    return None


def _number(v):
    """The complex value of a float or an [re, im] pair, else None."""
    if isinstance(v, list) and len(v) == 2:
        re, im = _float(v[0]), _float(v[1])
        return None if re is None or im is None else complex(re, im)
    re = _float(v)
    return None if re is None else complex(re)


def _walk(a, b, path, report):
    """Record in ``report`` how a and b differ below key path ``path``."""
    if a == b:
        return
    za, zb = _number(a), _number(b)
    if za is not None and zb is not None:
        rel = abs(za - zb) / max(abs(za), abs(zb)) if za != zb else 0.0
        if rel > report["worst"][0]:
            report["worst"] = (rel, path)
    elif isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(a.keys() | b.keys()):
            if k not in b:
                report["only"].append(f"only in A: {path}.{k}")
            elif k not in a:
                report["only"].append(f"only in B: {path}.{k}")
            else:
                _walk(a[k], b[k], f"{path}.{k}", report)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (p, q) in enumerate(zip(a, b)):
            _walk(p, q, f"{path}[{i}]", report)
    else:
        report["exact"].append(f"{path}: {a!r} != {b!r}")


def _float_cell(cell):
    """The float value of a CSV cell, None for an integer literal or text."""
    if cell.strip().lstrip("+-").isdigit():
        return None
    return _float(cell)


def _walk_csv(rows_a, rows_b, report):
    """Record in ``report`` how two CSV row lists differ, cell by cell."""
    if len(rows_a) != len(rows_b):
        report["exact"].append(f"row count: {len(rows_a)} != {len(rows_b)}")
        return
    for i, (ra, rb) in enumerate(zip(rows_a, rows_b)):
        if len(ra) != len(rb):
            report["exact"].append(f"row {i} length: {len(ra)} != {len(rb)}")
            continue
        for j, (a, b) in enumerate(zip(ra, rb)):
            if a == b:
                continue
            fa, fb = _float_cell(a), _float_cell(b)
            if fa is not None and fb is not None and fa == fb:
                continue
            rel = None if fa is None or fb is None else abs(fa - fb) / max(abs(fa), abs(fb))
            if rel is None or rel != rel:  # text, an integer, or nan against a number
                report["exact"].append(f"row {i} cell {j}: {a!r} != {b!r}")
            elif rel > report["worst"][0]:
                report["worst"] = (rel, f"row {i} cell {j}")


def main(out_a, out_b) -> int:
    files_a, files_b = _files(out_a), _files(out_b)
    bad = False
    for rel in sorted(files_a ^ files_b):
        print(f"only in {'A' if rel in files_a else 'B'}: {rel}")
        bad = True
    same, differ = 0, []
    for rel in sorted(files_a & files_b):
        with open(os.path.join(out_a, rel), "rb") as fa, open(os.path.join(out_b, rel), "rb") as fb:
            if fa.read() == fb.read():
                same += 1
            else:
                differ.append(rel)
    print(f"byte-identical: {same} of {len(files_a & files_b)} common files")
    for rel in differ:
        report = {"worst": (0.0, ""), "only": [], "exact": []}
        with open(os.path.join(out_a, rel)) as fa, open(os.path.join(out_b, rel)) as fb:
            if rel.endswith(".json"):
                _walk(json.load(fa), json.load(fb), "", report)
            elif rel.endswith(".csv"):
                _walk_csv(list(csv.reader(fa)), list(csv.reader(fb)), report)
            else:
                print(f"differs: {rel} (neither JSON nor CSV)")
                bad = True
                continue
        rel_diff, where = report["worst"]
        print(f"differs: {rel}  worst float rel diff {rel_diff:.3g}" + (f" at {where}" if where else ""))
        for line in report["only"] + report["exact"]:
            print(f"  {line}")
        bad = bad or bool(report["exact"])
    return 1 if bad else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:3]))
