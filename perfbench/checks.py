"""Output checks of every benchmark command against references recorded once.

`record` turns one command's outputs into a reference entry and `compare`
lists every way a later run's outputs differ from it:

* build: sha256 of every operator and basis file, and manifest.json without
  its timing and version fields (output paths reduced to file names);
* converge: every CSV value within 1e-9, absolute or relative, whichever is
  looser; the labels must match exactly;
* verify: the --out report JSON.  Only checks with a finite tolerance are
  asserted: each must still be reported, with the same tolerance, and a check
  that passed in the reference must still pass.  Checks with tolerance inf
  are recorded, never counted.  The exit code must agree with the reports.

A check that failed in the reference may pass later: that is the fix of a
known defect, not a wrong output.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

CSV_TOL = 1e-9
REPORT_STEMS = ("algebra", "harmonics", "isomorphism")


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _manifest(out):
    obj = json.loads((out / "manifest.json").read_text())
    obj.pop("timing_seconds", None)
    obj.pop("versions", None)
    obj["outputs"] = sorted(Path(p).name for p in obj.get("outputs", []))
    return obj


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _reports(out):
    return {stem: json.loads((out / f"report_{stem}.json").read_text()) for stem in REPORT_STEMS}


def _csv_name(cmd):
    return "x_convergence.csv" if cmd.kind == "converge-x" else "product_convergence.csv"


def record(cmd, out, exit_code):
    """Reference entry for `cmd` from its output directory and exit code."""
    out = Path(out)
    ref = {"exit": exit_code}
    if cmd.kind == "build":
        files = sorted(p for p in out.iterdir() if p.suffix == ".json" and p.name != "manifest.json")
        ref["files"] = {p.name: _sha256(p) for p in files}
        ref["manifest"] = _manifest(out)
    elif cmd.kind == "verify":
        ref["reports"] = {
            stem: [
                {k: c[k] for k in ("name", "tolerance", "passed", "deviation")}
                for c in rep["checks"]
            ]
            for stem, rep in _reports(out).items()
        }
    else:
        ref["csv"] = _read_csv(out / _csv_name(cmd))
    return ref


def _close(a, b):
    return abs(a - b) <= CSV_TOL * max(1.0, abs(b))


def _compare_build(ref, out):
    problems = []
    names = {p.name for p in out.iterdir() if p.suffix == ".json" and p.name != "manifest.json"} if out.is_dir() else set()
    if names != set(ref["files"]):
        problems.append(f"file set differs: missing {sorted(set(ref['files']) - names)}, extra {sorted(names - set(ref['files']))}")
    for name in sorted(names & set(ref["files"])):
        if _sha256(out / name) != ref["files"][name]:
            problems.append(f"{name}: sha256 differs from the reference")
    if not (out / "manifest.json").exists():
        problems.append("manifest.json missing")
    elif _manifest(out) != ref["manifest"]:
        problems.append("manifest.json differs from the reference (timing and versions ignored)")
    return problems


def _compare_csv(ref, rows):
    if len(rows) != len(ref) or rows[:1] != ref[:1]:
        return [f"csv shape or header differs: {len(rows)} rows vs {len(ref)} in the reference"]
    problems = []
    for i, (got, want) in enumerate(zip(rows[1:], ref[1:]), start=2):
        if len(got) != len(want) or got[0] != want[0] or got[1] != want[1] or got[3] != want[3]:
            problems.append(f"csv line {i}: labels {got[:2] + got[3:4]} vs {want[:2] + want[3:4]}")
            continue
        for col in (2, 4):
            try:
                ok = _close(float(got[col]), float(want[col]))
            except ValueError:
                ok = False
            if not ok:
                problems.append(f"csv line {i} ({want[3]}, Lambda={want[1]}): column {col} is {got[col]}, reference {want[col]}")
    return problems


def _compare_verify(ref, out, exit_code):
    problems = []
    try:
        reports = _reports(out)
    except (OSError, ValueError) as exc:
        return [f"report missing or unreadable: {exc}"]
    for stem, ref_checks in ref["reports"].items():
        got = {c["name"]: c for c in reports[stem]["checks"]}
        for want in ref_checks:
            if not math.isfinite(want["tolerance"]):
                continue
            c = got.get(want["name"])
            if c is None:
                problems.append(f"{stem}: check '{want['name']}' no longer reported")
                continue
            if c["tolerance"] != want["tolerance"]:
                problems.append(f"{stem}: check '{want['name']}' tolerance {c['tolerance']} differs from the reference {want['tolerance']}")
            if want["passed"] and not (c["passed"] and c["deviation"] <= c["tolerance"]):
                problems.append(f"{stem}: check '{want['name']}' now fails: deviation {c['deviation']:.3e} > tol {c['tolerance']:.1e}")
    verdict = 0 if all(rep["passed"] for rep in reports.values()) else 1
    if exit_code != verdict:
        problems.append(f"exit code {exit_code} disagrees with the reports (expected {verdict})")
    return problems


def compare(cmd, ref, out, exit_code):
    """Problems of one run of `cmd` against its reference; empty when correct."""
    out = Path(out)
    if cmd.kind == "build":
        problems = _compare_build(ref, out)
    elif cmd.kind == "verify":
        return _compare_verify(ref, out, exit_code)
    else:
        path = out / _csv_name(cmd)
        problems = _compare_csv(ref["csv"], _read_csv(path)) if path.exists() else [f"{path.name} missing"]
    if exit_code != ref["exit"]:
        problems.insert(0, f"exit code {exit_code}, reference {ref['exit']}")
    return problems


def known_failures(ref):
    """Finite-tolerance checks that already failed when the reference was recorded."""
    return [
        f"{stem}: {c['name']} (deviation {c['deviation']:.3e}, tol {c['tolerance']:.1e})"
        for stem, checks in ref.get("reports", {}).items()
        for c in checks
        if math.isfinite(c["tolerance"]) and not c["passed"]
    ]
