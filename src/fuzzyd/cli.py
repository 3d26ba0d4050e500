"""Command line surface: build operator files, run verification suites, diagnostics.

Exit codes: 0 on success, 1 when a verification check fails its tolerance,
2 on configuration or usage errors.
"""

from __future__ import annotations

import argparse
import math
import platform
import sys
import time
from pathlib import Path

import numpy as np

# module level holds only what the parser and every command need (basis, coefficients, _moves,
# operators); harmonics, realization, convergence and json are imported by the commands that run
# them, so no command compiles or loads a module it does not run
from . import __version__
from .basis import FuzzyConfig, _integer, basis_of
from .coefficients import SCHEDULE_NAMES, k_schedule
from .operators import (
    TOL_DEGREE2,
    _casimir_tower,
    _degree2_tolerance,
    build_angular_momentum,
    build_position,
    build_projector,
    verify_algebra,
)


def _add_config_flags(p):
    p.add_argument("--d", type=int, required=True, help="ambient dimension D (minimum 3)")
    p.add_argument("--lambda", dest="lam", type=int, required=True, help="cutoff level")
    p.add_argument("--k", type=float, default=None, help="well stiffness; overrides --schedule")
    p.add_argument(
        "--schedule",
        choices=SCHEDULE_NAMES,
        default="consistency",
        help="stiffness schedule used when --k is absent (default: consistency)",
    )
    p.add_argument("--alpha", type=float, default=2.0, help="exponent for the power schedule (>= 2)")


def _finite_flags(args):
    """ValueError (exit 2) for a non-finite --k or --alpha: argparse reads nan, inf and 1e400 as floats.

    Both flags are checked whatever the schedule, so a NaN --alpha cannot pass under a schedule that never reads it.
    """
    for flag, value in (("--k", getattr(args, "k", None)), ("--alpha", args.alpha)):
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value}")


def _config(args):
    _finite_flags(args)
    k = args.k if args.k is not None else k_schedule(args.schedule, args.d, args.lam, alpha=args.alpha)
    return FuzzyConfig(D=args.d, cutoff=args.lam, k=k)


def _write_json(path, obj):
    import json  # loaded by the commands that write JSON, not by every command

    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _output_dir(path):
    """Create the output directory; an OSError (say, `path` names a file) becomes a usage error, exit 2."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot create output directory {path}: {exc.strerror or exc}") from None
    return out


def cmd_build(args):
    t0 = time.time()
    cfg = _config(args)
    out = _output_dir(args.out)
    written = []

    def emit(name, op):
        path = out / f"{name}.json"
        with open(path, "w") as fh:
            op.write_json(fh)
        written.append(str(path))

    _write_json(out / "basis.json", basis_of(cfg).to_json_obj())
    written.append(str(out / "basis.json"))

    def generator(h, j):
        op = build_angular_momentum(cfg, h, j)
        emit(f"L_{h}_{j}", op)
        return op

    # each L_hj is built and written once, then squared once by the casimir pass;
    # each C_p is written as soon as the pass has it
    for p, casimir in _casimir_tower(cfg, range(2, cfg.D + 1), generator):
        emit(f"C_{p}", casimir)
    for h in range(1, cfg.D + 1):
        emit(f"x_{h}", build_position(cfg, h))
    emit("P_top", build_projector(cfg))
    for l in range(cfg.cutoff + 1):
        emit(f"P_level_{l}", build_projector(cfg, p=cfg.D, value=l))

    manifest = {
        "command": "build",
        "config": {"D": cfg.D, "cutoff": cfg.cutoff, "k": cfg.k, "dimension": len(basis_of(cfg))},
        "versions": {"fuzzyd": __version__, "python": platform.python_version(), "numpy": np.__version__},
        "timing_seconds": round(time.time() - t0, 6),
        "outputs": sorted(written),
    }
    _write_json(out / "manifest.json", manifest)
    print(f"wrote {len(written) + 1} files to {out} (dimension {manifest['config']['dimension']})")
    return 0


def cmd_verify(args):
    tol_degree2 = _degree2_tolerance(args.tol_degree2)  # before any suite runs, whichever reads it
    cfg = _config(args)
    out = _output_dir(args.out) if args.out else None

    def harmonics():
        from .harmonics import verify_harmonics

        return verify_harmonics(cfg.D, min(cfg.cutoff + 1, 4))

    def isomorphism():
        from .realization import verify_isomorphism

        return verify_isomorphism(cfg)

    suites = {
        "algebra": lambda: verify_algebra(cfg, tol_degree2=tol_degree2),
        "harmonics": harmonics,
        "isomorphism": isomorphism,
    }
    reports = {stem: run() for stem, run in suites.items() if args.suite in (stem, "all")}
    for rep in reports.values():
        print(rep.to_text())
    if out is not None:
        for stem, rep in reports.items():
            rep.save(json_path=out / f"report_{stem}.json", csv_path=out / f"report_{stem}.csv")
    return 0 if all(rep.all_passed for rep in reports.values()) else 1


def cmd_converge(args):
    if args.lam_max < 2:
        raise ValueError("--lambda-max must be at least 2")
    _finite_flags(args)
    # D and the schedule are checked before the output directory is made, as `build` and `verify` do
    k_schedule(args.schedule, _integer(args.d, "ambient dimension", 3), 1, alpha=args.alpha)
    out = _output_dir(args.out)
    from .convergence import (
        coordinate_coefficients,
        product_convergence_diagnostic,
        write_csv,
        x_convergence_diagnostic,
    )

    cutoffs = range(1, args.lam_max + 1)
    if args.mode == "x":
        rows = x_convergence_diagnostic(args.d, cutoffs, args.schedule, alpha=args.alpha)
        path = out / "x_convergence.csv"
    else:
        coeffs = coordinate_coefficients(args.d, 3)
        rows = product_convergence_diagnostic(coeffs, coeffs, args.d, cutoffs, args.schedule, alpha=args.alpha)
        path = out / "product_convergence.csv"
    write_csv(path, args.d, rows)
    for row in rows:
        print(row)
    print(f"wrote {path}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="fuzzyd",
        description="Build and verify finite-dimensional fuzzy hypersphere operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="write all operators of one configuration to JSON")
    _add_config_flags(b)
    b.add_argument("--out", required=True, help="output directory")

    v = sub.add_parser("verify", help="run a verification suite and report pass/fail")
    _add_config_flags(v)
    v.add_argument("--suite", choices=("algebra", "harmonics", "isomorphism", "all"), default="all")
    v.add_argument("--out", default=None, help="optional directory for JSON/CSV reports")
    v.add_argument(
        "--tol-degree2",
        dest="tol_degree2",
        type=float,
        default=TOL_DEGREE2,
        help=f"tolerance for degree-2 operator identities, finite and >= 0 (default {TOL_DEGREE2:g})",
    )

    c = sub.add_parser("converge", help="emit commutative-limit diagnostic tables")
    c.add_argument("--d", type=int, required=True)
    c.add_argument("--lambda-max", dest="lam_max", type=int, required=True)
    c.add_argument("--schedule", choices=SCHEDULE_NAMES, default="strong-x")
    c.add_argument("--alpha", type=float, default=2.0)
    c.add_argument("--mode", choices=("x", "product"), default="x")
    c.add_argument("--out", required=True)

    args = parser.parse_args(argv)
    try:
        if args.command == "build":
            return cmd_build(args)
        if args.command == "verify":
            return cmd_verify(args)
        return cmd_converge(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
