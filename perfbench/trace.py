"""Traced replay of every command group in a single fresh process: the per-layer numbers.

The replay calls the same public functions each CLI command calls, with a
span around every call into a layer.  It covers all four command groups
whatever the workload, so that every per-layer metric is measured on every
traced run; each command's span names its group.  Spans are kept in memory
and written as JSON when the replay ends; the last line of standard output
is a JSON object with the per-layer metrics.  Nothing inside the program is
instrumented.

Order of the replay:
  1. harmonic_basis(D, degree) for every degree in ascending order, up to the
     highest degree the commands need.  From a cold cache each call
     then costs only its own degree;
  2. each command's public calls, commands in the seed's order.  The ladder
     coefficient cache is cleared before each command, as a fresh CLI process
     starts with it empty, and read when the command's own calls end.
     Operator build calls and JSON encoding for `build` commands are extra
     calls, marked as such; they do not count in the cache figures.

bench.trace_overhead_frac is what the spans cost: the number of spans times
the extra time of a recorded span over a no-op one, timed on scratch tracers
after the replay, over the replay's wall time.

Run by run.py with PYTHONPATH pointing at the package sources:
  python3 perfbench/trace.py --workload NAME --seed N --spans FILE --out DIR
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

T_START = time.perf_counter()
import fuzzyd.cli  # noqa: E402  (timed: interpreter-side import cost of every command)

IMPORT_S = time.perf_counter() - T_START

from fuzzyd.basis import FuzzyConfig, enumerate_chains  # noqa: E402
from fuzzyd.coefficients import ladder_coeffs  # noqa: E402
from fuzzyd.convergence import (  # noqa: E402
    coordinate_coefficients,
    k_schedule,
    product_convergence_diagnostic,
    x_convergence_diagnostic,
)
from fuzzyd.harmonics import harmonic_basis, verify_harmonics  # noqa: E402
from fuzzyd.operators import (  # noqa: E402
    build_angular_momentum,
    build_casimir,
    build_position,
    build_projector,
    verify_algebra,
)
from fuzzyd.realization import verify_isomorphism  # noqa: E402

from workloads import GROUPS, WORKLOADS, group_of  # noqa: E402

MAX_REPORTED_DEGREE = 8


class Tracer:
    """In-memory spans (name, start, end, parent) plus plain counters; with record=False spans are no-ops."""

    def __init__(self, workload, record=True):
        self.workload = workload
        self.record = record
        self.spans = []
        self.counts = {}
        self._stack = []

    @contextmanager
    def span(self, name, extra=False, **config):
        if not self.record:
            yield None
            return
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "parent": self._stack[-1] if self._stack else None,
               "workload": self.workload, "config": config, "extra": extra, "start": time.perf_counter()}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def total(self, name):
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)


def _consistency_config(D, cutoff):
    # the CLI's default for verify and build: --schedule consistency
    return FuzzyConfig(D=D, cutoff=cutoff, k=k_schedule("consistency", D, cutoff))


def _count_checks(tr, layer, report):
    tr.add(f"{layer}.checks", len(report.checks))
    tr.add(f"{layer}.checks_failed", sum(not c.passed for c in report.checks))


def _count_ladder_cache(tr):
    info = ladder_coeffs.cache_info()
    tr.add("coefficients.ladder_cache_hits", info.hits)
    tr.add("coefficients.ladder_cache_misses", info.misses)


def replay_verify(tr, cmd):
    cfg = _consistency_config(cmd.D, cmd.cutoff)
    with tr.span("operators.verify_algebra", D=cmd.D, cutoff=cmd.cutoff):
        rep = verify_algebra(cfg)
    _count_checks(tr, "operators", rep)
    with tr.span("harmonics.verify", D=cmd.D, level_max=cmd.harmonic_degree):
        rep = verify_harmonics(cmd.D, cmd.harmonic_degree)
    _count_checks(tr, "harmonics", rep)
    with tr.span("realization.verify", D=cmd.D, cutoff=cmd.cutoff):
        rep = verify_isomorphism(cfg)
    _count_checks(tr, "realization", rep)
    _count_ladder_cache(tr)


def replay_converge(tr, cmd):
    # the CLI's converge default: --schedule strong-x; product of t_3 with itself
    if cmd.kind == "converge-product":
        coeffs = coordinate_coefficients(cmd.D, 3)
    for cutoff in range(1, cmd.cutoff + 1):
        if cmd.kind == "converge-product":
            with tr.span("convergence.product", D=cmd.D, cutoff=cutoff, last=cutoff == cmd.cutoff):
                product_convergence_diagnostic(coeffs, coeffs, cmd.D, [cutoff], "strong-x")
        else:
            with tr.span("convergence.x", D=cmd.D, cutoff=cutoff, last=cutoff == cmd.cutoff):
                x_convergence_diagnostic(cmd.D, [cutoff], "strong-x")
    _count_ladder_cache(tr)


def replay_build(tr, cmd, out):
    argv = ["build", "--d", str(cmd.D), "--lambda", str(cmd.cutoff), "--out", str(out)]
    with tr.span("cli.build", D=cmd.D, cutoff=cmd.cutoff):
        code = fuzzyd.cli.main(argv)
    _count_ladder_cache(tr)
    if code != 0:
        raise RuntimeError(f"fuzzyd {' '.join(argv)} exited {code}")
    files = [p for p in Path(out).iterdir() if p.is_file()]
    tr.add("cli.files_written", len(files))
    tr.add("cli.bytes_written", sum(p.stat().st_size for p in files))

    cfg = _consistency_config(cmd.D, cmd.cutoff)
    D = cmd.D
    ops = []
    with tr.span("operators.build_L", extra=True, D=D, cutoff=cmd.cutoff):
        ops += [build_angular_momentum(cfg, h, j) for h in range(1, D + 1) for j in range(h + 1, D + 1)]
    with tr.span("operators.build_x", extra=True, D=D, cutoff=cmd.cutoff):
        ops += [build_position(cfg, h) for h in range(1, D + 1)]
    with tr.span("operators.build_C", extra=True, D=D, cutoff=cmd.cutoff):
        ops += [build_casimir(cfg, p) for p in range(2, D + 1)]
    with tr.span("operators.build_P", extra=True, D=D, cutoff=cmd.cutoff):
        ops += [build_projector(cfg)] + [build_projector(cfg, p=D, value=l) for l in range(cmd.cutoff + 1)]
    with tr.span("operators.to_json", extra=True, D=D, cutoff=cmd.cutoff):
        for op in ops:
            json.dumps(op.to_json_obj(), indent=2, sort_keys=True)  # as the CLI encodes it, minus the write
    tr.add("operators.nnz", sum(len(op.entries) for op in ops))


def replay(workload, seed, out):
    tr = Tracer(workload)
    commands = [cmd for group in GROUPS.values() for cmd in group]
    random.Random(seed).shuffle(commands)
    with tr.span("bench.trace"):
        top = {}
        for cmd in commands:
            top[cmd.D] = max(top.get(cmd.D, -1), cmd.harmonic_degree)
        for D in sorted(top):
            for degree in range(top[D] + 1):
                with tr.span(f"harmonics.basis_deg{degree}", D=D):
                    harmonic_basis(D, degree)
        for cmd in commands:
            with tr.span("basis.enumerate", D=cmd.D, cutoff=cmd.cutoff):
                enumerate_chains(cmd.D, cmd.cutoff)
            ladder_coeffs.cache_clear()
            with tr.span("cli.command", command=cmd.key, group=group_of(cmd)):
                if cmd.kind == "verify":
                    replay_verify(tr, cmd)
                elif cmd.kind == "build":
                    replay_build(tr, cmd, Path(out) / cmd.key)
                else:
                    replay_converge(tr, cmd)
    return tr


def span_cost(n=20000, rounds=5):
    """Median extra seconds of a recorded span over a no-op one."""
    extra = []
    for _ in range(rounds):
        per_span = {}
        for record in (True, False):
            tr = Tracer("span-cost", record)
            t0 = time.perf_counter()
            for _ in range(n):
                with tr.span("cost"):
                    pass
            per_span[record] = (time.perf_counter() - t0) / n
        extra.append(per_span[True] - per_span[False])
    return statistics.median(extra)


def layer_metrics(tr):
    m = {}
    m["basis.enumerate_s"] = tr.total("basis.enumerate")
    calls = tr.counts["coefficients.ladder_cache_hits"] + tr.counts["coefficients.ladder_cache_misses"]
    m["coefficients.ladder_cache_misses"] = tr.counts["coefficients.ladder_cache_misses"]
    m["coefficients.ladder_cache_calls"] = calls
    m["coefficients.ladder_cache_hit_ratio"] = tr.counts["coefficients.ladder_cache_hits"] / calls
    for kind in ("L", "x", "C", "P"):
        m[f"operators.build_{kind}_s"] = tr.total(f"operators.build_{kind}")
    m["operators.to_json_s"] = tr.total("operators.to_json")
    m["operators.nnz"] = tr.counts["operators.nnz"]
    m["operators.verify_algebra_s"] = tr.total("operators.verify_algebra")
    for layer in ("operators", "harmonics", "realization"):
        m[f"{layer}.checks"] = tr.counts[f"{layer}.checks"]
        m[f"{layer}.checks_failed"] = tr.counts[f"{layer}.checks_failed"]
    degree_s = {}
    for s in tr.spans:
        if s["name"].startswith("harmonics.basis_deg"):
            degree = int(s["name"].removeprefix("harmonics.basis_deg"))
            degree_s[degree] = degree_s.get(degree, 0.0) + s["end"] - s["start"]
    for degree in range(MAX_REPORTED_DEGREE + 1):
        m[f"harmonics.basis_deg{degree}_s"] = degree_s.get(degree, 0.0)
    m["harmonics.basis_s"] = sum(degree_s.values())
    info = harmonic_basis.cache_info()
    m["harmonics.basis_cache_hit_ratio"] = info.hits / (info.hits + info.misses)
    m["harmonics.verify_s"] = tr.total("harmonics.verify")
    m["realization.verify_s"] = tr.total("realization.verify")
    for mode in ("product", "x"):
        m[f"convergence.{mode}_s"] = tr.total(f"convergence.{mode}")
        m[f"convergence.{mode}_last_s"] = sum(
            s["end"] - s["start"] for s in tr.spans if s["name"] == f"convergence.{mode}" and s["config"]["last"]
        )
    m["cli.import_s"] = IMPORT_S
    m["cli.build_s"] = tr.total("cli.build")
    m["cli.files_written"] = tr.counts["cli.files_written"]
    m["cli.bytes_written"] = tr.counts["cli.bytes_written"]
    m["bench.trace_overhead_frac"] = len(tr.spans) * span_cost() / tr.total("bench.trace")
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spans", required=True, help="JSON file the spans are written to")
    ap.add_argument("--out", required=True, help="directory for the build outputs")
    args = ap.parse_args()
    tr = replay(args.workload, args.seed, args.out)
    Path(args.spans).write_text(json.dumps(tr.spans, indent=1) + "\n")
    print(json.dumps({"metrics": layer_metrics(tr)}))


if __name__ == "__main__":
    main()
