"""fuzzyd benchmark: CLI workloads, end-to-end and per-layer metrics.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One client in a closed loop: each command of
the workload runs as a fresh `python -m fuzzyd.cli ...` process (PYTHONPATH
set to src/, FUZZYD_THREADS removed from its environment), the next one
starts when it has ended, and its outputs are checked against
perfbench/references.json.  Each workload is two command groups (see
workloads.py).  Repetitions of its command list, each in an order drawn from
the seed, continue while the next one should end by S seconds, give or take
half a repetition.

--trace 0 prints the end-to-end metrics of BENCHMARK.json:
  wall_s       one repetition: sum over commands of the median per-command
               wall time, interpreter start-up included;
  setup_s      median wall time of a fresh `python -m fuzzyd.cli --help`,
               sampled before every command;
  peak_rss_mb  largest ru_maxrss of any command process (os.wait4);
  ops_ok_frac  commands that exited 0 with correct outputs, over attempted.
Both times are as measured, unscaled.
--trace 1 runs one checked repetition of all four command groups, then
perfbench/trace.py, which replays them traced in one fresh process, and
prints the per-layer metrics.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A command counts as failed when its outputs
differ from the reference (see checks.py); a verify whose exit code 1 agrees
with a report failure already recorded in the reference is correct output,
and shows in ops_ok_frac instead.  Scratch files go to .perfbench_work/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
from workloads import GROUPS, WORKLOAD_GROUPS, WORKLOADS, config_properties

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_work"
CHILD_TIMEOUT_S = 150


def child_env():
    env = {k: v for k, v in os.environ.items() if k != "FUZZYD_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(args, log_path):
    """Run `python <args>` from the root; return (exit code, wall seconds, rusage)."""
    with open(log_path, "w") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=child_env(), stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def run_command(cmd, refs, work):
    out = work / cmd.key
    shutil.rmtree(out, ignore_errors=True)
    code, wall, usage = run_child(["-m", "fuzzyd.cli", *cmd.argv(out.relative_to(ROOT))], work / f"{cmd.key}.log")
    problems = checks.compare(cmd, refs[cmd.key], out, code)
    return {
        "command": cmd.key,
        "exit": code,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "problems": problems,
    }


def time_fresh(args, work):
    """Wall seconds of one fresh `python <args>`, which must exit 0."""
    code, wall, _ = run_child(args, work / "setup.log")
    if code != 0:
        raise SystemExit(f"error: `python {' '.join(args)}` exited {code}; see {work / 'setup.log'}")
    return wall


def run_repetitions(commands, refs, work, rng, seconds, setup=None):
    """Repeat the command list in seeded order, at least once.

    Another repetition starts only while at least half of it, judged by the
    length of the previous one, should fall within `seconds`.  With a list
    `setup`, a set-up sample (`fuzzyd --help`) precedes every command, so
    that the samples spread over the whole run.
    """
    reps = []
    t0 = time.perf_counter()
    last = 0.0
    while not reps or time.perf_counter() - t0 + last / 2 <= seconds:
        t = time.perf_counter()
        rep = []
        for cmd in rng.sample(commands, len(commands)):
            if setup is not None:
                setup.append(time_fresh(["-m", "fuzzyd.cli", "--help"], work))
            rep.append(run_command(cmd, refs, work))
        reps.append(rep)
        last = time.perf_counter() - t
    return reps


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, env=env)
    return res.stdout.strip() or "unknown"


def environment(seed, commands):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {k: os.environ.get(k, "unset") for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_threads_note": "not overridden; OpenBLAS defaults to one thread per core",
        "nproc": os.cpu_count(),
        "seed": seed,
        "FUZZYD_THREADS": os.environ.get("FUZZYD_THREADS", "unset") + " (removed from every child environment)",
        "configs": {cmd.key: config_properties(cmd) for cmd in commands},
    }


def tally(runs):
    """(failed, ok): commands with wrong outputs, and commands that exited 0 with correct outputs."""
    failed = sum(bool(r["problems"]) for r in runs)
    ok = sum(r["exit"] == 0 and not r["problems"] for r in runs)
    return failed, ok


def per_command_medians(runs, field):
    per_command = {}
    for r in runs:
        per_command.setdefault(r["command"], []).append(r[field])
    return {key: statistics.median(v) for key, v in per_command.items()}


def end_to_end(reps, setup):
    runs = [r for rep in reps for r in rep]
    _, ok = tally(runs)
    samples = {
        "wall_s": f"sum of per-command medians over {len(reps)} repetitions",
        "setup_s": f"median of {len(setup)}",
        "peak_rss_mb": f"max of {len(runs)} processes",
        "ops_ok_frac": f"{ok} ok of {len(runs)} attempted",
    }
    values = {
        "wall_s": sum(per_command_medians(runs, "wall_s").values()),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(r["rss_mb"] for r in runs),
        "ops_ok_frac": ok / len(runs),
    }
    return values, samples


def traced(workload, seed, reps, work):
    code, _, _ = run_child(
        [str(BENCH / "trace.py"), "--workload", workload, "--seed", str(seed), "--spans", str(work / "spans.json"),
         "--out", str(work / "trace")],
        work / "trace.log",
    )
    if code != 0:
        raise SystemExit(f"error: traced run exited {code}; see {work / 'trace.log'}")
    values = json.loads((work / "trace.log").read_text().splitlines()[-1])["metrics"]
    values["cli.cpu_s"] = sum(r["cpu_s"] for r in reps[0])
    samples = {name: "traced run" for name in values}
    samples["cli.cpu_s"] = "child user+sys of one untraced repetition"
    samples["bench.trace_overhead_frac"] = "spans recorded times the extra cost of one, over the replay"
    return values, samples


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description="fuzzyd benchmark (see the module docstring)")
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "fuzzyd" / "cli.py").is_file():
        print(f"error: no fuzzyd sources under {ROOT / 'src'}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    refs = json.loads((BENCH / "references.json").read_text())
    if args.trace:
        commands = [cmd for group in GROUPS.values() for cmd in group]
    else:
        commands = list(WORKLOADS[args.workload])
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    env = environment(args.seed, commands)
    print("environment: " + json.dumps(env))
    rng = random.Random(args.seed)
    setup = []
    if args.trace:
        reps = run_repetitions(commands, refs, work, rng, 0.0)
        values, samples = traced(args.workload, args.seed, reps, work)
        wanted = spec["per_layer"]
    else:
        reps = run_repetitions(commands, refs, work, rng, args.seconds, setup)
        values, samples = end_to_end(reps, setup)
        wanted = spec["end_to_end"]

    runs = [r for rep in reps for r in rep]
    for r in runs:
        status = "ok" if not r["problems"] else "WRONG OUTPUT: " + "; ".join(r["problems"])
        print(f"  {r['command']:<24} exit {r['exit']}  {r['wall_s']:8.3f} s  {r['rss_mb']:6.1f} MB  {status}")
    walls = per_command_medians(runs, "wall_s")
    for group in GROUPS if args.trace else WORKLOAD_GROUPS[args.workload]:
        print(f"  group {group}: {sum(walls[cmd.key] for cmd in GROUPS[group]):.3f} s per repetition")
    for cmd in commands:
        for failure in checks.known_failures(refs[cmd.key]):
            print(f"  {cmd.key}: known failure recorded in the reference: {failure}")
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}  ({samples[m['name']]})")
    failed, _ = tally(runs)
    result = {"correct": failed == 0, "attempted": len(runs), "failed": failed, "metrics": metrics}
    (work / "result.json").write_text(json.dumps({"environment": env, "runs": runs, "setup_s": setup, **result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
