"""Record perfbench/references.json: run every workload command once and keep its outputs' reference.

  python3 perfbench/record.py

Run from the repository root.  Re-record only on purpose: the references
define which outputs the benchmark accepts as correct.
"""

from __future__ import annotations

import json
import shutil
import sys

import checks
from run import BENCH, ROOT, WORK, run_child
from workloads import WORKLOADS


def main():
    work = WORK / "record"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    refs = {}
    for commands in WORKLOADS.values():
        for cmd in commands:
            out = work / cmd.key
            code, wall, _ = run_child(["-m", "fuzzyd.cli", *cmd.argv(out.relative_to(ROOT))], work / f"{cmd.key}.log")
            refs[cmd.key] = checks.record(cmd, out, code)
            print(f"{cmd.key}: exit {code}, {wall:.2f} s")
            for failure in checks.known_failures(refs[cmd.key]):
                print(f"  known failure: {failure}")
    (BENCH / "references.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
