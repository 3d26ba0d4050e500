"""Negative and positive controls of the benchmark's output checks, on small configurations.

  python3 perfbench/selftest.py

Run from the repository root (a few seconds).  Each negative control
must be counted as a failed operation: a verify with --tol-degree2 tightened
until a check really fails, a build file with one byte changed, and a
converge CSV with one value perturbed.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import unittest

import checks
from run import BENCH, ROOT, WORK, run_child, tally
from workloads import Command

SMALL = {
    "verify": Command("verify", 3, 2),
    "build": Command("build", 3, 2),
    "converge": Command("converge-x", 3, 3),
}


def _run(cmd, out, extra=()):
    shutil.rmtree(out, ignore_errors=True)
    code, _, _ = run_child(["-m", "fuzzyd.cli", *cmd.argv(out.relative_to(ROOT)), *extra], out.with_suffix(".log"))
    return code


def _scale_csv_value(path, factor):
    """Multiply the value on the third data line of a converge CSV by `factor`."""
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    rows[3][4] = f"{float(rows[3][4]) * factor:.12e}"
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _as_run(cmd, out, code, ref):
    """A run record as run.py builds it, for counting."""
    return {"command": cmd.key, "exit": code, "problems": checks.compare(cmd, ref, out, code)}


class OutputChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.work = WORK / "selftest"
        shutil.rmtree(cls.work, ignore_errors=True)
        cls.work.mkdir(parents=True)
        cls.refs = {}
        for name, cmd in SMALL.items():
            out = cls.work / f"ref-{name}"
            cls.refs[name] = checks.record(cmd, out, _run(cmd, out))

    def rerun(self, name, extra=()):
        cmd = SMALL[name]
        out = self.work / name
        return cmd, out, _run(cmd, out, extra)

    def assertFailedOp(self, run):
        self.assertTrue(run["problems"], "a corrupted output passed the check")
        self.assertEqual(tally([run]), (1, 0))

    def test_unchanged_outputs_pass(self):
        for name in SMALL:
            cmd, out, code = self.rerun(name)
            run = _as_run(cmd, out, code, self.refs[name])
            self.assertEqual(run["problems"], [], name)
            self.assertEqual(tally([run]), (0, 1))

    def test_verify_with_tightened_tolerance_fails(self):
        cmd, out, code = self.rerun("verify", ["--tol-degree2", "1e-17"])
        self.assertEqual(code, 1)
        run = _as_run(cmd, out, code, self.refs["verify"])
        self.assertFailedOp(run)
        self.assertTrue(any("now fails" in p for p in run["problems"]), run["problems"])

    def test_build_file_with_one_byte_changed_fails(self):
        cmd, out, code = self.rerun("build")
        path = out / "x_1.json"
        data = bytearray(path.read_bytes())
        i = data.index(b'"entries"')
        i += next(k for k, b in enumerate(data[i:]) if chr(b).isdigit())  # first digit of an entry
        data[i] = ord("1") if data[i] != ord("1") else ord("2")
        path.write_bytes(bytes(data))
        run = _as_run(cmd, out, code, self.refs["build"])
        self.assertFailedOp(run)
        self.assertTrue(any("x_1.json" in p for p in run["problems"]), run["problems"])

    def test_converge_csv_with_one_value_perturbed_fails(self):
        cmd, out, code = self.rerun("converge")
        _scale_csv_value(out / "x_convergence.csv", 1 + 1e-6)
        self.assertFailedOp(_as_run(cmd, out, code, self.refs["converge"]))

    def test_converge_csv_within_tolerance_passes(self):
        cmd, out, code = self.rerun("converge")
        _scale_csv_value(out / "x_convergence.csv", 1 + 1e-11)
        self.assertEqual(checks.compare(cmd, self.refs["converge"], out, code), [])

    def test_infinite_tolerance_checks_are_never_counted(self):
        cmd, out, code = self.rerun("verify")
        path = out / "report_algebra.json"
        rep = json.loads(path.read_text())
        recorded = [c for c in rep["checks"] if c["tolerance"] == float("inf")]
        self.assertTrue(recorded)
        for c in recorded:
            c["deviation"] = 1e300
        path.write_text(json.dumps(rep))
        self.assertEqual(checks.compare(cmd, self.refs["verify"], out, code), [])

    def test_fixing_a_known_failure_is_not_a_wrong_output(self):
        cmd, out, code = self.rerun("verify")
        ref = json.loads(json.dumps(self.refs["verify"]))
        ref["exit"] = 1
        ref["reports"]["algebra"][1]["passed"] = False
        self.assertEqual(checks.compare(cmd, ref, out, code), [])
        self.assertEqual(len(checks.known_failures(ref)), 1)

    def test_exit_code_must_agree_with_reports(self):
        cmd, out, code = self.rerun("verify")
        self.assertTrue(checks.compare(cmd, self.refs["verify"], out, 1))


class BareDirectory(unittest.TestCase):
    def test_fails_without_the_program(self):
        bare = WORK / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        res = subprocess.run(
            spec["command"] + ["--workload", spec["workloads"][0]["name"], "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        self.assertNotEqual(res.returncode, 0)
        self.assertNotIn('"correct"', res.stdout)
        self.assertIn("no fuzzyd sources", res.stderr)
        shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main(verbosity=2)
