import ast
import hashlib
import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fuzzyd.cli
import fuzzyd.operators
from fuzzyd.basis import FuzzyConfig, dimension
from fuzzyd.cli import _write_json, main
from fuzzyd.harmonics import verify_harmonics
from fuzzyd.operators import _generator_pairs, build_angular_momentum, build_position, verify_algebra
from fuzzyd.realization import verify_isomorphism

from operators_oracle import dense_casimir, read_operator, triplets_of


def test_build_outputs(tmp_path):
    out = tmp_path / "ops"
    rc = main(["build", "--d", "4", "--lambda", "2", "--schedule", "consistency", "--out", str(out)])
    assert rc == 0
    names = {p.name for p in out.iterdir()}
    assert sum(n.startswith("L_") for n in names) == 6
    assert sum(n.startswith("x_") for n in names) == 4
    assert {"C_2.json", "C_3.json", "C_4.json", "P_top.json", "basis.json", "manifest.json"} <= names
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["dimension"] == 14
    for path in manifest["outputs"]:
        assert (tmp_path / "ops" / path.split("/")[-1]).exists()


def test_build_deterministic_and_roundtrip(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["build", "--d", "3", "--lambda", "2", "--k", "100", "--out", str(out)]) == 0
    for name in ("x_1.json", "L_1_2.json", "C_3.json", "basis.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    cfg = FuzzyConfig(D=3, cutoff=2, k=100.0)
    loaded = read_operator(json.loads((a / "x_1.json").read_text()))
    assert loaded == build_position(cfg, 1)


def test_build_zero_cutoff(tmp_path):
    out = tmp_path / "zero"
    assert main(["build", "--d", "4", "--lambda", "0", "--out", str(out)]) == 0
    x = json.loads((out / "x_1.json").read_text())
    assert x["dim"] == 1 and x["entries"] == []


@pytest.mark.parametrize("D, cutoff", [(4, 3), (5, 2)])
def test_build_casimirs_equal_the_dense_route(tmp_path, D, cutoff):
    # the C_p files are byte for byte the JSON module's encoding of the dense per-order sum of squares, in this process
    assert main(["build", "--d", str(D), "--lambda", str(cutoff), "--out", str(tmp_path / "ops")]) == 0
    cfg = FuzzyConfig(D=D, cutoff=cutoff, k=json.loads((tmp_path / "ops" / "manifest.json").read_text())["config"]["k"])
    for p in range(2, D + 1):
        gens = (build_angular_momentum(cfg, h, j).to_dense() for h, j in _generator_pairs(p))
        _write_json(tmp_path / "dense.json", triplets_of(dense_casimir(dimension(D, cutoff), gens)).to_json_obj())
        assert (tmp_path / "ops" / f"C_{p}.json").read_bytes() == (tmp_path / "dense.json").read_bytes(), p


def test_build_builds_each_generator_once(tmp_path, monkeypatch):
    calls = []
    honest = build_angular_momentum

    def counted(cfg, h, j):
        calls.append((h, j))
        return honest(cfg, h, j)

    monkeypatch.setattr(fuzzyd.operators, "build_angular_momentum", counted)
    monkeypatch.setattr(fuzzyd.cli, "build_angular_momentum", counted)
    assert main(["build", "--d", "4", "--lambda", "2", "--out", str(tmp_path)]) == 0
    assert calls == _generator_pairs(4)


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "--d", "3", "--lambda", "1"],
        ["verify", "--suite", "algebra", "--d", "3", "--lambda", "1"],
        ["converge", "--d", "3", "--lambda-max", "2"],
    ],
)
def test_out_naming_a_file_exits_two(tmp_path, capsys, argv):
    target = tmp_path / "taken"
    target.write_text("")
    assert main(argv + ["--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert f"error: cannot create output directory {target}" in captured.err
    assert captured.out == ""
    assert target.read_text() == ""


def test_verify_suites(tmp_path):
    assert main(["verify", "--suite", "algebra", "--d", "4", "--lambda", "2", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "report_algebra.json").exists()
    assert (tmp_path / "report_algebra.csv").exists()
    assert main(["verify", "--suite", "isomorphism", "--d", "3", "--lambda", "3"]) == 0


def test_verify_all_small_config():
    assert main(["verify", "--suite", "all", "--d", "5", "--lambda", "1"]) == 0


def test_verify_detects_forced_failure():
    # an absurd tolerance forces the suite to report failure (exit 1)
    assert main(["verify", "--suite", "algebra", "--d", "3", "--lambda", "1", "--tol-degree2", "1e-30"]) == 1


REPORT_ORDER = {
    "algebra": [
        ("hermiticity of generators and positions", 1e-13, True, ""),
        ("so(D) structure constants", 1e-12, True, ""),
        ("snyder commutator, interior columns", 1e-13, True, "exact identity for the canonical truncated radial weight"),
        ("snyder commutator with top-level projector term", 1e-12, True, "overall factor i adopted (anti-Hermitian-consistent convention)"),
        ("snyder variant without the factor i (recorded, not asserted)", math.inf, True, "kept only to document the adopted convention"),
        (
            "coordinate words span the full matrix algebra",
            0.0,
            True,
            "Schur/Burnside certificate: 0 level(s) split under the generators, 0 adjacent level pair(s) not coupled by x, "
            "top squared-distance value 0.669 away from every interior one",
        ),
        ("positions transform as an so(D) vector", 1e-12, True, ""),
        ("squared distance spectrum per level", 1e-12, True, ""),
        ("casimir operators diagonal with branching eigenvalues", 1e-12, True, ""),
        (
            "casimir eigenvalue multiplicities match branching counts",
            0.0,
            True,
            "chains per label l_{p-1} against the closed-form branching count, every order p",
        ),
        ("minimal polynomial of the total casimir", 1e-12, True, "per-eigenspace residual max_l |(C_D - e_l) P_l|"),
        ("nested casimir products annihilate their projector blocks", 1e-12, True, "per-eigenspace residuals of C_3 .. C_{D-1} and of L_12"),
        (
            "azimuthal ladder operators nilpotent at power 5",
            1e-09,
            True,
            "largest ladder entry not shifting l_1 by exactly +-1; plain normalization O_2 -+ i O_1",
        ),
        ("generators commute with enclosing casimirs", 1e-12, True, "commutator with the exact label diagonal of each casimir"),
        ("parity conjugation flips positions, fixes generators", 1e-13, True, ""),
        ("reflection l_1 -> -l_1 flips x_1 and every L_1j, fixes the rest", 1e-13, True, "chain permutation with phase +1: the O(D) \\ SO(D) witness"),
        ("level projectors commute with every generator", 1e-13, True, ""),
        ("top-level projector idempotent with correct rank", 1e-13, True, ""),
    ],
    "harmonics": [
        ("basis sizes match the counting formula", 0.0, True, ""),
        ("orthonormal under the sphere inner product", 1e-10, True, ""),
        ("flat laplacian annihilates every element, exactly", 0.0, True, "exact integer arithmetic"),
        ("flat laplacian annihilates every element, floats", 1e-12, True, ""),
        ("commuting-tower eigenvalues match chain labels, exactly", 0.0, True, "exact integer arithmetic"),
        ("multiplication elements: recursion vs quadrature", 1e-10, True, ""),
        ("products reconstruct pointwise on random sphere points", 1e-09, True, ""),
        ("products satisfy the norm identity", 1e-09, True, ""),
    ],
    "isomorphism": [
        ("identified bases have equal dimension", 0.0, True, "chains with frozen top label vs cutoff space"),
        ("dressing recursion, raising relation", 1e-13, True, ""),
        ("dressing recursion, lowering relation", 1e-13, True, ""),
        ("dressed generators equal position operators", 1e-10, True, ""),
        ("dressed generators are self-adjoint", 1e-12, True, ""),
        ("variant without left conjugation (recorded, not asserted)", math.inf, True, "the doubly-undressed form fails whenever the dressing is complex"),
        ("ambient generators restrict to the native ones", 1e-13, True, ""),
        ("ambient total casimir is the expected scalar", 1e-10, True, "scalar 10"),
        ("negating the extra-index generators negates every position", 1e-13, True, "parity is an O(D) transformation inside so(D+1)"),
    ],
}


def test_suites_report_their_checks_in_a_fixed_order():
    # names, tolerances, verdicts and notes in report order; deviations are left out, since the
    # casimir residuals depend on how the platform's BLAS rounds
    cfg = FuzzyConfig(D=4, cutoff=2, k=64.0)
    reports = {"algebra": verify_algebra(cfg), "harmonics": verify_harmonics(4, 3), "isomorphism": verify_isomorphism(cfg)}
    for suite, report in reports.items():
        assert [(c.name, c.tolerance, c.passed, c.notes) for c in report.checks] == REPORT_ORDER[suite]


def test_config_errors_exit_two(capsys):
    assert main(["build", "--d", "2", "--lambda", "1", "--out", "/tmp/unused"]) == 2
    assert "error" in capsys.readouterr().err
    assert main(["verify", "--suite", "algebra", "--d", "4", "--lambda", "2", "--k", "5"]) == 2
    # NaN fails every ordered comparison, so each bound is written to reject it
    capsys.readouterr()
    assert main(["verify", "--suite", "algebra", "--d", "3", "--lambda", "1", "--schedule", "power", "--alpha", "nan"]) == 2
    assert "got nan" in capsys.readouterr().err
    assert main(["verify", "--suite", "algebra", "--d", "3", "--lambda", "1", "--k", "nan"]) == 2
    assert "--k must be finite, got nan" in capsys.readouterr().err
    # an infinite --k or --alpha (1e400 reads as inf) would run every suite with unit radial weights
    for flag, value in (("--k", "inf"), ("--k", "1e400"), ("--alpha", "inf")):
        argv = ["verify", "--suite", "algebra", "--d", "3", "--lambda", "2", "--schedule", "power", flag, value]
        assert main(argv) == 2
        assert f"{flag} must be finite, got inf" in capsys.readouterr().err
    assert main(["converge", "--d", "3", "--lambda-max", "2", "--schedule", "power", "--alpha", "inf", "--out", "/tmp/unused"]) == 2
    assert "--alpha must be finite, got inf" in capsys.readouterr().err
    # a degree-2 tolerance that would leave its checks unasserted (inf) or failing (nan, < 0)
    for tol in ("inf", "nan", "-1"):
        assert main(["verify", "--suite", "algebra", "--d", "3", "--lambda", "2", "--tol-degree2", tol]) == 2
        assert f"degree-2 tolerance must be finite and >= 0, got {float(tol)}" in capsys.readouterr().err
    # the flag is checked before any suite runs, also for the suites that never read it
    for suite, tol in (("harmonics", "-1"), ("isomorphism", "nan"), ("harmonics", "inf")):
        assert main(["verify", "--suite", suite, "--d", "3", "--lambda", "2", "--tol-degree2", tol]) == 2
        captured = capsys.readouterr()
        assert f"degree-2 tolerance must be finite and >= 0, got {float(tol)}" in captured.err
        assert "verification report" not in captured.out


def test_malformed_flags_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["converge", "--d", "3", "--lambda-max", "3", "--mode", "zzz", "--out", "/tmp/unused"])
    assert exc.value.code == 2


def test_converge_tables(tmp_path):
    assert main(["converge", "--d", "3", "--lambda-max", "3", "--mode", "x", "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "x_convergence.csv").read_text().strip().splitlines()
    devs = [float(r.split(",")[-1]) for r in rows[1:] if ",deviation," in r]
    assert len(devs) == 3 and devs[0] > devs[1] > devs[2]
    assert main(["converge", "--d", "3", "--lambda-max", "2", "--mode", "product", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "product_convergence.csv").exists()
    assert main(["converge", "--d", "3", "--lambda-max", "1", "--mode", "x", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "flags",
    [["--d", "2"], ["--d", "3", "--schedule", "power", "--alpha", "1.5"]],
    ids=["d-2", "power-alpha-1.5"],
)
def test_refused_converge_leaves_no_output_directory(tmp_path, capsys, flags):
    out = tmp_path / "out"
    assert main(["converge", "--mode", "x", "--lambda-max", "3", *flags, "--out", str(out)]) == 2
    assert "error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_alpha_is_refused_whatever_the_schedule(tmp_path, capsys, value):
    # the default schedules never read alpha, so a NaN --alpha used to pass every check and exit 0
    # --alpha=-inf, since argparse reads a separate -inf as a flag
    assert main(["verify", "--d", "3", "--lambda", "2", f"--alpha={value}"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --alpha must be finite, got {float(value)}\n"
    assert "verification report" not in captured.out
    out = tmp_path / "out"
    assert main(["converge", "--mode", "product", "--d", "3", "--lambda-max", "2", f"--alpha={value}", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: --alpha must be finite, got {float(value)}\n"
    assert not out.exists()


def test_converge_lambda_max_below_two_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["converge", "--mode", "x", "--d", "3", "--lambda-max", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: --lambda-max must be at least 2\n"
    assert not out.exists()


def test_overflowing_power_schedule_runs_at_infinite_stiffness(tmp_path, capsys):
    # 6**1000 is past the float range: from cutoff 2 on the power schedule gives k = inf, as the product schedule does
    power = ["--schedule", "power", "--alpha", "1000"]
    assert main(["converge", "--mode", "x", "--d", "3", "--lambda-max", "10", *power, "--out", str(tmp_path)]) == 0
    rows = [r.split(",") for r in (tmp_path / "x_convergence.csv").read_text().splitlines()[1:]]
    assert {r[2] for r in rows if r[1] != "1"} == {"inf"}
    assert main(["verify", "--suite", "all", "--d", "3", "--lambda", "3", *power]) == 0
    assert capsys.readouterr().err == ""


# sha256 of every build file except the casimirs (BLAS rounding) and the manifest (timing, paths);
# generators, positions, projectors and the basis use IEEE arithmetic only, so these hold on any platform
BUILD_SHA256 = {
    (4, 3): {
        "L_1_2.json": "eee564b960ab6b28b5cf2e887f5ea3fefdcca45609ef14c222db8873168b3a13",
        "L_1_3.json": "099f1a6562719b6f2580a625b5837d82782c5c2ba854eef50862cedb61d7b4eb",
        "L_1_4.json": "6c2fc90be69ac8336650e77922893cd046ea8fee07bf2d971be2307e40eaa2a4",
        "L_2_3.json": "c7303b17658116c40e4f968b15f68770da1bcc455c444e6851ff248f7c129a17",
        "L_2_4.json": "b2cb48a399ad82a81f33b67f3ae790b733a6e2cee94a5d46b02035bb8f9d3a2b",
        "L_3_4.json": "393456f58c9b76f1df493cc9e903b8901287ae928a30c8319fd6d846703b8cab",
        "P_level_0.json": "cbccb3af73464025c365f7a5713983025a9672944be435769ea2439560ce4517",
        "P_level_1.json": "ca563f5d47d5d2e4c5255e3a53b88d951d7fdd5cb20e971876126eda337dc283",
        "P_level_2.json": "cbeee0c3a31eeaf4388bf7ce98bdbc68a5036f724e1de7ec98d38b4aca1d4260",
        "P_level_3.json": "a82f16ad3635e593298259ffdcfd4b8cb291c8346ba00b0b2d98679eb2797699",
        "P_top.json": "a82f16ad3635e593298259ffdcfd4b8cb291c8346ba00b0b2d98679eb2797699",
        "basis.json": "ecba2613cc118552cc5ba9dd3d48c6385a42df9d419a65473722ad5376d44cf3",
        "x_1.json": "feefc9adebabc57b0ca5639c39d796ba61186f22bf75b7a9188ba888ec089540",
        "x_2.json": "8fed81d31ed7ad004fb1fbd6c9ef3f30bdf37de149519e96d354cebb60c847fb",
        "x_3.json": "cd4ed33e156a20c7010ea9a72d40ed4e26c9b3a6584b7edadda7ebfe16009005",
        "x_4.json": "de31e4b6a492ba4e21c847794887cb3343969e164c35881aac4857b1ba351fbb",
    },
    (5, 2): {
        "L_1_2.json": "ff048374d9ba5528cb95d462b54920175b50e679b0167fd3cff1281eec92ef20",
        "L_1_3.json": "c581aa94894230f92bf62be3f389efe50c27e3f15b0db66ba2f15dd615f29030",
        "L_1_4.json": "5d59e6ea2561dc1f15011ed23b3c906d4888ede706f3af7d7c20f6af45709f63",
        "L_1_5.json": "4f2cb845d4df30827d5978d890519efc75a39ebda3e2313448db6480fcb22fc5",
        "L_2_3.json": "1f55691b7edf961ed50eed5734004b766fa60d56c18df2cbbe35fa53bcdc4b50",
        "L_2_4.json": "16fff55bb716fbfa416edab378cee30371152142577e60c41f2779f1aee37f97",
        "L_2_5.json": "91a81e791fe856310e3fccf7e02c0d4ce5d9ed75a9ca73bdca53ff37eff940b9",
        "L_3_4.json": "4876822377842be75334e320488cd423f212a49dced6b796bf0c1bbe6edcb0bd",
        "L_3_5.json": "63490f94c145f9790181173b9b7f14b9a4a26bd88a68e6f712db8914ace06689",
        "L_4_5.json": "744cf9ae09dc2e4174a2d6aa1451aab59ce16d0f1860a7a2cab9bc40abdc6544",
        "P_level_0.json": "fa8be3000b6522d53f29abf48ba0f4392e1bc2f27bc62656250ef5d98fa40349",
        "P_level_1.json": "0ea2047f0ec7ee4d56b350b45b504f481e62218df19e5b54e98e1ce7e96af6f3",
        "P_level_2.json": "80f34af36711fb3aa3ad2f30cbd3fc7cad027e213121330af9c962b84aaa66e2",
        "P_top.json": "80f34af36711fb3aa3ad2f30cbd3fc7cad027e213121330af9c962b84aaa66e2",
        "basis.json": "d3bca121404a4248622564088ee436fac312ec0da0adb1c149654df5d5952910",
        "x_1.json": "8e1b9cf5efbc47458ce6520affadbc77f86a247b2fb1231336daddb23968ccbe",
        "x_2.json": "bcc4e881e86836844619d29fea6680694543881834ddbb64f0bea18cf6d2c8d1",
        "x_3.json": "984d949c170109c63ea505ab57de3b1ba8413f0c091eb69338d54d2db8be3a28",
        "x_4.json": "2ca1601fa656a09a7e78214f1b99236a916c634b6fc5526bde71e99bd0301319",
        "x_5.json": "f7acd30adb538e8cbaf747c28c406f6a18dfcda663d8ecfbf28a94ea16c93051",
    },
}


@pytest.mark.parametrize("D, cutoff", sorted(BUILD_SHA256))
def test_build_files_have_fixed_hashes(tmp_path, D, cutoff):
    assert main(["build", "--d", str(D), "--lambda", str(cutoff), "--out", str(tmp_path)]) == 0
    written = {p.name for p in tmp_path.iterdir() if not p.name.startswith("C_") and p.name != "manifest.json"}
    assert written == set(BUILD_SHA256[(D, cutoff)])
    for name, digest in BUILD_SHA256[(D, cutoff)].items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


LAYOUT_PROBE = """
import pathlib, sys, tempfile
loaded = lambda: sorted(m[len("fuzzyd."):] for m in sys.modules if m.startswith("fuzzyd."))
import fuzzyd
bare = loaded()
from fuzzyd.cli import main
with tempfile.TemporaryDirectory() as out:
    rc = main(sys.argv[1:] + ["--out", out])
files = sorted(p.stem for p in pathlib.Path(fuzzyd.__file__).parent.glob("*.py") if p.stem != "__init__")
json_loaded = "json" in sys.modules
import json
print(json.dumps([rc, bare, loaded(), files, json_loaded]))
"""

LAYOUT_COMMANDS = {
    "build": ["build", "--d", "3", "--lambda", "2"],
    "verify algebra": ["verify", "--suite", "algebra", "--d", "3", "--lambda", "2"],
    "verify all": ["verify", "--suite", "all", "--d", "3", "--lambda", "2"],
    "converge x": ["converge", "--mode", "x", "--d", "4", "--lambda-max", "3"],
    "converge product": ["converge", "--mode", "product", "--d", "3", "--lambda-max", "3"],
}


def test_the_package_holds_what_the_cli_loads():
    # `import fuzzyd` loads no submodule; each command loads only the modules it runs, and the
    # commands together load every module file of the package, so no module can serve the tests
    # alone; converge writes no JSON, so it leaves json unloaded; each command runs in a fresh
    # interpreter, which sees only its own imports
    env = {**os.environ, "PYTHONPATH": str(Path(fuzzyd.cli.__file__).parents[1])}
    loaded, with_json = {}, set()
    for name, argv in LAYOUT_COMMANDS.items():
        run = subprocess.run([sys.executable, "-c", LAYOUT_PROBE, *argv], env=env, capture_output=True, text=True, check=True)
        rc, bare, loaded[name], files, json_loaded = json.loads(run.stdout.splitlines()[-1])
        assert (rc, bare) == (0, []), name
        if json_loaded:
            with_json.add(name)
    assert loaded["build"] == ["_moves", "basis", "cli", "coefficients", "operators"]
    assert not {"harmonics", "realization"} & set(loaded["verify algebra"])
    assert "realization" not in loaded["converge x"]
    assert sorted(set().union(*loaded.values())) == files
    assert with_json == {"build", "verify algebra", "verify all"}


def test_the_benchmark_imports_resolve():
    # the benchmark's scripts import names from the package's modules, and a name moved between
    # modules would otherwise first fail the traced replay; the scripts are parsed, never run
    imported = []
    for path in sorted((Path(__file__).parents[1] / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fuzzyd":
                imported += [(path.name, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                imported += [(path.name, alias.name, None) for alias in node.names if alias.name.split(".")[0] == "fuzzyd"]
    assert {"k_schedule", "verify_isomorphism"} <= {name for file, _, name in imported if file == "trace.py"}
    for file, module, name in imported:
        mod = importlib.import_module(module)
        assert name is None or hasattr(mod, name), f"{file}: {module} has no {name}"


NUMPY_IMPORTS_PROBE = """
import sys, tempfile
from fuzzyd.cli import main
with tempfile.TemporaryDirectory() as out:
    assert main(["build", "--d", "4", "--lambda", "3", "--out", out]) == 0
    assert main(["converge", "--mode", "x", "--d", "4", "--lambda-max", "3", "--out", out]) == 0
    assert main(["converge", "--mode", "product", "--d", "3", "--lambda-max", "3", "--out", out]) == 0
assert main(["verify", "--suite", "all", "--d", "4", "--lambda", "3"]) == 0
print("numpy.ma" in sys.modules, "numpy.random" in sys.modules)
"""


def test_no_command_imports_numpy_ma_or_numpy_random():
    # a bare np.unique imports numpy.ma on numpy 2.4 (about 16 ms and 1 MB of resident memory),
    # and numpy.random costs about 5-6 MB; no command needs either (every verify suite runs, the
    # harmonics suite draws its sphere points from the standard library, and the product diagnostic
    # draws numpy's seeded normal stream itself), and a fresh interpreter sees only its own imports
    env = {**os.environ, "PYTHONPATH": str(Path(fuzzyd.cli.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", NUMPY_IMPORTS_PROBE], env=env, capture_output=True, text=True, check=True).stdout
    assert out.split()[-2:] == ["False", "False"]
