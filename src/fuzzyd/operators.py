"""Operators on the chain basis and verification of their algebraic relations.

Conventions recorded in every report:
  * the commutator of two position operators carries the overall factor i
    (the anti-Hermitian-consistent choice; the un-i'd variant is recorded as a
    residual, never asserted);
  * azimuthal ladder combinations default to the plain normalization
    O_+- = O_2 -+ i O_1 (positions: x_1 +- i x_2); pass normalized=True for
    the 1/sqrt(2) variant;
  * level-changing transitions are weighted by the canonical truncated radial
    weight, which makes the interior commutation relations exact identities.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import _moves
from .basis import basis_of, dimension, level_dimension
from .coefficients import centrifugal_coeff, radial_weight

ENTRY_DROP = 1e-15

TOL_HERMITIAN = 1e-13
TOL_DEGREE2 = 1e-12
TOL_INTERIOR = 1e-13
TOL_NILPOTENT = 1e-9


@dataclass(frozen=True)
class SparseOperator:
    """Complex square operator stored as sorted coordinate triplets."""

    dim: int
    entries: tuple  # ((row, col, complex), ...) sorted by (row, col)

    @classmethod
    def from_dict(cls, dim, data):
        items = sorted((r, c, complex(v)) for (r, c), v in data.items() if abs(v) >= ENTRY_DROP)
        for r, c, _ in items:
            if not (0 <= r < dim and 0 <= c < dim):
                raise ValueError(f"entry ({r}, {c}) outside dimension {dim}")
        return cls(dim=dim, entries=tuple(items))

    @classmethod
    def from_dense(cls, arr):
        arr = np.asarray(arr)
        n = arr.shape[0]
        if arr.shape != (n, n):
            raise ValueError(f"operator must be square, got shape {arr.shape}")
        rows, cols = np.nonzero(np.abs(arr) >= ENTRY_DROP)
        return cls(dim=n, entries=tuple((int(r), int(c), complex(arr[r, c])) for r, c in zip(rows, cols)))

    def to_dense(self):
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for r, c, v in self.entries:
            out[r, c] = v
        return out

    def to_json_obj(self):
        return {"dim": self.dim, "entries": [[r, c, v.real, v.imag] for r, c, v in self.entries]}

    @classmethod
    def from_json_obj(cls, obj):
        return cls(dim=int(obj["dim"]), entries=tuple((int(r), int(c), complex(re, im)) for r, c, re, im in obj["entries"]))

    def __neg__(self):
        return SparseOperator(self.dim, tuple((r, c, -v) for r, c, v in self.entries))


def _operator_from_action(basis, action):
    data = {}
    for col, chain in enumerate(basis.chains):
        for target, amp in action(chain):
            if target in basis and amp != 0.0:
                key = (basis.index_of(target), col)
                data[key] = data.get(key, 0j) + amp
    return SparseOperator.from_dict(len(basis), data)


def build_angular_momentum(cfg, h, j):
    """Rotation generator on the chain basis; accepts h > j as -L_{j,h}."""
    if h == j or not (1 <= min(h, j) and max(h, j) <= cfg.D):
        raise ValueError(f"generator indices ({h}, {j}) invalid for D={cfg.D}")
    if h > j:
        return -build_angular_momentum(cfg, j, h)
    basis = basis_of(cfg)
    return _operator_from_action(basis, lambda chain: _moves.generator_terms(cfg.D, chain, h, j))


def build_position(cfg, h):
    """Projected coordinate operator: coordinate move weighted by radial factors."""
    if not 1 <= h <= cfg.D:
        raise ValueError(f"coordinate index {h} outside 1..{cfg.D}")
    basis = basis_of(cfg)

    def action(chain):
        for target, amp in _moves.t_terms(cfg.D, chain, h):
            yield target, amp * radial_weight(max(chain[0], target[0]), cfg)

    return _operator_from_action(basis, action)


def build_position_ladder(cfg, sign, normalized=False):
    """x_1 + i*sign*x_2 as a single azimuthal move (1/sqrt(2) if normalized)."""
    basis = basis_of(cfg)
    scale = 1.0 / math.sqrt(2.0) if normalized else 1.0

    def action(chain):
        for target, amp in _moves.azimuthal_terms(cfg.D, chain, sign):
            yield target, scale * amp * radial_weight(max(chain[0], target[0]), cfg)

    return _operator_from_action(basis, action)


def build_generator_ladder(cfg, nu, sign, normalized=False):
    """L_{2,nu} -+ i L_{1,nu} for nu >= 3 (sign=+1 is the raising combination)."""
    if nu < 3:
        raise ValueError(f"ladder generator needs nu >= 3, got {nu}")
    l1 = build_angular_momentum(cfg, 1, nu).to_dense()
    l2 = build_angular_momentum(cfg, 2, nu).to_dense()
    out = l2 - 1j * sign * l1
    if normalized:
        out /= math.sqrt(2.0)
    return SparseOperator.from_dense(out)


def build_casimir(cfg, p):
    """Sum of squared generators of the so(p) subalgebra, computed honestly."""
    if not 2 <= p <= cfg.D:
        raise ValueError(f"casimir order {p} outside 2..{cfg.D}")
    n = dimension(cfg.D, cfg.cutoff)
    acc = np.zeros((n, n), dtype=complex)
    for h in range(1, p + 1):
        for j in range(h + 1, p + 1):
            m = build_angular_momentum(cfg, h, j).to_dense()
            acc += m @ m
    return SparseOperator.from_dense(acc)


def casimir_eigenvalue(label, p):
    """Eigenvalue of the order-p casimir on the branching label l_{p-1}."""
    return label * (label + p - 2)


def build_projector(cfg, p=None, value=None):
    """Diagonal 0/1 projector.

    With no arguments: projector on the top level (chains with l_d = cutoff).
    With (p, value): projector on the order-p casimir eigenspace whose
    branching label l_{p-1} equals `value`; raises if that eigenvalue does not
    occur in the spectrum.
    """
    basis = basis_of(cfg)
    if p is None and value is None:
        sel = [c[0] == cfg.cutoff for c in basis.chains]
    else:
        if not 2 <= p <= cfg.D:
            raise ValueError(f"casimir order {p} outside 2..{cfg.D}")
        d = cfg.D - 1
        sel = [c[d - (p - 1)] == value for c in basis.chains]
        if not any(sel):
            raise ValueError(f"no chain has branching label l_{p - 1} = {value}")
    data = {(i, i): 1.0 + 0j for i, keep in enumerate(sel) if keep}
    return SparseOperator.from_dict(len(basis), data)


def parity_operator(cfg):
    """Diagonal (-1)^level; conjugation flips the sign of every position operator."""
    basis = basis_of(cfg)
    data = {(i, i): complex((-1) ** c[0]) for i, c in enumerate(basis.chains)}
    return SparseOperator.from_dict(len(basis), data)


def position_square_expected(cfg, l):
    """Exact per-level value of the squared distance operator."""
    D, k = cfg.D, cfg.k
    den = 2 * l + D - 2
    if l == cfg.cutoff:
        return radial_weight(l, cfg) ** 2 * l / den if l > 0 else 0.0
    b = lambda m: float(centrifugal_coeff(m, D))
    return 1.0 + (b(l) + b(l + 1) * (l + D - 2) / den + b(l - 1) * l / den) / (2.0 * k)


# ---------------------------------------------------------------------------
# verification report


@dataclass(frozen=True)
class Check:
    name: str
    deviation: float
    tolerance: float
    notes: str = ""

    @property
    def passed(self):
        return self.deviation <= self.tolerance


@dataclass
class VerificationReport:
    config: str
    checks: list = field(default_factory=list)

    def add(self, name, deviation, tolerance, notes=""):
        self.checks.append(Check(name, float(deviation), float(tolerance), notes))

    @property
    def all_passed(self):
        return all(c.passed for c in self.checks)

    def to_json_obj(self):
        return {
            "config": self.config,
            "passed": self.all_passed,
            "checks": [
                {
                    "name": c.name,
                    "deviation": c.deviation,
                    "tolerance": c.tolerance,
                    "passed": c.passed,
                    "notes": c.notes,
                }
                for c in self.checks
            ],
        }

    def to_csv(self):
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["name", "deviation", "tolerance", "passed", "notes"])
        for c in self.checks:
            w.writerow([c.name, f"{c.deviation:.6e}", f"{c.tolerance:.6e}", c.passed, c.notes])
        return buf.getvalue()

    def to_text(self):
        lines = [f"verification report for {self.config}"]
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            line = f"  [{status}] {c.name}: deviation {c.deviation:.3e} (tol {c.tolerance:.1e})"
            if c.notes:
                line += f" -- {c.notes}"
            lines.append(line)
        lines.append("  => " + ("ALL PASSED" if self.all_passed else "FAILURES PRESENT"))
        return "\n".join(lines)

    def save(self, json_path=None, csv_path=None):
        if json_path:
            with open(json_path, "w") as fh:
                json.dump(self.to_json_obj(), fh, indent=2, sort_keys=True)
                fh.write("\n")
        if csv_path:
            with open(csv_path, "w") as fh:
                fh.write(self.to_csv())


def _max_entry(arr):
    return float(np.max(np.abs(arr))) if arr.size else 0.0


def _gap_product(target, others):
    """Conditioning factor prod max(1, |target - v|), accumulated in floats."""
    return math.prod(max(1.0, float(abs(target - v))) for v in others)


def _generator_pairs(D):
    return [(h, j) for h in range(1, D + 1) for j in range(h + 1, D + 1)]


def verify_algebra(cfg, tol_degree2=TOL_DEGREE2, tol_interior=TOL_INTERIOR, tol_nilpotent=TOL_NILPOTENT):
    """Check every algebraic relation the operators are supposed to satisfy."""
    D, lam, k = cfg.D, cfg.cutoff, cfg.k
    basis = basis_of(cfg)
    n = len(basis)
    levels = np.array(basis.levels())

    pairs = _generator_pairs(D)
    L = {(h, j): build_angular_momentum(cfg, h, j).to_dense() for h, j in pairs}
    X = {h: build_position(cfg, h).to_dense() for h in range(1, D + 1)}
    casimirs = {p: build_casimir(cfg, p).to_dense() for p in range(2, D + 1)}
    L2 = casimirs[D]
    top = build_projector(cfg).to_dense()

    def gen(a, b):
        if a == b:
            return np.zeros((n, n), dtype=complex)
        return L[(a, b)] if a < b else -L[(b, a)]

    def check_hermiticity():
        dev = max(
            max(_max_entry(M - M.conj().T) for M in L.values()),
            max(_max_entry(M - M.conj().T) for M in X.values()),
        )
        return Check("hermiticity of generators and positions", dev, TOL_HERMITIAN)

    def check_structure_constants():
        dev = 0.0
        for h, j in pairs:
            for p, s in pairs:
                comm = L[(h, j)] @ L[(p, s)] - L[(p, s)] @ L[(h, j)]
                expected = 1j * (
                    (gen(j, s) if h == p else 0)
                    + (gen(h, p) if j == s else 0)
                    - (gen(j, p) if h == s else 0)
                    - (gen(h, s) if j == p else 0)
                )
                dev = max(dev, _max_entry(comm - expected))
        return Check("so(D) structure constants", dev, tol_degree2)

    def check_snyder_interior():
        interior = levels < lam
        dev = 0.0
        for h in range(1, D + 1):
            for j in range(h + 1, D + 1):
                comm = X[h] @ X[j] - X[j] @ X[h]
                resid = comm + (1j / k) * gen(h, j)
                if interior.any():
                    dev = max(dev, _max_entry(resid[:, interior]))
        return Check(
            "snyder commutator, interior columns",
            dev,
            tol_interior,
            "exact identity for the canonical truncated radial weight",
        )

    def check_snyder_full():
        ctop = radial_weight(lam, cfg)
        scalar = np.diag((-1.0 / k) * np.ones(n)) + (1.0 / k + ctop**2 / (2 * lam + D - 2)) * top
        dev = 0.0
        for h in range(1, D + 1):
            for j in range(h + 1, D + 1):
                comm = X[h] @ X[j] - X[j] @ X[h]
                dev = max(dev, _max_entry(comm - 1j * scalar @ gen(h, j)))
        return Check(
            "snyder commutator with top-level projector term",
            dev,
            tol_degree2,
            "overall factor i adopted (anti-Hermitian-consistent convention)",
        )

    def check_snyder_without_i():
        # the variant lacking the overall i is incompatible with Hermitian
        # positions; its residual is recorded so the convention choice is visible
        ctop = radial_weight(lam, cfg)
        scalar = np.diag((-1.0 / k) * np.ones(n)) + (1.0 / k + ctop**2 / (2 * lam + D - 2)) * top
        dev = 0.0
        for h in range(1, D + 1):
            for j in range(h + 1, D + 1):
                comm = X[h] @ X[j] - X[j] @ X[h]
                dev = max(dev, _max_entry(comm - scalar @ gen(h, j)))
        return Check(
            "snyder variant without the factor i (recorded, not asserted)",
            dev,
            math.inf,
            "kept only to document the adopted convention",
        )

    def check_positions_span_algebra():
        # the coordinate operators generate the whole matrix algebra: the span
        # of their words saturates at dimension n^2 (numerical spanning only;
        # no explicit polynomial for each projector is constructed)
        if n > 16:
            return Check("coordinate words span the full matrix algebra", 0.0, 0.0, "skipped above dimension 16")
        span = []

        def absorb(mat):
            v = mat.ravel().astype(complex)
            for b in span:
                v = v - (b.conj() @ v) * b
            norm = np.linalg.norm(v)
            if norm > 1e-10:
                span.append(v / norm)
                return True
            return False

        frontier = [np.eye(n, dtype=complex)]
        absorb(frontier[0])
        while frontier and len(span) < n * n:
            grown = []
            for w in frontier:
                for h in range(1, D + 1):
                    m = X[h] @ w
                    if absorb(m):
                        grown.append(m)
            frontier = grown
        return Check("coordinate words span the full matrix algebra", float(n * n - len(span)), 0.0)

    def check_vector_covariance():
        dev = 0.0
        for h, s in pairs:
            for j in range(1, D + 1):
                comm = L[(h, s)] @ X[j] - X[j] @ L[(h, s)]
                expected = (-1j) * ((X[h] if j == s else 0) - (X[s] if j == h else 0))
                dev = max(dev, _max_entry(comm - expected))
        return Check("positions transform as an so(D) vector", dev, tol_degree2)

    def check_position_square():
        sq = sum(X[h] @ X[h] for h in range(1, D + 1))
        expected = np.diag([position_square_expected(cfg, int(l)) for l in levels]).astype(complex)
        return Check("squared distance spectrum per level", _max_entry(sq - expected), tol_degree2)

    def check_casimir_spectra():
        dev = 0.0
        d = D - 1
        for p in range(2, D + 1):
            diag = np.array([casimir_eigenvalue(c[d - (p - 1)], p) for c in basis.chains], dtype=complex)
            dev = max(dev, _max_entry(casimirs[p] - np.diag(diag)))
        return Check("casimir operators diagonal with branching eigenvalues", dev, tol_degree2)

    def check_casimir_multiplicities():
        d = D - 1
        bad = 0
        for l in range(lam + 1):
            count = int(np.sum(levels == l))
            if count != level_dimension(D, l):
                bad += 1
        for p in range(2, D + 1):
            labels = [c[d - (p - 1)] for c in basis.chains]
            eigs = np.sort(np.real(np.linalg.eigvals(casimirs[p])))
            expected = np.sort([casimir_eigenvalue(v, p) for v in labels])
            if not np.allclose(eigs, expected, atol=1e-9):
                bad += 1
        return Check("casimir eigenvalue multiplicities match branching counts", float(bad), 0.0)

    def check_minimal_polynomial():
        eigs = [l * (l + D - 2) for l in range(lam + 1)]
        prod = np.eye(n, dtype=complex)
        for e in eigs:
            prod = prod @ (L2 - e * np.eye(n))
        scale = _gap_product(eigs[-1], eigs[:-1])
        return Check(
            "minimal polynomial of the total casimir",
            _max_entry(prod) / scale,
            tol_degree2,
            f"deviation normalized by conditioning factor {scale:.3g}",
        )

    def check_nested_projector_polynomials():
        d = D - 1
        dev = 0.0
        for m in range(d, 1, -1):
            for v in range(lam + 1):
                proj = build_projector(cfg, p=m + 1, value=v).to_dense()
                prod = proj.copy()
                if m >= 3:
                    for w in range(v + 1):
                        prod = (casimirs[m] - casimir_eigenvalue(w, m) * np.eye(n)) @ prod
                    scale = _gap_product(casimir_eigenvalue(v, m), [casimir_eigenvalue(w, m) for w in range(v)])
                else:
                    l12 = L[(1, 2)]
                    for w in range(-v, v + 1):
                        prod = (l12 - w * np.eye(n)) @ prod
                    scale = _gap_product(v, range(-v, v))
                dev = max(dev, _max_entry(prod) / scale)
        return Check(
            "nested casimir products annihilate their projector blocks",
            dev,
            tol_degree2,
            "deviations normalized by per-product conditioning factors",
        )

    def check_nilpotency():
        power = 2 * lam + 1
        dev = 0.0
        for sign in (+1, -1):
            xpm = build_position_ladder(cfg, sign).to_dense()
            dev = max(dev, float(np.linalg.norm(np.linalg.matrix_power(xpm, power), 2)))
        for nu in range(3, D + 1):
            for sign in (+1, -1):
                lpm = build_generator_ladder(cfg, nu, sign).to_dense()
                dev = max(dev, float(np.linalg.norm(np.linalg.matrix_power(lpm, power), 2)))
        return Check(
            f"azimuthal ladder operators nilpotent at power {power}",
            dev,
            tol_nilpotent,
            "plain normalization O_2 -+ i O_1; rescaling does not affect nilpotency",
        )

    def check_generators_commute_with_casimirs():
        dev = 0.0
        for h, j in pairs:
            dev = max(dev, _max_entry(L[(h, j)] @ L2 - L2 @ L[(h, j)]))
            for p in range(max(h, j) + 1, D + 1):
                dev = max(dev, _max_entry(L[(h, j)] @ casimirs[p] - casimirs[p] @ L[(h, j)]))
        return Check("generators commute with enclosing casimirs", dev, tol_degree2)

    def check_parity():
        par = parity_operator(cfg).to_dense()
        dev = 0.0
        for h in range(1, D + 1):
            dev = max(dev, _max_entry(par @ X[h] @ par + X[h]))
        for h, j in pairs:
            dev = max(dev, _max_entry(par @ L[(h, j)] @ par - L[(h, j)]))
        return Check("parity conjugation flips positions, fixes generators", dev, TOL_HERMITIAN)

    def check_level_projectors_commute():
        dev = 0.0
        for l in range(lam + 1):
            proj = build_projector(cfg, p=D, value=l).to_dense()
            for h, j in pairs:
                dev = max(dev, _max_entry(proj @ L[(h, j)] - L[(h, j)] @ proj))
        return Check("level projectors commute with every generator", dev, TOL_HERMITIAN)

    def check_top_projector():
        dev = _max_entry(top @ top - top)
        trace_dev = abs(np.trace(top).real - level_dimension(D, lam)) if lam > 0 else abs(np.trace(top).real - 1)
        return Check("top-level projector idempotent with correct rank", max(dev, trace_dev), TOL_HERMITIAN)

    checks = [
        check_hermiticity,
        check_structure_constants,
        check_snyder_interior,
        check_snyder_full,
        check_snyder_without_i,
        check_positions_span_algebra,
        check_vector_covariance,
        check_position_square,
        check_casimir_spectra,
        check_casimir_multiplicities,
        check_minimal_polynomial,
        check_nested_projector_polynomials,
        check_nilpotency,
        check_generators_commute_with_casimirs,
        check_parity,
        check_level_projectors_commute,
        check_top_projector,
    ]
    report = VerificationReport(config=f"D={D}, cutoff={lam}, k={k:.6g}")
    report.checks.extend(check() for check in checks)
    return report
