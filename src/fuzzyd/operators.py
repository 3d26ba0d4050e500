"""Operators on the chain basis and verification of their algebraic relations.

Every operator is a dense numpy array, and `_move_matrix` is the only place
where a chain move becomes a matrix entry.  `SparseOperator` is the written
form: the public `build_*` functions return one, and the CLI stores it.

The casimirs C_2 .. C_D come from one pass, `_casimir_tower`: each generator
is squared once, and its square is added to every order it belongs to on the
level blocks only (generators keep the level), in the same order as the dense
per-order sum, so every entry is bit for bit that sum.

`verify_algebra` compares each casimir once with the diagonal l(l+p-2) that
its chain label l_{p-1} fixes, and L_12 with l_1; the polynomial, multiplicity
and commutator checks of the casimir tower read those residuals and the
labels, and the azimuthal ladders are checked against their l_1 grading.
That the coordinates generate the full matrix algebra is certified from the
same matrices and labels (Schur and Burnside): each level is connected under
the generators, x couples every pair of adjacent levels, and the top value of
the squared distance is isolated from the interior ones.

Conventions recorded in every report:
  * the commutator of two position operators carries the overall factor i
    (the anti-Hermitian-consistent choice; the un-i'd variant is recorded as a
    residual, never asserted);
  * azimuthal ladder combinations use the plain normalization
    O_+- = O_2 -+ i O_1 (positions: x_1 +- i x_2);
  * level-changing transitions are weighted by the canonical truncated radial
    weight, which makes the interior commutation relations exact identities.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import _moves
from .basis import basis_of, level_dimension
from .coefficients import centrifugal_coeff, radial_weight, updown_weights

ENTRY_DROP = 1e-15

TOL_HERMITIAN = 1e-13
TOL_DEGREE2 = 1e-12
TOL_INTERIOR = 1e-13
TOL_NILPOTENT = 1e-9


@dataclass(frozen=True)
class SparseOperator:
    """Complex square operator stored as sorted coordinate triplets; the written form of a dense array."""

    dim: int
    entries: tuple  # ((row, col, complex), ...) sorted by (row, col)

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


def _drop_noise(arr):
    """Zero, in place, the entries a SparseOperator would drop (below ENTRY_DROP)."""
    arr[np.abs(arr) < ENTRY_DROP] = 0
    return arr


def _move_matrix(src, dst, terms):
    """Dense len(dst) x len(src) matrix of a chain move; the only place a move becomes an entry.

    `src` and `dst` are sequences of chains and `terms(chain)` yields
    (target chain, amplitude); each term is added once, targets outside `dst`
    are skipped, and entries below ENTRY_DROP are zeroed (among the nonzero
    ones only, which needs no n x n temporary).
    """
    rows = {chain: i for i, chain in enumerate(dst)}
    out = np.zeros((len(dst), len(src)), dtype=complex)
    for col, chain in enumerate(src):
        for target, amp in terms(chain):
            row = rows.get(target)
            if row is not None:
                out[row, col] += amp
    r, c = np.nonzero(out)
    out[r, c] = _drop_noise(out[r, c])
    return out


def _generator_matrix(cfg, h, j):
    """Dense rotation generator L_{h,j}, h < j, on the chain basis."""
    chains = basis_of(cfg).chains
    return _move_matrix(chains, chains, lambda chain: _moves.generator_terms(cfg.D, chain, h, j))


def _radial_matrix(cfg):
    """R[i, j] = radial_weight(max(level_i, level_j)), with one weight evaluated per level."""
    weights = np.array([radial_weight(l, cfg) for l in range(cfg.cutoff + 1)])
    levels = np.array(basis_of(cfg).levels())
    return weights[np.maximum.outer(levels, levels)]


def _position_matrix(cfg, h):
    """Dense x_h = R * t_h: the coordinate move weighted by the truncated radial factors."""
    chains = basis_of(cfg).chains
    return _radial_matrix(cfg) * _move_matrix(chains, chains, lambda chain: _moves.t_terms(cfg.D, chain, h))


def _position_ladder(x1, x2, sign):
    """x_1 + i*sign*x_2 from the dense positions."""
    return _drop_noise(x1 + 1j * sign * x2)


def _ladder_combination(l1, l2, sign):
    """L_{2,nu} -+ i L_{1,nu} from the dense generators."""
    return _drop_noise(l2 - 1j * sign * l1)


def _generator_pairs(D):
    return [(h, j) for h in range(1, D + 1) for j in range(h + 1, D + 1)]


def _casimir(n, dense_generators):
    """Sum of the squares of n x n dense generators, in the order given."""
    acc = np.zeros((n, n), dtype=complex)
    for m in dense_generators:
        acc += m @ m
    return _drop_noise(acc)


def _level_blocks(basis):
    """The slice of basis ordinals on each level 0..cutoff (chains are ordered by level)."""
    bounds = np.searchsorted(basis.levels(), np.arange(basis.cutoff + 2))
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def _block_diagonal(n, parts, blocks):
    """Dense n x n matrix holding `parts` on the diagonal `blocks`, each noise-dropped, +0 elsewhere."""
    out = np.zeros((n, n), dtype=complex)
    for part, b in zip(parts, blocks):
        out[b, b] = _drop_noise(part)
    return out


def _casimir_tower(cfg, orders, generator=None):
    """One pass over the casimir tower: yields (p, dense C_p) for each p in `orders`, squaring each generator once.

    `generator(h, j)` gives the dense L_hj (`_generator_matrix` when None); it
    is called once per pair of so(max(orders)), in _generator_pairs order.
    Each square is added to every order p >= j, and C_p is yielded as soon as
    its last pair (p - 1, p) is in.  Only the level blocks are accumulated: a
    generator keeps the level, so its square is exactly +-0 off the blocks, and
    each order's additions come in _generator_pairs(p) order, so every entry
    equals the dense `_casimir` sum bit for bit.  A generator joining two
    levels raises RuntimeError.
    """
    basis = basis_of(cfg)
    blocks = _level_blocks(basis)
    acc = {}  # order -> level blocks, allocated once the first square is in and its generator freed
    for h, j in _generator_pairs(max(orders)):
        m = generator(h, j) if generator else _generator_matrix(cfg, h, j)
        if sum(np.count_nonzero(m[b, b]) for b in blocks) != np.count_nonzero(m):
            raise RuntimeError(f"generator L_{h}_{j} joins two levels; its square would leave the level blocks")
        square = m @ m
        del m
        for p in orders:
            if p >= j:
                if p not in acc:
                    acc[p] = [np.zeros((b.stop - b.start,) * 2, dtype=complex) for b in blocks]
                for part, b in zip(acc[p], blocks):
                    part += square[b, b]
        del square
        if h == j - 1 and j in orders:
            yield j, _block_diagonal(len(basis), acc.pop(j), blocks)


def _label_projector(basis, p, value):
    """0/1 diagonal of the projector on chains whose branching label l_{p-1} equals `value`."""
    d = basis.D - 1
    return np.array([float(c[d - (p - 1)] == value) for c in basis.chains])


def _parity(basis):
    """Diagonal (-1)^level."""
    return np.array([float((-1) ** c[0]) for c in basis.chains])


def build_angular_momentum(cfg, h, j):
    """Rotation generator on the chain basis; accepts h > j as -L_{j,h}."""
    if h == j or not (1 <= min(h, j) and max(h, j) <= cfg.D):
        raise ValueError(f"generator indices ({h}, {j}) invalid for D={cfg.D}")
    return SparseOperator.from_dense(_generator_matrix(cfg, h, j) if h < j else -_generator_matrix(cfg, j, h))


def build_position(cfg, h):
    """Projected coordinate operator: coordinate move weighted by radial factors."""
    if not 1 <= h <= cfg.D:
        raise ValueError(f"coordinate index {h} outside 1..{cfg.D}")
    return SparseOperator.from_dense(_position_matrix(cfg, h))


def build_position_ladder(cfg, sign):
    """x_1 + i*sign*x_2 (sign=+1 is the raising combination)."""
    return SparseOperator.from_dense(_position_ladder(_position_matrix(cfg, 1), _position_matrix(cfg, 2), sign))


def build_generator_ladder(cfg, nu, sign):
    """L_{2,nu} -+ i L_{1,nu} for nu >= 3 (sign=+1 is the raising combination)."""
    if nu < 3:
        raise ValueError(f"ladder generator needs nu >= 3, got {nu}")
    l1, l2 = (_generator_matrix(cfg, h, nu) for h in (1, 2))
    return SparseOperator.from_dense(_ladder_combination(l1, l2, sign))


def build_casimir(cfg, p):
    """Sum of the squared generators of the so(p) subalgebra: the casimir tower pass with the single order p."""
    if not 2 <= p <= cfg.D:
        raise ValueError(f"casimir order {p} outside 2..{cfg.D}")
    [(_, casimir)] = _casimir_tower(cfg, (p,))
    return SparseOperator.from_dense(casimir)


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
        p, value = cfg.D, cfg.cutoff
    elif not 2 <= p <= cfg.D:
        raise ValueError(f"casimir order {p} outside 2..{cfg.D}")
    diag = _label_projector(basis, p, value)
    if not diag.any():
        raise ValueError(f"no chain has branching label l_{p - 1} = {value}")
    return SparseOperator.from_dense(np.diag(diag))


def parity_operator(cfg):
    """Diagonal (-1)^level; conjugation flips the sign of every position operator."""
    return SparseOperator.from_dense(np.diag(_parity(basis_of(cfg))))


def position_square_expected(cfg, l):
    """Exact per-level value of the squared distance operator.

    Below the cutoff, 1 + (b(l) + b(l+1) up + b(l-1) down) / 2k with b the
    centrifugal coefficient and (up, down) = updown_weights(l, D - 1), summed
    exactly; at the cutoff only the lowering sector remains, w(l)^2 down.
    """
    D = cfg.D
    if l == cfg.cutoff:
        return radial_weight(l, cfg) ** 2 * l / (2 * l + D - 2)
    up, down = updown_weights(l, D - 1)
    b = lambda m: centrifugal_coeff(m, D)
    return 1.0 + float(b(l) + b(l + 1) * up + b(l - 1) * down) / (2.0 * cfg.k)


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


def _components(ops):
    """Connected components of the graph on the basis states with an edge wherever some op in `ops` is nonzero."""
    coupled = np.zeros(ops[0].shape, dtype=bool)
    for o in ops:
        coupled |= o != 0
    seen = np.zeros(len(coupled), dtype=bool)
    components = 0
    for start in range(len(coupled)):
        if seen[start]:
            continue
        components += 1
        frontier = [start]
        seen[start] = True
        while len(frontier):
            frontier = np.flatnonzero(coupled[frontier].any(axis=0) & ~seen)
            seen[frontier] = True
    return components


def _diagonal_residual(op, diag):
    """max |op - diag(diag)|, subtracting the diagonal from `op` in place."""
    idx = np.arange(len(diag))
    op[idx, idx] -= diag
    return _max_entry(op)


def verify_algebra(cfg, tol_degree2=TOL_DEGREE2):
    """Check every algebraic relation the operators are supposed to satisfy.

    Diagonal operators (projectors, parity) act as vectors by broadcasting.
    """
    if not 0 <= tol_degree2 < math.inf:
        raise ValueError(f"degree-2 tolerance must be finite and >= 0, got {tol_degree2}")
    D, lam, k = cfg.D, cfg.cutoff, cfg.k
    basis = basis_of(cfg)
    n = len(basis)
    labels = np.array(basis.chains).reshape(n, D - 1)  # column D - p holds l_{p-1}
    levels, azimuthal = labels[:, 0], labels[:, -1]
    blocks = _level_blocks(basis)

    pairs = _generator_pairs(D)
    L = {(h, j): _generator_matrix(cfg, h, j) for h, j in pairs}
    X = {h: _position_matrix(cfg, h) for h in range(1, D + 1)}
    eigenvalues = {p: casimir_eigenvalue(labels[:, D - p], p).astype(float) for p in range(2, D + 1)}
    residuals = {
        p: _diagonal_residual(_casimir(n, (L[pair] for pair in _generator_pairs(p))), eigenvalues[p])
        for p in range(2, D + 1)
    }
    residual_12 = _diagonal_residual(L[(1, 2)].copy(), azimuthal)
    top = _label_projector(basis, D, lam)

    def gen(a, b):
        return L[(a, b)] if a < b else -L[(b, a)]

    def check_hermiticity():
        dev = max(
            max(_max_entry(M - M.conj().T) for M in L.values()),
            max(_max_entry(M - M.conj().T) for M in X.values()),
        )
        return Check("hermiticity of generators and positions", dev, TOL_HERMITIAN)

    def check_structure_constants():
        # the (b, a) commutator is the exact negative of (a, b), and (a, a)
        # gives exactly 0, so unordered pairs attain the same maximum
        dev = 0.0
        for (h, j), (p, s) in itertools.combinations(pairs, 2):
            comm = L[(h, j)] @ L[(p, s)] - L[(p, s)] @ L[(h, j)]
            expected = 1j * (
                (gen(j, s) if h == p else 0)
                + (gen(h, p) if j == s else 0)
                - (gen(j, p) if h == s else 0)
                - (gen(h, s) if j == p else 0)
            )
            dev = max(dev, _max_entry(comm - expected))
        return Check("so(D) structure constants", dev, tol_degree2)

    @functools.cache
    def snyder_deviations():
        # one commutator [x_h, x_j] per pair serves all three Snyder checks; the
        # scalar on L_hj is diagonal, with its top-level projector term
        interior = levels < lam
        scalar = (-1.0 / k) * np.ones(n) + (1.0 / k + radial_weight(lam, cfg) ** 2 / (2 * lam + D - 2)) * top
        dev_interior = dev_full = dev_without_i = 0.0
        for h, j in pairs:
            comm = X[h] @ X[j] - X[j] @ X[h]
            dev_interior = max(dev_interior, _max_entry((comm + (1j / k) * L[(h, j)])[:, interior]))
            dev_full = max(dev_full, _max_entry(comm - 1j * scalar[:, None] * L[(h, j)]))
            dev_without_i = max(dev_without_i, _max_entry(comm - scalar[:, None] * L[(h, j)]))
        return dev_interior, dev_full, dev_without_i

    def check_snyder_interior():
        return Check(
            "snyder commutator, interior columns",
            snyder_deviations()[0],
            TOL_INTERIOR,
            "exact identity for the canonical truncated radial weight",
        )

    def check_snyder_full():
        return Check(
            "snyder commutator with top-level projector term",
            snyder_deviations()[1],
            tol_degree2,
            "overall factor i adopted (anti-Hermitian-consistent convention)",
        )

    def check_snyder_without_i():
        # the variant lacking the overall i is incompatible with Hermitian
        # positions; its residual is recorded so the convention choice is visible
        return Check(
            "snyder variant without the factor i (recorded, not asserted)",
            snyder_deviations()[2],
            math.inf,
            "kept only to document the adopted convention",
        )

    def check_positions_span_algebra():
        # Schur/Burnside certificate, as a count of failed premises: (1) each level is an so(D)
        # irrep, since the diagonal casimir tower separates its chains and a connected generator
        # graph leaves only scalars commuting (per level, so a leak merging two levels cannot
        # cancel a split one); (2) x couples every level m to m + 1, which makes
        # v -> (P_{m+1} x_h v)_h injective on level m (Schur, vector covariance); (3) the top value
        # of sum x_h^2 is isolated, so P_top and, through the Snyder top term, every L_hj P_top lie
        # in the algebra; from M(top) the x blocks then reach every level
        split = sum(_components([M[b, b] for M in L.values()]) != 1 for b in blocks)
        uncoupled = sum(not any(x[blocks[m + 1], blocks[m]].any() for x in X.values()) for m in range(lam))
        e_top = position_square_expected(cfg, lam)
        top_gap = min((abs(e_top - position_square_expected(cfg, l)) for l in range(lam)), default=math.inf)
        return Check(
            "coordinate words span the full matrix algebra",
            float(split + uncoupled + (not top_gap > 2 * tol_degree2)),
            0.0,
            f"Schur/Burnside certificate: {split} level(s) split under the generators, {uncoupled} adjacent "
            f"level pair(s) not coupled by x, top squared-distance value {top_gap:.3g} away from every interior one",
        )

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
        return Check("casimir operators diagonal with branching eigenvalues", max(residuals.values()), tol_degree2)

    def check_casimir_multiplicities():
        # chains with l_{p-1} = v: nonincreasing labels l_{D-1} .. l_p in [|v|, cutoff], times the
        # so(p) irrep dimension for p >= 3; the spectra then follow within the casimir residual (Weyl)
        bad = 0
        for p in range(2, D + 1):
            for v in range(-lam if p == 2 else 0, lam + 1):
                expected = math.comb(lam - abs(v) + D - p, D - p) * (level_dimension(p, v) if p >= 3 else 1)
                bad += int(np.count_nonzero(labels[:, D - p] == v) != expected)
        return Check(
            "casimir eigenvalue multiplicities match branching counts",
            float(bad),
            0.0,
            "chains per label l_{p-1} against the closed-form branching count, every order p",
        )

    def check_minimal_polynomial():
        # C_D = diag(c_D) with every c_D a level eigenvalue e_l makes prod_l (C_D - e_l) exactly 0
        return Check(
            "minimal polynomial of the total casimir",
            residuals[D],
            tol_degree2,
            "per-eigenspace residual max_l |(C_D - e_l) P_l|",
        )

    def check_nested_projector_polynomials():
        # the same argument per order m = 3 .. D-1, and for L_12 against l_1 at m = 2
        return Check(
            "nested casimir products annihilate their projector blocks",
            max([residual_12] + [residuals[m] for m in range(3, D)]),
            tol_degree2,
            "per-eigenspace residuals of C_3 .. C_{D-1} and of L_12",
        )

    def check_nilpotency():
        # a ladder shifting l_1 by exactly sign on |l_1| <= cutoff has its power 2*cutoff + 1 exactly 0
        power = 2 * lam + 1
        shift = azimuthal[:, None] - azimuthal[None, :]
        dev = 0.0
        for sign in (+1, -1):
            dev = max(dev, _max_entry(_position_ladder(X[1], X[2], sign)[shift != sign]))
            for nu in range(3, D + 1):
                dev = max(dev, _max_entry(_ladder_combination(L[(1, nu)], L[(2, nu)], sign)[shift != sign]))
        return Check(
            f"azimuthal ladder operators nilpotent at power {power}",
            dev,
            TOL_NILPOTENT,
            "largest ladder entry not shifting l_1 by exactly +-1; plain normalization O_2 -+ i O_1",
        )

    def check_generators_commute_with_casimirs():
        # casimirs of order above max(h, j), always including the total one; [L, diag c] has entries
        # (c_j - c_i) L_ij, and |[L, C] - [L, diag c]| <= 2 |L| |C - diag c| is the spectra check
        dev = 0.0
        for p in range(3, D + 1):
            gap = eigenvalues[p][None, :] - eigenvalues[p][:, None]
            for h, j in pairs:
                if j < p or p == D:
                    dev = max(dev, _max_entry(gap * L[(h, j)]))
        return Check(
            "generators commute with enclosing casimirs",
            dev,
            tol_degree2,
            "commutator with the exact label diagonal of each casimir",
        )

    def check_parity():
        # par M par has entries s_i s_j M_ij
        sign = _parity(basis)
        flip = sign[:, None] * sign[None, :]
        dev = 0.0
        for h in range(1, D + 1):
            dev = max(dev, _max_entry(flip * X[h] + X[h]))
        for h, j in pairs:
            dev = max(dev, _max_entry(flip * L[(h, j)] - L[(h, j)]))
        return Check("parity conjugation flips positions, fixes generators", dev, TOL_HERMITIAN)

    def check_level_projectors_commute():
        # P_l L - L P_l has entries (p_i - p_j) L_ij, so over all l the maximum is the largest entry joining two levels
        across = levels[:, None] != levels[None, :]
        return Check(
            "level projectors commute with every generator",
            max(_max_entry(M[across]) for M in L.values()),
            TOL_HERMITIAN,
        )

    def check_top_projector():
        dev = _max_entry(top * top - top)
        trace_dev = abs(top.sum().real - level_dimension(D, lam))
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
