"""Operators on the chain basis and verification of their algebraic relations.

Every operator is a `SparseOperator`: sorted (row, col, value) arrays, the
one form that the builders return, the checks compute with and the CLI
writes.  `_move_triplets` is the only place where a chain move becomes a
matrix entry, and `_t_triplets` the one builder of the coordinate move t_h,
between the chain bases of any two cutoffs.  The moves come from the numpy
kernels of `_moves`, which move the label matrix of a whole basis at once,
and `BasisMap.ordinals` finds their target rows in closed form.  Each
operator has one builder, and every caller, the checks and the CLI
included, goes through it: `build_angular_momentum`, `build_position` and
`build_projector`, and the casimir tower pass below, of which
`build_casimir` takes a single order.  The arithmetic the checks need
(products, sums, adjoint, diagonal scaling, per-entry masks on the chain
labels, max-abs) works on the triplets, so no operator is ever an n x n
array here.

Every sum of operators is one `_sum` over (row, col, value) terms: each
entry's terms are added strictly left to right from +0, in the order given,
as `dense[row, col] += value` over the terms would add them.  Commutators,
`+`, `permuted`, the squared distance, the ambient casimir and the casimirs
C_2 .. C_D all go through it.  A sum of squares is a running total,
`total = _sum(n, [total.terms, square])`, so no more than one square's
terms are held at once; a total's entry is never -0, so +0 + total = total,
and the fold is bit for bit one `_sum` over all the squares.

The casimirs come from one pass, `_casimir_tower`: each generator is
squared once, over pairs of tiles of its levels, and each square is folded
into the running total of every order it belongs to and dropped.
`_casimir_tower` gives the IEEE argument that makes each fold bit for bit
the dense per-order sum of the squares, and `_square_entries` says what
makes each square bit for bit the dense one: no guarantee of BLAS, but an
observed property of these squares that the tests pin.

`verify_algebra` compares each casimir once with the diagonal l(l+p-2) that
its chain label l_{p-1} fixes, and L_12 with l_1; the polynomial, multiplicity
and commutator checks of the casimir tower read those residuals and the
labels, and the azimuthal ladders are checked against their l_1 grading.
That the coordinates generate the full matrix algebra is certified from the
same triplets and labels (Schur and Burnside): each level is connected under
the generators, x couples every pair of adjacent levels, and the top value of
the squared distance is isolated from the interior ones.  The reflection
l_1 -> -l_1 witnesses the equivariance under O(D), not only SO(D).

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
import math
from dataclasses import dataclass, field

import numpy as np

from . import _moves
from .basis import _integer, basis_of, enumerate_chains, level_dimension
from .coefficients import centrifugal_coeff, radial_weight, updown_weights

ENTRY_DROP = 1e-15
ROW_TILE = 34  # most rows or columns of a level squared in one BLAS call (`_row_tiles`), most entries written at once

TOL_HERMITIAN = 1e-13
TOL_DEGREE2 = 1e-12
TOL_INTERIOR = 1e-13
TOL_NILPOTENT = 1e-9

_ENTRY_JSON = "\n    [\n      %d,\n      %d,\n      %r,\n      %r\n    ]"
_NO_TERMS = (np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0, complex))


@dataclass(frozen=True, eq=False)
class SparseOperator:
    """dim x dim complex operator as (row, col, value) arrays sorted row-major, each (row, col) at most once.

    `rows` and `cols` are int64, `vals` complex128.  The arithmetic of the
    checks needs no dim x dim array: products (see `_product_terms`) and
    sums, each entry's terms added left to right (`_sum`); adjoint, diagonal
    scaling, per-entry masks and max-abs.  Two operators are equal when
    their dimensions, positions and values are.
    """

    dim: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    @classmethod
    def diagonal(cls, values):
        idx = np.arange(len(values))
        return cls(len(values), idx, idx, np.asarray(values, dtype=complex))

    def __eq__(self, other):
        if not isinstance(other, SparseOperator):
            return NotImplemented
        return self.dim == other.dim and all(map(np.array_equal, self.terms, other.terms))

    @property
    def entries(self):
        """((row, col, complex), ...) in row-major order, as Python numbers."""
        return tuple(zip(self.rows.tolist(), self.cols.tolist(), self.vals.tolist()))

    @functools.cached_property
    def indptr(self):
        """Row pointer: the entries of row i are indptr[i]:indptr[i + 1]."""
        return np.searchsorted(self.rows, np.arange(self.dim + 1))

    @property
    def terms(self):
        return self.rows, self.cols, self.vals

    def __add__(self, other):
        return _sum(self.dim, [self.terms, other.terms])

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return self.with_values(-self.vals)

    def __rmul__(self, scalar):
        return self.with_values(scalar * self.vals)

    def with_values(self, vals):
        """The operator with the same (row, col) pattern holding `vals`."""
        return SparseOperator(self.dim, self.rows, self.cols, vals)

    def scaled(self, left=None, right=None):
        """diag(left) @ self @ diag(right), entry by entry; None leaves that side as it is."""
        vals = self.vals if left is None else left[self.rows] * self.vals
        return self.with_values(vals if right is None else vals * right[self.cols])

    def adjoint(self):
        order = np.lexsort((self.rows, self.cols))
        return SparseOperator(self.dim, self.cols[order], self.rows[order], self.vals[order].conj())

    def permuted(self, perm):
        """The operator with basis state i renamed perm[i]: the entry (r, c) moves to (perm[r], perm[c])."""
        return _sum(self.dim, [(perm[self.rows], perm[self.cols], self.vals)])

    def where(self, keep):
        """The entries where the per-entry boolean array `keep` holds."""
        return SparseOperator(self.dim, self.rows[keep], self.cols[keep], self.vals[keep])

    def drop_noise(self):
        return self.where(np.abs(self.vals) >= ENTRY_DROP)

    def max_abs(self):
        return _max_entry(self.vals)

    def to_dense(self):
        return _scatter((self.dim, self.dim), self.rows, self.cols, self.vals)

    def _json_entries(self, part=slice(None)):
        """(row, col, real, imag) of the entries in `part`, as Python numbers."""
        vals = self.vals[part]
        return zip(self.rows[part].tolist(), self.cols[part].tolist(), vals.real.tolist(), vals.imag.tolist())

    def to_json_obj(self):
        return {"dim": self.dim, "entries": [list(entry) for entry in self._json_entries()]}

    def write_json(self, fh):
        """Write to_json_obj() to the text file fh exactly as json.dumps(obj, indent=2, sort_keys=True) + a newline writes it.

        One template, floats as their repr (the indenting json encoder is pure
        Python and takes most of the time of writing an operator), filled
        ROW_TILE entries at a time, so the text held does not grow with the
        operator.  Non-finite entries, which that encoder would write as NaN
        or Infinity, raise ValueError before any byte is written.
        """
        if not np.isfinite(self.vals).all():
            raise ValueError("operator entries must be finite to be written")
        fh.write('{\n  "dim": %d,\n  "entries": [' % self.dim)
        for start in range(0, len(self.vals), ROW_TILE):
            block = self._json_entries(slice(start, start + ROW_TILE))
            fh.write("," * (start > 0) + ",".join(_ENTRY_JSON % entry for entry in block))
        fh.write("\n  ]\n}\n" if len(self.vals) else "]\n}\n")

    def to_json_text(self):
        """The text `write_json` writes."""
        buf = io.StringIO()
        self.write_json(buf)
        return buf.getvalue()


def _product_terms(a, b):
    """The terms a_ik b_kj of a @ b as unsummed (row, col, value) arrays: a's column index joined to b's row pointer."""
    start = b.indptr[a.cols]
    count = b.indptr[a.cols + 1] - start
    left = np.repeat(np.arange(len(a.vals)), count)
    right = np.repeat(start - np.cumsum(count) + count, count) + np.arange(len(left))
    return a.rows[left], b.cols[right], a.vals[left] * b.vals[right]


def _apply(op, v):
    """The SparseOperator op applied to the vector v: each row's terms added in column order from +0."""
    out = np.zeros(op.dim, dtype=complex)
    np.add.at(out, op.rows, op.vals * v[op.cols])
    return out


def _sum(n, terms):
    """The n x n operator summing (row, col, value) term arrays, 0 for none: each entry's terms left to right from +0.

    A stable sort by key = row * n + col keeps every entry's terms in the
    order given, and np.add.at adds them one at a time in that order:
    (0 + t0) + t1 + ..., as `dense[row, col] += value` over the terms gives
    it.  No entry is dropped; `drop_noise` drops those below ENTRY_DROP.  No
    entry of the result is -0 (+0 + (+-0) and x + (-x) are +0), so a running
    total `_sum(n, [total.terms, t])` over the term arrays t one at a time is
    bit for bit one `_sum` over all of them, and holds one of them at a time.
    """
    terms = list(terms) or [_NO_TERMS]
    key = np.concatenate([rows * n + cols for rows, cols, _ in terms])
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.diff(key, prepend=-1) != 0
    total = np.zeros(np.count_nonzero(first), dtype=complex)
    np.add.at(total, np.cumsum(first) - 1, np.concatenate([vals for _, _, vals in terms])[order])
    key = key[first]
    return SparseOperator(n, key // n, key % n, total)


def _scatter(shape, rows, cols, vals):
    """Dense complex array of `shape` holding the triplets, 0 elsewhere."""
    out = np.zeros(shape, dtype=complex)
    out[rows, cols] = vals
    return out


def _max_entry(arr):
    """max |arr|, 0 for an empty array."""
    return float(np.max(np.abs(arr))) if arr.size else 0.0


def _move_triplets(src, dst, moves):
    """Row-major sorted (row, col, value) arrays of a chain move; the only place a move becomes an entry.

    `src` is the label matrix of the columns and `dst` the BasisMap of the
    rows; `moves(src)` gives the (source row, target labels, amplitude)
    arrays of the move, each (source, target) pair once.  Target rows are the
    ordinals of the targets in `dst`; targets outside `dst` are skipped, each
    entry is 0j + its amplitude, and entries below ENTRY_DROP are dropped.
    """
    cols, targets, amps = moves(src)
    rows = dst.ordinals(targets)
    found = rows >= 0
    rows, cols, vals = rows[found], cols[found], 0j + amps[found]
    order = np.lexsort((cols, rows))
    order = order[np.abs(vals[order]) >= ENTRY_DROP]
    return rows[order], cols[order], vals[order]


def _t_triplets(D, h, src_cutoff, dst_cutoff):
    """Row-major (row, col, value) arrays of t_h from the src chain basis into the dst chain basis."""
    src = enumerate_chains(D, src_cutoff).labels
    return _move_triplets(src, enumerate_chains(D, dst_cutoff), lambda labels: _moves.t_moves(D, labels, h))


def _radial_weighted(cfg, levels, rows, cols, vals):
    """Coordinate-move entries, each times w(max(levels[row], levels[col])), noise dropped.

    `levels` holds the top level of each chain that rows and cols index, at
    most cfg.cutoff for every entry.  w is the truncated radial weight of
    cfg, one evaluation per level; the product is numpy's complex x float,
    as for a dense weight array.
    """
    weights = np.array([radial_weight(l, cfg) for l in range(cfg.cutoff + 1)])
    vals = weights[np.maximum(levels[rows], levels[cols])] * vals
    keep = np.abs(vals) >= ENTRY_DROP
    return rows[keep], cols[keep], vals[keep]


def build_angular_momentum(cfg, h, j):
    """Rotation generator L_{h,j}, 1 <= h < j <= D, on the chain basis."""
    h, j = (_integer(a, "generator index") for a in (h, j))
    if not 1 <= h < j <= cfg.D:
        raise ValueError(f"generator indices ({h}, {j}) invalid for D={cfg.D}")
    basis = basis_of(cfg)
    return SparseOperator(len(basis), *_move_triplets(basis.labels, basis, lambda src: _moves.generator_moves(cfg.D, src, h, j)))


def build_position(cfg, h):
    """Projected coordinate operator x_h: the coordinate move t_h weighted by the truncated radial factors."""
    h = _integer(h, "coordinate index")
    if not 1 <= h <= cfg.D:
        raise ValueError(f"coordinate index {h} outside 1..{cfg.D}")
    basis = basis_of(cfg)
    move = _t_triplets(cfg.D, h, cfg.cutoff, cfg.cutoff)
    return SparseOperator(len(basis), *_radial_weighted(cfg, basis.labels[:, 0], *move))


def _generator_pairs(D):
    return [(h, j) for h in range(1, D + 1) for j in range(h + 1, D + 1)]


def _level_blocks(basis):
    """The slice of basis ordinals on each level 0..cutoff (chains are ordered by level)."""
    bounds = np.searchsorted(basis.labels[:, 0], np.arange(basis.cutoff + 2))
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def _row_tiles(block):
    """Balanced slices covering `block`, each at most ROW_TILE long, and at least ROW_TILE // 2 once it splits."""
    count = -(-(block.stop - block.start) // ROW_TILE)
    edges = [block.start + (block.stop - block.start) * i // count for i in range(count + 1)]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def _square_entries(m, tiles, row_buffer, col_buffer):
    """The nonzero entries of m @ m, as (row, col, value) arrays, from tile pairs of m's rows and columns.

    `tiles` are consecutive slices covering 0..n (the casimir tower passes
    the `_row_tiles` of each level block).  They only lay out the work; m may
    join any rows and columns.  Every row tile t of the row panel m[t, :]
    multiplies every column tile u of the column panel m[:, u], both
    densified from the triplets (the column panel from m's entries sorted by
    column).  The inner dimension stays n, so BLAS sums every entry over the
    same terms as the full square, but not always in the same order: with
    OpenBLAS 0.3.31 on AVX-512, dense complex panels with K = 825 give a
    one-row product, or one whose column count is not a multiple of 4, that
    differs in the last bits from its block of a 128 x 128 product.  That
    each tile product is bit for bit its block of the dense m @ m is an
    observed property of these sparse squares, with tiles of more than 16
    rows wherever a level splits (at ROW_TILE = 16, entries of C_p at D=4
    cutoff 12 moved); the tests against the dense casimirs and the build
    sha256s of the benchmark pin it, and a sum correctly rounded in any
    term order (math.fsum) would remove the dependence.  A pair of tiles
    with no k at which both m[t, k] and m[k, u] hold an entry is not
    multiplied: every term of its entries has a zero factor, so they are
    all +-0.  Which row tiles reach a column tile is read in one step, from
    a running count of the entries of m whose column k holds an entry of
    m[:, u], at the tile row pointers.  The panels are views of the flat
    zero buffers `row_buffer` and `col_buffer` (n entries per row or column
    of the largest tile), and only the entries written are set back to zero
    after each use.  Each (row, col) comes once, in tile order, not
    row-major; every entry left out is +-0.
    """
    n, parts = m.dim, [_NO_TERMS]
    edges = [t.start for t in tiles] + [n]
    by_col = np.argsort(m.cols, kind="stable")
    col_ptr, row_ptr = np.searchsorted(m.cols[by_col], edges), m.indptr[edges]
    for u, a, b in zip(tiles, col_ptr, col_ptr[1:]):
        s = by_col[a:b]
        col_at = m.rows[s], m.cols[s] - u.start
        col_panel = col_buffer[: n * (u.stop - u.start)].reshape(n, -1)
        col_panel[col_at] = m.vals[s]
        reached = np.zeros(n, dtype=bool)
        reached[col_at[0]] = True
        hits = np.concatenate(([0], np.cumsum(reached[m.cols])))[row_ptr]
        for t in itertools.compress(tiles, np.diff(hits)):
            e = slice(m.indptr[t.start], m.indptr[t.stop])
            row_at = m.rows[e] - t.start, m.cols[e]
            row_panel = row_buffer[: n * (t.stop - t.start)].reshape(-1, n)
            row_panel[row_at] = m.vals[e]
            panel = row_panel @ col_panel
            row_panel[row_at] = 0
            at = np.flatnonzero(panel)
            r, c = divmod(at, panel.shape[1])
            parts.append((r + t.start, c + u.start, panel.reshape(-1)[at]))
        col_panel[col_at] = 0
    return tuple(np.concatenate(part) for part in zip(*parts))


def _casimir_tower(cfg, orders, generator):
    """One pass over the casimir tower: yields (p, C_p) for each p in `orders`, squaring each generator once.

    `generator(h, j)` gives L_hj; it is called once per pair of
    so(max(orders)), in _generator_pairs order.  Each square is formed as
    its nonzero entries by `_square_entries`, over the `_row_tiles` of every
    level block and from one row tile buffer and one column tile buffer of
    (largest tile) x n entries, all laid out once for the pass.  The tiles
    are a work layout, not a precondition: a generator joining two levels is
    squared like any other.  Each square is folded
    into the running total of every order p >= j, as
    `total = _sum(n, [total.terms, square])`, and dropped: _generator_pairs(p)
    is a subsequence, in the same order, of _generator_pairs(max(orders)),
    so each total adds its order's squares in _generator_pairs(p) order.
    C_p is yielded as soon as its last pair (p - 1, p) is in, with the
    entries below ENTRY_DROP dropped.  The fold is bit for bit one `_sum`
    over all the squares (a total's entry is never -0, so +0 + total =
    total), and that is bit for bit the dense sum `part += square` over the
    same squares, by IEEE arithmetic alone: the terms left out are +-0, and
    x + (+-0) = x for every x != 0; a zero partial sum is +0 on both routes
    (it starts at +0, and +0 + (+-0) and x + (-x) are +0), and +0 + s = s
    for every s != 0; an entry whose terms are all zero is +0, below
    ENTRY_DROP on both routes.
    """
    basis = basis_of(cfg)
    n, tiles = len(basis), [t for b in _level_blocks(basis) for t in _row_tiles(b)]
    buffer_size = max(t.stop - t.start for t in tiles) * n
    row_buffer, col_buffer = np.zeros(buffer_size, dtype=complex), np.zeros(buffer_size, dtype=complex)
    totals = {p: _sum(n, []) for p in orders}
    for h, j in _generator_pairs(max(orders)):
        square = _square_entries(generator(h, j), tiles, row_buffer, col_buffer)
        for p in totals:
            if p >= j:
                totals[p] = _sum(n, [totals[p].terms, square])
        del square
        if h == j - 1 and j in totals:
            yield j, totals.pop(j).drop_noise()


def _label_projector(basis, p, value):
    """0/1 diagonal of the projector on chains whose branching label l_{p-1} equals `value`."""
    return (basis.labels[:, basis.D - p] == value).astype(float)


def build_casimir(cfg, p):
    """Sum of the squared generators of the so(p) subalgebra: the casimir tower pass with the single order p."""
    p = _integer(p, "casimir order")
    if not 2 <= p <= cfg.D:
        raise ValueError(f"casimir order {p} outside 2..{cfg.D}")
    [(_, casimir)] = _casimir_tower(cfg, (p,), functools.partial(build_angular_momentum, cfg))
    return casimir


def casimir_eigenvalue(label, p):
    """Eigenvalue of the order-p casimir on the branching label l_{p-1}."""
    return label * (label + p - 2)


def build_projector(cfg, p=None, value=None):
    """Diagonal 0/1 projector.

    With no arguments: projector on the top level (chains with l_d = cutoff).
    With (p, value): projector on the order-p casimir eigenspace whose
    branching label l_{p-1} equals `value`; raises if that eigenvalue does not
    occur in the spectrum.  Both are integers (bools refused), given together.
    """
    basis = basis_of(cfg)
    if p is None and value is None:
        p, value = cfg.D, cfg.cutoff
    for arg, name, other in ((p, "casimir order p", "value"), (value, "branching label value", "p")):
        if arg is None:
            raise ValueError(f"{name} must be an integer given together with {other}, got None")
    p, value = _integer(p, "casimir order"), _integer(value, "branching label")
    if not 2 <= p <= cfg.D:
        raise ValueError(f"casimir order {p} outside 2..{cfg.D}")
    diag = _label_projector(basis, p, value)
    if not diag.any():
        raise ValueError(f"no chain has branching label l_{p - 1} = {value}")
    return SparseOperator.diagonal(diag).drop_noise()


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

    def save(self, json_path, csv_path):
        import json  # loaded by the commands that write JSON, not by every command

        with open(json_path, "w") as fh:
            json.dump(self.to_json_obj(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        with open(csv_path, "w") as fh:
            fh.write(self.to_csv())


def _component_labels(n, rows, cols):
    """Connected-component label of every vertex 0..n-1 of the graph with the edges (rows[i], cols[i]).

    Min-label propagation with pointer jumping: every label is a vertex of
    its own component, and the loop stops once the labels agree along every
    edge, so two vertices share a label iff they are connected.
    """
    label = np.arange(n)
    while True:
        low = np.minimum(label[rows], label[cols])
        new = label.copy()
        np.minimum.at(new, rows, low)
        np.minimum.at(new, cols, low)
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def _diagonal_residual(op, diag):
    """max |op - diag(diag)|."""
    return (op - SparseOperator.diagonal(diag)).max_abs()


def _reflection_deviation(generators, positions, perm, phase):
    """max |R M R -+ M| over the operators, for R e_i = phase_i e_perm(i), with perm an involution and phase perm-invariant.

    x_1 and every L_1j must flip sign under R, every other generator and
    position stay; R M R holds phase_i phase_j M_ij at (perm(i), perm(j)).
    """
    ops = [(h == 1, M) for (h, _), M in generators.items()] + [(h == 1, M) for h, M in positions.items()]
    dev = 0.0
    for flip, M in ops:
        image = M.scaled(phase, phase).permuted(perm)
        dev = max(dev, (image + M if flip else image - M).max_abs())
    return dev


def _degree2_tolerance(tol):
    """`tol` if it is finite and >= 0, else ValueError: inf would leave the degree-2 checks unasserted, NaN or < 0 fail them."""
    if not 0 <= tol < math.inf:
        raise ValueError(f"degree-2 tolerance must be finite and >= 0, got {tol}")
    return tol


def verify_algebra(cfg, tol_degree2=TOL_DEGREE2):
    """Check every algebraic relation the operators are supposed to satisfy.

    Every operator is held as triplets; diagonal operators (projectors,
    parity, label functions) act as vectors on the row or column labels.
    The operators and the casimir residuals come first, so the casimir tower
    runs before any check's temporaries exist; then each check is computed
    and added in one sequence, in report order.
    """
    tol_degree2 = _degree2_tolerance(tol_degree2)
    D, lam, k = cfg.D, cfg.cutoff, cfg.k
    basis = basis_of(cfg)
    n = len(basis)
    labels = basis.labels  # column D - p holds l_{p-1}
    levels, azimuthal = labels[:, 0], labels[:, -1]

    pairs = _generator_pairs(D)
    L = {(h, j): build_angular_momentum(cfg, h, j) for h, j in pairs}
    X = {h: build_position(cfg, h) for h in range(1, D + 1)}
    eigenvalues = {p: casimir_eigenvalue(labels[:, D - p], p).astype(float) for p in range(2, D + 1)}
    tower = _casimir_tower(cfg, range(2, D + 1), lambda h, j: L[(h, j)])
    residuals = {p: _diagonal_residual(casimir, eigenvalues[p]) for p, casimir in tower}
    residual_12 = _diagonal_residual(L[(1, 2)], azimuthal)
    top = _label_projector(basis, D, lam)
    squared_distance = [position_square_expected(cfg, l) for l in range(lam + 1)]  # per level

    def gen(a, b):
        return L[(a, b)] if a < b else -L[(b, a)]

    def commutator(a, b, *minus):
        """[a, b] - sum(minus), each entry summed once: the terms of a b, then of -b a, then of every -m."""
        return _sum(n, [_product_terms(a, b), _product_terms(-b, a)] + [(-m).terms for m in minus])

    report = VerificationReport(config=f"D={D}, cutoff={lam}, k={k:.6g}")
    dev = max((M - M.adjoint()).max_abs() for M in itertools.chain(L.values(), X.values()))
    report.add("hermiticity of generators and positions", dev, TOL_HERMITIAN)

    # [b, a] = -[a, b] and [a, a] = 0 with the same right-hand sides, so the
    # unordered pairs of distinct generators carry every identity
    dev = 0.0
    for (h, j), (p, s) in itertools.combinations(pairs, 2):
        expected = []
        if h == p:
            expected.append(1j * gen(j, s))
        if j == s:
            expected.append(1j * gen(h, p))
        if h == s:
            expected.append(-1j * gen(j, p))
        if j == p:
            expected.append(-1j * gen(h, s))
        dev = max(dev, commutator(L[(h, j)], L[(p, s)], *expected).max_abs())
    report.add("so(D) structure constants", dev, tol_degree2)

    # one commutator [x_h, x_j] per pair serves all three Snyder checks; the
    # scalar on L_hj is diagonal, with its top-level projector term
    interior = levels < lam
    scalar = (-1.0 / k) * np.ones(n) + (1.0 / k + radial_weight(lam, cfg) ** 2 / (2 * lam + D - 2)) * top
    dev_interior = dev_full = dev_without_i = 0.0
    for h, j in pairs:
        comm = commutator(X[h], X[j])
        inside = comm + (1j / k) * L[(h, j)]
        dev_interior = max(dev_interior, inside.where(interior[inside.cols]).max_abs())
        dev_full = max(dev_full, (comm - L[(h, j)].scaled(1j * scalar)).max_abs())
        dev_without_i = max(dev_without_i, (comm - L[(h, j)].scaled(scalar)).max_abs())
    report.add(
        "snyder commutator, interior columns",
        dev_interior,
        TOL_INTERIOR,
        "exact identity for the canonical truncated radial weight",
    )
    report.add(
        "snyder commutator with top-level projector term",
        dev_full,
        tol_degree2,
        "overall factor i adopted (anti-Hermitian-consistent convention)",
    )
    # the variant lacking the overall i is incompatible with Hermitian
    # positions; its residual is recorded so the convention choice is visible
    report.add(
        "snyder variant without the factor i (recorded, not asserted)",
        dev_without_i,
        math.inf,
        "kept only to document the adopted convention",
    )

    # Schur/Burnside certificate, as a count of failed premises: (1) each level is an so(D)
    # irrep, since the diagonal casimir tower separates its chains and a connected generator
    # graph leaves only scalars commuting (per level, so a leak merging two levels cannot
    # cancel a split one); (2) x couples every level m to m + 1, which makes
    # v -> (P_{m+1} x_h v)_h injective on level m (Schur, vector covariance); (3) the top value
    # of sum x_h^2 is isolated, so P_top and, through the Snyder top term, every L_hj P_top lie
    # in the algebra; from M(top) the x blocks then reach every level
    inside = [M.where(levels[M.rows] == levels[M.cols]) for M in L.values()]
    label = _component_labels(n, np.concatenate([M.rows for M in inside]), np.concatenate([M.cols for M in inside]))
    split = sum(label[b].min() != label[b].max() for b in _level_blocks(basis))
    coupled = {int(l) for x in X.values() for l in levels[x.cols][levels[x.rows] == levels[x.cols] + 1]}
    uncoupled = sum(m not in coupled for m in range(lam))
    top_gap = min((abs(squared_distance[lam] - e) for e in squared_distance[:lam]), default=math.inf)
    report.add(
        "coordinate words span the full matrix algebra",
        split + uncoupled + (not top_gap > 2 * tol_degree2),
        0.0,
        f"Schur/Burnside certificate: {split} level(s) split under the generators, {uncoupled} adjacent "
        f"level pair(s) not coupled by x, top squared-distance value {top_gap:.3g} away from every interior one",
    )

    dev = 0.0
    for h, s in pairs:
        for j in range(1, D + 1):
            expected = ([-1j * X[h]] if j == s else []) + ([1j * X[s]] if j == h else [])
            dev = max(dev, commutator(L[(h, s)], X[j], *expected).max_abs())
    report.add("positions transform as an so(D) vector", dev, tol_degree2)

    sq = _sum(n, [])
    for x in X.values():
        sq = _sum(n, [sq.terms, _product_terms(x, x)])
    report.add("squared distance spectrum per level", _diagonal_residual(sq, np.array(squared_distance)[levels]), tol_degree2)

    report.add("casimir operators diagonal with branching eigenvalues", max(residuals.values()), tol_degree2)

    # chains with l_{p-1} = v: nonincreasing labels l_{D-1} .. l_p in [|v|, cutoff], times the
    # so(p) irrep dimension for p >= 3; the spectra then follow within the casimir residual (Weyl)
    bad = 0
    for p in range(2, D + 1):
        for v in range(-lam if p == 2 else 0, lam + 1):
            expected = math.comb(lam - abs(v) + D - p, D - p) * (level_dimension(p, v) if p >= 3 else 1)
            bad += int(np.count_nonzero(labels[:, D - p] == v) != expected)
    report.add(
        "casimir eigenvalue multiplicities match branching counts",
        bad,
        0.0,
        "chains per label l_{p-1} against the closed-form branching count, every order p",
    )

    # C_D = diag(c_D) with every c_D a level eigenvalue e_l makes prod_l (C_D - e_l) exactly 0
    report.add(
        "minimal polynomial of the total casimir",
        residuals[D],
        tol_degree2,
        "per-eigenspace residual max_l |(C_D - e_l) P_l|",
    )
    # the same argument per order m = 3 .. D-1, and for L_12 against l_1 at m = 2
    report.add(
        "nested casimir products annihilate their projector blocks",
        max([residual_12] + [residuals[m] for m in range(3, D)]),
        tol_degree2,
        "per-eigenspace residuals of C_3 .. C_{D-1} and of L_12",
    )

    # a ladder shifting l_1 by exactly sign on |l_1| <= cutoff has its power 2*cutoff + 1 exactly 0
    dev = 0.0
    for sign in (+1, -1):
        # x_1 + i sign x_2 and L_{2,nu} - i sign L_{1,nu}
        ladders = [X[1] + 1j * sign * X[2]] + [L[(2, nu)] - 1j * sign * L[(1, nu)] for nu in range(3, D + 1)]
        for op in map(SparseOperator.drop_noise, ladders):
            dev = max(dev, op.where(azimuthal[op.rows] - azimuthal[op.cols] != sign).max_abs())
    report.add(
        f"azimuthal ladder operators nilpotent at power {2 * lam + 1}",
        dev,
        TOL_NILPOTENT,
        "largest ladder entry not shifting l_1 by exactly +-1; plain normalization O_2 -+ i O_1",
    )

    # casimirs of order above max(h, j), always including the total one; [L, diag c] has entries
    # (c_j - c_i) L_ij, and |[L, C] - [L, diag c]| <= 2 |L| |C - diag c| is the spectra check
    dev = 0.0
    for p in range(3, D + 1):
        c = eigenvalues[p]
        for h, j in pairs:
            if j < p or p == D:
                M = L[(h, j)]
                dev = max(dev, M.with_values((c[M.cols] - c[M.rows]) * M.vals).max_abs())
    report.add(
        "generators commute with enclosing casimirs",
        dev,
        tol_degree2,
        "commutator with the exact label diagonal of each casimir",
    )

    # par = diag((-1)^level), and par M par has entries s_i s_j M_ij
    sign = np.where(levels % 2, -1.0, 1.0)
    dev = max((x.scaled(sign, sign) + x).max_abs() for x in X.values())
    dev = max([dev] + [(M.scaled(sign, sign) - M).max_abs() for M in L.values()])
    report.add("parity conjugation flips positions, fixes generators", dev, TOL_HERMITIAN)

    # R: l_1 -> -l_1 represents the reflection of axis 1, an element of O(D) outside SO(D) for every D
    perm = basis.ordinals(labels * np.array([1] * (D - 2) + [-1]))
    report.add(
        "reflection l_1 -> -l_1 flips x_1 and every L_1j, fixes the rest",
        _reflection_deviation(L, X, perm, np.ones(n)),
        TOL_HERMITIAN,
        "chain permutation with phase +1: the O(D) \\ SO(D) witness",
    )

    # P_l L - L P_l has entries (p_i - p_j) L_ij, so over all l the maximum is the largest entry joining two levels
    report.add(
        "level projectors commute with every generator",
        max(M.where(levels[M.rows] != levels[M.cols]).max_abs() for M in L.values()),
        TOL_HERMITIAN,
    )

    dev = _max_entry(top * top - top)
    trace_dev = abs(top.sum().real - level_dimension(D, lam))
    report.add("top-level projector idempotent with correct rank", max(dev, trace_dev), TOL_HERMITIAN)
    return report
