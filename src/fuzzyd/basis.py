"""Chain basis of the truncated Hilbert space.

A basis state of the cutoff Hilbert space in ambient dimension D is labelled
by a chain of branching integers

    (l_d, l_{d-1}, ..., l_2, l_1),    d = D - 1,

with l_d >= l_{d-1} >= ... >= l_2 >= |l_1|.  The top entry l_d is the total
degree ("level") and runs from 0 to the cutoff.  Chains are plain tuples in
this descending order throughout the package.  A basis also holds them as
its label matrix, one int64 row per chain in basis order, column d - j
holding l_j; the chain-move kernels read that matrix.  The row of a chain
is closed-form (`BasisMap.ordinals`, the one chain -> row lookup).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

def _integer(value, name, minimum=None):
    """`value` as an int; ValueError unless it is an integer (numpy ones included, bools not) and >= minimum if given."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or (minimum is not None and value < minimum):
        raise ValueError(f"{name} must be an integer{'' if minimum is None else f' >= {minimum}'}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class FuzzyConfig:
    """One fuzzy sphere build: ambient dimension D, cutoff level, well stiffness k.

    The cutoff energy must sit below the first radial excitation, which
    requires cutoff*(cutoff + D - 2) < 2*sqrt(2k).
    """

    D: int
    cutoff: int
    k: float

    def __post_init__(self):
        object.__setattr__(self, "D", _integer(self.D, "ambient dimension", 3))
        object.__setattr__(self, "cutoff", _integer(self.cutoff, "cutoff", 0))
        if not self.k > 0:
            raise ValueError(f"stiffness k must be positive, got {self.k}")
        energy = self.cutoff * (self.cutoff + self.D - 2)
        if not energy < 2.0 * math.sqrt(2.0 * self.k):
            raise ValueError(
                f"cutoff energy {energy} violates the consistency bound "
                f"{energy} < 2*sqrt(2k) = {2.0 * math.sqrt(2.0 * self.k):.6g}"
            )

    @property
    def d(self):
        """Sphere dimension D - 1."""
        return self.D - 1


def dimension(D, cutoff):
    """Dimension of the cutoff Hilbert space.

    Closed form C(cutoff+D-2, cutoff-1) * (2*cutoff+D-1) / cutoff for
    cutoff >= 1; by convention 1 for cutoff = 0 (only the constant state).
    """
    D, cutoff = _integer(D, "ambient dimension", 3), _integer(cutoff, "cutoff", 0)
    if cutoff == 0:
        return 1
    num = math.comb(cutoff + D - 2, cutoff - 1) * (2 * cutoff + D - 1)
    q, r = divmod(num, cutoff)
    assert r == 0
    return q


def level_dimension(D, l):
    """Number of chains with fixed top entry l (dimension of one irrep block)."""
    if l == 0:
        return 1
    num = math.comb(D + l - 3, l - 1) * (D + 2 * l - 2)
    q, r = divmod(num, l)
    assert r == 0
    return q


def _extend(prefix, upper, entries_left):
    """Yield all descending continuations below `upper`, last entry signed."""
    if entries_left == 1:
        for m in range(-upper, upper + 1):
            yield prefix + (m,)
        return
    for m in range(upper + 1):
        yield from _extend(prefix + (m,), m, entries_left - 1)


def level_chains(D, top):
    """The chains with top entry `top`, in canonical (ascending lexicographic) order."""
    D, top = _integer(D, "ambient dimension", 3), _integer(top, "level", 0)
    return sorted(_extend((top,), top, D - 2))


def iter_chains(D, cutoff):
    """All chains for (D, cutoff) in canonical (ascending lexicographic) order."""
    for top in range(cutoff + 1):
        yield from level_chains(D, top)


@dataclass(frozen=True)
class BasisMap:
    """Immutable ordered chain basis with forward and reverse lookup.

    `labels` is the read-only (n, D - 1) int64 matrix of the chains, row i
    holding chain i; `_table[j, a]` is dimension(D - j, a - 1).
    """

    D: int
    cutoff: int
    chains: tuple = field(repr=False)
    labels: np.ndarray = field(repr=False, compare=False)
    _table: np.ndarray = field(repr=False, compare=False)

    def __len__(self):
        return len(self.chains)

    def ordinals(self, labels):
        """The basis ordinal of every row of the (m, D - 1) int64 label matrix `labels`; -1 for a row not in the basis.

        Chains are ordered by level, then lexicographically with l_1 signed,
        so the ordinal of a chain counts the chains before it: those of lower
        level, then those one dimension down below l_{d-1}, and so on to l_2,
        below which l_1 runs over -l_2..l_2.  With a_j the label in column j,

            ordinal = sum_{j=0}^{D-3} dimension(D - j, a_j - 1) + l_2 + l_1,

        dimension(., -1) = 0, each term read from `_table`.  A row that breaks
        the branching inequalities or lies above the cutoff, negative labels
        included, gives -1; every ordinal is below the dimension, so nothing
        overflows.
        """
        labels = np.asarray(labels, dtype=np.int64)
        if labels.ndim != 2 or labels.shape[1] != self.D - 1:
            raise ValueError(f"labels of shape {labels.shape} are not chains of D={self.D}")
        columns = labels.T
        valid = (columns[0] <= self.cutoff) & (columns[-2] >= np.abs(columns[-1]))
        for upper, lower in zip(columns[:-2], columns[1:-1]):  # column by column: faster than np.all over short rows
            valid &= upper >= lower
        inside = np.where(valid[:, None], labels, 0)  # a valid row has every label in [-cutoff, cutoff]
        out = inside[:, -2] + inside[:, -1]
        for column, counts in zip(inside.T, self._table):
            out += counts[column]
        out[~valid] = -1
        return out

    def index_of(self, chain):
        """The ordinal of one chain of integers; KeyError if it is not in the basis."""
        chain = tuple(chain)
        if len(chain) == self.D - 1 and all(isinstance(v, (int, np.integer)) and abs(v) <= self.cutoff for v in chain):
            i = int(self.ordinals([chain])[0])
            if i >= 0:
                return i
        raise KeyError(f"chain {chain} not in basis (D={self.D}, cutoff={self.cutoff})")

    def to_json_obj(self):
        """JSON form: array of integer arrays, ordinal implicit by position."""
        return [list(c) for c in self.chains]


def enumerate_chains(D, cutoff):
    """The canonical BasisMap for (D, cutoff), shared, as it is immutable.

    The two most recently used pairs are kept: as many as a command moves
    between at once (the x diagnostic's cutoff and cutoff + 1).
    """
    return _enumerate(_integer(D, "ambient dimension", 3), _integer(cutoff, "cutoff", 0))


@functools.lru_cache(maxsize=2)
def _enumerate(D, cutoff):
    chains = tuple(iter_chains(D, cutoff))
    n = dimension(D, cutoff)
    assert len(chains) == n
    labels = np.array(chains, dtype=np.int64).reshape(n, D - 1)
    labels.flags.writeable = False
    table = np.array([[dimension(D - j, a - 1) if a else 0 for a in range(cutoff + 1)] for j in range(D - 2)], dtype=np.int64)
    return BasisMap(D=D, cutoff=cutoff, chains=chains, labels=labels, _table=table)


def basis_of(cfg):
    """BasisMap for a FuzzyConfig."""
    return enumerate_chains(cfg.D, cfg.cutoff)
