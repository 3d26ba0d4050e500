"""Gaussian-rational scalars and exact kernels for small dense systems."""

from __future__ import annotations

from fractions import Fraction


class QQi:
    """Complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        other = _coerce(other)
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __add__(self, other):
        other = _coerce(other)
        return QQi(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return QQi(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        return QQi(self.re * other.re - self.im * other.im, self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        den = other.re * other.re + other.im * other.im
        if not den:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return QQi((self.re * other.re + self.im * other.im) / den, (self.im * other.re - self.re * other.im) / den)

    def __neg__(self):
        return QQi(-self.re, -self.im)

    def conjugate(self):
        return QQi(self.re, -self.im)

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"QQi({self.re}, {self.im})"


def _coerce(x):
    if isinstance(x, QQi):
        return x
    if isinstance(x, (int, Fraction)):
        return QQi(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to QQi")


QQI_ZERO = QQi(0)
QQI_ONE = QQi(1)


def nullspace(rows, ncols):
    """Exact right-nullspace basis of a matrix given as a list of QQi rows."""
    mat = [list(r) for r in rows]
    pivots = []
    rank = 0
    for col in range(ncols):
        sel = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if sel is None:
            continue
        mat[rank], mat[sel] = mat[sel], mat[rank]
        inv = mat[rank][col]
        mat[rank] = [v / inv for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        pivots.append(col)
        rank += 1
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [QQI_ZERO] * ncols
        v[free] = QQI_ONE
        for prow, pcol in enumerate(pivots):
            v[pcol] = -mat[prow][free]
        basis.append(v)
    return basis
