"""Gaussian-rational scalars for the exact harmonic basis.

The product formula builds every harmonic polynomial with coefficients in
Q(i).  The exact checks of the harmonics suite (flat Laplacian, casimir
tower, azimuthal generator) clear each polynomial's denominators into
integer real and imaginary parts, so a passing check certifies the
construction with no rounding.
"""

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
        if isinstance(other, (int, Fraction)):
            return QQi(self.re * other, self.im * other)
        other = _coerce(other)
        return QQi(self.re * other.re - self.im * other.im, self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

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
