"""Finite-dimensional operator realizations of equivariant fuzzy hyperspheres."""

__version__ = "0.1.0"
