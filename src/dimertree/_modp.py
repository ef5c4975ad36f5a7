"""GF(p) matrix entry points of `linalg`, on `linalg.Matrix`es of residues.

Each passes straight through to `linalg`'s exact sparse routines over
Python ints mod p.  The functions keep these names because
perfbench/tracer.py wraps them by name; `GF` calls them.
"""
from __future__ import annotations

from . import linalg


def rref_modp(a: linalg.Matrix, p: int) -> tuple[linalg.Matrix, list[int]]:
    """Reduced row echelon form mod p.  Returns (matrix, pivot columns)."""
    return linalg.rref_matrix(a, p)


def nullspace_modp(a: linalg.Matrix, p: int) -> linalg.Matrix:
    """Columns form a basis of the right kernel of a (mod p)."""
    return linalg.nullspace_matrix(a, p)


def matmul_modp(a: linalg.Matrix, b: linalg.Matrix, p: int) -> linalg.Matrix:
    """a @ b mod p."""
    return linalg.matmul_matrix(a, b, p)
