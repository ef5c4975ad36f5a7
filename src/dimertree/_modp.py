"""GF(p) matrix entry points of `linalg`, on `linalg.Matrix`es of residues
or their sparse columns.

Each passes straight through to `linalg`'s exact sparse routines over
Python ints mod p.  `GF` runs every elimination and product through them,
and the oracle reaches them only through `GF`, so a tracer that wraps
these names sees all of it; perfbench/tracer.py wraps `rref_modp`,
`nullspace_modp` and `matmul_modp` by name.
"""
from __future__ import annotations

from . import linalg


def rref_modp(a: linalg.Matrix, p: int) -> tuple[linalg.Matrix, list[int]]:
    """Forward elimination mod p: the echelon rows in pivot order and the
    pivot columns."""
    return linalg.rref_matrix(a, p)


def kernel_columns_modp(cols: list[dict], p: int) -> list[dict]:
    """The kernel vectors of the matrix with these sparse columns (mod p)."""
    return linalg.kernel_columns(cols, p)


def nullspace_modp(a: linalg.Matrix, p: int) -> linalg.Matrix:
    """Columns form a basis of the right kernel of a (mod p)."""
    return linalg.nullspace_matrix(a, p)


def matmul_modp(a: linalg.Matrix, b: linalg.Matrix, p: int) -> linalg.Matrix:
    """a @ b mod p."""
    return linalg.matmul_matrix(a, b, p)
