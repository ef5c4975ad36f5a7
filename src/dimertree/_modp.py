"""GF(p) matrix entry points on numpy int64 arrays of residues.

Row reduction and kernels go through `linalg`'s exact sparse elimination over
Python ints mod p, so no product of residues is formed in int64.  The
functions keep these names because perfbench/tracer.py wraps them by name;
`GF` calls them.
"""
from __future__ import annotations

import numpy as np

from . import linalg

INT64_MAX = 2 ** 63 - 1


def rref_modp(a: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row echelon form mod p.  Returns (matrix, pivot columns)."""
    r, piv = linalg.rref_matrix(a, p)
    return r, np.array(piv, dtype=np.int64)


def rank_modp(a: np.ndarray, p: int) -> int:
    return int(rref_modp(a, p)[1].size)


def nullspace_modp(a: np.ndarray, p: int) -> np.ndarray:
    """Columns form a basis of the right kernel of a (mod p)."""
    return linalg.nullspace_matrix(a, p)


def matmul_modp(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for entries reduced mod p.  When a sum of inner products
    of residues could overflow int64, it is added in Python ints."""
    if a.shape[1] * (p - 1) ** 2 > INT64_MAX:
        wide = np.mod(a.astype(object) @ b.astype(object), p)
        return wide.astype(np.int64)
    return np.mod(a.astype(np.int64) @ b.astype(np.int64), p)
