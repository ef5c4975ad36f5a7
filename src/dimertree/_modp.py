"""Dense linear-algebra kernels over a prime field.

Matrices are numpy int64 arrays with entries reduced mod p.  The hot kernel
(row reduction) has a numba-jitted implementation and a pure-numpy fallback;
set DIMERTREE_NUMBA=0 to force the fallback.  Both paths return identical
results, which the test suite asserts on random instances.
"""
from __future__ import annotations

import os

import numpy as np

INT64_MAX = 2 ** 63 - 1
# a product of two residues must fit in int64: p < isqrt(INT64_MAX)
PRIME_BOUND = 3037000499


class FieldError(ValueError):
    """A field spec that is unknown, not prime, or too large for int64."""


def numba_requested() -> bool:
    flag = os.environ.get("DIMERTREE_NUMBA", "").strip().lower()
    return flag not in {"0", "false", "off", "no"}


HAVE_NUMBA = False
if numba_requested():
    try:
        from numba import njit
        HAVE_NUMBA = True
    except ImportError:
        HAVE_NUMBA = False


def _rref_numpy(a: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row echelon form mod p.  Returns (matrix, pivot columns)."""
    a = np.mod(a, p).astype(np.int64)
    m, n = a.shape
    pivots = []
    r = 0
    for c in range(n):
        if r >= m:
            break
        col = a[r:, c]
        hits = np.nonzero(col)[0]
        if hits.size == 0:
            continue
        i = r + int(hits[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = (a[r] * inv) % p
        rows = np.nonzero(a[:, c])[0]
        rows = rows[rows != r]
        if rows.size:
            a[rows] = (a[rows] - np.outer(a[rows, c], a[r])) % p
        pivots.append(c)
        r += 1
    return a, np.array(pivots, dtype=np.int64)


if HAVE_NUMBA:

    @njit(cache=True)
    def _powmod(base, exp, mod):  # pragma: no cover - jitted
        result = 1
        base %= mod
        while exp > 0:
            if exp & 1:
                result = (result * base) % mod
            base = (base * base) % mod
            exp >>= 1
        return result

    @njit(cache=True)
    def _rref_numba_impl(a, p):  # pragma: no cover - jitted
        m, n = a.shape
        pivots = np.empty(min(m, n), dtype=np.int64)
        npiv = 0
        r = 0
        for c in range(n):
            if r >= m:
                break
            piv = -1
            for i in range(r, m):
                if a[i, c] % p != 0:
                    piv = i
                    break
            if piv < 0:
                continue
            if piv != r:
                for j in range(n):
                    tmp = a[r, j]
                    a[r, j] = a[piv, j]
                    a[piv, j] = tmp
            inv = _powmod(a[r, c] % p, p - 2, p)
            for j in range(n):
                a[r, j] = (a[r, j] * inv) % p
            for i in range(m):
                if i != r and a[i, c] % p != 0:
                    f = a[i, c] % p
                    for j in range(n):
                        a[i, j] = (a[i, j] - f * a[r, j]) % p
            pivots[npiv] = c
            npiv += 1
            r += 1
        return a, pivots[:npiv]

    def _rref_numba(a: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
        a = np.mod(np.ascontiguousarray(a, dtype=np.int64), p)
        return _rref_numba_impl(a, p)


def use_numba() -> bool:
    return HAVE_NUMBA and numba_requested()


def rref_modp(a: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """RREF mod p via the active kernel."""
    if a.size == 0:
        return np.mod(a, p).astype(np.int64), np.array([], dtype=np.int64)
    if use_numba():
        return _rref_numba(a, p)
    return _rref_numpy(a, p)


def rank_modp(a: np.ndarray, p: int) -> int:
    return int(rref_modp(a, p)[1].size)


def nullspace_modp(a: np.ndarray, p: int) -> np.ndarray:
    """Columns form a basis of the right kernel of a (mod p)."""
    m, n = a.shape
    r, pivots = rref_modp(a, p)
    pivset = set(int(c) for c in pivots)
    free = [c for c in range(n) if c not in pivset]
    basis = np.zeros((n, len(free)), dtype=np.int64)
    for k, c in enumerate(free):
        basis[c, k] = 1
        for i, pc in enumerate(pivots):
            basis[int(pc), k] = (-int(r[i, c])) % p
    return basis


def matmul_modp(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for entries reduced mod p; raises FieldError when a sum
    of inner products of residues could overflow int64."""
    inner = a.shape[1]
    if inner * (p - 1) ** 2 > INT64_MAX:
        raise FieldError(
            f"GF({p}) product with inner dimension {inner} overflows int64")
    return np.mod(a.astype(np.int64) @ b.astype(np.int64), p)
