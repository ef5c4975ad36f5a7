"""Row reductions and kernels the sparse elimination replaced, kept as
references.

The dense ones reduce numpy arrays column by column; `rref_kernel_columns`
is the earlier sparse kernel, read off the reduced rows of a matrix with
back-substitution (`linalg.rref_rows`), where `linalg.kernel_columns` now
eliminates its columns forward only.  Both must give the same vectors in
the same order.
"""
from fractions import Fraction

import numpy as np

from dimertree.linalg import GF, rref_rows


def dense_rref_modp(a, p):
    a = np.mod(a, p).astype(np.int64)
    m, n = a.shape
    pivots = []
    r = 0
    for c in range(n):
        if r >= m:
            break
        hits = np.nonzero(a[r:, c])[0]
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


def dense_rref_qq(a):
    mat = a.copy()
    m, n = mat.shape
    pivots = []
    r = 0
    for c in range(n):
        if r >= m:
            break
        piv = next((i for i in range(r, m) if mat[i, c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            mat[[r, piv]] = mat[[piv, r]]
        inv = Fraction(1) / mat[r, c]  # exact: entries may be ints
        if inv != 1:
            mat[r] = mat[r] * inv
        for i in range(m):
            if i != r and mat[i, c] != 0:
                mat[i] = mat[i] - mat[i, c] * mat[r]
        pivots.append(c)
        r += 1
    return mat, pivots


def dense_nullspace(f, a):
    n = a.shape[1]
    if isinstance(f, GF):
        r, pivots = dense_rref_modp(a, f.p)
        pivots = [int(c) for c in pivots]
    else:
        r, pivots = dense_rref_qq(a)
    free = [c for c in range(n) if c not in pivots]
    basis = f.zeros(n, len(free))
    for k, c in enumerate(free):
        basis[c, k] = f.scalar(1)
        for i, pc in enumerate(pivots):
            basis[pc, k] = f.neg(r[i, c])
    return basis


def dense(a):
    """A dense numpy copy of a `Matrix`, for the references and comparisons."""
    out = np.zeros(a.shape, dtype=object)
    for i, row in enumerate(a.rows):
        for j, x in row.items():
            out[i, j] = x
    return out


def rref_kernel_columns(rows, n, p):
    """The kernel of the matrix with these rows and n columns, one column
    per free column c of its RREF, in increasing order, with entry 1 at c
    and minus the reduced rows' entries at the pivots."""
    reduced = rref_rows(rows, p)
    pivots = {c for c, _ in reduced}
    cols = {c: {c: 1} for c in range(n) if c not in pivots}
    for c, row in reduced:
        for j, x in row.items():
            if j != c:
                cols[j][c] = -x % p if p else -x
    return list(cols.values())
