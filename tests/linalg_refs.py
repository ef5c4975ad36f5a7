"""Row reductions, kernels and matrix helpers that left the program, kept
as references.

The dense ones reduce numpy arrays column by column.  `rref_rows` is the
earlier sparse RREF, `linalg.echelon` followed by `back_substitute`;
`rref_kernel_columns` is the earlier sparse kernel, read off its reduced
rows, where `linalg.kernel_columns` now eliminates columns forward only.
Both must give the same vectors in the same order.  The program runs
forward elimination alone, so the reduced RREF (`rref`), the matrix
builders (`matrix`, `zeros`, `eye`), `neg` and entry access by index
(`DenseMatrix`) live here, for the tests and the dense references.
"""
from fractions import Fraction

import numpy as np

from dimertree.linalg import GF, Matrix, _eliminate, echelon


class DenseMatrix(Matrix):
    """A `Matrix` read and written by index: reading an absent entry gives
    0, and writing a zero deletes the entry, so no row stores a zero."""
    __slots__ = ()

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i].get(j, 0)

    def __setitem__(self, ij, x) -> None:
        i, j = ij
        if x:
            self.rows[i][j] = x
        else:
            self.rows[i].pop(j, None)


def indexed(a):
    """A `Matrix` as a `DenseMatrix` on the same rows."""
    return DenseMatrix(a.rows, a.ncols)


def matrix(f, rows, ncols=None):
    """A matrix from dense rows of numbers, each made an element of the field
    f; `ncols` gives the width when there are no rows."""
    rows = [list(r) for r in rows]
    scalar = f.scalar
    return DenseMatrix([{j: y for j, x in enumerate(r) if x and (y := scalar(x))}
                        for r in rows],
                       len(rows[0]) if rows else ncols or 0)


def zeros(m, n):
    return DenseMatrix([{} for _ in range(m)], n)


def eye(n):
    return DenseMatrix([{i: 1} for i in range(n)], n)


def neg(f, x):
    return (-x) % f.p if f.p else -x


def rref_rows(rows, p):
    """Reduced row echelon form of rows given as {column: nonzero entry}.

    Returns the nonzero rows of the RREF as (pivot column, row) pairs in
    increasing pivot order; each row has entry 1 at its pivot and no entry in
    another pivot column.  The input rows are not modified."""
    pivot_rows = echelon(rows, p)
    back_substitute(pivot_rows, p)
    return [(c, pivot_rows[c]) for c in sorted(pivot_rows)]


def back_substitute(pivot_rows, p):
    """Clear every pivot column of `echelon`'s rows {pivot: row} but at its
    own pivot, in place."""
    # highest pivot first: the rows above are reduced, so subtracting them
    # adds no entry in a pivot column
    for c in sorted(pivot_rows, reverse=True):
        row = pivot_rows[c]
        for j in [j for j in row if j > c and j in pivot_rows]:
            _eliminate(row, row[j], pivot_rows[j], p)


def rref(f, a):
    """The RREF of a matrix, as a `DenseMatrix` of the same shape, and its
    pivot columns."""
    m, n = a.shape
    pairs = rref_rows(a.rows, f.p)
    rows = [row for _, row in pairs] + [{} for _ in range(m - len(pairs))]
    return DenseMatrix(rows, n), [c for c, _ in pairs]


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
    basis = zeros(n, len(free))
    for k, c in enumerate(free):
        basis[c, k] = f.scalar(1)
        for i, pc in enumerate(pivots):
            basis[pc, k] = neg(f, r[i, c])
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
