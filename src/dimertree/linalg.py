"""Field abstraction for the oracle's linear algebra.

Two fields share one small matrix API: GF(p) on numpy int64 arrays of
residues, and the exact rationals on numpy object arrays whose entries are
Python ints or Fractions, never floats.  Row reduction and kernels are
computed by one exact elimination routine on sparse rows, `rref_rows`, over
Python ints mod p or over the rationals; the oracle's matrices are tiny and
mostly zero, so only nonzero entries are touched.  Relations in the algebras
at hand have unit coefficients, so almost every rational entry stays an int,
a Fraction is made only when a non-unit is inverted, and the rational path
stays cheap and certifies the prime-field results.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import _modp

DEFAULT_PRIME = 32003
# a product of two residues must fit in int64: p < isqrt(INT64_MAX)
PRIME_BOUND = 3037000499


class FieldError(ValueError):
    """A field spec that is unknown, not prime, or too large for int64."""


def parse_field_spec(spec: str | int) -> "Field":
    if isinstance(spec, int):
        return GF(spec)
    s = str(spec).strip()
    if s.upper() in {"Q", "QQ", "RATIONAL", "RATIONALS"}:
        return QQ()
    try:
        p = int(s)
    except ValueError:
        raise FieldError(f"unknown field spec {spec!r}") from None
    return GF(p)


# -- exact elimination on sparse rows --------------------------------------------
#
# `p` is the prime of GF(p), with entries Python ints in [0, p), or None for
# the rationals, with entries Python ints or Fractions.

def rref_rows(rows: list[dict[int, object]], p: int | None) -> list[tuple[int, dict]]:
    """Reduced row echelon form of rows given as {column: nonzero entry}.

    Returns the nonzero rows of the RREF as (pivot column, row) pairs in
    increasing pivot order; each row has entry 1 at its pivot and no entry in
    another pivot column.  The input rows are not modified."""
    pivot_rows: dict[int, dict] = {}
    for row in rows:
        row = dict(row)
        while row:
            c = min(row)
            prow = pivot_rows.get(c)
            if prow is None:
                inv = pow(row[c], -1, p) if p else _qq_inverse(row[c])
                pivot_rows[c] = {j: x * inv % p if p else x * inv
                                 for j, x in row.items()}
                break
            _eliminate(row, row[c], prow, p)
    # back substitution, highest pivot first: the rows above are reduced, so
    # subtracting them adds no entry in a pivot column
    order = sorted(pivot_rows)
    for c in reversed(order):
        row = pivot_rows[c]
        for j in [j for j in row if j > c and j in pivot_rows]:
            _eliminate(row, row[j], pivot_rows[j], p)
    return [(c, pivot_rows[c]) for c in order]


def _qq_inverse(x):
    """Exact rational inverse: ±1 is its own, anything else becomes a
    Fraction (a bare `1 / x` of an int would be a float)."""
    return x if x == 1 or x == -1 else Fraction(1) / x


def _qq_exact(x):
    """An int or Fraction entry as it is; any other number (a numpy integer,
    a bool) through Fraction, so no numpy scalar enters an object array."""
    return x if type(x) is int or type(x) is Fraction else Fraction(x)


def _eliminate(row: dict, f, prow: dict, p: int | None) -> None:
    """row -= f * prow, in place, keeping only nonzero entries."""
    for j, v in prow.items():
        x = row.get(j, 0) - f * v
        if p:
            x %= p
        if x:
            row[j] = x
        else:
            del row[j]


def _sparse(a: np.ndarray, p: int | None) -> list[dict[int, object]]:
    rows = []
    for r in a.tolist():
        row = {}
        for j, x in enumerate(r):
            if p:
                x %= p
            if x:
                row[j] = x
        rows.append(row)
    return rows


def _zeros(m: int, n: int, p: int | None) -> np.ndarray:
    return np.zeros((m, n), dtype=np.int64 if p else object)


def rref_matrix(a: np.ndarray, p: int | None) -> tuple[np.ndarray, list[int]]:
    """RREF of a matrix, as a matrix of the same shape and dtype, and its
    pivot columns."""
    m, n = a.shape
    out = _zeros(m, n, p)
    reduced = rref_rows(_sparse(a, p), p)
    for i, (_, row) in enumerate(reduced):
        for j, x in row.items():
            out[i, j] = x
    return out, [c for c, _ in reduced]


def nullspace_matrix(a: np.ndarray, p: int | None) -> np.ndarray:
    """Columns form a basis of the right kernel of a: one per free column
    c, with entry 1 at c and minus the reduced rows' entries at the pivots."""
    n = a.shape[1]
    reduced = rref_rows(_sparse(a, p), p)
    pivots = {c for c, _ in reduced}
    free = {c: k for k, c in enumerate(j for j in range(n) if j not in pivots)}
    basis = _zeros(n, len(free), p)
    for c, k in free.items():
        basis[c, k] = 1
    for c, row in reduced:
        for j, x in row.items():
            if j != c:
                basis[c, free[j]] = -x % p if p else -x
    return basis


class Field:
    """Matrices are 2-D numpy arrays; scalars are field elements."""
    name: str

    def matrix(self, rows, ncols: int | None = None): raise NotImplementedError
    def zeros(self, m, n): raise NotImplementedError
    def eye(self, n): raise NotImplementedError
    def rref(self, a): raise NotImplementedError
    def nullspace(self, a): raise NotImplementedError
    def matmul(self, a, b): raise NotImplementedError
    def neg(self, x): raise NotImplementedError
    def add(self, x, y): raise NotImplementedError
    def mul(self, x, y): raise NotImplementedError
    def inv(self, x): raise NotImplementedError
    def scalar(self, n): raise NotImplementedError
    def is_zero(self, x): raise NotImplementedError

    def shape(self, a):
        return a.shape

    def rank(self, a) -> int:
        return len(self.rref(a)[1])

    def is_zero_matrix(self, a) -> bool:
        return all(self.is_zero(x) for x in a.flat)


class GF(Field):
    def __init__(self, p: int):
        if p >= PRIME_BOUND:
            raise FieldError(f"GF({p}): the prime must be below "
                             f"{PRIME_BOUND} for int64 arithmetic")
        if p < 2 or any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
            raise FieldError(f"{p} is not prime")
        self.p = p
        self.name = f"GF({p})"

    def matrix(self, rows, ncols: int | None = None):
        rows = list(rows)
        if not rows:
            return self.zeros(0, ncols or 0)
        return np.mod(np.array(rows, dtype=np.int64), self.p)

    def zeros(self, m, n):
        return np.zeros((m, n), dtype=np.int64)

    def eye(self, n):
        return np.eye(n, dtype=np.int64)

    def rref(self, a):
        r, piv = _modp.rref_modp(a, self.p)
        return r, [int(c) for c in piv]

    def nullspace(self, a):
        return _modp.nullspace_modp(a, self.p)

    def matmul(self, a, b):
        return _modp.matmul_modp(a, b, self.p)

    def neg(self, x): return (-x) % self.p
    def add(self, x, y): return (x + y) % self.p
    def mul(self, x, y): return (x * y) % self.p
    def inv(self, x): return pow(int(x) % self.p, self.p - 2, self.p)
    def scalar(self, n): return int(n) % self.p
    def is_zero(self, x): return int(x) % self.p == 0


class QQ(Field):
    name = "QQ"

    def matrix(self, rows, ncols: int | None = None):
        rows = [list(r) for r in rows]
        if not rows:
            return self.zeros(0, ncols or 0)
        out = np.empty((len(rows), len(rows[0])), dtype=object)
        for i, row in enumerate(rows):
            for j, x in enumerate(row):
                out[i, j] = _qq_exact(x)
        return out

    def zeros(self, m, n):
        return _zeros(m, n, None)

    def eye(self, n):
        return np.eye(n, dtype=object)

    def rref(self, a):
        return rref_matrix(a, None)

    def nullspace(self, a):
        return nullspace_matrix(a, None)

    def matmul(self, a, b):
        if a.shape[1] != b.shape[0]:
            raise FieldError(f"shape mismatch {a.shape} @ {b.shape}")
        if a.shape[0] == 0 or b.shape[1] == 0 or a.shape[1] == 0:
            return self.zeros(a.shape[0], b.shape[1])
        return a @ b

    def neg(self, x): return -x
    def add(self, x, y): return x + y
    def mul(self, x, y): return x * y
    def inv(self, x): return _qq_inverse(x)
    def scalar(self, n): return _qq_exact(n)
    def is_zero(self, x): return x == 0
