"""Field abstraction for the oracle's linear algebra.

Two backends share one small matrix API: GF(p) on numpy int64 arrays backed
by the kernels in _modp, and exact rationals on numpy object arrays of
Fractions.  Relations in the algebras at hand have unit coefficients, so the
rational path stays cheap and certifies the prime-field results.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import _modp
from ._modp import FieldError

DEFAULT_PRIME = 32003


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

    def vstack(self, mats):
        mats = list(mats)
        if not mats:
            return self.zeros(0, 0)
        return np.vstack(mats)

    def hstack(self, mats):
        mats = list(mats)
        if not mats:
            return self.zeros(0, 0)
        return np.hstack(mats)

    def is_zero_matrix(self, a) -> bool:
        return all(self.is_zero(x) for x in a.flat)

    def spec_string(self) -> str:
        return self.name


class GF(Field):
    def __init__(self, p: int):
        if p >= _modp.PRIME_BOUND:
            raise FieldError(f"GF({p}): the prime must be below "
                             f"{_modp.PRIME_BOUND} for int64 arithmetic")
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
                out[i, j] = Fraction(x)
        return out

    def zeros(self, m, n):
        out = np.empty((m, n), dtype=object)
        out[...] = Fraction(0)
        return out

    def eye(self, n):
        out = self.zeros(n, n)
        for i in range(n):
            out[i, i] = Fraction(1)
        return out

    def rref(self, a):
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
            inv = 1 / mat[r, c]
            if inv != 1:
                mat[r] = mat[r] * inv
            for i in range(m):
                if i != r and mat[i, c] != 0:
                    mat[i] = mat[i] - mat[i, c] * mat[r]
            pivots.append(c)
            r += 1
        return mat, pivots

    def nullspace(self, a):
        m, n = a.shape
        r, pivots = self.rref(a)
        pivset = set(pivots)
        free = [c for c in range(n) if c not in pivset]
        basis = self.zeros(n, len(free))
        for k, c in enumerate(free):
            basis[c, k] = Fraction(1)
            for i, pc in enumerate(pivots):
                basis[pc, k] = -r[i, c]
        return basis

    def matmul(self, a, b):
        if a.shape[1] != b.shape[0]:
            raise FieldError(f"shape mismatch {a.shape} @ {b.shape}")
        if a.shape[0] == 0 or b.shape[1] == 0 or a.shape[1] == 0:
            return self.zeros(a.shape[0], b.shape[1])
        return a @ b

    def neg(self, x): return -x
    def add(self, x, y): return x + y
    def mul(self, x, y): return x * y
    def inv(self, x): return 1 / x
    def scalar(self, n): return Fraction(n)
    def is_zero(self, x): return x == 0
