"""Field abstraction for the oracle's linear algebra.

Two fields share one small matrix type, `Matrix`: a list of sparse rows
{column: nonzero entry} and a column count.  Over GF(p) the entries are
Python ints in [0, p); over the exact rationals they are Python ints or
Fractions, never floats.  There is one elimination, `echelon`: exact
forward elimination of sparse vectors, with no back-substitution.
`Field.rref` runs it on the rows of a matrix, for echelon rows, pivots and
ranks; `kernel_columns` runs it on the columns, recording each column that
depends on the earlier ones as a kernel vector, or reads that off empty
and unit columns.  Callers reach them through a `Field`, whose GF(p)
methods pass through `_modp`.  Products come from one sparse
`matmul_matrix`, which touches only nonzero entries.  Relations in the
algebras at hand have unit coefficients, so almost every rational entry
stays an int, a Fraction is made only when a non-unit is inverted, and the
rational path stays cheap and certifies the prime-field results.
"""
from __future__ import annotations

from fractions import Fraction

from . import _modp

DEFAULT_PRIME = 32003
# primality is tested by trial division, which the bound keeps quick
PRIME_BOUND = 3037000499


class FieldError(ValueError):
    """A field spec that is unknown, not prime, or above `PRIME_BOUND`."""


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


class Matrix:
    """An m x n matrix as m sparse rows {column: nonzero entry}: the matrix
    `Field.rref`, `nullspace` and `matmul` take and give.  No row stores a
    zero."""
    __slots__ = ("rows", "ncols")

    def __init__(self, rows: list[dict[int, object]], ncols: int):
        self.rows = rows
        self.ncols = ncols

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), self.ncols

    def columns(self) -> list[dict]:
        """The columns as sparse vectors {row: nonzero entry}."""
        cols: list[dict] = [{} for _ in range(self.ncols)]
        for i, row in enumerate(self.rows):
            for j, x in row.items():
                cols[j][i] = x
        return cols


# -- exact elimination on sparse rows --------------------------------------------
#
# `p` is the prime of GF(p), with entries Python ints in [0, p), or None for
# the rationals, with entries Python ints or Fractions.

def echelon(vectors: list[dict[int, object]], p: int | None,
            kernel: list | None = None) -> dict[int, dict]:
    """Forward elimination of sparse vectors, in order: each is reduced at
    its least coordinate until it is zero or has a new pivot there, scaled
    to entry 1.  Returns the pivot rows {pivot: row}, whose pivots are the
    RREF's.  The inputs are not modified.  Given a list `kernel`, appends
    for each input k that reduces to zero e_k minus its combination of the
    earlier independent inputs, as a vector over the input indices."""
    pivot_rows: dict[int, dict] = {}
    combos: dict[int, dict] = {}
    track = kernel is not None
    for k, vec in enumerate(vectors):
        row = dict(vec)
        combo = {k: 1} if track else None
        while row:
            c = min(row)
            prow = pivot_rows.get(c)
            if prow is None:
                inv = pow(row[c], -1, p) if p else _qq_inverse(row[c])
                pivot_rows[c] = {j: x * inv % p if p else x * inv
                                 for j, x in row.items()}
                if track:
                    combos[c] = {j: x * inv % p if p else x * inv
                                 for j, x in combo.items()}
                break
            f = row[c]
            _eliminate(row, f, prow, p)
            if track:
                _eliminate(combo, f, combos[c], p)
        else:
            if track:
                kernel.append(combo)
    return pivot_rows


def _qq_inverse(x):
    """Exact rational inverse: ±1 is its own, anything else becomes a
    Fraction (a bare `1 / x` of an int would be a float)."""
    return x if x == 1 or x == -1 else Fraction(1) / x


def _qq_exact(x):
    """An int or Fraction entry as it is; any other number (a bool, another
    library's integer) through Fraction, so every stored entry is an int or
    Fraction."""
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


def rref_matrix(a: Matrix, p: int | None) -> tuple[Matrix, list[int]]:
    """Forward elimination of a matrix's rows: `echelon`'s rows in pivot
    order, as a rank x n matrix, and their pivots, the RREF's pivot
    columns.  No row is back-substituted."""
    pivot_rows = echelon(a.rows, p)
    pivots = sorted(pivot_rows)
    return Matrix([pivot_rows[c] for c in pivots], a.ncols), pivots


def kernel_columns(cols: list[dict[int, object]], p: int | None) -> list[dict]:
    """A basis of the kernel of the matrix with these sparse columns, from
    their `echelon`: for each column c that depends on the earlier ones, in
    order, e_c minus its combination of the earlier independent columns.
    That is the RREF's kernel vector for free column c, the only one on c
    and the earlier pivot columns with entry 1 at c.  So each vector has a
    lead: c is its largest coordinate, and every other vector is zero at c.
    While the columns are empty or a single int 1, it is read off them as
    `echelon` writes it: e_c, or e_c - e_j where column j first hit that
    row; at the first other column, `echelon` runs on all of them."""
    kernel: list[dict] = []
    first: dict[int, int] = {}
    for c, col in enumerate(cols):
        if not col:
            kernel.append({c: 1})
            continue
        (i, x), *more = col.items()
        if more or x != 1 or type(x) is not int:
            kernel = []
            echelon(cols, p, kernel)
            break
        j = first.setdefault(i, c)
        if j != c:
            kernel.append({c: 1, j: p - 1 if p else -1})
    return kernel


def from_columns(nrows: int, cols: list[dict]) -> Matrix:
    """The matrix with these sparse columns {row: nonzero entry}."""
    rows: list[dict] = [{} for _ in range(nrows)]
    for j, col in enumerate(cols):
        for i, x in col.items():
            rows[i][j] = x
    return Matrix(rows, len(cols))


def nullspace_matrix(a: Matrix, p: int | None) -> Matrix:
    """The `kernel_columns` of a, as the columns of a matrix."""
    return from_columns(a.ncols, kernel_columns(a.columns(), p))


def matmul_matrix(a: Matrix, b: Matrix, p: int | None) -> Matrix:
    """a @ b, mod p over GF(p), summing only products of nonzero entries."""
    if a.ncols != len(b.rows):
        raise FieldError(f"shape mismatch {a.shape} @ {b.shape}")
    rows = []
    for arow in a.rows:
        acc: dict[int, object] = {}
        for k, x in arow.items():
            for j, y in b.rows[k].items():
                acc[j] = acc.get(j, 0) + x * y
        rows.append({j: y for j, x in acc.items() if (y := x % p if p else x)})
    return Matrix(rows, b.ncols)


class Field:
    """Matrices are `Matrix`es and vectors sparse dicts; scalars are field
    elements.  `p` is the prime of GF(p), or None for the rationals.

    `rref` runs forward elimination alone: its rows are echelon rows, not
    reduced ones.  It keeps its name because perfbench/tracer.py wraps it
    by name, until that instrument moves into the package."""
    name: str
    p: int | None

    def rref(self, a): raise NotImplementedError
    def kernel_columns(self, cols): raise NotImplementedError
    def nullspace(self, a): raise NotImplementedError
    def matmul(self, a, b): raise NotImplementedError
    def add(self, x, y): raise NotImplementedError
    def mul(self, x, y): raise NotImplementedError
    def scalar(self, n): raise NotImplementedError
    def is_zero(self, x): raise NotImplementedError

    def rank(self, a) -> int:
        return len(self.rref(a)[1])


class GF(Field):
    def __init__(self, p: int):
        if p >= PRIME_BOUND:
            raise FieldError(f"GF({p}): the prime must be below {PRIME_BOUND}")
        if p < 2 or any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
            raise FieldError(f"{p} is not prime")
        self.p = p
        self.name = f"GF({p})"

    def rref(self, a):
        return _modp.rref_modp(a, self.p)

    def kernel_columns(self, cols):
        return _modp.kernel_columns_modp(cols, self.p)

    def nullspace(self, a):
        return _modp.nullspace_modp(a, self.p)

    def matmul(self, a, b):
        return _modp.matmul_modp(a, b, self.p)

    def add(self, x, y): return (x + y) % self.p
    def mul(self, x, y): return (x * y) % self.p
    def scalar(self, n): return int(n) % self.p
    def is_zero(self, x): return int(x) % self.p == 0


class QQ(Field):
    name = "QQ"
    p = None

    def rref(self, a):
        return rref_matrix(a, None)

    def kernel_columns(self, cols):
        return kernel_columns(cols, None)

    def nullspace(self, a):
        return nullspace_matrix(a, None)

    def matmul(self, a, b):
        return matmul_matrix(a, b, None)

    def add(self, x, y): return x + y
    def mul(self, x, y): return x * y
    def scalar(self, n): return _qq_exact(n)
    def is_zero(self, x): return x == 0
