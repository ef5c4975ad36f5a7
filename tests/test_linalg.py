import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import dimertree
from dimertree import _modp, linalg
from dimertree.linalg import (GF, QQ, FieldError, echelon, kernel_columns,
                              parse_field_spec)

from linalg_refs import (dense, dense_nullspace, dense_rref_modp,
                         dense_rref_qq, rref_kernel_columns)


def transpose(f, a):
    return f.matrix(dense(a).T.tolist(), ncols=a.shape[0])


def entries(a):
    """The stored entries of a `Matrix`."""
    return [x for row in a.rows for x in row.values()]


def sparse_random_rows(rng, m, n, values):
    """Mostly-zero rows, some of them zero or repeated, as in the oracle."""
    rows = []
    for _ in range(m):
        if rows and rng.random() < 0.2:
            rows.append(list(rng.choice(rows)))
        elif rng.random() < 0.1:
            rows.append([0] * n)
        else:
            rows.append([rng.choice(values) if rng.random() < 0.4 else 0
                         for _ in range(n)])
    return rows


def random_matrix(rng, m, n, p):
    return GF(p).matrix(rng.integers(0, p, size=(m, n), dtype=np.int64), ncols=n)


def test_rref_reproduces_row_space():
    rng = np.random.default_rng(3)
    p = 101
    a = random_matrix(rng, 6, 9, p)
    r, piv = _modp.rref_modp(a, p)
    assert GF(p).rank(GF(p).matrix(np.vstack([dense(a), dense(r)]))) == len(piv)


def test_nullspace_is_kernel():
    rng = np.random.default_rng(5)
    p = 32003
    for m, n in ((3, 6), (6, 3), (5, 5)):
        a = random_matrix(rng, m, n, p)
        ns = _modp.nullspace_modp(a, p)
        assert GF(p).rank(a) + ns.shape[1] == n
        if ns.shape[1]:
            assert not any(_modp.matmul_modp(a, ns, p).rows)


def test_gf_field_ops():
    f = GF(101)
    a = f.matrix([[1, 2], [3, 4]])
    assert f.rank(a) == 2
    assert f.is_zero(f.add(f.scalar(100), f.scalar(1)))
    assert f.mul(f.inv(f.scalar(7)), f.scalar(7)) == 1


@pytest.mark.parametrize("field", [GF(2), GF(32003), QQ()], ids=lambda f: f.name)
def test_inverse_of_zero_raises(field):
    """Zero has no inverse, however it is written: no field answers with a
    silent 0."""
    zeros = [0, field.scalar(0)] + ([field.p, -field.p] if field.p else [])
    for z in zeros:
        with pytest.raises(ZeroDivisionError):
            field.inv(z)
    assert field.mul(field.inv(field.scalar(-1)), field.scalar(-1)) == 1


def test_gf_rejects_composite():
    with pytest.raises(FieldError):
        GF(32004)


def test_qq_rref_and_nullspace():
    f = QQ()
    a = f.matrix([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    r, piv = f.rref(a)
    assert len(piv) == 2
    ns = f.nullspace(a)
    assert ns.shape == (3, 1)
    prod = f.matmul(a, ns)
    assert f.is_zero_matrix(prod)
    assert ns[0, 0] == Fraction(-1)  # exact arithmetic, no rounding


def exact(a):
    """Every entry is a Python int or a Fraction: no float, no numpy scalar."""
    return all(type(x) in (int, Fraction) for x in entries(a))


def test_qq_inverse_is_exact():
    f = QQ()
    half = f.inv(2)
    assert type(half) is Fraction and half == Fraction(1, 2)
    minus_one = f.inv(-1)
    assert type(minus_one) is int and minus_one == -1


def test_qq_non_unit_pivots_stay_exact():
    f = QQ()
    r, piv = f.rref(f.matrix([[2, 1], [0, 3]]))
    assert piv == [0, 1] and dense(r).tolist() == [[1, 0], [0, 1]] and exact(r)
    ns = f.nullspace(f.matrix([[2, 3]]))
    assert dense(ns).tolist() == [[Fraction(-3, 2)], [1]] and exact(ns)
    assert type(ns[0, 0]) is Fraction


def test_qq_outputs_on_non_unit_matrices_are_exact():
    f = QQ()
    rng = random.Random(23)
    for _ in range(40):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        a = f.matrix(sparse_random_rows(rng, m, n, [2, -3, 5, 7, -1]), ncols=n)
        r, _ = f.rref(a)
        ns = f.nullspace(a)
        assert exact(r) and exact(ns)
        assert exact(f.matmul(a, ns)) and exact(f.matmul(a, transpose(f, a)))


def test_qq_matrix_turns_numpy_and_bool_entries_into_exact_ones():
    f = QQ()
    a = f.matrix([[np.int64(3), True], [np.int64(-1), False]])
    assert exact(a) and dense(a).tolist() == [[3, 1], [-1, 0]]
    b = f.matrix(np.array([[2, 0], [0, 5]], dtype=np.int64))
    assert exact(b) and dense(b).tolist() == [[2, 0], [0, 5]]
    assert type(f.scalar(np.int64(4))) in (int, Fraction)
    assert type(f.scalar(True)) in (int, Fraction)


def test_qq_empty_shapes():
    f = QQ()
    z = f.zeros(0, 4)
    assert z.shape == (0, 4)
    ns = f.nullspace(z)
    assert ns.shape == (4, 4)


def test_parse_field_spec():
    assert parse_field_spec("Q").name == "QQ"
    assert parse_field_spec("101").name == "GF(101)"
    assert parse_field_spec(32003).name == "GF(32003)"
    with pytest.raises(FieldError):
        parse_field_spec("six")


def test_rank_agrees_across_fields():
    rng = np.random.default_rng(11)
    a_int = rng.integers(-3, 4, size=(8, 10))
    gf = GF(32003)
    qq = QQ()
    assert gf.rank(gf.matrix(a_int.tolist())) == qq.rank(qq.matrix(a_int.tolist()))


def test_gf_rejects_primes_too_large_for_int64_before_testing_primality():
    start = time.monotonic()
    for p in (3037000507, 4294967311, 1000000000000000003):
        with pytest.raises(FieldError, match="3037000499"):
            GF(p)
    assert time.monotonic() - start < 1.0
    assert GF(3037000493).p == 3037000493  # the largest prime below the bound


def test_gf_matmul_adds_sums_that_would_overflow_int64_exactly():
    f = GF(3037000493)
    a = f.matrix([[f.p - 1]])
    assert f.matmul(a, a)[0, 0] == 1  # (p-1)^2 fits: (-1)(-1) = 1
    wide = f.matrix([[f.p - 1, f.p - 1]])
    prod = f.matmul(wide, transpose(f, wide))  # 2(p-1)^2 does not fit in int64
    assert type(prod[0, 0]) is int and dense(prod).tolist() == [[2]]
    g = GF(32003)
    big = g.matrix([[g.p - 1] * 64])
    assert g.matmul(big, transpose(g, big))[0, 0] == 64


SHAPES = [(0, 0), (0, 3), (4, 0), (1, 1), (2, 5), (5, 2), (6, 6), (9, 12), (14, 7)]


@pytest.mark.parametrize("field", [GF(2), GF(101), GF(32003), QQ()],
                         ids=lambda f: f.name)
def test_sparse_elimination_matches_the_dense_reference(field):
    rng = random.Random(17)
    values = ([1, 2, -1, -2, 3, 5, 7] if isinstance(field, QQ)
              else [1, 2, field.p - 1, field.p // 2 + 1, 12345])
    shapes = SHAPES + [(rng.randint(1, 10), rng.randint(1, 10)) for _ in range(60)]
    for m, n in shapes:
        a = field.matrix(sparse_random_rows(rng, m, n, values), ncols=n)
        assert a.shape == (m, n)
        r, piv = field.rref(a)
        ns = field.nullspace(a)
        want_ns = dense_nullspace(field, dense(a))
        if isinstance(field, GF):
            want_r, want_piv = dense_rref_modp(dense(a), field.p)
            want_piv = [int(c) for c in want_piv]
            r2, piv2 = _modp.rref_modp(a, field.p)
            assert all(type(c) is int for c in piv2)
            assert all(type(x) is int and 0 <= x < field.p for x in entries(r2))
            assert np.array_equal(dense(r2), want_r) and list(piv2) == want_piv
            assert all(type(x) is int and 0 <= x < field.p
                       for x in (*entries(r), *entries(ns)))
        else:
            want_r, want_piv = dense_rref_qq(dense(a))
            assert all(type(x) in (int, Fraction) for x in (*entries(r), *entries(ns)))
        assert all(type(c) is int for c in piv)
        assert piv == want_piv
        assert r.shape == want_r.shape and np.array_equal(dense(r), want_r)
        assert ns.shape == want_ns.shape and np.array_equal(dense(ns), dense(want_ns))
        if ns.shape[1] and m:
            assert field.is_zero_matrix(field.matmul(a, ns))


@pytest.mark.parametrize("field", [GF(2), GF(101), GF(32003), QQ()],
                         ids=lambda f: f.name)
def test_nullspace_columns_have_leads(field):
    """Each kernel column has entry 1 at its largest nonzero coordinate, the
    leads increase with the column, and every other column is zero there:
    the oracle's `submodule_cover` reads coordinates off these leads."""
    rng = random.Random(23)
    values = ([1, 2, -1, -2, 3, Fraction(1, 3)] if isinstance(field, QQ)
              else [1, 2, field.p - 1, field.p // 2 + 1])
    for m, n in SHAPES + [(rng.randint(1, 10), rng.randint(1, 10)) for _ in range(60)]:
        ns = field.nullspace(field.matrix(sparse_random_rows(rng, m, n, values),
                                          ncols=n))
        cols = [{i: row[k] for i, row in enumerate(ns.rows) if k in row}
                for k in range(ns.ncols)]
        leads = [max(col) for col in cols]
        assert leads == sorted(set(leads))
        for k, (col, lead) in enumerate(zip(cols, leads)):
            assert col[lead] == 1
            assert all(lead not in other for other in cols[:k] + cols[k + 1:])


KERNEL_FIELDS = [GF(2), GF(3), GF(32003), QQ()]


def random_column_matrices(field, rng):
    """Mostly-zero matrices with non-unit entries, some columns zero or
    repeated, and the empty and all-zero shapes, as `Matrix`es."""
    values = ([2, -3, 5, 7, -1, 1, Fraction(1, 3), Fraction(-5, 2)]
              if isinstance(field, QQ)
              else [1, 2, field.p - 1, field.p // 2 + 1, 12345])
    for m, n in SHAPES + [(rng.randint(1, 10), rng.randint(1, 10)) for _ in range(80)]:
        # rows of the transpose: zero and repeated ones are such columns
        cols = sparse_random_rows(rng, n, m, values)
        yield field.matrix([[col[i] for col in cols] for i in range(m)], ncols=n)
    for m, n in ((0, 0), (0, 5), (5, 0), (4, 6)):
        yield field.zeros(m, n)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=lambda f: f.name)
def test_column_kernel_equals_the_rref_kernel(field):
    """Forward elimination of the columns gives the kernel vectors the RREF
    of the rows gives, vector by vector, in order and entry by entry, and
    the dense reference's columns."""
    rng = random.Random(31)
    for a in random_column_matrices(field, rng):
        m, n = a.shape
        got = kernel_columns(a.columns(), field.p)
        want = rref_kernel_columns(a.rows, n, field.p)
        assert got == want, (m, n)
        # the same coordinates in the same order, and an int where the RREF
        # gives an int
        assert ([[(i, type(x)) for i, x in sorted(v.items())] for v in got]
                == [[(i, type(x)) for i, x in sorted(v.items())] for v in want])
        ns = field.nullspace(a)
        assert ns.columns() == got
        assert np.array_equal(dense(ns), dense(dense_nullspace(field, dense(a))))
        if isinstance(field, GF):
            assert all(type(x) is int and 0 <= x < field.p
                       for v in got for x in v.values())


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=lambda f: f.name)
def test_forward_pivots_equal_the_rref_pivot_columns(field):
    """The pivots of forward elimination alone are the pivot columns of the
    RREF, and their number is the rank."""
    rng = random.Random(37)
    for a in random_column_matrices(field, rng):
        pivots = field.rref(a)[1]
        assert sorted(echelon(a.rows, field.p)) == pivots
        assert field.rank(a) == len(pivots)
        # the forward-only RREF: one row per pivot, which are the RREF's,
        # with entry 1 there and none before it
        ech, ech_pivots = field.rref(a, reduced=False)
        assert ech_pivots == pivots and ech.shape == (len(pivots), a.ncols)
        assert [min(r) for r in ech.rows] == pivots
        assert all(r[c] == 1 for r, c in zip(ech.rows, pivots))
        # and the kernel of its columns is the column kernel
        assert field.kernel_columns(a.columns()) == kernel_columns(
            a.columns(), field.p)


def unit_column_cases(field, rng):
    """(columns, whether `kernel_columns` must fall back to `echelon`):
    empty and unit columns, repeated units, a single entry 2 or -1, and a
    general column at a random place after unit ones."""
    p = field.p
    general = ([1, 3, Fraction(1, 3), -2] if isinstance(field, QQ)
               else sorted({1, p - 1, (p // 2 + 1) % p} - {0}))
    for _ in range(40):
        m, n = rng.randint(2, 6), rng.randint(1, 10)

        def unit():
            return {rng.randrange(m): 1} if rng.random() < 0.8 else {}

        yield [{} for _ in range(n)], False
        yield [unit() for _ in range(n)], False
        rows = [rng.randrange(m) for _ in range(2)]
        yield [{rng.choice(rows): 1} for _ in range(n)], False
        # over GF(2), 2 is 0 and -1 is 1, a unit; over Q, a Fraction 1 is
        # not an int, and `echelon` would keep its type
        x = (1 if p == 2 else rng.choice([2, p - 1]) if p
             else rng.choice([2, -1, Fraction(1)]))
        cols = [unit() for _ in range(n)]
        cols[rng.randrange(n)] = {rng.randrange(m): x}
        yield cols, type(x) is not int or x != 1
        cols = [unit() for _ in range(n)]
        cols.insert(rng.randint(0, n), {i: rng.choice(general)
                                        for i in rng.sample(range(m), 2)})
        yield cols, True


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=lambda f: f.name)
def test_unit_column_kernel_equals_echelons(field, monkeypatch):
    """Read straight off empty and unit columns, the kernel is `echelon`'s,
    vector by vector, with the same keys in the same order and equal values
    of the same type; at any other column it falls back to `echelon`."""
    rng = random.Random(41)
    calls = []

    def counted(*args):
        calls.append(args)
        return echelon(*args)

    monkeypatch.setattr(linalg, "echelon", counted)
    for cols, falls_back in unit_column_cases(field, rng):
        want: list = []
        echelon(cols, field.p, want)
        calls.clear()
        got = field.kernel_columns(cols)
        assert len(calls) == falls_back, cols
        assert ([[(i, x, type(x)) for i, x in v.items()] for v in got]
                == [[(i, x, type(x)) for i, x in v.items()] for v in want]), cols


def test_zero_matrices_reduce_to_themselves():
    for f in (GF(101), QQ()):
        z = f.zeros(3, 4)
        r, piv = f.rref(z)
        assert piv == [] and f.is_zero_matrix(r) and r.shape == (3, 4)
        assert np.array_equal(dense(f.nullspace(z)), dense(f.eye(4)))


@pytest.mark.parametrize("field", [GF(2), GF(101), GF(32003), QQ()],
                         ids=lambda f: f.name)
def test_matrices_never_store_a_zero(field):
    """After `matrix`, `rref`, `nullspace`, `matmul` and a write of zero, no
    row stores a zero, and every GF(p) entry is an int in [0, p)."""
    rng = random.Random(29)
    values = ([1, 2, -1, -2, 3, 5, 7] if isinstance(field, QQ)
              else [1, 2, -1, field.p, field.p // 2 + 1, 12345])

    def check(a):
        for x in entries(a):
            assert x != 0
            if isinstance(field, GF):
                assert type(x) is int and 0 <= x < field.p
            else:
                assert type(x) in (int, Fraction)

    for m, n in SHAPES + [(rng.randint(1, 10), rng.randint(1, 10)) for _ in range(40)]:
        a = field.matrix(sparse_random_rows(rng, m, n, values), ncols=n)
        check(a)
        check(field.rref(a)[0])
        ns = field.nullspace(a)
        check(ns)
        check(field.matmul(a, ns))
        check(field.matmul(transpose(field, a), a))
        for i in range(m):
            for j in range(n):
                a[i, j] = 0
        assert a.shape == (m, n) and not any(a.rows)


def test_the_program_imports_without_numpy():
    src = str(Path(dimertree.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import sys, dimertree.cli, dimertree.oracle; "
            "sys.exit('numpy' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
