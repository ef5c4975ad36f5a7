import os
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from dimertree import _modp
from dimertree.linalg import GF, QQ, FieldError, parse_field_spec


def random_matrix(rng, m, n, p):
    return rng.integers(0, p, size=(m, n), dtype=np.int64)


def test_both_kernels_agree_on_random_instances():
    if not _modp.HAVE_NUMBA:
        pytest.skip("numba unavailable")
    rng = np.random.default_rng(7)
    for p in (2, 101, 32003):
        for m, n in ((1, 1), (4, 7), (7, 4), (12, 12), (20, 5)):
            a = random_matrix(rng, m, n, p)
            r1, p1 = _modp._rref_numpy(a.copy(), p)
            r2, p2 = _modp._rref_numba(a.copy(), p)
            assert np.array_equal(r1, r2)
            assert list(p1) == list(p2)


def test_rref_reproduces_row_space():
    rng = np.random.default_rng(3)
    p = 101
    a = random_matrix(rng, 6, 9, p)
    r, piv = _modp.rref_modp(a, p)
    assert _modp.rank_modp(np.vstack([a, r]), p) == len(piv)


def test_nullspace_is_kernel():
    rng = np.random.default_rng(5)
    p = 32003
    for m, n in ((3, 6), (6, 3), (5, 5)):
        a = random_matrix(rng, m, n, p)
        ns = _modp.nullspace_modp(a, p)
        assert _modp.rank_modp(a, p) + ns.shape[1] == n
        if ns.shape[1]:
            assert not np.any(_modp.matmul_modp(a, ns, p))


def test_gf_field_ops():
    f = GF(101)
    a = f.matrix([[1, 2], [3, 4]])
    assert f.rank(a) == 2
    assert f.is_zero(f.add(f.scalar(100), f.scalar(1)))
    assert f.mul(f.inv(f.scalar(7)), f.scalar(7)) == 1


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


def test_qq_empty_shapes():
    f = QQ()
    z = f.zeros(0, 4)
    assert f.shape(z) == (0, 4)
    ns = f.nullspace(z)
    assert f.shape(ns) == (4, 4)


def test_parse_field_spec():
    assert parse_field_spec("Q").name == "QQ"
    assert parse_field_spec("101").name == "GF(101)"
    assert parse_field_spec(32003).name == "GF(32003)"
    with pytest.raises(FieldError):
        parse_field_spec("six")


def test_env_flag_selects_numpy_fallback():
    code = ("import numpy as np\n"
            "from dimertree import _modp\n"
            "assert not _modp.use_numba()\n"
            "r, piv = _modp.rref_modp(np.array([[2, 4], [1, 3]]), 101)\n"
            "print(len(piv))\n")
    env = dict(os.environ, DIMERTREE_NUMBA="0")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "2"


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


def test_gf_matmul_refuses_sums_that_overflow_int64():
    f = GF(3037000493)
    a = f.matrix([[f.p - 1]])
    assert f.matmul(a, a)[0, 0] == 1  # (p-1)^2 fits: (-1)(-1) = 1
    wide = f.matrix([[f.p - 1, f.p - 1]])
    with pytest.raises(FieldError, match="overflows int64"):
        f.matmul(wide, wide.T)
    g = GF(32003)
    big = g.matrix([[g.p - 1] * 64])
    assert g.matmul(big, big.T)[0, 0] == 64
