import json
from pathlib import Path

import pytest

from dimertree.quiver import Arrow, Quiver, load_quiver

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def q9():
    return load_quiver(str(FIXTURES / "q9.json"))


@pytest.fixture(scope="session")
def q7():
    return load_quiver(str(FIXTURES / "q7.json"))


@pytest.fixture(scope="session")
def c3():
    return load_quiver(str(FIXTURES / "c3.json"))


def fixture_path(name: str) -> str:
    return str(FIXTURES / f"{name}.json")


def load_fixture(name: str) -> Quiver:
    return load_quiver(fixture_path(name))


def cycle_quiver(n: int) -> Quiver:
    arrows = [Arrow(f"{i}->{i % n + 1}", i, i % n + 1) for i in range(1, n + 1)]
    return Quiver(list(range(1, n + 1)), arrows, name=f"c{n}")


def glued_dimer_tree(lengths, attach) -> Quiver:
    """Dimer tree built by gluing cycles of the given lengths along boundary
    arrows chosen by the attach indices.  Always valid by construction."""
    assert lengths and all(l >= 3 for l in lengths)
    n0 = lengths[0]
    vertices = list(range(1, n0 + 1))
    arrows = [(i, i % n0 + 1) for i in range(1, n0 + 1)]
    pool = list(arrows)
    nxt = n0 + 1
    for length, k in zip(lengths[1:], attach):
        s, t = pool.pop(k % len(pool))
        fresh = list(range(nxt, nxt + length - 2))
        nxt += length - 2
        vertices.extend(fresh)
        chain = [t] + fresh + [s]
        new = list(zip(chain, chain[1:]))
        arrows.extend(new)
        pool.extend(new)
    qarrows = [Arrow(f"{s}->{t}", s, t) for s, t in arrows]
    q = Quiver(vertices, qarrows, name="glued")
    q.check_well_formed()
    return q


def quiver_from_arrows(pairs, name="test") -> Quiver:
    vertices = []
    for s, t in pairs:
        for v in (s, t):
            if v not in vertices:
                vertices.append(v)
    return Quiver(vertices, [Arrow(f"{s}->{t}", s, t) for s, t in pairs],
                  name=name)


def multiplication_table(ab) -> dict:
    """Products of all composable class pairs of an `AlgebraBasis`; None
    marks a zero product."""
    return {(c1.cid, c2.cid): ab.mult(c1.cid, c2.cid)
            for c1 in ab.classes for c2 in ab.classes if c1.target == c2.source}


def parse_json_quiver(doc) -> Quiver:
    from dimertree.quiver import parse_quiver
    return parse_quiver(json.dumps(doc))
