import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import pytest

import polycox as px

import oracles


def coxeter(names, rows):
    return px.CoxeterMatrix(tuple(names), tuple(tuple(r) for r in rows))


MATRICES = {
    "A1": coxeter("s", [[1]]),
    "A1xA1": coxeter("rs", [[1, 2], [2, 1]]),
    "A2": coxeter("st", [[1, 3], [3, 1]]),
    "B2": coxeter("st", [[1, 4], [4, 1]]),
    "I5": coxeter("st", [[1, 5], [5, 1]]),
    "A1^3": coxeter("rst", [[1, 2, 2], [2, 1, 2], [2, 2, 1]]),
    "A2xA1": coxeter("rst", [[1, 3, 2], [3, 1, 2], [2, 2, 1]]),
    "A3": coxeter("rst", [[1, 3, 2], [3, 1, 3], [2, 3, 1]]),
    "B3": coxeter("rst", [[1, 4, 2], [4, 1, 3], [2, 3, 1]]),
    "H3": coxeter("rst", [[1, 5, 2], [5, 1, 3], [2, 3, 1]]),
    "I5xA1": coxeter("rst", [[1, 5, 2], [5, 1, 2], [2, 2, 1]]),
    "Atilde2": coxeter("rst", [[1, 3, 3], [3, 1, 3], [3, 3, 1]]),
    "A4": coxeter("abcd", [[1, 3, 2, 2], [3, 1, 3, 2], [2, 3, 1, 3], [2, 2, 3, 1]]),
    # in this order Todd-Coxeter meets coincidences (25 and 23 merges)
    "B4": coxeter("abcd", [[1, 4, 2, 2], [4, 1, 3, 2], [2, 3, 1, 3], [2, 2, 3, 1]]),
    "F4": coxeter("abcd", [[1, 3, 2, 2], [3, 1, 4, 2], [2, 4, 1, 3], [2, 2, 3, 1]]),
    "D4": coxeter("abcd", [[1, 3, 2, 2], [3, 1, 3, 3], [2, 3, 1, 2], [2, 3, 2, 1]]),
}


# E8 in the Bourbaki labelling (a-c-d-e-f-g-h in a line, b attached to d);
# kept out of MATRICES, whose types the tests enumerate as groups
E8 = coxeter(
    "abcdefgh",
    [
        [1, 2, 3, 2, 2, 2, 2, 2],
        [2, 1, 2, 3, 2, 2, 2, 2],
        [3, 2, 1, 3, 2, 2, 2, 2],
        [2, 3, 3, 1, 3, 2, 2, 2],
        [2, 2, 2, 3, 1, 3, 2, 2],
        [2, 2, 2, 2, 3, 1, 3, 2],
        [2, 2, 2, 2, 2, 3, 1, 3],
        [2, 2, 2, 2, 2, 2, 3, 1],
    ],
)


def _chain(*ms):
    n = len(ms) + 1
    m = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    for i, v in enumerate(ms):
        m[i][i + 1] = m[i + 1][i] = v
    return m


# Coxeter matrices of the shortlex completions pinned in the tests; E6 in
# the Bourbaki labelling (0-2-3-4-5 in a line, 1 attached to 3)
MONOID_MATRICES = {
    "A3": _chain(3, 3),
    "D4": [[1, 3, 2, 2], [3, 1, 3, 3], [2, 3, 1, 2], [2, 3, 2, 1]],
    "H4": _chain(5, 3, 3),
    "E6": [
        [1, 2, 3, 2, 2, 2],
        [2, 1, 2, 3, 2, 2],
        [3, 2, 1, 3, 2, 2],
        [2, 3, 3, 1, 3, 2],
        [2, 2, 2, 3, 1, 3],
        [2, 2, 2, 2, 3, 1],
    ],
}


def coxeter_monoid(name: str) -> dict:
    """W as a monoid: s_i s_i => 1 and each braid relation, oriented by
    shortlex with s_{n-1} > ... > s1 > s0."""
    m = MONOID_MATRICES[name]
    n = len(m)
    rules = [{"id": f"i{i}", "lhs": f"s{i}.s{i}", "rhs": ""} for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            alt = lambda a, b: ".".join(f"s{(a, b)[t % 2]}" for t in range(m[i][j]))  # noqa: E731
            rules.append({"id": f"b{i}{j}", "lhs": alt(j, i), "rhs": alt(i, j)})
    return {"generators": [f"s{i}" for i in range(n)], "rules": rules}


@pytest.fixture(scope="session")
def groups():
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = px.enumerate_group(MATRICES[name])
        return cache[name]

    return get


@pytest.fixture(scope="session")
def gar3(groups):
    """Gar_3(W) by the certified route, built once per type for the whole
    run; tests only read it.  Tests that patch a garside internal call
    ``garside_coherent`` themselves, so no patched result is cached."""
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = px.garside_coherent(groups(name))
        return cache[name]

    return get


@pytest.fixture(scope="session")
def a3_completion(groups):
    """S(Gar_2(A3)), built once for the whole run; tests only read it."""
    return px.complete_garside(groups("A3"))


@pytest.fixture(scope="session")
def garside_parts(groups, a3_completion):
    """S(Gar_2(W)) and its Garside part, built once per type for the whole
    run (A3's completion is ``a3_completion``); tests only read them."""
    cache = {}

    def get(name):
        if name not in cache:
            gc = a3_completion if name == "A3" else px.complete_garside(groups(name))
            cache[name] = gc, px.garside_reduction_part(gc)
        return cache[name]

    return get


@pytest.fixture(scope="session")
def b3plus():
    """The positive braid presentation (s,t,a; ta=>as, st=>a)."""
    p = px.Polygraph2(
        ["s", "t", "a"],
        [px.Rule("alpha", (1, 2), (2, 0)), px.Rule("beta", (0, 1), (2,))],
    )
    order = px.deglex_from_names(p, ["t", "s", "a"])
    return p, order


@pytest.fixture(scope="session")
def b3plus_completed(b3plus):
    p, order = b3plus
    return px.homotopical_complete(p, order), order


@pytest.fixture(scope="session")
def b3plus_closure_classes(b3plus_completed):
    """The congruence classes of the completed B3+ rules (words up to
    length 6) and of the braid monoid tst = sts (words up to length 14),
    by the closure oracle; tests only read them."""
    p31, _ = b3plus_completed
    return (
        oracles.closure_classes([(r.lhs, r.rhs) for r in p31.base.rules], 3, 6, 10),
        oracles.closure_classes([((1, 0, 1), (0, 1, 0))], 2, 14, 14),
    )
