"""Independent references for the benchmark's output checks.

Nothing here calls polycox: reducedness is decided in the geometric
(reflection) representation of a Coxeter group, irreducible words are
counted by breadth-first search over suffixes, and the rank-3 finite
types come from a hand-written table.
"""

from __future__ import annotations

import itertools
import math

INF = 0  # Coxeter matrices encode an infinite entry as 0

# sorted m-triple of a finite rank-3 parabolic -> length of its longest element
_RANK3_W0_LENGTH = {(2, 3, 3): 6, (2, 3, 4): 9, (2, 3, 5): 15}


def rank3_w0_length(m_rs: int, m_rt: int, m_st: int) -> int | None:
    """l(w0) of the rank-3 group with these entries, or None when infinite.

    Finite exactly for sorted triples (2,2,p), (2,3,3), (2,3,4), (2,3,5).
    """
    if INF in (m_rs, m_rt, m_st):
        return None
    a, b, c = sorted((m_rs, m_rt, m_st))
    if (a, b) == (2, 2):
        return c + 1  # I2(c) x A1
    return _RANK3_W0_LENGTH.get((a, b, c))


def finite_triples(m) -> list[tuple[int, int, int]]:
    """Index triples i<j<k of a Coxeter matrix spanning a finite parabolic."""
    n = len(m)
    return [
        (i, j, k)
        for i, j, k in itertools.combinations(range(n), 3)
        if rank3_w0_length(m[i][j], m[i][k], m[j][k]) is not None
    ]


def artin_census(m) -> tuple[int, int, int, int]:
    """(0-, 1-, 2-, 3-cells) of Art_3: one braid relation per finite pair,
    one Z-cell per finite rank-3 parabolic."""
    n = len(m)
    pairs = sum(1 for i, j in itertools.combinations(range(n), 2) if m[i][j] != INF)
    return (1, n, pairs, len(finite_triples(m)))


class Reflection:
    """The geometric representation of a Coxeter group on R^n.

    B(e_i, e_j) = -cos(pi / m_ij), with -1 for an infinite entry; a word
    s_1..s_k is reduced iff s_1..s_{j-1} sends e_{s_j} to a positive root
    for every j.
    """

    def __init__(self, m):
        n = len(m)
        self.n = n
        self.b = [
            [-1.0 if m[i][j] == INF else -math.cos(math.pi / m[i][j]) for j in range(n)]
            for i in range(n)
        ]

    def _right_mult(self, mat: list[list[float]], s: int) -> list[list[float]]:
        # columns of mat * s_s: column k gets -2 B(e_s, e_k) times column s added
        n, b = self.n, self.b
        col_s = [row[s] for row in mat]
        out = [row[:] for row in mat]
        for k in range(n):
            c = -2.0 * b[s][k]
            if c:
                for r in range(n):
                    out[r][k] += c * col_s[r]
        return out

    def is_reduced(self, word) -> bool:
        n = self.n
        mat = [[1.0 if r == c else 0.0 for c in range(n)] for r in range(n)]
        for s in word:
            if sum(row[s] for row in mat) <= 0.0:  # w(e_s) is a negative root
                return False
            mat = self._right_mult(mat, s)
        return True

    def matrix(self, word) -> tuple[float, ...]:
        n = self.n
        mat = [[1.0 if r == c else 0.0 for c in range(n)] for r in range(n)]
        for s in word:
            mat = self._right_mult(mat, s)
        return tuple(round(x, 9) for row in mat for x in row)


def count_irreducible(n_letters: int, lhss, cap: int) -> int:
    """Number of words containing no left-hand side as a factor.

    Breadth-first by length: a word extends an irreducible word by one
    letter, so only suffixes ending at the new letter need testing.
    Returns cap + 1 as soon as the count passes ``cap``.
    """
    by_last: dict[int, dict[int, set]] = {}
    for lhs in lhss:
        by_last.setdefault(lhs[-1], {}).setdefault(len(lhs), set()).add(tuple(lhs))
    level = [()]
    total = 1
    while level:
        nxt = []
        for w in level:
            for g in range(n_letters):
                cand = w + (g,)
                if any(
                    cand[-length:] in pats
                    for length, pats in by_last.get(g, {}).items()
                    if length <= len(cand)
                ):
                    continue
                nxt.append(cand)
        total += len(nxt)
        if total > cap:
            return cap + 1
        level = nxt
    return total


def shortlex_greater(prec, a, b) -> bool:
    """a > b in shortlex with letter ranks ``prec`` (larger rank = greater)."""
    return (len(a), [prec[g] for g in a]) > (len(b), [prec[g] for g in b])
