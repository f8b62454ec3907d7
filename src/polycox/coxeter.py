"""Finite Coxeter groups realized as Cayley graphs.

Elements are dense integer ids produced by Todd-Coxeter coset enumeration
over the trivial subgroup with relators s^2 and (st)^m_st; all queries
(length, descent, divisibility, lcm, complements, local sliding) read the
Cayley graph, so no algebraic-number arithmetic is needed even for type
H3.  The declaration order of the Coxeter matrix is the total order on
the generating set.

Element ids are the order in which one HLT pass (Sims, Computation with
Finitely Presented Groups, 1994) leaves its live cosets.  Canonical words
are shortlex-minimal reduced expressions, read off a breadth-first search
that also fills the left and inverse tables; their first letter is the
smallest left-divisor of the element, which is exactly the recursion the
reduction to Artin's presentation uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import CoherenceError, InfiniteOrUnknown, InputError, PreconditionError
from .words import DEFAULT_COSET_CAP, word_separator


@dataclass(frozen=True)
class CoxeterMatrix:
    """Symmetric Coxeter matrix; 0 encodes an infinite entry."""

    names: tuple[str, ...]
    m: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.names)
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "m", tuple(tuple(row) for row in self.m))
        word_separator(self.names)
        if len(self.m) != n or any(len(row) != n for row in self.m):
            raise InputError("Coxeter matrix must be square")
        if any(type(x) is not int for row in self.m for x in row):
            raise InputError("Coxeter matrix entries must be integers")
        for i in range(n):
            if self.m[i][i] != 1:
                raise InputError("diagonal entries must be 1")
            for j in range(n):
                if self.m[i][j] != self.m[j][i]:
                    raise InputError("Coxeter matrix must be symmetric")
                if i != j and self.m[i][j] == 1:
                    raise InputError("off-diagonal entries must be >= 2 (or 0)")
                if self.m[i][j] < 0:
                    raise InputError("entries must be non-negative")

    @property
    def rank(self) -> int:
        return len(self.names)

    def submatrix(self, indices: Sequence[int]) -> "CoxeterMatrix":
        return CoxeterMatrix(
            tuple(self.names[i] for i in indices),
            tuple(tuple(self.m[i][j] for j in indices) for i in indices),
        )


def rank3_finite(m_rs: int, m_rt: int, m_st: int) -> bool:
    """Whether the rank-3 Coxeter group with these orders is finite.

    0 encodes infinity.  Finiteness is 1/m_rs + 1/m_rt + 1/m_st > 1, which
    singles out the types A3, B3, H3, A1^3 and I2(p) x A1.
    """
    if m_rs == 0 or m_rt == 0 or m_st == 0:
        return False
    a, b, c = m_rs, m_rt, m_st
    return b * c + a * c + a * b > a * b * c


def check_dihedral_cap(mat: CoxeterMatrix, cap: int) -> None:
    """Raise InfiniteOrUnknown when some finite entry has 2 m_ij > ``cap``.

    W contains the dihedral subgroup of order 2 m_ij, so no enumeration
    closes within ``cap`` cosets then; checking the entries first keeps a
    huge entry from being expanded into a relator or a braid word.
    """
    for i in range(mat.rank):
        for j in range(i + 1, mat.rank):
            if 2 * mat.m[i][j] > cap:
                raise InfiniteOrUnknown(
                    f"the dihedral subgroup <{mat.names[i]},{mat.names[j]}> "
                    f"has order {2 * mat.m[i][j]}, more than the {cap}-coset cap"
                )


def _todd_coxeter(mat: CoxeterMatrix, cap: int) -> list[list[int]]:
    """Coset table of the trivial subgroup; generators are involutions.

    One HLT pass: each coset in turn scans every relator while it is live (a
    dead coset never revives), defining cosets to fill the gaps and handling
    coincidences at once.  A define adds one coset with one edge, back to the
    forward walk's end, and merges nothing, so a restarted scan would retrace
    both walks to where they stopped: the scan continues them, and the table
    is the same.  The forward walk stops at the backward one, so a walk that
    closes is a meet at b = a.  The table is written in pairs and never
    overwritten: a define or a deduction fills a->b and b->a together into
    empty entries, and a merge gives the surviving root each edge of the dying
    coset that it lacks, so a root holds every edge merged into it.  Hence a
    merge never meets an edge without its pair, nor a deduction one.  The
    renumbered table is checked, not rescanned, for every relator closing at
    every live coset (CoherenceError for a gap or an open relator).  Raises
    InfiniteOrUnknown past ``cap`` defined cosets, or before any relator is
    built if a dihedral subgroup alone exceeds ``cap``.
    """
    check_dihedral_cap(mat, cap)
    n = mat.rank
    relators: list[tuple[int, ...]] = [(i, i) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if mat.m[i][j]:
                relators.append((i, j) * mat.m[i][j])

    table: list[list[Optional[int]]] = [[None] * n]
    parent = [0]

    def find(c: int) -> int:
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    def define(a: int, g: int) -> int:
        if len(table) >= cap:
            raise InfiniteOrUnknown(
                f"coset enumeration did not close within {cap} cosets"
            )
        b = len(table)
        table.append([None] * n)
        parent.append(b)
        table[a][g] = b
        table[b][g] = a
        return b

    def merge(a: int, b: int) -> None:
        queue = [(a, b)]
        while queue:
            x, y = queue.pop()
            x, y = find(x), find(y)
            if x == y:
                continue
            if x > y:
                x, y = y, x
            parent[y] = x
            for g in range(n):
                z = table[y][g]
                if z is None:
                    continue
                z = find(z)
                cur = table[x][g]
                if cur is None:
                    table[x][g] = z
                    queue.append((table[z][g], x))
                else:
                    queue.append((cur, z))

    def scan(a: int, rel: tuple[int, ...]) -> None:
        # forward as far as defined, backward to meet it; fill the gap and go on
        f, i, b, j = a, 0, a, len(rel)
        while True:
            while i < j:
                nxt = table[f][rel[i]]
                if nxt is None:
                    break
                f, i = nxt if parent[nxt] == nxt else find(nxt), i + 1
            while j > i:
                prv = table[b][rel[j - 1]]
                if prv is None:
                    break
                b, j = prv if parent[prv] == prv else find(prv), j - 1
            if j == i:  # the walks meet; a full forward walk meets b = a
                if f != b:
                    merge(f, b)
                return
            if j == i + 1:  # the backward walk broke on b's empty rel[i]-edge
                table[f][rel[i]] = b
                table[b][rel[i]] = f
                return
            define(f, rel[i])

    a = 0
    while a < len(table):
        for rel in relators:
            if parent[a] == a:
                scan(a, rel)
        a += 1
    live = [c for c in range(len(table)) if parent[c] == c]
    if any(None in table[c] for c in live):
        raise CoherenceError("coset table incomplete after the HLT pass")
    renum = {c: i for i, c in enumerate(live)}
    right = [[renum[find(table[c][g])] for g in range(n)] for c in live]
    for c in range(len(right)):  # the pass has closed every relator at every coset
        for rel in relators:
            f = c
            for g in rel:
                f = right[f][g]
            if f != c:
                raise CoherenceError("a relator does not close after the HLT pass")
    return right


class CoxeterGroup:
    """A finite Coxeter group with its Cayley graph and length/word data.

    A breadth-first search of ``right`` gives lengths and shortlex words
    and fills ``left`` and ``inv``: for e = f t found from f, s e = (s f) t
    and e^-1 = t f^-1, where f^-1 is as long as f, so found before e."""

    __slots__ = (
        "matrix",
        "right",
        "length",
        "word",
        "left",
        "inv",
    )

    def __init__(self, matrix: CoxeterMatrix, right: list[list[int]]):
        self.matrix = matrix
        self.right = right  # right[e][s] = e * s
        size = len(right)
        n = matrix.rank
        self.length = [-1] * size
        self.word: list[tuple[int, ...]] = [()] * size
        self.left = [list(right[0])] + [[]] * (size - 1)  # left[e][s] = s * e
        self.inv = [0] * size
        self.length[0] = 0
        order = [0]
        for e in order:
            for s in range(n):
                f = right[e][s]
                if self.length[f] < 0:
                    self.length[f] = self.length[e] + 1
                    self.word[f] = self.word[e] + (s,)
                    self.left[f] = [right[x][s] for x in self.left[e]]
                    self.inv[f] = self.left[self.inv[e]][s]
                    order.append(f)
        if any(l < 0 for l in self.length):
            raise PreconditionError("Cayley graph is not connected")

    # -- basic arithmetic ---------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.right)

    @property
    def rank(self) -> int:
        return self.matrix.rank

    @property
    def identity(self) -> int:
        return 0

    def mult_word(self, e: int, w: Iterable[int]) -> int:
        for s in w:
            e = self.right[e][s]
        return e

    def mult(self, a: int, b: int) -> int:
        return self.mult_word(a, self.word[b])

    def generator(self, s: int) -> int:
        return self.right[0][s]

    def is_reduced_product(self, u: int, v: int) -> bool:
        """Whether l(uv) = l(u) + l(v)."""
        return self.length[self.mult(u, v)] == self.length[u] + self.length[v]

    def divides(self, u: int, v: int) -> bool:
        """Left divisibility: u <= v in the weak order."""
        w = self.mult(self.inv[u], v)
        return self.length[u] + self.length[w] == self.length[v]

    def complement(self, u: int, v: int) -> int:
        """The unique u' with u u' = v and lengths adding."""
        w = self.mult(self.inv[u], v)
        if self.length[u] + self.length[w] != self.length[v]:
            raise PreconditionError(
                f"element {self.word[u]} does not divide {self.word[v]}"
            )
        return w

    def smallest_divisor(self, u: int) -> int:
        """The least generator (in matrix order) dividing u != 1: the first
        letter of its shortlex-minimal word, as every left descent starts one."""
        if u == self.identity:
            raise PreconditionError("the identity has no smallest divisor")
        return self.word[u][0]

    def gcd(self, a: int, b: int) -> int:
        """Greatest common left divisor (the weak-order meet).

        The common left divisors of a and b form the interval [1, gcd], so
        growing g from 1 by any generator s with gs still dividing both
        stops exactly at the gcd; gs divides a iff s is a left descent of
        the complement g^-1 a, which is kept alongside g.
        """
        g, ca, cb = self.identity, a, b
        grown = True
        while grown:
            grown = False
            for s in range(self.rank):
                a2, b2 = self.left[ca][s], self.left[cb][s]
                if self.length[a2] < self.length[ca] and self.length[b2] < self.length[cb]:
                    g, ca, cb, grown = self.right[g][s], a2, b2, True
        return g

    def lcm(self, a: int, b: int) -> int:
        """Least common right multiple (the weak-order join): x -> w0 x
        reverses the weak order, so the join is w0 gcd(w0 a, w0 b)."""
        w0 = self.longest_element(range(self.rank))
        best = self.mult(w0, self.gcd(self.mult(w0, a), self.mult(w0, b)))
        if not (self.divides(a, best) and self.divides(b, best)):
            raise PreconditionError("lcm failure")
        return best

    def longest_element(self, gens: Iterable[int]) -> int:
        """The longest element of the parabolic W_I, reached by walking up
        along ascents in I until none is left."""
        gens = tuple(gens)
        e = self.identity
        climbed = True
        while climbed:
            climbed = False
            for s in gens:
                f = self.right[e][s]
                if self.length[f] > self.length[e]:
                    e, climbed = f, True
        return e

    # -- Garside normal form ---------------------------------------------------

    def delta_complement(self, u: int) -> int:
        """The complement of u in the longest element w0."""
        return self.complement(u, self.longest_element(range(self.rank)))

    def left_weighted(self, u: int, v: int) -> tuple[int, int]:
        """One local sliding: move the head of v that divides the complement
        of u across; returns an unchanged pair iff it is left-weighted."""
        g = self.gcd(self.delta_complement(u), v)
        if g == self.identity:
            return u, v
        return self.mult(u, g), self.complement(g, v)

    def is_left_weighted(self, u: int, v: int) -> bool:
        return self.gcd(self.delta_complement(u), v) == self.identity


def enumerate_group(mat: CoxeterMatrix, coset_cap: int = DEFAULT_COSET_CAP) -> CoxeterGroup:
    """Realize the Coxeter group of ``mat`` by Todd-Coxeter enumeration.

    Raises InfiniteOrUnknown when the enumeration does not close within
    the cap.
    """
    return CoxeterGroup(mat, _todd_coxeter(mat, coset_cap))


def sliding_normal_form(g: CoxeterGroup, word: Iterable[int]) -> tuple[int, ...]:
    """Normal form of a word of W-elements under local sliding.

    Identity letters are dropped; adjacent pairs are slid until every pair
    is left-weighted.
    """
    w = [e for e in word if e != g.identity]
    changed = True
    while changed:
        changed = False
        for i in range(len(w) - 2, -1, -1):
            u2, v2 = g.left_weighted(w[i], w[i + 1])
            if (u2, v2) != (w[i], w[i + 1]):
                w[i], w[i + 1] = u2, v2
                changed = True
        if g.identity in w:
            w = [e for e in w if e != g.identity]
            changed = True
    return tuple(w)
