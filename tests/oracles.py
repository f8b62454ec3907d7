"""Independent oracles the tests check the engine against, and fixture
builders made from polycox's value types.

The oracles recompute expected values by brute force (exhaustive
reduction, naive overlap scans, congruence closure, braid-move
enumeration, a Todd-Coxeter pass that restarts every scan) without going
through the code paths under test.  The ``reference_*`` kernels are the
earlier, slower forms of the rewriting kernels (the lhs automaton built
with dict rows, leftmost normalization through a separate scan of it,
the filler that re-slices its sides and whiskers each local cell, the
exchange normal form that rescans to a fixed point), kept to check that
the faster ones return the same paths, memo entries and spheres, and the
Garside sphere generator that looked up each step, face and whisker word
by a key built per use, kept to check the table-driven one sphere by
sphere.  The builders (the standard coherent presentation of a finite
monoid, Nielsen rule inversion, an adjoined definition) make
(3,1)-polygraphs that the reduction and the round-trip tests start from.
"""

from __future__ import annotations

import itertools
from collections import deque
from types import SimpleNamespace
from typing import Optional, Sequence

from polycox import (
    ClassificationError,
    CoherenceError,
    Gar3,
    InfiniteOrUnknown,
    InputError,
    NonterminationError,
    Path2,
    Polygraph2,
    Polygraph31,
    Rule,
    Sphere3,
    SphereCollapse,
    SphereEntry,
    Step2,
    ThreeCell,
    TwoCollapse,
    Word,
    apply_step,
    compose,
    garside_presentation,
    whisker,
)
from polycox.coxeter import check_dihedral_cap
from polycox.words import DEFAULT_STEP_BUDGET


def one_step_reducts(word, rules):
    """All words reachable by one forward rule application."""
    out = []
    for lhs, rhs in rules:
        for i in range(len(word) - len(lhs) + 1):
            if word[i : i + len(lhs)] == lhs:
                out.append(word[:i] + rhs + word[i + len(lhs) :])
    return out


def naive_redexes(word, lhss):
    """Every (rule id, position) where ``lhss[rule id]`` occurs in ``word``,
    found by slicing at every offset, sorted by (position, rule id)."""
    found = [
        (i, r)
        for r, lhs in enumerate(lhss)
        for i in range(len(word) - len(lhs) + 1)
        if word[i : i + len(lhs)] == lhs
    ]
    return [(r, i) for i, r in sorted(found)]


def naive_leftmost_reduction(word, rules):
    """(normal form, [(rule id, position), ...]) rewriting the first redex
    of ``naive_redexes`` until none is left."""
    lhss = [lhs for lhs, _ in rules]
    steps = []
    while redexes := naive_redexes(word, lhss):
        r, i = redexes[0]
        lhs, rhs = rules[r]
        steps.append((r, i))
        word = word[:i] + rhs + word[i + len(lhs) :]
    return word, steps


def all_normal_forms(word, rules, fuel=10**5):
    """Every redex-free word reachable from ``word`` by any strategy."""
    seen = {word}
    queue = deque([word])
    nfs = set()
    while queue:
        w = queue.popleft()
        nexts = one_step_reducts(w, rules)
        if not nexts:
            nfs.add(w)
            continue
        for n in nexts:
            if n not in seen:
                seen.add(n)
                queue.append(n)
                fuel -= 1
                if fuel <= 0:
                    raise RuntimeError("oracle fuel exhausted")
    return nfs


def naive_overlaps(la, lb, a, b):
    """The branchings of lhs ``la`` (rule a) at offset 0 with lhs ``lb``
    (rule b) at every offset k, by slicing at each k: a list of (source,
    (a, 1, 0), (b, 1, k)), the equal-offset one first (only for b > a),
    then by increasing k >= 1."""
    out = []
    if b > a and (la[: len(lb)] == lb or lb[: len(la)] == la):
        out.append((la if len(la) >= len(lb) else lb, (a, 1, 0), (b, 1, 0)))
    for k in range(1, len(la)):
        if k + len(lb) <= len(la):
            if la[k : k + len(lb)] == lb:
                out.append((la, (a, 1, 0), (b, 1, k)))
        elif la[k:] == lb[: len(la) - k]:
            out.append((la + lb[len(la) - k :], (a, 1, 0), (b, 1, k)))
    return out


def brute_branchings(rules):
    """All minimal overlaps of rule lhs pairs (proper overlap, inclusion, or
    equal source), as a set of (source, (a, 0), (b, k)): rule a at offset
    0 and rule b at offset k, with a < b when k = 0."""
    out = set()
    for (a, (la, _)), (b, (lb, _)) in itertools.product(enumerate(rules), repeat=2):
        for source, _, (_, _, k) in naive_overlaps(la, lb, a, b):
            out.add((source, (a, 0), (b, k)))
    return out


def brute_overlap_sources(rules):
    """Sources of all minimal overlaps of rule lhs pairs, as a set of words."""
    return {source for source, _, _ in brute_branchings(rules)}


def squier_sides(rules):
    """Squier's completion of convergent ``rules`` from scratch: for every
    critical branching, (source, left side, right side), each side its
    branching step then the naive leftmost reduction of that step's target,
    as [(rule id, position), ...]."""
    out = set()
    for source, *steps in brute_branchings(rules):
        sides = []
        for r, i in steps:
            lhs, rhs = rules[r]
            _, rest = naive_leftmost_reduction(source[:i] + rhs + source[i + len(lhs) :], rules)
            sides.append(tuple([(r, i)] + rest))
        out.add((source, *sides))
    return out


def cubic_triple_branchings(lhss):
    """All minimal overlap triples of the left-hand sides ``lhss``: three
    distinct steps whose redexes cover the source, none of them disjoint
    from both others.  Scans every rule triple at every consistent offset
    and deduplicates; returns (source, steps) pairs, each step a
    (rule, 1, pos) tuple and the steps ordered by (pos, rule), sorted by
    (source length, source, steps)."""

    def consistent(w, lhs, k):
        head = w[k : k + len(lhs)]
        if head != lhs[: len(head)]:
            return None
        return w + lhs[len(head) :]

    def disjoint(x, y):
        return x[1] <= y[0] or y[1] <= x[0]

    found = set()
    for a, w1 in enumerate(lhss):
        for b, lb in enumerate(lhss):
            for k2 in range(len(w1) + 1):
                w2 = consistent(w1, lb, k2)
                if w2 is None:
                    continue
                for c, lc in enumerate(lhss):
                    for k3 in range(k2, len(w2) + 1):
                        w3 = consistent(w2, lc, k3)
                        if w3 is None:
                            continue
                        steps = ((a, 1, 0), (b, 1, k2), (c, 1, k3))
                        if len(set(steps)) != 3:
                            continue
                        ivals = [(s[2], s[2] + len(lhss[s[0]])) for s in steps]
                        # the source must be exactly the union of the redexes
                        if max(e for _, e in ivals) != len(w3):
                            continue
                        cover = sorted(ivals)
                        reach = cover[0][1]
                        gap = False
                        for lo, hi in cover[1:]:
                            if lo > reach:
                                gap = True
                                break
                            reach = max(reach, hi)
                        if gap:
                            continue
                        # Peiffer: some step disjoint from both others
                        if any(
                            all(disjoint(ivals[i], ivals[j]) for j in range(3) if j != i)
                            for i in range(3)
                        ):
                            continue
                        found.add((w3, tuple(sorted(steps, key=lambda s: (s[2], s[0])))))
    return sorted(found, key=lambda t: (len(t[0]), t[0], t[1]))


# -- the earlier rewriting kernels ---------------------------------------------


def reference_automaton(rules: Sequence[Rule]) -> SimpleNamespace:
    """The Aho-Corasick automaton of the rules' left-hand sides as dict rows.

    State 0 is the empty prefix and ``depth[s]`` the length of the lhs
    prefix state ``s`` has read.  ``delta[s]`` is the transition row of
    ``s`` with the failure links folded in; a letter missing from it leads
    to 0.  ``out[s]`` lists the lhs ending at ``s``, longest first, as
    (lhs length, rule ids in increasing order).
    """
    goto: list[dict[int, int]] = [{}]
    depth = [0]
    ends: dict[int, list[int]] = {}
    for r, rule in enumerate(rules):
        s = 0
        for d, g in enumerate(rule.lhs, 1):
            s = goto[s].setdefault(g, len(goto))
            if s == len(goto):
                goto.append({})
                depth.append(d)
        ends.setdefault(s, []).append(r)
    fail = [0] * len(goto)
    delta = [goto[0]] * len(goto)
    out = [()] * len(goto)
    order = list(goto[0].values())
    for s in order:  # breadth first: fail[s] is done before s
        f = fail[s]
        for g, t in goto[s].items():
            fail[t] = delta[f].get(g, 0)
            order.append(t)
        delta[s] = {**delta[f], **goto[s]}
        out[s] = ((depth[s], tuple(ends[s])),) + out[f] if s in ends else out[f]
    return SimpleNamespace(delta=delta, depth=depth, out=out)


def reference_leftmost(ac: SimpleNamespace, w: Word, states: list[int]):
    """The leftmost redex of ``w``, lowest rule id on ties, as
    (rule id, position); None when ``w`` is irreducible.

    ``ac`` is a ``reference_automaton`` and ``states[k]`` the state after
    ``w[:k]``; the scan resumes after the last one and appends the states
    it reaches.  It stops once no lhs prefix read so far starts at or
    before the best position.
    """
    delta, depth, out = ac.delta, ac.depth, ac.out
    s = states[-1]
    best = None  # (position, rule id)
    for k in range(len(states), len(w) + 1):
        s = delta[s].get(w[k - 1], 0)
        states.append(s)
        if best and k - depth[s] > best[0]:
            break
        if out[s]:
            n, ids = out[s][0]  # the longest lhs ending here starts first
            if best is None or (k - n, ids[0]) < best:
                best = (k - n, ids[0])
    return best and (best[1], best[0])


def reference_normalize(w, p: Polygraph2, *, budget=None, memo=None, ac=None):
    """``normalize`` as a loop over ``reference_leftmost`` and ``apply_step``,
    testing the memo with ``in`` before reading it.  ``ac`` is the
    ``reference_automaton`` to scan, built from ``p.rules`` by default."""
    w = p.check_word(w)
    if memo is not None and w in memo:
        path = memo[w]
        return path.target, path
    limit = DEFAULT_STEP_BUDGET if budget is None else budget
    steps: list[Step2] = []
    seen: list[Word] = [w]
    cur = w
    if ac is None:
        ac = reference_automaton(p.rules)
    states = [0]
    while True:
        if memo is not None and cur in memo and cur is not w:
            tail = memo[cur]
            steps.extend(tail.steps)
            cur = tail.target
            break
        redex = reference_leftmost(ac, cur, states)
        if redex is None:
            break
        if len(steps) >= limit:
            raise NonterminationError(
                f"no normal form for {p.word_str(w)} within {limit} steps"
            )
        r, i = redex
        steps.append(Step2(r, 1, i))
        cur = apply_step(cur, p, r, i, 1)
        seen.append(cur)
        del states[i + 1 :]
    path = Path2._make(p, w, tuple(steps), cur)
    if memo is not None:
        memo[w] = path
        # every suffix of the reduction is itself a reduction
        for k in range(1, len(seen) - 1):
            word_k = seen[k]
            if word_k not in memo:
                memo[word_k] = Path2._make(p, word_k, path.steps[k:], cur)
    return cur, path


def reference_exchange_normal_form(lengths, path_steps):
    """The exchange normal form, rescanned until a pass changes nothing."""
    steps = list(path_steps)
    touched = False
    changed = True
    while changed:
        changed = False
        i = 0
        while i + 1 < len(steps):
            s1, s2 = steps[i], steps[i + 1]
            r1, d1, p1 = s1
            r2, d2, p2 = s2
            # cancellation: s2 exactly undoes s1
            if r2 == r1 and d2 == -d1 and p2 == p1:
                del steps[i : i + 2]
                changed = touched = True
                i = max(i - 1, 0)
                continue
            # s2 acts right of s1's output: canonical already
            n_lhs, n_rhs = lengths[r1]
            if p2 >= p1 + (n_rhs if d1 > 0 else n_lhs):
                i += 1
                continue
            # s2 acts entirely left of s1's redex: swap
            n_lhs, n_rhs = lengths[r2]
            a2, b2 = (n_lhs, n_rhs) if d2 > 0 else (n_rhs, n_lhs)
            if p2 + a2 <= p1:
                steps[i] = s2
                steps[i + 1] = Step2(r1, d1, p1 + (b2 - a2))
                changed = touched = True
                i = max(i - 1, 0)
                continue
            i += 1
    return tuple(steps) if touched else path_steps


def _reference_shifted(pg: Polygraph2, after: Step2, s: Step2) -> Step2:
    """Re-derive the offset of ``s`` once the disjoint step ``after`` ran."""
    n_lhs, n_rhs = pg.rule_lengths[after.rule]
    a, b = (n_lhs, n_rhs) if after.dir > 0 else (n_rhs, n_lhs)
    if s.pos >= after.pos + a:
        return Step2(s.rule, s.dir, s.pos + (b - a))
    return s


def _reference_local_cell(p31: Polygraph31, lookup: dict, w: Word, s1: Step2, s2: Step2):
    """Resolve the local branching (s1, s2) at w: (entry data or None for
    a Peiffer branching, completion of the s1 side, completion of the s2
    side, their common target word), through two whiskered cell sides."""
    pg = p31.base
    a1 = len(pg.rules[s1.rule].lhs)
    a2 = len(pg.rules[s2.rule].lhs)
    if s1.pos + a1 <= s2.pos or s2.pos + a2 <= s1.pos:
        c1 = (_reference_shifted(pg, s1, s2),)
        c2 = (_reference_shifted(pg, s2, s1),)
        z = Path2(pg, w, (s1,) + c1).target
        return None, c1, c2, z
    off = min(s1.pos, s2.pos)
    end = max(s1.pos + a1, s2.pos + a2)
    lw, rw = w[:off], w[end:]
    rel1 = (s1.rule, s1.pos - off)
    rel2 = (s2.rule, s2.pos - off)
    f, g = sorted((rel1, rel2), key=lambda rp: (rp[1], rp[0]))
    idx = lookup.get((w[off:end], f, g))
    if idx is None:
        raise CoherenceError(
            f"no generating 3-cell for the branching at {pg.word_str(w[off:end])}"
        )
    cell = p31.cells[idx]
    src_side = whisker(lw, cell.src, rw)
    tgt_side = whisker(lw, cell.tgt, rw)
    if src_side.steps[0] == s1:
        direction, c1, c2 = 1, src_side.steps[1:], tgt_side.steps[1:]
    elif tgt_side.steps[0] == s1:
        direction, c1, c2 = -1, tgt_side.steps[1:], src_side.steps[1:]
    else:
        raise CoherenceError("stored 3-cell does not start with the branching step")
    z = src_side.target
    return (idx, direction, lw, rw), c1, c2, z


def reference_fill_parallel(
    p31: Polygraph31, pA: Path2, pB: Path2, lookup: dict, memo: dict, ac=None
):
    """The filler on re-sliced step tuples: each equal step re-slices both
    sides and extends ``pre``, and each local branching is resolved by
    ``_reference_local_cell``, then normalized by ``reference_normalize``
    (over ``ac`` when given)."""
    pg = p31.base
    out: list[SphereEntry] = []
    stack: list = [((), pA.source, pA.steps, pB.steps)]
    while stack:
        task = stack.pop()
        if type(task) is SphereEntry:
            out.append(task)
            continue
        pre, w, a, b = task
        while a != b:
            if not a or not b:
                raise CoherenceError("parallel fill: sides of unequal reach")
            s1, s2 = a[0], b[0]
            w1 = apply_step(w, pg, s1.rule, s1.pos, s1.dir)
            if s1 != s2:
                break
            pre, w, a, b = pre + (s1,), w1, a[1:], b[1:]
        else:
            continue
        entry, c1, c2, z = _reference_local_cell(p31, lookup, w, s1, s2)
        _, n = reference_normalize(z, pg, memo=memo, ac=ac)
        w2 = apply_step(w, pg, s2.rule, s2.pos, s2.dir)
        stack.append((pre + (s2,), w2, c2 + n.steps, b[1:]))
        if entry is not None:
            stack.append(SphereEntry(*entry, Path2._make(pg, pA.source, pre, w), n))
        stack.append((pre + (s1,), w1, a[1:], c1 + n.steps))
    return out



def reference_triple_confluence(
    p31: Polygraph31, steps, source, lookup: dict, memo: dict, ac=None
):
    """The sphere ``generating_triple_confluence`` builds for the triple
    branching (source, steps), from ``reference_normalize`` and
    ``reference_fill_parallel`` (over ``ac`` when given)."""
    pg = p31.base
    sides = []
    for s in steps:
        first = Path2(pg, source, (s,))
        _, rest = reference_normalize(first.target, pg, memo=memo, ac=ac)
        sides.append(compose(first, rest))
    F, G, H = sides
    lhs = reference_fill_parallel(p31, F, G, lookup, memo, ac)
    lhs += reference_fill_parallel(p31, G, H, lookup, memo, ac)
    rhs = reference_fill_parallel(p31, F, H, lookup, memo, ac)
    return Sphere3(F, H, tuple(lhs), tuple(rhs))

def words_up_to(n_letters, max_len):
    for length in range(max_len + 1):
        yield from itertools.product(range(n_letters), repeat=length)


class UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        self.parent.setdefault(x, x)
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def closure_classes(rules, n_letters, max_len, cap_len):
    """Equivalence classes of all words of length <= max_len under the
    congruence generated by the rules, computed by closure inside the
    universe of words of length <= cap_len."""
    uf = UnionFind()
    for w in words_up_to(n_letters, cap_len):
        uf.find(w)
        for lhs, rhs in rules:
            for i in range(len(w) - len(lhs) + 1):
                if w[i : i + len(lhs)] == lhs:
                    n = w[:i] + rhs + w[i + len(lhs) :]
                    if len(n) <= cap_len:
                        uf.union(w, n)
    return {w: uf.find(w) for w in words_up_to(n_letters, max_len)}


def braid_closure(word, braid_rules, fuel=10**6):
    """All positive words reachable by braid moves (both directions)."""
    moves = []
    for lhs, rhs in braid_rules:
        moves.append((lhs, rhs))
        moves.append((rhs, lhs))
    seen = {word}
    queue = deque([word])
    while queue:
        w = queue.popleft()
        for lhs, rhs in moves:
            for i in range(len(w) - len(lhs) + 1):
                if w[i : i + len(lhs)] == lhs:
                    n = w[:i] + rhs + w[i + len(lhs) :]
                    if n not in seen:
                        seen.add(n)
                        queue.append(n)
                        fuel -= 1
                        if fuel <= 0:
                            raise RuntimeError("oracle fuel exhausted")
    return seen


def braid_rules_of_matrix(m):
    """The braid relations <ts>^m = <st>^m as word pairs, all pairs i<j."""
    out = []
    n = len(m)
    for i in range(n):
        for j in range(i + 1, n):
            order = m[i][j]
            if order:
                lhs = tuple((j, i)[k % 2] for k in range(order))
                rhs = tuple((i, j)[k % 2] for k in range(order))
                out.append((lhs, rhs))
    return out


def tits_enumerate(m, max_size=100000):
    """Count the Coxeter group of matrix ``m`` by breadth-first normal-form
    enumeration: elements are identified with the braid-move closure of
    their reduced words, and a word is reduced unless some braid-equivalent
    word exposes a doubled letter (Tits' solution to the word problem)."""
    braids = braid_rules_of_matrix(m)
    n = len(m)

    def is_reduced(closure):
        return not any(
            w[i] == w[i + 1] for w in closure for i in range(len(w) - 1)
        )

    identity = ((),)
    elements = {(): frozenset({()})}
    frontier = [()]
    while frontier:
        new_frontier = []
        for rep in frontier:
            for s in range(n):
                cand = rep + (s,)
                if cand in elements:
                    continue
                closure = frozenset(braid_closure(cand, braids))
                if not is_reduced(closure):
                    continue
                known = False
                for w in closure:
                    if w in elements:
                        known = True
                        break
                if known:
                    continue
                for w in closure:
                    elements[w] = closure
                new_frontier.append(min(closure))
                if len({id(c) for c in elements.values()}) > max_size:
                    raise RuntimeError("oracle cap exceeded")
        frontier = new_frontier
    distinct = {}
    for closure in elements.values():
        distinct[min(closure)] = closure
    return distinct


def reference_coset_table(mat, cap: int) -> list[list[int]]:
    """Todd-Coxeter's coset table of the trivial subgroup by the plain HLT
    pass: a scan restarts from scratch after every define, and closure is
    checked by walking every relator at every live coset of the table
    before renumbering, through ``find``.  ``enumerate_group`` must give
    the same table, ids included.  Raises InfiniteOrUnknown past ``cap``
    cosets and CoherenceError if the table does not close."""
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
                    if table[z][g] is None:
                        table[z][g] = x
                    else:
                        queue.append((table[z][g], x))
                else:
                    queue.append((find(cur), z))

    def scan(a: int, rel: tuple[int, ...]) -> None:
        # forward as far as defined, then fill the gap; rescan after a define
        while True:
            f, i = a, 0
            while i < len(rel):
                nxt = table[f][rel[i]]
                if nxt is None:
                    break
                f, i = find(nxt), i + 1
            if i == len(rel):
                if f != a:
                    merge(f, a)
                return
            b, j = a, len(rel)
            while j > i:
                prv = table[b][rel[j - 1]]
                if prv is None:
                    break
                b, j = find(prv), j - 1
            if j == i:
                merge(f, b)
                return
            if j == i + 1:
                g0 = rel[i]
                c = table[b][g0]
                if c is not None:
                    merge(find(c), f)
                else:
                    table[f][g0] = b
                    table[b][g0] = f
                return
            define(f, rel[i])

    a = 0
    while a < len(table):
        if find(a) == a:
            for rel in relators:
                scan(a, rel)
                if find(a) != a:
                    break
        a += 1
    live = [c for c in range(len(table)) if find(c) == c]
    for c in live:  # the pass has closed every relator at every live coset
        for rel in relators:
            f = c
            for g in rel:
                if table[f][g] is None:
                    raise CoherenceError("coset table incomplete after the HLT pass")
                f = find(table[f][g])
            if f != c:
                raise CoherenceError("a relator does not close after the HLT pass")
    renum = {c: i for i, c in enumerate(live)}
    return [[renum[find(table[c][g])] for g in range(n)] for c in live]


def direct_product_a1n(n):
    """The group (Z/2)^n with its length function, as subsets."""
    elements = list(itertools.product((0, 1), repeat=n))
    length = {e: sum(e) for e in elements}
    return elements, length


def left_divisor_sets(g):
    """For each element w of the finite Coxeter group ``g``, the set of its
    left divisors, found by testing every element of W."""
    return [
        frozenset(u for u in range(g.size) if g.divides(u, w)) for w in range(g.size)
    ]


def _unique_extreme(g, elements, pick):
    best = pick(elements, key=lambda e: g.length[e])
    ties = [e for e in elements if g.length[e] == g.length[best]]
    if len(ties) != 1:
        raise AssertionError(f"no unique extreme among {len(ties)} ties")
    return best


def divisor_gcd(g, divisors, a, b):
    """The greatest common left divisor: the unique longest element of the
    intersection of the two divisor sets."""
    return _unique_extreme(g, divisors[a] & divisors[b], max)


def scan_lcm(g, divisors, a, b):
    """The least common right multiple: the unique shortest element of W
    that both divide."""
    common = [w for w in range(g.size) if a in divisors[w] and b in divisors[w]]
    return _unique_extreme(g, common, min)


def parabolic_longest(g, gens):
    """The longest element of W_I: the unique longest member of the
    parabolic subgroup, enumerated breadth-first over the generators."""
    gens = tuple(gens)
    seen = {0}
    queue = [0]
    for e in queue:
        for s in gens:
            f = g.right[e][s]
            if f not in seen:
                seen.add(f)
                queue.append(f)
    return _unique_extreme(g, seen, max)


def additive(g, *elts):
    """Whether the product of ``elts`` has the sum of their lengths,
    multiplying the whole chain out."""
    total = 0
    for e in elts:
        total = g.mult(total, e)
    return g.length[total] == sum(g.length[e] for e in elts)


def recursive_projection(g, art, letters, gamma):
    """GGM's projection pi(u|v) of a Garside rule onto Artin's presentation,
    by its two cases, recursively and with a memo.  (a) l(u) > 1: peel the
    smallest divisor s off u = s u'.  (b) u = s a generator, r the smallest
    divisor of sv: the identity when r = s, the braid relation on (r, s)
    when sv = w0(r, s), else v split as v = u2 v2 across it, s u2 = w0."""
    from polycox.paths import Path2, compose, identity_path, inverse, whisker

    memo, longest = {}, {}

    def word(e):
        return tuple(letters[s] for s in g.word[e])

    def descent(e):
        return min(s for s in range(g.rank) if g.length[g.left[e][s]] < g.length[e])

    def pi(u, v):
        if (u, v) in memo:
            return memo[(u, v)]
        if g.length[u] > 1:
            s = descent(u)
            u2 = g.left[u][s]
            path = compose(
                whisker((letters[s],), pi(u2, v), ()), pi(g.generator(s), g.mult(u2, v))
            )
        else:
            (s,) = g.word[u]
            uv = g.mult(u, v)
            r = descent(uv)
            if (r, s) not in longest:
                longest[(r, s)] = parabolic_longest(g, (r, s))
            w0 = longest[(r, s)]
            if r == s:
                path = identity_path(art, word(u) + word(v))
            elif uv == w0:
                path = Path2(art, word(u) + word(v), [(gamma[(letters[r], letters[s])], 1, 0)])
            else:
                u2 = g.mult(u, w0)  # u is an involution
                v2 = g.mult(g.inv[u2], v)
                down = inverse(whisker((letters[s],), pi(u2, v2), ()))
                path = compose(
                    compose(down, whisker((), pi(u, u2), word(v2))), pi(w0, v2)
                )
        memo[(u, v)] = path
        return path

    return pi


def unshared_z_cells(mat):
    """Art_3(W)'s Z-cells as (name, src, tgt), each computed in place: one
    Todd-Coxeter run and one projection per finite rank-3 parabolic
    i < j < k, sharing nothing between parabolics of the same type.  Each
    cell is relabeled from the parabolic's own presentation into the
    ambient one: letter x to (i, j, k)[x], and the parabolic's braid rule
    on (a, b) to the ambient rule on the images of a and b."""
    from polycox.coxeter import enumerate_group, rank3_finite
    from polycox.garside import ArtinProjection, _zamolodchikov, artin_presentation

    art, gamma = artin_presentation(mat)
    out = []
    for i, j, k in itertools.combinations(range(mat.rank), 3):
        if not rank3_finite(mat.m[i][j], mat.m[i][k], mat.m[j][k]):
            continue
        proj = ArtinProjection(enumerate_group(mat.submatrix((i, j, k))))
        letters = (i, j, k)
        rule = {r: gamma[(letters[a], letters[b])] for (a, b), r in proj.gamma.items()}
        src, tgt = (
            Path2(art, [letters[x] for x in p.source], [(rule[r], d, o) for r, d, o in p.steps])
            for p in _zamolodchikov(proj)
        )
        out.append((f"Z({mat.names[i]},{mat.names[j]},{mat.names[k]})", src, tgt))
    return out


def nielsen_invert_rule(p31: Polygraph31, r: int) -> Polygraph31:
    """Replace rule ``r`` by its formal inverse, negating its steps."""
    base = p31.base
    old = base.rules[r]
    if not old.rhs:
        raise InputError(f"rule {old.name!r} has an empty rhs; cannot invert")
    rules = list(base.rules)
    rules[r] = Rule(old.name, old.rhs, old.lhs)
    pg = Polygraph2(list(base.generators), rules)

    def flip(path: Path2) -> Path2:
        steps = tuple(
            Step2(s.rule, -s.dir if s.rule == r else s.dir, s.pos) for s in path.steps
        )
        return Path2(pg, path.source, steps)

    cells = [ThreeCell(c.name, flip(c.src), flip(c.tgt)) for c in p31.cells]
    return Polygraph31(pg, cells)


def adjoin_definition(
    p31: Polygraph31, gen_name: str, word: Word, rule_name: str
) -> tuple[Polygraph31, TwoCollapse]:
    """Coherently adjoin a redundant generator defined by ``word``, with its
    collapsible rule.  Inverse of a 2-cell elimination; used for round trips.
    """
    base = p31.base
    pg = Polygraph2(list(base.generators) + [gen_name], list(base.rules))
    x = len(pg.generators) - 1
    idx = pg.add_rule(Rule(rule_name, tuple(word), (x,)))
    cells = [
        ThreeCell(c.name, Path2(pg, c.src.source, c.src.steps), Path2(pg, c.tgt.source, c.tgt.steps))
        for c in p31.cells
    ]
    return Polygraph31(pg, cells), TwoCollapse(idx, x)


def standard_coherent_presentation(
    table: Sequence[Sequence[int]], names: Optional[Sequence[str]] = None
) -> Polygraph31:
    """The standard coherent presentation of a finite monoid.

    One generator per element, one rule for every product pair, one rule
    collapsing the unit generator to the empty word, and the associativity
    and unit 3-cells over them.  The unit rule is stored oriented toward
    the empty word so left-hand sides stay non-empty.
    """
    n = len(table)
    if n == 0 or any(len(row) != n for row in table):
        raise InputError("multiplication table must be square and non-empty")
    for row in table:
        for v in row:
            if not (0 <= v < n):
                raise InputError("table entry out of range")
    unit = None
    for e in range(n):
        if all(table[e][x] == x and table[x][e] == x for x in range(n)):
            unit = e
            break
    if unit is None:
        raise InputError("multiplication table has no unit")
    for u in range(n):
        for v in range(n):
            for w in range(n):
                if table[table[u][v]][w] != table[u][table[v][w]]:
                    raise InputError(f"table not associative at ({u},{v},{w})")
    if names is None:
        names = [f"x{i}" for i in range(n)]
    pg = Polygraph2(list(names))
    mu = [[0] * n for _ in range(n)]
    for u in range(n):
        for v in range(n):
            mu[u][v] = pg.add_rule(
                Rule(f"mu({names[u]},{names[v]})", (u, v), (table[u][v],))
            )
    iota = pg.add_rule(Rule("iota", (unit,), ()))
    cells = []
    for u in range(n):
        for v in range(n):
            for w in range(n):
                src = Path2(pg, (u, v, w), ((mu[u][v], 1, 0), (mu[table[u][v]][w], 1, 0)))
                tgt = Path2(pg, (u, v, w), ((mu[v][w], 1, 1), (mu[u][table[v][w]], 1, 0)))
                cells.append(
                    ThreeCell(f"assoc({names[u]},{names[v]},{names[w]})", src, tgt)
                )
    for u in range(n):
        src = Path2(pg, (u,), ((iota, -1, 0), (mu[unit][u], 1, 0)))
        cells.append(ThreeCell(f"lunit({names[u]})", src, Path2(pg, (u,))))
    for u in range(n):
        src = Path2(pg, (u,), ((iota, -1, 1), (mu[u][unit], 1, 0)))
        cells.append(ThreeCell(f"runit({names[u]})", src, Path2(pg, (u,))))
    return Polygraph31(pg, cells)


def direct_gar3(g) -> Gar3:
    """Gar_3(W) built directly: Gar_2(W) plus one A-cell per length-additive
    triple u|v|w, with sides (u|v then uv|w) and (v|w then u|vw), in
    increasing (u, v, w) order; no completion and no reduction."""
    gp = garside_presentation(g)
    pg, alpha = gp.pg, gp.alpha
    cells = []
    for u, v in sorted(alpha):
        uv = g.mult(u, v)
        for w in range(g.size):
            if (v, w) not in alpha or (uv, w) not in alpha:
                continue
            vw = g.mult(v, w)
            word = (gp.gen_of_elt[u], gp.gen_of_elt[v], gp.gen_of_elt[w])
            src = Path2(pg, word, ((alpha[(u, v)], 1, 0), (alpha[(uv, w)], 1, 0)))
            tgt = Path2(pg, word, ((alpha[(v, w)], 1, 1), (alpha[(u, vw)], 1, 0)))
            cells.append(ThreeCell(f"A({u},{v},{w})", src, tgt))
    return Gar3(g, Polygraph31(pg, cells), gp.elt_of_gen, gp.gen_of_elt, alpha)


def _reference_step_makers(alpha: dict, beta: dict):
    """The makers of forward steps of a rule, alpha(u, v) and beta(u, v, w)
    at an offset, sharing one Step2 per (rule, offset) while they live."""
    shared: dict[tuple[int, int], Step2] = {}

    def step(rule: int, pos: int) -> Step2:
        s = shared.get((rule, pos))
        if s is None:
            s = shared[(rule, pos)] = Step2(rule, 1, pos)
        return s

    def a(u: int, v: int, pos: int) -> Step2:
        return step(alpha[(u, v)], pos)

    def b(u: int, v: int, w: int, pos: int) -> Step2:
        return step(beta[(u, v, w)], pos)

    return step, a, b


def reference_garside_spheres(gc):
    """The spheres of the Garside part, one per cell of the families C
    through I, in tag order: ``garside._garside_spheres`` with every step
    made through ``_reference_step_makers``, every whisker and word through
    a per-use element tuple, and every face through one lookup function."""
    gp, g, pg, m = gc.gp, gc.gp.group, gc.p31.base, gc.gp.group.mult
    gen = gp.gen_of_elt
    face_letter = str.maketrans("BD", "AC")  # B-cells are A-faces, D-cells C-faces
    cell_of: dict[str, dict[tuple[int, ...], int]] = {}
    for i, tag in enumerate(gc.tags):
        cell_of.setdefault(tag.letter.translate(face_letter), {})[tag.indices] = i
    cells = gc.p31.cells
    tgt = [c.src.target for c in cells]

    def face(letter: str, *elts: int) -> int:
        idx = cell_of.get(letter, {}).get(elts)
        if idx is None:
            raise CoherenceError(f"no {letter}-family 3-cell on elements {elts}")
        return idx

    words: dict[Word, Word] = {}
    seqs: dict[tuple[Step2, ...], tuple[Step2, ...]] = {}
    ids: dict[Word, Path2] = {}
    step, aS, bS = _reference_step_makers(gp.alpha, gc.beta)

    def W(*elts: int) -> Word:
        w = tuple([gen[e] for e in elts])
        return words.setdefault(w, w)

    def P(word: Word, *steps: Step2) -> Path2:
        if not steps:
            path = ids.get(word)
            if path is None:
                path = ids[word] = Path2._make(pg, word, (), None)
            return path
        return Path2._make(pg, word, seqs.setdefault(steps, steps), None)

    def E(cell: int, left=(), right=(), pre=(), post=()) -> SphereEntry:
        lw, rw = W(*left), W(*right)
        t = lw + tgt[cell] + rw
        return SphereEntry(cell, 1, lw, rw, P(X, *pre), P(words.setdefault(t, t), *post))

    def face_path(e: SphereEntry, side: Path2) -> Path2:
        shifted = [step(r, pos + len(e.left)) for r, _, pos in side.steps]
        return P(X, *e.pre.steps, *shifted, *e.post.steps)

    for i, tag in enumerate(gc.tags):
        letter, idx = tag.letter, tag.indices
        if letter in ("A", "B"):
            continue
        if letter in ("C", "D", "E", "H"):
            u, v, w, x = idx
            X = W(u, v, w, x)
            uv, vw, wx = m(u, v), m(v, w), m(w, x)
        elif letter in ("F", "G"):
            u, v, w, x, y = idx
            uv, vw, wx, xy = m(u, v), m(v, w), m(w, x), m(x, y)
            X = W(u, vw, x, y) if letter == "F" else W(u, v, w, xy)
        if letter == "C":
            lhs = (
                E(face("A", u, v, w), right=(x,)),
                E(face("A", v, w, x), left=(u,), post=(aS(u, vw, 0),)),
            )
            rhs = (
                E(face("A", uv, w, x), pre=(aS(u, v, 0),)),
                E(i, pre=(aS(w, x, 2),)),
            )
        elif letter == "D":
            lhs = (
                E(face("A", u, v, w), right=(x,), post=(aS(w, x, 1),)),
                E(face("A", v, w, x), left=(u,), post=(bS(u, v, w, 0), aS(w, x, 1))),
            )
            rhs = (E(i, pre=(aS(w, x, 2),)),)
        elif letter == "E":
            lhs = (
                E(face("A", u, v, w), right=(x,), post=(aS(w, x, 1),)),
                E(i, pre=(aS(v, w, 1),)),
                E(face("A", v, w, x), left=(u,), post=(bS(u, v, wx, 0),)),
            )
            rhs = (E(face("A", u, v, wx), pre=(aS(w, x, 2),)),)
        elif letter == "F":
            lhs = (
                E(face("E", u, v, w, x), right=(y,), post=(aS(wx, y, 1),)),
                E(face("A", vw, x, y), left=(u,), post=(bS(u, v, wx, 0), aS(wx, y, 1))),
            )
            rhs = (
                E(face("A", w, x, y), left=(uv,), pre=(bS(u, v, w, 0),)),
                E(i, pre=(aS(x, y, 2),)),
            )
        elif letter == "G":
            lhs = (
                E(face("A", u, v, w), right=(xy,), post=(bS(w, x, y, 1),)),
                E(i, pre=(aS(v, w, 1),)),
                E(face("C", v, w, x, y), left=(u,), post=(bS(u, v, wx, 0),)),
            )
            rhs = (E(face("A", u, v, wx), right=(y,), pre=(bS(w, x, y, 2),)),)
        elif letter == "H":
            lhs = (
                E(face("A", u, v, w), right=(x,)),
                E(face("A", u, vw, x), pre=(aS(v, w, 1),)),
                E(face("A", v, w, x), left=(u,), post=(bS(u, vw, x, 0),)),
            )
            rhs = (
                E(face("A", uv, w, x), pre=(aS(u, v, 0),)),
                E(face("A", u, v, wx), pre=(aS(w, x, 2),), post=(bS(uv, w, x, 0),)),
                E(i, pre=(aS(w, x, 2), aS(v, wx, 1))),
            )
        elif letter == "I":
            u, v1, w1, v2, w2 = idx
            join = g.lcm(v1, v2)
            x1, x2 = g.complement(v1, join), g.complement(v2, join)
            y = g.complement(join, m(v1, w1))
            X = W(u, m(v1, w1))
            lhs = (E(i), E(face("H", u, v2, x2, y)))
            rhs = (E(face("H", u, v1, x1, y)),)
        else:
            raise ClassificationError(f"unknown family {letter!r}")
        source = face_path(lhs[0], cells[lhs[0].cell].src)
        target = face_path(lhs[-1], cells[lhs[-1].cell].tgt)
        yield SphereCollapse(Sphere3(source, target, lhs, rhs), i)
