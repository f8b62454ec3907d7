"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import itertools
import random
import time

import pytest

import polycox as px
from polycox.paths import Path2, Step2, paths_equal
from conftest import MATRICES

import oracles


def report(n, label, t0, budget):
    elapsed = time.time() - t0
    assert elapsed < budget, f"criterion {n} exceeded {budget}s ({elapsed:.1f}s)"
    print(f"criterion {n} ({label}): PASS in {elapsed:.2f}s")


# -- helpers ----------------------------------------------------------------


def first_letter_index(rules):
    """Rule ids bucketed by the first letter of their (non-empty) lhs."""
    index = {}
    for k, (lhs, _) in enumerate(rules):
        index.setdefault(lhs[0], []).append(k)
    return index


def fast_nf(word, rules, index, memo, pick, redexes=None):
    """Iterative normal form under a redex-picking strategy, memoized.

    ``index`` is ``first_letter_index(rules)``.  Redexes (position, rule)
    are listed sorted by (rule, position), so a random pick sees the same
    list as a scan of every rule at every position would give.  Given
    ``redexes``, the redexes of ``word`` in any order, the first step
    picks from them instead.
    """
    trail = []
    w = word
    while w not in memo:
        if redexes is None:
            redexes = [
                (i, k)
                for i, g in enumerate(w)
                for k in index.get(g, ())
                if w[i : i + len(rules[k][0])] == rules[k][0]
            ]
            redexes.sort(key=lambda ik: (ik[1], ik[0]))
        if not redexes:
            memo[w] = w
            break
        trail.append(w)
        i, k = pick(redexes)
        lhs, rhs = rules[k]
        w = w[:i] + rhs + w[i + len(lhs) :]
        redexes = None
    nf = memo[w]
    for t in trail:
        memo[t] = nf
    return nf


def leftmost(redexes):
    return min(redexes)


def rightmost(redexes):
    return max(redexes, key=lambda ik: (ik[0], -ik[1]))


def prefix_walk(n, max_len, rules, index):
    """Every word over ``n`` letters of length at most ``max_len`` with its
    redexes (position, rule), depth first: a word comes before its
    extensions, and larger last letters come first.  A word's redexes are
    its prefix's plus those ending at its last letter, found through
    ``index``, ``first_letter_index(rules)``."""
    longest = max((len(lhs) for lhs, _ in rules), default=0)
    stack = [((), [])]
    while stack:
        w, redexes = stack.pop()
        yield w, redexes
        if len(w) < max_len:
            end = len(w) + 1
            for g in range(n):
                v = w + (g,)
                new = [
                    (i, k)
                    for i in range(max(0, end - longest), end)
                    for k in index.get(v[i], ())
                    if v[i:] == rules[k][0]
                ]
                stack.append((v, redexes + new))


def strategies_agree(pg, max_len, exhaustive, sample=4000, seed=7):
    """Leftmost, rightmost and random rewriting reach one normal form from
    every word up to ``max_len`` (``exhaustive``, each first step picking
    from ``prefix_walk``'s redexes), or from ``sample`` random words."""
    rules = [(r.lhs, r.rhs) for r in pg.rules]
    index = first_letter_index(rules)
    n = pg.n_generators
    memo_l, memo_r, memo_x = {}, {}, {}
    rng = random.Random(seed)

    def rand_pick(redexes):
        return rng.choice(redexes)

    if exhaustive:
        words = prefix_walk(n, max_len, rules, index)
    else:
        words = (
            (tuple(rng.randrange(n) for _ in range(rng.randint(0, max_len))), None)
            for _ in range(sample)
        )
    for w, redexes in words:
        a = fast_nf(w, rules, index, memo_l, leftmost, redexes)
        b = fast_nf(w, rules, index, memo_r, rightmost, redexes)
        assert a == b, (w, a, b)
        c = fast_nf(w, rules, index, memo_x, rand_pick, redexes)
        assert a == c, (w, a, c)


# -- the criteria -----------------------------------------------------------


def test_criterion_1_b3plus_completion(b3plus_completed):
    t0 = time.time()
    p31, _ = b3plus_completed
    p = p31.base
    assert [(p.word_str(r.lhs), p.word_str(r.rhs)) for r in p.rules] == [
        ("ta", "as"),
        ("st", "a"),
        ("sas", "aa"),
        ("saa", "aat"),
    ]
    assert len(p31.cells) == 4
    cells = {p.word_str(c.src.source): c for c in p31.cells}
    assert set(cells) == {"sta", "sast", "sasas", "sasaa"}
    # the worked example's four confluence diagrams, frozen
    alpha, beta, gamma, delta = 0, 1, 2, 3
    expected = {
        "sta": ([(beta, 1, 0)], [(alpha, 1, 1), (gamma, 1, 0)]),
        "sast": ([(gamma, 1, 0)], [(beta, 1, 2), (delta, 1, 0)]),
        "sasas": ([(gamma, 1, 0)], [(gamma, 1, 2), (delta, 1, 0), (alpha, 1, 2)]),
        "sasaa": (
            [(gamma, 1, 0)],
            [(delta, 1, 2), (delta, 1, 0), (alpha, 1, 2), (beta, 1, 3)],
        ),
    }
    for source, (src_steps, tgt_steps) in expected.items():
        cell = cells[source]
        w = cell.src.source
        assert paths_equal(cell.src, Path2(p, w, src_steps))
        assert paths_equal(cell.tgt, Path2(p, w, tgt_steps))
    report(1, "B3+ completion", t0, 1.0)


def test_criterion_2_b3plus_completion_reduction(b3plus_completed):
    from test_tietze import b3plus_part

    t0 = time.time()
    p31, _ = b3plus_completed
    part = b3plus_part(p31)
    assert px.validate_collapsible(p31, part) == []
    red = px.homotopical_reduce(p31, part)
    assert red.base.generators == ["s", "t"]
    assert [
        (red.base.word_str(r.lhs), red.base.word_str(r.rhs)) for r in red.base.rules
    ] == [("tst", "sts")]
    assert red.cells == []
    report(2, "B3+ completion-reduction", t0, 1.0)


GARSIDE_TYPES = ["A1xA1", "A2", "B2", "A1^3", "A2xA1", "A3"]


_PIPELINE: dict = {}


def garside_pipeline(garside_parts):
    if not _PIPELINE:
        for name in GARSIDE_TYPES:
            gc, part = garside_parts(name)
            red = px.homotopical_reduce(gc.p31, part, validate=False)
            _PIPELINE[name] = (gc.gp.group, gc, part, red)
    return _PIPELINE


def test_criterion_3_garside_reduction(garside_parts):
    t0 = time.time()
    pipeline = garside_pipeline(garside_parts)
    for name in GARSIDE_TYPES:
        g, gc, part, red = pipeline[name]
        # classification total, no error raised, one tag per cell
        assert len(gc.tags) == len(gc.p31.cells)
        assert px.validate_collapsible(gc.p31, part) == []
        elements = gc.gp.elt_of_gen
        additive = {
            (u, v, w)
            for u, v, w in itertools.product(elements, repeat=3)
            if g.is_reduced_product(u, v)
            and g.is_reduced_product(v, w)
            and g.length[g.mult(g.mult(u, v), w)]
            == g.length[u] + g.length[v] + g.length[w]
        }
        expected_names = {
            gc.p31.cells[i].name
            for i, tag in enumerate(gc.tags)
            if tag.letter == "A"
        }
        assert {c.name for c in red.cells} == expected_names
        assert {t.indices for t in gc.tags if t.letter == "A"} == additive
    report(3, "Garside completion-reduction to the A-cells", t0, 60.0)


def test_criterion_4_artin_census():
    t0 = time.time()
    expected = {
        "A3": (1, 3, 3, 1),
        "B3": (1, 3, 3, 1),
        "H3": (1, 3, 3, 1),
        "A1^3": (1, 3, 3, 1),
        "I5xA1": (1, 3, 3, 1),
        "Atilde2": (1, 3, 3, 0),
        "A4": (1, 4, 6, 4),
    }
    for name, census in expected.items():
        assert px.cell_census(px.artin_coherent(MATRICES[name])) == census, name
    # sub-counts of A4 via the rank-3 finiteness test
    m = MATRICES["A4"]
    finite_pairs = sum(
        1
        for i in range(4)
        for j in range(i + 1, 4)
        if m.m[i][j]
    )
    finite_triples = sum(
        1
        for i, j, k in itertools.combinations(range(4), 3)
        if px.rank3_finite(m.m[i][j], m.m[i][k], m.m[j][k])
    )
    assert finite_pairs == 6 and finite_triples == 4
    report(4, "Artin cell census incl. H3", t0, 300.0)


def test_criterion_5_z_cell_boundaries():
    t0 = time.time()
    grs, grt, gst = 0, 1, 2

    def letters(p31, s):
        table = {n: i for i, n in enumerate(p31.base.generators)}
        return tuple(table[c] for c in s)

    # A1^3: the permutohedron
    p31 = px.artin_coherent(MATRICES["A1^3"])
    (z,) = p31.cells
    w = letters(p31, "tsr")
    assert paths_equal(z.src, Path2(p31.base, w, [(gst, 1, 0), (grt, 1, 1), (grs, 1, 0)]))
    assert paths_equal(z.tgt, Path2(p31.base, w, [(grs, 1, 1), (grt, 1, 0), (gst, 1, 1)]))

    # A3: the 6 + 8 step loop in the reduced-expression graph of w0
    p31 = px.artin_coherent(MATRICES["A3"])
    (z,) = p31.cells
    w = letters(p31, "tstrst")
    src = [(gst, 1, 0), (grs, 1, 2), (grt, 1, 1), (grt, -1, 4), (gst, 1, 2), (grs, 1, 0)]
    tgt = [
        (grt, 1, 2),
        (gst, 1, 3),
        (grs, 1, 1),
        (grt, 1, 0),
        (grt, -1, 3),
        (gst, 1, 1),
        (grs, 1, 3),
        (grt, 1, 2),
    ]
    assert paths_equal(z.src, Path2(p31.base, w, src))
    assert paths_equal(z.tgt, Path2(p31.base, w, tgt))

    # B3: the 10 + 16 step loop
    p31 = px.artin_coherent(MATRICES["B3"])
    (z,) = p31.cells
    w = letters(p31, "tstrsrtsr")
    src = [
        (gst, 1, 0),
        (grs, 1, 2),
        (grt, 1, 1),
        (gst, -1, 5),
        (grt, -1, 4),
        (gst, 1, 2),
        (grt, 1, 7),
        (grs, 1, 4),
        (grt, 1, 3),
        (grs, 1, 0),
    ]
    tgt = [
        (grt, 1, 2),
        (grt, -1, 5),
        (gst, 1, 3),
        (grs, 1, 5),
        (grt, 1, 4),
        (grs, 1, 1),
        (grt, 1, 0),
        (gst, -1, 4),
        (grt, -1, 3),
        (gst, 1, 1),
        (grt, 1, 6),
        (grs, 1, 3),
        (grt, 1, 2),
        (gst, -1, 6),
        (grt, -1, 5),
        (gst, 1, 3),
    ]
    assert paths_equal(z.src, Path2(p31.base, w, src))
    assert paths_equal(z.tgt, Path2(p31.base, w, tgt))

    # I2(p) x A1 for p = 3, 4, 5: the sliding schema instantiated at p
    for p in (3, 4, 5):
        mat = px.CoxeterMatrix(
            ("r", "s", "t"), ((1, p, 2), (p, 1, 2), (2, 2, 1))
        )
        p31 = px.artin_coherent(mat)
        (z,) = p31.cells
        word = (2,) + tuple((1, 0)[k % 2] for k in range(p))
        src = [(gst, 1, 0)] + [
            ((grt if k % 2 else gst), 1, k) for k in range(1, p)
        ] + [(grs, 1, 0)]
        tgt = [(grs, 1, 1)] + [((gst if k % 2 else grt), 1, k) for k in range(p)]
        assert paths_equal(z.src, Path2(p31.base, word, src))
        assert paths_equal(z.tgt, Path2(p31.base, word, tgt))
    report(5, "Z-cell boundaries vs their transcriptions", t0, 50.0)


def test_criterion_6_convergence(b3plus_completed, garside_parts):
    t0 = time.time()
    p31, _ = b3plus_completed
    strategies_agree(p31.base, 8, exhaustive=True)
    pipeline = garside_pipeline(garside_parts)
    for name in GARSIDE_TYPES:
        _, gc, _, _ = pipeline[name]
        exhaustive = gc.p31.base.n_generators <= 5
        strategies_agree(gc.p31.base, 8, exhaustive=exhaustive)
    report(6, "strategy-independent normal forms", t0, 300.0)


def test_criterion_7_presentation_preservation(b3plus_closure_classes, garside_parts):
    t0 = time.time()
    pipeline = garside_pipeline(garside_parts)
    # the braid-monoid reduction: classes of words up to length 6 are in
    # bijection under s,t -> s,t and a -> st (full closure oracle)
    classes_in, classes_out = b3plus_closure_classes

    def phi(word):
        image = {0: (0,), 1: (1,), 2: (0, 1)}
        out = ()
        for gch in word:
            out += image[gch]
        return out

    mapping = {}
    for w, cls in classes_in.items():
        img = classes_out[phi(w)]
        assert mapping.setdefault(cls, img) == img
    assert len(mapping) == len(set(mapping.values()))

    # the Garside reductions keep generators and remove only rules that the
    # surviving rules derive, so the congruence (hence every class count)
    # is preserved; verified by bounded search, plus an exhaustive closure
    # slice on the smallest type
    for name in GARSIDE_TYPES:
        _, gc, _, red = pipeline[name]
        assert red.base.generators == gc.p31.base.generators
        surviving = {(r.lhs, r.rhs) for r in red.base.rules}
        assert surviving <= {(r.lhs, r.rhs) for r in gc.p31.base.rules}
        by_rhs = {}
        for lhs, rhs in surviving:
            by_rhs.setdefault(rhs, []).append(lhs)
        for r in gc.p31.base.rules:
            if (r.lhs, r.rhs) in surviving:
                continue
            # u|vw <=(v|w => vw)= u|v|w =(u|v => uv)=> uv|w
            derived = any(
                (r.lhs[0], split[0]) in by_rhs.get((r.rhs[0],), [()])
                or ((r.lhs[0], split[0]), (r.rhs[0],)) in surviving
                for split in by_rhs.get((r.lhs[1],), ())
                if ((r.lhs[0], split[0]), (r.rhs[0],)) in surviving
                and split[1] == r.rhs[1]
            )
            assert derived, (name, r.name)
    _, gc, _, red = pipeline["A1xA1"]
    n = gc.p31.base.n_generators
    before = oracles.closure_classes(
        [(r.lhs, r.rhs) for r in gc.p31.base.rules], n, 6, 8
    )
    after = oracles.closure_classes(
        [(r.lhs, r.rhs) for r in red.base.rules], n, 6, 8
    )
    assert len(set(before.values())) == len(set(after.values()))
    assert all(
        (before[a] == before[b]) == (after[a] == after[b])
        for a in before
        for b in before
        if len(a) + len(b) <= 8
    )
    report(7, "presented monoid preserved", t0, 300.0)


def test_criterion_8_coxeter_arithmetic(groups):
    t0 = time.time()
    expected = {"A2": 6, "A1^3": 8, "A3": 24, "B3": 48, "H3": 120}
    for name, size in expected.items():
        g = groups(name)
        assert g.size == size
        mat = MATRICES[name]
        elements = oracles.tits_enumerate([list(r) for r in mat.m])
        assert len(elements) == size
        assert sorted(len(w) for w in elements) == sorted(g.length)
        for s in range(g.rank):
            col = [g.right[e][s] for e in range(g.size)]
            assert sorted(col) == list(range(g.size))
            assert all(g.right[col[e]][s] == e for e in range(g.size))
        for i in range(g.rank):
            for j in range(i + 1, g.rank):
                word = (i, j) * mat.m[i][j]
                assert all(g.mult_word(e, word) == e for e in range(g.size))
    report(8, "Coxeter arithmetic vs enumeration oracle", t0, 30.0)


def slide_variants(g, word):
    """Normal forms under different sliding schedules."""

    def run(schedule):
        w = [e for e in word if e != g.identity]
        changed = True
        while changed:
            changed = False
            for i in schedule(len(w)):
                if i + 1 >= len(w):
                    continue
                u2, v2 = g.left_weighted(w[i], w[i + 1])
                if (u2, v2) != (w[i], w[i + 1]):
                    w[i], w[i + 1] = u2, v2
                    changed = True
            if g.identity in w:
                w = [e for e in w if e != g.identity]
                changed = True
        return tuple(w)

    right_to_left = run(lambda n: range(n - 2, -1, -1))
    left_to_right = run(lambda n: range(n - 1))
    return right_to_left, left_to_right


def test_criterion_9_local_sliding(groups):
    t0 = time.time()
    for name in ("A2", "B2"):
        g = groups(name)
        mat = MATRICES[name]
        braids = oracles.braid_rules_of_matrix([list(r) for r in mat.m])
        letters = [e for e in range(g.size) if e != g.identity]

        def expand(word):
            out = ()
            for e in word:
                out += g.word[e]
            return out

        nf_of = {}
        for k in range(4):
            for word in itertools.product(letters, repeat=k):
                a, b = slide_variants(g, word)
                assert a == b, (name, word)
                nf = px.sliding_normal_form(g, word)
                assert nf == a
                for i in range(len(nf) - 1):
                    assert g.is_left_weighted(nf[i], nf[i + 1])
                nf_of[word] = nf
        # same normal form iff the words multiply to the same monoid element
        by_class = {}
        for word, nf in nf_of.items():
            by_class.setdefault(expand(nf), []).append(word)
        for nf_word, members in by_class.items():
            closure = oracles.braid_closure(nf_word, braids)
            for w in members:
                assert expand(w) in closure
        # distinct normal forms are braid-inequivalent
        reps = list(by_class)
        for a, b in itertools.combinations(reps, 2):
            if len(a) != len(b):
                continue
            assert b not in oracles.braid_closure(a, braids), (name, a, b)
    report(9, "local sliding normal forms", t0, 10.0)
