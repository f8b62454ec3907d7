import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polycox as px
from conftest import MATRICES, _chain, coxeter

import oracles


EXPECTED_ORDERS = {"A2": 6, "A1^3": 8, "A3": 24, "B3": 48, "H3": 120, "B4": 384, "F4": 1152}


class TestEnumeration:
    @pytest.mark.parametrize("name,size", sorted(EXPECTED_ORDERS.items()))
    def test_group_orders(self, groups, name, size):
        assert groups(name).size == size

    @pytest.mark.parametrize("name", ["A2", "A1^3", "A3", "B3", "H3"])
    def test_against_tits_oracle(self, groups, name):
        mat = MATRICES[name]
        elements = oracles.tits_enumerate([list(r) for r in mat.m])
        g = groups(name)
        assert len(elements) == g.size
        # lengths agree: the oracle's reduced words vs the Cayley distance
        by_len_oracle = sorted(len(w) for w in elements)
        by_len_engine = sorted(g.length)
        assert by_len_oracle == by_len_engine

    def test_a1cubed_direct_product_oracle(self, groups):
        g = groups("A1^3")
        elements, length = oracles.direct_product_a1n(3)
        assert g.size == len(elements)
        assert sorted(g.length) == sorted(length.values())
        w0 = g.longest_element(range(3))
        assert g.length[w0] == 3
        assert w0 == g.mult_word(0, (0, 1, 2))  # w0 = rst

    def test_cayley_relations_hold_as_permutations(self, groups):
        for name in ("A2", "A1^3", "A3", "B3", "H3", "B4", "F4"):
            g = groups(name)
            size, n = g.size, g.rank
            for s in range(n):
                col = [g.right[e][s] for e in range(size)]
                assert sorted(col) == list(range(size))  # a permutation
                assert all(g.right[col[e]][s] == e for e in range(size))  # s^2 = 1
            for i in range(n):
                for j in range(i + 1, n):
                    m = g.matrix.m[i][j]
                    word = (i, j) * m
                    assert all(g.mult_word(e, word) == e for e in range(size))

    def test_length_parity(self, groups):
        for name in ("A3", "B3", "H3", "B4", "F4"):
            g = groups(name)
            for e in range(g.size):
                for s in range(g.rank):
                    assert abs(g.length[g.right[e][s]] - g.length[e]) == 1

    def test_large_dihedral_enumerates(self):
        # one coset definition per scan step, so no recursion per coset
        mat = px.CoxeterMatrix(("s", "t"), ((1, 600), (600, 1)))
        g = px.enumerate_group(mat, 5000)
        assert g.size == 1200
        assert g.length[g.longest_element((0, 1))] == 600

    def test_infinite_raises(self):
        with pytest.raises(px.InfiniteOrUnknown):
            px.enumerate_group(MATRICES["Atilde2"], 3000)

    def test_words_are_shortlex_minimal(self, groups):
        g = groups("A3")
        for e in range(g.size):
            w = g.word[e]
            assert len(w) == g.length[e]
            assert g.mult_word(0, w) == e
            if e != g.identity:
                assert w[0] == g.smallest_divisor(e)

    def test_disconnected_cayley_graph_rejected(self):
        # two copies of A1's Cayley graph: 0 - 1 and 2 - 3
        with pytest.raises(px.PreconditionError, match="^Cayley graph is not connected$"):
            px.CoxeterGroup(MATRICES["A1"], [[1], [0], [3], [2]])

    def test_lcm_failure_on_a_table_that_is_no_coxeter_group(self):
        # the 12-element group of three involutions of 6 points, handed over
        # as if it were A3's Cayley graph: the w0-duality of lcm breaks
        gens = [(4, 3, 5, 1, 0, 2), (2, 4, 0, 5, 1, 3), (0, 5, 3, 2, 4, 1)]
        perms = [tuple(range(6))]
        right = []
        for e in perms:
            right.append([])
            for s in gens:
                f = tuple(e[s[i]] for i in range(6))
                if f not in perms:
                    perms.append(f)
                right[-1].append(perms.index(f))
        g = px.CoxeterGroup(MATRICES["A3"], right)
        assert g.size == 12
        with pytest.raises(px.PreconditionError, match="^lcm failure$"):
            for a, b in itertools.product(range(g.size), repeat=2):
                g.lcm(a, b)


# the finite groups of the `groups` fixture, and a large dihedral group
FINITE = sorted(name for name in MATRICES if name != "Atilde2")
I2_600 = coxeter("st", [[1, 600], [600, 1]])


class TestTablesAgainstDefinitions:
    """``left``, ``inv`` and ``smallest_divisor`` are read off the
    breadth-first tree; check them against products along whole words."""

    @pytest.fixture(scope="class", params=FINITE + ["I2(600)"])
    def group(self, request, groups):
        if request.param == "I2(600)":
            return px.enumerate_group(I2_600)
        return groups(request.param)

    def test_left_is_left_multiplication(self, group):
        g = group
        for e in range(g.size):
            assert g.left[e] == [g.mult_word(g.generator(s), g.word[e]) for s in range(g.rank)]

    def test_inv_is_the_inverse(self, group):
        g = group
        for e in range(g.size):
            assert g.mult(e, g.inv[e]) == g.mult(g.inv[e], e) == g.identity

    def test_smallest_divisor_is_the_least_left_descent(self, group):
        g = group
        for e in range(1, g.size):
            descents = [
                s for s in range(g.rank)
                if g.length[g.mult_word(g.generator(s), g.word[e])] < g.length[e]
            ]
            assert g.smallest_divisor(e) == min(descents)


def _relabeled(m, perm):
    n = len(m)
    return coxeter("abcde"[:n], [[m[perm[i]][perm[j]] for j in range(n)] for i in range(n)])


_D5 = _chain(3, 3, 3, 2)
_D5[2][4] = _D5[4][2] = 3
RANK45 = {"A5": _chain(3, 3, 3, 3), "B4": _chain(4, 3, 3), "D5": _D5, "F4": _chain(3, 4, 3)}

# every finite rank-3 type (m_rs, m_rt, m_st) with entries up to 12, up to order
RANK3_TYPES = sorted(
    {tuple(sorted(t)) for t in itertools.product(range(2, 13), repeat=3) if px.rank3_finite(*t)}
)


class TestReferenceCosetTable:
    """The coset table equals the one a scan that restarts after every
    define and checks closure through ``find`` gives (``oracles``), ids
    included, so every layer above reads the same element numbering."""

    @given(st.sampled_from(RANK3_TYPES), st.permutations(range(3)))
    @settings(max_examples=80, deadline=None)
    def test_rank3_types_in_any_generator_order(self, orders, perm):
        a, b, c = orders
        mat = _relabeled([[1, a, b], [a, 1, c], [b, c, 1]], perm)
        assert px.enumerate_group(mat, 10**4).right == oracles.reference_coset_table(mat, 10**4)

    @pytest.mark.parametrize("name", sorted(RANK45))
    def test_rank45_in_six_generator_orders(self, name):
        m = RANK45[name]
        perms = list(itertools.permutations(range(len(m))))
        for perm in [perms[0]] + random.Random(name).sample(perms[1:], 5):
            mat = _relabeled(m, perm)
            assert px.enumerate_group(mat, 10**4).right == oracles.reference_coset_table(mat, 10**4)


class TestArithmetic:
    def test_is_reduced_product(self, groups):
        g = groups("A2")
        s, t = g.generator(0), g.generator(1)
        assert g.is_reduced_product(s, t)
        assert not g.is_reduced_product(s, s)
        st = g.mult(s, t)
        assert g.is_reduced_product(st, s)
        assert not g.is_reduced_product(st, t)

    def test_smallest_divisor(self, groups):
        g = groups("A2")
        t = g.generator(1)
        assert g.smallest_divisor(t) == 1
        ts = g.mult(t, g.generator(0))
        # s does not left-divide ts, so the smallest divisor is t
        assert g.smallest_divisor(ts) == 1
        w0 = g.longest_element((0, 1))
        assert g.smallest_divisor(w0) == 0  # every generator divides w0

    def test_smallest_divisor_identity_rejected(self, groups):
        with pytest.raises(px.PreconditionError):
            groups("A2").smallest_divisor(0)

    def test_complement(self, groups):
        g = groups("A2")
        s = g.generator(0)
        w0 = g.longest_element((0, 1))
        assert g.complement(s, s) == g.identity
        assert g.complement(g.identity, w0) == w0
        ts = g.mult(g.generator(1), s)
        assert g.complement(s, w0) == ts  # w0 = s.ts reduced
        with pytest.raises(px.PreconditionError):
            g.complement(g.generator(1), g.mult(s, g.generator(1)))

    def test_longest_element(self, groups):
        g = groups("A2")
        assert g.longest_element((0,)) == g.generator(0)
        w0 = g.longest_element((0, 1))
        assert g.length[w0] == 3
        assert w0 == g.mult_word(0, (0, 1, 0)) == g.mult_word(0, (1, 0, 1))
        g3 = groups("A3")
        assert g3.length[g3.longest_element(range(3))] == 6

    def test_lcm_consistency_exhaustive(self, groups):
        for name in ("A2", "B2", "A1^3", "A3"):
            g = groups(name)
            for k in range(1, g.rank + 1):
                for gens in itertools.combinations(range(g.rank), k):
                    w0 = g.longest_element(gens)
                    for s in gens:
                        assert g.divides(g.generator(s), w0)
                    for w in range(g.size):
                        if all(g.divides(g.generator(s), w) for s in gens):
                            assert g.divides(w0, w)


class TestWeakOrderWalks:
    """gcd, lcm and longest_element walk the Cayley graph; the oracles scan
    divisor sets, all of W and the parabolic's members instead."""

    @pytest.mark.parametrize("name", ["A2xA1", "A3", "B3", "I5xA1"])
    def test_gcd_and_lcm_match_scans_on_every_pair(self, groups, name):
        g = groups(name)
        divisors = oracles.left_divisor_sets(g)
        for a, b in itertools.product(range(g.size), repeat=2):
            assert g.gcd(a, b) == oracles.divisor_gcd(g, divisors, a, b)
            assert g.lcm(a, b) == oracles.scan_lcm(g, divisors, a, b)

    @pytest.mark.parametrize("name", ["A2xA1", "A3", "B3", "I5xA1"])
    def test_longest_element_matches_member_scan(self, groups, name):
        g = groups(name)
        for k in range(g.rank + 1):
            for gens in itertools.permutations(range(g.rank), k):
                assert g.longest_element(gens) == oracles.parabolic_longest(g, gens)


class TestRank3Finite:
    FIVE_TYPES = [
        (3, 2, 3),  # A3
        (4, 2, 3),  # B3
        (5, 2, 3),  # H3
        (2, 2, 2),  # A1^3
        (5, 2, 2),  # I2(5) x A1
        (7, 2, 2),  # I2(7) x A1
    ]

    @pytest.mark.parametrize("triple", FIVE_TYPES)
    def test_the_five_types_are_finite(self, triple):
        assert px.rank3_finite(*triple)

    @pytest.mark.parametrize("triple", [(3, 3, 3), (4, 2, 4), (6, 2, 3), (0, 2, 2)])
    def test_infinite_cases(self, triple):
        assert not px.rank3_finite(*triple)

    def test_agrees_with_enumeration_oracle(self):
        # cross-check against Todd-Coxeter closure under a generous cap; the
        # last two have an infinite entry (0), which adds no relator
        triples = [(3, 2, 3), (2, 2, 2), (3, 3, 3), (4, 2, 4), (5, 2, 3), (0, 2, 2), (3, 0, 2)]
        for m_rs, m_rt, m_st in triples:
            mat = px.CoxeterMatrix(
                ("r", "s", "t"),
                ((1, m_rs, m_rt), (m_rs, 1, m_st), (m_rt, m_st, 1)),
            )
            try:
                px.enumerate_group(mat, 5000)
                closed = True
            except px.InfiniteOrUnknown:
                closed = False
            assert closed == px.rank3_finite(m_rs, m_rt, m_st)


class TestLeftWeighted:
    def test_already_left_weighted(self, groups):
        g = groups("A2")
        s, t = g.generator(0), g.generator(1)
        # delta-complement of s is ts, and t is no left divisor of s
        assert g.left_weighted(s, s) == (s, s)

    def test_spec_pair(self, groups):
        g = groups("A2")
        s = g.generator(0)
        ts = g.mult(g.generator(1), s)
        w0 = g.longest_element((0, 1))
        assert g.left_weighted(s, ts) == (w0, g.identity)

    def test_sliding_reaches_unique_normal_form(self, groups):
        for name in ("A2", "B2"):
            g = groups(name)
            letters = [e for e in range(g.size) if e != g.identity]
            for word in itertools.product(letters, repeat=2):
                nf = px.sliding_normal_form(g, word)
                for i in range(len(nf) - 1):
                    assert g.is_left_weighted(nf[i], nf[i + 1])
