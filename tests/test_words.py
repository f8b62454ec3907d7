import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polycox as px
from polycox.words import Ordering

import oracles


def B3_rules(p31=None):
    return [((1, 2), (2, 0)), ((0, 1), (2,)), ((1, 0, 1), (0, 0)), ((1, 0, 0), (0, 0, 2))]


def word_of(p, s):
    return tuple(p.generators.index(c) for c in s)


class TestPolygraph2:
    def test_equal_by_value_and_unhashable(self):
        # equal polygraphs must hash alike, and a mutable one cannot
        def build():
            return px.Polygraph2(["s", "t"], [px.Rule("a", (0, 1), (1,))])

        p, q = build(), build()
        assert p is not q and p == q
        with pytest.raises(TypeError):
            hash(p)


class TestFindRedexes:
    def test_sta(self, b3plus):
        p, _ = b3plus
        # beta (st) at 0 and alpha (ta) at 1
        assert px.find_redexes(word_of(p, "sta"), p) == [(1, 0), (0, 1)]

    def test_empty_word(self, b3plus):
        p, _ = b3plus
        assert px.find_redexes((), p) == []

    def test_completed_sasaa_like(self, b3plus_completed):
        p31, _ = b3plus_completed
        p = p31.base
        # gamma (sas) at 0, delta (saa) at 2 on sasaa-extended word
        w = word_of(p, "sasaa")
        got = px.find_redexes(w, p)
        assert got == [(2, 0), (3, 2)]

    def test_out_of_range_letter(self, b3plus):
        p, _ = b3plus
        with pytest.raises(px.InputError):
            px.find_redexes((7,), p)


@st.composite
def growing_rules(draw):
    """Rules over 1-3 letters whose lhs are often duplicates, prefixes,
    suffixes or inner factors of earlier ones; each rhs is shorter than its
    lhs, so every rule set terminates."""
    n = draw(st.integers(1, 3))
    word = lambda lo, hi: st.lists(st.integers(0, n - 1), min_size=lo, max_size=hi)  # noqa: E731
    rules = []
    for _ in range(draw(st.integers(1, 6))):
        lhs = tuple(draw(word(1, 4)))
        if rules and draw(st.booleans()):
            base = draw(st.sampled_from(rules))[0]
            i = draw(st.integers(0, len(base) - 1))
            lhs = base[i : draw(st.integers(i + 1, len(base)))]
        rules.append((lhs, tuple(draw(word(0, len(lhs) - 1)))))
    return n, rules


class TestRedexOracle:
    """``find_redexes`` and ``normalize`` against the slicing oracle, on a
    polygraph grown rule by rule so that a stale automaton shows."""

    @given(growing_rules(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_naive_scan(self, gen_rules, data):
        n, rules = gen_rules
        p = px.Polygraph2("abc"[:n])
        words = st.lists(st.integers(0, n - 1), max_size=10).map(tuple)
        for k, (lhs, rhs) in enumerate(rules):
            p.add_rule(px.Rule(f"r{k}", lhs, rhs))
            seen = rules[: k + 1]
            memo = {}
            for w in data.draw(st.lists(words, min_size=1, max_size=3)):
                assert px.find_redexes(w, p) == oracles.naive_redexes(w, [l for l, _ in seen])
                nf, steps = oracles.naive_leftmost_reduction(w, seen)
                for kwargs in ({}, {"memo": memo}, {"budget": len(steps)}):
                    got, path = px.normalize(w, p, **kwargs)
                    assert (got, [(s.rule, s.pos) for s in path.steps]) == (nf, steps)
                    assert all(s.dir == 1 for s in path.steps)
                if steps:
                    with pytest.raises(px.NonterminationError):
                        px.normalize(w, p, budget=len(steps) - 1)

    @given(growing_rules())
    @settings(max_examples=100, deadline=None)
    def test_rows_match_dict_build(self, gen_rules):
        n, rules = gen_rules
        p = px.Polygraph2("abc"[:n])
        for k, (lhs, rhs) in enumerate(rules):
            p.add_rule(px.Rule(f"r{k}", lhs, rhs))
            ac, ref = p.automaton(), oracles.reference_automaton(p.rules)
            assert len(ac.rows) == len(ref.delta)
            for s, row in enumerate(ac.rows):
                assert row == [ref.delta[s].get(g, 0) for g in range(n)]
            assert (ac.depth, ac.out) == (ref.depth, ref.out)
            # the longest lhs ending at each state, with its least rule id
            for m, out in zip(ac.leftmost, ref.out):
                longest = max([n_lhs for n_lhs, _ in out], default=None)
                ids = [r for n_lhs, rs in out if n_lhs == longest for r in rs]
                assert m == (None if longest is None else (longest, min(ids)))


class TestApplyStep:
    def test_beta_on_sta(self, b3plus):
        p, _ = b3plus
        assert px.apply_step(word_of(p, "sta"), p, 1, 0) == word_of(p, "aa")

    def test_gamma_on_sast(self, b3plus_completed):
        p31, _ = b3plus_completed
        p = p31.base
        assert px.apply_step(word_of(p, "sast"), p, 2, 0) == word_of(p, "aat")

    def test_no_match_raises(self, b3plus):
        p, _ = b3plus
        with pytest.raises(px.StepError):
            px.apply_step(word_of(p, "sta"), p, 0, 0)

    @given(st.data())
    def test_reverse_undoes_forward(self, data):
        p = px.Polygraph2(
            ["a", "b"],
            [px.Rule("r0", (0, 1), (1, 0, 0)), px.Rule("r1", (1, 1), (0,))],
        )
        w = tuple(data.draw(st.lists(st.integers(0, 1), max_size=8)))
        redexes = px.find_redexes(w, p)
        if not redexes:
            return
        r, i = data.draw(st.sampled_from(redexes))
        forward = px.apply_step(w, p, r, i)
        assert px.apply_step(forward, p, r, i, -1) == w


class TestOrders:
    def test_deglex_orientation(self, b3plus):
        p, order = b3plus
        assert order.compare(word_of(p, "ta"), word_of(p, "as")) is Ordering.GREATER

    def test_equal(self, b3plus):
        p, order = b3plus
        w = word_of(p, "sta")
        assert order.compare(w, w) is Ordering.EQUAL

    def test_garside_wreath_rule_orientation(self, groups):
        g = groups("A2")
        gp = px.garside_presentation(g)
        order = px.garside_order(gp)
        for rule in gp.pg.rules:
            assert order.compare(rule.lhs, rule.rhs) is Ordering.GREATER

    def test_garside_wreath_beta_orientation(self, groups, a3_completion):
        # complete_garside builds its beta rules oriented, and checks none:
        # every rule of S(Gar_2(W)) must decrease under the wreath order
        for name in ["A2", "B2", "I5", "A1^3", "A2xA1", "I5xA1", "A3"]:
            gc = a3_completion if name == "A3" else px.complete_garside(groups(name))
            order = px.garside_order(gc.gp)
            assert px.check_termination(gc.p31.base, order) == [], name
            for idx in gc.beta.values():
                rule = gc.p31.base.rules[idx]
                assert order.compare(rule.lhs, rule.rhs) is Ordering.GREATER

    @given(
        st.lists(st.lists(st.integers(0, 2), max_size=5).map(tuple), min_size=3, max_size=3)
    )
    def test_deglex_strict_order(self, words):
        order = px.Deglex((0, 1, 2))
        a, b, c = words
        assert order.compare(a, a) is Ordering.EQUAL
        ab = order.compare(a, b)
        if ab is Ordering.GREATER:
            assert order.compare(b, a) is Ordering.LESS
        if ab is Ordering.GREATER and order.compare(b, c) is Ordering.GREATER:
            assert order.compare(a, c) is Ordering.GREATER

    @given(
        st.lists(st.integers(0, 2), max_size=4).map(tuple),
        st.lists(st.integers(0, 2), max_size=4).map(tuple),
        st.lists(st.integers(0, 2), max_size=3).map(tuple),
        st.lists(st.integers(0, 2), max_size=3).map(tuple),
    )
    def test_deglex_concatenation_compatible(self, a, b, u, v):
        order = px.Deglex((0, 1, 2))
        if order.compare(a, b) is Ordering.GREATER:
            assert order.compare(u + a + v, u + b + v) is Ordering.GREATER


class TestCheckTermination:
    def test_b3plus_ok(self, b3plus):
        p, order = b3plus
        assert px.check_termination(p, order) == []

    def test_garside_ok(self, groups):
        gp = px.garside_presentation(groups("A2"))
        assert px.check_termination(gp.pg, px.garside_order(gp)) == []

    def test_identity_rule_violates(self):
        p = px.Polygraph2(["a"], [px.Rule("loop", (0,), (0,))])
        order = px.Deglex((0,))
        bad = px.check_termination(p, order)
        assert [r.name for r in bad] == ["loop"]


class TestNormalize:
    def test_redex_free_fixed(self, b3plus):
        p, _ = b3plus
        w = word_of(p, "aas")
        nf, path = px.normalize(w, p)
        assert nf == w and path.steps == ()

    def test_tstst_all_strategies_agree(self, b3plus_completed):
        p31, _ = b3plus_completed
        p = p31.base
        w = word_of(p, "tstst")
        rules = [(r.lhs, r.rhs) for r in p.rules]
        nfs = oracles.all_normal_forms(w, rules)
        assert len(nfs) == 1
        expected = next(iter(nfs))
        nf, path = px.normalize(w, p)
        assert nf == expected
        assert path.source == w and path.target == nf
        assert px.find_redexes(nf, p) == []

    def test_sasta_normal_form(self, b3plus_completed):
        p31, _ = b3plus_completed
        p = p31.base
        nf, _ = px.normalize(word_of(p, "sasta"), p)
        assert nf == word_of(p, "aaas")

    def test_budget(self):
        p = px.Polygraph2(["a", "b"], [px.Rule("swap", (0,), (0,))])
        # lhs == rhs loops forever; the budget must catch it
        with pytest.raises(px.NonterminationError):
            px.normalize((0,), p, budget=10)
