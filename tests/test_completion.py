import pytest

import polycox as px
from polycox.paths import Step2

import oracles


class TestCriticalBranchings:
    def test_pre_completion_single(self, b3plus):
        p, _ = b3plus
        got = px.critical_branchings(p)
        assert [p.word_str(b.source) for b in got] == ["sta"]
        expect = oracles.brute_overlap_sources([(r.lhs, r.rhs) for r in p.rules])
        assert {b.source for b in got} == expect

    def test_completed_four(self, b3plus_completed):
        p31, _ = b3plus_completed
        p = p31.base
        got = px.critical_branchings(p)
        assert sorted(p.word_str(b.source) for b in got) == [
            "sasaa",
            "sasas",
            "sast",
            "sta",
        ]
        expect = oracles.brute_overlap_sources([(r.lhs, r.rhs) for r in p.rules])
        assert {b.source for b in got} == expect

    def test_self_overlap(self):
        p = px.Polygraph2(["a", "b"], [px.Rule("sq", (0, 0), (1,))])
        got = px.critical_branchings(p)
        assert len(got) == 1 and got[0].source == (0, 0, 0)


class TestHomotopicalComplete:
    def test_b3plus_exact(self, b3plus_completed):
        p31, _ = b3plus_completed
        p = p31.base
        assert [(p.word_str(r.lhs), p.word_str(r.rhs)) for r in p.rules] == [
            ("ta", "as"),
            ("st", "a"),
            ("sas", "aa"),
            ("saa", "aat"),
        ]
        cells = {p.word_str(c.src.source): c for c in p31.cells}
        assert set(cells) == {"sta", "sast", "sasas", "sasaa"}
        # boundaries of the four confluence cells, frozen from the worked example
        assert cells["sta"].src.steps == (Step2(1, 1, 0),)
        assert cells["sta"].tgt.steps == (Step2(0, 1, 1), Step2(2, 1, 0))
        assert cells["sast"].src.steps == (Step2(2, 1, 0),)
        assert cells["sast"].tgt.steps == (Step2(1, 1, 2), Step2(3, 1, 0))
        assert cells["sasas"].src.steps == (Step2(2, 1, 0),)
        assert cells["sasas"].tgt.steps == (
            Step2(2, 1, 2),
            Step2(3, 1, 0),
            Step2(0, 1, 2),
        )
        assert cells["sasaa"].src.steps == (Step2(2, 1, 0),)
        assert cells["sasaa"].tgt.steps == (
            Step2(3, 1, 2),
            Step2(3, 1, 0),
            Step2(0, 1, 2),
            Step2(1, 1, 3),
        )

    def test_already_convergent_adds_nothing(self):
        p = px.Polygraph2(["a"], [px.Rule("idem", (0, 0), (0,))])
        order = px.Deglex((0,))
        p31 = px.homotopical_complete(p, order)
        assert len(p31.base.rules) == 1
        assert len(p31.cells) == 1  # the aaa self-overlap is confluent

    def test_termination_precondition(self):
        p = px.Polygraph2(["a"], [px.Rule("grow", (0,), (0, 0))])
        with pytest.raises(px.PreconditionError):
            px.homotopical_complete(p, px.Deglex((0,)))

    def test_rule_budget(self, b3plus):
        p, order = b3plus
        with pytest.raises(px.DivergenceError):
            px.homotopical_complete(p, order, rule_budget=1)

    def test_orientation_error_surfaces(self):
        p = px.Polygraph2(
            ["a", "b", "c"],
            [px.Rule("r0", (0, 1), (2,)), px.Rule("r1", (1, 2), (0,))],
        )
        # the overlap abc rewrites to cc and aa, incomparable by the table
        order = px.UserTable(
            frozenset({(((0, 1)), (2,)), (((1, 2)), (0,))})
        )
        with pytest.raises(px.OrientationError):
            px.homotopical_complete(p, order)

    def test_every_branching_has_a_cell(self, b3plus_completed):
        p31, _ = b3plus_completed
        assert len(p31.cells) == len(px.critical_branchings(p31.base))

    def test_boundaries_end_at_normal_forms(self, b3plus_completed):
        p31, _ = b3plus_completed
        for c in p31.cells:
            assert c.src.target == c.tgt.target
            assert px.find_redexes(c.src.target, p31.base) == []


class TestTripleBranchings:
    def test_none_before_completion(self, b3plus):
        p, _ = b3plus
        assert px.triple_critical_branchings(p) == []

    def test_completed_contains_the_two_generating_ones(self, b3plus_completed):
        p31, _ = b3plus_completed
        p = p31.base
        sources = {p.word_str(t.source) for t in px.triple_critical_branchings(p)}
        # the two triple overlaps the reduction uses, plus the two longer
        # chain overlaps the definition also admits
        assert {"sasta", "sasast"} <= sources
        assert sources == {"sasta", "sasast", "sasasas", "sasasaa"}

    def test_self_triple(self):
        p = px.Polygraph2(["a", "b"], [px.Rule("sq", (0, 0), (1,))])
        got = px.triple_critical_branchings(p)
        assert [t.source for t in got] == [(0, 0, 0, 0)]


class TestGeneratingTripleConfluence:
    def _sphere(self, p31, source_str):
        p = p31.base
        triples = {
            p.word_str(t.source): t for t in px.triple_critical_branchings(p)
        }
        return px.generating_triple_confluence(p31, triples[source_str])

    def test_omega1_faces(self, b3plus_completed):
        p31, _ = b3plus_completed
        sphere = self._sphere(p31, "sasta")
        names = [
            (p31.cells[e.cell].name, e.dir) for e in sphere.lhs + sphere.rhs
        ]
        # faces: B whiskered by a, A whiskered by sa, and C once (reversed)
        assert names == [("c1", 1), ("c0", 1), ("c2", -1)]
        assert sphere.check(p31) == []

    def test_omega2_faces(self, b3plus_completed):
        p31, _ = b3plus_completed
        sphere = self._sphere(p31, "sasast")
        names = [
            (p31.cells[e.cell].name, e.dir) for e in sphere.lhs + sphere.rhs
        ]
        assert names == [("c2", 1), ("c1", 1), ("c3", -1)]
        assert sphere.check(p31) == []

    def test_peiffer_triple_sides_agree(self):
        # aa->b on aaaa: the outer steps are disjoint, so both sides of the
        # sphere normalize to equal composites and the sphere is all-trivial
        p = px.Polygraph2(["a", "b"], [px.Rule("sq", (0, 0), (1,))])
        p31 = px.homotopical_complete(p, px.Deglex((0, 1)))
        sphere = self._sphere(p31, "aaaa")
        assert sphere.check(p31) == []

    def test_sphere_boundaries_paths_equal(self, b3plus_completed):
        p31, _ = b3plus_completed
        for src in ("sasta", "sasast", "sasasas", "sasasaa"):
            sphere = self._sphere(p31, src)
            assert px.paths_equal(sphere.source, sphere.source)
            assert sphere.check(p31) == []


class TestConvergenceProperty:
    def test_completed_b3plus_words_to_8(self, b3plus_completed):
        p31, _ = b3plus_completed
        p = p31.base
        rules = [(r.lhs, r.rhs) for r in p.rules]
        import itertools

        for n in range(9):
            for w in itertools.product(range(3), repeat=n):
                nfs = oracles.all_normal_forms(w, rules)
                assert len(nfs) == 1
