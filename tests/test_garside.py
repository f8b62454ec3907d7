import itertools

import pytest

import polycox as px
from polycox.garside import Classification, _additive
from polycox.paths import Path2, paths_equal
from conftest import MATRICES


def additive_triples(g, elements):
    out = set()
    for u, v, w in itertools.product(elements, repeat=3):
        if (
            g.is_reduced_product(u, v)
            and g.is_reduced_product(v, w)
            and g.length[g.mult(g.mult(u, v), w)]
            == g.length[u] + g.length[v] + g.length[w]
        ):
            out.add((u, v, w))
    return out


class TestGarsidePresentation:
    def test_rank_one(self, groups):
        gp = px.garside_presentation(groups("A1"))
        assert gp.pg.generators == ["s"]
        assert gp.pg.rules == []

    def test_a1xa1(self, groups):
        gp = px.garside_presentation(groups("A1xA1"))
        assert gp.pg.generators == ["r", "s", "rs"]
        assert sorted(r.name for r in gp.pg.rules) == ["a(r|s)", "a(s|r)"]

    def test_a2_rule_count_by_scan(self, groups):
        g = groups("A2")
        gp = px.garside_presentation(g)
        assert gp.pg.n_generators == 5
        nontrivial = [e for e in range(g.size) if e]
        expected = sum(
            1
            for u, v in itertools.product(nontrivial, repeat=2)
            if g.is_reduced_product(u, v)
        )
        assert len(gp.pg.rules) == expected


class TestCompleteGarside:
    def test_a2_a_cells_are_additive_triples(self, groups):
        g = groups("A2")
        gc = px.complete_garside(g)
        a_tags = {t.indices for t in gc.tags if t.letter == "A"}
        assert a_tags == additive_triples(g, gc.gp.elt_of_gen)

    def test_a1xa1_betas_and_families(self, groups):
        gc = px.complete_garside(groups("A1xA1"))
        assert sorted(r.name for r in gc.p31.base.rules) == [
            "a(r|s)",
            "a(s|r)",
            "b(r|s|r)",
            "b(s|r|s)",
        ]
        assert sorted(t.letter for t in gc.tags) == ["B", "B", "D", "D"]

    def test_h_i_only_from_equal_sources(self, groups):
        gc = px.complete_garside(groups("A3"))
        branchings = px.critical_branchings(gc.p31.base)
        for tag, br in zip(gc.tags, branchings):
            if tag.letter in ("H", "I"):
                assert br.left.pos == br.right.pos == 0
            else:
                assert br.right.pos == 1

    def test_classification_total_and_consistent(self, groups):
        for name in ("A1xA1", "A2", "B2", "A1^3"):
            gc = px.complete_garside(groups(name))
            assert len(gc.tags) == len(gc.p31.cells)
            assert len(gc.p31.cells) == len(px.critical_branchings(gc.p31.base))

    def test_convergent_on_short_words(self, groups):
        import oracles

        gc = px.complete_garside(groups("A1xA1"))
        rules = [(r.lhs, r.rhs) for r in gc.p31.base.rules]
        for n in range(7):
            for w in itertools.product(range(3), repeat=n):
                assert len(oracles.all_normal_forms(w, rules)) == 1


class TestGarsideReduction:
    @pytest.mark.parametrize("name", ["A1xA1", "A2", "B2", "A1^3", "A2xA1"])
    def test_part_validates_and_reduces_to_a_cells(self, groups, name):
        g = groups(name)
        gc = px.complete_garside(g)
        part = px.garside_reduction_part(gc)
        assert px.validate_collapsible(gc.p31, part) == []
        g3 = px.garside_coherent(g)
        got = set()
        for c in g3.p31.cells:
            rule = g3.p31.base.rules[c.src.steps[0].rule]
            u, v = (g3.elt_of_gen[x] for x in rule.lhs)
            w = g3.elt_of_gen[c.src.source[2]]
            got.add((u, v, w))
        assert got == additive_triples(g, g3.elt_of_gen)
        # only alpha rules survive
        assert all(len(r.lhs) == 2 and len(r.rhs) == 1 for r in g3.p31.base.rules)


class TestGar4Spheres:
    def test_rank_one_none(self, groups):
        g3 = px.garside_coherent(groups("A1"))
        assert px.gar4_spheres(g3) == []

    def test_a1cubed_and_a2_derived_counts(self, groups):
        # oracle: enumerate fully length-additive quadruples directly
        for name in ("A1^3", "A2", "B2"):
            g = groups(name)
            g3 = px.garside_coherent(g)
            nontrivial = [e for e in range(g.size) if e]
            quads = [
                q
                for q in itertools.product(nontrivial, repeat=4)
                if all(
                    g.is_reduced_product(q[i], q[i + 1]) for i in range(3)
                )
                and _additive(g, *q)
            ]
            spheres = px.gar4_spheres(g3)
            assert len(spheres) == len(quads)
            for sp in spheres:
                assert sp.check(g3.p31) == []


class TestClassifyTuple:
    def test_essential_pair(self, groups):
        g = groups("A2")
        t = g.generator(1)
        u = g.complement(t, g.longest_element((0, 1)))
        assert px.classify_tuple(g, (t, u)) is Classification.ESSENTIAL

    def test_collapsible_pair(self, groups):
        g = groups("A2")
        s = g.generator(0)
        t = g.generator(1)
        # s = smallest divisor of st
        assert px.classify_tuple(g, (s, t)) is Classification.COLLAPSIBLE

    def test_redundant_singleton(self, groups):
        g = groups("A2")
        st = g.mult(g.generator(0), g.generator(1))
        assert px.classify_tuple(g, (st,)) is Classification.REDUNDANT

    def test_partition(self, groups):
        for name in ("A2", "A1^3", "B2"):
            g = groups(name)
            nontrivial = [e for e in range(g.size) if e]
            for u, v in itertools.product(nontrivial, repeat=2):
                if g.is_reduced_product(u, v):
                    px.classify_tuple(g, (u, v))  # must not raise


class TestPhiKey:
    def test_singleton(self, groups):
        g = groups("A2")
        st = g.mult(g.generator(0), g.generator(1))
        assert px.phi_key(g, (st,)) == (2,)

    def test_pair_shape(self, groups):
        g = groups("A2")
        s, t = g.generator(0), g.generator(1)
        key = px.phi_key(g, (s, t))
        assert key == (2, 0, 1)  # total length, d_s, l(s)

    def test_pair_vs_product_share_first_component(self, groups):
        g = groups("A2")
        s, t = g.generator(0), g.generator(1)
        st = g.mult(s, t)
        assert px.phi_key(g, (s, t))[0] == px.phi_key(g, (st,))[0]
        assert px.phi_key(g, (st,)) < px.phi_key(g, (s, t))

    def test_keys_decrease_for_artin_part(self, groups):
        # targets of the collapsible cells rank strictly above the cells
        # appearing in their sources, for A2 and A1^3
        for name in ("A2", "A1^3"):
            g3 = px.garside_coherent(groups(name))
            part = px.artin_reduction_part(g3)
            assert px.validate_collapsible(g3.p31, part) == []


class TestProjection:
    def _projection(self, groups, name):
        g = groups(name)
        art, gamma = px.artin_presentation(MATRICES[name])
        return g, px.ArtinProjection(g, art, list(range(g.rank)), gamma)

    def test_essential_pair_maps_to_braid_rule(self, groups):
        g, proj = self._projection(groups, "A2")
        t = g.generator(1)
        u = g.complement(t, g.longest_element((0, 1)))
        path = proj.alpha_path(t, u)
        assert len(path.steps) == 1
        assert proj.art.rules[path.steps[0].rule].name == "g(s,t)"

    def test_collapsible_pair_maps_to_identity(self, groups):
        g, proj = self._projection(groups, "A2")
        s, t = g.generator(0), g.generator(1)
        assert proj.alpha_path(s, t).steps == ()

    def test_a1cubed_redundant_expansion(self, groups):
        g, proj = self._projection(groups, "A1^3")
        st = g.mult(g.generator(1), g.generator(2))
        r = g.generator(0)
        path = proj.alpha_path(st, r)
        names = [proj.art.rules[s.rule].name for s in path.steps]
        assert names == ["g(r,t)", "g(r,s)"]  # s.g(r,t) then g(r,s).t

    def test_words_are_reduced_expressions(self, groups):
        for name in ("A3", "B3", "H3"):
            g = groups(name)
            art, gamma = px.artin_presentation(MATRICES[name])
            proj = px.ArtinProjection(g, art, list(range(g.rank)), gamma)
            for e in range(1, g.size):
                w = proj.word(e)
                assert len(w) == g.length[e]
                assert g.mult_word(0, w) == e


class TestArtinCoherent:
    def test_a1cubed_permutohedron(self, groups):
        p31 = px.artin_coherent(MATRICES["A1^3"])
        assert px.cell_census(p31) == (1, 3, 3, 1)
        (z,) = p31.cells
        pg = p31.base
        grs, grt, gst = 0, 1, 2
        src = Path2(pg, (2, 1, 0), [(gst, 1, 0), (grt, 1, 1), (grs, 1, 0)])
        tgt = Path2(pg, (2, 1, 0), [(grs, 1, 1), (grt, 1, 0), (gst, 1, 1)])
        assert paths_equal(z.src, src)
        assert paths_equal(z.tgt, tgt)

    def test_boundaries_parallel_over_artin(self, groups):
        for name in ("A3", "B3", "I5xA1"):
            p31 = px.artin_coherent(MATRICES[name])
            for c in p31.cells:
                assert c.src.source == c.tgt.source
                assert c.src.target == c.tgt.target

    def test_census_examples(self):
        assert px.cell_census(px.artin_coherent(MATRICES["A3"])) == (1, 3, 3, 1)
        assert px.cell_census(px.artin_coherent(MATRICES["Atilde2"])) == (1, 3, 3, 0)
        all_infinite = px.CoxeterMatrix(
            ("r", "s", "t"), ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        )
        assert px.cell_census(px.artin_coherent(all_infinite)) == (1, 3, 0, 0)
        rank1 = px.CoxeterMatrix(("s",), ((1,),))
        assert px.cell_census(px.artin_coherent(rank1)) == (1, 1, 0, 0)

    def test_h3_boundary_endpoints(self, groups):
        # for H3 only the two corner words of the reduced-expression loop
        # are pinned, plus the fact that every intermediate word is a
        # reduced expression of the longest element; the individual edge
        # labels (hence step counts) are not
        p31 = px.artin_coherent(MATRICES["H3"])
        (z,) = p31.cells
        pg = p31.base
        letters = {n: i for i, n in enumerate(pg.generators)}
        assert z.src.source == tuple(letters[c] for c in "tstrsrstsrsrtsr")
        assert z.src.target == tuple(letters[c] for c in "rsrsrtsrsrtsrst")
        g = groups("H3")
        w0 = g.longest_element(range(3))
        for w in z.src.words() + z.tgt.words():
            assert len(w) == 15 and g.mult_word(0, w) == w0


class TestArtinViaReduction:
    @pytest.mark.parametrize("name", ["A1^3", "A3"])
    def test_direct_vs_reduction_cross_check(self, groups, name):
        # the generic homotopical reduction of Gar_3 must produce the same
        # Z-cell as the direct projection
        g = groups(name)
        g3 = px.garside_coherent(g)
        part = px.artin_reduction_part(g3)
        assert px.validate_collapsible(g3.p31, part) == []
        red = px.homotopical_reduce(g3.p31, part, validate=False)
        assert px.cell_census(red) == (1, 3, 3, 1)
        direct = px.artin_coherent(MATRICES[name])
        # identify rules of the two presentations by their boundaries
        rule_map = {}
        for i, r in enumerate(red.base.rules):
            names_lhs = tuple(red.base.generators[x] for x in r.lhs)
            for j, d in enumerate(direct.base.rules):
                if names_lhs == tuple(direct.base.generators[x] for x in d.lhs):
                    rule_map[i] = j
        def transport(path):
            return Path2(
                direct.base,
                path.source,
                [(rule_map[s.rule], s.dir, s.pos) for s in path.steps],
            )
        (zr,) = red.cells
        (zd,) = direct.cells
        assert paths_equal(transport(zr.src), zd.src)
        assert paths_equal(transport(zr.tgt), zd.tgt)

    def test_a2_and_b2_reduce_to_artin(self, groups):
        for name, relation in (("A2", ("tst", "sts")), ("B2", ("tsts", "stst"))):
            g3 = px.garside_coherent(groups(name))
            part = px.artin_reduction_part(g3)
            red = px.homotopical_reduce(g3.p31, part, validate=True)
            pg = red.base
            assert pg.generators == ["s", "t"]
            assert [(pg.word_str(r.lhs), pg.word_str(r.rhs)) for r in pg.rules] == [
                relation
            ]
            assert red.cells == []


class TestReorderedDiagram:
    def test_a3_pattern_attached_differently(self, groups):
        # same Coxeter type, but the length-3 edges sit on different pairs
        # relative to the generator order; the construction is uniform
        for rows in (
            [[1, 2, 3], [2, 1, 3], [3, 3, 1]],
            [[1, 3, 3], [3, 1, 2], [3, 2, 1]],
        ):
            mat = px.CoxeterMatrix(("r", "s", "t"), tuple(map(tuple, rows)))
            p31 = px.artin_coherent(mat)
            assert px.cell_census(p31) == (1, 3, 3, 1)
            g = px.enumerate_group(mat)
            w0 = g.longest_element(range(3))
            (z,) = p31.cells
            for w in z.src.words() + z.tgt.words():
                assert len(w) == 6 and g.mult_word(0, w) == w0
