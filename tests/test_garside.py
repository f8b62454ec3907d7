import dataclasses
import hashlib
import itertools
import json
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polycox as px
from polycox import garside, serialize, tietze
from polycox.garside import Classification
from polycox.paths import Path2, Step2, paths_equal
from conftest import E8, MATRICES

import oracles


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
    def test_a3_betas_are_the_non_additive_triples(self, a3_completion):
        # read off alpha, in the order of the brute-force scan over W^3
        gc = a3_completion
        g = gc.gp.group
        expected = [
            (u, v, w)
            for u, v, w in itertools.product(gc.gp.elt_of_gen, repeat=3)
            if g.is_reduced_product(u, v)
            and g.is_reduced_product(v, w)
            and not oracles.additive(g, u, v, w)
        ]
        assert list(gc.beta) == expected
        assert len(expected) == len(gc.p31.base.rules) - len(gc.gp.alpha)

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

    def test_h_i_only_from_equal_sources(self, a3_completion):
        gc = a3_completion
        branchings = px.critical_branchings(gc.p31.base)
        for tag, br in zip(gc.tags, branchings):
            if tag.letter in ("H", "I"):
                assert br.left.pos == br.right.pos == 0
            else:
                assert br.right.pos == 1

    def test_cells_keep_one_target_word(self, a3_completion):
        cells = a3_completion.p31.cells
        assert all(c.src.target is c.tgt.target for c in cells)
        # a later full replay keeps the shared word
        for c in cells:
            c.src.words(), c.tgt.words()
        assert all(c.src.target is c.tgt.target for c in cells)

    def test_classification_total_and_consistent(self, groups):
        for name in ("A1xA1", "A2", "B2", "A1^3"):
            gc = px.complete_garside(groups(name))
            assert len(gc.tags) == len(gc.p31.cells)
            assert len(gc.p31.cells) == len(px.critical_branchings(gc.p31.base))

    def test_branching_budget_bounds_the_overlap_search(self, groups):
        # A3 has 12 334 critical branchings; the search stops at the 101st
        with pytest.raises(px.DivergenceError, match="budget 100 exceeded: reached 101 "):
            px.complete_garside(groups("A3"), branching_budget=100)
        gc = px.complete_garside(groups("A2"))
        n = len(gc.p31.cells)
        assert len(px.critical_branchings(gc.p31.base, budget=n)) == n

    @pytest.mark.parametrize(
        "case", ["alpha pair at offset 0", "self-overlap", "offset 2", "H swapped"]
    )
    def test_unmatched_branching_raises(self, groups, monkeypatch, case):
        g = groups("A2")
        real = px.critical_branchings
        h = [t.letter for t in px.complete_garside(g).tags].index("H")

        def one_branching(pg, budget=None):
            # rule 0 is the alpha rule s|t
            if case == "alpha pair at offset 0":
                return [px.Branching((0, 1), Step2(0, 1, 0), Step2(0, 1, 0))]
            if case == "self-overlap":
                return [px.Branching((0, 1, 1), Step2(0, 1, 0), Step2(0, 1, 1))]
            if case == "offset 2":
                return [px.Branching((0, 1, 0, 1), Step2(0, 1, 0), Step2(0, 1, 2))]
            # an H branching with its two steps swapped is not re-anchored
            br = real(pg)[h]
            return [px.Branching(br.source, br.right, br.left)]

        monkeypatch.setattr("polycox.garside.critical_branchings", one_branching)
        with pytest.raises(px.ClassificationError):
            px.complete_garside(g)

    def test_convergent_on_short_words(self, groups):
        gc = px.complete_garside(groups("A1xA1"))
        rules = [(r.lhs, r.rhs) for r in gc.p31.base.rules]
        for n in range(7):
            for w in itertools.product(range(3), repeat=n):
                assert len(oracles.all_normal_forms(w, rules)) == 1


class TestGarsideReduction:
    @pytest.mark.parametrize("name", ["A1xA1", "A2", "B2", "A1^3", "A2xA1"])
    def test_part_validates_and_reduces_to_a_cells(self, groups, gar3, name):
        g = groups(name)
        gc = px.complete_garside(g)
        part = px.garside_reduction_part(gc)
        assert px.validate_collapsible(gc.p31, part) == []
        g3 = gar3(name)
        got = set()
        for c in g3.p31.cells:
            rule = g3.p31.base.rules[c.src.steps[0].rule]
            u, v = (g3.elt_of_gen[x] for x in rule.lhs)
            w = g3.elt_of_gen[c.src.source[2]]
            got.add((u, v, w))
        assert got == additive_triples(g, g3.elt_of_gen)
        # only alpha rules survive
        assert all(len(r.lhs) == 2 and len(r.rhs) == 1 for r in g3.p31.base.rules)

    @pytest.mark.parametrize("name", ["A2", "B2", "I5", "A1^3", "A2xA1", "A3"])
    def test_streamed_route_equals_materialized_part(self, garside_parts, gar3, name):
        # garside_coherent streams the part's spheres; reducing along the
        # materialized part gives the same Gar_3(W), field by field
        gc, part = garside_parts(name)
        want = px.homotopical_reduce(gc.p31, part)
        got = gar3(name).p31
        assert got.base == want.base
        assert len(got.cells) == len(want.cells)
        for c, d in zip(got.cells, want.cells):
            assert c.name == d.name
            for p, q in ((c.src, d.src), (c.tgt, d.tgt)):
                assert (p.source, p.steps, p.target) == (q.source, q.steps, q.target)

    def test_validation_keeps_nothing(self, a3_completion):
        # a fresh part, so no earlier check has touched it: validation
        # replays every sphere path, and a checked part is no larger than an
        # unchecked one
        gc = a3_completion
        part = px.garside_reduction_part(gc)
        paths = []
        for sc in part.spheres:
            sp = sc.sphere
            paths += [sp.source, sp.target] + [q for e in sp.lhs + sp.rhs for q in (e.pre, e.post)]
        found = [p._target for p in paths]
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            assert px.validate_collapsible(gc.p31, part) == []
            retained = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert retained < 200_000
        assert all(p._target is t for p, t in zip(paths, found))

    def test_reduction_must_leave_gar2(self, groups, monkeypatch):
        real = tietze.homotopical_reduce

        def drop_last_rule(*args, **kwargs):
            red = real(*args, **kwargs)
            base = px.Polygraph2(red.base.generators, red.base.rules[:-1])
            return px.Polygraph31(base, red.cells)

        monkeypatch.setattr("polycox.garside.homotopical_reduce", drop_last_rule)
        with pytest.raises(px.CoherenceError):
            px.garside_coherent(groups("A2"))

    def test_corrupted_part_rejected(self, groups, monkeypatch):
        # the part is checked only by validation, so a face turned backwards
        # must be caught by validate_collapsible and by garside_coherent,
        # which streams the spheres from garside._garside_spheres
        real = garside._garside_spheres

        def flip_first_face(gc):
            spheres = real(gc)
            sc = next(spheres)
            flipped = dataclasses.replace(sc.sphere.lhs[0], dir=-1)
            sphere = dataclasses.replace(sc.sphere, lhs=(flipped,) + sc.sphere.lhs[1:])
            yield dataclasses.replace(sc, sphere=sphere)
            yield from spheres

        g = groups("A2xA1")
        gc = px.complete_garside(g)
        part = dataclasses.replace(
            px.garside_reduction_part(gc), spheres=tuple(flip_first_face(gc))
        )
        violations = px.validate_collapsible(gc.p31, part)
        assert any("source mismatch" in v for v in violations)
        monkeypatch.setattr("polycox.garside._garside_spheres", flip_first_face)
        with pytest.raises(px.NielsenError, match="source mismatch"):
            px.garside_coherent(g)

    def test_violations_pinned(self, garside_parts):
        # three faults on the A2xA1 part: the first sphere's first face
        # flipped, the second sphere designating the first one's cell, and
        # the last sphere's cell left without a rank; the whole-part check
        # comes first although the spheres are checked last
        gc, part = garside_parts("A2xA1")
        first, second = part.spheres[0], part.spheres[1]
        flipped = dataclasses.replace(first.sphere.lhs[0], dir=-1)
        first = dataclasses.replace(
            first, sphere=dataclasses.replace(first.sphere, lhs=(flipped,) + first.sphere.lhs[1:])
        )
        second = dataclasses.replace(second, redundant=first.redundant)
        last = part.spheres[-1].redundant
        cell_rank = {i: r for i, r in part.order.cell_rank.items() if i != last}
        bad = dataclasses.replace(
            part,
            spheres=(first, second) + part.spheres[2:],
            order=dataclasses.replace(part.order, cell_rank=cell_rank),
        )
        assert px.validate_collapsible(gc.p31, bad) == [
            "spheres: a 3-cell is designated redundant twice",
            "sphere for 'H(r,s,r,s)#0': lhs[0]: source mismatch",
            "sphere for 'H(r,s,r,s)#0': lhs[1]: source mismatch",
            "sphere: 3-cell 'H(r,s,r,s)#0' occurs 0 times, need exactly 1",
            "order: 3-cell 'H(r,s,r,s)#0' not above 'I(r,s,rst,t,rsr)#1'",
            "order: 3-cell 'H(r,s,r,s)#0' not above 'H(r,t,s,rs)#6'",
            "order: 3-cell 'H(r,s,r,s)#0' not above 'H(r,s,t,rs)#3'",
            "3-cell 'G(srt,s,rt,s,rst)#767': no rank for 767",
        ]

    @pytest.mark.parametrize("fault", ["steps do not replay", "starts at another word"])
    def test_boundary_not_parallel(self, garside_parts, fault):
        # a sphere whose target 2-cell is not parallel to its source is
        # reported once, before any face is read
        gc, part = garside_parts("A2xA1")
        sc = part.spheres[0]
        t = sc.sphere.target
        if fault == "steps do not replay":
            target = Path2(t.pg, t.source, (t.steps[0]._replace(pos=len(t.source)),) + t.steps[1:])
        else:
            target = Path2(t.pg, t.source + (0,), t.steps)
        sphere = dataclasses.replace(sc.sphere, target=target)
        assert sphere.check(gc.p31) == ["boundary: source and target are not parallel"]
        bad = dataclasses.replace(
            part, spheres=(dataclasses.replace(sc, sphere=sphere),) + part.spheres[1:]
        )
        name = gc.p31.cells[sc.redundant].name
        assert px.validate_collapsible(gc.p31, bad) == [
            f"sphere for {name!r}: boundary: source and target are not parallel"
        ]


class TestGarsidePart:
    # SHA-256 of json.dumps(serialize.part_to_dict(part, gc.p31)) for the
    # Garside part of S(Gar_2(W)), spheres and order witness included
    PART_DIGESTS = {
        "A2": "6aeb8226317d4f96382fadaa15592fb5371bbf51bae4fa7334b1b2f4b0d422dc",
        "B2": "1958254bb7876939cd49c3f720fe14f7249fce0f1635646543a0baf837767823",
        "I5": "f52c29c267da2e41e7145924a4ba72ad4908d719e37abdd022edc342df41ae40",
        "A1^3": "6f559100b7d496dbfd00f11bc720716eeae69ca1e4c935759ca6cd3de1576c0d",
        "A2xA1": "6cefa75427ddaea44a458bd4920dfaaf0ce8b1364a442a35be6906a2aba7638b",
        "I5xA1": "3e3f05a9538e999d56d3b1b34f88240b8c090be27e114c8495ed27be7941ac62",
        "A3": "f0f13592e52d85cbf0c33c25901f2b219a6e9441dd2a1ce6d1e25cb6418ea28e",
    }

    @pytest.mark.parametrize("name", sorted(PART_DIGESTS))
    def test_part_digest(self, garside_parts, name):
        gc, part = garside_parts(name)
        doc = json.dumps(serialize.part_to_dict(part, gc.p31))
        assert hashlib.sha256(doc.encode()).hexdigest() == self.PART_DIGESTS[name]

    def test_missing_face_raises(self, garside_parts):
        gc, _ = garside_parts("A2xA1")
        tags = list(gc.tags)
        first_a = next(i for i, tag in enumerate(tags) if tag.letter == "A")
        tags[first_a] = px.FamilyTag("A", (0, 0, 0))
        with pytest.raises(
            px.CoherenceError, match=r"^no A-family 3-cell on elements \(1, 2, 1\)$"
        ):
            px.garside_reduction_part(dataclasses.replace(gc, tags=tags))

    @pytest.mark.parametrize("face, family", [("C", "G"), ("E", "F"), ("H", "I")])
    def test_missing_face_of_each_family_raises(self, garside_parts, face, family):
        # a G sphere has a C-family face, an F sphere an E one and an I
        # sphere an H one; relabeling that face's tag out of its family
        # leaves the face table without it
        gc, part = garside_parts("A2xA1")
        tags = list(gc.tags)
        sc = next(sc for sc in part.spheres if tags[sc.redundant].letter == family)
        cell = next(
            e.cell
            for e in sc.sphere.lhs + sc.sphere.rhs
            if tags[e.cell].letter.translate(garside._FACE_LETTER) == face
        )
        elts = tags[cell].indices
        tags[cell] = px.FamilyTag("A", elts)
        with pytest.raises(
            px.CoherenceError,
            match=rf"^no {face}-family 3-cell on elements {re.escape(str(elts))}$",
        ):
            px.garside_reduction_part(dataclasses.replace(gc, tags=tags))

    @pytest.mark.parametrize("name", ["A2", "B2", "I5", "A1^3", "A2xA1", "I5xA1", "A3"])
    def test_spheres_match_reference_generator(self, garside_parts, name):
        # the table-driven generator builds the spheres of the generator that
        # made every step, word and face through a key built per use
        gc, part = garside_parts(name)
        want = list(oracles.reference_garside_spheres(gc))
        assert len(part.spheres) == len(want)

        def path(p):
            return p.source, p.steps

        for got, ref in zip(part.spheres, want):
            assert got.redundant == ref.redundant
            sp, rp = got.sphere, ref.sphere
            assert (path(sp.source), path(sp.target)) == (path(rp.source), path(rp.target))
            assert (len(sp.lhs), len(sp.rhs)) == (len(rp.lhs), len(rp.rhs))
            for e, f in zip(sp.lhs + sp.rhs, rp.lhs + rp.rhs):
                assert (e.cell, e.dir, e.left, e.right) == (f.cell, f.dir, f.left, f.right)
                assert (path(e.pre), path(e.post)) == (path(f.pre), path(f.post))

    def test_one_object_per_value(self, groups):
        # equal steps are one Step2, equal identity paths one Path2 and the
        # entries' equal pre and post step sequences one tuple (a sphere's
        # source and target steps rarely repeat and are built per sphere); a
        # path with steps belongs to one entry
        gc = px.complete_garside(groups("A2xA1"))
        part = px.garside_reduction_part(gc)

        def shared(objs):
            return len({id(o) for o in objs}) == len(set(objs))

        cell_paths = [p for c in gc.p31.cells for p in (c.src, c.tgt)]
        assert shared([s for p in cell_paths for s in p.steps])
        part_paths, entry_paths = [], []
        for sc in part.spheres:
            sp = sc.sphere
            pre_post = [q for e in sp.lhs + sp.rhs for q in (e.pre, e.post)]
            paths = [sp.source, sp.target] + pre_post
            # no sphere uses a path with steps twice
            stepped = [p for p in paths if p.steps]
            assert len(set(stepped)) == len(stepped)
            part_paths += paths
            entry_paths += pre_post
        assert shared([s for p in part_paths for s in p.steps])
        assert shared([p.steps for p in entry_paths])
        assert shared([p.source for p in part_paths])
        identities = [p for p in part_paths if not p.steps]
        assert shared(identities)
        # A2xA1 repeats identities and pre and post step sequences, so the
        # checks above are not vacuous
        assert len({id(p) for p in identities}) < len(identities)
        stepped = [p for p in entry_paths if p.steps]
        assert len({id(p.steps) for p in stepped}) < len(stepped)

    def test_each_part_path_rendered_once(self, garside_parts):
        gc, part = garside_parts("A2xA1")
        uses = []
        for sc in part.spheres:
            sp = sc.sphere
            uses += [sp.source, sp.target]
            uses += [q for e in sp.lhs + sp.rhs for q in (e.pre, e.post)]
        # rendering every use on its own gives the same document
        per_use = dict(serialize.part_to_dict(part, gc.p31))
        per_use["spheres"] = [
            {**serialize.sphere_to_dict(sc.sphere, gc.p31), "redundant": d["redundant"]}
            for sc, d in zip(part.spheres, per_use["spheres"])
        ]
        doc = serialize.part_to_dict(part, gc.p31)
        assert json.dumps(doc) == json.dumps(per_use)
        # one path dict per distinct path, shared by every use
        rendered = []
        for d in doc["spheres"]:
            rendered += [d["source"], d["target"]]
            rendered += [q for e in d["lhs"] + d["rhs"] for q in (e["pre"], e["post"])]
        assert len(rendered) == len(uses)
        assert len({id(d) for d in rendered}) == len(set(uses)) < len(uses)

    def test_sphere_check_builds_no_whiskered_path(self, groups, monkeypatch):
        gc = px.complete_garside(groups("A2xA1"))
        part = px.garside_reduction_part(gc)

        def refuse(*args):
            raise AssertionError("Sphere3.check whiskered a path")

        # completion imports no whisker; every module that binds one refuses
        for name in ("polycox.whisker", "polycox.paths.whisker", "polycox.garside.whisker"):
            monkeypatch.setattr(name, refuse)
        assert px.validate_collapsible(gc.p31, part) == []

    def test_each_replacement_solved_once(self, groups, monkeypatch):
        calls = []
        real = tietze._solve_replacement

        def counted(pg, name, src, tgt, rho):
            calls.append((name, rho))
            return real(pg, name, src, tgt, rho)

        monkeypatch.setattr(tietze, "_solve_replacement", counted)
        g = groups("A2xA1")
        gc = px.complete_garside(g)
        n_b = sum(tag.letter == "B" for tag in gc.tags)
        px.garside_coherent(g)
        assert len(calls) == len(set(calls)) == n_b
        calls.clear()
        part = px.garside_reduction_part(gc)
        px.homotopical_reduce(gc.p31, part, validate=False)
        assert len(calls) == n_b


class TestGar4Spheres:
    def test_rank_one_none(self, gar3):
        g3 = gar3("A1")
        assert px.gar4_spheres(g3) == []

    def test_a1cubed_and_a2_derived_counts(self, groups, gar3):
        # oracle: enumerate fully length-additive quadruples directly
        for name in ("A1^3", "A2", "B2"):
            g = groups(name)
            g3 = gar3(name)
            nontrivial = [e for e in range(g.size) if e]
            quads = [
                q
                for q in itertools.product(nontrivial, repeat=4)
                if all(
                    g.is_reduced_product(q[i], q[i + 1]) for i in range(3)
                )
                and oracles.additive(g, *q)
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

    def test_empty_tuple_raises(self, groups):
        with pytest.raises(px.PreconditionError):
            px.classify_tuple(groups("A2"), ())
        s = groups("A2").generator(0)
        with pytest.raises(px.PreconditionError, match="^tuple is not length-additive$"):
            px.classify_tuple(groups("A2"), (s, s))

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

    def test_empty_tuple_raises(self, groups):
        with pytest.raises(px.PreconditionError):
            px.phi_key(groups("A2"), ())

    def test_keys_decrease_for_artin_part(self, gar3):
        # targets of the collapsible cells rank strictly above the cells
        # appearing in their sources, for A2 and A1^3
        for name in ("A2", "A1^3"):
            g3 = gar3(name)
            part = px.artin_reduction_part(g3)
            assert px.validate_collapsible(g3.p31, part) == []


class TestProjection:
    def _projection(self, groups, name):
        g = groups(name)
        return g, px.ArtinProjection(g)

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

    @pytest.mark.parametrize("name", ["A3", "B3", "I5xA1", "H3"])
    def test_matches_recursive_reference(self, groups, name):
        # every alpha pair, step for step against GGM's recursive cases
        g = groups(name)
        proj = px.ArtinProjection(g)
        pi = oracles.recursive_projection(g, proj.art, list(range(g.rank)), proj.gamma)
        pairs = [
            (u, v) for u in range(1, g.size) for v in range(1, g.size) if oracles.additive(g, u, v)
        ]
        assert len(pairs) == len(px.garside_presentation(g).alpha)
        for u, v in pairs:
            got, want = proj.alpha_path(u, v), pi(u, v)
            assert (got.source, got.steps, got.target) == (want.source, want.steps, want.target)

    def test_non_additive_pair_raises(self, groups):
        g, proj = self._projection(groups, "A2")
        s = g.generator(0)
        with pytest.raises(px.PreconditionError, match="^pair is not length-additive$"):
            proj.alpha_path(s, s)

    def test_missing_table_entry_raises(self, groups):
        g, proj = self._projection(groups, "A2")
        s, t = g.generator(0), g.generator(1)
        del proj._table[(1, s)]  # pi(t|s), a factor of pi(st|s)
        with pytest.raises(px.CoherenceError):
            proj.alpha_path(g.mult(s, t), s)

    @pytest.mark.parametrize("name", ["A2", "A3", "B3", "H3", "I5xA1"])
    def test_projects_onto_its_groups_artin_presentation(self, groups, name):
        g = groups(name)
        proj = px.ArtinProjection(g)
        art, gamma = px.artin_presentation(g.matrix)
        assert (proj.art.generators, proj.art.rules) == (art.generators, art.rules)
        assert proj.gamma == gamma

    def test_words_are_reduced_expressions(self, groups):
        for name in ("A3", "B3", "H3"):
            g = groups(name)
            for e in range(1, g.size):
                w = g.word[e]
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


def _cells_as_oracle(mat):
    got = [(c.name, c.src, c.tgt) for c in px.artin_coherent(mat).cells]
    want = oracles.unshared_z_cells(mat)
    assert [n for n, _, _ in got] == [n for n, _, _ in want]
    for (name, *sides), (_, *oracle_sides) in zip(got, want):
        for p, q in zip(sides, oracle_sides):
            assert (p.source, p.steps, p.target) == (q.source, q.steps, q.target), name


@st.composite
def _coxeter_matrices(draw):
    n = draw(st.integers(4, 6))
    m = [[1] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        m[i][j] = m[j][i] = draw(st.sampled_from([0, 2, 3, 4, 5, 6]))
    return px.CoxeterMatrix(tuple("abcdef"[:n]), tuple(map(tuple, m)))


class TestZCellsByType:
    # one Z-cell per parabolic type, relabeled into place, must equal the
    # cell computed inside each parabolic with its ambient letters and rules
    @pytest.mark.parametrize("name", ["A4", "B4", "F4", "E8"])
    def test_equal_to_unshared_cells(self, name):
        _cells_as_oracle(E8 if name == "E8" else MATRICES[name])

    def test_one_group_and_projection_per_type(self, monkeypatch):
        # the Z-cell templates are cached per process: a cold E8 call makes
        # one group and one projection per finite type, a warm one none, and
        # so does E8 under other generator names
        garside._z_template.cache_clear()
        calls = []
        for name in ("enumerate_group", "ArtinProjection"):
            real = getattr(garside, name)
            monkeypatch.setattr(
                garside, name, lambda *a, real=real, name=name, **k: calls.append(name) or real(*a, **k)
            )
        m = E8.m
        types = {(m[i][j], m[i][k], m[j][k]) for i, j, k in itertools.combinations(range(8), 3)}
        finite = [t for t in types if px.rank3_finite(*t)]
        assert len(px.artin_coherent(E8).cells) == 56
        assert sorted(calls) == ["ArtinProjection"] * len(finite) + ["enumerate_group"] * len(finite)
        calls.clear()
        assert len(px.artin_coherent(E8).cells) == 56
        assert calls == []
        renamed = px.CoxeterMatrix(tuple("ABCDEFGH"), E8.m)
        assert px.artin_coherent(renamed).cells[0].name == "Z(A,B,C)"
        assert calls == []

    @given(_coxeter_matrices())
    @settings(max_examples=150, deadline=None)
    def test_random_matrices(self, mat):
        _cells_as_oracle(mat)


class TestZTemplateCache:
    # the per-process cache behind artin_coherent: bounded, keyed by the
    # coset cap as well as the type, and invisible in every output

    @staticmethod
    def _doc(mat):
        return serialize.polygraph31_to_dict(px.artin_coherent(mat))

    def test_bounded_and_evicted_type_recomputed(self):
        # I2(p) x A1 with the p at each of the three places: 130 types
        garside._z_template.cache_clear()
        keys = [(2, 2, 2)] + [k for p in range(3, 46) for k in ((p, 2, 2), (2, p, 2), (2, 2, p))]
        mats = [px.CoxeterMatrix(tuple("rst"), ((1, a, b), (a, 1, c), (b, c, 1))) for a, b, c in keys]
        assert len(set(keys)) == len(keys) > 128
        first = self._doc(mats[0])
        for mat in mats[1:]:
            self._doc(mat)
        info = garside._z_template.cache_info()
        assert info.currsize <= 128
        assert info.misses == len(keys)
        # the first type was evicted: computed again, to the same cell
        assert self._doc(mats[0]) == first
        assert garside._z_template.cache_info().misses == len(keys) + 1

    def test_warm_cache_keeps_the_coset_cap(self):
        h3 = MATRICES["H3"]
        assert len(px.artin_coherent(h3).cells) == 1
        with pytest.raises(px.InfiniteOrUnknown) as exc:
            px.artin_coherent(h3, coset_cap=60)
        assert str(exc.value) == "coset enumeration did not close within 60 cosets"
        assert len(px.artin_coherent(h3).cells) == 1

    def test_cold_equals_warm(self):
        mats = [mat for mat in MATRICES.values() if mat.rank == 3] + [E8]
        cold = []
        for mat in mats:
            garside._z_template.cache_clear()
            cold.append(self._doc(mat))
        for mat in mats:
            self._doc(mat)
        misses = garside._z_template.cache_info().misses
        assert [self._doc(mat) for mat in mats] == cold
        assert garside._z_template.cache_info().misses == misses


class TestArtinViaReduction:
    # SHA-256 of the serialized Artin reduction part, spheres included
    PART_DIGESTS = {
        "A1^3": "a9f2dd5c86c0ae62bf22b7e4fcf82313aee95a6c225c0ff4cb552cc07844d215",
        "A3": "51083000998e8c10c61e21c5abb08a3ced3125dd6030271b91cd091f8fc440d8",
    }

    @pytest.mark.parametrize("name", ["A1^3", "A3"])
    def test_direct_vs_reduction_cross_check(self, gar3, name):
        # the generic homotopical reduction of Gar_3 must produce the same
        # Z-cell as the direct projection
        g3 = gar3(name)
        part = px.artin_reduction_part(g3)
        doc = json.dumps(serialize.part_to_dict(part, g3.p31))
        assert hashlib.sha256(doc.encode()).hexdigest() == self.PART_DIGESTS[name]
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

    def test_a2_and_b2_reduce_to_artin(self, gar3):
        for name, relation in (("A2", ("tst", "sts")), ("B2", ("tsts", "stst"))):
            g3 = gar3(name)
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
