import dataclasses
import gc
import hashlib
import itertools
import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import polycox as px
from polycox import completion
from polycox import serialize as ser
from polycox.completion import _fill_parallel, _overlaps
from polycox.paths import Path2, Step2

import oracles
from conftest import MATRICES, coxeter, coxeter_monoid


def _digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


@pytest.fixture(scope="module")
def d4_completed():
    """The shortlex Coxeter monoid of D4, completed (7 rules adjoined)."""
    p = ser.polygraph2_from_dict(coxeter_monoid("D4"))
    return px.homotopical_complete(p, px.Deglex((0, 1, 2, 3)))


@pytest.fixture(scope="module")
def d4_spheres(d4_completed):
    """The generating triple confluences of all 497 D4 triples."""
    p31 = d4_completed
    lookup, memo = px.cells_by_branching(p31), {}
    return [
        px.generating_triple_confluence(p31, t, lookup=lookup, memo=memo)
        for t in px.triple_critical_branchings(p31.base)
    ]


class TestShortlexCompletionDigests:
    # SHA-256 of the serialized homotopical completion of W as a monoid
    # (rules and 3-cells), with lhs of up to 46 letters for H4 and 15 for E6
    DIGESTS = {
        "H4": (32, 537, "cd45ed0bcf3ef8d77f99c971d814bed9d032faa935418e323a0bb5ce3331e00c"),
        "E6": (50, 623, "3735a4192cee7e2a0009df3052f891323be450297cb817ff04ba127138c38416"),
    }

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_digest(self, name):
        n_rules, n_cells, digest = self.DIGESTS[name]
        p = ser.polygraph2_from_dict(coxeter_monoid(name))
        p31 = px.homotopical_complete(p, px.Deglex(tuple(range(p.n_generators))))
        assert (len(p31.base.rules), len(p31.cells)) == (n_rules, n_cells)
        assert _digest(ser.polygraph31_to_dict(p31)) == digest


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
        # both rules decrease, but the overlap abc rewrites to cc and aa,
        # whose equal profiles leave them incomparable
        order = px.GarsideWreath((1, 1, 1))
        with pytest.raises(px.OrientationError):
            px.homotopical_complete(p, order)

    @pytest.mark.parametrize("name", ["B3+", "H4"])
    def test_overlaps_searched_once(self, b3plus, monkeypatch, name):
        # the Squier pass reads the branchings Knuth-Bendix examined, so only
        # the input's overlaps are searched, once
        calls = []
        search = completion.critical_branchings

        def counted(*args, **kwargs):
            calls.append(args)
            return search(*args, **kwargs)

        monkeypatch.setattr(completion, "critical_branchings", counted)
        if name == "B3+":
            p, order = b3plus
        else:
            p = ser.polygraph2_from_dict(coxeter_monoid("H4"))
            order = px.Deglex(tuple(range(p.n_generators)))
        px.homotopical_complete(p, order)
        assert len(calls) == 1

    def test_every_branching_has_a_cell(self, b3plus_completed):
        p31, _ = b3plus_completed
        assert len(p31.cells) == len(px.critical_branchings(p31.base))

    def test_boundaries_end_at_normal_forms(self, b3plus_completed):
        p31, _ = b3plus_completed
        for c in p31.cells:
            assert c.src.target == c.tgt.target
            assert px.find_redexes(c.src.target, p31.base) == []


class TestSquierCellsFromScratch:
    """Phase two reuses the paths Knuth-Bendix found after its last adjoined
    rule; every cell must still equal the one built from scratch against
    the final rules by the naive leftmost reduction."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_cells_match_naive_squier_pass(self, data):
        n = data.draw(st.integers(2, 3))
        order = px.Deglex(tuple(range(n)))
        word = st.lists(st.integers(0, n - 1), max_size=4).map(tuple)
        rules = []
        for k in range(data.draw(st.integers(1, 3))):
            u = data.draw(word)
            v = data.draw(word.filter(lambda v: v != u))
            big, small = (u, v) if order.compare(u, v) is px.Ordering.GREATER else (v, u)
            rules.append(px.Rule(f"r{k}", big, small))
        p = px.Polygraph2("abc"[:n], rules)
        try:
            p31 = px.homotopical_complete(
                p, order, rule_budget=15, branching_budget=400, step_budget=2_000
            )
        except px.BudgetError:
            assume(False)
        steps = lambda path: tuple((s.rule, s.pos) for s in path.steps)  # noqa: E731
        assert all(s.dir == 1 for c in p31.cells for s in c.src.steps + c.tgt.steps)
        got = [(c.src.source, steps(c.src), steps(c.tgt)) for c in p31.cells]
        expect = oracles.squier_sides([(r.lhs, r.rhs) for r in p31.base.rules])
        assert len(got) == len(expect) and set(got) == expect


class TestFillParallel:
    def test_long_shared_head_does_not_recurse(self):
        # a^3000 -> b^3000 one letter at a time, the last two steps swapped:
        # one Peiffer face after 2 998 shared steps, so no entry at all
        pg = px.Polygraph2(["a", "b"], [px.Rule("r", (0,), (1,))])
        n = 3000
        head = tuple(Step2(0, 1, i) for i in range(n - 2))
        pA = Path2(pg, (0,) * n, head + (Step2(0, 1, n - 2), Step2(0, 1, n - 1)))
        pB = Path2(pg, (0,) * n, head + (Step2(0, 1, n - 1), Step2(0, 1, n - 2)))
        assert _fill_parallel(px.Polygraph31(pg), pA, pB, {}, {}) == []

    def test_coherence_errors(self):
        # aa -> b: each malformed fill raises as the earlier filler did
        pg = px.Polygraph2(["a", "b"], [px.Rule("r", (0, 0), (1,))])
        at = lambda *steps: Path2(pg, (0, 0, 0), [Step2(0, 1, i) for i in steps])  # noqa: E731
        stray = px.ThreeCell("c", at(1), at(1))
        key = ((0, 0, 0), (0, 0), (0, 1))
        cases = [
            ("sides of unequal reach", [], at(0), at(), {}),
            ("no generating 3-cell for the branching at aaa", [], at(0), at(1), {}),
            ("does not start with the branching step", [stray], at(0), at(1), {key: 0}),
        ]
        for message, cells, pA, pB, lookup in cases:
            p31 = px.Polygraph31(pg, cells)
            for fill in (_fill_parallel, oracles.reference_fill_parallel):
                with pytest.raises(px.CoherenceError, match=message):
                    fill(p31, pA, pB, lookup, {})

    def test_spheres_leave_no_cycle(self, d4_completed):
        # the filler's state is freed by reference counting alone
        triples = px.triple_critical_branchings(d4_completed.base)
        gc.collect()
        gc.disable()
        try:
            spheres = [px.generating_triple_confluence(d4_completed, t) for t in triples]
            assert len(spheres) == 497
            del spheres
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestOverlaps:
    lhs = st.lists(st.integers(0, 2), min_size=1, max_size=7).map(tuple)

    @given(lhs, lhs, st.sampled_from([(0, 0), (0, 1), (1, 0), (1, 1)]))
    @settings(max_examples=300, deadline=None)
    def test_matches_slice_oracle(self, la, lb, ab):
        # the first-letter test skips only offsets no slice test accepts
        a, b = ab
        rules = [px.Rule("x", la, ()), px.Rule("y", lb, ())]
        got = [(br.source, br.left, br.right) for br in _overlaps(rules, a, b)]
        assert got == oracles.naive_overlaps(rules[a].lhs, rules[b].lhs, a, b)


def _sphere_fields(sp):
    """Every field of a sphere, its paths' carried targets included."""

    def path(p):
        assert all(type(s) is Step2 for s in p.steps)
        return p.source, p.steps, p.target

    def entry(e):
        return e.cell, e.dir, e.left, e.right, path(e.pre), path(e.post)

    return path(sp.source), path(sp.target), [entry(e) for e in sp.lhs], [entry(e) for e in sp.rhs]


class TestReferenceFiller:
    """The filler's spheres and memo equal those of its earlier form,
    ``oracles.reference_fill_parallel`` over ``reference_normalize``."""

    @staticmethod
    def check(p31, triples, spheres, memo):
        lookup, ref_memo = px.cells_by_branching(p31), {}
        ac = oracles.reference_automaton(p31.base.rules)
        assert len(triples) == len(spheres) > 0
        for (source, steps), sp in zip(triples, spheres):
            ref = oracles.reference_triple_confluence(p31, steps, source, lookup, ref_memo, ac)
            assert _sphere_fields(sp) == _sphere_fields(ref)
        if memo is not None:
            assert memo == ref_memo and list(memo) == list(ref_memo)

    @pytest.mark.parametrize("name", ["A3", "D4"])
    def test_shortlex_triples(self, name):
        p = ser.polygraph2_from_dict(coxeter_monoid(name))
        p31 = px.homotopical_complete(p, px.Deglex(tuple(range(p.n_generators))))
        lookup, memo = px.cells_by_branching(p31), {}
        triples = px.triple_critical_branchings(p31.base)
        spheres = [
            px.generating_triple_confluence(p31, t, lookup=lookup, memo=memo) for t in triples
        ]
        assert len(spheres) == {"A3": 49, "D4": 497}[name]
        self.check(p31, [(t.source, t.steps) for t in triples], spheres, memo)

    @pytest.mark.parametrize("name", ["A3", "B3"])
    def test_gar4_spheres(self, groups, gar3, name):
        # A3's Gar_3 by the certified route; B3's route takes about half a
        # minute, so its Gar_3 is built directly
        g3 = gar3(name) if name == "A3" else oracles.direct_gar3(groups(name))
        spheres = px.gar4_spheres(g3)
        assert len(spheres) == {"A3": 184, "B3": 2462}[name]
        triples = []
        for sp in spheres:
            quad = [g3.elt_of_gen[x] for x in sp.source.source]
            steps = tuple(Step2(g3.alpha[(quad[i], quad[i + 1])], 1, i) for i in range(3))
            triples.append((sp.source.source, steps))
        self.check(g3.p31, triples, spheres, None)


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

    def test_diverging_sides_raise(self):
        # aa -> b and aa -> c: the sides of the first triple, at aaa, end at
        # distinct normal forms, so no sphere fills it
        rules = [px.Rule("b", (0, 0), (1,)), px.Rule("c", (0, 0), (2,))]
        p = px.Polygraph2(["a", "b", "c"], rules)
        first = px.triple_critical_branchings(p)[0]
        with pytest.raises(px.CoherenceError, match="^triple branching does not converge$"):
            px.generating_triple_confluence(px.Polygraph31(p), first)


class TestCellsByBranching:
    def test_cell_with_an_identity_side_is_skipped(self):
        # "loop" is p then its reverse against the identity of ab
        pg = px.Polygraph2(["a", "b"], [px.Rule("p", (0, 1), (1, 0))])
        p = Path2(pg, (0, 1), [Step2(0, 1, 0)])
        loop = Path2(pg, (0, 1), [Step2(0, 1, 0), Step2(0, -1, 0)])
        p31 = px.Polygraph31(
            pg, [px.ThreeCell("loop", loop, px.identity_path(pg, (0, 1))), px.ThreeCell("c", p, p)]
        )
        assert px.cells_by_branching(p31) == {((0, 1), (0, 0), (0, 0)): 1}


class TestTripleSearch:
    """The bucketed triple search against the cubic scan in oracles.py, and
    its output pinned on the Garside completions too large for the scan."""

    @staticmethod
    def _polygraph(case, request):
        if case == "b3+":
            return request.getfixturevalue("b3plus_completed")[0].base
        if case == "self-overlap":
            return px.Polygraph2(["a", "b"], [px.Rule("sq", (0, 0), (1,))])
        if case == "D4":
            return request.getfixturevalue("d4_completed").base
        group = request.getfixturevalue("groups")(case)
        return px.complete_garside(group).p31.base

    @pytest.mark.parametrize("case", ["b3+", "self-overlap", "D4", "A2", "B2"])
    def test_matches_cubic_oracle(self, case, request):
        p = self._polygraph(case, request)
        got = [(t.source, t.steps) for t in px.triple_critical_branchings(p)]
        assert got == oracles.cubic_triple_branchings([r.lhs for r in p.rules])
        assert got

    # count and SHA-256 of [[source, steps], ...], pinned from the cubic scan
    DIGESTS = {
        "A2xA1": (
            MATRICES["A2xA1"],
            5376,
            "9583b60ba7973881f4ea34eb1de42ee42afe2a97067e89596139c8ab0ddcfe2b",
        ),
        "B2xA1": (
            coxeter("rst", [[1, 4, 2], [4, 1, 2], [2, 2, 1]]),
            28596,
            "70eb37a5fc46867cf5e21991d2278e8f37a91e385a9ac3df59aa879e7594b291",
        ),
    }

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_garside_digest(self, name):
        mat, count, digest = self.DIGESTS[name]
        base = px.complete_garside(px.enumerate_group(mat)).p31.base
        triples = px.triple_critical_branchings(base)
        assert len(triples) == count
        assert _digest([[t.source, t.steps] for t in triples]) == digest

    def test_a3_count(self, a3_completion):
        base = a3_completion.p31.base
        assert len(px.triple_critical_branchings(base)) == 246_301


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

    def test_d4_spheres_digest(self, d4_completed, d4_spheres):
        # pinned SHA-256 of the serialized spheres of all 497 triples
        p31, spheres = d4_completed, d4_spheres
        assert len(spheres) == 497
        assert all(sp.check(p31) == [] for sp in spheres)
        assert _digest([ser.sphere_to_dict(sp, p31) for sp in spheres]) == (
            "58b2056037850b080dcc40d9435591e02986fe51053de3352b11849a9042f8aa"
        )

    def test_pre_reordered_by_one_exchange(self, d4_completed, d4_spheres):
        # faces that differ as step tuples but agree up to exchange still
        # meet: swap two disjoint steps of one entry's pre, the right-acting
        # one moving first with its offset re-derived
        p31 = d4_completed
        lengths = p31.base.rule_lengths
        for sp, label in itertools.product(d4_spheres, ("lhs", "rhs")):
            entries = list(getattr(sp, label))
            for k, e in enumerate(entries):
                steps = e.pre.steps
                for i in range(len(steps) - 1):
                    (r1, d1, p1), (r2, d2, p2) = steps[i], steps[i + 1]
                    n_in, n_out = lengths[r1][:: d1]
                    if p2 >= p1 + n_out:
                        break
                else:
                    continue
                swapped = Step2(r2, d2, p2 - n_out + n_in), steps[i]
                pre = Path2(p31.base, e.pre.source, steps[:i] + swapped + steps[i + 2 :])
                entries[k] = dataclasses.replace(e, pre=pre)
                sphere = dataclasses.replace(sp, **{label: tuple(entries)})
                assert sphere.check(p31) == []
                return
        raise AssertionError("no entry's pre has two disjoint adjacent steps")

    def test_sphere_boundaries_paths_equal(self, b3plus_completed):
        p31, _ = b3plus_completed
        for src in ("sasta", "sasast", "sasasas", "sasasaa"):
            sphere = self._sphere(p31, src)
            assert px.paths_equal(sphere.source, sphere.source)
            assert sphere.check(p31) == []


@pytest.fixture(scope="module")
def one_sphere_parts(d4_completed, d4_spheres):
    """(p31, part) pairs whose part holds one real sphere and validates to
    []: every sphere of the A2xA1 Garside part, and each D4 filler sphere
    with a cell that occurs once in it, ranked above all other cells."""
    gc = px.complete_garside(px.enumerate_group(MATRICES["A2xA1"]))
    garside = px.garside_reduction_part(gc)
    out = [
        (gc.p31, px.CollapsiblePart(spheres=(sc,), order=garside.order))
        for sc in garside.spheres
    ]
    for sp in d4_spheres:
        cells = [e.cell for e in sp.lhs + sp.rhs]
        once = [c for c in cells if cells.count(c) == 1]
        if once:
            rank = dict.fromkeys(range(len(d4_completed.cells)), 0)
            rank[once[0]] = 1
            order = px.OrderWitness({}, {}, rank)
            out.append(
                (
                    d4_completed,
                    px.CollapsiblePart(
                        spheres=(px.SphereCollapse(sp, once[0]),), order=order
                    ),
                )
            )
    # the corruptions below are meaningful only on parts that validate
    assert len(out) > 100
    assert all(px.validate_collapsible(p31, part) == [] for p31, part in out)
    return out


def _corrupt(p31, entry, kind, data):
    replace = dataclasses.replace
    if kind == "swap":
        return replace(entry, pre=entry.post, post=entry.pre)
    if kind == "grow":
        side = data.draw(st.sampled_from(["left", "right"]))
        g = data.draw(st.integers(0, p31.base.n_generators - 1))
        return replace(entry, **{side: getattr(entry, side) + (g,)})
    if kind == "post":
        post = entry.post
        k = data.draw(st.integers(0, len(post.steps) - 1))
        s = post.steps[k]
        at = data.draw(st.integers(0, len(post.words()[k])).filter(lambda i: i != s.pos))
        steps = post.steps[:k] + (s._replace(pos=at),) + post.steps[k + 1 :]
        return replace(entry, post=Path2(p31.base, post.source, steps))
    if kind == "cell":
        cell = data.draw(st.integers(0, len(p31.cells) - 1).filter(lambda c: c != entry.cell))
        return replace(entry, cell=cell)
    return replace(entry, dir=-entry.dir)


class TestMalformedSpheres:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_corrupted_entry_is_reported(self, one_sphere_parts, data):
        # a malformed entry is a violation, never an exception
        kind = data.draw(st.sampled_from(["swap", "grow", "post", "cell", "dir"]))
        p31, part = data.draw(st.sampled_from(one_sphere_parts))
        sphere = part.spheres[0].sphere
        slots = [
            (label, k)
            for label in ("lhs", "rhs")
            for k, e in enumerate(getattr(sphere, label))
            if kind != "post" or e.post.steps
        ]
        assume(slots)
        label, k = data.draw(st.sampled_from(slots))
        entries = list(getattr(sphere, label))
        entries[k] = _corrupt(p31, entries[k], kind, data)
        bad = dataclasses.replace(sphere, **{label: tuple(entries)})
        assert bad.check(p31) != []
        sc = dataclasses.replace(part.spheres[0], sphere=bad)
        assert px.validate_collapsible(p31, dataclasses.replace(part, spheres=(sc,))) != []


def test_value_types_are_slotted():
    # the many small cells, spheres and parts carry no per-instance dict
    for cls in (
        px.Branching,
        px.TripleBranching,
        px.ThreeCell,
        px.SphereEntry,
        px.Sphere3,
        px.TwoCollapse,
        px.ThreeCollapse,
        px.SphereCollapse,
        px.OrderWitness,
        px.CollapsiblePart,
        px.FamilyTag,
    ):
        assert "__slots__" in vars(cls), cls
        assert "__dict__" not in dir(cls), cls


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
