import dataclasses
import re

import pytest

import polycox as px
import polycox.completion as completion
import polycox.serialize as ser
import polycox.tietze as tietze
from polycox.paths import paths_equal

import oracles


def b3plus_part(p31):
    """The collapsible part of the worked braid-monoid reduction: the two
    generating triple confluences kill C and D, the cells A and B kill the
    adjoined rules, and beta kills the extra generator."""
    p = p31.base
    triples = {p.word_str(t.source): t for t in px.triple_critical_branchings(p)}
    w1 = px.generating_triple_confluence(p31, triples["sasta"])
    w2 = px.generating_triple_confluence(p31, triples["sasast"])
    A, B, C, D = (p31.cell_index(n) for n in ("c0", "c1", "c2", "c3"))
    alpha, beta, gamma, delta = 0, 1, 2, 3
    return px.CollapsiblePart(
        two_cells=(px.TwoCollapse(beta),),
        three_cells=(px.ThreeCollapse(A, gamma), px.ThreeCollapse(B, delta)),
        spheres=(px.SphereCollapse(w1, C), px.SphereCollapse(w2, D)),
        order=px.OrderWitness(
            {0: 0, 1: 1, 2: 2},  # a > t > s
            {alpha: 0, beta: 1, gamma: 2, delta: 3},
            {A: 0, B: 1, C: 2, D: 3},
        ),
    )


class TestValidateCollapsible:
    def test_b3plus_part_ok(self, b3plus_completed):
        p31, _ = b3plus_completed
        assert px.validate_collapsible(p31, b3plus_part(p31)) == []

    def test_empty_part_ok(self, b3plus_completed):
        p31, _ = b3plus_completed
        assert px.validate_collapsible(p31, px.CollapsiblePart()) == []

    def test_collapsible_cell_also_redundant_rejected(self, b3plus_completed):
        p31, _ = b3plus_completed
        part = b3plus_part(p31)
        # designate A redundant for the first sphere while A also collapses
        bad = px.CollapsiblePart(
            part.two_cells,
            part.three_cells,
            (px.SphereCollapse(part.spheres[0].sphere, part.three_cells[0].cell),),
            part.order,
        )
        violations = px.validate_collapsible(p31, bad)
        assert any("redundant for a sphere" in v for v in violations)

    # hand-built parts, each breaking one Nielsen condition: rules 0..3 are
    # alpha, beta, kb2 and kb3; beta (st => a) is the one collapsible rule;
    # cell c0 holds kb2 once and kb3 never, c2 holds kb2 twice
    NIELSEN = {
        "generator mismatch": (
            (px.TwoCollapse(1, redundant=0),),
            (),
            "rule 'beta': redundant generator mismatch",
        ),
        "generator twice": (
            (px.TwoCollapse(1), px.TwoCollapse(1)),
            (),
            "generator 'a' eliminated twice",
        ),
        "rule collapsible and redundant": (
            (px.TwoCollapse(1),),
            (px.ThreeCollapse(0, 1),),
            "rule 'beta' is both collapsible and redundant",
        ),
        "cell twice": (
            (),
            (px.ThreeCollapse(0, 2), px.ThreeCollapse(0, 3)),
            "three_cells: a 3-cell collapses twice",
        ),
        "rule twice": (
            (),
            (px.ThreeCollapse(0, 2), px.ThreeCollapse(1, 2)),
            "three_cells: a rule is designated redundant twice",
        ),
        "rule absent": (
            (),
            (px.ThreeCollapse(0, 3),),
            "3-cell 'c0': rule 'kb3' occurs 0 times, need exactly 1",
        ),
        "rule repeated": (
            (),
            (px.ThreeCollapse(2, 2),),
            "3-cell 'c2': rule 'kb2' occurs 2 times, need exactly 1",
        ),
    }

    @pytest.mark.parametrize("case", sorted(NIELSEN))
    def test_nielsen_violation_reported(self, b3plus_completed, case):
        p31, _ = b3plus_completed
        two, three, text = self.NIELSEN[case]
        part = px.CollapsiblePart(two, three, (), b3plus_part(p31).order)
        violations = px.validate_collapsible(p31, part)
        assert text in violations
        with pytest.raises(px.NielsenError, match=re.escape(text)):
            px.homotopical_reduce(p31, part)

    # parts whose index or first sphere entry is out of range, each made
    # from the b3plus part: rule 1 (beta) collapses generator 2 (a), c2 is
    # the first sphere's redundant cell and c1 its first entry's cell
    BAD_INDEX = {
        "rule 10**6": (dict(two_cells=(px.TwoCollapse(10**6),)), "no rule with index 1000000"),
        "rule -1": (dict(two_cells=(px.TwoCollapse(-1),)), "no rule with index -1"),
        "generator True": (
            dict(two_cells=(px.TwoCollapse(1, redundant=True),)),
            "no generator with index True",
        ),
        "3-cell 10**6": (
            dict(three_cells=(px.ThreeCollapse(10**6, 2),)),
            "no 3-cell with index 1000000",
        ),
        "replaced rule -1": (dict(three_cells=(px.ThreeCollapse(0, -1),)), "no rule with index -1"),
        "sphere cell 10**6": (dict(redundant=10**6), "no 3-cell with index 1000000"),
        "sphere cell -1": (dict(redundant=-1), "no 3-cell with index -1"),
        "entry cell 10**6": (dict(cell=10**6), "lhs[0]: cell 1000000 or dir 1 out of range"),
        "entry cell -1": (dict(cell=-1), "lhs[0]: cell -1 or dir 1 out of range"),
        "entry cell 1.0": (dict(cell=1.0), "lhs[0]: cell 1.0 or dir 1 out of range"),
        "entry dir 2": (dict(dir=2), "lhs[0]: cell 1 or dir 2 out of range"),
        "entry dir True": (dict(dir=True), "lhs[0]: cell 1 or dir True out of range"),
    }

    @pytest.mark.parametrize("case", sorted(BAD_INDEX))
    def test_bad_index_reported(self, b3plus_completed, case):
        p31, _ = b3plus_completed
        part = b3plus_part(p31)
        fields, text = self.BAD_INDEX[case]
        first, *rest = part.spheres
        if "redundant" in fields:
            first = dataclasses.replace(first, **fields)
        elif "cell" in fields or "dir" in fields:
            sphere = first.sphere
            entry = dataclasses.replace(sphere.lhs[0], **fields)
            first = dataclasses.replace(
                first, sphere=dataclasses.replace(sphere, lhs=(entry, *sphere.lhs[1:]))
            )
            text = f"sphere for 'c2': {text}"
        else:
            part = dataclasses.replace(part, **fields)
        bad = dataclasses.replace(part, spheres=(first, *rest))
        assert text in px.validate_collapsible(p31, bad)
        if text.startswith("sphere"):
            # unvalidated, the spheres are trusted and their entries never read
            assert ser.polygraph31_to_dict(px.homotopical_reduce(p31, bad, validate=False)) == (
                ser.polygraph31_to_dict(px.homotopical_reduce(p31, part))
            )
        else:
            with pytest.raises(px.NielsenError, match=re.escape(text)):
                px.homotopical_reduce(p31, bad, validate=False)

    def test_bare_replacement_runs_between_the_rule_sides(self, b3plus_completed, groups):
        # every (cell, rule) pair: a replacement that passes the occurrence
        # and window checks starts at lhs(rho) and replays to rhs(rho)
        for p31 in (b3plus_completed[0], px.complete_garside(groups("A2")).p31):
            pg, solved = p31.base, 0
            for cell in p31.cells:
                for rho, rule in enumerate(pg.rules):
                    try:
                        rep = tietze._solve_replacement(pg, cell, rho)
                    except px.NielsenError:
                        continue
                    assert (rep.source, rep.target) == (rule.lhs, rule.rhs)
                    solved += 1
            assert solved

    def test_order_violation_reported(self, b3plus_completed):
        p31, _ = b3plus_completed
        part = b3plus_part(p31)
        upside_down = px.CollapsiblePart(
            part.two_cells,
            part.three_cells,
            part.spheres,
            px.OrderWitness(
                {0: 0, 1: 1, 2: 2}, {0: 3, 1: 2, 2: 1, 3: 0}, {0: 3, 1: 2, 2: 1, 3: 0}
            ),
        )
        assert px.validate_collapsible(p31, upside_down)


class TestHomotopicalReduce:
    def test_error_keeps_each_violation(self):
        exc = px.NielsenError("a", "b")
        assert exc.violations == ("a", "b")
        assert str(exc) == "a; b"
        assert px.NielsenError("x").violations == ("x",)

    def test_b3plus_reduction(self, b3plus_completed):
        p31, _ = b3plus_completed
        red = px.homotopical_reduce(p31, b3plus_part(p31))
        assert red.base.generators == ["s", "t"]
        assert [
            (red.base.word_str(r.lhs), red.base.word_str(r.rhs))
            for r in red.base.rules
        ] == [("tst", "sts")]
        assert red.cells == []

    def test_empty_part_is_identity(self, b3plus_completed):
        p31, _ = b3plus_completed
        red = px.homotopical_reduce(p31, px.CollapsiblePart())
        assert red.base == p31.base
        assert [c.name for c in red.cells] == [c.name for c in p31.cells]

    def test_presented_monoid_preserved(self, b3plus_closure_classes):
        # classes of words of length <= 6, via congruence closure, must be
        # in bijection under s,t -> s,t and a -> st
        classes_in, classes_out = b3plus_closure_classes

        def phi(word):
            image = {0: (0,), 1: (1,), 2: (0, 1)}
            out = ()
            for g in word:
                out += image[g]
            return out

        mapping = {}
        for w, cls in classes_in.items():
            img = classes_out[phi(w)]
            assert mapping.setdefault(cls, img) == img  # well-defined
        assert len(set(mapping)) == len(set(mapping.values()))  # injective

    def test_ungrounded_part_raises(self, b3plus_completed):
        # with its spheres trusted, a part the one pass cannot ground is still
        # refused, with validation's message
        p31, _ = b3plus_completed
        part = b3plus_part(p31)
        order = part.order

        def reranked(**ranks):
            return dataclasses.replace(part, order=dataclasses.replace(order, **ranks))

        alpha_collapses = dataclasses.replace(part, two_cells=(px.TwoCollapse(0),))
        swapped = reranked(rule_rank={**order.rule_rank, 2: 3, 3: 2})  # kb2 above kb3
        no_kb2_rank = reranked(rule_rank={r: k for r, k in order.rule_rank.items() if r != 2})
        no_a_rank = reranked(gen_rank={g: k for g, k in order.gen_rank.items() if g != 2})
        for bad, message in (
            (alpha_collapses, "rule 'alpha' is not collapsible"),
            (swapped, "order: rule 'kb3' not above 'kb2'"),
            (no_kb2_rank, "rule 'kb2': no rank for 2"),
            (no_a_rank, "generator 'a': no rank for 2"),
        ):
            assert message in px.validate_collapsible(p31, bad)
            with pytest.raises(px.NielsenError, match=re.escape(message)):
                px.homotopical_reduce(p31, bad, validate=False)

    def test_unvalidated_reduce_skips_only_the_sphere_checks(self, b3plus_completed, monkeypatch):
        p31, _ = b3plus_completed
        part = b3plus_part(p31)
        check, checked = completion.Sphere3.check, []

        def counted(sphere, p):
            checked.append(sphere)
            return check(sphere, p)

        monkeypatch.setattr(completion.Sphere3, "check", counted)
        validated = px.homotopical_reduce(p31, part)
        assert [id(s) for s in checked] == [id(sc.sphere) for sc in part.spheres]

        def refused(sphere, p):
            raise AssertionError("Sphere3.check ran")

        monkeypatch.setattr(completion.Sphere3, "check", refused)
        trusted = px.homotopical_reduce(p31, part, validate=False)
        assert ser.polygraph31_to_dict(trusted) == ser.polygraph31_to_dict(validated)

    def test_reversed_occurrence_gives_the_same_reduction(self, b3plus_completed):
        # with kb2 inverted, c0 holds it as a reverse step, so its replacement
        # is solved through the reverse branch; the reduction must not change
        p31, _ = b3plus_completed
        c0 = p31.cell_index("c0")
        part = px.CollapsiblePart(
            three_cells=(px.ThreeCollapse(c0, 2),),
            order=px.OrderWitness({}, {r: r for r in range(4)}, {}),
        )
        flipped = oracles.nielsen_invert_rule(p31, 2)
        cell = flipped.cells[c0]
        assert [s.dir for s in cell.src.steps + cell.tgt.steps if s.rule == 2] == [-1]
        assert px.validate_collapsible(p31, part) == []
        assert px.validate_collapsible(flipped, part) == []
        assert ser.polygraph31_to_dict(px.homotopical_reduce(flipped, part)) == (
            ser.polygraph31_to_dict(px.homotopical_reduce(p31, part))
        )


class TestNielsenInvertRule:
    def test_double_inversion_identity(self, b3plus_completed):
        p31, _ = b3plus_completed
        twice = oracles.nielsen_invert_rule(oracles.nielsen_invert_rule(p31, 0), 0)
        assert twice.base == p31.base
        assert [(c.src.steps, c.tgt.steps) for c in twice.cells] == [
            (c.src.steps, c.tgt.steps) for c in p31.cells
        ]

    def test_monoid_preserved(self, b3plus_completed):
        p31, _ = b3plus_completed
        flipped = oracles.nielsen_invert_rule(p31, 0)
        a = oracles.closure_classes(
            [(r.lhs, r.rhs) for r in p31.base.rules], 3, 6, 9
        )
        b = oracles.closure_classes(
            [(r.lhs, r.rhs) for r in flipped.base.rules], 3, 6, 9
        )
        group_a = {}
        for w, c in a.items():
            group_a.setdefault(c, set()).add(w)
        group_b = {}
        for w, c in b.items():
            group_b.setdefault(c, set()).add(w)
        assert sorted(map(sorted, group_a.values())) == sorted(
            map(sorted, group_b.values())
        )

    def test_cells_still_parallel(self, b3plus_completed):
        p31, _ = b3plus_completed
        flipped = oracles.nielsen_invert_rule(p31, 2)
        for c in flipped.cells:
            assert c.src.source == c.tgt.source
            assert c.src.target == c.tgt.target


class TestStandardPresentation:
    def test_trivial_monoid_schema(self):
        p31 = oracles.standard_coherent_presentation([[0]])
        # schema: one generator, a product rule and the unit rule, and the
        # associativity plus two unit 3-cells
        assert p31.base.n_generators == 1
        assert len(p31.base.rules) == 2
        assert len(p31.cells) == 3

    def test_idempotent_monoid_counts(self):
        p31 = oracles.standard_coherent_presentation([[0, 1], [1, 1]], names=["1", "e"])
        assert p31.base.n_generators == 2
        assert len(p31.base.rules) == 5  # 4 products + unit
        assert len(p31.cells) == 8 + 2 + 2

    def test_z2_counts(self):
        p31 = oracles.standard_coherent_presentation([[0, 1], [1, 0]])
        assert p31.base.n_generators == 2
        assert len(p31.base.rules) == 5
        assert len(p31.cells) == 12

    def test_non_associative_rejected(self):
        with pytest.raises(px.InputError):
            oracles.standard_coherent_presentation(
                [[0, 1, 2], [1, 2, 2], [2, 2, 1]]
            )

    def test_no_unit_rejected(self):
        with pytest.raises(px.InputError):
            oracles.standard_coherent_presentation([[1, 1], [1, 1]])


def reduce_standard_to_reduced(p31, names):
    """Eliminate the unit generator, the unit rules, and the degenerate
    associativity cells, as in the reduced standard presentation."""
    pg = p31.base
    n = len(names)
    iota = pg.rule_index("iota")
    mu = {
        (a, b): pg.rule_index(f"mu({names[a]},{names[b]})")
        for a in range(n)
        for b in range(n)
    }
    three = [px.ThreeCollapse(p31.cell_index(f"lunit({names[u]})"), mu[(0, u)]) for u in range(n)]
    three += [
        px.ThreeCollapse(p31.cell_index(f"runit({names[u]})"), mu[(u, 0)])
        for u in range(1, n)
    ]
    rule_rank = {idx: 0 for idx in range(len(pg.rules))}
    for k, tc in enumerate(three):
        rule_rank[tc.redundant] = 10 + k if tc.redundant != mu[(0, 0)] else 100
    rule_rank[iota] = 1
    part = px.CollapsiblePart(
        (px.TwoCollapse(iota),),
        tuple(three),
        (),
        px.OrderWitness({0: 1, **{u: 0 for u in range(1, n)}}, rule_rank, {}),
    )
    mid = px.homotopical_reduce(p31, part)
    degenerate = [i for i, c in enumerate(mid.cells) if paths_equal(c.src, c.tgt)]
    spheres = tuple(
        px.SphereCollapse(
            completion.Sphere3(
                mid.cells[i].src,
                mid.cells[i].tgt,
                (
                    px.SphereEntry(
                        i,
                        1,
                        (),
                        (),
                        px.identity_path(mid.base, mid.cells[i].src.source),
                        px.identity_path(mid.base, mid.cells[i].src.target),
                    ),
                ),
                (),
            ),
            i,
        )
        for i in degenerate
    )
    part2 = px.CollapsiblePart(
        (), (), spheres, px.OrderWitness({}, {}, {i: i for i in range(len(mid.cells))})
    )
    return px.homotopical_reduce(mid, part2)


class TestReducedStandardPresentation:
    def test_idempotent_monoid(self):
        # {1, e | ee = e}: the reduced standard presentation keeps one
        # generator, one rule and one associativity cell
        p31 = oracles.standard_coherent_presentation([[0, 1], [1, 1]], names=["1", "e"])
        red = reduce_standard_to_reduced(p31, ["1", "e"])
        assert red.base.generators == ["e"]
        assert [(red.base.word_str(r.lhs), red.base.word_str(r.rhs)) for r in red.base.rules] == [
            ("ee", "e")
        ]
        assert [c.name for c in red.cells] == ["assoc(e,e,e)"]

    def test_monoid_count_preserved(self):
        p31 = oracles.standard_coherent_presentation([[0, 1], [1, 1]], names=["1", "e"])
        red = reduce_standard_to_reduced(p31, ["1", "e"])
        # the monoid {1, e} has exactly 2 classes at every positive length cap
        classes_in = oracles.closure_classes(
            [(r.lhs, r.rhs) for r in p31.base.rules], 2, 4, 8
        )
        classes_out = oracles.closure_classes(
            [(r.lhs, r.rhs) for r in red.base.rules], 1, 4, 8
        )
        assert len(set(classes_in.values())) == 2
        assert len(set(classes_out.values())) == 2


class TestAdjoinDefinition:
    def test_round_trip(self, b3plus_completed):
        p31, _ = b3plus_completed
        bigger, undo = oracles.adjoin_definition(p31, "z", (0, 1, 0), "def_z")
        assert bigger.base.n_generators == 4
        part = px.CollapsiblePart(
            (undo,),
            (),
            (),
            px.OrderWitness({0: 0, 1: 1, 2: 2, 3: 9}, {}, {}),
        )
        back = px.homotopical_reduce(bigger, part)
        assert back.base == p31.base
        assert [c.name for c in back.cells] == [c.name for c in p31.cells]

    def nested(self, p31, y_rank):
        # y := z.a with z := st, so y's defining word holds a redundant generator
        with_z, z = oracles.adjoin_definition(p31, "z", (0, 1), "def_z")
        with_y, y = oracles.adjoin_definition(with_z, "y", (3, 2), "def_y")
        ranks = {0: 0, 1: 1, 2: 2, 3: 9, 4: y_rank}
        return with_y, px.CollapsiblePart((y, z), (), (), px.OrderWitness(ranks, {}, {}))

    def test_nested_round_trip(self, b3plus_completed):
        p31, _ = b3plus_completed
        back = px.homotopical_reduce(*self.nested(p31, 10))
        assert back.base == p31.base
        assert [c.name for c in back.cells] == [c.name for c in p31.cells]
        assert back.cells == p31.cells

    def test_nested_misordered_raises(self, b3plus_completed):
        p31, _ = b3plus_completed
        with_y, part = self.nested(p31, 8)
        assert px.validate_collapsible(with_y, part) == ["order: generator 'y' not above 'z'"]
        with pytest.raises(px.NielsenError, match="order: generator 'y' not above 'z'"):
            px.homotopical_reduce(with_y, part, validate=False)
