import hashlib
import json
import pathlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

import polycox as px
from polycox import paths
from polycox import serialize as ser
from polycox.paths import Path2, Step2

from conftest import MATRICES


class TestWordEncoding:
    def test_single_char_names_concatenate(self, b3plus):
        p, _ = b3plus
        assert p.word_str((0, 1, 2)) == "sta"
        assert ser.word_from_str(p, "sta") == (0, 1, 2)

    def test_dotted_accepted_for_single_char(self, b3plus):
        p, _ = b3plus
        assert ser.word_from_str(p, "s.t.a") == (0, 1, 2)

    def test_multi_char_names_use_dots(self, groups):
        gp = px.garside_presentation(groups("A2"))
        w = (0, 4, 2)
        s = gp.pg.word_str(w)
        assert "." in s
        assert ser.word_from_str(gp.pg, s) == w

    def test_empty(self, b3plus):
        p, _ = b3plus
        assert p.word_str(()) == ""
        assert ser.word_from_str(p, "") == ()

    def test_unknown_generator(self, b3plus):
        p, _ = b3plus
        with pytest.raises(px.InputError, match="unknown generator in word 'sxta'"):
            ser.word_from_str(p, "sxta")
        with pytest.raises(px.InputError, match="unknown generator in word 's..t'"):
            ser.word_from_str(p, "s..t")

    def test_dotless_word_over_long_names_is_one_name(self, groups):
        pg = px.garside_presentation(groups("A2")).pg
        assert pg.separator == "."
        assert ser.word_from_str(pg, "st") == (pg.generator_ids["st"],)
        with pytest.raises(px.InputError, match="unknown generator in word 'sst'"):
            ser.word_from_str(pg, "sst")


class TestRoundTrips:
    def test_polygraph2(self, b3plus):
        p, _ = b3plus
        assert ser.polygraph2_from_dict(ser.polygraph2_to_dict(p)) == p

    def test_polygraph31_with_cells(self, b3plus_completed):
        p31, _ = b3plus_completed
        back = ser.polygraph31_from_dict(ser.polygraph31_to_dict(p31))
        assert back == p31

    def test_path(self, b3plus_completed):
        p31, _ = b3plus_completed
        path = p31.cells[3].tgt
        back = ser.path_from_dict(ser.path_to_dict(path), p31.base)
        assert back == path

    def test_matrix(self):
        m = MATRICES["B3"]
        assert ser.matrix_from_dict(ser.matrix_to_dict(m)) == m

    def test_part(self, b3plus_completed):
        from test_tietze import b3plus_part

        p31, _ = b3plus_completed
        part = b3plus_part(p31)
        back = ser.part_from_dict(ser.part_to_dict(part, p31), p31)
        assert back.two_cells[0].rule == part.two_cells[0].rule
        assert [t.cell for t in back.three_cells] == [t.cell for t in part.three_cells]
        assert [s.redundant for s in back.spheres] == [
            s.redundant for s in part.spheres
        ]
        # positional ranks refine the original order
        assert px.validate_collapsible(p31, back) == []

    @given(st.data())
    def test_generated_presentations_round_trip(self, data):
        n = data.draw(st.integers(1, 4))
        names = [f"g{i}" for i in range(n)]
        p = px.Polygraph2(names)
        n_rules = data.draw(st.integers(0, 4))
        for k in range(n_rules):
            lhs = tuple(
                data.draw(
                    st.lists(st.integers(0, n - 1), min_size=1, max_size=4)
                )
            )
            rhs = tuple(
                data.draw(st.lists(st.integers(0, n - 1), max_size=4))
            )
            p.add_rule(px.Rule(f"r{k}", lhs, rhs))
        assert ser.polygraph2_from_dict(ser.polygraph2_to_dict(p)) == p


class TestRendering:
    def test_whiskered_step(self, b3plus_completed):
        p31, _ = b3plus_completed
        # the D-cell target starts with delta whiskered by sa and a
        cell = {c.name: c for c in p31.cells}["c3"]
        text = ser.render_path(cell.tgt)
        assert text.startswith("sa·kb3 ")
        assert " ⋆ " in text

    def test_identity(self, b3plus):
        p, _ = b3plus
        assert ser.render_path(px.identity_path(p, (0, 1))) == "1_st"

    def test_reverse_marked(self, b3plus):
        p, _ = b3plus
        path = Path2(p, (2, 0), [Step2(1, -1, 0)])
        assert "beta-" in ser.render_path(path)

    def test_path_replayed_once(self, monkeypatch):
        # a path caches no chain of words, so rendering must not replay it
        # once per step
        (z,) = px.artin_coherent(MATRICES["A3"]).cells
        replays = []
        real = paths._replay
        monkeypatch.setattr(paths, "_replay", lambda *a: replays.append(a) or real(*a))
        text = ser.render_path(z.tgt)
        assert len(z.tgt.steps) == 8 and len(replays) == 1
        assert text == (
            "ts·g(r,t)·st ⋆ tsr·g(s,t) ⋆ t·g(r,s)·ts ⋆ g(r,t)·srts ⋆ "
            "rts·g(r,t)-·s ⋆ r·g(s,t)·rs ⋆ rst·g(r,s) ⋆ rs·g(r,t)·sr"
        )

    def test_readme_artin_example(self):
        # the README quotes the start of `polycox artin a3.json`'s rendering
        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        quoted = readme.split("rendered in the meta block as\n#")[1].splitlines()[0].strip()
        assert quoted.endswith(" ⋆ …")
        (z,) = px.artin_coherent(MATRICES["A3"]).cells
        assert ser.render_path(z.src).startswith(quoted.removesuffix("…"))


class TestGarsideDocuments:
    def test_completed_presentation_round_trip(self, groups):
        gc = px.complete_garside(groups("A2"))
        doc = ser.polygraph31_to_dict(gc.p31)
        back = ser.polygraph31_from_dict(doc)
        assert back == gc.p31

    def test_reduced_presentation_round_trip(self, gar3):
        g3 = gar3("A1^3")
        back = ser.polygraph31_from_dict(ser.polygraph31_to_dict(g3.p31))
        assert back == g3.p31


class TestWordMemo:
    """A read parses each distinct word string, step and path once, through
    a table local to the call, and gives one value for each; a failed parse
    is never kept."""

    def test_part_round_trip(self, garside_parts, gar3):
        # a Garside part, which has no two-cells, and A3's Artin part, whose
        # 20 two-cells each name their redundant generator
        gc, garside_part = garside_parts("A2xA1")
        g3 = gar3("A3")
        cases = [(gc.p31, garside_part, 0), (g3.p31, px.artin_reduction_part(g3), 20)]
        for p31, part, named in cases:
            doc = ser.part_to_dict(part, p31)
            assert sum("redundant" in tc for tc in doc["two_cells"]) == named
            back = ser.part_from_dict(doc, p31)
            assert back.spheres == part.spheres
            assert (back.two_cells, back.three_cells) == (part.two_cells, part.three_cells)
            assert ser.part_to_dict(back, p31) == doc

    def test_equal_strings_give_one_tuple(self, garside_parts):
        gc, part = garside_parts("A2xA1")
        back = ser.part_from_dict(ser.part_to_dict(part, gc.p31), gc.p31)
        words = []
        for sc in back.spheres:
            sp = sc.sphere
            words += [sp.source.source, sp.target.source]
            for e in sp.lhs + sp.rhs:
                words += [e.left, e.right, e.pre.source, e.post.source]
        assert len({id(w) for w in words}) == len(set(words)) < len(words)
        cells = ser.polygraph31_from_dict(ser.polygraph31_to_dict(gc.p31)).cells
        sources = [p.source for c in cells for p in (c.src, c.tgt)]
        assert len({id(w) for w in sources}) == len(set(sources)) < len(sources)

    @pytest.mark.parametrize("bad", ["zz", ["r"]])
    def test_bad_second_occurrence_raises_as_alone(self, garside_parts, bad):
        gc, part = garside_parts("A2xA1")
        doc = json.loads(json.dumps(ser.part_to_dict(part, gc.p31)))
        sphere = doc["spheres"][0]
        # a sphere's source and target both start at its source word, and
        # the target is read second
        assert sphere["source"]["source"] == sphere["target"]["source"]
        sphere["target"]["source"] = bad
        with pytest.raises(px.InputError) as alone:
            ser.word_from_str(gc.p31.base, bad)
        with pytest.raises(px.InputError) as read:
            ser.part_from_dict(doc, gc.p31)
        assert str(read.value) == str(alone.value)

    def test_failed_parse_not_kept(self, b3plus):
        p, _ = b3plus
        memo = {}
        first = ser.word_from_str(p, "sta", memo)
        assert ser.word_from_str(p, "".join(["st", "a"]), memo) is first
        for _ in range(2):
            with pytest.raises(px.InputError, match="unknown generator in word 'sxta'"):
                ser.word_from_str(p, "sxta", memo)
        assert memo == {"sta": (0, 1, 2)}

    def test_one_step_and_one_path_per_value(self, garside_parts):
        gc, part = garside_parts("A2xA1")
        p31 = ser.polygraph31_from_dict(json.loads(json.dumps(ser.polygraph31_to_dict(gc.p31))))
        back = ser.part_from_dict(json.loads(json.dumps(ser.part_to_dict(part, gc.p31))), p31)
        paths = []
        for sc in back.spheres:
            sp = sc.sphere
            paths += [sp.source, sp.target]
            paths += [q for e in sp.lhs + sp.rhs for q in (e.pre, e.post)]
        steps = [s for path in paths for s in path.steps]
        assert len({id(q) for q in paths}) == len(set(paths)) < len(paths)
        assert len({id(s) for s in steps}) == len(set(steps)) < len(steps)
        sides = [q for c in p31.cells for q in (c.src, c.tgt)]
        steps = [s for q in sides for s in q.steps]
        assert len({id(q) for q in sides}) == len(set(sides))
        assert len({id(s) for s in steps}) == len(set(steps)) < len(steps)

    @pytest.mark.parametrize(
        "field, bad",
        [("dir", True), ("dir", 1.0), ("at", True), ("at", 1.0), ("rule", ["x"]), ("rule", "zz")],
    )
    def test_bad_second_step_raises_as_alone(self, garside_parts, field, bad):
        # a valid step read first, then one that equals it as a value (True
        # == 1 == 1.0) or cannot be a table key; a read never replays paths
        gc, part = garside_parts("A2xA1")
        doc = json.loads(json.dumps(ser.part_to_dict(part, gc.p31)))
        sphere = doc["spheres"][0]
        valid = {"rule": gc.p31.base.rules[0].name, "dir": 1, "at": 1}
        sphere["source"]["steps"].insert(0, valid)
        sphere["target"]["steps"].insert(0, dict(valid, **{field: bad}))
        alone_doc = {"source": "", "steps": [dict(valid, **{field: bad})]}
        with pytest.raises(px.InputError) as alone:
            ser.path_from_dict(alone_doc, gc.p31.base)
        with pytest.raises(px.InputError) as read:
            ser.part_from_dict(doc, gc.p31)
        assert str(read.value) == str(alone.value)

    def test_failed_step_parse_not_kept(self, b3plus):
        p, _ = b3plus
        memo = {}
        good = {"source": "st", "steps": [{"rule": "beta", "dir": 1, "at": 0}]}
        first = ser.path_from_dict(good, p, memo)
        assert ser.path_from_dict(json.loads(json.dumps(good)), p, memo) is first
        for step in ({"rule": "gamma", "dir": 1, "at": 0}, {"rule": "beta", "dir": 2, "at": 0}):
            for _ in range(2):
                with pytest.raises(px.InputError):
                    ser.path_from_dict({"source": "st", "steps": [step]}, p, memo)
        assert memo == {"st": (0, 1), ("beta", 1, 0): first.steps[0], ((0, 1), first.steps): first}

    def test_read_part_reduces_as_in_memory(self, garside_parts):
        gc, part = garside_parts("A2xA1")
        p31 = ser.polygraph31_from_dict(json.loads(json.dumps(ser.polygraph31_to_dict(gc.p31))))
        back = ser.part_from_dict(json.loads(json.dumps(ser.part_to_dict(part, gc.p31))), p31)
        assert px.validate_collapsible(p31, back) == []
        want = ser.polygraph31_to_dict(px.homotopical_reduce(gc.p31, part, validate=False))
        assert ser.polygraph31_to_dict(px.homotopical_reduce(p31, back)) == want


class TestWriterSharing:
    """A document keeps one string per distinct word and one dict per
    distinct step, shared by every use, and its bytes are unchanged."""

    # SHA-256 of json.dumps(polygraph31_to_dict(p31)) for S(Gar_2(B2xA1)),
    # the completed presentation the reduce_json benchmark writes (unrelabelled)
    B2XA1_DIGEST = "e1a37acfe57eff6c1751d5f74dcec3071dc4a1e5b5bd815ec307f40b0eea0d55"

    def test_b2xa1_completed_digest(self):
        m = px.CoxeterMatrix(tuple("rst"), ((1, 4, 2), (4, 1, 2), (2, 2, 1)))
        doc = json.dumps(ser.polygraph31_to_dict(px.complete_garside(px.enumerate_group(m)).p31))
        assert hashlib.sha256(doc.encode()).hexdigest() == self.B2XA1_DIGEST

    @staticmethod
    def assert_shared(paths, words):
        steps = [s for q in paths for s in q["steps"]]
        values = {(s["rule"], s["dir"], s["at"]) for s in steps}
        assert len({id(s) for s in steps}) == len(values) < len(steps)
        words = words + [q["source"] for q in paths]
        assert len({id(w) for w in words}) == len(set(words)) < len(words)

    def test_presentation(self, garside_parts):
        gc, _ = garside_parts("A2xA1")
        doc = ser.polygraph31_to_dict(gc.p31)
        self.assert_shared([q for c in doc["three_cells"] for q in (c["src"], c["tgt"])], [])

    def test_part(self, garside_parts):
        gc, part = garside_parts("A2xA1")
        paths, words = [], []
        for d in ser.part_to_dict(part, gc.p31)["spheres"]:
            entries = d["lhs"] + d["rhs"]
            paths += [d["source"], d["target"]]
            paths += [q for e in entries for q in (e["pre"], e["post"])]
            words += [w for e in entries for w in (e["left"], e["right"])]
        self.assert_shared(paths, words)


_RULE = {"id": "r", "lhs": "aa", "rhs": "a"}
_IDLE = {"source": "aa", "steps": []}
_P31 = {
    "generators": ["a"],
    "rules": [_RULE],
    "three_cells": [{"id": "c", "src": _IDLE, "tgt": _IDLE}],
}
_SPHERE = {"source": _IDLE, "target": _IDLE, "lhs": [], "rhs": [], "redundant": "c"}


def _read_presentation(**fields):
    return ser.polygraph31_from_dict(dict(_P31, **fields))


def _read_part(part: dict):
    return ser.part_from_dict(part, _read_presentation())


class TestArraySites:
    """Where the schema has an array, a reader refuses a string or an
    object, which it would otherwise iterate as letters or keys."""

    # site -> (the field the error names, a read with ``bad`` at the site)
    SITES = {
        "generators": ("generators", lambda bad: _read_presentation(generators=bad)),
        "rules": ("rules", lambda bad: _read_presentation(rules=bad)),
        "matrix generators": (
            "generators",
            lambda bad: ser.matrix_from_dict({"generators": bad, "m": [[1]]}),
        ),
        "matrix m": ("m", lambda bad: ser.matrix_from_dict({"generators": ["s"], "m": bad})),
        "matrix row": (
            "a row of m",
            lambda bad: ser.matrix_from_dict({"generators": ["s"], "m": [bad]}),
        ),
        "three_cells": ("three_cells", lambda bad: _read_presentation(three_cells=bad)),
        "steps": (
            "steps",
            lambda bad: ser.path_from_dict(dict(_IDLE, steps=bad), _read_presentation().base),
        ),
        "sphere lhs": ("lhs", lambda bad: _read_part({"spheres": [dict(_SPHERE, lhs=bad)]})),
        "sphere rhs": ("rhs", lambda bad: _read_part({"spheres": [dict(_SPHERE, rhs=bad)]})),
        "part two_cells": ("two_cells", lambda bad: _read_part({"two_cells": bad})),
        "part three_cells": ("three_cells", lambda bad: _read_part({"three_cells": bad})),
        "part spheres": ("spheres", lambda bad: _read_part({"spheres": bad})),
        "order generators": (
            "order generators",
            lambda bad: _read_part({"order": {"generators": bad}}),
        ),
        "order rules": ("order rules", lambda bad: _read_part({"order": {"rules": bad}})),
        "order cells": ("order cells", lambda bad: _read_part({"order": {"cells": bad}})),
    }

    @pytest.mark.parametrize("bad", ["", "ab", {}, {"a": "a"}])
    @pytest.mark.parametrize("site", sorted(SITES))
    def test_refused(self, site, bad):
        field, read = self.SITES[site]
        kind = type(bad).__name__
        with pytest.raises(px.InputError, match=f"^{field} must be a JSON array, not {kind}$"):
            read(bad)
