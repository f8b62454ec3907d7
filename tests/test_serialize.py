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
    """A read parses each distinct word string once, through a table local
    to the call; a failed parse is never kept."""

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
