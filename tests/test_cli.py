import copy
import dataclasses
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import polycox as px
from polycox import serialize as ser
from polycox import cli, tietze
from polycox.cli import main

from conftest import MATRICES


@pytest.fixture()
def b3_file(tmp_path):
    doc = {
        "generators": ["s", "t", "a"],
        "rules": [
            {"id": "alpha", "lhs": "ta", "rhs": "as"},
            {"id": "beta", "lhs": "st", "rhs": "a"},
        ],
    }
    path = tmp_path / "b3.json"
    path.write_text(json.dumps(doc))
    return path


def write_matrix(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(ser.matrix_to_dict(MATRICES[name])))
    return path


class TestComplete:
    def test_b3plus(self, tmp_path, b3_file, capsys):
        out = tmp_path / "out.json"
        rc = main(["complete", str(b3_file), "--order", "deglex:t,s,a", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert [(r["lhs"], r["rhs"]) for r in doc["rules"]] == [
            ("ta", "as"),
            ("st", "a"),
            ("sas", "aa"),
            ("saa", "aat"),
        ]
        assert len(doc["three_cells"]) == 4
        err = capsys.readouterr().err
        assert "rules added: 2" in err

    def test_already_convergent_zero_added(self, tmp_path, capsys):
        doc = {"generators": ["a"], "rules": [{"id": "idem", "lhs": "aa", "rhs": "a"}]}
        f = tmp_path / "idem.json"
        f.write_text(json.dumps(doc))
        rc = main(["complete", str(f), "--order", "deglex:a"])
        assert rc == 0
        assert "rules added: 0" in capsys.readouterr().err

    def test_nonterminating_orientation(self, tmp_path, capsys):
        doc = {"generators": ["a"], "rules": [{"id": "grow", "lhs": "a", "rhs": "aa"}]}
        f = tmp_path / "grow.json"
        f.write_text(json.dumps(doc))
        assert main(["complete", str(f), "--order", "deglex:a"]) == 3

    def test_parse_error(self, tmp_path):
        f = tmp_path / "broken.json"
        f.write_text("{not json")
        assert main(["complete", str(f), "--order", "deglex:a"]) == 2

    def test_budget_exit(self, b3_file):
        assert (
            main(
                [
                    "complete",
                    str(b3_file),
                    "--order",
                    "deglex:t,s,a",
                    "--budget-rules",
                    "1",
                ]
            )
            == 4
        )

    def test_rule_budget_reports_progress(self, b3_file, capsys):
        # B3+ adjoins two rules; a budget of one stops at the second
        argv = ["complete", str(b3_file), "--order", "deglex:t,s,a", "--budget-rules", "1"]
        assert main(argv) == 4
        assert "rule budget 1 exceeded: reached 2 adjoined rules" in capsys.readouterr().err

    def test_branching_budget_bounds_the_overlap_search(self, tmp_path, capsys):
        # 200 rules on one lhs overlap in about 60 000 branchings; the budget
        # counts them as they are found, before any is examined
        rules = [{"id": f"r{i}", "lhs": "a.a", "rhs": "a"} for i in range(200)]
        f = tmp_path / "aa.json"
        f.write_text(json.dumps({"generators": ["a"], "rules": rules}))
        assert main(["complete", str(f), "--order", "deglex:a", "--budget-branchings", "10"]) == 4
        assert "branching budget 10 exceeded: reached 11 critical branchings" in (
            capsys.readouterr().err
        )

    def test_step_budget_flag(self, b3_file, capsys):
        argv = ["complete", str(b3_file), "--order", "deglex:t,s,a"]
        assert main(argv + ["--budget-steps", "1000000"]) == 0
        assert main(argv + ["--budget-steps", "1"]) == 4
        assert "no normal form for saaa within 1 steps" in capsys.readouterr().err

    def test_order_names_holding_a_comma(self, tmp_path, capsys):
        # a precedence list that holds "." is split on ".", as words are
        doc = {"generators": ["s", "b,c"], "rules": [{"id": "r", "lhs": "b,c.s", "rhs": "s.b,c"}]}
        f = tmp_path / "comma.json"
        f.write_text(json.dumps(doc))
        out = tmp_path / "out.json"
        assert main(["complete", str(f), "--order", "deglex:b,c.s", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["rules"] == doc["rules"]
        assert "rules added: 0" in capsys.readouterr().err

    def test_order_must_name_every_generator(self, b3_file, capsys):
        assert main(["complete", str(b3_file), "--order", "deglex:s,t"]) == 2
        assert capsys.readouterr().err == (
            "parse error: precedence list ['s', 't'] does not name the generators exactly once\n"
        )


class TestReduce:
    def test_b3plus_reduction(self, tmp_path, b3_file, b3plus_completed):
        from test_tietze import b3plus_part

        p31, _ = b3plus_completed
        completed = tmp_path / "completed.json"
        completed.write_text(json.dumps(ser.polygraph31_to_dict(p31)))
        part_file = tmp_path / "part.json"
        part_file.write_text(json.dumps(ser.part_to_dict(b3plus_part(p31), p31)))
        out = tmp_path / "reduced.json"
        rc = main(["reduce", str(completed), "--part", str(part_file), "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["removed"]["generators"] == ["a"]
        surviving = doc["surviving"]
        assert surviving["generators"] == ["s", "t"]
        assert [(r["lhs"], r["rhs"]) for r in surviving["rules"]] == [("tst", "sts")]
        assert surviving["three_cells"] == []

    def test_artin_part_naming_its_redundant_generators(self, tmp_path, gar3):
        # A3's Artin part: each of its two-cells names its redundant generator
        g3 = gar3("A3")
        part = px.artin_reduction_part(g3)
        completed = tmp_path / "completed.json"
        completed.write_text(json.dumps(ser.polygraph31_to_dict(g3.p31)))
        part_file = tmp_path / "part.json"
        part_file.write_text(json.dumps(ser.part_to_dict(part, g3.p31)))
        out = tmp_path / "reduced.json"
        rc = main(["reduce", str(completed), "--part", str(part_file), "--out", str(out)])
        assert rc == 0
        want = ser.polygraph31_to_dict(px.homotopical_reduce(g3.p31, part))
        assert json.loads(out.read_text())["surviving"] == want

    def test_empty_part_identity(self, tmp_path, b3plus_completed, capsys):
        p31, _ = b3plus_completed
        completed = tmp_path / "completed.json"
        completed.write_text(json.dumps(ser.polygraph31_to_dict(p31)))
        part_file = tmp_path / "part.json"
        part_file.write_text(json.dumps({"two_cells": [], "three_cells": [], "spheres": []}))
        out = tmp_path / "reduced.json"
        rc = main(["reduce", str(completed), "--part", str(part_file), "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["removed"] == {"generators": [], "rules": [], "three_cells": []}

    def test_invalid_part_lists_violations(self, tmp_path, b3plus_completed, capsys):
        p31, _ = b3plus_completed
        completed = tmp_path / "completed.json"
        completed.write_text(json.dumps(ser.polygraph31_to_dict(p31)))
        part_file = tmp_path / "part.json"
        # claim c0 collapses with alpha redundant: alpha occurs twice overall
        part_file.write_text(
            json.dumps(
                {
                    "three_cells": [{"cell": "c0", "redundant": "alpha"}],
                    "order": {"rules": ["beta", "kb2", "kb3", "alpha"]},
                }
            )
        )
        rc = main(["reduce", str(completed), "--part", str(part_file)])
        assert rc == 3
        assert "violation[0]" in capsys.readouterr().err

    def test_malformed_sphere_entry_lists_violations(self, tmp_path, groups, capsys):
        # a pre path that does not end at its whiskered cell is a violation,
        # not an error escaping the validation
        gc = px.complete_garside(groups("A2"))
        part = ser.part_to_dict(px.garside_reduction_part(gc), gc.p31)
        sphere = part["spheres"][0]
        sphere["lhs"][0]["pre"] = sphere["source"]
        completed = tmp_path / "completed.json"
        completed.write_text(json.dumps(ser.polygraph31_to_dict(gc.p31)))
        part_file = tmp_path / "part.json"
        part_file.write_text(json.dumps(part))
        assert main(["reduce", str(completed), "--part", str(part_file)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("violation[0]: sphere for 'H(s,t,s,t)#0': ")

    @pytest.mark.parametrize("flip", [False, True])
    def test_validates_once(self, tmp_path, groups, monkeypatch, capsys, flip):
        # the reduction's own validation is the only one: A2's Garside part,
        # valid or with one sphere face broken, is checked in one pass
        gc = px.complete_garside(groups("A2"))
        part = ser.part_to_dict(px.garside_reduction_part(gc), gc.p31)
        if flip:
            sphere = part["spheres"][0]
            sphere["lhs"][0]["pre"] = sphere["source"]
        completed = tmp_path / "completed.json"
        completed.write_text(json.dumps(ser.polygraph31_to_dict(gc.p31)))
        part_file = tmp_path / "part.json"
        part_file.write_text(json.dumps(part))
        p31 = ser.polygraph31_from_dict(json.loads(completed.read_text()))
        want = px.validate_collapsible(p31, ser.part_from_dict(part, p31))
        assert bool(want) == flip
        calls = []
        real = tietze._validate
        monkeypatch.setattr(
            tietze, "_validate", lambda *a, **k: calls.append(1) or real(*a, **k)
        )
        rc = main(["reduce", str(completed), "--part", str(part_file)])
        assert (rc, len(calls)) == ((3, 1) if flip else (0, 1))
        err = capsys.readouterr().err.splitlines()
        assert err[: len(want)] == [f"violation[{k}]: {v}" for k, v in enumerate(want)]
        assert err[len(want) :] == (
            ["precondition failed: collapsible part does not validate"] if flip else []
        )

    @pytest.mark.parametrize("bad_dir", [0, 7])
    @pytest.mark.parametrize("where", ["presentation", "part path", "sphere entry"])
    def test_step_dir_must_be_unit(self, tmp_path, b3plus_completed, where, bad_dir):
        from test_tietze import b3plus_part

        p31, _ = b3plus_completed
        # through JSON: a written document shares its step dicts among their uses
        doc = json.loads(json.dumps(ser.polygraph31_to_dict(p31)))
        part = json.loads(json.dumps(ser.part_to_dict(b3plus_part(p31), p31)))
        if where == "presentation":
            doc["three_cells"][0]["src"]["steps"][0]["dir"] = bad_dir
        elif where == "part path":
            part["spheres"][0]["source"]["steps"][0]["dir"] = bad_dir
        else:
            part["spheres"][0]["lhs"][0]["dir"] = bad_dir
        completed = tmp_path / "completed.json"
        completed.write_text(json.dumps(doc))
        part_file = tmp_path / "part.json"
        part_file.write_text(json.dumps(part))
        assert main(["reduce", str(completed), "--part", str(part_file)]) == 2

    MALFORMED_PARTS = {
        "array": [],
        "number": 5,
        "string": "x",
        "null": None,
        "order an array": {"order": []},
        "unknown 3-cell": {"three_cells": [{"cell": "nope", "redundant": "alpha"}]},
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED_PARTS))
    def test_malformed_part_exit_2(self, tmp_path, b3plus_completed, capsys, case):
        p31, _ = b3plus_completed
        completed = tmp_path / "completed.json"
        completed.write_text(json.dumps(ser.polygraph31_to_dict(p31)))
        part_file = tmp_path / "part.json"
        part_file.write_text(json.dumps(self.MALFORMED_PARTS[case]))
        assert main(["reduce", str(completed), "--part", str(part_file)]) == 2
        assert "parse error" in capsys.readouterr().err


class TestBudgetFlags:
    # a subcommand accepts only the budgets that bound its work; argparse
    # rejects the rest with exit 2
    @pytest.mark.parametrize(
        "cmd,flag",
        [
            ("reduce", "--budget-rules"),
            ("complete", "--budget-cosets"),
            ("garside", "--budget-steps"),
            ("artin", "--budget-rules"),
            ("artin", "--budget-branchings"),
            ("coxeter", "--budget-steps"),
        ],
    )
    def test_ignored_budget_rejected(self, tmp_path, cmd, flag):
        extra = {"complete": ["--order", "deglex:a"], "reduce": ["--part", "part.json"]}
        argv = [cmd, str(tmp_path / "in.json"), flag, "5"] + extra.get(cmd, [])
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "cmd,flag",
        [
            ("complete", "--budget-rules"),
            ("complete", "--budget-branchings"),
            ("complete", "--budget-steps"),
            ("garside", "--budget-rules"),
            ("garside", "--budget-branchings"),
            ("garside", "--budget-cosets"),
            ("artin", "--budget-cosets"),
            ("coxeter", "--budget-cosets"),
        ],
    )
    def test_negative_budget_rejected(self, tmp_path, capsys, cmd, flag):
        f = write_matrix(tmp_path, "A2")
        extra = ["--order", "deglex:a"] if cmd == "complete" else []
        with pytest.raises(SystemExit) as exc:
            main([cmd, str(f), flag, "-1"] + extra)
        assert exc.value.code == 2
        assert f"argument {flag}: a budget cannot be negative: -1" in capsys.readouterr().err


class TestGarsideCmd:
    def test_stages(self, tmp_path, capsys):
        f = write_matrix(tmp_path, "A2")
        assert main(["garside", str(f), "--stage", "raw"]) == 0
        raw = json.loads(capsys.readouterr().out)
        assert len(raw["generators"]) == 5
        assert main(["garside", str(f), "--stage", "completed"]) == 0
        completed = json.loads(capsys.readouterr().out)
        fams = completed["meta"]["families"]
        assert set(fams.values()) <= set("ABCDEFGHI")
        assert main(["garside", str(f), "--stage", "reduced"]) == 0
        reduced = json.loads(capsys.readouterr().out)
        assert len(reduced["three_cells"]) == 2  # the A-family cells of A2

    @pytest.mark.parametrize("stage", ["raw", "completed", "reduced"])
    def test_elements_named_by_their_words(self, tmp_path, capsys, stage):
        # multi-letter names: each generator is its element's word, unseparated
        f = tmp_path / "a2.json"
        f.write_text(json.dumps({"generators": ["s1", "s2"], "m": [[1, 3], [3, 1]]}))
        assert main(["garside", str(f), "--stage", stage]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["generators"] == ["s1", "s2", "s1s2", "s2s1", "s1s2s1"]
        assert doc["meta"]["elements"] == {g: g for g in doc["generators"]}

    def test_element_names_that_run_together(self, tmp_path, capsys):
        # W is fine, but a.aa and aa.a would both name a generator 'aaa'
        f = tmp_path / "runs.json"
        f.write_text(json.dumps({"generators": ["a", "aa"], "m": [[1, 3], [3, 1]]}))
        assert main(["coxeter", str(f)]) == 0
        capsys.readouterr()
        assert main(["garside", str(f)]) == 2
        assert capsys.readouterr().err == (
            "parse error: Garside generator names run together: "
            "['a', 'aa'] and ['aa', 'a'] are both named 'aaa'\n"
        )

    def test_infinite_group_rejected(self, tmp_path):
        f = write_matrix(tmp_path, "Atilde2")
        assert main(["garside", str(f), "--budget-cosets", "2000"]) == 3

    def test_huge_entry_budget_exit(self, tmp_path, capsys):
        # an entry over the coset cap is a budget stop, as under coxeter and artin
        f = tmp_path / "huge.json"
        m = 10**30
        f.write_text(json.dumps({"generators": ["s", "t"], "m": [[1, m], [m, 1]]}))
        assert main(["garside", str(f)]) == 4
        assert f"order {2 * m}" in capsys.readouterr().err

    @pytest.mark.parametrize("stage", ["completed", "reduced"])
    def test_rule_budget_exit(self, tmp_path, capsys, stage):
        # A3 adjoins more than 100 beta rules; the budget stops the run
        # before the overlap search
        f = write_matrix(tmp_path, "A3")
        argv = ["garside", str(f), "--stage", stage, "--budget-rules", "100"]
        assert main(argv) == 4
        assert "rule budget 100 exceeded: reached 101" in capsys.readouterr().err

    def test_raw_stage_bounds_no_completion(self, tmp_path, capsys):
        # the raw stage adjoins no rule and searches no branching, so the
        # rule and branching budgets bound only the completed and reduced
        # stages; a zero budget leaves the raw document as it is
        f = write_matrix(tmp_path, "A3")
        assert main(["garside", str(f), "--stage", "raw"]) == 0
        raw = capsys.readouterr().out
        zero = ["--budget-rules", "0", "--budget-branchings", "0"]
        assert main(["garside", str(f), "--stage", "raw"] + zero) == 0
        assert capsys.readouterr().out == raw

    def test_branching_budget_exit(self, tmp_path, capsys):
        f = write_matrix(tmp_path, "A2")
        argv = ["garside", str(f), "--stage", "completed", "--budget-branchings", "3"]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert "branching budget 3 exceeded: reached" in err

    def test_branching_budget_bounds_the_part(self, tmp_path, capsys, monkeypatch):
        # every cell of S(Gar_2(W)) is a critical branching and every sphere
        # a cell, so the branching budget stops the run before any sphere
        def no_part(*args, **kwargs):
            raise AssertionError("garside_reduction_part was called")

        monkeypatch.setattr(px.garside, "garside_reduction_part", no_part)
        f = write_matrix(tmp_path, "A2")
        argv = ["garside", str(f), "--stage", "reduced", "--budget-branchings", "3"]
        assert main(argv) == 4
        assert "branching budget 3 exceeded: reached" in capsys.readouterr().err


class TestArtinCmd:
    def test_a3_census(self, tmp_path, capsys):
        f = write_matrix(tmp_path, "A3")
        assert main(["artin", str(f)]) == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["meta"]["census"] == [1, 3, 3, 1]
        assert "census: 1,3,3,1" in captured.err

    def test_b3_census(self, tmp_path, capsys):
        f = write_matrix(tmp_path, "B3")
        assert main(["artin", str(f)]) == 0
        assert json.loads(capsys.readouterr().out)["meta"]["census"] == [1, 3, 3, 1]

    def test_atilde2_census(self, tmp_path, capsys):
        f = write_matrix(tmp_path, "Atilde2")
        assert main(["artin", str(f)]) == 0
        assert json.loads(capsys.readouterr().out)["meta"]["census"] == [1, 3, 3, 0]

    def test_bad_matrix(self, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps({"generators": ["r", "s"], "m": [[1, 2]]}))
        assert main(["artin", str(f)]) == 2

    @pytest.mark.parametrize(
        "names, message",
        [
            (
                ["a", "b,c", "a,b", "c"],
                "braid rule names run together: ['a', 'b,c'] and ['a,b', 'c'] "
                "are both named 'g(a,b,c)'",
            ),
            (
                ["a", "b", "c,d", "a,b", "c", "d"],
                "Z-cell names run together: ['a', 'b', 'c,d'] and ['a,b', 'c', 'd'] "
                "are both named 'Z(a,b,c,d)'",
            ),
        ],
    )
    def test_names_that_run_together(self, tmp_path, capsys, names, message):
        f = tmp_path / "runs.json"
        m = [[1 if i == j else 2 for j in names] for i in names]
        f.write_text(json.dumps({"generators": names, "m": m}))
        assert main(["artin", str(f)]) == 2
        assert capsys.readouterr().err == f"parse error: {message}\n"

    def test_other_polycox_error_exit_3(self, tmp_path, capsys, monkeypatch):
        def incoherent(*args, **kwargs):
            raise px.CoherenceError("a relator does not close after the HLT pass")

        monkeypatch.setattr("polycox.garside.artin_coherent", incoherent)
        assert main(["artin", str(write_matrix(tmp_path, "A3"))]) == 3
        assert capsys.readouterr().err == "error: a relator does not close after the HLT pass\n"

    def test_long_braid_relation_bounded(self, tmp_path, capsys):
        # <s,t> has order 2 * 1001: over the coset cap, artin stops before
        # it spells the braid relation
        f = tmp_path / "i2_1001.json"
        f.write_text(json.dumps({"generators": ["s", "t"], "m": [[1, 1001], [1001, 1]]}))
        assert main(["artin", str(f), "--budget-cosets", "1000"]) == 4
        assert "order 2002" in capsys.readouterr().err
        assert main(["artin", str(f), "--budget-cosets", "2002"]) == 0

    def test_long_dihedral_chain_needs_no_deep_recursion(self, tmp_path, capsys):
        # the projection of I2(500) x A1 walks chains of about 500 pairs
        f = tmp_path / "i2_500_a1.json"
        m = [[1, 500, 2], [500, 1, 2], [2, 2, 1]]
        f.write_text(json.dumps({"generators": ["s", "t", "u"], "m": m}))
        assert main(["artin", str(f)]) == 0
        assert "census: 1,3,3,1" in capsys.readouterr().err


def _cell_with_step(**fields) -> dict:
    """A one-cell presentation whose src path has one step with ``fields``."""
    step = {"rule": "r", "dir": 1, "at": 0}
    path = {"source": "aa", "steps": [dict(step, **fields)]}
    return {
        "generators": ["a"],
        "rules": [{"id": "r", "lhs": "aa", "rhs": "a"}],
        "three_cells": [{"id": "c", "src": path, "tgt": {"source": "aa", "steps": [step]}}],
    }


class TestMalformedInput:
    """Malformed documents exit 2 through the loaders, never a traceback."""

    RULE = {"id": "r", "lhs": "aa", "rhs": "a"}
    CASES = {
        "nested arrays": ("complete", "[" * 100_000),
        "undecodable bytes": ("complete", b"\xff\xfe{"),
        "lhs not a string": ("complete", {"generators": ["a"], "rules": [dict(RULE, lhs=5)]}),
        "rhs not a string": ("complete", {"generators": ["a"], "rules": [dict(RULE, rhs=["a"])]}),
        "rule id a list": ("complete", {"generators": ["a"], "rules": [dict(RULE, id=["r"])]}),
        "rules not a list": ("complete", {"generators": ["a"], "rules": 5}),
        "generator a list": ("complete", {"generators": [["a"]], "rules": []}),
        "3-cell id a list": (
            "reduce",
            {
                "generators": ["a"],
                "rules": [RULE],
                "three_cells": [{"id": ["c"], "src": {"source": "aa", "steps": []},
                                 "tgt": {"source": "aa", "steps": []}}],
            },
        ),
        "three_cells not a list": ("reduce", {"generators": ["a"], "rules": [], "three_cells": 5}),
        "duplicate 3-cell id": (
            "reduce",
            {
                "generators": ["a"],
                "rules": [RULE],
                "three_cells": [{"id": "c", "src": {"source": "aa", "steps": []},
                                 "tgt": {"source": "aa", "steps": []}}] * 2,
            },
        ),
        "coxeter float entry": ("coxeter", {"generators": ["s", "t"], "m": [[1, 2.5], [2.5, 1]]}),
        "artin float entry": ("artin", {"generators": ["s", "t"], "m": [[1, 2.5], [2.5, 1]]}),
        "garside float entry": (
            "garside",
            {"generators": ["r", "s", "t"], "m": [[1, 3.0, 2], [3.0, 1, 3], [2, 3, 1]]},
        ),
        "matrix name not a string": ("coxeter", {"generators": [1, 2], "m": [[1, 3], [3, 1]]}),
        "generator name with a dot": (
            "artin",
            {"generators": ["a.b", "c", "d"], "m": [[1, 3, 2], [3, 1, 3], [2, 3, 1]]},
        ),
        "empty generator name": (
            "artin",
            {"generators": ["", "s", "t"], "m": [[1, 3, 2], [3, 1, 3], [2, 3, 1]]},
        ),
        "coxeter name with a dot": (
            "coxeter",
            {"generators": ["a.b", "", "d"], "m": [[1, 3, 2], [3, 1, 3], [2, 3, 1]]},
        ),
        "coxeter empty name": (
            "coxeter",
            {"generators": ["", "s", "t"], "m": [[1, 3, 2], [3, 1, 3], [2, 3, 1]]},
        ),
        "step dir a float": ("reduce", _cell_with_step(dir=1.9)),
        "step dir a bool": ("reduce", _cell_with_step(dir=True)),
        "step dir a string": ("reduce", _cell_with_step(dir="1")),
        "step offset a float": ("reduce", _cell_with_step(at=0.7)),
        "3-cell side does not replay": ("reduce", _cell_with_step(at=1)),
        "3-cell sides not parallel": (
            "reduce",
            {
                "generators": ["a"],
                "rules": [RULE],
                "three_cells": [{"id": "c", "src": {"source": "aa", "steps": []},
                                 "tgt": _cell_with_step()["three_cells"][0]["tgt"]}],
            },
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exit_2(self, tmp_path, capsys, case):
        cmd, doc = self.CASES[case]
        f = tmp_path / "doc.json"
        if isinstance(doc, bytes):
            f.write_bytes(doc)
        else:
            f.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        part = tmp_path / "part.json"  # empty, so only the presentation can fail
        part.write_text("{}")
        argv = {
            "complete": ["complete", str(f), "--order", "deglex:a"],
            "reduce": ["reduce", str(f), "--part", str(part)],
        }.get(cmd, [cmd, str(f)])
        assert main(argv) == 2
        assert "parse error" in capsys.readouterr().err


def _places(doc, at=()):
    """The path to each dict value and list element of a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for k, v in items:
        yield at + (k,)
        yield from _places(v, at + (k,))


class TestMutatedDocuments:
    """A valid document with JSON atoms put at random places exits 0, 2, 3
    or 4 under small budgets, never with a traceback."""

    ATOMS = ["", "s", "t", "a", "alpha", "c0", 0, -1, 10**30, 1.5, True, None, [], {}]
    A2 = ser.matrix_to_dict(MATRICES["A2"])
    B3PLUS = {
        "generators": ["s", "t", "a"],
        "rules": [
            {"id": "alpha", "lhs": "ta", "rhs": "as"},
            {"id": "beta", "lhs": "st", "rhs": "a"},
        ],
    }
    ARGS = {
        "complete": ["--order", "deglex:t,s,a", "--budget-rules", "20",
                     "--budget-branchings", "200", "--budget-steps", "1000"],
        "garside": ["--budget-cosets", "8", "--budget-rules", "20", "--budget-branchings", "200"],
        "artin": ["--budget-cosets", "8"],
        "coxeter": ["--budget-cosets", "8"],
    }  # fmt: skip

    @pytest.fixture(scope="class")
    def documents(self, b3plus_completed):
        """Per subcommand, its valid input documents: ``reduce`` gets the
        B3+ completion and the part of its first sphere alone."""
        from test_tietze import b3plus_part

        p31, _ = b3plus_completed
        part = b3plus_part(p31)
        one_sphere = dataclasses.replace(part, two_cells=(), three_cells=(), spheres=part.spheres[:1])
        # through JSON, so that each place is its own: a written document
        # shares its step dicts, word strings and a part's path dicts
        reduce_docs = [ser.polygraph31_to_dict(p31), ser.part_to_dict(one_sphere, p31)]
        return {
            "complete": [self.B3PLUS],
            "reduce": json.loads(json.dumps(reduce_docs)),
            "garside": [self.A2],
            "artin": [self.A2],
            "coxeter": [self.A2],
        }

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_exits_cleanly(self, documents, data):
        cmd = data.draw(st.sampled_from(sorted(documents)))
        docs = copy.deepcopy(documents[cmd])
        for _ in range(data.draw(st.integers(1, 3))):
            *at, last = data.draw(st.sampled_from(list(_places(docs))))
            parent = docs
            for k in at:
                parent = parent[k]
            parent[last] = copy.deepcopy(data.draw(st.sampled_from(self.ATOMS)))
        with tempfile.TemporaryDirectory() as tmp:
            files = [os.path.join(tmp, f"doc{k}.json") for k in range(len(docs))]
            for f, doc in zip(files, docs):
                with open(f, "w") as fh:
                    json.dump(doc, fh)
            argv = [cmd, files[0], "--out", os.path.join(tmp, "out.json")]
            argv += ["--part", files[1]] if cmd == "reduce" else self.ARGS[cmd]
            assert main(argv) in (0, 2, 3, 4)


class TestParseErrorMessages:
    """Each loader check that rejects a document exits 2 with its message;
    a case's third field is the order of ``complete`` or the part of
    ``reduce``."""

    RULE = {"id": "r", "lhs": "aa", "rhs": "a"}
    IDLE = {"source": "aa", "steps": []}
    P31 = {
        "generators": ["a"],
        "rules": [RULE],
        "three_cells": [{"id": "c", "src": IDLE, "tgt": IDLE}],
    }
    CASES = {
        "rule entry without id": (
            "complete",
            {"generators": ["a"], "rules": [{"lhs": "aa", "rhs": "a"}]},
            "deglex:a",
            "bad rule entry",
        ),
        "path without steps": (
            "reduce",
            dict(P31, three_cells=[{"id": "c", "src": {"source": "aa"}, "tgt": IDLE}]),
            {},
            "bad path document: 'steps'",
        ),
        "matrix without m": (
            "coxeter",
            {"generators": ["s", "t"]},
            None,
            "bad Coxeter matrix document: 'm'",
        ),
        "sphere without lhs": (
            "reduce",
            P31,
            {"spheres": [{"source": IDLE, "target": IDLE, "rhs": [], "redundant": "c"}]},
            "bad sphere document: 'lhs'",
        ),
        "three_cells entry without cell": (
            "reduce",
            P31,
            {"three_cells": [{"redundant": "r"}]},
            "bad collapsible part document: 'cell'",
        ),
        "empty lhs": (
            "complete",
            {"generators": ["a"], "rules": [dict(RULE, lhs="")]},
            "deglex:a",
            "rule 'r': empty left-hand side",
        ),
        "duplicate generator names": (
            "complete",
            {"generators": ["a", "a"], "rules": []},
            "deglex:a",
            "generator names must be unique",
        ),
        "duplicate rule id": (
            "complete",
            {"generators": ["a"], "rules": [RULE, RULE]},
            "deglex:a",
            "duplicate rule name 'r'",
        ),
        "unknown rule in a path": (
            "reduce",
            dict(
                P31,
                three_cells=[
                    {
                        "id": "c",
                        "src": {"source": "aa", "steps": [{"rule": "q", "dir": 1, "at": 0}]},
                        "tgt": IDLE,
                    }
                ],
            ),
            {},
            "no rule named 'q'",
        ),
        "matrix m a string": (
            "coxeter",
            {"generators": ["s", "t"], "m": "ab"},
            None,
            "m must be a JSON array, not str",
        ),
        "matrix m an object": (
            "coxeter",
            {"generators": ["s", "t"], "m": {"a": 1}},
            None,
            "m must be a JSON array, not dict",
        ),
        "matrix row a string": (
            "coxeter",
            {"generators": ["s", "t"], "m": [[1, 3], "31"]},
            None,
            "a row of m must be a JSON array, not str",
        ),
        "diagonal not 1": (
            "coxeter",
            {"generators": ["s", "t"], "m": [[2, 3], [3, 1]]},
            None,
            "diagonal entries must be 1",
        ),
        "asymmetric matrix": (
            "coxeter",
            {"generators": ["s", "t"], "m": [[1, 3], [4, 1]]},
            None,
            "Coxeter matrix must be symmetric",
        ),
        "off-diagonal 1": (
            "coxeter",
            {"generators": ["s", "t"], "m": [[1, 1], [1, 1]]},
            None,
            "off-diagonal entries must be >= 2 (or 0)",
        ),
        "negative entry": (
            "coxeter",
            {"generators": ["s", "t"], "m": [[1, -3], [-3, 1]]},
            None,
            "entries must be non-negative",
        ),
        "generators a string": (
            "complete",
            {"generators": "ab", "rules": []},
            "deglex:a",
            "generators must be a JSON array, not str",
        ),
        "part spheres an object": (
            "reduce",
            P31,
            {"spheres": {}},
            "spheres must be a JSON array, not dict",
        ),
        "shortlex order": (
            "complete",
            {"generators": ["a"], "rules": [RULE]},
            "shortlex:a",
            "unsupported order 'shortlex:a'; use deglex:<names>",
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exit_2_with_message(self, tmp_path, capsys, case):
        cmd, doc, extra, message = self.CASES[case]
        f = tmp_path / "doc.json"
        f.write_text(json.dumps(doc))
        argv = [cmd, str(f)]
        if cmd == "complete":
            argv += ["--order", extra]
        elif cmd == "reduce":
            part = tmp_path / "part.json"
            part.write_text(json.dumps(extra))
            argv += ["--part", str(part)]
        assert main(argv) == 2
        assert f"parse error: {message}" in capsys.readouterr().err


class TestCoxeterCmd:
    def test_h3(self, tmp_path, capsys):
        f = write_matrix(tmp_path, "H3")
        assert main(["coxeter", str(f)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["order"] == 120
        assert doc["longest_length"] == 15

    @pytest.mark.parametrize(
        "names, word",
        [(["r", "s", "t"], "rsrtsr"), (["ab", "a", "b"], "ab.a.ab.b.a.ab")],
    )
    def test_longest_word_splits_into_names(self, tmp_path, capsys, names, word):
        # joined like Polygraph2.word_str: "." once some name is not one letter
        f = tmp_path / "a3.json"
        f.write_text(json.dumps({"generators": names, "m": [[1, 3, 2], [3, 1, 3], [2, 3, 1]]}))
        assert main(["coxeter", str(f)]) == 0
        assert json.loads(capsys.readouterr().out)["longest_word"] == word

    def test_infinite_budget_exit(self, tmp_path):
        f = write_matrix(tmp_path, "Atilde2")
        assert main(["coxeter", str(f), "--budget-cosets", "2000"]) == 4

    def test_huge_entry_bounded(self, tmp_path, capsys):
        # bounded before any relator is built: (s t)^(10^30) is never spelled
        f = tmp_path / "huge.json"
        m = 10**30
        f.write_text(json.dumps({"generators": ["s", "t"], "m": [[1, m], [m, 1]]}))
        assert main(["coxeter", str(f)]) == 4
        assert f"order {2 * m}" in capsys.readouterr().err

    def test_large_dihedral(self, tmp_path, capsys):
        f = tmp_path / "i2_600.json"
        f.write_text(json.dumps({"generators": ["s", "t"], "m": [[1, 600], [600, 1]]}))
        assert main(["coxeter", str(f), "--budget-cosets", "5000"]) == 0
        assert json.loads(capsys.readouterr().out)["order"] == 1200


class TestOutputErrors:
    # a write that fails is exit 2 with one stderr line, like an unreadable input

    @pytest.mark.parametrize("where", ["missing directory", "directory"])
    def test_out_not_writable(self, tmp_path, capsys, where):
        f = write_matrix(tmp_path, "A3")
        out = tmp_path / "missing" / "a3.json" if where == "missing directory" else tmp_path
        assert main(["coxeter", str(f), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"parse error: cannot write {out}: ")
        assert err.count("\n") == 1

    def test_stdout_closed_early(self, tmp_path, capsys, monkeypatch):
        class Closed:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            flush = write

        f = write_matrix(tmp_path, "A3")
        monkeypatch.setattr(sys, "stdout", Closed())
        assert main(["coxeter", str(f)]) == 2
        assert capsys.readouterr().err == "parse error: cannot write stdout: [Errno 32] Broken pipe\n"

    def test_closed_pipe_leaves_nothing_for_exit(self, tmp_path):
        # a real pipe whose reader is gone, with stdout block-buffered as it
        # is by default: the buffered rest must not be reported again when
        # the interpreter flushes stdout at exit
        f = write_matrix(tmp_path, "H3")
        read, write = os.pipe()
        os.close(read)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(px.__file__))
        with os.fdopen(write, "wb") as stdout:
            run = subprocess.run(
                [sys.executable, "-m", "polycox.cli", "coxeter", str(f)],
                stdout=stdout, stderr=subprocess.PIPE, env=env, text=True, timeout=60,
            )  # fmt: skip
        assert run.returncode == 2
        assert run.stderr == "parse error: cannot write stdout: [Errno 32] Broken pipe\n"


def _emitted(doc) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out.json")
        cli._emit(doc, out)
        with open(out, "rb") as fh:
            return fh.read()


_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text()  # non-ASCII and control characters included
)
_KEYS = st.text(max_size=3) | st.integers() | st.floats() | st.booleans() | st.none()
_VALUES = st.recursive(
    _SCALARS,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(_KEYS, kids, max_size=4),
    max_leaves=20,
)


class TestIndentedWriter:
    """``_emit`` writes the bytes of ``json.JSONEncoder(indent=2)`` and a
    newline; the golden tests check every document they write the same way."""

    @settings(max_examples=100, deadline=None)
    @example(
        value={"a": [None, True, -1.5, float("nan"), {}, [], {1: "x"}, "\u00e9\n"], 2: "k"},
        step={"rule": "r", "dir": -1, "at": 10**30},
    )  # every kind of value, whatever the draws
    @given(
        value=_VALUES,
        step=st.dictionaries(st.text(max_size=3), st.text() | st.integers(), min_size=1, max_size=3),
    )
    def test_stdlib_bytes(self, value, step):
        # one small dict shared at three depths, and a dict and a list over
        # the size that is written item by item
        big = {str(k): step if k % 2 else k for k in range(cli._BIG + 1)}
        doc = {"value": value, "step": step, "deeper": [step, {"again": step}], "big": big}
        doc["nested"] = {"long": [value, step, *range(cli._BIG)]}
        for d in (doc, value, [value, step]):
            assert _emitted(d) == (json.JSONEncoder(indent=2).encode(d) + "\n").encode()


class TestSharedStepsOnRead:
    """A read gives one dict for each distinct step of exact types; any
    other object is decoded as ``json.load`` decodes it."""

    @staticmethod
    def write_part(tmp_path, garside_parts, edit=None):
        gc, part = garside_parts("A2xA1")
        completed, part_file = tmp_path / "completed.json", tmp_path / "part.json"
        completed.write_text(json.dumps(ser.polygraph31_to_dict(gc.p31), indent=2))
        doc = json.loads(json.dumps(ser.part_to_dict(part, gc.p31)))
        if edit:
            edit(doc)
        part_file.write_text(json.dumps(doc, indent=2))
        return gc.p31, completed, part_file

    def test_written_part(self, tmp_path, garside_parts):
        _, completed, part_file = self.write_part(tmp_path, garside_parts)
        for f in (completed, part_file):
            assert cli._load_json(str(f)) == json.loads(f.read_text())
        doc = cli._load_json(str(part_file))
        paths = []
        for sphere in doc["spheres"]:
            paths += [sphere["source"], sphere["target"]]
            paths += [q for e in sphere["lhs"] + sphere["rhs"] for q in (e["pre"], e["post"])]
        steps = [s for q in paths for s in q["steps"]]
        values = {(s["rule"], s["dir"], s["at"]) for s in steps}
        assert len({id(s) for s in steps}) == len(values) < len(steps)

    @pytest.mark.parametrize("field, bad, good", [("dir", True, 1), ("dir", 1.0, 1), ("at", False, 0)])
    def test_equal_value_of_another_type(self, tmp_path, garside_parts, capsys, field, bad, good):
        # a valid step read first, then one equal to it as a value (True ==
        # 1 == 1.0, False == 0); reduce refuses it as it refuses it alone
        def edit(doc):
            sphere = doc["spheres"][0]
            sphere["source"]["steps"].insert(0, dict(valid, **{field: good}))
            sphere["target"]["steps"].insert(0, dict(valid, **{field: bad}))

        gc, _ = garside_parts("A2xA1")
        valid = {"rule": gc.p31.base.rules[0].name, "dir": 1, "at": 1}
        p31, completed, part_file = self.write_part(tmp_path, garside_parts, edit)
        sphere = cli._load_json(str(part_file))["spheres"][0]
        first, second = sphere["source"]["steps"][0], sphere["target"]["steps"][0]
        assert first == second and first is not second
        assert type(second[field]) is type(bad)
        with pytest.raises(px.InputError) as alone:
            ser.path_from_dict({"source": "", "steps": [second]}, p31.base)
        assert main(["reduce", str(completed), "--part", str(part_file)]) == 2
        assert capsys.readouterr().err == f"parse error: {alone.value}\n"
