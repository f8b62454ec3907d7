import json

import pytest

import polycox as px
from polycox import serialize as ser
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

    def test_step_budget_env(self, tmp_path, b3_file, monkeypatch):
        monkeypatch.setenv("POLYCOX_BUDGET_STEPS", "not-a-number")
        assert main(["complete", str(b3_file), "--order", "deglex:t,s,a"]) == 2
        monkeypatch.setenv("POLYCOX_BUDGET_STEPS", "1000000")
        assert main(["complete", str(b3_file), "--order", "deglex:t,s,a"]) == 0


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

    def test_infinite_group_rejected(self, tmp_path):
        f = write_matrix(tmp_path, "Atilde2")
        assert main(["garside", str(f), "--budget-cosets", "2000"]) == 3

    @pytest.mark.parametrize("stage", ["completed", "reduced"])
    def test_rule_budget_exit(self, tmp_path, capsys, stage):
        # A3 adjoins more than 100 beta rules; the budget stops the run
        # before the overlap search
        f = write_matrix(tmp_path, "A3")
        argv = ["garside", str(f), "--stage", stage, "--budget-rules", "100"]
        assert main(argv) == 4
        assert "rule budget 100 exceeded: reached 101" in capsys.readouterr().err

    def test_branching_budget_exit(self, tmp_path, capsys):
        f = write_matrix(tmp_path, "A2")
        argv = ["garside", str(f), "--stage", "completed", "--budget-branchings", "3"]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert "branching budget 3 exceeded: reached" in err


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


class TestCoxeterCmd:
    def test_h3(self, tmp_path, capsys):
        f = write_matrix(tmp_path, "H3")
        assert main(["coxeter", str(f)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["order"] == 120
        assert doc["longest_length"] == 15

    def test_infinite_budget_exit(self, tmp_path):
        f = write_matrix(tmp_path, "Atilde2")
        assert main(["coxeter", str(f), "--budget-cosets", "2000"]) == 4
