"""Golden outputs: the SHA-256 of the JSON that ``polycox coxeter``,
``polycox garside``, ``polycox artin`` and ``polycox complete`` print
must not change under a refactor.

The pinned digests cover the group order and the lengths, in element-id
order, of seven Coxeter groups (which pins the numbering Todd-Coxeter
gives the elements), the completed and reduced Garside presentations
of A2xA1 and A3 (rules, 3-cells, their boundaries and family tags, in
output order), Artin's coherent presentation of every rank-3 type in
conftest.py and of A4, B4, F4 and E8, and the Knuth-Bendix completion
of the README's B3+ example and of the shortlex Coxeter monoid of D4,
which adjoins 7 rules.  The
reduction digests pin ``homotopical_reduce`` along the Garside part of
S(Gar_2(W)) and the Artin part of Gar_3(W) for the types the CLI digests
leave out.  A change that is meant to alter these outputs updates the
digests and says why.
"""

import hashlib
import json

import pytest

import polycox as px
from polycox import serialize as ser
from polycox import cli
from polycox.cli import main

from conftest import E8, MATRICES, coxeter_monoid


@pytest.fixture(autouse=True)
def stdlib_json(monkeypatch, tmp_path):
    """Every document a golden run reads decodes as ``json.load`` decodes
    it, and every document it writes is ``json.JSONEncoder(indent=2)``'s
    bytes and a newline."""
    load, emit = cli._load_json, cli._emit

    def checked_load(path):
        doc = load(path)
        with open(path) as fh:
            assert doc == json.load(fh)
        return doc

    def checked_emit(doc, out):
        emit(doc, str(tmp_path / "emitted.json"))
        want = json.JSONEncoder(indent=2).encode(doc) + "\n"
        assert (tmp_path / "emitted.json").read_bytes() == want.encode()
        emit(doc, out)

    monkeypatch.setattr(cli, "_load_json", checked_load)
    monkeypatch.setattr(cli, "_emit", checked_emit)


GOLDEN = {
    ("garside", "A2xA1", "completed"): "55c208c46654586272accf6d750dc7fd8e83b09c4a57a4e8ae543e9aed7166d9",
    ("garside", "A2xA1", "reduced"): "2d5a7be8af74fc7a0a673f9a856a787cfb7b8e3f04a75745395e344802b0efa3",
    ("garside", "A3", "completed"): "d9fc8b3a5f243b162afa4340fcaf75189d5790290b123428ba38040fbc29e028",
    ("garside", "A3", "reduced"): "23cf9f3f1e316cc834e8c71dda9b78ad943bb430a7bbc12159e5ae1c8704b44d",
    ("artin", "A1^3", None): "a7914b37a379ef7a687d87fa2df8789fcc0ca4c04c42354c486377b13485eae8",
    ("artin", "A2xA1", None): "aee684b61752d25b4b9887e635e3530c4aae53ad2e44cdd73287f00aa92c5e41",
    ("artin", "A3", None): "cb3f7d8a2e2f5e6f48df3e6215ab687ad24f85271162a42c38adf1daf4ac2490",
    ("artin", "B3", None): "b603e868834080745f80eb9496c7fc8331dbb29a879ed34d5d9630e68a616bbe",
    ("artin", "H3", None): "e7743bf59b087bf8dbd1d17db13671466f9ab4e9cb03896e33066092b223d4b6",
    ("artin", "I5xA1", None): "c64ac8d307c8c75eb7f964d93507c6db72e15bf69a165a8dcaaa36ac3d1b5d09",
    ("artin", "Atilde2", None): "122623d4003de481bc3dfadb0ed597dfc8f291dcdfd9294742abb4a69b0da962",
}


# `polycox artin` at rank 4 and 8, where parabolics of one type share their
# Z-cell; kept apart from GOLDEN, whose Artin rows are the rank-3 types
ARTIN_GOLDEN = {
    "A4": "25391aec16d497da8a96fdddab748a7b8226805ce3f6a7e2d2802104919934c7",
    "B4": "524b0a41f724d0b166fae15f3fe1c49eeaf97e6d4d5e84042b50c053e4595ff4",
    "F4": "a19ba7636601026f6d3dcf0b911849da028ee78d98a86a1d6fda1f78b78b2418",
    "E8": "14a70d1d4265be53b902389c346871e624d64355ecafba6b60b18fa59e339094",
}


# `polycox coxeter`: its `lengths` list is in element-id order, so these
# pin the numbering that every later layer reads
COXETER_GOLDEN = {
    "A1^3": "8bfc76643df0043f3294d6f445b5348d3c01d02c12ed2800617062fb92b05fcc",
    "A3": "bc9edfdb33d8f341c068c110e6dbfa08954fcda2f510ff391c3ae2e659a07611",
    "B3": "7a4e7d17b77508f88dd94b77ef6ab0050c7b64e0b90350ce176a983dea279bcd",
    "H3": "880793fd12c33772a9aba48e96d63e79c065fb8c600d1645f4459f8ba5598517",
    "I5xA1": "40cdd19e4c87c14520cfc4a4ab1c80c210f52861401bc6c6d3c2f90da8610cad",
    "D4": "197544932b4bd9344ce2bfbadad4947560a818a5a59bffedd207f56b63fd8369",
    "F4": "f5110af171034492b1d895a802b5e8ed685528c9b384249868da9531c0a8cee5",
}


B3PLUS = {
    "generators": ["s", "t", "a"],
    "rules": [
        {"id": "alpha", "lhs": "ta", "rhs": "as"},
        {"id": "beta", "lhs": "st", "rhs": "a"},
    ],
}


COMPLETE_GOLDEN = {
    ("B3+", "deglex:t,s,a"): (
        B3PLUS,
        "0646f1592e6efa54961a2b32fe5979979441c38604934f40a46451aa7238434a",
    ),
    ("D4", "deglex:s3,s2,s1,s0"): (
        coxeter_monoid("D4"),
        "029cb4d890c258609b25b3fa041030d8be0e51e24aad8ac93f0d5dbcad290ce0",
    ),
}


@pytest.mark.parametrize("name,order", sorted(COMPLETE_GOLDEN), ids=str)
def test_complete_digest(tmp_path, capsys, name, order):
    doc, digest = COMPLETE_GOLDEN[(name, order)]
    f = tmp_path / "presentation.json"
    f.write_text(json.dumps(doc))
    assert main(["complete", str(f), "--order", order]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_covers_every_rank3_type():
    rank3 = {name for name, m in MATRICES.items() if m.rank == 3}
    assert {name for cmd, name, _ in GOLDEN if cmd == "artin"} == rank3


@pytest.mark.parametrize(
    "cmd,name,stage", sorted(GOLDEN, key=str), ids=str
)
def test_stdout_digest(tmp_path, capsys, cmd, name, stage):
    f = tmp_path / "matrix.json"
    f.write_text(json.dumps(ser.matrix_to_dict(MATRICES[name])))
    argv = [cmd, str(f)] + (["--stage", stage] if stage else [])
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[(cmd, name, stage)]


@pytest.mark.parametrize("name", sorted(ARTIN_GOLDEN))
def test_artin_digest(tmp_path, capsys, name):
    f = tmp_path / "matrix.json"
    f.write_text(json.dumps(ser.matrix_to_dict(E8 if name == "E8" else MATRICES[name])))
    assert main(["artin", str(f)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == ARTIN_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(COXETER_GOLDEN))
def test_coxeter_digest(tmp_path, capsys, name):
    f = tmp_path / "matrix.json"
    f.write_text(json.dumps(ser.matrix_to_dict(MATRICES[name])))
    assert main(["coxeter", str(f)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == COXETER_GOLDEN[name]


def test_out_file_matches_stdout(tmp_path, capsys):
    # --out streams the same bytes that stdout receives
    f = tmp_path / "matrix.json"
    f.write_text(json.dumps(ser.matrix_to_dict(MATRICES["A2xA1"])))
    argv = ["garside", str(f), "--stage", "completed"]
    assert main(argv) == 0
    out = capsys.readouterr().out.encode()
    dest = tmp_path / "out.json"
    assert main(argv + ["--out", str(dest)]) == 0
    assert dest.read_bytes() == out
    assert hashlib.sha256(out).hexdigest() == GOLDEN[("garside", "A2xA1", "completed")]


# SHA-256 of serialize.polygraph31_to_dict(homotopical_reduce(...)), dumped
# by json.dumps, for the Garside part of S(Gar_2(W)) and the Artin part of
# Gar_3(W); the Artin parts remove generators, so these cover expansion
REDUCE_GOLDEN = {
    ("garside", "A2"): "7ad3feaf386d292637fbe13d3588b2cfa28d8a66dfbf40d92dbf8f485f197b97",
    ("garside", "B2"): "61b9b1010e95cc6000534bd5fd4fa4289b47044033f3f6d67223fd302dd6ec09",
    ("garside", "I5"): "0baeef5d599f5cbda8c1ae28512fff2d7039aa230cd032d2f2242487f05f0bf0",
    ("garside", "A1^3"): "3e71c94df764d0d7d73910240d7bc3d77e956eadae9660562d6c1eb63b77d9a2",
    ("garside", "I5xA1"): "3df3682d321c3de613805b14b878eaceaf20bc078295aa6acf50a4736848c32f",
    ("artin", "A1^3"): "d747d7ee91b12af1ba811b7dceda8ac54b86291e194f9e6b28b2e2664be20dca",
    ("artin", "A2xA1"): "a4c8735f49b4882e4cfaa31dd5ce1703d0fbd7af331d080becce59578e12b7d6",
    ("artin", "I5xA1"): "df1042eae4ca6062b6ae61c70bcd32b7bdf8cb55acc152247ed9061989ed25f4",
    ("artin", "A3"): "97d859f04966faf7457a365fdf45a7a7ff2e92367812e77ea90be6806acd1ae4",
}


@pytest.mark.parametrize("part,name", sorted(REDUCE_GOLDEN), ids=str)
def test_reduction_digest(gar3, part, name):
    g3 = gar3(name)
    if part == "garside":
        red = g3.p31  # garside_coherent's reduction along the Garside part
    else:
        red = px.homotopical_reduce(g3.p31, px.artin_reduction_part(g3))
    doc = json.dumps(ser.polygraph31_to_dict(red))
    assert hashlib.sha256(doc.encode()).hexdigest() == REDUCE_GOLDEN[(part, name)]
