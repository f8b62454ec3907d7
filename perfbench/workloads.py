"""The benchmark's workloads: inputs made from a seed, timed jobs, and
untimed output checks.

A workload runs in passes; a pass is a fixed list of jobs.  ``jobs``
prepares one pass (untimed), each ``Job.run`` is timed, and each
``Job.check`` runs after the pass against references from ``oracles``
(brute force or hand-written tables, never the code path under test).
"""

from __future__ import annotations

import json
import random
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracles
import polycox as px
from polycox import cli, serialize
from polycox.words import Deglex


@dataclass
class Job:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]


def _chain(*ms: int) -> list[list[int]]:
    n = len(ms) + 1
    m = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    for i, v in enumerate(ms):
        m[i][i + 1] = m[i + 1][i] = v
    return m


TYPES = {
    "A2": _chain(3),
    "B2": _chain(4),
    "A3": _chain(3, 3),
    "H4": _chain(5, 3, 3),
    "D4": [[1, 3, 2, 2], [3, 1, 3, 3], [2, 3, 1, 2], [2, 3, 2, 1]],
    # Bourbaki labelling: 1-3-4-5-6 in a line, 2 attached to 4
    "E6": [
        [1, 2, 3, 2, 2, 2],
        [2, 1, 2, 3, 2, 2],
        [3, 2, 1, 3, 2, 2],
        [2, 3, 3, 1, 3, 2],
        [2, 2, 2, 3, 1, 3],
        [2, 2, 2, 2, 3, 1],
    ],
    "B2xA1": [[1, 4, 2], [4, 1, 2], [2, 2, 1]],
    "A1^4": [[1 if i == j else 2 for j in range(4)] for i in range(4)],
}
ORDER = {"A2": 6, "A3": 24, "H4": 14400, "D4": 192, "E6": 51840}  # |W|
NAMES = "rstuvwxy"

# (rules, 3-cells, spheres) after complete_garside / garside_reduction_part,
# then (rules, 3-cells) of Gar_3(W)
GARSIDE_COUNTS = {"A3": (620, 12334, 11622, 104, 196), "A2": (14, 30, 20, 6, 2)}
# (rules, 3-cells) of the shortlex completion, and its triple branchings
KB_COUNTS = {"H4": (32, 537), "E6": (50, 623), "D4": (17, 89), "A3": (7, 18)}
KB_TRIPLES = {"D4": 497, "A3": 49}


def relabel(m, perm) -> list[list[int]]:
    """Move generator i to position perm[i], rows and columns together."""
    n = len(m)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[perm[i]][perm[j]] = m[i][j]
    return out


def seeded_perm(seed: int, n: int, salt: str) -> list[int]:
    perm = list(range(n))
    random.Random(f"{salt}:{seed}").shuffle(perm)
    return perm


def matrix(m) -> px.CoxeterMatrix:
    return px.CoxeterMatrix(tuple(NAMES[: len(m)]), tuple(map(tuple, m)))


class Laps:
    """Consecutive stage timings of one job."""

    def __init__(self) -> None:
        self.times: dict[str, float] = {}
        self._t = time.perf_counter()

    def lap(self, stage: str) -> None:
        now = time.perf_counter()
        self.times[stage] = now - self._t
        self._t = now


# -- garside_a3 ---------------------------------------------------------------


def gar3_of(g, gc, red) -> px.Gar3:
    """The Gar_3(W) lookup maps over a reduced completion, as garside_coherent
    builds them."""
    name_of_gen = {name: i for i, name in enumerate(red.base.generators)}
    elt_of_gen = [0] * len(red.base.generators)
    for old_gen, e in enumerate(gc.gp.elt_of_gen):
        elt_of_gen[name_of_gen[gc.gp.pg.generators[old_gen]]] = e
    alpha = {
        (elt_of_gen[r.lhs[0]], elt_of_gen[r.lhs[1]]): idx
        for idx, r in enumerate(red.base.rules)
    }
    return px.Gar3(g, red, elt_of_gen, {e: i for i, e in enumerate(elt_of_gen)}, alpha)


class GarsideChain:
    """The full Garside chain on one relabelling of A3, then the Artin tail."""

    name = "garside_a3"
    trace_passes = 1

    def __init__(self, seed: int, tiny: bool, work_dir: Path) -> None:
        self.type = "A2" if tiny else "A3"
        base = TYPES[self.type]
        self.m = relabel(base, seeded_perm(seed, len(base), self.name))

    def setup(self) -> None:
        self.mat = matrix(self.m)

    def jobs(self, k: int, rec) -> list[Job]:
        return [Job(self.type, self._run, self._check)]

    def _run(self) -> dict:
        laps = Laps()
        g = px.enumerate_group(self.mat)
        laps.lap("enumerate_group")
        gc = px.complete_garside(g)
        laps.lap("complete_garside")
        part = px.garside_reduction_part(gc)
        laps.lap("garside_reduction_part")
        bad = px.validate_collapsible(gc.p31, part)
        laps.lap("validate_collapsible")
        red = px.homotopical_reduce(gc.p31, part, validate=False)
        laps.lap("homotopical_reduce")
        g3 = gar3_of(g, gc, red)
        apart = px.artin_reduction_part(g3)
        abad = px.validate_collapsible(g3.p31, apart)
        ared = px.homotopical_reduce(g3.p31, apart, validate=False)
        direct = px.artin_coherent(self.mat)
        laps.lap("artin_tail")
        return {
            "g": g, "gc": gc, "part": part, "bad": bad, "red": red,
            "abad": abad, "ared": ared, "direct": direct, "stages": laps.times,
        }  # fmt: skip

    def _check(self, out: dict) -> list[str]:
        problems = []
        g, gc, red = out["g"], out["gc"], out["red"]
        if out["bad"] or out["abad"]:
            problems.append(f"validation: {(out['bad'] + out['abad'])[:3]}")
        counts = (
            len(gc.p31.base.rules), len(gc.p31.cells), len(out["part"].spheres),
            len(red.base.rules), len(red.cells),
        )  # fmt: skip
        if counts != GARSIDE_COUNTS[self.type]:
            problems.append(f"counts {counts} != {GARSIDE_COUNTS[self.type]}")
        a_names = {gc.p31.cells[i].name for i, t in enumerate(gc.tags) if t.letter == "A"}
        if {c.name for c in red.cells} != a_names:
            problems.append("Gar_3 cell names differ from the A-family")
        refl = oracles.Reflection(self.m)
        word = {e: g.word[e] for e in gc.gp.elt_of_gen}
        mats = {refl.matrix(w) for w in word.values()}
        if len(mats) != ORDER[self.type] - 1 or not all(map(refl.is_reduced, word.values())):
            problems.append("element words are not the reduced words of W")
        pairs = {(u, v) for u in word for v in word if refl.is_reduced(word[u] + word[v])}
        additive = {
            (u, v, w)
            for u, v in pairs
            for w in word
            if (v, w) in pairs and refl.is_reduced(word[u] + word[v] + word[w])
        }
        if {t.indices for t in gc.tags if t.letter == "A"} != additive:
            problems.append("A-family indices differ from the length-additive triples")
        census = oracles.artin_census(self.m)
        for label, p31 in (("reduced", out["ared"]), ("direct", out["direct"])):
            if px.cell_census(p31) != census:
                problems.append(f"{label} Art_3 census {px.cell_census(p31)} != {census}")
        problems += _z_cells_agree(out["ared"], out["direct"])
        problems += _loop_words(self.m, out["direct"])
        return problems


def _z_cells_agree(red, direct) -> list[str]:
    """The reduction's Z-cells equal the direct ones once rules are matched
    by their left-hand sides."""
    rule_map = {}
    for i, r in enumerate(red.base.rules):
        lhs = tuple(red.base.generators[x] for x in r.lhs)
        for j, d in enumerate(direct.base.rules):
            if lhs == tuple(direct.base.generators[x] for x in d.lhs):
                rule_map[i] = j
    if len(rule_map) != len(red.base.rules) or len(red.cells) != len(direct.cells):
        return ["reduced and direct Art_3 do not match rule for rule"]

    def transport(path):
        steps = [(rule_map[s.rule], s.dir, s.pos) for s in path.steps]
        return px.Path2(direct.base, path.source, steps)

    return [
        f"Z-cell {zd.name} differs from the reduction's"
        for zr, zd in zip(red.cells, direct.cells)
        if not (
            px.paths_equal(transport(zr.src), zd.src)
            and px.paths_equal(transport(zr.tgt), zd.tgt)
        )
    ]


def _loop_words(m, p31) -> list[str]:
    """Each Z-cell's boundary word is a reduced word of its parabolic's w0."""
    problems = []
    triples = oracles.finite_triples(m)
    if len(triples) != len(p31.cells):
        return [f"{len(p31.cells)} Z-cells for {len(triples)} finite parabolics"]
    names = p31.base.generators
    for (i, j, k), cell in zip(triples, p31.cells):
        if cell.name != f"Z({names[i]},{names[j]},{names[k]})":
            problems.append(f"Z-cell {cell.name} in the slot of ({i},{j},{k})")
            continue
        sub = [[m[a][b] for b in (i, j, k)] for a in (i, j, k)]
        local = {i: 0, j: 1, k: 2}
        word = cell.src.source
        if len(word) != oracles.rank3_w0_length(m[i][j], m[i][k], m[j][k]):
            problems.append(f"{cell.name}: loop word of length {len(word)}")
        elif not set(word) <= set(local) or not oracles.Reflection(sub).is_reduced(
            [local[x] for x in word]
        ):
            problems.append(f"{cell.name}: loop word is not a reduced word of w0")
    return problems


# -- kb_coxeter ---------------------------------------------------------------


def coxeter_monoid(m, prec) -> tuple[px.Polygraph2, Deglex]:
    """W as a monoid: ss => 1 and each braid relation, oriented by shortlex."""
    n = len(m)
    rules = [px.Rule(f"i{i}", (i, i), ()) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if m[i][j] == oracles.INF:
                continue
            hi, lo = (i, j) if prec[i] > prec[j] else (j, i)
            lhs = tuple((hi, lo)[t % 2] for t in range(m[i][j]))
            rhs = tuple((lo, hi)[t % 2] for t in range(m[i][j]))
            rules.append(px.Rule(f"b{i}{j}", lhs, rhs))
    return px.Polygraph2([f"s{i}" for i in range(n)], rules), Deglex(tuple(prec))


class KnuthBendix:
    """Generic homotopical completion of finite Coxeter groups under shortlex,
    then the triple confluences of one of them."""

    name = "kb_coxeter"
    trace_passes = 1

    def __init__(self, seed: int, tiny: bool, work_dir: Path) -> None:
        self.inputs = (("D4", False), ("A3", True)) if tiny else (
            ("H4", False), ("E6", False), ("D4", True)
        )
        self.relabelled = {}
        for t, _ in self.inputs:
            perm = seeded_perm(seed, len(TYPES[t]), f"{self.name}:{t}")
            prec = [0] * len(perm)
            for i, p in enumerate(perm):
                prec[p] = i + 1  # the precedence moves with its generator
            self.relabelled[t] = (relabel(TYPES[t], perm), prec)
        self._verified: dict[tuple, int] = {}

    def setup(self) -> None:
        pass  # each pass builds its own presentations, untimed

    def jobs(self, k: int, rec) -> list[Job]:
        out = []
        for t, triples in self.inputs:
            m, prec = self.relabelled[t]
            p, order = coxeter_monoid(m, prec)
            out.append(
                Job(
                    t,
                    lambda p=p, order=order, triples=triples: self._run(p, order, triples),
                    lambda res, t=t, prec=prec: self._check(t, prec, res),
                )
            )
        return out

    @staticmethod
    def _run(p, order, triples: bool):
        p31 = px.homotopical_complete(p, order)
        if not triples:
            return p31, None
        lookup = px.cells_by_branching(p31)
        memo: dict = {}
        checks = [
            px.generating_triple_confluence(p31, tb, lookup=lookup, memo=memo).check(p31)
            for tb in px.triple_critical_branchings(p31.base)
        ]
        return p31, checks

    def _check(self, t: str, prec, res) -> list[str]:
        p31, checks = res
        rules = p31.base.rules
        problems = [
            f"rule {r.name} is not oriented by shortlex"
            for r in rules
            if not oracles.shortlex_greater(prec, r.lhs, r.rhs)
        ]
        key = (len(prec), tuple(r.lhs for r in rules))
        if key not in self._verified:
            self._verified[key] = oracles.count_irreducible(len(prec), key[1], ORDER[t])
        if self._verified[key] != ORDER[t]:
            problems.append(f"{self._verified[key]} irreducible words, |W({t})| = {ORDER[t]}")
        counts = (len(rules), len(p31.cells))
        if counts != KB_COUNTS[t]:
            problems.append(f"counts {counts} != {KB_COUNTS[t]}")
        if checks is not None:
            if len(checks) != KB_TRIPLES[t]:
                problems.append(f"{len(checks)} triple branchings, expected {KB_TRIPLES[t]}")
            if any(checks):
                problems.append(f"{sum(map(bool, checks))} spheres fail their check")
        return problems


# -- artin_random -------------------------------------------------------------

# each matrix's off-diagonal entries are a seeded shuffle of this multiset
ENTRIES = {8: [2] * 10 + [3] * 7 + [4] * 4 + [5] + [6] * 2 + [0] * 4, 4: [2, 2, 3, 4, 5, 0]}


class ArtinRandom:
    """artin_coherent and the `polycox artin` rendering on random matrices."""

    name = "artin_random"
    trace_passes = 5

    def __init__(self, seed: int, tiny: bool, work_dir: Path) -> None:
        self.rank = 4 if tiny else 8
        self.batch = 10 if tiny else 20
        self.seed = seed

    def setup(self) -> None:
        self.first_batch = self._batch(0)

    def _batch(self, k: int) -> list[px.CoxeterMatrix]:
        rng = random.Random(f"{self.name}:{self.seed}:{k}")
        out = []
        for _ in range(self.batch):
            vals = list(ENTRIES[self.rank])
            rng.shuffle(vals)
            m = [[1] * self.rank for _ in range(self.rank)]
            for i in range(self.rank):
                for j in range(i + 1, self.rank):
                    m[i][j] = m[j][i] = vals.pop()
            out.append(matrix(m))
        return out

    def jobs(self, k: int, rec) -> list[Job]:
        batch = self.first_batch if k == 0 else self._batch(k)
        return [
            Job(f"{k}.{i}", lambda mat=mat: self._run(mat), lambda out, mat=mat: self._check(mat, out))
            for i, mat in enumerate(batch)
        ]

    @staticmethod
    def _run(mat):
        p31 = px.artin_coherent(mat)
        census = px.cell_census(p31)
        meta = {
            "census": list(census),
            "letters": list(mat.names),
            "cells_rendered": {
                c.name: {"src": serialize.render_path(c.src), "tgt": serialize.render_path(c.tgt)}
                for c in p31.cells
            },
        }
        text = json.dumps(serialize.polygraph31_to_dict(p31, meta), indent=2)
        return p31, census, meta, text

    @staticmethod
    def _check(mat, out) -> list[str]:
        p31, census, meta, text = out
        m = mat.m
        problems = []
        if census != oracles.artin_census(m):
            problems.append(f"census {census} != {oracles.artin_census(m)}")
        problems += _loop_words(m, p31)
        if set(meta["cells_rendered"]) != {c.name for c in p31.cells} or not text:
            problems.append("rendering does not list every Z-cell")
        return problems


# -- reduce_json --------------------------------------------------------------


class ReduceJson:
    """Write a completed presentation and its collapsible part, then run
    `polycox reduce` on them in-process."""

    name = "reduce_json"
    trace_passes = 1

    def __init__(self, seed: int, tiny: bool, work_dir: Path) -> None:
        self.types = ("B2",) if tiny else ("B2xA1", "A1^4")
        self.m = {
            t: relabel(TYPES[t], seeded_perm(seed, len(TYPES[t]), f"{self.name}:{t}"))
            for t in self.types
        }
        self.work_dir = work_dir
        self._reference: dict[str, dict] = {}

    def setup(self) -> None:
        self.inputs = {}
        for t in self.types:
            gc = px.complete_garside(px.enumerate_group(matrix(self.m[t])))
            self.inputs[t] = (gc.p31, px.garside_reduction_part(gc))

    def jobs(self, k: int, rec) -> list[Job]:
        out = []
        for t in self.types:
            d = self.work_dir / f"{k}-{t}"
            d.mkdir(parents=True, exist_ok=True)
            out.append(
                Job(t, lambda t=t, d=d: self._run(t, d, rec), lambda res, t=t: self._check(t, res))
            )
        return out

    def _run(self, t: str, d: Path, rec):
        p31, part = self.inputs[t]
        src, part_file, result = d / "in.json", d / "part.json", d / "r.json"
        with rec.span("serialize.write"):
            for path, doc in (
                (src, serialize.polygraph31_to_dict(p31)),
                (part_file, serialize.part_to_dict(part, p31)),
            ):
                with open(path, "w") as fh:
                    json.dump(doc, fh, indent=2)
        rec.count("serialize.write.bytes", src.stat().st_size + part_file.stat().st_size)
        with rec.span("cli.reduce"):
            rc = cli.main(["reduce", str(src), "--part", str(part_file), "--out", str(result)])
        return rc, result, d

    def _check(self, t: str, res) -> list[str]:
        rc, result, d = res
        try:
            if rc != 0:
                return [f"polycox reduce exited {rc}"]
            if t not in self._reference:
                p31, part = self.inputs[t]
                reduced = px.homotopical_reduce(p31, part, validate=False)
                self._reference[t] = serialize.polygraph31_to_dict(reduced)
            with open(result) as fh:
                surviving = json.load(fh)["surviving"]
            if surviving != self._reference[t]:
                return ["r.json surviving differs from the in-memory reduction"]
            return []
        finally:
            shutil.rmtree(d, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (GarsideChain, KnuthBendix, ArtinRandom, ReduceJson)}
