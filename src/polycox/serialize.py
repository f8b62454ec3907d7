"""JSON schemas and text renderers for the engine's value types.

Words serialize as strings of generator names, "."-separated whenever any
generator name of the presentation exceeds one character; both forms are
accepted on input.  Output dictionaries keep ids sorted so golden files
stay diff-stable.
"""

from __future__ import annotations

from .completion import Polygraph31, Sphere3, SphereEntry, ThreeCell
from .coxeter import CoxeterMatrix
from .errors import CoherenceError, InputError, StepError
from .paths import Path2, Step2
from .tietze import (
    CollapsiblePart,
    OrderWitness,
    SphereCollapse,
    ThreeCollapse,
    TwoCollapse,
)
from .words import Polygraph2, Rule, Word


def word_from_str(p: Polygraph2, s: str, memo: dict | None = None) -> Word:
    """The word a string spells; with ``memo``, a table local to one read,
    each distinct string is parsed once and a failed parse is not kept."""
    if memo is not None and type(s) is str:
        w = memo.get(s)
        if w is None:
            w = memo[s] = word_from_str(p, s)
        return w
    if not isinstance(s, str):
        raise InputError(f"a word must be a string, not {s!r}")
    if s == "":
        return ()
    if "." in s:
        names = s.split(".")
    elif p.separator:
        names = [s]  # dots separate letters, so a dotless word is one name
    else:
        names = s
    ids = p.generator_ids
    try:
        return tuple([ids[n] for n in names])
    except KeyError as exc:
        raise InputError(f"unknown generator in word {s!r}") from exc


def polygraph2_to_dict(p: Polygraph2) -> dict:
    return {
        "generators": list(p.generators),
        "rules": [
            {"id": r.name, "lhs": p.word_str(r.lhs), "rhs": p.word_str(r.rhs)}
            for r in p.rules
        ],
    }


def _name(value) -> str:
    """A generator name, rule id or 3-cell id read from JSON."""
    if not isinstance(value, str):
        raise InputError(f"names and ids must be strings, not {value!r}")
    return value


def polygraph2_from_dict(d: dict) -> Polygraph2:
    try:
        gens = [_name(g) for g in d["generators"]]
        rules = list(d["rules"])
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad polygraph document: {exc}") from exc
    p = Polygraph2(gens)
    for r in rules:
        try:
            name, lhs, rhs = r["id"], r["lhs"], r["rhs"]
        except (KeyError, TypeError) as exc:
            raise InputError(f"bad rule entry {r!r}") from exc
        p.add_rule(Rule(_name(name), word_from_str(p, lhs), word_from_str(p, rhs)))
    return p


def path_to_dict(path: Path2) -> dict:
    p = path.pg
    return {
        "source": p.word_str(path.source),
        "steps": [
            {"rule": p.rules[s.rule].name, "dir": s.dir, "at": s.pos}
            for s in path.steps
        ],
    }


def _step_int(value, field: str) -> int:
    """A step field read from JSON: an integer, never a bool, float or string."""
    if type(value) is not int:
        raise InputError(f"step {field} must be an integer, not {value!r}")
    return value


def _step_dir(value) -> int:
    """A step direction read from JSON: 1 (forward) or -1 (reverse)."""
    if _step_int(value, "direction") not in (1, -1):
        raise InputError(f"step direction must be 1 or -1, not {value!r}")
    return value


def path_from_dict(d: dict, p: Polygraph2, words: dict | None = None) -> Path2:
    try:
        source = word_from_str(p, d["source"], words)
        steps = tuple(
            Step2(p.rule_index(s["rule"]), _step_dir(s["dir"]), _step_int(s["at"], "offset"))
            for s in d["steps"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad path document: {exc}") from exc
    return Path2._make(p, source, steps, None)  # every field checked above


def polygraph31_to_dict(p31: Polygraph31, meta: dict | None = None) -> dict:
    d = polygraph2_to_dict(p31.base)
    d["three_cells"] = [
        {"id": c.name, "src": path_to_dict(c.src), "tgt": path_to_dict(c.tgt)}
        for c in p31.cells
    ]
    if meta is not None:
        d["meta"] = meta
    return d


def polygraph31_from_dict(d: dict) -> Polygraph31:
    base = polygraph2_from_dict(d)
    cells, words = [], {}
    try:
        for c in d.get("three_cells", ()):
            cells.append(
                ThreeCell(
                    _name(c["id"]),
                    path_from_dict(c["src"], base, words),
                    path_from_dict(c["tgt"], base, words),
                )
            )
    # StepError: a side does not replay; CoherenceError: the sides are not parallel
    except (KeyError, TypeError, StepError, CoherenceError) as exc:
        raise InputError(f"bad 3-cell entry: {exc}") from exc
    return Polygraph31(base, cells)


def matrix_to_dict(m: CoxeterMatrix) -> dict:
    return {"generators": list(m.names), "m": [list(row) for row in m.m]}


def matrix_from_dict(d: dict) -> CoxeterMatrix:
    try:
        names = tuple(_name(g) for g in d["generators"])
        return CoxeterMatrix(names, tuple(map(tuple, d["m"])))
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad Coxeter matrix document: {exc}") from exc


def sphere_to_dict(sp: Sphere3, p31: Polygraph31, path_dict=path_to_dict) -> dict:
    def entry(e: SphereEntry) -> dict:
        return {
            "cell": p31.cells[e.cell].name,
            "dir": e.dir,
            "left": p31.base.word_str(e.left),
            "right": p31.base.word_str(e.right),
            "pre": path_dict(e.pre),
            "post": path_dict(e.post),
        }

    return {
        "source": path_dict(sp.source),
        "target": path_dict(sp.target),
        "lhs": [entry(e) for e in sp.lhs],
        "rhs": [entry(e) for e in sp.rhs],
    }


def sphere_from_dict(d: dict, p31: Polygraph31, words: dict | None = None) -> Sphere3:
    base = p31.base

    def entry(e: dict) -> SphereEntry:
        return SphereEntry(
            p31.cell_index(e["cell"]),
            _step_dir(e["dir"]),
            word_from_str(base, e["left"], words),
            word_from_str(base, e["right"], words),
            path_from_dict(e["pre"], base, words),
            path_from_dict(e["post"], base, words),
        )

    try:
        return Sphere3(
            path_from_dict(d["source"], base, words),
            path_from_dict(d["target"], base, words),
            tuple(entry(e) for e in d["lhs"]),
            tuple(entry(e) for e in d["rhs"]),
        )
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad sphere document: {exc}") from exc


def _ranked_names(rank: dict, names: list[str]) -> list[str]:
    return [names[k] for k in sorted(rank, key=lambda k: (rank[k], k))]


def part_to_dict(part: CollapsiblePart, p31: Polygraph31) -> dict:
    """The part as JSON; each distinct path is rendered once, and its dict
    shared by every use."""
    base = p31.base
    rendered: dict[Path2, dict] = {}

    def path_dict(path: Path2) -> dict:
        d = rendered.get(path)
        if d is None:
            d = rendered[path] = path_to_dict(path)
        return d

    return {
        "two_cells": [
            {
                "rule": base.rules[tc.rule].name,
                **(
                    {"redundant": base.generators[tc.redundant]}
                    if tc.redundant is not None
                    else {}
                ),
            }
            for tc in part.two_cells
        ],
        "three_cells": [
            {
                "cell": p31.cells[tc.cell].name,
                "redundant": base.rules[tc.redundant].name,
            }
            for tc in part.three_cells
        ],
        "spheres": [
            {
                **sphere_to_dict(sc.sphere, p31, path_dict),
                "redundant": p31.cells[sc.redundant].name,
            }
            for sc in part.spheres
        ],
        "order": {
            "generators": _ranked_names(part.order.gen_rank, base.generators),
            "rules": _ranked_names(part.order.rule_rank, [r.name for r in base.rules]),
            "cells": _ranked_names(part.order.cell_rank, [c.name for c in p31.cells]),
        },
    }


def part_from_dict(d: dict, p31: Polygraph31) -> CollapsiblePart:
    base, words = p31.base, {}  # each distinct word string parsed once
    if not isinstance(d, dict) or not isinstance(d.get("order", {}), dict):
        raise InputError("a collapsible part and its order must be JSON objects")
    try:
        two = tuple(
            TwoCollapse(
                base.rule_index(tc["rule"]),
                base.generator_ids[tc["redundant"]] if "redundant" in tc else None,
            )
            for tc in d.get("two_cells", ())
        )
        three = tuple(
            ThreeCollapse(
                p31.cell_index(tc["cell"]), base.rule_index(tc["redundant"])
            )
            for tc in d.get("three_cells", ())
        )
        spheres = tuple(
            SphereCollapse(sphere_from_dict(sc, p31, words), p31.cell_index(sc["redundant"]))
            for sc in d.get("spheres", ())
        )
        order = d.get("order", {})
        gen_rank = {
            base.generator_ids[n]: i
            for i, n in enumerate(order.get("generators", ()))
        }
        rule_rank = {
            base.rule_index(n): i for i, n in enumerate(order.get("rules", ()))
        }
        cell_rank = {
            p31.cell_index(n): i for i, n in enumerate(order.get("cells", ()))
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad collapsible part document: {exc}") from exc
    return CollapsiblePart(two, three, spheres, OrderWitness(gen_rank, rule_rank, cell_rank))


def render_path(path: Path2) -> str:
    """The steps joined by " ⋆ ", each whiskered, e.g. "sa·b(st)·a" with a
    trailing - for reverses; the chain of words is replayed once."""
    pg = path.pg
    if not path.steps:
        return f"1_{pg.word_str(path.source)}"
    out = []
    for (r, d, i), w in zip(path.steps, path.words()):
        rule = pg.rules[r]
        j = i + len(rule.lhs if d > 0 else rule.rhs)
        parts = (pg.word_str(w[:i]), rule.name + ("" if d > 0 else "-"), pg.word_str(w[j:]))
        out.append("·".join(x for x in parts if x))
    return " ⋆ ".join(out)
