"""JSON schemas and text renderers for the engine's value types.

Words serialize as strings of generator names, "."-separated whenever any
generator name of the presentation exceeds one character; both forms are
accepted on input.  Output dictionaries keep ids sorted so golden files
stay diff-stable.  Within one document the writers keep one string per
distinct word and one dict per distinct step (and, in a part, per distinct
path), shared by every use, so treat a document as read-only.  Within one
read, each distinct word, step and path is parsed once and gives one
value, shared by every use; a failed parse is never kept.
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
    each distinct string is parsed once and a failed parse is not kept.
    The same table holds the read's steps, keyed by (rule, dir, at), and
    its paths, keyed by (source word, steps)."""
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


def _array(value, field: str):
    """A JSON array read from a document: a list, or a tuple from Python."""
    if not isinstance(value, (list, tuple)):
        raise InputError(f"{field} must be a JSON array, not {type(value).__name__}")
    return value


class _Table(dict):
    """A table of one document: a missing key is filled with ``make(key)``."""

    def __init__(self, make) -> None:
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _writer(p: Polygraph2):
    """The word and path renderers of one document: one string per distinct
    word and one dict per distinct step, shared by every use."""
    words = _Table(p.word_str)
    steps = _Table(lambda s: {"rule": p.rules[s.rule].name, "dir": s.dir, "at": s.pos})
    return words.__getitem__, lambda path: {
        "source": words[path.source],
        "steps": [steps[s] for s in path.steps],
    }


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
        gens = [_name(g) for g in _array(d["generators"], "generators")]
        rules = _array(d["rules"], "rules")
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
    return _writer(path.pg)[1](path)


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


def _step_from_dict(s: dict, p: Polygraph2, memo: dict | None) -> Step2:
    """One step; with ``memo``, a step whose rule is a string and whose
    direction and offset are ints by type is checked once per value, so a
    bool or float never reuses a cached int."""
    if memo is not None and type(s) is dict:
        key = r, d, i = s.get("rule"), s.get("dir"), s.get("at")
        if type(r) is str and type(d) is int and type(i) is int:
            step = memo.get(key)
            if step is None:
                step = memo[key] = Step2(p.rule_index(r), _step_dir(d), i)
            return step
    return Step2(p.rule_index(s["rule"]), _step_dir(s["dir"]), _step_int(s["at"], "offset"))


def path_from_dict(d: dict, p: Polygraph2, memo: dict | None = None) -> Path2:
    """A path read unreplayed; with ``memo`` (see ``word_from_str``), one
    Path2 per distinct source word and steps."""
    try:
        source = word_from_str(p, d["source"], memo)
        steps = tuple([_step_from_dict(s, p, memo) for s in _array(d["steps"], "steps")])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad path document: {exc}") from exc
    if memo is None:
        return Path2._make(p, source, steps, None)  # every field checked above
    path = memo.get((source, steps))
    if path is None:
        path = memo[source, steps] = Path2._make(p, source, steps, None)
    return path


def polygraph31_to_dict(p31: Polygraph31, meta: dict | None = None) -> dict:
    d = polygraph2_to_dict(p31.base)
    path_dict = _writer(p31.base)[1]
    d["three_cells"] = [
        {"id": c.name, "src": path_dict(c.src), "tgt": path_dict(c.tgt)}
        for c in p31.cells
    ]
    if meta is not None:
        d["meta"] = meta
    return d


def polygraph31_from_dict(d: dict) -> Polygraph31:
    base = polygraph2_from_dict(d)
    cells, memo = [], {}
    try:
        for c in _array(d.get("three_cells", ()), "three_cells"):
            cells.append(
                ThreeCell(
                    _name(c["id"]),
                    path_from_dict(c["src"], base, memo),
                    path_from_dict(c["tgt"], base, memo),
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
        names = tuple(_name(g) for g in _array(d["generators"], "generators"))
        rows = _array(d["m"], "m")
        return CoxeterMatrix(names, tuple(tuple(_array(r, "a row of m")) for r in rows))
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad Coxeter matrix document: {exc}") from exc


def sphere_to_dict(sp: Sphere3, p31: Polygraph31, writer=None) -> dict:
    """The sphere as JSON; ``writer`` is a document's (word, path) renderers."""
    word, path_dict = writer or _writer(p31.base)

    def entry(e: SphereEntry) -> dict:
        return {
            "cell": p31.cells[e.cell].name,
            "dir": e.dir,
            "left": word(e.left),
            "right": word(e.right),
            "pre": path_dict(e.pre),
            "post": path_dict(e.post),
        }

    return {
        "source": path_dict(sp.source),
        "target": path_dict(sp.target),
        "lhs": [entry(e) for e in sp.lhs],
        "rhs": [entry(e) for e in sp.rhs],
    }


def sphere_from_dict(d: dict, p31: Polygraph31, memo: dict | None = None) -> Sphere3:
    base = p31.base

    def entry(e: dict) -> SphereEntry:
        return SphereEntry(
            p31.cell_index(e["cell"]),
            _step_dir(e["dir"]),
            word_from_str(base, e["left"], memo),
            word_from_str(base, e["right"], memo),
            path_from_dict(e["pre"], base, memo),
            path_from_dict(e["post"], base, memo),
        )

    try:
        return Sphere3(
            path_from_dict(d["source"], base, memo),
            path_from_dict(d["target"], base, memo),
            tuple(entry(e) for e in _array(d["lhs"], "lhs")),
            tuple(entry(e) for e in _array(d["rhs"], "rhs")),
        )
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad sphere document: {exc}") from exc


def _ranked_names(rank: dict, names: list[str]) -> list[str]:
    return [names[k] for k in sorted(rank, key=lambda k: (rank[k], k))]


def part_to_dict(part: CollapsiblePart, p31: Polygraph31) -> dict:
    """The part as JSON; each distinct path is rendered once, and its dict
    shared by every use."""
    base = p31.base
    word, path_dict = _writer(base)
    rendered = _Table(path_dict)

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
                **sphere_to_dict(sc.sphere, p31, (word, rendered.__getitem__)),
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
    base, memo = p31.base, {}  # each distinct word, step and path parsed once
    if not isinstance(d, dict) or not isinstance(d.get("order", {}), dict):
        raise InputError("a collapsible part and its order must be JSON objects")
    try:
        two = tuple(
            TwoCollapse(
                base.rule_index(tc["rule"]),
                base.generator_ids[tc["redundant"]] if "redundant" in tc else None,
            )
            for tc in _array(d.get("two_cells", ()), "two_cells")
        )
        three = tuple(
            ThreeCollapse(
                p31.cell_index(tc["cell"]), base.rule_index(tc["redundant"])
            )
            for tc in _array(d.get("three_cells", ()), "three_cells")
        )
        spheres = tuple(
            SphereCollapse(sphere_from_dict(sc, p31, memo), p31.cell_index(sc["redundant"]))
            for sc in _array(d.get("spheres", ()), "spheres")
        )
        order = d.get("order", {})

        def rank(field: str, index) -> dict[int, int]:
            names = _array(order.get(field, ()), f"order {field}")
            return {index(n): i for i, n in enumerate(names)}

        gen_rank = rank("generators", base.generator_ids.__getitem__)
        rule_rank, cell_rank = rank("rules", base.rule_index), rank("cells", p31.cell_index)
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
