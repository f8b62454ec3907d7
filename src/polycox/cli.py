"""Command-line interface.

One job per invocation; JSON results go to --out or stdout, human-readable
summaries to stderr.  Exit codes: 0 success, 2 parse error, 3 failed
precondition, 4 budget exhausted.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import sys
from json.encoder import encode_basestring_ascii as _ascii
from typing import Optional

from . import garside, serialize, tietze
from .completion import homotopical_complete
from .coxeter import check_dihedral_cap, enumerate_group
from .errors import (
    BudgetError,
    InfiniteOrUnknown,
    InputError,
    NielsenError,
    PolycoxError,
    PreconditionError,
)
from .words import (
    DEFAULT_BRANCHING_BUDGET,
    DEFAULT_COSET_CAP,
    DEFAULT_RULE_BUDGET,
    DEFAULT_STEP_BUDGET,
    deglex_from_names,
    word_separator,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_BUDGET = 4


def _load_json(path: str) -> dict:
    """The document at ``path``, with one dict per distinct step of exact
    types ``{"rule": str, "dir": int, "at": int}`` (``true`` or ``1.0``
    never stands for ``1``), shared by every use: treat it as read-only."""
    steps = {}

    def share(d: dict) -> dict:
        if len(d) == 3:
            key = r, s, i = d.get("rule"), d.get("dir"), d.get("at")
            if type(r) is str and type(s) is int and type(i) is int:
                return steps.setdefault(key, d)
        return d

    try:
        with open(path) as fh:
            return json.load(fh, object_hook=share)
    # ValueError: bad JSON or bytes; RecursionError: nesting past the parser's limit
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


_BIG = 1000  # a container with more items is written one item at a time


def _indented(doc):
    """The text of ``json.JSONEncoder(indent=2).encode(doc)`` in chunks: the
    document, its members and any container of more than _BIG items one
    item at a time, any other value whole.  A dict of strings and ints is
    rendered once per object and depth (a document shares its step dicts);
    a bool, null, float or non-string key goes through the stdlib encoder."""
    std, flat = json.JSONEncoder(indent=2).encode, {}

    def whole(o, nl: str) -> str:  # nl: a newline and o's indentation
        t, inner = type(o), nl + "  "
        if t is str or t is int:
            return _ascii(o) if t is str else repr(o)
        if t is list:
            items = [whole(v, inner) for v in o]
            return "[" + inner + ("," + inner).join(items) + nl + "]" if o else "[]"
        if t is dict:
            s = flat.get((id(o), nl)) if o else "{}"
            if s is not None:
                return s
            items, leaf = [], True
            try:
                for k, v in o.items():
                    tv = type(v)
                    if tv is str or tv is int:
                        v = _ascii(v) if tv is str else repr(v)
                    else:
                        v, leaf = whole(v, inner), False
                    items.append(_ascii(k) + ": " + v)
            except TypeError:  # a key that is not a string
                return std(o).replace("\n", nl)
            s = "{" + inner + ("," + inner).join(items) + nl + "}"
            if leaf:
                flat[id(o), nl] = s
            return s
        return std(o).replace("\n", nl)

    def stream(o, nl: str):
        t, inner = type(o), nl + "  "
        if not o or not (t is list or t is dict and all(type(k) is str for k in o)):
            yield whole(o, nl)
            return
        sep, close = ("[", "]") if t is list else ("{", "}")
        keys = (_ascii(k) + ": " for k in o) if t is dict else itertools.repeat("")
        for k, v in zip(keys, o.values() if t is dict else o):
            head, sep = sep + inner + k, ","
            if type(v) in (list, dict) and (nl == "\n" or len(v) > _BIG):
                yield head
                yield from stream(v, inner)
            else:
                yield head + whole(v, inner)
        yield nl + close

    return stream(doc, "\n")


def _emit(doc: dict, out: Optional[str]) -> None:
    """Write ``doc`` to ``out`` or stdout as the bytes of
    ``json.JSONEncoder(indent=2)`` and a newline.  The chunks of _indented
    go out in batches: a write per chunk is slow on a write-through stdout,
    and a large container is never one string.  A write that fails, into a
    missing directory or a closed pipe, is an InputError."""
    chunks = _indented(doc)
    try:
        with open(out, "w") if out else contextlib.nullcontext(sys.stdout) as fh:
            while batch := "".join(itertools.islice(chunks, 256)):
                fh.write(batch)
            fh.write("\n")
            fh.flush()
    except OSError as exc:
        if not out:
            # the reader is gone: send what stdout still buffers to the null
            # device, or the flush at exit reports the closed pipe again
            with contextlib.suppress(AttributeError, OSError, ValueError):
                null = os.open(os.devnull, os.O_WRONLY)
                os.dup2(null, sys.stdout.fileno())
                os.close(null)
        raise InputError(f"cannot write {out or 'stdout'}: {exc}") from exc


def _order_for(p, order_arg: str):
    kind, _, rest = order_arg.partition(":")
    if kind != "deglex":
        raise InputError(f"unsupported order {order_arg!r}; use deglex:<names>")
    sep = "." if "." in rest else ","  # as in words, when some name holds ","
    names = [n for n in rest.split(sep) if n]
    return deglex_from_names(p, names)


def cmd_complete(args) -> int:
    p = serialize.polygraph2_from_dict(_load_json(args.input))
    order = _order_for(p, args.order)
    p31 = homotopical_complete(
        p,
        order,
        rule_budget=args.budget_rules,
        branching_budget=args.budget_branchings,
        step_budget=args.budget_steps,
    )
    _emit(serialize.polygraph31_to_dict(p31), args.out)
    added = len(p31.base.rules) - len(p.rules)  # the completion works on a copy of p
    print(f"rules added: {added}; 3-cells: {len(p31.cells)}", file=sys.stderr)
    return EXIT_OK


def cmd_reduce(args) -> int:
    p31 = serialize.polygraph31_from_dict(_load_json(args.input))
    part = serialize.part_from_dict(_load_json(args.part), p31)
    try:
        reduced = tietze.homotopical_reduce(p31, part)
    except NielsenError as exc:
        for k, v in enumerate(exc.violations):
            print(f"violation[{k}]: {v}", file=sys.stderr)
        raise PreconditionError("collapsible part does not validate") from exc
    names = lambda rules: [r.name for r in rules]  # noqa: E731
    report = {
        "removed": {
            "generators": sorted(set(p31.base.generators) - set(reduced.base.generators)),
            "rules": sorted(set(names(p31.base.rules)) - set(names(reduced.base.rules))),
            "three_cells": sorted(
                {c.name for c in p31.cells} - {c.name for c in reduced.cells}
            ),
        },
        "surviving": serialize.polygraph31_to_dict(reduced),
    }
    _emit(report, args.out)
    return EXIT_OK


def cmd_garside(args) -> int:
    mat = serialize.matrix_from_dict(_load_json(args.input))
    check_dihedral_cap(mat, args.budget_cosets)  # over the cap is exit 4, not 3
    try:
        group = enumerate_group(mat, args.budget_cosets)
    except InfiniteOrUnknown as exc:
        raise PreconditionError(f"W is not finite (or cap too small): {exc}") from exc
    budgets = dict(rule_budget=args.budget_rules, branching_budget=args.budget_branchings)
    extra = {}  # meta after the elements
    if args.stage == "raw":
        pg = garside.garside_presentation(group).pg
        doc = serialize.polygraph2_to_dict(pg)
        summary = f"generators: {pg.n_generators}; rules: {len(pg.rules)}"
    else:
        if args.stage == "completed":
            gc = garside.complete_garside(group, **budgets)
            p31 = gc.p31
            extra["families"] = {c.name: t.letter for c, t in zip(p31.cells, gc.tags)}
        else:
            p31 = garside.garside_coherent(group, **budgets).p31
        pg, doc = p31.base, serialize.polygraph31_to_dict(p31)
        summary = f"rules: {len(pg.rules)}; 3-cells: {len(p31.cells)}"
        if args.stage == "reduced":
            summary = f"generators: {pg.n_generators}; {summary}"
    # each generator is named by the word of its element, so the map is the identity
    doc["meta"] = {"elements": {name: name for name in pg.generators}, **extra}
    _emit(doc, args.out)
    print(summary, file=sys.stderr)
    return EXIT_OK


def cmd_artin(args) -> int:
    mat = serialize.matrix_from_dict(_load_json(args.input))
    p31 = garside.artin_coherent(mat, coset_cap=args.budget_cosets)
    census = garside.cell_census(p31)
    meta = {
        "census": list(census),
        "letters": list(mat.names),
        "cells_rendered": {
            c.name: {
                "src": serialize.render_path(c.src),
                "tgt": serialize.render_path(c.tgt),
            }
            for c in p31.cells
        },
    }
    _emit(serialize.polygraph31_to_dict(p31, meta), args.out)
    print("census: " + ",".join(map(str, census)), file=sys.stderr)
    return EXIT_OK


def cmd_coxeter(args) -> int:
    mat = serialize.matrix_from_dict(_load_json(args.input))
    group = enumerate_group(mat, args.budget_cosets)
    w0 = group.longest_element(range(group.rank))
    doc = {
        "order": group.size,
        "longest_length": group.length[w0],
        "longest_word": word_separator(mat.names).join(mat.names[s] for s in group.word[w0]),
        "lengths": [group.length[e] for e in range(group.size)],
    }
    _emit(doc, args.out)
    print(f"|W| = {group.size}", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="polycox",
        description="coherent presentations by homotopical completion-reduction",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, **budgets: Optional[int]) -> None:
        """Input, --out, -v and the --budget-NAME flags the subcommand honours;
        a negative budget is a parse error."""

        def budget(text: str) -> int:
            n = int(text)
            if n < 0:
                raise argparse.ArgumentTypeError(f"a budget cannot be negative: {n}")
            return n

        p.add_argument("input", help="input JSON file")
        p.add_argument("--out", help="output file (default: stdout)")
        for name, default in budgets.items():
            p.add_argument(f"--budget-{name}", type=budget, default=default)
        p.add_argument("-v", "--verbose", action="count", default=0)

    rule_budgets = dict(rules=DEFAULT_RULE_BUDGET, branchings=DEFAULT_BRANCHING_BUDGET)

    p = sub.add_parser("complete", help="homotopical completion of a 2-polygraph")
    common(p, **rule_budgets, steps=DEFAULT_STEP_BUDGET)
    p.add_argument("--order", required=True, help="termination order, e.g. deglex:t,s,a")
    p.set_defaults(fn=cmd_complete)

    p = sub.add_parser("reduce", help="homotopical reduction along a collapsible part")
    common(p)
    p.add_argument("--part", required=True, help="collapsible part JSON file")
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("garside", help="Garside presentation stages for a Coxeter matrix")
    common(p, **rule_budgets, cosets=DEFAULT_COSET_CAP)
    p.add_argument(
        "--stage",
        choices=("raw", "completed", "reduced"),
        default="reduced",
        help="--budget-rules and --budget-branchings bound only completed and reduced",
    )
    p.set_defaults(fn=cmd_garside)

    p = sub.add_parser("artin", help="Artin's coherent presentation with Z-cells")
    common(p, cosets=DEFAULT_COSET_CAP)
    p.set_defaults(fn=cmd_artin)

    p = sub.add_parser("coxeter", help="enumerate the Coxeter group of a matrix")
    common(p, cosets=DEFAULT_COSET_CAP)
    p.set_defaults(fn=cmd_coxeter)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (PreconditionError, NielsenError) as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except BudgetError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except PolycoxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
