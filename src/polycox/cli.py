"""Command-line interface.

One job per invocation; JSON results go to --out or stdout, human-readable
summaries to stderr.  Exit codes: 0 success, 2 parse error, 3 failed
precondition, 4 budget exhausted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from . import garside, serialize, tietze
from .completion import homotopical_complete
from .coxeter import enumerate_group
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
    check_termination,
    deglex_from_names,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_BUDGET = 4


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _emit(doc: dict, out: Optional[str]) -> None:
    text = json.dumps(doc, indent=2, sort_keys=False)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _order_for(p, order_arg: str):
    kind, _, rest = order_arg.partition(":")
    if kind != "deglex":
        raise InputError(f"unsupported order {order_arg!r}; use deglex:<names>")
    names = [n for n in rest.split(",") if n]
    return deglex_from_names(p, names)


def _step_budget(args) -> int:
    env = os.environ.get("POLYCOX_BUDGET_STEPS")
    if args.budget_steps is not None:
        return args.budget_steps
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise InputError(f"bad POLYCOX_BUDGET_STEPS {env!r}") from exc
    return DEFAULT_STEP_BUDGET


def cmd_complete(args) -> int:
    p = serialize.polygraph2_from_dict(_load_json(args.input))
    order = _order_for(p, args.order)
    bad = check_termination(p, order)
    if bad:
        raise PreconditionError(
            "termination check failed for rules: " + ", ".join(r.name for r in bad)
        )
    before = len(p.rules)
    p31 = homotopical_complete(
        p,
        order,
        rule_budget=args.budget_rules,
        branching_budget=args.budget_branchings,
        step_budget=_step_budget(args),
    )
    doc = serialize.polygraph31_to_dict(p31)
    _emit(doc, args.out)
    print(
        f"rules added: {len(p31.base.rules) - before}; "
        f"3-cells: {len(p31.cells)}; "
        f"critical branchings: {len(p31.cells)}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_reduce(args) -> int:
    p31 = serialize.polygraph31_from_dict(_load_json(args.input))
    part = serialize.part_from_dict(_load_json(args.part), p31)
    violations = tietze.validate_collapsible(p31, part)
    if violations:
        for k, v in enumerate(violations):
            print(f"violation[{k}]: {v}", file=sys.stderr)
        raise PreconditionError("collapsible part does not validate")
    reduced = tietze.homotopical_reduce(p31, part, validate=False)
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
    try:
        group = enumerate_group(mat, args.budget_cosets)
    except InfiniteOrUnknown as exc:
        raise PreconditionError(f"W is not finite (or cap too small): {exc}") from exc
    def element_meta(pg, elt_of_gen):
        return {
            "elements": {
                pg.generators[i]: "".join(mat.names[s] for s in group.word[e])
                for i, e in enumerate(elt_of_gen)
            }
        }

    if args.stage == "raw":
        gp = garside.garside_presentation(group)
        doc = serialize.polygraph2_to_dict(gp.pg)
        doc["meta"] = element_meta(gp.pg, gp.elt_of_gen)
        _emit(doc, args.out)
        print(f"generators: {gp.pg.n_generators}; rules: {len(gp.pg.rules)}", file=sys.stderr)
        return EXIT_OK
    if args.stage == "completed":
        gc = garside.complete_garside(
            group,
            rule_budget=args.budget_rules,
            branching_budget=args.budget_branchings,
        )
        meta = element_meta(gc.p31.base, gc.gp.elt_of_gen)
        meta["families"] = {
            gc.p31.cells[i].name: tag.letter for i, tag in enumerate(gc.tags)
        }
        _emit(serialize.polygraph31_to_dict(gc.p31, meta), args.out)
        print(
            f"rules: {len(gc.p31.base.rules)}; 3-cells: {len(gc.p31.cells)}",
            file=sys.stderr,
        )
        return EXIT_OK
    g3 = garside.garside_coherent(
        group, rule_budget=args.budget_rules, branching_budget=args.budget_branchings
    )
    _emit(
        serialize.polygraph31_to_dict(
            g3.p31, element_meta(g3.p31.base, g3.elt_of_gen)
        ),
        args.out,
    )
    print(
        f"generators: {g3.p31.base.n_generators}; rules: {len(g3.p31.base.rules)}; "
        f"3-cells: {len(g3.p31.cells)}",
        file=sys.stderr,
    )
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
        "longest_word": "".join(mat.names[s] for s in group.word[w0]),
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

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("input", help="input JSON file")
        p.add_argument("--out", help="output file (default: stdout)")
        p.add_argument("--budget-rules", type=int, default=DEFAULT_RULE_BUDGET)
        p.add_argument("--budget-branchings", type=int, default=DEFAULT_BRANCHING_BUDGET)
        p.add_argument("--budget-steps", type=int, default=None)
        p.add_argument("--budget-cosets", type=int, default=DEFAULT_COSET_CAP)
        p.add_argument("-v", "--verbose", action="count", default=0)

    p = sub.add_parser("complete", help="homotopical completion of a 2-polygraph")
    common(p)
    p.add_argument("--order", required=True, help="termination order, e.g. deglex:t,s,a")
    p.set_defaults(fn=cmd_complete)

    p = sub.add_parser("reduce", help="homotopical reduction along a collapsible part")
    common(p)
    p.add_argument("--part", required=True, help="collapsible part JSON file")
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("garside", help="Garside presentation stages for a Coxeter matrix")
    common(p)
    p.add_argument(
        "--stage", choices=("raw", "completed", "reduced"), default="reduced"
    )
    p.set_defaults(fn=cmd_garside)

    p = sub.add_parser("artin", help="Artin's coherent presentation with Z-cells")
    common(p)
    p.set_defaults(fn=cmd_artin)

    p = sub.add_parser("coxeter", help="enumerate the Coxeter group of a matrix")
    common(p)
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
