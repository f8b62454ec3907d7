"""Tietze and Nielsen transformations on (3,1)-polygraphs.

Homotopical reduction eliminates a collapsible part: designated redundant
3-cells disappear through 3-spheres, redundant rules are replaced in every
surviving boundary by the path solved from their collapsible 3-cell, and
redundant generators are expanded to the defining side of their collapsible
rule.  Replacement grounds because the order witness makes each redundant
cell strictly greater than everything in its defining source; eliminations
run in decreasing order of the redundant cell, so each substitution is
final when made.

A collapsible cell is recognized up to the Nielsen moves actually needed
here: the designated redundant cell must occur exactly once across the
boundary (after exchange/inverse normalization) and, for rules, the solved
replacement must unwhisker to a bare path between the rule's sides.
Recipes are supplied by callers; only the bare shapes are inferred.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import InputError, NielsenError
from .completion import Polygraph31, Sphere3, ThreeCell
from .paths import Path2, Step2, compose, inverse, normalize_path, whisker
from .words import Polygraph2, Rule, Word


@dataclass(frozen=True)
class TwoCollapse:
    """A collapsible rule; its single-generator side is the redundant cell."""

    rule: int
    redundant: Optional[int] = None  # generator id; inferred when None


@dataclass(frozen=True)
class ThreeCollapse:
    """A collapsible 3-cell together with the rule it makes redundant."""

    cell: int
    redundant: int  # rule index


@dataclass(frozen=True)
class SphereCollapse:
    """A 3-sphere together with the 3-cell it makes redundant."""

    sphere: Sphere3
    redundant: int  # 3-cell index


@dataclass(frozen=True)
class OrderWitness:
    """Well-founded rankings; larger keys are greater cells."""

    gen_rank: dict
    rule_rank: dict
    cell_rank: dict


@dataclass(frozen=True)
class CollapsiblePart:
    two_cells: tuple[TwoCollapse, ...] = ()
    three_cells: tuple[ThreeCollapse, ...] = ()
    spheres: tuple[SphereCollapse, ...] = ()
    order: OrderWitness = field(
        default_factory=lambda: OrderWitness({}, {}, {})
    )


def _collapse_sides(rule: Rule) -> Optional[tuple[int, Word]]:
    """(redundant generator, defining word) of a collapsible rule, or None.

    The defining word may be empty (the unit rule of a standard
    presentation collapses the unit generator to the empty word)."""
    if len(rule.rhs) == 1 and rule.rhs[0] not in rule.lhs:
        return rule.rhs[0], rule.lhs
    if len(rule.lhs) == 1 and rule.lhs[0] not in rule.rhs:
        return rule.lhs[0], rule.rhs
    return None


def _rule_occurrences(path: Path2, rule: int) -> list[int]:
    return [k for k, s in enumerate(path.steps) if s.rule == rule]


def validate_collapsible(p31: Polygraph31, part: CollapsiblePart) -> list[str]:
    """Check the three collapsibility conditions mechanically.

    Returns a list of violations; empty means the part is collapsible.
    """
    out: list[str] = []
    pg = p31.base
    ow = part.order

    def rank(table: dict, key, what: str):
        if key not in table:
            out.append(f"{what}: no rank for {key!r}")
            return None
        return table[key]

    sphere_dead = {sc.redundant for sc in part.spheres}
    cell_dead = {tc.cell for tc in part.three_cells}
    rule_dead = {tc.redundant for tc in part.three_cells}
    gen_dead = set()

    if len(sphere_dead) != len(part.spheres):
        out.append("spheres: a 3-cell is designated redundant twice")
    if len({tc.cell for tc in part.three_cells}) != len(part.three_cells):
        out.append("three_cells: a 3-cell collapses twice")
    if len(rule_dead) != len(part.three_cells):
        out.append("three_cells: a rule is designated redundant twice")
    if cell_dead & sphere_dead:
        out.append("a collapsible 3-cell is redundant for a sphere")

    for tc in part.two_cells:
        rule = pg.rules[tc.rule]
        sides = _collapse_sides(rule)
        if sides is None:
            out.append(f"rule {rule.name!r} is not collapsible")
            continue
        x, word = sides
        if tc.redundant is not None and tc.redundant != x:
            out.append(f"rule {rule.name!r}: redundant generator mismatch")
            continue
        if x in gen_dead:
            out.append(f"generator {pg.generators[x]!r} eliminated twice")
        gen_dead.add(x)
        if tc.rule in rule_dead:
            out.append(f"rule {rule.name!r} is both collapsible and redundant")
        rx = rank(ow.gen_rank, x, f"generator {pg.generators[x]!r}")
        for g in set(word):
            rg = rank(ow.gen_rank, g, f"generator {pg.generators[g]!r}")
            if rx is not None and rg is not None and not rx > rg:
                out.append(
                    f"order: generator {pg.generators[x]!r} not above "
                    f"{pg.generators[g]!r}"
                )

    for tc in part.three_cells:
        cell = p31.cells[tc.cell]
        src = normalize_path(cell.src)
        tgt = normalize_path(cell.tgt)
        occ = _rule_occurrences(src, tc.redundant) + _rule_occurrences(tgt, tc.redundant)
        if len(occ) != 1:
            out.append(
                f"3-cell {cell.name!r}: rule {pg.rules[tc.redundant].name!r} "
                f"occurs {len(occ)} times, need exactly 1"
            )
        else:
            try:
                _solve_replacement(p31, cell, tc.redundant)
            except NielsenError as exc:
                out.append(str(exc))
        rr = rank(ow.rule_rank, tc.redundant, f"rule {pg.rules[tc.redundant].name!r}")
        others = {
            s.rule for s in src.steps + tgt.steps if s.rule != tc.redundant
        }
        for r in others:
            ro = rank(ow.rule_rank, r, f"rule {pg.rules[r].name!r}")
            if rr is not None and ro is not None and not rr > ro:
                out.append(
                    f"order: rule {pg.rules[tc.redundant].name!r} not above "
                    f"{pg.rules[r].name!r}"
                )

    for sc in part.spheres:
        bad = sc.sphere.check(p31)
        out.extend(f"sphere for {p31.cells[sc.redundant].name!r}: {b}" for b in bad)
        entries = sc.sphere.lhs + sc.sphere.rhs
        occ = [e for e in entries if e.cell == sc.redundant]
        if len(occ) != 1:
            out.append(
                f"sphere: 3-cell {p31.cells[sc.redundant].name!r} occurs "
                f"{len(occ)} times, need exactly 1"
            )
        rr = rank(ow.cell_rank, sc.redundant, f"3-cell {p31.cells[sc.redundant].name!r}")
        for e in entries:
            if e.cell == sc.redundant:
                continue
            ro = rank(ow.cell_rank, e.cell, f"3-cell {p31.cells[e.cell].name!r}")
            if rr is not None and ro is not None and not rr > ro:
                out.append(
                    f"order: 3-cell {p31.cells[sc.redundant].name!r} not above "
                    f"{p31.cells[e.cell].name!r}"
                )
    return out


def _split_at(path: Path2, k: int) -> tuple[Path2, Step2, Path2]:
    pg = path.pg
    words = path.words()
    before = Path2(pg, path.source, path.steps[:k])
    after = Path2(pg, words[k + 1], path.steps[k + 1 :])
    return before, path.steps[k], after


def _solve_replacement(p31: Polygraph31, cell: ThreeCell, rho: int) -> Path2:
    """Solve, from a collapsible 3-cell, the path replacing rule ``rho``.

    The unique occurrence of rho is transposed to one side; the rest of the
    boundary, unwhiskered, is the replacement from lhs(rho) to rhs(rho).
    """
    pg = p31.base
    src = normalize_path(cell.src)
    tgt = normalize_path(cell.tgt)
    in_src = _rule_occurrences(src, rho)
    in_tgt = _rule_occurrences(tgt, rho)
    if len(in_src) + len(in_tgt) != 1:
        raise NielsenError(
            f"3-cell {cell.name!r} does not define rule {pg.rules[rho].name!r}"
        )
    if in_tgt:
        hold, k, other = tgt, in_tgt[0], src
    else:
        hold, k, other = src, in_src[0], tgt
    before, step, after = _split_at(hold, k)
    # u.rho^d.v  =  before^- * other * after^-
    q = compose(compose(inverse(before), other), inverse(after))
    if step.dir < 0:
        q = inverse(q)
    q = normalize_path(q)
    rule = pg.rules[rho]
    u_len = step.pos
    v_len = len(q.source) - u_len - len(rule.lhs)
    if q.source[u_len : u_len + len(rule.lhs)] != rule.lhs:
        raise NielsenError(f"cannot read {rule.name!r} off 3-cell {cell.name!r}")
    # unwhisker: every step must stay inside the window
    words = q.words()
    for s, w in zip(q.steps, words):
        a = len(pg.rules[s.rule].lhs if s.dir > 0 else pg.rules[s.rule].rhs)
        if s.pos < u_len or s.pos + a > len(w) - v_len:
            raise NielsenError(
                f"replacement for {rule.name!r} is not a bare path "
                f"(step escapes the whisker window)"
            )
    steps = tuple(Step2(s.rule, s.dir, s.pos - u_len) for s in q.steps)
    rep = Path2(pg, rule.lhs, steps)
    if rep.target != rule.rhs:
        raise NielsenError(f"replacement for {rule.name!r} has wrong target")
    return rep


def _splice_rule(path: Path2, rho: int, rep: Path2) -> Path2:
    """Replace every rho-step of ``path`` by the whiskered replacement."""
    pg = path.pg
    new_steps: list[Step2] = []
    w = path.source
    for s in path.steps:
        if s.rule == rho:
            body = rep if s.dir > 0 else inverse(rep)
            consumed = len(body.source)
            shifted = whisker(w[: s.pos], body, w[s.pos + consumed :])
            new_steps.extend(shifted.steps)
        else:
            new_steps.append(s)
        w = Path2(pg, w, (s,)).target
    return Path2(pg, path.source, new_steps)


def _subst_word(w: Word, x: int, omega: Word) -> Word:
    out: list[int] = []
    for g in w:
        if g == x:
            out.extend(omega)
        else:
            out.append(g)
    return tuple(out)


def _subst_gen_in_path(
    path: Path2, old_pg: Polygraph2, new_pg: Polygraph2, x: int, omega: Word, dead: int
) -> Path2:
    """Rewrite a path under the substitution x := omega, dropping steps on
    the collapsed rule (an identity after substitution)."""
    w_old = path.source
    new_source = _subst_word(w_old, x, omega)
    new_steps: list[Step2] = []
    for s in path.steps:
        if s.rule != dead:
            npos = 0
            for g in w_old[: s.pos]:
                npos += len(omega) if g == x else 1
            new_steps.append(Step2(s.rule, s.dir, npos))
        w_old = Path2(old_pg, w_old, (s,)).target
    return Path2(new_pg, new_source, new_steps)


def homotopical_reduce(
    p31: Polygraph31, part: CollapsiblePart, *, validate: bool = True
) -> Polygraph31:
    """Coherently eliminate a collapsible part; presents the same monoid.

    Redundant 3-cells vanish with their spheres; then collapsible 3-cells
    are processed in decreasing order of their redundant rule, substituting
    the solved replacement into every surviving boundary; then collapsible
    rules are processed in decreasing order of their redundant generator.
    An empty part is the identity.
    """
    if validate:
        bad = validate_collapsible(p31, part)
        if bad:
            raise NielsenError("; ".join(bad))
    base = p31.base

    dead_cells = {sc.redundant for sc in part.spheres}
    dead_cells |= {tc.cell for tc in part.three_cells}
    live: dict[int, tuple[str, Path2, Path2]] = {
        i: (c.name, c.src, c.tgt)
        for i, c in enumerate(p31.cells)
        if i not in dead_cells
    }
    collapse_bnd: dict[int, tuple[Path2, Path2]] = {
        tc.cell: (p31.cells[tc.cell].src, p31.cells[tc.cell].tgt)
        for tc in part.three_cells
    }

    # rules referenced by each live or collapsing boundary, for cheap splicing
    refs: dict[int, set[int]] = {}

    def index_refs(key, *paths: Path2) -> None:
        for p in paths:
            for s in p.steps:
                refs.setdefault(s.rule, set()).add(key)

    for i, (_, s, t) in live.items():
        index_refs(("live", i), s, t)
    for i, (s, t) in collapse_bnd.items():
        index_refs(("collapse", i), s, t)

    work_pg = Polygraph2(list(base.generators), list(base.rules))

    def rebind(path: Path2) -> Path2:
        return Path2(work_pg, path.source, path.steps)

    live = {i: (n, rebind(s), rebind(t)) for i, (n, s, t) in live.items()}
    collapse_bnd = {i: (rebind(s), rebind(t)) for i, (s, t) in collapse_bnd.items()}

    dead_rules: set[int] = set()
    order3 = sorted(
        part.three_cells,
        key=lambda tc: part.order.rule_rank.get(tc.redundant, 0),
        reverse=True,
    )
    for tc in order3:
        s, t = collapse_bnd.pop(tc.cell)
        cell = ThreeCell(p31.cells[tc.cell].name, s, t)
        rep = _solve_replacement(Polygraph31(work_pg, []), cell, tc.redundant)
        for key in sorted(refs.get(tc.redundant, ()), key=str):
            kind, i = key
            if kind == "live" and i in live:
                name, a, b = live[i]
                a2, b2 = _splice_rule(a, tc.redundant, rep), _splice_rule(
                    b, tc.redundant, rep
                )
                live[i] = (name, a2, b2)
                index_refs(key, a2, b2)
            elif kind == "collapse" and i in collapse_bnd:
                a, b = collapse_bnd[i]
                a2, b2 = _splice_rule(a, tc.redundant, rep), _splice_rule(
                    b, tc.redundant, rep
                )
                collapse_bnd[i] = (a2, b2)
                index_refs(key, a2, b2)
        dead_rules.add(tc.redundant)

    dead_gens: set[int] = set()
    order2 = sorted(
        part.two_cells,
        key=lambda tc: part.order.gen_rank.get(
            tc.redundant
            if tc.redundant is not None
            else _collapse_sides(work_pg.rules[tc.rule])[0],
            0,
        ),
        reverse=True,
    )
    for tc in order2:
        rule = work_pg.rules[tc.rule]
        sides = _collapse_sides(rule)
        if sides is None:
            raise NielsenError(f"rule {rule.name!r} no longer collapsible")
        x, omega = sides
        new_rules = [
            Rule(r.name, _subst_word(r.lhs, x, omega), _subst_word(r.rhs, x, omega))
            if i not in dead_rules and i != tc.rule
            else r
            for i, r in enumerate(work_pg.rules)
        ]
        new_pg = Polygraph2(list(work_pg.generators), new_rules)
        live = {
            i: (
                n,
                _subst_gen_in_path(a, work_pg, new_pg, x, omega, tc.rule),
                _subst_gen_in_path(b, work_pg, new_pg, x, omega, tc.rule),
            )
            for i, (n, a, b) in live.items()
        }
        work_pg = new_pg
        dead_rules.add(tc.rule)
        dead_gens.add(x)

    # compaction: drop dead generators and rules, remap indices
    gen_map: dict[int, int] = {}
    gen_names: list[str] = []
    for g, name in enumerate(work_pg.generators):
        if g not in dead_gens:
            gen_map[g] = len(gen_names)
            gen_names.append(name)
    rule_map: dict[int, int] = {}
    final_rules: list[Rule] = []
    for i, r in enumerate(work_pg.rules):
        if i in dead_rules:
            continue
        for g in r.lhs + r.rhs:
            if g in dead_gens:
                raise NielsenError(
                    f"surviving rule {r.name!r} mentions an eliminated generator"
                )
        rule_map[i] = len(final_rules)
        final_rules.append(
            Rule(r.name, tuple(gen_map[g] for g in r.lhs), tuple(gen_map[g] for g in r.rhs))
        )
    final_pg = Polygraph2(gen_names, final_rules)

    def remap(path: Path2) -> Path2:
        src = tuple(gen_map[g] for g in path.source)
        steps = tuple(Step2(rule_map[s.rule], s.dir, s.pos) for s in path.steps)
        return Path2(final_pg, src, steps)

    cells = [
        ThreeCell(name, remap(a), remap(b))
        for _, (name, a, b) in sorted(live.items())
    ]
    return Polygraph31(final_pg, cells)


def nielsen_invert_rule(p31: Polygraph31, r: int) -> Polygraph31:
    """Replace rule ``r`` by its formal inverse, negating its steps."""
    base = p31.base
    old = base.rules[r]
    if not old.rhs:
        raise InputError(f"rule {old.name!r} has an empty rhs; cannot invert")
    rules = list(base.rules)
    rules[r] = Rule(old.name, old.rhs, old.lhs)
    pg = Polygraph2(list(base.generators), rules)

    def flip(path: Path2) -> Path2:
        steps = tuple(
            Step2(s.rule, -s.dir if s.rule == r else s.dir, s.pos) for s in path.steps
        )
        return Path2(pg, path.source, steps)

    cells = [ThreeCell(c.name, flip(c.src), flip(c.tgt)) for c in p31.cells]
    return Polygraph31(pg, cells)


def adjoin_definition(
    p31: Polygraph31, gen_name: str, word: Word, rule_name: str
) -> tuple[Polygraph31, TwoCollapse]:
    """Coherently adjoin a redundant generator defined by ``word``, with its
    collapsible rule.  Inverse of a 2-cell elimination; used for round trips.
    """
    base = p31.base
    pg = Polygraph2(list(base.generators) + [gen_name], list(base.rules))
    x = len(pg.generators) - 1
    idx = pg.add_rule(Rule(rule_name, tuple(word), (x,)))
    cells = [
        ThreeCell(c.name, Path2(pg, c.src.source, c.src.steps), Path2(pg, c.tgt.source, c.tgt.steps))
        for c in p31.cells
    ]
    return Polygraph31(pg, cells), TwoCollapse(idx, x)


def standard_coherent_presentation(
    table: Sequence[Sequence[int]], names: Optional[Sequence[str]] = None
) -> Polygraph31:
    """The standard coherent presentation of a finite monoid.

    One generator per element, one rule for every product pair, one rule
    collapsing the unit generator to the empty word, and the associativity
    and unit 3-cells over them.  The unit rule is stored oriented toward
    the empty word so left-hand sides stay non-empty.
    """
    n = len(table)
    if n == 0 or any(len(row) != n for row in table):
        raise InputError("multiplication table must be square and non-empty")
    for row in table:
        for v in row:
            if not (0 <= v < n):
                raise InputError("table entry out of range")
    unit = None
    for e in range(n):
        if all(table[e][x] == x and table[x][e] == x for x in range(n)):
            unit = e
            break
    if unit is None:
        raise InputError("multiplication table has no unit")
    for u in range(n):
        for v in range(n):
            for w in range(n):
                if table[table[u][v]][w] != table[u][table[v][w]]:
                    raise InputError(f"table not associative at ({u},{v},{w})")
    if names is None:
        names = [f"x{i}" for i in range(n)]
    pg = Polygraph2(list(names))
    mu = [[0] * n for _ in range(n)]
    for u in range(n):
        for v in range(n):
            mu[u][v] = pg.add_rule(
                Rule(f"mu({names[u]},{names[v]})", (u, v), (table[u][v],))
            )
    iota = pg.add_rule(Rule("iota", (unit,), ()))
    cells = []
    for u in range(n):
        for v in range(n):
            for w in range(n):
                src = Path2(pg, (u, v, w), ((mu[u][v], 1, 0), (mu[table[u][v]][w], 1, 0)))
                tgt = Path2(pg, (u, v, w), ((mu[v][w], 1, 1), (mu[u][table[v][w]], 1, 0)))
                cells.append(
                    ThreeCell(f"assoc({names[u]},{names[v]},{names[w]})", src, tgt)
                )
    for u in range(n):
        src = Path2(pg, (u,), ((iota, -1, 0), (mu[unit][u], 1, 0)))
        cells.append(ThreeCell(f"lunit({names[u]})", src, Path2(pg, (u,))))
    for u in range(n):
        src = Path2(pg, (u,), ((iota, -1, 1), (mu[u][unit], 1, 0)))
        cells.append(ThreeCell(f"runit({names[u]})", src, Path2(pg, (u,))))
    return Polygraph31(pg, cells)
