"""Collapsible parts of (3,1)-polygraphs and the reduction along them.

Homotopical reduction eliminates a collapsible part: designated redundant
3-cells disappear through 3-spheres, redundant rules are replaced in every
surviving boundary by the path solved from their collapsible 3-cell, and
redundant generators are expanded to the defining side of their collapsible
rule.  Replacement grounds because the order witness makes each redundant
cell strictly greater than everything in its defining source; the
expansions and replacements are therefore computed once each in increasing
order, every one final when made, and each surviving boundary is rewritten
once through them.

A collapsible cell is recognized up to the Nielsen moves actually needed
here: the designated redundant cell must occur exactly once across the
boundary (after exchange/inverse normalization) and, for rules, the solved
replacement must unwhisker to a bare path between the rule's sides.
Recipes are supplied by callers; only the bare shapes are inferred.
Validation is the reduction's one check, and ``validate=False`` skips only
the sphere checks; the spheres are consumed once, from any iterable, and
only the redundant cell of each is kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .errors import NielsenError
from .completion import Polygraph31, Sphere3, ThreeCell
from .paths import Path2, Step2, compose, inverse, normalize_path
from .words import Polygraph2, Rule, Word


@dataclass(frozen=True, slots=True)
class TwoCollapse:
    """A collapsible rule; it removes a one-letter side that the other side
    lacks: ``redundant`` when declared, else the rhs if it is one, else the lhs."""

    rule: int
    redundant: Optional[int] = None  # generator id


@dataclass(frozen=True, slots=True)
class ThreeCollapse:
    """A collapsible 3-cell together with the rule it makes redundant."""

    cell: int
    redundant: int  # rule index


@dataclass(frozen=True, slots=True)
class SphereCollapse:
    """A 3-sphere together with the 3-cell it makes redundant."""

    sphere: Sphere3
    redundant: int  # 3-cell index


@dataclass(frozen=True, slots=True)
class OrderWitness:
    """Well-founded rankings; larger keys are greater cells."""

    gen_rank: dict
    rule_rank: dict
    cell_rank: dict


@dataclass(frozen=True, slots=True)
class CollapsiblePart:
    """The cells a reduction eliminates.  Validation and reduction each
    consume ``spheres`` once: a tuple can be reused, a generator cannot."""

    two_cells: tuple[TwoCollapse, ...] = ()
    three_cells: tuple[ThreeCollapse, ...] = ()
    spheres: Iterable[SphereCollapse] = ()
    order: OrderWitness = field(
        default_factory=lambda: OrderWitness({}, {}, {})
    )


def _collapse_sides(rule: Rule) -> dict[int, Word]:
    """Each generator the rule collapses, a one-letter side that the other
    side lacks, mapped to its defining word, which may be empty; rhs first."""
    sides = ((rule.rhs, rule.lhs), (rule.lhs, rule.rhs))
    return {one[0]: other for one, other in sides if len(one) == 1 and one[0] not in other}


def validate_collapsible(p31: Polygraph31, part: CollapsiblePart) -> list[str]:
    """Check the three collapsibility conditions mechanically.

    Returns a list of violations; empty means the part is collapsible.  An
    index that names no rule, generator or 3-cell, or a malformed sphere
    entry, such as a ``pre`` or ``post`` whose steps do not replay or do not
    meet its whiskered cell (through ``Sphere3.check``), is a violation too;
    nothing is raised for it.  The spheres are consumed once, in order, each
    checked as it comes; ``homotopical_reduce`` runs the same checks.
    """
    return _validate(p31, part)[0]


def _validate(
    p31: Polygraph31, part: CollapsiblePart, check_spheres: bool = True
) -> tuple[list[str], list[tuple[int, int, Word]], dict[int, Path2], set[int]]:
    """The violations of ``validate_collapsible`` and all that a reduction
    applies: each collapsible rule's (rule, generator, defining word), the
    replacement solved for each redundant rule, and the 3-cells the part
    makes redundant.  Each side of a collapsible 3-cell is normalized once.

    ``part.spheres`` is consumed once: each sphere is checked as it arrives
    and only its redundant cell is kept, so none outlives its check.  The
    whole-part checks over those cells are reported first.  Without
    ``check_spheres`` only a sphere's redundant cell is read and checked;
    every other check runs either way.
    """
    out: list[str] = []
    defs: list[tuple[int, int, Word]] = []
    solved: dict[int, Path2] = {}
    pg = p31.base
    ow = part.order

    def valid(kind: str, i, names: Sequence[str]) -> bool:
        if type(i) is int and 0 <= i < len(names):  # a bool or -1 indexes nothing
            return True
        out.append(f"no {kind} with index {i!r}")
        return False

    def rank_above(
        table: dict, kind: str, names: Sequence[str], top: int, others: Iterable[int]
    ) -> None:
        """Report unless ``top`` is ranked above every key of ``others``."""
        for o in (top, *others):
            if o not in table:
                out.append(f"{kind} {names[o]!r}: no rank for {o!r}")
            elif o != top and top in table and not table[top] > table[o]:
                out.append(f"order: {kind} {names[top]!r} not above {names[o]!r}")

    rule_names = [r.name for r in pg.rules]
    cell_names = [c.name for c in p31.cells]
    cells = range(len(cell_names))
    cell_dead = {tc.cell for tc in part.three_cells}
    rule_dead = {tc.redundant for tc in part.three_cells}
    gen_dead = set()

    for tc in part.two_cells:
        gen_ok = tc.redundant is None or valid("generator", tc.redundant, pg.generators)
        if not (valid("rule", tc.rule, rule_names) and gen_ok):
            continue
        rule = pg.rules[tc.rule]
        sides = _collapse_sides(rule)
        if not sides:
            out.append(f"rule {rule.name!r} is not collapsible")
            continue
        x = next(iter(sides)) if tc.redundant is None else tc.redundant
        if x not in sides:
            out.append(f"rule {rule.name!r}: redundant generator mismatch")
            continue
        defs.append((tc.rule, x, sides[x]))
        if x in gen_dead:
            out.append(f"generator {pg.generators[x]!r} eliminated twice")
        gen_dead.add(x)
        if tc.rule in rule_dead:
            out.append(f"rule {rule.name!r} is both collapsible and redundant")
        rank_above(ow.gen_rank, "generator", pg.generators, x, set(sides[x]))

    for tc in part.three_cells:
        if not (valid("3-cell", tc.cell, cell_names) and valid("rule", tc.redundant, rule_names)):
            continue
        cell = p31.cells[tc.cell]
        src, tgt = normalize_path(cell.src), normalize_path(cell.tgt)
        try:
            solved[tc.redundant] = _solve_replacement(pg, cell.name, src, tgt, tc.redundant)
        except NielsenError as exc:
            out.append(str(exc))
        others = {s.rule for s in src.steps + tgt.steps if s.rule != tc.redundant}
        rank_above(ow.rule_rank, "rule", rule_names, tc.redundant, others)

    redundant: list[int] = []
    for sc in part.spheres:
        if not valid("3-cell", sc.redundant, cell_names):
            continue
        redundant.append(sc.redundant)
        if not check_spheres:
            continue
        name = cell_names[sc.redundant]
        out.extend(f"sphere for {name!r}: {b}" for b in sc.sphere.check(p31))
        # Sphere3.check reports an entry whose cell is out of range
        entries = sc.sphere.lhs + sc.sphere.rhs
        entries = [e for e in entries if type(e.cell) is int and e.cell in cells]
        occ = [e for e in entries if e.cell == sc.redundant]
        if len(occ) != 1:
            out.append(f"sphere: 3-cell {name!r} occurs {len(occ)} times, need exactly 1")
        others = [e.cell for e in entries if e.cell != sc.redundant]
        rank_above(ow.cell_rank, "3-cell", cell_names, sc.redundant, others)

    sphere_dead = set(redundant)
    head = []
    if len(sphere_dead) != len(redundant):
        head.append("spheres: a 3-cell is designated redundant twice")
    if len(cell_dead) != len(part.three_cells):
        head.append("three_cells: a 3-cell collapses twice")
    if len(rule_dead) != len(part.three_cells):
        head.append("three_cells: a rule is designated redundant twice")
    if cell_dead & sphere_dead:
        head.append("a collapsible 3-cell is redundant for a sphere")
    return head + out, defs, solved, sphere_dead | cell_dead


def _solve_replacement(pg: Polygraph2, name: str, src: Path2, tgt: Path2, rho: int) -> Path2:
    """Solve, from the collapsible 3-cell ``name`` with the normalized
    sides ``src`` and ``tgt``, the path replacing rule ``rho``.

    The unique occurrence of rho is transposed to one side; the rest of the
    boundary, unwhiskered, is the replacement from lhs(rho) to rhs(rho).
    That rest runs between the words on either side of the occurrence,
    u.lhs(rho).v and u.rhs(rho).v, so once no step leaves the window
    between u and v, its unwhiskering starts at lhs(rho) and ends at
    rhs(rho).
    """
    rule = pg.rules[rho]
    occ = [(p, k) for p in (tgt, src) for k, s in enumerate(p.steps) if s.rule == rho]
    if len(occ) != 1:
        raise NielsenError(
            f"3-cell {name!r}: rule {rule.name!r} "
            f"occurs {len(occ)} times, need exactly 1"
        )
    ((hold, k),) = occ
    other = src if hold is tgt else tgt
    step = hold.steps[k]
    before = Path2(pg, hold.source, hold.steps[:k])
    after = Path2(pg, hold.words()[k + 1], hold.steps[k + 1 :])
    # u.rho^d.v  =  before^- * other * after^-
    q = compose(compose(inverse(before), other), inverse(after))
    if step.dir < 0:
        q = inverse(q)
    q = normalize_path(q)
    u_len = step.pos
    v_len = len(q.source) - u_len - len(rule.lhs)
    # unwhisker: every step must stay inside the window
    for s, w in zip(q.steps, q.words()):
        a = len(pg.rules[s.rule].lhs if s.dir > 0 else pg.rules[s.rule].rhs)
        if s.pos < u_len or s.pos + a > len(w) - v_len:
            raise NielsenError(
                f"replacement for {rule.name!r} is not a bare path "
                f"(step escapes the whisker window)"
            )
    steps = tuple(Step2(s.rule, s.dir, s.pos - u_len) for s in q.steps)
    return Path2(pg, rule.lhs, steps)


def homotopical_reduce(
    p31: Polygraph31, part: CollapsiblePart, *, validate: bool = True
) -> Polygraph31:
    """Coherently eliminate a collapsible part; presents the same monoid.

    The part is validated first and its violations raise one NielsenError,
    kept in its ``violations``; ``validate=False`` skips only the sphere
    checks.  Then one pass, lowest cells first, applies what validation
    decided.  A redundant generator's image is its defining word with the
    lower images substituted, in increasing order of the generator.  A
    redundant rule's image is its replacement with the lower images
    spliced in, in increasing order of the rule.  A surviving rule's
    image is its own step and a collapsible rule's is empty.
    Redundant 3-cells vanish with their spheres, and each surviving
    boundary is rewritten once through the images into the final
    polygraph, which replays it.  An empty part is the identity.
    """
    bad, defs, solved, dead_cells = _validate(p31, part, validate)
    if bad:
        raise NielsenError(*bad)
    base = p31.base
    ow = part.order

    dead_gens = {x for _, x, _ in defs}
    # generator -> its image, a word over the surviving generators
    image: list[Optional[Word]] = [None] * base.n_generators
    gen_names: list[str] = []
    for g, name in enumerate(base.generators):
        if g not in dead_gens:
            image[g] = (len(gen_names),)
            gen_names.append(name)
    # each letter of a defining word survives or is ranked below, so has its image
    for _, x, word in sorted(defs, key=lambda d: ow.gen_rank[d[1]]):
        image[x] = tuple(h for g in word for h in image[g])

    def expand(w: Word) -> Word:
        return tuple(h for g in w for h in image[g])

    # rule -> its image, forward steps over the final rules at the offset
    # of its expanded lhs
    rule_image: dict[int, tuple[Step2, ...]] = {r: () for r, _, _ in defs}
    rules: list[Rule] = []
    for i, r in enumerate(base.rules):
        if i not in rule_image and i not in solved:
            rule_image[i] = (Step2(len(rules), 1, 0),)
            rules.append(Rule(r.name, expand(r.lhs), expand(r.rhs)))
    final = Polygraph2(gen_names, rules)

    def rewrite(path: Path2) -> list[Step2]:
        out: list[Step2] = []
        for (r, d, pos), w in zip(path.steps, path.words()):
            body = rule_image[r]
            if d < 0:
                body = [Step2(t.rule, -t.dir, t.pos) for t in reversed(body)]
            shift = sum([len(image[g]) for g in w[:pos]])
            out.extend(Step2(t.rule, t.dir, t.pos + shift) for t in body)
        return out

    # a replacement's other rules survive, collapse or are ranked below, so have their images
    for rho in sorted(solved, key=ow.rule_rank.__getitem__):
        rule_image[rho] = tuple(rewrite(solved[rho]))

    def move(path: Path2) -> Path2:
        return Path2(final, expand(path.source), rewrite(path))

    cells = [
        ThreeCell(c.name, move(c.src), move(c.tgt))
        for i, c in enumerate(p31.cells)
        if i not in dead_cells
    ]
    return Polygraph31(final, cells)
