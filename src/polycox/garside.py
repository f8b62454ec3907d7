"""Garside and Artin coherent presentations of Artin monoids.

The pipeline: generators of the Garside presentation are the non-trivial
elements of a finite Coxeter group W, with one rule u|v => uv per
length-additive pair.  Homotopical completion under the wreath order adds
the rules u|vw => uv|w for the non-additive triples and one 3-cell per
critical branching; every 3-cell falls into exactly one of nine families
(A through I), read off the shape of its branching.  Homotopical
reduction along the B-cells and seven families of triple-confluence
spheres leaves the A-family cells only.  A second reduction, driven by
the chain of smallest divisors, contracts that presentation onto Artin's
presentation with one Zamolodchikov 3-cell per finite rank-3 parabolic
subgroup; the engine computes those Z-cells directly through the
projection's recursive formulas, each inside its own parabolic.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional

from .completion import (
    Branching,
    Polygraph31,
    Sphere3,
    SphereEntry,
    ThreeCell,
    TripleBranching,
    cells_by_branching,
    critical_branchings,
    generating_triple_confluence,
)
from .coxeter import CoxeterGroup, CoxeterMatrix, enumerate_group, rank3_finite
from .errors import (
    ClassificationError,
    CoherenceError,
    CycleError,
    DivergenceError,
    PreconditionError,
)
from .paths import Path2, Step2, compose, identity_path, inverse, normalize_path, whisker
from .tietze import (
    CollapsiblePart,
    OrderWitness,
    SphereCollapse,
    ThreeCollapse,
    TwoCollapse,
    homotopical_reduce,
)
from .words import (
    DEFAULT_COSET_CAP,
    GarsideWreath,
    Polygraph2,
    Rule,
    Word,
    check_termination,
)


@dataclass
class GarsidePresentation:
    """Gar_2(W): one generator per element of W \\ {1}, one rule per
    length-additive pair, with the id <-> element lookup maps."""

    group: CoxeterGroup
    pg: Polygraph2
    elt_of_gen: list[int]
    gen_of_elt: dict[int, int]
    alpha: dict[tuple[int, int], int]  # (u, v) element ids -> rule index

    def elements(self, w: Word) -> tuple[int, ...]:
        return tuple(self.elt_of_gen[g] for g in w)


def garside_presentation(g: CoxeterGroup) -> GarsidePresentation:
    """Build Gar_2(W) for a finite Coxeter group."""
    order = sorted(
        (e for e in range(g.size) if e != g.identity),
        key=lambda e: (g.length[e], g.word[e]),
    )
    names = ["".join(g.matrix.names[s] for s in g.word[e]) for e in order]
    pg = Polygraph2(names)
    gen_of_elt = {e: i for i, e in enumerate(order)}
    alpha: dict[tuple[int, int], int] = {}
    for u in order:
        for v in order:
            if g.is_reduced_product(u, v):
                uv = g.mult(u, v)
                idx = pg.add_rule(
                    Rule(
                        f"a({names[gen_of_elt[u]]}|{names[gen_of_elt[v]]})",
                        (gen_of_elt[u], gen_of_elt[v]),
                        (gen_of_elt[uv],),
                    )
                )
                alpha[(u, v)] = idx
    return GarsidePresentation(g, pg, order, gen_of_elt, alpha)


def garside_order(gp: GarsidePresentation) -> GarsideWreath:
    return GarsideWreath(tuple(gp.group.length[e] for e in gp.elt_of_gen))


@dataclass(frozen=True)
class FamilyTag:
    """Which of the nine 3-cell families a completed cell belongs to."""

    letter: str
    indices: tuple[int, ...]  # element ids


@dataclass
class GarsideCompletion:
    """The completed (3,1)-polygraph over Gar_2(W) with family tags."""

    gp: GarsidePresentation
    p31: Polygraph31
    tags: list[FamilyTag]
    beta: dict[tuple[int, int, int], int]  # (u, v, w) -> rule index
    beta_of_rule: dict[int, tuple[int, int, int]]


def _additive(g: CoxeterGroup, *elts: int) -> bool:
    total = g.identity
    for e in elts:
        total = g.mult(total, e)
    return g.length[total] == sum(g.length[e] for e in elts)


def complete_garside(
    g: CoxeterGroup,
    *,
    rule_budget: Optional[int] = None,
    branching_budget: Optional[int] = None,
) -> GarsideCompletion:
    """The homotopical completion S(Gar_2(W)) with its family classification.

    All critical branchings of Gar_2(W) are completed against Gar_2(W)
    itself, which adjoins one rule u|vw => uv|w per triple with u|v and
    v|w length-additive but u|v|w not; those are exactly the rules the
    wreath order orients this way, and they leave no further branching
    unconfluent.  Each critical branching of the completed rule set then
    receives the 3-cell of its family shape; a branching matching no
    family raises, signalling an engine bug.

    ``rule_budget`` bounds the adjoined rules, checked as they are adjoined
    and so before the overlap search, and ``branching_budget`` bounds the
    critical branchings of the completed rule set; either raises
    DivergenceError when exceeded.  None leaves that count unbounded.
    """
    gp = garside_presentation(g)
    pg = Polygraph2(list(gp.pg.generators), list(gp.pg.rules))
    n_alpha = len(pg.rules)
    names = pg.generators

    def elt(gen: int) -> int:
        return gp.elt_of_gen[gen]

    def gen(e: int) -> int:
        return gp.gen_of_elt[e]

    beta: dict[tuple[int, int, int], int] = {}
    beta_of_rule: dict[int, tuple[int, int, int]] = {}
    for u in gp.elt_of_gen:
        for v in gp.elt_of_gen:
            if not g.is_reduced_product(u, v):
                continue
            uv = g.mult(u, v)
            for w in gp.elt_of_gen:
                if not g.is_reduced_product(v, w) or _additive(g, u, v, w):
                    continue
                if rule_budget is not None and len(beta) >= rule_budget:
                    raise DivergenceError(
                        f"rule budget {rule_budget} exceeded: reached "
                        f"{len(beta) + 1} adjoined rules"
                    )
                vw = g.mult(v, w)
                idx = pg.add_rule(
                    Rule(
                        f"b({names[gen(u)]}|{names[gen(v)]}|{names[gen(w)]})",
                        (gen(u), gen(vw)),
                        (gen(uv), gen(w)),
                    )
                )
                beta[(u, v, w)] = idx
                beta_of_rule[idx] = (u, v, w)
    bad = check_termination(pg, garside_order(gp))
    if bad:
        raise ClassificationError(
            "wreath order does not orient: " + ", ".join(r.name for r in bad)
        )

    def rule_kind(step: Step2):
        if step.rule < n_alpha:
            lhs = pg.rules[step.rule].lhs
            return ("alpha", (elt(lhs[0]), elt(lhs[1])))
        return ("beta", beta_of_rule[step.rule])

    def classify(br: Branching) -> FamilyTag:
        ka, ia = rule_kind(br.left)
        kb, ib = rule_kind(br.right)
        if br.right.pos == 1:
            if ka == "alpha":
                u, v = ia
                if kb == "alpha":
                    v2, wv = ib
                    if v2 != v:
                        raise ClassificationError("misaligned overlap")
                    letter = "A" if _additive(g, u, v, wv) else "B"
                    return FamilyTag(letter, (u, v, wv))
                v2, x, y = ib
                if v2 != v:
                    raise ClassificationError("misaligned overlap")
                letter = "C" if _additive(g, u, v, x) else "D"
                return FamilyTag(letter, (u, v, x, y))
            u, v, wv = ia
            vw = g.mult(v, wv)
            if kb == "alpha":
                vw2, x = ib
                if vw2 != vw:
                    raise ClassificationError("misaligned overlap")
                return FamilyTag("E", (u, v, wv, x))
            vw2, x, y = ib
            if vw2 != vw:
                raise ClassificationError("misaligned overlap")
            letter = "F" if _additive(g, wv, x, y) else "G"
            return FamilyTag(letter, (u, v, wv, x, y))
        if br.right.pos == 0:
            if ka != "beta" or kb != "beta":
                raise ClassificationError("equal-source branching without two betas")
            u1, v1, w1 = ia
            u2, v2, w2 = ib
            if u1 != u2 or g.mult(v1, w1) != g.mult(v2, w2):
                raise ClassificationError("equal-source branching mismatch")
            if g.divides(v1, v2):
                return FamilyTag("H", (u1, v1, g.complement(v1, v2), w2))
            if g.divides(v2, v1):
                return FamilyTag("H", (u1, v2, g.complement(v2, v1), w1))
            return FamilyTag("I", (u1, v1, w1, v2, w2))
        raise ClassificationError(f"unexpected branching shape at {br.source}")

    def alpha_step(u: int, v: int, pos: int) -> Step2:
        return Step2(gp.alpha[(u, v)], 1, pos)

    def beta_step(u: int, v: int, w: int, pos: int) -> Step2:
        return Step2(beta[(u, v, w)], 1, pos)

    def sides(tag: FamilyTag) -> tuple[tuple[Step2, ...], tuple[Step2, ...]]:
        """The two reduction paths of the family's confluence diagram."""
        if tag.letter == "A":
            u, v, w = tag.indices
            return (
                (alpha_step(u, v, 0), alpha_step(g.mult(u, v), w, 0)),
                (alpha_step(v, w, 1), alpha_step(u, g.mult(v, w), 0)),
            )
        if tag.letter == "B":
            u, v, w = tag.indices
            return (
                (alpha_step(u, v, 0),),
                (alpha_step(v, w, 1), beta_step(u, v, w, 0)),
            )
        if tag.letter == "C":
            u, v, w, x = tag.indices
            return (
                (alpha_step(u, v, 0), beta_step(g.mult(u, v), w, x, 0)),
                (beta_step(v, w, x, 1), alpha_step(u, g.mult(v, w), 0)),
            )
        if tag.letter == "D":
            u, v, w, x = tag.indices
            return (
                (alpha_step(u, v, 0),),
                (
                    beta_step(v, w, x, 1),
                    beta_step(u, v, w, 0),
                    alpha_step(w, x, 1),
                ),
            )
        if tag.letter == "E":
            u, v, w, x = tag.indices
            return (
                (beta_step(u, v, w, 0), alpha_step(w, x, 1)),
                (alpha_step(g.mult(v, w), x, 1), beta_step(u, v, g.mult(w, x), 0)),
            )
        if tag.letter == "F":
            u, v, w, x, y = tag.indices
            return (
                (beta_step(u, v, w, 0), alpha_step(w, g.mult(x, y), 1)),
                (
                    beta_step(g.mult(v, w), x, y, 1),
                    beta_step(u, v, g.mult(w, x), 0),
                    alpha_step(g.mult(w, x), y, 1),
                ),
            )
        if tag.letter == "G":
            u, v, w, x, y = tag.indices
            return (
                (beta_step(u, v, w, 0), beta_step(w, x, y, 1)),
                (
                    beta_step(g.mult(v, w), x, y, 1),
                    beta_step(u, v, g.mult(w, x), 0),
                ),
            )
        if tag.letter == "H":
            u, v, x, y = tag.indices
            return (
                (beta_step(u, v, g.mult(x, y), 0), beta_step(g.mult(u, v), x, y, 0)),
                (beta_step(u, g.mult(v, x), y, 0),),
            )
        u, v1, w1, v2, w2 = tag.indices
        join = g.lcm(v1, v2)
        x1, x2 = g.complement(v1, join), g.complement(v2, join)
        y = g.complement(join, g.mult(v1, w1))
        return (
            (beta_step(u, v1, w1, 0), beta_step(g.mult(u, v1), x1, y, 0)),
            (beta_step(u, v2, w2, 0), beta_step(g.mult(u, v2), x2, y, 0)),
        )

    branchings = critical_branchings(pg)
    if branching_budget is not None and len(branchings) > branching_budget:
        raise DivergenceError(
            f"branching budget {branching_budget} exceeded: reached "
            f"{len(branchings)} critical branchings"
        )
    tags: list[FamilyTag] = []
    cells: list[ThreeCell] = []
    for i, br in enumerate(branchings):
        tag = classify(br)
        left_steps, right_steps = sides(tag)
        if left_steps[0] != br.left or right_steps[0] != br.right:
            # the branching steps fix which side is which; re-anchor on ties
            if left_steps[0] == br.right and right_steps[0] == br.left:
                left_steps, right_steps = right_steps, left_steps
            else:
                raise ClassificationError(
                    f"family shape does not match its branching at {br.source}"
                )
        idx = ",".join(
            "".join(g.matrix.names[s] for s in g.word[e]) for e in tag.indices
        )
        tags.append(tag)
        cells.append(
            ThreeCell(
                f"{tag.letter}({idx})#{i}",
                Path2(pg, br.source, left_steps),
                Path2(pg, br.source, right_steps),
            )
        )
    return GarsideCompletion(gp, Polygraph31(pg, cells), tags, beta, beta_of_rule)


_FAMILY_RANK = {letter: i for i, letter in enumerate("ABCDEFGHI")}


def _resolve_side(
    p31: Polygraph31, start: Path2, end: Path2, specs
) -> tuple[SphereEntry, ...]:
    """Assemble one side of a sphere from face specifications, orienting
    each face so it rewrites the running 2-cell; verifies the side closes
    onto ``end`` modulo exchange."""
    cur = start
    out = []
    for idx, lw, rw, pre, post in specs:
        c = p31.cells[idx]
        cur_nf = normalize_path(cur).steps
        for d in (1, -1):
            a, b = (c.src, c.tgt) if d > 0 else (c.tgt, c.src)
            cand = compose(compose(pre, whisker(lw, a, rw)), post)
            if cand.source == cur.source and normalize_path(cand).steps == cur_nf:
                out.append(SphereEntry(idx, d, lw, rw, pre, post))
                cur = compose(compose(pre, whisker(lw, b, rw)), post)
                break
        else:
            raise CoherenceError(f"sphere face {c.name!r} does not fit its slot")
    if cur.target != end.target or (
        normalize_path(cur).steps != normalize_path(end).steps
    ):
        raise CoherenceError("sphere side does not close")
    return tuple(out)


def garside_reduction_part(gc: GarsideCompletion) -> CollapsiblePart:
    """The collapsible part contracting S(Gar_2(W)) onto Gar_3(W).

    All B-cells collapse with their beta rules redundant, and every cell
    of the families C through I is designated redundant in the 3-sphere of
    its family's generating triple confluence, transcribed face by face;
    cells are ordered I > H > ... > B > A by family.
    """
    gp, g, p31 = gc.gp, gc.gp.group, gc.p31
    pg = p31.base
    lookup = cells_by_branching(p31)
    m = g.mult

    def gen(e: int) -> int:
        return gp.gen_of_elt[e]

    def W(*elts: int) -> Word:
        return tuple(gen(e) for e in elts)

    def aS(a: int, b: int, pos: int) -> Step2:
        return Step2(gp.alpha[(a, b)], 1, pos)

    def bS(a: int, b: int, c: int, pos: int) -> Step2:
        return Step2(gc.beta[(a, b, c)], 1, pos)

    def P(word: Word, *steps: Step2) -> Path2:
        return Path2(pg, word, steps)

    def face(word: Word, s1: Step2, s2: Step2) -> int:
        k1, k2 = sorted(
            ((s1.rule, s1.pos), (s2.rule, s2.pos)), key=lambda rp: (rp[1], rp[0])
        )
        idx = lookup.get((word, k1, k2))
        if idx is None:
            raise CoherenceError(f"no 3-cell for the branching at {pg.word_str(word)}")
        return idx

    def fAB(a: int, b: int, c: int) -> int:
        # the A- or B-family face on a|b|c
        return face(W(a, b, c), aS(a, b, 0), aS(b, c, 1))

    def fCD(a: int, b: int, c: int, d: int) -> int:
        # the C- or D-family face on a|b|cd
        return face(W(a, b, m(c, d)), aS(a, b, 0), bS(b, c, d, 1))

    def fE(a: int, b: int, c: int, d: int) -> int:
        # the E-family face on a|bc|d
        return face(W(a, m(b, c), d), bS(a, b, c, 0), aS(m(b, c), d, 1))

    def fH(a: int, b: int, c: int, d: int) -> int:
        # the H-family face on a|bcd
        return face(
            W(a, m(b, m(c, d))), bS(a, b, m(c, d), 0), bS(a, m(b, c), d, 0)
        )

    three: list[ThreeCollapse] = []
    spheres: list[SphereCollapse] = []
    for i, tag in enumerate(gc.tags):
        letter, idx = tag.letter, tag.indices
        if letter == "A":
            continue
        if letter == "B":
            three.append(ThreeCollapse(i, gc.beta[idx]))
            continue
        if letter in ("C", "D", "E", "H"):
            u, v, w, x = idx
            X = W(u, v, w, x)
            idX = P(X)
            uv, vw, wx = m(u, v), m(v, w), m(w, x)
        if letter == "C":
            start = P(X, aS(u, v, 0), aS(uv, w, 0))
            end = P(X, aS(w, x, 2), bS(v, w, x, 1), aS(u, vw, 0))
            idT = P(W(m(uv, w), x))
            lhs = [
                (fAB(u, v, w), (), W(x), idX, idT),
                (fAB(v, w, x), W(u), (), idX, P(W(u, vw, x), aS(u, vw, 0))),
            ]
            rhs = [
                (fAB(uv, w, x), (), (), P(X, aS(u, v, 0)), idT),
                (i, (), (), P(X, aS(w, x, 2)), idT),
            ]
        elif letter == "D":
            start = P(X, aS(u, v, 0), aS(w, x, 1))
            end = P(X, aS(w, x, 2), bS(v, w, x, 1), bS(u, v, w, 0), aS(w, x, 1))
            idT = P(W(uv, wx))
            lhs = [
                (fAB(u, v, w), (), W(x), idX, P(W(uv, w, x), aS(w, x, 1))),
                (
                    fAB(v, w, x),
                    W(u),
                    (),
                    idX,
                    P(W(u, vw, x), bS(u, v, w, 0), aS(w, x, 1)),
                ),
            ]
            rhs = [(i, (), (), P(X, aS(w, x, 2)), idT)]
        elif letter == "E":
            start = P(X, aS(u, v, 0), aS(w, x, 1))
            end = P(X, aS(w, x, 2), aS(v, wx, 1), bS(u, v, wx, 0))
            idT = P(W(uv, wx))
            lhs = [
                (fAB(u, v, w), (), W(x), idX, P(W(uv, w, x), aS(w, x, 1))),
                (i, (), (), P(X, aS(v, w, 1)), idT),
                (fAB(v, w, x), W(u), (), idX, P(W(u, m(v, wx)), bS(u, v, wx, 0))),
            ]
            rhs = [(fAB(u, v, wx), (), (), P(X, aS(w, x, 2)), idT)]
        elif letter == "F":
            u, v, w, x, y = idx
            uv, vw, wx, xy = m(u, v), m(v, w), m(w, x), m(x, y)
            X = W(u, vw, x, y)
            idX = P(X)
            start = P(X, bS(u, v, w, 0), aS(w, x, 1), aS(wx, y, 1))
            end = P(X, aS(x, y, 2), bS(vw, x, y, 1), bS(u, v, wx, 0), aS(wx, y, 1))
            idT = P(W(uv, m(w, xy)))
            lhs = [
                (fE(u, v, w, x), (), W(y), idX, P(W(uv, wx, y), aS(wx, y, 1))),
                (
                    fAB(vw, x, y),
                    W(u),
                    (),
                    idX,
                    P(W(u, m(vw, x), y), bS(u, v, wx, 0), aS(wx, y, 1)),
                ),
            ]
            rhs = [
                (fAB(w, x, y), W(uv), (), P(X, bS(u, v, w, 0)), idT),
                (i, (), (), P(X, aS(x, y, 2)), idT),
            ]
        elif letter == "G":
            u, v, w, x, y = idx
            uv, vw, wx, xy = m(u, v), m(v, w), m(w, x), m(x, y)
            X = W(u, v, w, xy)
            idX = P(X)
            start = P(X, aS(u, v, 0), bS(w, x, y, 1))
            end = P(X, bS(w, x, y, 2), aS(v, wx, 1), bS(u, v, wx, 0))
            idT = P(W(uv, wx, y))
            lhs = [
                (fAB(u, v, w), (), W(xy), idX, P(W(uv, w, xy), bS(w, x, y, 1))),
                (i, (), (), P(X, aS(v, w, 1)), idT),
                (
                    fCD(v, w, x, y),
                    W(u),
                    (),
                    idX,
                    P(W(u, m(v, wx), y), bS(u, v, wx, 0)),
                ),
            ]
            rhs = [(fAB(u, v, wx), (), W(y), P(X, bS(w, x, y, 2)), idT)]
        elif letter == "H":
            start = P(X, aS(u, v, 0), aS(uv, w, 0))
            end = P(X, aS(w, x, 2), aS(v, wx, 1), bS(u, vw, x, 0))
            idT = P(W(m(uv, w), x))
            lhs = [
                (fAB(u, v, w), (), W(x), idX, idT),
                (fAB(u, vw, x), (), (), P(X, aS(v, w, 1)), idT),
                (fAB(v, w, x), W(u), (), idX, P(W(u, m(v, wx)), bS(u, vw, x, 0))),
            ]
            rhs = [
                (fAB(uv, w, x), (), (), P(X, aS(u, v, 0)), idT),
                (
                    fAB(u, v, wx),
                    (),
                    (),
                    P(X, aS(w, x, 2)),
                    P(W(uv, wx), bS(uv, w, x, 0)),
                ),
                (i, (), (), P(X, aS(w, x, 2), aS(v, wx, 1)), idT),
            ]
        elif letter == "I":
            u, v1, w1, v2, w2 = idx
            join = g.lcm(v1, v2)
            x1, x2 = g.complement(v1, join), g.complement(v2, join)
            y = g.complement(join, m(v1, w1))
            X = W(u, m(v1, w1))
            idX = P(X)
            start = P(X, bS(u, v1, w1, 0), bS(m(u, v1), x1, y, 0))
            end = P(X, bS(u, join, y, 0))
            idT = P(W(m(u, join), y))
            lhs = [
                (i, (), (), idX, idT),
                (fH(u, v2, x2, y), (), (), idX, idT),
            ]
            rhs = [(fH(u, v1, x1, y), (), (), idX, idT)]
        else:
            raise ClassificationError(f"unknown family {letter!r}")
        sphere = Sphere3(
            start,
            end,
            _resolve_side(p31, start, end, lhs),
            _resolve_side(p31, start, end, rhs),
        )
        spheres.append(SphereCollapse(sphere, i))

    rule_rank = {i: (0, i) for i in range(len(pg.rules)) if i not in gc.beta_of_rule}
    rule_rank.update({i: (1, i) for i in gc.beta_of_rule})
    cell_rank = {i: (_FAMILY_RANK[tag.letter], i) for i, tag in enumerate(gc.tags)}
    gen_rank = {i: (g.length[e], i) for i, e in enumerate(gp.elt_of_gen)}
    return CollapsiblePart(
        (), tuple(three), tuple(spheres), OrderWitness(gen_rank, rule_rank, cell_rank)
    )


@dataclass
class Gar3:
    """Garside's coherent presentation Gar_3(W) with its lookup maps."""

    group: CoxeterGroup
    p31: Polygraph31
    elt_of_gen: list[int]
    gen_of_elt: dict[int, int]
    alpha: dict[tuple[int, int], int]


def garside_coherent(
    g: CoxeterGroup,
    *,
    rule_budget: Optional[int] = None,
    branching_budget: Optional[int] = None,
) -> Gar3:
    """Gar_3(W): complete, then homotopically reduce to the A-family cells.

    The budgets bound the completion, as in ``complete_garside``.
    """
    gc = complete_garside(
        g, rule_budget=rule_budget, branching_budget=branching_budget
    )
    part = garside_reduction_part(gc)
    reduced = homotopical_reduce(gc.p31, part)
    gp = gc.gp
    name_of_gen = {name: i for i, name in enumerate(reduced.base.generators)}
    old_names = gp.pg.generators
    elt_of_gen = [0] * len(reduced.base.generators)
    for old_gen, e in enumerate(gp.elt_of_gen):
        new = name_of_gen.get(old_names[old_gen])
        if new is None:
            raise CoherenceError("Garside reduction eliminated a generator")
        elt_of_gen[new] = e
    gen_of_elt = {e: i for i, e in enumerate(elt_of_gen)}
    alpha = {}
    for idx, rule in enumerate(reduced.base.rules):
        if len(rule.lhs) != 2 or len(rule.rhs) != 1:
            raise CoherenceError("Garside reduction left a non-alpha rule")
        alpha[(elt_of_gen[rule.lhs[0]], elt_of_gen[rule.lhs[1]])] = idx
    return Gar3(g, reduced, elt_of_gen, gen_of_elt, alpha)


def gar4_spheres(g3: Gar3) -> list[Sphere3]:
    """The spheres of Gar_4(W): one per fully length-additive quadruple,
    assembled from the all-alpha triple branchings of Gar_3(W)."""
    g = g3.group
    lookup = cells_by_branching(g3.p31)
    memo: dict = {}
    out = []
    for (u, v), r_uv in sorted(g3.alpha.items()):
        for w in g3.elt_of_gen:
            if (v, w) not in g3.alpha:
                continue
            for x in g3.elt_of_gen:
                if (w, x) not in g3.alpha:
                    continue
                if not _additive(g, u, v, w, x):
                    continue
                source = tuple(g3.gen_of_elt[e] for e in (u, v, w, x))
                steps = (
                    Step2(r_uv, 1, 0),
                    Step2(g3.alpha[(v, w)], 1, 1),
                    Step2(g3.alpha[(w, x)], 1, 2),
                )
                out.append(
                    generating_triple_confluence(
                        g3.p31,
                        TripleBranching(source, steps),
                        lookup=lookup,
                        memo=memo,
                    )
                )
    return out


class Classification(Enum):
    ESSENTIAL = "essential"
    COLLAPSIBLE = "collapsible"
    REDUNDANT = "redundant"


def _chain_break(g: CoxeterGroup, tup: tuple[int, ...]) -> Optional[int]:
    """Least k (1-based) with u1..uk != w0(s1,..,sk), or None (essential)."""
    prods = []
    acc = g.identity
    for u in tup:
        acc = g.mult(acc, u)
        prods.append(acc)
    if g.length[prods[-1]] != sum(g.length[u] for u in tup):
        raise PreconditionError("tuple is not length-additive")
    smalls = [g.smallest_divisor(p) for p in prods]
    for k in range(1, len(tup) + 1):
        if prods[k - 1] != g.longest_element(smalls[:k]):
            return k
    return None


def classify_tuple(g: CoxeterGroup, tup: Iterable[int]) -> Classification:
    """The essential/collapsible/redundant trichotomy of a length-additive
    tuple, via the chain of longest elements over its smallest divisors."""
    tup = tuple(tup)
    k = _chain_break(g, tup)
    if k is None:
        return Classification.ESSENTIAL
    if k == 1:
        return Classification.REDUNDANT
    prods = []
    acc = g.identity
    for u in tup:
        acc = g.mult(acc, u)
        prods.append(acc)
    s_prev = g.smallest_divisor(prods[k - 2])
    s_k = g.smallest_divisor(prods[k - 1])
    return Classification.COLLAPSIBLE if s_prev == s_k else Classification.REDUNDANT


def phi_key(g: CoxeterGroup, tup: Iterable[int]) -> tuple:
    """The well-founded lexicographic key (total length, then alternating
    smallest divisor and length of each proper prefix product)."""
    tup = tuple(tup)
    prods = []
    acc = g.identity
    for u in tup:
        acc = g.mult(acc, u)
        prods.append(acc)
    key: list[int] = [g.length[prods[-1]]]
    for p in prods[:-1]:
        key.append(g.smallest_divisor(p))
        key.append(g.length[p])
    return tuple(key)


class ArtinProjection:
    """The projection of Garside data onto Artin's presentation.

    ``letters[i]`` is the ambient Artin generator for the i-th generator of
    the (parabolic) group; ``gamma[(i, j)]`` with i < j is the ambient rule
    index of the braid relation on that pair.  Collapsible rules map to
    identities, the essential rule of a pair maps to its braid relation,
    and redundant rules expand through the two inductive shapes.
    """

    def __init__(
        self,
        group: CoxeterGroup,
        art: Polygraph2,
        letters: list[int],
        gamma: dict[tuple[int, int], int],
    ):
        self.group = group
        self.art = art
        self.letters = letters
        self.gamma = gamma
        self._alpha_memo: dict[tuple[int, int], Path2] = {}
        self._depth = 0

    def word(self, u: int) -> Word:
        return tuple(self.letters[s] for s in self.group.word[u])

    def alpha_path(self, u: int, v: int) -> Path2:
        """pi of the Garside rule u|v => uv, as a path over Art_2(W)."""
        key = (u, v)
        hit = self._alpha_memo.get(key)
        if hit is not None:
            return hit
        g = self.group
        if not g.is_reduced_product(u, v):
            raise PreconditionError("pair is not length-additive")
        self._depth += 1
        if self._depth > g.size * g.size:
            raise CycleError("projection recursion failed to ground")
        try:
            if g.length[u] > 1:
                # u = s u' with s the smallest divisor: case (a)
                s = g.smallest_divisor(u)
                s_elt = g.generator(s)
                u2 = g.left[u][s]
                p1 = whisker((self.letters[s],), self.alpha_path(u2, v), ())
                p2 = self.alpha_path(s_elt, g.mult(u2, v))
                path = compose(p1, p2)
            else:
                s = g.word[u][0]
                uv = g.mult(u, v)
                r = g.smallest_divisor(uv)
                if r == s:
                    # collapsible: identity on the target word
                    path = identity_path(self.art, self.word(u) + self.word(v))
                elif uv == g.longest_element((r, s)):
                    rule = self.gamma[(self.letters[r], self.letters[s])]
                    path = Path2(
                        self.art, self.word(u) + self.word(v), ((rule, 1, 0),)
                    )
                else:
                    # case (b): split v across the braid relation on (r, s)
                    w0 = g.longest_element((r, s))
                    u2 = g.complement(u, w0)
                    v2 = g.complement(u2, v)
                    down = inverse(
                        whisker((self.letters[s],), self.alpha_path(u2, v2), ())
                    )
                    across = whisker((), self.alpha_path(u, u2), self.word(v2))
                    up = self.alpha_path(w0, v2)
                    path = compose(compose(down, across), up)
        finally:
            self._depth -= 1
        if path.source != self.word(u) + self.word(v) or path.target != self.word(
            g.mult(u, v)
        ):
            raise CoherenceError("projection produced a misbounded path")
        self._alpha_memo[key] = path
        return path

    def acell(self, t: int, u: int, v: int) -> tuple[Path2, Path2]:
        """pi of the 3-cell A_{t,u,v}: the parallel pair of projected sides,
        in exchange-normal form."""
        g = self.group
        src = compose(
            whisker((), self.alpha_path(t, u), self.word(v)),
            self.alpha_path(g.mult(t, u), v),
        )
        tgt = compose(
            whisker(self.word(t), self.alpha_path(u, v), ()),
            self.alpha_path(t, g.mult(u, v)),
        )
        return normalize_path(src), normalize_path(tgt)


def artin_presentation(mat: CoxeterMatrix) -> tuple[Polygraph2, dict[tuple[int, int], int]]:
    """Art_2(W): one generator per element of S, one braid relation per
    pair with finite order, oriented from the <ts..>-side (t > s)."""
    pg = Polygraph2(list(mat.names))
    gamma: dict[tuple[int, int], int] = {}
    for i in range(mat.rank):
        for j in range(i + 1, mat.rank):
            m = mat.m[i][j]
            if m == 0:
                continue
            lhs = tuple((j, i)[k % 2] for k in range(m))
            rhs = tuple((i, j)[k % 2] for k in range(m))
            gamma[(i, j)] = pg.add_rule(
                Rule(f"g({mat.names[i]},{mat.names[j]})", lhs, rhs)
            )
    return pg, gamma


def artin_coherent(
    mat: CoxeterMatrix, *, coset_cap: int = DEFAULT_COSET_CAP
) -> Polygraph31:
    """Art_3(W): Artin's presentation plus one Z-cell per finite rank-3
    parabolic subgroup, each computed inside that parabolic alone."""
    art, gamma = artin_presentation(mat)
    cells: list[ThreeCell] = []
    for i in range(mat.rank):
        for j in range(i + 1, mat.rank):
            for k in range(j + 1, mat.rank):
                if not rank3_finite(mat.m[i][j], mat.m[i][k], mat.m[j][k]):
                    continue
                sub = mat.submatrix((i, j, k))
                g = enumerate_group(sub, coset_cap)
                proj = ArtinProjection(g, art, [i, j, k], gamma)
                src, tgt = _zamolodchikov(g, proj)
                cells.append(
                    ThreeCell(
                        f"Z({mat.names[i]},{mat.names[j]},{mat.names[k]})", src, tgt
                    )
                )
    return Polygraph31(art, cells)


def _zamolodchikov(g: CoxeterGroup, proj: ArtinProjection) -> tuple[Path2, Path2]:
    """The essential 3-cell A_{t,u,v} of the rank-3 group, projected."""
    r, s, t = 0, 1, 2
    t_elt = g.generator(t)
    w0_st = g.longest_element((s, t))
    u = g.complement(t_elt, w0_st)
    v = g.complement(w0_st, g.longest_element((r, s, t)))
    return proj.acell(t_elt, u, v)


def cell_census(p31: Polygraph31) -> tuple[int, int, int, int]:
    """Counts of 0-, 1-, 2- and 3-cells of a presentation of a monoid."""
    return (1, p31.base.n_generators, len(p31.base.rules), len(p31.cells))


def artin_reduction_part(g3: Gar3) -> CollapsiblePart:
    """The collapsible part contracting Gar_3(W) onto Art_3(W), classified
    by the smallest-divisor chains and ordered by the Phi keys.

    Exposed for cross-checking the direct Z-cell computation against the
    generic reduction on small groups.
    """
    g = g3.group
    p31 = g3.p31

    two: list[TwoCollapse] = []
    for (u, v), idx in sorted(g3.alpha.items()):
        if classify_tuple(g, (u, v)) is Classification.COLLAPSIBLE:
            two.append(TwoCollapse(idx, g3.gen_of_elt[g.mult(u, v)]))

    def cell_triple(c: ThreeCell) -> tuple[int, int, int]:
        first = c.src.steps[0]
        rule = p31.base.rules[first.rule]
        u, v = (g3.elt_of_gen[x] for x in rule.lhs)
        w = g3.elt_of_gen[c.src.source[2]]
        return (u, v, w)

    triple_of_cell = {i: cell_triple(c) for i, c in enumerate(p31.cells)}
    cell_of_triple = {t: i for i, t in triple_of_cell.items()}

    three: list[ThreeCollapse] = []
    for i, (u, v, w) in sorted(triple_of_cell.items()):
        if classify_tuple(g, (u, v, w)) is not Classification.COLLAPSIBLE:
            continue
        if _chain_break(g, (u, v, w)) == 2:
            redundant = g3.alpha[(g.mult(u, v), w)]
        else:
            redundant = g3.alpha[(u, g.mult(v, w))]
        three.append(ThreeCollapse(i, redundant))

    spheres: list[SphereCollapse] = []
    lookup = cells_by_branching(p31)
    memo: dict = {}
    for (u, v), r_uv in sorted(g3.alpha.items()):
        for w in g3.elt_of_gen:
            if (v, w) not in g3.alpha:
                continue
            for x in g3.elt_of_gen:
                if (w, x) not in g3.alpha or not _additive(g, u, v, w, x):
                    continue
                if classify_tuple(g, (u, v, w, x)) is not Classification.COLLAPSIBLE:
                    continue
                k = _chain_break(g, (u, v, w, x))
                if k == 2:
                    dead = cell_of_triple[(g.mult(u, v), w, x)]
                elif k == 3:
                    dead = cell_of_triple[(u, g.mult(v, w), x)]
                else:
                    dead = cell_of_triple[(u, v, g.mult(w, x))]
                source = tuple(g3.gen_of_elt[e] for e in (u, v, w, x))
                steps = (
                    Step2(r_uv, 1, 0),
                    Step2(g3.alpha[(v, w)], 1, 1),
                    Step2(g3.alpha[(w, x)], 1, 2),
                )
                sphere = generating_triple_confluence(
                    p31, TripleBranching(source, steps), lookup=lookup, memo=memo
                )
                spheres.append(SphereCollapse(sphere, dead))

    gen_rank = {
        i: (g.length[e], e) for i, e in enumerate(g3.elt_of_gen)
    }
    rule_rank = {
        idx: phi_key(g, pair) + (idx,) for pair, idx in g3.alpha.items()
    }
    cell_rank = {
        i: phi_key(g, t) + (i,) for i, t in triple_of_cell.items()
    }
    return CollapsiblePart(
        tuple(two), tuple(three), tuple(spheres), OrderWitness(gen_rank, rule_rank, cell_rank)
    )
