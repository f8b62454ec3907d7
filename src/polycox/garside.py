"""Garside and Artin coherent presentations of Artin monoids.

The pipeline: generators of the Garside presentation are the non-trivial
elements of a finite Coxeter group W, with one rule u|v => uv per
length-additive pair.  Homotopical completion under the wreath order adds
the rules u|vw => uv|w for the non-additive triples and one 3-cell per
critical branching; every 3-cell falls into exactly one of nine families
(A through I), read off the shape of its branching.  Homotopical
reduction along the B-cells and seven families of triple-confluence
spheres leaves the A-family cells only; those spheres come from one
generator, through which ``garside_coherent`` streams them into validation
so that none outlives its check.  A second reduction, driven by
the chain of smallest divisors, contracts that presentation onto Artin's
presentation with one Zamolodchikov 3-cell per finite rank-3 parabolic
subgroup; the engine computes each Z-cell through the projection's
recursive formulas once per parabolic type, keeps it in a bounded
per-process cache, and relabels it into place.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .completion import (
    Branching,
    Polygraph31,
    Sphere3,
    SphereEntry,
    ThreeCell,
    TripleBranching,
    _check_budget,
    cells_by_branching,
    critical_branchings,
    generating_triple_confluence,
)
from .coxeter import (
    CoxeterGroup,
    CoxeterMatrix,
    check_dihedral_cap,
    enumerate_group,
    rank3_finite,
)
from .errors import (
    ClassificationError,
    CoherenceError,
    InputError,
    PreconditionError,
)
from .paths import (
    Path2,
    Step2,
    compose,
    identity_path,
    inverse,
    normalize_path,
    shift_steps,
    whisker,
)
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


def _distinct_names(kind: str, letters: Sequence[str], named: dict[tuple, str]) -> None:
    """InputError if two letter sequences, tuples of ids into ``letters``,
    run together into one name: no separator could tell them apart, since
    a letter's name may hold any character but '.', which a name built from
    it cannot hold either."""
    seen: dict[str, tuple] = {}
    for seq, name in named.items():
        first = seen.setdefault(name, seq)
        if first != seq:
            raise InputError(
                f"{kind} names run together: {[letters[x] for x in first]} and "
                f"{[letters[x] for x in seq]} are both named {name!r}"
            )


def garside_presentation(g: CoxeterGroup) -> GarsidePresentation:
    """Build Gar_2(W) for a finite Coxeter group; InputError if two
    elements' words are spelled alike."""
    order = sorted(
        (e for e in range(g.size) if e != g.identity),
        key=lambda e: (g.length[e], g.word[e]),
    )
    named = {g.word[e]: "".join(g.matrix.names[s] for s in g.word[e]) for e in order}
    _distinct_names("Garside generator", g.matrix.names, named)
    names = list(named.values())
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


@dataclass(frozen=True, slots=True)
class FamilyTag:
    """Which of the nine 3-cell families a completed cell belongs to."""

    letter: str
    indices: tuple[int, ...]  # element ids


@dataclass
class GarsideCompletion:
    """The completed (3,1)-polygraph over Gar_2(W) with family tags; the
    beta rules follow the alpha rules, so rule i is beta iff i >= len(alpha)."""

    gp: GarsidePresentation
    p31: Polygraph31
    tags: list[FamilyTag]
    beta: dict[tuple[int, int, int], int]  # (u, v, w) -> rule index


def _step_makers(alpha: dict, beta: dict):
    """The forward steps of the Garside rules at offsets 0 to 2, one Step2
    per (rule, offset): ``rows[pos][rule]``, and the same steps by key,
    ``a_rows[pos][(u, v)]`` for alpha(u, v) and ``b_rows[pos][(u, v, w)]``
    for beta(u, v, w).  Rule ids run over alpha's then beta's, and no word
    of a cell or sphere has more than four letters, so no step of a
    two-letter lhs sits further right.  A lookup is one subscript, with no
    key built for the offset; a missing rule raises KeyError."""
    rows = [[Step2(r, 1, pos) for r in range(len(alpha) + len(beta))] for pos in range(3)]
    a_rows = [{k: row[r] for k, r in alpha.items()} for row in rows]
    return rows, a_rows, [{k: row[r] for k, r in beta.items()} for row in rows]


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
    critical branchings of the completed rule set, checked while the
    overlap search finds them; either raises DivergenceError when
    exceeded.  None leaves that count unbounded.
    """
    gp = garside_presentation(g)
    pg = Polygraph2(list(gp.pg.generators), list(gp.pg.rules))
    gen = gp.gen_of_elt
    label = {e: pg.generators[i] for e, i in gen.items()}  # an element's name
    alpha = gp.alpha
    beta: dict[tuple[int, int, int], int] = {}
    for u, v in alpha:
        uv = g.mult(u, v)
        for w in gp.elt_of_gen:
            if (v, w) not in alpha or (uv, w) in alpha:
                continue
            _check_budget("rule", rule_budget, len(beta) + 1, "adjoined rules")
            vw = g.mult(v, w)
            idx = pg.add_rule(
                Rule(
                    f"b({label[u]}|{label[v]}|{label[w]})",
                    (gen[u], gen[vw]),
                    (gen[uv], gen[w]),
                )
            )
            beta[(u, v, w)] = idx

    m = g.mult
    key = [*alpha, *beta]  # rule id -> (u, v) of alpha or (u, v, w) of beta
    _, (a0, a1, _), (b0, b1, _) = _step_makers(alpha, beta)

    def family(br: Branching) -> Optional[tuple[FamilyTag, tuple, tuple]]:
        """The family of a critical branching with the two reduction paths
        of its confluence diagram, read off the branching's shape; None
        for a shape no family has.  A rule lookup that fails raises
        KeyError, and a key of the wrong kind ValueError."""
        left, right = key[br.left.rule], key[br.right.rule]
        if br.right.pos == 0:  # beta/beta on one source u|vw
            u, v1, w1 = left
            _, v2, w2 = right
            if g.divides(v1, v2):
                x = g.complement(v1, v2)
                return (
                    FamilyTag("H", (u, v1, x, w2)),
                    (b0[u, v1, w1], b0[m(u, v1), x, w2]),
                    (b0[u, v2, w2],),
                )
            x1, x2, y = _i_split(g, v1, w1, v2)
            return (
                FamilyTag("I", (u, v1, w1, v2, w2)),
                (b0[u, v1, w1], b0[m(u, v1), x1, y]),
                (b0[u, v2, w2], b0[m(u, v2), x2, y]),
            )
        if br.right.pos != 1:
            return None
        if len(left) == 2:
            u, v = left
            if len(right) == 2:  # alpha/alpha on u|v|w
                _, w = right
                if (m(u, v), w) in alpha:
                    return (
                        FamilyTag("A", (u, v, w)),
                        (a0[u, v], a0[m(u, v), w]),
                        (a1[v, w], a0[u, m(v, w)]),
                    )
                return (
                    FamilyTag("B", (u, v, w)),
                    (a0[u, v],),
                    (a1[v, w], b0[u, v, w]),
                )
            _, x, y = right  # alpha/beta on u|v|xy
            if (m(u, v), x) in alpha:
                return (
                    FamilyTag("C", (u, v, x, y)),
                    (a0[u, v], b0[m(u, v), x, y]),
                    (b1[v, x, y], a0[u, m(v, x)]),
                )
            return (
                FamilyTag("D", (u, v, x, y)),
                (a0[u, v],),
                (b1[v, x, y], b0[u, v, x], a1[x, y]),
            )
        u, v, w = left
        if len(right) == 2:  # beta/alpha on u|vw|x
            _, x = right
            return (
                FamilyTag("E", (u, v, w, x)),
                (b0[u, v, w], a1[w, x]),
                (a1[m(v, w), x], b0[u, v, m(w, x)]),
            )
        _, x, y = right  # beta/beta on u|vw|xy
        if (m(w, x), y) in alpha:
            return (
                FamilyTag("F", (u, v, w, x, y)),
                (b0[u, v, w], a1[w, m(x, y)]),
                (b1[m(v, w), x, y], b0[u, v, m(w, x)], a1[m(w, x), y]),
            )
        return (
            FamilyTag("G", (u, v, w, x, y)),
            (b0[u, v, w], b1[w, x, y]),
            (b1[m(v, w), x, y], b0[u, v, m(w, x)]),
        )

    branchings = critical_branchings(pg, budget=branching_budget)
    tags: list[FamilyTag] = []
    cells: list[ThreeCell] = []
    words: dict[Word, Word] = {}  # one source word per value
    for i, br in enumerate(branchings):
        try:
            found = family(br)
        except (KeyError, ValueError):
            found = None
        # the sides must begin with the branching's own two steps
        if found is None or found[1][0] != br.left or found[2][0] != br.right:
            raise ClassificationError(
                f"no family matches the branching at {pg.word_str(br.source)}"
            )
        tag, left_steps, right_steps = found
        idx = ",".join([label[e] for e in tag.indices])
        source = words.setdefault(br.source, br.source)
        tags.append(tag)
        cells.append(
            ThreeCell(
                f"{tag.letter}({idx})#{i}",
                Path2._make(pg, source, left_steps, None),
                Path2._make(pg, source, right_steps, None),
            )
        )
    return GarsideCompletion(gp, Polygraph31(pg, cells), tags, beta)


def _i_split(g: CoxeterGroup, v1: int, w1: int, v2: int) -> tuple[int, int, int]:
    """The I-branching of u|v1w1 and u|v2w2 split through j = lcm(v1, v2):
    the complements x1 of v1 and x2 of v2 in j, and y of j in v1w1."""
    join = g.lcm(v1, v2)
    return g.complement(v1, join), g.complement(v2, join), g.complement(join, g.mult(v1, w1))


_FAMILIES = "ABCDEFGHI"
# a face is looked up by its family with B merged into A and D into C
_FACE_LETTER = str.maketrans("BD", "AC")


def garside_reduction_part(gc: GarsideCompletion) -> CollapsiblePart:
    """The collapsible part contracting S(Gar_2(W)) onto Gar_3(W).

    All B-cells collapse with their beta rules redundant, and every cell
    of the families C through I is designated redundant in the 3-sphere of
    its family's generating triple confluence, transcribed face by face;
    cells are ordered I > H > ... > B > A by family.  The spheres are those
    of ``_garside_spheres``, materialized.  The part is only built here:
    ``validate_collapsible``, which ``homotopical_reduce`` runs by default,
    checks every sphere.
    """
    spheres = tuple(_garside_spheres(gc))
    return replace(_garside_frame(gc), spheres=spheres)


def _garside_frame(gc: GarsideCompletion) -> CollapsiblePart:
    """The Garside part without its spheres: the B-cells with their beta
    rules, and the order witness."""
    three = tuple(
        ThreeCollapse(i, gc.beta[tag.indices])
        for i, tag in enumerate(gc.tags)
        if tag.letter == "B"
    )
    rule_rank = {i: i for i in range(len(gc.p31.base.rules))}  # alpha before beta
    # by family alone: every other face of a Garside sphere is of a lower family
    cell_rank = {i: _FAMILIES.index(tag.letter) for i, tag in enumerate(gc.tags)}
    gen_rank = {i: i for i in range(len(gc.gp.elt_of_gen))}  # ids are in length order
    return CollapsiblePart((), three, (), OrderWitness(gen_rank, rule_rank, cell_rank))


class _Faces(dict):
    """The 3-cells of one face family, by element ids; a miss raises."""

    def __init__(self, letter: str):
        self.letter = letter

    def __missing__(self, elts: tuple[int, ...]):
        raise CoherenceError(f"no {self.letter}-family 3-cell on elements {elts}")


def _garside_spheres(gc: GarsideCompletion) -> Iterator[SphereCollapse]:
    """The spheres of the Garside part, one per cell of the families C
    through I, in tag order, each built only when asked for.

    Faces are forward (direction +1) and found by their cell's family tag
    in the A, C, E and H tables; a missing face raises CoherenceError.  A
    face's pre path starts at the sphere's source word, its post path at
    left + cell target + right.  No lhs is empty: the sphere's source is
    its first face, pre + the cell's src shifted by len(left) + post, and
    its target its last, through tgt.  Each step is a subscript into the
    rows of ``_step_makers`` and each whisker, empty or one letter, into
    a table per element.  Words, the entries' pre and post step tuples and
    identity paths are shared per value while the generator lives, in
    tables keyed by the values; the sphere's source and target steps,
    which rarely repeat, are built per sphere.  A path with steps belongs
    to its sphere alone: no sphere uses one twice (their offsets, lengths
    or rules differ by family shape), so a finished sphere leaves no path
    behind.  The paths carry no target, so each is replayed at each use
    when its sphere is checked, and the check keeps no word.
    """
    gp, pg, m = gc.gp, gc.p31.base, gc.gp.group.mult
    gen = gp.gen_of_elt
    faces = {letter: _Faces(letter) for letter in "ACEH"}
    for i, tag in enumerate(gc.tags):
        faces.get(tag.letter.translate(_FACE_LETTER), {})[tag.indices] = i
    fA, fC, fE, fH = faces.values()
    cells = gc.p31.cells
    tgt = [c.src.target for c in cells]  # replayed by ThreeCell
    one = {e: (i,) for e, i in gen.items()}  # the one-letter whiskers
    words: dict[Word, Word] = {}
    seqs: dict[tuple[Step2, ...], tuple[Step2, ...]] = {}
    ids: dict[Word, Path2] = {}
    rows, (a0, a1, a2), (b0, b1, b2) = _step_makers(gp.alpha, gc.beta)

    def W(*elts: int) -> Word:
        w = tuple([gen[e] for e in elts])
        return words.setdefault(w, w)

    def identity(w: Word) -> Path2:
        path = ids.get(w)
        if path is None:
            path = ids[w] = Path2._make(pg, w, (), None)
        return path

    def E(cell: int, left=(), right=(), pre=(), post=()) -> SphereEntry:
        t = left + tgt[cell] + right
        t = words.setdefault(t, t)
        return SphereEntry(
            cell, 1, left, right,
            Path2._make(pg, X, seqs.setdefault(pre, pre), None) if pre else idX,
            Path2._make(pg, t, seqs.setdefault(post, post), None) if post else identity(t),
        )  # fmt: skip

    def face_path(e: SphereEntry, side: Path2) -> Path2:
        k = len(e.left)
        steps = e.pre.steps + tuple([rows[pos + k][r] for r, _, pos in side.steps]) + e.post.steps
        return Path2._make(pg, X, steps, None)

    for i, tag in enumerate(gc.tags):
        letter, idx = tag.letter, tag.indices
        if letter in ("A", "B"):
            continue
        if letter in ("C", "D", "E", "H"):
            u, v, w, x = idx
            X = W(u, v, w, x)
            uv, vw, wx = m(u, v), m(v, w), m(w, x)
        elif letter in ("F", "G"):
            u, v, w, x, y = idx
            uv, vw, wx, xy = m(u, v), m(v, w), m(w, x), m(x, y)
            X = W(u, vw, x, y) if letter == "F" else W(u, v, w, xy)
        else:  # I
            u, v1, w1, v2, w2 = idx
            X = W(u, m(v1, w1))
        idX = identity(X)
        if letter == "C":
            lhs = (
                E(fA[u, v, w], right=one[x]),
                E(fA[v, w, x], left=one[u], post=(a0[u, vw],)),
            )
            rhs = (
                E(fA[uv, w, x], pre=(a0[u, v],)),
                E(i, pre=(a2[w, x],)),
            )
        elif letter == "D":
            lhs = (
                E(fA[u, v, w], right=one[x], post=(a1[w, x],)),
                E(fA[v, w, x], left=one[u], post=(b0[u, v, w], a1[w, x])),
            )
            rhs = (E(i, pre=(a2[w, x],)),)
        elif letter == "E":
            lhs = (
                E(fA[u, v, w], right=one[x], post=(a1[w, x],)),
                E(i, pre=(a1[v, w],)),
                E(fA[v, w, x], left=one[u], post=(b0[u, v, wx],)),
            )
            rhs = (E(fA[u, v, wx], pre=(a2[w, x],)),)
        elif letter == "F":
            lhs = (
                E(fE[u, v, w, x], right=one[y], post=(a1[wx, y],)),
                E(fA[vw, x, y], left=one[u], post=(b0[u, v, wx], a1[wx, y])),
            )
            rhs = (
                E(fA[w, x, y], left=one[uv], pre=(b0[u, v, w],)),
                E(i, pre=(a2[x, y],)),
            )
        elif letter == "G":
            lhs = (
                E(fA[u, v, w], right=one[xy], post=(b1[w, x, y],)),
                E(i, pre=(a1[v, w],)),
                E(fC[v, w, x, y], left=one[u], post=(b0[u, v, wx],)),
            )
            rhs = (E(fA[u, v, wx], right=one[y], pre=(b2[w, x, y],)),)
        elif letter == "H":
            lhs = (
                E(fA[u, v, w], right=one[x]),
                E(fA[u, vw, x], pre=(a1[v, w],)),
                E(fA[v, w, x], left=one[u], post=(b0[u, vw, x],)),
            )
            rhs = (
                E(fA[uv, w, x], pre=(a0[u, v],)),
                E(fA[u, v, wx], pre=(a2[w, x],), post=(b0[uv, w, x],)),
                E(i, pre=(a2[w, x], a1[v, wx])),
            )
        else:  # I
            x1, x2, y = _i_split(gp.group, v1, w1, v2)
            lhs = (E(i), E(fH[u, v2, x2, y]))
            rhs = (E(fH[u, v1, x1, y]),)
        source = face_path(lhs[0], cells[lhs[0].cell].src)
        target = face_path(lhs[-1], cells[lhs[-1].cell].tgt)
        yield SphereCollapse(Sphere3(source, target, lhs, rhs), i)


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

    The budgets bound the completion, as in ``complete_garside``.  It
    reduces through ``homotopical_reduce`` along the Garside part, whose
    spheres are the ``_garside_spheres`` generator rather than a tuple:
    validation checks each as it is built and keeps only its redundant
    cell.  An invalid part raises NielsenError with every violation.
    """
    gc = complete_garside(
        g, rule_budget=rule_budget, branching_budget=branching_budget
    )
    part = replace(_garside_frame(gc), spheres=_garside_spheres(gc))
    reduced = homotopical_reduce(gc.p31, part)
    gp = gc.gp
    if reduced.base != gp.pg:
        raise CoherenceError("Garside reduction did not leave Gar_2(W)")
    return Gar3(g, reduced, gp.elt_of_gen, gp.gen_of_elt, gp.alpha)


class Classification(Enum):
    ESSENTIAL = "essential"
    COLLAPSIBLE = "collapsible"
    REDUNDANT = "redundant"


class _Chain(NamedTuple):
    """A length-additive chain u1|...|un with its prefix products, their
    smallest divisors, and its class with the least k (1-based) such that
    u1..uk != w0(s1,..,sk); k is None while the chain is essential."""

    elts: tuple[int, ...]
    prods: tuple[int, ...]
    smalls: tuple[int, ...]
    kind: Classification
    k: Optional[int]

    def extend(self, g: CoxeterGroup, x: int) -> "_Chain":
        """u1|...|un|x, for x lengthening u1..un; the class is decided
        again only while u1|...|un is essential."""
        p = g.mult(self.prods[-1], x) if self.prods else x
        s = g.smallest_divisor(p)
        kind, k = self.kind, self.k
        if k is None and p != g.longest_element(self.smalls + (s,)):
            k = len(self.elts) + 1
            collapsible = k > 1 and self.smalls[-1] == s
            kind = Classification.COLLAPSIBLE if collapsible else Classification.REDUNDANT
        return _Chain(self.elts + (x,), self.prods + (p,), self.smalls + (s,), kind, k)

    def phi_key(self, g: CoxeterGroup) -> tuple:
        key = [g.length[self.prods[-1]]]
        for s, p in zip(self.smalls[:-1], self.prods[:-1]):
            key += (s, g.length[p])
        return tuple(key)


_EMPTY = _Chain((), (), (), Classification.ESSENTIAL, None)


def _chain_of(g: CoxeterGroup, tup: Iterable[int]) -> _Chain:
    chain = _EMPTY
    for x in tup:
        if chain.prods and not g.is_reduced_product(chain.prods[-1], x):
            raise PreconditionError("tuple is not length-additive")
        chain = chain.extend(g, x)
    if chain is _EMPTY:
        raise PreconditionError("the empty tuple has no class")
    return chain


def _walk(g3: Gar3) -> Iterable[_Chain]:
    """Every length-additive chain of 2 to 4 entries, depth first: the
    pairs in sorted order, each followed by its extensions, whose later
    entries run in generator order.  u1|...|un extends by x exactly when
    (u1..un, x) is in alpha."""
    g, alpha = g3.group, g3.alpha
    after = {p: [x for x in g3.elt_of_gen if (p, x) in alpha] for p in g3.elt_of_gen}

    def grow(chain: _Chain) -> Iterable[_Chain]:
        yield chain
        if len(chain.elts) < 4:
            for x in after[chain.prods[-1]]:
                yield from grow(chain.extend(g, x))

    for u, v in sorted(alpha):
        yield from grow(_EMPTY.extend(g, u).extend(g, v))


def _sphere_maker(g3: Gar3):
    """The A-cell index by branching, and the maker of the Gar_4(W) sphere
    of a length-additive u|v|w|x from its all-alpha triple branching."""
    lookup, memo = cells_by_branching(g3.p31), {}

    def sphere(quad: tuple[int, ...]) -> Sphere3:
        steps = tuple(Step2(g3.alpha[quad[i : i + 2]], 1, i) for i in range(3))
        triple = TripleBranching(tuple([g3.gen_of_elt[e] for e in quad]), steps)
        return generating_triple_confluence(g3.p31, triple, lookup=lookup, memo=memo)

    return lookup, sphere


def gar4_spheres(g3: Gar3) -> list[Sphere3]:
    """The spheres of Gar_4(W): one per fully length-additive quadruple,
    assembled from the all-alpha triple branchings of Gar_3(W)."""
    _, sphere = _sphere_maker(g3)
    return [sphere(c.elts) for c in _walk(g3) if len(c.elts) == 4]


def classify_tuple(g: CoxeterGroup, tup: Iterable[int]) -> Classification:
    """The essential/collapsible/redundant trichotomy of a length-additive
    tuple, via the chain of longest elements over its smallest divisors."""
    return _chain_of(g, tup).kind


def phi_key(g: CoxeterGroup, tup: Iterable[int]) -> tuple:
    """The well-founded lexicographic key (total length, then alternating
    smallest divisor and length of each proper prefix product)."""
    return _chain_of(g, tup).phi_key(g)


class ArtinProjection:
    """The projection of a group's Garside data onto its own Artin
    presentation ``art``, whose braid relation on a pair i < j of
    generators is rule ``gamma[(i, j)]``.  pi(s|x), for s a generator, is
    tabulated in increasing order of (l(x), s): the identity when s is the
    smallest divisor r of sx, the braid relation when sx = w0(r, s), and
    otherwise x split across that braid relation (case (b)), which reads
    entries of a shorter x and one entry pi(r|x') with l(x') = l(x) and
    r < s, where x' = complement(r, w0) v2 is not x.
    """

    def __init__(self, group: CoxeterGroup):
        self.group = g = group
        self.art, self.gamma = artin_presentation(g.matrix)
        w0s = {(r, s): g.longest_element((r, s)) for s in range(g.rank) for r in range(s)}
        self._table: dict[tuple[int, int], Path2] = {}
        for _, s, x in sorted(
            (g.length[x], s, x)
            for x in range(g.size)
            for s in range(g.rank)
            if g.length[g.left[x][s]] > g.length[x]
        ):
            sx, source = g.left[x][s], (s,) + g.word[x]
            r = g.smallest_divisor(sx)
            w0 = w0s.get((r, s))  # None when r = s
            if r == s:
                path = identity_path(self.art, source)
            elif sx == w0:
                path = Path2(self.art, source, ((self.gamma[(r, s)], 1, 0),))
            else:
                u2 = g.complement(g.generator(s), w0)
                v2 = g.complement(u2, x)
                down = inverse(whisker(source[:1], self.alpha_path(u2, v2), ()))
                across = whisker((), self._entry(s, u2), g.word[v2])
                path = compose(compose(down, across), self.alpha_path(w0, v2))
            if path.source != source or path.target != g.word[sx]:
                raise CoherenceError("projection produced a misbounded path")
            self._table[(s, x)] = path

    def _entry(self, s: int, x: int) -> Path2:
        if (s, x) not in self._table:
            raise CoherenceError("projection table lacks a pair it needs")
        return self._table[(s, x)]

    def alpha_path(self, u: int, v: int) -> Path2:
        """pi of the Garside rule u|v => uv, as a path over Art_2(W): with
        s1...sk the word of u, case (a) unrolled into the composite, for
        i = k down to 1, of s1...s(i-1).pi(si | s(i+1)...sk v).  Every factor
        was checked against its words when tabulated, so they chain up."""
        g = self.group
        if not g.is_reduced_product(u, v):
            raise PreconditionError("pair is not length-additive")
        steps: list[Step2] = []
        x = v
        for i in range(g.length[u] - 1, -1, -1):
            s = g.word[u][i]
            steps += shift_steps(self._entry(s, x).steps, i)
            x = g.left[x][s]
        return Path2._make(self.art, g.word[u] + g.word[v], tuple(steps), g.word[x])

    def acell(self, t: int, u: int, v: int) -> tuple[Path2, Path2]:
        """pi of the 3-cell A_{t,u,v}: the parallel pair of projected sides,
        in exchange-normal form."""
        g = self.group
        src = compose(
            whisker((), self.alpha_path(t, u), g.word[v]),
            self.alpha_path(g.mult(t, u), v),
        )
        tgt = compose(
            whisker(g.word[t], self.alpha_path(u, v), ()),
            self.alpha_path(t, g.mult(u, v)),
        )
        return normalize_path(src), normalize_path(tgt)


def artin_presentation(mat: CoxeterMatrix) -> tuple[Polygraph2, dict[tuple[int, int], int]]:
    """Art_2(W): one generator per element of S, one braid relation per
    pair with finite order, oriented from the <ts..>-side (t > s);
    InputError if two pairs' rule names are spelled alike."""
    pg = Polygraph2(list(mat.names))
    named = {
        (i, j): f"g({mat.names[i]},{mat.names[j]})"
        for i, j in combinations(range(mat.rank), 2)
        if mat.m[i][j]
    }
    _distinct_names("braid rule", mat.names, named)
    gamma: dict[tuple[int, int], int] = {}
    for (i, j), name in named.items():
        m = mat.m[i][j]
        lhs = tuple((j, i)[k % 2] for k in range(m))
        rhs = tuple((i, j)[k % 2] for k in range(m))
        gamma[(i, j)] = pg.add_rule(Rule(name, lhs, rhs))
    return pg, gamma


def artin_coherent(
    mat: CoxeterMatrix, *, coset_cap: int = DEFAULT_COSET_CAP
) -> Polygraph31:
    """Art_3(W): Artin's presentation plus one Z-cell per finite rank-3
    parabolic subgroup i < j < k.

    The Z-cell depends only on the parabolic's type (m_ij, m_ik, m_jk): it
    is computed inside that type's own presentation by ``_z_template``,
    whose per-process LRU cache of at most 128 entries is keyed by the type
    and ``coset_cap``, then relabeled into Art_2(W) for every parabolic of
    that type by x -> (i, j, k)[x], the rule on (a, b) going to the one on
    the images.  The relabeling is monotone, so it keeps the braid
    orientation and the rule lengths, hence the exchange normal form and
    every offset; each relabeled side is replayed in Art_2(W) by ThreeCell.

    Raises InfiniteOrUnknown before building any braid relation when a
    dihedral parabolic has more than ``coset_cap`` elements, and
    InputError when two parabolics' Z-cell names are spelled alike.
    """
    check_dihedral_cap(mat, coset_cap)
    m, names = mat.m, mat.names
    named = {
        (i, j, k): f"Z({names[i]},{names[j]},{names[k]})"
        for i, j, k in combinations(range(mat.rank), 3)
        if rank3_finite(m[i][j], m[i][k], m[j][k])
    }
    _distinct_names("Z-cell", names, named)
    art, gamma = artin_presentation(mat)
    cells: list[ThreeCell] = []
    for letters, name in named.items():
        i, j, k = letters
        key = (m[i][j], m[i][k], m[j][k])
        src, tgt = (
            Path2(
                art,
                [letters[x] for x in word],
                [(gamma[(letters[a], letters[b])], d, o) for a, b, d, o in steps],
            )
            for word, steps in _z_template(*key, coset_cap)
        )
        cells.append(ThreeCell(name, src, tgt))
    return Polygraph31(art, cells)


@lru_cache(maxsize=128)
def _z_template(m_ij: int, m_ik: int, m_jk: int, coset_cap: int) -> tuple:
    """The Z-cell of the rank-3 type (m_ij, m_ik, m_jk) over the letters
    0, 1, 2: for each side, its source word and its steps (a, b, dir, pos),
    (a, b) the pair of the braid rule.  Plain tuples, so no caller can
    alias cached state; a failing enumeration raises and is not cached."""
    sub = CoxeterMatrix(tuple("rst"), ((1, m_ij, m_ik), (m_ij, 1, m_jk), (m_ik, m_jk, 1)))
    proj = ArtinProjection(enumerate_group(sub, coset_cap))
    pair = {r: ab for ab, r in proj.gamma.items()}
    return tuple(
        (p.source, tuple(pair[r] + (d, o) for r, d, o in p.steps)) for p in _zamolodchikov(proj)
    )


def _zamolodchikov(proj: ArtinProjection) -> tuple[Path2, Path2]:
    """The essential 3-cell A_{t,u,v} of the rank-3 group, projected."""
    g, (r, s, t) = proj.group, (0, 1, 2)
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

    One rule covers pairs, triples and quadruples: a collapsible chain
    breaking at k makes redundant the generator, alpha rule or A-cell of
    the chain with entries k-1 and k merged.  Exposed for cross-checking
    the direct Z-cell computation against the generic reduction.
    """
    g, alpha, gen = g3.group, g3.alpha, g3.gen_of_elt
    lookup, sphere = _sphere_maker(g3)

    def cell(u: int, v: int, w: int) -> int:
        return lookup[((gen[u], gen[v], gen[w]), (alpha[(u, v)], 0), (alpha[(v, w)], 1))]

    two: list[TwoCollapse] = []
    three: list[ThreeCollapse] = []
    spheres: list[SphereCollapse] = []
    rank: dict[int, dict[int, tuple]] = {2: {}, 3: {}}  # rule and cell ranks
    for chain in _walk(g3):
        e, k = chain.elts, chain.k
        if len(e) < 4:
            idx = alpha[e] if len(e) == 2 else cell(*e)
            rank[len(e)][idx] = chain.phi_key(g) + (idx,)
        if chain.kind is not Classification.COLLAPSIBLE:
            continue
        dead = e[: k - 2] + (g.mult(e[k - 2], e[k - 1]),) + e[k:]
        if len(e) == 2:
            two.append(TwoCollapse(idx, gen[dead[0]]))
        elif len(e) == 3:
            three.append(ThreeCollapse(idx, alpha[dead]))
        else:
            spheres.append(SphereCollapse(sphere(e), cell(*dead)))
    three.sort(key=lambda tc: tc.cell)

    gen_rank = {i: (g.length[x], x) for i, x in enumerate(g3.elt_of_gen)}
    return CollapsiblePart(
        tuple(two), tuple(three), tuple(spheres), OrderWitness(gen_rank, rank[2], rank[3])
    )
