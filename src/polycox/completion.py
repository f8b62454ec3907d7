"""Critical branchings, homotopical completion, and triple confluences.

Homotopical completion interleaves Knuth-Bendix completion with Squier's
completion: every critical branching of the final convergent rule set
gets a generating 3-cell whose two sides are the normalizing reduction
paths of the branching, reused from Knuth-Bendix for the branchings it
examined after its last adjoined rule.  When a branching is not
confluent, a new rule is adjoined, directed from the greater normal form
to the smaller one under the termination order.

Triple critical branchings extend each critical branching by a third
step found through the first-letter buckets.  Generating triple
confluences are assembled from them by a filler that decomposes any pair
of parallel positive reduction paths into whiskered generating 3-cells,
well-founded on the rewritten word and run from an explicit stack whose
subproblems walk the two sides by index, threading the steps from the
sphere's source.  A local cell's sides are shifted by its left whisker,
never whiskered into paths.  Peiffer (disjoint) local branchings
contribute no generating cell: their two completions are equal modulo
the exchange relations.  Sphere validation builds each face
once as a flat step tuple, with the cell's steps shifted by the left
whisker rather than whiskered into a path, and compares consecutive
faces through ``_exchange_normal_form``; a malformed face is a
violation, not an error.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Iterator, Optional

from .errors import (
    CoherenceError,
    DivergenceError,
    InputError,
    OrientationError,
    PreconditionError,
    StepError,
)
from .paths import (
    Path2,
    Step2,
    _exchange_normal_form,
    _replay,
    compose,
    normalize,
    shift_steps,
)
from .words import (
    DEFAULT_BRANCHING_BUDGET,
    DEFAULT_RULE_BUDGET,
    Ordering,
    Polygraph2,
    Rule,
    TerminationOrder,
    Word,
    apply_step,
    check_termination,
)


@dataclass(frozen=True, slots=True)
class Branching:
    """A pair of rewriting steps out of a common source word."""

    source: Word
    left: Step2
    right: Step2


@dataclass(frozen=True, slots=True)
class TripleBranching:
    source: Word
    steps: tuple[Step2, Step2, Step2]


@dataclass(frozen=True, slots=True)
class ThreeCell:
    """A generating 3-cell: a parallel pair of reduction paths."""

    name: str
    src: Path2
    tgt: Path2

    def __post_init__(self) -> None:
        if self.src.source != self.tgt.source or self.src.target != self.tgt.target:
            raise CoherenceError(f"3-cell {self.name!r}: boundary not parallel")
        # both replayed and equal: keep one target word
        self.tgt._target = self.src._target


class Polygraph31:
    """A 2-polygraph extended by generating 3-cells.

    The cell list is fixed at construction, together with its name ->
    index table.
    """

    __slots__ = ("base", "cells", "_index")

    def __init__(self, base: Polygraph2, cells: Iterable[ThreeCell] = ()):
        self.base = base
        self.cells: list[ThreeCell] = list(cells)
        self._index = {c.name: i for i, c in enumerate(self.cells)}
        if len(self._index) != len(self.cells):
            raise InputError("3-cell names must be unique")

    def cell_index(self, name: str) -> int:
        try:
            return self._index[name]
        except (KeyError, TypeError):
            raise InputError(f"no 3-cell named {name!r}") from None

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Polygraph31)
            and self.base == other.base
            and self.cells == other.cells
        )

    def __repr__(self) -> str:
        return f"Polygraph31({self.base!r}, {len(self.cells)} cells)"


def _overlaps(rules: list[Rule], a: int, b: int) -> Iterator[Branching]:
    """The branchings of rule ``a`` at offset 0 with rule ``b`` at an offset
    k >= 0; k = 0 only for b > a, so every unordered pair is met once."""
    la, lb = rules[a].lhs, rules[b].lhs
    # equal-offset branchings: one lhs a prefix of the other
    if b > a and (la[: len(lb)] == lb or lb[: len(la)] == la):
        source = la if len(la) >= len(lb) else lb
        yield Branching(source, Step2(a, 1, 0), Step2(b, 1, 0))
    for k in range(1, len(la)):
        if la[k] != lb[0]:
            continue
        if k + len(lb) <= len(la):
            if la[k : k + len(lb)] != lb:
                continue
            source = la
        else:
            if la[k:] != lb[: len(la) - k]:
                continue
            source = la + lb[len(la) - k :]
        yield Branching(source, Step2(a, 1, 0), Step2(b, 1, k))


def _order(br: Branching) -> tuple:
    # source deglex (generator-id precedence), then the two steps
    return (len(br.source), br.source, br.left, br.right)


def _branchings(p: Polygraph2) -> Iterator[Branching]:
    """Every critical branching of ``p`` once, in no particular order."""
    for a, ra in enumerate(p.rules):
        # rule b overlaps rule a only if b's lhs starts with a letter of a's
        for g in set(ra.lhs):
            for b in p.rules_by_first.get(g, ()):
                yield from _overlaps(p.rules, a, b)


def critical_branchings(
    p: Polygraph2, *, budget: Optional[int] = None
) -> list[Branching]:
    """All minimal overlap branchings, deduplicated by symmetry.

    Proper overlaps, inclusions of one lhs in another, and distinct rules
    with equal sources are all enumerated.  Steps are ordered by
    (position, rule id) within each branching; the list is sorted by
    (source length, source, positions, rules) for deterministic output.
    Raises DivergenceError as soon as more than ``budget`` branchings are
    found (None: unbounded).
    """
    out: list[Branching] = []
    for br in _branchings(p):
        out.append(br)
        _check_budget("branching", budget, len(out), "critical branchings")
    out.sort(key=_order)
    return out


def _check_budget(kind: str, budget: Optional[int], reached: int, what: str) -> None:
    """Raise DivergenceError once ``reached`` passes ``budget`` (None: unbounded)."""
    if budget is not None and reached > budget:
        raise DivergenceError(f"{kind} budget {budget} exceeded: reached {reached} {what}")


def triple_critical_branchings(p: Polygraph2) -> list[TripleBranching]:
    """All minimal overlap triples: three distinct steps whose redexes cover
    the source, none of them disjoint from both others.

    With its steps ordered by (position, rule id), the first two steps of
    such a triple overlap, so each triple extends exactly one critical
    branching (s1, s2) by a step c of a rule from the first-letter bucket
    of a source position p >= s2.pos, with (p, c) > (s2.pos, s2.rule) and
    c's lhs agreeing with the source; the source grows by c's overhang.
    Starting inside the source, c overlaps s1 or s2, so no extension is
    Peiffer.  The list is sorted by (source length, source, steps).
    """
    rules = p.rules
    out: list[TripleBranching] = []
    for br in _branchings(p):
        w, s2 = br.source, br.right
        for pos in range(s2.pos, len(w)):
            head = w[pos:]
            for c in p.rules_by_first.get(w[pos], ()):
                if pos == s2.pos and c <= s2.rule:
                    continue
                lc = rules[c].lhs
                if head[: len(lc)] == lc[: len(head)]:
                    out.append(
                        TripleBranching(
                            w + lc[len(head) :], (br.left, s2, Step2(c, 1, pos))
                        )
                    )
    out.sort(key=lambda t: (len(t.source), t.source, t.steps))
    return out


def homotopical_complete(
    p: Polygraph2,
    order: TerminationOrder,
    *,
    rule_budget: int = DEFAULT_RULE_BUDGET,
    branching_budget: int = DEFAULT_BRANCHING_BUDGET,
    step_budget: Optional[int] = None,
) -> Polygraph31:
    """Complete ``p`` to a convergent, coherent (3,1)-polygraph.

    Phase one runs Knuth-Bendix: a queue holds the critical branchings not
    yet examined, processed by (source deglex, position); a non-confluent
    branching adjoins a rule oriented by ``order``, and only the overlaps
    involving that new rule join the queue, so each critical branching is
    examined once.  Phase two runs Squier's completion against the final
    rule set, so every 3-cell's endpoints are genuine normal forms; since
    no rule is removed, the branchings phase one examined are exactly the
    critical branchings of the final rules, one 3-cell each.  It reuses
    the two normalizing paths phase one found for each branching examined
    after the last adjoined rule, and normalizes only the others.  If
    ``p`` is already confluent, phase one adds nothing and the result is
    exactly Squier's completion.  Raises PreconditionError unless
    ``order`` orients every rule of ``p``.  The branchings are counted
    against ``branching_budget`` as they are found, so the queue never
    outgrows it.
    """
    bad = check_termination(p, order)
    if bad:
        raise PreconditionError(
            "rules not oriented by the order: " + ", ".join(r.name for r in bad)
        )
    work = Polygraph2(list(p.generators), list(p.rules))
    # sorted by _order, so already a heap
    queue = [(_order(br), br) for br in critical_branchings(work, budget=branching_budget)]
    # the sides of the confluent branchings examined since the last new rule
    kept: dict[Branching, tuple[Path2, Path2]] = {}
    examined: list[Branching] = []
    while queue:
        _, br = heapq.heappop(queue)
        examined.append(br)
        src = _branch_side(work, br.source, br.left, budget=step_budget)
        tgt = _branch_side(work, br.source, br.right, budget=step_budget)
        nf_l, nf_r = src.target, tgt.target
        if nf_l == nf_r:
            kept[br] = (src, tgt)
            continue
        cmp = order.compare(nf_l, nf_r)
        if cmp is Ordering.INCOMPARABLE:
            raise OrientationError(
                f"cannot orient {work.word_str(nf_l)} vs {work.word_str(nf_r)}"
            )
        # nf_l, nf_r are irreducible, so no rule has lhs big yet
        big, small = (nf_l, nf_r) if cmp is Ordering.GREATER else (nf_r, nf_l)
        _check_budget("rule", rule_budget, len(work.rules) + 1 - len(p.rules), "adjoined rules")
        # a new rule can change any leftmost reduction found before it
        kept.clear()
        new = work.add_rule(Rule(f"kb{len(work.rules)}", big, small))
        for a, b in [(new, a) for a in range(new)] + [(a, new) for a in range(new + 1)]:
            for br in _overlaps(work.rules, a, b):
                queued = len(examined) + len(queue) + 1  # every branching queued so far, br too
                _check_budget("branching", branching_budget, queued, "critical branchings")
                heapq.heappush(queue, (_order(br), br))

    # Squier pass: one 3-cell per critical branching of the final rules
    cells: list[ThreeCell] = []
    for i, br in enumerate(sorted(examined, key=_order)):
        src, tgt = kept.get(br) or (
            _branch_side(work, br.source, br.left, budget=step_budget),
            _branch_side(work, br.source, br.right, budget=step_budget),
        )
        if src.target != tgt.target:
            raise CoherenceError(
                f"completion not confluent at {work.word_str(br.source)}"
            )
        cells.append(ThreeCell(f"c{i}", src, tgt))
    return Polygraph31(work, cells)


def _branch_side(pg: Polygraph2, w: Word, step: Step2, memo=None, budget=None) -> Path2:
    first = Path2(pg, w, (step,))
    _, rest = normalize(first.target, pg, budget=budget, memo=memo)
    return compose(first, rest)


# --------------------------------------------------------------------------
# 3-spheres and the generating triple confluences


@dataclass(slots=True)
class SphereEntry:
    """One whiskered, signed 3-cell application inside a 3-path.

    Denotes pre *1 (left . cell^dir . right) *1 post; ``cell`` indexes the
    ambient Polygraph31's cell list.  One constructor; immutable by
    convention, as Path2 is, since a frozen ``__init__`` is slow for the
    builders' hundreds of thousands: entries compare by value and are
    not hashable.
    """

    cell: int
    dir: int
    left: Word
    right: Word
    pre: Path2
    post: Path2


@dataclass(frozen=True, slots=True)
class Sphere3:
    """A parallel pair of 3-paths between the 2-cells source and target."""

    source: Path2
    target: Path2
    lhs: tuple[SphereEntry, ...]
    rhs: tuple[SphereEntry, ...]

    def check(self, p31: Polygraph31) -> list[str]:
        """Well-formedness violations; a malformed sphere is reported, never
        raised.  Each entry's faces are step tuples, pre.steps + the cell
        side's steps shifted by len(left) + post.steps, built once; no
        whiskered path is made.  Word equality checks that ``pre``, replayed,
        runs from the source word to left + side source + right and ``post``
        from left + side target + right to the target word; along each
        side, consecutive faces are equal as step tuples or else have equal
        exchange normal forms.  A path that carries its target word is not
        replayed; any other is replayed at each use, a path shared by
        several entries too, and the word it reaches is compared and
        dropped, so a checked sphere holds no more than an unchecked one.
        """
        nf = partial(_exchange_normal_form, p31.base.rule_lengths)
        same = lambda f, g: f == g or nf(f) == nf(g)  # noqa: E731

        def end(path: Path2) -> Word:
            # Path2.target without its cache: replayed, every step checked, kept by no one
            t = path._target
            return _replay(path.pg, path.source, path.steps, None) if t is None else t

        top = self.source.source
        try:
            bottom = end(self.target)
            parallel = self.target.source == top and end(self.source) == bottom
        except StepError:
            parallel = False
        if not parallel:
            return ["boundary: source and target are not parallel"]
        out = []
        for label, side in (("lhs", self.lhs), ("rhs", self.rhs)):
            cur = self.source.steps
            for k, e in enumerate(side):
                c = p31.cells[e.cell]
                a, b = (c.src, c.tgt) if e.dir > 0 else (c.tgt, c.src)
                u, v = tuple(e.left), tuple(e.right)
                try:
                    met = (e.pre.source, end(e.pre), e.post.source, end(e.post)) == (
                        top, u + a.source + v, u + a.target + v, bottom
                    )  # fmt: skip
                except StepError:
                    met = False
                if not met:
                    out.append(f"{label}[{k}]: pre or post does not meet the whiskered cell")
                    cur = None
                    continue
                pre, post, shift = e.pre.steps, e.post.steps, len(u)
                if cur is not None and not same(pre + shift_steps(a.steps, shift) + post, cur):
                    out.append(f"{label}[{k}]: source mismatch")
                cur = pre + shift_steps(b.steps, shift) + post
            if cur is not None and not same(cur, self.target.steps):
                out.append(f"{label}: does not end at the sphere target")
        return out


def cells_by_branching(p31: Polygraph31) -> dict[tuple, int]:
    """Index the generating 3-cells by their originating critical branching."""
    table: dict[tuple, int] = {}
    for i, c in enumerate(p31.cells):
        if not c.src.steps or not c.tgt.steps:
            continue
        f, g = c.src.steps[0], c.tgt.steps[0]
        table[(c.src.source, (f.rule, f.pos), (g.rule, g.pos))] = i
    return table


def _fill_parallel(
    p31: Polygraph31, pA: Path2, pB: Path2, lookup: dict, memo: dict
) -> list[SphereEntry]:
    """Decompose the parallel positive reduction paths pA, pB (with a common
    normal-form target) into whiskered generating 3-cells rewriting pA into
    pB.  Well-founded on the current word w under the termination order:
    an explicit stack, no recursion, holds subproblems (pre, w, a, i, b, j)
    and entries, so that each local cell's left completion is filled
    first, then its entry, then its right completion.  In a subproblem the
    sides left to fill are a[i:] and b[j:], and ``pre`` runs from pA's
    source to w; it becomes a path only for an entry.

    A subproblem whose sides are equal is done.  Otherwise both sides are
    walked by index, each step replayed, to their first local branching
    (s1, s2) at w.  A Peiffer (disjoint) branching has no entry: each step
    completes by the other, its offset re-derived.  Otherwise the branching
    is looked up, the cell's sides are shifted by the left whisker lw, and
    both completions meet at z = lw + cell.src.target + rw, whose
    normalizing path is read from ``memo`` before ``normalize`` runs.
    """
    pg = p31.base
    lengths, cells = pg.rule_lengths, p31.cells
    out: list[SphereEntry] = []
    stack: list = [((), pA.source, pA.steps, 0, pB.steps, 0)]
    while stack:
        task = stack.pop()
        if type(task) is SphereEntry:
            out.append(task)
            continue
        pre, w, a, i, b, j = task
        na, nb = len(a), len(b)
        if na - i == nb - j and a[i:] == b[j:]:
            continue
        i0 = i
        while True:
            if i == na or j == nb:
                raise CoherenceError("parallel fill: sides of unequal reach")
            s1, s2 = a[i], b[j]
            r1, d1, p1 = s1
            w1 = apply_step(w, pg, r1, p1, d1)
            if s1 != s2:
                break
            w, i, j = w1, i + 1, j + 1
        if i > i0:
            pre += a[i0:i]
        r2, d2, p2 = s2
        a1, a2 = lengths[r1][0], lengths[r2][0]
        if p1 + a1 <= p2 or p2 + a2 <= p1:
            entry = None
            i1, o1 = lengths[r1] if d1 > 0 else lengths[r1][::-1]
            i2, o2 = lengths[r2] if d2 > 0 else lengths[r2][::-1]
            c1 = (Step2(r2, d2, p2 + o1 - i1) if p2 >= p1 + i1 else s2,)
            c2 = (Step2(r1, d1, p1 + o2 - i2) if p1 >= p2 + i2 else s1,)
            z = apply_step(w1, pg, c1[0].rule, c1[0].pos, c1[0].dir)
        else:
            off = p1 if p1 < p2 else p2
            end = max(p1 + a1, p2 + a2)
            rel1, rel2 = (r1, p1 - off), (r2, p2 - off)
            f, g = (rel1, rel2) if (p1, r1) <= (p2, r2) else (rel2, rel1)
            idx = lookup.get((w[off:end], f, g))
            if idx is None:
                raise CoherenceError(
                    f"no generating 3-cell for the branching at {pg.word_str(w[off:end])}"
                )
            cell = cells[idx]
            x, y, direction = cell.src.steps, cell.tgt.steps, 1
            if x[0] != (r1, d1, p1 - off):
                if y[0] != (r1, d1, p1 - off):
                    raise CoherenceError("stored 3-cell does not start with the branching step")
                x, y, direction = y, x, -1
            lw, rw = w[:off], w[end:]
            entry = (idx, direction, lw, rw)
            c1, c2 = shift_steps(x[1:], off), shift_steps(y[1:], off)
            z = lw + cell.src.target + rw
        n = memo.get(z)
        if n is None:
            _, n = normalize(z, pg, memo=memo)
        w2 = apply_step(w, pg, s2.rule, s2.pos, s2.dir)
        stack.append((pre + (s2,), w2, c2 + n.steps, 0, b, j + 1))
        if entry is not None:
            stack.append(SphereEntry(*entry, Path2._make(pg, pA.source, pre, w), n))
        stack.append((pre + (s1,), w1, a, i + 1, c1 + n.steps, 0))
    return out


def generating_triple_confluence(
    p31: Polygraph31,
    triple: TripleBranching,
    *,
    lookup: Optional[dict] = None,
    memo: Optional[dict] = None,
) -> Sphere3:
    """Assemble the 3-sphere of a triple critical branching.

    With the three normalizing sides F, G, H ordered by step position, the
    sphere's lhs rewrites F into H through G and its rhs rewrites F into H
    directly; both sides are composites of whiskered generating 3-cells.
    """
    if lookup is None:
        lookup = cells_by_branching(p31)
    if memo is None:
        memo = {}
    pg = p31.base
    w = triple.source
    F, G, H = (_branch_side(pg, w, s, memo=memo) for s in triple.steps)
    if not (F.target == G.target == H.target):
        raise CoherenceError("triple branching does not converge")
    lhs = _fill_parallel(p31, F, G, lookup, memo)
    lhs += _fill_parallel(p31, G, H, lookup, memo)
    rhs = _fill_parallel(p31, F, H, lookup, memo)
    return Sphere3(F, H, tuple(lhs), tuple(rhs))
