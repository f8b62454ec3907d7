"""Critical branchings, homotopical completion, and triple confluences.

Homotopical completion interleaves Knuth-Bendix completion with Squier's
completion: every critical branching of the final convergent rule set
gets a generating 3-cell whose two sides are the normalizing reduction
paths of the branching.  When a branching is not confluent, a new rule is
adjoined, directed from the greater normal form to the smaller one under
the termination order; the adjoined 3-cell then carries the new rule on
its target side.

Generating triple confluences are assembled from triple critical
branchings by a filler that decomposes any pair of parallel positive
reduction paths into whiskered generating 3-cells, by well-founded
recursion on the rewritten word.  Peiffer (disjoint) local branchings
contribute no generating cell: their two completions are equal modulo
the exchange relations, which sphere validation checks through
``normalize_path``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Optional

from .errors import (
    CoherenceError,
    DivergenceError,
    OrientationError,
    PreconditionError,
)
from .paths import Path2, Step2, compose, identity_path, normalize, normalize_path, whisker
from .words import (
    DEFAULT_BRANCHING_BUDGET,
    DEFAULT_RULE_BUDGET,
    Ordering,
    Polygraph2,
    Rule,
    TerminationOrder,
    Word,
    check_termination,
)


class BranchKind(Enum):
    ASPHERICAL = "aspherical"
    PEIFFER = "peiffer"
    OVERLAP = "overlap"
    CRITICAL = "critical"


@dataclass(frozen=True)
class Branching:
    """A pair of rewriting steps out of a common source word."""

    source: Word
    left: Step2
    right: Step2
    kind: BranchKind


@dataclass(frozen=True)
class TripleBranching:
    source: Word
    steps: tuple[Step2, Step2, Step2]


@dataclass(frozen=True)
class ThreeCell:
    """A generating 3-cell: a parallel pair of reduction paths."""

    name: str
    src: Path2
    tgt: Path2

    def __post_init__(self) -> None:
        if self.src.source != self.tgt.source or self.src.target != self.tgt.target:
            raise CoherenceError(f"3-cell {self.name!r}: boundary not parallel")


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
            raise PreconditionError("3-cell names must be unique")

    def cell_index(self, name: str) -> int:
        try:
            return self._index[name]
        except (KeyError, TypeError):
            raise PreconditionError(f"no 3-cell named {name!r}") from None

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Polygraph31)
            and self.base == other.base
            and self.cells == other.cells
        )

    def __repr__(self) -> str:
        return f"Polygraph31({self.base!r}, {len(self.cells)} cells)"


def classify_local(p: Polygraph2, w: Word, s1: Step2, s2: Step2) -> BranchKind:
    """Classify the local branching (s1, s2) at w."""
    if s1 == s2:
        return BranchKind.ASPHERICAL
    a1 = len(p.rules[s1.rule].lhs)
    a2 = len(p.rules[s2.rule].lhs)
    if s1.pos + a1 <= s2.pos or s2.pos + a2 <= s1.pos:
        return BranchKind.PEIFFER
    return BranchKind.OVERLAP


def critical_branchings(p: Polygraph2) -> list[Branching]:
    """All minimal overlap branchings, deduplicated by symmetry.

    Proper overlaps, inclusions of one lhs in another, and distinct rules
    with equal sources are all enumerated.  Steps are ordered by
    (position, rule id) within each branching; the list is sorted by
    (source length, source, positions, rules) for deterministic output.
    """
    out: list[Branching] = []
    rules = p.rules
    for a, ra in enumerate(rules):
        la = ra.lhs
        for b, rb in enumerate(rules):
            lb = rb.lhs
            # equal-offset branchings: one lhs a prefix of the other
            if b > a and (la[: len(lb)] == lb or lb[: len(la)] == la):
                source = la if len(la) >= len(lb) else lb
                out.append(
                    Branching(source, Step2(a, 1, 0), Step2(b, 1, 0), BranchKind.CRITICAL)
                )
            for k in range(1, len(la)):
                if k + len(lb) <= len(la):
                    if la[k : k + len(lb)] != lb:
                        continue
                    source = la
                else:
                    if la[k:] != lb[: len(la) - k]:
                        continue
                    source = la + lb[len(la) - k :]
                out.append(
                    Branching(source, Step2(a, 1, 0), Step2(b, 1, k), BranchKind.CRITICAL)
                )
    out.sort(key=lambda br: (len(br.source), br.source, br.left, br.right))
    return out


def triple_critical_branchings(p: Polygraph2) -> list[TripleBranching]:
    """All minimal overlap triples: three distinct steps whose redexes cover
    the source, none of them disjoint from both others.
    """
    found: dict[tuple, TripleBranching] = {}
    rules = p.rules

    def consistent(w: Word, lhs: Word, k: int) -> Optional[Word]:
        head = w[k : k + len(lhs)]
        if head != lhs[: len(head)]:
            return None
        return w + lhs[len(head):]

    for a, ra in enumerate(rules):
        w1 = ra.lhs
        for b, rb in enumerate(rules):
            for k2 in range(0, len(w1) + 1):
                w2 = consistent(w1, rb.lhs, k2)
                if w2 is None:
                    continue
                for c, rc in enumerate(rules):
                    for k3 in range(k2, len(w2) + 1):
                        w3 = consistent(w2, rc.lhs, k3)
                        if w3 is None:
                            continue
                        steps = (Step2(a, 1, 0), Step2(b, 1, k2), Step2(c, 1, k3))
                        if len(set(steps)) != 3:
                            continue
                        ivals = [(s.pos, s.pos + len(rules[s.rule].lhs)) for s in steps]
                        # source must be exactly the union of the redexes
                        if max(e for _, e in ivals) != len(w3):
                            continue
                        cover = sorted(ivals)
                        ok_cover = True
                        reach = cover[0][1]
                        for lo, hi in cover[1:]:
                            if lo > reach:
                                ok_cover = False
                                break
                            reach = max(reach, hi)
                        if not ok_cover:
                            continue
                        # Peiffer: some step disjoint from both others
                        def disjoint(x, y):
                            return x[1] <= y[0] or y[1] <= x[0]

                        if any(
                            all(disjoint(ivals[i], ivals[j]) for j in range(3) if j != i)
                            for i in range(3)
                        ):
                            continue
                        key = (w3, tuple(sorted(steps, key=lambda s: (s.pos, s.rule))))
                        if key not in found:
                            found[key] = TripleBranching(w3, key[1])
    out = list(found.values())
    out.sort(key=lambda t: (len(t.source), t.source, t.steps))
    return out


def _qkey(w: Word) -> tuple:
    # processing order: source deglex (generator-id precedence), then data
    return (len(w), w)


def homotopical_complete(
    p: Polygraph2,
    order: TerminationOrder,
    *,
    strategy="leftmost",
    rule_budget: int = DEFAULT_RULE_BUDGET,
    branching_budget: int = DEFAULT_BRANCHING_BUDGET,
    step_budget: Optional[int] = None,
    rule_namer: Optional[Callable[[Word, Word, int], str]] = None,
    cell_namer: Optional[Callable[[int, Branching], str]] = None,
    check: bool = True,
) -> Polygraph31:
    """Complete ``p`` to a convergent, coherent (3,1)-polygraph.

    Phase one runs Knuth-Bendix: branchings are processed by (source
    deglex, position); a non-confluent branching adjoins a rule oriented
    by ``order``.  Phase two runs Squier's completion against the final
    rule set, so every 3-cell's endpoints are genuine normal forms and the
    number of 3-cells equals the number of critical branchings.  If ``p``
    is already confluent, phase one adds nothing and the result is exactly
    Squier's completion.
    """
    if check:
        bad = check_termination(p, order)
        if bad:
            raise PreconditionError(
                "rules not oriented by the order: " + ", ".join(r.name for r in bad)
            )
    work = Polygraph2(list(p.generators), list(p.rules))
    memo: dict = {}
    processed: set = set()
    counter = 0
    queue: list = []

    def push_all() -> None:
        for br in critical_branchings(work):
            key = (br.source, br.left, br.right)
            if key not in processed:
                heapq.heappush(queue, (_qkey(br.source), br.left, br.right, br))

    push_all()
    n_initial = len(p.rules)
    adjoined = 0
    while queue:
        _, _, _, br = heapq.heappop(queue)
        key = (br.source, br.left, br.right)
        if key in processed:
            continue
        processed.add(key)
        counter += 1
        if counter > branching_budget:
            raise DivergenceError(f"branching budget {branching_budget} exceeded")
        w = br.source
        left_word = Path2(work, w, (br.left,)).target
        right_word = Path2(work, w, (br.right,)).target
        nf_l, _ = normalize(left_word, work, strategy, budget=step_budget, memo=memo)
        nf_r, _ = normalize(right_word, work, strategy, budget=step_budget, memo=memo)
        if nf_l == nf_r:
            continue
        cmp = order.compare(nf_l, nf_r)
        if cmp is Ordering.INCOMPARABLE:
            raise OrientationError(
                f"cannot orient {work.word_str(nf_l)} vs {work.word_str(nf_r)}"
            )
        big, small = (nf_l, nf_r) if cmp is Ordering.GREATER else (nf_r, nf_l)
        if any(r.lhs == big and r.rhs == small for r in work.rules):
            continue
        adjoined += 1
        if len(work.rules) + 1 - n_initial > rule_budget:
            raise DivergenceError(f"rule budget {rule_budget} exceeded")
        idx = len(work.rules)
        name = rule_namer(big, small, idx) if rule_namer else f"kb{idx}"
        work.add_rule(Rule(name, big, small))
        memo.clear()
        push_all()

    # Squier pass: one 3-cell per critical branching of the final rules
    cells: list[ThreeCell] = []
    finals = critical_branchings(work)
    finals.sort(key=lambda br: (_qkey(br.source), br.left, br.right))
    for i, br in enumerate(finals):
        src = _branch_side(work, br.source, br.left, strategy, memo, step_budget)
        tgt = _branch_side(work, br.source, br.right, strategy, memo, step_budget)
        if src.target != tgt.target:
            raise CoherenceError(
                f"completion not confluent at {work.word_str(br.source)}"
            )
        name = cell_namer(i, br) if cell_namer else f"c{i}"
        cells.append(ThreeCell(name, src, tgt))
    return Polygraph31(work, cells)


def _branch_side(
    pg: Polygraph2, w: Word, step: Step2, strategy, memo, budget=None
) -> Path2:
    first = Path2(pg, w, (step,))
    _, rest = normalize(first.target, pg, strategy, budget=budget, memo=memo)
    return compose(first, rest)


# --------------------------------------------------------------------------
# 3-spheres and the generating triple confluences


@dataclass(frozen=True)
class SphereEntry:
    """One whiskered, signed 3-cell application inside a 3-path.

    Denotes pre *1 (left . cell^dir . right) *1 post; ``cell`` indexes the
    ambient Polygraph31's cell list.
    """

    cell: int
    dir: int
    left: Word
    right: Word
    pre: Path2
    post: Path2

    def sides(self, p31: Polygraph31) -> tuple[Path2, Path2]:
        c = p31.cells[self.cell]
        a, b = (c.src, c.tgt) if self.dir > 0 else (c.tgt, c.src)
        return (
            compose(compose(self.pre, whisker(self.left, a, self.right)), self.post),
            compose(compose(self.pre, whisker(self.left, b, self.right)), self.post),
        )


@dataclass(frozen=True)
class Sphere3:
    """A parallel pair of 3-paths between the 2-cells source and target."""

    source: Path2
    target: Path2
    lhs: tuple[SphereEntry, ...]
    rhs: tuple[SphereEntry, ...]

    def check(self, p31: Polygraph31) -> list[str]:
        """Well-formedness violations: sides must chain and close the
        boundary, modulo exchange/inverse normalization."""
        out = []
        for label, side in (("lhs", self.lhs), ("rhs", self.rhs)):
            cur = self.source
            for k, e in enumerate(side):
                a, b = e.sides(p31)
                if a.source != cur.source or (
                    normalize_path(a).steps != normalize_path(cur).steps
                ):
                    out.append(f"{label}[{k}]: source mismatch")
                cur = b
            if (
                normalize_path(cur).steps != normalize_path(self.target).steps
                or cur.target != self.target.target
            ):
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


def _shifted(pg: Polygraph2, after: Step2, s: Step2) -> Step2:
    """Re-derive the offset of ``s`` once the disjoint step ``after`` ran."""
    a, b = (
        (len(pg.rules[after.rule].lhs), len(pg.rules[after.rule].rhs))
        if after.dir > 0
        else (len(pg.rules[after.rule].rhs), len(pg.rules[after.rule].lhs))
    )
    if s.pos >= after.pos + a:
        return Step2(s.rule, s.dir, s.pos + (b - a))
    return s


def _local_cell(
    p31: Polygraph31, lookup: dict, w: Word, s1: Step2, s2: Step2
) -> tuple[Optional[tuple], tuple[Step2, ...], tuple[Step2, ...], Word]:
    """Resolve the local branching (s1, s2) at w.

    Returns (entry data or None for a Peiffer branching, completion of the
    s1 side, completion of the s2 side, their common target word).
    """
    pg = p31.base
    a1 = len(pg.rules[s1.rule].lhs)
    a2 = len(pg.rules[s2.rule].lhs)
    if s1.pos + a1 <= s2.pos or s2.pos + a2 <= s1.pos:
        c1 = (_shifted(pg, s1, s2),)
        c2 = (_shifted(pg, s2, s1),)
        z = Path2(pg, w, (s1,) + c1).target
        return None, c1, c2, z
    off = min(s1.pos, s2.pos)
    end = max(s1.pos + a1, s2.pos + a2)
    lw, rw = w[:off], w[end:]
    rel1 = (s1.rule, s1.pos - off)
    rel2 = (s2.rule, s2.pos - off)
    f, g = sorted((rel1, rel2), key=lambda rp: (rp[1], rp[0]))
    idx = lookup.get((w[off:end], f, g))
    if idx is None:
        raise CoherenceError(
            f"no generating 3-cell for the branching at {pg.word_str(w[off:end])}"
        )
    cell = p31.cells[idx]
    src_side = whisker(lw, cell.src, rw)
    tgt_side = whisker(lw, cell.tgt, rw)
    if src_side.steps[0] == s1:
        direction, c1, c2 = 1, src_side.steps[1:], tgt_side.steps[1:]
    elif tgt_side.steps[0] == s1:
        direction, c1, c2 = -1, tgt_side.steps[1:], src_side.steps[1:]
    else:
        raise CoherenceError("stored 3-cell does not start with the branching step")
    z = src_side.target
    return (idx, direction, lw, rw), c1, c2, z


def fill_parallel(
    p31: Polygraph31,
    pA: Path2,
    pB: Path2,
    *,
    lookup: Optional[dict] = None,
    strategy="leftmost",
    memo: Optional[dict] = None,
) -> list[SphereEntry]:
    """Decompose the parallel positive reduction paths pA, pB (with a common
    normal-form target) into whiskered generating 3-cells rewriting pA into
    pB.  Well-founded recursion on the source word under the termination
    order; Peiffer faces contribute no entry.
    """
    if lookup is None:
        lookup = cells_by_branching(p31)
    if memo is None:
        memo = {}
    pg = p31.base

    def prefixed(step: Step2, w: Word, entries: list[SphereEntry]) -> list[SphereEntry]:
        head = Path2(pg, w, (step,))
        return [
            SphereEntry(e.cell, e.dir, e.left, e.right, compose(head, e.pre), e.post)
            for e in entries
        ]

    def go(a: Path2, b: Path2) -> list[SphereEntry]:
        if a.steps == b.steps:
            return []
        if a.steps and b.steps and a.steps[0] == b.steps[0]:
            w = a.source
            sub = go(
                Path2(pg, a.words()[1], a.steps[1:]),
                Path2(pg, b.words()[1], b.steps[1:]),
            )
            return prefixed(a.steps[0], w, sub)
        if not a.steps or not b.steps:
            raise CoherenceError("parallel fill: sides of unequal reach")
        w = a.source
        s1, s2 = a.steps[0], b.steps[0]
        entry, c1, c2, z = _local_cell(p31, lookup, w, s1, s2)
        _, n = normalize(z, pg, strategy, memo=memo)
        mid1 = compose(Path2(pg, Path2(pg, w, (s1,)).target, c1), n)
        mid2 = compose(Path2(pg, Path2(pg, w, (s2,)).target, c2), n)
        left = prefixed(s1, w, go(Path2(pg, a.words()[1], a.steps[1:]), mid1))
        right = prefixed(s2, w, go(mid2, Path2(pg, b.words()[1], b.steps[1:])))
        mids = []
        if entry is not None:
            idx, direction, lw, rw = entry
            mids = [
                SphereEntry(idx, direction, lw, rw, identity_path(pg, w), n)
            ]
        return left + mids + right

    return go(pA, pB)


def generating_triple_confluence(
    p31: Polygraph31,
    triple: TripleBranching,
    *,
    strategy="leftmost",
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
    sides = []
    for s in triple.steps:
        sides.append(_branch_side(pg, w, s, strategy, memo))
    F, G, H = sides
    if not (F.target == G.target == H.target):
        raise CoherenceError("triple branching does not converge")
    lhs = fill_parallel(p31, F, G, lookup=lookup, strategy=strategy, memo=memo)
    lhs += fill_parallel(p31, G, H, lookup=lookup, strategy=strategy, memo=memo)
    rhs = fill_parallel(p31, F, H, lookup=lookup, strategy=strategy, memo=memo)
    return Sphere3(F, H, tuple(lhs), tuple(rhs))
