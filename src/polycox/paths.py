"""Composite 2-cells of the free (2,1)-category over a 2-polygraph.

A path is a source word plus a sequence of signed, positioned rule
applications.  Equality of 2-cells modulo the exchange relations and
inverse cancellation is decided through a canonical form: adjacent
mutually-inverse steps cancel, and adjacent steps acting on disjoint
factors are reordered so the leftmost-acting step comes first (with
offsets re-derived when the earlier step changes the word length).
Two steps commute exactly when their redex intervals against the common
ambient word are disjoint.

Every path the module derives (composites, whiskerings, inverses, exchange
normal forms, normalizing reductions) carries its target word, obtained by
an exact identity from its operands, so asking for an endpoint never
replays the chain.  A path built through the public constructor carries no
target: the first ``target`` replays and checks its steps and caches only
the last word.  The chain of intermediate words is cached only by
``words()``, whose replay checks every step.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .errors import CompositionError, NonterminationError
from .words import (
    DEFAULT_STEP_BUDGET,
    Polygraph2,
    Word,
    apply_step,
)


_new_object = object.__new__
_new_tuple = tuple.__new__


class Step2(NamedTuple):
    """One whiskered rule application: rule id, direction, letter offset."""

    rule: int
    dir: int  # +1 forward, -1 reverse
    pos: int


class Path2:
    """A composite 2-cell: a source word and a chain of steps.

    Instances are immutable by convention; ``words()`` caches the chain of
    intermediate words and validates every step against it.
    """

    __slots__ = ("pg", "source", "steps", "_chain", "_target", "_nf")

    def __init__(self, pg: Polygraph2, source, steps=()):
        self.pg = pg
        self.source: Word = tuple(source)
        self.steps: tuple[Step2, ...] = tuple(
            [s if type(s) is Step2 else Step2(*s) for s in steps]
        )
        self._chain: Optional[tuple[Word, ...]] = None
        self._target: Optional[Word] = None
        self._nf: Optional[tuple[Step2, ...]] = None

    @classmethod
    def _make(
        cls,
        pg: Polygraph2,
        source: Word,
        steps: tuple[Step2, ...],
        target: Optional[Word],
    ) -> "Path2":
        """Trusted constructor for derived paths: ``source`` is a word tuple,
        ``steps`` a tuple of Step2, and ``target`` either None or the word
        the steps provably lead to."""
        path = _new_object(cls)
        path.pg = pg
        path.source = source
        path.steps = steps
        path._chain = None
        path._target = target
        path._nf = None
        return path

    def words(self) -> tuple[Word, ...]:
        """All intermediate words, source first, target last."""
        if self._chain is None:
            chain = [self.source]
            w = self.source
            for s in self.steps:
                w = apply_step(w, self.pg, s.rule, s.pos, s.dir)
                chain.append(w)
            self._chain = tuple(chain)
            self._target = w
        return self._chain

    @property
    def target(self) -> Word:
        """The last word; a replay, which checks every step, keeps only it."""
        t = self._target
        if t is None:
            t = self.source
            for s in self.steps:
                t = apply_step(t, self.pg, s.rule, s.pos, s.dir)
            self._target = t
        return t

    def __len__(self) -> int:
        return len(self.steps)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Path2)
            and self.source == other.source
            and self.steps == other.steps
        )

    def __hash__(self) -> int:
        return hash((self.source, self.steps))

    def __repr__(self) -> str:
        return f"Path2({self.pg.word_str(self.source)!r}, {list(self.steps)!r})"


def identity_path(pg: Polygraph2, w) -> Path2:
    return Path2(pg, w, ())


def compose(f: Path2, g: Path2) -> Path2:
    """The 1-composite f then g; requires target(f) = source(g)."""
    if f.pg is not g.pg:
        raise CompositionError("paths over different polygraphs")
    if f.target != g.source:
        raise CompositionError(
            f"cannot compose: target {f.target} != source {g.source}"
        )
    return Path2._make(f.pg, f.source, f.steps + g.steps, g._target)


def inverse(f: Path2) -> Path2:
    """Steps reversed with directions negated; source = target(f).

    The rewritten factor starts at the same offset on both sides of a
    step, so positions carry over unchanged.
    """
    steps = tuple([_new_tuple(Step2, (r, -d, i)) for r, d, i in reversed(f.steps)])
    return Path2._make(f.pg, f.target, steps, f.source)


def shift_steps(steps: tuple[Step2, ...], shift: int) -> tuple[Step2, ...]:
    """``steps`` moved right by ``shift`` letters; ``steps`` itself for 0."""
    if not shift:
        return steps
    return tuple([_new_tuple(Step2, (r, d, i + shift)) for r, d, i in steps])


def whisker(u, f: Path2, v) -> Path2:
    """The 0-composite u.f.v: every step shifts right by len(u)."""
    u, v = tuple(u), tuple(v)
    t = f._target
    steps = shift_steps(f.steps, len(u))
    return Path2._make(f.pg, u + f.source + v, steps, None if t is None else u + t + v)


def normalize_path(f: Path2) -> Path2:
    """Canonical representative of f's 2-cell in the free (2,1)-category.

    Repeats to a fixed point: (a) adjacent mutually-inverse steps cancel;
    (b) when of two adjacent steps the later one acts entirely to the left
    of the earlier one's redex, they are swapped, re-deriving the offset of
    the step that crosses over.  The canonical steps are computed once per
    path object; a path already canonical is its own representative.
    """
    nf = f._nf
    if nf is None:
        nf = f._nf = _exchange_normal_form(f.pg.rule_lengths, f.steps)
    if nf is f.steps:
        return f
    g = Path2._make(f.pg, f.source, nf, f._target)
    g._nf = nf
    return g


def _exchange_normal_form(
    lengths: list[tuple[int, int]], path_steps: tuple[Step2, ...]
) -> tuple[Step2, ...]:
    """The canonical step sequence; ``path_steps`` itself when unchanged."""
    steps = list(path_steps)
    touched = False
    changed = True
    while changed:
        changed = False
        i = 0
        while i + 1 < len(steps):
            s1, s2 = steps[i], steps[i + 1]
            r1, d1, p1 = s1
            r2, d2, p2 = s2
            # cancellation: s2 exactly undoes s1
            if r2 == r1 and d2 == -d1 and p2 == p1:
                del steps[i : i + 2]
                changed = touched = True
                i = max(i - 1, 0)
                continue
            # s2 acts right of s1's output: canonical already
            n_lhs, n_rhs = lengths[r1]
            if p2 >= p1 + (n_rhs if d1 > 0 else n_lhs):
                i += 1
                continue
            # s2 acts entirely left of s1's redex: swap
            n_lhs, n_rhs = lengths[r2]
            a2, b2 = (n_lhs, n_rhs) if d2 > 0 else (n_rhs, n_lhs)
            if p2 + a2 <= p1:
                steps[i] = s2
                steps[i + 1] = _new_tuple(Step2, (r1, d1, p1 + (b2 - a2)))
                changed = touched = True
                i = max(i - 1, 0)
                continue
            i += 1
    return tuple(steps) if touched else path_steps


def paths_equal(f: Path2, g: Path2) -> bool:
    """Equality of 2-cells modulo exchange and inverse cancellation."""
    if f.source != g.source or f.target != g.target:
        return False
    return normalize_path(f).steps == normalize_path(g).steps


def normalize(
    w,
    p: Polygraph2,
    *,
    budget: Optional[int] = None,
    memo: Optional[dict] = None,
) -> tuple[Word, Path2]:
    """Reduce ``w`` to a normal form, returning (normal form, path).

    Every step rewrites the leftmost redex, the lowest rule id on ties,
    which is the first redex ``find_redexes`` would list.  The lhs
    automaton's states along the word are kept across steps: no redex ends
    before the offset i of a rewrite, so the next scan resumes at i.
    The step budget turns nontermination into a diagnosable error; the
    caller remains responsible for supplying a terminating polygraph.
    ``memo`` maps already-normalized words to their paths and must be
    discarded whenever the rule set changes.
    """
    w = p.check_word(w)
    if memo is not None and w in memo:
        path = memo[w]
        return path.target, path
    limit = DEFAULT_STEP_BUDGET if budget is None else budget
    steps: list[Step2] = []
    seen: list[Word] = [w]
    cur = w
    leftmost = p.automaton().leftmost
    states = [0]
    while True:
        if memo is not None and cur in memo and cur is not w:
            tail = memo[cur]
            steps.extend(tail.steps)
            cur = tail.target
            break
        redex = leftmost(cur, states)
        if redex is None:
            break
        if len(steps) >= limit:
            raise NonterminationError(
                f"no normal form for {p.word_str(w)} within {limit} steps"
            )
        r, i = redex
        steps.append(Step2(r, 1, i))
        cur = apply_step(cur, p, r, i, 1)
        seen.append(cur)
        del states[i + 1 :]
    path = Path2._make(p, w, tuple(steps), cur)
    if memo is not None:
        memo[w] = path
        # every suffix of the reduction is itself a reduction
        for k in range(1, len(seen) - 1):
            word_k = seen[k]
            if word_k not in memo:
                memo[word_k] = Path2._make(p, word_k, path.steps[k:], cur)
    return cur, path
