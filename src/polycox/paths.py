"""Composite 2-cells of the free (2,1)-category over a 2-polygraph.

A path is a source word plus a sequence of signed, positioned rule
applications.  Paths are compared through an exchange normal form:
adjacent mutually-inverse steps cancel, and adjacent steps acting on
disjoint factors are reordered so the leftmost-acting step comes first
(with offsets re-derived when the earlier step changes the word length).
Two steps commute exactly when their redex intervals against the common
ambient word are disjoint.  Equal normal forms imply equal 2-cells, not
conversely: with a: ss -> 1, the steps (a at 0) and (a at 2) out of ssss
are one 2-cell (by interchange, each followed by a is a*a; cancel a) with
distinct normal forms.  So no caller may strip common steps before
comparing.

Every path the module derives (composites, whiskerings, inverses, exchange
normal forms, normalizing reductions) carries its target word, obtained by
an exact identity from its operands, so asking for an endpoint never
replays the chain.  A path built through the public constructor carries no
target: the first ``target`` replays and checks its steps and caches only
the last word, the only derived value a path stores: ``words()`` replays
and checks the chain on each call.  ``normalize`` scans the lhs automaton
itself, in the loop that rewrites.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .errors import CompositionError, InputError, NonterminationError
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

    Instances are immutable by convention; besides its steps a path stores
    only its target word, once known.  The constructor checks that letters,
    rule ids, directions and offsets are ints, and all but the offsets by
    value (InputError); offsets are checked on replay.
    """

    __slots__ = ("pg", "source", "steps", "_target")

    def __init__(self, pg: Polygraph2, source, steps=()):
        self.pg = pg
        self.source: Word = pg.check_word(source)
        self.steps: tuple[Step2, ...] = tuple(
            [s if type(s) is Step2 else Step2(*s) for s in steps]
        )
        n = len(pg.rules)
        for r, d, i in self.steps:
            if not (type(r) is type(d) is type(i) is int and 0 <= r < n and d in (1, -1)):
                raise InputError(
                    f"bad step: rule {r!r} of {n}, direction {d!r} (1 or -1), offset {i!r}"
                )
        self._target: Optional[Word] = None

    @classmethod
    def _make(
        cls,
        pg: Polygraph2,
        source: Word,
        steps: tuple[Step2, ...],
        target: Optional[Word],
    ) -> "Path2":
        """Trusted constructor for derived and checked-read paths: ``source``
        is a word tuple, ``steps`` a tuple of Step2 of int fields, and
        ``target`` either None or the word the steps provably lead to."""
        path = _new_object(cls)
        path.pg = pg
        path.source = source
        path.steps = steps
        path._target = target
        return path

    def words(self) -> tuple[Word, ...]:
        """All intermediate words, source to target, replayed on each call."""
        chain = [self.source]
        t = _replay(self.pg, self.source, self.steps, chain)
        if self._target is None:
            self._target = t
        return tuple(chain)

    @property
    def target(self) -> Word:
        """The last word; a replay, which checks every step, keeps only it."""
        t = self._target
        if t is None:
            t = self._target = _replay(self.pg, self.source, self.steps, None)
        return t

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


def _replay(pg: Polygraph2, w: Word, steps, chain: Optional[list]) -> Word:
    """The word ``steps`` lead ``w`` to, each step checked as it is applied
    and each word after it appended to ``chain`` unless that is None.  The
    rule sides are read inline; a step that does not match is handed to
    ``apply_step`` for its StepError."""
    rules = pg.rules
    for r, d, i in steps:
        rule = rules[r]
        src, dst = (rule.lhs, rule.rhs) if d > 0 else (rule.rhs, rule.lhs)
        j = i + len(src)
        if i < 0 or j > len(w) or w[i:j] != src:
            apply_step(w, pg, r, i, d)  # raises
        w = w[:i] + dst + w[j:]
        if chain is not None:
            chain.append(w)
    return w


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
    u, v = f.pg.check_word(u), f.pg.check_word(v)
    t = f._target
    steps = shift_steps(f.steps, len(u))
    return Path2._make(f.pg, u + f.source + v, steps, None if t is None else u + t + v)


def normalize_path(f: Path2) -> Path2:
    """The exchange normal form of f, a path of the same 2-cell.

    Until neither applies: (a) adjacent mutually-inverse steps cancel;
    (b) when of two adjacent steps the later one acts entirely to the left
    of the earlier one's redex, they are swapped, re-deriving the offset of
    the step that crosses over.  A path already in normal form is its own.
    """
    nf = _exchange_normal_form(f.pg.rule_lengths, f.steps)
    if nf is f.steps:
        return f
    return Path2._make(f.pg, f.source, nf, f._target)


def _exchange_normal_form(
    lengths: list[tuple[int, int]], path_steps: tuple[Step2, ...]
) -> tuple[Step2, ...]:
    """The normal-form steps; ``path_steps`` itself when unchanged.  One
    pass: the pairs before ``i`` are canonical, and a cancel or swap at
    ``i`` steps back one pair, the only earlier pair it changes."""
    steps = list(path_steps)
    touched = False
    i = 0
    while i + 1 < len(steps):
        r1, d1, p1 = steps[i]
        r2, d2, p2 = s2 = steps[i + 1]
        # cancellation: s2 exactly undoes s1
        if r2 == r1 and p2 == p1 and d2 == -d1:
            del steps[i : i + 2]
            touched = True
            i = i - 1 if i else 0
            continue
        # s2 acts right of s1's output: canonical already
        if p2 >= p1 + lengths[r1][d1 > 0]:
            i += 1
            continue
        # s2 acts entirely left of s1's redex: swap
        a2, b2 = lengths[r2] if d2 > 0 else lengths[r2][::-1]
        if p2 + a2 <= p1:
            steps[i] = s2
            steps[i + 1] = _new_tuple(Step2, (r1, d1, p1 + (b2 - a2)))
            touched = True
            i = i - 1 if i else 0
            continue
        i += 1
    return tuple(steps) if touched else path_steps


def paths_equal(f: Path2, g: Path2) -> bool:
    """Equal endpoints and exchange normal forms: sound for equality of
    2-cells, not complete (see the module docstring)."""
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
    which is the first redex ``find_redexes`` would list.  The current word
    ``cur`` is one list, rewritten in place; only tuples leave the loop (the
    memo keys, the normal form, the path's target).  ``states[k]`` is the
    lhs automaton's state after ``cur[:k]``; no redex ends before the
    offset i of a rewrite, so the next scan resumes at i, and it stops once
    no lhs prefix read so far starts at or before the best position.  The
    step budget turns nontermination into a diagnosable error; the caller
    remains responsible for supplying a terminating polygraph.  ``memo``
    maps already-normalized words to their paths and must be discarded
    whenever the rule set changes.
    """
    w = p.check_word(w)
    if memo is not None:
        path = memo.get(w)
        if path is not None:
            return path.target, path
        seen = [w]
    limit = DEFAULT_STEP_BUDGET if budget is None else budget
    ac = p.automaton()
    rows, depth, leftmost, rules = ac.rows, ac.depth, ac.leftmost, p.rules
    steps: list[Step2] = []
    cur = list(w)
    states = [0]
    while True:
        s, i, r = states[-1], len(cur) + 1, -1  # the best redex: position i, rule r
        for k in range(len(states), len(cur) + 1):
            s = rows[s][cur[k - 1]]
            states.append(s)
            if k - depth[s] > i:
                break
            m = leftmost[s]  # the longest lhs ending here starts first
            if m is not None:
                n, q = m
                if k - n < i or k - n == i and q < r:
                    i, r = k - n, q
        if r < 0:
            break
        if len(steps) >= limit:
            raise NonterminationError(
                f"no normal form for {p.word_str(w)} within {limit} steps"
            )
        rule = rules[r]
        j = i + len(rule.lhs)
        if tuple(cur[i:j]) != rule.lhs:
            apply_step(tuple(cur), p, r, i)  # raises
        steps.append(_new_tuple(Step2, (r, 1, i)))
        cur[i:j] = rule.rhs
        del states[i + 1 :]
        if memo is not None:
            seen.append(tuple(cur))
            tail = memo.get(seen[-1])
            if tail is not None:
                steps.extend(tail.steps)
                cur = tail.target
                break
    cur = tuple(cur)
    path = Path2._make(p, w, tuple(steps), cur)
    if memo is not None:
        memo[w] = path
        # every suffix of the reduction is itself a reduction; quadratic, but
        # the filler meets these tails: W(D4)'s 497 triple confluences took
        # 0.58-0.61 s storing w alone, 0.37-0.38 s with them (2-vCPU Xeon)
        for k in range(1, len(seen) - 1):
            memo[seen[k]] = Path2._make(p, seen[k], path.steps[k:], cur)
    return cur, path
