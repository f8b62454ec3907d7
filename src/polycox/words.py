"""Words over a finite generating set, rewriting rules, and 2-polygraphs.

A word is a tuple of dense integer generator ids (0..n-1); the polygraph
owns the id -> display-name table.  Rules are oriented pairs of words.
A left-hand side is never empty, which keeps redex enumeration total;
empty right-hand sides are allowed (generic presentations need them, the
Garside and Artin presentations do not).

Termination orders live here too: the degree-lexicographic order with an
explicit precedence on generators, the wreath-style order used for
Garside presentations (component count first, then component lengths
compared from the right), and explicit user tables.  Positions are
0-based letter offsets throughout, and ties between overlapping redexes
are broken by (position, rule id).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Union

from .errors import InputError, StepError

Word = tuple[int, ...]

DEFAULT_STEP_BUDGET = 10 ** 6
DEFAULT_RULE_BUDGET = 10 ** 4
DEFAULT_BRANCHING_BUDGET = 10 ** 5
DEFAULT_COSET_CAP = 10 ** 6


@dataclass(frozen=True)
class Rule:
    """An oriented relation ``lhs => rhs`` between words."""

    name: str
    lhs: Word
    rhs: Word

    def __post_init__(self) -> None:
        object.__setattr__(self, "lhs", tuple(self.lhs))
        object.__setattr__(self, "rhs", tuple(self.rhs))
        if not self.lhs:
            raise InputError(f"rule {self.name!r}: empty left-hand side")


class Polygraph2:
    """A set of generators plus rewriting rules; presents a monoid.

    Mutable only through ``add_rule`` (completion appends rules); rule
    indices are stable, so paths built against an instance stay valid
    while it grows.  Treat instances as frozen once a construction has
    returned them.  ``add_rule`` keeps the name -> index table and
    ``rule_lengths``, the (len(lhs), len(rhs)) of each rule, in step with
    ``rules``.
    """

    __slots__ = (
        "generators",
        "rules",
        "rule_lengths",
        "_index",
        "_by_first",
        "_by_first_len",
    )

    def __init__(self, generators: Iterable[str], rules: Iterable[Rule] = ()):
        self.generators = list(generators)
        if len(set(self.generators)) != len(self.generators):
            raise InputError("generator names must be unique")
        self.rules: list[Rule] = []
        self.rule_lengths: list[tuple[int, int]] = []
        self._index: dict[str, int] = {}
        self._by_first: dict[int, list[int]] = {}
        self._by_first_len = 0
        for r in rules:
            self.add_rule(r)

    @property
    def n_generators(self) -> int:
        return len(self.generators)

    def check_word(self, w: Iterable[int]) -> Word:
        w = tuple(w)
        for g in w:
            if not (0 <= g < len(self.generators)):
                raise InputError(f"letter {g} out of range in word {w}")
        return w

    def add_rule(self, rule: Rule) -> int:
        self.check_word(rule.lhs)
        self.check_word(rule.rhs)
        if rule.name in self._index:
            raise InputError(f"duplicate rule name {rule.name!r}")
        self._index[rule.name] = len(self.rules)
        self.rules.append(rule)
        self.rule_lengths.append((len(rule.lhs), len(rule.rhs)))
        return len(self.rules) - 1

    def rule_index(self, name: str) -> int:
        try:
            return self._index[name]
        except (KeyError, TypeError):
            raise InputError(f"no rule named {name!r}") from None

    def by_first_letter(self) -> dict[int, list[int]]:
        """Rule indices bucketed by the first letter of their lhs."""
        if self._by_first_len != len(self.rules):
            buckets: dict[int, list[int]] = {}
            for i, r in enumerate(self.rules):
                buckets.setdefault(r.lhs[0], []).append(i)
            self._by_first = buckets
            self._by_first_len = len(self.rules)
        return self._by_first

    def word_str(self, w: Word) -> str:
        names = [self.generators[g] for g in w]
        if any(len(n) != 1 for n in self.generators):
            return ".".join(names)
        return "".join(names)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Polygraph2)
            and self.generators == other.generators
            and self.rules == other.rules
        )

    def __hash__(self) -> int:  # identity hash: instances act as contexts
        return id(self)

    def __repr__(self) -> str:
        return f"Polygraph2({self.generators!r}, {len(self.rules)} rules)"


def find_redexes(w: Word, p: Polygraph2) -> list[tuple[int, int]]:
    """All (rule id, position) with the rule's lhs at that offset of ``w``.

    Sorted by (position, rule id).
    """
    p.check_word(w)
    out = []
    buckets = p.by_first_letter()
    for i, g in enumerate(w):
        for r in buckets.get(g, ()):
            lhs = p.rules[r].lhs
            if w[i : i + len(lhs)] == lhs:
                out.append((r, i))
    out.sort(key=lambda ri: (ri[1], ri[0]))
    return out


def matches(w: Word, p: Polygraph2, r: int, i: int, direction: int = 1) -> bool:
    """Whether rule ``r`` applies to ``w`` at offset ``i`` in ``direction``."""
    rule = p.rules[r]
    pat = rule.lhs if direction > 0 else rule.rhs
    return 0 <= i <= len(w) - len(pat) and w[i : i + len(pat)] == pat


def apply_step(w: Word, p: Polygraph2, r: int, i: int, direction: int = 1) -> Word:
    """Replace the matched side of rule ``r`` at offset ``i`` by the other side."""
    rule = p.rules[r]
    src, dst = (rule.lhs, rule.rhs) if direction > 0 else (rule.rhs, rule.lhs)
    if not (0 <= i <= len(w) - len(src)) or w[i : i + len(src)] != src:
        raise StepError(
            f"rule {rule.name!r} ({'forward' if direction > 0 else 'reverse'}) "
            f"does not match {w} at {i}"
        )
    return w[:i] + dst + w[i + len(src) :]


class Ordering(Enum):
    LESS = -1
    EQUAL = 0
    GREATER = 1
    INCOMPARABLE = 2


@dataclass(frozen=True)
class Deglex:
    """Degree-lexicographic order: length first, then letterwise precedence.

    ``precedence[g]`` is the rank of generator ``g``; a larger rank means a
    greater letter.
    """

    precedence: tuple[int, ...]

    def key(self, w: Word) -> tuple:
        return (len(w), tuple(self.precedence[g] for g in w))

    def compare(self, a: Word, b: Word) -> Ordering:
        ka, kb = self.key(a), self.key(b)
        if ka < kb:
            return Ordering.LESS
        if ka > kb:
            return Ordering.GREATER
        return Ordering.EQUAL if a == b else Ordering.INCOMPARABLE


@dataclass(frozen=True)
class GarsideWreath:
    """Order for Garside presentations: fewer components first, then the
    lengths of the components compared starting from the right.

    ``lengths[g]`` is the Coxeter length of the group element generator
    ``g`` stands for.  Words with equal profiles but different letters are
    incomparable; the Garside completion never needs to orient such a pair.
    """

    lengths: tuple[int, ...]

    def key(self, w: Word) -> tuple:
        return (len(w), tuple(self.lengths[g] for g in reversed(w)))

    def compare(self, a: Word, b: Word) -> Ordering:
        ka, kb = self.key(a), self.key(b)
        if ka < kb:
            return Ordering.LESS
        if ka > kb:
            return Ordering.GREATER
        return Ordering.EQUAL if a == b else Ordering.INCOMPARABLE


@dataclass(frozen=True)
class UserTable:
    """An explicit order: the table lists (greater, lesser) word pairs."""

    greater: frozenset[tuple[Word, Word]]

    def compare(self, a: Word, b: Word) -> Ordering:
        if a == b:
            return Ordering.EQUAL
        if (a, b) in self.greater:
            return Ordering.GREATER
        if (b, a) in self.greater:
            return Ordering.LESS
        return Ordering.INCOMPARABLE


TerminationOrder = Union[Deglex, GarsideWreath, UserTable]


def deglex_from_names(p: Polygraph2, names_desc: list[str]) -> Deglex:
    """Build a Deglex from generator names listed greatest first."""
    if sorted(names_desc) != sorted(p.generators):
        raise InputError(
            f"precedence list {names_desc} does not name the generators exactly once"
        )
    rank = [0] * len(p.generators)
    for pos, name in enumerate(names_desc):
        rank[p.generators.index(name)] = len(names_desc) - pos
    return Deglex(tuple(rank))


def compare(order: TerminationOrder, a: Word, b: Word) -> Ordering:
    return order.compare(tuple(a), tuple(b))


def check_termination(p: Polygraph2, order: TerminationOrder) -> list[Rule]:
    """Rules whose lhs is not strictly greater than their rhs (empty = ok)."""
    return [r for r in p.rules if order.compare(r.lhs, r.rhs) is not Ordering.GREATER]
