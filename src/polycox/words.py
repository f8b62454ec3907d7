"""Words over a finite generating set, rewriting rules, and 2-polygraphs.

A word is a tuple of dense integer generator ids (0..n-1); the polygraph
owns the id -> display-name table.  Rules are oriented pairs of words.
A left-hand side is never empty, which keeps redex enumeration total;
empty right-hand sides are allowed (generic presentations need them, the
Garside and Artin presentations do not).

Termination orders live here too: the degree-lexicographic order with an
explicit precedence on generators, the wreath-style order used for
Garside presentations (component count first, then component lengths
compared from the right).  Positions are
0-based letter offsets throughout, and ties between overlapping redexes
are broken by (position, rule id).  Redexes are found through one
Aho-Corasick automaton over the left-hand sides, ``LhsAutomaton``: tables
of rows indexed by letter, no search method.  ``find_redexes`` lists every
match, and ``paths.normalize`` scans for the leftmost one as it rewrites.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence, Union

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


def word_separator(names: Sequence[str]) -> str:
    """The joiner of names in a word: "." if some name is not one character
    long, else ""; InputError unless unique, non-empty and without '.'."""
    if any(not isinstance(n, str) or not n or "." in n for n in names):
        raise InputError("generator names must be non-empty strings without '.'")
    if len(set(names)) != len(names):
        raise InputError("generator names must be unique")
    return "." if any(len(n) != 1 for n in names) else ""


class Polygraph2:
    """A set of generators plus rewriting rules; presents a monoid.

    Mutable only through ``add_rule`` (completion appends rules); rule
    indices are stable, so paths built against an instance stay valid
    while it grows.  Treat instances as frozen once a construction has
    returned them.  ``generator_ids`` maps each generator name to its id,
    and ``separator`` joins the names in a word: "." when some name is
    not one character long, else "".  ``add_rule`` keeps the name ->
    index table, ``rule_lengths``, the (len(lhs), len(rhs)) of each rule,
    and ``rules_by_first``, the rule ids bucketed by the first letter of
    their lhs in increasing order, in step with ``rules``; it also drops
    the redex automaton, which ``automaton()`` rebuilds on first use.
    Equal by generators and rules and mutable, instances are unhashable.
    """

    __slots__ = (
        "generators",
        "generator_ids",
        "separator",
        "rules",
        "rule_lengths",
        "rules_by_first",
        "_index",
        "_automaton",
    )

    def __init__(self, generators: Iterable[str], rules: Iterable[Rule] = ()):
        self.generators = list(generators)
        self.separator = word_separator(self.generators)
        self.generator_ids = {n: i for i, n in enumerate(self.generators)}
        self.rules: list[Rule] = []
        self.rule_lengths: list[tuple[int, int]] = []
        self.rules_by_first: dict[int, list[int]] = {}
        self._index: dict[str, int] = {}
        self._automaton: Optional[LhsAutomaton] = None
        for r in rules:
            self.add_rule(r)

    @property
    def n_generators(self) -> int:
        return len(self.generators)

    def check_word(self, w: Iterable[int]) -> Word:
        w, n = tuple(w), len(self.generators)
        for g in w:
            if type(g) is not int or not 0 <= g < n:  # a bool or a float is no letter
                raise InputError(f"letter {g!r} out of range in word {w}")
        return w

    def add_rule(self, rule: Rule) -> int:
        self.check_word(rule.lhs)
        self.check_word(rule.rhs)
        if rule.name in self._index:
            raise InputError(f"duplicate rule name {rule.name!r}")
        r = len(self.rules)
        self._index[rule.name] = r
        self.rules.append(rule)
        self.rule_lengths.append((len(rule.lhs), len(rule.rhs)))
        self.rules_by_first.setdefault(rule.lhs[0], []).append(r)
        self._automaton = None
        return r

    def automaton(self) -> "LhsAutomaton":
        """The automaton of the current left-hand sides, its rows indexed
        by the letters 0..n_generators-1."""
        if self._automaton is None:
            self._automaton = LhsAutomaton(self.rules, len(self.generators))
        return self._automaton

    def rule_index(self, name: str) -> int:
        try:
            return self._index[name]
        except (KeyError, TypeError):
            raise InputError(f"no rule named {name!r}") from None

    def generator_index(self, name: str) -> int:
        try:
            return self.generator_ids[name]
        except (KeyError, TypeError):
            raise InputError(f"no generator named {name!r}") from None

    def word_str(self, w: Word) -> str:
        return self.separator.join([self.generators[g] for g in w])

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Polygraph2)
            and self.generators == other.generators
            and self.rules == other.rules
        )

    def __repr__(self) -> str:
        return f"Polygraph2({self.generators!r}, {len(self.rules)} rules)"


class LhsAutomaton:
    """Aho-Corasick automaton over the left-hand sides of a rule list.

    State 0 is the empty prefix and ``depth[s]`` the length of the lhs
    prefix state ``s`` has read.  ``rows[s][g]`` is the state that letter
    ``g < n_letters`` leads ``s`` to, failure links folded in.  ``out[s]``
    lists the lhs ending at ``s``, longest first, as (lhs length, rule ids
    in increasing order), and ``leftmost[s]`` is (length, least id) of the
    first, or None.
    """

    __slots__ = ("rows", "depth", "out", "leftmost")

    def __init__(self, rules: list[Rule], n_letters: int):
        goto: list[dict[int, int]] = [{}]
        self.depth = depth = [0]
        ends: dict[int, list[int]] = {}
        for r, rule in enumerate(rules):
            s = 0
            for d, g in enumerate(rule.lhs, 1):
                s = goto[s].setdefault(g, len(goto))
                if s == len(goto):
                    goto.append({})
                    depth.append(d)
            ends.setdefault(s, []).append(r)
        fail = [0] * len(goto)
        self.rows = rows = [[0] * n_letters] * len(goto)
        self.out = out = [()] * len(goto)
        order = [0]  # breadth first: fail[s] is done before s, whose row
        for s in order:  # starts as a copy of the row of fail[s]
            f = fail[s]
            rows[s] = row = rows[f].copy()
            for g, t in goto[s].items():
                fail[t] = row[g]
                row[g] = t
                order.append(t)
            out[s] = ((depth[s], tuple(ends[s])),) + out[f] if s in ends else out[f]
        self.leftmost = [(o[0][0], o[0][1][0]) if o else None for o in out]


def find_redexes(w: Word, p: Polygraph2) -> list[tuple[int, int]]:
    """All (rule id, position) with the rule's lhs at that offset of ``w``.

    Sorted by (position, rule id); one pass of the lhs automaton.
    """
    ac = p.automaton()
    rows, out = ac.rows, ac.out
    found, s = [], 0
    for k, g in enumerate(p.check_word(w), 1):
        s = rows[s][g]
        for n, ids in out[s]:
            found.extend((r, k - n) for r in ids)
    return sorted(found, key=lambda ri: (ri[1], ri[0]))


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


class _KeyOrder:
    """An order read off ``key``: smaller keys are smaller words, and
    distinct words with equal keys are incomparable."""

    def compare(self, a: Word, b: Word) -> Ordering:
        ka, kb = self.key(a), self.key(b)
        if ka < kb:
            return Ordering.LESS
        if ka > kb:
            return Ordering.GREATER
        return Ordering.EQUAL if a == b else Ordering.INCOMPARABLE


@dataclass(frozen=True)
class Deglex(_KeyOrder):
    """Degree-lexicographic order: length first, then letterwise precedence.

    ``precedence[g]`` is the rank of generator ``g``; a larger rank means a
    greater letter.
    """

    precedence: tuple[int, ...]

    def key(self, w: Word) -> tuple:
        return (len(w), tuple(self.precedence[g] for g in w))


@dataclass(frozen=True)
class GarsideWreath(_KeyOrder):
    """Order for Garside presentations: fewer components first, then the
    lengths of the components compared starting from the right.

    ``lengths[g]`` is the Coxeter length of the group element generator
    ``g`` stands for.  Words with equal profiles but different letters are
    incomparable; the Garside completion never needs to orient such a pair.
    """

    lengths: tuple[int, ...]

    def key(self, w: Word) -> tuple:
        return (len(w), tuple(self.lengths[g] for g in reversed(w)))


TerminationOrder = Union[Deglex, GarsideWreath]


def deglex_from_names(p: Polygraph2, names_desc: list[str]) -> Deglex:
    """Build a Deglex from generator names listed greatest first."""
    if sorted(names_desc) != sorted(p.generators):
        raise InputError(
            f"precedence list {names_desc} does not name the generators exactly once"
        )
    rank = [0] * len(p.generators)
    for pos, name in enumerate(names_desc):
        rank[p.generator_ids[name]] = len(names_desc) - pos
    return Deglex(tuple(rank))


def check_termination(p: Polygraph2, order: TerminationOrder) -> list[Rule]:
    """Rules whose lhs is not strictly greater than their rhs (empty = ok)."""
    return [r for r in p.rules if order.compare(r.lhs, r.rhs) is not Ordering.GREATER]
