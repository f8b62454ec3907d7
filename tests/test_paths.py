import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polycox as px
from polycox import serialize as ser
from polycox.paths import Path2, Step2, _exchange_normal_form
from polycox.words import LhsAutomaton

import oracles
from conftest import coxeter_monoid


@pytest.fixture(scope="module")
def pg():
    # two commuting-ish rules plus a shrinking one, for path algebra
    return px.Polygraph2(
        ["a", "b", "c"],
        [
            px.Rule("p", (0, 1), (1, 0)),
            px.Rule("q", (1, 2), (2,)),
            px.Rule("r", (2, 2), (0,)),
        ],
    )


def random_word(pg, data, min_size=1, max_size=6):
    letters = st.integers(0, pg.n_generators - 1)
    return tuple(data.draw(st.lists(letters, min_size=min_size, max_size=max_size)))


def random_path(pg, data, max_len=6, source=None):
    """Draw a valid signed path over pg, from ``source`` when given."""
    w = random_word(pg, data) if source is None else source
    steps = []
    cur = w
    for _ in range(data.draw(st.integers(0, max_len))):
        options = []
        for r, rule in enumerate(pg.rules):
            for d, pat in ((1, rule.lhs), (-1, rule.rhs)):
                for i in range(len(cur) - len(pat) + 1):
                    if cur[i : i + len(pat)] == pat:
                        options.append(Step2(r, d, i))
        if not options:
            break
        s = data.draw(st.sampled_from(options))
        steps.append(s)
        cur = px.apply_step(cur, pg, s.rule, s.pos, s.dir)
    return Path2(pg, w, steps)


class TestCompose:
    def test_identity_right_unit(self, pg):
        f = Path2(pg, (0, 1, 2), [Step2(0, 1, 0)])
        assert px.compose(f, px.identity_path(pg, f.target)) == f

    def test_boundary_mismatch(self, pg):
        f = Path2(pg, (0, 1), [Step2(0, 1, 0)])
        with pytest.raises(px.CompositionError):
            px.compose(f, Path2(pg, (2, 2), [Step2(2, 1, 0)]))

    def test_equal_but_distinct_polygraphs(self, pg):
        twin = px.Polygraph2(pg.generators, pg.rules)
        assert twin == pg and twin is not pg
        f = Path2(pg, (0, 1), [Step2(0, 1, 0)])
        with pytest.raises(px.CompositionError, match="^paths over different polygraphs$"):
            px.compose(f, px.identity_path(twin, f.target))

    def test_inverse_cancels_to_identity(self, pg):
        f = Path2(pg, (0, 1, 2, 2), [Step2(1, 1, 1), Step2(2, 1, 1)])
        round_trip = px.compose(f, px.inverse(f))
        assert px.normalize_path(round_trip).steps == ()


class TestInverse:
    def test_empty(self, pg):
        f = px.identity_path(pg, (0, 1))
        assert px.inverse(f) == f

    def test_single_step(self, pg):
        f = Path2(pg, (0, 1), [Step2(0, 1, 0)])
        assert px.inverse(f).steps == (Step2(0, -1, 0),)

    def test_involution(self, pg):
        f = Path2(pg, (0, 1, 2, 2), [Step2(1, 1, 1), Step2(2, 1, 1)])
        assert px.inverse(px.inverse(f)) == f


class TestWhisker:
    def test_trivial(self, pg):
        f = Path2(pg, (0, 1), [Step2(0, 1, 0)])
        assert px.whisker((), f, ()) == f

    def test_offsets_shift(self, pg):
        f = Path2(pg, (1, 2), [Step2(1, 1, 0)])
        g = px.whisker((0,), f, (2, 2))
        assert g.source == (0, 1, 2, 2, 2)
        assert g.steps == (Step2(1, 1, 1),)

    def test_target_law(self, pg):
        f = Path2(pg, (0, 1), [Step2(0, 1, 0)])
        g = px.whisker((2,), f, (0,))
        assert g.target == (2,) + f.target + (0,)


class TestNormalizePath:
    def test_disjoint_steps_reorder(self, pg):
        # a step at 3 after a step at 0 stays; the other order swaps
        w = (0, 1, 1, 2)
        early = Step2(0, 1, 0)  # acts on [0,2)
        late = Step2(1, 1, 2)  # acts on [2,4)
        canonical = px.normalize_path(Path2(pg, w, [early, late]))
        # build the other interleaving: late first (at its position in w)
        other = px.normalize_path(Path2(pg, w, [Step2(1, 1, 2), Step2(0, 1, 0)]))
        assert canonical.steps == other.steps

    def test_cancellation(self, pg):
        f = Path2(pg, (0, 1), [Step2(0, 1, 0), Step2(0, -1, 0)])
        assert px.normalize_path(f).steps == ()

    def test_cancellation_enabled_by_swap(self, pg):
        # forward at 0, a disjoint step at 2, then the inverse at 0
        w = (0, 1, 1, 2)
        f = Path2(pg, w, [Step2(0, 1, 0), Step2(1, 1, 2), Step2(0, -1, 0)])
        nf = px.normalize_path(f)
        assert len(nf.steps) == 1 and nf.steps[0].rule == 1

    @given(st.data())
    def test_idempotent(self, pg, data):
        f = random_path(pg, data)
        once = px.normalize_path(f)
        assert px.normalize_path(once) == once

    @given(st.data())
    def test_preserves_boundary(self, pg, data):
        f = random_path(pg, data)
        nf = px.normalize_path(f)
        assert nf.source == f.source and nf.target == f.target

    @given(st.data())
    def test_inverse_composite_cancels(self, pg, data):
        f = random_path(pg, data)
        assert px.normalize_path(px.compose(f, px.inverse(f))).steps == ()


def exhaustive_paths(pg, source, depth):
    """All signed paths from source up to the given length."""
    frontier = [()]
    for _ in range(depth):
        new = []
        for steps in frontier:
            cur = Path2(pg, source, steps).target
            for r, rule in enumerate(pg.rules):
                for d, pat in ((1, rule.lhs), (-1, rule.rhs)):
                    for i in range(len(cur) - len(pat) + 1):
                        if cur[i : i + len(pat)] == pat:
                            new.append(steps + (Step2(r, d, i),))
        yield from (Path2(pg, source, s) for s in frontier)
        frontier = new
    yield from (Path2(pg, source, s) for s in frontier)


def io_lengths(path, s):
    """(consumed, produced) letter counts of a step, read off the rules."""
    rule = path.pg.rules[s.rule]
    return (len(rule.lhs), len(rule.rhs)) if s.dir > 0 else (len(rule.rhs), len(rule.lhs))


def normalize_variant(path):
    """Alternative strategy: exhaust swaps first, then cancellations, and
    repeat; must agree with the library's interleaved normalization."""
    steps = list(path.steps)
    changed = True
    while changed:
        changed = False
        swapped = True
        while swapped:
            swapped = False
            for i in range(len(steps) - 1):
                s1, s2 = steps[i], steps[i + 1]
                a1, b1 = io_lengths(path, s1)
                a2, b2 = io_lengths(path, s2)
                if s2.pos + a2 <= s1.pos and not (
                    s2.rule == s1.rule and s2.dir == -s1.dir and s2.pos == s1.pos
                ):
                    steps[i] = Step2(s2.rule, s2.dir, s2.pos)
                    steps[i + 1] = Step2(s1.rule, s1.dir, s1.pos + (b2 - a2))
                    swapped = changed = True
        for i in range(len(steps) - 1):
            s1, s2 = steps[i], steps[i + 1]
            if s2.rule == s1.rule and s2.dir == -s1.dir and s2.pos == s1.pos:
                del steps[i : i + 2]
                changed = True
                break
    return Path2(path.pg, path.source, steps)


class TestNormalizationConfluence:
    def test_variants_agree_exhaustively(self):
        pg = px.Polygraph2(
            ["a", "b"], [px.Rule("p", (0, 0), (1,)), px.Rule("q", (0, 1), (1, 0))]
        )
        count = 0
        for source in [(0, 0, 0, 0), (0, 0, 1, 0, 0), (1, 0, 0, 1)]:
            for path in exhaustive_paths(pg, source, 5):
                got = px.normalize_path(path)
                alt = normalize_variant(path)
                assert got.steps == alt.steps, (path.steps, got.steps, alt.steps)
                count += 1
        assert count > 1000


class TestPathsEqual:
    def test_identity_composite(self, pg):
        f = Path2(pg, (0, 1), [Step2(0, 1, 0)])
        assert px.paths_equal(f, px.compose(f, px.identity_path(pg, f.target)))

    def test_all_interleavings_of_disjoint_steps(self):
        # oracle: every interleaving of up to 4 pairwise disjoint steps is
        # the same 2-cell
        pg = px.Polygraph2(["a", "b"], [px.Rule("p", (0, 0), (1,))])
        n = 4
        word = (0, 0) * n
        steps = [Step2(0, 1, 2 * k) for k in range(n)]

        def realize(order):
            cur = list(range(n))
            out = []
            width = [2] * n  # current width of each block
            for k in order:
                pos = sum(width[j] for j in range(n) if j < k)
                out.append(Step2(0, 1, pos))
                width[k] = 1
            return Path2(pg, word, out)

        reference = realize(tuple(range(n)))
        for order in itertools.permutations(range(n)):
            assert px.paths_equal(realize(order), reference)

    def test_different_targets(self, pg):
        f = Path2(pg, (0, 1), [Step2(0, 1, 0)])
        g = px.identity_path(pg, (0, 1))
        assert not px.paths_equal(f, g)

    def test_sound_not_complete(self):
        # with a: ss -> 1, the steps a.ss and ss.a out of ssss are one
        # 2-cell: by interchange (a.ss);a = a*a = (ss.a);a, then a cancels.
        # Their exchange normal forms differ, so paths_equal says False;
        # followed by a, both normalize to a;a and it says True.  Stripping
        # that common last step before comparing would report a mismatch.
        pg = px.Polygraph2(["s"], [px.Rule("a", (0, 0), ())])
        f = Path2(pg, (0,) * 4, [Step2(0, 1, 0)])
        g = Path2(pg, (0,) * 4, [Step2(0, 1, 2)])
        assert not px.paths_equal(f, g)
        last = Path2(pg, (0, 0), [Step2(0, 1, 0)])
        assert px.paths_equal(px.compose(f, last), px.compose(g, last))


@pytest.fixture(scope="module")
def core_polygraphs(b3plus_completed, groups):
    """The completed B3+ presentation and S(Gar_2(A2)), both convergent."""
    p31, _ = b3plus_completed
    return [p31.base, px.complete_garside(groups("A2")).p31.base]


def replayed(p):
    """The same 2-cell rebuilt through the public, replaying constructor."""
    return Path2(p.pg, p.source, p.steps)


class TestLeftmostNormalize:
    """``normalize`` follows the slicing oracle that rewrites the
    (position, rule id)-least redex at every step."""

    @staticmethod
    def reference(w, pg):
        nf, steps = oracles.naive_leftmost_reduction(w, [(r.lhs, r.rhs) for r in pg.rules])
        return nf, tuple(Step2(r, 1, i) for r, i in steps)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_path_matches_reference(self, core_polygraphs, data):
        pg = data.draw(st.sampled_from(core_polygraphs))
        w = random_word(pg, data, min_size=0, max_size=8)
        nf, path = px.normalize(w, pg)
        assert (nf, path.steps) == self.reference(w, pg)
        # memo suffixes are reductions of the same strategy
        memo = {}
        for u in (w[1:], w):
            nf, path = px.normalize(u, pg, memo=memo)
            assert (nf, path.steps) == self.reference(u, pg)


class TestCarriedTargets:
    """Derived paths carry their target; it must equal a full replay."""

    def check(self, p):
        q = replayed(p)
        # the carried target is read before words() replays the chain
        assert p.target == q.target
        assert p.words() == q.words()

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_derived_paths_match_replay(self, core_polygraphs, data):
        pg = data.draw(st.sampled_from(core_polygraphs))
        f = random_path(pg, data)
        g = random_path(pg, data, source=f.target)
        u = random_word(pg, data, min_size=0, max_size=3)
        v = random_word(pg, data, min_size=0, max_size=3)
        fg = px.compose(f, g)
        derived = [
            fg,
            px.inverse(f),
            px.whisker(u, f, v),
            px.whisker(u, fg, v),
            px.normalize_path(f),
            px.normalize_path(px.compose(fg, px.inverse(g))),
            px.inverse(px.whisker(u, px.normalize_path(fg), v)),
            # a user-built operand, whose target is not yet known
            px.whisker(u, replayed(g), v),
            px.compose(replayed(f), replayed(g)),
        ]
        memo = {}
        for w in (f.source, f.target, u + g.target + v):
            nf, path = px.normalize(w, pg, memo=memo)
            assert nf == path.target
            derived.append(path)
        derived.extend(memo.values())
        for p in derived:
            self.check(p)

    def test_user_path_with_bad_step_raises_on_use(self, pg):
        bad = Path2(pg, (2, 1), [Step2(0, 1, 0)])  # "p" needs "ab" at 0
        with pytest.raises(px.StepError):
            bad.target
        with pytest.raises(px.StepError):
            Path2(pg, (2, 1), [Step2(0, 1, 0)]).words()
        # derived from an unchecked operand: replayed, hence checked, on use
        with pytest.raises(px.StepError):
            px.whisker((0,), Path2(pg, (2, 1), [Step2(0, 1, 0)]), ()).target
        with pytest.raises(px.StepError):
            px.normalize_path(Path2(pg, (2, 1), [Step2(0, 1, 0)])).words()
        with pytest.raises(px.StepError):
            px.compose(Path2(pg, (2, 1), [Step2(0, 1, 0)]), px.identity_path(pg, (1,)))

    @staticmethod
    def same_error(pg, source, steps, before):
        # the replay of target and of words() raise the very message that
        # apply_step raises for the last step on ``before``
        *_, bad = steps
        with pytest.raises(px.StepError) as want:
            px.apply_step(before, pg, bad.rule, bad.pos, bad.dir)
        for end in (lambda p: p.target, lambda p: p.words()):
            with pytest.raises(px.StepError) as got:
                end(Path2(pg, source, steps))
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize(
        "bad",
        [
            Step2(0, -1, 1),  # bad offset: "ba" is at 0 of "bac", not at 1
            Step2(0, 1, 0),  # wrong side: "ba" matches p's rhs, not its lhs
            Step2(2, -1, 3),  # offset past the end
        ],
    )
    def test_replay_raises_apply_steps_error(self, pg, bad):
        # "abc" -p-> "bac", then the bad step
        self.same_error(pg, (0, 1, 2), [Step2(0, 1, 0), bad], (1, 0, 2))

    @pytest.mark.parametrize("at", [-1, 1])
    def test_empty_side_matches_only_inside_the_word(self, at):
        unit = px.Polygraph2(["a"], [px.Rule("u", (0, 0), ())])
        # "aa" -u-> "", whose only offset is 0
        self.same_error(unit, (0, 0), [Step2(0, 1, 0), Step2(0, -1, at)], ())

    # each would pass unchecked: letter -1 reads as the last generator (and is
    # written as one), rule -2 as rule q, direction 0 replays as a reverse
    @pytest.mark.parametrize(
        "source, steps, match",
        [
            ((-1, 0, 1), [Step2(0, 1, 1)], "^letter -1 out of range in word"),
            ((7,), [], "^letter 7 out of range in word"),
            ((1, 2), [Step2(-2, 1, 0)], "^bad step: rule -2 of 3"),
            ((0, 1), [Step2(5, 1, 0)], "^bad step: rule 5 of 3"),
            ((1, 0), [Step2(0, 0, 0)], "^bad step: rule 0 of 3, direction 0"),
            # a float, a string or a bool where an int belongs: a float or a
            # string ends the replay in a bare TypeError, a bool replays as 0
            # or 1, and a direction True is written as "dir": true
            ((0, 1), [(0.0, 1, 0)], r"^bad step: rule 0\.0 of 3"),
            ((0, 1), [(0, 1, "x")], r"^bad step: rule 0 of 3, .* offset 'x'$"),
            ((0, 1), [(0, 1, 0.0)], r"^bad step: rule 0 of 3, .* offset 0\.0$"),
            ((0, 1), [(0, True, 0)], "^bad step: rule 0 of 3, direction True"),
            ((0, 1), [(False, 1, 0)], "^bad step: rule False of 3"),
            ((True, 1), [], "^letter True out of range in word"),
        ],
    )
    def test_constructor_refuses_what_no_document_holds(self, pg, source, steps, match):
        with pytest.raises(px.InputError, match=match):
            Path2(pg, source, steps)

    def test_normalize_refuses_a_float_letter(self, pg):
        # its normal form would be a word of floats, whose repr raises TypeError
        with pytest.raises(px.InputError, match=r"^letter 0\.0 out of range in word"):
            px.normalize((0.0, 1), pg)

    @pytest.mark.parametrize("u, v", [((3,), ()), ((), (-1,))])
    def test_whisker_refuses_letters_out_of_range(self, pg, u, v):
        f = Path2(pg, (0, 1), [Step2(0, 1, 0)])
        with pytest.raises(px.InputError, match="out of range in word"):
            px.whisker(u, f, v)

    def test_compose_mismatch_with_carried_target(self, pg):
        f = px.whisker((2,), Path2(pg, (0, 1), [Step2(0, 1, 0)]), ())
        assert f.target == (2, 1, 0)
        with pytest.raises(px.CompositionError):
            px.compose(f, px.identity_path(pg, (2, 0, 1)))
        with pytest.raises(px.CompositionError):
            px.compose(px.inverse(f), px.identity_path(pg, (2, 1, 0)))


@pytest.fixture(scope="module")
def b3plus_unit(b3plus_completed):
    """The completed B3+ rules plus the unit rule s -> 1, whose reverse
    steps insert an s anywhere."""
    p31, _ = b3plus_completed
    base = p31.base
    return px.Polygraph2(base.generators, base.rules + [px.Rule("unit", (0,), ())])


@pytest.fixture(scope="module")
def shortlex_systems():
    """The shortlex completions of W(D4) and W(H4) as monoids."""
    out = []
    for name in ("D4", "H4"):
        p = ser.polygraph2_from_dict(coxeter_monoid(name))
        out.append(px.homotopical_complete(p, px.Deglex((0, 1, 2, 3))).base)
    return out


@st.composite
def weight_lowering_rules(draw):
    """Rules over a, b, c, each of which lowers the weight of a word with
    a = 1, b = 2, c = 16, so every reduction ends.  At least one rhs is
    empty, one shorter than its lhs (letters no heavier than the lhs's
    lightest) and one longer (letters a and b, with a c in the lhs)."""
    word = lambda lo, hi, top=2: st.lists(st.integers(0, top), min_size=lo, max_size=hi)  # noqa: E731
    kinds = ["empty", "shorter", "longer"]
    kinds += draw(st.lists(st.sampled_from(kinds), max_size=3))
    rules = []
    for kind in draw(st.permutations(kinds)):
        if kind == "empty":
            lhs, rhs = draw(word(1, 3)), []
        elif kind == "shorter":
            lhs = draw(word(2, 4))
            rhs = draw(word(1, len(lhs) - 1, min(lhs)))
        else:
            lhs = draw(word(0, 2))
            lhs.insert(draw(st.integers(0, len(lhs))), 2)
            rhs = draw(word(len(lhs) + 1, len(lhs) + 2, 1))
        rules.append(px.Rule(f"r{len(rules)}", lhs, rhs))
    return px.Polygraph2("abc", rules)


class TestReferenceKernels:
    """The rewriting kernels against their earlier forms in oracles.py."""

    @given(weight_lowering_rules(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_normalize_long_words(self, pg, data):
        # the word is rewritten in place as a list: only tuples may leave
        letters = st.integers(0, 2)
        long_word = st.lists(letters, min_size=60, max_size=90).map(tuple)
        memo, ref_memo = {}, {}
        for w in (data.draw(long_word), data.draw(st.lists(letters, max_size=90).map(tuple))):
            ref_nf, ref_path = oracles.reference_normalize(w, pg)
            n = len(ref_path.steps)
            for kwargs in ({}, {"memo": memo}, {"budget": n}):
                nf, path = px.normalize(w, pg, **kwargs)
                assert (nf, path.steps) == (ref_nf, ref_path.steps)
                assert type(nf) is tuple and type(path.target) is tuple and path.target == nf
            oracles.reference_normalize(w, pg, memo=ref_memo)
            if n:
                with pytest.raises(px.NonterminationError, match=f"within {n - 1} steps"):
                    px.normalize(w, pg, budget=n - 1)
        assert list(memo) == list(ref_memo) and memo == ref_memo
        assert all(type(k) is type(f.source) is type(f.target) is tuple for k, f in memo.items())

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_exchange_normal_form(self, b3plus_unit, data):
        pg = b3plus_unit
        f = random_path(pg, data, max_len=10)
        g = random_path(pg, data, max_len=10, source=f.target)
        lengths = pg.rule_lengths
        for p in (f, px.compose(f, g), px.compose(px.compose(f, g), px.inverse(g))):
            got = _exchange_normal_form(lengths, p.steps)
            ref = oracles.reference_exchange_normal_form(lengths, p.steps)
            assert got == ref and (got is p.steps) == (ref is p.steps)
            assert all(type(s) is Step2 for s in got)

    def test_rewrite_checked_against_rule(self):
        # a stale automaton reports rule 0 on "b"; the rewrite, not the scan,
        # decides, so normalize raises as it did through apply_step
        p = px.Polygraph2(["a", "b"], [px.Rule("r", (0,), ())])
        stale = [px.Rule("z", (1,), ())]
        p._automaton = LhsAutomaton(stale, 2)
        stale_ac = oracles.reference_automaton(stale)
        reference = functools.partial(oracles.reference_normalize, ac=stale_ac)
        for normalize in (px.normalize, reference):
            with pytest.raises(px.StepError, match=r"rule 'r' \(forward\) does not match"):
                normalize((1,), p)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_normalize(self, shortlex_systems, data):
        pg = data.draw(st.sampled_from(shortlex_systems))
        words = st.lists(st.integers(0, 3), max_size=24).map(tuple)
        memo, ref_memo = {}, {}
        for w in data.draw(st.lists(words, min_size=1, max_size=6)):
            nf, path = px.normalize(w, pg)
            ref_nf, ref_path = oracles.reference_normalize(w, pg)
            assert (nf, path.steps) == (ref_nf, ref_path.steps)
            assert all(type(s) is Step2 for s in path.steps)
            # a word along the reduction first, so that w's reduction meets
            # the memo halfway
            chain = replayed(path).words()
            for u in (chain[data.draw(st.integers(0, len(chain) - 1))], w):
                nf, path = px.normalize(u, pg, memo=memo)
                ref_nf, ref_path = oracles.reference_normalize(u, pg, memo=ref_memo)
                assert (nf, path.steps, path.target) == (ref_nf, ref_path.steps, ref_path.target)
        assert memo == ref_memo
        assert list(memo) == list(ref_memo)
        assert all(memo[k].target == ref_memo[k].target for k in memo)
