import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polycox as px
from polycox.paths import Path2, Step2


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
                a1, b1 = path.io_lengths(s1)
                a2, b2 = path.io_lengths(s2)
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


@pytest.fixture(scope="module")
def core_polygraphs(b3plus_completed, groups):
    """The completed B3+ presentation and S(Gar_2(A2)), both convergent."""
    p31, _ = b3plus_completed
    return [p31.base, px.complete_garside(groups("A2")).p31.base]


def replayed(p):
    """The same 2-cell rebuilt through the public, replaying constructor."""
    return Path2(p.pg, p.source, p.steps)


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

    def test_compose_mismatch_with_carried_target(self, pg):
        f = px.whisker((2,), Path2(pg, (0, 1), [Step2(0, 1, 0)]), ())
        assert f.target == (2, 1, 0)
        with pytest.raises(px.CompositionError):
            px.compose(f, px.identity_path(pg, (2, 0, 1)))
        with pytest.raises(px.CompositionError):
            px.compose(px.inverse(f), px.identity_path(pg, (2, 1, 0)))
