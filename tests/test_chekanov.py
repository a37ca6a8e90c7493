"""Product-torus classification: invariants, words, probe cross-checks."""

import itertools
import os
import random
import subprocess
import sys
import textwrap
from collections import deque
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from delzant import as_point, chekanov, probe, scalar
from delzant.chekanov import (
    Elswap,
    ProbeWord,
    ReducedVector,
    Swap,
    equivalent,
    gamma,
    integral_affine_length,
    probe_word,
    reduce,
    replay,
)
from delzant.errors import (
    LengthMismatch,
    NonPositiveEntry,
    NotEquivalent,
    PreconditionViolated,
    RankNotOne,
    SelfCheckFailed,
    WordSearchExhausted,
)
from delzant.lattice import GammaLattice, Grid


# -- brute-force oracle: GL(2,Z) word search --------------------------------


def _gl2_ball(start, radius):
    seen = {tuple(start): 0}
    queue = deque([tuple(start)])
    while queue:
        cur = queue.popleft()
        d = seen[cur]
        if d >= radius:
            continue
        x, y = cur
        for nxt in ((y, x), (x + y, y), (x - y, y)):
            if nxt not in seen:
                seen[nxt] = d + 1
                queue.append(nxt)
    return seen


def gl2_word_reachable(a, b, max_len):
    """Word search over swap and shear generators, meeting in the middle.

    The generator set is inverse-closed, so a ball around each endpoint
    decides reachability within max_len exactly.
    """
    a, b = tuple(sorted(a)), tuple(sorted(b))
    if a == b:
        return True
    half = (max_len + 1) // 2
    ball_a = _gl2_ball(a, half)
    ball_b = _gl2_ball(b, max_len - half)
    return any(p in ball_b for p in ball_a)


# -- reduce and gamma as they were before the orthant Fibre -----------------------


def _positive(values):
    out = as_point(values)
    if any(v.sign() <= 0 for v in out):
        raise NonPositiveEntry(f"entries must be positive, got {values}")
    return out


def reference_reduce(values) -> ReducedVector:
    vals = _positive(values)
    d = min(vals)
    excesses = sorted(v - d for v in vals if v != d)
    return ReducedVector(d, len(vals) - len(excesses), tuple(excesses))


def reference_gamma(values) -> GammaLattice:
    vals = _positive(values)
    d = min(vals)
    return GammaLattice([v - d for v in vals])


def reference_equivalent(a, b) -> bool:
    ra, rb = reference_reduce(a), reference_reduce(b)
    return (ra.d, ra.mult, reference_gamma(a)) == (rb.d, rb.mult, reference_gamma(b))


# entries from few values over Q(sqrt 2), so that ties and equal invariants occur
_entries = st.builds(
    lambda r, q: scalar(r, q, 2),
    st.sampled_from((Fraction(1, 2), 1, 2, 3)),
    st.sampled_from((0, 0, 1, Fraction(1, 2))),
)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(*[st.lists(_entries, min_size=n, max_size=n)] * 2)
))
def test_against_the_references(pair):
    a, b = pair
    assert reduce(a) == reference_reduce(a)
    assert gamma(a) == reference_gamma(a)
    assert equivalent(a, b) == reference_equivalent(a, b)


@pytest.mark.parametrize("bad", [(1, 0, 2), (1, -1), (scalar(1, -1, 2), 3)])
def test_errors_match_the_references(bad):
    for call in (reduce, gamma, reference_reduce, lambda v: equivalent(v, v)):
        with pytest.raises(NonPositiveEntry) as got:
            call(bad)
        assert str(got.value) == f"entries must be positive, got {bad}"


class TestReduce:
    def test_examples(self):
        r = reduce((1, 2, 3))
        assert (r.d, r.mult, r.entries) == (scalar(1), 1, as_point((1, 2)))
        r = reduce((1, 1, 1))
        assert (r.d, r.mult, r.entries) == (scalar(1), 3, ())
        r = reduce((Fraction(1, 2), Fraction(4, 5), Fraction(17, 10)))
        assert r.d == scalar(Fraction(1, 2))
        assert r.mult == 1
        assert r.entries == as_point((Fraction(3, 10), Fraction(6, 5)))

    def test_positive_required(self):
        with pytest.raises(NonPositiveEntry):
            reduce((1, 0, 2))


class TestEquivalent:
    def test_examples(self):
        assert equivalent((1, 2, 3), (1, 2, 5))
        assert not equivalent((1, 2, 3), (1, 3, 5))  # Z vs 2Z excess lattice

    def test_quadratic_field(self):
        s2 = scalar(0, 1, 2)
        # Z<sqrt2, 2> has even rational parts, so adjoining 1+sqrt2 changes it
        assert not equivalent((1, 1 + s2, 3), (1, 2 + s2, 1 + 2 * s2))
        # a genuine GL(2,Z) image: (sqrt2, 2) -> (sqrt2, 2 + sqrt2)
        assert equivalent((1, 1 + s2, 3), (1, 1 + s2, 3 + s2))
        assert equivalent((1, 1 + s2, 3), (1, 3, 1 + s2))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            equivalent((1, 2), (1, 2, 3))

    def test_equivalence_relation(self):
        rng = random.Random(67)
        tuples = [
            tuple(Fraction(rng.randint(1, 12), rng.randint(1, 4)) for _ in range(3))
            for _ in range(60)
        ]
        for a in tuples[:20]:
            assert equivalent(a, a)
        for a, b in zip(tuples, tuples[1:]):
            assert equivalent(a, b) == equivalent(b, a)
        for a, b, c in zip(tuples, tuples[1:], tuples[2:]):
            if equivalent(a, b) and equivalent(b, c):
                assert equivalent(a, c)


class TestIntegralAffineLength:
    def test_examples(self):
        assert integral_affine_length((2, 4)) == scalar(2)
        assert integral_affine_length((Fraction(3, 10), Fraction(6, 5))) == scalar(
            Fraction(3, 10)
        )
        s2 = scalar(0, 1, 2)
        assert integral_affine_length((s2, 2 * s2)) == s2

    def test_rank_errors(self):
        # the rank is checked once, by GammaLattice.generator
        with pytest.raises(RankNotOne, match="rank 2"):
            integral_affine_length((1, scalar(0, 1, 2)))
        with pytest.raises(RankNotOne):
            integral_affine_length(())


class TestReplay:
    def test_elswap_formula(self):
        assert replay((1, 2, 3), ProbeWord((Elswap(0, 1, 2),))) == as_point((3, 4, 1))

    def test_swap(self):
        assert replay((1, 3), ProbeWord((Swap(0, 1),))) == as_point((3, 1))

    def test_two_step(self):
        word = ProbeWord((Elswap(0, 1, 2), Swap(0, 2)))
        assert replay((1, 2, 2), word) == as_point((1, 3, 2))

    def test_precondition(self):
        with pytest.raises(PreconditionViolated) as err:
            replay((2, 1, 3), ProbeWord((Elswap(0, 1, 2),)))
        assert err.value.index == 0

    def test_moves_are_involutions(self):
        rng = random.Random(71)
        for _ in range(50):
            a = tuple(Fraction(rng.randint(1, 9)) for _ in range(4))
            i, j, k = rng.sample(range(4), 3)
            if a[i] == a[j]:
                continue
            if a[i] > a[j]:
                i, j = j, i
            word = ProbeWord((Elswap(i, j, k), Elswap(i, j, k)))
            assert replay(a, word) == as_point(a)

    def test_cross_checked_against_probes(self):
        # replay checks every move against its orthant probe
        rng = random.Random(73)
        for _ in range(20):
            a = tuple(Fraction(rng.randint(1, 6), rng.randint(1, 2))
                      for _ in range(3))
            for i, j, k in itertools.permutations(range(3)):
                if a[i] < a[j]:
                    replay(a, ProbeWord((Elswap(i, j, k),)))


class TestReplayWork:
    """A cross-checked replay applies each move once and checks it once
    against its orthant probe, on packed rows: no scalar probe is shot."""

    def _counted(self, monkeypatch):
        calls = {"apply": 0, "check": 0, "shoot": 0}

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(chekanov, "_apply", counting("apply", chekanov._apply))
        monkeypatch.setattr(
            chekanov, "_probe_check", counting("check", chekanov._probe_check)
        )
        monkeypatch.setattr(probe, "shoot", counting("shoot", probe.shoot))
        return calls

    def test_one_apply_and_one_shot_per_move(self, monkeypatch):
        calls = self._counted(monkeypatch)
        word = ProbeWord((Elswap(0, 1, 2), Swap(0, 2), Elswap(2, 1, 0), Swap(1, 2)))
        assert replay((1, 2, 3), word) == as_point((3, 1, 2))
        assert calls == {"apply": 4, "check": 4, "shoot": 0}
        unchecked_replay((1, 2, 3), word)
        assert calls == {"apply": 8, "check": 4, "shoot": 0}

    def test_broken_second_move_raises_after_one_shot(self, monkeypatch):
        calls = self._counted(monkeypatch)
        # (1, 2, 3) -> (3, 4, 1), where a[0] < a[2] fails
        word = ProbeWord((Elswap(0, 1, 2), Elswap(0, 2, 1)))
        with pytest.raises(PreconditionViolated) as err:
            replay((1, 2, 3), word)
        assert err.value.index == 1
        assert calls == {"apply": 2, "check": 1, "shoot": 0}


# -- the scalar replay and words as they were before packed rows ---------------


def reference_apply(state, move, index):
    if isinstance(move, Swap):
        i, j = move.i, move.j
        if i == j or not (0 <= i < len(state)) or not (0 <= j < len(state)):
            raise PreconditionViolated(index, f"bad swap indices at move {index}")
        state[i], state[j] = state[j], state[i]
        return
    i, j, k = move.i, move.j, move.k
    if len({i, j, k}) != 3 or not all(0 <= t < len(state) for t in (i, j, k)):
        raise PreconditionViolated(index, f"bad elswap indices at move {index}")
    ai, aj, ak = state[i], state[j], state[k]
    if not ai < aj:
        raise PreconditionViolated(
            index, f"elswap needs a[{i}] < a[{j}] at move {index}"
        )
    state[i], state[j], state[k] = ak, aj + ak - ai, ai


def reference_probe_check(state, after, move):
    """Shoot the move's orthant probe on scalars and compare its partner."""
    n = len(state)
    orthant = chekanov._orthant(n)
    v = [0] * n
    if isinstance(move, Swap):
        if state[move.i] == state[move.j]:
            return  # midpoint probe: partner is the identity, as is the swap
        v[move.i], v[move.j] = 1, -1
    else:
        v[move.i], v[move.j], v[move.k] = 1, 1, -1
    sigma = probe.shoot(orthant, state, tuple(v))
    if after != probe.partner(sigma, state):
        raise AssertionError("move formula disagrees with the probe")


def unchecked_replay(values, word):
    """The replay without probe checks that ends `probe_word`."""
    vals = chekanov._positive(values)
    grid = Grid(vals)
    row = list(grid.pack(vals))
    chekanov._replay_row(row, word.moves, grid.D, False)
    return grid.unpack(row)


def reference_replay(values, word, cross_check=True):
    state = list(_positive(values))
    for index, move in enumerate(word.moves):
        before = tuple(state)
        reference_apply(state, move, index)
        if cross_check:
            reference_probe_check(before, tuple(state), move)
    return tuple(state)


def reference_sort_word(state):
    moves = []
    n = len(state)
    for i in range(n):
        m = min(range(i, n), key=lambda t: (state[t], t))
        if m != i:
            moves.append(Swap(i, m))
            state[i], state[m] = state[m], state[i]
    return moves


def reference_bfs_word(a, b, cap):
    n = len(a)
    moves = [Swap(i, j) for i in range(n) for j in range(i + 1, n)]
    moves += [Elswap(i, j, k) for i, j, k in itertools.permutations(range(n), 3)]
    parents = {tuple(a): None}
    queue = deque([tuple(a)])
    while queue:
        cur = queue.popleft()
        if cur == tuple(b):
            path = []
            while parents[cur] is not None:
                cur, move = parents[cur]
                path.append(move)
            return path[::-1]
        for move in moves:
            state = list(cur)
            try:
                reference_apply(state, move, -1)
            except PreconditionViolated:
                continue
            nxt = tuple(state)
            if nxt not in parents:
                if len(parents) >= cap:
                    raise WordSearchExhausted(
                        f"no word found within {cap} explored tuples"
                    )
                parents[nxt] = (cur, move)
                queue.append(nxt)
    raise WordSearchExhausted("search space exhausted without reaching the target")


def reference_probe_word(a, b):
    va, vb = _positive(a), _positive(b)
    if len(va) != len(vb):
        raise LengthMismatch(f"lengths {len(va)} and {len(vb)}")
    if not equivalent(va, vb):
        raise NotEquivalent("the tuples have different invariants")
    if va == vb:
        return ProbeWord(())
    if sorted(va) == sorted(vb):
        state = list(va)
        moves = []
        for i in range(len(vb)):
            if state[i] != vb[i]:
                m = next(t for t in range(i + 1, len(state)) if state[t] == vb[i])
                moves.append(Swap(i, m))
                state[i], state[m] = state[m], state[i]
        word = ProbeWord(tuple(moves))
    elif gamma(va).rank <= 1:
        word_a, canon_a = reference_euclid_word(va)
        word_b, canon_b = reference_euclid_word(vb)
        assert canon_a == canon_b
        word = ProbeWord(tuple(word_a + list(reversed(word_b))))
    else:
        word = ProbeWord(tuple(reference_bfs_word(va, vb, chekanov._WORD_SEARCH_CAP)))
    assert reference_replay(va, word, cross_check=False) == vb
    return word


def outcome(call, *args):
    """A call's value, or the type, message and move index of its error."""
    try:
        return call(*args)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc), getattr(exc, "index", None)


def packed_euclid_word(values):
    """`chekanov._euclid_word` on the packed row of a scalar tuple."""
    grid = Grid(values)
    word, row = chekanov._euclid_word(grid.pack(values), grid.D)
    return word, grid.unpack(row)


# -- the Euclid loop as it was, over the excess list v - d --------------------


def reference_euclid_word(values):
    state = list(values)
    word = reference_sort_word(state)
    d = state[0]
    while True:
        excesses = [(v - d, idx) for idx, v in enumerate(state) if v != d]
        if not excesses:
            break
        lo = min(e for e, _ in excesses)
        hi = max(e for e, _ in excesses)
        if lo == hi:
            break
        i = next(idx for e, idx in excesses if e == lo)
        j = next(idx for e, idx in excesses if e == hi)
        k = next(idx for idx, v in enumerate(state) if v == d)
        move = Elswap(i, j, k)
        reference_apply(state, move, -1)
        word.append(move)
    word.extend(reference_sort_word(state))
    return word, tuple(state)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from((1, 2, 3, Fraction(3, 2), Fraction(5, 2), 4, Fraction(7, 3))),
                min_size=1, max_size=6))
def test_euclid_word_matches_the_excess_loop(values):
    # few distinct values, so equal excesses (ties) are common
    values = as_point(values)
    assert packed_euclid_word(values) == reference_euclid_word(values)


# -- packed words against the scalar references, over Q(sqrt D) --------------

DISCS = (1, 2, 3, 5)


def _over(D):
    """Entries over Q(sqrt D) from few values, so that ties occur; a few
    are not positive."""
    return st.builds(
        lambda r, q: scalar(r, q, D),
        st.sampled_from((Fraction(1, 2), 1, 2, 3, 5)),
        st.sampled_from((0, 0, 1, 2, Fraction(1, 2), Fraction(-1, 2))),
    )


def _valid_word(draw, values, steps):
    """A word of random valid moves from values, with the tuple it reaches."""
    state = list(as_point(values))
    n = len(state)
    moves = []
    for _ in range(steps):
        options = [Swap(i, j) for i, j in itertools.combinations(range(n), 2)]
        options += [Elswap(i, j, k) for i, j, k in itertools.permutations(range(n), 3)
                    if state[i] < state[j]]
        move = draw(st.sampled_from(options))
        reference_apply(state, move, -1)
        moves.append(move)
    return ProbeWord(tuple(moves)), tuple(state)


@st.composite
def tuples_and_words(draw):
    """A tuple over Q(sqrt D) and a word of random moves, some of them with
    bad indices or a broken precondition, or of valid moves only."""
    D = draw(st.sampled_from(DISCS))
    n = draw(st.integers(1, 5))
    values = tuple(draw(st.lists(_over(D), min_size=n, max_size=n)))
    if n >= 2 and all(v.sign() > 0 for v in values) and draw(st.booleans()):
        return values, _valid_word(draw, values, draw(st.integers(0, 8)))[0]
    index = st.integers(0, n)  # n itself is out of range
    move = st.one_of(st.builds(Swap, index, index),
                     st.builds(Elswap, index, index, index))
    return values, ProbeWord(tuple(draw(st.lists(move, max_size=8))))


@settings(max_examples=300, deadline=None)
@given(tuples_and_words())
def test_replay_matches_the_scalar_replay(case):
    values, word = case
    assert outcome(replay, values, word) == outcome(reference_replay, values, word)
    assert (outcome(unchecked_replay, values, word)
            == outcome(reference_replay, values, word, False))


@st.composite
def rank_one_pairs(draw):
    """A tuple d + k_i g over Q(sqrt D) with rational k_i, so that its
    excess subgroup has rank <= 1, and the end of a random valid word."""
    D = draw(st.sampled_from(DISCS))
    n = draw(st.integers(2, 5))
    d = scalar(draw(st.sampled_from((Fraction(1, 2), 1, 2))),
               draw(st.sampled_from((0, 1, Fraction(1, 3)))), D)
    g = scalar(draw(st.sampled_from((Fraction(1, 3), 1, 2))),
               draw(st.sampled_from((0, 1, Fraction(1, 2)))), D)
    ks = draw(st.lists(st.sampled_from((0, 1, 2, 3, Fraction(1, 2), Fraction(5, 2))),
                       min_size=n, max_size=n))
    a = tuple(d + k * g for k in ks)
    return a, _valid_word(draw, a, draw(st.integers(0, 6)))[1]


@settings(max_examples=200, deadline=None)
@given(rank_one_pairs(), st.data())
def test_words_match_the_scalar_words(pair, data):
    a, b = pair
    assert packed_euclid_word(a) == reference_euclid_word(a)
    assert outcome(probe_word, a, b) == outcome(reference_probe_word, a, b)
    # a random second tuple: mostly NotEquivalent, sometimes another length
    D = max(s.D for s in a)
    other = tuple(data.draw(st.lists(_over(D), min_size=2, max_size=5)))
    assert outcome(probe_word, a, other) == outcome(reference_probe_word, a, other)


@st.composite
def rank_two_pairs(draw):
    """(d, d + u, d + w) with u, w independent over Q in Q(sqrt D), and the
    end of a short random valid word."""
    D = draw(st.sampled_from(DISCS[1:]))
    d = scalar(draw(st.sampled_from((Fraction(1, 2), 1, 2))), 0, D)
    r1, r2 = draw(st.sampled_from((0, 1, 2))), draw(st.sampled_from((1, 2, 3)))
    q1, q2 = draw(st.sampled_from((1, 2))), draw(st.sampled_from((0, 1)))
    assume(r1 * q2 != r2 * q1)
    u, w = scalar(r1, q1, D), scalar(r2, q2, D)
    a = draw(st.permutations((d, d + u, d + w)))
    return tuple(a), _valid_word(draw, a, draw(st.integers(0, 3)))[1]


@settings(max_examples=40, deadline=None)
@given(rank_two_pairs())
def test_bfs_words_match_the_scalar_search(pair):
    a, b = pair
    assert gamma(a).rank == 2
    grid = Grid(a, b)
    packed = outcome(chekanov._bfs_word, grid.pack(a), grid.pack(b), 3000, grid.D)
    assert packed == outcome(reference_bfs_word, a, b, 3000)
    assert outcome(probe_word, a, b) == outcome(reference_probe_word, a, b)


def test_a_wrong_elswap_formula_fails_the_packed_check(monkeypatch):
    real = chekanov._apply

    def wrong(row, move, index, D):
        if not isinstance(move, Elswap):
            return real(row, move, index, D)
        n = len(row) // 2
        i, j, k = move.i, move.j, move.k
        for h in (0, n):
            ai, aj, ak = row[h + i], row[h + j], row[h + k]
            row[h + i], row[h + j], row[h + k] = ak, aj + ai - ak, ai

    monkeypatch.setattr(chekanov, "_apply", wrong)
    word = ProbeWord((Elswap(0, 1, 2),))
    s2 = scalar(0, 1, 2)
    for values, wrong_end in (((2, 5, 3), (3, 4, 2)), ((1, 1 + s2, 3), (3, s2 - 1, 1))):
        # unchecked, the wrong formula goes through; checked, it cannot
        assert unchecked_replay(values, word) == as_point(wrong_end)
        with pytest.raises(SelfCheckFailed, match="move 0"):
            replay(values, word)


_OPTIMIZED_CHECKS = textwrap.dedent("""
    import sys
    from delzant import chekanov, scalar
    from delzant.chekanov import Elswap, ProbeWord
    from delzant.errors import SelfCheckFailed

    if not sys.flags.optimize:
        raise SystemExit("not run under -O")

    def raises(call, *args):
        try:
            call(*args)
        except SelfCheckFailed as exc:
            print(exc)
        else:
            print("passed silently")

    real_apply = chekanov._apply

    def wrong_apply(row, move, index, D):
        real_apply(row, move, index, D)
        row[0] += 1

    chekanov._apply = wrong_apply
    raises(chekanov.replay, (1, 2, 3), ProbeWord((Elswap(0, 1, 2),)))
    chekanov._apply = real_apply

    real_euclid = chekanov._euclid_word
    calls = []

    def euclid_off_by_one(row, D):
        word, canon = real_euclid(row, D)
        calls.append(row)
        return word, canon if len(calls) > 1 else (canon[0] + 1,) + canon[1:]

    chekanov._euclid_word = euclid_off_by_one
    raises(chekanov.probe_word, (1, 2, 3), (1, 2, 5))
    chekanov._euclid_word = real_euclid

    chekanov._bfs_word = lambda a, b, cap, D: []
    s2 = scalar(0, 1, 2)
    raises(chekanov.probe_word, (1, 1 + s2, 3), (3 + s2, 3, 1))
""")


def test_checks_raise_under_python_O():
    src = Path(__file__).resolve().parent.parent / "src"
    path = [str(src), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    done = subprocess.run([sys.executable, "-O", "-c", _OPTIMIZED_CHECKS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "move 0 disagrees with its orthant probe",
        "equivalent tuples reached different canonical forms",
        "the word does not replay to the target tuple",
    ]


class TestProbeWord:
    def test_identity(self):
        assert probe_word((1, 2, 3), (1, 2, 3)).moves == ()

    def test_single_swap(self):
        word = probe_word((1, 2, 3), (1, 3, 2))
        assert word.moves == (Swap(1, 2),)

    def test_chain(self):
        for k in range(3, 11):
            word = probe_word((1, 2, 3), (1, 2, k))
            assert replay((1, 2, 3), word) == as_point((1, 2, k))

    def test_not_equivalent(self):
        with pytest.raises(NotEquivalent):
            probe_word((1, 2, 3), (1, 3, 5))

    def test_roundtrip_random_words(self):
        # pairs generated by random words always recover an exact word
        rng = random.Random(79)
        for _ in range(100):
            n = rng.randint(3, 4)
            a = tuple(Fraction(rng.randint(1, 6), rng.randint(1, 2))
                      for _ in range(n))
            state = list(as_point(a))
            for _ in range(rng.randint(1, 6)):
                moves = [Swap(i, j) for i in range(n) for j in range(n) if i < j]
                moves += [
                    Elswap(i, j, k)
                    for i, j, k in itertools.permutations(range(n), 3)
                    if state[i] < state[j]
                ]
                move = rng.choice(moves)
                state = list(replay(tuple(state), ProbeWord((move,))))
            b = tuple(state)
            word = probe_word(a, b)
            assert replay(as_point(a), word) == b

    def test_rank_two_bfs(self):
        s2 = scalar(0, 1, 2)
        a = (1, 1 + s2, 3)
        b = replay(a, ProbeWord((Elswap(0, 1, 2), Swap(0, 1))))
        word = probe_word(a, b)
        assert replay(as_point(a), word) == b


class TestOracleAgreement:
    def test_exhaustive_small_pairs(self):
        # the excess-lattice decision agrees with a complete word search
        # (radius 17 covers every pair with entries <= 10; measured bound)
        rng = random.Random(83)
        for _ in range(100):
            pair_a = (rng.randint(1, 10), rng.randint(1, 10))
            pair_b = (rng.randint(1, 10), rng.randint(1, 10))
            a = (1, 1 + pair_a[0], 1 + pair_a[1])
            b = (1, 1 + pair_b[0], 1 + pair_b[1])
            decision = equivalent(a, b)
            searched = gl2_word_reachable(pair_a, pair_b, 17)
            assert decision == searched, (pair_a, pair_b)
