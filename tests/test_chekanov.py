"""Product-torus classification: invariants, words, probe cross-checks."""

import itertools
import random
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import given, settings
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
)
from delzant.lattice import GammaLattice


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
        with pytest.raises(RankNotOne):
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
        # replay(..., cross_check=True) shoots every move in the orthant
        rng = random.Random(73)
        for _ in range(20):
            a = tuple(Fraction(rng.randint(1, 6), rng.randint(1, 2))
                      for _ in range(3))
            for i, j, k in itertools.permutations(range(3)):
                if a[i] < a[j]:
                    replay(a, ProbeWord((Elswap(i, j, k),)), cross_check=True)


class TestReplayWork:
    """A cross-checked replay applies each move once and shoots it once."""

    def _counted(self, monkeypatch):
        calls = {"apply": 0, "shoot": 0}

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(chekanov, "_apply", counting("apply", chekanov._apply))
        monkeypatch.setattr(probe, "shoot", counting("shoot", probe.shoot))
        return calls

    def test_one_apply_and_one_shot_per_move(self, monkeypatch):
        calls = self._counted(monkeypatch)
        word = ProbeWord((Elswap(0, 1, 2), Swap(0, 2), Elswap(2, 1, 0), Swap(1, 2)))
        assert replay((1, 2, 3), word) == as_point((3, 1, 2))
        assert calls == {"apply": 4, "shoot": 4}
        replay((1, 2, 3), word, cross_check=False)
        assert calls == {"apply": 8, "shoot": 4}

    def test_broken_second_move_raises_after_one_shot(self, monkeypatch):
        calls = self._counted(monkeypatch)
        # (1, 2, 3) -> (3, 4, 1), where a[0] < a[2] fails
        word = ProbeWord((Elswap(0, 1, 2), Elswap(0, 2, 1)))
        with pytest.raises(PreconditionViolated) as err:
            replay((1, 2, 3), word)
        assert err.value.index == 1
        assert calls == {"apply": 2, "shoot": 1}


# -- the Euclid loop as it was, over the excess list v - d --------------------


def reference_euclid_word(values):
    state = list(values)
    word = chekanov._sort_word(state)
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
        chekanov._apply(state, move, -1)
        word.append(move)
    word.extend(chekanov._sort_word(state))
    return word, tuple(state)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from((1, 2, 3, Fraction(3, 2), Fraction(5, 2), 4, Fraction(7, 3))),
                min_size=1, max_size=6))
def test_euclid_word_matches_the_excess_loop(values):
    # few distinct values, so equal excesses (ties) are common
    values = as_point(values)
    assert chekanov._euclid_word(values) == reference_euclid_word(values)


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
                state_t = replay(tuple(state), ProbeWord((move,)),
                                 cross_check=False)
                state = list(state_t)
            b = tuple(state)
            word = probe_word(a, b)
            assert replay(as_point(a), word, cross_check=False) == b

    def test_rank_two_bfs(self):
        s2 = scalar(0, 1, 2)
        a = (1, 1 + s2, 3)
        b = replay(a, ProbeWord((Elswap(0, 1, 2), Swap(0, 1))), cross_check=False)
        word = probe_word(a, b)
        assert replay(as_point(a), word, cross_check=False) == b


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
