"""Product-torus classification in the orthant.

A torus with positive parameters (a_1, ..., a_N) is classified by the
minimal entry, its multiplicity and the subgroup generated by the excess
distances.  Equivalences are realized constructively by words in two
moves, each replayable as a symmetric probe of the orthant: coordinate
swaps, and the three-coordinate move

    (a_i, a_j, a_k) -> (a_k, a_j + a_k - a_i, a_i)      (a_i < a_j)

which acts on the excess vector as the elementary shear.  Both moves are
involutions on tuples, so words reverse move by move.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass

from . import lattice
from .errors import (
    LengthMismatch,
    NonPositiveEntry,
    NotEquivalent,
    PreconditionViolated,
    RankNotOne,
    WordSearchExhausted,
)
from .lattice import ExactScalar, GammaLattice
from .polytope import DelzantPolytope, as_point


@dataclass(frozen=True)
class ReducedVector:
    d: ExactScalar
    mult: int
    entries: tuple  # sorted positive excesses

    def to_json(self):
        return {
            "d": str(self.d),
            "mult": self.mult,
            "entries": [str(e) for e in self.entries],
        }


@dataclass(frozen=True)
class Swap:
    i: int
    j: int

    def to_json(self):
        return ["swap", self.i, self.j]


@dataclass(frozen=True)
class Elswap:
    i: int
    j: int
    k: int

    def to_json(self):
        return ["elswap", self.i, self.j, self.k]


@dataclass(frozen=True)
class ProbeWord:
    moves: tuple

    def __len__(self):
        return len(self.moves)

    def to_json(self):
        return [m.to_json() for m in self.moves]


def _positive(values):
    out = as_point(values)
    if any(v.sign() <= 0 for v in out):
        raise NonPositiveEntry(f"entries must be positive, got {values}")
    return out


def _fibre(values):
    """The product torus with these parameters, as the orthant fibre at them."""
    vals = _positive(values)
    return _orthant(len(vals)).fibre(vals)


def reduce(values) -> ReducedVector:
    """Normal form data: minimum, multiplicity, sorted positive excesses."""
    f = _fibre(values)
    return ReducedVector(f.d, len(f.active), f.reduced())


def gamma(values) -> GammaLattice:
    return _fibre(values).gamma()


def equivalent(a, b) -> bool:
    """Equality of the complete invariant (d, multiplicity, excess subgroup)."""
    fa, fb = _fibre(a), _fibre(b)
    if len(fa.ell) != len(fb.ell):
        raise LengthMismatch(f"lengths {len(fa.ell)} and {len(fb.ell)}")
    return fa.d == fb.d and len(fa.active) == len(fb.active) and fa.gamma() == fb.gamma()


def integral_affine_length(entries) -> ExactScalar:
    """The g with entries = g * (primitive integer vector); rank-one only."""
    vals = _positive(entries)
    lat = GammaLattice(vals)
    if lat.rank != 1:
        raise RankNotOne(f"excess subgroup has rank {lat.rank}")
    return lat.generator()


# -- move replay -------------------------------------------------------------


def _apply(state, move, index):
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
        # entry uniqueness of the probe in direction e_i + e_j - e_k
        raise PreconditionViolated(
            index, f"elswap needs a[{i}] < a[{j}] at move {index}"
        )
    state[i], state[j], state[k] = ak, aj + ak - ai, ai


def _probe_check(state, after, move):
    """Check that the move takes state to after as its orthant probe does."""
    from . import probe as probe_mod

    n = len(state)
    orthant = _orthant(n)
    v = [0] * n
    if isinstance(move, Swap):
        if state[move.i] == state[move.j]:
            return  # midpoint probe: partner is the identity, as is the swap
        v[move.i], v[move.j] = 1, -1
    else:
        v[move.i], v[move.j], v[move.k] = 1, 1, -1
    sigma = probe_mod.shoot(orthant, state, tuple(v))
    assert after == probe_mod.partner(sigma, state), "move formula disagrees with the probe"


@functools.cache
def _orthant(n):
    return DelzantPolytope(n, [(e, 0) for e in lattice.identity(n)])


def replay(values, word: ProbeWord, cross_check: bool = True):
    """Apply a move word, optionally verifying each move against a probe;
    a move that breaks its precondition raises before it is shot."""
    state = list(_positive(values))
    for index, move in enumerate(word.moves):
        before = tuple(state)
        _apply(state, move, index)
        if cross_check:
            _probe_check(before, tuple(state), move)
    return tuple(state)


# -- word construction --------------------------------------------------------


def _sort_word(state):
    """Selection-sort swaps bringing the state to ascending order."""
    moves = []
    n = len(state)
    for i in range(n):
        m = min(range(i, n), key=lambda t: (state[t], t))
        if m != i:
            moves.append(Swap(i, m))
            state[i], state[m] = state[m], state[i]
    return moves


def _euclid_word(values):
    """Word bringing the tuple to (d,...,d, d+g,...,d+g) sorted ascending.

    Subtractive Euclid on the excesses: reduce the current maximum against
    the current minimum through the three-coordinate move anchored at a
    minimal slot.  Terminates whenever all excess ratios are rational.
    """
    state = list(values)
    word = _sort_word(state)
    d = state[0]
    while True:
        # excesses v - d order as the entries do; ties go to the first index
        others = [idx for idx, v in enumerate(state) if v != d]
        if not others:
            break
        i = min(others, key=state.__getitem__)
        j = max(others, key=state.__getitem__)
        if state[i] == state[j]:
            break
        move = Elswap(i, j, state.index(d))
        _apply(state, move, -1)
        word.append(move)
    word.extend(_sort_word(state))
    return word, tuple(state)


_WORD_SEARCH_CAP = 20000


def _bfs_word(a, b, cap):
    """Bounded breadth-first search over tuples for the irrational case."""
    n = len(a)
    moves = [Swap(i, j) for i in range(n) for j in range(i + 1, n)]
    moves += [
        Elswap(i, j, k)
        for i in range(n)
        for j in range(n)
        for k in range(n)
        if len({i, j, k}) == 3
    ]
    start = tuple(a)
    target = tuple(b)
    parents = {start: None}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        if cur == target:
            path = []
            node = cur
            while parents[node] is not None:
                prev, move = parents[node]
                path.append(move)
                node = prev
            return list(reversed(path))
        for move in moves:
            state = list(cur)
            try:
                _apply(state, move, -1)
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


def probe_word(a, b) -> ProbeWord:
    """A move word with replay(a, word) == b, for equivalent tuples.

    Rational excess lattices go through the subtractive-Euclid canonical
    form; both moves are involutions, so the b-side word reverses move by
    move.  Rank >= 2 lattices fall back to bounded search and may fail.
    """
    va, vb = _positive(a), _positive(b)
    if len(va) != len(vb):
        raise LengthMismatch(f"lengths {len(va)} and {len(vb)}")
    if not equivalent(va, vb):
        raise NotEquivalent("the tuples have different invariants")
    if va == vb:
        return ProbeWord(())
    if sorted(va) == sorted(vb):
        # pure permutation: realize by swaps only
        state = list(va)
        moves = []
        for i in range(len(vb)):
            if state[i] != vb[i]:
                m = next(
                    t for t in range(i + 1, len(state)) if state[t] == vb[i]
                )
                moves.append(Swap(i, m))
                state[i], state[m] = state[m], state[i]
        word = ProbeWord(tuple(moves))
    elif gamma(va).rank <= 1:
        word_a, canon_a = _euclid_word(va)
        word_b, canon_b = _euclid_word(vb)
        assert canon_a == canon_b, "equivalent tuples share the canonical form"
        word = ProbeWord(tuple(word_a + list(reversed(word_b))))
    else:
        word = ProbeWord(tuple(_bfs_word(va, vb, _WORD_SEARCH_CAP)))
    assert replay(va, word, cross_check=False) == vb
    return word
