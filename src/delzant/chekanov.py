"""Product-torus classification in the orthant.

A torus with positive parameters (a_1, ..., a_N) is classified by the
minimal entry, its multiplicity and the subgroup generated by the excess
distances.  Equivalences are realized constructively by words in two
moves, each replayable as a symmetric probe of the orthant: coordinate
swaps, and the three-coordinate move

    (a_i, a_j, a_k) -> (a_k, a_j + a_k - a_i, a_i)      (a_i < a_j)

which acts on the excess vector as the elementary shear.  Both moves are
involutions on tuples, so words reverse move by move.

Words are built and replayed on int rows over one `lattice.Grid`, and each
move of a cross-checked replay is checked against its orthant probe through
the probe layer's own end-finder; scalars are built only for the tuple a
replay returns.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import astuple, dataclass
from operator import add, mul, ne

from . import lattice, probe
from .errors import (
    LengthMismatch,
    NonPositiveEntry,
    NotEquivalent,
    PreconditionViolated,
    SelfCheckFailed,
    WordSearchExhausted,
)
from .lattice import ExactScalar, GammaLattice, Grid, Record, _sign
from .polytope import DelzantPolytope, as_point


@dataclass(frozen=True)
class ReducedVector(Record):
    d: ExactScalar
    mult: int
    entries: tuple  # sorted positive excesses


class _Move:
    """A move, written as its lower-case name and its indices."""

    def to_json(self):
        return [type(self).__name__.lower(), *astuple(self)]


@dataclass(frozen=True)
class Swap(_Move):
    i: int
    j: int


@dataclass(frozen=True)
class Elswap(_Move):
    i: int
    j: int
    k: int


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


def _shared_gamma(fa, fb):
    """The excess subgroup of fa when the product tori fa and fb share the
    complete invariant (d, multiplicity, excess subgroup), else None."""
    if len(fa.ell) != len(fb.ell):
        raise LengthMismatch(f"lengths {len(fa.ell)} and {len(fb.ell)}")
    if fa.d == fb.d and len(fa.active) == len(fb.active):
        g = fa.gamma()
        if g == fb.gamma():
            return g
    return None


def equivalent(a, b) -> bool:
    """Equality of the complete invariant (d, multiplicity, excess subgroup)."""
    return _shared_gamma(_fibre(a), _fibre(b)) is not None


def integral_affine_length(entries) -> ExactScalar:
    """The g with entries = g * (primitive integer vector); rank-one only."""
    vals = _positive(entries)
    return GammaLattice(vals).generator()


# -- move replay on packed rows -----------------------------------------------
#
# A state is its tuple packed on one `lattice.Grid`, the row of 2n ints
# (a_1, ..., a_n, b_1, ..., b_n).  A move only forms sums of entries, so
# every state a word reaches stays on the grid of its start; entries
# compare by `_sign` and are equal when their (a, b) pairs are.


def _less(row, s, t, D):
    """Whether entry s of the packed row lies below entry t."""
    n = len(row) // 2
    return _sign(row[s] - row[t], row[n + s] - row[n + t], D) < 0


def _entries(row):
    """The (a, b) pairs of a packed row, one per entry."""
    n = len(row) // 2
    return list(zip(row[:n], row[n:]))


def _apply(row, move, index, D):
    """Apply the move to the packed row in place."""
    n = len(row) // 2
    if isinstance(move, Swap):
        i, j = move.i, move.j
        if i == j or not (0 <= i < n) or not (0 <= j < n):
            raise PreconditionViolated(index, f"bad swap indices at move {index}")
        row[i], row[j], row[n + i], row[n + j] = row[j], row[i], row[n + j], row[n + i]
        return
    i, j, k = move.i, move.j, move.k
    if len({i, j, k}) != 3 or not (0 <= i < n and 0 <= j < n and 0 <= k < n):
        raise PreconditionViolated(index, f"bad elswap indices at move {index}")
    if not _less(row, i, j, D):
        # entry uniqueness of the probe in direction e_i + e_j - e_k
        raise PreconditionViolated(
            index, f"elswap needs a[{i}] < a[{j}] at move {index}"
        )
    for h in (0, n):
        ai, aj, ak = row[h + i], row[h + j], row[h + k]
        row[h + i], row[h + j], row[h + k] = ak, aj + ak - ai, ai


@functools.cache
def _direction(n, move):
    """The `probe._Direction` of the move's orthant probe in dimension n:
    e_i - e_j for a swap, e_i + e_j - e_k for an elswap."""
    v = [0] * n
    if isinstance(move, Swap):
        v[move.i], v[move.j] = 1, -1
    else:
        v[move.i], v[move.j], v[move.k] = 1, 1, -1
    return probe._Direction(tuple(v), lattice.identity(n))


def _probe_check(before, after, move, index, D):
    """Check that the move takes the packed row `before` to `after` as its
    orthant probe does.

    On the orthant l(x) = x, so the row is the distance row that
    `probe._end` reads, and the partner of x is x + (l_exit - l_entry) * v.
    """
    n = len(before) // 2
    d = _direction(n, move)
    exit_ = probe._end(before, d, d.exits, D)
    entry = probe._end(before, d, d.entries, D)
    sa = before[exit_] - before[entry]
    sb = before[n + exit_] - before[n + entry]
    partner = map(add, before, map(mul, d.vv, (sa,) * n + (sb,) * n))
    if any(map(ne, partner, after)):
        raise SelfCheckFailed(f"move {index} disagrees with its orthant probe")


def _replay_row(row, moves, D, cross_check):
    """Apply the moves to the packed row in place, checking each against its
    probe when asked; a move that breaks its precondition raises before it
    is checked."""
    for index, move in enumerate(moves):
        before = tuple(row)
        _apply(row, move, index, D)
        if cross_check:
            _probe_check(before, row, move, index, D)


@functools.cache
def _orthant(n):
    return DelzantPolytope(n, [(e, 0) for e in lattice.identity(n)])


def replay(values, word: ProbeWord):
    """Apply a move word, verifying each move against its orthant probe."""
    vals = _positive(values)
    grid = Grid(vals)
    row = list(grid.pack(vals))
    _replay_row(row, word.moves, grid.D, True)
    return grid.unpack(row)


# -- word construction --------------------------------------------------------


def _sort_word(row, D):
    """Selection-sort swaps bringing the packed row to ascending order."""
    moves = []
    n = len(row) // 2
    for i in range(n):
        m = i
        for t in range(i + 1, n):
            if _less(row, t, m, D):
                m = t
        if m != i:
            move = Swap(i, m)
            _apply(row, move, -1, D)
            moves.append(move)
    return moves


def _euclid_word(row, D):
    """Word bringing the packed row to (d,...,d, d+g,...,d+g) sorted
    ascending, with the row it reaches.

    Subtractive Euclid on the excesses: reduce the current maximum against
    the current minimum through the three-coordinate move anchored at a
    minimal slot.  Terminates whenever all excess ratios are rational.
    """
    state = list(row)
    word = _sort_word(state, D)
    d = _entries(state)[0]
    while True:
        entries = _entries(state)
        # excesses v - d order as the entries do; ties go to the first index
        others = [t for t, e in enumerate(entries) if e != d]
        if not others:
            break
        i = j = others[0]
        for t in others[1:]:
            if _less(state, t, i, D):
                i = t
            elif _less(state, j, t, D):
                j = t
        if entries[i] == entries[j]:
            break
        move = Elswap(i, j, entries.index(d))
        _apply(state, move, -1, D)
        word.append(move)
    word.extend(_sort_word(state, D))
    return word, tuple(state)


_WORD_SEARCH_CAP = 20000


def _bfs_word(a, b, cap, D):
    """Bounded breadth-first search over packed rows for the irrational case."""
    n = len(a) // 2
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
                _apply(state, move, -1, D)
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
    The words are built on packed rows over one grid of both tuples.
    """
    fa, fb = _fibre(a), _fibre(b)
    g = _shared_gamma(fa, fb)
    if g is None:
        raise NotEquivalent("the tuples have different invariants")
    grid = Grid(fa.point, fb.point)
    D, ra, rb = grid.D, grid.pack(fa.point), grid.pack(fb.point)
    if ra == rb:
        return ProbeWord(())
    ea, eb = _entries(ra), _entries(rb)
    if sorted(ea) == sorted(eb):
        # pure permutation: realize by swaps only
        moves = []
        for i in range(len(eb)):
            if ea[i] != eb[i]:
                m = ea.index(eb[i], i + 1)
                moves.append(Swap(i, m))
                ea[i], ea[m] = ea[m], ea[i]
    elif g.rank <= 1:
        word_a, canon_a = _euclid_word(ra, D)
        word_b, canon_b = _euclid_word(rb, D)
        if canon_a != canon_b:
            raise SelfCheckFailed("equivalent tuples reached different canonical forms")
        moves = word_a + word_b[::-1]
    else:
        moves = _bfs_word(ra, rb, _WORD_SEARCH_CAP, D)
    state = list(ra)
    _replay_row(state, moves, D, False)
    if tuple(state) != rb:
        raise SelfCheckFailed("the word does not replay to the target tuple")
    return ProbeWord(tuple(moves))
