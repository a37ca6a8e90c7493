"""Exact arithmetic over Q(sqrt(D)) and integer-lattice linear algebra.

Scalars are elements (a + b*sqrt(D)) / c stored as four ints, with D a
fixed square-free integer (D = 1 collapses to plain Q).  All comparisons
are decided exactly; no floating point enters any computation.  Integer
vectors and matrices are plain tuples of rows.  One row Hermite form,
`row_hnf`, with its unimodular transform gives canonical lattice bases,
integer kernels and integer linear solving.  `to_json` and `Record` are the
one JSON encoding of library values.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import operator
import re
import sys
from fractions import Fraction

from .errors import (
    DimensionMismatch, NotUnimodular, RankNotOne, SelfCheckFailed, ZeroVector,
)


# The largest field discriminant taken: `is_squarefree` trial-divides up to
# sqrt(D), so this bound keeps that under 10**5 steps.
MAX_DISC = 10**10


def is_squarefree(n: int) -> bool:
    """Whether n >= 1 is square-free; ValueError above MAX_DISC."""
    if n > MAX_DISC:
        raise ValueError(f"field discriminant {n} exceeds the bound {MAX_DISC}")
    if n < 1:
        return False
    p = 2
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        p += 1
    return True


_VALID_DISCS = {1}
_HASH_MODULUS = sys.hash_info.modulus


# INT | INT/INT | RAT+RAT√D | RAT-RAT√D, with `sqrt` accepted for `√`; a
# denominator is a positive integer, so 1/0 is no scalar, and digits and
# the padding around a scalar are ASCII (the characters \s and \x1c-\x1f
# that `str.isspace` takes), so ٢ is none and an ideographic space no pad
_SCALAR_RE = re.compile(
    r"[\s\x1c-\x1f]*(?P<rat>-?\d+(?:/0*[1-9]\d*)?)"
    r"(?:(?P<quad>[+-]\d+(?:/0*[1-9]\d*)?)(?:√|sqrt)(?P<disc>\d+))?[\s\x1c-\x1f]*",
    re.ASCII,
)


def _ratio(value):
    """(numerator, denominator) of an exact rational value: an int, a
    Fraction or an INT | INT/INT text.  Floats are refused, because their
    binary expansions would enter exact decisions unseen, and so are bools,
    which JSON and the CLI grammar keep apart from numbers."""
    kind = type(value)
    if kind is int:
        return value, 1
    if isinstance(value, str):
        m = _SCALAR_RE.fullmatch(value)
        if m is None or m["quad"]:
            raise ValueError(f"bad rational {value!r}")
        num, _, den = m["rat"].partition("/")
        return int(num), int(den or 1)
    if kind is not Fraction:
        if isinstance(value, (float, bool)):
            raise TypeError(f"a {type(value).__name__} is not an exact scalar: {value!r}")
        value = Fraction(value)
    return value.numerator, value.denominator


@functools.lru_cache(maxsize=1024)
def _hash_inverse(c):
    """1/c modulo the numeric hash modulus; 0 when c is a multiple of it."""
    return pow(c, -1, _HASH_MODULUS) if c % _HASH_MODULUS else 0


def _ratio_str(n, d):
    """n/d in lowest terms, written as str(Fraction(n, d)) writes it."""
    g = math.gcd(n, d)
    n, d = n // g, d // g
    return str(n) if d == 1 else f"{n}/{d}"


def _join(D, E):
    """The field of a result with operands in Q(sqrt(D)) and Q(sqrt(E))."""
    if E == 1 or E == D:
        return D
    if D == 1:
        return E
    raise ValueError(f"mixed quadratic fields sqrt({D}) and sqrt({E})")


def _sign(a, b, D):
    """The sign of a + b*sqrt(D) for ints a, b."""
    if not b:
        return (a > 0) - (a < 0)
    if not a or (a > 0) == (b > 0):
        return 1 if b > 0 else -1
    # Opposite signs: |a| vs |b| sqrt(D) decided by squaring.
    t = a * a - b * b * D
    if not t:
        raise SelfCheckFailed("square-free D cannot make a + b*sqrt(D) vanish")
    return (1 if a > 0 else -1) if t > 0 else (1 if b > 0 else -1)


class ExactScalar:
    """An element (a + b*sqrt(D)) / c of Q(sqrt(D)) with exact total order.

    a, b, c and D are ints kept canonical: c > 0, gcd(a, b, c) = 1, and
    b == 0 forces D == 1, so equal numbers have equal fields and hash
    consistently.  `rat` = a/c and `quad` = b/c are derived Fractions.
    """

    __slots__ = ("a", "b", "c", "D")

    def __init__(self, rat=0, quad=0, D=1):
        p, q = _ratio(rat)
        r, s = _ratio(quad)
        if D not in _VALID_DISCS:
            if D == 0:
                r, s, D = 0, 1, 1
            elif not is_squarefree(D):
                raise ValueError(
                    f"field discriminant must be square-free, got {D}"
                )
            else:
                _VALID_DISCS.add(D)
        c = math.lcm(q, s)
        a, b = p * (c // q), r * (c // s)
        if D == 1:
            # sqrt(1) = 1: fold into the rational part
            a, b = a + b, 0
        if c != 1:
            g = math.gcd(a, b, c)
            a, b, c = a // g, b // g, c // g
        self.a = a
        self.b = b
        self.c = c
        self.D = D if b else 1

    # -- coercion ----------------------------------------------------------

    @staticmethod
    def of(value) -> "ExactScalar":
        kind = type(value)
        if kind is ExactScalar:
            return value
        if kind is int:
            return _make(value, 0, 1, 1)
        if isinstance(value, str):
            m = _SCALAR_RE.fullmatch(value)
            if m is None:
                raise ValueError(f"bad scalar {value!r}")
            rat, quad, disc = m.group("rat", "quad", "disc")
            return ExactScalar(rat, quad.lstrip("+") if quad else 0, int(disc or 1))
        return ExactScalar(value)

    @property
    def rat(self) -> Fraction:
        """The rational part a/c."""
        return Fraction(self.a, self.c)

    @property
    def quad(self) -> Fraction:
        """The coefficient b/c of sqrt(D)."""
        return Fraction(self.b, self.c)

    # -- field operations ----------------------------------------------------

    def __add__(self, other):
        if type(other) is int:
            c = self.c
            return _make(self.a + other * c, self.b, c, self.D)
        other = ExactScalar.of(other)
        D = self.D
        if other.D != D:
            D = _join(D, other.D)
        c, oc = self.c, other.c
        if c == oc:
            return _make(self.a + other.a, self.b + other.b, c, D)
        return _make(self.a * oc + other.a * c, self.b * oc + other.b * c, c * oc, D)

    __radd__ = __add__

    def __neg__(self):
        return _make(-self.a, -self.b, self.c, self.D)

    def __sub__(self, other):
        if type(other) is int:
            c = self.c
            return _make(self.a - other * c, self.b, c, self.D)
        return self.__add__(-ExactScalar.of(other))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if type(other) is int:
            return _make(self.a * other, self.b * other, self.c, self.D)
        other = ExactScalar.of(other)
        a, b, D = self.a, self.b, self.D
        oa, ob = other.a, other.b
        c = self.c * other.c
        if not ob:
            return _make(a * oa, b * oa, c, D)
        if not b:
            return _make(a * oa, a * ob, c, other.D)
        if other.D != D:
            D = _join(D, other.D)
        return _make(a * oa + b * ob * D, a * ob + b * oa, c, D)

    __rmul__ = __mul__

    def inverse(self) -> "ExactScalar":
        a, b, c = self.a, self.b, self.c
        if not b:
            if not a:
                raise ZeroDivisionError("division by zero scalar")
            return _make(c, 0, a, 1) if a > 0 else _make(-c, 0, -a, 1)
        # c / (a + b sqrt D) = c (a - b sqrt D) / (a^2 - b^2 D); the norm is
        # nonzero because D is square-free.
        norm = a * a - b * b * self.D
        if norm < 0:
            return _make(-c * a, c * b, -norm, self.D)
        return _make(c * a, -c * b, norm, self.D)

    def __truediv__(self, other):
        if type(other) is int and other:
            if other < 0:
                return _make(-self.a, -self.b, -other * self.c, self.D)
            return _make(self.a, self.b, other * self.c, self.D)
        return self * ExactScalar.of(other).inverse()

    def __rtruediv__(self, other):
        return ExactScalar.of(other) * self.inverse()

    def __abs__(self):
        return -self if _sign(self.a, self.b, self.D) < 0 else self

    # -- order ---------------------------------------------------------------

    def sign(self) -> int:
        return _sign(self.a, self.b, self.D)

    def _cmp(self, other):
        """The sign of self - other."""
        if type(other) is int:
            return _sign(self.a - other * self.c, self.b, self.D)
        other = ExactScalar.of(other)
        D = self.D
        if other.D != D:
            D = _join(D, other.D)
        c, oc = self.c, other.c
        if c == oc:
            return _sign(self.a - other.a, self.b - other.b, D)
        return _sign(self.a * oc - other.a * c, self.b * oc - other.b * c, D)

    def __eq__(self, other):
        if type(other) is ExactScalar:
            return (self.a == other.a and self.b == other.b and self.c == other.c
                    and self.D == other.D)
        if isinstance(other, int):
            return self.c == 1 and not self.b and self.a == other
        if isinstance(other, Fraction):
            return (self.c == other.denominator and not self.b
                    and self.a == other.numerator)
        return NotImplemented

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __hash__(self):
        a, b, c = self.a, self.b, self.c
        if b:
            return hash((a, b, c, self.D))
        if c == 1:
            return hash(a)
        # a rational hashes like the equal Fraction, by the numeric hash rule
        # of the Python documentation ("Hashing of numeric types")
        inv = _hash_inverse(c)
        h = hash(hash(abs(a)) * inv) if inv else sys.hash_info.inf
        h = h if a >= 0 else -h
        return -2 if h == -1 else h

    def __bool__(self):
        return bool(self.a or self.b)

    # -- conversions -----------------------------------------------------------

    def __float__(self):
        return self.a / self.c + self.b / self.c * math.sqrt(self.D)

    def __floor__(self):
        a, b, c = self.a, self.b, self.c
        if not b:
            return a // c
        # b sqrt(D) is irrational, so its floor is isqrt(b^2 D) or
        # -isqrt(b^2 D) - 1 by the sign of b; and floor((a + y) / c) is
        # (a + floor(y)) // c for an int c > 0
        m = math.isqrt(b * b * self.D)
        return (a + (m if b > 0 else -m - 1)) // c

    def __ceil__(self):
        return -math.floor(-self)

    def __str__(self):
        rat = _ratio_str(self.a, self.c)
        if not self.b:
            return rat
        sign = "+" if self.b > 0 else "-"
        return f"{rat}{sign}{_ratio_str(abs(self.b), self.c)}√{self.D}"

    def __repr__(self):
        return f"ExactScalar({self})"


_new = object.__new__


def _make(a, b, c, D):
    """The scalar (a + b*sqrt(D)) / c from ints with c > 0, D square-free
    and D == 1 only if b == 0; no validation, and a gcd only when c != 1."""
    if c != 1:
        g = math.gcd(a, b, c)
        if g != 1:
            a //= g
            b //= g
            c //= g
    s = _new(ExactScalar)
    s.a = a
    s.b = b
    s.c = c
    s.D = D if b else 1
    return s


ZERO = ExactScalar(0)


class Grid(dict):
    """The scalars (a + b*sqrt(D)) / c of one denominator c and field D.

    A vector (s_1, ..., s_m) on the grid packs to the row of 2m ints
    (a_1, ..., a_m, b_1, ..., b_m).  Equal vectors pack to equal rows, sums
    and integer multiples are those of the rows, and the sign of s_k is
    `_sign(row[k], row[m + k], D)`.  As a dict the grid maps each pair
    (a, b) it has unpacked to its scalar, so each is built once.
    """

    def __init__(self, *vectors):
        """The coarsest grid holding every scalar of the given vectors;
        ValueError when they mix two quadratic fields."""
        c = D = 1
        for vector in vectors:
            for s in vector:
                c = math.lcm(c, s.c)
                if s.D != D:
                    D = _join(D, s.D)
        self.c = c
        self.D = D

    def __missing__(self, ab):
        s = self[ab] = _make(*ab, self.c, self.D)
        return s

    def holds(self, vector) -> bool:
        return all(self.c % s.c == 0 and s.D in (1, self.D) for s in vector)

    def pack(self, vector) -> tuple:
        c = self.c
        scales = [c // s.c for s in vector]
        return tuple([s.a * k for s, k in zip(vector, scales)]
                     + [s.b * k for s, k in zip(vector, scales)])

    def unpack(self, row) -> tuple:
        m = len(row) // 2
        return tuple(map(self.__getitem__, zip(row[:m], row[m:])))


def scalar(rat, quad=0, D=1) -> ExactScalar:
    """rat + quad*sqrt(D) from ints, Fractions or texts: quad an INT | INT/INT
    text, rat any text that `ExactScalar.of` reads."""
    if isinstance(rat, str):
        return ExactScalar.of(rat) + ExactScalar(0, quad, D)
    return ExactScalar(rat, quad, D)


# ---------------------------------------------------------------------------
# Integer vectors and matrices (plain tuples; rows for matrices).
# ---------------------------------------------------------------------------


def integer(value) -> int:
    """An int read exactly: TypeError on a float, which int() would truncate
    unseen, and on a bool, which JSON keeps apart from numbers."""
    if type(value) is bool:
        raise TypeError(f"a bool is not an integer: {value!r}")
    return operator.index(value)


def dot(u, v):
    if len(u) != len(v):
        raise DimensionMismatch(f"dot of lengths {len(u)} and {len(v)}")
    pairs = zip(u, v)
    for a, b in pairs:
        total = a * b
        break
    else:
        return 0
    for a, b in pairs:
        total = total + a * b
    return total


def mat_vec(M, v):
    return tuple(dot(row, v) for row in M)


def mat_mul(A, B):
    Bt = transpose(B)
    return tuple(tuple(dot(row, col) for col in Bt) for row in A)


def transpose(M):
    return tuple(zip(*M)) if M else ()


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_det(M) -> int:
    """Determinant of a square integer matrix (the det of `adjugate`)."""
    return adjugate(M)[0]


def adjugate(M):
    """(det M, adj M) for a square integer matrix, so that M adj = det I.

    Fraction-free Gauss-Jordan (Bareiss) on [M | I]: every entry after a
    step is a minor of the row-permuted augmented matrix, so each division
    by the previous pivot is exact, and at the end the left block is
    +-det I and the right block +-adj M.  A singular M has no full pivot
    sequence and gives (0, None).
    """
    n = len(M)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(M)]
    sign = 1
    prev = 1
    for k in range(n):
        if not a[k][k]:
            r = next((r for r in range(k + 1, n) if a[r][k]), None)
            if r is None:
                return 0, None
            a[k], a[r] = a[r], a[k]
            sign = -sign
        pivot_row = a[k]
        p = pivot_row[k]
        for i in range(n):
            if i != k:
                row = a[i]
                f = row[k]
                a[i] = [(p * x - f * y) // prev for x, y in zip(row, pivot_row)]
        prev = p
    return sign * prev, tuple(tuple(sign * x for x in row[n:]) for row in a)


def unimodular_inverse(M):
    """Exact inverse of an integer matrix with det +-1, which is det * adj M."""
    d, adj = adjugate(M)
    if d not in (1, -1):
        raise NotUnimodular(f"determinant {d}")
    return adj if d == 1 else tuple(tuple(-x for x in row) for row in adj)


def primitive_part(v):
    """Split v = g*w with w primitive, g = gcd of the entries (g > 0)."""
    if not any(v):
        raise ZeroVector("primitive part of the zero vector")
    g = 0
    for x in v:
        g = math.gcd(g, abs(x))
    return tuple(x // g for x in v), g


def is_primitive(v) -> bool:
    return any(v) and primitive_part(v)[1] == 1


def _exgcd(a: int, b: int):
    """(g, p, q) with p*a + q*b = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def row_hnf(M):
    """Row echelon Hermite form.

    Returns (H, U) with U unimodular, U*M = H, pivots positive and the
    entries above each pivot reduced into [0, pivot).
    """
    m = len(M)
    k = len(M[0]) if m else 0
    H = [list(row) for row in M]
    U = [list(row) for row in identity(m)]
    pr = 0
    for c in range(k):
        piv = None
        for r in range(pr, m):
            if H[r][c] != 0:
                piv = r
                break
        if piv is None:
            continue
        if piv != pr:
            H[pr], H[piv] = H[piv], H[pr]
            U[pr], U[piv] = U[piv], U[pr]
        for r in range(pr + 1, m):
            if H[r][c] == 0:
                continue
            g, p, q = _exgcd(H[pr][c], H[r][c])
            x, y = H[pr][c] // g, H[r][c] // g
            H[pr], H[r] = (
                [p * a + q * b for a, b in zip(H[pr], H[r])],
                [-y * a + x * b for a, b in zip(H[pr], H[r])],
            )
            U[pr], U[r] = (
                [p * a + q * b for a, b in zip(U[pr], U[r])],
                [-y * a + x * b for a, b in zip(U[pr], U[r])],
            )
        if H[pr][c] < 0:
            H[pr] = [-a for a in H[pr]]
            U[pr] = [-a for a in U[pr]]
        for r in range(pr):
            q = H[r][c] // H[pr][c]
            if q:
                H[r] = [a - q * b for a, b in zip(H[r], H[pr])]
                U[r] = [a - q * b for a, b in zip(U[r], U[pr])]
        pr += 1
        if pr == m:
            break
    return tuple(map(tuple, H)), tuple(map(tuple, U))


def hnf_basis(vectors):
    """Canonical ordered basis of the lattice generated by the vectors.

    The nonzero rows of the row Hermite form of the vectors taken as rows;
    used as the one canonical form for lattice dedup and equality
    everywhere.
    """
    H, _ = row_hnf(tuple(vectors))
    return [h for h in H if any(h)]


def kernel_lattice(M):
    """Basis of the integer kernel {r : M r = 0}, HNF-canonical order.

    U M^T = H is the row Hermite form of the transpose, so the rows of U
    beside the zero rows of H span the kernel.
    """
    H, U = row_hnf(transpose(M))
    return hnf_basis(u for u, h in zip(U, H) if not any(h))


def generates_full_lattice(vectors) -> bool:
    """True iff the vectors generate all of Z^n."""
    vectors = list(vectors)
    if not vectors:
        return False
    n = len(vectors[0])
    if any(len(v) != n for v in vectors):
        raise DimensionMismatch("vectors of differing lengths")
    basis = hnf_basis(vectors)
    return basis == [tuple(identity(n)[i]) for i in range(n)]


class IntegerInfeasible:
    """Certificate that M z = b has no integer solution.

    Carries a rational row vector u with u*M integral but u*b not an
    integer; checking those two facts verifies the certificate.
    """

    def __init__(self, u, M, b):
        self.u = tuple(u)
        self.M = M
        self.b = tuple(b)

    def verify(self) -> bool:
        uM = [sum(ui * self.M[i][j] for i, ui in enumerate(self.u))
              for j in range(len(self.M[0]))] if self.M and self.M[0] else []
        ub = sum(ui * bi for ui, bi in zip(self.u, self.b))
        return all(x.denominator == 1 for x in map(Fraction, uM)) and Fraction(
            ub
        ).denominator != 1

    def to_json(self):
        return [str(Fraction(x)) for x in self.u]


def solve_integer(M, b):
    """All integer solutions of M z = b.

    Returns (z0, kernel_basis, None) on success, where the solution set is
    z0 + Z-span(kernel_basis), or (None, kernel_basis, certificate) when no
    integer solution exists.  Works on the row Hermite form U M^T = H of
    the transpose: with z = U^T w the system reads H^T w = b.  On the pivot
    rows p_0 < p_1 < ... of M it is lower triangular, L w = b_p with
    L[i][j] = H[j][p_i], solved exactly as adj(L) b_p / det L.  Because U
    is unimodular, a row of L^-1 whose w_j is not an integer, or a residual
    on another row, is a certificate functional; only those become
    Fractions.
    """
    m = len(M)
    if len(b) != m:
        raise DimensionMismatch("rhs length does not match row count")
    H, U = row_hnf(transpose(M))
    k = len(H)
    kernel = [u for u, h in zip(U, H) if not any(h)]
    pivots = []  # the pivot row of M of each nonzero row of H, increasing
    for h in H:
        r = next((i for i, v in enumerate(h) if v), None)
        if r is None:
            break
        pivots.append(r)
    K = len(pivots)
    det, adj = adjugate([[h[r] for h in H[:K]] for r in pivots])
    bp = [b[r] for r in pivots]
    w = [0] * k
    for j, row in enumerate(adj):
        w[j], rem = divmod(dot(row, bp), det)
        if rem:
            u = [Fraction(0)] * m
            for r, a in zip(pivots, row):
                u[r] = Fraction(a, det)
            return None, kernel, IntegerInfeasible(u, M, b)
    for r in range(m):
        col = [h[r] for h in H]
        residual = b[r] - dot(col, w)  # zero on the pivot rows, which w solves
        if residual:
            u = [Fraction(0)] * m
            u[r] = Fraction(1, 2 * residual)
            for p, a in zip(pivots, mat_vec(transpose(adj), col[:K])):
                u[p] = Fraction(-a, 2 * residual * det)
            return None, kernel, IntegerInfeasible(u, M, b)
    z0 = tuple(sum(U[j][i] * w[j] for j in range(k)) for i in range(k))
    return z0, kernel, None


# ---------------------------------------------------------------------------
# Finitely generated subgroups of Q(sqrt(D)) as lattices in Q^2.
# ---------------------------------------------------------------------------


class GammaLattice:
    """The subgroup of R generated by finitely many scalars.

    Viewed as a lattice in Q^2 over the basis {1, sqrt(D)} and stored in
    the canonical form (den, basis, D): den is the least common
    denominator of the subgroup, that of the coarsest `Grid` of the
    generators, and basis the integer HNF of their packed pairs, so equal
    subgroups compare equal.  No common factor is left: a prime p of den
    divides some generator's denominator to its full power, and that
    generator, in lowest terms, packs to a pair with an entry prime to p,
    so gcd(den, entries) = 1.  The zero lattice has den 1 and D 1.
    Generators from two quadratic fields raise `Grid`'s ValueError.
    """

    __slots__ = ("den", "basis", "D")

    def __init__(self, generators):
        gens = [ExactScalar.of(g) for g in generators]
        grid = Grid(gens)
        row, m = grid.pack(gens), len(gens)
        self.den, self.D = grid.c, grid.D
        self.basis = tuple(hnf_basis(zip(row[:m], row[m:])))

    @property
    def rank(self) -> int:
        return len(self.basis)

    def __eq__(self, other):
        if not isinstance(other, GammaLattice):
            return NotImplemented
        return (self.den, self.basis, self.D) == (other.den, other.basis, other.D)

    def __hash__(self):
        return hash((self.den, self.basis))

    def contains(self, value) -> bool:
        v = ExactScalar.of(value)
        if not self.basis:
            return not v
        if v.D != 1 and self.D != 1 and v.D != self.D:
            return False
        a, b = v.a * self.den, v.b * self.den
        if a % v.c or b % v.c:
            return False
        target = (a // v.c, b // v.c)
        return solve_integer(transpose(self.basis), target)[2] is None

    def generator(self) -> ExactScalar:
        """Positive generator in the rank-one case."""
        if self.rank != 1:
            raise RankNotOne(f"lattice has rank {self.rank}")
        return abs(self.scalars()[0])

    def scalars(self):
        return [_make(a, b, self.den, self.D) for a, b in self.basis]

    def to_json(self):
        return {"den": self.den, "basis": [list(v) for v in self.basis], "D": self.D}

    def __repr__(self):
        gens = ", ".join(str(s) for s in self.scalars()) or "0"
        return f"GammaLattice<{gens}>"


# ---------------------------------------------------------------------------
# Strict/weak linear feasibility by Fourier-Motzkin elimination.
# ---------------------------------------------------------------------------


def fm_witness(constraints, nvars):
    """A point satisfying all constraints, or None.

    Each constraint is (coeffs, const, strict) and states
    sum(coeffs[i] * x[i]) + const >= 0 (or > 0 when strict).  Handles
    unbounded directions and lineality exactly; used for interior
    nonemptiness and face membership at desk scale.
    """
    rows = [
        (tuple(ExactScalar.of(c) for c in coeffs), ExactScalar.of(const), strict)
        for coeffs, const, strict in constraints
    ]
    levels = []
    for var in range(nvars - 1, -1, -1):
        lowers, uppers, rest = [], [], []
        for coeffs, const, strict in rows:
            c = coeffs[var]
            head = coeffs[:var]
            if c.sign() > 0:
                lowers.append((head, const, c, strict))
            elif c.sign() < 0:
                uppers.append((head, const, c, strict))
            else:
                rest.append((head, const, strict))
        levels.append((var, lowers, uppers))
        for lh, lc, lcoef, ls in lowers:
            for uh, uc, ucoef, us in uppers:
                # x >= -(lh.x + lc)/lcoef and x <= -(uh.x + uc)/ucoef combine.
                coeffs = tuple(
                    a * (-ucoef) + b * lcoef for a, b in zip(lh, uh)
                )
                const = lc * (-ucoef) + uc * lcoef
                rest.append((coeffs, const, ls or us))
        rows = rest
    for _, const, strict in rows:
        s = const.sign()
        if s < 0 or (strict and s == 0):
            return None
    point = [ZERO] * nvars
    for var, lowers, uppers in reversed(levels):
        lo = None
        lo_strict = False
        for head, const, coef, strict in lowers:
            val = -(dot(head, point[:var]) + const) / coef
            if lo is None or val > lo or (val == lo and strict):
                lo, lo_strict = val, strict
        hi = None
        hi_strict = False
        for head, const, coef, strict in uppers:
            val = -(dot(head, point[:var]) + const) / coef
            if hi is None or val < hi or (val == hi and strict):
                hi, hi_strict = val, strict
        if lo is not None and hi is not None:
            point[var] = (lo + hi) / 2 if lo != hi else lo
        elif lo is not None:
            point[var] = lo + 1
        elif hi is not None:
            point[var] = hi - 1
        else:
            point[var] = ZERO
    return tuple(point)


# ---------------------------------------------------------------------------
# JSON encoding of library values.
# ---------------------------------------------------------------------------


def to_json(value):
    """The JSON form of a library value: a scalar as its grammar text, an
    int, bool, str or None as itself, a tuple or list as a list and a dict
    as a dict of encoded items; any other value writes itself with its
    `to_json`.  A float or a Fraction has none and raises, since no inexact
    or second scalar form may reach the output."""
    kind = type(value)
    if kind is ExactScalar:
        return str(value)
    if kind is tuple or kind is list:
        return [to_json(v) for v in value]
    if kind is int or kind is str or kind is bool or value is None:
        return value
    if kind is dict:
        return {k: to_json(v) for k, v in value.items()}
    method = getattr(value, "to_json", None)
    if method is None:
        raise TypeError(f"no JSON form for {kind.__name__} {value!r}")
    return method()


@functools.cache
def _shown_fields(cls):
    """The names of the fields a dataclass's repr shows, found once per class."""
    return tuple(f.name for f in dataclasses.fields(cls) if f.repr)


class Record:
    """A dataclass whose JSON form is a dict of the fields its repr shows,
    each written by `to_json`."""

    __slots__ = ()

    def to_json(self):
        return {name: to_json(getattr(self, name)) for name in _shown_fields(type(self))}
