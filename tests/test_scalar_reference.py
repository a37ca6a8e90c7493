"""The integer scalar core checked against the Fraction-pair scalar it replaced.

`FractionScalar` below is the former `ExactScalar`, which held a + b*sqrt(D)
as two Fractions; it stays here only as the reference.  On hypothesis draws
(magnitudes up to 10**60, D in {1, 2, 3, 5, 7}, and int, Fraction, float
and scalar operands) `ExactScalar` must agree with it on every operation
that perfbench/tracer.py counts, on str, float, floor, ceil and bool, on the
hashes of rationals and on the mixed-field ValueError and float TypeError.
Results must also carry the canonical integer fields (c > 0,
gcd(a, b, c) = 1, b == 0 forcing D == 1), and a sample is checked against
sympy.
"""

import math
import sys
from fractions import Fraction
from pathlib import Path

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from delzant.lattice import ExactScalar, is_squarefree

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
try:
    from tracer import SCALAR_OPS
finally:
    sys.path.remove(str(PERFBENCH))


# -- the reference: the Fraction-pair scalar, unchanged but for its name -------

_ZERO_FRACTION = Fraction(0)
_VALID_DISCS = {1}


def _rational(value) -> Fraction:
    """`Fraction(value)` for an exact value; floats are refused, because
    their binary expansions would enter exact decisions unseen."""
    if isinstance(value, float):
        raise TypeError(f"a float is not an exact scalar: {value!r}")
    return Fraction(value)


class FractionScalar:
    """An element of Q(sqrt(D)) with exact total order.

    Invariants: fractions in lowest terms (guaranteed by Fraction),
    quad == 0 forces D == 1, so equal numbers have equal representations
    and hash consistently.
    """

    __slots__ = ("rat", "quad", "D", "_hash")

    def __init__(self, rat=0, quad=0, D=1):
        # ints and Fractions take no extra call: this is the hottest constructor
        kind = type(rat)
        if kind is not Fraction:
            rat = Fraction(rat) if kind is int else _rational(rat)
        kind = type(quad)
        if kind is not Fraction:
            quad = Fraction(quad) if kind is int else _rational(quad)
        if D not in _VALID_DISCS:
            if D == 0:
                quad, D = _ZERO_FRACTION, 1
            elif not is_squarefree(D):
                raise ValueError(
                    f"field discriminant must be square-free, got {D}"
                )
            else:
                _VALID_DISCS.add(D)
        if D == 1:
            # sqrt(1) = 1: fold into the rational part
            if quad:
                rat, quad = rat + quad, _ZERO_FRACTION
        elif not quad:
            D = 1
        self.rat = rat
        self.quad = quad
        self.D = D
        self._hash = None

    # -- coercion ----------------------------------------------------------

    @staticmethod
    def of(value) -> "FractionScalar":
        if type(value) is FractionScalar:
            return value
        return FractionScalar(value)

    def _pair(self, other):
        other = FractionScalar.of(other)
        if self.D == 1 or other.D == 1 or self.D == other.D:
            return other, max(self.D, other.D) if 1 in (self.D, other.D) else self.D
        raise ValueError(f"mixed quadratic fields sqrt({self.D}) and sqrt({other.D})")

    # -- field operations ----------------------------------------------------

    def __add__(self, other):
        o, D = self._pair(other)
        return FractionScalar(self.rat + o.rat, self.quad + o.quad, D)

    __radd__ = __add__

    def __neg__(self):
        return FractionScalar(-self.rat, -self.quad, self.D)

    def __sub__(self, other):
        return self + (-FractionScalar.of(other))

    def __rsub__(self, other):
        return FractionScalar.of(other) + (-self)

    def __mul__(self, other):
        o, D = self._pair(other)
        if not self.quad and not o.quad:
            return FractionScalar(self.rat * o.rat)
        return FractionScalar(
            self.rat * o.rat + self.quad * o.quad * D,
            self.rat * o.quad + self.quad * o.rat,
            D,
        )

    __rmul__ = __mul__

    def inverse(self) -> "FractionScalar":
        if self.rat == 0 and self.quad == 0:
            raise ZeroDivisionError("division by zero scalar")
        # (a + b sqrt D)^-1 = (a - b sqrt D) / (a^2 - b^2 D); the norm is
        # nonzero because D is square-free.
        norm = self.rat * self.rat - self.quad * self.quad * self.D
        return FractionScalar(self.rat / norm, -self.quad / norm, self.D)

    def __truediv__(self, other):
        return self * FractionScalar.of(other).inverse()

    def __rtruediv__(self, other):
        return FractionScalar.of(other) * self.inverse()

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- order ---------------------------------------------------------------

    def sign(self) -> int:
        a, b = self.rat, self.quad
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if (a > 0) == (b > 0):
            return 1 if a > 0 else -1
        # Opposite signs: |a| vs |b| sqrt(D) decided by squaring.
        t = a * a - b * b * self.D
        assert t != 0, "square-free D cannot make a + b*sqrt(D) vanish"
        s = 1 if t > 0 else -1
        return s if a > 0 else -s

    def _cmp(self, other):
        return (self - other).sign()

    def __eq__(self, other):
        if isinstance(other, (FractionScalar, int, Fraction)):
            o = FractionScalar.of(other)
            return self.rat == o.rat and self.quad == o.quad and self.D == o.D
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
        if self._hash is None:
            if self.quad:
                self._hash = hash((self.rat, self.quad, self.D))
            else:
                # a rational hashes like the equal int or Fraction
                self._hash = hash(self.rat)
        return self._hash

    def __bool__(self):
        return self.rat != 0 or self.quad != 0

    # -- conversions -----------------------------------------------------------

    def __float__(self):
        return float(self.rat) + float(self.quad) * math.sqrt(self.D)

    def __floor__(self):
        if self.quad == 0:
            return math.floor(self.rat)
        # self = (P + Q sqrt(D)) / R with R > 0; Q sqrt(D) is irrational, so
        # floor(Q sqrt(D)) is isqrt(Q^2 D) or -isqrt(Q^2 D) - 1 by the sign of Q
        a, b = self.rat.numerator, self.rat.denominator
        c, d = self.quad.numerator, self.quad.denominator
        R = b * d // math.gcd(b, d)
        P, Q = a * (R // b), c * (R // d)
        m = math.isqrt(Q * Q * self.D)
        if Q < 0:
            m = -m - 1
        return (P + m) // R

    def __ceil__(self):
        return -math.floor(-self)

    def __str__(self):
        if self.quad == 0:
            return str(self.rat)
        sign = "+" if self.quad > 0 else "-"
        return f"{self.rat}{sign}{abs(self.quad)}√{self.D}"

    def __repr__(self):
        return f"FractionScalar({self})"



# -- draws ----------------------------------------------------------------------

BIG = 10**60
RATIONALS = st.one_of(
    st.integers(-3, 3).map(Fraction),
    st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12)),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)),
)
DISCS = st.sampled_from([1, 2, 3, 5, 7])
# (rat, quad, D) of a scalar; quad is often 0, so that rationals are common
PARTS = st.tuples(RATIONALS, st.one_of(st.just(Fraction(0)), RATIONALS), DISCS)
# an operand: ("scalar", parts) or a plain int, Fraction or float
OPERANDS = st.one_of(
    PARTS.map(lambda parts: ("scalar", parts)),
    st.one_of(st.integers(-3, 3), st.integers(-BIG, BIG)).map(lambda n: ("plain", n)),
    RATIONALS.map(lambda q: ("plain", q)),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda f: ("plain", f)),
)
UNARY = ("__neg__", "__abs__", "inverse", "sign", "__hash__")
BINARY = tuple(op for op in SCALAR_OPS if op not in UNARY)


def fields(x):
    """The canonical (a, b, c, D) of the value of a FractionScalar."""
    c = math.lcm(x.rat.denominator, x.quad.denominator)
    return int(x.rat * c), int(x.quad * c), c, x.D


def outcome(method, *args):
    """A method's result, or the class of the error it raised."""
    try:
        return method(*args)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        return type(exc)


def assert_same(op, new, ref):
    if isinstance(ref, FractionScalar):
        assert type(new) is ExactScalar, op
        assert (new.a, new.b, new.c, new.D) == fields(ref), op
        assert (new.rat, new.quad) == (ref.rat, ref.quad), op
    else:
        assert new == ref and type(new) is type(ref), (op, new, ref)


def test_reference_ops_cover_the_traced_ops():
    assert set(UNARY) <= set(SCALAR_OPS)
    for op in SCALAR_OPS:
        assert op in ExactScalar.__dict__ and op in FractionScalar.__dict__


@settings(max_examples=400, deadline=None)
@given(PARTS)
def test_unary_ops_and_conversions_agree(parts):
    new, ref = ExactScalar(*parts), FractionScalar(*parts)
    assert_same("init", new, ref)
    for op in UNARY:
        if op == "__hash__" and ref.quad:
            continue  # an irrational may hash however it likes
        assert_same(op, outcome(getattr(new, op)), outcome(getattr(ref, op)))
    assert hash(new) == hash(ExactScalar(*parts))
    for convert in (str, float, math.floor, math.ceil, bool):
        assert outcome(convert, new) == outcome(convert, ref), convert


@settings(max_examples=400, deadline=None)
@given(PARTS, OPERANDS)
def test_binary_ops_agree(parts, operand):
    new, ref = ExactScalar(*parts), FractionScalar(*parts)
    kind, value = operand
    if kind == "scalar":
        new_other, ref_other = ExactScalar(*value), FractionScalar(*value)
    else:
        new_other = ref_other = value
    for op in BINARY:
        assert_same(op, outcome(getattr(new, op), new_other),
                    outcome(getattr(ref, op), ref_other))


@settings(max_examples=200, deadline=None)
@given(PARTS, PARTS)
def test_mixed_fields_and_floats_raise(x, y):
    new_x, new_y = ExactScalar(*x), ExactScalar(*y)
    mixed = new_x.b and new_y.b and new_x.D != new_y.D
    for op in BINARY:
        if op == "__eq__":
            continue
        got = outcome(getattr(new_x, op), new_y)
        assert (got is ValueError) == bool(mixed), op
        assert outcome(getattr(new_x, op), 0.5) is TypeError, op
    assert outcome(ExactScalar, 0.5) is TypeError
    assert outcome(ExactScalar, x[0], 0.5, x[2]) is TypeError


def _sym(s):
    return sympy.Rational(s.a, s.c) + sympy.Rational(s.b, s.c) * sympy.sqrt(s.D)


@settings(max_examples=60, deadline=None)
@given(PARTS, PARTS.filter(lambda p: p[0] or p[1]))
def test_sample_against_sympy(x, y):
    if y[2] != x[2] and y[1]:
        y = (y[0], y[1], x[2])  # one field per pair
    a, b = ExactScalar(*x), ExactScalar(*y)
    if not b:
        return
    sa, sb = _sym(a), _sym(b)
    for got, want in ((a + b, sa + sb), (a - b, sa - sb), (a * b, sa * sb),
                      (a / b, sa / sb)):
        assert sympy.simplify(_sym(got) - want) == 0
    assert (a < b) == bool((sa - sb).is_negative)
    assert math.floor(a) == int(sympy.floor(sa))
    assert str(a) == str(FractionScalar(*x))
