"""Scalar field and integer-lattice algebra, checked against brute force."""

import itertools
import math
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from delzant import lattice
from delzant.errors import DimensionMismatch, ZeroVector
from delzant.lattice import (
    ExactScalar,
    GammaLattice,
    fm_witness,
    generates_full_lattice,
    hnf_basis,
    kernel_lattice,
    mat_det,
    mat_mul,
    mat_vec,
    primitive_part,
    row_hnf,
    scalar,
    solve_integer,
    transpose,
    unimodular_inverse,
)


def _src_env():
    """The environment of a child process that imports this checkout."""
    path = [str(Path(__file__).resolve().parent.parent / "src"),
            os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))


# -- brute-force oracles -----------------------------------------------------


def brute_kernel_vectors(M, radius=2):
    """All kernel vectors with entries in [-radius, radius], by enumeration."""
    k = len(M[0])
    out = []
    for cand in itertools.product(range(-radius, radius + 1), repeat=k):
        if any(cand) and not any(mat_vec(M, cand)):
            out.append(cand)
    return out


def in_span(basis, v):
    """Exact membership of v in the integer span of the basis."""
    if not basis:
        return not any(v)
    sol, _, cert = solve_integer(transpose(basis), v)
    return cert is None


# -- scalars -----------------------------------------------------------------


class TestExactScalar:
    def test_field_axioms_random(self):
        rng = random.Random(7)
        for _ in range(200):
            D = rng.choice([1, 2, 3, 5])
            a = scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                       Fraction(rng.randint(-9, 9), rng.randint(1, 9)), D)
            b = scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                       Fraction(rng.randint(-9, 9), rng.randint(1, 9)), D)
            assert (a + b) - b == a
            assert a * b == b * a
            if b:
                assert (a / b) * b == a

    def test_trichotomy(self):
        rng = random.Random(11)
        for _ in range(300):
            D = rng.choice([2, 3, 5])
            a = scalar(Fraction(rng.randint(-8, 8), rng.randint(1, 5)),
                       Fraction(rng.randint(-8, 8), rng.randint(1, 5)), D)
            b = scalar(Fraction(rng.randint(-8, 8), rng.randint(1, 5)),
                       Fraction(rng.randint(-8, 8), rng.randint(1, 5)), D)
            assert (a < b) + (a == b) + (a > b) == 1

    def test_sign_vs_float(self):
        # high-precision numeric evaluation agrees with the exact sign
        rng = random.Random(3)
        for _ in range(1000):
            D = rng.choice([2, 3, 5, 7])
            a = scalar(Fraction(rng.randint(-50, 50), rng.randint(1, 20)),
                       Fraction(rng.randint(-50, 50), rng.randint(1, 20)), D)
            approx = float(a)
            if abs(approx) > 1e-9:
                assert a.sign() == (1 if approx > 0 else -1)
            else:
                assert (a.sign() == 0) == (a.rat == 0 and a.quad == 0)

    def test_collapse_to_rationals(self):
        assert scalar(1, 2, 1) == scalar(3)
        assert scalar(Fraction(1, 2), 0, 5).D == 1

    def test_mixed_fields_rejected(self):
        with pytest.raises(ValueError):
            scalar(1, 1, 2) + scalar(0, 1, 3)

    def test_non_squarefree_rejected(self):
        with pytest.raises(ValueError):
            scalar(1, 1, 12)

    def test_large_discriminant_rejected_without_trial_division(self):
        # trial division up to sqrt(D) never ends on this D, so the test runs
        # in a child process that a timeout stops
        script = textwrap.dedent("""
            from delzant import DelzantPolytope, ExactScalar, lattice
            D = 1000000000000000000039
            calls = [
                lambda: lattice.scalar(1, 1, D),
                lambda: ExactScalar.of(f"1+1√{D}"),
                lambda: DelzantPolytope(1, [((1,), 0), ((-1,), f"1+1√{D}")]),
            ]
            for call in calls:
                try:
                    call()
                except ValueError as exc:
                    print(type(exc).__name__, exc)
            # the bound itself is still decided: 10**10 - 1 = 3^2 * 1111111111
            print(lattice.is_squarefree(lattice.MAX_DISC - 1))
        """)
        done = subprocess.run([sys.executable, "-c", script], env=_src_env(),
                              capture_output=True, text=True, timeout=60)
        message = f"ValueError field discriminant {10**21 + 39} exceeds the bound 10000000000"
        assert done.stdout.splitlines() == [message] * 3 + ["False"]

    def test_floor(self):
        assert math.floor(scalar(0, 1, 2)) == 1
        assert math.floor(scalar(0, -1, 2)) == -2
        assert math.floor(scalar(Fraction(7, 2))) == 3
        assert math.ceil(scalar(0, 1, 2)) == 2

    def test_floor_beyond_float_range(self):
        # 10**400 + sqrt(2) has no float; floor and ceil stay exact
        big = 10**400
        assert math.floor(scalar(big, 1, 2)) == big + 1
        assert math.ceil(scalar(big, 1, 2)) == big + 2
        assert math.floor(scalar(-big, Fraction(-1, 3), 2)) == -big - 1
        assert math.floor(scalar(0, big, 3)) == math.isqrt(3 * big * big)

    @settings(max_examples=100, deadline=None)
    @given(
        st.fractions(max_denominator=10**6),
        st.fractions(max_denominator=10**6).filter(bool),
        st.sampled_from([2, 3, 5, 7, 11, 1001]),
        st.integers(min_value=0, max_value=60),
    )
    def test_floor_ceil_against_sympy(self, rat, quad, D, scale):
        # scale pushes some values far past the float range
        rat, quad = rat * 10**scale, quad * 10**scale
        x = scalar(rat, quad, D)
        exact = sympy.Rational(rat.numerator, rat.denominator) + sympy.Rational(
            quad.numerator, quad.denominator
        ) * sympy.sqrt(D)
        assert math.floor(x) == int(sympy.floor(exact))
        assert math.ceil(x) == int(sympy.ceiling(exact))

    def test_rationals_hash_like_numbers(self):
        assert len({ExactScalar(1), 1}) == 1
        assert hash(ExactScalar(Fraction(1, 2))) == hash(Fraction(1, 2))
        assert len({scalar(Fraction(-3, 7)), Fraction(-3, 7), scalar(0, 1, 2)}) == 2

    def test_floats_rejected(self):
        # a float's binary expansion must not enter an exact decision
        for make in (
            lambda: ExactScalar(0.5),
            lambda: ExactScalar(1, 0.5, 2),
            lambda: ExactScalar.of(0.1),
            lambda: scalar(0.5),
            lambda: scalar(1, 0.25, 2),
            lambda: scalar(1) + 0.5,
            lambda: scalar(1) < 0.5,
        ):
            with pytest.raises(TypeError):
                make()
        assert scalar("1/2") == ExactScalar.of(Fraction(1, 2))

    def test_string_roundtrip(self):
        from delzant.cli import parse_scalar

        for s in (scalar(Fraction(3, 4)), scalar(-2), scalar(1, Fraction(-1, 2), 2),
                  scalar(0, 1, 5)):
            assert ExactScalar.of(str(s)) == parse_scalar(str(s)) == s


# -- primitive vectors ---------------------------------------------------------


class TestPrimitivePart:
    def test_examples(self):
        assert primitive_part((2, 4, -6)) == ((1, 2, -3), 2)
        assert primitive_part((1, 0)) == ((1, 0), 1)
        # sign convention preserved: g * w == v
        w, g = primitive_part((-3, -6))
        assert (w, g) == ((-1, -2), 3)
        assert tuple(g * c for c in w) == (-3, -6)

    def test_zero_rejected(self):
        with pytest.raises(ZeroVector):
            primitive_part((0, 0))

    def test_idempotent(self):
        rng = random.Random(5)
        for _ in range(100):
            v = tuple(rng.randint(-20, 20) for _ in range(rng.randint(1, 4)))
            if not any(v):
                continue
            w, g = primitive_part(v)
            assert primitive_part(w) == (w, 1)
            assert tuple(g * c for c in w) == v


# -- Hermite forms and kernels --------------------------------------------------


class TestHermite:
    def test_row_hnf_properties(self):
        rng = random.Random(13)
        for _ in range(50):
            m, k = rng.randint(1, 4), rng.randint(1, 5)
            M = tuple(tuple(rng.randint(-4, 4) for _ in range(k)) for _ in range(m))
            H, U = row_hnf(M)
            assert mat_mul(U, M) == H
            assert mat_det(U) in (1, -1)

    def test_kernel_examples(self):
        # the three-facet simplex relation
        assert kernel_lattice(((1, 0, -1), (0, 1, -1))) == [(1, 1, 1)]
        assert kernel_lattice(((1, 0), (0, 1))) == []
        assert kernel_lattice(((1, 0, 1, 0), (0, 1, 0, 1))) == [
            (1, 0, -1, 0),
            (0, 1, 0, -1),
        ]

    def test_kernel_against_enumeration(self):
        rng = random.Random(17)
        for _ in range(60):
            m, k = rng.randint(1, 3), rng.randint(1, 4)
            M = tuple(tuple(rng.randint(-2, 2) for _ in range(k)) for _ in range(m))
            basis = kernel_lattice(M)
            for v in basis:
                assert not any(mat_vec(M, v))
                assert lattice.is_primitive(v)
            for v in brute_kernel_vectors(M):
                assert in_span(basis, v), (M, basis, v)

    def test_generates_full_lattice(self):
        assert generates_full_lattice([(1, 0), (0, 1)])
        assert not generates_full_lattice([(2, 0), (0, 1)])
        assert generates_full_lattice([(1, 1), (1, -1), (0, 1)])


class TestSolveInteger:
    def test_solutions_and_kernels(self):
        rng = random.Random(23)
        for _ in range(120):
            m, k = rng.randint(1, 4), rng.randint(1, 4)
            M = tuple(tuple(rng.randint(-3, 3) for _ in range(k)) for _ in range(m))
            z = tuple(rng.randint(-3, 3) for _ in range(k))
            b = mat_vec(M, z)
            z0, kernel, cert = solve_integer(M, b)
            assert cert is None
            assert mat_vec(M, z0) == tuple(b)
            for kv in kernel:
                assert not any(mat_vec(M, kv))
            # the constructed solution is in the affine lattice
            assert in_span(kernel, tuple(a - c for a, c in zip(z, z0)))

    def test_certificates_verify(self):
        rng = random.Random(29)
        found = 0
        for _ in range(300):
            m, k = rng.randint(1, 3), rng.randint(1, 3)
            M = tuple(tuple(rng.randint(-3, 3) for _ in range(k)) for _ in range(m))
            b = tuple(rng.randint(-5, 5) for _ in range(m))
            z0, kernel, cert = solve_integer(M, b)
            if cert is not None:
                found += 1
                assert cert.verify()
            else:
                assert mat_vec(M, z0) == b
        assert found > 20

    def test_parity_system(self):
        z0, _, cert = solve_integer(((2,),), (3,))
        assert z0 is None and cert is not None and cert.verify()


class TestGammaLattice:
    def test_rational_lattices(self):
        g1 = GammaLattice([Fraction(3, 10), Fraction(6, 5)])
        g2 = GammaLattice([Fraction(3, 10)])
        assert g1 == g2
        assert g1.generator() == scalar(Fraction(3, 10))
        assert GammaLattice([1, 2, 3]) == GammaLattice([1])
        assert GammaLattice([2, 4]) != GammaLattice([1])

    def test_permutation_invariance(self):
        rng = random.Random(31)
        for _ in range(50):
            gens = [Fraction(rng.randint(0, 10), rng.randint(1, 6)) for _ in range(4)]
            shuffled = list(gens)
            rng.shuffle(shuffled)
            assert GammaLattice(gens) == GammaLattice(shuffled)

    def test_quadratic_lattices(self):
        a = GammaLattice([scalar(0, 1, 2), scalar(1)])
        b = GammaLattice([scalar(1), scalar(1, 1, 2)])
        assert a == b and a.rank == 2
        c = GammaLattice([scalar(0, 1, 2), scalar(0, 2, 2)])
        assert c.rank == 1 and c.generator() == scalar(0, 1, 2)
        assert a != c

    def test_contains(self):
        g = GammaLattice([Fraction(3, 10)])
        assert g.contains(Fraction(9, 10))
        assert not g.contains(Fraction(1, 10))
        h = GammaLattice([scalar(1, 1, 2)])
        assert h.contains(scalar(2, 2, 2))
        assert not h.contains(scalar(1))
        for g in (GammaLattice([]), GammaLattice([0, scalar(0, 0, 2)])):
            assert g.rank == 0
            assert g.contains(0) and g.contains(scalar(0))
            assert not g.contains(Fraction(1, 3))
            assert not g.contains(scalar(0, 1, 2))

    def test_invariant_under_recombination(self):
        # integer row operations on the generators fix the subgroup
        rng = random.Random(107)
        for _ in range(40):
            D = rng.choice([1, 2, 5])
            gens = [
                scalar(Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                       Fraction(rng.randint(-6, 6), rng.randint(1, 4)), D)
                for _ in range(3)
            ]
            mixed = list(gens)
            for _ in range(6):
                i, j = rng.randrange(3), rng.randrange(3)
                k = rng.randint(-2, 2)
                if i != j:
                    mixed[i] = mixed[i] + k * mixed[j]
            assert GammaLattice(gens) == GammaLattice(mixed + gens)

    def test_mixed_fields_raise_the_scalar_error(self):
        # the field comes from lattice.Grid, which raises what scalar sums do
        for gens in ([scalar(0, 1, 2), 1, scalar(1, 1, 3)], [scalar(1, 1, 5), scalar(0, 1, 2)]):
            with pytest.raises(ValueError, match=r"^mixed quadratic fields sqrt\(\d\) and sqrt\(\d\)$"):
                GammaLattice(gens)
        assert GammaLattice([scalar(0, 1, 2), 1, scalar(1, 1, 2)]).D == 2


@st.composite
def gamma_generators(draw):
    """Up to four scalars of one field Q(sqrt(D)), D in {1, 2, 3, 5}, zeros
    and rationals among them."""
    D = draw(st.sampled_from([1, 2, 3, 5]))
    part = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    pairs = st.tuples(part, st.one_of(st.just(0), part))
    return [scalar(a, b, D) for a, b in draw(st.lists(pairs, max_size=4))]


@st.composite
def unimodular(draw, m):
    """An m x m integer matrix of determinant +-1, as a product of signs,
    swaps and shears."""
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    for _ in range(draw(st.integers(0, 6)) if m > 1 else 0):
        i, j = draw(st.permutations(range(m)))[:2]
        op, k = draw(st.sampled_from(["swap", "neg", "add"])), draw(st.integers(-3, 3))
        if op == "swap":
            U[i], U[j] = U[j], U[i]
        elif op == "neg":
            U[i] = [-x for x in U[i]]
        else:
            U[i] = [x + k * y for x, y in zip(U[i], U[j])]
    return U


class TestGammaCanonicalForm:
    @settings(max_examples=300, deadline=None)
    @given(gamma_generators())
    def test_no_common_factor_is_left(self, gens):
        g = GammaLattice(gens)
        if not any(gens):
            assert (g.den, g.basis, g.D) == (1, (), 1)
        assert math.gcd(g.den, *(x for v in g.basis for x in v)) == 1

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_recombined_generators_give_an_equal_lattice(self, data):
        gens = data.draw(gamma_generators())
        U = data.draw(unimodular(len(gens)))
        mixed = [sum((k * s for k, s in zip(row, gens)), scalar(0)) for row in U]
        a, b = GammaLattice(gens), GammaLattice(mixed + [0])
        assert (a.den, a.basis, a.D) == (b.den, b.basis, b.D)
        assert a == b and hash(a) == hash(b)

    def test_zero_lattices_are_equal_whatever_their_field(self):
        zeros = [GammaLattice([]), GammaLattice([0]), GammaLattice([scalar(0, 0, 2)]),
                 GammaLattice([scalar(1, 1, 2) - scalar(1, 1, 2)])]
        assert all(z == zeros[0] and hash(z) == hash(zeros[0]) for z in zeros)
        assert GammaLattice([scalar(0, 1, 2)]) != zeros[0]


class TestFourierMotzkin:
    def test_square(self):
        cons = [((1, 0), 1, True), ((0, 1), 1, True), ((-1, 0), 1, True),
                ((0, -1), 1, True)]
        w = fm_witness(cons, 2)
        assert w is not None
        for coeffs, const, _ in cons:
            assert (lattice.dot(coeffs, w) + const).sign() > 0

    def test_strip_and_empty(self):
        assert fm_witness([((0, 1), 1, True), ((0, -1), 1, True)], 2) is not None
        assert fm_witness([((1,), 0, True), ((-1,), 0, True)], 1) is None
        # closed degenerate point is feasible weakly, not strictly
        assert fm_witness([((1,), 0, False), ((-1,), 0, False)], 1) is not None
        assert fm_witness([((1,), 0, True), ((-1,), 0, False)], 1) is None

    def test_unbounded_witness(self):
        w = fm_witness([((1, 0), -10, True), ((0, 1), 1, True), ((0, -1), 1, True)], 2)
        assert w is not None and w[0] > 10


def test_unimodular_inverse():
    rng = random.Random(37)
    count = 0
    while count < 30:
        n = rng.randint(1, 4)
        M = tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n))
        if mat_det(M) not in (1, -1):
            continue
        count += 1
        assert mat_mul(M, unimodular_inverse(M)) == lattice.identity(n)


def test_hnf_canonical_for_equal_lattices():
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randint(2, 4)
        vecs = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n)]
        basis = hnf_basis(vecs)
        # applying a random unimodular recombination does not change the form
        mixed = list(vecs)
        for _ in range(5):
            i, j = rng.randrange(len(mixed)), rng.randrange(len(mixed))
            k = rng.randint(-2, 2)
            if i != j:
                mixed[i] = tuple(a + k * b for a, b in zip(mixed[i], mixed[j]))
        assert hnf_basis(mixed + vecs) == basis


def test_dot_edge_cases_and_op_count(monkeypatch):
    assert lattice.dot((), ()) == 0
    assert lattice.dot((2, 3), (5, -1)) == 7
    with pytest.raises(DimensionMismatch):
        lattice.dot((1, 2), (1,))
    adds = []
    add = ExactScalar.__add__

    def counting_add(self, other):
        adds.append(other)
        return add(self, other)

    monkeypatch.setattr(ExactScalar, "__add__", counting_add)
    monkeypatch.setattr(ExactScalar, "__radd__", counting_add)
    u = (scalar(1, 1, 2), scalar(Fraction(1, 2)), scalar(3))
    assert lattice.dot(u, (1, 2, 3)) == scalar(11, 1, 2)
    # n - 1 additions for n terms, none of them starting from 0
    assert len(adds) == 2
    assert lattice.dot(u[:1], (4,)) == scalar(4, 4, 2) and len(adds) == 2


# -- the column-form Hermite routines that row_hnf replaced ----------------------


def column_hnf(M):
    """(H, U) with M*U = H lower echelon, by the row form of the transpose."""
    Ht, Ut = row_hnf(transpose(M))
    return transpose(Ht), transpose(Ut)


def column_hnf_basis(vectors):
    vecs = [v for v in vectors if any(v)]
    if not vecs:
        return []
    H, _ = column_hnf(transpose(tuple(vecs)))
    return [c for c in transpose(H) if any(c)]


def column_kernel_lattice(M):
    if not M or not M[0]:
        n = len(M[0]) if M else 0
        return [tuple(lattice.identity(n)[i]) for i in range(n)]
    H, U = column_hnf(M)
    ker = [u for u, h in zip(transpose(U), transpose(H)) if not any(h)]
    return column_hnf_basis(ker)


def column_solve_integer(M, b):
    m = len(M)
    k = len(M[0]) if m else 0
    if m == 0 or k == 0:
        kernel = [tuple(lattice.identity(k)[i]) for i in range(k)]
        if any(b):
            r = next(i for i, v in enumerate(b) if v)
            u = tuple(Fraction(int(i == r), 2 * b[r]) for i in range(m))
            return None, kernel, lattice.IntegerInfeasible(u, M, b)
        return (0,) * k, kernel, None
    H, U = column_hnf(M)
    cols = transpose(H)
    kernel = [tuple(u) for u, h in zip(transpose(U), cols) if not any(h)]
    pivots = []
    for j, col in enumerate(cols):
        r = next((i for i, v in enumerate(col) if v), None)
        if r is not None:
            pivots.append((r, j))
    w = [0] * k
    funcs = {}
    for r, j in pivots:
        p = H[r][j]
        val = Fraction(b[r])
        func = [Fraction(0)] * m
        func[r] = Fraction(1)
        for r2, j2 in pivots:
            if j2 >= j:
                break
            h = H[r][j2]
            if h:
                val -= h * w[j2]
                func = [a - h * c for a, c in zip(func, funcs[j2])]
        val = val / p
        funcs[j] = tuple(f / p for f in func)
        if val.denominator != 1:
            return None, kernel, lattice.IntegerInfeasible(funcs[j], M, b)
        w[j] = int(val)
    pivot_rows = {r for r, _ in pivots}
    for r in range(m):
        if r in pivot_rows:
            continue
        residual = Fraction(b[r]) - sum(Fraction(H[r][j] * w[j]) for _, j in pivots)
        if residual:
            psi = [Fraction(0)] * m
            psi[r] = Fraction(1)
            for _, j in pivots:
                if H[r][j]:
                    psi = [a - H[r][j] * c for a, c in zip(psi, funcs[j])]
            u = tuple(a / (2 * residual) for a in psi)
            return None, kernel, lattice.IntegerInfeasible(u, M, b)
    z0 = tuple(sum(U[row][j] * w[j] for j in range(k)) for row in range(k))
    return z0, kernel, None


@st.composite
def matrices_with_zeros(draw):
    """m x k integer matrices, m, k >= 0, some with zero rows and columns."""
    m, k = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    M = [draw(st.lists(st.integers(-4, 4), min_size=k, max_size=k)) for _ in range(m)]
    if m and draw(st.booleans()):
        M[draw(st.integers(0, m - 1))] = [0] * k
    if k and draw(st.booleans()):
        c = draw(st.integers(0, k - 1))
        for row in M:
            row[c] = 0
    return tuple(map(tuple, M))


@settings(max_examples=400, deadline=None)
@given(matrices_with_zeros())
def test_row_form_lattice_matches_column_form(M):
    assert hnf_basis(M) == column_hnf_basis(M)
    assert hnf_basis(list(M)) == column_hnf_basis(M)
    assert kernel_lattice(M) == column_kernel_lattice(M)


@settings(max_examples=400, deadline=None)
@given(matrices_with_zeros(), st.data())
def test_row_form_solve_matches_column_form(M, data):
    k = len(M[0]) if M else 0
    if data.draw(st.booleans()):
        b = mat_vec(M, data.draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k)))
    else:
        b = tuple(data.draw(st.lists(st.integers(-6, 6), min_size=len(M), max_size=len(M))))
    z0, kernel, cert = solve_integer(M, b)
    ref_z0, ref_kernel, ref_cert = column_solve_integer(M, b)
    assert (z0, kernel) == (ref_z0, ref_kernel)
    if ref_cert is None:
        assert cert is None
    else:
        assert cert.u == ref_cert.u and cert.to_json() == ref_cert.to_json()
        assert cert.verify()


# -- solve_integer against the per-pivot Fraction elimination it replaced ------


def fraction_solve_integer(M, b):
    """solve_integer by Fraction back-substitution on the pivot rows, with
    a Fraction functional per pivot that computes w_j from the rhs."""
    m = len(M)
    if len(b) != m:
        raise DimensionMismatch("rhs length does not match row count")
    H, U = row_hnf(transpose(M))
    k = len(H)
    kernel = [u for u, h in zip(U, H) if not any(h)]
    pivots = []  # (row of M, row of H), increasing in both
    for j, h in enumerate(H):
        r = next((i for i, v in enumerate(h) if v), None)
        if r is not None:
            pivots.append((r, j))
    w = [0] * k
    funcs = {}  # row of H -> functional in Q^m computing w_j from the rhs
    for r, j in pivots:
        p = H[j][r]
        val = Fraction(b[r])
        func = [Fraction(0)] * m
        func[r] = Fraction(1)
        for r2, j2 in pivots:
            if j2 >= j:
                break
            h = H[j2][r]
            if h:
                val -= h * w[j2]
                func = [a - h * c for a, c in zip(func, funcs[j2])]
        val = val / p
        funcs[j] = tuple(f / p for f in func)
        if val.denominator != 1:
            return None, kernel, lattice.IntegerInfeasible(funcs[j], M, b)
        w[j] = int(val)
    pivot_rows = {r for r, _ in pivots}
    for r in range(m):
        if r in pivot_rows:
            continue
        residual = Fraction(b[r]) - sum(
            Fraction(H[j][r] * w[j]) for _, j in pivots
        )
        if residual:
            psi = [Fraction(0)] * m
            psi[r] = Fraction(1)
            for _, j in pivots:
                if H[j][r]:
                    psi = [a - H[j][r] * c for a, c in zip(psi, funcs[j])]
            u = tuple(a / (2 * residual) for a in psi)
            return None, kernel, lattice.IntegerInfeasible(u, M, b)
    z0 = tuple(sum(U[j][i] * w[j] for j in range(k)) for i in range(k))
    return z0, kernel, None


def assert_solve_matches_fraction_reference(M, b):
    """Equal z0, kernel and certificate, and a certificate that verifies;
    returns which branch certified: "pivot" (a w_j off the integers, whose
    witness is a row of L^-1 and so has u M != 0), "residual" (u M = 0,
    u b = 1/2) or None (feasible)."""
    z0, kernel, cert = solve_integer(M, b)
    ref_z0, ref_kernel, ref_cert = fraction_solve_integer(M, b)
    assert (z0, kernel) == (ref_z0, ref_kernel)
    if ref_cert is None:
        assert cert is None
        assert mat_vec(M, z0) == tuple(b)
        return None
    assert cert.u == ref_cert.u and cert.to_json() == ref_cert.to_json()
    assert cert.verify()
    uM = [sum(u * row[j] for u, row in zip(cert.u, M)) for j in range(len(M[0]))]
    return "pivot" if any(uM) else "residual"


@st.composite
def systems(draw):
    """(M, b) with M up to 6 x 6 and b feasible (M z), perturbed (M z with
    one entry moved) or random."""
    m, k = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    M = tuple(tuple(draw(st.lists(st.integers(-4, 4), min_size=k, max_size=k)))
              for _ in range(m))
    kind = draw(st.sampled_from(("feasible", "perturbed", "random")))
    if kind == "random":
        return M, tuple(draw(st.lists(st.integers(-6, 6), min_size=m, max_size=m)))
    b = list(mat_vec(M, draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))))
    if kind == "perturbed" and m:
        b[draw(st.integers(0, m - 1))] += draw(st.sampled_from((-2, -1, 1, 2)))
    return M, tuple(b)


def test_solve_integer_matches_the_fraction_reference():
    branches = set()

    @settings(max_examples=500, deadline=None)
    @given(systems())
    def check(system):
        branches.add(assert_solve_matches_fraction_reference(*system))

    check()
    assert branches == {None, "pivot", "residual"}
