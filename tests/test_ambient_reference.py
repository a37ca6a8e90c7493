"""The integer ambient kernels against the Fraction references they replace.

`lattice.adjugate`, `lattice.unimodular_inverse`, `monodromy._ambient_system`,
`monodromy._AffineFamily` and `monodromy._poly_hits` work in ints only.
The references kept here are the Fraction Gauss-Jordan inverse, the
Fraction constraint rows (built from `rat` and `quad`, then scaled to
ints), a family that assembles A(t) point by point and takes the Fraction
induced map of it (S^-1 applied to (Xi A)[:, J], integrality by
denominator, consistency on every column), and the per-point sweep of the
parameter box; `solve_ambient` and `check_ambient` must give identical
outputs with either set.  `integer_induced_matrix`, the per-matrix integer
induced map that `_AffineFamily` replaced, is kept as a second reference.
"""

import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delzant import DelzantPolytope, lattice, monodromy, preset
from delzant.errors import NotUnimodular
from delzant.lattice import scalar
from delzant.lattice import mat_vec
from delzant.monodromy import check_ambient, solve_ambient
from delzant.spaces import oracle_orbit
from test_lattice import assert_solve_matches_fraction_reference
from test_polytope import fractions, sample_interior, unimodular_2x2


# ---------------------------------------------------------------------------
# Fraction references.
# ---------------------------------------------------------------------------


def field_inverse(A):
    """Inverse of a square matrix over Fractions (raises on singular)."""
    n = len(A)
    M = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(A)]
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        M[col], M[piv] = M[piv], M[col]
        f = M[col][col]
        M[col] = [x / f for x in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                g = M[r][col]
                M[r] = [x - g * y for x, y in zip(M[r], M[col])]
    return tuple(tuple(row[n:]) for row in M)


def fraction_det(A):
    """Determinant by Fraction Gaussian elimination."""
    M = [[Fraction(x) for x in row] for row in A]
    n = len(M)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
            det = -det
        det *= M[col][col]
        for r in range(col + 1, n):
            g = M[r][col] / M[col][col]
            M[r] = [x - g * y for x, y in zip(M[r], M[col])]
    assert det.denominator == 1
    return int(det)


def cofactor_adjugate(A):
    n = len(A)
    return tuple(
        tuple(
            (-1) ** (i + j) * fraction_det(
                [row[:i] + row[i + 1:] for s, row in enumerate(A) if s != j]
            )
            for j in range(n)
        )
        for i in range(n)
    )


def fraction_induced_matrix(xi, A, J, adj, det):
    """The Fraction induced map; ignores adj and det and inverts S itself."""
    n = len(xi)
    S_inv = field_inverse(tuple(tuple(xi[r][c] for c in J) for r in range(n)))
    XA = lattice.mat_mul(xi, A)
    B = tuple(tuple(Fraction(XA[r][c]) for c in J) for r in range(n))
    out = []
    for row in lattice.mat_mul(B, S_inv):
        if any(Fraction(v).denominator != 1 for v in row):
            return None
        out.append(tuple(int(v) for v in row))
    if lattice.mat_mul(out, xi) != XA:
        return None
    return tuple(out)


def integer_induced_matrix(xi, A, J, adj, det):
    """The induced n x n map M = (Xi A)[:, J] adj / det on H_1, or None when
    it is not integral (a division leaves a remainder) or A does not preserve
    the kernel of Xi.  An exact quotient has M Xi = Xi A on the columns J, so
    only the other columns are checked."""
    XA = lattice.mat_mul(xi, A)
    out = []
    for row in lattice.mat_mul(monodromy._columns(XA, J), adj):
        ints = []
        for v in row:
            q, r = divmod(v, det)
            if r:
                return None
            ints.append(q)
        out.append(tuple(ints))
    rest = [c for c in range(len(A)) if c not in J]
    if lattice.mat_mul(out, monodromy._columns(xi, rest)) != monodromy._columns(XA, rest):
        return None
    return tuple(out)


class ReferenceFamily:
    """`monodromy._AffineFamily` point by point: A(t) from `_assemble` of
    z0 + sum t_k kernel_k, its Fraction induced map, and determinant blocks
    from one product Xi A per kernel vector.  Every evaluated point t is
    appended to `hits`."""

    def __init__(self, xi, frame, z0, kernel, free, fixed_cols, hits):
        N = len(xi[0])
        J = frame[1]
        self.args = (z0, kernel, free, fixed_cols, N)
        self.xi, self.frame, self.hits = xi, frame, hits

        def block(z, fixed):
            A = monodromy._assemble(z, free, fixed, N)
            return monodromy._columns(lattice.mat_mul(xi, A), J)

        self.B = [block(z0, fixed_cols)] + [block(z, {}) for z in kernel]

    def at(self, t):
        self.hits.append(t)
        z0, kernel, free, fixed_cols, N = self.args
        z = list(z0)
        for c, k in zip(t, kernel):
            z = [a + c * b for a, b in zip(z, k)]
        A = monodromy._assemble(z, free, fixed_cols, N)
        det, J, adj = self.frame
        return A, fraction_induced_matrix(self.xi, A, J, adj, det)

    def at_each(self, ts):
        """`at` point by point, for the prefix-shared batch of the family."""
        return [self.at(t) for t in ts]


def poly_eval(p, t):
    total = 0
    for mono, c in p.items():
        v = c
        for var in mono:
            v *= t[var]
        total += v
    return total


def product_hits(p, k, bound, targets):
    """Every point of the box, one full polynomial evaluation each."""
    return [
        t for t in itertools.product(range(-bound, bound + 1), repeat=k)
        if poly_eval(p, t) in targets
    ]


def scale_to_int(coeff_rows, rhs_fracs):
    """Clear denominators row by row, returning integer rows."""
    out_rows, out_rhs = [], []
    for row, b in zip(coeff_rows, rhs_fracs):
        den = b.denominator
        for c in row:
            den = den * c.denominator // math.gcd(den, c.denominator)
        ints = [int(c * den) for c in row]
        bi = int(b * den)
        if any(ints) or bi:
            out_rows.append(tuple(ints))
            out_rhs.append(bi)
    return out_rows, out_rhs


def fraction_ambient_system(lx, ly, h2, free, fixed_cols, N):
    """The ambient rows built over Fractions from `rat` and `quad`, then
    scaled to ints."""
    f = len(free)
    slot = {i: s for s, i in enumerate(free)}
    coeff_rows, rhs = [], []

    def var(i, j):
        return slot[i] * N + j

    for i in free:
        row = [Fraction(0)] * (f * N)
        for j in range(N):
            row[var(i, j)] = Fraction(1)
        coeff_rows.append(row)
        rhs.append(Fraction(1))
        for part in ("rat", "quad"):
            row = [Fraction(0)] * (f * N)
            for j in range(N):
                row[var(i, j)] = getattr(ly[j], part)
            coeff_rows.append(row)
            rhs.append(getattr(lx[i], part))
    for r in h2:
        for j in range(N):
            row = [Fraction(0)] * (f * N)
            for i in free:
                if r[i]:
                    row[var(i, j)] = Fraction(r[i])
            fixed_part = sum(r[i] for i, tgt in fixed_cols.items() if tgt == j)
            coeff_rows.append(row)
            rhs.append(Fraction(r[j] - fixed_part))
    return scale_to_int(coeff_rows, rhs)


def reference(monkeypatch, fn, *args, hits=None):
    """fn(*args) on the references; the points at which the reference
    family is evaluated are appended to hits when it is given."""
    hits = [] if hits is None else hits
    with monkeypatch.context() as m:
        m.setattr(monodromy, "_AffineFamily", functools.partial(ReferenceFamily, hits=hits))
        m.setattr(monodromy, "_poly_hits", product_hits)
        m.setattr(monodromy, "_ambient_system", fraction_ambient_system)
        return fn(*args)


# ---------------------------------------------------------------------------
# Cases: the benchmark's cn(4) pairs, seeded draws on presets, and two
# polygons whose first invertible frame has determinant -2 or 2 (every
# preset's has 1).
# ---------------------------------------------------------------------------

HEXAGON = DelzantPolytope(
    2, [((-1, -1), 3), ((-1, 1), 3), ((1, 0), 2), ((0, 1), 2), ((-1, 0), 2), ((0, -1), 2)]
)
# the Hirzebruch trapezoid -1 <= x <= 2y + 3, |y| <= 1; first frame det 2
TRAPEZOID = DelzantPolytope(2, [((1, 0), 1), ((-1, 2), 3), ((0, 1), 1), ((0, -1), 1)])
# cp2 with its first two facets swapped; first frame det -1
CP2_SWAPPED = DelzantPolytope(2, [((0, 1), 1), ((1, 0), 1), ((-1, -1), 1)])
F = Fraction


def _cp2_twin_pair(rng):
    """cp2 points with distance vectors (d, d+ag, d+bg), (d, d+a'g, d+b'g), a+b = a'+b'."""
    s = rng.choice((5, 7, 8, 9, 11))
    pairs = [(a, s - a) for a in range(1, s // 2 + 1) if math.gcd(a, s - a) == 1]
    (a, b), (a2, b2) = rng.sample(pairs, 2)
    d = F(rng.randint(1, 5), 7)
    g = (3 - 3 * d) / s

    def point(u, v):
        ell = [d, d + u * g, d + v * g]
        rng.shuffle(ell)
        return (ell[0] - 1, ell[1] - 1)

    return point(a, b), point(a2, b2)


def _cases():
    rng = random.Random(7)
    cases = [
        (preset("cn(4)"), (1, 2, 3, 4), (2, 1, 3, 4)),
        (preset("cn(4)"), (1, 1, 2, 3), (1, 1, 3, 2)),
    ]
    cn3 = preset("cn(3)")
    for _ in range(4):
        x = tuple(F(rng.randint(1, 12), rng.randint(1, 3)) for _ in range(3))
        cases.append((cn3, x, tuple(rng.sample(x, 3))))
    for _ in range(3):
        cases.append((preset("cp2"), *_cp2_twin_pair(rng)))
    for name in ("s2s2_monotone", "c_x_s2"):
        poly = preset(name)
        for _ in range(3):
            x = sample_interior(poly, rng)
            window = ((-3, 3),) * 2
            cases.append((poly, x, rng.choice(oracle_orbit(name, x, window))))
    for x, y in (((0, 0), (0, 0)), ((F(1, 2), 0), (0, F(1, 2))),
                 ((1, 0), (0, 1)), ((F(1, 3), F(1, 5)), (F(1, 3), F(1, 5)))):
        cases.append((HEXAGON, x, y))
    for x, y in (((0, 0), (0, 0)), ((F(1, 2), F(-1, 2)), (F(1, 2), F(-1, 2))),
                 ((1, 0), (1, 0))):
        cases.append((TRAPEZOID, x, y))
    # Q(sqrt 2) pairs, whose sqrt(2) parts give the second area row
    r2 = scalar(-1, 1, 2)  # sqrt(2) - 1
    cases += [
        (cn3, (1, 2, r2 + 2), (r2 + 2, 1, 2)),
        (cn3, (r2 + 2, r2 + 2, 3), (3, r2 + 2, r2 + 2)),
        (cn3, (1, 2, r2 + 2), (1, 2, 2 * r2 + 3)),  # linear certificate
        (cn3, (1, 2, r2 + 2), (1, 2, scalar(1, F(1, 2), 2))),  # determinant one
        (preset("cp2"), (r2, F(-1, 2)), (F(-1, 2), r2)),
        (preset("s2s2_monotone"), (r2, 0), (0, -r2)),
        (HEXAGON, (r2, 0), (0, r2)),
    ]
    for x, y in (((F(-1, 2), F(-1, 5)), (F(-1, 5), F(-1, 2))),
                 ((F(1, 3), F(-1, 4)), (F(1, 3), F(-1, 4)))):
        cases.append((CP2_SWAPPED, x, y))
    return cases


CASES = _cases()
IDS = [f"{len(p.facets)}facets-{i}" for i, (p, _, _) in enumerate(CASES)]


def test_hexagon_frame_has_det_minus_2():
    xi = lattice.transpose(tuple(f.normal for f in HEXAGON.facets))
    det, J, adj = monodromy._induced_frame(xi, 2, HEXAGON.nfacets)
    assert det == -2 and J == (0, 1)
    assert adj == cofactor_adjugate([list(r) for r in ((-1, -1), (-1, 1))])


def _frame(poly):
    xi = lattice.transpose(tuple(f.normal for f in poly.facets))
    return monodromy._induced_frame(xi, poly.dim, poly.nfacets)


def test_case_frames_cover_det_1_minus_1_2_and_minus_2():
    assert {_frame(poly)[0] for poly, _, _ in CASES} == {1, -1, 2, -2}
    assert _frame(CP2_SWAPPED)[:2] == (-1, (0, 1))
    assert _frame(TRAPEZOID)[:2] == (2, (0, 1))


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_ambient_system_matches_fraction_reference(case):
    """Equal rows and rhs on every distinguished bijection of the case."""
    poly, x, y = case
    lx, ly = poly.ell(x), poly.ell(y)
    I_x = [i for i, v in enumerate(lx) if v == min(lx)]
    I_y = [i for i, v in enumerate(ly) if v == min(ly)]
    free = [i for i in range(poly.nfacets) if i not in I_x]
    _, h2 = poly.boundary_data()
    for images in itertools.permutations(I_y, len(I_x)):
        args = (lx, ly, h2, free, dict(zip(I_x, images)), poly.nfacets)
        assert monodromy._ambient_system(*args) == fraction_ambient_system(*args)


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_solve_integer_matches_fraction_reference(case, monkeypatch):
    """Every system that solve_ambient solves gets the answer and the
    certificate of the Fraction elimination."""
    poly, x, y = case
    systems = []
    solve = lattice.solve_integer

    def recorded(M, b):
        systems.append((M, b))
        return solve(M, b)

    monkeypatch.setattr(lattice, "solve_integer", recorded)
    solve_ambient(poly, x, y, 0)
    assert systems
    for M, b in systems:
        assert_solve_matches_fraction_reference(M, b)


def test_sqrt2_cases_have_sqrt2_area_rows():
    """The sqrt(2) area row of a free column is nonzero when some distance
    at y has a sqrt(2) part; seven cases have one."""
    assert sum(any(v.b for v in p.ell(y)) for p, _, y in CASES) == 7


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_solve_ambient_matches_reference(case, monkeypatch):
    poly, x, y = case
    fast = solve_ambient(poly, x, y, 3)
    hits = []
    assert fast.to_json() == reference(monkeypatch, solve_ambient, poly, x, y, 3, hits=hits).to_json()
    # every solution came out of the reference family
    assert len(hits) >= len(fast.solutions)
    if poly is TRAPEZOID or poly is CP2_SWAPPED or poly.dim == 4:  # cn(4)
        assert hits and fast.solutions


def test_linear_certificates_hold_their_checkable_witness():
    """Each linear certificate holds an `IntegerInfeasible` that verifies,
    over the very system `_ambient_system` builds for its bijection."""
    checked = 0
    for poly, x, y in CASES:
        fx, fy = poly.fibre(x), poly.fibre(y)
        free = [i for i in range(poly.nfacets) if i not in fx.active]
        _, h2 = poly.boundary_data()
        for cert in solve_ambient(poly, x, y, 0).certificates:
            if cert["kind"] != "linear":
                continue
            witness = cert["witness"]
            assert isinstance(witness, lattice.IntegerInfeasible) and witness.verify()
            rows, rhs = monodromy._ambient_system(
                fx.ell, fy.ell, h2, free, dict(cert["perm"]), poly.nfacets)
            assert (list(witness.M), witness.b) == (rows, tuple(rhs))
            checked += 1
    assert checked


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(("cp2", "s2s2_monotone", "c_x_s2")),
    st.sampled_from((1, 2, 5)),
    unimodular_2x2(),
    st.tuples(fractions, fractions),
    st.tuples(fractions, fractions),
    st.randoms(use_true_random=False),
)
def test_solve_ambient_matches_reference_on_affine_images(name, D, M, t_rat, t_quad, rng):
    """Images x -> Mx + t (t in Q(sqrt D)^2) with shuffled facets move the
    frame J, its block S and the columns outside it; y is an oracle partner
    of x or another interior point."""
    base = preset(name)
    facets = [(f.normal, f.offset) for f in base.facets]
    rng.shuffle(facets)
    t = tuple(scalar(r, q, D) for r, q in zip(t_rat, t_quad))
    image = DelzantPolytope(2, facets).apply_affine(M, t)
    x = sample_interior(base, rng)
    y = rng.choice(oracle_orbit(name, x, ((-3, 3),) * 2) + [sample_interior(base, rng)])
    x, y = (tuple(a + b for a, b in zip(mat_vec(M, p), t)) for p in (x, y))
    fast = solve_ambient(image, x, y, 2)
    hits = []
    slow = reference(pytest.MonkeyPatch(), solve_ambient, image, x, y, 2, hits=hits)
    assert fast.to_json() == slow.to_json()
    assert len(hits) >= len(fast.solutions)


def test_bijections_without_hits_make_only_the_products(monkeypatch):
    """A bijection whose sweep finds no point multiplies Xi by each A_k for
    the determinant polynomial and makes no other matrix product."""
    calls = []
    mat_mul = lattice.mat_mul
    monkeypatch.setattr(lattice, "mat_mul", lambda A, B: calls.append(1) or mat_mul(A, B))
    infeasible = 0
    for poly, x, y in CASES:
        calls.clear()
        out = solve_ambient(poly, x, y, 3)
        if out.kind == "infeasible":
            infeasible += 1
            assert len(calls) == sum(
                len(c["det_affine"]["coeffs"]) + 1
                for c in out.certificates if c["kind"] == "determinant"
            )
    assert infeasible == 5


def test_no_kernel_check_without_columns_outside_the_frame(monkeypatch):
    """On cn(4) every column lies in the frame J, so a hit makes no product
    for the kernel check: the largest benchmark query keeps its outcome and
    makes fewer matrix products than it has solutions."""
    poly, x, y = preset("cn(4)"), (1, 2, 3, 4), (2, 1, 3, 4)
    want = solve_ambient(poly, x, y, 3)
    calls = []
    mat_mul = lattice.mat_mul
    monkeypatch.setattr(lattice, "mat_mul", lambda A, B: calls.append(1) or mat_mul(A, B))
    got = solve_ambient(poly, x, y, 3)
    assert got.to_json() == want.to_json()
    assert len(got.solutions) == 3514
    assert len(calls) < len(got.solutions)


def _families(poly, x, y):
    """Every `_AffineFamily` that solve_ambient(poly, x, y, 0) builds."""
    families = []

    class Recorded(monodromy._AffineFamily):
        def __init__(self, *args):
            super().__init__(*args)
            families.append(self)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(monodromy, "_AffineFamily", Recorded)
        solve_ambient(poly, x, y, 0)
    return families


def _random_families(poly, rng, count=3, k=3):
    """Families of small random integer matrices (all columns free): most of
    their points fail the division or the check outside J."""
    xi = lattice.transpose(tuple(f.normal for f in poly.facets))
    N = poly.nfacets
    for _ in range(count):
        z0, *kernel = ([rng.randint(-2, 2) for _ in range(N * N)] for _ in range(k + 1))
        yield monodromy._AffineFamily(xi, _frame(poly), z0, kernel, range(N), {})


def test_prefix_shared_evaluation_matches_at():
    """`at_each` over the box [-1, 1]^k in lexicographic order, and over a
    shuffled list with repeats, gives `at` at every point: on the families
    solve_ambient builds and on random ones, whose maps fail the division
    or the check outside J."""
    rng = random.Random(3)
    dets, fails = set(), {"division": 0, "outside J": 0}
    for poly, x, y in CASES:
        families = _families(poly, x, y) + list(_random_families(poly, rng, count=1))
        for family in families:
            k = len(family.As) - 1
            box = [t + (0,) * (k - 4) for t in itertools.product((-1, 0, 1), repeat=min(k, 4))]
            shuffled = rng.sample(box, len(box)) + box[:3]
            for ts in (box, shuffled):
                assert list(family.at_each(ts)) == [family.at(t) for t in ts]
            dets.add(family.det)
            xi = lattice.transpose(tuple(f.normal for f in poly.facets))
            J = _frame(poly)[1]
            for t in box:
                A, induced = family.at(t)
                if induced is None:
                    XA = lattice.mat_mul(xi, A)
                    P = lattice.mat_mul(monodromy._columns(XA, J), family.adj)
                    exact = all(e % family.det == 0 for row in P for e in row)
                    fails["outside J" if exact else "division"] += 1
    assert dets == {1, -1, 2, -2}
    assert all(fails.values())


def test_prefix_shared_evaluation_of_no_points_forms_no_vectors():
    family = _families(*CASES[0])[0]
    assert list(family.at_each([])) == []
    assert "vectors" not in vars(family)


def _probe_matrices(poly, x, y, rng):
    """Up to 30 solutions, each also with one entry moved by +-1, and small
    random matrices: induced maps that exist, are not integral or fail the
    kernel check."""
    sols = solve_ambient(poly, x, y, 2).solutions
    step = max(1, len(sols) // 30)
    out = []
    N = poly.nfacets
    for s in sols[::step]:
        out.append(s.A)
        A = [list(r) for r in s.A]
        A[rng.randrange(N)][rng.randrange(N)] += rng.choice((-1, 1))
        out.append(A)
    for _ in range(20):
        out.append([[rng.randint(-2, 2) for _ in range(N)] for _ in range(N)])
    return out


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_check_ambient_induced_matches_reference(case, monkeypatch):
    poly, x, y = case
    rng = random.Random(11)
    xi = lattice.transpose(tuple(f.normal for f in poly.facets))
    det, J, adj = monodromy._induced_frame(xi, poly.dim, poly.nfacets)
    for A in _probe_matrices(poly, x, y, rng):
        fast = check_ambient(poly, x, y, A).induced
        hits = []
        assert fast == reference(monkeypatch, check_ambient, poly, x, y, A, hits=hits).induced
        assert hits == [()]
        assert fast == integer_induced_matrix(xi, A, J, adj, det)


def test_division_test_drops_non_integral_maps(monkeypatch):
    """On the trapezoid the columns outside the frame J = (0, 1) are +-e2, so
    the kernel check sees only the second column of the map: a map with a
    half-integral entry whose floor passes that check is dropped by the
    exact-division test alone."""
    poly, x = TRAPEZOID, (0, 0)
    xi = lattice.transpose(tuple(f.normal for f in poly.facets))
    det, J, adj = monodromy._induced_frame(xi, 2, poly.nfacets)
    S = ((1, -1), (0, 2))
    assert (det, J) == (2, (0, 1))
    rng = random.Random(5)
    for _ in range(40):
        # M S is integral iff the first column of M is and 2 M's second is
        M = [[rng.randint(-2, 2), F(rng.randint(-4, 4), 2)] for _ in range(2)]
        if all(F(v).denominator == 1 for row in M for v in row):
            M[0][1] = F(1, 2)
        floor_M = [[math.floor(v) for v in row] for row in M]
        B = lattice.mat_mul(M, S)
        cols = [lattice.transpose(B)[0], lattice.transpose(B)[1],
                (floor_M[0][1], floor_M[1][1]), (-floor_M[0][1], -floor_M[1][1])]
        # columns e1 and e2 of Xi are facets 0 and 2: lift each target column
        A = lattice.transpose([(int(a), 0, int(b), 0) for a, b in cols])
        assert lattice.mat_mul(xi, A) == lattice.transpose(cols)
        assert integer_induced_matrix(xi, A, J, adj, det) is None
        assert check_ambient(poly, x, x, A).induced is None
        assert reference(monkeypatch, check_ambient, poly, x, x, A).induced is None


# ---------------------------------------------------------------------------
# Kernels on generated input.
# ---------------------------------------------------------------------------


@st.composite
def int_matrices(draw, max_n=5):
    n = draw(st.integers(0, max_n))
    rows = [draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n)) for _ in range(n)]
    if n >= 2 and draw(st.booleans()):
        # make it singular: one row a combination of the others
        i = draw(st.integers(0, n - 1))
        others = st.sampled_from([r for r in range(n) if r != i])
        j, k = draw(others), draw(others)
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[k])]
    return rows


@settings(max_examples=300, deadline=None)
@given(int_matrices())
def test_adjugate_matches_fraction(M):
    det, adj = lattice.adjugate(M)
    assert det == fraction_det(M) == lattice.mat_det(M)
    if det == 0:
        assert adj is None
        return
    assert adj == cofactor_adjugate(M)
    n = len(M)
    assert lattice.mat_mul(M, adj) == tuple(
        tuple(det * int(i == j) for j in range(n)) for i in range(n)
    )
    inv = field_inverse(M)
    assert adj == tuple(tuple(det * v for v in row) for row in inv)


@st.composite
def unimodular_matrices(draw):
    """Products of row swaps, sign changes and elementary row additions."""
    n = draw(st.integers(1, 4))
    M = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 8))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        op = draw(st.sampled_from(("swap", "negate", "add")))
        if op == "swap":
            M[i], M[j] = M[j], M[i]
        elif op == "negate":
            M[i] = [-x for x in M[i]]
        elif i != j:
            c = draw(st.integers(-3, 3))
            M[i] = [x + c * y for x, y in zip(M[i], M[j])]
    return M


@settings(max_examples=300, deadline=None)
@given(st.one_of(int_matrices(max_n=4), unimodular_matrices()))
def test_unimodular_inverse(M):
    det = fraction_det(M)
    if det in (1, -1):
        inv = lattice.unimodular_inverse(M)
        assert inv == tuple(tuple(int(v) for v in row) for row in field_inverse(M))
        assert all(type(v) is int for row in inv for v in row)
    else:
        with pytest.raises(NotUnimodular):
            lattice.unimodular_inverse(M)


def _rooted(lead, roots, shift, k):
    """lead * prod (t_{k-1} - r) + shift, lead a polynomial in t_0..t_{k-2}."""
    p = dict(lead)
    for r in roots:
        p = monodromy._poly_mul(p, {(k - 1,): 1, (): -r})
    return monodromy._poly_add(p, {(): shift})


@st.composite
def sparse_polys(draw):
    """Random sparse polynomials, or ones built to have degree 0 to 3 in the
    last parameter with integer roots at, just inside or just outside
    +-bound, times a leading coefficient that vanishes at some prefixes
    (where every value of the last parameter hits).  A random polynomial
    comes with a drawn point that hits its own value, a built one with None."""
    k = draw(st.integers(0, 4))
    bound = draw(st.integers(0, 3))
    if k and draw(st.booleans()):
        near = st.sampled_from((-bound - 1, -bound, 1 - bound, bound - 1, bound, bound + 1))
        roots = draw(st.lists(near, max_size=3))
        lead = {(): draw(st.integers(-3, 3).filter(bool))}
        if k > 1 and draw(st.booleans()):
            lead[(draw(st.integers(0, k - 2)),)] = draw(st.integers(-2, 2).filter(bool))
        shift = draw(st.integers(-3, 3))
        p = _rooted(lead, roots, shift, k)
        return p, k, bound, (shift, draw(st.integers(-3, 3))), None
    monos = st.lists(st.integers(0, k - 1), max_size=4).map(lambda m: tuple(sorted(m))) \
        if k else st.just(())
    p = {}
    for mono, c in draw(st.lists(st.tuples(monos, st.integers(-4, 4)), max_size=8)):
        if c:
            p[mono] = c
    t = draw(st.lists(st.integers(-bound, bound), min_size=k, max_size=k))
    targets = (poly_eval(p, t), draw(st.integers(-3, 3)))
    return p, k, bound, targets, tuple(t)


@settings(max_examples=600, deadline=None)
@given(sparse_polys())
def test_poly_hits_matches_brute_force(case):
    p, k, bound, targets, point = case
    hits = monodromy._poly_hits(p, k, bound, targets)
    assert hits == product_hits(p, k, bound, targets)
    assert point is None or point in hits


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
@pytest.mark.parametrize("bound", [1, 2])
def test_poly_hits_finds_exact_roots_at_the_box_edge(degree, bound):
    """Roots at +-bound are hits and roots at +-(bound + 1) are not; where
    the leading coefficient 1 + t_0 vanishes (t_0 = -1) every value hits."""
    k = 3
    for roots in itertools.combinations_with_replacement(
        (-bound - 1, -bound, bound, bound + 1), degree
    ):
        p = _rooted({(): 1, (0,): 1}, roots, 2, k)
        hits = monodromy._poly_hits(p, k, bound, (2, 10**6))
        assert hits == product_hits(p, k, bound, (2, 10**6))
        inside = sorted({r for r in roots if abs(r) <= bound})
        values = range(-bound, bound + 1)
        for prefix in itertools.product(values, repeat=k - 1):
            got = [t[-1] for t in hits if t[:-1] == prefix]
            if prefix[0] == -1:
                assert got == list(values)
            else:
                assert got == inside
