"""Polytope model: distances, invariants, vertices, affine maps."""

import itertools
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from delzant import (
    DelzantPolytope,
    OrbitParams,
    as_point,
    decide,
    explore,
    monodromy,
    preset,
    probe,
    scalar,
)
from delzant.errors import (
    DelzantError,
    DimensionMismatch,
    InfeasibleEmpty,
    NotDelzant,
    NotInterior,
    NotPrimitive,
    NotUnimodular,
    ValidationError,
)
from delzant.lattice import ExactScalar, GammaLattice, dot, identity, mat_vec
from delzant.polytope import ChekanovInvariants, in_window, point_str
from delzant.reduction import AffineSlice, delzant_lift


def sample_interior(poly, rng, box=3, tries=200):
    """Random rational interior points near the interior witness."""
    base = poly.interior_point()
    for _ in range(tries):
        cand = tuple(
            c + Fraction(rng.randint(-8 * box, 8 * box), 8) for c in base
        )
        if poly.is_interior(cand):
            return as_point(cand)
    raise AssertionError("no interior sample found")


class TestConstruction:
    def test_duplicate_facet_rejected(self):
        with pytest.raises(ValidationError):
            DelzantPolytope(2, [((1, 0), 1), ((1, 0), 1)])

    def test_non_primitive_rejected(self):
        with pytest.raises(ValidationError):
            DelzantPolytope(2, [((2, 4), 1), ((0, 1), 1)])

    def test_coincident_parallel_rejected(self):
        with pytest.raises(ValidationError):
            DelzantPolytope(2, [((1, 0), 1), ((-1, 0), -1), ((0, 1), 1)])

    def test_empty_interior_rejected(self):
        with pytest.raises(InfeasibleEmpty):
            DelzantPolytope(1, [((1,), 0), ((-1,), -1)])

    def test_float_offset_rejected(self):
        with pytest.raises(TypeError):
            DelzantPolytope(1, [((1,), 0.1)])
        with pytest.raises(TypeError):
            as_point((0, 0.1))

    @pytest.mark.parametrize("D", [4, 0, -1, 12])
    def test_field_disc_must_be_squarefree(self, D):
        # the field is the offsets': 1+1√4 and 1+1√12 are no scalars, √-1 is
        # outside the grammar, and the grammar reads 1+1√0 as the rational 1
        offset = f"1+1√{D}"
        if D == 0:
            assert DelzantPolytope(1, [((1,), offset)]).field_disc == 1
        else:
            with pytest.raises(ValueError):
                DelzantPolytope(1, [((1,), offset)])

    def test_field_disc_is_the_offsets_field(self):
        sqrt2, sqrt3 = scalar(0, 1, 2), scalar(0, 1, 3)
        assert DelzantPolytope(1, [((1,), 0), ((-1,), Fraction(5, 2))]).field_disc == 1
        assert DelzantPolytope(1, [((1,), 0), ((-1,), sqrt2)]).field_disc == 2
        # a declared field of 1 once refused this translate's offset 1-1√2
        image = preset("cp2").apply_affine(((1, 0), (0, 1)), (sqrt2, 0))
        assert [str(f.offset) for f in image.facets] == ["1-1√2", "1", "1+1√2"]
        assert image.field_disc == 2
        # two irrational fields meet only in the library's mixed-field rule
        with pytest.raises(ValueError, match="mixed quadratic fields"):
            DelzantPolytope(1, [((1,), sqrt2), ((-1,), sqrt3)])
        with pytest.raises(TypeError):
            DelzantPolytope(1, [((1,), 0)], field_disc=2)

    def test_float_normal_or_dim_rejected(self):
        # int() would turn the normal (1.7, 0) into (1, 0) and dim 2.9 into 2
        facets = [((1, 0), 1), ((0, 1), 1), ((-1, -1), 2)]
        with pytest.raises(TypeError):
            DelzantPolytope(2, [((1.7, 0), 1)] + facets[1:])
        with pytest.raises(TypeError):
            DelzantPolytope(2.9, facets)
        assert DelzantPolytope(2, facets).facets[0].normal == (1, 0)


# int() would truncate each float below to a different integer input
@pytest.mark.parametrize("call", [
    lambda: probe.shoot(preset("cn(2)"), (1, 3), (1.7, -1.2)),
    lambda: AffineSlice((1, 1, 0), [(0, 0, 1.9), (-1, 1, 0)]),
    lambda: preset("cp2").apply_affine(((1.5, 0), (0, 1))),
    lambda: monodromy.mulclose([((0.5, 1), (1, 0))], 8),
    lambda: monodromy.check_ambient(preset("cn(2)"), (1, 2), (1, 2), ((1.2, 0), (0, 1))),
], ids=["shoot", "slice_dirs", "apply_affine", "mulclose", "check_ambient"])
def test_float_integer_inputs_rejected(call):
    with pytest.raises(TypeError):
        call()


# JSON reads true and false apart from numbers: read as 1 and 0 they once made
# polytopes, points and windows out of data that holds no number
@pytest.mark.parametrize("call", [
    lambda: ExactScalar.of(True),
    lambda: ExactScalar(1, True, 2),
    lambda: scalar(False),
    lambda: as_point((1, True)),
    lambda: DelzantPolytope(1, [((1,), True), ((-1,), 2)]),
    lambda: DelzantPolytope(True, [((1,), 0), ((-1,), 2)]),
    lambda: DelzantPolytope(1, [((True,), 0), ((-1,), 2)]),
    lambda: AffineSlice((1, 1, 0), [(0, 0, True), (-1, 1, 0)]),
    lambda: preset("cp2").apply_affine(((True, 0), (0, 1))),
    lambda: OrbitParams(max_norm=1, window=((False, True),)),
    lambda: OrbitParams(max_norm=True),
    lambda: probe.shoot(preset("cn(2)"), (1, 3), (True, -1)),
    lambda: monodromy.mulclose([((False, True), (True, False))], 8),
    lambda: monodromy.mulclose([((0, 1), (1, 0))], True),
    lambda: monodromy.solve_ambient(preset("cp2"), (0, 0), (0, 0), bound=True),
    lambda: monodromy.check_ambient(preset("cn(2)"), (1, 2), (1, 2), ((True, 0), (0, 1))),
], ids=["of", "quad", "scalar", "as_point", "offset", "dim", "normal", "slice_dirs",
        "apply_affine", "window", "caps", "shoot", "mulclose", "cap", "bound",
        "check_ambient"])
def test_bool_inputs_rejected(call):
    with pytest.raises(TypeError):
        call()


def test_in_window_closed_bounds_and_open_sides():
    sqrt2 = scalar(0, 1, 2)
    window = ((0, 1), (sqrt2, None))
    assert in_window((scalar(0), sqrt2), window)  # both lower bounds attained
    assert in_window(as_point((1, 2)), window)  # upper bound attained
    assert not in_window(as_point((Fraction(-1, 9), 2)), window)
    assert not in_window(as_point((Fraction(10, 9), 2)), window)
    assert not in_window(as_point((0, Fraction(7, 5))), window)  # 7/5 < sqrt(2)
    assert in_window(as_point((0, 10**9)), window)  # no upper bound
    assert in_window(as_point((-(10**9), 10**9)), ((None, None), (None, None)))
    assert in_window(as_point((-(10**9), 10**9)), None)


class TestEll:
    def test_cp2_known_point(self):
        poly = preset("cp2")
        assert poly.ell((Fraction(-1, 2), Fraction(-1, 5))) == as_point(
            (Fraction(1, 2), Fraction(4, 5), Fraction(17, 10))
        )

    def test_orthant_identity(self):
        poly = preset("cn(3)")
        assert poly.ell((1, 2, 3)) == as_point((1, 2, 3))

    def test_s2s2_center(self):
        poly = preset("s2s2_monotone")
        assert poly.ell((0, 0)) == as_point((1, 1, 1, 1))


# -- the dense distance vector that the sparse facet rows replaced ---------------


def reference_ell(poly, x):
    """l(x) as one dense dot per facet, zero entries included."""
    x = as_point(x)
    return tuple(dot(x, f.normal) + f.offset for f in poly.facets)


def assert_ell_matches_reference(poly, points):
    for x in points:
        want = reference_ell(poly, x)
        assert poly.ell(x) == want


@pytest.mark.parametrize("name", [
    "cp2", "s2s2_monotone", "c_x_s2", "c2_x_ts1", "ts1_x_s2",
    "cn(1)", "cn(2)", "cn(3)", "cn(4)",
])
def test_ell_matches_dense_reference(name):
    poly = preset(name)
    rng = random.Random(83)
    points = [sample_interior(poly, rng) for _ in range(6)]
    # exterior and boundary points, and a coordinate in Q(sqrt 2)
    points += [tuple(Fraction(rng.randint(-40, 40), 7) for _ in range(poly.dim))
               for _ in range(6)]
    points += [(0,) * poly.dim, (scalar(1, 1, 2),) + (Fraction(-3, 4),) * (poly.dim - 1)]
    assert_ell_matches_reference(poly, points)


class TestInvariants:
    def test_cp2_pair_agree(self):
        poly = preset("cp2")
        for pt in ((Fraction(-1, 2), Fraction(-1, 5)), (Fraction(-1, 2), Fraction(1, 10))):
            inv = poly.invariants(pt)
            assert inv.d == scalar(Fraction(1, 2))
            assert inv.count == 1
            assert inv.gamma == GammaLattice([Fraction(3, 10)])

    def test_orthant(self):
        inv = preset("cn(3)").invariants((1, 2, 3))
        assert inv.d == scalar(1)
        assert inv.count == 1
        assert inv.gamma == GammaLattice([1])
        assert inv.reduced == as_point((1, 2))

    def test_requires_interior(self):
        with pytest.raises(NotInterior):
            preset("cp2").invariants((1, 1))

    def test_d_is_min_and_count_is_multiplicity(self):
        rng = random.Random(19)
        for name in ("cp2", "s2s2_monotone", "c_x_s2"):
            poly = preset(name)
            for _ in range(20):
                x = sample_interior(poly, rng)
                values = poly.ell(x)
                inv = poly.invariants(x)
                assert inv.d == min(values)
                assert inv.count == sum(1 for v in values if v == inv.d)

    def test_gamma_invariant_under_facet_permutation(self):
        rng = random.Random(43)
        poly = preset("cp2")
        facets = list(poly.facets)
        rng.shuffle(facets)
        shuffled = DelzantPolytope(2, [(f.normal, f.offset) for f in facets])
        for _ in range(10):
            x = sample_interior(poly, rng)
            assert poly.invariants(x).gamma == shuffled.invariants(x).gamma


class TestCheckDelzant:
    def test_cp2(self):
        vertices = preset("cp2").check_delzant()
        assert len(vertices) == 3
        assert all(v.det in (1, -1) for v in vertices)

    def test_bad_triangle(self):
        poly = DelzantPolytope(2, [((1, 0), 0), ((0, 1), 0), ((-1, -2), 2)])
        with pytest.raises(NotDelzant) as err:
            poly.check_delzant()
        assert abs(err.value.det) == 2

    def test_strip_passes_empty(self):
        assert preset("ts1_x_s2").check_delzant() == []

    def test_all_presets_pass(self):
        for name in ("cp2", "s2s2_monotone", "c_x_s2", "c2_x_ts1", "ts1_x_s2",
                     "cn(2)", "cn(4)"):
            preset(name).check_delzant()

    def test_mutated_cp2_fails(self):
        poly = DelzantPolytope(2, [((1, 0), 1), ((0, 1), 1), ((-1, -2), 1)])
        with pytest.raises(NotDelzant):
            poly.check_delzant()


def field_solve(A, b):
    """Solve the square system A x = b by Gauss-Jordan over the scalar field;
    None when A is singular.  The reference for `check_delzant`'s vertices."""
    n = len(A)
    M = [[ExactScalar.of(x) for x in row] + [ExactScalar.of(b[i])]
         for i, row in enumerate(A)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if M[r][col]:
                piv = r
                break
        if piv is None:
            return None
        M[col], M[piv] = M[piv], M[col]
        inv = M[col][col].inverse()
        M[col] = [x * inv for x in M[col]]
        for r in range(n):
            if r != col and M[r][col]:
                f = M[r][col]
                M[r] = [x - f * y for x, y in zip(M[r], M[col])]
    return tuple(M[i][n] for i in range(n))


def reference_vertices(poly):
    """Sorted (point, active facets, det) of every vertex, each point solved
    by `field_solve` on the first facet subset that meets there."""
    vertices = {}
    for subset in itertools.combinations(range(poly.nfacets), poly.dim):
        A = [poly.facets[i].normal for i in subset]
        sol = field_solve(A, [-poly.facets[i].offset for i in subset])
        if sol is None or sol in vertices:
            continue
        values = poly.ell(sol)
        if any(v.sign() < 0 for v in values):
            continue
        active = tuple(i for i, v in enumerate(values) if not v)
        vertices[sol] = (sol, active, int(sympy.Matrix(A).det()))
    return sorted(vertices.values())


def vertex_triples(poly):
    return [(v.point, v.active, v.det) for v in poly.check_delzant()]


PRESETS = ("cp2", "s2s2_monotone", "c_x_s2", "c2_x_ts1", "ts1_x_s2",
           "cn(1)", "cn(2)", "cn(3)", "cn(4)")


@pytest.mark.parametrize("name", PRESETS)
def test_vertices_match_field_solve(name):
    poly = preset(name)
    assert vertex_triples(poly) == reference_vertices(poly)


@st.composite
def unimodular_2x2(draw):
    """Products of row swaps, sign changes and elementary row additions."""
    M = [[1, 0], [0, 1]]
    for _ in range(draw(st.integers(0, 6))):
        op = draw(st.sampled_from(("swap", "negate", "add")))
        i = draw(st.integers(0, 1))
        if op == "swap":
            M.reverse()
        elif op == "negate":
            M[i] = [-x for x in M[i]]
        else:
            c = draw(st.integers(-3, 3))
            M[i] = [x + c * y for x, y in zip(M[i], M[1 - i])]
    return tuple(map(tuple, M))


fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(("cp2", "s2s2_monotone", "c_x_s2")),
    st.sampled_from((1, 2, 5)),
    unimodular_2x2(),
    st.tuples(fractions, fractions),
    st.tuples(fractions, fractions),
)
def test_vertices_of_affine_images(name, D, M, t_rat, t_quad):
    """On images x -> Mx + t, with t in Q(sqrt D)^2, `check_delzant` agrees
    with `field_solve` and maps the vertices by the same affine map."""
    poly = preset(name)
    t = tuple(scalar(r, q, D) for r, q in zip(t_rat, t_quad))
    image = poly.apply_affine(M, t)
    assert vertex_triples(image) == reference_vertices(image)
    moved = sorted(
        tuple(a + b for a, b in zip(mat_vec(M, v.point), t))
        for v in poly.check_delzant()
    )
    assert [v.point for v in image.check_delzant()] == moved


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(("cp2", "s2s2_monotone", "c_x_s2")),
    st.sampled_from((1, 2, 5)),
    unimodular_2x2(),
    st.tuples(fractions, fractions),
    st.tuples(fractions, fractions),
    st.lists(st.tuples(fractions, fractions), min_size=1, max_size=4),
)
def test_ell_of_affine_images_matches_dense_reference(name, D, M, t_rat, t_quad, xs):
    """Normal entries beyond +-1 and offsets in Q(sqrt D), at any point."""
    poly = preset(name)
    t = tuple(scalar(r, q, D) for r, q in zip(t_rat, t_quad))
    image = poly.apply_affine(M, t)
    points = xs + [tuple(a + b for a, b in zip(mat_vec(M, x), t)) for x in xs]
    assert_ell_matches_reference(image, points + [v.point for v in image.check_delzant()])


# error class and message of every l(x) consumer, as before the one-l(x) rewrite
POINT_ERRORS = [
    ("cp2", (1, 1), NotInterior, "(1, 1) is not in the open polytope"),
    ("cp2", (-1, 0), NotInterior, "(-1, 0) is not in the open polytope"),
    ("cn(3)", (-1, 2, 3), NotInterior, "(-1, 2, 3) is not in the open polytope"),
    ("cp2", (0, 0, 0), DimensionMismatch, "point of length 3 in dim 2"),
    ("cn(3)", (1, 2), DimensionMismatch, "point of length 2 in dim 3"),
    # lift_point once returned (6, 6, -9) and (3/2, 3/2, 0) for these two
    ("cp2", (5, 5), NotInterior, "(5, 5) is not in the open polytope"),
    ("cp2", (Fraction(1, 2), Fraction(1, 2)), NotInterior,
     "(1/2, 1/2) is not in the open polytope"),
]


@pytest.mark.parametrize("name, x, error, message", POINT_ERRORS)
def test_point_errors_pinned(name, x, error, message):
    poly = preset(name)
    # a non-primitive direction does not mask the point's error
    calls = [poly.fibre, poly.invariants, poly.de_germ, delzant_lift(poly).lift_point,
             lambda x: probe.shoot(poly, x, (1,) + (0,) * (poly.dim - 1)),
             lambda x: probe.shoot(poly, x, (2,) * poly.dim)]
    for call in calls:
        with pytest.raises(error) as got:
            call(x)
        assert type(got.value) is error and str(got.value) == message


@pytest.mark.parametrize("name, x, v, error, message", [
    ("cp2", (0, 0), (2, 2), NotPrimitive, "direction (2, 2) is not primitive"),
    ("cp2", (0, 0), (2, 0), NotPrimitive, "direction (2, 0) is not primitive"),
    ("cn(3)", (1, 2, 3), (0, 2, 4), NotPrimitive, "direction (0, 2, 4) is not primitive"),
    ("cp2", (0, 0), (1, 0, 0), DimensionMismatch, "dot of lengths 3 and 2"),
])
def test_direction_errors_pinned(name, x, v, error, message):
    with pytest.raises(error) as got:
        probe.shoot(preset(name), x, v)
    assert type(got.value) is error and str(got.value) == message


class TestApplyAffine:
    def test_identity(self):
        poly = preset("cp2")
        image = poly.apply_affine(((1, 0), (0, 1)), (0, 0))
        assert image.to_json() == poly.to_json()

    def test_swap_square(self):
        poly = preset("s2s2_monotone")
        image = poly.apply_affine(((0, 1), (1, 0)))
        assert sorted((f.normal, f.offset) for f in image.facets) == sorted(
            (f.normal, f.offset) for f in poly.facets
        )

    @pytest.mark.parametrize("M", [((1, 1), (0,)), ((1, 0, 0), (0, 1, 0)), ((1,), (0, 1))])
    def test_non_square_matrix_rejected(self, M):
        # ((1, 1), (0,)) once reported NotUnimodular: determinant 0
        with pytest.raises(DimensionMismatch):
            preset("cp2").apply_affine(M)

    def test_shear_orthant(self):
        # x -> Mx with column vectors: normals transform by the inverse transpose
        poly = preset("cn(2)")
        image = poly.apply_affine(((1, 1), (0, 1)))
        assert [f.normal for f in image.facets] == [(1, -1), (0, 1)]
        image2 = poly.apply_affine(((1, 0), (1, 1)))
        assert [f.normal for f in image2.facets] == [(1, 0), (-1, 1)]

    def test_ell_preserved(self):
        rng = random.Random(3)
        poly = preset("cp2")
        M = ((1, 1), (0, 1))
        t = (Fraction(1, 3), -2)
        image = poly.apply_affine(M, t)
        for _ in range(5):
            x = sample_interior(poly, rng)
            y = tuple(a + b for a, b in zip(mat_vec(M, x), as_point(t)))
            assert poly.ell(x) == image.ell(y)

    def test_rejects_non_unimodular(self):
        with pytest.raises(NotUnimodular):
            preset("cp2").apply_affine(((2, 0), (0, 1)))


class TestBoundaryData:
    def test_cp2(self):
        boundary, h2 = preset("cp2").boundary_data()
        assert boundary == ((1, 0, -1), (0, 1, -1))
        assert h2 == [(1, 1, 1)]

    def test_orthant_trivial(self):
        _, h2 = preset("cn(3)").boundary_data()
        assert h2 == []

    def test_s2s2(self):
        _, h2 = preset("s2s2_monotone").boundary_data()
        assert h2 == [(1, 0, 1, 0), (0, 1, 0, 1)]

    def test_kernel_relation(self):
        for name in ("cp2", "s2s2_monotone", "c_x_s2"):
            boundary, h2 = preset(name).boundary_data()
            for r in h2:
                assert not any(mat_vec(boundary, r))


class TestDeGerm:
    def test_cp2(self):
        d, active = preset("cp2").de_germ((Fraction(-1, 2), Fraction(-1, 5)))
        assert d == scalar(Fraction(1, 2))
        assert active == (0,)

    def test_monotone_center(self):
        d, active = preset("s2s2_monotone").de_germ((0, 0))
        assert d == scalar(1)
        assert active == (0, 1, 2, 3)

    def test_c2ts1(self):
        d, active = preset("c2_x_ts1").de_germ((2, 2, 5))
        assert d == scalar(2)
        assert active == (0, 1)


# -- one Fibre per point ---------------------------------------------------------


def _interior_ell(poly, x):
    x = as_point(x)
    values = poly.ell(x)
    if not all(v.sign() > 0 for v in values):
        raise NotInterior(f"{point_str(x)} is not in the open polytope")
    return values


def reference_invariants(poly, x) -> ChekanovInvariants:
    """invariants() before Fibre: d, the count and Gamma derived from l(x) here."""
    values = _interior_ell(poly, x)
    d = min(values)
    diffs = [v - d for v in values]
    count = sum(1 for v in diffs if not v)
    reduced = tuple(sorted(v for v in diffs if v))
    return ChekanovInvariants(d, count, GammaLattice(diffs), reduced)


def reference_de_germ(poly, x):
    """de_germ() before Fibre."""
    values = _interior_ell(poly, x)
    d = min(values)
    return d, tuple(i for i, v in enumerate(values) if v == d)


def entry_point_results(poly, x, y):
    """What every entry point that takes a point returns at x (and y)."""
    params = OrbitParams(max_norm=1, max_points=12, max_depth=3)
    shots = []
    for v in probe.canonical_directions(poly.dim, 2):
        try:
            shots.append(probe.shoot(poly, x, v))
        except DelzantError as exc:
            shots.append((type(exc), str(exc)))
    out = {
        "shoot": shots,
        "enumerate_probes": probe.enumerate_probes(poly, x, 2),
        "explore": explore(poly, x, params).to_json(),
        "invariants": poly.invariants(x),
        "de_germ": poly.de_germ(x),
        "decide": decide(poly, x, y, params).to_json(),
    }
    if poly.normals_span():
        ident = identity(poly.nfacets)
        out["solve_ambient"] = monodromy.solve_ambient(poly, x, y, bound=1).to_json()
        out["check_ambient"] = monodromy.check_ambient(poly, x, y, ident)
        out["lift_point"] = delzant_lift(poly).lift_point(x)
    return out


def assert_fibre_matches_point(poly, x, y):
    fx, fy = poly.fibre(x), poly.fibre(y)
    assert (fx.point, fx.ell) == (as_point(x), poly.ell(x))
    assert (fx.d, fx.active) == reference_de_germ(poly, x)
    assert poly.invariants(fx) == reference_invariants(poly, x)
    want = entry_point_results(poly, x, y)
    assert entry_point_results(poly, fx, fy) == want
    assert entry_point_results(poly, fx, y) == want


@pytest.mark.parametrize("name", PRESETS)
def test_fibre_matches_point_on_presets(name):
    poly = preset(name)
    rng = random.Random(29)
    x, y = sample_interior(poly, rng), sample_interior(poly, rng)
    assert_fibre_matches_point(poly, x, y)
    assert_fibre_matches_point(poly, x, x)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(("cp2", "s2s2_monotone", "c_x_s2", "ts1_x_s2")),
    st.sampled_from((1, 2, 5)),
    unimodular_2x2(),
    st.tuples(fractions, fractions),
    st.tuples(fractions, fractions),
    st.randoms(use_true_random=False),
)
def test_fibre_matches_point_on_affine_images(name, D, M, t_rat, t_quad, rng):
    poly = preset(name)
    t = tuple(scalar(r, q, D) for r, q in zip(t_rat, t_quad))
    image = poly.apply_affine(M, t)
    x, y = (
        tuple(a + b for a, b in zip(mat_vec(M, sample_interior(poly, rng)), t))
        for _ in range(2)
    )
    assert_fibre_matches_point(image, x, y)


class TestFibre:
    def test_fields(self):
        f = preset("s2s2_monotone").fibre((0, Fraction(1, 2)))
        assert f.point == as_point((0, Fraction(1, 2)))
        assert f.ell == as_point((1, Fraction(1, 2), 1, Fraction(3, 2)))
        assert (f.d, f.active) == (scalar(Fraction(1, 2)), (1,))
        assert f.reduced() == as_point((Fraction(1, 2), Fraction(1, 2), 1))

    def test_own_fibre_returned_as_is(self):
        poly = preset("cp2")
        f = poly.fibre((0, 0))
        assert poly.fibre(f) is f

    def test_fibre_of_another_polytope_is_checked_again(self):
        cn2, cp2 = preset("cn(2)"), preset("cp2")
        outside = cn2.fibre((1, 3))  # l = (2, 4, -3) in cp2
        calls = [cp2.fibre, cp2.invariants, cp2.de_germ,
                 lambda x: probe.shoot(cp2, x, (1, 0)),
                 lambda x: probe.enumerate_probes(cp2, x, 1),
                 lambda x: explore(cp2, x, OrbitParams(max_norm=1)),
                 lambda x: decide(cp2, x, (0, 0), OrbitParams(max_norm=1)),
                 lambda x: monodromy.solve_ambient(cp2, (0, 0), x, bound=1),
                 lambda x: monodromy.check_ambient(cp2, x, (0, 0), identity(3)),
                 delzant_lift(cp2).lift_point]
        for call in calls:
            with pytest.raises(NotInterior) as got:
                call(outside)
            assert str(got.value) == "(1, 3) is not in the open polytope"
        inside = cn2.fibre((Fraction(1, 5), Fraction(1, 2)))
        again = cp2.fibre(inside)
        assert again.poly is cp2 and again.point == inside.point
        assert again.ell == cp2.ell(inside.point) != inside.ell
        # an equal polytope is another polytope: its fibres are made anew
        twin = preset("cp2")
        f = cp2.fibre((0, 0))
        assert twin.fibre(f) is not f and twin.fibre(f).poly is twin
        assert twin.fibre(f) == f
