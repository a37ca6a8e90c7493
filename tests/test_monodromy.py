"""Holonomy groups and the ambient monodromy constraint solver."""

import itertools
import random
import sys
from collections import deque
from fractions import Fraction
from pathlib import Path

import pytest

from delzant import OrbitGraph, OrbitParams, as_point, explore, preset
from delzant.errors import BaseNotInGraph, NotReductionType
from delzant.lattice import (
    ExactScalar, identity, mat_det, mat_mul, mat_vec, unimodular_inverse,
)
from delzant.monodromy import (
    MatrixGroup,
    check_ambient,
    holonomy_group,
    mulclose,
    solve_ambient,
)
from delzant.orbit import ProbeMove
from delzant.probe import involution, shoot
from test_polytope import sample_interior


def _graph(name, x, max_norm=2, window=None, max_points=200):
    return explore(
        preset(name), x, OrbitParams(max_norm=max_norm, window=window,
                                     max_points=max_points)
    )


class TestHolonomy:
    def test_s2s2_table(self):
        cases = [
            ((0, 0), {((-1, 0), (0, -1)), ((-1, 0), (0, 1)), ((1, 0), (0, -1)),
                      ((1, 0), (0, 1))}),
            ((Fraction(1, 2), Fraction(1, 2)), {((0, 1), (1, 0)), ((1, 0), (0, 1))}),
            ((0, Fraction(1, 2)), {((-1, 0), (0, 1)), ((1, 0), (0, 1))}),
            ((Fraction(1, 5), Fraction(1, 2)), {((1, 0), (0, 1))}),
        ]
        for x, expected in cases:
            group = holonomy_group(_graph("s2s2_monotone", x), x, cap=64)
            assert not group.truncated
            assert set(group.elements) == expected

    def test_cxs2_infinite(self):
        graph = _graph("c_x_s2", (1, 0), max_norm=2, window=((-1, 6), (-1, 1)))
        group = holonomy_group(graph, (1, 0), cap=40)
        assert group.truncated
        for m in group.elements:
            assert m[0] == (1, 0)
            assert m[1][0] % 2 == 0 and m[1][1] in (1, -1)

    def test_base_membership(self):
        graph = _graph("s2s2_monotone", (0, 0))
        with pytest.raises(BaseNotInGraph):
            holonomy_group(graph, (Fraction(1, 7), 0))

    def test_base_not_in_graph_names_the_point(self):
        graph = _graph("s2s2_monotone", (0, 0))
        with pytest.raises(BaseNotInGraph, match=r"base point \(1/7, -1\) is not a stored node"):
            holonomy_group(graph, (Fraction(1, 7), -1))

    def test_generators_permute_distinguished(self):
        # every holonomy element permutes the minimal-distance normals
        rng = random.Random(59)
        for name in ("cp2", "s2s2_monotone", "c_x_s2"):
            poly = preset(name)
            for _ in range(6):
                x = sample_interior(poly, rng)
                window = ((-8, 8),) * poly.dim
                graph = explore(
                    poly, x, OrbitParams(max_norm=2, window=window, max_points=60)
                )
                group = holonomy_group(graph, x, cap=48)
                values = poly.ell(x)
                d = min(values)
                dist = {
                    poly.facets[i].normal
                    for i, v in enumerate(values)
                    if v == d
                }
                for m in group.elements:
                    assert mat_det(m) in (1, -1)
                    assert {mat_vec(m, xi) for xi in dist} == dist

    def test_group_stable_under_base_choice(self):
        x = (Fraction(1, 5), Fraction(1, 2))
        graph = _graph("s2s2_monotone", x)
        for other in graph.nodes:
            g = holonomy_group(graph, other, cap=32)
            assert set(g.elements) == {((1, 0), (0, 1))}

    def test_group_independent_of_spanning_tree(self):
        # reversing the edge list changes the BFS tree, not the group
        from delzant.orbit import OrbitGraph

        cases = [
            ("s2s2_monotone", (Fraction(1, 5), Fraction(1, 2))),
            ("s2s2_monotone", (Fraction(1, 2), Fraction(1, 2))),
            ("s2s2_monotone", (0, 0)),
            ("cp2", (Fraction(-1, 5), Fraction(-1, 5))),
        ]
        for name, x in cases:
            graph = _graph(name, x)
            reversed_graph = OrbitGraph(
                graph.root, graph.nodes, list(reversed(graph.edges)),
                graph.truncated, graph.parents,
            )
            a = holonomy_group(graph, x, cap=64)
            b = holonomy_group(reversed_graph, x, cap=64)
            assert set(a.elements) == set(b.elements)


def _mulclose_reference(generators, cap):
    """The closure with the final inverse pass run whether truncated or not."""
    gens = []
    for g in generators:
        g = tuple(tuple(row) for row in g)
        if g not in gens:
            gens.append(g)
    seed = set(gens) | {identity(len(gens[0]))} | {unimodular_inverse(g) for g in gens}
    elements, frontier, truncated = set(seed), list(seed), False
    while frontier and not truncated:
        new = []
        for a in gens:
            for b in frontier:
                c = mat_mul(a, b)
                if c not in elements:
                    if len(elements) >= cap:
                        truncated = True
                        break
                    elements.add(c)
                    new.append(c)
            if truncated:
                break
        frontier = new
    for g in list(elements):
        elements.add(unimodular_inverse(g))
    return tuple(sorted(elements)), truncated


def _probe_involution(rng, n):
    """I + (xi' - xi) v^T with <v, xi> = 1 and <v, xi'> = -1, small entries."""
    box = list(itertools.product(range(-2, 3), repeat=n))
    while True:
        v = rng.choice(box)
        xi = [w for w in box if sum(a * b for a, b in zip(v, w)) == 1]
        xi2 = [w for w in box if sum(a * b for a, b in zip(v, w)) == -1]
        if xi and xi2:
            p, q = rng.choice(xi), rng.choice(xi2)
            return tuple(
                tuple(int(i == j) + (q[i] - p[i]) * v[j] for j in range(n))
                for i in range(n)
            )


class TestMulclose:
    def test_matches_reference_on_probe_involutions(self):
        rng = random.Random(83)
        complete = 0
        for i in range(60):
            n = 2 + i % 2
            gens = [_probe_involution(rng, n) for _ in range(rng.randint(2, 3))]
            for cap in (32, 64):
                group = mulclose(gens, cap)
                assert (group.elements, group.truncated) == _mulclose_reference(gens, cap)
                complete += not group.truncated
        assert complete >= 10  # the untruncated path, which skips the inverse pass

    def test_float_cap_rejected(self):
        # a float cap once ran and showed up in MatrixGroup.to_json
        with pytest.raises(TypeError):
            mulclose([((1, 1), (0, 1))], cap=2.5)
        graph = _graph("cp2", (0, 0), max_norm=1)
        with pytest.raises(TypeError):
            holonomy_group(graph, (0, 0), cap=2.5)

    def test_cap_below_one_rejected(self):
        with pytest.raises(ValueError):
            mulclose([((1, 1), (0, 1))], cap=0)
        graph = _graph("cp2", (0, 0), max_norm=1)
        with pytest.raises(ValueError):
            holonomy_group(graph, (0, 0), cap=0)

    def test_finite_closure(self):
        gens = [((-1, 0), (0, 1)), ((1, 0), (0, -1))]
        group = mulclose(gens, cap=64)
        assert not group.truncated
        assert len(group.elements) == 4

    @pytest.mark.parametrize("cap, truncated", [(7, True), (8, False), (9, False)])
    def test_truncated_only_when_the_group_is_larger(self, cap, truncated):
        # D4, of order 8: holding all 8 elements at cap 8 is a complete closure
        group = mulclose([((0, 1), (1, 0)), ((-1, 0), (0, 1))], cap)
        assert group.truncated is truncated
        assert len(group.elements) == (7 if truncated else 8)

    def test_inverse_closed_when_truncated(self):
        shear = ((1, 1), (0, 1))
        group = mulclose([shear], cap=10)
        assert group.truncated
        for m in group.elements:
            assert unimodular_inverse(m) in group.elements


class TestSolveAmbient:
    def test_monotone_center(self):
        out = solve_ambient(preset("s2s2_monotone"), (0, 0), (0, 0), bound=3)
        assert out.kind == "solutions"
        induced = sorted(set(s.induced for s in out.solutions))
        assert induced == [
            ((-1, 0), (0, -1)),
            ((-1, 0), (0, 1)),
            ((1, 0), (0, -1)),
            ((1, 0), (0, 1)),
        ]

    def test_s2s2_segment_infeasible(self):
        out = solve_ambient(
            preset("s2s2_monotone"),
            (Fraction(1, 5), Fraction(1, 2)),
            (Fraction(3, 10), Fraction(1, 2)),
            bound=4,
        )
        assert out.kind == "infeasible"
        assert out.certificates

    def test_cp2_pair_infeasible(self):
        out = solve_ambient(
            preset("cp2"),
            (Fraction(-1, 2), Fraction(-1, 5)),
            (Fraction(-1, 2), Fraction(1, 10)),
            bound=5,
        )
        assert out.kind == "infeasible"
        # determinant-stage certificate: affine det never +-1
        assert any(c.get("kind") == "determinant" for c in out.certificates)

    def test_identity_always_present(self):
        rng = random.Random(61)
        for name in ("cp2", "s2s2_monotone", "c_x_s2", "cn(3)"):
            poly = preset(name)
            x = sample_interior(poly, rng)
            out = solve_ambient(poly, x, x, bound=2)
            assert out.kind == "solutions"
            assert any(s.A == identity(poly.nfacets) for s in out.solutions)

    def test_superset_of_holonomy(self):
        cases = [
            ("s2s2_monotone", (0, 0), 2, None),
            ("s2s2_monotone", (Fraction(1, 2), Fraction(1, 2)), 2, None),
            ("c_x_s2", (1, 0), 2, ((-1, 6), (-1, 1))),
        ]
        for name, x, norm, window in cases:
            poly = preset(name)
            graph = explore(
                poly, x, OrbitParams(max_norm=norm, window=window, max_points=60)
            )
            hol = holonomy_group(graph, x, cap=16)
            out = solve_ambient(poly, x, x, bound=8)
            induced = {s.induced for s in out.solutions}
            for m in hol.elements:
                assert m in induced

    def test_negative_bound_rejected(self):
        x = (Fraction(-1, 2), Fraction(-1, 5))
        with pytest.raises(ValueError):
            solve_ambient(preset("cp2"), x, x, bound=-1)
        assert solve_ambient(preset("cp2"), x, x, bound=0).kind == "solutions"

    def test_float_bound_rejected_on_every_path(self):
        # with unequal invariants a float bound once came back in to_json
        poly = preset("cp2")
        x, y = (Fraction(-1, 2), Fraction(-1, 5)), (0, 0)
        assert solve_ambient(poly, x, y, bound=2).kind == "infeasible"
        for y in (x, (0, 0)):
            with pytest.raises(TypeError):
                solve_ambient(poly, x, y, bound=2.5)
            with pytest.raises(TypeError):
                solve_ambient(poly, x, y, bound=2.0)

    def test_invariants_certificate_holds_scalars(self):
        """The distances d of an invariants certificate are the scalars
        themselves; `to_json` writes them as their grammar text."""
        x, y = (Fraction(-1, 2), Fraction(-1, 5)), (0, 0)
        out = solve_ambient(preset("cp2"), x, y, bound=2)
        (cert,) = out.certificates
        assert cert["kind"] == "invariants"
        assert [type(v) for v in cert["d"]] == [ExactScalar, ExactScalar]
        assert cert["d"] == [Fraction(1, 2), 1]
        assert out.to_json()["certificates"][0]["d"] == ["1/2", "1"]

    def test_not_reduction_type(self):
        with pytest.raises(NotReductionType):
            solve_ambient(preset("ts1_x_s2"), (0, 0), (0, 0), bound=2)

    def test_solutions_pass_check(self):
        poly = preset("cp2")
        x = (Fraction(-1, 2), Fraction(-1, 5))
        out = solve_ambient(poly, x, x, bound=2)
        for sol in out.solutions:
            report = check_ambient(poly, x, x, sol.A)
            assert report.all_pass
            assert report.induced == sol.induced


class TestCheckAmbient:
    def test_identity(self):
        poly = preset("s2s2_monotone")
        report = check_ambient(poly, (0, 0), (0, 0), identity(4))
        assert report.all_pass and report.induced == identity(2)

    def test_swap_fails_h2(self):
        poly = preset("s2s2_monotone")
        A = ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        report = check_ambient(poly, (0, 0), (0, 0), A)
        assert not report.h2
        assert report.distinguished and report.maslov

    def test_cxs2_realization(self):
        # the column matrix realizing the shear holonomy at (1, 0)
        poly = preset("c_x_s2")
        out = solve_ambient(poly, (1, 0), (1, 0), bound=2)
        target = ((1, 0), (2, -1))
        match = [s for s in out.solutions if s.induced == target]
        assert match
        report = check_ambient(poly, (1, 0), (1, 0), match[0].A)
        assert report.all_pass


# -- the holonomy group that keyed its edges by their end points ---------------


def reference_holonomy_group(graph, base, cap=256):
    """holonomy_group as it identified each edge by its end points, probe
    direction and facets, and walked it backwards as a reversed move."""

    def key(move):
        p = move.probe
        return (frozenset((move.source, move.target)), p.direction, p.entry_facet,
                p.exit_facet)

    base = as_point(base)
    n = len(base)
    adjacency = {}
    for move in graph.edges:
        adjacency.setdefault(move.source, []).append(move)
        adjacency.setdefault(move.target, []).append(move.reversed())
    transport = {base: identity(n)}
    tree = set()
    queue = deque([base])
    while queue:
        u = queue.popleft()
        for move in adjacency.get(u, []):
            if move.target not in transport:
                transport[move.target] = mat_mul(move.transport, transport[u])
                tree.add(key(move))
                queue.append(move.target)
    generators = [
        mat_mul(unimodular_inverse(transport[m.target]),
                mat_mul(m.transport, transport[m.source]))
        for m in graph.edges
        if key(m) not in tree and m.source in transport and m.target in transport
    ]
    generators = [g for g in generators if g != identity(n)]
    if not generators:
        return MatrixGroup((), (identity(n),), False, cap)
    return mulclose(generators, cap)


def assert_holonomy_matches_reference(graph, cap):
    for base in {graph.nodes[0], graph.nodes[-1]}:
        group = holonomy_group(graph, base, cap=cap)
        assert group == reference_holonomy_group(graph, base, cap=cap)


@pytest.mark.parametrize("name", ["cp2", "s2s2_monotone", "c_x_s2", "ts1_x_s2",
                                  "c2_x_ts1", "cn(2)", "cn(3)"])
def test_holonomy_matches_the_edge_key_reference_on_presets(name):
    poly = preset(name)
    rng = random.Random(149)
    points = [poly.interior_point()] + [sample_interior(poly, rng) for _ in range(3)]
    # points on symmetry walls, where groups are not trivial
    walls = [(0, 0), (1, 0), (1, 1), (0, Fraction(1, 2)), (1, 1, 1), (1, 2, 1)]
    points += [p for p in walls if len(p) == poly.dim and poly.is_interior(p)]
    for x in points:
        params = OrbitParams(max_norm=2, max_points=40, max_depth=6,
                             window=tuple((c - 3, c + 3) for c in x))
        assert_holonomy_matches_reference(explore(poly, x, params), cap=64)


def test_holonomy_matches_the_edge_key_reference_on_the_benchmark_cases():
    perfbench = str(Path(__file__).resolve().parent.parent / "perfbench")
    sys.path.insert(0, perfbench)
    try:
        import workloads
    finally:
        sys.path.remove(perfbench)
    for name, norm, window, cap in workloads._HOLONOMY_CASES:
        for x in workloads._HOLONOMY_POINTS[name]:
            graph = explore(preset(name), x,
                            OrbitParams(max_norm=norm, window=window, max_points=60))
            assert_holonomy_matches_reference(graph, cap)


def test_holonomy_matches_the_edge_key_reference_on_hand_built_graphs():
    # cn(2) at (1, 1): the probe along (1, -1) has its midpoint there, so
    # its move is a self-loop; (1, 3) <-> (3, 1) is one move walked twice
    poly = preset("cn(2)")
    loop_probe = shoot(poly, (1, 1), (1, -1))
    a, b = as_point((1, 3)), as_point((3, 1))
    sigma = shoot(poly, a, (1, -1))
    move = ProbeMove(sigma, a, b, involution(sigma))
    loop = ProbeMove(loop_probe, as_point((1, 1)), as_point((1, 1)), involution(loop_probe))
    graphs = [
        OrbitGraph(loop.source, [loop.source], [loop], False),
        OrbitGraph(a, [a, b], [move, move], False),
        OrbitGraph(a, [a, b], [move, move.reversed()], False),
        OrbitGraph(a, [a, b], [move.reversed(), move], False),
    ]
    for graph in graphs:
        assert_holonomy_matches_reference(graph, cap=16)
    assert holonomy_group(graphs[0], loop.source).generators == (involution(loop_probe),)
    assert holonomy_group(graphs[1], a).generators == ()
