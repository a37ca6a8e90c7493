"""Orbit exploration and the equivalence decision procedure."""

import random
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from delzant import (
    DelzantPolytope,
    OrbitParams,
    Verdict,
    as_point,
    decide,
    explore,
    lattice,
    monodromy,
    preset,
    probe,
    scalar,
)
from delzant.errors import (
    DimensionMismatch,
    HitsLowerFace,
    NotInterior,
    NotTransverse,
    UnboundedRay,
)
from delzant.orbit import ProbeMove, _graph, _path, _search, replay_path
from delzant.polytope import point_str
from delzant.probe import (
    SymmetricProbe,
    canonical_directions,
    involution,
    partner,
    shoot,
)
from delzant.spaces import oracle_orbit

from test_polytope import fractions, sample_interior, unimodular_2x2


@pytest.mark.parametrize("caps", [
    dict(max_norm=2.0), dict(max_norm=1, max_points=2.5), dict(max_norm=1, max_depth=3.5),
])
def test_float_caps_rejected(caps):
    with pytest.raises(TypeError):
        OrbitParams(**caps)


def test_inconclusive_ambient_stage_is_not_called_solvable():
    # caps block the swap path, and the cn(5) box is too large to sweep
    poly, x, y = preset("cn(5)"), (1, 2, 3, 4, 5), (1, 2, 3, 5, 4)
    outcome = monodromy.solve_ambient(poly, x, y, bound=3)
    assert (outcome.kind, outcome.solutions, outcome.certificates) == ("inconclusive", (), ())
    verdict = decide(poly, x, y, OrbitParams(max_norm=1, max_points=1))
    assert verdict == Verdict("unknown", reason="no probe path within caps; ambient"
                              " constraints undecided within bound 3")


def test_window_checked_at_construction():
    # a reversed range was once taken and answered with
    with pytest.raises(ValueError, match="empty window range"):
        OrbitParams(max_norm=1, window=((Fraction(1, 2), 2), (1, 0)))
    with pytest.raises(TypeError):
        OrbitParams(max_norm=1, window=((0.5, 2), (0, 1)))
    params = OrbitParams(max_norm=1, window=((Fraction(1, 2), None), ("1+1√2", 3)))
    assert params.window == ((scalar(Fraction(1, 2)), None), (scalar(1, 1, 2), scalar(3)))


class TestExplore:
    def test_ts1_window(self):
        graph = explore(
            preset("ts1_x_s2"),
            (0, Fraction(1, 2)),
            OrbitParams(max_norm=3, window=((-3, 3), (-1, 1))),
        )
        expected = {
            as_point((k, s * Fraction(1, 2)))
            for k in range(-3, 4)
            for s in (1, -1)
        }
        assert set(graph.nodes) == expected
        assert len(graph.nodes) == 14
        assert graph.truncated  # the true orbit continues past the window

    def test_s2s2_counts(self):
        poly = preset("s2s2_monotone")
        for x, count in (
            ((Fraction(1, 5), Fraction(1, 2)), 8),
            ((Fraction(1, 2), Fraction(1, 2)), 4),
            ((0, Fraction(1, 2)), 4),
            ((0, 0), 1),
        ):
            graph = explore(poly, x, OrbitParams(max_norm=2))
            assert len(graph.nodes) == count
            assert not graph.truncated

    def test_c3_breadth(self):
        graph = explore(
            preset("cn(3)"),
            (1, 2, 3),
            OrbitParams(max_norm=1, window=((0, 10),) * 3, max_points=200),
        )
        assert len(graph.nodes) >= 50
        nodes = set(graph.nodes)
        for k in range(3, 11):
            target = as_point((1, 2, k))
            assert any(tuple(sorted(p)) == target for p in nodes), k

    def test_deterministic(self):
        poly = preset("c_x_s2")
        params = OrbitParams(max_norm=3, window=((-1, 6), (-1, 1)))
        a = explore(poly, (0, Fraction(1, 2)), params)
        b = explore(poly, (0, Fraction(1, 2)), params)
        assert a.nodes == b.nodes
        assert [m.to_json() for m in a.edges] == [m.to_json() for m in b.edges]

    def test_invariants_constant_along_orbit(self):
        # the obstruction triple is constant on every reduction-type orbit
        rng = random.Random(53)
        for name in ("cp2", "s2s2_monotone", "c_x_s2", "cn(3)"):
            poly = preset(name)
            window = (((-6, 6) if name != "cn(3)" else (0, 8)),) * poly.dim
            for _ in range(5):
                x = sample_interior(poly, rng)
                graph = explore(
                    poly, x, OrbitParams(max_norm=2, window=window, max_points=60)
                )
                ref = poly.invariants(x)
                for node in graph.nodes:
                    inv = poly.invariants(node)
                    assert (inv.d, inv.count, inv.gamma) == (
                        ref.d,
                        ref.count,
                        ref.gamma,
                    )

    def test_paths_replay(self):
        graph = explore(
            preset("cn(3)"),
            (1, 2, 3),
            OrbitParams(max_norm=1, window=((0, 8),) * 3, max_points=60),
        )
        for node in graph.nodes[1:]:
            assert replay_path(graph.root, graph.path_to(node)) == node

    def test_matches_oracles_with_generous_caps(self):
        window = ((0, 5),) * 3
        graph = explore(
            preset("cn(3)"),
            (1, 2, 3),
            OrbitParams(max_norm=3, window=window, max_points=4000, max_depth=10),
        )
        assert sorted(graph.nodes) == oracle_orbit("cn(3)", (1, 2, 3), window)

    def test_window_required_for_root(self):
        with pytest.raises(NotInterior):
            explore(
                preset("cn(2)"),
                (1, 1),
                OrbitParams(max_norm=1, window=((2, 3), (2, 3))),
            )

    @pytest.mark.parametrize("window", [((0, 9),), ((0, 9),) * 3])
    def test_window_length_checked(self, window):
        params = OrbitParams(max_norm=1, window=window)
        with pytest.raises(DimensionMismatch):
            explore(preset("cn(2)"), (1, 3), params)
        for y in ((3, 1), (1, 3)):  # also when x == y
            with pytest.raises(DimensionMismatch):
                decide(preset("cn(2)"), (1, 3), y, params)

    def test_point_cap_truncates(self):
        graph = explore(
            preset("ts1_x_s2"),
            (0, Fraction(1, 2)),
            OrbitParams(max_norm=1, max_points=5, window=((-9, 9), (-1, 1))),
        )
        assert graph.truncated
        assert len(graph.nodes) == 5


class TestDecide:
    # (2/5, 3/10) lies outside this window, (2/5, 1/10) inside it
    S2S2_WINDOW = ((Fraction(-1, 2), Fraction(1, 2)), (Fraction(-1, 4), Fraction(1, 4)))

    @pytest.mark.parametrize("x, y", [
        ((Fraction(2, 5), Fraction(1, 10)), (Fraction(2, 5), Fraction(3, 10))),
        ((Fraction(2, 5), Fraction(3, 10)), (Fraction(2, 5), Fraction(1, 10))),
    ], ids=["y-outside", "x-outside"])
    def test_endpoint_outside_the_window_gets_an_answer(self, x, y):
        # this once raised NotInterior: the window cap turned an answer into an error
        poly = preset("s2s2_monotone")
        params = OrbitParams(max_norm=2, max_points=60, window=self.S2S2_WINDOW)
        verdict = decide(poly, x, y, params)
        unbounded = decide(poly, x, y, OrbitParams(max_norm=2, max_points=60))
        assert verdict.to_json() == unbounded.to_json()
        assert verdict.kind == "distinct" and "integer-infeasible" in verdict.reason
        with pytest.raises(NotInterior, match="lies outside the window"):
            explore(poly, (Fraction(2, 5), Fraction(3, 10)), params)

    def test_c2_swap(self):
        verdict = decide(
            preset("cn(2)"), (1, 3), (3, 1), OrbitParams(max_norm=1, max_points=40)
        )
        assert verdict.kind == "equivalent"
        assert len(verdict.path) == 1
        assert replay_path((1, 3), verdict.path) == as_point((3, 1))

    def test_cp2_pair_distinct_by_ambient(self):
        verdict = decide(
            preset("cp2"),
            (Fraction(-1, 2), Fraction(-1, 5)),
            (Fraction(-1, 2), Fraction(1, 10)),
            OrbitParams(max_norm=2, max_points=60, max_depth=8),
        )
        assert verdict.kind == "distinct"
        assert "ambient" in verdict.reason

    def test_s2s2_distinct(self):
        verdict = decide(
            preset("s2s2_monotone"),
            (Fraction(1, 5), Fraction(1, 2)),
            (Fraction(3, 10), Fraction(1, 2)),
            OrbitParams(max_norm=2, max_points=60),
        )
        assert verdict.kind == "distinct"

    def test_equal_points(self):
        verdict = decide(
            preset("cp2"), (0, 0), (0, 0), OrbitParams(max_norm=2, max_points=20)
        )
        assert verdict.kind == "equivalent" and verdict.path == ()

    def test_multistep_path_replays(self):
        verdict = decide(
            preset("cn(3)"),
            (1, 2, 3),
            (2, 1, 5),
            OrbitParams(max_norm=1, window=((0, 9),) * 3, max_points=150),
        )
        assert verdict.kind == "equivalent"
        assert replay_path((1, 2, 3), verdict.path) == as_point((2, 1, 5))

    def test_bidirectional_meet_with_tight_caps(self):
        # neither side reaches the other within 40 points, the middle does
        verdict = decide(
            preset("cn(3)"),
            (1, 2, 3),
            (1, 2, 9),
            OrbitParams(max_norm=1, window=((0, 12),) * 3, max_points=40,
                        max_depth=16),
        )
        assert verdict.kind == "equivalent"
        assert replay_path((1, 2, 3), verdict.path) == as_point((1, 2, 9))

    def test_unknown_when_path_outside_caps(self):
        # genuinely equivalent, but the connecting path outgrows the caps;
        # the ambient system is solvable, so the honest verdict is unknown
        verdict = decide(
            preset("cn(3)"),
            (1, 2, 3),
            (1, 2, 50),
            OrbitParams(max_norm=1, window=((0, 50),) * 3, max_points=12,
                        max_depth=3),
        )
        assert verdict.kind == "unknown"
        assert "solvable" in verdict.reason

    def test_unknown_when_not_reduction_type(self):
        # same invariants, unbridgeable via small caps in the T*S1 factor
        verdict = decide(
            preset("c2_x_ts1"),
            (1, 2, 0),
            (1, 2, Fraction(1, 2)),
            OrbitParams(max_norm=1, window=((0, 4), (0, 4), (-2, 2)), max_points=40),
        )
        assert verdict.kind == "unknown"
        assert "normals" in verdict.reason


# -- the shoot/partner BFS that the distance-vector solver replaced -------------


def reference_shoot(poly, x, v):
    """Shoot by walking the ray from x both ways, re-deriving l(x) each call."""
    x = poly.fibre(x).point
    v = tuple(int(c) for c in v)
    values = poly.ell(x)

    def first_hit(forward):
        best_t = None
        best = []
        for i, f in enumerate(poly.facets):
            pairing = lattice.dot(v, f.normal)
            p = pairing if not forward else -pairing
            if p <= 0:
                continue
            t = values[i] / p
            if best_t is None or t < best_t:
                best_t, best = t, [i]
            elif t == best_t:
                best.append(i)
        if best_t is None:
            side = "+v" if forward else "-v"
            raise UnboundedRay(f"ray {side} from {point_str(x)} never exits")
        if len(best) > 1:
            raise HitsLowerFace(f"probe endpoint lies on facets {best} simultaneously")
        i = best[0]
        pairing = lattice.dot(v, poly.facets[i].normal)
        if abs(pairing) != 1:
            raise NotTransverse(f"pairing <v, xi_{i}> = {pairing} at the hit facet")
        return best_t, i

    t_plus, exit_idx = first_hit(forward=True)
    t_minus, entry_idx = first_hit(forward=False)
    return SymmetricProbe(
        direction=v,
        entry_facet=entry_idx,
        exit_facet=exit_idx,
        entry_point=tuple(c - t_minus * vc for c, vc in zip(x, v)),
        length=t_minus + t_plus,
        entry_normal=poly.facets[entry_idx].normal,
        exit_normal=poly.facets[exit_idx].normal,
    )


def reference_probes(poly, x, max_norm):
    probes = []
    for v in canonical_directions(poly.dim, max_norm):
        try:
            probes.append(reference_shoot(poly, x, v))
        except (UnboundedRay, HitsLowerFace, NotTransverse):
            continue
    return probes


def reference_explore(poly, x, params):
    """explore() as one shoot and one partner call per direction and node."""
    root = poly.fibre(x).point
    nodes, edges, parents = [root], [], {}
    edge_keys = set()
    in_window, depth, queued = {root: True}, {root: 0}, {root}
    truncated = False
    queue = deque([root])
    while queue:
        u = queue.popleft()
        if depth[u] >= params.max_depth:
            truncated = True
            continue
        for sigma in reference_probes(poly, u, params.max_norm):
            v = partner(sigma, u)
            move = ProbeMove(sigma, u, v, involution(sigma))
            if v not in in_window:
                inside = params.in_window(v)
                if inside and len(nodes) >= params.max_points:
                    truncated = True
                    continue
                in_window[v] = inside
                depth[v] = depth[u] + 1
                parents[v] = (u, move)
                if inside:
                    nodes.append(v)
                    queue.append(v)
                    queued.add(v)
                else:
                    truncated = True
            if not in_window[v] and in_window[u] and v not in queued:
                queue.append(v)
                queued.add(v)
            if in_window[u] and in_window[v]:
                a, b = sorted([u, v])
                key = (a, b, sigma.direction, sigma.entry_facet, sigma.exit_facet)
                if key not in edge_keys:
                    edge_keys.add(key)
                    edges.append(move)
    return nodes, edges, parents, truncated


# the orbit caps of the decide_mix benchmark workload, one per preset
DECIDE_PARAMS = {
    "s2s2_monotone": dict(max_norm=2, max_points=60),
    "cp2": dict(max_norm=2, max_points=60, max_depth=8),
    "c_x_s2": dict(max_norm=3, max_points=100, window=((-1, 6), (-1, 1))),
    "ts1_x_s2": dict(max_norm=3, max_points=100, window=((-3, 3), (-1, 1))),
    "c2_x_ts1": dict(max_norm=1, max_points=40, window=((0, 4), (0, 4), (-2, 2))),
    "cn(2)": dict(max_norm=1, max_points=40, window=((0, 9), (0, 9))),
    "cn(3)": dict(max_norm=1, max_points=40, max_depth=16, window=((0, 12),) * 3),
}


def assert_matches_reference(poly, x, params):
    """explore() against reference_explore, record by record: JSON sees
    the type of each value, and `==` and `hash` also see the facet normals
    that JSON leaves out.  decide's `_path` and `graph.path_to` build their
    moves through one builder, and must agree on every point reached."""
    graph = explore(poly, x, params)
    nodes, edges, parents, truncated = reference_explore(poly, x, params)
    assert graph.nodes == nodes
    # JSON tells an ExactScalar from the int or Fraction it equals
    assert [e.to_json() for e in graph.edges] == [e.to_json() for e in edges]
    assert [(p, parent, m.to_json()) for p, (parent, m) in graph.parents.items()] == [
        (p, parent, m.to_json()) for p, (parent, m) in parents.items()
    ]
    assert graph.edges == edges
    assert [(p, parent, m) for p, (parent, m) in graph.parents.items()] == [
        (p, parent, m) for p, (parent, m) in parents.items()
    ]
    moves = graph.edges + [m for _, m in graph.parents.values()]
    reference_moves = edges + [m for _, m in parents.values()]
    assert list(map(hash, moves)) == list(map(hash, reference_moves))
    assert graph.truncated == truncated
    search = _search(poly, x, params)
    for v, rec in enumerate(search.records):
        assert _path(poly, search, v) == graph.path_to(search.grid.unpack(rec[0]))


class TestAgainstReference:
    @pytest.mark.parametrize("name", sorted(DECIDE_PARAMS))
    def test_presets(self, name):
        poly = preset(name)
        params = OrbitParams(**DECIDE_PARAMS[name])
        rng = random.Random(61)
        points = [sample_interior(poly, rng) for _ in range(4)]
        # points on symmetry walls, where probe endpoints hit lower faces
        points += [p for p in (poly.interior_point(), (1, 1), (1, 1, 1), (0, 0))
                   if len(p) == poly.dim and poly.is_interior(p)]
        for x in points:
            if params.in_window(as_point(x)):
                assert_matches_reference(poly, x, params)

    def test_sqrt2_orbit(self):
        # the density example of the paper, at the benchmark's caps
        params = OrbitParams(max_norm=1, max_points=150, window=((0, 6),) * 3)
        assert_matches_reference(preset("cn(3)"), (1, 2, scalar(1, 1, 2)), params)

    def test_each_move_built_once(self, monkeypatch):
        """explore builds one probe per distinct move of its graph, and
        decide one per move of the path it returns: none twice, none
        deferred."""
        calls = []
        build_probe = probe.build_probe

        def counted(*args):
            calls.append(args)
            return build_probe(*args)

        monkeypatch.setattr(probe, "build_probe", counted)
        poly, x = preset("cn(3)"), (1, 2, scalar(1, 1, 2))
        params = OrbitParams(max_norm=1, max_points=150, window=((0, 6),) * 3)
        graph = explore(poly, x, params)
        moves = set(graph.edges) | {m for _, m in graph.parents.values()}
        assert len(calls) == len(moves) == 596
        for y in graph.nodes[1::25] + [p for p in graph.parents if p not in graph.nodes][:3]:
            calls.clear()
            verdict = decide(poly, x, y, params)
            assert verdict.kind == "equivalent"
            assert len(calls) == len(verdict.path) > 0

    def test_shoot_errors(self):
        cases = [
            (preset("cn(2)"), (1, 1), (1, 0), UnboundedRay),
            (preset("s2s2_monotone"), (0, 0), (1, 1), HitsLowerFace),
            (preset("s2s2_monotone"), (Fraction(1, 5), Fraction(1, 2)), (2, 1),
             NotTransverse),
        ]
        rng = random.Random(67)
        for name in ("cp2", "s2s2_monotone", "c_x_s2", "ts1_x_s2", "c2_x_ts1", "cn(3)"):
            poly = preset(name)
            points = [sample_interior(poly, rng) for _ in range(3)]
            for x in points + [poly.interior_point()]:
                for v in canonical_directions(poly.dim, 2):
                    for w in (v, tuple(-c for c in v)):
                        cases.append((poly, x, w, None))
        seen = set()
        for poly, x, v, expected in cases:
            try:
                want = reference_shoot(poly, x, v)
            except (UnboundedRay, HitsLowerFace, NotTransverse) as exc:
                want = exc
            if expected is not None:
                assert type(want) is expected
            if isinstance(want, Exception):
                seen.add(type(want))
                with pytest.raises(type(want)) as got:
                    shoot(poly, x, v)
                assert str(got.value) == str(want)
            else:
                assert shoot(poly, x, v) == want
        assert seen == {UnboundedRay, HitsLowerFace, NotTransverse}


# -- the decide that ran two full explores before its meet scan ----------------


def explore_to(poly, x, params, target):
    """The graph of the packed search from x that stops at `target`."""
    return _graph(poly, _search(poly, x, params, as_point(target)))


def reference_decide(poly, x, y, params, targeted=False):
    """decide() with full explores of both sides, then the meet scan; with
    `targeted`, the decide that read its paths off two graphs of explores
    that stop at their targets.  Only an endpoint inside the window is
    explored, and the meet scan needs both graphs."""
    x = poly.fibre(x).point
    y = poly.fibre(y).point
    if x == y:
        return Verdict("equivalent", path=())
    reduction_type = poly.normals_span()
    inv_x = poly.invariants(x)
    inv_y = poly.invariants(y)
    if (inv_x.d, inv_x.count, inv_x.gamma) != (inv_y.d, inv_y.count, inv_y.gamma):
        parts = []
        if inv_x.d != inv_y.d:
            parts.append("d")
        if inv_x.count != inv_y.count:
            parts.append("#_d")
        if inv_x.gamma != inv_y.gamma:
            parts.append("Gamma")
        note = "" if reduction_type else (
            " (normals do not span R^n: the invariants are not a proven"
            " obstruction for this polytope)"
        )
        return Verdict(
            "distinct",
            reason=f"Chekanov invariants differ in {', '.join(parts)}{note}",
            certificate={
                "x": inv_x.to_json(),
                "y": inv_y.to_json(),
                "reduction_type": reduction_type,
            },
        )
    def graph(source, target):
        if not params.in_window(source):
            return None
        if targeted:
            return explore_to(poly, source, params, target)
        return explore(poly, source, params)

    graph_x = graph(x, y)
    if graph_x is not None and y in graph_x.parents:
        return Verdict("equivalent", path=tuple(graph_x.path_to(y)))
    graph_y = graph(y, x)
    if graph_y is not None and x in graph_y.parents:
        backward = [m.reversed() for m in reversed(graph_y.path_to(x))]
        return Verdict("equivalent", path=tuple(backward))
    meet = None
    if graph_x is not None and graph_y is not None:
        for p in graph_x.parents:
            if p in graph_y.parents:
                meet = p
                break
    if meet is not None:
        forward = graph_x.path_to(meet)
        backward = [m.reversed() for m in reversed(graph_y.path_to(meet))]
        return Verdict("equivalent", path=tuple(forward + backward))
    if reduction_type:
        outcome = monodromy.solve_ambient(poly, x, y, bound=3)
        if outcome.kind == "infeasible":
            return Verdict(
                "distinct",
                reason="ambient monodromy constraints are integer-infeasible",
                certificate=outcome,
            )
        if outcome.kind == "inconclusive":
            return Verdict("unknown", reason="no probe path within caps; ambient"
                           f" constraints undecided within bound {outcome.bound}")
        return Verdict(
            "unknown",
            reason="no probe path within caps; ambient constraints are solvable",
        )
    return Verdict(
        "unknown",
        reason=(
            "no probe path within caps; ambient solver unavailable"
            " (normals do not span R^n)"
        ),
    )


def reference_stage(poly, x, y, params):
    """Which full search connects x and y: "x", "y", "meet" or None."""
    graph_x = explore(poly, x, params)
    if as_point(y) in graph_x.parents:
        return "x"
    graph_y = explore(poly, y, params)
    if as_point(x) in graph_y.parents:
        return "y"
    if any(p in graph_y.parents for p in graph_x.parents):
        return "meet"
    return None


def assert_decide_matches_reference(poly, x, y, params):
    verdict = decide(poly, x, y, params)
    assert verdict.to_json() == reference_decide(poly, x, y, params).to_json()
    return verdict


class TestDecideAgainstReference:
    @pytest.mark.parametrize("name", sorted(DECIDE_PARAMS))
    def test_presets(self, name):
        poly = preset(name)
        params = OrbitParams(**DECIDE_PARAMS[name])
        rng = random.Random(71)
        points = [p for p in (sample_interior(poly, rng) for _ in range(8))
                  if params.in_window(p)][:3]
        assert points
        for x in points:
            nodes = explore(poly, x, params).nodes
            for y in nodes[1:6] + nodes[-2:] + points:
                assert_decide_matches_reference(poly, x, y, params)

    # (preset, x, y, caps, stage of the full searches, verdict kind)
    STAGES = [
        ("cn(2)", (1, 3), (3, 1), DECIDE_PARAMS["cn(2)"], "x", "equivalent"),
        ("c_x_s2", (Fraction(-3, 8), Fraction(-7, 8)), (Fraction(25, 8), Fraction(-7, 8)),
         dict(max_norm=3, max_points=8, window=((-1, 6), (-1, 1))), "y", "equivalent"),
        ("cn(3)", (1, 2, 3), (1, 2, 9),
         dict(max_norm=1, window=((0, 12),) * 3, max_points=40, max_depth=16),
         "meet", "equivalent"),
        ("cp2", (Fraction(-1, 2), Fraction(-1, 5)), (Fraction(-1, 2), Fraction(1, 10)),
         DECIDE_PARAMS["cp2"], None, "distinct"),
        ("cn(3)", (1, 2, 3), (1, 2, 50),
         dict(max_norm=1, window=((0, 50),) * 3, max_points=12, max_depth=3),
         None, "unknown"),
        ("c2_x_ts1", (1, 2, 0), (1, 2, Fraction(1, 2)), DECIDE_PARAMS["c2_x_ts1"],
         None, "unknown"),
    ]

    @pytest.mark.parametrize("name, x, y, caps, stage, kind", STAGES)
    def test_every_stage(self, name, x, y, caps, stage, kind):
        poly = preset(name)
        params = OrbitParams(**caps)
        assert reference_stage(poly, x, y, params) == stage
        assert assert_decide_matches_reference(poly, x, y, params).kind == kind

    @pytest.mark.parametrize("name, x, y, caps, stage, kind", STAGES)
    def test_two_distance_vectors_per_decide(self, monkeypatch, name, x, y, caps,
                                             stage, kind):
        # l(x) and l(y) once each, whichever stage decides
        poly, params = preset(name), OrbitParams(**caps)
        calls = []
        ell = DelzantPolytope.ell

        def counted(self, point):
            calls.append(point)
            return ell(self, point)

        monkeypatch.setattr(DelzantPolytope, "ell", counted)
        assert decide(poly, x, y, params).kind == kind
        assert sorted(calls) == sorted([as_point(x), as_point(y)])

    def test_target_reached_in_the_shell(self):
        # (7, 1) lies outside the window; only the one-shell expansion reaches it
        poly = preset("cn(2)")
        params = OrbitParams(max_norm=1, max_points=40, window=((0, 5), (0, 9)))
        x, y = as_point((1, 7)), as_point((7, 1))
        full = explore(poly, x, params)
        assert y in full.parents and y not in full.nodes
        verdict = assert_decide_matches_reference(poly, x, y, params)
        assert verdict.kind == "equivalent"
        assert replay_path(x, verdict.path) == y

    # points are drawn around the interior witness and filtered; on the small
    # presets most draws fall outside, which trips the filter health check
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(st.sampled_from(sorted(DECIDE_PARAMS)), st.data())
    def test_hypothesis_pairs(self, name, data):
        poly = preset(name)
        caps = dict(DECIDE_PARAMS[name])
        wide = OrbitParams(**caps)
        # tighter point caps make some pairs meet, or connect from y only
        caps["max_points"] = data.draw(st.sampled_from((4, 8, caps["max_points"])))
        params = OrbitParams(**caps)
        offsets = st.fractions(min_value=-3, max_value=3, max_denominator=4)

        def point():
            p = tuple(c + data.draw(offsets) for c in poly.interior_point())
            assume(poly.is_interior(p) and params.in_window(as_point(p)))
            return p

        x = point()
        if data.draw(st.booleans()):
            nodes = explore(poly, x, wide).nodes
            y = nodes[data.draw(st.integers(0, len(nodes) - 1))]
        else:
            y = point()
        assert_decide_matches_reference(poly, x, y, params)


class TestExploreTarget:
    def test_stops_at_target_with_the_full_path(self):
        poly = preset("cn(3)")
        params = OrbitParams(max_norm=1, max_points=150, window=((0, 6),) * 3)
        x = (1, 2, scalar(1, 1, 2))
        full = explore(poly, x, params)
        for y in full.nodes[1::7] + [p for p in full.parents if p not in full.nodes][:3]:
            graph = explore_to(poly, x, params, y)
            assert graph.truncated
            # BFS order up to the target, and the target's parent last
            assert list(graph.parents) == list(full.parents)[: len(graph.parents)]
            assert list(graph.parents)[-1] == y
            assert [m.to_json() for m in graph.path_to(y)] == [
                m.to_json() for m in full.path_to(y)
            ]

    def test_unreached_target_leaves_the_full_graph(self):
        poly = preset("s2s2_monotone")
        params = OrbitParams(max_norm=2)
        x = (Fraction(1, 5), Fraction(1, 2))
        full = explore(poly, x, params)
        for target in ((Fraction(3, 10), Fraction(1, 2)), x):
            graph = explore_to(poly, x, params, target)
            assert graph.to_json() == full.to_json()
            assert not graph.truncated
            assert list(graph.parents) == list(full.parents)


# -- the packed core on generated polytopes and across grids -------------------

GENERATED = ("cp2", "s2s2_monotone", "c_x_s2")
SIGNED_PERMUTATIONS = [((s, 0), (0, r)) for s in (1, -1) for r in (1, -1)] + [
    ((0, s), (r, 0)) for s in (1, -1) for r in (1, -1)
]


def affine_image(name, D, M, t_rat, t_quad):
    """(preset, its image under x -> Mx + t, t) for t in Q(sqrt D)^2."""
    base = preset(name)
    t = tuple(scalar(r, q, D) for r, q in zip(t_rat, t_quad))
    return base, base.apply_affine(M, t), t


def moved(M, x, t):
    return tuple(a + b for a, b in zip(lattice.mat_vec(M, x), t))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(GENERATED), st.sampled_from((1, 2, 5)), unimodular_2x2(),
       st.tuples(fractions, fractions), st.tuples(fractions, fractions),
       st.randoms(use_true_random=False))
def test_explore_matches_reference_on_affine_images(name, D, M, t_rat, t_quad, rng):
    """Normal entries beyond +-1 make `_end` cross-multiply, and offsets,
    roots and window bounds in Q(sqrt D) put the orbit on a grid with c > 1."""
    base, image, t = affine_image(name, D, M, t_rat, t_quad)
    root = moved(M, sample_interior(base, rng), t)
    window = tuple((c - 3, c + Fraction(5, 2)) for c in root)
    params = OrbitParams(max_norm=3, max_points=25, max_depth=6, window=window)
    assert_matches_reference(image, root, params)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(GENERATED), st.sampled_from((1, 2, 5)),
       st.sampled_from(SIGNED_PERMUTATIONS),
       st.tuples(fractions, fractions), st.tuples(fractions, fractions),
       st.randoms(use_true_random=False))
def test_explore_is_equivariant(name, D, M, t_rat, t_quad, rng):
    """x -> Mx + t maps the orbit of x onto the orbit of its image when M
    permutes the directions up to max_norm up to sign and the window moves
    along; BFS orders differ, so the node sets are compared."""
    base, image, t = affine_image(name, D, M, t_rat, t_quad)
    x = sample_interior(base, rng)
    window = image_window = None
    if name == "c_x_s2":
        window = ((-1, 6), (-1, 1))
        image_window = []
        for i, row in enumerate(M):
            j = 0 if row[0] else 1
            ends = sorted(row[j] * c for c in window[j])
            image_window.append((t[i] + ends[0], t[i] + ends[1]))
    graph = explore(base, x, OrbitParams(max_norm=2, window=window))
    image_graph = explore(image, moved(M, x, t), OrbitParams(max_norm=2, window=image_window))
    assert not graph.truncated or window is not None
    assert image_graph.truncated == graph.truncated
    assert set(image_graph.nodes) == {moved(M, p, t) for p in graph.nodes}
    assert set(image_graph.parents) == {moved(M, p, t) for p in graph.parents}


class TestPackedGrid:
    """Roots, polytopes, windows and targets whose denominators and fields
    differ, against the scalar references."""

    def test_root_with_mixed_denominators(self):
        poly = preset("s2s2_monotone")
        x = (Fraction(1, 3), scalar(Fraction(1, 2), Fraction(1, 5), 2))
        params = OrbitParams(max_norm=2, max_points=60)
        assert_matches_reference(poly, x, params)
        nodes = explore(poly, x, params).nodes
        assert len(nodes) == 8
        for y in nodes[1:] + [(Fraction(1, 3), Fraction(1, 2))]:
            assert_decide_matches_reference(poly, x, y, params)

    def test_window_bounds_off_the_grid(self):
        window = ((Fraction(-1, 3), Fraction(13, 2)), (Fraction(1, 7), 6),
                  (scalar(Fraction(-1, 5), 1, 2), scalar(5, Fraction(1, 3), 2)))
        params = OrbitParams(max_norm=1, max_points=150, window=window)
        x = (1, 2, scalar(1, 1, 2))
        assert_matches_reference(preset("cn(3)"), x, params)
        graph = explore(preset("cn(3)"), x, params)
        assert len(graph.nodes) > 20 and all(params.in_window(p) for p in graph.nodes)
        for y in graph.nodes[1::9]:
            assert_decide_matches_reference(preset("cn(3)"), x, y, params)

    def test_field_2_offsets(self):
        t = (scalar(0, 1, 2), 0, Fraction(1, 3))
        poly = preset("cn(3)").apply_affine(lattice.identity(3), t)
        assert {f.offset.D for f in poly.facets} == {1, 2} and poly.field_disc == 2
        x = moved(lattice.identity(3), (1, 2, scalar(1, 1, 2)), t)
        params = OrbitParams(max_norm=1, max_points=80,
                             window=tuple((c, c + 6) for c in t))
        assert_matches_reference(poly, x, params)
        nodes = explore(poly, x, params).nodes
        for y in nodes[1::7]:
            assert_decide_matches_reference(poly, x, y, params)

    @pytest.mark.parametrize("window", [
        # the root's own check compares 1+sqrt(2) with 3+sqrt(3)
        ((0, 6), (0, 6), (0, scalar(3, 1, 3))),
        # the root passes; a later point's sqrt(2) part meets the bound
        ((0, 6), (0, scalar(3, 1, 3)), (0, 6)),
    ])
    def test_window_from_another_field(self, window):
        params = OrbitParams(max_norm=1, max_points=60, window=window)
        x = (1, 2, scalar(1, 1, 2))
        with pytest.raises(ValueError, match="mixed quadratic fields"):
            reference_explore(preset("cn(3)"), x, params)
        with pytest.raises(ValueError, match="mixed quadratic fields"):
            explore(preset("cn(3)"), x, params)

    def test_target_off_the_grid(self):
        # the T*S1 coordinate enters no distance, so equal invariants leave
        # y off the grid (c = 1) of x's orbit
        poly, params = preset("c2_x_ts1"), OrbitParams(**DECIDE_PARAMS["c2_x_ts1"])
        x = (1, 2, 0)
        full = explore(poly, x, params)
        for y in ((1, 2, Fraction(1, 7)), (2, 1, scalar(0, 1, 2)), (1, 2)):
            graph = explore_to(poly, x, params, y)
            assert graph.to_json() == full.to_json()
            assert list(graph.parents) == list(full.parents)
        verdict = assert_decide_matches_reference(poly, x, (1, 2, Fraction(1, 7)), params)
        assert verdict.kind == "unknown"


# -- path-only decide against the decide that built both graphs ----------------


def assert_path_only_decide(poly, x, y, params):
    """decide() builds moves only along its path, yet answers as the decide
    that read its paths off the graphs of both targeted explores; every
    path replays.  An endpoint outside the window is never searched from,
    so it gets an answer, not an error."""
    graphs = reference_decide(poly, x, y, params, targeted=True)
    verdict = decide(poly, x, y, params)
    assert verdict.to_json() == graphs.to_json()
    if verdict.kind == "equivalent":
        assert replay_path(x, verdict.path) == poly.fibre(y).point
    return verdict.kind


@pytest.mark.parametrize("name", sorted(DECIDE_PARAMS))
def test_path_only_decide_on_presets(name):
    poly = preset(name)
    wide = OrbitParams(**DECIDE_PARAMS[name])
    rng = random.Random(89)
    points = [p for p in (sample_interior(poly, rng) for _ in range(10))
              if wide.in_window(p)][:4]
    kinds = set()
    # the benchmark caps, and a point cap that makes pairs meet or connect
    # from y only
    for cap in (wide.max_points, 6):
        params = OrbitParams(**dict(DECIDE_PARAMS[name], max_points=cap))
        for x in points:
            reached = list(explore(poly, x, wide).parents)
            for y in reached[:3] + reached[-3:] + points:
                kinds.add(assert_path_only_decide(poly, x, y, params))
    assert "equivalent" in kinds


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(GENERATED), st.sampled_from((1, 2, 5)), unimodular_2x2(),
       st.tuples(fractions, fractions), st.tuples(fractions, fractions),
       st.sampled_from((4, 25)), st.randoms(use_true_random=False))
def test_path_only_decide_on_affine_images(name, D, M, t_rat, t_quad, cap, rng):
    base, image, t = affine_image(name, D, M, t_rat, t_quad)
    x = moved(M, sample_interior(base, rng), t)
    window = tuple((c - 3, c + Fraction(5, 2)) for c in x)
    wide = OrbitParams(max_norm=3, max_points=25, max_depth=6, window=window)
    params = OrbitParams(max_norm=3, max_points=cap, max_depth=6, window=window)
    reached = list(explore(image, x, wide).parents)
    others = [moved(M, sample_interior(base, rng), t) for _ in range(2)]
    for y in reached[-2:] + [p for p in others if params.in_window(p)]:
        assert_path_only_decide(image, x, y, params)
