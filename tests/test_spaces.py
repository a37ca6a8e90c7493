"""Presets and the hand-encoded classification oracles."""

import itertools
from fractions import Fraction

import pytest

from delzant import DelzantPolytope, OrbitParams, as_point, explore, preset, scalar, spaces
from delzant.errors import NotInterior, OracleUnavailable, UnknownPreset
from delzant.monodromy import holonomy_group
from delzant.spaces import oracle_monodromy, oracle_orbit
from oracles import h1_pass_c2_x_ts1, h1_pass_ts1_x_s2


class TestPresets:
    def test_all_pass_delzant(self):
        for name in ("cp2", "s2s2_monotone", "c_x_s2", "c2_x_ts1", "ts1_x_s2",
                     "cn(1)", "cn(3)"):
            preset(name).check_delzant()

    def test_facet_data(self):
        s2s2 = preset("s2s2_monotone")
        assert [f.normal for f in s2s2.facets] == [(-1, 0), (0, -1), (1, 0), (0, 1)]
        assert all(f.offset == scalar(1) for f in s2s2.facets)
        cp2 = preset("cp2")
        assert [f.normal for f in cp2.facets] == [(1, 0), (0, 1), (-1, -1)]
        cxs2 = preset("c_x_s2")
        assert [f.normal for f in cxs2.facets] == [(1, 0), (0, 1), (0, -1)]
        assert all(f.offset == scalar(1) for f in cxs2.facets)

    def test_unknown(self):
        with pytest.raises(UnknownPreset):
            preset("banana")
        with pytest.raises(UnknownPreset):
            preset("cn(0)")
        with pytest.raises(UnknownPreset):
            preset("cn(٣)")  # digits are ASCII
        # the whole name matches: `$` would also match before a final newline
        with pytest.raises(UnknownPreset):
            preset("cn(3)\n")
        with pytest.raises(UnknownPreset):
            oracle_orbit("cn(3)\n", (1, 2, 3))
        with pytest.raises(UnknownPreset):
            oracle_monodromy("cn(3)\n", (1, 2, 3))


class TestOrbitOracles:
    def test_s2s2(self):
        pts = oracle_orbit("s2s2_monotone", (Fraction(1, 5), Fraction(1, 2)))
        assert len(pts) == 8

    def test_cxs2_axis(self):
        window = ((-1, 6), (-1, 1))
        pts = oracle_orbit("c_x_s2", (Fraction(1, 2), Fraction(1, 2)), window)
        expected = {
            as_point((Fraction(2 * n + 1, 2), s * Fraction(1, 2)))
            for n in range(6)
            for s in (1, -1)
        }
        assert set(pts) == expected

    def test_ts1(self):
        pts = oracle_orbit("ts1_x_s2", (0, Fraction(1, 2)), ((-3, 3), (-1, 1)))
        assert len(pts) == 14

    def test_engine_agrees_with_every_oracle(self):
        cases = [
            ("s2s2_monotone", (Fraction(1, 5), Fraction(1, 2)), 2, None),
            ("s2s2_monotone", (0, 0), 2, None),
            ("cp2", (Fraction(-1, 2), Fraction(-1, 5)), 2, None),
            ("cp2", (Fraction(-1, 4), Fraction(-1, 4)), 2, None),
            ("c_x_s2", (0, Fraction(1, 2)), 3, ((-1, 6), (-1, 1))),
            ("c_x_s2", (Fraction(1, 5), Fraction(1, 2)), 3, ((-1, 6), (-1, 1))),
            ("c_x_s2", (Fraction(-1, 4), Fraction(1, 4)), 3, ((-1, 6), (-1, 1))),
            ("c_x_s2", (1, 0), 3, ((-1, 6), (-1, 1))),
            ("ts1_x_s2", (0, Fraction(1, 2)), 3, ((-3, 3), (-1, 1))),
            ("c2_x_ts1", (1, 2, 0), 1, ((0, 10), (0, 10), (-5, 5))),
            ("c2_x_ts1", (2, 2, 1), 1, ((0, 10), (0, 10), (-5, 5))),
        ]
        for name, x, norm, window in cases:
            graph = explore(
                preset(name),
                x,
                OrbitParams(max_norm=norm, window=window, max_points=400),
            )
            assert sorted(graph.nodes) == oracle_orbit(name, x, window), (name, x)

    def test_cn_rank_two_unavailable(self):
        with pytest.raises(OracleUnavailable):
            oracle_orbit("cn(3)", (1, 2, scalar(0, 1, 2)), ((0, 5),) * 3)


class TestMonodromyOracles:
    def test_s2s2_cases(self):
        center = oracle_monodromy("s2s2_monotone", (0, 0))
        assert len(center.elements) == 4
        diag = oracle_monodromy("s2s2_monotone", (Fraction(1, 3), Fraction(1, 3)))
        assert ((0, 1), (1, 0)) in diag.elements and len(diag.elements) == 2
        axis = oracle_monodromy("s2s2_monotone", (0, Fraction(1, 2)))
        assert ((-1, 0), (0, 1)) in axis.elements and len(axis.elements) == 2
        generic = oracle_monodromy("s2s2_monotone", (Fraction(1, 5), Fraction(1, 2)))
        assert len(generic.elements) == 1

    def test_ts1_family(self):
        oracle = oracle_monodromy("ts1_x_s2", (Fraction(1, 3), 0))
        assert oracle.kind == "infinite"
        assert oracle.contains(((1, 0), (6, -1)))
        assert not oracle.contains(((1, 0), (3, 1)))

    def test_c2ts1_generators(self):
        oracle = oracle_monodromy("c2_x_ts1", (1, 1, 0))
        assert ((1, 0, 1), (0, 1, -1), (0, 0, 1)) in oracle.generators
        assert oracle.contains(((0, 1, -4), (1, 0, 4), (0, 0, 1)))
        assert not oracle.contains(((1, 0, 1), (0, 1, 1), (0, 0, 1)))

    def test_engine_matches_monodromy_oracles(self):
        cases = [
            ("s2s2_monotone", (0, 0), 2, None),
            ("s2s2_monotone", (Fraction(1, 2), Fraction(1, 2)), 2, None),
            ("s2s2_monotone", (0, Fraction(1, 2)), 2, None),
            ("s2s2_monotone", (Fraction(1, 5), Fraction(1, 2)), 2, None),
            ("cp2", (0, 0), 2, None),
            ("cp2", (Fraction(-1, 5), Fraction(-1, 5)), 2, None),
            ("cp2", (Fraction(-1, 2), Fraction(-1, 5)), 2, None),
            ("c_x_s2", (Fraction(-1, 4), Fraction(1, 4)), 3, ((-1, 4), (-1, 1))),
            ("c_x_s2", (0, Fraction(1, 2)), 3, ((-1, 4), (-1, 1))),
        ]
        for name, x, norm, window in cases:
            graph = explore(
                preset(name), x,
                OrbitParams(max_norm=norm, window=window, max_points=200),
            )
            group = holonomy_group(graph, x, cap=64)
            oracle = oracle_monodromy(name, x)
            assert not group.truncated
            assert set(group.elements) == set(oracle.elements), (name, x)

    def test_engine_elements_inside_infinite_families(self):
        for name, x, window in (
            ("ts1_x_s2", (Fraction(1, 3), 0), ((-4, 4), (-1, 1))),
            ("c_x_s2", (1, 0), ((-1, 6), (-1, 1))),
        ):
            graph = explore(
                preset(name), x, OrbitParams(max_norm=3, window=window)
            )
            group = holonomy_group(graph, x, cap=40)
            oracle = oracle_monodromy(name, x)
            assert group.truncated
            assert all(oracle.contains(m) for m in group.elements)
            assert all(g in group.elements for g in oracle.generators)

    def test_cn_predicate(self):
        oracle = oracle_monodromy("cn(3)", (1, 2, 3))
        assert oracle.contains(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        # swapping the two non-distinguished coordinates changes areas
        assert not oracle.contains(((1, 0, 0), (0, 0, 1), (0, 1, 0)))


class TestBespokeConstraints:
    def test_c2ts1_family_is_maximal(self):
        x = (1, 1, 0)
        oracle = oracle_monodromy("c2_x_ts1", x)
        passers = []
        for block in (((1, 0), (0, 1)), ((0, 1), (1, 0))):
            for b1 in range(-5, 6):
                M = (block[0] + (b1,), block[1] + (-b1,), (0, 0, 1))
                if h1_pass_c2_x_ts1(x, x, M):
                    passers.append(M)
        assert len(passers) == 22
        assert all(oracle.contains(M) for M in passers)
        # no other bounded matrix passes
        for entries in itertools.product(range(-2, 3), repeat=6):
            M = (entries[0:2] + (entries[4],), entries[2:4] + (entries[5],),
                 (0, 0, 1))
            if h1_pass_c2_x_ts1(x, x, M):
                assert oracle.contains(M)

    def test_c2ts1_liouville_blocks_shears_off_diagonal(self):
        # x1 != x2 pins the shear parameter to zero
        x = (1, 2, 0)
        assert h1_pass_c2_x_ts1(x, x, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        assert not h1_pass_c2_x_ts1(x, x, ((1, 0, 1), (0, 1, -1), (0, 0, 1)))
        assert not h1_pass_c2_x_ts1(x, x, ((0, 1, 0), (1, 0, 0), (0, 0, 1)))

    def test_ts1_family_via_lift(self):
        x = (Fraction(1, 3), 0)
        oracle = oracle_monodromy("ts1_x_s2", x)
        for k in range(-5, 6):
            for s in (1, -1):
                M = ((1, 0), (2 * k, s))
                assert h1_pass_ts1_x_s2(x, x, M)
                assert oracle.contains(M)
        for M in (((1, 0), (1, 1)), ((1, 1), (0, 1)), ((-1, 0), (0, 1))):
            assert not h1_pass_ts1_x_s2(x, x, M)

    def test_ts1_family_is_maximal_within_bound(self):
        # sweep all 2x2 matrices with entries bounded by 5: the passers are
        # exactly the parametric family
        x = (Fraction(1, 3), 0)
        oracle = oracle_monodromy("ts1_x_s2", x)
        passers = []
        for entries in itertools.product(range(-5, 6), repeat=4):
            M = (entries[0:2], entries[2:4])
            if h1_pass_ts1_x_s2(x, x, M):
                passers.append(M)
        assert passers
        assert all(oracle.contains(M) for M in passers)
        expected = {((1, 0), (2 * k, s)) for k in range(-2, 3) for s in (1, -1)}
        assert expected <= set(passers)

    def test_ts1_away_from_axis_only_identity(self):
        x = (0, Fraction(1, 2))
        passing = [
            ((1, 0), (2 * k, s))
            for k in range(-3, 4)
            for s in (1, -1)
            if h1_pass_ts1_x_s2(x, x, ((1, 0), (2 * k, s)))
        ]
        assert passing == [((1, 0), (0, 1))]


# one point per oracle branch, with a window where the orbit is infinite
ORACLE_CASES = [
    ("s2s2_monotone", (Fraction(1, 5), Fraction(1, 2)), None),
    ("s2s2_monotone", (0, 0), None),
    ("cp2", (Fraction(-1, 2), Fraction(-1, 5)), None),
    ("cp2", (0, 0), None),
    ("c_x_s2", (1, 0), ((-1, 6), (-1, 1))),
    ("c_x_s2", (Fraction(1, 5), Fraction(1, 2)), ((-1, 6), (-1, 1))),
    ("ts1_x_s2", (0, Fraction(1, 2)), ((-3, 3), (-1, 1))),
    ("ts1_x_s2", (Fraction(1, 3), 0), ((-3, 3), (-1, 1))),
    ("c2_x_ts1", (1, 2, 0), ((0, 10), (0, 10), (-5, 5))),
    ("c2_x_ts1", (2, 2, 1), ((0, 10), (0, 10), (-5, 5))),
    ("cn(3)", (1, 2, 3), ((0, 5),) * 3),
]


def _oracle_outputs():
    out = []
    for name, x, window in ORACLE_CASES:
        out.append(oracle_orbit(name, x, window))
        out.append(oracle_monodromy(name, x).to_json())
    return out


class TestOraclePolytopes:
    def test_oracles_build_each_preset_once(self, monkeypatch):
        built = []
        init = DelzantPolytope.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(DelzantPolytope, "__init__", counting_init)
        spaces._oracle_polytope.cache_clear()
        for _ in range(3):
            _oracle_outputs()
        assert len(built) == len({name for name, _, _ in ORACLE_CASES})
        # preset itself still hands out a fresh polytope on every call
        assert preset("cp2") is not preset("cp2")
        assert len(built) == len({name for name, _, _ in ORACLE_CASES}) + 2

    def test_oracle_outputs_unchanged(self, monkeypatch):
        memoized = _oracle_outputs()
        monkeypatch.setattr(spaces, "_oracle_polytope", preset)
        assert memoized == _oracle_outputs()

    def test_oracles_keep_their_interior_check(self):
        for _ in range(2):
            with pytest.raises(NotInterior):
                oracle_orbit("cp2", (1, 1))
            with pytest.raises(NotInterior):
                oracle_monodromy("c_x_s2", (-1, 0))
        with pytest.raises(UnknownPreset):
            oracle_orbit("cp3", (0, 0))
