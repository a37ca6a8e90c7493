"""Probes: shooting, partners, involutions, enumeration."""

import random
from fractions import Fraction

import pytest

from delzant import as_point, preset, scalar
from delzant.errors import (
    HitsLowerFace,
    NotOnProbe,
    NotPrimitive,
    NotTransverse,
    UnboundedRay,
)
from delzant.lattice import dot, identity, mat_det, mat_mul, mat_vec
from delzant.probe import ProbeSolver, enumerate_probes, involution, partner, shoot, solver

from test_polytope import sample_interior


class TestShoot:
    def test_c2_diagonal(self):
        sigma = shoot(preset("cn(2)"), (1, 3), (1, -1))
        assert sigma.entry_facet == 0 and sigma.exit_facet == 1
        assert sigma.entry_point == as_point((0, 4))
        assert sigma.exit_point == as_point((4, 0))
        assert sigma.length == scalar(4)

    def test_s2s2_center_diagonal_hits_corner(self):
        with pytest.raises(HitsLowerFace):
            shoot(preset("s2s2_monotone"), (0, 0), (1, 1))

    def test_c3_elswap_probe(self):
        sigma = shoot(preset("cn(3)"), (1, 2, 3), (1, 1, -1))
        assert sigma.entry_point == as_point((0, 1, 4))
        assert sigma.exit_point == as_point((4, 5, 0))
        assert sigma.length == scalar(4)

    def test_unbounded(self):
        with pytest.raises(UnboundedRay):
            shoot(preset("cn(2)"), (1, 1), (1, 0))

    def test_not_transverse(self):
        with pytest.raises(NotTransverse):
            shoot(preset("s2s2_monotone"), (Fraction(1, 5), Fraction(1, 2)), (2, 1))

    def test_requires_primitive(self):
        with pytest.raises(NotPrimitive):
            shoot(preset("cn(2)"), (1, 3), (2, -2))

    def test_orientation_pairings(self):
        sigma = shoot(preset("cn(2)"), (1, 3), (1, -1))
        assert dot(sigma.direction, sigma.entry_normal) == 1
        assert dot(sigma.direction, sigma.exit_normal) == -1


class TestPartner:
    def test_swap(self):
        sigma = shoot(preset("cn(2)"), (1, 3), (1, -1))
        assert partner(sigma, (1, 3)) == as_point((3, 1))

    def test_midpoint_fixed(self):
        sigma = shoot(preset("cn(2)"), (2, 2), (1, -1))
        assert partner(sigma, (2, 2)) == as_point((2, 2))

    def test_c3_three_coordinate_move(self):
        sigma = shoot(preset("cn(3)"), (1, 2, 3), (1, 1, -1))
        assert partner(sigma, (1, 2, 3)) == as_point((3, 4, 1))

    def test_involution_property(self):
        sigma = shoot(preset("cn(2)"), (1, 3), (1, -1))
        y = partner(sigma, (1, 3))
        assert partner(sigma, y) == as_point((1, 3))

    def test_off_probe_rejected(self):
        sigma = shoot(preset("cn(2)"), (1, 3), (1, -1))
        with pytest.raises(NotOnProbe):
            partner(sigma, (1, 1))

    def test_probe_stable_along_itself(self):
        # shooting again from the partner returns the same segment
        poly = preset("cn(3)")
        sigma = shoot(poly, (1, 2, 3), (1, 1, -1))
        again = shoot(poly, partner(sigma, (1, 2, 3)), (1, 1, -1))
        assert again == sigma


class TestInvolution:
    def test_known_matrices(self):
        s2s2 = preset("s2s2_monotone")
        assert involution(shoot(s2s2, (0, 0), (1, 0))) == ((-1, 0), (0, 1))
        x = (Fraction(1, 3), Fraction(1, 3))
        assert involution(shoot(s2s2, x, (1, -1))) == ((0, 1), (1, 0))
        cxs2 = preset("c_x_s2")
        sigma = shoot(cxs2, (1, 0), (-1, 1))
        assert involution(sigma) == ((1, 0), (2, -1))

    def test_laws_on_presets(self):
        rng = random.Random(47)
        total = 0
        for name in ("cp2", "s2s2_monotone", "c_x_s2", "cn(2)", "cn(3)",
                     "c2_x_ts1", "ts1_x_s2"):
            poly = preset(name)
            n = poly.dim
            for _ in range(25):
                x = sample_interior(poly, rng)
                for sigma in enumerate_probes(poly, x, 2):
                    total += 1
                    phi = involution(sigma)
                    assert mat_mul(phi, phi) == identity(n)
                    assert mat_det(phi) == -1
                    assert mat_vec(phi, sigma.entry_normal) == sigma.exit_normal
                    assert mat_vec(phi, sigma.exit_normal) == sigma.entry_normal
        assert total > 300


class TestEnumerate:
    def test_s2s2_center(self):
        probes = enumerate_probes(preset("s2s2_monotone"), (0, 0), 1)
        assert sorted(p.direction for p in probes) == [(0, 1), (1, 0)]

    def test_ts1_strip(self):
        probes = enumerate_probes(
            preset("ts1_x_s2"), (0, Fraction(1, 2)), 3
        )
        dirs = sorted(p.direction for p in probes)
        assert len(probes) == 7
        assert all(abs(d[0]) <= 3 and abs(d[1]) == 1 for d in dirs)

    def test_c2_orthant(self):
        probes = enumerate_probes(preset("cn(2)"), (1, 1), 1)
        assert [p.direction for p in probes] == [(1, -1)]

    def test_deterministic(self):
        poly = preset("cp2")
        x = (Fraction(-1, 2), Fraction(-1, 5))
        assert enumerate_probes(poly, x, 3) == enumerate_probes(poly, x, 3)

    def test_max_norm_below_one_rejected(self):
        poly = preset("cn(2)")
        for bad in (0, -1):
            with pytest.raises(ValueError, match="max_norm must be >= 1"):
                ProbeSolver(poly, bad)
            with pytest.raises(ValueError, match="max_norm must be >= 1"):
                enumerate_probes(poly, (1, 3), bad)
        assert poly._solvers == {}

    def test_solver_built_once_per_polytope_and_cap(self):
        poly = preset("cp2")
        first = solver(poly, 2)
        assert solver(poly, 2) is first
        assert solver(poly, 1) is not first
        assert solver(preset("cp2"), 2) is not first
        with pytest.raises(TypeError):
            solver(poly, 2.0)
