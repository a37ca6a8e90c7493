"""Toric reduction, admissibility certificates, and the orthant lift."""

import random
import warnings
from fractions import Fraction

import pytest

from delzant import AffineSlice, DelzantPolytope, as_point, lattice, preset, scalar
from delzant.errors import (
    InducedNotPrimitive,
    NormalsDoNotSpan,
    NotAdmissible,
    NotDelzant,
    SliceInsideFacet,
    SliceMissesPolytope,
)
from delzant.probe import enumerate_probes
from delzant.reduction import (
    _restricted_rows,
    admissible,
    delzant_lift,
    interval_length,
    reduce,
    strip_width,
)

from test_chekanov import reference_gamma, reference_reduce
from test_polytope import sample_interior


class TestAffineSlice:
    def test_saturation_repair(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sl = AffineSlice((0, 0), [(2, 0)])
        assert caught and "saturated" in str(caught[0].message)
        assert sl.dirs == ((1, 0),)

    def test_dependent_rejected(self):
        with pytest.raises(ValueError):
            AffineSlice((0, 0), [(1, 0), (2, 0)])

    def test_lift(self):
        sl = AffineSlice((1, 1, 0), [(0, 0, 1), (-1, 1, 0)])
        assert sl.lift((Fraction(1, 2), 1)) == as_point((0, 2, Fraction(1, 2)))


class TestAdmissible:
    def test_c2_probe_line(self):
        report = admissible(preset("cn(2)"), AffineSlice((1, 3), [(1, -1)]))
        assert report.ok
        assert {f.active for f in report.faces} == {(0,), (1,)}

    def test_s2s2_diagonal_fails(self):
        report = admissible(
            preset("s2s2_monotone"), AffineSlice((0, 0), [(1, 1)])
        )
        assert not report.ok
        bad = [f for f in report.faces if not f.generates]
        assert bad and all(len(f.active) == 2 for f in bad)

    def test_c2ts1_plane(self):
        report = admissible(
            preset("c2_x_ts1"), AffineSlice((1, 1, 0), [(0, 0, 1), (-1, 1, 0)])
        )
        assert report.ok

    def test_missing_slice(self):
        with pytest.raises(SliceMissesPolytope):
            admissible(preset("cn(2)"), AffineSlice((-5, -5), [(1, -1)]))


class TestReduce:
    def test_probe_line_gives_interval(self):
        result = reduce(preset("cn(2)"), AffineSlice((1, 3), [(1, -1)]))
        reduced = result.reduced
        assert reduced.dim == 1
        assert sorted(f.normal for f in reduced.facets) == [(-1,), (1,)]
        assert interval_length(reduced) == scalar(4)

    def test_every_probe_reduces_to_its_length(self):
        rng = random.Random(89)
        for name in ("cp2", "s2s2_monotone", "c_x_s2", "cn(3)"):
            poly = preset(name)
            for _ in range(4):
                x = sample_interior(poly, rng)
                for sigma in enumerate_probes(poly, x, 2)[:4]:
                    result = reduce(
                        poly, AffineSlice(x, [sigma.direction])
                    )
                    assert interval_length(result.reduced) == sigma.length

    def test_c2ts1_strip_matches_preset(self):
        result = reduce(
            preset("c2_x_ts1"), AffineSlice((1, 1, 0), [(0, 0, 1), (-1, 1, 0)])
        )
        assert strip_width(result.reduced) == scalar(2)
        assert strip_width(preset("ts1_x_s2")) == scalar(2)
        # same facet set up to ordering: a strip of integral width two
        assert sorted(f.normal for f in result.reduced.facets) == [(0, -1), (0, 1)]

    def test_level_one_slice_has_width_one(self):
        # the level x1 + x2 = 1 produces a width-one strip; the preset is
        # normalized to width two, so only the level-two slice matches exactly
        result = reduce(
            preset("c2_x_ts1"),
            AffineSlice((Fraction(1, 2), Fraction(1, 2), 0), [(0, 0, 1), (-1, 1, 0)]),
        )
        assert strip_width(result.reduced) == scalar(1)

    def test_field_of_the_offsets_survives_reduction(self):
        # the reduced offsets are the distances l_i(base): 2-√2 stays in Q(√2)
        poly = preset("cn(2)").apply_affine(((1, 0), (0, 1)), (scalar(0, 1, 2), 0))
        result = reduce(poly, AffineSlice((2, 3), [(1, -1)]))
        assert poly.field_disc == result.reduced.field_disc == 2
        assert result.to_json()["reduced"]["field"] == {"D": 2}
        assert interval_length(result.reduced) == scalar(5, -1, 2)

    def test_vertical_slice_of_square(self):
        result = reduce(preset("s2s2_monotone"), AffineSlice((0, 0), [(0, 1)]))
        assert interval_length(result.reduced) == scalar(2)

    def test_not_admissible_raises(self):
        with pytest.raises(NotAdmissible):
            reduce(preset("s2s2_monotone"), AffineSlice((0, 0), [(1, 1)]))

    def test_roundtrip_distances(self):
        rng = random.Random(97)
        result = reduce(
            preset("c2_x_ts1"), AffineSlice((1, 1, 0), [(0, 0, 1), (-1, 1, 0)])
        )
        poly = preset("c2_x_ts1")
        for _ in range(10):
            t = sample_interior(result.reduced, rng)
            upstairs = poly.ell(result.lift(t))
            downstairs = result.reduced.ell(t)
            for idx, origin in enumerate(result.facet_origin):
                assert downstairs[idx] == upstairs[origin]


# -- facet pruning as it was: restart after every drop --------------------------


def restart_prune(candidates, k):
    """The (index, eta, c) candidates left once every redundant one is dropped."""
    kept = list(candidates)
    changed = True
    while changed:
        changed = False
        for idx, (i, eta, c) in enumerate(kept):
            others = [
                (e, cc, False) for j, (ii, e, cc) in enumerate(kept) if j != idx
            ]
            violating = others + [(tuple(-x for x in eta), -c, True)]
            if lattice.fm_witness(violating, k) is None:
                kept.pop(idx)
                changed = True
                break
    return kept


def _candidates(poly, sl):
    """The facets of nonzero restricted normal, first of equal ones, as `reduce` keeps them."""
    out, seen = [], set()
    for i, (eta, c) in enumerate(_restricted_rows(poly, sl)):
        if any(eta) and (eta, c) not in seen:
            seen.add((eta, c))
            out.append((i, eta, c))
    return out


_CUBE = DelzantPolytope(3, [(e, 1) for e in lattice.identity(3)]
                        + [(tuple(-x for x in e), 1) for e in lattice.identity(3)])
_CP3 = DelzantPolytope(3, [(e, 0) for e in lattice.identity(3)] + [((-1, -1, -1), 3)])


def test_one_pass_prune_matches_the_restart_loop():
    rng = random.Random(131)
    polys = [preset(name) for name in ("cp2", "s2s2_monotone", "c_x_s2", "cn(3)", "c2_x_ts1")]
    polys += [_CUBE, _CP3, preset("cp2").apply_affine(((2, 1), (1, 1)), (1, 0))]
    compared = pruned = 0  # pruned: slices that drop two facets or more
    for _ in range(300):
        poly = rng.choice(polys)
        n = poly.dim
        dirs = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(1, n - 1))]
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                sl = AffineSlice(sample_interior(poly, rng, box=1), dirs)
            result = reduce(poly, sl)
        except (ValueError, NotAdmissible, InducedNotPrimitive, NotDelzant, SliceInsideFacet):
            continue
        candidates = _candidates(poly, sl)
        kept = restart_prune(candidates, len(sl.dirs))
        assert result.facet_origin == tuple(i for i, _, _ in kept)
        assert result.reduced.to_json() == DelzantPolytope(
            len(sl.dirs), [(eta, c) for _, eta, c in kept]
        ).to_json()
        compared += 1
        pruned += len(candidates) - len(kept) >= 2
    assert compared >= 100 and pruned >= 20, (compared, pruned)


class TestDelzantLift:
    def test_cp2_kernel(self):
        assert delzant_lift(preset("cp2")).kernel == ((1, 1, 1),)

    def test_cxs2_kernel(self):
        assert delzant_lift(preset("c_x_s2")).kernel == ((0, 1, 1),)

    def test_ts1_rejected(self):
        with pytest.raises(NormalsDoNotSpan):
            delzant_lift(preset("ts1_x_s2"))

    def test_kernel_equals_boundary_kernel(self):
        for name in ("cp2", "s2s2_monotone", "c_x_s2", "cn(3)"):
            poly = preset(name)
            assert list(delzant_lift(poly).kernel) == poly.boundary_data()[1]

    def test_lifted_invariants_match(self):
        rng = random.Random(101)
        for name in ("cp2", "s2s2_monotone", "c_x_s2"):
            poly = preset(name)
            lift = delzant_lift(poly)
            for _ in range(50):
                x = sample_interior(poly, rng)
                inv = poly.invariants(x)
                lifted = reference_reduce(lift.lift_point(x))
                assert lifted.d == inv.d
                assert lifted.mult == inv.count
                assert lifted.entries == inv.reduced
                assert reference_gamma(lift.lift_point(x)) == inv.gamma
