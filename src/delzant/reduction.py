"""Toric reduction along rational affine slices, and the lift to the orthant.

A slice is a base point plus a saturated lattice basis of its direction
space.  Reduction restricts every facet functional to slice coordinates;
admissibility demands that along every face met by the slice the face
directions together with the slice directions generate the full lattice,
which is exactly the condition for the reduced polytope to be Delzant.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field

from . import lattice
from .errors import (
    InducedNotPrimitive,
    NormalsDoNotSpan,
    NotAdmissible,
    SelfCheckFailed,
    SliceInsideFacet,
    SliceMissesPolytope,
)
from .lattice import Record
from .polytope import DelzantPolytope, as_point


class AffineSlice:
    """Base point and a saturated integer basis of the direction space."""

    def __init__(self, base, dirs):
        self.base = as_point(base)
        dirs = [tuple(map(lattice.integer, d)) for d in dirs]
        if not dirs:
            raise ValueError("a slice needs at least one direction")
        n = len(self.base)
        if any(len(d) != n for d in dirs):
            raise ValueError("direction length does not match the base point")
        span = lattice.hnf_basis(dirs)
        if len(span) != len(dirs):
            raise ValueError("slice directions are linearly dependent")
        saturated = self._saturation(dirs, n)
        if lattice.hnf_basis(saturated) != span:
            warnings.warn(
                "slice directions span a non-saturated lattice; replaced by"
                " the saturation",
                stacklevel=2,
            )
            self.dirs = tuple(saturated)
        else:
            self.dirs = tuple(dirs)

    @staticmethod
    def _saturation(dirs, n):
        annihilator = lattice.kernel_lattice(tuple(dirs))
        if not annihilator:
            return [tuple(row) for row in lattice.identity(n)]
        return lattice.kernel_lattice(tuple(annihilator))

    def lift(self, t):
        """Slice coordinates t -> ambient point base + sum t_j w_j."""
        t = as_point(t)
        out = list(self.base)
        for coeff, w in zip(t, self.dirs):
            out = [o + coeff * c for o, c in zip(out, w)]
        return tuple(out)

    def to_json(self):
        return {"base": lattice.to_json(self.base), "dirs": lattice.to_json(self.dirs)}


@dataclass(frozen=True)
class FaceCertificate(Record):
    active: tuple          # facet indices cutting out the face
    face_basis: tuple      # lattice basis of the face direction space
    generates: bool        # face basis + slice dirs generate Z^n


@dataclass(frozen=True)
class AdmissibilityReport(Record):
    ok: bool
    faces: tuple


def _restricted_rows(poly, sl):
    """Facet functionals in slice coordinates: (eta_i, l_i(base))."""
    return [(tuple(lattice.dot(w, f.normal) for w in sl.dirs), c)
            for f, c in zip(poly.facets, poly.ell(sl.base))]


def admissible(poly: DelzantPolytope, sl: AffineSlice) -> AdmissibilityReport:
    """Check reduction-admissibility, with one certificate per critical face.

    Enumerates the maximal active facet sets realized on the intersection
    (the minimal faces met by the slice); larger faces pass automatically
    when these do.
    """
    rows = _restricted_rows(poly, sl)
    k = len(sl.dirs)
    if lattice.fm_witness([(eta, c, True) for eta, c in rows], k) is None:
        raise SliceMissesPolytope("the slice does not meet the open polytope")

    def face_feasible(subset):
        cons = []
        for i, (eta, c) in enumerate(rows):
            if i in subset:
                cons.append((eta, c, False))
                cons.append((tuple(-e for e in eta), -c, False))
            else:
                cons.append((eta, c, False))
        return lattice.fm_witness(cons, k) is not None

    n = poly.dim
    infeasible = set()
    feasible = []
    for size in range(1, poly.nfacets + 1):
        for subset in itertools.combinations(range(poly.nfacets), size):
            if any(
                frozenset(subset) - {i} in infeasible
                for i in subset
            ) and size > 1:
                infeasible.add(frozenset(subset))
                continue
            if face_feasible(set(subset)):
                feasible.append(frozenset(subset))
            else:
                infeasible.add(frozenset(subset))
    maximal = [
        s for s in feasible if not any(s < other for other in feasible)
    ]
    certificates = []
    ok = True
    for s in sorted(maximal, key=sorted):
        normals = tuple(poly.facets[i].normal for i in sorted(s))
        face_basis = lattice.kernel_lattice(normals)
        vectors = list(face_basis) + list(sl.dirs)
        generates = lattice.generates_full_lattice(vectors) if vectors else False
        certificates.append(FaceCertificate(tuple(sorted(s)), tuple(face_basis), generates))
        ok = ok and generates
    return AdmissibilityReport(ok, tuple(certificates))


@dataclass(frozen=True)
class ReductionResult(Record):
    reduced: DelzantPolytope
    facet_origin: tuple      # reduced facet index -> ambient facet index
    slice: AffineSlice

    def lift(self, t):
        return self.slice.lift(t)


def reduce(poly: DelzantPolytope, sl: AffineSlice) -> ReductionResult:
    """The moment polytope of the reduced space, in slice coordinates.

    Zero-normal facets are dropped after checking they stay positive,
    redundant facets removed, and the result is verified to be Delzant.
    """
    report = admissible(poly, sl)
    if not report.ok:
        raise NotAdmissible(report, "the slice is not reduction-admissible")
    rows = _restricted_rows(poly, sl)
    candidates = []
    seen = set()
    for i, (eta, c) in enumerate(rows):
        if not any(eta):
            if not c:
                raise SliceInsideFacet(
                    f"the slice lies inside facet {i} (constant distance 0)"
                )
            if c.sign() <= 0:
                raise SelfCheckFailed("slice meets the interior, so l_i(base) > 0")
            continue
        if (eta, c) in seen:
            continue
        seen.add((eta, c))
        candidates.append((i, eta, c))
    # a point violating a necessary facet and satisfying the others still
    # does once others are dropped, so one pass finds every redundant facet
    kept = []
    for idx, (i, eta, c) in enumerate(candidates):
        others = [(e, cc, False) for _, e, cc in kept + candidates[idx + 1:]]
        violating = others + [(tuple(-x for x in eta), -c, True)]
        if lattice.fm_witness(violating, len(sl.dirs)) is not None:
            kept.append((i, eta, c))
    for i, eta, c in kept:
        if not lattice.is_primitive(eta):
            raise InducedNotPrimitive(
                f"facet {i} restricts to the non-primitive normal {eta}"
            )
    reduced = DelzantPolytope(len(sl.dirs), [(eta, c) for _, eta, c in kept])
    reduced.check_delzant()
    return ReductionResult(reduced, tuple(i for i, _, _ in kept), sl)


@dataclass(frozen=True)
class LiftResult(Record):
    """The embedding x -> (l_1(x), ..., l_N(x)) and the reduction kernel."""

    poly: DelzantPolytope = field(repr=False)
    kernel: tuple            # basis of {c : sum c_i xi_i = 0}

    def lift_point(self, x):
        """Product-torus parameters of the lifted fibre; x must be interior."""
        return self.poly.fibre(x).ell


def delzant_lift(poly: DelzantPolytope) -> LiftResult:
    """Present the polytope as a reduction of the orthant.

    Requires the normals to span R^n so the distance map is injective; the
    kernel lattice equals the second homology from boundary_data.
    """
    if not poly.normals_span():
        raise NormalsDoNotSpan("the distance map is not injective")
    return LiftResult(poly, tuple(poly.boundary_data()[1]))


def strip_width(poly: DelzantPolytope):
    """Integral width when the polytope is a strip {c <= <u, x> <= c + w}.

    Returns None unless there are exactly two facets with opposite
    primitive normals.
    """
    if poly.nfacets != 2:
        return None
    f1, f2 = poly.facets
    if tuple(-c for c in f1.normal) != f2.normal:
        return None
    return f1.offset + f2.offset


def interval_length(poly: DelzantPolytope):
    """Length of a 1-dimensional polytope [a, b]; None if unbounded."""
    if poly.dim != 1:
        return None
    return strip_width(poly)
