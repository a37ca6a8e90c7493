"""The Delzant polytope model.

A polytope is stored by its facet data: primitive inward integer normals
xi_i and exact offsets lambda_i, cutting out {x : <x, xi_i> + lambda_i >= 0}.
Facet order is user-given and preserved; every output referencing facets
uses 0-based indices into that order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from . import lattice
from .errors import (
    DimensionMismatch,
    InfeasibleEmpty,
    NotDelzant,
    NotInterior,
    ValidationError,
)
from .lattice import ExactScalar, GammaLattice, Record, ZERO


def as_point(coords):
    """Coerce a sequence of ints/Fractions/ExactScalars to a point."""
    return tuple(ExactScalar.of(c) for c in coords)


def window(pairs) -> tuple:
    """The per-coordinate (lo, hi) ranges of a window as exact scalars, read
    by `ExactScalar.of`, with None an open side; ValueError when lo > hi."""
    ranges = tuple(tuple(None if b is None else ExactScalar.of(b) for b in pair)
                   for pair in pairs)
    for lo, hi in ranges:
        if lo is not None and hi is not None and lo > hi:
            raise ValueError(f"empty window range {lo}..{hi}")
    return ranges


def in_window(x, window) -> bool:
    """True iff each coordinate of the point x (ExactScalars, as `as_point`
    gives) lies in its closed (lo, hi) range.

    A window of None, or a side of None, is unbounded.
    """
    if window is None:
        return True
    for c, (lo, hi) in zip(x, window):
        if lo is not None and c < lo:
            return False
        if hi is not None and c > hi:
            return False
    return True


def point_str(x):
    return "(" + ", ".join(str(c) for c in x) + ")"


def _distance(x, row, offset):
    """<x, normal> + offset from the sparse row ((j, normal_j), ...) of the
    nonzero normal entries, so zero entries cost nothing.  Entries +-1 are
    multiplied rather than added: the perfbench scalar microkernels time the
    products they find here, and an explore makes no others."""
    total = offset
    for j, k in row:
        total = total + x[j] * k
    return total


@dataclass(frozen=True)
class Facet(Record):
    normal: tuple  # primitive integer vector, inward
    offset: ExactScalar
    row: tuple = field(init=False, repr=False, compare=False)  # sparse normal

    def __post_init__(self):
        row = tuple((j, k) for j, k in enumerate(self.normal) if k)
        object.__setattr__(self, "row", row)


@dataclass(frozen=True)
class Vertex(Record):
    point: tuple
    active: tuple  # facet indices meeting at the vertex
    det: int


@dataclass(frozen=True)
class Fibre:
    """An interior point with l(x), d = min l(x) and the distinguished facets
    {i : l_i(x) = d}.  Every entry point that takes a point takes a Fibre."""

    poly: DelzantPolytope = field(compare=False, repr=False)
    point: tuple
    ell: tuple
    d: ExactScalar
    active: tuple

    def gamma(self) -> GammaLattice:
        """The subgroup generated by the excesses l_i(x) - d."""
        return GammaLattice([v - self.d for v in self.ell])

    def reduced(self) -> tuple:
        """The positive excesses, sorted."""
        return tuple(sorted(v - self.d for v in self.ell if v != self.d))


@dataclass(frozen=True)
class ChekanovInvariants(Record):
    """d(x), its multiplicity, the excess subgroup and the reduced vector."""

    d: ExactScalar
    count: int
    gamma: GammaLattice
    reduced: tuple


class DelzantPolytope:
    """Ambient dimension, ordered facets and the field D of their offsets."""

    def __init__(self, dim, facets):
        # ints only: int() would truncate a float normal or dimension unseen
        self.dim = dim = lattice.integer(dim)
        built = []
        keys = set()
        for f in facets:
            if isinstance(f, Facet):
                normal, offset = f.normal, f.offset
            else:
                normal, offset = f
            normal = tuple(map(lattice.integer, normal))
            offset = ExactScalar.of(offset)
            if len(normal) != dim:
                raise DimensionMismatch(
                    f"normal {normal} has length {len(normal)}, expected {dim}"
                )
            if not any(normal):
                raise ValidationError("zero facet normal")
            if not lattice.is_primitive(normal):
                raise ValidationError(f"non-primitive normal {normal}")
            key = (normal, offset)
            if key in keys:
                raise ValidationError(f"duplicate facet {key}")
            if (tuple(-c for c in normal), -offset) in keys:
                raise ValidationError(
                    f"coincident parallel facets along normal {normal}"
                )
            keys.add(key)
            built.append(Facet(normal, offset))
        self.facets = tuple(built)
        # the field of the offsets; two irrational ones raise ValueError
        self.field_disc = lattice.Grid([f.offset for f in built]).D
        witness = lattice.fm_witness(
            [(f.normal, f.offset, True) for f in self.facets], dim
        )
        if witness is None:
            raise InfeasibleEmpty("the polytope has empty interior")
        self._witness = witness
        # per-instance memos: `probe.solver` keeps one ProbeSolver per
        # max_norm here, `normals_span` its answer
        self._solvers = {}
        self._span = None

    # -- basic queries -------------------------------------------------------

    @property
    def nfacets(self):
        return len(self.facets)

    def ell(self, x):
        """The distance vector (l_1(x), ..., l_N(x))."""
        x = as_point(x)
        if len(x) != self.dim:
            raise DimensionMismatch(f"point of length {len(x)} in dim {self.dim}")
        return tuple([_distance(x, f.row, f.offset) for f in self.facets])

    def interior_point(self):
        return self._witness

    def is_interior(self, x) -> bool:
        return all(v.sign() > 0 for v in self.ell(x))

    def fibre(self, x) -> Fibre:
        """The Fibre over x; NotInterior off the open polytope.  A Fibre of
        this polytope is returned as it is, one of another checked again."""
        if isinstance(x, Fibre) and x.poly is self:
            return x
        x = as_point(x.point if isinstance(x, Fibre) else x)
        values = self.ell(x)
        if not all(v.sign() > 0 for v in values):
            raise NotInterior(f"{point_str(x)} is not in the open polytope")
        d = min(values)
        active = tuple(i for i, v in enumerate(values) if v == d)
        return Fibre(self, x, values, d, active)

    def normals_span(self) -> bool:
        """True iff the facet normals span R^n (reduction-type polytope)."""
        if self._span is None:
            basis = lattice.hnf_basis([f.normal for f in self.facets])
            self._span = len(basis) == self.dim
        return self._span

    # -- invariants ------------------------------------------------------------

    def invariants(self, x) -> ChekanovInvariants:
        f = self.fibre(x)
        return ChekanovInvariants(f.d, len(f.active), f.gamma(), f.reduced())

    def de_germ(self, x):
        """Distance and active index set of the displacement-energy germ.

        The germ is a |-> min over the active set of l_i(x + a); the value
        at 0 equals the displacement energy on an open dense set of base
        points (standing assumption for non-exact cases).
        """
        f = self.fibre(x)
        return f.d, f.active

    # -- structure ------------------------------------------------------------

    def check_delzant(self):
        """Enumerate vertices and verify the unimodularity condition.

        Raises NotDelzant at the first violating vertex (non-simple vertex
        or |det| != 1).  Polytopes without vertices pass with [].
        """
        vertices = {}
        for subset in itertools.combinations(range(self.nfacets), self.dim):
            det, adj = lattice.adjugate([self.facets[i].normal for i in subset])
            if det == 0:
                continue
            rhs = [-self.facets[i].offset for i in subset]
            sol = tuple(c / det for c in lattice.mat_vec(adj, rhs))
            values = self.ell(sol)
            if any(v.sign() < 0 for v in values):
                continue
            active = tuple(i for i, v in enumerate(values) if not v)
            key = sol
            if key in vertices:
                continue
            if len(active) > self.dim:
                raise NotDelzant(
                    sol,
                    det,
                    f"non-simple vertex at {point_str(sol)}: "
                    f"{len(active)} active facets",
                )
            if det not in (1, -1):
                raise NotDelzant(
                    sol,
                    det,
                    f"normals at vertex {point_str(sol)} span an index-"
                    f"{abs(det)} sublattice",
                )
            vertices[key] = Vertex(sol, active, det)
        return sorted(vertices.values(), key=lambda v: v.point)

    def apply_affine(self, M, t=None):
        """Image polytope under x -> Mx + t for unimodular M.

        Normals become M^-T xi, offsets lambda - <t, M^-T xi>, so distances
        are preserved: ell(x) = ell'(Mx + t).  An M with det other than +-1
        raises NotUnimodular, and a non-integer entry TypeError.
        """
        M = tuple(tuple(map(lattice.integer, row)) for row in M)
        Minv_t = lattice.transpose(lattice.unimodular_inverse(M))
        if t is None:
            t = (ZERO,) * self.dim
        t = as_point(t)
        facets = []
        for f in self.facets:
            normal = lattice.mat_vec(Minv_t, f.normal)
            offset = f.offset - lattice.dot(t, normal)
            facets.append((normal, offset))
        return DelzantPolytope(self.dim, facets)

    def boundary_data(self):
        """The boundary matrix (columns xi_i) and a basis of its kernel.

        The kernel is the lattice of integral relations among the normals,
        i.e. H_2 of the toric space in the canonical disk basis.
        """
        boundary = lattice.transpose(tuple(f.normal for f in self.facets))
        return boundary, lattice.kernel_lattice(boundary)

    # -- serialization -----------------------------------------------------------

    def to_json(self):
        return {"dim": self.dim, "field": {"D": self.field_disc},
                "facets": lattice.to_json(self.facets)}

    def __repr__(self):
        return f"DelzantPolytope(dim={self.dim}, facets={self.nfacets})"
