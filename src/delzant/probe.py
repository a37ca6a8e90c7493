"""Symmetric probes: construction, partner points and monodromy involutions.

A probe is an oriented segment through the polytope whose two endpoints
hit facet interiors with pairing +1 (entry) and -1 (exit) against the
primitive direction.  Orientation is fixed at construction, so the
involution I + (xi' - xi) v^T is well defined.

Probes are found on ints: `_end` compares the times l_i / |p_i| at which a
ray meets its facets on l(x) packed on one `lattice.Grid`.  Only hits with
|p_i| = 1 are probes, so a probe's times are distances l_i and its partner
stays on the grid; `build_probe`, the one place that turns a hit into a
probe, builds scalars only for the `SymmetricProbe` returned: a slotted
record, immutable by convention, that compares and hashes by value.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import lattice
from .errors import (
    HitsLowerFace,
    NotOnProbe,
    NotPrimitive,
    NotTransverse,
    UnboundedRay,
)
from .lattice import ExactScalar, Grid, Record, _sign
from .polytope import DelzantPolytope, as_point, point_str


@dataclass(slots=True, unsafe_hash=True)
class SymmetricProbe(Record):
    direction: tuple        # primitive v, points from entry facet to exit facet
    entry_facet: int
    exit_facet: int
    entry_point: tuple      # on the entry facet interior
    length: ExactScalar     # integral affine length T
    entry_normal: tuple = field(repr=False)  # xi  (pairing <v, xi>  = +1)
    exit_normal: tuple = field(repr=False)   # xi' (pairing <v, xi'> = -1)

    @property
    def exit_point(self):
        return tuple(p + self.length * c for p, c in zip(self.entry_point, self.direction))

    def at(self, t):
        """The point entry + t * v."""
        t = ExactScalar.of(t)
        return tuple(p + t * c for p, c in zip(self.entry_point, self.direction))


class _Direction:
    """A primitive direction v with its pairings p_i = <v, xi_i> against the normals.

    Along x + s*v the distances move as l_i + s*p_i, so the ray +v meets the
    facets with p_i < 0 (`exits`) and the ray -v those with p_i > 0
    (`entries`); each side lists (i, N + i, |p_i|), the positions of l_i in
    a packed row of N distances and the rate at which the ray closes in.
    """

    __slots__ = ("v", "pairing", "vv", "pp", "exits", "entries")

    def __init__(self, v, normals):
        self.v = v
        self.pairing = tuple(lattice.dot(v, n) for n in normals)
        # v and p twice, to scale both halves of a packed row at once
        self.vv = v + v
        self.pp = self.pairing + self.pairing
        N = len(normals)
        self.exits = tuple((i, N + i, -p) for i, p in enumerate(self.pairing) if p < 0)
        self.entries = tuple((i, N + i, p) for i, p in enumerate(self.pairing) if p > 0)

    def may_probe(self) -> bool:
        """False when no interior point has a probe along v.

        A side without facets is unbounded everywhere, and a lone facet met
        at pairing other than +-1 is non-transverse everywhere.
        """
        return all(
            len(side) > 1 or (len(side) == 1 and side[0][2] == 1)
            for side in (self.exits, self.entries)
        )


def _end(ell, d, side, D):
    """The facet i that the ray along one side of d meets first, from the
    point whose distances over Q(sqrt(D)) are the packed row `ell`.

    `side` is d.exits or d.entries and must not be empty.  Facet i is met
    after l_i / |p_i| units of v, and two such times compare by the sign of
    l_i |p_j| - l_j |p_i|.  Raises HitsLowerFace when facets tie and
    NotTransverse when <v, xi_i> != +-1, so the time of the returned facet
    is l_i.
    """
    sides = iter(side)
    i, j, p = next(sides)
    a, b, best = ell[i], ell[j], [i]
    for k, m, q in sides:
        if q == p:
            s = _sign(ell[k] - a, ell[m] - b, D)
        else:
            s = _sign(ell[k] * p - a * q, ell[m] * p - b * q, D)
        if s < 0:
            a, b, p, best = ell[k], ell[m], q, [k]
        elif s == 0:
            best.append(k)
    if len(best) > 1:
        raise HitsLowerFace(f"probe endpoint lies on facets {best} simultaneously")
    i = best[0]
    if p != 1:
        raise NotTransverse(f"pairing <v, xi_{i}> = {d.pairing[i]} at the hit facet")
    return i


class ProbeSolver:
    """Symmetric probes of one polytope along the directions up to a sup-norm cap.

    Works on the packed distance row of l(x): the pairing row of every
    direction is computed once, the endpoints follow from l(x) alone, and
    the partner's distances are l + (l_exit - l_entry) * p, so no point is
    checked again from its coordinates.
    """

    def __init__(self, poly: DelzantPolytope, max_norm: int):
        if max_norm < 1:
            raise ValueError(f"max_norm must be >= 1, got {max_norm}")
        self.facets = poly.facets
        normals = tuple(f.normal for f in poly.facets)
        directions = canonical_directions(poly.dim, max_norm)
        self.directions = [
            d for d in (_Direction(v, normals) for v in directions) if d.may_probe()
        ]
        self._involutions = {}

    def hits(self, ell, D):
        """(direction, entry facet, exit facet) of every probe through the
        point with the packed distances `ell` over Q(sqrt(D)), in canonical
        direction order.  The probe runs l_entry units of v back from the
        point and l_exit units forward."""
        out = []
        for d in self.directions:
            try:
                exit_ = _end(ell, d, d.exits, D)
                entry = _end(ell, d, d.entries, D)
            except (HitsLowerFace, NotTransverse):
                continue
            out.append((d, entry, exit_))
        return out

    def involution(self, hit):
        """The involution matrix of the probe, cached per (v, entry, exit)."""
        d, entry, exit_ = hit
        key = (d.v, entry, exit_)
        matrix = self._involutions.get(key)
        if matrix is None:
            matrix = self._involutions[key] = _involution_matrix(
                d.v, self.facets[entry].normal, self.facets[exit_].normal
            )
        return matrix


def solver(poly: DelzantPolytope, max_norm: int) -> ProbeSolver:
    """The ProbeSolver of poly up to max_norm, built once per polytope and cap."""
    max_norm = lattice.integer(max_norm)
    cached = poly._solvers.get(max_norm)
    if cached is None:
        cached = poly._solvers[max_norm] = ProbeSolver(poly, max_norm)
    return cached


def build_probe(facets, grid, x, ell, hit) -> SymmetricProbe:
    """The SymmetricProbe of `hit` through the point with packed coordinates
    x and packed distances ell on `grid`."""
    d, entry, exit_ = hit
    n, N = len(x) // 2, len(ell) // 2
    ta, tb = ell[entry], ell[N + entry]
    # the entry point x - l_entry * v, one grid lookup per coordinate
    start = tuple([grid[x[k] - ta * c, x[n + k] - tb * c] for k, c in enumerate(d.v)])
    return SymmetricProbe(d.v, entry, exit_, start,
                          grid[ta + ell[exit_], tb + ell[N + exit_]],
                          facets[entry].normal, facets[exit_].normal)


def _packed(poly, x):
    """(grid, packed coordinates, packed distances) of the Fibre over x."""
    f = poly.fibre(x)
    grid = Grid(f.point, f.ell)
    return grid, grid.pack(f.point), grid.pack(f.ell)


def shoot(poly: DelzantPolytope, x, v) -> SymmetricProbe:
    """The symmetric probe through the interior point x in direction v.

    Walks the ray both ways, +v first: the first facet hit must be unique
    (else the endpoint lies on a lower-dimensional face) and must pair to
    +-1 with v (integral transversality).
    """
    grid, row, ell = _packed(poly, x)
    v = tuple(map(lattice.integer, v))
    if not lattice.is_primitive(v):
        raise NotPrimitive(f"direction {v} is not primitive")
    d = _Direction(v, tuple(f.normal for f in poly.facets))

    def end(side, label):
        if not side:
            raise UnboundedRay(
                f"ray {label} from {point_str(grid.unpack(row))} never exits"
            )
        return _end(ell, d, side, grid.D)

    exit_ = end(d.exits, "+v")
    entry = end(d.entries, "-v")
    return build_probe(poly.facets, grid, row, ell, (d, entry, exit_))


def probe_parameter(sigma: SymmetricProbe, x):
    """The t with x = entry + t*v, requiring x strictly inside the probe."""
    x = as_point(x)
    t = None
    for c, p, vc in zip(x, sigma.entry_point, sigma.direction):
        if vc != 0:
            t = (c - p) / vc
            break
    if t is None or sigma.at(t) != tuple(x):
        raise NotOnProbe(f"{point_str(x)} is not on the probe line")
    if not (ExactScalar.of(0) < t < sigma.length):
        raise NotOnProbe(f"{point_str(x)} is not strictly between the endpoints")
    return t


def partner(sigma: SymmetricProbe, x):
    """The point of the probe at equal boundary distance on the other side.

    An involution; the midpoint is its fixed point.
    """
    t = probe_parameter(sigma, x)
    return sigma.at(sigma.length - t)


def involution(sigma: SymmetricProbe):
    """The homology involution a -> a + <v, a>(xi' - xi) as a matrix.

    Squares to the identity, has det -1, swaps xi and xi' and fixes the
    hyperplane <v, .> = 0 pointwise.
    """
    return _involution_matrix(sigma.direction, sigma.entry_normal, sigma.exit_normal)


def _involution_matrix(v, entry_normal, exit_normal):
    n = len(v)
    delta = tuple(a - b for a, b in zip(exit_normal, entry_normal))
    return tuple(
        tuple((1 if i == j else 0) + delta[i] * v[j] for j in range(n))
        for i in range(n)
    )


def canonical_directions(dim: int, max_norm: int):
    """Primitive directions of sup-norm <= max_norm, one per +-v pair.

    Canonical sign: first nonzero entry positive.  Deterministic
    lexicographic order.
    """
    out = []
    for v in itertools.product(range(-max_norm, max_norm + 1), repeat=dim):
        if not any(v):
            continue
        first = next(c for c in v if c)
        if first < 0:
            continue
        if lattice.is_primitive(v):
            out.append(v)
    return out


def enumerate_probes(poly: DelzantPolytope, x, max_norm: int):
    """All symmetric probes through x with direction sup-norm <= max_norm."""
    grid, row, ell = _packed(poly, x)
    probe_solver = solver(poly, max_norm)
    return [build_probe(poly.facets, grid, row, ell, hit)
            for hit in probe_solver.hits(ell, grid.D)]
