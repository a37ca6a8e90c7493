"""Symmetric probes: construction, partner points and monodromy involutions.

A probe is an oriented segment through the polytope whose two endpoints
hit facet interiors with pairing +1 (entry) and -1 (exit) against the
primitive direction.  Orientation is fixed at construction, so the
involution I + (xi' - xi) v^T is well defined.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

from . import lattice
from .errors import (
    HitsLowerFace,
    NotOnProbe,
    NotPrimitive,
    NotTransverse,
    UnboundedRay,
)
from .lattice import ExactScalar
from .polytope import DelzantPolytope, as_point, point_str


@dataclass(frozen=True)
class SymmetricProbe:
    direction: tuple        # primitive v, points from entry facet to exit facet
    entry_facet: int
    exit_facet: int
    entry_point: tuple      # on the entry facet interior
    length: ExactScalar     # integral affine length T
    entry_normal: tuple     # xi  (pairing <v, xi>  = +1)
    exit_normal: tuple      # xi' (pairing <v, xi'> = -1)

    @property
    def exit_point(self):
        return tuple(p + self.length * c for p, c in zip(self.entry_point, self.direction))

    def at(self, t):
        """The point entry + t * v."""
        t = ExactScalar.of(t)
        return tuple(p + t * c for p, c in zip(self.entry_point, self.direction))

    @property
    def midpoint(self):
        return self.at(self.length / 2)

    def to_json(self):
        return {
            "direction": list(self.direction),
            "entry_facet": self.entry_facet,
            "exit_facet": self.exit_facet,
            "entry_point": [str(c) for c in self.entry_point],
            "length": str(self.length),
        }


class _Direction:
    """A primitive direction v with its pairings p_i = <v, xi_i> against the normals.

    Along x + s*v the distances move as l_i + s*p_i, so the ray +v meets the
    facets with p_i < 0 (`exits`) and the ray -v those with p_i > 0
    (`entries`); each side lists (i, |p_i|).
    """

    __slots__ = ("v", "pairing", "exits", "entries")

    def __init__(self, v, normals):
        self.v = v
        self.pairing = tuple(lattice.dot(v, n) for n in normals)
        self.exits = tuple((i, -p) for i, p in enumerate(self.pairing) if p < 0)
        self.entries = tuple((i, p) for i, p in enumerate(self.pairing) if p > 0)

    def may_probe(self) -> bool:
        """False when no interior point has a probe along v.

        A side without facets is unbounded everywhere, and a lone facet met
        at pairing other than +-1 is non-transverse everywhere.
        """
        return all(
            len(side) > 1 or (len(side) == 1 and side[0][1] == 1)
            for side in (self.exits, self.entries)
        )


def _end(ell, d, side):
    """(t, i): from the point with distances ell, the ray along one side of d
    meets facet i first, after t units of v.

    `side` is d.exits or d.entries and must not be empty.  Raises
    HitsLowerFace when facets tie and NotTransverse when <v, xi_i> != +-1.
    """
    best_t = None
    best = []
    for i, p in side:
        t = ell[i] if p == 1 else ell[i] / p
        s = -1 if best_t is None else (t - best_t).sign()
        if s < 0:
            best_t, best = t, [i]
        elif s == 0:
            best.append(i)
    if len(best) > 1:
        raise HitsLowerFace(f"probe endpoint lies on facets {best} simultaneously")
    i = best[0]
    if abs(d.pairing[i]) != 1:
        raise NotTransverse(f"pairing <v, xi_{i}> = {d.pairing[i]} at the hit facet")
    return best_t, i


def _shift(x, s, v):
    """x + s*v for an integer vector v."""
    neg = -s
    return tuple(
        c if k == 0 else c + s if k == 1 else c + neg if k == -1 else c + s * k
        for c, k in zip(x, v)
    )


class ProbeSolver:
    """Symmetric probes of one polytope along the directions up to a sup-norm cap.

    Works on the distance vector l(x): the pairing row of every direction is
    computed once, the endpoints follow from l(x) alone, and the partner's
    distances are l + (t_+ - t_-) * p, so no point is checked again from
    its coordinates.
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

    def hits(self, ell):
        """(direction, t_-, entry facet, t_+, exit facet) of every probe through
        the point with distances `ell`, in canonical direction order."""
        out = []
        for d in self.directions:
            try:
                t_plus, exit_ = _end(ell, d, d.exits)
                t_minus, entry = _end(ell, d, d.entries)
            except (HitsLowerFace, NotTransverse):
                continue
            out.append((d, t_minus, entry, t_plus, exit_))
        return out

    def probe(self, x, hit) -> SymmetricProbe:
        d, t_minus, entry, t_plus, exit_ = hit
        return _make_probe(self.facets, x, d.v, t_minus, entry, t_plus, exit_)

    @staticmethod
    def partner(x, hit):
        """The partner point x + (t_+ - t_-) * v."""
        d, t_minus, _, t_plus, _ = hit
        return _shift(x, t_plus - t_minus, d.v)

    @staticmethod
    def partner_ell(ell, hit):
        """The partner's distances l + (t_+ - t_-) * p."""
        d, t_minus, _, t_plus, _ = hit
        return _shift(ell, t_plus - t_minus, d.pairing)

    def involution(self, hit):
        """The involution matrix of the probe, cached per (v, entry, exit)."""
        d, _, entry, _, exit_ = hit
        key = (d.v, entry, exit_)
        matrix = self._involutions.get(key)
        if matrix is None:
            matrix = self._involutions[key] = _involution_matrix(
                d.v, self.facets[entry].normal, self.facets[exit_].normal
            )
        return matrix


def solver(poly: DelzantPolytope, max_norm: int) -> ProbeSolver:
    """The ProbeSolver of poly up to max_norm, built once per polytope and cap."""
    max_norm = operator.index(max_norm)
    cached = poly._solvers.get(max_norm)
    if cached is None:
        cached = poly._solvers[max_norm] = ProbeSolver(poly, max_norm)
    return cached


def _make_probe(facets, x, v, t_minus, entry, t_plus, exit_):
    return SymmetricProbe(
        direction=v,
        entry_facet=entry,
        exit_facet=exit_,
        entry_point=_shift(x, -t_minus, v),
        length=t_minus + t_plus,
        entry_normal=facets[entry].normal,
        exit_normal=facets[exit_].normal,
    )


def shoot(poly: DelzantPolytope, x, v) -> SymmetricProbe:
    """The symmetric probe through the interior point x in direction v.

    Walks the ray both ways, +v first: the first facet hit must be unique
    (else the endpoint lies on a lower-dimensional face) and must pair to
    +-1 with v (integral transversality).
    """
    f = poly.fibre(x)
    v = tuple(map(operator.index, v))
    if not lattice.is_primitive(v):
        raise NotPrimitive(f"direction {v} is not primitive")
    d = _Direction(v, tuple(f.normal for f in poly.facets))

    def end(side, label):
        if not side:
            raise UnboundedRay(f"ray {label} from {point_str(f.point)} never exits")
        return _end(f.ell, d, side)

    t_plus, exit_idx = end(d.exits, "+v")
    t_minus, entry_idx = end(d.entries, "-v")
    return _make_probe(poly.facets, f.point, v, t_minus, entry_idx, t_plus, exit_idx)


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
    f = poly.fibre(x)
    probe_solver = solver(poly, max_norm)
    return [probe_solver.probe(f.point, hit) for hit in probe_solver.hits(f.ell)]
