"""Holonomy groups of orbit graphs and the ambient monodromy solver.

Holonomy generators come from probe involutions composed around cycles of
an orbit graph (plus midpoint self-loops); closure is enumerated up to a
cap since infinite groups occur.  The ambient solver sets up the integer
constraints a Hamiltonian diffeomorphism imposes on the canonical disk
basis: distinguished classes permute, columns have Maslov index two, disk
areas transform to disk areas, and the second homology is fixed.  Integer
infeasibility is certified exactly; when the solution lattice is nonempty
the remaining determinant condition is decided exactly in the affine case
and by bounded enumeration otherwise.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import deque
from dataclasses import dataclass
from typing import Optional

from . import lattice
from .errors import BaseNotInGraph, DimensionMismatch, NotReductionType
from .lattice import ExactScalar
from .orbit import OrbitGraph
from .polytope import DelzantPolytope


@dataclass(frozen=True)
class MatrixGroup:
    generators: tuple
    elements: tuple          # closure, complete iff not truncated
    truncated: bool
    cap: int

    @property
    def order(self) -> Optional[int]:
        return None if self.truncated else len(self.elements)

    def to_json(self):
        return {
            "generators": [[list(r) for r in g] for g in self.generators],
            "elements": [[list(r) for r in g] for g in self.elements],
            "truncated": self.truncated,
            "cap": self.cap,
        }


def _check_cap(cap):
    if operator.index(cap) < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")


def mulclose(generators, cap: int) -> MatrixGroup:
    """Close a set of +-1-determinant integer matrices under products."""
    _check_cap(cap)
    gens = []
    for g in generators:
        g = tuple(tuple(map(operator.index, row)) for row in g)
        if g not in gens:
            gens.append(g)
    n = len(gens[0]) if gens else 0
    ident = lattice.identity(n) if n else ()
    seed = set(gens) | {ident} | {lattice.unimodular_inverse(g) for g in gens}
    elements = set(seed)
    frontier = list(seed)
    truncated = False
    while frontier and not truncated:
        new = []
        for a in gens:
            for b in frontier:
                c = lattice.mat_mul(a, b)
                if c not in elements:
                    elements.add(c)
                    new.append(c)
                    if len(elements) >= cap:
                        truncated = True
                        break
            if truncated:
                break
        frontier = new
    # Untruncated, the set is finite and closed under left multiplication by
    # each generator, an injective map of it into itself and so a bijection:
    # the set is the group generated, already closed under inverses.  A
    # truncated list is made inverse-closed here.
    if truncated:
        for g in list(elements):
            elements.add(lattice.unimodular_inverse(g))
    return MatrixGroup(
        tuple(sorted(gens)), tuple(sorted(elements)), truncated, cap
    )


def holonomy_group(graph: OrbitGraph, base, cap: int = 256) -> MatrixGroup:
    """The subgroup of Aut H_1 generated by probe transports around cycles.

    Builds a spanning tree of the orbit graph from the base point; each
    non-tree edge (self-loops included) contributes the transport product
    around its fundamental cycle.
    """
    from .polytope import as_point

    _check_cap(cap)
    base = as_point(base)
    node_set = set(graph.nodes)
    if base not in node_set:
        raise BaseNotInGraph(f"base point is not a stored node of the graph")
    n = len(base)
    adjacency = {}
    for move in graph.edges:
        adjacency.setdefault(move.source, []).append(move)
        adjacency.setdefault(move.target, []).append(move.reversed())
    transport = {base: lattice.identity(n)}
    tree_edges = set()
    queue = deque([base])
    while queue:
        u = queue.popleft()
        for move in adjacency.get(u, []):
            v = move.target
            if v not in transport:
                transport[v] = lattice.mat_mul(move.transport, transport[u])
                tree_edges.add(move.key)
                queue.append(v)
    generators = []
    for move in graph.edges:
        # a self-loop is never a tree edge; its cycle is p^-1 T p
        if move.key in tree_edges:
            continue
        if move.source not in transport or move.target not in transport:
            continue
        g = lattice.mat_mul(
            lattice.unimodular_inverse(transport[move.target]),
            lattice.mat_mul(move.transport, transport[move.source]),
        )
        generators.append(g)
    ident = lattice.identity(n)
    generators = [g for g in generators if g != ident]
    if not generators:
        return MatrixGroup((), (ident,), False, cap)
    return mulclose(generators, cap)


# ---------------------------------------------------------------------------
# Ambient monodromy constraints.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AmbientSolution:
    A: tuple          # N x N integer matrix, columns = images of the disk basis
    induced: tuple    # n x n map on H_1
    perm: tuple       # pairs (i, pi(i)) on the distinguished indices

    def to_json(self):
        return {
            "A": [list(r) for r in self.A],
            "induced": [list(r) for r in self.induced],
            "perm": [list(p) for p in self.perm],
        }


@dataclass(frozen=True)
class AmbientOutcome:
    kind: str                 # "solutions" | "infeasible" | "inconclusive"
    solutions: tuple = ()
    certificates: tuple = ()  # one entry per distinguished bijection
    bound: int = 0

    def to_json(self):
        return {
            "kind": self.kind,
            "bound": self.bound,
            "solutions": [s.to_json() for s in self.solutions],
            "certificates": [
                c.to_json() if hasattr(c, "to_json") else c
                for c in self.certificates
            ],
        }


# sparse multivariate integer polynomials: {sorted var tuple: coeff}

def _poly_add(p, q):
    out = dict(p)
    for k, c in q.items():
        c2 = out.get(k, 0) + c
        if c2:
            out[k] = c2
        elif k in out:
            del out[k]
    return out


def _poly_mul(p, q):
    out = {}
    for k1, c1 in p.items():
        for k2, c2 in q.items():
            k = tuple(sorted(k1 + k2))
            c = out.get(k, 0) + c1 * c2
            if c:
                out[k] = c
            elif k in out:
                del out[k]
    return out


def _poly_det(M):
    n = len(M)
    if n == 0:
        return {(): 1}
    if n == 1:
        return dict(M[0][0])
    out = {}
    for j in range(n):
        if not M[0][j]:
            continue
        minor = [
            [M[r][c] for c in range(n) if c != j] for r in range(1, n)
        ]
        term = _poly_mul(M[0][j], _poly_det(minor))
        if j % 2:
            term = {k: -c for k, c in term.items()}
        out = _poly_add(out, term)
    return out


def _poly_hits(p, k, bound, targets):
    """The points t of [-bound, bound]^k with p(t) in targets, in lexicographic
    order.  Variables 0..k-2 are fixed one at a time by specialising the
    sparse polynomial (their entries lead each sorted monomial); the last
    one is scanned with Horner's rule on its coefficient list."""
    values = range(-bound, bound + 1)
    if k == 0:
        return [()] if p.get((), 0) in targets else []

    size = max(map(len, p), default=0) + 1

    def sweep(p, var):
        # p as a polynomial in var: (power, monomial in later variables, coeff)
        terms = []
        for mono, c in p.items():
            m = mono.count(var)
            terms.append((m, mono[m:], c))
        hits = []
        if var == k - 1:
            coeffs = [0] * size
            for m, _, c in terms:
                coeffs[size - 1 - m] += c
            for v in values:
                total = 0
                for c in coeffs:
                    total = total * v + c
                if total in targets:
                    hits.append((v,))
            return hits
        for v in values:
            q = {}
            for m, rest, c in terms:
                q[rest] = q.get(rest, 0) + c * v ** m
            hits.extend((v,) + t for t in sweep(q, var + 1))
        return hits

    return sweep(p, 0)


def solve_ambient(poly: DelzantPolytope, x, y, bound: int) -> AmbientOutcome:
    """Integer matrices realizing the ambient monodromy constraints x -> y.

    For every bijection of distinguished indices the remaining entries form
    an integer affine system (Maslov rows, area rows split over {1, sqrt D},
    fixed second homology).  The answer is a list of solutions, an exact
    infeasibility certificate, or "inconclusive" when only the nonlinear
    determinant condition is left undecided within the bound.

    The solutions of the system are z0 + sum t_k kernel_k; the sweep covers
    the box [-bound, bound]^k of kernel parameters t and keeps the points
    where det(induced) = +-1.  A box of more than 200 000 points is not
    swept: only its centre t = 0 is tested.  The induced map on H_1 is
    (Xi A)[:, J] adj(S) divided exactly by det S for an invertible block S
    = Xi[:, J] of the normal matrix Xi; a solution whose division leaves a
    remainder is not integral and is dropped.  A negative bound raises
    ValueError.
    """
    if bound < 0:
        raise ValueError(f"bound must be >= 0, got {bound}")
    if not poly.normals_span():
        raise NotReductionType("facet normals do not span R^n")
    fx, fy = poly.fibre(x), poly.fibre(y)
    N = poly.nfacets
    n = poly.dim
    if fx.d != fy.d or len(fx.active) != len(fy.active):
        return AmbientOutcome(
            "infeasible",
            certificates=(
                {
                    "kind": "invariants",
                    "d": [str(fx.d), str(fy.d)],
                    "count": [len(fx.active), len(fy.active)],
                },
            ),
            bound=bound,
        )
    xi = lattice.transpose(tuple(f.normal for f in poly.facets))  # n x N
    _, h2 = poly.boundary_data()
    det_S, J, adj_S = _induced_frame(xi, n, N)
    free = [i for i in range(N) if i not in fx.active]
    f = len(free)
    solutions = []
    certificates = []
    inconclusive = False
    for images in itertools.permutations(fy.active):
        perm = tuple(zip(fx.active, images))
        fixed_cols = {i: j for i, j in perm}
        rows, rhs = _ambient_system(fx.ell, fy.ell, h2, free, fixed_cols, N)
        z0, kernel, cert = lattice.solve_integer(rows, rhs)
        if cert is not None:
            certificates.append({"kind": "linear", "perm": perm, **cert.to_json()})
            continue
        if fx.point == fy.point and all(i == j for i, j in perm):
            # recenter on the identity so t = 0 always recovers it
            z0 = tuple(
                1 if j == free[s] else 0
                for s in range(f)
                for j in range(N)
            )
            assert all(
                lattice.dot(row, z0) == b for row, b in zip(rows, rhs)
            ), "the identity must solve its own constraint system"
        # determinant condition det(induced) = +-1, i.e. det B(t) = +-det S
        detpoly = _poly_det(_induced_family(xi, J, z0, kernel, free, fixed_cols, N))
        degree = max((len(m) for m in detpoly), default=0)
        found = []
        # a box too large to sweep still reports its centre point
        box_bound = bound if (2 * bound + 1) ** len(kernel) <= 200_000 else 0
        for t in _poly_hits(detpoly, len(kernel), box_bound, (det_S, -det_S)):
            A = _assemble(z0, kernel, t, free, fixed_cols, N)
            induced = _induced_matrix(xi, A, J, adj_S, det_S)
            if induced is not None:
                found.append(AmbientSolution(A, induced, perm))
        if found:
            solutions.extend(found)
            continue
        if degree <= 1:
            g0 = detpoly.get((), 0)
            gs = [detpoly.get((k,), 0) for k in range(len(kernel))]
            g = math.gcd(*gs)
            if all((c - g0) % g if g else c != g0 for c in (det_S, -det_S)):
                certificates.append(
                    {
                        "kind": "determinant",
                        "perm": perm,
                        "det_affine": {"const": g0, "coeffs": gs},
                        "targets": [det_S, -det_S],
                        "gcd": g,
                    }
                )
                continue
        inconclusive = True
    if solutions:
        solutions.sort(key=lambda s: s.A)
        return AmbientOutcome("solutions", tuple(solutions), tuple(certificates), bound)
    if inconclusive:
        return AmbientOutcome("inconclusive", (), tuple(certificates), bound)
    return AmbientOutcome("infeasible", (), tuple(certificates), bound)


def _scaled(nums, dens):
    """The rationals nums[i] / dens[i] times the lcm of their reduced
    denominators, as ints."""
    den = math.lcm(*(c // math.gcd(a, c) for a, c in zip(nums, dens)))
    return [a * den // c for a, c in zip(nums, dens)]


def _ambient_system(lx, ly, h2, free, fixed_cols, N):
    """Integer rows/rhs of the affine system in the free column entries.

    Each free column i has a Maslov row and two area rows, one for the
    rational parts a/c and one for the sqrt(D) parts b/c of the distances,
    each scaled by the lcm of its reduced denominators.  A row that
    vanishes together with its rhs is dropped.
    """
    width = len(free) * N
    rows, rhs = [], []

    def add(row, b):
        if any(row) or b:
            rows.append(tuple(row))
            rhs.append(b)

    for s, i in enumerate(free):
        block = slice(s * N, s * N + N)
        row = [0] * width
        row[block] = [1] * N
        add(row, 1)
        values = (*ly, lx[i])
        for nums in ([v.a for v in values], [v.b for v in values]):
            *entries, b = _scaled(nums, [v.c for v in values])
            row = [0] * width
            row[block] = entries
            add(row, b)
    for r in h2:
        for j in range(N):
            row = [0] * width
            row[j::N] = [r[i] for i in free]
            add(row, r[j] - sum(r[i] for i, tgt in fixed_cols.items() if tgt == j))
    return rows, rhs


def _assemble(z0, kernel, t, free, fixed_cols, N):
    z = list(z0)
    for coeff, k in zip(t, kernel):
        z = [a + coeff * b for a, b in zip(z, k)]
    A = [[0] * N for _ in range(N)]
    for i, tgt in fixed_cols.items():
        A[tgt][i] = 1
    for s, i in enumerate(free):
        for j in range(N):
            A[j][i] = z[s * N + j]
    return tuple(map(tuple, A))


def _columns(M, cols):
    """The submatrix of M on the given columns."""
    return tuple(tuple(row[c] for c in cols) for row in M)


def _induced_frame(xi, n, N):
    """(det S, J, adj S) for the first column subset J of the normal matrix
    whose n x n block S is invertible."""
    for J in itertools.combinations(range(N), n):
        d, adj = lattice.adjugate(_columns(xi, J))
        if d != 0:
            return d, J, adj
    raise NotReductionType("facet normals do not span R^n")


def _induced_family(xi, J, z0, kernel, free, fixed_cols, N):
    """(Xi A(t))[:, J] = B0 + sum t_k Bk for A(t) the matrix of z0 + sum
    t_k kernel_k, as the n x n matrix of sparse polynomials
    {(): B0[r][c], (k,): Bk[r][c]} that `_poly_det` takes."""

    def block(z, fixed):
        return _columns(lattice.mat_mul(xi, _assemble(z, (), (), free, fixed, N)), J)

    blocks = [((), block(z0, fixed_cols))]
    blocks += [((k,), block(z, {})) for k, z in enumerate(kernel)]
    n = len(J)
    return [
        [{mono: B[r][c] for mono, B in blocks if B[r][c]} for c in range(n)]
        for r in range(n)
    ]


def _induced_matrix(xi, A, J, adj, det):
    """The induced n x n map M = (Xi A)[:, J] adj / det on H_1, or None when
    it is not integral (a division leaves a remainder) or A does not preserve
    the kernel of Xi.  An exact quotient has M Xi = Xi A on the columns J, so
    only the other columns are checked."""
    XA = lattice.mat_mul(xi, A)
    out = []
    for row in lattice.mat_mul(_columns(XA, J), adj):
        ints = []
        for v in row:
            q, r = divmod(v, det)
            if r:
                return None
            ints.append(q)
        out.append(tuple(ints))
    rest = [c for c in range(len(A)) if c not in J]
    if lattice.mat_mul(out, _columns(xi, rest)) != _columns(XA, rest):
        return None
    return tuple(out)


@dataclass(frozen=True)
class AmbientReport:
    distinguished: bool
    maslov: bool
    area: bool
    h2: bool
    induced: Optional[tuple]

    @property
    def all_pass(self):
        return self.distinguished and self.maslov and self.area and self.h2

    def to_json(self):
        return {
            "distinguished": self.distinguished,
            "maslov": self.maslov,
            "area": self.area,
            "h2": self.h2,
            "induced": None if self.induced is None else [list(r) for r in self.induced],
            "all_pass": self.all_pass,
        }


def check_ambient(poly: DelzantPolytope, x, y, A) -> AmbientReport:
    """Evaluate the four ambient constraints independently for a given A."""
    A = tuple(tuple(map(operator.index, row)) for row in A)
    N = poly.nfacets
    if len(A) != N or any(len(r) != N for r in A):
        raise DimensionMismatch(f"expected a {N}x{N} matrix")
    fx, fy = poly.fibre(x), poly.fibre(y)
    cols = lattice.transpose(A)
    images = set()
    distinguished = True
    for i in fx.active:
        col = cols[i]
        ones = [j for j, c in enumerate(col) if c != 0]
        if len(ones) == 1 and col[ones[0]] == 1 and ones[0] in fy.active:
            images.add(ones[0])
        else:
            distinguished = False
    distinguished = distinguished and images == set(fy.active)
    maslov = all(sum(col) == 1 for col in cols)
    area = all(
        sum((fy.ell[j] * A[j][i] for j in range(N)), ExactScalar.of(0)) == fx.ell[i]
        for i in range(N)
    )
    _, h2 = poly.boundary_data()
    h2_ok = all(lattice.mat_vec(A, r) == tuple(r) for r in h2)
    induced = None
    if poly.normals_span():
        xi = lattice.transpose(tuple(f.normal for f in poly.facets))
        det_S, J, adj_S = _induced_frame(xi, poly.dim, N)
        induced = _induced_matrix(xi, A, J, adj_S, det_S)
    return AmbientReport(distinguished, maslov, area, h2_ok, induced)
