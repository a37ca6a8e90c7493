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

import functools
import itertools
import math
import operator
from collections import deque
from dataclasses import dataclass
from typing import Optional

from . import lattice
from .errors import BaseNotInGraph, DimensionMismatch, NotReductionType, SelfCheckFailed
from .lattice import ExactScalar, Record
from .polytope import DelzantPolytope, as_point, point_str


@dataclass(frozen=True)
class MatrixGroup(Record):
    generators: tuple
    elements: tuple          # closure, complete iff not truncated
    truncated: bool
    cap: int


def _check_cap(cap):
    if lattice.integer(cap) < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")


def mulclose(generators, cap: int) -> MatrixGroup:
    """Close a set of +-1-determinant n x n integer matrices under products.

    Elements are held flat, row by row, as tuples of n^2 ints.  A new
    element c = a b records its generator a and factor b, so a truncated
    closure forms each inverse as b^-1 a^-1 and `lattice.adjugate` runs once
    per distinct generator.  Generators of mixed or non-square shapes raise
    DimensionMismatch.
    """
    _check_cap(cap)
    gens = []
    for g in generators:
        g = tuple(tuple(map(lattice.integer, row)) for row in g)
        if g not in gens:
            gens.append(g)
    n = len(gens[0]) if gens else 0
    if any(len(g) != n or any(len(row) != n for row in g) for g in gens):
        raise DimensionMismatch(f"generators are not all {n}x{n}")
    inverses = [lattice.unimodular_inverse(g) for g in gens]
    ident = lattice.identity(n)
    # element -> (generator index, factor) that found it; the seed, in set order, -> None
    elements = dict.fromkeys(map(_flat, set(gens) | {ident} | set(inverses)))
    frontier = list(elements)
    truncated = False
    while frontier and not truncated:
        new = []
        columns = [[b[j::n] for j in range(n)] for b in frontier]
        for i, a in enumerate(gens):
            for b, cols in zip(frontier, columns):
                c = _product(a, cols)
                if c not in elements:
                    # a new element with cap elements held: the group is larger
                    if len(elements) >= cap:
                        truncated = True
                        break
                    elements[c] = i, b
                    new.append(c)
            if truncated:
                break
        frontier = new
    # Untruncated, the set is finite and closed under left multiplication by
    # each generator, an injective map of it into itself and so a bijection:
    # the set is the group generated, already closed under inverses.  A
    # truncated set is made inverse-closed here, each b^-1 formed before the
    # (a b)^-1 = b^-1 a^-1 that uses it, as b was found before a b.
    out = set(elements)
    if truncated:
        seed = gens + inverses + [ident]
        inverse = dict(zip(map(_flat, seed), map(_flat, inverses + gens + [ident])))
        for c, record in elements.items():
            if record:
                i, b = record
                inverse[c] = _product(_rows(inverse[b], 0, n, n), lattice.transpose(inverses[i]))
        out.update(inverse.values())
    elements = tuple(sorted(_rows(c, 0, n, n) for c in out))
    return MatrixGroup(tuple(sorted(gens)), elements, truncated, cap)


def _product(rows, columns):
    """The matrix product of these rows with these columns, flat."""
    return tuple([sum(map(operator.mul, row, col)) for row in rows for col in columns])


def holonomy_group(graph, base, cap: int = 256) -> MatrixGroup:
    """The subgroup of Aut H_1 generated by probe transports around cycles.

    Builds a spanning tree of the `orbit.OrbitGraph` from the base point;
    each non-tree edge (self-loops included) contributes the transport
    product around its fundamental cycle.  Edges are told apart by their
    index in `graph.edges`, and a move's transport is an involution, so it
    walks its edge either way.
    """
    _check_cap(cap)
    base = as_point(base)
    node_set = set(graph.nodes)
    if base not in node_set:
        raise BaseNotInGraph(f"base point {point_str(base)} is not a stored node of the graph")
    n = len(base)
    adjacency = {}
    for index, move in enumerate(graph.edges):
        adjacency.setdefault(move.source, []).append((index, move.target, move.transport))
        adjacency.setdefault(move.target, []).append((index, move.source, move.transport))
    transport = {base: lattice.identity(n)}
    tree_edges = set()
    queue = deque([base])
    while queue:
        u = queue.popleft()
        for index, v, T in adjacency.get(u, []):
            if v not in transport:
                transport[v] = lattice.mat_mul(T, transport[u])
                tree_edges.add(index)
                queue.append(v)
    generators = []
    for index, move in enumerate(graph.edges):
        # a self-loop is never a tree edge; its cycle is p^-1 T p
        if index in tree_edges:
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
class AmbientSolution(Record):
    A: tuple          # N x N integer matrix, columns = images of the disk basis
    induced: tuple    # n x n map on H_1
    perm: tuple       # pairs (i, pi(i)) on the distinguished indices


@dataclass(frozen=True)
class AmbientOutcome(Record):
    kind: str                 # "solutions" | "infeasible" | "inconclusive"
    solutions: tuple = ()
    certificates: tuple = ()  # one entry per distinguished bijection
    bound: int = 0


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
    order.

    When p has degree at most 1 in each of s = t_{k-2} and t = t_{k-1} and
    no monomial with both, only the prefixes t_0..t_{k-3} are walked, and at
    each one p is c + a s + b t, whose hits `_pair_roots` finds with one gcd;
    otherwise the prefixes t_0..t_{k-2} are walked, and p is a polynomial in
    t_{k-1}, whose hits `_last_roots` finds exactly instead of scanning its
    2 bound + 1 values.  The prefixes are walked lazily in lexicographic
    order by `itertools.product`, and p is specialised along them level by
    level: level i holds the coefficients of the monomials left once
    t_0..t_{i-1} are fixed, and it is kept until one of those parameters
    moves, so a step of the walk recomputes only the levels after the
    parameter that moved."""
    if k == 0:
        return [()] if p.get((), 0) in targets else []
    pair = k >= 2 and all(sum(v >= k - 2 for v in m) <= 1 for m in p)
    walked = k - 2 if pair else k - 1
    # monomials[i]: what is left of p's monomials once t_0..t_{i-1} are fixed
    # (their entries lead each sorted tuple); the last level lists 1, s, t,
    # or every power of t_{k-1}, so its coefficients form a dense list
    monomials = [list(p)]
    for i in range(walked):
        monomials.append(list(dict.fromkeys(m[m.count(i):] for m in monomials[i])))
    monomials[walked] = [(), (k - 2,), (k - 1,)] if pair else [
        (walked,) * e for e in range(max((m.count(walked) for m in p), default=0) + 1)]
    # plans[i]: for each power e of t_i on level i, the (slot on level i,
    # slot on level i + 1) of the monomials t_i^e m
    plans = []
    for i in range(walked):
        slot = {m: s for s, m in enumerate(monomials[i + 1])}
        groups = {}
        for a, m in enumerate(monomials[i]):
            e = m.count(i)
            groups.setdefault(e, []).append((a, slot[m[e:]]))
        plans.append(list(groups.items()))
    sizes = [len(level) for level in monomials]
    coeffs = [[p.get(m, 0) for m in monomials[0]]] + [None] * walked
    solve = _pair_roots if pair else lambda *args: [(x,) for x in _last_roots(*args)]
    hits = []
    for prefix in itertools.product(range(-bound, bound + 1), repeat=walked):
        # the walk moved t_i and reset every later parameter to -bound
        i = max(walked - 1, 0)
        while i > 0 and prefix[i] == -bound:
            i -= 1
        for i in range(i, walked):
            v, level = prefix[i], coeffs[i]
            out = [0] * sizes[i + 1]
            for e, pairs in plans[i]:
                w = v ** e
                for a, s in pairs:
                    out[s] += level[a] * w
            coeffs[i + 1] = out
        hits += [prefix + x for x in solve(coeffs[walked], bound, targets)]
    return hits


def _pair_roots(coeffs, bound, targets):
    """The (s, t) in [-bound, bound]^2, in lexicographic order, with
    c + a s + b t in targets for coeffs = [c, a, b].

    With g = gcd(a, b) = p a + q b > 0, a target T is hit only if g divides
    T - c, and then exactly at the s of one residue class mod |b| / g, from
    s_0 = p (T - c) / g, each with one t = (T - c - a s) / b, kept when it
    lies in the box.  At b = 0 the roles of s and t are swapped, and at
    a = b = 0 every point hits or none does."""
    c, a, b = coeffs
    values = range(-bound, bound + 1)
    swap = not b
    if swap:
        a, b = b, a
        if not b:
            return list(itertools.product(values, values)) if c in targets else []
    g, p, _ = lattice._exgcd(a, b)
    step = abs(b) // g
    hits = []
    for r in [target - c for target in targets if not (target - c) % g]:
        for s in range((p * (r // g) + bound) % step - bound, bound + 1, step):
            t = (r - a * s) // b
            if -bound <= t <= bound:
                hits.append((t, s) if swap else (s, t))
    return sorted(set(hits))


def _last_roots(coeffs, bound, targets):
    """The x in [-bound, bound], ascending, with sum coeffs[e] x^e in targets.

    The degree is that of the highest nonzero coefficient: at degree 0 every
    x or none hits and at degree 1 each target gives one divmod; above that
    Horner's rule runs on each x.  In the benchmark pools only the sweeps
    with k <= 1 come here, every one of degree 0 or 1 (the sweeps with
    k >= 2 all take `_pair_roots`), so the scan is the general path."""
    degree = len(coeffs) - 1
    while degree and not coeffs[degree]:
        degree -= 1
    if degree == 0:
        return range(-bound, bound + 1) if coeffs[0] in targets else ()
    roots = []
    if degree == 1:
        c, b = coeffs[0], coeffs[1]
        for target in targets:
            x, r = divmod(target - c, b)
            if not r and -bound <= x <= bound:
                roots.append(x)
        return sorted(set(roots)) if len(roots) > 1 else roots
    for x in range(-bound, bound + 1):
        total = 0
        for c in reversed(coeffs):
            total = total * x + c
        if total in targets:
            roots.append(x)
    return roots


def solve_ambient(poly: DelzantPolytope, x, y, bound: int) -> AmbientOutcome:
    """Integer matrices realizing the ambient monodromy constraints x -> y.

    For every bijection of distinguished indices the remaining entries form
    an integer affine system (Maslov rows, area rows split over {1, sqrt D},
    fixed second homology).  The answer is a list of solutions, an exact
    infeasibility certificate, or "inconclusive" when only the nonlinear
    determinant condition is left undecided within the bound.

    The solutions of the system are the affine family A(t) = A_0 + sum t_k
    A_k of z0 + sum t_k kernel_k; the sweep covers the box [-bound, bound]^k
    of kernel parameters t and keeps the points where det(induced) = +-1.
    A box of more than 200 000 points is not swept: only its centre t = 0
    is tested.  `_poly_hits` walks the first k - 2 parameters and solves
    for the last two with one gcd when the determinant polynomial is affine
    in each of them with no product of the two (every sweep with k >= 2 of
    the benchmark pools), and otherwise walks the first k - 1 and solves for
    the last one as a root of the polynomial in it.
    The induced map on H_1 is (Xi A)[:, J] adj(S) divided exactly by det S
    for an invertible block S = Xi[:, J] of the normal matrix Xi.  The
    products Xi A_k are formed once per bijection.  The hits come in
    lexicographic order, so each one keeps the partial sum of the prefix it
    shares with the hit before and adds the precomputed matrices of the
    later parameters only; it then divides by det S (a remainder means the
    map is not integral and drops the hit; at det S = 1 there is no
    division) and checks the columns outside J.  The bound must be an int
    (a float or a bool raises TypeError); a negative bound raises
    ValueError.
    """
    bound = lattice.integer(bound)
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
                    "d": [fx.d, fy.d],
                    "count": [len(fx.active), len(fy.active)],
                },
            ),
            bound=bound,
        )
    xi, h2 = poly.boundary_data()  # xi is n x N
    frame = _induced_frame(xi, n, N)
    det_S = frame[0]
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
            certificates.append({"kind": "linear", "perm": perm, "witness": cert})
            continue
        if fx.point == fy.point and all(i == j for i, j in perm):
            # recenter on the identity so t = 0 always recovers it
            z0 = tuple(
                1 if j == free[s] else 0
                for s in range(f)
                for j in range(N)
            )
            if any(lattice.dot(row, z0) != b for row, b in zip(rows, rhs)):
                raise SelfCheckFailed("the identity must solve its own constraint system")
        family = _AffineFamily(xi, frame, z0, kernel, free, fixed_cols)
        # determinant condition det(induced) = +-1, i.e. det B(t) = +-det S
        detpoly = _poly_det(_poly_matrix(family.B))
        degree = max((len(m) for m in detpoly), default=0)
        found = []
        # a box too large to sweep still reports its centre point
        box_bound = bound if (2 * bound + 1) ** len(kernel) <= 200_000 else 0
        hits = _poly_hits(detpoly, len(kernel), box_bound, (det_S, -det_S))
        for A, induced in family.at_each(hits):
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


def _ambient_system(lx, ly, h2, free, fixed_cols, N):
    """Integer rows/rhs of the affine system in the free column entries.

    Each free column i has a Maslov row and two area rows, one for the
    rational and one for the sqrt(D) parts of the distances packed on one
    `lattice.Grid` of denominator C.  Dividing an area row, rhs included,
    by the gcd of C and its entries scales its rationals by the lcm of
    their reduced denominators.  A row that vanishes with its rhs is dropped.
    """
    grid = lattice.Grid(lx, ly)
    px, py = grid.pack(lx), grid.pack(ly)
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
        for entries, b in ((py[:N], px[i]), (py[N:], px[N + i])):
            g = math.gcd(grid.c, b, *entries)
            row = [0] * width
            row[block] = [e // g for e in entries]
            add(row, b // g)
    for r in h2:
        for j in range(N):
            row = [0] * width
            row[j::N] = [r[i] for i in free]
            add(row, r[j] - sum(r[i] for i, tgt in fixed_cols.items() if tgt == j))
    return rows, rhs


def _assemble(z, free, fixed_cols, N):
    """The N x N matrix with the free columns read from z, column by column,
    and a 1 at (j, i) for each fixed column i -> j."""
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


class _AffineFamily:
    """The matrices A(t) = A_0 + sum t_k A_k of z0 + sum t_k kernel_k and
    their induced maps on H_1.

    With frame (det S, J, adj S) from `_induced_frame`, the products Xi A_k
    give the blocks B_k = (Xi A_k)[:, J] of the determinant polynomial,
    P_k = B_k adj S and the other columns R_k = (Xi A_k)[:, rest].  By
    linearity the induced map at t is P(t) / det S, and it preserves the
    kernel of Xi iff it maps Xi[:, rest] to R(t).
    """

    def __init__(self, xi, frame, z0, kernel, free, fixed_cols):
        N = len(xi[0])
        self.det, J, self.adj = frame
        self.rest = [c for c in range(N) if c not in J]
        self.As = [_assemble(z0, free, fixed_cols, N)]
        self.As += [_assemble(z, free, {}, N) for z in kernel]
        self.XA = [lattice.mat_mul(xi, A) for A in self.As]
        self.B = [_columns(M, J) for M in self.XA]
        self.xi_rest = _columns(xi, self.rest)
        self.shape = (N, len(J), len(self.rest))

    @functools.cached_property
    def vectors(self):
        """A_k, P_k and R_k flat, row by row, in one vector per k, so that a
        point t is one vector sum per nonzero t_k.  Formed at the first
        point, so a family the sweep never hits makes no product with adj S."""
        return [
            _flat(A) + _flat(lattice.mat_mul(B, self.adj)) + _flat(_columns(M, self.rest))
            for A, B, M in zip(self.As, self.B, self.XA)
        ]

    def at(self, t):
        """(A(t), its induced n x n map), the map None when it is not
        integral (a division leaves a remainder) or A(t) does not preserve
        the kernel of Xi."""
        return next(self.at_each([t]))

    def at_each(self, ts):
        """`at` of each point of the list ts, in order, by partial sums kept
        per prefix: sums[i] is A_0 + sum_{j<i} t_j A_{j+1} (and so for P and
        R), so a point that shares its first i parameters with the one before
        adds one vector for each nonzero parameter after those.  An empty
        list forms no vectors."""
        if not ts:
            return
        vectors = self.vectors
        sums = [vectors[0]]
        last = ()
        for t in ts:
            i = 0
            for a, b in zip(t, last):
                if a != b:
                    break
                i += 1
            del sums[i + 1:]
            for c, w in zip(t[i:], vectors[i + 1:]):
                v = sums[-1]
                sums.append([a + c * b for a, b in zip(v, w)] if c else v)
            last = t
            yield self._split(sums[-1])

    def _split(self, v):
        """A and the induced map from the flat vector v of a point: P
        divided exactly by det S (no division at det S = 1, which every
        evaluated point of the benchmark pools had, measured at b8355d5),
        the map dropped on a remainder.  An exact quotient M has M Xi = Xi A on
        the columns J, so only the other columns are checked."""
        N, n, m = self.shape
        A = _rows(v, 0, N, N)
        det = self.det
        P = v[N * N:N * N + n * n]
        if det != 1:
            quotients = []
            for e in P:
                q, rem = divmod(e, det)
                if rem:
                    return A, None
                quotients.append(q)
            P = quotients
        out = _rows(P, 0, n, n)
        # with every column in J (cn(n)) there is nothing left to check
        if m and lattice.mat_mul(out, self.xi_rest) != _rows(v, N * N + n * n, n, m):
            return A, None
        return A, out


def _flat(M):
    return tuple(itertools.chain.from_iterable(M))


def _rows(v, start, nrows, ncols):
    """The nrows x ncols matrix stored flat in v from index start (ncols > 0)."""
    entries = iter(v[start:start + nrows * ncols])
    return tuple(zip(*[entries] * ncols))


def _poly_matrix(blocks):
    """B_0 + sum t_k B_{k+1} as the n x n matrix of sparse polynomials
    {(): B_0[r][c], (k,): B_{k+1}[r][c]} that `_poly_det` takes."""
    monos = [()] + [(k,) for k in range(len(blocks) - 1)]
    n = len(blocks[0])
    return [
        [{m: B[r][c] for m, B in zip(monos, blocks) if B[r][c]} for c in range(n)]
        for r in range(n)
    ]


@dataclass(frozen=True)
class AmbientReport(Record):
    distinguished: bool
    maslov: bool
    area: bool
    h2: bool
    induced: Optional[tuple]

    @property
    def all_pass(self):
        return self.distinguished and self.maslov and self.area and self.h2

    def to_json(self):
        return {**super().to_json(), "all_pass": self.all_pass}


def check_ambient(poly: DelzantPolytope, x, y, A) -> AmbientReport:
    """Evaluate the four ambient constraints independently for a given A."""
    A = tuple(tuple(map(lattice.integer, row)) for row in A)
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
    xi, h2 = poly.boundary_data()
    h2_ok = all(lattice.mat_vec(A, r) == tuple(r) for r in h2)
    induced = None
    if poly.normals_span():
        # A itself, as the family of all N columns free with no kernel
        z0 = tuple(itertools.chain.from_iterable(cols))
        family = _AffineFamily(xi, _induced_frame(xi, poly.dim, N), z0, (), range(N), {})
        _, induced = family.at(())
    return AmbientReport(distinguished, maslov, area, h2_ok, induced)
