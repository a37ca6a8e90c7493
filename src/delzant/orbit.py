"""Orbit exploration: closing a fibre under probe-partner moves.

The explorer performs a breadth-first closure of a base point under all
partner moves of probes up to a direction cap.  Points are deduplicated
by their exact coordinates, so the search is sound; window and size caps
make it finite, and `truncated` records whether any cap was hit.  Points
one step outside the window are still expanded (a single shell), since
orbits can re-enter the window from outside.

A move adds (l_exit - l_entry) * v to a point and (l_exit - l_entry) * p to
its distances, so the whole orbit lies on one `lattice.Grid`: the common
denominator c and field D of the root, its distances and the window.  The
search runs on packed rows of ints over that grid.  One builder, `_mover`,
makes each recorded move a `ProbeMove` once: every move of the graph that
`explore` returns, and for `decide` only the moves of its path.  Moves are
slotted records, immutable by convention, that compare and hash by value.
"""

from __future__ import annotations

from collections import deque, namedtuple
from dataclasses import dataclass, field
from operator import add, mul
from typing import Optional

from . import lattice, probe as probe_mod
from .errors import DimensionMismatch, NotInterior
from .lattice import Grid, Record, _sign
from .polytope import DelzantPolytope, as_point, in_window, point_str, window


@dataclass(frozen=True)
class OrbitParams:
    max_norm: int
    max_points: int = 500
    max_depth: int = 32
    window: Optional[tuple] = None  # per-coordinate (lo, hi) scalar bounds

    def __post_init__(self):
        caps = (self.max_norm, self.max_points, self.max_depth)
        if min(map(lattice.integer, caps)) < 1:
            raise ValueError("all caps must be >= 1")
        if self.window is not None:
            # exact bounds, as the CLI reads them: a float or bool raises TypeError
            object.__setattr__(self, "window", window(self.window))

    def in_window(self, x) -> bool:
        return in_window(x, self.window)


@dataclass(slots=True, unsafe_hash=True)
class ProbeMove(Record):
    probe: probe_mod.SymmetricProbe
    source: tuple
    target: tuple
    transport: tuple  # the involution matrix on H_1

    def reversed(self):
        # Partner moves are involutions, so the reverse move reuses the probe.
        return ProbeMove(self.probe, self.target, self.source, self.transport)


@dataclass
class OrbitGraph(Record):
    root: tuple
    nodes: list
    edges: list
    truncated: bool
    parents: dict = field(repr=False, default_factory=dict)

    def path_to(self, target) -> list:
        """The recorded move path root -> target (may pass outside the window)."""
        target = as_point(target)
        if target not in self.parents and target != self.root:
            raise KeyError(f"{point_str(target)} was not reached")
        path = []
        cur = target
        while cur != self.root:
            parent, move = self.parents[cur]
            path.append(move)
            cur = parent
        path.reverse()
        return path


def explore(poly: DelzantPolytope, x, params: OrbitParams) -> OrbitGraph:
    """BFS closure of x under partner moves of probes up to max_norm.

    Deterministic: probes are generated in canonical direction order and
    the frontier is FIFO.  Nodes are the stored (in-window) points; edges
    connect stored points only, but parent chains may run through the
    one-shell frontier outside the window.  Every reached point carries
    its packed distance vector, from which `ProbeSolver` finds its probes.
    """
    return _graph(poly, _search(poly, x, params))


_Search = namedtuple("_Search", "grid solver records nodes edges truncated end")


def _search(poly, x, params, target=None):
    """The packed BFS of `explore` as a `_Search`, with nodes and edges on
    point ids into the records.

    records[i] = [packed point, packed distances, inside the window, depth,
    queued, parent move (u, i, hit) on ids], in discovery order; the root
    is records[0].  A search that reaches the point `target` stops there,
    marked truncated, with `end` its id; BFS fixes a point's parent chain
    when it first reaches the point, so that chain is the full search's.
    Otherwise (the target unreached or off the grid) `end` is None.
    """
    _check_window(poly, params)
    f = poly.fibre(x)
    root = f.point
    if not params.in_window(root):
        raise NotInterior(f"root {point_str(root)} lies outside the window")
    solver = probe_mod.solver(poly, params.max_norm)
    # (coordinate, bound, the sign of coordinate - bound outside the window)
    bounds = [
        (k, bound, out)
        for k, pair in enumerate(params.window or ())
        for bound, out in zip(pair, (-1, 1))
        if bound is not None
    ]
    grid = Grid(root, f.ell, [bound for _, bound, _ in bounds])
    D = grid.D
    n, N = poly.dim, poly.nfacets
    window = [(k, n + k, *grid.pack((bound,)), out) for k, bound, out in bounds]
    goal = grid.pack(target) if target is not None and grid.holds(target) else None
    records = [[grid.pack(root), grid.pack(f.ell), True, 0, True, None]]
    ids = {records[0][0]: 0}
    nodes = [0]
    edges = []
    edge_keys = set()
    truncated = False
    queue = deque([0])
    while queue:
        u = queue.popleft()
        x_u, ell_u, inside_u, depth_u, _, _ = records[u]
        if depth_u >= params.max_depth:
            truncated = True
            continue
        for hit in solver.hits(ell_u, D):
            d, entry, exit_ = hit
            sa = ell_u[exit_] - ell_u[entry]
            sb = ell_u[N + exit_] - ell_u[N + entry]
            row = tuple(map(add, x_u, map(mul, d.vv, (sa,) * n + (sb,) * n)))
            v = ids.get(row)
            move = None
            if v is None:
                inside = all(_sign(row[k] - a, row[j] - b, D) != out
                             for k, j, a, b, out in window)
                if inside and len(nodes) >= params.max_points:
                    truncated = True
                    continue
                ell_v = tuple(map(add, ell_u, map(mul, d.pp, (sa,) * N + (sb,) * N)))
                if min(map(_sign, ell_v[:N], ell_v[N:], (D,) * N)) <= 0:
                    raise NotInterior(f"partner {point_str(grid.unpack(row))}"
                                      " left the open polytope")
                v = ids[row] = len(records)
                move = (u, v, hit)
                records.append([row, ell_v, inside, depth_u + 1, inside, move])
                if row == goal:
                    return _Search(grid, solver, records, nodes, edges, True, v)
                if inside:
                    nodes.append(v)
                    queue.append(v)
                else:
                    truncated = True
            rec = records[v]
            if inside_u and not rec[2] and not rec[4]:
                # one shell only: expand out-of-window points once they are
                # reached from inside, never chains of them
                queue.append(v)
                rec[4] = True
            if inside_u and rec[2]:
                # a move and its reverse are one edge
                key = (frozenset((u, v)), d.v, entry, exit_)
                if key not in edge_keys:
                    edge_keys.add(key)
                    edges.append(move or (u, v, hit))
    return _Search(grid, solver, records, nodes, edges, truncated, None)


def _mover(poly, search, points):
    """The builder of ProbeMoves from the recorded moves (u, v, hit) of a
    search, from points[u] to points[v]; each move is built once."""
    facets, grid, records = poly.facets, search.grid, search.records
    involution = search.solver.involution
    moves = {}

    def build(move):
        built = moves.get(move)
        if built is None:
            u, v, hit = move
            x, ell = records[u][:2]
            built = moves[move] = ProbeMove(
                probe_mod.build_probe(facets, grid, x, ell, hit),
                points[u], points[v], involution(hit))
        return built

    return build


def _graph(poly, search):
    """The OrbitGraph of a search on point ids: each reached point becomes
    scalars once, and each recorded move a ProbeMove once."""
    records = search.records
    points = [search.grid.unpack(rec[0]) for rec in records]
    build = _mover(poly, search, points)
    parents = {}
    for rec in records[1:]:
        move = rec[5]
        parents[points[move[1]]] = (points[move[0]], build(move))
    return OrbitGraph(points[0], [points[i] for i in search.nodes],
                      [build(move) for move in search.edges], search.truncated,
                      parents)


def _check_window(poly, params):
    """Raise DimensionMismatch unless the window has one range per coordinate."""
    window = params.window
    if window is not None and len(window) != poly.dim:
        raise DimensionMismatch(
            f"window of length {len(window)} in dim {poly.dim}"
        )


def replay_path(x, path) -> tuple:
    """Re-run a move path from x with probe.partner, returning the endpoint."""
    cur = as_point(x)
    for move in path:
        if cur != move.source:
            raise ValueError(
                f"path breaks at {point_str(cur)}: move starts at "
                f"{point_str(move.source)}"
            )
        cur = probe_mod.partner(move.probe, cur)
        if cur != move.target:
            raise ValueError("recorded move target disagrees with partner()")
    return cur


def _path(poly, search, v) -> list:
    """The recorded moves root -> record v, built for this path only."""
    records = search.records
    chain = [v]
    while v:
        v = records[v][5][0]
        chain.append(v)
    points = {i: search.grid.unpack(records[i][0]) for i in chain}
    build = _mover(poly, search, points)
    return [build(records[i][5]) for i in reversed(chain[:-1])]


def _reversed(path) -> tuple:
    """The path walked backwards: partner moves are involutions."""
    return tuple(m.reversed() for m in reversed(path))


def _meet(search_x, search_y):
    """Ids (i, j) of the first point that both searches reached, first in
    x's discovery order with both roots excluded; None when there is none.

    An orbit lies on the grid of its root, so a point of both orbits puts
    y on the grid of x and x on the grid of y: searches on different grids
    share no point, and on one grid equal points are equal rows."""
    gx, rx = search_x.grid, search_x.records
    gy, ry = search_y.grid, search_y.records
    if (gx.c, gx.D) != (gy.c, gy.D):
        return None
    seen = {rec[0]: j for j, rec in enumerate(ry) if j}
    for i in range(1, len(rx)):
        j = seen.get(rx[i][0])
        if j is not None:
            return i, j
    return None


@dataclass(frozen=True)
class Verdict:
    kind: str  # "equivalent" | "distinct" | "unknown"
    path: Optional[tuple] = None
    reason: Optional[str] = None
    certificate: object = None

    def to_json(self):
        out = {"verdict": self.kind}
        for name in ("path", "reason", "certificate"):
            value = getattr(self, name)
            if value is not None:
                out[name] = lattice.to_json(value)
        return out


def decide(poly: DelzantPolytope, x, y, params: OrbitParams) -> Verdict:
    """Equivalence decision combining obstruction and construction.

    Unequal invariants give Distinct (flagged as heuristic when the
    normals do not span, since the invariants are only proven obstructions
    for polytopes that lift to an orthant).  A connecting probe path gives
    Equivalent.  Otherwise the ambient integer solver may certify Distinct;
    absence of a path within the caps is never conclusive, hence Unknown.

    Each path search is `_search`, the packed search of `explore`, given a
    `target`, so it stops at the point it looks for; one that never finds
    it is the full search, so verdicts and paths are those of two full
    searches and the meet scan.  No graph is built: scalars, probes and
    moves are made only for the path returned.  A search starts only from
    an endpoint inside the window, and the meet scan runs only when both
    searches ran; a cap never turns an answer into an error.
    """
    _check_window(poly, params)
    fx, fy = poly.fibre(x), poly.fibre(y)
    x, y = fx.point, fy.point
    if x == y:
        return Verdict("equivalent", path=())
    reduction_type = poly.normals_span()
    inv_x = poly.invariants(fx)
    inv_y = poly.invariants(fy)
    # only (d, #_d, Gamma) obstruct; the reduced vector is normal-form data
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
            certificate={"x": inv_x, "y": inv_y, "reduction_type": reduction_type},
        )
    search_x = params.in_window(x) and _search(poly, fx, params, target=y)
    if search_x and search_x.end is not None:
        return Verdict("equivalent", path=tuple(_path(poly, search_x, search_x.end)))
    search_y = params.in_window(y) and _search(poly, fy, params, target=x)
    if search_y and search_y.end is not None:
        return Verdict("equivalent",
                       path=_reversed(_path(poly, search_y, search_y.end)))
    meet = search_x and search_y and _meet(search_x, search_y)
    if meet:
        forward = _path(poly, search_x, meet[0])
        return Verdict("equivalent",
                       path=tuple(forward) + _reversed(_path(poly, search_y, meet[1])))
    if reduction_type:
        from . import monodromy

        outcome = monodromy.solve_ambient(poly, fx, fy, bound=3)
        if outcome.kind == "infeasible":
            return Verdict(
                "distinct",
                reason="ambient monodromy constraints are integer-infeasible",
                certificate=outcome,
            )
        state = ("are solvable" if outcome.kind == "solutions"
                 else f"undecided within bound {outcome.bound}")
        return Verdict("unknown",
                       reason=f"no probe path within caps; ambient constraints {state}")
    return Verdict(
        "unknown",
        reason=(
            "no probe path within caps; ambient solver unavailable"
            " (normals do not span R^n)"
        ),
    )
