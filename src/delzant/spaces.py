"""Preset polytopes and hand-encoded classification oracles.

The oracles transcribe the closed-form classification and monodromy
statements for each example space; they are fixtures the search engine is
measured against, so they never call the probe machinery.  Facet orders
are fixed as documented in each constructor.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass, field
from typing import Callable, Optional

from . import lattice
from .errors import NotInterior, OracleUnavailable, UnknownPreset
from .lattice import ExactScalar, ZERO
from .polytope import DelzantPolytope, as_point, in_window

_CN = re.compile(r"cn\((\d+)\)", re.ASCII)

PRESET_NAMES = ("cn(n)", "cp2", "s2s2_monotone", "c_x_s2", "c2_x_ts1", "ts1_x_s2")


def preset(name: str) -> DelzantPolytope:
    """A preset polytope by identifier (facet order fixed per space)."""
    m = _CN.fullmatch(name)
    if m:
        n = int(m.group(1))
        if n < 1:
            raise UnknownPreset(f"cn needs a positive dimension, got {n}")
        eye = lattice.identity(n)
        return DelzantPolytope(n, [(tuple(eye[i]), 0) for i in range(n)])
    if name == "cp2":
        # facets: x1 + 1, x2 + 1, -x1 - x2 + 1
        return DelzantPolytope(2, [((1, 0), 1), ((0, 1), 1), ((-1, -1), 1)])
    if name == "s2s2_monotone":
        # facets ordered (x1 = 1, x2 = 1, x1 = -1, x2 = -1)
        return DelzantPolytope(
            2, [((-1, 0), 1), ((0, -1), 1), ((1, 0), 1), ((0, 1), 1)]
        )
    if name == "c_x_s2":
        # R_{>=-1} x [-1, 1], facets ordered (x1 >= -1, x2 >= -1, x2 <= 1)
        return DelzantPolytope(2, [((1, 0), 1), ((0, 1), 1), ((0, -1), 1)])
    if name == "c2_x_ts1":
        # R^2_{>=0} x R, facets (x1 >= 0, x2 >= 0)
        return DelzantPolytope(3, [((1, 0, 0), 0), ((0, 1, 0), 0)])
    if name == "ts1_x_s2":
        # R x [-1, 1], facets ordered (x2 >= -1, x2 <= 1)
        return DelzantPolytope(2, [((0, 1), 1), ((0, -1), 1)])
    raise UnknownPreset(f"unknown preset {name!r}; known: {PRESET_NAMES}")


@functools.lru_cache(maxsize=64)
def _oracle_polytope(name):
    """One preset polytope per name for the oracles, which only read it;
    `preset` itself builds a fresh one on every call."""
    return preset(name)


def _require_interior(name, x):
    poly = _oracle_polytope(name)
    x = as_point(x)
    if not poly.is_interior(x):
        raise NotInterior(f"{x} is not interior to preset {name}")
    return poly, x


def _window_bound(window, coord, side):
    if window is None:
        return None
    lo, hi = window[coord]
    b = lo if side == "lo" else hi
    return None if b is None else ExactScalar.of(b)


def _clip_sort(points, window):
    out = sorted({p for p in points if in_window(p, window)})
    return [tuple(p) for p in out]


def _int_range(lo_value, hi_value):
    """Integers k with lo <= k <= hi for exact bounds (None = unbounded)."""
    if lo_value is None or hi_value is None:
        raise OracleUnavailable("an unbounded window cannot clip an infinite orbit")
    lo = math.ceil(lo_value)
    hi = math.floor(hi_value)
    return range(lo, hi + 1)


# ---------------------------------------------------------------------------
# Orbit oracles.
# ---------------------------------------------------------------------------


def oracle_orbit(name: str, x, window=None):
    """Closed-form enumeration of the equivalence class of x, clipped."""
    poly, x = _require_interior(name, x)
    if name == "s2s2_monotone":
        x1, x2 = x
        pts = {(s1 * a, s2 * b) for s1 in (1, -1) for s2 in (1, -1)
               for a, b in ((x1, x2), (x2, x1))}
        return _clip_sort(pts, window)
    if name == "cp2":
        values = poly.ell(x)
        pts = set()
        for perm in itertools.permutations(values):
            pts.add((perm[0] - 1, perm[1] - 1))
        return _clip_sort(pts, window)
    if name == "c_x_s2":
        return _clip_sort(_cxs2_orbit(x, window), window)
    if name == "c2_x_ts1":
        x1, x2, x3 = x
        if x1 == x2:
            return _clip_sort({(x1, x2, x3)}, window)
        step = x2 - x1
        lo = _window_bound(window, 2, "lo")
        hi = _window_bound(window, 2, "hi")
        if lo is None or hi is None:
            raise OracleUnavailable("need a bounded x3 window")
        bounds = sorted([(lo - x3) / step, (hi - x3) / step])
        pts = set()
        for k in _int_range(bounds[0], bounds[1]):
            z = x3 + k * step
            pts.add((x1, x2, z))
            pts.add((x2, x1, z))
        return _clip_sort(pts, window)
    if name == "ts1_x_s2":
        x1, x2 = x
        if x2 == 0:
            return _clip_sort({(x1, x2)}, window)
        step = 2 * abs(x2)
        lo = _window_bound(window, 0, "lo")
        hi = _window_bound(window, 0, "hi")
        if lo is None or hi is None:
            raise OracleUnavailable("need a bounded x1 window")
        pts = set()
        k = math.ceil((lo - x1) / step)
        while x1 + k * step <= hi:
            pts.add((x1 + k * step, abs(x2)))
            pts.add((x1 + k * step, -abs(x2)))
            k += 1
        return _clip_sort(pts, window)
    m = _CN.fullmatch(name)
    if m:
        return _clip_sort(_cn_orbit(x, window), window)
    raise UnknownPreset(name)


def _cxs2_orbit(x, window):
    kind, data = _cxs2_class(x)
    if kind == "fixed":
        return {tuple(x)}
    if kind == "negdiag":
        x1 = data
        return {(x1, x1), (x1, -x1)}
    hi = _window_bound(window, 0, "hi")
    if hi is None:
        raise OracleUnavailable("need a bounded x1 window")
    if kind == "axis":
        a = data
        pts = {(-a, ZERO)}
        for n in _int_range(0, math.floor(hi / (2 * a))):
            pts.add((2 * n * a, a))
            pts.add((2 * n * a, -a))
        return pts
    if kind == "posdiag":
        a = data
        pts = set()
        n = 0
        while (2 * n + 1) * a <= hi:
            pts.add(((2 * n + 1) * a, a))
            pts.add(((2 * n + 1) * a, -a))
            n += 1
        return pts
    c, a = data  # generic, 0 < c < a
    pts = {(-a, c), (-a, -c)}
    for sign in (1, -1):
        n = 0
        while sign * c + 2 * n * a <= hi:
            pts.add((sign * c + 2 * n * a, a))
            pts.add((sign * c + 2 * n * a, -a))
            n += 1
    return pts


def _cxs2_class(x):
    """Canonical class of a point of the half-strip R_{>=-1} x [-1, 1]."""
    x1, x2 = x
    a = abs(x2)
    if x2 == 0:
        if x1.sign() >= 0:
            return "fixed", None
        return "axis", -x1
    if x1.sign() < 0:
        if -x1 == a:
            return "negdiag", x1
        if (-x1) > a:
            return "generic", (a, -x1)
        return "generic", (-x1, a)
    r = x1 - 2 * a * math.floor(x1 / (2 * a))
    m = min(r, 2 * a - r)
    if m == 0:
        return "axis", a
    if m == a:
        return "posdiag", a
    return "generic", (m, a)


def _cn_orbit(x, window):
    """All equal-invariant tuples in a bounded window (rank <= 1 only)."""
    from . import chekanov

    red = chekanov.reduce(x)
    lat = chekanov.gamma(x)
    if lat.rank > 1:
        raise OracleUnavailable(
            "the class is dense for excess rank >= 2; no finite oracle"
        )
    n = len(x)
    if window is None or any(w[1] is None for w in window):
        raise OracleUnavailable("need a bounded window in every coordinate")
    if lat.rank == 0:
        return {tuple(x)}
    g = lat.generator()
    hi = max(ExactScalar.of(w[1]) for w in window)
    max_mult = math.floor((hi - red.d) / g)
    s = n - red.mult
    pts = set()
    for multiples in itertools.combinations_with_replacement(
        range(1, max_mult + 1), s
    ):
        acc = 0
        for m in multiples:
            acc = math.gcd(acc, m)
        if acc != 1:
            continue
        values = [red.d] * red.mult + [red.d + m * g for m in multiples]
        for perm in set(itertools.permutations(values)):
            pts.add(perm)
    return pts


# ---------------------------------------------------------------------------
# Monodromy oracles.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleMonodromy:
    kind: str                       # "finite" | "infinite" | "conjugate" | "predicate"
    generators: tuple = ()
    elements: Optional[tuple] = None  # full group for the finite kinds
    contains: Optional[Callable] = field(default=None, compare=False)
    note: str = ""

    def to_json(self):
        out = {"kind": self.kind, "note": self.note,
               "generators": [[list(r) for r in g] for g in self.generators]}
        if self.elements is not None:
            out["elements"] = [[list(r) for r in g] for g in self.elements]
        return out


def _finite(mats, note=""):
    elems = tuple(sorted(set(mats) | {lattice.identity(len(mats[0]))}))
    return OracleMonodromy(
        "finite", tuple(sorted(set(mats))), elems,
        contains=lambda M: tuple(map(tuple, M)) in elems, note=note,
    )


def _trivial(n):
    ident = lattice.identity(n)
    return OracleMonodromy("finite", (), (ident,),
                           contains=lambda M: tuple(map(tuple, M)) == ident)


# all matrices [[1,0],[2k,+-1]]: the monodromy on the equator x2 = 0 of
# ts1_x_s2, and on its part x1 > 0 in c_x_s2
_EVEN_SHEARS = OracleMonodromy(
    "infinite",
    (((1, 0), (0, -1)), ((1, 0), (2, -1))),
    contains=lambda M: (
        tuple(M[0]) == (1, 0) and M[1][0] % 2 == 0 and M[1][1] in (1, -1)
    ),
    note="all matrices [[1,0],[2k,+-1]]",
)


_D4 = tuple(
    tuple(map(tuple, m))
    for m in (
        ((1, 0), (0, 1)), ((-1, 0), (0, 1)), ((1, 0), (0, -1)), ((-1, 0), (0, -1)),
        ((0, 1), (1, 0)), ((0, -1), (1, 0)), ((0, 1), (-1, 0)), ((0, -1), (-1, 0)),
    )
)


def oracle_monodromy(name: str, x) -> OracleMonodromy:
    """Hand-encoded monodromy group of the fibre over x."""
    poly, x = _require_interior(name, x)
    if name == "s2s2_monotone":
        return _s2s2_monodromy(x)
    if name == "cp2":
        return _cp2_monodromy(poly, x)
    if name == "c_x_s2":
        return _cxs2_monodromy(x)
    if name == "ts1_x_s2":
        return _EVEN_SHEARS if x[1] == 0 else _trivial(2)
    if name == "c2_x_ts1":
        x1, x2, x3 = x
        if x1 == x2:
            return OracleMonodromy(
                "infinite",
                (
                    ((1, 0, 1), (0, 1, -1), (0, 0, 1)),
                    ((0, 1, 0), (1, 0, 0), (0, 0, 1)),
                ),
                contains=_c2ts1_family,
                note="blocks {id, swap} with opposite integer shears",
            )
        return _trivial(3)
    m = _CN.fullmatch(name)
    if m:
        return _cn_monodromy(x)
    raise UnknownPreset(name)


def _c2ts1_family(M):
    M = tuple(map(tuple, M))
    if M[2] != (0, 0, 1):
        return False
    block = (M[0][:2], M[1][:2])
    if block not in (((1, 0), (0, 1)), ((0, 1), (1, 0))):
        return False
    return M[0][2] == -M[1][2]


def _s2s2_monodromy(x):
    """Prop-table groups at 0 <= x1 <= x2, conjugated to the query point."""
    for g in _D4:
        y = lattice.mat_vec(g, x)
        if ZERO <= y[0] <= y[1]:
            break
    y1, y2 = y
    if y1 == 0 and y2 == 0:
        base = [((-1, 0), (0, 1)), ((1, 0), (0, -1)), ((-1, 0), (0, -1))]
    elif y1 == y2:
        base = [((0, 1), (1, 0))]
    elif y1 == 0:
        base = [((-1, 0), (0, 1))]
    else:
        base = []
    if not base:
        return _trivial(2)
    ginv = lattice.unimodular_inverse(g)
    mats = [
        tuple(map(tuple, lattice.mat_mul(ginv, lattice.mat_mul(m, g))))
        for m in base
    ]
    return _finite(mats)


def _cp2_symmetries():
    """The six integral symmetries of the simplex, as point maps."""
    R = ((1, 0), (0, 1), (-1, -1))
    out = []
    for perm in itertools.permutations(range(3)):
        M = (R[perm[0]], R[perm[1]])
        out.append((perm, M))
    return out


def _cp2_monodromy(poly, x):
    mats = []
    for perm, M in _cp2_symmetries():
        if lattice.mat_vec(M, x) == tuple(x):
            # the induced map on H_1 is the inverse transpose
            h1 = lattice.transpose(lattice.unimodular_inverse(M))
            if h1 != lattice.identity(2):
                mats.append(tuple(map(tuple, h1)))
    return _finite(mats) if mats else _trivial(2)


def _cxs2_monodromy(x):
    x1, x2 = x
    a = abs(x2)
    if x2 == 0:
        if x1.sign() > 0:
            return _EVEN_SHEARS
        return _finite([((1, 0), (0, -1))])
    if x1 == -a:
        if x2.sign() > 0:
            return _finite([((0, -1), (-1, 0))])
        return _finite([((0, 1), (1, 0))])
    if x1 == 0:
        return _finite([((-1, 0), (0, 1))])
    kind, _ = _cxs2_class(x)
    if kind == "axis":
        return OracleMonodromy(
            "conjugate", note="conjugate of the group at the axis point (0, |x2|)"
        )
    return _trivial(2)


def _cn_monodromy(x):
    """Membership predicate: distinguished permutation, Maslov, area."""
    x = as_point(x)
    n = len(x)
    d = min(x)
    dist = frozenset(i for i, v in enumerate(x) if v == d)

    def contains(M):
        M = tuple(map(tuple, M))
        if lattice.mat_det(M) not in (1, -1):
            return False
        cols = lattice.transpose(M)
        images = set()
        for i in dist:
            col = cols[i]
            ones = [j for j, c in enumerate(col) if c]
            if len(ones) != 1 or col[ones[0]] != 1 or ones[0] not in dist:
                return False
            images.add(ones[0])
        if images != set(dist):
            return False
        if any(sum(col) != 1 for col in cols):
            return False
        for j in range(n):
            total = ZERO
            for i in range(n):
                total = total + x[i] * M[i][j]
            if total != x[j]:
                return False
        return True

    return OracleMonodromy("predicate", contains=contains,
                           note="distinguished permutation + Maslov + area")
