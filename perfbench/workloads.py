"""The four benchmark workloads: query pools, canonical outputs and checks.

Every workload is a fixed pool of queries drawn from a generator seed
(`POOL_SEEDS`).  The run seed only fixes the order in which one client
issues the pool's queries, so that every query a run can issue has a
reference digest in `reference.json`, and so that seeds change no work
mix (the run-to-run spread then measures the machine, not the draw).
A second generator seed, `holdout`, draws a disjoint pool that is kept
out of tuning and used to re-check claims.

Why each workload exists:

- orbit_sqrt2: the paper's density example, cn(3) from (1, 2, 1+√2) under
  max-norm-1 probes in [0,6]^3.  Scalar arithmetic over Q(√2), probe
  shooting and orbit dedup do nearly all the work; integer lattice algebra
  does none.
- decide_mix: many short equivalence decisions over rational scalars with
  early exits, on every preset, plus product-torus words.  Exercises the
  orbit layer as a searcher rather than an explorer.
- ambient_monodromy: ambient integer systems, holonomy groups and matrix
  group closures.  Integer lattice algebra and monodromy do nearly all the
  work; probes and quadratic scalars almost none.
- cli_session: the README commands and seeded variants, each in its own
  `python -m delzant.cli` process (through `cli_child.py`, which also
  reports the process's peak RSS), so interpreter start, import, argparse
  and JSON output dominate.

A query carries `key` (the canonical description and reference key),
`call()` (runs the program and returns its output), `canon(output)` (the
JSON-able form that is digested) and `check(output, full)` (an independent
check; returns an error message or None).
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F

import cli_child

POOL_SEEDS = {"tune": 20230201, "holdout": 20231117}

ORBIT_ROOTS = {"tune": (1, 2, (1, 1)), "holdout": (1, 2, (2, 1))}  # (1, 2, a+b√2)
ORBIT_CAP = 150
ORBIT_WINDOW = ((0, 6),) * 3

VERDICT_CODES = {"equivalent": 0, "distinct": 1, "unknown": 3}
AMBIENT_CODES = {"solutions": 0, "infeasible": 1, "inconclusive": 3}

_DENS = (2, 3, 4, 5, 7, 8, 9, 10)


class Query:
    __slots__ = ("key", "call", "canon", "check", "argv")

    def __init__(self, key, call, canon, check, argv=None):
        self.key = key
        self.call = call
        self.canon = canon
        self.check = check
        self.argv = argv


def verdict_stage(verdict):
    """The stage of `decide` that produced a verdict."""
    if verdict.kind == "equivalent":
        return "path"
    if verdict.kind == "unknown":
        return "unknown"
    return "invariants" if verdict.reason.startswith("Chekanov") else "ambient"


# ---------------------------------------------------------------------------
# Random inputs.
# ---------------------------------------------------------------------------


def _rat(rng, lo, hi):
    """A rational strictly between lo and hi with a small denominator."""
    q = rng.choice(_DENS)
    return F(rng.randint(math.floor(lo * q) + 1, math.ceil(hi * q) - 1), q)


def _fmt(x):
    return ",".join(str(c) for c in x)


def _window_key(window):
    return "*" if window is None else ",".join(f"{lo}..{hi}" for lo, hi in window)


def _interior(rng, name):
    if name == "s2s2_monotone":
        return (_rat(rng, -1, 1), _rat(rng, -1, 1))
    if name == "cp2":
        while True:
            x = (_rat(rng, -1, 1), _rat(rng, -1, 1))
            if x[0] + x[1] < 1:
                return x
    if name == "c_x_s2":
        return (_rat(rng, -1, 2), _rat(rng, -1, 1))
    if name == "ts1_x_s2":
        while True:
            x = (_rat(rng, -1, 1), _rat(rng, -1, 1))
            if x[1]:
                return x
    if name == "c2_x_ts1":
        while True:
            x = (_rat(rng, 0, 4), _rat(rng, 0, 4), _rat(rng, -1, 1))
            if x[0] != x[1]:
                return x
    if name == "cn(2)":
        return (_rat(rng, 0, 4), _rat(rng, 0, 4))
    if name == "cn(3)":
        return tuple(rng.randint(1, 4) for _ in range(3))
    raise ValueError(name)


def _cp2_twin_pair(rng):
    """Two cp2 points with equal Chekanov invariants in distinct orbits.

    The distance vectors are (d, d+a g, d+b g) and (d, d+a' g, d+b' g) with
    a+b = a'+b' = s (the distances sum to 3) and gcd(a, b) = gcd(a', b') = 1,
    so d, its multiplicity and Gamma = gZ agree while the distance multisets
    differ.
    """
    while True:
        s = rng.randint(5, 11)
        pairs = [(a, s - a) for a in range(1, s) if math.gcd(a, s - a) == 1]
        pairs = sorted({tuple(sorted(p)) for p in pairs})
        if len(pairs) >= 2:
            break
    (a, b), (a2, b2) = rng.sample(pairs, 2)
    d = _rat(rng, 0, 1)
    g = (3 - 3 * d) / s

    def point(u, v):
        ell = [d, d + u * g, d + v * g]
        rng.shuffle(ell)
        return (ell[0] - 1, ell[1] - 1)

    return point(a, b), point(a2, b2)


def _off_orbit_shift(x):
    """A c2_x_ts1 point with x's invariants off its orbit, inside the decide window.

    The orbit moves the third coordinate in steps of x2 - x1; a shift by a
    power-of-two fraction of the step below 1 is never a whole step.
    """
    step = x[1] - x[0]
    while abs(step) >= 1:
        step /= 2
    return (x[0], x[1], x[2] + step / 2)


def _involution(rng, n):
    """A probe-type involution I + (xi' - xi) v^T with <v,xi> = 1, <v,xi'> = -1."""
    box = list(itertools.product(range(-2, 3), repeat=n))
    while True:
        v = rng.choice(box)
        if not any(v) or math.gcd(*v) != 1:
            continue
        xi = [w for w in box if sum(a * b for a, b in zip(v, w)) == 1]
        xi2 = [w for w in box if sum(a * b for a, b in zip(v, w)) == -1]
        if xi and xi2:
            p, q = rng.choice(xi), rng.choice(xi2)
            delta = [a - b for a, b in zip(q, p)]
            return tuple(
                tuple(int(i == j) + delta[i] * v[j] for j in range(n))
                for i in range(n)
            )


def _tuple_moves(rng, values, steps):
    """Apply random valid product-torus moves (swaps and three-coordinate moves)."""
    state = list(values)
    n = len(state)
    for _ in range(steps):
        i, j, k = rng.sample(range(n), 3)
        if rng.random() < 0.4:
            state[i], state[j] = state[j], state[i]
        elif state[i] < state[j]:
            state[i], state[j], state[k] = state[k], state[j] + state[k] - state[i], state[i]
    return tuple(state)


# ---------------------------------------------------------------------------
# Canonical output forms.
# ---------------------------------------------------------------------------


def _pt(x):
    return [str(c) for c in x]


def canon_graph(graph):
    out = graph.to_json()
    out["parents"] = [
        [_pt(p), _pt(parent), list(m.probe.direction), m.probe.entry_facet,
         m.probe.exit_facet]
        for p, (parent, m) in graph.parents.items()
    ]
    return out


def _json(obj):
    return obj.to_json()


# ---------------------------------------------------------------------------
# Independent checks (local matrix helpers keep them off the program's code).
# ---------------------------------------------------------------------------


def _mm(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


def _det(m):
    if len(m) == 1:
        return m[0][0]
    return sum(
        (-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
        for j in range(len(m))
    )


def _check_group(group, gens=None):
    elements = set(group.elements)
    n = len(next(iter(elements)))
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    if ident not in elements:
        return "identity missing from the group"
    if any(_det(g) not in (1, -1) for g in elements):
        return "group element with determinant other than +-1"
    for g in group.generators:
        if g not in elements:
            return "generator missing from the group"
    if gens is not None and set(group.generators) != {tuple(map(tuple, g)) for g in gens}:
        return "generators differ from the input"
    if not group.truncated:
        for g in group.generators:
            for h in elements:
                if _mm(g, h) not in elements:
                    return "complete group not closed under products"
    return None


# ---------------------------------------------------------------------------
# Workload builders.  Each returns the list of queries of one pool.
# ---------------------------------------------------------------------------


class Lib:
    """The program's modules, imported when a workload is built."""

    def __init__(self):
        import delzant
        from delzant import chekanov, cli, lattice, monodromy, orbit, polytope, probe, spaces

        self.delzant = delzant
        self.chekanov = chekanov
        self.cli = cli
        self.lattice = lattice
        self.monodromy = monodromy
        self.orbit = orbit
        self.polytope = polytope
        self.probe = probe
        self.spaces = spaces
        self.presets = {
            name: spaces.preset(name)
            for name in ("s2s2_monotone", "cp2", "c_x_s2", "ts1_x_s2", "c2_x_ts1",
                         "cn(2)", "cn(3)", "cn(4)")
        }

    def point(self, x):
        return self.polytope.as_point(x)


def build_orbit_sqrt2(lib, pool):
    a, b, (r, q) = ORBIT_ROOTS[pool]
    base = (lib.lattice.scalar(a), lib.lattice.scalar(b), lib.lattice.scalar(r, q, 2))
    poly = lib.presets["cn(3)"]
    params = lib.orbit.OrbitParams(max_norm=1, max_points=ORBIT_CAP, window=ORBIT_WINDOW)
    queries = []
    for perm in itertools.permutations(range(3)):
        root = tuple(base[i] for i in perm)

        def call(root=root):
            return lib.orbit.explore(poly, root, params)

        def check(graph, full, root=root):
            inv = poly.invariants(root)
            want = (inv.d, inv.count, inv.gamma)
            for p in graph.nodes:
                got = poly.invariants(p)
                if (got.d, got.count, got.gamma) != want:
                    return f"node {_fmt(p)} leaves the root's invariants"
            return None

        key = (f"explore cn(3) root={_fmt(root)} norm=1 cap={ORBIT_CAP}"
               f" window={_window_key(ORBIT_WINDOW)}")
        queries.append(Query(key, call, canon_graph, check))
    return queries


_DECIDE_PARAMS = {
    "s2s2_monotone": dict(max_norm=2, max_points=60),
    "cp2": dict(max_norm=2, max_points=60, max_depth=8),
    "c_x_s2": dict(max_norm=3, max_points=100, window=((-1, 6), (-1, 1))),
    "ts1_x_s2": dict(max_norm=3, max_points=100, window=((-3, 3), (-1, 1))),
    "c2_x_ts1": dict(max_norm=1, max_points=40, window=((0, 4), (0, 4), (-2, 2))),
    "cn(2)": dict(max_norm=1, max_points=40, window=((0, 9), (0, 9))),
    "cn(3)": dict(max_norm=1, max_points=40, max_depth=16, window=((0, 12),) * 3),
}


def _truth(lib, name, x, y):
    """Ground truth for x ~ y from the closed-form oracles."""
    if name.startswith("cn("):
        return lib.chekanov.equivalent(x, y)
    window = _DECIDE_PARAMS[name].get("window")
    return lib.point(y) in lib.spaces.oracle_orbit(name, x, window)


def _partner(lib, rng, name, x):
    """A point of x's orbit from the oracle, inside the decide window."""
    window = _DECIDE_PARAMS[name].get("window")
    if name == "cn(3)":
        window = ((0, 9),) * 3
    pts = [p for p in lib.spaces.oracle_orbit(name, x, window) if p != lib.point(x)]
    return rng.choice(pts) if pts else x


def _decide_query(lib, name, x, y):
    poly = lib.presets[name]
    kw = _DECIDE_PARAMS[name]
    params = lib.orbit.OrbitParams(**kw)

    def call():
        return lib.orbit.decide(poly, x, y, params)

    def check(verdict, full):
        truth = _truth(lib, name, x, y)
        if verdict.kind == "equivalent":
            if not truth:
                return "equivalent verdict contradicts the oracle"
            if lib.orbit.replay_path(x, verdict.path) != lib.point(y):
                return "verdict path does not replay to the target"
        elif verdict.kind == "distinct" and truth:
            return "distinct verdict contradicts the oracle"
        return None

    key = (f"decide {name} x={_fmt(x)} y={_fmt(y)} norm={kw['max_norm']}"
           f" cap={kw['max_points']} depth={kw.get('max_depth', 32)}"
           f" window={_window_key(kw.get('window'))}")
    return Query(key, call, _json, check)


def _chekanov_query(lib, a, b, truth):
    ch = lib.chekanov

    def call():
        eq = ch.equivalent(a, b)
        if not eq:
            return eq, None, None
        word = ch.probe_word(a, b)
        return eq, word, ch.replay(a, word)

    def canon(out):
        eq, word, end = out
        return {"equivalent": eq, "word": None if word is None else word.to_json(),
                "replay": None if end is None else _pt(end)}

    def check(out, full):
        eq, word, end = out
        if truth is not None and eq != truth:
            return "chekanov.equivalent contradicts the constructed pair"
        if eq and end != lib.point(b):
            return "probe word does not replay to the target tuple"
        return None

    return Query(f"chekanov a={_fmt(a)} b={_fmt(b)}", call, canon, check)


def build_decide_mix(lib, pool):
    rng = random.Random(POOL_SEEDS[pool] + 1)
    queries = []
    # equivalent pairs, partners drawn from the oracles
    for name, count in (("s2s2_monotone", 16), ("cp2", 14), ("c_x_s2", 5),
                        ("ts1_x_s2", 5), ("cn(2)", 10), ("cn(3)", 2)):
        for _ in range(count):
            x = _interior(rng, name)
            queries.append(_decide_query(lib, name, x, _partner(lib, rng, name, x)))
    # random pairs: mostly obstructed by the invariants
    for name in ("s2s2_monotone", "cp2", "c_x_s2") * 8:
        queries.append(_decide_query(lib, name, _interior(rng, name), _interior(rng, name)))
    # equal invariants, distinct orbits: decided by the ambient stage
    for _ in range(12):
        queries.append(_decide_query(lib, "cp2", *_cp2_twin_pair(rng)))
    # the T*S^1 factor: no ambient solver, so distinct partners stay unknown
    for _ in range(6):
        x = _interior(rng, "c2_x_ts1")
        y = _off_orbit_shift(x)
        queries.append(_decide_query(lib, "c2_x_ts1", x, y))
    # product tori: equivalent by construction, and random (mostly not)
    for i in range(16):
        n = 3 + i % 2
        a = tuple(_rat(rng, 0, 4) for _ in range(n))
        if i < 12:
            queries.append(_chekanov_query(lib, a, _tuple_moves(rng, a, rng.randint(2, 8)), True))
        else:
            queries.append(_chekanov_query(lib, a, tuple(_rat(rng, 0, 4) for _ in range(n)), None))
    return queries


def _ambient_query(lib, name, x, y):
    poly = lib.presets[name]
    mono = lib.monodromy

    def call():
        return mono.solve_ambient(poly, x, y, bound=3)

    def check(outcome, full):
        sols = outcome.solutions
        if not full and len(sols) > 100:
            step = len(sols) / 100
            sols = [sols[int(i * step)] for i in range(100)]
        for s in sols:
            if not mono.check_ambient(poly, x, y, s.A).all_pass:
                return "ambient solution fails check_ambient"
        return None

    return Query(f"ambient {name} x={_fmt(x)} y={_fmt(y)} bound=3", call, _json, check)


_HOLONOMY_CASES = (
    ("s2s2_monotone", 2, None, 64),
    ("cp2", 2, None, 64),
    ("c_x_s2", 2, ((-1, 4), (-1, 1)), 40),
    ("ts1_x_s2", 2, ((-3, 3), (-1, 1)), 40),
)

_HOLONOMY_POINTS = {
    "s2s2_monotone": [(0, 0), (F(1, 2), F(1, 2)), (0, F(1, 2)), (F(1, 5), F(1, 2))],
    "cp2": [(0, 0), (F(-1, 5), F(-1, 5)), (F(-1, 2), F(-1, 5))],
    "c_x_s2": [(F(-1, 4), F(1, 4)), (0, F(1, 2)), (1, 0)],
    "ts1_x_s2": [(F(1, 3), 0), (0, F(1, 2))],
}


def _holonomy_query(lib, name, x, norm, window, cap):
    poly = lib.presets[name]
    graph = lib.orbit.explore(
        poly, x, lib.orbit.OrbitParams(max_norm=norm, window=window, max_points=60)
    )

    def call():
        return lib.monodromy.holonomy_group(graph, x, cap=cap)

    def check(group, full):
        err = _check_group(group)
        if err:
            return err
        oracle = lib.spaces.oracle_monodromy(name, x)
        if oracle.kind == "finite":
            if not set(group.elements) <= set(oracle.elements):
                return "holonomy element outside the oracle's finite group"
            if not graph.truncated and set(group.elements) != set(oracle.elements):
                return "holonomy group differs from the oracle's finite group"
        elif oracle.contains is not None:
            if not all(oracle.contains(g) for g in group.elements):
                return "holonomy element outside the oracle's family"
        return None

    key = f"holonomy {name} x={_fmt(x)} norm={norm} window={_window_key(window)} cap={cap}"
    return Query(key, call, _json, check)


def _mulclose_query(lib, gens, cap):
    def call():
        return lib.monodromy.mulclose(gens, cap)

    return Query(f"mulclose gens={json.dumps(gens)} cap={cap}", call, _json,
                 lambda group, full: _check_group(group, gens))


def build_ambient_monodromy(lib, pool):
    rng = random.Random(POOL_SEEDS[pool] + 2)
    queries = []
    for x, y in (((1, 2, 3, 4), (2, 1, 3, 4)), ((1, 1, 2, 3), (1, 1, 3, 2))):
        if pool == "holdout":
            x, y = tuple(c + 1 for c in x), tuple(c + 1 for c in y)
        queries.append(_ambient_query(lib, "cn(4)", x, y))
    for _ in range(18):
        x = _interior(rng, "cn(3)")
        y = tuple(rng.sample(x, 3))
        queries.append(_ambient_query(lib, "cn(3)", x, y))
    for _ in range(4):
        queries.append(_ambient_query(lib, "cp2", *_cp2_twin_pair(rng)))
    for name in ("cp2", "s2s2_monotone") * 4 + ("c_x_s2",) * 4:
        x = _interior(rng, name)
        queries.append(_ambient_query(lib, name, x, _partner(lib, rng, name, x)))
    for name in ("s2s2_monotone",) * 4:
        x = _interior(rng, name)
        queries.append(_ambient_query(lib, name, x, (x[0] + F(1, 10) * (1 - x[0]), x[1])))
    for name, norm, window, cap in _HOLONOMY_CASES:
        points = list(_HOLONOMY_POINTS[name])
        if pool == "holdout":
            points = points[:1]
        while len(points) < 8:
            points.append(_interior(rng, name))
        for x in points:
            queries.append(_holonomy_query(lib, name, x, norm, window, cap))
    for i in range(30):
        n = 2 + i % 2
        gens = [_involution(rng, n) for _ in range(rng.randint(2, 3))]
        queries.append(_mulclose_query(lib, [[list(r) for r in g] for g in gens],
                                       rng.choice((32, 64))))
    return queries


# ---------------------------------------------------------------------------
# CLI session.
# ---------------------------------------------------------------------------

README_COMMANDS = (
    (0, ["check", "preset:cp2"]),
    (0, ["invariants", "preset:cp2", "--point", "-1/2,-1/5"]),
    (0, ["probes", "preset:s2s2_monotone", "--point", "0,0", "--max-norm", "1"]),
    (0, ["partner", "preset:cn(2)", "--point", "1,3", "--dir", "1,-1"]),
    (0, ["orbit", "preset:ts1_x_s2", "--point", "0,1/2", "--max-norm", "3",
         "--window", "-3..3,-1..1"]),
    (0, ["monodromy", "preset:s2s2_monotone", "--point", "0,0", "--max-norm", "2"]),
    (1, ["ambient", "preset:cp2", "--from", "-1/2,-1/5", "--to", "-1/2,1/10"]),
    (1, ["equivalent", "preset:s2s2_monotone", "--from", "1/5,1/2", "--to", "3/10,1/2"]),
    (0, ["reduce", "preset:c2_x_ts1", "--slice",
         '{"base": [1,1,0], "dirs": [[0,0,1],[-1,1,0]]}']),
    (0, ["lift", "preset:cp2", "--point", "-1/2,-1/5"]),
    (0, ["chekanov", "--tuple", "1,2,3", "--to", "1,2,5"]),
    (0, ["render", "preset:c_x_s2", "--window", "-3/2..6,-3/2..3/2", "--orbit-of", "0,1/2"]),
    (0, ["preset-list"]),
)


def cli_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("PYTHONSTARTUP", None)
    return env


CLI_CHILD = os.path.abspath(cli_child.__file__)


def run_cli(argv, root, env):
    """One `python -m delzant.cli` process: (exit code, stdout, its peak RSS in KiB)."""
    proc = subprocess.run(
        [sys.executable, CLI_CHILD, *argv],
        cwd=root, env=env, capture_output=True, timeout=120,
    )
    marker = proc.stderr.decode().rpartition(cli_child.MARKER + " ")[2]
    return proc.returncode, proc.stdout.decode(), int(marker)


def run_cli_inprocess(lib, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.cli.main(list(argv))
    return code, out.getvalue(), None


def _cli_query(lib, argv, expect, root, env):
    """`expect()` gives the exit code the README table assigns to the outcome."""
    cache = []

    def check(out, full):
        code, stdout, _ = out
        if not cache:
            cache.append(expect())
        if code != cache[0]:
            return f"exit code {code}, README table says {cache[0]}"
        if code != 2 and not stdout.strip():
            return "empty stdout"
        return None

    return Query("cli " + " ".join(argv), lambda: run_cli(argv, root, env),
                 lambda out: {"code": out[0], "stdout": out[1]}, check, argv=argv)


def build_cli_session(lib, pool, root):
    rng = random.Random(POOL_SEEDS[pool] + 3)
    env = cli_env(root)
    errors = lib.delzant.errors
    commands = []
    if pool == "tune":
        commands += [(lambda c=c: c, argv) for c, argv in README_COMMANDS]
    for _ in range(5):
        x = _interior(rng, "cp2")
        commands.append((lambda: 0, ["invariants", "preset:cp2", "--point", _fmt(x)]))
    for _ in range(4):
        x = _interior(rng, "s2s2_monotone")
        commands.append((lambda: 0, ["probes", "preset:s2s2_monotone", "--point", _fmt(x),
                                     "--max-norm", str(rng.randint(1, 2))]))
    for _ in range(5):
        x = _interior(rng, "cn(2)")
        v = rng.choice(((1, -1), (1, 1), (1, 0), (2, -1)))

        def expect(x=x, v=v):
            try:
                lib.probe.shoot(lib.presets["cn(2)"], x, v)
            except (errors.UnboundedRay, errors.HitsLowerFace, errors.NotTransverse):
                return 1
            return 0

        commands.append((expect, ["partner", "preset:cn(2)", "--point", _fmt(x),
                                  "--dir", _fmt(v)]))
    for i in range(6):
        x = _interior(rng, "s2s2_monotone")
        y = _partner(lib, rng, "s2s2_monotone", x) if i < 4 else _interior(rng, "s2s2_monotone")

        def expect(x=x, y=y):
            params = lib.orbit.OrbitParams(max_norm=2, max_points=60, max_depth=16)
            return VERDICT_CODES[lib.orbit.decide(lib.presets["s2s2_monotone"], x, y, params).kind]

        commands.append((expect, ["equivalent", "preset:s2s2_monotone", "--from", _fmt(x),
                                  "--to", _fmt(y), "--max-norm", "2", "--max-points", "60"]))
    for i in range(3):
        if i < 2:
            x, y = _cp2_twin_pair(rng)
        else:
            x = y = _interior(rng, "cp2")

        def expect(x=x, y=y):
            return AMBIENT_CODES[lib.monodromy.solve_ambient(lib.presets["cp2"], x, y, 3).kind]

        commands.append((expect, ["ambient", "preset:cp2", "--from", _fmt(x), "--to", _fmt(y)]))
    for i in range(5):
        a = tuple(_rat(rng, 0, 4) for _ in range(3))
        b = _tuple_moves(rng, a, 4) if i < 3 else tuple(_rat(rng, 0, 4) for _ in range(3))

        def expect(a=a, b=b):
            return 0 if lib.chekanov.equivalent(a, b) else 1

        commands.append((expect, ["chekanov", "--tuple", _fmt(a), "--to", _fmt(b)]))
    for _ in range(2):
        x = _interior(rng, "c2_x_ts1")
        y = _off_orbit_shift(x)

        def expect(x=x, y=y):
            params = lib.orbit.OrbitParams(**_DECIDE_PARAMS["c2_x_ts1"], max_depth=16)
            return VERDICT_CODES[lib.orbit.decide(lib.presets["c2_x_ts1"], x, y, params).kind]

        commands.append((expect, ["equivalent", "preset:c2_x_ts1", "--from", _fmt(x),
                                  "--to", _fmt(y), "--max-norm", "1", "--max-points", "40",
                                  "--window", "0..4,0..4,-2..2"]))
    x = _interior(rng, "cp2")
    commands += [
        (lambda: 2, ["invariants", "preset:cp2", "--point", _fmt(x) + "x"]),
        (lambda: 2, ["invariants", "preset:no_such_space", "--point", _fmt(x)]),
        (lambda: 2, ["invariants", "preset:cp2", "--point", "5,5"]),
        (lambda: 2, ["probes", "preset:cp2", "--point", _fmt(x)]),
    ]
    return [_cli_query(lib, argv, expect, root, env) for expect, argv in commands]


def build(workload, lib, pool, root):
    """The workload's pool, without repeated queries."""
    if workload == "orbit_sqrt2":
        queries = build_orbit_sqrt2(lib, pool)
    elif workload == "decide_mix":
        queries = build_decide_mix(lib, pool)
    elif workload == "ambient_monodromy":
        queries = build_ambient_monodromy(lib, pool)
    elif workload == "cli_session":
        queries = build_cli_session(lib, pool, root)
    else:
        raise ValueError(workload)
    unique = {}
    for q in queries:
        unique.setdefault(q.key, q)
    return list(unique.values())


WORKLOADS = ("orbit_sqrt2", "decide_mix", "ambient_monodromy", "cli_session")
