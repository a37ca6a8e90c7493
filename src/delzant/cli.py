"""Command-line front end: JSON in/out, subcommand dispatch, SVG rendering.

Exit codes: 0 success/affirmative, 1 negative verdict (Distinct, not
Delzant, infeasible, ...), 2 usage or parse error, 3 inconclusive.
Verdict kinds map to codes in `_KIND_CODES`; an error's code is the
`exit_code` attribute of its class in `delzant.errors` (1 for the negative
answers, whose JSON goes to stdout; 2, on stderr, for all others).
Scalars on the command line and in files are read by `ExactScalar.of`,
in the grammar ``INT | INT/INT | RAT+RAT√D | RAT-RAT√D`` of `lattice`;
windows are comma-separated ``lo..hi`` ranges with ``*`` for unbounded;
an integer (each cap, ``--cap``, ``--bound`` and each ``--dir`` entry) is
a scalar of that grammar that is an integer, read by `parse_int`.
Each value's reader (a `parse_*` function) is its argparse
``type`` in `build_parser`, so every value is read once, as argv is parsed,
and the handlers take parsed values.  A reader raises `ParseError` or a
library `DelzantError`, never a bare `TypeError` or `ValueError` (argparse
would print those as usage), and `main` reports it as it does a handler's
error: of several malformed values, the first in argv order.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import chekanov, lattice, monodromy, orbit, probe, reduction, spaces
from .errors import (
    DelzantError,
    NotDelzant,
    NotPlanar,
    ParseError,
    WordSearchExhausted,
)
from .lattice import ExactScalar
from .polytope import DelzantPolytope, window
from .reduction import AffineSlice

# exit codes of the outcome kinds of `monodromy.solve_ambient` and `orbit.decide`
_KIND_CODES = {
    "solutions": 0, "infeasible": 1, "inconclusive": 3,
    "equivalent": 0, "distinct": 1, "unknown": 3,
}


def parse_scalar(text: str) -> ExactScalar:
    try:
        return ExactScalar.of(text)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def parse_point(text: str):
    return tuple(map(parse_scalar, text.split(",")))


def parse_window(text: str):
    pairs = []
    for part in text.split(","):
        lo, sep, hi = part.partition("..")
        if not sep:
            raise ParseError(f"bad window range {part!r}, expected lo..hi")
        pairs.append([None if s in ("*", "") else s for s in (lo, hi)])
    try:
        return window(pairs)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def parse_polytope(source: str) -> DelzantPolytope:
    """A polytope from a `preset:` URI or a JSON file path."""
    if source.startswith("preset:"):
        return spaces.preset(source[len("preset:"):])
    try:
        with open(source) as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read {source}: {exc}")
    except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
        raise ParseError(f"{source} is not valid JSON: {exc}")
    return polytope_from_data(data, source)


def polytope_from_data(data, source="<data>") -> DelzantPolytope:
    try:
        return DelzantPolytope(
            data["dim"],
            [(entry["normal"], entry["offset"]) for entry in data["facets"]],
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{source}: malformed polytope data ({exc})")


def parse_int(text: str) -> int:
    """An integer option or `--dir` entry: a scalar of the grammar that is
    an integer.  `int` would also read '+1', '1_0' and '٢', which are no
    scalars of the grammar."""
    c = parse_scalar(text)
    if c.b or c.c != 1:
        raise ParseError(f"bad integer {text!r}")
    return c.a


def parse_direction(text: str):
    return tuple(map(parse_int, text.split(",")))


def parse_slice(text: str) -> AffineSlice:
    try:
        data = json.loads(text)
        return AffineSlice(data["base"], data["dirs"])
    except (ValueError, KeyError, TypeError) as exc:
        raise ParseError(f"bad slice {text!r}: {exc}")


def _orbit_params(args):
    return orbit.OrbitParams(
        max_norm=args.max_norm,
        max_points=args.max_points,
        max_depth=args.max_depth,
        window=args.window,
    )


# ---------------------------------------------------------------------------
# Subcommand handlers: return (exit_code, payload), the payload an SVG text
# or library values that `main` writes once through `lattice.to_json`.
# ---------------------------------------------------------------------------


def _cmd_check(args):
    try:
        vertices = args.polytope.check_delzant()
    except NotDelzant as exc:
        return 1, {"delzant": False, "vertex": exc.vertex, "det": exc.det,
                   "reason": str(exc)}
    return 0, {"delzant": True, "vertices": vertices}


def _cmd_invariants(args):
    poly = args.polytope
    f = poly.fibre(args.point)
    return 0, {
        "invariants": poly.invariants(f),
        "ell": f.ell,
        "de_germ": {"d": f.d, "active": f.active},
        "reduction_type": poly.normals_span(),
    }


def _cmd_probes(args):
    probes = probe.enumerate_probes(args.polytope, args.point, args.max_norm)
    return 0, {"count": len(probes), "probes": probes}


def _cmd_partner(args):
    x = args.point
    sigma = probe.shoot(args.polytope, x, args.dir)
    return 0, {"probe": sigma, "partner": probe.partner(sigma, x),
               "involution": probe.involution(sigma)}


def _cmd_orbit(args):
    return 0, orbit.explore(args.polytope, args.point, _orbit_params(args))


def _cmd_monodromy(args):
    graph = orbit.explore(args.polytope, args.point, _orbit_params(args))
    group = monodromy.holonomy_group(graph, args.point, cap=args.cap)
    return 0, {"orbit_size": len(graph.nodes), "group": group}


def _cmd_ambient(args):
    outcome = monodromy.solve_ambient(args.polytope, args.source, args.target,
                                      bound=args.bound)
    return _KIND_CODES[outcome.kind], outcome


def _cmd_equivalent(args):
    verdict = orbit.decide(args.polytope, args.source, args.target,
                           _orbit_params(args))
    return _KIND_CODES[verdict.kind], verdict


def _cmd_reduce(args):
    return 0, reduction.reduce(args.polytope, args.slice)


def _cmd_lift(args):
    lift = reduction.delzant_lift(args.polytope)
    payload = lattice.to_json(lift)
    if args.point:
        payload["lifted_point"] = lift.lift_point(args.point)
    return 0, payload


def _cmd_chekanov(args):
    a, b = args.tuple, args.to
    payload = {"reduced": chekanov.reduce(a), "gamma": chekanov.gamma(a)}
    if not b:
        return 0, payload
    eq = chekanov.equivalent(a, b)
    payload["equivalent"] = eq
    if not eq:
        return 1, payload
    try:
        word = chekanov.probe_word(a, b)
        payload["word"] = word
        payload["replay"] = chekanov.replay(a, word)
    except WordSearchExhausted as exc:
        payload["word"] = None
        payload["note"] = str(exc)
        return 3, payload
    return 0, payload


def _cmd_render(args):
    poly, window = args.polytope, args.window
    if len(window) != 2 or any(lo is None or hi is None for lo, hi in window):
        raise ParseError("render needs a bounded 2-coordinate window")
    layers = {"probes": [], "orbits": [], "labels": args.labels}
    if args.probes_at:
        layers["probes"] = probe.enumerate_probes(poly, args.probes_at, args.max_norm)
    if args.orbit_of:
        params = _orbit_params(args)
        for x in args.orbit_of:
            layers["orbits"].append(orbit.explore(poly, x, params).nodes)
    return 0, render_svg(poly, window, layers)


def _cmd_preset_list(args):
    out = []
    for name in spaces.PRESET_NAMES:
        sample = name if name != "cn(n)" else "cn(3)"
        poly = spaces.preset(sample)
        out.append(
            {
                "id": name,
                "example": f"preset:{sample}",
                "dim": poly.dim,
                "facets": poly.nfacets,
            }
        )
    return 0, {"presets": out}


# ---------------------------------------------------------------------------
# SVG rendering (dimension 2 only).
# ---------------------------------------------------------------------------


def _facet_segment(poly, index, window):
    """Endpoints of facet(index) within the polytope and the window."""
    f = poly.facets[index]
    n1, n2 = f.normal
    norm2 = n1 * n1 + n2 * n2
    base = (f.offset * -n1 / norm2, f.offset * -n2 / norm2)
    d = (-n2, n1)
    lo, hi = None, None
    rows = [(g.normal, g.offset) for j, g in enumerate(poly.facets) if j != index]
    (wx, wy) = window
    rows.append(((1, 0), -wx[0]))
    rows.append(((-1, 0), wx[1]))
    rows.append(((0, 1), -wy[0]))
    rows.append(((0, -1), wy[1]))
    for normal, offset in rows:
        slope = lattice.dot(d, normal)
        const = lattice.dot(base, normal) + offset
        slope = ExactScalar.of(slope)
        if slope.sign() > 0:
            bound = -const / slope
            lo = bound if lo is None or bound > lo else lo
        elif slope.sign() < 0:
            bound = -const / slope
            hi = bound if hi is None or bound < hi else hi
        elif ExactScalar.of(const).sign() < 0:
            return None
    if lo is None or hi is None or lo > hi:
        return None
    p = lambda t: (float(base[0] + t * d[0]), float(base[1] + t * d[1]))
    return p(lo), p(hi)


_PALETTE = ("#c0392b", "#2980b9", "#27ae60", "#8e44ad", "#d35400", "#16a085")


def render_svg(poly: DelzantPolytope, window, layers=None) -> str:
    """An SVG panel: facet lines clipped to the window, probes, orbit dots."""
    if poly.dim != 2:
        raise NotPlanar(f"rendering needs dimension 2, got {poly.dim}")
    layers = layers or {}
    (x0, x1), (y0, y1) = (
        (float(window[0][0]), float(window[0][1])),
        (float(window[1][0]), float(window[1][1])),
    )
    scale = 100.0
    width = (x1 - x0) * scale
    height = (y1 - y0) * scale
    tx = lambda p: ((p[0] - x0) * scale, (y1 - p[1]) * scale)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}"'
        f' height="{height:.0f}" viewBox="0 0 {width:.2f} {height:.2f}">',
        f'<defs><clipPath id="win"><rect x="0" y="0" width="{width:.2f}"'
        f' height="{height:.2f}"/></clipPath></defs>',
        '<g clip-path="url(#win)">',
        f'<rect x="0" y="0" width="{width:.2f}" height="{height:.2f}"'
        ' fill="#fdfdfd"/>',
    ]
    for i in range(poly.nfacets):
        seg = _facet_segment(poly, i, window)
        if seg is None:
            continue
        (ax, ay), (bx, by) = tx(seg[0]), tx(seg[1])
        parts.append(
            f'<line x1="{ax:.2f}" y1="{ay:.2f}" x2="{bx:.2f}" y2="{by:.2f}"'
            ' stroke="#222" stroke-width="2"/>'
        )
    for sigma in layers.get("probes", ()):
        a = tx((float(sigma.entry_point[0]), float(sigma.entry_point[1])))
        e = sigma.exit_point
        b = tx((float(e[0]), float(e[1])))
        parts.append(
            f'<line x1="{a[0]:.2f}" y1="{a[1]:.2f}" x2="{b[0]:.2f}"'
            f' y2="{b[1]:.2f}" stroke="#888" stroke-width="1"'
            ' stroke-dasharray="6 3"/>'
        )
    for idx, points in enumerate(layers.get("orbits", ())):
        color = _PALETTE[idx % len(_PALETTE)]
        for p in points:
            cx, cy = tx((float(p[0]), float(p[1])))
            parts.append(
                f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="4" fill="{color}"/>'
            )
            if layers.get("labels"):
                label = ",".join(str(c) for c in p)
                parts.append(
                    f'<text x="{cx + 6:.2f}" y="{cy - 6:.2f}" font-size="10">'
                    f"{label}</text>"
                )
    parts.append("</g></svg>")
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# Dispatch.
# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="delzant",
        description="Exact toric moment-polytope and probe-equivalence toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, polytope=True, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        if polytope:
            p.add_argument("polytope", type=parse_polytope)
        return p

    add("check", _cmd_check, help="verify the Delzant vertex condition")

    p = add("invariants", _cmd_invariants, help="Chekanov invariants of a fibre")
    p.add_argument("--point", type=parse_point, required=True)

    p = add("probes", _cmd_probes, help="enumerate symmetric probes through a point")
    p.add_argument("--point", type=parse_point, required=True)
    p.add_argument("--max-norm", type=parse_int, required=True)

    p = add("partner", _cmd_partner, help="partner point along one probe")
    p.add_argument("--point", type=parse_point, required=True)
    p.add_argument("--dir", type=parse_direction, required=True)

    def add_caps(p, max_norm, max_points, max_depth, window=False):
        """The `OrbitParams` caps and window; a max_norm of None is required."""
        p.add_argument("--max-norm", type=parse_int, required=max_norm is None,
                       default=max_norm)
        p.add_argument("--window", type=parse_window, required=window)
        p.add_argument("--max-points", type=parse_int, default=max_points)
        p.add_argument("--max-depth", type=parse_int, default=max_depth)

    for name, handler in (("orbit", _cmd_orbit), ("monodromy", _cmd_monodromy)):
        p = add(name, handler, help=f"{name} of a fibre under probe moves")
        p.add_argument("--point", type=parse_point, required=True)
        add_caps(p, None, 500, 32)
        if name == "monodromy":
            p.add_argument("--cap", type=parse_int, default=64)

    p = add("ambient", _cmd_ambient, help="solve the ambient monodromy constraints")
    p.add_argument("--from", dest="source", type=parse_point, required=True)
    p.add_argument("--to", dest="target", type=parse_point, required=True)
    p.add_argument("--bound", type=parse_int, default=3)

    p = add("equivalent", _cmd_equivalent, help="decide fibre equivalence")
    p.add_argument("--from", dest="source", type=parse_point, required=True)
    p.add_argument("--to", dest="target", type=parse_point, required=True)
    add_caps(p, 3, 500, 16)

    p = add("reduce", _cmd_reduce, help="toric reduction along a slice")
    p.add_argument("--slice", type=parse_slice, required=True,
                   help='JSON {"base": [...], "dirs": [[...]]}')

    p = add("lift", _cmd_lift, help="present the polytope as an orthant reduction")
    p.add_argument("--point", type=parse_point)

    p = add("chekanov", _cmd_chekanov, polytope=False, help="product-torus classification")
    p.add_argument("--tuple", type=parse_point, required=True)
    p.add_argument("--to", type=parse_point)

    p = add("render", _cmd_render, help="SVG of a planar polytope")
    add_caps(p, 2, 200, 16, window=True)
    p.add_argument("--probes-at", type=parse_point)
    p.add_argument("--orbit-of", type=parse_point, action="append")
    p.add_argument("--labels", action="store_true")

    add("preset-list", _cmd_preset_list, polytope=False, help="list the preset polytopes")
    return parser


def _normalize_argv(argv):
    """Glue a token that starts with ``-`` and a digit or ``.`` onto the
    ``--option`` just before it, so that ``--point -1/2,-1/5`` or
    ``--window -3..3,-1..1`` parse; after a bare ``--`` nothing is glued.
    """
    out = []
    for tok in argv:
        prev = out[-1] if out else ""
        if (prev.startswith("--") and "=" not in prev and "--" not in out
                and re.match(r"-[\d.]", tok)):
            out[-1] = f"{prev}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_normalize_argv(list(argv)))
        code, payload = args.handler(args)
    except SystemExit as exc:
        return 2 if exc.code else 0
    except Exception as exc:  # never a traceback on user input
        code = exc.exit_code if isinstance(exc, DelzantError) else 2
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)},
                         sort_keys=True), file=sys.stdout if code == 1 else sys.stderr)
        return code
    if isinstance(payload, str):
        print(payload)
    else:
        print(json.dumps(lattice.to_json(payload), sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
