"""One JSON encoding: `lattice.to_json` and `lattice.Record` write what the
hand-written serializers they replaced wrote, byte for byte.

The `ref_*` functions below are those serializers, kept as references.
"""

import json
import random
import warnings
from dataclasses import dataclass, field, fields
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delzant import (
    AffineSlice,
    OrbitParams,
    decide,
    enumerate_probes,
    explore,
    lattice,
    monodromy,
    preset,
    reduction,
    scalar,
)
from delzant.chekanov import Swap, probe_word, reduce as reduce_tuple
from delzant.errors import NotAdmissible
from delzant.lattice import Record, to_json
from delzant.monodromy import AmbientOutcome

from test_orbit import DECIDE_PARAMS, GENERATED, affine_image, moved
from test_polytope import fractions, sample_interior, unimodular_2x2


def _pt(x):
    return [str(c) for c in x]


def _mat(M):
    return [list(r) for r in M]


def ref_probe(s):
    return {"direction": list(s.direction), "entry_facet": s.entry_facet,
            "exit_facet": s.exit_facet, "entry_point": _pt(s.entry_point),
            "length": str(s.length)}


def ref_move(m):
    return {"probe": ref_probe(m.probe), "source": _pt(m.source),
            "target": _pt(m.target), "transport": _mat(m.transport)}


def ref_graph(g):
    return {"root": _pt(g.root), "nodes": [_pt(p) for p in g.nodes],
            "edges": [ref_move(e) for e in g.edges], "truncated": g.truncated}


def ref_invariants(inv):
    return {"d": str(inv.d), "count": inv.count, "gamma": inv.gamma.to_json(),
            "reduced": _pt(inv.reduced)}


def ref_group(g):
    return {"generators": [_mat(m) for m in g.generators],
            "elements": [_mat(m) for m in g.elements],
            "truncated": g.truncated, "cap": g.cap}


def ref_solution(s):
    return {"A": _mat(s.A), "induced": _mat(s.induced), "perm": [list(p) for p in s.perm]}


def ref_certificate(c):
    # the distances of an invariants certificate and the witness of a linear
    # one, once stored as their text
    if c["kind"] == "invariants":
        return {**c, "d": [str(v) for v in c["d"]]}
    if c["kind"] == "linear":
        return {**c, "witness": [str(Fraction(x)) for x in c["witness"].u]}
    return c


def ref_outcome(o):
    return {"kind": o.kind, "bound": o.bound,
            "solutions": [ref_solution(s) for s in o.solutions],
            "certificates": [ref_certificate(c) for c in o.certificates]}


def ref_report(r):
    return {"distinguished": r.distinguished, "maslov": r.maslov, "area": r.area,
            "h2": r.h2, "induced": None if r.induced is None else _mat(r.induced),
            "all_pass": r.all_pass}


def ref_verdict(v):
    out = {"verdict": v.kind}
    if v.path is not None:
        out["path"] = [ref_move(m) for m in v.path]
    if v.reason is not None:
        out["reason"] = v.reason
    cert = v.certificate
    if isinstance(cert, AmbientOutcome):
        out["certificate"] = ref_outcome(cert)
    elif cert is not None:
        out["certificate"] = {"x": ref_invariants(cert["x"]), "y": ref_invariants(cert["y"]),
                              "reduction_type": cert["reduction_type"]}
    return out


def ref_polytope(p):
    return {"dim": p.dim, "field": {"D": p.field_disc},
            "facets": [{"normal": list(f.normal), "offset": str(f.offset)}
                       for f in p.facets]}


def ref_vertex(v):
    return {"point": _pt(v.point), "active": list(v.active), "det": v.det}


def ref_slice(sl):
    return {"base": _pt(sl.base), "dirs": [list(d) for d in sl.dirs]}


def ref_face(f):
    return {"active": list(f.active), "face_basis": _mat(f.face_basis),
            "generates": f.generates}


def ref_admissibility(r):
    return {"ok": r.ok, "faces": [ref_face(f) for f in r.faces]}


def ref_reduction(r):
    return {"reduced": ref_polytope(r.reduced), "facet_origin": list(r.facet_origin),
            "slice": ref_slice(r.slice)}


def ref_lift(lift):
    return {"kernel": _mat(lift.kernel)}


def ref_reduced_vector(r):
    return {"d": str(r.d), "mult": r.mult, "entries": _pt(r.entries)}


def ref_word(w):
    return [["swap", m.i, m.j] if isinstance(m, Swap) else ["elswap", m.i, m.j, m.k]
            for m in w.moves]


def same(value, reference):
    """Equal JSON texts, as the CLI writes them: tuples and lists agree."""
    assert (json.dumps(to_json(value), sort_keys=True)
            == json.dumps(reference, sort_keys=True))


def assert_records_match(poly, x, y, params, cap=32):
    """Every record of one polytope and two of its points against its
    hand-written serializer."""
    same(poly, ref_polytope(poly))
    for v in poly.check_delzant():
        same(v, ref_vertex(v))
    same(poly.invariants(x), ref_invariants(poly.invariants(x)))
    for s in enumerate_probes(poly, x, 2):
        same(s, ref_probe(s))
    graph = explore(poly, x, params)
    same(graph, ref_graph(graph))
    group = monodromy.holonomy_group(graph, x, cap=cap)
    same(group, ref_group(group))
    for z in (graph.nodes[-1], y):
        verdict = decide(poly, x, z, params)
        same(verdict, ref_verdict(verdict))
    if poly.normals_span():
        for z in (x, y):
            outcome = monodromy.solve_ambient(poly, x, z, bound=1)
            same(outcome, ref_outcome(outcome))
            N = poly.nfacets
            for A in [lattice.identity(N)] + [s.A for s in outcome.solutions[:3]]:
                report = monodromy.check_ambient(poly, x, z, A)
                same(report, ref_report(report))
        lift = reduction.delzant_lift(poly)
        same(lift, ref_lift(lift))
    for v in ((1,) + (0,) * (poly.dim - 1), (1,) * poly.dim):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sl = AffineSlice(x, [v])
        same(sl, ref_slice(sl))
        report = reduction.admissible(poly, sl)
        same(report, ref_admissibility(report))
        try:
            result = reduction.reduce(poly, sl)
        except NotAdmissible:
            continue
        same(result, ref_reduction(result))


@pytest.mark.parametrize("name", sorted(DECIDE_PARAMS))
def test_records_match_the_hand_written_serializers_on_presets(name):
    poly = preset(name)
    params = OrbitParams(**DECIDE_PARAMS[name])
    rng = random.Random(157)
    points = [poly.interior_point()] + [sample_interior(poly, rng) for _ in range(2)]
    for x, y in zip(points, points[1:] + points[:1]):
        if params.in_window(x):
            assert_records_match(poly, x, y, params)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(GENERATED), st.sampled_from((1, 2, 5)), unimodular_2x2(),
       st.tuples(fractions, fractions), st.tuples(fractions, fractions),
       st.randoms(use_true_random=False))
def test_records_match_the_hand_written_serializers_on_affine_images(
        name, D, M, t_rat, t_quad, rng):
    base, image, t = affine_image(name, D, M, t_rat, t_quad)
    x = moved(M, sample_interior(base, rng), t)
    y = moved(M, sample_interior(base, rng), t)
    window = tuple((c - 3, c + Fraction(5, 2)) for c in x)
    params = OrbitParams(max_norm=2, max_points=20, max_depth=5, window=window)
    assert_records_match(image, x, y, params)


def test_product_torus_records_match_the_hand_written_serializers():
    for a, b in [((1, 2, 3), (1, 2, 7)), ((2, 2, 5), (2, 5, 2)),
                 ((1, scalar(2, 1, 2), 3), (1, 3, scalar(2, 1, 2)))]:
        red = reduce_tuple(a)
        same(red, ref_reduced_vector(red))
        word = probe_word(a, b)
        same(word, ref_word(word))


def test_plain_values_and_containers():
    value = (scalar(1, 1, 2), 3, True, None, "x", [scalar(Fraction(1, 2))],
             {"k": ((1, 2), (3, 4))})
    assert to_json(value) == ["1+1√2", 3, True, None, "x", ["1/2"], {"k": [[1, 2], [3, 4]]}]


@pytest.mark.parametrize("value", [0.5, Fraction(1, 2), object(), (1, 0.5),
                                   {"k": [Fraction(1, 3)]}],
                         ids=["float", "Fraction", "object", "nested-float",
                              "nested-Fraction"])
def test_the_encoder_refuses_values_without_a_json_form(value):
    with pytest.raises(TypeError):
        to_json(value)


def test_records_never_write_a_field_hidden_from_repr():
    @dataclass(frozen=True)
    class Sample(Record):
        shown: tuple
        hidden: float = field(repr=False)  # a float: written, it would raise

    assert Sample((scalar(1, 1, 2),), 0.5).to_json() == {"shown": ["1+1√2"]}
    poly = preset("cp2")
    x = poly.interior_point()
    records = [poly.facets[0], enumerate_probes(poly, x, 1)[0],
               explore(poly, x, OrbitParams(max_norm=1, max_points=5)),
               reduction.delzant_lift(poly)]
    for record in records:
        shown = {f.name for f in fields(record) if f.repr}
        assert set(record.to_json()) == shown
        assert len(shown) < len(fields(record))
