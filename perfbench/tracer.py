"""Per-layer tracing installed from outside the program.

The package looks its functions up through module attributes (and the
polytope and scalar methods through their classes), so replacing those
attributes with wrappers reaches every call without touching `src/`.
Coarse calls record spans (name, start, end, parent, query id); hot leaf
calls (`ExactScalar` dunders, `lattice.dot`, `mat_det`, ...) only count.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

from workloads import verdict_stage

# (owner attribute path, span name); every span also counts its calls
SPANS = (
    ("lattice", "mat_mul"),
    ("lattice", "row_hnf"),
    ("lattice", "solve_integer"),
    ("polytope.DelzantPolytope", "ell"),
    ("polytope.DelzantPolytope", "is_interior"),
    ("polytope.DelzantPolytope", "invariants"),
    ("probe", "shoot"),
    ("probe", "enumerate_probes"),
    ("probe", "partner"),
    ("orbit", "explore"),
    ("orbit", "decide"),
    ("orbit", "replay_path"),
    ("monodromy", "solve_ambient"),
    ("monodromy", "holonomy_group"),
    ("monodromy", "mulclose"),
    ("chekanov", "equivalent"),
    ("chekanov", "probe_word"),
    ("chekanov", "replay"),
    ("cli", "main"),
)
COUNTS = (
    ("lattice", "dot"),
    ("lattice", "mat_det"),
    ("lattice", "unimodular_inverse"),
)
SCALAR_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__neg__", "__truediv__", "__rtruediv__", "__abs__", "inverse",
    "__eq__", "__lt__", "__le__", "__gt__", "__ge__", "sign", "__hash__",
)
_REJECTS = {
    "UnboundedRay": "probe.reject.unbounded",
    "HitsLowerFace": "probe.reject.lower_face",
    "NotTransverse": "probe.reject.not_transverse",
}


def _owner(lib, path):
    obj = getattr(lib, path.split(".")[0])
    for part in path.split(".")[1:]:
        obj = getattr(obj, part)
    return obj


class Patcher:
    """Replaces class or module attributes and puts the originals back."""

    def __init__(self):
        self._undo = []

    def patch(self, owner, attr, wrapped):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    def remove(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class Tracer(Patcher):
    """Spans and counters for one traced pass; `install` / `remove` wrap the program."""

    def __init__(self):
        super().__init__()
        self.spans = []            # (id, name, start, end, parent id, query id)
        self.stack = []            # open spans: [id, name, start, child time]
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self.scalar = [0, 0]       # [inside a scalar op, outermost scalar ops]
        self.open_decides = 0
        self.qid = None
        self._next = 0

    # -- spans -------------------------------------------------------------------

    def _enter(self, name):
        sid = self._next
        self._next += 1
        self.stack.append([sid, name, time.perf_counter(), 0.0])

    def _exit(self):
        end = time.perf_counter()
        sid, name, start, child = self.stack.pop()
        dur = end - start
        self.self_time[name] += dur - child
        parent = None
        if self.stack:
            self.stack[-1][3] += dur
            parent = self.stack[-1][0]
        self.spans.append((sid, name, start, end, parent, self.qid))

    def query(self, qid, call):
        """Run one query under a root span carrying its id."""
        self.qid = qid
        self._enter("query")
        try:
            return call()
        finally:
            self._exit()

    def parent_name(self):
        return self.stack[-1][1] if self.stack else None

    # -- wrappers -----------------------------------------------------------------

    def _span_wrapper(self, name, fn):
        counts = self.counts
        calls = name + "_calls"
        observe = getattr(self, "_on_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            counts[calls] += 1
            if observe is not None:
                observe("enter", args, None)
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._exit()
                if observe is not None:
                    observe("raise", args, exc)
                raise
            self._exit()
            if observe is not None:
                observe("return", args, result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts
        calls = name + "_calls"

        def wrapper(*args, **kwargs):
            counts[calls] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _scalar_wrapper(self, fn):
        state = self.scalar

        def wrapper(*args):
            if state[0]:
                return fn(*args)
            state[0] = 1
            state[1] += 1
            try:
                return fn(*args)
            finally:
                state[0] = 0

        return wrapper

    def install(self, lib):
        for path, attr in SPANS:
            owner = _owner(lib, path)
            name = f"{path.split('.')[0]}.{attr}"
            self.patch(owner, attr, self._span_wrapper(name, owner.__dict__[attr]))
        for path, attr in COUNTS:
            owner = _owner(lib, path)
            self.patch(owner, attr, self._count_wrapper(f"{path}.{attr}", owner.__dict__[attr]))
        cls = lib.lattice.ExactScalar
        for attr in SCALAR_OPS:
            self.patch(cls, attr, self._scalar_wrapper(cls.__dict__[attr]))

    # -- observers for counts read off arguments and results --------------------

    def _on_probe_shoot(self, phase, args, value):
        if phase == "return":
            self.counts["probe.probes_found"] += 1
        elif phase == "raise":
            key = _REJECTS.get(type(value).__name__)
            if key:
                self.counts[key] += 1

    def _on_probe_enumerate_probes(self, phase, args, value):
        if phase == "enter" and self.parent_name() == "orbit.explore":
            self.counts["orbit.expansions"] += 1

    def _on_probe_partner(self, phase, args, value):
        if phase == "enter" and self.parent_name() == "orbit.explore":
            self.counts["orbit.explore_partner_calls"] += 1

    def _on_orbit_explore(self, phase, args, value):
        if phase == "enter" and self.open_decides:
            self.counts["orbit.explores_in_decide"] += 1
        elif phase == "return":
            self.counts["orbit.nodes"] += len(value.nodes)
            self.counts["orbit.edges"] += len(value.edges)
            self.counts["orbit.new_points"] += len(value.parents)

    def _on_orbit_decide(self, phase, args, value):
        if phase == "enter":
            self.open_decides += 1
            return
        self.open_decides -= 1
        if phase == "return":
            self.counts["orbit.verdicts." + verdict_stage(value)] += 1

    def _on_monodromy_solve_ambient(self, phase, args, value):
        if phase == "return":
            self.counts["monodromy.solutions"] += len(value.solutions)

    def _on_monodromy_holonomy_group(self, phase, args, value):
        if phase == "return":
            self.counts["monodromy.group_elements"] += len(value.elements)

    def _on_monodromy_mulclose(self, phase, args, value):
        if phase == "return" and self.parent_name() != "monodromy.holonomy_group":
            self.counts["monodromy.group_elements"] += len(value.elements)

    def _on_chekanov_probe_word(self, phase, args, value):
        if phase == "return":
            self.counts["chekanov.word_moves"] += len(value)

    # -- results ---------------------------------------------------------------------

    def layer_metrics(self):
        """Per-layer counts and self times of the pass (cli.* and microkernels apart)."""
        c = self.counts
        st = self.self_time

        def layer_self(prefix):
            return sum(v for k, v in st.items() if k.startswith(prefix + "."))

        def ratio(a, b):
            return a / b if b else 0.0

        return {
            "lattice.scalar_ops": self.scalar[1],
            "lattice.dot_calls": c["lattice.dot_calls"],
            "lattice.mat_mul_calls": c["lattice.mat_mul_calls"],
            "lattice.mat_mul_self_s": st["lattice.mat_mul"],
            "lattice.hnf_calls": c["lattice.row_hnf_calls"],
            "lattice.hnf_self_s": st["lattice.row_hnf"],
            "lattice.solve_integer_calls": c["lattice.solve_integer_calls"],
            "lattice.solve_integer_self_s": st["lattice.solve_integer"],
            "lattice.mat_det_calls": c["lattice.mat_det_calls"],
            "lattice.unimodular_inverse_calls": c["lattice.unimodular_inverse_calls"],
            "polytope.ell_calls": c["polytope.ell_calls"],
            "polytope.is_interior_calls": c["polytope.is_interior_calls"],
            "polytope.invariants_calls": c["polytope.invariants_calls"],
            "polytope.self_s": layer_self("polytope"),
            "probe.shoot_calls": c["probe.shoot_calls"],
            "probe.probes_found": c["probe.probes_found"],
            "probe.yield_ratio": ratio(c["probe.probes_found"], c["probe.shoot_calls"]),
            "probe.reject.unbounded": c["probe.reject.unbounded"],
            "probe.reject.lower_face": c["probe.reject.lower_face"],
            "probe.reject.not_transverse": c["probe.reject.not_transverse"],
            "probe.partner_calls": c["probe.partner_calls"],
            "probe.self_s": layer_self("probe"),
            "orbit.explore_calls": c["orbit.explore_calls"],
            "orbit.expansions": c["orbit.expansions"],
            "orbit.nodes": c["orbit.nodes"],
            "orbit.edges": c["orbit.edges"],
            "orbit.new_node_ratio": ratio(c["orbit.new_points"], c["orbit.explore_partner_calls"]),
            "orbit.explores_per_decide": ratio(c["orbit.explores_in_decide"], c["orbit.decide_calls"]),
            "orbit.self_s": layer_self("orbit"),
            "orbit.verdicts.invariants": c["orbit.verdicts.invariants"],
            "orbit.verdicts.path": c["orbit.verdicts.path"],
            "orbit.verdicts.ambient": c["orbit.verdicts.ambient"],
            "orbit.verdicts.unknown": c["orbit.verdicts.unknown"],
            "monodromy.solve_ambient_calls": c["monodromy.solve_ambient_calls"],
            "monodromy.solve_ambient_self_s": st["monodromy.solve_ambient"],
            "monodromy.solutions": c["monodromy.solutions"],
            "monodromy.holonomy_self_s": st["monodromy.holonomy_group"],
            "monodromy.mulclose_calls": c["monodromy.mulclose_calls"],
            "monodromy.mulclose_self_s": st["monodromy.mulclose"],
            "monodromy.group_elements": c["monodromy.group_elements"],
            "chekanov.probe_word_calls": c["chekanov.probe_word_calls"],
            "chekanov.word_moves": c["chekanov.word_moves"],
            "chekanov.self_s": layer_self("chekanov"),
        }

    def deterministic_counts(self):
        """Every count of the pass; two passes over the same inputs must agree."""
        out = dict(self.counts)
        out["lattice.scalar_ops"] = self.scalar[1]
        out["trace.spans"] = len(self.spans)
        return out
