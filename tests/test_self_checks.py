"""Self-checks raise `SelfCheckFailed`; none is an `assert`, which
`python -O` strips.  No float reaches a decision: floats are made only
where the CLI draws an SVG and where a scalar converts itself."""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("path", sorted((SRC / "delzant").glob("*.py")),
                         ids=lambda p: p.name)
def test_no_assert_in_the_library(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} asserts on lines {lines}"


# the functions, as module.qualified_name, that may make floats
_FLOAT_PLACES = {"float": {"cli.render_svg", "cli._facet_segment"},
                 "math.sqrt": {"lattice.ExactScalar.__float__"}}


def _float_sites(tree):
    """(kind, lineno, qualified name of the enclosing def) of each float()
    call, float literal and use of math.sqrt in a module's syntax tree."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id == "float"):
                sites.append(("float", child.lineno, scope))
            elif isinstance(child, ast.Constant) and isinstance(child.value, float):
                sites.append(("float", child.lineno, scope))
            elif (isinstance(child, ast.Attribute) and child.attr == "sqrt"
                  and isinstance(child.value, ast.Name) and child.value.id == "math"):
                sites.append(("math.sqrt", child.lineno, scope))
            elif (isinstance(child, ast.ImportFrom) and child.module == "math"
                  and any(alias.name == "sqrt" for alias in child.names)):
                sites.append(("math.sqrt", child.lineno, scope))
            visit(child, inner)

    visit(tree, "")
    return sites


@pytest.mark.parametrize("path", sorted((SRC / "delzant").glob("*.py")),
                         ids=lambda p: p.name)
def test_no_float_outside_rendering(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    stray = [(kind, line, scope) for kind, line, scope in _float_sites(tree)
             if f"{path.stem}.{scope}" not in _FLOAT_PLACES[kind]]
    assert not stray, f"{path.name} makes floats at {stray}"


def test_the_float_guard_sees_each_kind():
    tree = ast.parse(textwrap.dedent("""
        import math
        from math import sqrt
        def decide(x):
            return float(x) < 0.5 or math.sqrt(x) > 1
        def render_svg(w):
            return float(w) * 100.0
    """))
    assert _float_sites(tree) == [
        ("math.sqrt", 3, ""), ("float", 5, "decide"), ("float", 5, "decide"),
        ("math.sqrt", 5, "decide"), ("float", 7, "render_svg"), ("float", 7, "render_svg"),
    ]


# -- one JSON encoding ----------------------------------------------------------


def _trees():
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in sorted((SRC / "delzant").glob("*.py"))}


def _record_to_json_overrides(trees):
    """(module, class) of each class deriving from `Record`, directly or
    through another such class, whose `to_json` does not call
    `super().to_json()`."""
    classes = [(module, node) for module, tree in trees.items()
               for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    records = {"Record"}
    grown = True
    while grown:
        grown = False
        for _, node in classes:
            bases = {b.id if isinstance(b, ast.Name) else getattr(b, "attr", None)
                     for b in node.bases}
            if node.name not in records and bases & records:
                records.add(node.name)
                grown = True
    bad = []
    for module, node in classes:
        if node.name == "Record" or node.name not in records:
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and item.name == "to_json":
                extends = any(
                    isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "to_json" and isinstance(call.func.value, ast.Call)
                    and getattr(call.func.value.func, "id", None) == "super"
                    for call in ast.walk(item))
                if not extends:
                    bad.append((module, node.name))
    return bad


def _json_dumps_sites(trees):
    """(module, qualified name of the enclosing def) of each json.dumps call
    and each import of dumps by name."""
    sites = []

    def visit(module, node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if (isinstance(child, ast.Attribute) and child.attr == "dumps"
                    and getattr(child.value, "id", None) == "json"):
                sites.append((module, scope))
            elif (isinstance(child, ast.ImportFrom) and child.module == "json"
                  and any(alias.name == "dumps" for alias in child.names)):
                sites.append((module, scope))
            visit(module, child, inner)

    for module, tree in trees.items():
        visit(module, tree, "")
    return sites


def test_records_write_their_fields_through_record():
    # a Record subclass that wrote its own dict would be a second encoding
    assert not _record_to_json_overrides(_trees())


def test_json_is_written_only_by_cli_main():
    sites = _json_dumps_sites(_trees())
    assert sites and set(sites) == {("cli", "main")}


def test_the_encoding_guards_see_each_breach():
    trees = {"m": ast.parse(textwrap.dedent("""
        import json
        from json import dumps
        class A(Record):
            def to_json(self):
                return {"a": json.dumps(self.a)}
        class B(A):
            def to_json(self):
                return {**super().to_json(), "b": 1}
        class C(B):
            def to_json(self):
                return []
        class Plain:
            def to_json(self):
                return []
    """))}
    assert _record_to_json_overrides(trees) == [("m", "A"), ("m", "C")]
    assert _json_dumps_sites(trees) == [("m", ""), ("m", "A.to_json")]


_OPTIMIZED_CHECKS = textwrap.dedent("""
    import sys

    from delzant import lattice, monodromy, preset, reduction
    from delzant.errors import SelfCheckFailed

    if not sys.flags.optimize:
        raise SystemExit("not run under -O")

    def raises(call, *args):
        try:
            call(*args)
        except SelfCheckFailed as exc:
            print(exc)
        else:
            print("passed silently")

    # 2 - sqrt(4) vanishes: 4 is no square-free D
    raises(lattice._sign, 2, -1, 4)

    # a doubled rhs stays integer-feasible, but the identity no longer solves it
    real_system = monodromy._ambient_system

    def doubled_rhs(*args):
        rows, rhs = real_system(*args)
        return rows, tuple(2 * b for b in rhs)

    monodromy._ambient_system = doubled_rhs
    cp2 = preset("cp2")
    raises(monodromy.solve_ambient, cp2, cp2.interior_point(), cp2.interior_point(), 1)
    monodromy._ambient_system = real_system

    # the line y = -1 misses the orthant: facet y >= 0 is constant -1 on it
    reduction.admissible = lambda poly, sl: reduction.AdmissibilityReport(True, ())
    raises(reduction.reduce, preset("cn(2)"), reduction.AffineSlice((0, -1), [(1, 0)]))
""")


def test_checks_raise_under_python_O():
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    done = subprocess.run([sys.executable, "-O", "-c", _OPTIMIZED_CHECKS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "square-free D cannot make a + b*sqrt(D) vanish",
        "the identity must solve its own constraint system",
        "slice meets the interior, so l_i(base) > 0",
    ]
