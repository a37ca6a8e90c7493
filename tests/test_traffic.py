"""`tools/traffic.py`: the line trace finds the statements a run misses."""

import importlib.util
import inspect
from pathlib import Path

from delzant import monodromy

TOOL = Path(__file__).resolve().parent.parent / "tools" / "traffic.py"


def _traffic():
    spec = importlib.util.spec_from_file_location("traffic", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _line_of(function, statement):
    """The file line number of the first line of function whose stripped
    text is statement."""
    source, first = inspect.getsourcelines(function)
    return first + [line.strip() for line in source].index(statement)


def test_a_degree_one_call_leaves_the_horner_scan_unreached():
    traffic = _traffic()
    with traffic.LineTrace() as trace:
        assert monodromy._last_roots([0, 2], 3, (2, -2)) == [-1, 1]
    groups = {
        line: text
        for path, _, found in traffic.unreached(trace) if path.name == "monodromy.py"
        for first, _, texts in found
        for line, text in enumerate(texts, first)
    }
    horner = _line_of(monodromy._last_roots, "total = total * x + c")
    divmod_line = _line_of(monodromy._last_roots, "x, r = divmod(target - c, b)")
    assert groups[horner].strip() == "total = total * x + c"
    assert divmod_line not in groups
    # a function body is listed, its def line and docstring are not
    lines, heads = traffic.statements(Path(monodromy.__file__))
    head = inspect.getsourcelines(monodromy._last_roots)[1]
    assert head in heads and head not in lines and head + 1 not in lines
