"""The benchmark's tracer still finds every attribute of the program it wraps.

`perfbench/tracer.py` wraps module and class attributes by name (`SPANS`,
`COUNTS`, `SCALAR_OPS`); a refactor that moves or renames one of them would
break `perfbench/run.py --trace 1`.  This test only reads `perfbench/`.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracer
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracer, workloads.Lib()


def test_every_traced_attribute_exists_and_is_restored(bench):
    tracer, lib = bench
    targets = [(tracer._owner(lib, path), attr) for path, attr in tracer.SPANS + tracer.COUNTS]
    targets += [(lib.lattice.ExactScalar, attr) for attr in tracer.SCALAR_OPS]
    missing = [f"{owner.__name__}.{attr}" for owner, attr in targets
               if attr not in owner.__dict__]
    assert not missing, f"perfbench/tracer.py wraps attributes that are gone: {missing}"
    originals = [owner.__dict__[attr] for owner, attr in targets]
    t = tracer.Tracer()
    try:
        t.install(lib)
        assert len(t._undo) == len(targets)
        assert all(owner.__dict__[attr] is not f
                   for (owner, attr), f in zip(targets, originals))
    finally:
        t.remove()
    assert all(owner.__dict__[attr] is f for (owner, attr), f in zip(targets, originals))


def test_harvest_finds_operands_for_every_scalar_kernel(bench):
    """`perfbench/run.py --trace 1` times scalar add/mul/compare on operand
    pairs that `harvest` records while a √2 explore and rational decides
    run; a kernel left without pairs makes the traced run report
    `correct: false`.  The √2 pairs come from the root's distance vector
    and window check, which stay in ExactScalar."""
    _, lib = bench
    sys.path.insert(0, str(PERFBENCH))
    try:
        import run
    finally:
        sys.path.remove(str(PERFBENCH))
    pairs = run.harvest(lib)
    assert set(pairs) == {(op, kind) for op in run.MICRO_OPS for kind in ("sqrt2", "q")}
    empty = sorted(key for key, found in pairs.items() if not found)
    assert not empty, f"harvest found no operand pairs for {empty}"
