"""Every benchmark query still gives the output its reference digest records.

Builds the tune and holdout pools of the four workloads of `perfbench/`,
runs each query once (CLI queries in-process, through
`workloads.run_cli_inprocess`) and compares `run.digest` of the output with
`perfbench/reference.json`.  This test only reads `perfbench/`.
"""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = ("orbit_sqrt2", "decide_mix", "ambient_monodromy", "cli_session")


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import run
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    assert workloads.WORKLOADS == WORKLOADS
    return run, workloads, workloads.Lib()


@pytest.mark.parametrize("pool", ["tune", "holdout"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_query_matches_its_reference_digest(bench, pool, workload):
    run, workloads, lib = bench
    reference = json.loads((PERFBENCH / "reference.json").read_text())[pool][workload]
    queries = workloads.build(workload, lib, pool, str(PERFBENCH.parent))
    assert queries and {q.key for q in queries} == set(reference)
    differ = []
    for q in queries:
        out = workloads.run_cli_inprocess(lib, q.argv) if q.argv else q.call()
        if run.digest(q, out) != reference[q.key]:
            differ.append(q.key)
    assert not differ, f"outputs differ from perfbench/reference.json: {differ}"
