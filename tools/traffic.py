"""Which statements of `src/delzant` a run never reaches: a stdlib line trace.

    python tools/traffic.py         # tier-1 and the benchmark pools
    python tools/traffic.py pools   # one pass of every perfbench pool
    python tools/traffic.py tier1   # the tier-1 test suite

Run from the root of a checkout.  `tier1` runs the test suite in this
process; `pools` builds the tune and holdout pools of every workload in
`perfbench/workloads.py` and runs each query once, the CLI queries
in-process through `workloads.run_cli_inprocess`, and traces only the
queries, not the pool building or the checks.  Nothing under `perfbench/`
is changed.  A statement is a line of a function body (module and class
bodies run at import and are left out).  Code run in a child process,
such as a test that starts the CLI as a subprocess, is not seen.

The output lists, per file, the statements that no chosen run reached,
grouped into runs of consecutive lines with their source text.
"""

from __future__ import annotations

import argparse
import inspect
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "delzant"


def statements(path):
    """(the lines of path that the bodies of its functions execute, the
    first lines of those functions)."""
    lines, heads = set(), set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        todo += [c for c in code.co_consts if inspect.iscode(c)]
        if code.co_flags & inspect.CO_NEWLOCALS:
            heads.add(code.co_firstlineno)
            lines.update(line for _, _, line in code.co_lines()
                         if line is not None and line != code.co_firstlineno)
    return lines, heads - lines


class LineTrace:
    """The lines reached in the files of the package, per file name."""

    def __init__(self):
        self.files = {str(p): set() for p in PACKAGE.glob("*.py")}

    def _call(self, frame, event, arg):
        reached = self.files.get(frame.f_code.co_filename)
        if reached is None:
            return None

        def line(frame, event, arg):
            if event == "line":
                reached.add(frame.f_lineno)
            return line

        return line

    def __enter__(self):
        self._outer = sys.gettrace(), threading.gettrace()
        threading.settrace(self._call)
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc):
        sys.settrace(self._outer[0])
        threading.settrace(self._outer[1])


def run_tier1(trace):
    import pytest

    with trace:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                            str(ROOT / "tests")])
    print(f"# tier-1 exit status {code}", file=sys.stderr)


def run_pools(trace):
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    lib = workloads.Lib()
    for pool in workloads.POOL_SEEDS:
        for workload in workloads.WORKLOADS:
            queries = workloads.build(workload, lib, pool, str(ROOT))
            with trace:
                for q in queries:
                    if q.argv:
                        workloads.run_cli_inprocess(lib, q.argv)
                    else:
                        q.call()
            print(f"# {pool} {workload}: {len(queries)} queries", file=sys.stderr)


def unreached(trace):
    """(file, count, [(first, last, [source lines])]) for each file with
    unreached statements: their count and their groups."""
    out = []
    for name, reached in sorted(trace.files.items()):
        path = Path(name)
        lines, heads = statements(path)
        missing = sorted(lines - reached)
        if not missing:
            continue
        text = path.read_text().splitlines()
        groups = []
        for line in missing:
            # a group runs on over lines that are no statement (blank, else:,
            # continuation lines), but not into another function
            if groups and not any(i in lines or i in heads
                                  for i in range(groups[-1][1] + 1, line)):
                groups[-1][1] = line
            else:
                groups.append([line, line])
        out.append((path, len(missing), [(a, b, text[a - 1:b]) for a, b in groups]))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("runs", nargs="*", metavar="{tier1,pools}",
                        help="the runs to trace (default: both)")
    runs = parser.parse_args(argv).runs or ["tier1", "pools"]
    if not set(runs) <= {"tier1", "pools"}:
        parser.error(f"unknown run in {runs}; choose from tier1, pools")
    sys.path.insert(0, str(SRC))
    trace = LineTrace()
    if "pools" in runs:
        run_pools(trace)
    if "tier1" in runs:
        run_tier1(trace)
    total = 0
    for path, count, groups in unreached(trace):
        total += count
        for first, last, source in groups:
            span = f"{first}" if first == last else f"{first}-{last}"
            print(f"{path.relative_to(ROOT)}:{span}")
            for number, text in enumerate(source, first):
                print(f"    {number:4d}  {text}")
    print(f"# {total} statements unreached, runs: {' + '.join(runs)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
