"""Run the delzant CLI as `python -m delzant.cli` does, then report its peak RSS.

    python3 perfbench/cli_child.py ARGS...     # same as python3 -m delzant.cli ARGS...

When the CLI ends, however it ends, the last line written to stderr is
`perfbench-vmhwm-kib N`: the VmHWM of this process, its peak resident set
since exec.  `ru_maxrss` cannot give that for a child, because Linux carries
the parent's high-water mark into the child at exec.
"""

import os
import runpy
import sys

MARKER = "perfbench-vmhwm-kib"


def vmhwm_kib():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


if __name__ == "__main__":
    sys.path[0] = os.getcwd()  # as -m sets it, not this script's directory
    try:
        runpy.run_module("delzant.cli", run_name="__main__", alter_sys=True)
    finally:
        sys.stdout.flush()
        sys.stderr.write(f"\n{MARKER} {vmhwm_kib()}\n")
