"""Record the benchmark's baseline in perfbench/baseline.json.

    python3 perfbench/baseline.py --seeds 1-10
    python3 perfbench/baseline.py --seeds 11-20 --out other.json

Runs every workload once per seed with tracing off, for BENCHMARK.json's
run_seconds, each in its own process, one after another.  The workloads
take turns seed by seed, in alternating order, so that a slow spell of
the host is shared out between them rather than falling into one
workload's quartiles.  Then each workload runs twice with tracing on
(first seed); the counts of the two traced runs must agree exactly.  For
every end-to-end metric it stores the median, the quartiles and the
spread (quartile distance over the median) across seeds, as
`statistics.quantiles(values, n=4)` gives them, and prints the spread
next to the metric's bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        sys.exit(f"error: {workload} seed {seed} trace {trace} exited {proc.returncode}:\n"
                 + proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--out", type=Path, default=BENCH / "baseline.json")
    args = parser.parse_args()
    seconds = spec["run_seconds"]

    out = {
        "recorded": time.strftime("%Y-%m-%d %H:%M:%S %Z"),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": f"{platform.machine()} {platform.processor() or platform.platform()}",
        "run_seconds": seconds,
        "seeds": args.seeds,
        "workloads": {},
    }
    values = {w: {} for w in names}
    attempted = dict.fromkeys(names, 0)
    failed = dict.fromkeys(names, 0)
    for turn, seed in enumerate(args.seeds):
        for workload in names if turn % 2 == 0 else names[::-1]:
            result = run(workload, seed, seconds, 0)
            attempted[workload] += result["attempted"]
            failed[workload] += result["failed"]
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    for workload in names:
        end_to_end = {}
        for name, vals in values[workload].items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            end_to_end[name] = {"median": median, "q1": q1, "q3": q3,
                                "spread": (q3 - q1) / median, "values": vals}
            print(f"  {workload:18s} {name:18s} median {median:10.4g}"
                  f"  spread {(q3 - q1) / median:.4f}  bound {bounds[name]}", flush=True)
        traced = run(workload, args.seeds[0], seconds, 1)
        again = run(workload, args.seeds[0], seconds, 1)
        differ = [k for k, v in traced["metrics"].items()
                  if v["unit"] == "count" and again["metrics"][k]["value"] != v["value"]]
        if differ:
            sys.exit(f"error: counts differ between two traced runs of {workload}: {differ}")
        out["workloads"][workload] = {
            "attempted": attempted[workload],
            "failed": failed[workload],
            "end_to_end": end_to_end,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    args.out.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
