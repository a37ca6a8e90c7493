"""Benchmark for delzant: four workloads, end-to-end metrics, traced run.

    python3 perfbench/run.py --workload decide_mix --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all              # every workload, one table
    python3 perfbench/run.py --workload orbit_sqrt2 --pool holdout   # claim checks
    python3 perfbench/run.py --write-reference           # re-record reference.json

Run from the root of a checkout: the program is imported from `src/`.
One closed-loop client in one process issues the workload's pool in the
order the seed fixes for about `--seconds`: whole passes over the pool,
the last one ending as near the deadline as possible, except for
orbit_sqrt2, whose queries are long explores and which stops after the
first explore that ends past the deadline.  Every output
is digested and compared with `reference.json`, and checked independently
once per query (see workloads.py).  The last line of stdout is a JSON
object: end-to-end metrics with `--trace 0`, per-layer metrics with
`--trace 1`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import operator
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import Patcher, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference.json"
TRACES = BENCH / "traces"
HARD_STOP_S = 150  # stop issuing queries here whatever the pass, to end within 180 s
SYMPY_PAIRS = 120
MICRO_REPEAT_S = 0.05  # each microkernel timing loops over its pairs for at least this long
MICRO_ROUNDS = 11      # timings per kernel, the kernels taking turns


# ---------------------------------------------------------------------------
# Set-up: import the program from the checkout and build the workload pool.
# ---------------------------------------------------------------------------


def program_on_path():
    src = ROOT / "src"
    if not (src / "delzant" / "__init__.py").is_file():
        sys.exit(f"error: {src}/delzant not found; run from a delzant checkout")
    sys.path.insert(0, str(src))


def setup(workload, pool):
    """Import the package afresh and build the pool; the median of several set-ups.

    Cheap set-ups (under a third of a second) run 9 times and the one slow set-up
    (ambient_monodromy, over a second) 3 times, so that the median is not one
    noisy import, and so that the count, and with it the garbage they leave
    for `peak_rss_mb`, is the same in every run.
    """
    times = []
    while len(times) < 3 or (len(times) < 9 and sum(times) < 3.0):
        for name in [m for m in sys.modules if m == "delzant" or m.startswith("delzant.")]:
            del sys.modules[name]
        start = time.perf_counter()
        lib = workloads.Lib()
        queries = workloads.build(workload, lib, pool, str(ROOT))
        times.append(time.perf_counter() - start)
    if Path(lib.delzant.__file__).resolve().parent != ROOT / "src" / "delzant":
        sys.exit(f"error: imported delzant from {lib.delzant.__file__}, not the checkout")
    return lib, queries, statistics.median(times)


# ---------------------------------------------------------------------------
# Output gate.
# ---------------------------------------------------------------------------


def digest(query, out):
    text = json.dumps(query.canon(out), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:32]


class Gate:
    """Compares outputs with the reference digests; runs each independent check once."""

    def __init__(self, reference):
        self.reference = reference
        self.checked = {}
        self.errors = []

    def verify(self, query, out, full=False):
        want = self.reference.get(query.key)
        if want is None:
            err = "no reference digest for this query"
        elif digest(query, out) != want:
            err = "output differs from the reference digest"
        else:
            if query.key not in self.checked:
                try:
                    self.checked[query.key] = query.check(out, full)
                except Exception as exc:  # a crashing check is a failed query
                    self.checked[query.key] = f"check raised {type(exc).__name__}: {exc}"
            err = self.checked[query.key]
        if err:
            self.fail(query, err)
        return err is None

    def fail(self, query, message):
        self.errors.append(f"{query.key}: {message}")


def attempt(gate, query, call):
    """Run one query; returns (seconds, output or None)."""
    start = time.perf_counter()
    try:
        out = call()
    except Exception as exc:
        elapsed = time.perf_counter() - start
        gate.fail(query, f"raised {type(exc).__name__}: {exc}")
        return elapsed, None
    return time.perf_counter() - start, out


# ---------------------------------------------------------------------------
# Timed run (tracing off).
# ---------------------------------------------------------------------------


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def timed_run(workload, queries, seconds, gate, setup_s):
    """Closed loop over the pool until `seconds` have passed.

    Latency percentiles are taken over every query issued; whole passes give
    every pool query the same weight.  Throughput is work done (orbit nodes
    for orbit_sqrt2, else queries) per second spent in queries.  Peak RSS is
    that of this process, or for cli_session the largest of the CLI
    processes' own peaks.
    """
    explores = workload == "orbit_sqrt2"
    latencies = []
    child_peak_kib = 0
    attempted = failed = units = 0
    start = time.perf_counter()
    deadline, hard_stop = start + seconds, start + HARD_STOP_S
    last_pass = 0.0
    # start another whole pass only if it ends nearer the deadline than stopping
    while time.perf_counter() + last_pass / 2 < deadline:
        pass_start = time.perf_counter()
        for query in queries:
            elapsed, out = attempt(gate, query, query.call)
            ok = out is not None and gate.verify(query, out)
            attempted += 1
            failed += not ok
            latencies.append(elapsed)
            if not explores:
                units += 1
            elif out is not None:
                units += len(out.nodes)
            if workload == "cli_session" and out is not None:
                child_peak_kib = max(child_peak_kib, out[2])
            now = time.perf_counter()
            if now >= hard_stop or (explores and now >= deadline):
                break
        if time.perf_counter() >= hard_stop:
            break
        last_pass = 0.0 if explores else time.perf_counter() - pass_start
    if workload == "cli_session":
        peak_kib = child_peak_kib
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": setup_s,
        "throughput_per_s": units / sum(latencies),
        "query_p50_ms": 1000 * statistics.median(latencies),
        "query_p90_ms": 1000 * percentile(latencies, 90),
        "peak_rss_mb": peak_kib / 1024,
    }
    return metrics, attempted, failed


# ---------------------------------------------------------------------------
# Traced run.
# ---------------------------------------------------------------------------


def write_spans(path, tracer, origin):
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        fh.write('{"fields": ["id", "name", "start_us", "end_us", "parent", "query"],\n "spans": [\n')
        for i, (sid, name, start, end, parent, qid) in enumerate(tracer.spans):
            sep = ",\n" if i else ""
            fh.write(f'{sep}[{sid},"{name}",{(start - origin) * 1e6:.1f},'
                     f'{(end - origin) * 1e6:.1f},{json.dumps(parent)},{json.dumps(qid)}]')
        fh.write("\n]}\n")


def trace_run(workload, lib, queries, gate, trace_path):
    """An untraced pass, then two traced passes whose counts must agree exactly."""
    batch = queries[:1] if workload == "orbit_sqrt2" else queries
    if workload == "cli_session":
        def call(q):
            return workloads.run_cli_inprocess(lib, q.argv)
    else:
        def call(q):
            return q.call()

    failed = 0
    start = time.perf_counter()
    untraced = [attempt(gate, q, lambda q=q: call(q)) for q in batch]
    untraced_s = time.perf_counter() - start
    for q, (_, out) in zip(batch, untraced):
        failed += not (out is not None and gate.verify(q, out, full=True))

    passes = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install(lib)
        origin = time.perf_counter()
        try:
            outs = [attempt(gate, q, lambda i=i, q=q: tracer.query(i, lambda: call(q)))[1]
                    for i, q in enumerate(batch)]
        finally:
            tracer.remove()
        wall = time.perf_counter() - origin
        for q, out in zip(batch, outs):
            failed += not (out is not None and gate.verify(q, out))
        passes.append((tracer, wall, origin))

    (t1, w1, _), (t2, w2, origin2) = passes
    c1, c2 = t1.deterministic_counts(), t2.deterministic_counts()
    deterministic = c1 == c2
    if not deterministic:
        diff = {k: (c1.get(k), c2.get(k)) for k in set(c1) | set(c2) if c1.get(k) != c2.get(k)}
        print(f"DETERMINISM FAILURE: counts differ between two traced passes: {diff}",
              file=sys.stderr)
    write_spans(trace_path, t2, origin2)

    m1, m2 = t1.layer_metrics(), t2.layer_metrics()
    metrics = {k: (m1[k] + m2[k]) / 2 if k.endswith("_s") else m2[k] for k in m2}
    traced_s = (w1 + w2) / 2
    metrics.update({
        "trace.queries": len(batch),
        "trace.spans": len(t2.spans),
        "trace.untraced_s": untraced_s,
        "trace.traced_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
    })
    metrics.update(cli_metrics(lib, batch, gate, untraced) if workload == "cli_session"
                   else {k: 0 for k in CLI_METRICS})
    micro, micro_ok = microkernels(lib)
    metrics.update(micro)
    if not micro_ok:
        gate.errors.append("scalar microkernel results disagree with sympy")
    return metrics, 3 * len(batch), failed, deterministic and micro_ok


CLI_METRICS = ("cli.interp_ms", "cli.import_ms", "cli.inprocess_ms", "cli.overhead_ms",
               "cli.stdout_bytes")


def cli_metrics(lib, batch, gate, inprocess):
    env = workloads.cli_env(str(ROOT))

    def spawn_ms(code):
        runs = []
        for _ in range(5):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                           capture_output=True, timeout=60)
            runs.append(1000 * (time.perf_counter() - start))
        return statistics.median(runs)

    interp = spawn_ms("pass")
    imported = spawn_ms("import delzant.cli")
    sub_ms, stdout_bytes = [], 0
    for q in batch:
        elapsed, out = attempt(gate, q, q.call)
        sub_ms.append(1000 * elapsed)
        if out is not None:
            gate.verify(q, out)
            stdout_bytes += len(out[1].encode())
    inproc_ms = statistics.median(1000 * s for s, _ in inprocess)
    return {
        "cli.interp_ms": interp,
        "cli.import_ms": imported - interp,
        "cli.inprocess_ms": inproc_ms,
        "cli.overhead_ms": statistics.median(sub_ms) - inproc_ms,
        "cli.stdout_bytes": stdout_bytes,
    }


# ---------------------------------------------------------------------------
# Scalar microkernels on harvested operands, cross-checked against sympy.
# ---------------------------------------------------------------------------

MICRO_OPS = {"add": ("__add__", operator.add), "mul": ("__mul__", operator.mul),
             "cmp": ("__lt__", operator.lt)}


def harvest(lib):
    """Operand pairs of ExactScalar add/mul/compare seen in two fixed runs.

    √2 operands come from a short explore of the density example, rational
    ones from short decisions on s2s2_monotone and cp2.
    """
    cls = lib.lattice.ExactScalar
    pairs = {(op, kind): {} for op in MICRO_OPS for kind in ("sqrt2", "q")}
    kind_wanted = []

    def wrap(op, fn):
        def wrapper(a, b):
            if not isinstance(b, cls):
                b = cls.of(b)
            kind = "sqrt2" if 2 in (a.D, b.D) else "q"
            if kind == kind_wanted[0]:
                pairs[op, kind].setdefault((a.rat, a.quad, a.D, b.rat, b.quad, b.D), (a, b))
            return fn(a, b)
        return wrapper

    patcher = Patcher()
    for op, (attr, _) in MICRO_OPS.items():
        patcher.patch(cls, attr, wrap(op, cls.__dict__[attr]))
    try:
        kind_wanted.append("sqrt2")
        root = (lib.lattice.scalar(1), lib.lattice.scalar(2), lib.lattice.scalar(1, 1, 2))
        lib.orbit.explore(lib.presets["cn(3)"], root, lib.orbit.OrbitParams(
            max_norm=1, max_points=40, window=workloads.ORBIT_WINDOW))
        kind_wanted[0] = "q"
        params = lib.orbit.OrbitParams(max_norm=2, max_points=60)
        F = workloads.F
        for name, x, y in (("s2s2_monotone", (F(1, 5), F(1, 2)), (F(-1, 2), F(1, 5))),
                           ("cp2", (F(-1, 2), F(-1, 5)), (F(7, 10), F(-1, 5))),
                           ("cp2", (F(-1, 2), F(-1, 5)), (F(-1, 2), F(1, 10)))):
            lib.orbit.decide(lib.presets[name], x, y, params)
    finally:
        patcher.remove()
    return {key: list(bucket.values()) for key, bucket in pairs.items()}


def microkernels(lib):
    """Per-operation ns of each harvested kernel, and whether sympy agrees.

    Each timing loops over the kernel's pairs for MICRO_REPEAT_S or more (the
    loop count found as timeit's autorange finds it).  The kernels take turns
    for MICRO_ROUNDS rounds, so that each one's best timing is drawn from
    windows spread over the whole measurement.
    """
    import sympy

    def sym(s):
        return sympy.Rational(s.rat.numerator, s.rat.denominator) + sympy.Rational(
            s.quad.numerator, s.quad.denominator) * sympy.sqrt(s.D)

    def timing(fn, pairs, loops):
        start = time.perf_counter_ns()
        for _ in range(loops):
            for a, b in pairs:
                fn(a, b)
        return (time.perf_counter_ns() - start) / (loops * len(pairs))

    kernels = {f"lattice.scalar_{op}_ns.{kind}": (MICRO_OPS[op][1], pairs)
               for (op, kind), pairs in harvest(lib).items()}
    ok = all(pairs for _, pairs in kernels.values())
    if not ok:
        return dict.fromkeys(kernels, 0.0), False
    best = dict.fromkeys(kernels, float("inf"))
    gc.disable()  # as timeit does: collections would time the heap, not the op
    try:
        loops = {}
        for name, (fn, pairs) in kernels.items():
            n = 1
            while timing(fn, pairs, n) * n * len(pairs) < MICRO_REPEAT_S * 1e9:
                n *= 2
            loops[name] = n
        for _ in range(MICRO_ROUNDS):
            for name, (fn, pairs) in kernels.items():
                best[name] = min(best[name], timing(fn, pairs, loops[name]))
    finally:
        gc.enable()
    for fn, pairs in kernels.values():
        step = max(1, len(pairs) // SYMPY_PAIRS)
        for a, b in pairs[::step]:
            got = fn(a, b)
            if fn is operator.lt:
                ok &= got == bool((sym(a) - sym(b)).is_negative)
            else:
                ok &= sympy.expand(sym(got) - fn(sym(a), sym(b))) == 0
    return best, ok


# ---------------------------------------------------------------------------
# Entry points.
# ---------------------------------------------------------------------------


def metric_units(trace):
    """Metric name -> unit, as BENCHMARK.json declares them for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def load_reference(pool, workload):
    if not REFERENCE.is_file():
        return {}
    return json.loads(REFERENCE.read_text()).get(pool, {}).get(workload, {})


def run_one(args):
    program_on_path()
    lib, queries, setup_s = setup(args.workload, args.pool)
    random.Random(args.seed).shuffle(queries)
    gate = Gate(load_reference(args.pool, args.workload))
    # The harness's own objects (pool, graphs, reference digests) would make
    # every full collection inside a query slower; keep them out of the GC.
    gc.collect()
    gc.freeze()
    if args.trace:
        trace_path = TRACES / f"{args.workload}-{args.pool}-seed{args.seed}.json"
        metrics, attempted, failed, steady = trace_run(args.workload, lib, queries, gate, trace_path)
    else:
        metrics, attempted, failed = timed_run(args.workload, queries, args.seconds, gate, setup_s)
        steady = True
    units = metric_units(args.trace)
    if set(metrics) != set(units):
        sys.exit(f"error: metrics {sorted(set(metrics) ^ set(units))} are not both measured"
                 " and declared in BENCHMARK.json")
    for err in gate.errors[:20]:
        print(f"FAILED {err}", file=sys.stderr)
    correct = steady and not gate.errors
    print(f"# {args.workload} pool={args.pool} seed={args.seed} trace={args.trace}:"
          f" {attempted} queries, failed_ratio {failed / max(attempted, 1):.4f}")
    for name, value in metrics.items():
        print(f"#   {name:36s} {value:14.6g} {units[name]}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args):
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--pool", args.pool],
            capture_output=True, text=True, timeout=600,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode not in (0, 1) or not lines:
            sys.exit(f"error: workload {workload} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def write_reference():
    """Record the digest of every pool query after its full independent check."""
    program_on_path()
    reference = {}
    for pool in workloads.POOL_SEEDS:
        for workload in workloads.WORKLOADS:
            lib, queries, _ = setup(workload, pool)
            gate = Gate({})
            table = {}
            for q in queries:
                _, out = attempt(gate, q, q.call)
                if out is None:
                    continue
                err = q.check(out, True)
                if err:
                    gate.fail(q, err)
                table[q.key] = digest(q, out)
            if gate.errors or len(table) != len(queries):
                sys.exit("error: not writing a reference:\n" + "\n".join(gate.errors))
            reference.setdefault(pool, {})[workload] = table
            print(f"{pool} {workload}: {len(table)} queries", file=sys.stderr)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pool", choices=tuple(workloads.POOL_SEEDS), default="tune",
                        help="query pool; 'holdout' is kept out of tuning, for claim checks")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()
    if args.write_reference:
        write_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
