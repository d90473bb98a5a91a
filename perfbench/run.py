#!/usr/bin/env python3
"""teichpong benchmark: one closed-loop client, one process, one thread.

    python3 perfbench/run.py --workload certify_families --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 35 [--trace 1]

A run makes its inputs from --seed, runs whole cycles of the workload's
operations for --seconds, checks every output and prints, as its last line,
one JSON object with the keys correct, attempted, failed and metrics.

--trace 0 reports the gated end-to-end metrics (setup_s, op_ms_p50,
ops_per_s), measured untraced; the lines before it give the workload's own
named metrics with units and sample counts, the known-defect probes and the
environment.  --trace 1 runs a fixed number of cycles twice, each in a
fresh interpreter: once untraced and once with every public function of
the package wrapped in spans, and reports the per-layer metrics, including
trace.overhead_frac.  --all runs every workload, one child process each.

Everything the benchmark writes stays under the checkout: work directories
in .perfbench-work (removed at the end), span files in .perfbench-out.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
TRACE_OUT = ROOT / ".perfbench-out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
#: set-ups timed per run; setup_s is their median
SETUP_REPS = 9
END_TO_END_UNITS = {"setup_s": "s", "op_ms_p50": "ms", "ops_per_s": "1/s"}


def pin_environment():
    """Pin numpy's thread pools, point imports at src and write no bytecode.

    Without bytecode files every process compiles teichpong alike, and
    nothing is written outside the checkout.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = str(SRC)
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))


def environment(seed):
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ[v] for v in THREAD_VARS}, "seed": seed,
            "client": "closed loop, 1 process, 1 thread"}


def measure_setup(code, cwd):
    """Median time from interpreter start to 'ready' after ``code`` ran."""
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code + "\nprint('ready', flush=True)"],
                              cwd=cwd, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if line.strip() != b"ready" or proc.returncode:
            raise RuntimeError(f"set-up child failed: {code!r}")
        times.append(elapsed)
    return statistics.median(times)


def metric_line(name, value, unit, n):
    print(f"metric {name} = {value:.6g} {unit} (n={n})")


def report_failures(records, limit=5):
    for rec in [r for r in records if not r["ok"]][:limit]:
        print(f"failure {rec['kind']}: {rec['error']}")


def end_to_end(workload, args, ctx, workdir):
    import workloads
    setup_s = measure_setup(workload.setup_code, workdir)
    t0 = time.perf_counter()
    records, cycles = workloads.run_cycles(workload, args.seed, ctx, seconds=args.seconds)
    wall = time.perf_counter() - t0
    probe_ops = workload.probes(args.seed)
    probes = [workloads.execute(workload, op, ctx, -1) for op in probe_ops]

    ok = [r["seconds"] for r in records if r["ok"]]
    busy = sum(r["seconds"] for r in records)
    failed = len(records) - len(ok)
    metrics = {"setup_s": setup_s,
               "op_ms_p50": 1000 * statistics.median(ok) if ok else 0.0,
               "ops_per_s": len(ok) / busy if busy else 0.0}
    print(f"workload {workload.name} seed {args.seed}: {cycles} cycles, "
          f"{len(records)} operations in {wall:.2f} s")
    print("env " + json.dumps(environment(args.seed)))
    print("slices " + json.dumps(workload.shares()))
    metric_line("setup_s", setup_s, "s", SETUP_REPS)
    for name in ("op_ms_p50", "ops_per_s"):
        metric_line(name, metrics[name], END_TO_END_UNITS[name], len(ok))
    metric_line("failed_frac", failed / len(records), "frac", len(records))
    for name, value, unit, n in workload.named(records):
        metric_line(name, value, unit, n)
    if probes:
        print(f"known defects: {workload.probe_why}")
    for op, rec in zip(probe_ops, probes):
        print(f"probe {op.kind}: " + ("ok" if rec["ok"] else f"FAILED {rec['error']}"))
    report_failures(records)
    return {"correct": failed == 0, "attempted": len(records), "failed": failed,
            "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}}


def one_pass(workload, args, ctx):
    """A fixed number of cycles, untraced or traced; prints one JSON line."""
    import tracer as tracing
    import workloads
    if args.pass_ == "traced":
        ctx.tracer = tracing.Tracer()
        tracing.install(ctx.tracer, ctx.tp)
    records, _ = workloads.run_cycles(workload, args.seed, ctx, cycles=workload.trace_cycles,
                                      recheck_every=0)
    out = {"wall": sum(r["seconds"] for r in records), "attempted": len(records),
           "failed": sum(not r["ok"] for r in records),
           "errors": [r["error"] for r in records if not r["ok"]][:5]}
    if ctx.tracer is not None:
        TRACE_OUT.mkdir(exist_ok=True)
        spans = TRACE_OUT / f"{workload.name}.jsonl"
        ctx.tracer.write_spans(spans)
        out.update(metrics=ctx.tracer.metrics(), spans_file=str(spans.relative_to(ROOT)))
    print(json.dumps(out))


def traced(workload, args):
    """Untraced and traced passes over the same cycles, each in a fresh interpreter."""
    import tracer as tracing
    passes = {}
    for mode in ("plain", "traced"):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload.name,
               "--seed", str(args.seed), "--pass", mode]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
        if proc.returncode:
            raise RuntimeError(f"{mode} pass failed:\n{proc.stderr[-2000:]}")
        passes[mode] = json.loads(proc.stdout.splitlines()[-1])
    plain, traced_pass = passes["plain"], passes["traced"]
    metrics = dict(traced_pass["metrics"])
    metrics["trace.overhead_frac"] = traced_pass["wall"] / plain["wall"] - 1.0
    units = {name: unit for name, unit, _, _ in tracing.LAYER_TABLE}
    print(f"workload {workload.name} seed {args.seed}: {workload.trace_cycles} cycles, "
          f"{plain['attempted']} operations per pass; untraced {plain['wall']:.3f} s, "
          f"traced {traced_pass['wall']:.3f} s; spans in {traced_pass['spans_file']}")
    print("env " + json.dumps(environment(args.seed)))
    for name, _, _, moves in tracing.LAYER_TABLE:
        print(f"layer {name} = {metrics[name]:.6g} {units[name]} -> {moves}")
    for err in plain["errors"] + traced_pass["errors"]:
        print(f"failure {err}")
    failed = plain["failed"] + traced_pass["failed"]
    return {"correct": failed == 0, "attempted": plain["attempted"] + traced_pass["attempted"],
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def run_all(args):
    """Every workload in its own child process; the children's output, then a summary."""
    import workloads
    summary = []
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        if proc.returncode:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        summary += [f"{name:20s} {line.split(' ', 1)[1]}" for line in proc.stdout.splitlines()
                    if line.startswith(("metric ", "layer "))]
    print("\nsummary")
    print("\n".join(summary))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pass", dest="pass_", choices=("plain", "traced"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "teichpong" / "__init__.py").is_file():
        print(f"error: no teichpong sources under {SRC}", file=sys.stderr)
        return 2
    pin_environment()
    import workloads
    if args.all:
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    if args.trace and not args.pass_:
        result = traced(workload, args)
    else:
        import teichpong
        import teichpong.cli  # noqa: F401  (loads every module, serialize included)
        WORK.mkdir(parents=True, exist_ok=True)
        workdir = Path(tempfile.mkdtemp(dir=WORK))
        ctx = workloads.Context(teichpong, workdir)
        os.chdir(workdir)
        try:
            if args.pass_:
                one_pass(workload, args, ctx)
                return 0
            result = end_to_end(workload, args, ctx, workdir)
        finally:
            os.chdir(ROOT)
            shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
