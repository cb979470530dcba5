#!/usr/bin/env python3
"""bikoeff benchmark: one workload per fresh process, outputs checked, metrics printed.

Usage (from the root of a checkout):

    python3 bench/run.py --workload grid-refine --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30 --trace 1

A run measures set-up in child processes, then repeats whole passes of the
workload's ops until the next pass would overrun ``--seconds`` (at least one
pass).  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` installs
the span wrappers of ``spans.py`` and prints the per-layer metrics instead.
The last line of standard output is one JSON object; everything else goes
to ``.bench_out/`` and the lines above it.  See ``bench/README.md``.
"""

from __future__ import annotations

import os

# single-process, single-threaded BLAS unless the caller says otherwise
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402  (imports bikoeff from ./src, or fails)
from spans import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 900


@dataclass
class Pass:
    wall: float
    latencies: list
    failed: int
    tuples: int
    tightness: dict
    span_end: int = 0
    counts: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Running a workload
# ---------------------------------------------------------------------------


def run_pass(ops, tracer, first_op_id):
    latencies, failed, tightness = [], 0, {}
    start = time.perf_counter()
    for j, op in enumerate(ops):
        if tracer:
            tracer.op_id = first_op_id + j
        t0 = time.perf_counter()
        try:
            result = op.call()
            latencies.append(time.perf_counter() - t0)
            errors, rows = op.check(result)
        except Exception:  # an op that raises counts as failed; the run goes on
            latencies.append(time.perf_counter() - t0)
            errors, rows = [traceback.format_exc(limit=3)], {}
        if errors:
            failed += 1
            print(f"FAILED {op.label}: {'; '.join(errors)}", file=sys.stderr)
        for key, value in rows.items():
            tightness[key] = max(tightness.get(key, 0.0), value)
    wall = time.perf_counter() - start
    return Pass(wall, latencies, failed, sum(op.tuples for op in ops), tightness)


def run_workload(name, seed, seconds, tracer=None):
    build = workloads.WORKLOADS[name]
    passes = []
    begin = time.perf_counter()
    op_id = 0
    while True:
        ops = build(seed, len(passes))
        p = run_pass(ops, tracer, op_id)
        op_id += len(ops)
        if tracer:
            p.span_end = len(tracer.start)
            p.counts = dict(tracer.counts)
        passes.append(p)
        elapsed = time.perf_counter() - begin
        if elapsed + statistics.median(q.wall for q in passes) > seconds:
            return passes


def measure_setup(workload):
    """Median time from spawning a fresh process to its first op being ready."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload],
            stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
        times.append(t1 - t0)
    return statistics.median(times), times


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def tail(latencies):
    """Latency at the highest percentile that leaves at least 10 ops above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(n - 10, 1)  # 1-based rank; with 10 ops or fewer this is the minimum
    return ordered[k - 1], 100.0 * k / n, n


def end_to_end(passes, setup_s):
    latencies = [x for p in passes for x in p.latencies]
    tail_s, tail_pct, n_ops = tail(latencies)
    tight = list(passes[0].tightness.values())
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(p.wall for p in passes), "s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "op_tail_s": (tail_s, "s"),
        "tuples_per_s": (sum(p.tuples for p in passes) / sum(p.wall for p in passes), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "tightness_mean": (statistics.fmean(tight) if tight else 0.0, "ratio"),
        "tightness_min": (min(tight) if tight else 0.0, "ratio"),
    }
    notes = {"op_tail_percentile": tail_pct, "op_count": n_ops, "passes": len(passes),
             "tightness_rows": len(tight)}
    return metrics, notes


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(tracer, passes):
    """Counts and ratios describe pass 0, so they repeat exactly at a seed; times are means per pass."""
    n = len(passes)
    self_s, _, covered = tracer.self_times()
    _, calls0, _ = tracer.self_times(passes[0].span_end)
    c0 = passes[0].counts
    total = tracer.counts

    def s(*names):
        return sum(self_s.get(x, 0.0) for x in names) / n

    metrics = {
        "caratheodory.sample_s": (s("caratheodory.sample"), "s"),
        "caratheodory.samples": (c0.get("caratheodory.samples", 0), "count"),
        "caratheodory.psd_bulk_s": (s("caratheodory.psd_bulk"), "s"),
        "caratheodory.psd_rows": (c0.get("caratheodory.psd_rows", 0), "count"),
        "caratheodory.feasible_ratio": (_ratio(c0.get("caratheodory.feasible_rows", 0),
                                               c0.get("caratheodory.psd_rows", 0)), "ratio"),
        "caratheodory.psd_single_calls": (c0.get("caratheodory.psd_single_calls", 0), "count"),
        "caratheodory.psd_single_s": (s("caratheodory.psd_single"), "s"),
        "oracle.solve_bulk_s": (s("oracle.solve_bulk"), "s"),
        "oracle.implied_q_bulk_s": (s("oracle.implied_q_bulk"), "s"),
        "oracle.refine_s": (s("oracle.refine"), "s"),
        "oracle.refine_calls": (c0.get("oracle.refine_calls", 0), "count"),
        "oracle.refine_nfev": (c0.get("oracle.refine_nfev", 0), "count"),
        "oracle.refine_eval_us": (1e6 * _ratio(s("oracle.refine") * n,
                                               total.get("oracle.refine_nfev", 0)), "us"),
        "oracle.refine_success_ratio": (_ratio(c0.get("oracle.refine_success", 0),
                                               c0.get("oracle.refine_calls", 0)), "ratio"),
        "oracle.refine_win_ratio": (_ratio(c0.get("oracle.refine_wins", 0),
                                           c0.get("oracle.refined_reports", 0)), "ratio"),
        "oracle.search_self_s": (s("oracle.search"), "s"),
        "bounds.calls": (calls0.get("bounds", 0), "count"),
        "bounds.s": (s("bounds"), "s"),
        "classes.parse_s": (s("classes.parse"), "s"),
        "classes.solve_exact_s": (s("classes.solve_exact"), "s"),
        "classes.implied_q_exact_s": (s("classes.implied_q_exact"), "s"),
        "classes.apply_operator_calls": (calls0.get("classes.apply_operator", 0), "count"),
        "classes.apply_operator_s": (s("classes.apply_operator"), "s"),
        "series.compose_calls": (calls0.get("series.compose", 0), "count"),
        "series.compose_s": (s("series.compose"), "s"),
        "series.revert_s": (s("series.revert"), "s"),
        "cli.calls": (calls0.get("cli.main", 0), "count"),
        "cli.self_s": (s("cli.main"), "s"),
        "other.self_s": ((sum(p.wall for p in passes) - covered) / n, "s"),
        "trace.wall_s": (statistics.median(p.wall for p in passes), "s"),
        "trace.spans": (passes[0].span_end, "count"),
    }
    return metrics


LAYERS = ("series", "classes", "caratheodory", "bounds", "oracle", "cli", "other")


def layer_self_times(metrics):
    """Self time per module, from the per-layer *_s metrics (excluding trace.*)."""
    out = dict.fromkeys(LAYERS, 0.0)
    for name, (value, unit) in metrics.items():
        layer = name.split(".")[0]
        if unit == "s" and layer in out:
            out[layer] += value
    return out


# ---------------------------------------------------------------------------
# Environment and output
# ---------------------------------------------------------------------------


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment():
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    versions = {}
    for pkg in ("numpy", "scipy", "sympy"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = "missing"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **versions,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {v: os.environ.get(v, "") for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": git_commit(),
        "machine": platform.machine(),
    }


def print_metrics(metrics):
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")


def run_one(args):
    setup_s, setup_all = measure_setup(args.workload)
    workloads.warm_up(args.workload)
    tracer = Tracer().install() if args.trace else None
    try:
        passes = run_workload(args.workload, args.seed, args.seconds, tracer)
    finally:
        if tracer:
            tracer.uninstall()
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(p.failed for p in passes)
    e2e, notes = end_to_end(passes, setup_s)
    env = environment()
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("environment " + json.dumps(env))
    print(f"passes {notes['passes']}  ops {attempted}  failed {failed}  "
          f"error_rate {failed / attempted:.6g}  setup runs {[round(t, 4) for t in setup_all]}")
    print(f"op_tail_s is p{notes['op_tail_percentile']:.1f} of {notes['op_count']} ops; "
          f"tightness over {notes['tightness_rows']} rows of pass 0")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "attempted": attempted,
              "failed": failed, "notes": notes,
              "end_to_end": {k: v for k, (v, _) in e2e.items()}}
    if args.trace:
        metrics = per_layer(tracer, passes)
        layers = layer_self_times(metrics)
        np.savez(OUT / f"{stem}.spans.npz", **tracer.arrays())
        print("per-layer metrics (times are self times, mean per pass):")
        print_metrics(metrics)
        ranked = sorted(layers.items(), key=lambda kv: -kv[1])
        print("self time by module: " + ", ".join(f"{k} {v:.4g} s" for k, v in ranked))
        untraced = OUT / f"{stem}-trace0.json"
        if untraced.exists():
            base = json.loads(untraced.read_text())["end_to_end"]["wall_s"]
            overhead = metrics["trace.wall_s"][0] - base
            record["trace_overhead_s"] = overhead
            print(f"tracing overhead: traced wall_s {metrics['trace.wall_s'][0]:.4g} s - "
                  f"untraced wall_s {base:.4g} s = {overhead:.4g} s ({100 * overhead / base:.1f}%)")
        else:
            print(f"tracing overhead: no untraced run of {stem} in {OUT.name}/ to compare with")
        record["per_layer"] = {k: v for k, (v, _) in metrics.items()}
        record["layer_self_s"] = layers
        record["fired"] = dict(tracer.fired)
    else:
        metrics = e2e
        print("end-to-end metrics:")
        print_metrics(metrics)
    (OUT / f"{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args):
    """Each workload in its own fresh process; with --trace 1, untraced then traced."""
    results = {}
    for name in workloads.WORKLOADS:
        for trace in ((0, 1) if args.trace else (0,)):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                   str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
            lines = proc.stdout.rstrip("\n").split("\n")
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0:
                print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
                return 1
            results[f"{name}/trace{trace}"] = json.loads(lines[-1])
            print()
    print(json.dumps(results))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        workloads.warm_up(args.workload)
        print("ready", flush=True)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
