"""The benchmark's own checks: wrapper coverage, determinism, output contract.

Run from the root of a checkout (about a minute on 2 cores):

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from spans import WRAPS, Tracer

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# Wrappers (and "/pass" one-row pass-throughs) each workload is meant to exercise.
EXPECTED = {
    "grid-refine": [
        "bikoeff.cli.main", "bikoeff.cli.parse_spec", "bikoeff.cli.max_coeff",
        "bikoeff.cli.check_a5_system", "bikoeff.cli.class_bounds",
        "bikoeff.oracle.class_bounds", "bikoeff.oracle.st_rho_a5", "bikoeff.oracle.ss_beta_a5",
        "bikoeff.caratheodory.MeasureSampler.moments", "bikoeff.oracle.admissible_mask",
        "bikoeff.oracle.solve_fast", "bikoeff.oracle.solve_fast/pass",
        "bikoeff.oracle.implied_q_fast", "bikoeff.oracle.implied_q_fast/pass",
        "bikoeff.oracle.a5_chain", "bikoeff.oracle.a5_chain/pass",
        "bikoeff.oracle.minimize", "bikoeff.oracle.smallest_eigenvalue",
        "numpy.linalg.eigvalsh", "numpy.linalg.eigvalsh/pass",
    ],
    "scan-bulk": [
        "bikoeff.cli.main", "bikoeff.cli.parse_spec", "bikoeff.cli.max_coeff",
        "bikoeff.cli.check_a5_system", "bikoeff.oracle.class_bounds",
        "bikoeff.oracle.st_rho_a5", "bikoeff.oracle.ss_beta_a5",
        "bikoeff.caratheodory.MeasureSampler.moments", "bikoeff.oracle.admissible_mask",
        "bikoeff.oracle.solve_fast", "bikoeff.oracle.implied_q_fast", "bikoeff.oracle.a5_chain",
        "numpy.linalg.eigvalsh/pass",
    ],
    "exact-route": [
        "bikoeff.classes.parse_spec", "bikoeff.classes.solve_coefficients",
        "bikoeff.classes.implied_q", "bikoeff.classes.apply_operator",
        "bikoeff.cli.apply_operator", "bikoeff.classes.compose", "bikoeff.classes.revert",
        "bikoeff.cli.revert", "bikoeff.cli.main", "bikoeff.cli.parse_spec",
        "bikoeff.cli.class_bounds", "bikoeff.cli.st_rho_a5", "bikoeff.cli.ss_beta_a5",
        "bikoeff.bounds.class_bounds", "bikoeff.caratheodory.smallest_eigenvalue",
        "bikoeff.oracle.solve_fast/pass", "bikoeff.oracle.implied_q_fast/pass",
        "bikoeff.oracle.a5_chain/pass", "numpy.linalg.eigvalsh",
    ],
}
# Layers a workload bypasses: their wrappers must not fire there.
BYPASSED = {
    "scan-bulk": ["bikoeff.oracle.minimize", "numpy.linalg.eigvalsh"],
    "exact-route": ["bikoeff.oracle.minimize", "bikoeff.caratheodory.MeasureSampler.moments",
                    "bikoeff.oracle.admissible_mask"],
}


def _subset(workload, seed):
    ops = workloads.WORKLOADS[workload](seed, 0)
    if workload == "grid-refine":  # the criterion-5 floor row, one order a5 and one strong a5
        return [ops[0], ops[54], ops[57]]
    if workload == "scan-bulk":  # a2 on an order and a janowski class, both a5 ops
        return [ops[0], ops[3], ops[12], ops[13]]
    return ops


def traced_pass(workload, seed):
    with Tracer() as tracer:
        p = run.run_pass(_subset(workload, seed), tracer, 0)
    p.span_end, p.counts = len(tracer.start), dict(tracer.counts)
    return p, run.per_layer(tracer, [p]), tracer


@pytest.fixture(scope="module", params=list(workloads.WORKLOADS))
def twice(request):
    return request.param, traced_pass(request.param, 5), traced_pass(request.param, 5)


def test_every_wrapper_belongs_to_a_workload():
    targets = {t for t, _, _ in WRAPS}
    expected = {k.removesuffix("/pass") for keys in EXPECTED.values() for k in keys}
    assert targets == expected


def test_wrappers_fire_where_expected(twice):
    workload, (p, _, tracer), _ = twice
    assert p.failed == 0
    missing = [k for k in EXPECTED[workload] if tracer.fired[k] == 0]
    assert not missing, f"{workload}: wrappers that never fired: {missing}"
    fired = [k for k in BYPASSED.get(workload, []) if tracer.fired[k]]
    assert not fired, f"{workload}: bypassed layers were called: {fired}"


def test_counts_and_tightness_repeat_at_one_seed(twice):
    workload, (p1, m1, _), (p2, m2, _) = twice
    counts = {k for k, (_, unit) in m1.items() if unit in ("count", "ratio")}
    assert {k: m1[k][0] for k in counts} == {k: m2[k][0] for k in counts}
    assert p1.tightness == p2.tightness and p1.tightness


def test_largest_self_time(twice):
    workload, (_, metrics, _), _ = twice
    times = {k: v for k, (v, unit) in metrics.items() if unit == "s" and not k.startswith("trace.")}
    layers = run.layer_self_times(metrics)
    if workload == "grid-refine":
        assert max(times, key=times.get) == "oracle.refine_s"
    elif workload == "scan-bulk":
        bulk = times["caratheodory.psd_bulk_s"] + times["caratheodory.sample_s"]
        assert bulk > max(v for k, v in layers.items() if k != "caratheodory")
    else:
        routes = layers["series"] + layers["classes"]
        assert routes > max(v for k, v in layers.items() if k not in ("series", "classes"))


def _run(args, cwd=run.ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_output_contract(trace):
    result = _result(_run(["--workload", "exact-route", "--seed", "2", "--seconds", "0",
                           "--trace", str(trace)]))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == \
        {k: v["unit"] for k, v in result["metrics"].items()}


def test_traced_counts_repeat_across_processes():
    args = ["--workload", "exact-route", "--seed", "4", "--seconds", "0", "--trace", "1"]
    first, second = _result(_run(args)), _result(_run(args))
    counts = [m["name"] for m in BENCHMARK["per_layer"] if m["unit"] in ("count", "ratio")]
    assert [first["metrics"][k] for k in counts] == [second["metrics"][k] for k in counts]


def test_fails_without_the_program():
    stripped = run.OUT / "stripped"
    shutil.rmtree(stripped, ignore_errors=True)
    shutil.copytree(run.HERE, stripped / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(run.ROOT / "BENCHMARK.json", stripped)
    try:
        proc = _run(["--workload", "scan-bulk", "--seed", "0", "--seconds", "1", "--trace", "0"],
                    cwd=stripped)
    finally:
        shutil.rmtree(stripped)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
