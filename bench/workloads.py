"""The benchmark's workloads: the ops each pass runs, and the checks on their outputs.

An op is one call into bikoeff's public entry points: an in-process
``bikoeff.cli.main([...])`` call, or the exact series route in
``bikoeff.classes``.  Its latency covers that call only; the output check
that follows counts towards the pass's wall time but not the op's latency.

Every input comes from the benchmark seed and the pass index, so the same
seed gives the same ops; each pass has fresh inputs, so nothing a pass
computes can be reused by the next.
"""

from __future__ import annotations

import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import bikoeff  # noqa: E402

if not Path(bikoeff.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"bikoeff was imported from {bikoeff.__file__}, not from {SRC}")

from bikoeff import bounds, caratheodory, classes, cli, oracle  # noqa: E402

TOL_VIOLATION = 1e-8  # the CLI's default --tol-violation
TOL_FEASIBLE = 1e-9  # caratheodory's default admissibility tolerance
EXACT_REL_TOL = 1e-9
CRITERION5_FLOOR = ("st:lambda=0:order:rho=0", "a2", 1.35)
ROW_FIELDS = ("coefficient", "bound", "branch", "route", "variant",
              "oracle_best", "slack", "violated", "proven")

# criterion 5 and 6 of tests/test_acceptance.py
GRID_FLAGS = ["--samples", "10000", "--refine-top", "2", "--refine-steps", "60"]
GRID_A5_FLAGS = ["--samples", "20000", "--refine-top", "2", "--refine-steps", "60"]
GRID_LAMBDAS = ("0", "1/2", "1")
GRID_RHOS = ("0", "1/4", "1/2")
GRID_BETAS = ("1/2", "3/4", "1")

SCAN_SAMPLES = 150_000
SCAN_FLAGS = ["--samples", str(SCAN_SAMPLES), "--refine-top", "0"]
# both operators, all four generator families
SCAN_CLASSES = (
    "st:lambda=0:order:rho=1/4",
    "m:lambda=1/2:janowski:A=1/2,B=-1/2",
    "m:lambda=1:strong:beta=1/2",
    "st:lambda=1/2:custom:B1=1,B2=1/2,B3=1/4",
)
SCAN_A5_CLASSES = ("st:lambda=0:order:rho=1/4", "ss:beta=3/4")

# rational generators only, so the series route stays in Fraction arithmetic
EXACT_CLASSES = (
    "st:lambda=0:order:rho=1/4",
    "m:lambda=1/2:order:rho=0",
    "st:lambda=1/2:janowski:A=1/2,B=-1/2",
    "m:lambda=1:janowski:A=1,B=0",
    "st:lambda=1/4:custom:B1=1,B2=1/2,B3=1/4",
    "m:lambda=0:custom:B1=3/2,B2=1,B3=1/2",
)
EXACT_RANDOM_PER_CLASS = 8  # per class and per tuple length m = 3, 4
PROBE_COSINES = tuple(Fraction(k, 4) for k in range(-4, 5))
PROBE_WEIGHTS = (Fraction(1, 3), Fraction(2, 3))
EXACT_CLI_OPS = (
    ["expand", "st:lambda=1/2:order:rho=0", "--what", "inverse", "--order", "4"],
    ["expand", "m:lambda=1:janowski:A=1,B=0", "--what", "operator", "--order", "3"],
    ["sweep", "st:lambda=0:order:rho={}", "--param", "rho", "--range", "0:0.5:11",
     "--coeffs", "a2,a3,a4,a5"],
    ["sweep", "ss:beta={}", "--param", "beta", "--range", "0.5:1:11", "--coeffs", "a5"],
)


@dataclass
class Op:
    """One call into bikoeff plus the check of its output.

    ``check(result)`` returns (errors, tightness) where tightness maps a
    (spec, coefficient) row to |a_n| found / closed-form bound.
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object], tuple]
    tuples: int = 0  # coefficient tuples requested from the class system


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# Oracle workloads: one `bikoeff verify` call per (class, target) pair
# ---------------------------------------------------------------------------


def _check_verify(spec, target, floor=None):
    def check(result):
        code, out, err = result
        if code != 0:
            return [f"exit code {code}: {err.strip()[:300]}"], {}
        rows = json.loads(out)["rows"]
        errors, tightness = [], {}
        if not rows or any(r.get("coefficient") != target for r in rows):
            errors.append(f"expected {target} rows, got {[r.get('coefficient') for r in rows]}")
        for row in rows:
            missing = [k for k in ROW_FIELDS if k not in row]
            if missing:
                errors.append(f"row missing {missing}")
                continue
            if not row["proven"]:
                continue
            if row["oracle_best"] > row["bound"] + TOL_VIOLATION:
                errors.append(f"proven bound exceeded: {row['oracle_best']} > {row['bound']}")
            tightness[(spec, target)] = row["oracle_best"] / row["bound"]
            if floor is not None and row["oracle_best"] < floor:
                errors.append(f"oracle_best {row['oracle_best']} below the floor {floor}")
        if (spec, target) not in tightness and not errors:
            errors.append("no proven row")
        return errors, tightness

    return check


def _verify_op(spec, target, flags, seed, samples, floor=None):
    argv = ["verify", spec, "--target", target, *flags, "--seed", str(seed), "--format", "json"]
    return Op(f"verify {spec} {target}", lambda: run_cli(argv),
              _check_verify(spec, target, floor), tuples=samples)


def _oracle_seeds(workload, seed, pass_index):
    """One oracle seed per op.

    Ops that shared one seed would share their samples, and with them how
    long refinement runs, so a pass's time would swing with the seed.
    """
    rng = random.Random(f"{workload}:{seed}:{pass_index}")
    return iter(lambda: rng.randrange(2**31), None)


def grid_refine(seed, pass_index):
    seeds = _oracle_seeds("grid-refine", seed, pass_index)
    ops = []
    for op in ("st", "m"):
        for lam in GRID_LAMBDAS:
            for rho in GRID_RHOS:
                spec = f"{op}:lambda={lam}:order:rho={rho}"
                for target in ("a2", "a3", "a4"):
                    floor = CRITERION5_FLOOR[2] if (spec, target) == CRITERION5_FLOOR[:2] else None
                    ops.append(_verify_op(spec, target, GRID_FLAGS, next(seeds), 10_000, floor))
    a5_specs = [f"st:lambda=0:order:rho={rho}" for rho in GRID_RHOS]
    a5_specs += [f"ss:beta={beta}" for beta in GRID_BETAS]
    ops += [_verify_op(spec, "a5", GRID_A5_FLAGS, next(seeds), 20_000) for spec in a5_specs]
    return ops


def scan_bulk(seed, pass_index):
    seeds = _oracle_seeds("scan-bulk", seed, pass_index)
    ops = [_verify_op(spec, target, SCAN_FLAGS, next(seeds), SCAN_SAMPLES)
           for spec in SCAN_CLASSES for target in ("a2", "a3", "a4")]
    ops += [_verify_op(spec, "a5", SCAN_FLAGS, next(seeds), SCAN_SAMPLES)
            for spec in SCAN_A5_CLASSES]
    return ops


# ---------------------------------------------------------------------------
# Exact route: Fraction arithmetic through classes/series, cross-checked
# against the oracle's float fast path
# ---------------------------------------------------------------------------


def _chebyshev(n, c):
    """T_n(c): cos(n theta) from cos(theta), rational when c is."""
    prev, cur = Fraction(1), c
    for _ in range(n - 1):
        prev, cur = cur, 2 * c * cur - prev
    return cur


def rational_tuple(cosines, weights, m):
    """Moments p_n = 2 sum w_k cos(n theta_k) of a real atomic measure: admissible and rational."""
    return [2 * sum(w * _chebyshev(n, c) for w, c in zip(weights, cosines)) for n in range(1, m + 1)]


def random_rational_tuple(rng, m):
    k = rng.randint(1, 3)
    cosines = [Fraction(rng.randint(-8, 8), 8) for _ in range(k)]
    raw = [rng.randint(1, 6) for _ in range(k)]
    weights = [Fraction(w, sum(raw)) for w in raw]
    return rational_tuple(cosines, weights, m)


def _has_a5_chain(spec):
    return (spec.operator == "st" and spec.lam == 0
            and spec.generator.family in ("order", "strong"))


def _rel_err(fast, exact):
    fast = np.asarray(fast, dtype=complex)
    exact = np.asarray(exact, dtype=complex)
    return float(np.max(np.abs(fast - exact)) / max(1.0, float(np.max(np.abs(exact)))))


def _check_exact(spec_text, probe):
    def check(result):
        spec, p, a, q = result
        P = np.array([[complex(x) for x in p]])
        coeffs = [a.a2, a.a3, a.a4] + ([a.a5] if len(p) == 4 else [])
        if len(p) == 4 and _has_a5_chain(spec):
            fast_a, fast_q = oracle.a5_chain(spec, P)
            fast_q = fast_q[0]
        else:
            fast_a = oracle.solve_fast(spec, P[:, :3])
            fast_q = oracle.implied_q_fast(spec, *fast_a)[0]
            coeffs, q = coeffs[:3], q[:3]
        err = _rel_err([x[0] for x in fast_a] + list(fast_q), [complex(x) for x in coeffs + list(q)])
        if err > EXACT_REL_TOL:
            return [f"fast path differs from the exact route by {err:.3e} (relative)"], {}
        if not probe or caratheodory.smallest_eigenvalue([complex(x) for x in q]) < -TOL_FEASIBLE:
            return [], {}
        values = [b.value for b in bounds.class_bounds(spec)]
        return [], {(spec_text, f"a{n + 2}"): abs(float(c)) / b
                    for n, (c, b) in enumerate(zip(coeffs, values))}

    return check


def _exact_op(spec_text, p, probe=False):
    def call():
        spec = classes.parse_spec(spec_text)
        a = classes.solve_coefficients(spec, p)
        return spec, p, a, classes.implied_q(spec, a)

    return Op(f"exact {spec_text} m={len(p)}", call, _check_exact(spec_text, probe), tuples=1)


def _check_exit(result):
    code, out, err = result
    if code != 0:
        return [f"exit code {code}: {err.strip()[:300]}"], {}
    if not out.strip():
        return ["empty output"], {}
    return [], {}


def probe_tuples():
    """A fixed grid of one- and two-atom real measures, m = 3."""
    tuples = [rational_tuple([c], [Fraction(1)], 3) for c in PROBE_COSINES]
    for i, c1 in enumerate(PROBE_COSINES):
        for c2 in PROBE_COSINES[i + 1:]:
            tuples += [rational_tuple([c1, c2], [w, 1 - w], 3) for w in PROBE_WEIGHTS]
    return tuples


def exact_route(seed, pass_index):
    """Seeded random tuples every pass; pass 0 also solves the probe grid.

    Random tuples rarely give a feasible implied q, so a maximum over them
    swings with the seed.  The probe grid is the same for every seed and
    gives the tightness rows: max |a_n| / bound over its feasible tuples.
    """
    rng = random.Random(f"exact-route:{seed}:{pass_index}")
    ops = []
    for spec in EXACT_CLASSES:
        if pass_index == 0:
            ops += [_exact_op(spec, p, probe=True) for p in probe_tuples()]
        ops += [_exact_op(spec, random_rational_tuple(rng, m))
                for m in (3, 4) for _ in range(EXACT_RANDOM_PER_CLASS)]
    ops += [Op(" ".join(argv[:2]), lambda argv=argv: run_cli(argv), _check_exit)
            for argv in EXACT_CLI_OPS]
    return ops


WORKLOADS = {
    "grid-refine": grid_refine,
    "scan-bulk": scan_bulk,
    "exact-route": exact_route,
}


def warm_up(workload):
    """Imports and first calls a user pays once per process, before the first op."""
    if workload == "exact-route":
        import sympy  # noqa: F401  (cmd_expand imports it lazily)

        for op in (_exact_op(EXACT_CLASSES[0], rational_tuple([Fraction(1, 2)], [Fraction(1)], 4)),
                   Op("expand", lambda: run_cli(["expand", EXACT_CLASSES[0]]), _check_exit)):
            errors, _ = op.check(op.call())
            if errors:
                raise RuntimeError(f"warm-up failed: {errors}")
        return
    result = run_cli(["verify", "st:lambda=0:order:rho=0", "--target", "a2", "--samples", "500",
                      "--refine-top", "1", "--refine-steps", "5", "--format", "json"])
    errors, _ = _check_verify("st:lambda=0:order:rho=0", "a2")(result)
    if errors:
        raise RuntimeError(f"warm-up failed: {errors}")
