import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import minimize

from bikoeff import caratheodory, oracle
from bikoeff.bounds import BoundBreakdown
from bikoeff.caratheodory import MeasureSampler, atom_moments, sample, smallest_eigenvalue, toeplitz_batch
from bikoeff.classes import implied_q, parse_spec, solve_coefficients
from bikoeff.oracle import (
    OracleError,
    SearchConfig,
    a5_chain,
    check_a5_system,
    fit_atoms,
    fit_residual,
    implied_q_fast,
    max_coeff,
    solve_fast,
)

SPECS = (
    "st:lambda=0:order:rho=0",
    "st:lambda=1/2:order:rho=1/4",
    "m:lambda=1:order:rho=0",
    "m:lambda=0.3:janowski:A=0.75,B=-0.5",
    "st:lambda=0.2:strong:beta=0.6",
)


# -- closed-form fast path vs generic series route ---------------------------


@pytest.mark.parametrize("spec_text", SPECS + ("st:lambda=1/2:custom:B1=1,B2=1/2,B3=1/4",))
def test_fast_path_matches_generic(spec_text):
    # order 4 takes a5 as well, for every class; a custom generator has B4 = 0
    spec = parse_spec(spec_text)
    for m, seed in itertools.product((3, 4), range(8)):
        p = sample(seed, m)
        a = solve_coefficients(spec, p.entries)
        q = implied_q(spec, a)
        fast = solve_fast(spec, np.array([p.entries]))
        qf = implied_q_fast(spec, *fast)[0]
        exact = (a.a2, a.a3, a.a4, a.a5)[:m]
        assert len(fast) == len(qf) == len(q) == m
        assert all(abs(x[0] - complex(y)) < 1e-11 for x, y in zip(fast, exact))
        assert all(abs(x - complex(y)) < 1e-10 for x, y in zip(qf, q))


@pytest.mark.parametrize("spec_text", ["st:lambda=0:order:rho=1/4", "ss:beta=0.7"])
def test_a5_chain_matches_generic(spec_text):
    spec = parse_spec(spec_text)
    for seed in range(8):
        p = sample(seed, 4)
        a = solve_coefficients(spec, p.entries)
        q = implied_q(spec, a)
        (a2, a3, a4, a5), l = a5_chain(spec, np.array([p.entries]))
        assert abs(a5[0] - complex(a.a5)) < 1e-10
        assert all(abs(x - complex(y)) < 1e-9 for x, y in zip(l[0], q))


def test_a5_chain_rejects_unsupported_specs():
    with pytest.raises(OracleError):
        a5_chain(parse_spec("st:lambda=1:order:rho=0"), np.zeros((1, 4)))
    with pytest.raises(OracleError):
        a5_chain(parse_spec("m:lambda=0:janowski:A=1,B=-1"), np.zeros((1, 4)))


# -- scalar refinement objective vs the one-row array path -------------------

SCALAR_SPECS = [
    f"{op}:lambda={lam}:{gen}"
    for op in ("st", "m")
    for lam in ("0", "1/2", "1")
    for gen in ("order:rho=1/4", "janowski:A=1/2,B=-1/2", "strong:beta=0.6",
                "custom:B1=1,B2=1/2,B3=1/4")
]
A5_SPECS = ["st:lambda=0:order:rho=1/4", "ss:beta=3/4"]
SCALAR_RTOL = 1e-12


def array_objective(spec, target_index, x, K, m, tol):
    """(value, scale) of the refinement objective on the one-row array path.

    The value is the reference.  Its scale is |a_target|, plus 1e4 ||T||
    when the penalty 1e4 (-lambda_min - tol) is active: eigvalsh fixes
    lambda_min only to within rounding of ||T||, so a penalized value near
    the boundary carries that error whichever path computes it.
    """
    theta = x[:K]
    w = np.abs(x[K:]) + 1e-12
    w = w / w.sum()
    coeffs, q = oracle._system(spec, atom_moments(theta, w, m)[None, :])
    eig = np.linalg.eigvalsh(toeplitz_batch(q))[0]
    value = abs(complex(coeffs[target_index][0]))
    penalty = max(0.0, -(eig[0] + tol))
    return -value + 1e4 * penalty, value + (1e4 * np.abs(eig).max() if penalty else 0.0)


def assert_rows_close(scalar, array):
    scalar, array = np.asarray(scalar), np.asarray(array)
    assert scalar.shape == array.shape
    assert np.max(np.abs(scalar - array)) <= SCALAR_RTOL * np.max(np.abs(array))


@pytest.mark.parametrize("spec_text,m", [(t, 3) for t in SCALAR_SPECS] + [(t, 4) for t in A5_SPECS])
def test_scalar_system_matches_array_path(spec_text, m):
    spec = parse_spec(spec_text)
    fast = oracle.fast_spec(spec)
    K, tol = 5, 1e-7
    targets = (3,) if m == 4 else (0, 1, 2)
    rng = np.random.default_rng(7)
    for _ in range(40):
        x = np.concatenate([rng.uniform(-2 * np.pi, 4 * np.pi, K), rng.uniform(-1, 1, K)])
        theta = x[:K]
        w = np.abs(x[K:]) + 1e-12
        w = w / w.sum()
        p = atom_moments(theta, w, m)
        assert_rows_close(oracle._moments_scalar(x[:K].tolist(), w.tolist(), m), p)
        coeffs, q = oracle._system(fast, tuple(complex(e) for e in p))
        ref_coeffs, ref_q = oracle._system(spec, p[None, :])
        assert isinstance(q, tuple) and all(isinstance(e, complex) for e in (*coeffs, *q))
        assert_rows_close([complex(c) for c in coeffs], [c[0] for c in ref_coeffs])
        assert_rows_close(q, ref_q[0])
        for target_index in targets:
            value = oracle._objective(spec, target_index, K, m, tol)(x.tolist())
            ref, scale = array_objective(spec, target_index, x, K, m, tol)
            assert abs(value - ref) <= SCALAR_RTOL * scale


@pytest.mark.parametrize("spec_text,m", [("st:lambda=0:order:rho=1/4", 3),
                                         ("m:lambda=0:janowski:A=1/2,B=-1/2", 3),
                                         ("st:lambda=0:order:rho=1/4", 4)])
def test_objective_skips_eigvalsh_where_the_levinson_gate_passes(spec_text, m, monkeypatch):
    spec = parse_spec(spec_text)
    fast = oracle.fast_spec(spec)
    K, tol = 5, 1e-7
    target_index = 3 if m == 4 else 1
    objective = oracle._objective(spec, target_index, K, m, tol)
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1) or eigvalsh(a))
    rng = np.random.default_rng(3)
    passed = 0
    for _ in range(200):
        x = np.concatenate([rng.uniform(0, 2 * np.pi, K), rng.uniform(0, 1, K)]).tolist()
        w = [abs(v) + 1e-12 for v in x[K:]]
        coeffs, q = oracle._system(fast, oracle._moments_scalar(x[:K], [v / sum(w) for v in w], m))
        before = len(calls)
        value = objective(x)
        if caratheodory._positive_scalar(q, 2.0 + tol):
            passed += 1
            assert value == -abs(coeffs[target_index]) and len(calls) == before
        else:
            assert len(calls) == before + 1
    assert 0 < passed < 200


def test_closed_forms_keep_array_shapes():
    spec = parse_spec("st:lambda=1/2:order:rho=1/4")
    p = np.stack([sample(s, 4).entries for s in range(6)])
    a2, a3, a4 = solve_fast(spec, p[:, :3])
    assert a2.shape == (6,) and implied_q_fast(spec, a2, a3, a4).shape == (6, 3)
    assert implied_q_fast(spec, a2[0], a3[0], a4[0]).shape == (3,)
    spec = parse_spec("ss:beta=3/4")
    (a2, a3, a4, a5), l = a5_chain(spec, p)
    assert a5.shape == (6,) and l.shape == (6, 4)
    (_, _, _, b5), l_fast = a5_chain(oracle.fast_spec(spec), p)
    assert np.array_equal(b5, a5) and np.array_equal(l_fast, l)
    assert a5_chain(spec, p[0])[1].shape == (4,)


# -- search ------------------------------------------------------------------


def test_search_reports_are_deterministic():
    cfg = SearchConfig(seed=3, samples=500, refine_top=1, refine_steps=30)
    spec = parse_spec("st:lambda=0:order:rho=0")
    r1 = max_coeff(spec, "a3", cfg)
    r2 = max_coeff(spec, "a3", cfg)
    assert r1 == r2


def test_monotone_effort_without_refinement():
    spec = parse_spec("st:lambda=1/2:order:rho=1/4")
    best = -1.0
    for n in (100, 400, 1600, 6400):
        cfg = SearchConfig(seed=11, samples=n, refine_top=0)
        rep = max_coeff(spec, "a2", cfg)
        assert rep.best_value >= best - 1e-15
        best = rep.best_value


def test_best_value_below_bound():
    for spec_text in SPECS:
        rep = max_coeff(parse_spec(spec_text), "a2", SearchConfig(seed=1, samples=1500, refine_top=1))
        assert not rep.violated
        assert rep.slack == rep.bound - rep.best_value
        assert rep.variants == {"": {"bound": rep.bound, "violated": False,
                                     "slack": rep.slack, "proven": True}}
        assert 0 < rep.feasible_count <= rep.samples


def test_refinement_gains_on_a3():
    # the polish lifts a3 from the raw sample maximum almost to the bound 1/2
    spec = parse_spec("st:lambda=1/2:order:rho=1/4")
    raw = max_coeff(spec, "a3", SearchConfig(seed=0, samples=2000, refine_top=0))
    refined = max_coeff(spec, "a3", SearchConfig(seed=0, samples=2000, refine_top=1, refine_steps=60))
    assert raw.best_value < 0.46
    assert refined.best_value >= 0.4999
    assert refined.argmax["refined"] and not refined.violated


@pytest.mark.parametrize("tol", [1e-7, 0.0])
@pytest.mark.parametrize("spec_text", A5_SPECS)
def test_refined_a5_points_pass_the_recheck(spec_text, tol, monkeypatch):
    # the polish aims POLISH_MARGIN inside -tol, so no polished point lands just
    # outside the re-check at -tol, also at tol = 0; a polish that stays far
    # outside is another matter
    margins = []
    refine = oracle._refine

    def recorded(spec, target_index, theta0, w0, m, config, real):
        theta, w = refine(spec, target_index, theta0, w0, m, config, real)
        p = atom_moments(theta, w, m)
        if real:
            p.imag = 0.0
        _, q = oracle._system(spec, p[None, :])
        margins.append(smallest_eigenvalue(tuple(q[0])) + config.tol_feasible)
        return theta, w

    monkeypatch.setattr(oracle, "_refine", recorded)
    rep = check_a5_system(parse_spec(spec_text), SearchConfig(samples=2000, seed=0, tol_feasible=tol))
    assert rep.argmax["refined"]
    assert smallest_eigenvalue(rep.argmax["q"]) >= -tol + oracle.POLISH_MARGIN / 2
    assert len(margins) == 3 and not any(-1e-6 < g < 0 for g in margins)


def test_real_flagged_start_is_scored_as_its_candidate(monkeypatch):
    # the sampler keeps the real parts of a real-flagged sample's moments, so
    # the polish must too: its start then scores what the search ranked
    spec = parse_spec("st:lambda=0:order:rho=0")
    config = SearchConfig(seed=0, samples=2000, refine_top=1, refine_steps=1)
    p, (_, _, real_flags) = MeasureSampler(0).moments(2000, 3)
    coeffs, q = oracle._system(spec, p)
    values = np.where(caratheodory.admissible_mask(q, config.tol_feasible), np.abs(coeffs[0]), -np.inf)
    assert real_flags[np.argmax(values)]
    starts = []

    def first_score(fun, x0, **kwargs):
        starts.append(fun(list(x0)))
        return minimize(fun, x0, **kwargs)

    monkeypatch.setattr(oracle, "minimize", first_score)
    rep = max_coeff(spec, "a2", config)
    assert starts == [pytest.approx(-values.max(), rel=1e-10)]  # the objective adds 1e-12 to each weight
    # the witness holds the symmetrised atoms, whose moments are the real p
    assert rep.argmax["refined"] and all(e.imag == 0 for e in rep.argmax["p"])
    assert_rows_close(atom_moments(*np.array(rep.argmax["atoms"]).T, 3), rep.argmax["p"])


def test_no_feasible_sample_raises():
    cfg = SearchConfig(seed=0, samples=1)
    with pytest.raises(OracleError, match="no feasible"):
        max_coeff(parse_spec("st:lambda=0:order:rho=0"), "a2", cfg)


def test_unknown_target_rejected():
    with pytest.raises(OracleError):
        max_coeff(parse_spec(SPECS[0]), "a7", SearchConfig())


def test_violation_flag_with_fake_bound(monkeypatch):
    tiny = BoundBreakdown(0.01, "case_a", "route_one")
    monkeypatch.setattr(oracle, "class_bounds", lambda spec: (tiny, tiny, tiny))
    rep = max_coeff(parse_spec("st:lambda=0:order:rho=0"), "a2", SearchConfig(seed=1, samples=300, refine_top=0))
    assert rep.violated
    assert rep.slack < 0


def witness_satisfies_equations(spec_text, target):
    """Direct substitution into the raw coefficient equations, bypassing the
    implied-q code path entirely."""
    spec = parse_spec(spec_text)
    rep = max_coeff(spec, target, SearchConfig(seed=5, samples=1500, refine_top=2, refine_steps=40))
    p, q = rep.argmax["p"], rep.argmax["q"]
    lam = float(spec.lam)
    B1, B2, B3 = (float(b) for b in spec.generator.B[:3])
    a2, a3, a4 = (x[0] for x in solve_fast(spec, np.array([p])))

    def phi_of_schwarz(c1, c2, c3):
        w1 = c1 / 2
        w2 = c2 / 2 - c1**2 / 4
        w3 = c3 / 2 - c1 * c2 / 2 + c1**3 / 8
        return (B1 * w1, B1 * w2 + B2 * w1**2, B1 * w3 + 2 * B2 * w1 * w2 + B3 * w1**3)

    r1, r2, r3 = phi_of_schwarz(*q)
    if spec.operator == "st":
        eqs = (
            -(1 + 2 * lam) * a2 - r1,
            -2 * (1 + 3 * lam) * a3 + (3 + 10 * lam) * a2**2 - r2,
            -3 * (1 + 4 * lam) * a4 + (12 + 52 * lam) * a2 * a3 - (10 + 46 * lam) * a2**3 - r3,
        )
    else:
        eqs = (
            -(1 + lam) * a2 - r1,
            -2 * (1 + 2 * lam) * a3 + (3 + 5 * lam) * a2**2 - r2,
            -3 * (1 + 3 * lam) * a4 + (12 + 30 * lam) * a2 * a3 - (10 + 22 * lam) * a2**3 - r3,
        )
    assert max(abs(e) for e in eqs) < 1e-10
    assert smallest_eigenvalue(q) >= -1.1e-7


@pytest.mark.parametrize("spec_text", SPECS[:3])
def test_witness_direct_substitution(spec_text):
    witness_satisfies_equations(spec_text, "a3")


# -- list-based Nelder-Mead against scipy's ---------------------------------

NM_WEIGHTS = [1.0 + 0.37 * k for k in range(10)]


def rosenbrock(x):
    return sum(100.0 * (x[i + 1] - x[i] ** 2) ** 2 + (1 - x[i]) ** 2 for i in range(len(x) - 1))


def weighted_quadratic(x):
    return sum(w * (v - 0.1 * k) ** 2 for k, (w, v) in enumerate(zip(NM_WEIGHTS, x)))


def kinked(x):
    return sum(abs(v) for v in x) - abs(x[0] * x[1])


def stepped(x):
    # plateaus: vertices tie, and contractions fail into shrinks
    return round(weighted_quadratic(x), 2)


def nm_start(seed):
    x0 = np.random.default_rng(seed).uniform(-2, 2, 10)
    x0[seed] = 0.0
    return x0


@pytest.mark.parametrize("fun", [rosenbrock, weighted_quadratic, kinked, stepped])
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("maxiter", [5, 60, 600, 3000])
def test_nelder_mead_matches_scipy(fun, seed, maxiter):
    x0 = nm_start(seed)
    options = {"maxiter": maxiter, "xatol": 1e-10, "fatol": 1e-12}
    calls = []
    ref = minimize(fun, x0, method="Nelder-Mead", options=options)
    res = minimize(lambda x: calls.append(type(x)) or fun(x), x0, method=oracle._nelder_mead,
                   options=options)
    assert np.array_equal(res.x, ref.x) and res.fun == ref.fun
    assert (res.nfev, res.nit, res.success, res.status) == (ref.nfev, ref.nit, ref.success, ref.status)
    assert res.nfev == len(calls) and set(calls) == {list}


@pytest.mark.parametrize("fsim", [
    [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.35],  # a step: insert by bisection
    [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.3],  # the new value ties
    [0.0, 0.1, 0.1, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.35],  # an older tie
    [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, math.nan],
    [0.0, math.nan, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.35],
    [1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0],  # after a shrink
    [0.5, 0.0, 0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.8, 0.9, 1.0],
])
def test_simplex_order_is_numpys_argsort(fsim):
    order = np.argsort(fsim).tolist()
    sim, ordered = oracle._ordered([[k] for k in range(len(fsim))], list(fsim))
    assert [v[0] for v in sim] == order
    assert np.array_equal(ordered, [fsim[k] for k in order], equal_nan=True)


def test_nelder_mead_covers_both_stops():
    statuses = {minimize(fun, nm_start(0), method=oracle._nelder_mead,
                         options={"maxiter": maxiter, "xatol": 1e-10, "fatol": 1e-12}).status
                for fun in (weighted_quadratic, stepped) for maxiter in (5, 3000)}
    assert statuses == {0, 2}


# -- fifth-coefficient adjudication ------------------------------------------


def test_a5_report_structure():
    cfg = SearchConfig(seed=2, samples=2000, refine_top=1, refine_steps=30)
    rep = check_a5_system(parse_spec("ss:beta=1/2"), cfg)
    assert set(rep.variants) == {"stated", "rederived"}
    for v in rep.variants.values():
        assert v["slack"] == v["bound"] - rep.best_value
    assert rep.feasible_count > 0
    assert not rep.variants["rederived"]["violated"]
    assert {n: v["proven"] for n, v in rep.variants.items()} == {"stated": False, "rederived": True}
    assert (rep.bound, rep.slack, rep.violated) == tuple(
        rep.variants["rederived"][k] for k in ("bound", "slack", "violated"))


def test_a5_report_order_family():
    cfg = SearchConfig(seed=2, samples=2000, refine_top=1, refine_steps=30)
    rep = check_a5_system(parse_spec("st:lambda=0:order:rho=1/4"), cfg)
    assert set(rep.variants) == {"stated", "proof"}
    assert not rep.variants["proof"]["violated"]
    assert rep.best_value <= rep.variants["proof"]["bound"] + 1e-8


def test_a5_deterministic():
    cfg = SearchConfig(seed=9, samples=500, refine_top=0)
    spec = parse_spec("ss:beta=3/4")
    assert check_a5_system(spec, cfg) == check_a5_system(spec, cfg)


# -- measure recovery --------------------------------------------------------


def test_fit_single_atom():
    mu = fit_atoms((2, 2, 2))
    assert fit_residual(mu, (2, 2, 2)) < 1e-8
    heavy = max(mu.atoms, key=lambda a: a[1])
    assert min(heavy[0], 2 * math.pi - heavy[0]) < 1e-4


def test_fit_two_opposite_atoms():
    mu = fit_atoms((0, 2, 0))
    assert fit_residual(mu, (0, 2, 0)) < 1e-8


def test_fit_random_interior_points():
    for seed in range(20):
        p = sample(seed, 3).scaled(0.9)
        mu = fit_atoms(p, seed=seed)
        assert fit_residual(mu, p) < 1e-8


def test_fit_rejects_points_outside_the_body():
    p = sample(0, 3)
    t = 2.0 / (2.0 - smallest_eigenvalue(p))
    with pytest.raises(OracleError):
        fit_atoms(p.scaled(1.3 * t), seed=1)


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(samples=0)
    with pytest.raises(ValueError):
        SearchConfig(refine_top=-1)
    with pytest.raises(ValueError, match="refine_steps must be >= 0"):
        SearchConfig(refine_steps=-1)
    assert SearchConfig(refine_steps=0).refine_steps == 0
    with pytest.raises(ValueError):
        SearchConfig(tol_feasible=-1)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            SearchConfig(tol_feasible=bad)
        with pytest.raises(ValueError, match="finite"):
            SearchConfig(tol_violation=bad)

