import math
from fractions import Fraction

import numpy as np
import pytest

from bikoeff import oracle
from bikoeff.bounds import BoundBreakdown
from bikoeff.caratheodory import MeasureSampler, sample, smallest_eigenvalue
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


@pytest.mark.parametrize("spec_text", SPECS)
def test_fast_path_matches_generic(spec_text):
    spec = parse_spec(spec_text)
    for seed in range(8):
        p = sample(seed, 3)
        a = solve_coefficients(spec, p.entries)
        q = implied_q(spec, a)
        a2, a3, a4 = solve_fast(spec, np.array([p.entries]))
        qf = implied_q_fast(spec, a2, a3, a4)[0]
        assert abs(a2[0] - complex(a.a2)) < 1e-11
        assert abs(a3[0] - complex(a.a3)) < 1e-11
        assert abs(a4[0] - complex(a.a4)) < 1e-11
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
        assert 0 < rep.feasible_count <= rep.samples


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


# -- fifth-coefficient adjudication ------------------------------------------


def test_a5_report_structure():
    cfg = SearchConfig(seed=2, samples=2000, refine_top=1, refine_steps=30)
    rep = check_a5_system(parse_spec("ss:beta=1/2"), cfg)
    assert set(rep.variants) == {"stated", "rederived"}
    for v in rep.variants.values():
        assert v["slack"] == v["bound"] - rep.best_value
    assert rep.feasible_count > 0
    assert not rep.variants["rederived"]["violated"]


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
    with pytest.raises(ValueError):
        SearchConfig(tol_feasible=-1)

