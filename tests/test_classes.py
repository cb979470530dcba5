from fractions import Fraction

import pytest

from bikoeff import classes
from bikoeff.classes import (
    ClassSpec,
    MindaGenerator,
    SpecParseError,
    ZeroPivotError,
    apply_operator,
    implied_q,
    janowski_coeffs,
    order_coeffs,
    parse_spec,
    solve_coefficients,
    strong_coeffs,
    subordination_target,
)
from bikoeff.series import CoefficientVector, TruncatedSeries, revert

from conftest import random_fraction


def random_spec(rng, operator=None):
    op = operator or rng.choice(["st", "m"])
    lam = Fraction(rng.randint(0, 8), rng.randint(1, 4))
    A = Fraction(rng.randint(1, 4), 4)
    B = Fraction(-rng.randint(1, 4), 4)
    return ClassSpec(op, lam, janowski_coeffs(A, B))


# -- generators --------------------------------------------------------------


def test_janowski_coefficients():
    gen = janowski_coeffs(1, -1)
    assert gen.B[:4] == (2, 2, 2, 2)
    gen = janowski_coeffs(Fraction(1, 2), Fraction(-1, 4))
    assert gen.B[:3] == (Fraction(3, 4), Fraction(3, 16), Fraction(3, 64))
    with pytest.raises(ValueError):
        janowski_coeffs(-1, 1)


def test_order_generator_is_janowski_special_case():
    gen = order_coeffs(Fraction(1, 4))
    assert gen.B[:3] == (Fraction(3, 2), Fraction(3, 2), Fraction(3, 2))
    assert gen.family == "order"


def test_strong_generator_exact_low_coefficients():
    gen = strong_coeffs(Fraction(1, 3))
    assert gen.B[:3] == (Fraction(2, 3), Fraction(2, 9), Fraction(22, 81))


def test_strong_generator_matches_power_series():
    import math

    beta = 0.37
    gen = strong_coeffs(beta, K=5)
    from bikoeff.series import pow_real

    base = TruncatedSeries([1.0, 1.0], 5) / TruncatedSeries([1.0, -1.0], 5)
    ref = pow_real(base, beta)
    for n in range(1, 6):
        assert abs(complex(gen.B[n - 1]) - ref.coeffs[n]) < 1e-12


def test_generator_validation():
    with pytest.raises(ValueError, match="B1 > 0"):
        MindaGenerator((0, 1, 1))
    with pytest.raises(ValueError, match="at least"):
        MindaGenerator((1, 1))


# -- spec text grammar -------------------------------------------------------


@pytest.mark.parametrize(
    "text",
    [
        "st:lambda=1/2:order:rho=1/4",
        "m:lambda=2:janowski:A=1,B=-1",
        "st:lambda=0:strong:beta=3/4",
        "m:lambda=0.25:custom:B1=1,B2=1/2,B3=1/3",
    ],
)
def test_parse_roundtrip(text):
    spec = parse_spec(text)
    assert parse_spec(spec.text()) == spec


def test_parse_keeps_fractions_exact():
    spec = parse_spec("st:lambda=1/3:order:rho=1/6")
    assert spec.lam == Fraction(1, 3)
    assert spec.generator.params["rho"] == Fraction(1, 6)
    assert isinstance(spec.generator.params["rho"], Fraction)


def test_parse_ss_shorthand():
    spec = parse_spec("ss:beta=1/2")
    assert spec.operator == "st" and spec.lam == 0
    assert spec.generator.family == "strong"
    assert spec.generator.params["beta"] == Fraction(1, 2)


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "xx:lambda=0:order:rho=0",
        "st:lambda=0:order:rho=0:extra",
        "st:lambda=0:order",
        "st:lambda=0:order:rho=0,rho=1",
        "st:lambda=0:order:rho=abc",
        "st:lambda=0:order:rho=1/0",
        "ss:beta=0.5:order",
    ],
)
def test_parse_errors(bad):
    with pytest.raises(SpecParseError):
        parse_spec(bad)


# -- operator expansions against the closed-form left-hand sides -------------


def st_lhs(lam, a2, a3, a4):
    return (
        (1 + 2 * lam) * a2,
        2 * (1 + 3 * lam) * a3 - (1 + 2 * lam) * a2**2,
        3 * (1 + 4 * lam) * a4 - (3 + 8 * lam) * a2 * a3 + (1 + 2 * lam) * a2**3,
    )


def st_lhs_inverse(lam, a2, a3, a4):
    return (
        -(1 + 2 * lam) * a2,
        -2 * (1 + 3 * lam) * a3 + (3 + 10 * lam) * a2**2,
        -3 * (1 + 4 * lam) * a4 + (12 + 52 * lam) * a2 * a3 - (10 + 46 * lam) * a2**3,
    )


def m_lhs(lam, a2, a3, a4):
    return (
        (1 + lam) * a2,
        2 * (1 + 2 * lam) * a3 - (1 + 3 * lam) * a2**2,
        3 * (1 + 3 * lam) * a4 - 3 * (1 + 5 * lam) * a2 * a3 + (1 + 7 * lam) * a2**3,
    )


def m_lhs_inverse(lam, a2, a3, a4):
    return (
        -(1 + lam) * a2,
        -2 * (1 + 2 * lam) * a3 + (3 + 5 * lam) * a2**2,
        -3 * (1 + 3 * lam) * a4 + (12 + 30 * lam) * a2 * a3 - (10 + 22 * lam) * a2**3,
    )


@pytest.mark.parametrize("operator,lhs,lhs_inv", [
    ("st", st_lhs, st_lhs_inverse),
    ("m", m_lhs, m_lhs_inverse),
])
def test_operator_expansion_fixtures(operator, lhs, lhs_inv, rational_rng):
    for _ in range(25):
        lam = Fraction(rational_rng.randint(0, 8), rational_rng.randint(1, 4))
        a2, a3, a4, a5 = (random_fraction(rational_rng) for _ in range(4))
        spec = ClassSpec(operator, lam, janowski_coeffs(1, -1))
        f = CoefficientVector(a2, a3, a4, a5).as_series()
        expanded = apply_operator(spec, f)
        assert expanded.coeffs[0] == 1
        assert expanded.coeffs[1:4] == lhs(lam, a2, a3, a4)
        g = revert(f)
        expanded_inv = apply_operator(spec, g)
        assert expanded_inv.coeffs[1:4] == lhs_inv(lam, a2, a3, a4)


def test_operators_coincide_at_lambda_zero(rational_rng):
    gen = janowski_coeffs(Fraction(1, 2), Fraction(-1, 2))
    f = CoefficientVector(*(random_fraction(rational_rng) for _ in range(3))).as_series()
    st = apply_operator(ClassSpec("st", Fraction(0), gen), f)
    m = apply_operator(ClassSpec("m", Fraction(0), gen), f)
    assert st == m


def test_operator_requires_normalized_input():
    spec = parse_spec("st:lambda=0:order:rho=0")
    with pytest.raises(Exception):
        apply_operator(spec, TruncatedSeries([0, 2, 1], 4))


# -- coefficient systems -----------------------------------------------------


def test_koebe_solves_extremal_system():
    # p = (2,2,2,...): f is z/(1-z)^2 in the basic starlike class
    spec = parse_spec("st:lambda=0:order:rho=0")
    a = solve_coefficients(spec, (Fraction(2), Fraction(2), Fraction(2)))
    assert (a.a2, a.a3, a.a4) == (2, 3, 4)
    q = implied_q(spec, a)
    assert q == (-2, 6, -20)


def test_convex_class_solution():
    spec = parse_spec("m:lambda=1:order:rho=0")
    a = solve_coefficients(spec, (Fraction(2), Fraction(2), Fraction(2)))
    assert (a.a2, a.a3, a.a4) == (1, 1, 1)


def test_q1_is_negated_p1(rational_rng):
    for _ in range(10):
        spec = random_spec(rational_rng)
        p = tuple(random_fraction(rational_rng, -1, 1) for _ in range(3))
        a = solve_coefficients(spec, p)
        q = implied_q(spec, a)
        assert q[0] == -p[0]


def test_solve_then_substitute_closes_the_loop(rational_rng):
    # the f-side system evaluated at the solved coefficients reproduces the target
    for _ in range(5):
        spec = random_spec(rational_rng)
        p = tuple(random_fraction(rational_rng, -1, 1) for _ in range(3))
        a = solve_coefficients(spec, p)
        p_series = TruncatedSeries([Fraction(1), *p], 3)
        target = subordination_target(spec, p_series)
        f = CoefficientVector(a.a2, a.a3, a.a4).as_series()
        assert apply_operator(spec, f).truncate(3) == target


def test_implied_q_with_a5(rational_rng):
    spec = parse_spec("ss:beta=1/2")
    p = tuple(random_fraction(rational_rng, -1, 1) for _ in range(4))
    a = solve_coefficients(spec, p)
    assert a.a5 is not None
    q = implied_q(spec, a)
    assert len(q) == 4
    assert abs(complex(q[0]) + complex(p[0])) < 1e-12


# -- internal faults ---------------------------------------------------------


def test_zero_pivot_in_forward_solve_raises(monkeypatch):
    spec = parse_spec("st:lambda=0:order:rho=0")
    frozen = TruncatedSeries([Fraction(1)] + [Fraction(0)] * 4, 4)
    monkeypatch.setattr(classes, "apply_operator", lambda spec, f: frozen)
    with pytest.raises(ZeroPivotError) as info:
        solve_coefficients(spec, (Fraction(1), Fraction(0), Fraction(0)))
    assert not isinstance(info.value, ValueError)


def test_zero_pivot_in_implied_q_raises(monkeypatch):
    spec = parse_spec("st:lambda=0:order:rho=0")
    a = solve_coefficients(spec, (Fraction(1), Fraction(0), Fraction(0)))
    frozen = TruncatedSeries([Fraction(1)] + [Fraction(0)] * 3, 3)
    monkeypatch.setattr(classes, "compose", lambda outer, inner: frozen)
    with pytest.raises(ZeroPivotError) as info:
        implied_q(spec, a)
    assert not isinstance(info.value, ValueError)
