from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from bikoeff.series import CoefficientVector, Polynomial, TruncatedSeries, revert

from conftest import random_fraction
from helpers import exact_key, full_order_solve, newton_revert, sample


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


def _strong_reference(beta, K):
    """B1..BK of (1+z)^beta (1-z)^-beta from the generalized binomial series."""
    def binomials(x):
        out = [x ** 0]
        for k in range(1, K + 1):
            out.append(out[-1] * (x - k + 1) / k)
        return out

    plus = binomials(beta)  # (1+z)^beta
    minus = [c * (-1) ** k for k, c in enumerate(binomials(-beta))]  # (1-z)^-beta
    return [sum(plus[j] * minus[n - j] for j in range(n + 1)) for n in range(1, K + 1)]


def test_strong_generator_matches_power_series():
    gen = strong_coeffs(0.37, K=8)
    for b, ref in zip(gen.B, _strong_reference(0.37, 8)):
        assert abs(b - ref) < 1e-12


def test_strong_generator_exact_for_rational_beta():
    gen = strong_coeffs(Fraction(3, 4), K=6)
    assert all(type(b) is Fraction for b in gen.B)
    assert list(gen.B) == _strong_reference(Fraction(3, 4), 6)
    assert gen.B[3:] == (Fraction(123, 128), Fraction(237, 256), Fraction(893, 1024))
    assert strong_coeffs(1).B == (2, 2, 2, 2, 2, 2)


@pytest.mark.parametrize("text", ["st:lambda=0:janowski:A=1/2,B=-1/3", "m:lambda=1:order:rho=1/4",
                                  "ss:beta=3/4", "st:lambda=0:strong:beta=0.6"])
def test_named_generator_series_follows_its_rule_past_b6(text):
    gen = parse_spec(text).generator
    rule = {"janowski": janowski_coeffs, "order": order_coeffs, "strong": strong_coeffs}[gen.family]
    assert len(gen.B) == 6
    assert gen.series(9) == MindaGenerator(rule(**gen.params, K=9).B).series(9)


def test_custom_generator_series_pads_with_zeros():
    gen = parse_spec("st:lambda=0:custom:B1=1,B2=1/2,B3=1/4").generator
    assert gen.series(8).coeffs[4:] == (0,) * 5


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


def numbers(lo, hi, open_lo=False, open_hi=False):
    """A number in [lo, hi] (an end left out when open) as a Fraction or a float; str() gives its spec text."""
    lo, hi = Fraction(lo), Fraction(hi)
    values = st.one_of(st.fractions(lo, hi, max_denominator=12), st.floats(float(lo), float(hi)))
    return values.filter(lambda x: (lo < x if open_lo else lo <= x) and (x < hi if open_hi else x <= hi))


def janowski_params():
    # B < A as floats too: float A - B must not round B1 to 0
    pairs = st.tuples(numbers(-1, 1), numbers(-1, 1))
    return pairs.filter(lambda ab: ab[1] < ab[0] and float(ab[1]) < float(ab[0]))


SPEC_TEXTS = st.one_of(
    st.builds("{}:lambda={}:{}".format, st.sampled_from(["st", "m"]), numbers(0, 4), st.one_of(
        janowski_params().map(lambda ab: "janowski:A={},B={}".format(*ab)),
        numbers(0, 1, open_hi=True).map("order:rho={}".format),
        numbers(0, 1, open_lo=True).map("strong:beta={}".format),
        st.tuples(numbers(0, 2, open_lo=True), numbers(-2, 2), numbers(-2, 2))
        .map(lambda B: "custom:B1={},B2={},B3={}".format(*B)),
    )),
    numbers(0, 1, open_lo=True).map("ss:beta={}".format),
)


@settings(max_examples=300, deadline=None)
@given(SPEC_TEXTS)
# a float that is an integer must print as a float: A - B is a float here, not 1/3
@example("st:lambda=0.0:janowski:A=0.0,B=-1/3")
def test_parse_roundtrip_over_the_grammar(text):
    spec = parse_spec(text)
    canonical = spec.text()
    assert parse_spec(canonical) == spec
    assert parse_spec(canonical).text() == canonical


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


@pytest.mark.parametrize("bad,message", [
    ("st:lambda=0:janowski:A=1,B=2", "-1 <= B < A <= 1"),
    ("st:lambda=0:custom:B1=-1,B2=0,B3=0", "B1 > 0"),
    ("st:lambda=-1:order:rho=0", "lambda must be >= 0"),
    ("st:lambda=0:order:rho=1", "0 <= rho < 1"),
    ("ss:beta=2", "0 < beta <= 1"),
])
def test_parse_reports_validation_errors_as_parse_errors(bad, message):
    with pytest.raises(SpecParseError) as info:
        parse_spec(bad)
    assert message in str(info.value)


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


# -- the exact route against its full-order and Newton references -------------


FLOAT_CLASSES = ["m:lambda=0.3:strong:beta=0.7", "st:lambda=0.5:janowski:A=1,B=-1",
                 "m:lambda=1e16:order:rho=0"]
POLYNOMIAL_CLASSES = ["m:lambda=1/2:order:rho=0", "st:lambda=0.5:strong:beta=1/3"]


def _reference_cases(rng):
    """(spec, p) over Fraction, decimal, huge-lambda, complex-generator and Polynomial scalars."""
    cases = []
    for m in (3, 4):
        for _ in range(4):
            p = tuple(random_fraction(rng, -1, 1) for _ in range(m))
            cases.append((random_spec(rng), p))
        cases.append((parse_spec("ss:beta=1/2"), p))
        cases += [(parse_spec(text), sample(seed, m)) for seed, text in enumerate(FLOAT_CLASSES)]
        complex_gen = MindaGenerator((1, 0.5 + 0.25j, -0.25j))
        cases += [(ClassSpec(op, Fraction(1, 3), complex_gen), sample(7, m)) for op in ("st", "m")]
        poly = tuple(Polynomial({(k,): 1}) for k in range(m))
        cases += [(parse_spec(text), poly) for text in POLYNOMIAL_CLASSES]
    return cases


def _keys(values):
    return [exact_key(v) for v in values]


def test_solve_equals_the_full_order_solve_bit_for_bit(rational_rng):
    for spec, p in _reference_cases(rational_rng):
        a, ref = solve_coefficients(spec, p), full_order_solve(spec, p)
        assert _keys((a.a2, a.a3, a.a4, a.a5)) == _keys((ref.a2, ref.a3, ref.a4, ref.a5)), spec.text()


def _rational(v):
    leaves = v.terms.values() if isinstance(v, Polynomial) else [v]
    return all(isinstance(c, Fraction) for c in leaves)


def test_exact_implied_q_equals_the_newton_route_bit_for_bit(rational_rng, monkeypatch):
    # float results differ in the last digits; test_series bounds that difference
    cases = []
    for spec, p in _reference_cases(rational_rng):
        a = solve_coefficients(spec, p)
        q = implied_q(spec, a)
        if all(_rational(v) for v in q):
            cases.append((spec, a, q))
    assert len(cases) == 12
    monkeypatch.setattr(classes, "revert", newton_revert)
    for spec, a, q in cases:
        assert _keys(q) == _keys(implied_q(spec, a)), spec.text()


# -- internal faults ---------------------------------------------------------


def test_zero_pivot_in_forward_solve_raises(monkeypatch):
    spec = parse_spec("st:lambda=0:order:rho=0")
    frozen = TruncatedSeries([Fraction(1)] + [Fraction(0)] * 4, 4)
    monkeypatch.setattr(classes, "apply_operator", lambda spec, f: frozen)
    with pytest.raises(ZeroPivotError) as info:
        solve_coefficients(spec, (Fraction(1), Fraction(0), Fraction(0)))
    assert not isinstance(info.value, ValueError)
