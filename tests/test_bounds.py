import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bikoeff.bounds import (
    BoundBreakdown,
    DegenerateBoundError,
    class_bounds,
    m_bounds,
    ss_beta_a5,
    st_bounds,
    st_rho_a5,
)
from bikoeff.classes import (
    ClassSpec,
    MindaGenerator,
    janowski_coeffs,
    order_coeffs,
    parse_spec,
    strong_coeffs,
)

SQRT2 = math.sqrt(2.0)


def values(spec_text):
    return tuple(b.value for b in class_bounds(parse_spec(spec_text)))


# -- reference points --------------------------------------------------------


def test_basic_bi_starlike_values():
    a2, a3, a4 = values("st:lambda=0:order:rho=0")
    assert abs(a2 - SQRT2) < 1e-12
    assert abs(a3 - 2.0) < 1e-12
    assert abs(a4 - (2.0 / 3.0) * (1 + 2 * SQRT2)) < 1e-12


def test_order_one_half_junction():
    assert all(abs(v - 1.0) < 1e-12 for v in values("st:lambda=0:order:rho=1/2"))


def test_bi_convex_a2():
    a2, _, _ = values("m:lambda=1:order:rho=0")
    assert abs(a2 - 1.0) < 1e-12


def test_strong_a2_closed_form():
    for beta in (0.25, 0.5, 0.75, 1.0):
        a2 = values(f"st:lambda=0:strong:beta={beta}")[0]
        assert abs(a2 - 2 * beta / math.sqrt(1 + beta)) < 1e-12


def test_operators_agree_at_lambda_zero():
    for gen_text in ("order:rho=1/4", "strong:beta=0.6", "janowski:A=0.5,B=-0.25"):
        st = values(f"st:lambda=0:{gen_text}")
        m = values(f"m:lambda=0:{gen_text}")
        assert all(abs(a - b) < 1e-12 for a, b in zip(st, m))


def test_order_family_closed_forms_on_grid():
    # for the half-plane generator all routes collapse to one expression
    for i in range(51):
        rho = 0.5 * i / 50
        B1 = 2 * (1 - rho)
        a2, a3, a4 = values(f"st:lambda=0:order:rho={rho}")
        assert abs(a2 - math.sqrt(B1)) < 1e-12
        assert abs(a3 - B1) < 1e-12
        assert abs(a4 - (B1 / 3 + 2 * B1**1.5 / 3)) < 1e-12


# -- the whole parameter space (hypothesis) ---------------------------------


def reals(lo, hi):
    return st.one_of(st.fractions(lo, hi, max_denominator=12), st.floats(lo, hi))


LAMBDAS = st.one_of(st.fractions(0, 10, max_denominator=12), st.floats(0, 1e300))
GENERATORS = st.one_of(
    st.tuples(reals(-1, 1), reals(-1, 1)).filter(lambda ba: ba[0] < ba[1])
    .map(lambda ba: janowski_coeffs(ba[1], ba[0])),
    reals(0, 1).filter(lambda rho: rho < 1).map(order_coeffs),
    reals(0, 1).filter(lambda beta: beta > 0).map(strong_coeffs),
    st.tuples(reals(0, 10).filter(lambda b1: b1 > 0), reals(-10, 10), reals(-10, 10)).map(MindaGenerator),
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(("st", "m")), LAMBDAS, GENERATORS)
def test_bounds_are_finite_and_nonnegative_or_degenerate(op, lam, gen):
    try:
        bounds = class_bounds(ClassSpec(op, lam, gen))
    except DegenerateBoundError:
        return
    assert all(math.isfinite(b.value) and b.value >= 0 for b in bounds)


# -- branch structure --------------------------------------------------------


def test_case_b_reachable_st():
    spec = ClassSpec("st", Fraction(0), MindaGenerator((0.5, 0.45, 0.4)))
    a2, a3, a4 = st_bounds(spec)
    assert a2.branch == "case_b"
    assert abs(a2.value - 0.5) < 1e-12  # B1 / (1 + 2 lambda)


def test_case_b_reachable_m():
    spec = ClassSpec("m", Fraction(0), MindaGenerator((0.5, 0.45, 0.4)))
    a2, _, _ = m_bounds(spec)
    assert a2.branch == "case_b"
    assert abs(a2.value - 0.5) < 1e-12


def test_a2_continuous_across_branch_switch():
    # janowski A=0, B=-1/2 sits exactly on the case boundary at lambda=0
    base = values("st:lambda=0:janowski:A=0,B=-1/2")[0]
    lo = values("st:lambda=0:janowski:A=-0.0001,B=-1/2")[0]
    hi = values("st:lambda=0:janowski:A=0.0001,B=-1/2")[0]
    assert parse_spec("st:lambda=0:janowski:A=0,B=-1/2").generator.B[:2] == (Fraction(1, 2), Fraction(1, 4))
    assert abs(lo - base) < 1e-3 and abs(hi - base) < 1e-3


def test_degenerate_denominator_raises():
    spec = ClassSpec("st", Fraction(0), MindaGenerator((Fraction(1, 2), Fraction(3, 4), Fraction(1, 2))))
    with pytest.raises(DegenerateBoundError):
        st_bounds(spec)


def test_breakdown_validation():
    with pytest.raises(ValueError):
        BoundBreakdown(-1.0, "case_a", "route_one")
    with pytest.raises(ValueError):
        BoundBreakdown(float("nan"), "case_a", "route_one")


def test_route_metadata_consistent():
    _, a3, a4 = st_bounds(parse_spec("st:lambda=1/2:strong:beta=0.7"))
    for b in (a3, a4):
        assert b.value == min(b.route_values.values())
        assert b.route in ("route_one", "route_two", "min")


def test_a2_monotone_in_lambda():
    prev = float("inf")
    for i in range(21):
        lam = 2.0 * i / 20
        a2 = values(f"st:lambda={lam}:order:rho=0")[0]
        assert a2 <= prev + 1e-12
        prev = a2


# -- strong-generator piecewise structure ------------------------------------


def test_strong_a3_piecewise():
    for beta in (0.05, 0.15, 0.25, 1.0 / 3.0):
        a3 = values(f"st:lambda=0:strong:beta={beta}")[1]
        assert abs(a3 - beta) < 1e-12
    for beta in (1.0 / 3.0, 0.4, 0.6, 0.8, 1.0):
        a3 = values(f"st:lambda=0:strong:beta={beta}")[1]
        assert abs(a3 - 4 * beta**2 / (1 + beta)) < 1e-12


def test_strong_a3_routes_cross_at_one_third():
    _, a3, _ = st_bounds(parse_spec("st:lambda=0:strong:beta=1/3"))
    r1, r2 = a3.route_values["route_one"], a3.route_values["route_two"]
    assert abs(r1 - r2) < 1e-12
    below = st_bounds(parse_spec("st:lambda=0:strong:beta=0.30"))[1]
    above = st_bounds(parse_spec("st:lambda=0:strong:beta=0.37"))[1]
    assert below.route != above.route


def strong_a4_display(beta, sign):
    q = 16 * beta**2 - 3 * beta - 1
    return (2 * beta / 3) * (1 + sign * 2 * q / (3 * (1 + beta) ** 1.5))


def test_strong_a4_piecewise_display():
    # the two displayed expressions meet where 16 b^2 - 3 b - 1 vanishes
    switch = (3 + math.sqrt(73)) / 32
    assert abs(strong_a4_display(switch, -1) - strong_a4_display(switch, +1)) < 1e-12
    for i in range(40):
        beta = 0.05 + 0.95 * i / 39
        a4 = values(f"st:lambda=0:strong:beta={beta}")[2]
        display = strong_a4_display(beta, -1 if beta <= switch else +1)
        assert abs(a4 - display) < 1e-12


# -- fifth-coefficient variants ----------------------------------------------


def test_order_a5_variants_agree_at_zero():
    expected = 13.0 / 6.0 + 2 * SQRT2 / 3
    assert abs(st_rho_a5(0, "stated") - expected) < 1e-12
    assert abs(st_rho_a5(0, "proof") - expected) < 1e-12


def test_order_a5_variant_values():
    assert abs(st_rho_a5(0.25, "stated") - 1.95612) < 1e-5
    assert abs(st_rho_a5(0.25, "proof") - 1.92487) < 1e-5


def test_strong_a5_variant_values():
    assert abs(ss_beta_a5(0.5, "stated") - 0.409605) < 1e-6
    assert abs(ss_beta_a5(0.5, "rederived") - 0.419893) < 1e-6


def test_strong_a5_rederived_dominates_stated():
    for i in range(21):
        beta = 0.5 + 0.5 * i / 20
        assert ss_beta_a5(beta, "rederived") >= ss_beta_a5(beta, "stated")


def test_a5_domain_and_variant_validation():
    with pytest.raises(ValueError):
        st_rho_a5(0.6)
    with pytest.raises(ValueError):
        st_rho_a5(0.2, "wrong")
    with pytest.raises(ValueError):
        ss_beta_a5(0.4)
    with pytest.raises(ValueError):
        ss_beta_a5(0.7, "wrong")
