from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bikoeff.series import (
    CoefficientVector,
    Polynomial,
    SeriesError,
    SeriesKindError,
    TruncatedSeries,
    compose,
    mobius_to_disk,
    revert,
)

from conftest import random_fraction

fractions_st = st.fractions(min_value=-3, max_value=3, max_denominator=12)


def series_st(order=5, first_unit=False):
    def build(tail):
        head = [Fraction(0), Fraction(1)] if first_unit else []
        return TruncatedSeries(head + tail, order)

    n = order + 1 - (2 if first_unit else 0)
    return st.lists(fractions_st, min_size=n, max_size=n).map(build)


# -- construction and kinds -------------------------------------------------


def test_kind_inference():
    assert TruncatedSeries([1, Fraction(1, 2)]).scalar_kind == "exact"
    assert TruncatedSeries([1.0, 2.0]).scalar_kind == "float"
    assert TruncatedSeries([1, 2.0]).scalar_kind == "float"


def test_zero_padding_and_truncation():
    s = TruncatedSeries([1, 2], order=4)
    assert s.coeffs == (1, 2, 0, 0, 0)
    assert s.truncate(1).coeffs == (1, 2)
    with pytest.raises(SeriesError):
        s.truncate(9)


def test_mixed_kind_arithmetic_raises():
    exact = TruncatedSeries([1, Fraction(1, 2)], 3)
    approx = TruncatedSeries([1.0, 0.5], 3)
    with pytest.raises(SeriesKindError):
        exact * approx
    assert (exact.as_float() * approx).scalar_kind == "float"


def test_scalar_int_embeds_in_float_backend():
    approx = TruncatedSeries([1.0, 0.5], 3)
    assert (approx + 1).coeffs[0] == 2.0


# -- ring laws (hypothesis) -------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(series_st(), series_st(), series_st())
def test_ring_laws(a, b, c):
    assert (a + b) - b == a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


@settings(max_examples=60, deadline=None)
@given(series_st())
def test_division_inverts_multiplication(a):
    b = a + (1 - a.coeffs[0])  # force invertible constant term
    assert (a * b) / b == a


def test_division_by_zero_constant_term():
    with pytest.raises(SeriesError, match="non-invertible"):
        TruncatedSeries([1, 2], 3) / TruncatedSeries([0, 1], 3)


def test_long_division_example():
    # (1+z)/(1-z) = 1 + 2z + 2z^2 + ...
    num = TruncatedSeries([1, 1], 4)
    den = TruncatedSeries([1, -1], 4)
    assert (num / den).coeffs == (1, 2, 2, 2, 2)


def test_derivative_shift_roundtrip():
    s = TruncatedSeries([0, 1, 2, 3], 3)
    assert s.derivative().coeffs == (1, 4, 9)
    assert s.shift_down() == TruncatedSeries([1, 2, 3], 2)


# -- composition and reversion ----------------------------------------------


def test_compose_linear():
    f = TruncatedSeries([0, 1, 1], 4)
    g = TruncatedSeries([0, 2], 4)
    assert compose(f, g).coeffs == (0, 2, 4, 0, 0)


def test_compose_requires_zero_constant():
    with pytest.raises(SeriesError):
        compose(TruncatedSeries([0, 1], 3), TruncatedSeries([1, 1], 3))


def revert_by_triangular_solve(f: TruncatedSeries) -> TruncatedSeries:
    """Independent reversion oracle: solve compose(f, g) = z coefficient by
    coefficient; g_n enters the n-th coefficient linearly with unit pivot."""
    order = f.order
    zero = f.coeffs[0] * 0
    coeffs = [zero, f.coeffs[1]] + [zero] * (order - 1)
    for n in range(2, order + 1):
        base = compose(f, TruncatedSeries(coeffs, order))
        probe_coeffs = list(coeffs)
        probe_coeffs[n] = zero + 1
        probe = compose(f, TruncatedSeries(probe_coeffs, order))
        pivot = probe.coeffs[n] - base.coeffs[n]
        target = zero + (1 if n == 1 else 0)
        coeffs[n] = (target - base.coeffs[n]) / pivot
    return TruncatedSeries(coeffs, order)


@settings(max_examples=40, deadline=None)
@given(series_st(order=5, first_unit=True))
def test_revert_matches_triangular_solve(f):
    assert revert(f) == revert_by_triangular_solve(f)


@settings(max_examples=40, deadline=None)
@given(series_st(order=5, first_unit=True))
def test_revert_roundtrip(f):
    g = revert(f)
    assert compose(f, g) == TruncatedSeries.identity(5)
    assert compose(g, f) == TruncatedSeries.identity(5)


def test_revert_koebe_catalan():
    # z/(1-z)^2 has a_n = n; its inverse starts with the signed Catalan numbers
    f = TruncatedSeries([0, 1, 2, 3, 4, 5], 5)
    g = revert(f)
    assert g.coeffs == (0, 1, -2, 5, -14, 42)


def test_revert_coefficient_polynomials(rational_rng):
    for _ in range(20):
        a2, a3, a4, a5 = (random_fraction(rational_rng) for _ in range(4))
        g = revert(CoefficientVector(a2, a3, a4, a5).as_series())
        assert g.coeffs[2] == -a2
        assert g.coeffs[3] == 2 * a2**2 - a3
        assert g.coeffs[4] == -(5 * a2**3 - 5 * a2 * a3 + a4)
        assert g.coeffs[5] == 14 * a2**4 - 21 * a2**2 * a3 + 3 * a3**2 + 6 * a2 * a4 - a5


def test_revert_over_polynomial_entries_is_exact():
    # an int divisor is taken as a Fraction, so int coefficients never divide as floats
    a2, a3, a4, a5 = (Polynomial({(k,): 1}) for k in range(4))
    g = revert(CoefficientVector(a2, a3, a4, a5).as_series())
    assert g.coeffs[5] == 14 * a2 * a2 * a2 * a2 - 21 * a2 * a2 * a3 + 3 * a3 * a3 + 6 * a2 * a4 - a5
    half = (1 - a2) / 2
    assert half.terms == {(): Fraction(1, 2), (0,): Fraction(-1, 2)}
    assert not any(isinstance(c, float) for e in (*g.coeffs, half) for c in e.terms.values())
    assert a2 - a2 == 0
    with pytest.raises(SeriesError):
        a2 / a3


def test_revert_requires_normalization():
    with pytest.raises(SeriesError):
        revert(TruncatedSeries([1, 1], 3))
    with pytest.raises(SeriesError):
        revert(TruncatedSeries([0, 2], 3))


# -- Mobius maps -------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(series_st())
def test_mobius_roundtrip(p):
    p = p + (1 - p.coeffs[0])  # constant term 1
    r = mobius_to_disk(p)
    assert (1 + r) / (1 - r) == p


def test_mobius_halfplane_to_disk_is_z():
    # (1+z)/(1-z) maps back to the identity
    p = TruncatedSeries([1, 1], 5) / TruncatedSeries([1, -1], 5)
    assert mobius_to_disk(p) == TruncatedSeries.identity(5)
