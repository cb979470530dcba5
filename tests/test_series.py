import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bikoeff.series import (
    CoefficientVector,
    Polynomial,
    SeriesError,
    TruncatedSeries,
    compose,
    mobius_to_disk,
    revert,
)

from conftest import random_fraction
from helpers import newton_revert

fractions_st = st.fractions(min_value=-3, max_value=3, max_denominator=12)


def series_st(order=5, first_unit=False):
    def build(tail):
        head = [Fraction(0), Fraction(1)] if first_unit else []
        return TruncatedSeries(head + tail, order)

    n = order + 1 - (2 if first_unit else 0)
    return st.lists(fractions_st, min_size=n, max_size=n).map(build)


# -- construction and scalars ----------------------------------------------


def test_int_entries_become_fractions_and_other_scalars_are_kept():
    poly = Polynomial({(0,): 1})
    s = TruncatedSeries([1, 2.5, 1j, Fraction(1, 2), poly], 5)
    assert [type(c) for c in s.coeffs] == [Fraction, float, complex, Fraction, Polynomial, Fraction]
    assert s.coeffs[4] is poly
    assert TruncatedSeries([1, 3]) / 3 == TruncatedSeries([Fraction(1, 3), 1])


def test_zero_padding_and_truncation():
    s = TruncatedSeries([1, 2], order=4)
    assert s.coeffs == (1, 2, 0, 0, 0)
    assert s.truncate(1).coeffs == (1, 2)
    with pytest.raises(SeriesError):
        s.truncate(9)


def test_mixed_scalars_give_the_promote_first_result():
    # Python mixes a Fraction with a complex as complex(Fraction), so no promotion step is needed
    exact = TruncatedSeries([1, Fraction(1, 3), Fraction(-2, 7), Fraction(5, 11)], 3)
    approx = TruncatedSeries([1.5 - 0.25j, 0.5j, -1.25 + 0j, 2 + 1j], 3)
    promoted = TruncatedSeries([complex(c) for c in exact.coeffs], 3)
    assert exact * approx == promoted * approx
    assert exact / approx == promoted / approx
    assert approx / exact == approx / promoted
    assert compose(exact, approx - approx[0]) == compose(promoted, approx - approx[0])
    assert compose(approx, exact - 1) == compose(approx, promoted - 1)
    assert all(type(c) is complex for c in (exact * approx).coeffs)
    # dyadic entries, so Fraction and float arithmetic agree bit for bit
    f = TruncatedSeries([0, 1, Fraction(1, 2), 0.25 - 0.5j, Fraction(-3, 4), 0.125j], 5)
    assert revert(f) == revert(TruncatedSeries([complex(c) for c in f.coeffs], 5))


def test_scalar_int_embeds_in_float_backend():
    approx = TruncatedSeries([1.0, 0.5], 3)
    assert (approx + 1).coeffs[0] == 2.0


def test_float_products_sum_left_to_right_from_zero():
    # sum() compensates float sums from Python 3.12 on, which gave z^3 = 2.0
    # here; the explicit loop gives 3.11's digits on every version
    a = TruncatedSeries([1.0, 1e100, 1.0, -1e100]) * TruncatedSeries([1.0, 1.0, 1.0, 1.0])
    assert a.coeffs == (1.0, 1e100, 1e100, 0.0)
    assert math.copysign(1.0, (TruncatedSeries([-0.0]) * TruncatedSeries([1.0]))[0]) == 1.0
    f = TruncatedSeries([0, 1, 0.1, 0.2, 0.3, 0.7])
    assert compose(f, revert(f)).coeffs == (
        0.0, 1.0, 0.0, 0.0, -2.7755575615628914e-17, -1.1102230246251565e-16
    )


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


def _normalized(entries_st, order):
    return st.lists(entries_st, min_size=order - 1, max_size=order - 1).map(
        lambda tail: TruncatedSeries([0, 1, *tail], order)
    )


dyadic_complex_st = st.builds(
    lambda re, im: complex(re / 4, im / 4), st.integers(-12, 12), st.integers(-12, 12)
)
polynomial_st = st.dictionaries(
    st.lists(st.integers(0, 2), max_size=2).map(lambda mono: tuple(sorted(mono))),
    fractions_st,
    max_size=2,
).map(Polynomial)


def _assert_same_as_newton(f):
    g, h = revert(f), newton_revert(f)
    assert g == h
    if any(c != 0 for c in f.coeffs[2:]):  # at f = z Newton returns the identity's Fraction entries
        assert [type(c) for c in g.coeffs] == [type(c) for c in h.coeffs]


@settings(max_examples=40, deadline=None)
@given(series_st(order=6, first_unit=True))
def test_revert_equals_newton_on_fractions(f):
    _assert_same_as_newton(f)


@settings(max_examples=40, deadline=None)
@given(_normalized(dyadic_complex_st, 6))
def test_revert_equals_newton_on_dyadic_complex_entries(f):
    # quarter-integer parts, so every product and sum is exact in floats
    _assert_same_as_newton(f)


@settings(max_examples=15, deadline=None)
@given(_normalized(polynomial_st, 5))
def test_revert_equals_newton_on_polynomial_entries(f):
    _assert_same_as_newton(f)


@settings(max_examples=60, deadline=None)
@given(_normalized(st.integers(-3 * 10**6, 3 * 10**6).map(lambda i: i / 10**6), 6))
def test_revert_agrees_with_newton_on_floats(f):
    # each coefficient within 1e-13 of the same coefficient of the majorant
    # series revert(z - sum |a_k| z^k), which bounds the magnitudes both routes sum
    g, h = revert(f), newton_revert(f)
    majorant = revert(TruncatedSeries([0, 1, *(-abs(c) for c in f.coeffs[2:])], f.order))
    assert all(type(c) is float for c in g.coeffs)
    for n in range(f.order + 1):
        assert abs(g[n] - h[n]) <= 1e-13 * majorant[n]


def test_revert_entries_are_of_fs_kind():
    # every entry, also where f = z, which Newton's first zero residual returned as Fractions
    for tail, kind in (([Fraction(1, 2), 0], Fraction), ([0.5, 0], float), ([0j, 0], complex),
                       ([Polynomial(), 0], Polynomial), ([0.0, Polynomial({(0,): 1})], Polynomial)):
        g = revert(TruncatedSeries([0, 1, *tail], 3))
        assert [type(c) for c in g.coeffs] == [kind] * 4


@settings(max_examples=40, deadline=None)
@given(series_st(order=5, first_unit=True))
def test_revert_roundtrip(f):
    g = revert(f)
    assert compose(f, g) == TruncatedSeries([0, 1], 5)
    assert compose(g, f) == TruncatedSeries([0, 1], 5)


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
    assert mobius_to_disk(p) == TruncatedSeries([0, 1], 5)
