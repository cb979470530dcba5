"""Truncated formal power-series algebra.

Everything in this package that expands a function class operator, a
generator, or an inverse function runs through :class:`TruncatedSeries`.
Its entries are whatever scalars it is given -- :class:`fractions.Fraction`,
``float``, ``complex`` or :class:`Polynomial` -- and Python's own arithmetic
mixes them: Fraction entries stay bit-exact, which is what the identity
tests require, and one float entry makes the results it touches floats.
An ``int`` entry is taken as a Fraction, so dividing two ints stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product


class SeriesError(ValueError):
    pass


@dataclass(frozen=True)
class CoefficientVector:
    """Initial Taylor-Maclaurin coefficients of a normalized function f(z)=z+a2 z^2+..."""

    a2: object
    a3: object
    a4: object
    a5: object = None

    def as_series(self):
        coeffs = [0, 1, self.a2, self.a3, self.a4]
        return TruncatedSeries(coeffs if self.a5 is None else coeffs + [self.a5])


class Polynomial:
    """A sparse polynomial: ``terms`` maps monomials, sorted variable indices, to nonzero coefficients.

    (0, 0, 1) is x0**2 x1.  Division is by a constant only, and an int
    divisor is taken as a Fraction, so the series' division stays exact.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        self.terms = {mono: c for mono, c in dict(terms).items() if c != 0}

    @staticmethod
    def _terms(value):
        return value.terms if isinstance(value, Polynomial) else Polynomial({(): value}).terms

    def __eq__(self, other):
        return self.terms == self._terms(other)

    def __add__(self, other):
        terms = dict(self.terms)
        for mono, c in self._terms(other).items():
            terms[mono] = terms.get(mono, 0) + c
        return Polynomial(terms)

    def __mul__(self, other):
        terms = {}
        for (m1, c1), (m2, c2) in product(self.terms.items(), self._terms(other).items()):
            mono = tuple(sorted(m1 + m2))
            terms[mono] = terms.get(mono, 0) + c1 * c2
        return Polynomial(terms)

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    __radd__ = __add__
    __rmul__ = __mul__

    def __truediv__(self, other):
        if set(self._terms(other)) != {()}:
            raise SeriesError("a polynomial divides only by a nonzero constant")
        c = self._terms(other)[()]
        c = Fraction(c) if isinstance(c, int) else c  # int / int would give a float
        return Polynomial({mono: v / c for mono, v in self.terms.items()})


class TruncatedSeries:
    """Coefficients of a formal power series, truncated at ``order`` (inclusive)."""

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs, order=None):
        coeffs = list(coeffs)
        if order is None:
            order = len(coeffs) - 1
        if order < 0:
            raise SeriesError("order must be nonnegative")
        coeffs = (coeffs + [0] * (order + 1 - len(coeffs)))[: order + 1]
        # int / int would give a float; every other scalar is kept as given
        self.coeffs = tuple(Fraction(c) if isinstance(c, int) else c for c in coeffs)
        self.order = order

    # -- helpers -----------------------------------------------------------

    def __getitem__(self, n):
        return self.coeffs[n]

    def __len__(self):
        return self.order + 1

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __repr__(self):
        return f"TruncatedSeries({list(self.coeffs)!r})"

    def truncate(self, order):
        if order > self.order:
            raise SeriesError("cannot extend a truncated series")
        return TruncatedSeries(self.coeffs[: order + 1], order)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return TruncatedSeries([self.coeffs[0] + other, *self.coeffs[1:]], self.order)
        order = min(self.order, other.order)
        return TruncatedSeries(
            [self.coeffs[k] + other.coeffs[k] for k in range(order + 1)], order
        )

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries([-c for c in self.coeffs], self.order)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return TruncatedSeries([c * other for c in self.coeffs], self.order)
        order = min(self.order, other.order)
        out = []
        for n in range(order + 1):
            # an explicit loop, not sum(), which compensates float sums from Python 3.12 on
            acc = 0
            for k in range(n + 1):
                acc = acc + self.coeffs[k] * other.coeffs[n - k]
            out.append(acc)
        return TruncatedSeries(out, order)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, TruncatedSeries):
            return TruncatedSeries([c / other for c in self.coeffs], self.order)
        if other.coeffs[0] == 0:
            raise SeriesError("non-invertible series: zero constant term")
        order = min(self.order, other.order)
        out = []
        for n in range(order + 1):
            acc = self.coeffs[n]
            for k in range(n):
                acc = acc - out[k] * other.coeffs[n - k]
            out.append(acc / other.coeffs[0])
        return TruncatedSeries(out, order)

    def derivative(self):
        return TruncatedSeries(
            [(k + 1) * self.coeffs[k + 1] for k in range(self.order)], max(self.order - 1, 0)
        )

    def shift_down(self):
        """Divide by z; requires a zero constant term."""
        if self.coeffs[0] != 0:
            raise SeriesError("cannot divide by z: nonzero constant term")
        return TruncatedSeries(self.coeffs[1:], self.order - 1)


def compose(outer: TruncatedSeries, inner: TruncatedSeries) -> TruncatedSeries:
    """Coefficients of outer(inner(z)) to the common truncation order."""
    if inner.coeffs[0] != 0:
        raise SeriesError("composition requires inner series with zero constant term")
    order = min(outer.order, inner.order)
    inner = inner.truncate(order)
    result = TruncatedSeries([outer.coeffs[order]], order)
    for k in range(order - 1, -1, -1):
        result = result * inner + outer.coeffs[k]
    return result


def revert(f: TruncatedSeries) -> TruncatedSeries:
    """Compositional inverse g of a normalized series (f(0)=0, f'(0)=1), order by order.

    With T[k][n] = [z^n] g^k, the z^n coefficient of f(g) = z reads
    g_n + sum_{k=2..n} a_k T[k][n] = 0, and for k >= 2 the column
    T[k][n] = sum_j g_j T[k-1][n-j] needs only g_1..g_{n-1}: O(order^3)
    scalar products and no composition.  Every entry of g is of f's kind:
    the sum of f's entries times 0 seeds g_0 and g_1, so Polynomial
    entries give Polynomial ones.
    """
    if f.coeffs[0] != 0:
        raise SeriesError("reversion requires zero constant term")
    if f.coeffs[1] != 1:
        raise SeriesError("reversion requires unit linear coefficient")
    a = f.coeffs
    zero = a[0]
    for c in a[2:]:
        zero = zero + c * 0
    g = [zero, zero + a[1]]
    powers = [None, g]  # powers[k][n] = T[k][n], read only for n >= k
    for n in range(2, f.order + 1):
        powers.append([zero] * n)  # g^n starts at z^n
        # explicit loops, not sum(), which compensates float sums from Python 3.12 on
        acc = 0
        for k in range(2, n + 1):
            prev = powers[k - 1]
            t = 0
            for j in range(1, n - k + 2):
                t = t + g[j] * prev[n - j]
            powers[k].append(t)
            acc = acc + a[k] * t
        g.append(-acc)
    return TruncatedSeries(g, f.order)


def mobius_to_disk(p: TruncatedSeries) -> TruncatedSeries:
    """(p(z)-1)/(p(z)+1): the Schwarz-function series behind a Caratheodory p."""
    if p.coeffs[0] != 1:
        raise SeriesError("mobius_to_disk requires constant term 1")
    return (p - 1) / (p + 1)
