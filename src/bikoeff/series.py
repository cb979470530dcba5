"""Truncated formal power-series algebra.

Everything in this package that expands a function class operator, a
generator, or an inverse function runs through :class:`TruncatedSeries`.
Two scalar backends are supported and never mixed implicitly:

* ``exact`` -- entries are :class:`fractions.Fraction`; every operation is
  bit-exact, which is what the identity tests require.
* ``float`` -- entries are ``complex``; this is the fast backend the
  numerical oracle uses.

Entries of any other type, here :class:`Polynomial`, fall into an
``object`` kind that mixes with either backend; arithmetic is delegated
to the entries themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from numbers import Rational


class SeriesError(ValueError):
    pass


class SeriesKindError(SeriesError):
    """Raised when two series with incompatible scalar kinds are combined."""


def _kind_of(value):
    if isinstance(value, (int, Rational)):
        return "exact"
    if isinstance(value, (float, complex)):
        return "float"
    return "object"


def _merge_kinds(a, b):
    if a == b:
        return a
    if "object" in (a, b):
        return "object"
    raise SeriesKindError(
        f"cannot combine {a} and {b} series without explicit promotion"
    )


def _coerce(value, kind):
    if kind == "exact":
        return value if isinstance(value, Fraction) else Fraction(value)
    if kind == "float":
        return complex(value)
    return value


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

    __slots__ = ("order", "coeffs", "scalar_kind")

    def __init__(self, coeffs, order=None):
        coeffs = list(coeffs)
        if order is None:
            order = len(coeffs) - 1
        if order < 0:
            raise SeriesError("order must be nonnegative")
        if len(coeffs) < order + 1:
            coeffs = coeffs + [0] * (order + 1 - len(coeffs))
        coeffs = coeffs[: order + 1]
        kinds = {_kind_of(c) for c in coeffs}
        if kinds == {"exact"} or not kinds:
            kind = "exact"
        elif kinds <= {"exact", "float"}:
            kind = "float"
        else:
            kind = "object"
        self.scalar_kind = kind
        self.coeffs = tuple(_coerce(c, kind) for c in coeffs)
        self.order = order

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order, kind="exact"):
        z = Fraction(0) if kind == "exact" else complex(0)
        return cls([z] * (order + 1), order)

    @classmethod
    def identity(cls, order, kind="exact"):
        """The series ``z``."""
        s = cls.zero(order, kind)
        return s._replace(1, 1)

    def _replace(self, index, value):
        coeffs = list(self.coeffs)
        coeffs[index] = value
        return TruncatedSeries(coeffs, self.order)

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

    def as_float(self):
        """Explicit promotion to the complex-float backend."""
        return TruncatedSeries([complex(c) for c in self.coeffs], self.order)

    def truncate(self, order):
        if order > self.order:
            raise SeriesError("cannot extend a truncated series")
        return TruncatedSeries(list(self.coeffs[: order + 1]), order)

    def _scalar(self, value):
        # plain ints embed in either backend; anything else must match kinds
        if isinstance(value, int):
            return _coerce(value, self.scalar_kind)
        kind = _merge_kinds(self.scalar_kind, _kind_of(value))
        return _coerce(value, kind)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return self._replace(0, self.coeffs[0] + self._scalar(other))
        order = min(self.order, other.order)
        return TruncatedSeries(
            [self.coeffs[k] + other.coeffs[k] for k in range(order + 1)], order
        )

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries([-c for c in self.coeffs], self.order)

    def __sub__(self, other):
        return self + (-other if isinstance(other, TruncatedSeries) else -self._scalar(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            s = self._scalar(other)
            return TruncatedSeries([c * s for c in self.coeffs], self.order)
        order = min(self.order, other.order)
        _merge_kinds(self.scalar_kind, other.scalar_kind)
        out = []
        for n in range(order + 1):
            acc = sum(self.coeffs[k] * other.coeffs[n - k] for k in range(n + 1))
            out.append(acc)
        return TruncatedSeries(out, order)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, TruncatedSeries):
            s = self._scalar(other)
            return TruncatedSeries([c / s for c in self.coeffs], self.order)
        _merge_kinds(self.scalar_kind, other.scalar_kind)
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
        if self.order == 0:
            return TruncatedSeries([self.coeffs[0] * 0], 0)
        return TruncatedSeries(
            [(k + 1) * self.coeffs[k + 1] for k in range(self.order)], self.order - 1
        )

    def shift_down(self):
        """Divide by z; requires a zero constant term."""
        if self.coeffs[0] != 0:
            raise SeriesError("cannot divide by z: nonzero constant term")
        return TruncatedSeries(list(self.coeffs[1:]), self.order - 1)


def compose(outer: TruncatedSeries, inner: TruncatedSeries) -> TruncatedSeries:
    """Coefficients of outer(inner(z)) to the common truncation order."""
    if inner.coeffs[0] != 0:
        raise SeriesError("composition requires inner series with zero constant term")
    order = min(outer.order, inner.order)
    result = TruncatedSeries([outer.coeffs[order] * 1] + [outer.coeffs[0] * 0] * order, order)
    for k in range(order - 1, -1, -1):
        result = result * inner.truncate(order) + outer.coeffs[k]
    return result


def revert(f: TruncatedSeries) -> TruncatedSeries:
    """Compositional inverse of a normalized series (f(0)=0, f'(0)=1).

    Newton iteration on g -> g - (f(g) - z)/f'(g); the triangular-solve
    route lives in the test suite as an independent cross-check.
    """
    if f.coeffs[0] != 0:
        raise SeriesError("reversion requires zero constant term")
    if f.coeffs[1] != 1:
        raise SeriesError("reversion requires unit linear coefficient")
    order = f.order
    zero = f.coeffs[0] * 0
    ident = TruncatedSeries([zero, f.coeffs[1]] + [zero] * (order - 1), order)
    # f is a genuine polynomial here, so padding f' with zeros keeps full order
    fprime = TruncatedSeries(list(f.derivative().coeffs), order)
    g = ident
    for _ in range(order.bit_length() + 2):
        residual = compose(f, g) - ident
        if all(c == 0 for c in residual.coeffs):
            break
        g = g - residual / compose(fprime, g)
    return g


def mobius_to_disk(p: TruncatedSeries) -> TruncatedSeries:
    """(p(z)-1)/(p(z)+1): the Schwarz-function series behind a Caratheodory p."""
    if p.coeffs[0] != 1:
        raise SeriesError("mobius_to_disk requires constant term 1")
    return (p - 1) / (p + 1)
