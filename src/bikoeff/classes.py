"""Function-class machinery: generators, differential operators, coefficient systems.

A class is a pair (operator, generator).  The two operators are

* ``st``:  z f'/f + lambda z^2 f''/f
* ``m``:   lambda (1 + z f''/f') + (1 - lambda) z f'/f, expanded as
  z f'/f + lambda (1 + z f''/f' - z f'/f)

The generator is an analytic function phi(z) = 1 + B1 z + B2 z^2 + ...
with positive real part and B1 > 0.  Coefficient systems are never
hard-coded here: they are obtained by expanding the operator generically
and solving the resulting triangular system order by order.  The printed
closed forms live in the test fixtures and in the oracle's fast path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational

from .series import (
    TruncatedSeries,
    CoefficientVector,
    SeriesError,
    compose,
    mobius_to_disk,
    revert,
)

DEFAULT_ORDER = 6  # one past a5: the guard coefficient catches truncation slips


class SpecParseError(ValueError):
    pass


class ZeroPivotError(ArithmeticError):
    """A triangular solve met a zero pivot: an internal fault for any validated spec."""


@dataclass(frozen=True)
class MindaGenerator:
    """Generator phi as its coefficients (B1, ..., BK) plus family metadata."""

    B: tuple
    family: str = "custom"  # janowski | order | strong | custom
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.B) < 3:
            raise ValueError("generator needs at least B1, B2, B3")
        if not complex(self.B[0]).real > 0 or complex(self.B[0]).imag != 0:
            raise ValueError("normalization requires B1 > 0")
        object.__setattr__(self, "B", tuple(self.B))

    def series(self, order=DEFAULT_ORDER):
        """phi truncated at ``order``.

        A named family is rebuilt by its rule past the stored coefficients;
        a custom generator's coefficients past B3 are 0.
        """
        B = self.B
        if order > len(B) and self.family != "custom":
            rule, _ = _FAMILIES[self.family]
            B = rule(**self.params, K=order).B
        return TruncatedSeries([1, *B[:order]], order)


def janowski_coeffs(A, B, K=DEFAULT_ORDER) -> MindaGenerator:
    """Generator of (1+Az)/(1+Bz): Bn = (-B)^(n-1) (A-B), for -1 <= B < A <= 1."""
    if not (-1 <= B < A <= 1):
        raise ValueError("janowski generator requires -1 <= B < A <= 1")
    coeffs = [(-B) ** (n - 1) * (A - B) for n in range(1, K + 1)]
    return MindaGenerator(tuple(coeffs), "janowski", {"A": A, "B": B})


def order_coeffs(rho, K=DEFAULT_ORDER) -> MindaGenerator:
    """Starlike-of-order-rho generator (1+(1-2 rho)z)/(1-z): all Bn = 2(1-rho)."""
    if not (0 <= rho < 1):
        raise ValueError("order parameter requires 0 <= rho < 1")
    gen = janowski_coeffs(1 - 2 * rho, -1, K)
    return MindaGenerator(gen.B, "order", {"rho": rho})


def strong_coeffs(beta, K=DEFAULT_ORDER) -> MindaGenerator:
    """Generator ((1+z)/(1-z))^beta for 0 < beta <= 1.

    (1 - z^2) phi' = 2 beta phi gives (n+1) B_{n+1} = 2 beta B_n + (n-1) B_{n-1}
    from B0 = 1, B1 = 2 beta; exact at every order for rational beta.
    """
    if not (0 < beta <= 1):
        raise ValueError("strong parameter requires 0 < beta <= 1")
    b = Fraction(beta) if isinstance(beta, Rational) else beta
    coeffs = [1, 2 * b]
    for n in range(1, K):
        coeffs.append((2 * b * coeffs[n] + (n - 1) * coeffs[n - 1]) / (n + 1))
    return MindaGenerator(tuple(coeffs[1 : K + 1]), "strong", {"beta": beta})


# family -> (its rule, parameter names in text order); custom's are its stored B1, B2, B3
_FAMILIES = {
    "janowski": (janowski_coeffs, ("A", "B")),
    "order": (order_coeffs, ("rho",)),
    "strong": (strong_coeffs, ("beta",)),
    "custom": (lambda *B: MindaGenerator(B), ("B1", "B2", "B3")),
}


@dataclass(frozen=True)
class ClassSpec:
    """A bi-univalent function class: operator tag, lambda, and generator."""

    operator: str  # "st" | "m"
    lam: object  # real >= 0, Fraction kept exact when given exactly
    generator: MindaGenerator

    def __post_init__(self):
        if self.operator not in ("st", "m"):
            raise ValueError(f"unknown operator {self.operator!r}")
        if complex(self.lam).real < 0 or complex(self.lam).imag != 0:
            raise ValueError("lambda must be >= 0")

    def text(self) -> str:
        """Canonical spec text, e.g. ``st:lambda=1/2:order:rho=0``."""
        gen = self.generator
        _, names = _FAMILIES[gen.family]
        values = gen.B if gen.family == "custom" else [gen.params[k] for k in names]
        params = ",".join(f"{k}={_fmt_num(v)}" for k, v in zip(names, values))
        return f"{self.operator}:lambda={_fmt_num(self.lam)}:{gen.family}:{params}"


def _fmt_num(x):
    """Text that ``_parse_num`` reads back as ``x``: a float keeps its repr, so it stays a float."""
    return str(Fraction(x)) if isinstance(x, Rational) else str(x)


def _parse_num(text):
    """Finite numbers as decimals or exact fractions p/q; fractions stay exact."""
    text = text.strip()
    try:
        if "/" in text:
            return Fraction(text)
        if "." in text or "e" in text.lower():
            value = float(text)
            if not math.isfinite(value):
                raise ValueError
            return value
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecParseError(f"bad number {text!r}") from exc


def parse_spec(text: str) -> ClassSpec:
    """Parse the colon-separated class grammar.

    Examples: ``st:lambda=0.5:janowski:A=1,B=-1``, ``m:lambda=1:strong:beta=0.5``,
    ``ss:beta=0.5`` (shorthand for ``st:lambda=0:strong:beta=...``).
    Unknown keys are errors.
    """
    tokens = [t for t in text.strip().split(":") if t != ""]
    if not tokens:
        raise SpecParseError("empty class spec")
    head = tokens.pop(0).lower()
    kv = {}
    fam = None
    for tok in tokens:
        if "=" in tok:
            for pair in tok.split(","):
                if "=" not in pair:
                    raise SpecParseError(f"bad key=value segment {pair!r}")
                k, v = pair.split("=", 1)
                k = k.strip()
                if k in kv:
                    raise SpecParseError(f"duplicate key {k!r}")
                kv[k] = _parse_num(v)
        else:
            if fam is not None:
                raise SpecParseError(f"unexpected segment {tok!r}")
            fam = tok.lower()

    try:
        return _build_spec(head, fam, kv)
    except SpecParseError:
        raise
    except ValueError as exc:  # generator or ClassSpec validation
        raise SpecParseError(str(exc)) from exc


def _build_spec(head, fam, kv) -> ClassSpec:
    def take(key):
        if key not in kv:
            raise SpecParseError(f"missing key {key!r}")
        return kv.pop(key)

    if head == "ss":  # shorthand for st:lambda=0:strong:...
        extra = sorted(set(kv) - set(_FAMILIES["strong"][1])) + ([fam] if fam else [])
        if extra:
            raise SpecParseError(f"unknown keys for ss class: {extra}")
        head, fam = "st", "strong"
    if head not in ("st", "m"):
        raise SpecParseError(f"unknown class family {head!r}")
    lam = kv.pop("lambda", Fraction(0))
    if fam is None:
        raise SpecParseError("missing generator family segment")
    if fam not in _FAMILIES:
        raise SpecParseError(f"unknown generator family {fam!r}")
    rule, names = _FAMILIES[fam]
    gen = rule(*(take(k) for k in names))
    if kv:
        raise SpecParseError(f"unknown keys: {sorted(kv)}")
    return ClassSpec(head, lam, gen)


# ---------------------------------------------------------------------------
# Operator expansion and coefficient systems
# ---------------------------------------------------------------------------


def apply_operator(spec: ClassSpec, f: TruncatedSeries) -> TruncatedSeries:
    """Expand the class operator of ``spec`` applied to normalized f.

    Result is truncated at ``f.order - 1``.
    """
    if f.coeffs[0] != 0 or f.coeffs[1] != 1:
        raise SeriesError("operator requires a normalized series (f(0)=0, f'(0)=1)")
    n_over = f.order - 1
    zfp = TruncatedSeries([k * f.coeffs[k] for k in range(f.order + 1)], f.order)
    if spec.operator == "st":
        z2fpp = TruncatedSeries(
            [k * (k - 1) * f.coeffs[k] for k in range(f.order + 1)], f.order
        )
        num = (zfp + z2fpp * spec.lam).shift_down()
        return num / f.shift_down()
    # m-operator as z f'/f + lambda (1 + z f''/f' - z f'/f): the constant
    # term is exactly 1 + lambda * 0, where lambda + (1 - lambda) may round
    fprime = TruncatedSeries(f.derivative().coeffs, f.order)
    # z f'' has coefficient n(n-1) a_n at z^(n-1)
    zfpp = TruncatedSeries([(k + 1) * k * f.coeffs[k + 1] for k in range(f.order)], f.order)
    term_st = (zfp.shift_down() / f.shift_down()).truncate(n_over)
    return term_st + ((zfpp / fprime).truncate(n_over) + 1 - term_st) * spec.lam


def subordination_target(spec: ClassSpec, p: TruncatedSeries) -> TruncatedSeries:
    """phi((p(z)-1)/(p(z)+1)) for a Caratheodory-style series p with p(0)=1."""
    return compose(spec.generator.series(p.order), mobius_to_disk(p))


def _solve_normalized(spec: ClassSpec, target: TruncatedSeries) -> TruncatedSeries:
    """Find normalized f with operator(f) = target, order by order.

    The n-th coefficient enters the (n-1)-th operator coefficient linearly,
    so a two-point evaluation recovers it exactly (pivot positive for
    lambda >= 0, so a zero pivot is an internal fault).  Step n expands the
    operator only to order n - 1: coefficient n - 1 comes from the same
    operations in the same order as at full order, so every scalar type,
    floats included, gives the same digits.
    """
    order = target.order + 1
    coeffs = [0, 1] + [0] * (order - 1)
    for n in range(2, order + 1):
        base = apply_operator(spec, TruncatedSeries(coeffs[: n + 1], n))
        probe_coeffs = coeffs[: n + 1]
        probe_coeffs[n] = 1
        probe = apply_operator(spec, TruncatedSeries(probe_coeffs, n))
        pivot = probe.coeffs[n - 1] - base.coeffs[n - 1]
        if pivot == 0:
            raise ZeroPivotError(f"zero pivot solving a{n} for {spec.text()}")
        coeffs[n] = (target.coeffs[n - 1] - base.coeffs[n - 1]) / pivot
    return TruncatedSeries(coeffs, order)


def solve_coefficients(spec: ClassSpec, p) -> CoefficientVector:
    """Solve a2, a3, a4 (and a5 when p has 4 entries) from the p-side system."""
    entries = list(p)
    if len(entries) < 3:
        raise ValueError("need at least (p1, p2, p3)")
    m = len(entries)
    target = subordination_target(spec, TruncatedSeries([1, *entries], m))
    f = _solve_normalized(spec, target)
    a5 = f.coeffs[5] if m >= 4 else None
    return CoefficientVector(f.coeffs[2], f.coeffs[3], f.coeffs[4], a5)


def implied_q(spec: ClassSpec, a: CoefficientVector):
    """The unique (q1, ..., qm) making the inverse-function equations hold.

    The operator of the inverse function g equals phi(w) for the Schwarz
    function w = (q - 1)/(q + 1).  With psi = (phi - 1)/B1, normalized since
    B1 > 0, w = revert(psi)((target - 1)/B1) and q = (1 + w)/(1 - w).
    """
    target = apply_operator(spec, revert(a.as_series()))
    phi = spec.generator.series(target.order)
    B1 = phi.coeffs[1]
    w = compose(revert((phi - 1) / B1), (target - 1) / B1)
    return ((1 + w) / (1 - w)).coeffs[1:]
