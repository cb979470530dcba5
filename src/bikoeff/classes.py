"""Function-class machinery: generators, differential operators, coefficient systems.

A class is a pair (operator, generator).  The two operators are

* ``st``:  z f'/f + lambda z^2 f''/f
* ``m``:   lambda (1 + z f''/f') + (1 - lambda) z f'/f

The generator is an analytic function phi(z) = 1 + B1 z + B2 z^2 + ...
with positive real part and B1 > 0.  Coefficient systems are never
hard-coded here: they are obtained by expanding the operator generically
and solving the resulting triangular system order by order.  The printed
closed forms live in the test fixtures and in the oracle's fast path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational

from .series import (
    TruncatedSeries,
    CoefficientVector,
    SeriesError,
    compose,
    mobius_to_disk,
    pow_real,
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
        """phi truncated at ``order``; exact if every coefficient is rational."""
        coeffs = [1] + list(self.B[:order])
        if len(coeffs) < order + 1:
            coeffs += [0] * (order + 1 - len(coeffs))
        if all(isinstance(c, (int, Rational)) for c in coeffs):
            return TruncatedSeries(coeffs, order)
        return TruncatedSeries([complex(c) for c in coeffs], order)


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

    B1, B2, B3 come from the closed forms 2b, 2b^2, (4b^3+2b)/3; higher
    coefficients are filled in by the formal power series of the base.
    """
    if not (0 < beta <= 1):
        raise ValueError("strong parameter requires 0 < beta <= 1")
    b = beta
    coeffs = [2 * b, 2 * b * b, (4 * b**3 + 2 * b) / (Fraction(3) if isinstance(b, (int, Rational)) else 3)]
    if K > 3:
        base = TruncatedSeries([1.0, 1.0] + [0.0] * (K - 1), K) / TruncatedSeries(
            [1.0, -1.0] + [0.0] * (K - 1), K
        )
        expanded = pow_real(base, float(beta))
        coeffs += [expanded.coeffs[n].real for n in range(4, K + 1)]
    return MindaGenerator(tuple(coeffs[:K]), "strong", {"beta": beta})


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
        parts = [self.operator, f"lambda={_fmt_num(self.lam)}"]
        fam = self.generator.family
        parts.append(fam)
        if fam == "janowski":
            parts.append(
                f"A={_fmt_num(self.generator.params['A'])},B={_fmt_num(self.generator.params['B'])}"
            )
        elif fam == "order":
            parts.append(f"rho={_fmt_num(self.generator.params['rho'])}")
        elif fam == "strong":
            parts.append(f"beta={_fmt_num(self.generator.params['beta'])}")
        else:
            parts.append(",".join(f"B{i+1}={_fmt_num(b)}" for i, b in enumerate(self.generator.B[:3])))
        return ":".join(parts)


def _fmt_num(x):
    if isinstance(x, Rational) and not isinstance(x, int):
        f = Fraction(x)
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
    if isinstance(x, float) and x.is_integer():
        return str(int(x))
    return str(x)


def _parse_num(text):
    """Numbers as decimals or exact fractions p/q; fractions stay exact."""
    text = text.strip()
    try:
        if "/" in text:
            return Fraction(text)
        if "." in text or "e" in text.lower():
            return float(text)
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

    def take(key):
        if key not in kv:
            raise SpecParseError(f"missing key {key!r}")
        return kv.pop(key)

    if head == "ss":
        beta = take("beta")
        if fam is not None or kv:
            raise SpecParseError(f"unknown keys for ss class: {sorted(kv) + ([fam] if fam else [])}")
        return ClassSpec("st", Fraction(0), strong_coeffs(beta))
    if head not in ("st", "m"):
        raise SpecParseError(f"unknown class family {head!r}")
    lam = kv.pop("lambda", Fraction(0))
    if fam is None:
        raise SpecParseError("missing generator family segment")
    if fam == "janowski":
        gen = janowski_coeffs(take("A"), take("B"))
    elif fam == "order":
        gen = order_coeffs(take("rho"))
    elif fam == "strong":
        gen = strong_coeffs(take("beta"))
    elif fam == "custom":
        gen = MindaGenerator((take("B1"), take("B2"), take("B3")), "custom")
    else:
        raise SpecParseError(f"unknown generator family {fam!r}")
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
    lam = float(spec.lam) if f.scalar_kind == "float" and isinstance(spec.lam, Rational) else spec.lam
    n_over = f.order - 1
    zfp = TruncatedSeries([k * f.coeffs[k] for k in range(f.order + 1)], f.order)
    if spec.operator == "st":
        z2fpp = TruncatedSeries(
            [k * (k - 1) * f.coeffs[k] for k in range(f.order + 1)], f.order
        )
        num = (zfp + z2fpp * lam).shift_down()
        return num / f.shift_down()
    # m-operator: lambda (1 + z f''/f') + (1-lambda) z f'/f
    fprime = TruncatedSeries(list(f.derivative().coeffs), f.order)
    # z f'' has coefficient n(n-1) a_n at z^(n-1)
    zfpp = TruncatedSeries(
        [(k + 1) * k * (f.coeffs[k + 1] if k + 1 <= f.order else 0) for k in range(f.order + 1)],
        f.order,
    )
    term_cv = (zfpp / fprime + 1) * lam
    term_st = (zfp.shift_down() / f.shift_down()) * (1 - lam)
    return (term_cv.truncate(n_over) + term_st.truncate(n_over))


def subordination_target(spec: ClassSpec, p: TruncatedSeries) -> TruncatedSeries:
    """phi((p(z)-1)/(p(z)+1)) for a Caratheodory-style series p with p(0)=1."""
    phi = spec.generator.series(p.order)
    if phi.scalar_kind != p.scalar_kind and "object" not in (phi.scalar_kind, p.scalar_kind):
        phi = phi.as_float() if p.scalar_kind == "float" else phi
        p = p.as_float() if phi.scalar_kind == "float" else p
    return compose(phi, mobius_to_disk(p))


def _solve_normalized(spec: ClassSpec, target: TruncatedSeries) -> TruncatedSeries:
    """Find normalized f with operator(f) = target, order by order.

    The n-th coefficient enters the (n-1)-th operator coefficient linearly,
    so a two-point evaluation recovers it exactly (pivot positive for
    lambda >= 0, so a zero pivot is an internal fault).
    """
    order = target.order + 1
    zero = target.coeffs[0] * 0
    one = zero + 1
    coeffs = [zero, one] + [zero] * (order - 1)
    for n in range(2, order + 1):
        base = apply_operator(spec, TruncatedSeries(coeffs, order))
        probe_coeffs = list(coeffs)
        probe_coeffs[n] = one
        probe = apply_operator(spec, TruncatedSeries(probe_coeffs, order))
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
    p_series = TruncatedSeries([entries[0] * 0 + 1] + entries, m)
    target = subordination_target(spec, p_series)
    f = _solve_normalized(spec, target)
    a5 = f.coeffs[5] if m >= 4 else None
    return CoefficientVector(f.coeffs[2], f.coeffs[3], f.coeffs[4], a5)


def implied_q(spec: ClassSpec, a: CoefficientVector):
    """The unique (q1, ..., qm) making the inverse-function equations hold."""
    f = a.as_series()
    g = revert(f)
    target = apply_operator(spec, g)
    m = target.order
    phi = spec.generator.series(m)
    if phi.scalar_kind != target.scalar_kind and "object" not in (phi.scalar_kind, target.scalar_kind):
        phi = phi.as_float()
        target = target.as_float() if target.scalar_kind != "float" else target
    zero = target.coeffs[0] * 0
    one = zero + 1
    q = [zero] * m
    for n in range(1, m + 1):
        base = compose(phi, mobius_to_disk(TruncatedSeries([one] + q, m)))
        probe_q = list(q)
        probe_q[n - 1] = probe_q[n - 1] + one
        probe = compose(phi, mobius_to_disk(TruncatedSeries([one] + probe_q, m)))
        pivot = probe.coeffs[n] - base.coeffs[n]
        if pivot == 0:  # pivot is B1/2 > 0
            raise ZeroPivotError(f"zero pivot solving q{n} for {spec.text()}")
        q[n - 1] = q[n - 1] + (target.coeffs[n] - base.coeffs[n]) / pivot
    return tuple(q)
