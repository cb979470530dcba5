"""Closed-form coefficient bounds with branch and route provenance.

Each bound comes out as a :class:`BoundBreakdown` recording which case of
the theorem applied (the sign comparison between (1+2 lambda)^2 B1 and
|(1+4 lambda) B1^2 + (B1-B2)(1+2 lambda)^2|, or the analogous condition
for the second operator family), which of the two derivation routes won
the min, and the auxiliary constants entering the a4 estimate.

Two deliberate corrections to the printed statements (validated by the
numerical oracle):

* the route-two a4 prefactor in case (b) uses 6(1+4 lambda), matching
  case (a); the printed 6(1+44 lambda) is a typo;
* case (b) of the second-operator theorem is entered when
  (1+lambda) B1 >= |B1^2 + (1+lambda)(B1-B2)| (the printed statement
  repeats the case-(a) condition, which would make (b) unreachable).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .classes import ClassSpec

SQRT2 = math.sqrt(2.0)


class DegenerateBoundError(ValueError):
    """A bound denominator vanishes or the formula overflows floating point."""


@dataclass(frozen=True)
class BoundBreakdown:
    value: float
    branch: str  # "case_a" | "case_b"
    route: str  # "route_one" | "route_two" | "min"
    route_values: dict = field(default_factory=dict)
    constants: dict = field(default_factory=dict)

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise DegenerateBoundError(f"bound formula is not finite for this class (got {self.value})")
        if not self.value >= 0:
            raise ValueError(f"bound value must be nonnegative, got {self.value}")


def _min_breakdown(r1, r2, branch, constants):
    value = min(r1, r2)
    route = "route_one" if r1 < r2 else ("route_two" if r2 < r1 else "min")
    return BoundBreakdown(
        value, branch, route, {"route_one": r1, "route_two": r2}, constants
    )


def st_bounds(spec: ClassSpec):
    """Bounds on |a2|, |a3|, |a4| for the z f'/f + lambda z^2 f''/f family."""
    if spec.operator != "st":
        raise ValueError("st_bounds requires the st operator")
    lam = float(spec.lam)
    B1, B2, B3 = (float(b) for b in spec.generator.B[:3])
    D = (1 + 4 * lam) * B1**2 + (B1 - B2) * (1 + 2 * lam) ** 2
    D2 = (9 + 44 * lam) * B1**2 - 8 * (1 + 2 * lam) * (1 + 3 * lam) * (B2 - B1)
    if D == 0 or D2 == 0:
        raise DegenerateBoundError("bound formula degenerate for this generator")
    case_a = (1 + 2 * lam) ** 2 * B1 <= abs(D)
    branch = "case_a" if case_a else "case_b"

    if case_a:
        a2_val = B1 * math.sqrt(B1) / math.sqrt(abs(D))
    else:
        a2_val = B1 / (1 + 2 * lam)
    a2 = BoundBreakdown(a2_val, branch, "route_one", {"route_one": a2_val})

    m1 = abs((3 + 10 * lam) * B1**2 + (B1 - B2) * (1 + 2 * lam) ** 2)
    m2 = abs((1 + 2 * lam) * B1**2 - (1 + 2 * lam) ** 2 * (B1 - B2))
    a3_r1 = B1 * (m1 + m2) / (4 * (1 + 3 * lam) * abs(D))
    if case_a:
        a3_r2 = B1 * (m2 + abs(D)) / (2 * (1 + 3 * lam) * abs(D))
    else:
        a3_r2 = (abs(B1**2 - (1 + 2 * lam) * (B1 - B2)) + (1 + 2 * lam) * B1) / (
            2 * (1 + 3 * lam) * (1 + 2 * lam)
        )
    a3 = _min_breakdown(a3_r1, a3_r2, branch, {})

    inner = 2 * (1 + 3 * lam) * B1**3 / (1 + 2 * lam) ** 3 + (B1 + B3 - 2 * B2)
    A = (B2 - B1) + (3 + 8 * lam) * B1**2 / (8 * (1 + 2 * lam) * (1 + 3 * lam)) + B1 * (
        1 + 2 * lam
    ) ** 2 * inner / (4 * D)
    C = -(3 + 8 * lam) * B1**2 / (8 * (1 + 2 * lam) * (1 + 3 * lam)) + B1 * (
        1 + 2 * lam
    ) ** 2 * inner / (4 * D)
    if case_a:
        scale = 2 * (1 + 2 * lam) * math.sqrt(B1) / (3 * (1 + 4 * lam) * math.sqrt(abs(D)))
    else:
        scale = 2 / (3 * (1 + 4 * lam))
    a4_r1 = B1 / (3 * (1 + 4 * lam)) + scale * (abs(A) + abs(C))

    n1 = abs((12 + 52 * lam) * B1**2 - 4 * (1 + 2 * lam) * (1 + 3 * lam) * (B2 - B1))
    n2 = abs((3 + 8 * lam) * B1**2 + 4 * (1 + 2 * lam) * (1 + 3 * lam) * (B2 - B1))
    route2_head = 2 * B1 * (n1 + n2) / (6 * (1 + 4 * lam) * abs(D2))
    E = abs(
        (B2 - B1)
        + B1
        * (2 * (1 + 3 * lam) * B1**3 + (1 + 2 * lam) ** 3 * (B1 + B3 - 2 * B2))
        / (2 * (1 + 2 * lam) * D)
    )
    a4_r2 = route2_head + scale * E
    a4 = _min_breakdown(a4_r1, a4_r2, branch, {"A": A, "C": C})
    return a2, a3, a4


def m_bounds(spec: ClassSpec):
    """Bounds on |a2|, |a3|, |a4| for the lambda-convex-combination family."""
    if spec.operator != "m":
        raise ValueError("m_bounds requires the m operator")
    lam = float(spec.lam)
    B1, B2, B3 = (float(b) for b in spec.generator.B[:3])
    D = B1**2 + (1 + lam) * (B1 - B2)
    D2 = (9 + 15 * lam) * B1**2 - 8 * (1 + 2 * lam) * (1 + lam) * (B2 - B1)
    if D == 0 or D2 == 0:
        raise DegenerateBoundError("bound formula degenerate for this generator")
    case_a = (1 + lam) * B1 <= abs(D)
    branch = "case_a" if case_a else "case_b"

    if case_a:
        a2_val = B1 * math.sqrt(B1) / math.sqrt((1 + lam) * abs(D))
    else:
        a2_val = B1 / (1 + lam)
    a2 = BoundBreakdown(a2_val, branch, "route_one", {"route_one": a2_val})

    m1 = abs((3 + 5 * lam) * B1**2 + (1 + lam) ** 2 * (B1 - B2))
    m2 = abs((1 + 3 * lam) * B1**2 - (1 + lam) ** 2 * (B1 - B2))
    a3_r1 = B1 * (m1 + m2) / (4 * (1 + 2 * lam) * (1 + lam) * abs(D))
    if case_a:
        m3 = abs((1 + lam) * B1**2 + (1 + lam) ** 2 * (B1 - B2))
        a3_r2 = B1 * (m2 + m3) / (2 * (1 + 2 * lam) * (1 + lam) * abs(D))
    else:
        a3_r2 = (m2 + B1 * (1 + lam) ** 2) / (2 * (1 + 2 * lam) * (1 + lam) ** 2)
    a3 = _min_breakdown(a3_r1, a3_r2, branch, {})

    inner = (B1 + B3 - 2 * B2) + 2 * (1 + 4 * lam) * B1**3 / (1 + lam) ** 3
    A1 = (
        (B2 - B1)
        + 3 * (1 + 5 * lam) * B1**2 / (8 * (1 + lam) * (1 + 2 * lam))
        + B1 * (1 + lam) * inner / (4 * D)
    )
    C1 = -3 * (1 + 5 * lam) * B1**2 / (8 * (1 + lam) * (1 + 2 * lam)) + B1 * (1 + lam) * inner / (
        4 * D
    )
    if case_a:
        k = 2 * math.sqrt((1 + lam) * B1) / math.sqrt(abs(D))
    else:
        k = 2.0
    a4_r1 = (B1 + k * (abs(A1) + abs(C1))) / (3 * (1 + 3 * lam))

    n1 = abs((12 + 30 * lam) * B1**2 - 4 * (1 + lam) * (1 + 2 * lam) * (B2 - B1))
    n2 = abs(4 * (1 + lam) * (1 + 2 * lam) * (B2 - B1) + 3 * B1**2 * (1 + 5 * lam))
    E = abs(
        B2
        - B1
        + B1
        * ((B1 + B3 - 2 * B2) * (1 + lam) ** 3 + 2 * (1 + 4 * lam) * B1**3)
        / (2 * (1 + lam) ** 2 * D)
    )
    a4_r2 = (B1 * (n1 + n2) / abs(D2) + k * E) / (3 * (1 + 3 * lam))
    a4 = _min_breakdown(a4_r1, a4_r2, branch, {"A1": A1, "C1": C1})
    return a2, a3, a4


def class_bounds(spec: ClassSpec):
    """Dispatch on the operator tag."""
    try:
        return st_bounds(spec) if spec.operator == "st" else m_bounds(spec)
    except OverflowError as exc:
        raise DegenerateBoundError("bound formula overflows floating point for this class") from exc


# ---------------------------------------------------------------------------
# Fifth-coefficient bounds (bi-starlike of order rho, strongly bi-starlike)
# ---------------------------------------------------------------------------

ST_RHO_A5_VARIANTS = ("stated", "proof")
SS_BETA_A5_VARIANTS = ("stated", "rederived")
# the variant whose derivation holds up; a violation of it is a real failure
PROVEN_A5_VARIANTS = {"order": "proof", "strong": "rederived"}
A5_UNAVAILABLE = (
    "a5 bound is only available for st:lambda=0 with the order generator, rho in [0, 1/2], "
    "or the strong generator, beta in [1/2, 1]"
)


def a5_family(spec: ClassSpec):
    """``("order", rho)`` or ``("strong", beta)`` when the paper bounds |a5|, else None.

    The fifth-coefficient theorems cover bi-starlike functions of order
    rho in [0, 1/2] and strongly bi-starlike functions of order beta in
    [1/2, 1], i.e. the z f'/f operator at lambda 0.
    """
    if spec.operator != "st" or float(spec.lam) != 0:
        return None
    family = spec.generator.family
    if family == "order":
        rho = float(spec.generator.params["rho"])
        return (family, rho) if 0 <= rho <= 0.5 else None
    if family == "strong":
        beta = float(spec.generator.params["beta"])
        return (family, beta) if 0.5 <= beta <= 1 else None
    return None


def st_rho_a5(rho: float, variant: str = "proof") -> float:
    """|a5| bound for bi-starlike functions of order rho, 0 <= rho <= 1/2.

    The theorem statement and the last line of its derivation disagree in
    the first two polynomial coefficients ((2/3, 3/2) vs (1/2, 5/3)); both
    are exposed.  They coincide at rho = 0.
    """
    if not 0 <= rho <= 0.5:
        raise ValueError("rho must lie in [0, 1/2]")
    if variant not in ST_RHO_A5_VARIANTS:
        raise ValueError(f"variant must be one of {ST_RHO_A5_VARIANTS}")
    x = 1.0 - rho
    tail = (2 * SQRT2 / 3) * x**1.5
    if variant == "stated":
        return (2.0 / 3.0) * x + 1.5 * x**2 + tail
    return 0.5 * x + (5.0 / 3.0) * x**2 + tail


def ss_beta_a5(beta: float, variant: str = "stated") -> float:
    """|a5| bound for strongly bi-starlike functions of order beta in [1/2, 1].

    ``stated`` is the theorem display (with the (beta+1)^4 denominator);
    ``rederived`` is what the derivation's own steps yield, with
    (beta+1)^2 in place of (beta+1)^4 (the c1^4 <= 16/(1+beta)^2 step).
    Both are exposed.
    """
    if not 0.5 <= beta <= 1:
        raise ValueError("beta must lie in [1/2, 1]")
    if variant not in SS_BETA_A5_VARIANTS:
        raise ValueError(f"variant must be one of {SS_BETA_A5_VARIANTS}")
    b = beta
    poly = 30 * b**2 - 21 * b + 9
    quartic = b * (38 * b**2 - 30 * b + 7)
    root = 3 * (7 * b - 3) / math.sqrt(b + 1)
    if variant == "stated":
        mid = quartic / (b + 1) ** 4
    else:
        mid = quartic / (b + 1) ** 2
    return (b / 9) * (poly + mid + root)
