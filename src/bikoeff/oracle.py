"""Brute-force certification oracle for the closed-form bounds.

The search works over the relaxed feasible set: sample truncated
coefficient tuples (p1, p2, p3[, p4]) of positive-real-part functions
from atomic measures, solve the class system for (a2, a3, a4[, a5]),
derive the unique tuple the inverse-function equations force on the
other side, and keep the sample only if that tuple is admissible too.
The samples stream through in blocks of BLOCK_ROWS rows (:func:`_search`),
so memory does not grow with the sample count.
The supremum of |a_n| over this relaxed set dominates the supremum over
the function class itself, so a closed-form bound that survives the
search is (empirically) certified.  A feasible sample exceeding a bound
is not a function in the class: the p- and q-tuples are independent
points of the truncated coefficient body, so the sample only refutes a
proof that uses no more than those constraints.

Coefficient solving here is one vectorized closed form for every class:
the Schwarz function (p - 1)/(p + 1), then the generator phi, then the
operator, solved order by order.  Order 3 gives a2..a4 and the implied
(q1, q2, q3); order 4 adds a5 and q4.  The generic series route in
:mod:`bikoeff.classes` is the reference the tests check them against.
The best candidates are polished over their reflection (Schur)
coefficients, where every point lies in the closed body (:func:`_kappa`,
:func:`_from_reflection`), by a plain Nelder-Mead simplex on lists of
floats (:func:`minimize`).  Its objective is straight-line Python traced
from this module's scalar code (:func:`_polish_kernel`): -|a_target|, less
1e4 times the first prediction error of the implied tuple's shifted
Toeplitz matrix that is not positive, so no point costs an eigenvalue
solve.  The polish aims POLISH_MARGIN inside the feasibility tolerance, so
that the polished point passes the re-check at -tol, and
:func:`fit_atoms` gives a polished point its witness measure.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from ._kernel import trace
from .bounds import (
    A5_UNAVAILABLE,
    PROVEN_A5_VARIANTS,
    SS_BETA_A5_VARIANTS,
    ST_RHO_A5_VARIANTS,
    a5_family,
    class_bounds,
    ss_beta_a5,
    st_rho_a5,
)
from .caratheodory import (
    AtomicMeasure,
    MeasureSampler,
    admissible_mask,
    atom_moments,
    levinson,
    smallest_eigenvalue,
)
from .classes import ClassSpec

TARGETS = ("a2", "a3", "a4")
# The polish aims this far inside the feasibility tolerance: its penalized
# optimum overshoots the lambda_min it aims at by up to 1.1e-15 (report grid,
# --samples 2000 --refine-top 2 --refine-steps 60, seeds 0-3: no polished
# point of 480 outside -tol, smallest accepted lambda_min + tol 9.999999e-9).
POLISH_MARGIN = 1e-8
# Measure recovery: a prediction error within BOUNDARY_ERR of zero marks a
# boundary tuple, and a fitted measure must reproduce every moment to FIT_TOL.
BOUNDARY_ERR = 1e-12
FIT_TOL = 1e-10
# Rows per block of the search: the sampler, the closed forms and the mask see
# one block at a time, so no array exceeds 0.5 MB whatever --samples is.  Of
# 4096, 8192 and 16384, 4096 gave the lowest scan-bulk peak RSS and wall time.
BLOCK_ROWS = 4096


class OracleError(RuntimeError):
    pass


@dataclass(frozen=True)
class SearchConfig:
    seed: int = 0
    samples: int = 2000
    refine_top: int = 3
    refine_steps: int = 150
    tol_feasible: float = 1e-7
    tol_violation: float = 1e-8
    restrict_real: bool = False

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.refine_top < 0:
            raise ValueError("refine_top must be >= 0")
        if self.refine_steps < 0:
            raise ValueError("refine_steps must be >= 0")
        if not all(math.isfinite(t) and t >= 0 for t in (self.tol_feasible, self.tol_violation)):
            raise ValueError("tolerances must be finite and >= 0")


@dataclass(frozen=True)
class OracleReport:
    """Largest |a_target| found, against every bound variant of the target.

    ``variants`` maps a variant name to its ``bound``, ``slack``,
    ``violated`` and ``proven``; a2..a4 have the single variant ``""``.
    The top-level ``bound``, ``slack`` and ``violated`` are the proven
    variant's.
    """

    spec_text: str
    target: str
    bound: float
    best_value: float
    slack: float
    violated: bool
    feasible_count: int
    samples: int
    variants: dict
    argmax: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Vectorized closed-form systems
# ---------------------------------------------------------------------------
#
# Each closed form takes stacked tuples, an (..., m) array, and returns
# arrays, or one row of m Python scalars and returns scalars and tuples.


class FastSpec(NamedTuple):
    """What the closed forms read from a class, as floats, resolved once."""

    operator: str
    lam: float
    B: tuple  # (B1, B2, B3, B4); B4 = 0 for a generator given by B1..B3


def fast_spec(spec) -> FastSpec:
    """The :class:`FastSpec` of a ClassSpec; a FastSpec comes back as it is."""
    if isinstance(spec, FastSpec):
        return spec
    B = (*spec.generator.B, 0)[:4]  # MindaGenerator.series pads a missing B4 with 0
    return FastSpec(spec.operator, float(spec.lam), tuple(float(b) for b in B))


def _columns(p):
    """p1..pm: the columns of an (..., m) array, or the entries of one row of scalars."""
    if isinstance(p, np.ndarray):
        p = [p[..., k] for k in range(p.shape[-1])]
    if len(p) not in (3, 4):
        raise ValueError("the closed forms take (p1, p2, p3) or (p1, ..., p4)")
    return p


def _stack(entries):
    """Stack per-order results as the last axis, or keep one row of scalars a tuple."""
    if isinstance(entries[0], (np.ndarray, np.generic)):
        return np.stack(entries, axis=-1)
    return tuple(entries)


def solve_fast(spec: ClassSpec | FastSpec, p_stack):
    """(a2, a3, a4) from stacked (p1, p2, p3) tuples, (a2, ..., a5) from (p1, ..., p4).

    phi(u) = 1 + t1 z + t2 z^2 + ... for the Schwarz function
    u = (p - 1)/(p + 1), and the operator's z^(n-1) coefficient, solved for
    a_n, gives a_n.
    """
    operator, lam, (B1, B2, B3, B4) = fast_spec(spec)
    p = _columns(p_stack)
    p1, p2, p3 = p[:3]
    u1 = p1 / 2
    u2 = p2 / 2 - p1**2 / 4
    u3 = p3 / 2 - p1 * p2 / 2 + p1**3 / 8
    t1 = B1 * u1
    t2 = B1 * u2 + B2 * u1**2
    t3 = B1 * u3 + 2 * B2 * u1 * u2 + B3 * u1**3
    if operator == "st":
        a2 = t1 / (1 + 2 * lam)
        a3 = (t2 + (1 + 2 * lam) * a2**2) / (2 * (1 + 3 * lam))
        a4 = (t3 + (3 + 8 * lam) * a2 * a3 - (1 + 2 * lam) * a2**3) / (3 * (1 + 4 * lam))
    else:
        a2 = t1 / (1 + lam)
        a3 = (t2 + (1 + 3 * lam) * a2**2) / (2 * (1 + 2 * lam))
        a4 = (t3 + 3 * (1 + 5 * lam) * a2 * a3 - (1 + 7 * lam) * a2**3) / (3 * (1 + 3 * lam))
    if len(p) == 3:
        return a2, a3, a4
    # order 4; x**4 is taken as (x**2)**2, which numpy does in a third of the time
    p4 = p[3]
    u4 = p4 / 2 - (2 * p1 * p3 + p2**2) / 4 + 3 * p1**2 * p2 / 8 - (p1**2)**2 / 16
    t4 = B1 * u4 + B2 * (2 * u1 * u3 + u2**2) + 3 * B3 * u1**2 * u2 + B4 * (u1**2)**2
    if operator == "st":
        a5 = (t4 + (4 + 14 * lam) * a2 * a4 + (2 + 6 * lam) * a3**2
              - (4 + 10 * lam) * a2**2 * a3 + (1 + 2 * lam) * (a2**2)**2) / (4 * (1 + 5 * lam))
    else:
        a5 = (t4 + (4 + 28 * lam) * a2 * a4 + (2 + 16 * lam) * a3**2
              - (4 + 44 * lam) * a2**2 * a3 + (1 + 15 * lam) * (a2**2)**2) / (4 * (1 + 4 * lam))
    return a2, a3, a4, a5


def implied_q_fast(spec: ClassSpec | FastSpec, a2, a3, a4, a5=None):
    """Stacked (q1, q2, q3), or (q1, ..., q4) given a5, forced by the inverse-function equations.

    The operator applied to the inverse g of f has coefficients s_n; they
    are phi(v) - 1 for a Schwarz function v, and q = 2v/(1 - v).
    """
    operator, lam, (B1, B2, B3, B4) = fast_spec(spec)
    if operator == "st":
        s1 = -(1 + 2 * lam) * a2
        s2 = -2 * (1 + 3 * lam) * a3 + (3 + 10 * lam) * a2**2
        s3 = -3 * (1 + 4 * lam) * a4 + (12 + 52 * lam) * a2 * a3 - (10 + 46 * lam) * a2**3
    else:
        s1 = -(1 + lam) * a2
        s2 = -2 * (1 + 2 * lam) * a3 + (3 + 5 * lam) * a2**2
        s3 = -3 * (1 + 3 * lam) * a4 + (12 + 30 * lam) * a2 * a3 - (10 + 22 * lam) * a2**3
    v1 = s1 / B1
    v2 = (s2 - B2 * v1**2) / B1
    v3 = (s3 - 2 * B2 * v1 * v2 - B3 * v1**3) / B1
    q1 = 2 * v1
    q2 = 2 * v2 + 2 * v1**2
    q3 = 2 * v3 + 4 * v1 * v2 + 2 * v1**3
    if a5 is None:
        return _stack((q1, q2, q3))
    if operator == "st":
        s4 = (-4 * (1 + 5 * lam) * a5 + (20 + 106 * lam) * a2 * a4 + (10 + 54 * lam) * a3**2
              - (60 + 336 * lam) * a2**2 * a3 + (35 + 204 * lam) * (a2**2)**2)
    else:
        s4 = (-4 * (1 + 4 * lam) * a5 + (20 + 68 * lam) * a2 * a4 + (10 + 32 * lam) * a3**2
              - (60 + 176 * lam) * a2**2 * a3 + (35 + 93 * lam) * (a2**2)**2)
    v4 = (s4 - B2 * (2 * v1 * v3 + v2**2) - 3 * B3 * v1**2 * v2 - B4 * (v1**2)**2) / B1
    q4 = 2 * v4 + 4 * v1 * v3 + 2 * v2**2 + 6 * v1**2 * v2 + 2 * (v1**2)**2
    return _stack((q1, q2, q3, q4))


def a5_chain(spec: ClassSpec | FastSpec, p_stack):
    """(a2..a5, implied (q1..q4)) from stacked (p1, ..., p4) tuples, for every class.

    The a5 search calls the order-4 systems by this name, where the
    benchmark's span tracer (``bench/spans.py``) wraps it.
    """
    fast = fast_spec(spec)
    coeffs = solve_fast(fast, p_stack)
    return coeffs, implied_q_fast(fast, *coeffs)


# ---------------------------------------------------------------------------
# Reflection coefficients
# ---------------------------------------------------------------------------


def _reflection(p):
    """(kappa, boundary): the reflection coefficients of a tuple of the body, on r = conj(p)/2.

    The forward :func:`levinson` walk from r_0 = 1.  A kappa_k that leaves
    E_{k+1} within BOUNDARY_ERR of zero marks a boundary tuple: it is
    normalised to modulus 1 and the walk stops there, since the rest of r
    is then fixed, so kappa ends at index k and ``boundary`` is True.
    Raises :class:`OracleError` when such a kappa_k leaves E_{k+1} below
    -BOUNDARY_ERR: the tuple lies outside the coefficient body.
    """
    kappa = []
    for kap, _, err, _ in levinson([1.0, *(complex(e).conjugate() / 2 for e in p)], [None] * len(p)):
        if err <= BOUNDARY_ERR:
            mod = abs(kap)
            if err < -BOUNDARY_ERR:
                raise OracleError(f"tuple lies outside the coefficient body (reflection coefficient {mod:.6g})")
            return kappa + [kap / mod], True
        kappa.append(kap)
    return kappa, False


def _to_reflection(p, real):
    """Polish coordinates of a tuple of the body: its reflection coefficients (:func:`_reflection`).

    kappa_k = sin^2(s_k) e^{i phi_k} gives x = [s_0..s_{m-1}, phi_0..phi_{m-1}];
    a ``real`` tuple has real kappa_k = sin(s_k) and x = [s_0..s_{m-1}].  On
    a boundary tuple the kappa after the first of modulus 1 are free and
    set to 0.
    """
    m = len(p)
    kappa, _ = _reflection(p)
    kappa += [0.0] * (m - len(kappa))
    # a kappa normalised to modulus 1 can round just past it
    if real:
        return [math.asin(min(max(k.real, -1.0), 1.0)) for k in kappa]
    return ([math.asin(math.sqrt(min(abs(k), 1.0))) for k in kappa]
            + [math.atan2(k.imag, k.real) for k in kappa])


def _kappa(x, real):
    """The reflection coefficients at polish coordinates x (:func:`_to_reflection`)."""
    if real:
        return [math.sin(s) for s in x]
    m = len(x) // 2
    return [cmath.rect(math.sin(s) ** 2, phi) for s, phi in zip(x[:m], x[m:])]


def _from_reflection(kappa):
    """The tuple (p_1..p_m) with reflection coefficients kappa, by the inverse :func:`levinson` steps.

    It lies in the closed body where every |kappa_k| <= 1, as at every polish point (:func:`_kappa`).
    """
    return [2 * r.conjugate() for _, r, _, _ in levinson([1.0] + [None] * len(kappa), kappa)]


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------


def _system(spec, p):
    """(coefficients, implied tuple): a2..a4 from (p1, p2, p3), a2..a5 from (p1..p4).

    ``p`` is an (n, m) array or one row of m scalars.
    """
    if (p.shape[-1] if isinstance(p, np.ndarray) else len(p)) == 4:
        return a5_chain(spec, p)
    a2, a3, a4 = solve_fast(spec, p)
    return (a2, a3, a4), implied_q_fast(spec, a2, a3, a4)


@functools.cache
def _polish_kernel(operator, target_index, real):
    """``build(lam, B1, B2, B3, B4, tol)``, traced from the objective's scalar steps (:mod:`bikoeff._kernel`).

    Its kernel maps kappa to -|a_target|, or to -|a_target| - 1e4 E at the
    first prediction error E of the implied tuple's T + tol I that is not
    positive.  E = D_{k+1}/D_k is 0 on the boundary and sizes how far past
    it the tuple lies, so the gate's early return carries the penalty.
    """
    def steps(params, kappa, gate):
        lam, *B, tol = params
        coeffs, q = _system(FastSpec(operator, lam, tuple(B)), _from_reflection(kappa))
        value = -abs(coeffs[target_index])
        for _, _, err, _ in levinson([2.0 + tol, *(c.conjugate() for c in q)], [None] * len(q)):
            gate(err, value - 1e4 * err)
        return value

    kinds = [float if real else complex] * (4 if target_index == 3 else 3)
    return trace(steps, ("lam", "B1", "B2", "B3", "B4", "tol"), kinds)


def _objective(spec, target_index, tol, real=False):
    """Refinement objective at polish coordinates x (:func:`_to_reflection`), a list of floats.

    -|a_target| of the tuple x stands for, or, where the implied tuple fails
    the Levinson gate at -tol, that value less 1e4 times the first
    prediction error E that is not positive (:func:`_polish_kernel`).
    """
    fast = fast_spec(spec)
    kernel = _polish_kernel(fast.operator, target_index, real)(fast.lam, *fast.B, tol)
    return lambda x: kernel(*_kappa(x, real))


def minimize(fun, x0, *, maxiter, xatol, fatol):
    """Nelder-Mead on lists of floats, with the standard coefficients.

    The simplex is x0 and, for each k, x0 with entry k scaled by 1.05 (set
    to 0.00025 where it is 0).  Each iteration reflects the worst vertex
    through the ``math.fsum`` centroid of the others, then expands (x2),
    contracts outside or inside (x1/2), or shrinks the simplex by 1/2
    towards the best vertex (Lagarias et al., SIAM J. Optim. 9 (1998)
    112-147), and one stable sort orders the vertices by value, NaN last.
    It stops when every vertex lies within ``xatol`` of the best in each
    coordinate and ``fatol`` in value (``success``), or when the iteration
    count, which starts at 1, reaches ``maxiter``.  ``fun`` gets each
    vertex as a list.
    """
    nfev = 0

    def vertex(x):
        nonlocal nfev
        nfev += 1
        return fun(x), x

    def nan_last(v):
        return v[0] != v[0], v[0]

    x0 = [float(v) for v in x0]
    n = len(x0)
    simplex = [vertex(x0)] + [vertex([(1.05 * v if v != 0 else 0.00025) if j == k else v
                                      for j, v in enumerate(x0)]) for k in range(n)]
    simplex.sort(key=nan_last)

    def step(t):  # xbar + t (xbar - worst)
        return vertex([(1 + t) * b - t * w for b, w in zip(xbar, worst)])

    nit = 1
    while nit < maxiter:
        (fbest, best), (fworst, worst) = simplex[0], simplex[-1]
        if fworst - fbest <= fatol and all(abs(a - b) <= xatol
                                           for _, x in simplex[1:] for a, b in zip(x, best)):
            break
        xbar = [math.fsum(c) / n for c in zip(*(x for _, x in simplex[:-1]))]
        new = reflected = step(1.0)
        if reflected[0] < fbest:
            expanded = step(2.0)
            if expanded[0] < reflected[0]:
                new = expanded
        elif not reflected[0] < simplex[-2][0]:
            outside = reflected[0] < fworst
            new = step(0.5 if outside else -0.5)
            if not (new[0] <= reflected[0] if outside else new[0] < fworst):
                new = None
        if new is None:
            simplex[1:] = [vertex([a + 0.5 * (b - a) for a, b in zip(best, x)]) for _, x in simplex[1:]]
        else:
            simplex[-1] = new
        simplex.sort(key=nan_last)
        nit += 1
    fun_min, x = simplex[0]
    return SimpleNamespace(x=x, fun=fun_min, nit=nit, nfev=nfev, success=nit < maxiter)


def _refine(spec, target_index, p0, config, real):
    """Polish one candidate tuple by penalized simplex search; returns the polished tuple.

    The simplex (:func:`minimize`, ``refine_steps`` iterations per
    coordinate) runs over the candidate's reflection coefficients
    (:func:`_to_reflection`), so every point it scores lies in the closed
    body, and a ``real`` candidate stays real.  The objective aims at
    -tol + POLISH_MARGIN: the penalized optimum sits just past the
    tolerance it is given, and the re-check in :func:`_search` holds the
    polished point to the full -tol.
    """
    objective = _objective(spec, target_index, config.tol_feasible - POLISH_MARGIN, real)
    x0 = _to_reflection(p0, real)
    res = minimize(objective, x0, maxiter=config.refine_steps * len(x0), xatol=1e-10, fatol=1e-12)
    return np.array(_from_reflection(_kappa(res.x, real)), dtype=complex)


def _search(spec, target_index, config):
    """Largest feasible |a_(target_index + 2)|: (best_value, feasible_count, argmax).

    a2..a4 come from the order-3 system and a5 from the order-4 one.  The
    samples go through in blocks of BLOCK_ROWS rows, and between blocks
    only a summary is kept: the feasible count, the first row of largest
    value, and the ``refine_top`` best feasible rows by value, then by
    index.  A polished point replaces the best only if its implied tuple
    passes the re-check at -tol and :func:`fit_atoms` finds the measure
    for its witness.
    """
    m = 4 if target_index == 3 else 3
    sampler = MeasureSampler(config.seed, restrict_real=config.restrict_real)
    n_feasible, any_finite = 0, False
    best_value, best = -math.inf, None
    candidates = []  # (-value, index, p row, real flag), at most refine_top of them
    for start in range(0, config.samples, BLOCK_ROWS):
        p, (_, _, real_flags) = sampler.moments(min(BLOCK_ROWS, config.samples - start), m, start=start)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            # non-finite rows fail admissible_mask
            coeffs, q = _system(spec, p)
        feasible = admissible_mask(q, config.tol_feasible)
        n_feasible += int(feasible.sum())
        any_finite = any_finite or bool(np.isfinite(q).all(axis=-1).any())
        values = np.where(feasible, np.abs(coeffs[target_index]), -np.inf)
        top = int(np.argmax(values))
        if values[top] > best_value:
            best_value = float(values[top])
            best = {"p": tuple(complex(e) for e in p[top]),
                    "q": tuple(complex(e) for e in q[top]),
                    "refined": False}
        if config.refine_top:
            rows = np.argsort(-values, kind="stable")[: config.refine_top]
            candidates = sorted(candidates + [(-values[i], start + i, p[i].copy(), bool(real_flags[i]))
                                              for i in rows if feasible[i]])[: config.refine_top]
    if n_feasible == 0:
        if not any_finite:
            raise OracleError("implied tuples overflow floating point for this class")
        raise OracleError("search produced no feasible system")

    for _, _, p0, real in candidates:
        p_ref = _refine(spec, target_index, p0, config, real)
        coeffs_ref, q_ref = _system(spec, p_ref[None, :])
        ok = smallest_eigenvalue(tuple(q_ref[0])) >= -config.tol_feasible
        value = abs(complex(coeffs_ref[target_index][0]))
        if not (ok and value > best_value):
            continue
        try:
            witness = fit_atoms(p_ref)
        except OracleError:  # skipped, as a point that fails the re-check is
            continue
        best_value = value
        best = {"p": tuple(complex(e) for e in p_ref),
                "q": tuple(complex(e) for e in q_ref[0]), "refined": True,
                "atoms": list(witness.atoms)}
    return best_value, n_feasible, best


def _report(spec, target_index, variant_bounds, proven, config):
    best_value, n_feasible, best = _search(spec, target_index, config)
    variants = {
        name: {
            "bound": b,
            "violated": best_value > b + config.tol_violation,
            "slack": b - best_value,
            "proven": name == proven,
        }
        for name, b in variant_bounds.items()
    }
    top = variants[proven]
    return OracleReport(
        spec_text=spec.text(),
        target=f"a{target_index + 2}",
        bound=top["bound"],
        best_value=best_value,
        slack=top["slack"],
        violated=top["violated"],
        feasible_count=n_feasible,
        samples=config.samples,
        variants=variants,
        argmax=best,
    )


def max_coeff(spec: ClassSpec, target: str, config: SearchConfig = SearchConfig()) -> OracleReport:
    """Search the relaxed feasible set for the largest |a_target|, a2..a4."""
    if target not in TARGETS:
        raise OracleError(f"target must be one of {TARGETS}")
    idx = TARGETS.index(target)
    return _report(spec, idx, {"": class_bounds(spec)[idx].value}, "", config)


def check_a5_system(spec: ClassSpec, config: SearchConfig = SearchConfig()) -> OracleReport:
    """Search |a5| over the relaxed set and compare every bound variant."""
    family = a5_family(spec)
    if family is None:
        raise OracleError(A5_UNAVAILABLE)
    fam, param = family
    if fam == "order":
        variant_bounds = {v: st_rho_a5(param, v) for v in ST_RHO_A5_VARIANTS}
    else:
        variant_bounds = {v: ss_beta_a5(param, v) for v in SS_BETA_A5_VARIANTS}
    return _report(spec, 3, variant_bounds, PROVEN_A5_VARIANTS[fam], config)


# ---------------------------------------------------------------------------
# Measure recovery
# ---------------------------------------------------------------------------


def fit_atoms(p) -> AtomicMeasure:
    """The atomic measure whose moments are the tuple, built by the Szego recursion.

    The reflection coefficients kappa_0, ..., kappa_{m-1} of c_n = p_n / 2
    (c_0 = 1, :func:`_reflection`) end at the first of modulus 1 on a
    boundary tuple; an interior tuple is closed with kappa_m = 1.  The
    inverse :func:`levinson` run over that closed list gives the predictor
    polynomial A_N, N = len(kappa): on a boundary its N roots carry the
    tuple, and for the closing kappa_m = 1 it is the paraorthogonal
    polynomial, with m + 1 simple roots on the circle.  The roots are the
    z_j = e^{-i theta_j}, and one Vandermonde solve on c_0, ..., c_{N-1}
    gives the weights.  Raises :class:`OracleError` when a reflection
    coefficient exceeds modulus 1 (the tuple lies outside the body) or when
    the moments miss by FIT_TOL or more.
    """
    entries = [complex(e) for e in p]
    m = len(entries)
    kappa, boundary = _reflection(entries)
    if not boundary:
        kappa.append(1.0)
    *_, (_, _, _, a) = levinson([1.0] + [None] * len(kappa), kappa)
    z = np.roots([*a[::-1], 1.0])
    z /= np.abs(z)
    c = [1.0] + [e / 2 for e in entries]
    w = np.linalg.solve(np.vander(z, increasing=True).T, c[: len(z)]).real
    w = np.clip(w, 0.0, None)
    w /= w.sum()
    theta = -np.angle(z) % (2 * math.pi)
    residual = float(np.max(np.abs(atom_moments(theta, w, m) - entries)))
    if not residual < FIT_TOL:
        raise OracleError(f"no atomic measure reproduces the tuple (residual {residual:.3e})")
    return AtomicMeasure(tuple(zip(theta.tolist(), w.tolist())))
