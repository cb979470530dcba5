"""Brute-force certification oracle for the closed-form bounds.

The search works over the relaxed feasible set: sample truncated
coefficient tuples (p1, p2, p3[, p4]) of positive-real-part functions
from atomic measures, solve the class system for (a2, a3, a4[, a5]),
derive the unique tuple the inverse-function equations force on the
other side, and keep the sample only if that tuple is admissible too.
The supremum of |a_n| over this relaxed set dominates the supremum over
the function class itself, so a closed-form bound that survives the
search is (empirically) certified and a feasible sample exceeding it is
a genuine counterexample.

Coefficient solving here is a vectorized closed-form fast path; the
generic series route in :mod:`bikoeff.classes` is the slow reference the
tests compare against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import least_squares, minimize

from .bounds import (
    A5_UNAVAILABLE,
    SS_BETA_A5_VARIANTS,
    ST_RHO_A5_VARIANTS,
    a5_family,
    class_bounds,
    ss_beta_a5,
    st_rho_a5,
)
from .caratheodory import (
    DEFAULT_MAX_ATOMS,
    AtomicMeasure,
    CaratheodoryTuple,
    MeasureSampler,
    admissible_mask,
    from_atoms,
    smallest_eigenvalue,
    toeplitz_batch,
)
from .classes import ClassSpec

TARGETS = ("a2", "a3", "a4")


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
    max_atoms: int = DEFAULT_MAX_ATOMS

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.refine_top < 0:
            raise ValueError("refine_top must be >= 0")
        if self.tol_feasible < 0 or self.tol_violation < 0:
            raise ValueError("tolerances must be >= 0")


@dataclass(frozen=True)
class OracleReport:
    spec_text: str
    target: str
    bound: float
    best_value: float
    slack: float
    violated: bool
    feasible_count: int
    samples: int
    argmax: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Vectorized closed-form systems
# ---------------------------------------------------------------------------


def _schwarz(p1, p2, p3):
    # series coefficients of (p-1)/(p+1)
    u1 = p1 / 2
    u2 = p2 / 2 - p1**2 / 4
    u3 = p3 / 2 - p1 * p2 / 2 + p1**3 / 8
    return u1, u2, u3


def _unschwarz(v1, v2, v3):
    # inverse of _schwarz: coefficients of (1+2v+...)/(1-...) reassembled
    q1 = 2 * v1
    q2 = 2 * v2 + 2 * v1**2
    q3 = 2 * v3 + 4 * v1 * v2 + 2 * v1**3
    return q1, q2, q3


def solve_fast(spec: ClassSpec, p_stack):
    """(a2, a3, a4) arrays from stacked (p1, p2, p3) tuples, closed form."""
    lam = float(spec.lam)
    B1, B2, B3 = (float(b) for b in spec.generator.B[:3])
    p1, p2, p3 = p_stack[..., 0], p_stack[..., 1], p_stack[..., 2]
    u1, u2, u3 = _schwarz(p1, p2, p3)
    t1 = B1 * u1
    t2 = B1 * u2 + B2 * u1**2
    t3 = B1 * u3 + 2 * B2 * u1 * u2 + B3 * u1**3
    if spec.operator == "st":
        a2 = t1 / (1 + 2 * lam)
        a3 = (t2 + (1 + 2 * lam) * a2**2) / (2 * (1 + 3 * lam))
        a4 = (t3 + (3 + 8 * lam) * a2 * a3 - (1 + 2 * lam) * a2**3) / (3 * (1 + 4 * lam))
    else:
        a2 = t1 / (1 + lam)
        a3 = (t2 + (1 + 3 * lam) * a2**2) / (2 * (1 + 2 * lam))
        a4 = (t3 + 3 * (1 + 5 * lam) * a2 * a3 - (1 + 7 * lam) * a2**3) / (3 * (1 + 3 * lam))
    return a2, a3, a4


def implied_q_fast(spec: ClassSpec, a2, a3, a4):
    """Stacked (q1, q2, q3) forced by the inverse-function equations."""
    lam = float(spec.lam)
    B1, B2, B3 = (float(b) for b in spec.generator.B[:3])
    if spec.operator == "st":
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
    return np.stack(_unschwarz(v1, v2, v3), axis=-1)


# -- order-4 chains for the fifth coefficient -------------------------------


def _zf_over_f_inverse_chain(t1, t2, t3, t4):
    # a_n from the coefficients t_n of z f'/f - 1
    a2 = t1
    a3 = (t2 + a2**2) / 2
    a4 = (t3 + 3 * a2 * a3 - a2**3) / 3
    a5 = (t4 + 4 * a2 * a4 + 2 * a3**2 - 4 * a2**2 * a3 + a2**4) / 4
    return a2, a3, a4, a5


def _zf_over_f_forward_chain(b2, b3, b4, b5):
    # coefficients of z g'/g - 1 from the g-coefficients
    t1 = b2
    t2 = 2 * b3 - b2**2
    t3 = 3 * b4 - 3 * b2 * b3 + b2**3
    t4 = 4 * b5 - 4 * b2 * b4 - 2 * b3**2 + 4 * b2**2 * b3 - b2**4
    return t1, t2, t3, t4


def _invert_coeffs(a2, a3, a4, a5):
    b2 = -a2
    b3 = 2 * a2**2 - a3
    b4 = -(5 * a2**3 - 5 * a2 * a3 + a4)
    b5 = 14 * a2**4 - 21 * a2**2 * a3 + 3 * a3**2 + 6 * a2 * a4 - a5
    return b2, b3, b4, b5


def _log_chain(c1, c2, c3, c4):
    s1 = c1
    s2 = c2 - c1**2 / 2
    s3 = c3 - c1 * c2 + c1**3 / 3
    s4 = c4 - c1 * c3 - c2**2 / 2 + c1**2 * c2 - c1**4 / 4
    return s1, s2, s3, s4


def _exp_chain(s1, s2, s3, s4):
    e1 = s1
    e2 = s2 + s1**2 / 2
    e3 = s3 + s1 * s2 + s1**3 / 6
    e4 = s4 + s1 * s3 + s2**2 / 2 + s1**2 * s2 / 2 + s1**4 / 24
    return e1, e2, e3, e4


def _pow_chain(c1, c2, c3, c4, exponent):
    # coefficients of (1 + c1 z + ...)**exponent - 1
    s = _log_chain(c1, c2, c3, c4)
    return _exp_chain(*(exponent * si for si in s))


def a5_chain(spec: ClassSpec, p_stack):
    """(a2..a5, implied (l1..l4)) for the classes :func:`bounds.a5_family` admits.

    Those are the z f'/f operator at lambda 0 with the half-plane
    generator of order rho in [0, 1/2] (target rho + (1-rho) p) or the
    strong generator of order beta in [1/2, 1] (target p**beta).
    """
    family = a5_family(spec)
    if family is None:
        raise OracleError(A5_UNAVAILABLE)
    fam, param = family
    c = [p_stack[..., k] for k in range(4)]
    if fam == "order":
        x = 1.0 - param
        t = [x * ck for ck in c]
    else:
        t = list(_pow_chain(*c, param))
    a2, a3, a4, a5 = _zf_over_f_inverse_chain(*t)
    tau = _zf_over_f_forward_chain(*_invert_coeffs(a2, a3, a4, a5))
    if fam == "order":
        l = [tk / x for tk in tau]
    else:
        l = list(_exp_chain(*((si / param) for si in _log_chain(*tau))))
    return (a2, a3, a4, a5), np.stack(l, axis=-1)


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------


def _moments_from_params(theta, w, m):
    orders = np.arange(1, m + 1)
    return 2.0 * (w[None, :] @ np.exp(-1j * orders[:, None] * theta[None, :]).T).ravel()


def _system(spec, p_stack):
    """(coefficients, implied tuple): a2..a4 from (p1, p2, p3), a2..a5 from (p1..p4)."""
    if p_stack.shape[-1] == 4:
        return a5_chain(spec, p_stack)
    a2, a3, a4 = solve_fast(spec, p_stack)
    return (a2, a3, a4), implied_q_fast(spec, a2, a3, a4)


def _refine(spec, target_index, theta0, w0, m, config):
    """Polish one candidate measure by penalized simplex search."""
    K = len(theta0)

    def objective(x):
        theta = x[:K]
        w = np.abs(x[K:]) + 1e-12
        w = w / w.sum()
        coeffs, q = _system(spec, _moments_from_params(theta, w, m)[None, :])
        lam_min = np.linalg.eigvalsh(toeplitz_batch(q))[0, 0]
        value = abs(complex(coeffs[target_index][0]))
        return -value + 1e4 * max(0.0, -(lam_min + config.tol_feasible))

    x0 = np.concatenate([theta0, w0])
    res = minimize(objective, x0, method="Nelder-Mead",
                   options={"maxiter": config.refine_steps * len(x0), "xatol": 1e-10, "fatol": 1e-12})
    theta = res.x[:K]
    w = np.abs(res.x[K:]) + 1e-12
    w = w / w.sum()
    return theta, w


def _search(spec, target_index, config):
    """Largest feasible |a_(target_index + 2)|: (best_value, feasible_count, argmax).

    a2..a4 come from one order-3 system whose implied tuple is checked in
    full; a5 needs the order-4 chain.
    """
    m = 4 if target_index == 3 else 3
    sampler = MeasureSampler(config.seed, config.max_atoms, config.restrict_real)
    p, (angles, weights, _) = sampler.moments(config.samples, m)
    coeffs, q = _system(spec, p)
    feasible = admissible_mask(q, config.tol_feasible)
    n_feasible = int(feasible.sum())
    if n_feasible == 0:
        raise OracleError("search produced no feasible system")

    values = np.where(feasible, np.abs(coeffs[target_index]), -np.inf)
    order = np.argsort(values)[::-1][: config.refine_top] if config.refine_top else ()
    top = int(np.argmax(values))
    best_value = float(values[top])
    best = {"p": tuple(complex(e) for e in p[top]),
            "q": tuple(complex(e) for e in q[top]),
            "refined": False}
    for i in order:
        if not feasible[i]:
            continue
        theta, w = _refine(spec, target_index, angles[i], weights[i], m, config)
        p_ref = _moments_from_params(theta, w, m)
        coeffs_ref, q_ref = _system(spec, p_ref[None, :])
        ok = smallest_eigenvalue(tuple(q_ref[0])) >= -config.tol_feasible
        value = abs(complex(coeffs_ref[target_index][0]))
        if ok and value > best_value:
            best_value = value
            best = {"p": tuple(complex(e) for e in p_ref),
                    "q": tuple(complex(e) for e in q_ref[0]), "refined": True,
                    "atoms": [(float(t), float(wk)) for t, wk in zip(theta, w)]}
    return best_value, n_feasible, best


def max_coeff(spec: ClassSpec, target: str, config: SearchConfig = SearchConfig()) -> OracleReport:
    """Search the relaxed feasible set for the largest |a_target|."""
    if target not in TARGETS:
        raise OracleError(f"target must be one of {TARGETS}")
    idx = TARGETS.index(target)
    bound = class_bounds(spec)[idx].value
    best_value, n_feasible, best = _search(spec, idx, config)
    return OracleReport(
        spec_text=spec.text(),
        target=target,
        bound=bound,
        best_value=best_value,
        slack=bound - best_value,
        violated=best_value > bound + config.tol_violation,
        feasible_count=n_feasible,
        samples=config.samples,
        argmax=best,
    )


# ---------------------------------------------------------------------------
# Fifth-coefficient adjudication
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class A5Report:
    spec_text: str
    param: float
    samples: int
    feasible_count: int
    best_value: float
    variants: dict  # name -> {"bound", "violated", "slack"}
    argmax: dict = field(default_factory=dict)


def _a5_variant_bounds(spec: ClassSpec):
    family = a5_family(spec)
    if family is None:
        raise OracleError(A5_UNAVAILABLE)
    fam, param = family
    if fam == "order":
        return param, {v: st_rho_a5(param, v) for v in ST_RHO_A5_VARIANTS}
    return param, {v: ss_beta_a5(param, v) for v in SS_BETA_A5_VARIANTS}


def check_a5_system(spec: ClassSpec, config: SearchConfig = SearchConfig()) -> A5Report:
    """Search |a5| over the relaxed set and compare every bound variant."""
    param, variant_bounds = _a5_variant_bounds(spec)
    best_value, n_feasible, best = _search(spec, 3, config)
    variants = {
        name: {
            "bound": b,
            "violated": best_value > b + config.tol_violation,
            "slack": b - best_value,
        }
        for name, b in variant_bounds.items()
    }
    return A5Report(
        spec_text=spec.text(),
        param=param,
        samples=config.samples,
        feasible_count=n_feasible,
        best_value=best_value,
        variants=variants,
        argmax=best,
    )


# ---------------------------------------------------------------------------
# Measure recovery
# ---------------------------------------------------------------------------


def fit_atoms(p, max_atoms: int = None, seed: int = 0, tol: float = 1e-10) -> AtomicMeasure:
    """Recover an atomic measure whose moments reproduce the tuple.

    Least squares over (angles, weights) with the weight-sum constraint in
    the residual; multi-start.  Raises :class:`OracleError` when no start
    converges, which for tuples outside the body it must.
    """
    entries = np.asarray([complex(e) for e in (p.entries if isinstance(p, CaratheodoryTuple) else p)])
    m = len(entries)
    K = max_atoms if max_atoms is not None else m + 1
    orders = np.arange(1, m + 1)
    rng = np.random.default_rng(seed)

    def residual(x):
        theta, w = x[:K], x[K:]
        moments = 2.0 * np.exp(-1j * orders[:, None] * theta[None, :]) @ w
        diff = moments - entries
        return np.concatenate([diff.real, diff.imag, [w.sum() - 1.0]])

    best = None
    for _ in range(12):
        theta0 = rng.uniform(0, 2 * np.pi, K)
        w0 = rng.dirichlet(np.ones(K))
        res = least_squares(
            residual,
            np.concatenate([theta0, w0]),
            bounds=(np.concatenate([np.full(K, -np.inf), np.zeros(K)]),
                    np.concatenate([np.full(K, np.inf), np.ones(K)])),
            method="trf",
            xtol=1e-15, ftol=1e-15, gtol=1e-15,
        )
        cost = math.sqrt(2 * res.cost)
        if best is None or cost < best[0]:
            best = (cost, res.x)
        if cost < tol:
            break
    cost, x = best
    if cost >= tol:
        raise OracleError(f"no atomic measure found (residual {cost:.3e})")
    w = np.clip(x[K:], 0, None)
    w = w / w.sum()
    return AtomicMeasure(tuple((float(t) % (2 * math.pi), float(wk)) for t, wk in zip(x[:K], w)))


def fit_residual(mu: AtomicMeasure, p) -> float:
    """Max moment error of a fitted measure against the target tuple."""
    entries = [complex(e) for e in (p.entries if isinstance(p, CaratheodoryTuple) else p)]
    fitted = from_atoms(mu, len(entries))
    return max(abs(a - b) for a, b in zip(fitted.entries, entries))
