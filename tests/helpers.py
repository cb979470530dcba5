"""Helpers that only the tests use: the eigenvalue admissibility test, its
one-row Levinson gate and the error it fails at, the interpreted polish
objective, Newton's series reversion, the full-order coefficient solve, a
bit-for-bit scalar key, stacked Toeplitz matrices, sampled tuples, the
moments of a measure, the scaling of a tuple and a one-shot oracle search."""

import numpy as np

from bikoeff import oracle
from bikoeff.caratheodory import (
    MeasureSampler,
    atom_moments,
    levinson,
    smallest_eigenvalue,
)
from bikoeff.classes import ZeroPivotError, apply_operator, subordination_target
from bikoeff.series import CoefficientVector, Polynomial, SeriesError, TruncatedSeries, compose


def is_admissible(p, tol: float = 1e-9) -> bool:
    """Caratheodory-Toeplitz criterion with an eigenvalue tolerance."""
    if tol < 0:
        raise ValueError("tol must be >= 0")
    return smallest_eigenvalue(p) >= -tol


def gate_error(q, tol: float):
    """The first prediction error of T + tol I on the row q that is not positive, or None.

    :func:`admissible_mask`'s recursion on one row of Python scalars, in
    Python arithmetic; NaN counts as not positive, and the recursion stops
    at that error.
    """
    for _, _, err, _ in levinson([2.0 + tol, *(c.conjugate() for c in q)], [None] * len(q)):
        if not err > 0:
            return err
    return None


def admissible_row(q, tol: float) -> bool:
    """:func:`admissible_mask` on one row of Python scalars: no prediction error fails (:func:`gate_error`)."""
    return gate_error(q, tol) is None


def reference_objective(spec, target_index, tol, real):
    """The polish objective interpreted step by step: the reference for the traced kernel.

    The tuple at x (``_kappa``, ``_from_reflection``), its system and
    -|a_target|, less 1e4 E where the gate fails at the prediction error E
    (:func:`gate_error`).
    """
    fast = oracle.fast_spec(spec)

    def objective(x):
        coeffs, q = oracle._system(fast, oracle._from_reflection(oracle._kappa(x, real)))
        value = -abs(coeffs[target_index])
        err = gate_error(q, tol)
        return value if err is None else value - 1e4 * err

    return objective


def newton_revert(f: TruncatedSeries) -> TruncatedSeries:
    """Compositional inverse by Newton iteration: the reference for ``series.revert``.

    g -> g - (f(g) - z)/f'(g), each step composing at full order.  When
    f = z the first residual is zero and the identity comes back with its
    Fraction entries, whatever f's kind.
    """
    if f.coeffs[0] != 0:
        raise SeriesError("reversion requires zero constant term")
    if f.coeffs[1] != 1:
        raise SeriesError("reversion requires unit linear coefficient")
    order = f.order
    ident = TruncatedSeries([0, 1], order)
    # f is a genuine polynomial here, so padding f' with zeros keeps full order
    fprime = TruncatedSeries(f.derivative().coeffs, order)
    g = ident
    for _ in range(order.bit_length() + 2):
        residual = compose(f, g) - ident
        if all(c == 0 for c in residual.coeffs):
            break
        g = g - residual / compose(fprime, g)
    return g


def full_order_solve(spec, p) -> CoefficientVector:
    """``solve_coefficients`` expanding the operator at full order on every step: its reference."""
    m = len(p)
    target = subordination_target(spec, TruncatedSeries([1, *p], m))
    order = target.order + 1
    coeffs = [0, 1] + [0] * (order - 1)
    for n in range(2, order + 1):
        base = apply_operator(spec, TruncatedSeries(coeffs, order))
        probe_coeffs = list(coeffs)
        probe_coeffs[n] = 1
        probe = apply_operator(spec, TruncatedSeries(probe_coeffs, order))
        pivot = probe.coeffs[n - 1] - base.coeffs[n - 1]
        if pivot == 0:
            raise ZeroPivotError(f"zero pivot solving a{n} for {spec.text()}")
        coeffs[n] = (target.coeffs[n - 1] - base.coeffs[n - 1]) / pivot
    return CoefficientVector(coeffs[2], coeffs[3], coeffs[4], coeffs[5] if m >= 4 else None)


def exact_key(c):
    """A scalar's type and digits: equal only for one value of one type, -0.0 and NaN included."""
    if isinstance(c, Polynomial):
        return Polynomial, sorted((mono, exact_key(v)) for mono, v in c.terms.items())
    return type(c), repr(c)


def toeplitz_batch(p_stack: np.ndarray) -> np.ndarray:
    """Stacked Hermitian Toeplitz matrices for an (n, m) array of tuples."""
    n, m = p_stack.shape
    T = np.zeros((n, m + 1, m + 1), dtype=complex)
    for j in range(m + 1):
        T[:, j, j] = 2.0
        for k in range(j + 1, m + 1):
            T[:, j, k] = p_stack[:, k - j - 1]
            T[:, k, j] = np.conj(p_stack[:, k - j - 1])
    return T


def sample(seed: int, m: int, restrict_real: bool = False) -> tuple:
    """One admissible tuple of Python complex: the first row of the sampler's stream."""
    p, _ = MeasureSampler(seed, restrict_real=restrict_real).moments(1, m)
    return tuple(complex(e) for e in p[0])


def moments(mu, m: int) -> tuple:
    """p_1, ..., p_m of an ``AtomicMeasure``; admissible by construction."""
    angles, weights = np.array(mu.atoms).T
    return tuple(complex(e) for e in atom_moments(angles, weights, m))


def fit_residual(mu, p) -> float:
    """Max moment error of a fitted measure against the target tuple."""
    return max(abs(a - complex(b)) for a, b in zip(moments(mu, len(p)), p))


def scaled(p, t) -> tuple:
    """The tuple t p."""
    return tuple(t * e for e in p)


def one_shot_search(spec, target_index, config):
    """The oracle search on every sample at once: the reference for the streamed ``_search``.

    It draws all rows in one call, solves and masks them as one array and
    takes the first row of largest value and the ``refine_top`` best rows
    by value, then by index; the polish and its acceptance are
    ``_search``'s.  Exact ties are ordered by index here, which an
    unstable ``argsort`` of the whole array leaves unspecified.
    """
    m = 4 if target_index == 3 else 3
    sampler = oracle.MeasureSampler(config.seed, restrict_real=config.restrict_real)
    p, (_, _, real_flags) = sampler.moments(config.samples, m)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        coeffs, q = oracle._system(spec, p)
    feasible = oracle.admissible_mask(q, config.tol_feasible)
    n_feasible = int(feasible.sum())
    if n_feasible == 0:
        if not np.isfinite(q).all(axis=-1).any():
            raise oracle.OracleError("implied tuples overflow floating point for this class")
        raise oracle.OracleError("search produced no feasible system")
    values = np.where(feasible, np.abs(coeffs[target_index]), -np.inf)
    order = np.argsort(-values, kind="stable")[: config.refine_top]
    top = int(np.argmax(values))
    best_value = float(values[top])
    best = {"p": tuple(complex(e) for e in p[top]),
            "q": tuple(complex(e) for e in q[top]),
            "refined": False}
    for i in order:
        if not feasible[i]:
            continue
        p_ref = oracle._refine(spec, target_index, p[i], config, bool(real_flags[i]))
        coeffs_ref, q_ref = oracle._system(spec, p_ref[None, :])
        ok = smallest_eigenvalue(tuple(q_ref[0])) >= -config.tol_feasible
        value = abs(complex(coeffs_ref[target_index][0]))
        if not (ok and value > best_value):
            continue
        try:
            witness = oracle.fit_atoms(p_ref)
        except oracle.OracleError:
            continue
        best_value = value
        best = {"p": tuple(complex(e) for e in p_ref),
                "q": tuple(complex(e) for e in q_ref[0]), "refined": True,
                "atoms": list(witness.atoms)}
    return best_value, n_feasible, best
