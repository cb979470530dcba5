"""Helpers that only the tests use: the eigenvalue admissibility test, stacked
Toeplitz matrices, sampled tuples, the moments of a measure, the scaling of a
tuple and a one-shot oracle search."""

import numpy as np

from bikoeff import oracle
from bikoeff.caratheodory import MeasureSampler, atom_moments, smallest_eigenvalue


def is_admissible(p, tol: float = 1e-9) -> bool:
    """Caratheodory-Toeplitz criterion with an eigenvalue tolerance."""
    if tol < 0:
        raise ValueError("tol must be >= 0")
    return smallest_eigenvalue(p) >= -tol


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
