"""Coefficient-body helpers that only the tests use: the eigenvalue admissibility
test, stacked Toeplitz matrices and the scaling of a tuple."""

import numpy as np

from bikoeff.caratheodory import CaratheodoryTuple, smallest_eigenvalue


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


def scaled(p: CaratheodoryTuple, t) -> CaratheodoryTuple:
    """The tuple t p."""
    return CaratheodoryTuple(tuple(t * e for e in p.entries))
