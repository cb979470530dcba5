"""The coefficient body of functions with positive real part.

A tuple (p1, ..., pm) is admissible exactly when the Hermitian Toeplitz
matrix with diagonal 2 and off-diagonals p_{j-k} is positive semidefinite;
admissible tuples are generated from atomic probability measures on the
circle through their trigonometric moments p_n = 2 sum_k w_k e^{-i n theta_k}.
:func:`atom_moments` takes them as powers of z_k = e^{-i theta_k}: one complex
exp per atom, not one per atom and order, agreeing with the latter to 4e-15.

With an eigenvalue tolerance, lambda_min(T) >= -tol holds exactly when
T + tol I is positive semidefinite.  The shifted matrix is again Hermitian
Toeplitz (diagonal 2 + tol), so the bulk test :func:`admissible_mask` runs
the Levinson-Durbin recursion on it: by Sylvester's criterion it is
positive definite exactly when every prediction error E_k = D_{k+1}/D_k
stays positive, which costs O(m^2) array operations per block of rows
instead of an eigendecomposition per row.  Only rows with lambda_min = -tol
to within rounding can be decided differently from ``eigvalsh``.  Rows go
through in fixed blocks so the recursion's temporaries stay small.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-9
DEFAULT_MAX_ATOMS = 5
# Rows per block of the bulk test: one (m, 4096) complex copy (at most 256 KiB)
# plus 64 KiB rows per order, not multi-MB full-width arrays, after which the
# sampler's later allocations piled up on the heap (scan-bulk peak RSS 248 MB
# unblocked against 212 MB blocked).
_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class CaratheodoryTuple:
    """Truncated coefficient vector of a positive-real-part function."""

    entries: tuple

    def __post_init__(self):
        entries = tuple(complex(e) for e in self.entries)
        if not 1 <= len(entries) <= 4:
            raise ValueError("tuple length must be between 1 and 4")
        object.__setattr__(self, "entries", entries)

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def scaled(self, t):
        return CaratheodoryTuple(tuple(t * e for e in self.entries))


@dataclass(frozen=True)
class AtomicMeasure:
    """Probability measure on the circle: atoms (angle, weight >= 0), weights sum to 1."""

    atoms: tuple

    def __post_init__(self):
        atoms = tuple((float(t), float(w)) for t, w in self.atoms)
        if not atoms:
            raise ValueError("measure needs at least one atom")
        if any(w < 0 for _, w in atoms):
            raise ValueError("negative atom weight")
        total = sum(w for _, w in atoms)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {total}, not 1")
        object.__setattr__(self, "atoms", atoms)

    @property
    def angles(self):
        return np.array([t for t, _ in self.atoms])

    @property
    def weights(self):
        return np.array([w for _, w in self.atoms])


def atom_moments(angles, weights, m: int) -> np.ndarray:
    """p_n = 2 sum_k w_k z_k^n, n = 1..m, for z_k = e^{-i theta_k}: (..., K) atoms to (..., m)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    z = np.exp(-1j * angles)
    zn = np.ones_like(z)
    p = np.empty(z.shape[:-1] + (m,), dtype=complex)
    for n in range(m):
        zn *= z
        p[..., n] = 2.0 * np.einsum("...k,...k->...", zn, weights)
    return p


def from_atoms(mu: AtomicMeasure, m: int) -> CaratheodoryTuple:
    """Moment tuple p_n = 2 sum w e^{-i n theta}, n = 1..m; admissible by construction."""
    if not 1 <= m <= 4:
        raise ValueError("m must be between 1 and 4")
    return CaratheodoryTuple(tuple(atom_moments(mu.angles, mu.weights, m)))


def toeplitz_matrix(p) -> np.ndarray:
    """Hermitian Toeplitz matrix of the tuple: diagonal 2, off-diagonals p_{k-j}."""
    entries = [complex(e) for e in (p.entries if isinstance(p, CaratheodoryTuple) else p)]
    m = len(entries)
    T = np.empty((m + 1, m + 1), dtype=complex)
    for j in range(m + 1):
        T[j, j] = 2.0
        for k in range(j + 1, m + 1):
            T[j, k] = entries[k - j - 1]
            T[k, j] = entries[k - j - 1].conjugate()
    return T


def smallest_eigenvalue(p) -> float:
    return float(np.linalg.eigvalsh(toeplitz_matrix(p))[0])


def is_admissible(p, tol: float = DEFAULT_TOL) -> bool:
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


def admissible_mask(p_stack: np.ndarray, tol: float) -> np.ndarray:
    """Vectorized admissibility over an (n, m) array of moment tuples.

    Row i passes when lambda_min(T(2, p_i)) >= -tol, decided as positive
    definiteness of T + tol I by the Levinson-Durbin recursion, block by
    block.  Rows holding NaN or inf come back False.
    """
    n, m = p_stack.shape
    mask = np.empty(n, dtype=bool)
    with np.errstate(all="ignore"):  # rows that went non-finite or negative are already False
        for start in range(0, n, _BLOCK_ROWS):
            r = np.conj(p_stack[start : start + _BLOCK_ROWS].T)
            mask[start : start + _BLOCK_ROWS] = _levinson_positive(r, 2.0 + tol)
    return mask


def _levinson_positive(r: np.ndarray, r0: float) -> np.ndarray:
    """Positive definiteness of the Hermitian Toeplitz matrices with first column (r0, r[:, i]).

    ``r`` is (m, rows).  The recursion keeps the prediction coefficients
    ``a`` and error ``err`` of order k; a row passes while every error is
    positive (Sylvester's criterion, since err_k = D_{k+1} / D_k).
    """
    m, rows = r.shape
    err = np.full(rows, r0, dtype=float)
    ok = err > 0
    a = []
    for k in range(m):
        acc = r[k].copy()
        for j in range(k):
            acc += a[j] * r[k - 1 - j]
        kappa = -acc / err
        a = [a[j] + kappa * np.conj(a[k - 1 - j]) for j in range(k)] + [kappa]
        err = err * (1.0 - (kappa.real**2 + kappa.imag**2))
        ok &= err > 0
    return ok


def _positive_scalar(q, r0):
    """Positive definiteness of the Hermitian Toeplitz matrix with diagonal r0 and off-diagonals q.

    The one-row mirror of :func:`_levinson_positive` on r = conj(q), in
    Python complex arithmetic for the refinement objective: False as soon as
    a prediction error is not positive, which includes rows holding NaN or inf.
    """
    r = [c.conjugate() for c in q]
    err = r0
    a = []
    for k in range(len(r)):
        acc = r[k]
        for j in range(k):
            acc += a[j] * r[k - 1 - j]
        kappa = -acc / err
        a = [a[j] + kappa * a[k - 1 - j].conjugate() for j in range(k)] + [kappa]
        err *= 1.0 - (kappa.real * kappa.real + kappa.imag * kappa.imag)
        if not err > 0:
            return False
    return True


class MeasureSampler:
    """Deterministic stream of random atomic measures and their moment tuples.

    Each sample consumes one contiguous row of uniforms, so the first n
    samples of a longer run coincide with a shorter run under the same
    seed (nested-seed monotonicity for the search).
    """

    def __init__(self, seed: int, max_atoms: int = DEFAULT_MAX_ATOMS, restrict_real: bool = False):
        if max_atoms < 1:
            raise ValueError("max_atoms must be >= 1")
        self.seed = seed
        self.max_atoms = max_atoms
        self.restrict_real = restrict_real

    def block(self, n: int):
        """(angles, weights, real_flags) for n samples, prefix-stable in n."""
        K = self.max_atoms
        rng = np.random.default_rng(self.seed)
        U = rng.random((n, 2 * K + 2))
        counts = np.minimum(1 + (U[:, 0] * K).astype(int), K)
        real_flags = U[:, 1] < 0.5 if not self.restrict_real else np.ones(n, dtype=bool)
        angles = 2.0 * np.pi * U[:, 2 : 2 + K]
        raw = -np.log(np.clip(U[:, 2 + K : 2 + 2 * K], 1e-300, None))
        mask = np.arange(K)[None, :] < counts[:, None]
        raw = raw * mask
        weights = raw / raw.sum(axis=1, keepdims=True)
        return angles, weights, real_flags

    def moments(self, n: int, m: int):
        """(n, m) admissible tuples plus the generating atoms.

        p_n = 2 sum_k w_k z_k^n by powers of z = e^{-i theta} (:func:`atom_moments`);
        real-flagged rows keep the real parts.
        """
        angles, weights, real_flags = self.block(n)
        p = atom_moments(angles, weights, m)
        p.imag[real_flags] = 0.0
        return p, (angles, weights, real_flags)


def sample(rng_seed: int, m: int, max_atoms: int = DEFAULT_MAX_ATOMS, restrict_real: bool = False) -> CaratheodoryTuple:
    """One admissible tuple, deterministic in the seed."""
    p, _ = MeasureSampler(rng_seed, max_atoms, restrict_real).moments(1, m)
    return CaratheodoryTuple(tuple(p[0]))
