"""The coefficient body of functions with positive real part.

A tuple (p1, ..., pm) is admissible exactly when the Hermitian Toeplitz
matrix with diagonal 2 and off-diagonals p_{j-k} is positive semidefinite;
admissible tuples are generated from atomic probability measures on the
circle through their trigonometric moments p_n = 2 sum_k w_k e^{-i n theta_k}.
:func:`atom_moments` takes them as powers of z_k = e^{-i theta_k}: one complex
exp per atom of positive weight, not one per atom and order, agreeing with
the latter to 4e-15.  A tuple is any sequence of numbers or one row of an
array; the module has no wrapper type for it.

With an eigenvalue tolerance, lambda_min(T) >= -tol holds exactly when
T + tol I is positive semidefinite.  The shifted matrix is again Hermitian
Toeplitz (diagonal 2 + tol), so the bulk test :func:`admissible_mask` runs
the Levinson-Durbin recursion (:func:`levinson`) on it: by Sylvester's
criterion it is positive definite exactly when every prediction error
E_k = D_{k+1}/D_k stays positive, which costs O(m^2) array operations on
the rows it is given instead of an eigendecomposition per row.  Only rows
with lambda_min = -tol to within rounding can be decided differently from
``eigvalsh``.  The oracle hands it one block of rows at a time, so the
recursion's temporaries stay small.  :func:`levinson` is the one copy of
the recursion: it takes arrays of rows or one row of Python scalars, and
runs forward (data to reflection coefficients) or inverse, so the same
steps, rounded the same way, serve the mask, the oracle's reflection maps
and measure recovery, and the refinement objective traced from it.

:class:`MeasureSampler` draws any contiguous run of rows of its stream on
its own (``start``), bit for bit as a single draw of all rows gives them,
so the search can take its samples block by block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_MAX_ATOMS = 5


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


def atom_moments(angles, weights, m: int) -> np.ndarray:
    """p_n = 2 sum_k w_k z_k^n, n = 1..m, for z_k = e^{-i theta_k}: (..., K) atoms to (..., m)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    # a zero-weight atom adds nothing, so its exp is skipped and z_k left at 1
    z = np.exp(-1j * angles, out=np.ones(np.shape(angles), dtype=complex), where=weights > 0)
    zn = np.ones_like(z)
    p = np.empty(z.shape[:-1] + (m,), dtype=complex)
    for n in range(m):
        zn = zn * z  # not in place: numpy rounds an in-place product of one element differently
        p[..., n] = 2.0 * np.einsum("...k,...k->...", zn, weights)
    return p


def toeplitz_matrix(p) -> np.ndarray:
    """Hermitian Toeplitz matrix of the tuple: diagonal 2, off-diagonals p_{k-j}."""
    entries = [complex(e) for e in p]
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


def levinson(r, kappa):
    """The Levinson-Durbin (Schur) recursion on Hermitian Toeplitz data r_0, ..., r_N, N = len(kappa).

    ``r`` is one row of Python scalars, or r_0 followed by one array of
    rows per order.  Step k forms acc = r_{k+1} + sum_j a_j r_{k-j} over the
    predictor a_0..a_{k-1} and takes the reflection coefficient
    kappa_k = -acc / E_k where ``kappa[k]`` is None.  Where kappa_k is given
    the step is inverse: acc starts from 0 and it writes
    r_{k+1} = -(kappa_k E_k + acc), so the entries of ``r`` past r_0 may be
    placeholders there.  Either way the predictor becomes
    a_j + kappa_k conj(a_{k-1-j}), then kappa_k, and the prediction error
    E_{k+1} = E_k (1 - |kappa_k|^2), from E_0 = r_0.  Each step yields
    (kappa_k, r_{k+1}, E_{k+1}, predictor); by Sylvester's criterion the
    matrix is positive definite exactly when every E_{k+1} is positive,
    since E_{k+1} = D_{k+2} / D_{k+1}.  The steps are lazy, so a caller that
    stops at the first E_{k+1} <= 0 never has one divide by it.
    """
    r = list(r)
    a, err = [], r[0]
    for k, given in enumerate(kappa):
        acc = r[k + 1] if given is None else 0.0
        for j in range(k):
            acc = acc + a[j] * r[k - j]
        if given is None:
            kap = -acc / err
        else:
            kap = given
            r[k + 1] = -(kap * err + acc)
        a = [a[j] + kap * a[k - 1 - j].conjugate() for j in range(k)] + [kap]
        err = err * (1.0 - (kap.real * kap.real + kap.imag * kap.imag))
        yield kap, r[k + 1], err, a


def admissible_mask(p_stack: np.ndarray, tol: float) -> np.ndarray:
    """Vectorized admissibility over an (n, m) array of moment tuples.

    Row i passes when lambda_min(T(2, p_i)) >= -tol, decided as positive
    definiteness of T + tol I by :func:`levinson` on r = conj(p_i).  Rows
    holding NaN or inf come back False.
    """
    r = np.conj(p_stack.T)
    ok = np.full(len(p_stack), 2.0 + tol > 0)
    with np.errstate(all="ignore"):  # rows that went non-finite or negative are already False
        for _, _, err, _ in levinson([2.0 + tol, *r], [None] * len(r)):
            ok &= err > 0
    return ok


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

    def block(self, n: int, start: int = 0):
        """(angles, weights, real_flags) for samples start..start + n - 1 of the stream.

        Each sample takes 2K + 2 uniforms, so the generator is advanced past
        the first ``start`` rows and any block equals the matching rows of
        one draw of them all, bit for bit.
        """
        K = self.max_atoms
        rng = np.random.default_rng(self.seed)
        rng.bit_generator.advance(start * (2 * K + 2))
        U = rng.random((n, 2 * K + 2))
        counts = np.minimum(1 + (U[:, 0] * K).astype(int), K)
        real_flags = U[:, 1] < 0.5 if not self.restrict_real else np.ones(n, dtype=bool)
        angles = 2.0 * np.pi * U[:, 2 : 2 + K]
        raw = -np.log(np.clip(U[:, 2 + K : 2 + 2 * K], 1e-300, None))
        mask = np.arange(K)[None, :] < counts[:, None]
        raw = raw * mask
        weights = raw / raw.sum(axis=1, keepdims=True)
        return angles, weights, real_flags

    def moments(self, n: int, m: int, start: int = 0):
        """(n, m) admissible tuples of samples start..start + n - 1, plus the generating atoms.

        p_n = 2 sum_k w_k z_k^n by powers of z = e^{-i theta} (:func:`atom_moments`);
        real-flagged rows keep the real parts.
        """
        angles, weights, real_flags = self.block(n, start)
        p = atom_moments(angles, weights, m)
        p.imag[real_flags] = 0.0
        return p, (angles, weights, real_flags)
