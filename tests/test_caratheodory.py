import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bikoeff import oracle
from bikoeff.caratheodory import (
    AtomicMeasure,
    MeasureSampler,
    admissible_mask,
    atom_moments,
    smallest_eigenvalue,
    toeplitz_matrix,
)
from bikoeff.classes import parse_spec
from bikoeff.oracle import a5_chain, implied_q_fast, solve_fast

from helpers import admissible_row, is_admissible, moments, sample, scaled, toeplitz_batch


# -- tuples and matrices -----------------------------------------------------


def test_toeplitz_layout():
    T = toeplitz_matrix((1 + 1j, 2))
    assert T.shape == (3, 3)
    assert T[0, 0] == 2 and T[1, 1] == 2
    assert T[0, 1] == 1 + 1j and T[1, 0] == 1 - 1j
    assert T[0, 2] == 2 and T[2, 0] == 2


def test_batch_matches_scalar():
    rng = np.random.default_rng(0)
    stack = rng.normal(size=(20, 3)) + 1j * rng.normal(size=(20, 3))
    T = toeplitz_batch(stack)
    for i in range(20):
        assert np.allclose(T[i], toeplitz_matrix(tuple(stack[i])))


# -- measures and moments ----------------------------------------------------


def test_single_atom_at_zero_gives_twos():
    mu = AtomicMeasure(((0.0, 1.0),))
    assert moments(mu, 3) == (2, 2, 2)
    assert is_admissible((2, 2, 2), tol=1e-12)


def test_two_opposite_atoms():
    # p_n = 1 + (-1)^n
    mu = AtomicMeasure(((0.0, 0.5), (math.pi, 0.5)))
    p = moments(mu, 3)
    assert all(abs(e - x) < 1e-12 for e, x in zip(p, (0, 2, 0)))


def test_measure_validation():
    with pytest.raises(ValueError):
        AtomicMeasure(())
    with pytest.raises(ValueError):
        AtomicMeasure(((0.0, -0.1), (1.0, 1.1)))
    with pytest.raises(ValueError):
        AtomicMeasure(((0.0, 0.4),))


def test_moments_always_admissible():
    rng = np.random.default_rng(3)
    for _ in range(50):
        k = rng.integers(1, 6)
        theta = rng.uniform(0, 2 * math.pi, k)
        w = rng.dirichlet(np.ones(k))
        p = moments(AtomicMeasure(tuple(zip(theta, w))), 4)
        assert is_admissible(p, tol=1e-10)


# -- admissibility geometry --------------------------------------------------


def test_shrink_preserves_admissibility():
    # scaling towards 0 is a convex combination with the zero tuple
    for seed in range(30):
        p = sample(seed, 3)
        for t in (0.9, 0.5, 0.1):
            assert is_admissible(scaled(p, t), tol=1e-10)


def boundary_scale(p):
    # T(t p) = 2 I + t (T(p) - 2 I) shares eigenvectors with T(p), so the
    # largest admissible scaling is 2 / (2 - lambda_min)
    lam = smallest_eigenvalue(p)
    assert lam < 2
    return 2.0 / (2.0 - lam)


def test_scaling_past_boundary_fails():
    for seed in range(30):
        p = sample(seed, 3)
        t = boundary_scale(p)
        assert is_admissible(scaled(p, 0.999 * t), tol=1e-9)
        assert not is_admissible(scaled(p, 1.05 * t), tol=1e-9)


def test_few_atoms_sit_on_the_boundary():
    # a measure with at most m atoms has a rank-deficient matrix
    rng = np.random.default_rng(5)
    for _ in range(20):
        theta = rng.uniform(0, 2 * math.pi, 3)
        w = rng.dirichlet(np.ones(3))
        p = moments(AtomicMeasure(tuple(zip(theta, w))), 3)
        assert abs(smallest_eigenvalue(p)) < 1e-10
        assert not is_admissible(scaled(p, 1.05), tol=1e-9)


def test_second_coefficient_disc_inequality():
    # |p2 - p1^2/2| <= 2 - |p1|^2/2 on the body
    for seed in range(100):
        p1, p2 = sample(seed, 2)
        assert abs(p2 - p1**2 / 2) <= 2 - abs(p1) ** 2 / 2 + 1e-9


def test_coefficients_bounded_by_two():
    for seed in range(50):
        assert all(abs(e) <= 2 + 1e-12 for e in sample(seed, 4))


def test_tol_validation():
    with pytest.raises(ValueError):
        is_admissible((0, 0, 0), tol=-1)


# -- deterministic sampling --------------------------------------------------


SAMPLER_MODES = [(m, restrict_real) for m in (3, 4) for restrict_real in (False, True)]


def test_sampler_deterministic():
    for m, restrict_real in SAMPLER_MODES:
        a = MeasureSampler(7, restrict_real=restrict_real).moments(10, m)[0]
        b = MeasureSampler(7, restrict_real=restrict_real).moments(10, m)[0]
        assert np.array_equal(a, b)


def test_sampler_prefix_stable():
    for m, restrict_real in SAMPLER_MODES:
        small = MeasureSampler(7, restrict_real=restrict_real).moments(10, m)[0]
        large = MeasureSampler(7, restrict_real=restrict_real).moments(200, m)[0]
        assert np.array_equal(large[:10], small)


@pytest.mark.parametrize("m", [3, 4])
@pytest.mark.parametrize("max_atoms", [1, 5])
@pytest.mark.parametrize("restrict_real", [False, True])
def test_sampler_blocks_concatenate_to_one_draw(m, max_atoms, restrict_real):
    sampler = MeasureSampler(7, max_atoms, restrict_real)
    whole, atoms = sampler.moments(1000, m)
    edges = [0, 1, 2, 255, 256, 999, 1000]
    parts = [sampler.moments(b - a, m, a) for a, b in zip(edges, edges[1:])]
    assert np.array_equal(np.concatenate([part for part, _ in parts]), whole)
    for k in range(3):
        assert np.array_equal(np.concatenate([part[k] for _, part in parts]), atoms[k])


def test_sampler_rejects_m_below_one():
    for m in (0, -1):
        with pytest.raises(ValueError, match="m must be >= 1"):
            MeasureSampler(7).moments(10, m)


def exp_route_moments(angles, weights, real_flags, m):
    """Reference moments: one exp per atom and order, 2 sum_k w_k e^{-i n theta_k}."""
    orders = np.arange(1, m + 1)
    p = 2.0 * np.einsum("nk,nkm->nm", weights, np.exp(-1j * orders * angles[:, :, None]))
    p[real_flags] = p[real_flags].real
    return p


@pytest.mark.parametrize("restrict_real", [False, True])
@pytest.mark.parametrize("max_atoms", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_sampler_moments_match_exp_route(m, max_atoms, restrict_real):
    p, atoms = MeasureSampler(19, max_atoms, restrict_real).moments(2000, m)
    # a row with fewer atoms than max_atoms pads with zero weights
    assert (atoms[1] == 0).any() == (max_atoms > 1)
    # |p_n| <= 2, so the tolerance is absolute
    assert np.abs(p - exp_route_moments(*atoms, m)).max() <= 1e-13
    assert np.all(p[atoms[2]].imag == 0)


def all_atoms_moments(angles, weights, m):
    """atom_moments with the exp taken for every atom, zero weights included."""
    z = np.exp(-1j * angles)
    zn = np.ones_like(z)
    p = np.empty(z.shape[:-1] + (m,), dtype=complex)
    for n in range(m):
        zn *= z
        p[..., n] = 2.0 * np.einsum("...k,...k->...", zn, weights)
    return p


@pytest.mark.parametrize("max_atoms", [2, 5])
def test_atom_moments_skip_zero_weights_bit_for_bit(max_atoms):
    angles, weights, _ = MeasureSampler(23, max_atoms).block(20000)
    assert (weights == 0).any()
    for m in (1, 4):
        assert np.array_equal(atom_moments(angles, weights, m), all_atoms_moments(angles, weights, m))


def test_atom_moments_shapes():
    theta, w = np.array([0.3, 2.0, 5.0]), np.array([0.5, 0.0, 0.5])
    p = atom_moments(theta, w, 4)
    assert p.shape == (4,)
    assert np.abs(p - 2.0 * np.exp(-1j * np.outer(np.arange(1, 5), theta)) @ w).max() <= 1e-13
    assert np.array_equal(atom_moments(theta[None], w[None], 4), p[None])


def test_sampler_restrict_real():
    p, _ = MeasureSampler(7, restrict_real=True).moments(50, 3)
    assert np.all(p.imag == 0)


def test_sampler_mixes_real_and_complex():
    p, (_, _, flags) = MeasureSampler(7).moments(200, 3)
    assert 0 < flags.sum() < 200
    assert admissible_mask(p, 1e-9).all()


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_sampled_tuples_admissible(seed):
    assert is_admissible(sample(seed, 4), tol=1e-9)


# -- bulk test against the eigenvalue reference ------------------------------

MASK_TOLS = (1e-7, 1e-9, 1e-12)
# rows this close to the tolerance may go either way under rounding
MASK_MARGIN = 1e-12


def assert_mask_matches_reference(p_stack, tol, reference=None):
    """admissible_mask(p_stack) against eigvalsh of ``reference`` (default p_stack) on decided rows.

    Returns the mask and the decided rows.
    """
    lam = np.linalg.eigvalsh(toeplitz_batch(p_stack if reference is None else reference))[:, 0]
    decided = np.abs(lam + tol) > MASK_MARGIN
    mask = admissible_mask(p_stack, tol)
    assert mask.shape == (len(p_stack),) and mask.dtype == bool
    assert np.array_equal(mask[decided], (lam >= -tol)[decided])
    return mask, decided


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("tol", MASK_TOLS)
def test_mask_matches_eigvalsh_across_the_boundary(m, tol):
    rng = np.random.default_rng(100 + m)
    body = MeasureSampler(m).moments(3000, m)[0]
    # sampled tuples sit in the body, many on its edge; scale them through it
    scales = rng.uniform(0.5, 1.5, size=(len(body), 1))
    noise = rng.normal(size=body.shape) + 1j * rng.normal(size=body.shape)
    p = np.concatenate([body, scales * body, noise])
    mask = admissible_mask(p, tol)
    assert 0 < mask.sum() < len(p)
    assert_mask_matches_reference(p, tol)


SCAN_CLASSES = (
    "st:lambda=0:order:rho=1/4",
    "m:lambda=1/2:janowski:A=1/2,B=-1/2",
    "m:lambda=1:strong:beta=1/2",
    "st:lambda=1/2:custom:B1=1,B2=1/2,B3=1/4",
)


@pytest.mark.parametrize("spec_text", SCAN_CLASSES)
@pytest.mark.parametrize("tol", MASK_TOLS)
def test_mask_matches_eigvalsh_on_implied_q(spec_text, tol):
    # also against the implied tuples of the exp-route moments: the powers
    # route may move them in the last digits, never across a decided row
    spec = parse_spec(spec_text)
    p, atoms = MeasureSampler(11).moments(20000, 3)
    q, q_exp = (implied_q_fast(spec, *solve_fast(spec, x)) for x in (p, exp_route_moments(*atoms, 3)))
    assert_mask_matches_reference(q, tol)
    assert_mask_matches_reference(q, tol, reference=q_exp)


@pytest.mark.parametrize("spec_text", ["st:lambda=0:order:rho=1/4", "ss:beta=3/4"])
def test_mask_matches_eigvalsh_on_implied_a5_tuples(spec_text):
    spec = parse_spec(spec_text)
    p, atoms = MeasureSampler(11).moments(20000, 4)
    l, l_exp = (a5_chain(spec, x)[1] for x in (p, exp_route_moments(*atoms, 4)))
    for tol in MASK_TOLS:
        assert_mask_matches_reference(l, tol)
        assert_mask_matches_reference(l, tol, reference=l_exp)


@pytest.mark.parametrize("extra", [-1, 0, 1, 37])
def test_mask_block_edges(extra):
    n = oracle.BLOCK_ROWS + extra
    rng = np.random.default_rng(n)
    p = 0.8 * (rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3)))
    assert_mask_matches_reference(p, 1e-9)


@pytest.mark.parametrize("n", [0, 1])
def test_mask_tiny_stacks(n):
    p = np.full((n, 3), 0.5 + 0.25j)
    mask = admissible_mask(p, 1e-9)
    assert mask.shape == (n,) and mask.all()
    assert not admissible_mask(np.full((n, 3), 3.0 + 0j), 1e-9).any()


@settings(max_examples=60, deadline=None)
@given(
    hnp.arrays(np.complex128, st.tuples(st.integers(1, 40), st.integers(1, 4)),
               elements=st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)),
    st.sampled_from(MASK_TOLS),
)
def test_mask_property_random_rows(p, tol):
    assert_mask_matches_reference(p, tol)


def scalar_mask(p_stack, tol):
    """helpers.admissible_row row by row on tuples of Python complex, the refinement's gate."""
    return np.array([admissible_row(tuple(complex(e) for e in row), tol) for row in p_stack])


@pytest.mark.parametrize("m", [3, 4])
@pytest.mark.parametrize("tol", MASK_TOLS)
def test_scalar_levinson_matches_the_mask(m, tol):
    rng = np.random.default_rng(200 + m)
    body = MeasureSampler(m).moments(1000, m)[0]
    scales = rng.uniform(0.5, 1.5, size=(len(body), 1))
    noise = rng.normal(size=body.shape) + 1j * rng.normal(size=body.shape)
    p = np.concatenate([body, scales * body, noise])
    mask, decided = assert_mask_matches_reference(p, tol)
    scalar = scalar_mask(p, tol)
    assert 0 < scalar.sum() < len(p)
    assert np.array_equal(scalar[decided], mask[decided])


def test_gate_stops_before_a_zero_prediction_error():
    # r_0 = 2.25, r_1 = 2.25: kappa_0 = -1 and E_1 = 0 exactly, which the next step would divide by
    q = (2.25 + 0j, 0j, 0j)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert admissible_row(q, 0.25) is False
        assert admissible_mask(np.array([q]), 0.25).tolist() == [False]


def test_mask_rejects_non_finite_rows_quietly():
    p = np.array([
        [0.5, 0.1, 0.0],
        [np.nan, 0.1, 0.0],
        [0.5, complex(0, np.inf), 0.0],
        [0.5, 0.1, -np.inf],
        [complex(np.nan, np.nan), np.inf, np.nan],
        [0.2, 0.1, 0.3],
    ], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mask = admissible_mask(p, 1e-9)
    assert mask.tolist() == [True, False, False, False, False, True]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert scalar_mask(p, 1e-9).tolist() == mask.tolist()
        assert not scalar_mask(np.array([[1e200, 0, 0], [1e-300, 1e308j, 1e308]]), 1e-9).any()
