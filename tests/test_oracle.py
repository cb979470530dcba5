import cmath
import itertools
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bikoeff import _kernel, caratheodory, cli, oracle
from bikoeff.bounds import BoundBreakdown
from bikoeff.caratheodory import MeasureSampler, atom_moments, levinson, smallest_eigenvalue
from bikoeff.classes import (
    ClassSpec,
    MindaGenerator,
    implied_q,
    janowski_coeffs,
    order_coeffs,
    parse_spec,
    solve_coefficients,
    strong_coeffs,
    subordination_target,
)
from bikoeff.oracle import (
    OracleError,
    SearchConfig,
    a5_chain,
    check_a5_system,
    fit_atoms,
    implied_q_fast,
    max_coeff,
    solve_fast,
)
from bikoeff.series import TruncatedSeries

from helpers import (
    admissible_row,
    fit_residual,
    gate_error,
    one_shot_search,
    reference_objective,
    sample,
    scaled,
)

SPECS = (
    "st:lambda=0:order:rho=0",
    "st:lambda=1/2:order:rho=1/4",
    "m:lambda=1:order:rho=0",
    "m:lambda=0.3:janowski:A=0.75,B=-0.5",
    "st:lambda=0.2:strong:beta=0.6",
)


# -- closed-form fast path vs generic series route ---------------------------


@pytest.mark.parametrize("spec_text", SPECS + ("st:lambda=1/2:custom:B1=1,B2=1/2,B3=1/4",))
def test_fast_path_matches_generic(spec_text):
    # order 4 takes a5 as well, for every class; a custom generator has B4 = 0
    spec = parse_spec(spec_text)
    for m, seed in itertools.product((3, 4), range(8)):
        p = sample(seed, m)
        a = solve_coefficients(spec, p)
        q = implied_q(spec, a)
        fast = solve_fast(spec, np.array([p]))
        qf = implied_q_fast(spec, *fast)[0]
        exact = (a.a2, a.a3, a.a4, a.a5)[:m]
        assert len(fast) == len(qf) == len(q) == m
        assert all(abs(x[0] - complex(y)) < 1e-11 for x, y in zip(fast, exact))
        assert all(abs(x - complex(y)) < 1e-10 for x, y in zip(qf, q))


def test_strong_generic_route_is_exact_and_matches_fast_path():
    # rational beta gives exact B1..B6, so a rational tuple keeps the generic route exact
    spec = parse_spec("ss:beta=1/2")
    for seed in range(8):
        p = [Fraction(e.real).limit_denominator(10**6) for e in sample(seed, 4, restrict_real=True)]
        assert all(type(c) is Fraction for c in subordination_target(spec, TruncatedSeries([1, *p])).coeffs)
        a = solve_coefficients(spec, p)
        q = implied_q(spec, a)
        exact = (a.a2, a.a3, a.a4, a.a5)
        assert all(type(x) is Fraction for x in exact + tuple(q))
        fast = solve_fast(spec, np.array([p], dtype=complex))
        qf = implied_q_fast(spec, *fast)[0]
        assert all(abs(x[0] - float(y)) < 1e-11 for x, y in zip(fast, exact))
        assert all(abs(x - float(y)) < 1e-10 for x, y in zip(qf, q))


# the last class has no a5 bound: a5_chain gives the order-4 system for every class
@pytest.mark.parametrize("spec_text", ["st:lambda=0:order:rho=1/4", "ss:beta=0.7",
                                       "m:lambda=1/2:janowski:A=1/2,B=-1/2"])
def test_a5_chain_matches_generic(spec_text):
    spec = parse_spec(spec_text)
    for seed in range(8):
        p = sample(seed, 4)
        a = solve_coefficients(spec, p)
        q = implied_q(spec, a)
        (a2, a3, a4, a5), l = a5_chain(spec, np.array([p]))
        assert abs(a5[0] - complex(a.a5)) < 1e-10
        assert all(abs(x - complex(y)) < 1e-9 for x, y in zip(l[0], q))


def rational(lo, hi):
    return st.fractions(Fraction(lo), Fraction(hi), max_denominator=12)


def fraction_or_float(x):
    return st.sampled_from([x, float(x)])


def rational_or_float(lo, hi):
    """A rational in [lo, hi], drawn as a Fraction or as its float."""
    return rational(lo, hi).flatmap(fraction_or_float)


def rational_specs():
    """Random classes with rational parameters, each a Fraction or a float, the a5 classes among them."""
    num = rational_or_float
    generators = st.one_of(
        st.builds(order_coeffs, num(0, "11/12")),
        # filtered as Fractions: A = 1/3, B = float(1/3) passes B < A but rounds B1 = A - B to 0
        st.tuples(rational(-1, 1), rational(-1, 1)).filter(lambda ab: ab[1] < ab[0])
        .flatmap(lambda ab: st.tuples(*map(fraction_or_float, ab))).map(lambda ab: janowski_coeffs(*ab)),
        st.builds(strong_coeffs, num("1/12", 1)),
        st.builds(lambda *B: MindaGenerator(B), num("1/12", 2), num(-2, 2), num(-2, 2)),
    )
    a5_generators = st.one_of(st.builds(order_coeffs, num(0, "1/2")),
                              st.builds(strong_coeffs, num("1/2", 1)))
    return st.one_of(st.builds(ClassSpec, st.sampled_from(["st", "m"]), num(0, 4), generators),
                     st.builds(ClassSpec, st.just("st"), st.just(Fraction(0)), a5_generators))


def assert_fast_path_matches_the_generic_route(spec, p):
    # every a_n and q_n to 1e-12 relative
    a = solve_coefficients(spec, p)
    generic = (a.a2, a.a3, a.a4, a.a5)[: len(p)] + tuple(implied_q(spec, a))
    row = np.array([[e if isinstance(e, complex) else float(e) for e in p]])
    fast = solve_fast(spec, row)
    systems = [(fast, implied_q_fast(spec, *fast))]
    if len(p) == 4:
        systems.append(a5_chain(spec, row))
    for coeffs, qf in systems:
        for x, y in zip([c[0] for c in coeffs] + list(qf[0]), generic):
            assert abs(x - complex(y)) <= 1e-12 * max(1.0, abs(complex(y)))


@settings(max_examples=80, deadline=None)
@given(rational_specs(), st.lists(rational(-2, 2), min_size=3, max_size=4))
def test_fast_path_matches_the_generic_route_at_random_rational_classes(spec, p):
    assert_fast_path_matches_the_generic_route(spec, p)


@pytest.mark.parametrize("spec_text", [
    "st:lambda=0.5:order:rho=0",  # a decimal lambda over an exact generator
    "m:lambda=1e16:order:rho=0",  # lambda + (1 - lambda) rounds to 0 here
    "m:lambda=8/3:custom:B1=1.25,B2=-0.5,B3=0.75",  # ... and to 1 - 2**-52 here
])
@pytest.mark.parametrize("p", [
    (Fraction(1, 2), Fraction(-1, 3), Fraction(5, 4), Fraction(-2, 7)),
    (0.5 + 0.25j, -0.75 + 0.5j, 0.3 - 0.9j, 0.125j),
])
def test_generic_route_mixes_exact_and_decimal_scalars(spec_text, p):
    for m in (3, 4):
        assert_fast_path_matches_the_generic_route(parse_spec(spec_text), p[:m])


# -- scalar refinement objective vs the one-row array path -------------------

SCALAR_SPECS = [
    f"{op}:lambda={lam}:{gen}"
    for op in ("st", "m")
    for lam in ("0", "1/2", "1")
    for gen in ("order:rho=1/4", "janowski:A=1/2,B=-1/2", "strong:beta=0.6",
                "custom:B1=1,B2=1/2,B3=1/4")
]
A5_SPECS = ["st:lambda=0:order:rho=1/4", "ss:beta=3/4"]
SCALAR_RTOL = 1e-12


def reflection_point(rng, m, real):
    """Random polish coordinates: m of them for a real tuple, 2m for a complex one."""
    return rng.uniform(-2 * np.pi, 4 * np.pi, m if real else 2 * m).tolist()


def array_objective(spec, target_index, p, tol):
    """(value, scale) of the refinement objective at the tuple p on the one-row array path.

    The value is the reference: -|a_target|, less 1e4 E at the first
    prediction error E of T + tol I that is not positive.  Its scale is
    |a_target|, plus 1e4 |E| cond when the penalty is active: each step
    E_{k+1} = E_k (1 - |kappa_k|^2) magnifies a relative rounding of its
    inputs by (1 + |kappa_k|^2) / |1 - |kappa_k|^2|, and cond is the
    product of those factors up to E, so a penalized value carries the
    rounding of q times cond whichever path computes it.
    """
    coeffs, q = oracle._system(spec, np.array([p], dtype=complex))
    value = abs(complex(coeffs[target_index][0]))
    cond = 1.0
    for kap, _, err, _ in levinson([2.0 + tol, *np.conj(q.T)], [None] * q.shape[1]):
        k2 = abs(complex(kap[0])) ** 2
        cond *= (1 + k2) / abs(1 - k2)
        if not err[0] > 0:
            return -value - 1e4 * float(err[0]), value + 1e4 * abs(float(err[0])) * cond
    return -value, value


def assert_rows_close(scalar, array):
    scalar, array = np.asarray(scalar), np.asarray(array)
    assert scalar.shape == array.shape
    assert np.max(np.abs(scalar - array)) <= SCALAR_RTOL * np.max(np.abs(array))


@pytest.mark.parametrize("spec_text,m", [(t, 3) for t in SCALAR_SPECS] + [(t, 4) for t in A5_SPECS])
def test_scalar_system_matches_array_path(spec_text, m):
    # odd draws are real tuples, which the scalar path keeps in floats
    spec = parse_spec(spec_text)
    fast = oracle.fast_spec(spec)
    tol = 1e-7
    targets = (3,) if m == 4 else (0, 1, 2)
    rng = np.random.default_rng(7)
    for k in range(40):
        real = k % 2 == 1
        kind = float if real else complex
        x = reflection_point(rng, m, real)
        p = oracle._from_reflection(oracle._kappa(x, real))
        assert len(p) == m and all(isinstance(e, kind) for e in p)
        coeffs, q = oracle._system(fast, p)
        ref_coeffs, ref_q = oracle._system(spec, np.array([p], dtype=complex))
        assert isinstance(q, tuple) and all(isinstance(e, kind) for e in (*coeffs, *q))
        assert_rows_close([complex(c) for c in coeffs], [c[0] for c in ref_coeffs])
        assert_rows_close([complex(e) for e in q], ref_q[0])
        for target_index in targets:
            value = oracle._objective(spec, target_index, tol, real)(x)
            ref, scale = array_objective(spec, target_index, p, tol)
            assert abs(value - ref) <= SCALAR_RTOL * scale


@pytest.mark.parametrize("spec_text,m", [("st:lambda=0:order:rho=1/4", 3),
                                         ("m:lambda=0:janowski:A=1/2,B=-1/2", 3),
                                         ("st:lambda=0:order:rho=1/4", 4)])
def test_objective_skips_eigvalsh_where_the_levinson_gate_passes(spec_text, m, monkeypatch):
    # no point calls eigvalsh: where the gate fails at the prediction error E,
    # the gate's early return scores -|a| - 1e4 E
    spec = parse_spec(spec_text)
    fast = oracle.fast_spec(spec)
    tol = 1e-7
    target_index = 3 if m == 4 else 1
    objectives = {real: oracle._objective(spec, target_index, tol, real) for real in (False, True)}
    calls = []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1))
    rng = np.random.default_rng(3)
    passed = 0
    for k in range(200):
        real = k % 2 == 1
        x = reflection_point(rng, m, real)
        coeffs, q = oracle._system(fast, oracle._from_reflection(oracle._kappa(x, real)))
        value = objectives[real](x)
        err = gate_error(q, tol)
        if err is None:
            passed += 1
            assert value == -abs(coeffs[target_index])
        else:
            assert err <= 0 and value == -abs(coeffs[target_index]) - 1e4 * err
    assert 0 < passed < 200 and not calls


KERNEL_CLASSES = {
    op: [f"{op}:lambda=1/2:order:rho=1/4", f"{op}:lambda=0.3:strong:beta=0.7",
         f"{op}:lambda=1:janowski:A=1/2,B=-1/2", f"{op}:lambda=1/4:custom:B1=1,B2=1/2,B3=1/4"]
    for op in ("st", "m")
}
KERNEL_CLASSES["m"].append("m:lambda=1e16:order:rho=0")
KERNEL_CLASSES["st"].append("st:lambda=0:custom:B1=1e200,B2=1,B3=1")  # raises OverflowError


def outcome(objective, x):
    """objective(x) with its type, NaN as a kind, or the type of the exception it raised."""
    try:
        value = objective(x)
    except Exception as exc:  # the kernel must raise where the interpreted steps raise
        return type(exc)
    return type(value), "nan" if math.isnan(value) else value


@pytest.mark.parametrize("operator", ["st", "m"])
@pytest.mark.parametrize("target_index", [0, 1, 2, 3])
@pytest.mark.parametrize("real", [False, True])
def test_kernel_objective_equals_the_interpreted_steps(operator, target_index, real):
    # every (operator, target, real) structure, at random points on both sides of the gate and
    # at non-finite ones, over classes whose constants differ
    tol = 1e-7 - oracle.POLISH_MARGIN
    m = 4 if target_index == 3 else 3
    rng = np.random.default_rng(target_index)
    sides = set()
    for spec_text in KERNEL_CLASSES[operator]:
        spec = parse_spec(spec_text)
        fast = oracle.fast_spec(spec)
        kernel = oracle._objective(spec, target_index, tol, real)
        reference = reference_objective(spec, target_index, tol, real)
        points = [reflection_point(rng, m, real) for _ in range(60)]
        points += [[v] * len(points[0]) for v in (math.nan, math.inf, 1e300, 0.0)]
        outcomes = [outcome(reference, x) for x in points]
        assert [outcome(kernel, x) for x in points] == outcomes
        for x in points:
            try:
                _, q = oracle._system(fast, oracle._from_reflection(oracle._kappa(x, real)))
                sides.add(admissible_row(q, tol))
            except (ArithmeticError, ValueError):  # sin(inf), and the overflowing class
                pass
    assert sides == {False, True}


@pytest.mark.parametrize("step", [
    lambda z: z ** 0.5, lambda z: bool(z), lambda z: z < 1, lambda z: z == z,
    lambda z: z * 1j, lambda z: z + np.float64(1.0), lambda z: z + math.inf, lambda z: math.sin(z),
])
def test_tracing_refuses_what_it_cannot_replay(step):
    with pytest.raises(TypeError):
        _kernel.trace(lambda params, inputs, gate: step(inputs[0]), (), [float])


def test_kernels_are_cached_by_structure(capsys):
    # classes that differ only in lambda and B share a kernel, so at most 16 are ever built
    oracle._polish_kernel.cache_clear()
    assert cli.main(["report", "--samples", "100", "--refine-top", "1", "--refine-steps", "5",
                     "--format", "json"]) == 0
    assert oracle._polish_kernel.cache_info().currsize <= 16
    oracle._polish_kernel.cache_clear()
    for spec_text in ("st:lambda=0:order:rho=0", "st:lambda=1:order:rho=1/2"):
        assert cli.main(["verify", spec_text, "--target", "a3", "--restrict-real", "--samples", "100",
                         "--refine-top", "1", "--refine-steps", "5"]) == 0
    info = oracle._polish_kernel.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
    capsys.readouterr()


# -- reflection coordinates --------------------------------------------------


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("max_atoms,restrict_real", [(1, False), (1, True), (2, False), (2, True),
                                                     (5, False), (5, True)])
def test_reflection_coordinates_round_trip(m, max_atoms, restrict_real):
    # one or two atoms give boundary tuples, whose later coefficients are free;
    # real-flagged rows take m coordinates, the others 2m
    P, (_, _, real_flags) = MeasureSampler(13, max_atoms, restrict_real).moments(200, m)
    for row, real in zip(P, real_flags.tolist()):
        x = oracle._to_reflection(row, real)
        assert len(x) == (m if real else 2 * m)
        back = oracle._from_reflection(oracle._kappa(x, real))
        assert max(abs(complex(b) - a) for a, b in zip(row, back)) < 1e-12


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_every_reflection_point_lies_in_the_body(m):
    rng = np.random.default_rng(m)
    boundary = [math.pi / 2] * m + [0.5] * m  # every kappa of modulus 1
    for k in range(200):
        real = k % 2 == 1
        x = boundary[: m if real else None] if k < 2 else reflection_point(rng, m, real)
        assert smallest_eigenvalue(oracle._from_reflection(oracle._kappa(x, real))) >= -1e-12


def polish_coordinates(kappa, real):
    """The x that :func:`oracle._kappa` maps to reflection coefficients kappa.

    Returns x and the kappa it stands for, as ``_kappa`` forms them.
    """
    if real:
        x = [math.asin(k.real) for k in kappa]
    else:
        x = [math.asin(math.sqrt(abs(k))) for k in kappa] + [cmath.phase(k) for k in kappa]
    return x, oracle._kappa(x, real)


def reflection_lists(max_modulus):
    """(real, kappa): 1-4 reflection coefficients of modulus at most max_modulus, real or complex."""
    modulus = st.floats(0.0, max_modulus)
    complex_kappa = st.builds(cmath.rect, modulus, st.floats(-math.pi, math.pi))
    real_kappa = st.builds(lambda r, sign: sign * r, modulus, st.sampled_from([1.0, -1.0]))
    return st.booleans().flatmap(lambda real: st.tuples(
        st.just(real), st.lists(real_kappa if real else complex_kappa, min_size=1, max_size=4)))


def assert_kappa_close(back, kappa):
    """Each kappa_k to 1e-10, or to 1e-13 / E_k where the error E_k before step k is below 1e-3.

    The forward step divides by E_k, so its rounding grows as 1 / E_k:
    four kappa of modulus 0.99 leave E_3 = 7.9e-6 and miss by 3.5e-10.
    """
    err = 1.0
    for a, b in zip(back, kappa):
        assert abs(a - b) <= max(1e-10, 1e-13 / err)
        err *= 1.0 - abs(b) ** 2


@settings(max_examples=300, deadline=None)
@given(reflection_lists(0.99))
def test_reflection_round_trip_inside_the_disc(case):
    real, kappa = case
    x, kappa = polish_coordinates(kappa, real)
    back, boundary = oracle._reflection(oracle._from_reflection(oracle._kappa(x, real)))
    assert not boundary and len(back) == len(kappa)
    assert_kappa_close(back, kappa)


@settings(max_examples=300, deadline=None)
@given(reflection_lists(0.99), st.data())
def test_reflection_reports_the_boundary_where_kappa_has_modulus_one(case, data):
    real, kappa = case
    k = data.draw(st.integers(0, len(kappa) - 1))
    kappa[k] = data.draw(st.sampled_from([1.0, -1.0]) if real
                         else st.builds(cmath.rect, st.just(1.0), st.floats(-math.pi, math.pi)))
    x, kappa = polish_coordinates(kappa, real)
    back, boundary = oracle._reflection(oracle._from_reflection(oracle._kappa(x, real)))
    assert boundary and len(back) == k + 1
    assert_kappa_close(back[:k], kappa)
    assert abs(back[k] - kappa[k]) <= 1e-6


def test_closed_forms_keep_array_shapes():
    spec = parse_spec("st:lambda=1/2:order:rho=1/4")
    p = np.stack([sample(s, 4) for s in range(6)])
    a2, a3, a4 = solve_fast(spec, p[:, :3])
    assert a2.shape == (6,) and implied_q_fast(spec, a2, a3, a4).shape == (6, 3)
    assert implied_q_fast(spec, a2[0], a3[0], a4[0]).shape == (3,)
    spec = parse_spec("ss:beta=3/4")
    (a2, a3, a4, a5), l = a5_chain(spec, p)
    assert a5.shape == (6,) and l.shape == (6, 4)
    (_, _, _, b5), l_fast = a5_chain(oracle.fast_spec(spec), p)
    assert np.array_equal(b5, a5) and np.array_equal(l_fast, l)
    assert a5_chain(spec, p[0])[1].shape == (4,)


# -- search ------------------------------------------------------------------


def test_search_reports_are_deterministic():
    cfg = SearchConfig(seed=3, samples=500, refine_top=1, refine_steps=30)
    spec = parse_spec("st:lambda=0:order:rho=0")
    r1 = max_coeff(spec, "a3", cfg)
    r2 = max_coeff(spec, "a3", cfg)
    assert r1 == r2


def test_monotone_effort_without_refinement():
    spec = parse_spec("st:lambda=1/2:order:rho=1/4")
    best = -1.0
    for n in (100, 400, 1600, 6400):
        cfg = SearchConfig(seed=11, samples=n, refine_top=0)
        rep = max_coeff(spec, "a2", cfg)
        assert rep.best_value >= best - 1e-15
        best = rep.best_value


def test_best_value_below_bound():
    for spec_text in SPECS:
        rep = max_coeff(parse_spec(spec_text), "a2", SearchConfig(seed=1, samples=1500, refine_top=1))
        assert not rep.violated
        assert rep.slack == rep.bound - rep.best_value
        assert rep.variants == {"": {"bound": rep.bound, "violated": False,
                                     "slack": rep.slack, "proven": True}}
        assert 0 < rep.feasible_count <= rep.samples


B = oracle.BLOCK_ROWS


def result_or_error(search, *args):
    try:
        return search(*args)
    except OracleError as exc:
        return str(exc)


@pytest.mark.parametrize("samples", [1, B - 1, B, B + 1, 3 * B + 17])
@pytest.mark.parametrize("spec_text,target_index", [("st:lambda=0:order:rho=1/4", 1), ("ss:beta=3/4", 3)])
@pytest.mark.parametrize("restrict_real", [False, True])
@pytest.mark.parametrize("refine_top", [0, 2])
def test_streamed_search_matches_one_shot(samples, spec_text, target_index, restrict_real, refine_top):
    # every block boundary case: the summary kept between blocks must give the
    # best value, feasible count, argmax and polished candidates of one draw
    spec = parse_spec(spec_text)
    config = SearchConfig(seed=4, samples=samples, refine_top=refine_top, refine_steps=3,
                          restrict_real=restrict_real)
    streamed = result_or_error(oracle._search, spec, target_index, config)
    assert streamed == result_or_error(one_shot_search, spec, target_index, config)
    if samples > 1:
        assert streamed[1] > 0


def test_streamed_candidates_break_ties_by_index(monkeypatch):
    # on m:lambda=1:order:rho=0, dozens of samples reach |a2| = 1 to the last
    # digit, so the best rows tie exactly; the polish takes them by index
    spec = parse_spec("m:lambda=1:order:rho=0")
    p, _ = MeasureSampler(0).moments(3 * B, 3)
    coeffs, q = oracle._system(spec, p)
    values = np.where(caratheodory.admissible_mask(q, 1e-7), np.abs(coeffs[0]), -np.inf)
    tied = np.flatnonzero(values == values.max())
    k = int((tied < B).sum()) + 3  # the candidates span blocks
    assert len(tied) > k
    starts = []

    def record(spec, target_index, p0, config, real):
        starts.append(p0)
        return p0

    monkeypatch.setattr(oracle, "_refine", record)
    oracle._search(spec, 0, SearchConfig(seed=0, samples=3 * B, refine_top=k))
    assert np.array_equal(starts, p[tied[:k]])


def search_peak(samples):
    config = SearchConfig(seed=0, samples=samples, refine_top=0)
    tracemalloc.start()
    try:
        check_a5_system(parse_spec("ss:beta=3/4"), config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_search_memory_does_not_grow_with_samples():
    # numpy reports its buffers to tracemalloc; a search that held every
    # sample at once peaked at 162 MiB for 400k samples against 8.8 MiB for 20k
    assert search_peak(400_000) <= 1.5 * search_peak(20_000)


# a feasible tuple of st:lambda=1/2:order:rho=1/4 with |a3| = 0.4492: seed 0's raw best, rounded
A3_START = (-0.827 - 1.578j, -1.007 + 1.497j, 1.423 + 0.223j)


def test_refinement_gains_on_a3():
    # the polish lifts a3 from a fixed start almost to the bound 1/2, and its
    # point passes the re-check; the search's raw maximum and polish do too
    spec = parse_spec("st:lambda=1/2:order:rho=1/4")
    config = SearchConfig(seed=0, samples=2000, refine_top=1, refine_steps=60)
    (_, a3, _), q = oracle._system(spec, A3_START)
    assert abs(a3) < 0.46 and admissible_row(q, config.tol_feasible)
    p = oracle._refine(spec, 1, np.array(A3_START), config, False)
    (_, a3, _), q = oracle._system(spec, p[None, :])
    assert smallest_eigenvalue(tuple(q[0])) >= -config.tol_feasible
    assert abs(a3[0]) >= 0.4999
    raw = max_coeff(spec, "a3", SearchConfig(seed=0, samples=2000, refine_top=0))
    refined = max_coeff(spec, "a3", SearchConfig(seed=0, samples=2000, refine_top=1, refine_steps=60))
    assert raw.best_value < 0.46
    assert refined.best_value >= 0.4999
    assert refined.argmax["refined"] and not refined.violated


@pytest.mark.parametrize("tol", [1e-7, 0.0])
@pytest.mark.parametrize("spec_text", A5_SPECS)
def test_refined_a5_points_pass_the_recheck(spec_text, tol, monkeypatch):
    # the polish aims POLISH_MARGIN inside -tol, so no polished point lands just
    # outside the re-check at -tol, also at tol = 0; a polish that stays far
    # outside is another matter
    margins = []
    refine = oracle._refine

    def recorded(spec, target_index, p0, config, real):
        p = refine(spec, target_index, p0, config, real)
        _, q = oracle._system(spec, p[None, :])
        margins.append(smallest_eigenvalue(tuple(q[0])) + config.tol_feasible)
        return p

    monkeypatch.setattr(oracle, "_refine", recorded)
    rep = check_a5_system(parse_spec(spec_text), SearchConfig(samples=2000, seed=0, tol_feasible=tol))
    assert rep.argmax["refined"]
    assert smallest_eigenvalue(rep.argmax["q"]) >= -tol + oracle.POLISH_MARGIN / 2
    assert len(margins) == 3 and not any(-1e-6 < g < 0 for g in margins)


def test_polished_point_without_a_witness_is_skipped(monkeypatch, capsys):
    # a polished point whose measure fit_atoms cannot build is skipped, as one
    # that fails the re-check is; verify still reports the raw best
    spec_text = "st:lambda=1/2:order:rho=1/4"
    raw = max_coeff(parse_spec(spec_text), "a3", SearchConfig(seed=0, samples=2000, refine_top=0))
    fits = []

    def no_witness(p):
        fits.append(p)
        raise OracleError("no atomic measure reproduces the tuple")

    monkeypatch.setattr(oracle, "fit_atoms", no_witness)
    rep = max_coeff(parse_spec(spec_text), "a3",
                    SearchConfig(seed=0, samples=2000, refine_top=1, refine_steps=60))
    assert fits and not rep.argmax["refined"] and rep.best_value == raw.best_value
    code = cli.main(["verify", spec_text, "--target", "a3", "--samples", "2000", "--seed", "0",
                     "--refine-top", "1", "--refine-steps", "60", "--format", "json"])
    assert code == 0
    row = json.loads(capsys.readouterr().out)["rows"][0]
    assert row["oracle_best"] == cli._sig15(raw.best_value)


def test_real_flagged_start_is_scored_as_its_candidate(monkeypatch):
    # the sampler keeps the real parts of a real-flagged sample's moments, so
    # the polish must too: its start then scores what the search ranked
    spec = parse_spec("st:lambda=0:order:rho=0")
    config = SearchConfig(seed=0, samples=2000, refine_top=1, refine_steps=1)
    p, (_, _, real_flags) = MeasureSampler(0).moments(2000, 3)
    coeffs, q = oracle._system(spec, p)
    values = np.where(caratheodory.admissible_mask(q, config.tol_feasible), np.abs(coeffs[0]), -np.inf)
    assert real_flags[np.argmax(values)]
    starts = []
    minimize = oracle.minimize

    def first_score(fun, x0, **kwargs):
        starts.append(fun(list(x0)))
        return minimize(fun, x0, **kwargs)

    monkeypatch.setattr(oracle, "minimize", first_score)
    rep = max_coeff(spec, "a2", config)
    assert starts == [pytest.approx(-values.max(), rel=1e-10)]  # the objective adds 1e-12 to each weight
    # the witness holds the symmetrised atoms, whose moments are the real p
    assert rep.argmax["refined"] and all(e.imag == 0 for e in rep.argmax["p"])
    assert_rows_close(atom_moments(*np.array(rep.argmax["atoms"]).T, 3), rep.argmax["p"])


def test_no_feasible_sample_raises():
    cfg = SearchConfig(seed=0, samples=1)
    with pytest.raises(OracleError, match="no feasible"):
        max_coeff(parse_spec("st:lambda=0:order:rho=0"), "a2", cfg)


def test_unknown_target_rejected():
    with pytest.raises(OracleError):
        max_coeff(parse_spec(SPECS[0]), "a7", SearchConfig())


def test_violation_flag_with_fake_bound(monkeypatch):
    tiny = BoundBreakdown(0.01, "case_a", "route_one")
    monkeypatch.setattr(oracle, "class_bounds", lambda spec: (tiny, tiny, tiny))
    rep = max_coeff(parse_spec("st:lambda=0:order:rho=0"), "a2", SearchConfig(seed=1, samples=300, refine_top=0))
    assert rep.violated
    assert rep.slack < 0


def witness_satisfies_equations(spec_text, target):
    """Direct substitution into the raw coefficient equations, bypassing the
    implied-q code path entirely."""
    spec = parse_spec(spec_text)
    rep = max_coeff(spec, target, SearchConfig(seed=5, samples=1500, refine_top=2, refine_steps=40))
    p, q = rep.argmax["p"], rep.argmax["q"]
    lam = float(spec.lam)
    B1, B2, B3 = (float(b) for b in spec.generator.B[:3])
    a2, a3, a4 = (x[0] for x in solve_fast(spec, np.array([p])))

    def phi_of_schwarz(c1, c2, c3):
        w1 = c1 / 2
        w2 = c2 / 2 - c1**2 / 4
        w3 = c3 / 2 - c1 * c2 / 2 + c1**3 / 8
        return (B1 * w1, B1 * w2 + B2 * w1**2, B1 * w3 + 2 * B2 * w1 * w2 + B3 * w1**3)

    r1, r2, r3 = phi_of_schwarz(*q)
    if spec.operator == "st":
        eqs = (
            -(1 + 2 * lam) * a2 - r1,
            -2 * (1 + 3 * lam) * a3 + (3 + 10 * lam) * a2**2 - r2,
            -3 * (1 + 4 * lam) * a4 + (12 + 52 * lam) * a2 * a3 - (10 + 46 * lam) * a2**3 - r3,
        )
    else:
        eqs = (
            -(1 + lam) * a2 - r1,
            -2 * (1 + 2 * lam) * a3 + (3 + 5 * lam) * a2**2 - r2,
            -3 * (1 + 3 * lam) * a4 + (12 + 30 * lam) * a2 * a3 - (10 + 22 * lam) * a2**3 - r3,
        )
    assert max(abs(e) for e in eqs) < 1e-10
    assert smallest_eigenvalue(q) >= -1.1e-7


@pytest.mark.parametrize("spec_text", SPECS[:3])
def test_witness_direct_substitution(spec_text):
    witness_satisfies_equations(spec_text, "a3")


# -- Nelder-Mead ---------------------------------------------------------------

NM_WEIGHTS = [1.0 + 0.37 * k for k in range(10)]
NM_OPTIONS = {"xatol": 1e-10, "fatol": 1e-12}


def rosenbrock(x):
    return sum(100.0 * (x[i + 1] - x[i] ** 2) ** 2 + (1 - x[i]) ** 2 for i in range(len(x) - 1))


def weighted_quadratic(x):
    return sum(w * (v - 0.1 * k) ** 2 for k, (w, v) in enumerate(zip(NM_WEIGHTS, x)))


def stepped(x):
    # plateaus: vertices tie, and contractions fail into shrinks
    return round(weighted_quadratic(x), 2)


def nm_start(seed, n=10):
    x0 = np.random.default_rng(seed).uniform(-2, 2, n)
    x0[seed % n] = 0.0
    return x0.tolist()


@pytest.mark.parametrize("fun,minimum", [(rosenbrock, lambda n: [1.0] * n),
                                         (weighted_quadratic, lambda n: [0.1 * k for k in range(n)])])
@pytest.mark.parametrize("n", range(2, 9))
def test_nelder_mead_reaches_the_minimum(fun, minimum, n):
    calls = []
    res = oracle.minimize(lambda x: calls.append(type(x)) or fun(x), nm_start(n, n), maxiter=20_000,
                          **NM_OPTIONS)
    assert res.success and res.nit < 20_000 and res.fun == fun(res.x)
    assert max(abs(a - b) for a, b in zip(res.x, minimum(n))) <= 1e-6 and res.fun <= 1e-6
    assert res.nfev == len(calls) and set(calls) == {list}


def test_nelder_mead_covers_both_stops():
    # a capped run stops at iteration maxiter without success, a converged one before it
    for fun in (weighted_quadratic, stepped):
        capped = oracle.minimize(fun, nm_start(0), maxiter=5, **NM_OPTIONS)
        converged = oracle.minimize(fun, nm_start(0), maxiter=10_000, **NM_OPTIONS)
        assert (capped.success, capped.nit) == (False, 5)
        assert converged.success and converged.nit < 10_000 and converged.fun < capped.fun


@pytest.mark.parametrize("maxiter", [1, 5, 60, 10_000])
def test_nelder_mead_never_reports_a_nan(maxiter):
    # NaN sorts last, so the best vertex is a number while any vertex is; the
    # start itself scores NaN, and so does the half-space x1 > 0.1 that bounds the minimum
    x0 = nm_start(0)

    def holed(x):
        return math.nan if x == x0 or x[1] > 0.1 else weighted_quadratic(x)

    res = oracle.minimize(holed, x0, maxiter=maxiter, **NM_OPTIONS)
    assert not math.isnan(res.fun) and res.fun == holed(res.x)


# -- fifth-coefficient adjudication ------------------------------------------


def test_a5_report_structure():
    cfg = SearchConfig(seed=2, samples=2000, refine_top=1, refine_steps=30)
    rep = check_a5_system(parse_spec("ss:beta=1/2"), cfg)
    assert set(rep.variants) == {"stated", "rederived"}
    for v in rep.variants.values():
        assert v["slack"] == v["bound"] - rep.best_value
    assert rep.feasible_count > 0
    assert not rep.variants["rederived"]["violated"]
    assert {n: v["proven"] for n, v in rep.variants.items()} == {"stated": False, "rederived": True}
    assert (rep.bound, rep.slack, rep.violated) == tuple(
        rep.variants["rederived"][k] for k in ("bound", "slack", "violated"))


def test_a5_report_order_family():
    cfg = SearchConfig(seed=2, samples=2000, refine_top=1, refine_steps=30)
    rep = check_a5_system(parse_spec("st:lambda=0:order:rho=1/4"), cfg)
    assert set(rep.variants) == {"stated", "proof"}
    assert not rep.variants["proof"]["violated"]
    assert rep.best_value <= rep.variants["proof"]["bound"] + 1e-8


def test_a5_deterministic():
    cfg = SearchConfig(seed=9, samples=500, refine_top=0)
    spec = parse_spec("ss:beta=3/4")
    assert check_a5_system(spec, cfg) == check_a5_system(spec, cfg)


# -- measure recovery --------------------------------------------------------


def test_fit_single_atom():
    mu = fit_atoms((2, 2, 2))
    assert fit_residual(mu, (2, 2, 2)) < 1e-8
    heavy = max(mu.atoms, key=lambda a: a[1])
    assert min(heavy[0], 2 * math.pi - heavy[0]) < 1e-4


def test_fit_two_opposite_atoms():
    mu = fit_atoms((0, 2, 0))
    assert fit_residual(mu, (0, 2, 0)) < 1e-8


def test_fit_random_interior_points():
    for seed in range(20):
        p = scaled(sample(seed, 3), 0.9)
        mu = fit_atoms(p)
        assert fit_residual(mu, p) < 1e-8


def test_fit_rejects_points_outside_the_body():
    p = sample(0, 3)
    t = 2.0 / (2.0 - smallest_eigenvalue(p))
    with pytest.raises(OracleError):
        fit_atoms(scaled(p, 1.3 * t))


@pytest.mark.parametrize("m", [3, 4])
@pytest.mark.parametrize("max_atoms,restrict_real", [(1, False), (2, False), (2, True), (5, False), (5, True)])
def test_fit_sampled_tuples(m, max_atoms, restrict_real):
    # one or two atoms at m = 3, 4 are boundary tuples; real-flagged rows are
    # the real parts of complex ones
    P, _ = MeasureSampler(11, max_atoms, restrict_real).moments(150, m)
    for row in P:
        mu = fit_atoms(row)
        assert fit_residual(mu, row) < 1e-10
        assert len(mu.atoms) <= m + 1


@pytest.mark.parametrize("m", [3, 4])
def test_fit_boundary_and_outside(m):
    for seed in range(40):
        p = sample(seed, m)
        t = 2.0 / (2.0 - smallest_eigenvalue(p))
        assert fit_residual(fit_atoms(scaled(p, t)), scaled(p, t)) < 1e-10
        for s in (1.001, 1.05):
            with pytest.raises(OracleError):
                fit_atoms(scaled(p, s * t))


def test_fit_is_deterministic():
    for m in (3, 4):
        p = scaled(sample(5, m), 0.95)
        assert fit_atoms(p) == fit_atoms(p)


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(samples=0)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        SearchConfig(seed=-1)
    with pytest.raises(ValueError):
        SearchConfig(refine_top=-1)
    with pytest.raises(ValueError, match="refine_steps must be >= 0"):
        SearchConfig(refine_steps=-1)
    assert SearchConfig(refine_steps=0).refine_steps == 0
    with pytest.raises(ValueError):
        SearchConfig(tol_feasible=-1)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            SearchConfig(tol_feasible=bad)
        with pytest.raises(ValueError, match="finite"):
            SearchConfig(tol_violation=bad)

