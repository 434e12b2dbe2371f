"""Propagators (dense/separable/Krylov) and the measurement probes."""
import warnings
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import matschrod.semigroup as semigroup_module
from matschrod import (
    ConvergenceError,
    DiffusionField,
    GridMismatchError,
    PotentialField,
    PropagatorConfig,
    VectorState,
    assemble_form,
    assemble_operator,
    build_grid,
    contraction_probe,
    eigen_lowest,
    mixed_norm,
    positivity_probe,
    propagate,
    sample_fields,
    strong_continuity_probe,
    violation_witness,
)
import matschrod.operators as operators_module
from matschrod.checks import check_semigroup_structure
from matschrod.semigroup import default_config

import _kronecker as kronecker

DENSE = PropagatorConfig(method="exact-dense")
_V2 = [[1.0, -0.4], [-0.4, 2.0]]
#: the 1-d harmonic oscillator V = x^2 on [-5, 5]
_HARMONIC = kronecker.recipe(1, 60, 1, L=5.0, s=1.0)


def _operator(r):
    """matschrod's operator of a Kronecker recipe, built from the recipe's samples."""
    grid = build_grid(r.d, r.L, r.N, r.m)
    q, v = kronecker.samples(r)
    return grid, assemble_operator(assemble_form(DiffusionField(grid, q), PotentialField(grid, v), grid))


# -- configuration --------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError, match="method"):
        PropagatorConfig(method="euler")
    with pytest.raises(ValueError, match="times"):
        PropagatorConfig(times=(-0.1, 1.0))
    with pytest.raises(ValueError, match="times"):
        PropagatorConfig(times=(1.0, 0.5))
    with pytest.raises(ValueError, match="times"):
        PropagatorConfig(times=(0.1, np.inf))
    with pytest.raises(ValueError, match="times"):
        PropagatorConfig(times=(np.nan,))
    # the Krylov subspace size is the constant _KRYLOV_DIM, not a setting
    with pytest.raises(TypeError, match="krylov_dim"):
        PropagatorConfig(krylov_dim=30)
    with pytest.raises(ValueError, match="method"):
        PropagatorConfig(method="crank-nicolson")
    with pytest.raises(ValueError, match="tolerance"):
        PropagatorConfig(tol=0.0)
    with pytest.raises(ValueError, match="tolerance"):
        PropagatorConfig(tol=np.inf)
    with pytest.raises(ValueError, match="tolerance"):
        PropagatorConfig(tol=np.nan)
    with pytest.raises(ValueError, match="p_list"):
        PropagatorConfig(p_list=(3.0,))
    with pytest.raises(ValueError, match="p_list"):
        PropagatorConfig(p_list=())


def test_default_config_picks_dense_then_krylov(monkeypatch):
    # dense up to DENSE_LIMIT; above it the closed form for constant
    # coefficients and Krylov for the harmonic potential
    _, op = _operator(_HARMONIC._replace(N=20))
    r = kronecker.recipe(2, 5, 2, q=(1.0, 1.7), v=_V2)
    grid, constant = _operator(r)
    assert default_config(op).method == default_config(constant).method == "exact-dense"
    monkeypatch.setattr(semigroup_module, "DENSE_LIMIT", 10)
    assert default_config(op).method == "lanczos-expmv"
    assert default_config(constant).method == "exact-separable"
    f = VectorState.random(grid, np.random.default_rng(0))
    exact = kronecker.propagate(r, f.values, 0.3)
    np.testing.assert_allclose(propagate(constant, f, 0.3).values, exact, rtol=0, atol=1e-13)


# -- propagators ------------------------------------------------------------------


def test_propagate_time_zero_and_errors():
    grid, op = _operator(_HARMONIC._replace(N=20))
    f = VectorState.random(grid, np.random.default_rng(1))
    out = propagate(op, f, 0.0)
    assert out is not f
    np.testing.assert_array_equal(out.values, f.values)
    with pytest.raises(ValueError, match="nonnegative"):
        propagate(op, f, -0.5)
    for t in (np.inf, np.nan):
        with pytest.raises(ValueError, match="propagation time must be finite"):
            propagate(op, f, t)
    with pytest.raises(GridMismatchError):
        propagate(op, VectorState(build_grid(1, 5.0, 21, 1), np.zeros(21)), 0.1)


class _Flow(NamedTuple):
    # id is None in a test that was not parametrized; f0 is VectorState.random drawn from seed (an
    # int, or the Generator a hypothesis draw goes on with).  At each time the state lies within
    # bound (default the propagator's tol + 1e-11) times the growth e^{-tc} and ||f0|| of the oracle, and within
    # versus's bound alike of versus's method; close is an (rtol, atol) at which it meets the oracle
    # entry by entry, kernel the Krylov regime that each time takes, and a row that raises raises
    # at every time with the state at t = 0
    id: str | None
    recipe: kronecker.Kronecker
    method: str
    times: tuple
    seed: object
    bound: float | None = None
    versus: tuple | None = None
    close: tuple | None = None
    kernel: str | None = None
    raises: bool = False


#: the propagator table: each test name maps to its rows, and the one test
#: body below checks each row against the oracle, which does not read matschrod's B
_FLOWS = {
    # adding c I to the potential multiplies the flow by e^{-ct}, as it does the oracle's
    "test_constant_shift_factors_out": [
        _Flow(None, kronecker.recipe(1, 30, 1, L=2.0, v=c), "exact-dense", (0.05, 0.4, 1.1), 2, close=(1e-12, 1e-14))
        for c in (0.0, 1.3)],
    "test_dense_propagator_matches_scipy_expm_multiply": [_Flow(None, _HARMONIC, "exact-dense", (0.01, 0.3), 3)],
    "test_krylov_matches_dense": [
        _Flow(None, _HARMONIC._replace(N=200), "lanczos-expmv", (0.01, 0.5, 2.0), 4, versus=("exact-dense", 1e-8),
              kernel="polynomial")],
    # V = v I multiplies e^{-tB} by e^{-tv} (2.2e4, 3.0e3 and 3.3e6 here), while
    # t ||B|| (1.3e3 to 2.6e3) stays polynomial: the roundoff so amplified is
    # above tol ||f||, and the propagator raises before any work
    "test_polynomial_krylov_meets_tol_or_raises_under_growth": [
        _Flow(f"{v}-{t}", kronecker.recipe(1, 80, 2, v=v), "lanczos-expmv", (t,), 0, kernel="polynomial", raises=True)
        for v, t in [(-50.0, 0.2), (-20.0, 0.4), (-50.0, 0.3)]],
}


def _check_flow(row):
    grid, op = _operator(row.recipe)
    f = VectorState.random(grid, np.random.default_rng(row.seed))
    norm, c = np.linalg.norm(f.values), min(0.0, op.potential.min_eigenvalue)
    config = PropagatorConfig(method=row.method)
    with pytest.MonkeyPatch.context() as patch:
        calls = _spy_kernels(patch)
        for i, t in enumerate(row.times, 1):
            if row.raises:
                with pytest.raises(ConvergenceError) as info:
                    propagate(op, f, t, config)
                assert info.value.partial["t_reached"] == 0.0
                np.testing.assert_array_equal(info.value.partial["state"].values, f.values)
            else:
                got, exact = propagate(op, f, t, config).values, kronecker.propagate(row.recipe, f.values, t)
                budget = np.exp(-t * c) * norm
                assert np.linalg.norm(got - exact) <= (config.tol + 1e-11 if row.bound is None else row.bound) * budget
                if row.versus:
                    method, bound = row.versus
                    other = propagate(op, f, t, PropagatorConfig(method=method)).values
                    assert np.linalg.norm(got - other) <= bound * budget
                if row.close:
                    np.testing.assert_allclose(got, exact, *row.close)
            assert row.kernel is None or calls == {"polynomial": 0, "shift-invert": 0, row.kernel: i}


def _flow_test(rows):
    if rows[0].id is None:  # a test that was not parametrized runs its rows in turn
        def test():
            for row in rows:
                _check_flow(row)
        return test

    @pytest.mark.parametrize("row", rows, ids=[row.id for row in rows])
    def test(row):
        _check_flow(row)
    return test


for _name, _rows in _FLOWS.items():
    globals()[_name] = _flow_test(_rows)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    d=st.integers(1, 3),
    m=st.integers(1, 3),
    kind=st.sampled_from(("scaled_identity", "coupled", "negative")),
    q=st.lists(st.sampled_from((0.5, 1.0, 1.7)), min_size=3, max_size=3),
    level=st.sampled_from((-50.0, -7.5, 0.0, 3.0)),
    t=st.floats(1e-3, 1.0),
    seed=st.integers(0, 2**16),
    N=st.integers(2, 40),
)
def test_exact_separable_matches_exact_dense(d, m, kind, q, level, t, seed, N):
    # forced closed form against the dense eigendecomposition; "negative"
    # reaches V <= -50, where ||e^{-tB}|| grows to e^{-tc}
    N = min(N, int((600 / m) ** (1 / d) + 1e-9))
    rng = np.random.default_rng(seed)
    r = kronecker.recipe(d, N, m, L=3.0, q=q[:d], v=kronecker.random_potential(kind, m, rng, level))
    _check_flow(_Flow(None, r, "exact-separable", (t,), rng, bound=1e-12, versus=("exact-dense", 1e-12)))


def test_exact_separable_refuses_non_separable_operator():
    grid, op = _operator(_HARMONIC._replace(N=20))
    with pytest.raises(ValueError, match="exact-separable"):
        propagate(op, VectorState.random(grid, np.random.default_rng(0)), 0.1,
                  PropagatorConfig(method="exact-separable"))


def test_exact_separable_computes_the_closed_form_once(monkeypatch):
    calls = []
    closed_form = operators_module._separable

    def spy(op):
        calls.append(op.dim)
        return closed_form(op)

    monkeypatch.setattr(operators_module, "_separable", spy)
    grid, op = _operator(kronecker.recipe(2, 6, 2, q=(1.0, 1.7), v=_V2))
    f = VectorState.random(grid, np.random.default_rng(0))
    config = PropagatorConfig(method="exact-separable")
    for t in config.times:
        propagate(op, f, t, config)
    assert calls == [op.dim]


@pytest.mark.parametrize("method", ["exact-dense", "exact-separable"])
def test_exact_propagators_raise_before_exp_overflows(method, recwarn):
    # lambda_min(B) is near -1000, so e^{-tB} overflows for t above 0.71
    grid, op = _operator(kronecker.recipe(1, 20, 1, v=-1000.0))
    f = VectorState.random(grid, np.random.default_rng(0))
    config = PropagatorConfig(method=method)
    assert np.all(np.isfinite(propagate(op, f, 0.7, config).values))
    with pytest.raises(ConvergenceError, match="overflows") as exc_info:
        propagate(op, f, 0.72, config)
    np.testing.assert_array_equal(exc_info.value.partial["state"].values, f.values)
    assert exc_info.value.partial["t_reached"] == 0.0
    assert not recwarn.list


# polynomial at t ||B|| = 1000, then shift-invert at t ||B|| = 18881 > 14400
@pytest.mark.parametrize("N", [20, 140], ids=["polynomial", "shift-invert"])
def test_krylov_raises_before_exp_overflows(N):
    # c = min(0, min V) = -1000, so the growth bound e^{-tc} overflows at t = 1
    grid, op = _operator(kronecker.recipe(1, N, 1, v=-1000.0))
    f = VectorState.random(grid, np.random.default_rng(0))
    config = PropagatorConfig(method="lanczos-expmv")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="lanczos-expmv propagation overflows") as exc_info:
            propagate(op, f, 1.0, config)
    np.testing.assert_array_equal(exc_info.value.partial["state"].values, f.values)
    assert exc_info.value.partial["t_reached"] == 0.0


def test_krylov_eigenvector_is_exact_by_breakdown():
    # a single eigenvector spans an invariant subspace: happy breakdown, exact answer
    grid, op = _operator(_HARMONIC._replace(N=40))
    report = eigen_lowest(op, 1)
    f = VectorState(grid, report.eigenvectors[:, 0])
    lam = report.eigenvalues[0]
    krylov = PropagatorConfig(method="lanczos-expmv")
    got = propagate(op, f, 0.7, krylov)
    np.testing.assert_allclose(got.values, np.exp(-lam * 0.7) * f.values, rtol=1e-11)


def test_krylov_zero_state():
    grid, op = _operator(_HARMONIC._replace(N=20))
    out = propagate(op, VectorState(grid, np.zeros(grid.state_size)), 0.5, PropagatorConfig(method="lanczos-expmv"))
    np.testing.assert_array_equal(out.values, 0.0)


def test_krylov_absurd_tolerance_raises():
    grid, op = _operator(kronecker.recipe(1, 100, 1))
    f = VectorState.random(grid, np.random.default_rng(5))
    config = PropagatorConfig(method="lanczos-expmv", tol=1e-30)
    with pytest.raises(ConvergenceError, match=r"propagator\.tol=1e-30: its floor"):
        propagate(op, f, 1.0, config)


def test_krylov_failure_carries_partial():
    # tol = 1e-30 is below the roundoff floor of both regimes, so mild t||B||
    # (17 here) fails before the polynomial substeps and stiff t||B|| (20200)
    # before the shift-invert factorization; either way the partial is a
    # certified state
    config = PropagatorConfig(method="lanczos-expmv", tol=1e-30)
    for r in (_HARMONIC._replace(N=20), kronecker.recipe(1, 200, 1)):
        g, o = _operator(r)
        f = VectorState.random(g, np.random.default_rng(5))
        with pytest.raises(ConvergenceError, match=r"propagator\.tol=1e-30: its floor") as info:
            propagate(o, f, 0.5, config)
        partial = info.value.partial
        assert 0.0 <= partial["t_reached"] < 0.5
        reached = kronecker.propagate(r, f.values, partial["t_reached"])
        assert partial["state"].grid is g
        assert np.linalg.norm(partial["state"].values - reached) <= 1e-10 * np.linalg.norm(f.values)


@pytest.mark.parametrize("method", ["exact-dense", "exact-separable", "lanczos-expmv"])
def test_subnormal_state_contracts_to_the_bit(method):
    # Q = I and V = 0 contract in every L^p.  Unscaled, a state of 5e-323,
    # ten subnormal ulps, was propagated in subnormal arithmetic: its entries
    # grew past it on the dense and separable paths, and Krylov, whose norm
    # underflowed to 0, returned it unchanged
    grid, op = _operator(kronecker.recipe(2, 8, 2))
    f = VectorState(grid, np.full((2, grid.n_nodes), 5e-323))
    config = PropagatorConfig(method=method)
    for t in config.times:
        got = propagate(op, f, t, config).values
        want = np.ldexp(propagate(op, f.with_values(f.values * 2.0**1000), t, DENSE).values, -1000)
        assert np.max(np.abs(got)) <= 5e-323
        assert np.max(np.abs(got - want)) <= 5e-324  # one ulp


@pytest.mark.parametrize("method, t", [("exact-dense", 1.0), ("exact-separable", 1.0),
                                       ("lanczos-expmv", 0.01), ("lanczos-expmv", 1e4)])
def test_huge_state_propagates_as_its_scaled_copy_to_the_bit(method, t):
    # a largest entry in [2^1022, 2^1023): unscaled, the squares in both Krylov
    # regimes' norms and the sums of the closed form's rfft overflowed
    grid, op = _operator(kronecker.recipe(2, 8, 2))
    f = VectorState.random(grid, np.random.default_rng(5))
    k = 1023 - int(np.frexp(np.abs(f.values).max())[1])
    config = PropagatorConfig(method=method)
    got = propagate(op, f.with_values(f.values * 2.0**k), t, config).values
    assert np.array_equal(got, np.ldexp(propagate(op, f, t, config).values, k))


def test_huge_state_grown_past_the_largest_float_raises():
    grid, op = _operator(kronecker.recipe(1, 16, 1, v=-50.0))
    f = VectorState(grid, np.full((1, grid.n_nodes), 1e300))
    with pytest.raises(ConvergenceError, match="an entry beyond the largest float") as info:
        propagate(op, f, 1.0, DENSE)
    assert info.value.partial["t_reached"] == 0.0 and info.value.partial["state"].values is not f.values


def test_krylov_failure_partial_of_a_subnormal_state_is_scaled_back():
    r = _HARMONIC._replace(N=20)
    grid, op = _operator(r)
    f = VectorState.random(grid, np.random.default_rng(5), 1e-310)
    with pytest.raises(ConvergenceError, match=r"propagator\.tol=1e-30: its floor") as info:
        propagate(op, f, 0.5, PropagatorConfig(method="lanczos-expmv", tol=1e-30))
    # compared on copies scaled by 2^1000, exactly, so the oracle's products stay normal
    state, f0 = (np.ldexp(values, 1000) for values in (info.value.partial["state"].values, f.values))
    reached = kronecker.propagate(r, f0, info.value.partial["t_reached"])
    assert np.linalg.norm(state - reached) <= 1e-10 * np.linalg.norm(f0)


def _spy_kernels(monkeypatch):
    calls = {"polynomial": 0, "shift-invert": 0}
    for name, key in (("_polynomial_expm", "polynomial"), ("_shift_invert_expm", "shift-invert")):
        kernel = getattr(semigroup_module, name)

        def spy(*args, _kernel=kernel, _key=key):
            calls[_key] += 1
            return _kernel(*args)

        monkeypatch.setattr(semigroup_module, name, spy)
    return calls


def test_krylov_dispatch_by_stiffness(monkeypatch):
    # t ||B|| <= (4 * 30)^2 stays polynomial: a 2-d m=2 operator at the
    # evolve-2d mesh width h ~ 0.1 has t ||B|| ~ 1.2e3 at t=1, below 120^2
    calls = _spy_kernels(monkeypatch)
    r = kronecker.recipe(2, 20, 2, q=(1.0, 1.7), v=_V2)
    grid, op = _operator(r)
    f = VectorState.random(grid, np.random.default_rng(10))
    krylov = PropagatorConfig(method="lanczos-expmv")
    for t in (0.01, 0.1, 1.0):
        got = propagate(op, f, t, krylov).values
        assert np.linalg.norm(got - kronecker.propagate(r, f.values, t)) <= 1e-10 * np.linalg.norm(f.values)
    assert calls == {"polynomial": 3, "shift-invert": 0}
    # semigroup_structure (||B|| ~ 2.6e5): t = 0.01 is polynomial, 0.1 and 1 are stiff
    calls.update(polynomial=0)
    passed, detail = check_semigroup_structure()
    assert passed and detail["krylov_vs_dense_worst_rel"] <= 1e-10
    assert calls == {"polynomial": 5, "shift-invert": 10}


def test_krylov_regime_threshold_is_fixed(monkeypatch):
    # one operator on either side of t ||B||_oo = (4 * 30)^2 = 14400
    assert (4 * semigroup_module._KRYLOV_DIM) ** 2 == 14400
    r = _HARMONIC._replace(N=200)
    grid, op = _operator(r)
    f = VectorState.random(grid, np.random.default_rng(12))
    krylov = PropagatorConfig(method="lanczos-expmv")
    calls = _spy_kernels(monkeypatch)
    expected = {"polynomial": 0, "shift-invert": 0}
    for side, scale in (("polynomial", 1.0 - 1e-6), ("shift-invert", 1.0 + 1e-6)):
        t = 14400.0 * scale / op.generator_norm_bound()
        got = propagate(op, f, t, krylov).values
        expected[side] += 1
        assert calls == expected
        assert np.linalg.norm(got - kronecker.propagate(r, f.values, t)) <= 1e-10 * np.linalg.norm(f.values)


def test_polynomial_krylov_covers_the_threshold_in_few_substeps_and_caps_them(monkeypatch):
    # one subspace size covers t ||B|| just below 14400 in 22 substeps here;
    # with the cap at 2 the propagator raises with the state it reached
    r = _HARMONIC._replace(N=200)
    grid, op = _operator(r)
    f = VectorState.random(grid, np.random.default_rng(12))
    krylov = PropagatorConfig(method="lanczos-expmv")
    t = 14400.0 * (1.0 - 1e-6) / op.generator_norm_bound()
    calls = _spy_kernels(monkeypatch)
    sizes = []
    kernel = semigroup_module._lanczos

    def spy_kernel(apply, q, kmax, rng=None):
        sizes.append(kmax)
        return kernel(apply, q, kmax, rng)

    monkeypatch.setattr(semigroup_module, "_lanczos", spy_kernel)
    propagate(op, f, t, krylov)
    assert calls == {"polynomial": 1, "shift-invert": 0}
    assert 1 < len(sizes) < 100 and set(sizes) == {semigroup_module._KRYLOV_DIM}
    monkeypatch.setattr(semigroup_module, "_MAX_SUBSTEPS", 2)
    with pytest.raises(ConvergenceError, match="2 substeps reached only") as info:
        propagate(op, f, t, krylov)
    partial = info.value.partial
    assert 0.0 < partial["t_reached"] < t
    reached = kronecker.propagate(r, f.values, partial["t_reached"])
    assert np.linalg.norm(partial["state"].values - reached) <= krylov.tol * np.linalg.norm(f.values)


@pytest.mark.parametrize("bound", [np.inf, np.nan])
def test_polynomial_krylov_raises_when_no_substep_fits(monkeypatch, bound):
    # a defect bound that never fits, NaN included, halves the first substep
    # to its floor of 1e-10 t: the propagator raises with the state it started from
    monkeypatch.setattr(semigroup_module, "_krylov_step_error", lambda *args: bound)
    grid, op = _operator(_HARMONIC._replace(N=60))  # dimension 60 > 30: no happy breakdown
    f = VectorState.random(grid, np.random.default_rng(13))
    with pytest.raises(ConvergenceError, match="substep fell below 1e-10 t") as info:
        propagate(op, f, 0.5, PropagatorConfig(method="lanczos-expmv"))
    assert info.value.partial["t_reached"] == 0.0
    np.testing.assert_array_equal(info.value.partial["state"].values, f.values)


#: with ||B|| ~ 1640 this is stiff: t ||B|| ~ 14760 > 14400
_STIFF_T = 9.0


def test_shift_invert_eigenvector_is_exact_by_breakdown(monkeypatch):
    grid, op = _operator(_HARMONIC._replace(N=200))
    calls = _spy_kernels(monkeypatch)
    sizes = []
    kernel = semigroup_module._lanczos

    def spy_kernel(*args):
        *_, (basis, alphas, betas) = kernel(*args)
        sizes.append((basis.shape[0], betas[-1] == 0.0))
        yield basis, alphas, betas

    monkeypatch.setattr(semigroup_module, "_lanczos", spy_kernel)
    report = eigen_lowest(op, 2)
    krylov = PropagatorConfig(method="lanczos-expmv")
    for i in range(2):
        f = VectorState(grid, report.eigenvectors[:, i])
        got = propagate(op, f, _STIFF_T, krylov)
        want = np.exp(-report.eigenvalues[i] * _STIFF_T) * f.values
        np.testing.assert_allclose(got.values, want, rtol=1e-11, atol=1e-13 * np.abs(want).max())
    assert calls["shift-invert"] == 2
    assert sizes == [(1, True), (1, True)]


def test_shift_invert_zero_state(monkeypatch):
    grid, op = _operator(_HARMONIC._replace(N=200))
    calls = _spy_kernels(monkeypatch)
    config = PropagatorConfig(method="lanczos-expmv")
    f = VectorState.random(grid, np.random.default_rng(11))
    propagate(op, f, _STIFF_T, config)
    assert calls["shift-invert"] == 1
    out = propagate(op, VectorState(grid, np.zeros(grid.state_size)), _STIFF_T, config)
    np.testing.assert_array_equal(out.values, 0.0)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    d=st.sampled_from((1, 2)),
    n_per_dim=st.integers(4, 12),
    m=st.integers(1, 3),
    t=st.floats(1e-3, 2.0),
    constant_v=st.one_of(st.none(), st.floats(-50.0, 0.0)),
    seed=st.integers(0, 2**16),
)
# t ||B|| is about 78 (polynomial) and 5.6e4 (shift-invert)
@example(d=2, n_per_dim=4, m=3, t=0.62, constant_v=None, seed=0)
@example(d=1, n_per_dim=12, m=1, t=2.0, constant_v=None, seed=0)
def test_krylov_matches_dense_property(d, n_per_dim, m, t, constant_v, seed):
    """Forced Krylov against exact-dense on both sides of the stiffness dispatch.

    ``constant_v`` None draws a random PSD potential, otherwise V = v I with
    v down to -50, where ||e^{-tB}|| reaches e^{-tv}.  The absolute budget
    tol ||f|| then nears the roundoff of the output, so past a growth of 100
    the propagator may raise instead; whatever it returns must still hold.
    """
    N = n_per_dim if d == 2 else 8 * n_per_dim
    grid = build_grid(d, 1.0, N, m)
    rng = np.random.default_rng(seed)
    q = np.zeros((grid.n_cells, d, d))
    q[:, range(d), range(d)] = rng.uniform(0.2, 3.0, size=(grid.n_cells, d))
    if constant_v is None:
        mats = rng.standard_normal((grid.n_nodes, m, m))
        v = mats.transpose(0, 2, 1) @ mats / m
    else:
        v = np.tile(constant_v * np.eye(m), (grid.n_nodes, 1, 1))
    op = assemble_operator(assemble_form(DiffusionField(grid, q), PotentialField(grid, v), grid))
    f = VectorState.random(grid, rng)
    config = PropagatorConfig(method="lanczos-expmv", tol=1e-10)
    stiff = t * op.generator_norm_bound() > (4 * semigroup_module._KRYLOV_DIM) ** 2
    event("shift-invert" if stiff else "polynomial")
    growth = np.exp(t * max(0.0, -op.potential.min_eigenvalue))
    try:
        got = propagate(op, f, t, config)
    except ConvergenceError:
        assert growth > 100.0
        return
    err = mixed_norm(got - propagate(op, f, t, DENSE), 2)
    assert err <= (config.tol + 1e-12 * growth) * mixed_norm(f, 2)


# -- structural guarantees -------------------------------------------------------------


@pytest.mark.parametrize("coupling", [-0.5, 0.5], ids=["nonpositive-coupling", "positive-coupling"])
@pytest.mark.parametrize("diagonal", [2.0, -1.0], ids=["psd-v", "indefinite-v"])
@pytest.mark.parametrize("q_offdiag", [0.0, 0.3], ids=["diagonal-q", "offdiagonal-q"])
def test_operator_guarantees_gate_every_probe(q_offdiag, diagonal, coupling):
    # V = [[diagonal, coupling], [coupling, 2]] is PSD for diagonal = 2 and
    # indefinite for diagonal = -1; Q = [[1, q], [q, 1.5]] is SPD either way
    grid = build_grid(2, 1.0, 4, 2)
    q = np.tile(np.array([[1.0, q_offdiag], [q_offdiag, 1.5]]), (grid.n_cells, 1, 1))
    v = np.tile(np.array([[diagonal, coupling], [coupling, 2.0]]), (grid.n_nodes, 1, 1))
    op = assemble_operator(assemble_form(DiffusionField(grid, q), PotentialField(grid, v), grid))
    psd, q_diagonal = diagonal > 0, q_offdiag == 0.0
    for p in (1.0, 2.0, 4.0, np.inf):
        assert op.contracts_in(p) == (psd and (p == 2.0 or q_diagonal))
    assert op.positivity_preserving == (q_diagonal and coupling <= 0)

    f = VectorState.bump(grid)
    contraction = contraction_probe(op, [f], PropagatorConfig(times=(0.1,)))
    assert {r["p"]: r["guaranteed"] for r in contraction.records} == {
        p: op.contracts_in(p) for p in (1.0, 2.0, 4.0, np.inf)
    }
    assert contraction.guaranteed == op.contracts_in(np.inf)
    assert strong_continuity_probe(op, f, (0.25, 0.5), p=4.0).guaranteed == op.contracts_in(np.inf)
    assert positivity_probe(op, [f], (0.1,)).guaranteed == op.positivity_preserving
    if coupling > 0:
        assert violation_witness(op, 0, 1).guaranteed == op.positivity_preserving


def test_probes_that_measure_nothing_are_untested():
    grid, op = _operator(kronecker.recipe(1, 10, 2, L=3.0, v=[[2.0, -0.5], [-0.5, 2.0]]))
    assert op.positivity_preserving and op.contracts_in(np.inf)
    f, zero_state = VectorState.bump(grid), VectorState(grid, np.zeros(grid.state_size))
    assert positivity_probe(op, [], [0.1]).verdict == "untested"
    assert positivity_probe(op, [f], []).verdict == "untested"
    zero = positivity_probe(op, [zero_state] * 2, [0.1])
    assert zero.threshold == 0.0 and zero.verdict == "untested"
    assert strong_continuity_probe(op, f, [], p=4.0).verdict == "untested"
    # a zero state has zero deviations and bounds at every time
    assert strong_continuity_probe(op, zero_state, [0.1, 0.2], p=4.0).verdict == "untested"
    # one nonzero state among zeros is a test
    assert positivity_probe(op, [zero_state, f], [0.1]).verdict == "positive"


# -- contraction probe ---------------------------------------------------------------


def test_contraction_probe_guarantees_and_zero_states():
    grid, op = _operator(_HARMONIC._replace(N=40))
    rng = np.random.default_rng(6)
    states = [VectorState.random(grid, rng), VectorState(grid, np.zeros(grid.state_size))]
    config = PropagatorConfig(times=(0.1, 1.0), p_list=(1.0, 2.0, np.inf))
    report = contraction_probe(op, states, config)
    assert report.verdict == "pass"
    assert report.guaranteed  # scalar diagonal Q, PSD V
    zero_recs = [r for r in report.records if r["f_index"] == 1]
    assert zero_recs and all(r["ratio"] is None and not r["guaranteed"] for r in zero_recs)
    live_recs = [r for r in report.records if r["f_index"] == 0]
    assert all(r["guaranteed"] for r in live_recs)
    assert all(r["ratio"] <= 1.0 + report.threshold for r in live_recs)


def test_contraction_probe_offdiagonal_diffusion_only_certifies_p2():
    grid = build_grid(2, 1.0, 6, 1)
    q = np.tile(np.array([[1.0, 0.3], [0.3, 1.0]]), (grid.n_cells, 1, 1))
    _, pot = sample_fields(lambda x: np.eye(2), lambda x: 0.0, grid)
    op = assemble_operator(assemble_form(DiffusionField(grid, q), pot, grid))
    f = VectorState.random(grid, np.random.default_rng(7))
    report = contraction_probe(op, [f], PropagatorConfig(times=(0.5,)))
    assert not report.guaranteed
    flags = {r["p"]: r["guaranteed"] for r in report.records}
    assert flags == {1.0: False, 2.0: True, 4.0: False, np.inf: False}


def test_contraction_probe_without_gated_records_is_untested(monkeypatch):
    # V = -3 is not PSD, so no ratio is guaranteed while the sup norm grows
    grid, op = _operator(kronecker.recipe(1, 30, 1, L=3.0, v=-3.0))
    f = VectorState.random(grid, np.random.default_rng(8))
    report = contraction_probe(op, [f], PropagatorConfig(times=(0.1, 1.0)))
    assert not any(r["guaranteed"] for r in report.records)
    assert max(r["ratio"] for r in report.records) > 1.0
    assert report.verdict == "untested"
    # a zero state is skipped, so a list of zero states tests nothing either
    _, harmonic = _operator(_HARMONIC._replace(N=20))
    calls = []
    monkeypatch.setattr(semigroup_module, "propagate", lambda *args: calls.append(args))
    zeros = [VectorState(harmonic.grid, np.zeros(20))] * 2
    report = contraction_probe(harmonic, zeros, PropagatorConfig(times=(0.1,)))
    assert report.verdict == "untested" and not calls
    assert all(r["norm_out"] == 0.0 and r["ratio"] is None and not r["guaranteed"] for r in report.records)


# -- strong continuity probe -----------------------------------------------------------


def test_strong_continuity_eigenvector_closed_form():
    # T(t) v = e^{-lambda t} v, so ||T(t)v - v||_p = (1 - e^{-lambda t}) ||v||_p
    grid, op = _operator(_HARMONIC._replace(N=50))
    rep = eigen_lowest(op, 1)
    lam = rep.eigenvalues[0]
    f = VectorState(grid, rep.eigenvectors[:, 0])
    times = [1.0 / 2**j for j in range(4, 0, -1)]
    report = strong_continuity_probe(op, f, times, p=4.0)
    assert report.verdict == "pass"
    norm4 = mixed_norm(f, 4)
    for rec in report.records:
        expected = (1.0 - np.exp(-lam * rec["t"])) * norm4
        assert rec["deviation_p"] == pytest.approx(expected, rel=1e-10)
        assert rec["interpolation_ok"] and rec["trend_ok"]


def test_strong_continuity_without_contraction_is_untested():
    # V = -3 is not PSD: T(t) grows like e^{3t}, so the factor 2||f||_oo of the
    # bound is unfounded; a random state meets it anyway, a bump breaks it
    grid, op = _operator(kronecker.recipe(1, 30, 1, L=3.0, v=-3.0))
    times = (0.0625, 0.125, 0.25, 0.5, 1.0)
    met = strong_continuity_probe(op, VectorState.random(grid, np.random.default_rng(8)), times, p=4.0)
    broken = strong_continuity_probe(op, VectorState.bump(grid, 0.5), times, p=4.0)
    assert not met.guaranteed and not broken.guaranteed
    assert all(r["interpolation_ok"] and r["trend_ok"] for r in met.records)
    assert not all(r["interpolation_ok"] for r in broken.records)
    assert met.verdict == broken.verdict == "untested"


def test_strong_continuity_rejects_small_p():
    grid, op = _operator(_HARMONIC._replace(N=20))
    f = VectorState.random(grid, np.random.default_rng(8))
    with pytest.raises(ValueError, match="p > 2"):
        strong_continuity_probe(op, f, [0.1], p=2.0)
    with pytest.raises(ValueError, match="nonnegative"):
        strong_continuity_probe(op, f, [-0.1, 0.1], p=4.0)


# -- positivity probe -------------------------------------------------------------------


def test_positivity_probe_scalar_case_certified():
    grid, op = _operator(_HARMONIC._replace(N=40))
    f = VectorState(grid, np.maximum(1.0 - grid.node_coords()[:, 0] ** 2, 0.0))
    report = positivity_probe(op, [f], [0.01, 0.1, 1.0])
    assert report.guaranteed
    assert report.verdict == "positive"
    assert all(r["min_component"] >= -report.threshold for r in report.records)


def test_positivity_probe_rejects_negative_input():
    grid, op = _operator(_HARMONIC._replace(N=20))
    bad = VectorState(grid, grid.node_coords()[:, 0])
    with pytest.raises(ValueError, match="nonnegative"):
        positivity_probe(op, [bad], [0.1])


def test_positivity_probe_records_violation_for_positive_coupling():
    grid, op = _operator(kronecker.recipe(1, 40, 2, L=3.0, v=[[2.0, 0.5], [0.5, 2.0]]))
    phi = np.maximum(1.0 - np.abs(grid.axis_nodes()), 0.0)
    f = VectorState(grid, np.stack([phi, np.zeros_like(phi)]))
    report = positivity_probe(op, [f], [0.5])
    assert not report.guaranteed  # offdiag_max = 0.5 > 0
    assert report.verdict == "violations"
    assert min(r["min_component"] for r in report.records) < -report.threshold


def test_positivity_preserved_for_nonpositive_coupling():
    grid, op = _operator(kronecker.recipe(1, 40, 2, L=3.0, v=[[2.0, -0.5], [-0.5, 2.0]]))
    phi = np.maximum(1.0 - np.abs(grid.axis_nodes()), 0.0)
    f = VectorState(grid, np.stack([phi, phi]))
    report = positivity_probe(op, [f], [0.01, 0.1, 1.0])
    assert report.guaranteed
    assert report.verdict == "positive"


# -- violation witness --------------------------------------------------------------------


def test_violation_witness_first_order_magnitude():
    # to leading order the j-component at the bump center is -t v_ij
    grid, op = _operator(kronecker.recipe(1, 40, 2, L=3.0, v=[[2.0, 0.5], [0.5, 2.0]]))
    report = violation_witness(op, 0, 1)
    assert report.verdict == "violation-found"
    w = report.witness
    assert w["component"] == 1
    assert w["t"] == pytest.approx(1e-3)  # found at the first grid time
    assert w["value"] == pytest.approx(-0.5 * 1e-3, rel=0.25)


def test_violation_witness_argument_errors():
    grid, op = _operator(kronecker.recipe(1, 40, 2, L=3.0, v=[[2.0, 0.5], [0.5, 2.0]]))
    with pytest.raises(ValueError, match="distinct"):
        violation_witness(op, 0, 0)
    with pytest.raises(ValueError, match="distinct"):
        violation_witness(op, 0, 5)
    _, op_diag = _operator(kronecker.recipe(1, 40, 2, L=3.0, v=[[2.0, 0.0], [0.0, 2.0]]))
    with pytest.raises(ValueError, match="nothing to witness"):
        violation_witness(op_diag, 0, 1)
    _, op_neg = _operator(kronecker.recipe(1, 40, 2, L=3.0, v=[[2.0, -0.5], [-0.5, 2.0]]))
    with pytest.raises(ValueError, match="nothing to witness"):
        violation_witness(op_neg, 0, 1)


def test_violation_witness_not_found_is_explicit():
    # v_12 = 1e-12 lowers the second component by about t * 1e-12, far above
    # the -1e-8 ||f||_oo a witness needs, so the hunt legitimately fails
    _, op = _operator(kronecker.recipe(1, 40, 2, L=3.0, v=[[2.0, 1e-12], [1e-12, 2.0]]))
    report = violation_witness(op, 0, 1)
    assert report.verdict == "not-found"
    assert report.witness is None
    assert [r["t"] for r in report.records] == list(semigroup_module._WITNESS_TIMES)
