"""Sparse matrix assembly, eigensolvers, and the scalar sandwich bracket."""
import csv

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sparse
from hypothesis import example, given, settings
from hypothesis import strategies as st

import matschrod.operators as operators_module
from matschrod import (
    ConvergenceError,
    DiffusionField,
    PotentialField,
    VectorState,
    assemble_form,
    assemble_operator,
    build_grid,
    eigen_lowest,
    eval_form,
    pointwise_extremal_eigs,
    sample_fields,
    sandwich_check,
)


def _free_operator(N, L=1.0, d=1, m=1):
    grid = build_grid(d, L, N, m)
    dif, pot = sample_fields(lambda x: np.eye(d), lambda x: np.zeros((m, m)), grid)
    return grid, assemble_operator(assemble_form(dif, pot, grid))


def _random_operator(grid, rng, psd=True):
    mats = rng.standard_normal((grid.n_cells, grid.d, grid.d))
    dif = DiffusionField(grid, np.einsum("nka,nkb->nab", mats, mats) + 0.2 * np.eye(grid.d))
    vm = rng.standard_normal((grid.n_nodes, grid.m, grid.m))
    vs = np.einsum("nka,nkb->nab", vm, vm) / grid.m
    if not psd:
        vs = vs - 2.0 * np.eye(grid.m)
    pot = PotentialField(grid, vs)
    return assemble_operator(assemble_form(dif, pot, grid))


def _laplacian_eigs(grid):
    k = np.arange(1, grid.N + 1)
    return (4.0 / grid.h**2) * np.sin(k * np.pi / (2.0 * (grid.N + 1))) ** 2


#: weight of the x-dependent term TILT * x_0^2 I that the LU Lanczos tests add
#: to a constant V: it makes the operator non-separable, so "lanczos" factors
#: B - sigma I instead of reading the closed form, while the spectrum stays a
#: Kronecker sum (``_kronecker_sum_eigs``) whose repeated values split
TILT = 1e-3


def _tilted_operator(d, N, m, q_diag, vmat, L=1.0):
    grid = build_grid(d, L, N, m)
    dif, pot = sample_fields(lambda x: np.diag(q_diag), lambda x: vmat + TILT * x[0] ** 2 * np.eye(m), grid)
    return grid, assemble_operator(assemble_form(dif, pot, grid))


def _tilted_line(N, value=0.0):
    """The 1-d operator with V = value + TILT x^2, and its whole spectrum."""
    vmat = np.array([[value]])
    grid, op = _tilted_operator(1, N, 1, [1.0], vmat)
    return op, _kronecker_sum_eigs(grid, [1.0], vmat, TILT)


# -- assembly ------------------------------------------------------------------


def test_form_matrix_is_exact_tridiagonal():
    # h = 0.25 is dyadic, so every entry of (1/h) tridiag(-1, 2, -1) is exact
    grid, op = _free_operator(N=7)
    expected = (
        np.diag(np.full(7, 8.0))
        + np.diag(np.full(6, -4.0), 1)
        + np.diag(np.full(6, -4.0), -1)
    )
    assert np.array_equal(op.matrix.toarray(), expected)


def test_stored_matrix_exactly_symmetric():
    rng = np.random.default_rng(21)
    grid = build_grid(2, 1.0, 5, 2)
    op = _random_operator(grid, rng)
    assert (op.matrix - op.matrix.T).nnz == 0


def test_matrix_agrees_with_form_evaluation():
    rng = np.random.default_rng(22)
    grid = build_grid(2, 1.3, 4, 2)
    mats = rng.standard_normal((grid.n_cells, 2, 2))
    dif = DiffusionField(grid, np.einsum("nka,nkb->nab", mats, mats) + 0.2 * np.eye(2))
    vm = rng.standard_normal((grid.n_nodes, 2, 2))
    pot = PotentialField(grid, np.einsum("nka,nkb->nab", vm, vm))
    a = assemble_form(dif, pot, grid)
    op = assemble_operator(a)
    for _ in range(10):
        f = VectorState.random(grid, rng)
        g = VectorState.random(grid, rng)
        quad = float(f.flat() @ (op.matrix @ g.flat()))
        assert quad == pytest.approx(eval_form(a, f, g), rel=1e-12, abs=1e-12)


def test_potential_block_placement():
    # constant V couples components at equal nodes with weight h^d V_ij
    grid = build_grid(1, 1.0, 3, 2)
    b = 0.7
    dif, pot = sample_fields(
        lambda x: 1.0, lambda x: np.array([[2.0, b], [b, 1.0]]), grid
    )
    s = assemble_operator(assemble_form(dif, pot, grid)).matrix.toarray()
    n = grid.n_nodes
    for alpha in range(n):
        assert s[n + alpha, alpha] == pytest.approx(grid.h * b, rel=1e-15)
        assert s[alpha, n + alpha] == s[n + alpha, alpha]
    assert s[0, n + 1] == 0.0  # no cross-node coupling from V


def test_assembly_rejects_asymmetric_potential_input():
    grid = build_grid(1, 1.0, 4, 2)
    anti = np.tile(np.array([[0.0, -1.0], [1.0, 0.0]]), (grid.n_nodes, 1, 1))
    dif, _ = sample_fields(lambda x: 1.0, lambda x: np.zeros((2, 2)), grid)
    a = assemble_form(dif, PotentialField(grid, anti), grid)
    with pytest.raises(ValueError, match="symmetric"):
        assemble_operator(a)


def test_matrix_is_assembled_on_first_read_and_cached():
    # assemble_operator refuses an asymmetric potential at call time (above),
    # but builds S only when something reads it
    _, op = _free_operator(N=9, d=2, m=2)
    assert "matrix" not in op.__dict__
    assert op.generator() is op.generator()
    assert op.__dict__["matrix"] is op.matrix


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(d=st.integers(1, 3), N=st.integers(2, 12), m=st.integers(1, 3), seed=st.integers(0, 2**16))
def test_dimension_needs_no_assembly_and_matches_the_matrix(d, N, m, seed):
    grid = build_grid(d, 1.0, N, m)
    op = _random_operator(grid, np.random.default_rng(seed))
    assert op.dim == grid.state_size and "matrix" not in op.__dict__
    assert op.dim == op.matrix.shape[0] == op.matrix.shape[1]


def test_generator_scaling_and_norm_bound():
    grid, op = _free_operator(N=15)
    b = op.generator()
    np.testing.assert_allclose(
        b.toarray(), op.matrix.toarray() / grid.cell_volume, rtol=1e-15
    )
    w, _ = op.dense_eig()
    assert op.generator_norm_bound() >= w[-1] - 1e-12
    assert op.dense_eig() is op.dense_eig()  # cached


# -- eigensolvers ----------------------------------------------------------------


def test_free_laplacian_spectrum_dense():
    grid, op = _free_operator(N=60)
    report = eigen_lowest(op, 20)
    assert report.method == "dense"
    assert report.shift is None
    np.testing.assert_allclose(report.eigenvalues, _laplacian_eigs(grid)[:20], rtol=1e-10)
    assert np.all(report.residuals <= 1e-10 * report.matrix_norm)


def test_free_laplacian_spectrum_lanczos():
    op, exact = _tilted_line(150)
    report = eigen_lowest(op, 10, method="lanczos")
    assert report.method == "lanczos"
    assert report.shift == -1.0  # V >= 0 keeps the default shift
    assert report.iterations > 0
    np.testing.assert_allclose(report.eigenvalues, exact[:10], rtol=1e-10)
    assert np.all(report.residuals <= 1e-10 * report.matrix_norm)


def test_free_laplacian_spectrum_closed_form():
    grid, op = _free_operator(N=150)
    report = eigen_lowest(op, 10, method="lanczos")
    assert (report.method, report.shift, report.iterations) == ("separable", None, 0)
    np.testing.assert_allclose(report.eigenvalues, _laplacian_eigs(grid)[:10], rtol=1e-10)
    assert np.all(report.residuals <= 1e-10 * report.matrix_norm)


def test_lanczos_matches_dense_on_confining_potential():
    grid = build_grid(1, 10.0, 300, 1)
    dif, pot = sample_fields(lambda x: 1.0, lambda x: float(x @ x), grid)
    op = assemble_operator(assemble_form(dif, pot, grid))
    dense = eigen_lowest(op, 8, method="dense")
    lanc = eigen_lowest(op, 8, method="lanczos")
    np.testing.assert_allclose(lanc.eigenvalues, dense.eigenvalues, rtol=1e-9)
    assert np.all(lanc.residuals <= 1e-10 * lanc.matrix_norm)


def test_lanczos_shift_below_negative_potential_auto_path():
    # dimension 3721 > DENSE_LIMIT, so "auto" runs Lanczos; a shift fixed at -1
    # would sit inside the spectrum and return eigenpairs that are not the lowest.
    # The tilt vanishes on the middle node, so min V = -50 exactly
    grid, op = _tilted_operator(2, 61, 1, [1.0, 1.0], np.array([[-50.0]]))
    report = eigen_lowest(op, 4)
    assert report.method == "lanczos"
    assert report.shift == -51.0
    exact = _kronecker_sum_eigs(grid, [1.0, 1.0], np.array([[-50.0]]), TILT)[:4]
    np.testing.assert_allclose(exact, [-45.07, -37.67, -37.67, -30.28], atol=5e-3)
    np.testing.assert_allclose(report.eigenvalues, exact, rtol=0, atol=report.tol * report.matrix_norm)


def test_negative_potential_auto_path_reads_the_closed_form():
    # the untilted operator above DENSE_LIMIT: both copies of -37.67, exactly
    grid, op = _constant_operator(2, 61, 1, np.eye(2), np.array([[-50.0]]))
    report = eigen_lowest(op, 4)
    assert (report.method, report.shift) == ("separable", None)
    lap = _laplacian_eigs(grid)
    exact = np.sort(np.add.outer(lap, lap).ravel())[:4] - 50.0
    np.testing.assert_allclose(exact, [-45.07, -37.67, -37.67, -30.28], atol=5e-3)
    np.testing.assert_allclose(report.eigenvalues, exact, rtol=0, atol=1e-13 * report.matrix_norm)
    assert report.eigenvalues[1] == report.eigenvalues[2]
    assert np.all(report.residuals <= 1e-14 * report.matrix_norm)


def test_lanczos_matches_dense_on_negative_potential():
    op, _ = _tilted_line(200, -30.0)
    dense = eigen_lowest(op, 3, method="dense")
    lanc = eigen_lowest(op, 3, method="lanczos")
    np.testing.assert_allclose(dense.eigenvalues, [-27.53, -20.13, -7.80], atol=5e-3)
    np.testing.assert_allclose(lanc.eigenvalues, dense.eigenvalues, rtol=0, atol=lanc.tol * lanc.matrix_norm)
    assert np.all(lanc.residuals <= lanc.tol * lanc.matrix_norm)


def _coupled_3d_matches_kronecker_sum(tilt):
    # B = K_q (x) I_2 + I (x) V with K_q the anisotropic 3-d Laplacian (plus
    # the tilt along x_0); the lowest 11 values are simple, so the comparison
    # is index by index
    q = np.array([1.0, 1.37, 1.83])
    vmat = np.array([[1.0, -0.4], [-0.4, 2.0]])
    grid, op = _tilted_operator(3, 8, 2, q, vmat) if tilt else _constant_operator(3, 8, 2, np.diag(q), vmat)
    k = 10
    report = eigen_lowest(op, k, method="lanczos")
    exact = _kronecker_sum_eigs(grid, q, vmat, tilt)
    assert np.all(np.diff(exact[: k + 1]) > 0.1)
    bound = report.tol * report.matrix_norm
    np.testing.assert_allclose(report.eigenvalues, exact[:k], rtol=0, atol=bound)
    assert np.all(report.residuals <= bound)
    return report


def test_lanczos_3d_coupled_matches_kronecker_sum():
    assert _coupled_3d_matches_kronecker_sum(TILT).method == "lanczos"


def test_closed_form_3d_coupled_matches_kronecker_sum():
    assert _coupled_3d_matches_kronecker_sum(0.0).method == "separable"


def test_eigen_lowest_argument_errors():
    _, op = _free_operator(N=8)
    with pytest.raises(ValueError):
        eigen_lowest(op, 0)
    with pytest.raises(ValueError):
        eigen_lowest(op, 9)
    with pytest.raises(ValueError, match="unknown eigensolver"):
        eigen_lowest(op, 2, method="qr")


@pytest.mark.parametrize("tol", [0.0, -1e-10, np.nan, np.inf])
def test_eigen_lowest_rejects_a_tolerance_no_residual_can_meet(tol):
    # a dense report could never pass such a tolerance, and LU Lanczos would
    # grind to its largest basis and raise ConvergenceError
    _, free = _free_operator(N=40)
    tilted, _ = _tilted_line(40)
    for op, method in ((free, "dense"), (free, "lanczos"), (tilted, "lanczos")):
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            eigen_lowest(op, 3, tol=tol, method=method)


def test_auto_switches_to_lanczos_above_dense_limit(monkeypatch):
    monkeypatch.setattr(operators_module, "DENSE_LIMIT", 10)
    op, exact = _tilted_line(40)
    report = eigen_lowest(op, 5)
    assert report.method == "lanczos"
    np.testing.assert_allclose(report.eigenvalues, exact[:5], rtol=1e-10)
    with pytest.raises(ValueError, match="dense path"):
        eigen_lowest(op, 5, method="dense")
    with pytest.raises(ValueError, match="dense path"):
        op.dense_eig()


def test_lanczos_unreachable_tolerance_raises_with_partial():
    op, exact = _tilted_line(50)
    with pytest.raises(ConvergenceError) as exc_info:
        eigen_lowest(op, 3, tol=1e-30, method="lanczos")
    partial = exc_info.value.partial
    assert partial is not None
    # the partial report is still numerically sound, only the tolerance was absurd
    np.testing.assert_allclose(partial.eigenvalues, exact[:3], rtol=1e-9)


def test_exact_paths_report_an_unreachable_tolerance_without_raising():
    # dense and the closed form compute no iterate to refine: they return
    # their residuals, and the caller compares them with tol * matrix_norm
    _, op = _free_operator(N=50)
    for method, expected in (("dense", "dense"), ("lanczos", "separable")):
        report = eigen_lowest(op, 3, tol=1e-30, method=method)
        assert report.method == expected and report.tol == 1e-30
        assert np.all(report.residuals > report.tol * report.matrix_norm)


# -- the Lanczos kernel ------------------------------------------------------------


def test_lanczos_kernel_stops_on_an_invariant_subspace():
    # e_0 + e_1 + e_2 spans a 3-dimensional invariant subspace of diag(1..20)
    diag = np.arange(1.0, 21.0)
    q = np.zeros(20)
    q[:3] = 1.0
    steps = [(len(a), b[-1]) for _, a, b in operators_module._lanczos(lambda x: diag * x, q, 10)]
    assert [size for size, _ in steps] == [1, 2, 3]
    assert steps[-1][1] == 0.0 and steps[0][1] > 0.0 and steps[1][1] > 0.0


def test_lanczos_kernel_with_rng_restarts_to_kmax():
    # ten distinct eigenvalues of multiplicity three: every Krylov space of a
    # single vector breaks down after ten steps, so reaching kmax needs restarts
    diag = np.repeat(np.arange(1.0, 11.0), 3)
    rng = np.random.default_rng(0)
    steps = list(operators_module._lanczos(lambda x: diag * x, rng.standard_normal(30), 25, rng))
    basis, alphas, betas = steps[-1]
    assert len(steps) == 25 and basis.shape == (25, 30) and len(alphas) == len(betas) == 25
    assert betas[9] == 0.0
    assert np.linalg.norm(basis @ basis.T - np.eye(25), 2) <= 1e-12


@pytest.mark.parametrize("N, m, k", [(8, 2, 12), (8, 2, 16), (4, 3, 6)])
def test_forced_lanczos_keeps_multiplicities(N, m, k):
    # m identical components repeat every eigenvalue m times.  At N = 8
    # roundoff leaks the other copies into the basis; at N = 4 the basis
    # breaks down exactly after 4 steps, and only the restart finds them
    grid = build_grid(1, 1.0, N, m)
    dif, pot = sample_fields(lambda x: 1.0, lambda x: float(x @ x) * np.eye(m), grid)
    op = assemble_operator(assemble_form(dif, pot, grid))
    dense = eigen_lowest(op, k, method="dense")
    lanc = eigen_lowest(op, k, method="lanczos")
    np.testing.assert_array_equal(np.ptp(dense.eigenvalues.reshape(-1, m), axis=1) < 1e-12, True)
    np.testing.assert_allclose(lanc.eigenvalues, dense.eigenvalues, rtol=0, atol=1e-12 * lanc.matrix_norm)
    assert np.all(lanc.residuals <= lanc.tol * lanc.matrix_norm)


# -- the constant-coefficient closed form ----------------------------------------------


def _constant_operator(d, N, m, q, vmat, L=1.0):
    grid = build_grid(d, L, N, m)
    dif, pot = sample_fields(lambda x: q, lambda x: vmat, grid)
    return grid, assemble_operator(assemble_form(dif, pot, grid))


def _kronecker_sum_eigs(grid, q_diag, vmat, tilt=0.0):
    """Every eigenvalue of sum_i q_i K_i + V + tilt x_0^2 I, sorted, as a Kronecker sum.

    The first axis carries q_0 K_0 + tilt x_0^2, whose eigenvalues come from
    a dense solve of that 1-d generator when the tilt is nonzero.
    """
    lap = _laplacian_eigs(grid)
    axes = [qi * lap for qi in q_diag]
    if tilt:
        line = build_grid(1, grid.L, grid.N, 1)
        dif, pot = sample_fields(lambda x: q_diag[0], lambda x: tilt * x[0] ** 2, line)
        axes[0] = np.linalg.eigvalsh(assemble_operator(assemble_form(dif, pot, line)).generator().toarray())
    total = np.linalg.eigvalsh(vmat)
    for values in axes:
        total = np.add.outer(total, values)
    return np.sort(total, axis=None)


def _constant_potential(kind, m, rng, level):
    if kind == "scaled_identity":  # every eigenvalue repeated m times
        return level * np.eye(m)
    a = rng.standard_normal((m, m))
    return (a + a.T) / 2.0 + (level if kind == "negative" else 0.0) * np.eye(m)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    d=st.integers(1, 3),
    m=st.integers(1, 3),
    kind=st.sampled_from(("scaled_identity", "coupled", "negative")),
    q=st.sampled_from((0.5, 1.0, 1.7)),
    level=st.sampled_from((-50.0, -7.5, 0.0, 3.0)),
    seed=st.integers(0, 2**16),
    N=st.integers(2, 1500),
    k=st.integers(1, 12),
)
@example(d=3, m=3, kind="scaled_identity", q=1.0, level=-50.0, seed=0, N=7, k=12)
@example(d=2, m=2, kind="scaled_identity", q=1.7, level=-7.5, seed=0, N=27, k=12)
@example(d=3, m=2, kind="negative", q=0.5, level=-50.0, seed=1, N=9, k=12)
def test_separable_lanczos_matches_dense_eigh(d, m, kind, q, level, seed, N, k):
    # isotropic Q makes the 1-d modes interchangeable across axes, so d > 1
    # repeats eigenvalues exactly; the closed form lists every copy.  The
    # dimension is capped at 1500 so that dense eigh stays cheap
    N = min(N, int((1500 / m) ** (1 / d) + 1e-9))
    vmat = _constant_potential(kind, m, np.random.default_rng(seed), level)
    _, op = _constant_operator(d, N, m, q * np.eye(d), vmat)
    k = min(k, op.dim)
    dense = eigen_lowest(op, k, method="dense")
    closed = eigen_lowest(op, k, method="lanczos")
    assert (closed.method, closed.iterations, closed.shift) == ("separable", 0, None)
    bnorm = closed.matrix_norm
    assert np.all(closed.residuals <= 1e-14 * bnorm)
    vecs = closed.eigenvectors
    assert vecs.shape == (op.dim, k)
    assert np.linalg.norm(vecs.T @ vecs - np.eye(k), 2) <= 1e-13
    np.testing.assert_allclose(closed.eigenvalues, dense.eigenvalues, rtol=0, atol=1e-13 * bnorm)


@pytest.mark.parametrize(
    "d, N, m, method",
    [
        (1, 1000, 3, "dense"), (1, 1001, 3, "lanczos"),
        (2, 54, 1, "dense"), (2, 55, 1, "lanczos"),
        (3, 14, 1, "dense"), (3, 15, 1, "lanczos"),
    ],
)
def test_auto_spectrum_across_dense_limit_with_multiplicities(d, N, m, method):
    # dimensions just below and above DENSE_LIMIT = 3000; V = -50 I_m and an
    # isotropic Q repeat the lowest eigenvalues up to six times.  "auto"
    # resolves to ``method``, and "lanczos" reads this operator off the closed form
    grid, op = _constant_operator(d, N, m, np.eye(d), -50.0 * np.eye(m))
    k = 12
    report = eigen_lowest(op, k)
    assert report.method == {"dense": "dense", "lanczos": "separable"}[method]
    exact = _kronecker_sum_eigs(grid, np.ones(d), -50.0 * np.eye(m))[:k]
    assert np.min(np.diff(exact)) <= 1e-12 * np.abs(exact).max()  # a repeated value
    bound = report.tol * report.matrix_norm
    np.testing.assert_allclose(report.eigenvalues, exact, rtol=0, atol=2.0 * np.sqrt(k) * bound)
    assert np.all(report.residuals <= bound)


@pytest.mark.parametrize("d, N, m", [(1, 30, 1), (2, 12, 3), (3, 8, 2)])
def test_separable_dst_matches_scipy_inverts_itself_and_keeps_its_input(d, N, m):
    # the numpy DST-I agrees with scipy's orthonormal one to roundoff, not bit
    # for bit: the two FFTs order their sums differently
    from scipy.fft import dstn

    rng = np.random.default_rng(d)
    _, op = _constant_operator(d, N, m, np.diag([1.0, 1.37, 1.83][:d]), _constant_potential("coupled", m, rng, 0.0))
    mu, w = op.separable
    y = rng.standard_normal(mu.shape)
    bound = 8.0 * np.finfo(float).eps * np.linalg.norm(y)
    got = operators_module._dst1(y, d)
    assert np.max(np.abs(got - dstn(y, type=1, axes=tuple(range(1, d + 1)), norm="ortho"))) <= bound
    assert np.max(np.abs(operators_module._dst1(got, d) - y)) <= bound
    decay = np.exp(-0.1 * mu)
    x = rng.standard_normal(op.dim)
    kept = x.copy()
    operators_module._separable_map(mu, w, lambda z: z * decay)(x)
    np.testing.assert_array_equal(x, kept)


def test_separable_dst_matches_the_dense_sine_matrix():
    N = 37
    j = np.arange(1, N + 1)
    sines = np.sqrt(2.0 / (N + 1)) * np.sin(np.pi * np.outer(j, j) / (N + 1))
    x = np.random.default_rng(5).standard_normal((3, N))
    np.testing.assert_allclose(
        operators_module._dst1(x, 1), x @ sines, rtol=0, atol=8.0 * np.finfo(float).eps * np.linalg.norm(x)
    )


def test_spla_is_scipy_sparse_linalg_and_its_splu_is_the_one_called(monkeypatch):
    # perfbench/traced_cli.py wraps ``operators.spla.splu``, so the factor must
    # go through that attribute
    import scipy.sparse.linalg

    assert operators_module.spla is scipy.sparse.linalg
    calls = []
    splu = operators_module.spla.splu

    def wrapper(*args, **kwargs):
        calls.append("splu")
        return splu(*args, **kwargs)

    monkeypatch.setattr(operators_module.spla, "splu", wrapper)
    operators_module._factor_spd(sparse.identity(4, format="csr"))
    assert calls == ["splu"]


def _spy(monkeypatch, name):
    """Record the calls of ``operators_module.<name>`` and pass them through."""
    calls = []
    fn = getattr(operators_module, name)

    def spy(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(operators_module, name, spy)
    return calls


@pytest.mark.parametrize(
    "q, v_fn, factored",
    [
        (np.diag([1.0, 1.37]), lambda x: np.array([[1.0, -0.4], [-0.4, 2.0]]), False),
        (np.eye(2), lambda x: float(x @ x) * np.eye(2), True),  # harmonic V
        (np.array([[1.0, 0.3], [0.3, 1.0]]), lambda x: np.eye(2), True),  # off-diagonal Q
    ],
    ids=["separable", "harmonic-v", "offdiagonal-q"],
)
def test_only_non_separable_operators_are_factored(monkeypatch, q, v_fn, factored):
    grid = build_grid(2, 1.0, 12, 2)
    dif, pot = sample_fields(lambda x: q, v_fn, grid)
    op = assemble_operator(assemble_form(dif, pot, grid))
    factor_calls, lanczos_calls = _spy(monkeypatch, "_factor_spd"), _spy(monkeypatch, "_lanczos")
    report = eigen_lowest(op, 5, method="lanczos")
    assert factor_calls == (["_factor_spd"] if factored else [])
    assert lanczos_calls == (["_lanczos"] if factored else [])
    assert report.method == ("lanczos" if factored else "separable")


def test_spectrum_report_csv_roundtrip(tmp_path):
    _, op = _free_operator(N=20)
    report = eigen_lowest(op, 5)
    path = tmp_path / "spectrum.csv"
    report.to_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["index", "eigenvalue", "residual"]
    values = np.array([float(r[1]) for r in rows[1:]])
    np.testing.assert_array_equal(values, report.eigenvalues)  # repr() is lossless


# -- the tridiagonal path ----------------------------------------------------------


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    N=st.integers(2, 300),
    m=st.integers(1, 3),
    shift=st.sampled_from((0.0, -1000.0)),
    repeat_block=st.booleans(),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_tridiagonal_path_matches_dense_eigh(N, m, shift, repeat_block, seed, data):
    # d = 1 with a diagonal V is tridiagonal; repeat_block gives every component
    # the same potential, so each eigenvalue has exact multiplicity m
    rng = np.random.default_rng(seed)
    grid = build_grid(1, 2.0, N, m)
    q = DiffusionField(grid, rng.uniform(0.2, 2.0, (grid.n_cells, 1, 1)))
    v = rng.uniform(0.0, 5.0, (grid.n_nodes, m)) + shift
    if repeat_block:
        v[:] = v[:, :1]
    pot = PotentialField(grid, v[:, :, None] * np.eye(m))
    op = assemble_operator(assemble_form(q, pot, grid))
    b = op.generator()
    assert operators_module._tridiagonal(b) is not None
    exact = scipy.linalg.eigh(b.toarray(), eigvals_only=True)
    bnorm = op.generator_norm_bound()
    k = data.draw(st.integers(1, op.dim), label="k")

    report = eigen_lowest(op, k, method="dense")
    vecs = report.eigenvectors
    assert report.method == "dense"
    np.testing.assert_allclose(report.eigenvalues, exact[:k], rtol=0, atol=1e-12 * bnorm)
    assert np.all(report.residuals <= report.tol * bnorm)
    assert np.linalg.norm(vecs.T @ vecs - np.eye(k), 2) <= 1e-12

    w, u = op.dense_eig()
    np.testing.assert_allclose(w, exact, rtol=0, atol=1e-12 * bnorm)
    assert np.all(np.linalg.norm(b @ u - u * w, axis=0) <= report.tol * bnorm)
    assert np.linalg.norm(u.T @ u - np.eye(op.dim), 2) <= 1e-12


def _spy_dense_solvers(monkeypatch):
    calls = []
    for name in ("eigh", "eigh_tridiagonal"):
        def spy(*args, _name=name, _fn=getattr(scipy.linalg, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, name, spy)
    return calls


@pytest.mark.parametrize(
    "d, v_fn, solver",
    [
        (1, lambda x: np.array([[1.0, 0.3], [0.3, 2.0]]), "eigh"),  # coupled m = 2
        (2, lambda x: np.array([[1.0]]), "eigh"),
        (1, lambda x: np.diag([1.0, 2.0]), "eigh_tridiagonal"),
    ],
)
def test_dense_solver_follows_matrix_structure(monkeypatch, d, v_fn, solver):
    grid = build_grid(d, 1.0, 6, 2 if d == 1 else 1)
    dif, pot = sample_fields(lambda x: np.eye(d), v_fn, grid)
    op = assemble_operator(assemble_form(dif, pot, grid))
    if solver == "eigh_tridiagonal":
        # store the zero coupling of the diagonal potential explicitly, off the band
        coo = op.matrix.tocoo()
        n = grid.n_nodes
        rows = np.concatenate([coo.row, np.arange(n), np.arange(n, 2 * n)])
        cols = np.concatenate([coo.col, np.arange(n, 2 * n), np.arange(n)])
        data = np.concatenate([coo.data, np.zeros(2 * n)])
        op.matrix = sparse.csr_matrix((data, (rows, cols)), shape=coo.shape)
        assert op.generator().nnz == coo.nnz + 2 * n
    calls = _spy_dense_solvers(monkeypatch)
    eigen_lowest(op, 3, method="dense")
    op.dense_eig()
    assert calls == [solver, solver]


# -- pointwise extremal eigenvalues ------------------------------------------------


def test_pointwise_extremal_eigs_closed_form():
    rng = np.random.default_rng(23)
    grid = build_grid(1, 1.0, 12, 2)
    a = rng.uniform(-1, 1, grid.n_nodes)
    b = rng.uniform(-1, 1, grid.n_nodes)
    c = rng.uniform(-1, 1, grid.n_nodes)
    samples = np.empty((grid.n_nodes, 2, 2))
    samples[:, 0, 0] = a
    samples[:, 1, 1] = c
    samples[:, 0, 1] = samples[:, 1, 0] = b
    mu, nu = pointwise_extremal_eigs(PotentialField(grid, samples))
    mid = (a + c) / 2.0
    rad = np.sqrt(((a - c) / 2.0) ** 2 + b**2)
    np.testing.assert_allclose(mu, mid - rad, atol=1e-13)
    np.testing.assert_allclose(nu, mid + rad, atol=1e-13)


# -- sandwich bracket ----------------------------------------------------------------


def test_sandwich_degenerate_scalar_multiple():
    # V = c I: mu = nu = c, all three spectra are assembled identically
    grid = build_grid(1, 1.0, 30, 2)
    dif, pot = sample_fields(lambda x: 1.0, lambda x: 0.8 * np.eye(2), grid)
    report = sandwich_check(dif, pot, grid, k=6)
    assert report.passed
    np.testing.assert_allclose(report.lower, report.eigenvalues, rtol=1e-13)
    np.testing.assert_allclose(report.upper, report.eigenvalues, rtol=1e-13)


def test_sandwich_brackets_coupled_potential():
    grid = build_grid(1, 2.0, 40, 2)
    dif, pot = sample_fields(
        lambda x: 1.0,
        lambda x: np.array([[1.5 + x[0] ** 2, 0.4], [0.4, 1.0]]),
        grid,
    )
    report = sandwich_check(dif, pot, grid, k=8)
    assert report.passed
    lo_margin, hi_margin = report.margins()
    assert np.all(lo_margin >= -report.tol_rel * (1 + np.abs(report.eigenvalues)))
    assert np.all(hi_margin >= -report.tol_rel * (1 + np.abs(report.eigenvalues)))
    assert report.max_lower_violation <= report.tol_rel
    assert report.max_upper_violation <= report.tol_rel


def test_sandwich_rejects_indefinite_potential():
    grid = build_grid(1, 1.0, 10, 2)
    dif, pot = sample_fields(lambda x: 1.0, lambda x: -np.eye(2), grid)
    with pytest.raises(ValueError, match="PSD"):
        sandwich_check(dif, pot, grid, k=3)
