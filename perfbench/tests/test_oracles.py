"""Tests of the benchmark's reference computations and output checks.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
The references are compared with dense ``scipy.linalg.eigh``/``expm`` of
small operators that numpy builds directly; the negative controls show that
the checks reject wrong outputs.
"""
import csv
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import oracles  # noqa: E402
import workloads  # noqa: E402

V = np.array(workloads.V_MATRIX)


def dirichlet_1d(L, N, potential=None):
    h = oracles.grid_spacing(L, N)
    K = (2.0 * np.eye(N) - np.eye(N, k=1) - np.eye(N, k=-1)) / h**2
    if potential is not None:
        K += np.diag(potential(-L + np.arange(1, N + 1) * h))
    return K


def kron_sum(axis_ops):
    """sum_i I (x) .. (x) A_i (x) .. (x) I, axis 0 outermost (C order)."""
    n = [a.shape[0] for a in axis_ops]
    total = np.zeros((int(np.prod(n)),) * 2)
    for i, a in enumerate(axis_ops):
        left, right = np.eye(int(np.prod(n[:i]))), np.eye(int(np.prod(n[i + 1:])))
        total += np.kron(np.kron(left, a), right)
    return total


def harmonic_axis_eigenvalues(L: float, N: int, scale: float) -> np.ndarray:
    """Eigenvalues of the 1-d operator K + diag(scale x^2), by dense eigh."""
    h = oracles.grid_spacing(L, N)
    x = -L + np.arange(1, N + 1) * h
    diag = 2.0 / h**2 + scale * x**2
    off = np.full(N - 1, -1.0 / h**2)
    return scipy.linalg.eigh_tridiagonal(diag, off, eigvals_only=True)


def generator(q_diag, Vm, L, N, potential=None):
    """Dense B = V (x) I + I_m (x) sum_i q_i K_i, component-major."""
    spatial = kron_sum([q * dirichlet_1d(L, N, potential) for q in q_diag])
    m = Vm.shape[0]
    return np.kron(Vm, np.eye(spatial.shape[0])) + np.kron(np.eye(m), spatial)


@pytest.mark.parametrize("q_diag, N, L", [((1.0, 1.7), 7, 10.0), ((1.0, 1.37, 1.83), 4, 1.0)])
def test_constant_coupling_spectrum_matches_dense(q_diag, N, L):
    B = generator(q_diag, V, L, N)
    k = 12
    exact = oracles.constant_coupling_spectrum(q_diag, V, L, N, k)
    dense = scipy.linalg.eigh(B, eigvals_only=True)[:k]
    np.testing.assert_allclose(exact, dense, rtol=1e-12, atol=1e-10)


def test_harmonic_separable_spectrum_matches_dense():
    L, N, k = 4.0, 9, 10
    B = generator((1.0, 1.0), np.zeros((2, 2)), L, N, potential=lambda x: x**2)
    axis = harmonic_axis_eigenvalues(L, N, 1.0)
    exact = oracles.separable_spectrum([axis, axis], [0.0, 0.0], k)
    np.testing.assert_allclose(exact, scipy.linalg.eigh(B, eigvals_only=True)[:k], rtol=1e-12)


@pytest.mark.parametrize("t", [0.01, 0.1, 1.0])
def test_separable_propagator_matches_expm(t):
    q_diag, L, N, m = (1.0, 1.7), 10.0, 6, 2
    rng = np.random.default_rng(5)
    f0 = np.abs(rng.standard_normal((m, N, N)))
    exact = scipy.linalg.expm(-t * generator(q_diag, V, L, N)) @ f0.ravel()
    ours = oracles.separable_propagate(f0, t, q_diag, V, L, N)
    np.testing.assert_allclose(ours.ravel(), exact, rtol=0, atol=1e-13 * np.linalg.norm(f0))


def test_oracle_conventions_match_matschrod():
    """The numpy-built generator is the one matschrod assembles (layout, scaling)."""
    sys.path.insert(0, str(HERE.parents[1] / "src"))
    mat = pytest.importorskip("matschrod")
    q_diag, L, N = (1.0, 1.7), 10.0, 5
    grid = mat.build_grid(2, L, N, 2)
    fields = mat.sample_fields(lambda x: np.diag(q_diag), lambda x: V, grid)
    op = mat.assemble_operator(mat.assemble_form(*fields, grid))
    np.testing.assert_allclose(op.generator().toarray(), generator(q_diag, V, L, N), rtol=1e-13, atol=1e-10)


def test_spectrum_check_accepts_exact_and_rejects_dropped_multiplicity():
    """Negative control: the output of the harmonic m=2, N=200, k=10 command.

    ``matschrod spectrum --grid.d=2 --grid.N=200 --grid.m=2 --grid.L=10
    --coefficients.v.kind=harmonic --coefficients.v.scale=1 --solver.k=10``
    exits 0 but returns 3.99628 three times where the level has
    multiplicity four.
    """
    with open(HERE / "data" / "harmonic_multiplicity_spectrum.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    eig = np.array([float(r["eigenvalue"]) for r in rows])
    res = np.array([float(r["residual"]) for r in rows])
    axis = harmonic_axis_eigenvalues(10.0, 200, 1.0)
    exact = oracles.separable_spectrum([axis, axis], [0.0, 0.0], 10)
    matrix_norm = 1000.1390069552735
    bound = 1e-10 * matrix_norm
    assert np.all(res <= bound)  # the residual certificate passes
    assert not oracles.check_spectrum(eig, exact, bound).ok
    assert oracles.check_spectrum(exact, exact, bound).ok


def test_propagation_check_rejects_perturbed_snapshot():
    q_diag, L, N, m, tol = (1.0, 1.7), 10.0, 8, 2, 1e-10
    f0 = np.zeros((m, N, N))
    f0[0, N // 2, N // 2] = 1.0
    h = oracles.grid_spacing(L, N)
    times = (0.01, 0.1, 1.0)
    snaps = {t: oracles.separable_propagate(f0, t, q_diag, V, L, N) for t in times}
    kwargs = dict(q_diag=q_diag, V=V, L=L, N=N, tol=tol, roundoff=workloads.ROUNDOFF_REL,
                  cell_volume=h**2, p_list=(1.0, 2.0, 4.0, np.inf))
    verdicts = oracles.check_propagation(snaps, f0, **kwargs)
    assert all(v.ok for v in verdicts.values())
    bad = dict(snaps)
    bad[0.1] = snaps[0.1].copy()
    bad[0.1][1, 0, 0] += 2.0 * (tol + workloads.ROUNDOFF_REL) * np.linalg.norm(f0)
    verdicts = oracles.check_propagation(bad, f0, **kwargs)
    assert verdicts[0.01].ok and verdicts[1.0].ok and not verdicts[0.1].ok


def test_verify_check_rejects_smaller_work():
    v = oracles.Verdict()
    workloads._check_verify_detail("form_axioms", {"trials": 9_999, "failures": 0}, v)
    workloads._check_verify_detail("positivity_dichotomy", {"total": 50, "correct": 50}, v)
    assert len(v.problems) == 1 and v.problems[0].startswith("form_axioms")


def test_evolve_impulse_depends_on_seed_only():
    assert workloads.evolve_impulse(3) == workloads.evolve_impulse(3)
    assert len({workloads.evolve_impulse(s) for s in range(10)}) > 1
