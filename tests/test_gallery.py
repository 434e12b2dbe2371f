"""Problem gallery: coupling algebra, spectral merge, continuity ratios, claims."""
import dataclasses
import json

import numpy as np
import pytest

import matschrod.gallery as gallery_module
import matschrod.operators as operators_module
from matschrod import (
    GalleryProblem,
    PotentialField,
    QuadratureError,
    antisymmetric_continuity,
    antisymmetric_continuity_demo,
    build_grid,
    build_problem,
    complete_graph_laplacian,
    coupled_confining,
    coupling_eigenbasis,
    degenerate_counterexample,
    eigen_lowest,
    expected_record,
    harmonic_oscillator,
    list_gallery,
    spectrum_merge_check,
    validate_expected,
)


# -- coupling algebra -----------------------------------------------------------


def test_complete_graph_laplacian_values_and_spectrum():
    j2 = complete_graph_laplacian(2)
    np.testing.assert_array_equal(j2, [[1.0, -1.0], [-1.0, 1.0]])
    np.testing.assert_allclose(np.linalg.eigvalsh(j2), [0.0, 2.0], atol=1e-14)
    j3 = complete_graph_laplacian(3)
    np.testing.assert_allclose(np.linalg.eigvalsh(j3), [0.0, 3.0, 3.0], atol=1e-14)
    np.testing.assert_allclose(j3.sum(axis=1), 0.0, atol=1e-15)
    with pytest.raises(ValueError, match="at least 2"):
        complete_graph_laplacian(1)


def test_coupling_eigenbasis_diagonalizes_exactly():
    for m in (2, 3, 4, 5):
        u = coupling_eigenbasis(m)
        np.testing.assert_allclose(u.T @ u, np.eye(m), atol=1e-14)
        diag = u.T @ complete_graph_laplacian(m) @ u
        expected = np.diag([0.0] + [float(m)] * (m - 1))
        np.testing.assert_allclose(diag, expected, atol=1e-13)
    with pytest.raises(ValueError, match="at least 2"):
        coupling_eigenbasis(1)


# -- registry ----------------------------------------------------------------------


def test_build_problem_lookup_and_params():
    problem = build_problem("harmonic_oscillator", N=100, L=6.0)
    assert problem.potential.grid == build_grid(1, 6.0, 100, 1)
    with pytest.raises(ValueError, match="unknown gallery problem"):
        build_problem("hydrogen")


def test_gallery_records_are_json_safe():
    records = list_gallery()
    names = [r["name"] for r in records]
    assert names == sorted(names) and len(names) == 4
    payload = json.dumps(records)  # would raise on numpy leakage
    back = json.loads(payload)
    assert back[0]["grid"].keys() == {"d", "L", "N", "m"}
    single = expected_record(coupled_confining())
    assert json.loads(json.dumps(single))["name"] == "coupled_confining"


def _bump(m):
    bump = np.zeros((m, m))
    bump[0, 0] = 1.0
    return bump


_COUPLED_W = -(np.ones((2, 2)) - np.eye(2)) / 4.0


@pytest.mark.parametrize(
    "build, formula",
    [
        (lambda: harmonic_oscillator(L=3.0, N=17), lambda x: [[float(x @ x)]]),
        (
            lambda: degenerate_counterexample(L=2.0, N=15, m=3),
            lambda x: float(x @ x) * complete_graph_laplacian(3) + (0.0 * float(x @ x)) * _bump(3),
        ),
        (
            lambda: degenerate_counterexample(L=2.0, N=15, m=2, detune=0.35),
            lambda x: float(x @ x) * complete_graph_laplacian(2) + (0.35 * float(x @ x)) * _bump(2),
        ),
        (lambda: coupled_confining(L=3.0, N=13), lambda x: (1.0 + float(x @ x)) * np.eye(2) + _COUPLED_W),
        (lambda: antisymmetric_continuity(), lambda x: np.array([[0.0, -float(x[0])], [float(x[0]), 0.0]])),
    ],
    ids=["harmonic", "degenerate-m3", "degenerate-detuned", "coupled", "antisymmetric"],
)
def test_builders_sample_their_formula_node_by_node(build, formula):
    # the builders sample V with numpy over all nodes at once; node by node
    # evaluation of the written-out formula gives the same bits
    problem = build()
    grid = problem.potential.grid
    reference = PotentialField(grid, np.array([formula(x) for x in grid.node_coords()]))
    np.testing.assert_array_equal(
        problem.potential.samples.view(np.int64), reference.samples.view(np.int64)
    )
    assert problem.potential.symmetric_input == reference.symmetric_input
    if problem.v_scalar is not None:
        radii_sq = np.array([float(x @ x) for x in grid.node_coords()])
        np.testing.assert_array_equal(problem.v_scalar.view(np.int64), radii_sq.view(np.int64))


def test_antisymmetric_problem_is_rejected_by_assembly():
    # an exception is not cached: every access assembles and raises again
    problem = antisymmetric_continuity()
    for _ in range(2):
        with pytest.raises(ValueError, match="symmetric"):
            problem.operator


def test_problem_assembles_its_operator_once():
    problem = coupled_confining(L=3.0, N=13)
    op = problem.operator
    assert op is problem.operator
    assert op.grid == problem.potential.grid and op.potential is problem.potential
    assert op.diffusion.diagonal and np.all(op.diffusion.samples == np.eye(1))


@pytest.mark.parametrize(
    "build, assemblies",
    [(coupled_confining, 4), (degenerate_counterexample, 3)],
    ids=["coupled_confining", "degenerate_counterexample"],
)
def test_validate_expected_assembles_each_operator_once(monkeypatch, build, assemblies):
    # coupled_confining: its operator plus the sandwich's mu I and nu I and the
    # free operator; degenerate_counterexample: its operator plus two scalar blocks
    calls = []
    assemble = operators_module._assemble_matrix

    def spy(assembly):
        calls.append(assembly)
        return assemble(assembly)

    monkeypatch.setattr(operators_module, "_assemble_matrix", spy)
    assert validate_expected(build())["passed"]
    assert len(calls) == assemblies


# -- spectral merge -------------------------------------------------------------------


def test_merge_block_structure_small():
    problem = degenerate_counterexample(L=4.0, N=80, m=2)
    report = spectrum_merge_check(problem, k=12)
    assert report.passed
    assert report.deviations.max() <= 1e-9
    assert set(report.block_eigenvalues) == {0.0, 2.0}
    # the merged list really is the sorted union of the scalar blocks
    union = np.sort(
        np.concatenate([report.block_eigenvalues[0.0], report.block_eigenvalues[2.0]])
    )[:12]
    np.testing.assert_array_equal(report.merged_eigenvalues, union)


def test_merge_zero_coupling_doubles_free_spectrum():
    # v = 0 kills the coupling entirely: every free eigenvalue appears twice
    base = degenerate_counterexample(L=3.0, N=60, m=2)
    grid = base.potential.grid
    problem = dataclasses.replace(
        base, potential=PotentialField(grid, np.zeros((grid.n_nodes, 2, 2))), v_scalar=np.zeros(grid.n_nodes)
    )
    report = spectrum_merge_check(problem, k=10)
    assert report.passed
    lam = report.vector_eigenvalues
    np.testing.assert_allclose(lam[0::2], lam[1::2], rtol=1e-12)


def test_merge_requires_block_structure():
    with pytest.raises(ValueError, match="no scalar-block structure"):
        spectrum_merge_check(harmonic_oscillator(L=4.0, N=30))


def test_merge_k_bounds():
    problem = degenerate_counterexample(L=3.0, N=20, m=2)
    with pytest.raises(ValueError, match="1 <= k"):
        spectrum_merge_check(problem, k=0)
    with pytest.raises(ValueError, match="1 <= k"):
        spectrum_merge_check(problem, k=41)


def test_detuned_control_breaks_merge_but_fingerprint_stays_consistent():
    problem = degenerate_counterexample(L=4.0, N=80, m=2, detune=0.35)
    report = spectrum_merge_check(problem, k=12)
    assert not report.passed  # the negative control must actually fail
    assert report.deviations.max() > 0.1
    result = validate_expected(problem)
    assert result["passed"]  # ...while its own declared claims hold
    assert result["claims"]["merge"]["merge_passed"] is False
    assert result["claims"]["extremal_fields"]["floor_deviation"] > 0.1


# -- continuity ratio quadrature ----------------------------------------------------------


def test_antisym_ratios_pinned_values():
    records = antisymmetric_continuity_demo(n_list=(1, 5, 10))
    ratios = [rec["ratio"] for rec in records]
    np.testing.assert_allclose(
        ratios, [0.34774017600849616, 1.2369446029713471, 1.5938535808652876], rtol=1e-9
    )
    assert ratios[0] < ratios[1] < ratios[2]
    for rec in records:
        assert rec["halving_disagreement"] <= 0.01
        assert rec["points"] % 2 == 1


def test_antisym_demo_argument_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        antisymmetric_continuity_demo(n_list=())
    with pytest.raises(ValueError, match="strictly increasing"):
        antisymmetric_continuity_demo(n_list=(5, 5))
    with pytest.raises(ValueError, match="strictly increasing"):
        antisymmetric_continuity_demo(n_list=(0, 3))


def test_antisym_demo_step_halving_guard(monkeypatch):
    # a quadrature whose answer drifts with resolution must be refused
    def drifting(n, points):
        return {"cross": 1.0, "gradient": 1.0, "l2": 1.0, "ratio": 1.0 / points}

    monkeypatch.setattr(gallery_module, "_antisym_ratio", drifting)
    with pytest.raises(QuadratureError, match="step-halving"):
        antisymmetric_continuity_demo(n_list=(1, 2))


# -- claim validation -----------------------------------------------------------------------


def test_validate_expected_rejects_unknown_claims():
    grid = build_grid(1, 1.0, 8, 1)
    problem = GalleryProblem(
        name="custom",
        potential=PotentialField(grid, np.zeros((grid.n_nodes, 1, 1))),
        expected={"bogus_claim": 1},
    )
    with pytest.raises(ValueError, match="no validator for claim 'bogus_claim'"):
        validate_expected(problem)


def test_validate_harmonic_shrunken():
    result = validate_expected(harmonic_oscillator(L=8.0, N=400))
    assert result["passed"], result
    claims = result["claims"]
    assert claims["lowest_eigenvalues"]["max_rel_error"] <= 5e-3
    assert claims["ground_state_sign_constant"]["sign_constant"]
    assert claims["positivity_guaranteed"]["probe_verdict"] == "positive"


def test_validate_coupled_confining_shrunken():
    result = validate_expected(coupled_confining(L=6.0, N=100))
    assert result["passed"], result
    claims = result["claims"]
    assert claims["floor_offset"]["max_deviation"] <= 1e-10
    assert claims["sandwich"]["passed"]
    assert claims["spread_exceeds_free"]["spread"] > claims["spread_exceeds_free"]["free_spread"]
