"""Energy form evaluation, graph norm, and the two structural inequalities."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matschrod import checks
from matschrod import (
    DiffusionField,
    EllipticityError,
    PotentialField,
    VectorState,
    assemble_form,
    assemble_operator,
    build_grid,
    edge_jump_norms,
    eval_form,
    form_norm,
    form_norms,
    form_terms,
    mixed_norm,
    sample_fields,
)
from matschrod.form import _unit_ball_projection


def _free_form(grid):
    dif, pot = sample_fields(lambda x: np.eye(grid.d), lambda x: np.zeros((grid.m, grid.m)), grid)
    return assemble_form(dif, pot, grid)


def _random_spd_diffusion(grid, rng):
    mats = rng.standard_normal((grid.n_cells, grid.d, grid.d))
    samples = np.einsum("nka,nkb->nab", mats, mats) + 0.1 * np.eye(grid.d)
    return DiffusionField(grid, samples)


def _random_psd_potential(grid, rng):
    mats = rng.standard_normal((grid.n_nodes, grid.m, grid.m))
    return PotentialField(grid, np.einsum("nka,nkb->nab", mats, mats) / grid.m)


# -- evaluation oracles ------------------------------------------------------


def test_impulse_energy_free_laplacian():
    # unit impulse, Q = I, V = 0: two unit jumps, a(f,f) = 2/h independent of N
    for N in (3, 9, 33):
        grid = build_grid(1, 1.0, N, 1)
        a = _free_form(grid)
        f = VectorState.impulse(grid)
        assert eval_form(a, f, f) == pytest.approx(2.0 / grid.h, rel=1e-14)


def test_constant_potential_shift_identity():
    # V = c I adds exactly c ||f||_2^2 to the free energy
    rng = np.random.default_rng(3)
    grid = build_grid(2, 1.5, 5, 2)
    free = _free_form(grid)
    c = 0.7
    dif, pot = sample_fields(
        lambda x: np.eye(2), lambda x: c * np.eye(2), grid
    )
    shifted = assemble_form(dif, pot, grid)
    for _ in range(10):
        f = VectorState.random(grid, rng)
        expected = eval_form(free, f, f) + c * mixed_norm(f, 2) ** 2
        assert eval_form(shifted, f, f) == pytest.approx(expected, rel=1e-12)


def test_form_symmetry_and_bilinearity():
    rng = np.random.default_rng(4)
    grid = build_grid(2, 1.0, 4, 2)
    a = assemble_form(_random_spd_diffusion(grid, rng), _random_psd_potential(grid, rng), grid)
    for _ in range(10):
        f = VectorState.random(grid, rng)
        g = VectorState.random(grid, rng)
        h = VectorState.random(grid, rng)
        afg = eval_form(a, f, g)
        assert afg == pytest.approx(eval_form(a, g, f), rel=1e-12, abs=1e-12)
        assert eval_form(a, f + 2.0 * h, g) == pytest.approx(
            afg + 2.0 * eval_form(a, h, g), rel=1e-11, abs=1e-11
        )


def test_form_norm_single_node_hand_value():
    # one node carrying v, scalar potential w: h v^2 + 2 v^2 / h + h w v^2
    grid = build_grid(1, 1.0, 3, 1)  # h = 0.5
    v, w = 3.0, 2.0
    dif, pot = sample_fields(lambda x: 1.0, lambda x: w, grid)
    a = assemble_form(dif, pot, grid)
    f = VectorState.impulse(grid, vector=[v])
    expected = np.sqrt(0.5 * v**2 + 2 * v**2 / 0.5 + 0.5 * w * v**2)
    assert form_norm(a, f) == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(np.sqrt(49.5))


def test_form_norm_rejects_indefinite_potential():
    grid = build_grid(1, 1.0, 4, 1)
    dif, pot = sample_fields(lambda x: 1.0, lambda x: -1.0, grid)
    a = assemble_form(dif, pot, grid)
    with pytest.raises(ValueError, match="PSD"):
        form_norm(a, VectorState.impulse(grid))


def test_assembly_rejects_nonelliptic_diffusion():
    # the field refuses it, so no assembly can be handed one
    grid = build_grid(1, 1.0, 4, 1)
    with pytest.raises(EllipticityError):
        sample_fields(lambda x: -1.0, lambda x: 0.0, grid)


def test_grid_mismatch_rejected():
    from matschrod import GridMismatchError

    a = _free_form(build_grid(1, 1.0, 4, 1))
    other = build_grid(1, 1.0, 5, 1)
    with pytest.raises(GridMismatchError):
        eval_form(a, VectorState.zeros(other), VectorState.zeros(other))


# -- continuity --------------------------------------------------------------


def test_continuity_bound_random_sweep():
    rng = np.random.default_rng(11)
    for _ in range(20):
        d = int(rng.integers(1, 3))
        grid = build_grid(d, 1.0, int(rng.integers(3, 7)), int(rng.integers(1, 4)))
        a = assemble_form(
            _random_spd_diffusion(grid, rng), _random_psd_potential(grid, rng), grid
        )
        bound = 1.0 + a.diffusion.ellipticity_upper + 1e-10
        for _ in range(20):
            f = VectorState.random(grid, rng)
            g = VectorState.random(grid, rng)
            pairing = form_terms(a, f.values, g.values)[0]
            assert abs(pairing) <= bound * form_norms(a, f.values) * form_norms(a, g.values)


def test_continuity_ratio_zero_cases():
    # a zero state has graph norm 0 and pairs to 0 with every state, so the
    # continuity inequality holds as 0 <= 0
    grid = build_grid(1, 1.0, 4, 1)
    a = _free_form(grid)
    z = VectorState.zeros(grid).values
    impulse = VectorState.impulse(grid).values
    assert form_norms(a, z) == 0.0 and form_norms(a, impulse) > 0.0
    for x, y in ((z, z), (z, impulse), (impulse, z)):
        assert all(term == 0.0 for term in form_terms(a, x, y))


# -- unit-ball projection -----------------------------------------------------


def test_project_unit_ball_pointwise():
    pf = _unit_ball_projection(np.array([[3.0, 0.3, 0.0], [4.0, 0.4, 0.0]]))
    np.testing.assert_allclose(pf[:, 0], [0.6, 0.8])  # scaled to norm 1
    np.testing.assert_allclose(pf[:, 1], [0.3, 0.4])  # inside: untouched
    np.testing.assert_allclose(pf[:, 2], [0.0, 0.0])
    assert np.sqrt((pf**2).sum(axis=0)).max() <= 1.0 + 1e-15
    np.testing.assert_array_equal(_unit_ball_projection(pf), pf)  # idempotent


def test_project_unit_ball_is_lipschitz():
    rng = np.random.default_rng(5)
    grid = build_grid(1, 1.0, 20, 3)
    for _ in range(25):
        f = VectorState.random(grid, rng, scale=2.0)
        g = VectorState.random(grid, rng, scale=2.0)
        jump_before = (f - g).component_norms()
        diff = _unit_ball_projection(f.values) - _unit_ball_projection(g.values)
        jump_after = f.with_values(diff).component_norms()
        assert np.all(jump_after <= jump_before + 1e-14)


def test_component_norms_reverse_triangle_per_edge():
    rng = np.random.default_rng(7)
    grid = build_grid(2, 1.0, 5, 3)
    for _ in range(10):
        f = VectorState.random(grid, rng)
        jumps_of_abs = edge_jump_norms(grid, f.component_norms())
        jumps_of_f = edge_jump_norms(grid, f.values)
        assert np.all(jumps_of_abs <= jumps_of_f + 1e-14)


def test_edge_jump_norms_hand_example():
    grid = build_grid(1, 1.0, 3, 1)
    jumps = edge_jump_norms(grid, np.array([1.0, 2.0, 4.0]))
    assert jumps.shape == (1, 4)
    np.testing.assert_allclose(jumps[0], [1.0, 1.0, 2.0, 4.0])


# -- Beurling-Deny gap ---------------------------------------------------------


def _projection_gap(a, f):
    """a(f, f) - a(Pf, Pf) for the unit-ball projection P, as ``checks`` computes it."""
    pair = np.stack([f.values, _unit_ball_projection(f.values)])
    energy = form_terms(a, pair, pair)[0]
    return float(energy[0] - energy[1])


def test_projection_gap_constant_modulus_oracle():
    # |f| = 2 everywhere: Pf = f/2, so a(Pf,Pf) = a(f,f)/4 and the gap is 3/4 a(f,f)
    grid = build_grid(1, 1.0, 30, 2)
    a = _free_form(grid)
    x = grid.node_coords()[:, 0]
    f = VectorState(grid, [2 * np.cos(x), 2 * np.sin(x)])
    gap = _projection_gap(a, f)
    assert gap == pytest.approx(0.75 * eval_form(a, f, f), rel=1e-12)


def test_projection_gap_nonnegative_random():
    rng = np.random.default_rng(8)
    for _ in range(30):
        d = int(rng.integers(1, 3))
        grid = build_grid(d, 1.0, int(rng.integers(3, 7)), int(rng.integers(1, 4)))
        diag = np.zeros((grid.n_cells, d, d))
        for i in range(d):
            diag[:, i, i] = rng.uniform(0.2, 3.0, grid.n_cells)
        a = assemble_form(
            DiffusionField(grid, diag), _random_psd_potential(grid, rng), grid
        )
        f = VectorState.random(grid, rng, scale=2.0)
        gap = _projection_gap(a, f)
        assert gap >= -1e-12 * (1.0 + abs(eval_form(a, f, f)))


# -- positive-part cross energy ------------------------------------------------


def _pos_cross(a, f):
    """Cross energy a(f_plus, f_minus) of the componentwise positive/negative parts."""
    return float(form_terms(a, np.maximum(f.values, 0.0), np.maximum(-f.values, 0.0))[0])


def test_pos_cross_energy_exact_coupling_oracle():
    # f = phi (e1 - e2), V = ((1,-1),(-1,1)): splitting puts phi into disjoint
    # components, the diffusion cross term vanishes and only V couples them:
    # a(f+, f-) = -h sum phi^2
    grid = build_grid(1, 2.0, 17, 2)
    dif, pot = sample_fields(
        lambda x: 1.0, lambda x: np.array([[1.0, -1.0], [-1.0, 1.0]]), grid
    )
    a = assemble_form(dif, pot, grid)
    phi = np.maximum(1.0 - np.abs(grid.axis_nodes()), 0.0)
    f = VectorState(grid, np.stack([phi, -phi]))
    expected = -grid.h * float((phi**2).sum())
    assert _pos_cross(a, f) == pytest.approx(expected, rel=1e-13)
    assert expected < 0


def test_pos_cross_energy_sign_random():
    # diagonal Q, nonpositive off-diagonal V: cross energy never positive
    rng = np.random.default_rng(12)
    for _ in range(25):
        grid = build_grid(1, 1.0, int(rng.integers(4, 12)), int(rng.integers(2, 4)))
        m = grid.m
        samples = np.zeros((grid.n_nodes, m, m))
        idx = np.arange(m)
        samples[:, idx, idx] = rng.uniform(0.0, 2.0, (grid.n_nodes, m))
        off = -rng.uniform(0.0, 1.0, (grid.n_nodes, m, m))
        off[:, idx, idx] = 0.0
        samples += 0.5 * (off + off.transpose(0, 2, 1))
        dif, _ = sample_fields(lambda x: 1.0, lambda x: np.zeros((m, m)), grid)
        a = assemble_form(dif, PotentialField(grid, samples), grid)
        f = VectorState.random(grid, rng)
        assert _pos_cross(a, f) <= 1e-12


# -- batched kernel ----------------------------------------------------------


def _potential_energy(a, f, g):
    return a.grid.cell_volume * np.einsum("nij,in,jn->", a.potential.samples, f.values, g.values)


def _random_assembly(grid, rng, diagonal_q, psd_v):
    if diagonal_q:
        q = np.zeros((grid.n_cells, grid.d, grid.d))
        idx = np.arange(grid.d)
        q[:, idx, idx] = rng.uniform(0.2, 3.0, (grid.n_cells, grid.d))
        diffusion = DiffusionField(grid, q)
    else:
        diffusion = _random_spd_diffusion(grid, rng)
    if psd_v:
        potential = _random_psd_potential(grid, rng)
    else:
        mats = rng.standard_normal((grid.n_nodes, grid.m, grid.m))
        potential = PotentialField(grid, mats + mats.transpose(0, 2, 1) - np.eye(grid.m))
    return assemble_form(diffusion, potential, grid)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    d=st.sampled_from((1, 2, 3)),
    m=st.integers(1, 3),
    n_per_dim=st.integers(2, 5),
    rows=st.integers(1, 3),
    cols=st.integers(1, 3),
    diagonal_q=st.booleans(),
    psd_v=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_batched_form_matches_single_states(d, m, n_per_dim, rows, cols, diagonal_q, psd_v, seed):
    # oracles: the dense assembled matrices of the form and of the free form
    # (Q = I, V = 0), and the potential sum written out node by node
    rng = np.random.default_rng(seed)
    grid = build_grid(d, 1.0, n_per_dim, m)
    a = _random_assembly(grid, rng, diagonal_q, psd_v)
    dense = assemble_operator(a).matrix.toarray()
    free = assemble_operator(_free_form(grid)).matrix.toarray()
    x = rng.standard_normal((rows, 1, m, grid.n_nodes))
    y = rng.standard_normal((1, cols, m, grid.n_nodes))
    energy, gradient, potential = form_terms(a, x, y)
    assert energy.shape == gradient.shape == potential.shape == (rows, cols)
    if a.potential.psd:
        norms_x, norms_y = form_norms(a, x), form_norms(a, y)
        assert norms_x.shape == (rows, 1) and norms_y.shape == (1, cols)
    else:
        with pytest.raises(ValueError, match="PSD"):
            form_norms(a, x)
    for i in range(rows):
        f = VectorState(grid, x[i, 0])
        for j in range(cols):
            g = VectorState(grid, y[0, j])
            scale = np.abs(f.flat()) @ (np.abs(dense) + np.abs(free)) @ np.abs(g.flat())
            tol = 1e-13 * scale
            assert abs(energy[i, j] - f.flat() @ dense @ g.flat()) <= tol
            assert abs(energy[i, j] - eval_form(a, f, g)) <= tol
            assert abs(gradient[i, j] - f.flat() @ free @ g.flat()) <= tol
            assert abs(potential[i, j] - _potential_energy(a, f, g)) <= tol
            if not a.potential.psd:
                continue
            nf, ng = form_norm(a, f), form_norm(a, g)
            graph_sq = mixed_norm(f, 2) ** 2 + f.flat() @ free @ f.flat() + _potential_energy(a, f, f)
            assert nf == pytest.approx(np.sqrt(graph_sq), rel=1e-13)
            assert norms_x[i, 0] == pytest.approx(nf, rel=1e-13)
            assert norms_y[0, j] == pytest.approx(ng, rel=1e-13)


def test_form_terms_empty_batch_and_shape_check():
    grid = build_grid(2, 1.0, 3, 2)
    a = _free_form(grid)
    empty = np.zeros((0, grid.m, grid.n_nodes))
    for term in form_terms(a, empty, empty):
        assert term.shape == (0,)
    with pytest.raises(ValueError, match="shape"):
        form_terms(a, np.zeros((grid.n_nodes, grid.m)), np.zeros((grid.m, grid.n_nodes)))


def test_operator_evaluates_its_form_bit_for_bit():
    # the operator is its form: form_terms reads the same samples either way
    rng = np.random.default_rng(7)
    grid = build_grid(2, 1.0, 4, 2)
    a = _random_assembly(grid, rng, diagonal_q=False, psd_v=True)
    op = assemble_operator(a)
    x = rng.standard_normal((3, grid.m, grid.n_nodes))
    y = rng.standard_normal((3, grid.m, grid.n_nodes))
    for got, want in zip(form_terms(op, x, y), form_terms(a, x, y)):
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def _skewed(assembly, rng):
    """Make the stored diffusion samples asymmetric, bypassing the field's checks."""
    skew = rng.standard_normal(assembly.diffusion.samples.shape)
    return assembly.diffusion.samples + (skew - skew.transpose(0, 2, 1))


def test_batched_symmetry_gap_sees_asymmetric_diffusion(monkeypatch):
    # negative control: a(f,g) and a(g,f) are separate evaluations, so an
    # asymmetric Q shows up in the batch exactly as it does state by state
    rng = np.random.default_rng(13)
    grid = build_grid(2, 1.0, 4, 2)
    a = assemble_form(_random_spd_diffusion(grid, rng), _random_psd_potential(grid, rng), grid)
    monkeypatch.setattr(a.diffusion, "samples", _skewed(a, rng))
    states = rng.standard_normal((6, 2, grid.m, grid.n_nodes))
    energy = form_terms(a, states[:, :, None], states[:, None])[0]
    for p in range(len(states)):
        f, g = VectorState(grid, states[p, 0]), VectorState(grid, states[p, 1])
        single_gap = eval_form(a, f, g) - eval_form(a, g, f)
        assert abs(single_gap) > 1e-6 * max(abs(energy[p, 0, 0]), abs(energy[p, 1, 1]))
        assert energy[p, 0, 1] - energy[p, 1, 0] == pytest.approx(single_gap, rel=1e-12)


def test_form_axioms_fails_on_asymmetric_diffusion(monkeypatch):
    rng = np.random.default_rng(14)

    def skewed_form(diffusion, potential, grid):
        a = assemble_form(diffusion, potential, grid)
        if grid.d > 1:  # in 1-d every 1x1 sample is symmetric
            monkeypatch.setattr(a.diffusion, "samples", _skewed(a, rng))
        return a

    monkeypatch.setattr(checks, "assemble_form", skewed_form)
    passed, detail = checks.check_form_axioms(seed=1)
    assert not passed
    assert detail["failures"] > 0
    assert detail["worst_symmetry_gap"] > 1e-6
