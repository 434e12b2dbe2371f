"""Lattice geometry, coefficient fields, states and mixed norms."""
import numpy as np
import pytest

from matschrod import (
    DiffusionField,
    EllipticityError,
    GridMismatchError,
    PotentialField,
    VectorState,
    axis_differences,
    build_grid,
    mixed_norm,
    sample_fields,
    smooth_bump_profile,
    smooth_bump_slope,
)


# -- GridSpec ------------------------------------------------------------


def test_grid_geometry_counts():
    grid = build_grid(2, 1.0, 3, 2)
    assert grid.h == 0.5
    assert grid.shape == (3, 3)
    assert grid.n_nodes == 9
    assert grid.n_cells == 16
    assert grid.state_size == 18
    assert grid.cell_volume == 0.25
    np.testing.assert_allclose(grid.axis_nodes(), [-0.5, 0.0, 0.5], atol=1e-15)


def test_grid_validation():
    with pytest.raises(ValueError):
        build_grid(4, 1.0, 8, 1)
    with pytest.raises(ValueError):
        build_grid(1, -1.0, 8, 1)
    with pytest.raises(ValueError):
        build_grid(1, 1.0, 1, 1)
    with pytest.raises(ValueError):
        build_grid(1, 1.0, 8, 0)


@pytest.mark.parametrize("name", ["d", "N", "m"])
@pytest.mark.parametrize("value", [2.5, 2.0, True, "3", None])
def test_grid_refuses_a_count_that_is_not_an_integer(name, value):
    # int(N) used to truncate 2.5 to a 2-node grid, and True passed as 1
    params = {"d": 1, "L": 1.0, "N": 8, "m": 1, name: value}
    with pytest.raises(ValueError, match=f"^grid {name} must be an integer, got {value!r}$"):
        build_grid(**params)


def test_grid_takes_numpy_integers_as_ints():
    grid = build_grid(np.int64(2), 1.0, np.int32(5), np.uint8(3))
    assert (grid.d, grid.N, grid.m) == (2, 5, 3)
    assert all(type(v) is int for v in (grid.d, grid.N, grid.m))
    assert grid == build_grid(2, 1.0, 5, 3)


def test_node_and_cell_coordinates():
    grid = build_grid(1, 1.0, 3, 1)
    np.testing.assert_allclose(grid.node_coords()[:, 0], [-0.5, 0.0, 0.5], atol=1e-15)
    np.testing.assert_allclose(grid.cell_coords()[:, 0], [-1.0, -0.5, 0.0, 0.5], atol=1e-15)
    # C order: last axis varies fastest
    g2 = build_grid(2, 1.0, 2, 1)
    coords = g2.node_coords()
    assert coords.shape == (4, 2)
    np.testing.assert_allclose(coords[0], [-1 + g2.h, -1 + g2.h])
    np.testing.assert_allclose(coords[1], [-1 + g2.h, -1 + 2 * g2.h])


def test_nearest_node():
    grid = build_grid(1, 1.0, 3, 1)
    assert grid.nearest_node([0.0]) == 1
    assert grid.nearest_node([0.9]) == 2
    assert grid.nearest_node([-5.0]) == 0  # clipped into the box
    with pytest.raises(ValueError):
        grid.nearest_node([0.0, 0.0])


# -- coefficient fields ----------------------------------------------------


def test_diffusion_field_bounds_and_diagonal_flag():
    grid = build_grid(2, 1.0, 3, 1)
    samples = np.zeros((grid.n_cells, 2, 2))
    samples[:, 0, 0] = 2.0
    samples[:, 1, 1] = 0.5
    field = DiffusionField(grid, samples)
    assert field.diagonal
    assert field.ellipticity_lower == pytest.approx(0.5)
    assert field.ellipticity_upper == pytest.approx(2.0)
    samples[:, 0, 1] = samples[:, 1, 0] = 0.25
    assert not DiffusionField(grid, samples).diagonal


def test_diffusion_field_rejects_asymmetry_and_nonelliptic_samples():
    grid = build_grid(2, 1.0, 3, 1)
    bad = np.tile(np.array([[1.0, 0.5], [-0.5, 1.0]]), (grid.n_cells, 1, 1))
    with pytest.raises(ValueError, match="not symmetric"):
        DiffusionField(grid, bad)
    negative = np.tile(-np.eye(2), (grid.n_cells, 1, 1))
    with pytest.raises(EllipticityError, match=r"\(coefficients\.q\) .*lower bound -1\.000e\+00"):
        DiffusionField(grid, negative)


def test_potential_field_flags():
    grid = build_grid(1, 1.0, 4, 2)
    sym = np.tile(np.array([[1.0, -1.0], [-1.0, 1.0]]), (grid.n_nodes, 1, 1))
    field = PotentialField(grid, sym)
    assert field.symmetric_input
    assert field.psd
    assert field.offdiag_max == pytest.approx(-1.0)
    assert field.min_eigenvalue == pytest.approx(0.0, abs=1e-14)
    assert field.max_eigenvalue == pytest.approx(2.0)

    anti = np.tile(np.array([[0.0, -1.0], [1.0, 0.0]]), (grid.n_nodes, 1, 1))
    field = PotentialField(grid, anti)  # accepted, but flagged
    assert not field.symmetric_input
    np.testing.assert_allclose(field.samples, 0.0)  # symmetrized storage

    scalar = PotentialField(build_grid(1, 1.0, 4, 1), np.ones((4, 1, 1)))
    assert scalar.offdiag_max == 0.0


def test_potential_field_rejects_nonfinite():
    grid = build_grid(1, 1.0, 4, 1)
    samples = np.ones((4, 1, 1))
    samples[2] = np.inf
    with pytest.raises(ValueError, match="finite"):
        PotentialField(grid, samples)


def _full_bounds(samples):
    """Every bound of a field, the way it was measured on all n stored samples."""
    sym = 0.5 * (samples + samples.transpose(0, 2, 1))
    eigs = np.linalg.eigvalsh(sym)
    k = samples.shape[1]
    off = sym.copy()
    off[:, np.arange(k), np.arange(k)] = 0.0
    asym = np.abs(samples - samples.transpose(0, 2, 1)).max()
    return sym, {
        "lower": float(eigs[:, 0].min()),
        "upper": float(eigs[:, -1].max()),
        "offdiag_abs": float(np.abs(off).max()),
        "offdiag_max": float(sym[:, ~np.eye(k, dtype=bool)].max()) if k > 1 else 0.0,
        "symmetric": bool(asym <= 1e-12 * max(1.0, float(np.abs(samples).max()))),
    }


def _constant_samples(mat, n, materialized):
    """n copies of ``mat``: a read-only broadcast, or a materialized array."""
    samples = np.broadcast_to(mat, (n,) + mat.shape)
    return samples.copy() if materialized else samples


_Q_CONSTANT = np.array([[1.3, 0.2, -0.1], [0.2, 0.9, 0.05], [-0.1, 0.05, 1.7]])
_V_CONSTANT = np.array([[1.0, -0.4, 0.3], [-0.4, 2.0, 0.1], [0.3, 0.1, -0.5]])


@pytest.mark.parametrize("materialized", [False, True], ids=["broadcast", "materialized"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_constant_diffusion_stores_one_symmetrized_sample(materialized, d):
    grid = build_grid(d, 1.0, 4, 1)
    mat = _Q_CONSTANT[:d, :d].copy()
    mat[0, -1] += 1e-14  # asymmetric within the tolerance, so storage changes bits
    samples = _constant_samples(mat, grid.n_cells, materialized)
    field = DiffusionField(grid, samples)
    sym, bounds = _full_bounds(np.array(samples))
    assert field.constant
    assert not field.samples.flags.writeable and field.samples.strides[0] == 0
    assert field.samples.tobytes() == sym.tobytes()
    assert field.ellipticity_lower == bounds["lower"]
    assert field.ellipticity_upper == bounds["upper"]
    assert field.diagonal == (bounds["offdiag_abs"] == 0.0)
    if d > 1:
        mat[0, -1] += 0.5
        with pytest.raises(ValueError, match="not symmetric"):
            DiffusionField(grid, _constant_samples(mat, grid.n_cells, materialized))


@pytest.mark.parametrize("materialized", [False, True], ids=["broadcast", "materialized"])
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("skew", [0.0, 1e-14, 0.5], ids=["symmetric", "within-tolerance", "asymmetric"])
def test_constant_potential_stores_one_symmetrized_sample(materialized, m, skew):
    grid = build_grid(2, 1.0, 5, m)
    mat = _V_CONSTANT[:m, :m].copy()
    mat[0, -1] += skew
    samples = _constant_samples(mat, grid.n_nodes, materialized)
    field = PotentialField(grid, samples)
    sym, bounds = _full_bounds(np.array(samples))
    assert field.constant
    assert not field.samples.flags.writeable and field.samples.strides[0] == 0
    assert field.samples.tobytes() == sym.tobytes()
    assert field.min_eigenvalue == bounds["lower"]
    assert field.max_eigenvalue == bounds["upper"]
    assert field.psd == (bounds["lower"] >= -1e-10 * max(1.0, np.abs(mat).max()))
    assert field.offdiag_max == bounds["offdiag_max"]
    assert field.symmetric_input == bounds["symmetric"] == (skew != 0.5 or m == 1)


@pytest.mark.parametrize("scale", [1.0, 1e6, 1e10])
def test_psd_flag_is_relative_to_the_size_of_the_potential(scale):
    # scale times the complete-graph Laplacian of 3 vertices is PSD (its
    # eigenvalues are 0, 3 scale, 3 scale), though eigvalsh reads its zero
    # as about -eps scale; moved down by 1e-6 of its size it is not PSD
    grid = build_grid(1, 1.0, 4, 3)
    laplacian = scale * (3.0 * np.eye(3) - np.ones((3, 3)))
    field = PotentialField(grid, np.broadcast_to(laplacian, (grid.n_nodes, 3, 3)))
    assert field.psd and abs(field.min_eigenvalue) <= 1e-14 * scale
    shifted = PotentialField(grid, np.broadcast_to(laplacian - 1e-6 * 2.0 * scale * np.eye(3), (grid.n_nodes, 3, 3)))
    assert not shifted.psd
    assert shifted.min_eigenvalue == pytest.approx(-1e-6 * 2.0 * scale, rel=1e-6)


def test_sample_fields_scalar_coercion_and_placement():
    grid = build_grid(1, 2.0, 5, 1)
    dif, pot = sample_fields(lambda x: 3.0, lambda x: float(x @ x), grid)
    assert dif.samples.shape == (grid.n_cells, 1, 1)
    assert pot.samples.shape == (grid.n_nodes, 1, 1)
    np.testing.assert_allclose(dif.samples, 3.0)
    np.testing.assert_allclose(pot.samples[:, 0, 0], grid.node_coords()[:, 0] ** 2)
    with pytest.raises(ValueError, match="matrix"):
        sample_fields(lambda x: np.ones(3), lambda x: 0.0, grid)


# -- states ---------------------------------------------------------------


def test_vector_state_layout_and_arithmetic():
    grid = build_grid(1, 1.0, 3, 2)
    f = VectorState(grid, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    np.testing.assert_array_equal(f.flat(), [1, 2, 3, 4, 5, 6])  # component-major
    g = 2.0 * f - f
    np.testing.assert_allclose(g.values, f.values)
    np.testing.assert_allclose((-f).values, -f.values)
    np.testing.assert_allclose(f.component_norms(), np.sqrt([17.0, 29.0, 45.0]))
    with pytest.raises(ValueError):
        VectorState(grid, np.ones(5))
    with pytest.raises(ValueError):
        VectorState(grid, np.full((2, 3), np.nan))
    other = VectorState.zeros(build_grid(1, 1.0, 4, 2))
    with pytest.raises(GridMismatchError):
        f + other


def test_impulse_and_node_coordinate_states():
    grid = build_grid(1, 1.0, 3, 2)
    imp = VectorState.impulse(grid)
    assert imp.values[0, 1] == 1.0 and imp.values.sum() == 1.0
    imp2 = VectorState.impulse(grid, node=2, vector=[0.0, 3.0])
    assert imp2.values[1, 2] == 3.0
    x = grid.node_coords()[:, 0]
    fn = VectorState(grid, [x, -x])
    np.testing.assert_array_equal(fn.values, [[-0.5, 0.0, 0.5], [0.5, 0.0, -0.5]])
    with pytest.raises(ValueError):
        VectorState(grid, [x, x, x])


def test_bump_state_on_all_or_one_component():
    grid = build_grid(2, 1.5, 9, 3)
    profile = smooth_bump_profile(np.linalg.norm(grid.node_coords(), axis=1) / (grid.L / 2.0))
    assert profile.min() == 0.0 and profile.max() == 1.0  # plateau and support both on the grid
    np.testing.assert_array_equal(VectorState.bump(grid).values, np.tile(profile, (3, 1)))
    narrow = smooth_bump_profile(np.linalg.norm(grid.node_coords(), axis=1) / (0.25 * grid.L))
    one = VectorState.bump(grid, width=0.25, component=1).values
    np.testing.assert_array_equal(one[1], narrow)
    assert not one[0].any() and not one[2].any()
    # True is the index 1, not a numpy mask that selects every component
    np.testing.assert_array_equal(VectorState.bump(grid, width=0.25, component=True).values, one)
    with pytest.raises(TypeError):
        VectorState.bump(grid, component=0.5)


@pytest.mark.parametrize(
    "build, argument, value",
    [
        ("impulse", "node", -1),
        ("impulse", "node", 5),
        ("impulse", "vector", [1.0]),
        ("impulse", "vector", [1.0, 0.0, 0.0]),
        ("bump", "component", -1),
        ("bump", "component", 2),
        ("bump", "width", -0.5),
        ("bump", "width", 0),
        ("bump", "width", float("nan")),
    ],
    ids=str,
)
def test_impulse_and_bump_reject_out_of_range_arguments(build, argument, value):
    grid = build_grid(1, 1.0, 5, 2)
    with pytest.raises(ValueError, match=f"^{build} {argument} must"):
        getattr(VectorState, build)(grid, **{argument: value})


# -- mixed norms -----------------------------------------------------------


def test_mixed_norm_single_node_values():
    grid = build_grid(1, 1.0, 3, 2)  # h = 0.5
    f = VectorState.impulse(grid, node=1, vector=[3.0, 4.0])
    assert mixed_norm(f, np.inf) == pytest.approx(5.0)
    assert mixed_norm(f, 2) == pytest.approx(5.0 * np.sqrt(0.5))
    assert mixed_norm(f, 1) == pytest.approx(5.0 * 0.5)
    assert mixed_norm(VectorState.zeros(grid), 4) == 0.0
    with pytest.raises(ValueError):
        mixed_norm(f, 0.5)


def test_mixed_norm_holder_monotonicity():
    rng = np.random.default_rng(7)
    for _ in range(50):
        d = int(rng.integers(1, 3))
        N = int(rng.integers(3, 9))
        grid = build_grid(d, float(rng.uniform(0.5, 2.0)), N, int(rng.integers(1, 4)))
        f = VectorState.random(grid, rng)
        vol = (grid.N * grid.h) ** grid.d
        n2 = mixed_norm(f, 2) / vol ** (1 / 2)
        n4 = mixed_norm(f, 4) / vol ** (1 / 4)
        ninf = mixed_norm(f, np.inf)
        assert n2 <= n4 * (1 + 1e-12)
        assert n4 <= ninf * (1 + 1e-12)


def test_mixed_norm_large_p_no_overflow():
    # naive sum(s**4) would be ~1e400; the max is factored out first
    grid = build_grid(1, 1.0, 3, 1)
    f = VectorState(grid, [[1e100, 2e100, 0.5e100]])
    assert np.isfinite(mixed_norm(f, 4))
    assert mixed_norm(f, np.inf) == 2e100


@pytest.mark.parametrize("k", [-900, -600, -520, -1, 0, 1, 520, 600, 900])
@pytest.mark.parametrize("p", [1, 2, 4, np.inf])
def test_mixed_norm_commutes_exactly_with_powers_of_two(k, p):
    # squaring 2**-520 underflows and 2**520 overflows; the norm must not
    grid = build_grid(2, 1.0, 6, 3)
    f = VectorState.random(grid, np.random.default_rng(11))
    # in the normal range the scaling is invisible: same bits as the plain formula
    np.testing.assert_array_equal(f.component_norms(), np.sqrt((f.values**2).sum(axis=0)))
    assert mixed_norm(f * 2.0**k, p) == 2.0**k * mixed_norm(f, p)
    np.testing.assert_array_equal((f * 2.0**k).component_norms(), 2.0**k * f.component_norms())


# -- bump profile -----------------------------------------------------------


def test_bump_profile_plateau_support_and_smooth_seams():
    r = np.array([0.0, 0.5, 1.0, 2.0, 3.0])
    np.testing.assert_allclose(smooth_bump_profile(r), [1, 1, 1, 0, 0], atol=1e-15)
    assert 0.0 < smooth_bump_profile(1.5) < 1.0
    assert smooth_bump_profile(-0.7) == 1.0  # even in r
    # derivative matches a central difference on the ramp
    for r0 in (1.2, 1.5, 1.9, -1.3):
        eps = 1e-6
        fd = (smooth_bump_profile(r0 + eps) - smooth_bump_profile(r0 - eps)) / (2 * eps)
        assert smooth_bump_slope(r0) == pytest.approx(float(fd), abs=1e-8)
    assert smooth_bump_slope(0.5) == 0.0
    assert smooth_bump_slope(2.5) == 0.0


# -- forward differences ----------------------------------------------------


def test_axis_differences_1d_hand_example():
    grid = build_grid(1, 1.0, 3, 1)
    f = VectorState(grid, [[1.0, 2.0, 4.0]])
    diffs = axis_differences(grid, f.values)
    # cells at -1, -0.5, 0, 0.5; implicit zeros outside
    np.testing.assert_allclose(diffs[0, 0], [1.0, 1.0, 2.0, -4.0])


def test_axis_differences_2d_shape_and_boundary():
    grid = build_grid(2, 1.0, 2, 3)
    f = VectorState.random(grid, np.random.default_rng(0))
    diffs = axis_differences(grid, f.values)
    assert diffs.shape == (2, 3, 9)
    # total squared jumps telescope: each axis sees every node value twice
    for axis in range(2):
        assert (diffs[axis] ** 2).sum() > 0
