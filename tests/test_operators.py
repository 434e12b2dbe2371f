"""Sparse matrix assembly, eigensolvers, and the scalar sandwich bracket."""

import itertools
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sparse
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import matschrod.operators as operators_module
from matschrod import (
    ConvergenceError,
    DiffusionField,
    PotentialField,
    PropagatorConfig,
    VectorState,
    assemble_form,
    assemble_operator,
    build_grid,
    eigen_lowest,
    eval_form,
    pointwise_extremal_eigs,
    propagate,
    sample_fields,
    sandwich_check,
)

import _kronecker as kronecker


def _operator(r):
    """matschrod's operator of a Kronecker recipe, built from the recipe's samples."""
    grid = build_grid(r.d, r.L, r.N, r.m)
    q, v = kronecker.samples(r)
    return grid, assemble_operator(assemble_form(DiffusionField(grid, q), PotentialField(grid, v), grid))


#: weight of the x-dependent term TILT * x_0^2 I that the LU Lanczos recipes add
#: to a constant V: it makes the operator non-separable, so "lanczos" factors
#: B - sigma I instead of reading the closed form, while B stays a Kronecker
#: sum whose repeated values split
TILT = 1e-3
_V2 = [[1.0, -0.4], [-0.4, 2.0]]
_V3 = [[2.0, -0.5, 0.1], [-0.5, 1.0, 0.3], [0.1, 0.3, 1.5]]
_Q3 = (1.0, 1.37, 1.83)


# -- assembly ------------------------------------------------------------------


def test_form_matrix_is_exact_tridiagonal():
    # h = 0.25 is dyadic, so every entry of (1/h) tridiag(-1, 2, -1) is exact
    grid, op = _operator(kronecker.recipe(1, 7, 1))
    expected = (
        np.diag(np.full(7, 8.0))
        + np.diag(np.full(6, -4.0), 1)
        + np.diag(np.full(6, -4.0), -1)
    )
    assert np.array_equal(op.matrix.toarray(), expected)


def test_stored_matrix_exactly_symmetric():
    rng = np.random.default_rng(21)
    grid = build_grid(2, 1.0, 5, 2)
    op = _coupled_operator(grid, rng, q_full=True)
    s = op.matrix.tocsc()
    assert (s - s.T).nnz == 0
    assert all(o <= 0 for o in op.matrix.offsets)  # the one stored triangle


def _form_matrix(rows, cols, data, shape):
    """The symmetric FormMatrix of lower COO entries, repeats summed, with one band per offset cols - rows, and band 0."""
    assert np.all(cols <= rows)
    offsets = np.union1d(cols - rows, [0])
    bands = np.zeros((offsets.size, shape[0]))
    np.add.at(bands, (np.searchsorted(offsets, cols - rows), rows), data)
    return operators_module.FormMatrix(offsets.tolist(), bands)


def _reference_entries(op):
    """The (offset, rows, vals) lists of the lower triangle of S, from a plain loop over the cells.

    One list per stencil term, in the order in which the assembly adds them:
    the pairs (i, j), a cross pair only where q_ij is nonzero in some cell;
    for each, row corner a in (e_i, 0), then column corner b in (e_j, 0),
    with sign +-1, keeping offsets stride(b) - stride(a) <= 0; the entries
    (r, r + offset) sit at the cells whose two corners are interior nodes.
    The scalar stiffness lists come once per component, then h^d v_ij
    (j <= i) at every node.
    """
    grid, q = op.grid, op.diffusion.samples
    N, d, m, n, h = grid.N, grid.d, grid.m, grid.n_nodes, grid.h
    stride = [N ** (d - 1 - k) for k in range(d)]
    corners = [tuple(int(k == i) for k in range(d)) for i in range(d)] + [(0,) * d]

    def node(cell, corner):
        """Flat index of the lattice point cell + corner, None on the boundary."""
        point = [c + x for c, x in zip(cell, corner)]
        return sum((p - 1) * s for p, s in zip(point, stride)) if all(1 <= p <= N for p in point) else None

    stiffness = []
    for i, j in itertools.product(range(d), repeat=2):
        if i != j and not np.any(q[:, i, j]):
            continue
        for (a, sa), (b, sb) in itertools.product(((i, 1.0), (d, -1.0)), ((j, 1.0), (d, -1.0))):
            offset = sum((y - x) * s for x, y, s in zip(corners[a], corners[b], stride))
            if offset > 0:
                continue
            rows, vals = [], []
            for c, cell in enumerate(itertools.product(range(N + 1), repeat=d)):
                r = node(cell, corners[a])
                if r is not None and node(cell, corners[b]) is not None:
                    rows.append(r)
                    vals.append(sa * sb * (h ** (d - 2) * q[c, i, j]))
            stiffness.append((offset, np.array(rows), np.array(vals)))
    lists = [(offset, rows + w * n, vals) for w in range(m) for offset, rows, vals in stiffness]
    for i in range(m):
        for j in range(i + 1):
            lists.append(((j - i) * n, i * n + np.arange(n), grid.cell_volume * op.potential.samples[:, i, j]))
    return lists


def _banded(lists, dim):
    """(offsets, bands): the (offset, rows, vals) lists summed, in order, into one dense band per offset."""
    lower = {}
    for offset, rows, vals in lists:
        if offset not in lower:
            lower[offset] = np.zeros(dim)
        lower[offset][rows] += vals
    offsets = sorted(lower)
    return offsets, np.array([lower[offset] for offset in offsets])


def _coo_entries(lists):
    """The (offset, rows, vals) lists of ``_reference_entries``, concatenated as COO (rows, cols, vals)."""
    lists = list(lists)
    return (
        np.concatenate([rows for _, rows, _ in lists]),
        np.concatenate([rows + offset for offset, rows, _ in lists]),
        np.concatenate([vals for _, _, vals in lists]),
    )


def _csr(s):
    """The CSR arrays of a FormMatrix, through its one SciPy conversion."""
    return s.tocsc().tocsr()


def _times_columns(b, block):
    """B times each column of an (n, k) block, as a C-ordered (n, k) block."""
    return np.column_stack([b @ column for column in block.T])


def _same_bytes(ours, theirs):
    assert ours.indices.dtype == np.int32
    for name in ("indptr", "indices", "data"):
        a, b = getattr(ours, name), getattr(theirs, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def _scipy_form_matrix(op):
    """S as SciPy builds it from the lower-triangle entries of the reference loop."""
    rows, cols, vals = _coo_entries(_reference_entries(op))
    lower = sparse.coo_matrix((vals, (rows, cols)), shape=(op.dim, op.dim)).tocsr()
    return ((lower + lower.T) - sparse.diags(lower.diagonal())).tocsr()


def _coupled_operator(grid, rng, q_full=False):
    """Random Q (diagonal unless ``q_full``) and a random symmetric coupled V, zero at some nodes."""
    if q_full:
        mats = rng.standard_normal((grid.n_cells, grid.d, grid.d))
        q = np.einsum("nka,nkb->nab", mats, mats) + 0.2 * np.eye(grid.d)
    else:
        q = rng.uniform(0.2, 2.0, (grid.n_cells, grid.d))[:, :, None] * np.eye(grid.d)
    vm = rng.standard_normal((grid.n_nodes, grid.m, grid.m))
    vs = (vm + vm.transpose(0, 2, 1)) * (rng.random((grid.n_nodes, 1, 1)) < 0.8)
    return assemble_operator(assemble_form(DiffusionField(grid, q), PotentialField(grid, vs), grid))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    d=st.integers(1, 3),
    N=st.integers(2, 12),
    m=st.integers(1, 3),
    q_full=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_form_matrix_is_scipys_bit_for_bit(d, N, m, q_full, seed):
    # a 3-d row with a full Q holds more than the 16 entries that SciPy sorts stably (next test)
    rng = np.random.default_rng(seed)
    grid = build_grid(d, 1.0, N, m)
    op = _coupled_operator(grid, rng, q_full=q_full and d < 3)
    ref = _scipy_form_matrix(op)
    for ours, theirs in ((op.matrix, ref), (op.generator(), ref / grid.cell_volume)):
        _same_bytes(_csr(ours), theirs)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    d=st.integers(1, 3),
    N=st.integers(2, 10),
    m=st.integers(1, 3),
    q_full=st.booleans(),
    seed=st.integers(0, 2**16),
)
@example(d=3, N=6, m=2, q_full=True, seed=24)
def test_band_arithmetic_is_scipys_bit_for_bit(d, N, m, q_full, seed):
    # every method against SciPy's CSR of the same matrix, the shifted matrices
    # of the LU included: B - sigma I (Lanczos) and (1 - gamma c) I + gamma B (Krylov)
    rng = np.random.default_rng(seed)
    op = _coupled_operator(build_grid(d, 1.0, N, m), rng, q_full=q_full)
    b = op.generator()
    csr = _csr(b)
    x = rng.standard_normal(op.dim)
    basis = rng.standard_normal((3, op.dim))
    assert (b @ x).tobytes() == (csr @ x).tobytes()
    # the shift-invert propagator's B V^T, one basis row at a time, is SciPy's block product
    assert _times_columns(b, basis.T).tobytes() == (csr @ basis.T).tobytes()
    _assert_abs_row_sums_are_scipys(b)
    for k in {1, *b.offsets, *(-o for o in b.offsets)}:
        assert b.diagonal(k).tobytes() == csr.diagonal(k).tobytes()
    assert b.toarray().tobytes() == csr.toarray().tobytes()
    identity = sparse.identity(op.dim, format="csr")
    sigma = min(-1.0, op.potential.min_eigenvalue - 1.0)
    _same_bytes(b.shifted(1.0, -sigma).tocsc(), (csr - sigma * identity).tocsc())
    gamma, c = rng.uniform(1e-3, 10.0), min(0.0, op.potential.min_eigenvalue)
    _same_bytes(b.shifted(gamma, 1.0 - gamma * c).tocsc(), ((1.0 - gamma * c) * identity + gamma * csr).tocsc())


@pytest.mark.parametrize("d, m, q_full", list(itertools.product((1, 2, 3), (1, 2, 3), (False, True))))
def test_upper_terms_are_views_of_the_lower_bands_and_nnz_counts_both(d, m, q_full):
    # B stores its lower bands only: the entry (r, r + o) above the diagonal
    # is read from the lower band -o, and nnz counts it as SciPy does
    rng = np.random.default_rng(10 * d + m)
    b = _coupled_operator(build_grid(d, 1.0, {1: 30, 2: 7, 3: 4}[d], m), rng, q_full).generator()
    upper = [(o, values) for o, *_, values in b._terms if o > 0]
    assert [o for o, _ in upper] == [-o for o in reversed(b.offsets) if o < 0]
    assert all(np.shares_memory(values, b.bands[b.offsets.index(-o)]) for o, values in upper)
    assert b.nnz == _csr(b).nnz


def _assert_abs_row_sums_are_scipys(a):
    # SciPy's abs(A).sum(axis=1) adds the same nonnegative magnitudes in
    # another order; each order errs by at most (terms - 1) eps/2 times the sum
    theirs = np.asarray(abs(_csr(a)).sum(axis=1)).ravel()
    assert np.all(np.abs(a.abs_row_sums() - theirs) <= len(a._terms) * np.finfo(float).eps * theirs)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(0, 10_000),
    offsets=st.sets(st.integers(-40, 0), min_size=1, max_size=9),
    zero_bands=st.integers(0, 9),
    zero_rows=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**16),
)
@example(n=8192, offsets={-1, 0}, zero_bands=0, zero_rows=0.5, seed=1)  # half the rows zero
@example(n=4101, offsets={-2, 0}, zero_bands=2, zero_rows=0.0, seed=2)  # every band zero
@example(n=1, offsets={0}, zero_bands=0, zero_rows=0.0, seed=3)
@example(n=5, offsets={-40, -1, 0}, zero_bands=0, zero_rows=0.0, seed=4)  # an offset |o| >= n
def test_abs_row_sums_are_scipys_up_to_summation_order(n, offsets, zero_bands, zero_rows, seed):
    # a symmetric matrix whose lower bands are zeroed at some rows, with
    # all-zero bands and any n, and magnitudes from 1e-20 to 1e20; an offset
    # |o| >= n holds no entry
    offsets = sorted(o for o in offsets if -o < n)
    assume(offsets)
    rng = np.random.default_rng(seed)
    bands = rng.standard_normal((len(offsets), n)) * 10.0 ** rng.uniform(-20, 20, (len(offsets), n))
    bands[: min(zero_bands, len(offsets))] = 0.0
    bands[:, rng.random(n) < zero_rows] = 0.0
    for band, o in zip(bands, offsets):  # a band is 0 wherever its column falls outside
        band[:-o] = 0.0
    _assert_abs_row_sums_are_scipys(operators_module.FormMatrix(offsets, bands))


def test_form_matrix_with_full_q_in_3d_is_scipys_up_to_summation_order():
    # SciPy sorts a row of more than 16 entries unstably, so it may add the
    # repeats of an entry in another order; each order errs by at most
    # (repeats - 1) eps/2 times the sum of the repeats' magnitudes
    rng = np.random.default_rng(24)
    op = _coupled_operator(build_grid(3, 1.0, 6, 2), rng, q_full=True)
    s, ref = _csr(op.matrix), _scipy_form_matrix(op)
    assert s.indptr.tobytes() == ref.indptr.tobytes() and s.indices.tobytes() == ref.indices.tobytes()
    rows, cols, vals = _coo_entries(_reference_entries(op))
    lower = sparse.coo_matrix((np.abs(vals), (rows, cols)), shape=s.shape).tocsr()
    magnitude = (lower + sparse.triu(lower.T, 1)).tocsr()
    magnitude.sort_indices()
    assert magnitude.indices.tobytes() == s.indices.tobytes()
    assert np.all(np.abs(s.data - ref.data) <= 16 * np.finfo(float).eps * magnitude.data)


#: CI's constant full Q; q_02 is zero, so a 3-d assembly skips the pairs (0, 2) and (2, 0)
_FULL_Q = np.array([[1.0, 0.3, 0.0], [0.3, 1.2, 0.1], [0.0, 0.1, 1.5]])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    d=st.integers(1, 3),
    N=st.integers(2, 9),
    m=st.integers(1, 3),
    q_kind=st.sampled_from(["diagonal", "full", "broadcast"]),
    seed=st.integers(0, 2**16),
)
@example(d=3, N=2, m=3, q_kind="full", seed=0)
@example(d=3, N=9, m=2, q_kind="broadcast", seed=1)
def test_assembly_is_the_reference_lists_summed_band_by_band(d, N, m, q_kind, seed):
    # each position adds the same floats in the same order, so the bands keep
    # every byte; a broadcast Q comes with a constant V, both stored as one sample
    rng = np.random.default_rng(seed)
    if q_kind == "broadcast":
        vm = rng.standard_normal((m, m))
        grid = build_grid(d, 1.0, N, m)
        op = assemble_operator(assemble_form(*sample_fields(lambda x: _FULL_Q[:d, :d], lambda x: vm + vm.T, grid), grid))
        assert op.diffusion.samples.strides[0] == op.potential.samples.strides[0] == 0
    else:
        op = _coupled_operator(build_grid(d, 1.0, N, m), rng, q_full=q_kind == "full")
    s = operators_module._assemble_matrix(op)
    offsets, bands = _banded(_reference_entries(op), op.dim)
    assert list(s.offsets) == offsets
    assert s.bands.tobytes() == bands.tobytes()


def test_form_matrix_multiplies_vectors_only():
    # a square block would otherwise broadcast against the diagonal band silently
    b = _operator(kronecker.recipe(2, 5, 2))[1].generator()
    n = b.shape[0]
    for x in (np.ones((n, n)), np.ones((n, 1)), np.ones((1, n)), np.ones((n, 3)), np.float64(1.0), 1.0):
        with pytest.raises(ValueError, match="takes a vector"):
            b @ x
    assert (b @ np.ones(n)).shape == (n,)


def test_form_matrix_drops_repeats_that_cancel():
    # h = 0.5: each diagonal entry is 2 + 2 from the two cells at a node,
    # and h V = -4 cancels them exactly, so only the off-diagonal stays stored
    _, op = _operator(kronecker.recipe(1, 3, 1, v=-8.0))
    _same_bytes(_csr(op.matrix), _scipy_form_matrix(op))
    assert op.matrix.nnz == 4
    assert np.array_equal(op.matrix.toarray(), -2.0 * (np.eye(3, k=1) + np.eye(3, k=-1)))


def test_form_matrix_bytes_depend_on_the_order_of_the_lists():
    # negative control for the band-by-band test: the same lists summed in reverse order
    op = _coupled_operator(build_grid(3, 1.0, 6, 2), np.random.default_rng(24), q_full=True)
    s = operators_module._assemble_matrix(op)
    offsets, reverse = _banded(_reference_entries(op)[::-1], op.dim)
    assert list(s.offsets) == offsets
    assert np.any(reverse != s.bands)


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
    b = 0.7
    grid, op = _operator(kronecker.recipe(1, 3, 2, v=[[2.0, b], [b, 1.0]]))
    s = op.matrix.toarray()
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


def test_generator_is_the_one_stored_matrix(monkeypatch):
    # assemble_operator refuses an asymmetric potential at call time (above),
    # but assembles only when B is first read; the one matrix it assembles
    # becomes B, so no S is stored beside it, whatever reads B afterwards
    grid, op = _operator(kronecker.recipe(2, 9, 2))
    assembled = []
    assemble = operators_module._assemble_matrix

    def spy(assembly):
        assembled.append(assemble(assembly))
        return assembled[-1]

    monkeypatch.setattr(operators_module, "_assemble_matrix", spy)
    b = op.generator()
    assert op.generator() is b
    eigen_lowest(op, 3)
    f0 = VectorState(grid, np.random.default_rng(0).standard_normal((grid.m, grid.n_nodes)))
    for method in ("exact-dense", "lanczos-expmv"):
        propagate(op, f0, 0.1, PropagatorConfig(method=method))
    assert len(assembled) == 1 and assembled[0] is b and op.generator() is b
    assert [v for v in vars(op).values() if isinstance(v, operators_module.FormMatrix)] == [b]
    monkeypatch.undo()
    assert b.bands.tobytes() == (op.matrix.bands * (1.0 / grid.cell_volume)).tobytes()


def test_generator_holds_its_lower_bands_and_a_fixed_number_of_temporaries(monkeypatch):
    # d = 2, m = 4: B keeps only its 6 lower bands.  Beside them, the
    # assembly holds at most 1 state more (0.67 measured at N = 100 and 0.83
    # at N = 40: one term's weights and one component's potential), and
    # building B at most 2.5 (2.01 measured: the row sums and one term's magnitudes)
    def memory(N):
        _, op = _operator(kronecker.recipe(2, N, 4, q=(1.0, 1.37), v=np.eye(4) + 0.3))
        state, bands = 8 * op.dim, 6 * 8 * op.dim
        assembly = _traced_peak(lambda: operators_module._assemble_matrix(op))
        kept, peak = _traced(op.generator)
        assert op.generator().bands.nbytes == bands
        return (assembly - bands) / state, (kept - bands) / state, (peak - bands) / state

    assembly, kept, peak = memory(100)
    assert assembly <= 1 and kept < 0.1 and peak <= 2.5
    assert memory(40)[0] <= 1

    def reference_assembly(assembly):
        return operators_module.FormMatrix(*_banded(_reference_entries(assembly), assembly.grid.state_size))

    def stacked_abs_row_sums(matrix):
        stack = np.zeros((len(matrix._terms), matrix.shape[0]))
        for row, (_, rows, _, values) in zip(stack, matrix._terms):
            row[rows] = values
        return np.abs(stack).sum(axis=0)

    # negative controls: the reference lists summed into a dict of bands (18.6
    # states at N = 40), and every term's magnitudes stacked and summed at once
    # (23.0 states at N = 100)
    with monkeypatch.context() as patch:
        patch.setattr(operators_module, "_assemble_matrix", reference_assembly)
        assert memory(40)[0] > 1
    monkeypatch.setattr(operators_module.FormMatrix, "abs_row_sums", stacked_abs_row_sums)
    assert memory(100)[2] > 2.5


def test_norm_bound_is_measured_once_when_the_generator_is_built(monkeypatch):
    # B keeps its infinity norm: the norm bound, both eigensolver paths and
    # every Krylov propagation read the stored value instead of reducing B again
    grid, op = _operator(kronecker.recipe(2, 12, 2, q=(1.0, 1.37), s=(TILT, 0.0), v=_V2))
    calls = []
    abs_row_sums = operators_module.FormMatrix.abs_row_sums

    def spy(matrix):
        calls.append(matrix.shape)
        return abs_row_sums(matrix)

    monkeypatch.setattr(operators_module.FormMatrix, "abs_row_sums", spy)
    bound = op.generator_norm_bound()
    reports = [eigen_lowest(op, 3, method=method) for method in ("dense", "lanczos")]
    assert [report.method for report in reports] == ["dense", "lanczos"]
    f0 = VectorState(grid, np.random.default_rng(0).standard_normal((grid.m, grid.n_nodes)))
    for t in (0.01, 0.1, 1.0):
        propagate(op, f0, t, PropagatorConfig(method="lanczos-expmv"))
    assert calls == [(op.dim, op.dim)]
    assert all(report.matrix_norm == bound for report in reports)
    assert bound == float(np.max(abs_row_sums(op.generator())))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(d=st.integers(1, 3), N=st.integers(2, 12), m=st.integers(1, 3), seed=st.integers(0, 2**16))
def test_dimension_needs_no_assembly_and_matches_the_matrix(d, N, m, seed):
    grid = build_grid(d, 1.0, N, m)
    op = _coupled_operator(grid, np.random.default_rng(seed), q_full=True)
    assert op.dim == grid.state_size and "matrix" not in op.__dict__
    assert op.dim == op.matrix.shape[0] == op.matrix.shape[1]


def test_generator_scaling_and_norm_bound():
    grid, op = _operator(kronecker.recipe(1, 15, 1))
    b = op.generator()
    np.testing.assert_allclose(
        b.toarray(), op.matrix.toarray() / grid.cell_volume, rtol=1e-15
    )
    w, _ = op.dense_eig()
    assert op.generator_norm_bound() >= w[-1] - 1e-12
    assert op.dense_eig() is op.dense_eig()  # cached


def test_generator_keeps_subnormal_entries_beside_normal_ones():
    # a Gaussian coupling on a wide box passes through the subnormal floats,
    # which round to within the unit roundoff of B's largest entry; only an S
    # or B with no normal entry is refused
    grid = build_grid(1, 27.0, 160, 2)

    def v_fn(x):
        w, base = 0.8 * np.exp(-(x[0] ** 2)), 1.0 + x[0] ** 2
        return np.array([[base, w], [w, base]])

    op = assemble_operator(assemble_form(*sample_fields(lambda x: np.eye(1), v_fn, grid), grid))
    coupling = op.generator().bands[op.generator().offsets.index(-grid.n_nodes)]
    assert 0 < np.min(np.abs(coupling[coupling != 0])) < np.finfo(float).tiny
    np.testing.assert_allclose(op.generator().toarray(), op.matrix.toarray() / grid.cell_volume, rtol=1e-15)


# -- eigensolvers ----------------------------------------------------------------


class _Solve(NamedTuple):
    # id is None in a test that was not parametrized; calls holds one (method asked, method
    # reported, shift) per eigen_lowest call; agree is the (rtol, atol / ||B||) at which the later
    # calls' eigenvalues meet the first call's; rtol tightens the oracle's bound; near holds values
    # that the oracle and every call meet to 5e-3; copies is the atol to which each call repeats
    # every value that the oracle repeats, and some; gap is the least spacing of the oracle's k + 1 lowest
    id: str | None
    recipe: kronecker.Kronecker
    k: int
    calls: tuple
    tol: float = 1e-10
    reached: bool = True
    agree: tuple | None = None
    rtol: float | None = None
    near: tuple = ()
    copies: float | None = None
    gap: float | None = None


_DENSE, _CLOSED = ("dense", "dense", None), ("lanczos", "separable", None)
_LU = ("lanczos", "lanczos", -1.0)  # V >= 0 keeps the default shift
#: the lowest levels of the 2-d box with V = -50: -37.67 twice
_MINUS_50 = (-45.07, -37.67, -37.67, -30.28)

#: the eigensolver table: each test name maps to its rows, and the one test
#: body below checks each row against the oracle, which does not read matschrod's B
_SPECTRA = {
    "test_free_laplacian_spectrum_dense": [
        _Solve(None, kronecker.recipe(1, 60, 1), 20, (("auto", "dense", None),), rtol=1e-10)],
    "test_free_laplacian_spectrum_lanczos": [
        _Solve(None, kronecker.recipe(1, 150, 1, s=TILT), 10, (_LU,), rtol=1e-10)],
    "test_free_laplacian_spectrum_closed_form": [_Solve(None, kronecker.recipe(1, 150, 1), 10, (_CLOSED,), rtol=1e-10)],
    "test_lanczos_matches_dense_on_confining_potential": [
        _Solve(None, kronecker.recipe(1, 300, 1, L=10.0, s=1.0), 8, (_DENSE, _LU), agree=(1e-9, 0.0))],
    # dimension 3721 > DENSE_LIMIT, so "auto" runs Lanczos; a shift fixed at -1
    # would sit inside the spectrum and return eigenpairs that are not the lowest.
    # The tilt vanishes on the middle node, so min V = -50 exactly
    "test_lanczos_shift_below_negative_potential_auto_path": [
        _Solve(None, kronecker.recipe(2, 61, 1, s=(TILT, 0.0), v=-50.0), 4, (("auto", "lanczos", -51.0),),
               near=_MINUS_50)],
    # the untilted operator above DENSE_LIMIT: both copies of -37.67, exactly
    "test_negative_potential_auto_path_reads_the_closed_form": [
        _Solve(None, kronecker.recipe(2, 61, 1, v=-50.0), 4, (("auto", "separable", None),), near=_MINUS_50,
               copies=0.0)],
    # no node sits at 0, so min V = -30 + TILT (1/201)^2
    "test_lanczos_matches_dense_on_negative_potential": [
        _Solve(None, kronecker.recipe(1, 200, 1, s=TILT, v=-30.0), 3,
               (_DENSE, ("lanczos", "lanczos", -30.999999975248137)), agree=(0.0, 1e-10), near=(-27.53, -20.13, -7.80))],
    # B = K_q (x) I_2 + I (x) V with K_q the anisotropic 3-d Laplacian (plus the
    # tilt along x_0); the lowest 11 values are simple
    "test_lanczos_3d_coupled_matches_kronecker_sum": [
        _Solve(None, kronecker.recipe(3, 8, 2, q=_Q3, s=(TILT, 0.0, 0.0), v=_V2), 10, (_LU,), gap=0.1)],
    "test_closed_form_3d_coupled_matches_kronecker_sum": [
        _Solve(None, kronecker.recipe(3, 8, 2, q=_Q3, v=_V2), 10, (_CLOSED,), gap=0.1)],
    # dense and the closed form compute no iterate to refine: they return
    # their residuals, and the caller compares them with tol * matrix_norm
    "test_exact_paths_report_an_unreachable_tolerance_without_raising": [
        _Solve(None, kronecker.recipe(1, 50, 1), 3, (call,), tol=1e-30, reached=False) for call in (_DENSE, _CLOSED)],
    # m identical components repeat every eigenvalue m times.  At N = 8
    # roundoff leaks the other copies into the basis; at N = 4 the basis
    # breaks down exactly after 4 steps, and only the restart finds them
    "test_forced_lanczos_keeps_multiplicities": [
        _Solve(f"{N}-{m}-{k}", kronecker.recipe(1, N, m, s=1.0), k, (_DENSE, _LU), agree=(0.0, 1e-12),
               copies=1e-12) for N, m, k in [(8, 2, 12), (8, 2, 16), (4, 3, 6)]],
    # V = scale x^2 puts lambda_min(B) near 6e10 and 6e14, so every alpha of
    # (B - sigma I)^-1 is below 2e-11.  Measured against max(1, |alpha_0|),
    # every beta read as a breakdown, and the restarts never converged
    "test_lanczos_breakdown_test_scales_with_a_stiff_operator": [
        _Solve(f"{scale:g}", kronecker.recipe(1, 400, 1, s=scale), 6, (_DENSE, _LU), agree=(1e-10, 0.0))
        for scale in (1e16, 1e20)],
    # dimensions just below and above DENSE_LIMIT = 3000; V = -50 I_m and an
    # isotropic Q repeat the lowest eigenvalues up to six times.  "auto"
    # resolves to dense, or to "lanczos", which reads this operator off the closed form
    "test_auto_spectrum_across_dense_limit_with_multiplicities": [
        _Solve(f"{d}-{N}-{m}-{method}", kronecker.recipe(d, N, m, v=-50.0), 12,
               (("auto", {"dense": "dense", "lanczos": "separable"}[method], None),), copies=1e-11)
        for d, N, m, method in [(1, 1000, 3, "dense"), (1, 1001, 3, "lanczos"), (2, 54, 1, "dense"),
                                (2, 55, 1, "lanczos"), (3, 14, 1, "dense"), (3, 15, 1, "lanczos")]],
}


def _check_spectrum(row):
    """Each call against the row and the oracle, index by index, so a dropped copy fails."""
    _, op = _operator(row.recipe)
    levels = kronecker.eigenvalues(row.recipe, row.k + 1)
    exact = levels[: row.k]
    # the runs of values that the oracle repeats, to 1e-12 relative
    ties = np.diff(exact) <= 1e-12 * np.abs(exact).max()
    runs = [run for run in np.split(np.arange(row.k), np.flatnonzero(~ties) + 1) if run.size > 1]
    assert row.copies is None or runs
    assert row.gap is None or np.all(np.diff(levels) > row.gap)
    reports = []
    for asked, method, shift in row.calls:
        report = eigen_lowest(op, row.k, tol=row.tol, method=asked)
        values, norm = report.eigenvalues, report.matrix_norm
        assert (report.method, report.shift, report.tol) == (method, shift, row.tol)
        assert (report.iterations > 0) == (method == "lanczos")
        # an unreachable tol is reported by the exact paths, not raised
        below = report.residuals <= row.tol * norm
        assert np.all(below) if row.reached else not np.any(below)
        # the closed form is exact to roundoff
        bound = (1e-13 if method == "separable" else row.tol if row.reached else 1e-10) * norm
        assert method != "separable" or np.all(report.residuals <= 1e-14 * norm)
        error = np.abs(values - exact)
        assert np.all(error <= bound) and (row.rtol is None or np.all(error <= row.rtol * np.abs(exact)))
        vecs = report.eigenvectors
        assert vecs.shape == (op.dim, row.k)
        assert np.linalg.norm(vecs.T @ vecs - np.eye(row.k), 2) <= (1e-13 if method == "separable" else 1e-12)
        assert row.copies is None or all(np.ptp(values[run]) <= row.copies for run in runs)
        reports.append(report)
    for values in [exact] + [report.eigenvalues for report in reports]:
        assert not row.near or np.allclose(values, row.near, rtol=0, atol=5e-3)
    for report in reports[1:]:
        rtol, atol = row.agree
        np.testing.assert_allclose(report.eigenvalues, reports[0].eigenvalues, rtol=rtol, atol=atol * report.matrix_norm)


def _spectrum_test(rows):
    if rows[0].id is None:  # a test that was not parametrized runs its rows in turn
        def test():
            for row in rows:
                _check_spectrum(row)
        return test

    @pytest.mark.parametrize("row", rows, ids=[row.id for row in rows])
    def test(row):
        _check_spectrum(row)
    return test


for _name, _rows in _SPECTRA.items():
    globals()[_name] = _spectrum_test(_rows)


def test_eigen_lowest_argument_errors():
    _, op = _operator(kronecker.recipe(1, 8, 1))
    with pytest.raises(ValueError):
        eigen_lowest(op, 0)
    with pytest.raises(ValueError):
        eigen_lowest(op, 9)
    with pytest.raises(ValueError, match="unknown eigensolver"):
        eigen_lowest(op, 2, method="qr")


def test_eigen_lowest_takes_an_integer_count_only():
    # 2.5 used to return 2 eigenpairs on the dense path and True one; the
    # closed form and LU Lanczos failed with an unrelated TypeError
    _, free = _operator(kronecker.recipe(1, 40, 1))
    _, tilted = _operator(kronecker.recipe(1, 40, 1, s=TILT))
    cases = [(free, "dense", "dense"), (free, "lanczos", "separable"), (tilted, "lanczos", "lanczos"), (free, "auto", "dense")]
    for op, method, resolved in cases:
        for k in (2.5, 3.0, True, np.float64(3.0)):
            with pytest.raises(ValueError, match="eigenpair count k must be an integer"):
                eigen_lowest(op, k, method=method)
        report = eigen_lowest(op, np.int64(3), method=method)
        assert report.method == resolved and report.eigenvalues.shape == report.residuals.shape == (3,)
        assert report.eigenvectors.shape == (op.dim, 3)


@pytest.mark.parametrize("tol", [0.0, -1e-10, np.nan, np.inf])
def test_eigen_lowest_rejects_a_tolerance_no_residual_can_meet(tol):
    # a dense report could never pass such a tolerance, and LU Lanczos would
    # grind to its largest basis and raise ConvergenceError
    _, free = _operator(kronecker.recipe(1, 40, 1))
    _, tilted = _operator(kronecker.recipe(1, 40, 1, s=TILT))
    for op, method in ((free, "dense"), (free, "lanczos"), (tilted, "lanczos")):
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            eigen_lowest(op, 3, tol=tol, method=method)


def test_auto_switches_to_lanczos_above_dense_limit(monkeypatch):
    monkeypatch.setattr(operators_module, "DENSE_LIMIT", 10)
    r = kronecker.recipe(1, 40, 1, s=TILT)
    _, op = _operator(r)
    report = eigen_lowest(op, 5)
    assert report.method == "lanczos"
    np.testing.assert_allclose(report.eigenvalues, kronecker.eigenvalues(r, 5), rtol=1e-10)
    with pytest.raises(ValueError, match="dense path"):
        eigen_lowest(op, 5, method="dense")
    with pytest.raises(ValueError, match="dense path"):
        op.dense_eig()


def test_lanczos_unreachable_tolerance_raises_with_partial():
    r = kronecker.recipe(1, 50, 1, s=TILT)
    _, op = _operator(r)
    with pytest.raises(ConvergenceError) as exc_info:
        eigen_lowest(op, 3, tol=1e-30, method="lanczos")
    partial = exc_info.value.partial
    assert partial is not None
    # the partial report is still numerically sound, only the tolerance was absurd
    np.testing.assert_allclose(partial.eigenvalues, kronecker.eigenvalues(r, 3), rtol=1e-9)


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


# -- the constant-coefficient closed form ----------------------------------------------


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
    r = kronecker.recipe(d, N, m, q=q, v=kronecker.random_potential(kind, m, np.random.default_rng(seed), level))
    _check_spectrum(_Solve(None, r, min(k, m * N**d), (_CLOSED, _DENSE), agree=(0.0, 1e-13)))


@pytest.mark.parametrize("d, N, m", [(1, 30, 1), (2, 12, 3), (3, 8, 2)])
def test_separable_dst_matches_scipy_inverts_itself_and_keeps_its_input(d, N, m):
    # the numpy DST-I agrees with scipy's orthonormal one to roundoff, not bit
    # for bit: the two FFTs order their sums differently
    from scipy.fft import dstn

    rng = np.random.default_rng(d)
    _, op = _operator(kronecker.recipe(d, N, m, q=_Q3[:d], v=kronecker.random_potential("coupled", m, rng, 0.0)))
    mu, w = op.separable
    y = rng.standard_normal(mu.shape)
    bound = 8.0 * np.finfo(float).eps * np.linalg.norm(y)
    z = operators_module._odd_extension(y.shape)
    got = operators_module._dst1(y, d, z)
    assert np.max(np.abs(got - dstn(y, type=1, axes=tuple(range(1, d + 1)), norm="ortho"))) <= bound
    assert np.max(np.abs(operators_module._dst1(got, d, z) - y)) <= bound
    analyse, synthesize = operators_module._separable_basis(mu, w)
    x = rng.standard_normal(op.dim)
    kept_x, kept_y = x.copy(), y.copy()
    analyse(x)
    synthesize(y)
    np.testing.assert_array_equal(x, kept_x)
    np.testing.assert_array_equal(y, kept_y)


def test_separable_dst_matches_the_dense_sine_matrix():
    N = 37
    j = np.arange(1, N + 1)
    sines = np.sqrt(2.0 / (N + 1)) * np.sin(np.pi * np.outer(j, j) / (N + 1))
    x = np.random.default_rng(5).standard_normal((3, N))
    np.testing.assert_allclose(
        operators_module._dst1(x, 1, operators_module._odd_extension(x.shape)),
        x @ sines,
        rtol=0,
        atol=8.0 * np.finfo(float).eps * np.linalg.norm(x),
    )


def _batched_one_hot_vectors(mu, w, order):
    """The closed form's eigenvectors as one DST of all k one-hot modes at once, (n, k)."""
    k, m, ndim = len(order), mu.shape[0], mu.ndim - 1
    modes = np.zeros((k, mu.size))
    modes[np.arange(k), order] = 1.0
    modes = modes.reshape((k,) + mu.shape)
    y = operators_module._dst1(modes, ndim, operators_module._odd_extension(modes.shape))
    return (w @ y.reshape(k, m, -1)).reshape(k, -1).T


def _traced(fn):
    """Bytes that fn() leaves allocated and that tracemalloc sees at its peak, above those held before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        current, peak = tracemalloc.get_traced_memory()
        return current - before, peak - before
    finally:
        tracemalloc.stop()


def _traced_peak(fn):
    """Bytes that tracemalloc sees allocated at the peak of fn(), above those held before it."""
    return _traced(fn)[1]


@pytest.mark.parametrize("d, m, coupled", list(itertools.product((1, 2, 3), (1, 2, 3), (False, True))))
def test_closed_form_synthesizes_mode_by_mode_as_the_batched_dst_did(d, m, coupled):
    # a diagonal V has W = I; a coupled one mixes the components
    rng = np.random.default_rng(10 * d + m)
    vmat = kronecker.random_potential("coupled", m, rng, 0.0) if coupled else np.diag(rng.uniform(0.0, 3.0, m))
    _, op = _operator(kronecker.recipe(d, {1: 40, 2: 9, 3: 5}[d], m, q=_Q3[:d], v=vmat))
    k = 7
    report = operators_module._eigen_separable(op, k, 1e-10)
    mu, w = op.separable
    order = np.argsort(mu, axis=None, kind="stable")[:k]
    np.testing.assert_array_equal(report.eigenvalues, mu.ravel()[order])
    assert report.eigenvectors.tobytes() == _batched_one_hot_vectors(mu, w, order).tobytes()


def _report_with_residual_block(op, lams, vectors, method, tol, iterations=0, shift=None):
    """``_report`` with the residual columns gathered in one (n, k) buffer first."""
    report = operators_module.SpectrumReport(lams, None, method, iterations, tol, op.generator_norm_bound(), shift, vectors)
    r = np.empty((op.dim, len(lams)))
    for j, lam in enumerate(lams):
        v = report.column(j)
        r[:, j] = op.generator() @ v - v * lam
    report.residuals = np.linalg.norm(r, axis=0)
    return report


def _eager_separable(op, k, tol):
    """``_eigen_separable`` with all k eigenvectors synthesized into one (n, k) block before the residuals."""
    mu, w = op.separable
    order = np.argsort(mu, axis=None, kind="stable")[:k].copy()
    _, synthesize = operators_module._separable_basis(mu, w)
    vecs = np.empty((op.dim, k))
    mode = np.zeros(mu.shape)
    for col, index in enumerate(order):
        mode.flat[index] = 1.0
        vecs[:, col] = synthesize(mode)
        mode.flat[index] = 0.0
    return operators_module._report(op, mu.ravel()[order], vecs, "separable", tol)


def test_closed_form_eigenvectors_hold_no_batch_of_transforms(monkeypatch):
    # with B built, the peak is the DST's two work arrays, one mode, and the
    # one eigenvector and residual in hand (8.5 states at n = 8192), whatever
    # k is: from k = 10 to 40 it grows by less than two states.  An eager
    # (n, k) eigenvector block, a DST of all k modes at once or an (n, k)
    # residual block hold more
    _, op = _operator(kronecker.recipe(3, 16, 2, q=_Q3, v=_V2))
    eigen_lowest(op, 1, method="lanczos")  # B, the closed form and numpy's FFT plan, made once
    state = 8 * op.dim
    mu, w = op.separable
    mode = np.zeros(mu.shape)
    mode.flat[0] = 1.0
    bound = _traced_peak(lambda: operators_module._separable_basis(mu, w)[1](mode)) + 3 * state

    def peaks():
        return [_traced_peak(lambda: eigen_lowest(op, k, method="lanczos")) for k in (10, 40)]

    small, large = peaks()
    assert small <= bound and large - small < 2 * state
    order = np.argsort(mu, axis=None, kind="stable")[:10]
    assert _traced_peak(lambda: _batched_one_hot_vectors(mu, w, order)) > bound  # negative control
    for name, eager in (("_eigen_separable", _eager_separable), ("_report", _report_with_residual_block)):
        with monkeypatch.context() as patch:  # negative controls
            patch.setattr(operators_module, name, eager)
            small, large = peaks()
            assert small > bound and large - small > 2 * state


def test_closed_form_report_synthesizes_its_eigenvectors_on_first_read():
    # the report keeps the closed form's synthesis, not an (n, k) block; the
    # first read of ``eigenvectors`` gathers the C-ordered block, and the
    # report keeps it
    _, op = _operator(kronecker.recipe(2, 9, 2, q=(1.0, 1.37), v=_V2))
    report = eigen_lowest(op, 5, method="lanczos")
    assert report.method == "separable" and callable(report._vectors)
    mu, w = op.separable
    order = np.argsort(mu, axis=None, kind="stable")[:5]
    vecs = report.eigenvectors
    assert vecs.flags.c_contiguous and vecs.tobytes() == _batched_one_hot_vectors(mu, w, order).tobytes()
    assert report.eigenvectors is vecs and report.column(2).tobytes() == vecs[:, 2].tobytes()
    dense = eigen_lowest(op, 5, method="dense")
    assert not callable(dense._vectors) and dense.eigenvectors is dense._vectors


def test_residuals_match_scipys_product_on_every_path():
    # each residual ||B v - lambda v||, formed one column at a time, against
    # SciPy's CSR product with the whole (n, k) block, for the F-ordered
    # eigenvectors of LAPACK and of the Ritz pairs of a non-separable
    # operator and for the closed form's C-ordered ones alike, at k = 1 and
    # k >= 2, n even and odd
    _, coupled_line = _operator(kronecker.recipe(1, 1000, 2, v=_V2))  # not tridiagonal: scipy eigh
    _, odd_line = _operator(kronecker.recipe(1, 333, 3, v=_V3))  # n = 999
    _, box = _operator(kronecker.recipe(3, 9, 2, q=_Q3, v=_V2))
    _, odd_box = _operator(kronecker.recipe(3, 9, 1, q=_Q3, v=0.5))  # n = 729
    _, tilted = _operator(kronecker.recipe(2, 40, 2, q=(1.0, 1.37), s=(TILT, 0.0), v=_V2))  # LU Lanczos
    cases = [(coupled_line, "dense", 1), (coupled_line, "dense", 2), (coupled_line, "dense", 8)]
    cases += [(odd_line, "dense", 1), (odd_line, "dense", 5), (box, "lanczos", 1), (box, "lanczos", 2)]
    cases += [(box, "lanczos", 10), (odd_box, "lanczos", 1), (odd_box, "lanczos", 7)]
    cases += [(tilted, "lanczos", 1), (tilted, "lanczos", 10)]
    for op, method, k in cases:
        report = eigen_lowest(op, k, method=method)
        vecs, lams = report.eigenvectors, report.eigenvalues
        separable = method == "lanczos" and op.separable is not None
        assert report.method == ("separable" if separable else method)
        if k > 1:
            assert vecs.flags.c_contiguous if separable else vecs.flags.f_contiguous
        r = _csr(op.generator()) @ vecs - vecs * lams
        np.testing.assert_allclose(report.residuals, np.linalg.norm(r, axis=0), rtol=0, atol=1e-13 * report.matrix_norm)


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


def test_constant_is_bitwise_so_signed_zeros_are_not_separable():
    # V = 0 * x_0 * I is -0.0 left of the origin and +0.0 right of it: equal
    # values, other bits.  Such a field is not ``constant``, so the operator takes
    # the general path; a constant field's bounds, read off its first sample,
    # are those of every sample to the bit
    grid = build_grid(2, 1.0, 12, 2)
    q = np.array([[1.0, 0.3], [0.3, 1.7]])
    fields = {
        "signed": sample_fields(lambda x: q, lambda x: 0.0 * x[0] * np.eye(2), grid),
        "plain": sample_fields(lambda x: q, lambda x: np.array([[1.0, -0.4], [-0.4, 2.0]]), grid),
    }
    assert np.any(np.signbit(fields["signed"][1].samples)) and not np.all(np.signbit(fields["signed"][1].samples))
    assert [dif.constant for dif, _ in fields.values()] == [True, True]
    assert [pot.constant for _, pot in fields.values()] == [False, True]
    for dif, pot in fields.values():
        qe, ve = np.linalg.eigvalsh(dif.samples), np.linalg.eigvalsh(pot.samples)
        assert (dif.ellipticity_lower, dif.ellipticity_upper) == (qe[:, 0].min(), qe[:, -1].max())
        assert pot.min_eigenvalue == ve[:, 0].min()
        assert pot.offdiag_max == pot.samples[:, 0, 1].max()
    diagonal_q = np.diag([1.0, 1.37])
    for v_fn, separable in ((lambda x: 0.0 * x[0] * np.eye(2), False), (lambda x: 0.0 * np.eye(2), True)):
        dif, pot = sample_fields(lambda x: diagonal_q, v_fn, grid)
        op = assemble_operator(assemble_form(dif, pot, grid))
        assert (operators_module._separable(op) is not None) == separable


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
    assert np.all(np.linalg.norm(_times_columns(b, u) - u * w, axis=0) <= report.tol * bnorm)
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
        # assemble the zero coupling of the diagonal potential as an all-zero band at -n
        coo = op.matrix.tocsc().tocoo()
        lower, n = coo.col <= coo.row, grid.n_nodes
        rows = np.concatenate([coo.row[lower], np.arange(n, 2 * n)])
        cols = np.concatenate([coo.col[lower], np.arange(n)])
        data = np.concatenate([coo.data[lower], np.zeros(n)])
        monkeypatch.setattr(operators_module, "_assemble_matrix", lambda a: _form_matrix(rows, cols, data, coo.shape))
        assert -n in op.matrix.offsets
        assert op.generator().nnz == coo.nnz
    calls = _spy_dense_solvers(monkeypatch)
    eigen_lowest(op, 3, method="dense")
    op.dense_eig()
    assert calls == [solver, solver]


@pytest.mark.parametrize("d, m, q_full", list(itertools.product((1, 2, 3), (1, 2, 3), (False, True)))[2:])
def test_dense_solves_read_the_transposed_view_bit_for_bit(d, m, q_full):
    # d = 1, m = 1 (the two cases left out) is tridiagonal and never reaches dense eigh
    grid = build_grid(d, 1.0, {1: 40, 2: 8, 3: 4}[d], m)
    op = _coupled_operator(grid, np.random.default_rng(d + 3 * m), q_full)
    b = op.generator()
    assert operators_module._tridiagonal(b) is None
    k = 6
    w, v = scipy.linalg.eigh(b.toarray(), subset_by_index=(0, k - 1))
    report = eigen_lowest(op, k, method="dense")
    assert report.eigenvalues.tobytes() == w.tobytes() and report.eigenvectors.tobytes() == v.tobytes()
    w, u = scipy.linalg.eigh(b.toarray())
    got_w, got_u = op.dense_eig()
    assert got_w.tobytes() == w.tobytes() and got_u.tobytes() == u.tobytes()


def test_dense_solves_make_no_second_copy_of_the_matrix():
    # LAPACK reads the dense B in place: beyond B itself (n^2 doubles) the
    # subset solve allocates little, and the full solve one more n^2 for U
    _, op = _operator(kronecker.recipe(1, 400, 3, s=TILT, v=_V3))
    b = op.generator()
    square = op.dim**2 * 8
    assert op.dim >= 1200 and operators_module._tridiagonal(b) is None
    assert _traced_peak(lambda: eigen_lowest(op, 10, method="dense")) <= 1.5 * square
    assert _traced_peak(op.dense_eig) <= 2.5 * square
    # negative controls: f2py copies B to column-major order unless it gets
    # the transposed view and may overwrite it
    for transpose, overwrite in ((False, False), (True, False), (False, True)):
        def subset():
            a = b.toarray()
            scipy.linalg.eigh(a.T if transpose else a, overwrite_a=overwrite, subset_by_index=(0, 9))

        assert _traced_peak(subset) > 1.5 * square


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
    report = sandwich_check(_operator(kronecker.recipe(1, 30, 2, v=0.8))[1], k=6)
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
    op = assemble_operator(assemble_form(dif, pot, grid))
    report = sandwich_check(op, k=8)
    assert report.passed
    # the bracketed spectrum is the operator's own, bit for bit
    assert report.eigenvalues.tobytes() == eigen_lowest(op, 8).eigenvalues.tobytes()
    lo_margin, hi_margin = report.margins()
    assert np.all(lo_margin >= -report.tol_rel * (1 + np.abs(report.eigenvalues)))
    assert np.all(hi_margin >= -report.tol_rel * (1 + np.abs(report.eigenvalues)))
    assert report.max_lower_violation <= report.tol_rel
    assert report.max_upper_violation <= report.tol_rel


def test_sandwich_rejects_indefinite_potential():
    with pytest.raises(ValueError, match="PSD"):
        sandwich_check(_operator(kronecker.recipe(1, 10, 2, v=-1.0))[1], k=3)
