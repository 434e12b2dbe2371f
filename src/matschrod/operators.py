"""Assembly of the operator and its low spectrum.

Two scalings live side by side and must not be confused:

* the *form matrix* S satisfies <S f, g> = a(f, g) exactly (it carries the
  h^d quadrature weight), and
* the *generator* B = S / h^d is the matrix of the second-order operator in
  the h-weighted inner product; its eigenvalues are the physically scaled
  ones (e.g. (4/h^2) sin^2(k pi / (2(N+1))) for the 1-d free case, or the
  odd integers for the harmonic oscillator).

Reported spectra and semigroup propagation always use B; quadratic-form
identities always use S.  Since the mass weight is a scalar multiple of the
identity the two share eigenvectors.

Assembly adds each stencil term, a box of the lattice, into the dense band
of its offset and sums only the lower triangle, which is all that is stored:
S and B are symmetric by construction, and no floating-point symmetrization
is ever applied.  B, the operator's one stored matrix, is S with its bands
scaled in place, and its infinity norm is measured once, as B is built, by
a running sum of each row's magnitudes; a B that overflows is refused.  S
and B are ``FormMatrix`` objects that keep those lower bands, read each
upper band as a view of its lower one and multiply a vector with numpy
alone, to the bit as SciPy multiplies it by the same CSR matrix; the
eigensolvers and propagators use them directly, and only the sparse LU
converts one, shifted, to SciPy's CSC format.

When Q is one constant diagonal matrix and V one constant matrix (every
sample equal to the first), B is a Kronecker sum that the DST-I and the
eigenvectors of V diagonalize, and ``_separable`` gives its whole spectrum in
closed form.  The eigensolver reads the lowest k modes straight off it
(checking their residuals against the assembled B), and the semigroup's
``exact-separable`` propagator applies e^{-tB} by analysis, scaling and
synthesis; both go through the one DST-I of ``_separable_basis``, on numpy's
FFT alone.
Every other operator that does not go dense runs shift-invert Lanczos on a
sparse LU of B - sigma I, certified by residuals only.  SciPy is imported
by the functions that call it, so ``matschrod assemble``, the closed-form
spectrum and closed-form propagation never load it.  All three eigensolver
paths (dense, closed form, Lanczos) hand their eigenpairs to the one
certificate routine ``_report``.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError
from .form import FormAssembly, assemble_form
from .grid import PotentialField

__all__ = [
    "SymmetricOperator",
    "SpectrumReport",
    "SandwichReport",
    "assemble_operator",
    "eigen_lowest",
    "pointwise_extremal_eigs",
    "sandwich_check",
]

#: largest matrix dimension handled by the dense eigensolver / propagator
DENSE_LIMIT = 3000


def __getattr__(name):
    # ``operators.spla`` serves only perfbench/traced_cli.py, which wraps
    # ``operators.spla.splu``; it goes when ROADMAP item 6 deletes that tracer
    if name == "spla":
        import scipy.sparse.linalg

        return scipy.sparse.linalg
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class FormMatrix:
    """A symmetric matrix stored as its lower bands: ``bands[k, r]`` is the entry (r, r + offsets[k]).

    The offsets increase and none is positive, and a band is 0 wherever its
    column falls outside the matrix.  As in LAPACK's 'L' band storage, only
    the lower triangle is stored: the entry (r, r + o) above the diagonal is
    (r + o, r), so each upper band is a view of its lower band and the matrix
    is symmetric by construction.  ``_terms`` lists every band, upper ones
    included, in ascending offset order as (offset, rows, sources, values):
    the entry (r, r + offset) is ``values[r - rows.start]``, and it multiplies
    ``x[sources]``.  ``@`` takes a vector only and adds
    ``values * x[sources]`` term by term in that order, which is the column
    order in which SciPy's ``csr_matvec`` sums a row, so both give the same
    bits.  ``abs_row_sums`` adds the magnitudes in the same order, which
    may differ from SciPy's ``abs(A).sum(axis=1)`` in the last bit.
    ``tocsc()`` is the one SciPy conversion, for the sparse LU.
    """

    def __init__(self, offsets, bands):
        self.offsets, self.bands = tuple(offsets), bands
        n = bands.shape[1]
        self.shape = (n, n)
        lower = [(o, slice(-o, n), slice(0, n + o), band[-o:]) for o, band in zip(self.offsets, bands)]
        # the entry (r, r - o) is (r - o, r): the lower band's values, rows and sources swapped
        upper = [(-o, sources, rows, values) for o, rows, sources, values in reversed(lower) if o < 0]
        self._terms = lower + upper

    @property
    def nnz(self) -> int:
        return sum(int(np.count_nonzero(values)) for *_, values in self._terms)

    def __matmul__(self, x):
        """A x for a vector x; any other operand raises ``ValueError``."""
        if np.ndim(x) != 1:
            raise ValueError(f"FormMatrix @ takes a vector, got shape {np.shape(x)}")
        y = np.zeros(x.shape)
        for _, rows, sources, values in self._terms:
            part = y[rows]  # a view: += on it skips the copy back that y[rows] += ... makes
            part += values * x[sources]
        return y

    def toarray(self):
        out = np.zeros(self.shape)
        for _, rows, sources, values in self._terms:
            out[np.arange(rows.start, rows.stop), np.arange(sources.start, sources.stop)] = values
        return out

    def diagonal(self, k: int = 0):
        """The k-th diagonal, zeros where no band is stored."""
        for o, *_, values in self._terms:
            if o == k:
                return values.copy()
        return np.zeros(self.shape[0] - abs(k))

    def abs_row_sums(self):
        """sum_j |a_ij| for every row i: each term's magnitudes added into its rows, in ``_terms`` order."""
        out = np.zeros(self.shape[0])
        for _, rows, _, values in self._terms:
            part = out[rows]  # a view, as in ``@``
            part += np.abs(values)
        return out

    def shifted(self, scale: float, shift: float) -> FormMatrix:
        """scale A + shift I; A must store its diagonal band."""
        bands = scale * self.bands
        bands[self.offsets.index(0)] += shift
        return FormMatrix(self.offsets, bands)

    def tocsc(self):
        """The same matrix as a ``scipy.sparse.csc_matrix``, zeros dropped; the input of the sparse LU."""
        import scipy.sparse

        columns = np.zeros((len(self._terms), self.shape[0]))  # DIA storage indexes each band by column
        for column, (_, _, sources, values) in zip(columns, self._terms):
            column[sources] = values
        offsets = [o for o, *_ in self._terms]
        return scipy.sparse.dia_matrix((columns, offsets), shape=self.shape).tocsc()


class SymmetricOperator(FormAssembly):
    """The operator of a form: the form itself, with its generator built on first use.

    ``generator()`` returns B = S / h^d (a ``FormMatrix``, which stores its
    lower bands only and so is symmetric by construction), assembled on its
    first call and cached with the infinity norm that
    ``generator_norm_bound()`` returns; B is the one stored matrix.
    ``matrix``, the form matrix S, is assembled anew on every read and not
    stored: every solve, propagator, norm bound and residual reads B.
    ``dim``, the grid and the coefficient metadata are the form's own and
    need no matrix, so the ``exact-separable`` propagator, which reads none,
    never assembles one.  ``contracts_in(p)`` and
    ``positivity_preserving`` state the paper's two structural guarantees;
    every probe and verdict that gates on one reads it from here.
    ``potential.min_eigenvalue``, the smallest eigenvalue of the sampled V
    over all nodes, bounds the spectrum of B from below because the
    diffusion part is PSD.  The dense eigendecomposition of B (dimensions
    <= DENSE_LIMIT) and the closed form ``separable`` are cached lazily for
    repeated solves and propagation.
    """

    # caches, filled on first use
    _generator = None
    _norm_bound = None
    _dense_eig = None

    @property
    def dim(self) -> int:
        return self.grid.state_size

    def contracts_in(self, p: float) -> bool:
        """Whether e^{-tB} contracts L^p: V must be PSD, and for p != 2 also Q diagonal.

        For p in {1, inf} that makes the semigroup sub-Markovian; p = 4 then
        follows by interpolation between 2 and inf.
        """
        return self.potential.psd and (p == 2.0 or self.diffusion.diagonal)

    @property
    def positivity_preserving(self) -> bool:
        """Whether e^{-tB} keeps nonnegative states nonnegative: Q diagonal, every v_ij <= 0 (i != j)."""
        return self.diffusion.diagonal and self.potential.offdiag_max <= 0.0

    @property
    def matrix(self) -> FormMatrix:
        """The form matrix S, assembled on every read; it is not stored."""
        return _assemble_matrix(self)

    def generator(self) -> FormMatrix:
        """B = S / h^d: S assembled once and scaled in place, then cached with its norm bound.

        Raises ``ValueError`` where B overflows, so that its norm bound is not
        finite, and where the largest entry of S or of B is below the normal
        floats, as ``GridSpec`` refuses such an h: a subnormal entry beside a
        normal one is rounded to within the unit roundoff of the largest, but
        with none normal it is no longer small against B's norm.
        """
        if self._generator is None:
            with np.errstate(over="ignore", invalid="ignore"):
                b = _assemble_matrix(self)
                # B's entries are S's times 1 / h^d, so S's largest must reach tiny max(1, h^d)
                # (by max and min: the magnitudes of every band would be a copy of B)
                largest = max(b.bands.max(), -b.bands.min())
                subnormal = largest < np.finfo(float).tiny * max(1.0, self.grid.cell_volume)
                # SciPy divides a sparse matrix by a scalar as a product with its reciprocal
                b.bands *= 1.0 / self.grid.cell_volume
                bound = float(np.max(b.abs_row_sums()))
            if not np.isfinite(bound):
                raise ValueError("B overflows: coefficients.q or coefficients.v is too large for grid.L")
            if subnormal:
                raise ValueError("S or B underflows: coefficients.q or coefficients.v is too small for grid.L")
            self._generator, self._norm_bound = b, bound
        return self._generator

    def generator_norm_bound(self) -> float:
        """Infinity norm of the generator, an upper bound for its 2-norm, measured as B was built."""
        self.generator()
        return self._norm_bound

    def dense_eig(self):
        """Cached full eigendecomposition (w, U) of the generator, by ``_dense_eigh``."""
        if self._dense_eig is None:
            self._dense_eig = _dense_eigh(self)
        return self._dense_eig

    @functools.cached_property
    def separable(self):
        """Cached closed form (mu, W) of ``_separable``, None when it does not apply."""
        return _separable(self)


def _dense_eigh(op: SymmetricOperator, k: int | None = None):
    """Eigenpairs (w, U) of B by a direct solve: all of them, or the k lowest.

    LAPACK gets the transposed view of ``toarray()``, overwritable: B is
    exactly symmetric, so the view is the same matrix, already in the
    column-major order LAPACK reads, and no second copy of it is made.
    ``generator()`` refuses a B that is not finite, so SciPy need not scan
    it.  A tridiagonal B with norm bound past 2^500, or below 2^-500, goes to
    dense ``eigh``, which scales B: the tridiagonal bisection squares the
    off-diagonal, which overflows or underflows there.
    """
    if op.dim > DENSE_LIMIT:
        raise ValueError(
            f"dense path limited to dimension {DENSE_LIMIT}, got {op.dim}: solver.method or propagator.method "
            "cannot be dense for this grid.N, grid.d and grid.m"
        )
    import scipy.linalg

    # None selects every eigenpair, the default of both solvers
    select, index = ("a", None) if k is None else ("i", (0, k - 1))
    b = op.generator()
    bands = _tridiagonal(b) if 2.0**-500 <= op.generator_norm_bound() < 2.0**500 else None
    if bands is None:
        return scipy.linalg.eigh(b.toarray().T, overwrite_a=True, subset_by_index=index, check_finite=False)
    # with k, bisection plus inverse iteration (LAPACK stebz/stein)
    return scipy.linalg.eigh_tridiagonal(*bands, select=select, select_range=index, check_finite=False)


def _tridiagonal(b):
    """(diagonal, off-diagonal) of B if its nonzeros lie on the central three diagonals.

    Returns None otherwise; a band farther out that holds only zeros does not
    count.  A 1-d grid with m = 1, or with a diagonal potential, qualifies:
    the component blocks of the component-major ordering meet at an exact
    zero of the off-diagonal, where LAPACK's tridiagonal solvers split the
    matrix, so equal eigenvalues of different components come back
    orthogonal.
    """
    if any(np.any(band) for o, band in zip(b.offsets, b.bands) if o < -1):
        return None
    return b.diagonal(), b.diagonal(1)


def assemble_operator(assembly: FormAssembly) -> SymmetricOperator:
    """The operator whose form matrix S satisfies <S f, g> = a(f, g).

    Refuses potentials whose raw samples were not symmetric, here rather
    than on first use; the matrix itself is built by ``_assemble_matrix``
    when ``generator()`` (or ``matrix``) is first read.
    """
    if not assembly.potential.symmetric_input:
        raise ValueError("potential samples (coefficients.v) are not symmetric: operator assembly needs a symmetric V")
    return SymmetricOperator(assembly.diffusion, assembly.potential, assembly.grid)


def _assemble_matrix(assembly: FormAssembly) -> FormMatrix:
    """The form matrix S with <S f, g> = a(f, g), each stencil term added straight into its lower band.

    Per cell c the form is h^(d-2) sum_{i,j} q_ij(c) (f(c + e_i) - f(c))
    (f(c + e_j) - f(c)): one term, of sign +-1, per row corner a in (e_i, 0)
    and column corner b in (e_j, 0), on the band of offset stride(b) -
    stride(a), stride(e_k) = N^(d-1-k).  Terms above the diagonal are dropped
    (their mirror twins carry the same values), as are the cross terms of a Q
    whose q_ij is zero in every cell.  A term covers the box of cells whose
    two corners are interior nodes and is added into component block 0 of its
    band as that box moved by a - 1 on the node lattice.  Block 0 is copied
    into the other components' blocks, then h^d v_ij (j <= i) is added into
    block i of the band of offset (j - i) n.  So every position adds its
    terms in one fixed order, SciPy's ``coo_matrix(entries).tocsr()`` order
    where its sort of a row is stable (it sorts a row of more than 16
    entries, in 3-d with a full Q, unstably, and the last bits may differ).
    """
    grid = assembly.grid
    N, d, m, n = grid.N, grid.d, grid.m, grid.n_nodes
    q = assembly.diffusion.samples
    e = np.eye(d + 1, d, dtype=int)  # e[k] is the unit vector of axis k, e[d] the zero corner
    stride = N ** np.arange(d - 1, -1, -1)
    terms = []
    for i in range(d):
        for j in range(d):
            if i != j and not np.any(q[:, i, j]):
                continue  # its terms are all +-0, which add nothing to any sum
            for a, b in itertools.product((i, d), (j, d)):
                offset = int(stride @ (e[b] - e[a]))
                if offset <= 0:
                    terms.append((offset, e[a], e[b], 1.0 if (a == d) == (b == d) else -1.0, q[:, i, j]))
    offsets = sorted({term[0] for term in terms} | {-k * n for k in range(m)})
    bands = np.zeros((len(offsets), m * n))
    for offset, a, b, sign, qij in terms:
        cells = tuple(slice(1 - min(x, y), N + 1 - max(x, y)) for x, y in zip(a, b))
        rows = tuple(slice(c.start + x - 1, c.stop + x - 1) for c, x in zip(cells, a))
        block = bands[offsets.index(offset), :n].reshape(grid.shape)[rows]
        block += sign * (grid.h ** (d - 2) * qij.reshape((N + 1,) * d)[cells])
    for band in bands:  # band by band: numpy would copy a source that overlaps its target's bounds
        band.reshape(m, n)[1:] = band[:n]
    for i in range(m):
        for j in range(i + 1):
            band = bands[offsets.index((j - i) * n)]
            band[i * n : (i + 1) * n] += grid.cell_volume * assembly.potential.samples[:, i, j]
    return FormMatrix(offsets, bands)


@dataclass
class SpectrumReport:
    """Lowest eigenvalues of the generator with a-posteriori residuals.

    ``method`` is "dense", "separable" (the closed form) or "lanczos";
    ``shift`` is the Lanczos shift sigma and ``iterations`` the Lanczos basis
    size (``None`` and 0 on the exact paths).  ``_vectors`` holds the
    eigenvectors: the (n, k) array of the dense and Lanczos paths, or the
    closed form's function that synthesizes the j-th one, so that no (n, k)
    block exists until ``eigenvectors`` is first read.
    """

    eigenvalues: np.ndarray
    residuals: np.ndarray
    method: str
    iterations: int
    tol: float
    matrix_norm: float
    shift: float | None = None
    _vectors: object = field(default=None, repr=False)

    def column(self, j: int) -> np.ndarray:
        """The j-th eigenvector: a column of the stored block, or synthesized anew."""
        return self._vectors(j) if callable(self._vectors) else self._vectors[:, j]

    @property
    def eigenvectors(self) -> np.ndarray:
        """The (n, k) eigenvectors; the closed form's are synthesized into a C-ordered block on first read and kept."""
        if callable(self._vectors):
            self._vectors = np.column_stack([self.column(j) for j in range(len(self.eigenvalues))])
        return self._vectors


def eigen_lowest(
    op: SymmetricOperator,
    k: int,
    tol: float = 1e-10,
    method: str = "auto",
    seed: int = 42,
) -> SpectrumReport:
    """The k smallest generator eigenvalues, sorted ascending with multiplicity.

    ``method`` is "dense" (direct solve, dimension <= DENSE_LIMIT),
    "lanczos", or "auto" which picks dense when the dimension permits.
    "lanczos" reads a constant-coefficient operator (``separable``) straight
    off its closed form; for every other operator it runs shift-invert
    Lanczos at shift sigma = min(-1, min V - 1), which lies at least 1 below
    the spectrum, with full reorthogonalization and a start vector drawn from
    ``seed``.  On every path ``_report`` measures the residuals
    ||B v - lambda v|| one column at a time against ``matrix_norm`` (the
    infinity norm of B, stored with B).  The exact paths (dense and closed
    form) only report them; Lanczos iterates until they are at most
    ``tol * matrix_norm`` and otherwise raises ConvergenceError with the
    partial report attached.
    """
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise ValueError(f"eigenpair count k must be an integer, got {k!r}")
    if k < 1 or k > op.dim:
        raise ValueError(f"need 1 <= k <= {op.dim}, got {k}")
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    if method == "auto":
        method = "dense" if op.dim <= DENSE_LIMIT else "lanczos"
    if method == "dense":
        return _report(op, *_dense_eigh(op, k), "dense", tol)
    if method == "lanczos":
        if op.separable is not None:
            return _eigen_separable(op, k, tol)
        return _eigen_lanczos(op, k, tol, seed)
    raise ValueError(f"unknown eigensolver method {method!r}")


def _eigen_separable(op: SymmetricOperator, k: int, tol: float) -> SpectrumReport:
    """The k lowest modes of the closed form ``separable``, checked against the assembled B.

    Ties keep the order of the flattened modes (a stable sort), so repeated
    eigenvalues come back in a reproducible order.  Each eigenvector is the
    synthesis of its one-hot mode, made when ``_report`` asks for it and
    dropped once its residual is summed, so neither the DST nor the report
    holds more than one state of them.
    """
    op.generator()  # assembled before the modes exist, so its peak does not hold them
    mu, w = op.separable
    order = np.argsort(mu, axis=None, kind="stable")[:k].copy()  # not a view holding all n
    _, synthesize = _separable_basis(mu, w)
    mode = np.zeros(mu.shape)

    def column(j):
        mode.flat[order[j]] = 1.0
        vec = synthesize(mode)
        mode.flat[order[j]] = 0.0
        return vec

    return _report(op, mu.ravel()[order], column, "separable", tol)


def _report(op, lams, vectors, method, tol, iterations=0, shift=None) -> SpectrumReport:
    """The certificate of eigenpairs from any path: their residuals against the assembled B.

    The one place a ``SpectrumReport`` is made, for the dense, closed-form
    and Lanczos eigenpairs alike; ``vectors`` is the (n, k) eigenvector
    array or the closed form's j -> v_j (``SpectrumReport._vectors``), and
    ``matrix_norm`` is the bound B stores.  The eigenvectors are taken one
    column at a time, and each residual B v_j - lambda_j v_j is formed in
    place, measured by ``_scaled_norm`` and dropped with its column, so no
    (n, k) block is formed.
    """
    b = op.generator()
    report = SpectrumReport(lams, None, method, iterations, tol, op.generator_norm_bound(), shift, vectors)

    def residual(j):  # its column and residual are dropped before the next column is made
        v = report.column(j)
        r = b @ v
        r -= v * lams[j]
        return np.ldexp(*_scaled_norm(r))

    report.residuals = np.array([residual(j) for j in range(len(lams))])
    return report


def _scaled_norm(x):
    """(s, e) with ||x|| = s 2^e, x scaled in place by the 2^-e that brings max|x| into [1/2, 1).

    So the squares ``np.linalg.norm`` sums neither overflow nor underflow,
    and the scaled ``x / s`` is x's unit vector.
    """
    e = int(np.frexp(max(x.max(), -x.min()))[1])
    return np.linalg.norm(np.ldexp(x, -e, out=x)), e


def _factor_spd(matrix):
    """Sparse LU of an SPD matrix, factored Cholesky-like.

    A symmetric minimum-degree ordering of A^T + A and diagonal pivots
    without row interchanges: stable for SPD input, and it fills far less
    than a pivoted LU.
    """
    import scipy.sparse.linalg as spla

    return spla.splu(
        matrix.tocsc(),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options=dict(SymmetricMode=True),
    )


def _lanczos(apply, q, kmax, rng=None):
    """Lanczos with full reorthogonalization on the Krylov space of ``apply`` from q.

    The orthonormal basis is stored as the rows of a (kmax, n) array, so every
    prefix is contiguous.  After each step the generator yields the views
    (basis[:j+1], alphas[:j+1], betas[:j+1]); betas[j] couples the basis to
    its next vector and is stored as 0 on breakdown (an invariant subspace):
    a beta at most 1e-14 times the largest |alpha| or beta so far, a test
    that scales with the operator.
    There, with ``rng``, the basis continues from a fresh random direction
    orthogonalized against it; without, the generator stops.  Norms go through
    ``_scaled_norm``, so no beta of a huge or tiny operator underflows to 0.
    """
    n = q.size
    basis = np.empty((kmax, n))
    alphas = np.empty(kmax)
    betas = np.zeros(kmax)
    q = np.array(q, dtype=float)
    q /= _scaled_norm(q)[0]
    scale = 0.0  # running max(|alpha_j|, beta_j), the size of the operator seen so far
    for j in range(kmax):
        basis[j] = q
        rows = basis[: j + 1]
        w = apply(q)
        alphas[j] = q @ w
        # full reorthogonalization (two passes), subsumes the three-term recurrence
        for _ in range(2):
            w -= rows.T @ (rows @ w)
        norm, e = _scaled_norm(w)
        beta = np.ldexp(norm, e)
        scale = max(scale, abs(alphas[j]), beta)
        breakdown = beta <= 1e-14 * scale
        if not breakdown:
            betas[j] = beta
            q = w / norm
        yield rows, alphas[: j + 1], betas[: j + 1]
        if breakdown:
            if rng is None:
                return
            q = rng.standard_normal(n)
            for _ in range(2):
                q -= rows.T @ (rows @ q)
            norm = _scaled_norm(q)[0]
            if norm == 0.0:
                return
            q /= norm


def _eigen_lanczos(op: SymmetricOperator, k: int, tol: float, seed: int) -> SpectrumReport:
    """Shift-invert Lanczos: largest eigenvalues of (B - sigma I)^-1 <-> smallest of B.

    The diffusion part of B is PSD, so B >= (min V) I and the shift
    sigma = min(-1, min V - 1) makes B - sigma I >= I, which ``_factor_spd``
    factors Cholesky-like.  ``_lanczos`` runs with full reorthogonalization
    (robustness over speed at these problem sizes) and continues a
    broken-down basis from a fresh random direction; the Ritz pairs are
    checked every third step until k of them meet the tolerance.
    """
    n = op.dim
    sigma = min(-1.0, op.potential.min_eigenvalue - 1.0)
    solve = _factor_spd(op.generator().shifted(1.0, -sigma)).solve
    rng = np.random.default_rng(seed)
    max_dim = min(n, max(8 * k, 160))
    report = None
    for basis, alphas, betas in _lanczos(solve, rng.standard_normal(n), max_dim, rng):
        size = len(alphas)
        if size >= k and (size % 3 == 1 or size == max_dim):
            report = _report(op, *_ritz_pairs(basis, alphas, betas, k, sigma), "lanczos", tol, size, sigma)
            if np.all(report.residuals <= tol * report.matrix_norm):
                return report
    raise ConvergenceError(
        f"Lanczos did not converge to {k} eigenpairs within {max_dim} iterations at solver.tol={tol:g}",
        partial=report,
    )


def _ritz_pairs(basis, alphas, betas, k, sigma):
    """The k Ritz pairs (lams, vecs) of B nearest sigma, ascending, each vector normalized."""
    import scipy.linalg

    theta, y = scipy.linalg.eigh_tridiagonal(alphas, betas[:-1])
    # largest theta of (B - sigma I)^-1 correspond to the smallest eigenvalues
    # of B, via lambda = 1/theta + sigma
    order = np.argsort(theta)[::-1][:k]
    theta = np.maximum(theta[order], 1e-300)
    lams = 1.0 / theta + sigma
    vecs = basis.T @ y[:, order]
    vecs /= np.linalg.norm(vecs, axis=0)
    asc = np.argsort(lams)
    return lams[asc], vecs[:, asc]


def _separable(op: SymmetricOperator):
    """Closed-form spectrum of B when Q is one constant diagonal matrix and V one constant matrix.

    Then B = sum_i q_i K_i + V is a Kronecker sum: K_i, the 1-d Dirichlet
    second difference along axis i, has eigenvalues (4/h^2) sin^2(j pi /
    (2(N+1))) and the DST-I as eigenvectors, and V = W diag(lam) W^T.
    Returns (mu, W), mu of shape (m, N, ..., N) holding the eigenvalue of the
    mode (component c, wave numbers j_1..j_d); None for any other operator.
    The test is exact: both fields must be ``constant``, every sample bitwise
    equal to the first one.
    """
    if not (op.diffusion.diagonal and op.diffusion.constant and op.potential.constant):
        return None
    grid = op.grid
    lam, w = np.linalg.eigh(op.potential.samples[0])
    j = np.arange(1, grid.N + 1)
    sines = (4.0 / grid.h**2) * np.sin(j * np.pi / (2.0 * (grid.N + 1))) ** 2
    mu = lam.reshape((grid.m,) + (1,) * grid.d)
    with np.errstate(over="ignore"):
        for i, qi in enumerate(np.diagonal(op.diffusion.samples[0])):
            mu = mu + qi * sines.reshape([-1 if a == i + 1 else 1 for a in range(grid.d + 1)])
    if not np.all(np.isfinite(mu)):
        raise ValueError("B's closed form overflows: coefficients.q or coefficients.v is too large for grid.L")
    return mu, w


def _odd_extension(shape):
    """The work array of ``_dst1`` on arrays of ``shape``: the odd extension of their last axis."""
    return np.zeros(shape[:-1] + (2 * shape[-1] + 2,))


def _dst1(y, ndim, z):
    """Orthonormal DST-I over the last ``ndim`` axes of y, all of one length; it is its own inverse.

    Along an axis of length N, ``numpy.fft.rfft`` of the odd extension
    (0, y, 0, -reversed y) is -2i sum_j y_j sin(pi j k / (N+1)).  Each pass
    moves the transformed axis in front of the others, restoring their order,
    and scales it straight into the odd extension of the next pass.  Every
    pass writes the same odd extension, ``z = _odd_extension(y.shape)``; its
    zeros at 0 and N + 1 are never written, so it serves any number of calls.
    """
    n = y.shape[-1]
    scale = -np.sqrt(0.5 / (n + 1))
    z[..., 1 : n + 1] = y
    for step in range(ndim):
        if step:
            np.multiply(y, scale, out=z[..., 1 : n + 1])
        np.negative(z[..., n:0:-1], out=z[..., n + 2 :])
        y = np.moveaxis(np.fft.rfft(z).imag[..., 1 : n + 1], -1, -ndim)
    return y * scale


def _separable_basis(mu, w):
    """The analysis and synthesis halves of the closed form's eigenbasis: W and the DST-I.

    ``analyse`` maps a flat state to its modal coefficients (shaped like
    mu); ``synthesize`` maps coefficients shaped like mu back to a flat
    state.  Both go through the one ``_dst1`` and the one odd extension,
    made here, and leave their arguments unchanged.
    """
    m, shape, ndim = mu.shape[0], mu.shape, mu.ndim - 1
    z = _odd_extension(shape)

    def analyse(x):
        return _dst1((w.T @ x.reshape(m, -1)).reshape(shape), ndim, z)

    def synthesize(y):
        return (w @ _dst1(y, ndim, z).reshape(m, -1)).ravel()

    return analyse, synthesize


def pointwise_extremal_eigs(potential: PotentialField):
    """Smallest and largest eigenvalue of V(x) at every node.

    Returns (mu, nu), each shape (n_nodes,), computed by exact symmetric
    eigendecomposition of the stored samples.
    """
    eigs = np.linalg.eigvalsh(potential.samples)
    return eigs[:, 0].copy(), eigs[:, -1].copy()


@dataclass
class SandwichReport:
    """Scalar comparison spectra bracketing the vector spectrum index-wise."""

    eigenvalues: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    tol_rel: float
    passed: bool
    max_lower_violation: float
    max_upper_violation: float

    def margins(self):
        return self.eigenvalues - self.lower, self.upper - self.eigenvalues


def sandwich_check(
    op: SymmetricOperator, k: int, tol_rel: float = 1e-8, seed: int = 42
) -> SandwichReport:
    """Bracket the low spectrum of ``op`` by its extremal-eigenvalue scalar potentials.

    Builds the two vector-diagonal operators with the diffusion of ``op`` and
    potentials mu(x) I and nu(x) I (mu/nu the pointwise smallest/largest
    eigenvalue of V) and checks, index by index with multiplicity,

        lambda_n(mu) - tol <= lambda_n(V) <= lambda_n(nu) + tol,

    with tol = tol_rel * (1 + |lambda_n(V)|).  The quadratic forms are
    ordered (mu <= V <= nu pointwise), so the bracketing is a min-max
    consequence on the shared space.  Requires a PSD potential.
    """
    if not op.potential.psd:
        raise ValueError("sandwich comparison needs a PSD potential")
    spectra = [eigen_lowest(op, k, seed=seed).eigenvalues]
    for diag in pointwise_extremal_eigs(op.potential):
        scalar = PotentialField(op.grid, diag[:, None, None] * np.eye(op.grid.m))
        opr = assemble_operator(assemble_form(op.diffusion, scalar, op.grid))
        spectra.append(eigen_lowest(opr, k, seed=seed).eigenvalues)
    lam, lam_lo, lam_hi = spectra
    tol = tol_rel * (1.0 + np.abs(lam))
    lo_viol = float(np.max(lam_lo - lam))
    hi_viol = float(np.max(lam - lam_hi))
    passed = bool(np.all(lam_lo - tol <= lam) and np.all(lam <= lam_hi + tol))
    return SandwichReport(
        eigenvalues=lam,
        lower=lam_lo,
        upper=lam_hi,
        tol_rel=tol_rel,
        passed=passed,
        max_lower_violation=lo_viol,
        max_upper_violation=hi_viol,
    )
