"""Sparse assembly of the operator and its low spectrum.

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

Assembly accumulates only the lower triangle and mirrors it afterwards
(S = L + L^T - diag L), which keeps S exactly symmetric in its stored
entries — no floating-point symmetrization is ever applied.

When Q is one constant diagonal matrix and V one constant matrix (every
sample equal to the first), B is a Kronecker sum that the DST-I and the
eigenvectors of V diagonalize, and ``_separable`` gives its whole spectrum in
closed form.  The eigensolver reads the lowest k modes straight off it
(checking their residuals against the assembled B), and the semigroup's
``exact-separable`` propagator applies e^{-tB} through ``_separable_map``;
both go through the one DST-I of ``_separable_basis``, on numpy's FFT alone.
Every other operator that does not go dense runs shift-invert Lanczos on a
sparse LU of B - sigma I, certified by residuals only.  SciPy is imported
by the functions that call it, so closed-form propagation never loads it.
"""
from __future__ import annotations

import csv
import functools
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from .errors import ConvergenceError
from .form import FormAssembly, assemble_form
from .grid import DiffusionField, GridSpec, PotentialField, _require_same_grid

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


def _stiffness_lower_entries(grid: GridSpec, qcells: np.ndarray):
    """COO entries (lower triangle incl. diagonal) of the scalar stiffness.

    The quadratic form per cell is h^(d-2) sum_{i,j} Q_ij (f(b+e_i) - f(b))
    (f(b+e_j) - f(b)); expanding gives four index pairs per (i, j).  Entries
    whose row index is below the column index are dropped — their mirror
    twins carry bit-identical values because Q is stored symmetric — and
    endpoints on the boundary are dropped against the implicit zeros.
    """
    N, d, h = grid.N, grid.d, grid.h
    base = np.indices((N + 1,) * d).reshape(d, -1)  # padded coords of cell corners

    def node_index(coords):
        valid = np.all((coords >= 1) & (coords <= N), axis=0)
        clipped = np.clip(coords, 1, N) - 1
        return np.ravel_multi_index(tuple(clipped), grid.shape), valid

    rows, cols, vals = [], [], []
    shifts = np.eye(d, dtype=int)[:, :, None]
    for i in range(d):
        for j in range(d):
            w = h ** (d - 2) * qcells[:, i, j]
            ends_i = ((base + shifts[i], 1.0), (base, -1.0))
            ends_j = ((base + shifts[j], 1.0), (base, -1.0))
            for pa, sa in ends_i:
                for pb, sb in ends_j:
                    r, ok_r = node_index(pa)
                    c, ok_c = node_index(pb)
                    keep = ok_r & ok_c & (r >= c)
                    rows.append(r[keep])
                    cols.append(c[keep])
                    vals.append((sa * sb) * w[keep])
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


def _from_assembly(path: str):
    """Read-only attribute of the operator's ``FormAssembly``, by dotted path."""
    getter = attrgetter(path)
    return property(lambda self: getter(self.assembly))


class SymmetricOperator:
    """The operator of a ``FormAssembly``, with its sparse form matrix built on first use.

    ``matrix`` is the form matrix S (CSR, exactly symmetric), assembled on
    first access and cached; ``generator()`` returns B = S / h^d.  ``dim``,
    the grid and the coefficient metadata are read from the (immutable)
    ``assembly`` without building S, so the ``exact-separable`` propagator,
    which reads none of S, never assembles it.  ``potential_min_eigenvalue``
    is the smallest eigenvalue of the sampled V over all nodes, a lower
    bound for the spectrum of B because the diffusion part is PSD.  The
    dense eigendecomposition of B (dimensions <= DENSE_LIMIT) and the closed
    form ``separable`` are cached lazily for repeated solves and propagation.
    """

    def __init__(self, assembly: FormAssembly):
        self.assembly = assembly
        self._generator = None
        self._dense_eig = None

    grid = _from_assembly("grid")
    ellipticity_lower = _from_assembly("ellipticity_lower")
    ellipticity_upper = _from_assembly("ellipticity_upper")
    q_diagonal = _from_assembly("q_diagonal")
    potential_psd = _from_assembly("potential_psd")
    potential_offdiag_max = _from_assembly("potential.offdiag_max")
    potential_min_eigenvalue = _from_assembly("potential.min_eigenvalue")

    @property
    def dim(self) -> int:
        return self.grid.state_size

    @functools.cached_property
    def matrix(self):
        """The form matrix S, assembled on first access."""
        return _assemble_matrix(self.assembly)

    def generator(self):
        if self._generator is None:
            self._generator = (self.matrix / self.grid.cell_volume).tocsr()
        return self._generator

    def generator_norm_bound(self) -> float:
        """Infinity norm of the generator, an upper bound for its 2-norm."""
        b = self.generator()
        return float(np.max(np.abs(b).sum(axis=1)))

    def dense_eig(self):
        """Cached full eigendecomposition (w, U) of the generator."""
        if self.dim > DENSE_LIMIT:
            raise ValueError(f"dense path limited to dimension {DENSE_LIMIT}, got {self.dim}")
        if self._dense_eig is None:
            import scipy.linalg

            b = self.generator()
            bands = _tridiagonal(b)
            if bands is None:
                self._dense_eig = scipy.linalg.eigh(b.toarray())
            else:
                self._dense_eig = scipy.linalg.eigh_tridiagonal(*bands)
        return self._dense_eig

    @functools.cached_property
    def separable(self):
        """Cached closed form (mu, W) of ``_separable``, None when it does not apply."""
        return _separable(self)


def _tridiagonal(b):
    """(diagonal, off-diagonal) of B if its nonzeros lie on the central three diagonals.

    Returns None otherwise; explicit stored zeros do not count.  A 1-d grid
    with m = 1, or with a diagonal potential, qualifies: the component blocks
    of the component-major ordering meet at an exact zero of the
    off-diagonal, where LAPACK's tridiagonal solvers split the matrix, so
    equal eigenvalues of different components come back orthogonal.
    """
    coo = b.tocoo()
    if np.any(np.abs(coo.row - coo.col)[coo.data != 0] > 1):
        return None
    return b.diagonal(), b.diagonal(1)


def assemble_operator(assembly: FormAssembly) -> SymmetricOperator:
    """The operator whose form matrix S satisfies <S f, g> = a(f, g).

    Refuses potentials whose raw samples were not symmetric, here rather
    than on first use; S itself is built by ``_assemble_matrix`` when
    ``matrix`` is first read.
    """
    if not assembly.potential.symmetric_input:
        raise ValueError(
            "operator assembly needs a symmetric potential (the sampled input was not)"
        )
    return SymmetricOperator(assembly)


def _assemble_matrix(assembly: FormAssembly):
    """The sparse form matrix S (CSR) with <S f, g> = a(f, g).

    The diffusion block is the same scalar stiffness for every component;
    the potential contributes h^d V(x_a) coupling the components at each
    node.
    """
    import scipy.sparse as sparse

    grid = assembly.grid
    n, m = grid.n_nodes, grid.m
    kr, kc, kv = _stiffness_lower_entries(grid, assembly.diffusion.samples)
    rows = [kr + w * n for w in range(m)]
    cols = [kc + w * n for w in range(m)]
    vals = [kv] * m
    nodes = np.arange(n)
    vol = grid.cell_volume
    for i in range(m):
        for j in range(i + 1):
            rows.append(i * n + nodes)
            cols.append(j * n + nodes)
            vals.append(vol * assembly.potential.samples[:, i, j])
    lower = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(m * n, m * n),
    ).tocsr()
    matrix = (lower + lower.T) - sparse.diags(lower.diagonal())
    return matrix.tocsr()


@dataclass
class SpectrumReport:
    """Lowest eigenvalues of the generator with a-posteriori residuals.

    ``method`` is "dense", "separable" (the closed form) or "lanczos";
    ``shift`` is the Lanczos shift sigma and ``iterations`` the Lanczos basis
    size (``None`` and 0 on the exact paths).
    """

    eigenvalues: np.ndarray
    residuals: np.ndarray
    method: str
    iterations: int
    tol: float
    matrix_norm: float
    shift: float | None = None
    eigenvectors: np.ndarray | None = field(default=None, repr=False)

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "eigenvalue", "residual"])
            for k, (lam, res) in enumerate(zip(self.eigenvalues, self.residuals)):
                writer.writerow([k, repr(float(lam)), repr(float(res))])


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
    ``seed``.  Residuals ||B v - lambda v|| are measured against
    ``matrix_norm`` (the infinity norm of B).  The exact paths (dense and
    closed form) only report them; Lanczos iterates until they are at most
    ``tol * matrix_norm`` and otherwise raises ConvergenceError with the
    partial report attached.
    """
    if k < 1 or k > op.dim:
        raise ValueError(f"need 1 <= k <= {op.dim}, got {k}")
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    if method == "auto":
        method = "dense" if op.dim <= DENSE_LIMIT else "lanczos"
    if method == "dense":
        return _eigen_dense(op, k, tol)
    if method == "lanczos":
        if op.separable is not None:
            return _eigen_separable(op, k, tol)
        return _eigen_lanczos(op, k, tol, seed)
    raise ValueError(f"unknown eigensolver method {method!r}")


def _eigen_dense(op: SymmetricOperator, k: int, tol: float) -> SpectrumReport:
    if op.dim > DENSE_LIMIT:
        raise ValueError(f"dense path limited to dimension {DENSE_LIMIT}, got {op.dim}")
    import scipy.linalg

    b = op.generator()
    bands = _tridiagonal(b)
    if bands is None:
        w, v = scipy.linalg.eigh(b.toarray(), subset_by_index=(0, k - 1))
    else:
        # bisection plus inverse iteration (LAPACK stebz/stein)
        w, v = scipy.linalg.eigh_tridiagonal(*bands, select="i", select_range=(0, k - 1))
    return _exact_report(op, w, v, "dense", tol)


def _eigen_separable(op: SymmetricOperator, k: int, tol: float) -> SpectrumReport:
    """The k lowest modes of the closed form ``separable``, checked against the assembled B.

    Ties keep the order of the flattened modes (a stable sort), so repeated
    eigenvalues come back in a reproducible order.
    """
    op.generator()  # assemble B before the modes exist, so its peak does not hold them
    mu, w = op.separable
    order = np.argsort(mu, axis=None, kind="stable")[:k]
    modes = np.zeros((k, mu.size))
    modes[np.arange(k), order] = 1.0
    _, synthesize = _separable_basis(mu, w)
    vecs = synthesize(modes.reshape((k,) + mu.shape)).T
    return _exact_report(op, mu.ravel()[order], vecs, "separable", tol)


def _exact_report(op, lams, vecs, method, tol) -> SpectrumReport:
    """The report of directly computed eigenpairs, with their residuals against the assembled B."""
    res = np.linalg.norm(op.generator() @ vecs - vecs * lams, axis=0)
    return SpectrumReport(lams, res, method, 0, tol, op.generator_norm_bound(), eigenvectors=vecs)


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
    its next vector and is stored as 0 on breakdown (an invariant subspace).
    There, with ``rng``, the basis continues from a fresh random direction
    orthogonalized against it; without, the generator stops.
    """
    n = q.size
    basis = np.empty((kmax, n))
    alphas = np.empty(kmax)
    betas = np.zeros(kmax)
    q = q / np.linalg.norm(q)
    for j in range(kmax):
        basis[j] = q
        rows = basis[: j + 1]
        w = apply(q)
        alphas[j] = q @ w
        # full reorthogonalization (two passes), subsumes the three-term recurrence
        for _ in range(2):
            w -= rows.T @ (rows @ w)
        beta = np.linalg.norm(w)
        breakdown = beta <= 1e-14 * max(1.0, abs(alphas[0]))
        if not breakdown:
            betas[j] = beta
            q = w / beta
        yield rows, alphas[: j + 1], betas[: j + 1]
        if breakdown:
            if rng is None:
                return
            q = rng.standard_normal(n)
            for _ in range(2):
                q -= rows.T @ (rows @ q)
            norm = np.linalg.norm(q)
            if norm == 0.0:
                return
            q = q / norm


def _eigen_lanczos(op: SymmetricOperator, k: int, tol: float, seed: int) -> SpectrumReport:
    """Shift-invert Lanczos: largest eigenvalues of (B - sigma I)^-1 <-> smallest of B.

    The diffusion part of B is PSD, so B >= (min V) I and the shift
    sigma = min(-1, min V - 1) makes B - sigma I >= I, which ``_factor_spd``
    factors Cholesky-like.  ``_lanczos`` runs with full reorthogonalization
    (robustness over speed at these problem sizes) and continues a
    broken-down basis from a fresh random direction; the Ritz pairs are
    checked every third step until k of them meet the tolerance.
    """
    import scipy.sparse as sparse

    b = op.generator()
    n = op.dim
    bnorm = op.generator_norm_bound()
    sigma = min(-1.0, op.potential_min_eigenvalue - 1.0)
    solve = _factor_spd(b - sigma * sparse.identity(n, format="csr")).solve
    rng = np.random.default_rng(seed)
    max_dim = min(n, max(8 * k, 160))
    report = None
    for basis, alphas, betas in _lanczos(solve, rng.standard_normal(n), max_dim, rng):
        size = len(alphas)
        if size >= k and (size % 3 == 1 or size == max_dim):
            report = _ritz_report(b, basis, alphas, betas, k, tol, bnorm, sigma)
            if np.all(report.residuals <= tol * bnorm):
                return report
    raise ConvergenceError(
        f"Lanczos did not converge to {k} eigenpairs within {max_dim} iterations",
        partial=report,
    )


def _ritz_report(b, basis, alphas, betas, k, tol, bnorm, sigma) -> SpectrumReport:
    import scipy.linalg

    theta, y = scipy.linalg.eigh_tridiagonal(alphas, betas[:-1])
    # largest theta of (B - sigma I)^-1 correspond to the smallest eigenvalues
    # of B, via lambda = 1/theta + sigma
    order = np.argsort(theta)[::-1][:k]
    theta = np.maximum(theta[order], 1e-300)
    lams = 1.0 / theta + sigma
    vecs = basis.T @ y[:, order]
    vecs /= np.linalg.norm(vecs, axis=0)
    res = np.linalg.norm(b @ vecs - vecs * lams, axis=0)
    asc = np.argsort(lams)
    return SpectrumReport(
        eigenvalues=lams[asc],
        residuals=res[asc],
        method="lanczos",
        iterations=len(alphas),
        tol=tol,
        matrix_norm=bnorm,
        shift=sigma,
        eigenvectors=vecs[:, asc],
    )


def _separable(op: SymmetricOperator):
    """Closed-form spectrum of B when Q is one constant diagonal matrix and V one constant matrix.

    Then B = sum_i q_i K_i + V is a Kronecker sum: K_i, the 1-d Dirichlet
    second difference along axis i, has eigenvalues (4/h^2) sin^2(j pi /
    (2(N+1))) and the DST-I as eigenvectors, and V = W diag(lam) W^T.
    Returns (mu, W), mu of shape (m, N, ..., N) holding the eigenvalue of the
    mode (component c, wave numbers j_1..j_d); None for any other operator.
    The test is exact: every sample must equal the first one.
    """
    qs, vs = op.assembly.diffusion.samples, op.assembly.potential.samples
    if not (op.q_diagonal and np.all(qs == qs[0]) and np.all(vs == vs[0])):
        return None
    grid = op.grid
    lam, w = np.linalg.eigh(vs[0])
    j = np.arange(1, grid.N + 1)
    sines = (4.0 / grid.h**2) * np.sin(j * np.pi / (2.0 * (grid.N + 1))) ** 2
    mu = lam.reshape((grid.m,) + (1,) * grid.d)
    for i, qi in enumerate(np.diagonal(qs[0])):
        mu = mu + qi * sines.reshape([-1 if a == i + 1 else 1 for a in range(grid.d + 1)])
    return mu, w


def _dst1(y, ndim):
    """Orthonormal DST-I over the last ``ndim`` axes of y; it is its own inverse.

    Along an axis of length N, ``numpy.fft.rfft`` of the odd extension
    (0, y, 0, -reversed y) is -2i sum_j y_j sin(pi j k / (N+1)).  Each pass
    moves the transformed axis in front of the others, restoring their order.
    """
    for _ in range(ndim):
        n = y.shape[-1]
        z = np.zeros(y.shape[:-1] + (2 * n + 2,))
        z[..., 1 : n + 1] = y
        z[..., n + 2 :] = -y[..., ::-1]
        y = np.moveaxis(np.fft.rfft(z).imag[..., 1 : n + 1], -1, -ndim) * -np.sqrt(0.5 / (n + 1))
    return y


def _separable_basis(mu, w):
    """The analysis and synthesis halves of the closed form's eigenbasis: W and the DST-I.

    ``analyse`` maps a flat state to its modal coefficients (shaped like
    mu); ``synthesize`` maps coefficients of shape (..., *mu.shape), any
    leading batch axes included, back to flat states of shape (..., n).
    Both go through the one ``_dst1`` and leave their arguments unchanged.
    """
    m, shape, ndim = mu.shape[0], mu.shape, mu.ndim - 1

    def analyse(x):
        return _dst1((w.T @ x.reshape(m, -1)).reshape(shape), ndim)

    def synthesize(y):
        batch = y.shape[: y.ndim - mu.ndim]
        return (w @ _dst1(y, ndim).reshape(batch + (m, -1))).reshape(batch + (-1,))

    return analyse, synthesize


def _separable_map(mu, w, scale):
    """x -> g(B) x in O(n log n) from the closed form (mu, W): analysis, scale, synthesis.

    ``scale`` maps the modal coefficients (shaped like mu) to their images
    under g, e.g. a multiplication by e^{-t mu}.
    """
    analyse, synthesize = _separable_basis(mu, w)
    return lambda x: synthesize(scale(analyse(x)))


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
    diffusion: DiffusionField,
    potential: PotentialField,
    grid: GridSpec,
    k: int,
    tol_rel: float = 1e-8,
    method: str = "auto",
    seed: int = 42,
) -> SandwichReport:
    """Bracket the low spectrum by the extremal-eigenvalue scalar potentials.

    Builds the vector operator for V plus the two vector-diagonal operators
    with potentials mu(x) I and nu(x) I (mu/nu the pointwise smallest/largest
    eigenvalue of V) and checks, index by index with multiplicity,

        lambda_n(mu) - tol <= lambda_n(V) <= lambda_n(nu) + tol,

    with tol = tol_rel * (1 + |lambda_n(V)|).  The quadratic forms are
    ordered (mu <= V <= nu pointwise), so the bracketing is a min-max
    consequence on the shared space.  Requires a PSD potential.
    """
    _require_same_grid(grid, diffusion.grid, potential.grid)
    if not potential.psd:
        raise ValueError("sandwich comparison needs a PSD potential")
    mu, nu = pointwise_extremal_eigs(potential)
    eye = np.eye(grid.m)
    spectra = []
    for diag in (None, mu, nu):
        if diag is None:
            vfield = potential
        else:
            vfield = PotentialField(grid, diag[:, None, None] * eye[None, :, :])
        opr = assemble_operator(assemble_form(diffusion, vfield, grid))
        spectra.append(eigen_lowest(opr, k, method=method, seed=seed).eigenvalues)
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
