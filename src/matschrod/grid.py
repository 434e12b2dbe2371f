"""Truncated-box lattices, coefficient sampling, vector states, mixed norms.

The whole space is replaced by the box ``[-L, L]^d`` with zero values outside
(Dirichlet truncation).  A grid carries ``N`` interior nodes per axis with
spacing ``h = 2 L / (N + 1)``; interior node coordinates are
``x = -L + (i + 1) h`` for ``i = 0 .. N-1``, so the boundary planes ``x = -L``
and ``x = +L`` are lattice points holding the implicit zeros.

Grid functions are vector valued with ``m`` components per node.  Forward
differences are evaluated at *cell base corners*: the lattice points
``-L + p h`` with ``p = 0 .. N`` per axis, i.e. every lattice point except the
top face.  Diffusion coefficients are therefore sampled on the cell lattice
(``(N+1)^d`` points) while potentials are sampled at the interior nodes
(``N^d`` points).

The size-p norm of a vector grid function takes the Euclidean norm over
components first and the lattice p-norm (with cell weight ``h^d``) second:

    ||f||_p = ( sum_nodes h^d |f(x)|_2^p )^(1/p),      ||f||_oo = max |f(x)|_2.

Everything in this module is deterministic and immutable after construction;
instances can be shared freely between threads.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import EllipticityError, GridMismatchError

__all__ = [
    "GridSpec",
    "DiffusionField",
    "PotentialField",
    "VectorState",
    "build_grid",
    "sample_fields",
    "mixed_norm",
    "smooth_bump_profile",
    "smooth_bump_slope",
    "axis_differences",
]

#: symmetry tolerance for sampled coefficient matrices (absolute, scaled by
#: the largest entry when that exceeds unit size)
SYMMETRY_ATOL = 1e-12


@dataclass(frozen=True)
class GridSpec:
    """Geometry of a truncated box: dimension, half-width, resolution, components.

    Attributes:
        d: space dimension (1, 2 or 3).
        L: half-width of the box [-L, L]^d.
        N: number of interior nodes per axis (>= 2).
        m: number of state components per node (>= 1).
    """

    d: int
    L: float
    N: int
    m: int

    def __post_init__(self):
        for name in ("d", "N", "m"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"grid.{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))  # a NumPy integer becomes an int
        if self.d not in (1, 2, 3):
            raise ValueError(f"grid.d must be 1, 2 or 3, got {self.d}")
        if self.N < 2:
            raise ValueError(f"grid.N must be at least 2 interior nodes per axis, got {self.N}")
        if self.m < 1:
            raise ValueError(f"grid.m must be at least 1 component, got {self.m}")
        # the operator scales by h^2 and h^d and divides by both; the bound 4d/h^2
        # of the Laplacian, its smallest 1-d eigenvalue and the box measure must be normal too
        with np.errstate(all="ignore"):
            h = np.float64(self.h)
            scales = [h**2, h**self.d]
            scales += [1.0 / s for s in scales] + [self.n_nodes * h**self.d]
            scales += [4.0 * self.d / h**2, 4.0 / h**2 * np.sin(np.pi / (2 * (self.N + 1))) ** 2]
        if not (self.L > 0 and all(np.finfo(float).tiny <= s < np.inf for s in scales)):
            raise ValueError(
                f"grid.L={self.L!r} must be positive, with h^2, h^d, their inverses, the box measure "
                f"N^d h^d, 4d/h^2 and (4/h^2) sin^2(pi/(2(N+1))) normal finite floats, where h = 2L/(N+1)"
            )

    @property
    def h(self) -> float:
        """Lattice spacing 2L/(N+1)."""
        return 2.0 * self.L / (self.N + 1)

    @property
    def shape(self) -> tuple:
        return (self.N,) * self.d

    @property
    def n_nodes(self) -> int:
        return self.N**self.d

    @property
    def n_cells(self) -> int:
        return (self.N + 1) ** self.d

    @property
    def state_size(self) -> int:
        return self.m * self.n_nodes

    @property
    def cell_volume(self) -> float:
        return self.h**self.d

    def axis_nodes(self) -> np.ndarray:
        """Interior node positions along one axis."""
        return -self.L + np.arange(1, self.N + 1) * self.h

    def node_coords(self) -> np.ndarray:
        """Coordinates of interior nodes, shape (n_nodes, d), C-ordered."""
        return self._lattice(self.axis_nodes())

    def cell_coords(self) -> np.ndarray:
        """Coordinates of cell base corners, shape (n_cells, d), C-ordered."""
        xs = -self.L + np.arange(self.N + 1) * self.h
        return self._lattice(xs)

    def _lattice(self, xs: np.ndarray) -> np.ndarray:
        grids = np.meshgrid(*([xs] * self.d), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)

    def nearest_node(self, point) -> int:
        """Flat index of the interior node closest to ``point``."""
        point = np.atleast_1d(np.asarray(point, dtype=float))
        if point.shape != (self.d,):
            raise ValueError(f"expected a point in {self.d}-d, got shape {point.shape}")
        per_axis = np.clip(np.rint((point + self.L) / self.h) - 1, 0, self.N - 1).astype(int)
        return int(np.ravel_multi_index(tuple(per_axis), self.shape))


def build_grid(d: int, L: float, N: int, m: int) -> GridSpec:
    """Validate parameters and construct a GridSpec; d, N and m must be integers."""
    return GridSpec(d=d, L=float(L), N=N, m=m)


def _require_same_grid(*grids):
    first = grids[0]
    for other in grids[1:]:
        if other != first:
            raise GridMismatchError(f"grid mismatch: {first} vs {other}")
    return first


def _coerce_matrix(value, size: int, what: str) -> np.ndarray:
    out = np.atleast_2d(np.asarray(value, dtype=float))
    if out.shape != (size, size):
        raise ValueError(f"{what} must evaluate to a {size}x{size} matrix, got shape {out.shape}")
    return out


def _is_constant(samples: np.ndarray) -> bool:
    """Whether every sample is bitwise equal to the first."""
    bits = samples.reshape(len(samples), -1).view(np.uint64)
    return bool(np.all(bits == bits[0]))


def _check_symmetric(samples: np.ndarray) -> float:
    """Return the largest absolute asymmetry max |M - M^T| over all samples."""
    return float(np.abs(samples - samples.transpose(0, 2, 1)).max()) if samples.size else 0.0


def _symmetrize(samples: np.ndarray, what: str):
    """(stored, constant, asymmetry, scale) of (n, k, k) samples.

    ``stored`` is the read-only (M + M^T)/2 of every sample, and ``constant``
    whether its samples are bitwise equal.  The asymmetry max |M - M^T| and
    the scale max(1, max |M|) are those of the input.  Bitwise equal input
    samples are measured and symmetrized once, and stored as a broadcast of
    that one, so a constant field holds a single k x k matrix.  Raises
    ``ValueError``, naming ``what``, where a sample or its (M + M^T)/2 is not
    finite.
    """
    constant = _is_constant(samples)
    distinct = samples[:1] if constant else samples
    with np.errstate(over="ignore", invalid="ignore"):
        symmetric = 0.5 * (distinct + distinct.transpose(0, 2, 1))
    if not np.all(np.isfinite(symmetric)):
        raise ValueError(f"{what} must be finite, and so must their symmetric part (M + M^T)/2")
    asym = _check_symmetric(distinct)
    scale = max(1.0, float(np.abs(distinct).max()))
    stored = np.broadcast_to(symmetric, samples.shape) if constant else symmetric
    stored.setflags(write=False)
    return stored, constant or _is_constant(symmetric), asym, scale


class DiffusionField:
    """Symmetric diffusion samples on the cell lattice, with ellipticity bounds.

    Samples are symmetrized as (M + M^T)/2 before storage; inputs whose
    asymmetry exceeds the tolerance are rejected outright since nothing
    downstream can use a non-symmetric diffusion.  The measured extreme
    eigenvalues over all samples are exposed as ``ellipticity_lower`` and
    ``ellipticity_upper``; a non-positive lower bound raises
    ``EllipticityError``, so every field that exists is uniformly elliptic,
    and nothing downstream checks it again.  ``constant`` records
    whether every sample is bitwise equal to the first; then the bounds come
    from that one sample, and equal input samples are stored as a read-only
    broadcast of it.
    """

    def __init__(self, grid: GridSpec, samples):
        samples = np.asarray(samples, dtype=float)
        if samples.shape != (grid.n_cells, grid.d, grid.d):
            raise ValueError(
                f"expected {(grid.n_cells, grid.d, grid.d)} diffusion samples, got {samples.shape}"
            )
        samples, self.constant, asym, scale = _symmetrize(samples, "diffusion samples (coefficients.q)")
        if asym > SYMMETRY_ATOL * scale:
            raise ValueError(f"diffusion samples (coefficients.q) are not symmetric (max asymmetry {asym:.3e})")
        self.grid = grid
        self.samples = samples
        distinct = samples[:1] if self.constant else samples
        eigs = np.linalg.eigvalsh(distinct)
        self.ellipticity_lower = float(eigs[:, 0].min())
        self.ellipticity_upper = float(eigs[:, -1].max())
        if self.ellipticity_lower <= 0:
            raise EllipticityError(
                f"diffusion samples (coefficients.q) are not uniformly elliptic "
                f"(lower bound {self.ellipticity_lower:.3e})"
            )
        off = distinct.copy()
        idx = np.arange(grid.d)
        off[:, idx, idx] = 0.0
        self.diagonal = bool(np.abs(off).max() == 0.0) if grid.d > 1 else True


class PotentialField:
    """Potential samples V(x) at the interior nodes.

    Storage is always exactly symmetric ((M + M^T)/2); whether the *input*
    was symmetric to tolerance is recorded in ``symmetric_input`` and checked
    by operator assembly.  ``psd`` records whether the smallest eigenvalue
    over all nodes is >= -1e-10 max(1, max |V|), relative because eigvalsh
    rounds at eps ||V||, and ``offdiag_max`` is the largest
    off-diagonal entry over all nodes and component pairs (0 when m == 1),
    the quantity whose sign decides positivity preservation of the semigroup.
    ``constant`` records whether every sample is bitwise equal to the first;
    then these quantities come from that one sample, and equal input samples
    are stored as a read-only broadcast of it.
    """

    def __init__(self, grid: GridSpec, samples):
        samples = np.asarray(samples, dtype=float)
        if samples.shape != (grid.n_nodes, grid.m, grid.m):
            raise ValueError(
                f"expected {(grid.n_nodes, grid.m, grid.m)} potential samples, got {samples.shape}"
            )
        # a singular potential, with an infinite sample, is rejected here
        samples, self.constant, asym, scale = _symmetrize(samples, "potential samples (coefficients.v)")
        self.symmetric_input = bool(asym <= SYMMETRY_ATOL * scale)
        self.grid = grid
        self.samples = samples
        distinct = samples[:1] if self.constant else samples
        eigs = np.linalg.eigvalsh(distinct)
        self.min_eigenvalue = float(eigs[:, 0].min())
        self.max_eigenvalue = float(eigs[:, -1].max())
        self.psd = bool(self.min_eigenvalue >= -1e-10 * scale)
        if grid.m > 1:
            off = distinct.copy()
            idx = np.arange(grid.m)
            off[:, idx, idx] = -np.inf
            self.offdiag_max = float(off.max())
        else:
            self.offdiag_max = 0.0


def sample_fields(q_fn, v_fn, grid: GridSpec):
    """Sample diffusion and potential callables onto a grid.

    ``q_fn(x)`` must evaluate to a d x d matrix at cell base corners and
    ``v_fn(x)`` to an m x m matrix at interior nodes (scalars are accepted
    for the 1x1 case).  Sampling is deterministic: two calls with the same
    callables produce bit-identical fields.

    Returns:
        (DiffusionField, PotentialField)
    """
    qs = np.empty((grid.n_cells, grid.d, grid.d))
    for i, x in enumerate(grid.cell_coords()):
        qs[i] = _coerce_matrix(q_fn(x), grid.d, "diffusion callable")
    vs = np.empty((grid.n_nodes, grid.m, grid.m))
    for i, x in enumerate(grid.node_coords()):
        vs[i] = _coerce_matrix(v_fn(x), grid.m, "potential callable")
    return DiffusionField(grid, qs), PotentialField(grid, vs)


class VectorState:
    """An m-component grid function on the interior nodes, zero on the boundary.

    Values are stored as a read-only (m, n_nodes) float array; ``flat()``
    exposes the component-major vector of length m * N^d used by the
    assembled matrices.  Instances are immutable; arithmetic returns new
    states.
    """

    def __init__(self, grid: GridSpec, values):
        values = np.array(values, dtype=float)
        if values.size != grid.state_size:
            raise ValueError(f"expected {grid.state_size} values, got {values.size}")
        values = values.reshape(grid.m, grid.n_nodes)
        if not np.all(np.isfinite(values)):
            raise ValueError("state values must be finite")
        values.setflags(write=False)
        self.grid = grid
        self.values = values

    @classmethod
    def zeros(cls, grid: GridSpec) -> "VectorState":
        return cls(grid, np.zeros((grid.m, grid.n_nodes)))

    @classmethod
    def impulse(cls, grid: GridSpec, node: int | None = None, vector=None) -> "VectorState":
        """Kronecker impulse: one node carries ``vector`` (default e_0), rest zero."""
        # operator.index: numpy would read a bool as a mask and refuse a float
        node = grid.nearest_node(np.zeros(grid.d)) if node is None else operator.index(node)
        if not 0 <= node < grid.n_nodes:
            raise ValueError(f"evolve.initial_state.node must be in [0, {grid.n_nodes}), got {node}")
        if vector is None:
            vector = np.eye(grid.m)[0]
        vector = np.atleast_1d(np.asarray(vector, dtype=float))
        if vector.shape != (grid.m,):
            raise ValueError(f"impulse vector must have {grid.m} entries, got shape {vector.shape}")
        vals = np.zeros((grid.m, grid.n_nodes))
        vals[:, node] = vector
        return cls(grid, vals)

    @classmethod
    def bump(cls, grid: GridSpec, width: float = 0.5, component: int | None = None) -> "VectorState":
        """Smooth bump ``smooth_bump_profile(|x| / (width L))`` on every
        component, or on ``component`` only (the others zero)."""
        if not width > 0:
            raise ValueError(f"evolve.initial_state.width must be positive, got {width}")
        if component is not None:
            component = operator.index(component)  # as in ``impulse``
            if not 0 <= component < grid.m:
                raise ValueError(f"evolve.initial_state.component must be null or in [0, {grid.m}), got {component}")
        profile = smooth_bump_profile(np.linalg.norm(grid.node_coords(), axis=1) / (width * grid.L))
        vals = np.zeros((grid.m, grid.n_nodes))
        if component is None:
            vals[:] = profile
        else:
            vals[component] = profile
        return cls(grid, vals)

    @classmethod
    def random(cls, grid: GridSpec, rng: np.random.Generator, scale: float = 1.0) -> "VectorState":
        """``scale`` times a standard normal draw; a product past the largest float is refused."""
        with np.errstate(over="ignore"):
            values = scale * rng.standard_normal((grid.m, grid.n_nodes))
        if not np.all(np.isfinite(values)):
            raise ValueError(f"evolve.initial_state.scale={scale!r} overflows a state entry past the largest float")
        return cls(grid, values)

    def flat(self) -> np.ndarray:
        """Component-major vector of length m * N^d (read-only view)."""
        return self.values.reshape(-1)

    def with_values(self, values) -> "VectorState":
        return VectorState(self.grid, values)

    def component_norms(self) -> np.ndarray:
        """Pointwise Euclidean norm over components, shape (n_nodes,).

        Each node is scaled by a power of two near 1/max|v| before squaring,
        so tiny states do not underflow to 0 and huge ones do not overflow;
        power-of-two scaling is exact, so normal-range norms keep their bits.
        """
        _, exp = np.frexp(np.abs(self.values).max(axis=0))
        return np.ldexp(np.sqrt((np.ldexp(self.values, -exp) ** 2).sum(axis=0)), exp)

    def __add__(self, other: "VectorState") -> "VectorState":
        _require_same_grid(self.grid, other.grid)
        return VectorState(self.grid, self.values + other.values)

    def __sub__(self, other: "VectorState") -> "VectorState":
        _require_same_grid(self.grid, other.grid)
        return VectorState(self.grid, self.values - other.values)

    def __mul__(self, scalar) -> "VectorState":
        return VectorState(self.grid, self.values * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "VectorState":
        return VectorState(self.grid, -self.values)

    def __repr__(self):
        return f"VectorState(m={self.grid.m}, nodes={self.grid.n_nodes})"


def mixed_norm(state: VectorState, p) -> float:
    """Mixed norm: Euclidean over components, weighted lattice p-norm over nodes.

    ``p`` may be any real >= 1 or ``numpy.inf``.  With the node-counting
    probability measure these norms are non-decreasing in p; the raw norms
    satisfy ||f||_2 / vol^(1/2) <= ||f||_4 / vol^(1/4) <= ||f||_oo with
    vol = (N h)^d.
    """
    p = float(p)
    if p < 1:
        raise ValueError(f"norm exponent must satisfy p >= 1, got {p}")
    s = state.component_norms()
    top = float(s.max()) if s.size else 0.0
    if np.isinf(p):
        return top
    if top == 0.0:
        return 0.0
    # factor out the max to keep s**p away from overflow for large p
    return top * float((state.grid.cell_volume * ((s / top) ** p).sum()) ** (1.0 / p))


def smooth_bump_profile(r) -> np.ndarray:
    """Radial C^2 bump profile: 1 for r <= 1, 0 for r >= 2, quintic ramp between.

    On 1 < r < 2 the value is 1 - (6u^5 - 15u^4 + 10u^3) with u = r - 1,
    which matches value and first two derivatives at both seams.
    """
    r = np.abs(np.asarray(r, dtype=float))
    u = np.clip(r - 1.0, 0.0, 1.0)
    return 1.0 - (6.0 * u**5 - 15.0 * u**4 + 10.0 * u**3)


def smooth_bump_slope(r) -> np.ndarray:
    """Derivative of ``smooth_bump_profile(|r|)`` with respect to signed r."""
    r = np.asarray(r, dtype=float)
    a = np.abs(r)
    u = np.clip(a - 1.0, 0.0, 1.0)
    inside = (a > 1.0) & (a < 2.0)
    return np.where(inside, -30.0 * u**2 * (u - 1.0) ** 2 * np.sign(r), 0.0)


def axis_differences(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    """Forward differences f(corner + h e_i) - f(corner) over all cells.

    ``values`` has shape (k, n_nodes) for any leading count k (states use
    k = m, scalar-derived fields like the pointwise modulus use k = 1); the
    implicit boundary zeros are added by padding, so boundary-touching
    half-edges are included.  Returns an array of raw differences (no 1/h)
    with shape (d, k, n_cells), cells enumerated like ``GridSpec.cell_coords``.
    """
    N, d = grid.N, grid.d
    values = np.asarray(values, dtype=float).reshape((-1,) + grid.shape)
    m = values.shape[0]
    padded = np.zeros((m,) + (N + 2,) * d)
    padded[(slice(None),) + (slice(1, N + 1),) * d] = values
    lo = (slice(0, N + 1),) * d
    out = np.empty((d, m, grid.n_cells))
    for i in range(d):
        hi = tuple(slice(1, None) if ax == i else slice(0, N + 1) for ax in range(d))
        diff = padded[(slice(None),) + hi] - padded[(slice(None),) + lo]
        out[i] = diff.reshape(m, grid.n_cells)
    return out
