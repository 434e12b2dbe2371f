"""The discrete energy form and its projection/inequality toolbox.

For diffusion Q and potential V the form reads

    a(f, g) = sum_cells h^d < Q(x_c) D_h f(x_c), D_h g(x_c) >   (per component)
            + sum_nodes h^d < V(x_a) f(x_a), g(x_a) >,

where ``D_h`` is the forward-difference gradient at the cell base corner and
Q is evaluated there.  The associated graph norm uses the *unweighted*
gradient,

    ||f||_form = ( ||f||_2^2 + sum_j ||D_h f_j||_2^2 + <V f, f> )^(1/2),

so that |a(f, g)| <= (1 + eta_2) ||f||_form ||g||_form whenever V is positive
semidefinite, with eta_2 the measured upper ellipticity bound.

Two structural inequalities drive everything else and hold *per edge* when Q
is diagonal (each cell/axis pair contributes a nonnegative weight times the
squared Euclidean jump of the full component vector):

* projection onto the pointwise unit ball is a form contraction, and
* the positive/negative parts of a state have non-positive cross energy
  whenever the potential's off-diagonal entries are <= 0.

For non-diagonal Q the cross terms break the edge decomposition, so neither
inequality is guaranteed there.
"""
from __future__ import annotations

import numpy as np

from .grid import (
    DiffusionField,
    GridSpec,
    PotentialField,
    VectorState,
    _require_same_grid,
    axis_differences,
)

__all__ = [
    "FormAssembly",
    "assemble_form",
    "form_terms",
    "form_norms",
    "eval_form",
    "form_norm",
    "edge_jump_norms",
]


class FormAssembly:
    """Grid, sampled coefficients and the quadrature weights of the form.

    Every form quantity goes through ``form_terms``, which evaluates states
    with any leading batch axes.  The coefficient facts (ellipticity bounds,
    a diagonal Q, a PSD V) are read off ``diffusion`` and ``potential``; a
    ``DiffusionField`` is uniformly elliptic by construction, so the form
    does not check it again.  Immutable; evaluation is thread-safe.
    """

    def __init__(self, diffusion: DiffusionField, potential: PotentialField, grid: GridSpec):
        _require_same_grid(grid, diffusion.grid, potential.grid)
        self.grid = grid
        self.diffusion = diffusion
        self.potential = potential


def assemble_form(diffusion: DiffusionField, potential: PotentialField, grid: GridSpec) -> FormAssembly:
    """Bind sampled coefficients to their grid as an evaluable energy form."""
    return FormAssembly(diffusion, potential, grid)


def _as_states(assembly: FormAssembly, values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    shape = (assembly.grid.m, assembly.grid.n_nodes)
    if values.shape[-2:] != shape:
        raise ValueError(f"expected states of shape (..., {shape[0]}, {shape[1]}), got {values.shape}")
    return values


def form_terms(assembly: FormAssembly, x, y):
    """a(x, y), the unweighted gradient energy and <V x, y> per batch entry.

    ``x`` and ``y`` are state values of shape (..., m, n_nodes) whose leading
    axes broadcast against each other; each of the three returned arrays has
    the broadcast leading shape.  Q and V act on the first argument, so
    a(x, y) and a(y, x) are separate evaluations and their difference shows
    any asymmetry of the stored coefficients.
    """
    x, y = _as_states(assembly, x), _as_states(assembly, y)
    grid = assembly.grid
    n, lead_x, lead_y = grid.n_nodes, x.shape[:-2], y.shape[:-2]
    kx = x.size // n
    rows = np.concatenate([x.reshape(-1, n), y.reshape(-1, n)])
    grads = axis_differences(grid, rows) / grid.h  # (d, rows, n_cells)
    # Q and V act as stacked matmuls over cells and nodes
    qgx = np.moveaxis(assembly.diffusion.samples @ np.moveaxis(grads[:, :kx], -1, 0), 0, -1)
    vx = (assembly.potential.samples @ x.reshape(-1, grid.m, n).T).T  # (states, m, n_nodes)

    def per_state(a, lead):  # (d, rows, n_cells) -> lead + (m * d * n_cells,)
        return np.moveaxis(a, 0, 1).reshape(lead + (grid.m * grid.d * grid.n_cells,))

    gx, gy = per_state(grads[:, :kx], lead_x), per_state(grads[:, kx:], lead_y)
    weighted = _dot(per_state(qgx, lead_x), gy)
    potential = _dot(vx.reshape(lead_x + (grid.m * n,)), y.reshape(lead_y + (grid.m * n,)))
    return (
        grid.cell_volume * (weighted + potential),
        grid.cell_volume * _dot(gx, gy),
        grid.cell_volume * potential,
    )


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner products over the last axis, broadcasting the leading axes."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def form_norms(assembly: FormAssembly, x) -> np.ndarray:
    """Graph norms (||f||_2^2 + sum_j ||D_h f_j||^2 + <V f, f>)^(1/2) per batch entry.

    The gradient term is unweighted (no Q); requires a positive semidefinite
    potential, otherwise the square root may not exist.
    """
    if not assembly.potential.psd:
        raise ValueError(
            f"graph norm needs a PSD potential (smallest eigenvalue "
            f"{assembly.potential.min_eigenvalue:.3e})"
        )
    x = _as_states(assembly, x)
    _, gradient, potential = form_terms(assembly, x, x)
    sq = assembly.grid.cell_volume * (x**2).sum(axis=(-2, -1)) + gradient + potential
    return np.sqrt(np.maximum(sq, 0.0))


def eval_form(assembly: FormAssembly, f: VectorState, g: VectorState) -> float:
    """Evaluate a(f, g).  Symmetric in (f, g) because stored coefficients are."""
    _require_same_grid(assembly.grid, f.grid, g.grid)
    return float(form_terms(assembly, f.values, g.values)[0])


def form_norm(assembly: FormAssembly, f: VectorState) -> float:
    """Graph norm of one state; see ``form_norms``."""
    _require_same_grid(assembly.grid, f.grid)
    return float(form_norms(assembly, f.values))


def _unit_ball_projection(values: np.ndarray) -> np.ndarray:
    """Project state values (..., m, n_nodes) pointwise onto the closed unit ball of R^m.

    P f(x) = min(1, |f(x)|) * f(x)/|f(x)|, with 0 where f(x) = 0.  Idempotent,
    and 1-Lipschitz in the pointwise Euclidean norm, hence edge-jump
    contractive.
    """
    s = np.sqrt((values**2).sum(axis=-2, keepdims=True))
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(s > 0.0, np.minimum(1.0, s) / np.where(s > 0.0, s, 1.0), 0.0)
    return values * scale


def edge_jump_norms(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    """Euclidean norm over components of the jump across each edge.

    ``values`` is (..., m, n_nodes), or (n_nodes,) for one component;
    returns shape (d, ..., n_cells).  Boundary half-edges (against the
    implicit zeros) are included.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[None, :]
    diffs = axis_differences(grid, values.reshape(-1, grid.n_nodes))
    diffs = diffs.reshape((grid.d,) + values.shape[:-1] + (grid.n_cells,))
    return np.sqrt((diffs**2).sum(axis=-2))
