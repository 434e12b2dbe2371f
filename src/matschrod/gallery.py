"""Built-in problem families, each carrying a machine-checkable fingerprint.

Every problem bundles its potential sampled at the nodes of its grid (Q is
the identity), the operator of that potential and an ``expected`` dict of
claims; ``validate_expected`` evaluates every claim with the solvers in this
package, so nothing in a fingerprint can go stale silently.  The families:

* ``harmonic_oscillator`` — scalar benchmark with an analytic low spectrum
  (odd integers) and a sign-definite ground state.
* ``degenerate_counterexample`` — m identical copies coupled by the
  complete-graph Laplacian scaled with a confining factor v(x) >= 0.  The
  pointwise smallest potential eigenvalue is identically zero (the coupling
  annihilates the all-ones direction), yet the operator's spectrum is the
  exact merge of the free scalar spectrum with m-1 copies of the shifted one.
* ``coupled_confining`` — confining scalar part (1 + |x|^2) I plus a constant
  negative-off-diagonal coupling: positivity-preserving, sandwich-friendly,
  and the confinement widens the spread of the low eigenvalues.
* ``antisymmetric_continuity`` — an antisymmetric coupling V(x) = x (e12 -
  e21) whose energy pairing cannot be bounded by the graph norms: the ratio
  r_n grows like log n along a sequence of scaled bumps.  Operator assembly
  must refuse this potential; the ratios come from dedicated 1-d quadrature.
"""
from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import QuadratureError
from .form import assemble_form
from .grid import (
    DiffusionField,
    GridSpec,
    PotentialField,
    VectorState,
    build_grid,
    smooth_bump_profile,
    smooth_bump_slope,
)
from .operators import assemble_operator, eigen_lowest, pointwise_extremal_eigs, sandwich_check
from .semigroup import _simpson, positivity_probe

__all__ = [
    "GalleryProblem",
    "MergeReport",
    "GALLERY",
    "complete_graph_laplacian",
    "coupling_eigenbasis",
    "harmonic_oscillator",
    "degenerate_counterexample",
    "coupled_confining",
    "antisymmetric_continuity",
    "build_problem",
    "expected_record",
    "list_gallery",
    "spectrum_merge_check",
    "antisymmetric_continuity_demo",
    "validate_expected",
]

#: validate_expected runs a short dynamical positivity probe only below this
#: matrix dimension; above it the structural certificate stands alone
_PROBE_DIM_LIMIT = 1200


def complete_graph_laplacian(m: int) -> np.ndarray:
    """The m x m coupling with diagonal m-1 and off-diagonal -1.

    Positive semidefinite with eigenvalues 0 (all-ones vector) and m with
    multiplicity m-1; every row sums to zero.
    """
    if m < 2:
        raise ValueError(f"coupling needs at least 2 components, got {m}")
    return m * np.eye(m) - np.ones((m, m))


def coupling_eigenbasis(m: int) -> np.ndarray:
    """Orthogonal matrix U diagonalizing the complete-graph coupling exactly.

    The first column is the normalized all-ones vector (eigenvalue 0); the
    remaining columns are the Helmert vectors spanning its complement
    (eigenvalue m).  U^T J U = diag(0, m, ..., m) holds by construction, not
    by numerical diagonalization.
    """
    if m < 2:
        raise ValueError(f"coupling needs at least 2 components, got {m}")
    u = np.zeros((m, m))
    u[:, 0] = 1.0 / np.sqrt(m)
    for k in range(1, m):
        u[:k, k] = 1.0 / np.sqrt(k * (k + 1))
        u[k, k] = -k / np.sqrt(k * (k + 1))
    return u


@dataclass(frozen=True, eq=False)
class GalleryProblem:
    """A named problem: sampled potential, its operator and expected claims.

    ``potential`` holds V at the nodes of ``potential.grid``, the problem's
    one grid; the diffusion is the identity, and ``operator`` is the
    assembled operator.  ``expected`` maps claim names to JSON-safe claim
    parameters understood by ``validate_expected``.  Problems with
    scalar-block structure additionally carry the node samples ``v_scalar``
    of the scalar factor v, the exact diagonalizer ``coupling_basis`` and the
    block multipliers c_k (the vector operator is similar to the direct sum
    of scalar operators with potentials c_k v).
    """

    name: str
    potential: PotentialField = field(repr=False)
    expected: dict = field(repr=False)
    notes: str = ""
    v_scalar: np.ndarray | None = field(default=None, repr=False)
    coupling_basis: np.ndarray | None = field(default=None, repr=False)
    block_multipliers: tuple | None = None

    @functools.cached_property
    def operator(self):
        """The operator of ``potential`` with Q = I, assembled once and cached.

        Raises ValueError for a potential that assembly rejects; an exception
        is not cached, so every access raises it again.
        """
        grid = self.potential.grid
        return assemble_operator(assemble_form(_identity_diffusion(grid), self.potential, grid))


def _identity_diffusion(grid: GridSpec) -> DiffusionField:
    """Q = I sampled on the cell lattice of ``grid``."""
    return DiffusionField(grid, np.broadcast_to(np.eye(grid.d), (grid.n_cells, grid.d, grid.d)))


def harmonic_oscillator(L: float = 10.0, N: int = 2000) -> GalleryProblem:
    """Scalar oscillator -f'' + x^2 f on [-L, L]; spectrum near 1, 3, 5, ...

    Box truncation error is negligible for L >= 8 (the ground state decays
    like exp(-x^2/2)); smaller boxes distort the low eigenvalues.
    """
    grid = build_grid(1, L, N, 1)
    x = grid.axis_nodes()
    return GalleryProblem(
        name="harmonic_oscillator",
        potential=PotentialField(grid, (x * x)[:, None, None]),
        expected={
            "lowest_eigenvalues": {"values": [1.0, 3.0, 5.0, 7.0, 9.0], "rtol": 5e-3},
            "eigenvalue_gap": {"value": 2.0, "count": 4, "rtol": 1e-2},
            "ground_state_sign_constant": True,
            "potential_psd": True,
            "positivity_guaranteed": True,
        },
        notes="scalar validation target with an analytic spectrum",
    )


def degenerate_counterexample(
    L: float = 6.0,
    N: int = 500,
    m: int = 2,
    detune: float = 0.0,
) -> GalleryProblem:
    """m coupled copies with potential v(x) * (complete-graph Laplacian).

    The confining factor is v(x) = x^2.  The potential is PSD with
    pointwise smallest eigenvalue identically 0 — the sandwich lower bound
    degenerates to the free operator — yet the spectrum is the exact merge
    of one free scalar spectrum with m-1 copies of the scalar spectrum
    shifted by m v.  ``detune`` > 0 adds detune * v(x) to the (0, 0) entry
    only, breaking the block structure; the merge claim is then expected to
    fail (negative control).
    """
    grid = build_grid(1, L, N, m)
    coupling = complete_graph_laplacian(m)
    bump = np.zeros((m, m))
    bump[0, 0] = 1.0
    detune = float(detune)
    x = grid.axis_nodes()
    v = x * x
    return GalleryProblem(
        name="degenerate_counterexample",
        potential=PotentialField(
            grid, v[:, None, None] * coupling + (detune * v)[:, None, None] * bump
        ),
        expected={
            "potential_psd": True,
            "positivity_guaranteed": True,
            "extremal_fields": {"floor": 0.0, "ceiling_multiplier": float(m), "exact": detune == 0.0},
            "merge": {"k": 20, "tol_rel": 1e-8, "passes": detune == 0.0},
        },
        notes=(
            "PSD potential whose pointwise floor is identically zero"
            + (f"; block structure detuned by {detune:g}" if detune else "")
        ),
        v_scalar=v,
        coupling_basis=coupling_eigenbasis(m),
        block_multipliers=(0.0,) + (float(m),) * (m - 1),
    )


def coupled_confining(L: float = 10.0, N: int = 220, m: int = 2) -> GalleryProblem:
    """Confining diagonal (1 + |x|^2) I plus a constant coupling W.

    W has zeros on the diagonal and -1/(4(m-1)) off it, so its smallest
    eigenvalue is -1/4: the pointwise smallest potential eigenvalue is
    3/4 + |x|^2 and the potential stays PSD.  Off-diagonals are negative, so
    the semigroup is positivity preserving, and the confinement spreads the
    low spectrum: lambda_k - lambda_1 over k <= 10 exceeds the free box's
    spread.
    """
    grid = build_grid(1, L, N, m)
    if m < 2:
        raise ValueError(f"coupled problem needs at least 2 components, got {m}")
    coupling = -(np.ones((m, m)) - np.eye(m)) / (4.0 * (m - 1))
    x = grid.axis_nodes()
    return GalleryProblem(
        name="coupled_confining",
        potential=PotentialField(grid, (1.0 + x * x)[:, None, None] * np.eye(m) + coupling),
        expected={
            "potential_psd": True,
            "positivity_guaranteed": True,
            "floor_offset": {"value": 0.75, "atol": 1e-10},
            "sandwich": {"k": 10, "tol_rel": 1e-8},
            "spread_exceeds_free": {"k": 10},
        },
        notes="confining diagonal with negative constant coupling",
    )


def antisymmetric_continuity(n_list=(1, 5, 10, 50, 100)) -> GalleryProblem:
    """Antisymmetric coupling V(x) = x (e12 - e21): the energy pairing is
    unbounded relative to the graph norms.

    Operator assembly must reject this potential (non-symmetric samples);
    the quantitative claim lives in ``antisymmetric_continuity_demo``, which
    evaluates the continuity ratios r_n by 1-d quadrature — they increase
    like log n along the given sequence.
    """
    n_list = tuple(int(n) for n in n_list)
    if len(n_list) < 2:
        raise ValueError(f"need at least two scales for a growth claim, got {n_list}")
    tail_pair = [n_list[len(n_list) // 2], n_list[-1]]
    grid = build_grid(1, 5.0, 64, 2)
    x = grid.axis_nodes()
    samples = np.zeros((grid.n_nodes, 2, 2))
    samples[:, 0, 1], samples[:, 1, 0] = -x, x
    return GalleryProblem(
        name="antisymmetric_continuity",
        potential=PotentialField(grid, samples),
        expected={
            "assembly_rejected": True,
            "continuity_ratios": {
                "n_list": list(n_list),
                "increasing": True,
                "tail_pair": tail_pair,
                "min_tail_growth": 1.3,
            },
        },
        notes="unbounded form pairing; never enters operator assembly",
    )


GALLERY = {
    "harmonic_oscillator": harmonic_oscillator,
    "degenerate_counterexample": degenerate_counterexample,
    "coupled_confining": coupled_confining,
    "antisymmetric_continuity": antisymmetric_continuity,
}


def build_problem(name: str, **params) -> GalleryProblem:
    """Instantiate a gallery problem by name with builder keyword overrides."""
    if not isinstance(name, str) or name not in GALLERY:
        known = ", ".join(sorted(GALLERY))
        raise ValueError(f"unknown gallery problem {name!r}; known: {known}")
    return GALLERY[name](**params)


def expected_record(problem: GalleryProblem) -> dict:
    """JSON-safe record of a problem's declared fingerprint."""
    grid = problem.potential.grid
    return {
        "name": problem.name,
        "grid": {"d": grid.d, "L": grid.L, "N": grid.N, "m": grid.m},
        "expected": problem.expected,
        "block_multipliers": (
            list(problem.block_multipliers) if problem.block_multipliers else None
        ),
        "coupling_basis": (
            problem.coupling_basis.tolist() if problem.coupling_basis is not None else None
        ),
        "notes": problem.notes,
    }


def list_gallery() -> list:
    """Fingerprints of all built-in problems at their default parameters."""
    return [expected_record(GALLERY[name]()) for name in sorted(GALLERY)]


# -- spectral merge ---------------------------------------------------------


@dataclass
class MergeReport:
    """Vector spectrum versus the merge of its scalar-block spectra."""

    problem: str
    k: int
    tol_rel: float
    vector_eigenvalues: np.ndarray
    merged_eigenvalues: np.ndarray
    block_eigenvalues: dict
    deviations: np.ndarray
    passed: bool


def spectrum_merge_check(
    problem: GalleryProblem,
    k: int = 20,
    tol_rel: float = 1e-8,
    seed: int = 42,
) -> MergeReport:
    """Compare the vector spectrum against the merged scalar-block spectra.

    The problem must carry scalar-block structure (the samples v_scalar and
    block multipliers c_k): the candidate spectrum is the sorted union of the
    lowest k eigenvalues of each scalar operator with potential c_k v,
    repeated according to multiplicity.  Taking k from every block guarantees
    the first k merged values are exact, and they must agree index-wise with
    the vector spectrum within tol_rel * (1 + |lambda_n|).
    """
    if problem.v_scalar is None or problem.block_multipliers is None:
        raise ValueError(
            f"problem {problem.name!r} has no scalar-block structure to merge against"
        )
    op = problem.operator
    vector = eigen_lowest(op, k, seed=seed).eigenvalues
    scalar_grid = replace(op.grid, m=1)
    dif = _identity_diffusion(scalar_grid)
    multiplicity = Counter(problem.block_multipliers)
    block_eigs = {}
    candidates = []
    for c in sorted(multiplicity):
        pot = PotentialField(scalar_grid, (c * problem.v_scalar)[:, None, None])
        block_op = assemble_operator(assemble_form(dif, pot, scalar_grid))
        eigs = eigen_lowest(block_op, min(k, block_op.dim), seed=seed).eigenvalues
        block_eigs[c] = eigs
        candidates.extend(list(eigs) * multiplicity[c])
    merged = np.sort(np.asarray(candidates))[:k]
    deviations = np.abs(vector - merged)
    tol = tol_rel * (1.0 + np.abs(vector))
    return MergeReport(
        problem=problem.name,
        k=k,
        tol_rel=tol_rel,
        vector_eigenvalues=vector,
        merged_eigenvalues=merged,
        block_eigenvalues=block_eigs,
        deviations=deviations,
        passed=bool(np.all(deviations <= tol)),
    )


# -- antisymmetric continuity ratios ----------------------------------------


def _antisym_ratio(n: int, points: int) -> dict:
    """Simpson quadrature of the three energy integrals at scale n.

    The pair of states is phi(x/n) / sqrt(1 + x^2) placed in complementary
    components; the antisymmetric coupling contributes |x|/(1 + x^2) phi(x/n)
    to the pairing while dropping out of the quadratic terms, so the ratio is
    cross / (l2 + gradient).  Everything is supported in [-2n, 2n].
    """
    x = np.linspace(-2.0 * n, 2.0 * n, points)
    phi = smooth_bump_profile(x / n)
    dphi = smooth_bump_slope(x / n) / n
    w = 1.0 + x**2
    cross = _simpson(np.abs(x) / w * phi, x)
    grad = _simpson((dphi / np.sqrt(w) - phi * x / w**1.5) ** 2, x)
    l2 = _simpson(phi**2 / w, x)
    return {"cross": cross, "gradient": grad, "l2": l2, "ratio": cross / (l2 + grad)}


#: quadrature points on [-2n, 2n] at the largest scale n of the demo
_QUAD_POINTS = 80001


def antisymmetric_continuity_demo(n_list=(1, 5, 10, 50, 100)) -> list:
    """Continuity ratios r_n of the antisymmetric-coupling sequence.

    For each n the three 1-d integrals (pairing, gradient energy, squared
    2-norm) are evaluated by Simpson quadrature on [-2n, 2n]; the step is
    derived from ``_QUAD_POINTS`` at the largest n (capped at 0.01) and every
    ratio is re-evaluated at half the step — a relative disagreement beyond
    1% raises QuadratureError.  Returns one record per n with the refined
    ratio; the ratios grow like log n, so no graph-norm bound can hold.
    """
    n_list = [int(n) for n in n_list]
    if not n_list or any(n < 1 for n in n_list) or any(
        a >= b for a, b in zip(n_list, n_list[1:])
    ):
        raise ValueError(f"need strictly increasing positive scales, got {n_list}")
    step = min(0.01, 4.0 * max(n_list) / (_QUAD_POINTS - 1))
    records = []
    for n in n_list:
        points = int(np.ceil(4.0 * n / step)) + 1
        if points % 2 == 0:
            points += 1  # Simpson needs an even interval count
        coarse = _antisym_ratio(n, points)
        fine = _antisym_ratio(n, 2 * points - 1)
        disagreement = abs(fine["ratio"] - coarse["ratio"]) / abs(fine["ratio"])
        if disagreement > 0.01:
            raise QuadratureError(
                f"step-halving changed r_{n} by {disagreement:.2%} (> 1%); "
                f"the quadrature is under-resolved at {points} points"
            )
        records.append(
            {
                "n": n,
                "ratio": fine["ratio"],
                "ratio_coarse": coarse["ratio"],
                "halving_disagreement": disagreement,
                "points": points,
                "cross": fine["cross"],
                "gradient": fine["gradient"],
                "l2": fine["l2"],
            }
        )
    return records


# -- claim validation --------------------------------------------------------


def validate_expected(problem: GalleryProblem, seed: int = 42) -> dict:
    """Evaluate every expected claim of a problem with the package's solvers.

    Returns {"name", "passed", "claims": {claim: {"passed", ...detail}}}.
    Unknown claim keys raise ValueError so fingerprints cannot dangle, and a
    claim that needs more eigenvalues than the grid has unknowns raises a
    ValueError naming ``gallery.params.N`` and the dimension.
    """
    pot, grid = problem.potential, problem.potential.grid
    state = {"spectrum": None}

    def fits(key, k):
        if k > grid.state_size:
            raise ValueError(
                f"gallery.params.N={grid.N} gives dimension {grid.state_size}, but claim {key!r} "
                f"of problem {problem.name!r} needs {k} eigenvalues"
            )
        return k

    def spectrum(k):
        if state["spectrum"] is None or len(state["spectrum"].eigenvalues) < k:
            state["spectrum"] = eigen_lowest(problem.operator, k, seed=seed)
        return state["spectrum"]

    claims = {}
    for key, target in problem.expected.items():
        if key == "lowest_eigenvalues":
            values = np.asarray(target["values"], dtype=float)
            computed = spectrum(fits(key, len(values))).eigenvalues[: len(values)]
            errors = np.abs(computed - values) / np.abs(values)
            claims[key] = {
                "passed": bool(np.all(errors <= target["rtol"])),
                "computed": computed.tolist(),
                "targets": values.tolist(),
                "max_rel_error": float(errors.max()),
            }
        elif key == "eigenvalue_gap":
            count = int(target["count"])
            lam = spectrum(fits(key, count + 1)).eigenvalues[: count + 1]
            gaps = np.diff(lam)
            errors = np.abs(gaps - target["value"]) / abs(target["value"])
            claims[key] = {
                "passed": bool(np.all(errors <= target["rtol"])),
                "gaps": gaps.tolist(),
                "max_rel_error": float(errors.max()),
            }
        elif key == "ground_state_sign_constant":
            rep = spectrum(1)
            v0 = rep.eigenvectors[:, 0]
            significant = v0[np.abs(v0) > 1e-12 * np.abs(v0).max()]
            constant = bool(significant.min() * significant.max() > 0)
            claims[key] = {"passed": constant == bool(target), "sign_constant": constant}
        elif key == "potential_psd":
            claims[key] = {
                "passed": pot.psd == bool(target),
                "min_eigenvalue": pot.min_eigenvalue,
            }
        elif key == "positivity_guaranteed":
            op = problem.operator
            structural = op.positivity_preserving
            detail = {"structural": structural, "offdiag_max": pot.offdiag_max}
            passed = structural == bool(target)
            if structural and op.dim <= _PROBE_DIM_LIMIT:
                probe = positivity_probe(op, [VectorState.bump(grid)], (0.01, 0.1, 1.0))
                detail["probe_verdict"] = probe.verdict
                passed = passed and probe.verdict == "positive"
            claims[key] = {"passed": passed, **detail}
        elif key == "extremal_fields":
            mu, nu = pointwise_extremal_eigs(pot)
            scale = 1.0 + float(np.abs(nu).max())
            floor_dev = float(np.abs(mu - target["floor"]).max())
            ceil_dev = float(np.abs(nu - target["ceiling_multiplier"] * problem.v_scalar).max())
            if target.get("exact", True):
                passed = floor_dev <= 1e-10 * scale and ceil_dev <= 1e-10 * scale
            else:
                # a detuning bump is PSD, so the pointwise floor can only rise
                undershoot = float(np.maximum(target["floor"] - mu, 0.0).max())
                passed = undershoot <= 1e-10 * scale
            claims[key] = {"passed": passed, "floor_deviation": floor_dev, "ceiling_deviation": ceil_dev}
        elif key == "merge":
            rep = spectrum_merge_check(
                problem, k=fits(key, int(target["k"])), tol_rel=float(target["tol_rel"]), seed=seed
            )
            claims[key] = {
                "passed": rep.passed == bool(target["passes"]),
                "merge_passed": rep.passed,
                "max_deviation": float(rep.deviations.max()),
                "vector_eigenvalues": rep.vector_eigenvalues.tolist(),
                "merged_eigenvalues": rep.merged_eigenvalues.tolist(),
                "deviations": rep.deviations.tolist(),
            }
        elif key == "floor_offset":
            mu, _ = pointwise_extremal_eigs(pot)
            radii_sq = (grid.node_coords() ** 2).sum(axis=1)
            dev = float(np.abs(mu - radii_sq - target["value"]).max())
            claims[key] = {"passed": dev <= target["atol"], "max_deviation": dev}
        elif key == "sandwich":
            rep = sandwich_check(
                problem.operator, k=fits(key, int(target["k"])), tol_rel=float(target["tol_rel"]), seed=seed
            )
            claims[key] = {
                "passed": rep.passed,
                "max_lower_violation": rep.max_lower_violation,
                "max_upper_violation": rep.max_upper_violation,
            }
        elif key == "spread_exceeds_free":
            k = fits(key, int(target["k"]))
            lam = spectrum(k).eigenvalues[:k]
            free_pot = PotentialField(grid, np.zeros((grid.n_nodes, grid.m, grid.m)))
            free_op = assemble_operator(assemble_form(problem.operator.diffusion, free_pot, grid))
            free = eigen_lowest(free_op, k, seed=seed).eigenvalues
            spread = float(lam[k - 1] - lam[0])
            free_spread = float(free[k - 1] - free[0])
            claims[key] = {
                "passed": spread > free_spread,
                "spread": spread,
                "free_spread": free_spread,
            }
        elif key == "assembly_rejected":
            try:
                problem.operator
            except ValueError as exc:
                claims[key] = {"passed": bool(target), "message": str(exc)}
            else:
                claims[key] = {"passed": not target, "message": "assembly accepted the potential"}
        elif key == "continuity_ratios":
            records = antisymmetric_continuity_demo(target["n_list"])
            ratios = [rec["ratio"] for rec in records]
            increasing = all(a < b for a, b in zip(ratios, ratios[1:]))
            lo, hi = target["tail_pair"]
            growth = ratios[target["n_list"].index(hi)] / ratios[target["n_list"].index(lo)]
            claims[key] = {
                "passed": increasing == bool(target["increasing"])
                and growth >= target["min_tail_growth"],
                "ratios": ratios,
                "increasing": increasing,
                "tail_growth": float(growth),
                "worst_halving_disagreement": float(
                    max(rec["halving_disagreement"] for rec in records)
                ),
            }
        else:
            raise ValueError(f"no validator for claim {key!r} of problem {problem.name!r}")
    return {
        "name": problem.name,
        "passed": all(c["passed"] for c in claims.values()),
        "claims": claims,
    }
