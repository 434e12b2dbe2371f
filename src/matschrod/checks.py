"""Named verification suites over the discretized operator and semigroup.

Each check realizes one falsifiable claim with a pinned tolerance and returns
raw measurements alongside the verdict, so a failing run can be diagnosed
from its report alone.  Verdicts are adjudicated with exact-dense propagation
and direct eigensolvers; iterative solvers appear only where the claim is
about them (``semigroup_structure``).  All randomness flows from a single
seed, making every report reproducible.

The checks:

* ``laplacian_spectrum``    — free 1-d operator matches its closed-form spectrum.
* ``harmonic_oscillator``   — scalar confining benchmark hits the odd integers.
* ``form_axioms``           — accretivity, symmetry and continuity of the energy
                              form over random coefficient draws.
* ``beurling_denny``        — unit-ball projection never increases the energy;
                              per-edge jump contraction holds exhaustively.
* ``contraction``           — propagated mixed norms never grow (p = 1, 2, 4, oo)
                              and the p=4 deviation interpolation bound holds.
* ``positivity_dichotomy``  — sign of the off-diagonal coupling decides
                              positivity; violations are exhibited by witnesses.
* ``eigenvalue_sandwich``   — scalar extremal-eigenvalue operators bracket the
                              vector spectrum; PSD increments never lower it.
* ``counterexample_merge``  — coupled-copy spectra merge exactly from scalar
                              blocks; detuned coupling breaks the merge.
* ``antisymmetric_continuity`` — the antisymmetric-coupling ratio r_n grows.
* ``semigroup_structure``   — identity at t=0, semigroup law, self-adjointness,
                              Krylov-vs-dense agreement.
* ``gallery_claims``        — every built-in problem's fingerprint validates.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .form import (
    _unit_ball_projection,
    assemble_form,
    edge_jump_norms,
    form_terms,
)
from .gallery import (
    GALLERY,
    antisymmetric_continuity,
    degenerate_counterexample,
    harmonic_oscillator,
    validate_expected,
)
from .grid import (
    DiffusionField,
    PotentialField,
    VectorState,
    build_grid,
    mixed_norm,
    smooth_bump_profile,
)
from .operators import assemble_operator, eigen_lowest, sandwich_check
from .semigroup import (
    PropagatorConfig,
    contraction_probe,
    positivity_probe,
    propagate,
    strong_continuity_probe,
    violation_witness,
)

__all__ = ["CheckResult", "CHECKS", "run_checks"]


@dataclass
class CheckResult:
    """Outcome of one named check: verdict, runtime and raw measurements."""

    name: str
    passed: bool
    runtime_s: float
    detail: dict

    def verdict_record(self) -> dict:
        """Deterministic portion (no timing), for reproducible verdict files."""
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


# -- random coefficient helpers ----------------------------------------------


def _random_diagonal_diffusion(rng, grid, lo=0.2, hi=3.0) -> DiffusionField:
    samples = np.zeros((grid.n_cells, grid.d, grid.d))
    idx = np.arange(grid.d)
    samples[:, idx, idx] = rng.uniform(lo, hi, size=(grid.n_cells, grid.d))
    return DiffusionField(grid, samples)


def _random_psd_potential(rng, grid, scale=1.0) -> PotentialField:
    mats = scale * rng.standard_normal((grid.n_nodes, grid.m, grid.m))
    return PotentialField(grid, mats.transpose(0, 2, 1) @ mats / grid.m)


def _random_signed_offdiag_potential(rng, grid, positive_pair=None, amplitude=1.5):
    """Diagonal entries in [0, 2], off-diagonals in [-1, 0]; optionally one
    pair receives a positive bump region of the given amplitude."""
    n, m = grid.n_nodes, grid.m
    samples = np.zeros((n, m, m))
    idx = np.arange(m)
    samples[:, idx, idx] = rng.uniform(0.0, 2.0, size=(n, m))
    for i in range(m):
        for j in range(i):
            coupling = -rng.uniform(0.0, 1.0, size=n)
            samples[:, i, j] = coupling
            samples[:, j, i] = coupling
    if positive_pair is not None:
        i, j = positive_pair
        coords = grid.node_coords()
        center = coords[rng.integers(0, n)]
        radii = np.linalg.norm(coords - center, axis=1) / (0.25 * grid.L)
        bump = amplitude * smooth_bump_profile(radii)
        samples[:, i, j] += bump
        samples[:, j, i] += bump
    return PotentialField(grid, samples)


# -- individual checks --------------------------------------------------------


def check_laplacian_spectrum(seed=42):
    """Free 1-d spectrum vs the closed form (4/h^2) sin^2(k pi / (2(N+1)))."""
    N, k, rtol = 200, 20, 1e-10
    grid = build_grid(1, 1.0, N, 1)
    diffusion = DiffusionField(grid, np.ones((grid.n_cells, 1, 1)))
    potential = PotentialField(grid, np.zeros((grid.n_nodes, 1, 1)))
    op = assemble_operator(assemble_form(diffusion, potential, grid))
    computed = eigen_lowest(op, k, seed=seed).eigenvalues
    ks = np.arange(1, k + 1)
    exact = (4.0 / grid.h**2) * np.sin(ks * np.pi / (2.0 * (N + 1))) ** 2
    rel = np.abs(computed - exact) / exact
    return bool(np.all(rel <= rtol)), {
        "N": N,
        "k": k,
        "rtol": rtol,
        "max_rel_error": float(rel.max()),
        "eigenvalues": computed.tolist(),
    }


def _claim(problem, key, seed):
    """Validate the single gallery claim ``key`` of ``problem``; returns the
    claim's detail."""
    only = replace(problem, expected={key: problem.expected[key]})
    return validate_expected(only, seed=seed)["claims"][key]


def check_harmonic_oscillator(seed=42):
    """Lowest five eigenvalues of -f'' + x^2 f within 5e-3 of 1, 3, 5, 7, 9
    (the gallery's ``lowest_eigenvalues`` claim)."""
    problem = harmonic_oscillator()
    claim = _claim(problem, "lowest_eigenvalues", seed)
    return claim["passed"], {
        "L": problem.potential.grid.L,
        "N": problem.potential.grid.N,
        "rtol": problem.expected["lowest_eigenvalues"]["rtol"],
        "eigenvalues": claim["computed"],
        "max_rel_error": claim["max_rel_error"],
    }


def check_form_axioms(seed=42):
    """Accretivity, symmetry and continuity of the form on random draws.

    Over 100 random (grid, diagonal SPD Q, PSD V) and 100 random (f, g)
    each: a(f,f) >= -1e-10 ||f||_2^2, the
    symmetry gap |a(f,g) - a(g,f)| stays below 1e-12 relative to the
    quadratic terms, and the continuity ratio stays below 1 + eta_2 + 1e-10.
    One batched ``form_terms`` call per configuration gives all four pairings
    of each (f, g); both graph norms are read off its diagonal.
    """
    rng = np.random.default_rng(seed)
    n_configs, pairs_per_config = 100, 100
    trials = failures = 0
    worst = {"accretivity": np.inf, "symmetry": 0.0, "continuity": -np.inf}
    for _ in range(n_configs):
        d = int(rng.integers(1, 3))
        m = int(rng.integers(1, 4))
        N = int(rng.integers(8, 25)) if d == 1 else int(rng.integers(4, 9))
        grid = build_grid(d, float(rng.uniform(0.7, 1.5)), N, m)
        diffusion = _random_diagonal_diffusion(rng, grid)
        potential = _random_psd_potential(rng, grid, scale=float(rng.uniform(0.3, 1.5)))
        assembly = assemble_form(diffusion, potential, grid)
        bound = 1.0 + diffusion.ellipticity_upper + 1e-10
        # the block draw consumes the generator exactly as pairs of
        # VectorState.random(f), VectorState.random(g) would
        states = rng.standard_normal((pairs_per_config, 2, grid.m, grid.n_nodes))
        energy, gradient, vterm = form_terms(assembly, states[:, :, None], states[:, None])
        aff, agg = energy[:, 0, 0], energy[:, 1, 1]
        afg, agf = energy[:, 0, 1], energy[:, 1, 0]
        l2 = grid.cell_volume * (states**2).sum(axis=(2, 3))  # ||f||^2 and ||g||^2 of each pair
        accretive_margin = aff / l2[:, 0]
        sym_gap = np.abs(afg - agf) / np.maximum(np.maximum(np.abs(aff), np.abs(agg)), 1e-300)
        # the graph norms of f and g, as form_norms computes them, off the diagonal pairings
        own = np.arange(2)
        graph = np.sqrt(np.maximum(l2 + gradient[:, own, own] + vterm[:, own, own], 0.0))
        ratio = np.abs(afg) / (graph[:, 0] * graph[:, 1])
        trials += pairs_per_config
        worst["accretivity"] = float(accretive_margin.min(initial=worst["accretivity"]))
        worst["symmetry"] = float(sym_gap.max(initial=worst["symmetry"]))
        worst["continuity"] = float((ratio - (bound - 1e-10)).max(initial=worst["continuity"]))
        failures += int(np.count_nonzero((accretive_margin < -1e-10) | (sym_gap > 1e-12) | (ratio > bound)))
    return failures == 0, {
        "trials": trials,
        "failures": failures,
        "worst_accretivity_margin": worst["accretivity"],
        "worst_symmetry_gap": worst["symmetry"],
        "worst_continuity_excess": worst["continuity"],
    }


def check_beurling_denny(seed=42):
    """Unit-ball projection never increases the energy (diagonal Q, PSD V),
    over 50 states on each of 20 random operators.

    Also verifies the mechanism edge by edge: the projected state's jump
    across every lattice edge is no larger than the original's.
    """
    rng = np.random.default_rng(seed)
    n_configs, states_per_config = 20, 50
    min_gap = np.inf
    max_edge_excess = -np.inf
    trials = failures = 0
    for _ in range(n_configs):
        d = int(rng.integers(1, 3))
        m = int(rng.integers(1, 4))
        N = int(rng.integers(8, 25)) if d == 1 else int(rng.integers(4, 9))
        grid = build_grid(d, 1.0, N, m)
        diffusion = _random_diagonal_diffusion(rng, grid)
        potential = _random_psd_potential(rng, grid)
        assembly = assemble_form(diffusion, potential, grid)
        f = 1.5 * rng.standard_normal((states_per_config, grid.m, grid.n_nodes))
        both = np.stack([f, _unit_ball_projection(f)])
        energy = form_terms(assembly, both, both)[0]
        gap = energy[0] - energy[1]
        jumps = edge_jump_norms(grid, both)  # (d, 2, states, n_cells)
        jumps_f, jumps_p = jumps[:, 0], jumps[:, 1]
        edge_bad = (jumps_p > jumps_f + 1e-12 * (1.0 + jumps_f)).any(axis=(0, 2))
        trials += states_per_config
        min_gap = float(gap.min(initial=min_gap))
        max_edge_excess = float((jumps_p - jumps_f).max(initial=max_edge_excess))
        failures += int(np.count_nonzero((gap < -1e-12) | edge_bad))
    return failures == 0, {
        "trials": trials,
        "failures": failures,
        "min_gap": float(min_gap),
        "max_edge_excess": float(max_edge_excess),
    }


def check_contraction(seed=42):
    """Mixed-norm contraction under exact-dense propagation.

    100 states (half nonnegative, half signed) across four diagonal-Q/PSD-V
    operators, t in {0.01, 0.1, 1}, p in {1, 2, 4, oo}: every ratio stays
    below 1 + 1e-8.  On the first operator, 50 further states must satisfy
    the p=4 deviation interpolation bound along a dyadic time sequence.
    """
    rng = np.random.default_rng(seed)
    config = PropagatorConfig(method="exact-dense", times=(0.01, 0.1, 1.0))
    max_ratio = 0.0
    verdicts = []
    ops = []
    for _ in range(4):
        grid = build_grid(1, 1.0, 48, 2)
        diffusion = _random_diagonal_diffusion(rng, grid)
        potential = _random_psd_potential(rng, grid)
        ops.append(assemble_operator(assemble_form(diffusion, potential, grid)))
    per_op = 100 // len(ops)
    for op in ops:
        states = []
        for idx in range(per_op):
            raw = rng.standard_normal((op.grid.m, op.grid.n_nodes))
            states.append(VectorState(op.grid, np.abs(raw) if idx % 2 == 0 else raw))
        report = contraction_probe(op, states, config)
        verdicts.append(report.verdict)
        max_ratio = max(
            max_ratio,
            max(rec["ratio"] for rec in report.records if rec["ratio"] is not None),
        )
    interpolation_ok = True
    worst_excess = -np.inf
    for _ in range(50):
        f = VectorState.random(ops[0].grid, rng)
        report = strong_continuity_probe(ops[0], f, (0.0625, 0.125, 0.25, 0.5, 1.0), p=4.0)
        for rec in report.records:
            worst_excess = max(worst_excess, rec["deviation_p"] - rec["interpolation_bound"])
            interpolation_ok = interpolation_ok and rec["interpolation_ok"]
    passed = all(v == "pass" for v in verdicts) and interpolation_ok
    return passed, {
        "contraction_verdicts": verdicts,
        "max_ratio": max_ratio,
        "interpolation_ok": interpolation_ok,
        "worst_interpolation_excess": float(worst_excess),
    }


def check_positivity_dichotomy(seed=42):
    """Sign of the off-diagonal coupling decides positivity, 50/50.

    25 potentials with every off-diagonal <= 0 must propagate
    nonnegative states to min component >= -1e-10 * scale; 25 potentials
    with a positive off-diagonal region must yield an explicit witness
    state/time with a component <= -1e-8 * ||f||_oo.
    """
    rng = np.random.default_rng(seed)
    n_each = 25
    correct = 0
    records = []
    for case in range(2 * n_each):
        wants_positive = case < n_each
        m = 2 if case % 2 == 0 else 3
        grid = build_grid(1, 1.0, 40, m)
        diffusion = _random_diagonal_diffusion(rng, grid)
        if wants_positive:
            potential = _random_signed_offdiag_potential(rng, grid)
        else:
            i = int(rng.integers(0, m))
            j = int((i + 1 + rng.integers(0, m - 1)) % m)
            potential = _random_signed_offdiag_potential(rng, grid, positive_pair=(i, j))
        op = assemble_operator(assemble_form(diffusion, potential, grid))
        if wants_positive:
            states = [VectorState.bump(grid)]
            raw = np.abs(rng.standard_normal((m, grid.n_nodes)))
            states.append(VectorState(grid, raw))
            report = positivity_probe(op, states, (0.01, 0.1, 1.0))
            ok = report.verdict == "positive" and report.guaranteed
            records.append({"case": case, "kind": "nonpositive-coupling", "verdict": report.verdict})
        else:
            report = violation_witness(op, i, j)
            ok = report.verdict == "violation-found"
            records.append(
                {
                    "case": case,
                    "kind": "positive-coupling-region",
                    "verdict": report.verdict,
                    "witness": report.witness,
                }
            )
        correct += int(ok)
    return correct == 2 * n_each, {
        "correct": correct,
        "total": 2 * n_each,
        "records": records,
    }


def check_eigenvalue_sandwich(seed=42):
    """Extremal-eigenvalue scalar operators bracket the vector spectrum.

    5 random PSD potentials must pass the index-wise bracketing with
    tol 1e-8 (relative); 20 random PSD increments added to the
    first potential must never lower any of the 10 lowest eigenvalues.
    """
    rng = np.random.default_rng(seed)
    k = 10
    grid = build_grid(1, 1.2, 60, 2)
    diffusion = _random_diagonal_diffusion(rng, grid)
    ops = []
    for _ in range(5):
        potential = _random_psd_potential(rng, grid, scale=float(rng.uniform(0.5, 2.0)))
        ops.append(assemble_operator(assemble_form(diffusion, potential, grid)))
    reports = [sandwich_check(op, k=k, tol_rel=1e-8, seed=seed) for op in ops]
    base = ops[0].potential
    base_eigs = reports[0].eigenvalues
    monotone_ok = True
    worst_drop = -np.inf
    for _ in range(20):
        bump = _random_psd_potential(rng, grid, scale=float(rng.uniform(0.1, 0.8)))
        perturbed = PotentialField(grid, base.samples + bump.samples)
        eigs = eigen_lowest(
            assemble_operator(assemble_form(diffusion, perturbed, grid)), k, seed=seed
        ).eigenvalues
        drop = float((base_eigs - eigs).max())
        worst_drop = max(worst_drop, drop)
        monotone_ok = monotone_ok and bool(
            np.all(base_eigs <= eigs + 1e-8 * (1.0 + np.abs(base_eigs)))
        )
    passed = all(r.passed for r in reports) and monotone_ok
    return passed, {
        "sandwich_passed": [r.passed for r in reports],
        "max_lower_violation": max(r.max_lower_violation for r in reports),
        "max_upper_violation": max(r.max_upper_violation for r in reports),
        "monotone_ok": monotone_ok,
        "worst_monotonicity_drop": worst_drop,
    }


def check_counterexample_merge(seed=42):
    """Coupled-copy spectra merge from scalar blocks; detuning breaks it.

    Each case is the gallery's ``merge`` claim; the detuned control declares
    that its merge fails, so every case passes when its claim does.
    """
    cases = {
        "m2": degenerate_counterexample(m=2, N=500),
        "m3": degenerate_counterexample(m=3, N=500),
        "control": degenerate_counterexample(m=2, N=200, detune=0.35),
    }
    passed, detail = True, {}
    for label, problem in cases.items():
        claim = _claim(problem, "merge", seed)
        passed = passed and claim["passed"]
        detail[f"{label}_passed"] = claim["merge_passed"]
        detail[f"{label}_max_deviation"] = claim["max_deviation"]
    return passed, detail


def check_antisymmetric_continuity(seed=42):
    """Continuity ratios r_n increase and the tail growth r_hi / r_lo >= 1.3
    (the gallery's ``continuity_ratios`` claim).

    (lo, hi) is the claim's ``tail_pair``, (10, 100) for the default scales.
    Quadrature resolution is certified by step halving (any disagreement
    beyond 1% raises instead of passing silently).
    """
    claim = _claim(antisymmetric_continuity(), "continuity_ratios", seed)
    keys = ("ratios", "increasing", "tail_growth", "worst_halving_disagreement")
    return claim["passed"], {key: claim[key] for key in keys}


def check_semigroup_structure(seed=42):
    """Identity at t=0, semigroup law, self-adjointness, Krylov agreement."""
    rng = np.random.default_rng(seed)
    grid = build_grid(1, 1.0, 300, 2)
    diffusion = _random_diagonal_diffusion(rng, grid)
    potential = _random_psd_potential(rng, grid)
    op = assemble_operator(assemble_form(diffusion, potential, grid))
    dense = PropagatorConfig(method="exact-dense")
    krylov = PropagatorConfig(method="lanczos-expmv", tol=1e-10)

    identity_exact = True
    law_worst = 0.0
    adjoint_worst = 0.0
    krylov_worst = 0.0
    for _ in range(5):
        f = VectorState.random(grid, rng)
        g = VectorState.random(grid, rng)
        identity_exact = identity_exact and np.array_equal(
            propagate(op, f, 0.0, dense).values, f.values
        )
        for s, t in ((0.3, 0.7), (0.05, 0.05)):
            two_step = propagate(op, propagate(op, f, s, dense), t, dense)
            one_step = propagate(op, f, s + t, dense)
            law_worst = max(
                law_worst,
                mixed_norm(two_step - one_step, 2) / mixed_norm(one_step, 2),
            )
        for t in (0.1, 1.0):
            tf, tg = propagate(op, f, t, dense), propagate(op, g, t, dense)
            lhs = grid.cell_volume * float(tf.flat() @ g.flat())
            rhs = grid.cell_volume * float(f.flat() @ tg.flat())
            denom = mixed_norm(f, 2) * mixed_norm(g, 2)
            adjoint_worst = max(adjoint_worst, abs(lhs - rhs) / denom)
        for t in (0.01, 0.1, 1.0):
            via_dense = propagate(op, f, t, dense)
            via_krylov = propagate(op, f, t, krylov)
            krylov_worst = max(
                krylov_worst,
                mixed_norm(via_krylov - via_dense, 2) / mixed_norm(f, 2),
            )
    passed = (
        identity_exact and law_worst <= 1e-9 and adjoint_worst <= 1e-9 and krylov_worst <= 1e-8
    )
    return passed, {
        "identity_exact": identity_exact,
        "law_worst_rel": float(law_worst),
        "adjoint_worst_rel": float(adjoint_worst),
        "krylov_vs_dense_worst_rel": float(krylov_worst),
        "dimension": op.dim,
    }


def check_gallery_claims(seed=42):
    """Every built-in problem's expected fingerprint validates end to end."""
    results = {name: validate_expected(GALLERY[name](), seed=seed) for name in sorted(GALLERY)}
    passed = all(res["passed"] for res in results.values())
    return passed, {
        name: {
            "passed": res["passed"],
            "claims": {key: item["passed"] for key, item in res["claims"].items()},
        }
        for name, res in results.items()
    }


CHECKS = {
    "laplacian_spectrum": check_laplacian_spectrum,
    "harmonic_oscillator": check_harmonic_oscillator,
    "form_axioms": check_form_axioms,
    "beurling_denny": check_beurling_denny,
    "contraction": check_contraction,
    "positivity_dichotomy": check_positivity_dichotomy,
    "eigenvalue_sandwich": check_eigenvalue_sandwich,
    "counterexample_merge": check_counterexample_merge,
    "antisymmetric_continuity": check_antisymmetric_continuity,
    "semigroup_structure": check_semigroup_structure,
    "gallery_claims": check_gallery_claims,
}


def run_checks(names=None, seed: int = 42) -> list:
    """Run the named checks (all by default) and collect CheckResults.

    Each check runs at its pinned sizes and tolerances.  A check that raises
    is recorded as failed with the error message — it never aborts the
    remaining checks.
    """
    if names is None:
        names = list(CHECKS)
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        raise ValueError(f"unknown checks {unknown}; known: {sorted(CHECKS)}")
    results = []
    for name in names:
        start = time.perf_counter()
        try:
            passed, detail = CHECKS[name](seed=seed)
        except Exception as exc:  # noqa: BLE001 - verdicts must record failures
            passed, detail = False, {"error": f"{type(exc).__name__}: {exc}"}
        results.append(
            CheckResult(
                name=name,
                passed=passed,
                runtime_s=time.perf_counter() - start,
                detail=detail,
            )
        )
    return results
