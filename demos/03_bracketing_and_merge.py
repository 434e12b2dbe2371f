"""Two exact relationships between vector and scalar spectra.

First: for a positive-semidefinite matrix potential V, the scalar operators
built from the pointwise smallest and largest eigenvalue of V(x) bracket
the vector spectrum index by index.

Second: when the potential is v(x) * J with J the coupling matrix of the
complete graph on m components, the vector operator diagonalizes into
scalar blocks, and its spectrum is *exactly* the sorted merge of the block
spectra — eigenvalue crossings, coincidences and all.  A small detuning of
a single matrix entry destroys the block structure, and the merge fails.
"""
import numpy as np

from matschrod import (
    assemble_form,
    assemble_operator,
    build_grid,
    build_problem,
    pointwise_extremal_eigs,
    sample_fields,
    sandwich_check,
    spectrum_merge_check,
)


def main():
    # -- scalar comparison operators bracket the vector spectrum -------------
    grid = build_grid(d=1, L=5.0, N=120, m=2)

    def v_fn(x):
        a = 1.0 + 0.5 * np.sin(x[0])
        b = 0.4 * np.cos(2.0 * x[0])
        v = np.array([[2.0 + a, b], [b, 2.0 - 0.3 * a]])
        return v @ v.T  # PSD by construction

    diffusion, potential = sample_fields(lambda x: np.eye(1), v_fn, grid)
    mu, nu = pointwise_extremal_eigs(potential)
    print("pointwise extremal eigenvalues of V(x):")
    print(f"  floor mu(x) in [{mu.min():.3f}, {mu.max():.3f}], "
          f"ceiling nu(x) in [{nu.min():.3f}, {nu.max():.3f}]")

    report = sandwich_check(assemble_operator(assemble_form(diffusion, potential, grid)), k=8)
    lo_margin, hi_margin = report.margins()
    print(f"  index-wise bracket lambda_n(mu I) <= lambda_n(V) <= lambda_n(nu I): "
          f"passed = {report.passed}")
    print(f"  {'n':>2}  {'lower':>12}  {'eigenvalue':>12}  {'upper':>12}  {'margins':>21}")
    for n in range(8):
        print(
            f"  {n:>2}  {report.lower[n]:>12.6f}  {report.eigenvalues[n]:>12.6f}  "
            f"{report.upper[n]:>12.6f}  {lo_margin[n]:>10.4f} {hi_margin[n]:>10.4f}"
        )
    print()

    # -- complete-graph coupling: the spectrum is a merge of scalar blocks ---
    problem = build_problem("degenerate_counterexample", m=2, N=320)
    merge = spectrum_merge_check(problem, k=12)
    print(f"complete-graph coupling v(x) = x^2, m = 2 components, N = {problem.potential.grid.N}")
    print("  block multipliers and lowest block eigenvalues:")
    for c, eigs in sorted(merge.block_eigenvalues.items()):
        head = ", ".join(f"{lam:.6f}" for lam in eigs[:4])
        print(f"    c = {c}:  {head}, ...")
    print(f"  vector spectrum == sorted merge of blocks: passed = {merge.passed}")
    print(f"  {'n':>2}  {'vector':>12}  {'merged':>12}  {'deviation':>10}")
    for n in range(12):
        print(
            f"  {n:>2}  {merge.vector_eigenvalues[n]:>12.6f}  "
            f"{merge.merged_eigenvalues[n]:>12.6f}  {merge.deviations[n]:>10.2e}"
        )
    print()

    # -- detune one entry: the block structure (and the merge) break ---------
    detuned = build_problem("degenerate_counterexample", m=2, N=320, detune=0.35)
    broken = spectrum_merge_check(detuned, k=12)
    print(f"same problem with entry (0, 0) detuned by 0.35 * v(x):")
    print(f"  merge against the undetuned blocks: passed = {broken.passed}, "
          f"max deviation = {broken.deviations.max():.4f}")
    print("  (the coincidence is exact only for the symmetric coupling)")


if __name__ == "__main__":
    main()
