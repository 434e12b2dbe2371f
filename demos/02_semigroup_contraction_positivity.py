"""Propagate the semigroup and probe contraction and positivity.

A two-component system coupled through the off-diagonal potential entry.
The semigroup contracts every mixed norm ||f||_p regardless of how the
components are coupled — but whether it maps componentwise-nonnegative
states to nonnegative states depends entirely on the *sign* of the
coupling: nonpositive off-diagonal entries preserve positivity, and a
region of positive coupling destroys it, with an explicit witness.
"""
import numpy as np

from matschrod import (
    VectorState,
    assemble_form,
    assemble_operator,
    build_grid,
    contraction_probe,
    default_config,
    positivity_probe,
    sample_fields,
    violation_witness,
)


def coupled_operator(grid, sign):
    """Confining diagonal plus a localized off-diagonal coupling of given sign."""

    def v_fn(x):
        w = sign * 0.8 * np.exp(-(x[0] ** 2))
        base = 1.0 + x[0] ** 2
        return np.array([[base, w], [w, base]])

    diffusion, potential = sample_fields(lambda x: np.eye(1), v_fn, grid)
    return assemble_operator(assemble_form(diffusion, potential, grid))


def probe_states(grid, rng):
    bump = np.array([np.exp(-4.0 * xi**2) for xi in grid.node_coords()[:, 0]])
    nonneg = VectorState(grid, np.vstack([bump, 0.5 * bump]))
    noise = VectorState(grid, rng.standard_normal((2, grid.n_nodes)))
    return [nonneg, noise]


def main():
    rng = np.random.default_rng(7)
    grid = build_grid(d=1, L=6.0, N=160, m=2)

    # -- nonpositive coupling: contraction and certified positivity ----------
    op = coupled_operator(grid, sign=-1.0)
    config = default_config(op, times=(0.05, 0.5, 2.0), p_list=(1.0, 2.0, 4.0, np.inf))
    states = probe_states(grid, rng)

    report = contraction_probe(op, states, config)
    print("nonpositive off-diagonal coupling")
    print(f"  contraction probe: verdict = {report.verdict!r}")
    worst = max(r["ratio"] for r in report.records if r["ratio"] is not None)
    print(f"  worst ||T(t)f||_p / ||f||_p over p in {{1, 2, 4, oo}}: {worst:.12f}")

    pos = positivity_probe(op, [states[0]], (0.05, 0.5, 2.0))
    floor = min(r["min_component"] for r in pos.records)
    print(f"  positivity probe:  verdict = {pos.verdict!r} (guaranteed = {pos.guaranteed})")
    print(f"  smallest propagated component: {floor:.3e}")
    print()

    # -- positive coupling: positivity fails, with a witness ------------------
    op = coupled_operator(grid, sign=+1.0)
    pos = positivity_probe(op, [states[0]], (0.05, 0.5, 2.0))
    print("positive off-diagonal coupling (same magnitude, opposite sign)")
    print(f"  positivity probe:  verdict = {pos.verdict!r}")

    hunt = violation_witness(op, i=0, j=1)
    w = hunt.witness
    print(f"  witness hunt:      verdict = {hunt.verdict!r}")
    print(
        f"  starting from a bump in component 0, component 1 at x = {w['coords'][0]:+.3f} "
        f"reaches {w['value']:.3e} by t = {w['t']:.3e}"
    )
    print("  (leading order: the coupling pumps -t * v_01(x) * bump(x) into component 1)")

    # contraction is indifferent to the sign of the coupling
    config = default_config(op, times=(0.05, 0.5, 2.0), p_list=(1.0, 2.0, 4.0, np.inf))
    report = contraction_probe(op, probe_states(grid, rng), config)
    worst = max(r["ratio"] for r in report.records if r["ratio"] is not None)
    print(f"  contraction probe still passes: worst ratio = {worst:.12f}")


if __name__ == "__main__":
    main()
