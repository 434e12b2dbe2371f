"""Reference computations made apart from matschrod, and the output checks.

Everything here is numpy on the closed forms of separable problems:
with a constant diagonal diffusion Q = diag(q_1, .., q_d) and a potential
that is either a constant m x m matrix V or separable, the generator is a
Kronecker sum

    B = V (x) I + I_m (x) sum_i q_i K_i,

where K_i is the 1-d Dirichlet operator (1/h^2) tridiag(-1, 2, -1) along
axis i (plus a diagonal potential when V is separable).  Its spectrum is
every sum of one eigenvalue per axis plus one eigenvalue of V, and

    e^{-tB} = e^{-tV} (x) e^{-t q_1 K} (x) ... (x) e^{-t q_d K},

each 1-d factor applied through the sine eigenbasis of K.  Nothing in this
module imports matschrod.
"""
from __future__ import annotations

import itertools
import math

import numpy as np


def grid_spacing(L: float, N: int) -> float:
    return 2.0 * L / (N + 1)


def dirichlet_eigenvalues(L: float, N: int) -> np.ndarray:
    """All eigenvalues (4/h^2) sin^2(k pi / (2(N+1))), k = 1..N, ascending."""
    h = grid_spacing(L, N)
    k = np.arange(1, N + 1)
    return (4.0 / h**2) * np.sin(k * np.pi / (2.0 * (N + 1))) ** 2


def dirichlet_sine_basis(N: int) -> np.ndarray:
    """Orthonormal eigenvectors of tridiag(-1, 2, -1), one per column."""
    k = np.arange(1, N + 1)
    return math.sqrt(2.0 / (N + 1)) * np.sin(np.outer(k, k) * np.pi / (N + 1))


def separable_spectrum(axis_eigs, v_eigs, k: int) -> np.ndarray:
    """The k smallest sums lambda_1 + ... + lambda_d + v, with multiplicity.

    ``axis_eigs`` holds one ascending eigenvalue array per axis and
    ``v_eigs`` the eigenvalues of the coupling matrix.  Only the k lowest
    levels of each axis can take part in the k lowest sums.
    """
    heads = [np.sort(np.asarray(e, dtype=float))[:k] for e in axis_eigs]
    sums = [float(sum(c)) for c in itertools.product(*heads)]
    levels = np.add.outer(np.array(sums), np.asarray(v_eigs, dtype=float)).ravel()
    return np.sort(levels)[:k]


def constant_coupling_spectrum(q_diag, V, L: float, N: int, k: int) -> np.ndarray:
    """Lowest k eigenvalues of B for constant diagonal Q and constant V."""
    mu = dirichlet_eigenvalues(L, N)
    return separable_spectrum([q * mu for q in q_diag], np.linalg.eigvalsh(np.asarray(V, dtype=float)), k)


def separable_propagate(f0: np.ndarray, t: float, q_diag, V, L: float, N: int) -> np.ndarray:
    """e^{-tB} f0 for f0 of shape (m, N, .., N), constant diagonal Q and V."""
    S = dirichlet_sine_basis(N)
    mu = dirichlet_eigenvalues(L, N)
    w, U = np.linalg.eigh(np.asarray(V, dtype=float))
    out = np.tensordot(U @ np.diag(np.exp(-t * w)) @ U.T, f0, axes=(1, 0))
    for axis, q in enumerate(q_diag):
        factor = (S * np.exp(-t * q * mu)) @ S
        out = np.moveaxis(np.tensordot(factor, out, axes=(1, axis + 1)), 0, axis + 1)
    return out


def mixed_norm(values: np.ndarray, p: float, cell_volume: float) -> float:
    """Euclidean norm over components (axis 0), weighted l^p over nodes."""
    s = np.sqrt((values.reshape(values.shape[0], -1) ** 2).sum(axis=0))
    if math.isinf(p):
        return float(s.max())
    return float((cell_volume * (s**p).sum()) ** (1.0 / p))


class Verdict:
    """Collects the failed conditions of one checked output."""

    def __init__(self):
        self.problems = []

    def require(self, cond, message: str):
        if not cond:
            self.problems.append(message)

    @property
    def ok(self) -> bool:
        return not self.problems


def check_spectrum(eigenvalues, exact, bound: float) -> Verdict:
    """Index by index, each eigenvalue lies within ``bound`` of the exact one."""
    v = Verdict()
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    v.require(eigenvalues.shape == np.shape(exact), f"{eigenvalues.size} eigenvalues, expected {np.size(exact)}")
    if v.ok:
        for i in np.flatnonzero(np.abs(eigenvalues - exact) > bound):
            v.require(False, f"eigenvalue {i}: {eigenvalues[i]!r} vs exact {exact[i]!r} (bound {bound:.3g})")
    return v


def check_propagation(snapshots: dict, f0: np.ndarray, q_diag, V, L: float, N: int, tol: float,
                      roundoff: float, cell_volume: float, p_list) -> dict:
    """Per snapshot time: distance to the exact solution, contraction, positivity.

    Returns one Verdict per time.  The error budget is the propagator's own
    tol * ||f0||_2 (Euclidean, as the propagator measures it) plus
    ``roundoff * ||f0||_2``.
    """
    f0_norm = float(np.linalg.norm(f0))
    floor = -1e-10 * float(np.abs(f0).max())
    norms_in = {p: mixed_norm(f0, p, cell_volume) for p in p_list}
    out = {}
    for t, ft in snapshots.items():
        v = Verdict()
        err = float(np.linalg.norm(ft - separable_propagate(f0, t, q_diag, V, L, N)))
        v.require(err <= (tol + roundoff) * f0_norm, f"t={t}: error {err:.3e} exceeds budget")
        for p in p_list:
            ratio = mixed_norm(ft, p, cell_volume) / norms_in[p]
            v.require(ratio <= 1.0 + 1e-8, f"t={t}: ||T(t)f||_{p} ratio {ratio!r} > 1 + 1e-8")
        v.require(float(ft.min()) >= floor, f"t={t}: min component {ft.min()!r} below {floor:.3e}")
        out[t] = v
    return out
