"""One operator recipe and one oracle that reads nothing of matschrod.

A recipe ``(d, N, m, L, q, s, vmat)`` is the operator on [-L, L]^d with N
interior nodes per axis, m components, Q = diag(q_1, .., q_d) and
V(x) = vmat + sum_i s_i x_i^2 I_m.  Its generator B is the Kronecker sum of
one tridiagonal factor per axis,

    T_i = (q_i / h^2) tridiag(-1, 2, -1) + s_i diag(x^2),   h = 2L / (N + 1),

and of vmat on the components.  So the spectrum of B is every sum of one
level of each T_i and one eigenvalue of vmat, and e^{-tB} is e^{-t vmat}
times the e^{-t T_i}, one per axis.  The oracle solves each T_i with
``eigh_tridiagonal`` and vmat with ``eigh``; it never forms B.
"""
from typing import NamedTuple

import numpy as np
import scipy.linalg


class Kronecker(NamedTuple):
    d: int
    N: int
    m: int
    L: float
    q: tuple
    s: tuple
    vmat: np.ndarray


def recipe(d, N, m, L=1.0, q=1.0, s=0.0, v=0.0):
    """A Kronecker recipe; a scalar q or s holds on every axis, and a scalar v is v I_m."""
    q, s = (tuple(float(c) for c in np.broadcast_to(c, (d,))) for c in (q, s))
    vmat = np.asarray(v, dtype=float) * (np.eye(m) if np.ndim(v) == 0 else 1.0)
    return Kronecker(d, N, m, float(L), q, s, vmat)


def random_potential(kind, m, rng, level):
    """vmat = level I_m ("scaled_identity": every eigenvalue repeated m times), or a random
    symmetric matrix ("coupled"), shifted by level I_m ("negative")."""
    if kind == "scaled_identity":
        return level * np.eye(m)
    a = rng.standard_normal((m, m))
    return (a + a.T) / 2.0 + (level if kind == "negative" else 0.0) * np.eye(m)


def nodes(r):
    """The interior nodes of one axis."""
    h = 2.0 * r.L / (r.N + 1)
    return -r.L + h * np.arange(1, r.N + 1)


def samples(r):
    """Q on the (N + 1)^d cells and V on the N^d nodes, C-ordered, as matschrod's fields take them."""
    x = np.stack(np.meshgrid(*[nodes(r)] * r.d, indexing="ij"), axis=-1).reshape(-1, r.d)
    v = r.vmat + ((x**2) @ np.array(r.s))[:, None, None] * np.eye(r.m)
    return np.broadcast_to(np.diag(r.q), ((r.N + 1) ** r.d, r.d, r.d)), v


def _axis(r, i, k=None):
    """Every eigenpair of T_i, or its k lowest eigenvalues, solved on a copy scaled by a
    power of 2, so that the squares the solver forms stay in range at both ends of the float range."""
    h = 2.0 * r.L / (r.N + 1)
    c = r.q[i] / h**2
    diag, e = 2.0 * c + r.s[i] * nodes(r) ** 2, np.full(r.N - 1, -c)
    p = int(np.frexp(max(np.abs(diag).max(), c))[1])
    select = ("a", None) if k is None else ("i", (0, min(k, r.N) - 1))
    out = scipy.linalg.eigh_tridiagonal(np.ldexp(diag, -p), np.ldexp(e, -p), k is not None, *select)
    return (np.ldexp(out[0], p), out[1]) if k is None else np.ldexp(out, p)


def eigenvalues(r, k):
    """The k lowest eigenvalues of B with multiplicity, ascending: the k lowest level sums."""
    sums = np.linalg.eigvalsh(r.vmat)[:k]
    for i in range(r.d):
        sums = np.sort(np.add.outer(sums, _axis(r, i, k)), axis=None)[:k]
    return sums


def propagate(r, f0, t):
    """e^{-tB} f0 for f0 of m N^d values, component-major, in f0's shape."""
    w, u = np.linalg.eigh(r.vmat)
    ft = ((u * np.exp(-t * w)) @ u.T) @ np.reshape(f0, (r.m, -1))
    ft = ft.reshape((r.m,) + (r.N,) * r.d)
    for i in range(r.d):
        lam, v = _axis(r, i)
        ft = np.moveaxis(np.tensordot((v * np.exp(-t * lam)) @ v.T, ft, axes=(1, i + 1)), 0, i + 1)
    return ft.reshape(np.shape(f0))
