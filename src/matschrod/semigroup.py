"""Semigroup propagation e^{-tB} and measurement probes.

B is the symmetric generator of a ``SymmetricOperator``, bounded below by
c = min(0, min V) because its diffusion part is PSD.  Three propagators are
available; ``default_config`` picks ``exact-dense`` up to DENSE_LIMIT, then
``exact-separable`` for an operator with the closed form, and
``lanczos-expmv`` for every other one:

* ``exact-dense`` — full eigendecomposition, cached on the operator, for
  dimensions <= 3000.  All property verdicts should use this when the size
  permits.
* ``exact-separable`` — when Q is one constant diagonal matrix and V one
  constant matrix, W DST-I e^{-t mu} DST-I W^T from the closed form
  ``operators._separable`` (cached on the operator), exact in O(n log n)
  on numpy alone: only the Krylov propagators import SciPy.  Forcing it
  on any other operator raises ValueError.  The benchmark's ``evolve-2d``
  takes this path, so its traced ``semigroup.propagate_krylov_s`` reads 0
  and the propagation time shows up under ``semigroup.total_s``.
* ``lanczos-expmv`` — Krylov projection on bases from ``operators._lanczos``,
  the eigensolver's row-layout kernel, in one of two regimes chosen from
  t ||B||_oo and ``krylov_dim``:

  - *polynomial* when t ||B|| <= (4 krylov_dim)^2.  Polynomial Lanczos needs
    O(sqrt(t ||B||)) work (Hochbruck & Lubich, SINUM 34, 1997), so here a few
    substeps cover t.  With basis V_k and tridiagonal T_k the defect of a
    substep is beta_k |u_k(s)|, and the error is bounded by its time
    integral times the amplification e^{-c (t - t_done)} up to t.  Substeps
    are halved until the bound fits a proportional share of the budget
    tol * ||f0||; if a subspace size cannot make progress it is doubled, and
    after three sizes the propagator raises, as it does upfront for a tol
    below the roundoff floor e^{-tc} 2e-13.
  - *shift-invert* above that.  Rayleigh-Ritz on the Krylov space of
    M^{-1}, M = I + gamma (B - c I) with gamma = t/10, converges
    independently of ||B|| (van den Eshof & Hochbruck, SISC 27, 2006).  The
    subspace size is fixed a priori by the near-optimality bound
    2 ||f0|| e^{-tc} E_{k-1} (Beckermann & Reichel, SINUM 47, 2009; Guettel,
    GAMM-Mitt. 36, 2013), E_{k-1} the uniform error of a Chebyshev
    interpolant that depends on k only; one SPD factorization per call.

  A failure raises ConvergenceError with the state and time reached.

Every propagator raises ConvergenceError, before any work, when its growth
bound overflows a float: e^{-t lambda_min} for the exact ones, e^{-tc} for
Krylov.

Probes record raw measurements (norm ratios, minimum components) together
with the verdict thresholds, so every verdict can be recomputed from the
stored numbers.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import chebyshev as cheb

from .errors import ConvergenceError
from .grid import VectorState, _require_same_grid, mixed_norm, smooth_bump_profile
from .operators import DENSE_LIMIT, SymmetricOperator, _factor_spd, _lanczos, _separable_map

__all__ = [
    "PropagatorConfig",
    "ProbeReport",
    "propagate",
    "contraction_probe",
    "strong_continuity_probe",
    "positivity_probe",
    "violation_witness",
]

_METHODS = ("exact-dense", "exact-separable", "lanczos-expmv")
#: largest argument of exp with a finite result
_EXP_MAX = float(np.log(np.finfo(float).max))
_P_ALLOWED = (1.0, 2.0, 4.0, np.inf)


@dataclass(frozen=True)
class PropagatorConfig:
    """How to propagate and what to measure."""

    method: str = "exact-dense"
    times: tuple = (0.01, 0.1, 1.0)
    krylov_dim: int = 30
    tol: float = 1e-10
    p_list: tuple = (1.0, 2.0, 4.0, np.inf)

    def __post_init__(self):
        object.__setattr__(self, "times", tuple(float(t) for t in self.times))
        object.__setattr__(self, "p_list", tuple(float(p) for p in self.p_list))
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}, got {self.method!r}")
        if any(t < 0 for t in self.times) or any(
            a >= b for a, b in zip(self.times, self.times[1:])
        ):
            raise ValueError(f"times must be nonnegative and strictly increasing, got {self.times}")
        if self.krylov_dim < 2:
            raise ValueError("krylov_dim must be >= 2")
        if not self.tol > 0:
            raise ValueError("tolerance must be positive")
        if not self.p_list or any(p not in _P_ALLOWED for p in self.p_list):
            raise ValueError(f"p_list must be a nonempty subset of {{1, 2, 4, inf}}, got {self.p_list}")

    def conjugate_exponents(self) -> tuple:
        """Hoelder conjugates p' = p/(p-1), with 1 <-> inf."""
        out = []
        for p in self.p_list:
            if p == 1.0:
                out.append(np.inf)
            elif np.isinf(p):
                out.append(1.0)
            else:
                out.append(p / (p - 1.0))
        return tuple(out)


def default_config(op: SymmetricOperator, **kwargs) -> PropagatorConfig:
    """Exact-dense when the dimension permits, else exact-separable where it applies, else Krylov."""
    if op.dim <= DENSE_LIMIT:
        method = "exact-dense"
    elif op.separable is not None:
        method = "exact-separable"
    else:
        method = "lanczos-expmv"
    return PropagatorConfig(method=method, **kwargs)


# -- propagators ---------------------------------------------------------


def propagate(op: SymmetricOperator, f0: VectorState, t: float, config: PropagatorConfig | None = None) -> VectorState:
    """Apply e^{-tB} to a state.

    A failure raises ConvergenceError whose ``partial`` is
    ``{"state": ..., "t_reached": ...}``, the furthest certified point (f0
    at 0 when the growth bound would overflow).
    """
    _require_same_grid(op.grid, f0.grid)
    t = float(t)
    if t < 0:
        raise ValueError(f"propagation time must be nonnegative, got {t}")
    if t == 0.0:
        return f0.with_values(f0.values)
    if config is None:
        config = default_config(op)
    x = f0.flat().copy()
    if config.method == "exact-dense":
        w, u = op.dense_eig()
        _require_finite_growth(f0, t, w[0], config.method)
        y = u @ (np.exp(-t * w) * (u.T @ x))
    elif config.method == "exact-separable":
        if op.separable is None:
            raise ValueError("exact-separable propagation needs one constant diagonal Q and one constant V")
        mu, w = op.separable
        _require_finite_growth(f0, t, mu.min(), config.method)
        decay = np.exp(-t * mu)
        y = _separable_map(mu, w, lambda z: z * decay)(x)
    else:
        _require_finite_growth(f0, t, min(0.0, op.potential_min_eigenvalue), config.method)
        try:
            y = _krylov_expm(op, x, t, config.krylov_dim, config.tol)
        except ConvergenceError as exc:
            values, t_reached = exc.partial
            exc.partial = {"state": f0.with_values(values), "t_reached": t_reached}
            raise
    return f0.with_values(y)


def _require_finite_growth(f0, t, lam, method):
    """Raise ConvergenceError when e^{-t lam}, lam <= lambda_min(B), overflows."""
    if -t * lam > _EXP_MAX:
        raise ConvergenceError(
            f"{method} propagation overflows at t={t:g}: the lower bound {lam:.6g} of B gives a growth "
            f"e^({-t * lam:.6g}) beyond the largest float",
            partial={"state": f0.with_values(f0.values), "t_reached": 0.0},
        )


def _krylov_expm(op, v, t, kdim, tol):
    """e^{-tB} v by Lanczos, shift-invert when t ||B|| is too stiff for kdim.

    A polynomial subspace of size k covers a step tau with tau ||B|| up to
    about k^2.  ``4 kdim`` is the largest one tried, so above
    t ||B|| = (4 kdim)^2 even it cannot cover t in one step, and the
    shift-invert space, whose size does not depend on ||B||, takes over.
    """
    if np.linalg.norm(v) == 0.0:
        return v.copy()
    c = min(0.0, op.potential_min_eigenvalue)  # lambda_min(B) >= c
    if t * op.generator_norm_bound() > (4 * kdim) ** 2:
        return _shift_invert_expm(op.generator(), v, t, c, tol)
    return _polynomial_expm(op.generator(), v, t, kdim, c, tol)


# -- polynomial Lanczos ----------------------------------------------------


def _simpson(y, x) -> float:
    """Composite Simpson's rule for samples y at an odd number of points x.

    Term for term the odd-count rule of ``scipy.integrate.simpson`` (spacing
    may vary from panel to panel), so results agree bit for bit without the
    cost of importing ``scipy.integrate``.  An even point count raises.
    """
    y = np.asarray(y)
    if y.size % 2 == 0:
        raise ValueError(f"Simpson's rule needs an odd number of points, got {y.size}")
    h = np.diff(x)
    h0, h1 = h[0::2], h[1::2]
    hsum = h0 + h1
    hprod = h0 * h1
    h0divh1 = np.true_divide(h0, h1, out=np.zeros_like(h0), where=h1 != 0)
    h1divh0 = np.true_divide(1.0, h0divh1, out=np.zeros_like(h0divh1), where=h0divh1 != 0)
    panel = np.true_divide(hsum, hprod, out=np.zeros_like(hsum), where=hprod != 0)
    tmp = hsum / 6.0 * (
        y[:-2:2] * (2.0 - h1divh0) + y[1:-1:2] * (hsum * panel) + y[2::2] * (2.0 - h0divh1)
    )
    return float(np.sum(tmp))


def _krylov_step_error(lam, weights, last_row, beta_next, tau) -> float:
    """Integral bound beta_k int_0^tau |u_k(s)| ds for one Krylov substep."""
    s = np.linspace(0.0, tau, 33)
    u_last = (last_row * weights) @ np.exp(-np.outer(lam, s))
    return beta_next * _simpson(np.abs(u_last), s)


#: roundoff of the polynomial propagator relative to e^{-tc} ||v||, measured
#: at up to 1.6e-13 against closed forms and dense solves
_POLY_ROUNDOFF = 2e-13


def _polynomial_expm(b, v, t, kdim, c, tol):
    """Adaptive-substep polynomial Lanczos; enlarges the subspace on failure.

    The defect bound covers truncation only, so a tol below the roundoff
    floor e^{-tc} _POLY_ROUNDOFF is refused before any work.
    """
    floor = float(np.exp(-t * c)) * _POLY_ROUNDOFF
    if floor > tol:
        raise ConvergenceError(
            f"Krylov propagator failed to meet tol={tol:g}: roundoff amplified by "
            f"e^(-tc) is {floor:.2e}, which no subspace enlargements can reduce",
            partial=(v, 0.0),
        )
    budget = tol * np.linalg.norm(v)
    best = (v, 0.0)
    for k in (kdim, 2 * kdim, 4 * kdim):
        w, t_done = _krylov_expm_fixed(b, v, t, min(k, v.size), c, budget)
        if t_done >= t:
            return w
        if t_done > best[1]:
            best = (w, t_done)
    raise ConvergenceError(
        f"Krylov propagator failed to meet tol={tol:g} after 3 subspace enlargements",
        partial=best,
    )


def _krylov_expm_fixed(b, v, t, kdim, c, budget):
    """Substeps at subspace size kdim; returns (state, time reached).

    The defect of a substep started at t_done is amplified by at most
    e^{-c (t - t_done)} up to time t, since B >= c I with c <= 0.
    """
    import scipy.linalg

    w = v.copy()
    t_done = 0.0
    steps = 0
    while t_done < t:
        nv = np.linalg.norm(w)
        if nv == 0.0:
            return w, t
        *_, (basis, alphas, betas) = _lanczos(b.dot, w, kdim)
        lam, vecs = scipy.linalg.eigh_tridiagonal(alphas, betas[:-1])
        weights = vecs[0] * nv
        beta_next = betas[-1]  # 0 on happy breakdown: the projection is exact
        amp = float(np.exp(-c * (t - t_done)))
        tau = t - t_done
        while True:
            err = 0.0 if beta_next == 0.0 else amp * _krylov_step_error(
                lam, weights, vecs[-1], beta_next, tau
            )
            if err <= budget * (tau / t):
                break
            if tau <= t * 1e-10:
                return w, t_done
            tau *= 0.5
        w = basis.T @ (vecs @ (np.exp(-tau * lam) * weights))
        t_done += tau
        steps += 1
        if steps > 512:
            break
    return w, t_done


# -- shift-invert Lanczos --------------------------------------------------

#: t / gamma for the shift-invert matrix I + gamma (B - c I)
_SI_RATIO = 10.0
#: largest shift-invert subspace; the interpolation errors reach roundoff near 40
_SI_MAX_DIM = 48


@functools.cache
def _rational_errors() -> np.ndarray:
    """E[k-1] = uniform error on [0, 1] of the degree-(k-1) Chebyshev interpolant of g.

    g(y) = exp(-r (1/y - 1)) with r = _SI_RATIO is e^{-t(lambda - c)} in the
    variable y = 1 / (1 + gamma (lambda - c)), which maps [c, oo) onto
    (0, 1].  The maximum is taken on 8193 Chebyshev-clustered points.
    """
    x = -np.cos(np.linspace(0.0, np.pi, 8193))

    def g(x):
        y = np.maximum((x + 1.0) / 2.0, 1e-300)
        return np.exp(-_SI_RATIO * np.minimum(1.0 / y - 1.0, 1e3))

    exact = g(x)
    errors = np.array([
        np.max(np.abs(cheb.chebval(x, cheb.chebinterpolate(g, deg)) - exact))
        for deg in range(_SI_MAX_DIM)
    ])
    errors.setflags(write=False)  # one cached array serves every caller
    return errors


def _shift_invert_expm(b, v, t, c, tol):
    """e^{-tB} v by Rayleigh-Ritz on K_k(M^{-1}, v), M = I + gamma (B - c I), gamma = t/10.

    M >= I is SPD.  For Hermitian B the Rayleigh-Ritz approximation
    V e^{-t V^T B V} V^T v is within 2 ||v|| e^{-tc} E[k-1] of e^{-tB} v,
    E as in ``_rational_errors`` (Beckermann & Reichel, SINUM 47, 2009),
    so k is the smallest size whose bound meets tol ||v|| — independent of
    ||B|| and of t.
    """
    import scipy.linalg
    import scipy.sparse as sparse

    bound = 2.0 * np.exp(-t * c) * _rational_errors()
    fits = np.flatnonzero(bound <= tol)
    if fits.size == 0:
        raise ConvergenceError(
            f"Krylov propagator failed to meet tol={tol:g}: shift-invert subspace "
            f"enlargements up to {_SI_MAX_DIM} leave the error bound at {bound.min():.2e}",
            partial=(v, 0.0),
        )
    gamma = t / _SI_RATIO
    n = v.size
    shifted = (1.0 - gamma * c) * sparse.identity(n, format="csr") + gamma * b
    lu = _factor_spd(shifted)
    *_, (basis, _, _) = _lanczos(lu.solve, v, min(int(fits[0]) + 1, n))
    lam, vecs = scipy.linalg.eigh(basis @ (b @ basis.T))
    return basis.T @ (vecs @ (np.exp(-t * lam) * (vecs[0] * np.linalg.norm(v))))


# -- probe reports -------------------------------------------------------


@dataclass
class ProbeReport:
    """Raw probe measurements plus the verdict derived from them.

    ``records`` is one dict per measurement; ``threshold`` is the slack used
    by the verdict so that ``recompute_verdict()`` can reproduce it from the
    stored numbers alone.
    """

    kind: str
    records: list
    verdict: str
    guaranteed: bool
    threshold: float
    witness: dict | None = None
    meta: dict = field(default_factory=dict)

    def recompute_verdict(self) -> str:
        if self.kind == "contraction":
            gated = [rec["ratio"] for rec in self.records if rec["guaranteed"] and rec["ratio"] is not None]
            if not gated:
                return "untested"
            return "pass" if all(ratio <= 1.0 + self.threshold for ratio in gated) else "fail"
        if self.kind == "strong-continuity":
            if not self.guaranteed:
                return "untested"
            return "pass" if all(r["interpolation_ok"] and r["trend_ok"] for r in self.records) else "fail"
        if self.kind == "positivity":
            floor = -self.threshold
            ok = all(rec["min_component"] >= floor for rec in self.records)
            return "positive" if ok else "violations"
        if self.kind == "violation-witness":
            return "violation-found" if self.witness is not None else "not-found"
        raise ValueError(f"unknown probe kind {self.kind!r}")


# -- probes --------------------------------------------------------------


def contraction_probe(op: SymmetricOperator, f_list, config: PropagatorConfig) -> ProbeReport:
    """Measure ||T(t) f||_p / ||f||_p over the configured times and exponents.

    Ratios are guaranteed <= 1 (up to 1e-8 slack) for p = 2 with a PSD
    potential, and additionally for p in {1, 4, inf} when the diffusion is
    diagonal (p = 4 by interpolation between 2 and inf).  Zero states are
    recorded but skipped.  The verdict covers the guaranteed records only;
    everything else is informational, and with no guaranteed record the
    verdict is ``"untested"``.
    """
    slack = 1e-8
    records = []
    for idx, f in enumerate(f_list):
        norms_in = {p: mixed_norm(f, p) for p in config.p_list}
        if norms_in[config.p_list[0]] == 0.0:
            for t in config.times:
                for p in config.p_list:
                    records.append(
                        {
                            "f_index": idx, "t": t, "p": p, "norm_in": 0.0,
                            "norm_out": 0.0, "ratio": None, "guaranteed": False,
                            "note": "zero input skipped",
                        }
                    )
            continue
        for t in config.times:
            gt = propagate(op, f, t, config)
            for p in config.p_list:
                guaranteed = op.potential_psd and (p == 2.0 or op.q_diagonal)
                records.append(
                    {
                        "f_index": idx, "t": t, "p": p, "norm_in": norms_in[p],
                        "norm_out": mixed_norm(gt, p),
                        "ratio": mixed_norm(gt, p) / norms_in[p],
                        "guaranteed": guaranteed, "note": "",
                    }
                )
    report = ProbeReport(
        kind="contraction",
        records=records,
        verdict="",
        guaranteed=op.potential_psd and op.q_diagonal,
        threshold=slack,
        meta={"times": list(config.times), "p_list": list(config.p_list),
              "conjugate_exponents": list(config.conjugate_exponents())},
    )
    report.verdict = report.recompute_verdict()
    return report


def strong_continuity_probe(
    op: SymmetricOperator,
    f: VectorState,
    t_list,
    p: float,
    config: PropagatorConfig | None = None,
) -> ProbeReport:
    """Check ||T(t)f - f||_p -> 0 with the two-norm interpolation bound.

    For p > 2 and theta = 2/p each time must satisfy

        ||T(t)f - f||_p <= 2^(1-theta) ||f||_oo^(1-theta) ||T(t)f - f||_2^theta,

    and the deviations must decrease (within slack) along the given times
    taken in decreasing order — pass a dyadic sequence to probe the t -> 0
    trend.  The factor 2 ||f||_oo bounds ||T(t)f - f||_oo only for an
    L^oo-contractive semigroup (diagonal diffusion, PSD potential); for any
    other operator the records are informational and the verdict is
    ``"untested"``.
    """
    p = float(p)
    if p <= 2.0:
        raise ValueError(f"interpolation probe needs p > 2, got {p}")
    theta = 2.0 / p
    sup_f = mixed_norm(f, np.inf)
    slack = 1e-10 * (1.0 + sup_f)
    ts = sorted(float(t) for t in t_list)
    if any(t < 0 for t in ts):
        raise ValueError("times must be nonnegative")
    devs = []
    for t in ts:
        diff = propagate(op, f, t, config) - f
        devs.append((t, mixed_norm(diff, p), mixed_norm(diff, 2)))
    records = []
    prev_dev = None
    for t, dev_p, dev_2 in devs:
        bound = 2.0 ** (1.0 - theta) * sup_f ** (1.0 - theta) * dev_2**theta
        trend_ok = True if prev_dev is None else dev_p >= prev_dev - slack
        records.append(
            {
                "t": t, "p": p, "deviation_p": dev_p, "deviation_2": dev_2,
                "interpolation_bound": bound,
                "interpolation_ok": dev_p <= bound + 1e-12 * (1.0 + bound),
                "trend_ok": trend_ok,
            }
        )
        prev_dev = dev_p
    report = ProbeReport(
        kind="strong-continuity",
        records=records,
        verdict="",
        guaranteed=op.potential_psd and op.q_diagonal,
        threshold=slack,
        meta={"theta": theta, "sup_norm": sup_f},
    )
    report.verdict = report.recompute_verdict()
    return report


def positivity_probe(op: SymmetricOperator, vfield, f_list, t_list, config: PropagatorConfig | None = None) -> ProbeReport:
    """Propagate nonnegative states and track the minimum component.

    When every off-diagonal potential entry is <= 0 and the diffusion is
    diagonal, the generator has no positive off-diagonal entries and the
    propagated states stay nonnegative up to roundoff; the verdict then
    certifies the guarantee.  Otherwise the verdict reports the measurements
    only.  Negative inputs are rejected.
    """
    f_list = list(f_list)
    for idx, f in enumerate(f_list):
        if f.values.min() < 0:
            raise ValueError(f"positivity probe needs nonnegative states, f_list[{idx}] is not")
    scale = max((mixed_norm(f, np.inf) for f in f_list), default=0.0)
    threshold = 1e-10 * scale
    records = []
    for idx, f in enumerate(f_list):
        for t in t_list:
            gt = propagate(op, f, float(t), config)
            records.append(
                {"f_index": idx, "t": float(t), "min_component": float(gt.values.min())}
            )
    guaranteed = op.q_diagonal and vfield.offdiag_max <= 0.0
    report = ProbeReport(
        kind="positivity",
        records=records,
        verdict="",
        guaranteed=guaranteed,
        threshold=threshold,
        meta={"offdiag_max": vfield.offdiag_max, "q_diagonal": op.q_diagonal, "scale": scale},
    )
    report.verdict = report.recompute_verdict()
    return report


def violation_witness(
    op: SymmetricOperator,
    vfield,
    i: int,
    j: int,
    t_grid=None,
    delta_rel: float = 1e-8,
    config: PropagatorConfig | None = None,
) -> ProbeReport:
    """Hunt for loss of positivity caused by a positive coupling v_ij > 0.

    Starts from the nonnegative state f = bump * e_i centered where v_ij is
    most positive; to leading order the propagated j-th component there is
    -t v_ij(x) bump(x) < 0.  Sweeps a geometric time grid and returns the
    first (t, node) whose j-th component drops below -delta_rel * ||f||_oo.
    An unsuccessful sweep is reported explicitly, never silently.
    """
    m = op.grid.m
    if not (0 <= i < m and 0 <= j < m) or i == j:
        raise ValueError(f"need distinct component indices below {m}, got ({i}, {j})")
    coupling = vfield.samples[:, i, j]
    if coupling.max() <= 0.0:
        raise ValueError(f"no node carries a positive ({i},{j}) coupling; nothing to witness")
    center = op.grid.node_coords()[int(np.argmax(coupling))]
    radii = np.linalg.norm(op.grid.node_coords() - center, axis=1)
    values = np.zeros((m, op.grid.n_nodes))
    values[i] = smooth_bump_profile(radii)
    f = VectorState(op.grid, values)
    delta = delta_rel * mixed_norm(f, np.inf)
    if t_grid is None:
        t_grid = np.geomspace(1e-3, 1.0, 13)
    records = []
    witness = None
    for t in t_grid:
        gt = propagate(op, f, float(t), config)
        comp = gt.values[j]
        node = int(np.argmin(comp))
        records.append({"t": float(t), "min_component_j": float(comp[node]), "node": node})
        if witness is None and comp[node] <= -delta:
            witness = {
                "t": float(t),
                "node": node,
                "component": j,
                "value": float(comp[node]),
                "coords": op.grid.node_coords()[node].tolist(),
            }
            break
    report = ProbeReport(
        kind="violation-witness",
        records=records,
        verdict="",
        guaranteed=False,
        threshold=delta,
        witness=witness,
        meta={"i": i, "j": j, "center": center.tolist(), "delta_rel": delta_rel},
    )
    report.verdict = report.recompute_verdict()
    return report
