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
  t ||B||_oo alone:

  - *polynomial* when t ||B|| <= (4 _KRYLOV_DIM)^2 = 14400, at the one
    subspace size _KRYLOV_DIM = 30.  Polynomial Lanczos needs
    O(sqrt(t ||B||)) work (Hochbruck & Lubich, SINUM 34, 1997), so here
    substeps cover t: 22 of them at t ||B|| = 14400 (1 - 1e-6) on a 1-d
    harmonic operator.  With basis V_k and tridiagonal T_k the defect of a
    substep is beta_k |u_k(s)|, and the error is bounded by its time
    integral times the amplification e^{-c (t - t_done)} up to t.  Substeps
    are halved until the bound fits a proportional share of the budget
    tol * ||f0||.  A tol below the roundoff floor e^{-tc} 2e-13 is refused
    upfront; a substep halved below 1e-10 t, or t not reached in 512
    substeps, raises.
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

Each probe draws its verdict where it measures, and reports it with the raw
measurements (norm ratios, minimum components) and the threshold it
allowed.  Whether a guarantee applies is read from the operator:
``contracts_in(p)`` for the contraction and strong-continuity probes,
``positivity_preserving`` for the positivity probe.  A probe that measured
nothing reads ``"untested"``.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .grid import VectorState, _require_same_grid, mixed_norm, smooth_bump_profile
from .operators import DENSE_LIMIT, SymmetricOperator, _factor_spd, _lanczos, _separable_basis

__all__ = [
    "PropagatorConfig",
    "ProbeReport",
    "default_config",
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
    tol: float = 1e-10
    p_list: tuple = (1.0, 2.0, 4.0, np.inf)

    def __post_init__(self):
        object.__setattr__(self, "times", tuple(float(t) for t in self.times))
        object.__setattr__(self, "p_list", tuple(float(p) for p in self.p_list))
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}, got {self.method!r}")
        if not all(np.isfinite(self.times)) or any(t < 0 for t in self.times) or any(
            a >= b for a, b in zip(self.times, self.times[1:])
        ):
            raise ValueError(f"propagator.times must be finite, nonnegative and strictly increasing, got {self.times}")
        if not 0 < self.tol < np.inf:
            raise ValueError(f"tolerance must be finite and positive, got {self.tol}")
        if not self.p_list or any(p not in _P_ALLOWED for p in self.p_list):
            raise ValueError(f"p_list must be a nonempty subset of {{1, 2, 4, inf}}, got {self.p_list}")


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


#: below this largest entry, eps max|f| is subnormal and a state is propagated scaled
_TINY = 2.0**-970
#: at or above this largest entry a state is propagated scaled too: below it a
#: sum of squares of entries (each under 2^800) stays finite over 2^223 of them,
#: more than any state holds, so every norm the propagators take is finite
_HUGE = 2.0**400


def propagate(op: SymmetricOperator, f0: VectorState, t: float, config: PropagatorConfig | None = None) -> VectorState:
    """Apply e^{-tB} to a state.

    A state whose largest entry is below 2^-970, or at least 2^400, is
    propagated scaled by a power of 2 that brings that entry into [1/2, 1),
    and scaled back after: unscaled, the roundoff eps max|f| of a tiny state
    would be subnormal, as coarse as 5e-4 of a 1e-320 state, and the squares
    in a huge state's norms would overflow.  Both scalings are exact or round
    monotonically, so a contracting result stays within its input.  A result
    that overflows once scaled back raises ConvergenceError.

    A failure raises ConvergenceError whose ``partial`` is
    ``{"state": ..., "t_reached": ...}``, the furthest certified point (f0
    at 0 when the growth bound would overflow).
    """
    _require_same_grid(op.grid, f0.grid)
    t = float(t)
    if not 0 <= t < np.inf:
        raise ValueError(f"propagation time must be finite and nonnegative, got {t}")
    if t == 0.0:
        return f0.with_values(f0.values)
    if config is None:
        config = default_config(op)
    x = f0.flat().copy()
    peak = max(x.max(), -x.min())
    scale = -int(np.frexp(peak)[1]) if 0.0 < peak < _TINY or peak >= _HUGE else 0
    if scale:
        x = np.ldexp(x, scale)
    if config.method == "exact-dense":
        w, u = op.dense_eig()
        _require_finite_growth(f0, t, w[0], config.method)
        y = u @ (np.exp(-t * w) * (u.T @ x))
    elif config.method == "exact-separable":
        if op.separable is None:
            raise ValueError("exact-separable propagation needs one constant diagonal Q and one constant V")
        mu, w = op.separable
        _require_finite_growth(f0, t, mu.min(), config.method)
        analyse, synthesize = _separable_basis(mu, w)
        y = synthesize(analyse(x) * np.exp(-t * mu))
    else:
        c = min(0.0, op.potential.min_eigenvalue)  # lambda_min(B) >= c
        _require_finite_growth(f0, t, c, config.method)
        # a size-_KRYLOV_DIM polynomial space needs more substeps as t ||B|| grows;
        # the shift-invert space, whose size does not depend on ||B||, takes the stiff side
        stiff = t * op.generator_norm_bound() > (4 * _KRYLOV_DIM) ** 2
        kernel = _shift_invert_expm if stiff else _polynomial_expm
        try:
            y = x if np.linalg.norm(x) == 0.0 else kernel(op.generator(), x, t, c, config.tol)
        except ConvergenceError as exc:
            values, t_reached = exc.partial
            exc.partial = {"state": f0.with_values(np.ldexp(values, -scale)), "t_reached": t_reached}
            raise
    if scale:
        # frexp's exponent e puts max|y| below 2^e, and 2^(e - scale) at most 2^1024 is finite
        if np.frexp(max(y.max(), -y.min()))[1] - scale > 1024:
            raise ConvergenceError(
                f"{config.method} propagation overflows at t={t:g}: e^(-tB) f0 has an entry beyond the largest float",
                partial={"state": f0.with_values(f0.values), "t_reached": 0.0},
            )
        y = np.ldexp(y, -scale)
    return f0.with_values(y)


def _require_finite_growth(f0, t, lam, method):
    """Raise ConvergenceError when e^{-t lam}, lam <= lambda_min(B), overflows."""
    if -t * lam > _EXP_MAX:
        raise ConvergenceError(
            f"{method} propagation overflows at t={t:g}: the lower bound {lam:.6g} of B gives a growth "
            f"e^({-t * lam:.6g}) beyond the largest float",
            partial={"state": f0.with_values(f0.values), "t_reached": 0.0},
        )


# -- polynomial Lanczos ----------------------------------------------------

#: the polynomial Lanczos subspace size
_KRYLOV_DIM = 30


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


#: most substeps one polynomial propagation may take: a safety exit, far above
#: the 22 a 1-d harmonic operator takes just below the shift-invert threshold
_MAX_SUBSTEPS = 512


def _polynomial_expm(b, v, t, c, tol):
    """Polynomial Lanczos at subspace size _KRYLOV_DIM, in substeps from t = 0 to t.

    Each substep starts with tau the remaining time and halves it until the
    defect bound, amplified by at most e^{-c (t - t_done)} up to time t since
    B >= c I with c <= 0, fits the share tau / t of the budget tol ||v||.
    The bound covers truncation only, so a tol below the roundoff floor
    e^{-tc} _POLY_ROUNDOFF is refused before any work.  A tau halved below
    1e-10 t, or a t not reached in _MAX_SUBSTEPS substeps, raises with the
    state and time reached.
    """
    import scipy.linalg

    floor = float(np.exp(-t * c)) * _POLY_ROUNDOFF
    if floor > tol:
        raise ConvergenceError(
            f"Krylov propagator failed to meet propagator.tol={tol:g}: its floor, the roundoff "
            f"{_POLY_ROUNDOFF:g} amplified by e^(-tc), is {floor:.2e}",
            partial=(v, 0.0),
        )
    budget = tol * np.linalg.norm(v)
    w, t_done = v, 0.0
    for _ in range(_MAX_SUBSTEPS):
        *_, (basis, alphas, betas) = _lanczos(b.__matmul__, w, min(_KRYLOV_DIM, v.size))
        lam, vecs = scipy.linalg.eigh_tridiagonal(alphas, betas[:-1])
        weights = vecs[0] * np.linalg.norm(w)
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
                raise ConvergenceError(
                    f"Krylov propagator failed to meet tol={tol:g}: its substep fell below "
                    f"1e-10 t after reaching t={t_done:g}",
                    partial=(w, t_done),
                )
            tau *= 0.5
        w = basis.T @ (vecs @ (np.exp(-tau * lam) * weights))
        t_done += tau
        if t_done >= t:
            return w
    raise ConvergenceError(
        f"Krylov propagator failed to meet tol={tol:g}: {_MAX_SUBSTEPS} substeps reached only t={t_done:g}",
        partial=(w, t_done),
    )


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
    from numpy.polynomial import chebyshev as cheb

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

    bound = 2.0 * np.exp(-t * c) * _rational_errors()
    fits = np.flatnonzero(bound <= tol)
    if fits.size == 0:
        raise ConvergenceError(
            f"Krylov propagator failed to meet propagator.tol={tol:g}: its floor, the shift-invert "
            f"error bound at subspace sizes up to {_SI_MAX_DIM}, is {bound.min():.2e}",
            partial=(v, 0.0),
        )
    gamma = t / _SI_RATIO
    lu = _factor_spd(b.shifted(gamma, 1.0 - gamma * c))
    *_, (basis, _, _) = _lanczos(lu.solve, v, min(int(fits[0]) + 1, v.size))
    lam, vecs = scipy.linalg.eigh(basis @ np.column_stack([b @ row for row in basis]))
    return basis.T @ (vecs @ (np.exp(-t * lam) * (vecs[0] * np.linalg.norm(v))))


# -- probes --------------------------------------------------------------

#: slack on a guaranteed contraction ratio ||T(t) f||_p / ||f||_p <= 1
_CONTRACTION_SLACK = 1e-8


@dataclass
class ProbeReport:
    """A probe's raw measurements and the verdict it drew from them.

    ``records`` is one dict per measurement and ``threshold`` the slack the
    verdict allowed; ``guaranteed`` says whether the operator satisfies the
    condition under which the theory promises a passing verdict.
    """

    records: list
    verdict: str
    guaranteed: bool
    threshold: float
    witness: dict | None = None


def _norm_ratio_records(op: SymmetricOperator, f: VectorState, p_list, evolved) -> list:
    """||f||_p, ||T(t) f||_p and their ratio, per (t, T(t) f) of ``evolved`` and p of ``p_list``.

    A record is guaranteed to have ratio <= 1 when ``op.contracts_in(p)``;
    a zero f has no ratio, so its records guarantee nothing.
    """
    norms_in = {p: mixed_norm(f, p) for p in p_list}
    records = []
    for t, ft in evolved:
        for p in p_list:
            norm_out = mixed_norm(ft, p)
            ratio = norm_out / norms_in[p] if norms_in[p] > 0 else None
            records.append({
                "t": t, "p": p, "norm_in": norms_in[p], "norm_out": norm_out, "ratio": ratio,
                "guaranteed": ratio is not None and op.contracts_in(p),
            })
    return records


def _contraction_violations(records) -> list | None:
    """The guaranteed records whose ratio is not within 1 + slack; None when no record is guaranteed."""
    gated = [rec for rec in records if rec["guaranteed"]]
    return [rec for rec in gated if not rec["ratio"] <= 1.0 + _CONTRACTION_SLACK] if gated else None


def contraction_probe(op: SymmetricOperator, f_list, config: PropagatorConfig) -> ProbeReport:
    """Measure ||T(t) f||_p / ||f||_p over the configured times and exponents.

    Ratios are guaranteed <= 1 (up to 1e-8 slack) where ``op.contracts_in(p)``.
    Zero states are recorded but not propagated.  The verdict covers the
    guaranteed records only; everything else is informational, and with no
    guaranteed record the verdict is ``"untested"``.
    """
    records = []
    for idx, f in enumerate(f_list):
        zero = not f.values.any()
        evolved = [(t, f if zero else propagate(op, f, t, config)) for t in config.times]
        records += [{"f_index": idx, **rec} for rec in _norm_ratio_records(op, f, config.p_list, evolved)]
    violations = _contraction_violations(records)
    verdict = "untested" if violations is None else "fail" if violations else "pass"
    return ProbeReport(records, verdict, op.contracts_in(np.inf), _CONTRACTION_SLACK)


def strong_continuity_probe(op: SymmetricOperator, f: VectorState, t_list, p: float) -> ProbeReport:
    """Check ||T(t)f - f||_p -> 0 with the two-norm interpolation bound.

    For p > 2 and theta = 2/p each time must satisfy

        ||T(t)f - f||_p <= 2^(1-theta) ||f||_oo^(1-theta) ||T(t)f - f||_2^theta,

    and the deviations must decrease (within slack) along the given times
    taken in decreasing order — pass a dyadic sequence to probe the t -> 0
    trend.  The factor 2 ||f||_oo bounds ||T(t)f - f||_oo only for an
    L^oo-contractive semigroup (``op.contracts_in(inf)``); for any other
    operator the records are informational, and the verdict is
    ``"untested"``, as it is for an empty ``t_list`` or a zero ``f``, whose
    deviations and bounds are all 0.
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
    records = []
    prev_dev = None
    for t in ts:
        diff = propagate(op, f, t) - f
        dev_p, dev_2 = mixed_norm(diff, p), mixed_norm(diff, 2)
        bound = 2.0 ** (1.0 - theta) * sup_f ** (1.0 - theta) * dev_2**theta
        records.append(
            {
                "t": t, "p": p, "deviation_p": dev_p, "deviation_2": dev_2,
                "interpolation_bound": bound,
                "interpolation_ok": dev_p <= bound + 1e-12 * (1.0 + bound),
                "trend_ok": prev_dev is None or dev_p >= prev_dev - slack,
            }
        )
        prev_dev = dev_p
    guaranteed = op.contracts_in(np.inf)
    ok = all(r["interpolation_ok"] and r["trend_ok"] for r in records)
    verdict = ("pass" if ok else "fail") if guaranteed and records and sup_f > 0.0 else "untested"
    return ProbeReport(records, verdict, guaranteed, slack)


def positivity_probe(op: SymmetricOperator, f_list, t_list) -> ProbeReport:
    """Propagate nonnegative states and track the minimum component.

    When ``op.positivity_preserving`` (diagonal diffusion, every off-diagonal
    potential entry <= 0) the generator has no positive off-diagonal entries
    and the propagated states stay nonnegative up to roundoff; the verdict
    then certifies the guarantee.  Otherwise the verdict reports the
    measurements only.  With no record, or only zero states, the verdict is
    ``"untested"``.  Negative inputs are rejected.
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
            gt = propagate(op, f, float(t))
            records.append(
                {"f_index": idx, "t": float(t), "min_component": float(gt.values.min())}
            )
    ok = all(rec["min_component"] >= -threshold for rec in records)
    verdict = ("positive" if ok else "violations") if records and scale > 0.0 else "untested"
    return ProbeReport(records, verdict, op.positivity_preserving, threshold)


#: times swept by ``violation_witness``, and the depth below zero, relative
#: to ||f||_oo, that a j-th component must reach to count as a witness
_WITNESS_TIMES = tuple(np.geomspace(1e-3, 1.0, 13).tolist())
_WITNESS_DELTA_REL = 1e-8


def violation_witness(op: SymmetricOperator, i: int, j: int) -> ProbeReport:
    """Hunt for loss of positivity caused by a positive coupling v_ij > 0.

    Starts from the nonnegative state f = bump * e_i centered where the
    operator's v_ij is most positive; to leading order the propagated j-th
    component there is -t v_ij(x) bump(x) < 0.  Sweeps ``_WITNESS_TIMES``
    and returns the first (t, node) whose j-th component drops below
    -``_WITNESS_DELTA_REL`` * ||f||_oo.  An unsuccessful sweep is reported
    explicitly, never silently.
    """
    m = op.grid.m
    if not (0 <= i < m and 0 <= j < m) or i == j:
        raise ValueError(f"need distinct component indices below {m}, got ({i}, {j})")
    coupling = op.potential.samples[:, i, j]
    if coupling.max() <= 0.0:
        raise ValueError(f"no node carries a positive ({i},{j}) coupling; nothing to witness")
    center = op.grid.node_coords()[int(np.argmax(coupling))]
    radii = np.linalg.norm(op.grid.node_coords() - center, axis=1)
    values = np.zeros((m, op.grid.n_nodes))
    values[i] = smooth_bump_profile(radii)
    f = VectorState(op.grid, values)
    delta = _WITNESS_DELTA_REL * mixed_norm(f, np.inf)
    records = []
    witness = None
    for t in _WITNESS_TIMES:
        gt = propagate(op, f, t)
        comp = gt.values[j]
        node = int(np.argmin(comp))
        records.append({"t": t, "min_component_j": float(comp[node]), "node": node})
        if comp[node] <= -delta:
            witness = {
                "t": t,
                "node": node,
                "component": j,
                "value": float(comp[node]),
                "coords": op.grid.node_coords()[node].tolist(),
            }
            break
    return ProbeReport(records, "not-found" if witness is None else "violation-found", False, delta, witness)
