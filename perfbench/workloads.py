"""The three workloads: their CLI arguments and the checks of their outputs.

Each workload is run as ``python -m matschrod.cli <args> --out DIR``.  Its
``check`` reads DIR and the exit code, and returns how many operations were
attempted, how many the program itself reported as failed, and the
conditions that the reference computation found violated on the others.
A process that exits 3 (solver failure) fails all its ``operations``.
"""
from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

#: the eleven checks, as ``matschrod verify`` runs them by default
CHECK_NAMES = (
    "laplacian_spectrum",
    "harmonic_oscillator",
    "form_axioms",
    "beurling_denny",
    "contraction",
    "positivity_dichotomy",
    "eigenvalue_sandwich",
    "counterexample_merge",
    "antisymmetric_continuity",
    "semigroup_structure",
    "gallery_claims",
)

#: the checks draw their problem sizes from the CLI seed (seed 11 runs in
#: two thirds of the time of seed 42) and the order in which they run moves
#: the peak RSS by 15%, so verify always runs the pinned configuration: the
#: default order at the CLI's default seed 42
VERIFY_ARGS = ["verify", "--seed", "42"]

V_MATRIX = [[1.0, -0.4], [-0.4, 2.0]]
V_FLAG = '--coefficients.v={"kind":"constant","matrix":[[1,-0.4],[-0.4,2]]}'

SPECTRUM_3D = {"d": 3, "N": 24, "m": 2, "L": 1.0, "q": (1.0, 1.37, 1.83), "k": 10}
EVOLVE_2D = {"d": 2, "N": 200, "m": 2, "L": 10.0, "q": (1.0, 1.7)}
#: the CLI's default propagator.times
EVOLVE_TIMES = (0.01, 0.1, 1.0)

#: allowance for roundoff on top of the Krylov budget tol * ||f0||_2; the
#: largest error measured on evolve-2d is below 1e-12 * ||f0||_2
ROUNDOFF_REL = 1e-11


@dataclass
class Outcome:
    attempted: int
    failed: int
    problems: list


@dataclass(frozen=True)
class Workload:
    name: str
    operations: int
    args: Callable[[int], list]
    setup_args: list
    check: Callable[[Path, int, int], Outcome]


def _grid_flags(spec: dict) -> list:
    return [f"--grid.{key}={spec[key]}" for key in ("d", "N", "m", "L")]


def _q_flag(spec: dict) -> str:
    entries = ",".join(repr(q) for q in spec["q"])
    return '--coefficients.q={"kind":"diagonal","entries":[' + entries + "]}"


def _read_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _verdicts(outdir: Path) -> dict:
    return _read_json(outdir / "verdicts.json")


# -- verify ---------------------------------------------------------------------


def verify_args(seed: int) -> list:
    return list(VERIFY_ARGS)


def _check_verify_detail(name: str, det: dict, v: oracles.Verdict):
    if name == "laplacian_spectrum":
        v.require(det["N"] == 200 and det["k"] == 20, "laplacian_spectrum: not N=200, k=20")
        exact = oracles.dirichlet_eigenvalues(1.0, 200)[:20]
        got = np.asarray(det["eigenvalues"])
        v.require(got.shape == exact.shape and np.all(np.abs(got - exact) <= 1e-10 * exact),
                  "laplacian_spectrum: eigenvalues off the closed form by more than 1e-10")
    elif name == "harmonic_oscillator":
        v.require(det["N"] == 2000 and det["L"] == 10.0, "harmonic_oscillator: not N=2000, L=10")
        odd = np.array([1.0, 3.0, 5.0, 7.0, 9.0])
        got = np.asarray(det["eigenvalues"])
        v.require(got.shape == odd.shape and np.all(np.abs(got - odd) <= 5e-3 * odd),
                  "harmonic_oscillator: eigenvalues off the odd integers by more than 0.5%")
    elif name == "form_axioms":
        v.require(det["trials"] == 10_000 and det["failures"] == 0, "form_axioms: not 10000 clean trials")
    elif name == "beurling_denny":
        v.require(det["trials"] == 1000 and det["failures"] == 0, "beurling_denny: not 1000 clean trials")
    elif name == "contraction":
        v.require(det["contraction_verdicts"] == ["pass"] * 4, "contraction: not four passing operators")
        v.require(det["max_ratio"] <= 1.0 + 1e-8, "contraction: a mixed-norm ratio exceeds 1 + 1e-8")
        v.require(det["interpolation_ok"] is True, "contraction: interpolation bound violated")
    elif name == "positivity_dichotomy":
        v.require(det["total"] == 50 and det["correct"] == 50, "positivity_dichotomy: not 50 of 50 cases")
    elif name == "eigenvalue_sandwich":
        v.require(det["sandwich_passed"] == [True] * 5 and det["monotone_ok"] is True,
                  "eigenvalue_sandwich: not five bracketed fields with monotone increments")
    elif name == "counterexample_merge":
        v.require(det["m2_passed"] and det["m3_passed"] and not det["control_passed"],
                  "counterexample_merge: merge or its detuned control misbehaves")
    elif name == "antisymmetric_continuity":
        ratios = det["ratios"]
        v.require(len(ratios) == 5 and all(a < b for a, b in zip(ratios, ratios[1:])),
                  "antisymmetric_continuity: not five increasing ratios")
    elif name == "semigroup_structure":
        v.require(det["dimension"] == 600, "semigroup_structure: not dimension 600")
        v.require(det["krylov_vs_dense_worst_rel"] <= 1e-8, "semigroup_structure: Krylov off dense by > 1e-8")
    elif name == "gallery_claims":
        v.require(sorted(det) == ["antisymmetric_continuity", "coupled_confining",
                                  "degenerate_counterexample", "harmonic_oscillator"],
                  "gallery_claims: not the four gallery problems")
        v.require(all(item["passed"] and all(item["claims"].values()) for item in det.values()),
                  "gallery_claims: a claim failed")


def check_verify(outdir: Path, exit_code: int, seed: int) -> Outcome:
    records = {rec["name"]: rec for rec in _verdicts(outdir)["records"]}
    v = oracles.Verdict()
    v.require(sorted(records) == sorted(CHECK_NAMES), f"verify ran {sorted(records)}")
    failed = 0
    for name in CHECK_NAMES:
        rec = records.get(name)
        if rec is None or not rec["passed"]:
            failed += 1
            continue
        _check_verify_detail(name, rec["detail"], v)
    v.require((exit_code == 0) == (failed == 0), f"exit code {exit_code} with {failed} failed checks")
    return Outcome(len(CHECK_NAMES), failed, v.problems)


# -- spectrum-3d ----------------------------------------------------------------


def _spectrum_flags() -> list:
    return _grid_flags(SPECTRUM_3D) + [_q_flag(SPECTRUM_3D), V_FLAG]


def spectrum_args(seed: int) -> list:
    return ["spectrum"] + _spectrum_flags() + [f"--solver.k={SPECTRUM_3D['k']}", "--seed", str(seed)]


def check_spectrum(outdir: Path, exit_code: int, seed: int) -> Outcome:
    k = SPECTRUM_3D["k"]
    resolved = _read_json(outdir / "resolved-config.json")
    v = oracles.Verdict()
    v.require(resolved["grid"] == {key: SPECTRUM_3D[key] for key in ("d", "L", "N", "m")}
              and resolved["solver"]["k"] == k, "resolved config is not the requested problem")
    detail = _verdicts(outdir)["records"][0]["detail"]
    with open(outdir / "spectrum.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    eig = np.array([float(r["eigenvalue"]) for r in rows])
    res = np.array([float(r["residual"]) for r in rows])
    bound = resolved["solver"]["tol"] * detail["matrix_norm"]
    failed = int(np.sum(res > bound)) + max(0, k - len(rows))
    v.require(exit_code == (0 if failed == 0 else 1), f"exit code {exit_code} with {failed} uncertified pairs")
    if len(rows) == k:
        s = SPECTRUM_3D
        exact = oracles.constant_coupling_spectrum(s["q"], V_MATRIX, s["L"], s["N"], k)
        certified = res <= bound
        v.problems += oracles.check_spectrum(eig[certified], exact[certified], bound).problems
    return Outcome(k, failed, v.problems)


# -- evolve-2d ------------------------------------------------------------------


def evolve_impulse(seed: int) -> tuple:
    """Node (flat index) and component of the seed's impulse, near the centre."""
    rng = random.Random(seed)
    N = EVOLVE_2D["N"]
    ij = [N // 2 - 1 + rng.randint(-3, 3) for _ in range(EVOLVE_2D["d"])]
    return ij[0] * N + ij[1], rng.randrange(EVOLVE_2D["m"])


def _evolve_flags() -> list:
    return _grid_flags(EVOLVE_2D) + [_q_flag(EVOLVE_2D), V_FLAG]


def evolve_args(seed: int) -> list:
    node, comp = evolve_impulse(seed)
    state = json.dumps({"kind": "impulse", "node": node, "component": comp}, separators=(",", ":"))
    return ["evolve"] + _evolve_flags() + ["--evolve.initial_state=" + state, "--seed", str(seed)]


def load_snapshots(path: Path, m: int, N: int, d: int) -> dict:
    """snapshots.csv (t, node, x_0..x_{d-1}, component, value) -> {t: (m, N, .., N)}."""
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    n_nodes = N**d
    out = {}
    for t in np.unique(table[:, 0]):
        rows = table[table[:, 0] == t]
        if rows.shape[0] != m * n_nodes:
            raise ValueError(f"snapshot t={t} has {rows.shape[0]} rows, expected {m * n_nodes}")
        idx = rows[:, d + 2].astype(int) * n_nodes + rows[:, 1].astype(int)
        values = np.empty(m * n_nodes)
        values[idx] = rows[:, -1]
        out[float(t)] = values.reshape((m,) + (N,) * d)
    return out


def check_evolve(outdir: Path, exit_code: int, seed: int) -> Outcome:
    e = EVOLVE_2D
    resolved = _read_json(outdir / "resolved-config.json")
    times = [float(t) for t in resolved["propagator"]["times"]]
    v = oracles.Verdict()
    v.require(resolved["grid"] == {key: e[key] for key in ("d", "L", "N", "m")}
              and times == list(EVOLVE_TIMES), "resolved config is not the requested problem")
    failed_t = set()
    with open(outdir / "probes.csv", newline="") as fh:
        for rec in csv.DictReader(fh):
            if rec["guaranteed"] == "True" and float(rec["ratio"]) > 1.0 + 1e-8:
                failed_t.add(float(rec["t"]))
    v.require((exit_code == 0) == (not failed_t), f"exit code {exit_code} with failed times {sorted(failed_t)}")
    snaps = load_snapshots(outdir / "snapshots.csv", e["m"], e["N"], e["d"])
    v.require(sorted(snaps) == [0.0] + times, f"snapshot times {sorted(snaps)}")
    node, comp = evolve_impulse(seed)
    impulse = np.zeros(e["m"] * e["N"] ** e["d"])
    impulse[comp * e["N"] ** e["d"] + node] = 1.0
    f0 = snaps.get(0.0)
    v.require(f0 is not None and np.array_equal(f0.ravel(), impulse), "t=0 snapshot is not the impulse")
    if v.ok:
        h = oracles.grid_spacing(e["L"], e["N"])
        p_list = [float("inf") if p == "inf" else float(p) for p in resolved["propagator"]["p_list"]]
        verdicts = oracles.check_propagation(
            {t: snaps[t] for t in times if t not in failed_t}, f0, e["q"], V_MATRIX, e["L"], e["N"],
            resolved["propagator"]["tol"], ROUNDOFF_REL, h ** e["d"], p_list,
        )
        for verdict in verdicts.values():
            v.problems += verdict.problems
    return Outcome(len(times), len(failed_t), v.problems)


WORKLOADS = {
    "verify": Workload("verify", len(CHECK_NAMES), verify_args, ["assemble"], check_verify),
    "spectrum-3d": Workload("spectrum-3d", SPECTRUM_3D["k"], spectrum_args, ["assemble"] + _spectrum_flags(), check_spectrum),
    "evolve-2d": Workload("evolve-2d", len(EVOLVE_TIMES), evolve_args, ["assemble"] + _evolve_flags(), check_evolve),
}
