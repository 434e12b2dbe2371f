"""End-to-end CLI runs: artifacts, exit codes, reproducibility."""
import csv
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matschrod
from matschrod import checks, cli
from matschrod._float_repr import repr_bytes
from matschrod import operators as operators_module
from matschrod import semigroup
from matschrod.checks import run_checks
from matschrod.semigroup import _simpson

import _kronecker as kronecker


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


# -- assemble --------------------------------------------------------------------


def test_assemble_artifacts_and_symmetry(tmp_path):
    rc = cli.main(["assemble", "--out", str(tmp_path), "--grid.N=32"])
    assert rc == 0
    resolved = _read_json(tmp_path / "resolved-config.json")
    assert resolved["grid"]["N"] == 32
    assert resolved["output"]["directory"] == str(tmp_path)
    verdicts = _read_json(tmp_path / "verdicts.json")
    assert verdicts["subcommand"] == "assemble"
    assert verdicts["all_passed"] is True
    detail = verdicts["records"][0]["detail"]
    assert detail["stored_symmetry_gap"] == 0.0
    assert detail["dimension"] == 32


def test_seed_flag_lands_in_verdicts(tmp_path):
    rc = cli.main(["assemble", "--out", str(tmp_path), "--seed", "7"])
    assert rc == 0
    assert _read_json(tmp_path / "verdicts.json")["seed"] == 7


# -- the oracle table: every exit 0 of spectrum and evolve ---------------------------

#: the flag of a run that passes its own certificate with a wrong spectrum
_ITEM_2 = "wrong spectrum, ROADMAP item 2"


class _Run(NamedTuple):
    # id is None in a test that was not parametrized; rtol tightens the oracle's bound,
    # detail pins entries of the verdict's detail, and a flagged run must disagree with the oracle
    id: str | None
    argv: list
    method: str
    passed: bool | None = True
    shift: float | None = None
    rtol: float | None = None
    detail: dict = {}
    flag: str | None = None


_HARMONIC_2D = ["--grid.d=2", "--coefficients.v.kind=harmonic"]
_NEGATIVE = ["spectrum", *_HARMONIC_2D, "--grid.N=10", "--coefficients.v.scale=-400", "--solver.k=6"]
_CONSTANT_STATE = "--evolve.initial_state.kind=constant"
_KRYLOV = ["evolve", *_HARMONIC_2D, "--grid.N=30", "--coefficients.v.scale=1.0", "--propagator.method=lanczos-expmv",
           _CONSTANT_STATE, "--evolve.initial_state.vector=[1e200]"]
#: CI's 2-d grid with two components and a diagonal Q, and its constant coupled V
_CI_2D = ["--grid.d=2", "--grid.m=2", '--coefficients.q={"kind":"diagonal","entries":[1.0,1.7]}']
_V_COUPLED = '--coefficients.v={"kind":"constant","matrix":[[1,-0.4],[-0.4,2]]}'

#: the oracle table: each test name maps to its runs, and the one test body
#: below checks each run against an oracle that does not read matschrod's B
_ORACLE_RUNS = {
    "test_spectrum_matches_closed_form": [
        _Run(None, ["spectrum", "--grid.N=64", "--solver.k=12"], "dense", rtol=1e-10)],
    "test_spectrum_csv_roundtrip": [_Run(None, ["spectrum", "--grid.N=20", "--solver.k=5"], "dense")],
    # forced Lanczos reads constant coefficients off the closed form; for a harmonic V
    # its shift-invert solve on the sparse LU of B + I misses a copy of 12.66997861
    "test_spectrum_verdict_echoes_the_lanczos_solve": [
        _Run("separable", ["spectrum", "--solver.method=lanczos", "--grid.d=2", "--grid.N=61", "--solver.k=4",
                           "--coefficients.v.kind=scaled_identity", "--coefficients.v.value=-50"], "separable"),
        _Run("splu", ["spectrum", "--solver.method=lanczos", *_HARMONIC_2D, "--grid.N=20", "--coefficients.v.scale=1",
                      "--solver.k=4"], "lanczos", shift=-1.0, flag=_ITEM_2)],
    # dimension 100: Lanczos misses a copy of -320.332339
    "test_forced_lanczos_keeps_the_multiplicities_of_a_strongly_negative_potential": [
        _Run(None, _NEGATIVE + ["--solver.method=dense"], "dense"),
        _Run(None, _NEGATIVE + ["--solver.method=lanczos"], "lanczos", shift=-536.5371900826448, flag=_ITEM_2)],
    # CI's LU Lanczos command, dimension 4,096: Lanczos misses a copy of 22.66824
    "test_lanczos_keeps_the_multiplicities_of_the_3d_harmonic_oscillator": [
        _Run(None, ["spectrum", "--grid.d=3", "--grid.N=16", "--coefficients.v.kind=harmonic",
                    "--coefficients.v.scale=1.0", "--solver.k=8"], "lanczos", shift=-1.0, flag=_ITEM_2)],
    # residuals measured on scaled copies at ||B|| = 1.9e300 and 4.2e-197
    "test_residuals_are_measured_at_both_ends_of_the_float_range": [
        _Run("huge", ["spectrum", *_HARMONIC_2D, "--grid.N=20", "--coefficients.v.scale=1e300"], "dense",
             detail={"max_residual": 1.5888440662648427e+284}),
        _Run("tiny", ["spectrum", "--coefficients.q.kind=scaled_identity", "--coefficients.q.value=1e-200"], "dense",
             detail={"max_residual": 5.9229875951624167e-213})],
    # (B + I)^-1 maps unit vectors near 1e-300; Lanczos misses three copies of 9.80296049e296
    "test_lanczos_certifies_an_operator_near_the_top_of_the_float_range": [
        _Run(None, ["spectrum", *_HARMONIC_2D, "--grid.N=100", "--coefficients.v.scale=1e300"], "lanczos",
             shift=-1.0, detail={"matrix_norm": 1.9215763160474465e+300}, flag=_ITEM_2)],
    # past 2^500 and below 2^-500 a tridiagonal B goes to dense eigh, as bisection squares it
    "test_dense_spectrum_of_a_huge_tridiagonal_b_matches_its_closed_form": [
        _Run(None, ["spectrum", "--coefficients.q.kind=scaled_identity", f"--coefficients.q.value={q}"], "dense",
             rtol=1e-12) for q in ("1e200", "1e-200")],
    "test_evolve_artifacts_and_contraction": [_Run(None, ["evolve", "--grid.N=48", "--coefficients.v.kind=harmonic",
                                                          "--coefficients.v.scale=1.0"], "exact-dense")],
    # no ratio is guaranteed to be at most 1, so the verdict is null with a reason
    "test_evolve_contraction_with_nothing_gated_is_null": [
        _Run("zero-state", ["evolve", '--evolve.initial_state={"kind":"random","scale":0}'], "exact-dense",
             passed=None, detail={"reason": "the initial state is zero"}),
        _Run("negative-potential", ["evolve", '--coefficients.v={"kind":"scaled_identity","value":-3}'],
             "exact-dense", passed=None, detail={"reason": "no (t, p) is guaranteed to contract: that needs a PSD "
                                                           "potential, and for p != 2 also a diagonal diffusion"})],
    "test_evolve_zero_state_guarantees_no_row": [
        _Run(None, ["evolve", "--grid.N=16", '--evolve.initial_state={"kind":"constant","vector":[0.0]}'],
             "exact-dense", passed=None, detail={"reason": "the initial state is zero"})],
    # the squares of a 1e-200 state underflow; the contraction probe must still see it
    "test_evolve_tiny_state_has_nonzero_norms": [
        _Run(None, ["evolve", "--grid.d=3", "--grid.N=10", "--grid.m=2",
                    '--evolve.initial_state={"kind": "random", "scale": 1e-200}'], "exact-dense")],
    "test_oracle": [
        # close pairs, as V is even and no node sits at 0: Lanczos misses a copy of 155552075.866
        _Run("d1-close-pair", ["spectrum", "--grid.N=400", "--grid.L=1", "--coefficients.v.kind=harmonic",
                               "--coefficients.v.scale=1e12", "--solver.k=6", "--solver.method=lanczos"],
             "lanczos", shift=-1.0, flag=_ITEM_2),
        # huge states, propagated scaled; a 1e308 state's L^1 norm overflows (a refusal row)
        _Run("huge-state-krylov-polynomial", _KRYLOV + ["--propagator.times=[0.01]"], "lanczos-expmv"),
        _Run("huge-state-krylov-shift-invert", _KRYLOV + ["--propagator.times=[10.0]"], "lanczos-expmv"),
        *[_Run(f"huge-state-{method}", ["evolve", *grid, _CONSTANT_STATE, "--evolve.initial_state.vector=[1e308]",
                                        '--propagator.p_list=[4,"inf"]'], method)
          for method, grid in [("exact-dense", []), ("exact-separable", ["--grid.d=2", "--grid.N=60"])]],
        # CI's commands: the closed-form 3-d spectrum, the Krylov evolve above DENSE_LIMIT,
        # the impulse evolve that repeats byte for byte, and the 3-d harmonic evolve
        _Run("ci-spectrum-separable", ["spectrum", "--grid.d=3", "--grid.N=24", "--grid.m=2", "--grid.L=1.0",
                                       '--coefficients.q={"kind":"diagonal","entries":[1.0,1.37,1.83]}', _V_COUPLED,
                                       "--solver.k=10"], "separable"),
        _Run("ci-evolve-harmonic", ["evolve", *_CI_2D, "--grid.N=40", "--coefficients.v.kind=harmonic",
                                    "--coefficients.v.scale=1.0", "--propagator.times=[0.01,0.1,1.0,10.0]"],
             "lanczos-expmv"),
        _Run("ci-evolve-impulse", ["evolve", *_CI_2D, "--grid.N=60", "--grid.L=10.0", _V_COUPLED,
                                   '--evolve.initial_state={"kind":"impulse","node":1769,"component":1}'],
             "exact-separable"),
        _Run("ci-evolve-harmonic-3d", ["evolve", "--grid.d=3", "--grid.N=10", "--grid.m=2",
                                       "--coefficients.v.kind=harmonic", "--coefficients.v.scale=1.0"], "exact-dense")],
}


def _recipe(config):
    """The Kronecker recipe of a run whose Q is diagonal and constant: every Q kind but a full constant matrix."""
    grid, q, v = config["grid"], config["coefficients"]["q"], config["coefficients"]["v"]
    q = {"identity": 1.0, "scaled_identity": q.get("value"), "diagonal": q.get("entries")}[q["kind"]]
    s = v["scale"] if v["kind"] == "harmonic" else 0.0
    vmat = {"zero": 0.0, "scaled_identity": v.get("value"), "constant": v.get("matrix"), "harmonic": 0.0}[v["kind"]]
    return kronecker.recipe(grid["d"], grid["N"], grid["m"], grid["L"], q, s, vmat)


def _spectrum_agrees(out, config, detail, rtol):
    """Check spectrum.csv against the verdict and its certificate; whether the oracle agrees."""
    with open(out / "spectrum.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["index", "eigenvalue", "residual"] and len(rows) == 1 + config["solver"]["k"]
    assert [row[0] for row in rows[1:]] == [str(i) for i in range(len(rows) - 1)]
    eigenvalues, residuals = np.array([row[1:] for row in rows[1:]], dtype=float).T
    bound = config["solver"]["tol"] * detail["matrix_norm"]
    assert eigenvalues.tolist() == detail["eigenvalues"] and residuals.max() == detail["max_residual"] <= bound
    # index by index, so a dropped copy fails
    oracle = kronecker.eigenvalues(_recipe(config), config["solver"]["k"])
    gap = np.abs(eigenvalues - oracle)
    return bool(np.all(gap <= bound) and (rtol is None or np.all(gap <= rtol * np.abs(oracle))))


def _evolve_agrees(out, config, detail, passed):
    """Check probes.csv, snapshots.csv and norms.dat against the verdict; whether the oracle agrees."""
    grid, (times, p_list, tol) = config["grid"], map(config["propagator"].get, ("times", "p_list", "tol"))
    with open(out / "probes.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(row["t"], row["p"]) for row in rows] == [
        (repr(float(t)), "inf" if p == "inf" else repr(float(p))) for t in times for p in p_list]
    snapshots = np.loadtxt(out / "snapshots.csv", delimiter=",", skiprows=1)
    # the reshape takes exactly (1 + |times|) m n rows
    states = snapshots[:, -1].reshape((1 + len(times), grid["m"]) + (grid["N"],) * grid["d"])
    assert np.all(np.isfinite(snapshots)) and np.array_equal(snapshots[:, 0], np.repeat([0.0] + times, states[0].size))
    # a zero state has no ratio and guarantees nothing; a nonzero one has positive norms
    norms = np.array([[row["norm_in"], row["norm_out"]] for row in rows], dtype=float)
    assert np.all(np.isfinite(norms)) and np.array_equal(norms > 0, [[states[0].any(), state.any()]
                                                                     for state in states[1:] for _ in p_list])
    ratios = [float(row["ratio"]) for row in rows if row["ratio"]]
    assert np.all(np.isfinite(ratios)) and len(ratios) == np.count_nonzero(norms[:, 0])
    # Q is diagonal, so the rows with a ratio are all guaranteed (V is PSD, and the verdict gates) or none
    assert [row["guaranteed"] for row in rows] == [str(bool(row["ratio"]) and passed is True) for row in rows]
    assert passed is None or max(ratios) <= 1.0 + 1e-8
    assert detail["max_ratio"] == max(ratios, default=None) and detail["violations"] == 0
    lines = (out / "norms.dat").read_text().splitlines()
    assert lines[0].startswith("# t") and len(lines) == (1 + len(times) if ratios else 1)
    assert "inf" not in "".join(lines[1:])
    # within the propagator's budget plus perfbench's roundoff allowance, on copies
    # scaled by the power of 2 that brings f0's largest entry into [1/2, 1)
    e = int(np.frexp(np.abs(states[0]).max())[1])
    f0 = np.ldexp(states[0], -e)
    budget = (tol + 1e-11) * np.linalg.norm(f0)
    r = _recipe(config)
    return all(np.linalg.norm(np.ldexp(state, -e) - kronecker.propagate(r, f0, t)) <= budget
               for state, t in zip(states, [0.0] + times))


def _check_run(out, capsys, recwarn, run):
    # exit 0 with nothing printed and no warning, no NaN or infinity written (verdicts.json writes one as
    # the string "inf"), one verdict as the row says, and the oracle agrees unless the row is flagged
    subcommand = run.argv[0]
    assert cli.main([subcommand, "--out", str(out)] + run.argv[1:]) == 0
    assert capsys.readouterr() == ("", "") and not recwarn.list
    assert not any(b"NaN" in path.read_bytes() or b"nan" in path.read_bytes() for path in out.iterdir())
    assert b"inf" not in (out / "verdicts.json").read_bytes()
    config, verdicts = _read_json(out / "resolved-config.json"), _read_json(out / "verdicts.json")
    name, keys = {"spectrum": ("spectrum", {"eigenvalues", "max_residual", "matrix_norm", "method", "shift"}),
                  "evolve": ("evolve-contraction", {"max_ratio", "method", "violations"})}[subcommand]
    detail = verdicts["records"][0]["detail"]
    assert verdicts == {"subcommand": subcommand, "seed": config["seed"], "all_passed": True,
                        "records": [{"name": name, "passed": run.passed, "detail": detail}]}
    assert set(detail) == keys | ({"reason"} if run.passed is None else set()) and detail["method"] == run.method
    assert {key: detail[key] for key in run.detail} == run.detail
    if subcommand == "spectrum":
        assert detail["shift"] == run.shift
        agrees = _spectrum_agrees(out, config, detail, run.rtol)
    else:
        agrees = _evolve_agrees(out, config, detail, run.passed)
    assert agrees is (run.flag is None), run.flag or "the run disagrees with its oracle"


def _oracle_test(runs):
    if runs[0].id is None:  # a test that was not parametrized runs its runs in turn
        def test(tmp_path, capsys, recwarn):
            for i, run in enumerate(runs):
                _check_run(tmp_path / str(i), capsys, recwarn, run)
        return test

    @pytest.mark.parametrize("run", runs, ids=[run.id for run in runs])
    def test(tmp_path, capsys, recwarn, run):
        _check_run(tmp_path, capsys, recwarn, run)
    return test


for _name, _runs in _ORACLE_RUNS.items():
    globals()[_name] = _oracle_test(_runs)


# -- refusals ---------------------------------------------------------------------

_Q_HUGE = ["--coefficients.q.kind=scaled_identity", "--coefficients.q.value=1e306"]
_N8 = ["evolve", "--grid.N=8"]
_TINY = [("spectrum-tiny", ["spectrum"]), ("evolve-tiny", ["evolve"]), ("assemble-tiny", ["assemble"]),
         ("lanczos-tiny", ["spectrum", "--solver.method=lanczos"])]
_SHAPE = ["assemble", "--grid.d=2", "--grid.N=4", "--grid.m=3"]
_GALLERY = "['antisymmetric_continuity', 'coupled_confining', 'degenerate_counterexample', 'harmonic_oscillator']"
_TOKEN = "(overrides look like --grid.N=500)"
_BOX = (
    "must be positive, with h^2, h^d, their inverses, the box measure N^d h^d, 4d/h^2 and "
    "(4/h^2) sin^2(pi/(2(N+1))) normal finite floats, where h = 2L/(N+1)"
)
_LARGE = "coefficients.q or coefficients.v is too large for grid.L"
_Q_SAMPLES = "diffusion samples (coefficients.q)"
_SMALL = "S or B underflows: coefficients.q or coefficients.v is too small for grid.L"

#: the refusal table: each test name maps to its rows (id, argv, config.json
#: payload or None, exit code, what the one stderr line names, the whole line
#: after its prefix or None), and every row is checked by the one test body below
_REFUSALS = {
    # refused after resolution: the subcommand raises once resolved-config.json is written
    "test_failed_run_writes_resolved_config_but_no_verdicts": [
        ("k-above-dimension", ["spectrum", "--grid.N=8", "--solver.k=100"], None, 2, "solver.k",
         "solver.k=100 exceeds the matrix dimension 8"),
        ("grid", ["assemble", "--grid.N=1"], None, 2, "grid.N", "grid.N must be at least 2 interior nodes per axis, got 1"),
        ("grid-dimension", ["assemble", "--grid.d=5"], None, 2, "grid.d", "grid.d must be 1, 2 or 3, got 5"),
        ("grid-m", ["assemble", "--grid.m=0"], None, 2, "grid.m", "grid.m must be at least 1 component, got 0"),
        ("gallery-params", ["gallery", "--name", "harmonic_oscillator", '--gallery.params={"bogus_param": 3}'], None,
         2, "gallery.params", "gallery.params: harmonic_oscillator() got an unexpected keyword argument 'bogus_param'"),
        # --name beats --gallery.name, and is validated and echoed like any key
        ("gallery-name", ["gallery", "--gallery.name=harmonic_oscillator", "--name", "no_such_problem"], None, 2,
         "gallery.name", f"gallery.name must be one of {_GALLERY}, got 'no_such_problem'"),
    ],
    # a grid count that is not an integer, or an N too small for a claim's count, which no setting exposes
    "test_gallery_params_the_grid_cannot_hold_exit_2": [
        ("fractional-N", ["gallery", "--name", "degenerate_counterexample", '--gallery.params={"N": 2.5}'], None, 2,
         "gallery.params", "gallery.params: grid.N must be an integer, got 2.5"),
        ("bool-N", ["gallery", "--name", "degenerate_counterexample", '--gallery.params={"N": true}'], None, 2,
         "gallery.params", "gallery.params: grid.N must be an integer, got True"),
        ("float-m", ["gallery", "--name", "coupled_confining", '--gallery.params={"m": 2.0}'], None, 2,
         "gallery.params", "gallery.params: grid.m must be an integer, got 2.0"),
        ("merge-k", ["gallery", "--name", "degenerate_counterexample", '--gallery.params={"N": 3}'], None, 2,
         "gallery.params.N", "gallery.params.N=3 gives dimension 6, but claim 'merge' of problem "
         "'degenerate_counterexample' needs 20 eigenvalues"),
        ("sandwich-k", ["gallery", "--name", "coupled_confining", '--gallery.params={"N": 4}'], None, 2,
         "gallery.params.N", "gallery.params.N=4 gives dimension 8, but claim 'sandwich' of problem "
         "'coupled_confining' needs 10 eigenvalues"),
        ("lowest-k", ["gallery", "--name", "harmonic_oscillator", '--gallery.params={"N": 4}'], None, 2,
         "gallery.params.N", "gallery.params.N=4 gives dimension 4, but claim 'lowest_eigenvalues' of problem "
         "'harmonic_oscillator' needs 5 eigenvalues"),
    ],
    # unknown names, tokens, files, keys and checks, and two solver failures
    "test_refusal": [
        ("gallery-name-wat", ["gallery", "--name", "wat"], None, 2, "gallery.name",
         f"gallery.name must be one of {_GALLERY}, got 'wat'"),
        ("gallery-name-list", ["gallery", "--gallery.name=[1]"], None, 2, "gallery.name",
         f"gallery.name must be one of {_GALLERY}, got [1]"),
        # any value a builder refuses, by the message it raises
        *[(f"gallery-params-{key}", ["gallery", "--name", name, f"--gallery.params={params}"], None, 2,
           "gallery.params", f"gallery.params: {line}") for key, name, params, line in [
            ("L-tiny", "degenerate_counterexample", '{"L": 1e-200}', f"grid.L=1e-200 {_BOX}"),
            ("L-string", "degenerate_counterexample", '{"L": "x"}', "could not convert string to float: 'x'"),
            ("detune-string", "degenerate_counterexample", '{"detune": "x"}', "could not convert string to float: 'x'"),
            ("m-1", "degenerate_counterexample", '{"m": 1}', "coupling needs at least 2 components, got 1"),
            ("n_list", "antisymmetric_continuity", '{"n_list": [1]}',
             "need at least two scales for a growth claim, got (1,)")]],
        # a bare word, and a flag that only exists as a dotted key (gallery.check was removed)
        ("token-bare", ["assemble", "positional"], None, 2, "positional", f"unrecognized argument 'positional' {_TOKEN}"),
        ("token-check", ["gallery", "--name", "degenerate_counterexample", "--check", "merge"], None, 2, "--check",
         f"unrecognized argument '--check' {_TOKEN}"),
        # only validation knows the schema: it names the first unknown key (in sorted
        # order) by its dotted path, and a kind block names its kind
        ("file-missing", ["assemble", "--config", "missing.json"], None, 2, "missing.json",
         "config file not found: missing.json"),
        ("file-broken", ["assemble"], "{not json", 2, "config.json", "config file config.json is not valid JSON: "
         "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
        ("file-list", ["assemble"], [1, 2], 2, "config.json", "config file config.json must contain a JSON object"),
        ("file-grdi", ["assemble"], {"grdi": {"N": 3}}, 2, "grdi", "unknown config key 'grdi'"),
        ("file-grid.M", ["assemble"], {"grid": {"M": 3}}, 2, "grid.M", "unknown config key 'grid.M'"),
        ("file-grid.N-object", ["assemble"], {"grid": {"N": {"x": 3}}}, 2, "grid.N", "grid.N must be an integer"),
        ("file-solver.alpha", ["assemble"], {"solver": {"k": 3, "zeta": 1, "alpha": 2}}, 2, "solver.alpha",
         "unknown config key 'solver.alpha'"),
        ("file-coefficients.w", ["assemble"], {"coefficients": {"w": {"kind": "zero"}}}, 2, "coefficients.w",
         "unknown config key 'coefficients.w'"),
        ("file-kind-key", ["assemble"], {"coefficients": {"v": {"kind": "harmonic", "scale": 1.0, "width": 2}}}, 2,
         "coefficients.v", "unknown keys ['width'] for coefficients.v.kind='harmonic'"),
        ("flag-grid.M", ["assemble", "--grid.M=3"], None, 2, "grid.M", "unknown config key 'grid.M'"),
        ("flag-grdi", ["assemble", "--grdi.N=3"], None, 2, "grdi", "unknown config key 'grdi'"),
        ("flag-grid.M.x", ["assemble", "--grid.M.x=3"], None, 2, "grid.M", "unknown config key 'grid.M'"),
        ("flag-grid.N.x", ["assemble", "--grid.N.x=1"], None, 2, "grid.N", "config key 'grid.N' is not a section"),
        ("verify-unknown-check", ["verify", '--probes.checks=["nope"]'], None, 2, "probes.checks",
         "probes.checks entries must be one of ['laplacian_spectrum', 'harmonic_oscillator', 'form_axioms', "
         "'beurling_denny', 'contraction', 'positivity_dichotomy', 'eigenvalue_sandwich', 'counterexample_merge', "
         "'antisymmetric_continuity', 'semigroup_structure', 'gallery_claims'], got ['nope']"),
        ("kind-wat", ["assemble", "--coefficients.v.kind=wat"], None, 2, "coefficients.v.kind",
         "coefficients.v.kind must be one of ['constant', 'harmonic', 'scaled_identity', 'zero'], got 'wat'"),
        ("kind-impulse-width", _N8 + ['--evolve.initial_state={"kind": "impulse", "width": 0.5}'], None, 2,
         "evolve.initial_state", "unknown keys ['width'] for evolve.initial_state.kind='impulse'"),
        # a forced dense solve above DENSE_LIMIT = 3000
        ("spectrum-dense-above-limit", ["spectrum", "--solver.method=dense", "--grid.N=4000"], None, 2,
         "solver.method", "dense path limited to dimension 3000, got 4000: solver.method or propagator.method "
         "cannot be dense for this grid.N, grid.d and grid.m"),
        ("evolve-dense-above-limit", ["evolve", "--propagator.method=exact-dense", "--grid.d=2", "--grid.N=60"], None,
         2, "propagator.method", "dense path limited to dimension 3000, got 3600: solver.method or propagator.method "
         "cannot be dense for this grid.N, grid.d and grid.m"),
        # solver failures: a Krylov tolerance below the roundoff e^{-tc} amplifies, a
        # Lanczos tolerance no residual meets, and lambda_min(B) near -1810 makes the
        # growth e^{-tB} overflow at t = 1
        ("evolve-krylov-absurd-tolerance", ["evolve", "--grid.N=100", "--propagator.method=lanczos-expmv",
                                            "--propagator.tol=1e-30"], None, 3, "propagator.tol",
         "Krylov propagator failed to meet propagator.tol=1e-30: its floor, the roundoff 2e-13 amplified by e^(-tc), "
         "is 2.00e-13"),
        ("lanczos-absurd-tolerance", ["spectrum", *_HARMONIC_2D, "--grid.N=10", "--coefficients.v.scale=1",
                                      "--solver.tol=1e-300", "--solver.method=lanczos"], None, 3, "solver.tol",
         "Lanczos did not converge to 10 eigenpairs within 100 iterations at solver.tol=1e-300"),
        ("evolve-krylov-overflow", ["evolve", "--grid.d=2", "--grid.N=40", "--grid.m=2",
                                    "--coefficients.v.kind=harmonic", "--coefficients.v.scale=-1000",
                                    "--propagator.times=[1]"], None, 3, "lanczos-expmv",
         "lanczos-expmv propagation overflows at t=1: the lower bound -1809.64 of B gives a growth e^(1809.64) "
         "beyond the largest float"),
        # a state entry or norm past the largest float (the box measure is 2 in 1-d,
        # 4 in 2-d), and a quadrature of 800n + 1 points at n = 10^6
        ("evolve-random-scale-overflow", ["evolve", "--evolve.initial_state.kind=random",
                                          "--evolve.initial_state.scale=1e308"], None, 2, "evolve.initial_state.scale",
         "evolve.initial_state.scale=1e+308 overflows a state entry past the largest float"),
        *[(f"evolve-huge-state-norm-{method}", ["evolve", *grid, _CONSTANT_STATE, "--evolve.initial_state.vector=[1e308]"],
           None, 2, "evolve.initial_state", f"evolve.initial_state has an L^p norm past the largest float at p = {ps} "
           "of propagator.p_list: scale the state down or drop those p")
          for method, grid, ps in [("exact-dense", [], "1"),
                                   ("exact-separable", ["--grid.d=2", "--grid.N=60"], "1, 2")]],
        ("gallery-n_list-too-large", ["gallery", "--name", "antisymmetric_continuity",
                                      '--gallery.params={"n_list": [1, 1000000]}'], None, 2, "n_list",
         "n_list scales must be at most 1000, got 1000000: at step 0.01 a scale n takes 800n + 1 quadrature points"),
    ],
    "test_section_flag_missing_keys_is_config_error": [
        ("""--grid={"d": 1}-['L', 'N', 'm']""", ["assemble", '--grid={"d": 1}'], None, 2, "grid",
         "missing config keys ['L', 'N', 'm'] in section 'grid'"),
        ("""--solver={"k": 3}-['method', 'tol']""", ["assemble", '--solver={"k": 3}'], None, 2, "solver",
         "missing config keys ['method', 'tol'] in section 'solver'"),
    ],
    # the Krylov subspace size is fixed, the merge reads k and tol_rel from its
    # claim, each check runs at its pinned sizes, every run writes all its files,
    # the bracket is the eigenvalue_sandwich check's and the merge is the gallery's
    "test_removed_settings_are_unknown_keys": [
        (f"command{i}---{key}={value}", command + [f"--{key}={value}"], None, 2, key, f"unknown config key {key!r}")
        for i, (command, key, value) in enumerate([
            (["evolve"], "propagator.krylov_dim", "30"),
            (["gallery", "--name", "degenerate_counterexample"], "gallery.k", "20"),
            (["gallery", "--name", "degenerate_counterexample"], "gallery.tol_rel", "1e-8"),
            (["verify"], "probes.params", "{}"), (["spectrum"], "output.formats", '["json"]'),
            (["spectrum"], "solver.sandwich", "true"), (["gallery"], "gallery.check", "merge")])
    ],
    # Crank-Nicolson and its step count are gone
    "test_propagator_step_counts_must_be_integers": [
        ("--propagator.method=crank-nicolson-propagator.method must be one of",
         ["evolve", "--propagator.method=crank-nicolson"], None, 2, "propagator.method",
         "propagator.method must be one of ['auto', 'exact-dense', 'lanczos-expmv'], got 'crank-nicolson'"),
        ("--propagator.cn_steps=256-unknown config key 'propagator.cn_steps'", ["evolve", "--propagator.cn_steps=256"],
         None, 2, "propagator.cn_steps", "unknown config key 'propagator.cn_steps'"),
    ],
    # a looser tolerance let both runs pass with answers far from the default run's
    "test_loosened_tolerance_exits_2": [
        ("spectrum", ["spectrum", "--grid.d=2", "--grid.N=30", "--grid.L=5", "--coefficients.v.kind=harmonic",
                      "--coefficients.v.scale=1", "--solver.k=6", "--solver.method=lanczos", "--solver.tol=0.9"],
         None, 2, "solver.tol", "solver.tol must be at most its default 1e-10, got 0.9"),
        ("evolve", ["evolve", "--grid.d=2", "--grid.N=60", "--grid.L=5", "--coefficients.v.kind=harmonic",
                    "--coefficients.v.scale=1", "--propagator.tol=0.5"],
         None, 2, "propagator.tol", "propagator.tol must be at most its default 1e-10, got 0.5"),
    ],
    # wrongly typed flags, each named by its key
    "test_wrongly_typed_flag_is_config_error": [
        (f"--{flag}", _N8 + [f"--{flag}"], None, 2, flag.split("=")[0], f"{flag.split('=')[0]} {message}")
        for flag, message in [
            ("solver.k=true", "must be an integer"), ("grid.m=true", "must be an integer"),
            ("grid.d=true", "must be an integer"), ("grid.L=true", "must be a finite positive number"),
            ("solver.tol=true", "must be a finite positive number"),
            ("propagator.tol=true", "must be a finite positive number"),
            ("propagator.times=[true]", "must be a nonempty list of numbers"),
            ("propagator.p_list=[true]", "entries must be one of [1, 2, 4, 'inf'], got [True]"),
            ("output.directory=5", "must be a string"),
            ("propagator.times=[Infinity]", "entries must be finite, got [inf]"),
            ("propagator.times=[0.1, NaN]", "entries must be finite, got [0.1, nan]"),
            ("propagator.times=[1, 0.5]", "must be finite, nonnegative and strictly increasing, got (1.0, 0.5)"),
            ("probes.checks=[]", "must be a nonempty list of distinct entries, got []"),
            ('probes.checks=["contraction","contraction"]',
             "must be a nonempty list of distinct entries, got ['contraction', 'contraction']"),
            ("propagator.p_list=[2,2]", "must be a nonempty list of distinct entries, got [2, 2]"),
            ("seed=-1", "must be a nonnegative integer")]
    ],
    # kind blocks: a key the kind needs, a key of the wrong type or of another kind,
    # and values out of range for the grid, which the state constructors refuse
    "test_kind_switch_without_required_key_is_config_error": [
        (f"{block}-{kind}-{key}", ["evolve", f"--{block}.kind={kind}"], None, 2, block,
         f"{block}.{key} is required for {block}.kind={kind!r}")
        for block, kind, key in [
            ("coefficients.q", "scaled_identity", "value"), ("coefficients.q", "diagonal", "entries"),
            ("coefficients.q", "constant", "matrix"), ("coefficients.v", "scaled_identity", "value"),
            ("coefficients.v", "constant", "matrix"), ("coefficients.v", "harmonic", "scale"),
            ("evolve.initial_state", "constant", "vector")]
    ],
    # each row keeps its id: its flag and the part of the line its test once matched
    "test_wrongly_typed_kind_key_is_config_error": [
        (f"{flag}-{part}", _N8 + [flag], None, 2, setting, line) for flag, part, setting, line in [
            ('--coefficients.v={"kind":"harmonic","scale":null}', "v.scale must be a finite number",
             "coefficients.v.scale", "coefficients.v.scale must be a finite number, got None"),
            ('--coefficients.v={"kind":"harmonic","scale":[1]}', "v.scale must be a finite number",
             "coefficients.v.scale", "coefficients.v.scale must be a finite number, got [1]"),
            ('--coefficients.q={"kind":"scaled_identity","value":{"a":1}}', "q.value must be a finite number",
             "coefficients.q.value", "coefficients.q.value must be a finite number, got {'a': 1}"),
            ('--coefficients.v={"kind":"scaled_identity","value":"2"}', "v.value must be a finite number",
             "coefficients.v.value", "coefficients.v.value must be a finite number, got '2'"),
            ('--coefficients.q={"kind":"diagonal","entries":[1,null]}', "q.entries must be a list of finite",
             "coefficients.q.entries", "coefficients.q.entries must be a list of finite numbers, got [1, None]"),
            ('--coefficients.v={"kind":"constant","matrix":[1,2]}', "v.matrix must be a list of lists",
             "coefficients.v.matrix", "coefficients.v.matrix must be a list of lists of finite numbers, got [1, 2]"),
            ('--evolve.initial_state={"kind":"constant","vector":[true]}', "vector must be a list of finite",
             "evolve.initial_state.vector", "evolve.initial_state.vector must be a list of finite numbers, got [True]"),
            ('--evolve.initial_state={"kind":"random","scale":"big"}', "scale must be a finite number",
             "evolve.initial_state.scale", "evolve.initial_state.scale must be a finite number, got 'big'"),
            ('--evolve.initial_state={"kind":"impulse","component":-1}', "component must be a nonnegative",
             "evolve.initial_state.component", "evolve.initial_state.component must be a nonnegative integer, got -1"),
            ('--evolve.initial_state={"kind":"impulse","node":1.5}', "node must be null or a nonnegative",
             "evolve.initial_state.node", "evolve.initial_state.node must be null or a nonnegative integer, got 1.5"),
            ('--evolve.initial_state={"kind":"bump","component":true}', "component must be null or a",
             "evolve.initial_state.component",
             "evolve.initial_state.component must be null or a nonnegative integer, got True"),
            ('--evolve.initial_state={"kind":"bump","width":0}', "bump width must be positive, got 0.0",
             "evolve.initial_state.width", "evolve.initial_state.width must be positive, got 0.0"),
            ('--evolve.initial_state={"kind":"bump","component":1}', "bump component must be None or in [0, 1), got 1",
             "evolve.initial_state.component", "evolve.initial_state.component must be null or in [0, 1), got 1"),
            ('--evolve.initial_state={"kind":"impulse","node":8}', "impulse node must be in [0, 8), got 8",
             "evolve.initial_state.node", "evolve.initial_state.node must be in [0, 8), got 8"),
            ('--evolve.initial_state={"kind":"impulse","component":1}',
             "initial_state.component must be an integer below 1", "evolve.initial_state.component",
             "evolve.initial_state.component must be an integer below 1"),
        ]
    ],
    "test_dotted_kind_switch_rejects_user_key_of_old_kind": [
        (str(kind_first), ["evolve"] + flags, None, 2, "evolve.initial_state",
         "unknown keys ['width'] for evolve.initial_state.kind='impulse'")
        for kind_first, flags in [
            (True, ["--evolve.initial_state.kind=impulse", "--evolve.initial_state.width=0.3"]),
            (False, ["--evolve.initial_state.width=0.3", "--evolve.initial_state.kind=impulse"])]
    ],
    # coefficient shapes and ellipticity, on a d = 2, m = 3 grid
    "test_coefficient_shape_errors_exit_2": [
        (f"{flag}-{part}", _SHAPE + [flag], None, 2, setting, line) for flag, part, setting, line in [
            ('--coefficients.q={"kind":"diagonal","entries":[1,2,3]}', "coefficients.q.entries must have 2 entries",
             "coefficients.q.entries", "coefficients.q.entries must have 2 entries"),
            ('--coefficients.q={"kind":"constant","matrix":[[1]]}', "coefficients.q.matrix must be 2x2",
             "coefficients.q.matrix", "coefficients.q.matrix must be 2x2"),
            ('--coefficients.q={"kind":"scaled_identity","value":0}', f"{_Q_SAMPLES} are not uniformly elliptic",
             "coefficients.q", f"{_Q_SAMPLES} are not uniformly elliptic (lower bound 0.000e+00)"),
            ('--coefficients.q={"kind":"diagonal","entries":[-1.0,2.0]}', f"{_Q_SAMPLES} are not uniformly elliptic",
             "coefficients.q", f"{_Q_SAMPLES} are not uniformly elliptic (lower bound -1.000e+00)"),
            ('--coefficients.q={"kind":"constant","matrix":[[1,0.5],[0,1]]}', f"{_Q_SAMPLES} are not symmetric",
             "coefficients.q", f"{_Q_SAMPLES} are not symmetric (max asymmetry 5.000e-01)"),
            ('--coefficients.v={"kind":"constant","matrix":[[1,0],[0,1]]}', "coefficients.v.matrix must be 3x3",
             "coefficients.v.matrix", "coefficients.v.matrix must be 3x3"),
            ('--coefficients.v={"kind":"constant","matrix":[[1,0.5,0],[0,1,0],[0,0,1]]}',
             "potential samples (coefficients.v) are not symmetric", "coefficients.v",
             "potential samples (coefficients.v) are not symmetric: operator assembly needs a symmetric V"),
        ]
    ],
    # past these checks, h^2 or B (or the closed form's eigenvalues) overflow or fall
    # below the normal floats: SciPy refuses infs, Lanczos writes NaN, and assemble,
    # the dense path or the closed form exits 0 with infinite, subnormal or wrong
    # eigenvalues, or all-zero snapshots (h^2 = inf gives eigenvalues of 0.0)
    "test_box_whose_spacing_powers_are_not_representable_exits_2": [
        *[(name, argv + ["--grid.L=1e-200"], None, 2, "grid.L", f"grid.L=1e-200 {_BOX}") for name, argv in _TINY],
        ("spectrum-huge", ["spectrum", "--grid.L=1e300"], None, 2, "grid.L", f"grid.L=1e+300 {_BOX}"),
    ],
    "test_an_operator_out_of_float_range_exits_2_naming_its_setting": [
        *[(name, argv + ["--grid.L=2.5e-153"], None, 2, "grid.L", f"grid.L=2.5e-153 {_BOX}") for name, argv in _TINY],
        ("spectrum-subnormal", ["spectrum", "--grid.d=2", "--grid.L=2e155"], None, 2, "grid.L", f"grid.L=2e+155 {_BOX}"),
        ("evolve-measure", ["evolve", "--grid.d=2", "--grid.L=4.3e155"], None, 2, "grid.L", f"grid.L=4.3e+155 {_BOX}"),
        ("spectrum-smallest-subnormal", ["spectrum", "--grid.L=3e154"], None, 2, "grid.L", f"grid.L=3e+154 {_BOX}"),
        ("assemble-largest-overflows", ["assemble", "--grid.d=2", "--grid.L=5.2e-153"], None, 2, "grid.L",
         f"grid.L=5.2e-153 {_BOX}"),
        ("assemble-q", ["assemble"] + _Q_HUGE, None, 2, "coefficients.q", f"B overflows: {_LARGE}"),
        ("spectrum-q", ["spectrum", "--grid.d=2"] + _Q_HUGE, None, 2, "coefficients.q",
         f"B's closed form overflows: {_LARGE}"),
        ("evolve-closed-form-q", ["evolve", "--grid.d=2", "--grid.N=100"] + _Q_HUGE, None, 2, "coefficients.q",
         f"B's closed form overflows: {_LARGE}"),
        ("spectrum-closed-form-q", ["spectrum", "--grid.d=2", "--grid.N=100"] + _Q_HUGE, None, 2, "coefficients.q",
         f"B's closed form overflows: {_LARGE}"),
        ("assemble-q-2d", ["assemble", "--grid.d=2", "--grid.N=100"] + _Q_HUGE, None, 2, "coefficients.q",
         f"B overflows: {_LARGE}"),
        ("evolve-v", _N8 + ["--coefficients.v.kind=scaled_identity", "--coefficients.v.value=1e308"], None, 2,
         "coefficients.v",
         "potential samples (coefficients.v) must be finite, and so must their symmetric part (M + M^T)/2"),
        # S's entries q/h keep too few bits below the normal floats: the run passed
        # at 1e-315 with eigenvalues 2.2e-10 off, and exited 1 at 1e-310 and 1e-320
        *[(f"subnormal-q-{q}", ["spectrum", "--coefficients.q.kind=scaled_identity", f"--coefficients.q.value={q}"],
           None, 2, "coefficients.q", _SMALL) for q in ("1e-310", "1e-315", "1e-320")],
    ],
    # lambda_min(B) is near -1000, so the growth e^{-tB} overflows at t = 1: a
    # solver failure, raised before any work
    "test_evolve_exact_overflow_exits_3_without_warnings": [
        (f"grid_flags{i}-{method}", ["evolve"] + grid_flags + ['--coefficients.v={"kind":"scaled_identity","value":-1000}',
                                                                "--propagator.times=[1]"], None, 3, method,
         f"{method} propagation overflows at t=1: the lower bound {bound} of B gives a growth e^({-bound}) "
         "beyond the largest float")
        for i, (grid_flags, method, bound) in enumerate([
            ([], "exact-dense", -997.533), (["--grid.d=2", "--grid.N=60"], "exact-separable", -995.066)])
    ],
}

_INT = ("must be an integer", [True, 1.5, "3"])
_FLOAT = ("must be a finite positive number", [True, 0, -1.0, float("inf"), float("nan"), "1e-8"])
_ONE_OF = ("must be one of", [True, 1, "bogus"])
_LIST_OF = ("entries must be one of", [[True], ["bogus"], "json", 1])

#: every typed setting of DEFAULT_CONFIG, with values of the wrong type
_BAD_SETTINGS = {
    "seed": _INT,
    "grid.d": _INT,
    "grid.N": _INT,
    "grid.m": _INT,
    "grid.L": _FLOAT,
    "solver.k": _INT,
    "solver.tol": _FLOAT,
    "solver.method": _ONE_OF,
    "propagator.method": _ONE_OF,
    "propagator.times": ("must be a nonempty list of numbers", [[], [True], 0.1, [0.1, "1"]]),
    "propagator.tol": _FLOAT,
    "propagator.p_list": _LIST_OF,
    "probes.checks": _LIST_OF,
    "output.directory": ("must be a string", [5, True, None]),
}

#: settings of the right type whose value is out of range, or a list that is
#: empty or repeats an entry
_BAD_VALUES = {
    "seed": ("must be a nonnegative integer", [-1]),
    "solver.k": ("must be a positive integer", [0]),
    "solver.tol": ("must be at most its default 1e-10", [1e-9, 0.9]),
    "propagator.tol": ("must be at most its default 1e-10", [1e-6, 0.5]),
    "propagator.p_list": ("must be a nonempty list of distinct entries", [[], [2, 2], [4, 4.0]]),
    "probes.checks": ("must be a nonempty list of distinct entries", [[], ["contraction", "contraction"]]),
}

# each setting through a config file, since --seed=... is the argparse flag; no
# --out, so output.directory is the value under test
_REFUSALS["test_wrongly_typed_setting_is_config_error"] = [
    ("-".join(map(repr, (setting, value, message))), ["assemble"],
     {section: {key: value}} if section else {key: value}, 2, f"{setting} {message}", None)
    for table in (_BAD_SETTINGS, _BAD_VALUES)
    for setting, (message, values) in table.items()
    for section, _, key in [setting.rpartition(".")]
    for value in values
]


def _typed_settings(tree, path=""):
    for key, default in tree.items():
        here = f"{path}.{key}" if path else key
        if here in cli._KINDS or here == "gallery.params":
            continue
        if isinstance(default, dict):
            yield from _typed_settings(default, here)
        elif default is not None or here in cli._CHOICES:
            yield here


def test_bad_settings_table_covers_every_typed_setting():
    assert sorted(_typed_settings(cli.DEFAULT_CONFIG)) == sorted(_BAD_SETTINGS)


def _refusal_test(rows):
    @pytest.mark.parametrize("argv, payload, code, names, line", [row[1:] for row in rows], ids=[row[0] for row in rows])
    def test(tmp_path, monkeypatch, capsys, recwarn, argv, payload, code, names, line):
        # one stderr line and no warning; on exit 2 the line names the setting, token
        # or file at fault; and the run writes resolved-config.json only if it got
        # past resolution, and never verdicts.json or a NaN
        monkeypatch.chdir(tmp_path)
        if payload is not None:
            Path("config.json").write_text(payload if isinstance(payload, str) else json.dumps(payload))
            argv = argv + ["--config", "config.json"]
        resolved, run = [], cli.run
        monkeypatch.setattr(cli, "run", lambda subcommand, config: resolved.append(config) or run(subcommand, config))
        assert cli.main(argv) == code
        prefix = {2: "config error: ", 3: "solver failure: "}[code]
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(prefix) and err.endswith("\n") and err.count("\n") == 1
        assert names in err and (line is None or err == f"{prefix}{line}\n")
        assert not recwarn.list
        written = sorted(str(path) for path in Path().rglob("*") if path.is_file() and str(path) != "config.json")
        assert written == [str(Path(config["output"]["directory"]) / "resolved-config.json") for config in resolved]
        assert not any(b"NaN" in Path(path).read_bytes() or b"nan" in Path(path).read_bytes() for path in written)
    return test


# each name of the table is one test over its rows
for _name, _rows in _REFUSALS.items():
    globals()[_name] = _refusal_test(_rows)


def test_dotted_flags_beat_the_file_and_named_flags_beat_both(tmp_path, monkeypatch):
    # defaults, then the file, then the dotted flags, then --seed/--out/--name
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 3, "grid": {"N": 20, "L": 2.0}, "output": {"directory": "file"}}))
    flags = ["--grid.N=24", "--seed", "5", "--output.directory=flag", "--out", "out"]
    assert cli.main(["assemble", "--config", str(config)] + flags) == 0
    resolved = _read_json(tmp_path / "out" / "resolved-config.json")
    assert (resolved["seed"], resolved["grid"], resolved["output"]) == (
        5, {"d": 1, "L": 2.0, "N": 24, "m": 1}, {"directory": "out"}
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "out"]


def test_a_subnormal_coupling_beside_a_normal_diagonal_is_assembled(tmp_path):
    # S's coupling band holds h 1e-310; only an S or B with no normal entry is refused
    flag = '--coefficients.v={"kind":"constant","matrix":[[1,1e-310],[1e-310,1]]}'
    assert cli.main(["assemble", "--grid.m=2", flag, "--out", str(tmp_path)]) == 0


def test_kind_switch_echoes_kind_defaults_that_reingest_to_the_same_run(tmp_path):
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    flags = ["--grid.N=16", "--evolve.initial_state.kind=impulse"]
    assert cli.main(["evolve", "--out", str(out1)] + flags) == 0
    resolved = _read_json(out1 / "resolved-config.json")
    assert resolved["evolve"]["initial_state"] == {"kind": "impulse", "node": None, "component": 0}
    assert cli.main(["evolve", "--config", str(out1 / "resolved-config.json"), "--out", str(out2)]) == 0
    for name in ("snapshots.csv", "probes.csv", "norms.dat", "verdicts.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# -- coefficient kinds ----------------------------------------------------------


def _point_q_fn(block, d):
    """The per-point diffusion callable the CLI sampled each kind through before."""
    kind = block["kind"]
    if kind == "identity":
        mat = np.eye(d)
    elif kind == "scaled_identity":
        mat = float(block["value"]) * np.eye(d)
    elif kind == "diagonal":
        mat = np.diag(np.asarray(block["entries"], dtype=float))
    else:
        mat = np.asarray(block["matrix"], dtype=float)
    return lambda x: mat


def _point_v_fn(block, m):
    """The per-point potential callable the CLI sampled each kind through before."""
    kind = block["kind"]
    if kind == "zero":
        mat = np.zeros((m, m))
        return lambda x: mat
    if kind == "scaled_identity":
        mat = float(block["value"]) * np.eye(m)
        return lambda x: mat
    if kind == "constant":
        mat = np.asarray(block["matrix"], dtype=float)
        return lambda x: mat
    scale = float(block["scale"])
    eye = np.eye(m)
    return lambda x: scale * float(x @ x) * eye


_Q_MATRIX = [[2.0, 0.3, -0.1], [0.3, 1.5, 0.2], [-0.1, 0.2, 1.1]]
_V_MATRIX = [[1.1, -0.3, 0.2], [-0.3, 2.7, 0.4], [0.2, 0.4, 0.9]]


def _q_blocks(d):
    return [
        {"kind": "identity"},
        {"kind": "scaled_identity", "value": 1.7},
        {"kind": "diagonal", "entries": [1.0, 1.37, 1.83][:d]},
        {"kind": "constant", "matrix": [row[:d] for row in _Q_MATRIX[:d]]},
    ]


def _v_blocks(m):
    return [
        {"kind": "zero"},
        {"kind": "scaled_identity", "value": -0.7},
        {"kind": "constant", "matrix": [row[:m] for row in _V_MATRIX[:m]]},
        {"kind": "harmonic", "scale": 1.0},
        {"kind": "harmonic", "scale": -0.6},
        {"kind": "harmonic", "scale": 0.0},
    ]


# at L = 1.7 these grids hold nodes where (x**2).sum(1), einsum and
# norm(x)**2 each round |x|^2 differently from x @ x; scale 1.0 keeps those bits
@pytest.mark.parametrize("d, N", [(1, 9), (2, 7), (3, 5)])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_coefficient_kinds_match_per_point_sampling_bit_for_bit(d, N, m):
    grid_flags = [("grid.d", d), ("grid.N", N), ("grid.m", m), ("grid.L", 1.7)]
    for q_block, v_block in itertools.product(_q_blocks(d), _v_blocks(m)):
        config = cli.resolve_config(
            None, grid_flags + [("coefficients.q", q_block), ("coefficients.v", v_block)]
        )
        op = cli._build_operator(config)
        ref_q, ref_v = matschrod.sample_fields(_point_q_fn(q_block, d), _point_v_fn(v_block, m), op.grid)
        assert np.array_equal(op.diffusion.samples, ref_q.samples), q_block
        assert np.array_equal(op.potential.samples, ref_v.samples), v_block
        assert not op.diffusion.samples.flags.writeable and not op.potential.samples.flags.writeable


@pytest.mark.parametrize("kind_first", [True, False])
def test_dotted_kind_switch_drops_default_keys(tmp_path, kind_first):
    kind = "--evolve.initial_state.kind=impulse"
    keys = ["--evolve.initial_state.node=5", "--evolve.initial_state.component=0"]
    flags = [kind] + keys if kind_first else keys + [kind]
    assert cli.main(["evolve", "--out", str(tmp_path)] + flags) == 0
    resolved = _read_json(tmp_path / "resolved-config.json")
    assert resolved["evolve"]["initial_state"] == {"kind": "impulse", "node": 5, "component": 0}


# -- snapshots.csv writer and float formatting ------------------------------------


def _csv_writer_snapshots(snapshots, grid, path):
    """snapshots.csv as a row-by-row ``csv.writer`` loop writes it."""
    coords = grid.node_coords()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "node"] + [f"x{i}" for i in range(grid.d)] + ["component", "value"])
        for t, state in snapshots:
            for comp in range(grid.m):
                for node in range(grid.n_nodes):
                    writer.writerow(
                        [t, node]
                        + [repr(float(c)) for c in coords[node]]
                        + [comp, repr(float(state.values[comp, node]))]
                    )


_SNAPSHOT_STATES = {
    "bump": {"kind": "bump", "width": 0.3, "component": None},
    "impulse": {"kind": "impulse", "node": 1, "component": 0},
    "random": {"kind": "random", "scale": 1e-300},
    "constant": {"kind": "constant", "vector": [-1.5, 0.0]},
}


@pytest.mark.parametrize("d, N", [(1, 12), (2, 6), (3, 4)])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("kind", sorted(_SNAPSHOT_STATES))
def test_evolve_snapshots_match_csv_writer_bytes(tmp_path, monkeypatch, d, N, m, kind):
    state = dict(_SNAPSHOT_STATES[kind])
    if kind == "constant":
        state["vector"] = state["vector"][:m]
    snapshots = []
    # evolve imports ``propagate`` from the semigroup module when it runs
    initial_state, propagate = cli._initial_state, semigroup.propagate

    def record_initial(*args):
        f0 = initial_state(*args)
        snapshots.append((0.0, f0))
        return f0

    def record_propagate(op, f0, t, prop):
        ft = propagate(op, f0, t, prop)
        snapshots.append((t, ft))
        return ft

    monkeypatch.setattr(cli, "_initial_state", record_initial)
    monkeypatch.setattr(semigroup, "propagate", record_propagate)
    out = tmp_path / "out"
    rc = cli.main(
        [
            "evolve", "--out", str(out), f"--grid.d={d}", f"--grid.N={N}", f"--grid.m={m}",
            "--coefficients.v.kind=harmonic", "--coefficients.v.scale=1.0",
            "--propagator.times=[0, 0.01, 1]", f"--evolve.initial_state={json.dumps(state)}",
        ]
    )
    assert rc == 0
    assert [t for t, _ in snapshots] == [0.0, 0, 0.01, 1]
    values = np.concatenate([s.values.ravel() for _, s in snapshots])
    if kind in ("bump", "impulse"):
        assert np.any(values == 0.0)
    if kind in ("random", "constant"):
        assert np.any(values < 0.0)
    if kind == "random":
        assert np.any((values != 0.0) & (np.abs(values) < 1e-300))
    reference = tmp_path / "reference.csv"
    _csv_writer_snapshots(snapshots, snapshots[0][1].grid, reference)
    assert (out / "snapshots.csv").read_bytes() == reference.read_bytes()


@pytest.mark.parametrize("d, N", [(1, 2 * 8192 + 5), (2, 97)])
def test_snapshot_writer_matches_csv_writer_across_chunk_boundaries(tmp_path, d, N):
    # more nodes than one slice of rows and not a multiple of it, so a
    # block is written in several slices, the last one short
    grid = matschrod.build_grid(d, 3.0, N, 2)
    assert grid.n_nodes > cli._SNAPSHOT_CHUNK_ROWS and grid.n_nodes % cli._SNAPSHOT_CHUNK_ROWS
    rng = np.random.default_rng(N)
    values = rng.standard_normal((3, 2, grid.n_nodes))
    values[0, :, ::7] = 0.0
    values[1] *= 1e-310  # subnormal, of either sign
    values[2, 1, cli._SNAPSHOT_CHUNK_ROWS - 1 : cli._SNAPSHOT_CHUNK_ROWS + 1] = [-0.0, 5e-324]
    snapshots = [(t, matschrod.VectorState(grid, v)) for t, v in zip((0.0, 0.01, 1.0), values)]
    written, reference = tmp_path / "snapshots.csv", tmp_path / "reference.csv"
    cli._write_snapshots(snapshots, grid, written)
    _csv_writer_snapshots(snapshots, grid, reference)
    assert written.read_bytes() == reference.read_bytes()


@pytest.mark.parametrize(
    "d, N, L",
    [(1, 10, 1.0), (2, 10, 3.0), (1, 1001, 1e-5)],
    ids=["n=10: the last node is the first with two digits", "n=100", "positions in exponent form"],
)
def test_snapshot_node_fields_match_csv_writer(tmp_path, d, N, L):
    grid = matschrod.build_grid(d, L, N, 1)
    snapshots = [(0.0, matschrod.VectorState(grid, np.linspace(-1.0, 1.0, grid.n_nodes)))]
    written, reference = tmp_path / "snapshots.csv", tmp_path / "reference.csv"
    cli._write_snapshots(snapshots, grid, written)
    _csv_writer_snapshots(snapshots, grid, reference)
    assert written.read_bytes() == reference.read_bytes()


def _reprs(values):
    return [repr(float(v)).encode() for v in values]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(floats=st.lists(st.floats(), min_size=1, max_size=40), seed=st.integers(0, 2**32 - 1))
def test_repr_bytes_is_repr(floats, seed):
    # the drawn floats (nan, inf and subnormals included) among random bit
    # patterns, in an array longer than one slice of snapshot rows
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 2**64, cli._SNAPSHOT_CHUNK_ROWS + 3, dtype=np.uint64, endpoint=False).view(np.float64)
    values[rng.choice(len(values), len(floats), replace=False)] = floats
    assert repr_bytes(values) == _reprs(values)


def _sweep():
    """Powers of 2 and of 10 with both neighbours, the integers near 2^53 and 2^54, and ±0."""
    powers = [2.0**e for e in range(-1074, 1024)] + [float(f"1e{e}") for e in range(-323, 309)]
    centres = np.array(powers)
    near = [np.nextafter(centres, 0.0), centres, np.nextafter(centres, np.inf)]
    integers = [2.0**53 + np.arange(-64, 65), 2.0**54 + 4.0 * np.arange(-64, 65)]
    values = np.concatenate(near + integers + [np.array([0.0])])
    return np.concatenate([values, -values])


def test_repr_bytes_is_repr_on_the_sweep():
    # the sweep holds a tie between the two closest shortest decimals, broken
    # to the even one (2^50 + 1/4); a shortest decimal on an end of the
    # rounding interval, in it for the even significand of 2^54 + 8, not for
    # the odd one of 2^54 + 28; and both layouts either side of 1e16 and 1e-4
    values = _sweep()
    want = _reprs(values)
    assert {b"1125899906842624.2", b"1.801439850948199e+16", b"1.8014398509482012e+16"} <= set(want)
    assert {b"1e+16", b"9999999999999998.0", b"0.0001", b"9.999999999999999e-05"} <= set(want)
    assert repr_bytes(values) == want
    assert repr_bytes(values[::3]) == want[::3]
    assert repr_bytes(values[:0]) == []


def test_repr_bytes_is_repr_on_slices_with_zeros():
    # a slice that holds an exact zero formats only its nonzero values by Schubfach
    slices = (np.zeros(5), np.array([-0.0, 0.0, -0.0]), np.array([0.0, 0.0, 2.5e-7, -0.0, np.nan, 5e-324, -1e300]))
    for values in slices:
        assert repr_bytes(values) == _reprs(values)


def test_repr_bytes_is_repr_itself_without_short_float_repr(monkeypatch):
    monkeypatch.setattr(sys, "float_repr_style", "legacy")
    monkeypatch.setattr("matschrod._float_repr._shortest", None)
    values = np.array([0.1, -2.5e-7, 1e22])
    assert repr_bytes(values) == _reprs(values)


# -- lazy assembly -----------------------------------------------------------------


def _count_assemblies(monkeypatch):
    calls = []
    assemble = operators_module._assemble_matrix

    def spy(assembly):
        calls.append(assembly.grid.state_size)
        return assemble(assembly)

    monkeypatch.setattr(operators_module, "_assemble_matrix", spy)
    return calls


def test_separable_evolve_never_assembles_the_matrix(tmp_path, monkeypatch):
    # dimension 3200 > DENSE_LIMIT: the closed form reads only the coefficient samples
    calls = _count_assemblies(monkeypatch)
    rc = cli.main(
        [
            "evolve", "--out", str(tmp_path), "--grid.d=2", "--grid.N=40", "--grid.m=2",
            '--coefficients.q={"kind":"diagonal","entries":[1.0,1.7]}',
            '--coefficients.v={"kind":"constant","matrix":[[1,-0.4],[-0.4,2]]}',
        ]
    )
    assert rc == 0
    assert _read_json(tmp_path / "verdicts.json")["records"][0]["detail"]["method"] == "exact-separable"
    assert calls == []


@pytest.mark.parametrize(
    "argv, dim, method",
    [
        (["assemble", "--grid.N=32"], 32, None),
        (["spectrum", "--grid.d=2", "--grid.N=12", "--grid.m=2", "--solver.method=lanczos"], 288, "separable"),
        (["spectrum", "--grid.d=2", "--grid.N=12", "--coefficients.v.kind=harmonic",
          "--coefficients.v.scale=1.0", "--solver.method=lanczos"], 144, "lanczos"),
        (["spectrum", "--grid.N=40", "--solver.method=dense"], 40, "dense"),
        (["evolve", "--grid.N=40", "--propagator.method=exact-dense"], 40, "exact-dense"),
        (["evolve", "--grid.N=40", "--propagator.method=lanczos-expmv"], 40, "lanczos-expmv"),
    ],
    ids=["assemble", "spectrum-separable", "spectrum-lu", "spectrum-dense", "evolve-exact-dense", "evolve-krylov"],
)
def test_paths_that_read_the_matrix_assemble_it_once(tmp_path, monkeypatch, argv, dim, method):
    calls = _count_assemblies(monkeypatch)
    assert cli.main(argv[:1] + ["--out", str(tmp_path)] + argv[1:]) == 0
    # the closed form's residuals read B, so the separable spectrum assembles it too
    assert calls == [dim]
    if method is not None:
        assert _read_json(tmp_path / "verdicts.json")["records"][0]["detail"]["method"] == method


# -- verify -------------------------------------------------------------------------


def test_verify_subset_passes(tmp_path):
    rc = cli.main(
        [
            "verify", "--out", str(tmp_path),
            '--probes.checks=["laplacian_spectrum"]',
        ]
    )
    assert rc == 0
    verdicts = _read_json(tmp_path / "verdicts.json")
    assert verdicts["subcommand"] == "verify"
    assert [r["name"] for r in verdicts["records"]] == ["laplacian_spectrum"]
    assert verdicts["records"][0]["passed"] is True
    assert "runtime" not in json.dumps(verdicts)  # verdicts carry no timings
    lines = (tmp_path / "probes.csv").read_text().strip().splitlines()
    assert lines[0] == "check,passed"
    assert lines[1] == "laplacian_spectrum,True"


def test_verify_unattainable_tolerance_fails_honestly(tmp_path, monkeypatch):
    # eigenvalues off by a relative 1e-9 miss the pinned 1e-10
    def perturbed(*args, **kwargs):
        report = operators_module.eigen_lowest(*args, **kwargs)
        report.eigenvalues = report.eigenvalues * (1.0 + 1e-9)
        return report

    monkeypatch.setattr(checks, "eigen_lowest", perturbed)
    rc = cli.main(["verify", "--out", str(tmp_path), '--probes.checks=["laplacian_spectrum"]'])
    assert rc == 1
    verdicts = _read_json(tmp_path / "verdicts.json")
    assert verdicts["all_passed"] is False
    assert verdicts["records"][0]["passed"] is False


# -- gallery ---------------------------------------------------------------------------


def test_gallery_list(tmp_path):
    rc = cli.main(["gallery", "--out", str(tmp_path)])
    assert rc == 0
    listing = _read_json(tmp_path / "gallery.json")
    assert [p["name"] for p in listing] == [
        "antisymmetric_continuity",
        "coupled_confining",
        "degenerate_counterexample",
        "harmonic_oscillator",
    ]


def _gallery_merge_run(tmp_path, params):
    rc = cli.main(
        [
            "gallery", "--out", str(tmp_path),
            "--name", "degenerate_counterexample",
            "--gallery.params=" + json.dumps(params),
        ]
    )
    with open(tmp_path / "merge.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    claim = _read_json(tmp_path / "verdicts.json")["records"][0]["detail"]["merge"]
    return rc, rows, claim


def test_gallery_validate_writes_merge_csv(tmp_path):
    rc, rows, claim = _gallery_merge_run(tmp_path, {"N": 80, "L": 4.0})
    assert rc == 0
    assert len(rows) == 20  # the claim's k
    assert all(float(r["deviation"]) <= float(r["tolerance"]) for r in rows)
    assert [float(r["deviation"]) for r in rows] == claim["deviations"]
    assert claim["merge_passed"] is True


def test_gallery_detuned_merge_fails_as_its_claim_declares(tmp_path):
    # the control's claim declares that the merge fails, so the run passes
    rc, rows, claim = _gallery_merge_run(tmp_path, {"N": 80, "L": 4.0, "detune": 0.35})
    assert rc == 0
    assert any(float(r["deviation"]) > float(r["tolerance"]) for r in rows)
    assert claim["merge_passed"] is False
    assert claim["passed"] is True


def test_gallery_validate_emits_continuity_dat(tmp_path):
    rc = cli.main(
        [
            "gallery", "--out", str(tmp_path),
            "--name", "antisymmetric_continuity",
            '--gallery.params={"n_list": [1, 10, 100]}',
        ]
    )
    assert rc == 0
    lines = (tmp_path / "continuity_ratios.dat").read_text().strip().splitlines()
    assert lines[0] == "# n ratio"
    assert len(lines) == 4
    ratios = [float(line.split()[1]) for line in lines[1:]]
    assert ratios == sorted(ratios)
    claim = _read_json(tmp_path / "verdicts.json")["records"][0]["detail"]["continuity_ratios"]
    assert ratios == claim["ratios"]


# -- reproducibility ----------------------------------------------------------------------


def test_resolved_config_reproduces_run_bit_for_bit(tmp_path):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    rc = cli.main(
        [
            "spectrum", "--out", str(out1), "--grid.N=40", "--solver.k=7",
            "--coefficients.v.kind=harmonic", "--coefficients.v.scale=0.5",
        ]
    )
    assert rc == 0
    rc = cli.main(
        [
            "spectrum",
            "--config", str(out1 / "resolved-config.json"),
            "--out", str(out2),
        ]
    )
    assert rc == 0
    v1 = (out1 / "verdicts.json").read_bytes()
    v2 = (out2 / "verdicts.json").read_bytes()
    assert v1 == v2
    s1 = (out1 / "spectrum.csv").read_bytes()
    s2 = (out2 / "spectrum.csv").read_bytes()
    assert s1 == s2


# -- norms.dat writer ------------------------------------------------------------------------


def test_norm_traces_empty_is_header_only(tmp_path):
    path = tmp_path / "empty.dat"
    cli._write_norm_traces([], path)
    assert path.read_text() == "# t\n"


def test_norm_traces_columns(tmp_path):
    trace = [
        {"t": 0.1, "p": 2.0, "ratio": 0.9},
        {"t": 0.1, "p": np.inf, "ratio": 0.8},
        {"t": 1.0, "p": 2.0, "ratio": 0.5},
        {"t": 1.0, "p": np.inf, "ratio": 0.4},
        {"t": 1.0, "p": np.inf, "ratio": None},  # skipped
    ]
    path = tmp_path / "norms.dat"
    cli._write_norm_traces(trace, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "# t max_ratio_p=2 max_ratio_p=inf"
    assert lines[1].split() == ["0.1", "0.9", "0.8"]
    assert lines[2].split() == ["1.0", "0.5", "0.4"]


# -- check runner edge cases -------------------------------------------------------------------


def test_run_checks_unknown_name():
    with pytest.raises(ValueError, match="unknown checks"):
        run_checks(["nope"])


def test_run_checks_records_broken_params_as_failure(monkeypatch):
    def broken(seed=42):
        raise TypeError("broken check")

    monkeypatch.setitem(checks.CHECKS, "laplacian_spectrum", broken)
    results = run_checks(["laplacian_spectrum", "harmonic_oscillator"])
    assert len(results) == 2
    assert not results[0].passed
    assert results[0].detail == {"error": "TypeError: broken check"}
    record = results[0].verdict_record()
    assert record["name"] == "laplacian_spectrum"
    assert "runtime_s" not in record
    # the failure does not stop the checks after it
    assert results[1].name == "harmonic_oscillator" and results[1].passed is True


# -- start-up cost -----------------------------------------------------------------------------


_CONSTANT_V2 = '--coefficients.v={"kind":"constant","matrix":[[1,-0.4],[-0.4,2]]}'
#: the modules whose loading the table below pins
_TRACKED = [
    "numpy.polynomial", "scipy", "scipy.fft", "scipy.integrate",
    "matschrod._float_repr", "matschrod.semigroup", "matschrod.gallery", "matschrod.checks",
]
#: name: (command, the tracked modules it loads, the method its one verdict records)
_LAUNCHES = {
    "import": (None, [], None),
    "assemble": (["assemble", "--grid.d=2", "--grid.N=8"], [], None),
    "assemble-full-q": (
        ["assemble", "--grid.d=3", "--grid.N=12", "--grid.m=2",
         '--coefficients.q={"kind":"constant","matrix":[[1,0.3,0],[0.3,1.2,0.1],[0,0.1,1.5]]}', _CONSTANT_V2],
        [], None,
    ),
    "spectrum": (
        # dimension 8192 > DENSE_LIMIT, so eigen_lowest reads the closed form
        ["spectrum", "--grid.d=3", "--grid.N=16", "--grid.m=2",
         '--coefficients.q={"kind":"diagonal","entries":[1.0,1.37,1.83]}', _CONSTANT_V2, "--solver.k=10"],
        [], "separable",
    ),
    "evolve": (
        ["evolve", "--grid.d=2", "--grid.N=40", "--grid.m=2",
         '--coefficients.q={"kind":"diagonal","entries":[1.0,1.7]}', _CONSTANT_V2],
        ["matschrod._float_repr", "matschrod.semigroup"], "exact-separable",
    ),
    "evolve-dense": (
        ["evolve", "--grid.d=2", "--grid.N=8", "--grid.m=2"],
        ["numpy.polynomial", "scipy", "matschrod._float_repr", "matschrod.semigroup"], "exact-dense",
    ),
    "verify": (
        ["verify", '--probes.checks=["laplacian_spectrum"]'],
        ["numpy.polynomial", "scipy", "matschrod.semigroup", "matschrod.gallery", "matschrod.checks"], None,
    ),
}


@pytest.fixture(scope="module")
def launch(tmp_path_factory):
    """``launch(name)``: the tracked modules loaded, and the methods recorded, by
    ``matschrod.cli.main`` running ``_LAUNCHES[name]`` in a fresh process, launched
    once per module however many tests read it."""
    src = str(Path(matschrod.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    seen = {}

    def run(name):
        if name not in seen:
            command, out = _LAUNCHES[name][0], tmp_path_factory.mktemp(name)
            probe = "import sys, matschrod.cli"
            if command is not None:
                probe += f"; assert matschrod.cli.main({command + ['--out', str(out)]!r}) == 0"
            probe += f"; print([m for m in {_TRACKED!r} if m in sys.modules])"
            done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
            methods = None
            if command is not None:
                methods = [record["detail"].get("method") for record in _read_json(out / "verdicts.json")["records"]]
            seen[name] = done.stdout.strip(), methods
        return seen[name]

    return run


@pytest.mark.parametrize("name", list(_LAUNCHES))
def test_each_command_loads_only_the_modules_it_runs(launch, name):
    # every module costs each process time and memory at import, so each is
    # imported by the function that calls it: assemble and the closed-form
    # spectrum build and multiply B with numpy alone, the closed-form evolve
    # never builds B, and the CLI imports semigroup, gallery and checks inside
    # the subcommands that run them (checks imports the other two)
    command, loaded, method = _LAUNCHES[name]
    assert launch(name) == (repr(loaded), None if command is None else [method])


@pytest.mark.parametrize(
    "module, name",
    [
        ("scipy.integrate", "import"),
        ("scipy.fft", "import"),
        ("scipy.fft", "assemble"),
        ("scipy.fft", "evolve-dense"),
        ("scipy", "import"),
        ("scipy", "evolve"),
        ("scipy", "assemble"),
        ("scipy", "spectrum"),
    ],
    ids=[
        "import-integrate", "import-fft", "assemble-fft", "evolve-fft",
        "import-scipy", "separable-evolve-scipy", "assemble-scipy", "separable-spectrum-scipy",
    ],
)
def test_cli_leaves_scipy_module_unloaded(launch, module, name):
    # nothing loads scipy.fft or scipy.integrate, and assemble and the
    # closed-form spectrum and evolve load no scipy at all
    assert repr(module) not in launch(name)[0]


@pytest.mark.parametrize("name", ["assemble", "spectrum", "verify", "evolve"])
def test_only_evolve_loads_the_bulk_float_formatter(launch, name):
    assert ("'matschrod._float_repr'" in launch(name)[0]) == (name == "evolve")


def test_simpson_matches_scipy_bit_for_bit():
    from scipy.integrate import simpson

    rng = np.random.default_rng(31)
    for points in (3, 5, 33, 101, 2001):
        for x in (np.linspace(-2.0, 3.0, points), np.sort(rng.uniform(-5.0, 5.0, points))):
            y = rng.standard_normal(points)
            assert _simpson(y, x) == float(simpson(y, x=x))


def test_simpson_rejects_even_point_count():
    with pytest.raises(ValueError, match="odd number"):
        _simpson(np.ones(4), np.arange(4.0))
