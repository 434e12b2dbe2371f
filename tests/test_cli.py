"""End-to-end CLI runs: artifacts, exit codes, reproducibility."""
import csv
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import matschrod
from matschrod import checks, cli
from matschrod._float_repr import repr_bytes
from matschrod import operators as operators_module
from matschrod import semigroup
from matschrod.checks import run_checks
from matschrod.semigroup import _simpson


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


# -- spectrum ---------------------------------------------------------------------


def test_spectrum_matches_closed_form(tmp_path):
    rc = cli.main(["spectrum", "--out", str(tmp_path), "--grid.N=64", "--solver.k=12"])
    assert rc == 0
    with open(tmp_path / "spectrum.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    computed = np.array([float(r[1]) for r in rows])
    h = 2.0 / 65
    k = np.arange(1, 13)
    expected = (4.0 / h**2) * np.sin(k * np.pi / (2.0 * 65)) ** 2
    np.testing.assert_allclose(computed, expected, rtol=1e-10)
    detail = _read_json(tmp_path / "verdicts.json")["records"][0]["detail"]
    assert detail["method"] == "dense"
    assert detail["shift"] is None


@pytest.mark.parametrize(
    "flags, method, shift",
    [
        # constant coefficients: read off the closed form, every copy of -37.67
        (["--grid.d=2", "--grid.N=61", "--coefficients.v.kind=scaled_identity",
          "--coefficients.v.value=-50", "--solver.k=4"], "separable", None),
        # harmonic V: shift-invert Lanczos on the sparse LU of B + I
        (["--grid.d=2", "--grid.N=20", "--coefficients.v.kind=harmonic",
          "--coefficients.v.scale=1", "--solver.k=4"], "lanczos", -1.0),
    ],
    ids=["separable", "splu"],
)
def test_spectrum_verdict_echoes_the_lanczos_solve(tmp_path, flags, method, shift):
    rc = cli.main(["spectrum", "--out", str(tmp_path), "--solver.method=lanczos"] + flags)
    assert rc == 0
    detail = _read_json(tmp_path / "verdicts.json")["records"][0]["detail"]
    assert (detail["method"], detail["shift"]) == (method, shift)
    assert not {"solve", "restarts", "certified_count"} & set(detail)
    if method == "separable":
        np.testing.assert_allclose(detail["eigenvalues"][1:3], [-37.67, -37.67], atol=5e-3)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="forced Lanczos drops a copy of -320.332339 (ROADMAP item 2)")
def test_forced_lanczos_keeps_the_multiplicities_of_a_strongly_negative_potential(tmp_path):
    # dimension 100, so dense eigh is the oracle.  Lanczos returns -320.332339
    # and -320.332318 where dense has -320.332339 twice, and still passes its
    # residual check
    spectra = {}
    for method in ("dense", "lanczos"):
        out = tmp_path / method
        args = ["spectrum", "--grid.d=2", "--grid.N=10", "--coefficients.v.kind=harmonic",
                "--coefficients.v.scale=-400", "--solver.k=6", f"--solver.method={method}", "--out", str(out)]
        assert cli.main(args) == 0
        record = _read_json(out / "verdicts.json")["records"][0]
        assert record["passed"] is True and record["detail"]["method"] == method
        spectra[method] = record["detail"]
    bound = cli.DEFAULT_CONFIG["solver"]["tol"] * spectra["lanczos"]["matrix_norm"]
    np.testing.assert_allclose(spectra["lanczos"]["eigenvalues"], spectra["dense"]["eigenvalues"], rtol=0, atol=bound)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="LU Lanczos drops a copy of 22.66824 (ROADMAP item 2)")
def test_lanczos_keeps_the_multiplicities_of_the_3d_harmonic_oscillator(tmp_path):
    # CI's LU Lanczos command, dimension 4,096.  V = |x|^2 splits by axis, so
    # the spectrum is the Kronecker sum of three 1-d spectra: 2/h^2 + x^2 on
    # the diagonal, -1/h^2 off it.  Lanczos returns 22.66824 and 27.13417
    # twice each, where the oracle has 22.66824 three times, then 27.13417
    args = ["spectrum", "--grid.d=3", "--grid.N=16", "--coefficients.v.kind=harmonic",
            "--coefficients.v.scale=1.0", "--solver.k=8", "--out", str(tmp_path)]
    assert cli.main(args) == 0
    detail = _read_json(tmp_path / "verdicts.json")["records"][0]["detail"]
    assert detail["method"] == "lanczos"
    grid = matschrod.build_grid(3, 1.0, 16, 1)
    x = grid.axis_nodes()
    line = scipy.linalg.eigh_tridiagonal(2.0 / grid.h**2 + x**2, np.full(grid.N - 1, -1.0 / grid.h**2), eigvals_only=True)
    exact = np.sort((line[:, None, None] + line[None, :, None] + line[None, None, :]).ravel())[:8]
    bound = cli.DEFAULT_CONFIG["solver"]["tol"] * detail["matrix_norm"]
    np.testing.assert_allclose(detail["eigenvalues"], exact, rtol=0, atol=bound)


def test_spectrum_csv_roundtrip(tmp_path):
    op = cli._build_operator(cli.resolve_config(None, [("grid.N", 20)]))
    report = matschrod.eigen_lowest(op, 5)
    assert cli.main(["spectrum", "--out", str(tmp_path), "--grid.N=20", "--solver.k=5"]) == 0
    with open(tmp_path / "spectrum.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["index", "eigenvalue", "residual"]
    values = np.array([float(r[1]) for r in rows[1:]])
    np.testing.assert_array_equal(values, report.eigenvalues)  # repr() is lossless


@pytest.mark.parametrize(
    "args, message",
    [
        (["spectrum", "--grid.N=8", "--solver.k=100"], "solver.k=100 exceeds the matrix dimension 8"),
        (["assemble", "--grid.N=1"], "need at least 2 interior nodes per axis, got 1"),
        (["assemble", "--grid.d=5"], "dimension must be 1, 2 or 3, got 5"),
        (
            ["gallery", "--name", "harmonic_oscillator", '--gallery.params={"bogus_param": 3}'],
            "harmonic_oscillator() got an unexpected keyword argument 'bogus_param'",
        ),
        (
            # --name beats --gallery.name, and is validated and echoed like any key
            ["gallery", "--gallery.name=harmonic_oscillator", "--name", "no_such_problem"],
            "unknown gallery problem 'no_such_problem'; known: antisymmetric_continuity, "
            "coupled_confining, degenerate_counterexample, harmonic_oscillator",
        ),
    ],
    ids=["k-above-dimension", "grid", "grid-dimension", "gallery-params", "gallery-name"],
)
def test_failed_run_writes_resolved_config_but_no_verdicts(tmp_path, capsys, args, message):
    # each subcommand raises after resolved-config.json is written, and run
    # writes verdicts.json only from the records a subcommand returns
    assert cli.main(args + ["--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["resolved-config.json"]


# -- config errors ----------------------------------------------------------------


def test_unknown_override_key_rejected(tmp_path, capsys):
    for flag, message in [
        ("--grid.M=3", "unknown config key 'grid.M'"),
        ("--grdi.N=3", "unknown config key 'grdi'"),
        ("--grid.M.x=3", "unknown config key 'grid.M'"),
        ("--grid.N.x=1", "config key 'grid.N' is not a section"),
    ]:
        assert cli.main(["assemble", "--out", str(tmp_path), flag]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"


def test_unknown_file_key_rejected(tmp_path, capsys):
    # only validation knows the schema, and it names the first unknown key
    # (in sorted order) by its dotted path; a kind block names its kind
    config, out = tmp_path / "config.json", tmp_path / "out"
    for loaded, message in [
        ({"grdi": {"N": 3}}, "unknown config key 'grdi'"),
        ({"grid": {"M": 3}}, "unknown config key 'grid.M'"),
        ({"grid": {"N": {"x": 3}}}, "grid.N must be an integer"),
        ({"solver": {"k": 3, "zeta": 1, "alpha": 2}}, "unknown config key 'solver.alpha'"),
        ({"coefficients": {"w": {"kind": "zero"}}}, "unknown config key 'coefficients.w'"),
        (
            {"coefficients": {"v": {"kind": "harmonic", "scale": 1.0, "width": 2}}},
            "unknown keys ['width'] for coefficients.v.kind='harmonic'",
        ),
    ]:
        config.write_text(json.dumps(loaded))
        assert cli.main(["assemble", "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()


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


def test_bad_config_file(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert cli.main(["assemble", "--config", str(broken), "--out", str(tmp_path)]) == 2
    assert cli.main(["assemble", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path)]) == 2
    nonobject = tmp_path / "list.json"
    nonobject.write_text("[1, 2]")
    assert cli.main(["assemble", "--config", str(nonobject), "--out", str(tmp_path)]) == 2


def test_malformed_override_token(tmp_path):
    # a bare word, and a flag that only exists as a dotted key (gallery.check was removed)
    for args in (["assemble", "positional"], ["gallery", "--name", "degenerate_counterexample", "--check", "merge"]):
        assert cli.main(args + ["--out", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "args",
    [
        ["spectrum", "--grid.L=1e-200", "--solver.method=lanczos"],
        ["spectrum", "--grid.L=1e-200"],
        ["evolve", "--grid.L=1e-200"],
        ["assemble", "--grid.L=1e-200"],
        ["spectrum", "--grid.L=1e300"],
    ],
    ids=["lanczos-tiny", "spectrum-tiny", "evolve-tiny", "assemble-tiny", "spectrum-huge"],
)
def test_box_whose_spacing_powers_are_not_representable_exits_2(tmp_path, capsys, args):
    # past the check, h^2 = 0 divides by zero in the closed form, hands SciPy
    # infs or writes an infinite norm bound, and h^2 = inf gives eigenvalues of 0.0
    assert cli.main(args + ["--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("config error: grid.L=")


_Q_HUGE = ["--coefficients.q.kind=scaled_identity", "--coefficients.q.value=1e306"]


@pytest.mark.parametrize(
    "args, setting",
    [
        (["spectrum", "--grid.L=2.5e-153"], "grid.L"),
        (["evolve", "--grid.L=2.5e-153"], "grid.L"),
        (["spectrum", "--grid.L=2.5e-153", "--solver.method=lanczos"], "grid.L"),
        (["assemble", "--grid.L=2.5e-153"], "grid.L"),
        (["spectrum", "--grid.d=2", "--grid.L=2e155"], "grid.L"),
        (["evolve", "--grid.d=2", "--grid.L=4.3e155"], "grid.L"),
        (["spectrum", "--grid.L=3e154"], "grid.L"),
        (["assemble", "--grid.d=2", "--grid.L=5.2e-153"], "grid.L"),
        (["assemble"] + _Q_HUGE, "coefficients.q"),
        (["spectrum", "--grid.d=2"] + _Q_HUGE, "coefficients.q"),
        (["evolve", "--grid.d=2", "--grid.N=100"] + _Q_HUGE, "coefficients.q"),
        (["spectrum", "--grid.d=2", "--grid.N=100"] + _Q_HUGE, "coefficients.q"),
        (["assemble", "--grid.d=2", "--grid.N=100"] + _Q_HUGE, "coefficients.q"),
        (["evolve", "--grid.N=8", "--coefficients.v.kind=scaled_identity", "--coefficients.v.value=1e308"],
         "coefficients.v"),
    ],
    ids=["spectrum-tiny", "evolve-tiny", "lanczos-tiny", "assemble-tiny", "spectrum-subnormal", "evolve-measure",
         "spectrum-smallest-subnormal", "assemble-largest-overflows", "assemble-q", "spectrum-q",
         "evolve-closed-form-q", "spectrum-closed-form-q", "assemble-q-2d", "evolve-v"],
)
def test_an_operator_out_of_float_range_exits_2_naming_its_setting(tmp_path, capsys, recwarn, args, setting):
    # past the checks, B or the closed form's eigenvalues overflow, or fall
    # below the normal floats: SciPy refuses infs, Lanczos writes NaN, and
    # assemble, the dense path or the closed form exits 0 with infinities,
    # subnormal or wrong eigenvalues, or all-zero snapshots
    assert cli.main(args + ["--out", str(tmp_path)]) == 2
    assert setting in capsys.readouterr().err
    assert not [w for w in recwarn.list if issubclass(w.category, RuntimeWarning)]
    assert not any(b"NaN" in path.read_bytes() or b"nan" in path.read_bytes() for path in tmp_path.iterdir())


@pytest.mark.parametrize(
    "flags, rc, max_residual",
    [
        # ||B|| = 1.9e300: unscaled, the squares of the residual overflowed,
        # and the run failed with an infinite residual
        (["--grid.d=2", "--grid.N=20", "--coefficients.v.kind=harmonic", "--coefficients.v.scale=1e300"],
         0, 1.5888440662648427e+284),
        # B's entries near 1e-307 keep few bits of q/h^2: unscaled, the squares
        # underflowed to a residual of 0.0 that certified a wrong spectrum
        (["--coefficients.q.kind=scaled_identity", "--coefficients.q.value=1e-310"], 1, 1.4937630752565782e-307),
    ],
    ids=["huge", "subnormal"],
)
def test_residuals_are_measured_at_both_ends_of_the_float_range(tmp_path, recwarn, flags, rc, max_residual):
    assert cli.main(["spectrum"] + flags + ["--out", str(tmp_path)]) == rc
    record = _read_json(tmp_path / "verdicts.json")["records"][0]
    assert record["passed"] is (rc == 0)
    assert record["detail"]["max_residual"] == max_residual
    assert not [w for w in recwarn.list if issubclass(w.category, RuntimeWarning)]


def test_lanczos_certifies_an_operator_near_the_top_of_the_float_range(tmp_path, recwarn):
    # (B + I)^-1 maps unit vectors to entries near 1e-300, whose squares
    # underflowed in np.linalg.norm: every beta read 0 and the run exited 3
    flags = ["--grid.d=2", "--grid.N=100", "--coefficients.v.kind=harmonic", "--coefficients.v.scale=1e300"]
    assert cli.main(["spectrum"] + flags + ["--out", str(tmp_path)]) == 0
    detail = _read_json(tmp_path / "verdicts.json")["records"][0]["detail"]
    assert detail["method"] == "lanczos" and detail["matrix_norm"] > 1e300
    with open(tmp_path / "spectrum.csv", newline="") as fh:
        residuals = [float(row["residual"]) for row in csv.DictReader(fh)]
    assert len(residuals) == 10 and max(residuals) <= 1e-10 * detail["matrix_norm"]
    assert not [w for w in recwarn.list if issubclass(w.category, RuntimeWarning)]


def test_dense_spectrum_of_a_huge_tridiagonal_b_matches_its_closed_form(tmp_path, recwarn):
    # the tridiagonal bisection squares B's off-diagonal, which overflowed:
    # LAPACK's stebz did not converge, and the run exited 2 naming no setting
    flags = ["--coefficients.q.kind=scaled_identity", "--coefficients.q.value=1e200"]
    assert cli.main(["spectrum"] + flags + ["--out", str(tmp_path)]) == 0
    assert _read_json(tmp_path / "verdicts.json")["records"][0]["detail"]["method"] == "dense"
    with open(tmp_path / "spectrum.csv", newline="") as fh:
        eigenvalues = [float(row["eigenvalue"]) for row in csv.DictReader(fh)]
    N, j = 64, np.arange(1, 11)
    h = 2.0 / (N + 1)
    np.testing.assert_allclose(eigenvalues, 1e200 * (4 / h**2) * np.sin(j * np.pi / (2 * (N + 1))) ** 2, rtol=1e-12)
    assert not [w for w in recwarn.list if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize(
    "command, flag",
    [
        (["evolve"], "--propagator.krylov_dim=30"),
        (["gallery", "--name", "degenerate_counterexample"], "--gallery.k=20"),
        (["gallery", "--name", "degenerate_counterexample"], "--gallery.tol_rel=1e-8"),
        (["verify"], "--probes.params={}"),
        (["spectrum"], '--output.formats=["json"]'),
        (["spectrum"], "--solver.sandwich=true"),
        (["gallery"], "--gallery.check=merge"),
    ],
)
def test_removed_settings_are_unknown_keys(tmp_path, capsys, command, flag):
    # the Krylov subspace size is fixed, the merge reads k and tol_rel from its
    # claim, each check runs at its pinned sizes, every run writes all its files,
    # the bracket is the eigenvalue_sandwich check's and the merge is the gallery's
    assert cli.main(command + ["--out", str(tmp_path), flag]) == 2
    assert f"unknown config key {flag[2:].split('=')[0]!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, message",
    [
        # Crank-Nicolson and its step count are gone
        ("--propagator.method=crank-nicolson", "propagator.method must be one of"),
        ("--propagator.cn_steps=256", "unknown config key 'propagator.cn_steps'"),
    ],
)
def test_propagator_step_counts_must_be_integers(tmp_path, capsys, flag, message):
    assert cli.main(["evolve", "--out", str(tmp_path), flag]) == 2
    assert message in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "setting, value, message",
    [(s, v, m) for table in (_BAD_SETTINGS, _BAD_VALUES) for s, (m, values) in table.items() for v in values],
    ids=repr,
)
def test_wrongly_typed_setting_is_config_error(tmp_path, monkeypatch, capsys, setting, value, message):
    # through a config file, since --seed=... is the argparse flag; no --out,
    # so output.directory is the value under test
    monkeypatch.chdir(tmp_path)
    section, _, key = setting.rpartition(".")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({section: {key: value}} if section else {key: value}))
    assert cli.main(["assemble", "--config", str(config)]) == 2
    assert f"{setting} {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, setting",
    [
        (["spectrum", "--grid.d=2", "--grid.N=30", "--grid.L=5", "--coefficients.v.kind=harmonic",
          "--coefficients.v.scale=1", "--solver.k=6", "--solver.method=lanczos", "--solver.tol=0.9"],
         "solver.tol"),
        (["evolve", "--grid.d=2", "--grid.N=60", "--grid.L=5", "--coefficients.v.kind=harmonic",
          "--coefficients.v.scale=1", "--propagator.tol=0.5"], "propagator.tol"),
    ],
    ids=["spectrum", "evolve"],
)
def test_loosened_tolerance_exits_2(tmp_path, capsys, command, setting):
    # a looser tolerance let both runs pass with answers far from the default run's
    assert cli.main(command + ["--out", str(tmp_path)]) == 2
    assert f"config error: {setting} must be at most its default 1e-10" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag",
    [
        "--solver.k=true", "--grid.m=true", "--grid.L=true", "--solver.tol=true",
        "--propagator.tol=true", "--propagator.times=[true]", "--propagator.p_list=[true]",
        "--grid.d=true", "--output.directory=5",
        "--propagator.times=[Infinity]", "--propagator.times=[0.1, NaN]",
        "--probes.checks=[]", '--probes.checks=["contraction","contraction"]',
        "--propagator.p_list=[2,2]", "--seed=-1",
    ],
)
def test_wrongly_typed_flag_is_config_error(tmp_path, monkeypatch, capsys, flag):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["evolve", "--grid.N=8", flag]) == 2
    assert f"config error: {flag[2:].split('=')[0]} " in capsys.readouterr().err


@pytest.mark.parametrize(
    "block, kind, key",
    [
        ("coefficients.q", "scaled_identity", "value"),
        ("coefficients.q", "diagonal", "entries"),
        ("coefficients.q", "constant", "matrix"),
        ("coefficients.v", "scaled_identity", "value"),
        ("coefficients.v", "constant", "matrix"),
        ("coefficients.v", "harmonic", "scale"),
        ("evolve.initial_state", "constant", "vector"),
    ],
)
def test_kind_switch_without_required_key_is_config_error(tmp_path, capsys, block, kind, key):
    assert cli.main(["evolve", "--out", str(tmp_path), f"--{block}.kind={kind}"]) == 2
    assert f"{block}.{key} is required for {block}.kind={kind!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, message",
    [
        ('--coefficients.v={"kind":"harmonic","scale":null}', "v.scale must be a finite number"),
        ('--coefficients.v={"kind":"harmonic","scale":[1]}', "v.scale must be a finite number"),
        ('--coefficients.q={"kind":"scaled_identity","value":{"a":1}}', "q.value must be a finite number"),
        ('--coefficients.v={"kind":"scaled_identity","value":"2"}', "v.value must be a finite number"),
        ('--coefficients.q={"kind":"diagonal","entries":[1,null]}', "q.entries must be a list of finite"),
        ('--coefficients.v={"kind":"constant","matrix":[1,2]}', "v.matrix must be a list of lists"),
        ('--evolve.initial_state={"kind":"constant","vector":[true]}', "vector must be a list of finite"),
        ('--evolve.initial_state={"kind":"random","scale":"big"}', "scale must be a finite number"),
        ('--evolve.initial_state={"kind":"impulse","component":-1}', "component must be a nonnegative"),
        ('--evolve.initial_state={"kind":"impulse","node":1.5}', "node must be null or a nonnegative"),
        ('--evolve.initial_state={"kind":"bump","component":true}', "component must be null or a"),
        # out of range for the grid: the state constructors raise ValueError
        ('--evolve.initial_state={"kind":"bump","width":0}', "bump width must be positive, got 0.0"),
        ('--evolve.initial_state={"kind":"bump","component":1}', "bump component must be None or in [0, 1), got 1"),
        ('--evolve.initial_state={"kind":"impulse","node":8}', "impulse node must be in [0, 8), got 8"),
        ('--evolve.initial_state={"kind":"impulse","component":1}', "initial_state.component must be an integer below 1"),
    ],
)
def test_wrongly_typed_kind_key_is_config_error(tmp_path, capsys, flag, message):
    assert cli.main(["evolve", "--out", str(tmp_path), "--grid.N=8", flag]) == 2
    assert message in capsys.readouterr().err


def test_kind_switch_echoes_kind_defaults_that_reingest_to_the_same_run(tmp_path):
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    flags = ["--grid.N=16", "--evolve.initial_state.kind=impulse"]
    assert cli.main(["evolve", "--out", str(out1)] + flags) == 0
    resolved = _read_json(out1 / "resolved-config.json")
    assert resolved["evolve"]["initial_state"] == {"kind": "impulse", "node": None, "component": 0}
    assert cli.main(["evolve", "--config", str(out1 / "resolved-config.json"), "--out", str(out2)]) == 0
    for name in ("snapshots.csv", "probes.csv", "norms.dat", "verdicts.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_kind_dependent_key_validation(tmp_path):
    # width belongs to bump, not impulse
    rc = cli.main(
        [
            "evolve", "--out", str(tmp_path),
            '--evolve.initial_state={"kind": "impulse", "width": 0.5}',
        ]
    )
    assert rc == 2
    rc = cli.main(["assemble", "--out", str(tmp_path), "--coefficients.v.kind=wat"])
    assert rc == 2


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


@pytest.mark.parametrize(
    "flag, message",
    [
        ('--coefficients.q={"kind":"diagonal","entries":[1,2,3]}', "coefficients.q.entries must have 2 entries"),
        ('--coefficients.q={"kind":"constant","matrix":[[1]]}', "coefficients.q.matrix must be 2x2"),
        ('--coefficients.q={"kind":"scaled_identity","value":0}', "diffusion samples (coefficients.q) are not uniformly elliptic"),
        ('--coefficients.q={"kind":"diagonal","entries":[-1.0,2.0]}', "diffusion samples (coefficients.q) are not uniformly elliptic"),
        ('--coefficients.v={"kind":"constant","matrix":[[1,0],[0,1]]}', "coefficients.v.matrix must be 3x3"),
    ],
)
def test_coefficient_shape_errors_exit_2(tmp_path, capsys, recwarn, flag, message):
    rc = cli.main(["assemble", "--out", str(tmp_path), "--grid.d=2", "--grid.N=4", "--grid.m=3", flag])
    assert rc == 2
    # one line, with no Python warning printed around it
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1
    assert not recwarn.list


@pytest.mark.parametrize(
    "flag, missing",
    [('--grid={"d": 1}', "['L', 'N', 'm']"), ('--solver={"k": 3}', "['method', 'tol']")],
)
def test_section_flag_missing_keys_is_config_error(tmp_path, capsys, flag, missing):
    assert cli.main(["assemble", "--out", str(tmp_path), flag]) == 2
    section = flag[2:].split("=")[0]
    assert f"missing config keys {missing} in section {section!r}" in capsys.readouterr().err


@pytest.mark.parametrize("kind_first", [True, False])
def test_dotted_kind_switch_drops_default_keys(tmp_path, kind_first):
    kind = "--evolve.initial_state.kind=impulse"
    keys = ["--evolve.initial_state.node=5", "--evolve.initial_state.component=0"]
    flags = [kind] + keys if kind_first else keys + [kind]
    assert cli.main(["evolve", "--out", str(tmp_path)] + flags) == 0
    resolved = _read_json(tmp_path / "resolved-config.json")
    assert resolved["evolve"]["initial_state"] == {"kind": "impulse", "node": 5, "component": 0}


@pytest.mark.parametrize("kind_first", [True, False])
def test_dotted_kind_switch_rejects_user_key_of_old_kind(tmp_path, kind_first):
    kind = "--evolve.initial_state.kind=impulse"
    width = "--evolve.initial_state.width=0.3"
    flags = [kind, width] if kind_first else [width, kind]
    assert cli.main(["evolve", "--out", str(tmp_path)] + flags) == 2


# -- evolve ------------------------------------------------------------------------


def test_evolve_artifacts_and_contraction(tmp_path):
    rc = cli.main(
        [
            "evolve", "--out", str(tmp_path), "--grid.N=48",
            "--coefficients.v.kind=harmonic", "--coefficients.v.scale=1.0",
        ]
    )
    assert rc == 0
    with open(tmp_path / "probes.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and all(float(r["ratio"]) <= 1.0 + 1e-8 for r in rows)
    assert {r["p"] for r in rows} == {"1.0", "2.0", "4.0", "inf"}

    norms = (tmp_path / "norms.dat").read_text().strip().splitlines()
    assert norms[0].startswith("# t ")
    assert len(norms) == 1 + 3  # default times

    with open(tmp_path / "snapshots.csv", newline="") as fh:
        snap_rows = list(csv.DictReader(fh))
    assert len(snap_rows) == 4 * 48  # (t=0 plus three times) x nodes x one component
    verdicts = _read_json(tmp_path / "verdicts.json")
    assert verdicts["records"][0]["name"] == "evolve-contraction"
    assert verdicts["records"][0]["passed"] is True
    assert verdicts["records"][0]["detail"]["max_ratio"] <= 1.0 + 1e-8
    assert "reason" not in verdicts["records"][0]["detail"]


@pytest.mark.parametrize(
    "flag, reason",
    [
        ('--evolve.initial_state={"kind":"random","scale":0}', "the initial state is zero"),
        ('--coefficients.v={"kind":"scaled_identity","value":-3}', "needs a PSD potential"),
    ],
    ids=["zero-state", "negative-potential"],
)
def test_evolve_contraction_with_nothing_gated_is_null(tmp_path, flag, reason):
    # no ratio is guaranteed to be at most 1, so the verdict tests nothing:
    # null with a reason, which does not fail the run
    assert cli.main(["evolve", "--out", str(tmp_path), flag]) == 0
    verdicts = _read_json(tmp_path / "verdicts.json")
    record = verdicts["records"][0]
    assert record["passed"] is None and verdicts["all_passed"] is True
    assert reason in record["detail"]["reason"]


def test_evolve_zero_state_guarantees_no_row(tmp_path):
    # a zero state has no ratio, so no row of probes.csv is guaranteed to contract
    flag = '--evolve.initial_state={"kind":"constant","vector":[0.0]}'
    assert cli.main(["evolve", "--grid.N=16", "--out", str(tmp_path), flag]) == 0
    with open(tmp_path / "probes.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3 * 4
    assert all(r["ratio"] == "" and r["guaranteed"] == "False" for r in rows)
    assert _read_json(tmp_path / "verdicts.json") == {
        "all_passed": True,
        "records": [
            {
                "detail": {
                    "max_ratio": None,
                    "method": "exact-dense",
                    "reason": "the initial state is zero",
                    "violations": 0,
                },
                "name": "evolve-contraction",
                "passed": None,
            }
        ],
        "seed": 42,
        "subcommand": "evolve",
    }


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


def test_evolve_tiny_state_has_nonzero_norms(tmp_path):
    # the squares of a 1e-200 state underflow; the contraction probe must still see it
    rc = cli.main(
        [
            "evolve", "--out", str(tmp_path), "--grid.d=3", "--grid.N=10", "--grid.m=2",
            '--evolve.initial_state={"kind": "random", "scale": 1e-200}',
        ]
    )
    assert rc == 0
    with open(tmp_path / "probes.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3 * 4
    assert all(float(r["norm_in"]) > 0 and float(r["norm_out"]) > 0 and r["ratio"] for r in rows)
    assert len((tmp_path / "norms.dat").read_text().strip().splitlines()) == 1 + 3


def test_evolve_krylov_absurd_tolerance_exits_3(tmp_path):
    rc = cli.main(
        [
            "evolve", "--out", str(tmp_path), "--grid.N=100",
            "--propagator.method=lanczos-expmv",
            "--propagator.tol=1e-30",
        ]
    )
    assert rc == 3


@pytest.mark.parametrize(
    "grid_flags, method",
    [([], "exact-dense"), (["--grid.d=2", "--grid.N=60"], "exact-separable")],  # dimension 64, 3600
)
def test_evolve_exact_overflow_exits_3_without_warnings(tmp_path, capsys, recwarn, grid_flags, method):
    # lambda_min(B) is near -1000, so e^{-tB} overflows at t = 1: a solver
    # failure, raised before any work, not a config error
    rc = cli.main(
        ["evolve", "--out", str(tmp_path)] + grid_flags
        + ['--coefficients.v={"kind":"scaled_identity","value":-1000}', "--propagator.times=[1]"]
    )
    assert rc == 3
    assert f"solver failure: {method} propagation overflows at t=1" in capsys.readouterr().err
    assert not recwarn.list


def test_evolve_krylov_overflow_exits_3_without_warnings(tmp_path, capsys, recwarn):
    # dimension 3200 with a varying V takes lanczos-expmv, whose growth bound
    # e^{-tc}, c = min V (about -1810), overflows at t = 1
    rc = cli.main(
        [
            "evolve", "--out", str(tmp_path), "--grid.d=2", "--grid.N=40", "--grid.m=2",
            "--coefficients.v.kind=harmonic", "--coefficients.v.scale=-1000", "--propagator.times=[1]",
        ]
    )
    assert rc == 3
    assert "solver failure: lanczos-expmv propagation overflows at t=1" in capsys.readouterr().err
    assert not recwarn.list


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


def test_verify_unknown_check_rejected(tmp_path):
    rc = cli.main(["verify", "--out", str(tmp_path), '--probes.checks=["nope"]'])
    assert rc == 2


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


@pytest.mark.parametrize(
    "name, params, message",
    [
        ("degenerate_counterexample", {"N": 2.5}, "grid N must be an integer, got 2.5"),
        ("degenerate_counterexample", {"N": True}, "grid N must be an integer, got True"),
        ("coupled_confining", {"m": 2.0}, "grid m must be an integer, got 2.0"),
        (
            "degenerate_counterexample",
            {"N": 3},
            "claim 'merge' of problem 'degenerate_counterexample' needs 20 eigenvalues, but N=3 gives dimension 6",
        ),
        (
            "coupled_confining",
            {"N": 4},
            "claim 'sandwich' of problem 'coupled_confining' needs 10 eigenvalues, but N=4 gives dimension 8",
        ),
        (
            "harmonic_oscillator",
            {"N": 4},
            "claim 'lowest_eigenvalues' of problem 'harmonic_oscillator' needs 5 eigenvalues, but N=4 gives dimension 4",
        ),
    ],
    ids=["fractional-N", "bool-N", "float-m", "merge-k", "sandwich-k", "lowest-k"],
)
def test_gallery_params_the_grid_cannot_hold_exit_2(tmp_path, capsys, name, params, message):
    # the error names the parameter, or N and the dimension a claim's count
    # exceeds, not the claim's k, which no setting exposes
    args = ["gallery", "--out", str(tmp_path), "--name", name, "--gallery.params=" + json.dumps(params)]
    assert cli.main(args) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


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


def test_gallery_unknown_name_and_check(tmp_path, capsys):
    assert cli.main(["gallery", "--out", str(tmp_path), "--name", "wat"]) == 2
    # validation is the one route: there is no --check argument
    assert cli.main(["gallery", "--out", str(tmp_path), "--name", "degenerate_counterexample", "--check", "merge"]) == 2
    assert "unrecognized argument '--check'" in capsys.readouterr().err
    assert cli.main(["gallery", "--out", str(tmp_path), "--gallery.name=[1]"]) == 2
    assert (
        cli.main(
            [
                "gallery", "--out", str(tmp_path),
                "--name", "harmonic_oscillator",
                '--gallery.params={"bogus_param": 3}',
            ]
        )
        == 2
    )


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
