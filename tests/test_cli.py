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

import matschrod
from matschrod import cli
from matschrod import operators as operators_module
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


def test_spectrum_with_sandwich_emits_dat(tmp_path):
    rc = cli.main(
        [
            "spectrum",
            "--out", str(tmp_path),
            "--grid.N=24", "--grid.m=2",
            '--coefficients.v={"kind": "constant", "matrix": [[2.0, -0.5], [-0.5, 2.0]]}',
            "--solver.k=6", "--solver.sandwich=true",
        ]
    )
    assert rc == 0
    verdicts = _read_json(tmp_path / "verdicts.json")
    assert [r["name"] for r in verdicts["records"]] == ["spectrum", "sandwich"]
    assert verdicts["all_passed"] is True
    lines = (tmp_path / "sandwich.dat").read_text().strip().splitlines()
    assert lines[0].startswith("# index")
    assert len(lines) == 1 + 6
    idx, lo, lam, hi = lines[1].split()
    assert float(lo) <= float(lam) + 1e-8 and float(lam) <= float(hi) + 1e-8


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


def test_spectrum_k_exceeding_dimension_is_config_error(tmp_path):
    rc = cli.main(["spectrum", "--out", str(tmp_path), "--grid.N=8", "--solver.k=100"])
    assert rc == 2


def test_formats_subset_suppresses_csv(tmp_path):
    rc = cli.main(["spectrum", "--out", str(tmp_path), '--output.formats=["json"]'])
    assert rc == 0
    assert not (tmp_path / "spectrum.csv").exists()
    assert (tmp_path / "verdicts.json").exists()


# -- config errors ----------------------------------------------------------------


def test_unknown_override_key_rejected(tmp_path):
    assert cli.main(["assemble", "--out", str(tmp_path), "--grid.M=3"]) == 2
    assert cli.main(["assemble", "--out", str(tmp_path), "--grdi.N=3"]) == 2


def test_unknown_file_key_rejected(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"grid": {"M": 3}}))
    assert cli.main(["assemble", "--config", str(config), "--out", str(tmp_path)]) == 2


def test_bad_config_file(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert cli.main(["assemble", "--config", str(broken), "--out", str(tmp_path)]) == 2
    assert cli.main(["assemble", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path)]) == 2
    nonobject = tmp_path / "list.json"
    nonobject.write_text("[1, 2]")
    assert cli.main(["assemble", "--config", str(nonobject), "--out", str(tmp_path)]) == 2


def test_malformed_override_token(tmp_path):
    assert cli.main(["assemble", "--out", str(tmp_path), "positional"]) == 2


def test_invalid_grid_parameters_are_config_errors(tmp_path):
    assert cli.main(["assemble", "--out", str(tmp_path), "--grid.d=5"]) == 2
    assert cli.main(["assemble", "--out", str(tmp_path), "--grid.N=1"]) == 2


@pytest.mark.parametrize("value", ["-1", "0", "Infinity", "NaN", '"1e-8"'])
def test_gallery_tol_rel_must_be_finite_positive(tmp_path, capsys, value):
    rc = cli.main(
        [
            "gallery", "--out", str(tmp_path),
            "--name", "degenerate_counterexample", "--check", "merge",
            f"--gallery.tol_rel={value}", '--gallery.params={"N": 40}',
        ]
    )
    assert rc == 2
    assert "gallery.tol_rel must be a finite positive number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, message",
    [
        ("--propagator.krylov_dim=2.5", "propagator.krylov_dim must be an integer"),
        ("--propagator.krylov_dim=1", "krylov_dim must be >= 2"),
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
    "solver.sandwich": ("must be a boolean", [1, "true", None]),
    "propagator.method": _ONE_OF,
    "propagator.times": ("must be a nonempty list of numbers", [[], [True], 0.1, [0.1, "1"]]),
    "propagator.krylov_dim": _INT,
    "propagator.tol": _FLOAT,
    "propagator.p_list": _LIST_OF,
    "probes.checks": _LIST_OF,
    "gallery.check": _ONE_OF,
    "gallery.k": _INT,
    "gallery.tol_rel": _FLOAT,
    "output.directory": ("must be a string", [5, True, None]),
    "output.formats": _LIST_OF,
}


def _typed_settings(tree, path=""):
    for key, default in tree.items():
        here = f"{path}.{key}" if path else key
        if here in cli._OPEN_PATHS:
            continue
        if isinstance(default, dict):
            yield from _typed_settings(default, here)
        elif default is not None or here in cli._CHOICES:
            yield here


def test_bad_settings_table_covers_every_typed_setting():
    assert sorted(_typed_settings(cli.DEFAULT_CONFIG)) == sorted(_BAD_SETTINGS)


@pytest.mark.parametrize(
    "setting, value, message",
    [(s, v, m) for s, (m, values) in _BAD_SETTINGS.items() for v in values],
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
    "flag",
    [
        "--solver.k=true", "--grid.m=true", "--grid.L=true", "--solver.tol=true",
        "--propagator.tol=true", "--propagator.times=[true]", "--propagator.p_list=[true]",
        "--grid.d=true", "--output.directory=5",
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
        grid, diffusion, potential, _ = cli._build_operator(config)
        ref_q, ref_v = matschrod.sample_fields(_point_q_fn(q_block, d), _point_v_fn(v_block, m), grid)
        assert np.array_equal(diffusion.samples, ref_q.samples), q_block
        assert np.array_equal(potential.samples, ref_v.samples), v_block
        assert not diffusion.samples.flags.writeable and not potential.samples.flags.writeable


@pytest.mark.parametrize(
    "flag, message",
    [
        ('--coefficients.q={"kind":"diagonal","entries":[1,2,3]}', "coefficients.q.entries must have 2 entries"),
        ('--coefficients.q={"kind":"constant","matrix":[[1]]}', "coefficients.q.matrix must be 2x2"),
        ('--coefficients.q={"kind":"scaled_identity","value":0}', "coefficients.q.value must be positive"),
        ('--coefficients.v={"kind":"constant","matrix":[[1,0],[0,1]]}', "coefficients.v.matrix must be 3x3"),
    ],
)
def test_coefficient_shape_errors_exit_2(tmp_path, capsys, flag, message):
    rc = cli.main(["assemble", "--out", str(tmp_path), "--grid.d=2", "--grid.N=4", "--grid.m=3", flag])
    assert rc == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, missing",
    [('--grid={"d": 1}', "['L', 'N', 'm']"), ('--solver={"k": 3}', "['method', 'sandwich', 'tol']")],
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
    initial_state, propagate = cli._initial_state, cli.propagate

    def record_initial(*args):
        f0 = initial_state(*args)
        snapshots.append((0.0, f0))
        return f0

    def record_propagate(op, f0, t, prop):
        ft = propagate(op, f0, t, prop)
        snapshots.append((t, ft))
        return ft

    monkeypatch.setattr(cli, "_initial_state", record_initial)
    monkeypatch.setattr(cli, "propagate", record_propagate)
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
            "--propagator.tol=1e-30", "--propagator.krylov_dim=2",
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


def test_verify_unattainable_tolerance_fails_honestly(tmp_path):
    rc = cli.main(
        [
            "verify", "--out", str(tmp_path),
            '--probes.checks=["laplacian_spectrum"]',
            '--probes.params={"laplacian_spectrum": {"rtol": 1e-18}}',
        ]
    )
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


def test_gallery_merge_subcommand(tmp_path):
    rc = cli.main(
        [
            "gallery", "--out", str(tmp_path),
            "--name", "degenerate_counterexample", "--check", "merge",
            '--gallery.params={"N": 80, "L": 4.0}', "--gallery.k=10",
        ]
    )
    assert rc == 0
    with open(tmp_path / "merge.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 10
    assert all(float(r["deviation"]) <= float(r["tolerance"]) for r in rows)


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


def test_gallery_unknown_name_and_check(tmp_path):
    assert cli.main(["gallery", "--out", str(tmp_path), "--name", "wat"]) == 2
    assert cli.main(["gallery", "--out", str(tmp_path), "--gallery.name=[1]"]) == 2
    assert cli.main(["gallery", "--out", str(tmp_path), "--gallery.check=bogus"]) == 2
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


# -- plot data helper ------------------------------------------------------------------------


def test_emit_plot_data_norm_traces_empty_is_header_only(tmp_path):
    path = tmp_path / "empty.dat"
    cli.emit_plot_data([], "norm-traces", path)
    assert path.read_text() == "# t\n"


def test_emit_plot_data_unknown_kind(tmp_path):
    with pytest.raises(ValueError, match="unknown plot kind"):
        cli.emit_plot_data([], "scatter", tmp_path / "x.dat")


def test_emit_plot_data_norm_traces_columns(tmp_path):
    trace = [
        {"t": 0.1, "p": 2.0, "ratio": 0.9},
        {"t": 0.1, "p": np.inf, "ratio": 0.8},
        {"t": 1.0, "p": 2.0, "ratio": 0.5},
        {"t": 1.0, "p": np.inf, "ratio": 0.4},
        {"t": 1.0, "p": np.inf, "ratio": None},  # skipped
    ]
    path = tmp_path / "norms.dat"
    cli.emit_plot_data(trace, "norm-traces", path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "# t max_ratio_p=2 max_ratio_p=inf"
    assert lines[1].split() == ["0.1", "0.9", "0.8"]
    assert lines[2].split() == ["1.0", "0.5", "0.4"]


# -- check runner edge cases -------------------------------------------------------------------


def test_run_checks_unknown_name():
    with pytest.raises(ValueError, match="unknown checks"):
        run_checks(["nope"])


def test_run_checks_records_broken_params_as_failure():
    results = run_checks(["laplacian_spectrum"], {"laplacian_spectrum": {"bogus_kw": 1}})
    assert len(results) == 1
    assert not results[0].passed
    assert "TypeError" in results[0].detail["error"]
    record = results[0].verdict_record()
    assert record["name"] == "laplacian_spectrum"
    assert "runtime_s" not in record


# -- start-up cost -----------------------------------------------------------------------------


_SEPARABLE_EVOLVE = [
    "evolve", "--grid.d=2", "--grid.N=40", "--grid.m=2",
    '--coefficients.q={"kind":"diagonal","entries":[1.0,1.7]}',
    '--coefficients.v={"kind":"constant","matrix":[[1,-0.4],[-0.4,2]]}',
    '--output.formats=["json"]',
]
_ASSEMBLE = ["assemble", "--grid.d=2", "--grid.N=8"]


@pytest.mark.parametrize(
    "modules, run",
    [
        (["scipy.integrate"], None),
        (["scipy.fft"], None),
        (["scipy.fft"], _ASSEMBLE),
        (["scipy.fft"], ["evolve", "--grid.d=2", "--grid.N=8", "--grid.m=2"]),
        (["scipy"], None),
        (["scipy"], _SEPARABLE_EVOLVE),
        (["scipy.linalg", "scipy.sparse.linalg"], _ASSEMBLE),
    ],
    ids=[
        "import-integrate", "import-fft", "assemble-fft", "evolve-fft",
        "import-scipy", "separable-evolve-scipy", "assemble-linalg",
    ],
)
def test_cli_leaves_scipy_module_unloaded(tmp_path, modules, run):
    # every scipy module costs each process time and memory at import, so each
    # is imported by the function that calls it: a closed-form evolve (above
    # DENSE_LIMIT) runs on numpy alone, assemble loads scipy.sparse only, and
    # nothing loads scipy.fft or scipy.integrate
    src = str(Path(matschrod.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import sys, matschrod.cli"
    if run is not None:
        probe += f"; assert matschrod.cli.main({run + ['--out', str(tmp_path)]!r}) == 0"
    probe += f"; print([m for m in {modules!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


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
