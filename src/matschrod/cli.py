"""Experiment runner: config parsing, subcommand dispatch, report emission.

Usage:

    matschrod <assemble|spectrum|evolve|verify|gallery>
              [--config FILE] [--seed N] [--out DIR] [--key.path=value ...]

Configs are UTF-8 JSON over a fixed schema; unknown keys are rejected and
every run echoes the fully resolved configuration to
``resolved-config.json``, which can be re-ingested to reproduce the run
bit for bit (verdict files carry no timings).  Dotted flags override single
values, e.g. ``--grid.N=500`` or
``--coefficients.v.kind=harmonic --coefficients.v.scale=1``; a kind's
defaults are filled in after the file and every flag, so a switched kind
starts from its own defaults.

Exit codes: 0 all verdicts passed; 1 a verdict failed; 2 configuration
error; 3 solver failure (non-convergence, under-resolved quadrature).
"""
from __future__ import annotations

import argparse
import copy
import csv
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .checks import CHECKS, run_checks
from .errors import ConfigError, ConvergenceError, QuadratureError
from .form import assemble_form
from .gallery import (
    GALLERY,
    build_problem,
    list_gallery,
    spectrum_merge_check,
    validate_expected,
)
from .grid import DiffusionField, PotentialField, VectorState, build_grid, mixed_norm
from .io import _jsonable
from .operators import assemble_operator, eigen_lowest, sandwich_check
from .semigroup import PropagatorConfig, default_config, propagate

__all__ = ["main", "run", "emit_plot_data", "DEFAULT_CONFIG"]

#: the schema: each plain setting must have the type of its default (a
#: float default takes a finite positive number; ``gallery.name``, null by
#: default, is checked by ``build_problem``); a kind block holds only its
#: kind, and ``_KINDS`` gives its other keys
DEFAULT_CONFIG = {
    "seed": 42,
    "grid": {"d": 1, "L": 1.0, "N": 64, "m": 1},
    "coefficients": {
        "q": {"kind": "identity"},
        "v": {"kind": "zero"},
    },
    "solver": {"k": 10, "tol": 1e-10, "method": "auto", "sandwich": False},
    "propagator": {
        "method": "auto",
        "times": [0.01, 0.1, 1.0],
        "krylov_dim": 30,
        "tol": 1e-10,
        "p_list": [1, 2, 4, "inf"],
    },
    "probes": {"checks": None, "params": {}},
    "evolve": {"initial_state": {"kind": "bump"}},
    "gallery": {"name": None, "params": {}, "check": "validate", "k": 20, "tol_rel": 1e-8},
    "output": {"directory": "matschrod-out", "formats": ["json", "csv", "dat"]},
}

#: enumerated settings: one choice where the default is a string, otherwise a
#: list of choices (or null, where the default is null)
_CHOICES = {
    "solver.method": ("auto", "dense", "lanczos"),
    "propagator.method": ("auto", "exact-dense", "lanczos-expmv"),
    "propagator.p_list": (1, 2, 4, "inf"),
    "probes.checks": tuple(CHECKS),
    "gallery.check": ("validate", "merge"),
    "output.formats": ("json", "csv", "dat"),
}

#: a kind key that has no default
_REQUIRED = object()

#: kind blocks: each kind's accepted keys with their defaults and types (keys
#: of ``_KIND_TYPES``); ranges and shapes are checked where the grid is known
_KINDS = {
    "coefficients.q": {
        "identity": {},
        "scaled_identity": {"value": (_REQUIRED, "number")},
        "diagonal": {"entries": (_REQUIRED, "numbers")},
        "constant": {"matrix": (_REQUIRED, "matrix")},
    },
    "coefficients.v": {
        "zero": {},
        "scaled_identity": {"value": (_REQUIRED, "number")},
        "constant": {"matrix": (_REQUIRED, "matrix")},
        "harmonic": {"scale": (_REQUIRED, "number")},
    },
    "evolve.initial_state": {
        "bump": {"width": (0.5, "number"), "component": (None, "index or null")},
        "impulse": {"node": (None, "index or null"), "component": (0, "index")},
        "random": {"scale": (1.0, "number")},
        "constant": {"vector": (_REQUIRED, "numbers")},
    },
}


def _is_finite(value) -> bool:
    return _is_number(value) and math.isfinite(value)


def _is_index(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _is_finite_list(value) -> bool:
    return isinstance(value, list) and all(_is_finite(v) for v in value)


#: what each kind-key type accepts, and how a config error names it
_KIND_TYPES = {
    "number": (_is_finite, "a finite number"),
    "numbers": (_is_finite_list, "a list of finite numbers"),
    "matrix": (lambda v: isinstance(v, list) and all(_is_finite_list(r) for r in v),
               "a list of lists of finite numbers"),
    "index": (_is_index, "a nonnegative integer"),
    "index or null": (lambda v: v is None or _is_index(v), "null or a nonnegative integer"),
}

#: config subtrees whose keys are not fixed by DEFAULT_CONFIG
_OPEN_PATHS = set(_KINDS) | {"probes.params", "gallery.params"}


# -- config plumbing ----------------------------------------------------------


def _is_open(path: str) -> bool:
    return any(path == p or path.startswith(p + ".") for p in _OPEN_PATHS)


def _merge(base: dict, override: dict, path: str = "") -> dict:
    for key, value in override.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            if _is_open(path or here):
                base[key] = copy.deepcopy(value)
                continue
            raise ConfigError(f"unknown config key {here!r}")
        if isinstance(base[key], dict) and isinstance(value, dict) and not _is_open(here):
            _merge(base[key], value, here)
        else:
            base[key] = copy.deepcopy(value)
    return base


def _set_by_path(config: dict, dotted: str, value):
    parts = dotted.split(".")
    node = config
    for depth, part in enumerate(parts[:-1]):
        here = ".".join(parts[: depth + 1])
        if part not in node:
            if _is_open(here):
                node[part] = {}
            else:
                raise ConfigError(f"unknown config key {here!r}")
        node = node[part]
        if not isinstance(node, dict):
            raise ConfigError(f"config key {here!r} is not a section")
    last = parts[-1]
    if last not in node and not _is_open(dotted) and not _is_open(".".join(parts[:-1])):
        raise ConfigError(f"unknown config key {dotted!r}")
    node[last] = value


def _parse_override_tokens(tokens: list) -> list:
    pairs = []
    for token in tokens:
        if not token.startswith("--") or "=" not in token:
            raise ConfigError(
                f"unrecognized argument {token!r} (overrides look like --grid.N=500)"
            )
        dotted, raw = token[2:].split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        pairs.append((dotted, value))
    return pairs


def _expect_keys(section: dict, allowed: set, path: str):
    if not isinstance(section, dict):
        raise ConfigError(f"config section {path!r} must be an object")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)} in section {path!r}")
    missing = allowed - set(section)
    if missing:
        raise ConfigError(f"missing config keys {sorted(missing)} in section {path!r}")


def _expect(cond: bool, message: str):
    if not cond:
        raise ConfigError(message)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_choice(value, choices) -> bool:
    # bool is excluded because True == 1 would match the exponent 1
    return not isinstance(value, bool) and value in choices


def _check_setting(path: str, value, default):
    """Check one plain setting against ``_CHOICES`` or the type of its default."""
    if path in _CHOICES:
        choices = _CHOICES[path]
        if isinstance(default, str):
            _expect(_is_choice(value, choices), f"{path} must be one of {list(choices)}, got {value!r}")
        else:
            _expect(
                (value is None and default is None)
                or (isinstance(value, list) and all(_is_choice(v, choices) for v in value)),
                f"{path} entries must be one of {list(choices)}, got {value!r}",
            )
    elif isinstance(default, bool):
        _expect(isinstance(value, bool), f"{path} must be a boolean")
    elif isinstance(default, int):
        _expect(isinstance(value, int) and not isinstance(value, bool), f"{path} must be an integer")
    elif isinstance(default, float):
        _expect(
            _is_number(value) and math.isfinite(value) and value > 0,
            f"{path} must be a finite positive number",
        )
    elif isinstance(default, str):
        _expect(isinstance(value, str), f"{path} must be a string")
    elif isinstance(default, list):  # propagator.times
        _expect(
            isinstance(value, list) and value and all(_is_number(v) for v in value),
            f"{path} must be a nonempty list of numbers",
        )


def _fill_kind_block(block, kinds: dict, path: str):
    """Check a kind block's keys and fill in the defaults of its kind."""
    _expect(isinstance(block, dict), f"config section {path!r} must be an object")
    kind = block.get("kind")
    _expect(
        isinstance(kind, str) and kind in kinds,
        f"{path}.kind must be one of {sorted(kinds)}, got {kind!r}",
    )
    extra = set(block) - {"kind"} - set(kinds[kind])
    _expect(not extra, f"unknown keys {sorted(extra)} for {path}.kind={kind!r}")
    for key, (default, kind_type) in kinds[kind].items():
        if key not in block:
            _expect(default is not _REQUIRED, f"{path}.{key} is required for {path}.kind={kind!r}")
            block[key] = default
        accepts, description = _KIND_TYPES[kind_type]
        _expect(accepts(block[key]), f"{path}.{key} must be {description}, got {block[key]!r}")


def _check_section(section, defaults: dict, path: str = ""):
    _expect_keys(section, set(defaults), path)
    for key, default in defaults.items():
        here = f"{path}.{key}" if path else key
        if here in _KINDS:
            _fill_kind_block(section[key], _KINDS[here], here)
        elif _is_open(here):
            _expect(isinstance(section[key], dict), f"{here} must be an object")
        elif isinstance(default, dict):
            _check_section(section[key], default, here)
        else:
            _check_setting(here, section[key], default)


def _validate_config(config: dict):
    """Check ``config`` against the schema, filling in kind defaults in place.

    Value ranges are left to ``GridSpec`` and ``PropagatorConfig``, apart
    from the two eigenvalue counts.
    """
    _check_section(config, DEFAULT_CONFIG)
    for section in ("solver", "gallery"):
        _expect(config[section]["k"] >= 1, f"{section}.k must be a positive integer")


def resolve_config(config_path, overrides, seed=None, out=None) -> dict:
    """Defaults, then file config, then dotted overrides, then --seed/--out.

    Kind defaults are filled in last, so a switched kind never keeps keys of
    the kind it replaced.
    """
    config = copy.deepcopy(DEFAULT_CONFIG)
    if config_path is not None:
        path = Path(config_path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {config_path}")
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must contain a JSON object")
        _merge(config, loaded)
    for dotted, value in overrides:
        _set_by_path(config, dotted, value)
    if seed is not None:
        config["seed"] = seed
    if out is not None:
        config["output"]["directory"] = str(out)
    _validate_config(config)
    return config


# -- coefficient and state builders -------------------------------------------


def _q_samples(block: dict, grid) -> np.ndarray:
    """Diffusion samples on the cell lattice; every Q kind is one constant matrix."""
    kind, d = block["kind"], grid.d
    if kind == "identity":
        mat = np.eye(d)
    elif kind == "scaled_identity":
        value = float(block["value"])
        _expect(value > 0, "coefficients.q.value must be positive")
        mat = value * np.eye(d)
    elif kind == "diagonal":
        entries = np.asarray(block["entries"], dtype=float)
        _expect(entries.shape == (d,), f"coefficients.q.entries must have {d} entries")
        mat = np.diag(entries)
    else:  # constant
        mat = np.asarray(block["matrix"], dtype=float)
        _expect(mat.shape == (d, d), f"coefficients.q.matrix must be {d}x{d}")
    return np.broadcast_to(mat, (grid.n_cells, d, d))


def _v_samples(block: dict, grid) -> np.ndarray:
    """Potential samples at the interior nodes."""
    kind, m = block["kind"], grid.m
    if kind == "zero":
        mat = np.zeros((m, m))
    elif kind == "scaled_identity":
        mat = float(block["value"]) * np.eye(m)
    elif kind == "constant":
        mat = np.asarray(block["matrix"], dtype=float)
        _expect(mat.shape == (m, m), f"coefficients.v.matrix must be {m}x{m}")
    else:  # harmonic, scale |x|^2
        # matmul takes each x.x through the dot kernel of ``x @ x``, so the bits
        # match a per-node loop; einsum and (x**2).sum(1) round differently
        x = grid.node_coords()
        r2 = np.matmul(x[:, None, :], x[:, :, None]).ravel()
        return (float(block["scale"]) * r2)[:, None, None] * np.eye(m)
    return np.broadcast_to(mat, (grid.n_nodes, m, m))


def _initial_state(block: dict, grid, seed: int) -> VectorState:
    kind = block["kind"]
    if kind == "bump":
        width = float(block["width"])
        _expect(width > 0, "evolve.initial_state.width must be positive")
        component = block["component"]
        _expect(
            component is None or component < grid.m,
            f"evolve.initial_state.component must be an integer below {grid.m}",
        )
        return VectorState.bump(grid, width, component)
    if kind == "impulse":
        component = block["component"]
        _expect(component < grid.m, f"evolve.initial_state.component must be an integer below {grid.m}")
        node = block["node"]
        _expect(
            node is None or node < grid.n_nodes,
            f"evolve.initial_state.node must be an integer below {grid.n_nodes}",
        )
        return VectorState.impulse(grid, node, np.eye(grid.m)[component])
    if kind == "random":
        scale = float(block["scale"])
        return VectorState.random(grid, np.random.default_rng(seed), scale)
    vector = np.asarray(block["vector"], dtype=float)  # constant
    _expect(vector.shape == (grid.m,), f"evolve.initial_state.vector must have {grid.m} entries")
    return VectorState(grid, np.tile(vector[:, None], (1, grid.n_nodes)))


def _build_operator(config: dict):
    g = config["grid"]
    try:
        grid = build_grid(g["d"], g["L"], g["N"], g["m"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    qs = _q_samples(config["coefficients"]["q"], grid)
    vs = _v_samples(config["coefficients"]["v"], grid)
    diffusion, potential = DiffusionField(grid, qs), PotentialField(grid, vs)
    op = assemble_operator(assemble_form(diffusion, potential, grid))
    return grid, diffusion, potential, op


def _propagator_config(block: dict, op) -> PropagatorConfig:
    method = block["method"]
    if method == "auto":
        method = default_config(op).method
    p_list = tuple(np.inf if p == "inf" else float(p) for p in block["p_list"])
    return PropagatorConfig(
        method=method,
        times=tuple(block["times"]),
        krylov_dim=block["krylov_dim"],
        tol=float(block["tol"]),
        p_list=p_list,
    )


# -- artifact emission ---------------------------------------------------------


def _write_json(payload, path: Path):
    with open(path, "w") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_verdicts(records: list, config: dict, subcommand: str, outdir: Path) -> bool:
    """Write verdicts.json; a record whose ``passed`` is null gated nothing and does not fail."""
    all_passed = all(rec["passed"] is not False for rec in records)
    _write_json(
        {
            "subcommand": subcommand,
            "seed": config["seed"],
            "all_passed": all_passed,
            "records": records,
        },
        outdir / "verdicts.json",
    )
    return all_passed


def emit_plot_data(report, kind: str, path):
    """Write a columnar .dat file (# header naming the columns).

    Kinds: "sandwich" (index with the three eigenvalue series),
    "norm-traces" (t with one max-ratio column per exponent) and
    "continuity-ratios" (scale n with the ratio r_n).  Empty reports
    produce a header-only file.
    """
    path = Path(path)
    if kind == "sandwich":
        lines = ["# index lower_eigenvalue vector_eigenvalue upper_eigenvalue"]
        for n, (lo, lam, hi) in enumerate(zip(report.lower, report.eigenvalues, report.upper)):
            lines.append(f"{n} {float(lo)!r} {float(lam)!r} {float(hi)!r}")
    elif kind == "norm-traces":
        records = [rec for rec in report if rec.get("ratio") is not None]
        ps = sorted({rec["p"] for rec in records})
        ts = sorted({rec["t"] for rec in records})
        header = "# t " + " ".join(
            "max_ratio_p=" + ("inf" if np.isinf(p) else f"{p:g}") for p in ps
        )
        lines = [header.rstrip()]
        for t in ts:
            cells = [repr(float(t))]
            for p in ps:
                ratios = [rec["ratio"] for rec in records if rec["t"] == t and rec["p"] == p]
                cells.append(repr(max(ratios)))
            lines.append(" ".join(cells))
    elif kind == "continuity-ratios":
        lines = ["# n ratio"]
        for rec in report:
            lines.append(f"{rec['n']} {rec['ratio']!r}")
    else:
        raise ValueError(f"unknown plot kind {kind!r}")
    path.write_text("\n".join(lines) + "\n")


#: rows of snapshots.csv joined into one string per write
_SNAPSHOT_CHUNK_ROWS = 8192


def _write_snapshots(snapshots: list, grid, path: Path):
    """One CSV row per (time, component, node): ``t,node,x0..x{d-1},component,value``.

    Floats are ``repr`` and lines end in CRLF, as ``csv.writer`` would write
    them; no field needs quoting.  The ``node,x0..`` prefix is formatted once,
    from the N axis positions in the C order of ``node_coords``, and each
    (time, component) block is written in slices of ``_SNAPSHOT_CHUNK_ROWS``
    rows, one string per slice, so the text held at once stays bounded
    whatever the grid size.
    """
    axis = [repr(c) for c in grid.axis_nodes().tolist()]
    prefixes = [
        f"{node}," + ",".join(xs) for node, xs in enumerate(itertools.product(axis, repeat=grid.d))
    ]
    header = ["t", "node"] + [f"x{i}" for i in range(grid.d)] + ["component", "value"]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for t, state in snapshots:
            for comp in range(grid.m):
                head, tail = f"{_jsonable(t)},", f",{comp},"
                values = state.values[comp]
                for start in range(0, len(prefixes), _SNAPSHOT_CHUNK_ROWS):
                    stop = start + _SNAPSHOT_CHUNK_ROWS
                    rows = prefixes[start:stop]
                    parts = [head, None, tail, None, "\r\n"] * len(rows)
                    parts[1::5] = rows
                    parts[3::5] = map(repr, values[start:stop].tolist())
                    fh.write("".join(parts))


# -- subcommands ----------------------------------------------------------------


def _cmd_assemble(config: dict, outdir: Path) -> bool:
    grid, diffusion, potential, op = _build_operator(config)
    gap = op.matrix - op.matrix.T
    stats = {
        "dimension": op.dim,
        "nonzeros": int(op.matrix.nnz),
        "h": grid.h,
        "stored_symmetry_gap": float(np.abs(gap.data).max()) if gap.nnz else 0.0,
        "ellipticity_lower": op.ellipticity_lower,
        "ellipticity_upper": op.ellipticity_upper,
        "q_diagonal": op.q_diagonal,
        "potential_psd": op.potential_psd,
        "potential_offdiag_max": op.potential_offdiag_max,
        "generator_norm_bound": op.generator_norm_bound(),
    }
    return _write_verdicts(
        [{"name": "assemble", "passed": stats["stored_symmetry_gap"] == 0.0, "detail": stats}],
        config,
        "assemble",
        outdir,
    )


def _cmd_spectrum(config: dict, outdir: Path) -> bool:
    grid, diffusion, potential, op = _build_operator(config)
    solver = config["solver"]
    if solver["k"] > op.dim:
        raise ConfigError(f"solver.k={solver['k']} exceeds the matrix dimension {op.dim}")
    report = eigen_lowest(op, solver["k"], tol=solver["tol"], method=solver["method"], seed=config["seed"])
    formats = config["output"]["formats"]
    if "csv" in formats:
        report.to_csv(outdir / "spectrum.csv")
    records = [
        {
            "name": "spectrum",
            "passed": bool(np.all(report.residuals <= solver["tol"] * report.matrix_norm)),
            "detail": {
                "eigenvalues": report.eigenvalues.tolist(),
                "max_residual": float(report.residuals.max()),
                "matrix_norm": report.matrix_norm,
                "method": report.method,
                "shift": report.shift,
            },
        }
    ]
    if solver["sandwich"]:
        if not potential.psd:
            raise ConfigError("solver.sandwich needs a PSD potential")
        srep = sandwich_check(
            diffusion, potential, grid, k=solver["k"], method=solver["method"], seed=config["seed"]
        )
        if "dat" in formats:
            emit_plot_data(srep, "sandwich", outdir / "sandwich.dat")
        records.append(
            {
                "name": "sandwich",
                "passed": srep.passed,
                "detail": {
                    "max_lower_violation": srep.max_lower_violation,
                    "max_upper_violation": srep.max_upper_violation,
                },
            }
        )
    return _write_verdicts(records, config, "spectrum", outdir)


def _cmd_evolve(config: dict, outdir: Path) -> bool:
    grid, diffusion, potential, op = _build_operator(config)
    prop = _propagator_config(config["propagator"], op)
    f0 = _initial_state(config["evolve"]["initial_state"], grid, config["seed"])
    norms_in = {p: mixed_norm(f0, p) for p in prop.p_list}
    formats = config["output"]["formats"]
    trace = []
    snapshots = [(0.0, f0)]
    for t in prop.times:
        ft = propagate(op, f0, t, prop)
        snapshots.append((t, ft))
        for p in prop.p_list:
            norm_out = mixed_norm(ft, p)
            trace.append(
                {
                    "t": t,
                    "p": p,
                    "norm_in": norms_in[p],
                    "norm_out": norm_out,
                    "ratio": norm_out / norms_in[p] if norms_in[p] > 0 else None,
                    "guaranteed": op.potential_psd and (p == 2.0 or op.q_diagonal),
                }
            )
    if "csv" in formats:
        with open(outdir / "probes.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "p", "norm_in", "norm_out", "ratio", "guaranteed"])
            for rec in trace:
                writer.writerow([_jsonable(rec[c]) for c in ("t", "p", "norm_in", "norm_out", "ratio", "guaranteed")])
        _write_snapshots(snapshots, grid, outdir / "snapshots.csv")
    if "dat" in formats:
        emit_plot_data(trace, "norm-traces", outdir / "norms.dat")
    gated = [rec for rec in trace if rec["guaranteed"] and rec["ratio"] is not None]
    guaranteed_bad = [rec for rec in gated if rec["ratio"] > 1.0 + 1e-8]
    detail = {
        "method": prop.method,
        "violations": len(guaranteed_bad),
        "max_ratio": max((r["ratio"] for r in trace if r["ratio"] is not None), default=None),
    }
    if not gated:
        detail["reason"] = (
            "the initial state is zero" if not any(norms_in.values())
            else "no (t, p) is guaranteed to contract: that needs a PSD potential, "
            "and for p != 2 also a diagonal diffusion"
        )
    records = [{"name": "evolve-contraction", "passed": not guaranteed_bad if gated else None, "detail": detail}]
    return _write_verdicts(records, config, "evolve", outdir)


def _cmd_verify(config: dict, outdir: Path) -> bool:
    results = run_checks(config["probes"]["checks"], config["probes"]["params"], config["seed"])
    if "csv" in config["output"]["formats"]:
        with open(outdir / "probes.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["check", "passed"])
            for res in results:
                writer.writerow([res.name, res.passed])
    return _write_verdicts(
        [res.verdict_record() for res in results], config, "verify", outdir
    )


def _cmd_gallery(config: dict, outdir: Path) -> bool:
    block = config["gallery"]
    formats = config["output"]["formats"]
    if block["name"] is None:
        _write_json(list_gallery(), outdir / "gallery.json")
        return _write_verdicts(
            [{"name": "gallery-list", "passed": True, "detail": {"problems": sorted(GALLERY)}}],
            config,
            "gallery",
            outdir,
        )
    try:
        problem = build_problem(block["name"], **block["params"])
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc
    if block["check"] == "merge":
        report = spectrum_merge_check(
            problem, k=block["k"], tol_rel=block["tol_rel"], seed=config["seed"]
        )
        if "csv" in formats:
            report.to_csv(outdir / "merge.csv")
        records = [
            {
                "name": f"gallery-merge-{problem.name}",
                "passed": report.passed,
                "detail": {"k": report.k, "max_deviation": float(report.deviations.max())},
            }
        ]
        return _write_verdicts(records, config, "gallery", outdir)
    result = validate_expected(problem, seed=config["seed"])
    continuity = result["claims"].get("continuity_ratios")
    if "dat" in formats and continuity is not None:
        n_list = problem.expected["continuity_ratios"]["n_list"]
        records = [{"n": n, "ratio": r} for n, r in zip(n_list, continuity["ratios"])]
        emit_plot_data(records, "continuity-ratios", outdir / "continuity_ratios.dat")
    return _write_verdicts(
        [
            {
                "name": f"gallery-{problem.name}",
                "passed": result["passed"],
                "detail": result["claims"],
            }
        ],
        config,
        "gallery",
        outdir,
    )


_SUBCOMMANDS = {
    "assemble": _cmd_assemble,
    "spectrum": _cmd_spectrum,
    "evolve": _cmd_evolve,
    "verify": _cmd_verify,
    "gallery": _cmd_gallery,
}


def run(subcommand: str, config: dict) -> int:
    """Resolved-config entry point; returns the exit code."""
    outdir = Path(config["output"]["directory"])
    outdir.mkdir(parents=True, exist_ok=True)
    _write_json(config, outdir / "resolved-config.json")
    all_passed = _SUBCOMMANDS[subcommand](config, outdir)
    return 0 if all_passed else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matschrod",
        description="discretized matrix Schroedinger operators: assembly, spectra, semigroups",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, help_text in (
        ("assemble", "assemble the operator and report matrix statistics"),
        ("spectrum", "compute the lowest eigenvalues (optionally with the sandwich brackets)"),
        ("evolve", "propagate an initial state and trace its mixed norms"),
        ("verify", "run the named theorem checks and write a verdict file"),
        ("gallery", "list built-in problems or validate one of them"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="seed overriding the config")
        p.add_argument("--out", default=None, help="output directory overriding the config")
        if name == "gallery":
            p.add_argument("--name", default=None, help="gallery problem name")
            p.add_argument("--check", default=None, choices=("validate", "merge"))
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args, leftover = parser.parse_known_args(argv)
    try:
        overrides = _parse_override_tokens(leftover)
        config = resolve_config(args.config, overrides, seed=args.seed, out=args.out)
        if args.subcommand == "gallery":
            if getattr(args, "name", None) is not None:
                config["gallery"]["name"] = args.name
            if getattr(args, "check", None) is not None:
                config["gallery"]["check"] = args.check
        return run(args.subcommand, config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, QuadratureError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
