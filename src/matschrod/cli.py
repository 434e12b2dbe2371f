"""Experiment runner: config parsing, subcommand dispatch, report emission.

Usage:

    matschrod <assemble|spectrum|evolve|verify|gallery>
              [--config FILE] [--seed N] [--out DIR] [--key.path=value ...]

Configs are UTF-8 JSON over a fixed schema.  A run resolves its config in
this order: the defaults, then the ``--config`` file, then the dotted flags
(e.g. ``--grid.N=500`` or ``--coefficients.v.kind=harmonic
--coefficients.v.scale=1``), then ``--seed``, ``--out`` and ``--name``,
which set ``seed``, ``output.directory`` and ``gallery.name``, and last the
defaults of each kind, so a switched kind starts from its own defaults.
Only validation, which runs on the resolved config, knows which keys
exist: it rejects an unknown key by its dotted path.  Every run echoes the
resolved config to ``resolved-config.json``, which can be re-ingested to
reproduce the run bit for bit at the same OpenBLAS thread count (verdict
files carry no timings).

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

from .errors import ConfigError, ConvergenceError, QuadratureError
from .form import assemble_form
from .grid import DiffusionField, PotentialField, VectorState, build_grid
from .operators import assemble_operator, eigen_lowest

# ``checks``, ``gallery`` and ``semigroup`` are imported by the subcommands
# that run them, so a launch loads only the modules its subcommand needs

__all__ = ["main", "run", "DEFAULT_CONFIG"]

#: the schema: each plain setting must have the type of its default (a
#: float default takes a finite positive number, and a tolerance at most its
#: default; ``gallery.name``, null by default, is checked by
#: ``build_problem``); a kind block holds only its kind, and ``_KINDS`` gives
#: its other keys; ``gallery.params`` is the one free-form section
DEFAULT_CONFIG = {
    "seed": 42,
    "grid": {"d": 1, "L": 1.0, "N": 64, "m": 1},
    "coefficients": {
        "q": {"kind": "identity"},
        "v": {"kind": "zero"},
    },
    "solver": {"k": 10, "tol": 1e-10, "method": "auto"},
    "propagator": {
        "method": "auto",
        "times": [0.01, 0.1, 1.0],
        "tol": 1e-10,
        "p_list": [1, 2, 4, "inf"],
    },
    "probes": {"checks": None},
    "evolve": {"initial_state": {"kind": "bump"}},
    "gallery": {"name": None, "params": {}},
    "output": {"directory": "matschrod-out"},
}


def _check_names() -> tuple:
    from .checks import CHECKS

    return tuple(CHECKS)


#: enumerated settings: one choice where the default is a string, otherwise a
#: nonempty list of distinct choices (or null, where the default is null); a
#: function gives choices that are looked up only when the setting is not null
_CHOICES = {
    "solver.method": ("auto", "dense", "lanczos"),
    "propagator.method": ("auto", "exact-dense", "lanczos-expmv"),
    "propagator.p_list": (1, 2, 4, "inf"),
    "probes.checks": _check_names,
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

# -- config plumbing ----------------------------------------------------------


def _merge(base: dict, override: dict):
    """Merge ``override`` into ``base``, section by section."""
    for key, value in override.items():
        if isinstance(base.get(key), dict) and isinstance(value, dict):
            _merge(base[key], value)
        else:
            base[key] = value


def _set_by_path(config: dict, dotted: str, value):
    *sections, last = dotted.split(".")
    node = config
    for depth, part in enumerate(sections):
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"config key {'.'.join(sections[: depth + 1])!r} is not a section")
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
    """The one check of key names: unknown keys are named by their dotted path."""
    if not isinstance(section, dict):
        raise ConfigError(f"config section {path!r} must be an object")
    unknown = sorted(set(section) - allowed)
    if unknown:
        here = f"{path}.{unknown[0]}" if path else unknown[0]
        raise ConfigError(f"unknown config key {here!r}")
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
        if value is None and default is None:
            return
        choices = _CHOICES[path]
        if callable(choices):
            choices = choices()
        if isinstance(default, str):
            _expect(_is_choice(value, choices), f"{path} must be one of {list(choices)}, got {value!r}")
        else:
            _expect(
                isinstance(value, list) and all(_is_choice(v, choices) for v in value),
                f"{path} entries must be one of {list(choices)}, got {value!r}",
            )
            _expect(
                0 < len(value) == len(set(value)),
                f"{path} must be a nonempty list of distinct entries, got {value!r}",
            )
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
        _expect(all(_is_finite(v) for v in value), f"{path} entries must be finite, got {value!r}")


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
        elif here == "gallery.params":  # the builder's keyword arguments
            _expect(isinstance(section[key], dict), f"{here} must be an object")
        elif isinstance(default, dict):
            _check_section(section[key], default, here)
        else:
            _check_setting(here, section[key], default)


def _validate_config(config: dict):
    """Check ``config`` against the schema, filling in kind defaults in place.

    Value ranges are left to ``GridSpec`` and ``PropagatorConfig``, apart
    from the seed, the eigenvalue count and the two tolerances, which a run
    may tighten but not loosen.
    """
    _check_section(config, DEFAULT_CONFIG)
    _expect(config["seed"] >= 0, "seed must be a nonnegative integer")
    _expect(config["solver"]["k"] >= 1, "solver.k must be a positive integer")
    for section in ("solver", "propagator"):
        tol, default = config[section]["tol"], DEFAULT_CONFIG[section]["tol"]
        _expect(tol <= default, f"{section}.tol must be at most its default {default!r}, got {tol!r}")


def resolve_config(config_path, overrides) -> dict:
    """Defaults, then the file config, then the ``(dotted key, value)`` overrides in order.

    Only validation knows the schema: it rejects unknown keys and fills in
    kind defaults last, so a switched kind never keeps keys of the kind it
    replaced.
    """
    config = copy.deepcopy(DEFAULT_CONFIG)
    if config_path is not None:
        path = Path(config_path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {config_path}")
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {config_path} is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {config_path} must contain a JSON object")
        _merge(config, loaded)
    for dotted, value in overrides:
        _set_by_path(config, dotted, value)
    _validate_config(config)
    return config


# -- coefficient and state builders -------------------------------------------


def _q_samples(block: dict, grid) -> np.ndarray:
    """Diffusion samples on the cell lattice; every Q kind is one constant matrix."""
    kind, d = block["kind"], grid.d
    if kind == "identity":
        mat = np.eye(d)
    elif kind == "scaled_identity":
        mat = float(block["value"]) * np.eye(d)
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
        return VectorState.bump(grid, float(block["width"]), block["component"])
    if kind == "impulse":
        component = block["component"]
        _expect(component < grid.m, f"evolve.initial_state.component must be an integer below {grid.m}")
        return VectorState.impulse(grid, block["node"], np.eye(grid.m)[component])
    if kind == "random":
        scale = float(block["scale"])
        return VectorState.random(grid, np.random.default_rng(seed), scale)
    vector = np.asarray(block["vector"], dtype=float)  # constant
    _expect(vector.shape == (grid.m,), f"evolve.initial_state.vector must have {grid.m} entries")
    return VectorState(grid, np.tile(vector[:, None], (1, grid.n_nodes)))


def _build_operator(config: dict):
    g = config["grid"]
    grid = build_grid(g["d"], g["L"], g["N"], g["m"])
    qs = _q_samples(config["coefficients"]["q"], grid)
    vs = _v_samples(config["coefficients"]["v"], grid)
    return assemble_operator(assemble_form(DiffusionField(grid, qs), PotentialField(grid, vs), grid))


def _propagator_config(block: dict, op):
    from .semigroup import PropagatorConfig, default_config

    method = block["method"]
    if method == "auto":
        method = default_config(op).method
    p_list = tuple(np.inf if p == "inf" else float(p) for p in block["p_list"])
    return PropagatorConfig(
        method=method,
        times=tuple(block["times"]),
        tol=float(block["tol"]),
        p_list=p_list,
    )


# -- artifact emission ---------------------------------------------------------


def _jsonable(obj):
    """Nested dicts/lists/arrays/numpy scalars -> JSON values; +-inf become strings."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        if np.isinf(f):
            return "inf" if f > 0 else "-inf"
        return f
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _write_json(payload, path: Path):
    with open(path, "w") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: Path, header: list, rows):
    """A CSV file of the header row and then ``rows``, as ``csv.writer`` writes them."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_norm_traces(trace: list, path: Path):
    """norms.dat: t with one max-ratio column per exponent; header only when
    no record has a ratio."""
    records = [rec for rec in trace if rec.get("ratio") is not None]
    ps = sorted({rec["p"] for rec in records})
    ts = sorted({rec["t"] for rec in records})
    header = "# t " + " ".join("max_ratio_p=" + ("inf" if np.isinf(p) else f"{p:g}") for p in ps)
    lines = [header.rstrip()]
    for t in ts:
        cells = [repr(float(t))]
        for p in ps:
            cells.append(repr(max(rec["ratio"] for rec in records if rec["t"] == t and rec["p"] == p)))
        lines.append(" ".join(cells))
    path.write_text("\n".join(lines) + "\n")


#: rows of snapshots.csv joined into one string per write
_SNAPSHOT_CHUNK_ROWS = 8192


def _node_prefixes(grid) -> list:
    """The ``node,x0..x{d-1}`` field of every node, as bytes, in the C order of ``node_coords``."""
    axis = [repr(c) for c in grid.axis_nodes().tolist()]
    return [f"{node},{','.join(xs)}".encode() for node, xs in enumerate(itertools.product(axis, repeat=grid.d))]


def _write_snapshots(snapshots: list, grid, path: Path):
    """One CSV row per (time, component, node): ``t,node,x0..x{d-1},component,value``.

    Floats are ``repr`` and lines end in CRLF, as ``csv.writer`` would write
    them; no field needs quoting.  The ``node,x0..`` prefixes are built once
    by ``_node_prefixes``, and each (time, component) block is written in
    slices of ``_SNAPSHOT_CHUNK_ROWS`` rows, one string per slice, so the
    text held at once stays bounded whatever the grid size.  The values of a
    slice are formatted together by ``repr_bytes``, byte for byte as
    ``repr`` formats each one.
    """
    from ._float_repr import repr_bytes

    prefixes = _node_prefixes(grid)
    header = ["t", "node"] + [f"x{i}" for i in range(grid.d)] + ["component", "value"]
    with open(path, "wb") as fh:
        fh.write(",".join(header).encode() + b"\r\n")
        for t, state in snapshots:
            for comp in range(grid.m):
                head, tail = f"{_jsonable(t)},".encode(), f",{comp},".encode()
                values = state.values[comp]
                for start in range(0, len(prefixes), _SNAPSHOT_CHUNK_ROWS):
                    stop = start + _SNAPSHOT_CHUNK_ROWS
                    rows = prefixes[start:stop]
                    parts = [head, None, tail, None, b"\r\n"] * len(rows)
                    parts[1::5] = rows
                    parts[3::5] = repr_bytes(values[start:stop])
                    fh.write(b"".join(parts))


# -- subcommands ----------------------------------------------------------------


def _cmd_assemble(config: dict, outdir: Path) -> list:
    op = _build_operator(config)
    b = op.generator()  # S scaled entry by entry: its nonzeros are S's
    stats = {
        "dimension": op.dim,
        "nonzeros": int(b.nnz),
        "h": op.grid.h,
        "stored_symmetry_gap": 0.0,  # B stores one triangle, so it is symmetric by construction
        "ellipticity_lower": op.diffusion.ellipticity_lower,
        "ellipticity_upper": op.diffusion.ellipticity_upper,
        "q_diagonal": op.diffusion.diagonal,
        "potential_psd": op.potential.psd,
        "potential_offdiag_max": op.potential.offdiag_max,
        "generator_norm_bound": op.generator_norm_bound(),
    }
    return [{"name": "assemble", "passed": True, "detail": stats}]


def _cmd_spectrum(config: dict, outdir: Path) -> list:
    op = _build_operator(config)
    solver = config["solver"]
    if solver["k"] > op.dim:
        raise ConfigError(f"solver.k={solver['k']} exceeds the matrix dimension {op.dim}")
    report = eigen_lowest(op, solver["k"], tol=solver["tol"], method=solver["method"], seed=config["seed"])
    # spectrum.csv: per index the eigenvalue and its residual
    rows = enumerate(zip(report.eigenvalues, report.residuals))
    _write_csv(
        outdir / "spectrum.csv",
        ["index", "eigenvalue", "residual"],
        ([k, repr(float(lam)), repr(float(res))] for k, (lam, res) in rows),
    )
    return [
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


def _cmd_evolve(config: dict, outdir: Path) -> list:
    from .semigroup import _contraction_violations, _norm_ratio_records, propagate

    op = _build_operator(config)
    prop = _propagator_config(config["propagator"], op)
    f0 = _initial_state(config["evolve"]["initial_state"], op.grid, config["seed"])
    snapshots = [(0.0, f0)] + [(t, propagate(op, f0, t, prop)) for t in prop.times]
    trace = _norm_ratio_records(op, f0, prop.p_list, snapshots[1:])
    # a norm past the largest float reads inf, and its ratio 0 or NaN
    past = sorted({rec["p"] for rec in trace if max(rec["norm_in"], rec["norm_out"]) == np.inf})
    _expect(not past, f"evolve.initial_state has an L^p norm past the largest float at p = "
            f"{', '.join(f'{p:g}' for p in past)} of propagator.p_list: scale the state down or drop those p")
    columns = ["t", "p", "norm_in", "norm_out", "ratio", "guaranteed"]
    _write_csv(outdir / "probes.csv", columns, ([_jsonable(rec[c]) for c in columns] for rec in trace))
    _write_snapshots(snapshots, op.grid, outdir / "snapshots.csv")
    _write_norm_traces(trace, outdir / "norms.dat")
    violations = _contraction_violations(trace)
    detail = {
        "method": prop.method,
        "violations": len(violations or ()),
        "max_ratio": max((r["ratio"] for r in trace if r["ratio"] is not None), default=None),
    }
    if violations is None:
        detail["reason"] = (
            "the initial state is zero" if not any(r["norm_in"] for r in trace)
            else "no (t, p) is guaranteed to contract: that needs a PSD potential, "
            "and for p != 2 also a diagonal diffusion"
        )
    passed = None if violations is None else not violations
    return [{"name": "evolve-contraction", "passed": passed, "detail": detail}]


def _cmd_verify(config: dict, outdir: Path) -> list:
    from .checks import run_checks

    results = run_checks(config["probes"]["checks"], config["seed"])
    _write_csv(outdir / "probes.csv", ["check", "passed"], ([res.name, res.passed] for res in results))
    return [res.verdict_record() for res in results]


def _cmd_gallery(config: dict, outdir: Path) -> list:
    from .gallery import GALLERY, list_gallery, validate_expected

    block, name = config["gallery"], config["gallery"]["name"]
    if name is None:
        _write_json(list_gallery(), outdir / "gallery.json")
        return [{"name": "gallery-list", "passed": True, "detail": {"problems": sorted(GALLERY)}}]
    if not isinstance(name, str) or name not in GALLERY:
        raise ConfigError(f"gallery.name must be one of {sorted(GALLERY)}, got {name!r}")
    try:
        problem = GALLERY[name](**block["params"])
    except (TypeError, ValueError) as exc:  # a parameter the builder does not take, or a value it refuses
        raise ConfigError(f"gallery.params: {exc}") from exc
    result = validate_expected(problem, seed=config["seed"])
    claims = result["claims"]
    if "continuity_ratios" in claims:
        # continuity_ratios.dat: the scale n with its ratio r_n
        pairs = zip(problem.expected["continuity_ratios"]["n_list"], claims["continuity_ratios"]["ratios"])
        lines = ["# n ratio"] + [f"{n} {r!r}" for n, r in pairs]
        (outdir / "continuity_ratios.dat").write_text("\n".join(lines) + "\n")
    if "merge" in claims:
        # merge.csv: per index the vector and merged eigenvalues, their
        # deviation and the tolerance tol_rel * (1 + |lambda_n|)
        merge, tol_rel = claims["merge"], problem.expected["merge"]["tol_rel"]
        rows = enumerate(zip(merge["vector_eigenvalues"], merge["merged_eigenvalues"], merge["deviations"]))
        _write_csv(
            outdir / "merge.csv",
            ["index", "vector_eigenvalue", "merged_eigenvalue", "deviation", "tolerance"],
            ([n, repr(lam), repr(mer), repr(dev), repr(tol_rel * (1.0 + abs(lam)))] for n, (lam, mer, dev) in rows),
        )
    return [{"name": f"gallery-{problem.name}", "passed": result["passed"], "detail": claims}]


_SUBCOMMANDS = {
    "assemble": _cmd_assemble,
    "spectrum": _cmd_spectrum,
    "evolve": _cmd_evolve,
    "verify": _cmd_verify,
    "gallery": _cmd_gallery,
}


def run(subcommand: str, config: dict) -> int:
    """Resolved-config entry point; returns the exit code.

    Each subcommand writes its own artifacts and returns its verdict records.
    verdicts.json is written from them once it returns, so a run that raises
    leaves none.  A record whose ``passed`` is null
    gated nothing and does not fail the run.
    """
    outdir = Path(config["output"]["directory"])
    outdir.mkdir(parents=True, exist_ok=True)
    _write_json(config, outdir / "resolved-config.json")
    records = _SUBCOMMANDS[subcommand](config, outdir)
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
    return 0 if all_passed else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matschrod",
        description="discretized matrix Schroedinger operators: assembly, spectra, semigroups",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, help_text in (
        ("assemble", "assemble the operator and report matrix statistics"),
        ("spectrum", "compute the lowest eigenvalues and their residual certificate"),
        ("evolve", "propagate an initial state and trace its mixed norms"),
        ("verify", "run the named theorem checks and write a verdict file"),
        ("gallery", "list built-in problems, or validate every claim of one (--name)"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="JSON config file")
        # each option below sets the config key named by its dest
        p.add_argument("--seed", type=int, help="seed overriding the config")
        p.add_argument("--out", dest="output.directory", metavar="DIR", help="output directory overriding the config")
        if name == "gallery":
            p.add_argument("--name", dest="gallery.name", metavar="NAME", help="gallery problem name")
    return parser


def main(argv=None) -> int:
    args, leftover = _build_parser().parse_known_args(argv)
    flags = vars(args)
    subcommand, config_path = flags.pop("subcommand"), flags.pop("config")
    try:
        # --seed, --out and --name come after the dotted flags, so they win
        overrides = _parse_override_tokens(leftover)
        overrides += [(key, value) for key, value in flags.items() if value is not None]
        return run(subcommand, resolve_config(config_path, overrides))
    except (ConvergenceError, QuadratureError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # ConfigError included
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
