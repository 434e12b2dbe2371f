"""Benchmark of the matschrod CLI: one workload per run, outputs checked.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {verify,spectrum-3d,evolve-2d} \
        --seed N --seconds S --trace {0,1}

Each repetition launches ``python -m matschrod.cli`` as its own process
(``src`` on PYTHONPATH), times it from outside, takes its peak RSS from
``os.wait4`` and checks every output file against the reference in
``oracles.py``.  Repetitions run one at a time until S seconds have
passed.  With ``--trace 0`` the last line reports the end-to-end metrics;
with ``--trace 1`` untraced and traced repetitions alternate and the last
line reports the per-layer metrics of the traced ones (see README.md).
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_REPEATS = 5
#: the CLI's exit code for non-convergence or under-resolved quadrature
SOLVER_FAILURE = 3
PROCESS_LIMIT_S = 150.0
LAYERS = ("grid", "form", "operators", "semigroup", "gallery", "checks", "cli")

#: per-layer metrics that are the summed duration of one traced function
SPAN_SECONDS = (
    "grid.sample_fields",
    "form.eval_form",
    "form.form_norm",
    "operators.assemble_operator",
    "operators.eigen_lowest",
    "operators.splu",
    "semigroup.contraction_probe",
    "semigroup.strong_continuity_probe",
    "semigroup.positivity_probe",
    "semigroup.violation_witness",
    "gallery.validate_expected",
    "gallery.spectrum_merge_check",
    "gallery.antisymmetric_continuity_demo",
) + tuple(f"checks.{name}" for name in workloads.CHECK_NAMES)
SPAN_CALLS = ("grid.mixed_norm", "form.eval_form", "operators.eigen_lowest", "semigroup.propagate")
COUNTS = ("operators.nnz", "operators.lanczos_iterations", "operators.lu_fill_nnz")


class BenchmarkError(RuntimeError):
    pass


def machine_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            threads = int(fn())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "machine": platform.machine(),
    }


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def launch(argv: list, log_path: Path) -> tuple:
    """Run one process to its end; return (exit code, wall seconds, peak RSS MB)."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_env(), stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(PROCESS_LIMIT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss * 1024 / 1e6


def run_cli(args: list, outdir: Path, spans: Path | None = None) -> tuple:
    if outdir.exists():
        shutil.rmtree(outdir)
    outdir.mkdir(parents=True)
    if spans is None:
        prefix = [sys.executable, "-m", "matschrod.cli"]
    else:
        prefix = [sys.executable, str(HERE / "traced_cli.py"), str(spans)]
    log = outdir.parent / (outdir.name + ".log")
    code, wall, rss = launch(prefix + args + ["--out", str(outdir)], log)
    if code != SOLVER_FAILURE and not (outdir / "verdicts.json").is_file():
        tail = log.read_text(errors="replace")[-2000:]
        raise BenchmarkError(f"matschrod {args[0]} exited {code} without verdicts:\n{tail}")
    return code, wall, rss


def layer_metrics(trace: dict) -> dict:
    """Per-layer totals, self times, span sums and counts of one traced run."""
    spans = trace["spans"]
    layer = [s[0].split(".", 1)[0] for s in spans]
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    outer = [frozenset()] * len(spans)  # layers of the ancestors
    for i, s in enumerate(spans):
        parent = s[3]
        if parent >= 0:
            child[parent] += dur[i]
            outer[i] = outer[parent] | {layer[parent]}
    out = {}
    for name in LAYERS:
        out[f"{name}.total_s"] = sum(d for d, l, o in zip(dur, layer, outer) if l == name and name not in o)
        out[f"{name}.self_s"] = sum(d - c for d, c, l in zip(dur, child, layer) if l == name)
    by_name = {}
    for s, d in zip(spans, dur):
        by_name.setdefault(s[0], []).append((d, s[4]))
    for name in SPAN_SECONDS:
        out[f"{name}_s"] = sum(d for d, _ in by_name.get(name, []))
    for name in SPAN_CALLS:
        out[f"{name}_calls"] = len(by_name.get(name, []))
    propagated = by_name.get("semigroup.propagate", [])
    out["semigroup.propagate_krylov_s"] = sum(d for d, tag in propagated if tag == "lanczos-expmv")
    out["semigroup.propagate_dense_s"] = sum(d for d, tag in propagated if tag == "exact-dense")
    out["operators.dense_eig_s"] = sum(d for d, _ in by_name.get("operators.dense_eig", [])) + sum(
        d for d, tag in by_name.get("operators.eigen_lowest", []) if tag == "dense"
    )
    for name in COUNTS:
        out[name] = trace["counts"].get(name, 0)
    out["cli.import_s"] = trace["import_s"]
    out["trace.spans"] = len(spans)
    return out


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "bytes" if name.endswith("_bytes") else "count"


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    base = OUT / f"{workload.name}-seed{seed}"
    if base.exists():
        shutil.rmtree(base)
    base.mkdir(parents=True)
    setup_walls = []
    # the first launch compiles bytecode and warms the file cache: untimed
    for i in range(1 if trace else SETUP_REPEATS + 1):
        code, wall, _ = run_cli(workload.setup_args, base / "setup")
        if code != 0:
            raise BenchmarkError(f"set-up ({' '.join(workload.setup_args)}) exited {code}")
        if i:
            setup_walls.append(wall)
            print(f"# setup {i}: {wall:.4f} s", flush=True)
    args = workload.args(seed)
    print("# cli: python -m matschrod.cli " + " ".join(args), flush=True)
    reps = {False: [], True: []}
    traces = []
    attempted = failed = 0
    problems = []
    start = time.perf_counter()
    rep = 0
    while rep == 0 or time.perf_counter() - start < seconds or (trace and not reps[True]):
        traced = trace and rep % 2 == 1
        outdir = base / "out"
        spans = base / "spans.json" if traced else None
        code, wall, rss = run_cli(args, outdir, spans)
        if code == SOLVER_FAILURE:
            outcome = workloads.Outcome(workload.operations, workload.operations, [])
        else:
            outcome = workload.check(outdir, code, seed)
        attempted += outcome.attempted
        failed += outcome.failed
        problems += outcome.problems
        reps[traced].append((wall, rss))
        if traced:
            with open(spans, encoding="utf-8") as fh:
                metrics = layer_metrics(json.load(fh))
            spans.unlink()
            metrics["cli.output_bytes"] = sum(p.stat().st_size for p in outdir.iterdir())
            traces.append(metrics)
        print(f"# rep {rep + 1}{' traced' if traced else ''}: wall {wall:.4f} s, peak rss {rss:.1f} MB, "
              f"exit {code}, operations {outcome.attempted}, failed {outcome.failed}, "
              f"problems {len(outcome.problems)}", flush=True)
        shutil.rmtree(outdir)
        rep += 1
    for problem in problems[:20]:
        print(f"# WRONG: {problem}", flush=True)
    untraced_wall = statistics.median(w for w, _ in reps[False])
    if trace:
        values = {}
        for name in traces[0]:
            unit = _unit(name)
            # counts repeat exactly; a low median keeps them whole numbers
            median = statistics.median if unit == "s" else statistics.median_low
            values[name] = (median(t[name] for t in traces), unit)
        overhead = statistics.median(w for w, _ in reps[True]) - untraced_wall
        values["trace.overhead_s"] = (overhead, "s")
    else:
        values = {
            "wall_s": (untraced_wall, "s"),
            "setup_s": (statistics.median(setup_walls), "s"),
            "peak_rss_mb": (statistics.median(r for _, r in reps[False]), "MB"),
        }
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in values.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "matschrod" / "cli.py").is_file():
        print(f"no matschrod sources under {SRC}", file=sys.stderr)
        return 2
    facts = machine_facts()
    print("# machine: " + json.dumps(facts, sort_keys=True), flush=True)
    try:
        result = measure(workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for name, metric in result["metrics"].items():
        print(f"# {name} = {metric['value']!r} {metric['unit']}")
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, machine=facts)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    with open(OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
