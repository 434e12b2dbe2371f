"""Run one matschrod CLI command with a span around each layer's public calls.

Usage (with the repository's ``src`` on PYTHONPATH):

    python3 perfbench/traced_cli.py SPANS.json <matschrod CLI arguments>

The wrappers replace the traced functions in every matschrod module that
binds them, so a call is recorded however the caller reaches it.  Spans
(name, start, end, parent, tag) and counts are kept in memory and written
to SPANS.json when the command ends; nothing under ``src`` changes.
"""
from __future__ import annotations

import functools
import json
import sys
import time


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, tag]
        self.counts = {}
        self._stack = []

    def wrap(self, name, fn, tag=None, count=None):
        """Wrap ``fn`` in a span; ``tag``/``count`` see (args, kwargs, result)."""
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if tag is not None:
                span[4] = tag(args, kwargs, result)
            if count is not None:
                for key, inc in count(args, kwargs, result).items():
                    counts[key] = counts.get(key, 0) + inc
            return result

        return traced


def install(tracer: Tracer):
    """Replace the traced functions wherever a matschrod module binds them."""
    import matschrod
    from matschrod import checks, cli, form, gallery, grid, operators, semigroup

    def propagate_method(args, kwargs, result):
        t = args[2] if len(args) > 2 else kwargs["t"]
        config = args[3] if len(args) > 3 else kwargs.get("config")
        if float(t) == 0.0:
            return "identity"
        return (config or semigroup.default_config(args[0])).method

    targets = [
        (grid.sample_fields, "grid.sample_fields", {}),
        (grid.mixed_norm, "grid.mixed_norm", {}),
        (form.eval_form, "form.eval_form", {}),
        (form.form_norm, "form.form_norm", {}),
        (operators.assemble_operator, "operators.assemble_operator",
         {"count": lambda a, k, op: {"operators.nnz": int(op.matrix.nnz)}}),
        (operators.eigen_lowest, "operators.eigen_lowest",
         {"tag": lambda a, k, rep: rep.method,
          "count": lambda a, k, rep: {"operators.lanczos_iterations": int(rep.iterations)}}),
        (semigroup.propagate, "semigroup.propagate", {"tag": propagate_method}),
        (semigroup.contraction_probe, "semigroup.contraction_probe", {}),
        (semigroup.strong_continuity_probe, "semigroup.strong_continuity_probe", {}),
        (semigroup.positivity_probe, "semigroup.positivity_probe", {}),
        (semigroup.violation_witness, "semigroup.violation_witness", {}),
        (gallery.validate_expected, "gallery.validate_expected", {}),
        (gallery.spectrum_merge_check, "gallery.spectrum_merge_check", {}),
        (gallery.antisymmetric_continuity_demo, "gallery.antisymmetric_continuity_demo", {}),
    ]
    wrapped = {id(fn): tracer.wrap(name, fn, **opts) for fn, name, opts in targets}
    for module in (matschrod, grid, form, operators, semigroup, gallery, checks, cli):
        for attr, value in list(vars(module).items()):
            if id(value) in wrapped:
                setattr(module, attr, wrapped[id(value)])
    for name, fn in list(checks.CHECKS.items()):
        checks.CHECKS[name] = tracer.wrap(f"checks.{name}", fn)
    cls = operators.SymmetricOperator
    cls.dense_eig = tracer.wrap("operators.dense_eig", cls.dense_eig)
    # operators reaches splu as an attribute of scipy.sparse.linalg
    operators.spla.splu = tracer.wrap(
        "operators.splu", operators.spla.splu,
        count=lambda a, k, lu: {"operators.lu_fill_nnz": int(lu.L.nnz + lu.U.nnz)},
    )


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    start = time.perf_counter()
    import matschrod.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    install(tracer)
    code = tracer.wrap("cli.main", matschrod.cli.main)(cli_args)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "spans": tracer.spans, "counts": tracer.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
