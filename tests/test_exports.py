"""Every public name of the package is used by the library, the benchmark or a demo."""
import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import matschrod

_ROOT = Path(__file__).resolve().parents[1]


def _loaded_names(path: Path) -> set:
    """Names read in a file, as bare names or as attributes.

    Definitions, ``__all__`` strings and imports are not reads, so a name that
    is only defined, listed and re-exported does not count.
    """
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_every_export_is_used_outside_tests():
    files = [
        *(_ROOT / "src" / "matschrod").glob("*.py"),
        *(_ROOT / "perfbench").glob("*.py"),
        *(_ROOT / "demos").glob("*.py"),
    ]
    used = set().union(*(_loaded_names(path) for path in files))
    dead = sorted(set(matschrod.__all__) - used)
    assert not dead, f"exported but used only by tests: {dead}"


def test_package_imports_exactly_each_submodules_all():
    # what ``from matschrod.<module> import *`` binds: ``__all__``, or without
    # one (``errors``) every name that does not start with an underscore
    exported = {}
    for name, module in matschrod._SUBMODULE.items():
        exported.setdefault(module, set()).add(name)
    assert exported
    assert matschrod.__all__ == list(matschrod._SUBMODULE)
    for module, names in exported.items():
        submodule = importlib.import_module(f"matschrod.{module}")
        public = getattr(submodule, "__all__", [n for n in vars(submodule) if not n.startswith("_")])
        assert names == set(public), f"matschrod.{module}"


def test_every_export_is_its_submodules_own_object():
    for name in matschrod.__all__:
        submodule = importlib.import_module(f"matschrod.{matschrod._SUBMODULE[name]}")
        assert getattr(matschrod, name) is getattr(submodule, name), name
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        matschrod.nonexistent


def test_bare_import_loads_no_submodule():
    src = str(Path(matschrod.__file__).resolve().parents[1])
    probe = "import sys, matschrod; print(sorted(m for m in sys.modules if m.startswith('matschrod.')))"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
