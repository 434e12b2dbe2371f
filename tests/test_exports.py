"""Every public name of the package is used by the library, the benchmark or a demo."""
import ast
from pathlib import Path

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
