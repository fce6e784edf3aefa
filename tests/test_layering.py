"""Import layering of the package, read from the source with ``ast``.

The package runs on numpy and the standard library alone, and the tensor
library holds no training or model state, so ``diffmath`` imports none of the
modules built on it.
"""

import ast
import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "umod"
MODULES = sorted(SRC.glob("*.py"))
ALLOWED_ROOTS = {"numpy", "umod"} | set(sys.stdlib_module_names)
NOT_UNDER_DIFFMATH = {"umod.training", "umod.model", "umod.evaluation"}


def imported_modules(path: pathlib.Path) -> set[str]:
    """Dotted names of every module ``path`` imports, relative ones as ``umod.*``."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "umod" if node.level else node.module
            if node.level and node.module:
                base = f"umod.{node.module}"
            if base == "umod":
                found.update(f"umod.{alias.name}" for alias in node.names)
            else:
                found.add(base)
    return found


def test_every_module_is_checked():
    assert {"diffmath.py", "model.py", "training.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_only_numpy_stdlib_and_umod(path):
    outside = {name for name in imported_modules(path)
               if name.split(".")[0] not in ALLOWED_ROOTS}
    assert not outside, f"{path.name} imports {sorted(outside)}"


def test_diffmath_imports_no_layer_above_it():
    assert not imported_modules(SRC / "diffmath.py") & NOT_UNDER_DIFFMATH
