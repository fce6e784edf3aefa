"""Import layering of the package, read from the source with ``ast``.

The package runs on numpy and the standard library alone, and the tensor
library holds no training or model state, so ``diffmath`` imports none of the
modules built on it. Every public function, method and property but a listed
few is referenced from the package itself, so code that nothing in
``src/umod`` uses is deleted rather than kept for tests.
"""

import ast
import collections
import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "umod"
MODULES = sorted(SRC.glob("*.py"))
ALLOWED_ROOTS = {"numpy", "umod"} | set(sys.stdlib_module_names)
NOT_UNDER_DIFFMATH = {"umod.training", "umod.model", "umod.evaluation"}
# public functions and methods nothing in src/umod refers to, each with its reason
UNREFERENCED_ALLOWED = {
    "diffmath.finite_diff_check": "the gradient reference the tests check adjoints against",
    "evaluation.load_embedding": "the UMODEMB1 reader; it goes once `umod inspect` "
                                 "reads embedding dumps",
}


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


def referenced_names(node: ast.AST) -> collections.Counter:
    """How often each bare name or attribute name occurs under ``node``."""
    return collections.Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute)))


def public_functions(module: str, tree: ast.Module):
    """``(dotted name, node)`` of each public function, method and property."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from ((f"{module}.{node.name}.{member.name}", member)
                        for member in node.body if isinstance(member, ast.FunctionDef)
                        and not member.name.startswith("_"))
        elif isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node


def test_every_public_function_is_referenced_in_the_package():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    everywhere = sum((referenced_names(tree) for tree in trees.values()),
                     collections.Counter())
    unreferenced = {
        name for module, tree in trees.items() for name, node in public_functions(module, tree)
        if everywhere[node.name] == referenced_names(node)[node.name]
    }
    assert unreferenced == set(UNREFERENCED_ALLOWED)
