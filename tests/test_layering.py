"""Import layering of the package, read from the source with ``ast``.

The package runs on numpy and the standard library alone, and the tensor
library holds no training or model state, so ``diffmath`` imports none of the
modules built on it. Every public function, method and property but a listed
few is referenced from the package itself, so code that nothing in
``src/umod`` uses is deleted rather than kept for tests. A method or property
counts as referenced only through an attribute of something other than a
module, and one named like an ``np.ndarray`` attribute must be listed, because
reads off arrays would hide whether it is used. The network module takes from
``data`` only its error, shape check and container codec, so it reads no
series and no split. Every field of a ``@dataclass``
is read as an attribute (``obj.field``) somewhere in the package, so no field
is kept that nothing reads. Every private function, class and method is
referenced by name somewhere in the package, so a refactor leaves no helper
behind that nothing calls. Binary files are opened and read only in the one
container codec: ``"rb"``, ``"wb"`` and ``fromfile`` appear only inside
``read_container`` and ``write_atomically``. A station list is checked for a
repeated name only where one enters the program: ``_check_stations`` is
referenced only inside ``read_stations`` and ``_parse_series_header``. An
ingest span is checked only where its flags enter, before any input is read:
its messages appear only inside ``cli._ingest``.
"""

import ast
import collections
import pathlib
import sys

import numpy as np
import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "umod"
MODULES = sorted(SRC.glob("*.py"))
ALLOWED_ROOTS = {"numpy", "umod"} | set(sys.stdlib_module_names)
NOT_UNDER_DIFFMATH = {"umod.training", "umod.model", "umod.evaluation"}
# public names the reference check cannot vouch for, each with its reason
UNREFERENCED_ALLOWED = {
    "diffmath.finite_diff_check": "the gradient reference the tests check adjoints against",
    "diffmath.Tensor.shape": "named like ndarray.shape; the model reads it off tensors",
}
NDARRAY_NAMES = set(dir(np.ndarray))


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


def test_model_reads_no_series_and_no_split():
    # the network takes arrays: which entities a series gives, and where its
    # split falls, is evaluation's choice (``evaluation.entity_windows``)
    names = {alias.name for node in ast.walk(ast.parse((SRC / "model.py").read_text("utf-8")))
             if isinstance(node, ast.ImportFrom) and node.level and node.module == "data"
             for alias in node.names}
    assert names == {"ConfigurationError", "check_float64_shape", "read_container",
                     "write_container"}


def module_aliases(tree: ast.Module) -> set[str]:
    """Names that ``tree``'s imports bind to modules: ``np``, ``dm`` and the like."""
    return {alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            or (isinstance(node, ast.ImportFrom) and node.level and not node.module)
            for alias in node.names}


def referenced_names(node: ast.AST, aliases: set[str]):
    """How often each name occurs under ``node``: as a function (a bare name or
    any attribute), and as a member (an attribute of something not in ``aliases``)."""
    functions, members = collections.Counter(), collections.Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            functions[n.id] += 1
        elif isinstance(n, ast.Attribute):
            functions[n.attr] += 1
            if not (isinstance(n.value, ast.Name) and n.value.id in aliases):
                members[n.attr] += 1
    return functions, members


def public_functions(module: str, tree: ast.Module):
    """``(dotted name, node, is_member)`` of each public function, method and property."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from ((f"{module}.{node.name}.{member.name}", member, True)
                        for member in node.body if isinstance(member, ast.FunctionDef)
                        and not member.name.startswith("_"))
        elif isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node, False


def flagged_names(sources: dict[str, str]) -> set[str]:
    """Public names in ``sources`` (module name -> code) referenced nowhere but in
    themselves, and public members named like an ``np.ndarray`` attribute."""
    trees = {module: ast.parse(code) for module, code in sources.items()}
    aliases = {module: module_aliases(tree) for module, tree in trees.items()}
    everywhere = [collections.Counter(), collections.Counter()]
    for module, tree in trees.items():
        for total, counts in zip(everywhere, referenced_names(tree, aliases[module])):
            total.update(counts)
    return {
        name for module, tree in trees.items()
        for name, node, is_member in public_functions(module, tree)
        if (is_member and node.name in NDARRAY_NAMES)
        or everywhere[is_member][node.name]
        == referenced_names(node, aliases[module])[is_member][node.name]
    }


def test_every_public_function_is_referenced_in_the_package():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert flagged_names(sources) == set(UNREFERENCED_ALLOWED)


def unread_fields(sources: dict[str, str]) -> set[str]:
    """Fields of each ``@dataclass`` in ``sources`` that no attribute of anything
    but a module reads: set as a keyword or assigned alone, a field is unread."""
    trees = {module: ast.parse(code) for module, code in sources.items()}
    read = collections.Counter(
        n.attr for tree in trees.values() for aliases in [module_aliases(tree)]
        for n in ast.walk(tree) if isinstance(n, ast.Attribute)
        and isinstance(n.ctx, ast.Load)
        and not (isinstance(n.value, ast.Name) and n.value.id in aliases))
    return {f"{module}.{node.name}.{field.target.id}"
            for module, tree in trees.items() for node in tree.body
            if isinstance(node, ast.ClassDef)
            and any(ast.unparse(d).startswith("dataclass") for d in node.decorator_list)
            for field in node.body
            if isinstance(field, ast.AnnAssign) and not read[field.target.id]}


def test_every_dataclass_field_is_read_in_the_package():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert unread_fields(sources) == set()


def test_the_field_guard_needs_a_read():
    # a field set only as a keyword, read only off a module, or only assigned
    flagged = unread_fields({
        "stats": "import numpy as np\nfrom dataclasses import dataclass\n"
                 "@dataclass\nclass Stats:\n    mean: float\n    clamped: bool = False\n"
                 "    size: int = 0\n    kept: int = 0\n"
                 "def fit(x):\n    s = Stats(mean=x, clamped=True)\n    s.kept = 1\n"
                 "    return s.mean, np.size\n",
    })
    assert flagged == {"stats.Stats.clamped", "stats.Stats.size", "stats.Stats.kept"}


def test_the_guard_tells_members_from_functions_of_the_same_name():
    # a dead Tensor.size hides among reads of ndarray.size, and a dead
    # Baseline.predict among calls of the module function tr.predict
    flagged = flagged_names({
        "tensors": "class Tensor:\n"
                   "    @property\n    def size(self):\n        return self.data.size\n"
                   "    def zero_grad(self):\n        self.grad = None\n",
        "baselines": "from . import training as tr\n"
                     "class Baseline:\n    def predict(self, xs):\n        return xs\n"
                     "def _score(t, xs, a):\n"
                     "    t.zero_grad()\n    return tr.predict(xs), a.size\n",
        "training": "def predict(xs):\n    return xs\n",
    })
    assert flagged == {"tensors.Tensor.size", "baselines.Baseline.predict"}


def unreferenced_private_names(sources: dict[str, str]) -> set[str]:
    """``module.name`` of each private function, class and method (dunders
    aside) in ``sources`` whose name no ``ast.Name`` or ``ast.Attribute`` in
    any of them holds."""
    trees = {module: ast.parse(code) for module, code in sources.items()}
    referenced = {n.id if isinstance(n, ast.Name) else n.attr
                  for tree in trees.values() for n in ast.walk(tree)
                  if isinstance(n, (ast.Name, ast.Attribute))}
    return {f"{module}.{node.name}" for module, tree in trees.items()
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.endswith("__")
            and node.name not in referenced}


def test_every_private_name_is_referenced_in_the_package():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert unreferenced_private_names(sources) == set()


def test_the_private_guard_flags_a_helper_nothing_calls():
    # _parse_line is defined but uncalled; _Rows is read as an attribute, _split
    # as a name in another module, and __init__ is a dunder
    flagged = unreferenced_private_names({
        "data": "class _Rows:\n    def __init__(self):\n        self.n = 0\n"
                "def _split(raw):\n    return raw.split()\n"
                "def _parse_line(raw):\n    return _split(raw)\n",
        "cli": "from . import data as dt\n"
               "def main(raw):\n    return dt._Rows(), dt._split(raw)\n",
    })
    assert flagged == {"data._parse_line"}


BINARY_IO = {"data.read_container", "data.write_atomically"}  # the one reader and writer


def sites(sources: dict[str, str], hit) -> set[str]:
    """``module.name`` of each top-level function or class in ``sources`` that
    holds an ast node for which ``hit`` is true, or ``module`` for one outside them."""
    found = set()
    for module, code in sources.items():
        for top in ast.parse(code).body:
            named = isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            if any(hit(n) for n in ast.walk(top)):
                found.add(f"{module}.{top.name}" if named else module)
    return found


def binary_io_sites(sources: dict[str, str]) -> set[str]:
    """The ``sites`` that hold a ``"rb"`` or ``"wb"`` string or the name
    ``fromfile`` (as a name, an attribute or an import)."""
    return sites(sources, lambda n: (
        (isinstance(n, ast.Constant) and n.value in ("rb", "wb"))
        or (isinstance(n, ast.Name) and n.id == "fromfile")
        or (isinstance(n, ast.Attribute) and n.attr == "fromfile")
        or (isinstance(n, ast.alias) and n.name.endswith("fromfile"))))


def test_one_binary_reader_and_one_binary_writer():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert binary_io_sites(sources) == BINARY_IO


def test_the_binary_io_guard_flags_a_second_reader():
    # a mode string in a nested function, a fromfile import and a module-level mode
    flagged = binary_io_sites({
        "data": "import numpy as np\n"
                "def read_container(path):\n    with open(path, 'rb') as fh:\n"
                "        return np.fromfile(fh)\n",
        "model": "from numpy import fromfile\nMODE = 'wb'\n"
                 "class Store:\n    def peek(self, path):\n"
                 "        def head():\n            return open(path, mode='rb').read(8)\n"
                 "        return head()\n"
                 "def load(path):\n    return fromfile(path)\n",
    })
    assert flagged == {"data.read_container", "model", "model.Store", "model.load"}


CHECK_STATIONS = {"data.read_stations", "data._parse_series_header"}  # the two list readers


def check_stations_sites(sources: dict[str, str]) -> set[str]:
    """The ``sites`` that reference ``_check_stations`` (as a name, an
    attribute or an import)."""
    return sites(sources, lambda n: (
        (isinstance(n, ast.Name) and n.id == "_check_stations")
        or (isinstance(n, ast.Attribute) and n.attr == "_check_stations")
        or (isinstance(n, ast.alias) and n.name == "_check_stations")))


def test_station_lists_are_checked_where_they_are_read():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert check_stations_sites(sources) == CHECK_STATIONS


def test_the_station_list_guard_flags_a_second_caller():
    # a nested call, a call through the module and an import; the def is no reference
    flagged = check_stations_sites({
        "data": "def _check_stations(stations):\n    return stations\n"
                "def read_stations(path):\n    return _check_stations([path])\n"
                "def build(trips, stations):\n"
                "    def check():\n        _check_stations(stations)\n    check()\n",
        "cli": "from . import data as dt\nfrom .data import _check_stations\n"
               "def ingest(stations):\n    dt._check_stations(stations)\n",
    })
    assert flagged == {"data.read_stations", "data.build", "cli", "cli.ingest"}


SPAN_MESSAGES = ("must precede end_time", "is beyond int64 seconds", "does not tile the span")


def span_check_sites(sources: dict[str, str]) -> set[str]:
    """The ``sites`` that hold a string, or a part of an f-string, with one of
    ``SPAN_MESSAGES`` in it."""
    return sites(sources, lambda n: isinstance(n, ast.Constant) and isinstance(n.value, str)
                 and any(message in n.value for message in SPAN_MESSAGES))


def test_the_span_is_checked_where_it_enters():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert span_check_sites(sources) == {"cli._ingest"}


def test_the_span_guard_flags_a_second_site():
    # a plain message, an f-string's part in a nested function and a module constant
    flagged = span_check_sites({
        "cli": "def _ingest(start, end):\n    if start >= end:\n"
               "        raise ValueError('start_time must precede end_time')\n",
        "data": "def build(start, end, g):\n    def check(span):\n        if span % g:\n"
                "            raise ValueError(f'granularity {g} does not tile the span of '\n"
                "                             f'{span} seconds')\n    check(end - start)\n"
                "BEYOND = 'is beyond int64 seconds'\n",
    })
    assert flagged == {"cli._ingest", "data.build", "data"}
