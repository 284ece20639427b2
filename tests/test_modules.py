"""Module boundaries inside the package."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import quandleforge

PACKAGE = Path(quandleforge.__file__).parent


def private_imports(source: str) -> list[str]:
    """The underscore names a module's source imports from a sibling
    module of the package, as ``module:name`` (``.engine:_orbits``)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "quandleforge"
        ):
            found += [
                f"{'.' * node.level}{node.module or ''}:{alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    return found


def test_private_imports_are_found():
    multiline = "from .engine import (\n    Quandle,\n    _orbits,\n)\n"
    assert private_imports(multiline) == [".engine:_orbits"]
    assert private_imports("from quandleforge.words import _x") == ["quandleforge.words:_x"]
    assert private_imports("from . import _helpers") == [".:_helpers"]
    assert private_imports("from numpy import _core\nfrom __future__ import annotations") == []


def test_no_module_imports_a_private_name_of_another():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    for path in modules:
        assert private_imports(path.read_text(encoding="utf-8")) == [], path.name


def engine_imports(source: str) -> list[str]:
    """What a source imports of ``quandleforge.engine``: the module, or a
    name defined there, imported directly or as the package re-exports it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name == "quandleforge.engine"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "quandleforge":
            module = importlib.import_module(node.module)
            for alias in node.names:
                value = getattr(module, alias.name)
                home = value.__name__ if inspect.ismodule(value) else getattr(value, "__module__", node.module)
                if home == "quandleforge.engine":
                    found.append(f"{node.module}:{alias.name}")
    return found


def test_engine_imports_are_found():
    source = "import quandleforge.engine\nfrom quandleforge import engine, loop_words, Quandle\n"
    assert engine_imports(source) == ["quandleforge.engine", "quandleforge:engine", "quandleforge:Quandle"]
    assert engine_imports("from quandleforge.engine import verify\nimport numpy") == ["quandleforge.engine:verify"]
    assert engine_imports("from quandleforge.presentation import loop_words\n") == []


def test_the_reference_enumerator_shares_no_engine_code():
    """``tests/reference.py`` checks the engine, so it reads nothing of it:
    no name from ``quandleforge.engine`` and no private name."""
    source = (Path(__file__).parent / "reference.py").read_text(encoding="utf-8")
    assert engine_imports(source) == []
    assert private_imports(source) == []


def calls_to(name: str, source: str) -> int:
    """How many calls to ``name`` a module's source makes."""
    return sum(
        isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) == name
        for node in ast.walk(ast.parse(source))
    )


def test_expand_calls_are_counted():
    assert calls_to("expand_relations", "x = expand_relations(p)\ny = presentation.expand_relations(q)\n") == 2
    assert calls_to("expand_relations", "from .presentation import expand_relations\nf = expand_relations\n") == 0


def test_only_the_engine_expands_relations():
    """The engine derives the loops a presentation implies, so no module
    expands one before handing it over."""
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert {name for name, source in sources.items() if calls_to("loop_words", source)} == {"engine.py"}
    assert {name for name, source in sources.items() if calls_to("expand_relations", source)} == set()


BUDGETS = {"max_steps", "max_vertices"}


def budget_readers(source: str) -> set[str]:
    """The functions of a module's source, by qualified name, that read a
    ``max_steps`` or ``max_vertices`` attribute; a nested function counts
    as itself, not as the function around it."""
    found = set()

    def visit(node, scope, function):
        if isinstance(node, ast.Attribute) and node.attr in BUDGETS and isinstance(node.ctx, ast.Load):
            found.add(function)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
            if not isinstance(node, ast.ClassDef):
                function = scope
        for child in ast.iter_child_nodes(node):
            visit(child, scope, function)

    visit(ast.parse(source), "", None)
    return found


def test_budget_readers_are_found():
    source = (
        "class G:\n"
        "    def run(self):\n"
        "        def inner():\n"
        "            return self.limits.max_vertices\n"
        "        return self.limits.max_steps\n"
        "    def trace(self):\n"
        "        self.max_steps = 1\n"
        "budget = limits.max_steps\n"
    )
    assert budget_readers(source) == {"G.run", "G.run.inner", None}


def test_only_the_run_reads_the_budgets():
    """``CayleyGraph.run`` is the one owner of both budgets: no other
    function of the engine reads them, except the limits' own check, and
    the engine raises no exception of its own to stop a run."""
    path = PACKAGE / "engine.py"
    source = path.read_text(encoding="utf-8")
    assert budget_readers(source) == {"EnumerationLimits.__post_init__", "CayleyGraph.run"}
    engine = importlib.import_module("quandleforge.engine")
    classes = [getattr(engine, node.name) for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ClassDef)]
    assert classes and [cls.__name__ for cls in classes if issubclass(cls, BaseException)] == []


def unused_imports(source: str) -> list[str]:
    """The names a module's source imports but never reads (``from
    __future__`` imports aside), sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_unused_imports_are_found():
    source = "import os\nimport numpy as np\nimport a.b\nfrom .engine import (\n    Quandle,\n    verify,\n)\n"
    assert unused_imports(source) == ["Quandle", "a", "np", "os", "verify"]
    assert unused_imports(source + "verify(os, np.zeros(1), a.b.c)\nx: Quandle\n") == []
    assert unused_imports("from __future__ import annotations\n") == []


def test_no_module_imports_a_name_it_never_uses():
    """``__init__`` imports its names to export them, so it is left out."""
    modules = sorted(set(PACKAGE.glob("*.py")) - {PACKAGE / "__init__.py"})
    assert modules
    for path in modules:
        assert unused_imports(path.read_text(encoding="utf-8")) == [], path.name


def test_package_data_globs_cover_every_data_file():
    """The suite reads the data files from the source tree, so a file that
    an install leaves out shows only here: every file under ``data/`` must
    match a ``package-data`` glob of ``pyproject.toml``."""
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as handle:
        globs = tomllib.load(handle)["tool"]["setuptools"]["package-data"]["quandleforge"]
    package = root / "src" / "quandleforge"
    files = {path for path in (package / "data").rglob("*") if path.is_file()}
    assert files
    shipped = {path for pattern in globs for path in package.glob(pattern)}
    assert sorted(str(path.relative_to(package)) for path in files - shipped) == []
