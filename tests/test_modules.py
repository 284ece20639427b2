"""Module boundaries inside the package."""

import ast
from pathlib import Path

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


def expand_calls(source: str) -> int:
    """How many calls to ``expand_relations`` a module's source makes."""
    return sum(
        isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) == "expand_relations"
        for node in ast.walk(ast.parse(source))
    )


def test_expand_calls_are_counted():
    assert expand_calls("x = expand_relations(p)\ny = presentation.expand_relations(q)\n") == 2
    assert expand_calls("from .presentation import expand_relations\nf = expand_relations\n") == 0


def test_only_the_engine_expands_relations():
    """The engine derives the loops a presentation implies, so no other
    module expands one before handing it over."""
    calls = {path.name: expand_calls(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    assert calls["engine.py"] > 0
    assert {name for name, count in calls.items() if count} == {"engine.py"}


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
