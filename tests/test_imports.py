"""Module boundaries inside the package, read from the source with `ast`:
no module imports another module's private name, no function imports
anything, `evaluation` depends only on `core` and `data`, and only `data`
reads or writes binary layouts (`struct`)."""

import ast
from pathlib import Path

import pytest

import nlqground

PACKAGE = Path(nlqground.__file__).parent
SOURCES = sorted(PACKAGE.rglob("*.py"))


def package_imports(source: str) -> list[tuple[str, str]]:
    """(module, name) of every `from <package module> import name`, the
    module as written (relative dots kept)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "nlqground"):
            module = "." * node.level + (node.module or "")
            found += [(module, alias.name) for alias in node.names]
    return found


def top_level_imports(source: str) -> set[str]:
    """First component of every absolute module an import statement names."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def private_imports(source: str) -> list[str]:
    return [f"from {module} import {name}" for module, name in package_imports(source)
            if name.startswith("_")]


def function_imports(source: str) -> list[str]:
    """'<function>:<line>' of every import statement inside a function body."""
    return [f"{fn.name}:{node.lineno}"
            for fn in ast.walk(ast.parse(source))
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_checker_flags_relative_and_absolute_private_imports():
    source = ("from __future__ import annotations\n"
              "from .inference import _checked_proposal, nms\n"
              "from nlqground.core import _helper\n"
              "from . import data\n")
    assert private_imports(source) == ["from .inference import _checked_proposal",
                                       "from nlqground.core import _helper"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_imports_a_private_name(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


def test_evaluation_depends_only_on_core_and_data():
    source = (PACKAGE / "evaluation.py").read_text(encoding="utf-8")
    assert {module for module, _ in package_imports(source)} <= {".core", ".data"}


def test_top_level_import_checker_sees_both_forms():
    source = ("import os.path\n"
              "from struct import pack\n"
              "from .data import write_matrices\n")
    assert top_level_imports(source) == {"os", "struct"}


def test_only_data_imports_struct():
    importers = [path.relative_to(PACKAGE).as_posix() for path in SOURCES
                 if "struct" in top_level_imports(path.read_text(encoding="utf-8"))]
    assert importers == ["data.py"]


def test_function_import_checker_flags_nested_imports():
    source = ("import json\n"
              "def f():\n"
              "    if True:\n"
              "        from .data import make_batches\n"
              "    def g():\n"
              "        import math\n")
    assert function_imports(source) == ["f:4", "f:6", "g:6"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_function_body_imports(path):
    assert function_imports(path.read_text(encoding="utf-8")) == []
