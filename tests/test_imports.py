"""Every module of the package uses each name it imports, and the package reads
every private function, method and class it defines."""

import ast
from pathlib import Path

import pytest

import poseguide

MODULES = sorted(p for p in Path(poseguide.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_unused_import_is_found():
    assert unused_imports("import os\nfrom a import b, c\nc()\n") == ["line 1: os", "line 2: b"]
    source = "from __future__ import annotations\nimport numpy as np\nnp.eye(2)\n"
    assert unused_imports(source) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unread_private(sources: dict[str, str]) -> list[str]:
    """Private (``_name``, not dunder) functions, methods and classes defined in
    ``sources`` (module name -> source) that no module reads, by name or attribute."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    defined, read = [], set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.append((module, node.lineno, node.name))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [f"{module} line {line}: {name}" for module, line, name in sorted(defined)
            if name not in read]


def test_unread_private_definition_is_found():
    a = ("class M:\n    def __init__(self):\n        self._keep()\n"
         "    def _keep(self): pass\n    def _infer(self): pass\n"
         "def _helper(): pass\nclass _Unused: pass\n")
    b = "from a import _helper\n_helper()\ndef _wo_rows(): pass\n_wo_rows = 1\n"
    assert unread_private({"a": a, "b": b}) == [
        "a line 5: _infer", "a line 7: _Unused", "b line 3: _wo_rows"]


def test_package_reads_every_private_definition():
    sources = {p.name: p.read_text() for p in Path(poseguide.__file__).parent.glob("*.py")}
    assert unread_private(sources) == []
