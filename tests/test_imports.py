"""Every module of the package, the tests and the demos uses each name it imports,
the package reads every private function, method and class and every module-level
name it defines, the package, the demos or the benchmark read every public
function, method and class, and the CLI loads no thread pool until training or the
denoiser opens one (an oracle inference never does)."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import poseguide

MODULES = sorted(Path(poseguide.__file__).parent.glob("*.py"))
ROOT = Path(poseguide.__file__).resolve().parents[2]
SCRIPTS = [p for folder in ("tests", "demos") for p in sorted((ROOT / folder).glob("*.py"))]


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


@pytest.mark.parametrize("path", MODULES + SCRIPTS,
                         ids=lambda p: p.name if p in MODULES else str(p.relative_to(ROOT)))
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _read_names(trees) -> set[str]:
    """Every name the trees read, as a bare name or as an attribute."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return read


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _unread_definitions(sources: dict[str, str], readers: dict[str, str], keep) -> list[str]:
    """Functions, methods and classes defined in ``sources`` (module name -> source)
    whose name ``keep`` accepts and that no module of ``sources`` or ``readers`` reads,
    by name or attribute."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    defined = [(module, node.lineno, node.name) for module, tree in trees.items()
               for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and keep(node.name)]
    read = _read_names([*trees.values(), *(ast.parse(s) for s in readers.values())])
    return [f"{module} line {line}: {name}" for module, line, name in sorted(defined)
            if name not in read]


def unread_private(sources: dict[str, str]) -> list[str]:
    """Private (``_name``, not dunder) definitions of ``sources`` that no module reads."""
    return _unread_definitions(sources, {}, lambda n: n.startswith("_") and not _is_dunder(n))


def unread_public(sources: dict[str, str], readers: dict[str, str]) -> list[str]:
    """Public definitions of ``sources`` that neither they nor ``readers`` read."""
    return _unread_definitions(sources, readers, lambda n: not n.startswith("_"))


def test_unread_private_definition_is_found():
    a = ("class M:\n    def __init__(self):\n        self._keep()\n"
         "    def _keep(self): pass\n    def _infer(self): pass\n"
         "def _helper(): pass\nclass _Unused: pass\n")
    b = "from a import _helper\n_helper()\ndef _wo_rows(): pass\n_wo_rows = 1\n"
    assert unread_private({"a": a, "b": b}) == [
        "a line 5: _infer", "a line 7: _Unused", "b line 3: _wo_rows"]


def test_package_reads_every_private_definition():
    sources = {p.name: p.read_text() for p in MODULES}
    assert unread_private(sources) == []


def test_unread_public_definition_is_found():
    a = ("class Cell:\n    def name(self): pass\n    def to_json(self): pass\n"
         "def write_report(): pass\ndef _helper(): pass\n")
    b = "from a import Cell\nCell().name()\n"
    demo = "import a\na.write_report()\n"
    assert unread_public({"a": a, "b": b}, {"demo": demo}) == ["a line 3: to_json"]
    assert unread_public({"a": a, "b": b}, {}) == ["a line 3: to_json", "a line 4: write_report"]


def test_package_demos_and_benchmark_read_every_public_definition():
    # a public name that only tests read is code kept for the tests alone
    sources = {p.name: p.read_text() for p in MODULES}
    readers = {str(p.relative_to(ROOT)): p.read_text()
               for folder in ("demos", "perfbench") for p in sorted((ROOT / folder).glob("*.py"))}
    assert readers
    assert unread_public(sources, readers) == []


def unread_module_names(sources: dict[str, str]) -> list[str]:
    """Names (not dunders) that a module of ``sources`` (module name -> source)
    assigns at its top level and that no module reads, by name or attribute."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                continue
            defined += [(module, node.lineno, n.id) for target in targets
                        for n in ast.walk(target)
                        if isinstance(n, ast.Name) and not _is_dunder(n.id)]
    read = _read_names(trees.values())
    return [f"{module} line {line}: {name}" for module, line, name in sorted(defined)
            if name not in read]


def test_unread_module_name_is_found():
    a = ("LIMIT = 3\nWIDTH: int = 4\nLO, HI = 0, 1\n__version__ = '1'\n"
         "def f():\n    local = 5\n    return LIMIT + HI\n")
    b = "from a import WIDTH\nimport a\nprint(a.LO)\nUNUSED = WIDTH\n"
    assert unread_module_names({"a": a, "b": b}) == ["b line 4: UNUSED"]
    assert unread_module_names({"a": a}) == ["a line 2: WIDTH", "a line 3: LO"]


def test_package_reads_every_module_level_name():
    sources = {p.name: p.read_text() for p in MODULES}
    assert unread_module_names(sources) == []


def test_cli_import_leaves_the_thread_pool_unloaded():
    # only training and the denoiser's first split product open a pool, so a command
    # that reaches neither (eval, or an infer refused before sampling) pays no import
    src = str(Path(poseguide.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, poseguide.cli; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    assert out.strip() == "False"


def test_oracle_inference_starts_no_worker_thread():
    # the oracle's coordinates have no columns, so its lift and expansion have
    # nothing to split: no thread is started and no pool is imported
    src = str(Path(poseguide.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, threading\n"
        "from poseguide.datagen import MotionSpec, generate_motion\n"
        "from poseguide.denoiser import OracleDenoiser\n"
        "from poseguide.measurement import extract_measurements\n"
        "from poseguide.sampler import GuidanceConfig, run_guided_inference\n"
        "from poseguide.skeleton import default_skeleton\n"
        "skel = default_skeleton()\n"
        "seq = generate_motion(MotionSpec(kind='arm-swing', frames=41, seed=0), skel)\n"
        "meas = extract_measurements(seq, skel, 0.0, seed=1)\n"
        "before = threading.active_count()\n"
        "run_guided_inference(meas, skel, OracleDenoiser(seq.rotations), 5, GuidanceConfig())\n"
        "print(before, threading.active_count(), 'concurrent.futures' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    assert out.split() == ["1", "1", "False"]
