"""The benchmark under dmcbench/ imports dmclab names, some inside
functions; a name deleted from dmclab fails here rather than only as a
failed benchmark run."""

import ast
import importlib
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "dmcbench"
MODULES = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(BENCH.glob("*.py"))}


def dmclab_imports(tree: ast.Module) -> list[tuple[str, str, int]]:
    """(module, name, line) of every `from dmclab... import name` in a
    module, at any depth."""
    return [(node.module, alias.name, node.lineno) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dmclab"
            for alias in node.names]


def resolve(module: str, name: str):
    """What `from module import name` binds, or None if it fails."""
    owner = importlib.import_module(module)
    if hasattr(owner, name):
        return getattr(owner, name)
    try:
        return importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return None


def test_benchmark_imports_dmclab_in_its_modules():
    assert {file for file, tree in MODULES.items() if dmclab_imports(tree)} >= {
        "workloads.py", "run.py", "selftest.py"}


@pytest.mark.parametrize("file", MODULES)
def test_benchmark_imports_resolve(file):
    tree = MODULES[file]
    bound = {name: resolve(module, name) for module, name, _ in dmclab_imports(tree)}
    assert [f"{module}.{name}:{line}" for module, name, line in dmclab_imports(tree)
            if bound[name] is None] == []
    # and the attributes it reads off an imported dmclab module, such as tracegen.generate
    modules = {name: value for name, value in bound.items() if isinstance(value, types.ModuleType)}
    assert [f"{node.value.id}.{node.attr}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules and not hasattr(modules[node.value.id], node.attr)] == []
