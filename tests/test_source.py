"""Structural checks on the package source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "holobrace"

# modules that start worker processes
POOL_MODULES = ("multiprocessing", "concurrent.futures")


def _imported_names(tree: ast.AST):
    """Every module an import statement names, at any depth; for `from m
    import a` both m and m.a, so `from concurrent import futures` counts."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def _is_pool_module(name: str) -> bool:
    return any(name == m or name.startswith(m + ".") for m in POOL_MODULES)


def test_no_module_imports_a_process_pool():
    paths = sorted(SRC.rglob("*.py"))
    assert any(p.name == "kernel.py" for p in paths)
    found = {
        p.name: hits
        for p in paths
        if (hits := sorted(filter(_is_pool_module, _imported_names(ast.parse(p.read_text())))))
    }
    assert found == {}


def _names(tree: ast.AST):
    """Every identifier the tree binds or reads, imported names included."""
    for node in ast.walk(tree):
        for field in ("id", "attr", "name"):
            value = getattr(node, field, None)
            if isinstance(value, str):
                yield value


def test_brute_force_recognition_stays_off_the_count_and_lift_paths():
    # `_classify_kernel` walks element orders until a witness turns up; it
    # is a validation surface, so only its own module may name it
    paths = sorted(SRC.rglob("*.py"))
    assert any(p.name == "presentations.py" for p in paths)
    found = sorted(
        p.name
        for p in paths
        if p.name != "presentations.py" and "_classify_kernel" in set(_names(ast.parse(p.read_text())))
    )
    assert found == []
