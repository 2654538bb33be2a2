"""Every module of the package and of the tests uses each name it imports.

A name counts as used when the module reads it anywhere, in code or in a
string annotation, or lists it in __all__.  Only the standard library's
ast is used, so the check needs no linter."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*(ROOT / "src" / "codeswitch").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def _names_read(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)
            and not isinstance(n.ctx, ast.Store)}


def unused_imports(source: str) -> list[str]:
    """The names the module imports and never uses, in import order."""
    tree = ast.parse(source)
    imported: list[str] = []
    used = _names_read(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names if alias.name != "*"]
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for part in ast.walk(annotation) if annotation else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    used |= _names_read(ast.parse(part.value, mode="eval"))
    return [name for name in dict.fromkeys(imported) if name not in used]


def test_the_check_finds_unused_imports():
    source = '''
from __future__ import annotations
import os, os.path as osp, json.decoder
from typing import Any, Sequence
from pkg import a as b, c, d, e
__all__ = ["c"]
def f(x: "Sequence[int]") -> None:
    d = 1
    return json.decoder, e
'''
    assert unused_imports(source) == ["os", "osp", "Any", "b", "d"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
