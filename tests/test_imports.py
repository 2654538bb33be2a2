"""Every module of the package and of the tests uses each name it imports,
and the package defines no top-level function or class, and no non-dunder
method or property of a top-level class, that nothing names.

A name counts as used when the module reads it anywhere, in code or in a
string annotation, or lists it in __all__.  A definition counts as named
when a package or bench/ module reads it, as a name, an attribute or an
imported name, outside the definition itself; an __all__ that lists it
does not name it, so a definition that only tests call shows.
The package calls the builtin open in one place, corpus.read_lines, so
every input file is decoded the same way, and its root imports none of
its modules.  Only the standard library's ast and a subprocess are used,
so the checks need no linter.  The scoring commands load no numpy.ma."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from codeswitch.corpus import serialize_tagged_line
from synth_corpus import switching_driven_corpus

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "codeswitch").glob("*.py"))
MODULES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])


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


def _names_referenced(node: ast.AST) -> set[str]:
    """The names node reads, the attributes it takes and the names it
    imports."""
    names = _names_read(node)
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            names |= {alias.name for alias in n.names}
    return names


def _unnamed(nodes: list[ast.stmt], elsewhere: set[str]) -> list[ast.stmt]:
    """The functions and classes among nodes that neither another of the
    nodes nor elsewhere names, in order."""
    referenced = [_names_referenced(node) for node in nodes]
    return [node for i, node in enumerate(nodes)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name not in elsewhere.union(*referenced[:i], *referenced[i + 1:])]


def unnamed_definitions(source: str, others: list[str]) -> list[str]:
    """The top-level functions and classes of source, and the non-dunder
    methods and properties of its top-level classes as Class.name, that
    neither source, outside their own definition, nor any of the others
    names, in order."""
    body = ast.parse(source).body
    elsewhere = set().union(*(_names_referenced(ast.parse(other)) for other in others))
    unnamed = [node.name for node in _unnamed(body, elsewhere)]
    for cls in (node for node in body if isinstance(node, ast.ClassDef)):
        outside = elsewhere.union(*(_names_referenced(node) for node in body if node is not cls))
        unnamed += [f"{cls.name}.{node.name}" for node in _unnamed(cls.body, outside)
                    if not isinstance(node, ast.ClassDef)
                    and not (node.name.startswith("__") and node.name.endswith("__"))]
    return unnamed


def test_the_check_finds_unnamed_definitions():
    source = '''
__all__ = ["exported"]
def exported(): pass
def recursive(n): return recursive(n - 1)
def called(): pass
class Read: pass
def unused(): return called(), Read
def attribute(): pass
def imported(): pass
'''
    others = ["import m\nm.attribute()", "from m import imported"]
    assert unnamed_definitions(source, others) == ["exported", "recursive", "unused"]


def test_the_check_finds_unnamed_members():
    source = '''
class Box:
    def __len__(self): return 0
    def recursive(self): return self.recursive()
    def called(self): pass
    def unused(self): return self.called()
    @property
    def read(self): pass
    @property
    def unread(self): pass
    def attribute(self): pass
def reader(box): return box.read
'''
    others = ["from m import reader\nimport m\nm.Box().attribute()"]
    assert unnamed_definitions(source, others) == ["Box.recursive", "Box.unused", "Box.unread"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_package_definition_is_named(path):
    others = [p.read_text(encoding="utf-8")
              for p in [*PACKAGE, *sorted((ROOT / "bench").glob("*.py"))] if p != path]
    assert unnamed_definitions(path.read_text(encoding="utf-8"), others) == []


def open_calls(source: str) -> list[str]:
    """The top-level definition around each call of the builtin open in
    source, "<module>" for a call outside any, in the order of the
    definitions."""
    return [getattr(node, "name", "<module>") for node in ast.parse(source).body
            for call in ast.walk(node) if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name) and call.func.id == "open"]


def test_the_check_finds_open_calls():
    source = '''
open("a")
def reader(p):
    with open(p) as fh, io.open(p) as other:
        return [open(q) for q in fh]
class Writer:
    def write(self): os.fdopen(3, "w"); open("b", "w")
'''
    assert open_calls(source) == ["<module>", "reader", "reader", "Writer"]


def test_the_package_opens_files_only_in_read_lines():
    calls = [f"{path.stem}.{name}" for path in PACKAGE
             for name in open_calls(path.read_text(encoding="utf-8"))]
    assert calls == ["corpus.read_lines"]


def test_the_package_root_loads_no_module():
    """import codeswitch loads no codeswitch.* module: every name is
    imported from the module that defines it."""
    code = "import sys, codeswitch; print([m for m in sys.modules if m.startswith('codeswitch.')])"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                            capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n"


def test_scoring_commands_load_no_numpy_ma(tmp_path):
    """train, eval, cv and subsample never import numpy.ma, which costs a
    process about 13 ms: on numpy 2 a bare np.unique(x) imports it, while
    np.unique with return_inverse or return_index does not.  numpy 1.x
    imports numpy.ma with numpy itself, so there is nothing to check."""
    corpus, model, bundle = tmp_path / "corpus.txt", tmp_path / "model.txt", tmp_path / "b.json"
    corpus.write_text("".join(f"{serialize_tagged_line(u)}\n"
                              for u in switching_driven_corpus(60, seed=7)), encoding="utf-8")
    commands = [["train", corpus, "--with-switching", "--model-out", model,
                 "--pipeline-out", bundle],
                ["eval", corpus, "--model", model, "--pipeline", bundle,
                 "-o", tmp_path / "eval.json"],
                ["cv", corpus, "--k", "3", "--ablate-switching", "-o", tmp_path / "cv.json"],
                ["subsample", corpus, "--model", model, "--pipeline", bundle, "--tau", "0.5",
                 "-o", tmp_path / "kept.txt"]]
    code = ("import sys\nimport numpy\nprint('numpy', 'numpy.ma' in sys.modules)\n"
            "from codeswitch.cli import run\n"
            f"for argv in {[[str(arg) for arg in argv] for argv in commands]!r}:\n"
            "    assert run(argv) == 0, argv\n"
            "    print(argv[0], 'numpy.ma' in sys.modules)\n")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                            capture_output=True, text=True, check=True)
    if result.stdout.startswith("numpy True\n"):
        pytest.skip("importing numpy loads numpy.ma")
    assert result.stdout == "numpy False\ntrain False\neval False\ncv False\nsubsample False\n"
