"""Static checks on the library source, run with the standard library.

No linter is assumed; each module is parsed with ast.
"""

import ast
import os

import pytest

import arrcensus

SRC = os.path.dirname(arrcensus.__file__)
MODULES = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
READERS = ("src", "tests", "demos", "perfbench")


def unread_imports(tree):
    """Names a module binds by import and never reads, sorted."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.add(alias.asname or alias.name.split(".")[0])
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(bound - read)


@pytest.mark.parametrize("name", MODULES)
def test_every_imported_name_is_read(name):
    with open(os.path.join(SRC, name)) as fh:
        tree = ast.parse(fh.read())
    assert unread_imports(tree) == []


def test_unread_imports_sees_each_form():
    tree = ast.parse("import os\nimport a.b\nfrom c import d, e as f\n"
                     "from .g import h\nx = d + a.b.y + h\n")
    assert unread_imports(tree) == ["f", "os"]


def parse(path):
    with open(path) as fh:
        return ast.parse(fh.read())


def read_names(tree):
    """Names a module reads: loaded names, attributes, and string
    constants (getattr, monkeypatch.setattr and dispatch by name)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def unread_definitions(tree, read):
    """Module-level functions and classes of tree whose names are not in
    read, sorted; the cmd_* handlers, which cli.main dispatches by name,
    are exempt."""
    return sorted(node.name for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                       ast.ClassDef))
                  and not node.name.startswith("cmd_")
                  and node.name not in read)


def test_every_library_definition_is_read():
    # a function or class of the library that nothing in the repo reads
    # is dead code
    read = set()
    for top in READERS:
        for base, _, files in os.walk(os.path.join(ROOT, top)):
            for name in files:
                if name.endswith(".py"):
                    read |= read_names(parse(os.path.join(base, name)))
    unread = {name: unread_definitions(parse(os.path.join(SRC, name)), read)
              for name in MODULES}
    assert {k: v for k, v in unread.items() if v} == {}


def test_unread_definitions_sees_each_form():
    tree = ast.parse("def a(): pass\nclass B: pass\nasync def c(): pass\n"
                     "def cmd_d(): pass\ndef e():\n    def f(): pass\n"
                     "x = a() + getattr(m, 'B')\n")
    assert unread_definitions(tree, read_names(tree)) == ["c", "e"]
