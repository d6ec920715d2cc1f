"""Static checks on the library source, run with the standard library.

No linter is assumed; each module is parsed with ast.
"""

import ast
import os

import pytest

import arrcensus

SRC = os.path.dirname(arrcensus.__file__)
MODULES = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))


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
