"""Every name a module of the package imports is used in that module, so a
deletion cannot leave a dead import behind."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "gddkit"


def unused_imports(source: str) -> list[str]:
    """The names the module's import statements bind that nothing in it
    reads; a name listed in ``__all__`` counts as read."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read |= set(ast.literal_eval(node.value))
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from x import a, b as c\n"
        "__all__ = ['a']\n"
        "def f(): return os.sep\n"
    )
    assert unused_imports(source) == ["c"]
