"""Every top-level import in the package is used by its module."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "matvt"


def unused_imports(source):
    """Names bound by top-level imports that the module never reads.

    Names listed in ``__all__`` count as read (package re-exports).
    """
    tree = ast.parse(source)
    bound = []
    exported = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound.append(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read | exported]


def test_unused_imports_finds_unread_names():
    src = "import json\nimport numpy as np\nfrom x import a, b\n__all__ = ['b']\nnp.ones(a)\n"
    assert unused_imports(src) == ["json"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text()) == []
