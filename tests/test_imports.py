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


def scipy_linalg_imports(source):
    """Line numbers of imports, at any depth, that reach ``scipy.linalg``.

    numpy's BLAS does the package's linear algebra; ``scipy.linalg`` brings
    its own BLAS and thread pool, which compete with numpy's for the cores.
    """
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(m == "scipy.linalg" or m.startswith("scipy.linalg.") for m in modules):
            lines.append(node.lineno)
    return lines


def test_scipy_linalg_imports_finds_every_form():
    src = (
        "import scipy.linalg\n"
        "import scipy.linalg as sla\n"
        "from scipy.linalg import cho_solve\n"
        "from scipy import linalg\n"
        "from scipy.linalg.lapack import dpotrf\n"
        "import scipy.linalg.blas, numpy\n"
        "def f():\n"
        "    from scipy import special, linalg as la\n"
        "from scipy.special import gammaln\n"
        "from scipy import optimize\n"
        "import scipy\n"
    )
    assert scipy_linalg_imports(src) == [1, 2, 3, 4, 5, 6, 8]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_scipy_linalg(path):
    assert scipy_linalg_imports(path.read_text()) == []
