"""Every module-level import in the package is used by its module.

Package re-exports in __init__.py and __future__ imports are exempt.
"""

import ast
from pathlib import Path

import pytest

import nilcent

MODULES = sorted(p for p in Path(nilcent.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


def test_the_check_sees_an_unused_import():
    source = "import os\nfrom math import comb, prod\nprint(prod([os.sep]))\n"
    assert unused_imports(source) == ["comb"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
