"""Every module-level import in the package is used by its module, and
every top-level function or class is used somewhere in the package.

Package re-exports in __init__.py and __future__ imports are exempt, and
a re-export does not count as a use: code that only tests call belongs in
tests/oracles.py.
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


def unreferenced_definitions(sources: list[str]) -> list[str]:
    """Top-level functions and classes whose name no source reads.

    Only a bare name counts as a use; obj.name reads an attribute, which
    may be a method of the same name.
    """
    trees = [ast.parse(source) for source in sources]
    used = {n.id for tree in trees for n in ast.walk(tree)
            if isinstance(n, ast.Name)}
    return [node.name for tree in trees for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name not in used]


def test_the_check_sees_an_unreferenced_definition():
    sources = ["def helper():\n    return 1\n\n\ndef dead():\n    return helper()\n",
               "class Kept:\n    pass\n\n\ndef shadowed():\n    pass\n\n"
               "x = Kept().shadowed()\n"]
    assert unreferenced_definitions(sources) == ["dead", "shadowed"]


def test_every_definition_is_referenced():
    assert unreferenced_definitions([p.read_text() for p in MODULES]) == []
