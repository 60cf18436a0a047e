"""Every module-level import in the package is used by its module, no
module imports random or has an assert statement, every top-level
function or class, and every method of one, is used somewhere in the
package, every cache in the package is bounded, composition.state is
the only one, only centralizer imports composition.shift, every
module.name that a docstring or comment cites exists, and importing the
command line loads no process pool, no dataclasses and no inspect.

__future__ imports are exempt.  The package root __init__.py is checked
like every module, so it holds no re-export, and code that only tests
call belongs in tests/oracles.py, apart from the one definition the
benchmark's tracer names, pinned in TRACED_TEST_REFERENCES.  A cache
holds the state of one composition, so its bound says how long that
state lives; an unbounded one keeps the state of every composition ever
asked for, and a second one gives that state a second lifetime.
"""

import ast
import importlib
import io
import re
import subprocess
import sys
import tokenize
from pathlib import Path
from types import SimpleNamespace

import pytest

import nilcent

MODULES = sorted(Path(nilcent.__file__).parent.glob("*.py"))


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


def imports_random(source: str) -> bool:
    """Whether any import statement, at any depth, names random.

    Every check is exact, so no module draws a random point and stdout
    depends on the arguments alone.
    """
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            continue
        if any(m.split(".")[0] == "random" for m in modules):
            return True
    return False


def test_the_check_sees_a_random_import():
    assert imports_random("import os, random as rng\n")
    assert imports_random("def f():\n    from random import Random\n")
    assert not imports_random("from . import random_walk\nimport randomize\n")


def test_no_module_imports_random():
    assert [p.name for p in MODULES if imports_random(p.read_text())] == []


def has_assert(source: str) -> bool:
    """Whether an assert statement occurs at any depth.

    python -O strips asserts, and an AssertionError escapes the command
    line as a traceback; a check the program relies on raises
    RuntimeError, which exits 3 with an error line.
    """
    return any(isinstance(n, ast.Assert) for n in ast.walk(ast.parse(source)))


def test_the_check_sees_an_assert():
    assert has_assert("def f(x):\n    if x:\n        assert x, 'no'\n")
    assert not has_assert("def f(x):\n    raise AssertionError('assert')\n")


def test_no_module_has_an_assert():
    assert [p.name for p in MODULES if has_assert(p.read_text())] == []


def unreferenced_definitions(sources: list[str]) -> list[str]:
    """Top-level functions and classes, and the non-dunder methods of
    top-level classes, that no source reads.

    A top-level name is used only by a bare name; obj.name reads an
    attribute, which may be a method of the same name.  A method is used
    by an attribute read, or by a bare name in its own class body outside
    its methods (other = method); a bare name anywhere else is a local or
    a global, never the method.  An attribute read resolves through its
    receiver: Cls.meth reads meth of Cls and of its bases; self.meth,
    cls.meth and super().meth inside class C read it of C, its bases and
    its subclasses, since a subclass may override it.  Any other receiver
    reads every method of that name.  Bases count only when they are
    top-level classes of the sources, named by a bare name.
    """
    trees = [ast.parse(source) for source in sources]
    nodes = [n for tree in trees for n in ast.walk(tree)]
    names = {n.id for n in nodes if isinstance(n, ast.Name)}
    classes = {node.name: node for tree in trees for node in tree.body
               if isinstance(node, ast.ClassDef)}

    def ancestors(name: str) -> set[str]:
        out = {name}
        for base in classes[name].bases:
            if isinstance(base, ast.Name) and base.id in classes:
                out |= ancestors(base.id)
        return out

    def related(name: str) -> set[str]:
        return ancestors(name) | {c for c in classes if name in ancestors(c)}

    enclosing = {n: name for name, node in classes.items()
                 for n in ast.walk(node)}
    reads = set()  # (class, method), with class None for any class
    for n in nodes:
        if not (isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)):
            continue
        receiver = n.value
        if isinstance(receiver, ast.Name) and receiver.id in classes:
            owners = ancestors(receiver.id)
        elif n in enclosing and (
                isinstance(receiver, ast.Name) and receiver.id in ("self", "cls")
                or isinstance(receiver, ast.Call)
                and isinstance(receiver.func, ast.Name)
                and receiver.func.id == "super"):
            owners = related(enclosing[n])
        else:
            owners = {None}
        reads |= {(c, n.attr) for c in owners}
    unused = []
    for node in (node for tree in trees for node in tree.body):
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if node.name not in names:
            unused.append(node.name)
        if isinstance(node, ast.ClassDef):
            own = {n.id for stmt in node.body
                   if not isinstance(stmt, ast.FunctionDef)
                   for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            unused += [f"{node.name}.{m.name}" for m in node.body
                       if isinstance(m, ast.FunctionDef)
                       and not (m.name.startswith("__") and m.name.endswith("__"))
                       and m.name not in own
                       and not reads & {(node.name, m.name), (None, m.name)}]
    return unused


def test_the_check_sees_an_unreferenced_definition():
    sources = ["def helper():\n    return 1\n\n\ndef dead():\n    return helper()\n",
               "class Kept:\n    pass\n\n\ndef shadowed():\n    pass\n\n"
               "x = Kept().shadowed()\n"]
    assert unreferenced_definitions(sources) == ["dead", "shadowed"]


def test_the_check_sees_an_unreferenced_method():
    source = ("class Box:\n"
              "    def __len__(self):\n        return 0\n\n"
              "    def read(self):\n        return self.helper()\n\n"
              "    def helper(self):\n        return 1\n\n"
              "    def aliased(self):\n        return 2\n\n"
              "    def dead(self):\n        return 3\n\n"
              "    def shadowed(self):\n        return 4\n\n"
              "    other = aliased\n\n\n"
              "def run():\n    def shadowed():\n        return 5\n\n"
              "    return shadowed()\n\n\n"
              "box = Box()\nbox.dead = box.read\nrun()\n")
    assert unreferenced_definitions([source]) == ["Box.dead", "Box.shadowed"]


def test_the_check_resolves_method_reads_by_class():
    # Label's unit and double share their names with used methods of the
    # Shape classes; scale is defined only by the subclass that overrides
    source = ("class Shape:\n"
              "    def area(self):\n        return self.scale() * self.unit()\n\n"
              "    def unit(self):\n        return 1\n\n\n"
              "class Square(Shape):\n"
              "    def scale(self):\n        return 2\n\n"
              "    def double(self):\n        return 2 * super().area()\n\n\n"
              "class Label:\n"
              "    def unit(self):\n        return ''\n\n"
              "    def double(self):\n        return ''\n\n"
              "    def text(self):\n        return ''\n\n\n"
              "print(Square.double(Square()), Label().text())\n")
    assert unreferenced_definitions([source]) == ["Label.unit", "Label.double"]


# The one exception, pinned by name: the sweep derives its invariance row,
# so only the tests call the direct walk, but nilbench/tracing.py traces
# it in nilcent.invariants.  It moves to tests/oracles.py, and this list
# empties, with the next change to the benchmark.
TRACED_TEST_REFERENCES = ["verify_invariant"]


def test_every_definition_is_referenced():
    assert (unreferenced_definitions([p.read_text() for p in MODULES])
            == TRACED_TEST_REFERENCES)


def cache_decorators(source: str) -> list[tuple]:
    """(function name, decorator node) for each lru_cache or cache
    decorator in source."""
    def name(decorator) -> str:
        node = decorator.func if isinstance(decorator, ast.Call) else decorator
        return getattr(node, "attr", getattr(node, "id", ""))

    return [(node.name, d) for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for d in node.decorator_list if name(d) in ("lru_cache", "cache")]


def unbounded_caches(source: str, namespace: dict) -> list[str]:
    """Functions under an lru_cache or cache decorator that does not pass
    maxsize= a positive int, written as a literal or as a name that
    namespace binds to one."""
    def bounded(decorator) -> bool:
        if not isinstance(decorator, ast.Call):
            return False
        for kw in decorator.keywords:
            if kw.arg == "maxsize":
                value = kw.value
                if isinstance(value, ast.Constant):
                    value = value.value
                elif isinstance(value, ast.Name):
                    value = namespace.get(value.id)
                return (isinstance(value, int) and not isinstance(value, bool)
                        and value > 0)
        return False

    return [fn for fn, d in cache_decorators(source) if not bounded(d)]


def test_the_check_sees_an_unbounded_cache():
    source = ("import functools\nfrom functools import cache, lru_cache\n\n"
              "LIMIT = 4\n\n\n"
              "@lru_cache(maxsize=1)\ndef literal(x):\n    return x\n\n\n"
              "@lru_cache(maxsize=LIMIT)\ndef constant(x):\n    return x\n\n\n"
              "@functools.lru_cache(maxsize=None)\ndef none(x):\n    return x\n\n\n"
              "@lru_cache\ndef bare(x):\n    return x\n\n\n"
              "@lru_cache()\ndef default(x):\n    return x\n\n\n"
              "@cache\ndef plain(x):\n    return x\n\n\n"
              "@lru_cache(maxsize=0)\ndef zero(x):\n    return x\n\n\n"
              "@lru_cache(maxsize=True)\ndef flag(x):\n    return x\n\n\n"
              "@lru_cache(maxsize=UNKNOWN)\ndef unbound(x):\n    return x\n")
    assert unbounded_caches(source, {"LIMIT": 4}) == [
        "none", "bare", "default", "plain", "zero", "flag", "unbound"]


def test_every_cache_is_bounded():
    unbounded = [
        f"{path.stem}.{name}" for path in MODULES
        for name in unbounded_caches(
            path.read_text(),
            vars(importlib.import_module(f"nilcent.{path.stem}")))]
    assert unbounded == []


def test_one_cache_holds_every_composition_state():
    """Every other cache goes through composition.per_composition, so
    the state of one composition has one owner and one lifetime."""
    caches = [(f"{path.stem}.{fn}", ast.unparse(d)) for path in MODULES
              for fn, d in cache_decorators(path.read_text())]
    assert caches == [("composition.state", "lru_cache(maxsize=1)")]


def imported_names(source: str, module: str) -> set[str]:
    """The names that source imports, at any depth, from the package
    module of that name."""
    return {a.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and node.module in (module, f"nilcent.{module}")
            for a in node.names}


def test_the_check_sees_an_imported_name():
    source = ("from .composition import Composition, shift\n"
              "def f():\n    from nilcent.composition import state\n"
              "from .centralizer import is_admissible\n")
    assert imported_names(source, "composition") == {
        "Composition", "shift", "state"}


def test_only_centralizer_reads_the_shift():
    """The admissible window is stated once, in centralizer, and every
    other module asks is_admissible or basis_list."""
    assert [p.stem for p in MODULES
            if "shift" in imported_names(p.read_text(), "composition")
            ] == ["centralizer"]


def stale_citations(source: str, modules: dict) -> list[str]:
    """Each module.name cited in a docstring or a comment of source, for a
    module that modules maps to its namespace, that the namespace lacks.

    A file name such as module.py is not a citation.
    """
    pattern = re.compile(r"\b(%s)\.(?!py\b)([A-Za-z_]\w*)" % "|".join(modules))
    texts = [tok.string for tok in tokenize.generate_tokens(
        io.StringIO(source).readline) if tok.type == tokenize.COMMENT]
    texts += [ast.get_docstring(node, clean=False) or ""
              for node in ast.walk(ast.parse(source))
              if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                   ast.AsyncFunctionDef))]
    return [m.group(0) for text in texts for m in pattern.finditer(text)
            if not hasattr(modules[m.group(1)], m.group(2))]


def test_the_check_sees_a_stale_citation():
    modules = {"walk": SimpleNamespace(images=None), "core": SimpleNamespace()}
    source = ('"""Runs walk.images; see core.py and walk.derivations."""\n\n\n'
              "def f():\n"
              '    """Calls walk.images, as core.gone did."""\n'
              "    # walk.stale, walk.images\n"
              '    return "walk.unchecked"\n')
    assert stale_citations(source, modules) == [
        "walk.stale", "walk.derivations", "core.gone"]


def test_every_citation_exists():
    modules = {p.stem: importlib.import_module(f"nilcent.{p.stem}")
               for p in MODULES}
    stale = [f"{path.name}: {name}" for path in MODULES
             for name in stale_citations(path.read_text(), modules)]
    assert stale == []


def loaded_by_the_command_line(names) -> list[str]:
    """Which of the modules names a fresh interpreter has loaded once it
    imports nilcent.cli."""
    src = str(Path(nilcent.__file__).parent.parent)
    probe = ("import sys, nilcent.cli\n"
             f"print(*sorted(sys.modules.keys() & {set(names)!r}))\n")
    out = subprocess.run([sys.executable, "-c", probe], cwd=src,
                         capture_output=True, text=True, check=True,
                         timeout=60).stdout
    return out.split()


def test_the_command_line_loads_no_process_pool():
    """Only a sweep with more than one worker imports the pool, so a
    serial run and every per-composition subcommand start without
    multiprocessing and the modules it pulls in."""
    assert loaded_by_the_command_line(
        ["multiprocessing", "concurrent.futures.process"]) == []


def test_the_command_line_loads_no_dataclasses():
    """No class of the package is a dataclass, so the command line starts
    without dataclasses and the inspect, ast and dis it pulls in."""
    assert loaded_by_the_command_line(["dataclasses", "inspect"]) == []
