"""Every name a module imports is read somewhere in that module.

A standard-library scan, so it needs no linter.  The package's
`__init__.py` is left out: its imports are the public API.
"""

import ast
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
FILES = sorted(
    p
    for p in [*REPO.glob("src/chromacode/*.py"), *REPO.glob("demos/*.py")]
    if p.name != "__init__.py"
)


def unused_imports(source):
    """Names bound by import statements in `source` that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`; `import a.b as c` binds `c`
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_the_scan_finds_an_unused_import():
    source = "import math\nimport os.path\nfrom json import dumps, loads\nprint(os.sep, dumps)\n"
    assert unused_imports(source) == [(1, "math"), (3, "loads")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


# -- every public definition has a caller outside the tests --------------------

MODULES = sorted(p for p in REPO.glob("src/chromacode/*.py") if p.name != "__init__.py")
CALLERS = [*sorted(REPO.glob("demos/*.py")), *sorted(REPO.glob("bench/*.py"))]

# "module.name" of public definitions kept without a reader; each needs its
# reason in CHANGES.md
NO_READER = []


def _names_read(node):
    """Names that `node` reads: loaded names, loaded attributes, and string
    constants (`bench/layers.py` names the functions it wraps that way)."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, (ast.Name, ast.Attribute)) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id if isinstance(sub, ast.Name) else sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.add(sub.value)
    return out


def unread_definitions(modules, readers):
    """"module.name" of each public top-level function or class of `modules`
    that no top-level statement of `readers` reads, its own definition aside.
    Both map a label to source text."""
    readers_of = {}
    for label, source in readers.items():
        for i, stmt in enumerate(ast.parse(source).body):
            for name in _names_read(stmt):
                readers_of.setdefault(name, set()).add((label, i))
    unread = []
    for label, source in modules.items():
        for i, stmt in enumerate(ast.parse(source).body):
            defines = isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            if defines and not stmt.name.startswith("_"):
                if not readers_of.get(stmt.name, set()) - {(label, i)}:
                    unread.append(f"{label}.{stmt.name}")
    return sorted(unread)


def test_the_scan_finds_a_definition_without_a_reader():
    lib = (
        "def used():\n    return helper()\n"
        "def helper():\n    return 1\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "def by_name():\n    pass\n"
        "class Unused:\n    pass\n"
        "def _private():\n    pass\n"
    )
    caller = "import lib\nlib.used()\nWRAP = ['by_name']\n"
    assert unread_definitions({"lib": lib}, {"lib": lib, "caller": caller}) == [
        "lib.Unused",
        "lib.recursive",
    ]


def test_every_public_definition_has_a_reader():
    modules = {p.stem: p.read_text() for p in MODULES}
    readers = {**modules, **{f"{p.parent.name}/{p.name}": p.read_text() for p in CALLERS}}
    assert unread_definitions(modules, readers) == sorted(NO_READER)


# -- checks that hold under python -O --------------------------------------------


def assert_statements(source):
    """Line numbers of the `assert` statements in `source`."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_the_scan_finds_an_assert_statement():
    assert assert_statements("x = 1\nassert x\nif x:\n    assert x > 0\nraise AssertionError\n") == [2, 4]


@pytest.mark.parametrize("path", MODULES + [REPO / "src/chromacode/__init__.py"], ids=lambda p: p.name)
def test_no_assert_statements_in_the_library(path):
    # `python -O` strips asserts; a library check raises ChromacodeError instead
    assert assert_statements(path.read_text()) == []
