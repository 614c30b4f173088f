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
