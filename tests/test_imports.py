"""Every name a module imports is read somewhere in that module.

A standard-library scan, so it needs no linter.  The package's
`__init__.py` is left out: its imports are the public API.  Also: no library
module has an assert statement or reads the environment, and importing the
package loads no numpy, which only the commands that need it load, and no
`dataclasses` or `inspect`: the result types are read-only named tuples.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chromacode
from chromacode.cli import main

REPO = Path(__file__).resolve().parent.parent
FILES = sorted(
    p
    for p in [*REPO.glob("src/chromacode/*.py"), *REPO.glob("demos/*.py")]
    if p.name != "__init__.py"
)


def _own_nodes(scope):
    """The nodes of `scope`, not descending into the functions it defines."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))


def unused_imports(source):
    """Names bound by import statements in `source` that no expression of
    their scope reads: the module for a module-level import, else the
    function that imports it, with the functions nested in it."""
    tree = ast.parse(source)
    functions = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    unused = []
    for scope in [tree, *functions]:
        imported = {}
        for node in _own_nodes(scope):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    # `import a.b` binds `a`; `import a.b as c` binds `c`
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        read = {
            node.id
            for node in ast.walk(scope)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unused += [(line, name) for name, line in imported.items() if name not in read]
    return sorted(unused)


def test_the_scan_finds_an_unused_import():
    source = "import math\nimport os.path\nfrom json import dumps, loads\nprint(os.sep, dumps)\n"
    assert unused_imports(source) == [(1, "math"), (3, "loads")]


def test_the_scan_finds_an_unused_local_import_that_another_function_reads():
    source = (
        "import json\n"
        "def f():\n    import numpy as np\n    return 1\n"
        "def g():\n    import numpy as np\n    def h():\n        return np, json\n    return h\n"
    )
    assert unused_imports(source) == [(3, "np")]


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


# -- the public API --------------------------------------------------------------

# `chromacode.__all__` is every public name the package binds, its submodules
# included; a name added or removed here is a deliberate change of the API
PUBLIC_API = [
    "AlphaProfile", "AmbiguityError", "BOUND_VARIANTS", "BoundReport", "ChromacodeError",
    "CodecPlan", "Coloring", "ExpansionBounds", "FractionalColoring", "FunctionSpec",
    "GershgorinIntervals", "Graph", "GuardExceeded", "JointPMF", "PowerGraph", "RateReport",
    "Spectrum", "SplitReport", "UsageError", "alpha_n_window", "build_characteristic_graph",
    "build_codec", "chargraph", "chromatic_bounds_spectral", "chromatic_entropy_bruteforce",
    "codec", "coloring", "complete_graph", "cycle_graph", "cycle_power_largest_eig",
    "decode_pair", "encode_block", "encode_tuple", "entropy", "entropy_bits", "errors",
    "even_cycle_power_coloring", "exact_chromatic_number", "example1_spec", "expansion",
    "expansion_bounds", "expansion_rate", "fractional_chromatic_cycle",
    "fractional_entropy_lower_bound", "general_entropy_upper_bound", "gershgorin",
    "graph_spectrum", "graphs", "greedy_coloring", "hong_bound", "huffman_code",
    "is_valid_b_fold", "is_valid_coloring", "jacobi_eigenvalues", "lambda1_window",
    "make_graph", "max_independent_set_size", "maximal_independent_sets",
    "odd_cycle_entropy_upper_bound", "odd_cycle_power_coloring", "or_power",
    "or_power_degree", "orpower", "path_graph", "power_chromatic_number", "power_coloring",
    "prism_graph", "product_coloring", "resolve_guard", "roundtrip_exhaustive", "simulate",
    "smallest_eig_lower_bounds", "spectral", "split_decomposition",
    "tanner_lower_bound",
]


def test_the_public_api_is_the_pinned_list():
    assert sorted(chromacode.__all__) == PUBLIC_API


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


ENV_READERS = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source):
    """Line numbers in `source` that read the process environment: an
    `os.environ` / `os.getenv` attribute (any alias of `os`), or a
    `from os import environ` / `getenv`."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ENV_READERS:
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            lines += [node.lineno for alias in node.names if alias.name in ENV_READERS]
    return sorted(lines)


def test_the_scan_finds_an_environment_read():
    source = (
        "import os\nimport os as o\nfrom os import getenv\n"
        "a = os.environ.get('X')\nb = o.getenv('X')\nc = os.path.sep\n"
    )
    assert environment_reads(source) == [3, 4, 5]


@pytest.mark.parametrize("path", MODULES + [REPO / "src/chromacode/__init__.py"], ids=lambda p: p.name)
def test_the_library_reads_no_environment(path):
    # every limit is an argument: the caller's shell changes no result
    assert environment_reads(path.read_text()) == []


# -- numpy is loaded on first use, not at import -----------------------------------

# runs `main(argv)` in a fresh interpreter, then prints to stderr, as its
# last line, the exit code and whether numpy got loaded
PROBE = """
import json, sys
from chromacode.cli import main
try:
    rc = main(sys.argv[1:])
except SystemExit as exc:  # --version exits from argparse
    rc = exc.code
print(json.dumps([rc, "numpy" in sys.modules]), file=sys.stderr)
"""


def fresh(code, *args):
    """(stdout, stderr) of `code` run in a fresh interpreter that imports
    chromacode from this checkout."""
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, timeout=120, check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    return done.stdout, done.stderr


def test_importing_the_package_and_its_cli_loads_no_numpy():
    out, _ = fresh('import sys, chromacode, chromacode.cli; print("numpy" in sys.modules)')
    assert out == "False\n"


def test_importing_the_package_and_its_cli_loads_no_dataclasses_or_inspect():
    # the result types are named tuples, which need neither
    out, _ = fresh(
        'import sys, chromacode, chromacode.cli; print(sorted({"dataclasses", "inspect"} & set(sys.modules)))'
    )
    assert out == "[]\n"


RECORDS = (
    "FunctionSpec JointPMF Coloring FractionalColoring AlphaProfile ExpansionBounds Spectrum "
    "GershgorinIntervals SplitReport BoundReport CodecPlan RateReport Receiver"
).split()


@pytest.fixture(scope="module")
def records():
    """{type name: (record, its fields in order)}, one instance of each result type."""
    spec, pmf = chromacode.example1_spec()
    plan = chromacode.build_codec(spec, pmf, 1)
    c5 = chromacode.cycle_graph(5)
    pairs = [
        (spec, "n1 n2 table"),
        (pmf, "probs"),
        (chromacode.greedy_coloring(c5), "assignment palette_size"),
        (chromacode.fractional_chromatic_cycle(2, 2)["coloring"], "a b sets"),
        (chromacode.odd_cycle_entropy_upper_bound(2, 2)["hi_profile"], "alphas mis_sizes total"),
        (chromacode.expansion_bounds("general", 5, 2, 3), "family total y_size lower upper lam lam_is_bound"),
        (chromacode.graph_spectrum(c5), "values"),
        (chromacode.gershgorin(c5.adjacency_matrix()), "mode intervals envelope scalar_envelope"),
        (chromacode.split_decomposition(chromacode.or_power(c5, 2)), "lam_gr lam_fc lam_full lam_sums deviations"),
        (chromacode.chromatic_bounds_spectral("hoffman-direct", g=c5), "variant lower upper details"),
        (plan, "spec pmf n symbol_colorings codes color_weights scale avg_lengths decoder inverses"),
        (
            chromacode.simulate(spec, pmf, 1, 100, 0),
            "n samples seed strategy rates expected_rates coloring_entropies source_entropies lossless",
        ),
        (plan.decoder, "table n"),
    ]
    return {type(record).__name__: (record, fields.split()) for record, fields in pairs}


@pytest.mark.parametrize("name", RECORDS)
def test_result_types_are_read_only_records(records, name):
    record, fields = records[name]
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    values = ", ".join(f"{field}={getattr(record, field)!r}" for field in fields)
    assert repr(record) == f"{name}({values})"
    if isinstance(record, chromacode.CodecPlan):
        assert record.color_pmfs is record.color_pmfs


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"f": [[0, 1], [1, 0], [0, 1], [1, 0]], "x1": 4, "x2": 2}))
    return str(path)


def probe(argv, spec_file):
    """(stdout, [exit code, numpy loaded]) of `main(argv)` in a fresh
    interpreter, with SPEC in argv standing for `spec_file`."""
    out, err = fresh(PROBE, *(spec_file if a == "SPEC" else a for a in argv))
    return out, json.loads(err.splitlines()[-1])


@pytest.mark.parametrize(
    "argv,rc",
    [
        (["graph", "--kind", "cycle", "--size", "5"], 0),
        (["power", "--kind", "cycle", "--size", "5", "--power", "2"], 0),
        (["color", "--kind", "cycle", "--size", "5", "--power", "2", "--scheme", "exact"], 0),
        (["color", "--kind", "cycle", "--size", "5", "--power", "3", "--scheme", "exact"], 0),
        (["color", "--kind", "cycle", "--size", "5", "--power", "2", "--scheme", "odd-cycle"], 0),
        (["color", "--kind", "cycle", "--size", "5", "--scheme", "greedy"], 0),
        (["chargraph", "--spec", "SPEC", "--pmf", "uniform"], 0),
        (["entropy", "--kind", "cycle", "--size", "5", "--power", "2", "--bound", "odd-cycle"], 0),
        (["--version"], 0),
        (["graph"], 2),
    ],
    ids=[
        "graph", "power", "color-exact", "color-exact-cube", "color-odd-cycle", "color-greedy", "chargraph", "entropy-odd-cycle", "version",
        "usage-error",
    ],
)
def test_commands_without_arrays_load_no_numpy(spec_file, argv, rc):
    out, status = probe(argv, spec_file)
    assert status == [rc, False]
    assert bool(out) == (rc == 0)  # it ran: output, or an error exit with none


@pytest.mark.parametrize(
    "argv",
    [
        ["spectral", "--op", "eig", "--kind", "cycle", "--size", "5"],
        ["simulate", "--spec", "SPEC", "--pmf", "uniform", "--n", "2", "--samples", "1000", "--seed", "7"],
        ["reproduce", "--case", "example1"],
    ],
    ids=["spectral-eig", "simulate", "reproduce-example1"],
)
def test_commands_with_arrays_load_numpy_on_first_use_and_print_the_same(spec_file, capsys, argv):
    out, status = probe(argv, spec_file)
    assert status == [0, True]
    assert main([spec_file if a == "SPEC" else a for a in argv]) == 0
    assert out == capsys.readouterr().out  # as this process, with numpy loaded, prints it
