"""Property test of the CLI contract over generated argv and JSON inputs.

Whatever the flags and input files, `chromacode` must exit 0, 1, 2 or 3, put
a JSON error object on stderr when it exits nonzero, and never end in a
traceback.  Most generated argv are ones argparse accepts; the rest are such
argv with one fault that argparse itself rejects (an unknown flag, command or
choice, a malformed integer, no command), and those must exit 2 with the
JSON usage error.  Sizes stay small enough that no exact coloring or
brute-force search comes near its timeout.  Examples are derandomized so
Tier-1 runs the same inputs every time.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from chromacode.cli import main
from chromacode.coloring import STRATEGIES
from chromacode.spectral import BOUND_VARIANTS

FUZZ = settings(max_examples=60, deadline=5000, derandomize=True, database=None)

small = st.integers(-1, 6)
text = st.text(alphabet="0123456789-,/ xu{}[]\":", max_size=12)
scalars = st.none() | st.booleans() | st.integers(-2, 7) | text | st.sampled_from(["1/2", "uniform"])
json_values = st.recursive(
    scalars,
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.sampled_from(["vertices", "edges", "f", "p", "x1", "x2"]), kids, max_size=4),
    max_leaves=10,
)
graph_json = st.one_of(
    st.builds(
        lambda v, e: json.dumps({"vertices": v, "edges": e}),
        small,
        st.lists(st.lists(small, min_size=1, max_size=3), max_size=8),
    ),
    json_values.map(json.dumps),
    text,
)
table = st.integers(0, 3).flatmap(
    lambda n2: st.lists(st.lists(st.integers(0, 2), min_size=n2, max_size=n2), min_size=1, max_size=3)
)
spec_json = st.one_of(
    table.map(lambda t: json.dumps({"f": t})),
    st.builds(lambda t, x1: json.dumps({"f": t, "x1": x1}), table, small),
    json_values.map(json.dumps),
    text,
)
cell = st.sampled_from(["0", "1", "1/2", "1/3", "1/4", "2/3", "-1/2", "x", "1/0"]) | st.integers(-1, 1)
rows = st.lists(st.lists(cell, max_size=3), min_size=1, max_size=3)
pmf_json = st.one_of(
    rows.map(lambda r: json.dumps({"p": r})),
    json_values.map(json.dumps),
    st.just('"uniform"'),
    text,
)


@st.composite
def graph_args(draw):
    """Flags that name a graph: a JSON file (as FILE=<text>) or --kind/--size/--edges."""
    if draw(st.booleans()):
        return ["--graph", ("FILE", draw(graph_json))]
    args = [f"--kind={draw(st.sampled_from(['cycle', 'complete', 'path', 'edgeless', 'custom']))}"]
    size = draw(st.none() | small)
    if size is not None:
        args.append(f"--size={size}")
    edges = draw(st.none() | text)
    if edges is not None:
        args.append(f"--edges={edges}")
    return args


def _common(draw):
    args = draw(graph_args()) + [f"--power={draw(st.integers(-1, 2))}"]
    guard = draw(st.none() | st.integers(-1, 30))
    if guard is not None:
        args.append(f"--guard={guard}")
    return args


@st.composite
def color_argv(draw):
    scheme = draw(st.sampled_from(["exact", "greedy", "even-cycle", "odd-cycle", "fractional"]))
    return ["color", *_common(draw), f"--scheme={scheme}", f"--fold={draw(st.integers(-1, 3))}"]


@st.composite
def entropy_argv(draw):
    bound = draw(st.sampled_from(["brute", "odd-cycle", "general", "fractional"]))
    return ["entropy", *_common(draw), f"--bound={bound}"]


@st.composite
def spectral_argv(draw):
    return [
        "spectral",
        *_common(draw),
        f"--op={draw(st.sampled_from(['eig', 'gct', 'split', 'bounds']))}",
        f"--mode={draw(st.sampled_from(['scalar', 'block']))}",
        f"--variant={draw(st.sampled_from(BOUND_VARIANTS))}",
    ]


@st.composite
def simulate_argv(draw):
    pmf = draw(st.just("uniform") | pmf_json.map(lambda t: ("FILE", t)))
    return [
        "simulate",
        "--spec",
        ("FILE", draw(spec_json)),
        "--pmf",
        pmf,
        f"--n={draw(st.integers(-1, 2))}",
        f"--samples={draw(st.integers(-1, 300))}",
        f"--seed={draw(st.integers(0, 3))}",
        f"--strategy={draw(st.sampled_from(STRATEGIES) | text)}",
    ]


@st.composite
def expansion_argv(draw):
    argv = ["expansion", *_common(draw), f"--seed={draw(st.integers(0, 3))}"]
    subset = draw(st.none() | st.text(alphabet="0123456789,- a", max_size=8))
    if subset is not None:
        argv.append(f"--subset={subset}")
    sample = draw(st.none() | st.integers(-2, 30))
    if sample is not None:
        argv.append(f"--sample={sample}")
    return argv


@st.composite
def graph_argv(draw):
    argv = ["graph", *draw(graph_args())]
    guard = draw(st.none() | st.integers(-1, 30))
    if guard is not None:
        argv.append(f"--guard={guard}")
    return argv


@st.composite
def power_argv(draw):
    return ["power", *_common(draw)]


@st.composite
def chargraph_argv(draw):
    pmf = draw(st.just("uniform") | pmf_json.map(lambda t: ("FILE", t)))
    source = draw(st.sampled_from(["1", "2"]))
    return ["chargraph", "--spec", ("FILE", draw(spec_json)), "--pmf", pmf, f"--source={source}"]


@st.composite
def rejected_argv(draw):
    """An accepted argv with one fault that argparse rejects."""
    argv = draw(st.one_of(color_argv(), spectral_argv(), simulate_argv(), expansion_argv()))
    fault = draw(st.sampled_from(["flag", "int", "choice", "command", "no-command"]))
    if fault == "flag":
        return argv + ["--bogus"]
    if fault == "int":
        return argv + [draw(st.sampled_from(["--power=x", "--guard=1.5", "--seed=two"]))]
    if fault == "choice":
        return argv + ["--kind=hexagon"]
    if fault == "command":
        return ["colour", *argv[1:]]
    return argv[1:]


def _run(argv):
    """Write FILE inputs to disk, run the CLI in-process, return (rc, stderr)."""
    with tempfile.TemporaryDirectory() as tmp:
        args = []
        for i, a in enumerate(argv):
            if isinstance(a, tuple):
                path = os.path.join(tmp, f"in{i}.json")
                with open(path, "w") as fh:
                    fh.write(a[1])
                a = path
            args.append(a)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(args)
    return rc, err.getvalue()


def _check_contract(argv):
    rc, err = _run(argv)
    assert rc in (0, 1, 2, 3), (argv, rc)
    assert "Traceback" not in err
    if rc != 0:
        assert "error" in json.loads(err), (argv, err)


@FUZZ
@given(color_argv())
def test_color_cli_contract(argv):
    _check_contract(argv)


# graphs without edges: one vertex (K1) and three (the edgeless E3)
K1 = ["--kind=complete", "--size=1"]
E3 = ["--kind=edgeless", "--size=3"]


@FUZZ
@given(entropy_argv())
@example(["entropy", *K1, "--power=2", "--bound=general"])
@example(["entropy", *E3, "--power=2", "--bound=general"])
@example(["entropy", *E3, "--power=1", "--bound=brute"])
def test_entropy_cli_contract(argv):
    _check_contract(argv)


@FUZZ
@given(spectral_argv())
@example(["spectral", *K1, "--power=2", "--op=bounds", "--variant=general"])
@example(["spectral", *K1, "--power=1", "--op=bounds", "--variant=degree"])
@example(["spectral", *E3, "--power=2", "--op=bounds", "--variant=gct-split"])
@example(["spectral", *E3, "--power=2", "--op=bounds", "--variant=lambda1-window"])
def test_spectral_cli_contract(argv):
    _check_contract(argv)


@FUZZ
@given(simulate_argv())
def test_simulate_cli_contract(argv):
    _check_contract(argv)


@FUZZ
@given(expansion_argv())
@example(["expansion", *K1, "--power=1", "--subset=0"])
@example(["expansion", *K1, "--power=2", "--sample=1"])
@example(["expansion", *E3, "--power=1", "--subset=0"])
@example(["expansion", *E3, "--power=2", "--sample=4", "--seed=2"])
def test_expansion_cli_contract(argv):
    _check_contract(argv)


@FUZZ
@given(graph_argv())
def test_graph_cli_contract(argv):
    _check_contract(argv)


@FUZZ
@given(power_argv())
def test_power_cli_contract(argv):
    _check_contract(argv)


@FUZZ
@given(chargraph_argv())
def test_chargraph_cli_contract(argv):
    _check_contract(argv)


@FUZZ
@given(rejected_argv())
def test_argparse_rejections_are_json_usage_errors(argv):
    rc, err = _run(argv)
    assert rc == 2, (argv, rc)
    assert json.loads(err)["error"] == "usage", (argv, err)
