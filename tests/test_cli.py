import argparse
import json
import math
import sys
import time
from fractions import Fraction

import pytest

import chromacode.cli
import chromacode.coloring
import chromacode.spectral
from chromacode import FunctionSpec, GuardExceeded, JointPMF, example1_spec
from chromacode.cli import COMMANDS, build_parser, main
from chromacode.errors import UsageError
from chromacode.spectral import BOUND_VARIANTS, brigham_bound, smallest_eig_lower_bounds


@pytest.fixture()
def ex1_files(tmp_path):
    spec, pmf = example1_spec()
    spec_path = tmp_path / "f.json"
    pmf_path = tmp_path / "p.json"
    spec_path.write_text(spec.to_json())
    pmf_path.write_text(pmf.to_json())
    return str(spec_path), str(pmf_path)


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out.strip()
    return rc, out


def test_graph_subcommand(capsys):
    rc, out = run(capsys, "graph", "--kind", "cycle", "--size", "4")
    assert rc == 0
    assert json.loads(out) == {"vertices": 4, "edges": [[0, 1], [0, 3], [1, 2], [2, 3]]}


def test_graph_custom_edges(capsys):
    rc, out = run(capsys, "graph", "--kind", "custom", "--size", "3", "--edges", "0-1,1-2")
    assert rc == 0
    assert json.loads(out)["edges"] == [[0, 1], [1, 2]]


def test_graph_file_roundtrip(tmp_path, capsys):
    p = tmp_path / "g.json"
    p.write_text('{"vertices": 3, "edges": [[0, 1]]}')
    rc, out = run(capsys, "graph", "--graph", str(p))
    assert rc == 0
    assert json.loads(out)["edges"] == [[0, 1]]


@pytest.mark.parametrize(
    "argv,what,size,limit",
    [
        (["graph", "--kind", "cycle", "--size", "1000000"], "graph vertex count", 10**6, 10**4),
        (["spectral", "--kind", "path", "--size", "10001", "--op", "eig"], "graph vertex count", 10_001, 10**4),
        (["graph", "--kind", "edgeless", "--size", "21", "--guard", "20"], "graph vertex count", 21, 20),
        (["graph", "--graph", "FILE"], "graph vertex count", 10**9, 10**4),
        (
            ["color", "--kind", "cycle", "--size", "5", "--scheme", "fractional", "--fold", "100000000"],
            "set entries", 5 * 10**8, 10**4,
        ),
        (
            ["color", "--kind", "cycle", "--size", "7", "--scheme", "fractional", "--fold", "3",
             "--guard", "20"],
            "set entries", 21, 20,
        ),
    ],
    ids=["size", "size-spectral", "size-guard", "graph-file", "fold", "fold-guard"],
)
def test_sizes_past_the_guard_exit_3_before_any_row_is_built(tmp_path, capsys, argv, what, size, limit):
    # a cycle of 200 000 vertices took 8.3 s and 2.65 GB in bitset rows
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"vertices": 10**9, "edges": [[0, 1]]}))
    argv = [str(graph) if a == "FILE" else a for a in argv]
    start = time.perf_counter()
    rc = main(argv)
    elapsed = time.perf_counter() - start
    err = json.loads(capsys.readouterr().err)
    assert rc == 3 and elapsed < 1
    assert err == {"error": "guard", "what": err["what"], "size": size, "limit": limit}
    assert what in err["what"]


def test_sizes_at_the_guard_still_run(capsys):
    rc, out = run(capsys, "graph", "--kind", "edgeless", "--size", "20", "--guard", "20")
    assert rc == 0 and json.loads(out) == {"vertices": 20, "edges": []}
    rc, out = run(capsys, "color", "--kind", "cycle", "--size", "5", "--scheme", "fractional",
                  "--fold", "4", "--guard", "20")
    assert rc == 0 and json.loads(out)["chi_b"] == 10


def test_chargraph_subcommand(ex1_files, capsys):
    spec_path, pmf_path = ex1_files
    rc, out = run(capsys, "chargraph", "--spec", spec_path, "--pmf", pmf_path, "--source", "1")
    assert rc == 0
    assert json.loads(out)["edges"] == [[0, 1], [0, 3], [1, 2], [2, 3]]
    rc, out = run(capsys, "chargraph", "--spec", spec_path, "--pmf", "uniform", "--source", "2")
    assert rc == 0
    assert json.loads(out)["edges"] == [[0, 1]]


def test_power_subcommand(capsys):
    rc, out = run(capsys, "power", "--kind", "cycle", "--size", "5", "--power", "2")
    assert rc == 0
    d = json.loads(out)
    assert d["vertices"] == 25
    assert len(d["edges"]) == 150


def test_color_exact(capsys):
    rc, out = run(capsys, "color", "--kind", "cycle", "--size", "5", "--scheme", "exact")
    assert rc == 0
    assert json.loads(out)["chi"] == 3


def test_color_exact_past_the_exact_search_guard(capsys):
    # C5^3 has 125 vertices, past the exact search's 64: its coloring is composed from the base
    rc, out = run(
        capsys, "color", "--kind", "cycle", "--size", "5", "--power", "3", "--scheme", "exact",
    )
    assert rc == 0
    assert json.loads(out)["chi"] == 20


@pytest.mark.parametrize(
    "argv,rc,out",
    [
        (["--size", "5", "--power", "6", "--scheme", "exact"], 0, {"chi": 313}),
        (["--size", "5", "--power", "15", "--scheme", "exact"], 0, {"chi": 1195125}),
        (["--size", "5", "--power", "13", "--scheme", "exact"], 0, {"chi": 191220}),
        (["--size", "5", "--power", "13", "--scheme", "odd-cycle"], 0, {"chi": 191220}),
        (["--size", "101", "--power", "3", "--scheme", "exact"], 0, {"chi": 15}),
        (["--size", "5", "--power", "9013", "--scheme", "exact"], 3, None),
        (["--size", "6", "--power", "6", "--scheme", "even-cycle"], 0, {"chi": 64}),
        (["--size", "5", "--power", "6", "--scheme", "greedy"], 3, None),
    ],
    ids=["exact-C5^6", "exact-past-the-exponent-guard", "exact-C5^13", "odd-cycle-C5^13",
         "exact-C101^3", "exact-past-the-digit-bound", "even-cycle-C6^6", "greedy-C5^6"],
)
def test_color_past_the_power_guard(capsys, argv, rc, out):
    # past the power guard, every scheme but `greedy` prints χ from the base graph
    # while χ(G)^n has at most 4 300 digits (3^9012 does, 3^9013 does not);
    # `greedy`, whose palette is not χ, exits 3
    got = main(["color", "--kind", "cycle", *argv])
    stdout, stderr = capsys.readouterr()
    assert got == rc
    if rc == 0:
        assert json.loads(stdout) == out
    else:
        err = json.loads(stderr)
        assert err["error"] == "guard" and "power" in err["what"]


def test_color_of_a_cycle_past_the_exact_solvers_guard(capsys):
    # C100 has 100 vertices, past the exact search's 64: its parity coloring is the least fold
    rc, out = run(capsys, "color", "--kind", "cycle", "--size", "100")
    d = json.loads(out)
    assert rc == 0 and d["chi"] == d["palette"] == 2


def test_color_exact_past_the_power_guard_keeps_the_mis_guard(capsys):
    # C25 relabeled (i joined to i ± 2) is no canonical cycle, and its cube (15 625
    # vertices) is past the power guard; χ from the base needs the maximal
    # independent sets of C25 (χ 3 > ω 2), past their 24-vertex guard
    edges = ",".join(f"{i}-{(i + 2) % 25}" for i in range(25))
    rc = main(["color", "--kind", "custom", "--size", "25", "--edges", edges, "--power", "3", "--scheme", "exact"])
    err = json.loads(capsys.readouterr().err)
    assert rc == 3
    assert (err["error"], err["what"], err["size"], err["limit"]) == ("guard", "vertex count", 25, 24)
    # P25 is bipartite: χ = ω, so no set is listed and P25^3 is answered
    assert run(capsys, "color", "--kind", "path", "--size", "25", "--power", "3", "--scheme", "exact") == (0, '{"chi": 8}')


@pytest.mark.parametrize(
    "argv,size",
    [(["--kind", "cycle", "--size", "5", "--power", str(10**6)], 10**6),
     (["--kind", "complete", "--size", "24", "--power", "9000"], 9000)],
    ids=["C5^1000000", "K24^9000"],
)
def test_color_exact_past_the_digit_bound_exits_3_at_once(capsys, argv, size):
    # χ(G^n) <= χ(G)^n: n is refused before any level runs when that has more than 4 300 digits
    start = time.perf_counter()
    rc = main(["color", *argv, "--scheme", "exact"])
    assert time.perf_counter() - start < 1.0
    err = json.loads(capsys.readouterr().err)
    assert rc == 3
    assert (err["error"], err["size"], err["limit"]) == ("guard", size, 14)


def test_color_odd_cycle_power(capsys):
    rc, out = run(
        capsys, "color", "--kind", "cycle", "--size", "5", "--power", "2",
        "--scheme", "odd-cycle",
    )
    assert rc == 0
    assert json.loads(out)["chi"] == 8


def test_color_fractional(capsys):
    rc, out = run(
        capsys, "color", "--kind", "cycle", "--size", "5", "--scheme", "fractional",
        "--fold", "2",
    )
    assert rc == 0
    d = json.loads(out)
    assert d["chi_b"] == 5 and d["chi_f"] == "5/2"


def test_entropy_brute(capsys):
    rc, out = run(capsys, "entropy", "--kind", "cycle", "--size", "5", "--bound", "brute")
    assert rc == 0
    assert abs(json.loads(out)["lo"] - 1.5219) < 5e-3


def test_entropy_odd_cycle_window(capsys):
    rc, out = run(
        capsys, "entropy", "--kind", "cycle", "--size", "5", "--power", "3",
        "--bound", "odd-cycle",
    )
    assert rc == 0
    d = json.loads(out)
    assert d["alpha_n_window"] == [12, 15]


def test_spectral_eig(capsys):
    rc, out = run(capsys, "spectral", "--kind", "cycle", "--size", "5", "--op", "eig")
    assert rc == 0
    d = json.loads(out)
    assert len(d["eigenvalues"]) == 5
    assert abs(d["eigenvalues"][0] - 2.0) < 1e-9


def test_spectral_block_gct(capsys):
    rc, out = run(
        capsys, "spectral", "--kind", "cycle", "--size", "5", "--power", "2",
        "--op", "gct", "--mode", "block",
    )
    assert rc == 0
    d = json.loads(out)
    assert d["scalar_envelope"] == [-12.0, 12.0]


def test_spectral_bounds(capsys):
    rc, out = run(
        capsys, "spectral", "--kind", "cycle", "--size", "5", "--power", "2",
        "--op", "bounds", "--variant", "lambda1-window",
    )
    assert rc == 0
    d = json.loads(out)
    assert d["lower"] <= 8 <= d["upper"]  # χ(C5^2)


@pytest.mark.parametrize("variant", ["gct-split", "lambda1-window", "hoffman-direct"])
def test_spectral_bounds_of_c5_to_the_fifth_read_the_base(capsys, variant):
    # 3 125 vertices: the split sum and λ1 are 2·5^4 + λ1(C5^4) = 1250 + 312, the degree
    rc, out = run(
        capsys, "spectral", "--kind", "cycle", "--size", "5", "--power", "5", "--op", "bounds", "--variant", variant,
    )
    assert rc == 0
    d = json.loads(out)
    assert d["upper"] == 1563
    if variant == "gct-split":
        assert d["details"]["sum"] == 1562.0
    else:
        assert d["lower"] <= 125 <= d["upper"]  # χ(C5^5)


def test_spectral_lambda1_window_of_c5_to_the_sixth_builds_no_power(capsys):
    # the window reads (C5, 6) alone: C5^6, 15 625 vertices, is past the power guard
    rc, out = run(
        capsys, "spectral", "--kind", "cycle", "--size", "5", "--power", "6", "--op", "bounds",
        "--variant", "lambda1-window",
    )
    assert rc == 0
    d = json.loads(out)
    assert (d["upper"], d["details"]["lambda_1"], d["details"]["window"]) == (7813, 7812.0, [6250.0, 7812.0])


@pytest.mark.parametrize("variant", BOUND_VARIANTS)
def test_spectral_bounds_of_c5_to_the_sixth_build_the_power_only_to_read_its_spectrum(capsys, monkeypatch, variant):
    # C5^6, 15 625 vertices, is past the power guard; every variant reads (C5, 6) alone, and the three
    # that read λ(C5^6) are refused on the closed form's 15 625 values before anything is built
    built = []
    or_power = chromacode.spectral.or_power
    for module in (chromacode.cli, chromacode.spectral):
        monkeypatch.setattr(module, "or_power", lambda g, n, guard=None: built.append(n) or or_power(g, n, guard))
    rc, out = run(
        capsys, "spectral", "--kind", "cycle", "--size", "5", "--power", "6", "--op", "bounds", "--variant", variant,
    )
    if variant in ("hoffman-direct", "degree", "general"):
        assert (rc, built) == (3, [])
        return
    assert (rc, built) == (0, [])
    d = json.loads(out)
    assert d["upper"] == 7813
    if variant == "gct-split":
        assert d["details"]["sum"] == 7812.0
    if variant == "cycle-power":
        assert d["details"]["lambda_1"] == 7812


@pytest.mark.parametrize("variant", ["hoffman-direct", "degree", "general"])
def test_spectral_bounds_of_a_regular_power_build_no_power(capsys, monkeypatch, variant):
    # under --guard 20000, λ(C5^6) is the closed form of one 5 x 5 solve, and degree's list is read from C5's
    built = []
    or_power = chromacode.spectral.or_power
    for module in (chromacode.cli, chromacode.spectral):
        monkeypatch.setattr(module, "or_power", lambda g, n, guard=None: built.append(n) or or_power(g, n, guard))
    rc, out = run(
        capsys, "spectral", "--kind", "cycle", "--size", "5", "--power", "6", "--guard", "20000",
        "--op", "bounds", "--variant", variant,
    )
    assert (rc, json.loads(out)["upper"], built) == (0, 7813, [])


def test_spectral_guard_reaches_the_window_the_spectrum_and_the_split(capsys, monkeypatch):
    # the window of C5^7 reads C5^6: past the default power guard, within --guard 100000
    window = ["spectral", "--kind", "cycle", "--size", "5", "--power", "7", "--op", "bounds",
              "--variant", "lambda1-window"]
    assert main(window) == 3
    rc, out = run(capsys, *window, "--guard", "100000")
    assert (rc, json.loads(out)["upper"]) == (0, 39063)
    # under --guard 20000 the spectrum of C5^6 is the closed form, read from one 5 x 5 eigensolve
    sizes = []
    eigvalsh = chromacode.spectral._eigvalsh
    monkeypatch.setattr(chromacode.spectral, "_eigvalsh", lambda m: sizes.append(len(m)) or eigvalsh(m))
    c5_6 = ["spectral", "--kind", "cycle", "--size", "5", "--power", "6", "--guard", "20000", "--op"]
    rc, out = run(capsys, *c5_6, "eig")
    d = json.loads(out)
    assert (rc, len(d["eigenvalues"]), d["eigenvalues"][0], sizes) == (0, 15625, 7812.0, [5])
    rc, out = run(capsys, *c5_6, "split")
    d = json.loads(out)
    assert (rc, len(d["lambda_full"]), d["lambda_full"][0]) == (0, 15625, 7812.0)


def _json_numbers(value):
    """True when value is a number, or a list or dict of them, all the way down."""
    if isinstance(value, (list, dict)):
        return all(map(_json_numbers, value.values() if isinstance(value, dict) else value))
    return type(value) in (int, float)


@pytest.mark.parametrize("variant", BOUND_VARIANTS)
@pytest.mark.parametrize(
    "graph", [("--kind", "cycle"), ("--kind", "custom", "--edges", "0-1,0-4,1-2,1-3,2-3,3-4")], ids=["C5", "A_f1"]
)
def test_spectral_bounds_details_are_json_data(capsys, graph, variant):
    # details were printed as str(v): the window's gct entry was the repr of a GershgorinIntervals
    rc, out = run(capsys, "spectral", *graph, "--size", "5", "--power", "2", "--op", "bounds", "--variant", variant)
    if variant == "cycle-power" and "custom" in graph:
        assert (rc, out) == (2, "")  # the closed form describes the canonical cycle only
        return
    assert rc == 0
    details = json.loads(out)["details"]
    assert details and _json_numbers(details), details
    if variant == "lambda1-window":
        assert sorted(details) == ["gct", "lambda_1", "refined", "window"]
        assert sorted(details["gct"]) == ["envelope", "scalar_envelope"]
        assert all(len(pair) == 2 for pair in (*details["gct"].values(), details["window"], details["refined"]))


def test_degree_bounds_of_an_edgeless_graph_are_positive_zero(capsys):
    # Das's and Brigham's bounds are minus a square root, of 0 when E = 0
    rc, out = run(
        capsys, "spectral", "--kind", "edgeless", "--size", "4", "--op", "bounds", "--variant", "degree",
    )
    assert rc == 0
    assert json.loads(out)["details"]["das"] == 0.0 and "-0.0" not in out
    bounds = smallest_eig_lower_bounds(4, 0, [0] * 4)
    for value in (brigham_bound(4, 0), bounds["brigham"], bounds["das"]):
        assert value == 0.0 and math.copysign(1.0, value) == 1.0


def test_expansion_subcommand(capsys):
    rc, out = run(
        capsys, "expansion", "--kind", "cycle", "--size", "5", "--power", "2",
        "--subset", "0,1,2",
    )
    assert rc == 0
    d = json.loads(out)
    assert d["lower"] - 1e-9 <= d["rate_float"] <= d["upper"] + 1e-9


@pytest.mark.parametrize("n,lam", [(4, 140.25424859373686), (5, 699.2712429686843)])
def test_expansion_reads_lambda_of_a_regular_power_from_the_base(capsys, n, lam):
    # 625 and 3 125 vertices, past 400, but the closed form solves only C5's 5 x 5 matrix
    rc, out = run(capsys, "expansion", "--kind", "cycle", "--size", "5", "--power", str(n), "--sample", "1")
    d = json.loads(out)
    assert (rc, d["lam_is_bound"]) == (0, False)
    assert d["lam"] == pytest.approx(lam, rel=1e-12)


def test_expansion_of_a_regular_power_keeps_the_least_degree_bound(capsys):
    # Tanner's bound alone gave 3.61 on C5^3 at |Y| = 1, where every vertex has 62 neighbours
    rc, out = run(capsys, "expansion", "--kind", "cycle", "--size", "5", "--power", "3", "--subset", "0")
    d = json.loads(out)
    assert (rc, d["rate"], d["lower"]) == (0, "62", 62.0)


def test_expansion_of_an_irregular_graph_keeps_its_lower_bound_under_the_rate(capsys):
    # a triangle and an isolated vertex: Y = {3} has no neighbour, and the
    # least degree 0 gives lower 0 (Tanner's bound at degree 2 gave 1.2857)
    rc, out = run(
        capsys, "expansion", "--kind", "custom", "--size", "4", "--edges", "0-1,1-2,0-2",
        "--subset", "3",
    )
    assert rc == 0
    d = json.loads(out)
    assert (d["rate"], d["lower"]) == ("0", 0.0)


def test_simulate_subcommand(ex1_files, capsys):
    spec_path, pmf_path = ex1_files
    rc, out = run(
        capsys, "simulate", "--spec", spec_path, "--pmf", pmf_path,
        "--n", "1", "--samples", "500", "--seed", "7",
    )
    assert rc == 0
    d = json.loads(out)
    assert d["lossless"] is True
    assert abs(d["rates"][0] - 1.0) < 0.1


def test_simulate_with_a_cell_below_the_float_range(tmp_path, capsys):
    # p(1, 0) = 10^-400 rounds to 0.0 as a float; the report used to die on log2(0.0)
    t = Fraction(1, 10**400)
    spec_path, pmf_path = tmp_path / "f.json", tmp_path / "p.json"
    spec_path.write_text(FunctionSpec.from_table([[0, 1], [1, 0]]).to_json())
    pmf_path.write_text(JointPMF(((Fraction(1, 2) - t, Fraction(1, 2)), (t, Fraction(0)))).to_json())
    rc, out = run(
        capsys, "simulate", "--spec", str(spec_path), "--pmf", str(pmf_path),
        "--n", "1", "--samples", "1000", "--seed", "0",
    )
    assert rc == 0
    assert json.loads(out)["lossless"] is True


def test_reproduce_known_good_case(capsys):
    rc, out = run(capsys, "reproduce", "--case", "example1")
    assert rc == 0
    assert "FAIL" not in out.replace("FAIL: 0", "")


def test_reproduce_known_defect_case(capsys):
    # the published 1.37 per-symbol entropy value is not attainable; the
    # reproduce table reports it honestly as a failing row
    rc, out = run(capsys, "reproduce", "--case", "example2")
    assert rc == 1
    assert "[FAIL]" in out


def test_full_reproduce_fails_only_the_two_published_figures(capsys):
    rc, out = run(capsys, "reproduce")
    rows = [line for line in out.splitlines() if line.startswith("[")]
    assert len(rows) == 28
    failing = [row for row in rows if row.startswith("[FAIL]")]
    assert [row.split(", computed")[0] for row in failing] == [
        "[FAIL] example2: per-symbol entropy of the C5^2 coloring: expected 1.37",
        "[FAIL] example3: entropy window high: expected 1.41",
    ]
    appendix = [row for row in rows if row.split("] ", 1)[1].startswith("appendixB:")]
    assert len(appendix) == 5 and all(row.startswith("[pass]") for row in appendix)
    assert rc == 1 and out.endswith("FAIL: 2 failing check(s)")


def test_reproduce_appendix_b_runs_no_exact_chi_on_a_power(monkeypatch, capsys):
    # the "exact chi(C5^n)" rows come from the base graph: an exact search
    # refused past 5 vertices, wherever it is bound, leaves the 5 rows as they were
    exact, sizes = chromacode.coloring.exact_chromatic_number, []

    def base_only(g, *args, **kwargs):
        sizes.append(g.vertex_count)
        if g.vertex_count > 5:
            raise GuardExceeded("vertex count", g.vertex_count, 5)
        return exact(g, *args, **kwargs)

    monkeypatch.setattr(chromacode.coloring, "exact_chromatic_number", base_only)
    monkeypatch.setattr(chromacode.cli, "exact_chromatic_number", base_only, raising=False)
    rc, out = run(capsys, "reproduce", "--case", "appendixB")
    assert rc == 0
    assert out.splitlines() == [
        "[pass] appendixB: chi(C5^n) n=1..6: expected [3, 8, 20, 50, 125, 313], "
        "computed [3, 8, 20, 50, 125, 313] (tol 0)",
        "[pass] appendixB: exact chi(C5^1): expected 3, computed 3 (tol 0)",
        "[pass] appendixB: exact chi(C5^2): expected 8, computed 8 (tol 0)",
        "[pass] appendixB: C5^3 scheme colors: expected 20, computed 20 (tol 0)",
        "[pass] appendixB: C5^3 scheme coloring valid: expected True, computed True (tol 0)",
        "PASS: 0 failing check(s)",
    ]
    assert sizes == [5, 5]


def test_usage_error_exit_code(capsys):
    rc = main(["color", "--kind", "complete", "--size", "4", "--scheme", "odd-cycle"])
    assert rc == 2


def test_guard_exit_code(capsys):
    rc = main(["power", "--kind", "cycle", "--size", "5", "--power", "9"])
    assert rc == 3
    err = capsys.readouterr().err
    assert json.loads(err)["error"] == "guard"


def test_missing_file_exit_code(tmp_path):
    rc = main(["chargraph", "--spec", str(tmp_path / "nope.json"), "--pmf", "uniform"])
    assert rc == 2


def _unreadable_files(tmp_path):
    """A directory and a file that is not UTF-8, each in place of a JSON file."""
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{}")
    return [str(tmp_path), str(binary)]


@pytest.mark.parametrize("which", ["graph", "spec", "pmf"])
def test_unreadable_input_file_is_usage_error(ex1_files, tmp_path, capsys, which):
    spec_path, pmf_path = ex1_files
    for bad in _unreadable_files(tmp_path):
        argv = {
            "graph": ["graph", "--graph", bad],
            "spec": ["chargraph", "--spec", bad, "--pmf", "uniform"],
            "pmf": ["simulate", "--spec", spec_path, "--pmf", bad, "--samples", "5"],
        }[which]
        err = _usage_error(capsys, argv)
        assert bad in err


@pytest.mark.parametrize("power", [7000, 10**6])
@pytest.mark.parametrize("command", ["power", "color"])
def test_power_far_past_the_guard_is_a_guard_error(capsys, command, power):
    argv = [command, "--kind", "cycle", "--size", "5", "--power", str(power)]
    rc = main(argv + (["--scheme", "greedy"] if command == "color" else []))
    err = json.loads(capsys.readouterr().err)
    assert rc == 3
    # V^n >= 2^n: the exponent is compared with the bit length of the guard
    assert (err["error"], err["size"], err["limit"]) == ("guard", power, 14)
    assert "exponent" in err["what"]


@pytest.mark.parametrize("command", ["power", "simulate"])
def test_one_vertex_power_past_the_exponent_guard_exits_3_at_once(tmp_path, capsys, command):
    # K1 and a 1 x 1 spec have one block at every n, but the work grows
    # with n: the exponent guard refuses n = 10^8 before any of it
    spec = tmp_path / "f.json"
    spec.write_text('{"f": [[0]], "x1": 1, "x2": 1}')
    argv = {
        "power": ["power", "--kind", "complete", "--size", "1", "--power", "100000000"],
        "simulate": ["simulate", "--spec", str(spec), "--pmf", "uniform", "--n", "100000000"],
    }[command]
    start = time.perf_counter()
    rc = main(argv)
    assert time.perf_counter() - start < 1.0
    err = json.loads(capsys.readouterr().err)
    assert rc == 3
    assert (err["error"], err["size"], err["limit"]) == ("guard", 10**8, 14)
    assert "exponent" in err["what"]


def test_odd_cycle_chi_past_the_guard_prints_up_to_a_bounded_power(capsys):
    argv = ["color", "--kind", "cycle", "--size", "5", "--scheme", "odd-cycle", "--power"]
    rc, out = run(capsys, *argv, "7000")
    chi = json.loads(out)["chi"]
    assert rc == 0
    # χ(C5^n) lies between (5/2)^n and 3^n
    assert 5**7000 < chi * 2**7000 and chi < 3**7000
    rc = main(argv + [str(10**6)])
    assert rc == 3
    assert json.loads(capsys.readouterr().err)["size"] == 10**6


def _usage_error(capsys, argv):
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert json.loads(err)["error"] == "usage"
    return err


def test_guard_environment_variable_is_ignored(capsys, monkeypatch):
    # limits are arguments: a CHROMACODE_GUARD in the caller's shell changes
    # no output, exit code or refusal (runs with it set go first)
    def outputs(env):
        if env is None:
            monkeypatch.delenv("CHROMACODE_GUARD", raising=False)
        else:
            monkeypatch.setenv("CHROMACODE_GUARD", env)
        got = []
        for argv in (["reproduce"], ["power", "--kind", "cycle", "--size", "5", "--power", "2"]):
            rc = main(argv)
            got.append((rc, *capsys.readouterr()))
        return got

    with_env = [outputs("abc"), outputs("20")]
    want = outputs(None)
    assert [rc for rc, _, _ in want] == [1, 0]  # reproduce fails its 2 published rows
    assert with_env == [want, want]


@pytest.mark.parametrize("edges", ["0-x", "0-1-2", "0"])
def test_malformed_edges_is_usage_error(capsys, edges):
    err = _usage_error(capsys, ["graph", "--kind", "custom", "--size", "3", "--edges", edges])
    assert "--edges" in err


def test_malformed_graph_json_is_usage_error(tmp_path, capsys):
    p = tmp_path / "g.json"
    p.write_text('{"vertices": 3, ')
    err = _usage_error(capsys, ["graph", "--graph", str(p)])
    assert "malformed graph JSON" in err


def test_graph_json_with_a_one_vertex_edge_is_usage_error(tmp_path, capsys):
    p = tmp_path / "g.json"
    p.write_text('{"vertices": 1, "edges": [[0]]}')
    err = _usage_error(capsys, ["graph", "--graph", str(p)])
    assert "malformed graph JSON" in err


@pytest.mark.parametrize("pmf", ["null", "[1]", '{"p": [["x", "1"]]}', '{"p": [["1/0", "1"]]}'])
def test_malformed_pmf_json_is_usage_error(ex1_files, tmp_path, capsys, pmf):
    spec_path, _ = ex1_files
    p = tmp_path / "bad.json"
    p.write_text(pmf)
    _usage_error(capsys, ["simulate", "--spec", spec_path, "--pmf", str(p), "--samples", "5"])


def test_ragged_pmf_rows_are_usage_error(tmp_path, capsys):
    spec = tmp_path / "f.json"
    spec.write_text('{"f": [[0, 1], [1, 0]]}')
    pmf = tmp_path / "p.json"
    pmf.write_text('{"p": [["1", "0"], []]}')
    err = _usage_error(capsys, ["simulate", "--spec", str(spec), "--pmf", str(pmf)])
    assert "rectangular" in err


def test_function_table_with_empty_rows_is_usage_error(tmp_path, capsys):
    spec = tmp_path / "f.json"
    spec.write_text('{"f": [[], []]}')
    err = _usage_error(capsys, ["chargraph", "--spec", str(spec), "--pmf", "uniform"])
    assert "rectangular and nonempty" in err


def test_power_below_one_is_usage_error(capsys):
    argv = ["spectral", "--kind", "cycle", "--size", "5", "--power", "0", "--op", "gct"]
    err = _usage_error(capsys, argv + ["--mode", "block"])
    assert "--power" in err


def test_infeasible_entropy_window_is_a_check_failure(capsys):
    # C4 has alpha = 2, and 1 + 2 * alpha_1 = 4 has no integer solution
    rc = main(["entropy", "--kind", "cycle", "--size", "4", "--bound", "general"])
    err = capsys.readouterr().err
    assert rc == 1
    assert json.loads(err)["error"] == "check"


def test_infeasible_odd_cycle_window_is_a_check_failure(capsys):
    rc = main(["entropy", "--kind", "cycle", "--size", "7", "--power", "2", "--bound", "odd-cycle"])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (1, "")
    assert captured.err == (
        '{"error": "check", "detail": "no entropy window: no feasible chain alpha profile"}\n'
    )


def test_general_entropy_of_k1_power_is_zero(capsys):
    rc, out = run(
        capsys, "entropy", "--kind", "complete", "--size", "1", "--power", "2", "--bound", "general"
    )
    assert rc == 0
    d = json.loads(out)
    assert (d["lo"], d["hi"]) == (0.0, 0.0)
    assert d["alphas"]["hi_profile"] == [1, 0, 0]


def test_color_odd_cycle_power_c7_is_tight(capsys):
    rc, out = run(
        capsys, "color", "--kind", "cycle", "--size", "7", "--power", "2",
        "--scheme", "odd-cycle",
    )
    assert rc == 0
    d = json.loads(out)
    assert d["chi"] == d["palette"] == 7


def test_color_fractional_c11_three_fold(capsys):
    rc, out = run(
        capsys, "color", "--kind", "cycle", "--size", "11", "--scheme", "fractional",
        "--fold", "3",
    )
    assert rc == 0
    assert json.loads(out)["chi_b"] == 7


@pytest.mark.parametrize(
    "flags", [["--subset", "a"], ["--subset", "0,0"], ["--sample", "9"], ["--sample", "-1"]]
)
def test_expansion_bad_subset_is_a_usage_error(capsys, flags):
    rc = main(["expansion", "--kind", "cycle", "--size", "5", *flags])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "usage"


@pytest.mark.parametrize(
    "flags,detail",
    [(["--sample", "0"], "--sample must lie in 1..5"), (["--subset", ""], "malformed --subset ''")],
    ids=["sample-0", "empty-subset"],
)
def test_expansion_flag_given_as_zero_or_empty_gets_its_own_error(capsys, flags, detail):
    # a given flag is tested for presence, not truth: no "need --subset or --sample"
    err = _usage_error(capsys, ["expansion", "--kind", "cycle", "--size", "5", *flags])
    assert detail in json.loads(err)["detail"]


@pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
def test_reproduce_tolerance_must_be_finite_and_not_negative(capsys, tol):
    # inf would pass every row, the two unreachable published figures among
    # them; nan and -1 would fail rows whose value equals the expected one
    rc = main(["reproduce", "--tol", tol])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""  # refused before any row is computed
    assert json.loads(captured.err) == {
        "error": "usage",
        "detail": f"--tol must be a finite number >= 0, got {float(tol)}",
    }


def test_reproduce_tolerance_zero_is_valid(capsys):
    rc, out = run(capsys, "reproduce", "--case", "example1", "--tol", "0")
    assert rc == 0 and out.endswith("PASS: 0 failing check(s)")


@pytest.mark.parametrize(
    "argv",
    [
        ["entropy", "--kind", "complete", "--size", "5", "--power", "2", "--bound", "odd-cycle"],
        ["entropy", "--kind", "path", "--size", "5", "--bound", "fractional"],
        ["spectral", "--kind", "complete", "--size", "5", "--op", "bounds", "--variant", "cycle-power"],
    ],
)
def test_cycle_closed_forms_refuse_other_graphs(capsys, argv):
    # each closed form describes the canonical cycle only; K5 and P5 are not cycles
    err = _usage_error(capsys, argv)
    assert "canonical" in err


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ["entropy", "--kind", "cycle", "--size", "5", "--power", "2", "--bound", "odd-cycle"],
            {"lo": 1.4419280948873623, "hi": 1.4419280948873623, "alpha_n_window": [5, 6]},
        ),
        (
            ["entropy", "--kind", "cycle", "--size", "7", "--bound", "fractional"],
            {"lo": 1.222392421336448, "bound": "fractional"},
        ),
        (
            ["spectral", "--kind", "cycle", "--size", "6", "--power", "2", "--op", "bounds",
             "--variant", "cycle-power"],
            {"lower": 1.7671952740916672, "upper": 15, "variant": "cycle-power"},
        ),
    ],
)
def test_cycle_closed_forms_on_cycles(capsys, argv, expected):
    rc, out = run(capsys, *argv)
    assert rc == 0
    d = json.loads(out)
    assert {k: d[k] for k in expected} == pytest.approx(expected, rel=1e-12)


def test_default_spectral_bound_is_on_the_power(capsys):
    # hoffman-direct bounds C5^2 (chi = 8), not the base C5 (chi = 3)
    rc, out = run(capsys, "spectral", "--kind", "cycle", "--size", "5", "--power", "2", "--op", "bounds")
    assert rc == 0
    d = json.loads(out)
    assert d["variant"] == "hoffman-direct"
    assert d["lower"] == pytest.approx(2.970388365322377, rel=1e-9)
    assert d["upper"] == 13


@pytest.mark.parametrize("kind,size", [("complete", 1), ("edgeless", 3)])
@pytest.mark.parametrize("power", [1, 2])
def test_expansion_of_a_graph_without_edges(capsys, kind, size, power):
    # no vertex has a neighbor: the rate is 0, and so is the lower bound
    rc, out = run(
        capsys, "expansion", "--kind", kind, "--size", str(size), "--power", str(power),
        "--subset", "0",
    )
    d = json.loads(out)
    assert rc == 0
    assert (d["rate"], d["lower"], d["lam"]) == ("0", 0.0, 0.0)
    assert d["upper"] == size**power - 1


@pytest.mark.parametrize(
    "argv,what",
    [
        (["entropy", "--bound", "odd-cycle", "--power", "7000"], "color classes"),
        (["entropy", "--bound", "odd-cycle", "--power", "13"], "search steps"),
        (["power", "--size", "100", "--power", "3000", "--guard", str(10**1000)], "vertex count"),
    ],
    ids=["window-n7000", "window-n13", "power-huge-guard"],
)
def test_n_dependent_paths_end_in_a_guard_error(capsys, argv, what):
    kind = ["--kind", "cycle"] + ([] if "--size" in argv else ["--size", "5"])
    start = time.perf_counter()
    rc = main(argv[:1] + kind + argv[1:])
    elapsed = time.perf_counter() - start
    err = json.loads(capsys.readouterr().err)
    assert rc == 3
    assert err["error"] == "guard" and what in err["what"]
    assert elapsed < 5


# K2 plus an isolated vertex: H_χ = 0.918..., and H_χ of its square over 2 is lower
K2_K1 = ["--kind", "custom", "--size", "3", "--edges", "0-1"]


def test_entropy_brute_is_per_symbol_on_the_power(capsys):
    rc, out = run(capsys, "entropy", *K2_K1, "--power", "2", "--bound", "brute")
    assert rc == 0
    assert json.loads(out) == {"bound": "brute", "hi": 0.8763576394898522, "lo": 0.8763576394898522}


def test_entropy_brute_at_power_one_prints_the_base_entropy(capsys):
    expected = '{"bound": "brute", "hi": 0.9182958340544896, "lo": 0.9182958340544896}'
    assert run(capsys, "entropy", *K2_K1, "--power", "1", "--bound", "brute") == (0, expected)
    assert run(capsys, "entropy", *K2_K1, "--bound", "brute") == (0, expected)


def test_entropy_brute_guards_the_power(capsys):
    rc = main(["entropy", "--kind", "cycle", "--size", "5", "--power", "2", "--bound", "brute"])
    captured = capsys.readouterr()
    assert rc == 3 and captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1
    assert json.loads(err[0]) == {"error": "guard", "what": "vertex count", "size": 25, "limit": 12}


def test_entropy_brute_guards_its_search_nodes(capsys):
    # 12 isolated vertices pass the vertex guard, but their partitions are
    # Bell(12) = 4 213 597: the node count refuses the search early
    start = time.perf_counter()
    rc = main(["entropy", "--kind", "edgeless", "--size", "12", "--bound", "brute"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert rc == 3 and captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1
    assert json.loads(err[0]) == {
        "error": "guard",
        "what": "brute-force entropy search nodes",
        "size": 250_001,
        "limit": 250_000,
    }
    assert elapsed < 5


def test_spectral_split_of_c5_squared(capsys):
    rc, out = run(capsys, "spectral", "--op", "split", "--kind", "cycle", "--size", "5", "--power", "2")
    assert rc == 0
    d = json.loads(out)
    assert sorted(d) == ["deviations", "lambda_fc", "lambda_full", "lambda_gr"]
    assert all(len(v) == 25 for v in d.values())
    assert sorted({round(v, 5) for v in d["lambda_full"]}) == [-6.09017, -1.61803, 0.61803, 5.09017, 12.0]
    assert all(dev >= 0 for dev in d["deviations"])


def test_spectral_scalar_gct_of_a_f1(capsys):
    edges = "0-1,0-4,1-2,1-3,2-3,3-4"
    rc, out = run(
        capsys, "spectral", "--op", "gct", "--mode", "scalar",
        "--kind", "custom", "--size", "5", "--edges", edges,
    )
    assert rc == 0
    assert json.loads(out)["intervals"] == [[-2, 2], [-3, 3], [-2, 2], [-3, 3], [-2, 2]]


@pytest.mark.parametrize(
    "argv,detail",
    [
        (["graph"], "need --graph FILE or --kind/--size"),
        (["color", "--kind", "cycle", "--size", "6", "--scheme", "fractional"], "odd cycles"),
        (["expansion", "--kind", "cycle", "--size", "5"], "need --subset or --sample"),
        (["reproduce", "--case", "nope"], "unknown case 'nope'"),
        (
            ["color", "--kind", "cycle", "--size", "5", "--scheme", "fractional", "--power", "2"],
            "--power must be 1",
        ),
        (
            ["spectral", "--op", "split", "--kind", "cycle", "--size", "5", "--power", "1"],
            "split needs n >= 2",
        ),
        (
            ["spectral", "--op", "bounds", "--variant", "gct-split", "--kind", "cycle", "--size", "4"],
            "gct-split bound needs n >= 2",
        ),
    ],
    ids=[
        "graph-without-graph", "fractional-on-c6", "expansion-without-subset", "unknown-case",
        "fractional-on-a-power", "split-without-a-power", "gct-split-without-a-power",
    ],
)
def test_usage_errors_print_one_json_object(capsys, argv, detail):
    err = _usage_error(capsys, argv).strip().splitlines()
    assert len(err) == 1
    assert detail in json.loads(err[0])["detail"]


# per command: a valid argv, one with a value outside an option's choices
# (None: the command has no option with choices) and one with a malformed number
PARSER_CASES = {
    "graph": (
        ["graph", "--kind", "cycle", "--size", "5"],
        ["graph", "--kind", "hex"],
        ["graph", "--size", "1.5"],
    ),
    "chargraph": (
        ["chargraph", "--spec", "f.json", "--pmf", "uniform", "--source", "2"],
        ["chargraph", "--spec", "f.json", "--pmf", "uniform", "--source", "3"],
        ["chargraph", "--spec", "f.json", "--pmf", "uniform", "--source", "x"],
    ),
    "power": (
        ["power", "--kind", "path", "--size", "3", "--power", "2"],
        ["power", "--kind", "x"],
        ["power", "--power", "x"],
    ),
    "color": (
        ["color", "--kind", "cycle", "--size", "5", "--scheme", "greedy"],
        ["color", "--scheme", "x"],
        ["color", "--fold", "2.5"],
    ),
    "entropy": (
        ["entropy", "--bound", "general", "--guard", "9"],
        ["entropy", "--bound", "x"],
        ["entropy", "--bound", "brute", "--power", "x"],
    ),
    "spectral": (
        ["spectral", "--op", "gct", "--mode", "block", "--variant", "degree"],
        ["spectral", "--op", "eig", "--variant", "x"],
        ["spectral", "--op", "eig", "--size", "x"],
    ),
    "expansion": (
        ["expansion", "--subset", "0,1", "--seed", "3"],
        ["expansion", "--kind", "x"],
        ["expansion", "--sample", "x"],
    ),
    "simulate": (
        ["simulate", "--spec", "f.json", "--pmf", "p.json", "--n", "2"],
        None,
        ["simulate", "--spec", "f.json", "--pmf", "p.json", "--samples", "1e4"],
    ),
    "reproduce": (
        ["reproduce", "--case", "example1", "--tol", "0.1"],
        None,
        ["reproduce", "--tol", "x"],
    ),
}


def _parse_error(parser, argv):
    with pytest.raises(UsageError) as exc:
        parser.parse_args(argv)
    return str(exc.value)


def test_parser_cases_cover_every_command():
    assert list(PARSER_CASES) == list(COMMANDS)


@pytest.mark.parametrize("name", list(PARSER_CASES))
def test_one_command_parser_parses_like_the_full_parser(capsys, name):
    valid, bad_choice, bad_number = PARSER_CASES[name]
    full, alone = build_parser(), build_parser(only=name)
    helps = []
    for parser in (full, alone):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([name, "-h"])
        assert exc.value.code == 0
        helps.append(capsys.readouterr().out)
    assert helps[0] == helps[1]
    assert helps[0].startswith(f"usage: chromacode {name} ")
    assert full.parse_args(valid) == alone.parse_args(valid)
    faults = {
        "unknown flag": (valid + ["--bogus"], "unrecognized arguments: --bogus"),
        "malformed number": (bad_number, "invalid "),
        "stray positional": (valid + ["stray"], "unrecognized arguments: stray"),
    }
    if bad_choice is not None:
        faults["bad choice"] = (bad_choice, "invalid choice: ")
    for fault, (argv, detail) in faults.items():
        error = _parse_error(alone, argv)
        assert error == _parse_error(full, argv), fault
        assert detail in error, fault


@pytest.fixture()
def registered(monkeypatch):
    """The names of the subparsers registered while the test runs."""
    names = []
    add_parser = argparse._SubParsersAction.add_parser

    def spy(self, name, **kwargs):
        names.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
    return names


def test_a_named_command_registers_its_parser_alone(capsys, registered):
    assert main(["reproduce", "--case", "example1"]) == 0
    assert registered == ["reproduce"]


def test_the_console_script_path_registers_the_named_command_alone(capsys, monkeypatch, registered):
    monkeypatch.setattr(sys, "argv", ["chromacode", "reproduce", "--case", "example1"])
    assert main() == 0
    assert capsys.readouterr().out.endswith("PASS: 0 failing check(s)\n")
    assert registered == ["reproduce"]


def test_help_registers_every_command(capsys, registered):
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    assert registered == list(COMMANDS)
    out = capsys.readouterr().out
    assert all(name in out for name in COMMANDS)


@pytest.mark.parametrize(
    "argv,detail",
    [([], "the following arguments are required: command"), (["nosuch"], "invalid choice: 'nosuch'")],
    ids=["no-command", "unknown-command"],
)
def test_no_or_an_unknown_command_registers_every_command(capsys, registered, argv, detail):
    err = _usage_error(capsys, argv).strip().splitlines()
    assert len(err) == 1
    assert detail in json.loads(err[0])["detail"]
    assert registered == list(COMMANDS)


# one small argv per command; F and P stand for Example 1's function and PMF files
HANDLER_CASES = {
    "graph": ["--kind", "cycle", "--size", "4"],
    "chargraph": ["--spec", "F", "--pmf", "P"],
    "power": ["--kind", "cycle", "--size", "3", "--power", "2"],
    "color": ["--kind", "cycle", "--size", "5", "--power", "2"],
    "entropy": ["--kind", "cycle", "--size", "5", "--power", "2", "--bound", "odd-cycle"],
    "spectral": ["--kind", "cycle", "--size", "5", "--power", "2", "--op", "split"],
    "expansion": ["--kind", "cycle", "--size", "5", "--power", "2", "--subset", "0,1,7"],
    "simulate": ["--spec", "F", "--pmf", "P", "--n", "2", "--samples", "200", "--seed", "3"],
    "reproduce": ["--case", "example4"],
}


@pytest.mark.parametrize("name", list(COMMANDS))
def test_each_handler_returns_its_result_and_main_alone_prints_it(ex1_files, capsys, name):
    files = dict(zip("FP", ex1_files))
    argv = [name] + [files.get(a, a) for a in HANDLER_CASES[name]]
    args = build_parser(name).parse_args(argv)
    result = args.func(args)
    printed = capsys.readouterr().out
    if name == "reproduce":
        # its table is its output, and what it returns is the exit code
        assert (type(result), result) == (int, 0)
        assert printed.endswith("PASS: 0 failing check(s)\n")
        return
    assert printed == ""
    assert type(result) is dict
    line = json.dumps(result, sort_keys=True)  # no str() fallback needed
    assert (main(argv), capsys.readouterr().out) == (0, line + "\n")
