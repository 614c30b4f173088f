"""Command-line interface.

Subcommands: graph, chargraph, power, color, entropy, spectral, expansion,
simulate, reproduce.  JSON output with sorted keys.  Exit codes:
0 pass, 1 check failure, 2 usage error, 3 guard violation.

`main` builds the parser of the one subcommand its argv names, not all nine.
"""

import argparse
import json
import sys

from . import __version__
from .chargraph import FunctionSpec, JointPMF, build_characteristic_graph, example1_spec
from .codec import build_codec, roundtrip_exhaustive, simulate
from .coloring import (
    _cycle_scheme,
    check_strategy,
    fractional_chromatic_cycle,
    greedy_coloring,
    is_valid_coloring,
    odd_cycle_power_coloring,
    power_chromatic_number,
    power_coloring,
)
from .entropy import (
    AlphaProfile,
    chromatic_entropy_bruteforce,
    fractional_entropy_lower_bound,
    general_entropy_upper_bound,
    huffman_code,
    odd_cycle_entropy_upper_bound,
)
from .errors import ChromacodeError, GuardExceeded, UsageError, check_guard, load_json
from .expansion import expansion_bounds, expansion_rate
from .graphs import Graph, make_graph
from .orpower import POWER_GUARD_DEFAULT, check_power_guard, or_power
from .spectral import (
    BOUND_VARIANTS,
    chromatic_bounds_spectral,
    cycle_power_largest_eig,
    gershgorin,
    graph_spectrum,
    lambda1_window,
    smallest_eig_lower_bounds,
    split_decomposition,
)


def _emit(obj):
    print(json.dumps(obj, sort_keys=True, default=str))


def _parse_edges(text):
    """'0-1,1-2' -> [(0, 1), (1, 2)]."""
    try:
        return [(int(u), int(v)) for u, v in (e.split("-") for e in text.split(","))]
    except ValueError:
        raise UsageError(f"malformed --edges {text!r}: expected u-v pairs like 0-1,1-2") from None


def _read(path):
    """Text of a UTF-8 input file; any failure to read it is a usage error."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path!r}: {exc}") from exc


def _load_graph(args):
    """The graph of --graph FILE or --kind/--size/--edges.  Its vertex count
    is checked against --guard, with the power guard's default, before any
    bitset row (about V/8 bytes each) is built."""
    if getattr(args, "graph", None):
        d = load_json(_read(args.graph), "graph")
        size = d.get("vertices") if isinstance(d, dict) else None
    elif getattr(args, "kind", None):
        size = args.size
    else:
        raise UsageError("need --graph FILE or --kind/--size")
    if isinstance(size, int):
        check_guard("graph vertex count", size, args.guard, POWER_GUARD_DEFAULT)
    if getattr(args, "graph", None):
        return Graph.from_dict(d)
    edges = _parse_edges(args.edges) if getattr(args, "edges", None) else None
    return make_graph(args.kind, size=size, edges=edges)


def _load_spec_pmf(args):
    spec = FunctionSpec.from_json(_read(args.spec))
    if args.pmf == "uniform":
        pmf = JointPMF.uniform(spec.n1, spec.n2)
    else:
        pmf = JointPMF.from_json(_read(args.pmf), spec.n1, spec.n2)
    return spec, pmf


# -- subcommand handlers -------------------------------------------------------


def cmd_graph(args):
    _emit(_load_graph(args).to_dict())
    return 0


def cmd_chargraph(args):
    spec, pmf = _load_spec_pmf(args)
    _emit(build_characteristic_graph(spec, pmf, args.source).to_dict())
    return 0


def cmd_power(args):
    g = _load_graph(args)
    _emit(or_power(g, args.power, guard=args.guard).to_dict())
    return 0


def cmd_color(args):
    g = _load_graph(args)
    n = args.power
    if args.scheme == "fractional":
        if n > 1:
            raise UsageError("fractional scheme takes the base graph: --power must be 1")
        if _cycle_scheme(g) != "odd-cycle":
            raise UsageError("fractional scheme implemented for odd cycles C_V with V >= 5")
        res = fractional_chromatic_cycle(g.vertex_count // 2, args.fold, guard=args.guard)
        _emit({"chi_b": res["chi_b"], "chi_b_lower": res["chi_b_lower"],
               "chi_f": str(res["chi_f"]), "b": args.fold})
        return 0
    check_strategy(args.scheme, g)
    try:
        check_power_guard(g.vertex_count, n, args.guard)
    except GuardExceeded:
        # all but `greedy` color with χ(G^n), read off the base (`_least_fold`), while χ(G^n) <= c^n, c the
        # first-fit palette, prints within Python's 4 300 digits; n > 14 300 fails first (2^14300 > 10^4300)
        most = max(2, greedy_coloring(g).palette_size)
        if args.scheme == "greedy" or n > 14_300 or most**n >= 10**4300:
            raise
        _emit({"chi": power_chromatic_number(g, n)})
        return 0
    c = power_coloring(g, n, args.scheme, guard=args.guard)
    _emit({"chi": c.palette_size, **c.to_dict()})
    return 0


def cmd_entropy(args):
    g = _load_graph(args)
    V = g.vertex_count
    if args.bound == "brute":
        # per symbol, like the windows' lo/hi: H_χ(G^n) / n
        h = chromatic_entropy_bruteforce(or_power(g, args.power, guard=args.guard), guard=args.guard) / args.power
        _emit({"lo": h, "hi": h, "bound": "brute"})
        return 0
    if args.bound in ("odd-cycle", "fractional") and _cycle_scheme(g) != "odd-cycle":
        raise UsageError(f"{args.bound} bound needs the canonical odd cycle C_V with V >= 5")
    if args.bound == "fractional":
        _emit({"lo": fractional_entropy_lower_bound(V), "bound": "fractional"})
        return 0
    if args.bound == "odd-cycle":
        res = odd_cycle_entropy_upper_bound(V // 2, args.power, guard=args.guard)
    else:
        res = general_entropy_upper_bound(g, args.power, guard=args.guard)
    pmf = {str(c): str(p) for c, p in res["hi_profile"].pmf().items()}
    _emit(
        {
            "lo": res["lo"],
            "hi": res["hi"],
            "alpha_n_window": list(res["alpha_n_window"]),
            "alphas": {
                "lo_profile": list(res["lo_profile"].alphas),
                "hi_profile": list(res["hi_profile"].alphas),
            },
            "pmf": pmf,
            "bound": args.bound,
        }
    )
    return 0


def cmd_spectral(args):
    g = _load_graph(args)
    if args.op == "bounds":
        report = chromatic_bounds_spectral(args.variant, g=g, n=args.power, guard=args.guard)
        _emit({"variant": report.variant, "lower": report.lower, "upper": report.upper, "details": report.details})
        return 0
    if args.op == "eig":
        spec = graph_spectrum(g, args.power, guard=args.guard)
        _emit({"eigenvalues": list(spec.values), "distinct": list(spec.distinct())})
        return 0
    if args.op == "gct":
        # block mode takes one block per vertex of the base; scalar mode ignores block_size
        gn = or_power(g, args.power, guard=args.guard)
        res = gershgorin(gn.adjacency_matrix(), args.mode, block_size=g.vertex_count ** (args.power - 1))
        out = {"intervals": [list(i) for i in res.intervals], "envelope": list(res.envelope)}
        if args.mode == "block":
            out["scalar_envelope"] = list(res.scalar_envelope)
        _emit(out)
        return 0
    rep = split_decomposition(g, args.power, guard=args.guard)
    _emit(
        {
            "lambda_gr": list(rep.lam_gr),
            "lambda_fc": list(rep.lam_fc),
            "lambda_full": list(rep.lam_full),
            "deviations": list(rep.deviations),
        }
    )
    return 0


def cmd_expansion(args):
    import random as _random

    g = _load_graph(args)
    gn = or_power(g, args.power, guard=args.guard)
    if args.subset is not None:
        try:
            subset = [int(v) for v in args.subset.split(",")]
        except ValueError:
            raise UsageError(f"malformed --subset {args.subset!r}: expected ids like 0,1,2") from None
        if len(set(subset)) != len(subset):
            raise UsageError(f"--subset {args.subset!r} repeats a vertex")
    elif args.sample is not None:
        if not 0 < args.sample <= gn.vertex_count:
            raise UsageError(f"--sample must lie in 1..{gn.vertex_count}, the vertex count")
        rng = _random.Random(args.seed)
        subset = sorted(rng.sample(range(gn.vertex_count), args.sample))
    else:
        raise UsageError("need --subset or --sample")
    rate = expansion_rate(gn, subset)
    degrees = g.degrees()  # Gⁿ is regular exactly when G is
    regular = min(degrees) == max(degrees)
    lam = None
    if (g.vertex_count if regular else gn.vertex_count) <= 400:  # the one matrix graph_spectrum solves
        spec = graph_spectrum(gn, guard=args.guard)
        # Λ = max(λ_2, |λ_min|); a one-vertex graph has no λ_2
        lam = max(spec.values[1:2] + (abs(spec.values[-1]),))
    family = "regular" if (regular and lam is not None) else "general"
    bounds = expansion_bounds(
        family,
        g.vertex_count,
        args.power,
        len(subset),
        d=min(degrees),
        lam=lam,
    )
    _emit(
        {
            "subset": subset,
            "rate": str(rate),
            "rate_float": float(rate),
            "lower": bounds.lower,
            "upper": bounds.upper,
            "lam": bounds.lam,
            "lam_is_bound": bounds.lam_is_bound,
        }
    )
    return 0


def cmd_simulate(args):
    spec, pmf = _load_spec_pmf(args)
    report = simulate(
        spec, pmf, args.n, args.samples, args.seed,
        coloring_strategy=args.strategy, guard=args.guard,
    )
    print(report.to_json())
    return 0


# -- reproduce ----------------------------------------------------------------


def _rows_example1():
    spec, pmf = example1_spec()
    g1 = build_characteristic_graph(spec, pmf, 1)
    g2 = build_characteristic_graph(spec, pmf, 2)
    rows = [
        ("example1", "G_X1 is the 4-cycle", make_graph("cycle", 4).edges(), g1.edges(), 0),
        ("example1", "G_X2 is K2", [(0, 1)], g2.edges(), 0),
    ]
    for n in (1, 2):
        plan = build_codec(spec, pmf, n)
        count = roundtrip_exhaustive(plan)
        rows.append(("example1", f"n={n} round-trips all {count} blocks", count, count, 0))
    return rows


def _rows_example2(tol):
    c5 = make_graph("cycle", 5)
    h1 = chromatic_entropy_bruteforce(c5)
    rows = [("example2", "chromatic entropy of C5", 1.52, h1, tol)]
    res = odd_cycle_entropy_upper_bound(2, 2)
    rows.append(("example2", "per-symbol entropy of the C5^2 coloring", 1.37, res["hi"], tol))
    return rows


def _rows_example3(tol):
    res = odd_cycle_entropy_upper_bound(2, 3)
    return [
        ("example3", "alpha_3 window low", 12, res["alpha_n_window"][0], 0),
        ("example3", "alpha_3 window high", 15, res["alpha_n_window"][1], 0),
        ("example3", "entropy window low", 1.37, res["lo"], tol),
        ("example3", "entropy window high", 1.41, res["hi"], tol),
    ]


def _rows_example4():
    profile = AlphaProfile((1, 2, 4, 13), (1, 2, 4, 8), 125)
    pmf = profile.pmf()
    code, avg = huffman_code(pmf)
    h = profile.entropy()
    ok = h <= float(avg) < h + 1
    rows = [("example4", "C5^3 Huffman avg length in [H, H+1)", True, ok, 0)]
    _, avg5 = huffman_code({0: "1/5", 1: "2/5", 2: "2/5"})
    rows.append(("example4", "optimal C5 Huffman avg (paper's code: 1.8)", 1.6, float(avg5), 1e-9))
    return rows


def _rows_appendix_b():
    c5 = make_graph("cycle", 5)
    seq = [power_chromatic_number(c5, m) for m in range(1, 7)]
    rows = [("appendixB", "chi(C5^n) n=1..6", [3, 8, 20, 50, 125, 313], seq, 0)]
    pentagram = Graph.from_edges(5, [(0, 2), (2, 4), (4, 1), (1, 3), (3, 0)])  # C5 relabeled: searched, no windows
    for n in (1, 2):
        chi = power_chromatic_number(pentagram, n)
        rows.append(("appendixB", f"exact chi(C5^{n})", seq[n - 1], chi, 0))
    chi20, c = odd_cycle_power_coloring(5, 3)
    rows.append(("appendixB", "C5^3 scheme colors", 20, chi20, 0))
    rows.append(("appendixB", "C5^3 scheme coloring valid", True, is_valid_coloring(or_power(c5, 3), c), 0))
    return rows


def _rows_spectra(tol):
    rows = []
    spec5 = graph_spectrum(make_graph("cycle", 5))
    rows.append(
        ("spectra", "distinct eigenvalues of C5", [-1.618, 0.618, 2.0],
         [round(v, 3) for v in sorted(spec5.distinct())], tol)
    )
    g2 = or_power(make_graph("cycle", 5), 2)
    spec25 = graph_spectrum(g2)
    rows.append(
        ("spectra", "distinct eigenvalues of C5^2",
         [-6.09, -1.61803, 0.61803, 5.09016, 12.0],
         [round(v, 5) for v in sorted(spec25.distinct())], 1e-3)
    )
    rows.append(("spectra", "lambda_1(C5^2) closed form", 12, cycle_power_largest_eig(5, 2), 0))
    b = smallest_eig_lower_bounds(25, 150, [12] * 25)
    rows.append(("spectra", "brigham bound on C5^2", -60.0, b["brigham"], tol))
    rows.append(("spectra", "hong bound on C5^2", -12.748, b["hong"], 1e-3))
    return rows


def _rows_example5(tol):
    af1 = Graph.from_edges(5, [(0, 1), (0, 4), (1, 2), (1, 3), (2, 3), (3, 4)])
    rows = []
    spec = graph_spectrum(af1)
    rows.append(
        ("example5", "eigenvalues of A_f1",
         [-2.0, -1.1701, 0.0, 0.6889, 2.4812],
         [round(v, 4) for v in sorted(spec.values)], 1e-3)
    )
    scalar = gershgorin(af1.adjacency_matrix(), "scalar")
    rows.append(
        ("example5", "scalar GCT intervals",
         sorted([(-2.0, 2.0)] * 3 + [(-3.0, 3.0)] * 2), sorted(scalar.intervals), 0)
    )
    w = lambda1_window(af1, 2)
    rows.append(("example5", "block GCT envelope", (-18.0, 18.0), w["gct"]["scalar_envelope"], tol))
    rows.append(("example5", "lambda_1 window", (12.0, 18.0), tuple(map(float, w["window"])), tol))
    rows.append(("example5", "refined lambda_1 window", (12.0, 15.0), tuple(map(float, w["refined"])), tol))
    inside = w["refined"][0] - 1e-9 <= w["lambda_1"] <= w["refined"][1] + 1e-9
    rows.append(("example5", "solver lambda_1 inside refined window", True, inside, 0))
    return rows


CASES = {
    "example1": lambda tol: _rows_example1(),
    "example2": _rows_example2,
    "example3": _rows_example3,
    "example4": lambda tol: _rows_example4(),
    "appendixB": lambda tol: _rows_appendix_b(),
    "spectra": _rows_spectra,
    "example5": _rows_example5,
}


def _row_passes(expected, computed, tol):
    if isinstance(expected, (int, float)) and isinstance(computed, (int, float)):
        return abs(float(expected) - float(computed)) <= (tol or 0) + 1e-12
    if isinstance(expected, (list, tuple)) and isinstance(computed, (list, tuple)):
        return len(expected) == len(computed) and all(
            _row_passes(e, c, tol) for e, c in zip(expected, computed)
        )
    return expected == computed


def cmd_reproduce(args):
    names = list(CASES) if args.case == "all" else [args.case]
    if any(n not in CASES for n in names):
        raise UsageError(f"unknown case {args.case!r}; choose from {sorted(CASES)} or all")
    if not 0 <= args.tol < float("inf"):
        raise UsageError(f"--tol must be a finite number >= 0, got {args.tol}")
    failures = 0
    for name in names:
        for case, label, expected, computed, tol in CASES[name](args.tol):
            ok = _row_passes(expected, computed, tol)
            failures += not ok
            status = "pass" if ok else "FAIL"
            print(f"[{status}] {case}: {label}: expected {expected}, computed {computed} (tol {tol})")
    print(f"{'PASS' if failures == 0 else 'FAIL'}: {failures} failing check(s)")
    return 0 if failures == 0 else 1


# -- argument parsing ----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Raises its usage errors (and its subparsers') as UsageError, so that
    they exit 2 with the JSON error object like every other failure."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _graph_options(sp, power=True):
    sp.add_argument("--graph", help="graph JSON file")
    sp.add_argument("--kind", choices=["cycle", "complete", "path", "edgeless", "custom"])
    sp.add_argument("--size", type=int)
    sp.add_argument("--edges", help='custom edges as "0-1,1-2"')
    sp.add_argument("--guard", type=int, help="instance size guard override")
    if power:
        sp.add_argument("--power", type=int, default=1)


def _chargraph_options(sp):
    sp.add_argument("--spec", required=True)
    sp.add_argument("--pmf", required=True, help='PMF JSON file or "uniform"')
    sp.add_argument("--source", type=int, choices=[1, 2], default=1)


def _color_options(sp):
    _graph_options(sp)
    sp.add_argument(
        "--scheme",
        choices=["exact", "greedy", "even-cycle", "odd-cycle", "fractional"],
        default="exact",
    )
    sp.add_argument("--fold", type=int, default=1, help="b for the fractional scheme")


def _entropy_options(sp):
    _graph_options(sp)
    sp.add_argument("--bound", choices=["brute", "odd-cycle", "general", "fractional"], required=True)


def _spectral_options(sp):
    _graph_options(sp)
    sp.add_argument("--op", choices=["eig", "gct", "split", "bounds"], required=True)
    sp.add_argument("--mode", choices=["scalar", "block"], default="scalar")
    sp.add_argument("--variant", choices=list(BOUND_VARIANTS), default="hoffman-direct")


def _expansion_options(sp):
    _graph_options(sp)
    sp.add_argument("--subset", help='comma-separated vertex ids, e.g. "0,1,2"')
    sp.add_argument("--sample", type=int, help="sample a subset of this size")
    sp.add_argument("--seed", type=int, default=0)


def _simulate_options(sp):
    sp.add_argument("--spec", required=True)
    sp.add_argument("--pmf", required=True)
    sp.add_argument("--n", type=int, default=1)
    sp.add_argument("--samples", type=int, default=10000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--strategy", default="auto")
    sp.add_argument("--guard", type=int)


def _reproduce_options(sp):
    sp.add_argument("--case", default="all")
    sp.add_argument("--tol", type=float, default=5e-3)


# name -> (help, handler, the function that adds its options), in --help order
COMMANDS = {
    "graph": ("construct and emit a graph", cmd_graph, lambda sp: _graph_options(sp, power=False)),
    "chargraph": ("build a characteristic graph", cmd_chargraph, _chargraph_options),
    "power": ("n-fold OR power", cmd_power, _graph_options),
    "color": ("color a graph or its power", cmd_color, _color_options),
    "entropy": ("entropy bounds", cmd_entropy, _entropy_options),
    "spectral": ("spectra, GCT, split, bounds", cmd_spectral, _spectral_options),
    "expansion": ("expansion rates and bounds", cmd_expansion, _expansion_options),
    "simulate": ("end-to-end codec simulation", cmd_simulate, _simulate_options),
    "reproduce": ("run the golden example suite", cmd_reproduce, _reproduce_options),
}


def build_parser(only=None):
    """The parser of every command, or of the command `only` alone."""
    # --help shows the module docstring but for its last paragraph, which is about the code
    p = _Parser(prog="chromacode", description=__doc__.rsplit("\n\n", 1)[0])
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)
    for name, (help_, handler, add_options) in COMMANDS.items():
        if only in (None, name):
            sp = sub.add_parser(name, help=help_)
            add_options(sp)
            sp.set_defaults(func=handler)
    return p


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    # a named command's parser alone; -h, --version and no or an unknown command get all nine
    only = argv[0] if argv and argv[0] in COMMANDS else None
    try:
        args = build_parser(only).parse_args(argv)
        if getattr(args, "power", 1) < 1:
            raise UsageError("--power must be >= 1")
        return args.func(args)
    except GuardExceeded as exc:
        print(
            json.dumps(
                {"error": "guard", "what": exc.what, "size": exc.size, "limit": exc.limit},
                sort_keys=True,
            ),
            file=sys.stderr,
        )
        return 3
    except UsageError as exc:
        print(json.dumps({"error": "usage", "detail": str(exc)}), file=sys.stderr)
        return 2
    except ChromacodeError as exc:
        print(json.dumps({"error": "check", "detail": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
