"""The benchmark's four workloads: inputs from a seed, ops, and oracles.

Each workload is a closed loop with one caller.  Inputs are generated here
from ``--seed`` and only the generated specs, PMFs and graphs reach
chromacode.  Every op calls the package namespace (``cc.<name>``), so the
layer probes see each call.  Oracles run outside the timed region and are
independent of the code under test where that is possible: spectra against
``numpy.linalg.eigvalsh`` on an OR-power adjacency built here as
``A ⊗ J + I ⊗ A^{n-1}``, block counts from the PMF support, expansion rates
from that adjacency.
"""

import contextlib
import io
import math
import random
from fractions import Fraction

import numpy as np

import chromacode as cc
import chromacode.cli


class OracleError(Exception):
    """An op returned a wrong output."""


def expect(ok, what):
    if not ok:
        raise OracleError(what)


def _slack(value):
    return 1e-9 * max(1.0, abs(value))


class Op:
    """One benchmark operation: a call into chromacode with no arguments.

    ``fails`` are the exception types that count as a failed op; any other
    exception is a benchmark error.
    """

    __slots__ = ("kind", "call", "fails")

    def __init__(self, kind, call, fails=(cc.ChromacodeError,)):
        self.kind = kind
        self.call = call
        self.fails = fails


class Workload:
    """Base class: ``ops`` to time, ``check`` and ``digest`` per result."""

    name = None
    baseline_failures = ()  # exception or row names the parent commit fails on
    keep_results = False  # whether finish() needs every result

    def check(self, i, result):
        """Oracle for op i's result; raises OracleError."""

    def digest(self, i, result):
        """A comparable summary, so a traced pass can be matched to its untraced pass."""
        return repr(result)

    def finish(self, results):
        """Whole-run oracle after the last op; returns extra info lines."""
        return []

    def rows(self, results):
        """(attempted, failed) units behind ok_ratio, or None for op counts."""
        return None

    def failure_set(self, failures, results):
        """Sorted names of what failed, comparable with ``baseline_failures``."""
        return sorted({exc for _, exc in failures})


# -- stream ---------------------------------------------------------------------

STREAM_SAMPLES = 10_000
STREAM_N = 3


def example1_weighted():
    """Example 1, f = (x1 + x2) mod 2 on 4 x 2 symbols, with p ∝ x1 + x2 + 1."""
    spec = cc.FunctionSpec.from_table([[(a + b) % 2 for b in range(2)] for a in range(4)])
    weights = [[a + b + 1 for b in range(2)] for a in range(4)]
    return spec, _pmf(weights)


def _pmf(weights):
    total = sum(map(sum, weights))
    return cc.JointPMF(tuple(tuple(Fraction(w, total) for w in row) for row in weights))


class Stream(Workload):
    """Back-to-back ``simulate`` calls on one spec: the per-block coding loop."""

    name = "stream"
    keep_results = True

    def __init__(self, seed, size, samples=STREAM_SAMPLES):
        self.spec, self.pmf = example1_weighted()
        self.samples = samples
        self.first_seed = seed * 100_000
        self.ops = [self._op(self.first_seed + i) for i in range(size)]
        plan = cc.build_codec(self.spec, self.pmf, STREAM_N)
        expect(
            cc.roundtrip_exhaustive(plan) == 8**STREAM_N,
            "plan does not round-trip all 4^n * 2^n positive block pairs",
        )
        # Sampling tolerance: 6 standard deviations of the mean codeword length.
        self.tolerance = []
        for code, pmf, avg in zip(plan.codes, plan.color_pmfs, plan.avg_lengths):
            second = sum(float(p) * len(code[c]) ** 2 for c, p in pmf.items())
            sigma = math.sqrt(max(second - float(avg) ** 2, 0.0))
            self.tolerance.append(6 * sigma / math.sqrt(samples) / STREAM_N)
        self.expected = tuple(avg / STREAM_N for avg in plan.avg_lengths)
        expect(len(set(map(len, plan.codes[0].values()))) > 1, "codewords of equal length")

    def _op(self, s):
        return Op("simulate", lambda: cc.simulate(self.spec, self.pmf, STREAM_N, self.samples, s))

    def check(self, i, r):
        expect(r.lossless, f"op {i}: simulate reported a lossy run")
        expect(tuple(r.expected_rates) == self.expected, f"op {i}: expected rates changed")
        for j in range(2):
            gap = abs(r.rates[j] - float(self.expected[j]))
            expect(gap <= self.tolerance[j], f"op {i}: rate {j} off by {gap}")

    def digest(self, i, r):
        return r.to_json()

    def finish(self, results):
        again = cc.simulate(self.spec, self.pmf, STREAM_N, self.samples, self.first_seed)
        expect(again.to_json() == results[0].to_json(), "repeated seed gave another report")
        blocks = sum(r.samples for r in results if r is not None)
        return [f"stream: {blocks} blocks of n={STREAM_N}; repeat of seed {self.first_seed} is byte-identical"]


# -- plan -----------------------------------------------------------------------


def _random_spec(rng, n1, n2):
    outcomes = rng.randint(2, 4)
    table = [[rng.randrange(outcomes) for _ in range(n2)] for _ in range(n1)]
    density = rng.choice((0.8, 1.0))
    weights = [
        [rng.randint(1, 9) if rng.random() < density else 0 for _ in range(n2)]
        for _ in range(n1)
    ]
    if not any(map(any, weights)):
        weights[0][0] = 1
    return cc.FunctionSpec.from_table(table), _pmf(weights)


def plan_inputs(rng, count):
    """Seeded (kind, spec, pmf, n) triples, stratified in blocks of ten ops.

    Two in ten are Example 1 with a random full-support PMF, at n = 2, 3, 4
    in turn so that every seed has the same mix of decoder-table sizes; one
    in ten is a random table at n = 3; the rest are random tables at
    n = 1, or n = 2 when both alphabets have at most four symbols.  Larger
    alphabets stay at n = 1 because a 5- or 6-symbol odd-hole graph squared
    can send the exact coloring fallback into its 60 s timeout.
    """
    ex1 = example1_weighted()[0]
    out = []
    for i in range(count):
        slot = i % 10
        if slot < 2:
            weights = [[rng.randint(1, 9) for _ in range(2)] for _ in range(4)]
            n = 2 + (2 * (i // 10) + slot) % 3
            out.append((f"example1-n{n}", ex1, _pmf(weights), n))
            continue
        n1, n2 = rng.randint(2, 6), rng.randint(2, 6)
        spec, pmf = _random_spec(rng, n1, n2)
        if slot == 2:
            n = 3
        elif max(n1, n2) <= 4:
            n = rng.choice((1, 2))
        else:
            n = 1
        out.append((f"random-n{n}", spec, pmf, n))
    return out


class Plan(Workload):
    """One ``build_codec`` per unique seeded (spec, pmf, n): code design."""

    name = "plan"
    baseline_failures = ("AmbiguityError", "GuardExceeded")

    def __init__(self, seed, size):
        rng = random.Random(f"plan:{seed}")
        self.inputs = plan_inputs(rng, size)
        self.ops = [
            Op(kind, lambda spec=spec, pmf=pmf, n=n: cc.build_codec(spec, pmf, n))
            for kind, spec, pmf, n in self.inputs
        ]

    def check(self, i, plan):
        _, spec, pmf, n = self.inputs[i]
        support = sum(p > 0 for row in pmf.probs for p in row)
        got = cc.roundtrip_exhaustive(plan)
        expect(got == support**n, f"op {i}: round-tripped {got} block pairs, expected {support**n}")

    def digest(self, i, plan):
        return (plan.codes, plan.avg_lengths, len(plan.decoder))


# -- bounds ---------------------------------------------------------------------

A_F1_EDGES = [(0, 1), (0, 4), (1, 2), (1, 3), (2, 3), (3, 4)]
RANDOM_SIZES = (4, 5, 6, 5, 4, 6, 5, 6)


def _connected(g):
    seen, todo = {0}, [0]
    while todo:
        for u in g.neighbors(todo.pop()):
            if u not in seen:
                seen.add(u)
                todo.append(u)
    return len(seen) == g.vertex_count


def random_connected_graph(rng, vertices):
    while True:
        edges = [
            (u, v) for u in range(vertices) for v in range(u + 1, vertices) if rng.random() < 0.5
        ]
        g = cc.Graph.from_edges(vertices, edges)
        if _connected(g):
            return g


def power_adjacency(a, n):
    """OR-power adjacency A^n = A ⊗ J + I ⊗ A^{n-1}, built independently of chromacode."""
    out = a
    for _ in range(n - 1):
        out = np.kron(a, np.ones_like(out)) + np.kron(np.eye(len(a), dtype=a.dtype), out)
    return out


def _is_cycle(g):
    return g.vertex_count >= 3 and g == cc.make_graph("cycle", g.vertex_count)


def _expansion(g, n, subset):
    """What ``chromacode expansion`` computes, with Λ taken from the spectrum."""
    gn = cc.or_power(g, n)
    rate = cc.expansion_rate(gn, subset)
    degrees = gn.degrees()
    regular = min(degrees) == max(degrees)
    spec = cc.graph_spectrum(gn)
    lam = max(spec.values[1], abs(spec.values[-1]))
    family = "regular" if regular else "general"
    d = g.degree(0) if regular else None
    return rate, cc.expansion_bounds(family, g.vertex_count, n, len(subset), d=d, lam=lam)


def _window(g, n):
    """What ``chromacode entropy`` computes: odd-cycle bound on odd cycles, else general."""
    V = g.vertex_count
    if _is_cycle(g) and V % 2:
        return cc.odd_cycle_entropy_upper_bound((V - 1) // 2, n)
    return cc.general_entropy_upper_bound(g, n)


def bound_queries(g, n, rng):
    """(kind, call, subset) for every query the spectral, expansion and entropy
    subcommands make on G^n; each call builds the power as the CLI does."""
    V = g.vertex_count
    power = lambda: cc.or_power(g, n)  # noqa: E731
    queries = [
        ("eig", lambda: cc.graph_spectrum(power()), None),
        ("gct-scalar", lambda: cc.gershgorin(power().adjacency_matrix(), "scalar"), None),
        (
            "gct-block",
            lambda: cc.gershgorin(power().adjacency_matrix(), "block", block_size=V ** (n - 1)),
            None,
        ),
        ("split", lambda: cc.split_decomposition(power()), None),
    ]
    for variant in cc.BOUND_VARIANTS:
        if variant == "cycle-power" and not _is_cycle(g):
            continue
        queries.append(
            (
                f"bound-{variant}",
                lambda variant=variant: cc.chromatic_bounds_spectral(
                    variant, g=g, n=n, V=V, power=power()
                ),
                None,
            )
        )
    subset = sorted(rng.sample(range(V**n), rng.randint(1, V**n // 2)))
    queries.append(("expansion", lambda: _expansion(g, n, subset), subset))
    queries.append(("window", lambda: _window(g, n), None))
    return queries


class Bounds(Workload):
    """Spectral, Gershgorin, bound, expansion and entropy-window queries."""

    name = "bounds"
    baseline_failures = ("AssertionError",)

    def __init__(self, seed, random_graphs, fixed=None, cube=True):
        rng = random.Random(f"bounds:{seed}")
        if fixed is None:
            fixed = [
                cc.cycle_graph(5),
                cc.cycle_graph(7),
                cc.prism_graph(),
                cc.Graph.from_edges(5, A_F1_EDGES),
                cc.path_graph(6),
                cc.complete_graph(4),
            ]
        graphs = list(fixed) + [
            random_connected_graph(rng, RANDOM_SIZES[j % len(RANDOM_SIZES)])
            for j in range(random_graphs)
        ]
        self.queries = []  # (graph, n, kind, subset) per op
        self.ops = []
        for g in graphs:
            for kind, call, subset in bound_queries(g, 2, rng):
                fails = (cc.ChromacodeError, AssertionError) if kind == "window" else (cc.ChromacodeError,)
                self.queries.append((g, 2, kind, subset))
                self.ops.append(Op(kind, call, fails))
        if cube:
            c5 = cc.cycle_graph(5)
            self.queries.append((c5, 3, "eig", None))
            self.ops.append(Op("eig-C5^3", lambda: cc.graph_spectrum(cc.or_power(c5, 3))))
        # Interleave the graphs, so that a slow stretch of the machine does not
        # land on all the queries of one graph.
        order = list(range(len(self.ops)))
        rng.shuffle(order)
        self.queries = [self.queries[i] for i in order]
        self.ops = [self.ops[i] for i in order]
        self._reference = {}

    def _adjacency(self, g, n):
        key = (g, n)
        if key not in self._reference:
            a = power_adjacency(g.adjacency_matrix().astype(float), n)
            self._reference[key] = (a, np.linalg.eigvalsh(a))
        return self._reference[key]

    def check(self, i, r):
        g, n, kind, subset = self.queries[i]
        a, ref = self._adjacency(g, n)
        where = f"op {i} ({kind} on {g!r}^{n})"
        if kind == "eig":
            expect(_close(r.values, ref), f"{where}: eigenvalues differ from eigvalsh")
        elif kind.startswith("gct"):
            expect(all(r.contains(x, 1e-6) for x in ref), f"{where}: eigenvalue outside enclosure")
        elif kind == "split":
            V = g.vertex_count
            within = np.kron(np.eye(V), power_adjacency(g.adjacency_matrix().astype(float), n - 1))
            expect(_close(r.lam_full, ref), f"{where}: full spectrum differs from eigvalsh")
            expect(_close(r.lam_gr, np.linalg.eigvalsh(within)), f"{where}: a_gr spectrum differs")
            expect(_close(r.lam_fc, np.linalg.eigvalsh(a - within)), f"{where}: a_fc spectrum differs")
        elif kind.startswith("bound"):
            expect(r.lower <= r.upper + _slack(r.upper), f"{where}: lower {r.lower} > upper {r.upper}")
            if r.variant == "lambda1-window":
                for key in ("window", "refined"):
                    lo, hi = r.details[key]
                    expect(lo <= hi + _slack(hi), f"{where}: {key} window [{lo}, {hi}] is empty")
        elif kind == "expansion":
            rate, b = r
            members = set(subset)
            hood = {int(v) for u in members for v in np.flatnonzero(a[u])} - members
            expect(rate == Fraction(len(hood), len(members)), f"{where}: rate {rate} is wrong")
            expect(
                b.lower - _slack(b.lower) <= rate <= b.upper + _slack(b.upper),
                f"{where}: rate {float(rate)} outside [{b.lower}, {b.upper}]",
            )
        elif kind == "window":
            expect(r["lo"] <= r["hi"] + _slack(r["hi"]), f"{where}: window [{r['lo']}, {r['hi']}] is empty")

    def digest(self, i, r):
        kind = self.queries[i][2]
        if kind == "eig":
            return r.values
        if kind.startswith("gct"):
            return r.intervals
        if kind == "split":
            return (r.lam_gr, r.lam_fc, r.lam_full)
        if kind.startswith("bound"):
            return (r.variant, r.lower, r.upper)
        if kind == "expansion":
            return (r[0], r[1])
        return (r["lo"], r["hi"], r["alpha_n_window"])


def _close(values, reference):
    return len(values) == len(reference) and np.allclose(
        np.sort(np.asarray(values, dtype=float)), reference, rtol=0, atol=1e-6
    )


# -- reproduce ------------------------------------------------------------------

RED_ROWS = (
    "example2: per-symbol entropy of the C5^2 coloring",
    "example3: entropy window high",
)
GOLDEN_ROWS = 28


class Reproduce(Workload):
    """In-process ``chromacode reproduce`` with stdout captured."""

    name = "reproduce"
    keep_results = True
    baseline_failures = RED_ROWS

    def __init__(self, cases=None):
        argv_list = [["reproduce"]] if cases is None else [["reproduce", "--case", c] for c in cases]
        self.expected_rows = GOLDEN_ROWS if cases is None else None
        self.ops = [Op("reproduce", lambda argv=argv: _capture(argv)) for argv in argv_list]

    def check(self, i, r):
        rc, text = r
        rows = _parse_rows(text)
        failing = tuple(label for ok, label in rows if not ok)
        expect(rc == (1 if failing else 0), f"reproduce exited {rc}")
        if self.expected_rows is not None:
            expect(len(rows) == self.expected_rows, f"{len(rows)} golden rows, expected {self.expected_rows}")

    def finish(self, results):
        failing = self.failure_set(None, results)
        expect(failing == sorted(RED_ROWS), f"failing rows {failing}, expected exactly the RED rows")
        return [f"reproduce: failing rows {failing}"]

    def digest(self, i, r):
        return r

    def rows(self, results):
        rows = [row for r in results for row in _parse_rows(r[1])]
        return len(rows), sum(not ok for ok, _ in rows)

    def failure_set(self, failures, results):
        return sorted(label for r in results for ok, label in _parse_rows(r[1]) if not ok)


def _capture(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = chromacode.cli.main(argv)
    return rc, out.getvalue()


def _parse_rows(text):
    rows = []
    for line in text.splitlines():
        if line.startswith("[pass] ") or line.startswith("[FAIL] "):
            label = line[7:].split(": expected ")[0]
            rows.append((line.startswith("[pass]"), label))
    return rows


# -- sizes ----------------------------------------------------------------------

REPRODUCE_SMOKE_CASES = ("example1", "example2", "example3", "example4", "spectra", "example5")


def build(name, seed, seconds, smoke):
    """The workload `name` at the size one run of `seconds` measures.

    Sizes were set so that a run takes about `seconds` on a 2-vCPU Xeon VM at
    2.1 GHz with the code the benchmark was introduced with.  ``smoke``
    shrinks every workload so that all oracles run in seconds; the reproduce
    smoke run leaves out appendixB, whose exact chi(C5^2) alone takes ~25 s.
    """
    if name == "stream":
        if smoke:
            return Stream(seed, 4, samples=1000)
        return Stream(seed, max(100, round(10 * seconds)))
    if name == "plan":
        return Plan(seed, 60 if smoke else round(300 * seconds))
    if name == "bounds":
        if smoke:
            return Bounds(seed, 1, fixed=[cc.cycle_graph(5), cc.complete_graph(4)], cube=False)
        return Bounds(seed, max(1, round(0.8 * seconds)))
    if name == "reproduce":
        return Reproduce(REPRODUCE_SMOKE_CASES if smoke else None)
    raise KeyError(name)
