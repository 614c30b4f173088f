import itertools
import random
import time
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chromacode.coloring
from chromacode import (
    ChromacodeError,
    Coloring,
    FractionalColoring,
    Graph,
    GuardExceeded,
    UsageError,
    complete_graph,
    cycle_graph,
    even_cycle_power_coloring,
    exact_chromatic_number,
    fractional_chromatic_cycle,
    greedy_coloring,
    is_valid_b_fold,
    is_valid_coloring,
    make_graph,
    maximal_independent_sets,
    odd_cycle_chi,
    odd_cycle_power_coloring,
    or_power,
    path_graph,
    power_chromatic_number,
    power_coloring,
    prism_graph,
    product_coloring,
)
from chromacode.coloring import CHI_TIMEOUT_DEFAULT, _b_fold_cover, _cycle_scheme
from chromacode.errors import check_guard


def test_coloring_normalization_and_json():
    c = Coloring.from_list([5, 7, 5, 9])
    assert c.assignment == (0, 1, 0, 2)
    assert c.palette_size == 3
    # the object `chromacode color` prints
    assert c.to_dict() == {"colors": [0, 1, 0, 2], "palette": 3}


def test_is_valid_coloring():
    c5 = cycle_graph(5)
    assert is_valid_coloring(c5, Coloring.from_list([0, 1, 0, 1, 2]))
    assert not is_valid_coloring(c5, Coloring.from_list([0, 1, 0, 1, 0]))


def test_greedy_coloring_proper():
    for g in (cycle_graph(5), complete_graph(4), prism_graph(), path_graph(6)):
        c = greedy_coloring(g)
        assert is_valid_coloring(g, c)


def _reference_greedy_coloring(g, order):
    """First-fit along `order` from neighbour lists: each vertex takes the
    least color no colored neighbour has."""
    colors = [-1] * g.vertex_count
    for v in order:
        used = {colors[u] for u in g.neighbors(v) if colors[u] >= 0}
        c = 0
        while c in used:
            c += 1
        colors[v] = c
    return Coloring.from_list(colors)


def test_greedy_coloring_matches_the_neighbour_list_first_fit():
    # seeded random graphs and OR powers of up to 64 vertices, each in its
    # natural order, degree-descending order (as the exact solver seeds it)
    # and three random orders
    rng = random.Random("greedy-first-fit")
    graphs = []
    for _ in range(120):
        V = rng.randint(1, 12)
        density = rng.choice((0.2, 0.5, 0.8))
        edges = [(u, v) for u in range(V) for v in range(u + 1, V) if rng.random() < density]
        graphs.append(Graph.from_edges(V, edges))
    graphs += [or_power(g, n) for g in graphs[:60] for n in (2, 3) if g.vertex_count**n <= 64]
    for g in graphs:
        V = g.vertex_count
        orders = [list(range(V)), sorted(range(V), key=lambda v: (-g.degree(v), v))]
        orders += [rng.sample(range(V), V) for _ in range(3)]
        for order in orders:
            assert greedy_coloring(g, order) == _reference_greedy_coloring(g, order)
    assert max(g.vertex_count for g in graphs) == 64


@pytest.mark.parametrize(
    "g,chi",
    [
        (cycle_graph(4), 2),
        (cycle_graph(5), 3),
        (complete_graph(4), 4),
        (path_graph(5), 2),
        (prism_graph(), 3),
    ],
)
def test_exact_chromatic_number(g, chi):
    got, c = exact_chromatic_number(g)
    assert got == chi
    assert is_valid_coloring(g, c)
    assert c.palette_size == chi


def test_exact_chi_guard():
    with pytest.raises(GuardExceeded):
        exact_chromatic_number(cycle_graph(100))


def test_exact_chi_timeout_reports_elapsed_seconds(monkeypatch):
    # a clock 100 s on per read: the search's first tick is past the 60 s limit
    clock = SimpleNamespace(monotonic=itertools.count(0.0, 100.0).__next__)
    monkeypatch.setattr(chromacode.coloring, "time", clock)
    with pytest.raises(GuardExceeded) as info:
        exact_chromatic_number(or_power(cycle_graph(5), 2))
    assert info.value.what == "exact coloring time (s)"
    assert (info.value.size, info.value.limit) == (100.0, CHI_TIMEOUT_DEFAULT)


def _brute_force_chi(g):
    """Least k with a proper k-coloring, by plain backtracking over the
    vertices in degree-descending order."""
    V = g.vertex_count
    order = sorted(range(V), key=lambda v: -g.degree(v))
    rank = {v: i for i, v in enumerate(order)}
    adj = [[] for _ in range(V)]  # by rank: the earlier-ranked neighbours
    for u, v in g.edges():
        adj[max(rank[u], rank[v])].append(min(rank[u], rank[v]))
    colors = [0] * V

    def fits(i, k, used):
        if i == V:
            return True
        for c in range(min(k, used + 1)):  # a new color only as the next unused one
            if all(colors[u] != c for u in adj[i]):
                colors[i] = c
                if fits(i + 1, k, max(used, c + 1)):
                    return True
        return False

    k = 1
    while not fits(0, k, 0):
        k += 1
    return k


def _brute_force_clique_number(g):
    V = g.vertex_count
    for k in range(V, 1, -1):
        for S in combinations(range(V), k):
            if all(g.has_edge(u, v) for u, v in combinations(S, 2)):
                return k
    return 1


def _random_corpus():
    """Seeded graphs on 2-8 vertices, plus the OR squares of those on <= 4.

    Two in three graphs on 5+ vertices have an induced C5 or C7 on their
    first vertices, so that many have chi > omega and need the search.
    """
    rng = random.Random(20261018)
    out = []
    for i in range(240):
        V = rng.randint(2, 8)
        hole = 0 if i % 3 == 0 or V < 5 else 7 if V >= 7 and i % 2 else 5
        density = rng.choice((0.3, 0.5, 0.7))
        edges = [
            (u, v)
            for u in range(V)
            for v in range(u + 1, V)
            if (v - u in (1, hole - 1) if v < hole else rng.random() < density)
        ]
        g = Graph.from_edges(V, edges)
        out.append(g)
        if V <= 4:
            out.append(or_power(g, 2))
    return out


def test_exact_chi_matches_brute_force_on_random_corpus():
    corpus = _random_corpus()
    assert any(g.vertex_count == 16 for g in corpus)
    imperfect = 0
    for g in corpus:
        chi, c = exact_chromatic_number(g)
        assert chi == _brute_force_chi(g), g.edges()
        assert c.palette_size == chi
        assert is_valid_coloring(g, c)
        if g.vertex_count <= 8:
            imperfect += chi > _brute_force_clique_number(g)
    assert imperfect >= 50


@pytest.mark.parametrize("seed", [984, 6345, 7616])
def test_exact_chi_matches_brute_force_where_memo_decides(seed):
    # Dense graphs on which the search meets one uncolored set along paths
    # with different class counts: recording that set as refuted for one
    # class too many makes the solver return 8 instead of 7 on each.
    rng = random.Random(seed)
    V = rng.randint(14, 20)
    g = Graph.from_edges(V, [(u, v) for u in range(V) for v in range(u + 1, V) if rng.random() < 0.7])
    chi, c = exact_chromatic_number(g)
    assert chi == _brute_force_chi(g) == 7
    assert c.palette_size == chi
    assert is_valid_coloring(g, c)


# C5 with its vertices relabeled: isomorphic to cycle_graph(5) but not equal
RELABELED_C5 = Graph.from_edges(5, [(0, 2), (2, 4), (4, 1), (1, 3), (3, 0)])


@pytest.mark.parametrize(
    "base,chi",
    [
        (cycle_graph(4), 4),
        (cycle_graph(6), 4),
        (cycle_graph(5), 8),
        (RELABELED_C5, 8),
        (cycle_graph(7), 7),
        (prism_graph(), 9),
    ],
    ids=["C4", "C6", "C5", "relabeled-C5", "C7", "prism"],
)
def test_exact_chi_of_squares(base, chi):
    g = or_power(base, 2)
    got, c = exact_chromatic_number(g)
    assert got == chi
    assert c.palette_size == chi
    assert is_valid_coloring(g, c)


def test_odd_cycle_chi_sequence():
    assert [odd_cycle_chi(m) for m in range(1, 7)] == [3, 8, 20, 50, 125, 313]


@pytest.mark.parametrize("k,n,chi", [(2, 2, 4), (2, 3, 8), (3, 2, 4)])
def test_even_cycle_power_coloring(k, n, chi):
    c = even_cycle_power_coloring(k, n)
    assert c.palette_size == chi == 2**n
    assert is_valid_coloring(or_power(cycle_graph(2 * k), n), c)


# χ(C5^n) from the paper; χ(C7^2) = 7 is the exact solver's value
# (test_exact_chi_of_squares), not the C5 recursion's 8.
ODD_CYCLE_CHI = {(5, 1): 3, (5, 2): 8, (5, 3): 20, (7, 2): 7}


@pytest.mark.parametrize("i,n", [(5, 1), (5, 2), (5, 3), (7, 2)])
def test_odd_cycle_power_coloring_valid(i, n):
    chi, c = odd_cycle_power_coloring(i, n)
    assert chi == ODD_CYCLE_CHI[i, n]
    assert is_valid_coloring(or_power(cycle_graph(i), n), c)
    assert c.palette_size <= chi


@pytest.mark.parametrize("i,n,chi", [(7, 2, 7), (9, 2, 7), (11, 2, 7), (7, 3, 17)])
def test_odd_cycle_power_coloring_is_tight_for_longer_cycles(i, n, chi):
    k = (i - 1) // 2
    assert odd_cycle_chi(n, k) == chi
    got, c = odd_cycle_power_coloring(i, n)
    assert got == c.palette_size == chi
    assert is_valid_coloring(or_power(cycle_graph(i), n), c)
    if n == 2:
        # χ(C_i^2) = χ_3(C_i) (Geller-Stahl): a chi:3 coloring exists, a (chi-1):3 one does not
        cycle = cycle_graph(i)
        assert b_fold_coloring_search(cycle, chi, 3) is not None
        assert b_fold_coloring_search(cycle, chi - 1, 3) is None


def test_odd_cycle_chi_sequence_takes_k():
    assert [odd_cycle_chi(m, 2) for m in range(1, 7)] == [odd_cycle_chi(m) for m in range(1, 7)]
    assert [odd_cycle_chi(m, 3) for m in range(1, 5)] == [3, 7, 17, 40]
    with pytest.raises(UsageError):
        odd_cycle_chi(2, 1)


def test_greedy_gain_uses_the_cycle_length():
    # the gain 3^n / χ(C_{2k+1}^n) reads χ of the cycle it is asked about
    assert Fraction(9, odd_cycle_chi(2, 3)) == Fraction(9, 7)
    assert Fraction(9, odd_cycle_chi(2, 2)) == Fraction(9, 8)


@pytest.mark.parametrize("k", range(2, 9))
def test_fractional_cycle_window_coloring_closes(k):
    # stride-b windows do not close around C11 at b = 3; the extra colors
    # are then spread over the last steps
    for b in range(1, 13):
        res = fractional_chromatic_cycle(k, b)
        assert res["chi_b"] == 2 * b + -(-b // k)
        assert is_valid_b_fold(cycle_graph(2 * k + 1), res["coloring"])


def test_odd_cycle_power_coloring_guard_degrades():
    chi, c = odd_cycle_power_coloring(5, 4, guard=100)
    assert chi == 50 and c is None


def test_greedy_gain_monotone():
    gains = [Fraction(3**n, odd_cycle_chi(n)) for n in range(1, 7)]
    assert gains[0] == 1
    assert all(b > a for a, b in zip(gains, gains[1:]))
    assert gains[1] == Fraction(9, 8)


def test_product_coloring_always_valid():
    for g in (cycle_graph(5), prism_graph(), path_graph(4)):
        c = product_coloring(g, 2)
        assert is_valid_coloring(or_power(g, 2), c)
        chi, _ = exact_chromatic_number(g)
        assert c.palette_size <= chi**2


def b_fold_coloring_search(g, a, b, guard=None):
    """Exhaustive search for a valid a:b coloring; None if none exists.

    Vertex 0's set is fixed to {0..b-1} (colors are interchangeable).
    """
    from itertools import combinations

    V = g.vertex_count
    check_guard("b-fold search space", V * a * b, guard, 2000)
    choices = [frozenset(c) for c in combinations(range(a), b)]
    sets = [None] * V

    def bt(v):
        if v == V:
            return True
        for s in [frozenset(range(b))] if v == 0 else choices:
            if all(
                sets[u] is None or not (sets[u] & s) for u in g.neighbors(v)
            ):
                sets[v] = s
                if bt(v + 1):
                    return True
                sets[v] = None
        return False

    if bt(0):
        return FractionalColoring(a, b, tuple(sets))
    return None


def test_b_fold_search_c5():
    c5 = cycle_graph(5)
    fc = b_fold_coloring_search(c5, 5, 2)
    assert fc is not None
    assert is_valid_b_fold(c5, fc)
    # 4:2 would mean chi_f <= 2 < 5/2: impossible
    assert b_fold_coloring_search(c5, 4, 2) is None


@pytest.mark.parametrize("b,chi_b", [(1, 3), (2, 5), (3, 8), (4, 10)])
def test_fractional_chromatic_cycle(b, chi_b):
    res = fractional_chromatic_cycle(2, b)
    assert res["chi_b"] == chi_b
    assert res["chi_b_lower"] == 2 * b + 1
    assert res["chi_f"] == Fraction(5, 2)
    assert is_valid_b_fold(cycle_graph(5), res["coloring"])


def test_fractional_chromatic_cycle_guards_its_set_entries():
    # V * b set entries: 5 * 2 000 is at the power guard's default, 5 * 2 001 past it
    assert fractional_chromatic_cycle(2, 2000)["chi_b"] == 5000
    with pytest.raises(GuardExceeded) as exc:
        fractional_chromatic_cycle(2, 2001)
    assert (exc.value.size, exc.value.limit) == (10_005, 10_000)
    assert fractional_chromatic_cycle(2, 2001, guard=10_005)["chi_b"] == 5003
    with pytest.raises(GuardExceeded):
        fractional_chromatic_cycle(3, 4, guard=27)


def test_fractional_chromatic_power():
    # χ_f(C_{2k+1}^n) = χ_f(C_{2k+1})^n, and χ_f is met by the k-fold windows
    assert fractional_chromatic_cycle(2, 1)["chi_f"] ** 2 == Fraction(25, 4)
    assert fractional_chromatic_cycle(3, 1)["chi_f"] ** 3 == Fraction(343, 27)
    for k in (2, 3, 4):
        res = fractional_chromatic_cycle(k, k)
        assert res["chi_f"] == Fraction(res["chi_b"], k)


def _edge_check(g, c):
    return all(c.assignment[u] != c.assignment[v] for u, v in g.edges())


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_is_valid_coloring_matches_edge_scan(data):
    V = data.draw(st.integers(1, 24))
    pairs = [(u, v) for u in range(V) for v in range(u + 1, V)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    g = Graph.from_edges(V, edges)
    if data.draw(st.booleans()):
        g = or_power(g, 2) if V <= 8 else g
    order = data.draw(st.permutations(range(g.vertex_count)))
    valid = greedy_coloring(g, order)
    assert is_valid_coloring(g, valid) and _edge_check(g, valid)
    colors = data.draw(
        st.lists(st.integers(0, 3), min_size=g.vertex_count, max_size=g.vertex_count)
    )
    c = Coloring.from_list(colors)
    assert is_valid_coloring(g, c) == _edge_check(g, c)
    if g.edge_count:
        # merge the two ends of one edge into one color
        u, v = data.draw(st.sampled_from(g.edges()))
        merged = list(valid.assignment)
        merged[v] = merged[u]
        assert not is_valid_coloring(g, Coloring.from_list(merged))
        assert not _edge_check(g, Coloring.from_list(merged))


# -- the composition engine against the per-family index loops it replaced ----


def _reference_even_cycle_coloring(V, n):
    """Parity vector of each tuple index of C_V^n, one digit at a time."""
    colors = []
    for idx in range(V**n):
        parity, rest = 0, idx
        for _ in range(n):
            parity = (parity << 1) | (rest % V) & 1
            rest //= V
        colors.append(parity)
    return Coloring.from_list(colors)


def _reference_window_starts(k, size, palette):
    """Window starts of a palette:size coloring of C_{2k+1}: the extra colors
    go to the closing step first, then to the last steps."""
    extra = palette - 2 * size
    spare = -(2 * k + 1) * size % palette
    steps = []
    for _ in range(2 * k + 1):
        steps.append(size + min(extra, spare))
        spare -= steps[-1] - size
    starts = [0]
    for step in reversed(steps[1:]):
        starts.append((starts[-1] + step) % palette)
    return starts


def _reference_odd_cycle_coloring(i, n):
    """Block-by-block window recursion on C_i^n from the 3-coloring (0, 1, 0, ..., 1, 2)."""
    k = (i - 1) // 2
    chis = [3]
    while len(chis) < n:
        chis.append(2 * chis[-1] + -(-chis[-1] // k))
    colors = [v % 2 for v in range(i - 1)] + [2]
    for m in range(2, n + 1):
        size, palette = chis[m - 2], chis[m - 1]
        starts = _reference_window_starts(k, size, palette)
        prev, block = colors, i ** (m - 1)
        colors = [(starts[idx // block] + prev[idx % block]) % palette for idx in range(i**m)]
    return Coloring.from_list(colors)


def _reference_product_coloring(g, n, base):
    """Vector of base colors of each tuple, one digit at a time."""
    V, p = g.vertex_count, base.palette_size
    colors = []
    for idx in range(V**n):
        code, rest = 0, idx
        for _ in range(n):
            code = code * p + base.assignment[rest % V]
            rest //= V
        colors.append(code)
    return Coloring.from_list(colors)


@pytest.mark.parametrize("V", [4, 6, 8])
def test_even_cycle_composition_equals_index_loop(V):
    for n in range(1, 5):
        c = even_cycle_power_coloring(V // 2, n)
        assert c == _reference_even_cycle_coloring(V, n)
        assert is_valid_coloring(or_power(cycle_graph(V), n), c)


@pytest.mark.parametrize("i,top", [(5, 4), (7, 4), (9, 3), (11, 3)])
def test_odd_cycle_composition_equals_window_recursion(i, top):
    for n in range(1, top + 1):
        chi, c = odd_cycle_power_coloring(i, n)
        assert c == _reference_odd_cycle_coloring(i, n)
        assert c.palette_size == chi
        assert is_valid_coloring(or_power(cycle_graph(i), n), c)


def test_product_composition_equals_index_loop():
    rng = random.Random("product-composition")
    for _ in range(40):
        V = rng.randint(2, 6)
        g = Graph.from_edges(
            V, [(u, v) for u in range(V) for v in range(u + 1, V) if rng.random() < 0.5]
        )
        _, base = exact_chromatic_number(g)
        for n in (1, 2, 3):
            c = product_coloring(g, n)
            assert c == _reference_product_coloring(g, n, base)
            assert is_valid_coloring(or_power(g, n), c)


def _cycle_scheme_graphs():
    """Canonical cycles and graphs one edit or one relabeling away."""
    rng = random.Random("cycle-scheme")
    for V in range(1, 13):
        yield from (make_graph(kind, V) for kind in ("complete", "path", "edgeless"))
        if V < 3:
            continue
        cycle = [(i, (i + 1) % V) for i in range(V)]
        yield make_graph("cycle", V)
        yield Graph.from_edges(V, cycle[1:])  # a path, but not 0..V-1 in order
        perm = rng.sample(range(V), V)
        yield Graph.from_edges(V, [(perm[u], perm[v]) for u, v in cycle])
        if V > 3:
            yield Graph.from_edges(V, cycle + [(0, V // 2)])  # plus a chord
        for _ in range(5):
            yield Graph.from_edges(V, [e for e in combinations(range(V), 2) if rng.random() < 0.3])


def test_cycle_scheme_reads_the_canonical_cycle_off_the_rows():
    seen = []
    for g in _cycle_scheme_graphs():
        V = g.vertex_count
        canonical = V >= 4 and g == make_graph("cycle", V)
        want = ("odd-cycle" if V % 2 else "even-cycle") if canonical else None
        assert _cycle_scheme(g) == want, g.edges()
        seen.append(want)
    # C4 .. C12, and any relabeling that happens to give the same rows
    assert seen.count("odd-cycle") >= 4 and seen.count("even-cycle") >= 5
    assert seen.count(None) > 100


def test_power_coloring_auto_takes_the_cycle_schemes():
    assert power_coloring(cycle_graph(6), 2) == even_cycle_power_coloring(3, 2)
    assert power_coloring(cycle_graph(7), 2) == odd_cycle_power_coloring(7, 2)[1]
    for g in (cycle_graph(3), RELABELED_C5, prism_graph()):
        c = power_coloring(g, 2)
        assert c == power_coloring(g, 2, "exact")
        assert is_valid_coloring(or_power(g, 2), c)
        assert c.palette_size == exact_chromatic_number(or_power(g, 2))[0]


@pytest.mark.parametrize(
    "strategy,g",
    [("even-cycle", cycle_graph(5)), ("odd-cycle", cycle_graph(3)),
     ("odd-cycle", RELABELED_C5), ("bogus", cycle_graph(5))],
    ids=["even-on-C5", "odd-on-C3", "odd-on-relabeled-C5", "unknown"],
)
def test_power_coloring_refuses_a_strategy_that_does_not_fit(strategy, g):
    with pytest.raises(UsageError):
        power_coloring(g, 2, strategy)


_WINDOWS = chromacode.coloring._odd_cycle_fold(2)


def _spoiled(spoil):
    """The windows fold of C5 with each level's (a, S) passed through `spoil`."""
    return lambda b: spoil(*_WINDOWS(b))


# one bad fold per clause of the check: each vertex holds b distinct colors,
# every color lies in range(a), and adjacent vertices share none
BAD_FOLDS = {
    "repeated": lambda a, S: (a, [list(s[:-1]) + [s[0]] for s in S]),  # bad from b = 2 on
    "missing": lambda a, S: (a, [list(s[1:]) for s in S]),
    "past-a": lambda a, S: (a, [[c + a * (x == 0) for c in s] for x, s in enumerate(S)]),
    "negative": lambda a, S: (a, [[c - a * (x == 0) for c in s] for x, s in enumerate(S)]),
    "shared": lambda a, S: (a, [range(len(S[0]))] * len(S)),
}


def test_power_coloring_refuses_an_invalid_fold(monkeypatch):
    for spoil in BAD_FOLDS.values():
        bad = _spoiled(spoil)
        monkeypatch.setattr(chromacode.coloring, "_odd_cycle_fold", lambda k: bad)
        monkeypatch.setattr(chromacode.coloring, "_least_fold", lambda g, guard: bad)
        for refused in (
            lambda: power_coloring(cycle_graph(5), 2, "odd-cycle"),
            lambda: power_coloring(cycle_graph(5), 2, "exact"),
            lambda: power_chromatic_number(cycle_graph(5), 2),
        ):
            with pytest.raises(ChromacodeError, match=r"fold is not a valid coloring of the base graph$"):
                refused()


def test_fold_schemes_build_no_power(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("or_power called")

    cases = [(g, n, s) for g, n in ((cycle_graph(5), 3), (prism_graph(), 2), (path_graph(6), 2))
             for s in ("exact", "product")]
    cases += [(cycle_graph(5), 3, "odd-cycle"), (cycle_graph(6), 3, "even-cycle")]
    want = [power_coloring(g, n, s) for g, n, s in cases]
    monkeypatch.setattr(chromacode.coloring, "or_power", refuse)
    for (g, n, strategy), c in zip(cases, want):
        assert power_coloring(g, n, strategy) == c
        assert is_valid_coloring(or_power(g, n), c)
    with pytest.raises(AssertionError, match="or_power called"):
        power_coloring(cycle_graph(5), 2, "greedy")


def test_exact_power_coloring_past_the_default_power_guard():
    # C5^6 has 15 625 vertices, past the default guard of 10 000
    with pytest.raises(GuardExceeded, match="power vertex count = 15625 exceeds guard 10000"):
        power_coloring(cycle_graph(5), 6, "exact")
    c = power_coloring(cycle_graph(5), 6, "exact", guard=20_000)
    assert c.palette_size == 313 == power_chromatic_number(cycle_graph(5), 6)
    assert is_valid_coloring(or_power(cycle_graph(5), 6, guard=20_000), c)


def test_power_coloring_explicit_guard():
    # `exact` and `product` make two guarded calls (the power, then the exact
    # solver of the base graph); one `guard=` bounds both, and without it
    # each takes its own default
    for strategy in ("exact", "product"):
        c = power_coloring(RELABELED_C5, 2, strategy)
        assert is_valid_coloring(or_power(RELABELED_C5, 2), c)
        assert power_coloring(RELABELED_C5, 2, strategy, guard=25) == c
        with pytest.raises(GuardExceeded, match="power vertex count = 25 exceeds guard 24"):
            power_coloring(RELABELED_C5, 2, strategy, guard=24)
        # 65 vertices: within the power default (10 000), past the exact solver's (64)
        with pytest.raises(GuardExceeded, match="^instance too large: vertex count = 65 exceeds guard 64$"):
            power_coloring(path_graph(65), 1, strategy)
    assert power_coloring(path_graph(65), 1, "greedy").palette_size == 2


# -- χ of OR powers from the base graph, against oracles that build the power --


def _graphs_for_the_square_oracle():
    """Every labelled graph on 1-4 vertices, then 30 seeded graphs on 5-6."""
    graphs = []
    for V in range(1, 5):
        pairs = list(combinations(range(V), 2))
        for mask in range(1 << len(pairs)):
            graphs.append(Graph.from_edges(V, [e for i, e in enumerate(pairs) if mask >> i & 1]))
    rng = random.Random("power-chi-squares")
    for _ in range(30):
        V = rng.randint(5, 6)
        density = rng.choice((0.3, 0.5, 0.7))
        graphs.append(Graph.from_edges(V, [e for e in combinations(range(V), 2) if rng.random() < density]))
    return graphs


def test_power_chromatic_number_matches_the_exact_search_on_the_square():
    graphs = _graphs_for_the_square_oracle()
    assert len(graphs) == 1 + 2 + 8 + 64 + 30
    for g in graphs:
        chi = exact_chromatic_number(or_power(g, 2))[0]
        assert power_chromatic_number(g, 1) == exact_chromatic_number(g)[0]
        assert power_chromatic_number(g, 2) == chi
        c = power_coloring(g, 2, "exact")
        assert c.palette_size == chi
        assert is_valid_coloring(or_power(g, 2), c)


@pytest.mark.parametrize(
    "g",
    [cycle_graph(5), cycle_graph(9), prism_graph(), path_graph(6), complete_graph(4)],
    ids=["C5", "C9", "prism", "P6", "K4"],
)
def test_exact_power_coloring_of_the_cube_has_the_least_palette(g):
    # 64 (K4^3) to 729 (C9^3) vertices, all but K4^3 past the exact search's guard
    c = power_coloring(g, 3, "exact")
    assert c.palette_size == power_chromatic_number(g, 3)
    assert is_valid_coloring(or_power(g, 3), c)


def test_exact_power_coloring_runs_the_exact_search_on_the_base_only(monkeypatch):
    exact, sizes = chromacode.coloring.exact_chromatic_number, []

    def base_only(g, *args, **kwargs):
        sizes.append(g.vertex_count)
        return exact(g, *args, **kwargs)

    monkeypatch.setattr(chromacode.coloring, "exact_chromatic_number", base_only)
    for g, n in ((cycle_graph(5), 3), (prism_graph(), 2), (RELABELED_C5, 1), (make_graph("edgeless", 3), 3)):
        sizes.clear()
        c = power_coloring(g, n, "exact")
        assert c.palette_size == power_chromatic_number(g, n)
        assert is_valid_coloring(or_power(g, n), c)
        assert sizes and set(sizes) == {g.vertex_count}


@pytest.mark.parametrize(
    "V,n",
    [(5, n) for n in range(1, 6)] + [(7, n) for n in range(1, 5)] + [(9, 2), (9, 3)],
)
def test_power_chromatic_number_of_odd_cycles_is_stahls_closed_form(V, n):
    assert power_chromatic_number(cycle_graph(V), n) == odd_cycle_chi(n, V // 2)


def test_power_chromatic_number_of_complete_graphs_and_the_prism():
    # K4^5 needs a 1024-set cover, more sets than Python's default recursion
    # limit has frames: the search keeps its own stack
    for V in range(1, 5):
        for n in range(1, 6):
            assert power_chromatic_number(complete_graph(V), n) == V**n
    for n in range(1, 6):
        assert power_chromatic_number(prism_graph(), n) == 3**n


def _cover(g, b):
    """`_b_fold_cover` over the maximal independent sets of g as bitsets."""
    mis = [sum(1 << v for v in s) for s in maximal_independent_sets(g)]
    a, S = _b_fold_cover(g, mis, b, time.monotonic(), itertools.count(1))
    return FractionalColoring(a, b, S)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_b_fold_cover_of_odd_cycles_is_the_window_count(k):
    g = cycle_graph(2 * k + 1)
    for b in range(1, 13):
        fc = _cover(g, b)
        assert fc.a == fractional_chromatic_cycle(k, b)["chi_b"]
        assert fc.b == b and is_valid_b_fold(g, fc)


@pytest.mark.parametrize(
    "g,b",
    [(cycle_graph(5), 2), (cycle_graph(5), 3), (cycle_graph(7), 2), (path_graph(4), 3),
     (prism_graph(), 2), (complete_graph(3), 2), (RELABELED_C5, 2),
     (Graph.from_edges(5, [(0, 1), (0, 4), (1, 2), (1, 3), (2, 3), (3, 4)]), 2)],
    ids=["C5-b2", "C5-b3", "C7-b2", "P4-b3", "prism-b2", "K3-b2", "relabeled-C5-b2", "A_f1-b2"],
)
def test_b_fold_cover_is_the_least_a_of_the_exhaustive_search(g, b):
    a = _cover(g, b).a
    assert b_fold_coloring_search(g, a, b) is not None
    assert b_fold_coloring_search(g, a - 1, b) is None


def test_power_chromatic_number_refusals(monkeypatch):
    # a clock that moves 100 s a read: on C5 the exact χ of the base runs out
    # at its first tick (100 s after its own start); on the bipartite P6 it
    # returns before its first tick, and the cover search runs out 200 s after
    # the shared start
    for g, elapsed in ((cycle_graph(5), 100.0), (path_graph(6), 200.0)):
        clock = SimpleNamespace(monotonic=itertools.count(0.0, 100.0).__next__)
        monkeypatch.setattr(chromacode.coloring, "time", clock)
        with pytest.raises(GuardExceeded) as info:
            power_chromatic_number(g, 3)
        assert info.value.what == "exact coloring time (s)"
        assert (info.value.size, info.value.limit) == (elapsed, CHI_TIMEOUT_DEFAULT)
    monkeypatch.undo()
    with pytest.raises(GuardExceeded, match="^instance too large: vertex count = 25 exceeds guard 24$"):
        power_chromatic_number(path_graph(25), 2)
    # n = 1 lists no maximal independent sets: only the exact search's guard (64) holds
    assert power_chromatic_number(path_graph(30), 1) == exact_chromatic_number(path_graph(30))[0] == 2
    for n in (0, -1):
        with pytest.raises(UsageError, match="n must be >= 1"):
            power_chromatic_number(cycle_graph(5), n)


def test_power_chromatic_number_counts_its_nodes_over_all_levels(monkeypatch):
    # C5^5 pops 17 + 41 + 101 + 255 = 414 cover search nodes over its four
    # levels: a cap of 413 refuses the call, though its last level alone fits
    monkeypatch.setattr(chromacode.coloring, "COVER_NODES", 414)
    assert power_chromatic_number(cycle_graph(5), 5) == 125
    monkeypatch.setattr(chromacode.coloring, "COVER_NODES", 413)
    assert _cover(cycle_graph(5), 50).a == 125
    with pytest.raises(GuardExceeded) as info:
        power_chromatic_number(cycle_graph(5), 5)
    assert info.value.what == "b-fold cover search nodes"
    assert (info.value.size, info.value.limit) == (414, 413)
