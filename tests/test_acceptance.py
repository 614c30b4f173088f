"""Acceptance criteria, one test (or parametrized family) per criterion.

A `_RED` suffix marks a test of a published figure that the code refutes.
Such a test checks the quantity against the value proven right, from a
witness coloring or a counting bound built in the test itself, and asserts
that the published figure is not reached.  It passes:
  - criterion 3: 1.37 bits/symbol for C5^2 (proven 1.4419281),
  - criterion 3: 1.41 as the high edge of the C5^3 window (proven 1.4152614),
  - criterion 4: chi_b(C5) = 2b+1 for b = 3, 4 (proven 8 and 10).
"""

import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from chromacode import (
    Coloring,
    Graph,
    build_codec,
    chromatic_entropy_bruteforce,
    chromatic_bounds_spectral,
    cycle_graph,
    cycle_power_largest_eig,
    encode_tuple,
    even_cycle_power_coloring,
    exact_chromatic_number,
    example1_spec,
    expansion_bounds,
    expansion_rate,
    fractional_entropy_lower_bound,
    gershgorin,
    graph_spectrum,
    is_valid_b_fold,
    is_valid_coloring,
    jacobi_eigenvalues,
    lambda1_window,
    odd_cycle_entropy_upper_bound,
    or_power,
    or_power_degree,
    path_graph,
    power_chromatic_number,
    prism_graph,
    roundtrip_exhaustive,
    simulate,
)
from test_coloring import b_fold_coloring_search, stahl_chi

AF1 = Graph.from_edges(5, [(0, 1), (0, 4), (1, 2), (1, 3), (2, 3), (3, 4)])


# -- criterion 1: chromatic sequence ------------------------------------------


def test_criterion_1_chi_sequence():
    seq = [power_chromatic_number(cycle_graph(5), m) for m in range(1, 7)]
    assert seq == [stahl_chi(m) for m in range(1, 7)] == [3, 8, 20, 50, 125, 313]


@pytest.mark.parametrize("n,chi", [(1, 3), (2, 8)])
def test_criterion_1_exact_solver_confirms(n, chi):
    start = time.monotonic()
    gn = or_power(cycle_graph(5), n)
    got, c = exact_chromatic_number(gn)
    assert got == chi
    assert is_valid_coloring(gn, c)
    assert time.monotonic() - start < 60.0


# -- criterion 2: even-cycle powers -------------------------------------------


@pytest.mark.parametrize("k,n,colors", [(2, 2, 4), (2, 3, 8), (3, 2, 4)])
def test_criterion_2_even_cycle_colorings(k, n, colors):
    c = even_cycle_power_coloring(k, n)
    assert c.palette_size == colors
    assert is_valid_coloring(or_power(cycle_graph(2 * k), n), c)


def test_criterion_2_exact_matches_power_of_two():
    gn = or_power(cycle_graph(4), 2)
    chi, _ = exact_chromatic_number(gn)
    assert chi == 4 == 2**2


# -- criterion 3: entropy values ----------------------------------------------

# Rows that are consecutive on this cycle are non-adjacent in C5: the
# complement of C5 is the cycle 0-2-4-1-3-0.
C5_COMPLEMENT_CYCLE = (0, 2, 4, 1, 3)


def _c5_lift(classes):
    """Color classes of C5[G] from the color classes of a graph G.

    Vertex (r, v) of C5[G] is r * |G| + v, as in `or_power`.  Row r is a copy
    of G, and two rows are completely joined when adjacent in C5 and not
    joined at all otherwise, so classes of non-adjacent rows may merge.  For
    each class size with m classes per row, copies are merged in pairs along
    the complement cycle: ceil(m/2), floor(m/2), ceil(m/2), floor(m/2),
    floor(m/2) pairs on its five edges, floor(5m/2) in all and at most m per
    row.  The copies left over stay on their own.
    """
    size = sum(len(c) for c in classes)
    by_size = {}
    for c in classes:
        by_size.setdefault(len(c), []).append(c)
    out = []
    for same in by_size.values():
        m = len(same)
        pieces = {r: [[r * size + v for v in c] for c in same] for r in range(5)}
        for i, pairs in enumerate((m - m // 2, m // 2, m - m // 2, m // 2, m // 2)):
            r, s = C5_COMPLEMENT_CYCLE[i], C5_COMPLEMENT_CYCLE[(i + 1) % 5]
            out += [pieces[r].pop() + pieces[s].pop() for _ in range(pairs)]
        for left in pieces.values():
            out += left
    return out


def _c5_power_witness(n):
    """(coloring, class sizes) of or_power(C5, n), lifted n times from K1."""
    classes = [[0]]
    for _ in range(n):
        classes = _c5_lift(classes)
    colors = [None] * 5**n
    for i, c in enumerate(classes):
        for v in c:
            colors[v] = i
    return Coloring.from_list(colors), [len(c) for c in classes]


def _per_symbol_entropy(sizes, n):
    """Bits per symbol of a coloring of an n-fold power with these class
    sizes, under the uniform law."""
    total = sum(sizes)
    return sum(s / total * math.log2(total / s) for s in sizes) / n


def _c5_squared_entropy_floor():
    """Lower bound, by counting, on the per-symbol entropy of any coloring of
    C5^2 under the uniform law.

    A class of C5^2 = C5[C5] lies in at most 2 non-adjacent rows, with at most
    2 vertices in each, and a 5-vertex row holds at most 2 disjoint such pairs.
    So each class is pair+pair (4), pair+single (3), pair (2), single+single
    (2) or single (1), with at most 10 pairs in all.  Merging two classes only
    lowers the entropy, so the loose singles are taken as merged in twos.
    """
    best = math.inf
    for n4, n3, n2 in itertools.product(range(6), range(11), range(11)):
        loose = 25 - 4 * n4 - 3 * n3 - 2 * n2
        if 2 * n4 + n3 + n2 > 10 or loose < 0:
            continue
        sizes = [4] * n4 + [3] * n3 + [2] * (n2 + loose // 2) + [1] * (loose % 2)
        best = min(best, _per_symbol_entropy(sizes, 2))
    return best


def test_criterion_3_c5_chromatic_entropy():
    assert chromatic_entropy_bruteforce(cycle_graph(5)) == pytest.approx(1.5219, abs=5e-3)


def test_criterion_3_example2_value_RED():
    """Published 1.37 bits/symbol for a C5^2 coloring; refuted.

    The alpha_2 window (5, 6) leaves one feasible profile, (1, 2, 5), so the
    window closes: lo = hi.  The coloring of C5^2 built here has exactly those
    class sizes, (4, 4, 4, 4, 4, 2, 2, 1), and 1.4419281 bits/symbol.  The
    counting floor equals it, so 1.4419281 is the chromatic entropy of C5^2
    under the uniform law and no coloring reaches 1.37.  PAPER.md holds only
    the abstract, which does not settle whether the published 1.37 belongs to
    n = 2 or is the n = 3 low edge (1.3726, checked by
    test_criterion_3_c5_cubed_window_low).
    """
    coloring, sizes = _c5_power_witness(2)
    assert is_valid_coloring(or_power(cycle_graph(5), 2), coloring)
    assert sorted(sizes) == [1, 2, 2, 4, 4, 4, 4, 4]
    h = _per_symbol_entropy(sizes, 2)
    assert _c5_squared_entropy_floor() == pytest.approx(h, abs=1e-9)
    res = odd_cycle_entropy_upper_bound(2, 2)
    assert res["lo"] == pytest.approx(h, abs=1e-9)
    assert res["hi"] == pytest.approx(h, abs=1e-9)
    assert 1.37 < res["lo"] - 5e-3


def test_criterion_3_c5_cubed_window_low():
    res = odd_cycle_entropy_upper_bound(2, 3)
    assert res["alpha_n_window"] == (12, 15)
    assert res["lo_profile"].alphas[0] == 1
    assert res["lo"] == pytest.approx(1.37, abs=5e-3)


def test_criterion_3_c5_cubed_window_high_RED():
    """Published high edge 1.41 of the C5^3 window; refuted.

    The high edge is the feasible profile with minimal alpha_3, (1, 2, 6, 12).
    The coloring of C5^3 built here from the C5^2 witness has exactly those
    classes (12 of 8 vertices, 6 of 4, 2 of 2, 1 of 1) and 1.4152614
    bits/symbol.  No integer profile with alpha_0 = 1 and alpha_3 in 12..15
    lands within 5e-3 of 1.41: the nearest give 1.40459 and 1.41526.  1.41 is
    1.41526 truncated, not rounded; PAPER.md does not settle which convention
    the paper uses.
    """
    coloring, sizes = _c5_power_witness(3)
    assert is_valid_coloring(or_power(cycle_graph(5), 3), coloring)
    assert sorted(sizes) == [1] + [2] * 2 + [4] * 6 + [8] * 12
    res = odd_cycle_entropy_upper_bound(2, 3)
    assert res["hi"] == pytest.approx(_per_symbol_entropy(sizes, 3), abs=1e-9)
    assert abs(res["hi"] - 1.41) > 5e-3


# -- criterion 4: fractional lower bound ---------------------------------------


def test_criterion_4_fractional_entropy_bound():
    lb = fractional_entropy_lower_bound(5)
    assert lb == pytest.approx(math.log2(2.5), abs=1e-6)
    assert lb <= chromatic_entropy_bruteforce(cycle_graph(5)) + 1e-12


@pytest.mark.parametrize("b", [1, 2])
def test_criterion_4_chi_b_small(b):
    fc = b_fold_coloring_search(cycle_graph(5), 2 * b + 1, b)
    assert fc is not None


@pytest.mark.parametrize("b", [3, 4])
def test_criterion_4_chi_b_large_RED(b):
    """Published chi_b(C5) = 2b+1 for b = 3, 4; refuted.

    alpha(C5) = 2, so each color class covers at most 2 of the 5 vertices,
    and a b-fold coloring, which covers every vertex b times, needs at least
    ceil(5b/2) colors: 8 for b = 3, 10 for b = 4.  The exhaustive search finds
    a coloring at that bound and none with 2b+1 = ceil(5b/2) - 1 colors.  The
    published 2b+1 holds only for b <= k = 2 (test_criterion_4_chi_b_small);
    Stahl (JCT-B 20, 1976) gives chi_b(C_{2k+1}) = 2b+1+floor((b-1)/k).
    """
    g = cycle_graph(5)
    a = math.ceil(5 * b / 2)
    fc = b_fold_coloring_search(g, a, b)
    assert fc is not None and is_valid_b_fold(g, fc)
    assert 2 * b + 1 == a - 1
    assert b_fold_coloring_search(g, 2 * b + 1, b) is None


# -- criterion 5: spectra -------------------------------------------------------


def test_criterion_5_c5_spectrum():
    got = sorted(graph_spectrum(cycle_graph(5)).distinct())
    assert np.allclose(got, [-1.618, 0.618, 2.0], atol=1e-3)


def test_criterion_5_c5_squared_spectrum():
    got = sorted(graph_spectrum(or_power(cycle_graph(5), 2)).distinct())
    assert np.allclose(got, [-6.09, -1.61803, 0.61803, 5.09016, 12.0], atol=1e-3)


@pytest.mark.parametrize("V,n", [(4, 2), (4, 3), (5, 2)])
def test_criterion_5_lambda1_closed_form(V, n):
    lam1 = graph_spectrum(or_power(cycle_graph(V), n)).lambda_1
    assert abs(lam1 - cycle_power_largest_eig(V, n)) < 1e-6


def test_criterion_5_jacobi_vs_numpy_oracle():
    for g in (cycle_graph(5), or_power(cycle_graph(4), 2), AF1):
        ours = graph_spectrum(g).values
        oracle = np.sort(np.linalg.eigvalsh(np.asarray(g.adjacency_matrix(), dtype=float)))[::-1]
        assert np.allclose(ours, oracle, atol=1e-8)


def test_criterion_5_jacobi_reference_vs_eigvalsh():
    # graph_spectrum itself runs eigvalsh, so the hand-written solver is
    # checked here directly
    c5 = cycle_graph(5)
    for g in (c5, or_power(cycle_graph(4), 2), AF1, or_power(c5, 2), or_power(prism_graph(), 2)):
        a = np.asarray(g.adjacency_matrix(), dtype=float)
        oracle = np.sort(np.linalg.eigvalsh(a))[::-1]
        assert np.allclose(jacobi_eigenvalues(a), oracle, atol=1e-8)


# -- criterion 6: eigenvalue lower bounds ---------------------------------------


def test_criterion_6_brigham_hong_on_c5_squared():
    from chromacode import smallest_eig_lower_bounds

    b = smallest_eig_lower_bounds(25, 150, [12] * 25)
    assert b["brigham"] == pytest.approx(-60.0, abs=1e-9)
    assert b["hong"] == pytest.approx(-12.748, abs=1e-3)
    lam_25 = graph_spectrum(or_power(cycle_graph(5), 2)).lambda_min
    assert lam_25 == pytest.approx(-6.09, abs=1e-2)
    assert b["brigham"] <= lam_25
    assert b["hong"] <= lam_25


# -- criterion 7: Gershgorin ----------------------------------------------------


def test_criterion_7_scalar_intervals():
    res = gershgorin(AF1.adjacency_matrix(), "scalar")
    assert sorted(res.intervals) == [(-3.0, 3.0)] * 2 + [(-2.0, 2.0)] * 3


def test_criterion_7_block_envelope_and_window():
    g2 = or_power(AF1, 2)
    block = gershgorin(g2.adjacency_matrix(), "block", block_size=5)
    assert block.scalar_envelope == (-18.0, 18.0)
    w = lambda1_window(AF1, 2)
    assert w["refined"] == (12.0, 15)
    assert w["refined"][0] - 1e-9 <= w["lambda_1"] <= w["refined"][1] + 1e-9


def test_criterion_7_af1_eigenvalues():
    got = sorted(graph_spectrum(AF1).values)
    assert np.allclose(got, [-2.0, -1.1701, 0.0, 0.6889, 2.4812], atol=1e-3)


# -- criterion 8: property-based bound sandwiches -------------------------------


def _random_connected_graphs(count, seed):
    rng = random.Random(seed)
    graphs = []
    while len(graphs) < count:
        V = rng.randint(4, 6)
        p = rng.uniform(0.3, 0.6)
        edges = [
            (u, v) for u, v in itertools.combinations(range(V), 2) if rng.random() < p
        ]
        g = Graph.from_edges(V, edges)
        # connectivity via bitset BFS
        seen = 1
        frontier = [0]
        while frontier:
            v = frontier.pop()
            for u in g.neighbors(v):
                if not seen >> u & 1:
                    seen |= 1 << u
                    frontier.append(u)
        if seen == (1 << V) - 1:
            graphs.append(g)
    return graphs


def test_criterion_8_property_based_sandwiches():
    start = time.monotonic()
    corpus = _random_connected_graphs(50, seed=20260826)
    rng = random.Random(1)
    for g in corpus:
        g2 = or_power(g, 2)
        chi1, _ = exact_chromatic_number(g)
        chi2, _ = exact_chromatic_number(g2)
        specs = {1: graph_spectrum(g), 2: graph_spectrum(g2)}

        rep = chromatic_bounds_spectral("hoffman-direct", g=g)
        assert rep.lower - 1e-9 <= chi1 <= rep.upper + 1e-9
        rep = chromatic_bounds_spectral("hoffman-direct", g=g2)
        assert rep.lower - 1e-9 <= chi2 <= rep.upper + 1e-9
        rep = chromatic_bounds_spectral("hoffman-direct", g=g, n=2, power=g2)
        assert rep.lower - 1e-9 <= chi2 <= rep.upper + 1e-9
        rep = chromatic_bounds_spectral("degree", power=g2)
        assert rep.lower - 1e-9 <= chi2 <= rep.upper + 1e-9
        rep = chromatic_bounds_spectral("general", g=g, n=2, power=g2)
        assert rep.lower - 1e-9 <= chi2 <= rep.upper + 1e-9
        rep = chromatic_bounds_spectral("gct-split", power=g2)
        assert rep.lower - 1e-9 <= chi2 <= rep.upper + 1e-9

        for graph, spec in ((g, specs[1]), (g2, specs[2])):
            scalar = gershgorin(graph.adjacency_matrix(), "scalar")
            assert all(scalar.contains(v) for v in spec.values)
        blocked = gershgorin(g2.adjacency_matrix(), "block", block_size=g.vertex_count)
        assert all(blocked.contains(v) for v in specs[2].values)

        lam = max(specs[2].values[1], abs(specs[2].values[-1]))
        y = sorted(rng.sample(range(g2.vertex_count), rng.randint(1, g.vertex_count)))
        rate = float(expansion_rate(g2, y))
        degrees = g2.degrees()
        if min(degrees) == max(degrees):
            b = expansion_bounds(
                "regular", g.vertex_count, 2, len(y), d=g.degree(0), lam=lam
            )
            assert b.lower - 1e-9 <= rate
        upper = (g2.vertex_count - len(y)) / len(y)  # the complete graph's rate
        assert rate <= upper + 1e-9
    assert time.monotonic() - start < 300.0


# -- criterion 9: codec losslessness --------------------------------------------


@pytest.mark.parametrize("n,count", [(1, 8), (2, 64), (3, 512)])
def test_criterion_9_roundtrip(n, count):
    spec, pmf = example1_spec()
    plan = build_codec(spec, pmf, n)
    assert roundtrip_exhaustive(plan) == count


def test_criterion_9_simulation_rate_and_seed_stability():
    spec, pmf = example1_spec()
    r1 = simulate(spec, pmf, 1, 100_000, seed=12345)
    r2 = simulate(spec, pmf, 1, 100_000, seed=12345)
    assert r1.lossless
    assert all(abs(rate - 1.0) <= 0.02 for rate in r1.rates)
    assert r1.to_json().encode() == r2.to_json().encode()


# -- criterion 10: degree formulas ----------------------------------------------


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize(
    "g,family,d",
    [
        (cycle_graph(4), "cycle", None),
        (cycle_graph(5), "cycle", None),
        (prism_graph(), "d-regular", 3),
        (path_graph(3), "general", None),
    ],
)
def test_criterion_10_degree_formulas(g, family, d, n):
    gn = or_power(g, n)
    brute = list(gn.degrees())
    V = g.vertex_count
    if family == "general":
        diag = [brute[encode_tuple((x,) * n, V)] for x in range(V)]
        assert [or_power_degree(g.degree(x), V, n) for x in range(V)] == diag
    else:
        assert set(brute) == {or_power_degree(g.degree(0) if d is None else d, V, n)}


# -- trend checks standing in for asymptotic statements --------------------------


def test_trend_gain_grows_with_n():
    # the palette gain 3^n / χ(C5^n) over the per-coordinate 3-coloring
    gains = [Fraction(3**n, power_chromatic_number(cycle_graph(5), n)) for n in range(1, 7)]
    assert all(b > a for a, b in zip(gains, gains[1:]))
    assert gains[-1] > Fraction(2)


def test_trend_entropy_window_approaches_graph_entropy():
    limit = math.log2(2.5)
    lows = [odd_cycle_entropy_upper_bound(2, n)["lo"] for n in range(1, 6)]
    assert all(b <= a + 1e-9 for a, b in zip(lows, lows[1:]))
    assert all(lo >= limit - 1e-9 for lo in lows)
