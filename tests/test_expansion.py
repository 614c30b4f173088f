import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from chromacode import (
    Graph,
    UsageError,
    complete_graph,
    cycle_graph,
    expansion_bounds,
    expansion_rate,
    graph_spectrum,
    hong_bound,
    or_power,
    prism_graph,
    tanner_lower_bound,
)


def test_expansion_rate_exact():
    c5 = cycle_graph(5)
    assert expansion_rate(c5, [0]) == Fraction(2)
    assert expansion_rate(c5, [0, 1]) == Fraction(2, 2)
    k5 = complete_graph(5)
    assert expansion_rate(k5, [0, 1]) == Fraction(3, 2)


def test_expansion_rate_rejects_bad_subset():
    with pytest.raises(UsageError):
        expansion_rate(cycle_graph(5), [])
    with pytest.raises(UsageError):
        expansion_rate(cycle_graph(5), [0, 9])


def test_tanner_lower_bound_formula():
    # d^2 / (Λ^2 + (d^2 - Λ^2)|Y|/V)
    got = tanner_lower_bound(4, 16, 4, 2.0)
    assert got == pytest.approx(16 / (4 + 12 * 4 / 16), abs=1e-12)


def test_complete_family_is_the_upper_envelope():
    # every family's upper bound is the complete graph's rate, which K_{V^n} meets
    k25 = complete_graph(25)
    for b in (expansion_bounds("regular", 5, 2, 5, d=2, lam=1.0), expansion_bounds("general", 5, 2, 5)):
        assert b.upper == (25 - 5) / 5 == float(expansion_rate(k25, range(5)))


def test_cycle_power_bounds_contain_measured_rates():
    g2 = or_power(cycle_graph(5), 2)
    spec = graph_spectrum(g2)
    lam = max(spec.values[1], abs(spec.values[-1]))
    for y in ([0], [0, 1, 2], list(range(10))):
        rate = float(expansion_rate(g2, y))
        b = expansion_bounds("regular", 5, 2, len(y), d=2, lam=lam)
        assert not b.lam_is_bound
        assert b.lower - 1e-9 <= rate <= b.upper + 1e-9


def test_cycle_bounds_fall_back_to_hong_magnitude():
    # without Λ the report carries the hong magnitude; `general` does not read it
    b = expansion_bounds("general", 5, 2, 3, d=2)
    assert b.lam_is_bound and b.lam == -hong_bound(25)
    assert b.lower >= 0


def test_regular_family_bounds():
    g2 = or_power(complete_graph(4), 2)
    spec = graph_spectrum(g2)
    lam = max(spec.values[1], abs(spec.values[-1]))
    b = expansion_bounds("regular", 4, 2, 4, d=3, lam=lam)
    rate = float(expansion_rate(g2, [0, 1, 2, 3]))
    assert b.lower - 1e-9 <= rate <= b.upper + 1e-9


def test_regular_family_is_never_below_the_general_one():
    # C5^3 at |Y| = 1: Tanner's bound gives 3.61, the least degree 62, the rate
    spec = graph_spectrum(cycle_graph(5), 3)
    lam = max(spec.values[1], abs(spec.values[-1]))
    assert expansion_bounds("regular", 5, 3, 1, d=2, lam=lam).lower == 62.0
    for y_size in (1, 2, 25, 100, 125):
        regular = expansion_bounds("regular", 5, 3, y_size, d=2, lam=lam)
        assert regular.lower >= expansion_bounds("general", 5, 3, y_size, d=2).lower


@pytest.mark.parametrize("g", [cycle_graph(4), complete_graph(3), cycle_graph(5), prism_graph()], ids=["C4", "K3", "C5", "prism"])
def test_regular_family_holds_on_every_small_subset_of_a_square(g):
    g2 = or_power(g, 2)
    spec = graph_spectrum(g2)
    lam = max(spec.values[1], abs(spec.values[-1]))
    for size in (1, 2, 3):
        for y in combinations(range(g2.vertex_count), size):
            rate = float(expansion_rate(g2, y))
            b = expansion_bounds("regular", g.vertex_count, 2, size, d=g.degree(0), lam=lam)
            assert b.lower - 1e-9 <= rate <= b.upper + 1e-9, y


def test_expansion_bounds_usage_errors():
    with pytest.raises(UsageError):
        expansion_bounds("regular", 5, 2, 3)  # missing d, lam
    with pytest.raises(UsageError, match="exceeds the vertex count"):
        expansion_bounds("regular", 5, 2, 26, d=2, lam=1.0)  # |Y| > V^n
    # `cycle` is `regular` at d = 2, and `complete` is every family's upper bound
    for family in ("cycle", "complete"):
        with pytest.raises(UsageError, match=f"^unknown expansion family '{family}'$"):
            expansion_bounds(family, 5, 2, 3, d=2, lam=1.0)


def test_induced_lambda_relation_on_cycle_power():
    # λ1(block l) <= λ2(G^n) + (deg - λ2(G^n))/V on the regular power C5^3
    g3 = or_power(cycle_graph(5), 3)
    (deg,) = set(g3.degrees())
    a = g3.adjacency_matrix()
    lam2 = np.linalg.eigvalsh(a)[-2]
    rhs = lam2 + (deg - lam2) / 5
    for l in range(5):
        block = slice(25 * l, 25 * (l + 1))
        assert np.linalg.eigvalsh(a[block, block])[-1] <= rhs + 1e-9


def test_tanner_bound_of_an_edgeless_power_is_zero():
    # degree 0 and Λ = 0 leave Tanner's expression 0/0; no vertex has a neighbor
    assert tanner_lower_bound(0, 9, 1, 0.0) == 0.0
    for V, n in ((1, 1), (1, 2), (3, 1), (3, 2)):
        b = expansion_bounds("regular", V, n, 1, d=0, lam=0.0)
        assert b.lower == 0.0
        assert b.upper == V**n - 1


def _random_irregular_graph(rng):
    while True:
        V = rng.randint(3, 6)
        edges = [(u, v) for u in range(V) for v in range(u + 1, V) if rng.random() < 0.5]
        g = Graph.from_edges(V, edges)
        if len(set(g.degrees())) > 1:
            return g


def test_general_bound_holds_on_irregular_powers():
    # every member of Y has at least or_power_degree(δ, V, n) neighbours, at
    # most |Y| - 1 of them in Y; Tanner's bound at degree 2 does not hold here
    rng = random.Random("expansion-general")
    positive = 0
    for _ in range(60):
        g = _random_irregular_graph(rng)
        V, delta = g.vertex_count, min(g.degrees())
        for n in (1, 2):
            gn = or_power(g, n)
            y = sorted(rng.sample(range(V**n), rng.randint(1, V**n)))
            rate = float(expansion_rate(gn, y))
            b = expansion_bounds("general", V, n, len(y), d=delta)
            assert b.lower - 1e-9 <= rate <= b.upper + 1e-9
            assert b.lower == max(0, min(gn.degrees()) + 1 - len(y)) / len(y)
            positive += b.lower > 0
    assert positive > 0


def test_general_bound_without_a_degree_is_zero():
    assert expansion_bounds("general", 5, 2, 3).lower == 0
    assert expansion_bounds("general", 5, 2, 3, lam=2.0).lower == 0
