import json
import random

import numpy as np
import pytest

from chromacode import (
    Graph,
    GuardExceeded,
    UsageError,
    complete_graph,
    cycle_graph,
    make_graph,
    max_independent_set_size,
    maximal_independent_sets,
    or_power,
    path_graph,
    prism_graph,
)
from chromacode.graphs import _maximal_cliques, bits_to_list


def test_from_edges_basic():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert g.vertex_count == 4
    assert g.edge_count == 2
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    assert g.neighbors(0) == [1]
    assert g.degrees() == [1, 1, 1, 1]


def test_vertex_queries_refuse_indices_out_of_range():
    # a negative index must not wrap to vertex V - 1, nor a shift past the
    # row answer False: every index outside 0..V-1 is a UsageError
    g = cycle_graph(5)
    for call in (
        lambda: g.has_edge(-1, 0),
        lambda: g.has_edge(0, 5),
        lambda: g.has_edge(5, 0),
        lambda: g.has_edge(0, -1),
        lambda: g.neighbors(-1),
        lambda: g.neighbors(5),
        lambda: g.degree(5),
    ):
        with pytest.raises(UsageError, match="out of range"):
            call()
    # every in-range answer is that of C5's edges {v, v + 1 mod 5}
    for u in range(5):
        assert g.neighbors(u) == sorted({(u - 1) % 5, (u + 1) % 5})
        for v in range(5):
            assert g.has_edge(u, v) == ((u - v) % 5 in (1, 4))


@pytest.mark.parametrize(
    "edges", [[(0, 0)], [(0, 1), (1, 0)], [(0, 5)], [(-1, 0)]]
)
def test_from_edges_rejects_bad_input(edges):
    with pytest.raises(UsageError):
        Graph.from_edges(4, edges)


def test_edges_sorted_lexicographically():
    g = Graph.from_edges(4, [(3, 2), (1, 0), (0, 3)])
    assert g.edges() == [(0, 1), (0, 3), (2, 3)]


def test_json_roundtrip():
    g = cycle_graph(5)
    d = json.loads(g.to_json())
    assert d == {"vertices": 5, "edges": [[0, 1], [0, 4], [1, 2], [2, 3], [3, 4]]}
    assert Graph.from_json(g.to_json()) == g


def test_adjacency_matrix_symmetric():
    a = cycle_graph(4).adjacency_matrix()
    assert (a == a.T).all()
    assert a.sum() == 8


def _random_graph(rng, V, p=0.5):
    edges = [(u, v) for u in range(V) for v in range(u + 1, V) if rng.random() < p]
    return Graph.from_edges(V, edges)


def _adjacency_by_edges(g):
    """The edge-loop construction the bitset unpacking replaced."""
    m = np.zeros((g.vertex_count, g.vertex_count), dtype=np.int64)
    for u, v in g.edges():
        m[u, v] = m[v, u] = 1
    return m


def _adjacency_cases():
    rng = random.Random("adjacency")
    # row widths that are and are not a whole number of bytes
    yield from (_random_graph(rng, V) for V in (1, 7, 8, 9, 64))
    yield or_power(cycle_graph(5), 3)  # 125 vertices
    for _ in range(50):
        yield _random_graph(rng, rng.randint(1, 40), rng.random())


def test_adjacency_matrix_unpacks_the_bitset_rows():
    for g in _adjacency_cases():
        a = g.adjacency_matrix()
        assert a.dtype == np.int64 and a.shape == (g.vertex_count, g.vertex_count)
        assert np.array_equal(a, _adjacency_by_edges(g))
        assert np.array_equal(a, a.T) and not a.diagonal().any()


def test_named_families():
    assert cycle_graph(4).degrees() == [2, 2, 2, 2]
    assert complete_graph(5).edge_count == 10
    assert path_graph(3).edges() == [(0, 1), (1, 2)]
    prism = prism_graph()
    assert prism.vertex_count == 6
    assert prism.degrees() == [3] * 6


def test_make_graph_kinds():
    assert make_graph("cycle", 5) == cycle_graph(5)
    assert make_graph("complete", 4) == complete_graph(4)
    assert make_graph("edgeless", 3).edge_count == 0
    g = make_graph("custom", 3, edges=[(0, 2)])
    assert g.edges() == [(0, 2)]
    with pytest.raises(UsageError):
        make_graph("frobnicate", 3)


def test_maximal_independent_sets_c5():
    sets = maximal_independent_sets(cycle_graph(5))
    assert sets == [(0, 2), (0, 3), (1, 3), (1, 4), (2, 4)]
    assert max_independent_set_size(cycle_graph(5)) == 2
    assert max_independent_set_size(complete_graph(6)) == 1
    assert max_independent_set_size(cycle_graph(6)) == 3


def test_mis_guard():
    for mis in (maximal_independent_sets, max_independent_set_size):
        with pytest.raises(GuardExceeded) as exc:
            mis(cycle_graph(30))
        assert (exc.value.what, exc.value.limit) == ("vertex count", 24)
        # explicit override wins
        assert mis(cycle_graph(30), guard=30)


def test_max_independent_set_size_matches_the_largest_maximal_independent_set():
    rng = random.Random("alpha")
    for _ in range(400):
        V = rng.randint(1, 20)
        p = rng.random()
        edges = [(u, v) for u in range(V) for v in range(u + 1, V) if rng.random() < p]
        g = Graph.from_edges(V, edges)
        assert max_independent_set_size(g) == max(map(len, maximal_independent_sets(g)))


def _reference_maximal_cliques(adj, candidates, min_size=0):
    """The Bron-Kerbosch loop that listed each node's vertices with
    `bits_to_list`, kept as the oracle of `graphs._maximal_cliques`."""
    out = []

    def expand(r, p, x):
        if r.bit_count() + p.bit_count() < min_size:
            return
        if p == 0 and x == 0:
            out.append(r)
            return
        pivot = max(bits_to_list(p | x), key=lambda u: (p & adj[u]).bit_count())
        for v in bits_to_list(p & ~adj[pivot]):
            bit = 1 << v
            expand(r | bit, p & adj[v], x & adj[v])
            p &= ~bit
            x |= bit

    expand(0, candidates, 0)
    return out


def test_maximal_cliques_match_the_listing_reference():
    # the same cliques in the same order, so exact χ's search is unchanged
    rng = random.Random("cliques")
    listed = 0
    for _ in range(150):
        V = rng.randint(1, 40)
        g = _random_graph(rng, V, rng.choice((0.1, 0.3, 0.5, 0.7)))
        adj = [g.neighbors_bitset(v) for v in range(V)]
        candidates = rng.getrandbits(V) if rng.random() < 0.5 else (1 << V) - 1
        min_size = rng.choice((0, 0, 2, 4))
        got = _maximal_cliques(adj, candidates, min_size)
        assert got == _reference_maximal_cliques(adj, candidates, min_size)
        listed += len(got)
    assert listed > 10_000
