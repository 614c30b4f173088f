import itertools

import pytest

from chromacode import (
    GuardExceeded,
    cycle_graph,
    degree_formula,
    encode_tuple,
    make_graph,
    or_power,
    path_graph,
    prism_graph,
)


def test_tuple_codec():
    assert encode_tuple((1, 2, 3), 5) == 1 * 25 + 2 * 5 + 3
    # big-endian: tuples in lexicographic order get consecutive indices
    for idx, tup in enumerate(itertools.product(range(3), repeat=3)):
        assert encode_tuple(tup, 3) == idx


def test_power_one_is_base():
    g = cycle_graph(5)
    g1 = or_power(g, 1)
    assert g1.edges() == g.edges()
    assert g1.tuple_len == 1


def test_c5_squared_degree_and_edges():
    g2 = or_power(cycle_graph(5), 2)
    assert g2.vertex_count == 25
    assert set(g2.degrees()) == {12}
    assert g2.edge_count == 25 * 12 // 2


def test_adjacent_iff_first_differing_coordinate_adjacent():
    g = cycle_graph(5)
    g2 = or_power(g, 2)
    tuples = list(itertools.product(range(5), repeat=2))
    for u, v in itertools.combinations(range(25), 2):
        a, b = tuples[u], tuples[v]
        if a[0] != b[0]:
            expected = g.has_edge(a[0], b[0])
        else:
            expected = g.has_edge(a[1], b[1])
        assert g2.has_edge(u, v) == expected


def test_blocks_are_previous_power():
    g = cycle_graph(5)
    a3 = or_power(g, 3).adjacency_matrix()
    a2 = or_power(g, 2).adjacency_matrix()
    for l in range(5):
        block = slice(25 * l, 25 * (l + 1))
        assert (a3[block, block] == a2).all()


def test_cross_edge_count_complete_between_adjacent_blocks():
    a2 = or_power(cycle_graph(5), 2).adjacency_matrix()
    assert a2[0:5, 5:10].sum() == 25  # blocks 0 and 1: adjacent in C5
    assert a2[0:5, 10:15].sum() == 0  # blocks 0 and 2: not adjacent


def test_power_guard():
    with pytest.raises(GuardExceeded):
        or_power(cycle_graph(5), 7)
    or_power(cycle_graph(5), 7, guard=5**7)  # explicit override


def test_power_guard_bounds_the_exponent_of_a_one_vertex_base():
    # K1^n has one vertex at every n, but building it takes n - 1 passes:
    # n past the guard's bit length (14 for the default 10 000) is refused
    k1 = make_graph("complete", 1)
    with pytest.raises(GuardExceeded, match="power exponent n") as exc:
        or_power(k1, 15)
    assert (exc.value.size, exc.value.limit) == (15, 14)
    assert or_power(k1, 14).vertex_count == 1


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize(
    "g,family,d",
    [
        (cycle_graph(4), "cycle", 2),
        (cycle_graph(5), "cycle", 2),
        (prism_graph(), "d-regular", 3),
        (path_graph(3), "general", None),
    ],
)
def test_degree_formula_matches_bruteforce(g, family, d, n):
    gn = or_power(g, n)
    formula = degree_formula(family, n, V=g.vertex_count, d=d, base_graph=g)
    brute = list(gn.degrees())
    V = g.vertex_count
    if family == "general":
        # the formula gives the degrees of the diagonal tuples (x, ..., x)
        diag = [brute[encode_tuple((x,) * n, V)] for x in range(V)]
        assert formula == diag
    else:
        # regular families: a single scalar shared by every tuple
        assert set(brute) == {formula}


def test_tuple_degree_matches_bruteforce():
    # coordinate j (big-endian, 0-based) of a tuple contributes deg(x_j)·V^{n-1-j}
    g = path_graph(3)
    gn = or_power(g, 3)
    for idx, tup in enumerate(itertools.product(range(3), repeat=3)):
        assert sum(g.degree(x) * 3 ** (2 - j) for j, x in enumerate(tup)) == gn.degree(idx)


def test_power_annotations_in_json():
    g2 = or_power(make_graph("cycle", 4), 2)
    d = g2.to_dict()
    assert d["vertices"] == 16
    assert d["tuple_base"] == 4 and d["tuple_len"] == 2


def test_degree_rule_on_a_one_vertex_base():
    # V = 1: the power is one vertex, and d(V^n − 1)/(V − 1) reads n·d
    assert degree_formula("d-regular", 3, V=1, d=0) == 0
    assert degree_formula("general", 4, base_graph=make_graph("complete", 1)) == [0]
