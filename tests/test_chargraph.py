import random
from fractions import Fraction

import pytest

from chromacode import (
    FunctionSpec,
    Graph,
    JointPMF,
    UsageError,
    build_characteristic_graph,
    build_codec,
    cycle_graph,
    example1_spec,
    roundtrip_exhaustive,
)
from chromacode.chargraph import _characteristic_rows, _positive_cells


def test_function_spec_normalizes_labels():
    spec = FunctionSpec.from_table([["a", "b"], ["b", "a"]])
    assert spec.n1 == spec.n2 == 2
    assert spec.f(0, 0) == 0 and spec.f(0, 1) == 1 and spec.f(1, 0) == 1


def test_function_spec_json_roundtrip():
    spec, _ = example1_spec()
    assert FunctionSpec.from_json(spec.to_json()) == spec


def test_function_spec_rejects_ragged_table():
    with pytest.raises(UsageError):
        FunctionSpec.from_table([[0, 1], [0]])


def test_pmf_must_sum_to_one():
    with pytest.raises(UsageError):
        JointPMF.from_rows([["1/2", "1/4"]])
    with pytest.raises(UsageError):
        JointPMF.from_rows([["3/2", "-1/2"]])
    # a copy with a change is checked as well
    pmf = JointPMF.uniform(1, 2)
    for probs in (((Fraction(1, 2), Fraction(1, 4)),), ((Fraction(3, 2), Fraction(-1, 2)),)):
        with pytest.raises(UsageError):
            pmf._replace(probs=probs)


def test_pmf_uniform_and_marginals():
    pmf = JointPMF.uniform(4, 2)
    assert pmf.p(0, 0) == Fraction(1, 8)
    assert pmf.marginal(1) == [Fraction(1, 4)] * 4
    assert pmf.marginal(2) == [Fraction(1, 2)] * 2


def test_pmf_json_uniform_shorthand():
    pmf = JointPMF.from_json('"uniform"', 2, 2)
    assert pmf == JointPMF.uniform(2, 2)
    with pytest.raises(UsageError):
        JointPMF.from_json('"uniform"')


def test_pmf_json_rational_roundtrip():
    pmf = JointPMF.from_rows([["1/3", "1/6"], ["1/4", "1/4"]])
    assert JointPMF.from_json(pmf.to_json()) == pmf


def test_example1_characteristic_graphs():
    spec, pmf = example1_spec()
    g1 = build_characteristic_graph(spec, pmf, 1)
    g2 = build_characteristic_graph(spec, pmf, 2)
    assert g1 == cycle_graph(4)
    assert g2.edges() == [(0, 1)]


def test_zero_probability_pairs_drop_edges():
    spec, _ = example1_spec()
    # x2 = 1 never occurs: f(x1, 0) = x1 mod 2, so x1-confusability halves
    pmf = JointPMF.from_rows(
        [["1/4", "0"], ["1/4", "0"], ["1/4", "0"], ["1/4", "0"]]
    )
    g1 = build_characteristic_graph(spec, pmf, 1)
    assert g1.edges() == [(0, 1), (0, 3), (1, 2), (2, 3)]
    g2 = build_characteristic_graph(spec, pmf, 2)
    assert g2.edge_count == 0


def test_dimension_mismatch_is_usage_error():
    spec, _ = example1_spec()
    with pytest.raises(UsageError):
        build_characteristic_graph(spec, JointPMF.uniform(2, 2), 1)


# -- characteristic graphs against the per-(a, b, s) edge rule ---------------------


def _reference_graph(spec, pmf, source):
    """One Fraction comparison per (a, b, s): a ~ b iff some side value s has
    p(a, s) > 0, p(b, s) > 0 and f(a, s) != f(b, s)."""
    if source == 1:
        n, m, f, p = spec.n1, spec.n2, spec.f, pmf.p
    else:
        n, m = spec.n2, spec.n1
        f = lambda a, s: spec.f(s, a)
        p = lambda a, s: pmf.p(s, a)
    edges = [
        (a, b)
        for a in range(n)
        for b in range(a + 1, n)
        if any(p(a, s) > 0 and p(b, s) > 0 and f(a, s) != f(b, s) for s in range(m))
    ]
    return Graph.from_edges(n, edges)


def _zero_cell_spec(rng, zero_row, zero_col):
    n1, n2 = rng.randint(2, 6), rng.randint(2, 6)
    table = [[rng.randrange(rng.randint(2, 4)) for _ in range(n2)] for _ in range(n1)]
    weights = [[rng.randint(1, 9) if rng.random() < 0.6 else 0 for _ in range(n2)] for _ in range(n1)]
    row, col = rng.randrange(n1), rng.randrange(n2)
    if zero_row:
        weights[row] = [0] * n2
    if zero_col:
        for w in weights:
            w[col] = 0
    if not any(map(any, weights)):
        weights[(row + 1) % n1][(col + 1) % n2] = 1
    total = sum(map(sum, weights))
    return FunctionSpec.from_table(table), JointPMF.from_rows([[Fraction(w, total) for w in r] for r in weights])


@pytest.mark.parametrize("zero_row, zero_col", [(False, False), (True, False), (False, True), (True, True)])
def test_characteristic_graphs_match_the_per_pair_rule(zero_row, zero_col):
    rng = random.Random(f"chargraph-oracle:{zero_row}:{zero_col}")
    edges = 0
    for _ in range(60):
        spec, pmf = _zero_cell_spec(rng, zero_row, zero_col)
        # one call of the one-pass routine gives both sources' rows
        both = _characteristic_rows(_positive_cells(spec.table, pmf.probs), spec.n1, spec.n2)
        for source, rows in zip((1, 2), both):
            g = build_characteristic_graph(spec, pmf, source)
            assert g == _reference_graph(spec, pmf, source) == Graph(len(rows), rows)
            edges += g.edge_count
    assert edges  # the seeded specs are not all edgeless


@pytest.mark.parametrize(
    "rows",
    [
        [[0.25, 0.125], [0.0, 0.375], [0.125, 0.125]],  # dyadic: exact in binary
        [[0, 1], [0, 0], [0, 0]],
    ],
    ids=["float", "int"],
)
def test_float_and_int_cells_plan_as_their_exact_values(rows):
    spec = FunctionSpec.from_table([[0, 1], [1, 1], [2, 0]])
    pmf = JointPMF(tuple(map(tuple, rows)))
    exact = JointPMF.from_rows(rows)
    for source in (1, 2):
        assert build_characteristic_graph(spec, pmf, source) == _reference_graph(spec, exact, source)
    for n in (1, 2, 3):
        plan, ref = build_codec(spec, pmf, n), build_codec(spec, exact, n)
        assert (plan.codes, plan.avg_lengths, plan.decoder) == (ref.codes, ref.avg_lengths, ref.decoder)
        assert [list(p.items()) for p in plan.color_pmfs] == [list(p.items()) for p in ref.color_pmfs]
        support = sum(p > 0 for row in rows for p in row)
        assert roundtrip_exhaustive(plan) == support**n


def test_non_dyadic_float_cells_plan_on_their_binary_values():
    # the float total is 1.0, the exact total of the four binary values is not
    spec = FunctionSpec.from_table([[0, 1], [1, 0]])
    pmf = JointPMF(((0.1, 0.2), (0.3, 0.4)))
    cells = sum(Fraction(p) for row in pmf.probs for p in row)
    assert cells != 1
    plan = build_codec(spec, pmf, 2)
    assert all(sum(p.values()) == cells**2 for p in plan.color_pmfs)
    assert roundtrip_exhaustive(plan) == 16
