import dataclasses
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import accumulate, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chromacode import (
    AmbiguityError,
    FunctionSpec,
    Graph,
    GuardExceeded,
    JointPMF,
    RateReport,
    UsageError,
    build_characteristic_graph,
    build_codec,
    cycle_graph,
    decode_pair,
    encode_block,
    entropy_bits,
    example1_spec,
    roundtrip_exhaustive,
    simulate,
)
from chromacode import codec, coloring, encode_tuple, huffman_code, orpower
from chromacode.chargraph import _positive_cells
from chromacode.coloring import STRATEGIES, Coloring, power_coloring


@pytest.fixture(scope="module")
def ex1():
    return example1_spec()


@pytest.mark.parametrize("n,count", [(1, 8), (2, 64), (3, 512)])
def test_example1_roundtrip_all_blocks(ex1, n, count):
    spec, pmf = ex1
    plan = build_codec(spec, pmf, n)
    assert roundtrip_exhaustive(plan) == count


def test_example1_rates_are_one_bit(ex1):
    spec, pmf = ex1
    plan = build_codec(spec, pmf, 1)
    # G_X1 = C4 (2 colors), G_X2 = K2 (2 colors); both uniform -> 1 bit each
    assert plan.avg_lengths == (Fraction(1), Fraction(1))


def test_encode_decode_single_pair(ex1):
    spec, pmf = ex1
    plan = build_codec(spec, pmf, 2)
    bits1 = encode_block(plan, 1, (3, 0))
    bits2 = encode_block(plan, 2, (1, 1))
    assert decode_pair(plan, bits1, bits2) == (0, 1)


def test_encode_rejects_wrong_length(ex1):
    spec, pmf = ex1
    plan = build_codec(spec, pmf, 2)
    with pytest.raises(UsageError):
        encode_block(plan, 1, (0,))
    with pytest.raises(UsageError):
        encode_block(plan, 3, (0, 0))


def test_zero_probability_block_is_rejected():
    spec = FunctionSpec.from_table([[0, 1], [1, 0]])
    pmf = JointPMF.from_rows([["1/4", "1/4"], ["0", "1/2"]])
    plan = build_codec(spec, pmf, 1, coloring_strategy="exact")
    # both characteristic graphs are K2, so each source keeps two colors
    assert _block_colorings(plan)[0].palette_size == 2
    with pytest.raises(UsageError):
        # (x1, x2) = (1, 0) has zero probability: its color pair is refused
        decode_pair(plan, encode_block(plan, 1, (1,)), encode_block(plan, 2, (0,)))


def test_ambiguous_setup_raises():
    # edgeless characteristic graphs with disagreeing f on the support
    spec = FunctionSpec.from_table([[0, 0], [0, 1]])
    pmf = JointPMF.from_rows([["1/2", "0"], ["0", "1/2"]])
    with pytest.raises(AmbiguityError):
        build_codec(spec, pmf, 1, coloring_strategy="exact")


def test_strategies_agree_on_example1(ex1):
    spec, pmf = ex1
    for strategy in ("exact", "greedy", "product", "auto"):
        plan = build_codec(spec, pmf, 2, coloring_strategy=strategy)
        assert roundtrip_exhaustive(plan) == 64


def test_simulate_lossless_and_seeded(ex1):
    spec, pmf = ex1
    r1 = simulate(spec, pmf, 1, 2000, seed=42)
    r2 = simulate(spec, pmf, 1, 2000, seed=42)
    assert r1.to_json() == r2.to_json()
    assert r1.lossless
    assert all(abs(rate - 1.0) < 0.05 for rate in r1.rates)
    r3 = simulate(spec, pmf, 1, 2000, seed=43)
    assert r3.to_json() != r1.to_json() or r3.rates == r1.rates


def test_simulate_n2(ex1):
    spec, pmf = ex1
    r = simulate(spec, pmf, 2, 500, seed=0)
    assert r.lossless
    assert all(rate <= 1.0 + 1e-9 for rate in r.expected_rates)


# C5 with its vertices relabeled: `auto` cannot use the odd-cycle scheme for
# it and colors it with the exact solver.
RELABELED_C5_EDGES = [(0, 2), (2, 4), (4, 1), (1, 3), (3, 0)]


def _edge_spec(edges, V=5):
    """x2 = j names edge j; it has mass only on that edge's two endpoints,
    where f tells them apart, so G_X1 is the graph of `edges`."""
    table = [[0] * len(edges) for _ in range(V)]
    for j, (a, b) in enumerate(edges):
        table[b if j == 2 else a][j] = 1
    mass = Fraction(1, 2 * len(edges))
    probs = [[mass if x in e else Fraction(0) for e in edges] for x in range(V)]
    return FunctionSpec.from_table(table), JointPMF(tuple(map(tuple, probs)))


def test_relabeled_c5_codec_uses_exact_coloring():
    spec, pmf = _edge_spec(RELABELED_C5_EDGES)
    g1 = build_characteristic_graph(spec, pmf, 1)
    assert g1 == Graph.from_edges(5, RELABELED_C5_EDGES) != cycle_graph(5)
    # the exact 3-coloring of G_X1 decodes, so its vectors decode n-blocks:
    # no OR power is colored, and n = 3 is not held to the exact solver's
    # guard of 64 vertices
    rates = []
    for n in (1, 2, 3):
        plan = build_codec(spec, pmf, n)
        assert _block_colorings(plan)[0].palette_size == 3**n
        assert roundtrip_exhaustive(plan) == 10**n
        rates.append(plan.avg_lengths[0] / n)
    assert rates == [Fraction(8, 5), Fraction(39, 25), Fraction(572, 375)]


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_power_past_the_guard_raises_guard_exceeded(strategy):
    # the odd-cycle scheme used to report C5^7 (78 125 > 10 000 vertices) as a
    # UsageError; every strategy now raises GuardExceeded (CLI exit 3)
    V = 6 if strategy == "even-cycle" else 5
    spec, pmf = _edge_spec(cycle_graph(V).edges(), V)
    assert build_characteristic_graph(spec, pmf, 1) == cycle_graph(V)
    with pytest.raises(GuardExceeded):
        build_codec(spec, pmf, 7, coloring_strategy=strategy)


def _reference_simulate(spec, pmf, n, samples, seed, coloring_strategy="auto"):
    """`simulate` block by block: one scalar encode and decode per block.
    The plan comes from `codec.build_codec`, so a test that replaces it
    replaces it here too."""
    plan = codec.build_codec(spec, pmf, n, coloring_strategy)
    rng = random.Random(seed)
    pairs = [(x1, x2) for x1 in range(spec.n1) for x2 in range(spec.n2)]
    weights = [float(pmf.p(x1, x2)) for x1, x2 in pairs]
    bits = [0, 0]
    for _ in range(samples):
        draws = rng.choices(pairs, weights=weights, k=n)
        b1 = tuple(x1 for x1, _ in draws)
        b2 = tuple(x2 for _, x2 in draws)
        w1 = encode_block(plan, 1, b1)
        w2 = encode_block(plan, 2, b2)
        if decode_pair(plan, w1, w2) != tuple(spec.f(x1, x2) for x1, x2 in draws):
            raise AssertionError(f"decode mismatch on sample {b1},{b2}")
        bits[0] += len(w1)
        bits[1] += len(w2)
    denom = samples * n
    return RateReport(
        n=n,
        samples=samples,
        seed=seed,
        strategy=coloring_strategy,
        rates=(bits[0] / denom, bits[1] / denom),
        expected_rates=(plan.avg_lengths[0] / n, plan.avg_lengths[1] / n),
        coloring_entropies=(
            entropy_bits(plan.color_pmfs[0].values()) / n,
            entropy_bits(plan.color_pmfs[1].values()) / n,
        ),
        source_entropies=(entropy_bits(pmf.marginal(1)), entropy_bits(pmf.marginal(2))),
        lossless=True,
    )


def _example1_weighted():
    """Example 1 with p(x1, x2) ∝ x1 + x2 + 1: codewords of unequal length."""
    spec, _ = example1_spec()
    probs = tuple(tuple(Fraction(a + b + 1, 24) for b in range(2)) for a in range(4))
    return spec, JointPMF(probs)


def _inexact_total():
    """Example 1 with thirds and sevenths: the float weights, summed in cell
    order as `choices` sums them, give 1 - 2^-53, not 1.0."""
    spec, _ = example1_spec()
    pmf = JointPMF.from_rows(
        [["1/21", "1/21"], ["1/7", "1/7"], ["2/21", "1/21"], ["2/21", "8/21"]]
    )
    assert list(accumulate(float(p) for row in pmf.probs for p in row))[-1] == 1 - 2**-53
    return spec, pmf


def _zero_cell():
    spec = FunctionSpec.from_table([[0, 1], [1, 0]])
    return spec, JointPMF.from_rows([["1/4", "1/4"], ["0", "1/2"]])


def _zero_last_cell():
    # the last two cumulative weights are equal, next to the search's +inf padding
    spec = FunctionSpec.from_table([[0, 1], [1, 0]])
    return spec, JointPMF.from_rows([["1/4", "1/4"], ["1/2", "0"]])


def _one_color_source():
    # f ignores x2, so G_X2 is edgeless and source 2 sends zero bits
    spec = FunctionSpec.from_table([[0, 0, 0], [1, 1, 1]])
    return spec, JointPMF.from_rows([["1/6", "1/12", "1/4"], ["1/3", "1/12", "1/12"]])


@pytest.mark.parametrize(
    "make,n,samples,seed",
    [
        (_example1_weighted, 1, 3000, 1),
        (_example1_weighted, 2, 3000, 2),
        (_example1_weighted, 3, 3000, 3),
        (example1_spec, 1, 100_000, 12345),
        (_zero_cell, 2, 3000, 4),
        (_zero_last_cell, 2, 3000, 8),
        (_one_color_source, 2, 3000, 5),
        (_example1_weighted, 2, codec.SIMULATE_CHUNK + 1, 6),
        (_inexact_total, 3, 2 * codec.SIMULATE_CHUNK + 5, 7),
    ],
    ids=["weighted-n1", "weighted-n2", "weighted-n3", "ex1-100k", "zero-cell", "zero-last-cell",
         "one-color", "chunk+1", "inexact-total-n3"],
)
def test_simulate_matches_block_by_block_reference(make, n, samples, seed):
    spec, pmf = make()
    assert simulate(spec, pmf, n, samples, seed).to_json() == (
        _reference_simulate(spec, pmf, n, samples, seed).to_json()
    )


cell_weights = st.lists(
    st.one_of(
        st.just(0.0),
        st.sampled_from([1 / 3, 2 / 3, 1 / 7, 3 / 7]),
        st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=70,
).filter(lambda w: sum(w) > 0)


def _ramp(cells):
    """`cells` weights with a zero at every fourth cell after the first."""
    return [1.0] + [(i % 4) / 3 for i in range(1, cells)]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(cell_weights, st.integers(1, 1500), st.integers(0, 2**32 - 1), st.integers(0, 700))
@example([0.0, 1 / 3, 0.0, 1 / 7], 311, 1, 0)
@example([0.0, 0.0, 2.5], 313, 2, 300)
@example([1.0], 312, 3, 311)
@example([1 / 3, 1 / 3, 1 / 3], codec.SIMULATE_CHUNK * 3, 4, 623)
# edge counts (cells - 1) at, and one past, each power of two of the padded search
@example(_ramp(1), 500, 5, 0)
@example(_ramp(2), 500, 6, 1)
@example(_ramp(3), 500, 7, 2)
@example(_ramp(4), 500, 8, 3)
@example(_ramp(5), 500, 9, 4)
@example(_ramp(8), 500, 10, 5)
@example(_ramp(9), 500, 11, 6)
@example(_ramp(16), 500, 12, 7)
@example(_ramp(17), 500, 13, 8)
@example(_ramp(64), 500, 14, 9)
@example(_ramp(65), 500, 15, 10)
# edges 1 and 2 of total 4 start buckets (keys 2^51 and 2^52)
@example([1.0, 1.0, 2.0], 500, 16, 11)
# 69 999 edges against the 2^16 buckets of the cap: every bucket holds one
@example([1.0] * 70_000, 500, 17, 12)
# draws random() * total in the subnormal range for the smallest keys
@example([1e-300, 5e-324, 1e-300], 500, 18, 13)
@example([5e-324] * 3, 500, 19, 14)
@example([0.0, 0.0, 1.0, 2.0, 0.0, 0.0], 500, 20, 15)
def test_chunk_draw_equals_choices(weights, k, seed, skip):
    # `skip` random() calls first, so the draw starts anywhere in the 624-word state
    ours, ref = random.Random(seed), random.Random(seed)
    for rng in (ours, ref):
        for _ in range(skip):
            rng.random()
    got = codec._cell_draw(weights)(ours, k)
    assert got.tolist() == ref.choices(range(len(weights)), weights, k=k)
    assert ours.random() == ref.random()


def test_simulate_never_imports_numpy_random():
    code = (
        "import sys\n"
        "from chromacode import example1_spec, simulate\n"
        "spec, pmf = example1_spec()\n"
        "simulate(spec, pmf, 2, 5000, 1)\n"
        "assert 'numpy.random' not in sys.modules, 'numpy.random was imported'\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_simulate_one_color_source_sends_zero_bits():
    spec, pmf = _one_color_source()
    plan = build_codec(spec, pmf, 2)
    assert plan.codes[1] == {0: ""}
    assert simulate(spec, pmf, 2, 500, seed=0).rates[1] == 0.0


def test_simulate_golden_report():
    spec, pmf = _example1_weighted()
    assert simulate(spec, pmf, 3, 10_000, 100_000).to_json() == (
        '{"coloring_entropies": [0.9798687566511529, 0.9798687566511529], '
        '"expected_rates": [0.9917052469135802, 0.9917052469135802], "lossless": true, '
        '"n": 3, "rates": [0.9914333333333334, 0.9947333333333334], "samples": 10000, '
        '"seed": 100000, "source_entropies": [1.8955734405551428, 0.9798687566511528], '
        '"strategy": "auto"}'
    )


def test_simulate_catches_a_lossy_plan(ex1, monkeypatch):
    build = codec.build_codec

    def lossy(*args, **kwargs):
        plan = build(*args, **kwargs)
        # the first color pair's outcome, in base 2, flipped in the n = 1 table
        table = plan.decoder.table.copy()
        table[0, 0] = 1 - table[0, 0]
        return dataclasses.replace(plan, decoder=dataclasses.replace(plan.decoder, table=table))

    monkeypatch.setattr(codec, "build_codec", lossy)
    spec, pmf = ex1
    # the first mismatching sample in draw order, by the block-by-block walk;
    # blocks (0,) and (2,) of source 1 share the flipped color pair with (0,)
    with pytest.raises(AssertionError) as first:
        _reference_simulate(spec, pmf, 1, 2000, 0)
    with pytest.raises(AssertionError) as got:
        simulate(spec, pmf, 1, 2000, seed=0)
    assert str(got.value) == str(first.value) == "decode mismatch on sample (2,),(0,)"


def test_simulate_reads_blocks_that_decode_to_another_color(monkeypatch):
    build = codec.build_codec

    def swapped(*args, **kwargs):
        plan = build(*args, **kwargs)
        # source 1's codewords of colors 1 and 2 trade colors in the codebook
        # the receiver reads; the receiver table itself is unchanged
        inverse = dict(plan.inverses[0])
        (w1, c1), (w2, c2) = ((w, c) for w, c in inverse.items() if c in (1, 2))
        inverse[w1], inverse[w2] = c2, c1
        return dataclasses.replace(plan, inverses=(inverse, plan.inverses[1]))

    monkeypatch.setattr(codec, "build_codec", swapped)
    spec, pmf = _example1_weighted()
    plan = codec.build_codec(spec, pmf, 2)
    # of source 1's 2^2 block colors, 1 and 2 decode to each other
    code, inverse = plan.codes[0], plan.inverses[0]
    assert [inverse[code[c]] for c in range(4)] == [0, 2, 1, 3]
    assert codec._color_tables(plan, 1)[1].tolist() == [True, False, False, True]
    with pytest.raises(AssertionError) as first:
        _reference_simulate(spec, pmf, 2, 3000, 9)
    with pytest.raises(AssertionError) as got:
        simulate(spec, pmf, 2, 3000, 9)
    # samples 0-2 have source-1 blocks (2, 2), (1, 3), (0, 2) of colors 0, 3
    # and 0, which decode as their own; sample 3's (3, 0) has color 2
    assert str(got.value) == str(first.value) == "decode mismatch on sample (3, 0),(1, 1)"


def test_simulate_counts_a_cell_below_the_float_range():
    # p(1, 0) = 10^-400 is positive but 0.0 as a float: it is never drawn, and
    # its p log2 p adds 0 to the entropies instead of raising a domain error
    t = Fraction(1, 10**400)
    spec = FunctionSpec.from_table([[0, 1], [1, 0]])
    pmf = JointPMF(((Fraction(1, 2) - t, Fraction(1, 2)), (t, Fraction(0))))
    report = simulate(spec, pmf, 1, 1000, 0)
    assert report.lossless
    assert report.source_entropies == (0.0, 1.0)
    assert report.to_json() == _reference_simulate(spec, pmf, 1, 1000, 0).to_json()


# -- the decoder table and color PMFs against the per-pair Fraction loops ---------


def _reference_decoder(spec, pmf, n, c1, c2):
    """The receiver table by one Python step per block pair, (b1, b2) in order."""
    decoder = {}
    witness = {}
    for pair in product(product(range(spec.n1), repeat=n), product(range(spec.n2), repeat=n)):
        b1, b2 = pair
        if any(pmf.p(x1, x2) == 0 for x1, x2 in zip(b1, b2)):
            continue
        out = tuple(spec.f(x1, x2) for x1, x2 in zip(b1, b2))
        key = (
            c1.assignment[encode_tuple(b1, spec.n1)],
            c2.assignment[encode_tuple(b2, spec.n2)],
        )
        if key in decoder:
            if decoder[key] != out:
                raise AmbiguityError(witness[key], pair, decoder[key], out)
        else:
            decoder[key] = out
            witness[key] = pair
    return decoder


def _reference_color_pmf(marginal, n, coloring):
    """Color PMF from a Fraction product per block, colors in first-seen order."""
    out = {}
    for idx, block in enumerate(product(range(len(marginal)), repeat=n)):
        p = Fraction(1)
        for x in block:
            p *= marginal[x]
        c = coloring.assignment[idx]
        out[c] = out.get(c, Fraction(0)) + p
    return out


def _random_zero_cell_spec(rng, n):
    top = 4 if n < 3 else 3
    n1, n2 = rng.randint(2, top), rng.randint(2, top)
    table = [[rng.randrange(rng.randint(2, 3)) for _ in range(n2)] for _ in range(n1)]
    weights = [[rng.randint(1, 9) if rng.random() < 0.7 else 0 for _ in range(n2)] for _ in range(n1)]
    if not any(map(any, weights)):
        weights[0][0] = 1
    total = sum(map(sum, weights))
    probs = tuple(tuple(Fraction(w, total) for w in row) for row in weights)
    return FunctionSpec.from_table(table), JointPMF(probs)


def _vector_coloring(base, n):
    """The coloring `base` of symbols lifted to n-blocks: each block, in
    big-endian index order, takes the big-endian index in base k (the
    palette size) of its symbols' colors, by Horner."""
    colors = []
    for symbol_colors in product(base.assignment, repeat=n):
        color = 0
        for c in symbol_colors:
            color = color * base.palette_size + c
        colors.append(color)
    return Coloring(tuple(colors), base.palette_size**n)


def _block_colorings(plan):
    """The plan's V^n-long block colorings, per source: the vectors of its
    symbol colorings, built by the composition engine."""
    return tuple(
        Coloring(
            tuple(coloring._compose(coloring._vector_fold(c), plan.n)),
            c.palette_size**plan.n,
        )
        for c in plan.symbol_colorings
    )


def _read_receiver(receiver, colors1, colors2):
    """The outcome blocks at the color pairs (colors1, colors2), int64 arrays
    that broadcast together, read digit by digit from the receiver's table:
    an array of their shape plus (n,), -1 where a digit pair has no outcome."""
    (k1, k2), n = receiver.table.shape, receiver.n
    places = np.arange(n - 1, -1, -1)
    return receiver.table[colors1[..., None] // k1**places % k1, colors2[..., None] // k2**places % k2]


def _assert_decodes_exactly(receiver, expected):
    """The receiver decodes exactly the keys of `expected`, {(color1, color2):
    outcome block}: each key is in range and reads to its outcome block, and
    the receiver has no other decodable pair."""
    (k1, k2), n = receiver.table.shape, receiver.n
    keys = np.array(list(expected), dtype=np.int64).reshape(-1, 2)
    outs = np.array(list(expected.values()), dtype=np.int64).reshape(-1, n)
    assert ((keys >= 0) & (keys < [k1**n, k2**n])).all()
    assert np.array_equal(_read_receiver(receiver, keys[:, 0], keys[:, 1]), outs)
    assert len(receiver) == len(expected)


def _assert_matches_reference(spec, pmf, n, strategy="auto"):
    """build_codec equals the reference loops over the vector colorings:
    colorings, table, PMFs, codes and any AmbiguityError; returns whether
    the plan was refused."""
    g1, g2 = (build_characteristic_graph(spec, pmf, s) for s in (1, 2))
    c1, c2 = (_vector_coloring(power_coloring(g, 1, strategy), n) for g in (g1, g2))
    try:
        expected = _reference_decoder(spec, pmf, n, c1, c2)
    except AmbiguityError as exc:
        with pytest.raises(AmbiguityError) as got:
            build_codec(spec, pmf, n, strategy)
        assert str(got.value) == str(exc)
        assert got.value.witness == exc.witness
        return True
    plan = build_codec(spec, pmf, n, strategy)
    assert _block_colorings(plan) == (c1, c2)
    _assert_decodes_exactly(plan.decoder, expected)
    pmfs = tuple(
        _reference_color_pmf(pmf.marginal(s), n, c) for s, c in ((1, c1), (2, c2))
    )
    assert tuple(list(p.items()) for p in plan.color_pmfs) == tuple(list(p.items()) for p in pmfs)
    for code, avg, ref in zip(plan.codes, plan.avg_lengths, pmfs):
        assert (code, avg) == huffman_code(ref)
    return False


@pytest.mark.parametrize("strategy", ["auto", "exact", "greedy", "product"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_build_codec_matches_per_pair_reference(n, strategy):
    # the reference colors through `power_coloring(g, 1, strategy)`, an
    # oracle apart from the codec's own `_color_symbols`
    rng = random.Random(f"decoder-oracle:{n}")
    refused = [
        _assert_matches_reference(*_random_zero_cell_spec(rng, n), n, strategy) for _ in range(40)
    ]
    # the seeded specs reach both outcomes, so both paths are compared
    assert any(refused) and not all(refused)


@pytest.mark.parametrize("strategy", ["greedy", "product"])
def test_build_codec_matches_per_pair_reference_at_n4(strategy):
    # 2-3 symbols per source: up to 81 blocks, past the exact solver's guard,
    # which now sees only the characteristic graphs
    rng = random.Random(f"decoder-oracle:4:{strategy}")
    refused = [
        _assert_matches_reference(*_random_zero_cell_spec(rng, 4), 4, strategy) for _ in range(40)
    ]
    assert any(refused) and not all(refused)


def test_decoder_table_matches_reference_under_arbitrary_colorings():
    # random symbol colorings, not characteristic-graph colorings: the n = 1
    # table and its first conflict, and at n = 2, 3 the table read digit by
    # digit and the witness prefixed by the first positive cell, against the
    # walk over every block pair under the vector colorings
    rng = random.Random("decoder-oracle:arbitrary")
    runs, refused = Counter(), Counter()
    for _ in range(90):
        n = rng.choice((1, 2, 3))
        runs[n] += 1
        spec, pmf = _random_zero_cell_spec(rng, n)
        cells = _positive_cells(spec.table, pmf.probs)
        c1, c2 = (
            Coloring.from_list(rng.randrange(rng.choice((2, 4, k))) for _ in range(k))
            for k in (spec.n1, spec.n2)
        )
        try:
            vectors = _vector_coloring(c1, n), _vector_coloring(c2, n)
            expected = _reference_decoder(spec, pmf, n, *vectors)
        except AmbiguityError as exc:
            with pytest.raises(AmbiguityError) as got:
                codec._cell_receiver(cells, c1, c2, n)
            assert (str(got.value), got.value.witness) == (str(exc), exc.witness)
            refused[n] += 1
            continue
        _assert_decodes_exactly(codec._cell_receiver(cells, c1, c2, n), expected)
    assert all(0 < refused[n] < runs[n] for n in (1, 2, 3))


def test_build_codec_reference_when_the_palettes_outgrow_the_pairs():
    # only row 0 and column 0 are positive and f is injective on them, so both
    # characteristic graphs are K3: 9^n color pairs against 5^n positive pairs
    spec = FunctionSpec.from_table([[0, 1, 2], [3, 0, 0], [4, 0, 0]])
    pmf = JointPMF.from_rows([["1/5", "1/5", "1/5"], ["1/5", "0", "0"], ["1/5", "0", "0"]])
    for n in (1, 2, 3):
        assert not _assert_matches_reference(spec, pmf, n)
        plan = build_codec(spec, pmf, n)
        blocks = _block_colorings(plan)
        assert blocks[0].palette_size * blocks[1].palette_size == 9**n
        assert len(plan.decoder) == roundtrip_exhaustive(plan) == 5**n


def test_ambiguity_reference_pair_under_an_earlier_first_symbol():
    # the exact coloring of the OR power refused this spec at n = 2; its
    # symbol colorings decode, so their vectors decode at every n
    spec = FunctionSpec.from_table([[0, 2, 1], [1, 2, 0], [0, 2, 0], [1, 1, 1]])
    weights = [[2, 1, 0], [2, 2, 0], [0, 1, 0], [1, 1, 1]]
    pmf = JointPMF.from_rows([[Fraction(w, 11) for w in row] for row in weights])
    assert not _assert_matches_reference(spec, pmf, 2)
    assert roundtrip_exhaustive(build_codec(spec, pmf, 2)) == 8**2
    # a refusal whose first positive cell is (0, 1), not a witness cell: at
    # n the witness pairs start with n - 1 copies of (0, 1)
    spec = FunctionSpec.from_table([[0, 0, 1], [1, 0, 0], [1, 1, 0]])
    pmf = JointPMF.from_rows([["0", "1/4", "0"], ["1/4", "1/4", "0"], ["0", "0", "1/4"]])
    for n in (1, 2, 3):
        assert _assert_matches_reference(spec, pmf, n)
        with pytest.raises(AmbiguityError) as exc:
            build_codec(spec, pmf, n)
        pre1, pre2, out = (0,) * (n - 1), (1,) * (n - 1), (0,) * (n - 1)
        assert exc.value.witness == ((pre1 + (1,), pre2 + (0,)), (pre1 + (2,), pre2 + (2,)))
        tail = f"-> {out + (1,)} but {exc.value.witness[1]} -> {out + (0,)}"
        assert str(exc.value).endswith(tail)


def test_build_codec_reference_on_an_empty_row_and_huge_denominators():
    # row x1 = 1 has no positive cell, so no block with symbol 1 is in any
    # positive pair; the common denominator squared is far beyond 64-bit
    # integers
    big = 10**12 + 39
    spec = FunctionSpec.from_table([[0, 1, 2], [1, 1, 0], [2, 0, 1]])
    probs = (
        (Fraction(1, big), Fraction(1, 3), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(0)),
        (Fraction(1, 7), Fraction(0), Fraction(2, 3) - Fraction(1, big) - Fraction(1, 7)),
    )
    pmf = JointPMF(probs)
    for n in (1, 2, 3):
        assert not _assert_matches_reference(spec, pmf, n)
        assert roundtrip_exhaustive(build_codec(spec, pmf, n)) == 4**n


def test_ambiguity_message_names_the_first_conflict():
    spec = FunctionSpec.from_table([[0, 0], [0, 1]])
    pmf = JointPMF.from_rows([["1/2", "0"], ["0", "1/2"]])
    with pytest.raises(AmbiguityError) as exc:
        build_codec(spec, pmf, 2, coloring_strategy="exact")
    assert str(exc.value) == (
        "ambiguous color pair: blocks ((0, 0), (0, 0)) -> (0, 0) "
        "but ((0, 1), (0, 1)) -> (0, 1)"
    )


def test_one_symbol_spec_past_the_exponent_guard_raises_guard_exceeded():
    # a 1 x 1 spec has one block at every n, but planning and drawing still
    # take work linear in n: n past the guard's bit length (14) is refused
    spec, pmf = FunctionSpec.from_table([[0]]), JointPMF(((Fraction(1),),))
    with pytest.raises(GuardExceeded, match="power exponent n") as exc:
        build_codec(spec, pmf, 15)
    assert (exc.value.size, exc.value.limit) == (15, 14)
    plan = build_codec(spec, pmf, 14)
    assert roundtrip_exhaustive(plan) == 1


# -- roundtrip_exhaustive against the walk over every block pair -----------------


def _reference_roundtrip(plan):
    """Every (b1, b2) block pair, skipping those with a zero-probability cell."""
    count = 0
    for b1 in product(range(plan.spec.n1), repeat=plan.n):
        for b2 in product(range(plan.spec.n2), repeat=plan.n):
            if any(plan.pmf.p(x1, x2) == 0 for x1, x2 in zip(b1, b2)):
                continue
            expected = tuple(plan.spec.f(x1, x2) for x1, x2 in zip(b1, b2))
            got = decode_pair(plan, encode_block(plan, 1, b1), encode_block(plan, 2, b2))
            if got != expected:
                raise AssertionError(f"round-trip mismatch on {b1},{b2}: {got} != {expected}")
            count += 1
    return count


def test_roundtrip_exhaustive_matches_the_every_pair_walk():
    rng = random.Random("roundtrip-walk")
    compared = 0
    for n in (1, 2, 3):
        for _ in range(12):
            spec, pmf = _random_zero_cell_spec(rng, n)
            try:
                plan = build_codec(spec, pmf, n)
            except AmbiguityError:
                continue
            assert roundtrip_exhaustive(plan) == _reference_roundtrip(plan)
            # a wrong entry of the n = 1 table, its first outcome, is
            # reported at the same first pair
            table = plan.decoder.table.copy()
            table.flat[np.argmax(table.ravel() >= 0)] += 1
            plan = dataclasses.replace(
                plan, decoder=dataclasses.replace(plan.decoder, table=table)
            )
            with pytest.raises(AssertionError) as got:
                roundtrip_exhaustive(plan)
            with pytest.raises(AssertionError) as ref:
                _reference_roundtrip(plan)
            assert str(got.value) == str(ref.value)
            compared += 1
    assert compared >= 20


def _roundtrip_outcome(roundtrip, plan):
    """The pair count, or the type and message of the error raised."""
    try:
        return roundtrip(plan)
    except (AssertionError, UsageError) as exc:
        return type(exc), str(exc)


def _swap_codewords(plan, swaps):
    """`plan` with the codewords of colors a and b traded, for each source's
    (a, b) in `swaps`."""
    codes = tuple(map(dict, plan.codes))
    for code, (a, b) in zip(codes, swaps):
        code[a], code[b] = code[b], code[a]
    return dataclasses.replace(plan, codes=codes)


def test_roundtrip_exhaustive_reports_swapped_codewords_in_pair_order():
    # two codewords of each source trade colors: which pairs then fail hangs
    # on both blocks, so the first failure in the order the cell tuples are
    # checked is not always the first in (b1, b2) order
    rng = random.Random("roundtrip-swap")
    failed = 0
    for n in (1, 2, 3):
        for _ in range(15):
            for spec, pmf in (_random_zero_cell_spec(rng, n), _random_full_support_spec(rng, 3)):
                try:
                    plan = build_codec(spec, pmf, n)
                except AmbiguityError:
                    continue
                if min(map(len, plan.codes)) < 2:
                    continue
                plan = _swap_codewords(plan, [rng.sample(sorted(code), 2) for code in plan.codes])
                got = _roundtrip_outcome(roundtrip_exhaustive, plan)
                assert got == _roundtrip_outcome(_reference_roundtrip, plan)
                failed += not isinstance(got, int)
    assert failed >= 50
    # 9^5 pairs in 15 chunks: the chunk holding the first failure in (b1, b2)
    # order is not the first chunk to fail
    spec = FunctionSpec.from_table([[0, 1, 1], [1, 0, 0], [1, 0, 0]])
    pmf = JointPMF.from_rows(
        [["1/13", "4/39", "5/39"], ["1/13", "1/13", "8/39"], ["3/13", "2/39", "2/39"]]
    )
    plan = _swap_codewords(build_codec(spec, pmf, 5), [(30, 6), (22, 27)])
    got = _roundtrip_outcome(roundtrip_exhaustive, plan)
    assert got == _roundtrip_outcome(_reference_roundtrip, plan)
    assert got[1].startswith("round-trip mismatch on (0, 0, 0, 0, 0),(1, 0, 1, 1, 0):")


def test_roundtrip_exhaustive_replays_a_mismatch_past_the_first_chunks():
    # Example 1 at n = 5: 8^5 pairs, 8 chunks, one per first cell.  Source
    # 1's block colors (c(3), 0, 0, 0, 0) and (c(3), 0, 0, 0, 1) trade
    # codewords; only blocks starting with symbol 3 or its color mate have
    # them, so every bad pair lies past the first chunk, and they are read
    # by `decode_pair`, not checked cell by cell as their own colors
    spec, pmf = _example1_weighted()
    plan = build_codec(spec, pmf, 5)
    symbols = plan.symbol_colorings[0]
    assert symbols.palette_size == 2 and symbols.assignment[0] != symbols.assignment[3]
    a = symbols.assignment[3] * 2**4
    plan = _swap_codewords(plan, [(a, a + 1)])
    assert not codec._color_tables(plan, 1)[1][[a, a + 1]].any()
    assert 8**5 > 3 * codec.SIMULATE_CHUNK
    with pytest.raises(AssertionError) as ref:
        _reference_roundtrip(plan)
    with pytest.raises(AssertionError) as got:
        roundtrip_exhaustive(plan)
    assert str(got.value) == str(ref.value)
    assert str(got.value).startswith("round-trip mismatch on (1, 0, 0, 0, 0),")


def _positive_block_pairs(pmf, n):
    """Every n-tuple of positive cells, as rows of cell ids x1 * n2 + x2 in
    (b1, b2) order."""
    positive = [i for i, p in enumerate(p for row in pmf.probs for p in row) if p]
    return np.array(list(product(positive, repeat=n)), dtype=np.int64).reshape(-1, n)


def _ci_relabeled_c5():
    """The relabeled-C5 spec of the CI's zero-cell step: x2 = j names edge j
    of C5 relabeled (0-2, 2-4, 4-1, 1-3, 3-0), with mass on its two ends."""
    spec = FunctionSpec.from_table(
        [[0, 1, 1, 1, 1], [1, 1, 0, 0, 1], [1, 0, 1, 1, 1], [1, 1, 1, 1, 0], [1, 1, 1, 1, 1]]
    )
    mass = Fraction(1, 10)
    edges = [(0, 4), (2, 3), (0, 1), (3, 4), (1, 2)]  # the positive x2 of each x1
    pmf = JointPMF(tuple(tuple(mass if x2 in edges[x1] else 0 for x2 in range(5)) for x1 in range(5)))
    return spec, pmf


def _decode_verdicts(plan, cells):
    """Per block pair, whether `decode_pair` on its codewords raises
    UsageError or decodes to an outcome other than f."""
    verdicts = []
    for row in cells.tolist():
        b1, b2 = zip(*(divmod(x, plan.spec.n2) for x in row))
        try:
            got = decode_pair(plan, encode_block(plan, 1, b1), encode_block(plan, 2, b2))
        except UsageError:
            got = None
        verdicts.append(got != tuple(plan.spec.f(x1, x2) for x1, x2 in zip(b1, b2)))
    return verdicts


def test_pair_check_agrees_with_decode_pair_on_every_table_entry():
    # the cell-wise fast path against the one reader, on the plan as built and
    # with each receiver-table entry changed to every other value in turn
    changed = 0
    for spec, pmf in (_example1_weighted(), _ci_relabeled_c5()):
        for n in (1, 2, 3):
            plan = build_codec(spec, pmf, n)
            cells = _positive_block_pairs(pmf, n)
            assert not any(codec._pair_check(plan)[0](cells)[0])
            assert not any(_decode_verdicts(plan, cells))
            outcomes = {-1, *np.unique(spec.table).tolist()}
            for index, entry in enumerate(plan.decoder.table.ravel().tolist()):
                for value in sorted(outcomes - {entry}):
                    table = plan.decoder.table.copy()
                    table.flat[index] = value
                    bad = dataclasses.replace(
                        plan, decoder=dataclasses.replace(plan.decoder, table=table)
                    )
                    wrong = codec._pair_check(bad)[0](cells)[0]
                    assert wrong.tolist() == _decode_verdicts(bad, cells), (n, index, value)
                    changed += wrong.any()
    assert changed >= 30


def test_pair_check_flags_every_pair_of_a_color_without_a_codeword():
    # a color without a codeword decodes no pair, and every pair without it
    # still decodes
    for spec, pmf in (_example1_weighted(), _ci_relabeled_c5()):
        for n in (1, 2, 3):
            plan = build_codec(spec, pmf, n)
            cells = _positive_block_pairs(pmf, n)
            colors = codec._pair_check(plan)[0](cells)[1:]
            for s in (0, 1):
                assert set(colors[s].tolist()) == set(plan.codes[s])  # every color is drawn
                for color, word in plan.codes[s].items():
                    codes, inverses = list(map(dict, plan.codes)), list(map(dict, plan.inverses))
                    del codes[s][color], inverses[s][word]
                    bad = dataclasses.replace(plan, codes=tuple(codes), inverses=tuple(inverses))
                    wrong = codec._pair_check(bad)[0](cells)[0]
                    assert (wrong == (colors[s] == color)).all(), (n, s, color)


def test_roundtrip_exhaustive_flags_a_codeword_decoded_outside_the_palette():
    # the receiver has no key for such a color, so the walk raises at the
    # first pair with it; read digit by digit, color k^n + 1 would pass as 1,
    # and `decode_pair` refuses it
    spec, pmf = example1_spec()
    plan = build_codec(spec, pmf, 2)
    for outside in (2**2 + 1, -1):
        inverse = dict(plan.inverses[0])
        inverse[plan.codes[0][1]] = outside
        bad = dataclasses.replace(plan, inverses=(inverse, plan.inverses[1]))
        assert codec._color_tables(bad, 1)[1].tolist() == [True, False, True, True]
        got = _roundtrip_outcome(roundtrip_exhaustive, bad)
        assert got == _roundtrip_outcome(_reference_roundtrip, bad)
        assert got[0] is UsageError


def test_no_codec_path_reads_the_block_colorings():
    # the plan keeps no V^n block coloring, so none can be read
    for spec, pmf in (example1_spec(), _zero_cell()):
        cells = [(x1, x2) for x1 in range(spec.n1) for x2 in range(spec.n2) if pmf.p(x1, x2)]
        for n in (1, 2, 3):
            plan = build_codec(spec, pmf, n)
            assert not hasattr(plan, "colorings")
            assert roundtrip_exhaustive(plan) == len(cells) ** n
            assert simulate(spec, pmf, n, 3000, seed=n).lossless
            (x1, x2), (y1, y2) = cells[0], cells[-1]
            b1, b2 = (x1,) * (n - 1) + (y1,), (x2,) * (n - 1) + (y2,)
            got = decode_pair(plan, encode_block(plan, 1, b1), encode_block(plan, 2, b2))
            assert got == tuple(spec.f(u, v) for u, v in zip(b1, b2))


def _cross_spec():
    """f injective on row 0 and column 0 of a 6 x 6 table, the only positive
    cells: both characteristic graphs are K6, so at n = 4 the palettes are
    6^4 = 1 296 each against 11^4 = 14 641 positive pairs."""
    spec = FunctionSpec.from_table([[6 * i + j for j in range(6)] for i in range(6)])
    pmf = JointPMF.from_rows(
        [[Fraction(1, 11) if 0 in (i, j) else 0 for j in range(6)] for i in range(6)]
    )
    return spec, pmf


def test_build_codec_keeps_the_receiver_table_in_arrays():
    # a dict of (color1, color2) -> outcome tuple entries took 4.7 MB at its
    # peak here; the receiver keeps the 6 x 6 table of the symbol colorings,
    # and its 14 641 keys are never written out
    spec, pmf = _cross_spec()
    tracemalloc.start()
    try:
        plan = build_codec(spec, pmf, 4, coloring_strategy="product")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(plan.decoder) == 11**4
    assert peak < 3_000_000


def test_decode_pair_reads_the_table_and_refuses_colors_it_cannot_decode():
    spec, pmf = _cross_spec()
    plan = build_codec(spec, pmf, 2, coloring_strategy="product")
    blocks = _block_colorings(plan)
    expected = _reference_decoder(spec, pmf, 2, *blocks)
    assert len(plan.decoder) == len(expected) == 11**2
    for (c1, c2), out in expected.items():
        assert decode_pair(plan, plan.codes[0][c1], plan.codes[1][c2]) == out
    palette1, palette2 = (c.palette_size for c in blocks)
    # in range, but some digit pair of the colors has no positive cell
    unused = next(p for p in product(range(palette1), range(palette2)) if p not in expected)
    outside = [(palette1, 0), (0, palette2), (-1, 0), (0, -1), (10**30, 0), (0, 10**30)]
    for key in outside + [unused]:
        # each source's codeword of color 0 decodes to the key's color
        inverses = tuple(
            {**inverse, code[0]: c} for inverse, code, c in zip(plan.inverses, plan.codes, key)
        )
        tampered = dataclasses.replace(plan, inverses=inverses)
        with pytest.raises(UsageError) as exc:
            decode_pair(tampered, plan.codes[0][0], plan.codes[1][0])
        assert str(exc.value) == f"unsupported input: color pair {key} has zero probability"
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan.decoder.table = plan.decoder.table[::-1]


def test_simulate_keeps_the_receiver_table_within_the_pairs():
    # a dense (1 296 + 1)^2 int64 receiver table alone would take 13.5 MB
    spec, pmf = _cross_spec()
    tracemalloc.start()
    try:
        report = simulate(spec, pmf, 4, 1000, 0, coloring_strategy="product")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.lossless
    assert peak < 10_000_000


# -- full support: part-vector colorings, no OR power ------------------------------


def _random_full_support_spec(rng, top):
    n1, n2 = rng.randint(2, top), rng.randint(2, top)
    table = [[rng.randrange(rng.randint(2, 3)) for _ in range(n2)] for _ in range(n1)]
    weights = [[rng.randint(1, 9) for _ in range(n2)] for _ in range(n1)]
    total = sum(map(sum, weights))
    probs = tuple(tuple(Fraction(w, total) for w in row) for row in weights)
    return FunctionSpec.from_table(table), JointPMF(probs)


def _block_graph_adjacency(spec, pmf, n, source):
    """The n-block characteristic graph of one source, from its definition:
    blocks x and x' are adjacent iff some side block y has every cell of
    (x, y) and (x', y) positive and f(x, y) != f(x', y).  Returns the
    boolean adjacency matrix."""
    table = np.array(spec.table)
    positive = np.array([[p > 0 for p in row] for row in pmf.probs])
    if source == 2:
        table, positive = table.T, positive.T
    blocks = list(product(range(table.shape[0]), repeat=n))
    sides = list(product(range(table.shape[1]), repeat=n))
    # per (block, side block): the outcome block, and whether every cell is positive
    outs = np.array([[tuple(table[x, y] for x, y in zip(b, s)) for s in sides] for b in blocks])
    ok = np.array([[all(positive[x, y] for x, y in zip(b, s)) for s in sides] for b in blocks])
    differ = (outs[:, None] != outs[None, :]).any(axis=-1)
    return (ok[:, None] & ok[None, :] & differ).any(axis=-1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_full_support_codes_part_vectors_on_the_block_graph(n):
    rng = random.Random(f"full-support:{n}")
    for _ in range(8):
        spec, pmf = _random_full_support_spec(rng, 4 if n < 3 else 3)
        plan = build_codec(spec, pmf, n)
        for source, lines in ((1, spec.table), (2, list(zip(*spec.table)))):
            adjacent = _block_graph_adjacency(spec, pmf, n, source)
            block_coloring = _block_colorings(plan)[source - 1]
            colors = np.array(block_coloring.assignment)
            same = colors[:, None] == colors[None, :]
            # valid, and blocks of distinct colors are adjacent: no coloring is coarser
            assert not (adjacent & same).any()
            assert (adjacent | same).all()
            assert block_coloring.palette_size == len(set(lines)) ** n
        assert roundtrip_exhaustive(plan) == _reference_roundtrip(plan) == (spec.n1 * spec.n2) ** n


@pytest.mark.parametrize("strategy", ["auto", "exact", "greedy", "product"])
def test_full_support_plan_matches_per_pair_reference(strategy):
    # the reference lifts `power_coloring(g, 1, strategy)`; under full
    # support every strategy gives the part coloring, which the reference
    # asserts as `_block_colorings(plan) == (c1, c2)`
    rng = random.Random(f"full-support-reference:{strategy}")
    for n in (1, 2, 3):
        for _ in range(4):
            spec, pmf = _random_full_support_spec(rng, 3)
            assert not _assert_matches_reference(spec, pmf, n, strategy)


def _full_support_6x6():
    spec = FunctionSpec.from_table([[(i * j + i) % 4 for j in range(6)] for i in range(6)])
    return spec, JointPMF.uniform(6, 6)


def test_full_support_plans_past_the_exact_solvers_guard():
    # 6^3 = 216 blocks per source: the exact solver's guard (64) refused this
    # plan while the codec colored the OR power; the power guard still applies
    spec, pmf = _full_support_6x6()
    plan = build_codec(spec, pmf, 3)
    parts = len(set(spec.table)), len(set(zip(*spec.table)))
    assert tuple(c.palette_size for c in _block_colorings(plan)) == (parts[0] ** 3, parts[1] ** 3)
    assert len(plan.decoder) == (parts[0] * parts[1]) ** 3
    assert roundtrip_exhaustive(plan) == 36**3
    with pytest.raises(GuardExceeded):
        build_codec(spec, pmf, 3, guard=200)


def test_full_support_builds_no_graph_and_runs_no_solver(ex1, monkeypatch):
    def refuse(*args, **kwargs):
        raise RuntimeError("called under full support")

    monkeypatch.setattr(codec, "_characteristic_rows", refuse)
    monkeypatch.setattr(codec, "_color_symbols", refuse)
    monkeypatch.setattr(codec, "exact_chromatic_number", refuse)
    monkeypatch.setattr(coloring, "or_power", refuse)
    monkeypatch.setattr(coloring, "exact_chromatic_number", refuse)
    monkeypatch.setattr(orpower, "or_power", refuse)
    for spec, pmf in (ex1, _example1_weighted(), _full_support_6x6()):
        for strategy in STRATEGIES:
            plan = build_codec(spec, pmf, 2, coloring_strategy=strategy)
            assert roundtrip_exhaustive(plan) == (spec.n1 * spec.n2) ** 2
    with pytest.raises(UsageError, match="unknown coloring strategy"):
        build_codec(*ex1, 2, coloring_strategy="fastest")


def test_full_support_example1_past_the_power_guard(ex1):
    with pytest.raises(GuardExceeded) as exc:
        build_codec(*ex1, 7)
    assert str(exc.value) == "instance too large: power vertex count = 16384 exceeds guard 10000"


def test_color_pmfs_are_built_on_first_read():
    # one full-support plan and one with zero cells
    zero = FunctionSpec.from_table([[0, 1], [1, 0]]), JointPMF.from_rows(
        [["1/4", "1/4"], ["0", "1/2"]]
    )
    for spec, pmf in (_example1_weighted(), zero):
        plan = build_codec(spec, pmf, 2)
        assert "color_pmfs" not in vars(plan)
        assert plan.scale == math.lcm(*(p.denominator for row in pmf.probs for p in row)) ** 2
        pmfs = plan.color_pmfs
        assert vars(plan)["color_pmfs"] is pmfs
        assert pmfs == tuple(
            {c: Fraction(w, plan.scale) for c, w in s.items()} for s in plan.color_weights
        )
        reference = tuple(
            _reference_color_pmf(pmf.marginal(s), 2, c)
            for s, c in zip((1, 2), _block_colorings(plan))
        )
        assert [list(p.items()) for p in pmfs] == [list(p.items()) for p in reference]


def test_part_receiver_refuses_a_part_pair_that_disagrees():
    # rows 0 and 1 of f differ, so putting them in one part must fail loudly
    spec = FunctionSpec.from_table([[0, 1], [1, 0]])
    with pytest.raises(AmbiguityError) as exc:
        parts = Coloring.from_list([0, 0]), Coloring.from_list([0, 1])
        codec._cell_receiver(_positive_cells(spec.table, [[1, 1], [1, 1]]), *parts)
    assert exc.value.witness == (((0,), (0,)), ((1,), (0,)))
    assert str(exc.value) == (
        "ambiguous color pair: blocks ((0,), (0,)) -> (0,) but ((1,), (0,)) -> (1,)"
    )


def _reference_full_support(spec, pmf, n):
    """The full-support plan by the array construction: colorings by
    `_vector_coloring` of the parts, part-vector weights as products over
    n-tuples of the part weights, and the receiver's part table,
    f on the first symbol of each part, lifted to its entries at n by n - 1
    broadcasts.  Returns (colorings, color weights, (part table, the
    outcome block of every color pair, a k1^n x k2^n x n array)).  Every
    pair decodes under full support."""
    probs = [[Fraction(p) for p in row] for row in pmf.probs]
    D = math.lcm(*(p.denominator for row in probs for p in row))
    weights = [[p.numerator * (D // p.denominator) for p in row] for row in probs]
    marginals = [sum(row) for row in weights], [sum(col) for col in zip(*weights)]
    parts = [Coloring.from_list(lines) for lines in (spec.table, tuple(zip(*spec.table)))]
    colorings = tuple(_vector_coloring(p, n) for p in parts)
    sums = tuple(
        dict(enumerate(map(math.prod, product(
            [sum(w for w, q in zip(m, p.assignment) if q == c) for c in range(p.palette_size)],
            repeat=n,
        ))))
        for m, p in zip(marginals, parts)
    )
    k1, k2 = (p.palette_size for p in parts)
    firsts = ([p.assignment.index(c) for c in range(p.palette_size)] for p in parts)
    table = blocks = np.array(spec.table, dtype=np.int64)[np.ix_(*firsts)]
    base = 1 + max(map(max, spec.table))
    for _ in range(n - 1):
        lifted = blocks[:, None, :, None] * base + table[None, :, None, :]
        blocks = lifted.reshape(blocks.shape[0] * k1, blocks.shape[1] * k2)
    outs = blocks[..., None] // base ** np.arange(n - 1, -1, -1) % base  # big-endian digits
    return colorings, sums, (table, outs)


def _full_support_oracle_cases():
    rng = random.Random("full-support-oracle")
    for n in (1, 2, 3, 4):
        for _ in range(6):
            yield f"seeded-n{n}", *_random_full_support_spec(rng, 6), n  # 6^4 within the guard
    for n in range(1, 7):
        yield f"example1-n{n}", *_example1_weighted(), n
    rows_equal = FunctionSpec.from_table([[0, 1, 2], [0, 1, 2]]), JointPMF.uniform(2, 3)
    for n in (1, 2, 3):
        yield f"one-part-source1-n{n}", *rows_equal, n
        yield f"one-part-source2-n{n}", *_one_color_source(), n


def test_full_support_plan_matches_the_array_construction():
    for kind, spec, pmf, n in _full_support_oracle_cases():
        plan = build_codec(spec, pmf, n)
        colorings, sums, (table, outs) = _reference_full_support(spec, pmf, n)
        assert _block_colorings(plan) == colorings, kind
        assert [list(s.items()) for s in plan.color_weights] == [list(s.items()) for s in sums]
        for code, s in zip(plan.codes, sums):
            assert list(code.items()) == list(huffman_code(s)[0].items()), kind
        d = plan.decoder
        assert d.table.dtype == table.dtype == np.int64
        assert np.array_equal(d.table, table) and d.n == n, kind
        # every color pair, read digit by digit, against its lifted entry
        k1n, k2n = outs.shape[:2]
        assert len(d) == k1n * k2n, kind
        got = _read_receiver(d, np.arange(k1n)[:, None], np.arange(k2n)[None, :])
        assert np.array_equal(got, outs), kind
        for c, code, avg in zip(colorings, plan.codes, plan.avg_lengths):
            if c.palette_size == 1:  # one part: one color, sent in zero bits
                assert (code, avg) == ({0: ""}, 0), kind


# -- zero cells: vectors of the characteristic-graph colorings ---------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_zero_cell_colorings_are_valid_on_the_block_graph(n):
    rng = random.Random(f"zero-cell-block-graph:{n}")
    planned = 0
    for _ in range(30):
        spec, pmf = _random_zero_cell_spec(rng, n)
        try:
            plan = build_codec(spec, pmf, n)
        except AmbiguityError:
            continue
        for source in (1, 2):
            adjacent = _block_graph_adjacency(spec, pmf, n, source)
            colors = np.array(_block_colorings(plan)[source - 1].assignment)
            assert not (adjacent & (colors[:, None] == colors[None, :])).any()
        planned += 1
    assert planned >= 15


@pytest.mark.parametrize("strategy", ["auto", "greedy"])
def test_build_codec_refuses_at_n_exactly_when_it_refuses_at_n1(strategy):
    rng = random.Random(f"refusal-at-n:{strategy}")
    refused = Counter()
    for _ in range(60):
        n = rng.choice((2, 3))
        spec, pmf = _random_zero_cell_spec(rng, n)
        try:
            build_codec(spec, pmf, 1, strategy)
            at_one = False
        except AmbiguityError:
            at_one = True
        # the same verdict at n, with the reference's first conflict as witness
        assert _assert_matches_reference(spec, pmf, n, strategy) == at_one
        refused[at_one] += 1
    assert refused[True] and refused[False]


def test_one_term_entropy_is_positive_zero():
    spec, pmf = _one_color_source()
    report = simulate(spec, pmf, 2, 500, seed=0)
    assert math.copysign(1.0, report.coloring_entropies[1]) == 1.0
    assert "-0.0" not in report.to_json()
    assert math.copysign(1.0, entropy_bits([Fraction(1)])) == 1.0


def _zero_rows_and_columns_spec(rng):
    """A random 2-6 x 2-6 spec with at least one all-zero row and column of
    its PMF: symbols of zero marginal, isolated in their characteristic
    graphs."""
    n1, n2 = rng.randint(2, 6), rng.randint(2, 6)
    table = [[rng.randrange(3) for _ in range(n2)] for _ in range(n1)]
    rows = set(rng.sample(range(n1), rng.randint(1, n1 - 1)))
    cols = set(rng.sample(range(n2), rng.randint(1, n2 - 1)))
    weights = [
        [0 if x1 in rows or x2 in cols or rng.random() < 0.3 else rng.randint(1, 9) for x2 in range(n2)]
        for x1 in range(n1)
    ]
    if not any(map(any, weights)):
        weights[min(set(range(n1)) - rows)][min(set(range(n2)) - cols)] = 1
    total = sum(map(sum, weights))
    probs = tuple(tuple(Fraction(w, total) for w in row) for row in weights)
    return FunctionSpec.from_table(table), JointPMF(probs)


def test_every_color_of_a_plan_has_positive_weight():
    # Huffman codes the color weights as they are: no plan has a color whose
    # symbols all have zero mass, since each coloring puts an isolated
    # (zero-marginal) symbol into a class that also holds a positive one
    rng = random.Random("positive-colors")
    planned = Counter()
    for _ in range(150):
        spec, pmf = _zero_rows_and_columns_spec(rng)
        assert 0 in pmf.marginal(1) and 0 in pmf.marginal(2)
        for strategy in STRATEGIES:
            for n in (1, 2):
                try:
                    plan = build_codec(spec, pmf, n, strategy)
                except (AmbiguityError, UsageError) as exc:
                    # only a cycle scheme misfits: no graph here is a canonical cycle
                    assert isinstance(exc, AmbiguityError) or strategy.endswith("-cycle")
                    continue
                for weights, code in zip(plan.color_weights, plan.codes):
                    assert min(weights.values()) > 0
                    assert sorted(code) == list(weights)
                planned[strategy, n] += 1
    assert len(planned) == 8 and min(planned.values()) >= 50


@pytest.mark.parametrize("strategy", ["auto", "exact", "greedy", "product"])
def test_zero_cell_plans_build_no_power_and_compose_no_fold(monkeypatch, strategy):
    def refuse(*args, **kwargs):
        raise RuntimeError("a zero-cell plan built an OR power or composed a fold")

    monkeypatch.setattr(coloring, "or_power", refuse)
    monkeypatch.setattr(orpower, "or_power", refuse)
    monkeypatch.setattr(coloring, "_compose", refuse)
    rng = random.Random(f"no-power:{strategy}")
    # canonical cycles, where `auto` reads a cycle scheme, then random specs
    specs = [(_edge_spec(cycle_graph(V).edges(), V), 2) for V in range(4, 8)]
    specs += [(_random_zero_cell_spec(rng, n), n) for n in rng.choices((1, 2, 3), k=30)]
    planned = 0
    for (spec, pmf), n in specs:
        try:
            plan = build_codec(spec, pmf, n, strategy)
        except AmbiguityError:
            continue
        support = sum(p > 0 for row in pmf.probs for p in row)
        assert roundtrip_exhaustive(plan) == support**n
        planned += 1
    assert planned >= 20


def test_color_symbols_is_the_power_coloring_at_n1():
    # C4-C15 under all six strategies: the same coloring, or the same
    # misfit UsageError, as `power_coloring` at n = 1
    misfits = 0
    for V in range(4, 16):
        g = cycle_graph(V)
        for strategy in STRATEGIES:
            try:
                want = power_coloring(g, 1, strategy, None)
            except UsageError as exc:
                with pytest.raises(UsageError) as got:
                    codec._color_symbols(g, strategy, None)
                assert str(got.value) == str(exc)
                misfits += 1
                continue
            assert codec._color_symbols(g, strategy, None) == want
    assert misfits == 12  # one cycle scheme per V


def test_build_codec_explicit_guard():
    # a zero-cell plan makes four guarded calls (two power checks, then the
    # exact solver of each characteristic graph); one `guard=` bounds them
    # all, and without it each takes its own default
    spec, pmf = _zero_cell()
    plan = build_codec(spec, pmf, 2, "exact")
    assert build_codec(spec, pmf, 2, "exact", guard=4) == plan
    with pytest.raises(GuardExceeded, match="power vertex count = 4 exceeds guard 3"):
        build_codec(spec, pmf, 2, "exact", guard=3)
    # 65 symbols: within the power default (10 000), past the exact solver's (64)
    wide = FunctionSpec.from_table([[x1 % 2 ^ x2 for x2 in range(2)] for x1 in range(65)])
    weights = [[0 if (x1, x2) == (0, 0) else 1 for x2 in range(2)] for x1 in range(65)]
    probs = tuple(tuple(Fraction(w, 129) for w in row) for row in weights)
    with pytest.raises(GuardExceeded, match="vertex count = 65 exceeds guard 64"):
        build_codec(wide, JointPMF(probs), 1, "exact")
    assert build_codec(wide, JointPMF(probs), 1, "greedy").n == 1


def _injective_one_zero_cell(V=32):
    """f injective on V x V symbols, uniform but for one zero cell: both
    characteristic graphs are K_V, and at n = 2 the receiver maps
    (V^2 - 1)^2 color pairs, none written out."""
    spec = FunctionSpec.from_table([[V * i + j for j in range(V)] for i in range(V)])
    probs = tuple(
        tuple(Fraction(0 if (i, j) == (V - 1, V - 1) else 1, V * V - 1) for j in range(V))
        for i in range(V)
    )
    return spec, JointPMF(probs)


def test_receiver_does_not_grow_with_the_block_length():
    # at n = 2 the receiver maps 1 023^2 color pairs, about 1 M entries that
    # a written-out table would hold
    spec, pmf = _injective_one_zero_cell()
    probs = pmf.probs
    tracemalloc.start()
    try:
        plan = build_codec(spec, pmf, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(plan.decoder) == 1023**2
    assert peak < 2_000_000
    rng = random.Random("receiver-size")
    for _ in range(200):
        while True:
            b1, b2 = (tuple(rng.randrange(32) for _ in range(2)) for _ in range(2))
            if all(probs[x1][x2] for x1, x2 in zip(b1, b2)):
                break
        bits = encode_block(plan, 1, b1), encode_block(plan, 2, b2)
        assert decode_pair(plan, *bits) == tuple(spec.f(x1, x2) for x1, x2 in zip(b1, b2))


def test_receivers_compare_by_their_tables():
    # receivers of 1 023^2 decodable pairs compare by their 32 x 32 tables
    spec, pmf = _injective_one_zero_cell()
    start = time.perf_counter()
    plan, again = build_codec(spec, pmf, 2), build_codec(spec, pmf, 2)
    assert plan.decoder is not again.decoder
    assert plan.decoder == again.decoder and plan == again
    assert time.perf_counter() - start < 0.5
    table = again.decoder.table.copy()
    table[3, 5] = -1
    changed = dataclasses.replace(again.decoder, table=table)
    assert plan.decoder != changed and plan != dataclasses.replace(again, decoder=changed)
    # another n, or another table shape, compares unequal: a column of -1
    # adds no decodable pair at n = 1, but at n = 2 it changes color2's digits
    small = build_codec(*_zero_cell(), 1).decoder
    assert small != dataclasses.replace(small, n=2)
    wider = np.pad(small.table, ((0, 0), (0, 1)), constant_values=-1)
    assert len(small) == len(dataclasses.replace(small, table=wider))
    assert small != dataclasses.replace(small, table=wider)
    two = dataclasses.replace(small, n=2)
    assert two != dataclasses.replace(two, table=wider)
