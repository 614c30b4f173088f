"""Library entry points refuse a malformed argument with UsageError and their
own message."""

import re
from fractions import Fraction

import pytest

from chromacode import (
    Coloring,
    FractionalColoring,
    FunctionSpec,
    JointPMF,
    UsageError,
    alpha_n_window,
    build_characteristic_graph,
    build_codec,
    chromatic_bounds_spectral,
    chromatic_entropy_bruteforce,
    cycle_graph,
    cycle_power_largest_eig,
    decode_pair,
    encode_tuple,
    even_cycle_power_coloring,
    example1_spec,
    expansion_bounds,
    fractional_chromatic_cycle,
    fractional_entropy_lower_bound,
    general_entropy_upper_bound,
    gershgorin,
    graph_spectrum,
    greedy_coloring,
    huffman_code,
    is_valid_b_fold,
    is_valid_coloring,
    lambda1_window,
    odd_cycle_entropy_upper_bound,
    odd_cycle_power_coloring,
    or_power,
    path_graph,
    power_chromatic_number,
    smallest_eig_lower_bounds,
    split_decomposition,
)

C5 = cycle_graph(5)


def _one_color_plan():
    # f ignores x2, so source 2 has one color and sends zero bits
    spec = FunctionSpec.from_table([[0, 0, 0], [1, 1, 1]])
    pmf = JointPMF.from_rows([["1/6", "1/12", "1/4"], ["1/3", "1/12", "1/12"]])
    return build_codec(spec, pmf, 1)


def _fold(sets):
    return FractionalColoring(5, 2, tuple(frozenset(s) for s in sets))


CASES = {
    "marginal-source": (lambda: JointPMF.uniform(2, 2).marginal(3), "source must be 1 or 2"),
    "chargraph-source": (
        lambda: build_characteristic_graph(*example1_spec(), 3),
        "source must be 1 or 2",
    ),
    "coloring-length": (
        lambda: is_valid_coloring(C5, Coloring((0, 1), 2)),
        "coloring length 2 != vertex count 5",
    ),
    "b-fold-set-count": (
        lambda: is_valid_b_fold(C5, _fold([{0, 1}] * 3)),
        "set count != vertex count",
    ),
    "greedy-order": (
        lambda: greedy_coloring(C5, [0, 0, 1, 2, 3]),
        "order must be a permutation of all vertices",
    ),
    "even-cycle-k": (
        lambda: even_cycle_power_coloring(1, 1),
        "need k >= 2 (C_{2k} with at least 4 vertices) and n >= 1",
    ),
    "odd-cycle-i": (
        lambda: odd_cycle_power_coloring(4, 1),
        "odd cycle scheme needs odd i >= 5 (C3 is complete: chi=3^n)",
    ),
    "odd-cycle-n": (lambda: odd_cycle_power_coloring(5, 0), "n must be >= 1"),
    "power-chi-n": (lambda: power_chromatic_number(C5, 0), "n must be >= 1"),
    "power-chi-n-negative": (lambda: power_chromatic_number(C5, -3), "n must be >= 1"),
    "fractional-cycle-b": (lambda: fractional_chromatic_cycle(2, 0), "need k >= 2 and b >= 1"),
    "brute-pmf-sum": (
        lambda: chromatic_entropy_bruteforce(C5, [Fraction(1, 5)] * 4 + [Fraction(1, 10)]),
        "vertex PMF must sum to exactly 1",
    ),
    "odd-cycle-window-k": (
        lambda: odd_cycle_entropy_upper_bound(1, 1),
        "need k >= 2 and n >= 1",
    ),
    "general-window-n": (lambda: general_entropy_upper_bound(C5, 0), "n must be >= 1"),
    "fractional-lower-even": (
        lambda: fractional_entropy_lower_bound(4),
        "fractional lower bound needs odd V = 2k+1",
    ),
    "fractional-lower-small": (lambda: fractional_entropy_lower_bound(3), "need V >= 5"),
    "alpha-window-m": (lambda: alpha_n_window(5, 1, 2), "alpha_n window needs V >= 1, m >= 2 and n >= 1"),
    "alpha-window-n": (lambda: alpha_n_window(5, 2, 0), "alpha_n window needs V >= 1, m >= 2 and n >= 1"),
    "alpha-window-V": (lambda: alpha_n_window(0, 2, 2), "alpha_n window needs V >= 1, m >= 2 and n >= 1"),
    "uniform-pmf-n1": (lambda: JointPMF.uniform(0, 2), "uniform PMF needs n1, n2 >= 1"),
    "uniform-pmf-n2": (lambda: JointPMF.uniform(2, 0), "uniform PMF needs n1, n2 >= 1"),
    "huffman-empty": (lambda: huffman_code({}), "empty PMF"),
    "huffman-all-zero": (lambda: huffman_code({0: 0, 1: Fraction(0)}), "no color has positive"),
    "huffman-negative": (lambda: huffman_code({0: -1, 1: 2, 2: 3}), "negative mass at colors [0]"),
    "huffman-negative-beside-zero": (
        lambda: huffman_code({0: -1, 1: 0, 2: 3, 3: 2}),
        "negative mass at colors [0]",
    ),
    "huffman-unreadable": (
        lambda: huffman_code({0: "1/5", 1: "abc"}),
        "color 1 has mass 'abc', not a number",
    ),
    "huffman-nan": (
        lambda: huffman_code({0: 0.5, 1: float("nan")}),
        "color 1 has mass nan, not a number",
    ),
    "expansion-n": (
        lambda: expansion_bounds("general", 5, 0, 1),
        "need n >= 1 and |Y| >= 1",
    ),
    "expansion-family": (
        lambda: expansion_bounds("torus", 5, 1, 1),
        "unknown expansion family 'torus'",
    ),
    "degree-vertex": (lambda: C5.degree(99), "vertex 99 out of range"),
    "encode-coordinate": (lambda: encode_tuple((5,), 2), "coordinate 5 out of range for base 2"),
    "or-power-n": (lambda: or_power(C5, 0), "power n must be >= 1"),
    "gershgorin-block-size": (
        lambda: gershgorin(C5.adjacency_matrix(), "block", block_size=2),
        "block mode needs a block size dividing the dimension",
    ),
    "gershgorin-block-size-zero": (
        lambda: gershgorin(C5.adjacency_matrix(), "block", block_size=0),
        "block mode needs a block size dividing the dimension",
    ),
    "gershgorin-block-size-negative": (
        lambda: gershgorin(C5.adjacency_matrix(), "block", block_size=-2),
        "block mode needs a block size dividing the dimension",
    ),
    "gershgorin-block-size-float": (
        lambda: gershgorin(cycle_graph(4).adjacency_matrix(), "block", block_size=2.0),
        "block mode needs a block size dividing the dimension",
    ),
    "gershgorin-mode": (
        lambda: gershgorin(C5.adjacency_matrix(), "diagonal"),
        "unknown Gershgorin mode 'diagonal'",
    ),
    "cycle-eig-V": (lambda: cycle_power_largest_eig(2, 1), "need V >= 3 and n >= 1"),
    "smallest-eig-input": (
        lambda: smallest_eig_lower_bounds(5, 5, [2, 2, 2, 2]),
        "inconsistent V, E, degree list",
    ),
    "smallest-eig-empty": (lambda: smallest_eig_lower_bounds(0, 0, []), "inconsistent V, E, degree list"),
    "split-plain-graph": (lambda: split_decomposition(C5), "split needs n >= 2"),
    "lambda1-window-n": (lambda: lambda1_window(C5, 1), "lambda1 window needs n >= 2"),
    "bound-variant": (
        lambda: chromatic_bounds_spectral("nope", g=C5, n=1, V=5),
        "unknown bound variant 'nope'",
    ),
    "bound-cycle-power-V": (
        lambda: chromatic_bounds_spectral("cycle-power", n=2),
        "cycle-power bound needs g or V",
    ),
    "bound-hoffman-direct-g": (
        lambda: chromatic_bounds_spectral("hoffman-direct"),
        "hoffman-direct bound needs g or power",
    ),
    "bound-degree-g": (
        lambda: chromatic_bounds_spectral("degree", n=2),
        "degree bound needs g or power",
    ),
    "bound-general-g": (
        lambda: chromatic_bounds_spectral("general", n=2, V=5),
        "general bound needs g",
    ),
    "bound-lambda1-window-n": (
        lambda: chromatic_bounds_spectral("lambda1-window", g=C5),
        "lambda1 window needs n >= 2",
    ),
    "bound-power-exponent-without-g": (
        lambda: chromatic_bounds_spectral("hoffman-direct", n=3, power=or_power(C5, 2)),
        "power must be or_power(g, n) with n = 3",
    ),
    "bound-lambda1-window-power-exponent": (
        lambda: chromatic_bounds_spectral("lambda1-window", g=C5, n=2, power=or_power(C5, 3)),
        "power must be or_power(g, n) with n = 2",
    ),
    "bound-gct-split-power-base": (
        lambda: chromatic_bounds_spectral("gct-split", g=C5, n=2, power=or_power(cycle_graph(7), 2)),
        "power must be or_power(g, n) with n = 2",
    ),
    "bound-gct-split-plain-graph": (
        lambda: chromatic_bounds_spectral("gct-split", power=C5),
        "power must be an OR power, a PowerGraph with provenance",
    ),
    "bound-lambda1-window-plain-graph": (
        lambda: chromatic_bounds_spectral("lambda1-window", g=C5, n=2, power=C5),
        "power must be an OR power, a PowerGraph with provenance",
    ),
    "bound-gct-split-power-exponent": (
        lambda: chromatic_bounds_spectral("gct-split", g=C5, n=3, power=or_power(C5, 2)),
        "power must be or_power(g, n) with n = 3",
    ),
    **{
        f"bound-{variant}-power-base": (
            lambda variant=variant: chromatic_bounds_spectral(variant, g=C5, n=2, power=or_power(cycle_graph(7), 2)),
            "power must be or_power(g, n) with n = 2",
        )
        for variant in ("general", "hoffman-direct", "degree", "lambda1-window")
    },
    # every reader of λ(Gⁿ) refuses n < 1, on a regular base as on any other
    **{
        f"{name}-{base}-n{n}": (lambda read=read, g=g, n=n: read(g, n), "power n must be >= 1")
        for name, read in (
            ("graph-spectrum", graph_spectrum),
            ("bound-hoffman-direct", lambda g, n: chromatic_bounds_spectral("hoffman-direct", g=g, n=n)),
            ("bound-degree", lambda g, n: chromatic_bounds_spectral("degree", g=g, n=n)),
            ("bound-general", lambda g, n: chromatic_bounds_spectral("general", g=g, n=n)),
        )
        for base, g in (("C5", C5), ("P3", path_graph(3)))
        for n in (0, -1)
    },
    "decode-not-a-codeword": (
        lambda: decode_pair(_one_color_plan(), "11", ""),
        "bit string '11' is not a codeword",
    ),
    "decode-zero-bit-trailing": (
        lambda: decode_pair(_one_color_plan(), "0", "1"),
        "trailing bits '1' for a zero-bit code",
    ),
}


@pytest.mark.parametrize("call,message", list(CASES.values()), ids=list(CASES))
def test_argument_check_raises_usage_error(call, message):
    with pytest.raises(UsageError, match=re.escape(message)):
        call()


@pytest.mark.parametrize(
    "call,lower,upper,details",
    [
        # n = 1 when omitted: C5 itself, λ1 its degree 2 and λ_min above Hong's -sqrt(7.5)
        (lambda: chromatic_bounds_spectral("cycle-power", V=5), 1 + 2 / 7.5**0.5, 3,
         {"lambda_1": 2, "lambda_V_bound": -(7.5**0.5)}),
        # λ_min(C5) = -(1 + sqrt(5))/2, so Hoffman gives 1 + 2/λ_min = sqrt(5)
        (lambda: chromatic_bounds_spectral("general", g=C5), 5**0.5, 3,
         {"lambda_1_estimate": 2.0, "lambda_V": -(1 + 5**0.5) / 2}),
        # G is the power's recorded base: the window of C5^2, its low edge 10 over Hong's -sqrt(162.5)
        (lambda: chromatic_bounds_spectral("lambda1-window", n=2, power=or_power(C5, 2)), 1 + 10 / 162.5**0.5, 13,
         {"window": (10.0, 12.0), "refined": (10.0, 13), "lambda_1": 12.0}),
    ],
    ids=["bound-cycle-power-n", "bound-general-n", "bound-lambda1-window-g"],
)
def test_bound_reads_g_and_n_from_the_power_or_takes_n_one(call, lower, upper, details):
    rep = call()
    assert (rep.lower, rep.upper) == pytest.approx((lower, upper), abs=1e-12)
    for key, value in details.items():
        assert rep.details[key] == pytest.approx(value, abs=1e-12), key


def test_is_valid_b_fold_refuses_a_wrong_fold_size_or_color():
    assert is_valid_b_fold(C5, _fold([{0, 2}, {1, 3}, {2, 4}, {3, 0}, {1, 4}]))
    assert not is_valid_b_fold(C5, _fold([{0, 2}, {1, 3}, {2, 4}, {3, 0}, {1}]))
    assert not is_valid_b_fold(C5, _fold([{0, 2}, {1, 3}, {2, 4}, {3, 0}, {1, 5}]))

