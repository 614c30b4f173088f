import heapq
import math
import random
import time
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromacode import (
    AlphaProfile,
    ChromacodeError,
    Graph,
    GuardExceeded,
    UsageError,
    alpha_n_window,
    chromatic_entropy_bruteforce,
    cycle_graph,
    entropy_bits,
    fractional_entropy_lower_bound,
    general_entropy_upper_bound,
    huffman_code,
    make_graph,
    odd_cycle_entropy_upper_bound,
    path_graph,
)
from chromacode.entropy import _extremal_profile, _huffman


def test_entropy_bits():
    assert entropy_bits([Fraction(1, 2), Fraction(1, 2)]) == 1.0
    assert entropy_bits([1]) == 0.0
    assert abs(entropy_bits([Fraction(1, 4)] * 4) - 2.0) < 1e-12
    # a positive probability whose float is 0.0 adds 0, the limit of p log2 p
    tiny = Fraction(1, 10**400)
    assert entropy_bits([1 - tiny, tiny]) == 0.0
    assert entropy_bits([Fraction(1, 2) - tiny, Fraction(1, 2), tiny]) == 1.0


def test_coloring_pmf_and_entropy():
    # the uniform PMF of C5 pushed through its coloring (0, 1, 0, 1, 2)
    pmf = [Fraction(2, 5), Fraction(2, 5), Fraction(1, 5)]
    assert entropy_bits(pmf) == pytest.approx(math.log2(5) - 0.8, abs=1e-12)


def test_chromatic_entropy_c5():
    h = chromatic_entropy_bruteforce(cycle_graph(5))
    assert abs(h - 1.5219280948873621) < 1e-12


def test_chromatic_entropy_matches_min_over_colorings():
    # K3: forced 3 colors, uniform -> log2 3
    h = chromatic_entropy_bruteforce(make_graph("complete", 3))
    assert abs(h - math.log2(3)) < 1e-12
    # edgeless: single color, zero entropy
    assert chromatic_entropy_bruteforce(make_graph("edgeless", 4)) == 0.0
    # path P4: best is a 2/2 split of the 2-coloring
    h = chromatic_entropy_bruteforce(path_graph(4))
    assert abs(h - 1.0) < 1e-12


def test_chromatic_entropy_guard():
    with pytest.raises(GuardExceeded):
        chromatic_entropy_bruteforce(cycle_graph(13))


@pytest.mark.parametrize(
    "masses, message",
    [
        ([Fraction(3, 2), Fraction(-1, 2), 0, 0, 0], "vertex PMF has a negative mass"),
        ([Fraction(3, 20)] * 5 + [Fraction(1, 4)], "vertex PMF has 6 masses for 5 vertices"),
        ([Fraction(1, 2)] * 2, "vertex PMF has 2 masses for 5 vertices"),
    ],
    ids=["negative", "one-too-many", "too-few"],
)
def test_chromatic_entropy_refuses_a_pmf_that_is_not_one_mass_per_vertex(masses, message):
    # each summed to 1, and returned -0.877 bits, 1.0 bits (the sixth mass
    # dropped) or a bare IndexError
    assert sum(masses) == 1
    with pytest.raises(UsageError, match=message):
        chromatic_entropy_bruteforce(cycle_graph(5), masses)


def _reference_chromatic_entropy(g, vertex_pmf):
    """The brute force on Fraction class masses that the integer masses
    replaced: the same partitions, each class mass an exact rational."""
    V = g.vertex_count
    best = float("inf")
    class_bits, class_mass = [], []

    def rec(v):
        nonlocal best
        if v == V:
            best = min(best, entropy_bits(class_mass))
            return
        for i in range(len(class_bits)):
            if not class_bits[i] & g.neighbors_bitset(v):
                class_bits[i] |= 1 << v
                class_mass[i] += vertex_pmf[v]
                rec(v + 1)
                class_mass[i] -= vertex_pmf[v]
                class_bits[i] &= ~(1 << v)
        class_bits.append(1 << v)
        class_mass.append(vertex_pmf[v])
        rec(v + 1)
        class_bits.pop()
        class_mass.pop()

    rec(0)
    return best


def test_chromatic_entropy_matches_fraction_masses():
    # a class's float mass from its integer weight over D equals its
    # Fraction's float, so the minimum is the same float
    rng = random.Random("brute entropy")
    for _ in range(120):
        V = rng.randint(1, 8)
        edges = [(u, v) for u in range(V) for v in range(u + 1, V) if rng.random() < 0.4]
        g = Graph.from_edges(V, edges)
        weights = [rng.choice((0, 1, 2, 3, 7, 10**15 + 37)) for _ in range(V)]
        weights[0] += not any(weights)
        pmf = [Fraction(w, sum(weights)) for w in weights]
        assert chromatic_entropy_bruteforce(g, pmf) == _reference_chromatic_entropy(g, pmf)


def test_alpha_profile_pmf_and_entropy():
    p = AlphaProfile((1, 2, 5), (1, 2, 4), 25)
    pmf = p.pmf()
    assert sum(pmf.values()) == 1
    assert sorted(pmf.values(), reverse=True)[0] == Fraction(4, 25)
    assert abs(p.entropy() / 2 - 1.4419280948873623) < 1e-12


@pytest.mark.parametrize(
    "n,window", [(1, (2, 2)), (2, (5, 6)), (3, (12, 15))]
)
def test_alpha_n_window_c5(n, window):
    assert alpha_n_window(5, 2, n) == window


def test_odd_cycle_entropy_window_n3():
    res = odd_cycle_entropy_upper_bound(2, 3)
    assert res["alpha_n_window"] == (12, 15)
    assert abs(res["lo"] - 1.3725947615540288) < 1e-9
    assert abs(res["hi"] - 1.4152614282206954) < 1e-9
    assert res["lo_profile"].alphas == (1, 2, 2, 14)
    assert res["hi_profile"].alphas == (1, 2, 6, 12)
    for profile in (res["lo_profile"], res["hi_profile"]):
        assert profile.alphas[0] == 1
        assert sum(a * 2**t for t, a in enumerate(profile.alphas)) == 125


def test_entropy_window_ordering():
    for n in range(1, 6):
        res = odd_cycle_entropy_upper_bound(2, n)
        assert res["lo"] <= res["hi"]
        # windows sit above the graph-entropy limit log2(5/2)
        assert res["lo"] >= math.log2(2.5) - 1e-9


def test_infeasible_entropy_window_is_a_chromacode_error():
    # C7^2 has no chain alpha profile: the search reports it as the
    # package's own error, which the CLI maps to exit 1
    with pytest.raises(ChromacodeError) as exc:
        odd_cycle_entropy_upper_bound(3, 2)
    assert type(exc.value) is ChromacodeError
    assert str(exc.value) == "no entropy window: no feasible chain alpha profile"


def test_general_entropy_upper_bound_matches_cycle_machinery():
    res = general_entropy_upper_bound(cycle_graph(5), 2)
    cyc = odd_cycle_entropy_upper_bound(2, 2)
    assert res["hi"] == cyc["hi"]


def test_general_entropy_upper_bound_complete():
    # m = 1: only singleton classes; entropy pinned at log2 V per symbol
    res = general_entropy_upper_bound(make_graph("complete", 4), 2)
    assert abs(res["lo"] - 2.0) < 1e-12
    assert abs(res["hi"] - 2.0) < 1e-12


def test_fractional_entropy_lower_bound():
    lb = fractional_entropy_lower_bound(5)
    assert abs(lb - math.log2(2.5)) < 1e-12
    assert lb <= chromatic_entropy_bruteforce(cycle_graph(5)) + 1e-12


def test_huffman_c5_pmf_is_optimal():
    code, avg = huffman_code({0: Fraction(1, 5), 1: Fraction(2, 5), 2: Fraction(2, 5)})
    assert avg == Fraction(8, 5)
    assert sorted(len(w) for w in code.values()) == [1, 2, 2]
    # codeword order, as demo 03 prints it
    assert list(code.items()) == [(2, "0"), (0, "10"), (1, "11")]


def test_huffman_prefix_free_and_within_one_bit_of_entropy():
    pmf = {c: Fraction(1, 8) if c < 4 else Fraction(1, 4) for c in range(6)}
    code, avg = huffman_code(pmf)
    words = list(code.values())
    for i, w in enumerate(words):
        for j, w2 in enumerate(words):
            if i != j:
                assert not w2.startswith(w)
    h = entropy_bits(pmf.values())
    assert h - 1e-12 <= float(avg) < h + 1


def test_huffman_single_symbol_empty_codeword():
    code, avg = huffman_code({0: Fraction(1)})
    assert code == {0: ""}
    assert avg == 0


def test_huffman_deterministic_tie_break():
    pmf = {c: Fraction(1, 4) for c in range(4)}
    code1, _ = huffman_code(pmf)
    code2, _ = huffman_code(dict(reversed(list(pmf.items()))))
    assert code1 == code2


def _reference_huffman(pmf):
    """Huffman on exact Fractions, the same merge order and tie-break."""
    items = sorted(pmf.items())
    dropped = [c for c, p in items if p == 0]
    if dropped:
        warnings.warn(f"dropping zero-probability colors {dropped}")
        items = [(c, p) for c, p in items if p > 0]
    if len(items) == 1:
        return {items[0][0]: ""}, Fraction(0)
    heap = [(Fraction(p), (c,)) for c, p in items]
    heapq.heapify(heap)
    children = {}
    while len(heap) > 1:
        p1, key1 = heapq.heappop(heap)
        p2, key2 = heapq.heappop(heap)
        merged = tuple(sorted(key1 + key2))
        children[merged] = (key1, key2)
        heapq.heappush(heap, (p1 + p2, merged))
    code = {}

    def walk(key, prefix):
        if key not in children:
            code[key[0]] = prefix or "0"
            return
        walk(children[key][0], prefix + "0")
        walk(children[key][1], prefix + "1")

    walk(heap[0][1], "")
    return code, sum(Fraction(p) * len(code[c]) for c, p in items)


def _huffman_with_warnings(fn, pmf):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(pmf)
    return result, [str(w.message) for w in caught]


def _assert_huffman_matches_reference(pmf):
    """Code, average length and warnings equal the reference's, and the code
    lists its colors in the same (depth-first) order."""
    got, want = (_huffman_with_warnings(f, pmf) for f in (huffman_code, _reference_huffman))
    assert got == want
    assert list(got[0][0].items()) == list(want[0][0].items())


# small weights over mixed denominators: many ties, some zero-mass colors
masses = st.builds(Fraction, st.integers(0, 4), st.sampled_from([1, 2, 3, 6, 7, 10**12 + 39]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.dictionaries(st.integers(0, 40), masses, min_size=1, max_size=14))
def test_integer_huffman_matches_fraction_huffman(pmf):
    if not any(pmf.values()):
        pmf[min(pmf)] = Fraction(1)
    _assert_huffman_matches_reference(pmf)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.dictionaries(st.integers(0, 40), st.integers(0, 12), min_size=1, max_size=14))
def test_int_weights_huffman_matches_fraction_huffman(weights):
    # int weights are merged as they are; their code and average length (on
    # the weights' scale) equal those of exact rationals
    if not any(weights.values()):
        weights[min(weights)] = 1
    _assert_huffman_matches_reference(weights)


def test_integer_huffman_takes_strings_and_ints():
    assert huffman_code({0: "1/5", 1: "2/5", 2: "2/5"})[1] == Fraction(8, 5)
    with pytest.warns(UserWarning, match=r"zero-probability colors \[1, 2\]"):
        assert huffman_code({0: 1, 1: 0, 2: Fraction(0)}) == ({0: ""}, 0)


def _heap_huffman(pmf):
    """The heap Huffman that the two-queue `_huffman` replaced: (weight,
    least color, node id) entries, one heappop and one heapreplace per
    merge; the oracle of `huffman_code` and `_huffman`."""
    colors = sorted(pmf)
    weights = [pmf[c] for c in colors]
    D = 1
    if not all(isinstance(w, int) for w in weights):
        weights = [Fraction(p) for p in weights]
        D = math.lcm(*(p.denominator for p in weights))
        weights = [p.numerator * (D // p.denominator) for p in weights]
    leaves = [(w, c) for w, c in zip(weights, colors) if w]
    m = len(leaves)
    heap = [(w, c, i) for i, (w, c) in enumerate(leaves)]
    heapq.heapify(heap)
    kids = []
    total = 0
    for node in range(m, 2 * m - 1):
        w, c, a = heapq.heappop(heap)
        w2, c2, b = heap[0]
        w += w2
        total += w
        kids += (a, b)
        heapq.heapreplace(heap, (w, min(c, c2), node))
    code = {}
    stack = [(2 * m - 2, "")]
    while stack:
        node, prefix = stack.pop()
        if node < m:
            code[leaves[node][1]] = prefix
        else:
            j = 2 * (node - m)
            stack += ((kids[j + 1], prefix + "1"), (kids[j], prefix + "0"))
    return code, Fraction(total, D)


def _seeded_pmfs():
    """Seeded int weights on palettes of 1-300 colors, sparse color ids,
    ties heavy (weights 1-5) and light (1-10^6)."""
    rng = random.Random("two-queue huffman")
    for m in [*range(1, 33), 64, 125, 216, 300] * 3:
        top = rng.choice((5, 5, 10**6))
        colors = rng.sample(range(4 * m), m)
        yield {c: rng.randint(1, top) for c in colors}


def test_two_queue_huffman_matches_the_heap():
    # `_huffman` takes weights indexed by color: the sparse colors map, in
    # order, onto list indices, which keeps every (weight, color) tie-break
    merges = 0
    for pmf in _seeded_pmfs():
        want_code, want_total = _heap_huffman(pmf)
        colors = sorted(pmf)
        code, total = _huffman([pmf[c] for c in colors])
        assert list(code) == sorted(code, key=code.get)  # codeword order
        assert [(colors[i], w) for i, w in code.items()] == list(want_code.items())
        assert type(total) is int and total == want_total
        merges += len(pmf) - 1
    assert merges > 3000


@pytest.mark.parametrize(
    "weights",
    [[7], [1], [3, 3], [1, 1, 1, 1], [2, 1, 1, 2, 1], [5, 1, 4, 1, 4, 5], [1, 2, 3, 4, 5, 6, 7, 8]],
)
def test_color_indexed_huffman_matches_huffman_code(weights):
    # one color (m = 1) gets the empty codeword; ties between leaves and
    # merged nodes break by least color, as huffman_code breaks them
    got = _huffman(weights)
    want = huffman_code(dict(enumerate(weights)))
    assert list(got[0].items()) == list(want[0].items())
    assert got[1] == want[1] and type(got[1]) is int
    if len(weights) == 1:
        assert got == ({0: ""}, 0)


@pytest.mark.parametrize("masses", ["int", "fraction", "string"])
def test_huffman_code_matches_the_heap(masses):
    for pmf in _seeded_pmfs():
        total = sum(pmf.values())
        if masses == "fraction":
            pmf = {c: Fraction(w, total) for c, w in pmf.items()}
        elif masses == "string":
            pmf = {c: f"{w}/{total}" for c, w in pmf.items()}
        got, want = huffman_code(pmf), _heap_huffman(pmf)
        assert list(got[0].items()) == list(want[0].items())
        assert got[1] == want[1]


# -- the one extremal-profile search against the two searches it replaced ----


def _reference_profile_max_alpha_n(V, m, n):
    """Former monotone search: largest α_n, α_{t+1} >= α_t >= 1."""
    total = V**n
    _, hi = alpha_n_window(V, m, n)

    def complete(t, remaining, hi_bound):
        if t == 0:
            return [] if remaining == 1 else None
        for a in range(min(hi_bound, remaining // m**t), 0, -1):
            rest = remaining - a * m**t
            if rest < 1:
                continue
            tail = complete(t - 1, rest, a)
            if tail is not None:
                return [a] + tail
        return None

    for an in range(hi, 0, -1):
        tail = complete(n - 1, total - an * m**n, an)
        if tail is not None:
            return tuple([1] + tail[::-1] + [an])
    raise ChromacodeError("no entropy window: no feasible monotone alpha profile")


def _reference_profile_min_alpha_n(V, m, n):
    """Former chain search: smallest α_n, α_t >= m·α_{t-1}."""
    total = V**n
    lo, hi = alpha_n_window(V, m, n)

    def complete(t, remaining, cap):
        if t == 0:
            return [] if remaining == 1 else None
        for a in range(min(cap, remaining // m**t), m**t - 1, -1):
            rest = remaining - a * m**t
            if rest < 1:
                continue
            tail = complete(t - 1, rest, a // m)
            if tail is not None:
                return [a] + tail
        return None

    for an in range(max(lo, m**n), hi + 1):
        tail = complete(n - 1, total - an * m**n, an // m)
        if tail is not None:
            return tuple([1] + tail[::-1] + [an])
    raise ChromacodeError("no entropy window: no feasible chain alpha profile")


def _profile_or_message(search, *args):
    try:
        return search(*args)
    except ChromacodeError as exc:
        return str(exc)


def test_extremal_profile_matches_the_former_pair_of_searches():
    cases = [
        (V, m, n)
        for V in range(2, 13)
        for m in range(2, V + 1)
        for n in range(1, 5)
        if V**n <= 2000
    ]
    outcomes, compared, elapsed = set(), 0, 0.0
    for V, m, n in cases:
        window = alpha_n_window(V, m, n)
        for chain, reference in (
            (False, _reference_profile_max_alpha_n),
            (True, _reference_profile_min_alpha_n),
        ):
            start = time.perf_counter()
            got = _profile_or_message(_extremal_profile, V, m, n, window, chain)
            elapsed += time.perf_counter() - start
            assert got == _profile_or_message(reference, V, m, n), (V, m, n, chain)
            outcomes.add(got if isinstance(got, str) else "profile")
            compared += 1
    # 213 (V, m, n) triples, both edges each, reaching both feasible profiles
    # and both failure messages
    assert compared == 426
    assert outcomes == {
        "profile",
        "no entropy window: no feasible monotone alpha profile",
        "no entropy window: no feasible chain alpha profile",
    }
    assert elapsed < 1.0
