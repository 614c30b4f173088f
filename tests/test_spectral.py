import math
import random
from itertools import combinations

import numpy as np
import pytest

from chromacode import (
    ChromacodeError,
    Graph,
    GuardExceeded,
    PowerGraph,
    UsageError,
    chromatic_bounds_spectral,
    complete_graph,
    cycle_graph,
    cycle_power_largest_eig,
    exact_chromatic_number,
    gershgorin,
    graph_spectrum,
    hong_bound,
    jacobi_eigenvalues,
    lambda1_window,
    or_power,
    or_power_degree,
    path_graph,
    power_chromatic_number,
    prism_graph,
    smallest_eig_lower_bounds,
    split_decomposition,
)
from chromacode.coloring import _cycle_scheme
from chromacode import spectral
from chromacode.spectral import BOUND_VARIANTS, _eigvalsh, _lex_spectra, brigham_bound

AF1 = Graph.from_edges(5, [(0, 1), (0, 4), (1, 2), (1, 3), (2, 3), (3, 4)])


def test_jacobi_matches_numpy_on_random_symmetric():
    rng = np.random.default_rng(7)
    for size in (2, 3, 5, 8, 12):
        m = rng.normal(size=(size, size))
        m = (m + m.T) / 2
        got = jacobi_eigenvalues(m)
        want = np.sort(np.linalg.eigvalsh(m))[::-1]
        assert np.allclose(got, want, atol=1e-8)


def test_jacobi_rejects_asymmetric():
    with pytest.raises(UsageError):
        jacobi_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_jacobi_raises_when_not_converged():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(8, 8))
    m = (m + m.T) / 2
    with pytest.raises(ChromacodeError, match="1 sweeps"):
        jacobi_eigenvalues(m, max_sweeps=1)


def test_jacobi_checks_convergence_after_the_last_sweep():
    # one rotation diagonalizes a 2x2 matrix, so exactly one sweep suffices
    m = np.array([[2.0, 1.0], [1.0, 2.0]])
    assert np.allclose(jacobi_eigenvalues(m, max_sweeps=1), [3.0, 1.0], atol=1e-12)
    with pytest.raises(ChromacodeError):
        jacobi_eigenvalues(m, max_sweeps=0)


class _MatrixGraph:
    """Stands in for a non-regular graph whose adjacency matrix is malformed."""

    def __init__(self, matrix):
        self.matrix = matrix
        self.vertex_count = len(matrix)

    def adjacency_matrix(self):
        return self.matrix

    def degrees(self):
        return list(range(self.vertex_count))


@pytest.mark.parametrize(
    "matrix", [np.array([[0.0, 1.0], [0.0, 0.0]]), np.ones((2, 3))], ids=["asymmetric", "non-square"]
)
def test_lapack_path_rejects_malformed_matrices(matrix):
    with pytest.raises(UsageError):
        _eigvalsh(matrix)
    with pytest.raises(UsageError):
        graph_spectrum(_MatrixGraph(matrix))


def test_spectra_are_plain_floats():
    assert all(type(v) is float for v in graph_spectrum(cycle_graph(5)).values)
    rep = split_decomposition(or_power(cycle_graph(5), 2))
    for values in (rep.lam_gr, rep.lam_fc, rep.lam_full, rep.lam_sums, rep.deviations):
        assert all(type(v) is float for v in values)


def test_c5_spectrum():
    spec = graph_spectrum(cycle_graph(5))
    assert np.allclose(
        sorted(spec.distinct()), [-1.618033988749895, 0.6180339887498949, 2.0], atol=1e-9
    )
    assert spec.lambda_1 == pytest.approx(2.0, abs=1e-9)


def test_a_graph_and_its_first_or_power_have_one_spectrum():
    # both read (C5, 1): the closed form, its top value the integer degree
    plain, power = graph_spectrum(cycle_graph(5)), graph_spectrum(or_power(cycle_graph(5), 1))
    assert plain == power
    assert plain.lambda_1 == 2.0


@pytest.mark.parametrize("g", [cycle_graph(3), path_graph(3), AF1])
def test_a_power_of_a_power_reads_as_one_power(g):
    # (Gᵐ)ⁿ is G^{mn}, with the same big-endian tuple order
    assert np.array_equal(or_power(or_power(g, 2), 2).adjacency_matrix(), or_power(g, 4).adjacency_matrix())
    assert graph_spectrum(or_power(g, 2), 2) == graph_spectrum(g, 4) == graph_spectrum(or_power(g, 4))
    assert split_decomposition(or_power(g, 2)) == split_decomposition(g, 2)


def test_c5_squared_spectrum():
    spec = graph_spectrum(or_power(cycle_graph(5), 2))
    assert np.allclose(
        sorted(spec.distinct()),
        [-6.090169943749474, -1.618033988749895, 0.6180339887498949, 5.090169943749474, 12.0],
        atol=1e-6,
    )


def test_spectrum_multiplicities_sum():
    spec = graph_spectrum(or_power(cycle_graph(5), 2))
    assert sum(m for _, m in spec.multiplicities()) == 25


@pytest.mark.parametrize("V,n", [(4, 2), (4, 3), (5, 2)])
def test_cycle_power_largest_eig(V, n):
    gn = or_power(cycle_graph(V), n)
    lam1 = graph_spectrum(gn).lambda_1
    closed = cycle_power_largest_eig(V, n)
    assert closed == 2 * (V**n - 1) // (V - 1)
    assert lam1 == pytest.approx(closed, abs=1e-6)


def test_all_ones_spectrum():
    got = _eigvalsh(np.ones((5, 5)))
    assert got[0] == pytest.approx(5.0, abs=1e-9)
    assert np.allclose(got[1:], 0.0, atol=1e-9)


def spectral_norm(matrix):
    """2-norm of an arbitrary rectangular matrix as sqrt(λ_max(M^T M)); the
    one-block reference for the stacked norms of `gershgorin`'s block mode.

    Not np.linalg.norm(m, 2): that returns 5.000000000000001 for the 5x5
    all-ones block, which moves the exact block-Gershgorin envelope of
    A_f1^2 off (-18, 18).
    """
    m = np.asarray(matrix, dtype=float)
    if m.size == 0:
        return 0.0
    ev = _eigvalsh(m.T @ m)
    return math.sqrt(max(float(ev[0]), 0.0))


def test_spectral_norm():
    assert spectral_norm(np.ones((3, 4))) == pytest.approx(math.sqrt(12), abs=1e-9)


def test_smallest_eig_lower_bounds_c5_squared():
    b = smallest_eig_lower_bounds(25, 150, [12] * 25)
    assert b["brigham"] == pytest.approx(-60.0, abs=1e-9)
    assert b["hong"] == pytest.approx(-12.7475487839, abs=1e-6)
    assert hong_bound(25) == b["hong"]
    lam_min = graph_spectrum(or_power(cycle_graph(5), 2)).lambda_min
    assert b["brigham"] <= lam_min + 1e-9
    assert b["hong"] <= lam_min + 1e-9
    assert b["das"] <= lam_min + 1e-9


def test_gershgorin_scalar_af1():
    res = gershgorin(AF1.adjacency_matrix(), "scalar")
    assert sorted(res.intervals) == [(-3.0, 3.0), (-3.0, 3.0)] + [(-2.0, 2.0)] * 3
    spec = graph_spectrum(AF1)
    assert all(res.contains(v) for v in spec.values)


def test_gershgorin_block_af1_squared():
    g2 = or_power(AF1, 2)
    res = gershgorin(g2.adjacency_matrix(), "block", block_size=5)
    assert res.scalar_envelope == (-18.0, 18.0)
    spec = graph_spectrum(g2)
    assert all(res.scalar_envelope[0] - 1e-9 <= v <= res.scalar_envelope[1] + 1e-9 for v in spec.values)
    # eigenvalue-centered discs are tighter but still enclose the spectrum
    assert all(res.contains(v) for v in spec.values)


def _gershgorin_by_loops(a, mode, block_size=None):
    """The per-row and per-block loops that gershgorin's array calls replaced:
    (intervals, envelope, scalar_envelope)."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if mode == "scalar":
        intervals = []
        for i in range(n):
            r = float(np.sum(np.abs(a[i]))) - abs(float(a[i, i]))
            intervals.append((float(a[i, i]) - r, float(a[i, i]) + r))
        env = (min(lo for lo, _ in intervals), max(hi for _, hi in intervals))
        return tuple(intervals), env, None
    b = block_size
    nb = n // b
    intervals, scalar_lo, scalar_hi = [], [], []
    for k in range(nb):
        diag = a[k * b : (k + 1) * b, k * b : (k + 1) * b]
        radius = sum(
            spectral_norm(a[k * b : (k + 1) * b, t * b : (t + 1) * b]) for t in range(nb) if t != k
        )
        for lam in _eigvalsh(diag):
            intervals.append((float(lam) - radius, float(lam) + radius))
        _, inner, _ = _gershgorin_by_loops(diag, "scalar")
        scalar_lo.append(inner[0] - radius)
        scalar_hi.append(inner[1] + radius)
    env = (min(lo for lo, _ in intervals), max(hi for _, hi in intervals))
    return tuple(intervals), env, (min(scalar_lo), max(scalar_hi))


def _gershgorin_cases():
    rng = np.random.default_rng(2026)
    for n, divisor in ((6, 3), (12, 4), (20, 10), (32, 8)):
        for _ in range(3):
            m = rng.normal(size=(n, n))
            m = (m + m.T) / 2
            for b in (1, divisor, n):
                yield m, b
    for g in (cycle_graph(5), cycle_graph(7), prism_graph(), AF1, path_graph(6), complete_graph(4)):
        yield or_power(g, 2).adjacency_matrix(), g.vertex_count


def test_gershgorin_equals_the_loops_it_replaced():
    for m, b in _gershgorin_cases():
        before = m.copy()
        for mode in ("scalar", "block"):
            res = gershgorin(m, mode, block_size=b)
            assert np.array_equal(m, before)  # works on a copy
            want = _gershgorin_by_loops(m, mode, b)
            assert (res.intervals, res.envelope, res.scalar_envelope) == want


def test_gershgorin_refuses_asymmetric_matrices():
    # symmetric diagonal blocks, but A_01 != A_10^T
    m = np.array([[0, 1, 1, 0], [1, 0, 0, 0], [0, 0, 0, 1], [1, 0, 1, 0]])
    with pytest.raises(UsageError, match="matrix must be symmetric"):
        gershgorin(m, "scalar")
    with pytest.raises(UsageError, match="matrix must be symmetric"):
        gershgorin(m, "block", block_size=2)


def _materialized_split(gn):
    """(within, full): the block diagonal of the power's Vⁿ x Vⁿ adjacency, built from the sub-graph views,
    and the adjacency itself."""
    size = gn.vertex_count // gn.tuple_base
    within = np.zeros((gn.vertex_count, gn.vertex_count), dtype=np.int64)
    for l in range(gn.tuple_base):
        block = slice(l * size, (l + 1) * size)
        within[block, block] = subgraph_view(gn, l).adjacency_matrix()
    return within, gn.adjacency_matrix()


def subgraph_view(gn, l):
    """Induced graph on sub-graph block l of an OR power (identity on tails)."""
    if not isinstance(gn, PowerGraph):
        raise UsageError("subgraph_view requires a PowerGraph with provenance")
    V, n = gn.tuple_base, gn.tuple_len
    if not 0 <= l < V:
        raise UsageError(f"block index {l} out of range")
    size = V ** (n - 1)
    lo = l * size
    mask = (1 << size) - 1
    rows = [(gn.neighbors_bitset(lo + t) >> lo) & mask for t in range(size)]
    if n == 2:
        return Graph(size, rows)
    return PowerGraph(rows, gn.base, n - 1)


@pytest.mark.parametrize(
    "gn",
    [or_power(cycle_graph(5), 3), or_power(prism_graph(), 2), or_power(AF1, 2)],
    ids=["C5^3", "prism^2", "A_f1^2"],
)
def test_split_decomposition_slices_the_subgraph_blocks(gn):
    # oracle: eigvalsh of the block diagonal of the sub-graph views' adjacencies, and of the rest
    within, full = _materialized_split(gn)
    rep = split_decomposition(gn)
    for got, matrix in ((rep.lam_gr, within), (rep.lam_fc, full - within), (rep.lam_full, full)):
        assert np.allclose(got, _eigvalsh(matrix), rtol=0, atol=1e-9)


def test_split_decomposition_af1_squared():
    g2 = or_power(AF1, 2)
    rep = split_decomposition(g2)
    assert rep.lam_full[0] == pytest.approx(14.8214, abs=1e-3)
    # index-wise eigenvalue sums of the two parts bound nothing exactly,
    # but the reported deviations must match |sums - full| recomputed here
    for s, f, d in zip(rep.lam_sums, rep.lam_full, rep.deviations):
        assert d == pytest.approx(abs(s - f), abs=1e-9)
    # the top sum dominates the true lambda_1 (Weyl)
    assert rep.lam_sums[0] >= rep.lam_full[0] - 1e-9


def test_lambda1_window_af1():
    w = lambda1_window(AF1, 2)
    assert w["window"][0] == pytest.approx(12.0, abs=1e-9)
    assert w["window"][1] == pytest.approx(18.0, abs=1e-9)
    assert w["refined"] == (12.0, 15)
    assert w["refined"][0] - 1e-9 <= w["lambda_1"] <= w["refined"][1] + 1e-9


@pytest.mark.parametrize(
    "g", [cycle_graph(4), cycle_graph(5), complete_graph(4), prism_graph(), AF1]
)
def test_hoffman_bound_sandwiches_chi(g):
    rep = chromatic_bounds_spectral("hoffman-direct", g=g)
    chi, _ = exact_chromatic_number(g)
    assert rep.lower - 1e-9 <= chi
    assert rep.upper is None or chi <= rep.upper + 1e-9


def test_cycle_power_bound_variant():
    rep = chromatic_bounds_spectral("cycle-power", V=5, n=2)
    chi, _ = exact_chromatic_number(or_power(cycle_graph(5), 2))
    assert rep.lower - 1e-9 <= chi <= rep.upper + 1e-9
    assert chromatic_bounds_spectral("cycle-power", g=cycle_graph(5), n=2, V=5) == rep
    # the closed form describes the canonical cycle only
    for g in (complete_graph(5), AF1):
        with pytest.raises(UsageError, match="canonical cycle"):
            chromatic_bounds_spectral("cycle-power", g=g, n=2, V=5)


@pytest.mark.parametrize("g", [cycle_graph(5), complete_graph(4), prism_graph(), AF1])
def test_general_bound_variant_sandwiches_power_chi(g):
    g2 = or_power(g, 2)
    rep = chromatic_bounds_spectral("general", g=g, n=2, power=g2)
    chi, _ = exact_chromatic_number(g2)
    assert rep.lower - 1e-9 <= chi <= rep.upper + 1e-9


def test_general_reads_lambda_min_of_the_power_without_one_given():
    # the Hong bound -sqrt(V(V+1))/2 stood in for λ_min when no power was passed: -2.7386 on C5
    rep = chromatic_bounds_spectral("general", g=cycle_graph(5), n=1)
    assert rep.details["lambda_V"] == pytest.approx(-(1 + 5**0.5) / 2, abs=1e-12)
    for g in (cycle_graph(5), AF1, path_graph(4)):
        rep = chromatic_bounds_spectral("general", g=g, n=2)
        assert rep.details["lambda_V"] == graph_spectrum(or_power(g, 2)).lambda_min, g.edges()


def test_degree_and_gct_split_variants():
    g2 = or_power(cycle_graph(5), 2)
    chi, _ = exact_chromatic_number(g2)
    for variant in ("degree", "gct-split"):
        rep = chromatic_bounds_spectral(variant, g=cycle_graph(5), n=2, power=g2)
        assert rep.lower - 1e-9 <= chi
        assert rep.upper is None or chi <= rep.upper + 1e-9


@pytest.mark.parametrize("V,n", [(5, 1), (5, 2), (6, 3), (7, 2)])
def test_brigham_closed_form_equals_the_degree_list_form(V, n):
    # a regular power: V^n vertices of degree λ1, V^n·λ1/2 edges
    l1 = cycle_power_largest_eig(V, n)
    Vn = V**n
    b = smallest_eig_lower_bounds(Vn, Vn * l1 // 2, [l1] * Vn)
    assert (b["brigham"], b["hong"]) == (brigham_bound(Vn, Vn * l1 // 2), hong_bound(Vn))
    rep = chromatic_bounds_spectral("cycle-power", V=V, n=n)
    assert rep.details["lambda_V_bound"] == max(b["brigham"], b["hong"])


def test_cycle_power_bound_never_writes_out_the_power():
    # 5^40 vertices: the bound reads closed forms only
    rep = chromatic_bounds_spectral("cycle-power", V=5, n=40)
    l1 = 2 * (5**40 - 1) // 4
    lam_v = max(brigham_bound(5**40, 5**40 * l1 // 2), hong_bound(5**40))
    assert rep.details == {"lambda_1": l1, "lambda_V_bound": lam_v}
    assert (rep.lower, rep.upper) == (1.0 - l1 / lam_v, l1 + 1)


@pytest.mark.parametrize("g", [cycle_graph(5), complete_graph(4), prism_graph(), AF1, path_graph(4)])
def test_every_variant_applies_hoffman_and_wilf_to_its_estimates(g):
    g2 = or_power(g, 2)
    keys = {
        "hoffman-direct": ("lambda_1", "lambda_V"),
        "degree": ("lambda_1", "das"),
        "general": ("lambda_1_estimate", "lambda_V"),
        "gct-split": ("sum", None),
    }
    for variant, (k1, kv) in keys.items():
        rep = chromatic_bounds_spectral(variant, g=g, n=2, power=g2)
        l1 = rep.details[k1]
        lv = rep.details[kv] if kv else hong_bound(g2.vertex_count)
        assert rep.lower == (1.0 - l1 / lv if lv < 0 else 1.0), variant
        wilf = max(g2.degrees()) + 1 if variant == "degree" else math.floor(l1 + 1e-9) + 1
        assert rep.upper == wilf, variant


def _bound_bases():
    """The `bounds` benchmark's six bases, then 60 seeded graphs on 2-6 vertices."""
    rng = random.Random("spectral-bound-bases")
    graphs = [cycle_graph(5), cycle_graph(7), prism_graph(), AF1, path_graph(6), complete_graph(4)]
    for _ in range(60):
        V = rng.randint(2, 6)
        graphs.append(Graph.from_edges(V, [e for e in combinations(range(V), 2) if rng.random() < 0.5]))
    return graphs


@pytest.mark.parametrize("variant", BOUND_VARIANTS)
def test_every_variant_contains_the_power_chi(variant):
    # `lambda1-window` reported the λ1 window's low edge as χ's lower bound (10 > χ(C5^2) = 8)
    checked = 0
    for g in _bound_bases():
        for n in (1, 2):
            if variant in ("lambda1-window", "gct-split") and n == 1:
                continue
            if variant == "cycle-power" and _cycle_scheme(g) is None:
                continue
            rep = chromatic_bounds_spectral(variant, g=g, n=n, V=g.vertex_count)
            # a power given reads as the (g, n) it records, at n = 1 too
            assert chromatic_bounds_spectral(variant, g=g, n=n, V=g.vertex_count, power=or_power(g, n)) == rep
            chi = power_chromatic_number(g, n)
            assert rep.lower - 1e-9 <= chi <= rep.upper + 1e-9, (variant, g.edges(), n, rep.lower, rep.upper)
            checked += 1
    assert checked >= 4


# -- spectra of OR powers from the base -----------------------------------------


def _regular_bases():
    """C3-C8, K1-K5, the prism, 2·C3, an edgeless graph and the 3-regular cube Q3 on 8 vertices."""
    two_triangles = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    cube = [(u, u | 1 << b) for u in range(8) for b in range(3) if not u >> b & 1]
    return (
        [cycle_graph(V) for V in range(3, 9)]
        + [complete_graph(V) for V in range(1, 6)]
        + [prism_graph(), Graph.from_edges(6, two_triangles), Graph.from_edges(4, []), Graph.from_edges(8, cube)]
    )


@pytest.mark.parametrize("n", [2, 3])
def test_graph_spectrum_of_a_regular_power_is_the_lexicographic_closed_form(n):
    for g in _regular_bases():
        gn = or_power(g, n)  # under the power guard: at most 8^3 vertices
        values = graph_spectrum(gn).values
        assert all(type(v) is float for v in values)
        assert values[0] == or_power_degree(g.degree(0), g.vertex_count, n)
        assert np.allclose(values, _eigvalsh(gn.adjacency_matrix()), rtol=0, atol=1e-9), (g.edges(), n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_an_or_power_records_its_base(n):
    for g in _bound_bases() + _regular_bases():
        gn = or_power(g, n)
        assert gn.base is g and (gn.tuple_base, gn.tuple_len) == (g.vertex_count, n)
        assert gn.to_dict() == {**Graph(gn.vertex_count, gn._rows).to_dict(), "tuple_base": g.vertex_count, "tuple_len": n}
        for m in (n - 1, n):
            lam_g, lam = _lex_spectra(g, m)
            want = _eigvalsh(or_power(g, m).adjacency_matrix()) if m else [0.0]
            assert np.allclose(lam_g, _eigvalsh(g.adjacency_matrix()), rtol=0, atol=1e-9), (g.edges(), m)
            assert np.allclose(lam, want, rtol=0, atol=1e-9), (g.edges(), m)


def _materialized_window(g, n, power):
    """The λ1 window and split sum as built on the power's Vⁿ x Vⁿ adjacency: the block GCT and
    the eigenvalues of its materialized split (the reference for the base-quantity forms)."""
    size = g.vertex_count ** (n - 1)
    lo = 2 * g.edge_count / g.vertex_count * size
    gct = gershgorin(power.adjacency_matrix(), "block", block_size=size)
    within, full = _materialized_split(power)
    gr, fc, lam_1 = (_eigvalsh(m)[0] for m in (within, full - within, full))
    return {
        "window": (lo, gct.scalar_envelope[1]),
        "refined": (lo, math.floor(gr + fc + 1e-9) + 1),
        "lambda_1": lam_1,
        "gct": gct,
        "split": (gr, fc),
    }


@pytest.mark.parametrize("n", [2, 3])
def test_window_and_gct_split_match_the_materialized_reference(n):
    for g in _bound_bases():
        power = or_power(g, n)
        ref = _materialized_window(g, n, power)
        w = lambda1_window(g, n)
        where = (g.edges(), n)
        assert np.allclose(w["gct"]["envelope"], ref["gct"].envelope, rtol=0, atol=1e-9), where
        top = or_power_degree(max(g.degrees()), g.vertex_count, n)
        assert w["gct"]["scalar_envelope"] == (-top, top), where
        assert np.allclose(ref["gct"].scalar_envelope, (-top, top), rtol=0, atol=1e-9), where
        assert w["window"] == (ref["window"][0], top), where
        assert w["refined"] == ref["refined"], where
        assert w["lambda_1"] == pytest.approx(ref["lambda_1"], abs=1e-9), where
        rep = chromatic_bounds_spectral("gct-split", g=g, n=n, power=power)
        gr, fc = ref["split"]
        assert rep.details["lambda_1_gr"] == pytest.approx(gr, abs=1e-9), where
        assert rep.details["lambda_1_fc"] == pytest.approx(fc, abs=1e-9), where
        assert rep.details["sum"] == pytest.approx(gr + fc, abs=1e-9), where
        assert rep.upper == ref["refined"][1], where


def test_window_and_gct_split_eigensolve_no_power_sized_matrix_on_a_regular_base(monkeypatch):
    sizes = []
    eigvalsh = spectral._eigvalsh
    monkeypatch.setattr(spectral, "_eigvalsh", lambda m: sizes.append(len(m)) or eigvalsh(m))
    built = []  # the sizes of the adjacency matrices of powers built
    monkeypatch.setattr(PowerGraph, "adjacency_matrix", lambda p: built.append(p.vertex_count) or Graph.adjacency_matrix(p))
    for g in (cycle_graph(5), prism_graph(), AF1, path_graph(4)):
        power = or_power(g, 3)
        regular = len(set(g.degrees())) == 1
        # only λ1 of a non-regular power needs the whole matrix: the window's, and the split's full spectrum
        for call, wide in (
            (lambda: lambda1_window(g, 3), 0 if regular else 1),
            (lambda: chromatic_bounds_spectral("gct-split", g=g, n=3, power=power), 0),
            (lambda: split_decomposition(power), 0 if regular else 1),
        ):
            sizes.clear()
            built.clear()
            call()
            assert sizes.count(power.vertex_count) == built.count(power.vertex_count) == wide, g.edges()
            assert max(s for s in sizes if s != power.vertex_count) <= g.vertex_count**2
        sizes.clear()
        graph_spectrum(power)
        assert sizes == ([g.vertex_count] if regular else [power.vertex_count])


def test_the_window_reads_g_and_n_alone_and_guards_the_largest_graph_it_reads(monkeypatch):
    sizes = []
    eigvalsh = spectral._eigvalsh
    monkeypatch.setattr(spectral, "_eigvalsh", lambda m: sizes.append(len(m)) or eigvalsh(m))
    # C5^6 is past the power guard, but a regular base reads λ(C5^5) from λ(C5)
    w = lambda1_window(cycle_graph(5), 6)
    assert (w["window"], w["refined"], w["lambda_1"]) == ((6250.0, 7812.0), (6250.0, 7813), 7812.0)
    assert sizes == [5]
    sizes.clear()
    # C5^7 reads C5^6, and the non-regular AF1^6 reads itself: both are past the power guard
    for g, n in ((cycle_graph(5), 7), (AF1, 6)):
        with pytest.raises(GuardExceeded, match="power vertex count"):
            lambda1_window(g, n)
    # gct-split reads λ(G^{n-1}), and builds no power to do so
    with pytest.raises(GuardExceeded, match="power vertex count"):
        chromatic_bounds_spectral("gct-split", g=cycle_graph(5), n=7)
    assert sizes == []
    rep = chromatic_bounds_spectral("gct-split", g=cycle_graph(5), n=7, guard=20_000)
    assert (rep.details["sum"], rep.upper, sizes) == (39062.0, 39063, [5])


def test_the_split_of_a_regular_power_eigensolves_the_base_once(monkeypatch):
    sizes = []
    eigvalsh = spectral._eigvalsh
    monkeypatch.setattr(spectral, "_eigvalsh", lambda m: sizes.append(len(m)) or eigvalsh(m))
    # λ(C5^3) is one lexicographic step from λ(C5^2), read off the one 5 x 5 solve of λ(C5)
    split_decomposition(or_power(cycle_graph(5), 3))
    assert sizes == [5]
    # and it is graph_spectrum's, to the bit, on every regular base
    for g in (cycle_graph(5), prism_graph(), complete_graph(3), Graph.from_edges(3, [])):
        for n in (2, 3):
            power = or_power(g, n)
            assert split_decomposition(power).lam_full == graph_spectrum(power).values, (g.edges(), n)
    sizes.clear()
    # the split's lists have 121 values, past the power guard of 100
    with pytest.raises(GuardExceeded, match="power vertex count"):
        split_decomposition(or_power(cycle_graph(11), 2), guard=100)
    assert sizes == []


def test_graph_spectrum_refuses_past_the_dense_guard_before_building_a_matrix(monkeypatch):
    built = []
    adjacency = Graph.adjacency_matrix
    monkeypatch.setattr(Graph, "adjacency_matrix", lambda g: built.append(g.vertex_count) or adjacency(g))
    for g in (cycle_graph(300), path_graph(101)):
        with pytest.raises(GuardExceeded, match="matrix dimension"):
            graph_spectrum(g, guard=100)
    # the closed form of C11^2 solves 11 x 11, but lists 121 values, past the power guard of 100
    with pytest.raises(GuardExceeded, match="power vertex count"):
        graph_spectrum(or_power(cycle_graph(11), 2), guard=100)
    assert built == []
