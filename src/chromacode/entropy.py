"""Coloring PMFs, chromatic entropy, α-profile windows, the fractional
lower bound, and Huffman coding of color distributions.

A window on the per-symbol chromatic entropy of G^n comes from profiles of
color-class counts in which the classes of G^t have size α^t, α = α(G)
(`graphs.max_independent_set_size`, one clique search on the complement).
One search, `_extremal_profile`, gives both edges: the profile of largest
α_n under a monotone rule (low edge) and of smallest α_n under the chain
rule (high edge), over the α_n range of `alpha_n_window`.

PMFs stay exact rationals; entropies are floats (comparison tolerance 1e-9).
"""

import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import lcm, log2

from .coloring import fractional_chromatic_power
from .errors import ChromacodeError, GuardExceeded, UsageError, check_guard, resolve_guard
from .graphs import max_independent_set_size

BRUTE_ENTROPY_GUARD_DEFAULT = 12
# search nodes of the brute-force chromatic entropy: the partitions it visits
# grow as the Bell numbers (5.0 M nodes on 12 isolated vertices), so the
# vertex guard alone does not bound its time
BRUTE_ENTROPY_STEPS = 250_000
# color classes of an α profile, and candidate α values its search tries
WINDOW_GUARD_DEFAULT = 1_000_000


def entropy_bits(probs):
    """Shannon entropy in bits of an iterable of probabilities.  A term is
    taken at its float; one that rounds to 0.0, though its exact value is
    positive, adds 0, the limit of p log2 p.  A law with one term has entropy
    0.0, not -0.0: the sum is subtracted from 0.0, not negated."""
    return 0.0 - sum(q * log2(q) for q in map(float, probs) if q > 0)


def chromatic_entropy_bruteforce(g, vertex_pmf=None, guard=None):
    """Global minimum of coloring entropy over all valid colorings.

    Enumerates partitions into independent sets (colorings up to relabeling)
    by assigning each vertex to an existing class or a fresh one.
    `vertex_pmf`, one mass per vertex, none negative, summing to exactly 1,
    defaults to uniform; any other raises UsageError.  `guard`
    bounds the vertex count; the search nodes, which grow as the Bell
    numbers, are counted against BRUTE_ENTROPY_STEPS, and one past it raises
    GuardExceeded.
    """
    V = g.vertex_count
    check_guard("vertex count", V, guard, BRUTE_ENTROPY_GUARD_DEFAULT)
    if vertex_pmf is None:
        vertex_pmf = [Fraction(1, V)] * V
    vertex_pmf = [Fraction(p) for p in vertex_pmf]
    if len(vertex_pmf) != V:
        raise UsageError(f"vertex PMF has {len(vertex_pmf)} masses for {V} vertices")
    if min(vertex_pmf, default=0) < 0:
        raise UsageError("vertex PMF has a negative mass")
    if sum(vertex_pmf) != 1:
        raise UsageError("vertex PMF must sum to exactly 1")
    # masses as integers over the common denominator D: a class's float mass
    # w / D is its Fraction's float, both the correctly rounded quotient
    D = lcm(*(p.denominator for p in vertex_pmf))
    weight = [p.numerator * (D // p.denominator) for p in vertex_pmf]
    best = float("inf")
    steps = 0
    class_bits = []  # bitset of vertices per class
    class_mass = []

    def rec(v):
        nonlocal best, steps
        steps += 1
        if steps > BRUTE_ENTROPY_STEPS:
            raise GuardExceeded("brute-force entropy search nodes", steps, BRUTE_ENTROPY_STEPS)
        if v == V:
            best = min(best, entropy_bits([w / D for w in class_mass]))
            return
        nb = g.neighbors_bitset(v)
        for i in range(len(class_bits)):
            if class_bits[i] & nb:
                continue
            class_bits[i] |= 1 << v
            class_mass[i] += weight[v]
            rec(v + 1)
            class_mass[i] -= weight[v]
            class_bits[i] &= ~(1 << v)
        class_bits.append(1 << v)
        class_mass.append(weight[v])
        rec(v + 1)
        class_bits.pop()
        class_mass.pop()

    rec(0)
    return best


# -- alpha-profile upper bounds ----------------------------------------------


@dataclass(frozen=True)
class AlphaProfile:
    """alphas[t] = number of color classes realized as independent sets of
    size mis_sizes[t] = |MIS_{G^t}| in a coloring of G^n."""

    alphas: tuple  # alpha_0 .. alpha_n
    mis_sizes: tuple  # |MIS_{G^t}| for t = 0..n
    total: int  # V^n

    def pmf(self):
        out = {}
        cid = 0
        for t in range(len(self.alphas) - 1, -1, -1):
            p = Fraction(self.mis_sizes[t], self.total)
            for _ in range(self.alphas[t]):
                out[cid] = p
                cid += 1
        if sum(out.values()) != 1:
            raise ChromacodeError(f"alpha profile {self.alphas} does not cover {self.total} vertices")
        return out

    def entropy(self):
        return entropy_bits(self.pmf().values())


def alpha_n_window(V, m, n):
    """Feasible integer window for α_n: ⌊V^n·m^n(m²−1)/(m^{2(n+1)}−1)⌋+1
    (strict rational lower bound) up to ⌊(V^n−1)/m^n⌋ (α_0 = 1, rest ≥ 0)."""
    lo_rat = Fraction(V**n * m**n * (m**2 - 1), m ** (2 * (n + 1)) - 1)
    hi = (V**n - 1) // m**n
    # the strict rational bound overshoots at n = 1, where alpha_0 = alpha_n/m
    # holds with equality; clamp to keep the window nonempty
    lo = min(int(lo_rat) + 1, hi)
    return lo, hi


def _extremal_profile(V, m, n, window, chain, guard=None):
    """The α profile (α_0, ..., α_n) with α_0 = 1 and Σ α_t·m^t = V^n that
    has the largest α_n under the monotone rule α_{t+1} ≥ α_t ≥ 1, or, with
    `chain`, the smallest α_n under the chain rule α_t ≥ m·α_{t-1}.

    α_n scans `window` (from `alpha_n_window`) down from its top, or with
    `chain` up from max(lo, m^n); a depth-first search then takes each
    α_{n-1}, ..., α_1 as large as the rule and the remaining mass allow.
    The chain rule caps α_{t-1} at ⌊α_t/m⌋ and so forces α_t ≥ m^t.  The
    search keeps one frame per open level, not a call, and counts every
    candidate α it tries against `guard` (WINDOW_GUARD_DEFAULT).  When no
    profile is feasible it raises ChromacodeError ("no entropy window").
    """
    lo, hi = window
    step = m if chain else 1
    limit = resolve_guard(guard, WINDOW_GUARD_DEFAULT)
    tried = 0
    # frames[i] tries α_t at t = n - i with mass rest[i] left; path holds the
    # α chosen above the last frame
    frames = [iter(range(max(lo, m**n), hi + 1) if chain else range(hi, 0, -1))]
    rest, path = [V**n], []
    while frames:
        tried += 1
        if tried > limit:
            raise GuardExceeded("alpha-profile search steps", tried, limit)
        t = n + 1 - len(frames)
        a = next(frames[-1], None)
        if a is None:
            frames.pop()
            rest.pop()
            del path[-1:]
            continue
        left = rest[-1] - a * m**t
        if left < 1:
            continue
        if t == 1:
            if left == 1:
                return (1, a, *path[::-1])
            continue
        path.append(a)
        rest.append(left)
        frames.append(iter(range(min(a // step, left // m ** (t - 1)), step ** (t - 1) - 1, -1)))
    raise ChromacodeError(
        f"no entropy window: no feasible {'chain' if chain else 'monotone'} alpha profile"
    )


def odd_cycle_entropy_upper_bound(k, n, guard=None):
    """[lo, hi] window on the normalized chromatic entropy of C_{2k+1}^n.

    |MIS_{C_{2k+1}^t}| = k^t.  The low edge evaluates the extremal profile
    with maximal α_n (most mass on the largest independent sets); the high
    edge the feasible profile with minimal α_n.  Returns a dict with the
    window, the α_n integer window, and both extremal profiles.  `guard`
    bounds the profiles' color classes and the search (`_check_classes`,
    `_extremal_profile`).
    """
    if k < 2 or n < 1:
        raise UsageError("need k >= 2 and n >= 1")
    V = 2 * k + 1
    return _entropy_window(V, k, n, guard)


def _check_classes(V, m, n, guard):
    """Refuse, as GuardExceeded, α profiles of G^n with too many color
    classes: no class holds more than m^n vertices, so each profile has at
    least ⌈V^n/m^n⌉, and its PMF one entry per class."""
    check_guard("color classes of an alpha profile", -(-(V**n) // m**n), guard, WINDOW_GUARD_DEFAULT)


def _entropy_window(V, m, n, guard):
    _check_classes(V, m, n, guard)
    window = alpha_n_window(V, m, n)
    sizes = tuple(m**t for t in range(n + 1))
    lo_profile, hi_profile = (
        AlphaProfile(_extremal_profile(V, m, n, window, chain, guard), sizes, V**n)
        for chain in (False, True)
    )
    return {
        "lo": lo_profile.entropy() / n,
        "hi": hi_profile.entropy() / n,
        "alpha_n_window": window,
        "lo_profile": lo_profile,
        "hi_profile": hi_profile,
    }


def general_entropy_upper_bound(g, n, guard=None):
    """Same α machinery with |MIS_{G^t}| = |MIS_G|^t for a general graph;
    `guard` bounds the α(G) search as well."""
    if n < 1:
        raise UsageError("n must be >= 1")
    V = g.vertex_count
    m = max_independent_set_size(g, guard=guard)
    if m == 1:
        # complete graph: every class is a singleton, bound is log2 V exactly
        _check_classes(V, m, n, guard)
        sizes = tuple(1 for _ in range(n + 1))
        # K1's power is one vertex: the only class is alpha_0
        alphas = (1,) * n + (V**n - n,) if V > 1 else (1,) + (0,) * n
        profile = AlphaProfile(alphas, sizes, V**n)
        h = log2(V)
        return {
            "lo": h,
            "hi": h,
            "alpha_n_window": (profile.alphas[-1], profile.alphas[-1]),
            "lo_profile": profile,
            "hi_profile": profile,
        }
    return _entropy_window(V, m, n, guard)


def fractional_entropy_lower_bound(V):
    """log2 χ_f(C_V) = log2((2k+1)/k) for odd V = 2k+1: graph-entropy lower
    bound under a uniform source."""
    if V % 2 == 0:
        raise UsageError("fractional lower bound needs odd V = 2k+1")
    if V < 5:
        raise UsageError("need V >= 5")
    return log2(fractional_chromatic_power(V // 2, 1))


# -- Huffman ------------------------------------------------------------------


def huffman_code(pmf):
    """Optimal binary prefix code for a color PMF: (code dict in codeword
    order, average length as an exact Fraction).

    Masses are ints or what `Fraction` reads; a negative or unreadable mass
    raises UsageError naming its color, and zero masses are dropped with a
    warning.  Merges run on integer weights: int masses as given, others as
    exact rationals scaled by the lcm D of their denominators, which keeps
    order and ties (int weights on any common scale give the same code, and
    the average length on that scale).

    `_huffman` merges the positive weights.  Each merge takes the two least
    nodes by (weight, least color), the first as bit 0; live subtrees hold
    disjoint colors, so no two keys tie and the code is deterministic.  The
    least nodes come from two queues, not a heap: the leaves sorted once by
    (weight, color), and the merged nodes in the order they are made, which
    is sorted as well.  Weights are positive, so a merged node outweighs both
    its children, and each node taken is greater than every node taken
    before it.  Merged weights therefore never decrease, and when two merges
    a + b and c + d (a ≤ b ≤ c ≤ d, taken in that order) weigh the same,
    a = b = c = d, so the earlier merge's least color, that of a, is the
    smaller.  The two queue fronts are thus always the two least live nodes
    (van Leeuwen 1976).  The total Σ w·len is the sum of the merged weights.
    Codeword order is the tree's depth-first order, 0 first; a lone color
    gets "" (zero bits).
    """
    colors = sorted(pmf)
    if not colors:
        raise UsageError("empty PMF")
    weights = [pmf[c] for c in colors]
    D = 1
    if not all(isinstance(w, int) for w in weights):
        for i, (c, p) in enumerate(zip(colors, weights)):
            try:
                weights[i] = Fraction(p)
            except (TypeError, ValueError, OverflowError):
                raise UsageError(f"color {c} has mass {p!r}, not a number") from None
        D = lcm(*(p.denominator for p in weights))
        weights = [p.numerator * (D // p.denominator) for p in weights]
    leaves = list(zip(weights, colors))
    if min(weights) <= 0:
        if min(weights) < 0:
            raise UsageError(f"negative mass at colors {[c for w, c in leaves if w < 0]}")
        if not any(weights):
            raise UsageError("no color has positive mass")
        warnings.warn(f"dropping zero-probability colors {[c for w, c in leaves if not w]}")
        leaves = [leaf for leaf in leaves if leaf[0]]
    code, total = _huffman(leaves)
    return code, Fraction(total, D)


def _huffman(leaves):
    """(code dict in codeword order, Σ w·len as an int) of the Huffman tree
    on `leaves`, (weight, color) pairs with positive int weights and distinct
    colors, in any order; `huffman_code` gives the merge rule and why two
    queues follow it."""
    nodes = sorted(leaves)  # node i < m: a leaf; node m + j: merge j
    m = len(nodes)
    kids = []  # merge j's children: kids[2j] (bit 0) and kids[2j + 1] (bit 1)
    total = 0
    i, j = 0, m  # the fronts of the leaf and merge queues
    for node in range(m, 2 * m - 1):
        # take the lesser front twice; a queue is empty at i == m or j == node
        if j < node and (i == m or nodes[j] < nodes[i]):
            a, j = j, j + 1
        else:
            a, i = i, i + 1
        if j < node and (i == m or nodes[j] < nodes[i]):
            b, j = j, j + 1
        else:
            b, i = i, i + 1
        (w, c), (w2, c2) = nodes[a], nodes[b]
        w += w2
        total += w
        kids += (a, b)
        nodes.append((w, c if c < c2 else c2))
    code = {}
    stack = [(len(nodes) - 1, "")]
    while stack:
        node, prefix = stack.pop()
        if node < m:
            code[nodes[node][1]] = prefix
        else:
            k = 2 * (node - m)
            stack += ((kids[k + 1], prefix + "1"), (kids[k], prefix + "0"))
    return code, total
