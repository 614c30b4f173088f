"""Valid colorings: verification, greedy/exact baselines, OR-power colorings
and fractional (b-fold) colorings.

The OR power is the lexicographic product G^n = G[G^{n-1}], so an a:b
coloring of the base (b colors per vertex, disjoint on edges) composed with a
b-coloring of G^{n-1} colors G^n with a colors (Geller & Stahl 1975).  One
engine, `_compose`, runs that recursion on a *fold*: a function of b giving
(a, per-vertex b-tuples).  The even-cycle (parity), odd-cycle (windows with
χ' = 2χ + ⌈χ/k⌉, Stahl 1976) and product schemes are folds.  One dispatcher,
`power_coloring`, picks a strategy (`auto`: the cycle scheme on a canonical
cycle, else exact), materializes the power under its guard and validates the
coloring on it once.  The codec calls it at n = 1 only, on the
characteristic graph of a PMF with zero cells, and codes n-blocks by the
vectors of that coloring; under full support it calls it not at all.
"""

import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ChromacodeError, GuardExceeded, UsageError, check_guard
from .graphs import _complement_rows, _max_clique_size, _maximal_cliques, bits_to_list, make_graph
from .orpower import POWER_GUARD_DEFAULT, or_power

CHI_GUARD_DEFAULT = 64
CHI_TIMEOUT_DEFAULT = 60.0


@dataclass(frozen=True)
class Coloring:
    """Vertex -> color assignment with a contiguous 0-based palette."""

    assignment: tuple
    palette_size: int

    @classmethod
    def from_list(cls, colors):
        colors = list(colors)
        # normalize palette ids to contiguous 0..a-1, by first appearance
        remap = {}
        out = []
        for c in colors:
            if c not in remap:
                remap[c] = len(remap)
            out.append(remap[c])
        return cls(tuple(out), len(remap))

    def to_dict(self):
        return {"colors": list(self.assignment), "palette": self.palette_size}


def is_valid_coloring(g, c):
    """True iff no edge of g is monochromatic under c.

    Each color class is ORed into one vertex bitset; vertex u is then checked
    by one AND of its adjacency row with its class, keeping the bits above u
    (so each edge is read once, from its lower end, as `g.edges()` lists it).
    """
    if len(c.assignment) != g.vertex_count:
        raise UsageError(
            f"coloring length {len(c.assignment)} != vertex count {g.vertex_count}"
        )
    classes = {}
    for v, color in enumerate(c.assignment):
        classes[color] = classes.get(color, 0) | 1 << v
    return not any(
        (row & classes[color]) >> (u + 1)
        for u, (row, color) in enumerate(zip(g._rows, c.assignment))
    )


def greedy_coloring(g, order=None):
    """First-fit greedy coloring along the given vertex order (default natural).

    Each color keeps its class as one vertex bitset, and v takes the first
    color whose class shares no bit with v's adjacency row: the least color
    that no colored neighbour of v has.
    """
    V = g.vertex_count
    if order is None:
        order = range(V)
    order = list(order)
    if sorted(order) != list(range(V)):
        raise UsageError("order must be a permutation of all vertices")
    colors = [0] * V
    classes = []
    for v in order:
        row = g._rows[v]
        for c, members in enumerate(classes):
            if not row & members:
                classes[c] = members | 1 << v
                break
        else:
            c = len(classes)
            classes.append(1 << v)
        colors[v] = c
    return Coloring.from_list(colors)


def _greedy_clique_size(adj, order, U):
    """Size of the clique of G[U] taken greedily along `order`."""
    size, p = 0, U
    for v in order:
        if p >> v & 1:
            size += 1
            p &= adj[v]
    return size


def _two_coloring(adj, U):
    """Independent sets (side 0, side 1) covering U, by breadth-first search;
    side 1 is empty iff U is independent.  None if G[U] has an odd cycle."""
    sides = [0, 0]
    rest = U
    while rest:
        frontier = rest & -rest
        sides[0] |= frontier
        side = 0
        while frontier:
            reach = 0
            for u in bits_to_list(frontier):
                reach |= adj[u]
            reach &= U
            if reach & sides[side]:
                return None
            side ^= 1
            frontier = reach & ~sides[side]
            sides[side] |= frontier
        rest &= ~(sides[0] | sides[1])
    return sides


def exact_chromatic_number(g, guard=None, timeout=CHI_TIMEOUT_DEFAULT):
    """Minimal palette size and a witness coloring, by a search that
    partitions the vertices into independent sets.

    The lower bound is seeded with a greedy clique, the upper with first-fit
    greedy (both in degree-descending order, ties: lowest id).  While they
    differ, the lower bound is raised to ⌈V/α⌉ and the search colors one
    class at a time: it takes the uncolored vertex v with the fewest
    uncolored non-neighbours and branches over the maximal independent sets
    of the uncolored subgraph that contain v, largest first.  That is
    complete, since v's class in an optimal partition can always be grown to
    such a set.  A node whose uncolored set U may take k more classes is
    pruned when ⌈|U|/α⌉ > k, when a greedy clique of U has more than k
    vertices, or when U was already proven not to split into k classes;
    with k <= 2 it is settled by 2-coloring U.  Deterministic.  Raises
    GuardExceeded on size or timeout (size: the elapsed seconds), which is
    distinct from any coloring outcome.
    """
    start = time.monotonic()
    V = g.vertex_count
    check_guard("vertex count", V, guard, CHI_GUARD_DEFAULT)
    order = sorted(range(V), key=lambda v: (-g.degree(v), v))
    adj = [g.neighbors_bitset(v) for v in range(V)]
    lb = max(1, _greedy_clique_size(adj, order, (1 << V) - 1))
    greedy = greedy_coloring(g, order)
    if greedy.palette_size <= lb:
        return greedy.palette_size, greedy

    def tick():
        elapsed = time.monotonic() - start
        if timeout and elapsed > timeout:
            raise GuardExceeded("exact coloring time (s)", elapsed, timeout)

    comp = _complement_rows(g)
    alpha = _max_clique_size(comp, (1 << V) - 1, tick)
    lb = max(lb, -(-V // alpha))
    best, best_classes = greedy.palette_size, None
    refuted = {}  # uncolored set -> largest class count proven too few for it

    def search(U, classes):
        """Extend `classes` to partitions of U; True once best reaches lb."""
        nonlocal best, best_classes
        if not U:
            best, best_classes = len(classes), classes.copy()
            return best == lb
        budget = best - 1 - len(classes)  # classes U may take to improve on best
        if -(-U.bit_count() // alpha) > budget or refuted.get(U, -1) >= budget:
            return False
        if _greedy_clique_size(adj, order, U) > budget:
            return False
        tick()
        if budget <= 2:
            sides = _two_coloring(adj, U)
            if sides is None or (budget == 1 and sides[1]):
                return False
            best_classes = classes + [s for s in sides if s]
            best = len(best_classes)
            return best == lb
        v = min(bits_to_list(U), key=lambda u: ((U & comp[u]).bit_count(), u))
        # a class that leaves more than (budget - 1) * alpha vertices cannot pay off
        least = U.bit_count() - (budget - 1) * alpha - 1
        sets = sorted(
            (m | 1 << v for m in _maximal_cliques(comp, U & comp[v], least)),
            key=lambda s: (-s.bit_count(), s),
        )
        for s in sets:
            classes.append(s)
            if search(U & ~s, classes):
                return True
            classes.pop()
        refuted[U] = max(refuted.get(U, -1), best - 1 - len(classes))
        return False

    search((1 << V) - 1, [])
    if best_classes is None:
        return best, greedy
    colors = [0] * V
    for color, s in enumerate(best_classes):
        for v in bits_to_list(s):
            colors[v] = color
    return best, Coloring.from_list(colors)


# -- OR-power colorings by composition ---------------------------------------

STRATEGIES = ("exact", "greedy", "even-cycle", "odd-cycle", "product", "auto")


def _compose(fold, n):
    """Colors of the vertices of G^n, by big-endian tuple index.

    G^m = G[G^{m-1}], so a b-coloring c of G^{m-1} and an a:b coloring S of
    G, which gives each vertex x an ordered tuple S_x of b colors out of a,
    disjoint for adjacent vertices, color G^m with a colors as
    (x, rest) -> S_x[c(rest)] (Geller & Stahl 1975).  `fold(b)` returns
    (a, S) with S a (V, b) integer array; the recursion starts from the one
    color of G^0.
    """
    colors, b = np.zeros(1, dtype=np.int64), 1
    for _ in range(n):
        b, S = fold(b)
        colors = S[:, colors].ravel()
    return colors


def _vector_fold(base):
    """S_x = c(x)·b + j: the vector of the base coloring c over the
    coordinates.  On an even cycle with c = parity this is 2^n colors."""
    c = np.array(base.assignment)[:, None]
    return lambda b: (base.palette_size * b, c * b + np.arange(b))


def _odd_cycle_windows(k, b):
    """(a, starts) of the a:b window coloring of C_{2k+1}: vertex x gets the
    b colors starts[x], ..., starts[x] + b - 1 (mod a), and a = 2b + ⌈b/k⌉
    is the least a with a/b >= (2k+1)/k (Stahl 1976).

    The 2k+1 steps from one start to the next, the closing step included,
    are each b + e with 0 <= e <= a - 2b and sum to the least multiple of a
    that is at least (2k+1)b; the extra colors go to the closing step first,
    then to the last steps.
    """
    a = 2 * b + -(-b // k)
    extra = a - 2 * b
    spare = -(2 * k + 1) * b % a
    steps = []
    for _ in range(2 * k + 1):
        steps.append(b + min(extra, spare))
        spare -= steps[-1] - b
    starts = [0]
    for step in reversed(steps[1:]):  # the extras sit on the last steps
        starts.append((starts[-1] + step) % a)
    return a, starts


def _odd_cycle_fold(k):
    """Windows of `_odd_cycle_windows` on C_{2k+1}: χ' = 2χ + ⌈χ/k⌉ colors."""

    def fold(b):
        if b == 1:  # the 3-coloring (0, 1, 0, ..., 1, 2), not the 3:1 windows
            return 3, np.array([v % 2 for v in range(2 * k)] + [2])[:, None]
        a, starts = _odd_cycle_windows(k, b)
        return a, (np.array(starts)[:, None] + np.arange(b)) % a

    return fold


def _cycle_scheme(g):
    """The cycle strategy that fits g, if g is the canonical cycle C_V with
    V >= 4 (as `make_graph` builds it, vertex v joined to v ± 1 mod V):
    `even-cycle` or `odd-cycle`; else None.  Each adjacency row is compared
    with the cycle's two-bit row; no cycle graph is built."""
    V = g.vertex_count
    if V >= 4 and all(
        g.neighbors_bitset(v) == (1 << (v - 1) % V | 1 << (v + 1) % V) for v in range(V)
    ):
        return "odd-cycle" if V % 2 else "even-cycle"
    return None


def check_strategy(strategy):
    """Raise UsageError unless `strategy` is one of STRATEGIES."""
    if strategy not in STRATEGIES:
        raise UsageError(f"unknown coloring strategy {strategy!r}")


def power_coloring(g, n, strategy="auto", guard=None):
    """(G^n, coloring of G^n) by one of STRATEGIES; the coloring is validated.

    `exact` and `greedy` color the materialized power.  The others compose
    folds of the base (`_compose`): parity vectors (2^n colors) on the
    canonical even cycle, windows (χ' = 2χ + ⌈χ/k⌉) on the canonical odd
    cycle C_{2k+1}, vectors of an exact base coloring (`product`) on any
    graph.  `auto` takes the cycle scheme on a canonical cycle of 4 or more
    vertices, else `exact`.  The power is built under `guard` first, so one
    past it raises GuardExceeded whatever the strategy; `guard` also bounds
    the exact solver.
    """
    check_strategy(strategy)
    cycle = _cycle_scheme(g)
    if strategy == "auto":
        strategy = cycle or "exact"
    elif strategy in ("even-cycle", "odd-cycle") and strategy != cycle:
        need = "odd V >= 5" if strategy == "odd-cycle" else "even V >= 4"
        raise UsageError(f"{strategy} strategy needs the canonical cycle C_V with {need}")
    gn = or_power(g, n, guard=guard)
    if strategy == "exact":
        _, c = exact_chromatic_number(gn, guard=guard)
    elif strategy == "greedy":
        c = greedy_coloring(gn)
    else:
        if strategy == "odd-cycle":
            fold = _odd_cycle_fold(g.vertex_count // 2)
        elif strategy == "even-cycle":
            fold = _vector_fold(Coloring.from_list([v % 2 for v in range(g.vertex_count)]))
        else:
            fold = _vector_fold(exact_chromatic_number(g, guard=guard)[1])
        c = Coloring.from_list(_compose(fold, n).tolist())
    if not is_valid_coloring(gn, c):
        raise ChromacodeError(f"the {strategy} coloring of the power is not valid")
    return gn, c


def even_cycle_power_coloring(k, n, guard=None):
    """(C_{2k}^n, its parity-vector coloring with exactly 2^n colors): the
    `even-cycle` strategy of `power_coloring`."""
    if k < 2 or n < 1:
        raise UsageError("need k >= 2 (C_{2k} with at least 4 vertices) and n >= 1")
    return power_coloring(make_graph("cycle", 2 * k), n, "even-cycle", guard)


def odd_cycle_chi(n, k=2):
    """χ(C_{2k+1}^n) by the recursion χ' = 2χ + ⌈χ/k⌉, χ(C)=3, holding one
    value at a time.

    χ(G[H]) = χ_b(G) with b = χ(H) (Geller & Stahl 1975), and
    χ_b(C_{2k+1}) = 2b + ⌈b/k⌉ (Stahl 1976); at k = 2 this is the C5
    recursion 2χ + ⌈χ/2⌉.
    """
    if k < 2:
        raise UsageError("need k >= 2 (C_{2k+1} with at least 5 vertices)")
    chi = 3
    for _ in range(n - 1):
        chi = _odd_cycle_windows(k, chi)[0]
    return chi


def odd_cycle_chi_sequence(n, k=2):
    """[χ(C_{2k+1}^m) for m = 1..n], by `odd_cycle_chi`."""
    return [odd_cycle_chi(m, k) for m in range(1, n + 1)]


def odd_cycle_power_coloring(i, n, guard=None):
    """Recursive window coloring of C_i^n (i = 2k+1, k >= 2).

    Returns (chi, coloring, graph): chi follows the 2χ+⌈χ/k⌉ recursion, and
    the coloring (the `odd-cycle` strategy of `power_coloring`, palette chi)
    gives each sub-graph block a window of the previous level's χ colors out
    of the next χ.  Coloring and graph are None past the guard.
    """
    if i < 5 or i % 2 == 0:
        raise UsageError("odd cycle scheme needs odd i >= 5 (C3 is complete: chi=3^n)")
    if n < 1:
        raise UsageError("n must be >= 1")
    chi = odd_cycle_chi(n, i // 2)
    try:
        gn, c = power_coloring(make_graph("cycle", i), n, "odd-cycle", guard)
    except GuardExceeded:
        return chi, None, None
    return chi, c, gn


def greedy_gain(i, n):
    """η_n = 3^n / χ(C_i^n): palette gain of the recursive scheme over the
    naive per-coordinate 3-coloring.  Exact rational."""
    if i < 5 or i % 2 == 0:
        raise UsageError("greedy gain defined for odd cycles i >= 5")
    chi = odd_cycle_chi(n, (i - 1) // 2)
    return Fraction(3**n, chi)


def product_coloring(g, n, guard=None):
    """(g^n, its coordinate-wise product coloring): a tuple's color is the
    vector of an exact base coloring over its coordinates, so the palette is
    at most χ(g)^n.  The `product` strategy of `power_coloring`."""
    return power_coloring(g, n, "product", guard)


# -- fractional colorings ----------------------------------------------------


@dataclass(frozen=True)
class FractionalColoring:
    a: int  # total colors
    b: int  # fold size
    sets: tuple  # per-vertex frozensets of color ids


def is_valid_b_fold(g, fc):
    if len(fc.sets) != g.vertex_count:
        raise UsageError("set count != vertex count")
    if any(len(s) != fc.b for s in fc.sets):
        return False
    if any(max(s) >= fc.a for s in fc.sets if s):
        return False
    return all(not (fc.sets[u] & fc.sets[v]) for u, v in g.edges())


def fractional_chromatic_cycle(k, b, guard=None):
    """b-fold colorings of the odd cycle C_{2k+1}.  The coloring holds
    (2k+1)·b set entries, checked against the power guard (GuardExceeded).

    Returns a dict with:
      chi_b_lower: 2b+1, the odd-cycle bound (any b-fold coloring of an odd
                   cycle needs more than 2b colors); this is the published
                   χ_b, and it is tight only for b ≤ k;
      chi_b:       ⌈(2k+1)b/k⌉, the least a for which an a:b coloring exists:
                   the counting bound from α = k (each color class is an
                   independent set of size ≤ k), met by `coloring`;
      coloring:    a constructive, validated chi_b : b window coloring;
      chi_f:       (2k+1)/k as an exact rational.
    """
    if k < 2 or b < 1:
        raise UsageError("need k >= 2 and b >= 1")
    V = 2 * k + 1
    check_guard("fractional coloring set entries V*b", V * b, guard, POWER_GUARD_DEFAULT)
    a, starts = _odd_cycle_windows(k, b)
    fc = FractionalColoring(a, b, tuple(frozenset((s + t) % a for t in range(b)) for s in starts))
    g = make_graph("cycle", V)
    if not is_valid_b_fold(g, fc):
        raise ChromacodeError(f"the {a}:{b} window coloring of C{V} is not valid")
    return {
        "chi_b_lower": 2 * b + 1,
        "chi_b": a,
        "coloring": fc,
        "chi_f": fractional_chromatic_power(k, 1),
    }


def fractional_chromatic_power(k, n):
    """χ_f(C_{2k+1}^n) = ((2k+1)/k)^n, exact rational."""
    if k < 2 or n < 1:
        raise UsageError("need k >= 2 and n >= 1")
    return Fraction(2 * k + 1, k) ** n
