"""Valid colorings: verification, greedy/exact baselines, OR-power colorings
and fractional (b-fold) colorings.

The OR power is the lexicographic product G^n = G[G^{n-1}], so an a:b
coloring of the base (b colors per vertex, disjoint on edges) composed with a
b-coloring of G^{n-1} colors G^n with a colors (Geller & Stahl 1975).  One
engine, `_compose`, runs that recursion in plain Python on a *fold*: a
function of b giving (a, per-vertex b-sequences).  The even-cycle (parity),
odd-cycle (windows, χ' = 2χ + ⌈χ/k⌉, Stahl 1976) and product schemes are
folds; so are the least a:b colorings (`_least_fold`, covers by maximal
independent sets), which give χ (`power_chromatic_number`) and the `exact`
coloring of G^n with no search on the power.  One dispatcher, `power_coloring`,
picks a strategy (`auto`: the cycle scheme on a canonical cycle, else exact;
`check_strategy`); every fold is checked level by level on the base graph
(`_checked`), so no power is built but for `greedy`, which has no fold.
"""

import itertools
import time
from dataclasses import dataclass
from fractions import Fraction

from .errors import ChromacodeError, GuardExceeded, UsageError, check_guard
from .graphs import _complement_rows, _max_clique_size, _maximal_cliques, bits_to_list, make_graph
from .graphs import maximal_independent_sets
from .orpower import POWER_GUARD_DEFAULT, check_power_guard, or_power

CHI_GUARD_DEFAULT = 64
CHI_TIMEOUT_DEFAULT = 60.0
# search nodes of one `_least_fold` (one χ or `exact` call), over all its levels: about
# 3.3 per cover set on C5, so C5^12 (255 k nodes) is answered and C5^13 refused
COVER_NODES = 500_000


@dataclass(frozen=True)
class Coloring:
    """Vertex -> color assignment with a contiguous 0-based palette."""

    assignment: tuple
    palette_size: int

    @classmethod
    def from_list(cls, colors):
        """The coloring with palette ids renumbered 0..a-1 by first appearance."""
        remap = {}
        out = [remap.setdefault(c, len(remap)) for c in colors]
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
    """First-fit greedy coloring along the given vertex order (default
    natural), by `_first_fit`."""
    V = g.vertex_count
    order = list(range(V) if order is None else order)
    if sorted(order) != list(range(V)):
        raise UsageError("order must be a permutation of all vertices")
    return _first_fit(g._rows, order)


def _first_fit(rows, order):
    """First-fit coloring along `order`, a permutation of the vertices of the
    graph with adjacency bitsets `rows`: each color keeps its class as one
    bitset, and v takes the least color whose class misses v's row."""
    colors = [0] * len(rows)
    classes = []
    for v in order:
        row = rows[v]
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


def exact_chromatic_number(g, guard=None):
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
    GuardExceeded on size or past CHI_TIMEOUT_DEFAULT seconds (size: the
    elapsed seconds), which is distinct from any coloring outcome.
    """
    start = time.monotonic()
    V = g.vertex_count
    check_guard("vertex count", V, guard, CHI_GUARD_DEFAULT)
    adj = g._rows
    order = sorted(range(V), key=lambda v: -adj[v].bit_count())  # stable: ties by id
    lb = max(1, _greedy_clique_size(adj, order, (1 << V) - 1))
    greedy = _first_fit(adj, order)
    if greedy.palette_size <= lb:
        return greedy.palette_size, greedy

    def tick():
        if (elapsed := time.monotonic() - start) > CHI_TIMEOUT_DEFAULT:
            raise GuardExceeded("exact coloring time (s)", elapsed, CHI_TIMEOUT_DEFAULT)

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
    (a, S) with S the per-vertex sequences of b colors; the recursion starts
    from the one color of G^0.
    """
    colors, b = [0], 1
    for _ in range(n):
        b, S = fold(b)
        colors = [s[c] for s in S for c in colors]
    return colors


def _checked(g, fold):
    """`fold` with each level (a, S) checked to be an a:b coloring of g (`is_valid_b_fold`,
    else ChromacodeError): composing checked levels colors G^n validly, with no power built."""

    def level(b):
        a, S = fold(b)
        if is_valid_b_fold(g, FractionalColoring(a, b, S)):
            return a, S
        raise ChromacodeError(f"the {a}:{b} fold is not a valid coloring of the base graph")

    return level


def _vector_fold(base):
    """S_x = c(x)·b + j: the vector of the base coloring c over the
    coordinates.  On an even cycle with c = parity this is 2^n colors."""
    return lambda b: (base.palette_size * b, [range(c * b, c * b + b) for c in base.assignment])


def _least_fold(g, guard):
    """The least a:b colorings of g: the exact witness (under `guard`) at b = 1, else a
    `_b_fold_cover` of the MIS, listed on the first b > 1; one clock and count span all calls."""
    start, nodes, mis = time.monotonic(), itertools.count(1), []

    def fold(b):
        if b == 1:
            chi, c = exact_chromatic_number(g, guard)
            return chi, [(x,) for x in c.assignment]
        if not mis:
            mis.extend(sum(1 << v for v in s) for s in maximal_independent_sets(g))
            mis.sort(key=lambda s: (s.bit_count(), -s))  # equal children pop the larger set first: C9^4 2 ms, not 25
        return _b_fold_cover(g, mis, b, start, nodes)

    return fold


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
            return 3, [(v % 2,) for v in range(2 * k)] + [(2,)]
        a, starts = _odd_cycle_windows(k, b)
        return a, [[(s + t) % a for t in range(b)] for s in starts]

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


def check_strategy(strategy, g=None):
    """Raise UsageError unless `strategy` is one of STRATEGIES.  Given g,
    return the strategy that colors it: `auto` is the cycle scheme on a
    canonical cycle (`_cycle_scheme`), else `exact`, and a cycle scheme that
    does not fit g raises UsageError."""
    if strategy not in STRATEGIES:
        raise UsageError(f"unknown coloring strategy {strategy!r}")
    if strategy == "auto" and g is not None:
        return _cycle_scheme(g) or "exact"
    if strategy in ("even-cycle", "odd-cycle") and g is not None and strategy != _cycle_scheme(g):
        need = "odd V >= 5" if strategy == "odd-cycle" else "even V >= 4"
        raise UsageError(f"{strategy} strategy needs the canonical cycle C_V with {need}")
    return strategy


def power_coloring(g, n, strategy="auto", guard=None):
    """A valid coloring of G^n by one of STRATEGIES (`check_strategy` reads
    `auto` and refuses a misfit cycle name).  `greedy` colors the materialized
    power first-fit; the others compose their fold of the base (module
    docstring), each level checked on the base graph (`_checked`), and build no
    power.  `guard` bounds the V^n colors listed, checked first whatever the
    strategy, and the exact solver on the base; `exact`'s covers are held to
    the MIS guard, COVER_NODES and the clock.
    """
    strategy = check_strategy(strategy, g)
    if strategy == "greedy":
        return greedy_coloring(or_power(g, n, guard=guard))
    check_power_guard(g.vertex_count, n, guard)
    if strategy == "exact":
        fold = _least_fold(g, guard)
    elif strategy == "odd-cycle":
        fold = _odd_cycle_fold(g.vertex_count // 2)
    elif strategy == "even-cycle":
        fold = _vector_fold(Coloring.from_list([v % 2 for v in range(g.vertex_count)]))
    elif strategy == "product":
        fold = _vector_fold(exact_chromatic_number(g, guard=guard)[1])
    return Coloring.from_list(_compose(_checked(g, fold), n))


def power_chromatic_number(g, n):
    """χ(G^n) = χ_b(G), b = χ(G^{n-1}): the palettes of `_least_fold`, from b = 1,
    each level checked (`_checked`)."""
    if n < 1:
        raise UsageError("n must be >= 1")
    fold, b = _checked(g, _least_fold(g, None)), 1
    for _ in range(n):
        b = fold(b)[0]
    return b


def _b_fold_cover(g, mis, b, start, nodes):
    """A least a:b coloring (a, S) of g: the fewest of its maximal independent sets `mis`,
    repeats allowed, covering each vertex b times, S[v] the first b of them holding v.
    Depth first on a stack of (used, demand left, sets as a linked list), branching on the
    sets holding the vertex of largest demand; cut once used + max(max demand, ⌈Σ demand/α⌉)
    reaches the best or the same demand was met with no more sets.  Each node popped takes
    the next number of the count `nodes`, checked against COVER_NODES."""
    V = g.vertex_count
    alpha, best, cover, fewest = max(s.bit_count() for s in mis), b * V + 1, None, {}
    stack = [(0, (b,) * V, None)]
    while stack:
        if (visited := next(nodes)) > COVER_NODES:
            raise GuardExceeded("b-fold cover search nodes", visited, COVER_NODES)
        used, demand, chain = stack.pop()
        top = max(demand)
        if used + max(top, -(-sum(demand) // alpha)) >= best or fewest.get(demand, best) <= used:
            continue
        if (elapsed := time.monotonic() - start) > CHI_TIMEOUT_DEFAULT:  # one clock over all levels
            raise GuardExceeded("exact coloring time (s)", elapsed, CHI_TIMEOUT_DEFAULT)
        fewest[demand] = used
        if not top:
            best, cover = used, chain
            continue
        v = demand.index(top)  # the child with the least Σ demand² left is popped first
        children = [(used + 1, tuple(d - (d > 0 and s >> u & 1) for u, d in enumerate(demand)), (s, chain))
                    for s in mis if s >> v & 1]
        stack += sorted(children, key=lambda node: -sum(d * d for d in node[1]))
    sets = []
    while cover:
        s, cover = cover
        sets.append(s)
    return best, [[i for i, s in enumerate(sets) if s >> v & 1][:b] for v in range(V)]


def even_cycle_power_coloring(k, n, guard=None):
    """The parity-vector coloring of C_{2k}^n, with exactly 2^n colors: the
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
    if k < 2 or n < 1:
        raise UsageError("n must be >= 1 and k >= 2 (C_{2k+1} with at least 5 vertices)")
    chi = 3
    for _ in range(n - 1):
        chi = _odd_cycle_windows(k, chi)[0]
    return chi


def odd_cycle_power_coloring(i, n, guard=None):
    """Recursive window coloring of C_i^n (i = 2k+1, k >= 2).

    Returns (chi, coloring): chi follows the 2χ+⌈χ/k⌉ recursion, and the
    coloring (the `odd-cycle` strategy of `power_coloring`, palette chi)
    gives each sub-graph block a window of the previous level's χ colors out
    of the next χ.  The coloring is None past the guard.
    """
    if i < 5 or i % 2 == 0:
        raise UsageError("odd cycle scheme needs odd i >= 5 (C3 is complete: chi=3^n)")
    chi = odd_cycle_chi(n, i // 2)  # refuses n < 1
    try:
        return chi, power_coloring(make_graph("cycle", i), n, "odd-cycle", guard)
    except GuardExceeded:
        return chi, None


def product_coloring(g, n, guard=None):
    """The coordinate-wise product coloring of g^n: a tuple's color is the
    vector of an exact base coloring over its coordinates, so the palette is
    at most χ(g)^n.  The `product` strategy of `power_coloring`."""
    return power_coloring(g, n, "product", guard)


# -- fractional colorings ----------------------------------------------------


@dataclass(frozen=True)
class FractionalColoring:
    a: int  # total colors
    b: int  # fold size
    sets: tuple  # per-vertex collections of color ids


def is_valid_b_fold(g, fc):
    if len(fc.sets) != g.vertex_count:
        raise UsageError("set count != vertex count")
    sets = [frozenset(s) for s in fc.sets]
    ok = all(len(s) == len(t) == fc.b for s, t in zip(fc.sets, sets))
    ok = ok and frozenset().union(*sets) <= frozenset(range(fc.a))
    return ok and not any(sets[u] & sets[v] for u, v in g.edges())


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
      coloring:    a chi_b : b coloring, the `odd-cycle` fold at b (windows
                   for b > 1), checked by `_checked`;
      chi_f:       (2k+1)/k as an exact rational.
    """
    if k < 2 or b < 1:
        raise UsageError("need k >= 2 and b >= 1")
    V = 2 * k + 1
    check_guard("fractional coloring set entries V*b", V * b, guard, POWER_GUARD_DEFAULT)
    a, S = _checked(make_graph("cycle", V), _odd_cycle_fold(k))(b)
    fc = FractionalColoring(a, b, tuple(frozenset(s) for s in S))
    return {"chi_b_lower": 2 * b + 1, "chi_b": a, "coloring": fc, "chi_f": Fraction(2 * k + 1, k)}
