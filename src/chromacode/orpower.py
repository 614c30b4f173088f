"""n-fold OR powers of a graph, with tuple indexing and closed-form degrees.

The power is built recursively block-by-block: G^n consists of V copies of
G^{n-1} (the sub-graph blocks), with complete bipartite cross edges between
blocks l and l' whenever (l, l') is an edge of G and no cross edges otherwise.
Equivalently, two distinct tuples are adjacent iff they are adjacent in the
first coordinate where they differ.  This is the construction all closed-form
degree/chromatic/spectral results in this package are stated for; its
adjacency matrix has the block layout

    A^n = A ⊗ J_{V^{n-1}} + I_V ⊗ A^{n-1}.

Tuples are encoded big-endian, so sub-graph block l is the contiguous index
range [l·V^{n-1}, (l+1)·V^{n-1}).
"""

from .errors import GuardExceeded, UsageError, check_guard, resolve_guard
from .graphs import Graph

POWER_GUARD_DEFAULT = 10_000


class PowerGraph(Graph):
    """OR power with recorded provenance (base size and exponent)."""

    __slots__ = ("tuple_base", "tuple_len")

    def __init__(self, vertex_count, rows, tuple_base, tuple_len):
        super().__init__(vertex_count, rows)
        self.tuple_base = tuple_base
        self.tuple_len = tuple_len

    def to_dict(self):
        d = super().to_dict()
        d["tuple_base"] = self.tuple_base
        d["tuple_len"] = self.tuple_len
        return d


def encode_tuple(tup, base):
    """Big-endian tuple -> integer index in [base^len]."""
    idx = 0
    for x in tup:
        if not 0 <= x < base:
            raise UsageError(f"coordinate {x} out of range for base {base}")
        idx = idx * base + x
    return idx


def check_power_guard(V, n, guard=None):
    """Raise UsageError unless n >= 1, and GuardExceeded when the n-th power of
    a V-vertex graph, or any table over its V^n tuples, is past the power
    guard: first the exponent against the guard's bit length, then the count
    V^n.  The exponent check holds for every V: at V = 1 the count stays 1,
    but work linear in n (rows built, digits read) does not."""
    if n < 1:
        raise UsageError("power n must be >= 1")
    limit = resolve_guard(guard, POWER_GUARD_DEFAULT)
    if n > limit.bit_length():
        # for V > 1, V^n >= 2^n > limit, decided without writing V^n out: at
        # thousands of digits it is too long for an int-to-str conversion to print
        raise GuardExceeded(
            "power exponent n, against the bit length of the guard", n, limit.bit_length()
        )
    check_guard("power vertex count", V**n, limit, POWER_GUARD_DEFAULT)


def or_power(g, n, guard=None):
    """n-fold OR power of g (recursive block construction, see module docs)."""
    V = g.vertex_count
    check_power_guard(V, n, guard)
    rows = list(g._rows)
    for _ in range(n - 1):
        V1 = len(rows)
        full1 = (1 << V1) - 1
        new_rows = []
        for l in range(V):
            base_bits = g.neighbors_bitset(l)
            cross = 0
            lp = 0
            b = base_bits
            while b:
                if b & 1:
                    cross |= full1 << (lp * V1)
                b >>= 1
                lp += 1
            for t in range(V1):
                new_rows.append(cross | (rows[t] << (l * V1)))
        rows = new_rows
    return PowerGraph(V**n, rows, V, n)


def or_power_degree(d, V, n):
    """Degree in G^n of a tuple whose coordinates all have degree d in G, V
    = |G|: d·(1 + V + ... + V^{n-1}) = d(V^n − 1)/(V − 1), or n·d when V = 1."""
    return d * (V**n - 1) // (V - 1) if V > 1 else n * d

