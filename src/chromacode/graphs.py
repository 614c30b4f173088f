"""Undirected simple graphs with bitset adjacency rows.

Vertices are 0-indexed integers 0..V-1.  (Worked examples elsewhere use
1-indexed clockwise numbering; subtract one.)  Adjacency rows are Python ints
used as bitsets, so neighborhood intersections are single AND operations.
"""

import json

from .errors import UsageError, check_guard, load_json

MIS_GUARD_DEFAULT = 24


class Graph:
    """Immutable undirected simple graph."""

    __slots__ = ("vertex_count", "_rows", "_hash")

    def __init__(self, vertex_count, rows):
        self.vertex_count = vertex_count
        self._rows = tuple(rows)
        self._hash = None

    # -- construction -----------------------------------------------------

    @classmethod
    def from_edges(cls, vertex_count, edges):
        if vertex_count < 1:
            raise UsageError("vertex_count must be positive")
        rows = [0] * vertex_count
        seen = set()
        for u, v in edges:
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise UsageError(f"edge ({u},{v}) out of range for V={vertex_count}")
            if u == v:
                raise UsageError(f"self-loop at vertex {u}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise UsageError(f"duplicate edge {key}")
            seen.add(key)
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(vertex_count, rows)

    # -- queries ----------------------------------------------------------

    def _vertex(self, v):
        """v, or UsageError when it is not a vertex index 0..V-1."""
        if not 0 <= v < self.vertex_count:
            raise UsageError(f"vertex {v} out of range")
        return v

    def has_edge(self, u, v):
        return bool(self._rows[self._vertex(u)] >> self._vertex(v) & 1)

    def neighbors_bitset(self, v):
        # unchecked: the solvers call it once per search node
        return self._rows[v]

    def neighbors(self, v):
        return bits_to_list(self._rows[self._vertex(v)])

    def degree(self, v):
        return self._rows[self._vertex(v)].bit_count()

    def degrees(self):
        return [r.bit_count() for r in self._rows]

    @property
    def edge_count(self):
        return sum(r.bit_count() for r in self._rows) // 2

    def edges(self):
        """Edges as (u, v) with u < v, in lexicographic order."""
        out = []
        for u in range(self.vertex_count):
            rest = self._rows[u] >> (u + 1)
            v = u + 1
            while rest:
                if rest & 1:
                    out.append((u, v))
                rest >>= 1
                v += 1
        return out

    def adjacency_matrix(self):
        """The V x V int64 0/1 adjacency matrix, unpacked from the bitset rows."""
        import numpy as np
        V = self.vertex_count
        width = (V + 7) // 8
        packed = b"".join(r.to_bytes(width, "little") for r in self._rows)
        bits = np.frombuffer(packed, dtype=np.uint8).reshape(V, width)
        return np.unpackbits(bits, axis=1, count=V, bitorder="little").astype(np.int64)

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.vertex_count == other.vertex_count
            and self._rows == other._rows
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.vertex_count, self._rows))
        return self._hash

    def __repr__(self):
        return f"Graph(V={self.vertex_count}, E={self.edge_count})"

    # -- serialization ----------------------------------------------------

    def to_dict(self):
        return {"vertices": self.vertex_count, "edges": [list(e) for e in self.edges()]}

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, d):
        try:
            return cls.from_edges(d["vertices"], [tuple(e) for e in d["edges"]])
        except (KeyError, TypeError, ValueError) as exc:
            raise UsageError(f"malformed graph JSON: {exc}") from exc

    @classmethod
    def from_json(cls, s):
        return cls.from_dict(load_json(s, "graph"))


def bits_to_list(bits):
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def make_graph(kind, size=None, edges=None):
    """Standard constructors: cycle, complete, path, edgeless, or custom."""
    if kind == "cycle":
        if size is None or size < 3:
            raise UsageError("cycle needs size >= 3")
        return Graph.from_edges(size, [(i, (i + 1) % size) for i in range(size)])
    if kind == "complete":
        if size is None or size < 1:
            raise UsageError("complete needs size >= 1")
        return Graph.from_edges(size, [(i, j) for i in range(size) for j in range(i + 1, size)])
    if kind == "path":
        if size is None or size < 1:
            raise UsageError("path needs size >= 1")
        return Graph.from_edges(size, [(i, i + 1) for i in range(size - 1)])
    if kind == "edgeless":
        if size is None or size < 1:
            raise UsageError("edgeless needs size >= 1")
        return Graph.from_edges(size, [])
    if kind == "custom":
        if size is None or edges is None:
            raise UsageError("custom needs size and edge list")
        return Graph.from_edges(size, edges)
    raise UsageError(f"unknown graph kind {kind!r}")


def cycle_graph(n):
    return make_graph("cycle", n)


def complete_graph(n):
    return make_graph("complete", n)


def path_graph(n):
    return make_graph("path", n)


def prism_graph():
    """Triangular prism: the concrete 3-regular graph on 6 vertices."""
    return Graph.from_edges(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]
    )


def _maximal_cliques(adj, candidates, min_size=0):
    """Bitsets of the maximal cliques of the subgraph induced on `candidates`
    that have at least `min_size` vertices.

    `adj` holds one adjacency bitset per vertex (no self-bit); pivoted
    Bron-Kerbosch.  An empty candidate set yields the single empty clique.
    Bitsets are walked lowest bit first, in place, with no vertex list.
    """
    out = []

    def expand(r, p, x):
        if r.bit_count() + p.bit_count() < min_size:
            return
        if p == 0 and x == 0:
            out.append(r)
            return
        # pivot: the least vertex of p|x maximizing |p & adj[u]|
        most, rest = -1, p | x
        while rest:
            bit = rest & -rest
            rest ^= bit
            u = bit.bit_length() - 1
            count = (p & adj[u]).bit_count()
            if count > most:
                most, pivot = count, u
        todo = p & ~adj[pivot]
        while todo:
            bit = todo & -todo
            todo ^= bit
            v = bit.bit_length() - 1
            expand(r | bit, p & adj[v], x & adj[v])
            p ^= bit
            x |= bit

    expand(0, candidates, 0)
    return out


def _max_clique_size(adj, candidates, tick=lambda: None, cap=-1):
    """ω of the subgraph induced on `candidates` (adjacency bitsets `adj`), by branch and
    bound on the candidate count, stopping at a clique of `cap` vertices; `tick` runs at every node."""
    best = 0

    def expand(size, p):
        nonlocal best
        tick()
        if p == 0:
            best = max(best, size)
            return
        while p and best != cap and size + p.bit_count() > best:
            v = p.bit_length() - 1
            p &= ~(1 << v)
            expand(size + 1, p & adj[v])

    expand(0, candidates)
    return best


def _complement_rows(g):
    """Adjacency bitsets of the complement of g (no self-bit)."""
    full = (1 << g.vertex_count) - 1
    return [full & ~g.neighbors_bitset(v) & ~(1 << v) for v in range(g.vertex_count)]


def maximal_independent_sets(g, guard=None):
    """All maximal independent sets, via Bron-Kerbosch cliques of the complement.

    Returns a list of sorted vertex tuples.  Complete and duplicate-free.
    """
    V = g.vertex_count
    check_guard("vertex count", V, guard, MIS_GUARD_DEFAULT)
    cliques = _maximal_cliques(_complement_rows(g), (1 << V) - 1)
    return sorted(tuple(bits_to_list(r)) for r in cliques)


def max_independent_set_size(g, guard=None):
    """α(G) = |MIS_G|, the size of a largest independent set: the clique
    number of the complement, by `_max_clique_size`."""
    V = g.vertex_count
    check_guard("vertex count", V, guard, MIS_GUARD_DEFAULT)
    return _max_clique_size(_complement_rows(g), (1 << V) - 1)
