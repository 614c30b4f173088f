"""End-to-end two-source functional compression.

`build_codec` scales the joint PMF once to integers over a common denominator
D, then plans one of two ways.

- Full support (every cell positive): a source's characteristic graph is
  complete multipartite, one part per distinct row of f (source 1) or
  column (source 2), and two n-blocks are adjacent in its n-block graph, the
  co-normal power (Alon & Orlitsky 1996), iff their part vectors differ.
  The part-vector coloring (parts numbered by first appearance, vectors read
  big-endian) is the coarsest valid coloring at every n, so it is optimal in
  palette and in entropy, whatever `coloring_strategy` names.  It and the
  part vectors' weights, products of part weights, are built by Horner over
  plain Python lists (color c -> c * k + part(x) for each appended symbol x,
  k parts); the receiver is the part table of f, read off each part's first
  symbol and lifted by n - 1 broadcasts.  No graph, OR power or χ solver is
  built; the power guard still bounds V^n, the length of each coloring.
- Zero cells: characteristic graphs -> OR powers and their colorings (one
  `coloring.power_coloring` call per source) -> a receiver table
  (`_decoder_table`), which fails loudly if a color pair would decode to two
  outcome blocks.  At n = 1 it is one plain Python pass over the cells in
  (x1, x2) order (`_cell_receiver`), cheaper on a few dozen cells than the
  array calls' fixed overhead; at n >= 2 one array pass over the positive
  block pairs: one sort into (b1, b2) order, then one `np.unique` over their
  color-pair keys, whose first occurrences are the entries.

Either way the receiver table is a `Receiver`, and each source gets a
Huffman code on its integer color weights, sums of block weights over the
scale D^n.  The two-queue core `entropy._huffman` codes the sums as they are
(`huffman_code` only when a color sums to 0, which it drops with a warning),
and the average length is one Fraction(total, D^n).  The plan keeps the
integer weights and the scale, and builds the exact color PMFs, one
Fraction(weight, D^n) per color, only when they are read.

`encode_block` and `decode_pair` code one block at a time, and
`roundtrip_exhaustive` checks every positive block pair in array passes.
`simulate` measures rates over many blocks in a chunked array pass: it
draws SIMULATE_CHUNK blocks per chunk from the seeded `random.Random` stream,
then colors, measures and checks the whole chunk with numpy lookup tables,
the receiver's among them, read from its arrays.
The draw reads the stream's own Mersenne Twister words (`getrandbits`) and
rebuilds in numpy exactly the cells that `rng.choices` would return, by a
branch-free binary search over the cumulative weights, so the reports equal
those of drawing block by block with `choices`.
"""

import json
import operator
import random
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import lcm

import numpy as np

from .chargraph import _check_dims, build_characteristic_graph
from .coloring import Coloring, check_strategy, power_coloring
from .entropy import _huffman, entropy_bits, huffman_code
from .errors import ChromacodeError, UsageError
from .orpower import check_power_guard, encode_tuple


class AmbiguityError(ChromacodeError):
    """Two positive-probability block pairs share colors but disagree on f."""

    def __init__(self, pair_a, pair_b, out_a, out_b):
        super().__init__(
            f"ambiguous color pair: blocks {pair_a} -> {out_a} but {pair_b} -> {out_b}"
        )
        self.witness = (pair_a, pair_b)


SIMULATE_CHUNK = 4096  # blocks per array pass of `simulate`


def _digits(value, base, n):
    """The n big-endian base-`base` digits of the integer `value`, as a tuple."""
    out = [0] * n
    for i in range(n - 1, -1, -1):
        value, out[i] = divmod(value, base)
    return tuple(out)


@dataclass(frozen=True, eq=False)
class Receiver(Mapping):
    """The receiver table as a read-only mapping {(color1, color2): outcome
    block}, held in two int64 arrays: `pair_keys`, the color-pair keys
    color1 * palette2 + color2 in increasing order, and `blocks`, each key's
    outcome block as a big-endian index in base `base`, the spec's outcome
    count, over n digits.  Iteration is in key order, which is (color1,
    color2) order; a lookup is one binary search, and the outcome tuple is
    spelled out only for the key looked up.
    """

    pair_keys: np.ndarray
    blocks: np.ndarray
    palette2: int
    base: int
    n: int

    def _index(self, pair):
        """Position of the color pair `pair` in `pair_keys`, or None."""
        try:
            c1, c2 = map(operator.index, pair)
        except (TypeError, ValueError):
            return None
        keys = self.pair_keys
        key = c1 * self.palette2 + c2
        if c1 < 0 or not 0 <= c2 < self.palette2 or key > keys[-1]:
            return None
        i = int(keys.searchsorted(key))
        return i if keys[i] == key else None

    def __getitem__(self, pair):
        i = self._index(pair)
        if i is None:
            raise KeyError(pair)
        return _digits(int(self.blocks[i]), self.base, self.n)

    def __contains__(self, pair):
        return self._index(pair) is not None

    def __iter__(self):
        c1, c2 = np.divmod(self.pair_keys, self.palette2)
        return zip(c1.tolist(), c2.tolist())

    def __len__(self):
        return self.pair_keys.size


@dataclass
class CodecPlan:
    spec: object
    pmf: object
    n: int
    colorings: tuple
    codes: tuple  # Huffman code dicts keyed by color
    color_weights: tuple  # {color: integer weight over `scale`} per source, first-seen order
    scale: int  # D^n, for the common denominator D of the joint PMF
    avg_lengths: tuple  # exact Fractions, bits per block
    decoder: Receiver  # (color1, color2) -> outcome block tuple
    inverses: tuple  # {codeword: color} per source, the receiver's codebooks

    @cached_property
    def color_pmfs(self):
        """Exact color PMFs over blocks, {color: Fraction(weight, scale)} per
        source, built on first read and kept."""
        return tuple({c: Fraction(w, self.scale) for c, w in s.items()} for s in self.color_weights)


def _outcomes(spec):
    """The spec's outcome count: the base of outcome-block indices."""
    return 1 + max(map(max, spec.table))


def _positive_pairs(spec, positive, n):
    """(b1, b2, out): the positive block pairs as int64 arrays of big-endian
    block indices and outcome-block indices (base `_outcomes`), in the order
    of their n-tuples of positive cells.  A cell (x1, x2) is positive where
    `positive[x1][x2]` is nonzero; the arrays come out of n Horner passes.
    """
    cells = [
        (x1, x2, spec.f(x1, x2))
        for x1 in range(spec.n1)
        for x2 in range(spec.n2)
        if positive[x1][x2]
    ]
    cx1, cx2, cout = (np.array(col, dtype=np.int64) for col in zip(*cells))
    outcomes = _outcomes(spec)
    b1 = b2 = out = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        b1 = (b1[:, None] * spec.n1 + cx1).ravel()
        b2 = (b2[:, None] * spec.n2 + cx2).ravel()
        out = (out[:, None] * outcomes + cout).ravel()
    return b1, b2, out


def _decoder_table(spec, weights, n, c1, c2):
    """The receiver table over every positive block pair, as a `Receiver`;
    raises AmbiguityError at the first pair, in (b1, b2) order, whose colors
    already decode to another outcome block.

    At n = 1 the pairs are the positive cells, and `_cell_receiver` builds
    the table.  At n >= 2 a positive block pair is an n-tuple of positive
    cells (`weights` is the scaled joint PMF), enumerated in one array pass.
    Blocks, outcome blocks and pairs b1 * n2^n + b2 are big-endian indices
    (outcome blocks in base the spec's outcome count, as `simulate` reads
    them), so one sort of the pair indices puts the pairs in (b1, b2) order.
    `np.unique` over the sorted pairs' color-pair keys color1 * palette2 +
    color2 then gives the keys in use, in increasing order, and each key's
    first pair, whose outcome is the key's entry; the first pair that
    disagrees with its key's entry is the first conflict.  Memory: a few
    int64 arrays of one element per positive pair.  b1's buffer becomes the
    pair index, and each pair's key position comes from a `searchsorted`
    after `np.unique` rather than as its inverse, whose temporaries would
    coexist with the pairs' arrays.
    """
    if n == 1:
        return _cell_receiver(spec, weights, c1, c2)
    b1, b2, out = _positive_pairs(spec, weights, n)
    outcomes = _outcomes(spec)
    blocks2 = spec.n2**n
    colors1 = np.array(c1.assignment, dtype=np.int64)
    colors2 = np.array(c2.assignment, dtype=np.int64)
    palette2 = int(colors2.max()) + 1
    key = colors1[b1] * palette2
    key += colors2[b2]
    pair = b1  # b1's buffer becomes the pair index; freeing b2 lowers peak memory
    pair *= blocks2
    pair += b2
    del b1, b2
    order = pair.argsort()
    pair = pair[order]  # one array at a time, so no two copies of all three coexist
    key = key[order]
    out = out[order]
    del order
    keys, first = np.unique(key, return_index=True)
    ref = out[first]
    at = keys.searchsorted(key)  # each pair's key, as a position in `keys`
    bad = np.flatnonzero(out != ref[at])
    if bad.size:
        j = bad[0]
        pairs = [
            (_digits(p // blocks2, spec.n1, n), _digits(p % blocks2, spec.n2, n))
            for p in (int(pair[first[at[j]]]), int(pair[j]))
        ]
        outs = [_digits(int(o), outcomes, n) for o in (ref[at[j]], out[j])]
        raise AmbiguityError(*pairs, *outs)
    return Receiver(keys, ref, palette2, outcomes, n)


def _block_weights(marginal, n):
    """Integer weights of i.i.d. n-blocks in block-index order, the repeated
    products of `marginal`, integer symbol weights over a common denominator
    D; over D^n they are the block probabilities."""
    weights = marginal
    for _ in range(n - 1):
        weights = [w * m for w in weights for m in marginal]
    return weights


def _color_weights(marginal, n, coloring):
    """Integer color weights of i.i.d. blocks, colors in order of first
    appearance: a color's weight is the sum of its blocks' weights."""
    sums = {}
    for c, w in zip(coloring.assignment, _block_weights(marginal, n)):
        sums[c] = sums.get(c, 0) + w
    return sums


def _cell_receiver(spec, positive, c1, c2):
    """The receiver table at n = 1, as a `Receiver`, in one pass over the
    cells in (x1, x2) order: a cell (x1, x2) with `positive[x1][x2]` nonzero
    has color pair (c1[x1], c2[x2]), key color1 * palette2 + color2, where
    palette2 is one more than c2's largest color.  Each key keeps the
    outcome of its first cell; the first cell that disagrees with its key's
    outcome raises AmbiguityError, with that first cell as the witness's
    first pair.
    """
    palette2 = max(c2.assignment) + 1
    first = {}  # key -> (x1, x2, outcome) of its first cell
    for x1, (row, color1, cells) in enumerate(zip(spec.table, c1.assignment, positive)):
        base = color1 * palette2
        for x2, (out, color2, p) in enumerate(zip(row, c2.assignment, cells)):
            if p:
                key = base + color2
                seen = first.get(key)
                if seen is None:
                    first[key] = (x1, x2, out)
                elif seen[2] != out:
                    y1, y2, ref = seen
                    raise AmbiguityError(((y1,), (y2,)), ((x1,), (x2,)), (ref,), (out,))
    keys = sorted(first)
    blocks = [first[key][2] for key in keys]
    return Receiver(
        np.array(keys, dtype=np.int64), np.array(blocks, dtype=np.int64),
        palette2, _outcomes(spec), 1,
    )


def _part_receiver(spec, parts1, parts2, n):
    """The receiver table under full support, as a dense `Receiver` keyed
    c1 * k2^n + c2: the part table, read off each part's first symbol and
    checked in one pass over the cells (the first in (x1, x2) order that
    disagrees raises AmbiguityError), lifted by n - 1 broadcasts that each
    append one digit to both colors and to the outcome block."""
    (a1, k1), (a2, k2) = ((p.assignment, p.palette_size) for p in (parts1, parts2))
    first1, first2 = [a1.index(c) for c in range(k1)], [a2.index(c) for c in range(k2)]
    part = [[spec.table[y1][y2] for y2 in first2] for y1 in first1]
    for x1, (row, c1) in enumerate(zip(spec.table, a1)):
        for x2, (out, c2) in enumerate(zip(row, a2)):
            if out != part[c1][c2]:
                cells = ((first1[c1],), (first2[c2],)), ((x1,), (x2,))
                raise AmbiguityError(*cells, (part[c1][c2],), (out,))
    table = blocks = np.array(part, dtype=np.int64)
    base = _outcomes(spec)
    for _ in range(n - 1):
        lifted = blocks[:, None, :, None] * base + table[None, :, None, :]
        blocks = lifted.reshape(blocks.shape[0] * k1, blocks.shape[1] * k2)
    return Receiver(np.arange(blocks.size), blocks.ravel(), k2**n, base, n)


def _full_support_plan(spec, marginals, n, guard):
    """(colorings, receiver, integer color weights) under full support, by
    part vectors over Python lists (see the module docstring)."""
    lines = spec.table, tuple(zip(*spec.table))  # source 1's rows, source 2's columns
    for symbols in lines:
        check_power_guard(len(symbols), n, guard)
    parts = [Coloring.from_list(symbols) for symbols in lines]  # one part per distinct line
    colorings, sums = [], []
    for m, p in zip(marginals, parts):
        colors, k = p.assignment, p.palette_size
        for _ in range(n - 1):
            colors = [c * k + q for c in colors for q in p.assignment]
        colorings.append(Coloring(tuple(colors), k**n))
        sums.append(dict(enumerate(_block_weights(list(_color_weights(m, 1, p).values()), n))))
    return tuple(colorings), _part_receiver(spec, *parts, n), tuple(sums)


def build_codec(spec, pmf, n, coloring_strategy="auto", guard=None):
    """Codec plan for length-n blocks.  Each cell of `pmf` counts at its exact
    value `Fraction(p)`, a float at its binary value: the color PMFs of float
    cells whose exact sum is not 1 sum to that sum to the power n.

    Under full support the plan codes part vectors whatever the strategy
    (module docstring); `coloring_strategy` must still name one of
    `coloring.STRATEGIES`.  With zero cells each source's OR power is colored
    by `coloring_strategy`.
    """
    if n < 1:
        raise UsageError("block length n must be >= 1")
    _check_dims(spec, pmf)
    check_strategy(coloring_strategy)
    # the joint PMF as integers over one common denominator D, each cell
    # read once as (numerator, denominator); Fraction(p) also takes int and
    # float cells exactly
    ratios = [
        [(p if isinstance(p, Fraction) else Fraction(p)).as_integer_ratio() for p in row]
        for row in pmf.probs
    ]
    D = lcm(*(d for row in ratios for _, d in row))
    weights = [[a * (D // d) for a, d in row] for row in ratios]
    marginals = [sum(row) for row in weights], [sum(col) for col in zip(*weights)]
    if all(map(all, weights)):
        (c1, c2), decoder, sums = _full_support_plan(spec, marginals, n, guard)
    else:
        g1 = build_characteristic_graph(spec, pmf, 1)
        g2 = build_characteristic_graph(spec, pmf, 2)
        _, c1 = power_coloring(g1, n, coloring_strategy, guard)
        _, c2 = power_coloring(g2, n, coloring_strategy, guard)
        decoder = _decoder_table(spec, weights, n, c1, c2)
        sums = tuple(_color_weights(m, n, c) for m, c in zip(marginals, (c1, c2)))
    # Huffman merges the integer sums: one common scale keeps order and ties
    codes, totals = zip(*map(_color_code, sums))
    inverses = tuple({w: c for c, w in code.items()} for code in codes)
    scale = D**n
    return CodecPlan(
        spec, pmf, n, (c1, c2), codes, sums, scale,
        tuple(Fraction(total, scale) for total in totals), decoder, inverses,
    )


def _color_code(sums):
    """(Huffman code, integer total Σ w·len) of integer color weights
    `sums`.  A color whose blocks all have zero weight sums to 0; then
    `huffman_code` warns and drops it, else `_huffman` codes the sums as
    they are."""
    if min(sums.values()) > 0:
        return _huffman([(w, c) for c, w in sums.items()])
    code, total = huffman_code(sums)
    return code, total.numerator


def encode_block(plan, source, block):
    """Codeword bits for a length-n source block."""
    if source not in (1, 2):
        raise UsageError("source must be 1 or 2")
    alphabet = plan.spec.n1 if source == 1 else plan.spec.n2
    block = tuple(block)
    if len(block) != plan.n:
        raise UsageError(f"block length {len(block)} != n = {plan.n}")
    color = plan.colorings[source - 1].assignment[encode_tuple(block, alphabet)]
    code = plan.codes[source - 1]
    if color not in code:
        raise UsageError("unsupported input: block has zero probability")
    return code[color]


def _decode_prefix(inverse, bits):
    if "" in inverse:  # single-color code: zero bits
        if bits:
            raise UsageError(f"trailing bits {bits!r} for a zero-bit code")
        return inverse[""]
    if bits not in inverse:
        raise UsageError(f"bit string {bits!r} is not a codeword")
    return inverse[bits]


def decode_pair(plan, bits1, bits2):
    """Outcome block from the two codewords, via the receiver lookup table."""
    key = (_decode_prefix(plan.inverses[0], bits1), _decode_prefix(plan.inverses[1], bits2))
    out = plan.decoder.get(key)
    if out is None:
        raise UsageError(f"unsupported input: color pair {key} has zero probability")
    return out


def roundtrip_exhaustive(plan):
    """Round-trip every positive-probability block pair; returns their count
    and raises AssertionError at the first mismatch in (b1, b2) order.

    The pairs and their outcome blocks under f come from Horner passes over
    the positive cells (`_positive_pairs`), in chunks that share their first
    n // 2 cells, so memory stays that of one chunk, about the square root
    of the pair count.  Each block is encoded once through
    `plan.codes` and decoded through `plan.inverses` (`_block_tables`), and
    a chunk's decoded color pairs are looked up in the receiver's sorted keys
    in one array pass.  A pair whose colors or key are missing, or whose
    outcome block differs, is replayed in (b1, b2) order by `encode_block`
    and `decode_pair`, which raise or report it as a walk over the pairs
    would.
    """
    spec, n, receiver = plan.spec, plan.n, plan.decoder
    (d1, _), (d2, _) = _block_tables(plan, 1), _block_tables(plan, 2)
    palette1, keys = plan.colorings[0].palette_size, receiver.pair_keys
    # a chunk per pair of the first n // 2 cells, over the pairs of the rest
    rest = n - n // 2
    lead = _positive_pairs(spec, plan.pmf.probs, n // 2)
    tail = _positive_pairs(spec, plan.pmf.probs, rest)
    scales = [base**rest for base in (spec.n1, spec.n2, _outcomes(spec))]
    blocks2 = spec.n2**n
    bad = []
    for head in zip(*lead):
        b1, b2, want = (h * s + t for h, s, t in zip(head, scales, tail))
        c1, c2 = d1[b1], d2[b2]
        key = c1 * receiver.palette2 + c2
        at = np.minimum(keys.searchsorted(key), keys.size - 1)
        good = (c1 < palette1) & (c2 < receiver.palette2) & (keys[at] == key)
        good &= receiver.blocks[at] == want
        bad += (b1[~good] * blocks2 + b2[~good]).tolist()
    for p in sorted(bad):
        t1, t2 = _digits(p // blocks2, spec.n1, n), _digits(p % blocks2, spec.n2, n)
        expected = tuple(spec.f(x1, x2) for x1, x2 in zip(t1, t2))
        got = decode_pair(plan, encode_block(plan, 1, t1), encode_block(plan, 2, t2))
        if got != expected:
            raise AssertionError(f"round-trip mismatch on {t1},{t2}: {got} != {expected}")
    return lead[0].size * tail[0].size


@dataclass
class RateReport:
    n: int
    samples: int
    seed: int
    strategy: str
    rates: tuple  # empirical bits per source symbol, per source
    expected_rates: tuple  # exact avg Huffman length / n, per source
    coloring_entropies: tuple  # bits per symbol of the color PMFs
    source_entropies: tuple  # H(X1), H(X2)
    lossless: bool

    def to_dict(self):
        return {
            "n": self.n,
            "samples": self.samples,
            "seed": self.seed,
            "strategy": self.strategy,
            "rates": list(self.rates),
            "expected_rates": [float(r) for r in self.expected_rates],
            "coloring_entropies": list(self.coloring_entropies),
            "source_entropies": list(self.source_entropies),
            "lossless": self.lossless,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True)


def _block_tables(plan, source):
    """Per block index of one source: (decoded color, codeword length).

    Each color's codeword is decoded once through the plan's inverse codebook.
    A color without a codeword decodes to the palette size, which no color
    pair of the receiver table uses.
    """
    code = plan.codes[source - 1]
    inverse = plan.inverses[source - 1]
    palette = plan.colorings[source - 1].palette_size
    decoded = np.full(palette, palette, dtype=np.int64)
    lengths = np.zeros(palette, dtype=np.int64)
    for c, w in code.items():
        decoded[c] = _decode_prefix(inverse, w)
        lengths[c] = len(w)
    colors = np.array(plan.colorings[source - 1].assignment, dtype=np.int64)
    return decoded[colors], lengths[colors]


def _choices(rng, weights, k):
    """`rng.choices(range(len(weights)), weights, k=k)` as a numpy array.

    `choices` spends one `random()` per draw and returns
    `bisect_right(cum_weights, random() * total, 0, len(weights) - 1)`: the
    number of edges, the cumulative weights but the last, that are <= the
    key.  `random()` is CPython's genrand_res53: two 32-bit Mersenne Twister
    words a, b give ((a >> 5) * 2^26 + (b >> 6)) / 2^53, exact in float64.
    `getrandbits(64 * k)` returns the next 2k words, least significant
    first, so the k `random()` values are rebuilt exactly from it and `rng`
    is left where `choices` would leave it.

    The count is taken by a branch-free binary search over all keys at once:
    the edges, padded with +inf to 2^h entries (2^h > the edge count), are
    probed h times, and pass b, from the top bit down, adds 2^b to a key's
    count when the edge at count + 2^b - 1 is <= the key.  The edges are
    non-decreasing, so this counts the edges <= each key, ties included.
    """
    cum = list(accumulate(weights))
    words = np.frombuffer(rng.getrandbits(64 * k).to_bytes(8 * k, "little"), "<u4")
    x = ((words[0::2] >> 5).astype(np.float64) * 67108864.0 + (words[1::2] >> 6)) * (
        1.0 / 9007199254740992.0
    )
    x *= cum[-1] + 0.0
    h = (len(cum) - 1).bit_length()
    table = np.full(1 << h, np.inf)
    table[: len(cum) - 1] = cum[:-1]
    count = np.zeros(k, dtype=np.intp)
    for b in range(h - 1, -1, -1):
        step = 1 << b
        count += (table[step - 1 :][count] <= x) * step
    return count


def simulate(spec, pmf, n, samples, seed, coloring_strategy="auto", guard=None):
    """Draw i.i.d. blocks, encode, decode, verify, and report empirical rates.

    Blocks are handled SIMULATE_CHUNK at a time, so memory does not grow with
    `samples`.  A chunk of k blocks is k*n cells drawn by `_choices` from
    `random.Random(seed)`: the cells that `rng.choices(cells, weights, k=k*n)`
    returns, rebuilt in numpy from the same 2*k*n Mersenne Twister words,
    with `rng` left in the same state.  `choices` spends one `random()` per
    cell, so the cells, and the report, are those that drawing block by block
    with `choices` would give.  One Horner pass over a chunk's n columns of
    cells gives each sample's two block tuple indices, which index the
    decoded color and codeword length of each block (`_block_tables`), and
    its outcome block under f.  Every sample's decoded color pair is looked
    up in the receiver table `plan.decoder` and compared with that outcome
    block: in a dense array of outcome indices when palette1 x palette2 has
    no more cells than there are positive block pairs, so that its memory
    stays within theirs, and otherwise by binary search over the receiver's
    sorted keys.  A mismatch raises AssertionError naming the first
    mismatching sample in draw order.  The lookup reads the receiver's key and
    outcome-block arrays as they are; no entry is spelled out as a tuple.
    """
    if samples < 1:
        raise UsageError("samples must be >= 1")
    plan = build_codec(spec, pmf, n, coloring_strategy, guard=guard)
    rng = random.Random(seed)
    # cell x1 * n2 + x2 is the pair (x1, x2)
    weights = [float(pmf.p(x1, x2)) for x1 in range(spec.n1) for x2 in range(spec.n2)]
    cell_x1 = np.repeat(np.arange(spec.n1), spec.n2)
    cell_x2 = np.tile(np.arange(spec.n2), spec.n1)
    decoded1, lengths1 = _block_tables(plan, 1)
    decoded2, lengths2 = _block_tables(plan, 2)
    # outcome blocks as big-endian indices in the receiver's base, the
    # spec's outcome count, -1 for no outcome; color pair (k1, k2) is key
    # k1 * (palette2 + 1) + k2, so the colors without a codeword (decoded to
    # the palette size) match no key
    cell_out = np.array(spec.table).ravel()
    palette1, palette2 = (c.palette_size for c in plan.colorings)
    stride = palette2 + 1
    key1 = decoded1 * stride  # the key's first term, taken once per call
    k1, k2 = np.divmod(plan.decoder.pair_keys, palette2)
    keys = k1 * stride + k2  # still increasing: (k1, k2) order
    values = plan.decoder.blocks
    dense = None
    if palette1 * palette2 <= sum(p > 0 for p in weights) ** n:
        dense = np.full((palette1 + 1) * stride, -1, dtype=np.int64)
        dense[keys] = values
    bits = [0, 0]
    for start in range(0, samples, SIMULATE_CHUNK):
        k = min(SIMULATE_CHUNK, samples - start)
        drawn = _choices(rng, weights, k * n).reshape(k, n)
        # the two blocks' tuple indices and the expected outcome block, by
        # Horner's rule over the block's cells
        idx1 = idx2 = want = 0
        for cells in drawn.T:
            idx1 = idx1 * spec.n1 + cell_x1[cells]
            idx2 = idx2 * spec.n2 + cell_x2[cells]
            want = want * plan.decoder.base + cell_out[cells]
        bits[0] += int(lengths1[idx1].sum())
        bits[1] += int(lengths2[idx2].sum())
        key = key1[idx1] + decoded2[idx2]
        if dense is not None:
            got = dense[key]
        else:
            at = np.minimum(np.searchsorted(keys, key), keys.size - 1)
            got = np.where(keys[at] == key, values[at], -1)
        bad = np.flatnonzero(got != want)
        if bad.size:
            row = drawn[bad[0]]
            b1 = tuple(int(x) for x in cell_x1[row])
            b2 = tuple(int(x) for x in cell_x2[row])
            raise AssertionError(f"decode mismatch on sample {b1},{b2}")
    denom = samples * n
    h1 = entropy_bits(pmf.marginal(1))
    h2 = entropy_bits(pmf.marginal(2))
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
        source_entropies=(h1, h2),
        lossless=True,
    )
